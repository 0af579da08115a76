//! The service fault matrix: every failure mode the job daemon is
//! specified to survive, each mapped to a documented typed status.
//!
//! | fault | typed status |
//! |-------|--------------|
//! | worker panic, budget left | `Done` after a supervised retry |
//! | worker panic, budget spent | `Failed { class: Panic }` |
//! | corrupt cache entry | quarantine + `Done { source: Recomputed }` |
//! | deadline exceeded (stalled worker) | `Failed { class: Deadline }` |
//! | queue overflow | `Overloaded { inflight, limit }` |
//! | stalled job, no deadline | `Done`, wall ≥ the injected stall |
//! | kill mid-queue | journal resume: pending jobs re-run on restart |
//!
//! Plus the service's core contract: a cache hit is *bit-identical* to a
//! fresh standalone [`RunSpec::run`] of the same spec, and identical
//! in-flight submissions dedupe onto one run. Property tests at the
//! bottom pin the wire protocol and the on-disk cache entry format,
//! including adversarial truncation and byte flips rejected as typed
//! errors.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rsr_core::{FaultKind, FaultPlan, Pct, ReconStats, RunSpec, WarmupPolicy, STALL_JOB_DELAY};
use rsr_integration::tiny;
use rsr_serve::{
    decode_entry, encode_entry, request, CacheError, CachedOutcome, Daemon, FailClass, JobSpec,
    Lookup, Request, Response, ResultCache, ResultSource, ServeConfig,
};
use rsr_workloads::Benchmark;

/// Workload build scale shared by the daemons under test and the
/// standalone reference runs ([`tiny`] uses the same factor).
const SCALE: f64 = 0.05;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsr-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The standard small job: twolf, 8×300 clusters over 100 k instructions.
fn job(seed: u64) -> JobSpec {
    JobSpec {
        n_clusters: 8,
        cluster_len: 300,
        total_insts: 100_000,
        seed,
        policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
        ..JobSpec::for_bench(Benchmark::Twolf)
    }
}

fn config(dir: &PathBuf) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.scale = SCALE;
    cfg
}

fn submit(addr: &str, job: &JobSpec, wait: bool) -> Response {
    request(addr, &Request::Submit { job: job.clone(), wait }).expect("daemon reachable")
}

fn wait_settled(daemon: &Daemon) {
    let t = Instant::now();
    loop {
        let s = daemon.stats();
        if s.pending == 0 && s.running == 0 {
            return;
        }
        assert!(t.elapsed() < Duration::from_secs(30), "daemon never settled: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn cache_hit_is_bit_identical_to_a_standalone_run() {
    let dir = scratch("hit");
    let daemon = Daemon::start(config(&dir)).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let spec = job(7);

    let (hash, cold_ipc) = match submit(&addr, &spec, true) {
        Response::Done { hash, source: ResultSource::Computed, attempts: 1, est_ipc, .. } => {
            (hash, est_ipc)
        }
        other => panic!("cold submission answered {other:?}"),
    };
    match submit(&addr, &spec, true) {
        Response::Done { source: ResultSource::CacheHit, attempts: 0, est_ipc, .. } => {
            assert_eq!(est_ipc.to_bits(), cold_ipc.to_bits(), "hit drifted from the computed run");
        }
        other => panic!("repeat submission answered {other:?}"),
    }

    // The strong form: the on-disk entry matches a fresh standalone run
    // field-for-field (every cluster, every counter), not just the IPC.
    let program = tiny(Benchmark::Twolf);
    let standalone = RunSpec::from_parts(
        rsr_serve::job_cold_spec(&spec, &program),
        rsr_serve::job_detail_spec(&spec).threads(2),
    )
    .run()
    .expect("standalone run");
    assert_eq!(
        rsr_serve::job_content_hash(&spec, &program).expect("hashable"),
        hash,
        "wire hash must match the locally computed content address"
    );
    let cached = match ResultCache::open(&dir).expect("cache opens").lookup(hash) {
        Ok(Lookup::Hit(c)) => c,
        other => panic!("entry lookup answered {other:?}"),
    };
    assert!(cached.matches(&standalone), "cached entry diverged from a fresh standalone run");
    assert_eq!(cached.est_ipc().to_bits(), standalone.est_ipc().to_bits());

    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.cache_hits, stats.failed), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_answer_carries_the_specs_content_address() {
    // Computed and cached answers alike report `job_content_hash` of the
    // spec on every program: the address the on-disk cache is keyed by,
    // whether or not the daemon's shared program already memoized its
    // image digest.
    let dir = scratch("address");
    let daemon = Daemon::start(config(&dir)).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    for bench in Benchmark::ALL {
        let spec = JobSpec { bench, n_clusters: 4, total_insts: 40_000, ..job(11) };
        let want = rsr_serve::job_content_hash(&spec, &tiny(bench)).expect("hashable");
        for expected in [ResultSource::Computed, ResultSource::CacheHit] {
            match submit(&addr, &spec, true) {
                Response::Done { hash, source, .. } if source == expected => {
                    assert_eq!(hash, want, "{bench}: {expected:?} answer's hash");
                }
                other => panic!("{bench}: wanted {expected:?}, answered {other:?}"),
            }
        }
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.cache_hits, stats.failed), (9, 9, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_heals_within_budget_and_fails_typed_without() {
    // Budget left: the panic consumes one supervised attempt, the retry
    // completes, and nothing about the result betrays the detour.
    let dir = scratch("panic-heal");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with(FaultKind::WorkerPanic, 0);
    cfg.max_job_retries = 1;
    cfg.backoff_base = Duration::from_millis(1);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    match submit(&addr, &job(1), true) {
        Response::Done { source: ResultSource::Computed, attempts: 2, .. } => {}
        other => panic!("supervised retry answered {other:?}"),
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.failed, stats.retries), (1, 0, 1));
    let _ = std::fs::remove_dir_all(&dir);

    // Budget spent: the panic surfaces as a typed failure, not a hang or
    // a poisoned daemon.
    let dir = scratch("panic-typed");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with_repeated(FaultKind::WorkerPanic, 0, 5);
    cfg.max_job_retries = 1;
    cfg.backoff_base = Duration::from_millis(1);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    match submit(&addr, &job(1), true) {
        Response::Failed { class: FailClass::Panic, attempts: 2, message, .. } => {
            assert!(!message.is_empty());
        }
        other => panic!("exhausted retries answered {other:?}"),
    }
    // The daemon survives its worker's panics: the next job computes.
    match submit(&addr, &job(2), true) {
        Response::Done { source: ResultSource::Computed, .. } => {}
        other => panic!("post-panic submission answered {other:?}"),
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.failed), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entry_is_quarantined_and_recomputed() {
    let dir = scratch("corrupt");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with(FaultKind::CorruptCacheEntry, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let spec = job(3);

    let cold_ipc = match submit(&addr, &spec, true) {
        Response::Done { source: ResultSource::Computed, est_ipc, .. } => est_ipc,
        other => panic!("cold submission answered {other:?}"),
    };
    // The store was corrupted in flight; the next request must detect it,
    // quarantine the entry, and recompute — bit-identically.
    let (hash, recomputed_ipc) = match submit(&addr, &spec, true) {
        Response::Done { hash, source: ResultSource::Recomputed, est_ipc, .. } => (hash, est_ipc),
        other => panic!("corrupted-entry submission answered {other:?}"),
    };
    assert_eq!(recomputed_ipc.to_bits(), cold_ipc.to_bits(), "recompute drifted");
    let cache = ResultCache::open(&dir).expect("cache opens");
    assert!(cache.quarantine_path(hash).exists(), "corrupt entry must be kept for post-mortem");
    // The recomputed store is clean: third time is a plain hit.
    match submit(&addr, &spec, true) {
        Response::Done { source: ResultSource::CacheHit, .. } => {}
        other => panic!("post-recompute submission answered {other:?}"),
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.quarantined, stats.cache_hits), (2, 1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_job_trips_its_deadline_typed() {
    let dir = scratch("deadline");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with(FaultKind::StallJob, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    // The deadline is anchored at worker pickup, so the injected stall
    // (150 ms) consumes a 40 ms budget before the run even starts.
    let mut spec = job(4);
    spec.deadline_ms = Some(40);
    match submit(&addr, &spec, true) {
        Response::Failed { class: FailClass::Deadline, attempts: 0, .. } => {}
        other => panic!("stalled job answered {other:?}"),
    }
    // Deadlines are guards, not part of the content address: the retry
    // without a stall (fault consumed) computes and would serve any
    // deadline-carrying resubmission of the same spec from cache.
    match submit(&addr, &spec, true) {
        Response::Done { source: ResultSource::Computed, .. } => {}
        other => panic!("post-stall submission answered {other:?}"),
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.failed), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_job_without_deadline_just_takes_longer() {
    let dir = scratch("stall");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with(FaultKind::StallJob, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let t = Instant::now();
    match submit(&addr, &job(5), true) {
        Response::Done { source: ResultSource::Computed, attempts: 1, .. } => {}
        other => panic!("stalled job answered {other:?}"),
    }
    assert!(t.elapsed() >= STALL_JOB_DELAY, "the injected stall must actually have happened");
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_sheds_typed_overload() {
    let dir = scratch("overflow");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.queue_depth = 1; // admission limit: 1 running + 1 queued
    cfg.fault_plan = FaultPlan::new().with(FaultKind::StallJob, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    // The stall pins the first job in the worker for 150 ms; the second
    // fills the queue; the third must be shed, typed, immediately.
    assert!(matches!(submit(&addr, &job(10), false), Response::Queued { .. }));
    assert!(matches!(submit(&addr, &job(11), false), Response::Queued { .. }));
    match submit(&addr, &job(12), false) {
        Response::Overloaded { inflight: 2, limit: 2 } => {}
        other => panic!("overflow submission answered {other:?}"),
    }
    wait_settled(&daemon);
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.shed), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_inflight_submissions_dedupe_onto_one_run() {
    let dir = scratch("dedupe");
    let mut cfg = config(&dir);
    cfg.fault_plan = FaultPlan::new().with(FaultKind::StallJob, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let spec = job(6);
    let first = {
        let addr = addr.clone();
        let spec = spec.clone();
        std::thread::spawn(move || submit(&addr, &spec, true))
    };
    // Arrive while the first submission is pinned by its stall.
    std::thread::sleep(Duration::from_millis(40));
    let second = submit(&addr, &spec, true);
    let first = first.join().expect("first submitter");
    for (who, response) in [("first", first), ("second", second)] {
        match response {
            Response::Done { source: ResultSource::Computed, .. } => {}
            other => panic!("{who} deduped submission answered {other:?}"),
        }
    }
    let stats = daemon.drain();
    assert_eq!((stats.completed, stats.deduped), (1, 1), "one run, two satisfied waiters");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_queue_resumes_from_the_journal_on_restart() {
    let dir = scratch("restart");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.fault_plan = FaultPlan::new().with(FaultKind::StallJob, 0);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let seeds = [20u64, 21, 22];
    for seed in seeds {
        assert!(matches!(submit(&addr, &job(seed), false), Response::Queued { .. }));
    }
    // The simulated crash: no drain, queued jobs left pending in the
    // journal. (The stalled in-flight job, if any, settles on the way
    // down — a real kill would leave it pending too, which only means
    // one more resumed job below.)
    daemon.abort();

    let daemon = Daemon::start(config(&dir)).expect("daemon restarts");
    let resumed = daemon.stats().resumed;
    assert!(
        (2..=3).contains(&resumed),
        "journal must carry the admitted-but-unsettled jobs, got {resumed}"
    );
    wait_settled(&daemon);
    // Every admitted job eventually computed — across the crash — and is
    // now served from cache.
    let addr = daemon.local_addr().to_string();
    for seed in seeds {
        match submit(&addr, &job(seed), true) {
            Response::Done { source: ResultSource::CacheHit, .. } => {}
            other => panic!("post-restart submission ({seed}) answered {other:?}"),
        }
    }
    let stats = daemon.drain();
    assert_eq!(stats.completed, resumed, "every resumed job settled");
    assert_eq!(stats.cache_hits, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_stops_the_daemon_and_later_requests_are_refused() {
    let dir = scratch("drain");
    let daemon = Daemon::start(config(&dir)).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    match submit(&addr, &job(8), true) {
        Response::Done { .. } => {}
        other => panic!("submission answered {other:?}"),
    }
    match request(&addr, &Request::Drain).expect("drain reaches the daemon") {
        Response::Draining { settled: 1 } => {}
        other => panic!("drain answered {other:?}"),
    }
    let stats = daemon.wait();
    assert_eq!((stats.completed, stats.pending, stats.running), (1, 0, 0));
    // A drained daemon is gone: connections are refused, not queued.
    assert!(request(&addr, &Request::Stats).is_err(), "stopped daemon must refuse connections");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property tests: wire protocol and cache entry format.
// ---------------------------------------------------------------------------

/// `Option`-valued strategy (the vendored proptest has no `option::of`).
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn arb_policy() -> impl Strategy<Value = WarmupPolicy> {
    (0usize..6, 1u8..=100).prop_map(|(kind, pct)| {
        let pct = Pct::new(pct);
        match kind {
            0 => WarmupPolicy::None,
            1 => WarmupPolicy::FixedPeriod { pct },
            2 => WarmupPolicy::Smarts { cache: true, bp: pct.value().is_multiple_of(2) },
            3 => WarmupPolicy::Reverse { cache: pct.value().is_multiple_of(2), bp: true, pct },
            4 => WarmupPolicy::Mrrl { coverage: pct },
            _ => WarmupPolicy::Blrl { coverage: pct },
        }
    })
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (
        (0usize..Benchmark::ALL.len(), 1usize..64, 1u64..5000, 1u64..10_000_000, any::<u64>()),
        arb_policy(),
        (
            opt(1u64..1024),
            opt(1u32..30),
            opt(1u64..10_000_000),
            opt(any::<u64>()),
            opt(1u64..100_000),
        ),
    )
        .prop_map(
            |(
                (bench, n_clusters, cluster_len, total_insts, seed),
                policy,
                (l1d_kb, ghr_bits, shard_span, log_budget, deadline_ms),
            )| JobSpec {
                bench: Benchmark::ALL[bench],
                n_clusters,
                cluster_len,
                total_insts,
                seed,
                policy,
                l1d_kb,
                ghr_bits,
                shard_span,
                log_budget,
                deadline_ms,
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = CachedOutcome> {
    (
        arb_policy(),
        // Raw bit patterns so the round-trip is pinned for NaNs, infinities,
        // subnormals, and negative zero too.
        proptest::collection::vec(any::<u64>(), 1..40),
        proptest::collection::vec(any::<u64>(), 1..40),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(policy, ipc_bits, cpi_bits, counters, recon)| CachedOutcome {
            policy,
            cluster_ipcs: ipc_bits.into_iter().map(f64::from_bits).collect(),
            cluster_cpis: cpi_bits.into_iter().map(f64::from_bits).collect(),
            hot_insts: counters.0,
            skipped_insts: counters.1,
            log_bytes_peak: counters.2,
            log_records: counters.3,
            warm_updates: counters.4,
            recon: ReconStats {
                mem_scanned: recon.0,
                cache_inserted: recon.1,
                cache_marked: recon.2,
                branch_scanned: recon.3,
                pht_exact: recon.4,
                ..ReconStats::default()
            },
            clusters_degraded: counters.0 % 7,
        })
}

/// Bit-pattern equality for [`CachedOutcome`]s (plain `==` would make two
/// NaN-carrying outcomes unequal even when the bytes agree).
fn same_outcome(a: &CachedOutcome, b: &CachedOutcome) -> bool {
    encode_entry(0, a) == encode_entry(0, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any job round-trips the wire exactly, and the canonical encoding —
    /// the journal and content-address form — is a fixed point.
    #[test]
    fn job_wire_round_trip(job in arb_job()) {
        let encoded = rsr_serve::json::to_string(&job.to_json());
        let parsed = JobSpec::from_json(&rsr_serve::json::parse(&encoded).unwrap()).unwrap();
        prop_assert_eq!(&parsed, &job);
        let canonical = job.canonical_json();
        let reparsed = JobSpec::from_json(&rsr_serve::json::parse(&canonical).unwrap()).unwrap();
        prop_assert_eq!(reparsed.canonical_json(), canonical);
    }

    /// Submit requests round-trip with their wait flag intact.
    #[test]
    fn request_wire_round_trip(job in arb_job(), wait in any::<bool>()) {
        let req = Request::Submit { job, wait };
        let parsed = Request::parse(&req.encode()).unwrap();
        prop_assert_eq!(parsed, req);
    }

    /// Any outcome round-trips the entry format byte-exactly.
    #[test]
    fn cache_entry_round_trip(outcome in arb_outcome(), hash in any::<u64>()) {
        let bytes = encode_entry(hash, &outcome);
        let decoded = decode_entry(&bytes, hash).unwrap();
        prop_assert!(same_outcome(&decoded, &outcome));
    }

    /// Every single-byte flip is rejected as a typed corruption error —
    /// never a panic, never a silently different outcome.
    #[test]
    fn cache_entry_rejects_any_byte_flip(
        outcome in arb_outcome(),
        hash in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_entry(hash, &outcome);
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        match decode_entry(&bytes, hash) {
            Err(CacheError::Corrupt(why)) => prop_assert!(!why.is_empty()),
            Err(CacheError::Io(e)) => prop_assert!(false, "io error for in-memory decode: {e}"),
            Ok(decoded) => prop_assert!(
                false,
                "flipped byte {at} bit {bit} decoded anyway: {decoded:?}"
            ),
        }
    }

    /// Every truncation is rejected as a typed corruption error.
    #[test]
    fn cache_entry_rejects_any_truncation(
        outcome in arb_outcome(),
        hash in any::<u64>(),
        keep in any::<u64>(),
    ) {
        let bytes = encode_entry(hash, &outcome);
        let keep = (keep % bytes.len() as u64) as usize; // always a strict prefix
        match decode_entry(&bytes[..keep], hash) {
            Err(CacheError::Corrupt(why)) => prop_assert!(!why.is_empty()),
            Err(CacheError::Io(e)) => prop_assert!(false, "io error for in-memory decode: {e}"),
            Ok(decoded) => prop_assert!(false, "truncated to {keep} decoded anyway: {decoded:?}"),
        }
    }

    /// A wrong magic, version, or owner hash is rejected typed.
    #[test]
    fn cache_entry_rejects_wrong_owner(outcome in arb_outcome(), hash in any::<u64>()) {
        let bytes = encode_entry(hash, &outcome);
        match decode_entry(&bytes, hash.wrapping_add(1)) {
            Err(CacheError::Corrupt(why)) => {
                prop_assert!(why.contains("wanted"), "unexpected reason: {why}")
            }
            other => prop_assert!(false, "foreign entry accepted: {other:?}"),
        }
    }
}
