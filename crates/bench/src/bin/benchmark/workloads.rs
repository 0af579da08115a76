//! The four workloads: inputs generated from `--seed`, the timed loop, the
//! output checks, and the traced per-layer numbers.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rsr_core::{
    ColdSpec, DetailSpec, MachineConfig, Pct, PhaseTimes, RunSpec, SampleOutcome, SamplingRegimen,
    Schedule, SimError, SweepOutcome, SweepSpec, WarmupPolicy,
};
use rsr_isa::Program;
use rsr_serve::{request, Daemon, JobSpec, Request, Response, ResultSource, ServeConfig};
use rsr_timing::HotStats;
use rsr_workloads::{Benchmark, WorkloadParams};

use crate::measure::{
    fnv, nproc, peak_rss_mb, percentile, reset_peak_rss, run_for, splitmix64, timed, Summary,
    MIN_REPS,
};
use crate::pins;
use crate::replica::{replica, shadow_step, Tracer, Warmup};
use crate::report::{summarize, Report, Values};

/// A named workload of the benchmark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// mcf, 32M instructions, 50×3000 clusters, R$BP 20 %, `RunSpec::run`.
    McfRsr20,
    /// gcc, 32M instructions, 80×1500 clusters, S$BP, `RunSpec::run`.
    GccSmarts,
    /// mcf_rsr20's cold half fanned over a 20-point L1D×GHR grid,
    /// `SweepSpec::run`.
    McfSweep20,
    /// Batches of 160 short jobs, each from 40 new specs, through one
    /// in-process `Daemon`, closed loop.
    ServeMix,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::McfRsr20, Workload::GccSmarts, Workload::McfSweep20, Workload::ServeMix];

    /// The workload's name, as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McfRsr20 => "mcf_rsr20",
            Workload::GccSmarts => "gcc_smarts",
            Workload::McfSweep20 => "mcf_sweep20",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets up, warms up, measures for `seconds`, checks, and (with
    /// `traced`) runs the traced replica. `seed` draws the serve mix; the
    /// other workloads run the same inputs at every seed.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Report {
        match self {
            Workload::McfRsr20 | Workload::GccSmarts => sampled(self, seconds, traced),
            Workload::McfSweep20 => sweep(seconds, traced),
            Workload::ServeMix => serve(seed, seconds, traced),
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 100;
/// Traced replica runs per traced workload run; layer metrics are medians.
const TRACE_REPS: usize = 3;

/// The paper's headline policy.
fn rsr20() -> Warmup {
    Warmup::Rsr(Pct::new(20))
}

/// A sampled-run input.
struct Sampled {
    bench: Benchmark,
    regimen: SamplingRegimen,
    insts: u64,
    warmup: Warmup,
}

fn mcf_rsr20() -> Sampled {
    Sampled {
        bench: Benchmark::Mcf,
        regimen: SamplingRegimen::new(50, 3000),
        insts: 32_000_000,
        warmup: rsr20(),
    }
}

fn gcc_smarts() -> Sampled {
    Sampled {
        bench: Benchmark::Gcc,
        regimen: SamplingRegimen::new(80, 1500),
        insts: 32_000_000,
        warmup: Warmup::Smarts,
    }
}

/// What a user pays before simulating: building the program and drawing
/// the schedule with `ColdSpec::build_schedule`, the paper's random
/// placement. Done [`SETUP_REPS`] times; returns every duration and the
/// last result.
///
/// The schedule seed is [`pins::SCHEDULE_SEED`] at every `--seed`: the
/// longest skip region, and with it the log's peak size and the run's
/// memory, changes from one random placement to the next, so a fixed
/// placement keeps runs at different seeds comparable.
fn set_up(s: &Sampled) -> Result<(Vec<f64>, Program, Schedule), SimError> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (t, built) = timed(|| {
            let program = s.bench.build(&WorkloadParams::default());
            let schedule = ColdSpec::new(&program)
                .regimen(s.regimen)
                .total_insts(s.insts)
                .seed(pins::SCHEDULE_SEED)
                .build_schedule();
            schedule.map(|schedule| (program, schedule))
        });
        secs.push(t);
        last = Some(built?);
    }
    let (program, schedule) = last.expect("SETUP_REPS is positive");
    Ok((secs, program, schedule))
}

fn standalone(
    program: &Program,
    machine: &MachineConfig,
    schedule: &Schedule,
    policy: WarmupPolicy,
) -> (f64, Result<SampleOutcome, SimError>) {
    timed(|| RunSpec::new(program, machine).schedule(schedule.clone()).policy(policy).run())
}

/// A timed rep: its seconds, its result, and the process's peak RSS (MiB)
/// while it ran.
type Rep<T> = (f64, Result<T, SimError>, f64);

fn measured<T>(f: impl FnOnce() -> (f64, Result<T, SimError>)) -> Rep<T> {
    reset_peak_rss();
    let (t, r) = f();
    (t, r, peak_rss_mb())
}

/// Do two outcomes carry the same deterministic estimate, bit for bit:
/// `est_ipc`, per-cluster CPIs, `log_records`, `ReconStats`, hot
/// instructions?
pub fn same_estimate(a: &SampleOutcome, b: &SampleOutcome) -> bool {
    let bits = |o: &SampleOutcome| o.cpi_clusters.values().iter().map(|v| v.to_bits()).collect();
    let (ba, bb): (Vec<u64>, Vec<u64>) = (bits(a), bits(b));
    a.est_ipc().to_bits() == b.est_ipc().to_bits()
        && ba == bb
        && a.log_records == b.log_records
        && a.recon == b.recon
        && a.hot_insts == b.hot_insts
}

fn single(v: f64) -> Summary {
    Summary::of(&[v])
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn rel_err(est: f64, truth: f64) -> f64 {
    ratio((est - truth).abs(), truth)
}

/// Records the end-to-end metrics: the median set-up, the fastest timed
/// rep, and the median peak RSS of the first [`MIN_REPS`] timed reps (`rss`
/// holds each timed rep's peak).
///
/// The process's memory grows with the reps it has run (the engine pools
/// skip-log buffers, the daemon keeps what it served), so a fixed set of
/// reps keeps a faster host or program from reading as more memory.
fn set_e2e(rep: &mut Report, setup: &[f64], walls: &[f64], rss: &[f64]) {
    rep.set_e2e("setup_s", Summary::of(setup));
    rep.set_e2e("wall_min_s", Summary::fastest(walls));
    rep.set_e2e("peak_rss_mb", Summary::of(&rss[..rss.len().min(MIN_REPS)]));
}

/// A timed engine run's own phase accounting.
fn engine_values(phases: PhaseTimes, wall: Duration) -> Values {
    Values::from([
        ("engine.cold_s", phases.cold.as_secs_f64()),
        ("engine.warm_s", phases.warm.as_secs_f64()),
        ("engine.hot_s", phases.hot.as_secs_f64()),
        ("engine.overlap_s", phases.total().as_secs_f64() - wall.as_secs_f64()),
    ])
}

/// Layer values of one traced rep, from its spans and the replica's
/// outcome (summed over the rep's jobs).
fn replica_values(tr: &Tracer, out: &SampleOutcome, hot: &HotStats) -> Values {
    let secs = |name| tr.total_seconds(name);
    let step = secs("step_n");
    let record = secs("record_region");
    let smarts = secs("skip_with_smarts_warming");
    let seal = (secs("seal_mem_index"), secs("seal_branch_index"));
    let (r, t) = (out.recon, out.recon_timing);
    // The PHT/BTB demand scans run inside the hot cluster; they are
    // reverse's time, not the timing core's.
    let demand = (t.pht_ns + t.btb_ns) as f64 * 1e-9;
    let hot_s = secs("simulate_cluster_hooked") + secs("simulate_cluster") - demand;
    let mut v = Values::from([
        ("func.step_s", step),
        ("func.minst_per_s", ratio(out.skipped_insts as f64 * 1e-6, step)),
        ("log.seal_mem_s", seal.0),
        ("log.seal_branch_s", seal.1),
        ("log.seal_ns_per_record", ratio(1e9 * (seal.0 + seal.1), out.log_records as f64)),
        ("log.records", out.log_records as f64),
        ("log.bytes_peak", out.log_bytes_peak as f64),
        ("reverse.cache_s", secs("reconstruct_caches_partitioned")),
        ("reverse.mem_scanned", r.mem_scanned as f64),
        (
            "reverse.cache_useful_ratio",
            ratio((r.cache_inserted + r.cache_marked) as f64, 2.0 * r.mem_scanned as f64),
        ),
        ("reverse.bp_init_s", secs("BpReconstructor::new")),
        ("reverse.branch_scanned", r.branch_scanned as f64),
        (
            "reverse.pht_exact_ratio",
            ratio(r.pht_exact as f64, (r.pht_exact + r.pht_guessed + r.pht_stale) as f64),
        ),
        ("reverse.reported_l1_ns", t.l1_ns as f64),
        ("reverse.reported_l2_ns", t.l2_ns as f64),
        ("reverse.reported_pht_ns", t.pht_ns as f64),
        ("reverse.reported_btb_ns", t.btb_ns as f64),
        ("timing.hot_s", hot_s),
        ("timing.hot_insts", hot.instructions as f64),
        ("timing.hot_minst_per_s", ratio(hot.instructions as f64 * 1e-6, hot_s)),
        ("timing.cycles", hot.cycles as f64),
        ("timing.mispredicts", hot.full_mispredicts as f64),
        ("shard.reset_s", secs("Cpu::new") + secs("shard_reset")),
        ("trace.wall_s", secs("replica")),
        ("trace.unattributed_s", tr.self_seconds("replica")),
    ]);
    // Functional stepping is fused into both warm-up paths; the shadow
    // pass measures it alone so the remainder is the policy's own cost.
    if record > 0.0 {
        v.insert("log.append_s", record - step);
    }
    if smarts > 0.0 {
        v.insert("sampler.smarts_s", smarts - step);
    }
    v
}

/// One traced rep: the replica (and its functional shadow pass) over each
/// job, checked bit for bit against the engine's outcome for that job.
fn traced_rep(
    rep: &mut Report,
    machine: &MachineConfig,
    jobs: &[(&Program, &Schedule, Warmup, &SampleOutcome)],
    k: usize,
) -> Option<Values> {
    let mut tr = Tracer::new();
    let mut total = SampleOutcome::empty(jobs.first()?.2.policy());
    let mut hot = HotStats::default();
    for (j, &(program, schedule, warmup, engine)) in jobs.iter().enumerate() {
        let span = RunSpec::DEFAULT_SHARD_SPAN;
        let out = replica(program, machine, schedule, warmup, span, &mut tr, j as u32);
        let shadow = shadow_step(program, schedule, &mut tr, j as u32);
        let out = rep.attempt("traced replica", out)?;
        rep.attempt("functional shadow pass", shadow)?;
        rep.check(same_estimate(&out.outcome, engine), || {
            format!("replica job {j} differs from RunSpec::run (rep {k})")
        });
        hot.cycles += out.hot.cycles;
        hot.instructions += out.hot.instructions;
        hot.full_mispredicts += out.hot.full_mispredicts;
        total.absorb(&out.outcome);
    }
    let values = replica_values(&tr, &total, &hot);
    rep.tracers.push(tr);
    Some(values)
}

/// Summarizes traced reps and engine reps into the layer metrics, adding
/// the tracing overhead against the untraced wall.
fn finish_layers(rep: &mut Report, traced: &[Values], engine: &[Values], untraced_wall: f64) {
    let mut layers = summarize(traced);
    layers.extend(summarize(engine));
    if let Some(wall) = layers.get("trace.wall_s") {
        layers.insert("trace.overhead_s", single(wall.value - untraced_wall));
    }
    rep.set_layers(layers);
}

fn sampled(w: Workload, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::new(w);
    let s = if w == Workload::McfRsr20 { mcf_rsr20() } else { gcc_smarts() };
    let machine = MachineConfig::paper();
    let policy = s.warmup.policy();
    let Some((setup, program, schedule)) = rep.attempt("set-up", set_up(&s)) else { return rep };
    let run = || measured(|| standalone(&program, &machine, &schedule, policy));
    let Some(reference) = rep.attempt("warm-up run", run().1) else { return rep };
    let (mut walls, mut rss, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for (t, r, peak) in run_for(seconds, run) {
        if let Some(o) = rep.attempt("timed run", r) {
            rep.check(same_estimate(&o, &reference), || {
                "a timed run differs from the warm-up".into()
            });
            walls.push(t);
            rss.push(peak);
            outcomes.push(o);
        }
    }
    set_e2e(&mut rep, &setup, &walls, &rss);

    let est = reference.est_ipc();
    if w == Workload::McfRsr20 {
        rep.pin("MCF_RSR20_EST_IPC_BITS", est.to_bits(), pins::MCF_RSR20_EST_IPC_BITS);
        rep.pin("MCF_RSR20_LOG_RECORDS", reference.log_records, pins::MCF_RSR20_LOG_RECORDS);
    } else {
        rep.pin("GCC_SMARTS_EST_IPC_BITS", est.to_bits(), pins::GCC_SMARTS_EST_IPC_BITS);
    }
    let truth = pins::true_ipc(s.bench.name(), s.insts);
    rep.notes.push(format!(
        "{} {} insts, {}x{} clusters, {policy}, schedule seed {}, nproc {}",
        s.bench,
        s.insts,
        s.regimen.n_clusters,
        s.regimen.cluster_len,
        pins::SCHEDULE_SEED,
        nproc()
    ));
    rep.notes.push(format!(
        "est_ipc {est:?} ({:#018x}), log_records {}, ipc_rel_err {:.6} against run_full {:?}",
        est.to_bits(),
        reference.log_records,
        truth.map_or(0.0, |t| rel_err(est, t)),
        truth.unwrap_or(f64::NAN),
    ));

    if traced {
        let jobs = [(&program, &schedule, s.warmup, &reference)];
        let reps: Vec<Values> =
            (0..TRACE_REPS).filter_map(|k| traced_rep(&mut rep, &machine, &jobs, k)).collect();
        let engine: Vec<Values> =
            outcomes.iter().map(|o| engine_values(o.phases, o.wall)).collect();
        finish_layers(&mut rep, &reps, &engine, percentile(&walls, 0.5));
        let updates = reference.warm_updates as f64;
        let smarts_s = summarize(&reps).get("sampler.smarts_s").map_or(0.0, |m| m.value);
        rep.set_layers(BTreeMap::from([
            ("sampler.warm_updates", single(updates)),
            ("sampler.ns_per_update", single(ratio(1e9 * smarts_s, updates))),
            ("sampler.ipc_rel_err", single(truth.map_or(0.0, |t| rel_err(est, t)))),
        ]));
    }
    rep
}

/// L1D capacities (KiB) × gshare history depths of the sweep grid. The
/// paper machine (32 KiB, 16 bits) is one of the 20 points.
const L1D_KB: [u64; 5] = [8, 16, 32, 64, 128];
const GHR_BITS: [u32; 4] = [10, 12, 14, 16];

/// The 20 named machine variants, L1D varying fastest.
fn sweep_grid() -> Vec<(String, MachineConfig)> {
    GHR_BITS
        .iter()
        .flat_map(|&ghr| L1D_KB.iter().map(move |&kb| (kb, ghr)))
        .map(|(kb, ghr)| {
            let mut m = MachineConfig::paper();
            m.hier.l1d.size_bytes = kb * 1024;
            m.pred.ghr_bits = ghr;
            (format!("l1d{kb}k-ghr{ghr}"), m)
        })
        .collect()
}

fn sweep(seconds: f64, traced: bool) -> Report {
    let mut rep = Report::new(Workload::McfSweep20);
    let s = mcf_rsr20();
    let policy = s.warmup.policy();
    let Some((setup, program, schedule)) = rep.attempt("set-up", set_up(&s)) else { return rep };
    let grid = sweep_grid();
    let run = || {
        measured(|| {
            timed(|| {
                let cold = ColdSpec::new(&program).schedule(schedule.clone());
                let spec = grid.iter().fold(SweepSpec::new(cold), |spec, (name, machine)| {
                    spec.config(name.clone(), DetailSpec::new(machine).policy(policy))
                });
                spec.run()
            })
        })
    };
    let Some(reference) = rep.attempt("warm-up sweep", run().1) else { return rep };
    let ests = |o: &SweepOutcome| -> Vec<u64> {
        o.configs.iter().map(|c| c.outcome.est_ipc().to_bits()).collect()
    };
    let (mut walls, mut rss, mut sweep_values) = (Vec::new(), Vec::new(), Vec::new());
    for (t, r, peak) in run_for(seconds, run) {
        if let Some(o) = rep.attempt("timed sweep", r) {
            rep.check(ests(&o) == ests(&reference), || {
                "a timed sweep differs from the warm-up".into()
            });
            walls.push(t);
            rss.push(peak);
            let replay = o.wall.saturating_sub(o.cold_wall).as_secs_f64();
            sweep_values.push(Values::from([
                ("sweep.capture_s", o.cold_wall.as_secs_f64()),
                ("sweep.replay_s", replay),
                ("sweep.replay_s_per_config", replay / o.configs.len() as f64),
                ("sweep.index_builds", o.index_builds as f64),
                ("sweep.index_builds_shared", o.index_builds_shared as f64),
                ("sweep.restore_bytes", o.restore_bytes as f64),
            ]));
        }
    }
    set_e2e(&mut rep, &setup, &walls, &rss);
    rep.pin("MCF_SWEEP20_DIGEST", fnv(ests(&reference)), pins::MCF_SWEEP20_DIGEST);

    // The paper-machine config is mcf_rsr20 itself: one standalone run
    // (one per traced rep) checks the whole sweep path against the engine.
    let paper = MachineConfig::paper();
    let Some(p) = grid.iter().position(|(_, m)| {
        m.hier.l1d.size_bytes == paper.hier.l1d.size_bytes && m.pred.ghr_bits == paper.pred.ghr_bits
    }) else {
        rep.check(false, || "the sweep grid lacks the paper machine".into());
        return rep;
    };
    let swept = &reference.configs[p].outcome;
    let mut alone = Vec::new();
    for _ in 0..if traced { TRACE_REPS } else { 1 } {
        let (t, r) = standalone(&program, &paper, &schedule, policy);
        if let Some(o) = rep.attempt("standalone mcf_rsr20 run", r) {
            rep.check(same_estimate(&o, swept), || {
                format!(
                    "sweep config {} differs from its standalone run",
                    reference.configs[p].name
                )
            });
            alone.push((t, o));
        }
    }
    let truth = pins::true_ipc(s.bench.name(), s.insts);
    let est = swept.est_ipc();
    rep.notes.push(format!(
        "{} configs from one capture, replay_threads {} (resolved), schedule seed {}, nproc {}",
        grid.len(),
        reference.replay_threads,
        pins::SCHEDULE_SEED,
        nproc()
    ));
    rep.notes.push(format!(
        "paper config {}: est_ipc {est:?}, ipc_rel_err {:.6}",
        reference.configs[p].name,
        truth.map_or(0.0, |t| rel_err(est, t))
    ));

    if traced {
        let Some((_, engine_out)) = alone.first() else { return rep };
        let jobs = [(&program, &schedule, s.warmup, engine_out)];
        let reps: Vec<Values> =
            (0..TRACE_REPS).filter_map(|k| traced_rep(&mut rep, &paper, &jobs, k)).collect();
        let engine: Vec<Values> =
            alone.iter().map(|(_, o)| engine_values(o.phases, o.wall)).collect();
        let alone_walls: Vec<f64> = alone.iter().map(|(t, _)| *t).collect();
        finish_layers(&mut rep, &reps, &engine, percentile(&alone_walls, 0.5));
        let mut layers = summarize(&sweep_values);
        layers.insert("sampler.ipc_rel_err", single(truth.map_or(0.0, |t| rel_err(est, t))));
        rep.set_layers(layers);
    }
    rep
}

/// A serve batch: this many distinct specs, each submitted this many times.
const SERVE_SPECS: usize = 40;
const SERVE_REPEATS: usize = 4;
const SERVE_INSTS: u64 = 2_000_000;
const SERVE_CLUSTERS: usize = 30;
const SERVE_CLUSTER_LEN: u64 = 1000;

/// Batch `batch`'s distinct jobs: all nine programs in turn, schedule
/// seeds drawn from `(seed, batch)`, so every batch brings the daemon specs
/// it has not seen.
fn serve_jobs(seed: u64, batch: u64) -> Vec<JobSpec> {
    let mut state = fnv([seed, batch]);
    (0..SERVE_SPECS)
        .map(|i| JobSpec {
            n_clusters: SERVE_CLUSTERS,
            cluster_len: SERVE_CLUSTER_LEN,
            total_insts: SERVE_INSTS,
            seed: splitmix64(&mut state),
            policy: rsr20().policy(),
            ..JobSpec::for_bench(Benchmark::ALL[i % Benchmark::ALL.len()])
        })
        .collect()
}

/// Batch `batch`'s submission order: every job [`SERVE_REPEATS`] times,
/// shuffled by `batch`. Every batch does the same work — 40 computed
/// results and 120 repeats — in its own order, so a run's medians average
/// over orders instead of depending on one.
fn serve_order(batch: u64) -> Vec<usize> {
    let mut state = fnv([batch]);
    let mut order: Vec<usize> = (0..SERVE_SPECS * SERVE_REPEATS).map(|k| k % SERVE_SPECS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// One served reply: where the result came from and its `est_ipc` bits.
type Reply = Result<(ResultSource, u64), String>;

/// One batch: its jobs' submission order through `clients` closed-loop
/// client threads.
struct Batch {
    /// Job index of each submission.
    order: Vec<usize>,
    wall_s: f64,
    /// Peak RSS (MiB) over the batch, daemon included.
    rss_mb: f64,
    /// `(latency ms, reply)` in submission order.
    replies: Vec<(f64, Reply)>,
    /// Requests that joined an identical in-flight job, and requests shed.
    deduped: u64,
    shed: u64,
}

fn serve_batch(daemon: &Daemon, jobs: &[JobSpec], order: Vec<usize>, clients: usize) -> Batch {
    let addr = daemon.local_addr().to_string();
    let before = daemon.stats();
    reset_peak_rss();
    let next = AtomicUsize::new(0);
    let (wall_s, mut replies) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            // The counter only hands out positions; it
                            // publishes no other data.
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&j) = order.get(k) else { break };
                            let submit = Request::Submit { job: jobs[j].clone(), wait: true };
                            let (t, r) = timed(|| request(&addr, &submit));
                            let reply = match r {
                                Ok(Response::Done { source, est_ipc, .. }) => {
                                    Ok((source, est_ipc.to_bits()))
                                }
                                Ok(other) => Err(format!("daemon answered {other:?}")),
                                Err(e) => Err(e.to_string()),
                            };
                            mine.push((k, t * 1e3, reply));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect::<Vec<_>>()
        })
    });
    let rss_mb = peak_rss_mb();
    let after = daemon.stats();
    replies.sort_by_key(|r| r.0);
    let replies = replies.into_iter().map(|(_, ms, reply)| (ms, reply)).collect();
    Batch {
        order,
        wall_s,
        rss_mb,
        replies,
        deduped: after.deduped - before.deduped,
        shed: after.shed - before.shed,
    }
}

/// What a user pays before submitting: starting a daemon on an empty
/// cache. Done [`SETUP_REPS`] times, each daemon drained at once.
fn serve_setups(dir: &Path) -> io::Result<Vec<f64>> {
    (0..SETUP_REPS)
        .map(|_| {
            let _ = std::fs::remove_dir_all(dir);
            let (t, daemon) = timed(|| Daemon::start(ServeConfig::new(dir)));
            daemon?.drain();
            Ok(t)
        })
        .collect()
}

/// Checks a batch's replies: every submission answered, and every answer
/// for a spec — computed or a cache hit — the same. Returns each job's
/// answer.
fn check_replies(rep: &mut Report, b: &Batch) -> Vec<Option<u64>> {
    rep.check(b.replies.len() == b.order.len(), || "a submission went unanswered".into());
    let mut served = vec![None; SERVE_SPECS];
    for (&j, (_, reply)) in b.order.iter().zip(&b.replies) {
        let Some((_, bits)) = rep.attempt("submission", reply.clone()) else { continue };
        match served[j] {
            None => served[j] = Some(bits),
            Some(want) => rep.check(bits == want, || {
                format!("job {j} served est_ipc {bits:#x}, earlier {want:#x}")
            }),
        }
    }
    served
}

fn serve(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::new(Workload::ServeMix);
    let clients = nproc().min(2);
    // The daemon's cache lives inside the working directory and goes when
    // done.
    let tmp = Path::new(".bench_tmp");
    let dir = tmp.join(format!("serve-{}", std::process::id()));
    let Some(setup) = rep.attempt("daemon start", serve_setups(&dir)) else { return rep };
    // One daemon serves every batch, as a long-running one would: the
    // warm-up batch fills its program table, and each later batch brings
    // new specs, so every batch computes 40 results and hits the cache 120
    // times.
    let _ = std::fs::remove_dir_all(&dir);
    let Some(daemon) = rep.attempt("daemon start", Daemon::start(ServeConfig::new(&dir))) else {
        return rep;
    };
    let workers = daemon.workers();
    let jobs = serve_jobs(seed, 0);
    let first = serve_batch(&daemon, &jobs, serve_order(0), clients);
    let mut batches_run = 1;
    let batches = run_for(seconds, || {
        let b =
            serve_batch(&daemon, &serve_jobs(seed, batches_run), serve_order(batches_run), clients);
        batches_run += 1;
        b
    });
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(tmp);

    let served = check_replies(&mut rep, &first);
    if seed == pins::PIN_SEED {
        let bits = first.replies.iter().map(|(_, r)| r.as_ref().map_or(0, |&(_, bits)| bits));
        rep.pin("SERVE_MIX_DIGEST", fnv(bits), pins::SERVE_MIX_DIGEST);
    }
    let (mut walls, mut rss, mut hit_ms, mut compute_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut serve_values = Vec::new();
    for b in batches {
        check_replies(&mut rep, &b);
        walls.push(b.wall_s);
        rss.push(b.rss_mb);
        let mut hits = 0;
        for (ms, reply) in &b.replies {
            match reply {
                Ok((ResultSource::CacheHit, _)) => {
                    hits += 1;
                    hit_ms.push(*ms);
                }
                Ok(_) => compute_ms.push(*ms),
                Err(_) => {}
            }
        }
        serve_values.push(Values::from([
            ("serve.hit_ratio", ratio(hits as f64, b.replies.len() as f64)),
            ("serve.deduped", b.deduped as f64),
            ("serve.shed", b.shed as f64),
        ]));
    }
    set_e2e(&mut rep, &setup, &walls, &rss);

    let errs: Vec<f64> = jobs
        .iter()
        .zip(&served)
        .filter_map(|(job, bits)| {
            let truth = pins::true_ipc(job.bench.name(), SERVE_INSTS)?;
            Some(rel_err(f64::from_bits((*bits)?), truth))
        })
        .collect();
    let ipc_rel_err = ratio(errs.iter().sum(), errs.len() as f64);
    rep.notes.push(format!(
        "per batch {} submissions of {} new specs (9 programs, {SERVE_INSTS} insts, \
         {SERVE_CLUSTERS}x{SERVE_CLUSTER_LEN}, R$BP 20%), {clients} closed-loop clients, \
         {} daemon workers (resolved), seed {seed}, nproc {}",
        first.order.len(),
        jobs.len(),
        workers,
        nproc()
    ));
    rep.notes.push(format!(
        "mean ipc_rel_err {ipc_rel_err:.6} over the warm-up batch's {} specs",
        errs.len()
    ));

    // The warm-up batch's results against standalone runs of the same
    // specs: the first job always; every job, once per traced rep, when
    // traced.
    let machine = MachineConfig::paper();
    let policy = rsr20().policy();
    let checked = &jobs[..if traced { jobs.len() } else { 1 }];
    let mut programs: BTreeMap<Benchmark, Program> = BTreeMap::new();
    let mut schedules = Vec::new();
    for job in checked {
        let program = programs
            .entry(job.bench)
            .or_insert_with(|| job.bench.build(&WorkloadParams::default()));
        let regimen = SamplingRegimen::new(SERVE_CLUSTERS, SERVE_CLUSTER_LEN);
        let schedule = ColdSpec::new(program)
            .regimen(regimen)
            .total_insts(SERVE_INSTS)
            .seed(job.seed)
            .build_schedule();
        let Some(schedule) = rep.attempt("serve job schedule", schedule) else { return rep };
        schedules.push(schedule);
    }
    // The first rep's outcomes are the engine side of the replica check.
    let mut alone: Vec<SampleOutcome> = Vec::new();
    let mut engine = Vec::new();
    let mut alone_walls = Vec::new();
    for _ in 0..if traced { TRACE_REPS } else { 1 } {
        let (mut phases, mut engine_wall, mut wall) = (PhaseTimes::default(), Duration::ZERO, 0.0);
        let mut outs = Vec::new();
        for (j, (job, schedule)) in checked.iter().zip(&schedules).enumerate() {
            let (t, r) = standalone(&programs[&job.bench], &machine, schedule, policy);
            let Some(o) = rep.attempt("standalone serve job", r) else { return rep };
            rep.check(Some(o.est_ipc().to_bits()) == served[j], || {
                format!("served job {j} differs from its standalone run")
            });
            phases.cold += o.phases.cold;
            phases.warm += o.phases.warm;
            phases.hot += o.phases.hot;
            engine_wall += o.wall;
            wall += t;
            outs.push(o);
        }
        engine.push(engine_values(phases, engine_wall));
        alone_walls.push(wall);
        if alone.is_empty() {
            alone = outs;
        }
    }

    if traced {
        let jobs: Vec<_> = checked
            .iter()
            .zip(&schedules)
            .zip(&alone)
            .map(|((job, schedule), o)| (&programs[&job.bench], schedule, rsr20(), o))
            .collect();
        let reps: Vec<Values> =
            (0..TRACE_REPS).filter_map(|k| traced_rep(&mut rep, &machine, &jobs, k)).collect();
        finish_layers(&mut rep, &reps, &engine, percentile(&alone_walls, 0.5));
        let mut layers = summarize(&serve_values);
        layers.insert("serve.hit_p50_ms", Summary::of(&hit_ms));
        layers.insert("serve.compute_p50_ms", Summary::of(&compute_ms));
        layers.insert("sampler.ipc_rel_err", single(ipc_rel_err));
        rep.set_layers(layers);
    }
    rep
}
