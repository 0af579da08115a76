//! Set-partitioned reconstruction-index equivalence: the index-driven
//! reverse scan (`reconstruct_caches_partitioned` and `BpReconstructor`)
//! must be bit-identical to the tests-crate oracles — the sequential full
//! reverse scan and the demand-driven hash-map inference — with the same
//! `ReconStats`, the same cache contents in MRU order, and the same
//! reconstructed predictor state. This holds for arbitrary record
//! streams, including 64-bit PCs and targets the packed records truncate,
//! over-budget truncated logs, and
//! logs that are unsealed, mutated after sealing, or sealed for another
//! geometry or budget; for budget-window seals, which index only the
//! newest `pct` of the log and derive the GHR at the window's start; and
//! for wide L2s that take the cache's per-reference span fallback and
//! multi-word way masks. Logs that retain only their budget window
//! (`SkipLog::set_retention`) must reconstruct exactly as the full log
//! does, with identical accounting.

use proptest::prelude::*;
use rsr_branch::{PredCtrlKind, Predictor};
use rsr_cache::{MemHierarchy, WayDump};
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, MachineConfig, Pct, ReconGeometry, ReconStats,
    RunSpec, SampleOutcome, SamplingRegimen, SkipLog, WarmupPolicy,
};
use rsr_func::{BranchRec, Cpu, MemAccess, Retired};
use rsr_integration::oracle::{reconstruct_caches, RefBpReconstructor};
use rsr_integration::{machine, tiny};
use rsr_isa::{CtrlKind, Inst, MemWidth, Op};
use rsr_workloads::Benchmark;

/// Every set's MRU-ordered tags at every level — the full observable cache
/// state a reconstruction pass produces.
fn all_set_tags(hier: &MemHierarchy) -> Vec<Vec<u64>> {
    let mut tags = Vec::new();
    for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
        for set in 0..cache.num_sets() {
            tags.push(cache.set_tags_mru_order(set));
        }
    }
    tags
}

/// Synthesizes an adversarial retired stream from raw words: 64-bit PCs
/// and targets the packed branch records truncate, non-sequential next
/// PCs, and every control kind.
fn stream_from_words(words: &[u64]) -> Vec<Retired> {
    let kinds = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::Call,
        CtrlKind::IndirectCall,
        CtrlKind::Return,
        CtrlKind::IndirectJump,
    ];
    words
        .iter()
        .enumerate()
        .map(|(seq, &r)| {
            // 48-bit PCs, past what a branch record keeps.
            let pc =
                if r % 5 == 0 { (r | (1 << 45)) % (1 << 48) } else { 0x1_0000 + (r % 4096) * 4 };
            let next_pc = if r % 3 == 0 { r.rotate_left(17) } else { pc.wrapping_add(4) };
            let mem = (r % 2 == 0).then(|| MemAccess {
                addr: r.rotate_left(29) % (1 << 48),
                width: MemWidth::B8,
                is_store: r % 4 == 0,
            });
            let branch = (r % 3 == 0).then(|| BranchRec {
                kind: kinds[(r % 6) as usize],
                taken: r % 2 == 0,
                target: r.rotate_left(41) % (1 << 48),
            });
            Retired {
                seq: seq as u64,
                pc,
                next_pc,
                inst: Inst::new(Op::Add, 0, 0, 0, 0),
                mem,
                branch,
            }
        })
        .collect()
}

fn log_from(stream: &[Retired], budget: Option<usize>) -> SkipLog {
    let mut log = SkipLog::new(true, true, 0);
    log.set_budget(budget);
    for r in stream {
        log.record(r);
    }
    log
}

/// `stream` recorded into a log that keeps only the newest `keep` of
/// each stream, finished so the memory ring reads contiguously.
fn retained_log_from(stream: &[Retired], budget: Option<usize>, keep: Pct) -> SkipLog {
    let mut log = SkipLog::new(true, true, 0);
    log.set_budget(budget);
    log.set_retention(keep);
    for r in stream {
        log.record(r);
    }
    log.finish_region();
    log
}

/// Every set's full content `(tag, valid, dirty, rank, reconstructed)` at
/// every level.
fn all_set_dumps(hier: &MemHierarchy) -> Vec<Vec<WayDump>> {
    let mut sets = Vec::new();
    for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
        for set in 0..cache.num_sets() {
            sets.push(cache.dump_set(set));
        }
    }
    sets
}

/// Forward replay of a region's own branch PCs: the demands the detailed
/// cluster would issue, in order.
fn demand_probes(stream: &[Retired]) -> Vec<(u64, PredCtrlKind)> {
    let kind = |k: CtrlKind| match k {
        CtrlKind::CondBranch => PredCtrlKind::CondBranch,
        CtrlKind::Jump => PredCtrlKind::Jump,
        CtrlKind::Call => PredCtrlKind::Call,
        CtrlKind::IndirectCall => PredCtrlKind::IndirectCall,
        CtrlKind::Return => PredCtrlKind::Return,
        CtrlKind::IndirectJump => PredCtrlKind::IndirectJump,
    };
    stream.iter().filter_map(|r| r.branch.map(|b| (r.pc, kind(b.kind)))).collect()
}

/// Every observable of one reconstruction from a log: the cache side
/// (counters and full set contents) and the branch side both eager and
/// demand-driven (counters and the predictor's full `Debug` state).
#[derive(Debug, PartialEq)]
struct Reconstructed {
    cache: ReconStats,
    sets: Vec<Vec<WayDump>>,
    eager: (ReconStats, String),
    demand: (ReconStats, String),
}

/// Reconstructs every structure from `log` (sealed for `pct` first when
/// `seal`), replaying the region's own branches as the demand sequence.
fn reconstruct_all(
    machine: &MachineConfig,
    log: &SkipLog,
    stream: &[Retired],
    pct: Pct,
    seal: bool,
) -> Reconstructed {
    use rsr_timing::PredictHook as _;
    let mut log = log.clone();
    if seal {
        let geom = ReconGeometry::of_machine(machine);
        log.seal_mem_window(&geom, pct);
        log.seal_branch_index(&geom, pct);
    }
    let mut hier = MemHierarchy::new(machine.hier.clone());
    let (cache, _) = reconstruct_caches_partitioned(&mut hier, &log, pct, 1);
    let mut pred = Predictor::new(machine.pred);
    let mut bp = BpReconstructor::new(&mut pred, &log, pct);
    bp.exhaust(&mut pred);
    let eager = (bp.stats(), format!("{pred:?}"));
    let mut pred = Predictor::new(machine.pred);
    let mut bp = BpReconstructor::new(&mut pred, &log, pct);
    for (pc, kind) in demand_probes(stream) {
        bp.before_predict(&mut pred, pc, kind);
    }
    let demand = (bp.stats(), format!("{pred:?}"));
    Reconstructed { cache, sets: all_set_dumps(&hier), eager, demand }
}

/// Asserts that logs retaining only the `pct` window — and a window
/// between `pct` and everything — reconstruct exactly as the full log
/// does (caches, predictor, counters; sealed and unsealed), and account
/// identically (`appended`, `peak_bytes`, `truncated`).
fn assert_retention_equivalence(
    machine: &MachineConfig,
    stream: &[Retired],
    budget: Option<usize>,
    ghr_at_start: u64,
    pct: Pct,
    what: &str,
) {
    let mut full = log_from(stream, budget);
    full.ghr_at_start = ghr_at_start;
    let wider = Pct::new(pct.value().div_ceil(2) + 50);
    for keep in [pct, wider] {
        let mut log = retained_log_from(stream, budget, keep);
        log.ghr_at_start = ghr_at_start;
        let at = format!("{what}: {pct} scan, {keep} retained");
        assert_eq!(
            (log.appended(), log.peak_bytes(), log.truncated(), log.approx_bytes()),
            (full.appended(), full.peak_bytes(), full.truncated(), full.approx_bytes()),
            "{at}: accounting"
        );
        let (mem_slots, br_slots) = log.retained_slots();
        for (slots, n) in [(mem_slots, log.mem_len()), (br_slots, log.branch_len())] {
            assert!(slots <= keep.of(n).next_power_of_two().max(64), "{at}: {slots} slots for {n}");
        }
        for seal in [false, true] {
            assert_eq!(
                reconstruct_all(machine, &log, stream, pct, seal),
                reconstruct_all(machine, &full, stream, pct, seal),
                "{at}, sealed {seal}"
            );
        }
    }
}

/// The paper machine with a 64-way and with a 128-way L2 (same capacity):
/// past the span walk's 32-way fast path, and — at 128 ways — past the
/// single-word way masks and the popcount rank normalisation.
fn wide_l2_machines() -> [MachineConfig; 2] {
    [64, 128].map(|assoc| {
        let mut m = machine();
        m.hier.l2.assoc = assoc;
        m
    })
}

/// A retired stream from a real workload.
fn workload_stream(bench: Benchmark, n: u64) -> Vec<Retired> {
    let program = tiny(bench);
    let mut cpu = Cpu::new(&program).unwrap();
    (0..n).map(|_| cpu.step().unwrap()).collect()
}

/// Asserts that walking the log's per-set spans — under a full seal for
/// the machine, under a seal of just this budget's window, or under
/// whatever seal `log` carries, which reconstruction replaces when it
/// does not fit — reproduces the oracle's sequential full scan exactly.
fn assert_cache_equivalence(machine: &MachineConfig, log: &SkipLog, pct: Pct, what: &str) {
    let geom = ReconGeometry::of_machine(machine);
    let mut sealed = log.clone();
    sealed.seal_mem_index(&geom);
    let mut windowed = log.clone();
    windowed.seal_mem_window(&geom, pct);
    let mut ref_hier = MemHierarchy::new(machine.hier.clone());
    let ref_stats = reconstruct_caches(&mut ref_hier, log, pct);
    let ref_tags = all_set_tags(&ref_hier);
    for (seal, log) in [("sealed", &sealed), ("window", &windowed), ("as given", log)] {
        let mut hier = MemHierarchy::new(machine.hier.clone());
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, log, pct, 1);
        let at = format!("{what} ({seal}): {pct:?}");
        assert_eq!(stats, ref_stats, "{at}: ReconStats");
        assert_eq!(all_set_tags(&hier), ref_tags, "{at}: cache tags");
    }
}

/// Asserts that the indexed branch-predictor reconstruction (sealed
/// pht-key column + final GHR), over a fresh seal and over whatever seal
/// `log` carries, matches the oracle's forward-pass, hash-map inference
/// on every observable: stats, GHR, full PHT contents, and BTB targets.
fn assert_bp_equivalence(machine: &MachineConfig, log: &SkipLog, pct: Pct, what: &str) {
    let mut sealed = log.clone();
    sealed.seal_branch_index(&ReconGeometry::of_machine(machine), pct);

    let mut ref_pred = Predictor::new(machine.pred);
    let mut ref_bp = RefBpReconstructor::new(&mut ref_pred, log, pct);
    ref_bp.exhaust(&mut ref_pred);

    for (seal, log) in [("sealed", &sealed), ("as given", log)] {
        let mut pred = Predictor::new(machine.pred);
        let mut bp = BpReconstructor::new(&mut pred, log, pct);
        bp.exhaust(&mut pred);
        assert_bp_state_equal(&pred, &bp, &ref_pred, &ref_bp, &format!("{what} ({seal})"), pct);
    }
}

/// Every observable of a reconstructed predictor against the oracle's.
fn assert_bp_state_equal(
    pred: &Predictor,
    bp: &BpReconstructor<'_>,
    ref_pred: &Predictor,
    ref_bp: &RefBpReconstructor,
    what: &str,
    pct: Pct,
) {
    assert_eq!(bp.stats(), ref_bp.stats(), "{what}: BP ReconStats, {pct:?}");
    assert_eq!(pred.gshare.ghr(), ref_pred.gshare.ghr(), "{what}: GHR, {pct:?}");
    for i in 0..pred.gshare.num_entries() {
        assert_eq!(
            pred.gshare.counter_at(i),
            ref_pred.gshare.counter_at(i),
            "{what}: PHT entry {i}, {pct:?}"
        );
    }
    for i in 0..pred.btb.num_entries() {
        let pc = (i as u64) << 2;
        assert_eq!(pred.btb.peek(pc), ref_pred.btb.peek(pc), "{what}: BTB entry {i}, {pct:?}");
    }
}

/// Asserts that the *demand-driven* indexed scan — hot-worklist hops,
/// sealed flush last-writer bits, mid-sequence exhaustion flush — matches
/// the oracle's per-record demand scan on every observable. This is the
/// path the sampler actually exercises; `exhaust` above shares the flush
/// but not the scan loop, so only a demand sequence pins the sealed
/// `BR_F_PHT_FLUSH_LW` placement (which feed survives to the flush, and
/// relative to which budget window) against the incremental reference.
fn assert_bp_demand_equivalence(
    machine: &MachineConfig,
    log: &SkipLog,
    stream: &[Retired],
    pct: Pct,
    what: &str,
) {
    use rsr_timing::PredictHook as _;
    let mut sealed = log.clone();
    sealed.seal_branch_index(&ReconGeometry::of_machine(machine), pct);

    // Forward replay of the region's own branch PCs: the demands the
    // detailed cluster would actually issue, in order, against both scan
    // paths. (Only `before_predict` runs — the GHR stays at its
    // reconstructed value, identically on both sides.)
    let probes = demand_probes(stream);

    let mut ref_pred = Predictor::new(machine.pred);
    let mut ref_bp = RefBpReconstructor::new(&mut ref_pred, log, pct);
    for &(pc, kind) in &probes {
        ref_bp.before_predict(&mut ref_pred, pc, kind);
    }

    let mut pred = Predictor::new(machine.pred);
    let mut bp = BpReconstructor::new(&mut pred, &sealed, pct);
    for &(pc, kind) in &probes {
        bp.before_predict(&mut pred, pc, kind);
    }
    assert_bp_state_equal(&pred, &bp, &ref_pred, &ref_bp, &format!("{what} (demand)"), pct);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary synthetic record streams (64-bit PCs and targets,
    /// every control kind, random stores) reconstruct bit-identically
    /// through the partitioned index at any budget and L2 width. The
    /// 4-bit-history machine makes the branch window seal meet both GHR
    /// cases: a full history before the window, and one topped up from
    /// the (random) `ghr_at_start`.
    #[test]
    fn prop_indexed_recon_matches_full_scan(
        words in proptest::collection::vec(any::<u64>(), 1..400),
        pct_sel in 0usize..5,
        ghr_at_start in any::<u64>(),
    ) {
        let pct = [1, 20, 61, 99, 100].map(Pct::new)[pct_sel];
        let stream = stream_from_words(&words);
        let machine = machine();
        let mut log = log_from(&stream, None);
        log.ghr_at_start = ghr_at_start;
        assert_cache_equivalence(&machine, &log, pct, "synthetic");
        for wide in wide_l2_machines() {
            assert_cache_equivalence(&wide, &log, pct, "synthetic, wide L2");
        }
        let mut short_ghr = machine.clone();
        short_ghr.pred.ghr_bits = 4;
        for (m, what) in [(&machine, "synthetic"), (&short_ghr, "synthetic, 4-bit GHR")] {
            assert_bp_equivalence(m, &log, pct, what);
            assert_bp_demand_equivalence(m, &log, &stream, pct, what);
            assert_retention_equivalence(m, &stream, None, ghr_at_start, pct, what);
        }
    }

    /// Retention under a byte budget: whether the budget truncates the
    /// region mid-way (and where) is decided on the full logged stream,
    /// so retained and full logs agree on it and on everything after.
    #[test]
    fn prop_retained_logs_truncate_like_full_logs(
        words in proptest::collection::vec(any::<u64>(), 50..400),
        pct_sel in 0usize..3,
        budget in 256usize..8192,
    ) {
        let pct = [1, 20, 100].map(Pct::new)[pct_sel];
        let stream = stream_from_words(&words);
        assert_retention_equivalence(&machine(), &stream, Some(budget), 0, pct, "budgeted");
    }

    /// Over-budget logs truncate to empty; both paths must agree that
    /// there is nothing to reconstruct.
    #[test]
    fn prop_truncated_logs_stay_equivalent(
        words in proptest::collection::vec(any::<u64>(), 50..300),
    ) {
        let stream = stream_from_words(&words);
        let machine = machine();
        let log = log_from(&stream, Some(64));
        prop_assert!(log.truncated());
        assert_cache_equivalence(&machine, &log, Pct::new(20), "truncated");
        assert_bp_equivalence(&machine, &log, Pct::new(20), "truncated");
    }
}

#[test]
fn workload_streams_reconstruct_identically_to_the_oracle() {
    // Real streams long enough that many sets complete inside the 20%
    // budget, on the paper machine and on the wide-L2 variants.
    let machine = machine();
    for bench in [Benchmark::Mcf, Benchmark::Gcc] {
        let stream = workload_stream(bench, 230_000);
        let log = log_from(&stream, None);
        assert!(log.mem_len() > 41_000, "{bench:?}: stream too small");
        for pct in [Pct::new(20), Pct::new(100)] {
            assert_cache_equivalence(&machine, &log, pct, bench.name());
            for wide in wide_l2_machines() {
                assert_cache_equivalence(&wide, &log, pct, &format!("{}, wide L2", bench.name()));
            }
            assert_bp_equivalence(&machine, &log, pct, bench.name());
            assert_bp_demand_equivalence(&machine, &log, &stream, pct, bench.name());
            assert_retention_equivalence(&machine, &stream, None, 0, pct, bench.name());
        }
    }
}

#[test]
fn retained_windows_with_few_conditionals_use_the_evicted_history() {
    // A 1% window over a stream whose conditionals are sparse holds fewer
    // than the 4-bit history's worth, so the window-start GHR must come
    // from the evicted-outcome register — checked with and without a
    // start GHR that shows through when the region has few conditionals.
    let mut short_ghr = machine();
    short_ghr.pred.ghr_bits = 4;
    let stream = stream_from_words(
        &(0..3000u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect::<Vec<_>>(),
    );
    for pct in [1, 2, 5].map(Pct::new) {
        for start in [0, 0b1011] {
            assert_retention_equivalence(
                &short_ghr,
                &stream,
                None,
                start,
                pct,
                "sparse conditionals",
            );
        }
    }
}

#[test]
fn wide_pc_streams_reconstruct_identically_under_retention() {
    // Every PC is past 32 bits, so every branch record keeps a truncated
    // PC and target. Retained windows still reconstruct every cache set,
    // the whole predictor and every counter exactly as the full log does,
    // and account the full stream.
    let stream: Vec<Retired> = (0..20_000u64)
        .map(|k| {
            let pc = (1u64 << 40) + k * 4;
            Retired {
                seq: k,
                pc,
                next_pc: pc + 4,
                inst: Inst::new(Op::Ld, 1, 2, 1, 0),
                mem: Some(MemAccess {
                    addr: 0x4000 + k * 72,
                    width: MemWidth::B8,
                    is_store: k % 5 == 0,
                }),
                branch: (k % 3 == 0).then_some(BranchRec {
                    kind: CtrlKind::CondBranch,
                    taken: k % 2 == 0,
                    target: pc + 4,
                }),
            }
        })
        .collect();
    let full = log_from(&stream, None);
    for pct in [1, 20].map(Pct::new) {
        let log = retained_log_from(&stream, None, pct);
        assert_eq!(log.approx_bytes(), full.approx_bytes());
        for seal in [false, true] {
            assert_eq!(
                reconstruct_all(&machine(), &log, &stream, pct, seal),
                reconstruct_all(&machine(), &full, &stream, pct, seal),
                "{pct}, sealed {seal}"
            );
        }
        assert_retention_equivalence(&machine(), &stream, None, 0, pct, "wide PCs");
    }
}

#[test]
fn stale_or_mismatched_seals_are_resealed_and_match_the_oracle() {
    // Records appended after sealing invalidate the index (sealed lengths
    // no longer match), and a seal for another cache geometry, history
    // width, or budget does not fit either: reconstruction must seal its
    // own index and still agree with the oracle.
    let machine = machine();
    let stream = workload_stream(Benchmark::Twolf, 20_000);
    let pct = Pct::new(20);
    let mut log = log_from(&stream[..15_000], None);
    log.seal_mem_index(&ReconGeometry::of_machine(&machine));
    log.seal_branch_index(&ReconGeometry::of_machine(&machine), pct);
    for r in &stream[15_000..] {
        log.record(r);
    }
    assert_cache_equivalence(&machine, &log, pct, "stale seal");
    assert_bp_equivalence(&machine, &log, pct, "stale seal");

    let mut other = machine.clone();
    other.hier.l1d.size_bytes /= 2;
    other.pred.ghr_bits -= 2;
    let mut log = log_from(&stream, None);
    log.seal_mem_index(&ReconGeometry::of_machine(&other));
    log.seal_branch_index(&ReconGeometry::of_machine(&other), pct);
    assert_cache_equivalence(&machine, &log, pct, "other geometry");
    assert_bp_equivalence(&machine, &log, pct, "other geometry");
    log.seal_branch_index(&ReconGeometry::of_machine(&machine), Pct::new(100));
    assert_bp_equivalence(&machine, &log, pct, "other budget");

    // A 20 % window seal cannot serve a 100 % scan, which reseals
    // locally; a full seal serves the 20 % scan as it is.
    let geom = ReconGeometry::of_machine(&machine);
    let mut log = log_from(&stream, None);
    log.seal_mem_window(&geom, pct);
    assert_cache_equivalence(&machine, &log, Pct::new(100), "20% window seal at 100%");
    log.seal_mem_index(&geom);
    assert_cache_equivalence(&machine, &log, pct, "full seal at 20%");
}

/// Everything deterministic two equivalent runs must agree on (timing
/// telemetry legitimately differs).
fn assert_outcomes_equivalent(a: &SampleOutcome, b: &SampleOutcome, what: &str) {
    assert_eq!(a.clusters.values(), b.clusters.values(), "{what}: IPC clusters");
    assert_eq!(a.cpi_clusters.values(), b.cpi_clusters.values(), "{what}: CPI clusters");
    assert_eq!(a.hot_insts, b.hot_insts, "{what}: hot_insts");
    assert_eq!(a.skipped_insts, b.skipped_insts, "{what}: skipped_insts");
    assert_eq!(a.log_records, b.log_records, "{what}: log_records");
    assert_eq!(a.log_bytes_peak, b.log_bytes_peak, "{what}: log_bytes_peak");
    assert_eq!(a.recon, b.recon, "{what}: recon stats");
    assert_eq!(a.clusters_degraded, b.clusters_degraded, "{what}: clusters_degraded");
}

#[test]
fn sampled_runs_are_bit_identical_across_the_thread_depth_matrix() {
    // The acceptance matrix: (threads, pipeline depth) in {1,4} x {1,2} —
    // every combination must reproduce the sequential run's estimate and
    // counters exactly.
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let base_spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(250_000)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(9)
        .shard_span(20_000);
    let base = base_spec.clone().threads(1).pipeline_depth(1).run().unwrap();
    for threads in [1usize, 4] {
        for depth in [1usize, 2] {
            let out = base_spec.clone().threads(threads).pipeline_depth(depth).run().unwrap();
            assert_outcomes_equivalent(&base, &out, &format!("threads {threads}, depth {depth}"));
        }
    }
}
