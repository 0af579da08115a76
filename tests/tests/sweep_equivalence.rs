//! The design-space sweep engine: one cold pass, N detailed configs,
//! every per-config outcome bit-identical to its standalone run.
//!
//! `SweepSpec` shares one functional capture (cluster retire traces +
//! sealed skip logs behind `Arc`) across all configs, then replays the detailed half
//! per config through the same `detailed_window` code path the standalone
//! engines use. The contract mirrors the pipeline's: the sweep is a pure
//! wall-clock optimization, so for every config and every parallelism
//! setting — capture/replay threads, standalone pipeline depth — the
//! sampled estimate and every deterministic
//! counter must equal the standalone `RunSpec` run of the same cold and
//! detailed halves. Supervision must compose unchanged through the capture
//! pass: worker panics and corrupt checkpoints heal by retry with the
//! same healed outcome, and forced log exhaustion degrades every config's
//! clusters identically.

use rsr_core::{
    ColdSpec, DetailSpec, FaultKind, FaultPlan, MachineConfig, Pct, RunSpec, SampleOutcome,
    SamplingRegimen, Schedule, SimError, SweepOutcome, SweepSpec, WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Same scale as `fault_injection.rs` / `pipeline_equivalence.rs`: ~12
/// canonical shards, so 4 capture threads form several worker groups.
const SPAN: u64 = 20_000;
const SEED: u64 = 9;

fn rsr(pct: u8) -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(pct) }
}

/// A fig7/fig8-style machine variant: scaled L1D and gshare history.
fn variant(l1d_kb: u64, ghr_bits: u32) -> MachineConfig {
    let mut m = machine();
    m.hier.l1d.size_bytes = l1d_kb * 1024;
    m.pred.ghr_bits = ghr_bits;
    m
}

/// The sweep's config axis: four machines × analysis percentages that all
/// share one logging signature (cache + bp), as a real geometry sweep
/// would.
fn config_axis() -> Vec<(String, MachineConfig, WarmupPolicy)> {
    vec![
        ("paper".into(), machine(), rsr(20)),
        ("small-l1d".into(), variant(8, 12), rsr(20)),
        ("big-l1d".into(), variant(128, 12), rsr(20)),
        ("deep-ghr".into(), variant(32, 16), rsr(100)),
    ]
}

fn cold() -> ColdSpec<'static> {
    // Leaked once per process: integration scale, a handful of programs.
    let program: &'static _ = Box::leak(Box::new(tiny(Benchmark::Twolf)));
    ColdSpec::new(program)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .seed(SEED)
        .shard_span(SPAN)
}

fn standalone(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    threads: usize,
    depth: usize,
) -> SampleOutcome {
    let program = tiny(Benchmark::Twolf);
    RunSpec::new(&program, machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .seed(SEED)
        .shard_span(SPAN)
        .policy(policy)
        .threads(threads)
        .pipeline_depth(depth)
        .run()
        .expect("standalone run completes")
}

/// Everything deterministic two equivalent runs must agree on (wall-clock,
/// phase times, and retry telemetry legitimately differ).
fn assert_equivalent(a: &SampleOutcome, b: &SampleOutcome, what: &str) {
    assert_eq!(a.clusters.values(), b.clusters.values(), "{what}: IPC clusters drifted");
    assert_eq!(a.cpi_clusters.values(), b.cpi_clusters.values(), "{what}: CPI clusters drifted");
    assert_eq!(a.est_ipc(), b.est_ipc(), "{what}: est_ipc");
    assert_eq!(a.hot_insts, b.hot_insts, "{what}: hot_insts");
    assert_eq!(a.skipped_insts, b.skipped_insts, "{what}: skipped_insts");
    assert_eq!(a.log_records, b.log_records, "{what}: log_records");
    assert_eq!(a.log_bytes_peak, b.log_bytes_peak, "{what}: log_bytes_peak");
    assert_eq!(a.warm_updates, b.warm_updates, "{what}: warm_updates");
    assert_eq!(a.recon, b.recon, "{what}: reconstruction stats");
    assert_eq!(a.clusters_degraded, b.clusters_degraded, "{what}: clusters_degraded");
}

fn sweep_at(threads: usize, depth: usize) -> SweepOutcome {
    sweep_at_replay(threads, depth, 1)
}

fn sweep_at_replay(threads: usize, depth: usize, replay: usize) -> SweepOutcome {
    let mut sweep = SweepSpec::new(cold()).replay_threads(replay);
    for (name, m, policy) in config_axis() {
        sweep = sweep.config(
            name,
            DetailSpec::new(&m).policy(policy).threads(threads).pipeline_depth(depth),
        );
    }
    sweep.run().expect("sweep completes")
}

#[test]
fn mixed_budget_sweeps_share_one_capture_at_the_widest_retention() {
    // R$BP 20 % and 50 % configs share one capture, whose logs keep only
    // the newest 50 % of each stream: the 20 % replays read inside that
    // window, the 50 % replays read all of it, and every config — logged
    // record count and logged peak bytes included — matches its
    // standalone run, whose own logs keep just its own budget.
    let axis = [
        ("paper-20".to_string(), machine(), rsr(20)),
        ("small-l1d-50".to_string(), variant(8, 12), rsr(50)),
        ("deep-ghr-20".to_string(), variant(32, 16), rsr(20)),
        ("paper-50".to_string(), machine(), rsr(50)),
    ];
    for threads in [1usize, 4] {
        let mut sweep = SweepSpec::new(cold()).replay_threads(1);
        for (name, m, policy) in &axis {
            sweep = sweep.config(name, DetailSpec::new(m).policy(*policy).threads(threads));
        }
        let out = sweep.run().expect("sweep completes");
        for ((name, m, policy), got) in axis.iter().zip(&out.configs) {
            let alone = standalone(m, *policy, threads, 1);
            assert_equivalent(&alone, &got.outcome, &format!("{name} at {threads}t"));
            assert!(got.outcome.recon.mem_scanned > 0, "{name}: must reconstruct");
        }
    }
}

#[test]
fn sweep_outcomes_are_bit_identical_to_standalone_runs() {
    // The sequential references, one per config.
    let bases: Vec<(String, SampleOutcome)> = config_axis()
        .iter()
        .map(|(name, m, policy)| (name.clone(), standalone(m, *policy, 1, 1)))
        .collect();
    for threads in [1usize, 4] {
        for depth in [1usize, 2] {
            let out = sweep_at(threads, depth);
            assert_eq!(out.configs.len(), bases.len());
            assert!(out.shards > 1, "scenario must be sharded");
            for ((name, base), got) in bases.iter().zip(&out.configs) {
                assert_eq!(&got.name, name, "config order must be registration order");
                assert_equivalent(
                    base,
                    &got.outcome,
                    &format!("{name} via sweep at {threads}t x depth {depth}"),
                );
                // The standalone run at the same parallelism agrees too
                // (the sweep and pipeline contracts compose).
                let (_, m, policy) = config_axis().into_iter().find(|(n, _, _)| n == name).unwrap();
                let alone = standalone(&m, policy, threads, depth);
                assert_equivalent(
                    &alone,
                    &got.outcome,
                    &format!("{name} standalone at {threads}t x depth {depth}"),
                );
            }
        }
    }
}

#[test]
fn replay_fanout_is_bit_identical_at_any_width() {
    // The config-parallel replay contract: worker chunks own their
    // configs' state for the whole shard, so per-config outcomes are
    // bit-identical at every fan-out — serial (1), an uneven partition
    // (3 → chunks of 2/1/1), and one config per worker (4), every chunk
    // replaying the same shared traces. Composed with capture
    // threads to cover the (threads × replay) product the CI smoke also
    // probes.
    let bases: Vec<(String, SampleOutcome)> = config_axis()
        .iter()
        .map(|(name, m, policy)| (name.clone(), standalone(m, *policy, 1, 1)))
        .collect();
    for replay in [1usize, 3, 4] {
        for threads in [1usize, 4] {
            let out = sweep_at_replay(threads, 1, replay);
            assert_eq!(out.replay_threads, replay, "explicit width is honored");
            assert!(out.index_builds > 0, "reverse configs must build indexes");
            assert!(out.index_builds_shared > 0, "shared-geometry configs must share");
            for ((name, base), got) in bases.iter().zip(&out.configs) {
                assert_equivalent(
                    base,
                    &got.outcome,
                    &format!("{name} at replay {replay} ({threads}t)"),
                );
            }
        }
    }
}

#[test]
fn sweep_configs_actually_differ() {
    // Guard against a degenerate sweep where every config reads the same
    // geometry: the machine variants must produce different estimates.
    let out = sweep_at(1, 1);
    let ipcs: Vec<f64> = out.configs.iter().map(|c| c.outcome.est_ipc()).collect();
    assert!(
        ipcs.windows(2).any(|w| w[0] != w[1]),
        "machine variants should not all estimate the same IPC: {ipcs:?}"
    );
}

#[test]
fn none_policy_sweeps_without_logs() {
    let m = machine();
    let sweep = SweepSpec::new(cold())
        .config("none-a", DetailSpec::new(&m).policy(WarmupPolicy::None))
        .config("none-b", DetailSpec::new(&variant(8, 12)).policy(WarmupPolicy::None));
    let out = sweep.run().expect("None-policy sweep completes");
    for c in &out.configs {
        assert_eq!(c.outcome.log_records, 0, "{}: None must not log", c.name);
    }
    let base = standalone(&m, WarmupPolicy::None, 1, 1);
    assert_equivalent(&base, &out.configs[0].outcome, "none-a via sweep");
}

#[test]
fn sweep_validation_rejects_degenerate_specs() {
    let m = machine();
    // No configs at all.
    assert!(matches!(SweepSpec::new(cold()).run(), Err(SimError::Spec(_))));
    // A policy that warms during the skip cannot replay from a shared
    // functional capture.
    let sweep = SweepSpec::new(cold()).config(
        "smarts",
        DetailSpec::new(&m).policy(WarmupPolicy::Smarts { cache: true, bp: true }),
    );
    assert!(matches!(sweep.run(), Err(SimError::Spec(_))));
    // Mixed logging signatures would share the wrong record stream.
    let sweep = SweepSpec::new(cold()).config("both", DetailSpec::new(&m).policy(rsr(20))).config(
        "cache-only",
        DetailSpec::new(&m).policy(WarmupPolicy::Reverse {
            cache: true,
            bp: false,
            pct: Pct::new(20),
        }),
    );
    assert!(matches!(sweep.run(), Err(SimError::Spec(_))));
    // The cold half's own validation runs too.
    let program = tiny(Benchmark::Twolf);
    let bad = ColdSpec::new(&program)
        .schedule(Schedule::generate(SamplingRegimen::new(12, 600), TOTAL, SEED))
        .regimen(SamplingRegimen::new(12, 600));
    assert!(matches!(
        SweepSpec::new(bad).config("x", DetailSpec::new(&m)).run(),
        Err(SimError::Spec(_))
    ));
}

#[test]
fn build_time_validation_rejects_conflicting_runspecs() {
    let program = tiny(Benchmark::Twolf);
    let m = machine();
    let schedule = Schedule::generate(SamplingRegimen::new(12, 600), TOTAL, SEED);
    // schedule + regimen conflict.
    assert!(matches!(
        RunSpec::new(&program, &m)
            .schedule(schedule.clone())
            .regimen(SamplingRegimen::new(12, 600))
            .run(),
        Err(SimError::Spec(_))
    ));
    // schedule + total_insts conflict (the schedule fixes the length).
    assert!(matches!(
        RunSpec::new(&program, &m).schedule(schedule.clone()).total_insts(TOTAL).run(),
        Err(SimError::Spec(_))
    ));
    // The conflicts surface from run_full too (shared validate()).
    assert!(matches!(
        RunSpec::new(&program, &m)
            .schedule(schedule)
            .regimen(SamplingRegimen::new(12, 600))
            .run_full(),
        Err(SimError::Spec(_))
    ));
    // A regimen without a run length is a build-time error.
    assert!(matches!(
        RunSpec::new(&program, &m).regimen(SamplingRegimen::new(12, 600)).run(),
        Err(SimError::Spec(_))
    ));
}

#[test]
fn fault_matrix_heals_identically_through_the_sweep_path() {
    let bases: Vec<(String, SampleOutcome)> = config_axis()
        .iter()
        .map(|(name, m, policy)| (name.clone(), standalone(m, *policy, 1, 1)))
        .collect();

    let faulted_sweep = |plan: FaultPlan, retries: u32| {
        let mut sweep = SweepSpec::new(cold().fault_plan(plan).max_shard_retries(retries));
        for (name, m, policy) in config_axis() {
            sweep = sweep.config(name, DetailSpec::new(&m).policy(policy).threads(4));
        }
        sweep.run()
    };

    // Worker panic in capture group 1: healed from the pristine
    // checkpoint, every config's outcome unchanged.
    let healed = faulted_sweep(FaultPlan::new().with(FaultKind::WorkerPanic, 1), 1)
        .expect("worker panic heals in the capture pass");
    assert_eq!(healed.shard_retries, 1, "exactly one capture retry");
    for ((name, base), got) in bases.iter().zip(&healed.configs) {
        assert_equivalent(base, &got.outcome, &format!("{name} after worker-panic heal"));
        assert_eq!(got.outcome.shard_retries, 1, "{name}: capture retries stamped per config");
    }

    // Corrupt checkpoint at capture group 2: detected by checksum, healed
    // from the retained copy; without a retry budget it surfaces typed.
    let healed = faulted_sweep(FaultPlan::new().with(FaultKind::CorruptCheckpoint, 2), 1)
        .expect("corruption heals in the capture pass");
    for ((name, base), got) in bases.iter().zip(&healed.configs) {
        assert_equivalent(base, &got.outcome, &format!("{name} after corruption heal"));
    }
    match faulted_sweep(FaultPlan::new().with(FaultKind::CorruptCheckpoint, 2), 0) {
        Err(SimError::CheckpointCorrupt { index: 2, expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected CheckpointCorrupt at group 2, got {other:?}"),
    }

    // Worker panic without a budget: the typed error names the group.
    match faulted_sweep(FaultPlan::new().with(FaultKind::WorkerPanic, 1), 0) {
        Err(SimError::ShardPanicked { index: 1, .. }) => {}
        other => panic!("expected ShardPanicked at group 1, got {other:?}"),
    }

    // Forced log exhaustion: the shared capture truncates every region,
    // so every config degrades its clusters — identically to standalone.
    let exhausted = faulted_sweep(FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0), 0)
        .expect("degradation is not failure");
    for (name, m, policy) in config_axis() {
        let program = tiny(Benchmark::Twolf);
        let alone = RunSpec::new(&program, &m)
            .regimen(SamplingRegimen::new(12, 600))
            .total_insts(TOTAL)
            .seed(SEED)
            .shard_span(SPAN)
            .policy(policy)
            .threads(4)
            .fault_plan(FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0))
            .run()
            .expect("degradation is not failure");
        assert!(alone.clusters_degraded > 0, "{name}: zero budget must degrade");
        let got = exhausted.configs.iter().find(|c| c.name == name).unwrap();
        assert_equivalent(&alone, &got.outcome, &format!("{name} under forced exhaustion"));
    }
}

#[test]
fn amortization_beats_standalone_accounting() {
    // The telemetry invariant (the perf claim itself is benched in
    // rsr-bench at fig5 scale): with >1 config the modeled amortization
    // ratio must be under 1.0 — the sweep pays the cold pass once.
    let out = sweep_at(1, 1);
    let ratio = out.amortization();
    assert!(
        ratio < 1.0,
        "sweep must amortize the cold pass across {} configs (ratio {ratio})",
        out.configs.len()
    );
    assert!(out.cold_wall <= out.wall, "cold pass is part of the sweep wall");
}

/// A serial sweep (`replay_threads = 1`) and a fan-out of one config per
/// worker (4) under an optional log budget and fault plan.
fn sweep_pair(budget: Option<usize>, plan: Option<FaultPlan>) -> [SweepOutcome; 2] {
    [1usize, 4].map(|replay| {
        let mut cold = cold();
        if let Some(b) = budget {
            cold = cold.log_budget_bytes(b);
        }
        if let Some(p) = plan.clone() {
            cold = cold.fault_plan(p).max_shard_retries(1);
        }
        let mut sweep = SweepSpec::new(cold).replay_threads(replay);
        for (name, m, policy) in config_axis() {
            sweep = sweep.config(name, DetailSpec::new(&m).policy(policy));
        }
        let out = sweep.run().expect("sweep completes");
        assert_eq!(out.replay_threads, replay, "explicit width is honored");
        out
    })
}

#[test]
fn replay_widths_agree_under_log_budget_truncation() {
    // Serial replay and one config per worker read the same shared traces
    // and indexes: every deterministic field agrees, with and without
    // budget-truncated logs.
    for budget in [None, Some(3_000)] {
        let [serial, fanned] = sweep_pair(budget, None);
        if budget.is_none() {
            assert!(serial.index_builds_shared > 0, "memo must share index builds");
            assert_eq!(serial.index_builds, fanned.index_builds, "builds are width-independent");
            assert_eq!(serial.index_builds_shared, fanned.index_builds_shared);
        } else {
            // A 3 KB budget truncates regions at this scale: every config
            // degrades clusters to stale state.
            assert!(serial.configs.iter().all(|c| c.outcome.clusters_degraded > 0));
        }
        for (s, f) in serial.configs.iter().zip(&fanned.configs) {
            assert_eq!(s.name, f.name);
            assert_equivalent(
                &s.outcome,
                &f.outcome,
                &format!("{} at replay 1 vs 4 (budget {budget:?})", s.name),
            );
        }
    }
}

#[test]
fn replay_widths_heal_shard_faults_identically() {
    // A worker panic in the fused capture+replay pass heals by one retry
    // at either replay width, to the fault-free outcome.
    let plan = FaultPlan::new().with(FaultKind::WorkerPanic, 0);
    let [serial, fanned] = sweep_pair(None, Some(plan));
    assert_eq!(serial.shard_retries, 1, "exactly one healed retry");
    assert_eq!(fanned.shard_retries, 1, "exactly one healed retry");
    let [clean, _] = sweep_pair(None, None);
    for ((s, f), c) in serial.configs.iter().zip(&fanned.configs).zip(&clean.configs) {
        assert_equivalent(&s.outcome, &f.outcome, &format!("{} healed, replay 1 vs 4", s.name));
        assert_equivalent(&s.outcome, &c.outcome, &format!("{} healed vs clean", s.name));
    }
}
