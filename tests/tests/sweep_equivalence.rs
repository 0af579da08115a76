//! The design-space sweep engine: one cold pass, N detailed configs,
//! every per-config outcome bit-identical to its standalone run.
//!
//! `SweepSpec` shares one functional capture (cluster retire traces +
//! skip logs, streamed from a capture thread) across all configs, and
//! replays the detailed half per config through the same
//! `detailed_window` code path the standalone engines use. The contract
//! mirrors the pipeline's: the sweep is a pure wall-clock optimization, so
//! for every config, every replay width and every standalone pipeline
//! depth the sampled estimate and every deterministic counter must equal
//! the standalone `RunSpec` run of the same cold and detailed halves —
//! including across the canonical cuts, where every config's state
//! restarts cold. Faults through the sweep path must settle the same way:
//! a capture or replay panic fails typed and a rerun heals it, and forced
//! log exhaustion degrades every config exactly as its standalone run.
//! (Deadlines through the sweep are in `fault_injection`.)

use rsr_core::{
    ColdSpec, DetailSpec, FaultKind, FaultPlan, MachineConfig, Pct, RunSpec, SampleOutcome,
    SamplingRegimen, Schedule, SimError, SweepOutcome, SweepSpec, WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Same scale as `fault_injection.rs` / `pipeline_equivalence.rs`: ~12
/// canonical shards, so every config's state is cut several times.
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

fn standalone(machine: &MachineConfig, policy: WarmupPolicy, depth: usize) -> SampleOutcome {
    standalone_with(machine, policy, depth, FaultPlan::new()).expect("standalone run completes")
}

/// [`standalone`] under a fault plan.
fn standalone_with(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    depth: usize,
    plan: FaultPlan,
) -> Result<SampleOutcome, SimError> {
    let program = tiny(Benchmark::Twolf);
    RunSpec::new(&program, machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .seed(SEED)
        .shard_span(SPAN)
        .policy(policy)
        .pipeline_depth(depth)
        .fault_plan(plan)
        .run()
}

/// Everything deterministic two equivalent runs must agree on (wall-clock
/// and phase times legitimately differ).
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

fn sweep_at_replay(replay: usize) -> SweepOutcome {
    sweep_with(FaultPlan::new(), replay).expect("sweep completes")
}

/// The config-axis sweep at replay width `replay` under a fault plan.
fn sweep_with(plan: FaultPlan, replay: usize) -> Result<SweepOutcome, SimError> {
    let mut sweep = SweepSpec::new(cold().fault_plan(plan)).replay_threads(replay);
    for (name, m, policy) in config_axis() {
        sweep = sweep.config(name, DetailSpec::new(&m).policy(policy));
    }
    sweep.run()
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
    let mut sweep = SweepSpec::new(cold()).replay_threads(1);
    for (name, m, policy) in &axis {
        sweep = sweep.config(name, DetailSpec::new(m).policy(*policy));
    }
    let out = sweep.run().expect("sweep completes");
    for ((name, m, policy), got) in axis.iter().zip(&out.configs) {
        let alone = standalone(m, *policy, 1);
        assert_equivalent(&alone, &got.outcome, name);
        assert!(got.outcome.recon.mem_scanned > 0, "{name}: must reconstruct");
    }
}

#[test]
fn sweep_outcomes_are_bit_identical_to_standalone_runs() {
    // The sequential references, one per config.
    let bases: Vec<(String, SampleOutcome)> = config_axis()
        .iter()
        .map(|(name, m, policy)| (name.clone(), standalone(m, *policy, 1)))
        .collect();
    let out = sweep_at_replay(1);
    assert_eq!(out.configs.len(), bases.len());
    assert!(out.shards > 1, "scenario must be cut");
    for ((name, base), got) in bases.iter().zip(&out.configs) {
        assert_eq!(&got.name, name, "config order must be registration order");
        assert_equivalent(base, &got.outcome, &format!("{name} via sweep"));
        // The pipelined standalone run agrees too (the sweep and pipeline
        // contracts compose).
        let (_, m, policy) = config_axis().into_iter().find(|(n, _, _)| n == name).unwrap();
        let alone = standalone(&m, policy, 2);
        assert_equivalent(&alone, &got.outcome, &format!("{name} standalone at depth 2"));
    }
}

#[test]
fn replay_fanout_is_bit_identical_at_any_width() {
    // The config-parallel replay contract: worker chunks own their
    // configs' state for the whole run, so per-config outcomes are
    // bit-identical at every fan-out — serial (1), an uneven partition
    // (3 → chunks of 2/1/1), and one config per worker (4), every chunk
    // replaying the same shared traces and cutting state at the same
    // windows.
    let bases: Vec<(String, SampleOutcome)> = config_axis()
        .iter()
        .map(|(name, m, policy)| (name.clone(), standalone(m, *policy, 1)))
        .collect();
    for replay in [1usize, 3, 4] {
        let out = sweep_at_replay(replay);
        assert_eq!(out.replay_threads, replay, "explicit width is honored");
        assert!(out.index_builds > 0, "reverse configs must build indexes");
        assert!(out.index_builds_shared > 0, "shared-geometry configs must share");
        for ((name, base), got) in bases.iter().zip(&out.configs) {
            assert_equivalent(base, &got.outcome, &format!("{name} at replay {replay}"));
        }
    }
}

#[test]
fn sweep_configs_actually_differ() {
    // Guard against a degenerate sweep where every config reads the same
    // geometry: the machine variants must produce different estimates.
    let out = sweep_at_replay(1);
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
    let base = standalone(&m, WarmupPolicy::None, 1);
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
fn amortization_beats_standalone_accounting() {
    // The telemetry invariant (the perf claim itself is benched in
    // rsr-bench at fig5 scale): with >1 config the modeled amortization
    // ratio must be under 1.0 — the sweep pays the cold pass once.
    let out = sweep_at_replay(1);
    let ratio = out.amortization();
    assert!(
        ratio < 1.0,
        "sweep must amortize the cold pass across {} configs (ratio {ratio})",
        out.configs.len()
    );
    assert!(out.cold_wall <= out.wall, "cold pass is part of the sweep wall");
}

/// A serial sweep (`replay_threads = 1`) and a fan-out of one config per
/// worker (4) under an optional log budget.
fn sweep_pair(budget: Option<usize>) -> [SweepOutcome; 2] {
    [1usize, 4].map(|replay| {
        let mut cold = cold();
        if let Some(b) = budget {
            cold = cold.log_budget_bytes(b);
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
        let [serial, fanned] = sweep_pair(budget);
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
    // Forced log exhaustion degrades every logging skip region to the
    // stale-state fallback, and each cut then resets the degraded state:
    // serial replay and the fan-out must degrade and recover the same
    // clusters across every cut, equal to each config's standalone run
    // under the same fault.
    let plan = FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0);
    let serial = sweep_with(plan.clone(), 1).expect("degradation is not failure");
    let fanned = sweep_with(plan.clone(), 4).expect("degradation is not failure");
    assert!(serial.shards > 1, "the scenario must be cut");
    for ((s, f), (_, m, policy)) in serial.configs.iter().zip(&fanned.configs).zip(config_axis()) {
        assert!(s.outcome.clusters_degraded > 0, "{}: a zero budget must degrade", s.name);
        assert_equivalent(&s.outcome, &f.outcome, &format!("{} at replay 1 vs 4", s.name));
        let alone = standalone_with(&m, policy, 1, plan.clone()).expect("degradation");
        assert_equivalent(&alone, &s.outcome, &format!("{} vs its standalone run", s.name));
    }
}

#[test]
fn capture_and_replay_panics_heal_and_fail_typed_at_every_replay_width() {
    // The sweep's calling thread runs the leader's capture and its replay
    // thread is the follower: `LeaderPanic` strikes the capture,
    // `FollowerPanic` the replay. Either panic surfaces typed with its
    // payload, and the sweep rerun fault-free right after it heals to the
    // clean outcome at the same width.
    let clean = sweep_pair(None);
    for (kind, what) in [(FaultKind::LeaderPanic, "leader"), (FaultKind::FollowerPanic, "follower")]
    {
        for (replay, clean) in [1usize, 4].into_iter().zip(&clean) {
            match sweep_with(FaultPlan::new().with(kind, 0), replay) {
                Err(SimError::Panicked { message }) => {
                    assert!(message.contains(what), "payload lost: `{message}`");
                }
                other => panic!("{kind:?} at replay {replay}: expected Panicked, got {other:?}"),
            }
            let healed = sweep_at_replay(replay);
            for (h, c) in healed.configs.iter().zip(&clean.configs) {
                let what = format!("{} after {kind:?} at replay {replay}", h.name);
                assert_equivalent(&h.outcome, &c.outcome, &what);
            }
        }
    }
}

#[test]
fn fault_matrix_heals_identically_through_the_sweep_path() {
    // Seed-derived engine fault plans (forced log exhaustion, leader and
    // replay panics, aimed at the stream's group 0 or the inert group 1)
    // through the sweep path: the sweep fails typed exactly when the
    // pipelined standalone run of the same plan does, and otherwise every
    // config equals its standalone run under the plan.
    let (mut failed, mut degraded) = (0, 0);
    for seed in 0..6u64 {
        let plan = FaultPlan::from_seed(seed, 2, 2);
        let swept = sweep_with(plan.clone(), 4);
        for (k, (name, m, policy)) in config_axis().into_iter().enumerate() {
            let what = format!("{name} under {plan:?}");
            match (&swept, standalone_with(&m, policy, 2, plan.clone())) {
                (Err(SimError::Panicked { .. }), Err(SimError::Panicked { .. })) => {}
                (Ok(out), Ok(alone)) => assert_equivalent(&alone, &out.configs[k].outcome, &what),
                (s, a) => panic!("{what}: sweep gave {:?}, standalone {:?}", s.is_ok(), a.is_ok()),
            }
        }
        match &swept {
            Err(_) => failed += 1,
            Ok(out) if out.configs.iter().any(|c| c.outcome.clusters_degraded > 0) => degraded += 1,
            Ok(_) => {}
        }
    }
    assert!(failed > 0 && degraded > 0, "the seeds must reach a panic and a degradation");
}
