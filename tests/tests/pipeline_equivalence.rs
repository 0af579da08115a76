//! The decoupled leader/follower pipeline: bit-identity and guard
//! interplay.
//!
//! The pipeline's contract is that it is a pure wall-clock optimization:
//! at every pipeline depth the sampled estimate and every deterministic
//! counter must be bit-identical to the sequential engine, because the
//! replay consumes windows in schedule order and the leader's
//! architectural stream never depends on the replay's microarchitectural
//! state. The guards must compose unchanged: an over-budget region
//! degrades the *replay's* reconstruction without desynchronizing the
//! pipeline, forced exhaustion degrades identically at every depth, and a
//! deadline still aborts with a shard count with the leader running
//! ahead, and a panic on either side fails typed and leaves nothing behind
//! that a rerun could trip over.

use std::time::Duration;

use rsr_core::{
    FaultKind, FaultPlan, Pct, RunSpec, SampleOutcome, SamplingRegimen, SimError, WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Same scale as `fault_injection.rs`: ~12 canonical shards, so the
/// stream cuts state several times mid-run.
const SPAN: u64 = 20_000;

fn rsr() -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
}

/// The standard scenario (twolf, 12x600 clusters) with an explicit
/// pipeline depth and fault plan.
fn run_with(
    policy: WarmupPolicy,
    depth: usize,
    plan: Option<FaultPlan>,
) -> Result<SampleOutcome, SimError> {
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let mut spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(policy)
        .seed(9)
        .shard_span(SPAN)
        .pipeline_depth(depth);
    if let Some(p) = plan {
        spec = spec.fault_plan(p);
    }
    spec.run()
}

/// The sequential reference: depth 1, no faults.
fn baseline(policy: WarmupPolicy) -> SampleOutcome {
    run_with(policy, 1, None).expect("sequential baseline must run")
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

#[test]
fn pipelined_runs_are_bit_identical_to_sequential() {
    let base = baseline(rsr());
    for depth in [1usize, 2, 4] {
        let out = run_with(rsr(), depth, None).unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        assert_equivalent(&base, &out, &format!("depth {depth}"));
    }
}

#[test]
fn none_policy_pipelines_bit_identically() {
    // The no-warm-up baseline also decouples (its skip is a plain
    // functional fast-forward); the pipeline must not perturb it either.
    let base = baseline(WarmupPolicy::None);
    assert_eq!(base.log_records, 0, "None must not log");
    for depth in [2usize, 4] {
        let out = run_with(WarmupPolicy::None, depth, None).expect("pipelined None runs");
        assert_equivalent(&base, &out, &format!("None policy, depth {depth}"));
    }
}

#[test]
fn non_decoupling_policies_ignore_the_depth_knob() {
    // SMARTS warms the follower's structures during the skip, so the
    // engine must fall back to the sequential path at any depth rather
    // than desynchronize.
    let smarts = WarmupPolicy::Smarts { cache: true, bp: true };
    let base = baseline(smarts);
    let out = run_with(smarts, 4, None).expect("SMARTS runs at depth 4");
    assert_equivalent(&base, &out, "SMARTS with depth 4 requested");
    assert!(out.warm_updates > 0, "SMARTS must still warm");
}

/// Runs the scenario at depth 2 and 4 with `kind` aimed at the stream,
/// asserts the panic surfaced typed with `what` in its payload, then
/// reruns it fault-free on the same thread. That rerun is the retry a job
/// service makes, and it must reproduce the sequential baseline bit for
/// bit: a panicked run leaves no poisoned pool or stray thread behind.
fn panics_typed_then_heals(kind: FaultKind, what: &str) {
    let base = baseline(rsr());
    for depth in [2usize, 4] {
        match run_with(rsr(), depth, Some(FaultPlan::new().with(kind, 0))) {
            Err(SimError::Panicked { message }) => {
                assert!(message.contains(what), "depth {depth}: payload lost: `{message}`");
            }
            other => panic!("depth {depth}: expected Panicked, got {other:?}"),
        }
        let healed = run_with(rsr(), depth, None)
            .unwrap_or_else(|e| panic!("depth {depth}: the rerun should heal, got {e}"));
        assert_equivalent(&base, &healed, &format!("{kind:?} healed at depth {depth}"));
    }
}

#[test]
fn leader_panic_heals_and_fails_typed_without_budget() {
    panics_typed_then_heals(FaultKind::LeaderPanic, "leader panic");
}

#[test]
fn follower_panic_crosses_the_thread_boundary_typed() {
    // The replay runs on its own thread: its payload must survive the join.
    panics_typed_then_heals(FaultKind::FollowerPanic, "follower panic");
}

#[test]
fn leader_and_follower_faults_are_inert_without_the_pipeline() {
    // At depth 1 the sequential engine runs: the pipeline faults must
    // not fire.
    let base = baseline(rsr());
    let plan = FaultPlan::new().with(FaultKind::LeaderPanic, 0).with(FaultKind::FollowerPanic, 0);
    let out = run_with(rsr(), 1, Some(plan)).expect("inert at depth 1");
    assert_equivalent(&base, &out, "pipeline faults at depth 1");
}

#[test]
fn fault_matrix_reruns_identically_under_the_pipeline() {
    // Forced log exhaustion: every logging region degrades, identically
    // at every depth — the leader sends a truncated log and the replay
    // skips reconstruction for it, with the pipeline staying in lockstep.
    let plan = FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0);
    let seq = run_with(rsr(), 1, Some(plan.clone())).expect("degradation is not failure");
    assert!(seq.clusters_degraded > 0, "zero budget must degrade");
    for depth in [2usize, 4] {
        let out = run_with(rsr(), depth, Some(plan.clone())).expect("degradation is not failure");
        assert_equivalent(&seq, &out, &format!("exhaustion at depth {depth}"));
    }
}

#[test]
fn over_budget_regions_degrade_the_follower_without_desync() {
    const BUDGET: usize = 2 * 1024;
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(rsr())
        .seed(9)
        .shard_span(SPAN)
        .log_budget_bytes(BUDGET);
    let seq = spec.clone().pipeline_depth(1).run().expect("budgeted run completes");
    assert!(seq.clusters_degraded > 0, "2 KiB must be exhausted at this scale");
    assert!(
        seq.clusters_degraded < seq.clusters.len() as u64,
        "scenario needs a mix of degraded and reconstructed clusters"
    );
    for depth in [2usize, 4] {
        let piped = spec.clone().pipeline_depth(depth).run().expect("budgeted run completes");
        assert_equivalent(&seq, &piped, &format!("byte budget at depth {depth}"));
        assert!(piped.log_bytes_peak <= BUDGET + 256, "budget must bound in-flight logs too");
    }
}

#[test]
fn deadline_aborts_at_shard_granularity_with_the_leader_ahead() {
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(rsr())
        .seed(9)
        .shard_span(SPAN)
        .pipeline_depth(4);
    // An already-expired deadline: the replay observes it before the
    // first shard and the leader before its first window; the run reports
    // shard-granular progress.
    match spec.clone().deadline(Duration::ZERO).run() {
        Err(SimError::DeadlineExceeded { completed_shards, total_shards }) => {
            assert_eq!(completed_shards, 0, "nothing ran yet");
            assert!(total_shards > 1, "scenario must be cut");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous deadline is invisible, pipelined or not.
    let base = baseline(rsr());
    let out = spec.deadline(Duration::from_secs(3600)).run().expect("deadline not reached");
    assert_equivalent(&base, &out, "generous deadline, depth 4");
}

#[test]
fn overlap_efficiency_is_telemetry_bounded_by_one() {
    let out = run_with(rsr(), 2, None).expect("pipelined run completes");
    let eff = out.overlap_efficiency();
    assert!((0.0..1.0).contains(&eff), "overlap efficiency {eff} out of range");
    // Sequential runs cannot report overlap.
    let seq = baseline(rsr());
    assert!(seq.overlap_efficiency() < 0.05, "sequential run overlapped nothing");
}
