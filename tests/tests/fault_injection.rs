//! The fault matrix of the one streaming engine, at pipeline depth 1 and
//! 2 and through the sweep at replay width 1 and 4.
//!
//! The contract under test: a panic on the stream's replay worker
//! surfaces as a typed [`SimError::Panicked`] carrying its payload, never
//! as a dead process, and the engine spends no retries on it. Resource guards degrade or abort
//! deterministically: log-budget exhaustion degrades clusters to the
//! paper's stale-state (no-history) fallback identically at every depth
//! and replay width, and a deadline aborts with a typed count of the
//! canonical shards behind the run.

use std::time::Duration;

use rsr_core::{
    ColdSpec, FaultKind, FaultPlan, Pct, RunSpec, SampleOutcome, SamplingRegimen, SimError,
    SweepOutcome, SweepSpec, WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_isa::Program;
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Splits the 250k-instruction run into ~12 canonical shards, so deadline
/// reports and state cuts are genuinely exercised.
const SPAN: u64 = 20_000;

fn rsr() -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
}

fn program() -> Program {
    tiny(Benchmark::Twolf)
}

/// The standard scenario (twolf, 12x600 clusters, RSR warm-up) at pipeline
/// depth `depth`.
fn spec(program: &Program, depth: usize) -> RunSpec<'_> {
    RunSpec::new(program, &machine())
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(rsr())
        .seed(9)
        .shard_span(SPAN)
        .pipeline_depth(depth)
}

/// The same scenario as a one-config sweep at replay width `replay`, with
/// `cold` applied to its cold half.
fn sweep(
    program: &Program,
    replay: usize,
    cold: impl FnOnce(ColdSpec<'_>) -> ColdSpec<'_>,
) -> Result<SweepOutcome, SimError> {
    let (c, detail) = spec(program, 1).into_parts();
    SweepSpec::new(cold(c))
        .replay_threads(replay)
        .config("paper", detail.clone())
        .config("paper-again", detail)
        .run()
}

/// The fault-free reference: depth 1, the sequential engine.
fn baseline() -> SampleOutcome {
    spec(&program(), 1).run().expect("fault-free baseline must run")
}

/// Everything deterministic two equivalent runs must agree on. Wall-clock
/// and phase times legitimately differ.
fn assert_equivalent(a: &SampleOutcome, b: &SampleOutcome, what: &str) {
    assert_eq!(a.clusters.values(), b.clusters.values(), "{what}: IPC clusters drifted");
    assert_eq!(a.cpi_clusters.values(), b.cpi_clusters.values(), "{what}: CPI clusters drifted");
    assert_eq!(a.hot_insts, b.hot_insts, "{what}: hot_insts");
    assert_eq!(a.skipped_insts, b.skipped_insts, "{what}: skipped_insts");
    assert_eq!(a.log_records, b.log_records, "{what}: log_records");
    assert_eq!(a.log_bytes_peak, b.log_bytes_peak, "{what}: log_bytes_peak");
    assert_eq!(a.warm_updates, b.warm_updates, "{what}: warm_updates");
    assert_eq!(a.recon, b.recon, "{what}: reconstruction stats");
    assert_eq!(a.clusters_degraded, b.clusters_degraded, "{what}: clusters_degraded");
}

/// Asserts `r` failed with a typed panic whose payload names `what`.
fn assert_panicked<T: std::fmt::Debug>(r: Result<T, SimError>, what: &str, ctx: &str) {
    match r {
        Err(SimError::Panicked { message }) => {
            assert!(message.contains("injected fault"), "{ctx}: payload lost, got `{message}`");
            assert!(message.contains(what), "{ctx}: wrong side named, got `{message}`");
        }
        other => panic!("{ctx}: expected Panicked, got {other:?}"),
    }
}

#[test]
fn worker_panic_without_budget_is_a_typed_error() {
    // The engine keeps no retry budget (retries belong to the job
    // service), so a panic on its replay worker, the thread a depth-2 run
    // or a sweep at any replay width hands its windows to, fails the run
    // typed on the first attempt, payload intact. The leader's side, and
    // the rerun that heals either, are in `pipeline_equivalence` and
    // `sweep_equivalence`.
    let program = program();
    let plan = FaultPlan::new().with(FaultKind::FollowerPanic, 0);
    assert_panicked(spec(&program, 2).fault_plan(plan.clone()).run(), "follower", "depth 2");
    for replay in [1usize, 4] {
        let r = sweep(&program, replay, |c| c.fault_plan(plan.clone()));
        assert_panicked(r, "follower", &format!("sweep at replay {replay}"));
    }
    // `WorkerPanic` strikes the service's supervised job worker, which the
    // engine does not have, and a fault aimed past the engine's one
    // stream (group 0) never fires: both are inert.
    let base = baseline();
    for plan in [
        FaultPlan::new().with(FaultKind::WorkerPanic, 0),
        FaultPlan::new().with(FaultKind::LeaderPanic, 1),
    ] {
        for depth in [1, 2] {
            let out = spec(&program, depth).fault_plan(plan.clone()).run().expect("inert fault");
            assert_equivalent(&base, &out, &format!("{plan:?} at depth {depth}"));
        }
    }
}

#[test]
fn log_exhaustion_degrades_identically_at_every_thread_count() {
    let base = baseline();
    assert_eq!(base.clusters_degraded, 0, "fault-free run must not degrade");
    let program = program();
    let plan = FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0);
    let seq = spec(&program, 1).fault_plan(plan.clone()).run().expect("degradation is not failure");
    assert!(seq.clusters_degraded > 0, "a zero budget must degrade clusters");
    assert!(seq.clusters_degraded <= seq.clusters.len() as u64);
    // Degradation is per skip region, decided by each region's own
    // deterministic record stream — so neither the pipeline nor the
    // sweep's shared capture may move it.
    let piped = spec(&program, 2).fault_plan(plan.clone()).run().expect("degradation");
    assert_equivalent(&seq, &piped, "forced exhaustion, depth 1 vs 2");
    for replay in [1usize, 4] {
        let out = sweep(&program, replay, |c| c.fault_plan(plan.clone())).expect("degradation");
        for c in &out.configs {
            let what = format!("forced exhaustion, {} at replay {replay}", c.name);
            assert_equivalent(&seq, &c.outcome, &what);
        }
    }
}

#[test]
fn log_budget_bytes_caps_the_log_and_counts_degradations() {
    const BUDGET: usize = 2 * 1024;
    let program = program();
    let seq = spec(&program, 1).log_budget_bytes(BUDGET).run().expect("budgeted run completes");
    let piped = spec(&program, 2).log_budget_bytes(BUDGET).run().expect("budgeted run completes");
    assert!(seq.clusters_degraded > 0, "2 KiB must be exhausted at this scale");
    // The cap may be overshot by at most the final record batch (one
    // retired instruction logs a handful of fixed-size records).
    assert!(
        seq.log_bytes_peak <= BUDGET + 256,
        "peak {} escaped the {BUDGET}-byte budget",
        seq.log_bytes_peak
    );
    assert_equivalent(&seq, &piped, "byte budget, depth 1 vs 2");
    // Same seed, same schedule, unbounded: nothing degrades.
    let unbounded = baseline();
    assert_eq!(unbounded.clusters_degraded, 0);
    assert!(unbounded.log_bytes_peak > BUDGET, "scenario must actually exceed the budget");
}

#[test]
fn deadlines_abort_with_a_typed_progress_report() {
    let program = program();
    let expired = |r: Result<(), SimError>, what: &str| match r {
        Err(SimError::DeadlineExceeded { completed_shards, total_shards }) => {
            assert_eq!(completed_shards, 0, "{what}: nothing ran yet");
            assert!(total_shards > 1, "{what}: scenario must be cut");
        }
        other => panic!("{what}: expected DeadlineExceeded, got {other:?}"),
    };
    for depth in [1, 2] {
        let r = spec(&program, depth).deadline(Duration::ZERO).run().map(drop);
        expired(r, &format!("depth {depth}"));
    }
    for replay in [1, 4] {
        let r = sweep(&program, replay, |c| c.deadline(Duration::ZERO)).map(drop);
        expired(r, &format!("sweep at replay {replay}"));
    }
    // A generous deadline is invisible.
    let base = baseline();
    for depth in [1, 2] {
        let out = spec(&program, depth)
            .deadline(Duration::from_secs(3600))
            .run()
            .expect("deadline not reached");
        assert_equivalent(&base, &out, &format!("generous deadline at depth {depth}"));
    }
}
