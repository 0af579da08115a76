//! The fault matrix: every [`FaultKind`] exercised at 1 and 4 threads.
//!
//! The supervision contract under test is two-sided. With retry budget, a
//! run that suffers a shard-infrastructure fault (worker panic, lost or
//! corrupted checkpoint) must heal and produce results *bit-identical* to
//! a fault-free run — retries replay the exact windows the failed group
//! owned, from the supervisor's retained checkpoint. Without budget, the
//! run must fail with a typed error naming the shard group. Resource
//! guards follow the same discipline: log-budget exhaustion degrades
//! clusters to the paper's stale-state (no-history) fallback
//! deterministically and identically at every thread count, and a deadline
//! aborts with a typed count of completed work.

use std::time::Duration;

use rsr_core::{
    FaultKind, FaultPlan, Pct, RunSpec, SampleOutcome, SamplingRegimen, SimError, WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Same scale as `sharding.rs`: ~12 canonical shards, so 4 threads form
/// several worker groups and the scout/checkpoint machinery really runs.
const SPAN: u64 = 20_000;

/// Runs the standard scenario (twolf, 12x600 clusters, RSR warm-up) with
/// the given supervision knobs.
fn run_with(
    plan: Option<FaultPlan>,
    threads: usize,
    retries: u32,
) -> Result<SampleOutcome, SimError> {
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let mut spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(9)
        .shard_span(SPAN)
        .threads(threads)
        .max_shard_retries(retries);
    if let Some(p) = plan {
        spec = spec.fault_plan(p);
    }
    spec.run()
}

/// The fault-free reference: sequential, no retries needed.
fn baseline() -> SampleOutcome {
    run_with(None, 1, 0).expect("fault-free baseline must run")
}

/// Everything deterministic two equivalent runs must agree on. Wall-clock
/// and phase times legitimately differ; `shard_retries` is telemetry about
/// the healing itself, asserted separately per test.
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

#[test]
fn worker_panic_heals_bit_identically_at_any_thread_count() {
    let base = baseline();
    for threads in [1, 4] {
        // At one thread the whole run is group 0; at four, hit a worker
        // that starts from a scout checkpoint.
        let group = if threads == 1 { 0 } else { 1 };
        let plan = FaultPlan::new().with(FaultKind::WorkerPanic, group);
        let out = run_with(Some(plan), threads, 1)
            .unwrap_or_else(|e| panic!("{threads} threads: retry should heal, got {e}"));
        assert_equivalent(&base, &out, &format!("panic healed at {threads} threads"));
        assert_eq!(out.shard_retries, 1, "{threads} threads: exactly one retry");
    }
}

#[test]
fn worker_panic_without_budget_is_a_typed_error() {
    for (threads, group) in [(1usize, 0usize), (4, 1)] {
        let plan = FaultPlan::new().with(FaultKind::WorkerPanic, group);
        match run_with(Some(plan), threads, 0) {
            Err(SimError::ShardPanicked { index, message }) => {
                assert_eq!(index, group, "{threads} threads: wrong group named");
                assert!(
                    message.contains("injected fault"),
                    "{threads} threads: payload lost, got `{message}`"
                );
            }
            other => panic!("{threads} threads: expected ShardPanicked, got {other:?}"),
        }
    }
}

#[test]
fn dropped_checkpoint_heals_from_the_retained_copy() {
    let base = baseline();
    // Sequential runs use no checkpoints, so the fault is inert there.
    let plan = FaultPlan::new().with(FaultKind::DropCheckpoint, 2);
    let seq = run_with(Some(plan.clone()), 1, 0).expect("inert at one thread");
    assert_equivalent(&base, &seq, "drop at 1 thread");
    assert_eq!(seq.shard_retries, 0);

    let healed = run_with(Some(plan.clone()), 4, 1).expect("retry should heal");
    assert_equivalent(&base, &healed, "drop healed at 4 threads");
    assert_eq!(healed.shard_retries, 1);

    match run_with(Some(plan), 4, 0) {
        Err(e @ SimError::Shard { index: 2 }) => assert_eq!(e.shard_index(), Some(2)),
        other => panic!("expected Shard {{ index: 2 }}, got {other:?}"),
    }
}

#[test]
fn corrupt_checkpoint_is_detected_and_healed() {
    let base = baseline();
    let plan = FaultPlan::new().with(FaultKind::CorruptCheckpoint, 1);
    let seq = run_with(Some(plan.clone()), 1, 0).expect("inert at one thread");
    assert_equivalent(&base, &seq, "corrupt at 1 thread");

    let healed = run_with(Some(plan.clone()), 4, 1).expect("retry should heal");
    assert_equivalent(&base, &healed, "corruption healed at 4 threads");
    assert_eq!(healed.shard_retries, 1);

    match run_with(Some(plan), 4, 0) {
        Err(SimError::CheckpointCorrupt { index: 1, expected, found }) => {
            assert_ne!(expected, found, "verification must show the mismatch");
        }
        other => panic!("expected CheckpointCorrupt at group 1, got {other:?}"),
    }
}

#[test]
fn slow_shard_never_changes_results() {
    let base = baseline();
    for threads in [1, 4] {
        let group = if threads == 1 { 0 } else { 2 };
        let plan = FaultPlan::new().with(FaultKind::SlowShard, group);
        let out = run_with(Some(plan), threads, 0).expect("a straggler is not a failure");
        assert_equivalent(&base, &out, &format!("straggler at {threads} threads"));
        assert_eq!(out.shard_retries, 0);
    }
}

#[test]
fn log_exhaustion_degrades_identically_at_every_thread_count() {
    let base = baseline();
    assert_eq!(base.clusters_degraded, 0, "fault-free run must not degrade");
    let plan = FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0);
    let seq = run_with(Some(plan.clone()), 1, 0).expect("degradation is not failure");
    let par = run_with(Some(plan), 4, 0).expect("degradation is not failure");
    assert!(seq.clusters_degraded > 0, "a zero budget must degrade clusters");
    assert!(seq.clusters_degraded <= seq.clusters.len() as u64);
    // Degradation is per skip region, decided by each region's own
    // deterministic record stream — so sharding must not move it.
    assert_equivalent(&seq, &par, "forced exhaustion, 1 vs 4 threads");
}

#[test]
fn log_budget_bytes_caps_the_log_and_counts_degradations() {
    const BUDGET: usize = 2 * 1024;
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(9)
        .shard_span(SPAN)
        .log_budget_bytes(BUDGET);
    let seq = spec.run().expect("budgeted run completes");
    let par = spec.clone().threads(4).run().expect("budgeted run completes");
    assert!(seq.clusters_degraded > 0, "2 KiB must be exhausted at this scale");
    // The cap may be overshot by at most the final record batch (one
    // retired instruction logs a handful of fixed-size records).
    assert!(
        seq.log_bytes_peak <= BUDGET + 256,
        "peak {} escaped the {BUDGET}-byte budget",
        seq.log_bytes_peak
    );
    assert_equivalent(&seq, &par, "byte budget, 1 vs 4 threads");
    // Same seed, same schedule, unbounded: nothing degrades.
    let unbounded = baseline();
    assert_eq!(unbounded.clusters_degraded, 0);
    assert!(unbounded.log_bytes_peak > BUDGET, "scenario must actually exceed the budget");
}

#[test]
fn deadlines_abort_with_a_typed_progress_report() {
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(TOTAL)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(9)
        .shard_span(SPAN);
    for threads in [1, 4] {
        match spec.clone().threads(threads).deadline(Duration::ZERO).run() {
            Err(SimError::DeadlineExceeded { completed_shards, total_shards }) => {
                assert_eq!(completed_shards, 0, "{threads} threads: nothing ran yet");
                assert!(total_shards > 1, "{threads} threads: scenario must be sharded");
            }
            other => panic!("{threads} threads: expected DeadlineExceeded, got {other:?}"),
        }
    }
    // A generous deadline is invisible.
    let base = baseline();
    let out = spec.deadline(Duration::from_secs(3600)).run().expect("deadline not reached");
    assert_equivalent(&base, &out, "generous deadline");
}

/// The headline acceptance scenario: one worker panic *and* one corrupted
/// checkpoint in the same 4-thread run, healed by a single retry each,
/// with the merged outcome bit-identical to a fault-free sequential run —
/// and the same scenario with no retry budget failing typed.
#[test]
fn panic_plus_corruption_heal_to_a_bit_identical_run() {
    let base = baseline();
    let plan =
        FaultPlan::new().with(FaultKind::WorkerPanic, 1).with(FaultKind::CorruptCheckpoint, 2);
    let healed = run_with(Some(plan.clone()), 4, 1).expect("both faults heal in one retry each");
    assert_equivalent(&base, &healed, "panic + corruption at 4 threads");
    assert_eq!(healed.shard_retries, 2, "one retry per faulted group");

    match run_with(Some(plan), 4, 0) {
        Err(SimError::ShardPanicked { index, message }) => {
            // Group 1 fails first in schedule order; the payload survives.
            assert_eq!(index, 1);
            assert!(message.contains("injected fault"), "payload lost: `{message}`");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
}
