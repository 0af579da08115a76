//! Canonical cuts must be invisible to every degree of concurrency: cut
//! points are derived from the schedule alone (the windows and
//! `shard_span`), so the one stream resets every config's state at the
//! same windows whether it runs sequentially (depth 1), pipelined with its
//! replay on a helper thread (depth ≥ 2), or as a sweep fanning configs
//! out over replay workers. Every per-cluster number and every merged
//! counter therefore matches the sequential run exactly.

use rsr_core::{Pct, RunSpec, SamplingRegimen, SweepSpec, WarmupPolicy};
use rsr_integration::{machine, sample, tiny};
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
/// Small enough to cut a 250k-instruction test run into ~12 canonical
/// shards, so the in-place resets are genuinely exercised.
const SPAN: u64 = 20_000;

fn policies() -> [WarmupPolicy; 2] {
    [
        WarmupPolicy::Smarts { cache: true, bp: true },
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
    ]
}

#[test]
fn thread_count_never_changes_per_cluster_cpis() {
    let machine = machine();
    for bench in [Benchmark::Twolf, Benchmark::Mcf] {
        let program = tiny(bench);
        for policy in policies() {
            let spec = RunSpec::new(&program, &machine)
                .regimen(SamplingRegimen::new(12, 600))
                .total_insts(TOTAL)
                .policy(policy)
                .seed(9)
                .shard_span(SPAN);
            let sequential = spec.run().unwrap();
            // Depth 2 moves the replay onto its own thread; SMARTS warms
            // during the skip, so it ignores the knob and stays sequential.
            let mut runs = vec![("depth 2".to_string(), spec.clone().pipeline_depth(2).run())];
            if matches!(policy, WarmupPolicy::Reverse { .. }) {
                let (cold, detail) = spec.clone().into_parts();
                for replay in [2usize, 4] {
                    let out = SweepSpec::new(cold.clone())
                        .replay_threads(replay)
                        .config("a", detail.clone())
                        .config("b", detail.clone())
                        .config("c", detail.clone())
                        .config("d", detail.clone())
                        .run()
                        .unwrap();
                    assert!(out.shards > 1, "{bench}/{policy}: the run must be cut");
                    for c in out.configs {
                        runs.push((format!("{} at replay {replay}", c.name), Ok(c.outcome)));
                    }
                }
            }
            for (what, out) in runs {
                let out = out.unwrap();
                assert_eq!(
                    sequential.cpi_clusters.values(),
                    out.cpi_clusters.values(),
                    "{bench}/{policy}: CPI vector drifted at {what}"
                );
                assert_eq!(
                    sequential.clusters.values(),
                    out.clusters.values(),
                    "{bench}/{policy}: IPC vector drifted at {what}"
                );
            }
        }
    }
}

#[test]
fn sharded_counters_match_sequential_exactly() {
    // Beyond the CPI vectors, every merged counter the estimators and
    // figures read must be unmoved by running the cut stream pipelined.
    let program = tiny(Benchmark::Gcc);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(10, 800))
        .total_insts(TOTAL)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(100) })
        .seed(3)
        .shard_span(SPAN);
    let seq = spec.run().unwrap();
    let par = spec.clone().pipeline_depth(4).run().unwrap();
    assert_eq!(seq.hot_insts, par.hot_insts);
    assert_eq!(seq.skipped_insts, par.skipped_insts);
    assert_eq!(seq.log_records, par.log_records);
    assert_eq!(seq.log_bytes_peak, par.log_bytes_peak);
    assert_eq!(seq.warm_updates, par.warm_updates);
    assert_eq!(seq.recon, par.recon);
    assert_eq!(seq.est_ipc(), par.est_ipc());
    assert_eq!(seq.ipc_error_bound_95(), par.ipc_error_bound_95());
    // The cuts are real: without them the warm state carries across the
    // whole run and the estimate moves.
    let uncut = spec.clone().shard_span(u64::MAX).run().unwrap();
    assert_ne!(seq.cpi_clusters.values(), uncut.cpi_clusters.values(), "span must cut state");
}

#[test]
fn default_span_keeps_short_runs_unsharded() {
    // Below the default shard span the whole run is one canonical shard:
    // continuous carryover, exactly as with an unbounded span, and the
    // sweep reports a single shard.
    let program = tiny(Benchmark::Vpr);
    let machine = machine();
    let regimen = SamplingRegimen::new(8, 500);
    let policy = WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) };
    let baseline = sample(&program, regimen, 200_000, policy, 2).unwrap();
    let spec = RunSpec::new(&program, &machine)
        .regimen(regimen)
        .total_insts(200_000)
        .policy(policy)
        .seed(2);
    let unbounded = spec.clone().shard_span(u64::MAX).pipeline_depth(2).run().unwrap();
    assert_eq!(baseline.cpi_clusters.values(), unbounded.cpi_clusters.values());
    let (cold, detail) = spec.into_parts();
    let swept = SweepSpec::new(cold).replay_threads(4).config("paper", detail).run().unwrap();
    assert_eq!(swept.shards, 1, "a run shorter than the default span has no cut");
    assert_eq!(baseline.cpi_clusters.values(), swept.configs[0].outcome.cpi_clusters.values());
}

#[test]
fn more_threads_than_shards_still_works() {
    // A pipeline deeper than the run has windows, and a replay width wider
    // than the sweep has configs, degenerate to the sequential result.
    let program = tiny(Benchmark::Vpr);
    let machine = machine();
    let spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(3, 500))
        .total_insts(60_000)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(1)
        .shard_span(SPAN);
    let seq = spec.run().unwrap();
    let deep = spec.clone().pipeline_depth(16).run().unwrap();
    assert_eq!(seq.cpi_clusters.values(), deep.cpi_clusters.values());
    let (cold, detail) = spec.into_parts();
    let swept = SweepSpec::new(cold)
        .replay_threads(16)
        .config("a", detail.clone())
        .config("b", detail)
        .run()
        .unwrap();
    assert_eq!(swept.replay_threads, 2, "width clamps to the config count");
    for c in &swept.configs {
        assert_eq!(seq.cpi_clusters.values(), c.outcome.cpi_clusters.values(), "{}", c.name);
    }
}
