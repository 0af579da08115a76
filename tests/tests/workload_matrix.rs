//! The decoupled engines on every workload: the leader/follower pipeline
//! and the sweep ship each cluster to the detailed side as a recorded
//! retire trace, so both must stay bit-identical to the sequential
//! standalone run on all nine workloads, not just the one the other
//! suites exercise.
//!
//! One table-driven case per workload at test scale, on a span axis:
//! unbounded (no canonical cut, the paper's model) and a forced 20k span
//! that cuts the 200k-instruction run several times. Per span: pipeline
//! depth {1, 2} under the reverse and no-warm-up policies, and a
//! four-config sweep at replay width {1, 4}, each against the standalone
//! depth-1 run of the same cold and detailed halves at the same span. The
//! depth-1 engine and the stream reset state in place at the cuts
//! independently, so agreement pins the cut placement on every workload.

use rsr_core::{
    ColdSpec, DetailSpec, MachineConfig, Pct, RunSpec, SampleOutcome, SamplingRegimen, SweepSpec,
    WarmupPolicy,
};
use rsr_integration::{machine, tiny};
use rsr_isa::Program;
use rsr_workloads::Benchmark;

const TOTAL: u64 = 200_000;
const SEED: u64 = 5;
/// The span axis: no cut at all, and a span that cuts a 200k run into
/// several canonical shards.
const SPANS: [u64; 2] = [u64::MAX, 20_000];

fn regimen() -> SamplingRegimen {
    SamplingRegimen::new(8, 500)
}

fn rsr(pct: u8) -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(pct) }
}

fn variant(l1d_kb: u64, ghr_bits: u32) -> MachineConfig {
    let mut m = machine();
    m.hier.l1d.size_bytes = l1d_kb * 1024;
    m.pred.ghr_bits = ghr_bits;
    m
}

/// Four machines sharing one logging signature, so a width-4 replay puts
/// one config on each worker.
fn configs() -> [(&'static str, MachineConfig, WarmupPolicy); 4] {
    [
        ("paper", machine(), rsr(20)),
        ("small-l1d", variant(8, 12), rsr(20)),
        ("deep-ghr", variant(32, 16), rsr(20)),
        ("paper-100", machine(), rsr(100)),
    ]
}

fn standalone(
    program: &Program,
    m: &MachineConfig,
    policy: WarmupPolicy,
    span: u64,
    depth: usize,
) -> SampleOutcome {
    RunSpec::new(program, m)
        .regimen(regimen())
        .total_insts(TOTAL)
        .seed(SEED)
        .shard_span(span)
        .policy(policy)
        .pipeline_depth(depth)
        .run()
        .unwrap_or_else(|e| panic!("{policy} at depth {depth}: {e}"))
}

/// Everything deterministic two equivalent runs must agree on.
fn assert_equivalent(a: &SampleOutcome, b: &SampleOutcome, what: &str) {
    assert_eq!(a.cpi_clusters.values(), b.cpi_clusters.values(), "{what}: CPI clusters");
    assert_eq!(a.clusters.values(), b.clusters.values(), "{what}: IPC clusters");
    assert_eq!(a.est_ipc().to_bits(), b.est_ipc().to_bits(), "{what}: est_ipc");
    assert_eq!(a.hot_insts, b.hot_insts, "{what}: hot_insts");
    assert_eq!(a.skipped_insts, b.skipped_insts, "{what}: skipped_insts");
    assert_eq!(a.log_records, b.log_records, "{what}: log_records");
    assert_eq!(a.log_bytes_peak, b.log_bytes_peak, "{what}: log_bytes_peak");
    assert_eq!(a.recon, b.recon, "{what}: reconstruction stats");
    assert_eq!(a.clusters_degraded, b.clusters_degraded, "{what}: clusters_degraded");
}

#[test]
fn pipeline_and_sweep_match_standalone_on_all_nine_workloads() {
    for bench in Benchmark::ALL {
        let program = tiny(bench);
        for span in SPANS {
            // Pipeline depth: the replay times each cluster from the
            // leader's trace.
            for policy in [rsr(20), WarmupPolicy::None] {
                let base = standalone(&program, &machine(), policy, span, 1);
                assert_eq!(base.clusters.len(), 8, "{bench}/{policy}");
                let piped = standalone(&program, &machine(), policy, span, 2);
                assert_equivalent(&base, &piped, &format!("{bench}/{policy} span {span} depth 2"));
            }

            // Sweep replay width: every config replays the shared traces.
            let bases: Vec<SampleOutcome> = configs()
                .iter()
                .map(|(_, m, policy)| standalone(&program, m, *policy, span, 1))
                .collect();
            assert!(bases.iter().all(|b| b.log_records > 0), "{bench}: reverse configs must log");
            for replay in [1usize, 4] {
                let cold = ColdSpec::new(&program)
                    .regimen(regimen())
                    .total_insts(TOTAL)
                    .seed(SEED)
                    .shard_span(span);
                let mut sweep = SweepSpec::new(cold).replay_threads(replay);
                for (name, m, policy) in configs() {
                    sweep = sweep.config(name, DetailSpec::new(&m).policy(policy));
                }
                let out = sweep.run().unwrap_or_else(|e| panic!("{bench} sweep: {e}"));
                assert_eq!(out.replay_threads, replay);
                if span == u64::MAX {
                    assert_eq!(out.shards, 1, "{bench}: an unbounded span never cuts");
                } else {
                    assert!(out.shards > 1, "{bench}: span {span} must cut a {TOTAL} run");
                }
                for (base, got) in bases.iter().zip(&out.configs) {
                    assert_equivalent(
                        base,
                        &got.outcome,
                        &format!("{bench}/{} span {span} at replay width {replay}", got.name),
                    );
                }
            }
        }
    }
}
