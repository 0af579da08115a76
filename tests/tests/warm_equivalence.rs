//! Warm equivalence: the engine's inlined SMARTS warmer, which skips a
//! fetch probe that repeats the previous fetch's I-cache line, must leave
//! the same state as the reference loop that warms every instruction one
//! by one (`rsr_integration::oracle::ref_warm`).
//!
//! Two layers:
//!
//! * Sampled runs: every warming policy that runs the warmer (S$BP, S$,
//!   SBP, fixed-period, MRRL), on all nine workloads at test scale, must
//!   match a reference engine built on the oracle in estimated IPC bits,
//!   per-cluster CPI bits and warm-update count.
//! * Structure state: `skip_with_smarts_warming` against the oracle over
//!   real workload streams and random programs, on the paper machine and
//!   on L1I geometries where a next-line prefetch can demote or evict the
//!   line just fetched (a one-set L1I, a two-set L1I under an L2 line
//!   twice its own, a direct-mapped L1I). Every set's tags in MRU order,
//!   the whole hierarchy with its hit counters cleared (valid and dirty
//!   bits, ranks), and the whole predictor must match; only the L1I's hit
//!   counters may differ.

use rand::prelude::*;
use rsr_branch::Predictor;
use rsr_cache::{CacheConfig, MemHierarchy, WritePolicy};
use rsr_core::{
    profile_reuse, skip_with_smarts_warming, MachineConfig, Pct, ReusePolicy, RunSpec,
    SampleOutcome, SamplingRegimen, Schedule, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_integration::oracle::ref_warm;
use rsr_integration::{machine, random_program, sample, tiny};
use rsr_isa::Program;
use rsr_timing::simulate_cluster;
use rsr_workloads::Benchmark;

const TOTAL: u64 = 250_000;
const SEED: u64 = 3;

// One canonical shard, so the reference run never resets its structures.
const _: () = assert!(TOTAL < RunSpec::DEFAULT_SHARD_SPAN);

fn regimen() -> SamplingRegimen {
    SamplingRegimen::new(10, 800)
}

/// Every policy whose skip regions run the SMARTS warmer.
fn policies() -> [WarmupPolicy; 5] {
    [
        WarmupPolicy::Smarts { cache: true, bp: true },
        WarmupPolicy::Smarts { cache: true, bp: false },
        WarmupPolicy::Smarts { cache: false, bp: true },
        WarmupPolicy::FixedPeriod { pct: Pct::new(20) },
        WarmupPolicy::Mrrl { coverage: Pct::new(95) },
    ]
}

/// The sequential engine's schedule walk with the reference warmer: state
/// carries over from window to window, each skip region is warmed as the
/// policy prescribes, and each window is timed on the live CPU.
fn reference_run(program: &Program, policy: WarmupPolicy) -> SampleOutcome {
    let m = machine();
    let mut cpu = Cpu::new(program).expect("loads");
    let mut hier = MemHierarchy::new(m.hier.clone());
    let mut pred = Predictor::new(m.pred);
    let mut out = SampleOutcome::empty(policy);
    let mut pos = 0;
    for w in Schedule::generate(regimen(), TOTAL, SEED).windows() {
        let skip = w.start - pos;
        let (cold, warm, cache, bp) = match policy {
            WarmupPolicy::Smarts { cache, bp } => (0, skip, cache, bp),
            WarmupPolicy::FixedPeriod { pct } => {
                let warm = pct.of(skip as usize) as u64;
                (skip - warm, warm, true, true)
            }
            WarmupPolicy::Mrrl { coverage } => {
                let mut scout = cpu.clone();
                let profile =
                    profile_reuse(&mut scout, skip, w.len, ReusePolicy::Mrrl).expect("profiles");
                let warm = profile.warm_window(coverage, skip);
                (skip - warm, warm, true, true)
            }
            other => unreachable!("{other} does not warm"),
        };
        cpu.step_n(cold, |_| ()).expect("skips");
        out.warm_updates +=
            ref_warm(&mut cpu, &mut hier, &mut pred, warm, cache, bp).expect("warms");
        let stats =
            simulate_cluster(&m.core, &mut cpu, &mut hier, &mut pred, w.len).expect("times");
        out.clusters.push(stats.ipc());
        out.cpi_clusters.push(stats.cycles as f64 / stats.instructions as f64);
        pos = w.end();
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sampled_runs_match_the_reference_warmer_on_every_workload() {
    let programs = Benchmark::ALL.map(|bench| (bench, tiny(bench)));
    for policy in policies() {
        let mut warmed = 0;
        for (bench, program) in &programs {
            let what = format!("{bench}/{policy}");
            let engine = sample(program, regimen(), TOTAL, policy, SEED)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let oracle = reference_run(program, policy);
            warmed += oracle.warm_updates;
            assert_eq!(engine.warm_updates, oracle.warm_updates, "{what}: warm_updates");
            assert_eq!(
                bits(engine.cpi_clusters.values()),
                bits(oracle.cpi_clusters.values()),
                "{what}: per-cluster CPI"
            );
            assert_eq!(engine.est_ipc().to_bits(), oracle.est_ipc().to_bits(), "{what}: est_ipc");
        }
        // MRRL may warm nothing on one workload, never on all nine.
        assert!(warmed > 0, "{policy} warmed nothing");
    }
}

/// An L1I of `sets` sets of `assoc` ways of `line` bytes.
fn l1i(sets: u64, assoc: usize, line: u64) -> CacheConfig {
    CacheConfig {
        name: "L1I".into(),
        size_bytes: sets * assoc as u64 * line,
        assoc,
        line_bytes: line,
        write_policy: WritePolicy::WriteThroughNoAllocate,
        hit_latency: 1,
    }
}

/// The paper machine and three L1Is a next-line prefetch can hit in the
/// set of the line it follows: with one set every prefetch does; with two
/// sets of 32 B lines under the paper's 64 B L2 line, the prefetch lands
/// on an even L1I line, in the set of every even fetched line; and a
/// direct-mapped L1I loses the fetched line outright. Each is run with
/// and without the prefetcher.
fn geometries() -> Vec<(String, MachineConfig)> {
    let shapes = [
        ("paper", CacheConfig::paper_l1i()),
        ("one-set", l1i(1, 4, 64)),
        ("two-set half-line", l1i(2, 2, 32)),
        ("direct-mapped", l1i(64, 1, 64)),
    ];
    let mut out = Vec::new();
    for (name, cfg) in shapes {
        for prefetch in [false, true] {
            let mut m = machine();
            m.hier.l1i = cfg.clone();
            m.hier.prefetch_next_line = prefetch;
            out.push((format!("{name} L1I, prefetch {prefetch}"), m));
        }
    }
    out
}

/// Warms `n` instructions of `program` through the engine and through the
/// oracle on machine `m`, and checks that both leave the same state.
fn check_stream(what: &str, program: &Program, m: &MachineConfig, n: u64) {
    let mut cpu = Cpu::new(program).expect("loads");
    let mut hier = MemHierarchy::new(m.hier.clone());
    let mut pred = Predictor::new(m.pred);
    skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, n).expect("engine warms");

    let mut ref_cpu = Cpu::new(program).expect("loads");
    let mut ref_hier = MemHierarchy::new(m.hier.clone());
    let mut ref_pred = Predictor::new(m.pred);
    ref_warm(&mut ref_cpu, &mut ref_hier, &mut ref_pred, n, true, true).expect("oracle warms");
    assert_eq!(cpu.icount(), ref_cpu.icount(), "{what}: instructions warmed");

    let levels = [
        ("L1I", &hier.l1i, &ref_hier.l1i),
        ("L1D", &hier.l1d, &ref_hier.l1d),
        ("L2", &hier.l2, &ref_hier.l2),
    ];
    for (level, c, r) in levels {
        for set in 0..c.num_sets() {
            assert_eq!(
                c.set_tags_mru_order(set),
                r.set_tags_mru_order(set),
                "{what}: {level} set {set}, tags MRU first"
            );
        }
    }
    // Skipped probes are all L1I hits: every other counter agrees. Some
    // must be skipped, or the two sides ran the same loop.
    let (s, rs) = (hier.l1i.stats(), ref_hier.l1i.stats());
    assert_eq!((s.misses, s.fills), (rs.misses, rs.fills), "{what}: L1I misses");
    assert!(s.accesses < rs.accesses, "{what}: no fetch probe skipped");
    assert_eq!(hier.l1d.stats(), ref_hier.l1d.stats(), "{what}: L1D counters");
    assert_eq!(hier.l2.stats(), ref_hier.l2.stats(), "{what}: L2 counters");

    // Valid and dirty bits, ranks and reconstruction marks: the whole
    // hierarchy, once the counters are cleared.
    hier.reset_stats();
    ref_hier.reset_stats();
    assert!(format!("{hier:?}") == format!("{ref_hier:?}"), "{what}: hierarchy state differs");
    assert_eq!(format!("{pred:?}"), format!("{ref_pred:?}"), "{what}: predictor");
}

#[test]
fn smarts_skip_leaves_the_reference_state_on_workload_streams() {
    for (geometry, m) in geometries() {
        for bench in Benchmark::ALL {
            check_stream(&format!("{bench}, {geometry}"), &tiny(bench), &m, 40_000);
        }
    }
}

#[test]
fn smarts_skip_leaves_the_reference_state_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(22);
    for case in 0..6 {
        let ops: Vec<u8> = (0..rng.gen_range(40..400)).map(|_| rng.gen::<u32>() as u8).collect();
        // Each trip runs at least one instruction per op, so the loop
        // outlasts the warmed stream.
        let program = random_program(&ops, 20_000 / ops.len() as u64 + 2);
        for (geometry, m) in geometries() {
            check_stream(&format!("random program {case}, {geometry}"), &program, &m, 20_000);
        }
    }
}
