//! Detailed-window microbenchmarks: the monomorphized L1→L2→memory
//! hierarchy access chain and the fused predict/commit predictor kernel,
//! each on the access mixes that dominate cluster simulation — hit-heavy
//! (resident working set), miss-heavy (L2-evicting strides), and branchy
//! (conditional-dense streams with calls/returns and mispredict recovery)
//! — and the whole cycle-accurate core that drives them: one cluster
//! window from a warmed machine, and an unsampled `run_full`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsr_branch::{PredCtrlKind, Predictor, PredictorConfig};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy};
use rsr_core::{skip_with_smarts_warming, MachineConfig, RunSpec};
use rsr_func::{Cpu, RetireTrace};
use rsr_timing::{simulate_cluster, CoreConfig};
use rsr_workloads::{Benchmark, WorkloadParams};

/// Deterministic pseudo-random words (splitmix-style) for address streams.
fn words(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        })
        .collect()
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("detailed_cache");

    // Hit-heavy: loads/stores over a 16 KiB working set (fits the 32 KiB
    // L1D), fetches over one 4 KiB page — the steady-state cluster shape.
    group.bench_function("hierarchy_hit_heavy", |b| {
        let stream: Vec<(u64, HierAccess)> = words(4096, 7)
            .iter()
            .map(|&w| match w % 4 {
                0 => (0x10_0000 + (w & 0xfff & !3), HierAccess::Fetch),
                1 => (0x20_0000 + (w & 0x3fff & !7), HierAccess::Store),
                _ => (0x20_0000 + (w & 0x3fff & !7), HierAccess::Load),
            })
            .collect();
        let mut mem = MemHierarchy::new(HierarchyConfig::paper());
        // Prime the working set so the timed loop measures the hit path.
        for &(a, k) in &stream {
            mem.access(0, a, k);
        }
        b.iter(|| {
            let mut now = 0u64;
            for &(a, k) in &stream {
                now = mem.access(now, a, k);
            }
            black_box(now)
        })
    });

    // Miss-heavy: line strides over 8 MiB (8× the L2), every access a
    // fill+eviction — the victim-selection and writeback path.
    group.bench_function("hierarchy_miss_heavy", |b| {
        let stream: Vec<(u64, HierAccess)> = words(4096, 11)
            .iter()
            .map(|&w| {
                let a = (w & 0x7f_ffff) & !63;
                (a, if w % 3 == 0 { HierAccess::Store } else { HierAccess::Load })
            })
            .collect();
        let mut mem = MemHierarchy::new(HierarchyConfig::paper());
        b.iter(|| {
            let mut now = 0u64;
            for &(a, k) in &stream {
                now = mem.access(now, a, k);
            }
            black_box(now)
        })
    });

    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("detailed_predict");

    // Branchy: 70 % conditionals with a history-correlated direction, the
    // rest calls/returns/jumps — the full predict → commit → (recover)
    // kernel the cluster loop runs per control transfer.
    group.bench_function("predict_commit_branchy", |b| {
        let stream: Vec<(u64, PredCtrlKind, bool, u64)> = words(4096, 13)
            .iter()
            .map(|&w| {
                let pc = 0x40_0000 + (w & 0x7fff & !3);
                let (kind, taken) = match w % 10 {
                    0 => (PredCtrlKind::Call, true),
                    1 => (PredCtrlKind::Return, true),
                    2 => (PredCtrlKind::Jump, true),
                    _ => (PredCtrlKind::CondBranch, (w >> 7) % 3 != 0),
                };
                (pc, kind, taken, pc ^ 0x1000)
            })
            .collect();
        let mut pred = Predictor::new(PredictorConfig::paper());
        b.iter(|| {
            let mut correct = 0u32;
            for &(pc, kind, taken, target) in &stream {
                let p = pred.predict(pc, kind);
                if pred.commit(pc, kind, &p, taken, target) {
                    correct += 1;
                } else {
                    pred.recover(&p.checkpoint, Some(taken));
                }
            }
            black_box(correct)
        })
    });

    // Predict-only over a hot PHT: isolates the fused index/probe read
    // path (no commit-side stores).
    group.bench_function("predict_only_hot_pht", |b| {
        let pcs: Vec<u64> = (0..2048u64).map(|i| 0x40_0000 + i * 4).collect();
        let mut pred = Predictor::new(PredictorConfig::paper());
        b.iter(|| {
            let mut taken = 0u32;
            for &pc in &pcs {
                let p = pred.predict(pc, PredCtrlKind::CondBranch);
                taken += p.taken as u32;
                pred.recover(&p.checkpoint, None);
            }
            black_box(taken)
        })
    });

    group.finish();
}

/// A paper machine parked `skip` instructions into `bench`, its caches and
/// predictor functionally warmed over the whole skip (SMARTS-style), and
/// the next `len` instructions recorded as the cluster every timed sample
/// replays.
fn warmed(bench: Benchmark, skip: u64, len: u64) -> (RetireTrace, MemHierarchy, Predictor) {
    let program = bench.build(&WorkloadParams::default());
    let mut cpu = Cpu::new(&program).expect("workload loads");
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let mut pred = Predictor::new(PredictorConfig::paper());
    skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip).expect("workload runs");
    let mut trace = RetireTrace::new();
    trace.record(&mut cpu, len).expect("workload runs");
    (trace, hier, pred)
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("detailed_core");
    group.sample_size(10);

    // One recorded 10k-instruction cluster replayed from the same warmed
    // state every sample: mcf is miss-bound (the ROB full of loads waiting
    // on memory), gcc is branchy and cache-resident. The timed sample
    // includes cloning the hierarchy and predictor; the instructions come
    // from the trace, so no functional execution is timed.
    const LEN: u64 = 10_000;
    for (name, bench) in
        [("cluster_mcf_miss_bound", Benchmark::Mcf), ("cluster_gcc_branchy", Benchmark::Gcc)]
    {
        let (trace, hier, pred) = warmed(bench, 500_000, LEN);
        group.bench_function(name, |b| {
            b.iter(|| {
                let (mut h, mut p) = (hier.clone(), pred.clone());
                let stats = simulate_cluster(
                    &CoreConfig::paper(),
                    &mut trace.cursor(),
                    &mut h,
                    &mut p,
                    LEN,
                )
                .expect("window runs");
                black_box(stats)
            })
        });
    }

    // The cycle-accurate baseline behind every "true IPC": 1M instructions
    // of parser from a cold machine, through the public entry point.
    let parser = Benchmark::Parser.build(&WorkloadParams::default());
    group.bench_function("run_full_parser_1m", |b| {
        b.iter(|| {
            RunSpec::new(&parser, &MachineConfig::paper())
                .total_insts(1_000_000)
                .run_full()
                .expect("baseline runs")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_hierarchy, bench_predictor, bench_core);
criterion_main!(benches);
