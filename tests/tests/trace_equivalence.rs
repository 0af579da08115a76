//! Trace equivalence: the cycle-accurate core timed from a recorded
//! [`RetireTrace`] must be indistinguishable from the same core driven by
//! the live [`Cpu`]. The pipeline's follower and every sweep config time
//! their clusters from traces, so this is the contract that keeps them
//! bit-identical to the sequential engine.
//!
//! Every case runs one window twice from the same warmed start, once on
//! the live CPU and once on a cursor over a trace recorded from a copy of
//! it, and compares the returned [`HotStats`] (or typed error), the
//! instruction the window stopped at, every cache set (tags, valid and
//! dirty bits, ranks, reconstructed marks) and hierarchy statistic, and
//! the whole predictor. The cases cover all nine workloads
//! at test scale, with and without on-demand branch-predictor
//! reconstruction, plus a window that halts midway and one that jumps out
//! of the text segment.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy, WayDump};
use rsr_core::{skip_with_smarts_warming, BpReconstructor, Pct, ReconGeometry, SkipLog};
use rsr_func::{Cpu, ExecError, RetireSource, RetireTrace};
use rsr_integration::tiny;
use rsr_isa::{Asm, Program, Reg};
use rsr_timing::{simulate_cluster, simulate_cluster_hooked, CoreConfig, HotStats};
use rsr_workloads::Benchmark;

/// Everything a window can change, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: Result<HotStats, ExecError>,
    /// Instructions the source handed out before the window ended.
    consumed: u64,
    hier_stats: rsr_cache::HierarchyStats,
    cache_stats: [rsr_cache::CacheStats; 3],
    sets: Vec<Vec<WayDump>>,
    pred: String,
    recon: Option<rsr_core::ReconStats>,
}

/// A warmed start: the CPU `skip` instructions in, with the hierarchy and
/// predictor functionally warmed over the skip and, when `log` is set, the
/// skip's branch stream logged and sealed for on-demand reconstruction.
struct Start {
    cpu: Cpu,
    hier: MemHierarchy,
    pred: Predictor,
    log: Option<SkipLog>,
}

fn start(program: &Program, skip: u64, log: bool) -> Start {
    let mut cpu = Cpu::new(program).expect("loads");
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let mut pred = Predictor::new(PredictorConfig::paper());
    if !log {
        skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip).expect("skip runs");
        return Start { cpu, hier, pred, log: None };
    }
    let mut skip_log = SkipLog::new(false, true, pred.gshare.ghr());
    for _ in 0..skip {
        let r = cpu.step().expect("skip stops short of halt");
        hier.warm_access(r.pc, HierAccess::Fetch);
        if let Some(m) = r.mem {
            hier.warm_access(m.addr, if m.is_store { HierAccess::Store } else { HierAccess::Load });
        }
        skip_log.record(&r);
    }
    let geom = ReconGeometry {
        l1i_sets: 0,
        l1i_line_shift: 0,
        l1d_sets: 0,
        l1d_line_shift: 0,
        l2_sets: 0,
        l2_line_shift: 0,
        ghr_bits: pred.gshare.hist_bits(),
        btb_entries: pred.btb.num_entries(),
    };
    skip_log.seal_branch_index(&geom, Pct::new(20));
    Start { cpu, hier, pred, log: Some(skip_log) }
}

/// Times `window` instructions from `src` on the given warmed state and
/// records what the window left behind.
fn observe<S: RetireSource + ?Sized>(
    src: &mut S,
    mut hier: MemHierarchy,
    mut pred: Predictor,
    log: Option<&SkipLog>,
    window: u64,
) -> Observed {
    let cfg = CoreConfig::paper();
    let first = src.next_seq();
    let (stats, recon) = match log {
        Some(log) => {
            let mut hook = BpReconstructor::new(&mut pred, log, Pct::new(20));
            let stats = simulate_cluster_hooked(&cfg, src, &mut hier, &mut pred, window, &mut hook);
            (stats, Some(hook.stats()))
        }
        None => (simulate_cluster(&cfg, src, &mut hier, &mut pred, window), None),
    };
    let caches = [&hier.l1i, &hier.l1d, &hier.l2];
    Observed {
        stats,
        consumed: src.next_seq() - first,
        hier_stats: hier.stats(),
        cache_stats: caches.map(|c| c.stats()),
        sets: caches.iter().flat_map(|c| (0..c.num_sets()).map(|set| c.dump_set(set))).collect(),
        pred: format!("{pred:?}"),
        recon,
    }
}

/// One window from `skip` instructions in, timed on the live CPU and on a
/// trace recorded from an identical start: returns both observations and
/// the trace.
fn both(program: &Program, skip: u64, window: u64, log: bool) -> (Observed, Observed, RetireTrace) {
    let Start { mut cpu, hier, pred, log: skip_log } = start(program, skip, log);
    let live = observe(&mut cpu, hier, pred, skip_log.as_ref(), window);

    let Start { mut cpu, hier, pred, log: skip_log } = start(program, skip, log);
    let mut trace = RetireTrace::new();
    let recorded = trace.record(&mut cpu, window);
    assert_eq!(recorded.err(), trace.error());
    let traced = observe(&mut trace.cursor(), hier, pred, skip_log.as_ref(), window);
    (live, traced, trace)
}

#[test]
fn trace_replay_matches_the_live_cpu_on_every_workload() {
    for bench in Benchmark::ALL {
        let program = tiny(bench);
        for log in [false, true] {
            let (live, traced, trace) = both(&program, 20_000, 3_000, log);
            assert!(live.stats.is_ok(), "{bench}: a workload window must run");
            assert_eq!(trace.records().len(), 3_000, "{bench}");
            assert_eq!(live, traced, "{bench} (on-demand recon: {log})");
        }
    }
}

#[test]
fn a_window_that_halts_midway_stops_at_the_same_instruction() {
    let mut a = Asm::new();
    a.li(Reg::T1, 50);
    let top = a.bind_new("top");
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();
    let program = a.finish().unwrap();
    let (live, traced, trace) = both(&program, 10, 10_000, false);
    assert_eq!(trace.error(), Some(ExecError::Halted));
    let stats = live.stats.expect("a halt ends the window early, cleanly");
    assert!(stats.instructions < 10_000);
    assert_eq!(stats.instructions, trace.records().len() as u64);
    assert_eq!(live, traced);
}

#[test]
fn a_window_that_leaves_the_text_fails_with_the_same_error() {
    let mut a = Asm::new();
    for _ in 0..40 {
        a.nop();
    }
    a.li(Reg::T0, 0x9000_0000);
    a.jr(Reg::T0); // jump out of text
    let program = a.finish().unwrap();
    let (live, traced, trace) = both(&program, 5, 1_000, false);
    assert!(matches!(live.stats, Err(ExecError::PcOutOfText { pc: 0x9000_0000 })));
    assert_eq!(trace.error(), live.stats.err());
    assert_eq!(live, traced);
}
