//! Timing-core equivalence: the event-driven cluster loop
//! ([`simulate_cluster_hooked`]: a ring of per-entry state, a completion
//! heap, age-ordered unissued and unresolved-branch lists) must be
//! bit-identical to the ROB-scanning reference loop in
//! `rsr_integration::oracle` ([`ref_simulate_cluster`]) on every
//! observable: the returned [`HotStats`], every cache set and the
//! hierarchy statistics, the whole predictor, and the architectural
//! position the window leaves the CPU at.
//!
//! Programs are `proptest_pipeline`'s random loops, stride-miss loops, and
//! call/return chains deeper than the return-address stack. Core shapes
//! range over reorder buffers of 1–96 entries (powers of two and not),
//! small issue and load/store queues, narrow retire widths, few branch
//! checkpoints, and front ends of 0–3 stages. Windows are empty, a single
//! instruction, short, or run until `halt`. One arm runs under a real
//! [`BpReconstructor`] over a sealed skip log, which pins the order of the
//! fetch-time hook calls.

use proptest::prelude::*;
use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy, WayDump};
use rsr_core::{skip_with_smarts_warming, BpReconstructor, Pct, ReconGeometry, SkipLog};
use rsr_func::{Cpu, ExecError};
use rsr_integration::oracle::ref_simulate_cluster;
use rsr_integration::random_program;
use rsr_isa::{Asm, Freg, Program, Reg};
use rsr_timing::{simulate_cluster_hooked, CoreConfig, HotStats, NoHook, PredictHook};

/// The three program families, as plain parameters (proptest shrinks
/// these; the program is built from them).
#[derive(Clone, Debug)]
enum Prog {
    /// `proptest_pipeline`'s generator: ALU, loads/stores, forward
    /// branches in a counter loop.
    Random { ops: Vec<u8>, iters: u64 },
    /// Loads `stride` bytes apart over a region far larger than the L1D,
    /// optionally serialized through the loaded value, with long-latency
    /// arithmetic beside them and, every `store_every` loads, a store of
    /// its result.
    Stride { stride: u64, loads: u8, serial: bool, store_every: u8, iters: u64 },
    /// A chain of `depth` nested calls (direct or through a register),
    /// each frame doing a little work; deeper than a 16-entry RAS.
    Calls { depth: u8, indirect: bool, work: Vec<u8>, iters: u64 },
}

fn arb_prog() -> impl Strategy<Value = Prog> {
    (
        (0u8..3, proptest::collection::vec(any::<u8>(), 4..60), 1u64..40),
        (0u8..4, 8u64..16_000, 1u8..6, any::<bool>(), 1u8..5),
        1u8..24,
    )
        .prop_map(|((family, bytes, iters), (pick, stride, loads, flag, every), depth)| {
            match family {
                0 => Prog::Random { ops: bytes, iters: iters % 12 + 1 },
                1 => Prog::Stride {
                    // One line, one page, one page plus a line, or anything.
                    stride: [64, 4096, 4160, stride & !7][pick as usize],
                    loads,
                    serial: flag,
                    store_every: every,
                    iters,
                },
                _ => Prog::Calls {
                    depth,
                    indirect: flag,
                    work: bytes[..bytes.len().min(5)].to_vec(),
                    iters: iters % 8 + 1,
                },
            }
        })
}

fn build(prog: &Prog) -> Program {
    match prog {
        Prog::Random { ops, iters } => random_program(ops, *iters),
        Prog::Stride { stride, loads, serial, store_every, iters } => {
            let mut a = Asm::new();
            let region = a.data_zeros(1 << 20);
            let spill = a.data_zeros(4096);
            a.la(Reg::S1, region);
            a.la(Reg::S3, spill);
            a.li(Reg::S0, *iters as i64);
            a.li(Reg::S2, 0);
            a.li(Reg::T1, 7);
            a.li(Reg::T2, (1 << 20) - 8);
            a.fmv_d_x(Freg(1), Reg::T1);
            let top = a.bind_new("top");
            for k in 0..*loads {
                // Address = region + (s2 % 1 MiB), s2 advancing by stride.
                a.and(Reg::T0, Reg::S2, Reg::T2);
                a.add(Reg::T0, Reg::T0, Reg::S1);
                a.ld(Reg::T3, 0, Reg::T0);
                if *serial {
                    // The region is never written, so the loaded value is
                    // zero: a true dependency that leaves the address
                    // stream unchanged.
                    a.add(Reg::S2, Reg::S2, Reg::T3);
                }
                a.addi(Reg::S2, Reg::S2, *stride as i32);
                match k % 3 {
                    0 => a.div(Reg::T4, Reg::S2, Reg::T1),
                    1 => a.fdiv(Freg(2), Freg(1), Freg(1)),
                    _ => a.mul(Reg::T4, Reg::T4, Reg::T1),
                };
                if k % *store_every == 0 {
                    // A store whose address is ready at once but whose data
                    // waits on the long-latency result above, so younger
                    // loads queue behind it.
                    a.andi(Reg::T5, Reg::S2, 0xff8);
                    a.add(Reg::T5, Reg::T5, Reg::S3);
                    if k % 3 == 1 {
                        a.fsd(Freg(2), 0, Reg::T5);
                    } else {
                        a.sd(Reg::T4, 0, Reg::T5);
                    }
                }
            }
            a.addi(Reg::S0, Reg::S0, -1);
            a.bne(Reg::S0, Reg::ZERO, top);
            a.halt();
            a.finish().expect("assembles")
        }
        Prog::Calls { depth, indirect, work, iters } => {
            let mut a = Asm::new();
            let main = a.new_label("main");
            a.j(main);
            // Frames are emitted innermost first, so every callee's address
            // is known when its caller loads it for an indirect call.
            let mut callee: Option<rsr_isa::Label> = None;
            for d in (0..*depth).rev() {
                let f = a.bind_new(&format!("f{d}"));
                let w = work[d as usize % work.len()];
                match w % 4 {
                    0 => a.addi(Reg::T0, Reg::T0, 1),
                    1 => a.mul(Reg::T0, Reg::T0, Reg::T0),
                    2 => a.xor(Reg::T1, Reg::T0, Reg::T1),
                    _ => a.slli(Reg::T1, Reg::T1, 1),
                };
                if let Some(g) = callee {
                    a.addi(Reg::SP, Reg::SP, -8);
                    a.sd(Reg::RA, 0, Reg::SP);
                    if *indirect && d % 2 == 1 {
                        let at = a.label_addr(g).expect("callee bound");
                        a.la(Reg::T2, at);
                        a.call_reg(Reg::T2);
                    } else {
                        a.call(g);
                    }
                    a.ld(Reg::RA, 0, Reg::SP);
                    a.addi(Reg::SP, Reg::SP, 8);
                }
                if w % 3 == 0 {
                    // A data-dependent skip: direction depends on depth parity.
                    let skip = a.new_label(&format!("k{d}"));
                    a.andi(Reg::T3, Reg::T0, 1);
                    a.beq(Reg::T3, Reg::ZERO, skip);
                    a.addi(Reg::T4, Reg::T4, 1);
                    a.bind(skip).expect("fresh label");
                }
                a.ret();
                callee = Some(f);
            }
            a.bind(main).expect("fresh label");
            a.li(Reg::S0, *iters as i64);
            let top = a.bind_new("top");
            if let Some(g) = callee {
                a.call(g);
            }
            a.addi(Reg::S0, Reg::S0, -1);
            a.bne(Reg::S0, Reg::ZERO, top);
            a.halt();
            a.finish().expect("assembles")
        }
    }
}

/// Random core shapes around the paper machine, narrow enough that every
/// structural limit binds somewhere.
fn arb_core() -> impl Strategy<Value = CoreConfig> {
    (
        (1usize..=96, 1usize..=16, 1usize..=16),
        (1usize..=8, 1usize..=8, 1usize..=4, 1usize..=4),
        (1usize..=8, 0u64..=3, 1u64..=6),
    )
        .prop_map(|((rob, iq, lsq), (fetch, dispatch, issue, retire), (spec, fe, penalty))| {
            CoreConfig {
                fetch_width: fetch,
                dispatch_width: dispatch,
                issue_width: issue,
                retire_width: retire,
                rob_entries: rob,
                iq_entries: iq,
                lsq_entries: lsq,
                num_fus: 8,
                front_end_delay: fe,
                min_mispredict_penalty: penalty,
                max_spec_branches: spec,
                freq_ghz: 2.0,
            }
        })
}

/// Hot-window lengths: empty, one instruction, short, or until `halt`.
fn arb_window() -> impl Strategy<Value = u64> {
    (0u8..4, 2u64..300).prop_map(|(kind, n)| [0, 1, n, u64::MAX / 2][kind as usize])
}

/// The paper hierarchy, or a small one (1 KiB L1s, 8 KiB L2, next-line
/// prefetch) in which the skip leaves a mix of hits, misses, and dirty
/// evictions.
fn hierarchy(small: bool) -> HierarchyConfig {
    let mut h = HierarchyConfig::paper();
    if small {
        h.l1i.size_bytes = 1024;
        h.l1i.assoc = 2;
        h.l1d.size_bytes = 1024;
        h.l1d.assoc = 2;
        h.l2.size_bytes = 8 * 1024;
        h.prefetch_next_line = true;
    }
    h
}

fn predictor(small: bool) -> PredictorConfig {
    if small {
        PredictorConfig { ghr_bits: 6, btb_entries: 16, ras_entries: 4 }
    } else {
        PredictorConfig::paper()
    }
}

/// One side's starting point: the program run functionally for `skip`
/// instructions. Caches are warmed over the whole skip. The predictor is
/// warmed too, unless `log` is set: then the skip's branches go to a
/// skip log instead, sealed for the predictor at `pct`, for a
/// [`BpReconstructor`] to rebuild the predictor on demand.
struct Start {
    cpu: Cpu,
    hier: MemHierarchy,
    pred: Predictor,
    log: Option<SkipLog>,
}

fn start(program: &Program, skip: u64, small: bool, log: Option<Pct>) -> Start {
    let mut cpu = Cpu::new(program).expect("loads");
    let mut hier = MemHierarchy::new(hierarchy(small));
    let mut pred = Predictor::new(predictor(small));
    let Some(pct) = log else {
        skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip).expect("skip runs");
        return Start { cpu, hier, pred, log: None };
    };
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
    skip_log.seal_branch_index(&geom, pct);
    Start { cpu, hier, pred, log: Some(skip_log) }
}

/// Everything a window can change, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: Result<HotStats, ExecError>,
    icount: u64,
    pc: u64,
    hier_stats: rsr_cache::HierarchyStats,
    cache_stats: [rsr_cache::CacheStats; 3],
    sets: Vec<Vec<WayDump>>,
    pred: String,
    recon: Option<rsr_core::ReconStats>,
}

/// Runs one window from a fresh start, after skipping `skip_pct` percent
/// of the program's dynamic length, on the reference loop or the library's,
/// and records what it left behind.
fn run_side(
    reference: bool,
    prog: &Prog,
    cfg: &CoreConfig,
    skip_pct: u64,
    window: u64,
    small: bool,
    hook_pct: Option<Pct>,
) -> Observed {
    let program = build(prog);
    let len = Cpu::new(&program).expect("loads").run(u64::MAX).expect("runs to halt");
    let Start { mut cpu, mut hier, mut pred, log } =
        start(&program, len * skip_pct / 100, small, hook_pct);
    let mut run = |pred: &mut Predictor, hook: &mut dyn PredictHook| {
        if reference {
            ref_simulate_cluster(cfg, &mut cpu, &mut hier, pred, window, hook)
        } else {
            simulate_cluster_hooked(cfg, &mut cpu, &mut hier, pred, window, hook)
        }
    };
    let (stats, recon) = match (&log, hook_pct) {
        (Some(log), Some(pct)) => {
            let mut hook = BpReconstructor::new(&mut pred, log, pct);
            (run(&mut pred, &mut hook), Some(hook.stats()))
        }
        _ => (run(&mut pred, &mut NoHook), None),
    };
    let caches = [&hier.l1i, &hier.l1d, &hier.l2];
    Observed {
        stats,
        icount: cpu.icount(),
        pc: cpu.pc(),
        hier_stats: hier.stats(),
        cache_stats: caches.map(|c| c.stats()),
        sets: caches.iter().flat_map(|c| (0..c.num_sets()).map(|set| c.dump_set(set))).collect(),
        pred: format!("{pred:?}"),
        recon,
    }
}

/// Both loops on one case, library first.
fn run_both(
    prog: &Prog,
    cfg: &CoreConfig,
    skip_pct: u64,
    window: u64,
    small: bool,
    hook_pct: Option<Pct>,
) -> (Observed, Observed) {
    (
        run_side(false, prog, cfg, skip_pct, window, small, hook_pct),
        run_side(true, prog, cfg, skip_pct, window, small, hook_pct),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain windows (no hook) on random programs, core shapes, and
    /// hierarchies.
    #[test]
    fn cluster_loop_matches_reference(
        prog in arb_prog(),
        cfg in arb_core(),
        skip_pct in 0u64..90,
        window in arb_window(),
        small in any::<bool>(),
    ) {
        let (lib, reference) = run_both(&prog, &cfg, skip_pct, window, small, None);
        prop_assert_eq!(lib, reference);
    }

    /// Windows under on-demand branch-predictor reconstruction from a
    /// sealed skip log: the hook runs before every fetch-time prediction,
    /// so any change in prediction order shows up in the predictor and in
    /// the reconstruction counters.
    #[test]
    fn hooked_cluster_loop_matches_reference(
        prog in arb_prog(),
        cfg in arb_core(),
        skip_pct in 1u64..90,
        window in arb_window(),
        small in any::<bool>(),
        full_budget in any::<bool>(),
    ) {
        let pct = Pct::new(if full_budget { 100 } else { 20 });
        let (lib, reference) = run_both(&prog, &cfg, skip_pct, window, small, Some(pct));
        prop_assert_eq!(lib, reference);
    }
}

/// The paper machine on the two workload shapes the sampled runs spend
/// their hot time in — a miss-bound pointer chase and branchy code —
/// over windows long enough for the ROB to fill and drain many times.
#[test]
fn paper_machine_windows_match_reference() {
    for prog in [
        Prog::Stride { stride: 4160, loads: 4, serial: true, store_every: 2, iters: 400 },
        Prog::Calls { depth: 20, indirect: true, work: vec![0, 3, 5, 6, 1], iters: 60 },
        Prog::Random { ops: (0u8..=255).step_by(3).collect(), iters: 20 },
    ] {
        for small in [false, true] {
            let (lib, reference) =
                run_both(&prog, &CoreConfig::paper(), 10, u64::MAX / 2, small, None);
            assert_eq!(lib, reference, "{prog:?} small={small}");
        }
    }
}
