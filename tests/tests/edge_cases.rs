//! Edge cases and failure injection across the stack.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierarchyConfig, MemHierarchy};
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, ColdSpec, DetailSpec, Pct, RunSpec,
    SamplingRegimen, Schedule, SimError, SkipLog, SweepSpec, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_integration::{machine, sample, tiny};
use rsr_isa::{Asm, Reg};
use rsr_timing::{simulate_cluster_hooked, CoreConfig};
use rsr_workloads::Benchmark;

#[test]
fn empty_log_reconstruction_is_a_noop() {
    // A zero-length skip region logs nothing; reconstruction must leave
    // state untouched and the on-demand hook must never block.
    let log = SkipLog::new(true, true, 0xabcd);
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    hier.warm_access(0x4000, rsr_cache::HierAccess::Load);
    let (stats, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
    assert_eq!(stats.mem_scanned, 0);
    assert!(hier.l1d.probe(0x4000), "stale content must survive");

    let mut pred = Predictor::new(PredictorConfig::paper());
    let mut recon = BpReconstructor::new(&mut pred, &log, Pct::new(100));
    // GHR reconstruction from an empty log keeps the logged start value.
    assert_eq!(pred.gshare.ghr(), 0xabcd & pred.gshare.ghr_mask());
    use rsr_timing::PredictHook as _;
    recon.before_predict(&mut pred, 0x1000, rsr_branch::PredCtrlKind::CondBranch);
    assert!(pred.gshare.is_reconstructed(pred.gshare.index(0x1000)));
}

#[test]
fn one_percent_budget_still_works() {
    let program = tiny(Benchmark::Vpr);
    let out = sample(
        &program,
        SamplingRegimen::new(6, 400),
        150_000,
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(1) },
        8,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 6);
    assert!(out.est_ipc() > 0.0);
}

#[test]
fn single_instruction_clusters() {
    let program = tiny(Benchmark::Gcc);
    let out = sample(
        &program,
        SamplingRegimen::new(12, 1),
        100_000,
        WarmupPolicy::Smarts { cache: true, bp: true },
        3,
    )
    .unwrap();
    assert_eq!(out.hot_insts, 12);
    for &ipc in out.clusters.values() {
        assert!(ipc > 0.0);
    }
}

#[test]
fn halting_program_inside_schedule_is_an_error() {
    let mut a = Asm::new();
    for _ in 0..100 {
        a.nop();
    }
    a.halt();
    let program = a.finish().unwrap();
    let err =
        sample(&program, SamplingRegimen::new(4, 100), 10_000, WarmupPolicy::None, 1).unwrap_err();
    assert!(matches!(err, SimError::Exec(_)), "got {err:?}");

    // The decoupled engines ship clusters as recorded traces; the halt
    // must surface as the same typed error through them.
    let cold = || {
        ColdSpec::new(&program).regimen(SamplingRegimen::new(4, 100)).total_insts(10_000).seed(1)
    };
    let detail = || DetailSpec::new(&machine()).policy(WarmupPolicy::None);
    let piped = RunSpec::from_parts(cold(), detail().pipeline_depth(2)).run().unwrap_err();
    assert_eq!(piped, err, "depth 2");
    let swept =
        SweepSpec::new(cold()).config("a", detail()).config("b", detail()).run().unwrap_err();
    assert_eq!(swept, err, "2-config sweep");

    // A halt in a later shard, after several of its windows replayed. The
    // systematic schedule puts 20 clusters of 100 instructions 500 apart,
    // and a 2 500-instruction span cuts every shard after the first at
    // exactly five windows, so window 14 is the fourth or fifth window of
    // shard 2. The sweep's capture thread runs ahead of its replay across
    // the shard boundaries; the halt must still surface as the standalone
    // engines' error, whether it strikes a skip region or a cluster.
    let schedule = Schedule::systematic(SamplingRegimen::new(20, 100), 10_000, 3);
    let w = schedule.windows()[14];
    for halt_at in [w.start - 50, w.start + 50] {
        let mut a = Asm::new();
        for _ in 0..halt_at {
            a.nop();
        }
        a.halt();
        let program = a.finish().unwrap();
        let cold = || ColdSpec::new(&program).schedule(schedule.clone()).shard_span(2_500);
        for policy in
            [WarmupPolicy::None, WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }]
        {
            let detail = || DetailSpec::new(&machine()).policy(policy);
            let err = RunSpec::from_parts(cold(), detail().pipeline_depth(1)).run().unwrap_err();
            assert!(matches!(err, SimError::Exec(_)), "halt at {halt_at}: got {err:?}");
            let piped = RunSpec::from_parts(cold(), detail().pipeline_depth(2)).run().unwrap_err();
            assert_eq!(piped, err, "halt at {halt_at}, {policy:?}: depth 2");
            for replay in [1, 4] {
                let swept = SweepSpec::new(cold())
                    .config("a", detail())
                    .config("b", detail())
                    .replay_threads(replay)
                    .run()
                    .unwrap_err();
                assert_eq!(swept, err, "halt at {halt_at}, {policy:?}: sweep at replay {replay}");
            }
        }
    }
}

#[test]
fn runaway_program_surfaces_pc_fault() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0x9000_0000);
    a.jr(Reg::T0); // jump out of text
    let program = a.finish().unwrap();
    let mut cpu = Cpu::new(&program).unwrap();
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let mut pred = Predictor::new(PredictorConfig::paper());
    let err = simulate_cluster_hooked(
        &CoreConfig::paper(),
        &mut cpu,
        &mut hier,
        &mut pred,
        1_000,
        &mut rsr_timing::NoHook,
    )
    .unwrap_err();
    assert!(matches!(err, rsr_func::ExecError::PcOutOfText { .. }));
}

#[test]
fn reconstruction_bits_isolate_regions() {
    // Two consecutive reconstructions must not leak "reconstructed" state
    // into each other.
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let program = tiny(Benchmark::Twolf);
    let mut cpu = Cpu::new(&program).unwrap();
    let mut log = SkipLog::new(true, false, 0);
    for _ in 0..20_000 {
        log.record(&cpu.step().unwrap());
    }
    let (s1, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
    // Second region with a fresh log over different instructions.
    log.reset(true, false, 0);
    for _ in 0..20_000 {
        log.record(&cpu.step().unwrap());
    }
    let (s2, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
    assert!(s1.cache_inserted > 0 && s2.cache_inserted > 0);
    // The second pass must have re-marked from scratch (its counters are
    // not cumulative with the first).
    assert!(s2.mem_scanned <= log.mem_len() as u64);
}

#[test]
fn tiny_total_with_minimum_regimen() {
    let program = tiny(Benchmark::Parser);
    let out = sample(
        &program,
        SamplingRegimen::new(2, 50),
        200,
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(50) },
        1,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 2);
}

#[test]
fn mrrl_handles_degenerate_regions() {
    // Clusters so dense the skip regions are tiny (possibly zero after
    // de-overlap): the profiling pass must not underflow or stall.
    let program = tiny(Benchmark::Ammp);
    let out = sample(
        &program,
        SamplingRegimen::new(10, 100),
        2_000,
        WarmupPolicy::Mrrl { coverage: Pct::new(100) },
        2,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 10);
}

#[test]
fn programs_whose_pcs_do_not_fit_a_branch_record_fail_to_load() {
    use rsr_func::LoadError;
    use rsr_isa::{Inst, Op};
    let load = |text_base: u64, build: &dyn Fn(&mut Asm)| {
        let mut a = Asm::with_layout(text_base, 0x1000_0000, 0x7fff_ff00);
        build(&mut a);
        a.halt();
        let program = a.finish().unwrap();
        let cpu = Cpu::new(&program).map(|_| ());
        if let Err(e) = cpu {
            // The sampled engines surface the same typed error.
            let run = sample(&program, SamplingRegimen::new(2, 10), 1_000, WarmupPolicy::None, 1);
            assert_eq!(run.unwrap_err(), SimError::Load(e));
        }
        cpu
    };
    let nops = |a: &mut Asm| {
        for _ in 0..7 {
            a.nop();
        }
    };
    // Text that reaches past 32 bits, and text that is misaligned.
    assert_eq!(
        load(0xffff_fff0, &nops),
        Err(LoadError::TextOutOfRange { base: 0xffff_fff0, end: 0x1_0000_0010 })
    );
    assert_eq!(
        load(0x1_0002, &nops),
        Err(LoadError::TextOutOfRange { base: 0x1_0002, end: 0x1_0022 })
    );
    // Direct transfers whose targets leave 32 bits: a forward `jal` off
    // the top, and a backward one that wraps below zero.
    let jal = |imm: i32| {
        move |a: &mut Asm| {
            a.emit(Inst::new(Op::Jal, 0, 0, 0, imm));
        }
    };
    assert_eq!(
        load(0xffff_ff00, &jal(0x200)),
        Err(LoadError::TargetOutOfRange { pc: 0xffff_ff00, target: 0x1_0000_0100 })
    );
    assert_eq!(
        load(0x1_0000, &jal(-0x2_0000)),
        Err(LoadError::TargetOutOfRange {
            pc: 0x1_0000,
            target: 0x1_0000u64.wrapping_sub(0x2_0000)
        })
    );
    // The last 32-bit word still loads.
    assert_eq!(
        load(0xffff_fff0, &|a: &mut Asm| {
            a.nop();
            a.nop();
            a.nop();
        }),
        Ok(())
    );
}

#[test]
fn an_indirect_jump_to_an_unpackable_target_faults_at_the_next_fetch() {
    use rsr_func::ExecError;
    use rsr_isa::CtrlKind;
    let program = |target: u64| {
        let mut a = Asm::new();
        a.li(Reg::T0, 2_000);
        let top = a.bind_new("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.li(Reg::T1, target as i64);
        a.jr(Reg::T1);
        a.finish().unwrap()
    };
    let base = Asm::new().here();
    for target in [1u64 << 33, base + 2] {
        let program = program(target);
        let fault = ExecError::PcOutOfText { pc: target };
        // The jump is logged, with its target truncated; the fetch right
        // after it faults, so the region ends in the error.
        let mut cpu = Cpu::new(&program).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        assert_eq!(log.record_region(&mut cpu, 1_000_000), Err(fault));
        let last = log.branch_at(log.branch_len() - 1);
        assert_eq!((last.kind, last.taken), (CtrlKind::IndirectJump, true));
        assert_ne!(last.target, target, "{target:#x} does not fit a record");

        // Every engine fails the run with that fault.
        let cold = || {
            ColdSpec::new(&program)
                .regimen(SamplingRegimen::new(4, 100))
                .total_insts(10_000)
                .seed(1)
        };
        let policy = WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) };
        let detail = || DetailSpec::new(&machine()).policy(policy);
        let want = SimError::Exec(fault);
        assert_eq!(RunSpec::from_parts(cold(), detail()).run().unwrap_err(), want, "depth 1");
        let piped = RunSpec::from_parts(cold(), detail().pipeline_depth(2)).run().unwrap_err();
        assert_eq!(piped, want, "depth 2");
        let swept =
            SweepSpec::new(cold()).config("a", detail()).config("b", detail()).run().unwrap_err();
        assert_eq!(swept, want, "2-config sweep");
    }
}
