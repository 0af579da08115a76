//! Property-based tests spanning the ISA, functional simulator, timing
//! core, and reconstruction machinery.

use proptest::prelude::*;
use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{AccessKind, Cache, CacheConfig, HierarchyConfig, MemHierarchy, WritePolicy};
use rsr_core::{reconstruct_caches_partitioned, Pct, SkipLog};
use rsr_func::Cpu;
use rsr_isa::{Asm, Inst, Reg};
use rsr_timing::{simulate_cluster, CoreConfig};

/// Generates a random but guaranteed-terminating straight-line-ish program:
/// ALU ops, loads/stores into a private buffer, and forward-only branches,
/// wrapped in a bounded counter loop.
fn arb_program() -> impl Strategy<Value = (Vec<u8>, u64)> {
    (proptest::collection::vec(any::<u8>(), 10..120), 1u64..50)
}

fn build_program(ops: &[u8], iters: u64) -> rsr_isa::Program {
    let mut a = Asm::new();
    let buf = a.data_zeros(4096);
    a.la(Reg::S1, buf);
    a.li(Reg::S0, iters as i64);
    let top = a.bind_new("top");
    for (k, &op) in ops.iter().enumerate() {
        let r1 = Reg(10 + (op % 8));
        let r2 = Reg(10 + (op / 8 % 8));
        match op % 7 {
            0 => {
                a.add(r1, r1, r2);
            }
            1 => {
                a.xori(r1, r2, (op as i32) << 3);
            }
            2 => {
                a.andi(Reg::T0, r1, 0xff8);
                a.add(Reg::T0, Reg::T0, Reg::S1);
                a.ld(r2, 0, Reg::T0);
            }
            3 => {
                a.andi(Reg::T0, r2, 0xff8);
                a.add(Reg::T0, Reg::T0, Reg::S1);
                a.sd(r1, 0, Reg::T0);
            }
            4 => {
                // Forward skip of one instruction.
                let skip = a.new_label(&format!("s{k}"));
                a.beq(r1, r2, skip);
                a.addi(r1, r1, 1);
                a.bind(skip).unwrap();
            }
            5 => {
                a.mul(r1, r1, r2);
            }
            _ => {
                a.srli(r1, r1, 3);
            }
        }
    }
    a.addi(Reg::S0, Reg::S0, -1);
    a.bne(Reg::S0, Reg::ZERO, top);
    a.halt();
    a.finish().expect("assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The timing core retires exactly what the functional simulator
    /// retires, never exceeds retire-width IPC, and is deterministic.
    #[test]
    fn timing_core_agrees_with_functional((ops, iters) in arb_program()) {
        let program = build_program(&ops, iters);

        // Functional count until halt.
        let mut cpu = Cpu::new(&program).unwrap();
        let n = cpu.run(u64::MAX).unwrap();

        // Timing run over the full program.
        let mut cpu = Cpu::new(&program).unwrap();
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut pred = Predictor::new(PredictorConfig::paper());
        let stats =
            simulate_cluster(&CoreConfig::paper(), &mut cpu, &mut hier, &mut pred, u64::MAX / 2)
                .unwrap();
        prop_assert_eq!(stats.instructions, n);
        prop_assert!(stats.ipc() <= 4.0 + 1e-9);
        prop_assert!(stats.cycles >= n / 4);
    }

    /// Architectural state after the timing run equals pure functional
    /// execution (the timing model must not disturb semantics).
    #[test]
    fn timing_preserves_architectural_state((ops, iters) in arb_program()) {
        let program = build_program(&ops, iters);
        let mut f = Cpu::new(&program).unwrap();
        f.run(u64::MAX).unwrap();

        let mut t = Cpu::new(&program).unwrap();
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut pred = Predictor::new(PredictorConfig::paper());
        simulate_cluster(&CoreConfig::paper(), &mut t, &mut hier, &mut pred, u64::MAX / 2)
            .unwrap();

        for r in 0..32u8 {
            prop_assert_eq!(f.ireg(Reg(r)), t.ireg(Reg(r)), "x{} diverged", r);
        }
        prop_assert_eq!(f.pc(), t.pc());
    }

    /// Reverse cache reconstruction from a cold start matches forward LRU
    /// content for arbitrary access streams (read-only, any cache shape).
    #[test]
    fn reverse_recon_matches_forward_lru(
        addrs in proptest::collection::vec(0u64..(1 << 16), 1..300),
        assoc in 1usize..8,
    ) {
        let cfg = CacheConfig {
            name: "P".into(),
            size_bytes: 16 * assoc as u64 * 64,
            assoc,
            line_bytes: 64,
            write_policy: WritePolicy::WriteBackAllocate,
            hit_latency: 1,
        };
        let mut fwd = Cache::new(cfg.clone());
        for &a in &addrs {
            fwd.access(a, AccessKind::Read);
        }
        let mut rev = Cache::new(cfg);
        rev.begin_reconstruction();
        for &a in addrs.iter().rev() {
            rev.reconstruct_ref(a);
            if rev.fully_reconstructed() {
                break;
            }
        }
        rev.finish_reconstruction();
        for set in 0..fwd.num_sets() {
            prop_assert_eq!(
                fwd.set_tags_mru_order(set),
                rev.set_tags_mru_order(set),
                "set {} diverged", set
            );
        }
    }

    /// Logging then reconstructing with a 100% budget never leaves a cache
    /// set in an inconsistent state (every logged line within the last
    /// `assoc` distinct per set is present).
    #[test]
    fn full_budget_recon_is_complete((ops, iters) in arb_program()) {
        let program = build_program(&ops, iters);
        let mut cpu = Cpu::new(&program).unwrap();
        let mut log = SkipLog::new(true, false, 0);
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
        // The newest data reference of the log must be resident.
        if let Some(last) = log.mem_refs_rev().find(|&(_, is_inst)| !is_inst) {
            prop_assert!(hier.l1d.probe(last.0) || hier.l1d.probe(last.0 & !63));
        }
        // The newest instruction line must be resident in the L1I.
        if let Some(last) = log.mem_refs_rev().find(|&(_, is_inst)| is_inst) {
            prop_assert!(hier.l1i.probe(last.0));
        };
    }

    /// Encode/decode of generated programs round-trips through memory.
    #[test]
    fn program_images_roundtrip((ops, iters) in arb_program()) {
        let program = build_program(&ops, iters);
        for (i, &word) in program.text().iter().enumerate() {
            let inst = Inst::decode(word).expect("assembled words decode");
            let back = inst.try_encode().expect("decoded insts re-encode");
            prop_assert_eq!(word, back, "word {}", i);
        }
    }
}
