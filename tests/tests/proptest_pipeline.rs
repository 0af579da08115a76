//! Property-based tests spanning the ISA, functional simulator, timing
//! core, and reconstruction machinery.

use proptest::prelude::*;
use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{AccessKind, Cache, CacheConfig, HierarchyConfig, MemHierarchy, WritePolicy};
use rsr_core::{reconstruct_caches_partitioned, Pct, SkipLog};
use rsr_func::Cpu;
use rsr_integration::random_program;
use rsr_isa::{Inst, Reg};
use rsr_timing::{simulate_cluster, CoreConfig};

/// Parameters of [`random_program`]: one op selector per emitted group and
/// the loop trip count.
fn arb_program() -> impl Strategy<Value = (Vec<u8>, u64)> {
    (proptest::collection::vec(any::<u8>(), 10..120), 1u64..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The timing core retires exactly what the functional simulator
    /// retires, never exceeds retire-width IPC, and is deterministic.
    #[test]
    fn timing_core_agrees_with_functional((ops, iters) in arb_program()) {
        let program = random_program(&ops, iters);

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
        let program = random_program(&ops, iters);
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
        let program = random_program(&ops, iters);
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
        let program = random_program(&ops, iters);
        for (i, &word) in program.text().iter().enumerate() {
            let inst = Inst::decode(word).expect("assembled words decode");
            let back = inst.try_encode().expect("decoded insts re-encode");
            prop_assert_eq!(word, back, "word {}", i);
        }
    }
}
