//! SoA hot-path kernel equivalence: the rebuilt detailed-window structures
//! — the flat tag/rank/bitmask [`Cache`], the packed-counter [`Gshare`],
//! the bitset [`Btb`], and the inline-array [`Ras`] — must be bit-identical
//! to the reference implementations in `rsr_integration::oracle`
//! ([`RefCache`], [`RefGshare`], [`RefBtb`], [`RefRas`]) on every observable: per-access outcomes,
//! statistics, per-set dumps, predictions, counters, and reconstructed
//! state. Streams include random access/branch mixes, reverse
//! reconstruction with budget cuts, and real [`SkipLog`] replays with
//! wide-PC records and over-budget truncation.

use proptest::prelude::*;
use rsr_branch::{Btb, Counter2, Gshare, Ras, RasOp};
use rsr_cache::{AccessKind, Cache, CacheConfig, WritePolicy};
use rsr_core::SkipLog;
use rsr_func::{BranchRec, MemAccess, Retired};
use rsr_integration::oracle::{RefBtb, RefCache, RefGshare, RefRas};
use rsr_isa::{CtrlKind, Inst, MemWidth, Op};

fn cache_cfg(assoc: usize, sets: u64, policy: WritePolicy) -> CacheConfig {
    CacheConfig {
        name: "EQ".into(),
        size_bytes: sets * assoc as u64 * 64,
        assoc,
        line_bytes: 64,
        write_policy: policy,
        hit_latency: 1,
    }
}

/// Full observable state comparison: statistics plus every set's
/// `(tag, valid, rank, reconstructed)` dump.
fn assert_cache_state(c: &Cache, r: &RefCache, what: &str) {
    assert_eq!(c.stats(), r.stats(), "{what}: stats");
    assert_eq!(c.num_sets(), r.num_sets(), "{what}: geometry");
    for set in 0..c.num_sets() {
        assert_eq!(c.dump_set(set), r.dump_set(set), "{what}: set {set}");
        assert_eq!(c.set_tags_mru_order(set), r.set_tags_mru_order(set), "{what}: MRU set {set}");
    }
    assert_eq!(c.complete_sets(), r.complete_sets(), "{what}: complete sets");
    assert_eq!(c.fully_reconstructed(), r.fully_reconstructed(), "{what}: fully recon");
}

/// An address whose set index is `set` and tag is `tag` for `sets`-set,
/// 64-byte-line geometry.
fn addr_for(sets: u64, set: u64, tag: u64) -> u64 {
    (tag << (6 + sets.trailing_zeros())) | (set << 6)
}

/// Associativities [`prop_cache_reconstruction_equivalent`] draws from:
/// narrow 1–8, then wide ones around and past 64 ways, where the cache
/// switches to multi-word way masks and sorted rank normalisation, up to
/// the `u8` line-state limit (255).
const RECON_ASSOC: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 33, 64, 65, 128, 255];

/// Tag range and reference-count cap for one associativity: narrow caches
/// draw tags from 0..6 and up to 119 references; wide ones draw from
/// `0..assoc + 2` with up to `8 * assoc`, so their sets can still fill,
/// evict, and complete.
fn recon_shape(assoc: usize) -> (u64, usize) {
    if assoc <= 8 {
        (6, 119)
    } else {
        (assoc as u64 + 2, 8 * assoc)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random access streams (reads, writes, evictions, writebacks) through
    /// the SoA cache and the reference cache produce identical outcomes,
    /// statistics, and line state under both write policies.
    #[test]
    fn prop_cache_access_stream_equivalent(
        assoc in 1usize..=8,
        stream in proptest::collection::vec((0u64..8, 0u64..6, any::<bool>()), 1..250),
    ) {
        for policy in [WritePolicy::WriteBackAllocate, WritePolicy::WriteThroughNoAllocate] {
            let cfg = cache_cfg(assoc, 8, policy);
            let mut c = Cache::new(cfg.clone());
            let mut r = RefCache::new(cfg);
            for (i, &(set, tag, is_write)) in stream.iter().enumerate() {
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                let a = addr_for(8, set, tag);
                prop_assert_eq!(c.probe(a), r.probe(a), "probe {} ({:?})", i, policy);
                let got = c.access(a, kind);
                let want = r.access(a, kind);
                prop_assert_eq!(got, want, "access {} ({:?})", i, policy);
            }
            assert_cache_state(&c, &r, &format!("{policy:?}"));
        }
    }

    /// Reverse reconstruction — stale prep, a reversed reference stream
    /// with a budget cut, rank normalization, then continued forward
    /// execution — stays bit-identical, including the per-reference
    /// [`ReconOutcome`](rsr_cache::ReconOutcome) sequence, at narrow and
    /// wide associativities.
    #[test]
    fn prop_cache_reconstruction_equivalent(
        assoc_sel in 0usize..RECON_ASSOC.len(),
        prep in proptest::collection::vec((0u64..4, any::<u32>()), 0..60),
        refs in proptest::collection::vec((0u64..4, any::<u32>()), 1..8 * 255),
        resume in proptest::collection::vec((0u64..4, any::<u32>(), any::<bool>()), 0..40),
        cut_pct in 0u64..=100,
    ) {
        let assoc = RECON_ASSOC[assoc_sel];
        let (tags, max_refs) = recon_shape(assoc);
        let tag = |raw: u32| u64::from(raw) % tags;
        let prep: Vec<(u64, u64)> = prep.iter().map(|&(s, t)| (s, tag(t))).collect();
        let refs: Vec<(u64, u64)> =
            refs[..1 + (refs.len() - 1) % max_refs].iter().map(|&(s, t)| (s, tag(t))).collect();
        let resume: Vec<(u64, u64, bool)> =
            resume.iter().map(|&(s, t, w)| (s, tag(t), w)).collect();
        let cfg = cache_cfg(assoc, 4, WritePolicy::WriteBackAllocate);
        let mut c = Cache::new(cfg.clone());
        let mut r = RefCache::new(cfg);
        for &(set, tag) in &prep {
            let a = addr_for(4, set, tag);
            c.access(a, AccessKind::Read);
            r.access(a, AccessKind::Read);
        }
        c.begin_reconstruction();
        r.begin_reconstruction();
        // Newest-first replay, truncated at the budget cut — the same
        // shape an over-budget skip log presents.
        let keep = (refs.len() as u64 * cut_pct / 100) as usize;
        for (i, &(set, tag)) in refs.iter().rev().take(keep.max(1)).enumerate() {
            let a = addr_for(4, set, tag);
            prop_assert_eq!(
                c.reconstruct_ref(a),
                r.reconstruct_ref(a),
                "recon outcome {}", i
            );
        }
        c.finish_reconstruction();
        r.finish_reconstruction();
        assert_cache_state(&c, &r, "post-finish");
        // The normalized ranks must drive identical replacement afterward.
        for &(set, tag, is_write) in &resume {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let a = addr_for(4, set, tag);
            prop_assert_eq!(c.access(a, kind), r.access(a, kind));
        }
        assert_cache_state(&c, &r, "post-resume");
    }

    /// The packed-word gshare agrees with the reference on every index,
    /// prediction, counter update, and reconstructed bit under interleaved
    /// predict/update/warm/speculate/overwrite streams.
    #[test]
    fn prop_gshare_equivalent(
        hist_bits in 2u32..=12,
        ops in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u8..5), 1..300),
    ) {
        let mut g = Gshare::new(hist_bits);
        let mut r = RefGshare::new(hist_bits);
        g.begin_reconstruction();
        r.begin_reconstruction();
        for &(raw, taken, sel) in &ops {
            let pc = raw & 0xffff_ffff_ffff;
            match sel {
                0 => {
                    let (idx, t) = g.predict_indexed(pc);
                    prop_assert_eq!(idx, r.index(pc), "index for {:#x}", pc);
                    prop_assert_eq!(t, r.predict(pc), "prediction for {:#x}", pc);
                }
                1 => {
                    let idx = g.index(pc);
                    g.update_at(idx, taken);
                    r.update_at(idx, taken);
                }
                2 => {
                    g.speculate_ghr(taken);
                    r.speculate_ghr(taken);
                }
                3 => {
                    g.warm_update(pc, taken);
                    r.warm_update(pc, taken);
                }
                _ => {
                    let idx = g.index(pc);
                    let v = Counter2::new((raw >> 17) as u8 & 3);
                    g.set_counter(idx, v);
                    r.set_counter(idx, v);
                    g.mark_reconstructed(idx);
                    r.mark_reconstructed(idx);
                }
            }
        }
        prop_assert_eq!(g.ghr(), r.ghr(), "final GHR");
        for i in 0..g.num_entries() {
            prop_assert_eq!(g.counter_at(i), r.counter_at(i), "counter {}", i);
            prop_assert_eq!(g.is_reconstructed(i), r.is_reconstructed(i), "recon bit {}", i);
        }
    }

    /// The bitset BTB and inline-array RAS agree with their references on
    /// lookups, updates, reconstruction, and checkpoint/restore.
    #[test]
    fn prop_btb_ras_equivalent(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..5), 1..250),
        ras_entries in 1usize..=16,
    ) {
        let mut b = Btb::new(64);
        let mut rb = RefBtb::new(64);
        b.begin_reconstruction();
        rb.begin_reconstruction();
        let mut ras = Ras::new(ras_entries);
        let mut rras = RefRas::new(ras_entries);
        let mut snaps: Vec<(Ras, RefRas)> = Vec::new();
        for &(raw, target, sel) in &ops {
            let pc = (raw & 0xffff_ffff_ffff) & !3;
            match sel {
                0 => {
                    prop_assert_eq!(b.peek(pc), rb.peek(pc), "peek {:#x}", pc);
                    prop_assert_eq!(b.lookup(pc), rb.peek(pc), "lookup {:#x}", pc);
                    prop_assert_eq!(ras.peek(), rras.peek(), "RAS peek");
                }
                1 => {
                    b.update(pc, target);
                    rb.update(pc, target);
                    ras.push(target);
                    rras.push(target);
                }
                2 => {
                    prop_assert_eq!(
                        b.reconstruct(pc, target),
                        rb.reconstruct(pc, target),
                        "reconstruct {:#x}", pc
                    );
                    prop_assert_eq!(b.is_reconstructed(pc), rb.is_reconstructed(pc));
                }
                3 => {
                    prop_assert_eq!(ras.pop(), rras.pop(), "RAS pop");
                    b.mark_reconstructed(pc);
                    rb.mark_reconstructed(pc);
                }
                _ => {
                    if raw % 3 == 0 {
                        snaps.push((ras.checkpoint(), rras.checkpoint()));
                    } else if let Some((s, rs)) = snaps.pop() {
                        ras.restore(&s);
                        rras.restore(&rs);
                    }
                }
            }
        }
        for i in 0..64u64 {
            let pc = i << 2;
            prop_assert_eq!(b.peek(pc), rb.peek(pc), "final BTB entry {}", i);
            prop_assert_eq!(b.is_reconstructed(pc), rb.is_reconstructed(pc));
        }
        for _ in 0..ras_entries {
            prop_assert_eq!(ras.pop(), rras.pop(), "final RAS drain");
        }
    }

    /// Reverse RAS reconstruction over random op streams fills both stacks
    /// identically.
    #[test]
    fn prop_ras_reconstruct_equivalent(
        entries in 1usize..=16,
        words in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let ops: Vec<RasOp> = words
            .iter()
            .map(|&w| if w % 3 == 0 { RasOp::Pop } else { RasOp::Push(w) })
            .collect();
        let mut ras = Ras::new(entries);
        let mut rras = RefRas::new(entries);
        ras.reconstruct(ops.iter().rev().copied());
        rras.reconstruct(ops.iter().rev().copied());
        for _ in 0..entries {
            prop_assert_eq!(ras.pop(), rras.pop());
        }
    }
}

/// Synthesizes an adversarial retired stream: 48-bit PCs with bit 45 set on
/// a stride (past the 32 bits a branch record keeps), non-sequential next
/// PCs, stores, and every control kind.
fn stream_from_words(words: &[u64]) -> Vec<Retired> {
    let kinds = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::Call,
        CtrlKind::IndirectCall,
        CtrlKind::Return,
        CtrlKind::IndirectJump,
    ];
    words
        .iter()
        .enumerate()
        .map(|(seq, &r)| {
            let pc =
                if r % 5 == 0 { (r | (1 << 45)) % (1 << 48) } else { 0x1_0000 + (r % 4096) * 4 };
            let next_pc = if r % 3 == 0 { r.rotate_left(17) } else { pc.wrapping_add(4) };
            let mem = (r % 2 == 0).then(|| MemAccess {
                addr: r.rotate_left(29) % (1 << 48),
                width: MemWidth::B8,
                is_store: r % 4 == 0,
            });
            let branch = (r % 3 == 0).then(|| BranchRec {
                kind: kinds[(r % 6) as usize],
                taken: r % 2 == 0,
                target: r.rotate_left(41) % (1 << 48),
            });
            Retired {
                seq: seq as u64,
                pc,
                next_pc,
                inst: Inst::new(Op::Add, 0, 0, 0, 0),
                mem,
                branch,
            }
        })
        .collect()
}

/// Replays a real skip log — wide-PC records included, optionally
/// budget-truncated — through paired SoA/reference structures: the memory
/// column drives an L1-like and an L2-like cache pair (reverse scan at a
/// 20 % budget cut, then rank normalization), the branch column drives a
/// gshare/BTB pair forward. Every observable must match.
fn assert_log_replay_equivalent(log: &SkipLog, what: &str) {
    // Cache pairs: small L1/L2-shaped geometries (the kernels are
    // geometry-generic; tiny sets keep the dump comparison fast).
    let l1_cfg = cache_cfg(4, 64, WritePolicy::WriteThroughNoAllocate);
    let l2_cfg = cache_cfg(8, 128, WritePolicy::WriteBackAllocate);
    for cfg in [l1_cfg, l2_cfg] {
        let mut c = Cache::new(cfg.clone());
        let mut r = RefCache::new(cfg);
        c.begin_reconstruction();
        r.begin_reconstruction();
        let keep = (log.mem_len() / 5).max(1); // the paper's 20 % budget
        for (i, (addr, _is_inst)) in log.mem_refs_rev().take(keep).enumerate() {
            assert_eq!(c.reconstruct_ref(addr), r.reconstruct_ref(addr), "{what}: mem ref {i}");
        }
        c.finish_reconstruction();
        r.finish_reconstruction();
        assert_cache_state(&c, &r, what);
    }

    // Branch pair: materialized records drive functional warm updates and
    // BTB installs forward.
    let mut g = Gshare::new(12);
    let mut rg = RefGshare::new(12);
    let mut b = Btb::new(4096);
    let mut rb = RefBtb::new(4096);
    let mut pcs = Vec::new();
    for rec in log.branch_records() {
        if rec.kind == CtrlKind::CondBranch {
            g.warm_update(rec.pc, rec.taken);
            rg.warm_update(rec.pc, rec.taken);
        }
        if rec.taken {
            b.update(rec.pc, rec.target);
            rb.update(rec.pc, rec.target);
        }
        pcs.push(rec.pc);
    }
    assert_eq!(g.ghr(), rg.ghr(), "{what}: GHR after replay");
    for i in 0..g.num_entries() {
        assert_eq!(g.counter_at(i), rg.counter_at(i), "{what}: PHT entry {i}");
    }
    for pc in pcs {
        assert_eq!(b.peek(pc), rb.peek(pc), "{what}: BTB at {pc:#x}");
    }
}

#[test]
fn skip_log_replays_with_wide_pc_records_stay_equivalent() {
    let words: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let stream = stream_from_words(&words);
    let mut log = SkipLog::new(true, true, 0);
    for r in &stream {
        log.record(r);
    }
    assert!(log.mem_len() > 0 && log.branch_len() > 0);
    assert_log_replay_equivalent(&log, "wide PCs");
}

#[test]
fn budget_truncated_skip_logs_stay_equivalent() {
    let words: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d)).collect();
    let stream = stream_from_words(&words);
    // Budget sized so the log keeps a prefix, then truncates: both sides
    // of the pair see the same post-truncation record set.
    let mut log = SkipLog::new(true, true, 0);
    log.set_budget(Some(8 * 1024));
    for r in &stream {
        log.record(r);
    }
    assert!(log.truncated(), "budget must actually truncate this stream");
    assert_log_replay_equivalent(&log, "truncated");
}
