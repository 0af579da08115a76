//! Reverse State Reconstruction — the paper's contribution (§3).
//!
//! * [`reconstruct_caches_partitioned`]: §3.1 — scan the logged reference
//!   stream newest-first and repair L1I/L1D/L2 state, skipping references
//!   whose set is already complete (ineffectual instructions isolated with
//!   no profiling). The scan walks the log's sealed per-set index spans
//!   ([`crate::ReconGeometry`]) set by set with per-set early exit.
//! * [`BpReconstructor`]: §3.2 — rebuild the global history register and
//!   the return address stack eagerly, then reconstruct PHT counters (via
//!   reverse-history inference) and BTB entries *on demand* as the next
//!   cluster's branches probe them, resuming one shared reverse cursor so
//!   the log is never rescanned from the start.
//!
//! Both run through a sealed index only. A log that is unsealed, stale, or
//! sealed for another geometry is sealed into local scratch first, so
//! there is exactly one reconstruction path; the sequential full scan it
//! must reproduce lives with the tests as an oracle.

use std::borrow::Cow;
use std::time::Instant;

use rsr_branch::{Counter2, PredCtrlKind, Predictor, RasOp, StateMap, PACKED_IDENTITY};
use rsr_cache::{Cache, MemHierarchy};
use rsr_isa::{Addr, CtrlKind};
use rsr_timing::PredictHook;

use crate::log::{
    ReconIndex, BR_F_BTB_LW, BR_F_COND, BR_F_PHT_DEAD, BR_F_PHT_FLUSH_LW, BR_F_PHT_RESOLVE,
};
use crate::{Pct, ReconGeometry, SkipLog};

/// Counters describing one region's reconstruction work (for the paper's
/// storage-for-speed accounting and the ablation benches).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconStats {
    /// Memory log records consumed by the reverse cache scan.
    pub mem_scanned: u64,
    /// Cache blocks inserted into stale ways.
    pub cache_inserted: u64,
    /// Present-but-stale blocks marked reconstructed in place.
    pub cache_marked: u64,
    /// References ignored because a younger reference already reconstructed
    /// the block or its whole set.
    pub cache_ignored: u64,
    /// Branch log records consumed by the on-demand scan.
    pub branch_scanned: u64,
    /// PHT entries pinned exactly by inference.
    pub pht_exact: u64,
    /// PHT entries set from a partial-history best guess.
    pub pht_guessed: u64,
    /// PHT entries demanded but left stale (no history in budget).
    pub pht_stale: u64,
    /// BTB entries reconstructed.
    pub btb_reconstructed: u64,
    /// On-demand scans triggered by cluster branches.
    pub demand_scans: u64,
}

impl ReconStats {
    /// Accumulates another region's counters.
    pub fn accumulate(&mut self, other: &ReconStats) {
        self.mem_scanned += other.mem_scanned;
        self.cache_inserted += other.cache_inserted;
        self.cache_marked += other.cache_marked;
        self.cache_ignored += other.cache_ignored;
        self.branch_scanned += other.branch_scanned;
        self.pht_exact += other.pht_exact;
        self.pht_guessed += other.pht_guessed;
        self.pht_stale += other.pht_stale;
        self.btb_reconstructed += other.btb_reconstructed;
        self.demand_scans += other.demand_scans;
    }
}

/// Wall time spent reconstructing each structure, in nanoseconds.
///
/// Kept separate from [`ReconStats`] deliberately: the counters are part
/// of the deterministic result (bit-identical at any thread count /
/// pipeline depth), while timing is operational telemetry that varies run
/// to run. `BENCH_sample.json` emits these per-structure so perf
/// regressions can be attributed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconTiming {
    /// Reverse scan time repairing the L1I + L1D.
    pub l1_ns: u64,
    /// Reverse scan time repairing the unified L2.
    pub l2_ns: u64,
    /// On-demand scan time triggered by PHT probes.
    pub pht_ns: u64,
    /// On-demand scan time triggered by BTB probes.
    pub btb_ns: u64,
}

impl ReconTiming {
    /// Accumulates another region's timings.
    pub fn accumulate(&mut self, other: &ReconTiming) {
        self.l1_ns += other.l1_ns;
        self.l2_ns += other.l2_ns;
        self.pht_ns += other.pht_ns;
        self.btb_ns += other.btb_ns;
    }
}

/// One level's aggregate over its set walk.
#[derive(Copy, Clone, Default)]
struct LevelAgg {
    inserted: u64,
    marked: u64,
    /// Did every set complete within the scan window?
    complete: bool,
    /// Largest newest-first offset at which a set completed (meaningful
    /// only when `complete`; it bounds where the sequential scan would
    /// have flipped this level's done flag).
    t_level: usize,
}

/// Reverse scan of one cache level: each set is walked newest-first along
/// its contiguous index span, stopping at the budget cut (`position <
/// cut` — spans are sorted descending, so the first record past the cut
/// ends the set) or as soon as the set completes — the per-set early exit
/// the paper's §3.1 ordering permits, because a complete set ignores all
/// older references anyway. Span positions and `cut` are relative to
/// `addrs`, the log's settled address slice.
fn walk_cache(cache: &mut Cache, off: &[u32], idx: &[u32], addrs: &[u64], cut: usize) -> LevelAgg {
    let n = addrs.len();
    let cut = cut as u32;
    let mut agg = LevelAgg { complete: true, ..LevelAgg::default() };
    for set in 0..cache.num_sets() {
        let span = &idx[off[set] as usize..off[set + 1] as usize];
        let out = cache.reconstruct_span(set, span, addrs, cut);
        agg.inserted += u64::from(out.inserted);
        agg.marked += u64::from(out.marked);
        match out.completed_at {
            Some(i) => agg.t_level = agg.t_level.max(n - 1 - i as usize),
            None => agg.complete = false,
        }
    }
    agg
}

/// The memory-side geometry of `hier`: the key its index must be sealed
/// under. The branch fields stay zero, since a memory-side build never
/// reads them.
fn hier_geometry(hier: &MemHierarchy) -> ReconGeometry {
    ReconGeometry {
        l1i_sets: hier.l1i.num_sets(),
        l1i_line_shift: hier.l1i.line_shift(),
        l1d_sets: hier.l1d.num_sets(),
        l1d_line_shift: hier.l1d.line_shift(),
        l2_sets: hier.l2.num_sets(),
        l2_line_shift: hier.l2.line_shift(),
        ghr_bits: 0,
        btb_entries: 0,
    }
}

/// Reverse cache reconstruction (§3.1) through the log's sealed
/// partitioned index: each set's newest-first index span is walked with
/// per-set early exit, one set after another on the calling thread.
///
/// Counters and final cache state are **bit-identical** to the sequential
/// newest-first full scan the paper describes: span order per set equals
/// that scan's per-set subsequence, mutations only ever happen before its
/// stopping point, and the scan-length accounting is reconstructed from
/// the per-set completion offsets (see DESIGN.md §11 for the argument).
/// A log whose memory-side seal is missing, stale, keyed for another
/// geometry, or narrower than this budget's window is sealed into local
/// scratch first (over that window only).
///
/// Returns per-structure wall time alongside the counters (sealing is not
/// counted).
///
/// Reconstruction is sequential: `_workers` is ignored. It remains only so
/// that existing four-argument callers, such as the benchmark replica in
/// `crates/bench/src/bin/benchmark`, keep compiling.
///
/// # Panics
///
/// If `pct` is wider than the log's retention window
/// ([`SkipLog::set_retention`]; the message names both percentages), if
/// its memory ring has wrapped since the last [`SkipLog::finish_region`],
/// or if the log holds `u32::MAX` or more memory records (see
/// [`SkipLog::seal_mem_index`]).
pub fn reconstruct_caches_partitioned(
    hier: &mut MemHierarchy,
    log: &SkipLog,
    pct: Pct,
    _workers: usize,
) -> (ReconStats, ReconTiming) {
    reconstruct_caches_partitioned_with(hier, log, log.index(), pct)
}

/// [`reconstruct_caches_partitioned`] over an explicitly supplied index —
/// the engines' entry point, where the follower or the sweep replay seals
/// each window into scratch it owns and the log stays immutable. The index
/// is used only if its memory side was sealed over exactly this log's
/// records, for this hierarchy's geometry, reaching back to this budget's
/// cut; otherwise an index is sealed on the spot. Both entry points thus
/// run the exact same code on the exact same inputs.
pub(crate) fn reconstruct_caches_partitioned_with(
    hier: &mut MemHierarchy,
    log: &SkipLog,
    index: Option<&ReconIndex>,
    pct: Pct,
) -> (ReconStats, ReconTiming) {
    log.check_retained(pct);
    let geom = hier_geometry(hier);
    let n = log.mem_len();
    let budget = pct.of(n);
    let cut = n - budget;
    // Any seal reaching back to the cut serves this budget; the walk
    // stops at the cut either way.
    let local;
    let ix = match index.filter(|ix| {
        ix.mem_sealed == Some(n) && ix.geom.mem_key() == geom.mem_key() && ix.mem_from <= cut
    }) {
        Some(ix) => ix,
        None => {
            let mut ix = ReconIndex::new(geom);
            log.build_mem_index_into(&geom, pct, &mut ix);
            local = ix;
            &local
        }
    };
    let mut timing = ReconTiming::default();
    let addrs = log.mem_words();
    let cut = cut - log.mem_base();
    hier.begin_reconstruction();

    let t = Instant::now();
    let l1i = walk_cache(&mut hier.l1i, &ix.l1i_off, &ix.l1i_idx, addrs, cut);
    let l1d = walk_cache(&mut hier.l1d, &ix.l1d_off, &ix.l1d_idx, addrs, cut);
    timing.l1_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let l2 = walk_cache(&mut hier.l2, &ix.l2_off, &ix.l2_idx, addrs, cut);
    timing.l2_ns = t.elapsed().as_nanos() as u64;
    hier.finish_reconstruction();

    // The sequential scan stops one record past the last level-completing
    // probe (its break runs at the top of the next iteration), or at the
    // budget if any level never completes.
    let complete = l1i.complete && l1d.complete && l2.complete;
    let scanned = if complete {
        l1i.t_level.max(l1d.t_level).max(l2.t_level) as u64 + 1
    } else {
        budget as u64
    };
    let inserted = l1i.inserted + l1d.inserted + l2.inserted;
    let marked = l1i.marked + l1d.marked + l2.marked;
    let stats = ReconStats {
        mem_scanned: scanned,
        cache_inserted: inserted,
        cache_marked: marked,
        // Every sequentially scanned record yields exactly one L1 outcome
        // and one L2 outcome; whatever wasn't an insert or a mark was
        // ignored.
        cache_ignored: 2 * scanned - inserted - marked,
        ..ReconStats::default()
    };
    (stats, timing)
}

/// On-demand branch-predictor reconstruction (§3.2).
///
/// Construction rebuilds the GHR from the last *n* logged branches and the
/// RAS via the reverse push/pop-counter walk (Figure 4), and clears all
/// reconstructed bits. During the cluster, [`PredictHook::before_predict`]
/// consumes the reverse branch log just far enough to determine the probed
/// PHT/BTB entry — reconstructing every other entry it passes, so the log
/// is consumed exactly once per region.
#[derive(Debug)]
pub struct BpReconstructor<'log> {
    /// The region's log (packed branch records are materialized only as
    /// the scan demands them).
    log: &'log SkipLog,
    /// The branch-side index the scan runs over: the budget window's PHT
    /// keys, scan flags and inference states, and the final GHR. Borrowed from
    /// the caller when its seal matches this predictor, budget, and start
    /// GHR; otherwise built on the spot and owned here.
    index: Cow<'log, ReconIndex>,
    /// Reverse records consumed so far.
    consumed: usize,
    /// Maximum reverse records the scan may consume.
    budget: usize,
    /// Per-key packed inference state, stored XOR [`PACKED_IDENTITY`] so
    /// zero means "no in-progress inference". The sealed `pht_state`
    /// column supplies each feed's composed state directly (marks are
    /// monotonic, so the incremental state at any performed feed is the
    /// pure log-suffix composition sealed there) — this array only
    /// remembers the *latest* fed state per key for the exhaustion flush.
    pht_live: Vec<u8>,
    /// Keys with a `pht_live` entry, in first-fed order (flush worklist).
    touched: Vec<u32>,
    /// Cursor into the sealed hot worklist (`ReconIndex::br_hot`):
    /// position of the newest flagged record not yet consumed.
    hot_pos: usize,
    exhausted: bool,
    stats: ReconStats,
    timing: ReconTiming,
}

/// The branch-side geometry of `pred`: the key its index must be sealed
/// under. The cache fields stay zero, since a branch-side build never
/// reads them.
fn pred_geometry(pred: &Predictor) -> ReconGeometry {
    ReconGeometry {
        l1i_sets: 0,
        l1i_line_shift: 0,
        l1d_sets: 0,
        l1d_line_shift: 0,
        l2_sets: 0,
        l2_line_shift: 0,
        ghr_bits: pred.gshare.hist_bits(),
        btb_entries: pred.btb.num_entries(),
    }
}

impl<'log> BpReconstructor<'log> {
    /// Prepares on-demand reconstruction for one skip region: clears
    /// reconstructed bits, rebuilds the GHR and the RAS. A log whose
    /// branch-side seal is missing, stale, or keyed for another geometry,
    /// budget, or start GHR is sealed into owned scratch first.
    ///
    /// # Panics
    ///
    /// If `pct` is wider than the log's retention window
    /// ([`SkipLog::set_retention`]; the message names both percentages),
    /// or if the log holds `u32::MAX` or more branch records (see
    /// [`SkipLog::seal_branch_index`]).
    pub fn new(pred: &mut Predictor, log: &'log SkipLog, pct: Pct) -> BpReconstructor<'log> {
        BpReconstructor::with_index(pred, log, log.index(), log.ghr_at_start, pct)
    }

    /// [`BpReconstructor::new`] over an explicitly supplied index and
    /// start GHR — the engines' entry point, where the log stays immutable,
    /// the follower or the sweep replay seals the branch side into scratch
    /// it owns, and the start GHR comes from the reconstructing predictor
    /// instead of the log's `ghr_at_start` field. The seal check and the
    /// on-the-spot seal are applied here, identically for both entry
    /// points.
    pub(crate) fn with_index(
        pred: &mut Predictor,
        log: &'log SkipLog,
        index: Option<&'log ReconIndex>,
        ghr_at_start: u64,
        pct: Pct,
    ) -> BpReconstructor<'log> {
        log.check_retained(pct);
        pred.gshare.begin_reconstruction();
        pred.btb.begin_reconstruction();

        let n = log.branch_len();
        let budget = pct.of(n);

        // The seal is usable only over exactly this log's records, for
        // this exact predictor geometry, scan budget, and start GHR: every
        // PHT key hashes the running GHR, and the columns cover only the
        // budget window, with the flush last-writer bits placed relative to
        // it (see `BR_F_PHT_FLUSH_LW`).
        let geom = pred_geometry(pred);
        let index = match index.filter(|ix| {
            ix.br_sealed == Some(n)
                && ix.geom.ghr_bits == geom.ghr_bits
                && ix.geom.btb_entries == geom.btb_entries
                && ix.br_pct == Some(pct)
                && ix.ghr_start == ghr_at_start
        }) {
            Some(ix) => Cow::Borrowed(ix),
            None => {
                let mut ix = ReconIndex::new(geom);
                log.build_branch_index_into(&geom, ghr_at_start, pct, &mut ix);
                Cow::Owned(ix)
            }
        };
        // "The global history register must first be reconstructed using
        // the last n branches of the skip-region trace."
        pred.gshare.set_ghr(index.ghr_final);

        // RAS reconstruction (Figure 4), newest-first within the budget.
        let ras_ops = (0..n).rev().take(budget).filter_map(|i| match log.branch_kind_taken(i).0 {
            CtrlKind::Call | CtrlKind::IndirectCall => Some(RasOp::Push(log.branch_pc(i) + 4)),
            CtrlKind::Return => Some(RasOp::Pop),
            _ => None,
        });
        pred.ras.reconstruct(ras_ops);

        BpReconstructor {
            log,
            index,
            consumed: 0,
            budget,
            // One zeroed byte per PHT entry (a fresh `vec!` of zeros is a
            // calloc — the kernel hands back zero pages, no memset walk).
            pht_live: vec![0u8; pred.gshare.num_entries()],
            touched: Vec::new(),
            hot_pos: 0,
            exhausted: false,
            stats: ReconStats::default(),
            timing: ReconTiming::default(),
        }
    }

    /// Reconstruction counters so far.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Wall time spent in demand scans so far (PHT/BTB buckets).
    pub fn timing(&self) -> ReconTiming {
        self.timing
    }

    /// Consumes the entire remaining budget immediately — the *eager*
    /// variant of branch-predictor reconstruction, for ablations against
    /// the paper's on-demand design. After this, no cluster branch will
    /// trigger further scanning.
    pub fn exhaust(&mut self, pred: &mut Predictor) {
        while self.step_scan(pred) {}
    }

    /// Consumes one (next-older) record; returns `false` once the budget is
    /// spent (flushing best guesses for all in-progress inferences).
    fn step_scan(&mut self, pred: &mut Predictor) -> bool {
        if self.consumed >= self.budget {
            if !self.exhausted {
                self.exhausted = true;
                self.flush_inferences(pred);
            }
            return false;
        }
        let i = self.log.branch_len() - 1 - self.consumed;
        self.consumed += 1;
        self.stats.branch_scanned += 1;
        self.step_indexed(pred, i);
        true
    }

    /// One scan step over the sealed flag/state/key columns: three flat
    /// array reads in the common case — no meta decode, no hash map, no
    /// per-feed composition (the sealed `pht_state` already holds it), and
    /// the BTB probed only at last-writer records (every other taken
    /// record is a proven no-op; see `BR_F_BTB_LW`).
    fn step_indexed(&mut self, pred: &mut Predictor, i: usize) {
        let ix = &*self.index;
        let j = i - ix.br_base;
        let flags = ix.br_flags[j];
        if flags & (BR_F_COND | BR_F_PHT_DEAD) == BR_F_COND {
            let idx = ix.pht_key[j] as usize;
            if !pred.gshare.is_reconstructed(idx) {
                let s = ix.pht_state[j];
                if s == (s & 3).wrapping_mul(0x55) {
                    // All four map entries agree: the history suffix pins
                    // the counter exactly, now — the same feed at which the
                    // incremental inference would have resolved.
                    pred.gshare.set_counter(idx, Counter2::new(s & 3));
                    pred.gshare.mark_reconstructed(idx);
                    self.pht_live[idx] = 0;
                    self.stats.pht_exact += 1;
                } else {
                    if self.pht_live[idx] == 0 {
                        self.touched.push(idx as u32);
                    }
                    self.pht_live[idx] = s ^ PACKED_IDENTITY;
                }
            }
        }
        if flags & BR_F_BTB_LW != 0
            && pred.btb.reconstruct(self.log.branch_pc(i), self.log.branch_target(i))
        {
            self.stats.btb_reconstructed += 1;
        }
    }

    /// Budget exhausted: every in-progress inference flushes its best
    /// guess. Deliberately bug-compatible with the original drain: keys
    /// the cluster marked *after* their last feed are overwritten anyway
    /// (the flushed guess wins over the committed counter), because the
    /// committed baselines pin that behavior.
    fn flush_inferences(&mut self, pred: &mut Predictor) {
        // `resolve()` over a range is a pure function of the packed state
        // byte — a one-time 256-entry table turns the per-key
        // unpack/compose/resolve chain into a single L1 load on this hot
        // flush path (one lookup per guessed entry, ~40 % of all logged
        // conditionals). Encoding: 0 = stale, else counter+1.
        static RESOLVE_LUT: std::sync::LazyLock<[u8; 256]> = std::sync::LazyLock::new(|| {
            std::array::from_fn(|raw| match StateMap::from_packed(raw as u8).range().resolve() {
                Some(c) => c.value() + 1,
                None => 0,
            })
        });
        let lut = &*RESOLVE_LUT;
        let touched = std::mem::take(&mut self.touched);
        for &k in &touched {
            let raw = self.pht_live[k as usize];
            if raw == 0 {
                continue; // resolved exactly mid-scan
            }
            match lut[(raw ^ PACKED_IDENTITY) as usize] {
                0 => self.stats.pht_stale += 1,
                c => {
                    pred.gshare.set_counter(k as usize, Counter2::new(c - 1));
                    self.stats.pht_guessed += 1;
                }
            }
            pred.gshare.mark_reconstructed(k as usize);
        }
    }

    /// Runs the demand scan by hopping the sealed hot worklist
    /// ([`ReconIndex::br_hot`]): the seal proved every unlisted record in
    /// the window is a no-op at scan time (dead conditionals find their
    /// key already marked; unresolved feeds other than the per-key flush
    /// last-writer are overwritten before the flush can read them), so
    /// the runs between flagged records are consumed arithmetically — the
    /// per-record loop, its flag loads, and its data-dependent skip
    /// branch all disappear. `done` is re-evaluated only at mark events
    /// (the only operations that can flip it). Bit-identical to stepping:
    /// records are consumed whole (a record that satisfies `done` with
    /// its PHT effect still applies its BTB effect before the scan
    /// stops, exactly as the per-record loop did), and the jump
    /// accounting sums to the same consumed/scanned totals.
    /// Returns whether `done` held before the budget ran out.
    fn scan_indexed(&mut self, pred: &mut Predictor, done: &impl Fn(&Predictor) -> bool) -> bool {
        let ix = &*self.index;
        let len = self.log.branch_len();
        let keys = ix.pht_key.as_slice();
        let states = ix.pht_state.as_slice();
        let mut finished = false;
        while self.consumed < self.budget {
            let Some(&hot) = ix.br_hot.get(self.hot_pos) else {
                // No flagged record left in the window: the rest of the
                // budget is proven no-ops, consumed wholesale.
                self.stats.branch_scanned += (self.budget - self.consumed) as u64;
                self.consumed = self.budget;
                break;
            };
            let i = hot as usize;
            // `br_hot` holds only in-window records, descending, and the
            // cursor advances in lockstep with consumption — so the next
            // flagged record always lies between the scan head and the
            // budget end.
            let cur = len - 1 - self.consumed;
            debug_assert!(i <= cur);
            let newly = cur - i + 1;
            debug_assert!(self.consumed + newly <= self.budget);
            self.consumed += newly;
            self.stats.branch_scanned += newly as u64;
            self.hot_pos += 1;
            let j = i - ix.br_base;
            let f = ix.br_flags[j];
            let mut marked = false;
            if f & BR_F_PHT_RESOLVE != 0 {
                let idx = keys[j] as usize;
                pred.gshare.set_counter(idx, Counter2::new(states[j] & 3));
                pred.gshare.mark_reconstructed(idx);
                self.pht_live[idx] = 0;
                self.stats.pht_exact += 1;
                marked = true;
            } else if f & BR_F_PHT_FLUSH_LW != 0 {
                let idx = keys[j] as usize;
                if self.pht_live[idx] == 0 {
                    self.touched.push(idx as u32);
                }
                self.pht_live[idx] = states[j] ^ PACKED_IDENTITY;
            }
            if f & BR_F_BTB_LW != 0
                && pred.btb.reconstruct(self.log.branch_pc(i), self.log.branch_target(i))
            {
                self.stats.btb_reconstructed += 1;
                marked = true;
            }
            if marked && done(pred) {
                finished = true;
                break;
            }
        }
        finished
    }

    /// Scans until `done(pred)` holds or the budget is exhausted, then
    /// marks the demanded entity reconstructed via `mark`. The scan's wall
    /// time lands in the `structure` timing bucket; the already-satisfied
    /// fast path (the common case inside a hot cluster) pays no clock
    /// read.
    fn demand(
        &mut self,
        pred: &mut Predictor,
        structure: DemandedStructure,
        done: impl Fn(&Predictor) -> bool,
        mark: impl FnOnce(&mut Predictor),
    ) {
        if done(pred) {
            return;
        }
        self.stats.demand_scans += 1;
        let t = Instant::now();
        let finished = self.scan_indexed(pred, &done);
        if !finished && !self.exhausted {
            self.exhausted = true;
            self.flush_inferences(pred);
        }
        if !finished {
            // Budget exhausted without evidence: the entry keeps its
            // stale content, marked so it is never demanded again.
            mark(pred);
        }
        let ns = t.elapsed().as_nanos() as u64;
        match structure {
            DemandedStructure::Pht => self.timing.pht_ns += ns,
            DemandedStructure::Btb => self.timing.btb_ns += ns,
        }
    }
}

/// Which structure a demand scan was triggered by (timing attribution).
#[derive(Copy, Clone)]
enum DemandedStructure {
    Pht,
    Btb,
}

impl PredictHook for BpReconstructor<'_> {
    #[inline]
    fn before_predict(&mut self, pred: &mut Predictor, pc: Addr, kind: PredCtrlKind) {
        if kind == PredCtrlKind::CondBranch {
            let idx = pred.gshare.index(pc);
            let mut stale = false;
            self.demand(
                pred,
                DemandedStructure::Pht,
                |p| p.gshare.is_reconstructed(idx),
                |p| {
                    p.gshare.mark_reconstructed(idx);
                    stale = true;
                },
            );
            if stale {
                self.stats.pht_stale += 1;
            }
        }
        // Every kind except a pure return consults the BTB.
        if kind != PredCtrlKind::Return {
            self.demand(
                pred,
                DemandedStructure::Btb,
                |p| p.btb.is_reconstructed(pc),
                |p| p.btb.mark_reconstructed(pc),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_branch::{Counter2, PredictorConfig};
    use rsr_cache::HierarchyConfig;
    use rsr_func::Retired;
    use rsr_isa::{Addr as IsaAddr, Inst, Op};

    fn mem_retired(seq: u64, pc: IsaAddr, addr: IsaAddr, store: bool) -> Retired {
        Retired {
            seq,
            pc,
            next_pc: pc + 4,
            inst: Inst::new(if store { Op::Sd } else { Op::Ld }, 1, 2, 1, 0),
            mem: Some(rsr_func::MemAccess { addr, width: rsr_isa::MemWidth::B8, is_store: store }),
            branch: None,
        }
    }

    fn branch_retired(seq: u64, pc: IsaAddr, taken: bool, target: IsaAddr) -> Retired {
        Retired {
            seq,
            pc,
            next_pc: if taken { target } else { pc + 4 },
            inst: Inst::new(Op::Bne, 0, 1, 2, (target as i64 - pc as i64) as i32),
            mem: None,
            branch: Some(rsr_func::BranchRec { kind: CtrlKind::CondBranch, taken, target }),
        }
    }

    #[test]
    fn cache_reconstruction_reaches_all_levels() {
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        for k in 0..200u64 {
            log.record(&mem_retired(k, 0x1_0000 + (k % 4) * 4, 0x40_0000 + k * 64, false));
        }
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
        assert!(stats.cache_inserted > 0);
        // The touched lines must now be present in L1D and L2.
        assert!(hier.l1d.probe(0x40_0000 + 199 * 64));
        assert!(hier.l2.probe(0x40_0000 + 199 * 64));
        // And the instruction line in the L1I.
        assert!(hier.l1i.probe(0x1_0000));
    }

    #[test]
    fn cache_budget_limits_scan() {
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        for k in 0..1000u64 {
            log.record(&mem_retired(k, 0x1_0000, 0x40_0000 + k * 64, false));
        }
        let n_mem = log.mem_len();
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(20), 1);
        assert!(stats.mem_scanned <= Pct::new(20).of(n_mem) as u64);
        // Newest references are reconstructed, oldest are not.
        assert!(hier.l1d.probe(0x40_0000 + 999 * 64));
        assert!(!hier.l1d.probe(0x40_0000));
    }

    #[test]
    fn writes_allocate_during_reconstruction() {
        // WTNA would not allocate a write during normal simulation, but the
        // paper allocates logged writes during reconstruction.
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        log.record(&mem_retired(0, 0x1_0000, 0x7000, true));
        reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
        assert!(hier.l1d.probe(0x7000));
    }

    fn pred() -> Predictor {
        Predictor::new(PredictorConfig { ghr_bits: 8, btb_entries: 64, ras_entries: 4 })
    }

    #[test]
    fn ghr_reconstructed_from_log_tail() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0b1010);
        // Three conditional branches: T, NT, T.
        for (k, taken) in [(0u64, true), (1, false), (2, true)] {
            log.record(&branch_retired(k, 0x1000 + k * 4, taken, 0x2000));
        }
        let _r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        // ghr_at_start=0b1010, then shifted T,NT,T -> 0b1010101 & mask.
        assert_eq!(p.gshare.ghr(), 0b101_0101 & p.gshare.ghr_mask());
    }

    #[test]
    fn demand_scan_pins_counter_from_history() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        let pc = 0x1000;
        // Same branch taken repeatedly with a constant GHR? The GHR shifts,
        // so replicate a steady pattern: all taken saturates the GHR at
        // all-ones, making the last indices identical.
        for k in 0..40u64 {
            log.record(&branch_retired(k, pc, true, 0x2000));
        }
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        // The cluster's first probe of this branch (GHR = all ones).
        r.before_predict(&mut p, pc, PredCtrlKind::CondBranch);
        let idx = p.gshare.index(pc);
        assert!(p.gshare.is_reconstructed(idx));
        assert_eq!(p.gshare.counter_at(idx), Counter2::STRONG_T);
        // And the BTB learned the target on the same scan.
        r.before_predict(&mut p, pc, PredCtrlKind::CondBranch);
        assert_eq!(p.btb.peek(pc), Some(0x2000));
        assert!(r.stats().pht_exact >= 1);
    }

    #[test]
    fn no_history_leaves_counter_stale() {
        let mut p = pred();
        // Pre-set a counter to a known stale value via direct update.
        let stale_pc = 0x5550;
        let idx = p.gshare.index_with(stale_pc, 0);
        p.gshare.set_counter(idx, Counter2::STRONG_T);

        let log = SkipLog::new(false, true, 0); // empty log
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        p.gshare.set_ghr(0);
        r.before_predict(&mut p, stale_pc, PredCtrlKind::CondBranch);
        // Stale value preserved, entry marked so it is not demanded again.
        assert_eq!(p.gshare.counter_at(idx), Counter2::STRONG_T);
        assert!(p.gshare.is_reconstructed(idx));
        assert!(r.stats().pht_stale >= 1);
    }

    #[test]
    fn shared_cursor_never_rescans() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        for k in 0..100u64 {
            log.record(&branch_retired(k, 0x1000 + (k % 10) * 4, k % 2 == 0, 0x2000));
        }
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        r.before_predict(&mut p, 0x1000, PredCtrlKind::CondBranch);
        let scanned_once = r.stats().branch_scanned;
        r.before_predict(&mut p, 0x1000, PredCtrlKind::CondBranch);
        // Second demand for an already-reconstructed entry consumes nothing.
        assert_eq!(r.stats().branch_scanned, scanned_once);
    }

    /// A log of `n` loads and stores striding by `stride` bytes, each
    /// followed by a conditional branch at one of `pcs` PCs.
    fn mixed_log(n: u64, stride: u64, pcs: u64) -> SkipLog {
        let mut log = SkipLog::new(true, true, 0);
        for k in 0..n {
            let pc = 0x1_0000 + (k % 16) * 4;
            log.record(&mem_retired(2 * k, pc, 0x40_0000 + k * stride, k % 3 == 0));
            log.record(&branch_retired(2 * k + 1, 0x2_0000 + (k % pcs) * 4, k % 3 != 0, pc));
        }
        log
    }

    #[test]
    fn stale_indexes_are_resealed_on_the_spot() {
        // An index sealed over another log, as given and after a retarget
        // that re-keys it without rebuilding: its spans, cut and PHT keys
        // still describe that log, so both reconstructions must ignore it
        // and seal on the spot.
        let machine = crate::MachineConfig::paper();
        let geom = ReconGeometry::of_machine(&machine);
        let pct = Pct::new(50);
        let old = mixed_log(3000, 64, 37);
        let mut sealed = ReconIndex::new(geom);
        old.build_mem_index_into(&geom, pct, &mut sealed);
        old.build_branch_index_into(&geom, 0, pct, &mut sealed);
        let mut retargeted = sealed.clone();
        retargeted.retarget(geom);
        let log = mixed_log(4000, 192, 53);

        let caches = |index: Option<&ReconIndex>| {
            let mut hier = MemHierarchy::new(machine.hier.clone());
            let (stats, _) = reconstruct_caches_partitioned_with(&mut hier, &log, index, pct);
            let sets: Vec<_> = [&hier.l1i, &hier.l1d, &hier.l2]
                .iter()
                .flat_map(|c| (0..c.num_sets()).map(|set| c.dump_set(set)))
                .collect();
            (stats, sets)
        };
        let branches = |index: Option<&ReconIndex>| {
            let mut p = Predictor::new(machine.pred);
            let mut bp = BpReconstructor::with_index(&mut p, &log, index, 0, pct);
            bp.exhaust(&mut p);
            (bp.stats(), format!("{p:?}"))
        };
        let (cache, bp) = (caches(None), branches(None));
        for (stale, what) in [(&sealed, "sealed for another log"), (&retargeted, "retargeted")] {
            assert_eq!(caches(Some(stale)), cache, "{what}");
            assert_eq!(branches(Some(stale)), bp, "{what}");
        }
    }

    #[test]
    fn ras_reconstructed_from_calls() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        // Two calls deep at the end of the skip region.
        for (k, pc) in [(0u64, 0x1000u64), (1, 0x1100)] {
            log.record(&Retired {
                seq: k,
                pc,
                next_pc: 0x3000,
                inst: Inst::new(Op::Jal, 1, 0, 0, 0),
                mem: None,
                branch: Some(rsr_func::BranchRec {
                    kind: CtrlKind::Call,
                    taken: true,
                    target: 0x3000,
                }),
            });
        }
        let _r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        assert_eq!(p.ras.pop(), 0x1100 + 4);
        assert_eq!(p.ras.pop(), 0x1000 + 4);
    }
}
