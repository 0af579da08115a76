//! Reference reverse reconstruction (paper §3.1/§3.2): the sequential
//! full reverse scan over the logged references, and the demand-driven
//! branch-predictor reconstructor with incremental per-entry counter
//! inference. The library's sealed-index paths must reproduce both bit
//! for bit: same counters, same cache contents, same predictor state.
//!
//! Both read plain records, so they can run from a [`SkipLog`] or from
//! any other layout that holds the same references and transfers.

use std::collections::HashMap;

use rsr_branch::{CounterInference, PredCtrlKind, Predictor, RasOp};
use rsr_cache::{MemHierarchy, ReconOutcome};
use rsr_core::{BranchRecord, Pct, ReconStats, SkipLog};
use rsr_isa::{Addr, CtrlKind};
use rsr_timing::PredictHook;

/// Reverse cache reconstruction over the last `pct` of the logged
/// reference stream, one record at a time, newest first. Instruction
/// records repair the L1I, data records the L1D, and both repair the
/// unified L2; the scan stops early once every set of every level is
/// reconstructed.
pub fn reconstruct_caches(hier: &mut MemHierarchy, log: &SkipLog, pct: Pct) -> ReconStats {
    reconstruct_refs(hier, log.mem_refs_rev().take(pct.of(log.mem_len())))
}

/// [`reconstruct_caches`] over `refs`, the in-budget references as
/// `(addr, is_inst)`, newest first.
pub fn reconstruct_refs(
    hier: &mut MemHierarchy,
    refs: impl Iterator<Item = (Addr, bool)>,
) -> ReconStats {
    let mut stats = ReconStats::default();
    hier.begin_reconstruction();
    // Completion flags per level: once a level is fully reconstructed,
    // further probes of it are pure no-ops (`SetComplete`), so they are
    // counted as ignored without touching the cache at all.
    let mut l1i_done = hier.l1i.fully_reconstructed();
    let mut l1d_done = hier.l1d.fully_reconstructed();
    let mut l2_done = hier.l2.fully_reconstructed();
    for (addr, is_inst) in refs {
        if l1i_done && l1d_done && l2_done {
            break;
        }
        stats.mem_scanned += 1;
        let (l1, l1_done) =
            if is_inst { (&mut hier.l1i, &mut l1i_done) } else { (&mut hier.l1d, &mut l1d_done) };
        // Per the paper, WTNA caches allocate logged writes exactly like
        // reads ("the block is allocated even if the access is a write").
        for (cache, done) in [(l1, l1_done), (&mut hier.l2, &mut l2_done)] {
            if *done {
                stats.cache_ignored += 1;
                continue;
            }
            match cache.reconstruct_ref(addr) {
                ReconOutcome::Inserted => stats.cache_inserted += 1,
                ReconOutcome::MarkedPresent => stats.cache_marked += 1,
                ReconOutcome::Redundant | ReconOutcome::SetComplete => stats.cache_ignored += 1,
            }
            *done = cache.fully_reconstructed();
        }
    }
    hier.finish_reconstruction();
    stats
}

/// Demand-driven branch-predictor reconstruction without an index.
///
/// Construction replays the region's GHR forward (keeping the GHR each
/// record saw), rebuilds the RAS by the reverse push/pop-counter walk
/// (Figure 4), and clears all reconstructed bits. Each probe then consumes
/// the reverse branch log one record at a time, feeding a per-entry
/// [`CounterInference`] keyed in a hash map, until the probed PHT/BTB
/// entry is reconstructed or the budget runs out.
#[derive(Debug)]
pub struct RefBpReconstructor {
    /// The region's transfers, oldest first.
    records: Vec<BranchRecord>,
    /// GHR value seen by record *i* (used for its PHT index).
    ghr_before: Vec<u64>,
    /// Reverse records consumed so far.
    consumed: usize,
    /// Maximum reverse records the scan may consume.
    budget: usize,
    /// In-progress counter inferences keyed by PHT index.
    inferences: HashMap<usize, CounterInference>,
    exhausted: bool,
    stats: ReconStats,
}

impl RefBpReconstructor {
    /// Prepares reconstruction for one skip region: clears reconstructed
    /// bits, rebuilds the GHR and the RAS.
    pub fn new(pred: &mut Predictor, log: &SkipLog, pct: Pct) -> RefBpReconstructor {
        RefBpReconstructor::from_records(
            pred,
            log.branch_records().collect(),
            log.ghr_at_start,
            pct,
        )
    }

    /// [`RefBpReconstructor::new`] over `records`, the region's whole
    /// branch stream oldest first, entered with `ghr_at_start`.
    pub fn from_records(
        pred: &mut Predictor,
        records: Vec<BranchRecord>,
        ghr_at_start: u64,
        pct: Pct,
    ) -> RefBpReconstructor {
        pred.gshare.begin_reconstruction();
        pred.btb.begin_reconstruction();

        let n = records.len();
        let budget = pct.of(n);
        let mut ghr_before = Vec::with_capacity(n);
        let mut ghr = ghr_at_start;
        let mask = pred.gshare.ghr_mask();
        for b in &records {
            ghr_before.push(ghr);
            if b.kind == CtrlKind::CondBranch {
                ghr = ((ghr << 1) | b.taken as u64) & mask;
            }
        }
        pred.gshare.set_ghr(ghr);

        let ras_ops = records.iter().rev().take(budget).filter_map(|b| match b.kind {
            CtrlKind::Call | CtrlKind::IndirectCall => Some(RasOp::Push(b.pc + 4)),
            CtrlKind::Return => Some(RasOp::Pop),
            _ => None,
        });
        pred.ras.reconstruct(ras_ops);

        RefBpReconstructor {
            records,
            ghr_before,
            consumed: 0,
            budget,
            inferences: HashMap::new(),
            exhausted: false,
            stats: ReconStats::default(),
        }
    }

    /// Reconstruction counters so far.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Consumes the entire remaining budget immediately.
    pub fn exhaust(&mut self, pred: &mut Predictor) {
        while self.step(pred) {}
    }

    /// Consumes one (next-older) record; returns `false` once the budget is
    /// spent (flushing best guesses for all in-progress inferences).
    fn step(&mut self, pred: &mut Predictor) -> bool {
        if self.consumed >= self.budget {
            if !self.exhausted {
                self.exhausted = true;
                self.flush(pred);
            }
            return false;
        }
        let i = self.records.len() - 1 - self.consumed;
        self.consumed += 1;
        self.stats.branch_scanned += 1;
        let b = self.records[i];
        if b.kind == CtrlKind::CondBranch {
            let idx = pred.gshare.index_with(b.pc, self.ghr_before[i]);
            if !pred.gshare.is_reconstructed(idx) {
                let inf = self.inferences.entry(idx).or_default();
                inf.prepend(b.taken);
                if let Some(c) = inf.resolved() {
                    pred.gshare.set_counter(idx, c);
                    pred.gshare.mark_reconstructed(idx);
                    self.inferences.remove(&idx);
                    self.stats.pht_exact += 1;
                }
            }
        }
        if b.taken && pred.btb.reconstruct(b.pc, b.target) {
            self.stats.btb_reconstructed += 1;
        }
        true
    }

    /// Budget exhausted: every in-progress inference flushes its best
    /// guess, overwriting the counter even if the cluster committed to the
    /// entry after its last feed.
    fn flush(&mut self, pred: &mut Predictor) {
        for (idx, inf) in self.inferences.drain() {
            match inf.best_guess() {
                Some(c) => {
                    pred.gshare.set_counter(idx, c);
                    self.stats.pht_guessed += 1;
                }
                None => self.stats.pht_stale += 1,
            }
            pred.gshare.mark_reconstructed(idx);
        }
    }

    /// Scans until `done(pred)` holds or the budget is exhausted; in the
    /// latter case marks the demanded entry via `mark`.
    fn demand(
        &mut self,
        pred: &mut Predictor,
        done: impl Fn(&Predictor) -> bool,
        mark: impl FnOnce(&mut Predictor),
    ) {
        if done(pred) {
            return;
        }
        self.stats.demand_scans += 1;
        let finished = loop {
            if !self.step(pred) {
                break false;
            }
            if done(pred) {
                break true;
            }
        };
        if !finished {
            mark(pred);
        }
    }
}

impl PredictHook for RefBpReconstructor {
    fn before_predict(&mut self, pred: &mut Predictor, pc: Addr, kind: PredCtrlKind) {
        if kind == PredCtrlKind::CondBranch {
            let idx = pred.gshare.index(pc);
            let mut stale = false;
            self.demand(
                pred,
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
        if kind != PredCtrlKind::Return {
            self.demand(pred, |p| p.btb.is_reconstructed(pc), |p| p.btb.mark_reconstructed(pc));
        }
    }
}
