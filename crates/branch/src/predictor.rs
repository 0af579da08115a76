//! The combined front-end predictor: gshare + BTB + RAS, with checkpoints
//! for speculative execution past unresolved branches.

use crate::{Addr, Btb, Gshare, Ras};

// `CtrlKind` lives in rsr-isa; re-exported here through a thin shim module
// so this crate stays free of the full ISA dependency.
mod rsr_isa_ctrlkind {
    /// The kind of a control-transfer instruction (mirror of
    /// `rsr_isa::CtrlKind` — kept structurally identical; the timing crate
    /// converts between them).
    #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
    pub enum CtrlKind {
        /// Conditional direct branch.
        CondBranch,
        /// Unconditional direct jump.
        Jump,
        /// Direct call (pushes the RAS).
        Call,
        /// Indirect call (pushes the RAS).
        IndirectCall,
        /// Function return (pops the RAS).
        Return,
        /// Other indirect jump.
        IndirectJump,
    }

    impl CtrlKind {
        /// Does this transfer push a return address?
        pub fn pushes_ras(self) -> bool {
            matches!(self, CtrlKind::Call | CtrlKind::IndirectCall)
        }

        /// Does this transfer pop the RAS?
        pub fn pops_ras(self) -> bool {
            matches!(self, CtrlKind::Return)
        }
    }
}

pub use rsr_isa_ctrlkind::CtrlKind as PredCtrlKind;

/// Configuration of the combined predictor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Gshare history bits (`2^bits` PHT entries).
    pub ghr_bits: u32,
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// RAS entries.
    pub ras_entries: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::paper()
    }
}

impl PredictorConfig {
    /// The paper's configuration: 64 K-entry gshare, 4 K-entry BTB,
    /// 8-entry RAS.
    pub fn paper() -> PredictorConfig {
        PredictorConfig {
            ghr_bits: Gshare::PAPER_HIST_BITS,
            btb_entries: Btb::PAPER_ENTRIES,
            ras_entries: Ras::PAPER_ENTRIES,
        }
    }
}

/// A fetch-time prediction, with everything needed to update at commit or
/// recover on a mispredict.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted target, if any source (BTB/RAS) supplied one.
    pub target: Option<Addr>,
    /// PHT index used (conditional branches only).
    pub pht_index: Option<usize>,
    /// Checkpoint of predictor state at prediction time.
    pub checkpoint: Checkpoint,
}

/// Snapshot of the speculative predictor state (GHR + RAS). `Copy` because
/// the RAS stores its slots inline — taking a checkpoint on every prediction
/// allocates nothing.
#[derive(Copy, Clone, Debug)]
pub struct Checkpoint {
    ghr: u64,
    ras: Ras,
}

/// Running statistics for the combined predictor.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Control transfers predicted.
    pub predictions: u64,
    /// Direction or target mispredictions.
    pub mispredictions: u64,
}

/// The combined gshare/BTB/RAS predictor.
#[derive(Clone, Debug)]
pub struct Predictor {
    /// The conditional direction predictor.
    pub gshare: Gshare,
    /// The branch target buffer.
    pub btb: Btb,
    /// The return address stack.
    pub ras: Ras,
    stats: PredictorStats,
}

impl Predictor {
    /// Builds an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics on invalid sizes (see [`Gshare::new`], [`Btb::new`],
    /// [`Ras::new`]).
    pub fn new(cfg: PredictorConfig) -> Predictor {
        Predictor {
            gshare: Gshare::new(cfg.ghr_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries),
            stats: PredictorStats::default(),
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Resets statistics (state untouched).
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
        self.gshare.reset_stats();
        self.btb.reset_stats();
    }

    /// Fetch-time prediction for a control transfer at `pc`. Speculatively
    /// updates the GHR (conditionals) and RAS (calls/returns); the returned
    /// [`Checkpoint`] restores both on a mispredict.
    pub fn predict(&mut self, pc: Addr, kind: PredCtrlKind) -> Prediction {
        self.stats.predictions += 1;
        let checkpoint = Checkpoint { ghr: self.gshare.ghr(), ras: self.ras.checkpoint() };
        match kind {
            PredCtrlKind::CondBranch => {
                let (idx, taken) = self.gshare.predict_indexed(pc);
                let target = if taken { self.btb.lookup(pc) } else { None };
                self.gshare.speculate_ghr(taken);
                Prediction { taken, target, pht_index: Some(idx), checkpoint }
            }
            PredCtrlKind::Jump | PredCtrlKind::Call => {
                if kind.pushes_ras() {
                    self.ras.push(pc + 4);
                }
                let target = self.btb.lookup(pc);
                Prediction { taken: true, target, pht_index: None, checkpoint }
            }
            PredCtrlKind::IndirectCall => {
                self.ras.push(pc + 4);
                let target = self.btb.lookup(pc);
                Prediction { taken: true, target, pht_index: None, checkpoint }
            }
            PredCtrlKind::Return => {
                let target = self.ras.pop();
                Prediction { taken: true, target: Some(target), pht_index: None, checkpoint }
            }
            PredCtrlKind::IndirectJump => {
                let target = self.btb.lookup(pc);
                Prediction { taken: true, target, pht_index: None, checkpoint }
            }
        }
    }

    /// Judges a prediction against the actual outcome. A conditional branch
    /// mispredicts on direction, or on target when taken with a BTB miss or
    /// wrong BTB target; unconditional transfers mispredict on target.
    pub fn is_correct(
        &self,
        pred: &Prediction,
        actual_taken: bool,
        actual_target: Addr,
        kind: PredCtrlKind,
    ) -> bool {
        match kind {
            PredCtrlKind::CondBranch => {
                if pred.taken != actual_taken {
                    return false;
                }
                // Not-taken correctly predicted: fallthrough needs no target.
                !actual_taken || pred.target == Some(actual_target)
            }
            _ => pred.target == Some(actual_target),
        }
    }

    /// Commit-time update with the actual outcome: PHT (via the fetch-time
    /// index), BTB (taken transfers). Counts a misprediction when the
    /// prediction was wrong.
    pub fn commit(
        &mut self,
        pc: Addr,
        kind: PredCtrlKind,
        pred: &Prediction,
        actual_taken: bool,
        actual_target: Addr,
    ) -> bool {
        let correct = self.is_correct(pred, actual_taken, actual_target, kind);
        if !correct {
            self.stats.mispredictions += 1;
        }
        if let Some(idx) = pred.pht_index {
            self.gshare.update_at(idx, actual_taken);
            // The entry now reflects real execution: on-demand
            // reconstruction must never overwrite it with older state.
            self.gshare.mark_reconstructed(idx);
        }
        if actual_taken {
            self.btb.update(pc, actual_target);
            self.btb.mark_reconstructed(pc);
        }
        correct
    }

    /// Restores the speculative state (GHR + RAS) from a checkpoint and, for
    /// a resolved conditional branch, re-inserts the *actual* outcome into
    /// the GHR (the paper's architectural-checkpoint recovery).
    pub fn recover(&mut self, checkpoint: &Checkpoint, actual_taken: Option<bool>) {
        self.gshare.set_ghr(checkpoint.ghr);
        self.ras.restore(&checkpoint.ras);
        if let Some(taken) = actual_taken {
            self.gshare.speculate_ghr(taken);
        }
    }

    /// In-order functional warming (the SMARTS branch-predictor path):
    /// applies one retired control transfer to all structures with no
    /// speculation.
    pub fn warm_update(&mut self, pc: Addr, kind: PredCtrlKind, taken: bool, target: Addr) {
        match kind {
            PredCtrlKind::CondBranch => self.gshare.warm_update(pc, taken),
            _ => {
                if kind.pushes_ras() {
                    self.ras.push(pc + 4);
                } else if kind.pops_ras() {
                    self.ras.pop();
                }
            }
        }
        if taken {
            self.btb.update(pc, target);
        }
    }

    /// Misprediction rate so far (0.0 when idle).
    pub fn mispredict_rate(&self) -> f64 {
        if self.stats.predictions == 0 {
            0.0
        } else {
            self.stats.mispredictions as f64 / self.stats.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Predictor {
        Predictor::new(PredictorConfig { ghr_bits: 10, btb_entries: 64, ras_entries: 4 })
    }

    #[test]
    fn conditional_learns_direction_and_target() {
        let mut pr = p();
        let (pc, target) = (0x1000, 0x2000);
        // Train with mispredict recovery (as the timing core does): the GHR
        // tracks actual outcomes, saturating at all-ones so the same PHT
        // entry is eventually trained repeatedly.
        for _ in 0..16 {
            let pred = pr.predict(pc, PredCtrlKind::CondBranch);
            let correct = pr.commit(pc, PredCtrlKind::CondBranch, &pred, true, target);
            if !correct {
                pr.recover(&pred.checkpoint, Some(true));
            }
        }
        let pred = pr.predict(pc, PredCtrlKind::CondBranch);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(target));
        assert!(pr.is_correct(&pred, true, target, PredCtrlKind::CondBranch));
    }

    #[test]
    fn cold_taken_branch_mispredicts() {
        let mut pr = p();
        let pred = pr.predict(0x1000, PredCtrlKind::CondBranch);
        assert!(!pred.taken); // counters start weakly not-taken
        let correct = pr.commit(0x1000, PredCtrlKind::CondBranch, &pred, true, 0x2000);
        assert!(!correct);
        assert_eq!(pr.stats().mispredictions, 1);
    }

    #[test]
    fn return_uses_ras() {
        let mut pr = p();
        let call_pc = 0x1000;
        let pred = pr.predict(call_pc, PredCtrlKind::Call);
        assert!(pred.taken);
        // Return should pop call_pc + 4.
        let ret = pr.predict(0x3000, PredCtrlKind::Return);
        assert_eq!(ret.target, Some(call_pc + 4));
    }

    #[test]
    fn recover_restores_ghr_and_ras() {
        let mut pr = p();
        pr.ras.push(0xaa);
        let ghr_prev = pr.gshare.ghr();
        let pred = pr.predict(0x1000, PredCtrlKind::CondBranch);
        pr.ras.push(0xbb); // wrong-path push
        pr.recover(&pred.checkpoint, Some(true));
        assert_eq!(pr.ras.pop(), 0xaa);
        assert_eq!(pr.gshare.ghr(), ((ghr_prev << 1) | 1) & pr.gshare.ghr_mask());
    }

    #[test]
    fn indirect_jump_needs_btb() {
        let mut pr = p();
        let pred = pr.predict(0x1000, PredCtrlKind::IndirectJump);
        assert_eq!(pred.target, None);
        assert!(!pr.is_correct(&pred, true, 0x5000, PredCtrlKind::IndirectJump));
        pr.commit(0x1000, PredCtrlKind::IndirectJump, &pred, true, 0x5000);
        let pred2 = pr.predict(0x1000, PredCtrlKind::IndirectJump);
        assert_eq!(pred2.target, Some(0x5000));
    }

    #[test]
    fn warm_update_trains_like_commits() {
        // A loop branch trained by warm updates should predict taken.
        let mut pr = p();
        let pc = 0x1400;
        // Warm past the GHR fill (see always_taken_branch_learns).
        for _ in 0..16 {
            pr.warm_update(pc, PredCtrlKind::CondBranch, true, 0x1000);
        }
        let pred = pr.predict(pc, PredCtrlKind::CondBranch);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(0x1000));
    }

    #[test]
    fn not_taken_correct_needs_no_target() {
        let mut pr = p();
        let pred = pr.predict(0x1000, PredCtrlKind::CondBranch);
        assert!(!pred.taken);
        assert!(pr.is_correct(&pred, false, 0x9999, PredCtrlKind::CondBranch));
    }

    #[test]
    fn mispredict_rate() {
        let mut pr = p();
        let pred = pr.predict(0x1000, PredCtrlKind::CondBranch);
        pr.commit(0x1000, PredCtrlKind::CondBranch, &pred, true, 0x2000);
        assert_eq!(pr.mispredict_rate(), 1.0);
    }
}
