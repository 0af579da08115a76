//! The gshare conditional-branch predictor.

use crate::{Addr, Counter2};

/// Running prediction statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GshareStats {
    /// Direction predictions made.
    pub predictions: u64,
    /// Correct direction predictions.
    pub correct: u64,
    /// Counter updates applied.
    pub updates: u64,
}

/// Every 2-bit counter initialized weakly not-taken (value 1), 32 to a
/// word.
const WEAK_NT_WORD: u64 = 0x5555_5555_5555_5555;

/// A gshare predictor: the PHT is indexed by `pc ⊕ GHR`.
///
/// The paper uses a 64 K-entry gshare, i.e. a 16-bit global history register
/// over a 65 536-entry pattern history table.
///
/// The PHT is stored as packed 2-bit counter words (32 counters per `u64`)
/// and the per-entry *reconstructed* bits as a bitset, so the fused
/// index/predict/update path of the detailed window touches one word per
/// probe and [`Gshare::begin_reconstruction`] clears an eighth of the bytes
/// the previous `Vec<bool>` did. The unpacked layout survives as an
/// equivalence oracle in the integration tests (`rsr_integration::oracle`).
///
/// Reconstruction support mirrors the cache: each entry carries a
/// *reconstructed* bit cleared by [`Gshare::begin_reconstruction`]; the RSR
/// warm-up consults and sets these while inferring counters on demand.
#[derive(Clone, Debug)]
pub struct Gshare {
    hist_bits: u32,
    ghr: u64,
    /// Counter `i` lives at bits `2*(i & 31)` of `pht[i >> 5]`.
    pht: Vec<u64>,
    /// Reconstructed bit `i` lives at bit `i & 63` of `recon[i >> 6]`.
    recon: Vec<u64>,
    stats: GshareStats,
}

impl Gshare {
    /// The paper's size: 64 K entries (16 history bits).
    pub const PAPER_HIST_BITS: u32 = 16;

    /// Builds a gshare with `hist_bits` of global history
    /// (`2^hist_bits` PHT entries), all counters weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `hist_bits` is 0 or greater than 26.
    pub fn new(hist_bits: u32) -> Gshare {
        assert!((1..=26).contains(&hist_bits), "unreasonable gshare size");
        let n = 1usize << hist_bits;
        Gshare {
            hist_bits,
            ghr: 0,
            pht: vec![WEAK_NT_WORD; n.div_ceil(32)],
            recon: vec![0; n.div_ceil(64)],
            stats: GshareStats::default(),
        }
    }

    /// Number of PHT entries.
    pub fn num_entries(&self) -> usize {
        1usize << self.hist_bits
    }

    /// Width of the global history register in bits.
    pub fn hist_bits(&self) -> u32 {
        self.hist_bits
    }

    /// Current global history register (newest outcome in bit 0).
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Overwrites the global history register (used by warm-up to
    /// reconstruct it from the last `hist_bits` logged branches).
    pub fn set_ghr(&mut self, ghr: u64) {
        self.ghr = ghr & self.ghr_mask();
    }

    /// Mask of valid GHR bits.
    pub fn ghr_mask(&self) -> u64 {
        (1u64 << self.hist_bits) - 1
    }

    /// Running statistics.
    pub fn stats(&self) -> GshareStats {
        self.stats
    }

    /// Resets statistics (state untouched).
    pub fn reset_stats(&mut self) {
        self.stats = GshareStats::default();
    }

    /// PHT index for `pc` under history `ghr`.
    #[inline]
    pub fn index_with(&self, pc: Addr, ghr: u64) -> usize {
        (((pc >> 2) ^ ghr) & self.ghr_mask()) as usize
    }

    /// PHT index for `pc` under the *current* history.
    #[inline]
    pub fn index(&self, pc: Addr) -> usize {
        self.index_with(pc, self.ghr)
    }

    /// Raw 2-bit counter value at `index`.
    #[inline]
    fn bits_at(&self, index: usize) -> u8 {
        (self.pht[index >> 5] >> ((index & 31) << 1) & 3) as u8
    }

    #[inline]
    fn set_bits_at(&mut self, index: usize, v: u8) {
        let sh = (index & 31) << 1;
        let word = &mut self.pht[index >> 5];
        *word = (*word & !(3u64 << sh)) | (u64::from(v) << sh);
    }

    /// Predicts the direction for `pc` under the current history and counts
    /// a prediction. Does not change any state.
    pub fn predict(&mut self, pc: Addr) -> bool {
        self.predict_indexed(pc).1
    }

    /// The fused fetch-path probe: one index computation, one packed-word
    /// load, returning the PHT index (for the commit-time update) together
    /// with the predicted direction.
    #[inline]
    pub fn predict_indexed(&mut self, pc: Addr) -> (usize, bool) {
        self.stats.predictions += 1;
        let idx = self.index(pc);
        (idx, self.bits_at(idx) >= 2)
    }

    /// Speculatively shifts `taken` into the history register (fetch-time
    /// update; mispredict recovery restores a checkpoint via
    /// [`Gshare::set_ghr`]).
    #[inline]
    pub fn speculate_ghr(&mut self, taken: bool) {
        self.ghr = ((self.ghr << 1) | taken as u64) & self.ghr_mask();
    }

    /// Updates the counter at an explicit index (commit-time update using
    /// the fetch-time index) and records accuracy.
    #[inline]
    pub fn update_at(&mut self, index: usize, taken: bool) {
        let c = self.bits_at(index);
        if (c >= 2) == taken {
            self.stats.correct += 1;
        }
        let next = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
        self.set_bits_at(index, next);
        self.stats.updates += 1;
    }

    /// In-order functional update (the SMARTS warming path): updates the
    /// counter under the current history, then shifts the history.
    pub fn warm_update(&mut self, pc: Addr, taken: bool) {
        let idx = self.index(pc);
        let c = self.bits_at(idx);
        let next = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
        self.set_bits_at(idx, next);
        self.speculate_ghr(taken);
        self.stats.updates += 1;
    }

    /// Raw counter at `index`.
    pub fn counter_at(&self, index: usize) -> Counter2 {
        Counter2::new(self.bits_at(index))
    }

    /// Overwrites the counter at `index` (reconstruction).
    pub fn set_counter(&mut self, index: usize, value: Counter2) {
        self.set_bits_at(index, value.value());
    }

    // ---- reconstruction bits -------------------------------------------

    /// Clears all reconstructed bits (start of a skip region's on-demand
    /// reconstruction).
    pub fn begin_reconstruction(&mut self) {
        self.recon.fill(0);
    }

    /// Whether `index` has been reconstructed this region.
    #[inline]
    pub fn is_reconstructed(&self, index: usize) -> bool {
        self.recon[index >> 6] & (1u64 << (index & 63)) != 0
    }

    /// Marks `index` reconstructed.
    #[inline]
    pub fn mark_reconstructed(&mut self, index: usize) {
        self.recon[index >> 6] |= 1u64 << (index & 63);
    }

    /// Prediction accuracy so far (1.0 when idle).
    pub fn accuracy(&self) -> f64 {
        if self.stats.updates == 0 {
            1.0
        } else {
            self.stats.correct as f64 / self.stats.updates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_learns() {
        let mut g = Gshare::new(10);
        let pc = 0x1000;
        // Train past the GHR fill: once the history register saturates at
        // all-ones, the same PHT entry is trained repeatedly.
        for _ in 0..16 {
            let idx = g.index(pc);
            g.update_at(idx, true);
            g.speculate_ghr(true);
        }
        assert!(g.predict(pc));
    }

    #[test]
    fn ghr_is_masked() {
        let mut g = Gshare::new(4);
        for _ in 0..64 {
            g.speculate_ghr(true);
        }
        assert_eq!(g.ghr(), 0b1111);
        g.set_ghr(u64::MAX);
        assert_eq!(g.ghr(), 0b1111);
    }

    #[test]
    fn index_mixes_pc_and_history() {
        let g = Gshare::new(8);
        let i1 = g.index_with(0x1000, 0);
        let i2 = g.index_with(0x1000, 0xff);
        assert_ne!(i1, i2);
        // Same pc+history -> same index.
        assert_eq!(g.index_with(0x1000, 0xab), g.index_with(0x1000, 0xab));
    }

    #[test]
    fn warm_update_moves_counter_and_history() {
        let mut g = Gshare::new(8);
        let pc = 0x2000;
        let idx0 = g.index(pc);
        g.warm_update(pc, true);
        assert_eq!(g.counter_at(idx0), Counter2::WEAK_T);
        assert_eq!(g.ghr() & 1, 1);
    }

    #[test]
    fn reconstruction_bits_lifecycle() {
        let mut g = Gshare::new(6);
        assert!(!g.is_reconstructed(5));
        g.mark_reconstructed(5);
        assert!(g.is_reconstructed(5));
        g.begin_reconstruction();
        assert!(!g.is_reconstructed(5));
    }

    #[test]
    fn accuracy_tracking() {
        let mut g = Gshare::new(6);
        g.update_at(0, false); // WEAK_NT predicts NT: correct
        g.update_at(0, true); // STRONG_NT predicts NT: wrong
        assert_eq!(g.stats().updates, 2);
        assert_eq!(g.stats().correct, 1);
        assert_eq!(g.accuracy(), 0.5);
    }

    #[test]
    fn packed_counters_are_independent() {
        // Neighbors within one packed word must not bleed into each other.
        let mut g = Gshare::new(8);
        for i in 0..64 {
            g.set_counter(i, Counter2::new((i % 4) as u8));
        }
        for i in 0..64 {
            assert_eq!(g.counter_at(i).value(), (i % 4) as u8, "entry {i}");
        }
        // Saturation at both ends, in place.
        g.set_counter(7, Counter2::STRONG_T);
        g.update_at(7, true);
        assert_eq!(g.counter_at(7), Counter2::STRONG_T);
        g.set_counter(8, Counter2::STRONG_NT);
        g.update_at(8, false);
        assert_eq!(g.counter_at(8), Counter2::STRONG_NT);
        assert_eq!(g.counter_at(6).value(), 2); // neighbors untouched
        assert_eq!(g.counter_at(9).value(), 1);
    }

    #[test]
    fn fused_probe_matches_split_calls() {
        let mut g = Gshare::new(10);
        g.warm_update(0x4000, true);
        g.warm_update(0x4000, true);
        let (idx, taken) = g.predict_indexed(0x4000);
        assert_eq!(idx, g.index(0x4000));
        assert_eq!(taken, g.counter_at(idx).predict_taken());
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn zero_history_rejected() {
        let _ = Gshare::new(0);
    }
}
