//! Reference predictor structures: the original array-of-structs /
//! `Vec`-backed implementations, retained verbatim as oracles.
//!
//! The live [`rsr_branch::Gshare`] / [`rsr_branch::Btb`] /
//! [`rsr_branch::Ras`] were rebuilt around packed counter words, bitsets,
//! and inline-array checkpoints for the detailed-window hot path. These
//! types preserve the
//! previous, obviously-correct layouts with the identical observable API;
//! `tests/timing_equivalence.rs` drives random access/branch streams
//! through both and compares predictions, counters, and reconstructed
//! state exactly. They are not deprecated — they are the specification.

use rsr_branch::{Addr, Counter2, RasOp};

/// The reference gshare: one [`Counter2`] per PHT entry, one `bool` per
/// reconstructed bit.
#[derive(Clone, Debug)]
pub struct RefGshare {
    hist_bits: u32,
    ghr: u64,
    pht: Vec<Counter2>,
    recon: Vec<bool>,
}

impl RefGshare {
    /// Builds a gshare with `hist_bits` of global history, all counters
    /// weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `hist_bits` is 0 or greater than 26.
    pub fn new(hist_bits: u32) -> RefGshare {
        assert!((1..=26).contains(&hist_bits), "unreasonable gshare size");
        let n = 1usize << hist_bits;
        RefGshare { hist_bits, ghr: 0, pht: vec![Counter2::WEAK_NT; n], recon: vec![false; n] }
    }

    /// Number of PHT entries.
    pub fn num_entries(&self) -> usize {
        self.pht.len()
    }

    /// Current global history register.
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Overwrites the global history register.
    pub fn set_ghr(&mut self, ghr: u64) {
        self.ghr = ghr & self.ghr_mask();
    }

    /// Mask of valid GHR bits.
    pub fn ghr_mask(&self) -> u64 {
        (1u64 << self.hist_bits) - 1
    }

    /// PHT index for `pc` under history `ghr`.
    #[inline]
    pub fn index_with(&self, pc: Addr, ghr: u64) -> usize {
        (((pc >> 2) ^ ghr) & self.ghr_mask()) as usize
    }

    /// PHT index for `pc` under the current history.
    #[inline]
    pub fn index(&self, pc: Addr) -> usize {
        self.index_with(pc, self.ghr)
    }

    /// Predicted direction for `pc` under the current history.
    pub fn predict(&self, pc: Addr) -> bool {
        self.pht[self.index(pc)].predict_taken()
    }

    /// Shifts `taken` into the history register.
    #[inline]
    pub fn speculate_ghr(&mut self, taken: bool) {
        self.ghr = ((self.ghr << 1) | taken as u64) & self.ghr_mask();
    }

    /// Updates the counter at an explicit index.
    pub fn update_at(&mut self, index: usize, taken: bool) {
        self.pht[index] = self.pht[index].update(taken);
    }

    /// In-order functional update: counter under current history, then
    /// history shift.
    pub fn warm_update(&mut self, pc: Addr, taken: bool) {
        let idx = self.index(pc);
        self.pht[idx] = self.pht[idx].update(taken);
        self.speculate_ghr(taken);
    }

    /// Raw counter at `index`.
    pub fn counter_at(&self, index: usize) -> Counter2 {
        self.pht[index]
    }

    /// Overwrites the counter at `index`.
    pub fn set_counter(&mut self, index: usize, value: Counter2) {
        self.pht[index] = value;
    }

    /// Clears all reconstructed bits.
    pub fn begin_reconstruction(&mut self) {
        self.recon.iter_mut().for_each(|b| *b = false);
    }

    /// Whether `index` has been reconstructed this region.
    pub fn is_reconstructed(&self, index: usize) -> bool {
        self.recon[index]
    }

    /// Marks `index` reconstructed.
    pub fn mark_reconstructed(&mut self, index: usize) {
        self.recon[index] = true;
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct RefBtbEntry {
    valid: bool,
    tag: u64,
    target: Addr,
    reconstructed: bool,
}

/// The reference BTB: one padded struct per entry.
#[derive(Clone, Debug)]
pub struct RefBtb {
    entries: Vec<RefBtbEntry>,
    index_mask: u64,
}

impl RefBtb {
    /// Builds an empty BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize) -> RefBtb {
        assert!(entries.is_power_of_two() && entries > 0, "BTB size must be a power of two");
        RefBtb { entries: vec![RefBtbEntry::default(); entries], index_mask: entries as u64 - 1 }
    }

    /// Number of entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Entry index for a PC.
    #[inline]
    pub fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pc: Addr) -> u64 {
        (pc >> 2) >> self.entries.len().trailing_zeros()
    }

    /// Non-counting lookup.
    pub fn peek(&self, pc: Addr) -> Option<Addr> {
        let e = &self.entries[self.index(pc)];
        (e.valid && e.tag == self.tag(pc)).then_some(e.target)
    }

    /// Installs/updates the target for a taken transfer at `pc`.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let recon = self.entries[idx].reconstructed;
        self.entries[idx] = RefBtbEntry { valid: true, tag, target, reconstructed: recon };
    }

    /// Clears all reconstructed bits.
    pub fn begin_reconstruction(&mut self) {
        for e in &mut self.entries {
            e.reconstructed = false;
        }
    }

    /// Applies one logged taken transfer during the reverse scan.
    pub fn reconstruct(&mut self, pc: Addr, target: Addr) -> bool {
        let idx = self.index(pc);
        if self.entries[idx].reconstructed {
            return false;
        }
        self.entries[idx] =
            RefBtbEntry { valid: true, tag: self.tag(pc), target, reconstructed: true };
        true
    }

    /// Whether the entry mapped by `pc` is reconstructed.
    pub fn is_reconstructed(&self, pc: Addr) -> bool {
        self.entries[self.index(pc)].reconstructed
    }

    /// Marks the entry mapped by `pc` reconstructed without touching its
    /// content.
    pub fn mark_reconstructed(&mut self, pc: Addr) {
        let idx = self.index(pc);
        self.entries[idx].reconstructed = true;
    }
}

/// The reference RAS: heap-allocated circular stack, `Clone` checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefRas {
    slots: Vec<Addr>,
    top: usize,
}

impl RefRas {
    /// Builds an empty RAS with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> RefRas {
        assert!(entries > 0, "RAS must have at least one slot");
        RefRas { slots: vec![0; entries], top: 0 }
    }

    /// Number of slots.
    pub fn num_entries(&self) -> usize {
        self.slots.len()
    }

    /// Pushes a return address (calls).
    pub fn push(&mut self, addr: Addr) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = addr;
    }

    /// Pops the predicted return address (returns).
    pub fn pop(&mut self) -> Addr {
        let v = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        v
    }

    /// Reads the top without popping.
    pub fn peek(&self) -> Addr {
        self.slots[self.top]
    }

    /// Snapshot for checkpointing.
    pub fn checkpoint(&self) -> RefRas {
        self.clone()
    }

    /// Restores a checkpoint taken with [`RefRas::checkpoint`].
    pub fn restore(&mut self, snapshot: &RefRas) {
        self.slots.copy_from_slice(&snapshot.slots);
        self.top = snapshot.top;
    }

    /// Reverse reconstruction (paper Figure 4).
    pub fn reconstruct<I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = RasOp>,
    {
        let n = self.slots.len();
        let mut counter = 0u64;
        let mut filled = 0usize;
        for op in ops {
            if filled == n {
                break;
            }
            match op {
                RasOp::Pop => counter += 1,
                RasOp::Push(addr) => {
                    if counter == 0 {
                        let slot = (self.top + n - filled) % n;
                        self.slots[slot] = addr;
                        filled += 1;
                    } else {
                        counter -= 1;
                    }
                }
            }
        }
    }
}
