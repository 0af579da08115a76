//! The return address stack and its reverse reconstruction (paper Figure 4).

use crate::Addr;

/// A fixed-size circular return address stack.
///
/// Pushes overwrite the oldest entry once full (standard speculative RAS
/// behavior); pops never underflow — they return whatever the top slot
/// holds, which models a stale/garbage prediction.
///
/// Storage is an inline array (capacity [`Ras::MAX_ENTRIES`]), making the
/// stack `Copy`: the per-prediction checkpoint taken by the combined
/// predictor is a register-friendly memcpy instead of a heap `Vec` clone.
/// The heap-backed original survives as an equivalence oracle in the
/// integration tests (`rsr_integration::oracle`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ras {
    slots: [Addr; Ras::MAX_ENTRIES],
    len: usize,
    top: usize,
}

impl Ras {
    /// The paper's size: eight entries.
    pub const PAPER_ENTRIES: usize = 8;

    /// Inline capacity ceiling. Double the paper's configuration; every
    /// modeled machine fits, and keeping the array small keeps checkpoints
    /// cheap.
    pub const MAX_ENTRIES: usize = 16;

    /// Builds an empty RAS with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds [`Ras::MAX_ENTRIES`].
    pub fn new(entries: usize) -> Ras {
        assert!(entries > 0, "RAS must have at least one slot");
        assert!(entries <= Ras::MAX_ENTRIES, "RAS capacity exceeds inline maximum");
        Ras { slots: [0; Ras::MAX_ENTRIES], len: entries, top: 0 }
    }

    /// Number of slots.
    pub fn num_entries(&self) -> usize {
        self.len
    }

    /// Pushes a return address (calls).
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        self.top = (self.top + 1) % self.len;
        self.slots[self.top] = addr;
    }

    /// Pops the predicted return address (returns).
    #[inline]
    pub fn pop(&mut self) -> Addr {
        let v = self.slots[self.top];
        self.top = (self.top + self.len - 1) % self.len;
        v
    }

    /// Reads the top without popping.
    #[inline]
    pub fn peek(&self) -> Addr {
        self.slots[self.top]
    }

    /// Snapshot for checkpointing (a plain copy — the stack is inline).
    #[inline]
    pub fn checkpoint(&self) -> Ras {
        *self
    }

    /// Restores a checkpoint taken with [`Ras::checkpoint`].
    #[inline]
    pub fn restore(&mut self, snapshot: &Ras) {
        *self = *snapshot;
    }

    /// Reverse reconstruction (paper Figure 4): walk the logged call/return
    /// operations newest-first with a skip counter; a pop (return) seen in
    /// reverse increments the counter; a push (call) either cancels a
    /// pending pop (counter > 0) or, when the counter is zero, supplies the
    /// next-deeper stack slot. Stops once the stack is full.
    ///
    /// `ops` must yield the skip region's RAS operations newest-first;
    /// `Push` carries the pushed return address.
    pub fn reconstruct<I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = RasOp>,
    {
        let n = self.len;
        let mut counter = 0u64;
        let mut filled = 0usize;
        // Fill from the top of the stack downward.
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

/// One logged RAS operation for reconstruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RasOp {
    /// A call pushed this return address.
    Push(Addr),
    /// A return popped the stack.
    Pop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut r = Ras::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn overflow_wraps_to_oldest() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), 3);
        assert_eq!(r.pop(), 2);
        assert_eq!(r.pop(), 3); // wrapped: deepest entry was clobbered
    }

    #[test]
    fn checkpoint_restore() {
        let mut r = Ras::new(4);
        r.push(0xa);
        let snap = r.checkpoint();
        r.push(0xb);
        r.pop();
        r.pop();
        r.restore(&snap);
        assert_eq!(r.pop(), 0xa);
    }

    #[test]
    fn capacity_cap_enforced() {
        let r = Ras::new(Ras::MAX_ENTRIES);
        assert_eq!(r.num_entries(), Ras::MAX_ENTRIES);
    }

    #[test]
    #[should_panic(expected = "inline maximum")]
    fn oversized_rejected() {
        let _ = Ras::new(Ras::MAX_ENTRIES + 1);
    }

    /// Reverse reconstruction against forward simulation for a balanced
    /// call/return sequence.
    #[test]
    fn reconstruct_matches_forward() {
        // Forward sequence: push A, push B, pop, push C, push D.
        let fwd_ops =
            [RasOp::Push(0xa), RasOp::Push(0xb), RasOp::Pop, RasOp::Push(0xc), RasOp::Push(0xd)];
        let mut fwd = Ras::new(4);
        for op in fwd_ops {
            match op {
                RasOp::Push(a) => fwd.push(a),
                RasOp::Pop => {
                    fwd.pop();
                }
            }
        }
        // Reverse reconstruction from an arbitrary starting state.
        let mut rev = Ras::new(4);
        rev.reconstruct(fwd_ops.iter().rev().copied());
        // Forward final stack (top->down): D, C, A.
        assert_eq!(rev.pop(), 0xd);
        assert_eq!(rev.pop(), 0xc);
        assert_eq!(rev.pop(), 0xa);
    }

    /// Matches the paper's Figure 4 intuition: a pop in the reverse stream
    /// cancels the next (older) push.
    #[test]
    fn reverse_pop_cancels_older_push() {
        // Forward: push X, pop, push Y  => final stack top = Y only.
        let fwd_ops = [RasOp::Push(0x1), RasOp::Pop, RasOp::Push(0x2)];
        let mut rev = Ras::new(4);
        rev.reconstruct(fwd_ops.iter().rev().copied());
        assert_eq!(rev.pop(), 0x2);
        // X must NOT be under Y (it was popped before Y was pushed).
        assert_ne!(rev.peek(), 0x1);
    }

    #[test]
    fn reconstruct_stops_when_full() {
        let ops: Vec<RasOp> = (0..100).map(|i| RasOp::Push(i as Addr)).collect();
        let mut r = Ras::new(4);
        // Newest-first: 99, 98, ...
        r.reconstruct(ops.iter().rev().copied());
        // Top of stack = newest push = 99; deeper = 98, 97, 96.
        assert_eq!(r.pop(), 99);
        assert_eq!(r.pop(), 98);
        assert_eq!(r.pop(), 97);
        assert_eq!(r.pop(), 96);
    }

    /// Property: for random call/return sequences whose depth never exceeds
    /// the stack capacity, reverse reconstruction reproduces the forward
    /// stack exactly. (Beyond capacity the circular stack overwrites deep
    /// entries and even the paper's algorithm is an approximation.)
    #[test]
    fn prop_reconstruct_equals_forward_random() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut depth: i64 = 0;
            let mut next_addr = 1u64;
            let ops: Vec<RasOp> = (0..60)
                .map(|_| {
                    if depth > 0 && (depth == 8 || rng.gen_bool(0.4)) {
                        depth -= 1;
                        RasOp::Pop
                    } else {
                        depth += 1;
                        next_addr += 1;
                        RasOp::Push(next_addr)
                    }
                })
                .collect();
            let mut fwd = Ras::new(8);
            let mut live = 0i64;
            for &op in &ops {
                match op {
                    RasOp::Push(a) => {
                        fwd.push(a);
                        live += 1;
                    }
                    RasOp::Pop => {
                        fwd.pop();
                        live -= 1;
                    }
                }
            }
            let mut rev = Ras::new(8);
            rev.reconstruct(ops.iter().rev().copied());
            // Compare as many entries as are genuinely live (up to capacity).
            let compare = live.clamp(0, 8) as usize;
            for k in 0..compare {
                assert_eq!(rev.pop(), fwd.pop(), "depth {k} ops {ops:?}");
            }
        }
    }
}
