//! A set-associative cache with true-LRU replacement and support for the
//! paper's reverse reconstruction (per-block *reconstructed* bits, stale-way
//! insertion, reconstruction-order LRU assignment).
//!
//! Storage is struct-of-arrays: one contiguous way-packed tag vector, one
//! rank byte and one reconstruction-sequence byte per line, and per-set
//! valid/dirty bitmask words. A hit probe reads the set's valid mask and
//! walks only its set bits over adjacent tags (one bounds check via a
//! subslice); victim selection is a popcount/shift affair on the mask
//! instead of a struct scan. The previous array-of-structs layout survives
//! as an equivalence oracle in the integration tests
//! (`rsr_integration::oracle`).

use crate::{CacheConfig, WritePolicy};

/// A byte address (mirrors `rsr_isa::Addr` without the dependency).
pub type Addr = u64;

/// Kind of access presented to a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Load or instruction fetch.
    Read,
    /// Store.
    Write,
}

/// Result of one cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the access allocated a line (miss fill).
    pub filled: bool,
    /// Line address of a dirty victim that must be written back, if any.
    pub writeback: Option<Addr>,
}

/// Result of one reverse-reconstruction reference (paper §3.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReconOutcome {
    /// The whole set was already reconstructed; the (older) reference is
    /// ignored.
    SetComplete,
    /// The block was already reconstructed by a (younger) reference; ignored.
    Redundant,
    /// The block was present but stale: marked reconstructed in place.
    MarkedPresent,
    /// The block was absent: inserted into the least-recently-used stale way.
    Inserted,
}

const NOT_RECON: u8 = u8::MAX;

/// Running hit/miss counters for one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Line fills.
    pub fills: u64,
    /// Dirty evictions (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses (0.0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

// ---- bitmask helpers (way bitsets, `stride` words per set) ---------------

#[inline]
fn bit_get(words: &[u64], stride: usize, set: usize, way: usize) -> bool {
    words[set * stride + (way >> 6)] & (1u64 << (way & 63)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], stride: usize, set: usize, way: usize) {
    words[set * stride + (way >> 6)] |= 1u64 << (way & 63);
}

#[inline]
fn bit_clear(words: &mut [u64], stride: usize, set: usize, way: usize) {
    words[set * stride + (way >> 6)] &= !(1u64 << (way & 63));
}

/// First way in `vmask` whose tag equals `tag` (ways visited ascending, so
/// this matches a first-match scan over valid lines). `tags` must be the
/// set's way-packed subslice.
#[inline]
fn find_valid_tag(tags: &[u64], vmask: u64, tag: u64) -> Option<usize> {
    let mut m = vmask;
    while m != 0 {
        let w = m.trailing_zeros() as usize;
        if tags[w] == tag {
            return Some(w);
        }
        m &= m - 1;
    }
    None
}

/// A set-associative, true-LRU cache.
///
/// Besides ordinary simulation ([`Cache::access`]) the cache supports the
/// RSR warm-up protocol:
///
/// 1. [`Cache::begin_reconstruction`] clears all *reconstructed* bits;
/// 2. the reverse scan calls [`Cache::reconstruct_ref`] per logged reference
///    (younger references first) until [`Cache::fully_reconstructed`] or the
///    log budget runs out — or [`Cache::reconstruct_span`] once per set
///    over that set's newest-first references;
/// 3. [`Cache::finish_reconstruction`] normalizes LRU ranks so that
///    reconstructed blocks are younger than surviving stale blocks, in
///    reconstruction order (first reconstructed = MRU), exactly as Figure 2
///    of the paper prescribes.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Way-packed tags: line `set * assoc + way`.
    tags: Vec<u64>,
    /// LRU rank per line: 0 = most recently used, `assoc-1` = LRU. Always a
    /// permutation of `0..assoc` within a set.
    ranks: Vec<u8>,
    /// Reconstruction order within the set (`NOT_RECON` if stale).
    recon_seq: Vec<u8>,
    /// Per-set valid bitmask, `mask_stride` words per set.
    valid: Vec<u64>,
    /// Per-set dirty bitmask, same packing.
    dirty: Vec<u64>,
    /// Words per set in `valid`/`dirty` (1 for `assoc <= 64`).
    mask_stride: usize,
    num_sets: usize,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
    /// Number of sets whose every way is reconstructed (for early exit).
    complete_sets: usize,
    /// Number of reconstructed lines per set.
    recon_counts: Vec<u8>,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Cache {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let num_sets = cfg.num_sets();
        let assoc = cfg.assoc;
        let mask_stride = assoc.div_ceil(64);
        let mut ranks = vec![0u8; num_sets * assoc];
        for set in 0..num_sets {
            for way in 0..assoc {
                ranks[set * assoc + way] = way as u8;
            }
        }
        Cache {
            set_mask: num_sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            num_sets,
            tags: vec![0; num_sets * assoc],
            ranks,
            recon_seq: vec![NOT_RECON; num_sets * assoc],
            valid: vec![0; num_sets * mask_stride],
            dirty: vec![0; num_sets * mask_stride],
            mask_stride,
            stats: CacheStats::default(),
            complete_sets: 0,
            recon_counts: vec![0; num_sets],
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics to zero (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index for an address.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Log₂ of the line size — external indexes (the skip log's
    /// reconstruction index) key records by `(addr >> line_shift) & (sets-1)`.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> usize {
        self.cfg.assoc
    }

    /// Tag for an address (line and set-index bits stripped).
    #[inline]
    pub fn tag_of(&self, addr: Addr) -> u64 {
        addr >> self.line_shift >> self.num_sets.trailing_zeros()
    }

    /// Line-aligned address reconstituted from a set/tag pair.
    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> Addr {
        ((tag << self.num_sets.trailing_zeros()) | set as u64) << self.line_shift
    }

    /// The set's valid bitmask (single-word geometries only).
    #[inline]
    fn vmask(&self, set: usize) -> u64 {
        self.valid[set * self.mask_stride]
    }

    /// First valid way of `set` holding `tag`, if any.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        if self.mask_stride == 1 {
            find_valid_tag(&self.tags[base..base + assoc], self.vmask(set), tag)
        } else {
            (0..assoc).find(|&w| {
                bit_get(&self.valid, self.mask_stride, set, w) && self.tags[base + w] == tag
            })
        }
    }

    /// Checks for presence without updating any state.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find_way(self.set_index(addr), self.tag_of(addr)).is_some()
    }

    /// Moves the line at `way` to MRU: every line younger than it ages by
    /// one, then it takes rank 0.
    #[inline]
    fn touch(&mut self, set: usize, way: usize, pivot_rank: u8) {
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        for r in &mut self.ranks[base..base + assoc] {
            *r += u8::from(*r < pivot_rank);
        }
        self.ranks[base + way] = 0;
    }

    /// Performs one access with full LRU/allocation/dirty bookkeeping.
    ///
    /// Write misses do not allocate under
    /// [`WritePolicy::WriteThroughNoAllocate`]; they allocate (and mark
    /// dirty) under [`WritePolicy::WriteBackAllocate`]. Returned
    /// [`AccessOutcome::writeback`] reports a dirty victim's line address.
    #[inline]
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let policy = self.cfg.write_policy;
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        self.stats.accesses += 1;

        if let Some(way) = self.find_way(set, tag) {
            self.stats.hits += 1;
            self.touch(set, way, self.ranks[base + way]);
            if kind == AccessKind::Write && policy == WritePolicy::WriteBackAllocate {
                bit_set(&mut self.dirty, self.mask_stride, set, way);
            }
            return AccessOutcome { hit: true, filled: false, writeback: None };
        }

        self.stats.misses += 1;

        // No-allocate policies skip the fill on write misses.
        if kind == AccessKind::Write && policy == WritePolicy::WriteThroughNoAllocate {
            return AccessOutcome { hit: false, filled: false, writeback: None };
        }

        // Victim: the first invalid way if any, else the LRU way. Ranks are
        // a permutation of `0..assoc`, so the highest rank is the LRU way.
        let victim = if self.mask_stride == 1 {
            let inv = !self.vmask(set) & ones(assoc);
            if inv != 0 {
                inv.trailing_zeros() as usize
            } else {
                self.lru_way(set)
            }
        } else {
            match (0..assoc).find(|&w| !bit_get(&self.valid, self.mask_stride, set, w)) {
                Some(w) => w,
                None => self.lru_way(set),
            }
        };
        let victim_rank = self.ranks[base + victim];
        let mut writeback = None;
        if bit_get(&self.valid, self.mask_stride, set, victim)
            && bit_get(&self.dirty, self.mask_stride, set, victim)
        {
            self.stats.writebacks += 1;
            writeback = Some(self.line_addr(set, self.tags[base + victim]));
        }

        self.touch(set, victim, victim_rank);
        self.tags[base + victim] = tag;
        bit_set(&mut self.valid, self.mask_stride, set, victim);
        if kind == AccessKind::Write && policy == WritePolicy::WriteBackAllocate {
            bit_set(&mut self.dirty, self.mask_stride, set, victim);
        } else {
            bit_clear(&mut self.dirty, self.mask_stride, set, victim);
        }
        // The new block inherits the victim's reconstructed status: normal
        // execution replacing a reconstructed block leaves it exact.
        self.stats.fills += 1;
        AccessOutcome { hit: false, filled: true, writeback }
    }

    /// Way holding the highest (oldest) rank of a full set.
    #[inline]
    fn lru_way(&self, set: usize) -> usize {
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        let mut lru = 0usize;
        for w in 1..assoc {
            if self.ranks[base + w] > self.ranks[base + lru] {
                lru = w;
            }
        }
        lru
    }

    /// Invalidates everything (cold caches for the start of simulation).
    pub fn invalidate_all(&mut self) {
        let assoc = self.cfg.assoc;
        self.tags.fill(0);
        for set in 0..self.num_sets {
            for way in 0..assoc {
                self.ranks[set * assoc + way] = way as u8;
            }
        }
        self.recon_seq.fill(NOT_RECON);
        self.valid.fill(0);
        self.dirty.fill(0);
        self.complete_sets = 0;
        self.recon_counts.fill(0);
    }

    // ---- reverse reconstruction (paper §3.1) ----------------------------

    /// Clears all reconstructed bits, leaving content *stale* (as after the
    /// previous cluster). Call once per skip region before the reverse scan.
    ///
    /// Reconstructed bits can only live in sets whose `recon_counts` entry is
    /// nonzero — every reconstruction path bumps the count, and forward
    /// execution never introduces the bit into an untouched set — so the
    /// sweep skips sets left untouched by the previous skip region instead
    /// of walking every line in the cache.
    pub fn begin_reconstruction(&mut self) {
        let assoc = self.cfg.assoc;
        for set in 0..self.num_sets {
            if self.recon_counts[set] == 0 {
                continue;
            }
            self.recon_seq[set * assoc..(set + 1) * assoc].fill(NOT_RECON);
            self.recon_counts[set] = 0;
        }
        self.complete_sets = 0;
    }

    /// Applies one logged reference during the reverse scan (younger
    /// references must be presented first).
    ///
    /// Implements the paper's rules: references to complete sets and to
    /// already-reconstructed blocks are ignored; a present-but-stale block is
    /// marked reconstructed in place; an absent block is inserted into the
    /// least-recently-used stale way (invalid ways are considered stalest).
    /// WTNA write allocation is the caller's choice — per the paper, logged
    /// writes are presented here exactly like reads.
    pub fn reconstruct_ref(&mut self, addr: Addr) -> ReconOutcome {
        let set = self.set_index(addr);
        let assoc = self.cfg.assoc as u8;
        if self.recon_counts[set] >= assoc {
            return ReconOutcome::SetComplete;
        }
        let tag = self.tag_of(addr);
        let seq = self.recon_counts[set];
        let base = set * self.cfg.assoc;

        if let Some(way) = self.find_way(set, tag) {
            if self.recon_seq[base + way] != NOT_RECON {
                return ReconOutcome::Redundant;
            }
            self.recon_seq[base + way] = seq;
            self.recon_counts[set] += 1;
            if self.recon_counts[set] >= assoc {
                self.complete_sets += 1;
            }
            return ReconOutcome::MarkedPresent;
        }

        // Insert into the stalest non-reconstructed way: invalid ways first,
        // then the valid stale way with the highest (oldest) rank. Ranks are
        // a permutation, so the maximizing way is unique.
        let mut victim = None;
        let mut best = (false, 0u8);
        for w in 0..self.cfg.assoc {
            if self.recon_seq[base + w] != NOT_RECON {
                continue;
            }
            let key = (!bit_get(&self.valid, self.mask_stride, set, w), self.ranks[base + w]);
            if victim.is_none() || key > best {
                victim = Some(w);
                best = key;
            }
        }
        let Some(victim) = victim else { unreachable!("incomplete set has a stale way") };
        self.tags[base + victim] = tag;
        bit_set(&mut self.valid, self.mask_stride, set, victim);
        bit_clear(&mut self.dirty, self.mask_stride, set, victim);
        self.recon_seq[base + victim] = seq;
        self.recon_counts[set] += 1;
        if self.recon_counts[set] >= assoc {
            self.complete_sets += 1;
        }
        ReconOutcome::Inserted
    }

    /// Replays one set's whole logged span — record indices into `addrs`,
    /// newest first, descending — stopping at the budget `cut` or when the
    /// set completes. Semantically identical to presenting each in-budget
    /// address to [`Cache::reconstruct_ref`] in span order, but batched:
    /// the stale-victim priority order (invalid ways first, then valid
    /// stale ways oldest-rank first) is computed once per set instead of
    /// per reference, and the per-reference work collapses to one tag
    /// compare loop. Victim priority only depends on the set's pre-scan
    /// (valid, rank) state — reconstruction never changes a surviving stale
    /// way's rank or validity — so hoisting it is exact.
    pub fn reconstruct_span(
        &mut self,
        set: usize,
        span: &[u32],
        addrs: &[u64],
        cut: u32,
    ) -> SpanOutcome {
        // Victim priority as a stack: `(!valid, rank)` descending, i.e.
        // exactly the argmax sequence `reconstruct_ref` would produce.
        // Ranks are a permutation within a set, so the order is unique.
        const MAX_FAST_ASSOC: usize = 32;
        let assoc = self.cfg.assoc;
        let mut out = SpanOutcome::default();
        let mut seq = self.recon_counts[set];
        // Nothing in budget (spans are newest first) or nothing left to
        // fill: the walk below would touch no way, so skip its set-up.
        if seq as usize >= assoc || span.first().is_none_or(|&i| i < cut) {
            return out;
        }
        if assoc > MAX_FAST_ASSOC {
            // Wide geometry: take the per-reference path.
            for &i in span {
                if i < cut {
                    break;
                }
                match self.reconstruct_ref(addrs[i as usize]) {
                    ReconOutcome::Inserted => out.inserted += 1,
                    ReconOutcome::MarkedPresent => out.marked += 1,
                    ReconOutcome::Redundant | ReconOutcome::SetComplete => {}
                }
                if self.recon_counts[set] as usize >= assoc {
                    out.completed_at = Some(i);
                    break;
                }
            }
            return out;
        }

        let tag_shift = self.line_shift + self.num_sets.trailing_zeros();
        let base = set * assoc;
        let mut order = [0u8; MAX_FAST_ASSOC];
        for (w, slot) in order.iter_mut().take(assoc).enumerate() {
            *slot = w as u8;
        }
        order[..assoc].sort_unstable_by_key(|&w| {
            (
                bit_get(&self.valid, self.mask_stride, set, w as usize),
                std::cmp::Reverse(self.ranks[base + w as usize]),
            )
        });
        let mut next_victim = 0usize;

        for &i in span {
            if i < cut {
                break;
            }
            let tag = addrs[i as usize] >> tag_shift;
            match self.find_way(set, tag) {
                Some(way) => {
                    if self.recon_seq[base + way] != NOT_RECON {
                        continue;
                    }
                    self.recon_seq[base + way] = seq;
                    out.marked += 1;
                }
                None => {
                    // Pop the stalest way not yet reconstructed (a marked
                    // way keeps its position in `order`; skip it here).
                    while self.recon_seq[base + order[next_victim] as usize] != NOT_RECON {
                        next_victim += 1;
                    }
                    let v = order[next_victim] as usize;
                    next_victim += 1;
                    self.tags[base + v] = tag;
                    bit_set(&mut self.valid, self.mask_stride, set, v);
                    bit_clear(&mut self.dirty, self.mask_stride, set, v);
                    self.recon_seq[base + v] = seq;
                    out.inserted += 1;
                }
            }
            seq += 1;
            if seq as usize >= assoc {
                self.complete_sets += 1;
                out.completed_at = Some(i);
                break;
            }
        }
        self.recon_counts[set] = seq;
        out
    }

    /// Whether every set has been fully reconstructed (early-exit test for
    /// the reverse scan).
    pub fn fully_reconstructed(&self) -> bool {
        self.complete_sets == self.num_sets
    }

    /// Number of fully reconstructed sets.
    pub fn complete_sets(&self) -> usize {
        self.complete_sets
    }

    /// Normalizes LRU ranks after the reverse scan: reconstructed blocks take
    /// ranks `0..k` in reconstruction order (first reconstructed = MRU) and
    /// surviving stale blocks follow in their previous relative order.
    ///
    /// No sort is needed: a set's `k` reconstructed lines carry the unique
    /// sequence numbers `0..k` — already their target ranks — and within the
    /// stale-valid and invalid groups a line's relative position is the count
    /// of group members with a smaller old rank, which a popcount over a
    /// rank-occupancy bitmask answers directly (old ranks are a permutation
    /// of `0..assoc`, so the masks are collision-free).
    pub fn finish_reconstruction(&mut self) {
        let assoc = self.cfg.assoc;
        if assoc > 64 {
            self.finish_reconstruction_sorted();
            return;
        }
        for set in 0..self.num_sets {
            if self.recon_counts[set] == 0 {
                continue; // untouched set keeps its stale ordering
            }
            let base = set * assoc;
            let mut stale_valid: u64 = 0;
            let mut invalid: u64 = 0;
            for w in 0..assoc {
                if self.recon_seq[base + w] == NOT_RECON {
                    if bit_get(&self.valid, self.mask_stride, set, w) {
                        stale_valid |= 1u64 << self.ranks[base + w];
                    } else {
                        invalid |= 1u64 << self.ranks[base + w];
                    }
                }
            }
            let k = assoc as u32 - stale_valid.count_ones() - invalid.count_ones();
            let m = stale_valid.count_ones();
            for w in 0..assoc {
                let below = (1u64 << self.ranks[base + w]) - 1;
                self.ranks[base + w] = if self.recon_seq[base + w] != NOT_RECON {
                    self.recon_seq[base + w]
                } else if bit_get(&self.valid, self.mask_stride, set, w) {
                    (k + (stale_valid & below).count_ones()) as u8
                } else {
                    (k + m + (invalid & below).count_ones()) as u8
                };
            }
        }
    }

    /// Sort-based fallback for `finish_reconstruction` when the
    /// associativity exceeds the bitmask width.
    fn finish_reconstruction_sorted(&mut self) {
        let assoc = self.cfg.assoc;
        for set in 0..self.num_sets {
            if self.recon_counts[set] == 0 {
                continue;
            }
            let base = set * assoc;
            let mut order: Vec<usize> = (0..assoc).collect();
            // Reconstructed first by recon_seq, then stale-valid by old rank,
            // then invalid ways last.
            order.sort_unstable_by_key(|&w| {
                let seq = self.recon_seq[base + w];
                let rank = self.ranks[base + w];
                if seq != NOT_RECON {
                    (0u8, seq, rank)
                } else if bit_get(&self.valid, self.mask_stride, set, w) {
                    (1, 0, rank)
                } else {
                    (2, 0, rank)
                }
            });
            for (new_rank, &w) in order.iter().enumerate() {
                self.ranks[base + w] = new_rank as u8;
            }
        }
    }

    /// Content of one set, one [`WayDump`] per way, for tests and
    /// debugging.
    pub fn dump_set(&self, set: usize) -> Vec<WayDump> {
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        (0..assoc)
            .map(|w| {
                (
                    self.tags[base + w],
                    bit_get(&self.valid, self.mask_stride, set, w),
                    bit_get(&self.dirty, self.mask_stride, set, w),
                    self.ranks[base + w],
                    self.recon_seq[base + w] != NOT_RECON,
                )
            })
            .collect()
    }

    /// Tags of valid lines in a set, MRU first (test helper).
    pub fn set_tags_mru_order(&self, set: usize) -> Vec<u64> {
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        let mut v: Vec<(u8, u64)> = (0..assoc)
            .filter(|&w| bit_get(&self.valid, self.mask_stride, set, w))
            .map(|w| (self.ranks[base + w], self.tags[base + w]))
            .collect();
        v.sort_by_key(|&(rank, _)| rank);
        v.into_iter().map(|(_, tag)| tag).collect()
    }
}

/// Mask with the low `n` bits set (`n <= 64`).
#[inline]
fn ones(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One way of a set as [`Cache::dump_set`] reports it:
/// `(tag, valid, dirty, rank, reconstructed)`.
pub type WayDump = (u64, bool, bool, u8, bool);

/// Result of replaying one set's logged references through
/// [`Cache::reconstruct_span`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanOutcome {
    /// References inserted into stale ways.
    pub inserted: u32,
    /// Present-but-stale blocks marked reconstructed in place.
    pub marked: u32,
    /// The record index at which the set became fully reconstructed, if it
    /// did within the span.
    pub completed_at: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(assoc: usize) -> Cache {
        // 4 sets.
        Cache::new(CacheConfig {
            name: "T".into(),
            size_bytes: 4 * assoc as u64 * 64,
            assoc,
            line_bytes: 64,
            write_policy: WritePolicy::WriteBackAllocate,
            hit_latency: 1,
        })
    }

    fn wtna_cache(assoc: usize) -> Cache {
        Cache::new(CacheConfig {
            name: "W".into(),
            size_bytes: 4 * assoc as u64 * 64,
            assoc,
            line_bytes: 64,
            write_policy: WritePolicy::WriteThroughNoAllocate,
            hit_latency: 1,
        })
    }

    /// Address whose set index is `set` and tag is `tag` for 4-set/64B.
    fn addr(set: u64, tag: u64) -> Addr {
        (tag << 8) | (set << 6)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = tiny_cache(2);
        assert!(!c.access(addr(0, 1), AccessKind::Read).hit);
        assert!(!c.access(addr(0, 2), AccessKind::Read).hit);
        assert!(c.access(addr(0, 1), AccessKind::Read).hit); // 1 is MRU now
                                                             // Fill a third tag: victim must be tag 2 (LRU).
        assert!(!c.access(addr(0, 3), AccessKind::Read).hit);
        assert!(c.probe(addr(0, 1)));
        assert!(!c.probe(addr(0, 2)));
        assert!(c.probe(addr(0, 3)));
        assert_eq!(c.set_tags_mru_order(0), vec![3, 1]);
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny_cache(2);
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(1, 1), AccessKind::Read);
        assert!(c.probe(addr(0, 1)));
        assert!(c.probe(addr(1, 1)));
        assert!(!c.probe(addr(2, 1)));
    }

    #[test]
    fn wtna_write_miss_does_not_allocate() {
        let mut c = wtna_cache(2);
        let out = c.access(addr(0, 7), AccessKind::Write);
        assert!(!out.hit && !out.filled);
        assert!(!c.probe(addr(0, 7)));
        // Read miss allocates.
        assert!(c.access(addr(0, 7), AccessKind::Read).filled);
        // Write hit does not mark dirty under WTNA.
        c.access(addr(0, 7), AccessKind::Write);
        // Evict it; no writeback should be reported.
        c.access(addr(0, 8), AccessKind::Read);
        let out = c.access(addr(0, 9), AccessKind::Read);
        assert_eq!(out.writeback, None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn wbwa_write_allocates_and_writes_back() {
        let mut c = tiny_cache(2);
        assert!(c.access(addr(0, 7), AccessKind::Write).filled);
        assert!(c.probe(addr(0, 7)));
        // Fill the set and evict tag 7 -> dirty writeback of its line addr.
        c.access(addr(0, 8), AccessKind::Read);
        let out = c.access(addr(0, 9), AccessKind::Read);
        assert_eq!(out.writeback, Some(addr(0, 7)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = tiny_cache(2);
        c.access(addr(0, 1), AccessKind::Read);
        c.invalidate_all();
        assert!(!c.probe(addr(0, 1)));
    }

    /// The paper's Figure 2: forward stream E, A, F, C against a stale set
    /// {A, B, C, D}; reverse reconstruction must reproduce the forward
    /// result C, F, A, E (MRU→LRU).
    #[test]
    fn figure2_reverse_matches_forward() {
        let (a, b, c_, d, e, f) = (10, 11, 12, 13, 14, 15);

        // Forward simulation.
        let mut fwd = tiny_cache(4);
        for t in [a, b, c_, d] {
            fwd.access(addr(0, t), AccessKind::Read);
        }
        // Make MRU order A,B,C,D (A most recent).
        for t in [d, c_, b, a] {
            fwd.access(addr(0, t), AccessKind::Read);
        }
        for t in [e, a, f, c_] {
            fwd.access(addr(0, t), AccessKind::Read);
        }
        assert_eq!(fwd.set_tags_mru_order(0), vec![c_, f, a, e]);

        // Reverse reconstruction from the same stale starting point.
        let mut rev = tiny_cache(4);
        for t in [a, b, c_, d] {
            rev.access(addr(0, t), AccessKind::Read);
        }
        for t in [d, c_, b, a] {
            rev.access(addr(0, t), AccessKind::Read);
        }
        rev.begin_reconstruction();
        // Reverse order of E, A, F, C.
        assert_eq!(rev.reconstruct_ref(addr(0, c_)), ReconOutcome::MarkedPresent);
        assert_eq!(rev.reconstruct_ref(addr(0, f)), ReconOutcome::Inserted);
        assert_eq!(rev.reconstruct_ref(addr(0, a)), ReconOutcome::MarkedPresent);
        assert_eq!(rev.reconstruct_ref(addr(0, e)), ReconOutcome::Inserted);
        assert!(rev.reconstruct_ref(addr(0, b)) == ReconOutcome::SetComplete);
        rev.finish_reconstruction();
        assert_eq!(rev.set_tags_mru_order(0), vec![c_, f, a, e]);
    }

    #[test]
    fn redundant_references_ignored() {
        let mut c = tiny_cache(4);
        c.begin_reconstruction();
        assert_eq!(c.reconstruct_ref(addr(0, 1)), ReconOutcome::Inserted);
        assert_eq!(c.reconstruct_ref(addr(0, 1)), ReconOutcome::Redundant);
        assert_eq!(c.recon_counts[0], 1);
    }

    #[test]
    fn reconstruction_prefers_invalid_then_lru_stale() {
        let mut c = tiny_cache(4);
        // Two stale valid blocks (tag 1 MRU, tag 2 LRU), two invalid ways.
        c.access(addr(0, 2), AccessKind::Read);
        c.access(addr(0, 1), AccessKind::Read);
        c.begin_reconstruction();
        // Absent tags go to invalid ways first.
        c.reconstruct_ref(addr(0, 30));
        c.reconstruct_ref(addr(0, 31));
        assert!(c.probe(addr(0, 1)) && c.probe(addr(0, 2)));
        // Next absent tag must replace the LRU stale block (tag 2).
        c.reconstruct_ref(addr(0, 32));
        assert!(!c.probe(addr(0, 2)));
        assert!(c.probe(addr(0, 1)));
        c.finish_reconstruction();
        assert_eq!(c.set_tags_mru_order(0), vec![30, 31, 32, 1]);
    }

    #[test]
    fn fully_reconstructed_early_exit() {
        let mut c = tiny_cache(2); // 4 sets x 2 ways
        c.begin_reconstruction();
        assert!(!c.fully_reconstructed());
        for set in 0..4u64 {
            for tag in 0..2u64 {
                c.reconstruct_ref(addr(set, 100 + tag));
            }
        }
        assert!(c.fully_reconstructed());
        assert_eq!(c.complete_sets(), 4);
    }

    #[test]
    fn from_empty_reverse_equals_forward() {
        // With an invalid initial state, reverse reconstruction must yield
        // exactly the forward-LRU content for any reference stream.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let stream: Vec<(u64, u64)> =
                (0..40).map(|_| (rng.gen_range(0..4u64), rng.gen_range(0..12u64))).collect();
            let mut fwd = tiny_cache(4);
            for &(s, t) in &stream {
                fwd.access(addr(s, t), AccessKind::Read);
            }
            let mut rev = tiny_cache(4);
            rev.begin_reconstruction();
            for &(s, t) in stream.iter().rev() {
                rev.reconstruct_ref(addr(s, t));
            }
            rev.finish_reconstruction();
            for set in 0..4 {
                assert_eq!(
                    rev.set_tags_mru_order(set),
                    fwd.set_tags_mru_order(set),
                    "stream {stream:?} set {set}"
                );
            }
        }
    }

    /// A span with no record at or past the cut returns the default
    /// outcome at once and leaves the set exactly as it was.
    #[test]
    fn empty_or_out_of_budget_span_is_a_noop() {
        let mut c = tiny_cache(4);
        c.access(addr(1, 2), AccessKind::Read);
        c.access(addr(1, 1), AccessKind::Write);
        c.begin_reconstruction();
        let addrs = [addr(1, 7), addr(1, 8), addr(1, 9)];
        let before = c.dump_set(1);
        for (span, cut) in [(&[][..], 0), (&[2, 1, 0][..], 3), (&[1, 0][..], 2)] {
            assert_eq!(c.reconstruct_span(1, span, &addrs, cut), SpanOutcome::default());
            assert_eq!(c.dump_set(1), before, "span {span:?} cut {cut}");
            assert_eq!(c.recon_counts[1], 0);
        }
        assert_eq!(c.complete_sets(), 0);
        // The same set still reconstructs once a record is in budget.
        let out = c.reconstruct_span(1, &[2, 1, 0], &addrs, 2);
        assert_eq!(out.inserted, 1);
        assert_eq!(c.recon_counts[1], 1);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny_cache(2);
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 1), AccessKind::Read);
        assert_eq!(c.stats().miss_ratio(), 0.5);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    /// A read that hits the set's rank-0 (MRU) way changes no line state:
    /// tags, ranks, valid and dirty bits and reconstructed marks stay put,
    /// and only the hit counters move. SMARTS warming relies on this to
    /// skip a fetch probe that repeats the previous fetch's I-cache line.
    #[test]
    fn read_hit_on_the_mru_way_moves_only_the_counters() {
        // Everything the cache holds but its counters.
        fn line_state(c: &Cache) -> String {
            let mut c = c.clone();
            c.reset_stats();
            format!("{c:?}")
        }
        // Direct-mapped, small, and wide (two mask words per set) sets, under
        // both write policies; writes leave dirty lines behind in WBWA.
        for assoc in [1, 2, 4, 80] {
            for policy in [WritePolicy::WriteBackAllocate, WritePolicy::WriteThroughNoAllocate] {
                let mut c = Cache::new(CacheConfig {
                    name: "M".into(),
                    size_bytes: 4 * assoc as u64 * 64,
                    assoc,
                    line_bytes: 64,
                    write_policy: policy,
                    hit_latency: 1,
                });
                for k in 0..3 * assoc as u64 {
                    let kind = if k % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                    c.access(addr(k % 4, k / 2), kind);
                }
                c.begin_reconstruction();
                c.reconstruct_ref(addr(1, 0));
                for set in 0..4 {
                    let Some(mru) = c.set_tags_mru_order(set).first().copied() else {
                        continue;
                    };
                    let before = line_state(&c);
                    let stats = c.stats();
                    let out = c.access(addr(set as u64, mru), AccessKind::Read);
                    assert_eq!(out, AccessOutcome { hit: true, filled: false, writeback: None });
                    assert_eq!(line_state(&c), before, "assoc {assoc}, {policy:?}, set {set}");
                    let after = c.stats();
                    assert_eq!(after.accesses, stats.accesses + 1);
                    assert_eq!(after.hits, stats.hits + 1);
                    assert_eq!((after.misses, after.fills), (stats.misses, stats.fills));
                }
            }
        }
    }
}
