//! The two-level memory hierarchy with bus contention, matching the paper's
//! experimental framework (§4): split WTNA L1 caches over a shared L1 bus, a
//! unified WBWA L2, and an L2↔memory bus.

use crate::{AccessKind, Addr, Bus, BusConfig, Cache, CacheConfig, WritePolicy};

/// What kind of hierarchy access is being made.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HierAccess {
    /// Instruction fetch (L1I).
    Fetch,
    /// Data load (L1D).
    Load,
    /// Data store (L1D, write-through to L2).
    Store,
}

impl HierAccess {
    /// Whether this is a store.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, HierAccess::Store)
    }
}

/// Full configuration of the memory hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Shared bus between both L1s and the L2.
    pub l1_bus: BusConfig,
    /// Bus between the L2 and main memory.
    pub l2_bus: BusConfig,
    /// Main-memory access latency in core cycles (excluding bus transfer).
    pub mem_latency: u64,
    /// Enable a simple next-line prefetcher: demand read/fetch misses in an
    /// L1 also pull the sequentially next line into that L1 (and the L2).
    /// Off in the paper configuration.
    pub prefetch_next_line: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

impl HierarchyConfig {
    /// The paper's configuration (§4) at a 2 GHz core clock.
    pub fn paper() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1i(),
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            l1_bus: BusConfig::paper_l1_bus(),
            l2_bus: BusConfig::paper_l2_bus(),
            mem_latency: 200,
            prefetch_next_line: false,
        }
    }
}

/// Aggregate hierarchy statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total timed accesses.
    pub accesses: u64,
    /// Accesses that hit in the addressed L1.
    pub l1_hits: u64,
    /// Accesses serviced by the L2.
    pub l2_hits: u64,
    /// Accesses that went to main memory.
    pub mem_accesses: u64,
}

/// A timed, stateful two-level memory hierarchy.
///
/// [`MemHierarchy::access`] performs a fully timed access (cycle `now` in,
/// completion cycle out) with LRU/allocation updates and bus contention.
/// [`MemHierarchy::warm_access`] applies the same *state* update with no
/// timing — this is the SMARTS functional-warming path.
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    /// The instruction cache.
    pub l1i: Cache,
    /// The data cache.
    pub l1d: Cache,
    /// The unified L2.
    pub l2: Cache,
    l1_bus: Bus,
    l2_bus: Bus,
    cfg: HierarchyConfig,
    stats: HierarchyStats,
}

impl MemHierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache configuration is invalid.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            l1_bus: Bus::new(cfg.l1_bus),
            l2_bus: Bus::new(cfg.l2_bus),
            cfg,
            stats: HierarchyStats::default(),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets aggregate and per-component statistics (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// Opens a reverse-reconstruction pass on every level (see
    /// [`Cache::begin_reconstruction`]): clears all reconstructed bits so
    /// the newest-first scan can repair each level independently.
    pub fn begin_reconstruction(&mut self) {
        self.l1i.begin_reconstruction();
        self.l1d.begin_reconstruction();
        self.l2.begin_reconstruction();
    }

    /// Closes a reverse-reconstruction pass on every level (see
    /// [`Cache::finish_reconstruction`]): normalizes LRU ranks so
    /// reconstructed blocks are the most recently used.
    pub fn finish_reconstruction(&mut self) {
        self.l1i.finish_reconstruction();
        self.l1d.finish_reconstruction();
        self.l2.finish_reconstruction();
    }

    /// Resets the bus arbitration clocks. Call when restarting the cycle
    /// counter (e.g. at the start of each measured cluster) — cache *state*
    /// is untouched.
    pub fn reset_timing(&mut self) {
        self.l1_bus.reset();
        self.l2_bus.reset();
    }

    /// Invalidates all cache state.
    pub fn invalidate_all(&mut self) {
        self.l1i.invalidate_all();
        self.l1d.invalidate_all();
        self.l2.invalidate_all();
    }

    /// Performs a timed access starting at core cycle `now`; returns the
    /// cycle at which the data is available.
    ///
    /// Stores under the L1's write-through policy always produce L1-bus and
    /// L2 traffic; the returned completion models the write reaching the L2
    /// (a store buffer means the pipeline need not wait for it).
    ///
    /// Inlined (as is [`MemHierarchy::warm_access`]) so the detailed-window
    /// cluster loop monomorphizes the whole L1→L2→memory chain into one
    /// kernel — the per-level calls below are already static dispatch.
    #[inline]
    pub fn access(&mut self, now: u64, addr: Addr, kind: HierAccess) -> u64 {
        self.stats.accesses += 1;
        let line = self.cfg.l2.line_bytes;
        let (l1, access_kind) = match kind {
            HierAccess::Fetch => (&mut self.l1i, AccessKind::Read),
            HierAccess::Load => (&mut self.l1d, AccessKind::Read),
            HierAccess::Store => (&mut self.l1d, AccessKind::Write),
        };
        let l1_latency = l1.config().hit_latency;
        let l1_out = l1.access(addr, access_kind);
        let write_through =
            kind.is_store() && l1.config().write_policy == WritePolicy::WriteThroughNoAllocate;

        if l1_out.hit {
            self.stats.l1_hits += 1;
            if write_through {
                // The written word crosses the L1 bus and updates the L2.
                let t = self.l1_bus.transfer(now + l1_latency, 8);
                return self.l2_access(t, addr, AccessKind::Write, line);
            }
            return now + l1_latency;
        }

        if write_through {
            // WTNA write miss: no L1 allocate; the write goes to the L2.
            let t = self.l1_bus.transfer(now + l1_latency, 8);
            return self.l2_access(t, addr, AccessKind::Write, line);
        }

        // Read/fetch miss: request travels the L1 bus, is serviced by the
        // L2 (possibly memory), and the line returns over the L1 bus.
        let req = self.l1_bus.transfer(now + l1_latency, 8);
        let data_at_l2 = self.l2_access(req, addr, AccessKind::Read, line);
        let done = self.l1_bus.transfer(data_at_l2, line);
        if self.cfg.prefetch_next_line {
            // Background next-line prefetch: state moves now, traffic is
            // scheduled behind the demand transfer, and the requester does
            // not wait for it.
            let next = (addr & !(line - 1)) + line;
            let l1 = match kind {
                HierAccess::Fetch => &mut self.l1i,
                _ => &mut self.l1d,
            };
            if !l1.probe(next) {
                l1.access(next, AccessKind::Read);
                let at_l2 = self.l2_access(done, next, AccessKind::Read, line);
                self.l1_bus.transfer(at_l2, line);
            }
        }
        done
    }

    /// L2 access with miss handling; returns data-ready cycle at the L2.
    #[inline]
    fn l2_access(&mut self, now: u64, addr: Addr, kind: AccessKind, line: u64) -> u64 {
        let hit_latency = self.cfg.l2.hit_latency;
        let out = self.l2.access(addr, kind);
        if out.hit {
            self.stats.l2_hits += 1;
            return now + hit_latency;
        }
        self.stats.mem_accesses += 1;
        if let Some(victim) = out.writeback {
            // Dirty eviction drains to memory over the L2 bus.
            self.l2_bus.transfer(now + hit_latency, line);
            let _ = victim;
        }
        if !out.filled {
            // Write miss on a no-allocate policy would land here; the L2 is
            // WBWA in the paper config, so this only covers custom configs:
            // the write goes straight to memory.
            let t = self.l2_bus.transfer(now + hit_latency, 8);
            return t + self.cfg.mem_latency;
        }
        let t = self.l2_bus.transfer(now + hit_latency, line);
        t + self.cfg.mem_latency
    }

    /// Applies the state update of an access with no timing — the SMARTS
    /// functional-warming path. LRU, allocation, and dirty bits move exactly
    /// as in [`MemHierarchy::access`].
    #[inline]
    pub fn warm_access(&mut self, addr: Addr, kind: HierAccess) {
        let (l1, access_kind) = match kind {
            HierAccess::Fetch => (&mut self.l1i, AccessKind::Read),
            HierAccess::Load => (&mut self.l1d, AccessKind::Read),
            HierAccess::Store => (&mut self.l1d, AccessKind::Write),
        };
        let out = l1.access(addr, access_kind);
        let write_through =
            kind.is_store() && l1.config().write_policy == WritePolicy::WriteThroughNoAllocate;
        if write_through || !out.hit {
            self.l2.access(addr, access_kind);
        }
        if self.cfg.prefetch_next_line && !out.hit && !kind.is_store() {
            // Mirror the timed path's next-line prefetch so warmed and
            // timed state stay identical.
            let line = self.cfg.l2.line_bytes;
            let next = (addr & !(line - 1)) + line;
            let l1 = match kind {
                HierAccess::Fetch => &mut self.l1i,
                _ => &mut self.l1d,
            };
            if !l1.probe(next) && !l1.access(next, AccessKind::Read).hit {
                self.l2.access(next, AccessKind::Read);
            }
        }
    }

    /// Warms only the data side (loads/stores), leaving the I-cache alone.
    /// Used by cache-only warm-up variants for data references.
    pub fn warm_data(&mut self, addr: Addr, is_store: bool) {
        self.warm_access(addr, if is_store { HierAccess::Store } else { HierAccess::Load });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::paper())
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let mut m = h();
        let done = m.access(0, 0x4000, HierAccess::Load);
        // L1 miss + bus + L2 miss + memory + refills: far more than hit time.
        assert!(done > m.config().mem_latency);
        assert_eq!(m.stats().mem_accesses, 1);
        assert_eq!(m.stats().l1_hits, 0);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut m = h();
        let t1 = m.access(0, 0x4000, HierAccess::Load);
        let t2 = m.access(t1, 0x4000, HierAccess::Load);
        assert_eq!(t2 - t1, m.config().l1d.hit_latency);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn l2_hit_is_faster_than_memory() {
        let mut m = h();
        let t1 = m.access(0, 0x4000, HierAccess::Load);
        // Evict from tiny L1 by filling its set: L1D has 128 sets, so
        // addresses 0x4000 + k*128*64 collide.
        let stride = 128 * 64;
        let mut t = t1;
        for k in 1..=4u64 {
            t = m.access(t, 0x4000 + k * stride, HierAccess::Load);
        }
        let before = m.stats().l2_hits;
        let t_l2 = m.access(t, 0x4000, HierAccess::Load);
        assert_eq!(m.stats().l2_hits, before + 1);
        let l2_latency = t_l2 - t;
        assert!(l2_latency > m.config().l1d.hit_latency);
        assert!(l2_latency < m.config().mem_latency);
    }

    #[test]
    fn stores_write_through_to_l2() {
        let mut m = h();
        m.access(0, 0x4000, HierAccess::Store);
        // WTNA: no L1 allocate...
        assert!(!m.l1d.probe(0x4000));
        // ...but the L2 saw the write (write-allocate there).
        assert!(m.l2.probe(0x4000));
    }

    #[test]
    fn fetch_uses_l1i() {
        let mut m = h();
        m.access(0, 0x1_0000, HierAccess::Fetch);
        assert!(m.l1i.probe(0x1_0000));
        assert!(!m.l1d.probe(0x1_0000));
    }

    #[test]
    fn warm_access_matches_timed_state() {
        // Applying the same reference stream through warm_access and access
        // must produce identical tag state.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let stream: Vec<(u64, HierAccess)> = (0..2000)
            .map(|_| {
                let addr = rng.gen_range(0..1u64 << 20) & !7;
                let kind = match rng.gen_range(0..3) {
                    0 => HierAccess::Fetch,
                    1 => HierAccess::Load,
                    _ => HierAccess::Store,
                };
                (addr, kind)
            })
            .collect();
        let mut timed = h();
        let mut warm = h();
        let mut now = 0;
        for &(addr, kind) in &stream {
            now = timed.access(now, addr, kind);
            warm.warm_access(addr, kind);
        }
        for set in 0..timed.l1d.num_sets() {
            assert_eq!(timed.l1d.set_tags_mru_order(set), warm.l1d.set_tags_mru_order(set));
        }
        for set in 0..timed.l2.num_sets() {
            assert_eq!(timed.l2.set_tags_mru_order(set), warm.l2.set_tags_mru_order(set));
        }
    }

    #[test]
    fn prefetcher_pulls_next_line() {
        let mut cfg = HierarchyConfig::paper();
        cfg.prefetch_next_line = true;
        let mut m = MemHierarchy::new(cfg);
        m.access(0, 0x4000, HierAccess::Load);
        assert!(m.l1d.probe(0x4040), "next line prefetched");
        assert!(!m.l1d.probe(0x4080), "only one line ahead");
        // Fetches prefetch into the I-cache.
        m.access(0, 0x1_0000, HierAccess::Fetch);
        assert!(m.l1i.probe(0x1_0040));
    }

    #[test]
    fn prefetcher_keeps_warm_and_timed_state_identical() {
        use rand::prelude::*;
        let mut cfg = HierarchyConfig::paper();
        cfg.prefetch_next_line = true;
        let mut timed = MemHierarchy::new(cfg.clone());
        let mut warm = MemHierarchy::new(cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let mut now = 0;
        for _ in 0..2000 {
            let addr = rng.gen_range(0..1u64 << 20) & !7;
            let kind = match rng.gen_range(0..3) {
                0 => HierAccess::Fetch,
                1 => HierAccess::Load,
                _ => HierAccess::Store,
            };
            now = timed.access(now, addr, kind);
            warm.warm_access(addr, kind);
        }
        for set in 0..timed.l1d.num_sets() {
            assert_eq!(timed.l1d.set_tags_mru_order(set), warm.l1d.set_tags_mru_order(set));
        }
        for set in 0..timed.l2.num_sets() {
            assert_eq!(timed.l2.set_tags_mru_order(set), warm.l2.set_tags_mru_order(set));
        }
    }

    #[test]
    fn reset_stats_keeps_state() {
        let mut m = h();
        m.access(0, 0x4000, HierAccess::Load);
        m.reset_stats();
        assert_eq!(m.stats().accesses, 0);
        assert!(m.l1d.probe(0x4000));
    }

    #[test]
    fn bus_contention_slows_misses() {
        // Two immediate misses to different sets: the second waits on the
        // shared L1 bus, so it completes strictly later.
        let mut m = h();
        let d1 = m.access(0, 0x0_4000, HierAccess::Load);
        let d2 = m.access(0, 0x10_8000, HierAccess::Load);
        assert!(d2 > d1);
    }
}
