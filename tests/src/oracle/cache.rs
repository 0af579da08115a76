//! Reference (oracle) cache: the original array-of-structs implementation,
//! kept verbatim as the behavioral specification for the SoA [`Cache`]
//! kernels. The equivalence proptests replay identical access and
//! reconstruction streams through both and require bit-identical outcomes,
//! statistics, and per-set dumps.
//!
//! Nothing here is on a hot path — clarity over speed.
//!
//! [`Cache`]: rsr_cache::Cache

use rsr_cache::{
    AccessKind, AccessOutcome, Addr, CacheConfig, CacheStats, ReconOutcome, WayDump, WritePolicy,
};

const NOT_RECON: u8 = u8::MAX;

#[derive(Clone, Debug)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU rank: 0 = most recently used, `assoc-1` = least recently used.
    rank: u8,
    /// Reconstruction order within the set (`NOT_RECON` if stale).
    recon_seq: u8,
}

impl Line {
    fn invalid(rank: u8) -> Line {
        Line { valid: false, dirty: false, tag: 0, rank, recon_seq: NOT_RECON }
    }

    fn is_reconstructed(&self) -> bool {
        self.recon_seq != NOT_RECON
    }
}

/// The original set-associative, true-LRU cache with per-line structs.
///
/// Same access and reconstruction semantics as [`rsr_cache::Cache`], same
/// statistics, same `dump_set`/`set_tags_mru_order` observers. It omits the
/// batched per-set span walk (`Cache::reconstruct_span`) — that is pinned
/// against the oracle full scan by the `recon_partition` suite.
#[derive(Clone, Debug)]
pub struct RefCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    num_sets: usize,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
    complete_sets: usize,
    recon_counts: Vec<u8>,
}

impl RefCache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> RefCache {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let num_sets = cfg.num_sets();
        let assoc = cfg.assoc;
        let mut lines = Vec::with_capacity(num_sets * assoc);
        for _ in 0..num_sets {
            for way in 0..assoc {
                lines.push(Line::invalid(way as u8));
            }
        }
        RefCache {
            set_mask: num_sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            num_sets,
            lines,
            stats: CacheStats::default(),
            complete_sets: 0,
            recon_counts: vec![0; num_sets],
            cfg,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Set index for an address.
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Tag for an address (line and set-index bits stripped).
    pub fn tag_of(&self, addr: Addr) -> u64 {
        addr >> self.line_shift >> self.num_sets.trailing_zeros()
    }

    fn line_addr(&self, set: usize, tag: u64) -> Addr {
        ((tag << self.num_sets.trailing_zeros()) | set as u64) << self.line_shift
    }

    fn set_lines_ref(&self, set: usize) -> &[Line] {
        let a = self.cfg.assoc;
        &self.lines[set * a..(set + 1) * a]
    }

    /// Checks for presence without updating any state.
    pub fn probe(&self, addr: Addr) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        self.set_lines_ref(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs one access; see [`rsr_cache::Cache::access`] for the contract.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let policy = self.cfg.write_policy;
        self.stats.accesses += 1;

        let lines = {
            let a = self.cfg.assoc;
            &mut self.lines[set * a..(set + 1) * a]
        };

        if let Some(hit_way) = lines.iter().position(|l| l.valid && l.tag == tag) {
            self.stats.hits += 1;
            let hit_rank = lines[hit_way].rank;
            for l in lines.iter_mut() {
                if l.rank < hit_rank {
                    l.rank += 1;
                }
            }
            lines[hit_way].rank = 0;
            if kind == AccessKind::Write && policy == WritePolicy::WriteBackAllocate {
                lines[hit_way].dirty = true;
            }
            return AccessOutcome { hit: true, filled: false, writeback: None };
        }

        self.stats.misses += 1;

        if kind == AccessKind::Write && policy == WritePolicy::WriteThroughNoAllocate {
            return AccessOutcome { hit: false, filled: false, writeback: None };
        }

        let victim = match lines.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let mut lru = 0;
                for (i, l) in lines.iter().enumerate() {
                    if l.rank > lines[lru].rank {
                        lru = i;
                    }
                }
                lru
            }
        };
        let victim_rank = lines[victim].rank;
        let mut writeback = None;
        if lines[victim].valid && lines[victim].dirty {
            let wb_tag = lines[victim].tag;
            self.stats.writebacks += 1;
            writeback = Some(self.line_addr(set, wb_tag));
        }

        let lines = {
            let a = self.cfg.assoc;
            &mut self.lines[set * a..(set + 1) * a]
        };
        for l in lines.iter_mut() {
            if l.rank < victim_rank {
                l.rank += 1;
            }
        }
        lines[victim] = Line {
            valid: true,
            dirty: kind == AccessKind::Write && policy == WritePolicy::WriteBackAllocate,
            tag,
            rank: 0,
            // The new block inherits the victim's reconstructed status.
            recon_seq: lines[victim].recon_seq,
        };
        self.stats.fills += 1;
        AccessOutcome { hit: false, filled: true, writeback }
    }

    /// Invalidates everything.
    pub fn invalidate_all(&mut self) {
        for set in 0..self.num_sets {
            let a = self.cfg.assoc;
            for (way, line) in self.lines[set * a..(set + 1) * a].iter_mut().enumerate() {
                *line = Line::invalid(way as u8);
            }
        }
        self.complete_sets = 0;
        self.recon_counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Clears reconstructed bits; see [`rsr_cache::Cache::begin_reconstruction`].
    pub fn begin_reconstruction(&mut self) {
        let assoc = self.cfg.assoc;
        for set in 0..self.num_sets {
            if self.recon_counts[set] == 0 {
                continue;
            }
            for l in &mut self.lines[set * assoc..(set + 1) * assoc] {
                l.recon_seq = NOT_RECON;
            }
            self.recon_counts[set] = 0;
        }
        self.complete_sets = 0;
    }

    /// Applies one logged reference during the reverse scan; see
    /// [`rsr_cache::Cache::reconstruct_ref`] for the rules.
    pub fn reconstruct_ref(&mut self, addr: Addr) -> ReconOutcome {
        let set = self.set_index(addr);
        let assoc = self.cfg.assoc as u8;
        if self.recon_counts[set] >= assoc {
            return ReconOutcome::SetComplete;
        }
        let tag = self.tag_of(addr);
        let seq = self.recon_counts[set];
        let lines = {
            let a = self.cfg.assoc;
            &mut self.lines[set * a..(set + 1) * a]
        };

        if let Some(way) = lines.iter().position(|l| l.valid && l.tag == tag) {
            if lines[way].is_reconstructed() {
                return ReconOutcome::Redundant;
            }
            lines[way].recon_seq = seq;
            self.recon_counts[set] += 1;
            if self.recon_counts[set] >= assoc {
                self.complete_sets += 1;
            }
            return ReconOutcome::MarkedPresent;
        }

        let victim = match lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_reconstructed())
            .max_by_key(|(_, l)| (!l.valid, l.rank))
            .map(|(i, _)| i)
        {
            Some(i) => i,
            None => unreachable!("incomplete set has a stale way"),
        };
        lines[victim] =
            Line { valid: true, dirty: false, tag, rank: lines[victim].rank, recon_seq: seq };
        self.recon_counts[set] += 1;
        if self.recon_counts[set] >= assoc {
            self.complete_sets += 1;
        }
        ReconOutcome::Inserted
    }

    /// Whether every set has been fully reconstructed.
    pub fn fully_reconstructed(&self) -> bool {
        self.complete_sets == self.num_sets
    }

    /// Number of fully reconstructed sets.
    pub fn complete_sets(&self) -> usize {
        self.complete_sets
    }

    /// Normalizes LRU ranks; see [`rsr_cache::Cache::finish_reconstruction`].
    pub fn finish_reconstruction(&mut self) {
        let assoc = self.cfg.assoc;
        for set in 0..self.num_sets {
            if self.recon_counts[set] == 0 {
                continue;
            }
            let lines = &mut self.lines[set * assoc..(set + 1) * assoc];
            let mut order: Vec<usize> = (0..assoc).collect();
            // Reconstructed first by recon_seq, then stale-valid by old rank,
            // then invalid ways last.
            order.sort_unstable_by_key(|&w| {
                let l = &lines[w];
                if l.is_reconstructed() {
                    (0u8, l.recon_seq, l.rank)
                } else if l.valid {
                    (1, 0, l.rank)
                } else {
                    (2, 0, l.rank)
                }
            });
            for (new_rank, &w) in order.iter().enumerate() {
                lines[w].rank = new_rank as u8;
            }
        }
    }

    /// Content of one set, one [`WayDump`] per way.
    pub fn dump_set(&self, set: usize) -> Vec<WayDump> {
        self.set_lines_ref(set)
            .iter()
            .map(|l| (l.tag, l.valid, l.dirty, l.rank, l.is_reconstructed()))
            .collect()
    }

    /// Tags of valid lines in a set, MRU first.
    pub fn set_tags_mru_order(&self, set: usize) -> Vec<u64> {
        let mut v: Vec<(u8, u64)> =
            self.set_lines_ref(set).iter().filter(|l| l.valid).map(|l| (l.rank, l.tag)).collect();
        v.sort_by_key(|&(rank, _)| rank);
        v.into_iter().map(|(_, tag)| tag).collect()
    }
}
