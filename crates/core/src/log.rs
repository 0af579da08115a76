//! Skip-region logging (paper §3: "While skipping between clusters, the
//! data necessary for reconstruction are recorded").
//!
//! The paper's records carry the current PC, the next PC, the referenced
//! address and two flags (instruction vs. data, load vs. store) for memory,
//! and PC, next PC, outcome, target and control kind for branches. This
//! log keeps only the fields reconstruction reads.
//!
//! Instruction references are logged at cache-line granularity (a record is
//! appended only when fetch crosses into a different line) — reconstruction
//! is line-granular, so finer logging would only burn memory.
//!
//! # Packed representation
//!
//! The log runs once per retired instruction over ~99 % of the program, so
//! its resident size and append cost dominate the cold phase. Every record
//! is therefore one `u64` word:
//!
//! * a memory record is the referenced address with `is_inst` folded into
//!   bit 0. Reconstruction is line-granular and lines are at least 4 B
//!   (`rsr_cache::CacheConfig::validate`), so the bit never moves a
//!   reference to another line. The load/store flag and the PCs are not
//!   kept: no reverse walk reads them.
//! * a branch record packs the 32-bit PC (high half) and the 32-bit
//!   taken-path target (low half). Both are 4-byte aligned, so their two
//!   alignment bits each carry the outcome and the control kind.
//!   `next_pc` is derived: `target` if taken, else `pc + 4`.
//!
//! Branch PCs and direct targets always fit: [`Cpu::new`] rejects a program
//! whose text, or any direct transfer's target, does not fit in 32 bits
//! with 4-byte alignment. An indirect transfer can still compute an
//! unrepresentable target. Its record then keeps a truncated target, and
//! the CPU faults at the very next fetch (that target lies outside the
//! text), so the run fails and no outcome is ever built from the record.
//!
//! Byte accounting ([`SkipLog::approx_bytes`], the budget check, and
//! [`SkipLog::peak_bytes`]) is [`RECORD_BYTES`] per record, derived from
//! the record counters, and always describes the *whole logged stream*.
//!
//! The log holds records only. The reconstruction index over them is
//! built by the side that reads it: the detailed follower and the sweep
//! replay seal each window into scratch they own (see [`ReconIndex`]). The
//! log's own boxed index exists only for the public `seal_*` calls.
//!
//! # Window retention
//!
//! A reverse walk under scan budget `pct` never reads a record older than
//! the floor `n − pct.of(n)` (paper §1: the percentage bounds "how much of
//! the logged trace (from the end) reconstruction may consume"). A log
//! given that budget as its retention ([`SkipLog::set_retention`]) still
//! appends every record, but keeps each stream in a power-of-two ring that
//! overwrites records once they fall below the floor. The floor never
//! moves back as the stream grows (`⌈pct·n/100⌉` rises by at most one per
//! record), so no seal, reverse walk, RAS walk, or demand scan under that
//! budget can tell the ring from the full log. The one reader that needs
//! history older than the window — the GHR at the window's start — takes
//! it from a shift register of the evicted conditionals' outcomes. A log
//! retains everything by default.

use rsr_branch::{PACKED_IDENTITY, PACKED_PREPEND};
use rsr_func::{Cpu, ExecError, RetireSink, Retired};
use rsr_isa::{Addr, CtrlKind};

use crate::{Pct, Schedule, SimError};

/// One logged control transfer (materialized view; storage is one packed
/// word).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// PC of the transfer.
    pub pc: Addr,
    /// Next PC actually executed.
    pub next_pc: Addr,
    /// Taken-path target (static target for not-taken conditionals).
    pub target: Addr,
    /// Control kind.
    pub kind: CtrlKind,
    /// Outcome.
    pub taken: bool,
}

/// Logged bytes per record, memory or branch.
pub const RECORD_BYTES: usize = 8;

/// Memory-record bit 0: the reference is an instruction fetch.
const MEM_INST: u64 = 1;

/// The alignment bits of a branch word's PC and target halves.
const BR_ALIGN: u64 = 3 | (3 << 32);

/// The memory record of a reference to `addr`.
#[inline(always)]
fn mem_word(addr: Addr, is_inst: bool) -> u64 {
    (addr & !MEM_INST) | is_inst as u64
}

/// The branch record of a transfer at `pc`: PC in the high half, target in
/// the low half, and the 4-bit meta (bit 0 taken, bits 1–3 kind) split
/// over the two halves' alignment bits.
#[inline(always)]
fn branch_word(pc: Addr, target: Addr, kind: CtrlKind, taken: bool) -> u64 {
    let meta = u64::from((taken as u8) | (kind_to_u8(kind) << 1));
    (((pc << 32) | (target & 0xffff_ffff)) & !BR_ALIGN) | (meta & 3) | ((meta >> 2) << 32)
}

/// The 4-bit meta of a branch word: bit 0 taken, bits 1–3 control kind.
#[inline(always)]
fn word_meta(w: u64) -> u8 {
    ((w & 3) | ((w >> 30) & 0xc)) as u8
}

/// PC of a branch word.
#[inline(always)]
fn word_pc(w: u64) -> Addr {
    (w >> 32) & !3
}

/// Taken-path target of a branch word.
#[inline(always)]
fn word_target(w: u64) -> Addr {
    w & 0xffff_fffc
}

/// Is a branch word a conditional branch (kind bits zero)?
#[inline(always)]
fn word_is_cond(w: u64) -> bool {
    word_meta(w) >> 1 == 0
}

/// Smallest ring a stream allocates.
const MIN_RING: usize = 64;

/// The first record index whose append needs a ring larger than `cap` to
/// keep the newest `keep` of the stream: the least `i` with
/// `keep.of(i + 1) > cap`.
fn grow_index(cap: usize, keep: Pct) -> usize {
    cap * 100 / usize::from(keep.value())
}

/// The oldest record index a `pct` budget reads in an `n`-record stream.
fn window_floor(n: usize, pct: Pct) -> usize {
    n - pct.of(n)
}

/// One record stream as a ring of packed words (see the module docs on
/// window retention): record `i` lives in slot `(i − origin) mod cap`,
/// where `cap` is the power-of-two ring length.
///
/// The ring is *settled* while no record has wrapped past `origin`
/// (`n − origin ≤ cap`): slot `j` then holds record `origin + j`, so the
/// stream reads as one contiguous, window-relative slice.
/// [`Ring::settle`] rotates a wrapped ring back into that shape. Only the
/// memory stream needs that; the branch readers index through
/// [`Ring::at`].
#[derive(Clone, Debug, Default)]
struct Ring {
    slots: Vec<u64>,
    /// Records appended this region.
    n: usize,
    /// Record index of slot 0.
    origin: usize,
    /// Record index whose append must first double the ring.
    grow_at: usize,
}

impl Ring {
    /// Empties the ring, keeping its allocation.
    fn clear(&mut self) {
        self.slots.clear();
        self.n = 0;
        self.origin = 0;
        self.grow_at = 0;
    }

    /// Appends one record; returns the record it overwrote once the ring
    /// has wrapped.
    #[inline(always)]
    fn push(&mut self, keep: Pct, word: u64) -> Option<u64> {
        let i = self.n;
        if i == self.grow_at {
            self.grow(keep);
        }
        let off = i - self.origin;
        let cap = self.slots.len();
        let old = std::mem::replace(&mut self.slots[off & (cap - 1)], word);
        self.n = i + 1;
        (off >= cap).then_some(old)
    }

    /// Doubles the ring. Settling first leaves every old slot in record
    /// order with the write head at the old capacity, where the new slots
    /// begin.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, keep: Pct) {
        self.settle();
        let cap = (self.slots.len() * 2).max(MIN_RING);
        self.slots.resize(cap, 0);
        self.grow_at = grow_index(cap, keep);
    }

    fn settled(&self) -> bool {
        self.n - self.origin <= self.slots.len()
    }

    /// Rotates a wrapped ring so slot 0 holds the oldest record still
    /// present (`n − cap`).
    fn settle(&mut self) {
        if !self.settled() {
            let cap = self.slots.len();
            self.slots.rotate_left((self.n - self.origin) & (cap - 1));
            self.origin = self.n - cap;
        }
    }

    /// Oldest record still in the ring; everything older was evicted.
    fn oldest(&self) -> usize {
        self.origin.max(self.n.saturating_sub(self.slots.len()))
    }

    /// Record `i` (present in the ring).
    #[inline]
    fn at(&self, i: usize) -> u64 {
        self.slots[(i - self.origin) & (self.slots.len() - 1)]
    }
}

/// The outcomes of the conditionals the branch ring has evicted: all the
/// GHR derivation ([`SkipLog::ghr_before`]) ever needs of them.
#[derive(Copy, Clone, Debug, Default)]
struct Evicted {
    /// Outcomes of the newest evicted conditionals, newest in bit 0.
    hist: u64,
    /// Conditionals evicted this region (`hist` holds the newest 64).
    conds: u64,
}

impl Evicted {
    #[inline(always)]
    fn note(&mut self, old: u64) {
        let cond = u64::from(word_is_cond(old));
        self.hist = (self.hist << cond) | (old & 1 & cond);
        self.conds += cond;
    }
}

/// Appends a branch word, noting the conditional it evicts, if any.
#[inline(always)]
fn append_branch_word(br: &mut Ring, evicted: &mut Evicted, keep: Pct, word: u64) {
    if let Some(old) = br.push(keep, word) {
        evicted.note(old);
    }
}

/// The log of one skip region. Data are kept only for the current region
/// and discarded when its cluster finishes (paper §3), bounding storage.
///
/// An optional byte budget ([`SkipLog::set_budget`]) hard-caps the region:
/// the first record that would push the log past the budget discards the
/// whole log and marks it [`SkipLog::truncated`] — the paper's no-history
/// fallback (§3.2), where the cluster runs from stale state instead of a
/// reconstruction that would need an unbounded reference history. Whether
/// a region truncates depends only on its own deterministic record stream,
/// so budget-driven degradation is identical at every thread count.
///
/// An optional retention window ([`SkipLog::set_retention`]) keeps only
/// the newest `pct` of each stream resident (see the module docs). It
/// changes what is *held*, never what is *logged*: every counter below,
/// the byte accounting, and the budget decision describe the full stream.
///
/// # Truncation, emptiness, and the append counter
///
/// Three observers describe a region's history and they are *not*
/// redundant:
///
/// * [`SkipLog::appended`] counts every record the region produced,
///   including any the budget later discarded;
/// * [`SkipLog::is_empty`] (and [`SkipLog::len`]) describe the region's
///   logged stream as it stands now — emptied by a budget discard;
/// * [`SkipLog::truncated`] says whether the budget fired.
///
/// A budget-truncated region is therefore **empty but has
/// `appended() > 0`** — merge and accounting code must use `appended()`
/// for "how much was logged" and `truncated()` for "is the history
/// complete", never `is_empty()` for either (an empty log also arises from
/// a region that simply logged nothing). [`SkipLog::peak_bytes`] likewise
/// survives truncation: it reports the high-water logged size *before*
/// the discard.
#[derive(Clone, Debug)]
pub struct SkipLog {
    mem: Ring,
    br: Ring,
    evicted: Evicted,
    /// Retention window: the newest `keep` of each stream stays resident.
    /// Survives [`SkipLog::reset`], like the budget.
    keep: Pct,
    /// Line of the previous fetch (`NO_LINE` before the first).
    last_fetch_line: Addr,
    /// Global history register value when logging began (end of the
    /// previous cluster) — seeds GHR inference for the earliest records
    /// in [`SkipLog::seal_branch_index`].
    pub ghr_at_start: u64,
    log_mem: bool,
    log_branches: bool,
    /// Byte cap for the region (`None` = unbounded). Survives
    /// [`SkipLog::reset`]: it is a property of the run, not the region.
    budget: Option<usize>,
    /// Set once the budget is exhausted; recording stops for the region.
    truncated: bool,
    /// Records the budget discarded (zero unless truncated).
    discarded: u64,
    /// The index the public `seal_*` calls build (see [`ReconIndex`]).
    /// Unsealed by [`SkipLog::reset`] and budget truncation. Boxed so an
    /// unindexed log stays one pointer wider.
    index: Option<Box<ReconIndex>>,
}

impl Default for SkipLog {
    fn default() -> Self {
        SkipLog::new(true, true, 0)
    }
}

const LINE_MASK: u64 = !63;
const NO_LINE: Addr = u64::MAX;

/// The budget-free cold-phase record sink, fused into the superblock
/// dispatch loop via [`RetireSink`] — the `#[inline(always)]` on `retire`
/// is binding on the inliner, where the closure form of [`Cpu::step_n`]
/// gets outlined once the sink body is nontrivial, costing a call per
/// retired instruction.
///
/// Holds the record rings split out of [`SkipLog`] plus the per-region
/// state the hot path keeps in registers: the retention window and the
/// fetch-line dedup tag. Every counter of the owning log derives from the
/// ring lengths, so nothing is settled afterwards.
struct FastSink<'a, const MEM: bool, const BR: bool> {
    mem: &'a mut Ring,
    br: &'a mut Ring,
    evicted: &'a mut Evicted,
    keep: Pct,
    last_line: Addr,
}

impl<const MEM: bool, const BR: bool> RetireSink for FastSink<'_, MEM, BR> {
    #[inline(always)]
    fn retire(&mut self, r: &Retired) {
        if MEM {
            let line = r.pc & LINE_MASK;
            if self.last_line != line {
                self.last_line = line;
                self.mem.push(self.keep, mem_word(r.pc, true));
            }
            if let Some(m) = r.mem {
                self.mem.push(self.keep, mem_word(m.addr, false));
            }
        }
        if BR {
            if let Some(b) = r.branch {
                let word = branch_word(r.pc, b.target, b.kind, b.taken);
                append_branch_word(self.br, self.evicted, self.keep, word);
            }
        }
    }
}

/// "Not a conditional branch" marker in the [`ReconIndex`] PHT key column
/// (real PHT keys fit because gshare history is capped at 26 bits), and
/// the per-column record-count ceiling of a sealable region — every sealed
/// record index must fit below it in a u32.
pub(crate) const CHAIN_NONE: u32 = u32::MAX;

/// Most memory records one skipped instruction can log: a fetch-line
/// record plus a data record. (Branch records are at most one.)
const MEM_RECORDS_PER_INST: u64 = 2;

/// Rejects a schedule for a logging policy when one of its skip regions
/// could log more records than a sealed index can address, so the run
/// fails typed before any instruction executes instead of mid-run. The
/// bound is conservative: it assumes every skipped instruction logs
/// [`MEM_RECORDS_PER_INST`] memory records. Shard boundaries only ever
/// shorten a region, so the gaps between windows bound every region.
pub(crate) fn check_indexable(schedule: &Schedule) -> Result<(), SimError> {
    let mut prev_end = 0u64;
    for w in schedule.windows() {
        let skip = w.start.saturating_sub(prev_end);
        if skip.saturating_mul(MEM_RECORDS_PER_INST) >= u64::from(CHAIN_NONE) {
            return Err(SimError::Spec(
                "a skip region is too long to log: its records could overflow a u32 index",
            ));
        }
        prev_end = w.end();
    }
    Ok(())
}

/// Per-level `(sets, line shift)` of L1I, L1D, and L2: everything a
/// memory-side index depends on ([`ReconGeometry::mem_key`]).
pub(crate) type MemKey = (usize, u32, usize, u32, usize, u32);

/// The structure geometry a log's reconstruction index was sealed for.
///
/// Derivable from configuration alone, and stored with the index so
/// consumers can verify the spans match their structures before trusting
/// them (on a mismatch they seal their own index on the spot).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReconGeometry {
    /// L1I set count (power of two).
    pub l1i_sets: usize,
    /// L1I line-offset shift (log₂ line bytes).
    pub l1i_line_shift: u32,
    /// L1D set count.
    pub l1d_sets: usize,
    /// L1D line-offset shift.
    pub l1d_line_shift: u32,
    /// Unified L2 set count.
    pub l2_sets: usize,
    /// L2 line-offset shift.
    pub l2_line_shift: u32,
    /// gshare global-history bits (PHT index width, ≤ 26).
    pub ghr_bits: u32,
    /// BTB entry count (power of two).
    pub btb_entries: usize,
}

impl ReconGeometry {
    /// The geometry of a configured machine.
    pub fn of_machine(machine: &crate::MachineConfig) -> ReconGeometry {
        ReconGeometry {
            l1i_sets: machine.hier.l1i.num_sets(),
            l1i_line_shift: machine.hier.l1i.line_bytes.trailing_zeros(),
            l1d_sets: machine.hier.l1d.num_sets(),
            l1d_line_shift: machine.hier.l1d.line_bytes.trailing_zeros(),
            l2_sets: machine.hier.l2.num_sets(),
            l2_line_shift: machine.hier.l2.line_bytes.trailing_zeros(),
            ghr_bits: machine.pred.ghr_bits,
            btb_entries: machine.pred.btb_entries,
        }
    }

    /// The memory-side fields: two geometries with equal keys can share
    /// one memory-side index regardless of their predictors.
    pub(crate) fn mem_key(&self) -> MemKey {
        (
            self.l1i_sets,
            self.l1i_line_shift,
            self.l1d_sets,
            self.l1d_line_shift,
            self.l2_sets,
            self.l2_line_shift,
        )
    }
}

/// The partitioned reconstruction index (paper §3.1/§3.2 exploited
/// structurally): memory records bucketed by (cache level, set) as
/// newest-first u32 record-index spans over the log's memory words, plus
/// the branch side's sealed PHT-key column and final GHR.
///
/// The side that reads an index seals it, into scratch it owns: the
/// sequential engine keeps one per run and rebuilds it every window, and
/// the stream's replay keeps an arena of them keyed by geometry. A skip
/// log in flight between the functional leader and the replay therefore
/// carries records only. The log's own boxed index serves only the public
/// `seal_*` calls ([`SkipLog::seal_mem_window`],
/// [`SkipLog::seal_branch_index`]).
///
/// The memory side is a counting sort per level: `off[set]..off[set+1]`
/// delimits set `set`'s span in the `idx` column, filled so each span
/// holds strictly descending record indices — exactly the newest-first
/// order the reverse scan consumes, but *contiguous*, so a set walk is a
/// linear read plus independent gathers from the memory words (no
/// pointer chasing; the equivalent tail-chain layout measured ~1.6×
/// slower on mcf because every link was a dependent cache miss).
///
/// **Only the budget window is indexed.** The reverse walks never read a
/// record older than the scan budget's cut (`n − pct.of(n)`, §3.1/§3.2),
/// so a seal for budget `pct` covers just the records `[cut, n)`.
/// Resident cost is therefore ~4 B per *in-budget* record per indexed
/// level (records are *indexed*, never copied) plus one u32 per set; the
/// log itself holds its retention window (see [`SkipLog::set_retention`]).
/// Memory spans hold positions in the log's settled memory words
/// (record index minus [`SkipLog::mem_base`], fixed while the log is
/// unchanged) and serve any budget whose cut is at or past
/// [`ReconIndex::mem_from`], so a full seal (`mem_from == 0`) serves every
/// budget.
///
/// The L1I and L1D spans are disjoint by construction: every memory
/// record is an instruction *or* a data reference, so the two `idx`
/// columns together hold each indexed record exactly once.
///
/// The branch side deliberately has **no** per-entry spans: the demand
/// scan's shared reverse cursor must consume every passed record to stay
/// bit-identical to the sequential path (each passed record feeds other
/// entries' inferences and the BTB), so an entry-skipping walk is
/// unusable. What *can* move to seal time is the GHR forward pass: the
/// per-record PHT keys and the region-final GHR. The per-record branch
/// columns (`pht_key`, `br_flags`, `pht_state`) are *window-relative*:
/// entry `j` describes branch record `br_base + j`. The hot worklist
/// (`br_hot`) holds absolute record indices.
///
/// A region with `u32::MAX` or more records in a column cannot be
/// indexed; run specs reject schedules that could produce one
/// ([`check_indexable`]).
#[derive(Clone, Debug)]
pub(crate) struct ReconIndex {
    /// Geometry the spans were keyed by.
    pub(crate) geom: ReconGeometry,
    /// Memory-side spans are valid for exactly this `mem_len` (`None` =
    /// not sealed).
    pub(crate) mem_sealed: Option<usize>,
    /// Oldest memory record (absolute index) the spans index: they serve
    /// any scan budget whose cut is at or past it.
    pub(crate) mem_from: usize,
    /// Branch-side columns are valid for exactly this `branch_len`.
    pub(crate) br_sealed: Option<usize>,
    /// Scan budget percentage the branch-side flags were sealed under —
    /// [`BR_F_PHT_FLUSH_LW`] placement depends on the budget window, so a
    /// reconstructor running a different budget must not use the index.
    pub(crate) br_pct: Option<Pct>,
    /// L1I span bounds: set `s` owns `l1i_idx[l1i_off[s]..l1i_off[s+1]]`.
    pub(crate) l1i_off: Vec<u32>,
    /// Instruction record positions, newest-first within each set span.
    pub(crate) l1i_idx: Vec<u32>,
    /// L1D span bounds.
    pub(crate) l1d_off: Vec<u32>,
    /// Data record positions, newest-first within each set span.
    pub(crate) l1d_idx: Vec<u32>,
    /// Unified-L2 span bounds.
    pub(crate) l2_off: Vec<u32>,
    /// All memory record positions, newest-first within each L2 set span.
    pub(crate) l2_idx: Vec<u32>,
    /// Oldest branch record the window-relative columns describe: the
    /// budget cut the branch side was sealed under.
    pub(crate) br_base: usize,
    /// PHT index probed by each in-window branch record (`CHAIN_NONE`
    /// for non-conditional records), from the sealed GHR forward pass.
    pub(crate) pht_key: Vec<u32>,
    /// Per-record scan flags ([`BR_F_COND`] / [`BR_F_TAKEN`] /
    /// [`BR_F_BTB_LW`]) of each in-window record: everything the demand
    /// scan's common path needs, in one byte, so it stops decoding the
    /// packed meta column.
    pub(crate) br_flags: Vec<u8>,
    /// Compacted demand-scan worklist: indices of the in-budget records
    /// with any effectful flag ([`BR_F_PHT_RESOLVE`] / [`BR_F_PHT_FLUSH_LW`]
    /// / [`BR_F_BTB_LW`]), descending (newest-first). Every other record
    /// in the window is a proven no-op, so the scan hops this list and
    /// accounts the skipped runs arithmetically instead of iterating
    /// 1-by-1 over the flags column.
    pub(crate) br_hot: Vec<u32>,
    /// Packed [`rsr_branch::StateMap`] of in-window record *i*'s PHT
    /// entry after the newest-first scan has consumed record *i* — the
    /// counter-inference state precomputed at seal time (meaningful for
    /// conditional records only). Because reconstructed marks are monotonic within a region,
    /// the demand scan's incremental inference state at any feed it
    /// actually performs equals this pure function of the log suffix.
    pub(crate) pht_state: Vec<u8>,
    /// GHR after the whole region (what `Gshare::set_ghr` must receive).
    pub(crate) ghr_final: u64,
    /// `ghr_at_start` value the PHT keys were hashed under — every key
    /// depends on it, so a changed start GHR invalidates the seal.
    pub(crate) ghr_start: u64,
    /// Counting-sort cursor scratch, kept so pooled logs re-seal without
    /// reallocating.
    scratch: Vec<u32>,
    /// Branch-seal scratch (per-key inference state + BTB seen bitmap),
    /// kept for the same reason.
    br_scratch: Vec<u8>,
}

/// [`ReconIndex::br_flags`] bit: conditional branch (has a PHT key).
pub(crate) const BR_F_COND: u8 = 1 << 0;
/// [`ReconIndex::br_flags`] bit: taken transfer (touches the BTB).
pub(crate) const BR_F_TAKEN: u8 = 1 << 1;
/// [`ReconIndex::br_flags`] bit: *last writer* of its BTB slot — the
/// newest taken record mapping to that slot in the sealed window. In the
/// newest-first scan only the first record to reach an unmarked slot ever
/// writes it, and marks are monotonic, so every non-last-writer record is
/// a guaranteed no-op: a newer record for the slot was scanned earlier
/// (budgets truncate the *old* end of the scan) and either wrote-and-
/// marked the slot or found it already marked. The scan can therefore
/// skip the BTB probe for all but these records.
pub(crate) const BR_F_BTB_LW: u8 = 1 << 2;
/// [`ReconIndex::br_flags`] bit: conditional record older than its PHT
/// key's *exact-resolution point* — the newest record at which the sealed
/// inference state pins the counter uniquely. The demand cursor is global
/// and monotonic from the newest record, so by the time the scan reaches
/// a flagged record its key is always already marked reconstructed and
/// the record is a guaranteed no-op: the scan can skip the key load and
/// the reconstructed-bit probe (its only random accesses) entirely.
/// Like [`BR_F_BTB_LW`], this is sound because budgets truncate the *old*
/// end of the scan — a budget cut can stop the scan before the
/// resolution point, but never process records beyond it out of order.
pub(crate) const BR_F_PHT_DEAD: u8 = 1 << 3;
/// [`ReconIndex::br_flags`] bit: this record *is* its PHT key's
/// exact-resolution point — the sealed state pins the counter uniquely
/// and the key cannot already be marked when the monotonic cursor gets
/// here (marks before exhaustion happen only at resolution points, one
/// per key), so the scan applies `set_counter` + `mark_reconstructed`
/// without probing the reconstructed bitset first.
pub(crate) const BR_F_PHT_RESOLVE: u8 = 1 << 4;
/// [`ReconIndex::br_flags`] bit: the *oldest* never-resolving
/// conditional for its PHT key within the sealed scan budget — the one
/// record whose composed state the exhaustion flush will read (older
/// feeds of the same key overwrite newer ones, and the flush can only
/// fire after the scan has consumed the whole budget window). Every
/// other unresolved conditional's bookkeeping write is provably
/// overwritten before it can be observed, so the scan skips it. Valid
/// only for the budget the index was sealed under
/// ([`ReconIndex::br_pct`]); a reconstructor running a different budget
/// seals its own index.
pub(crate) const BR_F_PHT_FLUSH_LW: u8 = 1 << 5;

impl ReconIndex {
    pub(crate) fn new(geom: ReconGeometry) -> ReconIndex {
        ReconIndex {
            geom,
            mem_sealed: None,
            mem_from: 0,
            br_sealed: None,
            br_pct: None,
            br_base: 0,
            l1i_off: Vec::new(),
            l1i_idx: Vec::new(),
            l1d_off: Vec::new(),
            l1d_idx: Vec::new(),
            l2_off: Vec::new(),
            l2_idx: Vec::new(),
            pht_key: Vec::new(),
            br_flags: Vec::new(),
            br_hot: Vec::new(),
            pht_state: Vec::new(),
            ghr_final: 0,
            ghr_start: 0,
            scratch: Vec::new(),
            br_scratch: Vec::new(),
        }
    }

    /// Drops the sealed state but keeps every allocation (indexes ride
    /// pooled logs across regions, like the columns they chain).
    fn unseal(&mut self) {
        self.mem_sealed = None;
        self.br_sealed = None;
        self.br_pct = None;
    }

    /// Re-keys the scratch to a different geometry, keeping every
    /// allocation. The build passes size their spans and chains from the
    /// geometry and record count on each call, so one scratch index can
    /// serve many machine configs back to back — the sweep engine
    /// retargets per config instead of holding one index per config
    /// resident.
    pub(crate) fn retarget(&mut self, geom: ReconGeometry) {
        self.geom = geom;
        self.unseal();
    }
}

impl SkipLog {
    /// Creates an empty log recording the requested streams, retaining
    /// every record.
    pub fn new(log_mem: bool, log_branches: bool, ghr_at_start: u64) -> SkipLog {
        SkipLog {
            mem: Ring::default(),
            br: Ring::default(),
            evicted: Evicted::default(),
            keep: Pct::new(100),
            last_fetch_line: NO_LINE,
            ghr_at_start,
            log_mem,
            log_branches,
            budget: None,
            truncated: false,
            discarded: 0,
            index: None,
        }
    }

    /// Builds a log directly from records (tests and offline tooling):
    /// memory references as `(addr, is_inst)`, as [`SkipLog::mem_refs_rev`]
    /// yields them. Both streams are marked enabled. The packing keeps
    /// only what reconstruction reads, so a branch record reads back with
    /// `next_pc` derived from its outcome and PC and target truncated to
    /// 32-bit, 4-byte-aligned values.
    pub fn from_records<M, B>(mem: M, branches: B, ghr_at_start: u64) -> SkipLog
    where
        M: IntoIterator<Item = (Addr, bool)>,
        B: IntoIterator<Item = BranchRecord>,
    {
        let mut log = SkipLog::new(true, true, ghr_at_start);
        for (addr, is_inst) in mem {
            log.push_mem(addr, is_inst);
        }
        for b in branches {
            log.push_branch(b.pc, b.target, b.kind, b.taken);
        }
        log
    }

    /// Clears the log for a new skip region, keeping allocated capacity
    /// (logs are reused across regions to avoid reallocation churn), the
    /// configured budget, and the retention window.
    pub fn reset(&mut self, log_mem: bool, log_branches: bool, ghr_at_start: u64) {
        self.clear_records();
        self.last_fetch_line = NO_LINE;
        self.ghr_at_start = ghr_at_start;
        self.log_mem = log_mem;
        self.log_branches = log_branches;
        self.truncated = false;
        self.discarded = 0;
        if let Some(ix) = self.index.as_deref_mut() {
            ix.unseal();
        }
    }

    /// Empties both rings and the evicted-outcome register, keeping their
    /// allocations.
    fn clear_records(&mut self) {
        self.mem.clear();
        self.br.clear();
        self.evicted = Evicted::default();
    }

    /// Caps the region's logged bytes (`None` = unbounded, the default).
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// Keeps only the newest `keep` of each stream resident — the widest
    /// scan budget any reconstruction from this log will run (100 %, the
    /// default, keeps everything). Records below the floor
    /// `n − keep.of(n)` are overwritten in place; appending, the counters,
    /// and the byte accounting are unchanged. Survives
    /// [`SkipLog::reset`].
    ///
    /// # Panics
    ///
    /// If the log holds records: the window must be fixed before the
    /// region starts.
    pub fn set_retention(&mut self, keep: Pct) {
        assert!(self.is_empty(), "set the retention window before recording");
        self.keep = keep;
    }

    /// Ring slots currently allocated per stream `(mem, branches)`: what
    /// the log holds resident. Under retention `keep` each stays at most
    /// `keep.of(n).next_power_of_two()` once past the smallest ring.
    pub fn retained_slots(&self) -> (usize, usize) {
        (self.mem.slots.len(), self.br.slots.len())
    }

    /// Did this region exhaust its budget? A truncated log holds nothing:
    /// its history is incomplete, so reconstruction must not run from it.
    /// See the type-level docs for how this interacts with
    /// [`SkipLog::is_empty`] and [`SkipLog::appended`].
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Largest logged size the region reached (equals
    /// [`SkipLog::approx_bytes`] unless truncated). Like the budget it
    /// measures the full logged stream, not the retained window.
    pub fn peak_bytes(&self) -> usize {
        RECORD_BYTES * self.appended() as usize
    }

    /// Records appended this region, counting any the budget discarded —
    /// after truncation this stays at its high-water value while
    /// [`SkipLog::len`] drops to zero.
    pub fn appended(&self) -> u64 {
        self.len() as u64 + self.discarded
    }

    #[inline]
    fn push_mem(&mut self, addr: Addr, is_inst: bool) {
        self.mem.push(self.keep, mem_word(addr, is_inst));
    }

    #[inline]
    fn push_branch(&mut self, pc: Addr, target: Addr, kind: CtrlKind, taken: bool) {
        let word = branch_word(pc, target, kind, taken);
        append_branch_word(&mut self.br, &mut self.evicted, self.keep, word);
    }

    /// The budget check, run once per retired instruction (after all of
    /// its pushes, so an instruction's records are kept or discarded
    /// together).
    #[inline]
    fn note_instruction(&mut self) {
        if let Some(budget) = self.budget {
            if self.approx_bytes() > budget {
                self.discard_over_budget();
            }
        }
    }

    /// Budget exhausted: discard the region (its history is now
    /// incomplete) and stop recording. Capacity is kept, so the resident
    /// footprint stays at the high-water mark already paid, never above
    /// roughly one budget per worker.
    #[cold]
    fn discard_over_budget(&mut self) {
        self.discarded = self.len() as u64;
        self.clear_records();
        self.truncated = true;
        if let Some(ix) = self.index.as_deref_mut() {
            ix.unseal();
        }
    }

    /// Records one retired instruction's reconstruction-relevant effects.
    /// Under a retention window narrower than 100 % the memory ring may
    /// wrap; call [`SkipLog::finish_region`] before reconstructing from a
    /// log filled this way ([`SkipLog::record_region`] does it itself).
    #[inline]
    pub fn record(&mut self, r: &Retired) {
        if self.truncated {
            return;
        }
        if self.log_mem {
            let line = r.pc & LINE_MASK;
            if self.last_fetch_line != line {
                self.last_fetch_line = line;
                self.push_mem(r.pc, true);
            }
            if let Some(m) = r.mem {
                self.push_mem(m.addr, false);
            }
        }
        if self.log_branches {
            if let Some(b) = r.branch {
                self.push_branch(r.pc, b.target, b.kind, b.taken);
            }
        }
        self.note_instruction();
    }

    /// Ends a stretch of recording: rotates a wrapped memory ring back
    /// into window order, so reconstruction can read the retained records
    /// as one contiguous slice. Idempotent, and free when the ring has not
    /// wrapped — in particular for a log that retains everything.
    pub fn finish_region(&mut self) {
        self.mem.settle();
    }

    /// The fused cold-phase loop: steps `cpu` through `n` instructions,
    /// logging each one. Without a budget this is the predecoded
    /// [`Cpu::step_n`] superblock core with the record sink monomorphized
    /// in, one specialization per stream configuration, so the
    /// per-instruction `Retired` unpacking and stream dispatch happen once
    /// and the stepping itself runs at fast-core speed. Under a budget
    /// every instruction goes through [`SkipLog::record`], so truncation
    /// fires on exactly the same instruction; afterwards the remaining
    /// instructions keep stepping (architectural state must reach the
    /// cluster) but append nothing. With both streams disabled the region
    /// is a bare fast-forward that never touches the log. Ends with
    /// [`SkipLog::finish_region`].
    ///
    /// # Errors
    ///
    /// Propagates functional-simulation faults.
    pub fn record_region(&mut self, cpu: &mut Cpu, n: u64) -> Result<(), ExecError> {
        if self.truncated || (!self.log_mem && !self.log_branches) {
            return cpu.step_n(n, |_| ());
        }
        let res = match (self.log_mem, self.log_branches, self.budget.is_some()) {
            (_, _, true) => cpu.step_n(n, |r| self.record(r)),
            (true, true, false) => self.region_loop_fast::<true, true>(cpu, n),
            (true, false, false) => self.region_loop_fast::<true, false>(cpu, n),
            (false, true, false) => self.region_loop_fast::<false, true>(cpu, n),
            (false, false, _) => unreachable!("bare fast-forward handled above"),
        };
        self.finish_region();
        res
    }

    /// The unbudgeted fused loop — the cold-phase path the whole run's
    /// throughput hangs on. Identical record streams to
    /// [`SkipLog::record`], with the fetch-line dedup register kept in the
    /// sink. A budget-free region can never truncate, and every counter
    /// derives from the ring lengths, so nothing is settled afterwards —
    /// also not on a functional fault.
    fn region_loop_fast<const MEM: bool, const BR: bool>(
        &mut self,
        cpu: &mut Cpu,
        n: u64,
    ) -> Result<(), ExecError> {
        let SkipLog { mem, br, evicted, keep, last_fetch_line, .. } = &mut *self;
        let mut sink: FastSink<'_, MEM, BR> =
            FastSink { mem, br, evicted, keep: *keep, last_line: *last_fetch_line };
        let res = cpu.step_n_sink(n, &mut sink);
        *last_fetch_line = sink.last_line;
        res
    }

    /// Memory references logged this region (the stream length `n` every
    /// scan budget is a percentage of, whatever the retention).
    pub fn mem_len(&self) -> usize {
        self.mem.n
    }

    /// Control transfers logged this region.
    pub fn branch_len(&self) -> usize {
        self.br.n
    }

    /// The retained memory records: `floor..mem_len()` under the
    /// retention window (`0..mem_len()` when everything is kept).
    pub fn mem_window(&self) -> std::ops::Range<usize> {
        window_floor(self.mem.n, self.keep)..self.mem.n
    }

    /// The retained branch records (see [`SkipLog::mem_window`]).
    pub fn branch_window(&self) -> std::ops::Range<usize> {
        window_floor(self.br.n, self.keep)..self.br.n
    }

    /// Materializes branch record `i` (oldest record first).
    ///
    /// # Panics
    ///
    /// If `i` is outside [`SkipLog::branch_window`].
    pub fn branch_at(&self, i: usize) -> BranchRecord {
        let window = self.branch_window();
        assert!(window.contains(&i), "branch record {i} is outside the retained {window:?}");
        let w = self.br.at(i);
        let (kind, taken) = self.branch_kind_taken(i);
        let (pc, target) = (word_pc(w), word_target(w));
        BranchRecord { pc, next_pc: if taken { target } else { pc + 4 }, target, kind, taken }
    }

    /// Kind and outcome of branch record `i` without materializing its
    /// PCs. `i` may lie below the window as long as the ring still holds
    /// it ([`Ring::oldest`]).
    #[inline]
    pub(crate) fn branch_kind_taken(&self, i: usize) -> (CtrlKind, bool) {
        let meta = word_meta(self.br.at(i));
        (kind_from_meta(meta), meta & 1 != 0)
    }

    /// PC of in-window branch record `i`.
    #[inline]
    pub(crate) fn branch_pc(&self, i: usize) -> Addr {
        word_pc(self.br.at(i))
    }

    /// Taken-path target of in-window branch record `i`.
    #[inline]
    pub(crate) fn branch_target(&self, i: usize) -> Addr {
        word_target(self.br.at(i))
    }

    /// The retained control transfers, oldest first, materialized on the
    /// fly.
    pub fn branch_records(&self) -> impl ExactSizeIterator<Item = BranchRecord> + '_ {
        self.branch_window().map(move |i| self.branch_at(i))
    }

    /// The reverse cache scan's view of the retained references:
    /// `(addr, is_inst)` newest-first. `addr` reads with bit 0 clear,
    /// which keeps its line.
    pub fn mem_refs_rev(&self) -> impl ExactSizeIterator<Item = (Addr, bool)> + '_ {
        self.mem_window().rev().map(move |i| {
            let w = self.mem.at(i);
            (w & !MEM_INST, w & MEM_INST != 0)
        })
    }

    /// Records logged this region across both streams (zero after a
    /// budget discard).
    pub fn len(&self) -> usize {
        self.mem.n + self.br.n
    }

    /// `true` when the region's stream is empty — either nothing was
    /// logged *or* the budget truncated the region; distinguish with
    /// [`SkipLog::appended`] and [`SkipLog::truncated`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logged bytes of the packed stream: [`RECORD_BYTES`] per record.
    /// This is the size of the *full* stream, whatever the retention
    /// window keeps resident.
    pub fn approx_bytes(&self) -> usize {
        RECORD_BYTES * self.len()
    }

    /// Panics unless a `pct` scan stays inside the retention window: a
    /// wider budget would read slots the ring has already reused.
    pub(crate) fn check_retained(&self, pct: Pct) {
        assert!(
            pct <= self.keep,
            "a {pct} scan budget reads past this log's {} retention window",
            self.keep
        );
    }

    /// The memory-record index of [`SkipLog::mem_words`]`[0]`: spans and
    /// cuts over that slice are relative to it.
    pub(crate) fn mem_base(&self) -> usize {
        self.mem.origin
    }

    /// The memory records as packed words, window-relative from
    /// [`SkipLog::mem_base`] (the partitioned walker's random-access view;
    /// span indices point into it). Each word is a line-preserving
    /// address, so the walker reads it as one.
    ///
    /// # Panics
    ///
    /// If the memory ring has wrapped since the last
    /// [`SkipLog::finish_region`].
    pub(crate) fn mem_words(&self) -> &[u64] {
        assert!(self.mem.settled(), "finish_region must rotate the memory ring before it is read");
        &self.mem.slots[..self.mem.n - self.mem.origin]
    }

    /// Takes the index box out for (re)building, recycling allocations and
    /// re-keying it on a geometry change.
    fn take_index(&mut self, geom: &ReconGeometry) -> Box<ReconIndex> {
        let mut ix = self.index.take().unwrap_or_else(|| Box::new(ReconIndex::new(*geom)));
        if ix.geom != *geom {
            ix.retarget(*geom);
        }
        ix
    }

    /// Seals the memory-side spans (L1I / L1D / L2) over the whole log,
    /// into the log's own index: the full seal, which serves every scan
    /// budget, and the `pct = 100` case of [`SkipLog::seal_mem_window`].
    /// The engines seal into indexes they own instead. Idempotent for an
    /// unchanged log and geometry. A truncated region holds no records, so
    /// its spans are empty.
    ///
    /// # Panics
    ///
    /// If the log holds `u32::MAX` or more memory records — more than a
    /// u32 span index can address. Run specs reject schedules that could
    /// log that many up front. Also if the log retains less than
    /// everything (see [`SkipLog::seal_mem_window`]).
    pub fn seal_mem_index(&mut self, geom: &ReconGeometry) {
        self.seal_mem_window(geom, Pct::new(100));
    }

    /// Seals the memory-side spans over just the newest `pct` of the
    /// records — `[n − pct.of(n), n)`, everything a reverse scan under
    /// that budget can reach: a counting sort bucketing each record index
    /// by set, each set's span filled newest-first. A no-op when the
    /// current seal already covers that window for `geom` (a wider seal
    /// serves a narrower budget). Finishes the region first
    /// ([`SkipLog::finish_region`]).
    ///
    /// # Panics
    ///
    /// If `pct` is wider than the log's retention window (the message
    /// names both percentages), or the log holds `u32::MAX` or more
    /// memory records.
    pub fn seal_mem_window(&mut self, geom: &ReconGeometry, pct: Pct) {
        self.check_retained(pct);
        self.finish_region();
        let n = self.mem.n;
        let from = window_floor(n, pct);
        if self
            .index
            .as_deref()
            .is_some_and(|ix| ix.geom == *geom && ix.mem_sealed == Some(n) && ix.mem_from <= from)
        {
            return;
        }
        let mut ix = self.take_index(geom);
        self.build_mem_index_into(geom, pct, &mut ix);
        self.index = Some(ix);
    }

    /// [`SkipLog::seal_mem_window`]'s body over an *external* index — the
    /// follower's own index, or the per-configuration scratch a sweep
    /// replay owns, so N detailed configurations can each key the same
    /// shared, immutable log without touching it. `ix` must already be
    /// keyed for `geom` (see
    /// [`ReconIndex::retarget`]). Spans hold indices relative to
    /// [`SkipLog::mem_base`].
    ///
    /// # Panics
    ///
    /// As [`SkipLog::seal_mem_window`], and if the memory ring has wrapped
    /// since the last [`SkipLog::finish_region`].
    pub(crate) fn build_mem_index_into(&self, geom: &ReconGeometry, pct: Pct, ix: &mut ReconIndex) {
        debug_assert_eq!(ix.geom, *geom, "retarget the index before building");
        self.check_retained(pct);
        let n = self.mem.n;
        assert!(n < CHAIN_NONE as usize, "{n} memory records overflow a u32 span index");
        let from = window_floor(n, pct);
        let base = self.mem_base();
        let words = self.mem_words();
        // Window-relative record positions of the budget window.
        let window = from - base..n - base;
        let (l1i_mask, l1d_mask, l2_mask) =
            (geom.l1i_sets - 1, geom.l1d_sets - 1, geom.l2_sets - 1);

        // Counting pass: per-set populations for all three levels at once.
        // Exactly one L1 bucket per record: instruction records belong to
        // the L1I, data records to the L1D.
        ix.scratch.clear();
        ix.scratch.resize(geom.l1i_sets + geom.l1d_sets + geom.l2_sets, 0);
        let (l1_cnt, l2_cnt) = ix.scratch.split_at_mut(geom.l1i_sets + geom.l1d_sets);
        let (l1i_cnt, l1d_cnt) = l1_cnt.split_at_mut(geom.l1i_sets);
        for j in window.clone() {
            let addr = words[j];
            if addr & MEM_INST != 0 {
                l1i_cnt[((addr >> geom.l1i_line_shift) as usize) & l1i_mask] += 1;
            } else {
                l1d_cnt[((addr >> geom.l1d_line_shift) as usize) & l1d_mask] += 1;
            }
            l2_cnt[((addr >> geom.l2_line_shift) as usize) & l2_mask] += 1;
        }

        // Prefix sums fix the span bounds; the counts become fill cursors
        // set to each span's *end*.
        fn spans(off: &mut Vec<u32>, cursors: &mut [u32]) -> usize {
            off.clear();
            off.reserve(cursors.len() + 1);
            off.push(0);
            let mut total = 0u32;
            for c in cursors.iter_mut() {
                total += *c;
                *c = total;
                off.push(total);
            }
            total as usize
        }
        let n_l1i = spans(&mut ix.l1i_off, l1i_cnt);
        let n_l1d = spans(&mut ix.l1d_off, l1d_cnt);
        spans(&mut ix.l2_off, l2_cnt);

        // Fill pass, oldest record first: each record lands one slot ahead
        // of its set's cursor, so every span reads newest-first.
        ix.l1i_idx.clear();
        ix.l1i_idx.resize(n_l1i, 0);
        ix.l1d_idx.clear();
        ix.l1d_idx.resize(n_l1d, 0);
        ix.l2_idx.clear();
        ix.l2_idx.resize(n - from, 0);
        for j in window {
            let addr = words[j];
            if addr & MEM_INST != 0 {
                let s = ((addr >> geom.l1i_line_shift) as usize) & l1i_mask;
                l1i_cnt[s] -= 1;
                ix.l1i_idx[l1i_cnt[s] as usize] = j as u32;
            } else {
                let s = ((addr >> geom.l1d_line_shift) as usize) & l1d_mask;
                l1d_cnt[s] -= 1;
                ix.l1d_idx[l1d_cnt[s] as usize] = j as u32;
            }
            let s = ((addr >> geom.l2_line_shift) as usize) & l2_mask;
            l2_cnt[s] -= 1;
            ix.l2_idx[l2_cnt[s] as usize] = j as u32;
        }
        ix.mem_sealed = Some(n);
        ix.mem_from = from;
    }

    /// Seals the branch-side columns over the budget window — the newest
    /// `pct.of(n)` records, all the demand scan can reach: the GHR forward
    /// pass (§3.2's "last *n* branches" walk, done once here instead of
    /// per reconstructor) yielding every in-window record's PHT key and
    /// the region-final GHR, then the reverse pass sealing the scan flags
    /// and inference states. No per-entry spans are built — the demand
    /// scan's shared cursor must consume every record it passes to stay
    /// bit-identical to the sequential path, so it could never skip along
    /// them. [`SkipLog::ghr_at_start`] must already hold its final value —
    /// every PHT key hashes the running GHR seeded from it. Idempotent for
    /// an unchanged log, geometry, budget, and start GHR.
    ///
    /// # Panics
    ///
    /// If `pct` is wider than the log's retention window (the message
    /// names both percentages), or the log holds `u32::MAX` or more
    /// branch records.
    pub fn seal_branch_index(&mut self, geom: &ReconGeometry, pct: Pct) {
        self.check_retained(pct);
        self.finish_region();
        let n = self.br.n;
        if self.index.as_deref().is_some_and(|ix| {
            ix.geom == *geom
                && ix.br_sealed == Some(n)
                && ix.br_pct == Some(pct)
                && ix.ghr_start == self.ghr_at_start
        }) {
            return;
        }
        let mut ix = self.take_index(geom);
        self.build_branch_index_into(geom, self.ghr_at_start, pct, &mut ix);
        self.index = Some(ix);
    }

    /// The GHR after the first `end` branch records, from `ghr_at_start`:
    /// the newest `bits` conditional outcomes before `end`, shifted in
    /// over `ghr_at_start` when fewer precede it — exactly what the
    /// forward pass leaves, read back from `end` only until `bits`
    /// conditionals are found: first from the records the ring still
    /// holds, then from the evicted-outcome register. With no
    /// conditional before `end` the GHR is `ghr_at_start`, unmasked.
    fn ghr_before(&self, end: usize, ghr_at_start: u64, bits: u32) -> u64 {
        let (mut hist, mut k) = (0u64, 0u32);
        for i in (self.br.oldest()..end).rev() {
            if k == bits {
                break;
            }
            let w = self.br.at(i);
            if word_is_cond(w) {
                hist |= (w & 1) << k;
                k += 1;
            }
        }
        // Everything older has left the ring; its newest outcomes are in
        // the register, newest in bit 0 (`bits` < 64, so it holds enough).
        let evicted = (bits - k).min(self.evicted.conds.min(64) as u32);
        if evicted > 0 {
            hist |= (self.evicted.hist & ((1u64 << evicted) - 1)) << k;
            k += evicted;
        }
        if k == 0 {
            ghr_at_start
        } else {
            ((ghr_at_start << k) | hist) & ((1u64 << bits) - 1)
        }
    }

    /// [`SkipLog::seal_branch_index`]'s body over an *external* index,
    /// with the start GHR passed explicitly instead of read from
    /// [`SkipLog::ghr_at_start`] — the follower and each sweep replay read
    /// it from their own predictor while the log stays immutable. `ix`
    /// must already be keyed for `geom`.
    pub(crate) fn build_branch_index_into(
        &self,
        geom: &ReconGeometry,
        ghr_at_start: u64,
        pct: Pct,
        ix: &mut ReconIndex,
    ) {
        debug_assert_eq!(ix.geom, *geom, "retarget the index before building");
        self.check_retained(pct);
        let n = self.br.n;
        assert!(n < CHAIN_NONE as usize, "{n} branch records overflow a u32 record index");
        // Everything below covers the budget window only: older records
        // only ever set flags on still-older records, which no scan under
        // this budget reaches.
        let base = window_floor(n, pct);
        let len = n - base;
        ix.pht_key.clear();
        ix.pht_key.reserve(len);
        let mask = (1u64 << geom.ghr_bits) - 1;
        let mut ghr = self.ghr_before(base, ghr_at_start, geom.ghr_bits);
        for i in base..n {
            let w = self.br.at(i);
            // Replicates `Gshare::index_with` on the running GHR: the key
            // a `BpReconstructor` forward pass would compute for record i.
            let key = if word_is_cond(w) {
                let k = (((word_pc(w) >> 2) ^ ghr) & mask) as u32;
                ghr = ((ghr << 1) | (w & 1)) & mask;
                k
            } else {
                CHAIN_NONE
            };
            ix.pht_key.push(key);
        }

        // Reverse pass: per-record scan flags, last-writer BTB bits, and
        // the precomputed counter-inference state (newest-first, exactly
        // the order and composition the demand scan would perform). The
        // scratch holds one packed state byte per PHT key (stored XOR
        // `PACKED_IDENTITY` so the zero-fill means "no history yet"), one
        // resolved-bit per PHT key (feeds [`BR_F_PHT_DEAD`]), one flush
        // last-writer bit per PHT key, and one seen-bit per BTB slot.
        ix.br_flags.clear();
        ix.br_flags.resize(len, 0);
        ix.pht_state.clear();
        ix.pht_state.resize(len, 0);
        let pht_entries = 1usize << geom.ghr_bits;
        let btb_mask = geom.btb_entries - 1;
        ix.br_scratch.clear();
        ix.br_scratch
            .resize(pht_entries + 2 * pht_entries.div_ceil(8) + geom.btb_entries.div_ceil(8), 0);
        let (states, seen) = ix.br_scratch.split_at_mut(pht_entries);
        let (pht_done, seen) = seen.split_at_mut(pht_entries.div_ceil(8));
        let (lw_seen, btb_seen) = seen.split_at_mut(pht_entries.div_ceil(8));
        let mut lw = std::mem::take(&mut ix.scratch);
        lw.clear();
        for j in (0..len).rev() {
            let w = self.br.at(base + j);
            let taken = w & 1 != 0;
            let mut flags = 0u8;
            let key = ix.pht_key[j];
            if key != CHAIN_NONE {
                flags |= BR_F_COND;
                let k = key as usize;
                if pht_done[k >> 3] & (1 << (k & 7)) != 0 {
                    // A newer record already pinned this counter exactly:
                    // the scan will find the key marked reconstructed, so
                    // the record is dead (and the composition below would
                    // never be read — skip it).
                    flags |= BR_F_PHT_DEAD;
                } else {
                    let next =
                        PACKED_PREPEND[taken as usize][(states[k] ^ PACKED_IDENTITY) as usize];
                    states[k] = next ^ PACKED_IDENTITY;
                    ix.pht_state[j] = next;
                    if next == (next & 3).wrapping_mul(0x55) {
                        flags |= BR_F_PHT_RESOLVE;
                        pht_done[k >> 3] |= 1 << (k & 7);
                    } else {
                        // Unresolved feed: a flush last-writer candidate
                        // (resolved later if a still-newer record pins the
                        // key after all).
                        lw.push(j as u32);
                    }
                }
            }
            if taken {
                flags |= BR_F_TAKEN;
                let slot = ((word_pc(w) >> 2) as usize) & btb_mask;
                if btb_seen[slot >> 3] & (1 << (slot & 7)) == 0 {
                    btb_seen[slot >> 3] |= 1 << (slot & 7);
                    flags |= BR_F_BTB_LW;
                }
            }
            ix.br_flags[j] = flags;
        }
        // `lw` holds the unresolved feeds newest-first, so the reversed
        // walk visits each key's *oldest* feed first — the one whose state
        // the exhaustion flush will observe. Keys that resolve anywhere in
        // the window are excluded: their flush entry is neutralized (at
        // the resolution record) before it is read.
        for &j in lw.iter().rev() {
            let k = ix.pht_key[j as usize] as usize;
            if pht_done[k >> 3] & (1 << (k & 7)) == 0 && lw_seen[k >> 3] & (1 << (k & 7)) == 0 {
                lw_seen[k >> 3] |= 1 << (k & 7);
                ix.br_flags[j as usize] |= BR_F_PHT_FLUSH_LW;
            }
        }
        ix.scratch = lw;
        // The flush last-writer bits are only final after the pass above,
        // so the hot worklist is compacted here: one sequential sweep of
        // the window's flag bytes, kept as absolute record indices.
        ix.br_hot.clear();
        for j in (0..len).rev() {
            if ix.br_flags[j] & (BR_F_PHT_RESOLVE | BR_F_PHT_FLUSH_LW | BR_F_BTB_LW) != 0 {
                ix.br_hot.push((base + j) as u32);
            }
        }

        ix.ghr_final = ghr;
        ix.ghr_start = ghr_at_start;
        ix.br_sealed = Some(n);
        ix.br_pct = Some(pct);
        ix.br_base = base;
    }

    /// The index the public seals built, if any. Consumers check each
    /// side's sealed length, geometry and budget before trusting it.
    pub(crate) fn index(&self) -> Option<&ReconIndex> {
        self.index.as_deref()
    }
}

/// A small per-worker free list of [`SkipLog`]s.
///
/// Skip-region logging dominates the cold phase, and every log is a set of
/// packed record rings that grow to roughly one region's retained
/// footprint; allocating them fresh per region (or per in-flight pipeline
/// item) pays that growth repeatedly. The pool recycles the rings instead:
/// [`LogPool::take`] hands out a cleared log with its capacity (and the
/// run's budget and retention window) intact, [`LogPool::put`] returns it.
///
/// A log resides in at most `keep.of(n).next_power_of_two()` slots per
/// stream for an `n`-record region under retention `keep`
/// ([`LogPool::retaining`]) — about `keep` of the region's logged bytes,
/// up to 2× for the power-of-two rounding. The pool is bounded at
/// [`LogPool::MAX_POOLED`] entries, so a worker's resident log memory is
/// roughly one such ring per window it keeps in flight, and with a log
/// budget of `B` bytes never above that many `B`.
#[derive(Debug)]
pub struct LogPool {
    free: Vec<SkipLog>,
    /// Per-region byte cap stamped onto every log handed out.
    budget: Option<usize>,
    /// Retention window stamped onto every log handed out.
    keep: Pct,
}

impl LogPool {
    /// Most logs the pool retains; extra [`LogPool::put`]s are dropped so
    /// a burst can never ratchet resident memory permanently upward. It
    /// covers the windows a run keeps in flight: `depth + 1` in a
    /// pipelined run (3 at the auto depth), and in a sweep the capture
    /// channel's bound (2) plus the window in capture and the window in
    /// replay, 4 in all. The leaders' trace pools share this
    /// bound.
    pub const MAX_POOLED: usize = 8;

    /// An empty pool whose logs carry `budget` (see
    /// [`crate::RunSpec::log_budget_bytes`]), retaining up to
    /// [`LogPool::MAX_POOLED`].
    pub fn new(budget: Option<usize>) -> LogPool {
        LogPool { free: Vec::new(), budget, keep: Pct::new(100) }
    }

    /// Sets the retention window of every log handed out (default 100 %,
    /// keep everything) — the widest scan budget the pool's consumers
    /// reconstruct under (see [`SkipLog::set_retention`]).
    pub fn retaining(mut self, keep: Pct) -> LogPool {
        self.keep = keep;
        self
    }

    /// A cleared log recording the requested streams: recycled rings if
    /// any are pooled, a fresh allocation otherwise. The pool's budget and
    /// retention window are (re)armed either way.
    pub fn take(&mut self, log_mem: bool, log_branches: bool) -> SkipLog {
        let mut log = self.free.pop().unwrap_or_else(|| SkipLog::new(log_mem, log_branches, 0));
        log.set_budget(self.budget);
        log.reset(log_mem, log_branches, 0);
        log.set_retention(self.keep);
        log
    }

    /// Returns a log's allocations to the pool (dropped once the pool's
    /// retention bound is already held).
    pub fn put(&mut self, log: SkipLog) {
        if self.free.len() < LogPool::MAX_POOLED {
            self.free.push(log);
        }
    }

    /// Logs currently held on the free list.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

fn kind_to_u8(kind: CtrlKind) -> u8 {
    match kind {
        CtrlKind::CondBranch => 0,
        CtrlKind::Jump => 1,
        CtrlKind::Call => 2,
        CtrlKind::IndirectCall => 3,
        CtrlKind::Return => 4,
        CtrlKind::IndirectJump => 5,
    }
}

/// Decodes the kind bits (1–3) of a branch word's meta (always valid: they
/// were written from a [`CtrlKind`]).
fn kind_from_meta(meta: u8) -> CtrlKind {
    match (meta >> 1) & 7 {
        0 => CtrlKind::CondBranch,
        1 => CtrlKind::Jump,
        2 => CtrlKind::Call,
        3 => CtrlKind::IndirectCall,
        4 => CtrlKind::Return,
        _ => CtrlKind::IndirectJump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_func::Cpu;
    use rsr_isa::{Asm, Reg};

    fn run_logged(build: impl FnOnce(&mut Asm), n: u64) -> SkipLog {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        for _ in 0..n {
            if cpu.halted() {
                break;
            }
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        log
    }

    /// The memory references oldest first, as `(addr, is_inst)`.
    fn mem_refs(log: &SkipLog) -> Vec<(Addr, bool)> {
        let mut refs: Vec<_> = log.mem_refs_rev().collect();
        refs.reverse();
        refs
    }

    const KINDS: [CtrlKind; 6] = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::Call,
        CtrlKind::IndirectCall,
        CtrlKind::Return,
        CtrlKind::IndirectJump,
    ];

    #[test]
    fn branch_words_round_trip_every_kind_and_outcome() {
        for kind in KINDS {
            for taken in [false, true] {
                for (pc, target) in [(0, 0), (0x1_0000, 0x1_0040), (0xffff_fffc, 4)] {
                    let w = branch_word(pc, target, kind, taken);
                    let meta = word_meta(w);
                    assert_eq!(
                        (word_pc(w), word_target(w), kind_from_meta(meta), meta & 1 != 0),
                        (pc, target, kind, taken),
                        "{kind:?} {taken} {pc:#x} {target:#x}"
                    );
                    assert_eq!(word_is_cond(w), kind == CtrlKind::CondBranch);
                }
            }
        }
    }

    #[test]
    fn memory_words_keep_the_line_and_the_entry_type() {
        let log =
            SkipLog::from_records([(0x4001, false), (0x1_0000, true), (0x4003, false)], [], 0);
        assert_eq!(mem_refs(&log), [(0x4000, false), (0x1_0000, true), (0x4002, false)]);
        assert_eq!(log.approx_bytes(), 3 * RECORD_BYTES);
    }

    #[test]
    fn records_data_and_branches() {
        let log = run_logged(
            |a| {
                let buf = a.data_zeros(64);
                a.la(Reg::S0, buf);
                a.sd(Reg::ZERO, 0, Reg::S0);
                a.ld(Reg::T0, 0, Reg::S0);
                let l = a.bind_new("l");
                let done = a.new_label("done");
                a.beq(Reg::T0, Reg::ZERO, done);
                a.j(l);
                a.bind(done).unwrap();
                a.halt();
            },
            100,
        );
        assert_eq!(log.mem_refs_rev().filter(|&(_, is_inst)| !is_inst).count(), 2);
        assert_eq!(log.branch_len(), 1);
        assert!(log.branch_at(0).taken);
    }

    #[test]
    fn ifetch_logged_per_line_not_per_inst() {
        // A straight-line program within one 64-byte line should log a
        // single instruction reference.
        let log = run_logged(
            |a| {
                for _ in 0..10 {
                    a.nop();
                }
                a.halt();
            },
            100,
        );
        assert_eq!(log.mem_refs_rev().filter(|&(_, is_inst)| is_inst).count(), 1);
    }

    #[test]
    fn loops_relog_lines_on_reentry_only_when_line_changes() {
        // A tight loop inside one line logs one fetch record total.
        let log = run_logged(
            |a| {
                a.li(Reg::T0, 50);
                let top = a.bind_new("top");
                a.addi(Reg::T0, Reg::T0, -1);
                a.bne(Reg::T0, Reg::ZERO, top);
                a.halt();
            },
            500,
        );
        assert_eq!(log.mem_refs_rev().filter(|&(_, is_inst)| is_inst).count(), 1);
        assert_eq!(log.branch_len(), 50);
    }

    #[test]
    fn packed_records_materialize_cpu_stream_exactly() {
        // Record a real stream once into the packed log and once by hand;
        // the views reconstruction reads must be identical.
        let mut a = Asm::new();
        let buf = a.data_zeros(4096);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 40);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.ld(Reg::T1, 8, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 16);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        let mut mem = Vec::new();
        let mut branches = Vec::new();
        let mut last_line = NO_LINE;
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
            if r.pc & LINE_MASK != last_line {
                last_line = r.pc & LINE_MASK;
                mem.push((r.pc, true));
            }
            if let Some(m) = r.mem {
                mem.push((m.addr, false));
            }
            if let Some(b) = r.branch {
                branches.push(BranchRecord {
                    pc: r.pc,
                    next_pc: r.next_pc,
                    target: b.target,
                    kind: b.kind,
                    taken: b.taken,
                });
            }
        }
        assert_eq!(mem_refs(&log), mem);
        assert_eq!(log.branch_records().collect::<Vec<_>>(), branches);
    }

    #[test]
    fn truncation_keeps_appended_and_peak_but_empties_the_log() {
        // The satellite contract: a budget-truncated log is empty, is
        // flagged truncated, and still reports how much it had logged.
        let mut a = Asm::new();
        let buf = a.data_zeros(8192);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 500);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 8);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        log.set_budget(Some(512));
        let mut steps = 0u64;
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
            steps += 1;
        }
        assert!(steps > 100, "program must outlive the budget");
        assert!(log.truncated());
        assert!(log.is_empty(), "truncated log holds nothing");
        assert_eq!(log.len(), 0);
        assert_eq!(log.approx_bytes(), 0);
        assert!(log.appended() > 0, "appended survives the discard");
        assert!(log.peak_bytes() > 512, "peak is the pre-discard high-water mark");
        // reset() rearms the same budget for the next region.
        log.reset(true, true, 0);
        assert!(!log.truncated());
        assert_eq!(log.appended(), 0);
    }

    #[test]
    fn incremental_bytes_match_layout_arithmetic() {
        let mut log = SkipLog::new(true, true, 0);
        for k in 0..70u64 {
            log.push_mem(0x4000 + k * 8, false);
        }
        assert_eq!(log.approx_bytes(), 70 * RECORD_BYTES);
        log.push_branch(0x2000, 0x3000, CtrlKind::Jump, true);
        assert_eq!(log.approx_bytes(), 71 * RECORD_BYTES);
        assert_eq!((log.appended(), log.peak_bytes()), (71, 71 * RECORD_BYTES));
    }

    #[test]
    fn disabled_streams_log_nothing() {
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.la(Reg::S0, buf);
        a.ld(Reg::T0, 0, Reg::S0);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(false, false, 0);
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        assert!(log.is_empty());
        assert_eq!(log.approx_bytes(), 0);
    }

    #[test]
    fn pool_recycles_cleared_logs_and_rearms_the_budget() {
        let mut pool = LogPool::new(Some(64));
        assert_eq!(pool.pooled(), 0);
        let mut log = pool.take(true, true);
        // Overflow the budget so the log carries truncation state back.
        for k in 0..40u64 {
            log.push_mem(0x4000 + 64 * k, false);
            log.note_instruction();
        }
        assert!(log.truncated());
        assert!(log.appended() > 0);
        pool.put(log);
        assert_eq!(pool.pooled(), 1);

        // The recycled log comes back cleared, with the budget still armed.
        let mut again = pool.take(true, true);
        assert_eq!(pool.pooled(), 0);
        assert!(!again.truncated());
        assert_eq!(again.appended(), 0);
        assert!(again.is_empty());
        for k in 0..40u64 {
            again.push_mem(0x4000 + 64 * k, false);
            again.note_instruction();
        }
        assert!(again.truncated(), "budget must survive recycling");

        // An unbounded pool disarms a recycled log's budget.
        let mut unbounded = LogPool::new(None);
        unbounded.put(again);
        let mut freed = unbounded.take(true, true);
        for k in 0..40u64 {
            freed.push_mem(0x4000 + 64 * k, false);
            freed.note_instruction();
        }
        assert!(!freed.truncated());
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = LogPool::new(None);
        for _ in 0..(LogPool::MAX_POOLED + 3) {
            pool.put(SkipLog::new(true, true, 0));
        }
        assert_eq!(pool.pooled(), LogPool::MAX_POOLED);
    }

    #[test]
    fn fused_loops_settle_counters_identically_on_a_fault() {
        // A program that halts mid-region: both fused loops must leave the
        // three counters exactly where per-record recording would.
        let mut a = Asm::new();
        let buf = a.data_zeros(64);
        a.la(Reg::S0, buf);
        for _ in 0..4 {
            a.sd(Reg::ZERO, 0, Reg::S0);
        }
        a.halt();
        let p = a.finish().unwrap();
        let run = |budget: Option<usize>| {
            let mut cpu = Cpu::new(&p).unwrap();
            let mut log = SkipLog::new(true, true, 0);
            log.set_budget(budget);
            assert!(log.record_region(&mut cpu, 100).is_err(), "the region must fault");
            (log.peak_bytes(), log.approx_bytes(), log.appended())
        };
        let fast = run(None);
        let budgeted = run(Some(1 << 20));
        assert!(fast.0 > 0, "records were logged before the fault");
        assert_eq!(fast, budgeted, "(peak_bytes, approx_bytes, appended)");
    }

    fn paper_geometry() -> ReconGeometry {
        ReconGeometry::of_machine(&crate::MachineConfig::paper())
    }

    #[test]
    fn window_seal_indexes_only_the_budget_window() {
        let mem = (0..1000u64).map(|k| (0x40_0000 + k * 200, false));
        let mut log = SkipLog::from_records(mem, [], 0);
        let geom = paper_geometry();
        let n = log.mem_len();
        let pct = Pct::new(20);
        let cut = n - pct.of(n);
        log.seal_mem_window(&geom, pct);
        let ix = log.index().unwrap();
        assert_eq!((ix.mem_sealed, ix.mem_from), (Some(n), cut));
        assert_eq!(ix.l2_idx.len(), pct.of(n));
        assert!(ix.l2_idx.iter().all(|&i| i as usize >= cut));
        assert_eq!(ix.l1i_idx.len() + ix.l1d_idx.len(), pct.of(n));
        // The window seal already serves a narrower budget; a wider one
        // reseals over the whole log.
        log.seal_mem_window(&geom, Pct::new(10));
        assert_eq!(log.index().unwrap().mem_from, cut);
        log.seal_mem_index(&geom);
        let ix = log.index().unwrap();
        assert_eq!((ix.mem_from, ix.l2_idx.len()), (0, n));
    }

    #[test]
    fn a_log_without_conditionals_keeps_the_start_ghr() {
        let branches: Vec<_> = (0..50u64)
            .map(|k| BranchRecord {
                pc: 0x1000 + k * 4,
                next_pc: 0x8000,
                target: 0x8000,
                kind: CtrlKind::Jump,
                taken: true,
            })
            .collect();
        // Bits above the history width survive, as the forward pass leaves
        // them when no conditional ever shifts the register.
        let start = 0xdead_beef_u64;
        let mut log = SkipLog::from_records([], branches, start);
        for pct in [1, 20, 100] {
            log.seal_branch_index(&paper_geometry(), Pct::new(pct));
            assert_eq!(log.index().unwrap().ghr_final, start, "{pct}%");
        }
    }

    #[test]
    fn fused_region_loop_matches_per_step_recording() {
        let mut a = Asm::new();
        let buf = a.data_zeros(4096);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 60);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.ld(Reg::T1, 0, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 16);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let n = 250u64;
        for budget in [None, Some(1024usize)] {
            let mut cpu_a = Cpu::new(&p).unwrap();
            let mut stepwise = SkipLog::new(true, true, 0);
            stepwise.set_budget(budget);
            for _ in 0..n {
                let r = cpu_a.step().unwrap();
                stepwise.record(&r);
            }
            let mut cpu_b = Cpu::new(&p).unwrap();
            let mut fused = SkipLog::new(true, true, 0);
            fused.set_budget(budget);
            fused.record_region(&mut cpu_b, n).unwrap();
            // Same CPU end state and bit-identical log state.
            assert_eq!(cpu_a.pc(), cpu_b.pc());
            assert_eq!(fused.truncated(), stepwise.truncated());
            assert_eq!(fused.appended(), stepwise.appended());
            assert_eq!(fused.peak_bytes(), stepwise.peak_bytes());
            assert_eq!(fused.approx_bytes(), stepwise.approx_bytes());
            assert_eq!(mem_refs(&fused), mem_refs(&stepwise));
            assert_eq!(
                fused.branch_records().collect::<Vec<_>>(),
                stepwise.branch_records().collect::<Vec<_>>()
            );
        }
    }

    /// A loop that strides through memory and branches every iteration.
    fn strided_program(iters: i64) -> rsr_isa::Program {
        let mut a = Asm::new();
        let buf = a.data_zeros(1 << 16);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, iters);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.ld(Reg::T1, 8, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 24);
        a.andi(Reg::T2, Reg::T0, 3);
        let skip = a.new_label("skip");
        a.beq(Reg::T2, Reg::ZERO, skip);
        a.addi(Reg::T1, Reg::T1, 1);
        a.bind(skip).unwrap();
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        a.finish().unwrap()
    }

    /// `n` instructions of [`strided_program`], logged under retention
    /// `keep` through the fused loop or per-record recording.
    fn logged(keep: u8, n: u64, fused: bool) -> SkipLog {
        let p = strided_program(20_000);
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        log.set_retention(Pct::new(keep));
        if fused {
            log.record_region(&mut cpu, n).unwrap();
        } else {
            for _ in 0..n {
                log.record(&cpu.step().unwrap());
            }
            log.finish_region();
        }
        log
    }

    #[test]
    fn retained_windows_match_the_full_log() {
        for fused in [false, true] {
            let full = logged(100, 9000, fused);
            for keep in [1, 7, 20, 50, 99] {
                let log = logged(keep, 9000, fused);
                let at = format!("{keep}%, fused {fused}");
                let window = log.mem_window();
                assert_eq!(window, window_floor(full.mem_len(), Pct::new(keep))..full.mem_len());
                let rev: Vec<_> = full.mem_refs_rev().take(window.len()).collect();
                assert_eq!(log.mem_refs_rev().collect::<Vec<_>>(), rev, "{at}");
                let settled = &log.mem_words()[window.start - log.mem_base()..];
                assert_eq!(settled, &full.mem_words()[window.start..], "{at}");
                let bwin = log.branch_window();
                let expect: Vec<_> = full.branch_records().skip(bwin.start).collect();
                assert_eq!(log.branch_records().collect::<Vec<_>>(), expect, "{at}");
                assert_eq!(
                    (log.appended(), log.peak_bytes(), log.approx_bytes()),
                    (full.appended(), full.peak_bytes(), full.approx_bytes()),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn retained_slots_stay_within_the_rounded_window() {
        // The memory mechanism as a count: sampled throughout one long
        // region, each stream's ring never exceeds the window rounded up
        // to a power of two (past the smallest ring).
        let p = strided_program(200_000);
        for keep in [1, 20, 100].map(Pct::new) {
            let mut cpu = Cpu::new(&p).unwrap();
            let mut log = SkipLog::new(true, true, 0);
            log.set_retention(keep);
            for _ in 0..40 {
                log.record_region(&mut cpu, 25_000).unwrap();
                let (mem, br) = log.retained_slots();
                let bound = |n: usize| keep.of(n).next_power_of_two().max(MIN_RING);
                assert!(mem <= bound(log.mem_len()), "{keep}: {mem} mem slots");
                assert!(br <= bound(log.branch_len()), "{keep}: {br} branch slots");
            }
            assert!(log.mem_len() > 200_000, "the region must be long");
            if keep.value() < 100 {
                assert!(log.retained_slots().0 < log.mem_len() / 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a 50% scan budget reads past this log's 20% retention window")]
    fn a_budget_wider_than_the_retention_window_panics() {
        let mut log = logged(20, 5000, true);
        log.seal_mem_window(&paper_geometry(), Pct::new(50));
    }

    #[test]
    #[should_panic(expected = "set the retention window before recording")]
    fn retention_is_fixed_before_recording() {
        let mut log = logged(100, 100, true);
        log.set_retention(Pct::new(20));
    }
}
