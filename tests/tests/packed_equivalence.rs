//! Packed-vs-seed skip-log equivalence: the one-word-per-record log must
//! reconstruct exactly as the padded array-of-structs records of the seed
//! layout do — every cache set, the whole predictor and every
//! `ReconStats` counter — and decide budget truncation the same way,
//! while resident bytes shrink 4x on real reference streams.
//!
//! The seed records are reconstructed by the tests-crate oracles (the
//! sequential full scan and the hash-map counter inference), so each
//! comparison also pins the sealed-index paths to them.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierarchyConfig, MemHierarchy, WayDump};
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, BranchRecord, Pct, ReconStats, SkipLog,
};
use rsr_func::{BranchRec, Cpu, MemAccess, Retired};
use rsr_integration::oracle::{reconstruct_refs, RefBpReconstructor};
use rsr_integration::tiny;
use rsr_isa::{Addr, CtrlKind, Inst, MemWidth, Op};
use rsr_workloads::Benchmark;

const LINE_MASK: u64 = !63;

/// One memory reference in the seed layout: every field the paper lists.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MemRecord {
    pc: Addr,
    next_pc: Addr,
    addr: Addr,
    is_inst: bool,
    is_store: bool,
}

/// The seed representation, replicated verbatim: padded 32-byte AoS
/// records, per-append size recomputation, whole-log discard on budget
/// exhaustion. The oracle the packed log is checked against.
#[derive(Default)]
struct LegacyLog {
    mem: Vec<MemRecord>,
    branches: Vec<BranchRecord>,
    last_fetch_line: u64,
    truncated: bool,
    budget: Option<usize>,
    peak_bytes: usize,
    appended: u64,
}

impl LegacyLog {
    fn new(budget: Option<usize>) -> LegacyLog {
        LegacyLog { last_fetch_line: u64::MAX, budget, ..LegacyLog::default() }
    }

    fn approx_bytes(&self) -> usize {
        self.mem.len() * std::mem::size_of::<MemRecord>()
            + self.branches.len() * std::mem::size_of::<BranchRecord>()
    }

    fn record(&mut self, r: &Retired) {
        if self.truncated {
            return;
        }
        let line = r.pc & LINE_MASK;
        if self.last_fetch_line != line {
            self.last_fetch_line = line;
            self.mem.push(MemRecord {
                pc: r.pc,
                next_pc: r.next_pc,
                addr: r.pc,
                is_inst: true,
                is_store: false,
            });
        }
        if let Some(m) = r.mem {
            self.mem.push(MemRecord {
                pc: r.pc,
                next_pc: r.next_pc,
                addr: m.addr,
                is_inst: false,
                is_store: m.is_store,
            });
        }
        if let Some(b) = r.branch {
            self.branches.push(BranchRecord {
                pc: r.pc,
                next_pc: r.next_pc,
                target: b.target,
                kind: b.kind,
                taken: b.taken,
            });
        }
        self.appended = (self.mem.len() + self.branches.len()) as u64;
        let bytes = self.approx_bytes();
        self.peak_bytes = self.peak_bytes.max(bytes);
        if let Some(budget) = self.budget {
            if bytes > budget {
                self.mem.clear();
                self.branches.clear();
                self.truncated = true;
            }
        }
    }
}

/// A retired stream from a real workload.
fn workload_stream(bench: Benchmark, n: u64) -> Vec<Retired> {
    let program = tiny(bench);
    let mut cpu = Cpu::new(&program).unwrap();
    (0..n).map(|_| cpu.step().unwrap()).collect()
}

/// A deterministic adversarial stream: synthetic records with 64-bit PCs
/// and targets, non-sequential next PCs, and branches whose next_pc
/// contradicts their outcome — records no CPU retires, and the packed
/// log truncates.
fn adversarial_stream(n: u64) -> Vec<Retired> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let kinds = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::Call,
        CtrlKind::IndirectCall,
        CtrlKind::Return,
        CtrlKind::IndirectJump,
    ];
    (0..n)
        .map(|seq| {
            let r = rng();
            let pc = if r % 5 == 0 { r | (1 << 45) } else { 0x1_0000 + (r % 4096) * 4 };
            let next_pc = if r % 3 == 0 { rng() } else { pc.wrapping_add(4) };
            let mem = (r % 2 == 0).then(|| MemAccess {
                addr: rng() % (1 << 48),
                width: MemWidth::B8,
                is_store: r % 4 == 0,
            });
            let branch = (r % 3 == 0).then(|| BranchRec {
                kind: kinds[(r % 6) as usize],
                taken: r % 2 == 0,
                target: rng() % (1 << 48),
            });
            Retired { seq, pc, next_pc, inst: Inst::new(Op::Add, 0, 0, 0, 0), mem, branch }
        })
        .collect()
}

fn legacy_replay(stream: &[Retired], budget: Option<usize>) -> LegacyLog {
    let mut log = LegacyLog::new(budget);
    for r in stream {
        log.record(r);
    }
    log
}

fn packed_replay(stream: &[Retired], budget: Option<usize>) -> SkipLog {
    let mut log = SkipLog::new(true, true, 0);
    log.set_budget(budget);
    for r in stream {
        log.record(r);
    }
    log
}

/// Every set's content `(tag, valid, dirty, rank, reconstructed)` at every
/// level.
fn all_set_dumps(hier: &MemHierarchy) -> Vec<Vec<WayDump>> {
    let mut sets = Vec::new();
    for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
        for set in 0..cache.num_sets() {
            sets.push(cache.dump_set(set));
        }
    }
    sets
}

/// Everything one reconstruction leaves behind: the cache counters, every
/// cache set, the branch counters after an eager pass, and the whole
/// predictor's `Debug` form.
#[derive(Debug, PartialEq)]
struct Reconstructed {
    cache: ReconStats,
    sets: Vec<Vec<WayDump>>,
    bp: ReconStats,
    pred: String,
}

/// Reconstruction from the packed log through the library's sealed-index
/// paths.
fn reconstruct_packed(log: &SkipLog, pct: Pct) -> Reconstructed {
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let (cache, _) = reconstruct_caches_partitioned(&mut hier, log, pct, 1);
    let mut pred = Predictor::new(PredictorConfig::paper());
    let mut bp = BpReconstructor::new(&mut pred, log, pct);
    bp.exhaust(&mut pred);
    Reconstructed { cache, sets: all_set_dumps(&hier), bp: bp.stats(), pred: format!("{pred:?}") }
}

/// Reconstruction from the seed layout's records through the oracles.
fn reconstruct_seed(log: &LegacyLog, pct: Pct) -> Reconstructed {
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let refs = log.mem.iter().rev().take(pct.of(log.mem.len())).map(|m| (m.addr, m.is_inst));
    let cache = reconstruct_refs(&mut hier, refs);
    let mut pred = Predictor::new(PredictorConfig::paper());
    let mut bp = RefBpReconstructor::from_records(&mut pred, log.branches.clone(), 0, pct);
    bp.exhaust(&mut pred);
    Reconstructed { cache, sets: all_set_dumps(&hier), bp: bp.stats(), pred: format!("{pred:?}") }
}

#[test]
fn packed_log_materializes_identical_records() {
    // What reconstruction reads of a CPU-retired stream: every reference's
    // line and entry type, and every transfer whole.
    for stream in
        [workload_stream(Benchmark::Mcf, 30_000), workload_stream(Benchmark::Twolf, 30_000)]
    {
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        let seed_refs: Vec<_> =
            legacy.mem.iter().rev().map(|m| (m.addr & LINE_MASK, m.is_inst)).collect();
        let packed_refs: Vec<_> =
            packed.mem_refs_rev().map(|(addr, is_inst)| (addr & LINE_MASK, is_inst)).collect();
        assert_eq!(packed_refs, seed_refs);
        assert_eq!(packed.branch_records().collect::<Vec<_>>(), legacy.branches);
        assert_eq!(packed.appended(), legacy.appended);
        assert!(!packed.truncated());
    }
}

#[test]
fn reconstruction_outcomes_match_across_representations() {
    // Reconstructing from the packed log and from the seed layout's
    // records must agree on everything observable: ReconStats, every set
    // of every cache level, and the predictor's whole reconstructed state.
    for stream in [workload_stream(Benchmark::Mcf, 40_000), workload_stream(Benchmark::Gcc, 40_000)]
    {
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        for pct in [Pct::new(20), Pct::new(100)] {
            assert_eq!(reconstruct_packed(&packed, pct), reconstruct_seed(&legacy, pct), "{pct}");
        }
    }
}

#[test]
fn budget_truncation_decisions_agree() {
    // Express budgets as fractions of each representation's own
    // full-stream byte total: any fraction below 1 must truncate both
    // logs, any fraction at or above 1 must truncate neither — the
    // degradation *decision* is representation-independent.
    for stream in [workload_stream(Benchmark::Twolf, 20_000), adversarial_stream(4_000)] {
        let legacy_total = legacy_replay(&stream, None).approx_bytes();
        let packed_total = packed_replay(&stream, None).approx_bytes();
        for (num, den) in [(1usize, 4usize), (1, 2), (1, 1), (2, 1)] {
            let legacy = legacy_replay(&stream, Some(legacy_total * num / den));
            let packed = packed_replay(&stream, Some(packed_total * num / den));
            assert_eq!(
                legacy.truncated,
                packed.truncated(),
                "truncation decision diverged at {num}/{den} of the full stream"
            );
            assert_eq!(legacy.truncated, num < den);
            if legacy.truncated {
                assert!(packed.is_empty() && packed.appended() > 0);
                assert!(legacy.mem.is_empty() && legacy.appended > 0);
            }
        }
    }
}

#[test]
fn packed_log_halves_resident_bytes_on_real_streams() {
    // One 8-byte word per record against the seed's padded 32 bytes.
    for bench in [Benchmark::Mcf, Benchmark::Twolf, Benchmark::Gcc] {
        let stream = workload_stream(bench, 50_000);
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        assert_eq!(
            legacy.peak_bytes,
            4 * packed.peak_bytes(),
            "{bench:?}: packed log must take a quarter of the seed's bytes"
        );
    }
}
