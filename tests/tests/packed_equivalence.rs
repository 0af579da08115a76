//! Packed-vs-legacy skip-log equivalence: the structure-of-arrays log must
//! be observationally identical to the padded array-of-structs
//! representation it replaced — same record streams, same reverse
//! reconstruction outcomes, same budget-truncation decisions — while
//! resident bytes shrink at least 2x on real reference streams.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierarchyConfig, MemHierarchy};
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, BranchRecord, MemRecord, Pct, ReconStats,
    SkipLog,
};
use rsr_func::{BranchRec, Cpu, MemAccess, Retired};
use rsr_integration::tiny;
use rsr_isa::{CtrlKind, Inst, MemWidth, Op};
use rsr_workloads::Benchmark;

const LINE_MASK: u64 = !63;

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

/// A deterministic adversarial stream: synthetic records with 64-bit PCs,
/// mismatched fetch addresses, non-sequential data next_pcs, and branches
/// whose next_pc contradicts their outcome — everything the packed
/// derivations cannot represent inline and must spill losslessly.
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

/// Full reconstruction state from one log: cache recon stats, every set's
/// MRU-ordered tags at every level, and the predictor's observable state
/// after an eager BP pass.
fn reconstruct_all(log: &SkipLog, pct: Pct) -> (ReconStats, Vec<Vec<u64>>, u64, ReconStats) {
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let (cache_stats, _) = reconstruct_caches_partitioned(&mut hier, log, pct, 1);
    let mut tags = Vec::new();
    for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
        for set in 0..cache.num_sets() {
            tags.push(cache.set_tags_mru_order(set));
        }
    }
    let mut pred = Predictor::new(PredictorConfig::default());
    let mut bp = BpReconstructor::new(&mut pred, log, pct);
    bp.exhaust(&mut pred);
    (cache_stats, tags, pred.gshare.ghr(), bp.stats())
}

#[test]
fn packed_log_materializes_identical_records() {
    for stream in [
        workload_stream(Benchmark::Mcf, 30_000),
        workload_stream(Benchmark::Twolf, 30_000),
        adversarial_stream(5_000),
    ] {
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        assert_eq!(packed.mem_records().collect::<Vec<_>>(), legacy.mem);
        assert_eq!(packed.branch_records().collect::<Vec<_>>(), legacy.branches);
        assert_eq!(packed.appended(), legacy.appended);
        assert!(!packed.truncated());
    }
}

#[test]
fn reconstruction_outcomes_match_across_representations() {
    // Reconstructing from the directly-recorded packed log and from a
    // packed log rebuilt out of the legacy record vectors must agree on
    // everything observable: ReconStats, final cache tags and LRU order at
    // every level, and the predictor's reconstructed state.
    for stream in [workload_stream(Benchmark::Mcf, 40_000), workload_stream(Benchmark::Gcc, 40_000)]
    {
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        let from_legacy =
            SkipLog::from_records(legacy.mem.iter().copied(), legacy.branches.iter().copied(), 0);
        for pct in [Pct::new(20), Pct::new(100)] {
            let a = reconstruct_all(&packed, pct);
            let b = reconstruct_all(&from_legacy, pct);
            assert_eq!(a.0, b.0, "cache ReconStats diverged at {pct:?}");
            assert_eq!(a.1, b.1, "cache tags diverged at {pct:?}");
            assert_eq!(a.2, b.2, "reconstructed GHR diverged at {pct:?}");
            assert_eq!(a.3, b.3, "BP ReconStats diverged at {pct:?}");
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
    for bench in [Benchmark::Mcf, Benchmark::Twolf, Benchmark::Gcc] {
        let stream = workload_stream(bench, 50_000);
        let legacy = legacy_replay(&stream, None);
        let packed = packed_replay(&stream, None);
        let ratio = legacy.peak_bytes as f64 / packed.peak_bytes() as f64;
        assert!(
            ratio >= 2.0,
            "{bench:?}: packed log must halve resident bytes, got {ratio:.2}x \
             ({} -> {})",
            legacy.peak_bytes,
            packed.peak_bytes()
        );
    }
}
