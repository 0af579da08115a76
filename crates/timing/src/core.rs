//! The cycle-accurate out-of-order engine.
//!
//! Execution-driven from the functional simulator (any
//! [`RetireSource`]: the live [`rsr_func::Cpu`] or a recorded trace of
//! it): the fetch stage pulls architecturally retired records in program
//! order and
//! times them through a 7-stage superscalar pipeline (fetch, two front-end
//! stages, issue, execute, writeback, commit). Wrong-path instructions are
//! not fabricated; instead a mispredicted branch stalls fetch until it
//! resolves — the standard oracle-driven mispredict model — with the
//! paper's 5-cycle minimum penalty enforced.
//!
//! A cycle's cost follows its events, not the reorder buffer's occupancy:
//! per-entry timing state sits on a ring, writeback pops a completion
//! heap, resolution and issue walk short age-ordered lists, and operands
//! wake up when their producer issues.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rsr_branch::{PredCtrlKind, Prediction, Predictor};
use rsr_cache::{HierAccess, MemHierarchy};
use rsr_func::{ExecError, RetireSource, Retired};
use rsr_isa::CtrlKind;

use crate::CoreConfig;

/// A hook invoked immediately before every fetch-time branch prediction.
///
/// This is the integration point for the paper's *on-demand* branch
/// predictor reconstruction (§3.2): the RSR warm-up installs a hook that,
/// when the probed PHT/BTB entry has not been reconstructed yet, consumes
/// the reverse skip-region log far enough to reconstruct it.
pub trait PredictHook {
    /// Called with the predictor, the branch PC, and its kind, before
    /// `Predictor::predict` runs for that branch.
    fn before_predict(&mut self, pred: &mut Predictor, pc: u64, kind: PredCtrlKind);
}

/// A no-op hook for plain (non-reconstructing) simulation.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoHook;

impl PredictHook for NoHook {
    #[inline(always)]
    fn before_predict(&mut self, _pred: &mut Predictor, _pc: u64, _kind: PredCtrlKind) {}
}

/// Measurements from one hot (cycle-accurate) simulation window.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Fully mispredicted control transfers (resolved at execute).
    pub full_mispredicts: u64,
    /// Decode-stage redirects (direct transfer with a BTB miss).
    pub decode_redirects: u64,
}

impl HotStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The predictor's mirror of an ISA control-transfer kind. `rsr-branch`
/// keeps its own copy of the enum to stay free of the ISA dependency; this
/// is the one conversion between the two.
#[inline]
pub fn to_pred_kind(kind: CtrlKind) -> PredCtrlKind {
    match kind {
        CtrlKind::CondBranch => PredCtrlKind::CondBranch,
        CtrlKind::Jump => PredCtrlKind::Jump,
        CtrlKind::Call => PredCtrlKind::Call,
        CtrlKind::IndirectCall => PredCtrlKind::IndirectCall,
        CtrlKind::Return => PredCtrlKind::Return,
        CtrlKind::IndirectJump => PredCtrlKind::IndirectJump,
    }
}

/// Unified register id space: integer `x1..x31` → `1..=31`, floating-point
/// `f0..f31` → `32..=63`. `x0` maps to `None` (never a dependency).
fn int_src(r: u8) -> Option<u8> {
    (r != 0).then_some(r)
}

fn fp_src(r: u8) -> Option<u8> {
    Some(32 + r)
}

/// Source and destination registers of an instruction in the unified space.
fn operands(r: &Retired) -> ([Option<u8>; 2], Option<u8>) {
    use rsr_isa::Op::*;
    let i = &r.inst;
    match i.op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
            ([int_src(i.rs1), int_src(i.rs2)], int_src(i.rd))
        }
        Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu => {
            ([int_src(i.rs1), None], int_src(i.rd))
        }
        Lui => ([None, None], int_src(i.rd)),
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld => ([int_src(i.rs1), None], int_src(i.rd)),
        Fld => ([int_src(i.rs1), None], fp_src(i.rd)),
        Sb | Sh | Sw | Sd => ([int_src(i.rs1), int_src(i.rs2)], None),
        Fsd => ([int_src(i.rs1), fp_src(i.rs2)], None),
        Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => ([fp_src(i.rs1), fp_src(i.rs2)], fp_src(i.rd)),
        Fsqrt => ([fp_src(i.rs1), None], fp_src(i.rd)),
        Feq | Flt | Fle => ([fp_src(i.rs1), fp_src(i.rs2)], int_src(i.rd)),
        Fcvtdl => ([int_src(i.rs1), None], fp_src(i.rd)),
        Fcvtld => ([fp_src(i.rs1), None], int_src(i.rd)),
        Fmvdx => ([int_src(i.rs1), None], fp_src(i.rd)),
        Fmvxd => ([fp_src(i.rs1), None], int_src(i.rd)),
        Beq | Bne | Blt | Bge | Bltu | Bgeu => ([int_src(i.rs1), int_src(i.rs2)], None),
        Jal => ([None, None], int_src(i.rd)),
        Jalr => ([int_src(i.rs1), None], int_src(i.rd)),
        Halt | Nop => ([None, None], None),
    }
}

/// A fetched control transfer's prediction state. Kept in a program-order
/// queue from fetch to commit, apart from the reorder-buffer entries, so a
/// non-branch entry does not carry its predictor checkpoint.
struct BranchCtl {
    /// Cluster-relative sequence number of the branch.
    seq: u64,
    kind: PredCtrlKind,
    prediction: Prediction,
    /// Wrong direction or wrong/unknown indirect target: resolve at execute.
    full_mispredict: bool,
    /// The actual direction of a conditional branch, for recovery.
    recover_dir: Option<bool>,
    fetch_cycle: u64,
}

struct Fetched {
    r: Retired,
    ready_at: u64,
}

/// A ROB entry's timing state, on a ring indexed by `rel_seq & (cap - 1)`.
/// An operand behind an unissued producer joins that producer's waiter
/// list (nodes `(consumer_seq << 1 | operand) + 1`, `0` ends it); the
/// producer's issue folds its completion cycle into every waiter.
#[derive(Copy, Clone, Default)]
struct Hot {
    /// Completion cycle; `u64::MAX` until the entry issues.
    done_at: u64,
    /// Latest completion cycle among the producers issued so far; the
    /// operands are available from then on once `pending` is zero.
    ready_at: u64,
    /// Producers not yet issued.
    pending: u8,
    is_load: bool,
    is_store: bool,
    /// Head of the list of operands waiting for this entry to issue.
    waiters: u64,
    /// Per operand: the next node in its producer's waiter list.
    next: [u64; 2],
}

const LINE_MASK: u64 = !63;

/// Runs `n_insts` instructions through the cycle-accurate core, starting
/// from the next instruction `src` retires and the current contents of
/// `hier`/`pred` (that is exactly what warm-up policies manipulate).
///
/// `src` is read on the correct path only, in program order, and at most
/// `n_insts` times, so a live [`rsr_func::Cpu`] and a
/// [`rsr_func::RetireTrace`] recorded from it time identically.
///
/// The bus clocks in `hier` are reset so the cluster starts at cycle zero;
/// cache and predictor *state* is taken as-is.
///
/// # Errors
///
/// Propagates [`ExecError::PcOutOfText`] from the functional simulator. A
/// clean `halt` inside the window simply ends the run early.
///
/// # Panics
///
/// Panics if the configuration is invalid, or on an internal scheduling
/// deadlock (a bug, not an input condition).
pub fn simulate_cluster<S: RetireSource + ?Sized>(
    cfg: &CoreConfig,
    src: &mut S,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    n_insts: u64,
) -> Result<HotStats, ExecError> {
    simulate_cluster_hooked(cfg, src, hier, pred, n_insts, &mut NoHook)
}

/// [`simulate_cluster`] with a [`PredictHook`] for on-demand warm-up.
///
/// Generic (rather than `&mut dyn PredictHook`) so each hook type gets its
/// own monomorphized copy of the cluster loop: the plain-simulation
/// [`NoHook`] path compiles the hook call away entirely, and the RSR
/// reconstruction hook is a direct, inlinable call instead of a per-branch
/// virtual dispatch. `?Sized` keeps existing `&mut dyn PredictHook` callers
/// compiling unchanged.
///
/// # Errors
///
/// Propagates [`ExecError::PcOutOfText`] from the functional simulator.
///
/// # Panics
///
/// Panics if the configuration is invalid, or on an internal scheduling
/// deadlock (a bug, not an input condition).
pub fn simulate_cluster_hooked<S: RetireSource + ?Sized, H: PredictHook + ?Sized>(
    cfg: &CoreConfig,
    src: &mut S,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    n_insts: u64,
    hook: &mut H,
) -> Result<HotStats, ExecError> {
    if let Err(e) = cfg.validate() {
        panic!("invalid core config: {e}");
    }
    hier.reset_timing();

    let mut stats = HotStats::default();
    if n_insts == 0 {
        return Ok(stats);
    }

    // Sequence numbers are cluster-relative. The ROB holds the consecutive
    // range `retired..retired + rob.len()`, so `retired` is its head.
    let mut target = n_insts;
    let ring_mask = cfg.rob_entries.next_power_of_two() as u64 - 1;
    let slot = |seq: u64| (seq & ring_mask) as usize;
    let idle = Hot { done_at: u64::MAX, ..Hot::default() };
    let mut ring = vec![idle; ring_mask as usize + 1];
    // The instruction records behind the ring, read at issue and commit.
    let mut rob: VecDeque<Retired> = VecDeque::with_capacity(cfg.rob_entries);
    // Issued, not yet written back: completion cycles, earliest on top.
    let mut in_flight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    // Dispatched, not yet issued, oldest first (at most `iq_entries`).
    let mut unissued: Vec<u64> = Vec::with_capacity(cfg.iq_entries);
    let mut issue_due: u64 = 0; // no entry can issue before this cycle
                                // Fetched, not yet committed branches, oldest first; `branch_base` is
                                // the number of the front one. `unresolved` holds the numbers of those
                                // not yet written back (at most `max_spec_branches`).
    let mut branches: VecDeque<BranchCtl> = VecDeque::new();
    let mut branch_base: u64 = 0;
    let mut unresolved: Vec<u64> = Vec::with_capacity(cfg.max_spec_branches);
    let mut lsq_used = 0usize;
    let mut last_writer = [0u64; 64];
    let mut fetch_buf: VecDeque<Fetched> = VecDeque::new();
    let fetch_buf_cap = cfg.fetch_width * 3;
    let mut pending: Option<Retired> = None;
    let mut fetch_stall_until: u64 = 0;
    let mut fetch_blocked_on: Option<u64> = None; // seq of unresolved mispredict
    let mut fetched: u64 = 0;
    let mut retired: u64 = 0;
    let mut cycle: u64 = 0;
    let deadlock_cap = n_insts.saturating_mul(10_000).saturating_add(1_000_000);

    let seq_base = src.next_seq();
    while retired < target {
        assert!(cycle < deadlock_cap, "timing core deadlock at cycle {cycle}");

        // Did any stage change machine state this cycle? Cycles where none
        // does are fast-forwarded below in one jump, which changes host
        // time but not the cycle arithmetic (no access, prediction, or
        // state transition happens on an idle cycle).
        let mut progress = false;

        // ---- commit ---------------------------------------------------
        // An entry is complete once a writeback of an earlier cycle has
        // seen it; no completion cycle is skipped, so that is exactly
        // `done_at < cycle`. (Past the ROB's end the ring is stale, but
        // then there is nothing to pop.)
        for _ in 0..cfg.retire_width {
            if ring[slot(retired)].done_at >= cycle {
                break;
            }
            let Some(r) = rob.pop_front() else { break };
            progress = true;
            if let Some(m) = r.mem {
                lsq_used -= 1;
                if m.is_store {
                    // Write-through traffic happens at commit; a store
                    // buffer means retire does not wait for it.
                    hier.access(cycle, m.addr, HierAccess::Store);
                }
            }
            // Fetch queued one `BranchCtl` per branch, in program order.
            if let (Some(b), Some(br)) = (r.branch, r.branch.and_then(|_| branches.pop_front())) {
                branch_base += 1;
                pred.commit(r.pc, br.kind, &br.prediction, b.taken, b.target);
            }
            retired += 1;
            if retired == target {
                break;
            }
        }
        if retired >= target {
            break;
        }
        let rob_end = retired + rob.len() as u64;

        // ---- writeback / branch resolution -----------------------------
        let due =
            |heap: &BinaryHeap<Reverse<u64>>| heap.peek().is_some_and(|&Reverse(t)| t <= cycle);
        if due(&in_flight) {
            while due(&in_flight) {
                in_flight.pop();
            }
            progress = true;
            // Resolve in age order, so recoveries run oldest first.
            unresolved.retain(|&b| {
                let br = &branches[(b - branch_base) as usize];
                // A branch still in the fetch buffer has no ring entry yet.
                let done_at = if br.seq < rob_end { ring[slot(br.seq)].done_at } else { u64::MAX };
                if done_at > cycle {
                    return true;
                }
                if br.full_mispredict {
                    pred.recover(&br.prediction.checkpoint, br.recover_dir);
                    if fetch_blocked_on == Some(br.seq) {
                        fetch_blocked_on = None;
                        let resume = (done_at + 1).max(br.fetch_cycle + cfg.min_mispredict_penalty);
                        fetch_stall_until = fetch_stall_until.max(resume);
                    }
                }
                false
            });
        }

        // ---- issue ------------------------------------------------------
        // Oldest first, up to `issue_width`. A load waits while any older
        // store was unissued at the start of the cycle. Before `issue_due`
        // nothing can issue: that takes a known ready cycle arriving, or
        // another issue (which wakes operands and unblocks loads).
        if cycle >= issue_due {
            let mut issued_now = 0usize;
            let mut older_store = false;
            let mut next_ready = u64::MAX;
            unissued.retain(|&seq| {
                if issued_now >= cfg.issue_width {
                    return true;
                }
                let i = slot(seq);
                let Hot { ready_at, pending, is_load, is_store, .. } = ring[i];
                let waits_on_store = is_load && older_store;
                older_store |= is_store;
                // A producer in this very cycle's writeback set counts;
                // back-to-back dependent issue is modeled by `done_at`.
                if pending > 0 || ready_at > cycle || waits_on_store {
                    if pending == 0 && !waits_on_store {
                        next_ready = next_ready.min(ready_at);
                    }
                    return true;
                }
                progress = true;
                issued_now += 1;
                let r = &rob[(seq - retired) as usize];
                let done_at = match r.mem {
                    Some(m) if !m.is_store => {
                        let t = hier.access(cycle, m.addr, HierAccess::Load);
                        t.max(cycle + 2)
                    }
                    _ => cycle + cfg.latency(r.inst.op.class()),
                };
                ring[i].done_at = done_at;
                in_flight.push(Reverse(done_at));
                let mut node = std::mem::take(&mut ring[i].waiters);
                while node != 0 {
                    let (consumer, operand) = ((node - 1) >> 1, (node - 1) & 1);
                    let w = &mut ring[slot(consumer)];
                    node = w.next[operand as usize];
                    w.ready_at = w.ready_at.max(done_at);
                    w.pending -= 1;
                }
                false
            });
            issue_due = if issued_now > 0 { cycle + 1 } else { next_ready };
        }

        // ---- dispatch ---------------------------------------------------
        for _ in 0..cfg.dispatch_width {
            let Some(front) = fetch_buf.front() else { break };
            let is_mem = front.r.mem.is_some();
            if front.ready_at > cycle
                || rob.len() >= cfg.rob_entries
                || unissued.len() >= cfg.iq_entries
                || (is_mem && lsq_used >= cfg.lsq_entries)
            {
                break;
            }
            let Some(f) = fetch_buf.pop_front() else { break };
            progress = true;
            let seq = retired + rob.len() as u64;
            debug_assert_eq!(seq, f.r.seq - seq_base);
            let is_store = f.r.mem.is_some_and(|m| m.is_store);
            lsq_used += usize::from(is_mem);
            let mut hot = Hot { is_load: is_mem && !is_store, is_store, ..idle };
            let (src_regs, dest) = operands(&f.r);
            for (operand, r) in src_regs.into_iter().enumerate() {
                // `last_writer` holds `rel_seq + 1`; a producer at or below
                // `retired` has left the ROB and is complete.
                let Some(p) = r.map(|r| last_writer[r as usize]).filter(|&p| p > retired) else {
                    continue;
                };
                let producer = &mut ring[slot(p - 1)];
                if producer.done_at == u64::MAX {
                    hot.next[operand] = producer.waiters;
                    producer.waiters = ((seq << 1) | operand as u64) + 1;
                    hot.pending += 1;
                } else {
                    hot.ready_at = hot.ready_at.max(producer.done_at);
                }
            }
            if let Some(d) = dest {
                last_writer[d as usize] = seq + 1;
            }
            ring[slot(seq)] = hot;
            if hot.pending == 0 {
                issue_due = issue_due.min(hot.ready_at.max(cycle + 1));
            }
            unissued.push(seq);
            rob.push_back(f.r);
        }

        // ---- fetch ------------------------------------------------------
        if fetch_blocked_on.is_none() && cycle >= fetch_stall_until {
            let mut group_line: Option<u64> = None;
            let mut group_ready: u64 = cycle + 1;
            for _ in 0..cfg.fetch_width {
                if fetched >= target || fetch_buf.len() >= fetch_buf_cap {
                    break;
                }
                let r = match pending.take() {
                    Some(r) => r,
                    None => match src.next_retired() {
                        Ok(r) => r,
                        Err(ExecError::Halted) => {
                            target = fetched;
                            progress = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    },
                };
                let line = r.pc & LINE_MASK;
                if group_line.is_some_and(|l| l != line) {
                    // Group ends at the cache-line boundary.
                    pending = Some(r);
                    break;
                }
                if group_line.is_none() {
                    group_line = Some(line);
                    let t = hier.access(cycle, r.pc, HierAccess::Fetch);
                    progress = true;
                    group_ready = group_ready.max(t);
                    // A miss occupies the fetch engine until the line arrives.
                    fetch_stall_until = fetch_stall_until.max(t);
                }
                let ready_at = group_ready + cfg.front_end_delay;
                let Some(b) = r.branch else {
                    fetch_buf.push_back(Fetched { r, ready_at });
                    fetched += 1;
                    continue;
                };
                if unresolved.len() >= cfg.max_spec_branches {
                    pending = Some(r);
                    break;
                }
                let kind = to_pred_kind(b.kind);
                hook.before_predict(pred, r.pc, kind);
                let prediction = pred.predict(r.pc, kind);
                let correct = pred.is_correct(&prediction, b.taken, b.target, kind);
                let conditional = kind == PredCtrlKind::CondBranch;
                let direction_ok = !conditional || prediction.taken == b.taken;
                let indirect = matches!(
                    kind,
                    PredCtrlKind::IndirectCall | PredCtrlKind::IndirectJump | PredCtrlKind::Return
                );
                let full_mispredict = !direction_ok || (indirect && !correct);
                let decode_redirect = direction_ok && !correct && !indirect;
                let seq = r.seq - seq_base;
                unresolved.push(branch_base + branches.len() as u64);
                branches.push_back(BranchCtl {
                    seq,
                    kind,
                    prediction,
                    full_mispredict,
                    recover_dir: conditional.then_some(b.taken),
                    fetch_cycle: cycle,
                });
                fetch_buf.push_back(Fetched { r, ready_at });
                fetched += 1;
                if full_mispredict {
                    stats.full_mispredicts += 1;
                    fetch_blocked_on = Some(seq);
                } else if decode_redirect {
                    stats.decode_redirects += 1;
                    fetch_stall_until = fetch_stall_until.max(group_ready + 2);
                }
                if full_mispredict || decode_redirect || b.taken {
                    break;
                }
            }
        }

        // ---- idle-cycle fast-forward ------------------------------------
        // With no stage active this cycle, the machine state is frozen
        // until some already-scheduled time arrives: an in-flight op's
        // completion, the front of the fetch buffer maturing, or the
        // fetch stall lifting. Every intermediate cycle would repeat this
        // one exactly, so jump straight to the earliest such time. The jump
        // never passes a completion, which makes `done_at < cycle` exact.
        if progress {
            cycle += 1;
        } else {
            let mut next = in_flight.peek().map_or(u64::MAX, |&Reverse(t)| t);
            if let Some(f) = fetch_buf.front().filter(|f| f.ready_at > cycle) {
                next = next.min(f.ready_at);
            }
            if fetch_blocked_on.is_none()
                && fetched < target
                && fetch_buf.len() < fetch_buf_cap
                && fetch_stall_until > cycle
            {
                next = next.min(fetch_stall_until);
            }
            cycle = if next == u64::MAX { cycle + 1 } else { next.max(cycle + 1) };
        }
    }

    stats.cycles = cycle.max(1);
    stats.instructions = retired;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_branch::PredictorConfig;
    use rsr_cache::HierarchyConfig;
    use rsr_func::Cpu;
    use rsr_isa::{Asm, Reg};

    fn machine() -> (MemHierarchy, Predictor) {
        (MemHierarchy::new(HierarchyConfig::paper()), Predictor::new(PredictorConfig::paper()))
    }

    fn run_insts(build: impl FnOnce(&mut Asm), n: u64) -> HotStats {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let (mut hier, mut pred) = machine();
        simulate_cluster(&CoreConfig::paper(), &mut cpu, &mut hier, &mut pred, n).unwrap()
    }

    /// An infinite stream of independent ALU ops should approach the retire
    /// width (IPC ≈ 4) once the pipeline fills.
    #[test]
    fn independent_alu_ipc_near_retire_width() {
        let stats = run_insts(
            |a| {
                let top = a.bind_new("top");
                for i in 0..16 {
                    a.addi(Reg(10 + (i % 8)), Reg::ZERO, i as i32);
                }
                a.j(top);
            },
            20_000,
        );
        let ipc = stats.ipc();
        assert!(ipc > 2.5, "ipc {ipc}");
        assert!(ipc <= 4.01, "ipc {ipc} cannot beat retire width");
    }

    /// A serial dependency chain of 12-cycle divides is latency-bound:
    /// IPC ≈ 1/12.
    #[test]
    fn dependent_divides_are_latency_bound() {
        let stats = run_insts(
            |a| {
                a.li(Reg::T0, 1_000_000);
                a.li(Reg::T1, 1);
                let top = a.bind_new("top");
                for _ in 0..8 {
                    a.div(Reg::T0, Reg::T0, Reg::T1);
                }
                a.j(top);
            },
            5_000,
        );
        let ipc = stats.ipc();
        assert!(ipc < 0.25, "ipc {ipc} should be divide-latency bound");
    }

    /// The same program must report identical cycle counts on repeat runs
    /// (the model is deterministic).
    #[test]
    fn deterministic_cycles() {
        let s1 = run_insts(
            |a| {
                let top = a.bind_new("top");
                a.addi(Reg::T0, Reg::T0, 1);
                a.j(top);
            },
            10_000,
        );
        let s2 = run_insts(
            |a| {
                let top = a.bind_new("top");
                a.addi(Reg::T0, Reg::T0, 1);
                a.j(top);
            },
            10_000,
        );
        assert_eq!(s1, s2);
    }

    /// Alternating (data-dependent, pattern-free) branches mispredict and
    /// cost cycles versus the same loop without them.
    #[test]
    fn mispredicts_cost_cycles() {
        // Hard-to-predict: branch on xorshift bit.
        let noisy = run_insts(
            |a| {
                a.li(Reg::S0, 0x123456789);
                let top = a.bind_new("top");
                a.slli(Reg::T0, Reg::S0, 13);
                a.xor(Reg::S0, Reg::S0, Reg::T0);
                a.srli(Reg::T0, Reg::S0, 7);
                a.xor(Reg::S0, Reg::S0, Reg::T0);
                a.slli(Reg::T0, Reg::S0, 17);
                a.xor(Reg::S0, Reg::S0, Reg::T0);
                a.andi(Reg::T1, Reg::S0, 1);
                let skip = a.new_label("skip");
                a.beq(Reg::T1, Reg::ZERO, skip);
                a.addi(Reg::T2, Reg::T2, 1);
                a.bind(skip).unwrap();
                a.j(top);
            },
            20_000,
        );
        assert!(noisy.full_mispredicts > 500, "mispredicts {}", noisy.full_mispredicts);
        assert!(noisy.ipc() < 2.0, "ipc {}", noisy.ipc());
    }

    /// Cold-cache pointer chasing is memory-latency bound: IPC far below 1.
    #[test]
    fn cache_misses_throttle_ipc() {
        let stats = run_insts(
            |a| {
                // Walk a large stride so every load misses.
                a.li(Reg::S1, 0x1000_0000);
                a.li(Reg::S2, 0);
                let top = a.bind_new("top");
                a.ld(Reg::T0, 0, Reg::S1);
                a.add(Reg::S2, Reg::S2, Reg::T0);
                // Serialize the next address on the loaded value (always 0).
                a.add(Reg::S1, Reg::S1, Reg::T0);
                a.addi(Reg::S1, Reg::S1, 4096);
                a.j(top);
            },
            3_000,
        );
        assert!(stats.ipc() < 0.5, "ipc {}", stats.ipc());
    }

    /// Store-to-load ordering: a load must wait for older stores' address
    /// generation, so a dependent store→load chain is slower than pure
    /// loads.
    #[test]
    fn loads_wait_for_older_stores() {
        let with_stores = run_insts(
            |a| {
                let buf = a.data_zeros(64);
                a.la(Reg::S1, buf);
                let top = a.bind_new("top");
                for _ in 0..4 {
                    a.sd(Reg::T0, 0, Reg::S1);
                    a.ld(Reg::T1, 0, Reg::S1);
                }
                a.j(top);
            },
            8_000,
        );
        // The store traffic and ordering constraint must cost relative to
        // an equivalent loop of independent ALU ops.
        let alu_only = run_insts(
            |a| {
                let top = a.bind_new("top");
                for i in 0..8 {
                    a.addi(Reg(10 + i), Reg::ZERO, i as i32);
                }
                a.j(top);
            },
            8_000,
        );
        assert!(
            with_stores.cycles > alu_only.cycles,
            "stores {} vs alu {}",
            with_stores.cycles,
            alu_only.cycles
        );
    }

    /// Decode redirects (direct branch, BTB miss) are counted and cheaper
    /// than full mispredicts.
    #[test]
    fn decode_redirects_are_tracked() {
        let stats = run_insts(
            |a| {
                // An always-taken loop branch: direction trains quickly but
                // the first encounters miss the BTB.
                a.li(Reg::T0, 0);
                a.li(Reg::T1, 1_000_000);
                let top = a.bind_new("top");
                for _ in 0..4 {
                    a.addi(Reg::T0, Reg::T0, 1);
                }
                a.blt(Reg::T0, Reg::T1, top);
            },
            20_000,
        );
        assert!(
            stats.decode_redirects > 0 || stats.full_mispredicts > 0,
            "cold BTB must cost something"
        );
        // Once trained, the loop runs well.
        assert!(stats.ipc() > 1.0, "ipc {}", stats.ipc());
    }

    /// The ROB bounds in-flight work: a window full of long-latency ops
    /// stalls dispatch rather than deadlocking or overrunning.
    #[test]
    fn rob_pressure_does_not_deadlock() {
        let stats = run_insts(
            |a| {
                a.li(Reg::T1, 3);
                let top = a.bind_new("top");
                // 80 independent divides: more than the 64-entry ROB.
                for i in 0..80 {
                    a.div(Reg(10 + (i % 16)), Reg::T1, Reg::T1);
                }
                a.j(top);
            },
            10_000,
        );
        assert_eq!(stats.instructions, 10_000);
        // Throughput limited by issue width over divide latency, not zero.
        assert!(stats.ipc() > 0.1 && stats.ipc() <= 4.0);
    }

    /// A `halt` inside the window ends the run early but cleanly.
    #[test]
    fn halt_ends_run_early() {
        let stats = run_insts(
            |a| {
                a.addi(Reg::T0, Reg::ZERO, 1);
                a.addi(Reg::T1, Reg::ZERO, 2);
                a.halt();
            },
            1_000,
        );
        assert_eq!(stats.instructions, 3);
        assert!(stats.cycles >= 3);
    }

    /// Requesting zero instructions is a no-op.
    #[test]
    fn zero_window() {
        let stats = run_insts(
            |a| {
                a.halt();
            },
            0,
        );
        assert_eq!(stats.instructions, 0);
    }

    /// Warmed caches make the same cluster faster — the whole premise of
    /// warm-up methods.
    #[test]
    fn warm_caches_speed_up_cluster() {
        use rsr_workloads::{Benchmark, WorkloadParams};
        let params = WorkloadParams { scale: 0.05, ..Default::default() };
        let p = Benchmark::Mcf.build(&params);

        // Cold run.
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.run(50_000).unwrap();
        let (mut hier, mut pred) = machine();
        let cold =
            simulate_cluster(&CoreConfig::paper(), &mut cpu, &mut hier, &mut pred, 5_000).unwrap();

        // Warmed run: functionally warm the caches over the same skip.
        let mut cpu = Cpu::new(&p).unwrap();
        let (mut hier, mut pred) = machine();
        for _ in 0..50_000 {
            let r = cpu.step().unwrap();
            if let Some(m) = r.mem {
                hier.warm_access(
                    m.addr,
                    if m.is_store { HierAccess::Store } else { HierAccess::Load },
                );
            }
            hier.warm_access(r.pc, HierAccess::Fetch);
            if let Some(b) = r.branch {
                pred.warm_update(r.pc, to_pred_kind(b.kind), b.taken, b.target);
            }
        }
        let warm =
            simulate_cluster(&CoreConfig::paper(), &mut cpu, &mut hier, &mut pred, 5_000).unwrap();

        assert!(warm.cycles < cold.cycles, "warm {} vs cold {} cycles", warm.cycles, cold.cycles);
    }
}
