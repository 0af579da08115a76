//! The reference timing core: the cluster loop as it stood before the
//! event-driven rebuild, kept verbatim as the oracle the rebuilt
//! [`rsr_timing::simulate_cluster_hooked`] is checked against.
//!
//! Every cycle it scans the whole reorder buffer three times — writeback,
//! issue, and the idle-cycle fast-forward — and tracks unissued stores in
//! a `BTreeSet`. That is the straightforward shape of the machine; the
//! library runs the same schedule from a ring, a completion heap and two
//! short age-ordered lists.

use std::collections::{BTreeSet, VecDeque};

use rsr_branch::{PredCtrlKind, Prediction, Predictor};
use rsr_cache::{HierAccess, MemHierarchy};
use rsr_func::{Cpu, ExecError, Retired};
use rsr_isa::OpClass;
use rsr_timing::{to_pred_kind, CoreConfig, HotStats, PredictHook};

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

#[derive(Clone, Debug)]
struct BranchCtl {
    kind: PredCtrlKind,
    prediction: Prediction,
    /// Wrong direction or wrong/unknown indirect target: resolve at execute.
    full_mispredict: bool,
    fetch_cycle: u64,
    resolved: bool,
}

#[derive(Clone, Debug)]
struct Fetched {
    r: Retired,
    ready_at: u64,
    br: Option<BranchCtl>,
}

#[derive(Clone, Debug)]
struct Slot {
    r: Retired,
    class: OpClass,
    /// Producer sequence numbers for each source operand.
    srcs: [Option<u64>; 2],
    issued: bool,
    completed: bool,
    complete_at: u64,
    br: Option<BranchCtl>,
}

const LINE_MASK: u64 = !63;

/// Runs `n_insts` instructions through the reference cycle-accurate core.
/// Same contract, same outputs and same hook-call order as
/// [`rsr_timing::simulate_cluster_hooked`].
///
/// # Errors
///
/// Propagates [`ExecError::PcOutOfText`] from the functional simulator.
///
/// # Panics
///
/// Panics if the configuration is invalid, or on an internal scheduling
/// deadlock.
pub fn ref_simulate_cluster<H: PredictHook + ?Sized>(
    cfg: &CoreConfig,
    cpu: &mut Cpu,
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

    let mut target = n_insts;
    let mut rob: VecDeque<Slot> = VecDeque::with_capacity(cfg.rob_entries);
    let mut head_seq: u64 = 0; // rel seq of rob.front() (valid when !rob.is_empty())
    let mut iq_used = 0usize;
    let mut lsq_used = 0usize;
    let mut spec_branches = 0usize;
    let mut unissued_stores: BTreeSet<u64> = BTreeSet::new();
    let mut last_writer: [Option<u64>; 64] = [None; 64];
    let mut fetch_buf: VecDeque<Fetched> = VecDeque::new();
    let fetch_buf_cap = cfg.fetch_width * 3;
    let mut pending: Option<Retired> = None;
    let mut fetch_stall_until: u64 = 0;
    let mut fetch_blocked_on: Option<u64> = None; // seq of unresolved mispredict
    let mut fetched: u64 = 0;
    let mut retired: u64 = 0;
    let mut cycle: u64 = 0;
    let deadlock_cap = n_insts.saturating_mul(10_000).saturating_add(1_000_000);

    let seq_base = cpu.icount();
    let rel = |seq: u64| seq - seq_base;

    // Is the producer of `seq` complete (or already retired)?
    let producer_done = |rob: &VecDeque<Slot>, head_seq: u64, seq: u64| -> bool {
        if rob.is_empty() || seq < head_seq {
            return true;
        }
        let idx = (seq - head_seq) as usize;
        idx >= rob.len() || rob[idx].completed
    };

    while retired < target {
        assert!(cycle < deadlock_cap, "timing core deadlock at cycle {cycle}");

        // Did any stage change machine state this cycle? Stall-dominated
        // clusters (memory-bound IPC far below 1) spend most cycles with
        // nothing in flight maturing; those cycles are detected below and
        // fast-forwarded in one jump, which changes simulation time but
        // not the cycle arithmetic (no access, prediction, or state
        // transition happens on an idle cycle).
        let mut progress = false;

        // ---- commit ---------------------------------------------------
        for _ in 0..cfg.retire_width {
            let Some(front) = rob.front() else { break };
            if !front.completed {
                break;
            }
            let Some(slot) = rob.pop_front() else { break };
            progress = true;
            head_seq = rel(slot.r.seq) + 1;
            if let Some(m) = slot.r.mem {
                lsq_used -= 1;
                if m.is_store {
                    // Write-through traffic happens at commit; a store
                    // buffer means retire does not wait for it.
                    hier.access(cycle, m.addr, HierAccess::Store);
                }
            }
            if let (Some(b), Some(br)) = (slot.r.branch, slot.br.as_ref()) {
                pred.commit(slot.r.pc, br.kind, &br.prediction, b.taken, b.target);
            }
            retired += 1;
            if retired == target {
                break;
            }
        }
        if retired >= target {
            break;
        }

        // ---- writeback / branch resolution -----------------------------
        #[allow(clippy::needless_range_loop)] // indices also feed producer_done lookups
        for idx in 0..rob.len() {
            if rob[idx].issued && !rob[idx].completed && rob[idx].complete_at <= cycle {
                rob[idx].completed = true;
                progress = true;
                let slot = &mut rob[idx];
                if let Some(br) = slot.br.as_mut() {
                    if !br.resolved {
                        br.resolved = true;
                        spec_branches -= 1;
                        if br.full_mispredict {
                            let actual = slot.r.branch.map(|b| b.taken);
                            let dir = match br.kind {
                                PredCtrlKind::CondBranch => actual,
                                _ => None,
                            };
                            pred.recover(&br.prediction.checkpoint, dir);
                            if fetch_blocked_on == Some(slot.r.seq) {
                                fetch_blocked_on = None;
                                let resume = (slot.complete_at + 1)
                                    .max(br.fetch_cycle + cfg.min_mispredict_penalty);
                                fetch_stall_until = fetch_stall_until.max(resume);
                            }
                        }
                    }
                }
            }
        }

        // ---- issue ------------------------------------------------------
        let mut issued_now = 0usize;
        let oldest_unissued_store = unissued_stores.first().copied();
        for idx in 0..rob.len() {
            if issued_now >= cfg.issue_width {
                break;
            }
            if rob[idx].issued {
                continue;
            }
            let ready = rob[idx].srcs.iter().flatten().all(|&s| {
                // A producer in this very cycle's writeback set counts;
                // back-to-back dependent issue is modeled by complete_at.
                producer_done(&rob, head_seq, rel(s))
            });
            if !ready {
                continue;
            }
            let seq = rob[idx].r.seq;
            if let Some(m) = rob[idx].r.mem {
                if !m.is_store {
                    // Loads wait until every older store address is known.
                    if oldest_unissued_store.is_some_and(|s| s < seq) {
                        continue;
                    }
                }
            }
            let slot = &mut rob[idx];
            slot.issued = true;
            progress = true;
            iq_used -= 1;
            issued_now += 1;
            slot.complete_at = match slot.r.mem {
                Some(m) if !m.is_store => {
                    let t = hier.access(cycle, m.addr, HierAccess::Load);
                    t.max(cycle + 2)
                }
                _ => cycle + cfg.latency(slot.class),
            };
            if slot.r.mem.is_some_and(|m| m.is_store) {
                unissued_stores.remove(&seq);
            }
        }

        // ---- dispatch ---------------------------------------------------
        for _ in 0..cfg.dispatch_width {
            let Some(front) = fetch_buf.front() else { break };
            if front.ready_at > cycle {
                break;
            }
            if rob.len() >= cfg.rob_entries || iq_used >= cfg.iq_entries {
                break;
            }
            let is_mem = front.r.mem.is_some();
            if is_mem && lsq_used >= cfg.lsq_entries {
                break;
            }
            let Some(f) = fetch_buf.pop_front() else { break };
            progress = true;
            let (src_regs, dest) = operands(&f.r);
            let srcs = [
                src_regs[0].and_then(|r| last_writer[r as usize]),
                src_regs[1].and_then(|r| last_writer[r as usize]),
            ];
            if let Some(d) = dest {
                last_writer[d as usize] = Some(f.r.seq);
            }
            if rob.is_empty() {
                head_seq = rel(f.r.seq);
            }
            iq_used += 1;
            if is_mem {
                lsq_used += 1;
                if matches!(&f.r.mem, Some(m) if m.is_store) {
                    unissued_stores.insert(f.r.seq);
                }
            }
            rob.push_back(Slot {
                class: f.r.inst.op.class(),
                srcs,
                issued: false,
                completed: false,
                complete_at: u64::MAX,
                br: f.br,
                r: f.r,
            });
        }

        // ---- fetch ------------------------------------------------------
        'fetch: {
            if fetch_blocked_on.is_some() || cycle < fetch_stall_until {
                break 'fetch;
            }
            if fetched >= target || fetch_buf.len() >= fetch_buf_cap {
                break 'fetch;
            }
            let mut group_line: Option<u64> = None;
            let mut group_ready: u64 = cycle + 1;
            for _ in 0..cfg.fetch_width {
                if fetched >= target || fetch_buf.len() >= fetch_buf_cap {
                    break;
                }
                let r = match pending.take() {
                    Some(r) => r,
                    None => match cpu.step() {
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
                match group_line {
                    None => {
                        group_line = Some(line);
                        let t = hier.access(cycle, r.pc, HierAccess::Fetch);
                        progress = true;
                        group_ready = group_ready.max(t);
                        // A miss occupies the fetch engine until the line
                        // arrives.
                        fetch_stall_until = fetch_stall_until.max(t);
                    }
                    Some(l) if l != line => {
                        // Group ends at the cache-line boundary.
                        pending = Some(r);
                        break;
                    }
                    _ => {}
                }

                let br = if let Some(b) = r.branch {
                    if spec_branches >= cfg.max_spec_branches {
                        pending = Some(r);
                        break;
                    }
                    let kind = to_pred_kind(b.kind);
                    hook.before_predict(pred, r.pc, kind);
                    let prediction = pred.predict(r.pc, kind);
                    let correct = pred.is_correct(&prediction, b.taken, b.target, kind);
                    let direction_ok = match kind {
                        PredCtrlKind::CondBranch => prediction.taken == b.taken,
                        _ => true,
                    };
                    let indirect = matches!(
                        kind,
                        PredCtrlKind::IndirectCall
                            | PredCtrlKind::IndirectJump
                            | PredCtrlKind::Return
                    );
                    let full_mispredict = !direction_ok || (indirect && !correct);
                    let decode_redirect = direction_ok && !correct && !indirect;
                    spec_branches += 1;
                    let ctl = BranchCtl {
                        kind,
                        prediction,
                        full_mispredict,
                        fetch_cycle: cycle,
                        resolved: false,
                    };
                    let seq = r.seq;
                    let taken = b.taken;
                    fetch_buf.push_back(Fetched {
                        r,
                        ready_at: group_ready + cfg.front_end_delay,
                        br: Some(ctl),
                    });
                    fetched += 1;
                    if full_mispredict {
                        stats.full_mispredicts += 1;
                        fetch_blocked_on = Some(seq);
                    } else if decode_redirect {
                        stats.decode_redirects += 1;
                        fetch_stall_until = fetch_stall_until.max(group_ready + 2);
                    }
                    if full_mispredict || decode_redirect || taken {
                        break;
                    }
                    continue;
                } else {
                    None
                };
                fetch_buf.push_back(Fetched { r, ready_at: group_ready + cfg.front_end_delay, br });
                fetched += 1;
            }
        }

        // ---- idle-cycle fast-forward ------------------------------------
        // With no stage active this cycle, the machine state is frozen
        // until some already-scheduled time arrives: an in-flight op's
        // completion, the front of the fetch buffer maturing, or the
        // fetch stall lifting. Every intermediate cycle would repeat this
        // one exactly, so jump straight to the earliest such time. All of
        // those times are in the future here (anything due now would have
        // acted above and set `progress`), hence the `t > cycle` guard
        // only protects against events gated on another stage's progress.
        if progress {
            cycle += 1;
        } else {
            let mut next = u64::MAX;
            for s in rob.iter() {
                if s.issued && !s.completed && s.complete_at > cycle {
                    next = next.min(s.complete_at);
                }
            }
            if let Some(f) = fetch_buf.front() {
                if f.ready_at > cycle {
                    next = next.min(f.ready_at);
                }
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
