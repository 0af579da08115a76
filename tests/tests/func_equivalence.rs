//! Equivalence of the functional interpreter with the reference oracle.
//!
//! [`RefCpu`] (`tests/src/oracle/func.rs`) is the bit-identity oracle: it
//! decodes the program's text word at every fetch and executes it with a
//! match over the sparse `Op` encoding. The library runs the same
//! semantics from the table it predecodes at load, through two entry
//! points: [`Cpu::step`], one slot per call, and [`Cpu::step_n`], whole
//! superblocks per dispatch with the flat software TLB underneath. The
//! sampled-simulation results (est_ipc, the skip logs, every
//! reconstructed structure) are only trustworthy if both agree with the
//! oracle *exactly* — same retired stream, same architectural state at
//! every boundary, same memory image, same faults. These properties drive
//! randomized programs through all three and require bit-identity,
//! leaning on the stream shapes the fast path optimizes: straight-line
//! runs, block terminators of every kind, page-crossing memory traffic,
//! division edge cases, and halts landing mid-block. The nine workloads
//! add the real programs' pointer chases and call/return shapes.

use proptest::prelude::*;
use rsr_func::{ArchState, Cpu, ExecError, Memory, Retired, PAGE_BYTES};
use rsr_integration::oracle::RefCpu;
use rsr_integration::tiny;
use rsr_isa::{Asm, Freg, Program, Reg};
use rsr_workloads::Benchmark;

/// Retires at most `n` instructions one at a time through `step`,
/// returning the retired stream and the terminating error, if one fired
/// early.
fn drain<T>(
    cpu: &mut T,
    n: u64,
    step: impl Fn(&mut T) -> Result<Retired, ExecError>,
) -> (Vec<Retired>, Option<ExecError>) {
    let mut stream = Vec::new();
    for _ in 0..n {
        match step(cpu) {
            Ok(r) => stream.push(r),
            Err(e) => return (stream, Some(e)),
        }
    }
    (stream, None)
}

/// Runs the reference oracle for at most `n` instructions.
fn reference_stream(program: &Program, n: u64) -> (Vec<Retired>, Option<ExecError>, RefCpu) {
    let mut cpu = RefCpu::new(program);
    let (stream, err) = drain(&mut cpu, n, RefCpu::step);
    (stream, err, cpu)
}

/// Runs the library core for at most `n` instructions through `step`.
fn step_stream(program: &Program, n: u64) -> (Vec<Retired>, Option<ExecError>, Cpu) {
    let mut cpu = Cpu::new(program).expect("loads");
    let (stream, err) = drain(&mut cpu, n, Cpu::step);
    (stream, err, cpu)
}

/// Runs the library core for at most `n` instructions through one
/// `step_n`.
fn fast_stream(program: &Program, n: u64) -> (Vec<Retired>, Option<ExecError>, Cpu) {
    let mut cpu = Cpu::new(program).expect("loads");
    let mut stream = Vec::new();
    let err = cpu.step_n(n, |r| stream.push(*r)).err();
    (stream, err, cpu)
}

/// Bit-level architectural state comparison. `ArchState`'s derived
/// `PartialEq` compares `fregs` as IEEE doubles, where `NaN != NaN` —
/// but random programs routinely load integer bit patterns into FP
/// registers, and two cores that both hold the same NaN payload are in
/// *identical* states. Compare the raw bits instead.
fn assert_same_arch(sa: &ArchState, sb: &ArchState) {
    assert_eq!(sa.pc, sb.pc, "pc differs");
    assert_eq!(sa.iregs, sb.iregs, "integer registers differ");
    assert_eq!(sa.icount, sb.icount, "icount differs");
    assert_eq!(sa.halted, sb.halted, "halted flag differs");
    for (i, (fa, fb)) in sa.fregs.iter().zip(&sb.fregs).enumerate() {
        assert_eq!(fa.to_bits(), fb.to_bits(), "f{i} differs");
    }
}

/// Full-image memory comparison: same resident pages, same bytes.
fn assert_same_memory(a: &mut Memory, b: &mut Memory) {
    let pa = a.resident_page_nos();
    let pb = b.resident_page_nos();
    assert_eq!(pa, pb, "resident page sets differ");
    for page in pa {
        let addr = page * PAGE_BYTES;
        let va = a.read_vec(addr, PAGE_BYTES as usize);
        let vb = b.read_vec(addr, PAGE_BYTES as usize);
        assert_eq!(va, vb, "page {page:#x} differs");
    }
}

/// Requires a library run to match the oracle run: every retired record,
/// the terminating condition, the architectural state and the memory
/// image.
fn assert_matches_reference(
    (rs, re, rc): &mut (Vec<Retired>, Option<ExecError>, RefCpu),
    (gs, ge, gc): &mut (Vec<Retired>, Option<ExecError>, Cpu),
) {
    assert_eq!(rs.len(), gs.len(), "retired counts differ");
    for (i, (a, b)) in rs.iter().zip(gs.iter()).enumerate() {
        assert_eq!(a, b, "retired record {i} differs");
    }
    assert_eq!(re, ge, "terminating condition differs");
    assert_same_arch(&rc.arch_state(), &gc.arch_state());
    assert_same_memory(rc.mem_mut(), gc.mem_mut());
}

/// A random but guaranteed-terminating program: a bounded counter loop
/// whose body mixes ALU ops, division edge cases, page-crossing loads and
/// stores of every width, floating-point traffic, calls, and forward
/// branches of every condition — all the shapes the superblock walker and
/// the TLB path handle specially, over every semantic class.
fn build_program(ops: &[u8], iters: u64, edge_seed: u64) -> Program {
    let mut a = Asm::new();
    // Two adjacent zero pages; S1 points 16 bytes before their shared
    // boundary so small positive offsets cross it.
    let buf = a.data_zeros(3 * PAGE_BYTES);
    a.la(Reg::S1, buf + PAGE_BYTES - 16);
    a.la(Reg::S2, buf);
    a.li(Reg::S0, iters as i64);
    // Seed registers with division-edge material.
    a.li(Reg::A0, edge_seed as i64);
    a.li(Reg::A1, i64::MIN);
    a.li(Reg::A2, -1);
    a.li(Reg::A3, 0);
    let top = a.bind_new("top");
    for (k, &op) in ops.iter().enumerate() {
        let r1 = Reg(10 + (op % 8));
        let r2 = Reg(10 + (op / 8 % 8));
        let cross = ((op as i32) % 24) - 4; // offsets straddling the page edge
        match op % 14 {
            0 => {
                a.add(r1, r1, r2);
            }
            1 => {
                a.div(Reg::T1, r1, r2); // includes /0 and MIN/-1 via seeds
                a.rem(Reg::T2, r1, r2);
            }
            2 => {
                a.ld(Reg::T1, cross, Reg::S1);
            }
            3 => {
                a.sd(r1, cross, Reg::S1);
            }
            4 => {
                a.lw(Reg::T1, cross, Reg::S1);
                a.lh(Reg::T2, cross, Reg::S1);
                a.lbu(Reg::T3, cross, Reg::S1);
            }
            5 => {
                a.sw(r1, cross, Reg::S1);
                a.sh(r1, cross + 6, Reg::S1);
                a.sb(r1, cross + 9, Reg::S1);
            }
            6 => {
                // Forward skip over a store — a conditional terminator
                // inside what would otherwise be one straight run.
                let skip = a.new_label(&format!("s{k}"));
                match op / 14 % 6 {
                    0 => a.beq(r1, r2, skip),
                    1 => a.bne(r1, r2, skip),
                    2 => a.blt(r1, r2, skip),
                    3 => a.bge(r1, r2, skip),
                    4 => a.bltu(r1, r2, skip),
                    _ => a.bgeu(r1, r2, skip),
                };
                a.sd(r2, 0, Reg::S2);
                a.bind(skip).unwrap();
            }
            7 => {
                a.mul(r1, r1, r2);
                a.sra(Reg::T1, r1, r2);
            }
            8 => {
                // Call/return pair: jal link + jr, exercising indirect
                // terminators.
                let over = a.new_label(&format!("o{k}"));
                let func = a.new_label(&format!("f{k}"));
                a.jal(Reg::ZERO, over);
                a.bind(func).unwrap();
                a.addi(Reg::T4, Reg::T4, 1);
                a.ret();
                a.bind(over).unwrap();
                a.call(func);
            }
            9 => {
                a.fld(Freg::F1, 0, Reg::S2);
                a.fcvt_d_l(Freg::F2, r1);
                a.fadd(Freg::F3, Freg::F1, Freg::F2);
                a.fsd(Freg::F3, 8, Reg::S2);
                a.fle(Reg::T5, Freg::F1, Freg::F3);
            }
            10 => {
                a.sltu(Reg::T1, r1, r2);
                a.xori(r1, r2, (op as i32) << 2);
            }
            11 => {
                a.slli(Reg::T1, r1, (op % 63) as i32);
                a.srli(Reg::T2, r2, (op % 63) as i32);
            }
            12 => {
                a.sub(Reg::T1, r1, r2);
                a.and(Reg::T2, r1, r2);
                a.or(Reg::T3, r1, r2);
                a.xor(r1, Reg::T1, Reg::T3);
                a.sll(Reg::T4, r2, r1);
                a.srl(Reg::T5, r2, r1);
                a.slt(Reg::T6, r1, r2);
                a.slti(Reg::T1, r2, op as i32 - 128);
                a.sltiu(Reg::T2, r1, op as i32);
                a.andi(Reg::T3, r2, -(op as i32));
                a.ori(r2, r2, op as i32);
                a.srai(Reg::T4, r1, (op % 63) as i32);
                a.lui(Reg::T5, op as i32 - 128);
            }
            _ => {
                a.fmv_d_x(Freg::F4, r1);
                a.fld(Freg::F5, cross, Reg::S1);
                a.fsub(Freg::F6, Freg::F4, Freg::F5);
                a.fmul(Freg::F7, Freg::F6, Freg::F4);
                a.fdiv(Freg::F6, Freg::F7, Freg::F5);
                a.fsqrt(Freg::F7, Freg::F6);
                a.fmin(Freg::F6, Freg::F7, Freg::F4);
                a.fmax(Freg::F7, Freg::F6, Freg::F5);
                a.feq(Reg::T1, Freg::F7, Freg::F4);
                a.flt(Reg::T2, Freg::F5, Freg::F6);
                a.fcvt_l_d(Reg::T3, Freg::F7);
                a.fmv_x_d(r2, Freg::F6);
                a.lwu(Reg::T4, cross, Reg::S1);
                a.lhu(Reg::T5, cross, Reg::S1);
                a.lb(Reg::T6, cross, Reg::S1);
            }
        }
    }
    a.addi(Reg::S0, Reg::S0, -1);
    a.bne(Reg::S0, Reg::ZERO, top);
    a.halt();
    a.finish().expect("assembles")
}

fn arb_program() -> impl Strategy<Value = (Vec<u8>, u64, u64)> {
    (proptest::collection::vec(any::<u8>(), 8..96), 1u64..40, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fast core retires the bit-identical stream the reference core
    /// retires — every field of every record — then lands in the same
    /// architectural state with the same memory image, and reports the
    /// same terminating condition (the halt lands wherever the random
    /// body put it, frequently mid-superblock).
    #[test]
    fn step_n_stream_matches_reference((ops, iters, seed) in arb_program()) {
        let program = build_program(&ops, iters, seed);
        let budget = 2_000_000;
        assert_matches_reference(
            &mut reference_stream(&program, budget),
            &mut fast_stream(&program, budget),
        );
    }

    /// The single-slot entry point retires the same stream as the
    /// reference core, one instruction per call, and ends in the same
    /// state.
    #[test]
    fn step_stream_matches_reference((ops, iters, seed) in arb_program()) {
        let program = build_program(&ops, iters, seed);
        let budget = 2_000_000;
        assert_matches_reference(
            &mut reference_stream(&program, budget),
            &mut step_stream(&program, budget),
        );
    }

    /// Tail accuracy: stopping the fast core at an arbitrary instruction
    /// count — including mid-block — leaves exactly the state the same
    /// number of reference steps leaves.
    #[test]
    fn step_n_is_tail_accurate((ops, iters, seed) in arb_program(), cut in any::<u64>()) {
        let program = build_program(&ops, iters, seed);
        let total = {
            let mut cpu = Cpu::new(&program).expect("loads");
            cpu.run(u64::MAX).expect("halts")
        };
        let k = cut % total.max(1);
        let (rs, _, mut rc) = reference_stream(&program, k);
        let mut fc = Cpu::new(&program).expect("loads");
        let mut count = 0u64;
        fc.step_n(k, |_| count += 1).expect("within program");
        prop_assert_eq!(rs.len() as u64, k);
        prop_assert_eq!(count, k);
        assert_same_arch(&rc.arch_state(), &fc.arch_state());
        assert_same_memory(rc.mem_mut(), fc.mem_mut());
    }

    /// Chunked dispatch composes: many random-sized `step_n` calls retire
    /// the same stream as one call, so consumers can slice regions at any
    /// granularity.
    #[test]
    fn step_n_chunks_compose((ops, iters, seed) in arb_program(),
                             chunks in proptest::collection::vec(1u64..500, 1..20)) {
        let program = build_program(&ops, iters, seed);
        let n: u64 = chunks.iter().sum();
        let (one, oe, mut oc) = fast_stream(&program, n);
        let mut cpu = Cpu::new(&program).expect("loads");
        let mut many = Vec::new();
        let mut err = None;
        for c in chunks {
            if let Err(e) = cpu.step_n(c, |r| many.push(*r)) {
                err = Some(e);
                break;
            }
        }
        prop_assert_eq!(one, many);
        prop_assert_eq!(oe, err);
        assert_same_arch(&oc.arch_state(), &cpu.arch_state());
        assert_same_memory(oc.mem_mut(), cpu.mem_mut());
    }
}

/// The first 100k instructions of every workload: `step`, `step_n` and
/// the oracle retire the same stream and leave the same registers and
/// memory image.
#[test]
fn nine_workloads_match_reference() {
    const N: u64 = 100_000;
    for bench in Benchmark::ALL {
        let program = tiny(bench);
        let mut reference = reference_stream(&program, N);
        assert_eq!(reference.0.len() as u64, N, "{bench:?} retires {N} instructions");
        assert_matches_reference(&mut reference, &mut step_stream(&program, N));
        assert_matches_reference(&mut reference, &mut fast_stream(&program, N));
    }
}
