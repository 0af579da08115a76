//! The functional simulator core.
//!
//! Two execution engines share one architectural state:
//!
//! * [`Cpu::step`] — the *reference* interpreter: fetch, bounds-check,
//!   and a match over the sparse [`Op`] encoding for every instruction.
//!   It is the bit-identity oracle the fast path is verified against
//!   (the `func_equivalence` suite) and the engine the cycle-accurate
//!   hot phase drives one instruction at a time.
//! * [`Cpu::step_n`] — the *fast* core behind every functional
//!   fast-forward: a superblock dispatcher over a predecoded semantic
//!   table (see [`Predecoded`]). Straight-line runs between block
//!   terminators execute with the PC bounds check, table indexing, and
//!   operand extraction hoisted out of the per-instruction path; PC and
//!   icount are carried in locals and written back per block.
//!
//! Both produce identical [`Retired`] streams, register files, memory
//! images, and [`ExecError`]s by construction and by proptest.

use std::sync::Arc;

use rsr_isa::{
    Addr, CtrlKind, DecodeError, Freg, Inst, MemWidth, Op, Program, Reg, SemClass, SemInst,
    INST_BYTES,
};

use crate::{Memory, PAGE_BYTES};

/// A memory access performed by a retired instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: Addr,
    /// Access width.
    pub width: MemWidth,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// Control-transfer outcome of a retired instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BranchRec {
    /// Static classification (conditional, call, return, ...).
    pub kind: CtrlKind,
    /// Whether the transfer was taken. Unconditional transfers are always
    /// taken.
    pub taken: bool,
    /// The taken-path target: the actual target for taken transfers, the
    /// static target for not-taken conditional branches (what a BTB would
    /// hold).
    pub target: Addr,
}

/// Everything the timing model and the warm-up logger need to know about one
/// retired instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Retired {
    /// Zero-based dynamic instruction number.
    pub seq: u64,
    /// Address of the instruction.
    pub pc: Addr,
    /// Address of the next instruction in program order.
    pub next_pc: Addr,
    /// The decoded instruction.
    pub inst: Inst,
    /// Memory access, if any.
    pub mem: Option<MemAccess>,
    /// Control-transfer outcome, if any.
    pub branch: Option<BranchRec>,
}

/// A consumer of retired instructions for [`Cpu::step_n_sink`].
///
/// Implementations that mark `retire` with `#[inline(always)]` are
/// guaranteed to be fused into the superblock dispatch loop — the
/// attribute is binding on the inliner, unlike a closure passed to
/// [`Cpu::step_n`], which LLVM outlines once the sink body is nontrivial.
pub trait RetireSink {
    /// Observes one retired instruction.
    fn retire(&mut self, r: &Retired);
}

/// Errors raised while executing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment or became misaligned.
    PcOutOfText {
        /// The offending program counter.
        pc: Addr,
    },
    /// `step` was called on a halted machine.
    Halted,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfText { pc } => {
                write!(f, "program counter {pc:#x} left the text segment")
            }
            ExecError::Halted => f.write_str("machine is halted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Error raised when a program image fails to load.
///
/// Every PC and every direct-transfer target must be a 32-bit, 4-byte
/// aligned address: the simulator's skip logs pack a branch's PC and target
/// into one 64-bit record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// A text word does not decode.
    Decode {
        /// Address of the bad word.
        addr: Addr,
        /// The decode failure.
        cause: DecodeError,
    },
    /// The text segment is misaligned or reaches past 32 bits.
    TextOutOfRange {
        /// First text address.
        base: Addr,
        /// One past the last text address.
        end: Addr,
    },
    /// A conditional branch or `jal` targets a misaligned address or one
    /// past 32 bits.
    TargetOutOfRange {
        /// Address of the transfer.
        pc: Addr,
        /// Its target.
        target: Addr,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Decode { addr, cause } => write!(f, "bad instruction at {addr:#x}: {cause}"),
            LoadError::TextOutOfRange { base, end } => {
                write!(f, "text segment {base:#x}..{end:#x} is not 4-byte aligned within 32 bits")
            }
            LoadError::TargetOutOfRange { pc, target } => write!(
                f,
                "transfer at {pc:#x} targets {target:#x}, not a 4-byte aligned 32-bit address"
            ),
        }
    }
}

/// Is `addr` a 4-byte aligned address below 2³²?
fn packable(addr: Addr) -> bool {
    addr < 1 << 32 && addr.is_multiple_of(INST_BYTES)
}

impl std::error::Error for LoadError {}

/// Stack pages [`Cpu::new`] reserves frames for beyond the loaded image.
const STACK_RESERVE_PAGES: usize = 16;

/// Pages the byte span `[base, base + len)` touches.
fn span_pages(base: Addr, len: u64) -> usize {
    if len == 0 {
        return 0;
    }
    (base.saturating_add(len - 1) / PAGE_BYTES - base / PAGE_BYTES + 1) as usize
}

/// A snapshot of the architectural register state (everything except
/// memory), used by checkpoint libraries to restore a CPU without cloning
/// its full memory image.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchState {
    /// Program counter.
    pub pc: Addr,
    /// Integer register file.
    pub iregs: [u64; 32],
    /// Floating-point register file.
    pub fregs: [f64; 32],
    /// Retired-instruction count.
    pub icount: u64,
    /// Halt flag.
    pub halted: bool,
}

/// One statically predecoded instruction slot: the semantic form plus the
/// precomputed taken-path target for direct transfers (conditional
/// branches and `jal`), so the dispatcher never recomputes `pc + imm`.
#[derive(Copy, Clone, Debug)]
struct PreInst {
    sem: SemInst,
    /// `pc.wrapping_add(imm)` for direct transfers; 0 (never read)
    /// otherwise.
    target: Addr,
}

/// The predecoded program image: one [`PreInst`] per static text word,
/// indexed by `(pc - text_base) / INST_BYTES`, plus the superblock map.
///
/// Immutable after load (the ISA has no self-modifying-code contract —
/// stores to text pages change memory, which the I-cache models index,
/// but never the executed stream, exactly as the reference interpreter's
/// load-time decode already behaved), so clones share it through an
/// `Arc`: a CPU snapshot costs registers + memory pages, not a re-decode.
#[derive(Debug)]
struct Predecoded {
    code: Vec<PreInst>,
    /// `block_end[i]` = index of the first block terminator at or after
    /// `i` (a control transfer or `halt`), or `code.len()` when the
    /// straight-line run falls off the end of text. Everything in
    /// `i..block_end[i]` is guaranteed fall-through: no faults, no
    /// control transfer, `next_pc = pc + 4`.
    block_end: Vec<u32>,
}

impl Predecoded {
    fn load(program: &Program) -> Result<Predecoded, LoadError> {
        let (base, end) = (program.text_base(), program.text_end());
        if !packable(base) || end > 1 << 32 {
            return Err(LoadError::TextOutOfRange { base, end });
        }
        let mut code = Vec::with_capacity(program.text().len());
        for (i, &word) in program.text().iter().enumerate() {
            let addr = base + i as u64 * INST_BYTES;
            let inst = Inst::decode(word).map_err(|cause| LoadError::Decode { addr, cause })?;
            let sem = inst.semantic();
            let target = if sem.class.is_cond_branch() || sem.class == SemClass::Jal {
                let target = addr.wrapping_add(sem.imm as u64);
                if !packable(target) {
                    return Err(LoadError::TargetOutOfRange { pc: addr, target });
                }
                target
            } else {
                0
            };
            code.push(PreInst { sem, target });
        }
        let mut block_end = vec![0u32; code.len()];
        let mut term = code.len() as u32;
        for i in (0..code.len()).rev() {
            if code[i].sem.class.is_terminator() {
                term = i as u32;
            }
            block_end[i] = term;
        }
        Ok(Predecoded { code, block_end })
    }
}

/// The architectural machine: registers, PC, and memory.
///
/// `Cpu` executes the SimRISC ISA in order, one instruction per
/// [`Cpu::step`], returning a [`Retired`] record that downstream consumers
/// (the timing model, warm-up loggers) use. It is the paper's "functional
/// simulator": it always holds correct architectural state regardless of
/// what the timing model does. Bulk fast-forwarding goes through
/// [`Cpu::step_n`], which dispatches over the predecoded superblock table
/// instead of re-decoding per instruction (see the module docs).
#[derive(Clone, Debug)]
pub struct Cpu {
    pc: Addr,
    iregs: [u64; 32],
    fregs: [f64; 32],
    mem: Memory,
    pre: Arc<Predecoded>,
    text_base: Addr,
    text_end: Addr,
    halted: bool,
    icount: u64,
}

impl Cpu {
    /// Loads a program and prepares the machine at its entry point, with the
    /// stack pointer and global pointer initialized.
    ///
    /// The text segment is decoded up front so that fetch is a table lookup.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if any text word fails to decode, or if the
    /// text or a direct-transfer target is not a 4-byte aligned 32-bit
    /// address.
    pub fn new(program: &Program) -> Result<Cpu, LoadError> {
        let pre = Arc::new(Predecoded::load(program)?);
        let mut mem = Memory::new();
        mem.reserve_pages(
            span_pages(program.text_base(), program.text_len())
                + span_pages(program.data_base(), program.data().len() as u64)
                + STACK_RESERVE_PAGES,
        );
        // Text lives in memory too (the I-cache indexes real addresses).
        for (i, &word) in program.text().iter().enumerate() {
            mem.write_u32(program.text_base() + i as u64 * INST_BYTES, word);
        }
        mem.write_slice(program.data_base(), program.data());
        let mut iregs = [0u64; 32];
        iregs[Reg::SP.num() as usize] = program.stack_top();
        iregs[Reg::GP.num() as usize] = program.data_base();
        Ok(Cpu {
            pc: program.entry(),
            iregs,
            fregs: [0.0; 32],
            mem,
            pre,
            text_base: program.text_base(),
            text_end: program.text_end(),
            halted: false,
            icount: 0,
        })
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Number of retired instructions so far.
    #[inline]
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Whether the program has executed `halt`.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads an integer register.
    #[inline]
    pub fn ireg(&self, r: Reg) -> u64 {
        self.iregs[r.num() as usize]
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn freg(&self, r: Freg) -> f64 {
        self.fregs[r.num() as usize]
    }

    /// Writes an integer register (writes to `x0` are ignored).
    #[inline]
    pub fn set_ireg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.iregs[r.num() as usize] = value;
        }
    }

    /// The simulated memory.
    #[inline]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the simulated memory (for test setup and
    /// data-structure inspection).
    #[inline]
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Captures the register-level architectural state (see [`ArchState`]).
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            pc: self.pc,
            iregs: self.iregs,
            fregs: self.fregs,
            icount: self.icount,
            halted: self.halted,
        }
    }

    /// Restores register-level state captured with [`Cpu::arch_state`].
    /// Memory is *not* touched — checkpoint consumers overlay the pages
    /// they captured separately.
    pub fn restore_arch(&mut self, state: &ArchState) {
        self.pc = state.pc;
        self.iregs = state.iregs;
        self.fregs = state.fregs;
        self.icount = state.icount;
        self.halted = state.halted;
    }

    #[inline]
    fn ireg_n(&self, n: u8) -> u64 {
        self.iregs[n as usize]
    }

    #[inline]
    fn set_ireg_n(&mut self, n: u8, v: u64) {
        self.iregs[n as usize] = v;
        self.iregs[0] = 0;
    }

    #[inline]
    fn fetch(&self) -> Result<Inst, ExecError> {
        let pc = self.pc;
        if pc < self.text_base || pc >= self.text_end || !pc.is_multiple_of(INST_BYTES) {
            return Err(ExecError::PcOutOfText { pc });
        }
        Ok(self.pre.code[((pc - self.text_base) / INST_BYTES) as usize].sem.inst)
    }

    /// Executes `n` instructions, handing each [`Retired`] result to
    /// `sink`. This is the fast-forward hot loop: monomorphizing the sink
    /// into the dispatch loop lets fused consumers (skip-region logging,
    /// functional warming, reuse profiling, the shard scout) run without
    /// per-instruction dispatch.
    ///
    /// Convenience closure form of [`Cpu::step_n_sink`]. The closure is
    /// *not* guaranteed to inline into the dispatch loop — LLVM routinely
    /// outlines nontrivial sinks from the large `step_n` body, costing an
    /// indirect-free but still real call per retired instruction. Hot
    /// consumers should implement [`RetireSink`] with an
    /// `#[inline(always)]` `retire` and call [`Cpu::step_n_sink`], which
    /// the inliner must fuse.
    ///
    /// # Errors
    ///
    /// As for [`Cpu::step`]; the CPU stops at the faulting instruction.
    #[inline]
    pub fn step_n<F: FnMut(&Retired)>(&mut self, n: u64, sink: F) -> Result<(), ExecError> {
        struct FnSink<F>(F);
        impl<F: FnMut(&Retired)> RetireSink for FnSink<F> {
            #[inline(always)]
            fn retire(&mut self, r: &Retired) {
                (self.0)(r)
            }
        }
        self.step_n_sink(n, &mut FnSink(sink))
    }

    /// Executes `n` instructions, handing each [`Retired`] result to
    /// `sink.retire`. This is the throughput-critical form of
    /// [`Cpu::step_n`]: a sink whose [`RetireSink::retire`] carries
    /// `#[inline(always)]` is guaranteed to be fused into the dispatch
    /// loop (the attribute is binding on the inliner, where a closure is
    /// only a hint), so the per-instruction record path runs with no call
    /// at all.
    ///
    /// Dispatch is by superblock: the PC bounds check and table indexing
    /// run once per basic block, the straight-line run up to the block
    /// terminator executes over a contiguous slice of predecoded
    /// semantic records (no fault paths, `next_pc = pc + 4` throughout),
    /// and PC/icount live in locals written back at block granularity.
    /// The boundary is tail-accurate: `step_n(n)` stops at exactly `n`
    /// retired instructions even mid-block, leaving the CPU in precisely
    /// the state `n` reference [`Cpu::step`] calls would.
    ///
    /// # Errors
    ///
    /// As for [`Cpu::step`]; the CPU stops at the faulting instruction.
    #[inline]
    pub fn step_n_sink<S: RetireSink>(&mut self, n: u64, sink: &mut S) -> Result<(), ExecError> {
        let pre = Arc::clone(&self.pre);
        let mut remaining = n;
        while remaining > 0 {
            if self.halted {
                return Err(ExecError::Halted);
            }
            let pc = self.pc;
            if pc < self.text_base || pc >= self.text_end || !pc.is_multiple_of(INST_BYTES) {
                return Err(ExecError::PcOutOfText { pc });
            }
            let idx = ((pc - self.text_base) / INST_BYTES) as usize;
            let term = pre.block_end[idx] as usize;
            let straight = (term - idx) as u64;
            let take = straight.min(remaining) as usize;

            // Straight-line segment: every instruction falls through and
            // none can fault, so PC and seq advance in locals.
            let mut p = pc;
            let mut seq = self.icount;
            for pi in &pre.code[idx..idx + take] {
                let next_pc = p + INST_BYTES;
                let mem = self.exec_straight(pi);
                sink.retire(&Retired { seq, pc: p, next_pc, inst: pi.sem.inst, mem, branch: None });
                p = next_pc;
                seq += 1;
            }
            self.pc = p;
            self.icount = seq;
            remaining -= take as u64;

            // Block terminator, only when the budget still covers it.
            // (`term == code.len()` means the run fell off the end of
            // text; the next loop iteration reports PcOutOfText exactly
            // as a reference fetch at text_end would.)
            if remaining > 0 && take as u64 == straight && term < pre.code.len() {
                let r = self.exec_terminator(&pre.code[term]);
                sink.retire(&r);
                remaining -= 1;
            }
        }
        Ok(())
    }

    /// Executes one non-terminator instruction from the predecoded table
    /// and returns its memory access, if any. Mirrors the corresponding
    /// [`Cpu::step`] arms exactly — bit-identical architectural effects,
    /// including wrapping arithmetic, x0 hardwiring, and division-by-zero
    /// semantics.
    #[inline(always)]
    fn exec_straight(&mut self, pi: &PreInst) -> Option<MemAccess> {
        let s = &pi.sem;
        let rs1 = self.ireg_n(s.rs1);
        let rs2 = self.ireg_n(s.rs2);
        let imm = s.imm as u64;
        use SemClass::*;
        match s.class {
            Add => self.set_ireg_n(s.rd, rs1.wrapping_add(rs2)),
            Sub => self.set_ireg_n(s.rd, rs1.wrapping_sub(rs2)),
            Mul => self.set_ireg_n(s.rd, rs1.wrapping_mul(rs2)),
            Div => {
                let v =
                    if rs2 == 0 { u64::MAX } else { (rs1 as i64).wrapping_div(rs2 as i64) as u64 };
                self.set_ireg_n(s.rd, v);
            }
            Rem => {
                let v = if rs2 == 0 { rs1 } else { (rs1 as i64).wrapping_rem(rs2 as i64) as u64 };
                self.set_ireg_n(s.rd, v);
            }
            And => self.set_ireg_n(s.rd, rs1 & rs2),
            Or => self.set_ireg_n(s.rd, rs1 | rs2),
            Xor => self.set_ireg_n(s.rd, rs1 ^ rs2),
            Sll => self.set_ireg_n(s.rd, rs1 << (rs2 & 63)),
            Srl => self.set_ireg_n(s.rd, rs1 >> (rs2 & 63)),
            Sra => self.set_ireg_n(s.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Slt => self.set_ireg_n(s.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            Sltu => self.set_ireg_n(s.rd, (rs1 < rs2) as u64),
            Addi => self.set_ireg_n(s.rd, rs1.wrapping_add(imm)),
            Andi => self.set_ireg_n(s.rd, rs1 & imm),
            Ori => self.set_ireg_n(s.rd, rs1 | imm),
            Xori => self.set_ireg_n(s.rd, rs1 ^ imm),
            Slli => self.set_ireg_n(s.rd, rs1 << (imm & 63)),
            Srli => self.set_ireg_n(s.rd, rs1 >> (imm & 63)),
            Srai => self.set_ireg_n(s.rd, ((rs1 as i64) >> (imm & 63)) as u64),
            Slti => self.set_ireg_n(s.rd, ((rs1 as i64) < s.imm) as u64),
            Sltiu => self.set_ireg_n(s.rd, (rs1 < imm) as u64),
            // The << 12 is pre-applied by the semantic decode.
            Lui => self.set_ireg_n(s.rd, imm),
            Lb => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u8(addr) as i8 as i64 as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Lbu => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u8(addr) as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Lh => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u16(addr) as i16 as i64 as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Lhu => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u16(addr) as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Lw => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u32(addr) as i32 as i64 as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Lwu => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u32(addr) as u64;
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Ld => {
                let addr = rs1.wrapping_add(imm);
                let v = self.mem.read_u64(addr);
                // 64-bit load results are the ISA's only pointer carriers;
                // hint the host at the lines a chase through `v` would
                // touch next (see `Memory::prefetch_pointer`).
                self.mem.prefetch_pointer(v);
                self.set_ireg_n(s.rd, v);
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Fld => {
                let addr = rs1.wrapping_add(imm);
                self.fregs[s.rd as usize] = f64::from_bits(self.mem.read_u64(addr));
                return Some(MemAccess { addr, width: s.width, is_store: false });
            }
            Sb => {
                let addr = rs1.wrapping_add(imm);
                self.mem.write_u8(addr, rs2 as u8);
                return Some(MemAccess { addr, width: s.width, is_store: true });
            }
            Sh => {
                let addr = rs1.wrapping_add(imm);
                self.mem.write_u16(addr, rs2 as u16);
                return Some(MemAccess { addr, width: s.width, is_store: true });
            }
            Sw => {
                let addr = rs1.wrapping_add(imm);
                self.mem.write_u32(addr, rs2 as u32);
                return Some(MemAccess { addr, width: s.width, is_store: true });
            }
            Sd => {
                let addr = rs1.wrapping_add(imm);
                self.mem.write_u64(addr, rs2);
                return Some(MemAccess { addr, width: s.width, is_store: true });
            }
            Fsd => {
                let addr = rs1.wrapping_add(imm);
                let bits = self.fregs[s.rs2 as usize].to_bits();
                self.mem.write_u64(addr, bits);
                return Some(MemAccess { addr, width: s.width, is_store: true });
            }
            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fmin | Fmax | Feq | Flt | Fle | Fcvtdl | Fcvtld
            | Fmvdx | Fmvxd => self.exec_fp(s, rs1),
            Nop => {}
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr | Halt => {
                unreachable!("terminators never run on the straight-line path")
            }
        }
        None
    }

    /// Floating-point arms of the straight-line interpreter, outlined so
    /// the integer-dominated hot path — and any record sink fused into it
    /// by a `step_n` caller — stays small enough for the block walk to
    /// inline as one unit. FP-heavy code pays one direct, predictable
    /// call per FP operation; integer code pays nothing.
    #[inline(never)]
    fn exec_fp(&mut self, s: &SemInst, rs1: u64) {
        use SemClass::*;
        match s.class {
            Fadd => {
                self.fregs[s.rd as usize] = self.fregs[s.rs1 as usize] + self.fregs[s.rs2 as usize];
            }
            Fsub => {
                self.fregs[s.rd as usize] = self.fregs[s.rs1 as usize] - self.fregs[s.rs2 as usize];
            }
            Fmul => {
                self.fregs[s.rd as usize] = self.fregs[s.rs1 as usize] * self.fregs[s.rs2 as usize];
            }
            Fdiv => {
                self.fregs[s.rd as usize] = self.fregs[s.rs1 as usize] / self.fregs[s.rs2 as usize];
            }
            Fsqrt => self.fregs[s.rd as usize] = self.fregs[s.rs1 as usize].sqrt(),
            Fmin => {
                self.fregs[s.rd as usize] =
                    self.fregs[s.rs1 as usize].min(self.fregs[s.rs2 as usize]);
            }
            Fmax => {
                self.fregs[s.rd as usize] =
                    self.fregs[s.rs1 as usize].max(self.fregs[s.rs2 as usize]);
            }
            Feq => {
                let v = self.fregs[s.rs1 as usize] == self.fregs[s.rs2 as usize];
                self.set_ireg_n(s.rd, v as u64);
            }
            Flt => {
                let v = self.fregs[s.rs1 as usize] < self.fregs[s.rs2 as usize];
                self.set_ireg_n(s.rd, v as u64);
            }
            Fle => {
                let v = self.fregs[s.rs1 as usize] <= self.fregs[s.rs2 as usize];
                self.set_ireg_n(s.rd, v as u64);
            }
            Fcvtdl => self.fregs[s.rd as usize] = rs1 as i64 as f64,
            Fcvtld => {
                let v = self.fregs[s.rs1 as usize];
                self.set_ireg_n(s.rd, v as i64 as u64);
            }
            Fmvdx => self.fregs[s.rd as usize] = f64::from_bits(rs1),
            Fmvxd => {
                let bits = self.fregs[s.rs1 as usize].to_bits();
                self.set_ireg_n(s.rd, bits);
            }
            _ => unreachable!("exec_fp handles only floating-point classes"),
        }
    }

    /// Executes one block terminator from the predecoded table, updating
    /// PC, icount, and the halt flag. Terminators never fault (their
    /// *successor* may be out of text, which the next block-entry check
    /// reports, exactly as a reference fetch would). Mirrors the
    /// corresponding [`Cpu::step`] arms exactly, including the
    /// rs1-before-link-write ordering of `jalr` (so `jalr ra, ra, 0`
    /// agrees).
    #[inline(always)]
    fn exec_terminator(&mut self, pi: &PreInst) -> Retired {
        let s = &pi.sem;
        let pc = self.pc;
        let seq = self.icount;
        let mut next_pc = pc + INST_BYTES;
        let mut branch = None;
        use SemClass::*;
        match s.class {
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let rs1 = self.ireg_n(s.rs1);
                let rs2 = self.ireg_n(s.rs2);
                let taken = match s.class {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i64) < (rs2 as i64),
                    Bge => (rs1 as i64) >= (rs2 as i64),
                    Bltu => rs1 < rs2,
                    _ => rs1 >= rs2, // Bgeu
                };
                if taken {
                    next_pc = pi.target;
                }
                branch = Some(BranchRec { kind: CtrlKind::CondBranch, taken, target: pi.target });
            }
            Jal => {
                self.set_ireg_n(s.rd, pc + INST_BYTES);
                next_pc = pi.target;
                branch = Some(BranchRec { kind: s.ctrl, taken: true, target: pi.target });
            }
            Jalr => {
                let target = self.ireg_n(s.rs1).wrapping_add(s.imm as u64) & !1u64;
                self.set_ireg_n(s.rd, pc + INST_BYTES);
                next_pc = target;
                branch = Some(BranchRec { kind: s.ctrl, taken: true, target });
            }
            Halt => self.halted = true,
            _ => unreachable!("only terminators end a superblock"),
        }
        self.pc = next_pc;
        self.icount = seq + 1;
        Retired { seq, pc, next_pc, inst: s.inst, mem: None, branch }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Halted`] if the machine already halted, or
    /// [`ExecError::PcOutOfText`] if the PC escaped the text segment.
    pub fn step(&mut self) -> Result<Retired, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.pc;
        let inst = self.fetch()?;
        let mut next_pc = pc + INST_BYTES;
        let mut mem_access = None;
        let mut branch = None;

        let rs1 = self.ireg_n(inst.rs1);
        let rs2 = self.ireg_n(inst.rs2);
        let imm = inst.imm as i64 as u64;

        use Op::*;
        match inst.op {
            Add => self.set_ireg_n(inst.rd, rs1.wrapping_add(rs2)),
            Sub => self.set_ireg_n(inst.rd, rs1.wrapping_sub(rs2)),
            Mul => self.set_ireg_n(inst.rd, rs1.wrapping_mul(rs2)),
            Div => {
                let v =
                    if rs2 == 0 { u64::MAX } else { (rs1 as i64).wrapping_div(rs2 as i64) as u64 };
                self.set_ireg_n(inst.rd, v);
            }
            Rem => {
                let v = if rs2 == 0 { rs1 } else { (rs1 as i64).wrapping_rem(rs2 as i64) as u64 };
                self.set_ireg_n(inst.rd, v);
            }
            And => self.set_ireg_n(inst.rd, rs1 & rs2),
            Or => self.set_ireg_n(inst.rd, rs1 | rs2),
            Xor => self.set_ireg_n(inst.rd, rs1 ^ rs2),
            Sll => self.set_ireg_n(inst.rd, rs1 << (rs2 & 63)),
            Srl => self.set_ireg_n(inst.rd, rs1 >> (rs2 & 63)),
            Sra => self.set_ireg_n(inst.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Slt => self.set_ireg_n(inst.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            Sltu => self.set_ireg_n(inst.rd, (rs1 < rs2) as u64),
            Addi => self.set_ireg_n(inst.rd, rs1.wrapping_add(imm)),
            Andi => self.set_ireg_n(inst.rd, rs1 & imm),
            Ori => self.set_ireg_n(inst.rd, rs1 | imm),
            Xori => self.set_ireg_n(inst.rd, rs1 ^ imm),
            Slli => self.set_ireg_n(inst.rd, rs1 << (imm & 63)),
            Srli => self.set_ireg_n(inst.rd, rs1 >> (imm & 63)),
            Srai => self.set_ireg_n(inst.rd, ((rs1 as i64) >> (imm & 63)) as u64),
            Slti => self.set_ireg_n(inst.rd, ((rs1 as i64) < imm as i64) as u64),
            Sltiu => self.set_ireg_n(inst.rd, (rs1 < imm) as u64),
            Lui => self.set_ireg_n(inst.rd, ((inst.imm as i64) << 12) as u64),
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => {
                let addr = rs1.wrapping_add(imm);
                let width = match inst.mem_width() {
                    Some(w) => w,
                    None => unreachable!("loads have widths"),
                };
                mem_access = Some(MemAccess { addr, width, is_store: false });
                match inst.op {
                    Lb => {
                        let v = self.mem.read_u8(addr) as i8 as i64 as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Lbu => {
                        let v = self.mem.read_u8(addr) as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Lh => {
                        let v = self.mem.read_u16(addr) as i16 as i64 as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Lhu => {
                        let v = self.mem.read_u16(addr) as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Lw => {
                        let v = self.mem.read_u32(addr) as i32 as i64 as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Lwu => {
                        let v = self.mem.read_u32(addr) as u64;
                        self.set_ireg_n(inst.rd, v);
                    }
                    Ld => {
                        let v = self.mem.read_u64(addr);
                        self.set_ireg_n(inst.rd, v);
                    }
                    Fld => {
                        let v = f64::from_bits(self.mem.read_u64(addr));
                        self.fregs[inst.rd as usize] = v;
                    }
                    _ => unreachable!(),
                }
            }
            Sb | Sh | Sw | Sd | Fsd => {
                let addr = rs1.wrapping_add(imm);
                let width = match inst.mem_width() {
                    Some(w) => w,
                    None => unreachable!("stores have widths"),
                };
                mem_access = Some(MemAccess { addr, width, is_store: true });
                match inst.op {
                    Sb => self.mem.write_u8(addr, rs2 as u8),
                    Sh => self.mem.write_u16(addr, rs2 as u16),
                    Sw => self.mem.write_u32(addr, rs2 as u32),
                    Sd => self.mem.write_u64(addr, rs2),
                    Fsd => {
                        let bits = self.fregs[inst.rs2 as usize].to_bits();
                        self.mem.write_u64(addr, bits);
                    }
                    _ => unreachable!(),
                }
            }
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
                let a = self.fregs[inst.rs1 as usize];
                let b = self.fregs[inst.rs2 as usize];
                let v = match inst.op {
                    Fadd => a + b,
                    Fsub => a - b,
                    Fmul => a * b,
                    Fdiv => a / b,
                    Fmin => a.min(b),
                    Fmax => a.max(b),
                    _ => unreachable!(),
                };
                self.fregs[inst.rd as usize] = v;
            }
            Fsqrt => {
                self.fregs[inst.rd as usize] = self.fregs[inst.rs1 as usize].sqrt();
            }
            Feq | Flt | Fle => {
                let a = self.fregs[inst.rs1 as usize];
                let b = self.fregs[inst.rs2 as usize];
                let v = match inst.op {
                    Feq => a == b,
                    Flt => a < b,
                    Fle => a <= b,
                    _ => unreachable!(),
                };
                self.set_ireg_n(inst.rd, v as u64);
            }
            Fcvtdl => self.fregs[inst.rd as usize] = rs1 as i64 as f64,
            Fcvtld => {
                let v = self.fregs[inst.rs1 as usize];
                self.set_ireg_n(inst.rd, v as i64 as u64);
            }
            Fmvdx => self.fregs[inst.rd as usize] = f64::from_bits(rs1),
            Fmvxd => {
                let bits = self.fregs[inst.rs1 as usize].to_bits();
                self.set_ireg_n(inst.rd, bits);
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let taken = match inst.op {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i64) < (rs2 as i64),
                    Bge => (rs1 as i64) >= (rs2 as i64),
                    Bltu => rs1 < rs2,
                    Bgeu => rs1 >= rs2,
                    _ => unreachable!(),
                };
                let target = pc.wrapping_add(imm);
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchRec { kind: CtrlKind::CondBranch, taken, target });
            }
            Jal => {
                let target = pc.wrapping_add(imm);
                self.set_ireg_n(inst.rd, pc + INST_BYTES);
                next_pc = target;
                branch = Some(BranchRec {
                    kind: match inst.ctrl_kind() {
                        Some(k) => k,
                        None => unreachable!("jal is ctrl"),
                    },
                    taken: true,
                    target,
                });
            }
            Jalr => {
                let target = rs1.wrapping_add(imm) & !1u64;
                self.set_ireg_n(inst.rd, pc + INST_BYTES);
                next_pc = target;
                branch = Some(BranchRec {
                    kind: match inst.ctrl_kind() {
                        Some(k) => k,
                        None => unreachable!("jalr is ctrl"),
                    },
                    taken: true,
                    target,
                });
            }
            Halt => {
                self.halted = true;
            }
            Nop => {}
        }

        self.pc = next_pc;
        let seq = self.icount;
        self.icount += 1;
        Ok(Retired { seq, pc, next_pc, inst, mem: mem_access, branch })
    }

    /// Runs up to `max_insts` instructions or until the program halts.
    /// Returns the number of instructions retired. Runs on the fast
    /// [`Cpu::step_n`] core.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError::PcOutOfText`]; a clean `halt` is not an error.
    pub fn run(&mut self, max_insts: u64) -> Result<u64, ExecError> {
        let start = self.icount;
        if self.halted || max_insts == 0 {
            return Ok(0);
        }
        match self.step_n(max_insts, |_| ()) {
            Ok(()) | Err(ExecError::Halted) => Ok(self.icount - start),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_isa::{Asm, Freg, Reg};

    fn run_program(build: impl FnOnce(&mut Asm)) -> Cpu {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.run(1_000_000).unwrap();
        assert!(cpu.halted());
        cpu
    }

    #[test]
    fn arithmetic_basics() {
        let cpu = run_program(|a| {
            a.li(Reg::T0, 20);
            a.li(Reg::T1, -7);
            a.add(Reg::T2, Reg::T0, Reg::T1);
            a.sub(Reg::T3, Reg::T0, Reg::T1);
            a.mul(Reg::T4, Reg::T0, Reg::T1);
            a.div(Reg::T5, Reg::T0, Reg::T1);
            a.rem(Reg::T6, Reg::T0, Reg::T1);
        });
        assert_eq!(cpu.ireg(Reg::T2), 13);
        assert_eq!(cpu.ireg(Reg::T3), 27);
        assert_eq!(cpu.ireg(Reg::T4) as i64, -140);
        assert_eq!(cpu.ireg(Reg::T5) as i64, -2);
        assert_eq!(cpu.ireg(Reg::T6) as i64, 6);
    }

    #[test]
    fn division_by_zero_semantics() {
        let cpu = run_program(|a| {
            a.li(Reg::T0, 42);
            a.div(Reg::T1, Reg::T0, Reg::ZERO);
            a.rem(Reg::T2, Reg::T0, Reg::ZERO);
        });
        assert_eq!(cpu.ireg(Reg::T1), u64::MAX);
        assert_eq!(cpu.ireg(Reg::T2), 42);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let cpu = run_program(|a| {
            a.li(Reg::T0, 99);
            a.add(Reg::ZERO, Reg::T0, Reg::T0);
        });
        assert_eq!(cpu.ireg(Reg::ZERO), 0);
    }

    #[test]
    fn shifts_and_compares() {
        let cpu = run_program(|a| {
            a.li(Reg::T0, -8);
            a.srai(Reg::T1, Reg::T0, 1);
            a.srli(Reg::T2, Reg::T0, 60);
            a.slti(Reg::T3, Reg::T0, 0);
            a.sltiu(Reg::T4, Reg::T0, 0);
        });
        assert_eq!(cpu.ireg(Reg::T1) as i64, -4);
        assert_eq!(cpu.ireg(Reg::T2), 0xf);
        assert_eq!(cpu.ireg(Reg::T3), 1);
        assert_eq!(cpu.ireg(Reg::T4), 0); // -8 as u64 is huge
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let cpu = run_program(|a| {
            let buf = a.data_zeros(64);
            a.la(Reg::S0, buf);
            a.li(Reg::T0, -2);
            a.sb(Reg::T0, 0, Reg::S0);
            a.sh(Reg::T0, 8, Reg::S0);
            a.sw(Reg::T0, 16, Reg::S0);
            a.sd(Reg::T0, 24, Reg::S0);
            a.lb(Reg::A0, 0, Reg::S0);
            a.lbu(Reg::A1, 0, Reg::S0);
            a.lh(Reg::A2, 8, Reg::S0);
            a.lw(Reg::A3, 16, Reg::S0);
            a.ld(Reg::A4, 24, Reg::S0);
            a.lwu(Reg::A5, 16, Reg::S0);
        });
        assert_eq!(cpu.ireg(Reg::A0) as i64, -2);
        assert_eq!(cpu.ireg(Reg::A1), 0xfe);
        assert_eq!(cpu.ireg(Reg::A2) as i64, -2);
        assert_eq!(cpu.ireg(Reg::A3) as i64, -2);
        assert_eq!(cpu.ireg(Reg::A4) as i64, -2);
        assert_eq!(cpu.ireg(Reg::A5), 0xffff_fffe);
    }

    #[test]
    fn li_wide_constants() {
        for v in [
            0i64,
            1,
            -1,
            16383,
            -16384,
            16384,
            0x7fff_ffff,
            -0x8000_0000,
            0x1234_5678_9abc_def0,
            i64::MIN,
            i64::MAX,
            -559038737,
        ] {
            let cpu = run_program(|a| {
                a.li(Reg::A0, v);
            });
            assert_eq!(cpu.ireg(Reg::A0) as i64, v, "li {v}");
        }
    }

    #[test]
    fn loop_and_branches() {
        // sum 1..=100
        let cpu = run_program(|a| {
            a.li(Reg::T0, 0); // sum
            a.li(Reg::T1, 1); // i
            a.li(Reg::T2, 100);
            let top = a.bind_new("top");
            a.add(Reg::T0, Reg::T0, Reg::T1);
            a.addi(Reg::T1, Reg::T1, 1);
            a.bge(Reg::T2, Reg::T1, top);
        });
        assert_eq!(cpu.ireg(Reg::T0), 5050);
    }

    #[test]
    fn call_and_return() {
        let cpu = run_program(|a| {
            let f = a.new_label("double");
            a.li(Reg::A0, 21);
            a.call(f);
            a.mv(Reg::S0, Reg::A0);
            let over = a.new_label("over");
            a.j(over);
            a.bind(f).unwrap();
            a.add(Reg::A0, Reg::A0, Reg::A0);
            a.ret();
            a.bind(over).unwrap();
        });
        assert_eq!(cpu.ireg(Reg::S0), 42);
    }

    #[test]
    fn fp_operations() {
        let cpu = run_program(|a| {
            let c = a.data_f64(&[2.25, 4.0]);
            a.la(Reg::S0, c);
            a.fld(Freg::F0, 0, Reg::S0);
            a.fld(Freg::F1, 8, Reg::S0);
            a.fadd(Freg::F2, Freg::F0, Freg::F1);
            a.fmul(Freg::F3, Freg::F0, Freg::F1);
            a.fsqrt(Freg::F4, Freg::F1);
            a.flt(Reg::T0, Freg::F0, Freg::F1);
            a.fcvt_l_d(Reg::T1, Freg::F3);
            a.li(Reg::T2, 5);
            a.fcvt_d_l(Freg::F5, Reg::T2);
            a.fsd(Freg::F2, 16, Reg::S0);
            a.fld(Freg::F6, 16, Reg::S0);
        });
        assert_eq!(cpu.freg(Freg::F2), 6.25);
        assert_eq!(cpu.freg(Freg::F3), 9.0);
        assert_eq!(cpu.freg(Freg::F4), 2.0);
        assert_eq!(cpu.ireg(Reg::T0), 1);
        assert_eq!(cpu.ireg(Reg::T1), 9);
        assert_eq!(cpu.freg(Freg::F5), 5.0);
        assert_eq!(cpu.freg(Freg::F6), 6.25);
    }

    #[test]
    fn retired_records_mem_and_branch() {
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.la(Reg::S0, buf);
        a.sd(Reg::ZERO, 0, Reg::S0);
        let skip = a.new_label("skip");
        a.beq(Reg::ZERO, Reg::ZERO, skip);
        a.nop();
        a.bind(skip).unwrap();
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();

        // la emits 2+ instructions; step until the store.
        let mut store = None;
        let mut br = None;
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            if r.mem.is_some() {
                store = r.mem;
            }
            if r.branch.is_some() {
                br = r.branch;
            }
        }
        let store = store.unwrap();
        assert_eq!(store.addr, buf);
        assert!(store.is_store);
        assert_eq!(store.width, MemWidth::B8);
        let br = br.unwrap();
        assert_eq!(br.kind, CtrlKind::CondBranch);
        assert!(br.taken);
    }

    #[test]
    fn not_taken_branch_records_static_target() {
        let mut a = Asm::new();
        a.li(Reg::T0, 1);
        let away = a.new_label("away");
        a.beq(Reg::T0, Reg::ZERO, away); // not taken
        a.halt();
        a.bind(away).unwrap();
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.step().unwrap();
        let r = cpu.step().unwrap();
        let br = r.branch.unwrap();
        assert!(!br.taken);
        assert_eq!(br.target, r.pc + 8); // static target = the second halt
        assert_eq!(r.next_pc, r.pc + 4); // fell through
    }

    #[test]
    fn halted_machine_refuses_steps() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.step().unwrap();
        assert!(cpu.halted());
        assert_eq!(cpu.step(), Err(ExecError::Halted));
    }

    #[test]
    fn runaway_pc_detected() {
        let mut a = Asm::new();
        a.jalr(Reg::ZERO, Reg::ZERO, 0); // jump to address 0
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.step().unwrap();
        assert!(matches!(cpu.step(), Err(ExecError::PcOutOfText { pc: 0 })));
    }

    #[test]
    fn run_stops_at_budget() {
        let mut a = Asm::new();
        let top = a.bind_new("spin");
        a.j(top);
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        assert_eq!(cpu.run(1000).unwrap(), 1000);
        assert!(!cpu.halted());
        assert_eq!(cpu.icount(), 1000);
    }

    #[test]
    fn sp_and_gp_initialized() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        let cpu = Cpu::new(&p).unwrap();
        assert_eq!(cpu.ireg(Reg::SP), p.stack_top());
        assert_eq!(cpu.ireg(Reg::GP), p.data_base());
    }

    /// A small program mixing ALU, memory, FP, calls, and a loop — enough
    /// shapes to cover every superblock boundary case.
    fn mixed_program() -> rsr_isa::Program {
        let mut a = Asm::new();
        let buf = a.data_zeros(128);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 25);
        let top = a.bind_new("top");
        a.add(Reg::T2, Reg::T0, Reg::T1);
        a.sd(Reg::T2, 0, Reg::S0);
        a.ld(Reg::T3, 0, Reg::S0);
        a.sb(Reg::T3, 9, Reg::S0);
        a.fld(Freg::F0, 16, Reg::S0);
        a.fadd(Freg::F1, Freg::F0, Freg::F0);
        a.fsd(Freg::F1, 24, Reg::S0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.blt(Reg::T0, Reg::T1, top);
        let f = a.new_label("leaf");
        a.call(f);
        let over = a.new_label("over");
        a.j(over);
        a.bind(f).unwrap();
        a.xori(Reg::A0, Reg::T0, 0x155);
        a.ret();
        a.bind(over).unwrap();
        a.halt();
        a.finish().unwrap()
    }

    /// Retires up to `n` instructions on the reference interpreter,
    /// collecting records until halt/fault.
    fn reference_stream(cpu: &mut Cpu, n: u64) -> (Vec<Retired>, Result<(), ExecError>) {
        let mut out = Vec::new();
        for _ in 0..n {
            match cpu.step() {
                Ok(r) => out.push(r),
                Err(e) => return (out, Err(e)),
            }
        }
        (out, Ok(()))
    }

    #[test]
    fn step_n_matches_reference_stream_exactly() {
        let p = mixed_program();
        let mut fast = Cpu::new(&p).unwrap();
        let mut reference = Cpu::new(&p).unwrap();
        let (want, want_err) = reference_stream(&mut reference, 10_000);
        let mut got = Vec::new();
        let got_err = fast.step_n(10_000, |r| got.push(*r));
        assert_eq!(got_err, want_err);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
        assert_eq!(fast.arch_state(), reference.arch_state());
    }

    #[test]
    fn step_n_is_tail_accurate_at_every_boundary() {
        let p = mixed_program();
        let full = {
            let mut cpu = Cpu::new(&p).unwrap();
            let (stream, _) = reference_stream(&mut cpu, 10_000);
            stream
        };
        // Stop at every prefix length crossing the first few blocks, and
        // at a spread of longer prefixes: state must equal the reference
        // prefix exactly, including mid-block stops.
        for n in (0..40).chain([63, 97, 150, 211, full.len() as u64 - 1]) {
            let mut fast = Cpu::new(&p).unwrap();
            let mut count = 0u64;
            fast.step_n(n, |_| count += 1).unwrap();
            assert_eq!(count, n);
            assert_eq!(fast.icount(), n, "stopped at exactly n");
            let mut reference = Cpu::new(&p).unwrap();
            let _ = reference_stream(&mut reference, n);
            assert_eq!(fast.arch_state(), reference.arch_state(), "prefix {n}");
        }
    }

    #[test]
    fn step_n_chunked_equals_one_shot() {
        let p = mixed_program();
        let mut one = Cpu::new(&p).unwrap();
        let mut whole = Vec::new();
        one.step_n(200, |r| whole.push(*r)).unwrap();
        let mut chunked = Cpu::new(&p).unwrap();
        let mut parts = Vec::new();
        for chunk in [1u64, 7, 3, 50, 19, 100, 20] {
            chunked.step_n(chunk, |r| parts.push(*r)).unwrap();
        }
        assert_eq!(whole, parts);
        assert_eq!(one.arch_state(), chunked.arch_state());
    }

    #[test]
    fn step_n_halt_midway_reports_halted_like_reference() {
        let mut a = Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 1);
        a.halt();
        let p = a.finish().unwrap();
        let mut fast = Cpu::new(&p).unwrap();
        let mut seen = 0u64;
        // Ask for more than the program retires: both engines retire the
        // halt, then refuse the next instruction.
        assert_eq!(fast.step_n(10, |_| seen += 1), Err(ExecError::Halted));
        assert_eq!(seen, 2);
        let mut reference = Cpu::new(&p).unwrap();
        let (stream, err) = reference_stream(&mut reference, 10);
        assert_eq!(err, Err(ExecError::Halted));
        assert_eq!(stream.len(), 2);
        assert_eq!(fast.arch_state(), reference.arch_state());
    }

    #[test]
    fn step_n_runaway_pc_faults_at_block_entry() {
        let mut a = Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 4);
        a.jalr(Reg::ZERO, Reg::T0, 96); // jump past text
        let p = a.finish().unwrap();
        let mut fast = Cpu::new(&p).unwrap();
        let mut reference = Cpu::new(&p).unwrap();
        let got = fast.step_n(10, |_| ());
        let (_, want) = reference_stream(&mut reference, 10);
        assert_eq!(got, want);
        assert!(matches!(got, Err(ExecError::PcOutOfText { .. })));
        assert_eq!(fast.arch_state(), reference.arch_state());
    }

    #[test]
    fn run_still_stops_cleanly_on_halt() {
        let p = mixed_program();
        let mut cpu = Cpu::new(&p).unwrap();
        let n = cpu.run(u64::MAX).unwrap();
        assert!(cpu.halted());
        assert_eq!(cpu.icount(), n);
        // Further runs are no-ops, not errors.
        assert_eq!(cpu.run(5).unwrap(), 0);
    }
}
