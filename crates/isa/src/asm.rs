//! A small two-pass assembler with labels, pseudo-instructions, and a data
//! section builder.
//!
//! The assembler is the construction API for [`Program`]s and is what the
//! synthetic workload generator is written against. Instructions append to
//! the text segment; data methods append to the data segment and return the
//! absolute address of what they placed, so generated code can embed pointers
//! directly (the segment bases are fixed up front).

use std::collections::HashMap;

use crate::encode::{B_OFFSET_RANGE, J_OFFSET_RANGE};
use crate::{Addr, Freg, Inst, Op, Program, Reg, INST_BYTES};

/// Errors produced while assembling a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A label was used as a branch/jump target but never bound.
    UnboundLabel {
        /// The label's name.
        name: String,
    },
    /// `bind` was called twice on the same label.
    LabelRebound {
        /// The label's name.
        name: String,
    },
    /// A resolved branch/jump offset does not fit its encoding.
    OffsetOutOfRange {
        /// The label's name.
        name: String,
        /// The resolved byte offset.
        offset: i64,
    },
    /// An instruction's fields do not fit the binary encoding.
    Encode(crate::encode::EncodeError),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnboundLabel { name } => write!(f, "label `{name}` was never bound"),
            AsmError::LabelRebound { name } => write!(f, "label `{name}` bound twice"),
            AsmError::OffsetOutOfRange { name, offset } => {
                write!(f, "offset {offset} to label `{name}` out of encodable range")
            }
            AsmError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<crate::encode::EncodeError> for AsmError {
    fn from(e: crate::encode::EncodeError) -> Self {
        AsmError::Encode(e)
    }
}

/// An opaque label handle returned by [`Asm::new_label`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Copy, Clone, Debug)]
enum FixKind {
    Branch,
    Jal,
}

#[derive(Debug)]
struct Fixup {
    text_index: usize,
    label: Label,
    kind: FixKind,
}

/// The assembler. See the crate-level docs for a usage example.
#[derive(Debug)]
pub struct Asm {
    text_base: Addr,
    data_base: Addr,
    stack_top: Addr,
    text: Vec<Inst>,
    data: Vec<u8>,
    labels: Vec<(String, Option<Addr>)>,
    fixups: Vec<Fixup>,
    entry: Option<Label>,
    named: HashMap<String, Label>,
}

/// Default text segment base.
pub const DEFAULT_TEXT_BASE: Addr = 0x0001_0000;
/// Default data segment base.
pub const DEFAULT_DATA_BASE: Addr = 0x1000_0000;
/// Default initial stack pointer (stack grows down from here).
pub const DEFAULT_STACK_TOP: Addr = 0x7fff_ff00;

impl Default for Asm {
    fn default() -> Self {
        Self::new()
    }
}

impl Asm {
    /// Creates an assembler with the default segment layout.
    pub fn new() -> Asm {
        Asm::with_layout(DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE, DEFAULT_STACK_TOP)
    }

    /// Creates an assembler with explicit segment bases.
    pub fn with_layout(text_base: Addr, data_base: Addr, stack_top: Addr) -> Asm {
        Asm {
            text_base,
            data_base,
            stack_top,
            text: Vec::new(),
            data: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            entry: None,
            named: HashMap::new(),
        }
    }

    /// Address the next emitted instruction will occupy.
    #[inline]
    pub fn here(&self) -> Addr {
        self.text_base + self.text.len() as u64 * INST_BYTES
    }

    /// Declares a new label. Multiple labels may share a display name; the
    /// handle is what identifies them.
    pub fn new_label(&mut self, name: &str) -> Label {
        let l = Label(self.labels.len());
        self.labels.push((name.to_owned(), None));
        l
    }

    /// Returns the label previously created under `name`, creating and
    /// remembering one if absent. Handy for string-keyed generators.
    pub fn label_named(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named.get(name) {
            return l;
        }
        let l = self.new_label(name);
        self.named.insert(name.to_owned(), l);
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::LabelRebound`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let here = self.here();
        let slot = &mut self.labels[label.0];
        if slot.1.is_some() {
            return Err(AsmError::LabelRebound { name: slot.0.clone() });
        }
        slot.1 = Some(here);
        Ok(())
    }

    /// Declares and immediately binds a label at the current position.
    pub fn bind_new(&mut self, name: &str) -> Label {
        let here = self.here();
        let l = self.new_label(name);
        // A freshly declared label has no binding, so `bind` cannot fail.
        self.labels[l.0].1 = Some(here);
        l
    }

    /// Marks `label` as the program entry point (defaults to the first
    /// instruction).
    pub fn set_entry(&mut self, label: Label) {
        self.entry = Some(label);
    }

    /// The address a label was bound to, or `None` if it is still unbound.
    /// Useful for building jump tables in the data section.
    pub fn label_addr(&self, label: Label) -> Option<Addr> {
        self.labels[label.0].1
    }

    /// Appends a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Asm {
        self.text.push(inst);
        self
    }

    // ---- data section ----------------------------------------------------

    /// Pads the data section to `align` bytes (must be a power of two) and
    /// returns the aligned address.
    pub fn data_align(&mut self, align: u64) -> Addr {
        debug_assert!(align.is_power_of_two());
        while !(self.data_base + self.data.len() as u64).is_multiple_of(align) {
            self.data.push(0);
        }
        self.data_base + self.data.len() as u64
    }

    /// Appends raw bytes to the data section; returns their address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> Addr {
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Appends `len` zero bytes (a BSS-style region); returns the address.
    pub fn data_zeros(&mut self, len: u64) -> Addr {
        let addr = self.data_base + self.data.len() as u64;
        self.data.resize(self.data.len() + len as usize, 0);
        addr
    }

    /// Appends 8-byte-aligned `u64` values; returns their address.
    pub fn data_u64(&mut self, values: &[u64]) -> Addr {
        let addr = self.data_align(8);
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Appends 8-byte-aligned `f64` values; returns their address.
    pub fn data_f64(&mut self, values: &[f64]) -> Addr {
        let addr = self.data_align(8);
        for v in values {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    /// Current end of the data section.
    pub fn data_end(&self) -> Addr {
        self.data_base + self.data.len() as u64
    }

    // ---- finish -----------------------------------------------------------

    /// Resolves all fixups and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error if any referenced label is unbound, an offset does
    /// not fit its encoding, or any instruction fails to encode.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        for fix in &self.fixups {
            let (name, bound) = &self.labels[fix.label.0];
            let target = bound.ok_or_else(|| AsmError::UnboundLabel { name: name.clone() })?;
            let pc = self.text_base + fix.text_index as u64 * INST_BYTES;
            let offset = target as i64 - pc as i64;
            let range = match fix.kind {
                FixKind::Branch => B_OFFSET_RANGE,
                FixKind::Jal => J_OFFSET_RANGE,
            };
            if offset < range.0 as i64 || offset > range.1 as i64 {
                return Err(AsmError::OffsetOutOfRange { name: name.clone(), offset });
            }
            self.text[fix.text_index].imm = offset as i32;
        }
        let mut words = Vec::with_capacity(self.text.len());
        for inst in &self.text {
            words.push(inst.try_encode()?);
        }
        let entry = match self.entry {
            Some(l) => {
                let (name, bound) = &self.labels[l.0];
                bound.ok_or_else(|| AsmError::UnboundLabel { name: name.clone() })?
            }
            None => self.text_base,
        };
        Ok(Program {
            text_base: self.text_base,
            text: words,
            data_base: self.data_base,
            data: self.data,
            entry,
            stack_top: self.stack_top,
            digest: std::sync::OnceLock::new(),
        })
    }

    // ---- instruction helpers ----------------------------------------------

    fn rrr(&mut self, op: Op, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.emit(Inst::new(op, rd.num(), rs1.num(), rs2.num(), 0))
    }

    fn rri(&mut self, op: Op, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.emit(Inst::new(op, rd.num(), rs1.num(), 0, imm))
    }

    fn branch(&mut self, op: Op, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        let idx = self.text.len();
        self.fixups.push(Fixup { text_index: idx, label: target, kind: FixKind::Branch });
        self.emit(Inst::new(op, 0, rs1.num(), rs2.num(), 0))
    }
}

macro_rules! rrr_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
                    self.rrr(Op::$op, rd, rs1, rs2)
                }
            )+
        }
    };
}

rrr_ops! {
    /// `rd = rs1 + rs2`.
    add => Add,
    /// `rd = rs1 - rs2`.
    sub => Sub,
    /// `rd = rs1 * rs2`.
    mul => Mul,
    /// `rd = rs1 / rs2` (signed).
    div => Div,
    /// `rd = rs1 % rs2` (signed).
    rem => Rem,
    /// `rd = rs1 & rs2`.
    and => And,
    /// `rd = rs1 | rs2`.
    or => Or,
    /// `rd = rs1 ^ rs2`.
    xor => Xor,
    /// `rd = rs1 << rs2`.
    sll => Sll,
    /// `rd = rs1 >> rs2` (logical).
    srl => Srl,
    /// `rd = rs1 >> rs2` (arithmetic).
    sra => Sra,
    /// `rd = rs1 <s rs2`.
    slt => Slt,
    /// `rd = rs1 <u rs2`.
    sltu => Sltu,
}

macro_rules! rri_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
                    self.rri(Op::$op, rd, rs1, imm)
                }
            )+
        }
    };
}

rri_ops! {
    /// `rd = rs1 + imm`.
    addi => Addi,
    /// `rd = rs1 & imm`.
    andi => Andi,
    /// `rd = rs1 | imm`.
    ori => Ori,
    /// `rd = rs1 ^ imm`.
    xori => Xori,
    /// `rd = rs1 << imm`.
    slli => Slli,
    /// `rd = rs1 >> imm` (logical).
    srli => Srli,
    /// `rd = rs1 >> imm` (arithmetic).
    srai => Srai,
    /// `rd = rs1 <s imm`.
    slti => Slti,
    /// `rd = rs1 <u imm`.
    sltiu => Sltiu,
}

macro_rules! load_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, offset: i32, base: Reg) -> &mut Asm {
                    self.emit(Inst::new(Op::$op, rd.num(), base.num(), 0, offset))
                }
            )+
        }
    };
}

load_ops! {
    /// Load signed byte.
    lb => Lb,
    /// Load unsigned byte.
    lbu => Lbu,
    /// Load signed halfword.
    lh => Lh,
    /// Load unsigned halfword.
    lhu => Lhu,
    /// Load signed word.
    lw => Lw,
    /// Load unsigned word.
    lwu => Lwu,
    /// Load doubleword.
    ld => Ld,
}

macro_rules! store_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, src: Reg, offset: i32, base: Reg) -> &mut Asm {
                    self.emit(Inst::new(Op::$op, 0, base.num(), src.num(), offset))
                }
            )+
        }
    };
}

store_ops! {
    /// Store byte.
    sb => Sb,
    /// Store halfword.
    sh => Sh,
    /// Store word.
    sw => Sw,
    /// Store doubleword.
    sd => Sd,
}

macro_rules! fp_rrr_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        impl Asm {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, fd: Freg, fs1: Freg, fs2: Freg) -> &mut Asm {
                    self.emit(Inst::new(Op::$op, fd.num(), fs1.num(), fs2.num(), 0))
                }
            )+
        }
    };
}

fp_rrr_ops! {
    /// `fd = fs1 + fs2`.
    fadd => Fadd,
    /// `fd = fs1 - fs2`.
    fsub => Fsub,
    /// `fd = fs1 * fs2`.
    fmul => Fmul,
    /// `fd = fs1 / fs2`.
    fdiv => Fdiv,
    /// `fd = min(fs1, fs2)`.
    fmin => Fmin,
    /// `fd = max(fs1, fs2)`.
    fmax => Fmax,
}

impl Asm {
    /// Conditional branches to a label.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Beq, rs1, rs2, target)
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Bne, rs1, rs2, target)
    }

    /// Branch if less than (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Blt, rs1, rs2, target)
    }

    /// Branch if greater or equal (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Bge, rs1, rs2, target)
    }

    /// Branch if less than (unsigned).
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Bltu, rs1, rs2, target)
    }

    /// Branch if greater or equal (unsigned).
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(Op::Bgeu, rs1, rs2, target)
    }

    /// `jal rd, target`.
    pub fn jal(&mut self, rd: Reg, target: Label) -> &mut Asm {
        let idx = self.text.len();
        self.fixups.push(Fixup { text_index: idx, label: target, kind: FixKind::Jal });
        self.emit(Inst::new(Op::Jal, rd.num(), 0, 0, 0))
    }

    /// `jalr rd, rs1, imm`.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.rri(Op::Jalr, rd, rs1, imm)
    }

    /// `lui rd, imm20` (`rd = imm << 12`, sign-extended).
    pub fn lui(&mut self, rd: Reg, imm: i32) -> &mut Asm {
        self.emit(Inst::new(Op::Lui, rd.num(), 0, 0, imm))
    }

    /// Floating-point load: `fd = *(f64*)(base + offset)`.
    pub fn fld(&mut self, fd: Freg, offset: i32, base: Reg) -> &mut Asm {
        self.emit(Inst::new(Op::Fld, fd.num(), base.num(), 0, offset))
    }

    /// Floating-point store: `*(f64*)(base + offset) = fs`.
    pub fn fsd(&mut self, fs: Freg, offset: i32, base: Reg) -> &mut Asm {
        self.emit(Inst::new(Op::Fsd, 0, base.num(), fs.num(), offset))
    }

    /// `fd = sqrt(fs1)`.
    pub fn fsqrt(&mut self, fd: Freg, fs1: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Fsqrt, fd.num(), fs1.num(), 0, 0))
    }

    /// `rd = (fs1 == fs2)`.
    pub fn feq(&mut self, rd: Reg, fs1: Freg, fs2: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Feq, rd.num(), fs1.num(), fs2.num(), 0))
    }

    /// `rd = (fs1 < fs2)`.
    pub fn flt(&mut self, rd: Reg, fs1: Freg, fs2: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Flt, rd.num(), fs1.num(), fs2.num(), 0))
    }

    /// `rd = (fs1 <= fs2)`.
    pub fn fle(&mut self, rd: Reg, fs1: Freg, fs2: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Fle, rd.num(), fs1.num(), fs2.num(), 0))
    }

    /// `fd = (f64) rs1`.
    pub fn fcvt_d_l(&mut self, fd: Freg, rs1: Reg) -> &mut Asm {
        self.emit(Inst::new(Op::Fcvtdl, fd.num(), rs1.num(), 0, 0))
    }

    /// `rd = (i64) fs1`.
    pub fn fcvt_l_d(&mut self, rd: Reg, fs1: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Fcvtld, rd.num(), fs1.num(), 0, 0))
    }

    /// `fd = bits(rs1)`.
    pub fn fmv_d_x(&mut self, fd: Freg, rs1: Reg) -> &mut Asm {
        self.emit(Inst::new(Op::Fmvdx, fd.num(), rs1.num(), 0, 0))
    }

    /// `rd = bits(fs1)`.
    pub fn fmv_x_d(&mut self, rd: Reg, fs1: Freg) -> &mut Asm {
        self.emit(Inst::new(Op::Fmvxd, rd.num(), fs1.num(), 0, 0))
    }

    /// Stops the machine.
    pub fn halt(&mut self) -> &mut Asm {
        self.emit(Inst::new(Op::Halt, 0, 0, 0, 0))
    }

    /// No operation.
    pub fn nop(&mut self) -> &mut Asm {
        self.emit(Inst::nop())
    }

    // ---- pseudo-instructions -----------------------------------------------

    /// `mv rd, rs` (`addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.addi(rd, rs, 0)
    }

    /// Unconditional jump to a label (`jal x0, target`).
    pub fn j(&mut self, target: Label) -> &mut Asm {
        self.jal(Reg::ZERO, target)
    }

    /// Call a label (`jal ra, target`).
    pub fn call(&mut self, target: Label) -> &mut Asm {
        self.jal(Reg::RA, target)
    }

    /// Call through a register (`jalr ra, rs, 0`).
    pub fn call_reg(&mut self, rs: Reg) -> &mut Asm {
        self.jalr(Reg::RA, rs, 0)
    }

    /// Return from a call (`jalr x0, ra, 0`).
    pub fn ret(&mut self) -> &mut Asm {
        self.jalr(Reg::ZERO, Reg::RA, 0)
    }

    /// Indirect jump through a register (`jalr x0, rs, 0`).
    pub fn jr(&mut self, rs: Reg) -> &mut Asm {
        self.jalr(Reg::ZERO, rs, 0)
    }

    /// `rd = (rs == 0)`.
    pub fn seqz(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.sltiu(rd, rs, 1)
    }

    /// `rd = (rs != 0)`.
    pub fn snez(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.sltu(rd, Reg::ZERO, rs)
    }

    /// Loads a 64-bit constant with the shortest available sequence
    /// (1–9 instructions).
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Asm {
        const I15_MIN: i64 = -(1 << 14);
        const I15_MAX: i64 = (1 << 14) - 1;
        if (I15_MIN..=I15_MAX).contains(&value) {
            return self.addi(rd, Reg::ZERO, value as i32);
        }
        // lui (rd = hi20 << 12) + addi of the signed low 12 bits, when the
        // 20-bit upper part fits (covers almost the whole i32 range).
        let hi = value.checked_add(0x800).map(|v| v >> 12).unwrap_or(i64::MAX);
        if (-(1 << 19)..(1 << 19)).contains(&hi) {
            let lo = value - (hi << 12);
            debug_assert!((-2048..=2047).contains(&lo));
            self.lui(rd, hi as i32);
            if lo != 0 {
                self.addi(rd, rd, lo as i32);
            }
            return self;
        }
        // General 64-bit: sign-carrying top 8 bits, then 4 × (shift 14 | or).
        let v = value as u64;
        let top = (v >> 56) as u8 as i8 as i32;
        self.addi(rd, Reg::ZERO, top);
        for shift in [42u32, 28, 14, 0] {
            let chunk = ((v >> shift) & 0x3fff) as i32;
            self.slli(rd, rd, 14);
            if chunk != 0 {
                self.ori(rd, rd, chunk);
            }
        }
        self
    }

    /// Loads an absolute address (e.g. one returned by a data method).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds `i64::MAX` (simulated addresses never do).
    pub fn la(&mut self, rd: Reg, addr: Addr) -> &mut Asm {
        assert!(addr <= i64::MAX as u64, "address {addr:#x} does not fit i64");
        self.li(rd, addr as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_branch_backward() {
        let mut a = Asm::new();
        let top = a.bind_new("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, top);
        let p = a.finish().unwrap();
        let b = p.inst_at(p.text_base() + 4).unwrap().unwrap();
        assert_eq!(b.imm, -4);
    }

    #[test]
    fn branch_forward_fixup() {
        let mut a = Asm::new();
        let done = a.new_label("done");
        a.beq(Reg::ZERO, Reg::ZERO, done);
        a.nop();
        a.nop();
        a.bind(done).unwrap();
        a.halt();
        let p = a.finish().unwrap();
        let b = p.inst_at(p.text_base()).unwrap().unwrap();
        assert_eq!(b.imm, 12);
    }

    #[test]
    fn jal_fixup() {
        let mut a = Asm::new();
        let f = a.new_label("f");
        a.call(f);
        a.halt();
        a.bind(f).unwrap();
        a.ret();
        let p = a.finish().unwrap();
        let j = p.inst_at(p.text_base()).unwrap().unwrap();
        assert_eq!(j.op, Op::Jal);
        assert_eq!(j.rd, 1);
        assert_eq!(j.imm, 8);
    }

    #[test]
    fn unbound_label_rejected() {
        let mut a = Asm::new();
        let ghost = a.new_label("ghost");
        a.j(ghost);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel { .. })));
    }

    #[test]
    fn rebound_label_rejected() {
        let mut a = Asm::new();
        let l = a.bind_new("l");
        assert!(matches!(a.bind(l), Err(AsmError::LabelRebound { .. })));
    }

    #[test]
    fn entry_label_respected() {
        let mut a = Asm::new();
        a.nop();
        let main = a.bind_new("main");
        a.halt();
        a.set_entry(main);
        let p = a.finish().unwrap();
        assert_eq!(p.entry(), p.text_base() + 4);
    }

    #[test]
    fn data_section_layout() {
        let mut a = Asm::new();
        let b = a.data_bytes(&[1, 2, 3]);
        assert_eq!(b, DEFAULT_DATA_BASE);
        let u = a.data_u64(&[0xdead_beef]);
        assert_eq!(u % 8, 0);
        let z = a.data_zeros(16);
        assert_eq!(z, u + 8);
        assert_eq!(a.data_end(), z + 16);
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(&p.data()[..3], &[1, 2, 3]);
        let off = (u - DEFAULT_DATA_BASE) as usize;
        assert_eq!(u64::from_le_bytes(p.data()[off..off + 8].try_into().unwrap()), 0xdead_beef);
    }

    #[test]
    fn label_named_is_memoized() {
        let mut a = Asm::new();
        let l1 = a.label_named("shared");
        let l2 = a.label_named("shared");
        assert_eq!(l1, l2);
        let l3 = a.label_named("other");
        assert_ne!(l1, l3);
    }
}
