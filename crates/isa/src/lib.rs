//! # rsr-isa — the SimRISC instruction set
//!
//! A compact 64-bit RISC instruction set used by the RSR reproduction as the
//! substrate ISA (standing in for SimpleScalar's PISA). It provides:
//!
//! * [`Op`] / [`Inst`] — the operation set and decoded instruction form,
//! * a fixed 32-bit binary encoding ([`Inst::encode`] / [`Inst::decode`]),
//! * an assembler with labels and pseudo-instructions ([`Asm`]),
//! * [`Program`] — a loadable image (text + data + entry point),
//! * [`Fnv`] — the streaming FNV-1a hash behind content addresses and
//!   checksums.
//!
//! The ISA is deliberately RISC-V-flavored: 32 integer registers (`x0`
//! hardwired to zero, `x1` the link register, `x2` the stack pointer) and 32
//! floating-point registers holding IEEE-754 doubles.
//!
//! ```
//! use rsr_isa::{Asm, Reg};
//!
//! # fn main() -> Result<(), rsr_isa::AsmError> {
//! let mut a = Asm::new();
//! let loop_ = a.new_label("loop");
//! a.li(Reg::T0, 10);
//! a.bind(loop_)?;
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bne(Reg::T0, Reg::ZERO, loop_);
//! a.halt();
//! let prog = a.finish()?;
//! assert_eq!(prog.text_len(), 4 * 4);
//! # Ok(())
//! # }
//! ```

mod asm;
mod encode;
mod fnv;
mod inst;
mod op;
mod program;
mod sem;

pub use asm::{Asm, AsmError, Label};
pub use encode::{DecodeError, EncodeError, B_OFFSET_RANGE, I_IMM_RANGE, J_OFFSET_RANGE};
pub use fnv::Fnv;
pub use inst::{CtrlKind, Inst, MemWidth};
pub use op::{Op, OpClass};
pub use program::Program;
pub use sem::{SemClass, SemInst};

/// A byte address in the simulated machine.
pub type Addr = u64;

/// Size of one encoded instruction in bytes.
pub const INST_BYTES: u64 = 4;

/// An integer register identifier (`x0`–`x31`).
///
/// `x0` always reads zero and ignores writes. By software convention `x1` is
/// the return-address (link) register and `x2` the stack pointer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// The return-address (link) register `x1`.
    pub const RA: Reg = Reg(1);
    /// The stack pointer `x2`.
    pub const SP: Reg = Reg(2);
    /// The global/data-base pointer `x3`.
    pub const GP: Reg = Reg(3);
    /// Scratch register `t0` (`x5`).
    pub const T0: Reg = Reg(5);
    /// Scratch register `t1` (`x6`).
    pub const T1: Reg = Reg(6);
    /// Scratch register `t2` (`x7`).
    pub const T2: Reg = Reg(7);
    /// Scratch register `t3` (`x28`).
    pub const T3: Reg = Reg(28);
    /// Scratch register `t4` (`x29`).
    pub const T4: Reg = Reg(29);
    /// Scratch register `t5` (`x30`).
    pub const T5: Reg = Reg(30);
    /// Scratch register `t6` (`x31`).
    pub const T6: Reg = Reg(31);
    /// Saved register `s0` (`x8`).
    pub const S0: Reg = Reg(8);
    /// Saved register `s1` (`x9`).
    pub const S1: Reg = Reg(9);
    /// Saved register `s2` (`x18`).
    pub const S2: Reg = Reg(18);
    /// Saved register `s3` (`x19`).
    pub const S3: Reg = Reg(19);
    /// Saved register `s4` (`x20`).
    pub const S4: Reg = Reg(20);
    /// Saved register `s5` (`x21`).
    pub const S5: Reg = Reg(21);
    /// Saved register `s6` (`x22`).
    pub const S6: Reg = Reg(22);
    /// Saved register `s7` (`x23`).
    pub const S7: Reg = Reg(23);
    /// Saved register `s8` (`x24`).
    pub const S8: Reg = Reg(24);
    /// Saved register `s9` (`x25`).
    pub const S9: Reg = Reg(25);
    /// Saved register `s10` (`x26`).
    pub const S10: Reg = Reg(26);
    /// Saved register `s11` (`x27`).
    pub const S11: Reg = Reg(27);
    /// Argument register `a0` (`x10`).
    pub const A0: Reg = Reg(10);
    /// Argument register `a1` (`x11`).
    pub const A1: Reg = Reg(11);
    /// Argument register `a2` (`x12`).
    pub const A2: Reg = Reg(12);
    /// Argument register `a3` (`x13`).
    pub const A3: Reg = Reg(13);
    /// Argument register `a4` (`x14`).
    pub const A4: Reg = Reg(14);
    /// Argument register `a5` (`x15`).
    pub const A5: Reg = Reg(15);
    /// Argument register `a6` (`x16`).
    pub const A6: Reg = Reg(16);
    /// Argument register `a7` (`x17`).
    pub const A7: Reg = Reg(17);

    /// Returns the register number (0–31).
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// Returns `true` for the hardwired zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A floating-point register identifier (`f0`–`f31`), holding an `f64`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freg(pub u8);

impl Freg {
    /// Floating-point register `f0`.
    pub const F0: Freg = Freg(0);
    /// Floating-point register `f1`.
    pub const F1: Freg = Freg(1);
    /// Floating-point register `f2`.
    pub const F2: Freg = Freg(2);
    /// Floating-point register `f3`.
    pub const F3: Freg = Freg(3);
    /// Floating-point register `f4`.
    pub const F4: Freg = Freg(4);
    /// Floating-point register `f5`.
    pub const F5: Freg = Freg(5);
    /// Floating-point register `f6`.
    pub const F6: Freg = Freg(6);
    /// Floating-point register `f7`.
    pub const F7: Freg = Freg(7);

    /// Returns the register number (0–31).
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for Freg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_constants_are_distinct() {
        let regs = [Reg::ZERO, Reg::RA, Reg::SP, Reg::GP, Reg::T0, Reg::A0];
        for (i, a) in regs.iter().enumerate() {
            for b in &regs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn zero_register_reports_zero() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::RA.is_zero());
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::SP.to_string(), "x2");
        assert_eq!(Freg(3).to_string(), "f3");
    }
}
