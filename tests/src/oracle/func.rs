//! The reference functional interpreter: fetch, decode, and a match over
//! the sparse [`Op`] encoding for every instruction, kept as the oracle
//! the library's predecoded interpreter is checked against.
//!
//! [`RefCpu`] shares no execution code with `rsr_func::Cpu`: it keeps the
//! program's text words and decodes the one at the PC with
//! [`Inst::decode`] on every fetch, never reading the library's semantic
//! table. Only the memory model is shared, so the two sides agree on
//! loads and stores by the same [`Memory`].

use rsr_func::{ArchState, BranchRec, ExecError, MemAccess, Memory, Retired};
use rsr_isa::{Addr, CtrlKind, Inst, Op, Program, Reg, INST_BYTES};

/// A SimRISC machine that decodes every instruction it executes.
#[derive(Clone, Debug)]
pub struct RefCpu {
    pc: Addr,
    iregs: [u64; 32],
    fregs: [f64; 32],
    mem: Memory,
    text: Vec<u32>,
    text_base: Addr,
    halted: bool,
    icount: u64,
}

impl RefCpu {
    /// Loads `program` as `Cpu::new` does: its text words and data into
    /// memory, the PC at the entry point, SP at the stack top and GP at
    /// the data base.
    pub fn new(program: &Program) -> RefCpu {
        let mut mem = Memory::new();
        for (i, &word) in program.text().iter().enumerate() {
            mem.write_u32(program.text_base() + i as u64 * INST_BYTES, word);
        }
        mem.write_slice(program.data_base(), program.data());
        let mut iregs = [0u64; 32];
        iregs[Reg::SP.num() as usize] = program.stack_top();
        iregs[Reg::GP.num() as usize] = program.data_base();
        RefCpu {
            pc: program.entry(),
            iregs,
            fregs: [0.0; 32],
            mem,
            text: program.text().to_vec(),
            text_base: program.text_base(),
            halted: false,
            icount: 0,
        }
    }

    /// Mutable access to the simulated memory (reads fill the TLB).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The register-level architectural state, in the library's shape.
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            pc: self.pc,
            iregs: self.iregs,
            fregs: self.fregs,
            icount: self.icount,
            halted: self.halted,
        }
    }

    fn set_ireg_n(&mut self, n: u8, v: u64) {
        self.iregs[n as usize] = v;
        self.iregs[0] = 0;
    }

    /// Decodes the text word at the PC.
    ///
    /// # Panics
    ///
    /// If the word does not decode: `Cpu::new` rejects such a program at
    /// load, so an oracle run over one is a broken test.
    fn fetch(&self) -> Result<Inst, ExecError> {
        let pc = self.pc;
        let idx = pc.wrapping_sub(self.text_base) / INST_BYTES;
        if pc < self.text_base || idx >= self.text.len() as u64 || !pc.is_multiple_of(INST_BYTES) {
            return Err(ExecError::PcOutOfText { pc });
        }
        let word = self.text[idx as usize];
        Ok(Inst::decode(word)
            .unwrap_or_else(|e| panic!("text word at {pc:#x} does not decode: {e}")))
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`ExecError::Halted`] if the machine already halted,
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

        let rs1 = self.iregs[inst.rs1 as usize];
        let rs2 = self.iregs[inst.rs2 as usize];
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
                let width = inst.mem_width().expect("loads have widths");
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
                let width = inst.mem_width().expect("stores have widths");
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
                let kind = inst.ctrl_kind().expect("jal is a control transfer");
                branch = Some(BranchRec { kind, taken: true, target });
            }
            Jalr => {
                let target = rs1.wrapping_add(imm) & !1u64;
                self.set_ireg_n(inst.rd, pc + INST_BYTES);
                next_pc = target;
                let kind = inst.ctrl_kind().expect("jalr is a control transfer");
                branch = Some(BranchRec { kind, taken: true, target });
            }
            Halt => self.halted = true,
            Nop => {}
        }

        self.pc = next_pc;
        let seq = self.icount;
        self.icount += 1;
        Ok(Retired { seq, pc, next_pc, inst, mem: mem_access, branch })
    }
}
