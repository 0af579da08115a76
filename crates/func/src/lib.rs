//! # rsr-func — the functional simulator
//!
//! In-order, architecturally exact execution of SimRISC programs. This is
//! the paper's "functional simulator" (§4): it always holds correct
//! architectural state, feeds the cycle-accurate timing model, and drives
//! the cold/warm phases of sampled simulation.
//!
//! * [`Memory`] — sparse, paged, zero-filled 64-bit memory.
//! * [`Cpu`] — registers + PC + memory; [`Cpu::step`] retires one
//!   instruction and reports everything downstream consumers need as a
//!   [`Retired`] record (memory access, branch outcome).
//! * [`RetireSource`] — what the timing model reads: the live [`Cpu`], or
//!   a [`TraceCursor`] replaying a recorded [`RetireTrace`].
//!
//! ```
//! use rsr_isa::{Asm, Reg};
//! use rsr_func::Cpu;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(Reg::A0, 6);
//! a.li(Reg::A1, 7);
//! a.mul(Reg::A0, Reg::A0, Reg::A1);
//! a.halt();
//! let program = a.finish()?;
//!
//! let mut cpu = Cpu::new(&program)?;
//! cpu.run(u64::MAX)?;
//! assert_eq!(cpu.ireg(Reg::A0), 42);
//! # Ok(())
//! # }
//! ```

mod cpu;
mod mem;
mod trace;

pub use cpu::{ArchState, BranchRec, Cpu, ExecError, LoadError, MemAccess, RetireSink, Retired};
pub use mem::{Memory, PAGE_BYTES};
pub use trace::{RetireSource, RetireTrace, TraceCursor};
