//! Retired-instruction sources: the live CPU, or a recorded trace of it.
//!
//! The cycle-accurate core consumes the functional simulator one retired
//! instruction at a time, in program order, on the correct path only, and
//! never more than the window it times. So a detailed window does not
//! need the machine image that produced its instructions, only the
//! instructions themselves: a [`RetireTrace`] recorded through
//! [`Cpu::step_n`] replays them through a [`TraceCursor`] exactly as
//! [`Cpu::step`] on the live CPU would have produced them, terminal error
//! included — the two run the same kernels.

use crate::{Cpu, ExecError, Retired};

/// A program-order stream of retired instructions.
pub trait RetireSource {
    /// The dynamic instruction number ([`Retired::seq`]) the next record
    /// carries.
    fn next_seq(&self) -> u64;

    /// Retires the next instruction.
    ///
    /// # Errors
    ///
    /// As for [`Cpu::step`]: [`ExecError::Halted`] past the end of the
    /// program, [`ExecError::PcOutOfText`] on a runaway PC.
    fn next_retired(&mut self) -> Result<Retired, ExecError>;
}

impl RetireSource for Cpu {
    #[inline]
    fn next_seq(&self) -> u64 {
        self.icount()
    }

    #[inline]
    fn next_retired(&mut self) -> Result<Retired, ExecError> {
        self.step()
    }
}

/// The retired records of one stretch of execution, plus the error that
/// ended it early, if any.
///
/// Recording costs one `Retired` (64 bytes) per instruction, so a trace's
/// size follows the window length, not the program's memory footprint.
/// Many consumers can replay one trace: each takes its own
/// [`RetireTrace::cursor`].
#[derive(Clone, Debug, Default)]
pub struct RetireTrace {
    start: u64,
    records: Vec<Retired>,
    end: Option<ExecError>,
}

impl RetireTrace {
    /// An empty trace.
    pub fn new() -> RetireTrace {
        RetireTrace::default()
    }

    /// Replaces the trace with the next `n` instructions `cpu` retires,
    /// advancing `cpu` past them. The record vector's allocation is kept,
    /// so a recycled trace records without reallocating.
    ///
    /// # Errors
    ///
    /// The error [`Cpu::step_n`] stops at. It is also kept in the trace,
    /// and a cursor returns it after the last record, at exactly the
    /// instruction the live CPU would have returned it.
    pub fn record(&mut self, cpu: &mut Cpu, n: u64) -> Result<(), ExecError> {
        self.start = cpu.icount();
        self.records.clear();
        self.records.reserve(usize::try_from(n).unwrap_or(usize::MAX));
        let records = &mut self.records;
        let result = cpu.step_n(n, |r| records.push(*r));
        self.end = result.err();
        result
    }

    /// The recorded instructions, in program order.
    pub fn records(&self) -> &[Retired] {
        &self.records
    }

    /// The error that ended recording early, if any.
    pub fn error(&self) -> Option<ExecError> {
        self.end
    }

    /// A fresh replay of the trace from its first record.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor { trace: self, pos: 0 }
    }
}

/// A replay position in a [`RetireTrace`].
///
/// Returns the recorded instructions in order, then the trace's terminal
/// error. A trace that ended cleanly reports [`ExecError::Halted`] when
/// read past its end: it has no further instruction to give.
#[derive(Clone, Debug)]
pub struct TraceCursor<'t> {
    trace: &'t RetireTrace,
    pos: usize,
}

impl RetireSource for TraceCursor<'_> {
    #[inline]
    fn next_seq(&self) -> u64 {
        self.trace.start + self.pos as u64
    }

    #[inline]
    fn next_retired(&mut self) -> Result<Retired, ExecError> {
        match self.trace.records.get(self.pos) {
            Some(r) => {
                self.pos += 1;
                Ok(*r)
            }
            None => Err(self.trace.end.unwrap_or(ExecError::Halted)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_isa::{Asm, Reg};

    fn counting_program(iterations: i64) -> rsr_isa::Program {
        let mut a = Asm::new();
        a.li(Reg::T1, iterations);
        let top = a.bind_new("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.sd(Reg::T0, 0, Reg::GP);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        a.finish().unwrap()
    }

    fn drain(src: &mut impl RetireSource, n: usize) -> (Vec<(u64, Retired)>, Option<ExecError>) {
        let mut out = Vec::new();
        for _ in 0..n {
            let seq = src.next_seq();
            match src.next_retired() {
                Ok(r) => out.push((seq, r)),
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }

    #[test]
    fn cursor_replays_the_live_stream() {
        let p = counting_program(1_000);
        let mut cpu = Cpu::new(&p).unwrap();
        cpu.step_n(17, |_| ()).unwrap();
        let mut live = cpu.clone();
        let mut trace = RetireTrace::new();
        trace.record(&mut cpu, 200).unwrap();
        assert_eq!(trace.records().len(), 200);
        assert_eq!(trace.error(), None);
        assert_eq!(cpu.icount(), 217);
        let want = drain(&mut live, 200);
        assert_eq!(drain(&mut trace.cursor(), 200), want);
        assert!(want.0.iter().all(|(seq, r)| *seq == r.seq));
        // Past a clean end the trace has nothing left to give.
        let mut c = trace.cursor();
        let _ = drain(&mut c, 200);
        assert_eq!(c.next_retired(), Err(ExecError::Halted));
    }

    #[test]
    fn a_halt_inside_the_trace_ends_it_like_the_live_cpu() {
        let p = counting_program(5);
        let mut cpu = Cpu::new(&p).unwrap();
        let mut live = cpu.clone();
        let mut trace = RetireTrace::new();
        assert_eq!(trace.record(&mut cpu, 1_000), Err(ExecError::Halted));
        assert_eq!(trace.error(), Some(ExecError::Halted));
        assert_eq!(drain(&mut trace.cursor(), 1_000), drain(&mut live, 1_000));
    }

    #[test]
    fn a_record_is_64_bytes() {
        // The trace-size arithmetic in the docs assumes this.
        assert_eq!(std::mem::size_of::<Retired>(), 64);
    }

    #[test]
    fn recording_reuses_the_trace() {
        let p = counting_program(1_000);
        let mut cpu = Cpu::new(&p).unwrap();
        let mut trace = RetireTrace::new();
        trace.record(&mut cpu, 50).unwrap();
        trace.record(&mut cpu, 30).unwrap();
        assert_eq!(trace.records().len(), 30);
        assert_eq!(trace.cursor().next_seq(), 50);
        assert_eq!(trace.records()[0].seq, 50);
    }
}
