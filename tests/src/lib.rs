//! Shared helpers for the cross-crate integration tests, and the
//! reference implementations ([`oracle`]) the suites check the library
//! against.

pub mod oracle;

use rsr_core::{MachineConfig, RunSpec, SampleOutcome, SamplingRegimen, SimError, WarmupPolicy};
use rsr_isa::{Asm, Program, Reg};
use rsr_workloads::{Benchmark, WorkloadParams};

/// A small, fast workload build for integration tests.
pub fn tiny(bench: Benchmark) -> Program {
    bench.build(&WorkloadParams { scale: 0.05, ..Default::default() })
}

/// The paper machine.
pub fn machine() -> MachineConfig {
    MachineConfig::paper()
}

/// A sampled run on the paper machine through the [`RunSpec`] entry point
/// — the shape almost every integration test wants.
pub fn sample(
    program: &Program,
    regimen: SamplingRegimen,
    total: u64,
    policy: WarmupPolicy,
    seed: u64,
) -> Result<SampleOutcome, SimError> {
    RunSpec::new(program, &machine())
        .regimen(regimen)
        .total_insts(total)
        .policy(policy)
        .seed(seed)
        .run()
}

/// True IPC from the unsampled cycle-accurate baseline on the paper
/// machine.
pub fn full_ipc(program: &Program, total: u64) -> f64 {
    RunSpec::new(program, &machine())
        .total_insts(total)
        .run_full()
        .expect("full baseline runs")
        .ipc()
}

/// A random but guaranteed-terminating straight-line-ish program: ALU ops,
/// loads/stores into a private 4 KiB buffer, and forward-only branches,
/// one group per byte of `ops`, wrapped in a counter loop of `iters`
/// trips that ends in `halt`.
pub fn random_program(ops: &[u8], iters: u64) -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros(4096);
    a.la(Reg::S1, buf);
    a.li(Reg::S0, iters as i64);
    let top = a.bind_new("top");
    for (k, &op) in ops.iter().enumerate() {
        let r1 = Reg(10 + (op % 8));
        let r2 = Reg(10 + (op / 8 % 8));
        match op % 7 {
            0 => {
                a.add(r1, r1, r2);
            }
            1 => {
                a.xori(r1, r2, (op as i32) << 3);
            }
            2 => {
                a.andi(Reg::T0, r1, 0xff8);
                a.add(Reg::T0, Reg::T0, Reg::S1);
                a.ld(r2, 0, Reg::T0);
            }
            3 => {
                a.andi(Reg::T0, r2, 0xff8);
                a.add(Reg::T0, Reg::T0, Reg::S1);
                a.sd(r1, 0, Reg::T0);
            }
            4 => {
                // Forward skip of one instruction.
                let skip = a.new_label(&format!("s{k}"));
                a.beq(r1, r2, skip);
                a.addi(r1, r1, 1);
                a.bind(skip).unwrap();
            }
            5 => {
                a.mul(r1, r1, r2);
            }
            _ => {
                a.srli(r1, r1, 3);
            }
        }
    }
    a.addi(Reg::S0, Reg::S0, -1);
    a.bne(Reg::S0, Reg::ZERO, top);
    a.halt();
    a.finish().expect("assembles")
}
