//! Shared helpers for the cross-crate integration tests, and the
//! reference implementations ([`oracle`]) the suites check the library
//! against.

pub mod oracle;

use rsr_core::{MachineConfig, RunSpec, SampleOutcome, SamplingRegimen, SimError, WarmupPolicy};
use rsr_isa::Program;
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
