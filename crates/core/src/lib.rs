//! # rsr-core — sampled simulation with Reverse State Reconstruction
//!
//! The primary contribution of *Bryan, Rosier, Conte, "Reverse State
//! Reconstruction for Sampled Microarchitectural Simulation"* (ISPASS
//! 2007), on top of the workspace's substrate crates:
//!
//! * [`SamplingRegimen`] / [`Schedule`] — cluster sampling with uniformly
//!   random, non-overlapping cluster positions (Figure 1);
//! * [`SkipLog`] — skip-region logging of memory references and branches;
//! * [`WarmupPolicy`] — the paper's Table 2 method matrix: `None`, fixed
//!   period, SMARTS functional warming, and Reverse State Reconstruction,
//!   each selectively applied to caches and/or the branch predictor;
//! * [`reverse`] — the §3 algorithms: reverse cache reconstruction and
//!   on-demand branch-predictor reconstruction (GHR, RAS, counter
//!   inference, BTB);
//! * [`RunSpec`] — the one entry point for single simulations: a
//!   composition of a [`ColdSpec`] (the workload half: program, schedule,
//!   guard knobs) and a [`DetailSpec`] (the microarchitecture half:
//!   machine geometry, policy, pipeline depth), run as one stream with
//!   bit-identical results at every depth, with wall-clock phase
//!   accounting for the paper's speed comparisons;
//! * [`SweepSpec`] — the design-space sweep engine: one cold half fanned
//!   out across N named detailed halves, paying the functional pass once
//!   and replaying each config from the shared sealed logs with outcomes
//!   bit-identical to standalone runs;
//! * [`FaultPlan`] — deterministic fault injection (leader and replay
//!   panics, log-budget exhaustion, and the job service's per-job
//!   faults), driving the typed-failure and degradation guards configured
//!   on [`RunSpec`].
//!
//! ```no_run
//! use rsr_core::{MachineConfig, Pct, RunSpec, SamplingRegimen, WarmupPolicy};
//! use rsr_workloads::{Benchmark, WorkloadParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Benchmark::Mcf.build(&WorkloadParams::default());
//! let machine = MachineConfig::paper();
//! let outcome = RunSpec::new(&program, &machine)
//!     .regimen(SamplingRegimen::new(60, 3000))
//!     .total_insts(8_000_000)
//!     .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
//!     .seed(42)
//!     .run()?;
//! println!("IPC estimate: {:.3}", outcome.est_ipc());
//! # Ok(())
//! # }
//! ```

mod fault;
mod log;
mod policy;
pub mod profiled;
mod regimen;
pub mod reverse;
mod sampler;
mod spec;
mod sweep;

pub use crate::fault::{Fault, FaultInjector, FaultKind, FaultPlan, STALL_JOB_DELAY};
pub use crate::log::{BranchRecord, LogPool, ReconGeometry, SkipLog, RECORD_BYTES};
pub use crate::policy::{Pct, WarmupPolicy};
pub use crate::profiled::{profile_reuse, ReusePolicy, ReuseProfile};
pub use crate::regimen::{ClusterWindow, SamplingRegimen, Schedule};
pub use crate::reverse::{
    reconstruct_caches_partitioned, BpReconstructor, ReconStats, ReconTiming,
};
pub use crate::sampler::{
    skip_with_smarts_warming, FullOutcome, MachineConfig, PhaseTimes, SampleOutcome, SimError,
};
pub use crate::spec::{ColdSpec, DetailSpec, RunSpec};
pub use crate::sweep::{SweepConfigOutcome, SweepOutcome, SweepSpec};
