//! # rsr-timing — the cycle-accurate out-of-order core
//!
//! The paper's §4 machine: an execution-driven superscalar model that
//! fetches and dispatches eight instructions per cycle, issues and retires
//! four, keeps 64 instructions in flight over a 32-entry issue queue and a
//! 64-entry load/store queue, executes on eight universal fully pipelined
//! function units, speculates past up to eight branches with architectural
//! checkpoints, and pays at least five cycles per branch misprediction. It
//! drives the `rsr-cache` hierarchy and the `rsr-branch` predictor.
//!
//! The single entry point is [`simulate_cluster`]: run *n* instructions
//! cycle-accurately from a retired-instruction source (the live
//! `rsr_func::Cpu`, or a `rsr_func::RetireTrace` recorded from it) and the
//! current microarchitectural (`MemHierarchy`, `Predictor`) state —
//! exactly the "hot" phase of sampled simulation, and all of an unsampled
//! run.
//!
//! The cluster loop is event-driven: per-cycle work follows the events in
//! the cycle (a completion, an issue, a commit, a fetch group), never a
//! scan of the whole reorder buffer. The integration tests pin it bit for
//! bit against the straightforward ROB-scanning loop kept as an oracle in
//! the tests crate.
//!
//! ```
//! use rsr_timing::{simulate_cluster, CoreConfig};
//! use rsr_cache::{MemHierarchy, HierarchyConfig};
//! use rsr_branch::{Predictor, PredictorConfig};
//! use rsr_func::Cpu;
//! use rsr_isa::{Asm, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let top = a.bind_new("top");
//! a.addi(Reg::T0, Reg::T0, 1);
//! a.j(top);
//! let program = a.finish()?;
//!
//! let mut cpu = Cpu::new(&program)?;
//! let mut hier = MemHierarchy::new(HierarchyConfig::paper());
//! let mut pred = Predictor::new(PredictorConfig::paper());
//! let stats = simulate_cluster(&CoreConfig::paper(), &mut cpu, &mut hier, &mut pred, 1000)?;
//! assert_eq!(stats.instructions, 1000);
//! assert!(stats.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

mod config;
#[allow(clippy::module_inception)]
mod core;

pub use crate::config::CoreConfig;
pub use crate::core::{
    simulate_cluster, simulate_cluster_hooked, to_pred_kind, HotStats, NoHook, PredictHook,
};
