//! Reference implementations the library is checked against.
//!
//! Each oracle is the straightforward form of something the library
//! ships in a faster shape: the array-of-structs cache and predictor
//! structures behind the SoA kernels, the sequential full reverse scan
//! and demand-driven counter inference behind the sealed-index
//! reconstruction, the ROB-scanning cluster loop behind the event-driven
//! timing core, and the per-instruction warming loop behind the inlined
//! SMARTS warmer. They live here, not in the library's API,
//! because production never runs them; the equivalence suites require
//! the two sides to agree bit for bit.

mod branch;
mod cache;
mod reverse;
mod timing;
mod warm;

pub use branch::{RefBtb, RefGshare, RefRas};
pub use cache::RefCache;
pub use reverse::{reconstruct_caches, reconstruct_refs, RefBpReconstructor};
pub use timing::ref_simulate_cluster;
pub use warm::ref_warm;
