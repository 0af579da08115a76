//! # rsr-cache — caches, buses, and the timed memory hierarchy
//!
//! The memory-side substrate of the RSR reproduction:
//!
//! * [`Cache`] — set-associative, true-LRU cache with the per-block
//!   *reconstructed* bits and stale-way insertion rules required by the
//!   paper's reverse cache reconstruction (§3.1);
//! * [`Bus`] — width- and rate-limited bus with single-owner arbitration;
//! * [`MemHierarchy`] — the paper's §4 configuration: split 4-way WTNA L1
//!   caches (32 KB D / 64 KB I, 64 B lines), a shared 16-byte 1 GHz L1 bus,
//!   a 1 MB 8-way WBWA L2, and a 32-byte 2 GHz L2↔memory bus, all timed in
//!   2 GHz core cycles.
//!
//! ```
//! use rsr_cache::{HierarchyConfig, MemHierarchy, HierAccess};
//!
//! let mut mem = MemHierarchy::new(HierarchyConfig::paper());
//! let t1 = mem.access(0, 0x8000, HierAccess::Load);   // cold miss
//! let t2 = mem.access(t1, 0x8000, HierAccess::Load);  // L1 hit
//! assert!(t2 - t1 < t1);
//! ```

mod bus;
#[allow(clippy::module_inception)]
mod cache;
mod config;
mod hierarchy;
mod sampling;

pub use bus::{Bus, BusConfig, BusStats};
pub use cache::{AccessKind, AccessOutcome, Addr, Cache, CacheStats, ReconOutcome, SpanOutcome};
pub use config::{CacheConfig, WritePolicy};
pub use hierarchy::{HierAccess, HierarchyConfig, HierarchyStats, MemHierarchy};
pub use sampling::{SetSampleStats, SetSampledCache};
