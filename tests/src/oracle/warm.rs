//! The reference SMARTS warmer: the per-instruction warming loop as it
//! stood before the engine's inlined warmer, kept as the oracle that
//! warmer is checked against.
//!
//! Every retired instruction probes the I-cache with its fetch, then
//! applies its memory reference and its branch, one closure call per
//! instruction. The engine's warmer skips a fetch probe that repeats the
//! previous fetch's line; the state it leaves must match this loop's bit
//! for bit.

use rsr_branch::Predictor;
use rsr_cache::{HierAccess, MemHierarchy};
use rsr_func::{Cpu, ExecError, Retired};
use rsr_timing::to_pred_kind;

/// Applies one retired instruction's functional warming to the caches
/// (`cache`) and the predictor (`bp`); returns the warm updates applied:
/// one per fetch and memory reference when `cache` is set, one per branch
/// when `bp` is.
fn warm_one(
    r: &Retired,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    cache: bool,
    bp: bool,
) -> u64 {
    let mut updates = 0;
    if cache {
        hier.warm_access(r.pc, HierAccess::Fetch);
        updates += 1;
        if let Some(m) = r.mem {
            hier.warm_access(m.addr, if m.is_store { HierAccess::Store } else { HierAccess::Load });
            updates += 1;
        }
    }
    if bp {
        if let Some(b) = r.branch {
            pred.warm_update(r.pc, to_pred_kind(b.kind), b.taken, b.target);
            updates += 1;
        }
    }
    updates
}

/// Steps `n` instructions, warming each one; returns the warm
/// updates applied.
///
/// # Errors
///
/// Propagates functional-simulation faults.
pub fn ref_warm(
    cpu: &mut Cpu,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    n: u64,
    cache: bool,
    bp: bool,
) -> Result<u64, ExecError> {
    let mut updates = 0;
    cpu.step_n(n, |r| updates += warm_one(r, hier, pred, cache, bp))?;
    Ok(updates)
}
