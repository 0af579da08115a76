//! # rsr-branch — branch prediction substrate
//!
//! The paper's front-end prediction hardware and the §3.2 reconstruction
//! machinery:
//!
//! * [`Gshare`] — 64 K-entry gshare (16-bit global history) of 2-bit
//!   saturating [`Counter2`]s, with per-entry *reconstructed* bits;
//! * [`Btb`] — 4 K-entry direct-mapped branch target buffer;
//! * [`Ras`] — 8-entry return address stack with the reverse
//!   reconstruction algorithm of Figure 4;
//! * [`Predictor`] — the combined predictor with checkpoints (the paper
//!   speculates past up to eight branches);
//! * [`CounterInference`] / [`InferenceTable`] — the reverse-history 2-bit
//!   counter inference of Figure 3, both incremental and as the paper's
//!   a-priori lookup table.
//!
//! ```
//! use rsr_branch::{CounterInference, Counter2};
//!
//! // Three taken outcomes (in reverse order) pin the counter at 3.
//! let mut inf = CounterInference::new();
//! for _ in 0..3 {
//!     inf.prepend(true);
//! }
//! assert_eq!(inf.resolved(), Some(Counter2::STRONG_T));
//! ```

mod btb;
mod counter;
mod direction;
mod gshare;
mod predictor;
mod ras;

/// A byte address (mirrors `rsr_isa::Addr` without the dependency).
pub type Addr = u64;

pub use btb::{Btb, BtbStats};
pub use counter::{
    Counter2, CounterInference, InferenceTable, StateMap, StateSet, PACKED_IDENTITY, PACKED_PREPEND,
};
pub use direction::{accuracy_over, Bimodal, DirectionPredictor, LocalTwoLevel, Tournament};
pub use gshare::{Gshare, GshareStats};
pub use predictor::{
    Checkpoint, PredCtrlKind, Prediction, Predictor, PredictorConfig, PredictorStats,
};
pub use ras::{Ras, RasOp};
