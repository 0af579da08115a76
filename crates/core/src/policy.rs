//! Warm-up policies (the paper's Table 2).

/// A warm-up percentage parameter (20, 40, 80 or 100 in the paper; any
/// value in `1..=100` is accepted).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pct(u8);

impl Pct {
    /// Builds a percentage.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= v <= 100`.
    pub fn new(v: u8) -> Pct {
        assert!((1..=100).contains(&v), "percentage {v} out of range");
        Pct(v)
    }

    /// The raw value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// `count` scaled by this percentage, rounding up (a nonempty input
    /// always yields a nonzero budget).
    pub fn of(self, count: usize) -> usize {
        (count * self.0 as usize).div_ceil(100)
    }
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.0)
    }
}

/// A warm-up method, named as in the paper's Table 2.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WarmupPolicy {
    /// `None`: caches and branch predictor stay stale across skips.
    None,
    /// `FP (p%)`: functionally warm both the caches and the branch
    /// predictor over the last `p` percent of each skip region.
    FixedPeriod {
        /// Fraction of the skip region that is warmed.
        pct: Pct,
    },
    /// `S$`, `SBP`, `S$BP`: SMARTS full functional warming of the selected
    /// structures over the whole skip region.
    Smarts {
        /// Warm the cache hierarchy.
        cache: bool,
        /// Warm the branch predictor.
        bp: bool,
    },
    /// `R$ (p%)`, `RBP`, `R$BP (p%)`: Reverse State Reconstruction of the
    /// selected structures, consuming at most the last `p` percent of the
    /// logged trace.
    Reverse {
        /// Reconstruct the cache hierarchy.
        cache: bool,
        /// Reconstruct the branch predictor.
        bp: bool,
        /// Log-consumption budget.
        pct: Pct,
    },
    /// `MRRL (p%)`: Memory Reference Reuse Latency (Haskins & Skadron,
    /// ISPASS 2003) — a related-work baseline. Each skip/cluster pair is
    /// profiled for the reuse distance of every cluster memory reference;
    /// the warm window is sized so `coverage` percent of them have their
    /// previous use inside it.
    Mrrl {
        /// Fraction of cluster references whose reuse the warm window
        /// must cover.
        coverage: Pct,
    },
    /// `BLRL (p%)`: Boundary Line Reuse Latency (Eeckhout et al., 2005) —
    /// like MRRL but the histogram only contains references that originate
    /// in the cluster and reach back across the cluster boundary.
    Blrl {
        /// Fraction of boundary-crossing references to cover.
        coverage: Pct,
    },
}

impl WarmupPolicy {
    /// The 16 configurations of the paper's Table 2 / appendix, in the
    /// appendix's row order.
    pub fn paper_matrix() -> Vec<WarmupPolicy> {
        use WarmupPolicy::*;
        vec![
            FixedPeriod { pct: Pct::new(20) },
            FixedPeriod { pct: Pct::new(40) },
            FixedPeriod { pct: Pct::new(80) },
            None,
            Smarts { cache: true, bp: false },
            Smarts { cache: false, bp: true },
            Smarts { cache: true, bp: true },
            Reverse { cache: true, bp: false, pct: Pct::new(20) },
            Reverse { cache: true, bp: false, pct: Pct::new(40) },
            Reverse { cache: true, bp: false, pct: Pct::new(80) },
            Reverse { cache: true, bp: false, pct: Pct::new(100) },
            Reverse { cache: false, bp: true, pct: Pct::new(100) },
            Reverse { cache: true, bp: true, pct: Pct::new(20) },
            Reverse { cache: true, bp: true, pct: Pct::new(40) },
            Reverse { cache: true, bp: true, pct: Pct::new(80) },
            Reverse { cache: true, bp: true, pct: Pct::new(100) },
        ]
    }

    /// Does this policy log the skip region (trading storage for speed)?
    pub fn needs_log(&self) -> bool {
        matches!(self, WarmupPolicy::Reverse { .. })
    }

    /// Does this policy require a profiling pass over each skip/cluster
    /// pair (the cost RSR avoids — paper §2)?
    pub fn needs_profiling(&self) -> bool {
        matches!(self, WarmupPolicy::Mrrl { .. } | WarmupPolicy::Blrl { .. })
    }

    /// The reverse scan budget: how much of each skip log (from the end)
    /// reconstruction reads, and so the retention window its logs need.
    /// 100 % for every policy that never reconstructs.
    pub(crate) fn scan_budget(&self) -> Pct {
        match *self {
            WarmupPolicy::Reverse { pct, .. } => pct,
            _ => Pct::new(100),
        }
    }
}

impl std::fmt::Display for WarmupPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WarmupPolicy::None => f.write_str("None"),
            WarmupPolicy::FixedPeriod { pct } => write!(f, "FP ({pct})"),
            WarmupPolicy::Smarts { cache, bp } => match (cache, bp) {
                (true, true) => f.write_str("S$BP"),
                (true, false) => f.write_str("S$"),
                (false, true) => f.write_str("SBP"),
                (false, false) => f.write_str("S(none)"),
            },
            WarmupPolicy::Reverse { cache, bp, pct } => match (cache, bp) {
                (true, true) => write!(f, "R$BP ({pct})"),
                (true, false) => write!(f, "R$ ({pct})"),
                // The paper's RBP has no percentage knob in its tables.
                (false, true) => f.write_str("RBP"),
                (false, false) => f.write_str("R(none)"),
            },
            WarmupPolicy::Mrrl { coverage } => write!(f, "MRRL ({coverage})"),
            WarmupPolicy::Blrl { coverage } => write!(f, "BLRL ({coverage})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names() {
        let names: Vec<String> =
            WarmupPolicy::paper_matrix().iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "FP (20%)",
                "FP (40%)",
                "FP (80%)",
                "None",
                "S$",
                "SBP",
                "S$BP",
                "R$ (20%)",
                "R$ (40%)",
                "R$ (80%)",
                "R$ (100%)",
                "RBP",
                "R$BP (20%)",
                "R$BP (40%)",
                "R$BP (80%)",
                "R$BP (100%)"
            ]
        );
    }

    #[test]
    fn pct_of_rounds_up() {
        let p = Pct::new(20);
        assert_eq!(p.of(100), 20);
        assert_eq!(p.of(1), 1);
        assert_eq!(p.of(0), 0);
        assert_eq!(Pct::new(100).of(37), 37);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_pct_rejected() {
        let _ = Pct::new(0);
    }

    #[test]
    fn needs_log() {
        assert!(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }.needs_log());
        assert!(!WarmupPolicy::Smarts { cache: true, bp: true }.needs_log());
        assert!(!WarmupPolicy::None.needs_log());
    }

    #[test]
    fn profiling_baselines() {
        assert!(WarmupPolicy::Mrrl { coverage: Pct::new(95) }.needs_profiling());
        assert!(WarmupPolicy::Blrl { coverage: Pct::new(95) }.needs_profiling());
        assert!(
            !WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }.needs_profiling()
        );
        assert_eq!(WarmupPolicy::Mrrl { coverage: Pct::new(95) }.to_string(), "MRRL (95%)");
        assert_eq!(WarmupPolicy::Blrl { coverage: Pct::new(90) }.to_string(), "BLRL (90%)");
    }

    #[test]
    fn matrix_is_sixteen_distinct_configs() {
        let m = WarmupPolicy::paper_matrix();
        assert_eq!(m.len(), 16);
        let set: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), 16);
    }
}
