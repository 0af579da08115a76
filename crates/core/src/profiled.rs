//! Profile-based warm-up baselines from the paper's related work (§2):
//! MRRL (Haskins & Skadron) and BLRL (Eeckhout et al.).
//!
//! Both methods run a *profiling pass* over each skip-region/cluster pair
//! to measure how far back into the pre-cluster region the cluster's memory
//! references reach, then size the warm window to cover a target fraction
//! of those reuses. This is exactly the analysis cost RSR avoids ("pin down
//! the cluster locations and require profiling analysis whenever the
//! cluster positions are changed") — implemented here so ablation benches
//! can quantify that trade.

use std::collections::HashMap;

use rsr_func::{Cpu, ExecError};

use crate::Pct;

const LINE_MASK: u64 = !63;

/// Which reuse histogram the warm-window sizing uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReusePolicy {
    /// MRRL: every cluster memory reference counts; references whose
    /// previous use is inside the cluster (or that are compulsory) need no
    /// pre-cluster warming and count as distance 0.
    Mrrl,
    /// BLRL: only references that originate in the cluster and whose
    /// previous use lies in the pre-cluster region count.
    Blrl,
}

/// Result of one profiling pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReuseProfile {
    /// Pre-cluster instructions needed to cover each histogram entry
    /// (unsorted).
    pub back_distances: Vec<u64>,
    /// Total references considered by the policy's denominator.
    pub considered: u64,
}

impl ReuseProfile {
    /// The warm-window length (in pre-cluster instructions) covering
    /// `coverage` percent of the histogram. Zero when nothing needs
    /// covering.
    pub fn warm_window(&self, coverage: Pct, skip_len: u64) -> u64 {
        if self.considered == 0 {
            return 0;
        }
        let need = coverage.of(self.considered as usize);
        // Distance-0 entries are always covered.
        let zeros = self.back_distances.iter().filter(|&&d| d == 0).count()
            + (self.considered as usize - self.back_distances.len());
        if zeros >= need {
            return 0;
        }
        let mut dists: Vec<u64> = self.back_distances.iter().copied().filter(|&d| d > 0).collect();
        dists.sort_unstable();
        let idx = need - zeros;
        let w = dists.get(idx.saturating_sub(1)).copied().unwrap_or(0);
        w.min(skip_len)
    }
}

/// Profiles one skip-region/cluster pair starting from `cpu`'s current
/// state (the CPU is advanced through `skip_len + cluster_len`
/// instructions; callers snapshot and restore around this).
///
/// Tracks last-touch positions of 64-byte lines (data and instruction) over
/// the skip region, then records, for each cluster reference, how many
/// pre-cluster instructions a warm window must include to contain its
/// previous use. Cluster fetches count at line granularity, as the skip
/// log and the SMARTS warmer see them: a fetch is a reference only when
/// its line differs from the previous fetch's, so straight-line code
/// inside one line does not flood the histogram with intra-cluster
/// distance-0 entries.
///
/// # Errors
///
/// Propagates functional-simulation faults.
pub fn profile_reuse(
    cpu: &mut Cpu,
    skip_len: u64,
    cluster_len: u64,
    policy: ReusePolicy,
) -> Result<ReuseProfile, ExecError> {
    let mut last_touch: HashMap<u64, u64> = HashMap::new();
    let mut pos: u64 = 0;
    let touch = |map: &mut HashMap<u64, u64>, line: u64, pos: u64| {
        map.insert(line, pos);
    };

    cpu.step_n(skip_len, |r| {
        touch(&mut last_touch, r.pc & LINE_MASK, pos);
        if let Some(m) = r.mem {
            touch(&mut last_touch, m.addr & LINE_MASK, pos);
        }
        pos += 1;
    })?;

    let mut profile = ReuseProfile { back_distances: Vec::new(), considered: 0 };
    let note = |profile: &mut ReuseProfile, prev: Option<u64>| {
        match prev {
            Some(p) if p < skip_len => {
                // Previous use in the pre-cluster region: a warm window of
                // (skip_len - p) instructions reaches it.
                profile.considered += 1;
                profile.back_distances.push(skip_len - p);
            }
            Some(_) => {
                // Intra-cluster reuse.
                if policy == ReusePolicy::Mrrl {
                    profile.considered += 1;
                    profile.back_distances.push(0);
                }
            }
            None => {
                // Compulsory: no warming helps.
                if policy == ReusePolicy::Mrrl {
                    profile.considered += 1;
                    profile.back_distances.push(0);
                }
            }
        }
    };

    let mut prev_iline = None;
    cpu.step_n(cluster_len, |r| {
        let iline = r.pc & LINE_MASK;
        if prev_iline != Some(iline) {
            prev_iline = Some(iline);
            note(&mut profile, last_touch.get(&iline).copied());
            touch(&mut last_touch, iline, pos);
        }
        if let Some(m) = r.mem {
            let dline = m.addr & LINE_MASK;
            note(&mut profile, last_touch.get(&dline).copied());
            touch(&mut last_touch, dline, pos);
        }
        pos += 1;
    })?;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_isa::{Asm, Reg};

    /// A program that touches line A early in the skip region, then lines
    /// B..E late, and in the "cluster" touches A and B.
    fn staged_program() -> (rsr_isa::Program, u64, u64) {
        let mut a = Asm::new();
        let data = a.data_zeros(64 * 64);
        a.la(Reg::S1, data);
        // Skip region: touch line 0 once, burn time, touch line 1 near the
        // end.
        a.ld(Reg::T0, 0, Reg::S1); // line 0 at pos ~2
        for _ in 0..40 {
            a.nop();
        }
        a.ld(Reg::T0, 64, Reg::S1); // line 1 near the end of the skip
                                    // Cluster: touch line 0 (distant reuse) and line 1 (recent reuse).
        a.ld(Reg::T1, 0, Reg::S1);
        a.ld(Reg::T2, 64, Reg::S1);
        a.halt();
        let p = a.finish().unwrap();
        // Instruction counts: la = 2 (lui+addi), then loads/nops.
        let skip_len = 2 + 1 + 40 + 1; // through the second skip load
        let cluster_len = 2;
        (p, skip_len as u64, cluster_len)
    }

    #[test]
    fn blrl_counts_only_boundary_reuses() {
        let (p, skip, cluster) = staged_program();
        let mut cpu = Cpu::new(&p).unwrap();
        let prof = profile_reuse(&mut cpu, skip, cluster, ReusePolicy::Blrl).unwrap();
        // Both cluster loads reuse pre-cluster lines; instruction lines of
        // the cluster also cross the boundary (same text line).
        assert!(prof.considered >= 2);
        assert!(prof.back_distances.iter().all(|&d| d > 0));
    }

    #[test]
    fn mrrl_includes_compulsory_and_intra_cluster() {
        let mut a = Asm::new();
        let base = a.here();
        let data = a.data_zeros(256);
        a.la(Reg::S1, data);
        a.nop();
        let skip = (a.here() - base) / 4;
        // Cluster: two touches of the same (previously untouched) line:
        // first compulsory, second intra-cluster.
        a.ld(Reg::T0, 128, Reg::S1);
        a.ld(Reg::T1, 128, Reg::S1);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let prof = profile_reuse(&mut cpu, skip, 2, ReusePolicy::Mrrl).unwrap();
        // MRRL counts both data refs (0-distance) plus the cluster's one
        // instruction-line reuse record.
        assert_eq!(prof.considered, 3);
        assert_eq!(prof.back_distances.iter().filter(|&&d| d == 0).count(), 2);
    }

    #[test]
    fn a_loop_inside_one_line_counts_one_fetch() {
        // Skip: touch a data line, then spin a one-line loop. Cluster: the
        // same loop reloading that line every iteration. The loop's
        // fetches are one reference, not one per instruction.
        let mut a = Asm::new();
        let base = a.here();
        let data = a.data_zeros(64);
        a.la(Reg::S1, data);
        a.ld(Reg::T1, 0, Reg::S1);
        a.li(Reg::T0, 1_000);
        let prologue = (a.here() - base) / 4;
        let top = a.bind_new("top");
        a.ld(Reg::T1, 0, Reg::S1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        assert!(p.text_end() - (base & !63) <= 64, "the program fits one line");
        let skip = prologue + 3 * 10;
        let cluster = 3 * 20;
        let mut cpu = Cpu::new(&p).unwrap();
        let prof = profile_reuse(&mut cpu, skip, cluster, ReusePolicy::Mrrl).unwrap();
        // One fetch reference plus 20 loads.
        assert_eq!(prof.considered, 21);
        assert_eq!(prof.back_distances.iter().filter(|&&d| d > 0).count(), 2);
        // Covering the two pre-cluster reuses takes a nonzero window.
        assert!(prof.warm_window(Pct::new(100), skip) > 0);
    }

    #[test]
    fn warm_window_percentile() {
        let prof = ReuseProfile { back_distances: vec![0, 0, 5, 10, 100], considered: 5 };
        // 40% of 5 = 2 refs: zeros cover it.
        assert_eq!(prof.warm_window(Pct::new(40), 1000), 0);
        // 60% needs one nonzero: distance 5.
        assert_eq!(prof.warm_window(Pct::new(60), 1000), 5);
        // 100% needs them all: distance 100.
        assert_eq!(prof.warm_window(Pct::new(100), 1000), 100);
        // Clamped to the region length.
        assert_eq!(prof.warm_window(Pct::new(100), 50), 50);
    }

    #[test]
    fn empty_profile_needs_no_warming() {
        let prof = ReuseProfile { back_distances: vec![], considered: 0 };
        assert_eq!(prof.warm_window(Pct::new(100), 1000), 0);
    }
}
