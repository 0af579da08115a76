//! # rsr-ckpt — live-points-style checkpoints for sampled simulation
//!
//! The paper's related work includes *Simulation Sampling with Live-points*
//! (Wenisch et al., ISPASS 2006): instead of functionally fast-forwarding
//! (and warming) between clusters on every experiment, store a small
//! checkpoint per sample point — the warmed microarchitectural state plus
//! only the *live* architectural state the sample actually reads — and
//! replay samples directly from the library.
//!
//! This crate implements that idea on top of the workspace:
//!
//! * [`LivePointLibrary::build`] runs one sampled simulation under a chosen
//!   warm-up policy and captures, at each cluster start, the warmed
//!   [`MemHierarchy`] + [`Predictor`], the register state, and exactly the
//!   memory pages the cluster will touch (discovered with a scout pass —
//!   functional execution is deterministic, so the touched-page set is
//!   exact);
//! * [`LivePointLibrary::replay`] re-simulates every sample point from the
//!   library with *no* functional fast-forwarding at all, reproducing the
//!   build-time per-cluster results bit for bit;
//! * [`LivePointLibrary::approx_bytes`] accounts the storage this trades
//!   for that speed.
//!
//! ```no_run
//! use rsr_ckpt::LivePointLibrary;
//! use rsr_core::{MachineConfig, SamplingRegimen, WarmupPolicy};
//! use rsr_workloads::{Benchmark, WorkloadParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Benchmark::Gcc.build(&WorkloadParams::default());
//! let machine = MachineConfig::paper();
//! let library = LivePointLibrary::build(
//!     &program,
//!     &machine,
//!     SamplingRegimen::new(50, 2000),
//!     8_000_000,
//!     WarmupPolicy::Smarts { cache: true, bp: true },
//!     42,
//! )?;
//! // Later experiments replay in milliseconds instead of re-skipping.
//! let replay = library.replay(&machine)?;
//! println!("IPC {:.3} from {} checkpoints ({} KiB)",
//!     replay.est_ipc(), library.len(), library.approx_bytes() / 1024);
//! # Ok(())
//! # }
//! ```

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_core::{
    skip_with_smarts_warming, ClusterWindow, MachineConfig, SamplingRegimen, Schedule, SimError,
    WarmupPolicy,
};
use rsr_func::{ArchState, Cpu, PAGE_BYTES};
use rsr_isa::Program;
use rsr_stats::ClusterSample;
use rsr_timing::simulate_cluster;

/// One captured memory page.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LivePage {
    page_no: u64,
    bytes: Vec<u8>,
}

/// One sample point: warmed microarchitectural state plus the live subset
/// of architectural state.
#[derive(Clone, Debug)]
pub struct LivePoint {
    /// The cluster this checkpoint belongs to.
    pub window: ClusterWindow,
    arch: ArchState,
    pages: Vec<LivePage>,
    hier: MemHierarchy,
    pred: Predictor,
    /// CPI measured when the library was built (for validation).
    pub build_cpi: f64,
}

impl LivePoint {
    /// Number of live pages captured.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }
}

/// A library of live-points over one program.
#[derive(Clone, Debug)]
pub struct LivePointLibrary {
    program: Program,
    points: Vec<LivePoint>,
    /// Wall time spent building (the one-time cost replays amortize).
    pub build_time: Duration,
    /// Instructions the build's machine retired: every skip region and
    /// every cluster up to the last one's end (scout passes excluded).
    pub build_retired: u64,
}

/// Result of replaying a library.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Per-cluster CPIs (estimation domain, as in `rsr-core`).
    pub cpi_clusters: ClusterSample,
    /// Per-cluster IPCs.
    pub ipc_clusters: ClusterSample,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Instructions the replay's machines retired, summed over points:
    /// exactly the clusters' lengths, since replay fast-forwards nothing.
    pub retired: u64,
}

impl ReplayOutcome {
    /// IPC estimate (inverse mean CPI).
    pub fn est_ipc(&self) -> f64 {
        let cpi = self.cpi_clusters.mean();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }
}

impl LivePointLibrary {
    /// Builds a library: one sampled simulation under `policy`, capturing a
    /// live-point at every cluster start.
    ///
    /// Only non-logging warm-up policies are supported for library
    /// construction (`None`, `Smarts`, `FixedPeriod` behave identically to
    /// a sequential `rsr_core::RunSpec` run); the point of a library is that *future*
    /// runs skip warm-up entirely, so build once with the most accurate
    /// warming you can afford.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on load/execution failure, or if `policy` is a
    /// logging policy (unsupported here).
    pub fn build(
        program: &Program,
        machine: &MachineConfig,
        regimen: SamplingRegimen,
        total_insts: u64,
        policy: WarmupPolicy,
        schedule_seed: u64,
    ) -> Result<LivePointLibrary, SimError> {
        if policy.needs_log() || policy.needs_profiling() {
            // Logging/profiling policies interleave with the hot phase in
            // ways a snapshot cannot capture; use SMARTS or fixed-period.
            return Err(SimError::Spec(
                "live-point libraries need a non-logging, non-profiling warm-up policy",
            ));
        }
        let t = Instant::now();
        let schedule = Schedule::generate(regimen, total_insts, schedule_seed);
        let mut cpu = Cpu::new(program)?;
        // Microarchitectural state carries over across windows during the
        // build, exactly as `rsr-core`'s sequential sampler warms it; each
        // live-point then snapshots that state, so replay reproduces the
        // build bit for bit without re-warming.
        let mut hier = MemHierarchy::new(machine.hier.clone());
        let mut pred = Predictor::new(machine.pred);
        let mut points = Vec::with_capacity(schedule.len());
        let mut pos = 0u64;

        for &w in schedule.windows() {
            let skip = w.start - pos;
            match policy {
                WarmupPolicy::None => cpu.step_n(skip, |_| ())?,
                WarmupPolicy::Smarts { cache: true, bp: true } => {
                    skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip)?
                }
                WarmupPolicy::Smarts { .. } | WarmupPolicy::FixedPeriod { .. } => {
                    // Partial warming variants: warm everything for the
                    // library (a library should hold the best state).
                    skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip)?
                }
                // Logging/profiling policies were rejected above; if a
                // future variant slips through, fail typed, not by panic.
                _ => {
                    return Err(SimError::Spec(
                        "live-point libraries need a non-logging, non-profiling warm-up policy",
                    ))
                }
            }

            // Scout pass on a clone: find the pages this cluster touches.
            let mut scout = cpu.clone();
            let mut touched: HashSet<u64> = HashSet::new();
            for _ in 0..w.len {
                let r = scout.step()?;
                touched.insert(r.pc / PAGE_BYTES);
                if let Some(m) = r.mem {
                    touched.insert(m.addr / PAGE_BYTES);
                    let end = m.addr + m.width.bytes() - 1;
                    touched.insert(end / PAGE_BYTES);
                }
                if scout.halted() {
                    break;
                }
            }
            // Capture the live pages from the *pre-cluster* state.
            let mut page_nos: Vec<u64> = touched.into_iter().collect();
            page_nos.sort_unstable();
            let pages = page_nos
                .into_iter()
                .map(|p| LivePage {
                    page_no: p,
                    bytes: cpu.mem_mut().read_vec(p * PAGE_BYTES, PAGE_BYTES as usize),
                })
                .collect();

            let arch = cpu.arch_state();
            let point_hier = hier.clone();
            let point_pred = pred.clone();

            // Advance the real machine through the cluster.
            let stats = simulate_cluster(&machine.core, &mut cpu, &mut hier, &mut pred, w.len)?;
            if stats.instructions < w.len {
                return Err(SimError::Exec(rsr_func::ExecError::Halted));
            }
            points.push(LivePoint {
                window: w,
                arch,
                pages,
                hier: point_hier,
                pred: point_pred,
                build_cpi: stats.cycles as f64 / stats.instructions as f64,
            });
            pos = w.end();
        }
        Ok(LivePointLibrary {
            program: program.clone(),
            points,
            build_time: t.elapsed(),
            build_retired: cpu.icount(),
        })
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the library holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points.
    pub fn points(&self) -> &[LivePoint] {
        &self.points
    }

    /// Approximate storage held by the live architectural state (pages +
    /// registers). Microarchitectural snapshots are counted separately by
    /// [`LivePointLibrary::approx_micro_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.pages.iter().map(|pg| pg.bytes.len() + 8).sum::<usize>() + 512)
            .sum()
    }

    /// Approximate storage of the warmed microarchitectural snapshots
    /// (cache tag arrays + predictor tables), assuming a dense encoding.
    pub fn approx_micro_bytes(&self) -> usize {
        // Tags: ~9 bytes/line; PHT: 2 bits/entry; BTB: ~12 bytes/entry.
        let per_point = |p: &LivePoint| {
            let lines = p.hier.l1i.num_sets() * p.hier.l1i.config().assoc
                + p.hier.l1d.num_sets() * p.hier.l1d.config().assoc
                + p.hier.l2.num_sets() * p.hier.l2.config().assoc;
            let pht = p.pred.gshare.num_entries() / 4;
            let btb = p.pred.btb.num_entries() * 12;
            lines * 9 + pht + btb
        };
        self.points.iter().map(per_point).sum()
    }

    /// Replays every sample point: restore, simulate the cluster, collect
    /// per-cluster results. No functional fast-forwarding happens at all.
    ///
    /// # Errors
    ///
    /// Propagates simulation faults (none are expected for a well-formed
    /// library).
    pub fn replay(&self, machine: &MachineConfig) -> Result<ReplayOutcome, SimError> {
        let t = Instant::now();
        let mut cpis = ClusterSample::new();
        let mut ipcs = ClusterSample::new();
        let mut retired = 0;
        for p in &self.points {
            let mut cpu = Cpu::new(&self.program)?;
            cpu.restore_arch(&p.arch);
            for pg in &p.pages {
                cpu.mem_mut().write_slice(pg.page_no * PAGE_BYTES, &pg.bytes);
            }
            let mut hier = p.hier.clone();
            let mut pred = p.pred.clone();
            let stats =
                simulate_cluster(&machine.core, &mut cpu, &mut hier, &mut pred, p.window.len)?;
            cpis.push(stats.cycles as f64 / stats.instructions.max(1) as f64);
            ipcs.push(stats.ipc());
            retired += cpu.icount() - p.arch.icount;
        }
        Ok(ReplayOutcome { cpi_clusters: cpis, ipc_clusters: ipcs, wall: t.elapsed(), retired })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_core::{Pct, RunSpec};
    use rsr_workloads::{Benchmark, WorkloadParams};

    fn program() -> Program {
        Benchmark::Parser.build(&WorkloadParams { scale: 0.05, ..Default::default() })
    }

    fn build_small() -> (LivePointLibrary, MachineConfig) {
        let machine = MachineConfig::paper();
        let lib = LivePointLibrary::build(
            &program(),
            &machine,
            SamplingRegimen::new(6, 500),
            120_000,
            WarmupPolicy::Smarts { cache: true, bp: true },
            9,
        )
        .unwrap();
        (lib, machine)
    }

    #[test]
    fn replay_reproduces_build_results_exactly() {
        let (lib, machine) = build_small();
        assert_eq!(lib.len(), 6);
        let replay = lib.replay(&machine).unwrap();
        for (point, &cpi) in lib.points().iter().zip(replay.cpi_clusters.values()) {
            assert_eq!(point.build_cpi, cpi, "cluster at {}", point.window.start);
        }
    }

    #[test]
    fn replay_matches_direct_sampled_run() {
        // The library built under SMARTS must reproduce the direct sampled
        // run's estimate under the same policy/schedule.
        let machine = MachineConfig::paper();
        let p = program();
        let regimen = SamplingRegimen::new(6, 500);
        let direct = RunSpec::new(&p, &machine)
            .regimen(regimen)
            .total_insts(120_000)
            .policy(WarmupPolicy::Smarts { cache: true, bp: true })
            .seed(9)
            .run()
            .unwrap();
        let lib = LivePointLibrary::build(
            &p,
            &machine,
            regimen,
            120_000,
            WarmupPolicy::Smarts { cache: true, bp: true },
            9,
        )
        .unwrap();
        let replay = lib.replay(&machine).unwrap();
        assert_eq!(direct.cpi_clusters.values(), replay.cpi_clusters.values());
        assert_eq!(direct.est_ipc(), replay.est_ipc());
    }

    #[test]
    fn replay_does_only_the_clusters_work() {
        let (lib, machine) = build_small();
        let replay = lib.replay(&machine).unwrap();
        // Replay retires exactly the clusters and fast-forwards nothing;
        // the build stepped the machine through every skip region too.
        let cluster_insts: u64 = lib.points().iter().map(|p| p.window.len).sum();
        assert_eq!(replay.retired, cluster_insts);
        assert_eq!(lib.build_retired, lib.points().last().unwrap().window.end());
        assert!(
            replay.retired * 10 < lib.build_retired,
            "replay retired {} vs build {}",
            replay.retired,
            lib.build_retired
        );
    }

    #[test]
    fn live_pages_are_a_small_subset() {
        let (lib, _machine) = build_small();
        // parser at scale 0.05 holds ~1MB of data; a 500-instruction
        // cluster touches far fewer pages than that.
        for p in lib.points() {
            assert!(p.live_pages() > 0);
            assert!(p.live_pages() < 200, "{} pages", p.live_pages());
        }
        assert!(lib.approx_bytes() > 0);
        assert!(lib.approx_micro_bytes() > 0);
    }

    #[test]
    fn logging_policies_are_rejected() {
        let machine = MachineConfig::paper();
        let err = LivePointLibrary::build(
            &program(),
            &machine,
            SamplingRegimen::new(4, 500),
            100_000,
            WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            1,
        );
        assert!(err.is_err());
    }
}
