//! Simpoint selection and simulation.

use std::time::Instant;

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_core::{skip_with_smarts_warming, MachineConfig, PhaseTimes, SimError};
use rsr_func::Cpu;
use rsr_isa::Program;
use rsr_timing::simulate_cluster;

use crate::{kmeans, profile_bbvs, project};

/// SimPoint configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SimpointConfig {
    /// Interval size in instructions (the paper compares 50 K and 10 M,
    /// scaled down here with everything else).
    pub interval_len: u64,
    /// Maximum number of simulation points (the paper uses 30).
    pub max_k: usize,
    /// Random-projection dimensionality (SimPoint uses 15).
    pub proj_dims: usize,
    /// k-means restarts.
    pub restarts: usize,
    /// Seed for projection and clustering.
    pub seed: u64,
    /// Apply SMARTS functional warming while fast-forwarding between
    /// simulation points (the paper's `-SMARTS` variants).
    pub warm: bool,
}

impl SimpointConfig {
    /// A sensible default mirroring SimPoint v3.2's common settings.
    pub fn new(interval_len: u64) -> SimpointConfig {
        SimpointConfig {
            interval_len,
            max_k: 30,
            proj_dims: 15,
            restarts: 3,
            seed: 0x51a9,
            warm: false,
        }
    }
}

/// One selected simulation point.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Simpoint {
    /// Index of the chosen interval.
    pub interval: usize,
    /// Fraction of intervals its cluster represents.
    pub weight: f64,
}

/// The offline analysis: chosen simulation points with weights.
#[derive(Clone, Debug, PartialEq)]
pub struct SimpointAnalysis {
    /// Selected points, sorted by interval index.
    pub points: Vec<Simpoint>,
    /// Number of profiled intervals.
    pub n_intervals: usize,
    /// Interval length used.
    pub interval_len: u64,
}

/// Profiles `program` and selects simulation points (BBV → random
/// projection → k-means → centroid-nearest interval per cluster).
///
/// # Errors
///
/// Propagates functional-simulation faults from profiling.
pub fn analyze(
    program: &Program,
    total_insts: u64,
    cfg: &SimpointConfig,
) -> Result<SimpointAnalysis, SimError> {
    let intervals = profile_bbvs(program, total_insts, cfg.interval_len).map_err(SimError::Exec)?;
    assert!(!intervals.is_empty(), "no intervals profiled");
    let data = project(&intervals, cfg.proj_dims, cfg.seed);
    let clustering = kmeans(&data, cfg.max_k, cfg.restarts, cfg.seed);

    let mut points = Vec::with_capacity(clustering.k());
    let n = data.len();
    for c in 0..clustering.k() {
        let members = clustering.members(c);
        if members.is_empty() {
            continue;
        }
        let centroid = &clustering.centroids[c];
        let nearest = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let da: f64 = data[a].iter().zip(centroid).map(|(x, y)| (x - y) * (x - y)).sum();
                let db: f64 = data[b].iter().zip(centroid).map(|(x, y)| (x - y) * (x - y)).sum();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("nonempty cluster");
        points.push(Simpoint { interval: nearest, weight: members.len() as f64 / n as f64 });
    }
    points.sort_by_key(|p| p.interval);
    Ok(SimpointAnalysis { points, n_intervals: n, interval_len: cfg.interval_len })
}

/// Result of simulating the chosen points.
#[derive(Clone, Debug)]
pub struct SimpointOutcome {
    /// Weighted IPC estimate.
    pub est_ipc: f64,
    /// Per-point IPCs in interval order.
    pub point_ipcs: Vec<f64>,
    /// Wall-clock phase breakdown (profiling is *not* included — the paper
    /// treats it as offline).
    pub phases: PhaseTimes,
    /// Hot instructions simulated.
    pub hot_insts: u64,
}

/// Simulates the selected points: fast-forward to each (optionally with
/// SMARTS warming), simulate one interval cycle-accurately, and combine
/// IPCs by cluster weight.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn simulate(
    program: &Program,
    machine: &MachineConfig,
    analysis: &SimpointAnalysis,
    cfg: &SimpointConfig,
) -> Result<SimpointOutcome, SimError> {
    let mut cpu = Cpu::new(program)?;
    let mut hier = MemHierarchy::new(machine.hier.clone());
    let mut pred = Predictor::new(machine.pred);
    let mut phases = PhaseTimes::default();
    let mut est = 0.0f64;
    let mut point_ipcs = Vec::with_capacity(analysis.points.len());
    let mut hot_insts = 0u64;
    let mut pos = 0u64;

    for p in &analysis.points {
        let start = p.interval as u64 * analysis.interval_len;
        let skip = start - pos;
        let t = Instant::now();
        if cfg.warm {
            skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip)
                .map_err(SimError::Exec)?;
            phases.warm += t.elapsed();
        } else {
            cpu.step_n(skip, |_| ()).map_err(SimError::Exec)?;
            phases.cold += t.elapsed();
        }
        let t = Instant::now();
        let stats =
            simulate_cluster(&machine.core, &mut cpu, &mut hier, &mut pred, analysis.interval_len)
                .map_err(SimError::Exec)?;
        phases.hot += t.elapsed();
        hot_insts += stats.instructions;
        point_ipcs.push(stats.ipc());
        est += p.weight * stats.ipc();
        pos = start + analysis.interval_len;
    }
    Ok(SimpointOutcome { est_ipc: est, point_ipcs, phases, hot_insts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_workloads::{Benchmark, WorkloadParams};

    fn cfg(interval: u64) -> SimpointConfig {
        SimpointConfig { max_k: 6, restarts: 2, ..SimpointConfig::new(interval) }
    }

    #[test]
    fn weights_sum_to_one() {
        let p = Benchmark::Gcc.build(&WorkloadParams { scale: 0.05, ..Default::default() });
        let a = analyze(&p, 100_000, &cfg(5_000)).unwrap();
        let sum: f64 = a.points.iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
        assert!(!a.points.is_empty() && a.points.len() <= 6);
        // Points sorted by interval for single-pass simulation.
        assert!(a.points.windows(2).all(|w| w[0].interval < w[1].interval));
    }

    #[test]
    fn analysis_is_deterministic() {
        let p = Benchmark::Twolf.build(&WorkloadParams { scale: 0.05, ..Default::default() });
        let a = analyze(&p, 80_000, &cfg(4_000)).unwrap();
        let b = analyze(&p, 80_000, &cfg(4_000)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn simulation_estimates_ipc() {
        let machine = MachineConfig::paper();
        let p = Benchmark::Twolf.build(&WorkloadParams { scale: 0.05, ..Default::default() });
        let c = cfg(4_000);
        let a = analyze(&p, 80_000, &c).unwrap();
        let out = simulate(&p, &machine, &a, &c).unwrap();
        assert!(out.est_ipc > 0.0);
        assert_eq!(out.point_ipcs.len(), a.points.len());
        assert_eq!(out.hot_insts, a.points.len() as u64 * 4_000);
    }

    #[test]
    fn warming_variant_runs() {
        let machine = MachineConfig::paper();
        let p = Benchmark::Mcf.build(&WorkloadParams { scale: 0.02, ..Default::default() });
        let c = SimpointConfig { warm: true, ..cfg(4_000) };
        let a = analyze(&p, 80_000, &c).unwrap();
        let cold_cfg = SimpointConfig { warm: false, ..c };
        let cold = simulate(&p, &machine, &a, &cold_cfg).unwrap();
        let warm = simulate(&p, &machine, &a, &c).unwrap();
        // Warming while skipping must not *hurt* the estimate dramatically;
        // for an L2-hostile pointer chase it should raise measured IPC
        // accuracy (warm caches -> different IPC than cold-start bias).
        assert_ne!(cold.est_ipc, warm.est_ipc);
        assert!(warm.phases.warm > std::time::Duration::ZERO);
    }
}
