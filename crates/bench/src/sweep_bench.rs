//! The design-space sweep emitter behind `rsr bench`'s sweep row and
//! `rsr sweep`: a deterministic grid of machine variants (L1D capacity ×
//! gshare history depth around the paper geometry), run through
//! [`SweepSpec`] so the functional cold pass is paid once, then verified
//! bit-for-bit against standalone [`RunSpec`] runs of the same configs.
//! The emitted row records both the measured wall ratio (sweep vs N
//! independent runs) and the engine's modeled amortization ratio.

use rsr_core::{
    ColdSpec, DetailSpec, MachineConfig, Pct, RunSpec, SamplingRegimen, SweepOutcome, SweepSpec,
    WarmupPolicy,
};
use rsr_workloads::{Benchmark, WorkloadParams};

use crate::row::Row;

/// One point of the sweep grid: a named machine variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Config name carried through to the emitted rows.
    pub name: String,
    /// L1 data cache capacity in KiB.
    pub l1d_kb: u64,
    /// gshare global-history depth in bits.
    pub ghr_bits: u32,
}

impl SweepPoint {
    /// The paper machine with this point's L1D capacity and gshare
    /// history depth substituted.
    pub fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::paper();
        m.hier.l1d.size_bytes = self.l1d_kb * 1024;
        m.pred.ghr_bits = self.ghr_bits;
        m
    }
}

/// L1D capacities swept (KiB), paper geometry (32 KiB) included.
const L1D_KB: [u64; 5] = [8, 16, 32, 64, 128];
/// gshare history depths swept, paper geometry included.
const GHR_BITS: [u32; 4] = [10, 12, 14, 16];

/// The deterministic sweep grid: the first `n` points of the L1D ×
/// GHR-depth product, L1D varying fastest so even small sweeps cover the
/// cache axis. `n = 20` is the full product.
pub fn sweep_grid(n: usize) -> Vec<SweepPoint> {
    (0..n.clamp(1, L1D_KB.len() * GHR_BITS.len()))
        .map(|i| {
            let l1d_kb = L1D_KB[i % L1D_KB.len()];
            let ghr_bits = GHR_BITS[(i / L1D_KB.len()) % GHR_BITS.len()];
            SweepPoint { name: format!("l1d{l1d_kb}k-ghr{ghr_bits}"), l1d_kb, ghr_bits }
        })
        .collect()
}

/// Metrics from one sweep emission (see [`run_sweep_sample`]).
#[derive(Clone, Debug)]
pub struct SweepSample {
    /// Workload the sweep sampled.
    pub bench: &'static str,
    /// Run-length scale factor applied to the default regimen.
    pub scale: f64,
    /// Schedule seed.
    pub seed: u64,
    /// Detailed configs fanned out from the one cold pass.
    pub sweep_configs: usize,
    /// Configs replayed concurrently per captured window (resolved).
    pub replay_threads: usize,
    /// Total instructions in the sampled run.
    pub total_insts: u64,
    /// Cluster count and length of the regimen.
    pub clusters: usize,
    /// Instructions per cluster.
    pub cluster_len: u64,
    /// IPC estimate of the paper-geometry config (32 KiB L1D, 12-bit GHR).
    pub est_ipc: f64,
    /// Smallest IPC estimate across the swept configs.
    pub est_ipc_min: f64,
    /// Largest IPC estimate across the swept configs.
    pub est_ipc_max: f64,
    /// Records captured by the shared cold pass (per config; identical).
    pub log_records: u64,
    /// Busy seconds of the shared functional cold pass
    /// (`SweepOutcome::cold_wall`), overlapped with the replay.
    pub cold_seconds: f64,
    /// Seconds of detailed replay per swept config — the marginal cost
    /// of adding one more configuration to the sweep: the mean of the
    /// configs' own replay times (`SampleOutcome::wall`). Tracks the
    /// detailed-window kernels (cache hierarchy + predictor +
    /// reconstruction) in isolation from the amortized cold pass, which
    /// runs on its own thread under the replay.
    pub detail_seconds_per_config: f64,
    /// End-to-end wall seconds of the sweep (cold pass + all replays).
    pub sweep_wall_seconds: f64,
    /// Summed wall seconds of the N standalone runs of the same configs.
    pub standalone_wall_seconds: f64,
    /// Measured `sweep_wall / standalone_wall` (< 1 means the sweep won).
    pub wall_ratio: f64,
    /// The engine's modeled amortization ratio (cold pass counted once vs
    /// once per config over the same replay time).
    pub amortization: f64,
    /// Per-window index requests served from the sweep's shared memo
    /// instead of a rebuild (`SweepOutcome::index_builds_shared`).
    pub index_builds_shared: u64,
    /// Every config's est_ipc and log_records matched its standalone run.
    pub bit_identical: bool,
}

impl SweepSample {
    /// Serializes with a stable key order (no external JSON dependency).
    pub fn to_json(&self) -> String {
        Row::new()
            .str("bench", self.bench)
            .f64("scale", self.scale)
            .raw("seed", self.seed)
            .raw("sweep_configs", self.sweep_configs)
            .raw("replay_threads", self.replay_threads)
            .raw("total_insts", self.total_insts)
            .raw("clusters", self.clusters)
            .raw("cluster_len", self.cluster_len)
            .f64("est_ipc", self.est_ipc)
            .f64("est_ipc_min", self.est_ipc_min)
            .f64("est_ipc_max", self.est_ipc_max)
            .raw("log_records", self.log_records)
            .f64("cold_seconds", self.cold_seconds)
            .f64("detail_seconds_per_config", self.detail_seconds_per_config)
            .f64("sweep_wall_seconds", self.sweep_wall_seconds)
            .f64("standalone_wall_seconds", self.standalone_wall_seconds)
            .f64("wall_ratio", self.wall_ratio)
            .f64("amortization", self.amortization)
            .raw("index_builds_shared", self.index_builds_shared)
            .raw("bit_identical", self.bit_identical)
            .finish()
    }
}

/// The policy every sweep config runs: full RSR at the paper's 20 %.
fn sweep_policy() -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
}

/// Runs the sweep trajectory: mcf under R$BP 20 % across the first
/// `n_configs` grid points, one cold pass fanned across all of them, then
/// the same configs as standalone runs for the wall-time comparison and
/// the bit-identity check. Deterministic for fixed `(scale, seed,
/// n_configs)` except the timing fields.
pub fn run_sweep_sample(
    scale: f64,
    seed: u64,
    n_configs: usize,
    replay_threads: usize,
) -> SweepSample {
    let bench = Benchmark::Mcf;
    let scale = scale.clamp(0.001, 100.0);
    let program = bench.build(&WorkloadParams::default());
    let total = ((bench.default_instructions() as f64 * scale) as u64).max(100_000);
    let spec = bench.default_regimen();
    let n_clusters = ((spec.n_clusters as f64 * scale) as usize).clamp(8, 4 * spec.n_clusters);
    let regimen = SamplingRegimen::new(n_clusters, spec.cluster_len);
    let grid = sweep_grid(n_configs);

    let mut sweep =
        SweepSpec::new(ColdSpec::new(&program).regimen(regimen).total_insts(total).seed(seed))
            .replay_threads(replay_threads);
    for point in &grid {
        sweep = sweep
            .config(point.name.clone(), DetailSpec::new(&point.machine()).policy(sweep_policy()));
    }
    let out: SweepOutcome = sweep.run().expect("sweep run");

    // The comparison: the same configs as independent runs, each paying
    // its own cold pass. Also the bit-identity oracle.
    let mut standalone_wall = 0.0;
    let mut bit_identical = true;
    for (point, got) in grid.iter().zip(&out.configs) {
        let machine = point.machine();
        let alone = RunSpec::new(&program, &machine)
            .regimen(regimen)
            .total_insts(total)
            .policy(sweep_policy())
            .seed(seed)
            .run()
            .expect("standalone reference run");
        standalone_wall += alone.wall.as_secs_f64();
        bit_identical &= alone.est_ipc() == got.outcome.est_ipc()
            && alone.log_records == got.outcome.log_records;
    }

    let paper = grid.iter().position(|p| p.l1d_kb == 32 && p.ghr_bits == 12).unwrap_or(0);
    let ipcs: Vec<f64> = out.configs.iter().map(|c| c.outcome.est_ipc()).collect();
    let sweep_wall = out.wall.as_secs_f64();
    SweepSample {
        bench: bench.name(),
        scale,
        seed,
        sweep_configs: grid.len(),
        replay_threads: out.replay_threads,
        total_insts: total,
        clusters: n_clusters,
        cluster_len: spec.cluster_len,
        est_ipc: ipcs[paper],
        est_ipc_min: ipcs.iter().cloned().fold(f64::INFINITY, f64::min),
        est_ipc_max: ipcs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        log_records: out.configs[0].outcome.log_records,
        cold_seconds: out.cold_wall.as_secs_f64(),
        detail_seconds_per_config: out
            .configs
            .iter()
            .map(|c| c.outcome.wall.as_secs_f64())
            .sum::<f64>()
            / out.configs.len().max(1) as f64,
        sweep_wall_seconds: sweep_wall,
        standalone_wall_seconds: standalone_wall,
        wall_ratio: sweep_wall / standalone_wall.max(1e-9),
        amortization: out.amortization(),
        index_builds_shared: out.index_builds_shared,
        bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_covers_both_axes() {
        let g = sweep_grid(20);
        assert_eq!(g.len(), 20);
        assert_eq!(g, sweep_grid(20));
        assert!(g.iter().any(|p| p.l1d_kb == 8) && g.iter().any(|p| p.l1d_kb == 128));
        assert!(g.iter().any(|p| p.ghr_bits == 10) && g.iter().any(|p| p.ghr_bits == 16));
        assert!(g.iter().any(|p| p.l1d_kb == 32 && p.ghr_bits == 12), "paper point present");
        // Names are unique — they key the emitted rows.
        let mut names: Vec<_> = g.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        // Small sweeps still vary the cache axis, and the grid clamps
        // rather than repeating points.
        assert_eq!(sweep_grid(3).iter().map(|p| p.l1d_kb).collect::<Vec<_>>(), [8, 16, 32]);
        assert_eq!(sweep_grid(100).len(), 20);
    }

    #[test]
    fn point_machine_applies_the_variant() {
        let m = SweepPoint { name: "x".into(), l1d_kb: 8, ghr_bits: 15 }.machine();
        assert_eq!(m.hier.l1d.size_bytes, 8 * 1024);
        assert_eq!(m.pred.ghr_bits, 15);
        // Only the swept axes move; the rest stays paper geometry.
        let paper = MachineConfig::paper();
        assert_eq!(m.hier.l2.size_bytes, paper.hier.l2.size_bytes);
        assert_eq!(m.pred.btb_entries, paper.pred.btb_entries);
    }

    #[test]
    fn smoke_scale_sweep_is_bit_identical_and_amortized() {
        let s = run_sweep_sample(0.01, 42, 3, 1);
        assert_eq!(s.bench, "mcf");
        assert_eq!(s.sweep_configs, 3);
        assert_eq!(s.replay_threads, 1);
        assert!(s.bit_identical, "sweep outcomes must match standalone runs");
        assert!(s.index_builds_shared > 0, "a 3-config grid must share indexes");
        assert!(s.est_ipc_min <= s.est_ipc && s.est_ipc <= s.est_ipc_max);
        assert!(s.log_records > 0);
        assert!(s.cold_seconds > 0.0 && s.sweep_wall_seconds >= s.cold_seconds);
        assert!(s.detail_seconds_per_config >= 0.0 && s.detail_seconds_per_config.is_finite());
        assert!(s.amortization < 1.0, "modeled ratio must amortize the cold pass");
        assert!(s.wall_ratio > 0.0 && s.wall_ratio.is_finite());
    }

    #[test]
    fn emission_is_valid_stable_json() {
        let s = SweepSample {
            bench: "mcf",
            scale: 1.0,
            seed: 42,
            sweep_configs: 20,
            replay_threads: 2,
            total_insts: 8_000_000,
            clusters: 60,
            cluster_len: 3000,
            est_ipc: 0.5,
            est_ipc_min: 0.4,
            est_ipc_max: 0.6,
            log_records: 1234,
            cold_seconds: 1.0,
            detail_seconds_per_config: 0.35,
            sweep_wall_seconds: 8.0,
            standalone_wall_seconds: 28.0,
            wall_ratio: 8.0 / 28.0,
            amortization: 0.3,
            index_builds_shared: 120,
            bit_identical: true,
        };
        let json = s.to_json();
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(!json.contains(",\n}"));
        for key in [
            "bench",
            "scale",
            "seed",
            "sweep_configs",
            "replay_threads",
            "total_insts",
            "clusters",
            "cluster_len",
            "est_ipc",
            "est_ipc_min",
            "est_ipc_max",
            "log_records",
            "cold_seconds",
            "detail_seconds_per_config",
            "sweep_wall_seconds",
            "standalone_wall_seconds",
            "wall_ratio",
            "amortization",
            "index_builds_shared",
            "bit_identical",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"wall_ratio\": 0.285714"));
    }
}
