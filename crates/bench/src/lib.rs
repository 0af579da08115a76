//! # rsr-bench — harnesses that regenerate the paper's tables and figures
//!
//! One binary per table/figure (see DESIGN.md §4 for the index):
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — true IPC and sampling regimen per workload |
//! | `table2`   | Table 2 — the warm-up method matrix |
//! | `fig5`     | Figure 5 — cache-only warm-up (R$ vs S$) |
//! | `fig6`     | Figure 6 — branch-predictor-only warm-up (RBP vs SBP) |
//! | `fig7`     | Figure 7 — combined warm-up (None/FP/R$BP/S$BP) |
//! | `fig8`     | Figure 8 — per-benchmark R$BP vs S$BP |
//! | `fig9`     | Figure 9 — SimPoint comparison |
//! | `appendix` | Appendix — confidence tests, RE and time matrices |
//!
//! Environment knobs: `RSR_SCALE` (default 1.0) scales run lengths and
//! cluster counts; `RSR_SEED` (default 42) moves cluster positions;
//! `RSR_BENCH` restricts to a comma-separated benchmark list;
//! `RSR_THREADS` (default 1) shards every sampled run across worker
//! threads — per-cluster results are identical at any thread count, only
//! the wall column moves.
//!
//! ## Reading the time columns
//!
//! Two time metrics are reported:
//!
//! * **wall** — measured wall-clock seconds of this implementation. Our
//!   Rust cache/predictor update path is nearly as cheap as a log append,
//!   so wall-clock speedups of RSR over SMARTS are attenuated relative to
//!   the paper (whose SimpleScalar-based warming was far more expensive
//!   than functional execution). SMARTS warming here skips the I-cache
//!   probe of a fetch that repeats the previous fetch's line, which leaves
//!   every structure's state identical; the wall column does not charge
//!   SMARTS for probes that change nothing.
//! * **model** — the same run costed with the paper's own aggregate cost
//!   structure (derived from its appendix totals: None ≈ 772 s, S$BP ≈
//!   1985 s, R$BP(20%) ≈ 1210 s over the same workloads), i.e. functional
//!   execution at 1 unit/instruction, warm updates at
//!   [`WARM_UPDATE_UNITS`] (`SampleOutcome::warm_updates` still counts one
//!   per fetch, skipped probes included), log appends at
//!   [`LOG_RECORD_UNITS`], and
//!   reconstruction ops at warm cost; hot time is taken as measured. This
//!   shows the algorithmic work reduction RSR achieves independent of host
//!   implementation details.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

mod row;
mod sample_bench;
mod serve_bench;
mod sweep_bench;
pub use sample_bench::{run_bench_matrix, run_bench_sample, to_json_array, BenchSample};
pub use serve_bench::{run_serve_sample, ServeSample};
pub use sweep_bench::{run_sweep_sample, sweep_grid, SweepPoint, SweepSample};

use rsr_core::{FullOutcome, MachineConfig, RunSpec, SampleOutcome, SamplingRegimen, WarmupPolicy};
use rsr_isa::Program;
use rsr_stats::relative_error;
use rsr_workloads::{Benchmark, WorkloadParams};

/// Cost of one functional warm update (cache probe or predictor update) in
/// functional-instruction units, calibrated from the paper's appendix
/// totals (see the crate docs).
pub const WARM_UPDATE_UNITS: f64 = 1.05;

/// Cost of one log append in functional-instruction units (same
/// calibration).
pub const LOG_RECORD_UNITS: f64 = 1.13;

/// An experiment context: scaling, seeds, machine, and caches for
/// programs and true-IPC baselines.
pub struct Experiment {
    /// Run-length/cluster-count scale factor (`RSR_SCALE`).
    pub scale: f64,
    /// Cluster-position seed (`RSR_SEED`).
    pub seed: u64,
    /// Shard worker threads per sampled run (`RSR_THREADS`).
    pub threads: usize,
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Benchmarks to run (`RSR_BENCH` or all nine).
    pub benches: Vec<Benchmark>,
    programs: HashMap<Benchmark, Program>,
    true_cache: HashMap<Benchmark, (f64, f64)>, // ipc, wall seconds
    func_cache: HashMap<Benchmark, f64>,        // seconds per instruction
}

impl Experiment {
    /// Builds an experiment from the environment knobs.
    pub fn from_env() -> Experiment {
        let scale = std::env::var("RSR_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0)
            .clamp(0.001, 100.0);
        let seed = std::env::var("RSR_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42);
        let threads = std::env::var("RSR_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let benches = match std::env::var("RSR_BENCH") {
            Ok(list) => {
                list.split(',').filter_map(|n| Benchmark::from_name(n.trim())).collect::<Vec<_>>()
            }
            Err(_) => Benchmark::ALL.to_vec(),
        };
        let benches = if benches.is_empty() { Benchmark::ALL.to_vec() } else { benches };
        Experiment {
            scale,
            seed,
            threads,
            machine: MachineConfig::paper(),
            benches,
            programs: HashMap::new(),
            true_cache: HashMap::new(),
            func_cache: HashMap::new(),
        }
    }

    /// Total instructions simulated for a benchmark.
    pub fn total_insts(&self, b: Benchmark) -> u64 {
        ((b.default_instructions() as f64 * self.scale) as u64).max(100_000)
    }

    /// The scaled sampling regimen (cluster count scales; cluster length is
    /// a property of the workload's measurement granularity and stays).
    pub fn regimen(&self, b: Benchmark) -> SamplingRegimen {
        let spec = b.default_regimen();
        let n = ((spec.n_clusters as f64 * self.scale) as usize).clamp(8, 4 * spec.n_clusters);
        SamplingRegimen::new(n, spec.cluster_len)
    }

    /// The benchmark's program (built once, full working set).
    pub fn program(&mut self, b: Benchmark) -> &Program {
        self.programs.entry(b).or_insert_with(|| b.build(&WorkloadParams::default()))
    }

    fn cache_path() -> PathBuf {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        PathBuf::from(dir).join("rsr-true-ipc.cache")
    }

    /// True IPC for a benchmark — cached in-process and on disk (keyed by
    /// benchmark, scale, and machine identity) because every figure needs
    /// it and the full cycle-accurate run is the most expensive step.
    pub fn true_ipc(&mut self, b: Benchmark) -> (f64, f64) {
        if let Some(&v) = self.true_cache.get(&b) {
            return v;
        }
        let key = format!("{} {} v3", b.name(), self.total_insts(b));
        // Disk lookup.
        if let Ok(content) = std::fs::read_to_string(Self::cache_path()) {
            for line in content.lines() {
                if let Some(rest) = line.strip_prefix(&key) {
                    let mut it = rest.split_whitespace();
                    if let (Some(ipc), Some(wall)) = (
                        it.next().and_then(|v| v.parse::<f64>().ok()),
                        it.next().and_then(|v| v.parse::<f64>().ok()),
                    ) {
                        self.true_cache.insert(b, (ipc, wall));
                        return (ipc, wall);
                    }
                }
            }
        }
        let total = self.total_insts(b);
        let machine = self.machine.clone();
        let program = self.program(b).clone();
        let out: FullOutcome =
            RunSpec::new(&program, &machine).total_insts(total).run_full().expect("true-IPC run");
        let v = (out.ipc(), out.wall.as_secs_f64());
        self.true_cache.insert(b, v);
        if let Ok(mut f) =
            std::fs::OpenOptions::new().create(true).append(true).open(Self::cache_path())
        {
            let _ = writeln!(f, "{key} {} {}", v.0, v.1);
        }
        v
    }

    /// Pure functional execution speed of a benchmark (seconds per
    /// instruction), measured over a 1 M-instruction cold run and cached.
    pub fn func_speed(&mut self, b: Benchmark) -> f64 {
        if let Some(&s) = self.func_cache.get(&b) {
            return s;
        }
        let program = self.program(b).clone();
        let mut cpu = rsr_func::Cpu::new(&program).expect("program loads");
        let n = 1_000_000u64;
        let t = std::time::Instant::now();
        cpu.run(n).expect("calibration run");
        let s = t.elapsed().as_secs_f64() / n as f64;
        self.func_cache.insert(b, s);
        s
    }

    /// Runs one warm-up policy on one benchmark.
    pub fn run_policy(&mut self, b: Benchmark, policy: WarmupPolicy) -> PolicyResult {
        let total = self.total_insts(b);
        let regimen = self.regimen(b);
        let seed = self.seed;
        let threads = self.threads;
        let machine = self.machine.clone();
        let (true_ipc, _) = self.true_ipc(b);
        let program = self.program(b);
        let outcome = RunSpec::new(program, &machine)
            .regimen(regimen)
            .total_insts(total)
            .policy(policy)
            .seed(seed)
            .threads(threads)
            .run()
            .expect("sampled run");
        PolicyResult::new(outcome, true_ipc)
    }
}

/// One (benchmark, policy) measurement with derived metrics.
#[derive(Clone, Debug)]
pub struct PolicyResult {
    /// The raw sampled-simulation outcome.
    pub outcome: SampleOutcome,
    /// The benchmark's true IPC.
    pub true_ipc: f64,
}

impl PolicyResult {
    fn new(outcome: SampleOutcome, true_ipc: f64) -> PolicyResult {
        PolicyResult { outcome, true_ipc }
    }

    /// Relative error against the true IPC.
    pub fn rel_err(&self) -> f64 {
        relative_error(self.true_ipc, self.outcome.est_ipc())
    }

    /// Does the 95 % confidence interval contain the true IPC?
    pub fn ci_pass(&self) -> bool {
        self.outcome.predicts_true_ipc(self.true_ipc)
    }

    /// Measured elapsed wall-clock seconds. At one thread this equals the
    /// summed phase times; sharded runs finish in less.
    pub fn wall_seconds(&self) -> f64 {
        self.outcome.wall.as_secs_f64()
    }

    /// Paper-cost-structure modeled seconds (see the crate docs).
    ///
    /// `sec_per_inst` is the benchmark's pure functional execution speed
    /// (seconds per instruction), measured once per benchmark with
    /// [`Experiment::func_speed`] and shared across policies so only the
    /// *amount* of work differs between methods.
    pub fn modeled_seconds(&self, sec_per_inst: f64) -> f64 {
        let o = &self.outcome;
        let skipped = o.skipped_insts as f64;
        let warm_updates = o.warm_updates as f64;
        let log_records = o.log_records as f64;
        let recon_ops = (o.recon.mem_scanned * 2 + o.recon.branch_scanned) as f64;
        let units = skipped
            + WARM_UPDATE_UNITS * warm_updates
            + LOG_RECORD_UNITS * log_records
            + WARM_UPDATE_UNITS * recon_ops;
        o.phases.hot.as_secs_f64() + units * sec_per_inst
    }
}

/// Runs every policy on every selected benchmark; returns
/// `results[bench_index][policy_index]`.
pub fn run_matrix(exp: &mut Experiment, policies: &[WarmupPolicy]) -> Vec<Vec<PolicyResult>> {
    let benches = exp.benches.clone();
    benches
        .iter()
        .map(|&b| {
            eprintln!("  running {b} ({} policies)...", policies.len());
            policies.iter().map(|&p| exp.run_policy(b, p)).collect()
        })
        .collect()
}

/// Prints the figure-style summary: average relative error and average
/// wall/modeled simulation times per policy, plus speedup ratios against
/// the policy at `baseline` (the paper's SMARTS column).
pub fn print_summary(
    exp: &mut Experiment,
    title: &str,
    policies: &[WarmupPolicy],
    results: &[Vec<PolicyResult>],
    baseline: usize,
) {
    let benches = exp.benches.clone();
    let speeds: Vec<f64> = benches.iter().map(|&b| exp.func_speed(b)).collect();
    let mut rows = Vec::new();
    for (pi, &policy) in policies.iter().enumerate() {
        let res: Vec<f64> = results.iter().map(|r| r[pi].rel_err()).collect();
        let walls: Vec<f64> = results.iter().map(|r| r[pi].wall_seconds()).collect();
        let models: Vec<f64> =
            results.iter().zip(&speeds).map(|(r, &s)| r[pi].modeled_seconds(s)).collect();
        let base_walls: Vec<f64> = results.iter().map(|r| r[baseline].wall_seconds()).collect();
        let base_models: Vec<f64> =
            results.iter().zip(&speeds).map(|(r, &s)| r[baseline].modeled_seconds(s)).collect();
        let wall_speedup = avg(&base_walls) / avg(&walls).max(1e-12);
        let model_speedup = avg(&base_models) / avg(&models).max(1e-12);
        let passes = results.iter().filter(|r| r[pi].ci_pass()).count();
        rows.push(vec![
            policy.to_string(),
            format!("{:.4}", avg(&res)),
            fmt_secs(avg(&walls)),
            fmt_secs(avg(&models)),
            format!("{wall_speedup:.2}"),
            format!("{model_speedup:.2}"),
            format!("{passes}/{}", results.len()),
        ]);
    }
    print_table(
        title,
        &[
            "method",
            "avg rel err",
            "wall(s)",
            "model(s)",
            "speedup/base wall",
            "speedup/base model",
            "95% CI pass",
        ],
        &rows,
    );
    println!(
        "(speedups are relative to {}; model = paper cost structure, see crate docs)",
        policies[baseline]
    );
}

/// Prints per-benchmark relative errors (appendix-style matrix).
pub fn print_per_bench_re(
    exp: &Experiment,
    title: &str,
    policies: &[WarmupPolicy],
    results: &[Vec<PolicyResult>],
) {
    let mut headers = vec!["method".to_string()];
    headers.extend(exp.benches.iter().map(|b| b.name().to_string()));
    headers.push("AVG".to_string());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for (pi, &policy) in policies.iter().enumerate() {
        let mut row = vec![policy.to_string()];
        let mut res = Vec::new();
        for r in results {
            let e = r[pi].rel_err();
            res.push(e);
            row.push(format!("{e:.4}"));
        }
        row.push(format!("{:.4}", avg(&res)));
        rows.push(row);
    }
    print_table(title, &headers_ref, &rows);
}

/// Prints per-benchmark wall-clock seconds (appendix-style matrix).
pub fn print_per_bench_time(
    exp: &Experiment,
    title: &str,
    policies: &[WarmupPolicy],
    results: &[Vec<PolicyResult>],
) {
    let mut headers = vec!["method".to_string()];
    headers.extend(exp.benches.iter().map(|b| b.name().to_string()));
    headers.push("AVG".to_string());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for (pi, &policy) in policies.iter().enumerate() {
        let mut row = vec![policy.to_string()];
        let mut walls = Vec::new();
        for r in results {
            let w = r[pi].wall_seconds();
            walls.push(w);
            row.push(fmt_secs(w));
        }
        row.push(fmt_secs(avg(&walls)));
        rows.push(row);
    }
    print_table(title, &headers_ref, &rows);
}

/// Formats a `Duration`-like seconds value compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:<w$}", c, w = widths[i] + 2));
            } else {
                out.push_str(&format!("{:>w$}", c, w = widths[i] + 2));
            }
        }
        out
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Mean over a slice (empty ⇒ 0), mirroring `rsr_stats::mean` for harness
/// summaries.
pub fn avg(values: &[f64]) -> f64 {
    rsr_stats::mean(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_core::Pct;

    #[test]
    fn env_defaults() {
        // Note: tests must not depend on the ambient environment beyond
        // the defaults; RSR_* are unset in CI.
        let e = Experiment::from_env();
        assert!(e.scale > 0.0);
        assert_eq!(e.benches.len(), 9);
    }

    #[test]
    fn scaled_quantities_track_scale() {
        let mut e = Experiment::from_env();
        e.scale = 0.1;
        let total = e.total_insts(Benchmark::Mcf);
        let r = e.regimen(Benchmark::Mcf);
        assert!(total < Benchmark::Mcf.default_instructions());
        assert!(r.hot_instructions() * 2 <= total);
    }

    #[test]
    fn policy_run_and_metrics() {
        let mut e = Experiment::from_env();
        e.scale = 0.01; // ~160k instructions: a fast smoke run
        let res = e.run_policy(
            Benchmark::Twolf,
            WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
        );
        assert!(res.outcome.est_ipc() > 0.0);
        assert!(res.rel_err().is_finite());
        assert!(res.wall_seconds() > 0.0);
        assert!(res.modeled_seconds(30e-9) > 0.0);
    }

    #[test]
    fn modeled_seconds_penalizes_warm_work() {
        let mut e = Experiment::from_env();
        e.scale = 0.01;
        let smarts = e.run_policy(Benchmark::Gcc, WarmupPolicy::Smarts { cache: true, bp: true });
        let none = e.run_policy(Benchmark::Gcc, WarmupPolicy::None);
        // Under the paper's cost structure, full warming must cost more
        // than no warm-up for the same schedule (hot time aside, which is
        // also smaller for warmed runs).
        // Compare the skip-side modeled cost only: hot wall time depends on
        // cache warmth and build profile, which is not what this test pins.
        let sp = 30e-9;
        let skip_cost =
            |r: &PolicyResult| r.modeled_seconds(sp) - r.outcome.phases.hot.as_secs_f64();
        assert!(
            skip_cost(&smarts) > skip_cost(&none),
            "warming must cost more modeled skip time than no warm-up"
        );
        assert!(smarts.outcome.warm_updates > 0);
        assert_eq!(none.outcome.warm_updates, 0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(1.5), "1.50");
        assert_eq!(fmt_secs(250.0), "250");
    }
}
