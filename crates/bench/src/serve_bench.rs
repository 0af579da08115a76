//! The service-trajectory emitter behind `rsr bench --serve-smoke`: an
//! in-process [`Daemon`] is started against a scratch cache, a batch of
//! distinct jobs is submitted cold over TCP, then the same batch again —
//! the second pass must be all cache hits, served without simulating and
//! bit-identical to a standalone [`rsr_core::RunSpec`] run of the same
//! spec. The emitted row records cold-vs-cached latency and the daemon's
//! hit/settle counters.

use std::time::Instant;

use rsr_core::{Pct, WarmupPolicy};
use rsr_serve::{request, Daemon, JobSpec, Request, Response, ResultSource, ServeConfig};
use rsr_workloads::{Benchmark, WorkloadParams};

use crate::row::Row;

/// Metrics from one service emission (see [`run_serve_sample`]).
#[derive(Clone, Debug)]
pub struct ServeSample {
    /// Workload every job samples.
    pub bench: &'static str,
    /// Run-length scale factor applied to the default regimen.
    pub scale: f64,
    /// Base schedule seed (job *i* uses `seed + i`).
    pub seed: u64,
    /// Distinct jobs submitted (each twice: cold, then cached).
    pub jobs: usize,
    /// Daemon worker pool size.
    pub workers: usize,
    /// Wall seconds for the cold pass (all jobs computed).
    pub cold_wall_seconds: f64,
    /// Wall seconds for the second pass (all jobs from cache).
    pub cached_wall_seconds: f64,
    /// `cold_wall / cached_wall` — how much the cache buys.
    pub cached_speedup: f64,
    /// Cache hits over total submissions (0.5 when every job repeats once).
    pub hit_rate: f64,
    /// Jobs the daemon computed (from its counters).
    pub completed: u64,
    /// Requests the daemon answered from the cache.
    pub cache_hits: u64,
    /// Every cached IPC matched a fresh standalone run bit-for-bit.
    pub bit_identical: bool,
}

impl ServeSample {
    /// Serializes with a stable key order (no external JSON dependency).
    pub fn to_json(&self) -> String {
        Row::new()
            .str("bench", self.bench)
            .f64("scale", self.scale)
            .raw("seed", self.seed)
            .raw("serve_jobs", self.jobs)
            .raw("serve_workers", self.workers)
            .f64("cold_wall_seconds", self.cold_wall_seconds)
            .f64("cached_wall_seconds", self.cached_wall_seconds)
            .f64("cached_speedup", self.cached_speedup)
            .f64("hit_rate", self.hit_rate)
            .raw("completed", self.completed)
            .raw("cache_hits", self.cache_hits)
            .raw("bit_identical", self.bit_identical)
            .finish()
    }
}

/// The batch of distinct jobs: mcf under R$BP 20 % with consecutive
/// schedule seeds, run lengths scaled like the other bench rows.
fn job_batch(scale: f64, seed: u64, jobs: usize) -> Vec<JobSpec> {
    let bench = Benchmark::Mcf;
    let total = ((bench.default_instructions() as f64 * scale) as u64).max(100_000);
    let spec = bench.default_regimen();
    let n_clusters = ((spec.n_clusters as f64 * scale) as usize).clamp(8, 4 * spec.n_clusters);
    (0..jobs)
        .map(|i| JobSpec {
            n_clusters,
            cluster_len: spec.cluster_len,
            total_insts: total,
            seed: seed + i as u64,
            policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            ..JobSpec::for_bench(bench)
        })
        .collect()
}

fn submit(addr: &str, job: &JobSpec) -> Response {
    request(addr, &Request::Submit { job: job.clone(), wait: true }).expect("daemon reachable")
}

/// Runs the service trajectory: start a daemon on an ephemeral port with
/// a scratch cache, submit `jobs` distinct mcf runs cold, resubmit them
/// all (expecting cache hits), verify one hit bit-for-bit against a
/// standalone run, and drain. Deterministic for fixed `(scale, seed,
/// jobs)` except the timing fields.
pub fn run_serve_sample(scale: f64, seed: u64, jobs: usize) -> ServeSample {
    let scale = scale.clamp(0.001, 100.0);
    let jobs = jobs.max(1);
    let cache_dir =
        std::env::temp_dir().join(format!("rsr-serve-bench-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let daemon = Daemon::start(ServeConfig::new(&cache_dir)).expect("daemon starts");
    let addr = daemon.local_addr().to_string();
    let workers = daemon.workers();
    let batch = job_batch(scale, seed, jobs);

    let t = Instant::now();
    let mut cold_ipcs = Vec::new();
    for job in &batch {
        match submit(&addr, job) {
            Response::Done { source: ResultSource::Computed, est_ipc, .. } => {
                cold_ipcs.push(est_ipc);
            }
            other => panic!("cold submission answered {other:?}"),
        }
    }
    let cold_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut bit_identical = true;
    for (job, &cold_ipc) in batch.iter().zip(&cold_ipcs) {
        match submit(&addr, job) {
            Response::Done { source: ResultSource::CacheHit, est_ipc, .. } => {
                bit_identical &= est_ipc.to_bits() == cold_ipc.to_bits();
            }
            other => panic!("repeat submission answered {other:?}"),
        }
    }
    let cached_wall = t.elapsed().as_secs_f64();

    // One cached result against a fresh standalone run of the same spec:
    // the cache must be transparent, not merely close.
    let program = batch[0].bench.build(&WorkloadParams::default());
    let standalone = rsr_core::RunSpec::from_parts(
        rsr_serve::job_cold_spec(&batch[0], &program),
        rsr_serve::job_detail_spec(&batch[0]),
    )
    .run()
    .expect("standalone reference run");
    bit_identical &= standalone.est_ipc().to_bits() == cold_ipcs[0].to_bits();

    let stats = daemon.drain();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let submissions = (2 * jobs) as f64;
    ServeSample {
        bench: batch[0].bench.name(),
        scale,
        seed,
        jobs,
        workers,
        cold_wall_seconds: cold_wall,
        cached_wall_seconds: cached_wall,
        cached_speedup: cold_wall / cached_wall.max(1e-9),
        hit_rate: stats.cache_hits as f64 / submissions,
        completed: stats.completed,
        cache_hits: stats.cache_hits,
        bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_serve_round_trip_hits_and_matches() {
        let s = run_serve_sample(0.01, 42, 2);
        assert_eq!(s.bench, "mcf");
        assert_eq!(s.jobs, 2);
        assert_eq!(s.completed, 2, "each distinct job computed once");
        assert_eq!(s.cache_hits, 2, "each repeat served from cache");
        assert!((s.hit_rate - 0.5).abs() < 1e-12);
        assert!(s.bit_identical, "cache hits must be bit-identical to fresh runs");
        assert!(s.cold_wall_seconds > 0.0 && s.cached_wall_seconds > 0.0);
    }

    #[test]
    fn emission_is_valid_stable_json() {
        let s = ServeSample {
            bench: "mcf",
            scale: 1.0,
            seed: 42,
            jobs: 3,
            workers: 2,
            cold_wall_seconds: 4.5,
            cached_wall_seconds: 0.009,
            cached_speedup: 500.0,
            hit_rate: 0.5,
            completed: 3,
            cache_hits: 3,
            bit_identical: true,
        };
        let json = s.to_json();
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(!json.contains(",\n}"));
        for key in [
            "bench",
            "scale",
            "seed",
            "serve_jobs",
            "serve_workers",
            "cold_wall_seconds",
            "cached_wall_seconds",
            "cached_speedup",
            "hit_rate",
            "completed",
            "cache_hits",
            "bit_identical",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"hit_rate\": 0.500000"));
    }
}
