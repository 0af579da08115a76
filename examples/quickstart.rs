//! Quickstart: sample a workload with Reverse State Reconstruction and
//! compare the estimate against a full cycle-accurate run.
//!
//! ```sh
//! cargo run --release -p rsr-examples --example quickstart
//! ```

use rsr_core::{MachineConfig, Pct, RunSpec, SamplingRegimen, WarmupPolicy};
use rsr_examples::{banner, secs};
use rsr_stats::relative_error;
use rsr_workloads::{Benchmark, WorkloadParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("RSR quickstart: twolf, 2M instructions");

    // 1. Build a synthetic workload (a SPEC2000 `300.twolf` analog).
    let program = Benchmark::Twolf.build(&WorkloadParams::default());
    let machine = MachineConfig::paper();
    let total = 2_000_000;

    // 2. The expensive way: full cycle-accurate simulation.
    let truth = RunSpec::new(&program, &machine).total_insts(total).run_full()?;
    println!(
        "full simulation: IPC {:.4} in {} ({} cycles)",
        truth.ipc(),
        secs(truth.wall),
        truth.stats.cycles
    );

    // 3. The sampled way: 20 clusters of 2000 instructions, warmed by
    //    Reverse State Reconstruction. A 100% budget lets the reverse scan
    //    consume as much of the log as it needs — it still stops early once
    //    every cache set is rebuilt (use 20% for the paper's speed sweet
    //    spot on long skip regions).
    let policy = WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(100) };
    let sampled = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(20, 2000))
        .total_insts(total)
        .policy(policy)
        .seed(42)
        .run()?;

    println!(
        "sampled ({policy}):  IPC {:.4} ± {:.4} in {} (hot {} / cold {} / warm {})",
        sampled.est_ipc(),
        sampled.ipc_error_bound_95(),
        secs(sampled.wall),
        secs(sampled.phases.hot),
        secs(sampled.phases.cold),
        secs(sampled.phases.warm),
    );
    println!(
        "relative error {:.2}% | speedup {:.1}x | {} hot instructions instead of {}",
        100.0 * relative_error(truth.ipc(), sampled.est_ipc()),
        truth.wall.as_secs_f64() / sampled.wall.as_secs_f64(),
        sampled.hot_insts,
        total
    );
    println!(
        "reconstruction work: {} cache blocks placed, {} log records kept (peak {} KiB)",
        sampled.recon.cache_inserted,
        sampled.log_records,
        sampled.log_bytes_peak / 1024
    );
    Ok(())
}
