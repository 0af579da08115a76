//! The `rsr` binary: see [`rsr_cli::USAGE`].

use std::process::ExitCode;
use std::time::Duration;

use rsr_ckpt::LivePointLibrary;
use rsr_cli::{parse, CliError, Command, ServiceError, SubmitAction};
use rsr_core::{ColdSpec, DetailSpec, MachineConfig, RunSpec, SamplingRegimen, SweepSpec};
use rsr_func::Cpu;
use rsr_serve::{Daemon, JobSpec, Request, Response, ServeConfig};
use rsr_simpoint::{analyze, simulate, SimpointConfig};
use rsr_workloads::{Benchmark, WorkloadParams};

/// `println!` that exits quietly when stdout's reader has gone away
/// (`rsr ... | head` closes the pipe mid-stream), matching the SIGPIPE
/// convention instead of panicking.
macro_rules! outln {
    ($($t:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($t)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(CliError::from(e).exit_code());
        }
    };
    match execute(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Display already folds each error's source chain into one
            // line; the exit code carries the class for scripts.
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn build(bench: Benchmark) -> rsr_isa::Program {
    bench.build(&WorkloadParams::default())
}

/// One request/response exchange with a daemon for `rsr submit`.
fn submit(addr: &str, action: SubmitAction) -> Result<(), CliError> {
    let req = match action {
        SubmitAction::Stats => Request::Stats,
        SubmitAction::Drain => Request::Drain,
        SubmitAction::Job {
            bench,
            policy,
            clusters,
            len,
            n,
            seed,
            l1d_kb,
            ghr_bits,
            shard_span,
            log_budget,
            deadline_ms,
            no_wait,
        } => Request::Submit {
            job: JobSpec {
                bench,
                n_clusters: clusters,
                cluster_len: len,
                total_insts: n,
                seed,
                policy,
                l1d_kb,
                ghr_bits,
                shard_span,
                log_budget,
                deadline_ms,
            },
            wait: !no_wait,
        },
    };
    let response = rsr_serve::request(addr, &req)
        .map_err(|e| CliError::Service(ServiceError::Unavailable(e.to_string())))?;
    match response {
        Response::Done {
            hash,
            source,
            attempts,
            est_ipc,
            ipc_err,
            clusters,
            clusters_degraded,
            log_records,
        } => {
            outln!(
                "{hash:016x} {}: IPC {est_ipc:.4} ± {ipc_err:.4} (95% CI), {clusters} clusters, \
                 {} record{}, {attempts} attempt{}",
                source.as_str(),
                log_records,
                if log_records == 1 { "" } else { "s" },
                if attempts == 1 { "" } else { "s" }
            );
            if clusters_degraded > 0 {
                outln!(
                    "guards: {clusters_degraded} cluster{} degraded to stale-state warmup",
                    if clusters_degraded == 1 { "" } else { "s" }
                );
            }
        }
        Response::Queued { hash } => outln!("queued {hash:016x}"),
        Response::Draining { settled } => outln!("daemon drained; {settled} jobs settled"),
        Response::Stats(stats) => {
            for (key, value) in stats.rows() {
                outln!("{key:<12} {value}");
            }
        }
        Response::Overloaded { inflight, limit } => {
            return Err(CliError::Service(ServiceError::Overloaded { inflight, limit }))
        }
        Response::Failed { class, message, attempts, .. } => {
            return Err(CliError::Job { class, message, attempts })
        }
        Response::Error { message } => {
            return Err(CliError::Service(ServiceError::Rejected(message)))
        }
    }
    Ok(())
}

fn execute(cmd: Command) -> Result<(), CliError> {
    let machine = MachineConfig::paper();
    match cmd {
        Command::List => {
            outln!(
                "{:<8} {:>4} {:>9} {:>12} {:>12}",
                "name",
                "fp",
                "clusters",
                "cluster len",
                "default n"
            );
            for b in Benchmark::ALL {
                let r = b.default_regimen();
                outln!(
                    "{:<8} {:>4} {:>9} {:>12} {:>12}",
                    b.name(),
                    if b.is_fp() { "yes" } else { "no" },
                    r.n_clusters,
                    r.cluster_len,
                    b.default_instructions()
                );
            }
        }
        Command::Disasm { bench, head } => {
            let p = build(bench);
            for line in p.disassemble().lines().take(head) {
                outln!("{line}");
            }
            outln!("... ({} instructions, {} bytes of data)", p.text().len(), p.data().len());
        }
        Command::Trace { bench, n } => {
            let p = build(bench);
            let mut cpu = Cpu::new(&p)?;
            for _ in 0..n {
                let r = cpu.step()?;
                let mem = r
                    .mem
                    .map(|m| format!(" [{} {:#x}]", if m.is_store { "st" } else { "ld" }, m.addr))
                    .unwrap_or_default();
                let br = r
                    .branch
                    .map(|b| format!(" <{} {}>", if b.taken { "T" } else { "N" }, b.target))
                    .unwrap_or_default();
                outln!("{:>8}  {:#010x}  {}{}{}", r.seq, r.pc, r.inst, mem, br);
            }
        }
        Command::Run { bench, n } => {
            let p = build(bench);
            let out = RunSpec::new(&p, &machine).total_insts(n).run_full()?;
            outln!(
                "{bench}: IPC {:.4} over {} instructions ({} cycles, {} mispredicts, {:.2}s wall)",
                out.ipc(),
                out.stats.instructions,
                out.stats.cycles,
                out.stats.full_mispredicts,
                out.wall.as_secs_f64()
            );
        }
        Command::Sample {
            bench,
            policy,
            clusters,
            len,
            n,
            seed,
            pipeline_depth,
            log_budget,
            deadline_secs,
        } => {
            let p = build(bench);
            let mut spec = RunSpec::new(&p, &machine)
                .regimen(SamplingRegimen::new(clusters, len))
                .total_insts(n)
                .policy(policy)
                .seed(seed)
                .pipeline_depth(pipeline_depth);
            let depth = spec.resolved_pipeline_depth();
            if let Some(b) = log_budget {
                spec = spec.log_budget_bytes(b);
            }
            if let Some(s) = deadline_secs {
                spec = spec.deadline(Duration::from_secs(s));
            }
            let out = spec.run()?;
            outln!(
                "{bench} under {policy}: IPC {:.4} ± {:.4} (95% CI), {} clusters",
                out.est_ipc(),
                out.ipc_error_bound_95(),
                out.clusters.len()
            );
            if out.clusters_degraded > 0 {
                outln!(
                    "guards: {} cluster{} degraded to stale-state warmup",
                    out.clusters_degraded,
                    if out.clusters_degraded == 1 { "" } else { "s" }
                );
            }
            outln!(
                "phases: hot {:.3}s, cold {:.3}s, warm {:.3}s | hot insts {} | log peak {} KiB",
                out.phases.hot.as_secs_f64(),
                out.phases.cold.as_secs_f64(),
                out.phases.warm.as_secs_f64(),
                out.hot_insts,
                out.log_bytes_peak / 1024
            );
            outln!(
                "wall: {:.3}s, pipeline depth {}{}",
                out.wall.as_secs_f64(),
                depth,
                if depth > 1 {
                    format!(" ({:.0}% of busy time overlapped)", 100.0 * out.overlap_efficiency())
                } else {
                    String::new()
                }
            );
        }
        Command::Sweep { bench, configs, policy, clusters, len, n, seed, replay_threads, out } => {
            let p = build(bench);
            let grid = rsr_bench::sweep_grid(configs);
            let mut sweep = SweepSpec::new(
                ColdSpec::new(&p)
                    .regimen(SamplingRegimen::new(clusters, len))
                    .total_insts(n)
                    .seed(seed),
            )
            .replay_threads(replay_threads);
            for point in &grid {
                sweep = sweep
                    .config(point.name.clone(), DetailSpec::new(&point.machine()).policy(policy));
            }
            let outcome = sweep.run()?;
            let amortization = outcome.amortization();
            // One JSON row per config; the amortization ratio is a
            // property of the whole sweep, repeated on each row so rows
            // stay self-describing when split apart.
            let mut rows = String::new();
            for (point, c) in grid.iter().zip(&outcome.configs) {
                let o = &c.outcome;
                let r = &o.recon;
                rows.push_str(&format!(
                    "{{\"name\": \"{}\", \"l1d_kb\": {}, \"ghr_bits\": {}, \
                     \"est_ipc\": {:.6}, \"ipc_ci_95\": {:.6}, \"clusters\": {}, \
                     \"log_records\": {}, \"mem_scanned\": {}, \"cache_inserted\": {}, \
                     \"cache_marked\": {}, \"branch_scanned\": {}, \"pht_exact\": {}, \
                     \"pht_guessed\": {}, \"pht_stale\": {}, \"btb_reconstructed\": {}, \
                     \"clusters_degraded\": {}, \"amortization\": {:.6}}}\n",
                    c.name,
                    point.l1d_kb,
                    point.ghr_bits,
                    o.est_ipc(),
                    o.ipc_error_bound_95(),
                    o.clusters.len(),
                    o.log_records,
                    r.mem_scanned,
                    r.cache_inserted,
                    r.cache_marked,
                    r.branch_scanned,
                    r.pht_exact,
                    r.pht_guessed,
                    r.pht_stale,
                    r.btb_reconstructed,
                    o.clusters_degraded,
                    amortization,
                ));
            }
            let summary = format!(
                "{bench} sweep: {} configs from one cold pass ({:.3}s cold, {:.3}s total, \
                 amortization {:.2})",
                outcome.configs.len(),
                outcome.cold_wall.as_secs_f64(),
                outcome.wall.as_secs_f64(),
                amortization
            );
            match out {
                Some(path) => {
                    std::fs::write(&path, &rows).map_err(|e| {
                        CliError::Usage(rsr_cli::UsageError(format!("cannot write {path}: {e}")))
                    })?;
                    outln!("wrote {path}: {summary}");
                }
                None => {
                    // Rows on stdout (machine-readable), summary aside.
                    outln!("{}", rows.trim_end());
                    eprintln!("{summary}");
                }
            }
        }
        Command::Bench {
            scale,
            seed,
            pipeline_depth,
            replay_threads,
            sweep_configs,
            sweep_smoke,
            serve_smoke,
            out,
        } => {
            // Depth 0 (the default) benchmarks the whole pipeline matrix —
            // depth 1 plus the auto depth, when they differ — as a JSON
            // array; an explicit depth emits that one configuration as a
            // single object (the pre-matrix shape). Requested sweep and
            // service rows ride along at the end of the array.
            let samples = if pipeline_depth == 0 {
                rsr_bench::run_bench_matrix(scale, seed)
            } else {
                vec![rsr_bench::run_bench_sample(scale, seed, pipeline_depth)]
            };
            let sweep_n = if sweep_configs > 0 {
                sweep_configs
            } else if sweep_smoke {
                4
            } else {
                0
            };
            let sweep_row = (sweep_n > 0)
                .then(|| rsr_bench::run_sweep_sample(scale, seed, sweep_n, replay_threads));
            let serve_row = serve_smoke.then(|| rsr_bench::run_serve_sample(scale, seed, 2));
            let extras: Vec<String> = sweep_row
                .iter()
                .map(rsr_bench::SweepSample::to_json)
                .chain(serve_row.iter().map(rsr_bench::ServeSample::to_json))
                .collect();
            let json = if extras.is_empty() {
                if pipeline_depth != 0 {
                    samples[0].to_json()
                } else {
                    rsr_bench::to_json_array(&samples)
                }
            } else {
                let objects: Vec<String> =
                    samples.iter().map(rsr_bench::BenchSample::to_json).chain(extras).collect();
                let mut s = String::from("[\n");
                for (i, o) in objects.iter().enumerate() {
                    s.push_str(o.trim_end());
                    s.push_str(if i + 1 < objects.len() { ",\n" } else { "\n" });
                }
                s.push_str("]\n");
                s
            };
            let sample = &samples[0];
            match out {
                Some(path) => {
                    std::fs::write(&path, &json).map_err(|e| {
                        CliError::Usage(rsr_cli::UsageError(format!("cannot write {path}: {e}")))
                    })?;
                    outln!(
                        "wrote {path}: {} IPC {:.4}, cold {:.1} MIPS, recon {:.1} ns/record, \
                         log peak {} KiB",
                        sample.bench,
                        sample.est_ipc,
                        sample.cold_mips,
                        sample.recon_ns_per_record,
                        sample.log_bytes_peak / 1024
                    );
                    if let Some(row) = &sweep_row {
                        outln!(
                            "  sweep row: {} configs, wall ratio {:.3} vs standalone, \
                             amortization {:.3}, bit-identical {}",
                            row.sweep_configs,
                            row.wall_ratio,
                            row.amortization,
                            row.bit_identical
                        );
                    }
                    if let Some(row) = &serve_row {
                        outln!(
                            "  serve row: {} jobs, cached speedup {:.1}x, hit rate {:.2}, \
                             bit-identical {}",
                            row.jobs,
                            row.cached_speedup,
                            row.hit_rate,
                            row.bit_identical
                        );
                    }
                }
                None => outln!("{}", json.trim_end()),
            }
        }
        Command::Ckpt { bench, clusters, len, n, replays } => {
            let p = build(bench);
            let library = LivePointLibrary::build(
                &p,
                &machine,
                SamplingRegimen::new(clusters, len),
                n,
                rsr_core::WarmupPolicy::Smarts { cache: true, bp: true },
                42,
            )?;
            outln!(
                "{bench}: {} points in {:.2}s ({} KiB arch, ~{} KiB micro)",
                library.len(),
                library.build_time.as_secs_f64(),
                library.approx_bytes() / 1024,
                library.approx_micro_bytes() / 1024
            );
            for r in 1..=replays {
                let out = library.replay(&machine)?;
                outln!("replay {r}: IPC {:.4} in {:.3}s", out.est_ipc(), out.wall.as_secs_f64());
            }
        }
        Command::Serve {
            cache_dir,
            addr,
            workers,
            queue_depth,
            max_job_retries,
            deadline_secs,
            scale,
        } => {
            let mut cfg = ServeConfig::new(&cache_dir);
            cfg.addr = addr;
            cfg.workers = workers;
            cfg.queue_depth = queue_depth;
            cfg.max_job_retries = max_job_retries;
            cfg.default_deadline = deadline_secs.map(Duration::from_secs);
            cfg.scale = scale;
            let daemon = Daemon::start(cfg).map_err(|e| {
                CliError::Service(ServiceError::Unavailable(format!("cannot start daemon: {e}")))
            })?;
            let resumed = daemon.stats().resumed;
            outln!(
                "rsr-serve listening on {} (cache: {cache_dir}{})",
                daemon.local_addr(),
                if resumed > 0 {
                    format!(", resumed {resumed} journaled jobs")
                } else {
                    String::new()
                }
            );
            // Blocks until a client sends `drain`; no signal handling in
            // the offline build, so shutdown is a protocol verb.
            let stats = daemon.wait();
            outln!(
                "drained: {} completed, {} failed, {} cache hits, {} deduped, {} shed, \
                 {} retries",
                stats.completed,
                stats.failed,
                stats.cache_hits,
                stats.deduped,
                stats.shed,
                stats.retries
            );
        }
        Command::Submit { addr, action } => submit(&addr, action)?,
        Command::Simpoint { bench, interval, k, warm, n } => {
            let p = build(bench);
            let cfg = SimpointConfig { warm, max_k: k, ..SimpointConfig::new(interval) };
            let analysis = analyze(&p, n, &cfg)?;
            let out = simulate(&p, &machine, &analysis, &cfg)?;
            outln!(
                "{bench}: SimPoint IPC {:.4} from {} points over {} intervals of {}",
                out.est_ipc,
                analysis.points.len(),
                analysis.n_intervals,
                interval
            );
            for (pt, ipc) in analysis.points.iter().zip(&out.point_ipcs) {
                outln!("  interval {:>6}  weight {:.3}  ipc {:.4}", pt.interval, pt.weight, ipc);
            }
        }
    }
    Ok(())
}
