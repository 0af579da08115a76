//! The repository's claims benchmark: four workloads through the stable
//! public API (`RunSpec`, `SweepSpec`, `Daemon`), host-time and memory
//! metrics with their quartiles, output checks on every run, and a
//! traced replica of the sequential engine that attributes its wall time
//! to the layers it calls.
//!
//! ```text
//! cargo run --release --offline -p rsr-bench --bin benchmark -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--spans PATH]
//! benchmark --compare A.json B.json     # two --out reports, bounds from BENCHMARK.json
//! benchmark --reference                 # recompute the values pinned in pins.rs
//! ```
//!
//! `BENCHMARK.json`'s command runs the same thing through `launch.rs`, a
//! dependency-free package in this directory that builds and runs this
//! bin in the root workspace.
//!
//! Defaults: every workload, seed 42, `BENCHMARK.json`'s `run_seconds` of
//! timed reps per workload, no tracing. Both `run_seconds` and the
//! `--compare` bounds come from the copy of `BENCHMARK.json` built into
//! the binary. Each workload prints its metrics by name with their units, and
//! then one JSON result line (`correct`, `attempted`, `failed`, `metrics`);
//! that line is the last line of a single-workload run. The exit code is 0
//! only when every operation succeeded and every check held. A run of
//! several workloads runs each in a child process of its own (this program
//! with `--workload NAME`), so no workload starts from the memory an
//! earlier one left, and merges their `--out` records and spans.
//!
//! # Workloads
//!
//! | name | input | why |
//! |---|---|---|
//! | `mcf_rsr20` | mcf, 32M insts, 50×3000 clusters, R$BP 20 %, `RunSpec::run` | The paper's headline method on its memory-bound pointer chaser (working set ≫ L2). Logging, sealing and reconstruction carry most of the host time, the hot clusters the rest. |
//! | `gcc_smarts` | gcc, 32M, 80×1500, S$BP, `RunSpec::run` | The paper's baseline on a branchy, cache-resident program: the cache and branch kernels run forward on every skipped instruction, and no log, seal or reconstruction runs. Log and reverse changes must not move it. |
//! | `mcf_sweep20` | `mcf_rsr20`'s cold half fanned over 20 machines (L1D 8–128 KiB × GHR 10–16 bits), `SweepSpec::run` | One capture feeds 20 replays: reconstruction, hot kernels, index sharing and journal restore dominate — the reverse of `mcf_rsr20`'s mix. |
//! | `serve_mix` | one in-process `Daemon`, started on an empty cache and serving every batch; each batch submits 40 short specs it has not seen (all nine programs, 2M insts, 30×1000, R$BP 20 %) 4 times each, in an order of its own | Many short jobs, three quarters of them cache hits: per-job fixed cost and the cache/protocol path, which the long runs never exercise. One long-lived daemon is how users run it; restarting it per batch would also measure how much freed heap the allocator kept from earlier daemons, which varies from run to run. |
//!
//! The sweep grid is copied here rather than taken from `rsr_bench`, so a
//! change to the library's emitters cannot move the workload. No
//! parallelism knob is set: every run uses the defaults a user gets, and the
//! output reports the values they resolved to (`SweepOutcome::replay_threads`,
//! `Daemon::workers`) with the host's `nproc`. `serve_mix` is a closed
//! loop: `min(nproc, 2)` client threads, each with one connection open at a
//! time, each waiting for its reply before submitting again.
//!
//! Every canonical shard (`RunSpec::DEFAULT_SHARD_SPAN` instructions)
//! starts with empty caches and predictor, which the policy under test
//! warms: R$BP by reverse reconstruction from the skip log, S$BP by
//! functional warming. Statistics are never collected from an artificially
//! pre-warmed machine.
//!
//! Schedules are drawn as users draw them, with `ColdSpec::build_schedule`
//! (the paper's random cluster placement). The batch workloads use
//! schedule seed 42 (`pins::SCHEDULE_SEED`) at every `--seed`: a random
//! placement sets the longest skip region, and with it the log's peak size
//! and the run's memory, so runs at different seeds would otherwise measure
//! different work. `--seed` draws the serve specs' schedule seeds; each
//! serve batch's submission order is fixed by its position in the run. The
//! simulator receives only these generated inputs.
//!
//! # Measurement
//!
//! Per workload: set up 100 times (program build plus schedule, or
//! `Daemon::start` on an empty cache), one untimed warm-up rep, then timed
//! reps until `--seconds` have passed (at least eight,
//! `measure::MIN_REPS`). All times are host time; simulated statistics are
//! exact and checked, not timed.
//!
//! End-to-end metrics (`--trace 0`):
//! - `wall_min_s`: seconds of the fastest timed rep — one run, one
//!   20-config sweep, or one 160-submission batch (with two closed-loop
//!   clients, jobs per second is `160 / wall_min_s`). The `--out` record
//!   also keeps the reps' quartiles.
//! - `peak_rss_mb`: the median over the first eight timed reps of the
//!   process's peak resident set during one rep (`VmHWM`, reset through
//!   `/proc/self/clear_refs` before each rep). It depends on timing: a
//!   pipelined run holds more skip logs at once when its hot thread falls
//!   behind, so one `mcf_rsr20` rep peaks anywhere from about 100 to
//!   190 MiB. It also grows with the reps a process has run (the
//!   engine pools skip-log buffers; the daemon keeps every result it
//!   served), so it covers a fixed number of reps rather than all that fit
//!   in `--seconds`.
//! - `setup_s`: the median seconds of one set-up. They all run before any
//!   rep: between `serve_mix` batches a daemon start would also wait for
//!   the serving daemon's pending disk writes in its journal sync, two to
//!   five times its cost on an idle disk, which a user starting a daemon
//!   does not pay. On `serve_mix` that sync is most of the set-up, so it
//!   moves with the host's disk.
//!
//! Why the fastest rep: this benchmark runs on small shared hosts, where
//! other tenants slow the same rep by 10–60 % in bursts lasting seconds to
//! minutes (on a 2-vCPU VM, `gcc_smarts` reps alternate between about 0.62
//! and 1.05 s while ALU and memory-latency probes do not move). The median
//! of a run then measures the neighbours: cut one long run on that VM into
//! 25 s windows, and the windows' medians spread by 15 % on `gcc_smarts`
//! (quartile distance over median) where their fastest reps spread by 2 %;
//! on `mcf_rsr20`, 7 % against 5 %. The fastest rep is what the program
//! costs when nothing else contends; a change that slows every rep still
//! moves it, one that only adds variance does not (the quartiles show
//! that). Slower regimes that last a minute or more move the fastest rep
//! too: between ten 25 s runs on that VM, `wall_min_s` spread by 6–10 %
//! under moderate load and by 9–28 % while the host ran everything at up
//! to half speed, so it carries the largest bound `BENCHMARK.json` allows
//! (25 %). `peak_rss_mb` moves with the pipeline's timing, 2–9 % between
//! runs, and carries 15 %.
//!
//! Accuracy is printed beside these metrics (`ipc_rel_err` against the pinned
//! `RunSpec::run_full` IPC) and reported as `sampler.ipc_rel_err` with the
//! layer metrics: it is exact, and on `serve_mix` it changes with the
//! seed, so it carries no bound. Per-request latency is
//! reported per source (`serve.hit_p50_ms`, `serve.compute_p50_ms`) and not
//! as an end-to-end median: a cache hit's cost is dominated by hashing the
//! job's program image, so hit latencies form one mode per program and the
//! pooled median falls between two of them.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures as above, then runs [`replica`]: the sequential
//! engine rebuilt from each layer's public function, every call timed as a
//! span (name, start, end, parent, job, window). Its estimate is checked
//! bit for bit against `RunSpec::run`. Layers are named after the library
//! modules; a metric is 0 on a workload that does not run its layer. What
//! each should move:
//!
//! - `func` (`Cpu::step_n` in a separate functional pass over the same skip
//!   regions): `wall_min_s` on `mcf_rsr20` and `gcc_smarts`.
//! - `log` (`record_region` minus `func.step_s`, `seal_mem_index`,
//!   `seal_branch_index`, records, peak bytes): `wall_min_s` (and, for
//!   `log.bytes_peak`, `peak_rss_mb`) on `mcf_rsr20` and `mcf_sweep20`;
//!   nothing on `gcc_smarts`.
//! - `reverse` (`reconstruct_caches_partitioned`, `BpReconstructor::new`,
//!   records scanned, useful-work ratios; `reverse.reported_*_ns` are the
//!   program's own `ReconTiming` values): `wall_min_s` on `mcf_rsr20` and
//!   `mcf_sweep20`; nothing on `gcc_smarts`.
//! - `timing` (`simulate_cluster[_hooked]` minus the PHT/BTB demand scans
//!   inside it): `wall_min_s` on `mcf_sweep20` most, and the compute path of
//!   `serve_mix`.
//! - `sampler` (`skip_with_smarts_warming` minus `func.step_s`, warm
//!   updates, accuracy): `wall_min_s` on `gcc_smarts` only.
//! - `shard` (`Cpu::new` and the shard-cut state resets).
//! - `engine` (the untraced runs' own `PhaseTimes`; `overlap_s` is phases
//!   minus wall): how the pipeline and shard layers change `wall_min_s` on
//!   `mcf_rsr20`.
//! - `sweep` (`SweepOutcome` fields): `wall_min_s` and `peak_rss_mb` on
//!   `mcf_sweep20`.
//! - `serve` (each request timed and split by `ResultSource`, plus
//!   `DaemonStats`): `wall_min_s` on `serve_mix`, through the hit path and the
//!   compute path.
//! - `trace`: the replica's wall, its unattributed remainder (wall minus
//!   every layer span), and its overhead against the untraced runs of the
//!   same work. Where auto pipeline depth resolves above 1 the overhead
//!   also holds the overlap the sequential replica gives up.
//!
//! On `mcf_sweep20` the replica runs the paper-machine config alone; on
//! `serve_mix` it runs the warm-up batch's 40 specs.
//!
//! # Checks
//!
//! Every timed run or sweep must repeat the warm-up's estimate bit for
//! bit. The estimates and digests pinned in `pins.rs` must reproduce: the
//! batch workloads' at every seed, the serve digest at seed 42. Also at
//! any seed: the replica equals `RunSpec::run` (est_ipc, per-cluster
//! CPIs, log_records, `ReconStats`); the sweep's paper-machine config
//! equals a standalone `mcf_rsr20` run; every served answer for a spec,
//! computed or cached, is the same, and the warm-up batch's answers equal
//! standalone `RunSpec` runs. A failed check counts in `failed` and makes
//! the exit code nonzero.
//!
//! `BENCH_sample.json` and `rsr bench` stay as legacy single-shot emitters;
//! they are not this benchmark and carry no claims.

mod measure;
mod pins;
mod replica;
mod report;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use rsr_core::{MachineConfig, RunSpec};
use rsr_serve::json::{self, num_f64, num_u64, Json};
use rsr_workloads::{Benchmark, WorkloadParams};

use crate::measure::nproc;
use crate::report::Report;
use crate::workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--out PATH] [--spans PATH]
       benchmark --compare A.json B.json
       benchmark --reference
workloads: mcf_rsr20 gcc_smarts mcf_sweep20 serve_mix";

/// A parsed command line.
enum Command {
    Run(Options),
    Compare(String, String),
    Reference,
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: report::run_seconds(),
        traced: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(name).ok_or_else(|| format!("no workload `{name}`"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--spans" => o.spans = Some(value()?.clone()),
            "--compare" => {
                let a = value()?.clone();
                let b = value()?.clone();
                return Ok(Command::Compare(a, b));
            }
            "--reference" => return Ok(Command::Reference),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(o))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(o)) => run(&o),
        Ok(Command::Compare(a, b)) => match report::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Reference) => reference(),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(o: &Options) -> ExitCode {
    match o.workloads[..] {
        [w] => run_one(w, o),
        _ => run_each(o),
    }
}

fn run_one(w: Workload, o: &Options) -> ExitCode {
    let r = w.run(o.seed, o.seconds, o.traced);
    print!("{}", r.human(o.traced));
    println!("{}", json::to_string(&r.result_line(o.traced)));
    let mut written = true;
    if let Some(path) = &o.out {
        written &= write(Path::new(path), out_doc(o, vec![r.to_json(o.traced)]));
    }
    if let Some(path) = &o.spans {
        written &= write(Path::new(path), spans_jsonl(&r));
    }
    if r.correct() && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload in a child process of its own, so that none starts
/// from the memory an earlier one left, and merges their `--out` records
/// and spans. Each child prints its own lines and result line.
fn run_each(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The serve workload removes `.bench_tmp` when done only if it is
    // empty, so the children's files in here outlive it.
    let dir = Path::new(".bench_tmp").join(format!("runs-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("benchmark: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let (mut ok, mut records, mut spans) = (true, Vec::new(), String::new());
    for w in &o.workloads {
        let (out, span_path) = (dir.join(format!("{}.json", w.name())), dir.join(w.name()));
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name(), "--seed", &o.seed.to_string()]);
        child.args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.traced { "1" } else { "0" },
        ]);
        child.arg("--out").arg(&out).arg("--spans").arg(&span_path);
        ok &= child.status().is_ok_and(|s| s.success());
        let doc = std::fs::read_to_string(&out).ok().and_then(|t| json::parse(&t).ok());
        match doc.as_ref().and_then(|d| d.get("workloads")) {
            Some(Json::Arr(rs)) => records.extend(rs.iter().cloned()),
            _ => ok = false,
        }
        spans.push_str(&std::fs::read_to_string(&span_path).unwrap_or_default());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    if let Some(path) = &o.out {
        ok &= write(Path::new(path), out_doc(o, records));
    }
    if let Some(path) = &o.spans {
        ok &= write(Path::new(path), spans);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--out` document: the run's settings and one record per workload.
fn out_doc(o: &Options, records: Vec<Json>) -> String {
    let doc = Json::Obj(vec![
        ("seed".into(), num_u64(o.seed)),
        ("seconds".into(), num_f64(o.seconds)),
        ("nproc".into(), num_u64(nproc() as u64)),
        ("workloads".into(), Json::Arr(records)),
    ]);
    json::to_string(&doc) + "\n"
}

fn write(path: &Path, contents: String) -> bool {
    std::fs::write(path, contents)
        .map_err(|e| eprintln!("benchmark: {}: {e}", path.display()))
        .is_ok()
}

/// Every recorded span, one JSON object per line.
fn spans_jsonl(r: &Report) -> String {
    let mut out = String::new();
    for (t, tracer) in r.tracers.iter().enumerate() {
        for s in &tracer.spans {
            let parent = s.parent.map_or(Json::Null, |p| num_u64(p as u64));
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(r.workload.name().into())),
                ("trace".into(), num_u64(t as u64)),
                ("job".into(), num_u64(u64::from(s.job))),
                ("window".into(), num_u64(u64::from(s.window))),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), num_u64(s.start_ns)),
                ("end_ns".into(), num_u64(s.end_ns)),
                ("parent".into(), parent),
            ]);
            out.push_str(&json::to_string(&line));
            out.push('\n');
        }
    }
    out
}

/// Recomputes the pinned values: true IPCs with `RunSpec::run_full`, and
/// each workload's seed-42 outputs. Prints them as `pins.rs` constants.
fn reference() -> ExitCode {
    let machine = MachineConfig::paper();
    let long = [(Benchmark::Mcf, 32_000_000), (Benchmark::Gcc, 32_000_000)];
    let short = Benchmark::ALL.map(|b| (b, 2_000_000));
    println!("pub const TRUE_IPC: [(&str, u64, f64); {}] = [", long.len() + short.len());
    for (bench, insts) in long.into_iter().chain(short) {
        let program = bench.build(&WorkloadParams::default());
        match RunSpec::new(&program, &machine).total_insts(insts).run_full() {
            Ok(full) => println!("    (\"{bench}\", {insts}, {:?}),", full.ipc()),
            Err(e) => {
                eprintln!("benchmark: run_full {bench}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("];");
    for w in Workload::ALL {
        for (name, v) in w.run(pins::PIN_SEED, 0.0, false).outputs {
            if name.ends_with("_RECORDS") {
                println!("pub const {name}: u64 = {v};");
            } else {
                println!("pub const {name}: u64 = {v:#018x};");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use rsr_core::{ColdSpec, SamplingRegimen};

    use super::*;
    use crate::replica::{replica, Tracer, Warmup};
    use crate::report::{benchmark_spec, run_seconds, END_TO_END, PER_LAYER};
    use crate::workloads::same_estimate;

    fn listed(section: &str) -> Vec<(String, String)> {
        let spec = benchmark_spec();
        let Some(Json::Arr(items)) = spec.get(section) else { panic!("no {section} list") };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_the_ones_benchmark_json_lists() {
        let report = Report::new(Workload::McfRsr20);
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let emitted: Vec<(String, String)> = report
                .rows(traced)
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(emitted, listed(section), "{section}");
        }
        assert!(run_seconds() >= 1.0, "BENCHMARK.json run_seconds");
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for n in &names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn replica_matches_the_engine_across_shard_cuts() {
        let machine = MachineConfig::paper();
        let span = 250_000;
        for (bench, warmup) in [
            (Benchmark::Mcf, Warmup::Rsr(rsr_core::Pct::new(20))),
            (Benchmark::Gcc, Warmup::Smarts),
        ] {
            let program = bench.build(&WorkloadParams { scale: 0.05, ..Default::default() });
            let schedule = ColdSpec::new(&program)
                .regimen(SamplingRegimen::new(20, 1000))
                .total_insts(1_000_000)
                .seed(7)
                .build_schedule()
                .unwrap();
            let engine = RunSpec::new(&program, &machine)
                .schedule(schedule.clone())
                .policy(warmup.policy())
                .shard_span(span)
                .run()
                .unwrap();
            let mut tr = Tracer::new();
            let out = replica(&program, &machine, &schedule, warmup, span, &mut tr, 0).unwrap();
            // One reset builds the first shard's state; each further one is a cut.
            let cuts = tr.spans.iter().filter(|s| s.name == "shard_reset").count() - 1;
            assert!(cuts >= 3, "{bench}: only {cuts} shard cuts");
            assert!(
                same_estimate(&out.outcome, &engine),
                "{bench}: replica differs from the engine"
            );
        }
    }
}
