//! # rsr-cli — command-line front end
//!
//! A small driver binary (`rsr`) over the workspace:
//!
//! ```sh
//! rsr list                              # benchmarks and default regimens
//! rsr disasm gcc --head 40              # disassemble a generated workload
//! rsr trace mcf -n 20                   # retired-instruction trace head
//! rsr run twolf -n 2000000              # full cycle-accurate run
//! rsr sample twolf --policy 'r$bp' --pct 20 -n 4000000
//! rsr simpoint gcc --interval 10000 --k 10 -n 2000000
//! ```
//!
//! The argument grammar is deliberately tiny and hand-rolled (no external
//! parser dependency); this library exposes it for testing.

use rsr_core::{Pct, SimError, WarmupPolicy};
use rsr_func::{ExecError, LoadError};
use rsr_serve::FailClass;
use rsr_workloads::Benchmark;

/// The default daemon endpoint shared by `rsr serve` and `rsr submit`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7411";

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `rsr list`
    List,
    /// `rsr disasm <bench> [--head N]`
    Disasm {
        /// Workload to disassemble.
        bench: Benchmark,
        /// Instructions to print.
        head: usize,
    },
    /// `rsr trace <bench> [-n N]`
    Trace {
        /// Workload to trace.
        bench: Benchmark,
        /// Instructions to trace.
        n: u64,
    },
    /// `rsr run <bench> [-n INSTS]`
    Run {
        /// Workload to run.
        bench: Benchmark,
        /// Instructions to simulate.
        n: u64,
    },
    /// `rsr sample <bench> [--policy P] [--pct N] [--clusters N] [--len N] [-n INSTS] [--seed S] [--threads T] [--pipeline-depth D] [--max-shard-retries R] [--log-budget BYTES] [--deadline-secs S]`
    Sample {
        /// Workload to sample.
        bench: Benchmark,
        /// Warm-up policy.
        policy: WarmupPolicy,
        /// Number of clusters.
        clusters: usize,
        /// Cluster length.
        len: u64,
        /// Total instructions.
        n: u64,
        /// Schedule seed.
        seed: u64,
        /// Shard worker threads (1 = sequential; results are identical).
        threads: usize,
        /// Intra-shard leader/follower pipeline depth (0 = auto; results
        /// are identical at any depth).
        pipeline_depth: usize,
        /// Shard-fault retry budget (`None` = engine default).
        max_shard_retries: Option<u32>,
        /// Per-region RSR log cap in bytes (`None` = unbounded).
        log_budget: Option<usize>,
        /// Wall-clock deadline in seconds (`None` = unbounded).
        deadline_secs: Option<u64>,
    },
    /// `rsr ckpt <bench> [--clusters N] [--len N] [-n INSTS] [--replays R]`
    Ckpt {
        /// Workload to checkpoint.
        bench: Benchmark,
        /// Number of clusters.
        clusters: usize,
        /// Cluster length.
        len: u64,
        /// Total instructions.
        n: u64,
        /// Replay count.
        replays: usize,
    },
    /// `rsr sweep <bench> [--configs N] [--policy P] [--pct N] [--clusters N] [--len N] [-n INSTS] [--seed S] [--threads T] [--replay-threads W] [--out PATH]`
    Sweep {
        /// Workload to sweep.
        bench: Benchmark,
        /// Detailed machine configs fanned out from one cold pass (grid
        /// points over L1D capacity × gshare history depth).
        configs: usize,
        /// Warm-up policy applied to every config (must be a decoupled
        /// policy: reverse or none).
        policy: WarmupPolicy,
        /// Number of clusters.
        clusters: usize,
        /// Cluster length.
        len: u64,
        /// Total instructions.
        n: u64,
        /// Schedule seed.
        seed: u64,
        /// Worker threads for the cold capture and each config's replay.
        threads: usize,
        /// Configs replayed concurrently per captured window (0 = auto).
        replay_threads: usize,
        /// Destination for the JSON rows (`None` = stdout).
        out: Option<String>,
    },
    /// `rsr bench [--scale S] [--seed N] [--threads T] [--pipeline-depth D] [--replay-threads W] [--sweep-configs N] [--sweep-smoke] [--out PATH]`
    Bench {
        /// Run-length scale factor relative to the default regimen.
        scale: f64,
        /// Schedule seed.
        seed: u64,
        /// Shard worker threads (results are identical at any count).
        threads: usize,
        /// Intra-shard leader/follower pipeline depth (0 = auto; 0 also
        /// emits a depth-1 + auto-depth matrix instead of one object).
        pipeline_depth: usize,
        /// Configs replayed concurrently per captured window in the
        /// sweep rows (0 = auto).
        replay_threads: usize,
        /// Append a design-space sweep row fanning this many configs out
        /// of one cold pass (0 = no sweep row).
        sweep_configs: usize,
        /// Shorthand for a small sweep row (4 configs) — what ci.sh runs.
        sweep_smoke: bool,
        /// Append a service row: an in-process daemon round-trip measuring
        /// cold-vs-cached latency and hit rate.
        serve_smoke: bool,
        /// Destination for the JSON emission (`None` = stdout).
        out: Option<String>,
    },
    /// `rsr serve [--cache DIR] [--addr A] [--workers N] [--queue-depth N] [--max-job-retries R] [--default-deadline-secs S] [--scale S]`
    Serve {
        /// Result-cache and queue-journal directory.
        cache_dir: String,
        /// Bind address (localhost; port 0 = ephemeral).
        addr: String,
        /// Worker pool size (0 = auto: host cores capped at 4).
        workers: usize,
        /// Queue slots beyond the running set before admission control
        /// sheds load.
        queue_depth: usize,
        /// Supervised retry budget per job.
        max_job_retries: u32,
        /// Deadline for jobs that do not carry their own.
        deadline_secs: Option<u64>,
        /// Workload build scale shared by all jobs.
        scale: f64,
    },
    /// `rsr submit <bench> [flags] | rsr submit --stats | rsr submit --drain`
    Submit {
        /// Daemon endpoint.
        addr: String,
        /// What to ask the daemon.
        action: SubmitAction,
    },
    /// `rsr simpoint <bench> [--interval I] [--k K] [--warm] [-n INSTS]`
    Simpoint {
        /// Workload to analyze.
        bench: Benchmark,
        /// Interval length.
        interval: u64,
        /// Maximum simulation points.
        k: usize,
        /// SMARTS-warm while fast-forwarding.
        warm: bool,
        /// Total instructions.
        n: u64,
    },
}

/// The payload of a `rsr submit` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitAction {
    /// Submit one sampled run.
    Job {
        /// Workload to sample.
        bench: Benchmark,
        /// Warm-up policy.
        policy: WarmupPolicy,
        /// Number of clusters.
        clusters: usize,
        /// Cluster length.
        len: u64,
        /// Total instructions.
        n: u64,
        /// Schedule seed.
        seed: u64,
        /// L1D capacity override in KiB (`None` = paper geometry).
        l1d_kb: Option<u64>,
        /// Gshare history depth override (`None` = paper geometry).
        ghr_bits: Option<u32>,
        /// Shard span override (`None` = engine default).
        shard_span: Option<u64>,
        /// Per-region RSR log cap in bytes (`None` = unbounded).
        log_budget: Option<u64>,
        /// Per-job deadline in milliseconds (`None` = daemon default).
        deadline_ms: Option<u64>,
        /// Queue and return immediately instead of waiting for the result.
        no_wait: bool,
    },
    /// Read the daemon's counters.
    Stats,
    /// Drain the daemon to a clean stop.
    Drain,
}

/// A usage/parsing error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// A failure of the job service itself, as opposed to the job it ran:
/// the daemon could not be reached, shed the request, or refused it.
/// All of these exit with code 8 so campaign scripts can separate
/// "retry against the service" from "the spec/workload is at fault".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No daemon answered at the address, or the reply was not protocol.
    Unavailable(String),
    /// Admission control shed the request; retry once the queue drains.
    Overloaded {
        /// Jobs queued or running when the request arrived.
        inflight: u64,
        /// The admission limit (workers + queue depth).
        limit: u64,
    },
    /// The daemon refused the request (e.g. it is draining) or reported
    /// an internal error.
    Rejected(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Unavailable(m) => write!(f, "service unavailable: {m}"),
            ServiceError::Overloaded { inflight, limit } => write!(
                f,
                "daemon overloaded: {inflight} jobs in flight (limit {limit}); \
                 retry when the queue drains"
            ),
            ServiceError::Rejected(m) => write!(f, "daemon rejected the request: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Everything the `rsr` binary can fail with: bad arguments, a
/// simulation error, a job-service failure, or a job the daemon ran and
/// reported failed. Simulator and functional-core errors convert via
/// `From`, so driver code uses plain `?`.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Usage(UsageError),
    /// The simulation itself failed.
    Sim(SimError),
    /// The job service failed (exit code 8) — distinct from a job that
    /// ran and failed, which keeps its engine exit class.
    Service(ServiceError),
    /// The daemon ran the job and it failed; the typed wire class maps
    /// back onto the engine exit codes (deadline 7, shard/panic 6, …).
    Job {
        /// The daemon's failure class.
        class: FailClass,
        /// The underlying error message.
        message: String,
        /// Supervised attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Service(e) => write!(f, "{e}"),
            CliError::Job { class, message, attempts } => write!(
                f,
                "job failed ({}, {attempts} attempt{}): {message}",
                class.as_str(),
                if *attempts == 1 { "" } else { "s" }
            ),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(e) => Some(e),
            CliError::Sim(e) => Some(e),
            CliError::Service(e) => Some(e),
            CliError::Job { .. } => None,
        }
    }
}

impl CliError {
    /// The process exit code for this error's class, so scripts can
    /// distinguish operator mistakes from workload problems from
    /// infrastructure faults without scraping stderr:
    ///
    /// | code | class |
    /// |------|-------|
    /// | 2 | usage / argument error |
    /// | 3 | program load failure |
    /// | 4 | execution fault |
    /// | 5 | degenerate run spec |
    /// | 6 | shard fault (lost/panicked worker, corrupt checkpoint) |
    /// | 7 | deadline exceeded |
    /// | 8 | service error (daemon unreachable, overloaded, draining) |
    /// | 1 | anything else |
    ///
    /// A job the daemon ran and reported failed keeps its engine class
    /// (a remote deadline still exits 7, a supervised panic 6, a
    /// degenerate spec 5) — only failures *of the service* exit 8.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Sim(SimError::Load(_)) => 3,
            CliError::Sim(SimError::Exec(_)) => 4,
            CliError::Sim(SimError::Spec(_)) => 5,
            CliError::Sim(e) if e.is_shard_fault() || matches!(e, SimError::ShardFailed { .. }) => {
                6
            }
            CliError::Sim(SimError::DeadlineExceeded { .. }) => 7,
            CliError::Sim(_) => 1,
            CliError::Service(_) => 8,
            CliError::Job { class, .. } => match class {
                FailClass::Deadline => 7,
                FailClass::Panic | FailClass::Shard => 6,
                FailClass::Spec => 5,
                FailClass::Sim => 1,
            },
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<LoadError> for CliError {
    fn from(e: LoadError) -> Self {
        CliError::Sim(SimError::from(e))
    }
}

impl From<ExecError> for CliError {
    fn from(e: ExecError) -> Self {
        CliError::Sim(SimError::from(e))
    }
}

/// The top-level usage text.
pub const USAGE: &str = "\
usage: rsr <command> [args]

commands:
  list                          benchmarks and default regimens
  disasm <bench> [--head N]     disassemble a generated workload (default 32)
  trace  <bench> [-n N]         print the first N retired instructions (default 20)
  run    <bench> [-n INSTS]     full cycle-accurate run (default 1000000)
  sample <bench> [--policy P] [--pct N] [--clusters N] [--len N] [-n INSTS] [--seed S]
         [--threads T] [--pipeline-depth D] [--max-shard-retries R] [--log-budget BYTES]
         [--deadline-secs S]
                                sampled simulation (defaults: r$bp 20%, 30x1000, 2M, seed 42,
                                1 thread; --threads shards the schedule, results identical;
                                --pipeline-depth overlaps cold fast-forward with recon+hot
                                inside each shard, 0 = auto, results identical at any depth;
                                retries heal shard faults, --log-budget degrades over-budget
                                clusters to stale-state warmup, --deadline-secs aborts cleanly)
  sweep  <bench> [--configs N] [--policy P] [--pct N] [--clusters N] [--len N] [-n INSTS]
         [--seed S] [--threads T] [--replay-threads W] [--out PATH]
                                design-space sweep: one functional cold pass fanned
                                across N machine variants (L1D capacity x gshare history
                                grid around the paper geometry); emits one JSON row per
                                config (est_ipc, 95% CI, per-structure recon telemetry,
                                shared amortization ratio) to PATH or stdout (defaults:
                                8 configs, r$bp 20%, 30x1000, 2M, seed 42, 1 thread;
                                --replay-threads replays W configs concurrently per
                                captured window, 0 = auto; per-config results are
                                bit-identical to standalone runs at any worker count)
  bench  [--scale S] [--seed N] [--threads T] [--pipeline-depth D] [--replay-threads W]
         [--sweep-configs N] [--sweep-smoke] [--serve-smoke] [--out PATH]
                                reproducible perf trajectory: runs mcf under r$bp 20%
                                and emits BENCH_sample.json-shaped metrics (cold-phase
                                MIPS, recon ns/record per structure, peak log bytes, wall
                                seconds) to PATH or stdout (defaults: scale 1.0, seed 42,
                                1 thread; default depth 0 emits a [depth-1, auto] array;
                                --sweep-configs N appends a sweep row fanning N configs
                                out of one cold pass, --sweep-smoke = 4-config shorthand;
                                --serve-smoke appends a service row: an in-process daemon
                                round-trip measuring cold-vs-cached latency and hit rate)
  serve  [--cache DIR] [--addr A] [--workers N] [--queue-depth N] [--max-job-retries R]
         [--default-deadline-secs S] [--scale S]
                                job daemon over localhost TCP: schedules submitted sampled
                                runs across the core budget, dedupes identical in-flight
                                specs, supervises each job (panic/shard-fault retries with
                                deterministic backoff, per-job deadlines, load shedding),
                                and answers repeat submissions bit-identically from a
                                crash-safe content-addressed result cache; a kill mid-queue
                                resumes from the journal on restart, and `rsr submit
                                --drain` stops it cleanly (defaults: cache .rsr-cache,
                                127.0.0.1:7411, auto workers, queue depth 16, 1 retry)
  submit <bench> [--addr A] [--policy P] [--pct N] [--clusters N] [--len N] [-n INSTS]
         [--seed S] [--l1d-kb K] [--ghr-bits B] [--shard-span S] [--log-budget BYTES]
         [--deadline-ms MS] [--no-wait]
  submit --stats | submit --drain [--addr A]
                                submit one sampled run to a daemon and print the result
                                (computed | cache_hit | recomputed), queue without waiting,
                                read the daemon's counters, or drain it to a clean stop
                                (job defaults match `rsr sample`; --l1d-kb/--ghr-bits
                                override the paper machine geometry)
  simpoint <bench> [--interval I] [--k K] [--warm] [-n INSTS]
                                SimPoint analysis + simulation
  ckpt   <bench> [--clusters N] [--len N] [-n INSTS] [--replays R]
                                build a live-points library and replay it

policies: none | fp | s$ | sbp | s$bp | r$ | rbp | r$bp | mrrl | blrl
benchmarks: ammp art gcc mcf parser perl twolf vortex vpr
exit codes: 0 ok | 1 other | 2 usage | 3 load | 4 exec | 5 spec | 6 shard fault | 7 deadline
            8 service (daemon unreachable, overloaded, or draining)";

/// Parses a warm-up policy name plus an optional percentage.
pub fn parse_policy(name: &str, pct: u8) -> Result<WarmupPolicy, UsageError> {
    let p = Pct::new(pct.clamp(1, 100));
    Ok(match name.to_ascii_lowercase().as_str() {
        "none" => WarmupPolicy::None,
        "fp" => WarmupPolicy::FixedPeriod { pct: p },
        "s$" => WarmupPolicy::Smarts { cache: true, bp: false },
        "sbp" => WarmupPolicy::Smarts { cache: false, bp: true },
        "smarts" | "s$bp" => WarmupPolicy::Smarts { cache: true, bp: true },
        "r$" => WarmupPolicy::Reverse { cache: true, bp: false, pct: p },
        "rbp" => WarmupPolicy::Reverse { cache: false, bp: true, pct: p },
        "rsr" | "r$bp" => WarmupPolicy::Reverse { cache: true, bp: true, pct: p },
        "mrrl" => WarmupPolicy::Mrrl { coverage: p },
        "blrl" => WarmupPolicy::Blrl { coverage: p },
        other => return Err(UsageError(format!("unknown policy `{other}`"))),
    })
}

fn parse_bench(name: Option<&String>) -> Result<Benchmark, UsageError> {
    let name = name.ok_or_else(|| UsageError("missing benchmark name".into()))?;
    Benchmark::from_name(name).ok_or_else(|| UsageError(format!("unknown benchmark `{name}`")))
}

struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(|s| s.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        match self.value(flag) {
            None if self.present(flag) => Err(UsageError(format!("missing value for {flag}"))),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| UsageError(format!("bad value `{v}` for {flag}"))),
        }
    }

    fn parsed_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        match self.value(flag) {
            None if self.present(flag) => Err(UsageError(format!("missing value for {flag}"))),
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| UsageError(format!("bad value `{v}` for {flag}")))
            }
        }
    }

    fn string(&self, flag: &str, default: &str) -> Result<String, UsageError> {
        match self.value(flag) {
            None if self.present(flag) => Err(UsageError(format!("missing value for {flag}"))),
            None => Ok(default.to_string()),
            Some(v) => Ok(v.to_string()),
        }
    }

    fn present(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

/// Rejects zero where the downstream constructor's contract demands a
/// positive value (`SamplingRegimen::new`, BBV intervals, k-means k), so
/// the binary fails with a usage error instead of a panic.
fn nonzero<T: PartialEq + From<u8>>(value: T, flag: &str) -> Result<T, UsageError> {
    if value == T::from(0) {
        Err(UsageError(format!("{flag} must be at least 1")))
    } else {
        Ok(value)
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`UsageError`] for unknown commands, benchmarks, policies, or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let cmd = args.first().ok_or_else(|| UsageError(USAGE.into()))?;
    let rest = &args[1..];
    let flags = Flags { args: rest };
    Ok(match cmd.as_str() {
        "list" => Command::List,
        "disasm" => {
            Command::Disasm { bench: parse_bench(rest.first())?, head: flags.parsed("--head", 32)? }
        }
        "trace" => Command::Trace { bench: parse_bench(rest.first())?, n: flags.parsed("-n", 20)? },
        "run" => {
            Command::Run { bench: parse_bench(rest.first())?, n: flags.parsed("-n", 1_000_000)? }
        }
        "sample" => {
            let pct: u8 = flags.parsed("--pct", 20)?;
            let policy_name = match flags.value("--policy") {
                None if flags.present("--policy") => {
                    return Err(UsageError("missing value for --policy".into()))
                }
                name => name.unwrap_or("r$bp"),
            };
            Command::Sample {
                bench: parse_bench(rest.first())?,
                policy: parse_policy(policy_name, pct)?,
                clusters: nonzero(flags.parsed("--clusters", 30)?, "--clusters")?,
                len: nonzero(flags.parsed("--len", 1000)?, "--len")?,
                n: flags.parsed("-n", 2_000_000)?,
                seed: flags.parsed("--seed", 42)?,
                threads: flags.parsed("--threads", 1)?,
                pipeline_depth: flags.parsed("--pipeline-depth", 0)?,
                max_shard_retries: flags.parsed_opt("--max-shard-retries")?,
                log_budget: flags.parsed_opt("--log-budget")?,
                deadline_secs: flags.parsed_opt("--deadline-secs")?,
            }
        }
        "sweep" => {
            let pct: u8 = flags.parsed("--pct", 20)?;
            let policy_name = match flags.value("--policy") {
                None if flags.present("--policy") => {
                    return Err(UsageError("missing value for --policy".into()))
                }
                name => name.unwrap_or("r$bp"),
            };
            Command::Sweep {
                bench: parse_bench(rest.first())?,
                configs: nonzero(flags.parsed("--configs", 8)?, "--configs")?,
                policy: parse_policy(policy_name, pct)?,
                clusters: nonzero(flags.parsed("--clusters", 30)?, "--clusters")?,
                len: nonzero(flags.parsed("--len", 1000)?, "--len")?,
                n: flags.parsed("-n", 2_000_000)?,
                seed: flags.parsed("--seed", 42)?,
                threads: flags.parsed("--threads", 1)?,
                replay_threads: flags.parsed("--replay-threads", 0)?,
                out: flags.value("--out").map(str::to_string),
            }
        }
        "bench" => Command::Bench {
            scale: flags.parsed("--scale", 1.0)?,
            seed: flags.parsed("--seed", 42)?,
            threads: flags.parsed("--threads", 1)?,
            pipeline_depth: flags.parsed("--pipeline-depth", 0)?,
            replay_threads: flags.parsed("--replay-threads", 0)?,
            sweep_configs: flags.parsed("--sweep-configs", 0)?,
            sweep_smoke: flags.present("--sweep-smoke"),
            serve_smoke: flags.present("--serve-smoke"),
            out: flags.value("--out").map(str::to_string),
        },
        "ckpt" => Command::Ckpt {
            bench: parse_bench(rest.first())?,
            clusters: nonzero(flags.parsed("--clusters", 20)?, "--clusters")?,
            len: nonzero(flags.parsed("--len", 1000)?, "--len")?,
            n: flags.parsed("-n", 2_000_000)?,
            replays: flags.parsed("--replays", 3)?,
        },
        "serve" => Command::Serve {
            cache_dir: flags.string("--cache", ".rsr-cache")?,
            addr: flags.string("--addr", DEFAULT_SERVE_ADDR)?,
            workers: flags.parsed("--workers", 0)?,
            queue_depth: flags.parsed("--queue-depth", 16)?,
            max_job_retries: flags.parsed("--max-job-retries", 1)?,
            deadline_secs: flags.parsed_opt("--default-deadline-secs")?,
            scale: flags.parsed("--scale", 1.0)?,
        },
        "submit" => {
            let addr = flags.string("--addr", DEFAULT_SERVE_ADDR)?;
            let action = if flags.present("--stats") {
                SubmitAction::Stats
            } else if flags.present("--drain") {
                SubmitAction::Drain
            } else {
                let pct: u8 = flags.parsed("--pct", 20)?;
                let policy_name = match flags.value("--policy") {
                    None if flags.present("--policy") => {
                        return Err(UsageError("missing value for --policy".into()))
                    }
                    name => name.unwrap_or("r$bp"),
                };
                SubmitAction::Job {
                    bench: parse_bench(rest.first())?,
                    policy: parse_policy(policy_name, pct)?,
                    clusters: nonzero(flags.parsed("--clusters", 30)?, "--clusters")?,
                    len: nonzero(flags.parsed("--len", 1000)?, "--len")?,
                    n: flags.parsed("-n", 2_000_000)?,
                    seed: flags.parsed("--seed", 42)?,
                    l1d_kb: flags.parsed_opt("--l1d-kb")?,
                    ghr_bits: flags.parsed_opt("--ghr-bits")?,
                    shard_span: flags.parsed_opt("--shard-span")?,
                    log_budget: flags.parsed_opt("--log-budget")?,
                    deadline_ms: flags.parsed_opt("--deadline-ms")?,
                    no_wait: flags.present("--no-wait"),
                }
            };
            Command::Submit { addr, action }
        }
        "simpoint" => Command::Simpoint {
            bench: parse_bench(rest.first())?,
            interval: nonzero(flags.parsed("--interval", 10_000)?, "--interval")?,
            k: nonzero(flags.parsed("--k", 10)?, "--k")?,
            warm: flags.present("--warm"),
            n: flags.parsed("-n", 2_000_000)?,
        },
        "-h" | "--help" | "help" => return Err(UsageError(USAGE.into())),
        other => return Err(UsageError(format!("unknown command `{other}`\n\n{USAGE}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
    }

    #[test]
    fn parses_sample_with_flags() {
        let cmd = parse(&argv(
            "sample mcf --policy r$ --pct 40 --clusters 12 --len 500 -n 100000 --seed 7 --threads 4",
        ))
        .unwrap();
        match cmd {
            Command::Sample { bench, policy, clusters, len, n, seed, threads, .. } => {
                assert_eq!(bench, Benchmark::Mcf);
                assert_eq!(
                    policy,
                    WarmupPolicy::Reverse { cache: true, bp: false, pct: Pct::new(40) }
                );
                assert_eq!((clusters, len, n, seed, threads), (12, 500, 100_000, 7, 4));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parses_guard_flags() {
        let cmd =
            parse(&argv("sample mcf --max-shard-retries 3 --log-budget 65536 --deadline-secs 90"))
                .unwrap();
        match cmd {
            Command::Sample { max_shard_retries, log_budget, deadline_secs, .. } => {
                assert_eq!(max_shard_retries, Some(3));
                assert_eq!(log_budget, Some(65_536));
                assert_eq!(deadline_secs, Some(90));
            }
            other => panic!("parsed {other:?}"),
        }
        let e = parse(&argv("sample mcf --log-budget lots")).unwrap_err();
        assert!(e.0.contains("bad value"));
        let e = parse(&argv("sample mcf --deadline-secs")).unwrap_err();
        assert!(e.0.contains("missing value"));
    }

    #[test]
    fn zero_dimensions_are_usage_errors_not_panics() {
        for cmdline in [
            "sample mcf --clusters 0",
            "sample mcf --len 0",
            "ckpt twolf --clusters 0",
            "ckpt twolf --len 0",
            "simpoint gcc --interval 0",
            "simpoint gcc --k 0",
        ] {
            let e = parse(&argv(cmdline)).unwrap_err();
            assert!(e.0.contains("must be at least 1"), "{cmdline}: got `{e}`");
        }
    }

    #[test]
    fn exit_codes_partition_error_classes() {
        let usage = CliError::from(UsageError("nope".into()));
        assert_eq!(usage.exit_code(), 2);
        let load = LoadError::Decode { addr: 0, cause: rsr_isa::DecodeError { word: 0 } };
        assert_eq!(CliError::from(SimError::Load(load)).exit_code(), 3);
        assert_eq!(CliError::from(SimError::Exec(ExecError::Halted)).exit_code(), 4);
        assert_eq!(CliError::from(SimError::Spec("bad")).exit_code(), 5);
        assert_eq!(CliError::from(SimError::Shard { index: 1 }).exit_code(), 6);
        assert_eq!(
            CliError::from(SimError::ShardPanicked { index: 2, message: "boom".into() })
                .exit_code(),
            6
        );
        assert_eq!(
            CliError::from(SimError::CheckpointCorrupt { index: 1, expected: 1, found: 2 })
                .exit_code(),
            6
        );
        assert_eq!(
            CliError::from(SimError::ShardFailed {
                index: 0,
                source: Box::new(SimError::Spec("inner")),
            })
            .exit_code(),
            6
        );
        assert_eq!(
            CliError::from(SimError::DeadlineExceeded { completed_shards: 1, total_shards: 4 })
                .exit_code(),
            7
        );
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse(&argv("sample gcc")).unwrap();
        match cmd {
            Command::Sample {
                policy,
                clusters,
                len,
                n,
                seed,
                threads,
                max_shard_retries,
                log_budget,
                deadline_secs,
                ..
            } => {
                assert_eq!(
                    policy,
                    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
                );
                assert_eq!((clusters, len, n, seed, threads), (30, 1000, 2_000_000, 42, 1));
                assert_eq!((max_shard_retries, log_budget, deadline_secs), (None, None, None));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn cli_error_converts_from_sim_and_func_errors() {
        let sim = SimError::Spec("bad spec");
        assert_eq!(CliError::from(sim.clone()), CliError::Sim(sim.clone()));
        let exec = CliError::from(ExecError::Halted);
        assert_eq!(exec, CliError::Sim(SimError::Exec(ExecError::Halted)));
        let usage = CliError::from(UsageError("nope".into()));
        assert!(matches!(usage, CliError::Usage(_)));
        // Display passes the inner message through.
        assert_eq!(CliError::from(sim.clone()).to_string(), sim.to_string());
    }

    #[test]
    fn all_policy_names_parse() {
        for name in ["none", "fp", "s$", "sbp", "s$bp", "r$", "rbp", "r$bp", "mrrl", "blrl"] {
            assert!(parse_policy(name, 20).is_ok(), "{name}");
        }
        assert!(parse_policy("bogus", 20).is_err());
    }

    #[test]
    fn errors_are_helpful() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("unknown command"));
        let e = parse(&argv("run nosuch")).unwrap_err();
        assert!(e.0.contains("unknown benchmark"));
        let e = parse(&argv("run gcc -n notanumber")).unwrap_err();
        assert!(e.0.contains("bad value"));
        let e = parse(&argv("")).unwrap_err();
        assert!(e.0.contains("usage"));
    }

    #[test]
    fn bench_flags_and_defaults() {
        assert_eq!(
            parse(&argv("bench")).unwrap(),
            Command::Bench {
                scale: 1.0,
                seed: 42,
                threads: 1,
                pipeline_depth: 0,
                replay_threads: 0,
                sweep_configs: 0,
                sweep_smoke: false,
                serve_smoke: false,
                out: None
            }
        );
        assert_eq!(
            parse(&argv(
                "bench --scale 0.05 --seed 7 --threads 4 --pipeline-depth 2 \
                 --replay-threads 2 --sweep-configs 20 --out BENCH_sample.json"
            ))
            .unwrap(),
            Command::Bench {
                scale: 0.05,
                seed: 7,
                threads: 4,
                pipeline_depth: 2,
                replay_threads: 2,
                sweep_configs: 20,
                sweep_smoke: false,
                serve_smoke: false,
                out: Some("BENCH_sample.json".into())
            }
        );
        match parse(&argv("bench --sweep-smoke --serve-smoke")).unwrap() {
            Command::Bench { sweep_smoke, serve_smoke, sweep_configs, .. } => {
                assert!(sweep_smoke);
                assert!(serve_smoke);
                assert_eq!(sweep_configs, 0);
            }
            other => panic!("parsed {other:?}"),
        }
        let e = parse(&argv("bench --scale big")).unwrap_err();
        assert!(e.0.contains("bad value"));
    }

    #[test]
    fn sweep_flags_and_defaults() {
        match parse(&argv("sweep mcf")).unwrap() {
            Command::Sweep {
                bench, configs, policy, clusters, len, n, seed, threads, out, ..
            } => {
                assert_eq!(bench, Benchmark::Mcf);
                assert_eq!(configs, 8);
                assert_eq!(
                    policy,
                    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
                );
                assert_eq!((clusters, len, n, seed, threads), (30, 1000, 2_000_000, 42, 1));
                assert_eq!(out, None);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv(
            "sweep twolf --configs 20 --policy r$ --pct 40 --clusters 12 --len 500 -n 100000 \
             --seed 7 --threads 4 --replay-threads 4 --out rows.json",
        ))
        .unwrap()
        {
            Command::Sweep { bench, configs, policy, replay_threads, out, .. } => {
                assert_eq!(bench, Benchmark::Twolf);
                assert_eq!(configs, 20);
                assert_eq!(
                    policy,
                    WarmupPolicy::Reverse { cache: true, bp: false, pct: Pct::new(40) }
                );
                assert_eq!(replay_threads, 4);
                assert_eq!(out, Some("rows.json".into()));
            }
            other => panic!("parsed {other:?}"),
        }
        let e = parse(&argv("sweep mcf --configs 0")).unwrap_err();
        assert!(e.0.contains("must be at least 1"));
        let e = parse(&argv("sweep")).unwrap_err();
        assert!(e.0.contains("missing benchmark"));
    }

    #[test]
    fn pipeline_depth_flag_parses_and_defaults_to_auto() {
        match parse(&argv("sample mcf --pipeline-depth 4")).unwrap() {
            Command::Sample { pipeline_depth, .. } => assert_eq!(pipeline_depth, 4),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("sample mcf")).unwrap() {
            Command::Sample { pipeline_depth, .. } => assert_eq!(pipeline_depth, 0, "0 = auto"),
            other => panic!("parsed {other:?}"),
        }
        let e = parse(&argv("sample mcf --pipeline-depth deep")).unwrap_err();
        assert!(e.0.contains("bad value"));
    }

    #[test]
    fn replay_threads_flag_parses_and_defaults_to_auto() {
        match parse(&argv("sweep mcf --replay-threads 4")).unwrap() {
            Command::Sweep { replay_threads, .. } => assert_eq!(replay_threads, 4),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("sweep mcf")).unwrap() {
            Command::Sweep { replay_threads, .. } => assert_eq!(replay_threads, 0, "0 = auto"),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("bench")).unwrap() {
            Command::Bench { replay_threads, .. } => assert_eq!(replay_threads, 0, "0 = auto"),
            other => panic!("parsed {other:?}"),
        }
        let e = parse(&argv("sweep mcf --replay-threads wide")).unwrap_err();
        assert!(e.0.contains("bad value"));
    }

    #[test]
    fn serve_flags_and_defaults() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                cache_dir: ".rsr-cache".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                workers: 0,
                queue_depth: 16,
                max_job_retries: 1,
                deadline_secs: None,
                scale: 1.0,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --cache /tmp/c --addr 127.0.0.1:0 --workers 2 --queue-depth 4 \
                 --max-job-retries 0 --default-deadline-secs 30 --scale 0.1"
            ))
            .unwrap(),
            Command::Serve {
                cache_dir: "/tmp/c".into(),
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_depth: 4,
                max_job_retries: 0,
                deadline_secs: Some(30),
                scale: 0.1,
            }
        );
        let e = parse(&argv("serve --cache")).unwrap_err();
        assert!(e.0.contains("missing value"));
    }

    #[test]
    fn submit_job_stats_and_drain_parse() {
        match parse(&argv("submit mcf --l1d-kb 64 --ghr-bits 14 --deadline-ms 500 --no-wait"))
            .unwrap()
        {
            Command::Submit { addr, action } => {
                assert_eq!(addr, DEFAULT_SERVE_ADDR);
                match action {
                    SubmitAction::Job {
                        bench,
                        l1d_kb,
                        ghr_bits,
                        deadline_ms,
                        no_wait,
                        clusters,
                        len,
                        ..
                    } => {
                        assert_eq!(bench, Benchmark::Mcf);
                        assert_eq!(
                            (l1d_kb, ghr_bits, deadline_ms),
                            (Some(64), Some(14), Some(500))
                        );
                        assert!(no_wait);
                        assert_eq!((clusters, len), (30, 1000), "job defaults match `rsr sample`");
                    }
                    other => panic!("parsed {other:?}"),
                }
            }
            other => panic!("parsed {other:?}"),
        }
        assert_eq!(
            parse(&argv("submit --stats --addr 127.0.0.1:9999")).unwrap(),
            Command::Submit { addr: "127.0.0.1:9999".into(), action: SubmitAction::Stats }
        );
        assert_eq!(
            parse(&argv("submit --drain")).unwrap(),
            Command::Submit { addr: DEFAULT_SERVE_ADDR.into(), action: SubmitAction::Drain }
        );
        let e = parse(&argv("submit")).unwrap_err();
        assert!(e.0.contains("missing benchmark"));
        let e = parse(&argv("submit mcf --clusters 0")).unwrap_err();
        assert!(e.0.contains("must be at least 1"));
    }

    #[test]
    fn service_errors_exit_8_but_job_failures_keep_engine_classes() {
        let unavailable = CliError::Service(ServiceError::Unavailable("refused".into()));
        assert_eq!(unavailable.exit_code(), 8);
        let overloaded = CliError::Service(ServiceError::Overloaded { inflight: 5, limit: 4 });
        assert_eq!(overloaded.exit_code(), 8);
        assert!(overloaded.to_string().contains("overloaded"));
        assert_eq!(CliError::Service(ServiceError::Rejected("draining".into())).exit_code(), 8);
        // A job the daemon ran and reported failed keeps the engine class.
        let job = |class| CliError::Job { class, message: "m".into(), attempts: 2 };
        assert_eq!(job(FailClass::Deadline).exit_code(), 7);
        assert_eq!(job(FailClass::Panic).exit_code(), 6);
        assert_eq!(job(FailClass::Shard).exit_code(), 6);
        assert_eq!(job(FailClass::Spec).exit_code(), 5);
        assert_eq!(job(FailClass::Sim).exit_code(), 1);
        assert!(job(FailClass::Panic).to_string().contains("panic"));
    }

    #[test]
    fn ckpt_defaults() {
        let cmd = parse(&argv("ckpt vortex")).unwrap();
        assert_eq!(
            cmd,
            Command::Ckpt {
                bench: Benchmark::Vortex,
                clusters: 20,
                len: 1000,
                n: 2_000_000,
                replays: 3
            }
        );
    }

    #[test]
    fn simpoint_flags() {
        let cmd = parse(&argv("simpoint perl --interval 5000 --k 4 --warm")).unwrap();
        assert_eq!(
            cmd,
            Command::Simpoint {
                bench: Benchmark::Perl,
                interval: 5000,
                k: 4,
                warm: true,
                n: 2_000_000
            }
        );
    }
}
