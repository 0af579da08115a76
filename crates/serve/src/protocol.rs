//! The line-delimited job wire protocol: one JSON value per line, typed
//! both ways.
//!
//! A [`JobSpec`] is the service's unit of work — the portable subset of a
//! [`rsr_core::RunSpec`] a client can name over the wire (benchmark,
//! regimen, seed, policy, and the deterministic supervision knobs).
//! [`JobSpec::canonical_json`] fixes the key order and omits unset
//! optionals, so the same job always serializes to the same bytes; the
//! queue journal persists exactly that form and the daemon derives the
//! content address from the materialized `RunSpec` it describes.
//!
//! Every response is typed ([`Response`]): a client can distinguish a
//! served-from-cache result, a shed request ([`Response::Overloaded`]),
//! and a failed job with its failure class ([`FailClass`]) without string
//! matching. Parsing is strict — unknown fields, missing fields, and
//! out-of-range values are [`ProtoError`]s, which is what the adversarial
//! round-trip suite leans on.

use std::fmt;

use rsr_core::{Pct, WarmupPolicy};
use rsr_workloads::Benchmark;

use crate::json::{self, num_f64, num_u64, Json};

/// A wire-protocol violation: syntax, unknown/missing fields, or
/// out-of-range values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err<T>(message: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(message.into()))
}

/// One simulation job, as named over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Workload to run.
    pub bench: Benchmark,
    /// Number of sampled clusters.
    pub n_clusters: usize,
    /// Instructions per cluster.
    pub cluster_len: u64,
    /// Run length in dynamic instructions.
    pub total_insts: u64,
    /// Schedule seed.
    pub seed: u64,
    /// Warm-up policy.
    pub policy: WarmupPolicy,
    /// L1D size override in KiB (paper geometry when absent).
    pub l1d_kb: Option<u64>,
    /// Global-history-register width override (paper geometry when absent).
    pub ghr_bits: Option<u32>,
    /// Canonical shard span override in instructions.
    pub shard_span: Option<u64>,
    /// Per-skip-region log budget in bytes.
    pub log_budget: Option<u64>,
    /// Per-job wall-clock deadline in milliseconds, anchored when a worker
    /// picks the job up (so a stalled worker consumes it).
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A job running `bench` under its default regimen and run length with
    /// the paper's headline policy — the starting point `rsr submit`
    /// refines from flags.
    pub fn for_bench(bench: Benchmark) -> JobSpec {
        let regimen = bench.default_regimen();
        JobSpec {
            bench,
            n_clusters: regimen.n_clusters,
            cluster_len: regimen.cluster_len,
            total_insts: bench.default_instructions(),
            seed: 42,
            policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            l1d_kb: None,
            ghr_bits: None,
            shard_span: None,
            log_budget: None,
            deadline_ms: None,
        }
    }

    /// The job as a JSON value with a fixed key order; unset optionals are
    /// omitted rather than encoded as `null`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bench".to_string(), Json::Str(self.bench.name().to_string())),
            ("clusters".to_string(), num_u64(self.n_clusters as u64)),
            ("len".to_string(), num_u64(self.cluster_len)),
            ("n".to_string(), num_u64(self.total_insts)),
            ("seed".to_string(), num_u64(self.seed)),
            ("policy".to_string(), policy_to_json(self.policy)),
        ];
        if let Some(v) = self.l1d_kb {
            fields.push(("l1d_kb".to_string(), num_u64(v)));
        }
        if let Some(v) = self.ghr_bits {
            fields.push(("ghr_bits".to_string(), num_u64(u64::from(v))));
        }
        if let Some(v) = self.shard_span {
            fields.push(("shard_span".to_string(), num_u64(v)));
        }
        if let Some(v) = self.log_budget {
            fields.push(("log_budget".to_string(), num_u64(v)));
        }
        if let Some(v) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), num_u64(v)));
        }
        Json::Obj(fields)
    }

    /// The canonical single-line encoding (fixed key order, no
    /// whitespace): equal jobs encode to equal bytes.
    pub fn canonical_json(&self) -> String {
        json::to_string(&self.to_json())
    }

    /// Parses a job object strictly: every field validated, unknown fields
    /// rejected.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for missing/unknown fields, an unknown benchmark or
    /// policy, zero regimen dimensions, or out-of-range percentages.
    pub fn from_json(v: &Json) -> Result<JobSpec, ProtoError> {
        let Json::Obj(fields) = v else {
            return err("job must be an object");
        };
        const KNOWN: [&str; 11] = [
            "bench",
            "clusters",
            "len",
            "n",
            "seed",
            "policy",
            "l1d_kb",
            "ghr_bits",
            "shard_span",
            "log_budget",
            "deadline_ms",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return err(format!("unknown job field `{k}`"));
            }
        }
        let bench_name = v
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("job needs a string `bench`".to_string()))?;
        let bench = Benchmark::from_name(bench_name)
            .ok_or_else(|| ProtoError(format!("unknown benchmark `{bench_name}`")))?;
        let n_clusters = require_u64(v, "clusters")?;
        let cluster_len = require_u64(v, "len")?;
        let total_insts = require_u64(v, "n")?;
        let seed = require_u64(v, "seed")?;
        if n_clusters == 0 || cluster_len == 0 {
            return err("regimen dimensions must be nonzero");
        }
        if total_insts == 0 {
            return err("`n` must be nonzero");
        }
        let policy_json =
            v.get("policy").ok_or_else(|| ProtoError("job needs a `policy`".to_string()))?;
        let policy = policy_from_json(policy_json)?;
        let ghr_bits = match optional_u64(v, "ghr_bits")? {
            Some(g) => Some(
                u32::try_from(g).map_err(|_| ProtoError("`ghr_bits` out of range".to_string()))?,
            ),
            None => None,
        };
        Ok(JobSpec {
            bench,
            n_clusters: usize::try_from(n_clusters)
                .map_err(|_| ProtoError("`clusters` out of range".to_string()))?,
            cluster_len,
            total_insts,
            seed,
            policy,
            l1d_kb: optional_u64(v, "l1d_kb")?,
            ghr_bits,
            shard_span: optional_u64(v, "shard_span")?,
            log_budget: optional_u64(v, "log_budget")?,
            deadline_ms: optional_u64(v, "deadline_ms")?,
        })
    }
}

fn require_u64(v: &Json, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError(format!("job needs an unsigned integer `{key}`")))
}

fn optional_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError(format!("`{key}` must be an unsigned integer"))),
    }
}

/// A warm-up policy as a structured JSON object (fixed key order).
pub fn policy_to_json(policy: WarmupPolicy) -> Json {
    let kind = |name: &str| ("kind".to_string(), Json::Str(name.to_string()));
    match policy {
        WarmupPolicy::None => Json::Obj(vec![kind("none")]),
        WarmupPolicy::FixedPeriod { pct } => Json::Obj(vec![
            kind("fixed_period"),
            ("pct".to_string(), num_u64(u64::from(pct.value()))),
        ]),
        WarmupPolicy::Smarts { cache, bp } => Json::Obj(vec![
            kind("smarts"),
            ("cache".to_string(), Json::Bool(cache)),
            ("bp".to_string(), Json::Bool(bp)),
        ]),
        WarmupPolicy::Reverse { cache, bp, pct } => Json::Obj(vec![
            kind("reverse"),
            ("cache".to_string(), Json::Bool(cache)),
            ("bp".to_string(), Json::Bool(bp)),
            ("pct".to_string(), num_u64(u64::from(pct.value()))),
        ]),
        WarmupPolicy::Mrrl { coverage } => Json::Obj(vec![
            kind("mrrl"),
            ("coverage".to_string(), num_u64(u64::from(coverage.value()))),
        ]),
        WarmupPolicy::Blrl { coverage } => Json::Obj(vec![
            kind("blrl"),
            ("coverage".to_string(), num_u64(u64::from(coverage.value()))),
        ]),
    }
}

/// Parses a structured policy object (see [`policy_to_json`]).
///
/// # Errors
///
/// [`ProtoError`] for unknown kinds, missing fields, or percentages
/// outside `1..=100` (checked here so the daemon never feeds a
/// panicking value into [`Pct::new`]).
pub fn policy_from_json(v: &Json) -> Result<WarmupPolicy, ProtoError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError("policy needs a string `kind`".to_string()))?;
    let pct_field = |key: &str| -> Result<Pct, ProtoError> {
        let raw = v
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError(format!("policy needs an unsigned integer `{key}`")))?;
        if !(1..=100).contains(&raw) {
            return err(format!("policy `{key}` must be in 1..=100"));
        }
        Ok(Pct::new(raw as u8))
    };
    let bool_field = |key: &str| -> Result<bool, ProtoError> {
        v.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtoError(format!("policy needs a boolean `{key}`")))
    };
    match kind {
        "none" => Ok(WarmupPolicy::None),
        "fixed_period" => Ok(WarmupPolicy::FixedPeriod { pct: pct_field("pct")? }),
        "smarts" => Ok(WarmupPolicy::Smarts { cache: bool_field("cache")?, bp: bool_field("bp")? }),
        "reverse" => Ok(WarmupPolicy::Reverse {
            cache: bool_field("cache")?,
            bp: bool_field("bp")?,
            pct: pct_field("pct")?,
        }),
        "mrrl" => Ok(WarmupPolicy::Mrrl { coverage: pct_field("coverage")? }),
        "blrl" => Ok(WarmupPolicy::Blrl { coverage: pct_field("coverage")? }),
        other => err(format!("unknown policy kind `{other}`")),
    }
}

/// A client request: one JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job. With `wait` the connection blocks until the job
    /// settles; without it the daemon acknowledges admission immediately.
    Submit {
        /// The job to run.
        job: JobSpec,
        /// Block for the result?
        wait: bool,
    },
    /// Snapshot the daemon's counters.
    Stats,
    /// Drain: stop admitting, finish every in-flight job, persist, stop.
    /// (The offline build has no signal-handling dependency, so graceful
    /// shutdown is a protocol verb rather than SIGTERM — see DESIGN.md
    /// §13.)
    Drain,
}

impl Request {
    /// Serializes to one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Submit { job, wait } => Json::Obj(vec![
                ("op".to_string(), Json::Str("submit".to_string())),
                ("wait".to_string(), Json::Bool(*wait)),
                ("job".to_string(), job.to_json()),
            ]),
            Request::Stats => Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]),
            Request::Drain => Json::Obj(vec![("op".to_string(), Json::Str("drain".to_string()))]),
        };
        json::to_string(&v)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on syntax errors, unknown ops, or invalid jobs.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = json::parse(line).map_err(ProtoError)?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("request needs a string `op`".to_string()))?;
        match op {
            "submit" => {
                let wait = match v.get("wait") {
                    None => true,
                    Some(w) => w
                        .as_bool()
                        .ok_or_else(|| ProtoError("`wait` must be a boolean".to_string()))?,
                };
                let job =
                    v.get("job").ok_or_else(|| ProtoError("submit needs a `job`".to_string()))?;
                Ok(Request::Submit { job: JobSpec::from_json(job)?, wait })
            }
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            other => err(format!("unknown op `{other}`")),
        }
    }
}

/// Where a completed result came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResultSource {
    /// Simulated for this request.
    Computed,
    /// Served from the content-addressed cache without simulating.
    CacheHit,
    /// The cached entry failed verification, was quarantined, and the job
    /// was recomputed.
    Recomputed,
}

impl ResultSource {
    /// The lowercase wire token (also what `rsr submit` prints).
    pub fn as_str(self) -> &'static str {
        match self {
            ResultSource::Computed => "computed",
            ResultSource::CacheHit => "cache_hit",
            ResultSource::Recomputed => "recomputed",
        }
    }

    fn parse(s: &str) -> Result<ResultSource, ProtoError> {
        match s {
            "computed" => Ok(ResultSource::Computed),
            "cache_hit" => Ok(ResultSource::CacheHit),
            "recomputed" => Ok(ResultSource::Recomputed),
            other => err(format!("unknown result source `{other}`")),
        }
    }
}

/// Why a job failed, as a closed class set (clients branch on this, not
/// on message text).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FailClass {
    /// The per-job deadline expired ([`rsr_core::SimError::DeadlineExceeded`]).
    Deadline,
    /// The supervised worker or the engine panicked and the retry budget
    /// is spent.
    Panic,
    /// The job described an invalid spec ([`rsr_core::SimError::Spec`]).
    Spec,
    /// Any other deterministic simulation error (load/execution faults).
    Sim,
}

impl FailClass {
    /// The lowercase wire token (also what `rsr submit` prints).
    pub fn as_str(self) -> &'static str {
        match self {
            FailClass::Deadline => "deadline",
            FailClass::Panic => "panic",
            FailClass::Spec => "spec",
            FailClass::Sim => "sim",
        }
    }

    fn parse(s: &str) -> Result<FailClass, ProtoError> {
        match s {
            "deadline" => Ok(FailClass::Deadline),
            "panic" => Ok(FailClass::Panic),
            "spec" => Ok(FailClass::Spec),
            "sim" => Ok(FailClass::Sim),
            other => err(format!("unknown failure class `{other}`")),
        }
    }
}

/// The daemon's counters, as reported by [`Request::Stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs admitted (including deduped joins and cache hits).
    pub submitted: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that settled with a typed failure.
    pub failed: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Corrupt or truncated cache entries quarantined.
    pub quarantined: u64,
    /// Requests that joined an identical in-flight job.
    pub deduped: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Supervised retry attempts across all jobs.
    pub retries: u64,
    /// Jobs recovered from the journal at startup.
    pub resumed: u64,
    /// Jobs currently queued.
    pub pending: u64,
    /// Jobs currently executing.
    pub running: u64,
}

const STAT_KEYS: [&str; 11] = [
    "submitted",
    "completed",
    "failed",
    "cache_hits",
    "quarantined",
    "deduped",
    "shed",
    "retries",
    "resumed",
    "pending",
    "running",
];

impl DaemonStats {
    /// The counters as `(name, value)` rows in wire-key order, for
    /// human-readable listings (`rsr submit --stats`).
    pub fn rows(&self) -> [(&'static str, u64); 11] {
        let mut rows = [("", 0); 11];
        for (row, (key, value)) in rows.iter_mut().zip(STAT_KEYS.iter().zip(self.fields())) {
            *row = (key, value);
        }
        rows
    }

    fn fields(&self) -> [u64; 11] {
        [
            self.submitted,
            self.completed,
            self.failed,
            self.cache_hits,
            self.quarantined,
            self.deduped,
            self.shed,
            self.retries,
            self.resumed,
            self.pending,
            self.running,
        ]
    }

    fn to_json(self) -> Vec<(String, Json)> {
        STAT_KEYS.iter().zip(self.fields()).map(|(k, v)| ((*k).to_string(), num_u64(v))).collect()
    }

    fn from_json(v: &Json) -> Result<DaemonStats, ProtoError> {
        let mut s = DaemonStats::default();
        let slots: [&mut u64; 11] = [
            &mut s.submitted,
            &mut s.completed,
            &mut s.failed,
            &mut s.cache_hits,
            &mut s.quarantined,
            &mut s.deduped,
            &mut s.shed,
            &mut s.retries,
            &mut s.resumed,
            &mut s.pending,
            &mut s.running,
        ];
        for (key, slot) in STAT_KEYS.iter().zip(slots) {
            *slot = v
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError(format!("stats needs `{key}`")))?;
        }
        Ok(s)
    }
}

/// A daemon response: one JSON line, discriminated by `"status"`.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job settled successfully.
    Done {
        /// The job's content address.
        hash: u64,
        /// Where the result came from.
        source: ResultSource,
        /// Supervised attempts it took (0 for cache hits).
        attempts: u32,
        /// The deterministic IPC estimate.
        est_ipc: f64,
        /// The ±95 % confidence bound on the estimate.
        ipc_err: f64,
        /// Sampled clusters in the estimate.
        clusters: u64,
        /// Clusters degraded to the stale-state fallback.
        clusters_degraded: u64,
        /// Skip-log records the run appended.
        log_records: u64,
    },
    /// Admission acknowledged (a `wait:false` submit).
    Queued {
        /// The job's content address.
        hash: u64,
    },
    /// Admission control shed this request; retry later.
    Overloaded {
        /// Jobs in flight (queued + running) at rejection time.
        inflight: u64,
        /// The configured admission limit.
        limit: u64,
    },
    /// The job settled with a typed failure.
    Failed {
        /// The job's content address.
        hash: u64,
        /// The failure class.
        class: FailClass,
        /// Human-readable detail.
        message: String,
        /// Supervised attempts made.
        attempts: u32,
    },
    /// The daemon finished draining.
    Draining {
        /// Jobs that settled over the daemon's lifetime.
        settled: u64,
    },
    /// Counter snapshot.
    Stats(DaemonStats),
    /// The request itself was unserviceable (parse error, draining
    /// daemon, internal I/O failure).
    Error {
        /// What went wrong.
        message: String,
    },
}

fn hash_json(hash: u64) -> Json {
    Json::Str(format!("{hash:016x}"))
}

fn parse_hash(v: &Json, key: &str) -> Result<u64, ProtoError> {
    let s = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError(format!("response needs a string `{key}`")))?;
    u64::from_str_radix(s, 16).map_err(|_| ProtoError(format!("`{key}` is not a hex hash")))
}

impl Response {
    /// Serializes to one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let status = |name: &str| ("status".to_string(), Json::Str(name.to_string()));
        let v = match self {
            Response::Done {
                hash,
                source,
                attempts,
                est_ipc,
                ipc_err,
                clusters,
                clusters_degraded,
                log_records,
            } => Json::Obj(vec![
                status("done"),
                ("hash".to_string(), hash_json(*hash)),
                ("source".to_string(), Json::Str(source.as_str().to_string())),
                ("attempts".to_string(), num_u64(u64::from(*attempts))),
                ("est_ipc".to_string(), num_f64(*est_ipc)),
                ("ipc_err".to_string(), num_f64(*ipc_err)),
                ("clusters".to_string(), num_u64(*clusters)),
                ("clusters_degraded".to_string(), num_u64(*clusters_degraded)),
                ("log_records".to_string(), num_u64(*log_records)),
            ]),
            Response::Queued { hash } => {
                Json::Obj(vec![status("queued"), ("hash".to_string(), hash_json(*hash))])
            }
            Response::Overloaded { inflight, limit } => Json::Obj(vec![
                status("overloaded"),
                ("inflight".to_string(), num_u64(*inflight)),
                ("limit".to_string(), num_u64(*limit)),
            ]),
            Response::Failed { hash, class, message, attempts } => Json::Obj(vec![
                status("failed"),
                ("hash".to_string(), hash_json(*hash)),
                ("class".to_string(), Json::Str(class.as_str().to_string())),
                ("message".to_string(), Json::Str(message.clone())),
                ("attempts".to_string(), num_u64(u64::from(*attempts))),
            ]),
            Response::Draining { settled } => {
                Json::Obj(vec![status("draining"), ("settled".to_string(), num_u64(*settled))])
            }
            Response::Stats(stats) => {
                let mut fields = vec![status("stats")];
                fields.extend(stats.to_json());
                Json::Obj(fields)
            }
            Response::Error { message } => Json::Obj(vec![
                status("error"),
                ("message".to_string(), Json::Str(message.clone())),
            ]),
        };
        json::to_string(&v)
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on syntax errors, unknown statuses, or missing
    /// fields.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let v = json::parse(line).map_err(ProtoError)?;
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError("response needs a string `status`".to_string()))?;
        let u64_field = |key: &str| -> Result<u64, ProtoError> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError(format!("response needs an unsigned `{key}`")))
        };
        let f64_field = |key: &str| -> Result<f64, ProtoError> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtoError(format!("response needs a number `{key}`")))
        };
        let str_field = |key: &str| -> Result<String, ProtoError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtoError(format!("response needs a string `{key}`")))
        };
        let attempts_field = || -> Result<u32, ProtoError> {
            u32::try_from(u64_field("attempts")?)
                .map_err(|_| ProtoError("`attempts` out of range".to_string()))
        };
        match status {
            "done" => Ok(Response::Done {
                hash: parse_hash(&v, "hash")?,
                source: ResultSource::parse(&str_field("source")?)?,
                attempts: attempts_field()?,
                est_ipc: f64_field("est_ipc")?,
                ipc_err: f64_field("ipc_err")?,
                clusters: u64_field("clusters")?,
                clusters_degraded: u64_field("clusters_degraded")?,
                log_records: u64_field("log_records")?,
            }),
            "queued" => Ok(Response::Queued { hash: parse_hash(&v, "hash")? }),
            "overloaded" => Ok(Response::Overloaded {
                inflight: u64_field("inflight")?,
                limit: u64_field("limit")?,
            }),
            "failed" => Ok(Response::Failed {
                hash: parse_hash(&v, "hash")?,
                class: FailClass::parse(&str_field("class")?)?,
                message: str_field("message")?,
                attempts: attempts_field()?,
            }),
            "draining" => Ok(Response::Draining { settled: u64_field("settled")? }),
            "stats" => Ok(Response::Stats(DaemonStats::from_json(&v)?)),
            "error" => Ok(Response::Error { message: str_field("message")? }),
            other => err(format!("unknown response status `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_canonical_encoding_is_stable_and_round_trips() {
        let job = JobSpec::for_bench(Benchmark::Mcf);
        let line = job.canonical_json();
        assert_eq!(line, job.canonical_json(), "canonical form is deterministic");
        let back = JobSpec::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, job);
        // Optionals appear when set, and round-trip too.
        let full = JobSpec {
            l1d_kb: Some(16),
            ghr_bits: Some(8),
            shard_span: Some(100_000),
            log_budget: Some(1 << 20),
            deadline_ms: Some(2_000),
            ..job
        };
        let back = JobSpec::from_json(&json::parse(&full.canonical_json()).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn strict_job_parsing_rejects_bad_shapes() {
        let good = JobSpec::for_bench(Benchmark::Art).canonical_json();
        for (mutation, why) in [
            (good.replace("\"art\"", "\"sphinx\""), "unknown benchmark"),
            (good.replace("\"clusters\":", "\"klusters\":"), "unknown field"),
            (good.replace("\"seed\":42", "\"seed\":-1"), "negative seed"),
            (good.replace("\"pct\":20", "\"pct\":0"), "pct below range"),
            (good.replace("\"pct\":20", "\"pct\":101"), "pct above range"),
            (good.replace("\"reverse\"", "\"sideways\""), "unknown policy"),
        ] {
            let parsed = json::parse(&mutation).expect(why);
            assert!(JobSpec::from_json(&parsed).is_err(), "{why}: `{mutation}`");
        }
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = [
            Request::Submit { job: JobSpec::for_bench(Benchmark::Gcc), wait: true },
            Request::Submit { job: JobSpec::for_bench(Benchmark::Vpr), wait: false },
            Request::Stats,
            Request::Drain,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.encode()).unwrap(), r);
        }
        let resps = [
            Response::Done {
                hash: 0xdead_beef_1234_5678,
                source: ResultSource::CacheHit,
                attempts: 0,
                est_ipc: 1.0 / 3.0,
                ipc_err: 0.012_345,
                clusters: 64,
                clusters_degraded: 1,
                log_records: 123_456,
            },
            Response::Queued { hash: 7 },
            Response::Overloaded { inflight: 5, limit: 4 },
            Response::Failed {
                hash: u64::MAX,
                class: FailClass::Deadline,
                message: "deadline exceeded: 3 of 9 shards".to_string(),
                attempts: 2,
            },
            Response::Draining { settled: 11 },
            Response::Stats(DaemonStats { submitted: 9, cache_hits: 3, ..Default::default() }),
            Response::Error { message: "bad \"quote\"".to_string() },
        ];
        for r in resps {
            let line = r.encode();
            assert_eq!(Response::parse(&line).unwrap(), r, "line `{line}`");
        }
    }

    #[test]
    fn float_fields_survive_the_wire_bit_exactly() {
        let est_ipc = 0.123_456_789_012_345_67;
        let ipc_err = f64::MIN_POSITIVE;
        let resp = Response::Done {
            hash: 1,
            source: ResultSource::Computed,
            attempts: 1,
            est_ipc,
            ipc_err,
            clusters: 2,
            clusters_degraded: 0,
            log_records: 3,
        };
        match Response::parse(&resp.encode()).unwrap() {
            Response::Done { est_ipc: e, ipc_err: b, .. } => {
                assert_eq!(e.to_bits(), est_ipc.to_bits());
                assert_eq!(b.to_bits(), ipc_err.to_bits());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}
