//! The job daemon: a localhost TCP service executing [`JobSpec`]s under
//! per-job supervision, backed by the content-addressed [`ResultCache`].
//!
//! ## Scheduling
//!
//! A fixed worker pool (default: up to four, bounded by the host's cores)
//! pulls jobs from a FIFO queue. Each job runs at pipeline depth 1, one
//! thread per job, so concurrent jobs never oversubscribe the host:
//! `workers ≤ cores`. Identical
//! in-flight requests (equal content hashes) are deduped: later
//! submitters join the first job's waiter list instead of queuing a
//! duplicate.
//!
//! ## Supervision
//!
//! Every attempt runs under `catch_unwind`; a panic — in the worker itself
//! or typed by the engine as [`rsr_core::SimError::Panicked`] — is retried
//! up to [`ServeConfig::max_job_retries`] times with deterministic seed-derived exponential backoff
//! ([`backoff_delay`]). Per-job deadlines are anchored when a worker
//! picks the job up — a stalled worker ([`rsr_core::FaultKind::StallJob`]) consumes
//! the budget — and enforced inside the run by the existing
//! [`rsr_core::SimError::DeadlineExceeded`] machinery. Admission control
//! sheds load with a typed [`Response::Overloaded`] once queued + running
//! jobs reach `workers + queue_depth`.
//!
//! ## Durability
//!
//! Admissions append `+ <hash> <canonical job>` to an fsynced journal in
//! the cache directory and settlements append `- <hash>`; on startup the
//! pending set (admitted minus settled, tolerating a torn final line) is
//! re-queued and the journal is compacted (rewritten, synced and renamed
//! into place; skipped when it already holds exactly the pending set, as
//! an empty journal does on an empty cache). A kill mid-queue therefore
//! loses no admitted work, and a clean drain leaves an empty journal.
//!
//! ## Shutdown
//!
//! The offline build has no signal-handling dependency (no `libc`), so
//! graceful shutdown is a protocol verb: [`Request::Drain`] stops
//! admission, lets every in-flight job settle, compacts the journal, and
//! stops the daemon; `rsr serve` then exits 0. See DESIGN.md §13.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rsr_core::{
    ColdSpec, DetailSpec, FaultInjector, FaultPlan, MachineConfig, RunSpec, SamplingRegimen,
    SimError,
};
use rsr_isa::Program;
use rsr_workloads::WorkloadParams;

use crate::cache::{self, CachedOutcome, Lookup, ResultCache};
use crate::protocol::{DaemonStats, FailClass, JobSpec, Request, Response, ResultSource};

/// Daemon configuration. Start with [`ServeConfig::new`] and adjust
/// fields; every knob has a serviceable default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (default `127.0.0.1:0` — an ephemeral localhost
    /// port, reported by [`Daemon::local_addr`]).
    pub addr: String,
    /// Directory for the result cache and the queue journal.
    pub cache_dir: PathBuf,
    /// Worker pool size (0 = auto: the host's cores, capped at 4).
    pub workers: usize,
    /// Jobs that may wait beyond the running set; admission control sheds
    /// load once queued + running reaches `workers + queue_depth`.
    pub queue_depth: usize,
    /// Supervised retry budget per job (panics only).
    pub max_job_retries: u32,
    /// Base of the exponential backoff between retry attempts.
    pub backoff_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Workload build scale (programs are built once per benchmark and
    /// shared across jobs).
    pub scale: f64,
    /// Service-level fault plan ([`rsr_core::FaultKind::SERVICE`] kinds,
    /// keyed by job admission order). Empty = fault-free.
    pub fault_plan: FaultPlan,
}

impl ServeConfig {
    /// A default configuration caching into `cache_dir`.
    pub fn new(cache_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: cache_dir.into(),
            workers: 0,
            queue_depth: 16,
            max_job_retries: 1,
            backoff_base: Duration::from_millis(5),
            backoff_seed: 0x5eed,
            default_deadline: None,
            scale: 1.0,
            fault_plan: FaultPlan::new(),
        }
    }
}

/// The machine a job simulates: paper geometry with the job's overrides.
pub fn job_machine(job: &JobSpec) -> MachineConfig {
    let mut machine = MachineConfig::paper();
    if let Some(kb) = job.l1d_kb {
        machine.hier.l1d.size_bytes = kb * 1024;
    }
    if let Some(ghr) = job.ghr_bits {
        machine.pred.ghr_bits = ghr;
    }
    machine
}

/// The cold (workload) half a job describes, over an already-built
/// program. Outcomes are bit-identical at any pipeline depth, so the
/// daemon and standalone verifiers may each pick their own.
pub fn job_cold_spec<'a>(job: &JobSpec, program: &'a Program) -> ColdSpec<'a> {
    let mut cold = ColdSpec::new(program)
        .regimen(SamplingRegimen::new(job.n_clusters, job.cluster_len))
        .total_insts(job.total_insts)
        .seed(job.seed);
    if let Some(span) = job.shard_span {
        cold = cold.shard_span(span);
    }
    if let Some(budget) = job.log_budget {
        cold = cold.log_budget_bytes(budget as usize);
    }
    cold
}

/// The detailed (microarchitecture) half a job describes.
pub fn job_detail_spec(job: &JobSpec) -> DetailSpec {
    DetailSpec::new(&job_machine(job)).policy(job.policy)
}

/// The job's content address: [`RunSpec::content_hash`] of the spec it
/// describes (parallelism-independent by construction).
///
/// # Errors
///
/// [`SimError::Spec`] for degenerate jobs (e.g. a regimen denser than
/// the sampled-run limit).
pub fn job_content_hash(job: &JobSpec, program: &Program) -> Result<u64, SimError> {
    RunSpec::from_parts(job_cold_spec(job, program), job_detail_spec(job)).content_hash()
}

/// Deterministic exponential backoff with seed-derived jitter: attempt
/// `a` (1-based) sleeps `base × 2^(a-1)`, capped at 64×, scaled by a
/// 75–125 % factor drawn from splitmix64 over `(seed, job hash, a)` so
/// identical retry storms never synchronize yet replay exactly.
pub fn backoff_delay(base: Duration, seed: u64, job_hash: u64, attempt: u32) -> Duration {
    let factor = 1u32 << (attempt.saturating_sub(1)).min(6);
    let nominal = base.saturating_mul(factor);
    let mut state = seed ^ job_hash ^ u64::from(attempt);
    let jitter_pct = 75 + splitmix64(&mut state) % 51; // 75..=125
    nominal.saturating_mul(jitter_pct as u32) / 100
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Mode {
    Running,
    Draining,
    Stopped,
}

struct QueuedJob {
    hash: u64,
    spec: JobSpec,
    /// Admission order — the fault plan's group key.
    index: usize,
    /// The admit-time lookup quarantined a corrupt entry; report the
    /// result as [`ResultSource::Recomputed`].
    recompute: bool,
}

struct Journal {
    dir: PathBuf,
    file: File,
}

impl Journal {
    fn admit(&mut self, hash: u64, canonical: &str) -> io::Result<()> {
        self.file.write_all(format!("+ {hash:016x} {canonical}\n").as_bytes())?;
        self.file.sync_data()
    }

    fn settle(&mut self, hash: u64) -> io::Result<()> {
        self.file.write_all(format!("- {hash:016x}\n").as_bytes())?;
        self.file.sync_data()
    }

    /// Rewrites the journal to exactly `pending` and reopens the handle
    /// (the rewrite replaces the inode the old handle pointed at). When
    /// `current`, the journal's text as last read, already is that text,
    /// there is nothing to compact and the synced rewrite is skipped.
    fn compact(&mut self, pending: &[(u64, String)], current: Option<&str>) -> io::Result<()> {
        let mut contents = String::new();
        for (hash, canonical) in pending {
            contents.push_str(&format!("+ {hash:016x} {canonical}\n"));
        }
        if current == Some(contents.as_str()) {
            return Ok(());
        }
        cache::rewrite_journal(&self.dir, &contents)?;
        self.file = cache::open_journal_file(&self.dir)?;
        Ok(())
    }
}

/// Replays the journal text: admissions minus settlements, in admission
/// order. Malformed lines (torn tails from a crash mid-append) are
/// skipped, not fatal.
fn recover_pending(text: &str) -> Vec<(u64, String)> {
    let mut order: Vec<u64> = Vec::new();
    let mut live: HashMap<u64, String> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("+ ") {
            let Some((hex, canonical)) = rest.split_once(' ') else { continue };
            let Ok(hash) = u64::from_str_radix(hex, 16) else { continue };
            if live.insert(hash, canonical.to_string()).is_none() {
                order.push(hash);
            }
        } else if let Some(hex) = line.strip_prefix("- ") {
            if let Ok(hash) = u64::from_str_radix(hex.trim(), 16) {
                live.remove(&hash);
            }
        }
    }
    order.into_iter().filter_map(|h| live.remove(&h).map(|c| (h, c))).collect()
}

struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    quarantined: u64,
    deduped: u64,
    shed: u64,
    retries: u64,
    resumed: u64,
}

struct State {
    mode: Mode,
    queue: VecDeque<QueuedJob>,
    running: usize,
    /// Content hash → waiters, present while the job is queued or
    /// running. Membership is the dedupe set.
    inflight: HashMap<u64, Vec<Sender<Response>>>,
    /// Admission counter; each admitted job's fault-plan group index.
    admitted: usize,
    stats: Counters,
    journal: Journal,
}

struct Shared {
    cache: ResultCache,
    injector: FaultInjector,
    state: Mutex<State>,
    cv: Condvar,
    accept_done: AtomicBool,
    addr: SocketAddr,
    /// Live connection handlers, joined at shutdown so the process never
    /// exits between settling a request and writing its response. Clients
    /// are one-shot (close after each response), so the joins are brief.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    scale: f64,
    admission_limit: usize,
    max_job_retries: u32,
    backoff_base: Duration,
    backoff_seed: u64,
    default_deadline: Option<Duration>,
}

impl Shared {
    /// Locks the state, surviving poisoning — a panicking connection
    /// handler must never wedge the whole daemon.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn program_for(&self, job: &JobSpec) -> Arc<Program> {
        let mut map = self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = map.get(job.bench.name()) {
            return Arc::clone(p);
        }
        let params = WorkloadParams { scale: self.scale, ..WorkloadParams::default() };
        let program = Arc::new(job.bench.build(&params));
        map.insert(job.bench.name(), Arc::clone(&program));
        program
    }

    fn stop_accepting(&self) {
        self.accept_done.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn snapshot(&self, st: &State) -> DaemonStats {
        DaemonStats {
            submitted: st.stats.submitted,
            completed: st.stats.completed,
            failed: st.stats.failed,
            cache_hits: st.stats.cache_hits,
            quarantined: st.stats.quarantined,
            deduped: st.stats.deduped,
            shed: st.stats.shed,
            retries: st.stats.retries,
            resumed: st.stats.resumed,
            pending: st.queue.len() as u64,
            running: st.running as u64,
        }
    }
}

/// A running job daemon. Dropping the handle does not stop it; use
/// [`Daemon::wait`] (block until a protocol drain), [`Daemon::drain`]
/// (drain in-process), or [`Daemon::abort`] (simulated crash).
pub struct Daemon {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon: opens the cache, recovers the journal's pending
    /// jobs, binds the listener, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the cache directory, journal, or listener.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        let result_cache = ResultCache::open(&cfg.cache_dir)?;
        let text = cache::read_journal(&cfg.cache_dir)?;
        let pending = recover_pending(&text);
        let mut journal =
            Journal { dir: cfg.cache_dir.clone(), file: cache::open_journal_file(&cfg.cache_dir)? };
        journal.compact(&pending, Some(&text))?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cores = thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        let workers = if cfg.workers == 0 { cores.min(4) } else { cfg.workers.max(1) };

        let mut state = State {
            mode: Mode::Running,
            queue: VecDeque::new(),
            running: 0,
            inflight: HashMap::new(),
            admitted: 0,
            stats: Counters {
                submitted: 0,
                completed: 0,
                failed: 0,
                cache_hits: 0,
                quarantined: 0,
                deduped: 0,
                shed: 0,
                retries: 0,
                resumed: 0,
            },
            journal,
        };
        for (hash, canonical) in pending {
            let Ok(parsed) = crate::json::parse(&canonical) else {
                let _ = state.journal.settle(hash);
                continue;
            };
            let Ok(spec) = JobSpec::from_json(&parsed) else {
                let _ = state.journal.settle(hash);
                continue;
            };
            let index = state.admitted;
            state.admitted += 1;
            state.stats.resumed += 1;
            state.inflight.insert(hash, Vec::new());
            state.queue.push_back(QueuedJob { hash, spec, index, recompute: false });
        }

        let shared = Arc::new(Shared {
            cache: result_cache,
            injector: FaultInjector::new(&cfg.fault_plan),
            state: Mutex::new(state),
            cv: Condvar::new(),
            accept_done: AtomicBool::new(false),
            addr,
            handlers: Mutex::new(Vec::new()),
            programs: Mutex::new(HashMap::new()),
            scale: cfg.scale,
            admission_limit: workers + cfg.queue_depth,
            max_job_retries: cfg.max_job_retries,
            backoff_base: cfg.backoff_base,
            backoff_seed: cfg.backoff_seed,
            default_deadline: cfg.default_deadline,
        });

        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || acceptor_loop(&shared, &listener))
        };
        Ok(Daemon { shared, acceptor: Some(acceptor), workers: worker_handles })
    }

    /// The bound address (useful with the default ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The resolved worker pool size.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> DaemonStats {
        let st = self.shared.lock();
        self.shared.snapshot(&st)
    }

    /// Blocks until a [`Request::Drain`] stops the daemon, then joins all
    /// threads and returns the final counters.
    pub fn wait(mut self) -> DaemonStats {
        let stats = {
            let mut st = self.shared.lock();
            while st.mode != Mode::Stopped {
                st = self.shared.wait(st);
            }
            self.shared.snapshot(&st)
        };
        self.join_all();
        stats
    }

    /// Drains in-process (exactly what a [`Request::Drain`] does) and
    /// returns the final counters.
    pub fn drain(self) -> DaemonStats {
        drain_and_stop(&self.shared);
        self.wait()
    }

    /// Stops *without* draining — the simulated crash: running jobs
    /// finish, queued jobs stay pending in the journal for the next
    /// start. Test harness for kill-and-restart recovery.
    pub fn abort(mut self) {
        {
            let mut st = self.shared.lock();
            st.mode = Mode::Stopped;
            // Drop every waiter's channel: their handlers answer "stopped
            // before the job settled" instead of blocking the join below.
            st.inflight.clear();
        }
        self.shared.cv.notify_all();
        self.shared.stop_accepting();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Handlers last: with the acceptor gone the set is final, and every
        // pending response gets onto the wire before the daemon returns.
        let handlers = std::mem::take(
            &mut *self.shared.handlers.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

/// Stops admission, waits for every in-flight job to settle, compacts
/// the journal, and stops the daemon. Returns the lifetime settled
/// count. Idempotent under concurrent callers.
fn drain_and_stop(shared: &Shared) -> u64 {
    let mut st = shared.lock();
    if st.mode == Mode::Running {
        st.mode = Mode::Draining;
        shared.cv.notify_all();
    }
    while !(st.queue.is_empty() && st.running == 0) {
        st = shared.wait(st);
    }
    if st.mode != Mode::Stopped {
        st.mode = Mode::Stopped;
        // Every admitted job settled, so the journal compacts to empty.
        let _ = st.journal.compact(&[], None);
        shared.cv.notify_all();
    }
    let settled = st.stats.completed + st.stats.failed;
    drop(st);
    shared.stop_accepting();
    settled
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.accept_done.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = conn {
            let cloned = Arc::clone(shared);
            let handle = thread::spawn(move || handle_connection(&cloned, stream));
            shared.handlers.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut out = handle_request(shared, &line).encode();
        out.push('\n');
        if writer.write_all(out.as_bytes()).and_then(|()| writer.flush()).is_err() {
            break;
        }
    }
}

fn handle_request(shared: &Arc<Shared>, line: &str) -> Response {
    match Request::parse(line) {
        Err(e) => Response::Error { message: e.to_string() },
        Ok(Request::Stats) => {
            let st = shared.lock();
            Response::Stats(shared.snapshot(&st))
        }
        Ok(Request::Drain) => Response::Draining { settled: drain_and_stop(shared) },
        Ok(Request::Submit { job, wait }) => handle_submit(shared, job, wait),
    }
}

fn done_response(
    hash: u64,
    source: ResultSource,
    attempts: u32,
    cached: &CachedOutcome,
) -> Response {
    Response::Done {
        hash,
        source,
        attempts,
        est_ipc: cached.est_ipc(),
        ipc_err: cached.ipc_error_bound_95(),
        clusters: cached.cluster_cpis.len() as u64,
        clusters_degraded: cached.clusters_degraded,
        log_records: cached.log_records,
    }
}

fn handle_submit(shared: &Arc<Shared>, job: JobSpec, wait: bool) -> Response {
    let program = shared.program_for(&job);
    let hash = match job_content_hash(&job, &program) {
        Ok(h) => h,
        // A degenerate job fails typed before touching the queue.
        Err(e) => {
            return Response::Failed {
                hash: 0,
                class: fail_class(&e),
                message: e.to_string(),
                attempts: 0,
            }
        }
    };
    // Probe the cache outside the lock; reads dominate in campaigns.
    let recompute = match shared.cache.lookup(hash) {
        Ok(Lookup::Hit(cached)) => {
            let mut st = shared.lock();
            if st.mode != Mode::Running {
                return Response::Error { message: "daemon is draining".to_string() };
            }
            st.stats.submitted += 1;
            st.stats.cache_hits += 1;
            return done_response(hash, ResultSource::CacheHit, 0, &cached);
        }
        Ok(Lookup::Miss) => false,
        Ok(Lookup::Quarantined) => true,
        Err(e) => return Response::Error { message: e.to_string() },
    };

    let rx: Receiver<Response> = {
        let mut st = shared.lock();
        if st.mode != Mode::Running {
            return Response::Error { message: "daemon is draining".to_string() };
        }
        st.stats.submitted += 1;
        if recompute {
            st.stats.quarantined += 1;
        }
        if st.inflight.contains_key(&hash) {
            st.stats.deduped += 1;
            if !wait {
                return Response::Queued { hash };
            }
            let (tx, rx) = mpsc::channel();
            if let Some(waiters) = st.inflight.get_mut(&hash) {
                waiters.push(tx);
            }
            rx
        } else {
            let inflight_now = (st.queue.len() + st.running) as u64;
            let limit = shared.admission_limit as u64;
            if inflight_now >= limit {
                st.stats.shed += 1;
                return Response::Overloaded { inflight: inflight_now, limit };
            }
            if let Err(e) = st.journal.admit(hash, &job.canonical_json()) {
                return Response::Error { message: format!("journal write failed: {e}") };
            }
            let index = st.admitted;
            st.admitted += 1;
            let mut waiters = Vec::new();
            let rx = if wait {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                Some(rx)
            } else {
                None
            };
            st.inflight.insert(hash, waiters);
            st.queue.push_back(QueuedJob { hash, spec: job, index, recompute });
            shared.cv.notify_all();
            match rx {
                Some(rx) => rx,
                None => return Response::Queued { hash },
            }
        }
    };
    match rx.recv() {
        Ok(response) => response,
        Err(_) => Response::Error { message: "daemon stopped before the job settled".to_string() },
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.mode == Mode::Stopped {
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if st.mode == Mode::Draining {
                    return;
                }
                st = shared.wait(st);
            }
        };
        process_job(shared, job);
    }
}

fn fail_class(e: &SimError) -> FailClass {
    match e {
        SimError::DeadlineExceeded { .. } => FailClass::Deadline,
        SimError::Panicked { .. } => FailClass::Panic,
        SimError::Spec(_) => FailClass::Spec,
        _ => FailClass::Sim,
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "worker panicked".to_string()
    }
}

fn run_attempt(
    job: &JobSpec,
    program: &Program,
    deadline: Option<Duration>,
) -> Result<rsr_core::SampleOutcome, SimError> {
    let mut cold = job_cold_spec(job, program);
    if let Some(d) = deadline {
        cold = cold.deadline(d);
    }
    // One thread per job: the pool as a whole never oversubscribes the
    // host.
    let detail = job_detail_spec(job).pipeline_depth(1);
    RunSpec::from_parts(cold, detail).run()
}

fn process_job(shared: &Arc<Shared>, job: QueuedJob) {
    let started = Instant::now();
    if let Some(stall) = shared.injector.stall_delay(job.index) {
        thread::sleep(stall);
    }
    let deadline = job.spec.deadline_ms.map(Duration::from_millis).or(shared.default_deadline);
    let program = shared.program_for(&job.spec);

    let mut attempts: u32 = 0;
    let verdict: Result<CachedOutcome, (FailClass, String)> = loop {
        // The job deadline is anchored at pickup, so stalls and backoff
        // sleeps consume it; what remains bounds the attempt itself via
        // the engine's own deadline machinery.
        let remaining = match deadline {
            Some(d) => {
                let left = d.saturating_sub(started.elapsed());
                if left.is_zero() {
                    break Err((
                        FailClass::Deadline,
                        format!("job deadline of {} ms expired", d.as_millis()),
                    ));
                }
                Some(left)
            }
            None => None,
        };
        attempts += 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if let Some(message) = shared.injector.job_panic_message(job.index) {
                panic!("{message}");
            }
            run_attempt(&job.spec, &program, remaining)
        }));
        let (retryable, class, message) = match attempt {
            Ok(Ok(outcome)) => break Ok(CachedOutcome::capture(&outcome)),
            Ok(Err(e)) => (matches!(e, SimError::Panicked { .. }), fail_class(&e), e.to_string()),
            Err(payload) => (true, FailClass::Panic, panic_text(payload)),
        };
        if retryable && attempts <= shared.max_job_retries {
            shared.lock().stats.retries += 1;
            thread::sleep(backoff_delay(
                shared.backoff_base,
                shared.backoff_seed,
                job.hash,
                attempts,
            ));
            continue;
        }
        break Err((class, message));
    };

    let response = match verdict {
        Ok(cached) => {
            let corrupt = shared.injector.corrupt_cache_entry(job.index);
            // A failed store is not a failed job: the result is in hand,
            // and the next request for this spec simply recomputes.
            let _ = shared.cache.store(job.hash, &cached, corrupt);
            let source =
                if job.recompute { ResultSource::Recomputed } else { ResultSource::Computed };
            done_response(job.hash, source, attempts, &cached)
        }
        Err((class, message)) => Response::Failed { hash: job.hash, class, message, attempts },
    };

    let waiters = {
        let mut st = shared.lock();
        st.running -= 1;
        match &response {
            Response::Done { .. } => st.stats.completed += 1,
            _ => st.stats.failed += 1,
        }
        // Settle in the journal even on failure: a deterministically
        // failing job must not be resurrected on every restart.
        let _ = st.journal.settle(job.hash);
        let waiters = st.inflight.remove(&job.hash).unwrap_or_default();
        shared.cv.notify_all();
        waiters
    };
    for tx in waiters {
        let _ = tx.send(response.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_workloads::Benchmark;

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let base = Duration::from_millis(10);
        let a1 = backoff_delay(base, 1, 2, 1);
        assert_eq!(a1, backoff_delay(base, 1, 2, 1), "same inputs, same delay");
        for attempt in 1..=4u32 {
            let d = backoff_delay(base, 1, 2, attempt);
            let nominal = base * (1 << (attempt - 1));
            assert!(d >= nominal * 3 / 4 && d <= nominal * 5 / 4, "attempt {attempt}: {d:?}");
        }
        assert_ne!(
            backoff_delay(base, 1, 2, 1),
            backoff_delay(base, 1, 3, 1),
            "different jobs jitter differently"
        );
    }

    #[test]
    fn job_hash_matches_the_standalone_spec_hash() {
        let job = JobSpec {
            n_clusters: 4,
            cluster_len: 100,
            total_insts: 20_000,
            ..JobSpec::for_bench(Benchmark::Mcf)
        };
        let program = job.bench.build(&WorkloadParams { scale: 0.05, ..Default::default() });
        let via_job = job_content_hash(&job, &program).unwrap();
        let standalone = RunSpec::new(&program, &job_machine(&job))
            .regimen(SamplingRegimen::new(4, 100))
            .total_insts(20_000)
            .seed(42)
            .pipeline_depth(7)
            .content_hash()
            .unwrap();
        assert_eq!(via_job, standalone, "wire job and standalone spec share a content address");
    }

    #[test]
    fn journal_recovery_survives_torn_lines() {
        let dir = std::env::temp_dir().join(format!("rsr-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = JobSpec::for_bench(Benchmark::Art);
        let canonical = job.canonical_json();
        let text = format!(
            "+ {:016x} {canonical}\n+ {:016x} {canonical}\n- {:016x}\n+ 00zz bad line\n+ 123",
            1u64, 2u64, 1u64
        );
        std::fs::write(dir.join(cache::JOURNAL_NAME), text).unwrap();
        let pending = recover_pending(&cache::read_journal(&dir).unwrap());
        assert_eq!(pending.len(), 1, "one admitted job unsettled");
        assert_eq!(pending[0].0, 2);
        assert_eq!(pending[0].1, canonical);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
