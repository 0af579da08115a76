//! The capture/replay stream: one cold pass, one or many detailed configs.
//!
//! The skip log is *config-independent* — addresses and branch outcomes
//! are properties of the workload's functional stream, not of any cache or
//! predictor geometry (DESIGN.md §9). A fig7/fig8-style sweep over N
//! microarchitectures therefore only needs the functional pass once:
//! [`SweepSpec`] runs the cold half a single time, capturing per window
//! the cluster's retire trace (a [`RetireTrace`]: what the cluster
//! retired, 64 bytes per instruction) plus the skip log of its skip
//! region, then replays the detailed half once per named [`DetailSpec`]
//! against the captured window. A 20-config sweep costs ~1 cold pass + 20
//! hot slices instead of 20 full runs. The captured logs keep resident
//! only the widest config's scan-budget window (see
//! [`SkipLog::set_retention`]), which serves every narrower budget.
//!
//! The same stream is the pipelined standalone engine: a
//! [`crate::RunSpec`] at pipeline depth ≥ 2 is a stream with one config.
//!
//! **Replay is windows-outer, configs-inner** (DESIGN.md §16). Per
//! captured window the replay builds each *distinct* reconstruction
//! index once into a pooled arena — memory spans keyed by `(cache-set
//! geometry, scan pct)`, branch columns by `(PHT bits, BTB entries, scan
//! pct, start GHR)`, each covering only the budget window — and every
//! config threads a borrowed [`WindowIndex`] view of the shared, sealed
//! build to the common [`detailed_window`]. A 20-config
//! L1D×GHR grid therefore builds ~5 memory and ~4 branch indexes per
//! window instead of 20 of each. The sharing is sound because each
//! consumer checks only its own side's geometry (see
//! `reconstruct_caches_partitioned` and `BpReconstructor::with_index`), and
//! because the GHR entering a window is a shift register of *functional*
//! branch outcomes — configs with equal history width hold bit-equal GHRs
//! at every window boundary.
//!
//! **There is no machine state to restore.** The timing core reads the
//! functional simulator only through its retired records, so a config
//! replays a cursor over the window's trace and never touches a CPU. All
//! configs, at every replay width, read the same immutable trace. The
//! trace's size follows the cluster length, not the program's footprint:
//! a 3000-instruction cluster costs 192 KiB, against 6 MiB for an mcf CPU
//! image.
//!
//! **Configs can replay in parallel.** The captured windows are immutable
//! once sealed, so [`SweepSpec::replay_threads`] fans the config list
//! across `std::thread::scope` workers in contiguous chunks; each chunk
//! owns its configs' hierarchy/predictor state for the whole run.
//! Results are bit-identical at every worker count because each config
//! still sees exactly the standalone engine's inputs in the standalone
//! engine's order. At every canonical cut (see
//! [`crate::RunSpec::shard_span`]) every config's hierarchy and predictor
//! restart cold in place, before the cut's first window replays.
//!
//! **Capture streams into replay.** The calling thread runs the
//! functional leader ([`Leader`]) and owns the CPU and the log and trace
//! pools: it steps each skip region (logging it), records each cluster's
//! trace, and sends the window through a bounded channel. One replay
//! thread replays every window through every config as it arrives and
//! sends it back for reuse. So the functional pass of the next windows
//! runs on one core while the configs replay the current one, and a run
//! holds at most the channel bound + 2 windows at once: the queued ones,
//! the one in capture and the one in replay. The alternative — capturing
//! the whole schedule before replaying it — idles every replay core
//! during capture and retains every captured window's log and trace at
//! once.
//!
//! **One helper thread per run, and the pool owner outlives it.** glibc
//! hands a new thread the malloc arena that the last exiting thread
//! released, so which thread exits last decides where the next run's
//! buffers land. The pools live on the calling thread, which joins the
//! replay thread (and the replay thread joins its per-window workers), so
//! the pool owner always exits last and its buffers always return to the
//! same arena. An earlier layout ran the capture on a spawned thread and
//! had to make it wait for the replay's workers; a depth-2 standalone run
//! there read 2–3 MiB more peak RSS on mcf than with the leader on the
//! calling thread.
//!
//! Errors resolve in schedule order: the replay never runs ahead of the
//! capture, so its error is the schedule-earliest and wins; a replay error
//! hangs up the channel, which stops the capture; a panic on either side
//! reaches the caller's `catch_unwind` with its own payload.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_func::Cpu;

use crate::fault::FaultInjector;
use crate::log::{check_indexable, LogPool, MemKey, ReconGeometry, ReconIndex, SkipLog};
use crate::policy::Pct;
use crate::sampler::{
    check_deadline, detailed_window, partition_by_span, policy_decouples, typed_panics,
    CapturedWindow, Leader, WindowIndex,
};
use crate::spec::{ColdSpec, DetailSpec};
use crate::{SampleOutcome, Schedule, SimError, WarmupPolicy};

/// Windows a sweep's capture channel queues. A sweep holds at most this
/// many plus two windows at once (the one in capture, the one in replay).
const CHANNEL_BOUND: usize = 2;

/// The per-config result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepConfigOutcome {
    /// The config's name, as registered with [`SweepSpec::config`].
    pub name: String,
    /// The config's sample outcome — bit-identical (in every
    /// deterministic field) to a standalone [`crate::RunSpec`] run of the
    /// same cold half and detailed half. `wall` is the config's replay
    /// share alone (its summed replay time); the shared cold pass is
    /// reported once in [`SweepOutcome::cold_wall`].
    pub outcome: SampleOutcome,
}

/// The result of [`SweepSpec::run`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-config outcomes, in registration order.
    pub configs: Vec<SweepConfigOutcome>,
    /// Time the functional capture took: the leader's busy time, summed
    /// over its windows. Capture overlaps the replay thread, so
    /// `cold_wall` plus the replay time can exceed
    /// [`SweepOutcome::wall`]; on a host with fewer free cores than the
    /// sweep has threads it also counts time the leader waited to run. It stands for the cold pass a standalone run would
    /// also have paid, which is what anchors
    /// [`SweepOutcome::amortization`].
    pub cold_wall: Duration,
    /// Total wall time of the sweep (capture overlapped with every
    /// replay).
    pub wall: Duration,
    /// Canonical shard count of the captured schedule: its cuts + 1.
    pub shards: usize,
    /// Reconstruction indexes actually built across the sweep.
    pub index_builds: u64,
    /// Per-config index requests served by an already-built index in the
    /// same window's memo instead of a rebuild. `builds + shared` equals
    /// what the pre-memo engine would have built.
    pub index_builds_shared: u64,
    /// Bytes of machine state the replays restored between configs.
    /// Always 0: every config replays the window's immutable retire trace,
    /// so there is no machine state to restore. Kept so existing readers
    /// of the field still compile.
    pub restore_bytes: u64,
    /// The replay fan-out the sweep actually used (see
    /// [`SweepSpec::resolved_replay_threads`]).
    pub replay_threads: usize,
}
impl SweepOutcome {
    /// The sweep's amortization ratio in work, not wall: the summed
    /// per-config replay time plus one cold pass, over what N standalone
    /// runs would have cost (N × cold + the same replay time). Below 1.0
    /// means the sweep saved work; `1/N + ε` is the ideal for
    /// hot-slice-dominated configs. It does not credit the overlap of
    /// capture with replay, which shows only in [`SweepOutcome::wall`].
    pub fn amortization(&self) -> f64 {
        let replay: Duration = self.configs.iter().map(|c| c.outcome.wall).sum();
        let standalone =
            self.cold_wall.as_secs_f64() * self.configs.len() as f64 + replay.as_secs_f64();
        let swept = self.cold_wall.as_secs_f64() + replay.as_secs_f64();
        if standalone == 0.0 {
            1.0
        } else {
            swept / standalone
        }
    }
}

/// A design-space sweep: one cold/workload half fanned out across N named
/// detailed configs.
///
/// ```no_run
/// use rsr_core::{ColdSpec, DetailSpec, MachineConfig, SamplingRegimen, SweepSpec};
/// use rsr_workloads::{Benchmark, WorkloadParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Benchmark::Mcf.build(&WorkloadParams::default());
/// let machine = MachineConfig::paper();
/// let mut big = machine.clone();
/// big.hier.l1d.size_bytes *= 2;
/// let sweep = SweepSpec::new(
///     ColdSpec::new(&program)
///         .regimen(SamplingRegimen::new(60, 3000))
///         .total_insts(8_000_000)
///         .seed(42),
/// )
/// .config("base", DetailSpec::new(&machine))
/// .config("big-l1d", DetailSpec::new(&big));
/// let out = sweep.run()?;
/// for c in &out.configs {
///     println!("{}: IPC {:.3}", c.name, c.outcome.est_ipc());
/// }
/// # Ok(())
/// # }
/// ```
pub struct SweepSpec<'a> {
    cold: ColdSpec<'a>,
    configs: Vec<(String, DetailSpec)>,
    replay_threads: Option<usize>,
}

impl<'a> SweepSpec<'a> {
    /// Starts a sweep over `cold`'s workload with no configs yet.
    pub fn new(cold: ColdSpec<'a>) -> SweepSpec<'a> {
        SweepSpec { cold, configs: Vec::new(), replay_threads: None }
    }

    /// Registers a named detailed config. Replays run in registration
    /// order; results keep the name.
    pub fn config(mut self, name: impl Into<String>, detail: DetailSpec) -> Self {
        self.configs.push((name.into(), detail));
        self
    }

    /// Sets how many configs replay concurrently per captured window
    /// (default 0 = auto; see [`SweepSpec::resolved_replay_threads`]).
    /// Results are bit-identical at every value: each worker chunk owns
    /// its configs' microarchitectural state for the whole run, so every
    /// config sees the standalone engine's exact inputs.
    pub fn replay_threads(mut self, threads: usize) -> Self {
        self.replay_threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The workload half this sweep captures.
    pub fn cold(&self) -> &ColdSpec<'a> {
        &self.cold
    }

    /// The registered `(name, detailed half)` pairs, in replay order.
    pub fn configs(&self) -> &[(String, DetailSpec)] {
        &self.configs
    }

    /// The replay fan-out a run will actually use. An explicit
    /// [`SweepSpec::replay_threads`] is honored as given (clamped to
    /// ≥ 1); auto takes the host's hardware threads. Either way the result
    /// is clamped to the config count (a wider fan-out would just idle).
    pub fn resolved_replay_threads(&self) -> usize {
        let n = self.configs.len().max(1);
        if let Some(t) = self.replay_threads {
            return t.clamp(1, n);
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).clamp(1, n)
    }

    /// Validates the sweep: the cold half must pass
    /// [`ColdSpec::validate`], at least one config must be registered,
    /// every config's policy must decouple its skip regions from detailed
    /// state (`Reverse` or `None` — a policy that warms *during* the skip
    /// cannot replay from a shared functional capture), and every config
    /// must log the same streams (the log's record stream — and with it
    /// `log_records`, `log_bytes_peak`, and budget truncation — is shared,
    /// so it must be the same stream every config's standalone run would
    /// have produced).
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] describing the first violated rule.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cold.validate()?;
        if self.configs.is_empty() {
            return Err(SimError::Spec("sweep has no detailed configs"));
        }
        for (_, detail) in &self.configs {
            if !policy_decouples(detail.policy) {
                return Err(SimError::Spec(
                    "sweep configs must use a decoupled policy (reverse or none)",
                ));
            }
        }
        let sig = logging_signature(self.configs[0].1.policy);
        for (_, detail) in &self.configs[1..] {
            if logging_signature(detail.policy) != sig {
                return Err(SimError::Spec(
                    "sweep configs must log the same streams (same cache/bp flags)",
                ));
            }
        }
        Ok(())
    }

    /// Runs the sweep: one pass over the schedule in which the calling
    /// thread captures each cold window once and streams it to the replay
    /// thread, which replays it through every config in registration
    /// order (windows-outer, with per-window index sharing
    /// and shared retire traces — see the module docs).
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] from [`SweepSpec::validate`], and for logging
    /// configs whose skip regions could log more records than a u32 index
    /// addresses; [`SimError::DeadlineExceeded`] when the cold half's
    /// deadline expires (checked by the replay at every canonical shard
    /// and by the capture before every window, so `completed_shards`
    /// counts the cuts passed); [`SimError::Panicked`] when either thread
    /// panics; otherwise as the underlying engines.
    pub fn run(&self) -> Result<SweepOutcome, SimError> {
        typed_panics(|| {
            self.validate()?;
            let t_total = Instant::now();
            let schedule = self.cold.build_schedule()?;
            let (log_cache, log_bp) = logging_signature(self.configs[0].1.policy);
            if log_cache || log_bp {
                check_indexable(&schedule)?;
            }
            let replay_threads = self.resolved_replay_threads();
            let details: Vec<&DetailSpec> = self.configs.iter().map(|(_, d)| d).collect();
            let streamed = stream(&self.cold, &schedule, &details, replay_threads, CHANNEL_BOUND)?;
            let configs = self
                .configs
                .iter()
                .zip(streamed.outcomes)
                .map(|((name, _), outcome)| SweepConfigOutcome { name: name.clone(), outcome })
                .collect();
            Ok(SweepOutcome {
                configs,
                cold_wall: streamed.capture,
                wall: t_total.elapsed(),
                shards: streamed.shards,
                index_builds: streamed.index_builds,
                index_builds_shared: streamed.index_builds_shared,
                restore_bytes: 0,
                replay_threads,
            })
        })
    }
}

/// The `(cache, bp)` stream flags a policy's skip regions log.
fn logging_signature(policy: WarmupPolicy) -> (bool, bool) {
    match policy {
        WarmupPolicy::Reverse { cache, bp, .. } => (cache, bp),
        _ => (false, false),
    }
}

/// The memory-side memo key: the cache-set geometry the spans are keyed
/// by, plus the scan budget whose window they cover.
type MemMemoKey = (MemKey, Pct);

/// The branch-side memo key: exactly the fields `BpReconstructor::with_index`
/// checks (PHT width, BTB entries, scan budget, and the GHR entering the
/// window). The GHR is config-independent for a given history width — it
/// is a shift register of the *functional* stream's branch outcomes — so
/// the key collapses across every config sharing `ghr_bits`.
type BrKey = (u32, usize, Pct, u64);

/// One config's per-window index assignment, produced by [`plan_window`]:
/// arena slots for the sides this config reconstructs, plus the GHR its
/// predictor held entering the window (the branch-key seed).
#[derive(Clone, Copy, Default)]
struct WindowPlan {
    mem: Option<u32>,
    br: Option<u32>,
    ghr: u64,
}

/// A pooled arena of reconstruction indexes. Per window the replay
/// takes one slot per *distinct* memo key and builds into it (a config
/// that builds both sides puts them in one slot, as the sequential engine
/// does with its one index); slots keep
/// their column allocations across windows
/// ([`ReconIndex::retarget`] re-keys without freeing), so steady-state
/// index building allocates nothing.
#[derive(Default)]
struct IndexArena {
    slots: Vec<ReconIndex>,
}

impl IndexArena {
    /// Slot `i`, grown on demand and re-keyed for `geom`.
    fn slot(&mut self, i: u32, geom: ReconGeometry) -> &mut ReconIndex {
        let i = i as usize;
        while self.slots.len() <= i {
            self.slots.push(ReconIndex::new(geom));
        }
        let ix = &mut self.slots[i];
        ix.retarget(geom);
        ix
    }
}

/// Per-window memo state, recycled window to window. The memos are linear
/// vectors, not maps: a sweep has at most a few dozen configs and far
/// fewer distinct keys.
#[derive(Default)]
struct MemoScratch {
    mem: Vec<(MemMemoKey, u32)>,
    br: Vec<(BrKey, u32)>,
    plans: Vec<WindowPlan>,
}

/// One config's replay state, owned by one chunk for the whole run: the
/// hierarchy and predictor evolve across windows exactly as a standalone
/// run's would, and restart cold at every canonical cut.
struct ConfigReplay<'d> {
    detail: &'d DetailSpec,
    geom: ReconGeometry,
    pct: Pct,
    want_cache: bool,
    want_bp: bool,
    hier: MemHierarchy,
    pred: Predictor,
    outcome: SampleOutcome,
    replay: Duration,
}

impl<'d> ConfigReplay<'d> {
    fn new(detail: &'d DetailSpec) -> ConfigReplay<'d> {
        let (want_cache, want_bp) = logging_signature(detail.policy);
        ConfigReplay {
            detail,
            geom: ReconGeometry::of_machine(&detail.machine),
            pct: detail.policy.scan_budget(),
            want_cache,
            want_bp,
            hier: MemHierarchy::new(detail.machine.hier.clone()),
            pred: Predictor::new(detail.machine.pred),
            outcome: SampleOutcome::empty(detail.policy),
            replay: Duration::ZERO,
        }
    }

    /// A canonical cut: the hierarchy and predictor restart cold, exactly
    /// where the sequential engine restarts its own.
    fn cut(&mut self) {
        self.hier = MemHierarchy::new(self.detail.machine.hier.clone());
        self.pred = Predictor::new(self.detail.machine.pred);
    }
}

/// Builds (or shares) this window's reconstruction indexes and fills one
/// [`WindowPlan`] per config. Build time is charged to the warm phase of
/// the config that *triggered* the build; memo hits cost nothing, which
/// is the point.
fn plan_window(
    log: &SkipLog,
    chunks: &mut [Vec<ConfigReplay<'_>>],
    arena: &mut IndexArena,
    memo: &mut MemoScratch,
    builds: &mut u64,
    shared: &mut u64,
) {
    memo.mem.clear();
    memo.br.clear();
    let mut used = 0usize;
    for (c, st) in chunks.iter_mut().flatten().enumerate() {
        let ghr = st.pred.gshare.ghr();
        let mut plan = WindowPlan { mem: None, br: None, ghr };
        // The slot this config opened for its own memory build, if any:
        // a slot holds one memory and one branch side, so the config's
        // own branch build joins it rather than opening another.
        let mut opened: Option<u32> = None;
        if st.want_cache {
            let key = (st.geom.mem_key(), st.pct);
            plan.mem = Some(match memo.mem.iter().find(|(k, _)| *k == key) {
                Some(&(_, slot)) => {
                    *shared += 1;
                    slot
                }
                None => {
                    let slot = used as u32;
                    used += 1;
                    let t = Instant::now();
                    log.build_mem_index_into(&st.geom, st.pct, arena.slot(slot, st.geom));
                    st.outcome.phases.warm += t.elapsed();
                    *builds += 1;
                    memo.mem.push((key, slot));
                    opened = Some(slot);
                    slot
                }
            });
        }
        if st.want_bp {
            let key = (st.geom.ghr_bits, st.geom.btb_entries, st.pct, ghr);
            plan.br = Some(match memo.br.iter().find(|(k, _)| *k == key) {
                Some(&(_, slot)) => {
                    *shared += 1;
                    slot
                }
                None => {
                    let (slot, ix) = match opened {
                        // Already keyed to this config's geometry; re-keying
                        // would unseal the memory side just built.
                        Some(slot) => (slot, &mut arena.slots[slot as usize]),
                        None => {
                            used += 1;
                            (used as u32 - 1, arena.slot(used as u32 - 1, st.geom))
                        }
                    };
                    let t = Instant::now();
                    log.build_branch_index_into(&st.geom, ghr, st.pct, ix);
                    st.outcome.phases.warm += t.elapsed();
                    *builds += 1;
                    memo.br.push((key, slot));
                    slot
                }
            });
        }
        memo.plans[c] = plan;
    }
}

/// One config's replay of one window — the single [`detailed_window`]
/// call site of the stream, threading the window's shared log, a
/// fresh cursor over its shared trace, and this config's planned index
/// view.
fn replay_one(
    st: &mut ConfigReplay<'_>,
    w: &CapturedWindow,
    plan: WindowPlan,
    arena: &IndexArena,
) -> Result<(), SimError> {
    st.outcome.skipped_insts += w.skip;
    let log = w.log.as_ref().map(|log| {
        let view = if log.truncated() {
            // Degraded cluster: `detailed_window` counts it and skips
            // reconstruction; the view is never read.
            WindowIndex { mem: None, br: None, ghr_at_start: 0 }
        } else {
            WindowIndex {
                mem: plan.mem.map(|i| &arena.slots[i as usize]),
                br: plan.br.map(|i| &arena.slots[i as usize]),
                ghr_at_start: plan.ghr,
            }
        };
        (log, view)
    });
    detailed_window(
        &st.detail.machine,
        st.detail.policy,
        &mut st.hier,
        &mut st.pred,
        &mut w.trace.cursor(),
        w.len,
        log,
        &mut st.outcome,
    )
}

/// Replays one window through one chunk's configs, in registration order.
/// `first` is the chunk's first config's index in the whole config list.
fn replay_chunk_window(
    configs: &mut [ConfigReplay<'_>],
    w: &CapturedWindow,
    plans: &[WindowPlan],
    first: usize,
    arena: &IndexArena,
) -> Result<(), SimError> {
    for (k, st) in configs.iter_mut().enumerate() {
        let t = Instant::now();
        let r = replay_one(st, w, plans[first + k], arena);
        st.replay += t.elapsed();
        r?;
    }
    Ok(())
}

/// What one pass of the stream produced.
pub(crate) struct Streamed {
    /// Per-config outcomes, in the order the configs were given; each
    /// `wall` is that config's summed replay time.
    pub outcomes: Vec<SampleOutcome>,
    /// The leader's busy time: the run's cold phase.
    pub capture: Duration,
    /// Canonical shards in the schedule: its cuts + 1.
    pub shards: usize,
    /// Reconstruction indexes built.
    pub index_builds: u64,
    /// Index requests served by a build another config triggered.
    pub index_builds_shared: u64,
}

/// The stream: the calling thread runs the functional [`Leader`] over
/// the whole schedule and sends each window through a channel queuing at
/// most `bound` windows; one replay thread replays every window through
/// every config of `details`, fanned across `replay_workers` chunks. The
/// one engine behind both [`SweepSpec::run`] and a pipelined
/// [`crate::RunSpec::run`] (one config, `bound = depth - 1`).
pub(crate) fn stream(
    cold: &ColdSpec<'_>,
    schedule: &Schedule,
    details: &[&DetailSpec],
    replay_workers: usize,
    bound: usize,
) -> Result<Streamed, SimError> {
    let windows = schedule.windows();
    let shards = partition_by_span(windows, cold.shard_span);
    let shards = &shards[..];
    let deadline = cold.deadline_instant();
    let injector = cold.fault_plan.as_ref().map(FaultInjector::new);
    let injector = injector.as_ref();
    // One capture serves every config, so its logs keep the widest scan
    // budget any of them reconstructs under.
    let retention = details.iter().map(|d| d.policy.scan_budget()).max().unwrap_or(Pct::new(100));
    let (log_cache, log_bp) =
        details.first().map_or((false, false), |d| logging_signature(d.policy));
    let streams = (log_cache || log_bp).then_some((log_cache, log_bp));
    let mut cpu = Cpu::new(cold.program)?;

    thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<CapturedWindow>(bound);
        let (recycle_tx, recycle_rx) = mpsc::channel::<CapturedWindow>();
        let replayer = s.spawn(move || {
            replay(&rx, &recycle_tx, shards, deadline, injector, details, replay_workers)
        });
        // Logs and traces recycle through the replay's return channel, so
        // the pool only ever refills the windows in flight.
        let mut pool = LogPool::new(cold.resolved_log_budget()).retaining(retention);
        let mut leader = Leader::new(&mut pool, streams, injector);
        let captured = leader.capture(&mut cpu, windows, shards, deadline, &tx, &recycle_rx);
        // Hanging up lets the replay drain and return.
        drop(tx);
        let replayed = match replayer.join() {
            Ok(r) => r,
            // Re-raise the replay thread's panic here, payload intact.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        leader.reclaim(&recycle_rx);
        // The replay never runs ahead of the capture, so its error is the
        // schedule-earliest; then the capture's.
        let mut streamed = replayed?;
        streamed.capture = captured.map(|()| leader.cold)?;
        Ok(streamed)
    })
}

/// The replay side of the stream, on its own thread: per canonical
/// shard, check the deadline and (past the first) cut every config's
/// state, then replay the shard's windows as the leader sends them —
/// windows-outer, with per-window index planning, then the configs fanned
/// across `workers` contiguous chunks. The first chunk runs on the replay
/// thread and each other chunk on a scoped worker; all of them read the
/// same immutable window. Stops early, without an error of its own, when
/// the leader hangs up; the leader's own result says why. An armed
/// [`crate::FaultKind::FollowerPanic`] fires here, before any window is
/// replayed.
fn replay(
    rx: &Receiver<CapturedWindow>,
    recycle: &Sender<CapturedWindow>,
    shards: &[Range<usize>],
    deadline: Option<Instant>,
    injector: Option<&FaultInjector>,
    details: &[&DetailSpec],
    workers: usize,
) -> Result<Streamed, SimError> {
    if let Some(msg) = injector.and_then(FaultInjector::follower_panic_message) {
        std::panic::panic_any(msg);
    }
    let n = details.len();
    let workers = workers.clamp(1, n.max(1));
    let mut builds = 0u64;
    let mut shared = 0u64;

    // Chunks partition the config list contiguously and evenly.
    let mut chunks: Vec<Vec<ConfigReplay<'_>>> = Vec::with_capacity(workers);
    {
        let base = n / workers;
        let extra = n % workers;
        let mut at = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < extra);
            chunks.push(details[at..at + take].iter().map(|d| ConfigReplay::new(d)).collect());
            at += take;
        }
    }
    let mut arena = IndexArena::default();
    let mut memo = MemoScratch::default();
    memo.plans.resize(n, WindowPlan::default());

    'run: for (shard, range) in shards.iter().enumerate() {
        check_deadline(deadline, shard, shards.len())?;
        if shard > 0 {
            chunks.iter_mut().flatten().for_each(ConfigReplay::cut);
        }
        for _ in range.clone() {
            let Ok(w) = rx.recv() else { break 'run };
            // -- build each distinct index once for this window --
            if let Some(log) = w.log.as_ref().filter(|l| !l.truncated()) {
                plan_window(log, &mut chunks, &mut arena, &mut memo, &mut builds, &mut shared);
            }

            // -- every chunk replays the window; errors resolve in chunk
            // order so the failing config is deterministic --
            let arena = &arena;
            let plans = &memo.plans[..];
            let mut result: Result<(), SimError> = Ok(());
            let window = &w;
            thread::scope(|s| {
                let (lead, rest) = chunks.split_at_mut(1);
                let mut first = lead[0].len();
                let mut handles = Vec::with_capacity(rest.len());
                for configs in rest.iter_mut() {
                    let f = first;
                    first += configs.len();
                    handles.push(
                        s.spawn(move || replay_chunk_window(configs, window, plans, f, arena)),
                    );
                }
                result = replay_chunk_window(&mut lead[0], window, plans, 0, arena);
                for h in handles {
                    let r = match h.join() {
                        Ok(r) => r,
                        // Re-raise with the worker's own payload intact.
                        Err(payload) => std::panic::resume_unwind(payload),
                    };
                    if result.is_ok() {
                        result = r;
                    }
                }
            });
            result?;
            // The capture may already be gone; then the window just drops.
            let _ = recycle.send(w);
        }
    }

    let outcomes = chunks
        .into_iter()
        .flatten()
        .map(|st| SampleOutcome { wall: st.replay, ..st.outcome })
        .collect();
    Ok(Streamed {
        outcomes,
        capture: Duration::ZERO,
        shards: shards.len(),
        index_builds: builds,
        index_builds_shared: shared,
    })
}
