//! The sampled simulator: hot/cold/warm phase orchestration (Figure 1).
//!
//! Microarchitectural state (hierarchy and predictor) carries over
//! continuously from window to window, as the paper's SMARTS baseline and
//! stale-state model require: what a cluster sees is the accumulated state
//! of the whole run so far, refreshed by the configured warm-up over its
//! own skip region. The only reset points are the *canonical shard
//! boundaries* of [`crate::shard`] — checkpoint-style deliberate
//! cold-starts, placed from the schedule alone, that the warm-up policy
//! repairs — which is what lets [`crate::RunSpec::threads`] distribute a
//! run across worker threads without changing a single per-cluster CPI.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy};
use rsr_func::{Cpu, ExecError, LoadError, RetireSink, RetireSource, RetireTrace, Retired};
use rsr_isa::Program;
use rsr_stats::ClusterSample;
use rsr_timing::{simulate_cluster, simulate_cluster_hooked, to_pred_kind, CoreConfig, HotStats};

use crate::fault::FaultInjector;
use crate::log::{LogPool, ReconGeometry, ReconIndex};
use crate::profiled::{profile_reuse, ReusePolicy};
use crate::reverse::{
    reconstruct_caches_partitioned_with, BpReconstructor, ReconStats, ReconTiming,
};
use crate::{ClusterWindow, SkipLog, WarmupPolicy};

/// Errors surfaced by the sampled simulator.
///
/// Marked `#[non_exhaustive]`: downstream crates must keep a wildcard arm
/// so new failure classes (as with [`SimError::Spec`] and
/// [`SimError::Shard`]) can be added without a breaking release.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The program image failed to load.
    Load(LoadError),
    /// Execution faulted (runaway PC) or the program halted before the
    /// schedule completed.
    Exec(ExecError),
    /// The [`RunSpec`] was inconsistent or incomplete (e.g. no regimen and
    /// no schedule, or a regimen denser than the sampled-run limit).
    Spec(&'static str),
    /// A shard worker was lost without producing an outcome (the scout
    /// pass died — or was made to drop the checkpoint — before delivering
    /// it).
    Shard {
        /// Index of the lost worker group, in schedule order.
        index: usize,
    },
    /// A shard worker panicked; the payload is surfaced, not swallowed.
    ShardPanicked {
        /// Index of the panicked worker group, in schedule order.
        index: usize,
        /// The panic payload, downcast from `&str`/`String`.
        message: String,
    },
    /// A shard checkpoint failed checksum verification between the scout
    /// and a worker.
    CheckpointCorrupt {
        /// Index of the worker group whose checkpoint was corrupted.
        index: usize,
        /// Checksum the checkpoint claimed.
        expected: u64,
        /// Checksum recomputed from its contents.
        found: u64,
    },
    /// The run's [`RunSpec::deadline`] expired before every canonical
    /// shard completed. Counts are in canonical shards (schedule order),
    /// so they mean the same thing at any thread count; in a parallel run
    /// they reflect the earliest worker to trip, i.e. the prefix of the
    /// schedule known complete.
    DeadlineExceeded {
        /// Canonical shards fully simulated before the abort.
        completed_shards: usize,
        /// Canonical shards the schedule holds.
        total_shards: usize,
    },
    /// A simulation error inside a shard worker, wrapped with the group
    /// index for context. The underlying error is reachable through
    /// [`std::error::Error::source`].
    ShardFailed {
        /// Index of the failing worker group, in schedule order.
        index: usize,
        /// The underlying failure.
        source: Box<SimError>,
    },
}

impl SimError {
    /// `true` for failures of the shard *infrastructure* — a panicked
    /// worker, a lost or corrupted checkpoint — which a retry from the
    /// retained checkpoint can plausibly heal. Deterministic simulation
    /// errors (`Load`, `Exec`, `Spec`) and deadline aborts are not
    /// retryable: they would fail identically again.
    pub fn is_shard_fault(&self) -> bool {
        matches!(
            self,
            SimError::Shard { .. }
                | SimError::ShardPanicked { .. }
                | SimError::CheckpointCorrupt { .. }
        )
    }

    /// The worker-group index this error names, if any (including through
    /// a [`SimError::ShardFailed`] wrapper).
    pub fn shard_index(&self) -> Option<usize> {
        match self {
            SimError::Shard { index }
            | SimError::ShardPanicked { index, .. }
            | SimError::CheckpointCorrupt { index, .. }
            | SimError::ShardFailed { index, .. } => Some(*index),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Load(e) => write!(f, "load failed: {e}"),
            SimError::Exec(e) => write!(f, "execution failed: {e}"),
            SimError::Spec(msg) => write!(f, "invalid run spec: {msg}"),
            SimError::Shard { index } => write!(f, "shard {index} worker lost"),
            SimError::ShardPanicked { index, message } => {
                write!(f, "shard {index} worker panicked: {message}")
            }
            SimError::CheckpointCorrupt { index, expected, found } => write!(
                f,
                "shard {index} checkpoint corrupt: checksum {found:#018x}, expected {expected:#018x}"
            ),
            SimError::DeadlineExceeded { completed_shards, total_shards } => write!(
                f,
                "deadline exceeded with {completed_shards}/{total_shards} shards complete"
            ),
            SimError::ShardFailed { index, source } => {
                write!(f, "shard {index} failed: {source}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Load(e) => Some(e),
            SimError::Exec(e) => Some(e),
            SimError::ShardFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<LoadError> for SimError {
    fn from(e: LoadError) -> Self {
        SimError::Load(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// The simulated machine: core, memory hierarchy, and predictor configs.
#[derive(Clone, Debug, Default)]
pub struct MachineConfig {
    /// Out-of-order core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub hier: HierarchyConfig,
    /// Branch predictor parameters.
    pub pred: PredictorConfig,
}

impl MachineConfig {
    /// The paper's full machine (§4).
    pub fn paper() -> MachineConfig {
        MachineConfig::default()
    }
}

/// Simulation time spent in each phase of a sampled simulation.
///
/// These are per-phase *busy* times. In a sharded run they are summed
/// across workers, and under the leader/follower pipeline
/// ([`RunSpec::pipeline_depth`] > 1) the cold phase runs concurrently with
/// the warm and hot phases, so phases overlap in wall-clock terms and
/// their sum can exceed [`SampleOutcome::wall`]. See
/// [`SampleOutcome::overlap_efficiency`] for how much of the busy time was
/// hidden.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Cycle-accurate cluster simulation (including on-demand BP
    /// reconstruction work triggered inside clusters).
    pub hot: Duration,
    /// Functional fast-forwarding, including any logging.
    pub cold: Duration,
    /// Explicit warming: SMARTS/fixed-period functional warming and eager
    /// reverse reconstruction (caches, GHR, RAS).
    pub warm: Duration,
}

impl PhaseTimes {
    /// Total simulation time across phases.
    pub fn total(&self) -> Duration {
        self.hot + self.cold + self.warm
    }
}

/// Result of one sampled simulation.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// The warm-up policy that produced this outcome.
    pub policy: WarmupPolicy,
    /// Per-cluster IPCs (for display and per-cluster inspection).
    pub clusters: ClusterSample,
    /// Per-cluster CPIs — the estimation domain. With equal-size clusters
    /// the mean cluster CPI is an unbiased estimator of the full run's
    /// CPI (total cycles = mean CPI × total instructions), which the mean
    /// cluster IPC is not; estimates and confidence tests therefore live
    /// in CPI space and are inverted for reporting.
    pub cpi_clusters: ClusterSample,
    /// Per-phase simulation busy time (summed across shard workers and
    /// pipeline stages).
    pub phases: PhaseTimes,
    /// Elapsed wall-clock time for the whole run. Smaller than
    /// `phases.total()` whenever work overlaps — across shard workers
    /// ([`RunSpec::threads`]) or across pipeline stages inside a shard
    /// ([`RunSpec::pipeline_depth`]); only a sequential single-thread run
    /// has `wall ≈ phases.total()` plus scheduling overhead.
    pub wall: Duration,
    /// Hot (cycle-accurate) instructions simulated.
    pub hot_insts: u64,
    /// Instructions skipped functionally.
    pub skipped_insts: u64,
    /// Peak logged bytes of one skip region — the full packed stream, not
    /// the retention window the log keeps resident (0 for non-logging
    /// policies).
    pub log_bytes_peak: usize,
    /// Total records appended to skip logs (0 for non-logging policies).
    pub log_records: u64,
    /// Functional warm updates applied (SMARTS/fixed-period warming): one
    /// per instruction fetch plus one per memory reference plus one per
    /// branch. This is the paper's nominal count: a fetch that repeats the
    /// previous fetch's I-cache line counts here even though the warmer
    /// skips its probe, which would change no state.
    pub warm_updates: u64,
    /// Aggregated reconstruction counters (zero for non-RSR policies).
    pub recon: ReconStats,
    /// Per-structure reconstruction wall time (L1, L2, PHT, BTB). Unlike
    /// [`SampleOutcome::recon`], this is operational telemetry — it varies
    /// run to run and across thread counts.
    pub recon_timing: ReconTiming,
    /// Clusters whose skip-region log hit [`RunSpec::log_budget_bytes`]
    /// and were degraded to the paper's no-history (stale-state) fallback:
    /// the log is discarded and no reconstruction runs for that cluster.
    pub clusters_degraded: u64,
    /// Shard-group retry attempts the supervisor made (0 in a fault-free
    /// run). Like [`SampleOutcome::wall`], this is operational telemetry,
    /// not part of the deterministic estimate.
    pub shard_retries: u64,
}

impl SampleOutcome {
    /// An empty outcome for `policy`, the identity of [`absorb`].
    ///
    /// [`absorb`]: SampleOutcome::absorb
    pub fn empty(policy: WarmupPolicy) -> SampleOutcome {
        SampleOutcome {
            policy,
            clusters: ClusterSample::new(),
            cpi_clusters: ClusterSample::new(),
            phases: PhaseTimes::default(),
            wall: Duration::ZERO,
            hot_insts: 0,
            skipped_insts: 0,
            log_bytes_peak: 0,
            log_records: 0,
            warm_updates: 0,
            recon: ReconStats::default(),
            recon_timing: ReconTiming::default(),
            clusters_degraded: 0,
            shard_retries: 0,
        }
    }

    /// Merges `other` — the outcome of the windows that *follow* this
    /// outcome's windows in the schedule — into `self`.
    ///
    /// Cluster IPC/CPI vectors are concatenated (keeping schedule order),
    /// phase times and instruction/log/warm counters are summed,
    /// reconstruction counters accumulate, and `log_bytes_peak` takes the
    /// maximum (each worker's log is a separate allocation, so peaks do
    /// not add).
    pub fn absorb(&mut self, other: &SampleOutcome) {
        for &ipc in other.clusters.values() {
            self.clusters.push(ipc);
        }
        for &cpi in other.cpi_clusters.values() {
            self.cpi_clusters.push(cpi);
        }
        self.phases.hot += other.phases.hot;
        self.phases.cold += other.phases.cold;
        self.phases.warm += other.phases.warm;
        self.wall = self.wall.max(other.wall);
        self.hot_insts += other.hot_insts;
        self.skipped_insts += other.skipped_insts;
        self.log_bytes_peak = self.log_bytes_peak.max(other.log_bytes_peak);
        self.log_records += other.log_records;
        self.warm_updates += other.warm_updates;
        self.recon.accumulate(&other.recon);
        self.recon_timing.accumulate(&other.recon_timing);
        self.clusters_degraded += other.clusters_degraded;
        self.shard_retries += other.shard_retries;
    }

    /// The sample's IPC estimate: the inverse of the mean per-cluster CPI
    /// (see [`SampleOutcome::cpi_clusters`]).
    pub fn est_ipc(&self) -> f64 {
        let cpi = self.cpi_clusters.mean();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }

    /// The paper's 95 % confidence test, evaluated in CPI space: does the
    /// interval around the mean cluster CPI contain the true CPI?
    pub fn predicts_true_ipc(&self, true_ipc: f64) -> bool {
        if true_ipc <= 0.0 {
            return false;
        }
        self.cpi_clusters.predicts(1.0 / true_ipc)
    }

    /// Half-width of the 95 % confidence interval mapped to IPC units
    /// (first-order: `z·SE_cpi / mean_cpi²`).
    pub fn ipc_error_bound_95(&self) -> f64 {
        let mean = self.cpi_clusters.mean();
        if mean == 0.0 {
            return 0.0;
        }
        rsr_stats::Z_95 * self.cpi_clusters.std_error() / (mean * mean)
    }

    /// Fraction of per-phase busy time hidden by overlap:
    /// `1 − wall / phases.total()`, clamped to `[0, 1)`.
    ///
    /// Zero for a sequential single-thread run (wall ≈ sum of phases);
    /// positive when shard-level threading or the intra-shard
    /// leader/follower pipeline runs phases concurrently. Operational
    /// telemetry, like [`SampleOutcome::wall`] — never part of the
    /// deterministic estimate.
    pub fn overlap_efficiency(&self) -> f64 {
        let phases = self.phases.total().as_secs_f64();
        if phases <= 0.0 {
            return 0.0;
        }
        (1.0 - self.wall.as_secs_f64() / phases).max(0.0)
    }
}

/// Result of a full (unsampled) cycle-accurate run — the paper's
/// "true IPC" baseline.
#[derive(Clone, Debug)]
pub struct FullOutcome {
    /// Cycle-accurate statistics of the whole run.
    pub stats: HotStats,
    /// Wall-clock duration.
    pub wall: Duration,
}

impl FullOutcome {
    /// The true IPC.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Sentinel for "no fetch line known to be MRU": no 4-byte-aligned PC
/// falls in it.
const NO_LINE: u64 = u64::MAX;

/// SMARTS functional warming, as a [`RetireSink`] fused into the functional
/// core's dispatch loop.
///
/// Full functional warming is deliberately "heavy-handed" (the paper's
/// words): every instruction fetch, memory operation and branch is
/// applied, exactly as SimpleScalar-style functional warming does, and
/// [`Warmer::updates`] counts each one. RSR's logger, by contrast, records
/// instruction references only at line granularity — that asymmetry *is*
/// the storage-for-speed trade the paper describes.
///
/// One shortcut leaves the state bit for bit the same: a fetch in the same
/// L1I line as the previous fetch is counted but not probed. Between two
/// fetches only fetches touch the L1I, so that line is still the MRU way
/// of its set, and a hit on the MRU way moves only the cache's hit
/// counters, which no outcome reads. The exception is a fetch miss under
/// `prefetch_next_line`: the prefetched line can land in the same set and
/// demote the fetched one, so the warmer then forgets it. A warmer lives
/// for one skip region; the hot cluster between regions touches the L1I.
struct Warmer<'a> {
    hier: &'a mut MemHierarchy,
    pred: &'a mut Predictor,
    cache: bool,
    bp: bool,
    /// Clears the offset bits of an address within its L1I line.
    line_mask: u64,
    prefetch: bool,
    /// The line of the previous fetch while it is the MRU way of its set,
    /// else [`NO_LINE`].
    mru_line: u64,
    /// Warm updates applied: one per instruction fetch plus one per memory
    /// reference when `cache` is set, plus one per branch when `bp` is.
    updates: u64,
}

impl RetireSink for Warmer<'_> {
    #[inline(always)]
    fn retire(&mut self, r: &Retired) {
        if self.cache {
            let line = r.pc & self.line_mask;
            if line != self.mru_line {
                let hit = self.hier.warm_access(r.pc, HierAccess::Fetch);
                self.mru_line = if hit || !self.prefetch { line } else { NO_LINE };
            }
            self.updates += 1;
            if let Some(m) = r.mem {
                let kind = if m.is_store { HierAccess::Store } else { HierAccess::Load };
                self.hier.warm_access(m.addr, kind);
                self.updates += 1;
            }
        }
        if self.bp {
            if let Some(b) = r.branch {
                self.pred.warm_update(r.pc, to_pred_kind(b.kind), b.taken, b.target);
                self.updates += 1;
            }
        }
    }
}

/// Steps `n` instructions with SMARTS functional warming of the caches
/// (`cache`) and the predictor (`bp`); returns the warm updates applied.
fn warm_region(
    cpu: &mut Cpu,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    n: u64,
    cache: bool,
    bp: bool,
) -> Result<u64, ExecError> {
    let line_mask = !(hier.l1i.config().line_bytes - 1);
    let prefetch = hier.config().prefetch_next_line;
    let mut warmer =
        Warmer { hier, pred, cache, bp, line_mask, prefetch, mru_line: NO_LINE, updates: 0 };
    cpu.step_n_sink(n, &mut warmer)?;
    Ok(warmer.updates)
}

/// Can `policy`'s skip-region work run decoupled from the detailed
/// follower? True exactly when the skip region touches no
/// microarchitectural state: the no-warm-up baseline just fast-forwards,
/// and the reverse policy only *logs* (reconstruction happens at the
/// cluster boundary, on the follower's side of the channel). SMARTS,
/// fixed-period, and the reuse-profiled baselines warm the follower's
/// hierarchy/predictor *during* the skip, so leader and follower would
/// share mutable state — they cannot be pipelined.
pub(crate) fn policy_decouples(policy: WarmupPolicy) -> bool {
    matches!(policy, WarmupPolicy::Reverse { .. } | WarmupPolicy::None)
}

/// A borrowed view of the reconstruction index a window should consult,
/// decoupled from where that index lives: the follower's own scratch
/// ([`follower_window`]) or a slot of the sweep replay's arena. A `None`
/// side carries no prebuilt index, and reconstruction seals one on the
/// spot. `ghr_at_start` is the global history the predictor held when the
/// skip region began — the branch-key seed (§3.2).
pub(crate) struct WindowIndex<'l> {
    pub mem: Option<&'l ReconIndex>,
    pub br: Option<&'l ReconIndex>,
    pub ghr_at_start: u64,
}

/// The detailed half of one window: reconstruction from a sealed skip log
/// (reverse policy only), then the cycle-accurate hot cluster, then
/// bookkeeping. The cluster's instructions come from `src`: the live CPU
/// in the sequential engine, a replay of the recorded cluster trace in the
/// pipeline's follower and the sweep's replays.
///
/// Shared verbatim by the sequential engine ([`run_windows`]), the
/// pipelined follower thread ([`run_windows_pipelined`]) — both via
/// [`follower_window`] — and the sweep engine's per-config replay
/// (`crate::sweep`). That sharing is what makes bit-identity an invariant
/// by construction rather than a property to re-verify per call site.
/// `log` is `Some` exactly when the reverse policy logged this window's
/// skip region, paired with the index view the reconstruction should read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn detailed_window<S: RetireSource + ?Sized>(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    src: &mut S,
    len: u64,
    log: Option<(&SkipLog, WindowIndex<'_>)>,
    outcome: &mut SampleOutcome,
) -> Result<(), SimError> {
    let mut hook: Option<BpReconstructor> = None;
    if let Some((log, ix)) = log {
        let WarmupPolicy::Reverse { cache, bp, pct } = policy else {
            unreachable!("only the reverse policy seals skip logs");
        };
        outcome.log_bytes_peak = outcome.log_bytes_peak.max(log.peak_bytes());
        outcome.log_records += log.appended();

        if log.truncated() {
            // Budget exhausted mid-region: the history is incomplete, so
            // fall back to stale state (§3.2's no-history case) — the
            // cluster sees whatever the structures accumulated, with no
            // reconstruction.
            outcome.clusters_degraded += 1;
        } else {
            // Eager reconstruction immediately before the cluster, through
            // the view's index (sealed on the spot when the view carries
            // none for a side).
            let t = Instant::now();
            if cache {
                let (stats, timing) = reconstruct_caches_partitioned_with(hier, log, ix.mem, pct);
                outcome.recon.accumulate(&stats);
                outcome.recon_timing.accumulate(&timing);
            }
            if bp {
                hook = Some(BpReconstructor::with_index(pred, log, ix.br, ix.ghr_at_start, pct));
            }
            outcome.phases.warm += t.elapsed();
        }
        // The log is cleared at the next region: "data are kept only for
        // the current cluster of execution".
    }

    // ---- hot phase -----------------------------------------------------
    let t = Instant::now();
    let stats = match hook.as_mut() {
        Some(h) => simulate_cluster_hooked(&machine.core, src, hier, pred, len, h)?,
        None => simulate_cluster(&machine.core, src, hier, pred, len)?,
    };
    outcome.phases.hot += t.elapsed();
    if let Some(h) = hook {
        outcome.recon.accumulate(&h.stats());
        outcome.recon_timing.accumulate(&h.timing());
    }
    if stats.instructions < len {
        // The program halted inside a cluster: schedules assume
        // free-running workloads.
        return Err(SimError::Exec(ExecError::Halted));
    }
    outcome.hot_insts += stats.instructions;
    outcome.clusters.push(stats.ipc());
    outcome.cpi_clusters.push(stats.cycles as f64 / stats.instructions as f64);
    Ok(())
}

/// The in-process wrapper over [`detailed_window`]: seals the window's
/// memory and branch indexes into `ix`, the follower's own scratch keyed
/// for this machine's geometry, then hands the sealed view down. The
/// reader seals, so the functional leader only steps and logs, and no log
/// in flight carries an index. The start GHR is read *here*, from the
/// follower's predictor: during a skip region the predictor is untouched,
/// so it is the GHR the region began with. Both seals cover only the
/// budget window the reverse walks read, and are charged to the warm phase
/// alongside the reconstruction.
#[allow(clippy::too_many_arguments)]
fn follower_window<S: RetireSource + ?Sized>(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    src: &mut S,
    len: u64,
    log: Option<&SkipLog>,
    ix: &mut ReconIndex,
    outcome: &mut SampleOutcome,
) -> Result<(), SimError> {
    let log = log.map(|log| {
        let WarmupPolicy::Reverse { cache, bp, pct } = policy else {
            unreachable!("only the reverse policy logs skip regions");
        };
        let ghr_at_start = pred.gshare.ghr();
        if log.truncated() {
            // Degraded cluster: `detailed_window` counts it and skips
            // reconstruction; the view is never read.
            return (log, WindowIndex { mem: None, br: None, ghr_at_start });
        }
        let t = Instant::now();
        let geom = ix.geom;
        if cache {
            log.build_mem_index_into(&geom, pct, ix);
        }
        if bp {
            log.build_branch_index_into(&geom, ghr_at_start, pct, ix);
        }
        outcome.phases.warm += t.elapsed();
        let ix = &*ix;
        (log, WindowIndex { mem: cache.then_some(ix), br: bp.then_some(ix), ghr_at_start })
    });
    detailed_window(machine, policy, hier, pred, src, len, log, outcome)
}

/// Runs the hot/cold/warm loop over `windows`, starting from `cpu`
/// positioned at dynamic instruction index `pos` (which must precede or
/// equal the first window's start).
///
/// This is the sequential engine under both [`RunSpec::run`] paths: the
/// single-thread run uses it over the whole schedule, the sharded run
/// gives each worker a contiguous slice of windows and a checkpoint-
/// restored `cpu`. Each window builds its hierarchy and predictor from
/// scratch (see the module docs), so any contiguous partition of the
/// schedule produces identical per-cluster results.
///
/// `pool` supplies the skip-region log and carries the log budget
/// ([`RunSpec::log_budget_bytes`]); a region that exhausts it degrades its
/// cluster to the paper's no-history fallback (stale state, no
/// reconstruction), counted in [`SampleOutcome::clusters_degraded`]. The
/// decision depends only on the region's own deterministic record stream,
/// so degradation never varies with the thread count or pipeline depth.
pub(crate) fn run_windows(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    cpu: &mut Cpu,
    mut pos: u64,
    windows: &[ClusterWindow],
    pool: &mut LogPool,
) -> Result<SampleOutcome, SimError> {
    let mut outcome = SampleOutcome::empty(policy);

    // One call = one canonical shard: microarchitectural state starts cold
    // here and then carries over from window to window, exactly as the
    // paper's continuously-warmed baseline does. Shard boundaries are the
    // only reset points (see `crate::shard`), and they are placed from the
    // schedule alone so results never depend on the thread count.
    let mut hier = MemHierarchy::new(machine.hier.clone());
    let mut pred = Predictor::new(machine.pred);
    let mut index = ReconIndex::new(ReconGeometry::of_machine(machine));

    // Pooled across regions (and shards) so logging never pays
    // reallocation growth.
    let mut log = pool.take(true, true);
    for w in windows {
        let skip = w.start - pos;
        outcome.skipped_insts += skip;

        // ---- cold / warm phases over the skip region -------------------
        let mut logged: Option<&SkipLog> = None;
        match policy {
            WarmupPolicy::None => {
                let t = Instant::now();
                cpu.step_n(skip, |_| ())?;
                outcome.phases.cold += t.elapsed();
            }
            WarmupPolicy::Smarts { cache, bp } => {
                let t = Instant::now();
                outcome.warm_updates += warm_region(cpu, &mut hier, &mut pred, skip, cache, bp)?;
                outcome.phases.warm += t.elapsed();
            }
            WarmupPolicy::FixedPeriod { pct } => {
                let warm_part = pct.of(skip as usize) as u64;
                let cold_part = skip - warm_part;
                let t = Instant::now();
                cpu.step_n(cold_part, |_| ())?;
                outcome.phases.cold += t.elapsed();
                let t = Instant::now();
                outcome.warm_updates +=
                    warm_region(cpu, &mut hier, &mut pred, warm_part, true, true)?;
                outcome.phases.warm += t.elapsed();
            }
            WarmupPolicy::Reverse { cache, bp, .. } => {
                // Cold phase with logging: "no analysis is performed
                // between clusters except for logging". Stepping and
                // recording are fused into one monomorphized loop.
                // `follower_window`, which owns the predictor, reads the
                // GHR snapshot and seals.
                let t = Instant::now();
                log.reset(cache, bp, 0);
                log.record_region(cpu, skip)?;
                outcome.phases.cold += t.elapsed();
                logged = Some(&log);
            }
            WarmupPolicy::Mrrl { coverage } | WarmupPolicy::Blrl { coverage } => {
                let reuse = if matches!(policy, WarmupPolicy::Mrrl { .. }) {
                    ReusePolicy::Mrrl
                } else {
                    ReusePolicy::Blrl
                };
                // Profiling pass over the skip/cluster pair (the analysis
                // cost RSR avoids); charged to the warm phase.
                let t = Instant::now();
                let snapshot = cpu.clone();
                let profile = profile_reuse(cpu, skip, w.len, reuse)?;
                let window = profile.warm_window(coverage, skip);
                *cpu = snapshot;
                outcome.phases.warm += t.elapsed();

                let t = Instant::now();
                cpu.step_n(skip - window, |_| ())?;
                outcome.phases.cold += t.elapsed();
                let t = Instant::now();
                outcome.warm_updates += warm_region(cpu, &mut hier, &mut pred, window, true, true)?;
                outcome.phases.warm += t.elapsed();
            }
        }

        // ---- reconstruction + hot phase --------------------------------
        follower_window(
            machine,
            policy,
            &mut hier,
            &mut pred,
            cpu,
            w.len,
            logged,
            &mut index,
            &mut outcome,
        )?;
        pos = w.end();
    }
    pool.put(log);
    outcome.wall = outcome.phases.total();
    Ok(outcome)
}

/// Everything a pipelined shard needs beyond [`run_windows`]'s arguments:
/// the channel depth, the run guards the leader must observe between
/// regions, and the identifiers its errors are reported under.
pub(crate) struct PipelineCtx<'a> {
    /// Bounded channel capacity + 1: at most `depth` work items (each one
    /// log retention window plus one cluster's retire trace) exist at
    /// once — `depth - 1` queued plus one in the follower's hands.
    pub depth: usize,
    /// The run's absolute deadline; the leader checks it between regions
    /// so a run past its budget aborts at shard granularity even with the
    /// leader ahead of the follower.
    pub deadline: Option<Instant>,
    /// Fault injector, for the leader/follower panic faults.
    pub injector: Option<&'a FaultInjector>,
    /// Worker-group index (the supervision/retry unit) errors report.
    pub group: usize,
    /// Canonical shards already completed before this one, for
    /// [`SimError::DeadlineExceeded`].
    pub shard: usize,
    /// Canonical shards in the whole schedule.
    pub total_shards: usize,
}

/// One unit of leader → follower work: a cluster's length, the retire
/// trace the leader recorded while stepping through it, and — for the
/// reverse policy — the skip region's log (records only; the follower
/// seals). The follower sends the item back once done, so traces and logs
/// recycle instead of reallocating.
struct HotItem {
    len: u64,
    trace: RetireTrace,
    log: Option<SkipLog>,
}

/// The decoupled leader/follower engine for one canonical shard.
///
/// The functional leader runs ahead, executing skip regions (logging them
/// under the reverse policy) *and* cluster regions (recording their
/// retire traces), and emits one [`HotItem`] per window into a bounded
/// channel; the detailed follower consumes items strictly in schedule
/// order, sealing and reconstructing from each log and timing each hot
/// cluster from its trace. Cold-phase
/// time thus hides under warm + hot time; results are bit-identical to
/// [`run_windows`] because both sides execute the same deterministic
/// computations on the same inputs — the leader's architectural state
/// never depends on the follower's microarchitectural state, and the
/// follower's window half is literally the same function
/// ([`follower_window`]) the sequential engine calls.
///
/// Error precedence mirrors the sequential engine: the follower fails at
/// the schedule-earliest faulty window (it processes in order and never
/// runs ahead of the leader), so its error wins over the leader's; a
/// panic on either side is resumed on the caller's thread and surfaces
/// through the shard supervisor as [`SimError::ShardPanicked`]. On a
/// deadline trip the leader stops producing and the follower drains the
/// queue before the error is returned.
pub(crate) fn run_windows_pipelined(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    cpu: &mut Cpu,
    mut pos: u64,
    windows: &[ClusterWindow],
    pool: &mut LogPool,
    ctx: &PipelineCtx<'_>,
) -> Result<SampleOutcome, SimError> {
    debug_assert!(ctx.depth >= 2, "depth 1 is the sequential engine");
    debug_assert!(policy_decouples(policy), "caller must gate on policy_decouples");
    let t0 = Instant::now();
    let (cache, bp, logging) = match policy {
        WarmupPolicy::Reverse { cache, bp, .. } => (cache, bp, true),
        _ => (false, false, false),
    };
    let mut leader_out = SampleOutcome::empty(policy);
    let mut leader_err: Option<SimError> = None;

    let follower_result = thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<HotItem>(ctx.depth - 1);
        // Unbounded return path for drained items; capacity is still
        // bounded by the number of items in flight (≤ depth).
        let (recycle_tx, recycle_rx) = mpsc::channel::<HotItem>();
        let mut traces: Vec<RetireTrace> = Vec::new();
        let injector = ctx.injector;
        let group = ctx.group;
        let follower =
            scope.spawn(move || follower_loop(machine, policy, rx, recycle_tx, injector, group));

        if let Some(inj) = ctx.injector {
            if let Some(msg) = inj.leader_panic_message(ctx.group) {
                std::panic::panic_any(msg);
            }
        }

        for w in windows {
            if let Some(deadline) = ctx.deadline {
                if Instant::now() >= deadline {
                    leader_err = Some(SimError::DeadlineExceeded {
                        completed_shards: ctx.shard,
                        total_shards: ctx.total_shards,
                    });
                    break;
                }
            }
            let skip = w.start - pos;
            leader_out.skipped_insts += skip;
            while let Ok(used) = recycle_rx.try_recv() {
                reclaim(used, pool, &mut traces);
            }

            // ---- cold phase: skip region (logged or plain) -------------
            let t = Instant::now();
            let log = if logging {
                let mut log = pool.take(cache, bp);
                match log.record_region(cpu, skip) {
                    Ok(()) => Some(log),
                    Err(e) => {
                        leader_out.phases.cold += t.elapsed();
                        pool.put(log);
                        leader_err = Some(e.into());
                        break;
                    }
                }
            } else {
                match cpu.step_n(skip, |_| ()) {
                    Ok(()) => None,
                    Err(e) => {
                        leader_out.phases.cold += t.elapsed();
                        leader_err = Some(e.into());
                        break;
                    }
                }
            };

            // ---- cold phase: the leader stays the functional reference
            // by stepping through the cluster, recording what retires for
            // the follower, so the next skip starts from this cluster's
            // end. A trace that stops early carries its error to the
            // follower, which fails at the same instruction the
            // sequential engine would -----------------------------------
            let mut trace = traces.pop().unwrap_or_default();
            let stepped = trace.record(cpu, w.len);
            leader_out.phases.cold += t.elapsed();
            if tx.send(HotItem { len: w.len, trace, log }).is_err() {
                // The follower hung up early — it failed; its error (taken
                // from the join below) is schedule-earlier than anything
                // the leader could still produce.
                break;
            }
            if let Err(e) = stepped {
                leader_err = Some(e.into());
                break;
            }
            pos = w.end();
        }

        // Sealing the channel lets the follower drain and exit.
        drop(tx);
        let joined = match follower.join() {
            Ok(result) => result,
            // Re-raise the follower's panic on this thread so the shard
            // supervisor's catch_unwind sees the original payload.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        while let Ok(used) = recycle_rx.try_recv() {
            reclaim(used, pool, &mut traces);
        }
        joined
    });

    // Follower errors win (they are schedule-earliest; see above), then
    // the leader's.
    let follower_out = follower_result?;
    if let Some(e) = leader_err {
        return Err(e);
    }
    leader_out.absorb(&follower_out);
    leader_out.wall = t0.elapsed();
    Ok(leader_out)
}

/// Returns a drained [`HotItem`]'s buffers to the leader's pools. Traces
/// share the log pool's bound: one per window in flight.
fn reclaim(item: HotItem, pool: &mut LogPool, traces: &mut Vec<RetireTrace>) {
    if let Some(log) = item.log {
        pool.put(log);
    }
    if traces.len() < LogPool::MAX_POOLED {
        traces.push(item.trace);
    }
}

/// The follower thread: consume [`HotItem`]s in order, run the shared
/// per-window detailed half on a replay of each cluster's trace, and send
/// each drained item back for reuse.
fn follower_loop(
    machine: &MachineConfig,
    policy: WarmupPolicy,
    rx: mpsc::Receiver<HotItem>,
    recycle: mpsc::Sender<HotItem>,
    injector: Option<&FaultInjector>,
    group: usize,
) -> Result<SampleOutcome, SimError> {
    if let Some(inj) = injector {
        if let Some(msg) = inj.follower_panic_message(group) {
            std::panic::panic_any(msg);
        }
    }
    let mut outcome = SampleOutcome::empty(policy);
    // The follower owns the shard's microarchitectural state, cold-started
    // here exactly as the sequential engine cold-starts it per shard.
    let mut hier = MemHierarchy::new(machine.hier.clone());
    let mut pred = Predictor::new(machine.pred);
    let mut index = ReconIndex::new(ReconGeometry::of_machine(machine));
    while let Ok(item) = rx.recv() {
        follower_window(
            machine,
            policy,
            &mut hier,
            &mut pred,
            &mut item.trace.cursor(),
            item.len,
            item.log.as_ref(),
            &mut index,
            &mut outcome,
        )?;
        // The leader may already be gone (deadline, error); a dead
        // recycle channel just means the item is dropped.
        let _ = recycle.send(item);
    }
    Ok(outcome)
}

/// The full-trace cycle-accurate baseline behind [`RunSpec::run_full`].
pub(crate) fn run_full_once(
    program: &Program,
    machine: &MachineConfig,
    total_insts: u64,
) -> Result<FullOutcome, SimError> {
    let mut cpu = Cpu::new(program)?;
    let mut hier = MemHierarchy::new(machine.hier.clone());
    let mut pred = Predictor::new(machine.pred);
    let t = Instant::now();
    let stats = simulate_cluster(&machine.core, &mut cpu, &mut hier, &mut pred, total_insts)?;
    Ok(FullOutcome { stats, wall: t.elapsed() })
}

/// Functionally skips `n` instructions with a custom per-instruction
/// action. Exposed for SimPoint-style consumers that fast-forward with or
/// without warming.
///
/// # Errors
///
/// Propagates functional-simulation faults.
pub fn skip_with(cpu: &mut Cpu, n: u64, action: impl FnMut(&Retired)) -> Result<(), ExecError> {
    cpu.step_n(n, action)
}

/// SMARTS-style functional warming of both structures while skipping
/// (used by the SimPoint comparison's `-SMARTS` variants and checkpoint
/// replay). Leaves the hierarchy and predictor exactly as warming every
/// instruction one by one would; only the L1I's hit counters may read
/// lower (see the sampled engine's warmer).
///
/// # Errors
///
/// Propagates functional-simulation faults.
pub fn skip_with_smarts_warming(
    cpu: &mut Cpu,
    hier: &mut MemHierarchy,
    pred: &mut Predictor,
    n: u64,
) -> Result<(), ExecError> {
    warm_region(cpu, hier, pred, n, true, true).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pct, RunSpec, SamplingRegimen, Schedule};
    use rsr_workloads::{Benchmark, WorkloadParams};

    fn quick_machine() -> MachineConfig {
        MachineConfig::paper()
    }

    fn quick_regimen() -> SamplingRegimen {
        SamplingRegimen::new(8, 500)
    }

    fn program() -> Program {
        Benchmark::Twolf.build(&WorkloadParams { scale: 0.05, ..Default::default() })
    }

    fn sample(
        program: &Program,
        machine: &MachineConfig,
        regimen: SamplingRegimen,
        total: u64,
        policy: WarmupPolicy,
        seed: u64,
    ) -> SampleOutcome {
        RunSpec::new(program, machine)
            .regimen(regimen)
            .total_insts(total)
            .policy(policy)
            .seed(seed)
            .run()
            .unwrap()
    }

    #[test]
    fn sampled_run_produces_clusters() {
        let out = sample(
            &program(),
            &quick_machine(),
            quick_regimen(),
            100_000,
            WarmupPolicy::Smarts { cache: true, bp: true },
            42,
        );
        assert_eq!(out.clusters.len(), 8);
        assert_eq!(out.hot_insts, 8 * 500);
        assert!(out.est_ipc() > 0.0);
        assert!(out.phases.total() > Duration::ZERO);
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn policies_share_cluster_positions() {
        // Same seed ⇒ same skipped/hot instruction counts across policies.
        let a =
            sample(&program(), &quick_machine(), quick_regimen(), 100_000, WarmupPolicy::None, 7);
        let b = sample(
            &program(),
            &quick_machine(),
            quick_regimen(),
            100_000,
            WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            7,
        );
        assert_eq!(a.skipped_insts, b.skipped_insts);
        assert_eq!(a.hot_insts, b.hot_insts);
    }

    #[test]
    fn reverse_policy_logs_and_reconstructs() {
        let out = sample(
            &program(),
            &quick_machine(),
            quick_regimen(),
            100_000,
            WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            42,
        );
        assert!(out.log_bytes_peak > 0, "reverse policy must log");
        assert!(out.recon.cache_inserted > 0, "cache reconstruction ran");
        assert!(out.recon.branch_scanned > 0, "on-demand BP scan ran");
    }

    #[test]
    fn none_policy_does_not_log() {
        let out =
            sample(&program(), &quick_machine(), quick_regimen(), 100_000, WarmupPolicy::None, 42);
        assert_eq!(out.log_bytes_peak, 0);
        assert_eq!(out.recon, ReconStats::default());
    }

    #[test]
    fn warmup_reduces_error_vs_none() {
        // The premise of the paper: against the true IPC, SMARTS warm-up
        // beats no warm-up.
        let machine = quick_machine();
        let program = program();
        let total = 200_000;
        let truth = RunSpec::new(&program, &machine).total_insts(total).run_full().unwrap().ipc();
        let regimen = SamplingRegimen::new(10, 500);
        let none = sample(&program, &machine, regimen, total, WarmupPolicy::None, 5);
        let smarts = sample(
            &program,
            &machine,
            regimen,
            total,
            WarmupPolicy::Smarts { cache: true, bp: true },
            5,
        );
        let err_none = rsr_stats::relative_error(truth, none.est_ipc());
        let err_smarts = rsr_stats::relative_error(truth, smarts.est_ipc());
        assert!(
            err_smarts < err_none,
            "SMARTS RE {err_smarts:.4} should beat None RE {err_none:.4} (truth {truth:.3})"
        );
    }

    #[test]
    fn reverse_tracks_smarts_accuracy() {
        let machine = quick_machine();
        let program = program();
        let total = 200_000;
        let regimen = SamplingRegimen::new(10, 500);
        let smarts = sample(
            &program,
            &machine,
            regimen,
            total,
            WarmupPolicy::Smarts { cache: true, bp: true },
            5,
        );
        let reverse = sample(
            &program,
            &machine,
            regimen,
            total,
            WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(100) },
            5,
        );
        let gap = (smarts.est_ipc() - reverse.est_ipc()).abs() / smarts.est_ipc();
        assert!(gap < 0.1, "R$BP(100%) IPC {} vs SMARTS {}", reverse.est_ipc(), smarts.est_ipc());
    }

    #[test]
    fn profiled_baselines_run_and_warm() {
        for policy in [
            WarmupPolicy::Mrrl { coverage: Pct::new(95) },
            WarmupPolicy::Blrl { coverage: Pct::new(95) },
        ] {
            let out = sample(&program(), &quick_machine(), quick_regimen(), 100_000, policy, 42);
            assert_eq!(out.clusters.len(), 8, "{policy}");
            assert!(out.est_ipc() > 0.0, "{policy}");
            // twolf's random swaps reuse lines across the boundary, so a
            // 95% coverage target must warm something.
            assert!(out.warm_updates > 0, "{policy} warmed nothing");
        }
    }

    #[test]
    fn mrrl_warms_at_least_as_much_as_blrl() {
        // MRRL's histogram is a superset (it also counts intra-cluster and
        // compulsory references at distance zero), so at equal coverage its
        // window — and with it the warm work — can differ; both must stay
        // within the skip budget.
        let machine = quick_machine();
        let program = program();
        let mrrl = sample(
            &program,
            &machine,
            quick_regimen(),
            100_000,
            WarmupPolicy::Mrrl { coverage: Pct::new(99) },
            7,
        );
        let blrl = sample(
            &program,
            &machine,
            quick_regimen(),
            100_000,
            WarmupPolicy::Blrl { coverage: Pct::new(99) },
            7,
        );
        assert!(mrrl.warm_updates as f64 <= 3.0 * mrrl.skipped_insts as f64);
        assert!(blrl.warm_updates as f64 <= 3.0 * blrl.skipped_insts as f64);
    }

    #[test]
    fn full_run_is_deterministic() {
        let machine = quick_machine();
        let program = program();
        let a = RunSpec::new(&program, &machine).total_insts(50_000).run_full().unwrap();
        let b = RunSpec::new(&program, &machine).total_insts(50_000).run_full().unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn spec_entry_points_agree() {
        // The regimen builder, an explicit pre-generated schedule, and a
        // spec recomposed from its cold/detailed halves are three routes to
        // the same run — all must agree bit for bit.
        let machine = quick_machine();
        let program = program();
        let policy = WarmupPolicy::Smarts { cache: true, bp: true };
        let via_spec = sample(&program, &machine, quick_regimen(), 100_000, policy, 11);
        let schedule = Schedule::generate(quick_regimen(), 100_000, 11);
        let via_sched =
            RunSpec::new(&program, &machine).schedule(schedule).policy(policy).run().unwrap();
        assert_eq!(via_sched.cpi_clusters.values(), via_spec.cpi_clusters.values());
        let (cold, detail) = RunSpec::new(&program, &machine)
            .regimen(quick_regimen())
            .total_insts(100_000)
            .policy(policy)
            .seed(11)
            .into_parts();
        let via_parts = RunSpec::from_parts(cold, detail).run().unwrap();
        assert_eq!(via_parts.cpi_clusters.values(), via_spec.cpi_clusters.values());
    }

    #[test]
    fn merge_concatenates_in_schedule_order() {
        // absorb() is the sharded runner's merge: cluster vectors
        // concatenate, counters sum, the log peak maxes. Replaying the
        // canonical shards by hand and merging must reproduce the engine
        // bit for bit.
        let machine = quick_machine();
        let program = program();
        let policy = WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(50) };
        let schedule = Schedule::generate(quick_regimen(), 100_000, 9);
        let windows = schedule.windows();
        let span = 30_000;
        let whole = RunSpec::new(&program, &machine)
            .schedule(schedule.clone())
            .policy(policy)
            .shard_span(span)
            .run()
            .unwrap();

        let shards = crate::shard::partition_by_span(windows, span);
        assert!(shards.len() >= 2, "span must split this schedule");
        let mut cpu = Cpu::new(&program).unwrap();
        let mut merged = SampleOutcome::empty(policy);
        let mut pool = LogPool::new(None);
        let mut pos = 0u64;
        for r in &shards {
            let out = run_windows(&machine, policy, &mut cpu, pos, &windows[r.clone()], &mut pool)
                .unwrap();
            merged.absorb(&out);
            pos = windows[r.end - 1].end();
        }

        assert_eq!(merged.cpi_clusters.values(), whole.cpi_clusters.values());
        assert_eq!(merged.clusters.values(), whole.clusters.values());
        assert_eq!(merged.hot_insts, whole.hot_insts);
        assert_eq!(merged.skipped_insts, whole.skipped_insts);
        assert_eq!(merged.log_records, whole.log_records);
        assert_eq!(merged.warm_updates, whole.warm_updates);
        assert_eq!(merged.recon, whole.recon);
        assert_eq!(merged.log_bytes_peak, whole.log_bytes_peak);
    }

    #[test]
    fn runspec_rejects_degenerate_specs() {
        let machine = quick_machine();
        let program = program();
        assert!(matches!(RunSpec::new(&program, &machine).run(), Err(SimError::Spec(_))));
        assert!(matches!(
            RunSpec::new(&program, &machine).regimen(quick_regimen()).run(),
            Err(SimError::Spec(_))
        ));
        // Regimen denser than the sampled-run limit: an error, not a panic.
        assert!(matches!(
            RunSpec::new(&program, &machine)
                .regimen(SamplingRegimen::new(100, 1000))
                .total_insts(150_000)
                .run(),
            Err(SimError::Spec(_))
        ));
        assert!(matches!(RunSpec::new(&program, &machine).run_full(), Err(SimError::Spec(_))));
    }
}
