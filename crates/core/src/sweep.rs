//! The design-space sweep engine: one cold pass, many detailed configs.
//!
//! The skip log is *config-independent* — addresses and branch outcomes
//! are properties of the workload's functional stream, not of any cache or
//! predictor geometry (DESIGN.md §9). A fig7/fig8-style sweep over N
//! microarchitectures therefore only needs the functional pass once:
//! [`SweepSpec`] runs the cold half a single time, capturing per window a
//! CPU snapshot at the cluster boundary plus the sealed skip log of its
//! skip region (shared behind an [`Arc`]), then replays the detailed half
//! once per named [`DetailSpec`] against the captured state. A 20-config
//! sweep costs ~1 cold pass + 20 hot slices instead of 20 full runs.
//!
//! **Replay is windows-outer, configs-inner** (DESIGN.md §16). Per
//! captured window the replay leader builds each *distinct* reconstruction
//! index once into a pooled arena — memory spans keyed by the cache-set
//! geometry, branch columns by `(PHT bits, BTB entries, scan pct, start
//! GHR)` — and every config threads a borrowed [`WindowIndex`] view of the
//! shared, sealed build to the common [`detailed_window`]. A 20-config
//! L1D×GHR grid therefore builds ~5 memory and ~4 branch indexes per
//! window instead of 20 of each. The sharing is sound because each
//! consumer checks only its own side's geometry (see
//! `reconstruct_caches_partitioned` and `BpReconstructor::with_index`), and
//! because the GHR entering a window is a shift register of *functional*
//! branch outcomes — configs with equal history width hold bit-equal GHRs
//! at every window boundary.
//!
//! **State restore is journaled, not copied.** The first N−1 configs at a
//! window run inside a [`Cpu::begin_journal`] episode and
//! [`Cpu::undo_journal`] afterwards, so restoring the shared snapshot
//! costs traffic proportional to the window's actual write set instead of
//! a full-image `clone_from` per (window × config). This is the first
//! committed step toward ROADMAP item 5's true reverse execution.
//!
//! **Configs can replay in parallel.** The captured windows are immutable
//! once sealed, so [`SweepSpec::replay_threads`] fans the config list
//! across `std::thread::scope` workers in contiguous chunks; each chunk
//! owns its configs' hierarchy/predictor state for the whole shard and a
//! private working CPU re-cloned once per window (then journaled between
//! its configs). Results are bit-identical at every worker count because
//! each config still sees exactly the standalone engine's inputs in the
//! standalone engine's order.
//!
//! Capture and replay are *fused per canonical shard*: a worker group
//! captures one shard's windows, immediately replays them through every
//! config, then recycles the logs and snapshots (via [`LogPool`] and a
//! CPU-snapshot pool, both bounded by [`pool_bound`]) for the next shard.
//! The alternative — capturing the whole schedule before any replay —
//! retains every window's log and snapshot at once (gigabytes at fig5
//! scale) and was measurably page-fault-bound; fusing bounds the resident
//! footprint to one shard's windows per group and faults each buffer in
//! once. Outcomes are unaffected: per-shard replay state is the canonical
//! cold-start either way, and per-shard outcomes merge through
//! [`SampleOutcome::absorb`] in schedule order, exactly like the
//! standalone sharded runner.
//!
//! The fused pass runs under the same supervision as a normal sharded
//! run — scout checkpoints, panic capture, checksum verification, retries,
//! deadline, log budget — via the generic [`run_sharded_with`]
//! orchestrator, so fault healing behaves identically through the sweep
//! path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_func::Cpu;

use crate::fault::FaultInjector;
use crate::log::{
    check_indexable, pool_bound, LogPool, MemKey, ReconGeometry, ReconIndex, SkipLog,
};
use crate::policy::Pct;
use crate::sampler::{detailed_window, policy_decouples, WindowIndex};
use crate::shard::{check_deadline, run_sharded_with, GroupCtx, RunGuards};
use crate::spec::{ColdSpec, DetailSpec};
use crate::{SampleOutcome, SimError, WarmupPolicy};

/// One captured cluster window: the functional state at the cluster
/// boundary and the sealed log of the skip region that led to it.
struct SealedWindow {
    /// Instructions skipped before this cluster.
    skip: u64,
    /// Cluster length in instructions.
    len: u64,
    /// CPU snapshot at the cluster start (the follower-side input). The
    /// serial replay path mutates it directly under a journal and rewinds;
    /// after the *last* config the window is dead, so its final state is
    /// never read again.
    cpu: Cpu,
    /// The skip region's sealed, immutable log — `None` when no config
    /// logs any stream.
    log: Option<Arc<SkipLog>>,
}

/// One shard's fused capture+replay result: per-config outcomes in
/// registration order, how the shard's wall split between the shared
/// capture and each config's replay, and the shard's index/restore
/// telemetry.
struct ShardResult {
    outcomes: Vec<SampleOutcome>,
    capture: Duration,
    replays: Vec<Duration>,
    index_builds: u64,
    index_builds_shared: u64,
    restore_bytes: u64,
}

/// The per-config result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepConfigOutcome {
    /// The config's name, as registered with [`SweepSpec::config`].
    pub name: String,
    /// The config's sample outcome — bit-identical (in every
    /// deterministic field) to a standalone [`crate::RunSpec`] run of the
    /// same cold half and detailed half. `wall` is the config's replay
    /// share alone (its slowest group's summed replay time); the shared
    /// cold pass is reported once in [`SweepOutcome::cold_wall`].
    pub outcome: SampleOutcome,
}

/// The result of [`SweepSpec::run`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-config outcomes, in registration order.
    pub configs: Vec<SweepConfigOutcome>,
    /// Wall share of the functional capture work: the slowest group's
    /// summed per-shard capture time. Capture interleaves with replay
    /// shard by shard, but this is the cold pass a standalone run would
    /// also have paid, so it anchors [`SweepOutcome::amortization`].
    pub cold_wall: Duration,
    /// Total wall time of the sweep (capture + every replay).
    pub wall: Duration,
    /// Canonical shard count of the captured schedule.
    pub shards: usize,
    /// Shard-group retries the fused pass needed (see
    /// [`crate::RunSpec::max_shard_retries`]).
    pub shard_retries: u64,
    /// Reconstruction indexes actually built across the sweep.
    pub index_builds: u64,
    /// Per-config index requests served by an already-built index in the
    /// same window's memo instead of a rebuild. `builds + shared` equals
    /// what the pre-memo engine would have built.
    pub index_builds_shared: u64,
    /// Total journal-undo traffic (old bytes written back, plus one
    /// register-file snapshot per episode) the replays paid to rewind the
    /// shared snapshots.
    pub restore_bytes: u64,
    /// The replay fan-out the sweep actually used (see
    /// [`SweepSpec::resolved_replay_threads`]).
    pub replay_threads: usize,
}

impl SweepOutcome {
    /// The sweep's amortization ratio: the summed per-config replay wall
    /// plus one cold pass, over what N standalone runs would have cost
    /// (N × (cold + replay)). Below 1.0 means the sweep saved time;
    /// `1/N + ε` is the ideal for hot-slice-dominated configs.
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
/// let sweep = SweepSpec::new(
///     ColdSpec::new(&program)
///         .regimen(SamplingRegimen::new(60, 3000))
///         .total_insts(8_000_000)
///         .seed(42),
/// )
/// .config("base", DetailSpec::new(&machine).threads(4))
/// .config("big-l1d", DetailSpec::new(&machine).threads(4));
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
    /// its configs' microarchitectural state for the whole shard, so
    /// every config sees the standalone engine's exact inputs.
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

    /// The capture-pass worker count a run will actually use: the largest
    /// [`DetailSpec::threads`] any registered config asks for.
    pub fn resolved_capture_threads(&self) -> usize {
        self.configs.iter().map(|(_, d)| d.threads.max(1)).max().unwrap_or(1)
    }

    /// The replay fan-out a run will actually use. An explicit
    /// [`SweepSpec::replay_threads`] is honored as given (clamped to
    /// ≥ 1); auto divides the host's hardware threads by the capture
    /// groups ([`SweepSpec::resolved_capture_threads`]), so the two
    /// parallelism layers never oversubscribe. Either way the result is
    /// clamped to the config count (a wider fan-out would just idle).
    pub fn resolved_replay_threads(&self) -> usize {
        let n = self.configs.len().max(1);
        if let Some(t) = self.replay_threads {
            return t.clamp(1, n);
        }
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        (cores / self.resolved_capture_threads()).clamp(1, n)
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

    /// Runs the sweep: one supervised pass over the schedule that, per
    /// canonical shard, captures the cold windows once and replays them
    /// through every config in registration order (windows-outer, with
    /// per-window index sharing and journaled state restore — see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] from [`SweepSpec::validate`], and for logging
    /// configs whose skip regions could log more records than a u32 index
    /// addresses; [`SimError::DeadlineExceeded`] when the cold half's deadline
    /// expires (checked at every shard boundary); otherwise as the
    /// underlying engines.
    pub fn run(&self) -> Result<SweepOutcome, SimError> {
        self.validate()?;
        let t_total = Instant::now();
        let schedule = self.cold.build_schedule()?;
        let (log_cache, log_bp) = logging_signature(self.configs[0].1.policy);
        if log_cache || log_bp {
            check_indexable(&schedule)?;
        }
        let capture_threads = self.resolved_capture_threads();
        let replay_workers = self.resolved_replay_threads();
        let injector = self.cold.fault_plan.as_ref().map(FaultInjector::new);
        let guards = RunGuards {
            log_budget: self.cold.resolved_log_budget(),
            deadline: self.cold.deadline_instant(),
            max_retries: self.cold.max_shard_retries,
            injector: injector.as_ref(),
            // The capture side is purely functional; the pipeline layer
            // belongs to the standalone engines.
            pipeline_depth: 1,
        };
        let details: Vec<&DetailSpec> = self.configs.iter().map(|(_, d)| d).collect();

        // ---- fused pass: capture each shard once, replay it N ways -----
        let body = |cpu: &mut Cpu, ctx: GroupCtx<'_>| {
            let mut out = Vec::with_capacity(ctx.shards.len());
            // Capture buffers recycle shard to shard: a shard's sealed
            // logs and snapshots are dead once every config has replayed
            // it, so the group's resident footprint is one shard's
            // windows, not the whole schedule's. `appended`/`peak_bytes`/
            // truncation are capacity-independent, so pooled logs match
            // the standalone path's accounting bit for bit. Both pools
            // share the [`pool_bound`] retention policy.
            let snap_bound = pool_bound(replay_workers);
            let mut pool = LogPool::with_bound(guards.log_budget, snap_bound);
            let mut snaps: Vec<Cpu> = Vec::new();
            // Replay scratch recycled shard to shard: the index arena's
            // column allocations and the parallel chunks' working CPUs
            // are the expensive parts.
            let mut scratch = ReplayScratch::default();
            // Column-size hint carried across this group's regions: a
            // growing log would otherwise re-discover its size through
            // doubling reallocations, and at fig5 column sizes every
            // doubling is an mmap/munmap round trip.
            let mut hint = (0usize, 0usize);
            for (i, r) in ctx.shards.iter().enumerate() {
                let shard = ctx.first_shard + i;
                check_deadline(&guards, shard, ctx.total_shards)?;

                // -- capture this shard's windows --
                let t_capture = Instant::now();
                let mut pos = ctx.shard_starts[shard];
                let mut windows = Vec::with_capacity(r.len());
                for w in &ctx.windows[r.clone()] {
                    let skip = w.start - pos;
                    let log = if log_cache || log_bp {
                        let mut log = pool.take(log_cache, log_bp);
                        log.reserve_records(hint.0, hint.1);
                        log.record_region(cpu, skip)?;
                        hint = log.record_counts();
                        Some(Arc::new(log))
                    } else {
                        cpu.step_n(skip, |_| ())?;
                        None
                    };
                    let snap = match snaps.pop() {
                        Some(mut s) => {
                            s.clone_from(cpu);
                            s
                        }
                        None => cpu.clone(),
                    };
                    cpu.step_n(w.len, |_| ())?;
                    windows.push(SealedWindow { skip, len: w.len, cpu: snap, log });
                    pos = w.end();
                }
                let capture = t_capture.elapsed();

                // -- replay the captured shard through every config --
                let replay =
                    replay_windows(&mut windows, &details, replay_workers, &mut scratch, cpu)?;

                // -- recycle the shard's capture buffers --
                for w in windows {
                    if let Some(log) = w.log {
                        if let Ok(log) = Arc::try_unwrap(log) {
                            pool.put(log);
                        }
                    }
                    if snaps.len() < snap_bound {
                        snaps.push(w.cpu);
                    }
                }
                out.push(ShardResult {
                    outcomes: replay.outcomes,
                    capture,
                    replays: replay.replays,
                    index_builds: replay.index_builds,
                    index_builds_shared: replay.index_builds_shared,
                    restore_bytes: replay.restore_bytes,
                });
            }
            Ok(out)
        };
        let (groups, shard_retries) = run_sharded_with(
            self.cold.program,
            &schedule,
            capture_threads,
            self.cold.shard_span,
            &guards,
            &body,
        )?;

        // ---- merge: shard results arrive grouped, in schedule order ----
        let total_shards: usize = groups.iter().map(Vec::len).sum();
        let cold_wall = groups
            .iter()
            .map(|g| g.iter().map(|s| s.capture).sum::<Duration>())
            .max()
            .unwrap_or(Duration::ZERO);
        let mut configs = Vec::with_capacity(self.configs.len());
        for (c, (name, _)) in self.configs.iter().enumerate() {
            let mut outcome = SampleOutcome::empty(self.configs[c].1.policy);
            // `absorb` is exactly the standalone sharded runner's merge,
            // applied in the same schedule order.
            for s in groups.iter().flatten() {
                outcome.absorb(&s.outcomes[c]);
            }
            outcome.shard_retries += shard_retries;
            // Groups run concurrently, so a config's replay wall is its
            // slowest group's summed share.
            outcome.wall = groups
                .iter()
                .map(|g| g.iter().map(|s| s.replays[c]).sum::<Duration>())
                .max()
                .unwrap_or(Duration::ZERO);
            configs.push(SweepConfigOutcome { name: name.clone(), outcome });
        }
        let all = || groups.iter().flatten();

        Ok(SweepOutcome {
            configs,
            cold_wall,
            wall: t_total.elapsed(),
            shards: total_shards,
            shard_retries,
            index_builds: all().map(|s| s.index_builds).sum(),
            index_builds_shared: all().map(|s| s.index_builds_shared).sum(),
            restore_bytes: all().map(|s| s.restore_bytes).sum(),
            replay_threads: replay_workers,
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

/// The reverse policy's scan budget — the branch index's flush
/// last-writer bits are sealed relative to it. Only consulted when the
/// policy logs branches (`logging_signature`), so the non-reverse arm is
/// never observed.
fn reverse_pct(policy: WarmupPolicy) -> Pct {
    match policy {
        WarmupPolicy::Reverse { pct, .. } => pct,
        _ => Pct::new(100),
    }
}

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

/// A pooled arena of reconstruction indexes. Per window the replay leader
/// takes one slot per *distinct* memo key and builds into it; slots keep
/// their column allocations across windows and shards
/// ([`ReconIndex::retarget`] re-keys without freeing), so steady-state
/// index building allocates nothing.
#[derive(Default)]
struct IndexArena {
    slots: Vec<ReconIndex>,
}

impl IndexArena {
    /// Slot `i`, grown on demand and re-keyed for `geom`.
    fn slot(&mut self, i: usize, geom: ReconGeometry) -> &mut ReconIndex {
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
    mem: Vec<(MemKey, u32)>,
    br: Vec<(BrKey, u32)>,
    plans: Vec<WindowPlan>,
}

/// One config's replay state, owned by one chunk for a whole shard: the
/// hierarchy and predictor start cold at the shard boundary (the
/// canonical cold-start) and evolve across the shard's windows exactly as
/// a standalone run's would.
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
            pct: reverse_pct(detail.policy),
            want_cache,
            want_bp,
            hier: MemHierarchy::new(detail.machine.hier.clone()),
            pred: Predictor::new(detail.machine.pred),
            outcome: SampleOutcome::empty(detail.policy),
            replay: Duration::ZERO,
        }
    }
}

/// One replay worker's shard-long state: a contiguous chunk of the config
/// list (so per-config evolution order matches registration order) plus
/// the working CPU the parallel path clones each window into. Serial
/// replay (one chunk) runs directly on the captured snapshots and carries
/// no working CPU at all.
struct ChunkState<'d> {
    configs: Vec<ConfigReplay<'d>>,
    hot_cpu: Option<Cpu>,
    restore_bytes: u64,
}

/// Group-level replay scratch recycled across shards: the index arena's
/// columns, the memo vectors, and the parallel chunks' working CPUs.
#[derive(Default)]
struct ReplayScratch {
    arena: IndexArena,
    memo: MemoScratch,
    hot_cpus: Vec<Cpu>,
}

/// What one shard's replay produced, in config registration order.
struct ShardReplay {
    outcomes: Vec<SampleOutcome>,
    replays: Vec<Duration>,
    index_builds: u64,
    index_builds_shared: u64,
    restore_bytes: u64,
}

/// Builds (or shares) this window's reconstruction indexes and fills one
/// [`WindowPlan`] per config. Build time is charged to the warm phase of
/// the config that *triggered* the build; memo hits cost nothing, which
/// is the point.
fn plan_window(
    log: &SkipLog,
    chunks: &mut [ChunkState<'_>],
    arena: &mut IndexArena,
    memo: &mut MemoScratch,
    builds: &mut u64,
    shared: &mut u64,
) {
    memo.mem.clear();
    memo.br.clear();
    let mut used = 0usize;
    let mut c = 0usize;
    for ch in chunks.iter_mut() {
        for st in ch.configs.iter_mut() {
            let ghr = st.pred.gshare.ghr();
            let mut plan = WindowPlan { mem: None, br: None, ghr };
            if st.want_cache {
                let key = st.geom.mem_key();
                plan.mem = Some(match memo.mem.iter().find(|(k, _)| *k == key) {
                    Some(&(_, slot)) => {
                        *shared += 1;
                        slot
                    }
                    None => {
                        let slot = used as u32;
                        used += 1;
                        let t = Instant::now();
                        log.build_mem_index_into(&st.geom, arena.slot(used - 1, st.geom));
                        st.outcome.phases.warm += t.elapsed();
                        *builds += 1;
                        memo.mem.push((key, slot));
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
                        let slot = used as u32;
                        used += 1;
                        let t = Instant::now();
                        log.build_branch_index_into(
                            &st.geom,
                            ghr,
                            st.pct,
                            arena.slot(used - 1, st.geom),
                        );
                        st.outcome.phases.warm += t.elapsed();
                        *builds += 1;
                        memo.br.push((key, slot));
                        slot
                    }
                });
            }
            memo.plans[c] = plan;
            c += 1;
        }
    }
}

/// One config's replay of one window — the single [`detailed_window`]
/// call site of the sweep engine, threading the window's shared log and
/// this config's planned index view.
fn replay_one(
    st: &mut ConfigReplay<'_>,
    skip: u64,
    len: u64,
    log: Option<&Arc<SkipLog>>,
    cpu: &mut Cpu,
    plan: WindowPlan,
    arena: &IndexArena,
) -> Result<(), SimError> {
    st.outcome.skipped_insts += skip;
    let log = log.map(|log| {
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
        (&**log, view)
    });
    detailed_window(
        &st.detail.machine,
        st.detail.policy,
        &mut st.hier,
        &mut st.pred,
        cpu,
        len,
        log,
        &mut st.outcome,
    )
}

/// Replays one window through one chunk's configs on `cpu`, journaling
/// between configs so each one starts from the captured image. The last
/// config skips the episode: its final state is never read again (the
/// serial path retires the window; the parallel path re-clones next
/// window).
#[allow(clippy::too_many_arguments)]
fn replay_chunk_window(
    configs: &mut [ConfigReplay<'_>],
    restore_bytes: &mut u64,
    skip: u64,
    len: u64,
    log: Option<&Arc<SkipLog>>,
    cpu: &mut Cpu,
    plans: &[WindowPlan],
    first: usize,
    arena: &IndexArena,
) -> Result<(), SimError> {
    let n = configs.len();
    for (k, st) in configs.iter_mut().enumerate() {
        let t = Instant::now();
        let journal = k + 1 < n;
        if journal {
            cpu.begin_journal();
        }
        let r = replay_one(st, skip, len, log, cpu, plans[first + k], arena);
        if journal {
            // Undo even on error: the rewind is cheap and leaves the
            // window coherent for whatever supervision does next.
            *restore_bytes += cpu.undo_journal();
        }
        st.replay += t.elapsed();
        r?;
    }
    Ok(())
}

/// Replays one captured shard through every config: windows-outer, with
/// per-window index planning and either the serial in-place path (one
/// chunk, zero clones, journal-rewind between configs) or the parallel
/// fan-out (one scoped worker per chunk, one `clone_from` per worker per
/// window, journal-rewind within each chunk).
fn replay_windows<'d>(
    windows: &mut [SealedWindow],
    details: &[&'d DetailSpec],
    workers: usize,
    scratch: &mut ReplayScratch,
    group_cpu: &Cpu,
) -> Result<ShardReplay, SimError> {
    let n = details.len();
    let workers = workers.clamp(1, n);
    let mut builds = 0u64;
    let mut shared = 0u64;

    // Fresh per shard: the canonical cold-start. Chunks partition the
    // config list contiguously and evenly.
    let mut chunks: Vec<ChunkState<'d>> = Vec::with_capacity(workers);
    {
        let base = n / workers;
        let extra = n % workers;
        let mut at = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < extra);
            let mut ch = ChunkState {
                configs: details[at..at + take].iter().map(|d| ConfigReplay::new(d)).collect(),
                hot_cpu: None,
                restore_bytes: 0,
            };
            if workers > 1 {
                ch.hot_cpu = Some(scratch.hot_cpus.pop().unwrap_or_else(|| group_cpu.clone()));
            }
            chunks.push(ch);
            at += take;
        }
    }
    scratch.memo.plans.resize(n, WindowPlan::default());

    for w in windows.iter_mut() {
        // -- leader: build each distinct index once for this window --
        if let Some(log) = w.log.as_deref().filter(|l| !l.truncated()) {
            plan_window(
                log,
                &mut chunks,
                &mut scratch.arena,
                &mut scratch.memo,
                &mut builds,
                &mut shared,
            );
        }

        if workers == 1 {
            // Serial: replay directly on the captured snapshot. The
            // journal rewinds between configs, so no working copy exists
            // at all.
            let ch = &mut chunks[0];
            replay_chunk_window(
                &mut ch.configs,
                &mut ch.restore_bytes,
                w.skip,
                w.len,
                w.log.as_ref(),
                &mut w.cpu,
                &scratch.memo.plans,
                0,
                &scratch.arena,
            )?;
        } else {
            // Parallel: the window is immutable; each chunk clones it
            // once into its private working CPU and journals between its
            // own configs. Errors resolve in chunk order so the failing
            // config is deterministic.
            let arena = &scratch.arena;
            let plans = &scratch.memo.plans[..];
            let snap = &w.cpu;
            let log = w.log.as_ref();
            let (skip, len) = (w.skip, w.len);
            let mut result: Result<(), SimError> = Ok(());
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(chunks.len() - 1);
                let mut first = chunks[0].configs.len();
                let (lead, rest) = chunks.split_at_mut(1);
                for ch in rest.iter_mut() {
                    let f = first;
                    first += ch.configs.len();
                    handles.push(s.spawn(move || {
                        let ChunkState { configs, hot_cpu, restore_bytes } = ch;
                        let cpu = match hot_cpu.as_mut() {
                            Some(cpu) => cpu,
                            // Unreachable: parallel chunks are built with
                            // a working CPU above.
                            None => return Err(SimError::Spec("replay chunk lost its CPU")),
                        };
                        cpu.clone_from(snap);
                        replay_chunk_window(
                            configs,
                            restore_bytes,
                            skip,
                            len,
                            log,
                            cpu,
                            plans,
                            f,
                            arena,
                        )
                    }));
                }
                let ch = &mut lead[0];
                let r0 = match ch.hot_cpu.as_mut() {
                    Some(cpu) => {
                        cpu.clone_from(snap);
                        replay_chunk_window(
                            &mut ch.configs,
                            &mut ch.restore_bytes,
                            skip,
                            len,
                            log,
                            cpu,
                            plans,
                            0,
                            arena,
                        )
                    }
                    None => Err(SimError::Spec("replay chunk lost its CPU")),
                };
                result = r0;
                for h in handles {
                    let r = match h.join() {
                        Ok(r) => r,
                        // Re-raise with the worker's own payload intact so
                        // the shard supervisor's catch_unwind sees it.
                        Err(payload) => std::panic::resume_unwind(payload),
                    };
                    if result.is_ok() {
                        result = r;
                    }
                }
            });
            result?;
        }
    }

    // -- retire the chunks, keeping their recyclable CPUs --
    let mut outcomes = Vec::with_capacity(n);
    let mut replays = Vec::with_capacity(n);
    let mut restore_bytes = 0u64;
    for mut ch in chunks {
        restore_bytes += ch.restore_bytes;
        if let Some(cpu) = ch.hot_cpu.take() {
            scratch.hot_cpus.push(cpu);
        }
        for st in ch.configs {
            outcomes.push(st.outcome);
            replays.push(st.replay);
        }
    }
    Ok(ShardReplay {
        outcomes,
        replays,
        index_builds: builds,
        index_builds_shared: shared,
        restore_bytes,
    })
}
