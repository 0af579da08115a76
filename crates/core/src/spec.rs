//! [`RunSpec`] — the single entry point for sampled and full simulations —
//! and the cold/detailed halves it is composed from.
//!
//! The run API is split along the paper's own seam: everything that shapes
//! the *functional* pass — the workload, the schedule it is sampled under,
//! and the supervision knobs that guard the cold engine — lives in
//! [`ColdSpec`], while everything the *detailed* pass needs — the machine
//! geometry, the warm-up policy, and the thread/pipeline parallelism
//! knobs — lives in [`DetailSpec`]. A [`RunSpec`] is a thin
//! composition of the two, so the familiar builder keeps working verbatim;
//! a [`crate::SweepSpec`] pairs one cold half with many detailed halves to
//! amortize a single functional pass across a design-space sweep.
//!
//! Degenerate knob combinations are rejected up front by
//! [`ColdSpec::validate`], shared by [`RunSpec::run`],
//! [`RunSpec::run_full`], and the sweep engine, so conflicts surface as
//! [`SimError::Spec`] before any simulation starts rather than as panics
//! mid-run.

use std::time::{Duration, Instant};

use rsr_isa::Program;

use crate::fault::{FaultInjector, FaultPlan};
use crate::log::check_indexable;
use crate::sampler::{policy_decouples, run_full_once};
use crate::shard::{run_sharded, RunGuards};
use crate::{
    FullOutcome, MachineConfig, Pct, SampleOutcome, SamplingRegimen, Schedule, SimError,
    WarmupPolicy,
};

/// The workload half of a run: the program, how it is sampled, and the
/// supervision knobs of the functional (cold) engine. Owns everything
/// needed to produce sealed per-shard skip logs; knows nothing about cache
/// or predictor geometry.
#[derive(Clone, Debug)]
pub struct ColdSpec<'a> {
    pub(crate) program: &'a Program,
    pub(crate) regimen: Option<SamplingRegimen>,
    pub(crate) schedule: Option<Schedule>,
    pub(crate) total_insts: u64,
    pub(crate) seed: u64,
    pub(crate) shard_span: u64,
    pub(crate) max_shard_retries: u32,
    pub(crate) log_budget: Option<usize>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl<'a> ColdSpec<'a> {
    /// Starts a cold half for `program` with the same defaults as
    /// [`RunSpec::new`]: seed 0, the default shard span and retry budget,
    /// no regimen/schedule, no budget, deadline, or fault plan.
    pub fn new(program: &'a Program) -> ColdSpec<'a> {
        ColdSpec {
            program,
            regimen: None,
            schedule: None,
            total_insts: 0,
            seed: 0,
            shard_span: RunSpec::DEFAULT_SHARD_SPAN,
            max_shard_retries: RunSpec::DEFAULT_MAX_SHARD_RETRIES,
            log_budget: None,
            deadline: None,
            fault_plan: None,
        }
    }

    /// Sets the sampling regimen; the schedule is drawn from it,
    /// [`ColdSpec::total_insts`], and [`ColdSpec::seed`]. Mutually
    /// exclusive with [`ColdSpec::schedule`].
    pub fn regimen(mut self, regimen: SamplingRegimen) -> Self {
        self.regimen = Some(regimen);
        self
    }

    /// Uses an explicit caller-built schedule (e.g. a systematic SMARTS
    /// design from [`Schedule::systematic`], or one shared verbatim across
    /// machines). An explicit schedule fixes the run length, so it is
    /// mutually exclusive with both [`ColdSpec::regimen`] and
    /// [`ColdSpec::total_insts`] — giving both is a [`SimError::Spec`] at
    /// validation.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the run length in dynamic instructions.
    pub fn total_insts(mut self, total_insts: u64) -> Self {
        self.total_insts = total_insts;
        self
    }

    /// Sets the schedule seed. Hold it constant across policies (and
    /// sweep configs) to keep the sampling bias fixed, as the paper does.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the canonical shard span in instructions (default
    /// [`RunSpec::DEFAULT_SHARD_SPAN`]; 0 is treated as 1). See
    /// [`RunSpec::shard_span`].
    pub fn shard_span(mut self, shard_span: u64) -> Self {
        self.shard_span = shard_span.max(1);
        self
    }

    /// Sets the shard-group retry budget (default
    /// [`RunSpec::DEFAULT_MAX_SHARD_RETRIES`]). See
    /// [`RunSpec::max_shard_retries`].
    pub fn max_shard_retries(mut self, retries: u32) -> Self {
        self.max_shard_retries = retries;
        self
    }

    /// Caps each skip region's RSR reference log at `bytes`. See
    /// [`RunSpec::log_budget_bytes`].
    pub fn log_budget_bytes(mut self, bytes: usize) -> Self {
        self.log_budget = Some(bytes);
        self
    }

    /// Sets a wall-clock deadline. See [`RunSpec::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms a deterministic [`FaultPlan`]. See [`RunSpec::fault_plan`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The program this half runs.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Checks the spec's knob combinations for conflicts, shared by
    /// [`RunSpec::run`], [`RunSpec::run_full`], and the sweep engine.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] when both a schedule and a regimen are given,
    /// when an explicit schedule is combined with a nonzero
    /// [`ColdSpec::total_insts`] (the schedule already fixes the run
    /// length), when an explicit schedule is empty, holds a zero-length
    /// cluster, or is out of order/overlapping, when a regimen has a
    /// zero dimension or lacks a nonzero `total_insts`, or when the
    /// regimen's hot instructions exceed half the run.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.schedule.is_some() && self.regimen.is_some() {
            return Err(SimError::Spec("give either a schedule or a regimen, not both"));
        }
        if let Some(s) = &self.schedule {
            if self.total_insts != 0 {
                return Err(SimError::Spec(
                    "an explicit schedule fixes the run length; drop total_insts",
                ));
            }
            if s.is_empty() {
                return Err(SimError::Spec("schedule holds no clusters"));
            }
            let mut prev_end = 0u64;
            for w in s.windows() {
                if w.len == 0 {
                    return Err(SimError::Spec("schedule holds a zero-length cluster"));
                }
                if w.start < prev_end {
                    return Err(SimError::Spec("schedule clusters overlap or are out of order"));
                }
                prev_end = w.end();
            }
        }
        if let Some(regimen) = self.regimen {
            // `SamplingRegimen::new` already panics on zero dimensions,
            // but the fields are public — reject literal zero-dim values
            // as a spec error instead of a later divide-by-zero.
            if regimen.n_clusters == 0 || regimen.cluster_len == 0 {
                return Err(SimError::Spec("regimen has a zero dimension"));
            }
            if self.total_insts == 0 {
                return Err(SimError::Spec("a regimen needs a nonzero total_insts"));
            }
            if regimen.hot_instructions() * 2 > self.total_insts {
                return Err(SimError::Spec(
                    "regimen's hot instructions exceed half of total_insts",
                ));
            }
        }
        Ok(())
    }

    /// Materializes the schedule this half describes. Validates first.
    ///
    /// # Errors
    ///
    /// Everything [`ColdSpec::validate`] rejects, plus [`SimError::Spec`]
    /// when neither a schedule nor a regimen was given.
    pub fn build_schedule(&self) -> Result<Schedule, SimError> {
        self.validate()?;
        if let Some(s) = &self.schedule {
            return Ok(s.clone());
        }
        let Some(regimen) = self.regimen else {
            return Err(SimError::Spec("no regimen or schedule given"));
        };
        Ok(Schedule::generate(regimen, self.total_insts, self.seed))
    }

    /// A canonical FNV-1a fingerprint of everything about this half that
    /// can influence the *deterministic* outcome of a run: the full
    /// program image (text, data, entry, stack) and the materialized
    /// schedule it is sampled under, plus the shard span (which places the
    /// deliberate cold-start boundaries) and the resolved log budget
    /// (which decides stale-state degradation).
    ///
    /// Deliberately excluded: retry budgets and deadlines (they decide
    /// *whether* a run completes, never what a completed run reports) and
    /// the fault plan's healing faults — except forced log exhaustion,
    /// which is folded in through the resolved budget. The schedule is
    /// hashed in materialized form, so a regimen+seed pair and an explicit
    /// [`ColdSpec::schedule`] describing the same windows fingerprint
    /// identically.
    ///
    /// # Errors
    ///
    /// Everything [`ColdSpec::build_schedule`] rejects.
    pub fn content_hash(&self) -> Result<u64, SimError> {
        let schedule = self.build_schedule()?;
        let mut h = Fnv::new();
        h.u64(self.program.text_base());
        h.u64(self.program.text().len() as u64);
        for &w in self.program.text() {
            h.bytes(&w.to_le_bytes());
        }
        h.u64(self.program.data_base());
        h.u64(self.program.data().len() as u64);
        h.bytes(self.program.data());
        h.u64(self.program.entry());
        h.u64(self.program.stack_top());
        h.u64(schedule.total_insts());
        h.u64(schedule.windows().len() as u64);
        for w in schedule.windows() {
            h.u64(w.start);
            h.u64(w.len);
        }
        h.u64(self.shard_span);
        match self.resolved_log_budget() {
            Some(b) => {
                h.u8(1);
                h.u64(b as u64);
            }
            None => h.u8(0),
        }
        Ok(h.finish())
    }

    /// The log budget the cold engine should enforce: the armed fault
    /// plan's forced exhaustion wins over the configured cap.
    pub(crate) fn resolved_log_budget(&self) -> Option<usize> {
        if self.fault_plan.as_ref().is_some_and(FaultPlan::forces_log_exhaustion) {
            Some(0)
        } else {
            self.log_budget
        }
    }

    /// Converts the relative deadline into the absolute instant the
    /// engines check against, anchored at call time.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.and_then(|d| Instant::now().checked_add(d))
    }
}

/// The microarchitecture half of a run: machine geometry, warm-up policy,
/// and the parallelism knobs of the detailed pass. Owns its
/// [`MachineConfig`] (cloned at construction) so a detailed half is
/// `Send + 'static` — it can cross threads and outlive the borrow it was
/// built from, which the sweep engine and the planned service kernel both
/// rely on.
#[derive(Clone, Debug)]
pub struct DetailSpec {
    pub(crate) machine: MachineConfig,
    pub(crate) policy: WarmupPolicy,
    pub(crate) threads: usize,
    pub(crate) pipeline_depth: Option<usize>,
}

// The detailed half must stay shareable across threads — the sweep engine
// moves it into scoped workers and ROADMAP item 3's service kernel will
// hold a set of them behind a queue.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<DetailSpec>();

impl DetailSpec {
    /// Starts a detailed half for a clone of `machine` with the same
    /// defaults as [`RunSpec::new`]: the paper's headline warm-up policy
    /// (R$BP at 20 % analysis), one thread, and auto pipeline depth.
    pub fn new(machine: &MachineConfig) -> DetailSpec {
        DetailSpec {
            machine: machine.clone(),
            policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            threads: 1,
            pipeline_depth: None,
        }
    }

    /// Sets the warm-up policy (default: `Reverse { cache, bp, 20 % }`).
    pub fn policy(mut self, policy: WarmupPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the worker-thread count (default 1; 0 is treated as 1). See
    /// [`RunSpec::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the intra-shard leader/follower pipeline depth (default 0 =
    /// auto). See [`RunSpec::pipeline_depth`].
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = if depth == 0 { None } else { Some(depth) };
        self
    }

    /// The machine this half simulates.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// A canonical FNV-1a fingerprint of everything about this half that
    /// can influence the deterministic outcome: the warm-up policy and the
    /// full machine geometry (core, hierarchy, predictor).
    ///
    /// Deliberately excluded: [`DetailSpec::threads`] and
    /// [`DetailSpec::pipeline_depth`] — the engine is bit-identical across
    /// every parallelism setting (locked down by the sharding and pipeline
    /// equivalence suites), so
    /// two specs differing only in those knobs are the *same* computation
    /// and must share a fingerprint. Cache display names are likewise
    /// skipped.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        hash_policy(&mut h, self.policy);
        let core = &self.machine.core;
        for v in [
            core.fetch_width as u64,
            core.dispatch_width as u64,
            core.issue_width as u64,
            core.retire_width as u64,
            core.rob_entries as u64,
            core.iq_entries as u64,
            core.lsq_entries as u64,
            core.num_fus as u64,
            core.front_end_delay,
            core.min_mispredict_penalty,
            core.max_spec_branches as u64,
        ] {
            h.u64(v);
        }
        let hier = &self.machine.hier;
        for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
            h.u64(cache.size_bytes);
            h.u64(cache.assoc as u64);
            h.u64(cache.line_bytes);
            h.u8(match cache.write_policy {
                rsr_cache::WritePolicy::WriteThroughNoAllocate => 0,
                rsr_cache::WritePolicy::WriteBackAllocate => 1,
            });
            h.u64(cache.hit_latency);
        }
        for bus in [&hier.l1_bus, &hier.l2_bus] {
            h.u64(bus.width_bytes);
            h.u64(bus.core_cycles_per_beat);
        }
        h.u64(hier.mem_latency);
        h.u8(hier.prefetch_next_line as u8);
        let pred = &self.machine.pred;
        h.u64(pred.ghr_bits as u64);
        h.u64(pred.btb_entries as u64);
        h.u64(pred.ras_entries as u64);
        h.finish()
    }

    /// The warm-up policy this half runs under.
    pub fn warmup_policy(&self) -> WarmupPolicy {
        self.policy
    }

    /// The pipeline depth a run of this half will actually use. An
    /// explicit [`DetailSpec::pipeline_depth`] is honored as given
    /// (clamped to ≥ 1); auto picks 2 when the policy decouples *and* the
    /// host has at least two hardware threads per configured worker (each
    /// pipelined worker occupies two cores — oversubscribing a smaller
    /// host would just interleave leader and follower and regress wall
    /// time), else 1.
    pub fn resolved_pipeline_depth(&self) -> usize {
        if let Some(depth) = self.pipeline_depth {
            return depth.max(1);
        }
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        if policy_decouples(self.policy) && cores >= 2 * self.threads.max(1) {
            2
        } else {
            1
        }
    }
}

/// A complete description of one simulation run: one [`ColdSpec`] paired
/// with one [`DetailSpec`].
///
/// Construct with [`RunSpec::new`], refine with the chainable setters
/// (each delegates to the half that owns the knob), and execute with
/// [`RunSpec::run`] (sampled) or [`RunSpec::run_full`] (the unsampled
/// true-IPC baseline). The spec borrows the program, so one program can
/// fan out into many runs:
///
/// ```no_run
/// use rsr_core::{MachineConfig, Pct, RunSpec, SamplingRegimen, WarmupPolicy};
/// use rsr_workloads::{Benchmark, WorkloadParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Benchmark::Mcf.build(&WorkloadParams::default());
/// let machine = MachineConfig::paper();
/// let outcome = RunSpec::new(&program, &machine)
///     .regimen(SamplingRegimen::new(60, 3000))
///     .total_insts(8_000_000)
///     .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
///     .seed(42)
///     .threads(4)
///     .run()?;
/// println!("IPC estimate: {:.3}", outcome.est_ipc());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RunSpec<'a> {
    cold: ColdSpec<'a>,
    detail: DetailSpec,
}

impl<'a> RunSpec<'a> {
    /// Starts a spec for `program` on a clone of `machine`.
    ///
    /// Defaults: the paper's headline warm-up policy (R$BP at 20 %
    /// analysis), seed 0, one thread, and no regimen/schedule —
    /// [`RunSpec::run`] requires one of [`RunSpec::regimen`] (plus
    /// [`RunSpec::total_insts`]) or [`RunSpec::schedule`].
    pub fn new(program: &'a Program, machine: &MachineConfig) -> RunSpec<'a> {
        RunSpec { cold: ColdSpec::new(program), detail: DetailSpec::new(machine) }
    }

    /// Composes a spec from an already-built cold half and detailed half.
    pub fn from_parts(cold: ColdSpec<'a>, detail: DetailSpec) -> RunSpec<'a> {
        RunSpec { cold, detail }
    }

    /// Decomposes the spec into its cold and detailed halves.
    pub fn into_parts(self) -> (ColdSpec<'a>, DetailSpec) {
        (self.cold, self.detail)
    }

    /// The workload half.
    pub fn cold(&self) -> &ColdSpec<'a> {
        &self.cold
    }

    /// The microarchitecture half.
    pub fn detail(&self) -> &DetailSpec {
        &self.detail
    }

    /// Default canonical shard span (instructions): long enough that
    /// integration-scale runs stay a single shard (pure carryover, the
    /// seed semantics) while paper-scale runs (tens of millions of
    /// instructions) split into enough shards to keep several workers
    /// busy.
    pub const DEFAULT_SHARD_SPAN: u64 = 4_000_000;

    /// Default shard-retry budget: one retry heals any single transient
    /// worker fault without changing the estimate (retried groups replay
    /// bit-identically), while a fault that persists still surfaces as a
    /// typed error on the second attempt.
    pub const DEFAULT_MAX_SHARD_RETRIES: u32 = 1;

    /// Sets the sampling regimen; [`RunSpec::run`] draws the schedule from
    /// it, [`RunSpec::total_insts`], and [`RunSpec::seed`].
    pub fn regimen(mut self, regimen: SamplingRegimen) -> Self {
        self.cold = self.cold.regimen(regimen);
        self
    }

    /// Uses an explicit caller-built schedule (e.g. a systematic SMARTS
    /// design from [`Schedule::systematic`], or one shared verbatim across
    /// machines). Mutually exclusive with [`RunSpec::regimen`] and
    /// [`RunSpec::total_insts`] — the schedule already fixes the run
    /// length, and conflicting combinations are rejected as
    /// [`SimError::Spec`] before the run starts.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.cold = self.cold.schedule(schedule);
        self
    }

    /// Sets the run length in dynamic instructions.
    pub fn total_insts(mut self, total_insts: u64) -> Self {
        self.cold = self.cold.total_insts(total_insts);
        self
    }

    /// Sets the warm-up policy (default: `Reverse { cache, bp, 20 % }`).
    pub fn policy(mut self, policy: WarmupPolicy) -> Self {
        self.detail = self.detail.policy(policy);
        self
    }

    /// Sets the schedule seed. Hold it constant across policies to keep
    /// the sampling bias fixed, as the paper does.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cold = self.cold.seed(seed);
        self
    }

    /// Sets the worker-thread count for [`RunSpec::run`] (default 1;
    /// 0 is treated as 1). The schedule is split into *canonical shards*
    /// at boundaries derived from the schedule alone (see
    /// [`RunSpec::shard_span`]); with `n > 1` those shards are distributed
    /// over up to `n` workers after a functional scout pass captures an
    /// architectural checkpoint at each worker's boundary. Because the
    /// shard boundaries never depend on the thread count, per-cluster
    /// results are bit-identical for every `n` (see `DESIGN.md`,
    /// "Parallel sampling").
    pub fn threads(mut self, threads: usize) -> Self {
        self.detail = self.detail.threads(threads);
        self
    }

    /// Sets the canonical shard span in instructions (default
    /// [`RunSpec::DEFAULT_SHARD_SPAN`]; 0 is treated as 1). Shard
    /// boundaries are placed wherever the accumulated schedule span
    /// reaches this value; microarchitectural state resets there — a
    /// deliberate checkpoint-style cold-start repaired by the warm-up
    /// policy — and carries over continuously everywhere else. Runs
    /// shorter than one span therefore behave exactly like the classic
    /// sequential simulator. Smaller spans expose more parallelism;
    /// larger spans leave more continuous warming intact.
    pub fn shard_span(mut self, shard_span: u64) -> Self {
        self.cold = self.cold.shard_span(shard_span);
        self
    }

    /// Sets how many times a failed shard group may be retried from its
    /// retained checkpoint (default
    /// [`RunSpec::DEFAULT_MAX_SHARD_RETRIES`]). Only shard-infrastructure
    /// faults — a panicked worker, a lost or corrupted checkpoint
    /// ([`SimError::is_shard_fault`]) — are retried; deterministic
    /// simulation errors surface immediately. A healed run is bit-identical
    /// to a fault-free one, with the attempt count recorded in
    /// [`SampleOutcome::shard_retries`]. `0` fails fast on the first fault.
    pub fn max_shard_retries(mut self, retries: u32) -> Self {
        self.cold = self.cold.max_shard_retries(retries);
        self
    }

    /// Caps each skip region's RSR reference log at `bytes` (default
    /// unbounded). A region that exhausts the budget degrades its cluster
    /// to the paper's no-history fallback (§3.2): the log is discarded,
    /// no reconstruction runs, and the cluster executes from stale state.
    /// Degraded clusters are counted in
    /// [`SampleOutcome::clusters_degraded`]. Degradation depends only on
    /// each region's own deterministic record stream, so it is identical
    /// at every thread count.
    ///
    /// The budget is measured against the packed in-memory layout
    /// (~12.25 bytes per memory record, 16 per branch — DESIGN.md §9),
    /// enforced once per retired instruction so an instruction's records
    /// are kept or discarded together.
    pub fn log_budget_bytes(mut self, bytes: usize) -> Self {
        self.cold = self.cold.log_budget_bytes(bytes);
        self
    }

    /// Sets a wall-clock deadline for [`RunSpec::run`] (default
    /// unbounded). When it expires the run aborts cleanly with
    /// [`SimError::DeadlineExceeded`], carrying how many canonical shards
    /// completed; the deadline is checked at shard granularity, so a
    /// cluster mid-simulation always finishes first.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.cold = self.cold.deadline(deadline);
        self
    }

    /// Arms a deterministic [`FaultPlan`] for [`RunSpec::run`] (default
    /// none). Every supervision path — panic capture, checkpoint
    /// verification, retry, log-budget degradation — can be exercised this
    /// way in tests; an empty plan is a fault-free run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cold = self.cold.fault_plan(plan);
        self
    }

    /// Sets the intra-shard leader/follower pipeline depth (default 0 =
    /// auto; see [`RunSpec::resolved_pipeline_depth`]). With depth `d > 1`
    /// a functional *leader* runs ahead through skip and cluster regions,
    /// emitting each cluster's `(CPU snapshot, sealed skip log)` into a
    /// channel holding at most `d` in-flight items, while a detailed
    /// *follower* thread consumes them in schedule order — reconstruction
    /// and hot simulation overlap the next regions' cold fast-forward.
    /// Resident memory is bounded by `d` logs (each capped by
    /// [`RunSpec::log_budget_bytes`], when set) plus `d` CPU snapshots.
    /// Results are bit-identical for every depth; depth 1 is the
    /// sequential engine. Depths above 1 only engage for policies whose
    /// skip regions are purely functional
    /// (`WarmupPolicy::Reverse` / `WarmupPolicy::None`).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.detail = self.detail.pipeline_depth(depth);
        self
    }

    /// The pipeline depth a run of this spec will actually use; see
    /// [`DetailSpec::resolved_pipeline_depth`].
    pub fn resolved_pipeline_depth(&self) -> usize {
        self.detail.resolved_pipeline_depth()
    }

    /// Materializes the schedule this spec describes.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] if the spec has neither schedule nor regimen,
    /// or fails [`ColdSpec::validate`].
    pub fn build_schedule(&self) -> Result<Schedule, SimError> {
        self.cold.build_schedule()
    }

    /// Runs the sampled simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] for degenerate specs (see
    /// [`ColdSpec::validate`] and [`RunSpec::build_schedule`]), and for a
    /// logging policy whose skip regions could log more records than a
    /// u32 index addresses; [`SimError::DeadlineExceeded`] when a [`RunSpec::deadline`]
    /// expires; otherwise as the underlying engine: load failures,
    /// execution faults, a program halting before the schedule's last
    /// cluster, or a shard fault (lost worker, panic, corrupt checkpoint)
    /// that outlives [`RunSpec::max_shard_retries`].
    pub fn run(&self) -> Result<SampleOutcome, SimError> {
        let schedule = self.cold.build_schedule()?;
        if self.detail.policy.needs_log() {
            check_indexable(&schedule)?;
        }
        let injector = self.cold.fault_plan.as_ref().map(FaultInjector::new);
        let guards = RunGuards {
            log_budget: self.cold.resolved_log_budget(),
            deadline: self.cold.deadline_instant(),
            max_retries: self.cold.max_shard_retries,
            injector: injector.as_ref(),
            pipeline_depth: self.detail.resolved_pipeline_depth(),
        };
        let t = Instant::now();
        let mut outcome = run_sharded(
            self.cold.program,
            &self.detail.machine,
            &schedule,
            self.detail.policy,
            self.detail.threads,
            self.cold.shard_span,
            &guards,
        )?;
        outcome.wall = t.elapsed();
        Ok(outcome)
    }

    /// The spec's content address: a canonical FNV-1a fingerprint folding
    /// [`ColdSpec::content_hash`] and [`DetailSpec::content_hash`].
    ///
    /// Because every completed run is a bit-identical function of the
    /// fingerprinted inputs — at any thread count or pipeline depth — two
    /// specs with equal content hashes
    /// produce equal deterministic outcomes, which is what lets the
    /// `rsr serve` result cache and in-flight dedupe key on this value.
    ///
    /// # Errors
    ///
    /// Everything [`ColdSpec::content_hash`] rejects.
    pub fn content_hash(&self) -> Result<u64, SimError> {
        let mut h = Fnv::new();
        h.u64(self.cold.content_hash()?);
        h.u64(self.detail.content_hash());
        Ok(h.finish())
    }

    /// Runs the full-trace cycle-accurate baseline ("true IPC") over
    /// [`RunSpec::total_insts`] instructions. Ignores policy and threads.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] if `total_insts` is zero or the cold half fails
    /// [`ColdSpec::validate`]; otherwise load or execution failures.
    pub fn run_full(&self) -> Result<FullOutcome, SimError> {
        self.cold.validate()?;
        if self.cold.total_insts == 0 {
            return Err(SimError::Spec("run_full needs a nonzero total_insts"));
        }
        run_full_once(self.cold.program, &self.detail.machine, self.cold.total_insts)
    }
}

/// Streaming FNV-1a, the workspace's standing choice for cheap
/// content/corruption hashing (shard checkpoints use the same constants).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a warm-up policy into a fingerprint: a variant tag plus every
/// outcome-relevant field.
fn hash_policy(h: &mut Fnv, policy: WarmupPolicy) {
    match policy {
        WarmupPolicy::None => h.u8(0),
        WarmupPolicy::FixedPeriod { pct } => {
            h.u8(1);
            h.u8(pct.value());
        }
        WarmupPolicy::Smarts { cache, bp } => {
            h.u8(2);
            h.u8(cache as u8);
            h.u8(bp as u8);
        }
        WarmupPolicy::Reverse { cache, bp, pct } => {
            h.u8(3);
            h.u8(cache as u8);
            h.u8(bp as u8);
            h.u8(pct.value());
        }
        WarmupPolicy::Mrrl { coverage } => {
            h.u8(4);
            h.u8(coverage.value());
        }
        WarmupPolicy::Blrl { coverage } => {
            h.u8(5);
            h.u8(coverage.value());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_isa::{Asm, Reg};

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        let top = a.bind_new("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        a.finish().unwrap()
    }

    fn base_spec<'a>(program: &'a Program, machine: &MachineConfig) -> RunSpec<'a> {
        RunSpec::new(program, machine)
            .regimen(SamplingRegimen::new(4, 100))
            .total_insts(10_000)
            .seed(7)
    }

    #[test]
    fn content_hash_is_deterministic_and_knob_sensitive() {
        let p = tiny_program();
        let machine = MachineConfig::paper();
        let a = base_spec(&p, &machine).content_hash().unwrap();
        assert_eq!(a, base_spec(&p, &machine).content_hash().unwrap());
        // Outcome-relevant knobs move the hash.
        assert_ne!(a, base_spec(&p, &machine).seed(8).content_hash().unwrap());
        assert_ne!(a, base_spec(&p, &machine).policy(WarmupPolicy::None).content_hash().unwrap());
        assert_ne!(a, base_spec(&p, &machine).shard_span(1234).content_hash().unwrap());
        assert_ne!(a, base_spec(&p, &machine).log_budget_bytes(64).content_hash().unwrap());
        let mut small = machine.clone();
        small.hier.l1d.size_bytes /= 2;
        assert_ne!(a, base_spec(&p, &small).content_hash().unwrap());
    }

    #[test]
    fn content_hash_ignores_parallelism_and_guards() {
        let p = tiny_program();
        let machine = MachineConfig::paper();
        let a = base_spec(&p, &machine).content_hash().unwrap();
        let b = base_spec(&p, &machine)
            .threads(4)
            .pipeline_depth(2)
            .max_shard_retries(9)
            .deadline(Duration::from_secs(3600))
            .content_hash()
            .unwrap();
        assert_eq!(a, b, "parallelism and guard knobs are not part of the computation");
    }

    #[test]
    fn content_hash_is_schedule_canonical() {
        // A regimen+seed and the explicit schedule it generates are the
        // same computation, so they share a fingerprint.
        let p = tiny_program();
        let machine = MachineConfig::paper();
        let from_regimen = base_spec(&p, &machine);
        let schedule = from_regimen.build_schedule().unwrap();
        let explicit = RunSpec::new(&p, &machine).schedule(schedule);
        assert_eq!(from_regimen.content_hash().unwrap(), explicit.content_hash().unwrap());
    }

    #[test]
    fn unindexable_skip_regions_fail_typed_before_running() {
        // Four clusters over 20 billion instructions leave ~5 billion-
        // instruction skip regions: up to ~10 billion memory records, past
        // what a u32 record index addresses. The program halts at once, so
        // any run that started executing would fail `Exec`, not `Spec`.
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        let machine = MachineConfig::paper();
        let schedule = Schedule::systematic(SamplingRegimen::new(4, 1000), 20_000_000_000, 1);
        let reverse = WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) };
        let run =
            |policy| RunSpec::new(&p, &machine).schedule(schedule.clone()).policy(policy).run();
        assert!(matches!(run(reverse), Err(SimError::Spec(_))));
        // Only logging policies are limited: a non-logging run starts.
        assert!(matches!(run(WarmupPolicy::None), Err(SimError::Exec(_))));
        let sweep = crate::SweepSpec::new(ColdSpec::new(&p).schedule(schedule.clone()))
            .config("rsr", DetailSpec::new(&machine).policy(reverse));
        assert!(matches!(sweep.run(), Err(SimError::Spec(_))));
    }

    #[test]
    fn content_hash_rejects_degenerate_specs() {
        let p = tiny_program();
        let machine = MachineConfig::paper();
        assert!(matches!(RunSpec::new(&p, &machine).content_hash(), Err(SimError::Spec(_))));
    }
}
