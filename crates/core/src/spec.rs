//! [`RunSpec`] — the single entry point for sampled and full simulations —
//! and the cold/detailed halves it is composed from.
//!
//! The run API is split along the paper's own seam: everything that shapes
//! the *functional* pass — the workload, the schedule it is sampled under,
//! and the guard knobs of the cold engine — lives in [`ColdSpec`], while
//! everything the *detailed* pass needs — the machine geometry, the
//! warm-up policy, and the pipeline depth — lives in [`DetailSpec`]. A
//! [`RunSpec`] is a thin composition of the two, so the familiar builder
//! keeps working verbatim;
//! a [`crate::SweepSpec`] pairs one cold half with many detailed halves to
//! amortize a single functional pass across a design-space sweep.
//!
//! Degenerate knob combinations are rejected up front by
//! [`ColdSpec::validate`], shared by [`RunSpec::run`],
//! [`RunSpec::run_full`], and the sweep engine, so conflicts surface as
//! [`SimError::Spec`] before any simulation starts rather than as panics
//! mid-run.

use std::time::{Duration, Instant};

use rsr_func::Cpu;
use rsr_isa::{Fnv, Program};

use crate::fault::FaultPlan;
use crate::log::{check_indexable, LogPool};
use crate::sampler::{policy_decouples, run_full_once, run_windows, typed_panics};
use crate::sweep::stream;
use crate::{
    FullOutcome, MachineConfig, Pct, SampleOutcome, SamplingRegimen, Schedule, SimError,
    WarmupPolicy,
};

/// The workload half of a run: the program, how it is sampled, and the
/// guard knobs of the functional (cold) engine. Owns everything needed to
/// produce the skip logs; knows nothing about cache or predictor
/// geometry.
#[derive(Clone, Debug)]
pub struct ColdSpec<'a> {
    pub(crate) program: &'a Program,
    pub(crate) regimen: Option<SamplingRegimen>,
    pub(crate) schedule: Option<Schedule>,
    pub(crate) total_insts: u64,
    pub(crate) seed: u64,
    pub(crate) shard_span: u64,
    pub(crate) log_budget: Option<usize>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl<'a> ColdSpec<'a> {
    /// Starts a cold half for `program` with the same defaults as
    /// [`RunSpec::new`]: seed 0, the default shard span, no
    /// regimen/schedule, no budget, deadline, or fault plan.
    pub fn new(program: &'a Program) -> ColdSpec<'a> {
        ColdSpec {
            program,
            regimen: None,
            schedule: None,
            total_insts: 0,
            seed: 0,
            shard_span: RunSpec::DEFAULT_SHARD_SPAN,
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
    /// deliberate cold-start cuts) and the resolved log budget (which
    /// decides stale-state degradation).
    ///
    /// Deliberately excluded: deadlines (they decide *whether* a run
    /// completes, never what a completed run reports) and the fault plan's
    /// panics — except forced log exhaustion, which is folded in through
    /// the resolved budget. The schedule is hashed in materialized form,
    /// so a regimen+seed pair and an explicit
    /// [`ColdSpec::schedule`] describing the same windows fingerprint
    /// identically.
    ///
    /// # Errors
    ///
    /// Everything [`ColdSpec::build_schedule`] rejects.
    pub fn content_hash(&self) -> Result<u64, SimError> {
        let schedule = self.build_schedule()?;
        // The image prefix is the program's memoized digest, so only the
        // first hash of a shared program pays for folding its image.
        let mut h = Fnv::resume(self.program.image_digest());
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
/// and the pipeline depth of the detailed pass. Owns its
/// [`MachineConfig`] (cloned at construction) so a detailed half is
/// `Send + 'static` — it can cross threads and outlive the borrow it was
/// built from, which the sweep engine and the planned service kernel both
/// rely on.
#[derive(Clone, Debug)]
pub struct DetailSpec {
    pub(crate) machine: MachineConfig,
    pub(crate) policy: WarmupPolicy,
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
    /// (R$BP at 20 % analysis) and auto pipeline depth.
    pub fn new(machine: &MachineConfig) -> DetailSpec {
        DetailSpec {
            machine: machine.clone(),
            policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            pipeline_depth: None,
        }
    }

    /// Sets the warm-up policy (default: `Reverse { cache, bp, 20 % }`).
    pub fn policy(mut self, policy: WarmupPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the leader/follower pipeline depth (default 0 = auto). See
    /// [`RunSpec::pipeline_depth`].
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
    /// Deliberately excluded: [`DetailSpec::pipeline_depth`] — the engine
    /// is bit-identical at every depth (locked down by the pipeline
    /// equivalence and workload-matrix suites), so two specs differing
    /// only in depth are the *same* computation and must share a
    /// fingerprint. Cache display names are likewise
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
    /// host has at least two hardware threads (a pipelined run occupies
    /// two cores — on one core leader and follower would just interleave
    /// and regress wall time), else 1.
    pub fn resolved_pipeline_depth(&self) -> usize {
        if let Some(depth) = self.pipeline_depth {
            return depth.max(1);
        }
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        if policy_decouples(self.policy) && cores >= 2 {
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
    /// analysis), seed 0, auto pipeline depth, and no regimen/schedule —
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
    /// seed semantics), while paper-scale runs (tens of millions of
    /// instructions) reset state every 4M instructions. The pinned
    /// reference numbers (golden digests, the benchmark's pins) are taken
    /// at this span; paper-faithful runs pass `u64::MAX` (see DESIGN.md
    /// §7).
    pub const DEFAULT_SHARD_SPAN: u64 = 4_000_000;

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

    /// Sets the canonical shard span in instructions (default
    /// [`RunSpec::DEFAULT_SHARD_SPAN`]; 0 is treated as 1). A *cut* falls
    /// before the first window whose preceding window ended at least this
    /// far past the last cut; there every hierarchy and predictor resets
    /// to fresh state — a deliberate checkpoint-style cold-start repaired
    /// by the warm-up policy — and state carries over continuously
    /// everywhere else. Runs shorter than one span therefore behave
    /// exactly like the classic sequential simulator, and `u64::MAX`
    /// never cuts (the paper's model: each cluster inherits the whole
    /// run's state).
    pub fn shard_span(mut self, shard_span: u64) -> Self {
        self.cold = self.cold.shard_span(shard_span);
        self
    }

    /// Caps each skip region's RSR reference log at `bytes` (default
    /// unbounded). A region that exhausts the budget degrades its cluster
    /// to the paper's no-history fallback (§3.2): the log is discarded,
    /// no reconstruction runs, and the cluster executes from stale state.
    /// Degraded clusters are counted in
    /// [`SampleOutcome::clusters_degraded`]. Degradation depends only on
    /// each region's own deterministic record stream, so it is identical
    /// at every pipeline depth.
    ///
    /// The budget is measured against the packed in-memory layout
    /// ([`crate::RECORD_BYTES`] = 8 bytes per record — DESIGN.md §9),
    /// enforced once per retired instruction so an instruction's records
    /// are kept or discarded together.
    pub fn log_budget_bytes(mut self, bytes: usize) -> Self {
        self.cold = self.cold.log_budget_bytes(bytes);
        self
    }

    /// Sets a wall-clock deadline for [`RunSpec::run`] (default
    /// unbounded). When it expires the run aborts cleanly with
    /// [`SimError::DeadlineExceeded`], carrying how many canonical shards
    /// completed; the deadline is checked between windows, so a cluster
    /// mid-simulation always finishes first.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.cold = self.cold.deadline(deadline);
        self
    }

    /// Arms a deterministic [`FaultPlan`] for [`RunSpec::run`] (default
    /// none). The typed-failure and degradation paths — leader and replay
    /// panics, log-budget exhaustion — can be exercised this way in tests;
    /// an empty plan is a fault-free run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cold = self.cold.fault_plan(plan);
        self
    }

    /// Sets the leader/follower pipeline depth (default 0 = auto; see
    /// [`RunSpec::resolved_pipeline_depth`]). With depth `d > 1` a
    /// functional *leader* on the calling thread runs ahead through skip
    /// and cluster regions, sending each cluster's `(retire trace, skip
    /// log)` into a channel queuing at most `d - 1` windows, while one
    /// replay thread replays them in schedule order — the sweep's replay
    /// with one config — so reconstruction and hot simulation overlap the
    /// next regions' cold fast-forward. Resident memory is bounded by
    /// `d + 1` logs (each keeping its scan budget's window, and capped by
    /// [`RunSpec::log_budget_bytes`] when set) plus as many cluster traces
    /// of 64 bytes per instruction. Results are bit-identical for every
    /// depth; depth 1 is the sequential engine. Depths above 1 only engage
    /// for policies whose skip regions are purely functional
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
    /// u32 index addresses; [`SimError::DeadlineExceeded`] when a
    /// [`RunSpec::deadline`] expires; [`SimError::Panicked`] when the
    /// engine panics on either thread; otherwise as the underlying engine:
    /// load failures, execution faults, or a program halting before the
    /// schedule's last cluster.
    pub fn run(&self) -> Result<SampleOutcome, SimError> {
        typed_panics(|| {
            let schedule = self.cold.build_schedule()?;
            let (machine, policy) = (&self.detail.machine, self.detail.policy);
            if policy.needs_log() {
                check_indexable(&schedule)?;
            }
            let t = Instant::now();
            let depth = self.detail.resolved_pipeline_depth();
            let mut outcome = if depth > 1 && policy_decouples(policy) {
                let mut streamed = stream(&self.cold, &schedule, &[&self.detail], 1, depth - 1)?;
                // One config in, one outcome out.
                let mut outcome = streamed.outcomes.swap_remove(0);
                outcome.phases.cold += streamed.capture;
                outcome
            } else {
                let mut cpu = Cpu::new(self.cold.program)?;
                let mut pool =
                    LogPool::new(self.cold.resolved_log_budget()).retaining(policy.scan_budget());
                let deadline = self.cold.deadline_instant();
                let windows = schedule.windows();
                let span = self.cold.shard_span;
                run_windows(machine, policy, &mut cpu, 0, windows, span, deadline, &mut pool)?
            };
            outcome.wall = t.elapsed();
            Ok(outcome)
        })
    }

    /// The spec's content address: a canonical FNV-1a fingerprint folding
    /// [`ColdSpec::content_hash`] and [`DetailSpec::content_hash`].
    ///
    /// Because every completed run is a bit-identical function of the
    /// fingerprinted inputs — at any pipeline depth — two specs with equal
    /// content hashes
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
    /// [`RunSpec::total_insts`] instructions. Ignores policy and depth.
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
            .pipeline_depth(2)
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
