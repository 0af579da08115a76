//! Deterministic fault injection for the run engine and the job service.
//!
//! Sampling methodologies earn their keep by completing many independent
//! regions, so a production run must fail typed — not die — when one of
//! its threads panics, and must degrade when the reference log outgrows
//! its budget. None of those paths can be trusted untested, and none occur
//! naturally in a deterministic simulator, so this module provides the
//! test harness they are built against: a [`FaultPlan`] describes exactly
//! which faults strike which targets (and how many times), and a
//! [`FaultInjector`] arms the plan at run time, metering each fault so a
//! retried attempt deterministically succeeds once the fault's fire
//! budget is spent.
//!
//! The run engine is one stream, so its faults target group 0; the job
//! service keys its per-job faults by admission order.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// The failure modes the run engine and the job service can be made to
/// exhibit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// *Service-level*: the targeted job's supervised worker panics before
    /// simulating anything (exercises the daemon's `catch_unwind` and its
    /// job retries). The group index is the job's admission order. Ignored
    /// by the run engine itself.
    WorkerPanic,
    /// The run behaves as if [`crate::RunSpec::log_budget_bytes`] were
    /// zero: every logging skip region exhausts its budget and degrades to
    /// the paper's no-history (stale-state) fallback. Group-independent.
    ExhaustLogBudget,
    /// The run's functional *leader* panics on the calling thread before
    /// emitting any window: a pipelined run's producer (see
    /// [`crate::RunSpec::pipeline_depth`]) or a sweep's capture. Surfaces
    /// as [`crate::SimError::Panicked`] once the replay thread is
    /// released. A no-op in a standalone run whose
    /// pipeline is not engaged (`pipeline_depth` resolves to 1, or the
    /// policy does not decouple).
    LeaderPanic,
    /// The run's detailed *replay* panics on its own thread before
    /// simulating anything: the consumer of a pipelined run or of a sweep.
    /// The payload crosses the thread boundary and surfaces as
    /// [`crate::SimError::Panicked`]. A no-op where
    /// [`FaultKind::LeaderPanic`] is.
    FollowerPanic,
    /// *Service-level*: the targeted job's result-cache entry is written
    /// with a flipped payload byte, as if the disk lied. The group index is
    /// the job's admission order in the serving daemon. A read of the
    /// damaged entry must fail its checksum, quarantine the file, and
    /// recompute — never serve the corrupt bytes. Ignored by the run
    /// engine itself (which has no result cache).
    CorruptCacheEntry,
    /// *Service-level*: the targeted job's worker hangs for
    /// [`STALL_JOB_DELAY`] before simulating — a stuck job. Results must
    /// be unaffected; a per-job deadline shorter than the stall trips
    /// deterministically. The group index is the job's admission order.
    /// Ignored by the run engine itself.
    StallJob,
}

impl FaultKind {
    /// The kinds the *run engine* injects (the [`FaultPlan::from_seed`]
    /// universe).
    pub const ENGINE: [FaultKind; 3] =
        [FaultKind::ExhaustLogBudget, FaultKind::LeaderPanic, FaultKind::FollowerPanic];

    /// The kinds a serving daemon injects per *job* (group = admission
    /// order): supervised-worker panics, stuck jobs, and lying cache
    /// writes.
    pub const SERVICE: [FaultKind; 3] =
        [FaultKind::WorkerPanic, FaultKind::StallJob, FaultKind::CorruptCacheEntry];
}

/// How long a [`FaultKind::StallJob`] worker hangs per fire — long enough
/// that a millisecond-scale job deadline trips deterministically, short
/// enough to keep fault-matrix tests fast.
pub const STALL_JOB_DELAY: Duration = Duration::from_millis(150);

/// One planned fault: a kind, the group it strikes, and how many times it
/// fires before letting attempts through.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The target: 0 for the run engine's one stream, the admission order
    /// for service-level kinds (ignored by group-independent kinds such as
    /// [`FaultKind::ExhaustLogBudget`]).
    pub group: usize,
    /// Times the fault fires before the injector lets the target succeed.
    /// Against a daemon job, `fires = 1` with one retry allowed recovers;
    /// `fires` greater than the retry budget fails the job typed.
    pub fires: u32,
}

/// A deterministic description of every fault a run will experience.
///
/// Build explicitly with [`FaultPlan::with`] / [`FaultPlan::with_repeated`]
/// or derive one from a seed with [`FaultPlan::from_seed`]; thread it
/// through [`crate::RunSpec::fault_plan`]. An empty plan (the default) is a
/// fault-free run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault that fires once against `group`.
    #[must_use]
    pub fn with(self, kind: FaultKind, group: usize) -> FaultPlan {
        self.with_repeated(kind, group, 1)
    }

    /// Adds a fault that fires `fires` times against `group` (so the first
    /// `fires` attempts fail and attempt `fires + 1` succeeds).
    #[must_use]
    pub fn with_repeated(mut self, kind: FaultKind, group: usize, fires: u32) -> FaultPlan {
        self.faults.push(Fault { kind, group, fires });
        self
    }

    /// Derives a plan of `n` engine faults ([`FaultKind::ENGINE`]) over
    /// groups `0..groups` from a seed — the same seed always yields the
    /// same plan, so randomized fault sweeps are replayable from their
    /// seed alone.
    pub fn from_seed(seed: u64, n: usize, groups: usize) -> FaultPlan {
        FaultPlan::from_seed_with_kinds(seed, n, groups, &FaultKind::ENGINE)
    }

    /// [`FaultPlan::from_seed`] over an explicit fault universe — e.g.
    /// [`FaultKind::SERVICE`] for a seed-derived storm against a serving
    /// daemon's per-job supervision.
    pub fn from_seed_with_kinds(
        seed: u64,
        n: usize,
        groups: usize,
        kinds: &[FaultKind],
    ) -> FaultPlan {
        let mut state = seed;
        let mut plan = FaultPlan::new();
        if kinds.is_empty() {
            return plan;
        }
        for _ in 0..n {
            let kind = kinds[(splitmix64(&mut state) % kinds.len() as u64) as usize];
            let group = (splitmix64(&mut state) % groups.max(1) as u64) as usize;
            plan = plan.with(kind, group);
        }
        plan
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Does this plan force the log budget to zero
    /// ([`FaultKind::ExhaustLogBudget`])? Evaluated once per run, before
    /// the stream starts, so degradation is the same at every depth.
    pub fn forces_log_exhaustion(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::ExhaustLogBudget && f.fires > 0)
    }
}

/// The armed form of a [`FaultPlan`]: shared by both sides of a run's
/// stream, or by a daemon's workers and their retries, it meters each
/// `(kind, group)` fault's remaining fires under a mutex so every attempt
/// draws from one deterministic budget.
///
/// Public so service layers (the `rsr serve` daemon) can arm the same
/// plans against per-*job* supervision: the service-level probes
/// ([`FaultInjector::corrupt_cache_entry`], [`FaultInjector::stall_delay`],
/// [`FaultInjector::job_panic_message`]) key the group index by job
/// admission order. The engine-level probes stay crate-private.
#[derive(Debug)]
pub struct FaultInjector {
    remaining: Mutex<HashMap<(FaultKind, usize), u32>>,
}

impl FaultInjector {
    /// Arms `plan` (fire counts for the same `(kind, group)` accumulate).
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut remaining: HashMap<(FaultKind, usize), u32> = HashMap::new();
        for f in &plan.faults {
            *remaining.entry((f.kind, f.group)).or_insert(0) += f.fires;
        }
        FaultInjector { remaining: Mutex::new(remaining) }
    }

    /// Consumes one fire of `(kind, group)` if any remain.
    fn take(&self, kind: FaultKind, group: usize) -> bool {
        // A panic between lock and unlock is impossible here, but a
        // poisoned injector must keep injecting deterministically anyway.
        let mut map = self.remaining.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get_mut(&(kind, group)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// The panic message to raise in the stream's functional leader, if
    /// armed.
    pub(crate) fn leader_panic_message(&self) -> Option<String> {
        self.take(FaultKind::LeaderPanic, 0).then(|| "injected fault: leader panic".to_string())
    }

    /// The panic message to raise in the stream's detailed replay, if
    /// armed.
    pub(crate) fn follower_panic_message(&self) -> Option<String> {
        self.take(FaultKind::FollowerPanic, 0).then(|| "injected fault: follower panic".to_string())
    }

    /// Should the result-cache entry written for job `job` be damaged
    /// (one payload byte flipped after the checksum is computed)?
    /// Service-level: the run engine never consults this.
    pub fn corrupt_cache_entry(&self, job: usize) -> bool {
        self.take(FaultKind::CorruptCacheEntry, job)
    }

    /// How long job `job`'s worker should hang before simulating
    /// ([`STALL_JOB_DELAY`] per armed fire). Service-level.
    pub fn stall_delay(&self, job: usize) -> Option<Duration> {
        self.take(FaultKind::StallJob, job).then_some(STALL_JOB_DELAY)
    }

    /// The panic message to raise in job `job`'s supervised worker, if a
    /// [`FaultKind::WorkerPanic`] is armed against it. Service-level,
    /// keyed by job admission order.
    pub fn job_panic_message(&self, job: usize) -> Option<String> {
        self.take(FaultKind::WorkerPanic, job)
            .then(|| format!("injected fault: job {job} worker panic"))
    }
}

/// SplitMix64 — tiny, seedable, and good enough to spread faults over the
/// kind × group grid.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_from_the_same_seed_are_identical() {
        let a = FaultPlan::from_seed(0xFEED, 8, 4);
        let b = FaultPlan::from_seed(0xFEED, 8, 4);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 8);
        assert!(a.faults().iter().all(|f| f.group < 4 && f.fires == 1));
        let c = FaultPlan::from_seed(0xBEEF, 8, 4);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn injector_meters_fires_across_attempts() {
        let plan = FaultPlan::new()
            .with_repeated(FaultKind::LeaderPanic, 0, 2)
            .with(FaultKind::FollowerPanic, 1);
        let inj = FaultInjector::new(&plan);
        assert!(inj.leader_panic_message().is_some(), "first attempt fires");
        assert!(inj.leader_panic_message().is_some(), "second attempt fires");
        assert!(inj.leader_panic_message().is_none(), "budget spent; retry succeeds");
        assert!(inj.follower_panic_message().is_none(), "the engine's stream is group 0");
    }

    #[test]
    fn log_exhaustion_is_plan_level() {
        assert!(!FaultPlan::new().forces_log_exhaustion());
        assert!(FaultPlan::new().with(FaultKind::ExhaustLogBudget, 0).forces_log_exhaustion());
        assert!(!FaultPlan::new()
            .with_repeated(FaultKind::ExhaustLogBudget, 0, 0)
            .forces_log_exhaustion());
    }

    #[test]
    fn service_faults_meter_like_engine_faults() {
        let plan = FaultPlan::new()
            .with(FaultKind::CorruptCacheEntry, 0)
            .with_repeated(FaultKind::StallJob, 1, 2)
            .with(FaultKind::WorkerPanic, 2);
        let inj = FaultInjector::new(&plan);
        assert!(inj.corrupt_cache_entry(0));
        assert!(!inj.corrupt_cache_entry(0), "budget spent; rewrite is clean");
        assert!(!inj.corrupt_cache_entry(1), "untargeted job untouched");
        assert_eq!(inj.stall_delay(1), Some(STALL_JOB_DELAY));
        assert_eq!(inj.stall_delay(1), Some(STALL_JOB_DELAY));
        assert_eq!(inj.stall_delay(1), None);
        assert!(inj.job_panic_message(2).is_some());
        assert!(inj.job_panic_message(2).is_none(), "retry attempt succeeds");
    }

    #[test]
    fn seeded_service_plans_stay_in_the_service_universe() {
        let plan = FaultPlan::from_seed_with_kinds(0xFEED, 16, 4, &FaultKind::SERVICE);
        assert_eq!(plan.faults().len(), 16);
        assert!(plan.faults().iter().all(|f| FaultKind::SERVICE.contains(&f.kind) && f.group < 4));
        assert_eq!(plan, FaultPlan::from_seed_with_kinds(0xFEED, 16, 4, &FaultKind::SERVICE));
        assert!(FaultPlan::from_seed_with_kinds(1, 8, 2, &[]).is_empty());
    }

    #[test]
    fn duplicate_entries_accumulate() {
        let plan = FaultPlan::new().with(FaultKind::StallJob, 3).with(FaultKind::StallJob, 3);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.stall_delay(3), Some(STALL_JOB_DELAY));
        assert_eq!(inj.stall_delay(3), Some(STALL_JOB_DELAY));
        assert_eq!(inj.stall_delay(3), None);
    }
}
