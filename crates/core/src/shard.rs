//! The sharded parallel engine behind [`crate::RunSpec::threads`], with
//! supervised, fault-tolerant workers.
//!
//! A sampled run carries two kinds of state between cluster windows: the
//! *architectural* (functional) stream, and the *microarchitectural*
//! carryover (caches and predictor warmed continuously, as the paper's
//! SMARTS baseline requires). Carryover would make sharding inexact, so
//! the engine defines **canonical shard boundaries** — placed by
//! [`partition_by_span`] from the schedule alone, never from the thread
//! count — and resets microarchitectural state exactly there. Each
//! boundary is a deliberate cold-start of the same kind a live-point
//! checkpoint restore produces (Wenisch et al.), and the warm-up policy
//! repairs it just as §3's reverse reconstruction repairs a sample's
//! cold-start. Because the boundaries are a pure function of the schedule,
//! a run with any `threads` value produces bit-identical per-cluster
//! numbers: threads only change how the canonical shards are *grouped*
//! onto workers.
//!
//! Reproducing "the exact functional state at instruction N" without
//! simulating N instructions per worker is the live-points trick from
//! `rsr-ckpt`, inverted: one deterministic *scout* pass on the main thread
//! fast-forwards functionally through the program, and at each worker
//! group's boundary captures a checkpoint of the architectural registers
//! plus every page stored to so far (untouched pages are reproduced by a
//! fresh `Cpu::new` from the load image, so no lookahead is needed).
//! Workers are `std::thread::scope` threads fed through channels, so a
//! group starts the instant the scout crosses its boundary — while the
//! scout keeps streaming toward the next one — and the scout's single
//! functional pass is the only sequential bottleneck.
//!
//! **Supervision.** The run is only as reliable as its weakest worker, so
//! every group body runs under `catch_unwind`: a panic becomes a typed
//! [`SimError::ShardPanicked`] carrying the payload, never a lost run.
//! Checkpoints travel with an FNV-1a checksum, verified on receipt
//! ([`SimError::CheckpointCorrupt`] on mismatch), and the supervisor
//! retains every checkpoint it streams out. After the scope joins, each
//! group that failed with a shard-infrastructure fault (panic, lost or
//! corrupt checkpoint — see [`SimError::is_shard_fault`]) is retried up to
//! [`crate::RunSpec::max_shard_retries`] times from its retained
//! checkpoint, on the supervising thread. A retried group replays exactly
//! the windows the worker would have run, so a healed run merges
//! bit-identically, in schedule order. Deterministic simulation errors are
//! never retried, and deadline aborts ([`SimError::DeadlineExceeded`])
//! carry how much of the schedule completed. Every failure path is
//! exercisable deterministically through [`crate::FaultPlan`].

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use rsr_func::{ArchState, Cpu, PAGE_BYTES};
use rsr_isa::{Fnv, Program};

use crate::fault::FaultInjector;
use crate::log::LogPool;
use crate::sampler::{policy_decouples, run_windows, run_windows_pipelined, PipelineCtx};
use crate::{ClusterWindow, MachineConfig, SampleOutcome, Schedule, SimError, WarmupPolicy};

/// The resource-guard and supervision parameters of one run, threaded from
/// [`crate::RunSpec`] into every worker and the retry supervisor.
pub(crate) struct RunGuards<'a> {
    /// Per-region byte cap for the RSR reference log (`None` = unbounded).
    pub log_budget: Option<usize>,
    /// Absolute wall-clock deadline (`None` = unbounded).
    pub deadline: Option<Instant>,
    /// Times a failed group may be retried from its checkpoint.
    pub max_retries: u32,
    /// The armed fault plan, if any.
    pub injector: Option<&'a FaultInjector>,
    /// Resolved intra-shard pipeline depth (see
    /// [`crate::RunSpec::pipeline_depth`]); 1 is the sequential engine.
    pub pipeline_depth: usize,
}

/// Everything a worker needs to resume functional execution at its group
/// boundary: the registers, plus the pages dirtied since program start
/// (everything else is load-image state a fresh [`Cpu::new`] rebuilds).
/// The checksum covers registers and pages; workers verify it on receipt
/// so a checkpoint corrupted in transit is a typed error, not a silently
/// wrong estimate.
struct ShardCheckpoint {
    arch: ArchState,
    /// `(page number, page bytes)`, ascending.
    pages: Vec<(u64, Vec<u8>)>,
    checksum: u64,
}

impl ShardCheckpoint {
    fn new(arch: ArchState, pages: Vec<(u64, Vec<u8>)>) -> ShardCheckpoint {
        let checksum = checkpoint_checksum(&arch, &pages);
        ShardCheckpoint { arch, pages, checksum }
    }

    /// Verifies contents against the carried checksum.
    fn verify(&self, group: usize) -> Result<(), SimError> {
        let found = checkpoint_checksum(&self.arch, &self.pages);
        if found == self.checksum {
            Ok(())
        } else {
            Err(SimError::CheckpointCorrupt { index: group, expected: self.checksum, found })
        }
    }
}

/// FNV-1a over the architectural registers and dirty pages — cheap
/// relative to the page copies themselves, and order-sensitive.
fn checkpoint_checksum(arch: &ArchState, pages: &[(u64, Vec<u8>)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(arch.pc);
    for &r in &arch.iregs {
        h.u64(r);
    }
    for r in &arch.fregs {
        h.u64(r.to_bits());
    }
    h.u64(arch.icount);
    h.u8(arch.halted as u8);
    for (page_no, bytes) in pages {
        h.u64(*page_no);
        h.bytes(bytes);
    }
    h.finish()
}

/// Places the canonical shard boundaries: contiguous window runs, cut as
/// soon as a shard spans at least `shard_span` instructions. Depends only
/// on the schedule and `shard_span`, so every thread count sees the same
/// boundaries (and at integration-test scales — total < `shard_span` —
/// the whole run is one shard, i.e. plain continuous carryover).
pub(crate) fn partition_by_span(windows: &[ClusterWindow], shard_span: u64) -> Vec<Range<usize>> {
    let shard_span = shard_span.max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut start_pos = 0u64;
    for (i, w) in windows.iter().enumerate() {
        if w.end() - start_pos >= shard_span {
            out.push(start..i + 1);
            start = i + 1;
            start_pos = w.end();
        }
    }
    if start < windows.len() {
        out.push(start..windows.len());
    }
    out
}

/// Splits items with the given `spans` into up to `parts` contiguous,
/// non-empty groups balanced by span (each shard's skip + hot work is
/// proportional to the instructions it covers, not to its shard count).
pub(crate) fn partition_balanced(spans: &[u64], parts: usize) -> Vec<Range<usize>> {
    if spans.is_empty() {
        return Vec::new();
    }
    let parts = parts.clamp(1, spans.len());
    let cum: Vec<u64> = spans
        .iter()
        .scan(0u64, |acc, s| {
            *acc += s;
            Some(*acc)
        })
        .collect();
    let total = cum.last().copied().unwrap_or(0) as f64;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for k in 0..parts {
        let groups_left = parts - k;
        // Leave at least one item for every group still to come.
        let max_end = spans.len() - (groups_left - 1);
        let target = total * (k + 1) as f64 / parts as f64;
        let mut end = start + 1;
        while end < max_end && (cum[end - 1] as f64) < target {
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, spans.len());
    out
}

/// One worker group's task: a contiguous run of canonical shards, plus
/// the schedule-wide context a group body needs to locate its work. This
/// is the interface between the generic sharded orchestrator
/// ([`run_sharded_with`]) and the body it runs per group — the detailed
/// engine for [`run_sharded`], the cold capture pass for the sweep engine.
#[derive(Copy, Clone)]
pub(crate) struct GroupCtx<'a> {
    /// Group index, in schedule order (the unit supervision reports on).
    pub index: usize,
    /// Global index of the group's first canonical shard.
    pub first_shard: usize,
    /// The group's shards, as window ranges into `windows`.
    pub shards: &'a [Range<usize>],
    /// Canonical shard start positions (dynamic instruction indices),
    /// indexed by global shard number.
    pub shard_starts: &'a [u64],
    /// The full schedule's windows.
    pub windows: &'a [ClusterWindow],
    /// Total canonical shard count across all groups.
    pub total_shards: usize,
}

/// Best-effort extraction of a panic payload's message. `panic!` with a
/// literal carries `&str`, `format!`-style panics carry `String`; anything
/// else is reported as opaque rather than dropped.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Errors out with [`SimError::DeadlineExceeded`] once the guard's
/// deadline has passed. `completed` counts canonical shards in schedule
/// order, so the abort means the same thing at every thread count.
pub(crate) fn check_deadline(
    guards: &RunGuards<'_>,
    completed: usize,
    total: usize,
) -> Result<(), SimError> {
    match guards.deadline {
        Some(at) if Instant::now() >= at => {
            Err(SimError::DeadlineExceeded { completed_shards: completed, total_shards: total })
        }
        _ => Ok(()),
    }
}

/// Runs one group to completion: inject armed faults, build the CPU,
/// restore the checkpoint (if the group has one — group 0 starts from the
/// load image), then hand off to `body`. This is the path both the scoped
/// workers and the retry supervisor execute, so a retried group reproduces
/// the worker's outcome bit for bit.
fn run_group_with<T, F>(
    program: &Program,
    ctx: GroupCtx<'_>,
    ck: Option<&ShardCheckpoint>,
    guards: &RunGuards<'_>,
    body: &F,
) -> Result<T, SimError>
where
    F: Fn(&mut Cpu, GroupCtx<'_>) -> Result<T, SimError>,
{
    if let Some(inj) = guards.injector {
        if let Some(msg) = inj.panic_message(ctx.index) {
            std::panic::panic_any(msg);
        }
        if let Some(delay) = inj.slow_delay(ctx.index) {
            std::thread::sleep(delay);
        }
    }
    let mut cpu = Cpu::new(program)?;
    if let Some(ck) = ck {
        ck.verify(ctx.index)?;
        cpu.restore_arch(&ck.arch);
        for (page_no, bytes) in &ck.pages {
            cpu.mem_mut().write_slice(page_no * PAGE_BYTES, bytes);
        }
    }
    body(&mut cpu, ctx)
}

/// [`run_group_with`] under `catch_unwind`: a panicking worker body
/// becomes [`SimError::ShardPanicked`] with its payload, never a dead run.
fn supervised_group_with<T, F>(
    program: &Program,
    ctx: GroupCtx<'_>,
    ck: Option<&ShardCheckpoint>,
    guards: &RunGuards<'_>,
    body: &F,
) -> Result<T, SimError>
where
    F: Fn(&mut Cpu, GroupCtx<'_>) -> Result<T, SimError>,
{
    catch_unwind(AssertUnwindSafe(|| run_group_with(program, ctx, ck, guards, body)))
        .unwrap_or_else(|payload| {
            Err(SimError::ShardPanicked {
                index: ctx.index,
                message: panic_message(payload.as_ref()),
            })
        })
}

/// The scout pass: fast-forwards functionally through the run on the
/// calling thread, delivering `senders[g-1]` the checkpoint for worker
/// group `g` the moment the scout reaches that group's boundary, and
/// retaining a copy in `retained[g]` so the supervisor can retry a failed
/// group without re-scouting.
///
/// A checkpoint is the registers plus every *dirty* page — pages stored to
/// since program start, tracked incrementally as the scout executes. That
/// set needs no lookahead: a page the group reads but nothing ever wrote
/// still holds its load-image (or zero) content, which the worker's fresh
/// [`Cpu::new`] reproduces by construction. So the scout executes the run
/// functionally exactly once and each worker starts the instant its
/// boundary is crossed, while the scout keeps streaming ahead.
fn scout_checkpoints(
    program: &Program,
    starts: &[u64],
    senders: Vec<Sender<Arc<ShardCheckpoint>>>,
    injector: Option<&FaultInjector>,
    retained: &mut [Option<Arc<ShardCheckpoint>>],
) -> Result<(), SimError> {
    let mut cpu = Cpu::new(program)?;
    let mut dirty: BTreeSet<u64> = BTreeSet::new();
    let mut pos = 0u64;
    for (i, sender) in senders.iter().enumerate() {
        let g = i + 1;
        let boundary = starts[g];
        cpu.step_n(boundary - pos, |r| {
            if let Some(m) = r.mem {
                if m.is_store {
                    dirty.insert(m.addr / PAGE_BYTES);
                    dirty.insert((m.addr + m.width.bytes() - 1) / PAGE_BYTES);
                }
            }
        })?;
        pos = boundary;
        let pages: Vec<(u64, Vec<u8>)> = dirty
            .iter()
            .map(|&p| (p, cpu.mem_mut().read_vec(p * PAGE_BYTES, PAGE_BYTES as usize)))
            .collect();
        let ck = Arc::new(ShardCheckpoint::new(cpu.arch_state(), pages));
        // The pristine copy outlives delivery: it is what retries restore.
        retained[g] = Some(Arc::clone(&ck));
        let deliver = match injector {
            Some(inj) if inj.drop_checkpoint(g) => None,
            Some(inj) if inj.corrupt_checkpoint(g) => Some(Arc::new(ShardCheckpoint {
                arch: ck.arch.clone(),
                pages: ck.pages.clone(),
                checksum: ck.checksum ^ 0xDEAD_BEEF_DEAD_BEEF,
            })),
            _ => Some(ck),
        };
        if let Some(ck) = deliver {
            // A closed channel means the worker already failed; its join
            // result carries the real error.
            let _ = sender.send(ck);
        }
    }
    Ok(())
}

/// The generic sharded orchestrator: splits `schedule` into canonical
/// shards, groups them over up to `threads` supervised workers, runs
/// `body` once per group (scout-checkpointed, panic-captured, retried per
/// [`RunGuards::max_retries`]), and returns the per-group results in
/// schedule order plus the total retry count. `threads == 1` (or a single
/// shard/group) takes the in-process path — same results, no scout —
/// under the same supervision.
///
/// `body` receives a checkpoint-restored CPU positioned at the group's
/// boundary and the [`GroupCtx`] describing its shards; it owns the
/// per-shard loop (including [`check_deadline`] calls) so different
/// engines — the detailed run, the sweep's cold capture — share one
/// supervision story.
pub(crate) fn run_sharded_with<T, F>(
    program: &Program,
    schedule: &Schedule,
    threads: usize,
    shard_span: u64,
    guards: &RunGuards<'_>,
    body: &F,
) -> Result<(Vec<T>, u64), SimError>
where
    T: Send,
    F: Fn(&mut Cpu, GroupCtx<'_>) -> Result<T, SimError> + Sync,
{
    let windows = schedule.windows();
    let shards = partition_by_span(windows, shard_span);
    // Canonical shard boundary positions: shard s resumes at the end of
    // shard s-1's last window (its leading gap is replayed under the
    // warm-up policy itself, which is what repairs the boundary
    // cold-start).
    let shard_starts: Vec<u64> = std::iter::once(0)
        .chain(shards.iter().map(|r| windows[r.end - 1].end()))
        .take(shards.len())
        .collect();
    let total_shards = shards.len();
    let spans: Vec<u64> = shards
        .iter()
        .zip(&shard_starts)
        .map(|(r, &start)| windows[r.end - 1].end() - start)
        .collect();
    let groups = if threads <= 1 || shards.len() <= 1 {
        // One group owning every shard (a Vec holding a single Range).
        std::iter::once(0..shards.len()).collect()
    } else {
        partition_balanced(&spans, threads)
    };

    if groups.len() <= 1 {
        // In-process path: one group holding every shard, supervised and
        // retried from the load image (it needs no checkpoint).
        let ctx = GroupCtx {
            index: 0,
            first_shard: 0,
            shards: &shards,
            shard_starts: &shard_starts,
            windows,
            total_shards,
        };
        let mut retries = 0u64;
        loop {
            match supervised_group_with(program, ctx, None, guards, body) {
                Ok(out) => return Ok((vec![out], retries)),
                Err(e) if e.is_shard_fault() && retries < guards.max_retries as u64 => {
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    let starts: Vec<u64> = groups.iter().map(|g| shard_starts[g.start]).collect();
    let mut retained: Vec<Option<Arc<ShardCheckpoint>>> = vec![None; groups.len()];
    let mut group_results: Vec<Result<T, SimError>> = Vec::new();
    let mut scout_result: Result<(), SimError> = Ok(());
    std::thread::scope(|s| {
        let mut senders = Vec::with_capacity(groups.len() - 1);
        let mut handles = Vec::with_capacity(groups.len());
        for (g, group) in groups.iter().enumerate() {
            let ctx = GroupCtx {
                index: g,
                first_shard: group.start,
                shards: &shards[group.clone()],
                shard_starts: &shard_starts,
                windows,
                total_shards,
            };
            if g == 0 {
                handles
                    .push(s.spawn(move || supervised_group_with(program, ctx, None, guards, body)));
            } else {
                let (tx, rx) = channel::<Arc<ShardCheckpoint>>();
                senders.push(tx);
                handles.push(s.spawn(move || {
                    let ck = rx.recv().map_err(|_| SimError::Shard { index: g })?;
                    supervised_group_with(program, ctx, Some(&ck), guards, body)
                }));
            }
        }
        scout_result = scout_checkpoints(program, &starts, senders, guards.injector, &mut retained);
        group_results = handles
            .into_iter()
            .enumerate()
            .map(|(g, h)| match h.join() {
                // The worker body is already supervised; a join error means
                // the panic escaped `catch_unwind` itself (e.g. in thread
                // teardown). Surface its payload all the same.
                Ok(r) => r,
                Err(payload) => Err(SimError::ShardPanicked {
                    index: g,
                    message: panic_message(payload.as_ref()),
                }),
            })
            .collect();
    });
    // A scout fault is the root cause of any downstream channel loss;
    // report it first, then the earliest group failure in schedule order.
    scout_result?;

    // Retry supervision: heal shard-infrastructure faults from the
    // retained checkpoints, in schedule order, on this thread. A retried
    // group replays the exact windows its worker owned, so the merge below
    // stays bit-identical to a fault-free run.
    let mut total_retries = 0u64;
    for (g, result) in group_results.iter_mut().enumerate() {
        let mut left = guards.max_retries;
        while left > 0 && result.as_ref().err().is_some_and(SimError::is_shard_fault) {
            left -= 1;
            total_retries += 1;
            let group = &groups[g];
            let ctx = GroupCtx {
                index: g,
                first_shard: group.start,
                shards: &shards[group.clone()],
                shard_starts: &shard_starts,
                windows,
                total_shards,
            };
            *result = supervised_group_with(program, ctx, retained[g].as_deref(), guards, body);
        }
    }

    let mut out = Vec::with_capacity(group_results.len());
    for r in group_results {
        out.push(r?);
    }
    Ok((out, total_retries))
}

/// Runs `schedule` under the canonical-shard semantics, distributing the
/// shards over up to `threads` supervised workers and merging per-shard
/// outcomes in schedule order: [`run_sharded_with`] instantiated with the
/// detailed engine (sequential or pipelined per shard) as the group body.
pub(crate) fn run_sharded(
    program: &Program,
    machine: &MachineConfig,
    schedule: &Schedule,
    policy: WarmupPolicy,
    threads: usize,
    shard_span: u64,
    guards: &RunGuards<'_>,
) -> Result<SampleOutcome, SimError> {
    let body = |cpu: &mut Cpu, ctx: GroupCtx<'_>| {
        let mut merged = SampleOutcome::empty(policy);
        // One log pool per group: packed-ring allocations recycle across
        // regions and shards, and the pool carries the log budget and the
        // retention window the policy's scan budget reads.
        let mut pool = LogPool::new(guards.log_budget).retaining(policy.scan_budget());
        let pipelined = guards.pipeline_depth > 1 && policy_decouples(policy);
        for (i, r) in ctx.shards.iter().enumerate() {
            let shard = ctx.first_shard + i;
            check_deadline(guards, shard, ctx.total_shards)?;
            let pos = ctx.shard_starts[shard];
            let slice = &ctx.windows[r.clone()];
            let out = if pipelined {
                let pctx = PipelineCtx {
                    depth: guards.pipeline_depth,
                    deadline: guards.deadline,
                    injector: guards.injector,
                    group: ctx.index,
                    shard,
                    total_shards: ctx.total_shards,
                };
                run_windows_pipelined(machine, policy, cpu, pos, slice, &mut pool, &pctx)?
            } else {
                run_windows(machine, policy, cpu, pos, slice, &mut pool)?
            };
            merged.absorb(&out);
        }
        Ok(merged)
    };
    let (group_outcomes, retries) =
        run_sharded_with(program, schedule, threads, shard_span, guards, &body)?;
    let mut merged = SampleOutcome::empty(policy);
    for out in &group_outcomes {
        merged.absorb(out);
    }
    merged.shard_retries += retries;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start: u64, len: u64) -> ClusterWindow {
        ClusterWindow { start, len }
    }

    #[test]
    fn span_partition_covers_contiguously() {
        let windows: Vec<ClusterWindow> = (0..10).map(|i| w(i * 1000 + 200, 300)).collect();
        for span in [1u64, 500, 1_000, 2_500, 10_000, 1_000_000] {
            let ranges = partition_by_span(&windows, span);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, windows.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap or overlap");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        // Larger-than-total span: the whole run is one shard (carryover
        // everywhere — the seed semantics).
        assert_eq!(partition_by_span(&windows, 1_000_000), vec![0..10]);
        // One-instruction span: every window is its own shard.
        assert_eq!(partition_by_span(&windows, 1).len(), windows.len());
    }

    #[test]
    fn span_partition_is_independent_of_anything_but_the_schedule() {
        let windows: Vec<ClusterWindow> = (0..7).map(|i| w(i * 900 + 100, 400)).collect();
        let a = partition_by_span(&windows, 2_000);
        let b = partition_by_span(&windows, 2_000);
        assert_eq!(a, b);
        // Boundary falls exactly where the cumulative span crosses 2000
        // (window 2 ends at 2300).
        assert_eq!(a.first(), Some(&(0..3)));
    }

    #[test]
    fn balanced_partition_covers_contiguously() {
        let spans: Vec<u64> = (0..10).map(|i| 1000 + i * 10).collect();
        for parts in 1..=12 {
            let ranges = partition_balanced(&spans, parts);
            assert!(ranges.len() <= parts.min(spans.len()));
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, spans.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap or overlap");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn balanced_partition_balances_by_span() {
        // Nine tiny leading spans and one huge tail: a count-based split
        // would starve one group; a span-based split puts the tail alone
        // in the last group.
        let mut spans = vec![50u64; 9];
        spans.push(100_000);
        let ranges = partition_balanced(&spans, 2);
        assert_eq!(ranges, vec![0..9, 9..10]);
    }

    #[test]
    fn balanced_partition_degenerate_inputs() {
        assert!(partition_balanced(&[], 4).is_empty());
        assert_eq!(partition_balanced(&[10], 4), vec![0..1]);
        assert_eq!(partition_balanced(&[10, 10], 4).len(), 2);
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let arch =
            ArchState { pc: 0x1000, iregs: [7; 32], fregs: [1.5; 32], icount: 42, halted: false };
        let pages = vec![(3u64, vec![1u8, 2, 3]), (9, vec![4, 5])];
        let base = checkpoint_checksum(&arch, &pages);
        assert_eq!(base, checkpoint_checksum(&arch, &pages), "deterministic");
        let mut arch2 = arch.clone();
        arch2.iregs[5] ^= 1;
        assert_ne!(base, checkpoint_checksum(&arch2, &pages), "register flip detected");
        let mut pages2 = pages.clone();
        pages2[1].1[0] ^= 1;
        assert_ne!(base, checkpoint_checksum(&arch, &pages2), "page byte flip detected");
        let swapped = vec![pages[1].clone(), pages[0].clone()];
        assert_ne!(base, checkpoint_checksum(&arch, &swapped), "order-sensitive");
    }

    #[test]
    fn corrupted_checkpoint_fails_verification() {
        let arch =
            ArchState { pc: 0x2000, iregs: [0; 32], fregs: [0.0; 32], icount: 1, halted: false };
        let ck = ShardCheckpoint::new(arch, vec![(1, vec![0xAB; 64])]);
        assert!(ck.verify(3).is_ok());
        let bad = ShardCheckpoint { checksum: ck.checksum ^ 1, ..ck };
        match bad.verify(3) {
            Err(SimError::CheckpointCorrupt { index: 3, expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }
}
