//! The traced replica of the sequential engine.
//!
//! [`replica`] re-implements `RunSpec::run`'s single-thread, depth-1 window
//! loop from each layer's public function, timing every call as a span:
//!
//! * R$BP window: `SkipLog::record_region` → capture `ghr_at_start` from
//!   the predictor → `seal_mem_index` / `seal_branch_index` →
//!   `reconstruct_caches_partitioned(.., 1)` → `BpReconstructor::new` →
//!   `simulate_cluster_hooked`;
//! * S$BP window: `skip_with_smarts_warming` → `simulate_cluster`;
//! * canonical shard cuts: after a window once `end − shard_start ≥
//!   shard_span`, the hierarchy and predictor restart empty.
//!
//! Because it calls the same functions on the same inputs in the same
//! order, its estimate is bit-identical to the engine's; the workloads
//! check that on every traced run. [`shadow_step`] is a separate
//! pure-functional pass over the same skip regions, so logging and
//! SMARTS warming can be told apart from plain stepping.

use std::time::Instant;

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, skip_with_smarts_warming, BpReconstructor, MachineConfig, Pct,
    ReconGeometry, SampleOutcome, Schedule, SimError, SkipLog, WarmupPolicy,
};
use rsr_func::{Cpu, ExecError};
use rsr_isa::Program;
use rsr_timing::{simulate_cluster, simulate_cluster_hooked, HotStats};

/// The warm-up policies the replica reproduces.
#[derive(Copy, Clone, Debug)]
pub enum Warmup {
    /// R$BP: log the skip region, reconstruct caches and predictor.
    Rsr(Pct),
    /// S$BP: SMARTS functional warming of caches and predictor.
    Smarts,
}

impl Warmup {
    /// The engine policy this replica reproduces.
    pub fn policy(self) -> WarmupPolicy {
        match self {
            Warmup::Rsr(pct) => WarmupPolicy::Reverse { cache: true, bp: true, pct },
            Warmup::Smarts => WarmupPolicy::Smarts { cache: true, bp: true },
        }
    }
}

/// One timed call at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer function called (or `replica` / `func_shadow` for roots).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The simulated job (one replica run) the span belongs to.
    pub job: u32,
    /// The schedule window the span worked on.
    pub window: u32,
}

/// Spans kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    /// Every recorded span, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, for [`Tracer::close`] and as a
    /// parent.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u32,
        window: u32,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job, window });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: u32,
        window: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), job, window);
        let r = f();
        self.close(id);
        r
    }

    /// Seconds of self time per span name: each span's duration minus the
    /// part its children cover, summed over spans of that name.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum();
        ns as f64 * 1e-9
    }

    /// Seconds of total (inclusive) time of spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 * 1e-9
    }
}

/// What a replica run produced.
pub struct ReplicaOut {
    /// The engine-shaped outcome (estimate, log and reconstruction
    /// counters), comparable field by field with `RunSpec::run`'s.
    pub outcome: SampleOutcome,
    /// Summed cycle-accurate statistics of the hot clusters.
    pub hot: HotStats,
}

/// Runs the traced replica over `schedule` as job `job`, recording one
/// `replica` root span with a child span per layer call.
///
/// # Errors
///
/// Load and execution failures, as the engine reports them.
pub fn replica(
    program: &Program,
    machine: &MachineConfig,
    schedule: &Schedule,
    warmup: Warmup,
    shard_span: u64,
    tr: &mut Tracer,
    job: u32,
) -> Result<ReplicaOut, SimError> {
    let root = tr.open("replica", None, job, 0);
    let mut out = SampleOutcome::empty(warmup.policy());
    let mut hot = HotStats::default();
    let geom = ReconGeometry::of_machine(machine);
    let mut cpu = tr.time("Cpu::new", root, job, 0, || Cpu::new(program))?;
    let (mut hier, mut pred) = tr.time("shard_reset", root, job, 0, || fresh_state(machine));
    let mut log = SkipLog::new(true, true, 0);
    let mut pos = 0u64;
    let mut shard_start = 0u64;
    for (i, w) in schedule.windows().iter().enumerate() {
        let win = i as u32;
        if i > 0 && pos - shard_start >= shard_span {
            (hier, pred) = tr.time("shard_reset", root, job, win, || fresh_state(machine));
            shard_start = pos;
        }
        let skip = w.start - pos;
        out.skipped_insts += skip;
        let stats = match warmup {
            Warmup::Rsr(pct) => {
                log.reset(true, true, 0);
                tr.time("record_region", root, job, win, || log.record_region(&mut cpu, skip))?;
                log.ghr_at_start = pred.gshare.ghr();
                tr.time("seal_mem_index", root, job, win, || log.seal_mem_index(&geom));
                tr.time("seal_branch_index", root, job, win, || log.seal_branch_index(&geom, pct));
                out.log_bytes_peak = out.log_bytes_peak.max(log.peak_bytes());
                out.log_records += log.appended();
                let (recon, timing) =
                    tr.time("reconstruct_caches_partitioned", root, job, win, || {
                        reconstruct_caches_partitioned(&mut hier, &log, pct, 1)
                    });
                out.recon.accumulate(&recon);
                out.recon_timing.accumulate(&timing);
                let mut bp = tr.time("BpReconstructor::new", root, job, win, || {
                    BpReconstructor::new(&mut pred, &log, pct)
                });
                let stats = tr.time("simulate_cluster_hooked", root, job, win, || {
                    simulate_cluster_hooked(
                        &machine.core,
                        &mut cpu,
                        &mut hier,
                        &mut pred,
                        w.len,
                        &mut bp,
                    )
                })?;
                out.recon.accumulate(&bp.stats());
                out.recon_timing.accumulate(&bp.timing());
                stats
            }
            Warmup::Smarts => {
                tr.time("skip_with_smarts_warming", root, job, win, || {
                    skip_with_smarts_warming(&mut cpu, &mut hier, &mut pred, skip)
                })?;
                tr.time("simulate_cluster", root, job, win, || {
                    simulate_cluster(&machine.core, &mut cpu, &mut hier, &mut pred, w.len)
                })?
            }
        };
        if stats.instructions < w.len {
            return Err(SimError::Exec(ExecError::Halted));
        }
        out.hot_insts += stats.instructions;
        out.clusters.push(stats.ipc());
        out.cpi_clusters.push(stats.cycles as f64 / stats.instructions as f64);
        hot.cycles += stats.cycles;
        hot.instructions += stats.instructions;
        hot.full_mispredicts += stats.full_mispredicts;
        hot.decode_redirects += stats.decode_redirects;
        pos = w.end();
    }
    tr.close(root);
    Ok(ReplicaOut { outcome: out, hot })
}

/// The empty hierarchy and predictor every canonical shard starts from.
fn fresh_state(machine: &MachineConfig) -> (MemHierarchy, Predictor) {
    (MemHierarchy::new(machine.hier.clone()), Predictor::new(machine.pred))
}

/// Steps a fresh CPU through the schedule with no logging or warming,
/// timing only the skip regions (`step_n` spans under a `func_shadow`
/// root): the functional cost inside the replica's `record_region` and
/// `skip_with_smarts_warming` calls.
///
/// # Errors
///
/// Load and execution failures.
pub fn shadow_step(
    program: &Program,
    schedule: &Schedule,
    tr: &mut Tracer,
    job: u32,
) -> Result<(), SimError> {
    let root = tr.open("func_shadow", None, job, 0);
    let mut cpu = Cpu::new(program)?;
    let mut pos = 0u64;
    for (i, w) in schedule.windows().iter().enumerate() {
        tr.time("step_n", root, job, i as u32, || cpu.step_n(w.start - pos, |_| ()))?;
        cpu.step_n(w.len, |_| ())?;
        pos = w.end();
    }
    tr.close(root);
    Ok(())
}
