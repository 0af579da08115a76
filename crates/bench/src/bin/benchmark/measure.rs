//! Measurement helpers: the timed-rep loop, percentiles, host peak memory,
//! and the FNV digest the output checks pin.

use std::time::Instant;

/// Fewest timed reps a workload runs, however long each rep takes. The
/// memory metric covers exactly these first reps, so every run measures it
/// over the same work whatever the host's or the program's speed.
pub const MIN_REPS: usize = 8;

/// Runs `rep` until `seconds` of host time have passed and at least
/// [`MIN_REPS`] reps have run, returning every rep's result in order.
pub fn run_for<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        out.push(rep());
    }
    out
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, linearly interpolated between
/// the closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A metric's reported value, with the quartiles and count of its samples
/// within one run.
#[derive(Copy, Clone, Debug)]
pub struct Summary {
    /// The reported value: the samples' median, or their minimum for
    /// [`Summary::fastest`].
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarized.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` by their median.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: percentile(values, 0.5),
            q1: percentile(values, 0.25),
            q3: percentile(values, 0.75),
            n: values.len(),
        }
    }

    /// Summarizes `values` by their minimum.
    pub fn fastest(values: &[f64]) -> Summary {
        Summary { value: percentile(values, 0.0), ..Summary::of(values) }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() {
    // Without /proc (not Linux) the peak simply covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// FNV-1a over a sequence of 64-bit words (little-endian bytes).
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// splitmix64: the benchmark's input generator (the serve specs' schedule
/// seeds and the batches' submission orders).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
