//! Metric names and units, the per-workload [`Report`], its output (human
//! lines, the result line, the `--out` file), and `--compare`.

use std::collections::BTreeMap;

use rsr_serve::json::{self, num_f64, num_u64, Json};

use crate::measure::Summary;
use crate::replica::Tracer;
use crate::workloads::Workload;

/// End-to-end metrics: `(name, unit)`, emitted by every workload with
/// `--trace 0`. `BENCHMARK.json` lists the same set with bounds.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_min_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")];

/// Per-layer metrics: `(name, unit)`, emitted by every workload with
/// `--trace 1`; 0 where the workload does not run the layer.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("func.step_s", "s"),
    ("func.minst_per_s", "Minst/s"),
    ("log.append_s", "s"),
    ("log.seal_mem_s", "s"),
    ("log.seal_branch_s", "s"),
    ("log.seal_ns_per_record", "ns"),
    ("log.records", "count"),
    ("log.bytes_peak", "B"),
    ("reverse.cache_s", "s"),
    ("reverse.mem_scanned", "count"),
    ("reverse.cache_useful_ratio", "ratio"),
    ("reverse.bp_init_s", "s"),
    ("reverse.branch_scanned", "count"),
    ("reverse.pht_exact_ratio", "ratio"),
    ("reverse.reported_l1_ns", "ns"),
    ("reverse.reported_l2_ns", "ns"),
    ("reverse.reported_pht_ns", "ns"),
    ("reverse.reported_btb_ns", "ns"),
    ("timing.hot_s", "s"),
    ("timing.hot_insts", "count"),
    ("timing.hot_minst_per_s", "Minst/s"),
    ("timing.cycles", "count"),
    ("timing.mispredicts", "count"),
    ("sampler.smarts_s", "s"),
    ("sampler.warm_updates", "count"),
    ("sampler.ns_per_update", "ns"),
    ("sampler.ipc_rel_err", "ratio"),
    ("shard.reset_s", "s"),
    ("engine.cold_s", "s"),
    ("engine.warm_s", "s"),
    ("engine.hot_s", "s"),
    ("engine.overlap_s", "s"),
    ("sweep.capture_s", "s"),
    ("sweep.replay_s", "s"),
    ("sweep.replay_s_per_config", "s"),
    ("sweep.index_builds", "count"),
    ("sweep.index_builds_shared", "count"),
    ("sweep.restore_bytes", "B"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.deduped", "count"),
    ("serve.shed", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// One value per metric name, for a single rep or replica run.
pub type Values = BTreeMap<&'static str, f64>;

/// Summarizes per-rep values into one [`Summary`] per metric name.
pub fn summarize(reps: &[Values]) -> BTreeMap<&'static str, Summary> {
    let mut names: Vec<&'static str> = reps.iter().flat_map(|v| v.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let samples: Vec<f64> = reps.iter().filter_map(|v| v.get(n).copied()).collect();
            (n, Summary::of(&samples))
        })
        .collect()
}

/// What one workload run measured and checked.
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Simulations and requests performed (warm-up and check runs
    /// included) plus output checks made.
    pub attempted: u64,
    /// Of those, the operations that errored or were refused and the
    /// checks that did not hold.
    pub failed: u64,
    /// What failed, for the human-readable output.
    pub problems: Vec<String>,
    /// Context for the human-readable output (resolved knobs, estimates).
    pub notes: Vec<String>,
    /// Pinned output values, by pin name (what `--reference` prints).
    pub outputs: Vec<(&'static str, u64)>,
    e2e: BTreeMap<&'static str, Summary>,
    layers: BTreeMap<&'static str, Summary>,
    /// The traced runs' spans.
    pub tracers: Vec<Tracer>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            outputs: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            tracers: Vec::new(),
        }
    }

    /// Did every operation succeed and every check hold?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Counts one attempted operation, returning its value or recording
    /// its error as a failure.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        let v = r.map_err(|e| format!("{what} failed: {e}"));
        self.count(v)
    }

    /// Counts one check, recording it as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(if ok { Ok(()) } else { Err(what()) });
    }

    fn count<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|problem| {
            self.failed += 1;
            self.problems.push(problem);
        })
        .ok()
    }

    /// Records an output and checks it against its pin.
    pub fn pin(&mut self, name: &'static str, got: u64, pinned: u64) {
        self.outputs.push((name, got));
        self.check(got == pinned, || format!("{name} is {got:#x}, pinned {pinned:#x}"));
    }

    /// Sets an end-to-end metric.
    pub fn set_e2e(&mut self, name: &'static str, s: Summary) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unlisted end-to-end metric {name}");
        self.e2e.insert(name, s);
    }

    /// Sets per-layer metrics.
    pub fn set_layers(&mut self, layers: BTreeMap<&'static str, Summary>) {
        for (name, s) in layers {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
            self.layers.insert(name, s);
        }
    }

    /// The metrics the result line carries: every end-to-end metric, or
    /// with `traced` every per-layer metric; 0 for one not measured.
    pub fn rows(&self, traced: bool) -> Vec<(&'static str, &'static str, Summary)> {
        let (list, map): (&[(&'static str, &'static str)], _) =
            if traced { (&PER_LAYER, &self.layers) } else { (&END_TO_END, &self.e2e) };
        let zero = Summary { value: 0.0, q1: 0.0, q3: 0.0, n: 0 };
        list.iter().map(|&(n, u)| (n, u, map.get(n).copied().unwrap_or(zero))).collect()
    }

    /// Human-readable lines: notes, every metric with its unit, problems.
    pub fn human(&self, traced: bool) -> String {
        let mut s = format!("== {}\n", self.workload.name());
        for note in &self.notes {
            s.push_str(&format!("   {note}\n"));
        }
        for (name, unit, m) in self.rows(traced) {
            s.push_str(&format!(
                "   {name:<28} {:>16.6} {unit:<8} q1 {:.6}  q3 {:.6}  n {}\n",
                m.value, m.q1, m.q3, m.n
            ));
        }
        for p in &self.problems {
            s.push_str(&format!("   CHECK FAILED: {p}\n"));
        }
        s.push_str(&format!(
            "   {} attempted, {} failed, {}\n",
            self.attempted,
            self.failed,
            if self.correct() { "all checks hold" } else { "NOT CORRECT" }
        ));
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, and each metric's
    /// value with its unit.
    pub fn result_line(&self, traced: bool) -> Json {
        let metrics = self
            .rows(traced)
            .into_iter()
            .map(|(n, u, m)| {
                let v = Json::Obj(vec![
                    ("value".into(), num_f64(m.value)),
                    ("unit".into(), Json::Str(u.into())),
                ]);
                (n.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), num_u64(self.attempted)),
            ("failed".into(), num_u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// The `--out` record: every metric with its quartiles and sample count.
    pub fn to_json(&self, traced: bool) -> Json {
        let metrics = |rows: Vec<(&str, &str, Summary)>| {
            Json::Obj(
                rows.into_iter()
                    .map(|(n, u, m)| {
                        let v = Json::Obj(vec![
                            ("unit".into(), Json::Str(u.into())),
                            ("value".into(), num_f64(m.value)),
                            ("q1".into(), num_f64(m.q1)),
                            ("q3".into(), num_f64(m.q3)),
                            ("n".into(), num_u64(m.n as u64)),
                        ]);
                        (n.to_string(), v)
                    })
                    .collect(),
            )
        };
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.workload.name().into())),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), num_u64(self.attempted)),
            ("failed".to_string(), num_u64(self.failed)),
            ("end_to_end".to_string(), metrics(self.rows(false))),
        ];
        if traced {
            fields.push(("per_layer".to_string(), metrics(self.rows(true))));
        }
        Json::Obj(fields)
    }
}

/// The repository's `BENCHMARK.json`, built in: run length and bounds
/// come from it whatever the working directory.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// `BENCHMARK.json`, parsed. The tests check that it parses.
pub fn benchmark_spec() -> Json {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `run_seconds` from `BENCHMARK.json`: the default `--seconds`.
pub fn run_seconds() -> f64 {
    benchmark_spec().get("run_seconds").and_then(Json::as_f64).expect("BENCHMARK.json run_seconds")
}

/// One end-to-end metric's bound, from `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(items)) = benchmark_spec().get("end_to_end").cloned() else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok(Bound { name: name.into(), higher_is_better: better == "higher", bound })
                }
                _ => Err(format!("malformed end_to_end entry {}", json::to_string(m))),
            }
        })
        .collect()
}

fn workloads(report: &Json) -> Vec<&Json> {
    match report.get("workloads") {
        Some(Json::Arr(items)) => items.iter().collect(),
        _ => Vec::new(),
    }
}

/// `(value, q1, q3)` of a metric in a `--out` workload record.
fn stats(workload: &Json, metric: &str) -> Option<(f64, f64, f64)> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some((m.get("value")?.as_f64()?, m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?))
}

/// Compares two `--out` reports metric by metric against the bounds in
/// `BENCHMARK.json`, printing each pair as within bound, regressed (B
/// worse than A by more than the bound), or unresolved (a side's quartile
/// spread is wider than the bound). Returns whether nothing regressed.
///
/// # Errors
///
/// Unreadable or malformed input files.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let mut clean = true;
    println!(
        "{:<12} {:<12} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "B vs A"
    );
    for wa in workloads(&a) {
        let Some(name) = wa.get("name").and_then(Json::as_str) else { continue };
        let Some(wb) = workloads(&b).into_iter().find(|w| w.get("name") == wa.get("name")) else {
            println!("{name:<12} missing from {b_path}");
            clean = false;
            continue;
        };
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (stats(wa, &bound.name), stats(wb, &bound.name)) else {
                println!("{name:<12} {:<12} missing", bound.name);
                clean = false;
                continue;
            };
            let spread = |(m, q1, q3): (f64, f64, f64)| if m == 0.0 { 0.0 } else { (q3 - q1) / m };
            let change = if sa.0 == 0.0 { 0.0 } else { (sb.0 - sa.0) / sa.0 };
            let worse = if bound.higher_is_better { -change } else { change };
            let verdict = if spread(sa).max(spread(sb)) > bound.bound {
                "unresolved"
            } else if worse > bound.bound {
                clean = false;
                "REGRESSED"
            } else {
                "within bound"
            };
            println!(
                "{name:<12} {:<12} {:>28} {:>28} {:>+7.1}%  {verdict} (bound {:.0}%)",
                bound.name,
                format!("{:.6} [{:.6}, {:.6}]", sa.0, sa.1, sa.2),
                format!("{:.6} [{:.6}, {:.6}]", sb.0, sb.1, sb.2),
                100.0 * change,
                100.0 * bound.bound
            );
        }
    }
    Ok(clean)
}
