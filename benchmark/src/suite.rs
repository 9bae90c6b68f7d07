//! Whole-benchmark commands: the suite (`run` with no `--workload`), the
//! A/A check (`aa`) and the paired comparison (`compare`).
//!
//! Every (workload, traced?) run is its own child process of this same
//! executable, so `peak_rss_mb`, the process-wide telemetry registry and
//! `setup_s` belong to exactly one run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use mst_telemetry::json::{self, Json};

use crate::run::json_number;
use crate::spec::{Sizing, Workload, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::sys;

/// `--seconds` of the traced run in suite mode: 5 s for the probed slice and
/// 5 s for the fully traced one.
const SUITE_TRACED_SECONDS: f64 = 10.0;

/// What `BENCHMARK.json` declares that the commands here need.
pub struct Declared {
    pub run_seconds: f64,
    /// Regression bound of each end-to-end metric.
    pub bounds: BTreeMap<String, f64>,
}

impl Declared {
    pub fn load() -> Result<Declared, String> {
        let path = crate::manifest_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| e.to_string())?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?;
        let mut bounds = BTreeMap::new();
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) {
                bounds.insert(name.to_string(), bound);
            }
        }
        Ok(Declared {
            run_seconds,
            bounds,
        })
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let doc = json::parse(line).map_err(|e| {
        format!(
            "{} run printed no result ({e}); stderr: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (name, v) in m {
            metrics.insert(
                name.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    })
}

/// The values of one workload over the runs of a set.
#[derive(Default, Clone)]
struct WorkloadResults {
    attempted: Vec<f64>,
    failed: Vec<f64>,
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
}

impl WorkloadResults {
    fn add_untraced(&mut self, r: &ChildResult) {
        self.attempted.push(r.attempted);
        self.failed.push(r.failed);
        for (name, v) in &r.metrics {
            self.end_to_end.entry(name.clone()).or_default().push(*v);
        }
    }
}

type Results = BTreeMap<&'static str, WorkloadResults>;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub smoke: bool,
    pub runs: usize,
}

impl SuiteArgs {
    fn window(&self, declared: &Declared) -> f64 {
        if self.smoke {
            1.0
        } else {
            self.seconds.unwrap_or(declared.run_seconds)
        }
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
    format!("[{}]", items.join(","))
}

fn results_json(results: &Results, declared: &Declared, args: &SuiteArgs, window: f64) -> String {
    let sizing = Sizing::host();
    let mut s = String::new();
    write!(
        s,
        "{{\n\"schema\": \"mst-benchmark-results/1\",\n\"meta\": {{\"cores\": {}, \"cpu_model\": \"{}\", \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \"runs\": {}, \"processors\": {}, \
         \"clients\": {}, \"tenants\": {}, \"window_s\": {}, \"smoke\": {}}},\n\"workloads\": {{",
        sizing.cores,
        json::escape(&sys::cpu_model()),
        json::escape(&sys::commit()),
        json::escape(env!("MST_BENCH_RUSTC")),
        args.seed,
        args.runs,
        sizing.processors,
        sizing.clients,
        sizing.clients,
        json_number(window),
        args.smoke,
    )
    .expect("writing to a String");
    for (wi, (name, r)) in results.iter().enumerate() {
        let sep = if wi == 0 { "" } else { "," };
        write!(
            s,
            "{sep}\n\"{name}\": {{\"attempted\": {}, \"failed\": {},\n \"end_to_end\": {{",
            list(&r.attempted),
            list(&r.failed)
        )
        .expect("writing to a String");
        for (i, (metric, unit, better)) in END_TO_END.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                s,
                "{sep}\n  \"{metric}\": {{\"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {}, \"values\": {}}}",
                json_number(declared.bounds.get(*metric).copied().unwrap_or(0.0)),
                list(r.end_to_end.get(*metric).map_or(&[][..], Vec::as_slice)),
            )
            .expect("writing to a String");
        }
        s.push_str("},\n \"per_layer\": {");
        for (i, (metric, unit)) in PER_LAYER.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                s,
                "{sep}\n  \"{metric}\": {{\"unit\": \"{unit}\", \"value\": {}}}",
                json_number(r.per_layer.get(*metric).copied().unwrap_or(0.0)),
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
    }
    // No gain is claimed by a results file; a change that claims one says
    // so in its own write-up, naming a metric and a workload from here.
    s.push_str("},\n\"claim\": null\n}\n");
    s
}

/// Runs all five workloads untraced (`runs` times, seed `seed + run`) and
/// then traced, writes `out/results.json`, and returns the exit code.
pub fn suite(args: &SuiteArgs) -> Result<i32, String> {
    let declared = Declared::load()?;
    let window = args.window(&declared);
    let mut results = Results::new();
    let mut all_correct = true;
    for run in 0..args.runs as u64 {
        for w in Workload::ALL {
            let r = run_child(w, args.seed + run, window, false, args.smoke)?;
            all_correct &= r.correct;
            results.entry(w.name()).or_default().add_untraced(&r);
        }
    }
    for w in Workload::ALL {
        let seconds = if args.smoke {
            1.0
        } else {
            SUITE_TRACED_SECONDS.min(window)
        };
        let r = run_child(w, args.seed, seconds, true, args.smoke)?;
        all_correct &= r.correct;
        results.entry(w.name()).or_default().per_layer = r.metrics;
    }
    let path = crate::out_dir().join("results.json");
    std::fs::write(&path, results_json(&results, &declared, args, window))
        .map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    println!("\"claim\": null");
    Ok(i32::from(!all_correct))
}

// ---------------------------------------------------------------------
// compare / aa
// ---------------------------------------------------------------------

/// One side of a comparison: `workload → metric → values`, with the
/// metric's direction and bound.
struct Side {
    cores: f64,
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `metric → (better, bound)`.
    metrics: BTreeMap<String, (String, f64)>,
}

fn load_side(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let cores = doc
        .get("meta")
        .and_then(|m| m.get("cores"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: no meta.cores", path.display()))?;
    let mut side = Side {
        cores,
        values: BTreeMap::new(),
        metrics: BTreeMap::new(),
    };
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no workloads", path.display()));
    };
    for (workload, w) in workloads {
        let Some(Json::Obj(metrics)) = w.get("end_to_end") else {
            continue;
        };
        for (metric, m) in metrics {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let better = m.get("better").and_then(Json::as_str).unwrap_or("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            side.metrics
                .insert(metric.clone(), (better.to_string(), bound));
            side.values
                .insert((workload.clone(), metric.clone()), values);
        }
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own run-to-run spread is wider than the bound, so the
    /// medians cannot resolve a difference of that size.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A on one metric of one workload.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Prints one row per workload × metric and returns how many regressed.
/// With `symmetric` (the A/A check) a row regresses when either side is
/// worse than the other by more than the bound.
fn compare_sides(a: &Side, b: &Side, symmetric: bool) -> Result<usize, String> {
    if a.cores != b.cores {
        return Err(format!(
            "refusing to compare runs from different core counts ({} vs {})",
            a.cores, b.cores
        ));
    }
    println!(
        "{:<17} {:<22} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound"
    );
    let mut regressed = 0;
    for ((workload, metric), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let (better, bound) = &a.metrics[metric];
        let higher = better == "higher";
        let mut verdict = judge(va, vb, higher, *bound);
        if symmetric && verdict == Verdict::Within {
            verdict = judge(vb, va, higher, *bound);
        }
        regressed += usize::from(verdict == Verdict::Regressed);
        let (qa, qb) = (quartiles(va), quartiles(vb));
        println!(
            "{workload:<17} {metric:<22} {:>12.3} {:>25} {:>12.3} {:>25} {:>8.4} {:>6}  {}",
            qa.1,
            format!("[{:.3}, {:.3}]", qa.0, qa.2),
            qb.1,
            format!("[{:.3}, {:.3}]", qb.0, qb.2),
            qb.1 / qa.1,
            bound,
            verdict.label()
        );
    }
    println!("B/A is B's median over A's median (the base); {regressed} regressed");
    Ok(regressed)
}

/// `compare A.json B.json`: nonzero exit when any row regressed.
pub fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let regressed = compare_sides(&load_side(a)?, &load_side(b)?, false)?;
    Ok(i32::from(regressed > 0))
}

/// `aa`: the whole benchmark as `sets` interleaved sets of `runs` runs of
/// the same build; every end-to-end metric must agree within its bound
/// between each set and the first.
pub fn aa(args: &SuiteArgs, sets: usize) -> Result<i32, String> {
    let declared = Declared::load()?;
    let window = args.window(&declared);
    let mut results: Vec<Results> = vec![Results::new(); sets];
    let mut all_correct = true;
    for run in 0..args.runs as u64 {
        for set in &mut results {
            for w in Workload::ALL {
                let r = run_child(w, args.seed + run, window, false, args.smoke)?;
                all_correct &= r.correct;
                set.entry(w.name()).or_default().add_untraced(&r);
            }
        }
    }
    let mut paths = Vec::new();
    for (i, set) in results.iter().enumerate() {
        let path = crate::out_dir().join(format!("aa_set{i}.json"));
        std::fs::write(&path, results_json(set, &declared, args, window))
            .map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let first = load_side(&paths[0])?;
    let mut disagreements = 0;
    for path in &paths[1..] {
        println!("\nset 0 (A) vs {} (B)", path.display());
        disagreements += compare_sides(&first, &load_side(path)?, true)?;
    }
    Ok(i32::from(disagreements > 0 || !all_correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_within_regressed_and_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = a.map(|v| v * 1.08);
        assert_eq!(judge(&a, &a, false, 0.05), Verdict::Within);
        assert_eq!(judge(&a, &slower, false, 0.05), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, false, 0.10), Verdict::Within);
        // For a higher-is-better metric the larger side is the better one.
        assert_eq!(judge(&a, &slower, true, 0.05), Verdict::Within);
        assert_eq!(judge(&slower, &a, true, 0.05), Verdict::Regressed);
        // A side whose own quartiles are further apart than the bound
        // cannot resolve a difference of that size.
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(judge(&a, &noisy, false, 0.05), Verdict::Unresolved);
    }
}
