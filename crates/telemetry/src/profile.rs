//! Versioned profile reports: one structure tying the whole measurement
//! substrate together.
//!
//! [`capture`] folds a run's counters, histograms, per-processor timeline,
//! and GC pause log into a [`ProfileReport`], serializable to the
//! `PROFILE.json` schema (`mst-profile/1`). The report embeds a normalized
//! `rows` array — the same `{name, value, unit, n}` row shape the
//! `BENCH_*.json` artifacts use — so every artifact the tree produces reads
//! the same way.

use std::fmt::Write as _;

use crate::metrics::HistogramSnapshot;
use crate::timeline::{ProcTimeline, STATE_NAMES};
use crate::{json, pauselog, registry, timeline};

/// Schema tag written into every `PROFILE.json`.
pub const PROFILE_SCHEMA: &str = "mst-profile/1";

/// Schema tag shared by all row-based bench artifacts.
pub const ROWS_SCHEMA: &str = "mst-bench-rows/1";

/// One normalized measurement row. `unit == "ns"` marks a lower-is-better
/// duration; other units (`pct`, `count`, …) are informational.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value (1 for point measurements).
    pub n: u64,
}

impl Row {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Row {
        Row {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Serializes one row as a JSON object (the shared shape for every
/// artifact; `mst-bench`'s writers and [`ProfileReport::to_json`] both
/// emit exactly this).
pub fn row_json(row: &Row) -> String {
    format!(
        "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
        json::escape(&row.name),
        fmt_f64(row.value),
        json::escape(row.unit),
        row.n
    )
}

/// Formats an `f64` so `json::parse` round-trips it (always with a decimal
/// point or exponent, never `NaN`/`inf` — those become 0).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A complete, versioned snapshot of the measurement substrate after a run.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Schema tag ([`PROFILE_SCHEMA`]).
    pub schema: &'static str,
    /// Workload label (e.g. `"profile.busy4"`).
    pub bench: String,
    /// Wall-clock duration of the profiled region, main-thread measured.
    pub wall_ns: u64,
    /// Configured processor count for the run.
    pub processors: usize,
    /// Free-form key/value metadata (cores, chaos, smoke, …).
    pub meta: Vec<(String, String)>,
    /// Per-processor state timelines.
    pub utilization: Vec<ProcTimeline>,
    /// Registry counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Registry histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// GC pause records (oldest first).
    pub pauses: Vec<pauselog::GcPause>,
    /// Pause records dropped from the bounded log.
    pub dropped_pauses: u64,
}

/// Captures the current state of every instrument into a report.
pub fn capture(
    bench: &str,
    wall_ns: u64,
    processors: usize,
    meta: Vec<(String, String)>,
) -> ProfileReport {
    let reg = registry::snapshot();
    let (pauses, dropped_pauses) = pauselog::snapshot();
    ProfileReport {
        schema: PROFILE_SCHEMA,
        bench: bench.to_string(),
        wall_ns,
        processors,
        meta,
        utilization: timeline::snapshot(),
        counters: reg.counters,
        histograms: reg.histograms,
        pauses,
        dropped_pauses,
    }
}

impl ProfileReport {
    /// Derives the normalized comparison rows: per-processor state shares
    /// (`util.p<id>.<state>_pct`, unit `pct`); for every `*_ns` histogram
    /// with samples, its p50/p99/max (unit `ns`); and exact, unquantized
    /// pause statistics from the pause log (`gc.pause.<kind>.p99_ns`,
    /// `gc.phase.<kind>.<phase>.mean_ns`) — which is where the
    /// scavenge/full-GC pause and mark-phase gates come from.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        rows.push(Row::new("profile.wall_ns", self.wall_ns as f64, "ns", 1));
        for t in &self.utilization {
            for (i, name) in STATE_NAMES.iter().enumerate() {
                rows.push(Row::new(
                    format!("util.p{}.{}_pct", t.proc, name),
                    t.ns[i] as f64 * 100.0 / t.total_ns().max(1) as f64,
                    "pct",
                    1,
                ));
            }
        }
        for (name, snap) in &self.histograms {
            if snap.count == 0 || !name.ends_with("_ns") {
                continue;
            }
            rows.push(Row::new(
                format!("{name}.p50"),
                snap.quantile(0.50) as f64,
                "ns",
                snap.count,
            ));
            rows.push(Row::new(
                format!("{name}.p99"),
                snap.quantile(0.99) as f64,
                "ns",
                snap.count,
            ));
            rows.push(Row::new(
                format!("{name}.max"),
                snap.max as f64,
                "ns",
                snap.count,
            ));
        }
        // Exact pause statistics straight from the pause log — unlike the
        // log₂-histogram rows above these carry no bucket quantization, so
        // they are what CI's tight (1.15x) regression gate compares.
        let mut kinds: Vec<&'static str> = self.pauses.iter().map(|p| p.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let mut totals: Vec<u64> = self
                .pauses
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.total_ns)
                .collect();
            totals.sort_unstable();
            let n = totals.len() as u64;
            let pick = |q: f64| totals[((totals.len() - 1) as f64 * q) as usize] as f64;
            rows.push(Row::new(
                format!("gc.pause.{kind}.p50_ns"),
                pick(0.50),
                "ns",
                n,
            ));
            rows.push(Row::new(
                format!("gc.pause.{kind}.p99_ns"),
                pick(0.99),
                "ns",
                n,
            ));
            // Per-phase mean across the kind's pauses: the smoothest
            // per-phase statistic (e.g. the full-GC mark-phase gate row).
            let mut phase_sums: Vec<(&'static str, u64)> = Vec::new();
            for p in self.pauses.iter().filter(|p| p.kind == kind) {
                for &(phase, ns) in &p.phases {
                    match phase_sums.iter_mut().find(|(ph, _)| *ph == phase) {
                        Some((_, sum)) => *sum += ns,
                        None => phase_sums.push((phase, ns)),
                    }
                }
            }
            for (phase, sum) in phase_sums {
                rows.push(Row::new(
                    format!("gc.phase.{kind}.{phase}.mean_ns"),
                    sum as f64 / n as f64,
                    "ns",
                    n,
                ));
            }
        }
        rows
    }

    /// Serializes the report (including its derived `rows`) as
    /// `mst-profile/1` JSON, parseable by the in-tree [`json`] module.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = write!(
            out,
            "\"schema\":\"{}\",\"bench\":\"{}\",\"wall_ns\":{},\"processors\":{}",
            json::escape(self.schema),
            json::escape(&self.bench),
            self.wall_ns,
            self.processors
        );
        out.push_str(",\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
        }
        out.push_str("},\"utilization\":[");
        for (i, t) in self.utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"proc\":{},\"opened_ns\":{},\"closed_ns\":{},\"sessions\":{},\"total_ns\":{},\"ns\":{{",
                t.proc,
                t.opened_ns,
                t.closed_ns,
                t.sessions,
                t.total_ns()
            );
            for (s, name) in STATE_NAMES.iter().enumerate() {
                if s > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", name, t.ns[s]);
            }
            out.push_str("}}");
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json::escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, snap)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json::escape(name),
                snap.count,
                snap.sum,
                snap.max,
                snap.quantile(0.50),
                snap.quantile(0.90),
                snap.quantile(0.99)
            );
        }
        out.push_str("},\"pauses\":[");
        for (i, p) in self.pauses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"start_ns\":{},\"total_ns\":{},\"attributed_ns\":{},\"coverage_pct\":{},\"helpers\":{},\"steals\":{},\"imbalance_pct\":{},\"phases\":{{",
                json::escape(p.kind),
                p.start_ns,
                p.total_ns,
                p.attributed_ns(),
                fmt_f64(p.coverage_pct()),
                p.helpers,
                p.steals,
                p.imbalance_pct
            );
            for (j, (phase, ns)) in p.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json::escape(phase), ns);
            }
            out.push_str("},\"per_helper_work\":[");
            for (j, w) in p.per_helper_work.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"dropped_pauses\":{},\"rows\":[",
            self.dropped_pauses
        );
        for (i, row) in self.rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&row_json(row));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::NSTATES;

    fn sample_report() -> ProfileReport {
        let mut hist = HistogramSnapshot {
            buckets: [0; crate::metrics::BUCKETS],
            count: 2,
            sum: 3000,
            max: 2000,
        };
        hist.buckets[10] = 1;
        hist.buckets[11] = 1;
        ProfileReport {
            schema: PROFILE_SCHEMA,
            bench: "test".to_string(),
            wall_ns: 1_000_000,
            processors: 2,
            meta: vec![("smoke".to_string(), "true".to_string())],
            utilization: vec![ProcTimeline {
                proc: 0,
                ns: {
                    let mut ns = [0u64; NSTATES];
                    ns[0] = 750_000;
                    ns[5] = 250_000;
                    ns
                },
                opened_ns: 10,
                closed_ns: 1_000_010,
                sessions: 1,
            }],
            counters: vec![("gc.scavenges".to_string(), 4)],
            histograms: vec![("gc.pause.scavenge.total_ns".to_string(), hist)],
            pauses: vec![pauselog::GcPause {
                kind: "scavenge",
                start_ns: 100,
                total_ns: 1000,
                phases: vec![("roots", 200), ("copy", 700), ("flip", 100)],
                helpers: 1,
                per_helper_work: vec![512],
                steals: 0,
                imbalance_pct: 100,
            }],
            dropped_pauses: 0,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json();
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), PROFILE_SCHEMA);
        assert_eq!(doc.get("processors").unwrap().as_f64().unwrap(), 2.0);
        let util = doc.get("utilization").unwrap().as_arr().unwrap();
        assert_eq!(util.len(), 1);
        assert_eq!(
            util[0]
                .get("ns")
                .unwrap()
                .get("mutator")
                .unwrap()
                .as_f64()
                .unwrap(),
            750_000.0
        );
        let pauses = doc.get("pauses").unwrap().as_arr().unwrap();
        assert_eq!(
            pauses[0]
                .get("phases")
                .unwrap()
                .get("copy")
                .unwrap()
                .as_f64()
                .unwrap(),
            700.0
        );
        assert_eq!(
            pauses[0].get("coverage_pct").unwrap().as_f64().unwrap(),
            100.0
        );
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.get("name").unwrap().as_str().is_some());
            assert!(row.get("value").unwrap().as_f64().is_some());
            assert!(row.get("unit").unwrap().as_str().is_some());
            assert!(row.get("n").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn rows_cover_utilization_and_ns_histograms() {
        let report = sample_report();
        let rows = report.rows();
        let names: Vec<_> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"util.p0.mutator_pct"));
        assert!(names.contains(&"gc.pause.scavenge.total_ns.p99"));
        let mutator = rows
            .iter()
            .find(|r| r.name == "util.p0.mutator_pct")
            .unwrap();
        assert!((mutator.value - 75.0).abs() < 0.01);
        assert_eq!(mutator.unit, "pct");
        let p99 = rows
            .iter()
            .find(|r| r.name == "gc.pause.scavenge.total_ns.p99")
            .unwrap();
        assert_eq!(p99.unit, "ns");
        assert_eq!(p99.n, 2);
    }

    #[test]
    fn f64_formatting_round_trips() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(42.0), "42");
        assert_eq!(fmt_f64(f64::NAN), "0");
        let v: f64 = 99.951;
        let parsed = json::parse(&fmt_f64(v)).unwrap().as_f64().unwrap();
        assert!((parsed - v).abs() < 1e-9);
    }
}
