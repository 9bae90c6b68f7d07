//! A `vmstat`-style text report of every registered instrument.
//!
//! Counters print as a sorted name/value table; histograms add count, mean,
//! p50/p90/p99, max, and a log₂ bucket sparkline so pause tails and spin
//! distributions are readable straight off a terminal.

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, BUCKETS};
use crate::registry;

/// Formats a nanosecond-scale value with a human unit.
pub fn ns_human(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1_000.0),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2}s", ns as f64 / 1_000_000_000.0),
    }
}

fn bucket_bar(s: &HistogramSnapshot) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (lo, hi) = occupied_range(s);
    let peak = s.buckets.iter().copied().max().max(Some(1)).unwrap();
    let mut bar = String::new();
    for &n in &s.buckets[lo..=hi] {
        if n == 0 {
            bar.push('·');
        } else {
            let level = (n * (GLYPHS.len() as u64 - 1)).div_ceil(peak) as usize;
            bar.push(GLYPHS[level.min(GLYPHS.len() - 1)]);
        }
    }
    bar
}

fn occupied_range(s: &HistogramSnapshot) -> (usize, usize) {
    let lo = s.buckets.iter().position(|&n| n > 0).unwrap_or(0);
    let hi = s
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(BUCKETS - 1);
    (lo, hi)
}

/// Renders one histogram row (used by the full report and by callers that
/// only want a single named instrument).
pub fn histogram_line(name: &str, s: &HistogramSnapshot) -> String {
    if s.count == 0 {
        return format!("  {name:<34} (no samples)");
    }
    let (lo, hi) = occupied_range(s);
    format!(
        "  {name:<34} n={:<9} mean={:<9} p50={:<9} p90={:<9} p99={:<9} max={:<9} [2^{}..2^{}) {}",
        s.count,
        ns_human(s.mean() as u64),
        ns_human(s.quantile(0.50)),
        ns_human(s.quantile(0.90)),
        ns_human(s.quantile(0.99)),
        ns_human(s.max),
        lo.saturating_sub(1),
        hi,
        bucket_bar(s),
    )
}

/// The full text report: every registered counter and histogram.
pub fn text_report() -> String {
    let mut out = String::new();
    let counters = registry::counters();
    let histograms = registry::histograms();
    let _ = writeln!(out, "== mst-telemetry report ==");
    if !counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &counters {
            let _ = writeln!(out, "  {name:<34} {value}");
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, snap) in &histograms {
            let _ = writeln!(out, "{}", histogram_line(name, snap));
        }
    }
    if counters.is_empty() && histograms.is_empty() {
        let _ = writeln!(out, "(no instruments registered)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn report_shows_registered_instruments() {
        registry::counter("test.report.count").add(12);
        let h = registry::histogram("test.report.hist_ns");
        for v in [100u64, 200, 400, 1_000_000] {
            h.record(v);
        }
        let report = text_report();
        assert!(report.contains("test.report.count"));
        assert!(report.contains("12"));
        assert!(report.contains("test.report.hist_ns"));
        assert!(report.contains("p99="));
        assert!(report.contains("n=4"));
    }

    #[test]
    fn histogram_line_handles_empty_and_units() {
        let h = Histogram::new();
        let line = histogram_line("empty", &h.snapshot());
        assert!(line.contains("(no samples)"));
        assert_eq!(ns_human(0), "0ns");
        assert_eq!(ns_human(9_999), "9999ns");
        assert_eq!(ns_human(50_000), "50.0us");
        assert_eq!(ns_human(50_000_000), "50.0ms");
        assert_eq!(ns_human(2_500_000_000), "2.50s");
    }
}
