//! The one place `BENCH_*.json` artifacts are written.
//!
//! All writers funnel through [`write_rows`], emitting the shared
//! `mst-bench-rows/1` schema, so one parser reads every artifact:
//!
//! ```json
//! {"schema":"mst-bench-rows/1","bench":"gcbench","meta":{"cores":"4"},
//!  "rows":[{"name":"scavenge.h1.best_ns","value":104000,"unit":"ns","n":15}]}
//! ```
//!
//! Rows with `unit == "ns"` are lower-is-better durations; other units
//! (`count`, `pct`, …) ride along as context. `PROFILE.json` embeds the
//! identical row shape (see [`mst_telemetry::profile`]). Speed claims are
//! decided by `benchmark/`'s paired `compare`, not by these artifacts.

use mst_telemetry::profile::{row_json, Row, ROWS_SCHEMA};

/// Serializes a row-based artifact document (without writing it).
pub fn rows_doc(bench: &str, meta: &[(&str, String)], rows: &[Row]) -> String {
    let mut out = format!(
        "{{\"schema\":\"{}\",\"bench\":\"{}\",\"meta\":{{",
        mst_telemetry::json::escape(ROWS_SCHEMA),
        mst_telemetry::json::escape(bench)
    );
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":\"{}\"",
            mst_telemetry::json::escape(k),
            mst_telemetry::json::escape(v)
        ));
    }
    out.push_str("},\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&row_json(row));
    }
    out.push_str("]}");
    out
}

/// Validates and writes a row-based artifact to `path`.
///
/// # Panics
///
/// Panics if the generated document does not parse (a writer bug, never
/// an input problem) or the file cannot be written.
pub fn write_rows(path: &str, bench: &str, meta: &[(&str, String)], rows: &[Row]) {
    let out = rows_doc(bench, meta, rows);
    mst_telemetry::json::parse(&out).expect("generated rows JSON must parse");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("{path} must be writable: {e}"));
}

/// Turns a free-form label into a row-name segment: lowercase, with
/// whitespace and punctuation collapsed to single underscores.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut gap = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_matches_shared_schema() {
        let rows = vec![
            Row::new("scavenge.h1.best_ns", 104_000.0, "ns", 15),
            Row::new("scavenge.h1.rounds", 15.0, "count", 1),
        ];
        let doc = rows_doc("gcbench", &[("cores", "4".to_string())], &rows);
        let parsed = mst_telemetry::json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.get("schema").unwrap().as_str().unwrap(), ROWS_SCHEMA);
        assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "gcbench");
        assert_eq!(
            parsed
                .get("meta")
                .unwrap()
                .get("cores")
                .unwrap()
                .as_str()
                .unwrap(),
            "4"
        );
        let arr = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").unwrap().as_str().unwrap(),
            "scavenge.h1.best_ns"
        );
        assert_eq!(arr[0].get("unit").unwrap().as_str().unwrap(), "ns");
        assert_eq!(arr[1].get("value").unwrap().as_f64().unwrap(), 15.0);
    }

    #[test]
    fn slugs_are_row_name_safe() {
        assert_eq!(
            slug("read and write class organization"),
            "read_and_write_class_organization"
        );
        assert_eq!(slug("MS + 4 busy"), "ms_4_busy");
        assert_eq!(slug("alloc/collect"), "alloc_collect");
    }
}
