//! `BENCHMARK.json` and the benchmark agree: every workload and metric it
//! names is emitted exactly once per workload with its unit, and the file
//! stays inside the driver's limits.

use std::collections::BTreeMap;

use mst_benchmark::run::{run_one, RunArgs};
use mst_benchmark::spec::Workload;
use mst_benchmark::workloads::Expected;
use mst_telemetry::json::{self, Json};

fn declared() -> Json {
    let path = mst_benchmark::manifest_dir().join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> BTreeMap<String, String> {
    let list = doc.get(key).and_then(Json::as_arr).expect(key);
    let mut out = BTreeMap::new();
    for m in list {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        assert!(
            out.insert(name.to_string(), unit.to_string()).is_none(),
            "{name} twice"
        );
    }
    out
}

fn name_ok(name: &str) -> bool {
    let grammar = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(grammar)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload_with_its_unit() {
    let doc = declared();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let end_to_end = names_and_units(&doc, "end_to_end");
    let per_layer = names_and_units(&doc, "per_layer");

    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(end_to_end.get("setup_s").map(String::as_str), Some("s"));
    for name in workloads.iter().copied().chain(
        end_to_end
            .keys()
            .chain(per_layer.keys())
            .map(String::as_str),
    ) {
        assert!(name_ok(name), "{name:?} is outside the name grammar");
    }
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name),
        "BENCHMARK.json lists exactly the workloads the benchmark has"
    );

    // One smoke run of each kind per workload (in one test, one after the
    // other: the runtime's tracing switches are process-wide).
    let expected = Expected::committed();
    for workload in Workload::ALL {
        for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run_one(
                &RunArgs {
                    workload,
                    seed: 3,
                    seconds: 0.4,
                    traced,
                    smoke: true,
                },
                &expected,
            );
            assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            let mut got = BTreeMap::new();
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} is not a number", m.name);
                assert!(
                    got.insert(m.name.to_string(), m.unit.to_string()).is_none(),
                    "{} emitted twice on {}",
                    m.name,
                    workload.name()
                );
            }
            assert_eq!(&got, want, "{} trace={traced}", workload.name());
            if !traced {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "an end-to-end metric read 0"
                );
            }
            // The result line is one JSON object with exactly the four keys.
            let Json::Obj(line) = json::parse(&outcome.json_line()).expect("result line parses")
            else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = line.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }
}
