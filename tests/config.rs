//! Integration: every constructor boots through the one path that applies
//! `MsConfig.trace` and `MsConfig.chaos`.
//!
//! Both switches are process-global and only ever switched on, so these
//! tests live in their own binary (one process per integration-test file):
//! no other test has flipped them first.

use mst_core::{MsConfig, MsSystem, Value};
use mst_telemetry::json::{self, Json};
use mst_vkernel::fault::{self, ChaosConfig};

fn config() -> MsConfig {
    MsConfig {
        processors: 2,
        ..MsConfig::default()
    }
}

/// A fresh directory holding a snapshot of a just-booted system.
fn saved_image(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mst-config-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create image dir");
    let image = dir.join("boot.image");
    MsSystem::new(config())
        .save_snapshot_file(&image)
        .expect("image saves");
    (dir, image)
}

#[test]
fn a_template_booted_system_honours_trace() {
    let (dir, image) = saved_image("trace");
    let template = MsSystem::load_template(&image, config()).expect("template loads");
    assert!(!mst_telemetry::enabled(), "nothing asked for a trace yet");
    let mut ms = MsSystem::from_template(
        &template,
        MsConfig {
            trace: true,
            ..config()
        },
    )
    .expect("template boots");
    assert!(mst_telemetry::enabled());
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    // Allocation pressure plus an explicit collection: the trace must hold
    // a scavenge span and the stop-the-world spans around it.
    ms.evaluate("Benchmark allocHeavy: 20000")
        .expect("alloc churn");
    ms.collect_garbage();
    ms.shutdown();
    assert_loadable_trace(&mst_telemetry::chrome::export_chrome_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a trace viewer needs: every event (metadata included) carries
/// `name/ph/pid/tid/args`, every timed event a `ts`, threads are named,
/// and a collection shows up as a scavenge span plus safepoint spans from
/// at least two threads.
fn assert_loadable_trace(text: &str) {
    let doc = json::parse(text).expect("the exported trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let (mut scavenges, mut safepoints, mut named_threads) = (0, 0, 0);
    let mut tids = std::collections::BTreeSet::new();
    for ev in events {
        for key in ["name", "ph", "pid", "tid", "args"] {
            assert!(ev.get(key).is_some(), "event missing required key {key}");
        }
        if ev.get("ph").and_then(Json::as_str) == Some("M") {
            named_threads += 1;
            continue;
        }
        assert!(ev.get("ts").is_some(), "timed event missing ts");
        tids.insert(ev.get("tid").and_then(Json::as_f64).unwrap() as u64);
        match ev.get("name").and_then(Json::as_str).unwrap_or_default() {
            "gc.scavenge" => scavenges += 1,
            "safepoint.stop" | "safepoint.park" => safepoints += 1,
            _ => {}
        }
    }
    assert!(scavenges >= 1, "trace must contain a gc.scavenge span");
    assert!(safepoints >= 1, "trace must contain a safepoint span");
    assert!(tids.len() >= 2, "trace must cover at least two threads");
    assert!(named_threads >= 2, "thread_name metadata missing");
}

#[test]
fn a_snapshot_booted_system_honours_chaos() {
    let (dir, image) = saved_image("chaos");
    assert!(!fault::enabled(), "nothing armed chaos yet");
    // One in a million: armed, but the sibling test's system runs on.
    let chaos = Some(ChaosConfig::new(17, 1e-6));
    let mut ms = MsSystem::from_snapshot_file(&image, MsConfig { chaos, ..config() })
        .expect("snapshot boots");
    let armed = fault::enabled();
    fault::disable();
    assert!(armed);
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    ms.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
