//! Pins how often the caller of a doit crosses the stop-the-world
//! rendezvous: once to compile and root it, once to spawn its Process, once
//! to read its result.
//!
//! `safepoint.stops` is a process-global counter, so this is the only test
//! in its binary (one process per integration-test file): nothing else
//! stops a world while it counts.

use mst_core::{MsConfig, MsSystem, Value};

#[test]
fn a_doit_stops_the_world_three_times() {
    let mut ms = MsSystem::new(MsConfig {
        processors: 2,
        ..MsConfig::default()
    });
    assert_eq!(ms.evaluate("3 + 4").expect("warm-up"), Value::Int(7));

    let stops = mst_telemetry::counter("safepoint.stops");
    let mut seen = stops.get();
    let mut delta = || {
        let before = std::mem::replace(&mut seen, stops.get());
        seen - before
    };

    let prepared = ms.prepare("3 + 4").expect("compiles");
    assert_eq!(delta(), 1, "prepare: compile and root in one stop");
    assert_eq!(ms.run_prepared(&prepared).expect("runs"), Value::Int(7));
    assert_eq!(delta(), 2, "run_prepared: spawn, read the value");
    let root = ms.run_prepared_rooted(&prepared).expect("runs");
    assert_eq!(delta(), 2, "run_prepared_rooted: spawn, root the result");
    assert_eq!(ms.evaluate("3 + 4").expect("runs"), Value::Int(7));
    assert_eq!(delta(), 3, "evaluate: prepare + run_prepared");
    assert_eq!(ms.value_of(root.get()), Value::Int(7));
    assert_eq!(delta(), 1, "value_of: one stop");
}
