//! Integration: the eight macro benchmarks (paper Table 2) give their
//! answers in every system state and with every strategy combination.

use mst_core::{MsConfig, MsSystem, SystemState, Value};

/// The benchmark selectors in the paper's column order, with their answers.
/// The answers depend only on the image and the compiler: a change to
/// either that alters decompiled text, literal frames or class structure
/// shows here (the repo benchmark checks the same answers).
pub const MACROS: [(&str, i64); 8] = [
    ("readWriteClassOrganization", 32),
    ("printClassDefinition", 3344),
    ("printClassHierarchy", 639),
    ("findAllCalls", 13),
    ("findAllImplementors", 22),
    ("createInspectorView", 716),
    ("compileDummyMethod", 1),
    ("decompileClass", 2592),
];

fn run_all(ms: &mut MsSystem) {
    for (sel, answer) in MACROS {
        let v = ms
            .evaluate(&format!("Benchmark {sel}"))
            .unwrap_or_else(|e| panic!("{sel} failed: {e}"));
        assert_eq!(v, Value::Int(answer), "Benchmark {sel}");
    }
}

#[test]
fn macros_run_on_ms() {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::Ms));
    run_all(&mut ms);
    ms.shutdown();
}

#[test]
fn macros_run_on_baseline_bs() {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::BaselineBs));
    run_all(&mut ms);
    ms.shutdown();
}

#[test]
fn macros_run_with_idle_competitors() {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::MsIdle4));
    ms.enter_state(SystemState::MsIdle4);
    run_all(&mut ms);
    ms.shutdown();
}

#[test]
fn macros_run_with_busy_competitors() {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::MsBusy4));
    ms.enter_state(SystemState::MsBusy4);
    run_all(&mut ms);
    ms.shutdown();
}

#[test]
fn benchmark_values_agree_across_states() {
    // The benchmarks are deterministic: whatever competitors run, the
    // computed values must match between baseline and MS.
    let mut baseline = MsSystem::new(MsConfig::for_state(SystemState::BaselineBs));
    let mut busy = MsSystem::new(MsConfig::for_state(SystemState::MsBusy4));
    busy.enter_state(SystemState::MsBusy4);
    for sel in [
        "printClassHierarchy",
        "findAllImplementors",
        "decompileClass",
    ] {
        let a = baseline.evaluate(&format!("Benchmark {sel}")).unwrap();
        let b = busy.evaluate(&format!("Benchmark {sel}")).unwrap();
        assert_eq!(a, b, "{sel} diverged between states");
    }
    baseline.shutdown();
    busy.shutdown();
}
