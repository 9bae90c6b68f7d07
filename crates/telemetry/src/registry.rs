//! The unified metrics registry: process-wide named counters and histograms.
//!
//! Instruments are created on first use and live for the life of the
//! process (they are leaked — a metric is by definition process-lifetime
//! state). Handles are `&'static`, so call sites can cache them in a
//! `OnceLock` and pay nothing but the instrument write afterwards.
//!
//! Per-VM instruments (e.g. one `Vm`'s bytecode counters) embed [`Counter`]
//! values directly instead of registering here; the registry is for metrics
//! that describe the process — lock traffic, GC pauses, safepoint stalls —
//! which Table 3 aggregates across the whole system anyway.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::metrics::{Counter, Histogram, HistogramSnapshot};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, &'static Counter>,
    histograms: BTreeMap<String, &'static Histogram>,
}

static REGISTRY: OnceLock<Mutex<Inner>> = OnceLock::new();

fn inner() -> MutexGuard<'static, Inner> {
    REGISTRY
        .get_or_init(|| Mutex::new(Inner::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The named counter, created (zeroed) on first use.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = inner();
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.counters.insert(name.to_string(), c);
    c
}

/// The named histogram, created (empty) on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = inner();
    if let Some(h) = reg.histograms.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.histograms.insert(name.to_string(), h);
    h
}

/// Snapshot of every registered counter, sorted by name.
pub fn counters() -> Vec<(String, u64)> {
    inner()
        .counters
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect()
}

/// Snapshot of every registered histogram, sorted by name.
pub fn histograms() -> Vec<(String, HistogramSnapshot)> {
    inner()
        .histograms
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot()))
        .collect()
}

/// A point-in-time copy of every registered instrument, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots all counters and histograms at once (the repo benchmark's
/// per-layer rows are differences of two of these).
pub fn snapshot() -> RegistrySnapshot {
    RegistrySnapshot {
        counters: counters(),
        histograms: histograms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_metrics_are_stable_and_enumerable() {
        let a = counter("test.registry.a");
        let b = counter("test.registry.a");
        assert!(std::ptr::eq(a, b), "same name, same instrument");
        a.add(7);
        let all = counters();
        let found = all.iter().find(|(k, _)| k == "test.registry.a").unwrap();
        assert!(found.1 >= 7);
        histogram("test.registry.h").record(42);
        let hs = histograms();
        let h = hs.iter().find(|(k, _)| k == "test.registry.h").unwrap();
        assert!(h.1.count >= 1);
        // Names come back sorted (BTreeMap order).
        let names: Vec<_> = all.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
