//! The unified metrics registry: process-wide named counters and histograms.
//!
//! Instruments are created on first use and live for the life of the
//! process (they are leaked — a metric is by definition process-lifetime
//! state). Handles are `&'static`: a call site with a literal name writes
//! [`counter!`](crate::counter!) / [`histogram!`](crate::histogram!), which
//! resolve the entry once into a static and pay nothing but the instrument
//! write afterwards. [`counter`] and [`histogram`] take the registry lock
//! on every call; they are for names built at run time, and for tests.
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

/// The counter named by a string literal, resolved from the registry once
/// per call site (the first call takes the registry lock; later ones are
/// one load).
///
/// ```
/// let c = mst_telemetry::counter!("doc.counter_macro");
/// c.incr();
/// assert!(std::ptr::eq(c, mst_telemetry::counter("doc.counter_macro")));
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static INSTRUMENT: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *INSTRUMENT.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// The histogram named by a string literal, resolved once per call site
/// (see [`counter!`](crate::counter!)).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static INSTRUMENT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *INSTRUMENT.get_or_init(|| $crate::registry::histogram($name))
    }};
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

    #[test]
    fn macros_resolve_to_the_registry_entry() {
        let (c1, c2) = (
            crate::counter!("test.registry.macro_c"),
            crate::counter!("test.registry.macro_c"),
        );
        assert!(std::ptr::eq(c1, c2), "two call sites, one counter");
        assert!(std::ptr::eq(c1, counter("test.registry.macro_c")));
        let (h1, h2) = (
            crate::histogram!("test.registry.macro_h"),
            crate::histogram!("test.registry.macro_h"),
        );
        assert!(std::ptr::eq(h1, h2), "two call sites, one histogram");
        assert!(std::ptr::eq(h1, histogram("test.registry.macro_h")));
        // A call site re-entered resolves to the same static again.
        let again = || crate::counter!("test.registry.macro_c");
        assert!(std::ptr::eq(again(), again()));
        assert!(std::ptr::eq(again(), c1));
    }
}
