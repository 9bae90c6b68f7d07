//! Unified VM observability for Multiprocessor Smalltalk.
//!
//! The paper's whole argument rests on *measuring* where the multiprocessor
//! VM spends its time: Table 2's overhead figures and Table 3's lock-traffic
//! rows are its evidence that serialization, replication, and reorganization
//! paid off. This crate is the reproduction's measurement substrate, built
//! hermetically on `std` alone (no external crates — see README § Hermetic
//! builds):
//!
//! * [`Counter`] — a per-processor *sharded* counter. Hot paths touch only
//!   their own cache line; the shards are merged (lock-free) at read time.
//! * [`Histogram`] — log₂-bucketed distribution (pause tails, spin
//!   durations, time-to-safepoint) with percentile estimates.
//! * [`registry`] — process-wide named metrics: `counter!("safepoint.stops")`
//!   hands back a `&'static Counter`, creating it on first use and
//!   resolving it once per call site.
//! * [`trace`] — a per-thread ring buffer of timestamped begin/end events
//!   (scavenge, safepoint request→world-stopped, contended lock acquire,
//!   method-cache miss, primitive dispatch, doit evaluate), recorded only
//!   when tracing is [`enabled`] — the zero-overhead path is one branch on
//!   a relaxed atomic.
//! * [`chrome`] — exports the rings as Chrome `trace_event` JSON, loadable
//!   in `chrome://tracing` or Perfetto.
//! * [`timeline`] — per-processor *state* accounting (mutator / safepoint
//!   wait / stopped / GC helper / lock spin / idle / primitive nanoseconds)
//!   behind an RAII transition API, feeding the benchmark's
//!   `vkernel.proc.*_share` rows and the watchdog dump.
//! * [`pauselog`] — a bounded log of GC pauses attributed to named phases
//!   (roots, copy/mark, termination, plan, update, move) with per-helper
//!   work and steal counts.
//! * [`report`] — a human-readable `vmstat`-style text report of every
//!   registered counter and histogram.
//! * [`json`] — a minimal JSON parser so exported traces can be validated
//!   in-tree by tests without external dependencies.
//!
//! # One owner per signal
//!
//! Each signal is recorded once, by one owner; every other view of it
//! (the benchmark's per-layer rows, `table3`, the watchdog dump) reads
//! that owner.
//!
//! | signal | owner | written by |
//! |---|---|---|
//! | lock contention | registry `lock.contended`, `lock.spin_iters`, `lock.spin_wait_ns`, and `lock.<name>.{contended,spin_iters}` per named lock | `SpinLock`'s slow path |
//! | GC pause: total, phases, helpers, steals, balance | the [`GcPause`] record, plus the `gc.pause.<kind>.total_ns` / `gc.phase.<kind>.<phase>_ns` histograms [`pauselog::record`] derives from it | the scavenger and the full collector |
//! | safepoint stops and waits | registry `safepoint.stops`, `safepoint.time_to_stop_ns`, `safepoint.park_ns` | the rendezvous |
//! | execution (bytecodes, sends, cache hits, ...) | `Vm::counters` | the interpreters |
//! | generation counts (scavenges, words survived/tenured, full GCs) | `ObjectMemory::gc_stats` | the collectors |
//! | processor time per state | [`timeline`] | each processor thread |
//!
//! # Example
//!
//! ```
//! use mst_telemetry as tel;
//!
//! tel::set_enabled(true);
//! tel::counter!("example.widgets").add(3);
//! tel::histogram!("example.latency_ns").record(1500);
//! {
//!     let _span = tel::span("example.phase", "demo");
//!     // ... traced work ...
//! }
//! let json = tel::chrome::export_chrome_json();
//! assert!(json.contains("example.phase"));
//! assert_eq!(tel::counter("example.widgets").get(), 3);
//! tel::set_enabled(false);
//! ```

pub mod chrome;
pub mod json;
mod metrics;
pub mod pauselog;
pub mod registry;
pub mod report;
pub mod timeline;
pub mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, BUCKETS, SHARDS};
pub use pauselog::GcPause;
pub use registry::{counter, histogram};
pub use timeline::{enter_state, ProcState, ProcTimeline};
pub use trace::{enabled, instant, now_ns, set_enabled, span, Span, TraceEvent, TracePhase};
