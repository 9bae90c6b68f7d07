//! Per-thread trace ring buffers of timestamped events.
//!
//! Every thread that records an event lazily allocates one fixed-capacity
//! ring, registered in a global list for the exporter. Recording takes only
//! the ring's own (uncontended, per-thread) mutex; when the ring fills, the
//! oldest events are overwritten, so a long run keeps the recent history —
//! the part a pause investigation actually needs.
//!
//! The whole subsystem is gated on a single relaxed [`AtomicBool`]: with
//! tracing disabled, [`span`] and [`instant`] cost one load and one branch,
//! which is the "zero-overhead path" the benchmarks run on.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Ring capacity, in events, per thread.
pub const DEFAULT_RING_CAP: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();

thread_local! {
    static MY_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// Whether trace events are being recorded (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns event recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Monotonic nanoseconds since the first telemetry call in this process.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Chrome `trace_event` phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span with a duration (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`): `arg_name`/`arg` name the series and
    /// its value at `start_ns` (eden occupancy, GC phase index).
    Counter,
}

/// One recorded event. `arg_name`/`arg` carry a single numeric payload
/// (spin count, words survived, primitive number); `arg_name` is empty when
/// there is none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (e.g. `gc.scavenge`).
    pub name: &'static str,
    /// Category (e.g. `gc`, `lock`, `interp`).
    pub cat: &'static str,
    /// Complete span or instant.
    pub phase: TracePhase,
    /// Start timestamp, nanoseconds on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Name of the numeric argument; empty for none.
    pub arg_name: &'static str,
    /// The numeric argument.
    pub arg: u64,
}

struct RingInner {
    buf: Vec<TraceEvent>,
    /// Next write position once the buffer has filled to capacity.
    next: usize,
    /// Events overwritten after wraparound.
    dropped: u64,
}

/// One thread's ring buffer, registered globally for the exporter.
pub struct ThreadRing {
    /// Stable exporter thread id (dense, starts at 1).
    pub tid: u64,
    /// OS thread name at first record, or `thread-<tid>` — relabelable for
    /// anonymous threads drafted as GC helpers (see [`name_helper_thread`]).
    name: Mutex<String>,
    cap: usize,
    inner: Mutex<RingInner>,
}

impl ThreadRing {
    fn new(tid: u64, name: String, cap: usize) -> ThreadRing {
        ThreadRing {
            tid,
            name: Mutex::new(name),
            cap,
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(cap.min(1024)),
                next: 0,
                dropped: 0,
            }),
        }
    }

    /// The thread's display name for exporters.
    pub fn name(&self) -> String {
        self.name
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Relabels the ring, but only if it still carries an auto-generated
    /// (`thread-<tid>`) or previous helper label — named interpreter
    /// threads keep their identity.
    fn relabel_helper(&self, label: &str) {
        let mut name = self
            .name
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if name.starts_with("thread-") || name.starts_with("gc-helper") {
            *name = label.to_string();
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn push(&self, ev: TraceEvent) {
        let mut r = self.lock();
        if r.buf.len() < self.cap {
            r.buf.push(ev);
        } else {
            let i = r.next;
            r.buf[i] = ev;
            r.next = (i + 1) % self.cap;
            r.dropped += 1;
        }
    }

    /// The ring's events, oldest first, plus the overwritten-event count.
    pub fn drain_ordered(&self) -> (Vec<TraceEvent>, u64) {
        let r = self.lock();
        let mut out = Vec::with_capacity(r.buf.len());
        out.extend_from_slice(&r.buf[r.next..]);
        out.extend_from_slice(&r.buf[..r.next]);
        (out, r.dropped)
    }

    fn clear(&self) {
        let mut r = self.lock();
        r.buf.clear();
        r.next = 0;
        r.dropped = 0;
    }
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn my_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(ThreadRing::new(tid, name, DEFAULT_RING_CAP));
            rings()
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// Records a fully-formed event (skipped when tracing is disabled).
#[inline]
pub fn record(ev: TraceEvent) {
    if !enabled() {
        return;
    }
    my_ring(|r| r.push(ev));
}

/// Records an instant event with a numeric argument.
#[inline]
pub fn instant(name: &'static str, cat: &'static str, arg_name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    my_ring(|r| {
        r.push(TraceEvent {
            name,
            cat,
            phase: TracePhase::Instant,
            start_ns: now_ns(),
            dur_ns: 0,
            arg_name,
            arg,
        })
    });
}

/// Records a counter sample (`ph: "C"` in the Chrome export): the value of
/// the named series at this instant. Traces chart these as a filled graph
/// lane (eden occupancy, pause-phase index).
#[inline]
pub fn counter_event(name: &'static str, cat: &'static str, series: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    my_ring(|r| {
        r.push(TraceEvent {
            name,
            cat,
            phase: TracePhase::Counter,
            start_ns: now_ns(),
            dur_ns: 0,
            arg_name: series,
            arg: value,
        })
    });
}

/// Relabels the current thread's ring to `label` — used to name GC-helper
/// threads per pause. Only threads without a real OS name (or with a stale
/// helper label) are renamed, so interpreter threads keep theirs.
pub fn name_helper_thread(label: &str) {
    if !enabled() {
        return;
    }
    my_ring(|r| r.relabel_helper(label));
}

/// Starts a span; the complete event is recorded when the guard drops.
/// Costs one branch when tracing is disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            cat,
            start_ns: 0,
            arg_name: "",
            arg: 0,
            active: false,
        };
    }
    Span {
        name,
        cat,
        start_ns: now_ns(),
        arg_name: "",
        arg: 0,
        active: true,
    }
}

/// RAII guard for a traced span (see [`span`]).
#[must_use = "the span is recorded when the guard is dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    arg_name: &'static str,
    arg: u64,
    active: bool,
}

impl Span {
    /// Attaches (or replaces) the span's numeric argument.
    #[inline]
    pub fn set_arg(&mut self, name: &'static str, value: u64) {
        self.arg_name = name;
        self.arg = value;
    }

    /// The span's duration so far (0 if tracing was disabled at creation).
    pub fn elapsed_ns(&self) -> u64 {
        if self.active {
            now_ns() - self.start_ns
        } else {
            0
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        my_ring(|r| {
            r.push(TraceEvent {
                name: self.name,
                cat: self.cat,
                phase: TracePhase::Complete,
                start_ns: self.start_ns,
                dur_ns: end - self.start_ns,
                arg_name: self.arg_name,
                arg: self.arg,
            })
        });
    }
}

/// Snapshot of every thread ring (for exporters): `(ring, events, dropped)`.
pub fn all_rings() -> Vec<(Arc<ThreadRing>, Vec<TraceEvent>, u64)> {
    let list = rings()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    list.into_iter()
        .map(|r| {
            let (events, dropped) = r.drain_ordered();
            (r, events, dropped)
        })
        .collect()
}

/// Empties every thread's ring (between traced runs).
pub fn clear_traces() {
    let list = rings()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    for r in list {
        r.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global ENABLED flag.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        let before: usize = all_rings().iter().map(|(_, e, _)| e.len()).sum();
        instant("test.noop", "test", "", 0);
        drop(span("test.noop_span", "test"));
        let after: usize = all_rings().iter().map(|(_, e, _)| e.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn spans_and_instants_reach_this_threads_ring() {
        with_tracing(|| {
            instant("test.marker", "test", "n", 7);
            {
                let mut s = span("test.work", "test");
                s.set_arg("items", 3);
                std::hint::black_box(0u64);
            }
            let mine = std::thread::current().id();
            let _ = mine;
            let rings = all_rings();
            let (_, events, _) = rings
                .iter()
                .find(|(_, e, _)| e.iter().any(|ev| ev.name == "test.marker"))
                .expect("this thread's ring must hold the marker");
            let sp = events
                .iter()
                .find(|e| e.name == "test.work")
                .expect("span recorded");
            assert_eq!(sp.phase, TracePhase::Complete);
            assert_eq!(sp.arg_name, "items");
            assert_eq!(sp.arg, 3);
        });
    }

    #[test]
    fn ring_wraps_around_keeping_recent_events() {
        // The satellite test: wraparound drops the oldest, keeps order.
        with_tracing(|| {
            let ring = ThreadRing::new(999, "wrap-test".into(), 4);
            for i in 0..10u64 {
                ring.push(TraceEvent {
                    name: "test.wrap",
                    cat: "test",
                    phase: TracePhase::Instant,
                    start_ns: i,
                    dur_ns: 0,
                    arg_name: "i",
                    arg: i,
                });
            }
            let (events, dropped) = ring.drain_ordered();
            assert_eq!(events.len(), 4, "capacity bounds the ring");
            assert_eq!(dropped, 6, "six oldest events overwritten");
            let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
            assert_eq!(args, vec![6, 7, 8, 9], "newest survive, oldest first");
        });
    }

    #[test]
    fn dropped_event_accounting_is_exact() {
        // Satellite: however many times the ring wraps, every overwritten
        // event is counted, retained + dropped == pushed, and the retained
        // window is exactly the newest `cap` events in order.
        let cap = 8usize;
        let ring = ThreadRing::new(998, "drop-test".into(), cap);
        let ev = |i: u64| TraceEvent {
            name: "test.drop",
            cat: "test",
            phase: TracePhase::Instant,
            start_ns: i,
            dur_ns: 0,
            arg_name: "i",
            arg: i,
        };
        for total in [3usize, 8, 9, 31, 64] {
            ring.clear();
            for i in 0..total as u64 {
                ring.push(ev(i));
            }
            let (events, dropped) = ring.drain_ordered();
            let kept = total.min(cap);
            assert_eq!(events.len(), kept);
            assert_eq!(
                dropped as usize + events.len(),
                total,
                "no event unaccounted"
            );
            let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
            let want: Vec<u64> = ((total - kept) as u64..total as u64).collect();
            assert_eq!(args, want, "retained window is the newest events in order");
        }
        ring.clear();
        let (events, dropped) = ring.drain_ordered();
        assert!(events.is_empty());
        assert_eq!(dropped, 0, "clear resets the drop count");
    }

    #[test]
    fn counter_events_and_helper_relabeling() {
        with_tracing(|| {
            std::thread::spawn(|| {
                counter_event("test.eden", "gc", "words", 4096);
                name_helper_thread("gc-helper#1");
                counter_event("test.eden", "gc", "words", 0);
                name_helper_thread("gc-helper#2");
            })
            .join()
            .unwrap();
            let rings = all_rings();
            let (ring, events, _) = rings
                .iter()
                .find(|(_, e, _)| e.iter().any(|ev| ev.name == "test.eden"))
                .expect("helper thread's ring");
            assert_eq!(
                ring.name(),
                "gc-helper#2",
                "anonymous thread takes the latest helper label"
            );
            let c = events.iter().find(|e| e.name == "test.eden").unwrap();
            assert_eq!(c.phase, TracePhase::Counter);
            assert_eq!(c.arg_name, "words");
        });
    }

    #[test]
    fn named_threads_keep_their_name_over_helper_labels() {
        with_tracing(|| {
            std::thread::Builder::new()
                .name("interp-keep".to_string())
                .spawn(|| {
                    instant("test.keepname", "test", "", 0);
                    name_helper_thread("gc-helper#0");
                })
                .unwrap()
                .join()
                .unwrap();
            let rings = all_rings();
            let (ring, _, _) = rings
                .iter()
                .find(|(_, e, _)| e.iter().any(|ev| ev.name == "test.keepname"))
                .unwrap();
            assert_eq!(ring.name(), "interp-keep");
        });
    }

    #[test]
    fn rings_from_multiple_threads_are_all_visible() {
        with_tracing(|| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("trace-test-{i}"))
                        .spawn(move || instant("test.multi", "test", "t", i))
                        .unwrap()
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let with_event: Vec<_> = all_rings()
                .into_iter()
                .filter(|(_, e, _)| e.iter().any(|ev| ev.name == "test.multi"))
                .collect();
            assert!(with_event.len() >= 2, "one ring per recording thread");
            for (ring, _, _) in &with_event {
                assert!(ring.name().starts_with("trace-test-"));
            }
        });
    }
}
