//! Per-processor state timeline: time-based utilization accounting.
//!
//! The paper's Table 2 argues in terms of what every processor was *doing* —
//! running Smalltalk, spinning on a lock, helping the collector, or sitting
//! idle. Counters can say how often those things happened; this module says
//! for how long. Each processor thread registers once (RAII
//! [`ProcSession`]) and then flips between [`ProcState`]s with either the
//! flat [`transition`] call (interpreter run loop) or the scoped
//! [`enter_state`] guard (primitives, lock slow paths, safepoint waits,
//! GC-helper stints). Every transition closes the open interval into a
//! per-processor, per-state nanosecond accumulator.
//!
//! Design constraints, in order:
//!
//! * **Off means off.** When the timeline is disabled (the default) every
//!   entry point is one relaxed atomic load. No `Instant::now()`, no TLS
//!   write.
//! * **Owner-writes.** A slot has one owning thread at a time: [`register`]
//!   claims it, and a second thread registering the same processor id
//!   gets the next free slot. Only the owner writes its slot, so all
//!   accumulator traffic is uncontended and `Relaxed`. [`snapshot`] reads
//!   cross-thread and additionally folds in the currently-open interval
//!   (the `cur`/`since` mirror exists solely for that), so a live snapshot
//!   still accounts ~all elapsed time. Concurrent snapshots may misattribute
//!   the few nanoseconds of an in-flight transition; once a session is
//!   closed its accounting is exact: the state times sum to precisely
//!   `closed - opened`.
//! * **Panic-safe.** Both `ProcSession` and `StateGuard` close their open
//!   interval on drop, so a worker killed by `thread.panic` chaos or a
//!   supervisor restart cannot leak wall-time into a dead state.

use std::cell::Cell;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};

use crate::trace::now_ns;

/// Number of timeline slots, and the upper bound on processor ids the
/// timeline tracks (slots are statically allocated; ids at or above this
/// are silently untracked).
pub const MAX_PROCS: usize = 64;

/// Number of distinct [`ProcState`]s.
pub const NSTATES: usize = 7;

/// What a processor thread is doing right now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum ProcState {
    /// Executing Smalltalk bytecodes on a claimed process.
    Mutator = 0,
    /// Parked (or parking) in a rendezvous wait loop while somebody else
    /// stops the world.
    SafepointWait = 1,
    /// Holding the world stopped as the rendezvous leader (compilation,
    /// snapshotting, GC dispatch — the serial portions).
    Stopped = 2,
    /// Running collector work in a `run_stopped` helper slot (or as the
    /// leader's own slot 0).
    GcHelper = 3,
    /// Spinning in a `SpinLock`/`SpinMutex` slow path.
    LockSpin = 4,
    /// No runnable Smalltalk process (the scheduler idle loop), or not yet
    /// running one.
    Idle = 5,
    /// Inside a primitive dispatched from the send path.
    Primitive = 6,
}

/// Report names for each state, indexed by `ProcState as usize`.
pub const STATE_NAMES: [&str; NSTATES] = [
    "mutator",
    "safepoint_wait",
    "stopped",
    "gc_helper",
    "lock_spin",
    "idle",
    "primitive",
];

impl ProcState {
    /// The report name (`STATE_NAMES` entry) for this state.
    pub fn name(self) -> &'static str {
        STATE_NAMES[self as usize]
    }
}

/// Sentinel "no state" index (session closed / never opened).
const NO_STATE: usize = NSTATES;
/// Sentinel "no processor" id for inert guards and unregistered threads.
const NO_PROC: usize = MAX_PROCS;

struct ProcSlot {
    /// Accumulated nanoseconds per state.
    ns: [AtomicU64; NSTATES],
    /// Currently-open state index (`NO_STATE` when closed), mirrored here so
    /// `snapshot()` can account the open interval cross-thread.
    cur: AtomicUsize,
    /// `now_ns()` at the last transition.
    since: AtomicU64,
    /// `now_ns()` when the slot was first registered.
    opened: AtomicU64,
    /// `now_ns()` when the last session closed (0 while a session is open).
    closed: AtomicU64,
    /// Number of `register` calls that hit this slot.
    sessions: AtomicU64,
    /// Whether a thread holds an open session on this slot.
    owned: AtomicBool,
}

impl ProcSlot {
    const fn new() -> Self {
        ProcSlot {
            ns: [const { AtomicU64::new(0) }; NSTATES],
            cur: AtomicUsize::new(NO_STATE),
            since: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            owned: AtomicBool::new(false),
        }
    }
}

static SLOTS: [ProcSlot; MAX_PROCS] = [const { ProcSlot::new() }; MAX_PROCS];
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// (processor id, open state index) for the current thread.
    static CUR: Cell<(usize, usize)> = const { Cell::new((NO_PROC, NO_STATE)) };
}

/// Whether timeline accounting is on. One relaxed load — callers on hot
/// paths check nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns timeline accounting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Closes the open interval of `proc` (accumulating into its current state)
/// and opens a new interval in `to`. The caller must own the slot.
fn do_transition(proc: usize, to: usize) {
    let (cur_proc, prev) = CUR.get();
    if cur_proc != proc {
        return; // session closed underneath us (guard outliving session)
    }
    let slot = &SLOTS[proc];
    let now = now_ns();
    let since = slot.since.swap(now, Relaxed);
    if prev < NSTATES && since > 0 {
        slot.ns[prev].fetch_add(now.saturating_sub(since), Relaxed);
    }
    slot.cur.store(to, Relaxed);
    CUR.set((proc, to));
}

/// Registers the current thread as processor `proc` and opens its timeline
/// session in [`ProcState::Idle`]. Returns an RAII session that closes the
/// open interval on drop (including panic unwinds). If another thread holds
/// `proc`'s slot, the session claims the next free one (see
/// [`ProcSession::proc`]). Inert when the timeline is disabled,
/// `proc >= MAX_PROCS`, or every slot is taken.
pub fn register(proc: usize) -> ProcSession {
    if !enabled() || proc >= MAX_PROCS {
        return ProcSession { proc: NO_PROC };
    }
    // Acquire pairs with the Release in `ProcSession::drop`: the new owner
    // sees the previous owner's last writes to the slot.
    let claimed = (proc..MAX_PROCS)
        .chain(0..proc)
        .find(|&p| !SLOTS[p].owned.swap(true, Acquire));
    let Some(proc) = claimed else {
        return ProcSession { proc: NO_PROC };
    };
    let slot = &SLOTS[proc];
    let now = now_ns();
    if slot.sessions.fetch_add(1, Relaxed) == 0 {
        slot.opened.store(now, Relaxed);
    }
    slot.closed.store(0, Relaxed);
    slot.since.store(now, Relaxed);
    slot.cur.store(ProcState::Idle as usize, Relaxed);
    CUR.set((proc, ProcState::Idle as usize));
    ProcSession { proc }
}

/// RAII handle for a registered processor thread. Dropping it (normally or
/// during a panic unwind) closes the open state interval, so the slot's
/// accumulated times sum exactly to its observed lifetime.
#[derive(Debug)]
pub struct ProcSession {
    proc: usize,
}

impl ProcSession {
    /// The slot this session accounts to: the processor id it registered,
    /// or the next free slot if that one was taken (`MAX_PROCS` when inert).
    pub fn proc(&self) -> usize {
        self.proc
    }
}

impl Drop for ProcSession {
    fn drop(&mut self) {
        if self.proc >= MAX_PROCS {
            return;
        }
        let slot = &SLOTS[self.proc];
        let (cur_proc, cur) = CUR.get();
        if cur_proc == self.proc {
            let now = now_ns();
            let since = slot.since.swap(now, Relaxed);
            if cur < NSTATES && since > 0 {
                slot.ns[cur].fetch_add(now.saturating_sub(since), Relaxed);
            }
            slot.cur.store(NO_STATE, Relaxed);
            slot.closed.store(now, Relaxed);
            CUR.set((NO_PROC, NO_STATE));
        }
        slot.owned.store(false, Release);
    }
}

/// Unconditionally moves the current thread's processor into `state`
/// (closing the previous interval). No-op when disabled or unregistered.
/// Use for flat mode changes with no natural scope (the interpreter run
/// loop's claimed/idle flips).
#[inline]
pub fn transition(state: ProcState) {
    if !enabled() {
        return;
    }
    let (proc, _) = CUR.get();
    if proc >= MAX_PROCS {
        return;
    }
    do_transition(proc, state as usize);
}

/// Scoped state change: moves into `state` now and restores the previous
/// state when the returned guard drops (including panic unwinds). Use for
/// nested excursions — a primitive inside mutator time, a lock spin inside
/// anything, a GC-helper stint inside a safepoint wait.
#[inline]
pub fn enter_state(state: ProcState) -> StateGuard {
    if !enabled() {
        return StateGuard {
            proc: NO_PROC,
            prev: NO_STATE,
        };
    }
    let (proc, prev) = CUR.get();
    if proc >= MAX_PROCS {
        return StateGuard {
            proc: NO_PROC,
            prev: NO_STATE,
        };
    }
    do_transition(proc, state as usize);
    StateGuard { proc, prev }
}

/// RAII guard from [`enter_state`]; restores the previous state on drop.
#[derive(Debug)]
pub struct StateGuard {
    proc: usize,
    prev: usize,
}

impl Drop for StateGuard {
    fn drop(&mut self) {
        if self.proc >= MAX_PROCS {
            return;
        }
        do_transition(self.proc, self.prev);
    }
}

/// One processor's accumulated timeline.
#[derive(Clone, Debug)]
pub struct ProcTimeline {
    /// Processor id (slot index).
    pub proc: usize,
    /// Nanoseconds per state, indexed by `ProcState as usize`.
    pub ns: [u64; NSTATES],
    /// `now_ns()` when the slot was first registered.
    pub opened_ns: u64,
    /// `now_ns()` when the last session closed; 0 while a session is open.
    pub closed_ns: u64,
    /// Number of sessions registered against this slot.
    pub sessions: u64,
}

impl ProcTimeline {
    /// Total accounted nanoseconds across all states.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Observed lifetime: `closed - opened`, or up to `now` while open.
    pub fn span_ns(&self) -> u64 {
        let end = if self.closed_ns != 0 {
            self.closed_ns
        } else {
            now_ns()
        };
        end.saturating_sub(self.opened_ns)
    }

    /// Share of accounted time spent in `state`, in percent.
    pub fn pct(&self, state: ProcState) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.ns[state as usize] as f64 * 100.0 / total as f64
    }
}

/// Snapshot of every registered processor slot, open intervals included
/// (accounted up to `now`), sorted by processor id.
pub fn snapshot() -> Vec<ProcTimeline> {
    let now = now_ns();
    (0..MAX_PROCS)
        .filter_map(|proc| {
            let slot = &SLOTS[proc];
            let sessions = slot.sessions.load(Relaxed);
            if sessions == 0 {
                return None;
            }
            let mut ns = [0u64; NSTATES];
            for (i, cell) in slot.ns.iter().enumerate() {
                ns[i] = cell.load(Relaxed);
            }
            let cur = slot.cur.load(Relaxed);
            if cur < NSTATES {
                let since = slot.since.load(Relaxed);
                if since > 0 {
                    ns[cur] += now.saturating_sub(since);
                }
            }
            Some(ProcTimeline {
                proc,
                ns,
                opened_ns: slot.opened.load(Relaxed),
                closed_ns: slot.closed.load(Relaxed),
                sessions,
            })
        })
        .collect()
}

/// Zeroes every slot. Only call while no sessions are open (between runs);
/// a thread still registered would resume accumulating into the cleared
/// slot from its own thread-local view.
pub fn reset() {
    for slot in &SLOTS {
        for cell in &slot.ns {
            cell.store(0, Relaxed);
        }
        slot.cur.store(NO_STATE, Relaxed);
        slot.since.store(0, Relaxed);
        slot.opened.store(0, Relaxed);
        slot.closed.store(0, Relaxed);
        slot.sessions.store(0, Relaxed);
    }
}

/// Serializes tests (across this crate) that toggle the global enable flag
/// or assert on slot contents.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the global slot array and enable flag; each uses its own
    // high proc id (real processor ids are small) and holds the crate-wide
    // lock so the disable test can't turn accounting off under another test.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn closed_session_accounts_every_nanosecond() {
        let _l = serial();
        set_enabled(true);
        let proc = 57;
        let session = register(proc);
        transition(ProcState::Mutator);
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _p = enter_state(ProcState::Primitive);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(session);
        let snap = snapshot();
        let t = snap.iter().find(|t| t.proc == proc).unwrap();
        assert_ne!(t.closed_ns, 0, "session closed");
        assert_eq!(
            t.total_ns(),
            t.closed_ns - t.opened_ns,
            "states partition the session exactly"
        );
        assert!(t.ns[ProcState::Mutator as usize] >= 1_000_000);
        assert!(t.ns[ProcState::Primitive as usize] >= 500_000);
    }

    #[test]
    fn guard_restores_previous_state_and_survives_panic() {
        let _l = serial();
        set_enabled(true);
        let proc = 58;
        let session = register(proc);
        transition(ProcState::Mutator);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = enter_state(ProcState::LockSpin);
            panic!("chaos");
        }));
        assert!(unwound.is_err());
        // The guard's drop ran during the unwind: we are back in Mutator.
        let snap = snapshot();
        let t = snap.iter().find(|t| t.proc == proc).unwrap();
        assert!(
            t.ns[ProcState::LockSpin as usize] > 0,
            "spin interval closed"
        );
        drop(session);
        let snap = snapshot();
        let t = snap.iter().find(|t| t.proc == proc).unwrap();
        assert_eq!(t.total_ns(), t.closed_ns - t.opened_ns);
    }

    #[test]
    fn session_drop_during_unwind_closes_interval() {
        let _l = serial();
        set_enabled(true);
        let proc = 59;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _session = register(proc);
            transition(ProcState::GcHelper);
            panic!("worker killed");
        }));
        assert!(unwound.is_err());
        let snap = snapshot();
        let t = snap.iter().find(|t| t.proc == proc).unwrap();
        assert_ne!(t.closed_ns, 0, "panicked worker still closed its session");
        assert_eq!(t.total_ns(), t.closed_ns - t.opened_ns);
        assert!(t.ns[ProcState::GcHelper as usize] > 0);
    }

    #[test]
    fn snapshot_accounts_open_interval() {
        let _l = serial();
        set_enabled(true);
        let proc = 60;
        let _session = register(proc);
        transition(ProcState::Mutator);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let snap = snapshot();
        let t = snap.iter().find(|t| t.proc == proc).unwrap();
        assert_eq!(t.closed_ns, 0, "still open");
        assert!(
            t.ns[ProcState::Mutator as usize] >= 1_000_000,
            "open interval folded into snapshot"
        );
    }

    #[test]
    fn disabled_timeline_is_inert() {
        // Use a dedicated proc id; flip the global flag off only long
        // enough to observe register() returning an inert session.
        let _l = serial();
        let proc = 61;
        set_enabled(false);
        let session = register(proc);
        assert_eq!(session.proc(), MAX_PROCS);
        transition(ProcState::Mutator); // must not crash or record
        drop(session);
        set_enabled(true);
        assert!(
            snapshot().iter().all(|t| t.proc != proc),
            "no slot was touched while disabled"
        );
    }

    #[test]
    fn threads_registering_one_processor_get_a_slot_each() {
        let _l = serial();
        set_enabled(true);
        let before = snapshot();
        let start = std::sync::Barrier::new(2);
        let lifetimes = [20u64, 40];
        let slots: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = lifetimes
                .iter()
                .map(|&ms| {
                    let start = &start;
                    s.spawn(move || {
                        let session = register(1);
                        start.wait();
                        transition(ProcState::Mutator);
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                        session.proc()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let after = snapshot();
        let gained = |proc: usize| {
            let total = |snap: &[ProcTimeline]| {
                snap.iter()
                    .find(|t| t.proc == proc)
                    .map_or(0, ProcTimeline::total_ns)
            };
            total(&after) - total(&before)
        };
        let mut distinct = slots.clone();
        distinct.dedup();
        let covered: u64 = distinct.iter().map(|&proc| gained(proc)).sum();
        let lived: u64 = lifetimes.iter().sum();
        assert!(
            covered >= lived * 1_000_000,
            "slots {distinct:?} account {covered} ns of the threads' {lived} ms"
        );
        assert_ne!(slots[0], slots[1], "each thread owns its own slot");
        for (&proc, &ms) in slots.iter().zip(&lifetimes) {
            assert!(
                gained(proc) >= ms * 1_000_000,
                "slot {proc} covers its thread's {ms} ms"
            );
        }
        let t = after.iter().find(|t| t.proc == slots[1]).unwrap();
        assert_eq!(t.total_ns(), t.closed_ns - t.opened_ns);
    }

    #[test]
    fn state_names_cover_all_states() {
        assert_eq!(STATE_NAMES.len(), NSTATES);
        assert_eq!(ProcState::Mutator.name(), "mutator");
        assert_eq!(ProcState::Primitive.name(), "primitive");
        assert_eq!(ProcState::Primitive as usize, NSTATES - 1);
    }
}
