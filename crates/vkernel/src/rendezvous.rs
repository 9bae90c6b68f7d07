//! Stop-the-world rendezvous.
//!
//! Paper §3.1: *"Since garbage collection takes a long time compared to other
//! interpreter activities, we do not employ spin-locks in serializing
//! scavenging. Instead, all of the processes are synchronized with a global
//! flag and the V interprocess communication mechanism."*
//!
//! [`Rendezvous`] is that mechanism: interpreter threads register as
//! participants and poll a global flag at safepoints; when one thread
//! requests a stop ([`Rendezvous::stop_world`]) the others park until the
//! requester drops the returned [`RendezvousGuard`].
//!
//! Three layers sit on top of the protocol:
//!
//! * **Participant guard.** [`Rendezvous::participant`] returns a
//!   [`Participant`] that unregisters on drop, so a mutator that panics
//!   mid-bytecode still leaves the roster and a stopper waiting on it
//!   recounts instead of hanging the world forever.
//! * **Idle wait.** An interpreter with nothing to run blocks in
//!   [`Rendezvous::idle_wait`] instead of polling. It counts as parked
//!   there, so a stop never waits for it and can still draft it as a GC
//!   helper; [`Rendezvous::wake_idle`] releases it when work may exist.
//! * **Safepoint watchdog.** A leader waiting for mutators to park gives up
//!   waiting *silently* after a deadline ([`Rendezvous::set_watchdog`]):
//!   it dumps a diagnostic report — per-participant
//!   parked/running state, the telemetry registry, recent trace events — to
//!   stderr and to a dump file, then either panics or keeps waiting
//!   according to the configured [`WatchdogPolicy`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use mst_telemetry as tel;
use mst_telemetry::timeline::{self, ProcState};
use mst_telemetry::trace::record;
use mst_telemetry::{TraceEvent, TracePhase};

use crate::fault;

/// Identity handed out by [`Rendezvous::register`]; names the participant in
/// watchdog diagnostics and must be passed back to `park`/`stop_world`/
/// `unregister`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParticipantId(u64);

impl std::fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What the leader does after the watchdog deadline expires and the
/// diagnostic report has been dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatchdogPolicy {
    /// Dump the report, then keep waiting (the stop may still complete).
    #[default]
    Log,
    /// Dump the report, then panic the leader thread.
    Panic,
}

/// Roster row: diagnostic identity of one registered participant. The
/// `parked` flag shadows the authoritative `Inner::parked` counter and is
/// only consulted when composing a watchdog report.
#[derive(Debug)]
struct RosterEntry {
    id: u64,
    name: String,
    parked: bool,
}

/// A leader-supplied closure that parked participants execute while the
/// world is stopped (the GC helper protocol): instead of idling in the
/// condvar for the whole pause, a parker claims a slot, runs the closure,
/// and returns to waiting. See [`RendezvousGuard::run_stopped`].
struct HelperJob {
    /// Lifetime-erased pointer to the leader's closure. The leader blocks in
    /// `run_stopped` until `active` drops to zero and the job is cleared, so
    /// the pointee outlives every helper invocation.
    func: *const (dyn Fn(usize) + Sync),
    /// Next helper slot to hand out; slot 0 belongs to the leader.
    next_slot: usize,
    /// Total slots available, including the leader's.
    max_slots: usize,
    /// Helpers currently executing the closure.
    active: usize,
    /// Set once the leader finishes its own slot: no further claims.
    closed: bool,
}

// SAFETY: the raw closure pointer is only dereferenced by helpers claiming
// under the mutex while the leader is blocked keeping the closure alive; the
// pointer itself is never aliased mutably.
unsafe impl Send for HelperJob {}

impl std::fmt::Debug for HelperJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HelperJob")
            .field("next_slot", &self.next_slot)
            .field("max_slots", &self.max_slots)
            .field("active", &self.active)
            .field("closed", &self.closed)
            .finish()
    }
}

/// A participant's parked accounting (and, for an idle waiter, its
/// sleeper count), entered under `inner`. [`leave`](Self::leave) restores
/// it under the same lock that observed the stop released; if a helper
/// slot panics instead, the guard's drop restores it during the unwind,
/// so the leader's `parked` count never keeps a dead thread.
struct Parked<'a> {
    rdv: &'a Rendezvous,
    id: ParticipantId,
    idle: bool,
}

impl<'a> Parked<'a> {
    fn enter(rdv: &'a Rendezvous, inner: &mut Inner, id: ParticipantId, idle: bool) -> Self {
        inner.parked += 1;
        if let Some(e) = inner.roster_entry(id) {
            e.parked = true;
        }
        if idle {
            rdv.idle_sleepers.fetch_add(1, Ordering::SeqCst);
        }
        if inner.requested {
            // The leader may be waiting for this park.
            rdv.cv.notify_all();
        }
        Parked { rdv, id, idle }
    }

    fn leave(self, inner: &mut Inner) {
        self.restore(inner);
        std::mem::forget(self);
    }

    fn restore(&self, inner: &mut Inner) {
        inner.parked -= 1;
        if let Some(e) = inner.roster_entry(self.id) {
            e.parked = false;
        }
        if self.idle {
            self.rdv.idle_sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Parked<'_> {
    /// Reached only by unwinding: the normal path is [`Parked::leave`].
    fn drop(&mut self) {
        self.restore(&mut self.rdv.lock_inner());
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Whether a stop is requested (authoritative copy; `flag` mirrors it).
    requested: bool,
    /// Threads currently registered as mutators.
    participants: usize,
    /// Registered threads currently parked (or leading a stop).
    parked: usize,
    /// Diagnostic identities of the registered threads.
    roster: Vec<RosterEntry>,
    /// Open world-stopped closure parked threads may help run.
    job: Option<HelperJob>,
    /// Where the watchdog writes its report; `None` is
    /// [`Rendezvous::DEFAULT_WATCHDOG_DUMP`]. Lives here, not beside `flag`,
    /// because the leader already holds this mutex when it dumps.
    watchdog_dump: Option<PathBuf>,
}

impl Inner {
    fn roster_entry(&mut self, id: ParticipantId) -> Option<&mut RosterEntry> {
        self.roster.iter_mut().find(|e| e.id == id.0)
    }
}

/// Global-flag-plus-IPC synchronization used to serialize scavenging.
///
/// # Example
///
/// ```
/// use mst_vkernel::Rendezvous;
///
/// let rdv = Rendezvous::new();
/// let me = rdv.register();
/// {
///     let _world = rdv.stop_world(me); // sole participant: returns at once
///     // ... scavenge ...
/// }
/// rdv.unregister(me);
/// ```
#[derive(Debug)]
pub struct Rendezvous {
    /// Fast-path mirror of `Inner::requested`, polled at safepoints.
    flag: AtomicBool,
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Participant-id dispenser.
    next_id: AtomicU64,
    /// The idle eventcount: bumped by every [`wake_idle`](Self::wake_idle).
    idle_gen: AtomicU64,
    /// Threads inside [`idle_wait`](Self::idle_wait). Changed under `inner`,
    /// read by wakers without it.
    idle_sleepers: AtomicUsize,
    /// Where idle waiters block while no stop is in flight; `cv` carries
    /// everything else.
    idle_cv: Condvar,
    /// Watchdog deadline in milliseconds (0 disables the watchdog).
    watchdog_ms: AtomicU64,
    /// `true` ⇒ [`WatchdogPolicy::Panic`].
    watchdog_panics: AtomicBool,
}

impl Default for Rendezvous {
    fn default() -> Self {
        Rendezvous::new()
    }
}

impl Rendezvous {
    /// Default watchdog deadline: long enough that no healthy stop — even
    /// under CI load — comes close, short enough that a wedged run fails
    /// with a report instead of timing out the job.
    pub const DEFAULT_WATCHDOG_MS: u64 = 10_000;

    /// Default watchdog report file, relative to the working directory
    /// (CI uploads it as an artifact when a job fails).
    pub const DEFAULT_WATCHDOG_DUMP: &'static str = "watchdog-dump.txt";

    /// Creates a rendezvous with no registered participants, the default
    /// watchdog deadline, [`WatchdogPolicy::Log`] and the default dump file.
    pub fn new() -> Self {
        Rendezvous {
            flag: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            idle_gen: AtomicU64::new(0),
            idle_sleepers: AtomicUsize::new(0),
            idle_cv: Condvar::new(),
            watchdog_ms: AtomicU64::new(Self::DEFAULT_WATCHDOG_MS),
            watchdog_panics: AtomicBool::new(false),
        }
    }

    /// Sets the watchdog deadline; `0` disables the watchdog entirely.
    pub fn set_watchdog(&self, deadline_ms: u64) {
        self.watchdog_ms.store(deadline_ms, Ordering::Relaxed);
    }

    /// Sets what the leader does after dumping the watchdog report.
    pub fn set_watchdog_policy(&self, policy: WatchdogPolicy) {
        self.watchdog_panics
            .store(policy == WatchdogPolicy::Panic, Ordering::Relaxed);
    }

    /// Sets the file the watchdog writes its report to.
    pub fn set_watchdog_dump(&self, path: impl Into<PathBuf>) {
        self.lock_inner().watchdog_dump = Some(path.into());
    }

    /// Locks `inner`, recovering from poison: the protected state is a set
    /// of counters whose updates are single statements, so it is consistent
    /// even if some thread panicked while holding the guard.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers the calling thread as a mutator that will reach safepoints.
    ///
    /// The returned id names this participant in watchdog diagnostics; pass
    /// it to [`park`](Self::park), [`stop_world`](Self::stop_world) and
    /// [`unregister`](Self::unregister). Prefer
    /// [`participant`](Self::participant), whose guard unregisters even if
    /// the thread panics.
    pub fn register(&self) -> ParticipantId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current();
        let name = match thread.name() {
            Some(n) => format!("{n} ({:?})", thread.id()),
            None => format!("{:?}", thread.id()),
        };
        let mut inner = self.lock_inner();
        inner.participants += 1;
        inner.roster.push(RosterEntry {
            id,
            name,
            parked: false,
        });
        ParticipantId(id)
    }

    /// Registers the calling thread and returns an RAII guard that
    /// unregisters on drop — including the unwind of a panic, so a dying
    /// mutator unblocks any stopper waiting for it to park.
    pub fn participant(&self) -> Participant<'_> {
        Participant {
            rdv: self,
            id: self.register(),
        }
    }

    /// Unregisters a participant (e.g. when an interpreter terminates or
    /// blocks in the kernel where it cannot touch the heap).
    pub fn unregister(&self, id: ParticipantId) {
        let mut inner = self.lock_inner();
        debug_assert!(inner.participants > 0, "unregister without register");
        inner.participants -= 1;
        inner.roster.retain(|e| e.id != id.0);
        // A leader may be waiting for us; let it recount.
        self.cv.notify_all();
    }

    /// Number of currently registered participants.
    pub fn participants(&self) -> usize {
        self.lock_inner().participants
    }

    /// Number of registered threads currently parked (or leading a stop).
    ///
    /// Exposed for accounting tests and instrumentation; racy by nature
    /// unless the caller holds a [`RendezvousGuard`], in which case every
    /// other participant is parked and the count is stable.
    pub fn parked(&self) -> usize {
        self.lock_inner().parked
    }

    /// The global flag: `true` when some thread wants the world stopped.
    ///
    /// This is the only thing mutators pay for at a safepoint.
    #[inline]
    pub fn poll(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Parks the calling participant until the pending stop — if any — is
    /// released. Call upon observing [`poll`](Self::poll) return `true`.
    pub fn park(&self, id: ParticipantId) {
        self.park_helping(id, true);
    }

    /// [`park`](Self::park) without running the leader's helper job: for a
    /// thread that must not execute collector code while it waits, such as
    /// one recovering from a panic outside its supervisor's catch.
    pub fn park_without_helping(&self, id: ParticipantId) {
        self.park_helping(id, false);
    }

    fn park_helping(&self, id: ParticipantId, help: bool) {
        let inner = self.lock_inner();
        if !inner.requested {
            return; // raced with the release
        }
        let start_ns = tel::now_ns();
        drop(self.park_while_requested(inner, id, help));
        let parked_ns = tel::now_ns() - start_ns;
        tel::histogram!("safepoint.park_ns").record(parked_ns);
        if tel::enabled() {
            record(TraceEvent {
                name: "safepoint.park",
                cat: "safepoint",
                phase: TracePhase::Complete,
                start_ns,
                dur_ns: parked_ns,
                arg_name: "",
                arg: 0,
            });
        }
    }

    /// Counts `id` as parked and waits out the pending stop. Returns with
    /// the lock held, the request released and the parked accounting
    /// restored.
    fn park_while_requested<'a>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
        id: ParticipantId,
        help: bool,
    ) -> MutexGuard<'a, Inner> {
        let parked = Parked::enter(self, &mut inner, id, false);
        inner = self.wait_out_stop(inner, help);
        parked.leave(&mut inner);
        inner
    }

    /// The one park loop, for a caller already counted as parked: waits
    /// until the pending stop is released, running the leader's helper job
    /// whenever a slot is open and `help` allows.
    fn wait_out_stop<'a>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
        help: bool,
    ) -> MutexGuard<'a, Inner> {
        let _wait_state = timeline::enter_state(ProcState::SafepointWait);
        while inner.requested {
            let helped = if help {
                let (guard, helped) = self.try_help(inner);
                inner = guard;
                helped
            } else {
                false
            };
            if !helped {
                inner = self.wait(&self.cv, inner);
            }
        }
        inner
    }

    /// The idle eventcount's generation. An idle participant reads it
    /// *before* it looks for work and passes it to
    /// [`idle_wait`](Self::idle_wait), so a [`wake_idle`](Self::wake_idle)
    /// that lands between the look and the wait is not lost.
    pub fn idle_generation(&self) -> u64 {
        self.idle_gen.load(Ordering::SeqCst)
    }

    /// Number of participants blocked in [`idle_wait`](Self::idle_wait)
    /// (racy, like [`parked`](Self::parked)).
    pub fn idle_sleepers(&self) -> usize {
        self.idle_sleepers.load(Ordering::SeqCst)
    }

    /// Blocks an idle participant until [`wake_idle`](Self::wake_idle)
    /// moves the generation past `seen` (at once if it already has), or
    /// until `deadline_ns` (a [`tel::now_ns`] instant) if one is given.
    ///
    /// The waiter counts as parked throughout, so
    /// [`stop_world`](Self::stop_world) quiesces it without waking it; it
    /// still runs the leader's helper job, so
    /// [`RendezvousGuard::run_stopped`] can draft it; and it never returns
    /// while a stop is in flight. Without a deadline there is no timeout:
    /// every transition that can give an idle participant work must call
    /// `wake_idle`.
    pub fn idle_wait(&self, id: ParticipantId, seen: u64, deadline_ns: Option<u64>) {
        let start_ns = tel::enabled().then(tel::now_ns);
        let mut inner = self.lock_inner();
        let parked = Parked::enter(self, &mut inner, id, true);
        loop {
            if inner.requested {
                inner = self.wait_out_stop(inner, true);
            }
            // Sleeper half of the Dekker pair (waker half in `wake_idle`):
            // `Parked::enter` incremented `idle_sleepers` (SeqCst) before
            // this SeqCst load. If the load misses a waker's bump, the bump
            // follows the increment in the single SeqCst order, so the
            // waker's load of `idle_sleepers` sees this sleeper and it
            // notifies under `inner`, which we hold until `wait` releases
            // it. No wake-up is lost between this check and the wait.
            if self.idle_gen.load(Ordering::SeqCst) != seen {
                break;
            }
            inner = match deadline_ns {
                None => self.wait(&self.idle_cv, inner),
                Some(deadline) => {
                    let now = tel::now_ns();
                    if now >= deadline {
                        break;
                    }
                    let left = Duration::from_nanos(deadline - now);
                    Self::wait_timeout(&self.idle_cv, inner, left)
                }
            };
        }
        parked.leave(&mut inner);
        drop(inner);
        // The span shows when a processor slept and how late its wake came.
        if let Some(start_ns) = start_ns {
            record(TraceEvent {
                name: "idle.wait",
                cat: "idle",
                phase: TracePhase::Complete,
                start_ns,
                dur_ns: tel::now_ns() - start_ns,
                arg_name: "",
                arg: 0,
            });
        }
    }

    /// Releases every [`idle_wait`](Self::idle_wait)er: call after any
    /// change that may give an idle participant work, once the change is
    /// visible. Costs two atomics when nobody is idle.
    pub fn wake_idle(&self) {
        // Waker half of the Dekker pair (sleeper half in `idle_wait`): the
        // SeqCst bump precedes the SeqCst load of `idle_sleepers`. Either
        // that load sees a sleeper's increment, and we notify it, or the
        // increment follows the bump and the sleeper's generation check
        // sees the bump. Taking `inner` orders the notify after a sleeper
        // that has checked but not yet blocked.
        self.idle_gen.fetch_add(1, Ordering::SeqCst);
        if self.idle_sleepers.load(Ordering::SeqCst) > 0 {
            let _inner = self.lock_inner();
            self.idle_cv.notify_all();
        }
    }

    /// Stops the world: sets the global flag and waits until every other
    /// registered participant is parked. If another thread is already
    /// stopping the world, the caller parks first and re-contends for
    /// leadership once released.
    ///
    /// While waiting for stragglers the leader runs the safepoint watchdog:
    /// past the configured deadline it dumps a diagnostic report and then
    /// panics or resumes waiting per [`WatchdogPolicy`].
    ///
    /// The world resumes when the returned guard is dropped.
    pub fn stop_world(&self, id: ParticipantId) -> RendezvousGuard<'_> {
        let mut inner = self.lock_inner();
        loop {
            if inner.requested {
                // Somebody else is leading a stop: behave as a parker, then
                // go around again — another woken would-be leader may have
                // claimed the next stop while we were rescheduled.
                inner = self.park_while_requested(inner, id, true);
                continue;
            }
            inner.requested = true;
            self.flag.store(true, Ordering::Relaxed);
            let start_ns = tel::now_ns();
            let deadline_ms = self.watchdog_ms.load(Ordering::Relaxed);
            let mut dumped = false;
            // Wait for everyone else to park.
            while inner.parked < inner.participants.saturating_sub(1) {
                if deadline_ms == 0 || dumped {
                    inner = self.wait(&self.cv, inner);
                    continue;
                }
                let waited_ms = (tel::now_ns() - start_ns) / 1_000_000;
                if waited_ms < deadline_ms {
                    let remaining = Duration::from_millis(deadline_ms - waited_ms);
                    inner = Self::wait_timeout(&self.cv, inner, remaining);
                    continue;
                }
                // Deadline expired with stragglers outstanding: dump the
                // diagnostic report instead of hanging silently.
                dumped = true;
                let report = watchdog_report(&inner, id, waited_ms);
                eprintln!("{report}");
                let file = inner
                    .watchdog_dump
                    .clone()
                    .unwrap_or_else(|| Self::DEFAULT_WATCHDOG_DUMP.into());
                let path = file.display();
                if let Err(e) = std::fs::write(&file, &report) {
                    eprintln!("safepoint watchdog: could not write {path}: {e}");
                }
                if self.watchdog_panics.load(Ordering::Relaxed) {
                    // Release the request so parked threads are not stranded
                    // behind a leader that no longer exists.
                    inner.requested = false;
                    self.flag.store(false, Ordering::Relaxed);
                    self.cv.notify_all();
                    drop(inner);
                    panic!(
                        "safepoint watchdog: stop_world exceeded {deadline_ms} ms \
                         (diagnostic report dumped to {path})"
                    );
                }
            }
            let stopped_ns = tel::now_ns() - start_ns;
            let waiting_for = inner.parked as u64;
            drop(inner);
            // Time-to-stop is the latency the paper's users feel: from a
            // thread claiming leadership of a stop to the last mutator parked.
            tel::counter!("safepoint.stops").incr();
            tel::histogram!("safepoint.time_to_stop_ns").record(stopped_ns);
            if tel::enabled() {
                record(TraceEvent {
                    name: "safepoint.stop",
                    cat: "safepoint",
                    phase: TracePhase::Complete,
                    start_ns,
                    dur_ns: stopped_ns,
                    arg_name: "parked",
                    arg: waiting_for,
                });
            }
            return RendezvousGuard {
                rdv: self,
                _state: timeline::enter_state(ProcState::Stopped),
            };
        }
    }

    /// If a helper job is open with an unclaimed slot, claims it and runs
    /// the leader's closure on this thread, then returns to the caller's
    /// park loop. Returns the (re-acquired) guard and whether a slot ran.
    ///
    /// A panic inside the closure still decrements the job's active count —
    /// so the leader never hangs on a dead helper — before propagating with
    /// the lock released; the caller's [`Parked`] guard restores its
    /// parked accounting on the way out.
    fn try_help<'a>(&'a self, mut inner: MutexGuard<'a, Inner>) -> (MutexGuard<'a, Inner>, bool) {
        let (func, slot) = match inner.job.as_mut() {
            Some(job) if !job.closed && job.next_slot < job.max_slots => {
                let slot = job.next_slot;
                job.next_slot += 1;
                job.active += 1;
                (job.func, slot)
            }
            _ => return (inner, false),
        };
        drop(inner);
        // SAFETY: the leader blocks in `run_stopped` until `active` is zero
        // and only then clears the job, so the closure outlives this call.
        let result = {
            let _helper_state = timeline::enter_state(ProcState::GcHelper);
            if tel::enabled() {
                tel::trace::name_helper_thread(&format!("gc-helper#{slot}"));
            }
            let mut sp = tel::span("gc.helper", "gc");
            sp.set_arg("slot", slot as u64);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*func)(slot) }))
        };
        let mut inner = self.lock_inner();
        if let Some(job) = inner.job.as_mut() {
            job.active -= 1;
        }
        self.cv.notify_all();
        if let Err(payload) = result {
            drop(inner);
            std::panic::resume_unwind(payload);
        }
        (inner, true)
    }

    /// Implementation of [`RendezvousGuard::run_stopped`]; the caller must
    /// hold the stopped world.
    fn run_stopped(&self, max_helpers: usize, f: &(dyn Fn(usize) + Sync)) -> usize {
        if max_helpers <= 1 {
            let _helper_state = timeline::enter_state(ProcState::GcHelper);
            f(0);
            return 1;
        }
        let mut inner = self.lock_inner();
        debug_assert!(inner.requested, "run_stopped without a stopped world");
        debug_assert!(inner.job.is_none(), "nested run_stopped");
        // Slots beyond the currently-parked threads can never be claimed;
        // capping keeps per-slot state (copy buffers, deques) tight.
        let max_slots = max_helpers.min(inner.parked + 1);
        // Erase the borrow's lifetime so the job can sit in shared state;
        // soundness argued on `HelperJob::func`.
        let func = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        };
        inner.job = Some(HelperJob {
            func,
            next_slot: 1,
            max_slots,
            active: 0,
            closed: false,
        });
        self.cv.notify_all();
        // Idle waiters count among `parked` too: draft them.
        if self.idle_sleepers() > 0 {
            self.idle_cv.notify_all();
        }
        drop(inner);
        // The leader always runs slot 0 itself. Even if it panics, it must
        // first close the job and drain active helpers — they hold a pointer
        // into this frame.
        let result = {
            let _helper_state = timeline::enter_state(ProcState::GcHelper);
            let mut sp = tel::span("gc.helper", "gc");
            sp.set_arg("slot", 0);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)))
        };
        let mut inner = self.lock_inner();
        let slots = match inner.job.as_mut() {
            Some(job) => {
                job.closed = true;
                job.next_slot
            }
            None => unreachable!("helper job vanished while the leader held the world"),
        };
        while inner.job.as_ref().is_some_and(|j| j.active > 0) {
            inner = self.wait(&self.cv, inner);
        }
        inner.job = None;
        drop(inner);
        match result {
            Ok(()) => slots,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Blocks on the condvar, rebinding the guard (and recovering from
    /// poison, same argument as [`lock_inner`](Self::lock_inner)). Under
    /// chaos, a forced spurious wakeup turns the wait into a short timed
    /// wait — callers' predicate loops absorb the early return.
    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        if fault::spurious_wake() {
            return Self::wait_timeout(cv, guard, Duration::from_micros(50));
        }
        cv.wait(guard)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Timed variant of [`wait`](Self::wait); used by the watchdog and a
    /// deadline's idle wait.
    fn wait_timeout<'a>(
        cv: &Condvar,
        guard: MutexGuard<'a, Inner>,
        dur: Duration,
    ) -> MutexGuard<'a, Inner> {
        cv.wait_timeout(guard, dur)
            .map(|(g, _)| g)
            .unwrap_or_else(|poisoned| poisoned.into_inner().0)
    }
}

/// Composes the watchdog's diagnostic report: the rendezvous state with a
/// per-participant roster, the telemetry registry, and the tail of each
/// thread's trace ring (empty unless tracing is enabled).
fn watchdog_report(inner: &Inner, leader: ParticipantId, waited_ms: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== safepoint watchdog: stop_world waited {waited_ms} ms without quiescing =="
    );
    let _ = writeln!(
        out,
        "requested={} participants={} parked={} (need {})",
        inner.requested,
        inner.participants,
        inner.parked,
        inner.participants.saturating_sub(1)
    );
    let _ = writeln!(out, "roster:");
    for e in &inner.roster {
        let state = if e.id == leader.0 {
            "LEADER"
        } else if e.parked {
            "parked"
        } else {
            "RUNNING (missed safepoint)"
        };
        let _ = writeln!(out, "  #{:<4} {:<40} {}", e.id, e.name, state);
    }
    let _ = writeln!(out, "\n-- telemetry registry --");
    out.push_str(&tel::report::text_report());
    // Per-processor timeline states: which state each processor was last
    // seen in (and how long it has spent in each) makes a stuck stop-world
    // attributable to a specific processor, not just "someone".
    let _ = writeln!(out, "\n-- per-processor timelines --");
    let timelines = tel::timeline::snapshot();
    if timelines.is_empty() {
        let _ = writeln!(out, "  (none — run with MST_TIMELINE=1 to capture)");
    }
    for t in &timelines {
        let mut states = String::new();
        for (i, name) in tel::timeline::STATE_NAMES.iter().enumerate() {
            if t.ns[i] > 0 {
                let _ = write!(states, " {name}={}us", t.ns[i] / 1_000);
            }
        }
        let _ = writeln!(
            out,
            "  p{:<3} sessions={} open={} closed={}{}",
            t.proc, t.sessions, t.opened_ns, t.closed_ns, states
        );
    }
    // Newest GC pause records: a watchdog firing during (or right after) a
    // collection should say what that collection was doing.
    let _ = writeln!(out, "\n-- newest gc pauses (newest last) --");
    let (pauses, dropped) = tel::pauselog::snapshot();
    if pauses.is_empty() {
        let _ = writeln!(out, "  (none recorded)");
    }
    for p in pauses.iter().rev().take(8).rev() {
        let mut phases = String::new();
        for &(name, ns) in &p.phases {
            let _ = write!(phases, " {name}={}us", ns / 1_000);
        }
        let _ = writeln!(
            out,
            "  {} total={}us helpers={} steals={} imbalance={}%{}",
            p.kind,
            p.total_ns / 1_000,
            p.helpers,
            p.steals,
            p.imbalance_pct,
            phases
        );
    }
    if dropped > 0 {
        let _ = writeln!(out, "  ({dropped} older pause records dropped)");
    }
    let _ = writeln!(out, "\n-- recent trace events (newest last) --");
    let mut any = false;
    for (ring, events, dropped) in tel::trace::all_rings() {
        for ev in events.iter().rev().take(16).rev() {
            any = true;
            let _ = writeln!(
                out,
                "  [{} {}] {}/{} start={}ns dur={}ns",
                ring.tid,
                ring.name(),
                ev.cat,
                ev.name,
                ev.start_ns,
                ev.dur_ns
            );
        }
        if dropped > 0 {
            let _ = writeln!(
                out,
                "  [{} {}] ({dropped} older events dropped)",
                ring.tid,
                ring.name()
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (none — run with MST_TRACE=1 to capture spans)");
    }
    out
}

/// RAII registration: created by [`Rendezvous::participant`], unregisters on
/// drop. Because drop runs during panic unwinding, a mutator that dies
/// mid-execution still leaves the roster and cannot wedge a stopper.
#[derive(Debug)]
pub struct Participant<'a> {
    rdv: &'a Rendezvous,
    id: ParticipantId,
}

impl Participant<'_> {
    /// This participant's diagnostic identity.
    pub fn id(&self) -> ParticipantId {
        self.id
    }

    /// Parks this participant; see [`Rendezvous::park`].
    pub fn park(&self) {
        self.rdv.park(self.id);
    }

    /// Parks this participant without helping; see
    /// [`Rendezvous::park_without_helping`].
    pub fn park_without_helping(&self) {
        self.rdv.park_without_helping(self.id);
    }

    /// Stops the world as this participant; see [`Rendezvous::stop_world`].
    pub fn stop_world(&self) -> RendezvousGuard<'_> {
        self.rdv.stop_world(self.id)
    }
}

impl Drop for Participant<'_> {
    fn drop(&mut self) {
        self.rdv.unregister(self.id);
    }
}

/// Exclusive ownership of the stopped world; dropping it resumes everyone.
#[must_use = "the world resumes as soon as the guard is dropped"]
#[derive(Debug)]
pub struct RendezvousGuard<'a> {
    rdv: &'a Rendezvous,
    /// Accounts the leader's time as [`ProcState::Stopped`] for as long as
    /// it holds the world; restored when the guard drops.
    _state: timeline::StateGuard,
}

impl RendezvousGuard<'_> {
    /// Runs `f` on this thread (slot 0) and on up to `max_helpers - 1`
    /// currently-parked participants (slots 1, 2, …), donating the stopped
    /// processors to the leader's work — the parallel-scavenge protocol.
    ///
    /// Helpers claim slots opportunistically, so any subset of slots
    /// `1..max_helpers` may run (a parker that wakes late finds the job
    /// closed); the closure must distribute work dynamically rather than
    /// assume every slot executes. Slot indices are distinct, making them
    /// safe keys for per-helper buffers and statistics. Returns once every
    /// claimed slot has finished, with the number of slots that ran.
    pub fn run_stopped(&self, max_helpers: usize, f: &(dyn Fn(usize) + Sync)) -> usize {
        self.rdv.run_stopped(max_helpers, f)
    }
}

impl Drop for RendezvousGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.rdv.lock_inner();
        inner.requested = false;
        self.rdv.flag.store(false, Ordering::Relaxed);
        self.rdv.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn sole_participant_stops_immediately() {
        let rdv = Rendezvous::new();
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        assert!(rdv.poll());
        drop(guard);
        assert!(!rdv.poll());
        rdv.unregister(me);
        assert_eq!(rdv.participants(), 0);
    }

    #[test]
    fn park_returns_immediately_when_no_request() {
        let rdv = Rendezvous::new();
        let me = rdv.register();
        rdv.park(me); // must not block
        rdv.unregister(me);
    }

    #[test]
    fn world_stops_are_mutually_exclusive_with_mutation() {
        let rdv = Arc::new(Rendezvous::new());
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        // Mutators increment unless stopped; the stopper checks that the
        // value does not change while it holds the world.
        for _ in 0..3 {
            let rdv = Arc::clone(&rdv);
            let value = Arc::clone(&value);
            let me = rdv.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50_000 {
                    if rdv.poll() {
                        rdv.park(me);
                    }
                    value.fetch_add(1, Ordering::Relaxed);
                }
                rdv.unregister(me);
            }));
        }
        let me = rdv.register();
        for _ in 0..20 {
            let guard = rdv.stop_world(me);
            let before = value.load(Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(200));
            let after = value.load(Ordering::Relaxed);
            assert_eq!(
                before, after,
                "a mutator ran while the world was supposedly stopped"
            );
            drop(guard);
            std::thread::yield_now();
        }
        rdv.unregister(me);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn competing_stoppers_serialize() {
        let rdv = Arc::new(Rendezvous::new());
        let in_gc = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rdv = Arc::clone(&rdv);
            let in_gc = Arc::clone(&in_gc);
            let me = rdv.register();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    if rdv.poll() {
                        rdv.park(me);
                    }
                    let guard = rdv.stop_world(me);
                    let n = in_gc.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(n, 0, "two threads collected at once");
                    in_gc.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                }
                rdv.unregister(me);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn parked_counter_stays_in_sync_across_cycles() {
        // Threads park, resume, and immediately re-park across many
        // consecutive stops. While a guard is held every other participant
        // is parked, so `parked` must equal exactly participants - 1; after
        // all threads quiesce it must return to 0. Any drift (double
        // increment on re-park, missed decrement on resume) shows up as a
        // mismatch or a hang.
        let rdv = Arc::new(Rendezvous::new());
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let rdv = Arc::clone(&rdv);
            let done = Arc::clone(&done);
            let me = rdv.register();
            handles.push(std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if rdv.poll() {
                        // Re-park immediately: no mutator work between
                        // cycles, maximizing resume/re-park races.
                        rdv.park(me);
                    }
                    std::hint::spin_loop();
                }
                rdv.unregister(me);
            }));
        }
        let me = rdv.register();
        for cycle in 0..200 {
            let guard = rdv.stop_world(me);
            let participants = rdv.participants();
            assert_eq!(
                rdv.parked(),
                participants - 1,
                "cycle {cycle}: parked desynchronized from parked threads"
            );
            drop(guard);
        }
        done.store(true, Ordering::Relaxed);
        rdv.unregister(me);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rdv.parked(), 0, "parked nonzero after all threads quiesced");
        assert_eq!(rdv.participants(), 0);
    }

    #[test]
    fn stops_are_published_to_the_registry() {
        let rdv = Rendezvous::new();
        let me = rdv.register();
        drop(rdv.stop_world(me));
        rdv.unregister(me);
        let stops = tel::registry::counters()
            .into_iter()
            .find(|(k, _)| k == "safepoint.stops")
            .map(|(_, v)| v)
            .unwrap_or(0);
        assert!(stops >= 1);
        let hists = tel::registry::histograms();
        let tts = hists
            .iter()
            .find(|(k, _)| k == "safepoint.time_to_stop_ns")
            .expect("time-to-stop histogram registered");
        assert!(tts.1.count >= 1);
    }

    #[test]
    fn unregister_unblocks_a_waiting_stopper() {
        let rdv = Arc::new(Rendezvous::new());
        let me = rdv.register(); // the stopper
        let other = rdv.register(); // the thread that will exit instead of parking
        let rdv2 = Arc::clone(&rdv);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            rdv2.unregister(other);
        });
        let guard = rdv.stop_world(me); // must not hang
        drop(guard);
        t.join().unwrap();

        // Same scenario, but the straggler *panics* instead of politely
        // unregistering: the Participant guard must unwind it off the
        // roster so the stopper still completes.
        let rdv2 = Arc::clone(&rdv);
        let t = std::thread::spawn(move || {
            let _me = rdv2.participant();
            std::thread::sleep(std::time::Duration::from_millis(30));
            panic!("injected mutator death");
        });
        let guard = rdv.stop_world(me); // must not hang
        drop(guard);
        assert!(t.join().is_err(), "the mutator was supposed to panic");
        rdv.unregister(me);
        assert_eq!(rdv.participants(), 0);
    }

    #[test]
    fn watchdog_dumps_and_panics_on_a_missed_safepoint() {
        let dir = std::env::temp_dir().join(format!("mst-watchdog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("dump.txt");

        let rdv = Arc::new(Rendezvous::new());
        rdv.set_watchdog_dump(&dump);
        rdv.set_watchdog(50);
        rdv.set_watchdog_policy(WatchdogPolicy::Panic);
        let me = rdv.register();
        // A registered participant that never reaches a safepoint.
        let straggler = rdv.register();
        let rdv2 = Arc::clone(&rdv);
        let leader = std::thread::spawn(move || {
            let _guard = rdv2.stop_world(me);
        });
        let err = leader.join().expect_err("watchdog should panic the leader");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("safepoint watchdog"),
            "unexpected panic: {msg}"
        );
        let report = std::fs::read_to_string(&dump).expect("dump file written");
        assert!(report.contains("missed safepoint"), "report: {report}");
        assert!(report.contains("roster"), "report: {report}");
        // The dump carries the attribution data added for stuck-stop
        // forensics: per-processor timelines and the GC pause-log tail.
        assert!(
            report.contains("per-processor timelines"),
            "report: {report}"
        );
        assert!(report.contains("newest gc pauses"), "report: {report}");
        // Each appears once: the registry report adds no second copy.
        assert!(
            !report.contains("per-processor utilization")
                && !report.contains("gc pause attribution"),
            "report: {report}"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The panic path released the request; after retiring the dead
        // leader's registration the world can be stopped again.
        assert!(!rdv.poll());
        rdv.unregister(me);
        let guard = rdv.stop_world(straggler);
        drop(guard);
        rdv.unregister(straggler);
    }

    /// Spawns `n` mutator threads that poll/park until `done`, returning
    /// their handles. Each registers before the spawn so a stopper never
    /// races the registration.
    fn spawn_parkers(
        rdv: &Arc<Rendezvous>,
        done: &Arc<AtomicBool>,
        n: usize,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|_| {
                let rdv = Arc::clone(rdv);
                let done = Arc::clone(done);
                let me = rdv.register();
                std::thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        if rdv.poll() {
                            rdv.park(me);
                        }
                        std::hint::spin_loop();
                    }
                    rdv.unregister(me);
                })
            })
            .collect()
    }

    #[test]
    fn parked_threads_run_the_stopped_closure() {
        let rdv = Arc::new(Rendezvous::new());
        let done = Arc::new(AtomicBool::new(false));
        let handles = spawn_parkers(&rdv, &done, 3);
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        // All 3 parkers are parked; ask for 4 slots and have the closure
        // block until all 4 have entered, so every slot must be claimed.
        let entered = AtomicU64::new(0);
        let slot_mask = AtomicU64::new(0);
        let slots = guard.run_stopped(4, &|slot| {
            let prev = slot_mask.fetch_or(1 << slot, Ordering::SeqCst);
            assert_eq!(prev & (1 << slot), 0, "slot {slot} claimed twice");
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < 4 {
                std::hint::spin_loop();
            }
        });
        assert_eq!(slots, 4);
        assert_eq!(slot_mask.load(Ordering::SeqCst), 0b1111);
        // The helpers went back to parking: the world is still stopped and
        // the parked count is intact.
        assert_eq!(rdv.parked(), 3);
        // A second job in the same pause works too.
        let ran = AtomicU64::new(0);
        guard.run_stopped(2, &|_slot| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.load(Ordering::SeqCst) >= 1);
        drop(guard);
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        rdv.unregister(me);
        assert_eq!(rdv.participants(), 0);
    }

    #[test]
    fn run_stopped_without_helpers_runs_the_leader_only() {
        let rdv = Rendezvous::new();
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        let runs = AtomicU64::new(0);
        // max_helpers=1 short-circuits; higher counts degrade to the leader
        // alone when nobody is parked.
        assert_eq!(
            guard.run_stopped(1, &|slot| {
                assert_eq!(slot, 0);
                runs.fetch_add(1, Ordering::SeqCst);
            }),
            1
        );
        assert_eq!(
            guard.run_stopped(8, &|slot| {
                assert_eq!(slot, 0);
                runs.fetch_add(1, Ordering::SeqCst);
            }),
            1
        );
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        drop(guard);
        rdv.unregister(me);
    }

    #[test]
    fn helper_panic_does_not_wedge_the_leader() {
        let rdv = Arc::new(Rendezvous::new());
        let rdv2 = Arc::clone(&rdv);
        let helper_id = rdv.register();
        let helper = std::thread::spawn(move || {
            loop {
                if rdv2.poll() {
                    rdv2.park(helper_id); // unwinds out of here on the injected panic
                }
                std::hint::spin_loop();
            }
        });
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        let entered = AtomicU64::new(0);
        let slots = guard.run_stopped(2, &|slot| {
            entered.fetch_add(1, Ordering::SeqCst);
            if slot != 0 {
                panic!("injected helper death");
            }
            // Hold slot 0 until the helper has entered so the panic always
            // lands while the leader is still in run_stopped.
            while entered.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
        });
        assert_eq!(slots, 2, "both slots were claimed");
        drop(guard);
        assert!(
            helper.join().is_err(),
            "the helper was supposed to die of the injected panic"
        );
        // The dead helper's parked/roster accounting was restored on the
        // unwind path... but its registration leaked by design (no RAII
        // guard here); retire it and stop again to prove the world is sane.
        rdv.unregister(helper_id);
        let guard = rdv.stop_world(me);
        drop(guard);
        rdv.unregister(me);
        assert_eq!(rdv.participants(), 0);
        assert_eq!(rdv.parked(), 0);
    }

    #[test]
    fn helpers_claim_under_spurious_wakeups() {
        // Chaos-forced spurious wakeups turn condvar waits into short timed
        // waits; the claim loop must still hand out every slot exactly once.
        fault::install(fault::ChaosConfig {
            seed: 0xC0FFEE,
            rate: 0.5,
            sites: fault::FaultSite::SpuriousWake.bit(),
        });
        let rdv = Arc::new(Rendezvous::new());
        let done = Arc::new(AtomicBool::new(false));
        let handles = spawn_parkers(&rdv, &done, 2);
        let me = rdv.register();
        for _ in 0..20 {
            let guard = rdv.stop_world(me);
            let entered = AtomicU64::new(0);
            let slots = guard.run_stopped(3, &|_slot| {
                entered.fetch_add(1, Ordering::SeqCst);
                while entered.load(Ordering::SeqCst) < 3 {
                    std::hint::spin_loop();
                }
            });
            assert_eq!(slots, 3);
            assert_eq!(entered.load(Ordering::SeqCst), 3);
            drop(guard);
        }
        fault::disable();
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        rdv.unregister(me);
    }

    #[test]
    fn a_participant_parked_without_helping_never_runs_the_job() {
        // The leader's side is built by hand: a requested stop with an open
        // job that has a free slot. `Parked::enter` and the park loop's
        // first claim attempt run in one critical section, so once the
        // parker is counted under the lock, a helping parker has already
        // claimed the slot and a non-helping one never will.
        static RAN: AtomicU64 = AtomicU64::new(0);
        fn count(_slot: usize) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        for help in [true, false] {
            let rdv = Arc::new(Rendezvous::new());
            let other = rdv.register();
            {
                let mut inner = rdv.lock_inner();
                inner.requested = true;
                rdv.flag.store(true, Ordering::Relaxed);
                inner.job = Some(HelperJob {
                    func: &count,
                    next_slot: 1,
                    max_slots: 2,
                    active: 0,
                    closed: false,
                });
            }
            let rdv2 = Arc::clone(&rdv);
            let parker = std::thread::spawn(move || {
                if help {
                    rdv2.park(other);
                } else {
                    rdv2.park_without_helping(other);
                }
            });
            let claimed = loop {
                let inner = rdv.lock_inner();
                let job = inner.job.as_ref().expect("job stays open");
                if inner.parked == 1 && job.active == 0 {
                    break job.next_slot - 1;
                }
                drop(inner);
                std::thread::yield_now();
            };
            assert_eq!(claimed, usize::from(help), "help = {help}");
            {
                let mut inner = rdv.lock_inner();
                inner.job = None;
                inner.requested = false;
                rdv.flag.store(false, Ordering::Relaxed);
                rdv.cv.notify_all();
            }
            parker.join().unwrap();
            rdv.unregister(other);
            assert_eq!(rdv.parked(), 0);
        }
        assert_eq!(
            RAN.load(Ordering::SeqCst),
            1,
            "only the helping parker ran the job"
        );
    }

    /// Spawns a thread that idle-waits once as a fresh participant from the
    /// current generation, and waits until it sleeps.
    fn spawn_idle_waiter(rdv: &Arc<Rendezvous>) -> std::thread::JoinHandle<()> {
        let id = rdv.register();
        let seen = rdv.idle_generation();
        let rdv2 = Arc::clone(rdv);
        let h = std::thread::spawn(move || {
            let _unregister = Participant { rdv: &rdv2, id };
            rdv2.idle_wait(id, seen, None);
        });
        while rdv.idle_sleepers() == 0 {
            std::thread::yield_now();
        }
        h
    }

    #[test]
    fn idle_wait_returns_at_once_or_on_wake_idle() {
        let rdv = Arc::new(Rendezvous::new());
        let me = rdv.register();
        let seen = rdv.idle_generation();
        rdv.wake_idle();
        rdv.idle_wait(me, seen, None); // the generation already moved
        let waiter = spawn_idle_waiter(&rdv);
        assert_eq!(rdv.parked(), 1, "an idle waiter counts as parked");
        rdv.wake_idle();
        waiter.join().unwrap();
        assert_eq!((rdv.parked(), rdv.idle_sleepers()), (0, 0));
        rdv.unregister(me);
    }

    #[test]
    fn idle_wait_returns_at_its_deadline_without_a_wake() {
        let rdv = Rendezvous::new();
        let me = rdv.register();
        let seen = rdv.idle_generation();
        let start = std::time::Instant::now();
        let budget = Duration::from_millis(20);
        rdv.idle_wait(me, seen, Some(tel::now_ns() + budget.as_nanos() as u64));
        let waited = start.elapsed();
        assert!(waited >= budget, "returned after {waited:?}");
        assert_eq!(rdv.idle_generation(), seen, "nobody woke it");
        assert_eq!((rdv.parked(), rdv.idle_sleepers()), (0, 0));
        rdv.unregister(me);
    }

    #[test]
    fn an_idle_waiter_is_stopped_without_waking_and_drafted_as_a_helper() {
        let rdv = Arc::new(Rendezvous::new());
        let waiter = spawn_idle_waiter(&rdv);
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        // Woken inside the stop, the waiter stays parked: it must still be
        // there to claim slot 1, which slot 0 waits for.
        rdv.wake_idle();
        let entered = AtomicU64::new(0);
        let slots = guard.run_stopped(2, &|_slot| {
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
        });
        assert_eq!(slots, 2);
        assert_eq!(rdv.parked(), 1, "the helper went back to its idle wait");
        drop(guard);
        waiter.join().unwrap(); // the wake inside the stop releases it now
        rdv.unregister(me);
        assert_eq!((rdv.parked(), rdv.idle_sleepers()), (0, 0));
    }

    #[test]
    fn a_helper_slot_panicking_in_an_idle_wait_restores_its_accounting() {
        let rdv = Arc::new(Rendezvous::new());
        let waiter = spawn_idle_waiter(&rdv);
        let me = rdv.register();
        let guard = rdv.stop_world(me);
        let entered = AtomicU64::new(0);
        let slots = guard.run_stopped(2, &|slot| {
            entered.fetch_add(1, Ordering::SeqCst);
            if slot != 0 {
                panic!("injected helper death");
            }
            while entered.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
        });
        assert_eq!(slots, 2);
        assert!(waiter.join().is_err(), "the idle helper died of the panic");
        // Neither its park nor its sleep outlives it, and its participant
        // guard left the roster: the next stop needs nobody.
        assert_eq!((rdv.parked(), rdv.idle_sleepers()), (0, 0));
        drop(guard);
        assert_eq!(rdv.participants(), 1);
        drop(rdv.stop_world(me));
        rdv.unregister(me);
        assert_eq!(rdv.parked(), 0);
    }
}
