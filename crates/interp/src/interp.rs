//! The replicated bytecode interpreter.
//!
//! "In the case of an interpreter, we obtain parallelism by replicating the
//! interpreter itself" (paper §3.2). One [`Interpreter`] runs per virtual
//! processor, each an OS thread sharing the [`Vm`]. An interpreter claims a
//! ready Smalltalk Process from the single scheduler queue, executes its
//! bytecodes, and reaches a *safepoint* every few bytecodes (and at every
//! send) where it polls the stop-the-world flag, the shutdown flag, and the
//! preemption hint.
//!
//! Garbage collection protocol: any interpreter whose allocation fails
//! flushes its registers into the heap (contexts carry pc/sp; the running
//! Process carries the context), stops the world, scavenges, and resumes.
//! All interpreter-held oops are re-derived from the Process root after any
//! collection.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mst_objmem::layout::{block_ctx, class as cls, ctx_size, message, method_ctx, process};
use mst_objmem::{AllocToken, MethodHeader, ObjFormat, ObjectMemory, Oop, RootHandle, So};
use mst_telemetry as tel;

use crate::cache::{CacheEntry, LocalCache};
use crate::contexts::{reinit_block_ctx, reinit_method_ctx, CtxKind, FreeLists};
use crate::dicts::method_dict_at;
use crate::scheduler::{self as sched, State, Subject};
use crate::vm::{CachePolicy, FreeListPolicy, Vm};

/// The most classes a method lookup visits: far deeper than any real
/// hierarchy, so only a superclass cycle reaches it.
const MAX_SUPERCLASS_HOPS: usize = 1 << 10;

/// Why `run` returned: how the watched Process ended, or shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The watched Process returned; its value is in the Process's
    /// `result` slot ([`mst_objmem::layout::process::RESULT`]).
    Returned,
    /// The watched Process failed (`error:`, `outOfMemory`); the report, as
    /// `vm.error_log` holds it.
    Failed(String),
    /// The watched Process outlived its deadline and was terminated.
    DeadlineExpired,
    /// The watched Process was terminated without a value.
    Terminated,
    /// The VM was shut down.
    Shutdown,
}

/// Proof that the loaded Process's registers are in the heap, so a
/// [`transition`](sched::transition) may publish it to other interpreters.
/// Only [`Interpreter::flush_registers`] makes one.
pub struct Flushed(Oop);

impl Flushed {
    /// The Process whose registers were flushed.
    pub(crate) fn process(&self) -> Oop {
        self.0
    }

    /// A witness for a Process that has no registers to flush.
    #[cfg(test)]
    pub(crate) fn assumed(p: Oop) -> Flushed {
        Flushed(p)
    }
}

/// Result of executing one bytecode step (or a primitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Continue,
    /// Allocation failed; restart the current bytecode after a scavenge.
    NeedGc,
    /// The Process left this interpreter (it blocked, was suspended,
    /// yielded or ended); its transition is made.
    Switch,
}

/// Outcome of a primitive attempt.
pub(crate) enum PrimOutcome {
    /// Send completed; result on the stack.
    Done,
    /// Primitive failed; fall into the method body.
    Fail,
    /// Allocation failed.
    NeedGc,
    /// The send completed *and* the Process left this interpreter.
    Switch,
}

/// One interpreter (one virtual processor's worth of execution).
pub struct Interpreter {
    vm: Arc<Vm>,
    /// Interpreter id (diagnostics).
    pub id: u64,
    token: AllocToken,
    cache: LocalCache,
    /// Replicated free-context lists (paper §3.2): this interpreter's own,
    /// which no other thread touches, so no lock.
    free: FreeLists,
    special_sels: [Oop; 32],
    sels_epoch: u64,
    /// Rooted current process.
    proc_root: RootHandle,
    /// Process whose termination ends this `run` call (see [`run`]).
    ///
    /// [`run`]: Interpreter::run
    watched: Option<RootHandle>,
    /// How the watched doit ended, as far as this interpreter saw it: its
    /// return, or the failure it raised (the same message as its
    /// `vm.error_log` entry, attributed to the Process rather than inferred
    /// from the log growing while it ran). A doit that ended with neither
    /// was terminated.
    doit_end: Option<RunOutcome>,
    /// Rendezvous identity while inside [`run`] (None outside it).
    ///
    /// [`run`]: Interpreter::run
    rdv_id: Option<mst_vkernel::ParticipantId>,
    /// Consecutive `NeedGc` steps with no completed bytecode in between;
    /// used to turn a futile scavenge loop into an out-of-memory event.
    gc_streak: u32,
    /// Whether the `thread.panic` chaos site may kill this interpreter at a
    /// safepoint. Only the processor supervisor sets it (workers only);
    /// the main interpreter drives doits and must never be killed.
    panic_injectable: bool,
    // --- registers of the active context ---
    ctx: Oop,
    receiver: Oop,
    method: Oop,
    ptr_slots: usize,
    is_block: bool,
    home: Oop,
    pc: usize,
    sp: usize,
    priority: i64,
    counter: u32,
    // --- batched counters ---
    n_bytecodes: u64,
    n_sends: u64,
    n_hits: u64,
    n_misses: u64,
    n_prims: u64,
    n_recycled: u64,
    n_ctx_alloc: u64,
    n_switches: u64,
}

impl Interpreter {
    /// Creates an interpreter bound to the VM.
    pub fn new(vm: Arc<Vm>) -> Interpreter {
        let id = vm.next_interp_id.fetch_add(1, Ordering::Relaxed);
        let token = vm.mem.new_token();
        let epoch = vm.mem.gc_epoch();
        let proc_root = vm.mem.new_root(Oop::ZERO);
        let mut it = Interpreter {
            vm,
            id,
            token,
            cache: LocalCache::new(epoch),
            free: FreeLists::default(),
            special_sels: [Oop::ZERO; 32],
            sels_epoch: u64::MAX,
            proc_root,
            watched: None,
            doit_end: None,
            rdv_id: None,
            gc_streak: 0,
            panic_injectable: false,
            ctx: Oop::ZERO,
            receiver: Oop::ZERO,
            method: Oop::ZERO,
            ptr_slots: 0,
            is_block: false,
            home: Oop::ZERO,
            pc: 0,
            sp: 0,
            priority: 0,
            counter: 0,
            n_bytecodes: 0,
            n_sends: 0,
            n_hits: 0,
            n_misses: 0,
            n_prims: 0,
            n_recycled: 0,
            n_ctx_alloc: 0,
            n_switches: 0,
        };
        it.refresh_special_selectors();
        it
    }

    /// The object memory, with a lifetime detached from `&self` so hot
    /// paths can read registers and mutate `self` while holding it.
    ///
    /// SAFETY: the `Arc<Vm>` in `self` keeps the memory alive for the
    /// interpreter's entire lifetime; callers never store the reference.
    #[inline]
    pub(crate) fn mem<'a>(&self) -> &'a ObjectMemory {
        unsafe { &(*Arc::as_ptr(&self.vm)).mem }
    }

    /// The rendezvous, with a lifetime detached from `&self` so [`run`] can
    /// hold a [`mst_vkernel::Participant`] guard across `&mut self` calls.
    ///
    /// SAFETY: as for [`Interpreter::mem`] — the `Arc<Vm>` keeps the
    /// rendezvous alive for the interpreter's entire lifetime.
    ///
    /// [`run`]: Interpreter::run
    #[inline]
    fn rdv<'a>(&self) -> &'a mst_vkernel::Rendezvous {
        unsafe { &(*Arc::as_ptr(&self.vm)).rendezvous }
    }

    /// This interpreter's rendezvous id. Only valid inside [`run`].
    ///
    /// [`run`]: Interpreter::run
    #[inline]
    fn rdv_id(&self) -> mst_vkernel::ParticipantId {
        self.rdv_id
            .expect("rendezvous use outside Interpreter::run")
    }

    /// The shared VM.
    #[inline]
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    #[inline]
    pub(crate) fn token(&self) -> &AllocToken {
        &self.token
    }

    #[inline]
    pub(crate) fn sp(&self) -> usize {
        self.sp
    }

    #[inline]
    pub(crate) fn set_sp(&mut self, sp: usize) {
        self.sp = sp;
    }

    #[inline]
    pub(crate) fn poke_top(&mut self, v: Oop) {
        let sp = self.sp;
        self.stack_at_put(sp, v);
    }

    #[inline]
    pub(crate) fn current_process(&self) -> Oop {
        self.proc_root.get()
    }

    #[inline]
    pub(crate) fn priority(&self) -> i64 {
        self.priority
    }

    /// Primitive 99: a deliberate scavenge. The send has already completed,
    /// so registers are flushed, the world stopped and everything reloaded.
    pub(crate) fn explicit_scavenge(&mut self) {
        self.flush_registers();
        if let Err(e) = self.scavenge_world() {
            // The send has already completed, so there is no bytecode to
            // restart: report, raise the low-space signal, and carry on —
            // the image decides how to shed load.
            self.report_error(format!("outOfMemory: {e}"));
            sched::signal_low_space(&self.vm);
        }
    }

    /// Method installation invalidates every cache in the system.
    pub(crate) fn invalidate_caches_after_install(&mut self) {
        self.vm.bump_cache_epoch();
        self.vm.global_cache.clear(self.vm.cache_epoch());
        self.cache.clear(self.vm.cache_epoch());
    }

    /// Runs a send on behalf of a primitive (perform:). See the caveat on
    /// restartability at the call sites.
    pub(crate) fn send_for_prim(&mut self, pc0: usize, selector: Oop, nargs: usize) -> PrimOutcome {
        match self.send(pc0, selector, nargs, false) {
            Step::Continue => PrimOutcome::Done,
            Step::NeedGc => PrimOutcome::NeedGc,
            Step::Switch => PrimOutcome::Switch,
        }
    }

    fn refresh_special_selectors(&mut self) {
        let epoch = self.mem().gc_epoch();
        for (i, (sel, _)) in mst_compiler::bytecode::SPECIAL_SELECTORS.iter().enumerate() {
            // All of these exist from bootstrap, so a refresh is a pure
            // table lookup; `try_intern` only allocates (and can only run
            // out of memory) for a symbol nobody has interned yet. Keep
            // the stale oop in that case — it is still a valid symbol.
            if let Ok(sym) = self.mem().try_intern(sel) {
                self.special_sels[i] = sym;
            }
        }
        self.sels_epoch = epoch;
    }

    // ------------------------------------------------------------------
    // Running processes
    // ------------------------------------------------------------------

    /// Rounds of the `delay` ladder (16 spin hints, then yields) an idle
    /// interpreter polls for work before it blocks in the idle wait.
    const IDLE_SPIN_ROUNDS: u32 = 64;

    /// Scheduler loop: claim ready Processes and run them until shutdown —
    /// or, when `watched` is given, until that process ends. Returns how it
    /// ended; a watched process's value lands in the Process's `result`
    /// slot.
    ///
    /// The watched process is passed as a [`RootHandle`] so the reference
    /// stays valid across collections that happen before this interpreter
    /// joins the rendezvous.
    pub fn run(&mut self, watched: Option<RootHandle>) -> RunOutcome {
        self.watched = watched;
        self.doit_end = None;
        // RAII registration: if this thread panics mid-run, the guard's
        // Drop unregisters us so surviving interpreters can still reach a
        // rendezvous instead of waiting forever on a dead participant.
        let participant = self.rdv().participant();
        self.rdv_id = Some(participant.id());
        let mut idle_rounds = 0;
        let outcome = loop {
            // Read before looking for work, so a wake that lands after the
            // look releases the idle wait below.
            let seen = self.rdv().idle_generation();
            let watched = self.watched.as_ref().map(RootHandle::get);
            if let Some(w) = watched {
                // The watched doit ran only here (workers skip it), so it
                // ended here — unless a Process elsewhere terminated it.
                if self.ended(w) {
                    break self.doit_end.take().unwrap_or(RunOutcome::Terminated);
                }
                // Its deadline is enforced here, wherever it stands: a doit
                // running past it comes back from its safepoint, and one that
                // blocked or suspended itself reaches no safepoint. Like
                // `outOfMemory`, the heap stays audit-clean.
                if self.deadline_passed()
                    && sched::transition(&self.vm, w, State::Terminated).is_some()
                {
                    self.vm.error_log.lock().push(
                        "deadlineExpired: request budget exhausted; process terminated".into(),
                    );
                    break RunOutcome::DeadlineExpired;
                }
            }
            if !self.vm.running() {
                break RunOutcome::Shutdown;
            }
            match sched::transition(&self.vm, Subject::Claimable(watched), State::Running) {
                Some(p) => {
                    idle_rounds = 0;
                    tel::timeline::transition(tel::ProcState::Mutator);
                    self.n_switches += 1;
                    self.load_process(p);
                    self.execute();
                    // Drop the claim reference: the process may be claimed
                    // by another interpreter the moment it left this one,
                    // and a stale root here would make panic recovery
                    // release it out from under that interpreter (double
                    // execution).
                    self.proc_root.set(Oop::ZERO);
                }
                None => {
                    // Idle: no claimable process. Spin briefly (new work
                    // often follows at once), polling the GC flag so a
                    // stop never waits for us; then block, until the
                    // watched doit's deadline at most. The idle wait
                    // counts as parked, so it cannot delay a stop either.
                    tel::timeline::transition(tel::ProcState::Idle);
                    if idle_rounds < Self::IDLE_SPIN_ROUNDS {
                        self.park_if_requested();
                        mst_vkernel::delay(idle_rounds);
                        idle_rounds += 1;
                    } else {
                        // A stop may size a scavenge while we sleep.
                        self.mem().retire_token(&self.token);
                        let deadline = watched.map(|_| self.vm.deadline_ns()).filter(|&d| d != 0);
                        self.rdv().idle_wait(self.rdv_id(), seen, deadline);
                    }
                }
            }
        };
        tel::timeline::transition(tel::ProcState::Idle);
        self.watched = None;
        self.flush_counters();
        self.rdv_id = None;
        drop(participant);
        outcome
    }

    /// Allows the `thread.panic` chaos site to kill this interpreter at a
    /// safepoint. Set only by the processor supervisor on worker
    /// interpreters; the main interpreter must never be injectable.
    pub fn set_panic_injectable(&mut self, on: bool) {
        self.panic_injectable = on;
    }

    /// Puts the interpreter back into a runnable state after its `run`
    /// unwound from a panic. Called by the processor supervisor with the
    /// thread already *outside* the rendezvous (the participant guard
    /// unregistered during the unwind).
    ///
    /// Re-enters the heap as an ordinary mutator — registered, parking
    /// first if a stop is in flight. That is enough to exclude a
    /// concurrent scavenge for the few fetches below, and unlike taking
    /// a full `stop_world` it cannot starve behind the steady GC traffic
    /// of the surviving interpreters (the dead processor's Process would
    /// stay claimed, and so unrunnable, for as long as the recovery
    /// waits). Then:
    /// * releases the claimed Process, if any, back to ready-but-unclaimed
    ///   so a surviving interpreter picks it up — the panic injection site
    ///   flushed its registers, so it resumes at a bytecode boundary;
    /// * flushes the batched telemetry counters so no executed work is
    ///   lost from the Table 2 accounting.
    pub fn recover_after_panic(&mut self) {
        self.watched = None;
        self.rdv_id = None;
        let rdv = self.rdv();
        let me = rdv.participant();
        // A scavenge may be mid-flight from before we registered: park
        // until it releases, *before* touching the heap. After this, any
        // new stopper must wait for us to unregister (`me` drops below).
        // Without helping: a helper slot that panicked here would escape
        // the supervisor, whose catch this recovery runs outside of.
        if rdv.poll() {
            me.park_without_helping();
        }
        let p = self.proc_root.get();
        if p != Oop::ZERO && !self.ended(p) {
            // The panic site flushed the registers (a safepoint flushes on
            // entry), so the heap says where the Process stands; flushing
            // what the heap says proves it without writing anything new.
            self.reload_registers();
            self.release();
            self.proc_root.set(Oop::ZERO);
        }
        drop(me);
        self.flush_counters();
        self.gc_streak = 0;
    }

    /// Whether `p` has terminated (its suspended context is nil).
    fn ended(&self, p: Oop) -> bool {
        let mem = self.mem();
        mem.fetch(p, process::SUSPENDED_CONTEXT) == mem.nil()
    }

    fn load_process(&mut self, p: Oop) {
        self.proc_root.set(p);
        self.priority = self.mem().fetch(p, process::PRIORITY).as_small_int();
        let ctx = self.mem().fetch(p, process::SUSPENDED_CONTEXT);
        self.load_ctx(ctx);
        self.counter = self.vm.options.quantum;
        self.gc_streak = 0;
    }

    /// Ends the loaded Process with `result` in its result slot: its bottom
    /// context returned, or it failed or ran out of memory.
    pub(crate) fn end_process(&mut self, result: Oop) {
        let p = self.proc_root.get();
        self.mem().store(p, process::RESULT, result);
        let flushed = self.flush_registers();
        sched::transition(&self.vm, flushed, State::Terminated);
    }

    // ------------------------------------------------------------------
    // Register file <-> heap
    // ------------------------------------------------------------------

    fn load_ctx(&mut self, ctx: Oop) {
        let mem = self.mem();
        self.ctx = ctx;
        self.is_block = mem.class_of(ctx) == mem.specials().get(So::ClassBlockContext);
        self.home = if self.is_block {
            mem.fetch(ctx, block_ctx::HOME)
        } else {
            ctx
        };
        self.receiver = mem.fetch(self.home, method_ctx::RECEIVER);
        self.method = mem.fetch(self.home, method_ctx::METHOD);
        self.ptr_slots = MethodHeader::decode(mem.fetch(self.method, 0)).pointer_slots();
        self.pc = mem.fetch(ctx, method_ctx::PC).as_small_int() as usize;
        self.sp = mem.fetch(ctx, method_ctx::STACKP).as_small_int() as usize;
    }

    /// Writes the registers back into the active context and the context
    /// into the Process: the heap then says where the Process stands, as a
    /// collector or another interpreter must see it.
    pub(crate) fn flush_registers(&mut self) -> Flushed {
        let mem = self.mem();
        mem.store_nocheck(
            self.ctx,
            method_ctx::PC,
            Oop::from_small_int(self.pc as i64),
        );
        mem.store_nocheck(
            self.ctx,
            method_ctx::STACKP,
            Oop::from_small_int(self.sp as i64),
        );
        let p = self.proc_root.get();
        mem.store(p, process::SUSPENDED_CONTEXT, self.ctx);
        Flushed(p)
    }

    fn reload_registers(&mut self) {
        let p = self.proc_root.get();
        let ctx = self.mem().fetch(p, process::SUSPENDED_CONTEXT);
        self.load_ctx(ctx);
    }

    fn flush_counters(&mut self) {
        let c = &self.vm.counters;
        c.bytecodes.add(self.n_bytecodes);
        c.sends.add(self.n_sends);
        c.cache_hits.add(self.n_hits);
        c.cache_misses.add(self.n_misses);
        c.primitives.add(self.n_prims);
        c.contexts_recycled.add(self.n_recycled);
        c.contexts_allocated.add(self.n_ctx_alloc);
        c.process_switches.add(self.n_switches);
        self.n_bytecodes = 0;
        self.n_sends = 0;
        self.n_hits = 0;
        self.n_misses = 0;
        self.n_prims = 0;
        self.n_recycled = 0;
        self.n_ctx_alloc = 0;
        self.n_switches = 0;
    }

    // ------------------------------------------------------------------
    // Stack access
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn push(&mut self, v: Oop) {
        self.sp += 1;
        self.mem().store(self.ctx, self.sp, v);
    }

    #[inline]
    fn pop(&mut self) -> Oop {
        let v = self.mem().fetch(self.ctx, self.sp);
        self.sp -= 1;
        v
    }

    #[inline]
    fn top(&self) -> Oop {
        self.mem().fetch(self.ctx, self.sp)
    }

    #[inline]
    pub(crate) fn stack_at(&self, slot: usize) -> Oop {
        self.mem().fetch(self.ctx, slot)
    }

    #[inline]
    pub(crate) fn stack_at_put(&mut self, slot: usize, v: Oop) {
        self.mem().store(self.ctx, slot, v);
    }

    #[inline]
    fn temp(&self, n: usize) -> Oop {
        self.mem().fetch(self.home, method_ctx::STACK_START + n)
    }

    #[inline]
    fn temp_put(&mut self, n: usize, v: Oop) {
        self.mem().store(self.home, method_ctx::STACK_START + n, v);
    }

    #[inline]
    fn literal(&self, n: usize) -> Oop {
        self.mem().fetch(self.method, MethodHeader::literal_slot(n))
    }

    #[inline]
    fn fetch_byte(&mut self) -> u8 {
        let b = self.mem().method_byte(self.method, self.ptr_slots, self.pc);
        self.pc += 1;
        b
    }

    // ------------------------------------------------------------------
    // GC & safepoints
    // ------------------------------------------------------------------

    /// A scavenge is futile when this many consecutive `NeedGc` steps hit
    /// without a single bytecode completing in between: collection freed
    /// nothing the failing allocation can use, so another one won't either.
    const FUTILE_GC_LIMIT: u32 = 3;

    /// Handles a `NeedGc` step: scavenge and restart the bytecode at `pc0`,
    /// or — when memory is truly exhausted — terminate the current process
    /// with an `outOfMemory` report instead of looping forever.
    fn gc_scavenge(&mut self, pc0: usize) -> Step {
        self.pc = pc0;
        self.flush_registers();
        // An allocation-bound doit can burn its whole budget between
        // safepoints in scavenge-and-retry cycles; check the deadline here
        // too so expiry costs at most one collection, not a quantum of them.
        if self.doit_due() {
            self.release();
            return Step::Switch;
        }
        if self.gc_streak > Self::FUTILE_GC_LIMIT {
            // Repeated scavenges made no progress (e.g. a large tenured
            // request against a full old generation).
            return self.out_of_memory();
        }
        match self.scavenge_world() {
            Ok(()) => Step::Continue,
            Err(_) => self.out_of_memory(),
        }
    }

    /// Stops the world as this interpreter and scavenges, unless another
    /// interpreter collected while this one waited to lead. `Err` means the
    /// old generation cannot absorb the survivors; new space is left
    /// untouched in that case so execution can continue. The registers must
    /// already be flushed: whenever objects moved across the stop — under
    /// this scavenge, or before it — they are reloaded from the heap.
    fn scavenge_world(&mut self) -> Result<(), mst_objmem::OomError> {
        let before = self.mem().gc_epoch();
        // Exact accounting: hand the unused tail of our allocation buffer
        // back before a collection sizes its tenure reserve.
        self.mem().retire_token(&self.token);
        let world = self.vm.stop_world_as(self.rdv_id());
        let scavenged = if self.mem().gc_epoch() == before {
            world.scavenge().map(|_| ())
        } else {
            Ok(())
        };
        drop(world);
        if self.mem().gc_epoch() != before {
            self.after_gc();
        }
        scavenged
    }

    /// Terminates the current process because memory is exhausted even
    /// straight after collection. The failure is contained: the report goes
    /// to the error log, the low-space semaphore fires so the image can
    /// react, and this interpreter goes back to the scheduler for the next
    /// ready process.
    fn out_of_memory(&mut self) -> Step {
        self.gc_streak = 0;
        let free = self.mem().old_free();
        self.report_error(format!(
            "outOfMemory: old space exhausted ({free} words free); process terminated"
        ));
        sched::signal_low_space(&self.vm);
        self.end_process(self.mem().nil());
        Step::Switch
    }

    fn after_gc(&mut self) {
        self.cache.clear(self.vm.cache_epoch());
        self.free.clear(self.mem().gc_epoch());
        self.refresh_special_selectors();
        self.reload_registers();
    }

    /// Parks while another thread holds the world, if one asks for it;
    /// whether it parked. Where an interpreter parks at a safepoint or while
    /// it spins idle (a blocked idle one is parked inside `idle_wait`): a
    /// loaded Process's registers must already be in the heap.
    fn park_if_requested(&mut self) -> bool {
        let requested = self.vm.rendezvous.poll();
        if requested {
            // The stopper may size a scavenge while we sit parked: retire
            // the allocation buffer so eden accounting is exact.
            self.mem().retire_token(&self.token);
            self.vm.rendezvous.park(self.rdv_id());
        }
        requested
    }

    /// The safepoint: polls stop-the-world, shutdown, and preemption.
    fn safepoint(&mut self) -> Step {
        self.counter = self.vm.options.quantum;
        self.flush_counters();
        // Whatever this safepoint decides — park, yield, wind down, die — the
        // heap must say where the Process stands: a collector traces it from
        // there, and whoever claims it next resumes at this bytecode
        // boundary (after an injected panic, a surviving interpreter the
        // supervisor's recovery hands it to).
        self.flush_registers();
        // Chaos: a stalled safepoint response is what the watchdog exists
        // to diagnose, so the injection point sits here rather than in the
        // per-bytecode poll.
        mst_vkernel::fault::poll_stall();
        // Chaos: a processor dying mid-run.
        if self.panic_injectable && mst_vkernel::fault::thread_panic() {
            panic!(
                "chaos: injected interpreter panic (thread.panic) on interp {}",
                self.id
            );
        }
        // Chaos: the serving layer's mid-doit panic (serve.panic). Fires
        // only while this interpreter is executing the watched doit, so one
        // tenant session dies without touching any other session's workers.
        if self.watching_claimed() && self.vm.take_doit_panic() {
            panic!(
                "chaos: injected mid-doit panic (serve.panic) on interp {}",
                self.id
            );
        }
        // Reload whenever objects moved: under the stop we parked for, or
        // while we were between polls (parked inside a lock delay).
        if self.park_if_requested() || self.sels_epoch != self.mem().gc_epoch() {
            self.after_gc();
        }
        // Back to ready, and to the run loop: to wind down, to let a
        // higher-priority Process run, or to see to the watched doit.
        if !self.vm.running()
            || self.vm.preempt_hint.load(Ordering::Relaxed) > self.priority
            || self.doit_due()
        {
            self.release();
            return Step::Switch;
        }
        Step::Continue
    }

    /// Whether the run loop must see to the watched doit: its deadline (a
    /// per-request budget the serving layer arms) passed, or a Process
    /// elsewhere terminated it.
    fn doit_due(&self) -> bool {
        self.watched
            .as_ref()
            .is_some_and(|w| self.deadline_passed() || self.ended(w.get()))
    }

    /// Releases the loaded Process's claim: it goes back to ready.
    pub(crate) fn release(&mut self) {
        let flushed = self.flush_registers();
        sched::transition(&self.vm, flushed, State::Ready);
    }

    /// Whether the currently loaded process is the watched (reserved) doit.
    fn watching_claimed(&self) -> bool {
        self.watched
            .as_ref()
            .is_some_and(|w| w.get() == self.proc_root.get())
    }

    /// Logs a failure of the currently loaded process. Every failure lands in
    /// the VM error log; the watched doit's is also latched as *its* outcome,
    /// so a forked Process that dies while the doit runs cannot fail it.
    pub(crate) fn report_error(&mut self, msg: String) {
        if self.watching_claimed() {
            self.doit_end = Some(RunOutcome::Failed(msg.clone()));
        }
        self.vm.error_log.lock().push(msg);
    }

    /// Whether the watched doit's deadline is armed and past.
    fn deadline_passed(&self) -> bool {
        let deadline = self.vm.deadline_ns();
        deadline != 0 && tel::now_ns() >= deadline
    }

    // ------------------------------------------------------------------
    // The bytecode loop
    // ------------------------------------------------------------------

    fn execute(&mut self) {
        use mst_compiler::bytecode as bc;
        loop {
            if (self.counter == 0 || self.vm.rendezvous.poll()) && self.safepoint() == Step::Switch
            {
                return;
            }
            self.counter = self.counter.saturating_sub(1);
            self.n_bytecodes += 1;
            let pc0 = self.pc;
            let op = self.fetch_byte();
            let step = match op {
                0x00..=0x0F => {
                    let v = self.mem().fetch(self.receiver, op as usize);
                    self.push(v);
                    Step::Continue
                }
                0x10..=0x1F => {
                    let v = self.temp((op - bc::PUSH_TEMP) as usize);
                    self.push(v);
                    Step::Continue
                }
                0x20..=0x3F => {
                    let v = self.literal((op - bc::PUSH_LIT_CONST) as usize);
                    self.push(v);
                    Step::Continue
                }
                0x40..=0x4F => {
                    let binding = self.literal((op - bc::PUSH_LIT_VAR) as usize);
                    let v = self.mem().fetch(binding, mst_objmem::layout::assoc::VALUE);
                    self.push(v);
                    Step::Continue
                }
                0x50..=0x57 => {
                    let v = self.pop();
                    let mem = self.mem();
                    mem.store(self.receiver, (op - bc::STORE_POP_RCVR_VAR) as usize, v);
                    Step::Continue
                }
                0x58..=0x5F => {
                    let v = self.pop();
                    self.temp_put((op - bc::STORE_POP_TEMP) as usize, v);
                    Step::Continue
                }
                bc::PUSH_SELF => {
                    let v = self.receiver;
                    self.push(v);
                    Step::Continue
                }
                bc::PUSH_TRUE => {
                    let v = self.mem().specials().get(So::True);
                    self.push(v);
                    Step::Continue
                }
                bc::PUSH_FALSE => {
                    let v = self.mem().specials().get(So::False);
                    self.push(v);
                    Step::Continue
                }
                bc::PUSH_NIL => {
                    let v = self.mem().nil();
                    self.push(v);
                    Step::Continue
                }
                bc::PUSH_MINUS_ONE => {
                    self.push(Oop::from_small_int(-1));
                    Step::Continue
                }
                bc::PUSH_ZERO => {
                    self.push(Oop::from_small_int(0));
                    Step::Continue
                }
                bc::PUSH_ONE => {
                    self.push(Oop::from_small_int(1));
                    Step::Continue
                }
                bc::PUSH_TWO => {
                    self.push(Oop::from_small_int(2));
                    Step::Continue
                }
                bc::PUSH_THIS_CONTEXT => {
                    // The context escapes: never recycle it.
                    let mem = self.mem();
                    let h = mem.header(self.ctx);
                    mem.set_header(self.ctx, h.with_escaped());
                    let v = self.ctx;
                    self.flush_registers();
                    self.push(v);
                    Step::Continue
                }
                bc::DUP => {
                    let v = self.top();
                    self.push(v);
                    Step::Continue
                }
                bc::POP => {
                    self.sp -= 1;
                    Step::Continue
                }
                bc::RETURN_SELF => {
                    let v = self.receiver;
                    self.method_return(v)
                }
                bc::RETURN_TRUE => {
                    let v = self.mem().specials().get(So::True);
                    self.method_return(v)
                }
                bc::RETURN_FALSE => {
                    let v = self.mem().specials().get(So::False);
                    self.method_return(v)
                }
                bc::RETURN_NIL => {
                    let v = self.mem().nil();
                    self.method_return(v)
                }
                bc::RETURN_TOP => {
                    let v = self.pop();
                    self.method_return(v)
                }
                bc::BLOCK_RETURN_TOP => {
                    let v = self.pop();
                    self.block_return(v)
                }
                bc::EXT_PUSH | bc::EXT_STORE | bc::EXT_STORE_POP => {
                    let operand = self.fetch_byte();
                    self.extended_op(op, operand)
                }
                bc::SEND | bc::SEND_SUPER => {
                    let lit = self.fetch_byte() as usize;
                    let nargs = self.fetch_byte() as usize;
                    let selector = self.literal(lit);
                    self.send(pc0, selector, nargs, op == bc::SEND_SUPER)
                }
                bc::PUSH_BLOCK => {
                    let nargs = self.fetch_byte() as usize;
                    let lo = self.fetch_byte() as usize;
                    let hi = self.fetch_byte() as usize;
                    let len = lo | (hi << 8);
                    self.push_block(pc0, nargs, len)
                }
                0x90..=0x97 => {
                    self.pc += (op - bc::SHORT_JUMP + 1) as usize;
                    Step::Continue
                }
                0x98..=0x9F => {
                    let d = (op - bc::SHORT_JUMP_FALSE + 1) as isize;
                    self.conditional_jump(pc0, d, false)
                }
                0xA0..=0xA7 => {
                    let operand = self.fetch_byte() as isize;
                    let d = ((op as isize) - 0xA4) * 256 + operand;
                    self.pc = (self.pc as isize + d) as usize;
                    Step::Continue
                }
                0xA8..=0xAB => {
                    let operand = self.fetch_byte() as isize;
                    let d = ((op & 3) as isize) * 256 + operand;
                    self.conditional_jump(pc0, d, true)
                }
                0xAC..=0xAF => {
                    let operand = self.fetch_byte() as isize;
                    let d = ((op & 3) as isize) * 256 + operand;
                    self.conditional_jump(pc0, d, false)
                }
                0xB0..=0xCF => self.special_send(pc0, (op - bc::SPECIAL_SEND) as usize),
                0xD0..=0xDF => {
                    let selector = self.literal((op - bc::SEND_LIT_0) as usize);
                    self.send(pc0, selector, 0, false)
                }
                0xE0..=0xEF => {
                    let selector = self.literal((op - bc::SEND_LIT_1) as usize);
                    self.send(pc0, selector, 1, false)
                }
                0xF0..=0xFF => {
                    let selector = self.literal((op - bc::SEND_LIT_2) as usize);
                    self.send(pc0, selector, 2, false)
                }
                _ => panic!("unknown opcode {op:#04x} at pc {pc0}"),
            };
            match step {
                Step::Continue => {
                    if self.gc_streak != 0 {
                        self.gc_streak = 0;
                    }
                }
                Step::NeedGc => {
                    self.gc_streak += 1;
                    if self.gc_scavenge(pc0) == Step::Switch {
                        return;
                    }
                }
                Step::Switch => return,
            }
        }
    }

    fn extended_op(&mut self, op: u8, operand: u8) -> Step {
        use mst_compiler::bytecode as bc;
        let kind = operand >> 6;
        let index = (operand & 0x3F) as usize;
        match op {
            bc::EXT_PUSH => {
                let v = match kind {
                    0 => self.mem().fetch(self.receiver, index),
                    1 => self.temp(index),
                    2 => self.literal(index),
                    _ => {
                        let binding = self.literal(index);
                        self.mem().fetch(binding, mst_objmem::layout::assoc::VALUE)
                    }
                };
                self.push(v);
            }
            bc::EXT_STORE | bc::EXT_STORE_POP => {
                let v = if op == bc::EXT_STORE_POP {
                    self.pop()
                } else {
                    self.top()
                };
                match kind {
                    0 => self.mem().store(self.receiver, index, v),
                    1 => self.temp_put(index, v),
                    _ => panic!("store to literal frame"),
                }
            }
            _ => unreachable!(),
        }
        Step::Continue
    }

    fn conditional_jump(&mut self, pc0: usize, delta: isize, jump_on: bool) -> Step {
        let mem = self.mem();
        let cond = self.top();
        let truthy = if cond == mem.specials().get(So::True) {
            true
        } else if cond == mem.specials().get(So::False) {
            false
        } else {
            // Leave the non-boolean on the stack as the receiver of
            // mustBeBoolean (paper-era Smalltalks did the same).
            let sel = mem.specials().get(So::SelMustBeBoolean);
            return self.send(pc0, sel, 0, false);
        };
        self.sp -= 1;
        if truthy == jump_on {
            self.pc = (self.pc as isize + delta) as usize;
        }
        Step::Continue
    }

    // ------------------------------------------------------------------
    // Sends
    // ------------------------------------------------------------------

    fn send(&mut self, pc0: usize, selector: Oop, nargs: usize, is_super: bool) -> Step {
        self.n_sends += 1;
        let mem = self.mem();
        if !selector.is_object() || mem.class_of(selector) != mem.specials().get(So::ClassSymbol) {
            // Tripwire: a non-Symbol selector means heap corruption; fail
            // loudly at the site rather than as a confusing DNU.
            panic!(
                "corrupt send: selector {selector:?} at pc {pc0} (interp {}, epochs {}/{})",
                self.id,
                mem.gc_epoch(),
                self.vm.cache_epoch(),
            );
        }
        let recv_slot = self.sp - nargs;
        let receiver = self.stack_at(recv_slot);
        let lookup_class = if is_super {
            // The defining class is the method's last literal.
            let nlits = self.ptr_slots - 1;
            let defining = self.literal(nlits - 1);
            mem.fetch(defining, cls::SUPERCLASS)
        } else {
            mem.class_of(receiver)
        };
        let entry = match self.lookup_cached(selector, lookup_class, is_super) {
            Some(e) => e,
            None => return self.does_not_understand(pc0, selector, nargs),
        };
        if entry.num_args as usize != nargs {
            // Arity mismatch (a perform: with the wrong argument count).
            return self.does_not_understand(pc0, selector, nargs);
        }
        if entry.primitive != 0 {
            if mst_telemetry::enabled() {
                mst_telemetry::instant(
                    "interp.primitive",
                    "interp",
                    "number",
                    entry.primitive as u64,
                );
            }
            let _prim_state = tel::timeline::enter_state(tel::ProcState::Primitive);
            match self.dispatch_primitive(entry.primitive, nargs, pc0) {
                PrimOutcome::Done => {
                    self.n_prims += 1;
                    return Step::Continue;
                }
                PrimOutcome::NeedGc => return Step::NeedGc,
                PrimOutcome::Switch => {
                    self.n_prims += 1;
                    return Step::Switch;
                }
                PrimOutcome::Fail => {}
            }
        }
        self.activate(&entry, nargs)
    }

    /// Method lookup through the policy-selected cache.
    fn lookup_cached(&mut self, selector: Oop, class: Oop, is_super: bool) -> Option<CacheEntry> {
        let epoch = self.vm.cache_epoch();
        if !is_super {
            match self.vm.options.cache_policy {
                CachePolicy::Replicated => {
                    if self.cache.epoch != epoch {
                        self.cache.clear(epoch);
                    }
                    if let Some(e) = self.cache.probe(selector, class) {
                        self.n_hits += 1;
                        return Some(*e);
                    }
                }
                CachePolicy::Serialized => {
                    if let Some(e) = self.vm.global_cache.probe(selector, class, epoch) {
                        self.n_hits += 1;
                        return Some(e);
                    }
                }
            }
        }
        self.n_misses += 1;
        if mst_telemetry::enabled() {
            mst_telemetry::instant("interp.cache_miss", "interp", "selector", selector.raw());
        }
        let entry = self.lookup_method(selector, class)?;
        if !is_super {
            match self.vm.options.cache_policy {
                CachePolicy::Replicated => self.cache.insert(entry),
                CachePolicy::Serialized => self.vm.global_cache.insert(entry, epoch),
            }
        }
        Some(entry)
    }

    /// Walks the superclass chain, at most [`MAX_SUPERCLASS_HOPS`] classes
    /// of it: a doit can store into a class's superclass slot, and a cycle
    /// it makes must end in `doesNotUnderstand:`, not spin past every poll.
    fn lookup_method(&self, selector: Oop, class: Oop) -> Option<CacheEntry> {
        let mem = self.mem();
        let nil = mem.nil();
        let mut c = class;
        for _ in 0..MAX_SUPERCLASS_HOPS {
            if c == nil {
                break;
            }
            let dict = mem.fetch(c, cls::METHOD_DICT);
            if let Some(method) = method_dict_at(mem, dict, selector) {
                let mh = MethodHeader::decode(mem.fetch(method, 0));
                return Some(CacheEntry {
                    selector: selector.raw(),
                    class: class.raw(),
                    method: method.raw(),
                    num_args: mh.num_args,
                    num_temps: mh.num_temps,
                    primitive: mh.primitive,
                    large_context: mh.large_context,
                    pointer_slots: mh.pointer_slots() as u16,
                });
            }
            c = mem.fetch(c, cls::SUPERCLASS);
        }
        None
    }

    fn does_not_understand(&mut self, pc0: usize, selector: Oop, nargs: usize) -> Step {
        let mem = self.mem();
        // Materialize the Message before touching the stack so a failed
        // allocation can safely restart the whole send.
        let Some(args_arr) = mem.alloc_array(&self.token, nargs) else {
            return Step::NeedGc;
        };
        let msg_class = mem.specials().get(So::ClassMessage);
        let Some(msg) = mem.allocate(
            &self.token,
            msg_class,
            ObjFormat::Pointers,
            message::SIZE,
            0,
        ) else {
            return Step::NeedGc;
        };
        for i in 0..nargs {
            let v = self.stack_at(self.sp - nargs + 1 + i);
            mem.store_nocheck(args_arr, i, v);
        }
        mem.store_nocheck(msg, message::SELECTOR, selector);
        mem.store_nocheck(msg, message::ARGS, args_arr);
        self.sp -= nargs;
        self.push(msg);
        let dnu = mem.specials().get(So::SelDoesNotUnderstand);
        if selector == dnu {
            // The receiver's class chain has no doesNotUnderstand: (a doit
            // cut or looped it): the failure is contained, as for
            // out-of-memory. The argument is the original failure's Message.
            let orig = mem.fetch(mem.fetch(msg, message::ARGS), 0);
            let orig_sel = mem.fetch(orig, message::SELECTOR);
            let rcls = mem.class_of(self.stack_at(self.sp - nargs));
            let cls_name = mem.fetch(rcls, cls::NAME);
            self.report_error(format!(
                "recursive doesNotUnderstand: #{} not understood by an instance of {} \
                 and doesNotUnderstand: lookup failed; process terminated",
                mem.str_value(orig_sel),
                if cls_name == mem.nil() {
                    "<anonymous class>".to_string()
                } else {
                    mem.str_value(cls_name)
                },
            ));
            self.end_process(mem.nil());
            return Step::Switch;
        }
        self.send(pc0, dnu, 1, false)
    }

    // ------------------------------------------------------------------
    // Activation & returns
    // ------------------------------------------------------------------

    /// Allocates (or recycles) a method context of the right size.
    fn alloc_method_ctx(&mut self, large: bool) -> Option<Oop> {
        let kind = if large {
            CtxKind::MethodLarge
        } else {
            CtxKind::MethodSmall
        };
        let epoch = self.mem().gc_epoch();
        let recycled = match self.vm.options.context_policy {
            FreeListPolicy::Disabled => None,
            FreeListPolicy::Replicated => self.free.valid_at(epoch).pop(kind),
            FreeListPolicy::Shared => self.vm.shared_free.lock().valid_at(epoch).pop(kind),
        };
        if let Some(ctx) = recycled {
            self.n_recycled += 1;
            return Some(ctx);
        }
        self.n_ctx_alloc += 1;
        let class = self.mem().specials().get(So::ClassMethodContext);
        self.mem().allocate(
            &self.token,
            class,
            ObjFormat::Pointers,
            kind.body_slots(),
            0,
        )
    }

    fn recycle_ctx(&mut self, ctx: Oop, large: bool) {
        let kind = if large {
            CtxKind::MethodLarge
        } else {
            CtxKind::MethodSmall
        };
        let epoch = self.mem().gc_epoch();
        match self.vm.options.context_policy {
            FreeListPolicy::Disabled => {}
            FreeListPolicy::Replicated => self.free.valid_at(epoch).push(kind, ctx),
            FreeListPolicy::Shared => self.vm.shared_free.lock().valid_at(epoch).push(kind, ctx),
        }
    }

    fn activate(&mut self, entry: &CacheEntry, nargs: usize) -> Step {
        debug_assert_eq!(entry.num_args as usize, nargs, "arg count mismatch");
        let Some(new_ctx) = self.alloc_method_ctx(entry.large_context) else {
            return Step::NeedGc;
        };
        let mem = self.mem();
        let method = Oop::from_raw(entry.method);
        let receiver = self.stack_at(self.sp - nargs);
        // Save the caller's registers before switching.
        self.flush_registers();
        reinit_method_ctx(
            mem,
            new_ctx,
            self.ctx,
            method,
            receiver,
            entry.num_temps as usize,
        );
        for i in 0..nargs {
            let v = self.stack_at(self.sp - nargs + 1 + i);
            mem.store(new_ctx, method_ctx::STACK_START + i, v);
        }
        self.sp -= nargs + 1; // pop receiver and args in the caller
        mem.store_nocheck(
            self.ctx,
            method_ctx::STACKP,
            Oop::from_small_int(self.sp as i64),
        );
        // Switch registers to the callee.
        self.ctx = new_ctx;
        self.is_block = false;
        self.home = new_ctx;
        self.receiver = receiver;
        self.method = method;
        self.ptr_slots = entry.pointer_slots as usize;
        self.pc = 0;
        self.sp = method_ctx::STACK_START + entry.num_temps as usize - 1;
        Step::Continue
    }

    /// `^value` — return from the home method to its sender.
    fn method_return(&mut self, value: Oop) -> Step {
        let mem = self.mem();
        let home = self.home;
        let sender = mem.fetch(home, method_ctx::SENDER);
        // Dead-context marker: pc := nil (detected by later non-local
        // returns through this frame).
        let nil = mem.nil();
        if mem.fetch(home, method_ctx::PC) == nil {
            // Home already returned: cannotReturn.
            return self.cannot_return(value);
        }
        mem.store_nocheck(home, method_ctx::PC, nil);
        mem.store(home, method_ctx::SENDER, nil);
        if !self.is_block {
            // Normal return: the frame may be recyclable.
            let h = mem.header(self.ctx);
            if !h.is_escaped() {
                let large = h.body_words() == ctx_size::LARGE_METHOD_CTX;
                let ctx = self.ctx;
                self.recycle_ctx(ctx, large);
            }
        }
        self.return_to(sender, value)
    }

    /// End of a block: return to the block's caller.
    fn block_return(&mut self, value: Oop) -> Step {
        let mem = self.mem();
        let caller = mem.fetch(self.ctx, block_ctx::CALLER);
        let nil = mem.nil();
        mem.store_nocheck(self.ctx, block_ctx::CALLER, nil);
        self.return_to(caller, value)
    }

    fn return_to(&mut self, target: Oop, value: Oop) -> Step {
        let mem = self.mem();
        if target == mem.nil() {
            if self.watching_claimed() {
                self.doit_end.get_or_insert(RunOutcome::Returned);
            }
            // The result slot roots the value so watchers can read it
            // after GC.
            self.end_process(value);
            return Step::Switch;
        }
        self.load_ctx(target);
        self.push(value);
        Step::Continue
    }

    fn cannot_return(&mut self, value: Oop) -> Step {
        // Report through the image: self cannotReturn: value.
        let rcvr = self.receiver;
        self.push(rcvr);
        self.push(value);
        let sel = self.mem().specials().get(So::SelCannotReturn);
        self.send(self.pc, sel, 1, false)
    }

    // ------------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------------

    fn push_block(&mut self, _pc0: usize, nargs: usize, len: usize) -> Step {
        let mem = self.mem();
        let large = mem.header(self.home).body_words() == ctx_size::LARGE_METHOD_CTX;
        let kind = if large {
            CtxKind::BlockLarge
        } else {
            CtxKind::BlockSmall
        };
        let class = mem.specials().get(So::ClassBlockContext);
        let Some(block) = mem.allocate(
            &self.token,
            class,
            ObjFormat::Pointers,
            kind.body_slots(),
            0,
        ) else {
            return Step::NeedGc;
        };
        let initial_pc = self.pc;
        reinit_block_ctx(mem, block, nargs, initial_pc, self.home);
        // The home context escapes through the block.
        let h = mem.header(self.home);
        mem.set_header(self.home, h.with_escaped());
        self.push(block);
        self.pc += len;
        Step::Continue
    }

    /// `value`/`value:`… — activate a block context (ST-80 style: the block
    /// object itself is the activation, so blocks are not reentrant).
    pub(crate) fn block_value(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let block = self.stack_at(self.sp - nargs);
        if mem.class_of(block) != mem.specials().get(So::ClassBlockContext) {
            return PrimOutcome::Fail;
        }
        let expected = mem.fetch(block, block_ctx::NARGS).as_small_int() as usize;
        if expected != nargs {
            return PrimOutcome::Fail;
        }
        // Save the caller.
        self.flush_registers();
        // Move the arguments onto the block's own stack.
        for i in 0..nargs {
            let v = self.stack_at(self.sp - nargs + 1 + i);
            mem.store(block, block_ctx::STACK_START + i, v);
        }
        self.sp -= nargs + 1;
        mem.store_nocheck(
            self.ctx,
            method_ctx::STACKP,
            Oop::from_small_int(self.sp as i64),
        );
        let initial_pc = mem.fetch(block, block_ctx::INITIAL_PC).as_small_int() as usize;
        mem.store(block, block_ctx::CALLER, self.ctx);
        mem.store_nocheck(block, block_ctx::PC, Oop::from_small_int(initial_pc as i64));
        let top = block_ctx::STACK_START + nargs;
        mem.store_nocheck(
            block,
            block_ctx::STACKP,
            Oop::from_small_int(top as i64 - 1),
        );
        self.load_ctx(block);
        PrimOutcome::Done
    }

    // ------------------------------------------------------------------
    // Special-selector sends (fast paths)
    // ------------------------------------------------------------------

    fn special_send(&mut self, pc0: usize, index: usize) -> Step {
        let mem = self.mem();
        let (_, nargs) = mst_compiler::bytecode::SPECIAL_SELECTORS[index];
        let nargs = nargs as usize;
        // Fast paths for SmallInteger arithmetic and identity tests.
        if index < 16 && nargs == 1 {
            let a = self.stack_at(self.sp - 1);
            let b = self.stack_at(self.sp);
            if a.is_small_int() && b.is_small_int() {
                if let Some(result) = small_int_op(mem, index, a.as_small_int(), b.as_small_int()) {
                    self.sp -= 1;
                    self.stack_at_put(self.sp, result);
                    return Step::Continue;
                }
            }
        }
        match index {
            16 => {
                // ==
                let b = self.pop();
                let a = self.top();
                let t = mem.specials().get(So::True);
                let f = mem.specials().get(So::False);
                let v = if a == b { t } else { f };
                self.stack_at_put(self.sp, v);
                return Step::Continue;
            }
            17 => {
                // class
                let v = mem.class_of(self.top());
                self.stack_at_put(self.sp, v);
                return Step::Continue;
            }
            23 | 24 => {
                // isNil / notNil
                let a = self.top();
                let t = mem.specials().get(So::True);
                let f = mem.specials().get(So::False);
                let is_nil = a == mem.nil();
                let v = if (index == 23) == is_nil { t } else { f };
                self.stack_at_put(self.sp, v);
                return Step::Continue;
            }
            _ => {}
        }
        // Everything else: a full send of the special selector.
        if self.sels_epoch != mem.gc_epoch() {
            self.refresh_special_selectors();
        }
        let selector = self.special_sels[index];
        self.send(pc0, selector, nargs, false)
    }
}

/// Creates a suspended Process whose bottom context activates `method` on
/// `receiver`. The caller schedules it with a
/// [`transition`](crate::scheduler::transition) to ready, as the image's
/// `resume` does.
pub fn spawn_method_process(
    vm: &Vm,
    token: &AllocToken,
    method: Oop,
    receiver: Oop,
    priority: i64,
) -> Option<Oop> {
    let mem = &vm.mem;
    let mh = MethodHeader::decode(mem.fetch(method, 0));
    let kind = if mh.large_context {
        CtxKind::MethodLarge
    } else {
        CtxKind::MethodSmall
    };
    let class = mem.specials().get(So::ClassMethodContext);
    let ctx = mem.allocate(token, class, ObjFormat::Pointers, kind.body_slots(), 0)?;
    reinit_method_ctx(mem, ctx, mem.nil(), method, receiver, mh.num_temps as usize);
    mem.store_nocheck(
        ctx,
        method_ctx::STACKP,
        Oop::from_small_int((method_ctx::STACK_START + mh.num_temps as usize) as i64 - 1),
    );
    sched::create_process(mem, token, ctx, priority, mem.nil())
}

/// Division rounding toward negative infinity (Smalltalk `//`).
pub(crate) fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    let r = a % b;
    if r != 0 && (r < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// SmallInteger fast-path arithmetic; `None` falls back to a full send
/// (overflow, division by zero, inexact division).
pub(crate) fn small_int_op(mem: &ObjectMemory, index: usize, a: i64, b: i64) -> Option<Oop> {
    let t = mem.specials().get(So::True);
    let f = mem.specials().get(So::False);
    let boolean = |v: bool| Some(if v { t } else { f });
    match index {
        0 => Oop::try_from_i64(a.checked_add(b)?),
        1 => Oop::try_from_i64(a.checked_sub(b)?),
        2 => boolean(a < b),
        3 => boolean(a > b),
        4 => boolean(a <= b),
        5 => boolean(a >= b),
        6 => boolean(a == b),
        7 => boolean(a != b),
        8 => Oop::try_from_i64(a.checked_mul(b)?),
        9 => {
            // `/` only succeeds when exact.
            if b == 0 || a % b != 0 {
                None
            } else {
                Oop::try_from_i64(a / b)
            }
        }
        10 => {
            // \\ — modulo with the divisor's sign (floored).
            if b == 0 {
                None
            } else {
                Oop::try_from_i64(a - floor_div(a, b) * b)
            }
        }
        11 => {
            // // — floored division.
            if b == 0 {
                None
            } else {
                Oop::try_from_i64(floor_div(a, b))
            }
        }
        12 => {
            // bitShift:
            if b >= 0 {
                if b > 62 {
                    None
                } else {
                    let r = a.checked_shl(b as u32)?;
                    if r >> b as u32 != a {
                        None
                    } else {
                        Oop::try_from_i64(r)
                    }
                }
            } else {
                Oop::try_from_i64(a >> (-b).min(63) as u32)
            }
        }
        13 => Oop::try_from_i64(a & b),
        14 => Oop::try_from_i64(a | b),
        _ => None, // @ (Point creation) goes through the image
    }
}
