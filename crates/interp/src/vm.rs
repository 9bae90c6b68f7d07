//! Shared virtual-machine state.
//!
//! One [`Vm`] is shared (via `Arc`) by every interpreter thread. It owns the
//! object memory, the stop-the-world rendezvous, the scheduler lock, the
//! serialized devices, and the policy knobs corresponding to the paper's
//! three adaptation strategies.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use mst_objmem::{MemoryConfig, ObjectMemory};
use mst_telemetry as tel;
use mst_vkernel::io::{Display, InputQueue};
use mst_vkernel::{Rendezvous, SpinLock, SpinMutex};

use crate::cache::GlobalCache;

/// How the method-lookup cache is shared (paper §3.2).
///
/// The paper first serialized the cache with "a two-level locking scheme to
/// allow multiple readers", found that "contention for the lock was causing
/// it to run much too slowly", and replicated it per processor. Both
/// variants are kept so the ablation benchmark can reproduce the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// One global cache behind a readers/writer spin-lock.
    Serialized,
    /// One cache per interpreter (the paper's fix).
    #[default]
    Replicated,
}

/// How the free-context lists are shared (paper §3.2).
///
/// "Profiling of an earlier version of MS revealed that serialization of
/// access to the free context list caused a bottleneck. … Replication of the
/// free context list yielded a reduction in the worst-case overhead from
/// 160% to 65%."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreeListPolicy {
    /// Context recycling disabled entirely (every activation allocates).
    Disabled,
    /// One shared free list behind a spin-lock.
    Shared,
    /// One free list per interpreter (the paper's fix).
    #[default]
    Replicated,
}

/// All the policy knobs for building a [`Vm`].
#[derive(Debug, Clone, Copy)]
pub struct VmOptions {
    /// Object-memory sizing; its `sync` field (baseline BS or MS) is the
    /// whole VM's synchronization mode.
    pub memory: MemoryConfig,
    /// Method-cache strategy.
    pub cache_policy: CachePolicy,
    /// Free-context-list strategy.
    pub context_policy: FreeListPolicy,
    /// Number of virtual processors (max concurrent interpreters).
    pub processors: usize,
    /// Bytecodes between safepoint polls.
    pub quantum: u32,
}

/// One supervised virtual processor's health, as tracked by the processor
/// supervisor ([`crate::supervise`]). The main interpreter (processor 0)
/// runs unsupervised on the caller's thread and has no row here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorInfo {
    /// The virtual-processor number (1..n for workers).
    pub processor: usize,
    /// Whether an interpreter is currently running on it.
    pub online: bool,
    /// How many times the supervisor restarted its interpreter in place.
    pub restarts: u64,
    /// The panic message that took it offline, if a fault did.
    pub last_fault: Option<String>,
}

/// Aggregated execution counters (the instrumentation the paper lists as
/// future work: "add sufficient instrumentation to MS to gather data").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Bytecodes executed.
    pub bytecodes: u64,
    /// Full message sends (special-selector fast paths excluded).
    pub sends: u64,
    /// Method-cache hits.
    pub cache_hits: u64,
    /// Method-cache misses (full lookups).
    pub cache_misses: u64,
    /// Primitive invocations that succeeded.
    pub primitives: u64,
    /// Method contexts recycled from a free list.
    pub contexts_recycled: u64,
    /// Contexts allocated fresh from the heap.
    pub contexts_allocated: u64,
    /// Process switches performed.
    pub process_switches: u64,
}

/// Per-VM execution counters. Each field is a sharded telemetry counter so
/// interpreter threads flushing their batches at safepoints never collide on
/// a cache line; [`Vm::counters`] merges the shards at read time.
#[derive(Debug, Default)]
pub(crate) struct AtomicCounters {
    pub bytecodes: tel::Counter,
    pub sends: tel::Counter,
    pub cache_hits: tel::Counter,
    pub cache_misses: tel::Counter,
    pub primitives: tel::Counter,
    pub contexts_recycled: tel::Counter,
    pub contexts_allocated: tel::Counter,
    pub process_switches: tel::Counter,
}

/// The shared virtual machine.
pub struct Vm {
    /// The object memory.
    pub mem: ObjectMemory,
    /// Stop-the-world rendezvous for scavenging.
    pub rendezvous: Rendezvous,
    /// The scheduler lock serializing the ready queue (paper §3.1).
    pub sched_lock: SpinLock,
    /// The display controller (serialized output queue).
    pub display: Display,
    /// The input event queue (serialized).
    pub input: InputQueue,
    /// Policy knobs.
    pub options: VmOptions,
    /// Set false to make every interpreter wind down at its next safepoint.
    pub run_flag: AtomicBool,
    /// Highest priority of a ready-but-unclaimed Process, or 0; interpreters
    /// check it at safepoints to decide whether to preempt themselves.
    pub preempt_hint: AtomicI64,
    pub(crate) counters: AtomicCounters,
    /// Error messages reported by `error:` (process-terminating failures),
    /// whichever Process raised them.
    pub error_log: SpinMutex<Vec<String>>,
    /// Text written by the image's Transcript primitive.
    pub transcript: SpinMutex<String>,
    /// Bumped whenever method caches must be invalidated (GC or method
    /// installation).
    pub(crate) cache_epoch: AtomicU64,
    /// VM start instant (the millisecond clock's zero).
    pub(crate) start: std::time::Instant,
    pub(crate) global_cache: GlobalCache,
    /// Shared free-context lists (used under [`FreeListPolicy::Shared`]):
    /// the paper's serialized variant, behind one named spin-lock.
    pub(crate) shared_free: SpinMutex<crate::contexts::FreeLists>,
    /// A Process only its watcher may claim, and the watcher's thread
    /// (measurement pinning; see `scheduler::transition` and
    /// `Interpreter::run`).
    pub(crate) reserved: SpinMutex<Option<(mst_objmem::RootHandle, std::thread::ThreadId)>>,
    /// Edge-trigger latch for the low-space signal: set when a collection
    /// leaves old space nearly full (so the semaphore fires once, not at
    /// every subsequent scavenge), cleared once space recovers.
    pub(crate) low_space: AtomicBool,
    /// Interpreter-id dispenser.
    pub(crate) next_interp_id: AtomicU64,
    /// Supervised-processor health rows (see [`ProcessorInfo`]).
    pub(crate) roster: SpinMutex<Vec<ProcessorInfo>>,
    /// Absolute `tel::now_ns()` deadline for the watched (reserved) doit,
    /// or 0 when none is armed. Checked at the watcher's safepoints and in
    /// its run loop, whose idle wait ends at it; on expiry the watcher
    /// terminates the doit wherever it stands (see `Interpreter::run`).
    pub(crate) deadline_ns: AtomicU64,
    /// One-shot chaos flag: when set, the watcher panics at its next
    /// safepoint *inside* the watched doit (the serving layer's
    /// `serve.panic` mid-doit fault).
    pub(crate) doit_panic: AtomicBool,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("options", &self.options)
            .field("counters", &self.counters())
            .finish()
    }
}

impl Vm {
    /// Builds a VM around an object memory (fresh, or a loaded snapshot).
    pub fn with_memory(mem: ObjectMemory, options: VmOptions) -> Vm {
        let sync = options.memory.sync;
        let shared_free =
            SpinMutex::named(sync, "free_contexts", crate::contexts::FreeLists::default());
        Vm {
            mem,
            rendezvous: Rendezvous::new(),
            sched_lock: SpinLock::named(sync, "sched"),
            display: Display::new(sync, 640, 480),
            input: InputQueue::new(sync, 256),
            options,
            run_flag: AtomicBool::new(true),
            preempt_hint: AtomicI64::new(0),
            counters: AtomicCounters::default(),
            error_log: SpinMutex::new(sync, Vec::new()),
            transcript: SpinMutex::new(sync, String::new()),
            cache_epoch: AtomicU64::new(0),
            start: std::time::Instant::now(),
            global_cache: GlobalCache::new(sync),
            shared_free,
            reserved: SpinMutex::new(sync, None),
            low_space: AtomicBool::new(false),
            next_interp_id: AtomicU64::new(0),
            roster: SpinMutex::new(sync, Vec::new()),
            deadline_ns: AtomicU64::new(0),
            doit_panic: AtomicBool::new(false),
        }
    }

    /// Snapshot of the aggregated execution counters (merged across the
    /// per-thread counter shards at read time).
    pub fn counters(&self) -> VmCounters {
        let c = &self.counters;
        VmCounters {
            bytecodes: c.bytecodes.get(),
            sends: c.sends.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            primitives: c.primitives.get(),
            contexts_recycled: c.contexts_recycled.get(),
            contexts_allocated: c.contexts_allocated.get(),
            process_switches: c.process_switches.get(),
        }
    }

    /// Current cache-invalidation epoch.
    pub fn cache_epoch(&self) -> u64 {
        self.cache_epoch.load(Ordering::Relaxed)
    }

    /// Invalidates every method cache (GC, method installation).
    pub fn bump_cache_epoch(&self) {
        self.cache_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserves a Process so only the interpreter watching it, on the
    /// calling thread, will claim it (pass `None` to clear). Used to pin
    /// measured doits to the measuring thread.
    pub fn set_reserved(&self, process: Option<mst_objmem::RootHandle>) {
        *self.reserved.lock() = process.map(|p| (p, std::thread::current().id()));
    }

    /// A copy of the supervised-processor roster (workers only; the main
    /// interpreter runs unsupervised on the caller's thread).
    pub fn processor_roster(&self) -> Vec<ProcessorInfo> {
        self.roster.lock().clone()
    }

    /// How many supervised processors are currently online.
    pub fn processors_online(&self) -> usize {
        self.roster.lock().iter().filter(|p| p.online).count()
    }

    /// Marks `processor` online in the roster, adding a row if this is its
    /// first registration. Idempotent; the system layer calls it before
    /// spawning each supervised worker so the roster never lags startup.
    pub fn roster_register(&self, processor: usize) {
        let mut roster = self.roster.lock();
        match roster.iter_mut().find(|r| r.processor == processor) {
            Some(row) => {
                row.online = true;
                row.last_fault = None;
            }
            None => roster.push(ProcessorInfo {
                processor,
                online: true,
                restarts: 0,
                last_fault: None,
            }),
        }
    }

    pub(crate) fn roster_offline(&self, processor: usize, fault: Option<String>) {
        let mut roster = self.roster.lock();
        if let Some(row) = roster.iter_mut().find(|r| r.processor == processor) {
            row.online = false;
            row.last_fault = fault;
        }
    }

    pub(crate) fn roster_restarted(&self, processor: usize, fault: String) {
        let mut roster = self.roster.lock();
        if let Some(row) = roster.iter_mut().find(|r| r.processor == processor) {
            row.restarts += 1;
            row.last_fault = Some(fault);
        }
    }

    /// Whether the low-space latch is set: a collection recently left old
    /// space nearly full and the LowSpaceSemaphore was signalled. Cleared
    /// once space recovers.
    pub fn low_space_latched(&self) -> bool {
        self.low_space.load(Ordering::Relaxed)
    }

    /// Arms a deadline for the watched (reserved) doit: an absolute
    /// `tel::now_ns()` instant after which its watcher terminates it,
    /// running, blocked or suspended. Pass 0 to disarm. Checked only by the
    /// watcher, so worker interpreters and unrelated processes are
    /// unaffected.
    pub fn set_deadline_ns(&self, abs_ns: u64) {
        self.deadline_ns.store(abs_ns, Ordering::Relaxed);
    }

    /// The currently armed doit deadline (0 = none).
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns.load(Ordering::Relaxed)
    }

    /// Arms the one-shot mid-doit panic: the interpreter running the
    /// watched doit panics at its next safepoint (chaos `serve.panic`).
    pub fn inject_doit_panic(&self) {
        self.doit_panic.store(true, Ordering::Relaxed);
    }

    pub(crate) fn take_doit_panic(&self) -> bool {
        self.doit_panic.swap(false, Ordering::Relaxed)
    }

    /// Asks every interpreter to stop at its next safepoint, waking the
    /// idle ones to see it.
    pub fn shutdown(&self) {
        self.run_flag.store(false, Ordering::Relaxed);
        self.rendezvous.wake_idle();
    }

    /// Whether the system is still running.
    pub fn running(&self) -> bool {
        self.run_flag.load(Ordering::Relaxed)
    }
}
