//! Seeded fault injection for chaos testing.
//!
//! The runtime's shared-state protocols — the stop-the-world rendezvous,
//! the spin-locked scheduler/allocation paths, and Generation Scavenging —
//! are exactly the code that clean-path tests exercise least. This module
//! provides *named injection points* the runtime consults at its fragile
//! moments; when armed, each point rolls a seeded [`SplitMix64`] against a
//! configured rate and perturbs execution in a way that is always
//! **semantically legal**:
//!
//! * [`lock_delay`] — stretches a spin-lock acquire, widening lock-hold
//!   windows and manufacturing contention.
//! * [`poll_stall`] — stalls a mutator on its way into a safepoint,
//!   stretching time-to-stop (and, pushed far enough, tripping the
//!   rendezvous watchdog).
//! * [`spurious_wake`] — forces a condvar wait to return early, exercising
//!   every predicate re-check loop.
//! * [`fail_alloc`] — fails a new-space allocation that had room, forcing
//!   the caller down its scavenge-and-retry path.
//!
//! The remaining sites are **destructive** (or serving-path-specific) and
//! therefore *opt-in*: they are not part of [`ALL_SITES`] and only fire
//! when named explicitly in the site mask
//! (`MST_CHAOS=<seed>:<rate>:thread.panic`, or a programmatic [`install`]):
//!
//! * [`thread_panic`] — tells a supervised interpreter thread to panic at
//!   its next safepoint, exercising the processor supervisor's recovery
//!   path. Bounded by a kill budget ([`set_kill_budget`]) so a soak run
//!   loses a planned number of processors, not all of them.
//! * [`gc_helper_panic`] — panics a GC helper slot mid-collection,
//!   exercising the rendezvous' helper-panic unwinding (shares the kill
//!   budget with `thread.panic`).
//! * [`serve_drop`] / [`serve_slow`] / [`serve_panic`] — serving-layer
//!   faults consulted by `mst-serve`: drop a request before execution,
//!   stall a tenant, or panic a tenant session mid-doit (kill-budgeted).
//! * [`ckpt_crash`] / [`ckpt_torn_manifest`] / [`ckpt_slow`] — durable-file
//!   faults: tear any [`write_temp`](crate::io::write_temp) (a snapshot
//!   file, a checkpoint image, a compacted MANIFEST) or a MANIFEST append
//!   at a seeded byte boundary (simulated process death, both
//!   kill-budgeted), or stall the checkpoint committer.
//!
//! Disabled (the default), every injection point is a single branch on one
//! relaxed atomic load. Configuration arrives by value ([`install`]);
//! `mst-core` reads `MST_CHAOS` and hands its value to
//! [`ChaosConfig::parse`].
//! Injections are counted in the telemetry registry under `chaos.*`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use mst_telemetry as tel;

use crate::prng::SplitMix64;

/// A named injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultSite {
    /// Delay/yield on a spin-lock acquire.
    LockAcquire = 0,
    /// Stall a mutator entering its safepoint.
    SafepointPoll = 1,
    /// Force a condvar wait to return without a signal.
    SpuriousWake = 2,
    /// Fail a new-space allocation despite available room.
    AllocFail = 3,
    /// Panic a supervised interpreter thread at its next safepoint.
    /// Destructive: opt-in, never part of [`ALL_SITES`].
    ThreadPanic = 4,
    /// Panic a GC helper slot mid-collection (parallel scavenge or full-GC
    /// mark), exercising the rendezvous' helper-panic unwinding.
    /// Destructive: opt-in, never part of [`ALL_SITES`].
    GcHelperPanic = 5,
    /// Drop a serving-layer request before execution (client sees an error
    /// and retries). Destructive: opt-in, never part of [`ALL_SITES`].
    ServeDrop = 6,
    /// Stall a serving-layer request inside its tenant session, simulating
    /// a slow tenant. Opt-in, never part of [`ALL_SITES`].
    ServeSlow = 7,
    /// Panic a tenant session mid-doit at a safepoint, exercising the
    /// server's crash-only session recovery. Destructive: opt-in, never
    /// part of [`ALL_SITES`].
    ServePanic = 8,
    /// Abandon a durable file write ([`write_temp`](crate::io::write_temp))
    /// at a seeded byte boundary, simulating process death mid-write (torn
    /// temp file, no rename). Destructive: opt-in, never part of
    /// [`ALL_SITES`].
    CkptCrash = 9,
    /// Tear a checkpoint MANIFEST append at a seeded byte boundary,
    /// simulating process death mid-append (the journal keeps its valid
    /// prefix). Destructive: opt-in, never part of [`ALL_SITES`].
    CkptTornManifest = 10,
    /// Stall the checkpoint committer before its fsyncs (slow disk),
    /// proving a request never waits for the disk. Opt-in, never part of [`ALL_SITES`].
    CkptSlow = 11,
}

impl FaultSite {
    /// All sites, in bit order.
    pub const ALL: [FaultSite; 12] = [
        FaultSite::LockAcquire,
        FaultSite::SafepointPoll,
        FaultSite::SpuriousWake,
        FaultSite::AllocFail,
        FaultSite::ThreadPanic,
        FaultSite::GcHelperPanic,
        FaultSite::ServeDrop,
        FaultSite::ServeSlow,
        FaultSite::ServePanic,
        FaultSite::CkptCrash,
        FaultSite::CkptTornManifest,
        FaultSite::CkptSlow,
    ];

    /// The site's name as accepted by the `MST_CHAOS` site filter.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::LockAcquire => "lock_acquire",
            FaultSite::SafepointPoll => "safepoint_poll",
            FaultSite::SpuriousWake => "spurious_wake",
            FaultSite::AllocFail => "alloc_fail",
            FaultSite::ThreadPanic => "thread.panic",
            FaultSite::GcHelperPanic => "gc_helper.panic",
            FaultSite::ServeDrop => "serve.drop",
            FaultSite::ServeSlow => "serve.slow",
            FaultSite::ServePanic => "serve.panic",
            FaultSite::CkptCrash => "ckpt.crash",
            FaultSite::CkptTornManifest => "ckpt.torn_manifest",
            FaultSite::CkptSlow => "ckpt.slow",
        }
    }

    /// The site's bit in a [`ChaosConfig::sites`] mask.
    pub fn bit(self) -> u32 {
        1 << (self as u8)
    }
}

/// Bitmask enabling every *semantically legal* injection site. The
/// destructive sites ([`FaultSite::ThreadPanic`], [`FaultSite::CkptCrash`],
/// …) are deliberately excluded: a blanket `ChaosConfig::new` soak must
/// perturb timing, never kill processors or tear files, unless those sites
/// are named explicitly.
pub const ALL_SITES: u32 = 0b1111;

/// Chaos configuration, mirrored by `MsConfig.chaos` at the system layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the per-thread fault PRNGs.
    pub seed: u64,
    /// Probability (0.0..=1.0) that an armed site fires on a given visit.
    pub rate: f64,
    /// Bitmask of enabled [`FaultSite`]s ([`ALL_SITES`] by default).
    pub sites: u32,
}

impl ChaosConfig {
    /// A config arming every site at `rate` with the given `seed`.
    pub fn new(seed: u64, rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            rate,
            sites: ALL_SITES,
        }
    }

    /// Parses the `MST_CHAOS` value format: `<seed>:<rate>[:<site,...>]`,
    /// e.g. `42:0.001` or `7:0.01:lock_acquire,alloc_fail`.
    pub fn parse(spec: &str) -> Option<ChaosConfig> {
        let mut parts = spec.splitn(3, ':');
        let seed = parts.next()?.trim().parse::<u64>().ok()?;
        let rate = parts.next()?.trim().parse::<f64>().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        let sites = match parts.next() {
            None => ALL_SITES,
            Some(list) => {
                let mut mask = 0;
                for name in list.split(',') {
                    let site = FaultSite::ALL
                        .iter()
                        .find(|s| s.name() == name.trim())
                        .copied()?;
                    mask |= site.bit();
                }
                mask
            }
        };
        Some(ChaosConfig { seed, rate, sites })
    }
}

/// Fast-path gate: one relaxed load on every visit to an injection point.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Firing probability in parts-per-million.
static RATE_PPM: AtomicU32 = AtomicU32::new(0);
/// Enabled-site bitmask.
static SITE_MASK: AtomicU32 = AtomicU32::new(ALL_SITES);
/// Base seed; per-thread streams are split off it.
static SEED: AtomicU64 = AtomicU64::new(0);
/// Bumped by every (re)configuration so thread-local PRNGs reseed.
static CONFIG_GEN: AtomicU64 = AtomicU64::new(0);
/// Dispenses one deterministic stream index per participating thread.
static NEXT_STREAM: AtomicU64 = AtomicU64::new(0);
/// Nanoseconds a fired [`poll_stall`] sleeps.
static STALL_NS: AtomicU64 = AtomicU64::new(200_000);
/// Remaining [`thread_panic`] firings. Negative means unlimited; a fired
/// kill decrements, and the site stops firing at zero. Reset by
/// [`set_kill_budget`], defaulted to unlimited on [`install`].
static KILL_BUDGET: AtomicI64 = AtomicI64::new(-1);

thread_local! {
    /// (config generation, stream PRNG) for this thread.
    static RNG: Cell<(u64, SplitMix64)> = const { Cell::new((0, SplitMix64::new(0))) };
}

/// Registry name of each site's firing counter, indexed by `FaultSite`.
const COUNTER_NAMES: [&str; 12] = [
    "chaos.lock_delay",
    "chaos.poll_stall",
    "chaos.spurious_wake",
    "chaos.alloc_fail",
    "chaos.thread_panic",
    "chaos.gc_helper_panic",
    "chaos.serve_drop",
    "chaos.serve_slow",
    "chaos.serve_panic",
    "chaos.ckpt_crash",
    "chaos.ckpt_torn_manifest",
    "chaos.ckpt_slow",
];

fn counters() -> &'static [&'static tel::Counter; 12] {
    static C: OnceLock<[&'static tel::Counter; 12]> = OnceLock::new();
    C.get_or_init(|| COUNTER_NAMES.map(tel::counter))
}

/// Arms the sites in `config.sites` at `config.rate`: faults fire with
/// that probability using PRNG streams derived from `config.seed`.
/// Process-global. Resets the kill budget to unlimited; call
/// [`set_kill_budget`] afterwards to bound [`thread_panic`].
pub fn install(config: ChaosConfig) {
    let ppm = (config.rate.clamp(0.0, 1.0) * 1_000_000.0) as u32;
    SEED.store(config.seed, Ordering::Relaxed);
    RATE_PPM.store(ppm, Ordering::Relaxed);
    SITE_MASK.store(config.sites, Ordering::Relaxed);
    KILL_BUDGET.store(-1, Ordering::Relaxed);
    CONFIG_GEN.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(ppm > 0 && config.sites != 0, Ordering::Relaxed);
}

/// Bounds how many times [`thread_panic`] may fire before going quiet.
/// Negative means unlimited.
pub fn set_kill_budget(kills: i64) {
    KILL_BUDGET.store(kills, Ordering::Relaxed);
}

/// Disarms every injection site; each point reverts to its single relaxed
/// load.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether any site is armed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets how long a fired [`poll_stall`] or [`ckpt_slow`] sleeps.
pub fn set_stall_ns(ns: u64) {
    STALL_NS.store(ns, Ordering::Relaxed);
}

/// Rolls the seeded PRNG for `site`; returns whether the fault fires.
#[cold]
fn roll(site: FaultSite) -> bool {
    if SITE_MASK.load(Ordering::Relaxed) & site.bit() == 0 {
        return false;
    }
    let generation = CONFIG_GEN.load(Ordering::Relaxed);
    let fired = RNG.with(|cell| {
        let (mut generation_seen, mut rng) = cell.get();
        if generation_seen != generation {
            // (Re)seed this thread's stream: deterministic in the base seed
            // and the order in which threads first reach an armed site.
            let stream = NEXT_STREAM.fetch_add(1, Ordering::Relaxed);
            rng = SplitMix64::new(
                SEED.load(Ordering::Relaxed) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            generation_seen = generation;
        }
        let fired = rng.next_u64() % 1_000_000 < RATE_PPM.load(Ordering::Relaxed) as u64;
        cell.set((generation_seen, rng));
        fired
    });
    if fired {
        counters()[site as usize].incr();
    }
    fired
}

/// Injection point: spin-lock acquire. May delay/yield the calling thread.
#[inline]
pub fn lock_delay() {
    if ENABLED.load(Ordering::Relaxed) && roll(FaultSite::LockAcquire) {
        lock_delay_slow();
    }
}

#[cold]
fn lock_delay_slow() {
    // A handful of exponential-backoff rounds plus a scheduler yield:
    // enough to widen lock-hold windows without distorting wall time.
    for iter in 0..8 {
        crate::delay(iter);
    }
    std::thread::yield_now();
}

/// Injection point: a mutator entering its safepoint. May sleep the
/// calling thread for the configured stall ([`set_stall_ns`]).
#[inline]
pub fn poll_stall() {
    if ENABLED.load(Ordering::Relaxed) && roll(FaultSite::SafepointPoll) {
        std::thread::sleep(std::time::Duration::from_nanos(
            STALL_NS.load(Ordering::Relaxed),
        ));
    }
}

/// Injection point: condvar wait. Returns `true` when the wait should be
/// turned into a (bounded) spurious return.
#[inline]
pub fn spurious_wake() -> bool {
    ENABLED.load(Ordering::Relaxed) && roll(FaultSite::SpuriousWake)
}

/// Injection point: new-space allocation. Returns `true` when the
/// allocation should report exhaustion despite available room.
#[inline]
pub fn fail_alloc() -> bool {
    ENABLED.load(Ordering::Relaxed) && roll(FaultSite::AllocFail)
}

/// Injection point: a supervised interpreter thread's safepoint. Returns
/// `true` when the thread should panic to exercise supervisor recovery.
/// Fires only while the kill budget ([`set_kill_budget`]) has room; a
/// firing consumes one unit of budget.
#[inline]
pub fn thread_panic() -> bool {
    ENABLED.load(Ordering::Relaxed) && thread_panic_slow()
}

#[cold]
fn thread_panic_slow() -> bool {
    budgeted_kill(FaultSite::ThreadPanic)
}

/// Rolls a destructive kill site against the shared kill budget. A firing
/// claims one unit of budget; losers of the race (budget already spent by
/// a concurrent kill) stand down. Negative budget means unlimited, and
/// stays negative under fetch_sub until i64 wraps — effectively never.
#[cold]
fn budgeted_kill(site: FaultSite) -> bool {
    if KILL_BUDGET.load(Ordering::Relaxed) == 0 || !roll(site) {
        return false;
    }
    let prior = KILL_BUDGET.fetch_sub(1, Ordering::Relaxed);
    if prior == 0 {
        KILL_BUDGET.store(0, Ordering::Relaxed);
        return false;
    }
    true
}

/// Injection point: a GC helper slot at the start of its parallel
/// scavenge/mark work. Returns `true` when the helper should panic to
/// exercise the rendezvous' helper-panic unwinding. Shares the kill budget
/// with [`thread_panic`].
#[inline]
pub fn gc_helper_panic() -> bool {
    ENABLED.load(Ordering::Relaxed) && budgeted_kill(FaultSite::GcHelperPanic)
}

/// Injection point: serving-layer request dispatch. Returns `true` when
/// the request should be dropped before execution.
#[inline]
pub fn serve_drop() -> bool {
    ENABLED.load(Ordering::Relaxed) && roll(FaultSite::ServeDrop)
}

/// Injection point: serving-layer request execution. Returns `true` when
/// the tenant should stall for the configured duration ([`set_stall_ns`]),
/// simulating a slow tenant.
#[inline]
pub fn serve_slow() -> bool {
    ENABLED.load(Ordering::Relaxed) && roll(FaultSite::ServeSlow)
}

/// Injection point: serving-layer request execution. Returns `true` when
/// the tenant session should panic mid-doit (at its next safepoint),
/// exercising crash-only session recovery. Shares the kill budget with
/// [`thread_panic`].
#[inline]
pub fn serve_panic() -> bool {
    ENABLED.load(Ordering::Relaxed) && budgeted_kill(FaultSite::ServePanic)
}

/// Draws one more value from the calling thread's (already seeded) fault
/// stream — used by sites that need a fault *position*, not just a firing.
#[cold]
fn extra_draw() -> u64 {
    RNG.with(|cell| {
        let (generation, mut rng) = cell.get();
        let v = rng.next_u64();
        cell.set((generation, rng));
        v
    })
}

/// Injection point: a durable file write of `len` bytes
/// ([`write_temp`](crate::io::write_temp)). When the fault fires,
/// returns the seeded byte boundary at which the write should be abandoned
/// (torn temp file, no rename — simulated process death mid-write). Shares the kill budget with
/// [`thread_panic`], so a harness injects a planned number of crashes.
#[inline]
pub fn ckpt_crash(len: u64) -> Option<u64> {
    if ENABLED.load(Ordering::Relaxed) && budgeted_kill(FaultSite::CkptCrash) {
        Some(extra_draw() % len.max(1))
    } else {
        None
    }
}

/// Injection point: a checkpoint MANIFEST append of `len` bytes. When the
/// fault fires, returns the seeded byte boundary at which the append
/// should be torn (simulated process death mid-append; the journal keeps
/// its committed prefix). Shares the kill budget with [`thread_panic`].
#[inline]
pub fn ckpt_torn_manifest(len: u64) -> Option<u64> {
    if ENABLED.load(Ordering::Relaxed) && budgeted_kill(FaultSite::CkptTornManifest) {
        Some(extra_draw() % len.max(1))
    } else {
        None
    }
}

/// Injection point: the checkpoint committer, before an image's fsync.
/// Sleeps the calling thread for the configured stall ([`set_stall_ns`])
/// when the fault fires, simulating a slow disk — no request may wait for
/// it, except one checkpointing a tenant whose last image is still in
/// flight.
#[inline]
pub fn ckpt_slow() {
    if ENABLED.load(Ordering::Relaxed) && roll(FaultSite::CkptSlow) {
        std::thread::sleep(std::time::Duration::from_nanos(
            STALL_NS.load(Ordering::Relaxed),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Chaos state is process-global; tests touching it must restore the
    // disabled default and tolerate other tests' configurations, so they
    // funnel through a single #[test].
    #[test]
    fn configure_roll_and_disable() {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                disable();
            }
        }
        let _restore = Restore;

        // Disabled: nothing fires.
        disable();
        assert!(!enabled());
        assert!(!fail_alloc());
        assert!(!spurious_wake());

        // Rate 1.0: every armed site fires.
        install(ChaosConfig::new(42, 1.0));
        assert!(enabled());
        assert!(fail_alloc());
        assert!(spurious_wake());

        // Site filter: only the named site fires.
        install(ChaosConfig {
            seed: 42,
            rate: 1.0,
            sites: FaultSite::SpuriousWake.bit(),
        });
        assert!(!fail_alloc());
        assert!(spurious_wake());

        // Destructive sites are opt-in: a blanket ALL_SITES config never
        // kills threads or tears writes.
        install(ChaosConfig::new(42, 1.0));
        assert!(!thread_panic());
        assert!(!gc_helper_panic());
        assert!(!serve_drop());
        assert!(!serve_slow());
        assert!(!serve_panic());
        assert!(ckpt_crash(100).is_none());
        assert!(ckpt_torn_manifest(100).is_none());

        // The serve/GC-helper sites fire when armed explicitly, and the
        // kill-budgeted ones respect a zero budget.
        install(ChaosConfig {
            seed: 42,
            rate: 1.0,
            sites: FaultSite::GcHelperPanic.bit()
                | FaultSite::ServeDrop.bit()
                | FaultSite::ServeSlow.bit()
                | FaultSite::ServePanic.bit(),
        });
        assert!(gc_helper_panic());
        assert!(serve_drop());
        assert!(serve_slow());
        assert!(serve_panic());
        set_kill_budget(0);
        assert!(!gc_helper_panic());
        assert!(!serve_panic());
        assert!(serve_drop(), "serve.drop is not kill-budgeted");
        set_kill_budget(-1);

        // The checkpoint crash sites fire when armed, return an in-bounds
        // seeded byte boundary, and respect the shared kill budget.
        install(ChaosConfig {
            seed: 42,
            rate: 1.0,
            sites: FaultSite::CkptCrash.bit() | FaultSite::CkptTornManifest.bit(),
        });
        let off = ckpt_crash(64).expect("armed ckpt.crash fires");
        assert!(off < 64, "crash boundary {off} out of range");
        let off = ckpt_torn_manifest(33).expect("armed ckpt.torn_manifest fires");
        assert!(off < 33, "torn boundary {off} out of range");
        assert_eq!(ckpt_crash(1), Some(0), "len 1 has a single boundary");
        set_kill_budget(0);
        assert!(ckpt_crash(64).is_none(), "ckpt.crash is kill-budgeted");
        assert!(ckpt_torn_manifest(64).is_none());
        set_kill_budget(-1);

        // Explicitly armed, they fire...
        install(ChaosConfig {
            seed: 42,
            rate: 1.0,
            sites: FaultSite::ThreadPanic.bit(),
        });
        assert!(thread_panic());
        // ...and thread.panic respects its kill budget.
        set_kill_budget(2);
        assert!(thread_panic());
        assert!(thread_panic());
        assert!(!thread_panic());
        assert!(!thread_panic());
        set_kill_budget(-1);
        assert!(thread_panic());

        // Rate 0 disables even with sites armed.
        install(ChaosConfig::new(42, 0.0));
        assert!(!enabled());
    }

    #[test]
    fn parse_accepts_the_documented_formats() {
        let c = ChaosConfig::parse("42:0.001").unwrap();
        assert_eq!(c.seed, 42);
        assert!((c.rate - 0.001).abs() < 1e-12);
        assert_eq!(c.sites, ALL_SITES);

        let c = ChaosConfig::parse("7:0.5:lock_acquire,alloc_fail").unwrap();
        assert_eq!(
            c.sites,
            FaultSite::LockAcquire.bit() | FaultSite::AllocFail.bit()
        );

        // Destructive sites parse by their dotted names.
        let c = ChaosConfig::parse("9:0.01:thread.panic").unwrap();
        assert_eq!(c.sites, FaultSite::ThreadPanic.bit());
        assert!(
            ChaosConfig::parse("9:0.01:snapshot.torn_write").is_none(),
            "ckpt.crash is the one tear site"
        );
        let c =
            ChaosConfig::parse("9:0.01:gc_helper.panic,serve.drop,serve.slow,serve.panic").unwrap();
        assert_eq!(
            c.sites,
            FaultSite::GcHelperPanic.bit()
                | FaultSite::ServeDrop.bit()
                | FaultSite::ServeSlow.bit()
                | FaultSite::ServePanic.bit()
        );
        let c = ChaosConfig::parse("9:0.01:ckpt.crash,ckpt.torn_manifest,ckpt.slow").unwrap();
        assert_eq!(
            c.sites,
            FaultSite::CkptCrash.bit()
                | FaultSite::CkptTornManifest.bit()
                | FaultSite::CkptSlow.bit()
        );

        assert!(ChaosConfig::parse("").is_none());
        assert!(ChaosConfig::parse("x:0.1").is_none());
        assert!(ChaosConfig::parse("1:2.0").is_none());
        assert!(ChaosConfig::parse("1:0.1:bogus_site").is_none());
    }
}
