//! Integration: telemetry v2 under chaos — panic-safe per-processor state
//! accounting across supervisor restarts, exact accounting of a busy
//! system's processors and GC pauses over a measured window, one record
//! per collection, and exact merging of the sharded counters / log₂
//! histograms under concurrent writers with the chaos scheduler perturbing
//! interleavings.
//!
//! The restart test arms the *destructive* `thread.panic` site, so this
//! file is its own test binary (one process per integration-test file) and
//! every test that arms chaos serializes on [`CHAOS_LOCK`].

use std::sync::atomic::{AtomicU64, Ordering};

use mst_core::{MsConfig, MsSystem, SupervisorPolicy, SystemState};
use mst_telemetry::timeline::{self, ProcState};
use mst_telemetry::{pauselog, Counter, Histogram};
use mst_vkernel::fault::{self, ChaosConfig, FaultSite};

/// The fault registry and the timeline enable flag are process-global:
/// tests that arm either must not overlap.
static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Disarms chaos and the timeline when dropped, so a failing assertion
/// cannot leave either armed for the rest of the binary.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disable();
        timeline::set_enabled(false);
    }
}

/// Polls `cond` every 10ms until it holds or `limit_ms` elapses.
fn wait_until(limit_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(limit_ms);
    loop {
        if cond() {
            return true;
        }
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Satellite (d): a worker killed by `thread.panic` chaos and respawned by
/// the Restart policy must never leak an open state interval — the RAII
/// session/guards close it during the unwind, accounting resumes after
/// recovery, and once the system shuts down every worker's state times sum
/// *exactly* to its observed lifetime.
#[test]
fn supervisor_restart_keeps_timeline_accounting_exact() {
    let _serial = chaos_lock();
    let _disarm = Disarm;
    timeline::reset();
    timeline::set_enabled(true);

    fault::install(ChaosConfig {
        seed: 0x7E11_ED00,
        rate: 1.0,
        sites: FaultSite::ThreadPanic.bit(),
    });
    fault::set_kill_budget(2);
    let mut ms = MsSystem::new(MsConfig {
        processors: 3, // two supervised workers: procs 1 and 2
        supervisor: SupervisorPolicy::Restart,
        ..MsConfig::default()
    });
    ms.spawn_competitors(2, false);
    assert!(
        wait_until(10_000, || {
            ms.processor_roster()
                .iter()
                .map(|r| r.restarts)
                .sum::<u64>()
                >= 2
        }),
        "expected two restarts, roster: {:?}",
        ms.processor_roster()
    );
    fault::disable();

    // Accounting must have survived the panics and still be live: the
    // respawned interpreters keep accumulating state time, and each has
    // claimed a competitor (a worker can die before its first claim, and
    // its respawn takes a moment to pick a Process up again).
    let before = timeline::snapshot();
    assert!(
        wait_until(5_000, || {
            let after = timeline::snapshot();
            [1usize, 2].iter().all(|&p| {
                let b = before.iter().find(|t| t.proc == p);
                let a = after.iter().find(|t| t.proc == p);
                matches!((b, a), (Some(b), Some(a))
                    if a.total_ns() > b.total_ns() && a.ns[ProcState::Mutator as usize] > 0)
            })
        }),
        "restarted workers must keep accumulating timeline state"
    );

    ms.shutdown();
    let snap = timeline::snapshot();
    for proc in [1usize, 2] {
        let t = snap
            .iter()
            .find(|t| t.proc == proc)
            .unwrap_or_else(|| panic!("worker {proc} never registered a timeline session"));
        assert_ne!(t.closed_ns, 0, "p{proc}: session leaked open past shutdown");
        // The exactness invariant: despite two injected panics mid-state,
        // the per-state nanoseconds partition the session to the nanosecond.
        assert_eq!(
            t.total_ns(),
            t.closed_ns - t.opened_ns,
            "p{proc}: state times must sum exactly to the session lifetime"
        );
        assert!(
            t.ns[ProcState::Mutator as usize] > 0,
            "p{proc}: competitors ran, mutator time must be nonzero"
        );
    }
}

/// A busy system's books balance over a measured window: every processor's
/// per-state nanoseconds sum to the window's wall clock within 1%, and
/// every GC pause it records is partitioned by its named phases within
/// 1 µs. Both collectors take phases as gaps between boundary timestamps
/// off one clock, so the pause check is an identity a loaded host cannot
/// miss; a gap means a phase timer of its own crept back in.
#[test]
fn busy_system_accounts_every_processor_and_every_pause() {
    let _serial = chaos_lock();
    let _disarm = Disarm;
    timeline::reset();
    timeline::set_enabled(true);
    pauselog::clear();
    // This thread runs the main interpreter: it is processor 0, and the
    // supervised workers register processors 1..N themselves.
    let _session = timeline::register(0);
    let state = SystemState::MsBusy4;
    let mut ms = MsSystem::new(MsConfig::for_state(state));
    ms.enter_state(state);
    let processors = ms.processor_roster().len() + 1;
    // The window must lie wholly inside every processor's session.
    assert!(
        wait_until(5_000, || timeline::snapshot().len() >= processors),
        "workers never registered timeline sessions"
    );
    let doit = ms
        .prepare("Benchmark printClassDefinition")
        .expect("benchmark compiles");

    let t0 = mst_telemetry::now_ns();
    let before = timeline::snapshot();
    for round in 0..4 {
        ms.run_prepared(&doit).expect("benchmark runs");
        ms.collect_garbage();
        if round % 2 == 1 {
            ms.full_collect();
        }
    }
    let after = timeline::snapshot();
    let wall_ns = mst_telemetry::now_ns() - t0;

    for proc in 0..processors {
        let find = |snap: &[timeline::ProcTimeline]| {
            snap.iter()
                .find(|t| t.proc == proc)
                .map(|t| t.total_ns())
                .unwrap_or_else(|| panic!("p{proc} has no timeline session"))
        };
        let accounted = find(&after) - find(&before);
        let drift_pct = accounted.abs_diff(wall_ns) as f64 * 100.0 / wall_ns as f64;
        assert!(
            drift_pct <= 1.0,
            "p{proc} accounted {accounted} of {wall_ns} window ns ({drift_pct:.2}% drift)"
        );
    }
    ms.shutdown();

    let (pauses, _dropped) = pauselog::snapshot();
    let kinds: std::collections::BTreeSet<_> = pauses.iter().map(|p| p.kind).collect();
    assert!(
        kinds.contains("scavenge") && kinds.contains("fullgc"),
        "the window must record both kinds of pause, got {kinds:?}"
    );
    for p in &pauses {
        assert!(
            p.attributed_ns().abs_diff(p.total_ns) <= 1_000,
            "{} pause at {} ns: phases sum to {} of {} ns",
            p.kind,
            p.start_ns,
            p.attributed_ns(),
            p.total_ns
        );
    }
}

/// Each collection is recorded once, by its owners: one `GcPause` record
/// (plus the `gc.pause.<kind>.total_ns` sample `pauselog::record` derives
/// from it) and one generation count. So `k` scavenges and one full
/// collection add exactly `k` and 1 of each, and nothing else keeps a
/// second copy of the pause to drift from them.
#[test]
fn each_collection_is_recorded_once() {
    let _serial = chaos_lock();
    let ms = MsSystem::new(MsConfig {
        processors: 1,
        ..MsConfig::default()
    });
    let k = 3;
    let samples = |kind: &str| {
        mst_telemetry::histogram(&format!("gc.pause.{kind}.total_ns"))
            .snapshot()
            .count
    };
    let records = |kind: &str| {
        let (log, dropped) = pauselog::snapshot();
        assert_eq!(dropped, 0, "the pause log kept every record");
        log.iter().filter(|p| p.kind == kind).count() as u64
    };
    pauselog::clear();
    let (scavenges, full_gcs) = (samples("scavenge"), samples("fullgc"));
    let stats = ms.mem().gc_stats();
    {
        let world = ms.vm().stop_world();
        for _ in 0..k {
            let outcome = world.scavenge().expect("old space has room");
            assert!(!outcome.full_gc_ran, "a roomy old space needs no full GC");
        }
        world.full_collect();
    }
    assert_eq!(samples("scavenge") - scavenges, k);
    assert_eq!(samples("fullgc") - full_gcs, 1);
    assert_eq!(records("scavenge"), k);
    assert_eq!(records("fullgc"), 1);
    let after = ms.mem().gc_stats();
    assert_eq!(after.scavenges - stats.scavenges, k);
    assert_eq!(after.full_gcs - stats.full_gcs, 1);
}

/// Tiny deterministic PRNG (splitmix64) for the concurrency properties.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WRITERS: usize = 8;
const OPS: usize = 20_000;

/// Satellite (c): concurrent writers on a sharded [`Counter`], with the
/// chaos scheduler stretching lock-hold windows between increments, merge
/// to exactly the serial sum — for several seeds.
#[test]
fn sharded_counter_merges_exactly_under_chaos() {
    let _serial = chaos_lock();
    let _disarm = Disarm;
    for trial_seed in [1u64, 0xDEAD_BEEF, 0x5EED_CAFE] {
        fault::install(ChaosConfig {
            seed: trial_seed,
            rate: 0.02,
            sites: FaultSite::LockAcquire.bit(),
        });
        static COUNTER: Counter = Counter::new();
        COUNTER.reset();
        let expected: u64 = (0..WRITERS as u64)
            .map(|w| {
                let mut s = trial_seed ^ w;
                (0..OPS).map(|_| splitmix(&mut s) % 1000).sum::<u64>()
            })
            .sum();
        std::thread::scope(|scope| {
            for w in 0..WRITERS as u64 {
                scope.spawn(move || {
                    let mut s = trial_seed ^ w;
                    for i in 0..OPS {
                        COUNTER.add(splitmix(&mut s) % 1000);
                        if i % 64 == 0 {
                            fault::lock_delay();
                        }
                    }
                });
            }
        });
        assert_eq!(
            COUNTER.get(),
            expected,
            "seed {trial_seed:#x}: sharded merge lost or duplicated adds"
        );
        fault::disable();
    }
}

/// Satellite (c), histogram half: concurrent `record`s into one log₂
/// [`Histogram`] produce exactly the serial bucket counts, sample count,
/// sum, and max — no sample lands in the wrong bucket and none is lost,
/// whatever interleaving the chaos scheduler provokes.
#[test]
fn log2_histogram_merges_exactly_under_chaos() {
    let _serial = chaos_lock();
    let _disarm = Disarm;
    for trial_seed in [2u64, 0xFACE_FEED] {
        fault::install(ChaosConfig {
            seed: trial_seed,
            rate: 0.02,
            sites: FaultSite::LockAcquire.bit(),
        });
        static HIST: Histogram = Histogram::new();
        HIST.reset();
        // Serial expectation over the identical per-writer streams.
        let mut want_buckets = [0u64; 65];
        let (mut want_sum, mut want_max) = (0u64, 0u64);
        for w in 0..WRITERS as u64 {
            let mut s = trial_seed ^ w;
            for _ in 0..OPS {
                // Spread samples across many octaves (0..2^40).
                let v = splitmix(&mut s) >> (24 + (splitmix(&mut s) % 32));
                want_buckets[Histogram::bucket_of(v)] += 1;
                want_sum += v;
                want_max = want_max.max(v);
            }
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS as u64 {
                scope.spawn(move || {
                    let mut s = trial_seed ^ w;
                    for i in 0..OPS {
                        let v = splitmix(&mut s) >> (24 + (splitmix(&mut s) % 32));
                        HIST.record(v);
                        if i % 64 == 0 {
                            fault::lock_delay();
                        }
                    }
                });
            }
        });
        let snap = HIST.snapshot();
        assert_eq!(snap.count, (WRITERS * OPS) as u64, "seed {trial_seed:#x}");
        assert_eq!(snap.sum, want_sum, "seed {trial_seed:#x}");
        assert_eq!(snap.max, want_max, "seed {trial_seed:#x}");
        for (i, (&got, &want)) in snap.buckets.iter().zip(&want_buckets).enumerate() {
            assert_eq!(got, want, "seed {trial_seed:#x}: bucket {i} diverged");
        }
    }
}

/// The flat [`timeline::transition`] and scoped guards must stay exact when
/// many registered processors transition concurrently (each thread owns its
/// slot; the snapshot merges cross-thread).
#[test]
fn concurrent_processors_account_independently() {
    let _serial = chaos_lock();
    let _disarm = Disarm;
    timeline::reset();
    timeline::set_enabled(true);
    static SPINS: AtomicU64 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for proc in 10..10 + 6usize {
            scope.spawn(move || {
                let session = timeline::register(proc);
                for _ in 0..500 {
                    timeline::transition(ProcState::Mutator);
                    {
                        let _g = timeline::enter_state(ProcState::LockSpin);
                        SPINS.fetch_add(1, Ordering::Relaxed);
                    }
                    timeline::transition(ProcState::Idle);
                }
                drop(session);
            });
        }
    });
    let snap = timeline::snapshot();
    for proc in 10..16usize {
        let t = snap
            .iter()
            .find(|t| t.proc == proc)
            .unwrap_or_else(|| panic!("proc {proc} missing from snapshot"));
        assert_ne!(t.closed_ns, 0);
        assert_eq!(
            t.total_ns(),
            t.closed_ns - t.opened_ns,
            "p{proc}: concurrent sessions must stay exact"
        );
    }
    assert_eq!(SPINS.load(Ordering::Relaxed), 6 * 500);
}
