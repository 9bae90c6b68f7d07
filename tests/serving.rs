//! Integration: the serving layer's robustness envelope — deadline
//! termination, snapshot-template reuse, crash-only tenant recovery, a
//! victim tenant's faults confined to it, GC-helper panic containment, and
//! recovery from a death inside the checkpoint commit protocol.
//!
//! Some tests arm *destructive* fault sites (`gc_helper.panic`,
//! `serve.panic`), which kill any injectable thread in the process — so
//! they live in this dedicated test binary and serialize on
//! [`CHAOS_LOCK`], keeping the kills away from the systems the other test
//! binaries build concurrently.

use std::time::{Duration, Instant};

use mst_core::testing::{Gen, Runner};
use mst_core::{
    prop_assert, prop_assert_eq, EvalError, MsConfig, MsSystem, SnapshotTemplate, SupervisorPolicy,
    Value,
};
use mst_objmem::{MemoryConfig, ObjectMemory};
use mst_serve::{
    chains_from_records, scan_manifest, Backoff, CheckpointPolicy, CheckpointStore, Commit, Record,
    RecoverySource, ServeConfig, ServeError, Server,
};
use mst_vkernel::fault::{self, ChaosConfig, FaultSite};
use mst_vkernel::WatchdogPolicy;

/// The fault registry is process-global, so tests that arm chaos must not
/// overlap (an `install` would reset another test's site mask and kill
/// budget mid-flight).
static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Tests that assert exact `serve.checkpoint_fallback` deltas (a
/// process-global counter) take turns.
static FALLBACK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fallback_lock() -> std::sync::MutexGuard<'static, ()> {
    FALLBACK_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Disarms the process-global fault registry (and restores its default
/// stall) when dropped, so a failing assertion cannot leave chaos armed for
/// the rest of the test binary.
struct DisarmChaos;
impl Drop for DisarmChaos {
    fn drop(&mut self) {
        fault::disable();
        fault::set_stall_ns(200_000);
    }
}

/// Arms `ckpt.slow` alone, always firing: each committed image stalls for
/// `stall` before its first fsync.
fn stall_the_committer(stall: Duration) {
    fault::set_stall_ns(stall.as_nanos() as u64);
    fault::install(ChaosConfig {
        seed: 0x5EED_C0DE_5107,
        rate: 1.0,
        sites: FaultSite::CkptSlow.bit(),
    });
}

/// The `Commit` records in `dir`'s MANIFEST, decoded from its raw bytes
/// without going through a store.
fn raw_commits(dir: &std::path::Path) -> Vec<Commit> {
    let raw = std::fs::read(dir.join("MANIFEST")).unwrap_or_default();
    scan_manifest(&raw)
        .records
        .into_iter()
        .filter_map(|r| match r {
            Record::Commit(c) => Some(c),
            Record::Prune { .. } => None,
        })
        .collect()
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

fn small_config() -> MsConfig {
    MsConfig {
        processors: 2,
        memory: MemoryConfig {
            old_words: 2 << 20,
            eden_words: 64 << 10,
            survivor_words: 24 << 10,
            ..MemoryConfig::default()
        },
        ..MsConfig::default()
    }
}

/// A doit that spins forever without allocating: only the safepoint
/// deadline check can stop it.
const SPIN: &str = "[true] whileTrue";
/// A doit that allocates garbage forever: it reaches safepoints rarely
/// (most time is spent in allocation/scavenge cycles), exercising the
/// deadline check at collection entry.
const ALLOC_SPIN: &str = "[true] whileTrue: [Array new: 20000]";

fn assert_deadline_error(err: &EvalError) {
    assert!(
        matches!(err, EvalError::DeadlineExpired),
        "expected a deadline termination, got: {err}"
    );
}

/// Runs `body` on a thread of its own and fails if it has not finished
/// within `limit`, so a doit that never answers fails the test instead of
/// hanging the binary.
fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => runner.join().expect("the body finished"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the body panicked"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no answer after {limit:?}")
        }
    }
}

/// Core satellite: an infinite-loop doit and an allocation-bound doit both
/// terminate within 2x the deadline, the heap audits clean afterwards, and
/// the session keeps serving.
#[test]
fn deadline_terminates_runaway_doits_cleanly() {
    let mut ms = MsSystem::new(small_config());
    let deadline = Duration::from_millis(250);
    for (name, src) in [("spin", SPIN), ("alloc", ALLOC_SPIN)] {
        let p = ms.prepare(src).expect("runaway doit compiles");
        let t0 = Instant::now();
        let err = ms
            .run_prepared_with_deadline(&p, deadline)
            .expect_err("runaway doit must not return a value");
        let elapsed = t0.elapsed();
        assert_deadline_error(&err);
        assert!(
            elapsed < deadline * 2,
            "{name}: terminated after {elapsed:?}, over 2x the {deadline:?} budget"
        );
        let audit = ms.audit_heap();
        assert!(
            audit.is_clean(),
            "{name}: dirty heap after termination:\n{audit}"
        );
        // The session survives and serves the next request.
        assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    }
    ms.shutdown();
}

/// A watched doit that blocks on a Semaphore or suspends itself runs
/// nowhere, so no safepoint sees its deadline: its watcher ends it there.
/// One that terminates itself answers at once. Either way the tenant keeps
/// serving on the same epoch with a clean heap.
#[test]
fn a_doit_that_blocks_suspends_or_terminates_itself_answers() {
    within(Duration::from_secs(60), "self-blocking doits", || {
        let dir = temp_dir("self_blocking");
        let config = small_config();
        let template = make_template(&dir, config);
        let deadline = Duration::from_millis(200);
        let serve = ServeConfig {
            processors: 2,
            deadline,
            ..ServeConfig::default()
        };
        let server = Server::new(template, config, serve, 1);
        server.request(0, "3 + 4").expect("warmup");
        let epoch = server.epoch(0);
        for (src, expires) in [
            ("Semaphore new wait. 3", true),
            ("Processor activeProcess suspend. 3", true),
            ("Processor activeProcess terminate. 3", false),
        ] {
            let t0 = Instant::now();
            let err = server.request(0, src).expect_err(src);
            let elapsed = t0.elapsed();
            if expires {
                assert!(matches!(err, ServeError::DeadlineExpired), "{src}: {err}");
            } else {
                assert!(
                    matches!(&err, ServeError::Runtime(msg) if msg.contains("terminated")),
                    "{src}: {err}"
                );
            }
            assert!(
                elapsed < deadline + Duration::from_secs(1),
                "{src}: answered after {elapsed:?}"
            );
            let next = server.request(0, "3 + 4").expect("the next request");
            assert_eq!(next.value, Value::Int(7), "{src}");
            assert_eq!(server.epoch(0), epoch, "{src}: the tenant was respawned");
            let audit = server.audit(0).expect("a warm tenant");
            assert!(audit.is_clean(), "{src}: dirty heap:\n{audit}");
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A doit's end is typed: terminated by itself or by another Process, it
/// answers `Terminated`. (A doit blocked with no deadline keeps waiting
/// for the Process that signals it; `tests/idle.rs` covers that.)
#[test]
fn a_terminated_doit_answers_terminated() {
    within(Duration::from_secs(60), "terminated doits", || {
        let mut ms = MsSystem::new(small_config());
        for src in [
            "Processor activeProcess terminate. 3",
            "| p | p := Processor activeProcess.
             [[Processor canRun: p] whileTrue: [Processor yield]. p terminate] fork.
             Semaphore new wait. 3",
        ] {
            let err = ms.evaluate(src).expect_err(src);
            assert!(matches!(err, EvalError::Terminated), "{src}: {err}");
            assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7), "{src}");
            assert!(ms.audit_heap().is_clean(), "{src}");
        }
        ms.shutdown();
    });
}

/// A doit that finishes inside its budget is unaffected by the deadline
/// plumbing, and the armed deadline does not leak to the next doit.
#[test]
fn deadline_does_not_fire_on_fast_doits() {
    let mut ms = MsSystem::new(small_config());
    let p = ms
        .prepare("(1 to: 100) inject: 0 into: [:a :b | a + b]")
        .unwrap();
    let v = ms
        .run_prepared_with_deadline(&p, Duration::from_secs(10))
        .expect("fast doit completes inside its budget");
    assert_eq!(v, Value::Int(5050));
    // The budget was cleared: an ordinary run has no deadline.
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    ms.shutdown();
}

fn make_template(dir: &std::path::Path, config: MsConfig) -> mst_core::SnapshotTemplate {
    let path = dir.join("template.image");
    let ms = MsSystem::new(config);
    ms.save_snapshot_file(&path).expect("template saves");
    ms.shutdown();
    MsSystem::load_template(&path, config).expect("template loads")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mst_serving_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Satellite: four tenants running runaway doits concurrently all get
/// terminated by their own deadline without cross-talk.
#[test]
fn deadline_terminates_four_concurrent_tenants() {
    let dir = temp_dir("deadline4");
    let config = small_config();
    let template = make_template(&dir, config);
    let deadline = Duration::from_millis(300);
    let server = Server::new(
        template,
        config,
        ServeConfig {
            processors: 2,
            deadline,
            ..ServeConfig::default()
        },
        4,
    );
    // Warm the sessions so template instantiation is not on the timed path.
    for t in 0..4 {
        server.request(t, "3 + 4").expect("warmup");
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = &server;
                s.spawn(move || {
                    let src = if t % 2 == 0 { SPIN } else { ALLOC_SPIN };
                    let t0 = Instant::now();
                    let err = server.request(t, src).expect_err("runaway doit");
                    let elapsed = t0.elapsed();
                    assert!(
                        matches!(err, ServeError::DeadlineExpired),
                        "tenant {t}: expected deadline expiry, got {err}"
                    );
                    assert!(
                        elapsed < deadline * 2,
                        "tenant {t}: took {elapsed:?}, over 2x the {deadline:?} budget"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("tenant thread");
        }
    });
    // Every session stayed consistent and keeps serving.
    for t in 0..4 {
        let r = server.request(t, "6 * 7").expect("post-deadline doit");
        assert_eq!(r.value, Value::Int(42));
        assert_eq!(server.restarts(t), 0, "deadline expiry is not a crash");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: loading the same snapshot twice in one process yields
/// consistent, fully independent images — interned symbols behave, and
/// divergence in one session is invisible to the other and to later
/// instantiations of the template.
#[test]
fn snapshot_template_loads_twice_and_diverges_independently() {
    let dir = temp_dir("template");
    let config = small_config();
    let path = dir.join("template.image");
    {
        let mut ms = MsSystem::new(config);
        ms.evaluate("Benchmark class compile: 'answer ^41'")
            .unwrap();
        ms.save_snapshot_file(&path).expect("template saves");
        ms.shutdown();
    }
    let template = MsSystem::load_template(&path, config).expect("template loads");

    // Load twice in the same process: both images must have consistent
    // specials and symbol interning (a symbol interned at load time is
    // `==` to the same symbol interned by running code).
    let mut a = MsSystem::from_template(&template, config).expect("first load");
    let mut b = MsSystem::from_template(&template, config).expect("second load");
    for ms in [&mut a, &mut b] {
        assert_eq!(
            ms.evaluate("#answer == #answer").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(ms.evaluate("Benchmark answer").unwrap(), Value::Int(41));
        assert_eq!(
            ms.evaluate("(3 @ 4) printString").unwrap(),
            Value::Str("3@4".into())
        );
    }

    // Diverge session A: recompile the method and intern new symbols.
    a.evaluate("Benchmark class compile: 'answer ^42'").unwrap();
    a.evaluate("#aFreshlyDivergedSymbol size").unwrap();
    assert_eq!(a.evaluate("Benchmark answer").unwrap(), Value::Int(42));
    // Session B and a third instantiation still see the template's state.
    assert_eq!(b.evaluate("Benchmark answer").unwrap(), Value::Int(41));
    let mut c = MsSystem::from_template(&template, config).expect("third load");
    assert_eq!(c.evaluate("Benchmark answer").unwrap(), Value::Int(41));

    for ms in [a, b, c] {
        let audit = ms.audit_heap();
        assert!(audit.is_clean(), "dirty heap:\n{audit}");
        ms.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Through a server, a `new:` no heap could hold answers a `Runtime`
/// error, not a session crash: the epoch does not move and the tenant
/// keeps serving.
#[test]
fn new_beyond_any_heap_answers_a_runtime_error() {
    let dir = temp_dir("huge_new");
    let config = small_config();
    let template = make_template(&dir, config);
    let server = Server::new(template, config, ServeConfig::default(), 1);
    server.request(0, "3 + 4").expect("warmup");
    let epoch = server.epoch(0);
    for src in ["Array new: 100000000", "Array new: 1073741824"] {
        let err = server.request(0, src).expect_err(src);
        assert!(matches!(err, ServeError::Runtime(_)), "{src}: {err}");
        assert_eq!(server.epoch(0), epoch, "{src}: the session did not crash");
    }
    assert_eq!(server.request(0, "3 + 4").unwrap().value, Value::Int(7));
    assert!(server.audit(0).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole acceptance: a mid-doit panic in one tenant crashes only that
/// tenant's session; it is respawned from the template at a higher epoch
/// while the other tenants keep serving with zero errors.
#[test]
fn tenant_crash_is_contained_and_recovered() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("crash");
    let config = small_config();
    let template = make_template(&dir, config);
    let server = Server::new(
        template,
        config,
        ServeConfig {
            processors: 2,
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        3,
    );
    for t in 0..3 {
        server.request(t, "3 + 4").expect("warmup");
    }
    let epoch_before = server.epoch(0);

    // Arm ONLY the mid-doit panic, always-fire, one kill, victim tenant 0.
    fault::install(ChaosConfig {
        seed: 0x5EED_5E12_7E00_0003,
        rate: 1.0,
        sites: FaultSite::ServePanic.bit(),
    });
    fault::set_kill_budget(1);
    server.set_victim(Some(0));

    let err = server
        .request(0, "(1 to: 1000000) inject: 0 into: [:a :b | a + b]")
        .expect_err("victim doit must crash");
    match err {
        ServeError::SessionCrashed { epoch } => {
            assert_eq!(epoch, epoch_before + 1, "respawn bumps the epoch")
        }
        other => panic!("expected a session crash, got {other}"),
    }
    assert_eq!(server.restarts(0), 1);
    fault::disable();
    server.set_victim(None);

    // The victim's fresh session serves again; the others never noticed.
    let r = server
        .request(0, "6 * 7")
        .expect("respawned session serves");
    assert_eq!(r.value, Value::Int(42));
    assert_eq!(r.epoch, epoch_before + 1);
    for t in 1..3 {
        let r = server.request(t, "6 * 7").expect("bystander tenant");
        assert_eq!(r.value, Value::Int(42));
        assert_eq!(server.restarts(t), 0, "bystander session never crashed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `requests` doits of a mixed workload through `tenant`, retrying
/// retryable failures (rejects, drops, crash respawns, expired deadlines)
/// with seeded exponential backoff. Answers (served, terminal errors).
fn drive_mix(server: &Server, tenant: usize, requests: usize, seed: u64) -> (usize, Vec<String>) {
    const MIX: &[&str] = &[
        "(1 to: 50) inject: 0 into: [:a :b | a + b]",
        "| o | o := OrderedCollection new. 1 to: 40 do: [:i | o add: i * i]. o size",
        "'serve' , '/' , 42 printString",
        "[:a :b | a * b] value: 6 value: 7",
    ];
    let mut backoff = Backoff::new(seed, Duration::from_micros(200), Duration::from_millis(20));
    let (mut served, mut errors) = (0, Vec::new());
    for i in 0..requests {
        for attempt in 1.. {
            match server.request(tenant, MIX[i % MIX.len()]) {
                Ok(_) => {
                    served += 1;
                    backoff.reset();
                }
                Err(
                    ServeError::Rejected(_)
                    | ServeError::Dropped
                    | ServeError::SessionCrashed { .. }
                    | ServeError::DeadlineExpired,
                ) if attempt < 16 => {
                    std::thread::sleep(backoff.next_delay());
                    continue;
                }
                Err(e) => errors.push(format!("tenant {tenant} request {i}: {e}")),
            }
            break;
        }
    }
    (served, errors)
}

/// Blast radius: while every tenant drives load concurrently, one victim
/// tenant has its requests dropped, stalled and panicked mid-doit. Every
/// other tenant serves every request with no error and no session crash,
/// and the victim serves again once the faults stop.
#[test]
fn victim_faults_never_reach_the_other_tenants() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("blast_radius");
    let config = small_config();
    let template = make_template(&dir, config);
    // At rate 0.3 over 24 victim requests, a site that never fires has odds
    // under 1 in 5 000.
    let (tenants, requests, victim) = (4, 24, 0);
    let server = Server::new(
        template,
        config,
        ServeConfig {
            processors: 2,
            deadline: Duration::from_secs(5),
            queue_cap: 8,
            queue_wait_limit: Duration::from_secs(5),
            slow_stall: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        tenants,
    );
    for t in 0..tenants {
        server.request(t, "3 + 4").expect("warmup");
    }
    let fired = || {
        ["chaos.serve_drop", "chaos.serve_slow", "chaos.serve_panic"]
            .map(|c| mst_telemetry::counter(c).get())
    };
    let fired_before = fired();
    fault::install(ChaosConfig {
        seed: 0x5EED_C8A0_5E12_7E00,
        rate: 0.3,
        sites: FaultSite::ServeDrop.bit()
            | FaultSite::ServeSlow.bit()
            | FaultSite::ServePanic.bit(),
    });
    fault::set_kill_budget(2);
    server.set_victim(Some(victim));
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = (0..tenants)
            .map(|t| s.spawn(move || drive_mix(server, t, requests, 0x5EED ^ t as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread"))
            .collect()
    });
    fault::disable();
    server.set_victim(None);

    let fired_after = fired();
    assert!(
        (0..3).all(|i| fired_after[i] > fired_before[i]),
        "every serve fault must fire on the victim: {fired_before:?} -> {fired_after:?}"
    );
    for (t, (served, errors)) in outcomes.iter().enumerate() {
        if t == victim {
            continue;
        }
        assert!(errors.is_empty(), "bystander tenant {t} failed: {errors:?}");
        assert_eq!(
            *served, requests,
            "bystander tenant {t} served every request"
        );
        assert_eq!(server.restarts(t), 0, "bystander tenant {t} never crashed");
    }
    let r = server
        .request(victim, "6 * 7")
        .expect("the victim serves once the faults stop");
    assert_eq!(r.value, Value::Int(42));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: a tenant whose session is busy sheds excess load
/// with a structured queue-full rejection instead of queueing unboundedly.
#[test]
fn admission_rejects_queue_overflow() {
    let dir = temp_dir("admission");
    let config = small_config();
    let template = make_template(&dir, config);
    let server = Server::new(
        template,
        config,
        ServeConfig {
            processors: 2,
            // Generous: the saturating doits must finish, not expire.
            deadline: Duration::from_secs(60),
            queue_cap: 2,
            queue_wait_limit: Duration::from_secs(120),
            ..ServeConfig::default()
        },
        1,
    );
    server.request(0, "3 + 4").expect("warmup");
    std::thread::scope(|s| {
        // Saturate the tenant: one long doit executing, one queued.
        let holders: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| server.request(0, "(1 to: 400000) inject: 0 into: [:a :b | a + b]"))
            })
            .collect();
        // Give the holders time to enter the queue.
        std::thread::sleep(Duration::from_millis(100));
        let mut saw_reject = false;
        for _ in 0..50 {
            match server.request(0, "3 + 4") {
                Err(ServeError::Rejected(_)) => {
                    saw_reject = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(
            saw_reject,
            "an over-cap burst must see a structured rejection"
        );
        for h in holders {
            h.join().expect("holder").expect("long doit completes");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a GC helper panicking during parallel scavenge and parallel
/// mark never hangs the rendezvous — the collection completes on the
/// survivors (fail loudly is acceptable; silence is not), the supervisor
/// absorbs the dead workers, and the system keeps executing.
#[test]
fn gc_helper_panic_never_hangs_scavenge_or_mark() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    fault::install(ChaosConfig {
        seed: 0x5EED_6C4E_19E1_2BAD,
        rate: 1.0,
        sites: FaultSite::GcHelperPanic.bit(),
    });
    fault::set_kill_budget(2);
    let mut ms = MsSystem::new(MsConfig {
        processors: 3,
        memory: MemoryConfig {
            old_words: 2 << 20,
            eden_words: 64 << 10,
            survivor_words: 24 << 10,
            gc_helpers: 3,
            ..MemoryConfig::default()
        },
        supervisor: SupervisorPolicy::Degrade,
        ..MsConfig::default()
    });
    // A wedged rendezvous is the failure mode under test: give the
    // watchdog a generous budget, then fail loudly instead of hanging.
    ms.vm().rendezvous.set_watchdog(60_000);
    ms.vm()
        .rendezvous
        .set_watchdog_policy(WatchdogPolicy::Panic);

    let fired_before = mst_telemetry::counter("chaos.gc_helper_panic").get();
    // Parallel scavenge with worker interpreters donated as helpers: every
    // claimed helper slot panics at entry (rate 1.0) until the kill budget
    // runs out. The collection must still complete on the leader.
    ms.collect_garbage();
    // Churn the heap and scavenge again, then run a full parallel mark.
    ms.evaluate(
        "| o | o := OrderedCollection new. 1 to: 2000 do: [:i | o add: i printString]. o size",
    )
    .expect("allocating doit under gc chaos");
    ms.collect_garbage();
    ms.full_collect();

    // The system is alive and consistent on the surviving processors.
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    fault::disable();
    let audit = ms.audit_heap();
    assert!(audit.is_clean(), "dirty heap after helper panics:\n{audit}");
    let fired = mst_telemetry::counter("chaos.gc_helper_panic").get() - fired_before;
    println!(
        "gc_helper.panic fired {fired} times; {} workers still online",
        ms.processors_online()
    );
    ms.shutdown();
}

/// Satellite: with `gc_helper.panic` armed, a full collection whose
/// compaction helpers are being killed at phase entry still produces a
/// heap observationally identical to the chaos-free serial compactor —
/// same reclaimed words, same extent, same reachable graph, clean audit.
#[test]
fn gc_helper_panic_leaves_compaction_observationally_serial() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    use mst_objmem::{ObjFormat, ObjectMemory, Oop, RootHandle, So};

    fn fresh() -> ObjectMemory {
        let m = ObjectMemory::new(MemoryConfig {
            old_words: 256 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        let nil = m
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
            .unwrap();
        m.specials().set(So::Nil, nil);
        m
    }
    /// Spine of lanes of cons cells with interleaved garbage, so live
    /// objects really slide during compaction.
    fn build(m: &ObjectMemory) -> RootHandle {
        let spine = m.alloc_array_old(24).unwrap();
        let root = m.new_root(spine);
        for lane in 0..24usize {
            let mut head = m.nil();
            for i in 0..40usize {
                let cell = m.alloc_array_old(2).unwrap();
                m.store(cell, 0, Oop::from_small_int((lane * 1000 + i) as i64));
                m.store(cell, 1, head);
                head = cell;
                if i % 3 == 0 {
                    m.alloc_array_old(7).unwrap(); // garbage
                }
            }
            m.store(spine, lane, head);
        }
        root
    }
    fn signature(m: &ObjectMemory, spine: Oop) -> u64 {
        let mut sig = 0u64;
        for lane in 0..24usize {
            let mut cur = m.fetch(spine, lane);
            while cur != m.nil() {
                sig = sig
                    .wrapping_mul(1099511628211)
                    .wrapping_add(m.fetch(cur, 0).as_small_int() as u64);
                cur = m.fetch(cur, 1);
            }
        }
        sig
    }
    /// Like a stopped world donating helpers, but injected helper panics
    /// are contained per thread (the rendezvous absorbs them in
    /// production; a bare `thread::scope` would re-raise at join).
    fn chaos_runner(helpers: usize, f: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            for slot in 1..helpers {
                s.spawn(move || {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(slot)));
                });
            }
            f(0);
        });
    }

    // Chaos-free serial reference run.
    let serial = fresh();
    let sroot = build(&serial);
    let s_out = serial.full_gc_with(1, |_n, f: &(dyn Fn(usize) + Sync)| f(0));
    assert!(s_out.report.is_clean());
    let ssig = signature(&serial, sroot.get());

    // Identical heap compacted with 4 helpers while gc_helper.panic kills
    // the first few helper entries (mark and compaction phases both check
    // the site at slot entry).
    let parallel = fresh();
    let proot = build(&parallel);
    let fired_before = mst_telemetry::counter("chaos.gc_helper_panic").get();
    fault::install(ChaosConfig {
        seed: 0x5EED_C09A_C710_2BAD,
        rate: 1.0,
        sites: FaultSite::GcHelperPanic.bit(),
    });
    fault::set_kill_budget(3);
    let p_out = parallel.full_gc_with(4, chaos_runner);
    fault::disable();
    let fired = mst_telemetry::counter("chaos.gc_helper_panic").get() - fired_before;
    assert!(fired > 0, "chaos site never fired — test is vacuous");
    assert!(p_out.report.is_clean(), "report: {}", p_out.report);

    assert_eq!(s_out.reclaimed_words, p_out.reclaimed_words);
    assert_eq!(serial.old_used(), parallel.old_used());
    assert_eq!(ssig, signature(&parallel, proot.get()), "graphs diverged");
    for (m, name) in [(&serial, "serial"), (&parallel, "parallel")] {
        let audit = m.verify_heap();
        assert!(audit.is_clean(), "dirty {name} heap:\n{audit}");
    }
    println!("gc_helper.panic fired {fired} times during chaos compaction");
}

/// Tentpole: whole-process crash recovery. A fleet serves, checkpoints
/// through the manifest (including a chaos crash that bumps one tenant's
/// epoch and restart count), the process "dies" (the server is dropped),
/// and [`Server::recover`] must reconstruct every tenant — session,
/// epoch, restarts — from the checkpoint directory alone.
#[test]
fn recover_restores_epochs_restarts_and_sessions_after_process_death() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("recover");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        deadline: Duration::from_secs(5),
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint: mst_serve::CheckpointPolicy {
            every_requests: Some(1),
            on_degrade: false,
        },
        retain: 2,
        ..ServeConfig::default()
    };

    let server = Server::new(template.clone(), config, cfg.clone(), 2);
    for t in 0..2 {
        server.request(t, "3 + 4").expect("warmup doit");
    }
    // Crash tenant 0 so its respawn bumps the epoch; the next successful
    // request auto-commits at epoch 2 with restarts = 1 on record.
    fault::install(ChaosConfig {
        seed: 0x5EED_0C0E_0001,
        rate: 1.0,
        sites: FaultSite::ServePanic.bit(),
    });
    fault::set_kill_budget(1);
    server.set_victim(Some(0));
    server
        .request(0, "(1 to: 1000000) inject: 0 into: [:a :b | a + b]")
        .expect_err("victim doit must crash");
    fault::disable();
    server.set_victim(None);
    server
        .request(0, "6 * 7")
        .expect("respawned session serves");
    assert_eq!(server.epoch(0), 2);
    assert_eq!(server.restarts(0), 1);

    // Process death: nothing survives but the checkpoint directory.
    drop(server);

    let (server, report) = Server::recover(template, config, cfg, 2);
    assert_eq!(
        report.tenants[0].source,
        mst_serve::RecoverySource::Checkpoint { epoch: 2 },
        "tenant 0 resumes at its newest committed epoch"
    );
    assert_eq!(
        report.tenants[1].source,
        mst_serve::RecoverySource::Checkpoint { epoch: 1 }
    );
    assert_eq!(server.epoch(0), 2);
    assert_eq!(server.restarts(0), 1, "restart count survives the death");
    assert_eq!(server.epoch(1), 1);
    for t in 0..2 {
        let audit = server.audit(t).expect("recovered session audits");
        assert_eq!(audit.error_count, 0, "dirty recovered heap: {audit:?}");
        let r = server
            .request(t, "6 * 7")
            .expect("recovered session serves");
        assert_eq!(r.value, Value::Int(42));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the `serve.checkpoint_fallback` path. Corrupt the newest
/// committed checkpoint on disk: recovery must count the fallback and
/// resume from the next chain entry; corrupt the whole chain and it must
/// fall to the template one epoch above everything committed.
#[test]
fn checkpoint_fallback_walks_the_chain_past_corruption() {
    let _counter = fallback_lock();
    let dir = temp_dir("fallback_chain");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        retain: 4,
        ..ServeConfig::default()
    };

    // Build a two-epoch chain: commit at epoch 1, restart the process,
    // commit again at epoch 2 (the reopened server seeds its epoch from
    // the manifest, so the next spawn lands above it).
    let server = Server::new(template.clone(), config, cfg.clone(), 1);
    server.request(0, "3 + 4").expect("doit");
    server.checkpoint(0).expect("commit at epoch 1");
    drop(server);
    let server = Server::new(template.clone(), config, cfg.clone(), 1);
    server.request(0, "4 + 5").expect("doit");
    assert_eq!(
        server.epoch(0),
        2,
        "fresh spawn lands above committed epoch"
    );
    server.checkpoint(0).expect("commit at epoch 2");
    let chain = server.store().unwrap().chain(0);
    assert_eq!(
        chain.iter().map(|c| c.epoch).collect::<Vec<_>>(),
        vec![2, 1]
    );
    drop(server);

    // Corrupt the newest (epoch 2) image mid-file.
    let newest = ckpt_dir.join(chain[0].file_name());
    let mut bytes = std::fs::read(&newest).expect("newest checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&newest, &bytes).expect("rewrite corrupted image");

    let fallbacks_before = mst_telemetry::counter("serve.checkpoint_fallback").get();
    let (server, report) = Server::recover(template.clone(), config, cfg.clone(), 1);
    assert_eq!(
        report.tenants[0].source,
        mst_serve::RecoverySource::Checkpoint { epoch: 1 },
        "recovery falls down the chain past the corrupt newest entry"
    );
    assert_eq!(
        mst_telemetry::counter("serve.checkpoint_fallback").get(),
        fallbacks_before + 1,
        "exactly one fallback: the corrupt epoch-2 image"
    );
    assert_eq!(server.request(0, "6 * 7").unwrap().value, Value::Int(42));
    drop(server);

    // Corrupt epoch 1 as well: the whole chain is gone, so recovery must
    // fall to the template one generation above everything committed.
    let older = ckpt_dir.join(chain[1].file_name());
    let mut bytes = std::fs::read(&older).expect("older checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&older, &bytes).expect("rewrite corrupted image");

    let fallbacks_before = mst_telemetry::counter("serve.checkpoint_fallback").get();
    let (server, report) = Server::recover(template, config, cfg, 1);
    assert_eq!(
        report.tenants[0].source,
        mst_serve::RecoverySource::Template
    );
    assert_eq!(server.epoch(0), 3, "template session lands above the chain");
    assert_eq!(
        mst_telemetry::counter("serve.checkpoint_fallback").get(),
        fallbacks_before + 2,
        "both chain entries counted as fallbacks"
    );
    assert_eq!(server.request(0, "6 * 7").unwrap().value, Value::Int(42));
    let _ = std::fs::remove_dir_all(&dir);
}

/// What only the commit record catches: an image whose every section CRC
/// is good but whose length or whole-file CRC is not the committed one —
/// trailing bytes appended, or a valid image of another epoch copied over
/// the newest. Either loads on its own; recovery must not boot from it,
/// and falls down the chain instead, counting the fallback.
#[test]
fn recovery_falls_back_past_images_only_the_record_catches() {
    let _counter = fallback_lock();
    let dir = temp_dir("record_only");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        retain: 4,
        ..ServeConfig::default()
    };
    // A two-epoch chain, as in the corruption test above.
    let paths: Vec<_> = [(1, "3 + 4"), (2, "4 + 5")]
        .into_iter()
        .map(|(epoch, doit)| {
            let server = Server::new(template.clone(), config, cfg.clone(), 1);
            server.request(0, doit).expect("doit");
            assert_eq!(server.epoch(0), epoch);
            server.checkpoint(0).expect("commit")
        })
        .collect();
    let newest = &paths[1];
    let pristine = std::fs::read(newest).expect("newest checkpoint exists");
    let older = std::fs::read(&paths[0]).expect("older exists");
    assert_ne!(older, pristine, "the two epochs' images differ");

    let fallbacks = mst_telemetry::counter("serve.checkpoint_fallback");
    for (what, image) in [
        ("trailing bytes", [&pristine[..], b"trailing"].concat()),
        ("the epoch-1 image", older),
    ] {
        assert!(
            ObjectMemory::load_snapshot(&mut &image[..], config.memory_config()).is_ok(),
            "{what}: every section checks out"
        );
        std::fs::write(newest, &image).expect("replace the newest image");
        let before = fallbacks.get();
        let (server, report) = Server::recover(template.clone(), config, cfg.clone(), 1);
        assert_eq!(
            report.tenants[0].source,
            RecoverySource::Checkpoint { epoch: 1 },
            "{what}: recovery resumes from the older entry"
        );
        assert_eq!(fallbacks.get(), before + 1, "{what}: one fallback");
        assert_eq!(server.request(0, "6 * 7").unwrap().value, Value::Int(42));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold spawn against an empty checkpoint store is "never checkpointed",
/// not a fallback: it goes straight to the template and counts no
/// `serve.checkpoint_fallback`.
#[test]
fn cold_spawn_with_empty_store_counts_no_fallback() {
    let _counter = fallback_lock();
    let dir = temp_dir("cold_spawn");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(dir.join("ckpts")),
        ..ServeConfig::default()
    };
    let fallbacks_before = mst_telemetry::counter("serve.checkpoint_fallback").get();
    let server = Server::new(template, config, cfg, 1);
    assert_eq!(server.request(0, "6 * 7").unwrap().value, Value::Int(42));
    assert_eq!(
        mst_telemetry::counter("serve.checkpoint_fallback").get(),
        fallbacks_before,
        "a missing checkpoint is not a fallback"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the every-N-requests checkpoint policy commits on its own
/// at the quiescent point after a doit — no explicit checkpoint call.
#[test]
fn checkpoint_policy_commits_every_n_requests() {
    // Serialized with the other tests that read the process-global
    // `serve.ckpt.*` counters around auto-checkpoints.
    let _guard = chaos_lock();
    let dir = temp_dir("policy");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(dir.join("ckpts")),
        checkpoint: mst_serve::CheckpointPolicy {
            every_requests: Some(2),
            on_degrade: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template, config, cfg, 1);
    server.request(0, "3 + 4").expect("doit 1");
    assert!(
        server.store().unwrap().newest(0).is_none(),
        "one request is below the every-2 threshold"
    );
    server.request(0, "4 + 5").expect("doit 2");
    let newest = server
        .store()
        .unwrap()
        .newest(0)
        .expect("second request triggers the policy commit");
    assert_eq!(newest.epoch, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bugfix: a failing auto-checkpoint restarts its interval like a
/// successful one, so a broken store is retried once per `every_requests`,
/// not on every later request (each attempt stops the world and
/// serializes the whole image).
#[test]
fn failing_auto_checkpoint_is_retried_once_per_interval() {
    let _guard = chaos_lock();
    let dir = temp_dir("auto_retry");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let every = 4;
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint: mst_serve::CheckpointPolicy {
            every_requests: Some(every),
            on_degrade: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template, config, cfg, 1);
    // The store is open; then its directory vanishes, so every commit
    // fails to create its temp file (a dead disk, even for root).
    std::fs::remove_dir_all(&ckpt_dir).expect("checkpoint dir exists");
    let auto = mst_telemetry::counter("serve.ckpt.auto");
    let failures = mst_telemetry::counter("serve.ckpt.failures");
    let (auto_before, failures_before) = (auto.get(), failures.get());
    for _ in 0..3 * every {
        assert_eq!(
            server
                .request(0, "3 + 4")
                .expect("requests are still served")
                .value,
            Value::Int(7)
        );
    }
    let attempts = auto.get() - auto_before;
    assert_eq!(attempts, 3, "one attempt per {every} requests");
    assert_eq!(
        failures.get() - failures_before,
        attempts,
        "each one failed"
    );
    assert!(server.store().unwrap().newest(0).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Server::checkpoint` answers only once its `Commit` record is durable:
/// with every committed image stalled, the record is already in the raw
/// MANIFEST bytes when the call returns, naming the image on disk.
#[test]
fn a_checkpoint_returns_only_once_its_record_is_durable() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("returns_durable");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..ServeConfig::default()
    };
    let server = Server::new(template, config, cfg, 1);
    server.request(0, "3 + 4").expect("doit");
    stall_the_committer(Duration::from_millis(100));
    let path = server.checkpoint(0).expect("checkpoint");
    fault::disable();
    let image = std::fs::read(&path).expect("the image is in place");
    let want = Commit {
        tenant: 0,
        epoch: 1,
        restarts: 0,
        file_len: image.len() as u64,
        file_crc: mst_vkernel::crc::crc32(&image),
    };
    assert_eq!(raw_commits(&ckpt_dir), [want]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A death between stage and durable: a copy of the directory taken while
/// an auto-checkpoint is staged (its temp file written, the committer
/// stalled before the fsync) opens on the previous commit, and the open
/// removes the temp file. The staged image was never visible to recovery.
#[test]
fn a_death_between_stage_and_durable_recovers_the_previous_commit() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("staged_death");
    let ckpt_dir = dir.join("ckpts");
    let copy = dir.join("copy");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint: CheckpointPolicy {
            every_requests: Some(1),
            on_degrade: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template.clone(), config, cfg.clone(), 1);
    server.request(0, "3 + 4").expect("doit");
    let previous = server.store().unwrap().newest(0).expect("first commit");

    // The committer sleeps in its stall before the first fsync, so the
    // copy below always catches the second image staged and nothing more.
    stall_the_committer(Duration::from_secs(1));
    server.request(0, "'staged' size").expect("doit");
    std::fs::create_dir_all(&copy).unwrap();
    for name in file_names(&ckpt_dir) {
        std::fs::copy(ckpt_dir.join(&name), copy.join(&name)).expect("copy");
    }
    fault::disable();
    let copied = file_names(&copy);
    assert!(
        copied.iter().any(|n| n.ends_with(".image.tmp")),
        "the copy caught the image staged: {copied:?}"
    );

    let store = CheckpointStore::open(&copy, 2).expect("the copy opens");
    assert_eq!(store.newest(0), Some(previous), "the previous commit");
    let left = file_names(&copy);
    assert!(!left.iter().any(|n| n.ends_with(".tmp")), "{left:?}");
    drop(store);
    let recovered = ServeConfig {
        checkpoint_dir: Some(copy),
        ..cfg
    };
    let (server2, report) = Server::recover(template, config, recovered, 1);
    assert_eq!(
        report.tenants[0].source,
        RecoverySource::Checkpoint { epoch: 1 }
    );
    assert_eq!(server2.request(0, "6 * 7").unwrap().value, Value::Int(42));
    drop(server2);
    // The original store's committer still makes its image durable.
    assert_ne!(server.store().unwrap().newest(0), Some(previous));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure on the committer releases every waiter. An auto-checkpoint
/// whose temp file vanishes before the committer renames it fails there,
/// after its request answered, and is counted once; the reader and the
/// tenant's next checkpoint that waited for it proceed, as does the other
/// tenant's. An explicit checkpoint whose journal append tears answers its
/// caller an error, counted once too.
#[test]
fn a_failed_commit_on_the_committer_releases_every_waiter() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("committer_fails");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint: CheckpointPolicy {
            every_requests: Some(2),
            on_degrade: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template, config, cfg, 2);
    for t in 0..2 {
        server.request(t, "3 + 4").expect("warmup");
    }
    let store = server.store().unwrap();
    let failures = mst_telemetry::counter!("serve.ckpt.failures");
    let before = failures.get();

    // The committer stalls before its fsync, so tenant 0's auto-checkpoint
    // is still a temp file when its request answers; the file vanishes.
    stall_the_committer(Duration::from_secs(1));
    server.request(0, "4 + 5").expect("the request answers");
    let staged: Vec<String> = file_names(&ckpt_dir)
        .into_iter()
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert_eq!(staged, ["tenant0.e1.image.tmp"]);
    std::fs::remove_file(ckpt_dir.join(&staged[0])).unwrap();
    fault::disable();

    let (r0, r1) = std::thread::scope(|s| {
        let reader = s.spawn(|| store.chain(0));
        let c0 = s.spawn(|| server.checkpoint(0));
        let c1 = s.spawn(|| server.checkpoint(1));
        reader.join().unwrap();
        (c0.join().unwrap(), c1.join().unwrap())
    });
    r0.expect("the tenant's next checkpoint proceeds");
    r1.expect("the other tenant commits");
    assert_eq!(failures.get() - before, 1, "the auto attempt counted once");
    assert_eq!(store.tenants(), [0, 1]);

    fault::install(ChaosConfig {
        seed: 0x5EED_FA11_0002,
        rate: 1.0,
        sites: FaultSite::CkptTornManifest.bit(),
    });
    fault::set_kill_budget(1);
    let torn = server.checkpoint(1);
    fault::disable();
    assert!(
        matches!(&torn, Err(ServeError::Runtime(msg)) if msg.starts_with("checkpoint")),
        "{torn:?}"
    );
    assert_eq!(failures.get() - before, 2, "the torn attempt counted once");
    server
        .checkpoint(1)
        .expect("the tenant's next checkpoint proceeds");
    assert_eq!(store.newest(1).map(|c| c.epoch), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A re-checkpoint of a changed session at the same epoch never replaces
/// the image the newest record names: when its journal append tears and
/// the process dies, recovery boots the committed session, with no
/// fallback.
#[test]
fn a_torn_recommit_of_a_changed_session_keeps_the_committed_one() {
    let _guard = chaos_lock();
    let _counter = fallback_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("torn_recommit");
    let config = small_config();
    let template = make_template(&dir, config);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(dir.join("ckpts")),
        ..ServeConfig::default()
    };
    let server = Server::new(template.clone(), config, cfg.clone(), 1);
    server
        .request(0, "Benchmark class compile: 'answer ^41'")
        .expect("doit");
    server.checkpoint(0).expect("commit");
    server
        .request(0, "Benchmark class compile: 'answer ^42'")
        .expect("doit");
    fault::install(ChaosConfig {
        seed: 0x5EED_7042,
        rate: 1.0,
        sites: FaultSite::CkptTornManifest.bit(),
    });
    fault::set_kill_budget(1);
    let torn = server.checkpoint(0);
    fault::disable();
    assert!(torn.is_err(), "{torn:?}");
    assert_eq!(server.epoch(0), 1, "both checkpoints are of epoch 1");
    drop(server); // process death

    let fallbacks = mst_telemetry::counter!("serve.checkpoint_fallback");
    let before = fallbacks.get();
    let (server, report) = Server::recover(template, config, cfg, 1);
    assert_eq!(
        report.tenants[0].source,
        RecoverySource::Checkpoint { epoch: 1 }
    );
    assert_eq!(fallbacks.get(), before, "the committed image loads");
    assert_eq!(
        server.request(0, "Benchmark answer").unwrap().value,
        Value::Int(41)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints are neither skipped nor coalesced: N requests per tenant at
/// `every_requests: k`, driven concurrently, leave exactly ⌊N/k⌋ `Commit`
/// records per tenant in the raw journal.
#[test]
fn n_requests_leave_exactly_n_over_k_commits() {
    let _guard = chaos_lock();
    let dir = temp_dir("n_over_k");
    let ckpt_dir = dir.join("ckpts");
    let config = small_config();
    let template = make_template(&dir, config);
    let (tenants, n, k) = (3, 20, 3);
    let cfg = ServeConfig {
        processors: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint: CheckpointPolicy {
            every_requests: Some(k),
            on_degrade: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template, config, cfg, tenants);
    std::thread::scope(|s| {
        for t in 0..tenants {
            let server = &server;
            s.spawn(move || {
                for _ in 0..n {
                    server.request(t, "3 + 4").expect("doit");
                }
            });
        }
    });
    assert_eq!(server.store().unwrap().tenants().len(), tenants);
    let commits = raw_commits(&ckpt_dir);
    for t in 0..tenants {
        let mine = commits.iter().filter(|c| c.tenant == t as u64).count() as u64;
        assert_eq!(mine, n / k, "tenant {t}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Process death inside the commit protocol itself, at a seeded byte
/// boundary, twice per fleet: first mid-image-write (`ckpt.crash`), then,
/// on the recovered fleet, mid-MANIFEST-append (`ckpt.torn_manifest`);
/// `ckpt.slow` stalls the writes both times. Ground truth is the MANIFEST
/// decoded from its raw bytes, independently of the store. Recovery must
/// put every tenant on its newest committed epoch with its recorded
/// restart count and its whole committed chain, with a clean heap and a
/// session that serves. Each case is one seeded fleet; `MST_PROP_CASES`
/// runs more of them (a hundred is the long soak).
#[test]
fn a_death_inside_a_commit_loses_no_committed_checkpoint() {
    let _guard = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = temp_dir("commit_death");
    let config = small_config();
    let template = make_template(&dir, config);
    let tenants = 2;
    let mut fleets = 0;
    Runner::with_cases(2).run(
        "a_death_inside_a_commit_loses_no_committed_checkpoint",
        &Gen::from_fn(|rng, _size| rng.next_u64()),
        |&seed| {
            fleets += 1;
            let cfg = ServeConfig {
                processors: 2,
                queue_wait_limit: Duration::from_secs(5),
                checkpoint_dir: Some(dir.join(format!("fleet{fleets}"))),
                checkpoint: CheckpointPolicy {
                    every_requests: Some(1),
                    on_degrade: false,
                },
                retain: 2,
                ..ServeConfig::default()
            };
            let mut server = Server::new(template.clone(), config, cfg.clone(), tenants);
            for t in 0..tenants {
                for src in ["3 + 4", "'recover' , '/' , 7 printString"] {
                    server
                        .request(t, src)
                        .map_err(|e| format!("tenant {t}: {e}"))?;
                }
            }
            // One session crash on a seeded victim: its respawn bumps the
            // epoch, so its chain spans two epochs and records a restart.
            let victim = (seed % tenants as u64) as usize;
            server.set_victim(Some(victim));
            fault::install(ChaosConfig {
                seed,
                rate: 1.0,
                sites: FaultSite::ServePanic.bit(),
            });
            fault::set_kill_budget(1);
            let crashed = server.request(victim, "(1 to: 1000000) inject: 0 into: [:a :b | a + b]");
            fault::disable();
            server.set_victim(None);
            prop_assert!(
                matches!(crashed, Err(ServeError::SessionCrashed { .. })),
                "serve.panic never crashed the victim"
            );
            server
                .request(victim, "6 * 7")
                .map_err(|e| format!("respawned victim: {e}"))?;
            for site in [FaultSite::CkptCrash, FaultSite::CkptTornManifest] {
                server = die_in_a_commit_and_recover(
                    server, &template, config, &cfg, victim, site, seed,
                )?;
            }
            Ok(())
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills `server` inside `victim`'s next commit at `site`, then recovers
/// the fleet from its checkpoint directory alone and checks every tenant
/// against the MANIFEST's raw bytes. Answers the recovered server.
fn die_in_a_commit_and_recover(
    server: Server,
    template: &SnapshotTemplate,
    config: MsConfig,
    cfg: &ServeConfig,
    victim: usize,
    site: FaultSite,
    seed: u64,
) -> Result<Server, String> {
    // The auto-checkpoints earlier requests staged may still be with the
    // committer; a read of every tenant waits them out, so the fault fires
    // in this commit.
    let _ = server.store().map(CheckpointStore::tenants);
    fault::install(ChaosConfig {
        seed,
        rate: 1.0,
        sites: site.bit() | FaultSite::CkptSlow.bit(),
    });
    fault::set_kill_budget(1);
    let died = server.checkpoint(victim).is_err();
    fault::disable();
    prop_assert!(died, "{} never fired", site.name());

    let manifest = cfg.checkpoint_dir.as_ref().unwrap().join("MANIFEST");
    let raw = std::fs::read(manifest).unwrap_or_default();
    let expected = chains_from_records(&scan_manifest(&raw).records);
    let tenants = server.tenant_count();
    drop(server); // process death: only the directory survives

    let (server, report) = Server::recover(template.clone(), config, cfg.clone(), tenants);
    for (t, rec) in report.tenants.iter().enumerate() {
        let chain = expected
            .get(&(t as u64))
            .ok_or_else(|| format!("after {}: tenant {t} committed nothing", site.name()))?;
        let newest = chain[0];
        prop_assert_eq!(
            rec.source,
            RecoverySource::Checkpoint {
                epoch: newest.epoch
            }
        );
        prop_assert_eq!(server.epoch(t), newest.epoch);
        prop_assert_eq!(server.restarts(t), newest.restarts);
        prop_assert_eq!(
            server.store().map(|s| s.chain(t as u64)),
            Some(chain.clone())
        );
        let audit = server
            .audit(t)
            .map_err(|e| format!("tenant {t}: audit: {e}"))?;
        prop_assert!(audit.error_count == 0, "tenant {t}: dirty heap: {audit:?}");
        let r = server
            .request(t, "6 * 7")
            .map_err(|e| format!("recovered tenant {t}: {e}"))?;
        prop_assert_eq!(r.value, Value::Int(42));
    }
    Ok(server)
}
