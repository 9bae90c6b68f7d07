//! Integration: the processor supervisor's fail-operational behavior under
//! injected interpreter panics.
//!
//! These tests arm the *destructive* `thread.panic` fault site, which kills
//! any panic-injectable worker in the process — so they live in their own
//! test binary (one process per integration-test file) and serialize on
//! [`CHAOS_LOCK`], keeping the kills away from the unrelated systems the
//! other test binaries build concurrently.

use mst_core::{MsConfig, MsSystem, SupervisorPolicy, SystemState, Value};
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

/// Disarms the process-global fault registry when dropped, so a failing
/// assertion cannot leave chaos armed for the rest of the test binary.
struct DisarmChaos;
impl Drop for DisarmChaos {
    fn drop(&mut self) {
        fault::disable();
    }
}

fn eval(ms: &mut MsSystem, src: &str) -> Value {
    ms.evaluate(src).unwrap_or_else(|e| panic!("{src}: {e}"))
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

#[test]
fn supervisor_degrades_killed_processors_and_checkpoints() {
    let _serial = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = std::env::temp_dir().join(format!("mst-degrade-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let ckpt = dir.join("degrade.image");

    // Arm only the destructive thread.panic site, before the workers spawn
    // (`MsConfig.chaos` stays None so `new` does not re-install and reset
    // the budget). Rate 1.0: a worker dies at its first safepoint. The
    // budget exceeds the worker count so *every* worker degrades, which is
    // what triggers the last-resort checkpoint.
    fault::install(ChaosConfig {
        seed: 0xD15_EA5E,
        rate: 1.0,
        sites: FaultSite::ThreadPanic.bit(),
    });
    fault::set_kill_budget(8);
    let mut ms = MsSystem::new(MsConfig {
        processors: 3, // two supervised workers
        supervisor: SupervisorPolicy::Degrade,
        ..MsConfig::default()
    });
    // Idle workers never execute bytecodes, so none has died yet: name the
    // checkpoint file, then give them something to run.
    ms.vm().set_supervisor_checkpoint(&ckpt);
    ms.spawn_competitors(2, false);
    assert!(
        wait_until(10_000, || ms.processors_online() == 0),
        "both workers should have degraded, roster: {:?}",
        ms.processor_roster()
    );
    fault::disable();

    let roster = ms.processor_roster();
    assert_eq!(roster.len(), 2);
    for row in &roster {
        assert!(!row.online, "processor {} should be offline", row.processor);
        assert!(
            row.last_fault
                .as_deref()
                .unwrap_or("")
                .contains("thread.panic"),
            "offline row must record the injected fault: {row:?}"
        );
    }
    // Regression: the supervisor must not log into error_log, which would
    // turn an unrelated in-flight doit into a phantom runtime error.
    assert!(
        !ms.vm()
            .error_log
            .lock()
            .iter()
            .any(|e| e.contains("supervisor")),
        "supervisor recovery must not pollute the error log"
    );
    // The main interpreter carries on alone.
    assert_eq!(eval(&mut ms, "6 * 7"), Value::Int(42));
    let audit = ms.audit_heap();
    assert!(audit.is_clean(), "heap dirty after degradation:\n{audit}");

    // The last degrading worker wrote a crash-consistent checkpoint, and it
    // boots.
    assert!(
        wait_until(5_000, || ckpt.exists()),
        "degrade last resort must write the configured checkpoint"
    );
    let mut restored = MsSystem::from_snapshot_file(&ckpt, MsConfig::default())
        .expect("the checkpoint must load cleanly");
    assert_eq!(restored.evaluate("3 + 4").unwrap(), Value::Int(7));
    restored.shutdown();
    ms.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_restart_policy_respawns_in_place() {
    let _serial = chaos_lock();
    let _disarm = DisarmChaos;
    fault::install(ChaosConfig {
        seed: 0x0BAD_C0DE,
        rate: 1.0,
        sites: FaultSite::ThreadPanic.bit(),
    });
    fault::set_kill_budget(3);
    let mut ms = MsSystem::new(MsConfig {
        processors: 3,
        supervisor: SupervisorPolicy::Restart,
        ..MsConfig::default()
    });
    ms.spawn_competitors(2, false);
    // Each kill consumes one budget unit and produces one restart; the
    // respawned interpreter is injectable again, so the budget drains.
    assert!(
        wait_until(10_000, || {
            ms.processor_roster()
                .iter()
                .map(|r| r.restarts)
                .sum::<u64>()
                >= 3
        }),
        "expected three restarts, roster: {:?}",
        ms.processor_roster()
    );
    fault::disable();
    let roster = ms.processor_roster();
    assert!(
        roster.iter().all(|r| r.online),
        "restarted processors must stay online: {roster:?}"
    );
    assert!(
        roster.iter().any(|r| r
            .last_fault
            .as_deref()
            .unwrap_or("")
            .contains("thread.panic")),
        "restart rows must record the fault that caused them: {roster:?}"
    );
    assert_eq!(eval(&mut ms, "6 * 7"), Value::Int(42));
    let audit = ms.audit_heap();
    assert!(audit.is_clean(), "heap dirty after restarts:\n{audit}");
    ms.shutdown();
}

/// Fail-operational under load: with `thread.panic` capped at two kills
/// and the degrade policy, workers of a busy system die mid-run, the
/// supervisor hands their Processes back to the shared pool, and the
/// Table 2 macro benchmarks still complete on the survivors with a clean
/// heap audit.
#[test]
fn degraded_busy_system_finishes_the_macros_on_the_survivors() {
    let _serial = chaos_lock();
    let _disarm = DisarmChaos;
    let kills = mst_telemetry::counter("chaos.thread_panic");
    let kills_before = kills.get();
    // Installed before the workers spawn; `MsConfig.chaos` stays None so
    // `new` does not re-install and reset the kill budget.
    fault::install(ChaosConfig {
        seed: 0xFA11_0B5E_7A11_0B5E,
        rate: 0.02,
        sites: FaultSite::ThreadPanic.bit(),
    });
    fault::set_kill_budget(2);
    let mut ms = MsSystem::new(MsConfig {
        supervisor: SupervisorPolicy::Degrade,
        ..MsConfig::for_state(SystemState::MsBusy4)
    });
    ms.vm().rendezvous.set_watchdog(60_000);
    ms.vm()
        .rendezvous
        .set_watchdog_policy(WatchdogPolicy::Panic);
    ms.enter_state(SystemState::MsBusy4);
    for sel in ["readWriteClassOrganization", "printClassDefinition"] {
        eval(&mut ms, &format!("Benchmark {sel}"));
    }
    // The busy competitors poll constantly: the budget is spent by now.
    assert!(
        wait_until(10_000, || kills.get() - kills_before == 2),
        "expected two injected interpreter panics, saw {}",
        kills.get() - kills_before
    );
    assert_eq!(eval(&mut ms, "3 + 4"), Value::Int(7));
    fault::disable();
    let roster = ms.processor_roster();
    assert_eq!(
        ms.processors_online(),
        roster.len() - 2,
        "each kill takes exactly one worker offline: {roster:?}"
    );
    let audit = ms.audit_heap();
    assert!(audit.is_clean(), "heap dirty after degradation:\n{audit}");
    ms.shutdown();
}
