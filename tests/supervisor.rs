//! Integration: the processor supervisor's fail-operational behavior under
//! injected interpreter panics.
//!
//! These tests arm the *destructive* `thread.panic` fault site, which kills
//! any panic-injectable worker in the process, a serve tenant's included —
//! so they live in their own test binary (one process per integration-test
//! file) and serialize on [`CHAOS_LOCK`], keeping the kills away from the
//! unrelated systems the other test binaries build concurrently.

use mst_core::{MsConfig, MsSystem, SupervisorPolicy, SystemState, Value};
use mst_serve::{CheckpointPolicy, RecoverySource, ServeConfig, Server};
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
    // budget exceeds the worker count so *every* worker degrades.
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
    // Idle workers never execute bytecodes, so none has died yet: give
    // them something to run.
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

    // The supervisor saves nothing; the system's owner does. A degraded
    // system still writes a crash-consistent image, and it boots.
    ms.save_snapshot_file(&ckpt)
        .expect("a system degraded to its main interpreter saves");
    let mut restored = MsSystem::from_snapshot_file(&ckpt, MsConfig::default())
        .expect("the checkpoint must load cleanly");
    assert_eq!(restored.evaluate("3 + 4").unwrap(), Value::Int(7));
    restored.shutdown();
    ms.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The degrade path's owner is the serving layer: with
/// `CheckpointPolicy::on_degrade`, the request that finds a tenant's only
/// worker killed stages a checkpoint through the store, and recovery
/// after a process death restores that epoch.
#[test]
fn serve_checkpoints_a_tenant_when_its_worker_degrades() {
    let _serial = chaos_lock();
    let _disarm = DisarmChaos;
    let dir = std::env::temp_dir().join(format!("mst-degrade-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let config = MsConfig {
        processors: 2,
        ..MsConfig::default()
    };
    let template = dir.join("template.image");
    let ms = MsSystem::new(config);
    ms.save_snapshot_file(&template).expect("template saves");
    ms.shutdown();
    let template = MsSystem::load_template(&template, config).expect("template loads");
    let cfg = ServeConfig {
        processors: 2, // one supervised worker
        checkpoint_dir: Some(dir.join("ckpts")),
        checkpoint: CheckpointPolicy {
            every_requests: None,
            on_degrade: true,
        },
        ..ServeConfig::default()
    };
    let server = Server::new(template.clone(), config, cfg.clone(), 1);
    let degraded = mst_telemetry::counter("supervisor.degraded");
    let auto = mst_telemetry::counter("serve.ckpt.auto");
    let (degraded_before, auto_before) = (degraded.get(), auto.get());

    // The session's worker dies at its first safepoint inside the forked
    // loop; the main interpreter answers the doit that forked it.
    fault::install(ChaosConfig {
        seed: 0xDE6_4ADE,
        rate: 1.0,
        sites: FaultSite::ThreadPanic.bit(),
    });
    fault::set_kill_budget(1);
    let forked = server
        .request(0, "[1 to: 100000 do: [:i | i + 1]] fork. 3 + 4")
        .expect("the doit that forks answers");
    assert_eq!(forked.value, Value::Int(7));
    assert!(
        wait_until(10_000, || degraded.get() > degraded_before),
        "the worker should have been killed and degraded"
    );
    fault::disable();

    // The counter moves just before the roster does, so poll with
    // requests: the one that sees the roster shrunk degrades the tenant
    // and stages its checkpoint.
    assert!(
        wait_until(10_000, || {
            let answer = server
                .request(0, "6 * 7")
                .expect("the main interpreter serves");
            assert_eq!(answer.value, Value::Int(42));
            server.degraded(0)
        }),
        "a request must see the tenant degraded"
    );
    assert_eq!(auto.get() - auto_before, 1, "one automatic checkpoint");
    let chain = server.store().expect("a store").chain(0);
    assert_eq!(
        chain.len(),
        1,
        "the degrade checkpoint committed: {chain:?}"
    );
    assert_eq!((chain[0].tenant, chain[0].epoch), (0, 1));

    // Process death: nothing survives but the checkpoint directory.
    drop(server);
    let (server, report) = Server::recover(template, config, cfg, 1);
    assert_eq!(
        report.tenants[0].source,
        RecoverySource::Checkpoint { epoch: 1 }
    );
    let audit = server.audit(0).expect("the recovered tenant is live");
    assert!(audit.is_clean(), "recovered heap dirty:\n{audit}");
    assert_eq!(server.request(0, "3 + 4").unwrap().value, Value::Int(7));
    drop(server);
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
