//! Integration: an interpreter with nothing to run blocks in the
//! rendezvous' idle wait instead of polling, every way work can arrive
//! wakes it, and a blocked interpreter still parks for a stop and helps a
//! collection.
//!
//! A test binary of its own, because [`an_idle_system_burns_almost_no_cpu`]
//! reads the CPU time of the whole process: every test here holds
//! [`serial`], so nothing else runs beside that reading.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mst_core::testing::{Gen, Runner};
use mst_core::{MsConfig, MsSystem, SupervisorPolicy, Value};
use mst_objmem::MemoryConfig;
use mst_telemetry::pauselog;
use mst_vkernel::fault::{self, ChaosConfig, FaultSite};

/// Serializes the tests of this binary (see the module docs); chaos is
/// process-global too.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Disarms the process-global fault registry when dropped, so a failing
/// assertion cannot leave chaos armed for the rest of the binary.
struct DisarmChaos;
impl Drop for DisarmChaos {
    fn drop(&mut self) {
        fault::disable();
    }
}

fn system(processors: usize, memory: MemoryConfig, supervisor: SupervisorPolicy) -> MsSystem {
    MsSystem::new(MsConfig {
        processors,
        memory,
        supervisor,
        ..MsConfig::default()
    })
}

fn idle_system() -> MsSystem {
    system(3, MemoryConfig::default(), SupervisorPolicy::default())
}

/// Waits until every online worker of `ms` sleeps in the idle wait.
fn await_idle(ms: &MsSystem) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while ms.vm().rendezvous.idle_sleepers() < ms.processors_online() {
        assert!(Instant::now() < deadline, "the workers never went idle");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs `body` on a thread of its own and fails if it has not finished
/// within `limit`: the idle wait has no timeout, so a lost wake-up is a
/// hang, reported here instead of hanging the binary.
fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => runner.join().expect("the body finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let payload = runner.join().expect_err("the body panicked");
            std::panic::resume_unwind(payload);
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no answer after {limit:?} (a lost wake-up?)")
        }
    }
}

/// The process's CPU time so far, utime + stime from `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields[i - 3].parse().expect("a tick count") };
    // USER_HZ, the unit of these fields, is 100 on Linux.
    Duration::from_millis((ticks(14) + ticks(15)) * 10)
}

#[test]
fn an_idle_system_burns_almost_no_cpu() {
    let _serial = serial();
    let ms = idle_system();
    let before = process_cpu();
    std::thread::sleep(Duration::from_millis(500));
    let burned = process_cpu() - before;
    ms.shutdown();
    assert!(
        burned < Duration::from_millis(50),
        "two idle workers burned {burned:?} of CPU in 500 ms"
    );
}

/// Each case is one doit answered while the workers start out asleep, so
/// it is their wake, not their polling, that serves it. `setup` runs once.
fn doit_answers_promptly(name: &str, setup: &'static str, source: &'static str, expected: i64) {
    let name = name.to_string();
    within(Duration::from_secs(60), &name.clone(), move || {
        let mut ms = idle_system();
        ms.evaluate(setup).expect("setup");
        let bound = Duration::from_secs(1);
        Runner::with_cases(200).run(&name, &Gen::from_fn(|_, _| ()), |()| {
            await_idle(&ms);
            let start = Instant::now();
            let answer = ms.evaluate(source).map_err(|e| e.to_string())?;
            let wall = start.elapsed();
            if answer != Value::Int(expected) {
                return Err(format!("answered {answer:?}"));
            }
            if wall > bound {
                return Err(format!("answered after {wall:?}"));
            }
            Ok(())
        });
        ms.shutdown();
    });
}

#[test]
fn a_doit_wakes_no_idle_worker() {
    let _serial = serial();
    // The reserved doit is its caller's alone: readying it and ending it on
    // the caller's thread give no idle worker anything to claim.
    let mut ms = idle_system();
    await_idle(&ms);
    let before = ms.vm().rendezvous.idle_generation();
    for _ in 0..100 {
        assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    }
    let wakes = ms.vm().rendezvous.idle_generation() - before;
    ms.shutdown();
    assert_eq!(wakes, 0, "100 doits woke the idle workers {wakes} times");
}

#[test]
fn a_signal_from_a_forked_process_wakes_the_waiting_doit() {
    let _serial = serial();
    // The forked Process computes long enough for the doit's interpreter
    // to fall asleep, then blocks for good after its signal: only the
    // signal itself can wake that interpreter.
    doit_answers_promptly(
        "a_signal_from_a_forked_process_wakes_the_waiting_doit",
        "nil",
        "| s | s := Semaphore new.
         [1 to: 5000 do: [:i | i]. s signal. Semaphore new wait] fork.
         s wait. 7",
        7,
    );
}

#[test]
fn a_yield_ping_pong_keeps_answering() {
    let _serial = serial();
    // A method per fork, so each Process counts in a frame of its own.
    doit_answers_promptly(
        "a_yield_ping_pong_keeps_answering",
        "Benchmark class compile: 'yield: n into: counts at: k signal: done
            [1 to: n do: [:i | counts at: k put: (counts at: k) + 1. Processor yield].
             done signal] fork'",
        "| done counts | done := Semaphore new. counts := Array with: 0 with: 0.
         Benchmark yield: 20 into: counts at: 1 signal: done.
         Benchmark yield: 20 into: counts at: 2 signal: done.
         done wait. done wait. (counts at: 1) + (counts at: 2)",
        40,
    );
}

#[test]
fn an_idle_system_shuts_down_at_once() {
    let _serial = serial();
    within(Duration::from_secs(60), "shutdown", || {
        Runner::with_cases(200).run(
            "an_idle_system_shuts_down_at_once",
            &Gen::from_fn(|_, _| ()),
            |()| {
                let ms = idle_system();
                await_idle(&ms);
                let start = Instant::now();
                ms.shutdown();
                let wall = start.elapsed();
                if wall > Duration::from_millis(100) {
                    return Err(format!("shutdown took {wall:?}"));
                }
                Ok(())
            },
        );
    });
}

/// Fills eden with objects the returned root keeps alive, so the next
/// scavenge has copying to share out.
fn fill_eden(ms: &mut MsSystem) -> mst_objmem::RootHandle {
    ms.evaluate_to_root(
        "| a | a := Array new: 3000. 1 to: 3000 do: [:i | a at: i put: (Array new: 8)]. a",
    )
    .expect("filling eden")
}

#[test]
fn a_collection_drafts_the_blocked_workers() {
    let _serial = serial();
    let memory = MemoryConfig {
        gc_helpers: 3,
        ..MemoryConfig::default()
    };
    let mut ms = system(3, memory, SupervisorPolicy::default());
    // Whether a woken helper reaches the job before the leader closes it
    // is a race, so a few collections are allowed; one drafted worker is
    // enough to show that a blocked one still helps.
    let mut helpers = Vec::new();
    for _ in 0..20 {
        let _live = fill_eden(&mut ms);
        await_idle(&ms);
        pauselog::clear();
        ms.collect_garbage();
        let (pauses, _) = pauselog::snapshot();
        let pause = pauses
            .iter()
            .rfind(|p| p.kind == "scavenge")
            .expect("a record");
        helpers.push(pause.helpers);
        if pause.helpers >= 2 {
            break;
        }
    }
    ms.shutdown();
    assert!(
        helpers.iter().any(|&h| h >= 2),
        "no collection drafted a blocked worker; helpers per pause: {helpers:?}"
    );
}

#[test]
fn a_blocked_worker_that_dies_helping_is_absorbed_by_its_supervisor() {
    let _serial = serial();
    let _disarm = DisarmChaos;
    let memory = MemoryConfig {
        gc_helpers: 3,
        ..MemoryConfig::default()
    };
    let mut ms = system(3, memory, SupervisorPolicy::Restart);
    fault::install(ChaosConfig {
        seed: 0x1D1E_5EED,
        rate: 1.0,
        sites: FaultSite::GcHelperPanic.bit(),
    });
    fault::set_kill_budget(1);
    let fired = || mst_telemetry::counter("chaos.gc_helper_panic").get();
    let fired_before = fired();
    for _ in 0..20 {
        let _live = fill_eden(&mut ms);
        await_idle(&ms);
        ms.collect_garbage();
        if fired() > fired_before {
            break;
        }
    }
    fault::disable();
    // The counter counts rolls, and a roll that loses the race for the
    // last unit of budget kills nobody: the restart count is the death toll.
    assert!(
        fired() > fired_before,
        "a drafted idle worker was told to die"
    );
    // The supervisor records the restart once the unwind reaches it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let restarts = || -> u64 { ms.vm().processor_roster().iter().map(|p| p.restarts).sum() };
    while restarts() == 0 {
        assert!(
            Instant::now() < deadline,
            "the dead worker was never restarted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(restarts(), 1);
    ms.collect_garbage();
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    ms.shutdown();
}
