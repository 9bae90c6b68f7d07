//! The processor supervisor: fail-operational interpreter threads.
//!
//! The paper runs replicated interpreters on five Firefly processors and
//! assumes every one of them lives forever. A production-scale MS cannot:
//! a panic in one interpreter thread must not wedge the stop-the-world
//! rendezvous (PR 3's RAII participant guard already unregisters the dead
//! thread) and must not strand the Process it was running.
//!
//! [`supervise`] is the worker-thread entry point. It runs the interpreter
//! under `catch_unwind`; when the interpreter panics, the supervisor
//! recovers ([`Interpreter::recover_after_panic`]: the claimed Process goes
//! back to ready-but-unclaimed, counters are flushed) and then applies the
//! configured [`SupervisorPolicy`]. Every policy drops the dead
//! interpreter, so the contexts on its replicated free list are ordinary
//! garbage:
//!
//! * **restart** — respawn the interpreter in place on the same virtual
//!   processor and keep going;
//! * **degrade** (default) — take the processor offline and continue on
//!   N−1 processors (down to none: the main interpreter carries on alone);
//! * **panic** — rethrow, failing fast (for harnesses that want a crash).
//!
//! Every recovery emits `supervisor.*` telemetry counters and a
//! `supervisor.recover` trace span; processor health is queryable through
//! [`Vm::processor_roster`] / [`Vm::processors_online`]. The supervisor's
//! job ends at that roster: it never stops the world and never writes the
//! image. Saving is the job of whoever owns the system — the serving layer
//! checkpoints a degraded session through its store (`on_degrade`), and
//! the caller of a bare `MsSystem` saves the image itself.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use mst_telemetry as tel;

use crate::interp::Interpreter;
use crate::vm::Vm;

/// What the supervisor does after recovering from an interpreter panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupervisorPolicy {
    /// Respawn a replacement interpreter on the same virtual processor.
    Restart,
    /// Take the processor offline; the system continues on the survivors.
    #[default]
    Degrade,
    /// Rethrow the panic (fail fast).
    Panic,
}

impl std::str::FromStr for SupervisorPolicy {
    type Err = ();

    fn from_str(s: &str) -> Result<SupervisorPolicy, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "restart" => Ok(SupervisorPolicy::Restart),
            "degrade" => Ok(SupervisorPolicy::Degrade),
            "panic" => Ok(SupervisorPolicy::Panic),
            _ => Err(()),
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a supervised interpreter on virtual processor `processor` until
/// shutdown. This is the worker-thread body spawned by the system layer;
/// the main interpreter (processor 0) runs unsupervised on the caller's
/// thread and is never panic-injectable.
pub fn supervise(vm: Arc<Vm>, processor: usize, policy: SupervisorPolicy) {
    vm.roster_register(processor);
    // RAII timeline session: whatever state this processor dies in — panic
    // unwind, degrade, clean shutdown — the open interval is closed and the
    // per-state nanoseconds stay exact.
    let _session = tel::timeline::register(processor);
    let mut interp = Interpreter::new(Arc::clone(&vm));
    interp.set_panic_injectable(true);
    loop {
        let result = panic::catch_unwind(AssertUnwindSafe(|| interp.run(None)));
        let payload = match result {
            Ok(_) => {
                // Clean shutdown: the processor winds down without a fault.
                vm.roster_offline(processor, None);
                return;
            }
            Err(payload) => payload,
        };
        let fault = panic_message(payload.as_ref());
        tel::counter!("supervisor.panics").incr();
        {
            let _span = tel::span("supervisor.recover", "supervisor");
            interp.recover_after_panic();
        }
        // The panic unwound past any state the interpreter was in; close
        // that interval now so the timeline never leaks a dead state.
        tel::timeline::transition(tel::ProcState::Idle);
        // The fault is recorded in the roster (`last_fault`), not in
        // `vm.error_log`, which holds failures Processes raised themselves.
        match policy {
            SupervisorPolicy::Panic => {
                tel::counter!("supervisor.rethrown").incr();
                vm.roster_offline(processor, Some(fault));
                panic::resume_unwind(payload);
            }
            SupervisorPolicy::Restart => {
                tel::counter!("supervisor.restarts").incr();
                vm.roster_restarted(processor, fault);
                // Respawn in place: a fresh interpreter identity on the
                // same processor, same thread.
                interp = Interpreter::new(Arc::clone(&vm));
                interp.set_panic_injectable(true);
            }
            SupervisorPolicy::Degrade => {
                tel::counter!("supervisor.degraded").incr();
                vm.roster_offline(processor, Some(fault));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_defaults() {
        assert_eq!("restart".parse(), Ok(SupervisorPolicy::Restart));
        assert_eq!("Degrade".parse(), Ok(SupervisorPolicy::Degrade));
        assert_eq!(" panic ".parse(), Ok(SupervisorPolicy::Panic));
        assert_eq!("bogus".parse::<SupervisorPolicy>(), Err(()));
        assert_eq!(SupervisorPolicy::default(), SupervisorPolicy::Degrade);
    }
}
