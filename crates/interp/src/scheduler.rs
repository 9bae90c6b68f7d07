//! The Smalltalk ProcessorScheduler, adapted per the paper.
//!
//! Serialization (§3.1): "The Smalltalk-80 system employs a simple
//! scheduling model … based on a priority queue which is examined whenever a
//! Semaphore is signalled or a Process manipulation primitive is invoked.
//! These events are relatively infrequent, so serialization through a lock
//! on the queue is adequate."
//!
//! Reorganization (§3.3): "the MS system does not remove a Process from the
//! ready queue when it is made active, so the ready queue contains all
//! Processes which are ready to run including those running." A claim flag
//! in the Process ([`process::RUNNING`]) — not queue membership — records
//! which interpreter runs what, and the `activeProcess` slot of the
//! ProcessorScheduler is ignored at run time.
//!
//! Every transition that can give an idle interpreter work — a Process made
//! ready, released or terminated — ends with one
//! [`Rendezvous::wake_idle`](mst_vkernel::Rendezvous::wake_idle), made
//! after the scheduler lock is released.

use mst_objmem::layout::{linked_list, process, scheduler, semaphore};
use mst_objmem::{AllocToken, ObjFormat, ObjectMemory, Oop, So};
use std::sync::atomic::Ordering;

use crate::vm::Vm;

/// Creates the ProcessorScheduler instance with empty ready queues and
/// registers it as a special object. Old space (it is image structure).
pub fn create_scheduler(mem: &ObjectMemory) -> Oop {
    let sched = mem
        .allocate_old(mem.nil(), ObjFormat::Pointers, scheduler::SIZE, 0)
        .expect("old space exhausted");
    let queues = mem
        .alloc_array_old(scheduler::PRIORITIES)
        .expect("old space exhausted");
    for i in 0..scheduler::PRIORITIES {
        let list = mem
            .allocate_old(mem.nil(), ObjFormat::Pointers, linked_list::SIZE, 0)
            .expect("old space exhausted");
        mem.store(queues, i, list);
    }
    mem.store(sched, scheduler::READY_QUEUES, queues);
    mem.specials().set(So::Scheduler, sched);
    sched
}

/// Creates a Process object (suspended, not yet scheduled).
pub fn create_process(
    mem: &ObjectMemory,
    token: &AllocToken,
    suspended_context: Oop,
    priority: i64,
    name: Oop,
) -> Option<Oop> {
    debug_assert!((1..=scheduler::PRIORITIES as i64).contains(&priority));
    let class = mem.specials().get(So::ClassProcess);
    let p = mem.allocate(token, class, ObjFormat::Pointers, process::SIZE, 0)?;
    mem.store(p, process::SUSPENDED_CONTEXT, suspended_context);
    mem.store_nocheck(p, process::PRIORITY, Oop::from_small_int(priority));
    mem.store_nocheck(p, process::RUNNING, Oop::from_small_int(0));
    mem.store(p, process::NAME, name);
    Some(p)
}

fn ready_list(mem: &ObjectMemory, priority: i64) -> Oop {
    let sched = mem.specials().get(So::Scheduler);
    let queues = mem.fetch(sched, scheduler::READY_QUEUES);
    mem.fetch(queues, (priority - 1) as usize)
}

/// Appends a process to a FIFO (ready list or semaphore).
fn list_append(mem: &ObjectMemory, list: Oop, first_slot: usize, proc_oop: Oop) {
    let last_slot = first_slot + 1;
    let nil = mem.nil();
    mem.store(proc_oop, process::NEXT_LINK, nil);
    mem.store(proc_oop, process::MY_LIST, list);
    let last = mem.fetch(list, last_slot);
    if last == nil {
        mem.store(list, first_slot, proc_oop);
    } else {
        mem.store(last, process::NEXT_LINK, proc_oop);
    }
    mem.store(list, last_slot, proc_oop);
}

/// Pops the first process from a FIFO.
fn list_pop(mem: &ObjectMemory, list: Oop, first_slot: usize) -> Option<Oop> {
    let nil = mem.nil();
    let first = mem.fetch(list, first_slot);
    if first == nil {
        return None;
    }
    let next = mem.fetch(first, process::NEXT_LINK);
    mem.store(list, first_slot, next);
    if next == nil {
        mem.store(list, first_slot + 1, nil);
    }
    mem.store(first, process::NEXT_LINK, nil);
    mem.store(first, process::MY_LIST, nil);
    Some(first)
}

/// Unlinks a specific process from a FIFO; returns whether it was present.
fn list_remove(mem: &ObjectMemory, list: Oop, first_slot: usize, proc_oop: Oop) -> bool {
    let nil = mem.nil();
    let mut prev = nil;
    let mut cur = mem.fetch(list, first_slot);
    while cur != nil {
        if cur == proc_oop {
            let next = mem.fetch(cur, process::NEXT_LINK);
            if prev == nil {
                mem.store(list, first_slot, next);
            } else {
                mem.store(prev, process::NEXT_LINK, next);
            }
            if next == nil {
                let last_slot = first_slot + 1;
                mem.store(list, last_slot, prev);
            }
            mem.store(cur, process::NEXT_LINK, nil);
            mem.store(cur, process::MY_LIST, nil);
            return true;
        }
        prev = cur;
        cur = mem.fetch(cur, process::NEXT_LINK);
    }
    false
}

fn is_running(mem: &ObjectMemory, p: Oop) -> bool {
    mem.fetch(p, process::RUNNING).as_small_int() != 0
}

fn set_running(mem: &ObjectMemory, p: Oop, on: bool) {
    mem.store_nocheck(p, process::RUNNING, Oop::from_small_int(on as i64));
}

/// Recomputes the preemption hint: the highest priority with a ready,
/// unclaimed process. Must be called with the scheduler lock held.
fn refresh_hint(vm: &Vm) {
    let mem = &vm.mem;
    let reserved = reserved_oop(vm);
    let mut hint = 0;
    for pri in (1..=scheduler::PRIORITIES as i64).rev() {
        let list = ready_list(mem, pri);
        let mut cur = mem.fetch(list, linked_list::FIRST_LINK);
        while cur != mem.nil() {
            if !is_running(mem, cur) && Some(cur) != reserved {
                hint = pri;
                break;
            }
            cur = mem.fetch(cur, process::NEXT_LINK);
        }
        if hint != 0 {
            break;
        }
    }
    vm.preempt_hint.store(hint, Ordering::Relaxed);
}

/// The currently reserved process, if any (caller should hold the
/// scheduler lock for a stable answer).
fn reserved_oop(vm: &Vm) -> Option<Oop> {
    vm.reserved.lock().as_ref().map(|r| r.get())
}

/// Adds a process to the ready queue (it keeps running state false).
pub fn add_ready(vm: &Vm, proc_oop: Oop) {
    let g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    let pri = mem.fetch(proc_oop, process::PRIORITY).as_small_int();
    list_append(mem, ready_list(mem, pri), linked_list::FIRST_LINK, proc_oop);
    refresh_hint(vm);
    drop(g);
    vm.rendezvous.wake_idle();
}

/// Claims the highest-priority ready, unclaimed process for an interpreter.
/// The process *stays in the ready queue* (paper §3.3).
pub fn claim_next(vm: &Vm) -> Option<Oop> {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    let reserved = reserved_oop(vm);
    for pri in (1..=scheduler::PRIORITIES as i64).rev() {
        let list = ready_list(mem, pri);
        let mut cur = mem.fetch(list, linked_list::FIRST_LINK);
        while cur != mem.nil() {
            if !is_running(mem, cur) && Some(cur) != reserved {
                set_running(mem, cur, true);
                refresh_hint(vm);
                return Some(cur);
            }
            cur = mem.fetch(cur, process::NEXT_LINK);
        }
    }
    None
}

/// Claims a *specific* ready process (the reserved one) if it is currently
/// ready and unclaimed. Used by the interpreter that watches it.
pub fn claim_reserved(vm: &Vm, proc_oop: Oop) -> bool {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    if is_running(mem, proc_oop) {
        return false;
    }
    let pri = mem.fetch(proc_oop, process::PRIORITY).as_small_int();
    let list = ready_list(mem, pri);
    let mut cur = mem.fetch(list, linked_list::FIRST_LINK);
    while cur != mem.nil() {
        if cur == proc_oop {
            set_running(mem, cur, true);
            refresh_hint(vm);
            return true;
        }
        cur = mem.fetch(cur, process::NEXT_LINK);
    }
    false
}

/// Releases a claimed process back to ready-but-not-running (preemption,
/// yield).
pub fn unclaim(vm: &Vm, proc_oop: Oop) {
    let g = vm.sched_lock.acquire();
    set_running(&vm.mem, proc_oop, false);
    refresh_hint(vm);
    drop(g);
    vm.rendezvous.wake_idle();
}

/// Removes a process from the ready queue entirely (termination, or about
/// to block on a semaphore).
pub fn retire(vm: &Vm, proc_oop: Oop) {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    let pri = mem.fetch(proc_oop, process::PRIORITY).as_small_int();
    list_remove(mem, ready_list(mem, pri), linked_list::FIRST_LINK, proc_oop);
    set_running(mem, proc_oop, false);
    refresh_hint(vm);
}

/// Ends a process's life: off the ready queue, its result stashed in the
/// Process itself (so any watcher — possibly on another interpreter — can
/// read it), then termination marked with a nil suspended context, which
/// is what a watcher waits for.
pub fn terminate(vm: &Vm, proc_oop: Oop, result: Oop) {
    retire(vm, proc_oop);
    let mem = &vm.mem;
    mem.store(proc_oop, process::RESULT, result);
    mem.store(proc_oop, process::SUSPENDED_CONTEXT, mem.nil());
    vm.rendezvous.wake_idle();
}

/// `resume` primitive: (re)schedules a suspended process.
/// Answers `false` if the process was already on a list (no-op).
pub fn resume(vm: &Vm, proc_oop: Oop) -> bool {
    let g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    if mem.fetch(proc_oop, process::MY_LIST) != mem.nil() || is_running(mem, proc_oop) {
        return false;
    }
    let pri = mem.fetch(proc_oop, process::PRIORITY).as_small_int();
    list_append(mem, ready_list(mem, pri), linked_list::FIRST_LINK, proc_oop);
    refresh_hint(vm);
    drop(g);
    vm.rendezvous.wake_idle();
    true
}

/// Result of a semaphore wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A signal was available; the process continues.
    Acquired,
    /// The process was moved from the ready queue to the semaphore's FIFO.
    Blocked,
}

/// `wait` primitive body.
pub fn semaphore_wait(vm: &Vm, sem: Oop, proc_oop: Oop) -> WaitOutcome {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    let excess = mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int();
    if excess > 0 {
        mem.store_nocheck(
            sem,
            semaphore::EXCESS_SIGNALS,
            Oop::from_small_int(excess - 1),
        );
        return WaitOutcome::Acquired;
    }
    let pri = mem.fetch(proc_oop, process::PRIORITY).as_small_int();
    list_remove(mem, ready_list(mem, pri), linked_list::FIRST_LINK, proc_oop);
    set_running(mem, proc_oop, false);
    list_append(mem, sem, semaphore::FIRST_LINK, proc_oop);
    refresh_hint(vm);
    WaitOutcome::Blocked
}

/// `signal` primitive body. Returns the awakened process, if any.
pub fn semaphore_signal(vm: &Vm, sem: Oop) -> Option<Oop> {
    let g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    match list_pop(mem, sem, semaphore::FIRST_LINK) {
        Some(p) => {
            let pri = mem.fetch(p, process::PRIORITY).as_small_int();
            list_append(mem, ready_list(mem, pri), linked_list::FIRST_LINK, p);
            refresh_hint(vm);
            drop(g);
            vm.rendezvous.wake_idle();
            Some(p)
        }
        None => {
            let excess = mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int();
            mem.store_nocheck(
                sem,
                semaphore::EXCESS_SIGNALS,
                Oop::from_small_int(excess + 1),
            );
            None
        }
    }
}

/// Signals the image's low-space semaphore (Blue Book `LowSpaceSemaphore`),
/// if the bootstrap installed one. A Smalltalk process waiting on it wakes
/// to shed load — the VM-level half of failure containment: memory pressure
/// becomes a schedulable event instead of a crash.
pub fn signal_low_space(vm: &Vm) {
    let sem = vm.mem.specials().get(So::LowSpaceSemaphore);
    if sem != Oop::ZERO && sem != vm.mem.nil() {
        semaphore_signal(vm, sem);
    }
}

/// Suspends a process that is *not* running: unlinks it from whatever list
/// it is on (ready queue or semaphore). Returns `false` — primitive failure
/// — if it is currently running on some interpreter: exactly the embedded
/// "that other Process is not active" assumption the paper's reorganization
/// section calls out (§3.3).
pub fn suspend_other(vm: &Vm, proc_oop: Oop) -> bool {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    if is_running(mem, proc_oop) {
        return false;
    }
    let list = mem.fetch(proc_oop, process::MY_LIST);
    if list == mem.nil() {
        return true; // already suspended
    }
    let first_slot = if mem.class_of(list) == mem.specials().get(So::ClassSemaphore) {
        semaphore::FIRST_LINK
    } else {
        linked_list::FIRST_LINK
    };
    list_remove(mem, list, first_slot, proc_oop);
    refresh_hint(vm);
    true
}

/// Whether a process is ready or running — the paper's `canRun:` query,
/// deliberately *not* "is active": "it is not wise to distinguish between a
/// process which is currently running and one which is ready to run" (§3.3).
pub fn can_run(vm: &Vm, proc_oop: Oop) -> bool {
    let _g = vm.sched_lock.acquire();
    let mem = &vm.mem;
    if is_running(mem, proc_oop) {
        return true;
    }
    let list = mem.fetch(proc_oop, process::MY_LIST);
    if list == mem.nil() {
        return false;
    }
    // On some list: ready if it's one of the scheduler's queues.
    let sched = mem.specials().get(So::Scheduler);
    let queues = mem.fetch(sched, scheduler::READY_QUEUES);
    (0..scheduler::PRIORITIES).any(|i| mem.fetch(queues, i) == list)
}

/// Fills the pre-reorganization `activeProcess` slot around a snapshot
/// (paper §3.3: "fill in the activeProcess slot before taking a snapshot and
/// … empty it afterwards").
pub fn set_active_process_slot(mem: &ObjectMemory, value: Oop) {
    let sched = mem.specials().get(So::Scheduler);
    mem.store(sched, scheduler::ACTIVE_PROCESS, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Vm, VmOptions};
    use mst_objmem::MemoryConfig;
    use std::sync::Arc;

    fn test_vm() -> Arc<Vm> {
        let memory = MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        };
        let options = VmOptions {
            memory,
            cache_policy: crate::CachePolicy::Replicated,
            context_policy: crate::FreeListPolicy::Replicated,
            processors: 5,
            quantum: 1024,
        };
        let vm = Arc::new(Vm::with_memory(ObjectMemory::new(memory), options));
        let mem = &vm.mem;
        let nil = mem
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
            .unwrap();
        mem.specials().set(So::Nil, nil);
        for which in [So::ClassProcess, So::ClassSemaphore] {
            let c = mem
                .allocate_old(Oop::ZERO, ObjFormat::Pointers, 8, 0)
                .unwrap();
            mem.specials().set(which, c);
        }
        create_scheduler(mem);
        vm
    }

    fn proc_at(vm: &Vm, priority: i64) -> Oop {
        let tok = vm.mem.new_token();
        create_process(&vm.mem, &tok, vm.mem.nil(), priority, vm.mem.nil()).unwrap()
    }

    fn semaphore(vm: &Vm) -> Oop {
        let tok = vm.mem.new_token();
        let class = vm.mem.specials().get(So::ClassSemaphore);
        let sem = vm
            .mem
            .allocate(&tok, class, ObjFormat::Pointers, semaphore::SIZE, 0)
            .unwrap();
        vm.mem
            .store_nocheck(sem, semaphore::EXCESS_SIGNALS, Oop::from_small_int(0));
        sem
    }

    #[test]
    fn claim_prefers_higher_priority_and_keeps_in_queue() {
        let vm = test_vm();
        let low = proc_at(&vm, 2);
        let high = proc_at(&vm, 5);
        add_ready(&vm, low);
        add_ready(&vm, high);
        assert_eq!(claim_next(&vm), Some(high));
        // Reorganization: the claimed process is still queued, just marked.
        assert!(can_run(&vm, high));
        assert_eq!(claim_next(&vm), Some(low));
        assert_eq!(claim_next(&vm), None);
    }

    #[test]
    fn fifo_within_a_priority() {
        let vm = test_vm();
        let a = proc_at(&vm, 4);
        let b = proc_at(&vm, 4);
        add_ready(&vm, a);
        add_ready(&vm, b);
        assert_eq!(claim_next(&vm), Some(a));
        assert_eq!(claim_next(&vm), Some(b));
    }

    #[test]
    fn unclaim_allows_reclaim_and_hint_tracks() {
        let vm = test_vm();
        let p = proc_at(&vm, 3);
        add_ready(&vm, p);
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 3);
        let got = claim_next(&vm).unwrap();
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 0);
        unclaim(&vm, got);
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 3);
        assert_eq!(claim_next(&vm), Some(p));
    }

    #[test]
    fn retire_removes_from_queue() {
        let vm = test_vm();
        let p = proc_at(&vm, 3);
        add_ready(&vm, p);
        retire(&vm, p);
        assert_eq!(claim_next(&vm), None);
        assert!(!can_run(&vm, p));
    }

    #[test]
    fn resume_is_idempotent_for_queued_processes() {
        let vm = test_vm();
        let p = proc_at(&vm, 3);
        assert!(resume(&vm, p));
        assert!(!resume(&vm, p), "second resume is a no-op");
        assert_eq!(claim_next(&vm), Some(p));
        // Running: still not resumable.
        assert!(!resume(&vm, p));
    }

    #[test]
    fn semaphore_wait_and_signal() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let p = proc_at(&vm, 4);
        add_ready(&vm, p);
        let claimed = claim_next(&vm).unwrap();
        assert_eq!(claimed, p);
        // No signal pending: blocks and leaves the ready queue.
        assert_eq!(semaphore_wait(&vm, sem, p), WaitOutcome::Blocked);
        assert!(!can_run(&vm, p));
        assert_eq!(claim_next(&vm), None);
        // Signal wakes it.
        assert_eq!(semaphore_signal(&vm, sem), Some(p));
        assert!(can_run(&vm, p));
        assert_eq!(claim_next(&vm), Some(p));
        // Signal with no waiters accumulates.
        assert_eq!(semaphore_signal(&vm, sem), None);
        assert_eq!(
            vm.mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int(),
            1
        );
        assert_eq!(semaphore_wait(&vm, sem, p), WaitOutcome::Acquired);
    }

    #[test]
    fn semaphore_fifo_order() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let a = proc_at(&vm, 4);
        let b = proc_at(&vm, 4);
        semaphore_wait(&vm, sem, a);
        semaphore_wait(&vm, sem, b);
        assert_eq!(semaphore_signal(&vm, sem), Some(a));
        assert_eq!(semaphore_signal(&vm, sem), Some(b));
    }

    #[test]
    fn suspend_other_unlinks_from_semaphore() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let p = proc_at(&vm, 4);
        semaphore_wait(&vm, sem, p);
        assert!(suspend_other(&vm, p));
        // No longer wakeable through the semaphore.
        assert_eq!(semaphore_signal(&vm, sem), None);
    }

    #[test]
    fn suspend_other_refuses_running_processes() {
        let vm = test_vm();
        let p = proc_at(&vm, 4);
        add_ready(&vm, p);
        let claimed = claim_next(&vm).unwrap();
        assert!(!suspend_other(&vm, claimed));
    }

    #[test]
    fn every_transition_that_can_give_work_wakes_the_idle() {
        // The idle wait has no timeout, so a transition that forgets to
        // wake leaves an idle interpreter asleep beside claimable work.
        let vm = test_vm();
        let sem = semaphore(&vm);
        let p = proc_at(&vm, 4);
        let woke = |what: &str, f: &dyn Fn()| {
            let before = vm.rendezvous.idle_generation();
            f();
            assert_ne!(
                vm.rendezvous.idle_generation(),
                before,
                "{what} did not wake"
            );
        };
        let slept = |what: &str, f: &dyn Fn()| {
            let before = vm.rendezvous.idle_generation();
            f();
            assert_eq!(vm.rendezvous.idle_generation(), before, "{what} woke");
        };
        woke("add_ready", &|| add_ready(&vm, p));
        slept("claim_next", &|| assert_eq!(claim_next(&vm), Some(p)));
        woke("unclaim", &|| unclaim(&vm, p));
        assert_eq!(claim_next(&vm), Some(p));
        slept("semaphore_wait", &|| {
            assert_eq!(semaphore_wait(&vm, sem, p), WaitOutcome::Blocked)
        });
        woke("a readying signal", &|| {
            assert_eq!(semaphore_signal(&vm, sem), Some(p))
        });
        slept("a signal nobody waits for", &|| {
            assert_eq!(semaphore_signal(&vm, sem), None)
        });
        assert_eq!(claim_next(&vm), Some(p));
        woke("terminate", &|| terminate(&vm, p, vm.mem.nil()));
        woke("resume", &|| assert!(resume(&vm, p)));
        woke("shutdown", &|| vm.shutdown());
    }

    #[test]
    fn active_process_slot_roundtrip() {
        let vm = test_vm();
        let p = proc_at(&vm, 4);
        set_active_process_slot(&vm.mem, p);
        let sched = vm.mem.specials().get(So::Scheduler);
        assert_eq!(vm.mem.fetch(sched, scheduler::ACTIVE_PROCESS), p);
        set_active_process_slot(&vm.mem, vm.mem.nil());
    }
}
