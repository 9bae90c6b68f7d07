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
//! A Process stands in one of five [`State`]s, and [`transition`] is the one
//! place that moves it: the only writer of its list links, its claim flag
//! and its terminal nil suspended context. A move of the caller's own
//! Process takes the [`Flushed`] witness that only a register flush
//! returns, so a Process is never published before its registers are in
//! the heap. After it drops the scheduler lock, a transition wakes the idle
//! interpreters ([`Rendezvous::wake_idle`](mst_vkernel::Rendezvous::wake_idle))
//! exactly when the move lets an interpreter other than the caller claim a
//! Process: a non-reserved Process became ready, or the reserved doit
//! became ready or ended on a thread other than its watcher's.

use mst_objmem::layout::{linked_list, process, scheduler, semaphore};
use mst_objmem::{AllocToken, ObjFormat, ObjectMemory, Oop, So};
use std::sync::atomic::Ordering;

use crate::interp::Flushed;
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

/// Where a Process stands (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// On its priority's ready queue, claimed by no interpreter.
    Ready,
    /// On its ready queue and claimed: an interpreter runs it.
    Running,
    /// On the FIFO of the given Semaphore.
    Waiting(Oop),
    /// On no list; a `resume` makes it ready again.
    Suspended,
    /// On no list, with a nil suspended context: it never runs again.
    Terminated,
}

/// The Process a [`transition`] moves.
pub enum Subject {
    /// The caller's own Process, its registers in the heap.
    Current(Flushed),
    /// A Process the caller names. Refused while an interpreter runs it:
    /// only that interpreter moves it, as its `Current` (§3.3).
    Named(Oop),
    /// The first Process waiting on the given Semaphore; with none waiting,
    /// a move to `Ready` banks the signal instead.
    FirstWaiter(Oop),
    /// The ready Process the caller may claim: the given watched doit if it
    /// is ready, else the first other one by priority (the reserved doit is
    /// its watcher's alone).
    Claimable(Option<Oop>),
}

impl From<Oop> for Subject {
    fn from(p: Oop) -> Subject {
        Subject::Named(p)
    }
}

impl From<Flushed> for Subject {
    fn from(flushed: Flushed) -> Subject {
        Subject::Current(flushed)
    }
}

/// Moves a Process to `to` and answers it if it now stands there; `None`
/// when the move is refused, when a claim or a signal finds nobody, or
/// when a wait takes a banked signal instead of blocking.
///
/// The legal moves are the paper's state machine: a claim (ready →
/// running) and its release (running → ready), a wait (running → waiting),
/// a signal (waiting → ready), a resume (suspended → ready, a fresh Process
/// included), and from every live state a suspend or a terminate.
pub fn transition(vm: &Vm, who: impl Into<Subject>, to: State) -> Option<Oop> {
    let mem = &vm.mem;
    let g = vm.sched_lock.acquire();
    let reserved = vm.reserved.lock().as_ref().map(|(p, t)| (p.get(), *t));
    let doit = reserved.map(|(p, _)| p);
    let (p, from) = match who.into() {
        Subject::Claimable(watched) => {
            debug_assert_eq!(to, State::Running);
            // A claim gives nobody work, so it wakes nobody.
            let mine = watched.filter(|&w| state(mem, w) == State::Ready);
            if let Some(w) = mine {
                set_running(mem, w, true);
            }
            let next = scan(vm, doit, mine.is_none());
            return mine.or(next);
        }
        Subject::Current(flushed) => (flushed.process(), State::Running),
        Subject::Named(p) => match state(mem, p) {
            State::Running => return None,
            // Only a signal readies a waiting Process.
            State::Waiting(_) if to == State::Ready => return None,
            from => (p, from),
        },
        Subject::FirstWaiter(sem) => {
            let first = mem.fetch(sem, semaphore::FIRST_LINK);
            if first == mem.nil() {
                add_excess_signals(mem, sem, 1);
                return None;
            }
            (first, State::Waiting(sem))
        }
    };
    match (from, to) {
        _ if from == to => return Some(p),
        (State::Terminated, _) | (_, State::Running) => return None,
        // A wait takes a banked signal instead of blocking.
        (State::Running, State::Waiting(sem))
            if mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int() > 0 =>
        {
            add_excess_signals(mem, sem, -1);
            return None;
        }
        (State::Running, State::Waiting(_)) => {}
        (_, State::Waiting(_)) => return None,
        _ => {}
    }
    if from == State::Running {
        set_running(mem, p, false);
    }
    // A released claim stays queued where it was; every other move leaves
    // its list and joins the one `to` names.
    if (from, to) != (State::Running, State::Ready) {
        unlink(mem, p);
        match to {
            State::Ready => {
                let pri = mem.fetch(p, process::PRIORITY).as_small_int();
                append(mem, ready_list(mem, pri), p);
            }
            State::Waiting(sem) => append(mem, sem, p),
            State::Terminated => mem.store(p, process::SUSPENDED_CONTEXT, mem.nil()),
            State::Suspended | State::Running => {}
        }
    }
    scan(vm, doit, false);
    drop(g);
    let claimable_by_others = match reserved {
        Some((doit, watcher)) if doit == p => {
            matches!(to, State::Ready | State::Terminated) && std::thread::current().id() != watcher
        }
        _ => to == State::Ready,
    };
    if claimable_by_others {
        vm.rendezvous.wake_idle();
    }
    Some(p)
}

/// Where `p` stands. Under the scheduler lock for a stable answer.
fn state(mem: &ObjectMemory, p: Oop) -> State {
    let list = mem.fetch(p, process::MY_LIST);
    if is_running(mem, p) {
        State::Running
    } else if list != mem.nil() {
        if is_semaphore(mem, list) {
            State::Waiting(list)
        } else {
            State::Ready
        }
    } else if mem.fetch(p, process::SUSPENDED_CONTEXT) == mem.nil() {
        State::Terminated
    } else {
        State::Suspended
    }
}

/// The one pass over the ready queues, highest priority first. With
/// `claim`, claims the first ready Process any interpreter may run (the
/// reserved doit `doit` is its watcher's alone); then sets the preemption
/// hint to the priority of the first such Process left, or 0. Under the
/// scheduler lock.
fn scan(vm: &Vm, doit: Option<Oop>, mut claim: bool) -> Option<Oop> {
    let mem = &vm.mem;
    let mut claimed = None;
    let mut hint = 0;
    'queues: for pri in (1..=scheduler::PRIORITIES as i64).rev() {
        let mut cur = mem.fetch(ready_list(mem, pri), linked_list::FIRST_LINK);
        while cur != mem.nil() {
            if !is_running(mem, cur) && Some(cur) != doit {
                if !claim {
                    hint = pri;
                    break 'queues;
                }
                set_running(mem, cur, true);
                claimed = Some(cur);
                claim = false;
            }
            cur = mem.fetch(cur, process::NEXT_LINK);
        }
    }
    vm.preempt_hint.store(hint, Ordering::Relaxed);
    claimed
}

fn ready_list(mem: &ObjectMemory, priority: i64) -> Oop {
    let sched = mem.specials().get(So::Scheduler);
    let queues = mem.fetch(sched, scheduler::READY_QUEUES);
    mem.fetch(queues, (priority - 1) as usize)
}

fn is_semaphore(mem: &ObjectMemory, list: Oop) -> bool {
    mem.class_of(list) == mem.specials().get(So::ClassSemaphore)
}

/// The slot of `list`'s first link; its last link follows it.
fn first_link(mem: &ObjectMemory, list: Oop) -> usize {
    if is_semaphore(mem, list) {
        semaphore::FIRST_LINK
    } else {
        linked_list::FIRST_LINK
    }
}

/// Appends `p` to a FIFO (a ready queue or a Semaphore).
fn append(mem: &ObjectMemory, list: Oop, p: Oop) {
    let first_slot = first_link(mem, list);
    let nil = mem.nil();
    mem.store(p, process::NEXT_LINK, nil);
    mem.store(p, process::MY_LIST, list);
    let last = mem.fetch(list, first_slot + 1);
    if last == nil {
        mem.store(list, first_slot, p);
    } else {
        mem.store(last, process::NEXT_LINK, p);
    }
    mem.store(list, first_slot + 1, p);
}

/// Unlinks `p` from the list it is on, if any.
fn unlink(mem: &ObjectMemory, p: Oop) {
    let nil = mem.nil();
    let list = mem.fetch(p, process::MY_LIST);
    if list == nil {
        return;
    }
    let first_slot = first_link(mem, list);
    let mut prev = nil;
    let mut cur = mem.fetch(list, first_slot);
    while cur != p {
        debug_assert_ne!(cur, nil, "a Process is missing from the list it names");
        if cur == nil {
            return;
        }
        prev = cur;
        cur = mem.fetch(cur, process::NEXT_LINK);
    }
    let next = mem.fetch(p, process::NEXT_LINK);
    if prev == nil {
        mem.store(list, first_slot, next);
    } else {
        mem.store(prev, process::NEXT_LINK, next);
    }
    if next == nil {
        mem.store(list, first_slot + 1, prev);
    }
    mem.store(p, process::NEXT_LINK, nil);
    mem.store(p, process::MY_LIST, nil);
}

fn is_running(mem: &ObjectMemory, p: Oop) -> bool {
    mem.fetch(p, process::RUNNING).as_small_int() != 0
}

fn set_running(mem: &ObjectMemory, p: Oop, on: bool) {
    mem.store_nocheck(p, process::RUNNING, Oop::from_small_int(on as i64));
}

fn add_excess_signals(mem: &ObjectMemory, sem: Oop, delta: i64) {
    let excess = mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int();
    mem.store_nocheck(
        sem,
        semaphore::EXCESS_SIGNALS,
        Oop::from_small_int(excess + delta),
    );
}

/// Signals the image's low-space semaphore (Blue Book `LowSpaceSemaphore`),
/// if the bootstrap installed one. A Smalltalk process waiting on it wakes
/// to shed load — the VM-level half of failure containment: memory pressure
/// becomes a schedulable event instead of a crash.
pub fn signal_low_space(vm: &Vm) {
    let sem = vm.mem.specials().get(So::LowSpaceSemaphore);
    if sem != Oop::ZERO && sem != vm.mem.nil() {
        transition(vm, Subject::FirstWaiter(sem), State::Ready);
    }
}

/// Whether a process is ready or running — the paper's `canRun:` query,
/// deliberately *not* "is active": "it is not wise to distinguish between a
/// process which is currently running and one which is ready to run" (§3.3).
pub fn can_run(vm: &Vm, proc_oop: Oop) -> bool {
    let _g = vm.sched_lock.acquire();
    matches!(state(&vm.mem, proc_oop), State::Ready | State::Running)
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

    /// A suspended Process. It never runs, so any non-nil object serves as
    /// its context (a nil one would mark it terminated).
    fn proc_at(vm: &Vm, priority: i64) -> Oop {
        let tok = vm.mem.new_token();
        let ctx = vm.mem.specials().get(So::ClassProcess);
        create_process(&vm.mem, &tok, ctx, priority, vm.mem.nil()).unwrap()
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

    fn claim(vm: &Vm) -> Option<Oop> {
        transition(vm, Subject::Claimable(None), State::Running)
    }

    fn signal(vm: &Vm, sem: Oop) -> Option<Oop> {
        transition(vm, Subject::FirstWaiter(sem), State::Ready)
    }

    /// `p` as the claiming interpreter's own Process.
    fn current(p: Oop) -> Flushed {
        Flushed::assumed(p)
    }

    #[test]
    fn claim_prefers_higher_priority_and_keeps_in_queue() {
        let vm = test_vm();
        let low = proc_at(&vm, 2);
        let high = proc_at(&vm, 5);
        transition(&vm, low, State::Ready);
        transition(&vm, high, State::Ready);
        assert_eq!(claim(&vm), Some(high));
        // Reorganization: the claimed process is still queued, just marked.
        assert!(can_run(&vm, high));
        assert_eq!(claim(&vm), Some(low));
        assert_eq!(claim(&vm), None);
    }

    #[test]
    fn fifo_within_a_priority() {
        let vm = test_vm();
        let a = proc_at(&vm, 4);
        let b = proc_at(&vm, 4);
        transition(&vm, a, State::Ready);
        transition(&vm, b, State::Ready);
        assert_eq!(claim(&vm), Some(a));
        assert_eq!(claim(&vm), Some(b));
    }

    #[test]
    fn unclaim_allows_reclaim_and_hint_tracks() {
        let vm = test_vm();
        let p = proc_at(&vm, 3);
        transition(&vm, p, State::Ready);
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 3);
        let got = claim(&vm).unwrap();
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 0);
        assert_eq!(transition(&vm, current(got), State::Ready), Some(p));
        assert_eq!(vm.preempt_hint.load(Ordering::Relaxed), 3);
        assert_eq!(claim(&vm), Some(p));
    }

    #[test]
    fn retire_removes_from_queue() {
        // Suspending or ending a ready Process unlinks it through MY_LIST.
        let vm = test_vm();
        let (a, b, c) = (proc_at(&vm, 3), proc_at(&vm, 3), proc_at(&vm, 3));
        for p in [a, b, c] {
            transition(&vm, p, State::Ready);
        }
        assert_eq!(transition(&vm, b, State::Suspended), Some(b));
        assert_eq!(transition(&vm, c, State::Terminated), Some(c));
        assert!(!can_run(&vm, b) && !can_run(&vm, c));
        assert_eq!(claim(&vm), Some(a));
        assert_eq!(claim(&vm), None);
        // A terminated Process stays terminated; a suspended one resumes.
        assert_eq!(transition(&vm, c, State::Ready), None);
        assert_eq!(transition(&vm, b, State::Ready), Some(b));
        assert_eq!(claim(&vm), Some(b));
    }

    #[test]
    fn resume_is_idempotent_for_queued_processes() {
        let vm = test_vm();
        let p = proc_at(&vm, 3);
        assert_eq!(transition(&vm, p, State::Ready), Some(p));
        assert_eq!(
            transition(&vm, p, State::Ready),
            Some(p),
            "a second resume leaves it ready"
        );
        assert_eq!(claim(&vm), Some(p));
        assert_eq!(claim(&vm), None, "and queued once");
        // Running: a resume by name is refused.
        assert_eq!(transition(&vm, p, State::Ready), None);
    }

    #[test]
    fn semaphore_wait_and_signal() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let p = proc_at(&vm, 4);
        transition(&vm, p, State::Ready);
        assert_eq!(claim(&vm), Some(p));
        // No signal pending: blocks and leaves the ready queue.
        assert_eq!(transition(&vm, current(p), State::Waiting(sem)), Some(p));
        assert!(!can_run(&vm, p));
        assert_eq!(claim(&vm), None);
        // Only a signal readies a waiting Process.
        assert_eq!(transition(&vm, p, State::Ready), None);
        assert_eq!(signal(&vm, sem), Some(p));
        assert!(can_run(&vm, p));
        assert_eq!(claim(&vm), Some(p));
        // Signal with no waiters accumulates.
        assert_eq!(signal(&vm, sem), None);
        assert_eq!(
            vm.mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int(),
            1
        );
        // And a wait takes the banked signal instead of blocking.
        assert_eq!(transition(&vm, current(p), State::Waiting(sem)), None);
        assert!(can_run(&vm, p));
        assert_eq!(
            vm.mem.fetch(sem, semaphore::EXCESS_SIGNALS).as_small_int(),
            0
        );
    }

    #[test]
    fn semaphore_fifo_order() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let a = proc_at(&vm, 4);
        let b = proc_at(&vm, 4);
        for p in [a, b] {
            transition(&vm, p, State::Ready);
            assert_eq!(claim(&vm), Some(p));
            transition(&vm, current(p), State::Waiting(sem));
        }
        assert_eq!(signal(&vm, sem), Some(a));
        assert_eq!(signal(&vm, sem), Some(b));
    }

    #[test]
    fn suspend_other_unlinks_from_semaphore() {
        let vm = test_vm();
        let sem = semaphore(&vm);
        let p = proc_at(&vm, 4);
        transition(&vm, p, State::Ready);
        assert_eq!(claim(&vm), Some(p));
        transition(&vm, current(p), State::Waiting(sem));
        assert_eq!(transition(&vm, p, State::Suspended), Some(p));
        // No longer wakeable through the semaphore.
        assert_eq!(signal(&vm, sem), None);
        assert!(!can_run(&vm, p));
    }

    #[test]
    fn suspend_other_refuses_running_processes() {
        let vm = test_vm();
        let p = proc_at(&vm, 4);
        transition(&vm, p, State::Ready);
        let claimed = claim(&vm).unwrap();
        assert_eq!(transition(&vm, claimed, State::Suspended), None);
        assert_eq!(transition(&vm, claimed, State::Terminated), None);
        assert!(can_run(&vm, claimed));
    }

    #[test]
    fn every_transition_that_can_give_work_wakes_the_idle() {
        // An idle wait without a deadline has no timeout, so a transition
        // that lets another interpreter claim a Process must wake; one that
        // does not must not, or every request wakes idle workers for
        // nothing.
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
        woke("resume", &|| {
            assert_eq!(transition(&vm, p, State::Ready), Some(p))
        });
        slept("claim", &|| assert_eq!(claim(&vm), Some(p)));
        woke("unclaim", &|| {
            assert_eq!(transition(&vm, current(p), State::Ready), Some(p))
        });
        assert_eq!(claim(&vm), Some(p));
        slept("wait", &|| {
            assert_eq!(transition(&vm, current(p), State::Waiting(sem)), Some(p))
        });
        woke("a readying signal", &|| {
            assert_eq!(signal(&vm, sem), Some(p))
        });
        slept("a signal nobody waits for", &|| {
            assert_eq!(signal(&vm, sem), None)
        });
        assert_eq!(claim(&vm), Some(p));
        slept("terminate", &|| {
            assert_eq!(transition(&vm, current(p), State::Terminated), Some(p))
        });

        // The reserved doit: this thread is its watcher.
        let doit = proc_at(&vm, 5);
        vm.set_reserved(Some(vm.mem.new_root(doit)));
        slept("the watcher spawning its doit", &|| {
            assert_eq!(transition(&vm, doit, State::Ready), Some(doit))
        });
        slept("a worker's claim", &|| assert_eq!(claim(&vm), None));
        let watched = Subject::Claimable(Some(doit));
        assert_eq!(transition(&vm, watched, State::Running), Some(doit));
        slept("the watcher ending its doit", &|| {
            assert_eq!(
                transition(&vm, current(doit), State::Terminated),
                Some(doit)
            )
        });
        let doit = proc_at(&vm, 5);
        vm.set_reserved(Some(vm.mem.new_root(doit)));
        let elsewhere = |to| std::thread::scope(|s| s.spawn(|| transition(&vm, doit, to)).join());
        woke("another thread readying the doit", &|| {
            assert_eq!(elsewhere(State::Ready).unwrap(), Some(doit))
        });
        woke("another thread ending the doit", &|| {
            assert_eq!(elsewhere(State::Terminated).unwrap(), Some(doit))
        });
        vm.set_reserved(None);
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
