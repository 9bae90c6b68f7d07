//! The stopped world: the one way to collect, and the one way to touch the
//! heap from outside the bytecode loop.
//!
//! Paper §3.1 serializes garbage collection with exactly one mechanism:
//! "all of the processes are synchronized with a global flag and the V
//! interprocess communication mechanism". [`StoppedWorld`] is that
//! mechanism's single entry. Holding one means every interpreter is parked
//! at a safepoint; every collection of a running system is one of its
//! methods, and each of them ends in the same epilogue (`collected`), so
//! what must hold after a collection is written down once.

use std::sync::atomic::Ordering;

use mst_objmem::{FullGcOutcome, FullGcReport, ObjectMemory, OomError, ScavengeOutcome};
use mst_vkernel::{Participant, ParticipantId, RendezvousGuard};

use crate::scheduler;
use crate::vm::Vm;

/// Exclusive ownership of a [`Vm`]'s stopped world; dropping it resumes
/// every interpreter. Obtained with [`Vm::stop_world`].
#[must_use = "the world resumes as soon as this is dropped"]
#[derive(Debug)]
pub struct StoppedWorld<'a> {
    vm: &'a Vm,
    // Field order is drop order: the world is released first and only then
    // does a visiting thread leave the roster, so no interpreter resumes
    // into a stop that is one participant short.
    guard: RendezvousGuard<'a>,
    visitor: Option<Participant<'a>>,
}

impl Vm {
    /// Stops the world for a thread that is not an interpreter (compiling a
    /// doit, spawning its Process, reading a result, saving a snapshot).
    /// `stop_world` counts its caller among the registered participants, so
    /// the thread joins the roster first — otherwise the rendezvous
    /// under-waits by one and a mutator keeps running — and leaves it when
    /// the [`StoppedWorld`] drops, a panic's unwind included.
    pub fn stop_world(&self) -> StoppedWorld<'_> {
        let visitor = self.rendezvous.participant();
        StoppedWorld {
            vm: self,
            guard: self.rendezvous.stop_world(visitor.id()),
            visitor: Some(visitor),
        }
    }

    /// [`stop_world`](Self::stop_world) for an interpreter, which is already
    /// registered as `id` for the whole of its `run`.
    pub(crate) fn stop_world_as(&self, id: ParticipantId) -> StoppedWorld<'_> {
        StoppedWorld {
            vm: self,
            guard: self.rendezvous.stop_world(id),
            visitor: None,
        }
    }
}

impl StoppedWorld<'_> {
    /// The VM whose world is stopped.
    pub fn vm(&self) -> &Vm {
        self.vm
    }

    /// Its object memory, safe to read and write for as long as the borrow
    /// of `self` lasts.
    pub fn mem(&self) -> &ObjectMemory {
        &self.vm.mem
    }

    /// Lends the parked interpreters to a collector as its helper runner.
    fn run(&self, helpers: usize, f: &(dyn Fn(usize) + Sync)) {
        self.guard.run_stopped(helpers, f);
    }

    /// Scavenges new space, drafting up to `gc_helpers` parked interpreters.
    ///
    /// # Errors
    ///
    /// [`OomError`] when old space cannot absorb the survivors even after
    /// the full collection the scavenge ran to make room. New space is
    /// untouched then, but old objects may have moved: the epilogue has run.
    pub fn scavenge(&self) -> Result<ScavengeOutcome, OomError> {
        let before = self.mem().gc_epoch();
        let helpers = self.mem().config().gc_helpers;
        let scavenged = self.mem().try_scavenge_with(helpers, |n, f| self.run(n, f));
        self.collected(before, None);
        scavenged
    }

    /// Runs a full mark-compact collection. The helper count adapts to the
    /// live set, so a small heap marks solo even on a big machine; the
    /// calling thread marks too, so it counts beside the online workers.
    pub fn full_collect(&self) -> FullGcOutcome {
        let mem = self.mem();
        let before = mem.gc_epoch();
        let helpers = mem.adaptive_full_gc_helpers(self.vm.processors_online() + 1);
        let outcome = mem.full_gc_with(helpers, |n, f| self.run(n, f));
        self.collected(before, Some(&outcome.report));
        outcome
    }

    /// Makes the image ready to be written: eden emptied by a scavenge and
    /// the `activeProcess` slot cleared (paper §3.3).
    ///
    /// # Errors
    ///
    /// As [`scavenge`](Self::scavenge); nothing may be saved then.
    pub fn snapshot_ready(&self) -> Result<(), OomError> {
        self.scavenge()?;
        scheduler::set_active_process_slot(self.mem(), self.mem().nil());
        Ok(())
    }

    /// What must hold after any collection, successful or not, before a
    /// mutator runs again. `before` is the GC epoch the collection started
    /// from; `report` is a full collection's own report, if one was asked
    /// for by name.
    fn collected(&self, before: u64, report: Option<&FullGcReport>) {
        let (vm, mem) = (self.vm, self.mem());
        if mem.gc_epoch() != before {
            // Objects moved — perhaps only old ones, under a scavenge that
            // then gave up: every cached oop is stale.
            vm.bump_cache_epoch();
            vm.global_cache.clear(vm.cache_epoch());
            vm.shared_free.lock().clear(mem.gc_epoch());
        }
        // Containment: what a compactor neutralized or refused is reported,
        // whichever collection (asked for, or run to make tenure room) met
        // it; the system keeps going.
        let dangling = mem.take_fullgc_dangling();
        let aborted = report.and_then(|r| r.aborted);
        let mut log = vm.error_log.lock();
        log.extend(dangling.iter().map(|d| format!("heap: {d}")));
        log.extend(aborted.map(|a| format!("heap: full GC aborted: {a}")));
        drop(log);
        // Low space is judged only after a collection an interpreter led,
        // one that allocation forced. A visitor's (a snapshot's, a harness's)
        // finds eden part-full, so no full collection had to make room first
        // and old space may be full of garbage the next forced one reclaims:
        // judged then, a healthy `serve` tenant sheds load it need not.
        if self.visitor.is_some() {
            return;
        }
        // Edge-triggered through the latch: the semaphore fires once when a
        // collection leaves old space nearly full, giving the image a chance
        // to shed load before hard exhaustion terminates a process, and
        // re-arms once space recovers.
        let free = mem.old_free();
        let threshold = (mem.old_used() + free) / 16;
        if free < threshold {
            if !vm.low_space.swap(true, Ordering::Relaxed) {
                scheduler::signal_low_space(vm);
            }
        } else if free >= threshold.saturating_mul(2) {
            vm.low_space.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contexts::CtxKind;
    use crate::vm::VmOptions;
    use mst_objmem::{MemoryConfig, ObjFormat, Oop, RootHandle, So};

    /// A VM over a bare 32 K-word old space: nil, an Array class, no image,
    /// no interpreters.
    fn bare_vm() -> Vm {
        let memory = MemoryConfig {
            old_words: 32 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        };
        let mem = ObjectMemory::new(memory);
        let nil = mem
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
            .unwrap();
        mem.specials().set(So::Nil, nil);
        let array = mem
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 8, 0)
            .unwrap();
        mem.specials().set(So::ClassArray, array);
        let options = VmOptions {
            memory,
            cache_policy: crate::CachePolicy::Serialized,
            context_policy: crate::FreeListPolicy::Shared,
            processors: 1,
            quantum: 1024,
        };
        Vm::with_memory(mem, options)
    }

    /// Fills old space with 1 000-slot arrays until fewer than `leave` words
    /// are free, rooting those `keep` selects and leaving the rest garbage.
    fn fill_old(mem: &ObjectMemory, leave: usize, keep: impl Fn(usize) -> bool) -> Vec<RootHandle> {
        let mut rooted = Vec::new();
        for i in 0.. {
            if mem.old_free() < leave.max(1_002) {
                break;
            }
            let a = mem.alloc_array_old(1_000).expect("old space has room");
            if keep(i) {
                rooted.push(mem.new_root(a));
            }
        }
        rooted
    }

    /// Rooted young arrays, `words` words of them: what a scavenge must be
    /// able to tenure.
    fn young_survivors(mem: &ObjectMemory, words: usize) -> Vec<RootHandle> {
        let token = mem.new_token();
        (0..words / 1_000)
            .map(|_| mem.new_root(mem.alloc_array(&token, 998).expect("eden has room")))
            .collect()
    }

    #[test]
    fn a_scavenge_that_fails_after_compacting_still_invalidates() {
        let vm = bare_vm();
        let mem = &vm.mem;
        // Old space: live arrays behind one dead one, so the full collection
        // the scavenge runs first slides every live array down yet frees far
        // less than eden's survivors need.
        let _old = fill_old(mem, 0, |i| i != 0);
        let _young = young_survivors(mem, 12_000);
        {
            // A recycled "context" on the shared list, valid for this epoch.
            let mut shared = vm.shared_free.lock();
            shared.clear(mem.gc_epoch());
            shared.push(CtxKind::MethodSmall, _young[0].get());
        }
        let (gc_epoch, cache_epoch) = (mem.gc_epoch(), vm.cache_epoch());

        let world = vm.stop_world();
        let scavenged = world.scavenge();
        drop(world);

        assert!(scavenged.is_err(), "{scavenged:?}");
        assert_ne!(mem.gc_epoch(), gc_epoch, "the nested full GC compacted");
        assert_ne!(vm.cache_epoch(), cache_epoch, "so every cache is stale");
        let shared = vm.shared_free.lock();
        assert!(shared.is_empty());
        assert_eq!(shared.epoch, mem.gc_epoch());
        drop(shared);
        mem.verify_heap().assert_clean();
    }

    #[test]
    fn a_full_collection_nobody_asked_for_still_reports() {
        let vm = bare_vm();
        let mem = &vm.mem;
        // The phantom of fullgc.rs's `dangling_reference_is_neutralized_not_
        // fatal`: a pointer into the middle of `victim`, whose body is shaped
        // as an empty Bytes object so the trace terminates there.
        let holder = mem.new_root(mem.alloc_array_old(2).unwrap());
        let victim = mem.alloc_array_old(4).unwrap();
        mem.store_nocheck(victim, 0, Oop::from_raw(1 << 24));
        mem.store_nocheck(victim, 1, mem.nil());
        let phantom = Oop::from_index(victim.index() + 2);
        mem.store_nocheck(holder.get(), 0, phantom);
        // Old space full of garbage and more young survivors than it has
        // room for: the scavenge must compact first, and can then proceed.
        fill_old(mem, 4_000, |_| false);
        let _young = young_survivors(mem, 8_000);

        let world = vm.stop_world();
        let scavenged = world.scavenge().expect("the full GC makes room");
        drop(world);

        assert!(scavenged.full_gc_ran);
        let log = vm.error_log.lock().clone();
        assert!(
            log.iter()
                .any(|l| l.starts_with("heap: dangling old reference")),
            "{log:?}"
        );
        assert!(mem.take_fullgc_dangling().is_empty(), "drained, once");
        assert_eq!(mem.fetch(holder.get(), 0), mem.nil(), "bad slot nilled");
    }
}
