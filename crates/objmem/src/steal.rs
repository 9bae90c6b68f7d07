//! Work distribution for the stop-the-world collectors: per-helper
//! work-stealing deques plus the one termination protocol both the
//! scavenger's transitive copy and the full collector's transitive mark
//! drain through ([`WorkPool`]).
//!
//! Each GC helper owns one [`StealDeque`]: it pushes and takes freshly
//! claimed objects at the *bottom* (LIFO, cache-warm), while idle helpers
//! steal from the *top* (FIFO, oldest first). The implementation is a
//! fixed-capacity Chase–Lev-style circular buffer on std atomics — the
//! workspace is hermetic, so no crossbeam — simplified by a property of the
//! surrounding algorithms: *processing an object twice is benign* (forwarding
//! and mark claims are CAS-idempotent and slot rewrites are racing stores of
//! identical values, done atomically). That tolerance for multiplicity (cf.
//! Castañeda & Piña, *Fully Read/Write Fence-Free Work-Stealing with
//! Multiplicity*) means the rare overwrite race between a slow thief and a
//! wrapping owner needs no generation tags: the thief's CAS on `top` fails
//! and the value is discarded.
//!
//! When a deque fills up, the owner falls back to its private stack (see
//! [`Worker`]); the deque itself never grows.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A bounded single-owner/multi-thief deque of raw oop words.
pub(crate) struct StealDeque {
    buf: Box<[AtomicU64]>,
    mask: usize,
    /// Next index thieves steal from; only ever incremented (via CAS).
    top: AtomicUsize,
    /// Next index the owner pushes at; only the owner writes it.
    bottom: AtomicUsize,
}

impl StealDeque {
    /// Creates a deque holding up to `capacity` (a power of two) elements.
    pub(crate) fn new(capacity: usize) -> StealDeque {
        assert!(capacity.is_power_of_two());
        StealDeque {
            buf: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            mask: capacity - 1,
            top: AtomicUsize::new(0),
            bottom: AtomicUsize::new(0),
        }
    }

    /// Owner-only: appends at the bottom. Returns `false` when full (the
    /// caller keeps the value in its overflow list).
    pub(crate) fn push(&self, v: u64) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return false;
        }
        self.buf[b & self.mask].store(v, Ordering::Relaxed);
        // Publish the element after its contents.
        self.bottom.store(b + 1, Ordering::Release);
        true
    }

    /// Owner-only: removes from the bottom (LIFO).
    pub(crate) fn take(&self) -> Option<u64> {
        let b_old = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::SeqCst);
        if t >= b_old {
            return None;
        }
        let b = b_old - 1;
        // Announce intent before re-reading top, so a thief racing for the
        // same (last) element is serialized by the CAS below.
        self.bottom.store(b, Ordering::SeqCst);
        let v = self.buf[b & self.mask].load(Ordering::Relaxed);
        let t = self.top.load(Ordering::SeqCst);
        if t < b {
            // More than one element remained; the bottom one is ours alone.
            return Some(v);
        }
        // Last element (t == b): contend with thieves for it via `top`; a
        // thief may also have emptied the deque already (t == b + 1). Either
        // way bottom is restored so top == bottom == empty.
        let won = t == b
            && self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        self.bottom.store(b + 1, Ordering::SeqCst);
        if won {
            Some(v)
        } else {
            None
        }
    }

    /// Thief: removes from the top (FIFO). Safe from any thread.
    pub(crate) fn steal(&self) -> Option<u64> {
        loop {
            let t = self.top.load(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let v = self.buf[t & self.mask].load(Ordering::Acquire);
            // If the owner wrapped around and overwrote slot `t`, `top` has
            // already moved past `t` (the owner's room check saw it), so
            // this CAS fails and the possibly-torn value is discarded.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(v);
            }
        }
    }

    /// Whether the deque looks empty (racy; exact once its owner is idle).
    pub(crate) fn is_empty(&self) -> bool {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        t >= b
    }
}

/// The leader-drafts-helpers runner contract both collectors share (and
/// `RendezvousGuard::run_stopped` fulfils): call the closure with distinct
/// slots in `0..helpers` — any subset, but slot 0 (the leader) must run —
/// from at most one thread per slot, and return once every invocation has
/// finished.
pub(crate) type HelperRunner<'a> = &'a dyn Fn(usize, &(dyn Fn(usize) + Sync));

/// The runner for a collection nobody helps with: the caller is slot 0.
pub(crate) fn solo_runner(_helpers: usize, f: &(dyn Fn(usize) + Sync)) {
    f(0);
}

/// Chaos: a non-leader helper slot may be told to die (`gc_helper.panic`).
/// Call at slot entry, *before* the slot claims any work or joins a
/// [`WorkPool`]'s busy set: the leader then never waits on a count the dead
/// helper would have owed, the unwind is absorbed by the rendezvous'
/// helper-slot catch, and the collection completes with fewer helpers.
pub(crate) fn chaos_helper_panic(slot: usize, phase: &str) {
    if slot != 0 && mst_vkernel::fault::gc_helper_panic() {
        panic!("chaos: injected GC helper panic (gc_helper.panic) in {phase} slot {slot}");
    }
}

/// Capacity of each slot's deque (oop words). Overflow goes to the owner's
/// private stack, so this only bounds what thieves can see.
const DEQUE_CAPACITY: usize = 1 << 13;

/// The shared half of one transitive drain: a deque per helper slot and the
/// busy/rounds termination detector. Helpers join with [`enter`]
/// (WorkPool::enter) and pull work through [`Worker::next`] until it
/// reports global quiescence.
pub(crate) struct WorkPool {
    slots: usize,
    /// One deque per slot; helpers push/take their own, steal the rest. A
    /// one-slot pool has none: with nobody to steal, its helper keeps
    /// everything on its private stack.
    deques: Vec<StealDeque>,
    /// Helpers that actually ran (any subset of the slots may).
    entered: AtomicUsize,
    /// Helpers currently holding or producing work (termination detection).
    busy: AtomicUsize,
    /// Bumped whenever a helper (re-)joins the busy set, *after* the busy
    /// increment: an idle helper that saw `busy == 0` and empty deques can
    /// detect a racing re-entry by re-reading this.
    rounds: AtomicUsize,
}

impl WorkPool {
    pub(crate) fn new(slots: usize) -> WorkPool {
        assert!(slots >= 1, "a collection needs its leader");
        // The one place the helper count picks a strategy.
        let shared = if slots > 1 { slots } else { 0 };
        WorkPool {
            slots,
            deques: (0..shared)
                .map(|_| StealDeque::new(DEQUE_CAPACITY))
                .collect(),
            entered: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            rounds: AtomicUsize::new(0),
        }
    }

    /// Helpers that entered so far (exact once the runner has returned).
    pub(crate) fn entered(&self) -> usize {
        self.entered.load(Ordering::SeqCst)
    }

    /// Joins the pool as `slot`'s worker, in the busy set. `phase` names
    /// the collection phase in the chaos panic message.
    pub(crate) fn enter(&self, slot: usize, phase: &str) -> Worker<'_> {
        assert!(slot < self.slots, "helper slot out of range");
        chaos_helper_panic(slot, phase);
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.join();
        Worker {
            pool: self,
            slot,
            stack: Vec::new(),
            busy: true,
            steals: 0,
            term_ns: 0,
        }
    }

    /// Joins the busy set. `busy` first, `rounds` second: the idle probe
    /// reads them in the opposite order, so any entry lands in at least one
    /// of its two reads.
    fn join(&self) {
        self.busy.fetch_add(1, Ordering::SeqCst);
        self.rounds.fetch_add(1, Ordering::SeqCst);
    }
}

/// One helper's handle on a [`WorkPool`]: its slot, its private stack, and
/// its statistics.
pub(crate) struct Worker<'p> {
    pool: &'p WorkPool,
    slot: usize,
    /// Private LIFO, invisible to thieves: what the deque could not hold.
    stack: Vec<u64>,
    /// Whether this worker currently counts in the pool's busy set.
    busy: bool,
    steals: u64,
    term_ns: u64,
}

/// What a [`Worker`] hands back when it leaves the pool.
pub(crate) struct WorkerReport {
    pub(crate) steals: u64,
    /// Nanoseconds spent probing for termination rather than working.
    pub(crate) term_ns: u64,
}

impl Worker<'_> {
    pub(crate) fn push(&mut self, v: u64) {
        match self.pool.deques.get(self.slot) {
            Some(d) if d.push(v) => {}
            _ => self.stack.push(v),
        }
    }

    /// The next work item: own stack, own deque, then a steal. When all
    /// three are dry the helper leaves the busy set and probes for global
    /// quiescence, returning `None` once every helper is dry at once.
    pub(crate) fn next(&mut self) -> Option<u64> {
        let pool = self.pool;
        let deques = &pool.deques;
        loop {
            if !self.busy {
                pool.join();
                self.busy = true;
            }
            if let Some(v) = self.stack.pop() {
                return Some(v);
            }
            if let Some(v) = deques.get(self.slot).and_then(StealDeque::take) {
                return Some(v);
            }
            let n = deques.len();
            for k in 1..n {
                if let Some(v) = deques[(self.slot + k) % n].steal() {
                    self.steals += 1;
                    return Some(v);
                }
            }
            // Locally dry: leave the busy set, then probe. The invariant
            // making this sound: a helper only decrements `busy` with an
            // empty deque and no work in hand, so when `busy == 0` all
            // outstanding work is visible in deques. The `rounds` re-read
            // catches a helper that re-entered (and may have already
            // emptied a deque again) during the probe.
            pool.busy.fetch_sub(1, Ordering::SeqCst);
            self.busy = false;
            let t_probe = Instant::now();
            let quiescent = loop {
                let r0 = pool.rounds.load(Ordering::SeqCst);
                if pool.busy.load(Ordering::SeqCst) == 0
                    && deques.iter().all(StealDeque::is_empty)
                    && pool.rounds.load(Ordering::SeqCst) == r0
                {
                    break true;
                }
                if deques.iter().any(|d| !d.is_empty()) {
                    break false;
                }
                std::hint::spin_loop();
            };
            self.term_ns += t_probe.elapsed().as_nanos() as u64;
            if quiescent {
                return None;
            }
        }
    }

    /// Leaves the pool once [`next`](Self::next) has reported quiescence:
    /// by then the helper holds no work and is out of the busy set.
    pub(crate) fn finish(self) -> WorkerReport {
        debug_assert!(
            !self.busy && self.stack.is_empty(),
            "finish before quiescence"
        );
        WorkerReport {
            steals: self.steals,
            term_ns: self.term_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = StealDeque::new(8);
        assert!(d.push(1) && d.push(2) && d.push(3));
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.take(), Some(3));
        assert_eq!(d.take(), Some(2));
        assert_eq!(d.take(), None);
        assert_eq!(d.steal(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn push_reports_full_and_recovers() {
        let d = StealDeque::new(4);
        for i in 0..4 {
            assert!(d.push(i));
        }
        assert!(!d.push(99), "capacity reached");
        assert_eq!(d.steal(), Some(0));
        assert!(d.push(99), "stealing made room");
        // Everything pushed (minus the stolen head) comes back out.
        let mut seen = Vec::new();
        while let Some(v) = d.take() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 99]);
    }

    #[test]
    fn interleaved_take_and_push_across_wraparound() {
        let d = StealDeque::new(4);
        for round in 0..100u64 {
            assert!(d.push(round));
            assert_eq!(d.take(), Some(round));
        }
        assert!(d.is_empty());
    }

    #[test]
    fn concurrent_thieves_never_lose_an_element() {
        // One owner pushes/takes while three thieves steal; every element is
        // consumed at least once and nothing invented. Duplicates are
        // permitted by contract but this schedule should not produce any —
        // we still only assert the at-least-once property the GC relies on.
        const PER_ROUND: u64 = 1 << 10;
        let d = Arc::new(StealDeque::new(64));
        let seen = Arc::new(
            (0..PER_ROUND)
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>(),
        );
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let d = Arc::clone(&d);
                let seen = Arc::clone(&seen);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    while !done.load(Ordering::Acquire) || !d.is_empty() {
                        if let Some(v) = d.steal() {
                            seen[v as usize].store(true, Ordering::Release);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let mut backlog = Vec::new();
        for v in 0..PER_ROUND {
            if !d.push(v) {
                backlog.push(v);
            }
            if v % 7 == 0 {
                if let Some(got) = d.take() {
                    seen[got as usize].store(true, Ordering::Release);
                }
            }
            while let Some(v) = backlog.pop() {
                if d.push(v) {
                    continue;
                }
                backlog.push(v);
                break;
            }
        }
        for v in backlog {
            while !d.push(v) {
                if let Some(got) = d.take() {
                    seen[got as usize].store(true, Ordering::Release);
                }
            }
        }
        while let Some(got) = d.take() {
            seen[got as usize].store(true, Ordering::Release);
        }
        done.store(true, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }
        let missing: Vec<u64> = (0..PER_ROUND)
            .filter(|&v| !seen[v as usize].load(Ordering::Acquire))
            .collect();
        assert!(missing.is_empty(), "lost elements: {missing:?}");
    }

    /// Drains a seeded random tree (node 0 the root; processing a node
    /// pushes its children) through a pool of `slots`, with the slots in
    /// `absent` dying before they enter. Returns per-node visit counts, the
    /// entered count, and total steals.
    fn drain_tree(
        seed: u64,
        nodes: usize,
        slots: usize,
        absent: &[usize],
    ) -> (Vec<u32>, usize, u64) {
        let mut rng = mst_vkernel::SplitMix64::new(seed);
        let mut children: Vec<Vec<u64>> = vec![Vec::new(); nodes];
        for n in 1..nodes {
            children[rng.gen_range(0, n as u64) as usize].push(n as u64);
        }
        let visits: Vec<AtomicU64> = (0..nodes).map(|_| AtomicU64::new(0)).collect();
        let steals = AtomicU64::new(0);
        let pool = WorkPool::new(slots);
        let helper = |slot: usize| {
            if absent.contains(&slot) {
                // What `chaos_helper_panic` does to a slot: gone before it
                // joins the busy set, so nobody may wait for it.
                return;
            }
            let mut w = pool.enter(slot, "test");
            if slot == 0 {
                w.push(0);
            }
            while let Some(n) = w.next() {
                visits[n as usize].fetch_add(1, Ordering::Relaxed);
                for &c in &children[n as usize] {
                    w.push(c);
                }
            }
            let report = w.finish();
            steals.fetch_add(report.steals, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            for slot in 1..slots {
                let helper = &helper;
                s.spawn(move || helper(slot));
            }
            helper(0);
        });
        let visits = visits
            .iter()
            .map(|v| v.load(Ordering::Relaxed) as u32)
            .collect();
        (visits, pool.entered(), steals.load(Ordering::Relaxed))
    }

    #[test]
    fn work_pool_processes_every_item_once_and_terminates() {
        const NODES: usize = 50_000; // deeper than one deque's capacity
        for seed in [1u64, 0xB00C, 0x6C_BE4C] {
            // One slot: everything stays on the private stack, no steals.
            let (visits, entered, steals) = drain_tree(seed, NODES, 1, &[]);
            assert!(visits.iter().all(|&v| v == 1), "seed {seed:#x}, 1 slot");
            assert_eq!((entered, steals), (1, 0));
            // Four slots, one of which dies before entering: the other
            // three still see every node exactly once and all terminate
            // (the scope would hang otherwise).
            let (visits, entered, _) = drain_tree(seed, NODES, 4, &[3]);
            let wrong = visits.iter().filter(|&&v| v != 1).count();
            assert_eq!(
                wrong, 0,
                "seed {seed:#x}, 4 slots: {wrong} nodes not visited once"
            );
            assert_eq!(entered, 3);
        }
    }
}
