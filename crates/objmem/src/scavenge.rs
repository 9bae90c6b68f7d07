//! Generation Scavenging.
//!
//! Paper §3.1: *"BS collects garbage using Generation Scavenging, a
//! stop-and-copy scheme. Since scavenging requires all of the live new
//! objects to move, and no indirection or forwarding is used except during
//! the scavenging activity, the interpreter must suspend all other activity
//! for the duration of the operation."*
//!
//! The caller is responsible for that suspension (see
//! [`Rendezvous`](mst_vkernel::Rendezvous)); every entry point here assumes
//! the world is stopped. Live objects are copied from eden and the *past*
//! survivor space to the *future* survivor space, with objects that have
//! survived [`MemoryConfig::tenure_age`](crate::MemoryConfig) scavenges
//! promoted to old space. Roots are the special objects, registered root
//! cells, and the entry table (old objects known to reference new space).
//!
//! There is one scavenger. The paper stops every processor and lets one of
//! them collect; its §5 wish — "the stopped processors could help" — is the
//! same collector handed more slots
//! ([`try_scavenge_with`](ObjectMemory::try_scavenge_with)). Helpers
//! partition the root cells and the entry table with atomic chunk cursors,
//! claim from-space objects by CAS-installing a forwarding sentinel in the
//! object header, copy into private to-space buffers carved from the shared
//! survivor bump pointer, and balance the transitive copy through the
//! [`WorkPool`]. With one slot — the default `gc_helpers = 1` — the leader
//! runs exactly that code with nobody to contend or steal: every claim CAS
//! succeeds first try and the work list is its private stack.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::header::{Header, ObjFormat, MAX_AGE, PAD_WORD};
use crate::heap::ObjectMemory;
use crate::method::MethodHeader;
use crate::oop::Oop;
use crate::steal::{solo_runner, HelperRunner, WorkPool, Worker};

/// Result of one scavenge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScavengeOutcome {
    /// Words copied into the future survivor space.
    pub words_survived: u64,
    /// Words promoted to old space.
    pub words_tenured: u64,
    /// Objects promoted to old space.
    pub objects_tenured: u64,
    /// Wall time of the scavenge in nanoseconds.
    pub nanos: u64,
    /// Whether a full mark-compact collection was needed first.
    pub full_gc_ran: bool,
}

impl ObjectMemory {
    /// Scavenges new space on the calling thread. **The world must be
    /// stopped by the caller**; a running system goes through
    /// `mst_interp::StoppedWorld::scavenge`, which cannot panic while it
    /// holds the world — this solo form is for tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if old space cannot hold the worst-case tenured volume even
    /// after a full collection (genuine out-of-memory); use
    /// [`try_scavenge`](Self::try_scavenge) where the caller can recover.
    pub fn scavenge(&self) -> ScavengeOutcome {
        self.try_scavenge().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`try_scavenge_with`](Self::try_scavenge_with) and nobody helping.
    pub fn try_scavenge(&self) -> Result<ScavengeOutcome, crate::OomError> {
        self.try_scavenge_with(1, solo_runner)
    }

    /// Scavenges new space with up to `helpers` threads drawn from the
    /// stopped world, reporting old-space exhaustion as a recoverable
    /// [`OomError`](crate::OomError) instead of panicking. **The world must
    /// be stopped by the caller**: in a running system,
    /// `mst_interp::StoppedWorld::scavenge` and nobody else.
    ///
    /// `run` is handed the helper count and a closure; its contract is the
    /// one [`RendezvousGuard::run_stopped`](mst_vkernel::RendezvousGuard)
    /// fulfils: invoke the closure with distinct slot indices in
    /// `0..helpers` (any subset is fine, but slot 0 — the leader — must
    /// run), from at most one thread per slot, and return only once every
    /// invocation has finished. A plain `std::thread::scope` fan-out works
    /// too. A full collection this scavenge has to run first to make tenure
    /// room borrows the same runner.
    ///
    /// Replicated caches and allocation buffers become invalid: the GC epoch
    /// ([`gc_epoch`](Self::gc_epoch)) is bumped so their owners notice.
    ///
    /// On `Err` new space is untouched (the check happens before any object
    /// moves): mutators may keep running against the still-consistent heap,
    /// and a later scavenge — after dead old objects are released — can
    /// succeed.
    pub fn try_scavenge_with<R>(
        &self,
        helpers: usize,
        run: R,
    ) -> Result<ScavengeOutcome, crate::OomError>
    where
        R: Fn(usize, &(dyn Fn(usize) + Sync)),
    {
        let run: HelperRunner = &run;
        let helpers = helpers.max(1);
        let mut trace_span = mst_telemetry::span("gc.scavenge", "gc");
        let pause_start_ns = mst_telemetry::now_ns();
        let start = Instant::now();
        mst_telemetry::trace::counter_event(
            "gc.eden",
            "gc",
            "occupied_words",
            self.eden_used() as u64,
        );
        let full_gc_ran = self.reserve_tenure_room(helpers, run)?;
        let reserve_ns = start.elapsed().as_nanos() as u64;
        let (to_start, to_end) = self.select_to_space();
        self.survivor_next.store(to_start, Ordering::Relaxed);

        // Snapshot the root cells (pruning dropped handles) and the entry
        // table up front: helpers partition both with atomic chunk cursors,
        // so the work lists must stay immutable for the duration.
        let root_cells = {
            let mut roots = self.roots.lock();
            let mut cells = Vec::with_capacity(roots.len());
            roots.retain(|weak| match weak.upgrade() {
                Some(cell) => {
                    cells.push(cell);
                    true
                }
                None => false,
            });
            cells
        };
        let entries = std::mem::take(&mut *self.entry_table.lock());

        let par = ParScavenger {
            mem: self,
            to_start,
            to_end,
            root_cells,
            entries,
            root_cursor: AtomicUsize::new(0),
            entry_cursor: AtomicUsize::new(0),
            pool: WorkPool::new(helpers),
            merge: Mutex::new(MergeState::default()),
        };
        mst_telemetry::trace::counter_event("gc.phase", "gc", "scavenge_phase", 1);
        // Boundary timestamps off the one `start` clock: the recorded phases
        // below partition the pause exactly because every phase is a gap
        // between two of these boundaries (no independent timers to leave
        // unattributed seams between regions).
        let b_run0 = start.elapsed().as_nanos() as u64;
        run(helpers, &|slot| par.run_helper(slot));
        let b_run1 = start.elapsed().as_nanos() as u64;
        let ran = par.pool.entered();
        assert!(ran >= 1, "run() must invoke the scavenge closure (slot 0)");
        let m = par.merge.into_inner().unwrap();
        // Merge retained entries back (tenured-object entries added during
        // the drain are already in the live table; flags prevent duplicates).
        self.entry_table.lock().extend(m.retained);

        let mut outcome = ScavengeOutcome {
            // Pads that plug abandoned buffer tails are not survivors: count
            // the copied words, not the to-space frontier.
            words_survived: m.copied_words,
            words_tenured: m.tenured_words,
            objects_tenured: m.tenured_objects,
            nanos: 0,
            full_gc_ran,
        };

        let b_flip = start.elapsed().as_nanos() as u64;
        mst_telemetry::trace::counter_event("gc.phase", "gc", "scavenge_phase", 3);
        // Flip: the future survivor space becomes the past one. `past_fill`
        // is the carve frontier — every word below it is an object or a pad.
        let past_was_a = self.past_is_a.load(Ordering::Relaxed);
        self.past_is_a.store(!past_was_a, Ordering::Relaxed);
        self.past_fill.store(
            self.survivor_next.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.eden_reset();
        self.bump_epoch();
        // New space now holds only freshly copied survivors: any dangling
        // references a full collection left in dead objects are gone.
        self.fullgc_since_scavenge.store(false, Ordering::Relaxed);
        mst_telemetry::trace::counter_event("gc.eden", "gc", "occupied_words", 0);
        mst_telemetry::trace::counter_event("gc.phase", "gc", "scavenge_phase", 0);

        outcome.nanos = start.elapsed().as_nanos() as u64;
        // Sharded counters: recording the outcome never contends, even when
        // several memories (tests, competing benchmarks) collect at once.
        self.stats.scavenges.incr();
        self.stats.words_survived.add(outcome.words_survived);
        self.stats.words_tenured.add(outcome.words_tenured);

        // The pause record is the one owner of this pause's duration, phase
        // split and helper statistics (a solo scavenge is one helper, no
        // steals, 100% balance). The leader (slot 0) spans the whole helper
        // region, so its roots/copy/termination split attributes that
        // region; "drain" is the leftover the leader spent off-region
        // (helper scheduling skew). The remaining phases are gaps between
        // the boundary timestamps above, so the record sums to the total.
        let balance_pct = mst_telemetry::GcPause::balance_pct(&m.per_helper_copied);
        let leader_ns = m.leader_roots_ns + m.leader_copy_ns + m.leader_term_ns;
        mst_telemetry::pauselog::record(mst_telemetry::GcPause {
            kind: "scavenge",
            start_ns: pause_start_ns,
            total_ns: outcome.nanos,
            phases: vec![
                ("reserve", reserve_ns),
                ("setup", b_run0.saturating_sub(reserve_ns)),
                ("roots", m.leader_roots_ns),
                ("copy", m.leader_copy_ns),
                ("termination", m.leader_term_ns),
                ("drain", (b_run1 - b_run0).saturating_sub(leader_ns)),
                ("merge", b_flip.saturating_sub(b_run1)),
                ("finalize", outcome.nanos - b_flip),
            ],
            helpers: ran,
            per_helper_work: m.per_helper_copied,
            steals: m.steals,
            imbalance_pct: balance_pct,
        });

        trace_span.set_arg("words_survived", outcome.words_survived);
        drop(trace_span);
        // Debug builds audit the heap after every completed scavenge, as
        // after every full collection.
        #[cfg(debug_assertions)]
        self.verify_heap().assert_clean();
        Ok(outcome)
    }

    /// Makes sure old space can absorb the worst case — every live new word
    /// tenures, plus any recorded large-allocation shortfall the retry after
    /// this collection will claim — running a full collection if bump
    /// allocation alone cannot cover it. Returns whether the full GC ran.
    ///
    /// The emergency full GC borrows the scavenge's stopped helpers (clamped
    /// by [`adaptive_full_gc_helpers`](Self::adaptive_full_gc_helpers)) and
    /// is the same collection as a deliberate one.
    fn reserve_tenure_room(
        &self,
        available: usize,
        run: HelperRunner,
    ) -> Result<bool, crate::OomError> {
        let reserve = self.eden_used() + self.past_survivor_used() + self.take_large_shortfall();
        if self.old_free() >= reserve {
            return Ok(false);
        }
        self.full_gc_with(self.adaptive_full_gc_helpers(available), run);
        if self.old_free() < reserve {
            return Err(crate::OomError {
                requested: reserve,
                old_free: self.old_free(),
            });
        }
        Ok(true)
    }

    /// The future survivor space for the next scavenge, as `(start, end)`.
    fn select_to_space(&self) -> (usize, usize) {
        if self.past_is_a.load(Ordering::Relaxed) {
            (self.spaces().surv_b_start, self.spaces().surv_b_end)
        } else {
            (self.spaces().surv_a_start, self.spaces().surv_b_start)
        }
    }
}

/// Words each helper carves from the shared survivor bump pointer at a time.
/// Large enough that CAS contention on `survivor_next` is rare, small enough
/// that abandoned buffer tails (padded with [`PAD_WORD`]) waste little.
const HELPER_BUF_WORDS: usize = 1024;
/// Root cells / entry-table objects claimed per cursor bump.
const ROOT_CHUNK: usize = 32;
const ENTRY_CHUNK: usize = 32;

/// Shared state for one scavenge. Borrowed (`Sync`) by every helper; all
/// mutation goes through atomics or the merge mutex.
struct ParScavenger<'m> {
    mem: &'m ObjectMemory,
    to_start: usize,
    to_end: usize,
    /// Immutable snapshot of the live Rust-side root cells.
    root_cells: Vec<Arc<AtomicU64>>,
    /// Immutable snapshot of the entry table (remembered old objects).
    entries: Vec<Oop>,
    root_cursor: AtomicUsize,
    entry_cursor: AtomicUsize,
    /// Freshly copied objects whose slots still await scanning.
    pool: WorkPool,
    merge: Mutex<MergeState>,
}

#[derive(Default)]
struct MergeState {
    retained: Vec<Oop>,
    copied_words: u64,
    tenured_words: u64,
    tenured_objects: u64,
    steals: u64,
    per_helper_copied: Vec<u64>,
    /// Slot 0's phase split (roots / transitive copy / termination probe):
    /// the leader runs the whole helper region, so its split attributes
    /// the pause (helpers overlap it).
    leader_roots_ns: u64,
    leader_copy_ns: u64,
    leader_term_ns: u64,
}

/// One helper's private state: its work-pool handle, its to-space buffer,
/// its retained entry-table slice, and statistics.
struct HelperCtx<'p> {
    worker: Worker<'p>,
    buf_next: usize,
    buf_limit: usize,
    retained: Vec<Oop>,
    copied_words: u64,
    tenured_words: u64,
    tenured_objects: u64,
}

impl ParScavenger<'_> {
    fn run_helper(&self, slot: usize) {
        let mem = self.mem;
        let mut h = HelperCtx {
            worker: self.pool.enter(slot, "scavenge"),
            buf_next: 0,
            buf_limit: 0,
            retained: Vec::new(),
            copied_words: 0,
            tenured_words: 0,
            tenured_objects: 0,
        };
        let t_roots = Instant::now();
        // Slot 0 — the leader, guaranteed to run — owns the special objects.
        if slot == 0 {
            mem.specials().update_all(|o| self.forward(&mut h, o));
        }
        // Root cells, in exclusive chunks.
        loop {
            let i0 = self.root_cursor.fetch_add(ROOT_CHUNK, Ordering::SeqCst);
            if i0 >= self.root_cells.len() {
                break;
            }
            let end = (i0 + ROOT_CHUNK).min(self.root_cells.len());
            for cell in &self.root_cells[i0..end] {
                let old = Oop::from_raw(cell.load(Ordering::Relaxed));
                let new = self.forward(&mut h, old);
                cell.store(new.raw(), Ordering::Relaxed);
            }
        }
        // Entry table, in exclusive chunks: scan remembered old objects,
        // dropping the ones that no longer reference new space.
        loop {
            let i0 = self.entry_cursor.fetch_add(ENTRY_CHUNK, Ordering::SeqCst);
            if i0 >= self.entries.len() {
                break;
            }
            let end = (i0 + ENTRY_CHUNK).min(self.entries.len());
            for &obj in &self.entries[i0..end] {
                if self.scan_slots(&mut h, obj) {
                    h.retained.push(obj);
                } else {
                    let hd = mem.header(obj);
                    mem.set_header(obj, hd.with_remembered(false));
                }
            }
        }
        let roots_ns = t_roots.elapsed().as_nanos() as u64;
        let t_copy = Instant::now();
        // Transitive copy: scan what was copied until every helper is dry.
        while let Some(raw) = h.worker.next() {
            let obj = Oop::from_raw(raw);
            let is_old = mem.is_old(obj);
            let has_new = self.scan_slots(&mut h, obj);
            if is_old && has_new {
                mem.remember(obj);
            }
        }
        let report = h.worker.finish();
        let copy_ns = (t_copy.elapsed().as_nanos() as u64).saturating_sub(report.term_ns);
        // Plug the unused tail of the final buffer so to-space stays
        // linearly walkable.
        for w in h.buf_next..h.buf_limit {
            mem.set_word(w, PAD_WORD);
        }
        let mut m = self.merge.lock().unwrap();
        m.retained.append(&mut h.retained);
        m.copied_words += h.copied_words;
        m.tenured_words += h.tenured_words;
        m.tenured_objects += h.tenured_objects;
        m.steals += report.steals;
        m.per_helper_copied.push(h.copied_words);
        if slot == 0 {
            m.leader_roots_ns = roots_ns;
            m.leader_copy_ns = copy_ns;
            m.leader_term_ns = report.term_ns;
        }
    }

    fn in_to_space(&self, idx: usize) -> bool {
        (self.to_start..self.to_end).contains(&idx)
    }

    /// Forwards every new-space pointer in `obj`'s slots; returns whether
    /// any slot still points into new space afterwards.
    ///
    /// Slot accesses are atomic: a stolen duplicate means two helpers may
    /// scan the same object, racing to store the *same* forwarded value.
    fn scan_slots(&self, h: &mut HelperCtx, obj: Oop) -> bool {
        let mem = self.mem;
        let hd = Header(mem.word_atomic(obj.index()).load(Ordering::Acquire));
        let nslots = match hd.format() {
            ObjFormat::Pointers => hd.body_words(),
            ObjFormat::Method => MethodHeader::decode(mem.fetch(obj, 0)).pointer_slots(),
            ObjFormat::Bytes => 0,
        };
        let mut has_new = false;
        for i in 0..nslots {
            let w = mem.word_atomic(obj.index() + 2 + i);
            let v = Oop::from_raw(w.load(Ordering::Acquire));
            if mem.is_new(v) {
                let nv = self.forward(h, v);
                w.store(nv.raw(), Ordering::Release);
                has_new |= mem.is_new(nv);
            }
        }
        has_new
    }

    /// Copies a from-space object (or returns its forwarding pointer).
    ///
    /// Ownership of the copy is decided by a CAS on the header word: the
    /// winner installs [`Header::claim_word`] (forwarded, target 0), copies,
    /// then publishes the real target with a release store. Losers — and any
    /// scanner chasing a pointer mid-copy — spin on the zero target.
    fn forward(&self, h: &mut HelperCtx, oop: Oop) -> Oop {
        let mem = self.mem;
        // The to-space check makes duplicate scans idempotent: a re-scanned
        // slot already holds the copy's address, which must not be "moved"
        // again.
        if !mem.is_new(oop) || self.in_to_space(oop.index()) {
            return oop;
        }
        let w0a = mem.word_atomic(oop.index());
        let mut w0 = w0a.load(Ordering::Acquire);
        loop {
            let hd = Header(w0);
            if hd.is_forwarded() {
                return Self::await_target(w0a, hd);
            }
            match w0a.compare_exchange(
                w0,
                Header::claim_word(),
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(cur) => w0 = cur,
            }
        }
        // We hold the claim: copy exclusively, from the pre-claim header.
        let hd = Header(w0);
        let total = 2 + hd.body_words();
        let age = (hd.age() + 1).min(MAX_AGE);
        let mut tenured = true;
        let dest = if age >= mem.config().tenure_age {
            None
        } else {
            self.alloc_survivor(h, total)
        };
        let dest = match dest {
            Some(d) => {
                tenured = false;
                d
            }
            None => mem
                .allocate_old(Oop::ZERO, ObjFormat::Bytes, hd.body_words(), 0)
                .expect("old space exhausted during tenure (checked up front)")
                .index(),
        };
        mem.set_word(dest, hd.with_age(age).0);
        mem.copy_words(oop.index() + 1, dest + 1, total - 1);
        let new_oop = Oop::from_index(dest);
        if tenured {
            h.tenured_words += total as u64;
            h.tenured_objects += 1;
        } else {
            h.copied_words += total as u64;
        }
        // Publish the target; pairs with the acquire loads in
        // `await_target`, so spinners observe the finished copy.
        w0a.store(Header::forwarding_word(new_oop.raw()), Ordering::Release);
        h.worker.push(new_oop.raw());
        new_oop
    }

    /// Spins until a claimed forwarding word carries its real target.
    fn await_target(w0a: &AtomicU64, mut hd: Header) -> Oop {
        loop {
            let t = hd.forwarding_target();
            if t != 0 {
                return Oop::from_raw(t);
            }
            std::hint::spin_loop();
            hd = Header(w0a.load(Ordering::Acquire));
        }
    }

    /// Bump-allocates `total` words of to-space from the helper's private
    /// buffer, refilling it from the shared carve frontier when exhausted.
    /// `None` means to-space is full and the caller tenures instead.
    fn alloc_survivor(&self, h: &mut HelperCtx, total: usize) -> Option<usize> {
        if h.buf_limit - h.buf_next >= total {
            let d = h.buf_next;
            h.buf_next += total;
            return Some(d);
        }
        let mem = self.mem;
        let mut cur = mem.survivor_next.load(Ordering::Relaxed);
        loop {
            // Feasibility before padding: a doomed refill must not waste the
            // current buffer (small objects may still fit its tail).
            if cur + total > self.to_end {
                return None;
            }
            let chunk = HELPER_BUF_WORDS.max(total).min(self.to_end - cur);
            match mem.survivor_next.compare_exchange(
                cur,
                cur + chunk,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Abandoned tail of the old buffer stays walkable.
                    for w in h.buf_next..h.buf_limit {
                        mem.set_word(w, PAD_WORD);
                    }
                    h.buf_next = cur + total;
                    h.buf_limit = cur + chunk;
                    return Some(cur);
                }
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::tests::bootstrap_minimal;
    use crate::heap::{MemoryConfig, ObjectMemory};

    fn mem() -> ObjectMemory {
        let m = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            tenure_age: 3,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&m);
        m
    }

    #[test]
    fn rooted_object_survives_with_contents() {
        let m = mem();
        let tok = m.new_token();
        let arr = m.alloc_array(&tok, 3).unwrap();
        m.store_nocheck(arr, 0, Oop::from_small_int(41));
        let s = m.alloc_string(&tok, "payload").unwrap();
        m.store_nocheck(arr, 1, s);
        let root = m.new_root(arr);
        let out = m.scavenge();
        assert!(out.words_survived > 0);
        let arr2 = root.get();
        assert_ne!(arr2, arr, "object must have moved");
        assert_eq!(m.fetch(arr2, 0).as_small_int(), 41);
        assert_eq!(m.str_value(m.fetch(arr2, 1)), "payload");
        assert_eq!(m.fetch(arr2, 2), m.nil());
    }

    #[test]
    fn garbage_does_not_survive() {
        let m = mem();
        let tok = m.new_token();
        for _ in 0..100 {
            m.alloc_array(&tok, 10).unwrap();
        }
        let out = m.scavenge();
        assert_eq!(out.words_survived, 0);
        assert_eq!(out.words_tenured, 0);
        assert_eq!(m.eden_used(), 0);
    }

    #[test]
    fn shared_structure_is_preserved_not_duplicated() {
        let m = mem();
        let tok = m.new_token();
        let shared = m.alloc_array(&tok, 1).unwrap();
        let a = m.alloc_array(&tok, 1).unwrap();
        let b = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(a, 0, shared);
        m.store_nocheck(b, 0, shared);
        let ra = m.new_root(a);
        let rb = m.new_root(b);
        m.scavenge();
        assert_eq!(m.fetch(ra.get(), 0), m.fetch(rb.get(), 0));
    }

    #[test]
    fn cycles_survive() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 1).unwrap();
        let b = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(a, 0, b);
        m.store_nocheck(b, 0, a);
        let root = m.new_root(a);
        m.scavenge();
        let a2 = root.get();
        let b2 = m.fetch(a2, 0);
        assert_eq!(m.fetch(b2, 0), a2);
    }

    #[test]
    fn identity_hash_stable_across_scavenges() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 1).unwrap();
        let h = m.identity_hash(a);
        let root = m.new_root(a);
        m.scavenge();
        m.scavenge();
        assert_eq!(m.identity_hash(root.get()), h);
    }

    #[test]
    fn objects_tenure_after_enough_scavenges() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 4).unwrap();
        let root = m.new_root(a);
        for _ in 0..2 {
            m.scavenge();
            assert!(m.is_new(root.get()), "too young to tenure");
        }
        let out = m.scavenge();
        assert!(out.objects_tenured >= 1);
        assert!(m.is_old(root.get()), "should be tenured by age 3");
        // Further scavenges leave it alone.
        let before = root.get();
        m.scavenge();
        assert_eq!(root.get(), before);
    }

    #[test]
    fn remembered_set_keeps_new_targets_alive_and_updates_slots() {
        let m = mem();
        let tok = m.new_token();
        let old = m.alloc_array_old(1).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(young, 0, Oop::from_small_int(5));
        m.store(old, 0, young);
        assert_eq!(m.entry_table_len(), 1);
        m.scavenge();
        let young2 = m.fetch(old, 0);
        assert_ne!(young2, young);
        assert!(m.is_new(young2));
        assert_eq!(m.fetch(young2, 0).as_small_int(), 5);
        assert_eq!(m.entry_table_len(), 1, "still references new space");
    }

    #[test]
    fn entry_table_entry_dropped_when_target_tenures() {
        let m = mem();
        let tok = m.new_token();
        let old = m.alloc_array_old(1).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store(old, 0, young);
        for _ in 0..4 {
            m.scavenge();
        }
        assert!(m.is_old(m.fetch(old, 0)), "target tenured");
        assert_eq!(m.entry_table_len(), 0, "no longer references new space");
        assert!(!m.header(old).is_remembered());
    }

    #[test]
    fn tenured_object_referencing_new_gets_remembered() {
        let m = mem();
        let tok = m.new_token();
        // `holder` will tenure at age 3 while `fresh` stays young: recreate
        // fresh each cycle so it is always age 1.
        let holder = m.alloc_array(&tok, 1).unwrap();
        let root = m.new_root(holder);
        for _ in 0..5 {
            let fresh = m.alloc_array(&tok, 1).unwrap();
            m.store(root.get(), 0, fresh);
            m.scavenge();
        }
        assert!(m.is_old(root.get()));
        assert!(m.is_new(m.fetch(root.get(), 0)));
        assert!(m.header(root.get()).is_remembered());
    }

    #[test]
    fn dropped_root_handles_are_pruned() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 1).unwrap();
        let root = m.new_root(a);
        drop(root);
        let out = m.scavenge();
        assert_eq!(out.words_survived, 0, "dropped root no longer pins");
    }

    #[test]
    fn deep_list_survives() {
        let m = mem();
        let tok = m.new_token();
        let mut head = m.nil();
        for i in 0..200 {
            let cell = m.alloc_array(&tok, 2).unwrap();
            m.store_nocheck(cell, 0, Oop::from_small_int(i));
            m.store_nocheck(cell, 1, head);
            head = cell;
        }
        let root = m.new_root(head);
        m.scavenge();
        let mut cur = root.get();
        for i in (0..200).rev() {
            assert_eq!(m.fetch(cur, 0).as_small_int(), i);
            cur = m.fetch(cur, 1);
        }
        assert_eq!(cur, m.nil());
    }

    #[test]
    fn stats_accumulate() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 1).unwrap();
        let _root = m.new_root(a);
        m.scavenge();
        m.scavenge();
        let st = m.gc_stats();
        assert_eq!(st.scavenges, 2);
        assert!(st.words_survived > 0);
    }

    #[test]
    fn epoch_bumps_and_tokens_reset() {
        let m = mem();
        let tok = m.new_token();
        m.alloc_array(&tok, 1).unwrap();
        let e0 = m.gc_epoch();
        m.scavenge();
        assert_eq!(m.gc_epoch(), e0 + 1);
        // Allocation after the scavenge still works (token revalidates).
        assert!(m.alloc_array(&tok, 1).is_some());
    }

    /// Drives the scavenge closure from `helpers` OS threads, the way a
    /// stopped world of donated processors would.
    fn scope_runner(helpers: usize, f: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            for slot in 1..helpers {
                s.spawn(move || f(slot));
            }
            f(0);
        });
    }

    /// A wide forest of linked lists under one rooted spine: enough fan-out
    /// that four helpers all find work, with shared structure and cycles
    /// mixed in.
    fn build_lanes(m: &ObjectMemory) -> crate::heap::RootHandle {
        let tok = m.new_token();
        let spine = m.alloc_array(&tok, 64).unwrap();
        let root = m.new_root(spine);
        let shared = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(shared, 0, spine); // cycle back into the spine
        for lane in 0..64 {
            let mut head = shared;
            for i in 0..20 {
                let cell = m.alloc_array(&tok, 2).unwrap();
                m.store_nocheck(cell, 0, Oop::from_small_int(lane * 100 + i));
                m.store_nocheck(cell, 1, head);
                head = cell;
            }
            m.store_nocheck(root.get(), lane as usize, head);
        }
        root
    }

    /// Walks the lane forest, checking every payload, the sharing, and the
    /// cycle, and folds a structural signature.
    fn lanes_signature(m: &ObjectMemory, spine: Oop) -> u64 {
        let mut sig = 0u64;
        let mut shared_seen = None;
        for lane in 0..64u64 {
            let mut cur = m.fetch(spine, lane as usize);
            for i in (0..20).rev() {
                let v = m.fetch(cur, 0).as_small_int();
                assert_eq!(v, (lane * 100 + i) as i64);
                sig = sig.wrapping_mul(1099511628211).wrapping_add(v as u64);
                cur = m.fetch(cur, 1);
            }
            // Every lane bottoms out at the one shared cell.
            match shared_seen {
                None => shared_seen = Some(cur),
                Some(prev) => assert_eq!(cur, prev, "shared cell duplicated"),
            }
            assert_eq!(m.fetch(cur, 0), spine, "cycle broken");
        }
        sig
    }

    #[test]
    fn parallel_scavenge_preserves_a_large_graph() {
        let m = mem();
        let root = build_lanes(&m);
        let out = m.try_scavenge_with(4, scope_runner).unwrap();
        assert!(out.words_survived > 0);
        m.verify_heap().assert_clean();
        lanes_signature(&m, root.get());
    }

    #[test]
    fn parallel_scavenge_collects_garbage_and_pads_are_invisible() {
        let m = mem();
        let tok = m.new_token();
        let keep = m.alloc_array(&tok, 2).unwrap();
        let root = m.new_root(keep);
        for _ in 0..200 {
            m.alloc_array(&tok, 10).unwrap();
        }
        let out = m.try_scavenge_with(4, scope_runner).unwrap();
        // Only the rooted object survives; abandoned buffer tails are pads,
        // not survivors.
        assert_eq!(out.words_survived, 4);
        m.verify_heap().assert_clean();
        // A second parallel scavenge re-walks the padded past space.
        let out2 = m.try_scavenge_with(4, scope_runner).unwrap();
        assert_eq!(out2.words_survived, 4);
        m.verify_heap().assert_clean();
        assert!(m.is_new(root.get()));
    }

    #[test]
    fn parallel_scavenge_tenures_and_maintains_the_entry_table() {
        let m = mem();
        let tok = m.new_token();
        let old = m.alloc_array_old(1).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store(old, 0, young);
        let holder = m.alloc_array(&tok, 1).unwrap();
        let root = m.new_root(holder);
        for _ in 0..4 {
            m.try_scavenge_with(3, scope_runner).unwrap();
            m.verify_heap().assert_clean();
        }
        assert!(m.is_old(m.fetch(old, 0)), "entry-table target tenured");
        assert!(m.is_old(root.get()), "rooted object tenured");
        assert_eq!(m.entry_table_len(), 0);
        assert!(!m.header(old).is_remembered());
        // A tenured object that still references new space gets remembered
        // by whichever helper drains it.
        let fresh = m.alloc_array(&tok, 1).unwrap();
        m.store(root.get(), 0, fresh);
        m.try_scavenge_with(3, scope_runner).unwrap();
        m.verify_heap().assert_clean();
        assert!(m.is_new(m.fetch(root.get(), 0)));
        assert!(m.header(root.get()).is_remembered());
    }

    #[test]
    fn helpers_are_observationally_one_helper() {
        // helpers = 1 is the same scavenger: it consults the runner (for
        // one slot) like any other count, and 2 or 4 helpers leave an
        // identically built heap with the same graph and the same volumes.
        let run = |helpers: usize| {
            let m = mem();
            let root = build_lanes(&m);
            let asked = AtomicUsize::new(0);
            let out = m
                .try_scavenge_with(helpers, |n, f| {
                    asked.store(n, Ordering::Relaxed);
                    scope_runner(n, f);
                })
                .unwrap();
            assert_eq!(asked.load(Ordering::Relaxed), helpers);
            m.verify_heap().assert_clean();
            let sig = lanes_signature(&m, root.get());
            (sig, out.words_survived, out.words_tenured, m.old_used())
        };
        let solo = run(1);
        assert_eq!(run(2), solo);
        assert_eq!(run(4), solo);
    }

    #[test]
    fn parallel_scavenge_with_more_helpers_than_work() {
        let m = mem();
        let tok = m.new_token();
        let a = m.alloc_array(&tok, 1).unwrap();
        let root = m.new_root(a);
        // 8 helpers for a single 3-word object: most find nothing to do.
        let out = m.try_scavenge_with(8, scope_runner).unwrap();
        assert_eq!(out.words_survived, 3);
        m.verify_heap().assert_clean();
        assert!(m.is_new(root.get()));
    }

    #[test]
    fn try_scavenge_reports_oom_instead_of_panicking() {
        let m = mem();
        let tok = m.new_token();
        // Fill old space with *live* (rooted) data so not even a full GC
        // can recover tenure room.
        let mut roots = Vec::new();
        while let Some(a) = m.alloc_array_old(1000) {
            roots.push(m.new_root(a));
            if m.old_free() < 2048 {
                break;
            }
        }
        let old_free = m.old_free();
        // Fill eden past the worst-case tenure volume old space can absorb.
        let mut filled = 0usize;
        while filled <= old_free {
            m.alloc_array(&tok, 100).expect("eden should have room");
            filled += 102;
        }
        let err = m.try_scavenge().expect_err("old space cannot absorb eden");
        assert!(err.old_free < err.requested);
        assert!(err.to_string().contains("out of memory"));
        // The heap was untouched: the still-rooted old data is intact and a
        // fresh audit of old space passes.
        let audit = m.verify_heap();
        audit.assert_clean();
    }
}
