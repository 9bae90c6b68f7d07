//! Mark-compact full collection of old space.
//!
//! Generation Scavenging never reclaims tenured objects, so a long-running
//! image eventually needs a full collection (BS performed an offline
//! "mark-sweep" via snapshot; we do it online). The algorithm is a classic
//! three-pass sliding compactor over old space:
//!
//! 1. **Mark** every object reachable from the roots (special objects, root
//!    cells, interned symbols), tracing through both generations, into a
//!    side bitmap ([`MarkBits`]): a bit on each reached object's header
//!    word. Nothing writes the heap.
//! 2. **Plan**: walk the bitmap's old-space bits, which *are* the start
//!    bits of the forwarding tables, and add a bit per live word and the
//!    live words below each 64-word block.
//! 3. **Update** every reference in marked objects, roots, the symbol table
//!    and the entry table through the tables; then **move** the live words
//!    down, run by run.
//!
//! There is no object table and no forwarding pointer outside a collection
//! (the paper's §3.1), so the update must translate *every* pointer slot in
//! the heap and one translation must cost next to nothing. A header word
//! cannot hold the destination — word 0 is full (size, format, age, flags,
//! hash) and word 1 is the class oop the update itself has to read — so the
//! destination is computed: `old_start + before[block] + popcount(live bits
//! of the block below the target)`, after a start-bit test that doubles as
//! the dangling-reference check. See [`Relocator`].
//!
//! New-space objects are never moved by a full collection; unreachable ones
//! are simply never scanned again (the next scavenge abandons them).
//!
//! There is one collector, [`ObjectMemory::full_gc_with`]: one stop-the-world
//! pause on `helpers >= 1` slots drafted from the stopped world (the
//! scavenger's `run_stopped` contract), and one marker ([`Marker`]) — one
//! root enumeration (special objects, root cells, interned symbols), one
//! claim primitive (a test, then an atomic `fetch_or` of the object's bit
//! in the bitmap word), one `trace`, balanced across the slots by the
//! scavenger's [`WorkPool`]. One helper is the same code with nobody to
//! steal from.
//!
//! The update runs over the same helper slots as the mark (it shards the
//! bitmap's blocks and the reference tables — the forwarding tables are
//! immutable after planning). Per-helper reports are merged in
//! deterministic order, and a corrupt special table aborts the compaction
//! ([`CompactAbort`]) before any heap mutation instead of panicking
//! mid-stop-the-world: the heap was never written, so dropping the side
//! tables is the whole cleanup. The plan walk and the move are serial: a
//! word's destination depends on every gap below it, so two stretches of
//! old space can only slide independently where nothing below either has
//! moved — and there nothing slides.
//!
//! **The world must be stopped by the caller** for every entry point here;
//! in a running system the caller holds an `mst_interp::StoppedWorld`, whose
//! methods are the only route to the `_with` forms. A full collection
//! triggered from *inside* a scavenge needs nothing more: the interpreters'
//! free-context lists live outside the heap and link no context to
//! another, so they are not roots, retain nothing, and are simply dropped
//! at the new GC epoch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::header::ObjFormat;
use crate::heap::ObjectMemory;
use crate::method::MethodHeader;
use crate::oop::Oop;
use crate::steal::{chaos_helper_panic, solo_runner, HelperRunner, WorkPool, Worker};

/// Live old-space words per drafted mark helper: below one helper's worth,
/// fan-out costs more than it saves, so [`adaptive_full_gc_helpers`]
/// (ObjectMemory::adaptive_full_gc_helpers) asks for the leader alone.
const FULL_GC_WORDS_PER_HELPER: usize = 128 << 10; // 1 MB

/// Root oops claimed per cursor bump during the root scan.
const MARK_ROOT_CHUNK: usize = 32;
/// Mark-bitmap words (of [`BLOCK_WORDS`] heap words each) claimed per
/// cursor bump during the parallel update phase (the forwarding tables are
/// read-only, so the shards need no coordination beyond the claim itself).
const UPDATE_CHUNK: usize = 64;
/// Heap words per bitmap word, and per forwarding-table block.
const BLOCK_WORDS: usize = u64::BITS as usize;
/// Dangling-reference diagnostics recorded per collection; counting
/// continues past the cap (mirrors `HeapAudit`'s error cap).
const MAX_DANGLING: usize = 16;

/// Where a dangling old-space reference was found during the update phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DanglingSlot {
    /// Body pointer slot `i` of the referrer.
    Body(usize),
    /// The referrer's class word.
    Class,
    /// A Rust-side root cell.
    Root,
    /// A special-objects table entry.
    Special,
    /// A symbol-table entry.
    Symbol,
    /// An entry-table (remembered set) entry.
    Entry,
}

impl std::fmt::Display for DanglingSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DanglingSlot::Body(i) => write!(f, "slot {i}"),
            DanglingSlot::Class => write!(f, "class word"),
            DanglingSlot::Root => write!(f, "root cell"),
            DanglingSlot::Special => write!(f, "special-object entry"),
            DanglingSlot::Symbol => write!(f, "symbol-table entry"),
            DanglingSlot::Entry => write!(f, "entry-table entry"),
        }
    }
}

/// One dangling reference the compactor neutralized: a marked slot whose
/// target is not the start of any marked old object (a pointer into the
/// middle of an object, or similar corruption). The referrer/target
/// addresses are as of the start of the update phase — diagnostic
/// coordinates, not live oops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DanglingRef {
    /// The object holding the bad reference ([`Oop::ZERO`] for table slots).
    pub referrer: Oop,
    /// Which slot of the referrer held it.
    pub slot: DanglingSlot,
    /// The unrelocatable target.
    pub target: Oop,
}

impl std::fmt::Display for DanglingRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dangling old reference: {} of @{} held {:#x} (not a marked object start); slot nilled",
            self.slot,
            self.referrer.index(),
            self.target.raw()
        )
    }
}

/// Why a compaction was abandoned before any heap mutation. The abort
/// happens between the plan and update phases, and until the update
/// nothing but the side tables has been written, so containment is exact:
/// drop the tables and the heap is byte-for-byte what the mark phase found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactAbort {
    /// `nil` was not the start of a marked old object when planning
    /// finished. Every dangling slot is neutralized by substituting the
    /// relocated `nil`, so without one the compactor has no safe value to
    /// write — and a missing `nil` means the special-objects table itself
    /// is corrupt, which no amount of sliding will fix.
    NilUnrelocatable,
}

impl std::fmt::Display for CompactAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactAbort::NilUnrelocatable => {
                write!(f, "nil is not a marked old object (special table corrupt?)")
            }
        }
    }
}

/// HeapAudit-style report of what the compactor had to neutralize. A clean
/// collection leaves it empty; a dirty one names each referrer, slot, and
/// target so the supervisor/containment layer can log it instead of the old
/// behavior (an `unreachable!` abort from inside stop-the-world).
#[derive(Debug, Clone, Default)]
pub struct FullGcReport {
    /// Recorded diagnostics, capped at [`MAX_DANGLING`].
    pub dangling: Vec<DanglingRef>,
    /// Total dangling references found (may exceed `dangling.len()`).
    pub dangling_count: usize,
    /// Set when the compaction was abandoned with the heap untouched
    /// (nothing moved, nothing reclaimed).
    pub aborted: Option<CompactAbort>,
}

impl FullGcReport {
    /// Whether the collection found nothing to neutralize and ran to
    /// completion.
    pub fn is_clean(&self) -> bool {
        self.dangling_count == 0 && self.aborted.is_none()
    }
}

impl std::fmt::Display for FullGcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "full GC: {} dangling reference(s)", self.dangling_count)?;
        if let Some(abort) = self.aborted {
            write!(f, "; compaction aborted: {abort}")?;
        }
        for d in &self.dangling {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

/// What one full collection did.
#[derive(Debug, Clone, Default)]
pub struct FullGcOutcome {
    /// Old-space words reclaimed.
    pub reclaimed_words: usize,
    /// Nanoseconds spent marking.
    pub mark_nanos: u64,
    /// The whole stop-the-world pause, in nanoseconds: the sum of the four
    /// phases, exactly.
    pub total_nanos: u64,
    /// Helper threads that actually entered the mark (what the pause-log
    /// entry reports too).
    pub helpers: usize,
    /// Nanoseconds planning slid-down addresses (and closing the pause of
    /// an aborted compaction).
    pub plan_nanos: u64,
    /// Nanoseconds rewriting references through the plan.
    pub update_nanos: u64,
    /// Nanoseconds sliding live bodies leftward, and closing the pause.
    pub move_nanos: u64,
    /// Helper threads that actually entered the update phase.
    pub compact_helpers: usize,
    /// Dangling-reference diagnostics (see [`FullGcReport`]).
    pub report: FullGcReport,
}

/// The phases of a pause, in the order the pause log lists them.
#[derive(Clone, Copy)]
enum Phase {
    Mark,
    Plan,
    Update,
    Move,
}

const PHASE_NAMES: [&str; 4] = ["mark", "plan", "update", "move"];

/// One clock for a whole pause. A phase runs from the boundary that opened
/// it to the one that opens the next, and the last to the end of the pause,
/// so the phases sum to the pause exactly: no seam between two timers goes
/// unattributed.
struct PauseClock {
    start: Instant,
    running: Phase,
    /// Where the running phase began, in nanoseconds since `start`.
    since: u64,
    ns: [u64; 4],
}

impl PauseClock {
    /// Starts the pause, in the mark phase.
    fn start() -> PauseClock {
        PauseClock {
            start: Instant::now(),
            running: Phase::Mark,
            since: 0,
            ns: [0; 4],
        }
    }

    /// Closes the running phase now; returns the boundary.
    fn close(&mut self) -> u64 {
        let now = self.start.elapsed().as_nanos() as u64;
        self.ns[self.running as usize] += now - self.since;
        self.since = now;
        now
    }

    /// Closes the running phase and opens `next`.
    fn enter(&mut self, next: Phase) {
        self.close();
        self.running = next;
    }

    fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }
}

/// The mark bitmap: one bit per heap word of old space's used prefix and
/// of the occupied new-space ranges (eden to its frontier, the past
/// survivor space to its fill), set on each reached object's header word.
/// It is sized when the collection starts, and each range begins on a
/// bitmap word of its own, so the old range's words are the forwarding
/// tables' start bits as they stand. A word outside every range (the
/// future survivor space, an unallocated tail, no heap at all) has no bit
/// and is never claimed.
struct MarkBits {
    /// `(first heap word, end, first bitmap word)` per range, old space
    /// first.
    ranges: [(usize, usize, usize); 3],
    bits: Vec<AtomicU64>,
}

impl MarkBits {
    fn new(mem: &ObjectMemory) -> MarkBits {
        let sp = mem.spaces();
        let mut blocks = 0;
        let ranges = [
            (sp.old_start, mem.old_next_value()),
            (sp.eden_start, sp.eden_start + mem.eden_frontier()),
            mem.past_range(),
        ]
        .map(|(lo, hi)| {
            let base = blocks;
            blocks += (hi - lo).div_ceil(BLOCK_WORDS);
            (lo, hi, base)
        });
        MarkBits {
            ranges,
            bits: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Heap word `idx`'s bitmap word and bit, if a range covers it.
    #[inline]
    fn locate(&self, idx: usize) -> Option<(&AtomicU64, u64)> {
        let &(lo, _, base) = self.ranges.iter().find(|r| (r.0..r.1).contains(&idx))?;
        let (off, bit) = (idx - lo, 1 << ((idx - lo) % BLOCK_WORDS));
        Some((&self.bits[base + off / BLOCK_WORDS], bit))
    }

    /// Claims the object at heap word `idx` — *the* claim primitive: a
    /// cheap test, then one atomic `fetch_or` on the bitmap word. True for
    /// the one winner. Relaxed suffices: the heap is read-only until the
    /// mark ends, and the runner returning orders every bit before the
    /// plan reads it.
    #[inline]
    fn claim(&self, idx: usize) -> bool {
        self.locate(idx).is_some_and(|(w, bit)| {
            w.load(Ordering::Relaxed) & bit == 0 && w.fetch_or(bit, Ordering::Relaxed) & bit == 0
        })
    }

    /// The heap word that bit 0 of bitmap word `b` stands for.
    fn word_base(&self, b: usize) -> usize {
        // An empty range shares its base with the next; the last range
        // starting at or below `b` is the one holding it.
        let mut ranges = self.ranges.iter();
        let &(lo, _, base) = ranges.rfind(|r| r.2 <= b).expect("old space at 0");
        lo + (b - base) * BLOCK_WORDS
    }
}

/// The relocation plan, as forwarding tables over `[old_start, old_next)`
/// in [`BLOCK_WORDS`]-word blocks: an object's destination is `old_start`
/// plus the live words below it, read off as `before[block]` plus a
/// popcount of the block's `live` bits under the object's own — two table
/// loads, no header reads, no search. The serial plan walk fills the tables;
/// after it they are **read-only** — every update worker shares one
/// `&Relocator` with no coordination at all, and diagnostics go to each
/// worker's private [`ReportSink`]. The move is driven by the same tables
/// (maximal runs of `live` bits are the ranges to slide), so no per-object
/// record exists anywhere.
struct Relocator<'m> {
    mem: &'m ObjectMemory,
    old_start: usize,
    /// The mark bitmap. Its old range is the start bits: after the plan, a
    /// bit on each marked object's header word and nowhere else.
    marks: MarkBits,
    /// One bit per old-space word, set on every word of a marked object.
    live: Vec<u64>,
    /// Live words preceding each block.
    before: Vec<u32>,
    /// Live words in all: where the compacted old space ends.
    live_words: usize,
    /// `nil` before and after the move. The latter is substituted for
    /// dangling slots (the pre-move `nil` would itself dangle once bodies
    /// slide); the pair answers most slots of any heap without the tables.
    nil_old: Oop,
    nil_new: Oop,
}

impl<'m> Relocator<'m> {
    /// Phase 2: one walk over the set bits of the mark bitmap's old range
    /// sets the `live` bits of each marked object; a prefix sum over the
    /// `live` words then fills `before`.
    ///
    /// A marked word is an object start only where the header chain from
    /// `old_start` lands: a corrupt pointer into an object's body marks a
    /// word that is not one, and its bit is cleared here so that references
    /// to it dangle. The chain steps over each live object at once; it
    /// reads a dead header only to bridge a gap between two marked words.
    fn plan(mem: &'m ObjectMemory, mut marks: MarkBits) -> Relocator<'m> {
        let (old_start, old_next, _) = marks.ranges[0];
        assert!(
            old_next - old_start <= u32::MAX as usize,
            "old space outgrew the u32 block offsets"
        );
        let nblocks = (old_next - old_start).div_ceil(BLOCK_WORDS);
        let mut live = vec![0u64; nblocks];
        let size = |off: usize| 2 + mem.header(Oop::from_index(old_start + off)).body_words();
        // Every word below offset `chain` lies in an object already stepped
        // over.
        let mut chain = 0;
        for (b, starts) in marks.bits[..nblocks].iter_mut().enumerate() {
            let starts = starts.get_mut();
            let mut w = *starts;
            while w != 0 {
                let bit = w & w.wrapping_neg();
                w ^= bit;
                let mut at = b * BLOCK_WORDS + bit.trailing_zeros() as usize;
                while chain < at {
                    chain += size(chain);
                }
                if chain != at {
                    *starts &= !bit;
                    continue;
                }
                chain += size(at);
                // The object's words, a block's share at a time.
                while at < chain {
                    let n = (chain - at).min(BLOCK_WORDS - at % BLOCK_WORDS);
                    live[at / BLOCK_WORDS] |= !0u64 >> (BLOCK_WORDS - n) << (at % BLOCK_WORDS);
                    at += n;
                }
            }
        }
        let mut live_words = 0usize;
        let before = live
            .iter()
            .map(|w| {
                let below = live_words as u32;
                live_words += w.count_ones() as usize;
                below
            })
            .collect();
        Relocator {
            mem,
            old_start,
            marks,
            live,
            before,
            live_words,
            nil_old: Oop::ZERO,
            nil_new: Oop::ZERO,
        }
    }

    /// The target's post-compaction address; `None` when the target is old
    /// but not the start of any marked object (its start bit is clear, or
    /// it lies outside `[old_start, old_next)` where there is no block).
    /// Non-old oops pass through.
    #[inline]
    fn lookup(&self, oop: Oop) -> Option<Oop> {
        if !oop.is_object() || !self.mem.spaces().is_old(oop.index()) {
            return Some(oop);
        }
        let off = oop.index().wrapping_sub(self.old_start);
        let (b, bit) = (off / BLOCK_WORDS, 1u64 << (off % BLOCK_WORDS));
        let live = *self.live.get(b)?;
        if self.marks.bits[b].load(Ordering::Relaxed) & bit == 0 {
            return None;
        }
        let below = (live & (bit - 1)).count_ones() as usize;
        Some(Oop::from_index(
            self.old_start + self.before[b] as usize + below,
        ))
    }

    /// Phase 4: slides each maximal run of live words down onto the running
    /// destination, in address order (the memmove-down argument) — adjacent
    /// survivors move as one `memmove`, and the dense prefix not at all.
    fn slide(&self) {
        let mut to = self.old_start;
        // Source address of the run of live words still open, if any.
        let mut run: Option<usize> = None;
        let mut close = |from: usize, end: usize| {
            if from != to {
                self.mem.slide_words(from, to, end - from);
            }
            to += end - from;
        };
        for (b, &w) in self.live.iter().enumerate() {
            let base = self.old_start + b * BLOCK_WORDS;
            let mut k = 0;
            loop {
                // The stretch of equal bits from bit `k` (zeros shift in).
                let rest = w >> k;
                k += if run.is_some() {
                    rest.trailing_ones()
                } else {
                    rest.trailing_zeros()
                } as usize;
                if k >= BLOCK_WORDS {
                    break;
                }
                match run.take() {
                    Some(from) => close(from, base + k),
                    None => run = Some(base + k),
                }
            }
        }
        if let Some(from) = run {
            close(from, self.old_start + self.live.len() * BLOCK_WORDS);
        }
    }

    /// Relocates, neutralizing failures to (relocated) `nil` with a recorded
    /// diagnostic instead of aborting the VM from inside stop-the-world.
    /// Runs once per pointer slot in the heap, hence inlined around an
    /// out-of-line failure path.
    #[inline]
    fn reloc(&self, sink: &mut ReportSink, referrer: Oop, slot: DanglingSlot, oop: Oop) -> Oop {
        if oop == self.nil_old {
            return self.nil_new;
        }
        self.lookup(oop)
            .unwrap_or_else(|| self.neutralize(sink, referrer, slot, oop))
    }

    #[cold]
    fn neutralize(
        &self,
        sink: &mut ReportSink,
        referrer: Oop,
        slot: DanglingSlot,
        target: Oop,
    ) -> Oop {
        mst_telemetry::counter!("gc.full.dangling_refs").incr();
        sink.record(DanglingRef {
            referrer,
            slot,
            target,
        });
        self.nil_new
    }
}

/// A worker-private dangling-reference sink. Each diagnostic is keyed by
/// (work item, sequence within the item), so merging the sinks sorted by
/// key reproduces the order a serial walk would have recorded — report
/// lines no longer interleave by scheduling accident.
#[derive(Default)]
struct ReportSink {
    base: u64,
    seq: u64,
    recs: Vec<(u64, DanglingRef)>,
    count: usize,
}

impl ReportSink {
    /// Keys subsequent records under work item `item`. Sequence numbers are
    /// monotone within an item, so each sink's kept records are its lowest
    /// keys and the cap survives the merge exactly.
    fn rebase(&mut self, item: usize) {
        self.base = (item as u64) << 32;
        self.seq = 0;
    }

    fn record(&mut self, d: DanglingRef) {
        self.count += 1;
        if self.recs.len() < MAX_DANGLING {
            self.recs.push((self.base | self.seq, d));
        }
        self.seq += 1;
    }
}

/// Merges per-worker sinks into the final report, in serial-walk order.
fn merge_report(mut recs: Vec<(u64, DanglingRef)>, count: usize) -> FullGcReport {
    recs.sort_by_key(|&(k, _)| k);
    recs.truncate(MAX_DANGLING);
    FullGcReport {
        dangling: recs.into_iter().map(|(_, d)| d).collect(),
        dangling_count: count,
        aborted: None,
    }
}

/// Drives `work` from every drafted helper slot (slot 0 — the leader —
/// always runs; `run` may invoke any subset of the rest). Work distribution
/// is the callee's business, through atomic cursors, so a chaos-killed
/// helper just means the survivors drain its share. Returns how many slots
/// entered.
fn run_phase(helpers: usize, run: HelperRunner, work: &(dyn Fn() + Sync)) -> usize {
    let entered = AtomicUsize::new(0);
    run(helpers, &|slot| {
        chaos_helper_panic(slot, "compaction");
        entered.fetch_add(1, Ordering::SeqCst);
        work();
    });
    entered.load(Ordering::SeqCst)
}

impl ObjectMemory {
    /// [`full_gc_with`](Self::full_gc_with) and nobody helping. Returns
    /// reclaimed old-space words.
    pub fn full_gc(&self) -> usize {
        self.full_gc_with(1, solo_runner).reclaimed_words
    }

    /// Runs a full collection on up to `helpers` threads drawn from the
    /// stopped world (marking and the compaction phases alike). **The world
    /// must be stopped by the caller**: in a running system,
    /// `mst_interp::StoppedWorld::full_collect` and nobody else.
    ///
    /// `run`'s contract is the scavenger's (and
    /// `RendezvousGuard::run_stopped` fulfils it): invoke the closure with
    /// distinct slot indices in `0..helpers` — any subset, but slot 0 must
    /// run — from at most one thread per slot, returning only once every
    /// invocation has finished. It is invoked once per helper-driven phase.
    pub fn full_gc_with<R>(&self, helpers: usize, run: R) -> FullGcOutcome
    where
        R: Fn(usize, &(dyn Fn(usize) + Sync)),
    {
        self.collect(helpers.max(1), &run)
    }

    /// The collection pause: mark, compact, account.
    fn collect(&self, helpers: usize, run: HelperRunner) -> FullGcOutcome {
        let mut trace_span = mst_telemetry::span("gc.full", "gc");
        let pause_start_ns = mst_telemetry::now_ns();
        let mut clock = PauseClock::start();
        mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 1);

        let (m, marks) = self.mark(helpers, run);
        let (reclaimed, report, compact_helpers) = self.compact(marks, helpers, run, &mut clock);
        if report.aborted.is_none() {
            self.bump_epoch();
            // Until the next completed scavenge, dead new-space objects may
            // hold dangling references to compacted-away old objects
            // (abandoned by design); the heap verifier consults this flag.
            // An aborted compaction moved nothing, so it does not apply.
            self.fullgc_since_scavenge.store(true, Ordering::Relaxed);
        }
        // The last boundary: the running phase (move, or plan if aborted)
        // ends with the pause.
        let pause_ns = clock.close();
        // Debug builds audit the heap after every collection that claims to
        // have been clean, not only where a test thinks to ask.
        #[cfg(debug_assertions)]
        if report.is_clean() {
            self.verify_heap().assert_clean();
        }
        self.stats.full_gcs.incr();
        // The pause record owns the pause's duration, phases and helpers.
        let balance_pct = mst_telemetry::GcPause::balance_pct(&m.per_helper_words);
        mst_telemetry::pauselog::record(mst_telemetry::GcPause {
            kind: "fullgc",
            start_ns: pause_start_ns,
            total_ns: pause_ns,
            phases: PHASE_NAMES.into_iter().zip(clock.ns).collect(),
            helpers: m.entered,
            per_helper_work: m.per_helper_words,
            steals: m.steals,
            imbalance_pct: balance_pct,
        });
        self.publish_fullgc_report(&report);
        trace_span.set_arg("reclaimed_words", reclaimed as u64);
        drop(trace_span);
        FullGcOutcome {
            reclaimed_words: reclaimed,
            mark_nanos: clock.ns(Phase::Mark),
            total_nanos: pause_ns,
            helpers: m.entered,
            plan_nanos: clock.ns(Phase::Plan),
            update_nanos: clock.ns(Phase::Update),
            move_nanos: clock.ns(Phase::Move),
            compact_helpers,
            report,
        }
    }

    /// Picks the mark-helper count for a full collection from the live-set
    /// estimate (used old space): one thread per [`FULL_GC_WORDS_PER_HELPER`],
    /// clamped to `available` — the processors the caller can actually
    /// draft, e.g. `processors_online() + 1`. Small heaps get the leader
    /// alone.
    pub fn adaptive_full_gc_helpers(&self, available: usize) -> usize {
        (self.old_used() / FULL_GC_WORDS_PER_HELPER)
            .max(1)
            .min(available.max(1))
    }

    // ------------------------------------------------------------------
    // The mark
    // ------------------------------------------------------------------

    /// The root enumeration for marking: every special object, live root
    /// cell, and interned symbol, as raw oops. (Unlike the scavenger,
    /// marking never rewrites roots, so a flat snapshot suffices.)
    fn mark_roots(&self) -> Vec<u64> {
        let mut roots: Vec<u64> = Vec::with_capacity(256 + self.symbol_count());
        self.specials().update_all(|o| {
            roots.push(o.raw());
            o
        });
        for weak in self.roots.lock().iter() {
            if let Some(cell) = weak.upgrade() {
                roots.push(cell.load(Ordering::Relaxed));
            }
        }
        self.each_symbol(|sym| roots.push(sym.raw()));
        roots
    }

    /// Marks everything reachable from the roots into a fresh bitmap, in
    /// both generations, on up to `helpers` slots.
    fn mark(&self, helpers: usize, run: HelperRunner) -> (MarkOutcome, MarkBits) {
        let marker = Marker {
            mem: self,
            marks: MarkBits::new(self),
            nil: self.nil(),
            roots: self.mark_roots(),
            root_cursor: AtomicUsize::new(0),
            pool: WorkPool::new(helpers),
            out: Mutex::default(),
        };
        run(helpers, &|slot| marker.run_helper(slot));
        let mut out = marker.out.into_inner().unwrap();
        out.entered = marker.pool.entered();
        assert!(
            out.entered >= 1,
            "run() must invoke the mark closure (slot 0)"
        );
        (out, marker.marks)
    }

    // ------------------------------------------------------------------
    // Compaction back-end: plan, update, move
    // ------------------------------------------------------------------

    /// Phases 2–4 over a completed mark: plan slid-down addresses, update
    /// every reference, move the bodies. The bitmap covers every live
    /// referrer, new-space ones included. Opens each phase on `clock`; the
    /// caller closes the last one with the pause.
    /// Returns the reclaimed words, the report, and how many workers entered
    /// the update.
    ///
    /// The update phase runs on up to `helpers` workers drawn from the
    /// stopped world (one `run` invocation — the runner returning is the
    /// only barrier, so a helper dying mid-phase can never wedge what
    /// follows). Planning is a single serial walk whose read-only output is
    /// what makes the update embarrassingly parallel; the move is serial by
    /// nature (see [`Relocator::slide`]).
    fn compact(
        &self,
        marks: MarkBits,
        helpers: usize,
        run: HelperRunner,
        clock: &mut PauseClock,
    ) -> (usize, FullGcReport, usize) {
        clock.enter(Phase::Plan);
        mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 2);
        let old_used_before = self.old_used();

        // --- Phase 2: plan new addresses --------------------------------
        let mut rel = Relocator::plan(self, marks);
        // `nil` is a special object, hence marked and relocatable by every
        // healthy collection. When it is not, the special table is corrupt:
        // abort *before any heap mutation* — only the side tables exist so
        // far, and they are simply dropped — and report the abort instead
        // of panicking mid-stop-the-world with the heap half-planned.
        rel.nil_old = self.nil();
        rel.nil_new = match rel.lookup(rel.nil_old) {
            Some(n) => n,
            None => {
                mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 0);
                let report = FullGcReport {
                    aborted: Some(CompactAbort::NilUnrelocatable),
                    ..FullGcReport::default()
                };
                return (0, report, 1);
            }
        };
        clock.enter(Phase::Update);
        mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 3);

        // --- Phase 3: update references ----------------------------------
        // Workers claim chunks of the mark bitmap, then the four reference
        // tables, through one atomic cursor. Every marked object belongs to
        // exactly one chunk, so no object word is ever written by two
        // workers. Dead entries leave the entry table first: their start
        // bits are clear.
        self.entry_table
            .lock()
            .retain(|&obj| rel.lookup(obj).is_some());
        let upd = UpdatePhase {
            rel: &rel,
            cursor: AtomicUsize::new(0),
            merge: Mutex::new(UpdateMerge::default()),
        };
        let entered = run_phase(helpers, run, &|| upd.run_worker());
        let m = upd.merge.into_inner().unwrap();
        let report = merge_report(m.recs, m.count);
        clock.enter(Phase::Move);
        mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 4);

        // --- Phase 4: move bodies ---------------------------------------
        // Serial, on the leader: each word's destination depends on every
        // gap below it, so two stretches of old space can slide
        // independently only where nothing below either has moved — where
        // there is nothing to slide.
        rel.slide();
        self.set_old_next(rel.old_start + rel.live_words);
        mst_telemetry::trace::counter_event("gc.phase", "gc", "fullgc_phase", 0);

        mst_telemetry::counter!("gc.full.compactions").incr();
        (old_used_before - rel.live_words, report, entered)
    }

    /// Stashes a dirty report where the interpreter layer can collect it for
    /// the error log (the containment surface), and keeps the counter hot.
    fn publish_fullgc_report(&self, report: &FullGcReport) {
        if report.aborted.is_some() {
            mst_telemetry::counter!("gc.full.aborted").incr();
        }
        if !report.is_clean() {
            let mut sink = self.fullgc_dangling.lock();
            sink.extend(report.dangling.iter().copied());
        }
    }

    /// Drains the dangling-reference diagnostics accumulated by full
    /// collections since the last call (the supervisor/interpreter logs
    /// them; an empty result is the common case).
    pub fn take_fullgc_dangling(&self) -> Vec<DanglingRef> {
        std::mem::take(&mut *self.fullgc_dangling.lock())
    }

    /// Number of leading pointer slots in an object's body.
    pub(crate) fn pointer_slot_count(&self, obj: Oop) -> usize {
        let h = self.header(obj);
        match h.format() {
            ObjFormat::Pointers => h.body_words(),
            ObjFormat::Method => MethodHeader::decode(self.fetch(obj, 0)).pointer_slots(),
            ObjFormat::Bytes => 0,
        }
    }
}

/// Shared state for the (optionally parallel) reference-update phase.
/// Work items — claimed with one atomic cursor — are, in order: chunks of
/// the mark bitmap (hence objects in address order, range by range), then
/// the four reference tables (specials, root cells, symbols, entry table).
/// The relocation plan is read-only and every object/table belongs to
/// exactly one item, so the only shared mutable state is the final merge.
struct UpdatePhase<'a> {
    rel: &'a Relocator<'a>,
    cursor: AtomicUsize,
    merge: Mutex<UpdateMerge>,
}

#[derive(Default)]
struct UpdateMerge {
    recs: Vec<(u64, DanglingRef)>,
    count: usize,
}

impl UpdatePhase<'_> {
    fn run_worker(&self) {
        let mem = self.rel.mem;
        let marks = &self.rel.marks;
        let mut sink = ReportSink::default();
        let chunks = marks.bits.len().div_ceil(UPDATE_CHUNK);
        loop {
            let item = self.cursor.fetch_add(1, Ordering::SeqCst);
            if item >= chunks + 4 {
                break;
            }
            sink.rebase(item);
            if item < chunks {
                let hi = (item * UPDATE_CHUNK + UPDATE_CHUNK).min(marks.bits.len());
                for b in item * UPDATE_CHUNK..hi {
                    let base = marks.word_base(b);
                    let mut w = marks.bits[b].load(Ordering::Relaxed);
                    while w != 0 {
                        let obj = Oop::from_index(base + w.trailing_zeros() as usize);
                        self.update_object(obj, &mut sink);
                        w &= w - 1;
                    }
                }
            } else {
                match item - chunks {
                    0 => self.rel.mem.specials().update_all(|o| {
                        self.rel
                            .reloc(&mut sink, Oop::ZERO, DanglingSlot::Special, o)
                    }),
                    1 => {
                        let roots = mem.roots.lock();
                        for weak in roots.iter() {
                            if let Some(cell) = weak.upgrade() {
                                let old = Oop::from_raw(cell.load(Ordering::Relaxed));
                                cell.store(
                                    self.rel
                                        .reloc(&mut sink, Oop::ZERO, DanglingSlot::Root, old)
                                        .raw(),
                                    Ordering::Relaxed,
                                );
                            }
                        }
                    }
                    2 => mem.update_symbols(|o| {
                        self.rel
                            .reloc(&mut sink, Oop::ZERO, DanglingSlot::Symbol, o)
                    }),
                    _ => {
                        for entry in mem.entry_table.lock().iter_mut() {
                            *entry =
                                self.rel
                                    .reloc(&mut sink, Oop::ZERO, DanglingSlot::Entry, *entry);
                        }
                    }
                }
            }
        }
        let mut m = self.merge.lock().unwrap();
        m.recs.append(&mut sink.recs);
        m.count += sink.count;
    }

    fn update_object(&self, obj: Oop, sink: &mut ReportSink) {
        let mem = self.rel.mem;
        for i in 0..mem.pointer_slot_count(obj) {
            let v = mem.fetch(obj, i);
            mem.store_nocheck(obj, i, self.rel.reloc(sink, obj, DanglingSlot::Body(i), v));
        }
        let class = mem.class_of(obj);
        mem.set_class(obj, self.rel.reloc(sink, obj, DanglingSlot::Class, class));
    }
}

/// What one run of the marker did; while it runs, where its helpers merge
/// their results.
#[derive(Default)]
struct MarkOutcome {
    /// Helpers that actually entered.
    entered: usize,
    steals: u64,
    per_helper_words: Vec<u64>,
}

/// Shared state for one run of the marker. Borrowed (`Sync`) by every
/// helper; all mutation goes through atomics or the `out` mutex.
struct Marker<'m> {
    mem: &'m ObjectMemory,
    marks: MarkBits,
    /// A root, hence claimed there; the trace skips it without a claim, as
    /// it is most slots of any Smalltalk heap.
    nil: Oop,
    /// Oops to claim (and, if won, trace).
    roots: Vec<u64>,
    root_cursor: AtomicUsize,
    /// Marked objects whose slots still await tracing.
    pool: WorkPool,
    out: Mutex<MarkOutcome>,
}

/// One mark helper's private state.
struct MarkCtx<'p> {
    worker: Worker<'p>,
    /// Words of the objects this helper traced.
    traced_words: u64,
}

impl Marker<'_> {
    fn run_helper(&self, slot: usize) {
        let mut h = MarkCtx {
            worker: self.pool.enter(slot, "mark"),
            traced_words: 0,
        };
        // Roots, in exclusive chunks.
        loop {
            let i0 = self
                .root_cursor
                .fetch_add(MARK_ROOT_CHUNK, Ordering::SeqCst);
            if i0 >= self.roots.len() {
                break;
            }
            let end = (i0 + MARK_ROOT_CHUNK).min(self.roots.len());
            for &raw in &self.roots[i0..end] {
                self.mark(&mut h, Oop::from_raw(raw));
            }
        }
        // Transitive trace, until every helper is dry.
        while let Some(raw) = h.worker.next() {
            self.trace(&mut h, Oop::from_raw(raw));
        }
        let report = h.worker.finish();
        let mut m = self.out.lock().unwrap();
        m.steals += report.steals;
        m.per_helper_words.push(h.traced_words);
    }

    /// Marks `oop` if [`MarkBits::claim`] wins it: the winner pushes it for
    /// tracing.
    #[inline]
    fn mark(&self, h: &mut MarkCtx, oop: Oop) {
        if oop.is_object() && self.marks.claim(oop.index()) {
            h.worker.push(oop.raw());
        }
    }

    /// Traces one object's class word and pointer slots. The class word is
    /// a reference too —
    /// metaclasses in particular are reachable only through their
    /// instances' class pointers.
    ///
    /// Nothing writes the heap during the mark, so every read is a plain
    /// load.
    fn trace(&self, h: &mut MarkCtx, obj: Oop) {
        let mem = self.mem;
        h.traced_words += 2 + mem.header(obj).body_words() as u64;
        let slots = obj.index() + 2..obj.index() + 2 + mem.pointer_slot_count(obj);
        self.mark(h, Oop::from_raw(mem.word(obj.index() + 1)));
        for v in slots.map(|at| Oop::from_raw(mem.word(at))) {
            if v != self.nil {
                self.mark(h, v);
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
            tenure_age: 2,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&m);
        m
    }

    /// Drives the mark closure from `helpers` OS threads, the way a stopped
    /// world of donated processors would.
    fn scope_runner(helpers: usize, f: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            for slot in 1..helpers {
                s.spawn(move || f(slot));
            }
            f(0);
        });
    }

    #[test]
    fn dead_old_objects_are_reclaimed() {
        let m = mem();
        let before = m.old_used();
        for _ in 0..50 {
            m.alloc_array_old(20).unwrap();
        }
        assert!(m.old_used() > before);
        let reclaimed = m.full_gc();
        assert!(reclaimed >= 50 * 22);
        assert_eq!(m.old_used(), before);
    }

    #[test]
    fn live_old_objects_slide_and_keep_contents() {
        let m = mem();
        let _garbage = m.alloc_array_old(100).unwrap();
        let live = m.alloc_array_old(2).unwrap();
        m.store_nocheck(live, 0, Oop::from_small_int(123));
        let s = m.alloc_string_old("keepme").unwrap();
        m.store_nocheck(live, 1, s);
        let root = m.new_root(live);
        m.full_gc();
        let live2 = root.get();
        assert!(live2.index() < live.index(), "should have slid down");
        assert_eq!(m.fetch(live2, 0).as_small_int(), 123);
        assert_eq!(m.str_value(m.fetch(live2, 1)), "keepme");
    }

    #[test]
    fn symbols_survive_and_table_is_updated() {
        let m = mem();
        let _garbage = m.alloc_array_old(500).unwrap();
        let sym = m.intern("someSelector:");
        m.full_gc();
        let sym2 = m.find_symbol("someSelector:").unwrap();
        assert_ne!(sym, sym2, "symbol should have moved");
        assert_eq!(m.str_value(sym2), "someSelector:");
        // Interning again returns the relocated symbol, not a duplicate.
        assert_eq!(m.intern("someSelector:"), sym2);
    }

    #[test]
    fn new_space_slots_pointing_at_old_are_updated() {
        let m = mem();
        let tok = m.new_token();
        let _garbage = m.alloc_array_old(300).unwrap();
        let old_target = m.alloc_array_old(1).unwrap();
        m.store_nocheck(old_target, 0, Oop::from_small_int(7));
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(young, 0, old_target);
        let root = m.new_root(young);
        m.full_gc();
        let young2 = root.get();
        assert_eq!(young2, young, "full GC does not move new objects");
        let target2 = m.fetch(young2, 0);
        assert!(target2.index() < old_target.index());
        assert_eq!(m.fetch(target2, 0).as_small_int(), 7);
    }

    #[test]
    fn entry_table_survives_compaction() {
        let m = mem();
        let tok = m.new_token();
        let _garbage = m.alloc_array_old(300).unwrap();
        let old = m.alloc_array_old(1).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store_nocheck(young, 0, Oop::from_small_int(9));
        m.store(old, 0, young);
        let root = m.new_root(old);
        m.full_gc();
        // A scavenge after the compaction must still see the entry.
        m.scavenge();
        let old2 = root.get();
        let young2 = m.fetch(old2, 0);
        assert!(m.is_new(young2));
        assert_eq!(m.fetch(young2, 0).as_small_int(), 9);
    }

    #[test]
    fn scavenge_triggers_full_gc_when_old_space_tight() {
        let m = ObjectMemory::new(MemoryConfig {
            old_words: 3 << 10,
            eden_words: 2 << 10,
            survivor_words: 1 << 10,
            tenure_age: 2,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&m);
        let tok = m.new_token();
        // Fill most of old space with garbage, then scavenge with a full
        // eden: the up-front check must run a full GC rather than panic.
        while m.old_free() > 200 {
            m.alloc_array_old(64).unwrap();
        }
        for _ in 0..4 {
            m.alloc_array(&tok, 64).unwrap();
        }
        let out = m.scavenge();
        assert!(out.full_gc_ran);
        assert_eq!(m.gc_stats().full_gcs, 1);
    }

    #[test]
    fn idempotent_when_everything_is_live() {
        let m = mem();
        let a = m.alloc_array_old(3).unwrap();
        let root = m.new_root(a);
        let used = m.old_used();
        m.full_gc();
        assert_eq!(m.old_used(), used);
        let pos = root.get();
        m.full_gc();
        assert_eq!(root.get(), pos, "second compaction moves nothing");
    }

    #[test]
    fn classes_reachable_only_through_instances_survive() {
        // Regression: the mark phase must trace class words — a class (e.g.
        // a metaclass) may be reachable only through its instances.
        let m = mem();
        let _garbage = m.alloc_array_old(200).unwrap();
        let private_class = m
            .allocate_old(m.nil(), crate::ObjFormat::Pointers, 8, 0)
            .unwrap();
        m.store_nocheck(private_class, 3, Oop::from_small_int(77));
        let instance = m.alloc_array_old(0).unwrap();
        m.set_class(instance, private_class);
        let root = m.new_root(instance);
        m.full_gc();
        let cls = m.class_of(root.get());
        assert_eq!(m.fetch(cls, 3).as_small_int(), 77, "class must survive");
        // And again, now that everything slid.
        m.full_gc();
        assert_eq!(m.fetch(m.class_of(root.get()), 3).as_small_int(), 77);
    }

    /// Builds a deterministic old-space graph (spine of lanes of cons cells
    /// with shared structure and a cycle) and returns the spine root plus
    /// the expected per-lane checksums.
    fn build_old_graph(m: &ObjectMemory, lanes: usize, depth: usize) -> crate::heap::RootHandle {
        let spine = m.alloc_array_old(lanes).unwrap();
        let root = m.new_root(spine);
        let shared = m.alloc_array_old(1).unwrap();
        m.store_nocheck(shared, 0, spine); // cycle back into the spine
        for lane in 0..lanes {
            let mut head = shared;
            for i in 0..depth {
                let cell = m.alloc_array_old(2).unwrap();
                m.store_nocheck(cell, 0, Oop::from_small_int((lane * 1000 + i) as i64));
                m.store_nocheck(cell, 1, head);
                head = cell;
                if i % 3 == 0 {
                    // Interleave garbage so live objects actually slide.
                    m.alloc_array_old(5).unwrap();
                }
            }
            m.store_nocheck(spine, lane, head);
        }
        root
    }

    /// Walks the lane graph and folds a structural signature.
    fn graph_signature(m: &ObjectMemory, spine: Oop, lanes: usize, depth: usize) -> u64 {
        let mut sig = 0u64;
        let mut shared_seen: Option<Oop> = None;
        for lane in 0..lanes {
            let mut cur = m.fetch(spine, lane);
            for _ in 0..depth {
                sig = sig
                    .wrapping_mul(1099511628211)
                    .wrapping_add(m.fetch(cur, 0).as_small_int() as u64);
                cur = m.fetch(cur, 1);
            }
            match shared_seen {
                None => shared_seen = Some(cur),
                Some(prev) => assert_eq!(cur, prev, "shared cell duplicated"),
            }
            assert_eq!(m.fetch(cur, 0), spine, "cycle broken");
        }
        sig
    }

    #[test]
    fn helpers_are_observationally_one_helper() {
        let run = |helpers: usize| {
            let m = mem();
            let root = build_old_graph(&m, 32, 12);
            let out = m.full_gc_with(helpers, scope_runner);
            assert!(out.report.is_clean());
            assert!((1..=helpers).contains(&out.helpers));
            m.verify_heap().assert_clean();
            let sig = graph_signature(&m, root.get(), 32, 12);
            (sig, out.reclaimed_words, m.old_used())
        };
        let solo = run(1);
        assert_eq!(run(2), solo, "2 helpers diverged from 1");
        assert_eq!(run(4), solo, "4 helpers diverged from 1");
    }

    #[test]
    fn parallel_full_gc_with_more_helpers_than_work() {
        let m = mem();
        let a = m.alloc_array_old(3).unwrap();
        let root = m.new_root(a);
        m.alloc_array_old(500).unwrap(); // garbage
        let out = m.full_gc_with(8, scope_runner);
        assert!(out.reclaimed_words >= 502);
        assert!(m.is_old(root.get()));
        m.verify_heap().assert_clean();
        // A second collection is idempotent.
        let out2 = m.full_gc_with(8, scope_runner);
        assert_eq!(out2.reclaimed_words, 0);
        m.verify_heap().assert_clean();
    }

    #[test]
    fn adaptive_helper_count_scales_with_live_set() {
        let m = mem();
        // Small live set: serial regardless of how many processors offer.
        assert_eq!(m.adaptive_full_gc_helpers(8), 1);
        assert_eq!(m.adaptive_full_gc_helpers(0), 1, "clamped to at least 1");
        // A big memory with a large live set uses what is available.
        let big = ObjectMemory::new(MemoryConfig {
            old_words: 2 << 20,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&big);
        while big.old_used() < 600 << 10 {
            big.alloc_array_old(1000).unwrap();
        }
        assert_eq!(big.adaptive_full_gc_helpers(8), 4);
        assert_eq!(big.adaptive_full_gc_helpers(2), 2, "capped by availability");
    }

    #[test]
    fn dangling_reference_is_neutralized_not_fatal() {
        let m = mem();
        let holder = m.alloc_array_old(2).unwrap();
        let root = m.new_root(holder);
        let victim = m.alloc_array_old(4).unwrap();
        // Forge a corrupt pointer into the *middle* of `victim`: its body
        // slot 0 plays "header" for the phantom object. Shape that word as
        // an empty Bytes object so the trace terminates there, and park a
        // real old oop in the next slot (the phantom's "class word").
        m.store_nocheck(victim, 0, Oop::from_raw(1 << 24));
        m.store_nocheck(victim, 1, m.nil());
        let phantom = Oop::from_index(victim.index() + 2);
        m.store_nocheck(holder, 0, phantom);
        m.store_nocheck(holder, 1, Oop::from_small_int(5));

        // The old implementation hit `unreachable!` here; now the slot is
        // nilled and the incident reported.
        let out = m.full_gc_with(1, scope_runner);
        assert_eq!(out.report.dangling_count, 1);
        let d = out.report.dangling[0];
        assert_eq!(d.slot, DanglingSlot::Body(0));
        assert_eq!(d.target, phantom);
        assert!(d.to_string().contains("dangling old reference"));
        let holder2 = root.get();
        assert_eq!(m.fetch(holder2, 0), m.nil(), "bad slot nilled");
        assert_eq!(m.fetch(holder2, 1).as_small_int(), 5, "good slot kept");
        // The diagnostics are queued for the containment layer, once.
        let drained = m.take_fullgc_dangling();
        assert_eq!(drained.len(), 1);
        assert!(m.take_fullgc_dangling().is_empty());
        m.verify_heap().assert_clean();
    }

    #[test]
    fn corrupt_nil_aborts_compaction_cleanly() {
        use crate::special::So;
        let m = mem();
        let keep = m.alloc_array_old(2).unwrap();
        let root = m.new_root(keep);
        m.store_nocheck(keep, 0, Oop::from_small_int(41));
        m.alloc_array_old(100).unwrap(); // garbage a healthy GC would reclaim
                                         // Forge a phantom "object" inside another object's body (the same
                                         // shape as the dangling-reference test) and corrupt the special
                                         // table to present it as nil.
        let victim = m.alloc_array_old(4).unwrap();
        m.store_nocheck(victim, 0, Oop::from_raw(1 << 24));
        m.store_nocheck(victim, 1, m.nil());
        let phantom = Oop::from_index(victim.index() + 2);
        let real_nil = m.nil();
        m.specials().set(So::Nil, phantom);

        // The old implementation panicked mid-STW with the heap half
        // planned; now the compaction aborts before any heap mutation.
        let used = m.old_used();
        let old_words = |m: &ObjectMemory| -> Vec<u64> {
            (m.spaces().old_start..m.old_next_value())
                .map(|at| m.word(at))
                .collect()
        };
        let before = old_words(&m);
        let out = m.full_gc_with(2, scope_runner);
        assert_eq!(
            out.reclaimed_words, 0,
            "aborted collection reclaims nothing"
        );
        assert!(matches!(
            out.report.aborted,
            Some(CompactAbort::NilUnrelocatable)
        ));
        assert!(!out.report.is_clean());
        assert!(out.report.to_string().contains("compaction aborted"));
        assert_eq!(m.old_used(), used, "heap untouched");
        assert_eq!(root.get(), keep, "nothing moved");
        assert_eq!(m.fetch(keep, 0).as_small_int(), 41);
        assert!(old_words(&m) == before, "every old-space word untouched");

        // Restore nil: the memory recovers and the next collection is
        // healthy again.
        m.specials().set(So::Nil, real_nil);
        let out2 = m.full_gc_with(2, scope_runner);
        assert!(out2.report.aborted.is_none());
        assert!(out2.reclaimed_words >= 102, "garbage finally reclaimed");
        m.verify_heap().assert_clean();
    }

    /// The plan the tables replaced: a linear prefix sum over old space,
    /// one `(from, to, total)` per object whose header word is in `marked`
    /// (sorted), in address order. Kept as the reference [`Relocator`]'s
    /// tables are checked against.
    fn linear_plan(m: &ObjectMemory, marked: &[usize]) -> Vec<(usize, usize, usize)> {
        let mut plan = Vec::new();
        let mut to = m.spaces().old_start;
        let mut scan = to;
        while scan < m.old_next_value() {
            let total = 2 + m.header(Oop::from_index(scan)).body_words();
            if marked.binary_search(&scan).is_ok() {
                plan.push((scan, to, total));
                to += total;
            }
            scan += total;
        }
        plan
    }

    #[test]
    fn table_forwarding_matches_linear_plan_for_every_word() {
        let mut rng = mst_vkernel::SplitMix64::new(0x0016_B17A);
        // Draws for the body-word marks, apart so the layouts stay as they
        // were.
        let mut body_rng = mst_vkernel::SplitMix64::new(0xB0D1_3A2C);
        // Layout shapes the sizes must produce, counted to prove they did.
        let (mut last_word_starts, mut exact_fills, mut straddlers) = (0, 0, 0);
        let (mut ragged_ends, mut interior_marks) = (0, 0);
        for case in 0..48 {
            let m = ObjectMemory::new(MemoryConfig {
                old_words: 128 << 10,
                eden_words: 4 << 10,
                survivor_words: 2 << 10,
                ..MemoryConfig::default()
            });
            bootstrap_minimal(&m);
            let old_start = m.spaces().old_start;
            let array = |body: usize| m.alloc_array_old(body).unwrap();
            // Pads so the next header lands on bit `k` of a block (a pad
            // object is at least its own two header words).
            let pad_to = |k: usize| {
                let at = (m.old_next_value() - old_start) % BLOCK_WORDS;
                array((k + 2 * BLOCK_WORDS - at - 2) % BLOCK_WORDS);
            };
            pad_to(BLOCK_WORDS - 1);
            array(rng.gen_range(0, 201) as usize); // header alone in its block
            pad_to(0);
            array(BLOCK_WORDS - 2); // exactly one block
            for _ in 0..rng.gen_range(0, 600) {
                array(rng.gen_range(0, 201) as usize);
            }
            let old_next = m.old_next_value();
            ragged_ends += usize::from(!(old_next - old_start).is_multiple_of(BLOCK_WORDS));

            // Mark sets: none, all, a dense prefix under a random tail,
            // random. Every non-header word gets a distinct value, so a
            // mis-slid word cannot go unnoticed. The random sets also mark
            // body words, as a corrupt pointer into an object would: the
            // plan must find no object there.
            let dense_below = match case % 4 {
                1 => old_next,
                2 => rng.gen_range(old_start as u64, old_next as u64) as usize,
                _ => old_start,
            };
            let marks = MarkBits::new(&m);
            let mut marked = Vec::new();
            let mut scan = old_start;
            while scan < old_next {
                let total = 2 + m.header(Oop::from_index(scan)).body_words();
                for at in scan + 1..scan + total {
                    m.set_word(at, Oop::from_small_int(at as i64).raw());
                }
                if scan < dense_below || (case % 4 >= 2 && rng.gen_range(0, 2) == 0) {
                    marked.push(scan);
                    let k = (scan - old_start) % BLOCK_WORDS;
                    last_word_starts += usize::from(k == BLOCK_WORDS - 1);
                    exact_fills += usize::from(k == 0 && total == BLOCK_WORDS);
                    straddlers += usize::from(k + total > BLOCK_WORDS);
                }
                if case % 4 >= 2 && body_rng.gen_range(0, 4) == 0 {
                    let at = scan + 1 + body_rng.gen_range(0, total as u64 - 1) as usize;
                    assert!(marks.claim(at));
                    interior_marks += 1;
                }
                scan += total;
            }
            for &at in &marked {
                assert!(marks.claim(at));
            }
            let snapshot: Vec<u64> = (old_start..old_next).map(|at| m.word(at)).collect();

            let plan = linear_plan(&m, &marked);
            let rel = Relocator::plan(&m, marks);
            let live_words: usize = plan.iter().map(|&(_, _, total)| total).sum();
            assert_eq!(rel.live_words, live_words, "case {case}");
            // Every word address of old space, and past its used end.
            let mut next = plan.iter().peekable();
            for at in old_start..old_next + 2 * BLOCK_WORDS {
                let expected = next
                    .next_if(|&&(from, _, _)| from == at)
                    .map(|&(_, to, _)| Oop::from_index(to));
                assert_eq!(
                    rel.lookup(Oop::from_index(at)),
                    expected,
                    "case {case}: word {} of old space",
                    at - old_start
                );
            }
            for passes in [
                Oop::from_small_int(7),
                Oop::from_index(m.spaces().eden_start),
            ] {
                assert_eq!(
                    rel.lookup(passes),
                    Some(passes),
                    "non-old oops pass through"
                );
            }

            // And the slide the same tables drive lands every word.
            rel.slide();
            for &(from, to, total) in &plan {
                let was = &snapshot[from - old_start..][..total];
                for (i, &word) in was.iter().enumerate() {
                    assert_eq!(m.word(to + i), word, "case {case}: word {i} of @{from}");
                }
            }
        }
        assert!(last_word_starts > 0 && exact_fills > 0 && straddlers > 0);
        assert!(ragged_ends > 0 && interior_marks > 0);
    }

    #[test]
    fn pause_phases_sum_exactly_to_the_pause() {
        let m = mem();
        let _root = build_old_graph(&m, 8, 6);
        m.alloc_array_old(100).unwrap(); // garbage, so the move has work
        let completed = m.full_gc_with(2, scope_runner);
        // And an aborted one: nil forged into the middle of an object.
        let victim = m.alloc_array_old(4).unwrap();
        m.store_nocheck(victim, 0, Oop::from_raw(1 << 24));
        m.store_nocheck(victim, 1, m.nil());
        m.specials()
            .set(crate::special::So::Nil, Oop::from_index(victim.index() + 2));
        let aborted = m.full_gc_with(2, scope_runner);
        assert!(aborted.report.aborted.is_some());
        for out in [completed, aborted] {
            let phases = out.mark_nanos + out.plan_nanos + out.update_nanos + out.move_nanos;
            assert_eq!(phases, out.total_nanos, "{out:?}");
        }
        // Every full collection any test ran, as the pause log has it.
        let (pauses, _) = mst_telemetry::pauselog::snapshot();
        let full: Vec<_> = pauses.iter().filter(|p| p.kind == "fullgc").collect();
        assert!(!full.is_empty());
        for p in full {
            assert_eq!(p.attributed_ns(), p.total_ns, "{p:?}");
        }
    }

    #[test]
    fn parallel_compaction_reports_phase_times_and_chunks() {
        let m = mem();
        let _root = build_old_graph(&m, 32, 12);
        let out = m.full_gc_with(4, scope_runner);
        assert!(out.report.is_clean());
        assert!(out.compact_helpers >= 1);
        // The phase clocks partition the compaction tail.
        assert!(out.update_nanos > 0 && out.move_nanos > 0);
        m.verify_heap().assert_clean();
    }
}
