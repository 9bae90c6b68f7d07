//! The shared object memory.
//!
//! One contiguous heap divided into **old space** (tenured objects, the
//! bootstrap image) and **new space** (eden plus two survivor semispaces)
//! exactly as Generation Scavenging requires. Allocation is a serialized
//! pointer bump — the paper (§3.1): *"Memory allocation in the Generation
//! Scavenging system is quite fast — it amounts to little more than
//! incrementing a pointer. Allocation is also comparatively infrequent,
//! making serialization appropriate in this case"* — with the alternative
//! the paper proposes as future work, per-processor allocation areas,
//! available through [`AllocPolicy::PerProcessorLab`].
//!
//! # Safety model
//!
//! The heap is raw shared memory: interpreters on several threads read and
//! write object slots through `&ObjectMemory`. Synchronization is exactly
//! the paper's: allocation, the entry table, and device queues are locked;
//! object *contents* are not (user-level code is responsible for its own
//! races, §3); garbage collection happens only while every mutator is
//! parked at a safepoint. Rust-side callers must uphold one invariant:
//! **never hold an `Oop` (or borrowed byte slice) across a safepoint or
//! allocation that may trigger GC, unless it is registered as a root.**

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use mst_telemetry as tel;
use mst_vkernel::{SpinMutex, SyncMode};

use crate::header::{Header, ObjFormat, MAX_BODY_WORDS, PAD_WORD};
use crate::layout::class::ClassFormat;
use crate::layout::{self};
use crate::method::MethodHeader;
use crate::oop::Oop;
use crate::special::{So, SpecialObjects};

/// Recoverable old-space exhaustion.
///
/// Raised (instead of panicking the process) when a scavenge cannot promise
/// enough tenure room even after a full collection, or when an old-space
/// allocation that callers can recover from — e.g. interning a symbol —
/// finds no space. The interpreter maps it to the Smalltalk-level
/// low-space signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Words the failing operation needed in old space.
    pub requested: usize,
    /// Words actually free in old space at the time of failure.
    pub old_free: usize,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: old space exhausted ({} words needed, {} free)",
            self.requested, self.old_free
        )
    }
}

impl std::error::Error for OomError {}

/// How new-space allocation is shared among interpreters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// One eden, one lock (the paper's choice).
    SharedEden,
    /// Per-interpreter local allocation buffers carved out of eden under the
    /// lock in chunks (the paper's proposed "replication of the new-object
    /// space").
    PerProcessorLab {
        /// Chunk size refilled into a token at a time, in words.
        lab_words: usize,
    },
}

/// Sizing and policy for an [`ObjectMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Old-space size in words.
    pub old_words: usize,
    /// Eden size in words. The paper used an 80 KB allocation space; the
    /// default here is larger to suit modern benchmark lengths, and the
    /// harness shrinks it when reproducing scavenge-frequency experiments.
    pub eden_words: usize,
    /// Size of each survivor semispace in words.
    pub survivor_words: usize,
    /// Synchronization mode (baseline BS vs MS).
    pub sync: SyncMode,
    /// Allocation sharing policy.
    pub alloc_policy: AllocPolicy,
    /// Scavenge-survival count after which an object is tenured.
    pub tenure_age: u8,
    /// Threads (including the leader) a scavenge may use; `1` is the same
    /// scavenger with nobody helping.
    pub gc_helpers: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            old_words: 6 << 20,    // 48 MB
            eden_words: 512 << 10, // 4 MB
            survivor_words: 192 << 10,
            sync: SyncMode::Multiprocessor,
            alloc_policy: AllocPolicy::SharedEden,
            tenure_age: 3,
            gc_helpers: 1,
        }
    }
}

/// Word-index boundaries of the spaces within the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spaces {
    /// First usable old-space word (a small guard region precedes it so no
    /// valid object ever has index 0).
    pub old_start: usize,
    /// One past the last old-space word.
    pub old_end: usize,
    /// First eden word.
    pub eden_start: usize,
    /// One past the last eden word.
    pub eden_end: usize,
    /// First word of survivor space A.
    pub surv_a_start: usize,
    /// First word of survivor space B (== end of A).
    pub surv_b_start: usize,
    /// One past the last word of survivor B (== heap length).
    pub surv_b_end: usize,
}

impl Spaces {
    fn from_config(c: &MemoryConfig) -> Spaces {
        let old_start = 8;
        let old_end = old_start + c.old_words;
        let eden_start = old_end;
        let eden_end = eden_start + c.eden_words;
        let surv_a_start = eden_end;
        let surv_b_start = surv_a_start + c.survivor_words;
        let surv_b_end = surv_b_start + c.survivor_words;
        Spaces {
            old_start,
            old_end,
            eden_start,
            eden_end,
            surv_a_start,
            surv_b_start,
            surv_b_end,
        }
    }

    /// Whether a heap index lies in new space (eden or a survivor).
    #[inline]
    pub fn is_new(&self, idx: usize) -> bool {
        idx >= self.eden_start
    }

    /// Whether a heap index lies in old space.
    #[inline]
    pub fn is_old(&self, idx: usize) -> bool {
        idx < self.old_end
    }
}

/// Backing store; a wrapper so the raw words can be shared across threads.
struct HeapStore(UnsafeCell<Box<[u64]>>);

// SAFETY: see the module-level safety model. All mutation goes through the
// VM's synchronization protocol (locks + stop-the-world GC).
unsafe impl Sync for HeapStore {}
unsafe impl Send for HeapStore {}

impl HeapStore {
    #[inline]
    fn base(&self) -> *mut u64 {
        // SAFETY: we never create &mut to the box itself after construction.
        unsafe { (*self.0.get()).as_mut_ptr() }
    }
}

/// Per-interpreter allocation handle (a local allocation buffer when the
/// [`AllocPolicy::PerProcessorLab`] policy is active).
#[derive(Debug)]
pub struct AllocToken {
    epoch: Cell<u64>,
    lab_next: Cell<usize>,
    lab_limit: Cell<usize>,
}

/// A GC-updated cell keeping an oop alive and current across collections.
///
/// Used by Rust-side code (bootstrap, primitives that cache objects, tests)
/// that must hold object references across safepoints.
#[derive(Debug, Clone)]
pub struct RootHandle {
    cell: Arc<AtomicU64>,
}

impl RootHandle {
    /// The current (post-GC-forwarded) oop.
    pub fn get(&self) -> Oop {
        Oop::from_raw(self.cell.load(Ordering::Relaxed))
    }

    /// Replaces the rooted oop.
    pub fn set(&self, oop: Oop) {
        self.cell.store(oop.raw(), Ordering::Relaxed);
    }
}

/// Per-memory GC counters, embedded as sharded telemetry counters so a
/// collector thread recording its outcome never contends with anything —
/// the old `SpinMutex<GcStats>` serialized stats recording during the pause.
/// Merged into a [`GcStats`] snapshot by [`ObjectMemory::gc_stats`].
#[derive(Debug, Default)]
pub(crate) struct GcCounters {
    pub scavenges: tel::Counter,
    pub words_survived: tel::Counter,
    pub words_tenured: tel::Counter,
    pub full_gcs: tel::Counter,
}

impl GcCounters {
    fn snapshot(&self) -> GcStats {
        GcStats {
            scavenges: self.scavenges.get(),
            words_survived: self.words_survived.get(),
            words_tenured: self.words_tenured.get(),
            full_gcs: self.full_gcs.get(),
        }
    }
}

/// Generation counts accumulated across collections. Pause durations are
/// not here: each collection's [`GcPause`](mst_telemetry::GcPause) record
/// owns them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of scavenges performed.
    pub scavenges: u64,
    /// Words copied to survivor space, summed over all scavenges.
    pub words_survived: u64,
    /// Words tenured into old space, summed over all scavenges.
    pub words_tenured: u64,
    /// Number of mark-compact full collections.
    pub full_gcs: u64,
}

/// The shared object memory. See the module docs for the safety model.
pub struct ObjectMemory {
    store: HeapStore,
    config: MemoryConfig,
    spaces: Spaces,
    /// Old-space bump pointer (tenuring, bootstrap, large objects, methods).
    old_next: SpinMutex<usize>,
    /// Eden bump pointer — the paper's serialized allocation.
    eden_next: SpinMutex<usize>,
    /// Eden words lost to abandoned LAB tails since the last scavenge
    /// (`PerProcessorLab` only): carved out of `eden_next` but never
    /// allocated, counted when a token refills or retires its buffer.
    eden_lab_waste: AtomicUsize,
    /// Soft eden limit (an index, `<= spaces.eden_end`): allocation treats
    /// this as the end of eden, so a serving layer can shrink a tenant's
    /// eden budget under memory pressure without resizing the heap. Set via
    /// [`ObjectMemory::set_eden_budget`]; defaults to the full eden.
    eden_soft_end: AtomicUsize,
    /// Words a failed large-object (direct-to-old) allocation needed; folded
    /// into the next scavenge's old-space reservation so the regular
    /// full-GC / `OomError` containment route covers large objects too.
    large_shortfall: AtomicUsize,
    /// Bump pointer within the current *future* survivor (GC-time only).
    pub(crate) survivor_next: AtomicUsize,
    /// Which survivor currently holds last scavenge's survivors.
    pub(crate) past_is_a: AtomicBool,
    /// Fill level of the past survivor space.
    pub(crate) past_fill: AtomicUsize,
    specials: SpecialObjects,
    /// The entry table: remembered old objects (paper §3.1).
    pub(crate) entry_table: SpinMutex<Vec<Oop>>,
    /// Rust-side GC roots.
    pub(crate) roots: SpinMutex<Vec<Weak<AtomicU64>>>,
    /// Symbol intern table (symbols live in old space).
    symbols: SpinMutex<HashMap<Box<str>, u64>>,
    gc_epoch: AtomicU64,
    /// Set by a full collection, cleared by the next completed scavenge.
    /// While set, *dead* new-space objects may hold dangling references to
    /// compacted-away old objects (full GC abandons them by design), so the
    /// heap verifier must not treat those as corruption.
    pub(crate) fullgc_since_scavenge: AtomicBool,
    /// Dangling-reference diagnostics queued for the containment layer (see
    /// `ObjectMemory::take_fullgc_dangling`).
    pub(crate) fullgc_dangling: SpinMutex<Vec<crate::fullgc::DanglingRef>>,
    pub(crate) stats: GcCounters,
}

// SAFETY: see the module-level safety model.
unsafe impl Send for ObjectMemory {}
unsafe impl Sync for ObjectMemory {}

impl std::fmt::Debug for ObjectMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectMemory")
            .field("spaces", &self.spaces)
            .field("eden_used", &self.eden_used())
            .field("old_used", &self.old_used())
            .field("gc_epoch", &self.gc_epoch())
            .finish()
    }
}

impl ObjectMemory {
    /// Allocates the heap and initializes empty spaces.
    pub fn new(config: MemoryConfig) -> ObjectMemory {
        let spaces = Spaces::from_config(&config);
        let words = vec![0u64; spaces.surv_b_end].into_boxed_slice();
        ObjectMemory {
            store: HeapStore(UnsafeCell::new(words)),
            config,
            spaces,
            old_next: SpinMutex::named(config.sync, "old_next", spaces.old_start),
            eden_next: SpinMutex::named(config.sync, "eden_next", spaces.eden_start),
            eden_lab_waste: AtomicUsize::new(0),
            eden_soft_end: AtomicUsize::new(spaces.eden_end),
            large_shortfall: AtomicUsize::new(0),
            survivor_next: AtomicUsize::new(spaces.surv_b_start),
            past_is_a: AtomicBool::new(true),
            past_fill: AtomicUsize::new(spaces.surv_a_start),
            specials: SpecialObjects::new(),
            entry_table: SpinMutex::named(config.sync, "entry_table", Vec::new()),
            roots: SpinMutex::new(config.sync, Vec::new()),
            symbols: SpinMutex::new(config.sync, HashMap::new()),
            gc_epoch: AtomicU64::new(0),
            fullgc_since_scavenge: AtomicBool::new(false),
            fullgc_dangling: SpinMutex::new(config.sync, Vec::new()),
            stats: GcCounters::default(),
        }
    }

    /// The configuration this memory was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Overrides the scavenge helper count when it is `Some` — the only part
    /// of the configuration not baked into the heap layout. Takes `&mut
    /// self`: only the owner of a memory no interpreter shares yet may call
    /// it.
    pub fn set_collector(&mut self, gc_helpers: Option<usize>) {
        self.config.gc_helpers = gc_helpers.unwrap_or(self.config.gc_helpers);
    }

    /// The space boundaries.
    pub fn spaces(&self) -> &Spaces {
        &self.spaces
    }

    /// The special-objects table.
    pub fn specials(&self) -> &SpecialObjects {
        &self.specials
    }

    /// Convenience: the `nil` oop.
    #[inline]
    pub fn nil(&self) -> Oop {
        self.specials.get(So::Nil)
    }

    /// Monotonic counter bumped by every collection. Replicated method
    /// caches and allocation buffers validate against it.
    #[inline]
    pub fn gc_epoch(&self) -> u64 {
        self.gc_epoch.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_epoch(&self) {
        self.gc_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative GC statistics (merged across counter shards at read time).
    pub fn gc_stats(&self) -> GcStats {
        self.stats.snapshot()
    }

    // ------------------------------------------------------------------
    // Raw word access
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn word(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.spaces.surv_b_end, "heap index out of range");
        // SAFETY: bounds checked above (debug); synchronization per module docs.
        unsafe { *self.store.base().add(idx) }
    }

    #[inline]
    pub(crate) fn set_word(&self, idx: usize, v: u64) {
        debug_assert!(idx < self.spaces.surv_b_end, "heap index out of range");
        // SAFETY: as `word`.
        unsafe { *self.store.base().add(idx) = v }
    }

    /// Copies `n` words from `from` to the disjoint range at `to` (the
    /// scavenger's body copy: from-space to to-space or old space).
    #[inline]
    pub(crate) fn copy_words(&self, from: usize, to: usize, n: usize) {
        let end = self.spaces.surv_b_end;
        assert!(from + n <= end && to + n <= end, "heap copy out of range");
        assert!(from + n <= to || to + n <= from, "heap copy overlaps");
        // SAFETY: both ranges lie inside the store and do not overlap
        // (asserted above); synchronization per module docs.
        unsafe {
            let base = self.store.base();
            std::ptr::copy_nonoverlapping(base.add(from), base.add(to), n);
        }
    }

    /// Slides `n` words from `from` down to `to <= from`; the ranges may
    /// overlap (the compactor's move: a run of survivors closing the gap
    /// below it).
    #[inline]
    pub(crate) fn slide_words(&self, from: usize, to: usize, n: usize) {
        assert!(to <= from, "heap slide must move down");
        assert!(
            from + n <= self.spaces.surv_b_end,
            "heap slide out of range"
        );
        // SAFETY: both ranges lie inside the store (`to <= from` and the
        // source end are asserted above); `ptr::copy` is memmove, so overlap
        // is fine; synchronization per module docs.
        unsafe {
            let base = self.store.base();
            std::ptr::copy(base.add(from), base.add(to), n);
        }
    }

    /// Atomic view of a heap word, for the parallel scavenger's CAS-installed
    /// forwarding and racing slot updates.
    #[inline]
    pub(crate) fn word_atomic(&self, idx: usize) -> &AtomicU64 {
        debug_assert!(idx < self.spaces.surv_b_end, "heap index out of range");
        // SAFETY: bounds as `word`; AtomicU64 has the same layout as u64 and
        // the plain accessors are never used concurrently on contended words
        // (scavenge-internal protocol).
        unsafe { &*self.store.base().add(idx).cast::<AtomicU64>() }
    }

    /// The object's header word.
    #[inline]
    pub fn header(&self, obj: Oop) -> Header {
        Header(self.word(obj.index()))
    }

    /// Overwrites the object's header word.
    #[inline]
    pub fn set_header(&self, obj: Oop, h: Header) {
        self.set_word(obj.index(), h.0);
    }

    /// The class of any oop (SmallIntegers included).
    #[inline]
    pub fn class_of(&self, oop: Oop) -> Oop {
        if oop.is_small_int() {
            self.specials.get(So::ClassSmallInteger)
        } else {
            Oop::from_raw(self.word(oop.index() + 1))
        }
    }

    /// Overwrites the class word (bootstrap patching, become-like surgery).
    pub fn set_class(&self, obj: Oop, class: Oop) {
        self.set_word(obj.index() + 1, class.raw());
    }

    /// Reads body pointer slot `i`.
    #[inline]
    pub fn fetch(&self, obj: Oop, i: usize) -> Oop {
        debug_assert!(
            i < self.header(obj).body_words(),
            "slot {i} out of bounds for {obj:?}"
        );
        Oop::from_raw(self.word(obj.index() + 2 + i))
    }

    /// Writes body pointer slot `i`, performing the generation-scavenging
    /// store check (entry-table maintenance, paper §3.1) — the only write
    /// barrier there is.
    #[inline]
    pub fn store(&self, obj: Oop, i: usize, v: Oop) {
        self.store_nocheck(obj, i, v);
        self.store_check(obj, v);
    }

    /// Writes body pointer slot `i` without a store check. Only correct when
    /// `obj` is newly allocated in new space or `v` is known non-new.
    #[inline]
    pub fn store_nocheck(&self, obj: Oop, i: usize, v: Oop) {
        debug_assert!(
            i < self.header(obj).body_words(),
            "slot {i} out of bounds for {obj:?}"
        );
        self.set_word(obj.index() + 2 + i, v.raw());
    }

    /// The store check itself, exposed for callers that batch raw writes.
    ///
    /// The remembered flag is pre-tested without the lock (it only
    /// transitions false→true between collections, and [`remember`]
    /// re-tests under the lock — the paper's locked test — before pushing).
    ///
    /// [`remember`]: Self::remember
    #[inline]
    pub fn store_check(&self, obj: Oop, v: Oop) {
        if v.is_object()
            && self.spaces.is_new(v.index())
            && self.spaces.is_old(obj.index())
            && !self.header(obj).is_remembered()
        {
            self.remember(obj);
        }
    }

    /// Adds `obj` to the entry table if not already present.
    ///
    /// The lock covers the test of the remembered flag as well — the paper:
    /// *"MS puts a lock on the array that also synchronizes tests on the
    /// 'remembered' flag."*
    pub fn remember(&self, obj: Oop) {
        let mut table = self.entry_table.lock();
        let h = self.header(obj);
        if !h.is_remembered() {
            self.set_header(obj, h.with_remembered(true));
            table.push(obj);
        }
    }

    /// Number of objects currently in the entry table.
    pub fn entry_table_len(&self) -> usize {
        self.entry_table.lock().len()
    }

    /// Snapshot of the entry table contents, for equivalence testing
    /// (serial and parallel compaction must leave identical tables).
    pub fn entry_table_snapshot(&self) -> Vec<Oop> {
        self.entry_table.lock().clone()
    }

    /// Whether the oop refers to a new-space object.
    #[inline]
    pub fn is_new(&self, oop: Oop) -> bool {
        oop.is_object() && self.spaces.is_new(oop.index())
    }

    /// Whether the oop refers to an old-space object.
    #[inline]
    pub fn is_old(&self, oop: Oop) -> bool {
        oop.is_object() && self.spaces.is_old(oop.index())
    }

    // ------------------------------------------------------------------
    // Byte access
    // ------------------------------------------------------------------

    /// Length in bytes of a byte-format object's body.
    #[inline]
    pub fn byte_len(&self, obj: Oop) -> usize {
        let h = self.header(obj);
        let pointer_words = match h.format() {
            ObjFormat::Bytes => 0,
            ObjFormat::Method => MethodHeader::decode(self.fetch(obj, 0)).pointer_slots(),
            ObjFormat::Pointers => return 0,
        };
        (h.body_words() - pointer_words) * 8 - h.odd_bytes() as usize
    }

    #[inline]
    fn byte_base(&self, obj: Oop, pointer_words: usize) -> *mut u8 {
        // SAFETY: stays within the object's body.
        unsafe {
            self.store
                .base()
                .add(obj.index() + 2 + pointer_words)
                .cast::<u8>()
        }
    }

    /// Reads byte `i` of a byte-format object.
    #[inline]
    pub fn byte_at(&self, obj: Oop, i: usize) -> u8 {
        debug_assert!(i < self.byte_len(obj));
        // SAFETY: bounds checked in debug; body is in-heap.
        unsafe { *self.byte_base(obj, 0).add(i) }
    }

    /// Writes byte `i` of a byte-format object.
    #[inline]
    pub fn byte_at_put(&self, obj: Oop, i: usize, v: u8) {
        debug_assert!(i < self.byte_len(obj));
        // SAFETY: as `byte_at`.
        unsafe { *self.byte_base(obj, 0).add(i) = v }
    }

    /// Borrows the bytes of a byte-format object.
    ///
    /// The borrow is invalidated by any GC; do not hold it across a
    /// safepoint or failable allocation.
    #[inline]
    pub fn bytes(&self, obj: Oop) -> &[u8] {
        let len = self.byte_len(obj);
        // SAFETY: in-bounds; aliasing per module safety model.
        unsafe { std::slice::from_raw_parts(self.byte_base(obj, 0), len) }
    }

    /// Copies the bytes of a byte object out as a `String` (lossy).
    pub fn str_value(&self, obj: Oop) -> String {
        String::from_utf8_lossy(self.bytes(obj)).into_owned()
    }

    /// Base pointer and length of a CompiledMethod's bytecode part.
    ///
    /// Same lifetime caveat as [`bytes`](Self::bytes).
    #[inline]
    pub fn method_bytecodes(&self, method: Oop) -> &[u8] {
        let h = self.header(method);
        debug_assert_eq!(h.format(), ObjFormat::Method);
        let mh = MethodHeader::decode(self.fetch(method, 0));
        let ptr_words = mh.pointer_slots();
        let len = (h.body_words() - ptr_words) * 8 - h.odd_bytes() as usize;
        // SAFETY: in-bounds; aliasing per module safety model.
        unsafe { std::slice::from_raw_parts(self.byte_base(method, ptr_words), len) }
    }

    /// Reads one bytecode of a CompiledMethod given its pointer-slot count.
    #[inline]
    pub fn method_byte(&self, method: Oop, ptr_words: usize, pc: usize) -> u8 {
        // SAFETY: callers obtain ptr_words from the method's own header and
        // keep pc within the bytecode range.
        unsafe { *self.byte_base(method, ptr_words).add(pc) }
    }

    /// IEEE bits of a boxed Float.
    pub fn float_value(&self, obj: Oop) -> f64 {
        let b = self.bytes(obj);
        f64::from_le_bytes(b[..8].try_into().expect("Float body is 8 bytes"))
    }

    /// The identity hash of any oop.
    pub fn identity_hash(&self, oop: Oop) -> i64 {
        if oop.is_small_int() {
            oop.as_small_int()
        } else {
            self.header(oop).hash() as i64
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Creates a per-interpreter allocation token.
    pub fn new_token(&self) -> AllocToken {
        AllocToken {
            epoch: Cell::new(self.gc_epoch()),
            lab_next: Cell::new(0),
            lab_limit: Cell::new(0),
        }
    }

    /// Objects at least this large go straight to old space.
    const LARGE_OBJECT_WORDS: usize = 16 << 10;

    /// Allocates a new object in new space.
    ///
    /// Returns `None` when eden is exhausted — the caller must trigger a
    /// scavenge (with the world stopped) and retry. Pointer bodies come back
    /// nil-filled; byte/method bodies come back zero-filled.
    pub fn allocate(
        &self,
        token: &AllocToken,
        class: Oop,
        format: ObjFormat,
        body_words: usize,
        odd_bytes: u8,
    ) -> Option<Oop> {
        assert!(body_words <= MAX_BODY_WORDS, "object too large");
        let total = 2 + body_words;
        if total >= Self::LARGE_OBJECT_WORDS {
            // Large objects tenure at birth. On old-space exhaustion, record
            // the shortfall and report `None`: the caller's ordinary
            // scavenge-and-retry path then reserves the extra words, running
            // a full GC or raising `OomError` exactly like the small-object
            // containment route (a full collection cannot happen here — the
            // world is not stopped).
            match self.allocate_old(class, format, body_words, odd_bytes) {
                Some(obj) => return Some(obj),
                None => {
                    self.large_shortfall.fetch_max(total, Ordering::Relaxed);
                    return None;
                }
            }
        }
        if token.epoch.get() != self.gc_epoch() {
            // A collection emptied eden; our buffer is gone with it.
            token.lab_next.set(0);
            token.lab_limit.set(0);
            token.epoch.set(self.gc_epoch());
        }
        // Chaos: report exhaustion despite available room, forcing the
        // caller down its scavenge-and-retry path. Old-space allocation is
        // deliberately NOT injected — tenuring relies on the scavenger's
        // up-front space check.
        if mst_vkernel::fault::fail_alloc() {
            return None;
        }
        // Allocation honors the *soft* eden end so a serving layer can
        // shrink a session's eden budget under memory pressure; the soft
        // end never exceeds the real one.
        let eden_end = self
            .eden_soft_end
            .load(Ordering::Relaxed)
            .min(self.spaces.eden_end);
        let idx = match self.config.alloc_policy {
            AllocPolicy::SharedEden => {
                let mut next = self.eden_next.lock();
                if *next + total > eden_end {
                    return None;
                }
                let idx = *next;
                *next += total;
                idx
            }
            AllocPolicy::PerProcessorLab { lab_words } => {
                if token.lab_next.get() + total > token.lab_limit.get() {
                    let chunk = lab_words.max(total);
                    let mut next = self.eden_next.lock();
                    if *next + chunk > eden_end {
                        // Refill failed: the token keeps its old buffer (a
                        // smaller object may still fit it), so nothing is
                        // abandoned yet.
                        return None;
                    }
                    // The abandoned tail of the old buffer was carved from
                    // eden but never allocated; account it so eden_used()
                    // stays exact (the token's epoch was validated above, so
                    // the remainder is from the current GC cycle).
                    let stale = token.lab_limit.get() - token.lab_next.get();
                    if stale > 0 {
                        self.eden_lab_waste.fetch_add(stale, Ordering::Relaxed);
                    }
                    // Format the fresh buffer as pad words so eden stays
                    // linearly walkable (objects + filler) even while LAB
                    // tails are carved but unfilled. The heap verifier relies
                    // on this to walk eden under LAB policy.
                    for w in *next..*next + chunk {
                        self.set_word(w, PAD_WORD);
                    }
                    token.lab_next.set(*next);
                    token.lab_limit.set(*next + chunk);
                    *next += chunk;
                }
                let idx = token.lab_next.get();
                token.lab_next.set(idx + total);
                idx
            }
        };
        Some(self.format_object(idx, class, format, body_words, odd_bytes))
    }

    /// Allocates directly in old space (bootstrap, tenuring, methods,
    /// large objects). Returns `None` if old space is exhausted.
    pub fn allocate_old(
        &self,
        class: Oop,
        format: ObjFormat,
        body_words: usize,
        odd_bytes: u8,
    ) -> Option<Oop> {
        assert!(body_words <= MAX_BODY_WORDS, "object too large");
        let total = 2 + body_words;
        let idx = {
            let mut next = self.old_next.lock();
            if *next + total > self.spaces.old_end {
                return None;
            }
            let idx = *next;
            *next += total;
            idx
        };
        Some(self.format_object(idx, class, format, body_words, odd_bytes))
    }

    fn format_object(
        &self,
        idx: usize,
        class: Oop,
        format: ObjFormat,
        body_words: usize,
        odd_bytes: u8,
    ) -> Oop {
        let h = Header::new(body_words, format, odd_bytes, idx as u64);
        self.set_word(idx, h.0);
        self.set_word(idx + 1, class.raw());
        let fill = match format {
            ObjFormat::Pointers => self.nil().raw(),
            ObjFormat::Bytes | ObjFormat::Method => 0,
        };
        for i in 0..body_words {
            self.set_word(idx + 2 + i, fill);
        }
        Oop::from_index(idx)
    }

    /// Allocates an instance of `class` honoring its format, with `extra`
    /// indexable slots/bytes. Returns `None` on eden exhaustion, or
    /// `Err`-like `None` also if the class forbids indexing and `extra > 0`
    /// (callers validate beforehand via [`ClassFormat`]).
    pub fn instantiate(&self, token: &AllocToken, class: Oop, extra: usize) -> Option<Oop> {
        let (format, words, odd) = self.instance_shape(class, extra);
        self.allocate(token, class, format, words, odd)
    }

    /// Whether an instance of `class` with `extra` indexable slots/bytes
    /// could ever be allocated: its body fits the header's size field and
    /// the whole of old space. A `new:` beyond it fails as a primitive; no
    /// collection could make room for it.
    pub fn could_instantiate(&self, class: Oop, extra: usize) -> bool {
        let (_, words, _) = self.instance_shape(class, extra);
        words <= MAX_BODY_WORDS
            && words.saturating_add(2) <= self.spaces.old_end - self.spaces.old_start
    }

    /// The format, body words and odd bytes of an instance of `class` with
    /// `extra` indexable slots/bytes.
    fn instance_shape(&self, class: Oop, extra: usize) -> (ObjFormat, usize, u8) {
        let fmt = ClassFormat::decode(self.fetch(class, layout::class::FORMAT).as_small_int());
        if fmt.bytes {
            let words = extra.div_ceil(8);
            (ObjFormat::Bytes, words, (words * 8 - extra) as u8)
        } else {
            let words = (fmt.inst_size as usize).saturating_add(extra);
            (ObjFormat::Pointers, words, 0)
        }
    }

    /// Allocates an Array of `n` nils in new space.
    pub fn alloc_array(&self, token: &AllocToken, n: usize) -> Option<Oop> {
        self.allocate(
            token,
            self.specials.get(So::ClassArray),
            ObjFormat::Pointers,
            n,
            0,
        )
    }

    /// Allocates an Array of `n` nils in old space.
    pub fn alloc_array_old(&self, n: usize) -> Option<Oop> {
        self.allocate_old(self.specials.get(So::ClassArray), ObjFormat::Pointers, n, 0)
    }

    /// Allocates a String with the given contents in new space.
    pub fn alloc_string(&self, token: &AllocToken, s: &str) -> Option<Oop> {
        let class = self.specials.get(So::ClassString);
        let obj = self.alloc_byte_obj(token, class, s.as_bytes())?;
        Some(obj)
    }

    /// Allocates a String with the given contents in old space.
    pub fn alloc_string_old(&self, s: &str) -> Option<Oop> {
        let class = self.specials.get(So::ClassString);
        self.alloc_byte_obj_old(class, s.as_bytes())
    }

    /// Allocates a byte-format object with the given contents in new space.
    pub fn alloc_byte_obj(&self, token: &AllocToken, class: Oop, data: &[u8]) -> Option<Oop> {
        let words = data.len().div_ceil(8);
        let odd = (words * 8 - data.len()) as u8;
        let obj = self.allocate(token, class, ObjFormat::Bytes, words, odd)?;
        for (i, b) in data.iter().enumerate() {
            self.byte_at_put(obj, i, *b);
        }
        Some(obj)
    }

    /// Allocates a byte-format object with the given contents in old space.
    pub fn alloc_byte_obj_old(&self, class: Oop, data: &[u8]) -> Option<Oop> {
        let words = data.len().div_ceil(8);
        let odd = (words * 8 - data.len()) as u8;
        let obj = self.allocate_old(class, ObjFormat::Bytes, words, odd)?;
        for (i, b) in data.iter().enumerate() {
            self.byte_at_put(obj, i, *b);
        }
        Some(obj)
    }

    /// Boxes a Float in new space.
    pub fn alloc_float(&self, token: &AllocToken, v: f64) -> Option<Oop> {
        let class = self.specials.get(So::ClassFloat);
        self.alloc_byte_obj(token, class, &v.to_le_bytes())
    }

    /// Allocates a CompiledMethod in old space (methods are long-lived).
    ///
    /// # Panics
    ///
    /// Panics if `literals.len()` disagrees with `header.num_literals`.
    pub fn alloc_method_old(
        &self,
        header: MethodHeader,
        literals: &[Oop],
        bytecodes: &[u8],
    ) -> Option<Oop> {
        assert_eq!(literals.len(), header.num_literals as usize);
        let ptr_words = header.pointer_slots();
        let byte_words = bytecodes.len().div_ceil(8);
        let odd = (byte_words * 8 - bytecodes.len()) as u8;
        let class = self.specials.get(So::ClassCompiledMethod);
        let obj = self.allocate_old(class, ObjFormat::Method, ptr_words + byte_words, odd)?;
        self.store_nocheck(obj, 0, header.encode());
        for (i, lit) in literals.iter().enumerate() {
            // Methods live in old space: the store check matters when a
            // literal (e.g. a freshly compiled doit's literal array) is new.
            self.store(obj, MethodHeader::literal_slot(i), *lit);
        }
        for (i, b) in bytecodes.iter().enumerate() {
            // SAFETY: in-bounds within the byte part sized above.
            unsafe { *self.byte_base(obj, ptr_words).add(i) = *b }
        }
        Some(obj)
    }

    /// The Character object for a byte.
    pub fn char_oop(&self, b: u8) -> Oop {
        let table = self.specials.get(So::CharTable);
        self.fetch(table, b as usize)
    }

    // ------------------------------------------------------------------
    // Symbols
    // ------------------------------------------------------------------

    /// Interns `name`, allocating a Symbol in old space on first use.
    ///
    /// Returns [`OomError`] if the symbol is new and old space cannot hold
    /// it; the intern table is left unchanged, so retrying after space is
    /// recovered succeeds.
    pub fn try_intern(&self, name: &str) -> Result<Oop, OomError> {
        let mut table = self.symbols.lock();
        if let Some(&raw) = table.get(name) {
            return Ok(Oop::from_raw(raw));
        }
        let class = self.specials.get(So::ClassSymbol);
        let sym = self
            .alloc_byte_obj_old(class, name.as_bytes())
            .ok_or_else(|| OomError {
                requested: 2 + name.len().div_ceil(8),
                old_free: self.old_free(),
            })?;
        table.insert(name.into(), sym.raw());
        Ok(sym)
    }

    /// Interns `name`, allocating a Symbol in old space on first use.
    ///
    /// # Panics
    ///
    /// Panics if old space is exhausted; use [`try_intern`](Self::try_intern)
    /// where the caller can recover.
    pub fn intern(&self, name: &str) -> Oop {
        self.try_intern(name)
            .unwrap_or_else(|e| panic!("{e} while interning {name:?}"))
    }

    /// Looks up an already-interned symbol.
    pub fn find_symbol(&self, name: &str) -> Option<Oop> {
        self.symbols.lock().get(name).map(|&raw| Oop::from_raw(raw))
    }

    /// Number of interned symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.lock().len()
    }

    pub(crate) fn update_symbols(&self, mut f: impl FnMut(Oop) -> Oop) {
        let mut table = self.symbols.lock();
        for raw in table.values_mut() {
            *raw = f(Oop::from_raw(*raw)).raw();
        }
    }

    pub(crate) fn each_symbol(&self, mut f: impl FnMut(Oop)) {
        for &raw in self.symbols.lock().values() {
            f(Oop::from_raw(raw));
        }
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Registers `oop` as a GC root; the returned handle tracks it across
    /// collections.
    pub fn new_root(&self, oop: Oop) -> RootHandle {
        let cell = Arc::new(AtomicU64::new(oop.raw()));
        self.roots.lock().push(Arc::downgrade(&cell));
        RootHandle { cell }
    }

    // ------------------------------------------------------------------
    // Usage queries
    // ------------------------------------------------------------------

    /// Words allocated in eden since the last scavenge, excluding LAB tails
    /// that were carved out but abandoned unallocated (exact under both
    /// allocation policies). Outstanding tokens may still hold unretired
    /// remainders; interpreters retire theirs at every safepoint park, so at
    /// stop-world — where the scavenger sizes its old-space reservation —
    /// the figure is exact.
    pub fn eden_used(&self) -> usize {
        self.eden_frontier() - self.eden_lab_waste.load(Ordering::Relaxed)
    }

    /// Words between eden's start and the shared bump pointer, counting
    /// abandoned LAB tails. This is the extent walkers and the snapshotter
    /// must use — allocated objects can live anywhere below the frontier.
    pub fn eden_frontier(&self) -> usize {
        *self.eden_next.lock() - self.spaces.eden_start
    }

    /// Unallocated eden words (ignores per-token buffer remainders).
    pub fn eden_headroom(&self) -> usize {
        self.spaces.eden_end - *self.eden_next.lock()
    }

    /// Shrinks (or restores) the soft eden budget to `words`, clamped to
    /// the real eden capacity and to at least one large-object threshold so
    /// forward progress stays possible. Allocation beyond the budget fails
    /// as if eden were full, forcing a scavenge — the graceful-degradation
    /// knob the serving layer turns under memory pressure. Takes effect at
    /// the next allocation/LAB refill.
    pub fn set_eden_budget(&self, words: usize) {
        let capacity = self.spaces.eden_end - self.spaces.eden_start;
        let words = words.clamp(Self::LARGE_OBJECT_WORDS.min(capacity), capacity);
        self.eden_soft_end
            .store(self.spaces.eden_start + words, Ordering::Relaxed);
    }

    /// Current soft eden budget in words (defaults to the full capacity).
    pub fn eden_budget(&self) -> usize {
        self.eden_soft_end
            .load(Ordering::Relaxed)
            .min(self.spaces.eden_end)
            - self.spaces.eden_start
    }

    /// Returns a token's unallocated LAB remainder to the waste account and
    /// empties the buffer. Interpreters call this before parking at a
    /// safepoint so eden accounting is exact while the world is stopped;
    /// Rust-side callers should retire short-lived tokens when done.
    /// Idempotent; a no-op under [`AllocPolicy::SharedEden`] (tokens never
    /// hold buffers) or when the token's buffer predates the last GC.
    pub fn retire_token(&self, token: &AllocToken) {
        if token.epoch.get() != self.gc_epoch() {
            token.lab_next.set(0);
            token.lab_limit.set(0);
            token.epoch.set(self.gc_epoch());
            return;
        }
        let rem = token.lab_limit.get() - token.lab_next.get();
        if rem > 0 {
            self.eden_lab_waste.fetch_add(rem, Ordering::Relaxed);
            token.lab_next.set(token.lab_limit.get());
        }
    }

    /// Words allocated in old space.
    pub fn old_used(&self) -> usize {
        *self.old_next.lock() - self.spaces.old_start
    }

    /// Words free in old space.
    pub fn old_free(&self) -> usize {
        self.spaces.old_end - *self.old_next.lock()
    }

    /// Words occupied by the survivors of the last scavenge.
    pub fn past_survivor_used(&self) -> usize {
        let (start, fill) = self.past_range();
        fill - start
    }

    /// The past survivor space's occupied words, `[start, fill)`.
    pub(crate) fn past_range(&self) -> (usize, usize) {
        let start = if self.past_is_a.load(Ordering::Relaxed) {
            self.spaces.surv_a_start
        } else {
            self.spaces.surv_b_start
        };
        (start, self.past_fill.load(Ordering::Relaxed))
    }

    pub(crate) fn eden_reset(&self) {
        *self.eden_next.lock() = self.spaces.eden_start;
        self.eden_lab_waste.store(0, Ordering::Relaxed);
    }

    /// Snapshot load: positions the eden frontier. Waste resets to zero —
    /// any pre-save LAB tails are conservatively counted as used until the
    /// next scavenge (saves normally follow a scavenge, leaving eden empty).
    pub(crate) fn set_eden_used(&self, words: usize) {
        *self.eden_next.lock() = self.spaces.eden_start + words;
        self.eden_lab_waste.store(0, Ordering::Relaxed);
    }

    /// Consumes the recorded large-allocation shortfall (scavenge prologue).
    pub(crate) fn take_large_shortfall(&self) -> usize {
        self.large_shortfall.swap(0, Ordering::Relaxed)
    }

    /// Interned symbols, sorted by name so a saved snapshot's symbol
    /// section is byte-identical across saves of the same image (HashMap
    /// iteration order is nondeterministic per process).
    pub(crate) fn symbol_entries(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> = self
            .symbols
            .lock()
            .iter()
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        entries.sort();
        entries
    }

    /// Installs a symbol-table entry. Returns `false` (and leaves the
    /// existing mapping in place) when the name is already interned at a
    /// *different* oop — the snapshot loader treats that as corruption
    /// rather than silently re-pointing the intern table.
    pub(crate) fn insert_symbol(&self, name: &str, oop: Oop) -> bool {
        match self.symbols.lock().entry(name.into()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get() == oop.raw(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(oop.raw());
                true
            }
        }
    }

    pub(crate) fn old_next_value(&self) -> usize {
        *self.old_next.lock()
    }

    pub(crate) fn set_old_next(&self, v: usize) {
        *self.old_next.lock() = v;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn small_mem() -> ObjectMemory {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&mem);
        mem
    }

    /// Installs just enough specials (nil + a few classes) for tests.
    pub(crate) fn bootstrap_minimal(mem: &ObjectMemory) {
        // nil must exist before pointer objects can be nil-filled; create it
        // with a zero class and patch afterwards, as the real bootstrap does.
        let nil = mem
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
            .unwrap();
        mem.specials().set(So::Nil, nil);
        for (which, name) in [
            (So::ClassSmallInteger, "SmallInteger"),
            (So::ClassArray, "Array"),
            (So::ClassString, "String"),
            (So::ClassSymbol, "Symbol"),
            (So::ClassFloat, "Float"),
            (So::ClassCompiledMethod, "CompiledMethod"),
        ] {
            let class = mem
                .allocate_old(Oop::ZERO, ObjFormat::Pointers, layout::class::SIZE, 0)
                .unwrap();
            let _ = name;
            mem.store_nocheck(
                class,
                layout::class::FORMAT,
                Oop::from_small_int(
                    ClassFormat {
                        inst_size: 0,
                        indexable: true,
                        bytes: false,
                    }
                    .encode(),
                ),
            );
            mem.specials().set(which, class);
        }
        mem.specials().set(So::True, nil);
        mem.specials().set(So::False, nil);
    }

    #[test]
    fn allocate_pointer_object_nil_filled() {
        let mem = small_mem();
        let tok = mem.new_token();
        let arr = mem.alloc_array(&tok, 5).unwrap();
        assert!(mem.is_new(arr));
        assert_eq!(mem.header(arr).body_words(), 5);
        for i in 0..5 {
            assert_eq!(mem.fetch(arr, i), mem.nil());
        }
        mem.store_nocheck(arr, 2, Oop::from_small_int(9));
        assert_eq!(mem.fetch(arr, 2).as_small_int(), 9);
    }

    #[test]
    fn strings_round_trip() {
        let mem = small_mem();
        let tok = mem.new_token();
        let s = mem.alloc_string(&tok, "hello world").unwrap();
        assert_eq!(mem.byte_len(s), 11);
        assert_eq!(mem.str_value(s), "hello world");
        assert_eq!(mem.bytes(s), b"hello world");
        mem.byte_at_put(s, 0, b'H');
        assert_eq!(mem.byte_at(s, 0), b'H');
    }

    #[test]
    fn floats_round_trip() {
        let mem = small_mem();
        let tok = mem.new_token();
        let f = mem.alloc_float(&tok, 3.25).unwrap();
        assert_eq!(mem.float_value(f), 3.25);
    }

    #[test]
    fn eden_exhaustion_returns_none() {
        let mem = small_mem();
        let tok = mem.new_token();
        let mut n = 0;
        while mem.alloc_array(&tok, 100).is_some() {
            n += 1;
            assert!(n < 100_000, "eden never filled");
        }
        assert!(n > 0);
    }

    #[test]
    fn large_objects_go_to_old_space() {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 256 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&mem);
        let tok = mem.new_token();
        let big = mem.alloc_array(&tok, 32 << 10).unwrap();
        assert!(mem.is_old(big));
    }

    #[test]
    fn store_check_remembers_old_objects_once() {
        let mem = small_mem();
        let tok = mem.new_token();
        let old = mem.alloc_array_old(3).unwrap();
        let young = mem.alloc_array(&tok, 1).unwrap();
        assert_eq!(mem.entry_table_len(), 0);
        mem.store(old, 0, young);
        assert_eq!(mem.entry_table_len(), 1);
        assert!(mem.header(old).is_remembered());
        mem.store(old, 1, young);
        assert_eq!(mem.entry_table_len(), 1, "remembered only once");
        // new→new and old→old stores don't remember.
        let young2 = mem.alloc_array(&tok, 1).unwrap();
        mem.store(young2, 0, young);
        let old2 = mem.alloc_array_old(1).unwrap();
        mem.store(old2, 0, old);
        assert_eq!(mem.entry_table_len(), 1);
    }

    #[test]
    fn interning_is_idempotent() {
        let mem = small_mem();
        let a = mem.intern("foo:");
        let b = mem.intern("foo:");
        let c = mem.intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(mem.is_old(a));
        assert_eq!(mem.str_value(a), "foo:");
        assert_eq!(mem.find_symbol("bar"), Some(c));
        assert_eq!(mem.find_symbol("baz"), None);
        assert_eq!(mem.symbol_count(), 2);
    }

    #[test]
    fn identity_hashes_are_stable_and_distinct() {
        let mem = small_mem();
        let tok = mem.new_token();
        let a = mem.alloc_array(&tok, 1).unwrap();
        let b = mem.alloc_array(&tok, 1).unwrap();
        assert_ne!(mem.identity_hash(a), mem.identity_hash(b));
        assert_eq!(mem.identity_hash(Oop::from_small_int(-3)), -3);
    }

    #[test]
    fn per_lab_policy_allocates_disjoint_objects() {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            alloc_policy: AllocPolicy::PerProcessorLab { lab_words: 1 << 10 },
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&mem);
        let t1 = mem.new_token();
        let t2 = mem.new_token();
        let a = mem.alloc_array(&t1, 4).unwrap();
        let b = mem.alloc_array(&t2, 4).unwrap();
        let c = mem.alloc_array(&t1, 4).unwrap();
        assert_ne!(a.index(), b.index());
        // t1's second object continues its own lab, adjacent to its first.
        assert_eq!(c.index(), a.index() + 6);
        mem.store_nocheck(a, 0, Oop::from_small_int(1));
        mem.store_nocheck(b, 0, Oop::from_small_int(2));
        assert_eq!(mem.fetch(a, 0).as_small_int(), 1);
        assert_eq!(mem.fetch(b, 0).as_small_int(), 2);
    }

    #[test]
    fn method_allocation_and_bytecode_access() {
        let mem = small_mem();
        let lit = mem.intern("printString");
        let mh = MethodHeader {
            num_args: 1,
            num_temps: 2,
            num_literals: 1,
            primitive: 0,
            large_context: false,
        };
        let m = mem
            .alloc_method_old(mh, &[lit], &[0x70, 0x7C, 0xFF])
            .unwrap();
        assert_eq!(mem.method_bytecodes(m), &[0x70, 0x7C, 0xFF]);
        assert_eq!(MethodHeader::decode(mem.fetch(m, 0)), mh);
        assert_eq!(mem.fetch(m, 1), lit);
        assert_eq!(mem.byte_len(m), 3);
        assert_eq!(mem.method_byte(m, mh.pointer_slots(), 1), 0x7C);
    }

    #[test]
    fn usage_counters_track_allocation() {
        let mem = small_mem();
        let tok = mem.new_token();
        let before = mem.eden_used();
        mem.alloc_array(&tok, 8).unwrap();
        assert_eq!(mem.eden_used(), before + 10);
        assert!(mem.old_used() > 0);
        assert!(mem.old_free() > 0);
    }

    #[test]
    fn eden_used_is_exact_under_per_processor_labs() {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            alloc_policy: AllocPolicy::PerProcessorLab { lab_words: 64 },
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&mem);
        let t1 = mem.new_token();
        let t2 = mem.new_token();
        let mut live_words = 0usize;
        // Interleave odd-sized allocations so LAB refills strand tails.
        for i in 0..40 {
            let tok = if i % 2 == 0 { &t1 } else { &t2 };
            let body = 11 + (i % 7);
            mem.alloc_array(tok, body).unwrap();
            live_words += 2 + body;
        }
        // The frontier includes carved-but-unused LAB space…
        assert!(mem.eden_frontier() > live_words);
        // …and the waste-adjusted figure still overcounts by the two live
        // LAB tails, until their tokens retire.
        assert!(mem.eden_used() >= live_words);
        mem.retire_token(&t1);
        mem.retire_token(&t2);
        assert_eq!(
            mem.eden_used(),
            live_words,
            "with every token retired, eden_used must be exact"
        );
        // Retiring twice is idempotent; allocation after retirement refills.
        mem.retire_token(&t1);
        assert_eq!(mem.eden_used(), live_words);
        mem.alloc_array(&t1, 3).unwrap();
        // The fresh LAB's unallocated remainder counts as in-use until its
        // token retires again.
        assert!(mem.eden_used() > live_words + 5);
        mem.retire_token(&t1);
        assert_eq!(mem.eden_used(), live_words + 5);
    }

    #[test]
    fn large_object_shortfall_is_reserved_for_the_retry() {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 24 << 10,
            eden_words: 16 << 10,
            survivor_words: 4 << 10,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&mem);
        let tok = mem.new_token();
        // Fill old space with garbage until a large allocation cannot fit.
        let large_body = ObjectMemory::LARGE_OBJECT_WORDS;
        while mem.old_free() > large_body {
            mem.alloc_array_old(1000).unwrap();
        }
        let nil = mem.nil();
        let failed = mem.allocate(&tok, nil, ObjFormat::Bytes, large_body, 0);
        assert!(failed.is_none(), "old space is too full for a large object");
        // The scavenge folds the recorded shortfall into its reserve: old
        // space cannot cover it by bumping, so the full collector runs and
        // reclaims the (unreachable) filler arrays.
        let out = mem.try_scavenge().expect("full GC must recover the room");
        assert!(out.full_gc_ran, "shortfall must force the full collection");
        assert!(mem.old_free() >= large_body + 2);
        let retried = mem.allocate(&tok, nil, ObjFormat::Bytes, large_body, 0);
        assert!(retried.is_some(), "retry after the collection must fit");
        mem.verify_heap().assert_clean();
    }
}
