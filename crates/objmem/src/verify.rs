//! Safepoint-time heap verification.
//!
//! The chaos harness needs an oracle: after soaking the runtime in injected
//! faults, *did the heap survive intact?* [`ObjectMemory::verify_heap`]
//! linearly walks every used region — old space, the past survivor space,
//! and eden (walkable under both allocation policies: LAB buffers are
//! formatted as pad words when carved) — and checks the invariants
//! Generation Scavenging relies on:
//!
//! * **Header sanity** — valid format bits, object extents that stay inside
//!   their region, pointer objects with no odd-byte count, method headers
//!   whose literal frame fits the body.
//! * **No stale GC state** — forwarding markers, the only transient GC
//!   state a header carries, exist only *during* a scavenge; any left
//!   behind means a scavenge ended halfway.
//! * **Reference validity** — every pointer slot holds a small integer,
//!   `Oop::ZERO`, or a reference into a *used* region (never the future
//!   survivor space or the unallocated tails).
//! * **Remembered-set completeness** — an old object holding a new-space
//!   reference must carry the remembered flag and sit in the entry table,
//!   and vice versa; a miss here is exactly the corruption that makes a
//!   later scavenge free a live object.
//!
//! The walk assumes the world is stopped (like [`scavenge`]
//! [`ObjectMemory::scavenge`] itself); `MsSystem::audit_heap` arranges that.

use std::collections::HashSet;

use crate::header::{Header, PAD_WORD};
use crate::heap::ObjectMemory;
use crate::method::MethodHeader;
use crate::oop::Oop;

/// Cap on recorded error strings; counting continues past it.
const MAX_ERRORS: usize = 32;

/// Raw format bits (before [`crate::ObjFormat`] decoding, which panics on
/// the invalid pattern).
fn raw_format_bits(h: Header) -> u64 {
    (h.0 >> 24) & 0b11
}

/// Outcome of a heap audit.
#[derive(Debug, Clone, Default)]
pub struct HeapAudit {
    /// Objects visited across all walked regions.
    pub objects_checked: usize,
    /// Pointer slots validated.
    pub slots_checked: usize,
    /// Invariant violations, human-readable. Capped at [`MAX_ERRORS`]
    /// entries; `error_count` keeps the true total.
    pub errors: Vec<String>,
    /// Total violations found (may exceed `errors.len()`).
    pub error_count: usize,
    /// Reference targets in new space went unvalidated: a full collection
    /// ran since the last scavenge, so *dead* new-space objects may hold
    /// dangling references to compacted-away old objects by design.
    pub new_refs_unchecked: bool,
}

impl HeapAudit {
    /// Whether the heap passed every check.
    pub fn is_clean(&self) -> bool {
        self.error_count == 0
    }

    /// Panics with the recorded violations unless the audit is clean.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "heap audit failed with {} violation(s):\n  {}",
            self.error_count,
            self.errors.join("\n  ")
        );
    }
}

impl std::fmt::Display for HeapAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "heap audit: {} objects, {} slots, {} violation(s)",
            self.objects_checked, self.slots_checked, self.error_count,
        )
    }
}

struct Verifier<'m> {
    mem: &'m ObjectMemory,
    /// Used extents: `[old_start, old_next)`, `[eden_start, eden_next)`,
    /// `[past_start, past_fill)`.
    old_used: (usize, usize),
    eden_used: (usize, usize),
    past_used: (usize, usize),
    entry_set: HashSet<u64>,
    audit: HeapAudit,
}

impl ObjectMemory {
    /// Audits every used heap region against the scavenger's invariants.
    /// **The world must be stopped by the caller** (the walk reads bump
    /// pointers and object graphs non-atomically); a running system reaches
    /// the memory through `mst_interp::StoppedWorld::mem`.
    pub fn verify_heap(&self) -> HeapAudit {
        let sp = self.spaces();
        let (past_start, past_fill) = self.past_range();
        let entry_set: HashSet<u64> = self.entry_table.lock().iter().map(|o| o.raw()).collect();
        let mut v = Verifier {
            mem: self,
            old_used: (sp.old_start, self.old_next_value()),
            // The frontier, not `eden_used()`: LAB waste is unreachable but
            // still part of the allocated extent.
            eden_used: (sp.eden_start, sp.eden_start + self.eden_frontier()),
            past_used: (past_start, past_fill),
            entry_set,
            audit: HeapAudit::default(),
        };
        // Dead new-space objects dangle (legally) between a full collection
        // and the next scavenge; only live references can be validated, and
        // a linear walk cannot tell the difference.
        let new_refs_ok = !self
            .fullgc_since_scavenge
            .load(std::sync::atomic::Ordering::Relaxed);
        v.audit.new_refs_unchecked = !new_refs_ok;

        v.walk_region("old", sp.old_start, v.old_used.1, true);
        v.walk_region("past-survivor", past_start, past_fill, new_refs_ok);
        // Eden is walkable under both policies: shared bumping leaves no
        // gaps, and LAB buffers are pad-formatted the moment they are
        // carved, so unfilled tails read as filler.
        v.walk_region("eden", sp.eden_start, v.eden_used.1, new_refs_ok);
        v.check_entry_table();
        v.check_symbols();
        v.audit
    }
}

impl Verifier<'_> {
    fn error(&mut self, msg: String) {
        self.audit.error_count += 1;
        if self.audit.errors.len() < MAX_ERRORS {
            self.audit.errors.push(msg);
        }
    }

    /// Whether `idx` lies inside some *used* extent — old space, formatted
    /// eden, or the past survivor space. References into the future
    /// survivor space or unallocated tails are corruption.
    fn is_used_index(&self, idx: usize) -> bool {
        let within = |(lo, hi): (usize, usize)| idx >= lo && idx < hi;
        within(self.old_used) || within(self.eden_used) || within(self.past_used)
    }

    /// Whether `target` is acceptable in a pointer slot: a small integer,
    /// the pre-bootstrap `Oop::ZERO`, or a reference into a used region.
    fn valid_reference(&self, target: Oop) -> bool {
        if target == Oop::ZERO || target.is_small_int() {
            return true;
        }
        self.is_used_index(target.index())
    }

    fn walk_region(&mut self, region: &str, start: usize, end: usize, validate_refs: bool) {
        let mem = self.mem;
        let mut scan = start;
        while scan < end {
            // Parallel scavenges plug abandoned copy-buffer tails with
            // one-word pads; they are not objects, just walkable filler.
            if mem.word(scan) == PAD_WORD {
                scan += 1;
                continue;
            }
            let h = mem.header(Oop::from_index(scan));
            let total = 2 + h.body_words();
            if raw_format_bits(h) == 0b11 {
                self.error(format!(
                    "{region}@{scan}: invalid format bits in header {:#x}",
                    h.0
                ));
                // The size field is independent of the format bits, so the
                // walk can still step over the carcass.
            }
            if scan + total > end {
                self.error(format!(
                    "{region}@{scan}: object extent {total} words overruns region end {end}"
                ));
                break;
            }
            self.check_object(region, scan, h, validate_refs);
            self.audit.objects_checked += 1;
            scan += total;
        }
    }

    fn check_object(&mut self, region: &str, idx: usize, h: Header, validate_refs: bool) {
        let mem = self.mem;
        let obj = Oop::from_index(idx);
        if h.is_forwarded() {
            self.error(format!(
                "{region}@{idx}: stale forwarding pointer (scavenge ended halfway?)"
            ));
            // The body holds a forwarding address, not slots.
            return;
        }
        let class = mem.class_of(obj);
        if validate_refs && (!self.valid_reference(class) || class.is_small_int()) {
            self.error(format!(
                "{region}@{idx}: class slot {:#x} is not a valid object reference",
                class.raw()
            ));
        }
        if raw_format_bits(h) == 0b11 {
            return; // cannot decode the format further
        }
        let format = h.format();
        let mut ptr_slots = match format {
            crate::header::ObjFormat::Pointers => {
                if h.odd_bytes() != 0 {
                    self.error(format!(
                        "{region}@{idx}: pointer object with odd_bytes={}",
                        h.odd_bytes()
                    ));
                }
                h.body_words()
            }
            crate::header::ObjFormat::Bytes => 0,
            crate::header::ObjFormat::Method => {
                if h.body_words() == 0 {
                    self.error(format!("{region}@{idx}: method with empty body"));
                    return;
                }
                let encoded = mem.fetch(obj, 0);
                if !encoded.is_small_int() {
                    self.error(format!(
                        "{region}@{idx}: method header slot is not a SmallInteger"
                    ));
                    return;
                }
                let mh = MethodHeader::decode(encoded);
                let slots = mh.pointer_slots();
                if slots > h.body_words() {
                    self.error(format!(
                        "{region}@{idx}: method literal frame ({slots} slots) exceeds body ({} words)",
                        h.body_words()
                    ));
                    0
                } else {
                    slots
                }
            }
        };
        // The first method word is the encoded (small-integer) header, not
        // a reference; it was validated by MethodHeader::decode above.
        let first_slot = if format == crate::header::ObjFormat::Method {
            1
        } else {
            0
        };
        if ptr_slots > h.body_words() {
            ptr_slots = h.body_words();
        }
        let mut refs_new_space = false;
        for i in first_slot..ptr_slots {
            let v = mem.fetch(obj, i);
            self.audit.slots_checked += 1;
            if !self.valid_reference(v) {
                if validate_refs {
                    self.error(format!(
                        "{region}@{idx}[{i}]: dangling reference {:#x}",
                        v.raw()
                    ));
                }
                continue;
            }
            if v.is_object() && v != Oop::ZERO && mem.spaces().is_new(v.index()) {
                refs_new_space = true;
            }
        }
        // Remembered-set completeness (old objects only; the flag and the
        // entry table must agree with the actual slot contents).
        let is_old_region = idx < mem.spaces().old_end;
        if is_old_region {
            if refs_new_space && !h.is_remembered() {
                self.error(format!(
                    "{region}@{idx}: old object references new space but is not remembered"
                ));
            }
            if refs_new_space && !self.entry_set.contains(&obj.raw()) {
                self.error(format!(
                    "{region}@{idx}: old object references new space but is missing from the entry table"
                ));
            }
            if h.is_remembered() && !self.entry_set.contains(&obj.raw()) {
                self.error(format!(
                    "{region}@{idx}: remembered flag set but object missing from the entry table"
                ));
            }
        } else if h.is_remembered() {
            self.error(format!(
                "{region}@{idx}: new-space object carries the remembered flag"
            ));
        }
    }

    /// Every entry-table member must be an old object flagged remembered.
    fn check_entry_table(&mut self) {
        let entries: Vec<u64> = self.entry_set.iter().copied().collect();
        for raw in entries {
            let oop = Oop::from_raw(raw);
            if !oop.is_object() || oop == Oop::ZERO {
                self.error(format!("entry table holds non-object {raw:#x}"));
                continue;
            }
            let idx = oop.index();
            if !(idx >= self.old_used.0 && idx < self.old_used.1) {
                self.error(format!("entry table holds non-old reference @{idx}"));
                continue;
            }
            if !self.mem.header(oop).is_remembered() {
                self.error(format!(
                    "entry table holds @{idx} whose remembered flag is clear"
                ));
            }
        }
    }

    /// Interned symbols live in old space as byte objects, forever.
    fn check_symbols(&mut self) {
        let mut bad: Vec<String> = Vec::new();
        self.mem.each_symbol(|sym| {
            let idx = sym.index();
            if !(idx >= self.old_used.0 && idx < self.old_used.1) {
                bad.push(format!("symbol table references non-old object @{idx}"));
            }
        });
        for msg in bad {
            self.error(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::heap::tests::bootstrap_minimal;
    use crate::heap::{MemoryConfig, ObjectMemory};
    use crate::oop::Oop;

    fn mem() -> ObjectMemory {
        let m = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&m);
        m
    }

    #[test]
    fn accepts_a_healthy_heap_through_gc_cycles() {
        let m = mem();
        let tok = m.new_token();
        let mut roots = Vec::new();
        for i in 0..64 {
            let a = m.alloc_array(&tok, i % 7 + 1).unwrap();
            if i % 3 == 0 {
                roots.push(m.new_root(a));
            }
        }
        m.verify_heap().assert_clean();
        m.scavenge();
        let audit = m.verify_heap();
        audit.assert_clean();
        assert!(audit.objects_checked > 0);
        // Cross-generation link: old object → new object must be remembered.
        let old = m.alloc_array_old(2).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        m.store(old, 0, young);
        m.verify_heap().assert_clean();
        m.scavenge();
        m.verify_heap().assert_clean();
    }

    #[test]
    fn rejects_a_corrupted_remembered_set() {
        let m = mem();
        let tok = m.new_token();
        let old = m.alloc_array_old(2).unwrap();
        let young = m.alloc_array(&tok, 1).unwrap();
        // Bypass the write barrier: the classic lost-remembered-set bug.
        m.store_nocheck(old, 0, young);
        let audit = m.verify_heap();
        assert!(!audit.is_clean());
        assert!(
            audit.errors.iter().any(|e| e.contains("not remembered")),
            "errors: {:?}",
            audit.errors
        );
    }

    #[test]
    fn rejects_a_stale_forwarding_pointer() {
        let m = mem();
        let old = m.alloc_array_old(2).unwrap();
        m.set_header(old, m.header(old).with_forwarded());
        let audit = m.verify_heap();
        assert!(!audit.is_clean());
        assert!(
            audit
                .errors
                .iter()
                .any(|e| e.contains("stale forwarding pointer")),
            "errors: {:?}",
            audit.errors
        );
    }

    #[test]
    fn lab_eden_is_walked_and_bugs_are_caught() {
        // Regression: eden used to be skipped under PerProcessorLab, so
        // the classic lost-remembered-set bug *from a LAB-carved eden
        // object's referrer* went unverified.
        let m = ObjectMemory::new(MemoryConfig {
            old_words: 64 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            alloc_policy: crate::AllocPolicy::PerProcessorLab { lab_words: 512 },
            ..MemoryConfig::default()
        });
        bootstrap_minimal(&m);
        let tok = m.new_token();
        // A healthy LAB heap walks clean, eden included.
        let young = m.alloc_array(&tok, 2).unwrap();
        let audit = m.verify_heap();
        audit.assert_clean();
        assert!(audit.objects_checked > 0);
        // Barrier-bypassing store from old into LAB eden is now caught.
        let old = m.alloc_array_old(2).unwrap();
        m.store_nocheck(old, 0, young);
        let audit = m.verify_heap();
        assert!(!audit.is_clean());
        assert!(
            audit.errors.iter().any(|e| e.contains("not remembered")),
            "errors: {:?}",
            audit.errors
        );
    }

    #[test]
    fn rejects_a_dangling_reference() {
        let m = mem();
        let old = m.alloc_array_old(2).unwrap();
        // Point into the (unused) future survivor space.
        let bogus = Oop::from_index(m.spaces().surv_b_start + 16);
        m.store_nocheck(old, 1, bogus);
        let audit = m.verify_heap();
        assert!(!audit.is_clean());
        assert!(
            audit.errors.iter().any(|e| e.contains("dangling")),
            "errors: {:?}",
            audit.errors
        );
    }
}
