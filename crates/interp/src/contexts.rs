//! Free-context lists.
//!
//! "The free context list serves as an optimization of the memory allocation
//! process for Smalltalk stack frames, or Contexts. BS maintains a list of
//! unused stack frames, because it is more efficient to reuse one than to
//! allocate and initialize a new one." (paper §3.2.)
//!
//! A free list holds the oops of dead contexts in a vector owned by its
//! interpreter (or, under the serialized policy, by the VM). The lists are
//! *cleared* (not traced) at every collection — dead contexts are garbage
//! by definition — via the GC-epoch stamp.

use mst_objmem::layout::{block_ctx, ctx_size, method_ctx};
use mst_objmem::{ObjectMemory, Oop};

/// Which free list a context belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxKind {
    /// Small MethodContext.
    MethodSmall,
    /// Large MethodContext.
    MethodLarge,
    /// Small BlockContext.
    BlockSmall,
    /// Large BlockContext.
    BlockLarge,
}

impl CtxKind {
    /// Body size in slots for this kind.
    pub fn body_slots(self) -> usize {
        match self {
            CtxKind::MethodSmall => ctx_size::SMALL_METHOD_CTX,
            CtxKind::MethodLarge => ctx_size::LARGE_METHOD_CTX,
            CtxKind::BlockSmall => ctx_size::SMALL_BLOCK_CTX,
            CtxKind::BlockLarge => ctx_size::LARGE_BLOCK_CTX,
        }
    }

    fn index(self) -> usize {
        match self {
            CtxKind::MethodSmall => 0,
            CtxKind::MethodLarge => 1,
            CtxKind::BlockSmall => 2,
            CtxKind::BlockLarge => 3,
        }
    }
}

/// Four LIFO lists of recyclable contexts, one per [`CtxKind`].
///
/// The lists are plain vectors of oops: pushing writes nothing into the
/// context (a returning frame's `sender` is already nil) and popping reads
/// nothing from the heap, so a recycled context is linked to nothing and a
/// stale reference to one keeps only that context alive.
#[derive(Debug, Default)]
pub struct FreeLists {
    lists: [Vec<Oop>; 4],
    /// GC epoch the list contents are valid for.
    pub epoch: u64,
}

impl FreeLists {
    /// Empties every list and stamps a new epoch. Capacity is kept, so a
    /// warm list does not reallocate after a collection.
    pub fn clear(&mut self, epoch: u64) {
        for list in &mut self.lists {
            list.clear();
        }
        self.epoch = epoch;
    }

    /// The lists as valid for GC epoch `epoch`: emptied and restamped first
    /// if they hold contexts from before a collection.
    #[inline]
    pub fn valid_at(&mut self, epoch: u64) -> &mut FreeLists {
        if self.epoch != epoch {
            self.clear(epoch);
        }
        self
    }

    /// Pops a context of the given kind, if one is available.
    #[inline]
    pub fn pop(&mut self, kind: CtxKind) -> Option<Oop> {
        self.lists[kind.index()].pop()
    }

    /// Pushes a dead context for reuse.
    #[inline]
    pub fn push(&mut self, kind: CtxKind, ctx: Oop) {
        self.lists[kind.index()].push(ctx);
    }

    /// Number of contexts currently on the given list.
    pub fn len(&self, kind: CtxKind) -> usize {
        self.lists[kind.index()].len()
    }

    /// Whether every list is empty.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }
}

/// Re-initializes a recycled (or fresh) method context's fixed slots.
///
/// Temp and stack slots above the arguments are nilled so stale contents
/// from the previous activation can never leak into the new one.
pub fn reinit_method_ctx(
    mem: &ObjectMemory,
    ctx: Oop,
    sender: Oop,
    method: Oop,
    receiver: Oop,
    num_temps: usize,
) {
    let nil = mem.nil();
    mem.store(ctx, method_ctx::SENDER, sender);
    mem.store_nocheck(ctx, method_ctx::PC, Oop::from_small_int(0));
    mem.store_nocheck(ctx, method_ctx::STACKP, Oop::from_small_int(0));
    mem.store(ctx, method_ctx::METHOD, method);
    mem.store(ctx, method_ctx::RECEIVER, receiver);
    let body = mem.header(ctx).body_words();
    for i in method_ctx::STACK_START..method_ctx::STACK_START + num_temps {
        mem.store_nocheck(ctx, i, nil);
    }
    // Slots beyond the temps are logically empty; nil the remainder too so
    // the GC never traces stale oops from a previous activation.
    for i in method_ctx::STACK_START + num_temps..body {
        mem.store_nocheck(ctx, i, nil);
    }
}

/// Re-initializes a block context's fixed slots.
pub fn reinit_block_ctx(mem: &ObjectMemory, ctx: Oop, nargs: usize, initial_pc: usize, home: Oop) {
    let nil = mem.nil();
    mem.store_nocheck(ctx, block_ctx::CALLER, nil);
    mem.store_nocheck(ctx, block_ctx::PC, Oop::from_small_int(initial_pc as i64));
    mem.store_nocheck(ctx, block_ctx::STACKP, Oop::from_small_int(0));
    mem.store_nocheck(ctx, block_ctx::NARGS, Oop::from_small_int(nargs as i64));
    mem.store_nocheck(
        ctx,
        block_ctx::INITIAL_PC,
        Oop::from_small_int(initial_pc as i64),
    );
    mem.store(ctx, block_ctx::HOME, home);
    let body = mem.header(ctx).body_words();
    for i in block_ctx::STACK_START..body {
        mem.store_nocheck(ctx, i, nil);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_objmem::{MemoryConfig, ObjFormat, So};

    fn mem_with_ctx_classes() -> ObjectMemory {
        let mem = ObjectMemory::new(MemoryConfig {
            old_words: 32 << 10,
            eden_words: 16 << 10,
            survivor_words: 8 << 10,
            ..MemoryConfig::default()
        });
        let nil = mem
            .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
            .unwrap();
        mem.specials().set(So::Nil, nil);
        for which in [So::ClassMethodContext, So::ClassBlockContext] {
            let c = mem
                .allocate_old(Oop::ZERO, ObjFormat::Pointers, 8, 0)
                .unwrap();
            mem.specials().set(which, c);
        }
        mem
    }

    fn new_ctx(mem: &ObjectMemory, kind: CtxKind) -> Oop {
        let class = match kind {
            CtxKind::MethodSmall | CtxKind::MethodLarge => {
                mem.specials().get(So::ClassMethodContext)
            }
            _ => mem.specials().get(So::ClassBlockContext),
        };
        let tok = mem.new_token();
        mem.allocate(&tok, class, ObjFormat::Pointers, kind.body_slots(), 0)
            .unwrap()
    }

    #[test]
    fn push_pop_lifo() {
        let mem = mem_with_ctx_classes();
        let mut fl = FreeLists::default();
        let a = new_ctx(&mem, CtxKind::MethodSmall);
        let b = new_ctx(&mem, CtxKind::MethodSmall);
        fl.push(CtxKind::MethodSmall, a);
        fl.push(CtxKind::MethodSmall, b);
        assert_eq!(fl.len(CtxKind::MethodSmall), 2);
        assert_eq!(fl.pop(CtxKind::MethodSmall), Some(b));
        assert_eq!(fl.pop(CtxKind::MethodSmall), Some(a));
        assert_eq!(fl.pop(CtxKind::MethodSmall), None);
        assert_eq!(fl.len(CtxKind::MethodSmall), 0, "both were handed out");
    }

    #[test]
    fn lists_are_kind_separated() {
        let mem = mem_with_ctx_classes();
        let mut fl = FreeLists::default();
        let m = new_ctx(&mem, CtxKind::MethodSmall);
        fl.push(CtxKind::MethodSmall, m);
        assert_eq!(fl.pop(CtxKind::BlockSmall), None);
        assert_eq!(fl.pop(CtxKind::MethodLarge), None);
        assert!(!fl.is_empty());
        assert_eq!(fl.pop(CtxKind::MethodSmall), Some(m));
        assert!(fl.is_empty());
    }

    #[test]
    fn clear_resets_epoch_and_contents() {
        let mem = mem_with_ctx_classes();
        let mut fl = FreeLists::default();
        fl.push(CtxKind::BlockLarge, new_ctx(&mem, CtxKind::BlockLarge));
        fl.clear(5);
        assert!(fl.is_empty());
        assert_eq!(fl.epoch, 5);
    }

    /// Contexts recycled onto a free list in **old space** are garbage once
    /// the list is dropped, and one stale reference to one of them (say a
    /// dead slot above a live context's stack pointer, which the collector
    /// traces conservatively) must keep only that context alive: the list
    /// links nothing through the heap.
    #[test]
    fn severed_free_list_chains_are_reclaimed_by_full_gc() {
        let mem = mem_with_ctx_classes();
        let ctx_words = 2 + CtxKind::MethodSmall.body_slots();
        // A live old object that will hold the stale reference. Compaction
        // moves it, so re-fetch it through the root handle.
        let root = mem.new_root(mem.alloc_array_old(1).unwrap());
        mem.full_gc();
        let used_baseline = mem.old_used();

        let mut fl = FreeLists::default();
        fl.clear(mem.gc_epoch());
        let class = mem.specials().get(So::ClassMethodContext);
        let mut pushed = Vec::new();
        for _ in 0..8 {
            let ctx = mem
                .allocate_old(
                    class,
                    ObjFormat::Pointers,
                    CtxKind::MethodSmall.body_slots(),
                    0,
                )
                .unwrap();
            fl.push(CtxKind::MethodSmall, ctx);
            pushed.push(ctx);
        }
        for &ctx in &pushed {
            assert_eq!(mem.fetch(ctx, method_ctx::SENDER), mem.nil());
        }
        // The newest push: were the list chained through `sender`, it would
        // be the chain's head and hold every other context alive.
        mem.store_nocheck(root.get(), 0, pushed[7]);
        mem.full_gc();
        assert_ne!(
            fl.epoch,
            mem.gc_epoch(),
            "the collection invalidated the list"
        );
        assert_eq!(
            mem.old_used(),
            used_baseline + ctx_words,
            "only the referenced context survives"
        );
    }

    #[test]
    fn reinit_clears_stale_slots() {
        let mem = mem_with_ctx_classes();
        let c = new_ctx(&mem, CtxKind::MethodSmall);
        let junk = new_ctx(&mem, CtxKind::MethodSmall);
        mem.store_nocheck(c, method_ctx::STACK_START + 3, junk);
        reinit_method_ctx(&mem, c, mem.nil(), mem.nil(), mem.nil(), 2);
        assert_eq!(mem.fetch(c, method_ctx::STACK_START + 3), mem.nil());
        assert_eq!(mem.fetch(c, method_ctx::PC).as_small_int(), 0);
    }
}
