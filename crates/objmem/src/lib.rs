//! Berkeley-Smalltalk-style object memory for Multiprocessor Smalltalk.
//!
//! This crate rebuilds the storage system described in the paper (§2, §3.1):
//! a single shared address space holding tagged direct object pointers (no
//! object table), managed by **Generation Scavenging** with an **entry
//! table** (remembered set), serialized pointer-bump **allocation**, and a
//! sliding **mark-compact** full collector for tenured garbage.
//!
//! The paper's three adaptation strategies appear here as:
//!
//! * **serialization** — the allocation lock, the entry-table lock, and the
//!   stop-the-world discipline for scavenging (the caller stops the world
//!   through [`mst_vkernel::Rendezvous`]; in a running system that caller
//!   is always `mst_interp::StoppedWorld`, the one owner of every collector
//!   entry point below; see [`ObjectMemory::scavenge`]);
//! * **replication** — [`AllocPolicy::PerProcessorLab`], the per-processor
//!   new-space allocation areas the paper proposes as future work;
//! * **reorganization** — not needed at this layer.
//!
//! # Example
//!
//! ```
//! use mst_objmem::{MemoryConfig, ObjectMemory, Oop};
//!
//! let mem = ObjectMemory::new(MemoryConfig::default());
//! // (A real system bootstraps an image; see the `mst-image` crate.)
//! let nil = mem.allocate_old(Oop::ZERO, mst_objmem::ObjFormat::Pointers, 0, 0).unwrap();
//! mem.specials().set(mst_objmem::So::Nil, nil);
//! let tok = mem.new_token();
//! let arr = mem.alloc_array(&tok, 3).unwrap();
//! assert_eq!(mem.fetch(arr, 0), nil);
//! ```

mod fullgc;
mod header;
mod heap;
pub mod layout;
mod method;
mod oop;
mod scavenge;
mod snapshot;
mod special;
mod steal;
mod verify;

pub use fullgc::{DanglingRef, DanglingSlot, FullGcOutcome, FullGcReport};
pub use header::{Header, ObjFormat, MAX_AGE, MAX_BODY_WORDS};
pub use heap::{
    AllocPolicy, AllocToken, GcStats, MemoryConfig, ObjectMemory, OomError, RootHandle, Spaces,
};
pub use method::MethodHeader;
pub use oop::Oop;
pub use scavenge::ScavengeOutcome;
pub use snapshot::{open_snapshot, SnapshotError, SnapshotErrorKind, SnapshotTemplate};
pub use special::{So, SpecialObjects, SPECIAL_COUNT};
pub use verify::HeapAudit;
