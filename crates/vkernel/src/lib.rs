//! V-kernel-style substrate for Multiprocessor Smalltalk.
//!
//! The paper's Smalltalk interpreter ran as a set of *lightweight processes*
//! (threads sharing one address space) on the V distributed kernel, which
//! supplied spin-locks built on the microVAX interlocked test-and-set
//! instruction, a `Delay` operation used as spin back-off, and a
//! message-passing IPC facility used to synchronize garbage collection.
//!
//! This crate rebuilds that substrate on the host OS:
//!
//! * [`SpinLock`] / [`SpinMutex`] — test-and-set spin-locks with the paper's
//!   "Delay with a minimal timeout" back-off ([`delay`]), plus contention
//!   statistics used by the instrumentation the paper lists as future work.
//! * [`SyncMode`] — the single switch distinguishing *baseline BS* (locks
//!   compiled to no-ops, uniprocessor only) from *MS* (real interlocked
//!   operations). This is how the harness measures the paper's "static cost"
//!   of the multiprocessor support.
//! * [`Processor`] and [`spawn_lightweight`] — V lightweight processes
//!   mapped onto OS threads, one per virtual processor of the simulated
//!   Firefly.
//! * [`Rendezvous`] — the "global flag + IPC" stop-the-world mechanism used
//!   to serialize scavenging.
//! * [`io`] — the serialized input-event queue and display-controller
//!   command queue (with a small BitBlt framebuffer) that the busy
//!   background Process contends for, and [`io::write_atomic`], the one
//!   temp + fsync + rename writer every durable file goes through.
//! * [`SplitMix64`] — a deterministic in-tree PRNG for synthetic workloads
//!   and the property-test harness, part of the hermetic-build policy
//!   (no external crates anywhere in the workspace).
//! * [`fault`] — seeded chaos injection points (lock delays, safepoint
//!   stalls, spurious wakeups, allocation failures, plus opt-in
//!   thread-kill and torn-write sites) the substrate consults at its
//!   fragile moments; a relaxed-atomic no-op when disarmed.
//! * [`crc`] — in-tree CRC-32 used by the checksummed snapshot format.
//!
//! # Example
//!
//! ```
//! use mst_vkernel::{SpinMutex, SyncMode};
//!
//! let counter = SpinMutex::new(SyncMode::Multiprocessor, 0u64);
//! *counter.lock() += 1;
//! assert_eq!(*counter.lock(), 1);
//! ```

pub mod crc;
pub mod fault;
pub mod io;
mod prng;
mod process;
mod rendezvous;
mod spinlock;

pub use prng::SplitMix64;
pub use process::{delay, spawn_lightweight, LightweightHandle, Processor, ProcessorSet};
pub use rendezvous::{Participant, ParticipantId, Rendezvous, RendezvousGuard, WatchdogPolicy};
pub use spinlock::{SpinGuard, SpinLock, SpinMutex, SpinMutexGuard, SyncMode};
