//! The Multiprocessor Smalltalk bytecode interpreter.
//!
//! Rebuilds the execution engine of the paper's system: replicated
//! interpreters (one lightweight process per virtual processor) running
//! Blue-Book-flavoured bytecodes over the shared object memory, with
//!
//! * **serialized** scheduling (one ready queue under a spin-lock), entry
//!   tables, allocation and devices;
//! * **replicated** interpreters, method-lookup caches
//!   ([`CachePolicy::Replicated`], with the paper's contended serialized
//!   variant kept for the ablation) and free-context lists
//!   ([`FreeListPolicy`]);
//! * the **reorganized** ProcessorScheduler: running Processes stay in the
//!   ready queue with a claim flag, `activeProcess` is ignored at run time,
//!   and `thisProcess`/`canRun:` primitives replace it (paper §3.3).
//!
//! The crate also hosts the pieces the interpreter and image bootstrap
//! share: heap dictionaries ([`dicts`]), class construction ([`classes`]),
//! method installation ([`install`]), and the scheduler ([`scheduler`]).

pub mod cache;
pub mod classes;
pub mod contexts;
pub mod dicts;
pub mod install;
mod interp;
pub mod primitives;
pub mod scheduler;
mod supervisor;
mod vm;
mod world;

pub use interp::{spawn_method_process, Interpreter, RunOutcome};
pub use supervisor::{supervise, SupervisorPolicy};
pub use vm::{CachePolicy, FreeListPolicy, ProcessorInfo, Vm, VmCounters, VmOptions};
pub use world::StoppedWorld;
