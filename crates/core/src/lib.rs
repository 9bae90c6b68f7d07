//! Multiprocessor Smalltalk — the public API.
//!
//! [`MsSystem`] assembles the whole reproduction: object memory, bootstrap
//! image, and one interpreter per virtual processor, configured by
//! [`Strategies`] — the paper's serialization / replication / reorganization
//! knobs — and [`SystemState`], the four configurations of Table 2.
//!
//! ```no_run
//! use mst_core::{MsConfig, MsSystem, Value};
//!
//! let mut ms = MsSystem::new(MsConfig::default());
//! let value = ms.evaluate("3 + 4 * 2").unwrap();
//! assert_eq!(value, Value::Int(14));
//! ms.shutdown();
//! ```

use std::fmt;
use std::sync::Arc;

use mst_compiler::CompileError;
use mst_image::BootstrapError;
use mst_interp::{
    scheduler, spawn_method_process, supervise, CachePolicy, FreeListPolicy, Interpreter,
    RunOutcome, StoppedWorld, Vm, VmOptions,
};
pub use mst_interp::{ProcessorInfo, SupervisorPolicy};
pub use mst_objmem::SnapshotTemplate;
use mst_objmem::{AllocPolicy, MemoryConfig, ObjectMemory, Oop, RootHandle, SnapshotError, So};
use mst_vkernel::{spawn_lightweight, LightweightHandle, Processor, SyncMode};

pub mod env;
pub mod testing;

pub use env::RuntimeEnv;

/// The four system states measured in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemState {
    /// "Baseline BS": the interpreter before any multiprocessor support —
    /// no interlocked operations, a single interpreter.
    BaselineBs,
    /// "MS": full multiprocessor support, one busy interpreter.
    Ms,
    /// "MS with four idle Processes": four extra interpreters each running
    /// `[true] whileTrue`.
    MsIdle4,
    /// "MS with four busy Processes": four extra interpreters each running
    /// the sweep-hand-style busy loop.
    MsBusy4,
}

impl SystemState {
    /// All four states, in the paper's row order.
    pub const ALL: [SystemState; 4] = [
        SystemState::BaselineBs,
        SystemState::Ms,
        SystemState::MsIdle4,
        SystemState::MsBusy4,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            SystemState::BaselineBs => "Baseline BS on multiprocessor",
            SystemState::Ms => "MS on multiprocessor",
            SystemState::MsIdle4 => "MS with four idle Processes",
            SystemState::MsBusy4 => "MS with four busy Processes",
        }
    }

    /// Number of background competitor Processes.
    pub fn competitors(self) -> usize {
        match self {
            SystemState::BaselineBs | SystemState::Ms => 0,
            SystemState::MsIdle4 | SystemState::MsBusy4 => 4,
        }
    }
}

/// The paper's three adaptation strategies, as configuration.
///
/// Table 3 maps strategies to resources; this struct is the runtime
/// realization (reorganization has no knob — the `activeProcess` rework is
/// structural and always on, with `thisProcess`/`canRun:` primitives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategies {
    /// Baseline BS (no interlocking) or MS.
    pub sync: SyncMode,
    /// Method-lookup cache: serialized (two-level lock) or replicated.
    pub cache: CachePolicy,
    /// Free context lists: disabled, shared-locked, or replicated.
    pub free_contexts: FreeListPolicy,
    /// New-space allocation: one locked eden, or per-processor buffers
    /// (the paper's proposed "replication of the new-object space").
    pub alloc: AllocPolicy,
}

impl Default for Strategies {
    fn default() -> Self {
        Strategies {
            sync: SyncMode::Multiprocessor,
            cache: CachePolicy::Replicated,
            free_contexts: FreeListPolicy::Replicated,
            alloc: AllocPolicy::SharedEden,
        }
    }
}

impl Strategies {
    /// The baseline-BS strategy set (everything pre-multiprocessor).
    pub fn baseline() -> Strategies {
        Strategies {
            sync: SyncMode::Uniprocessor,
            ..Strategies::default()
        }
    }

    /// The paper's final MS configuration.
    pub fn ms() -> Strategies {
        Strategies::default()
    }
}

/// Full system configuration.
#[derive(Debug, Clone, Copy)]
pub struct MsConfig {
    /// Strategy knobs.
    pub strategies: Strategies,
    /// Number of virtual processors (the Firefly had five).
    pub processors: usize,
    /// Object-memory sizing.
    pub memory: MemoryConfig,
    /// Bytecodes between safepoint polls.
    pub quantum: u32,
    /// Record trace events ([`mst_telemetry::trace`]) from this system's
    /// boot on. Off by default: the disabled path is one branch on a
    /// relaxed atomic. Tracing is process-global and only ever switched
    /// on; the environment can switch it on too (README.md § Configuration
    /// has every variable and the precedence rule).
    pub trace: bool,
    /// Fault injection ([`mst_vkernel::fault`]). `None` (the default)
    /// leaves the process-global chaos registry alone; `Some` installs the
    /// given configuration at boot. Disabled injection costs one branch on
    /// a relaxed atomic per site.
    pub chaos: Option<mst_vkernel::fault::ChaosConfig>,
    /// What the processor supervisor does when a worker interpreter
    /// panics: restart it in place, degrade to the survivors (the
    /// default), or rethrow.
    pub supervisor: SupervisorPolicy,
}

impl Default for MsConfig {
    fn default() -> Self {
        MsConfig {
            strategies: Strategies::default(),
            processors: 5,
            memory: MemoryConfig::default(),
            quantum: 1024,
            trace: false,
            chaos: None,
            supervisor: SupervisorPolicy::default(),
        }
    }
}

impl MsConfig {
    /// Configuration for one of the paper's Table 2 states.
    pub fn for_state(state: SystemState) -> MsConfig {
        let strategies = match state {
            SystemState::BaselineBs => Strategies::baseline(),
            _ => Strategies::ms(),
        };
        let processors = match state {
            SystemState::BaselineBs => 1,
            _ => 5,
        };
        MsConfig {
            strategies,
            processors,
            ..MsConfig::default()
        }
    }

    /// `memory` with the sync and allocation strategies written into it:
    /// the one place [`Strategies`] is mapped onto a [`MemoryConfig`].
    pub fn memory_config(&self) -> MemoryConfig {
        MemoryConfig {
            sync: self.strategies.sync,
            alloc_policy: self.strategies.alloc,
            ..self.memory
        }
    }
}

/// A Smalltalk value, converted for Rust consumption.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SmallInteger.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// nil.
    Nil,
    /// String contents.
    Str(String),
    /// Symbol name.
    Symbol(String),
    /// Character.
    Char(char),
    /// Anything else, identified by its class name.
    Other {
        /// The value's class name.
        class_name: String,
    },
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Nil => f.write_str("nil"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Symbol(s) => write!(f, "#{s}"),
            Value::Char(c) => write!(f, "${c}"),
            Value::Other { class_name } => write!(f, "<{class_name}>"),
        }
    }
}

/// Errors from [`MsSystem::evaluate`].
#[derive(Debug)]
pub enum EvalError {
    /// The doit failed to compile.
    Compile(CompileError),
    /// The doit's process died with an `error:` report.
    Runtime(String),
    /// The doit's Process was terminated (by itself or by another Process)
    /// before it answered a value.
    Terminated,
    /// The doit outlived its deadline and was terminated.
    DeadlineExpired,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Compile(e) => write!(f, "{e}"),
            EvalError::Runtime(msg) => write!(f, "Smalltalk error: {msg}"),
            EvalError::Terminated => f.write_str("the doit's Process was terminated"),
            EvalError::DeadlineExpired => f.write_str("deadlineExpired: request budget exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<CompileError> for EvalError {
    fn from(e: CompileError) -> Self {
        EvalError::Compile(e)
    }
}

/// A compiled doit, ready for repeated execution.
#[derive(Debug, Clone)]
pub struct Prepared {
    method: RootHandle,
}

/// A running Multiprocessor Smalltalk system.
pub struct MsSystem {
    vm: Arc<Vm>,
    config: MsConfig,
    main: Interpreter,
    workers: Vec<LightweightHandle<()>>,
    background: Vec<RootHandle>,
}

impl fmt::Debug for MsSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsSystem")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MsSystem {
    /// Builds the object memory, bootstraps the image, and starts worker
    /// interpreters on processors 1..n (the main interpreter runs on the
    /// calling thread, processor 0).
    ///
    /// # Panics
    ///
    /// Panics if the bundled image sources fail to compile (a build defect,
    /// not a runtime condition).
    pub fn new(config: MsConfig) -> MsSystem {
        MsSystem::try_new(config).expect("bundled image failed to bootstrap")
    }

    /// Like [`new`](Self::new) but surfacing bootstrap errors.
    pub fn try_new(config: MsConfig) -> Result<MsSystem, BootstrapError> {
        let mem = ObjectMemory::new(config.memory_config());
        mst_image::build_image(&mem)?;
        Ok(MsSystem::boot(mem, config, RuntimeEnv::process()))
    }

    /// The one boot path: wraps a populated object memory in a VM and
    /// starts the interpreters. The only place `config.trace` and
    /// `config.chaos` are applied and the only place the environment is
    /// overlaid, by one rule — a variable that is set overrides the
    /// corresponding value for this boot.
    fn boot(mut mem: ObjectMemory, mut config: MsConfig, env: &RuntimeEnv) -> MsSystem {
        env::arm(config.trace, config.chaos);
        config.supervisor = env.supervisor_policy.unwrap_or(config.supervisor);
        mem.set_collector(env.gc_threads);
        let options = VmOptions {
            memory: *mem.config(),
            cache_policy: config.strategies.cache,
            context_policy: config.strategies.free_contexts,
            processors: config.processors,
            quantum: config.quantum,
        };
        let vm = Arc::new(Vm::with_memory(mem, options));
        if let Some(ms) = env.watchdog_ms {
            vm.rendezvous.set_watchdog(ms);
        }
        if let Some(policy) = env.watchdog_policy {
            vm.rendezvous.set_watchdog_policy(policy);
        }
        if let Some(path) = &env.watchdog_dump {
            vm.rendezvous.set_watchdog_dump(path);
        }
        let mut system = MsSystem {
            main: Interpreter::new(Arc::clone(&vm)),
            vm,
            config,
            workers: Vec::new(),
            background: Vec::new(),
        };
        system.start_workers();
        system
    }

    fn start_workers(&mut self) {
        // Baseline BS is single-threaded by definition.
        if !self.config.strategies.sync.is_mp() {
            return;
        }
        let policy = self.config.supervisor;
        for p in 1..self.config.processors {
            // Register before the thread exists: the roster must reflect
            // every processor the system has committed to, or a caller
            // polling `processors_online()` right after construction races
            // against worker startup and sees an empty roster (observable
            // on a single-core host, where the spawner wins every time).
            self.vm.roster_register(p);
            let vm = Arc::clone(&self.vm);
            let handle = spawn_lightweight(Processor(p), "interp", move || {
                supervise(vm, p, policy);
            });
            self.workers.push(handle);
        }
    }

    /// The shared VM (counters, devices, memory).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The object memory.
    pub fn mem(&self) -> &ObjectMemory {
        &self.vm.mem
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MsConfig {
        &self.config
    }

    /// Compiles and runs a Smalltalk expression sequence as a Process at
    /// user priority, returning the value of its last expression.
    ///
    /// # Errors
    ///
    /// [`EvalError::Compile`] for syntax errors; [`EvalError::Runtime`] if
    /// the Process terminated through `error:`; [`EvalError::Terminated`]
    /// if it was terminated without a value.
    pub fn evaluate(&mut self, source: &str) -> Result<Value, EvalError> {
        let prepared = self.prepare(source)?;
        self.run_prepared(&prepared)
    }

    /// Compiles a doit once for repeated execution (benchmark harnesses).
    ///
    /// # Errors
    ///
    /// [`EvalError::Compile`] for syntax errors.
    pub fn prepare(&mut self, source: &str) -> Result<Prepared, EvalError> {
        let world = self.vm.stop_world();
        let method = mst_image::compile_doit(world.mem(), source)?;
        Ok(Prepared {
            method: world.mem().new_root(method),
        })
    }

    /// Runs a [`Prepared`] doit as a fresh Process.
    ///
    /// # Errors
    ///
    /// [`EvalError::Runtime`] if the Process terminated through `error:`;
    /// [`EvalError::Terminated`] if it was terminated without a value.
    pub fn run_prepared(&mut self, prepared: &Prepared) -> Result<Value, EvalError> {
        self.run_doit(prepared, Self::value_in)
    }

    /// As [`run_prepared`](Self::run_prepared), returning a GC-tracked root
    /// so the result object stays alive and current across further runs.
    ///
    /// # Errors
    ///
    /// As [`run_prepared`](Self::run_prepared).
    pub fn run_prepared_rooted(&mut self, prepared: &Prepared) -> Result<RootHandle, EvalError> {
        self.run_doit(prepared, ObjectMemory::new_root)
    }

    /// Runs a doit to completion, crossing the rendezvous twice: once to
    /// spawn its Process and once to hand its result oop to `read`. The
    /// calling thread is not a rendezvous participant between the two, so
    /// the world is the only place it may touch the heap.
    fn run_doit<R>(
        &mut self,
        prepared: &Prepared,
        read: impl FnOnce(&ObjectMemory, Oop) -> R,
    ) -> Result<R, EvalError> {
        let process = {
            let world = self.vm.stop_world();
            let (vm, mem) = (world.vm(), world.mem());
            let token = mem.new_token();
            loop {
                let spawned = spawn_method_process(vm, &token, prepared.method.get(), mem.nil(), 5);
                if let Some(p) = spawned {
                    // Pin the doit to this interpreter before it is ready,
                    // so measurements charge the right thread and its
                    // failure is this interpreter's to report; workers will
                    // not claim it.
                    let root = mem.new_root(p);
                    vm.set_reserved(Some(root.clone()));
                    scheduler::transition(vm, p, scheduler::State::Ready);
                    break root;
                }
                // Eden is full; collect while we hold the world. A
                // collection that cannot complete (old space full) is
                // reported instead of crashing the system.
                if let Err(e) = world.scavenge() {
                    scheduler::signal_low_space(vm);
                    return Err(EvalError::Runtime(format!("outOfMemory: {e}")));
                }
            }
        };
        let doit_span = mst_telemetry::span("vm.doit", "vm");
        let outcome = self.main.run(Some(process.clone()));
        drop(doit_span);
        self.vm.set_reserved(None);
        // Only the doit's own end decides: a forked Process that died
        // meanwhile is in the error log, not in this result.
        match outcome {
            RunOutcome::Returned => {}
            RunOutcome::Failed(e) => return Err(EvalError::Runtime(e)),
            RunOutcome::DeadlineExpired => return Err(EvalError::DeadlineExpired),
            RunOutcome::Terminated => return Err(EvalError::Terminated),
            RunOutcome::Shutdown => return Err(EvalError::Runtime("VM shut down".into())),
        }
        // The watcher left the value in the Process's result slot.
        let world = self.vm.stop_world();
        let slot = mst_objmem::layout::process::RESULT;
        Ok(read(world.mem(), world.mem().fetch(process.get(), slot)))
    }

    /// Like [`evaluate`](Self::evaluate), but returns a GC-tracked root for
    /// the result so Rust code can keep the object alive across further
    /// execution (benchmark harnesses retaining object graphs).
    ///
    /// # Errors
    ///
    /// As [`evaluate`](Self::evaluate).
    pub fn evaluate_to_root(&mut self, source: &str) -> Result<RootHandle, EvalError> {
        let prepared = self.prepare(source)?;
        self.run_prepared_rooted(&prepared)
    }

    /// Converts an oop into a [`Value`], parking the interpreters while it
    /// reads the heap.
    pub fn value_of(&self, oop: Oop) -> Value {
        Self::value_in(self.vm.stop_world().mem(), oop)
    }

    /// [`value_of`](Self::value_of) for a caller that holds the stopped world.
    fn value_in(mem: &ObjectMemory, oop: Oop) -> Value {
        if oop == Oop::ZERO {
            return Value::Nil;
        }
        if oop.is_small_int() {
            return Value::Int(oop.as_small_int());
        }
        let sp = mem.specials();
        if oop == mem.nil() {
            return Value::Nil;
        }
        if oop == sp.get(So::True) {
            return Value::Bool(true);
        }
        if oop == sp.get(So::False) {
            return Value::Bool(false);
        }
        let class = mem.class_of(oop);
        if class == sp.get(So::ClassString) {
            Value::Str(mem.str_value(oop))
        } else if class == sp.get(So::ClassSymbol) {
            Value::Symbol(mem.str_value(oop))
        } else if class == sp.get(So::ClassFloat) {
            Value::Float(mem.float_value(oop))
        } else if class == sp.get(So::ClassCharacter) {
            Value::Char(mem.fetch(oop, 0).as_small_int() as u8 as char)
        } else {
            let name = mem.fetch(class, mst_objmem::layout::class::NAME);
            Value::Other {
                class_name: if name == mem.nil() {
                    "<anonymous>".to_string()
                } else {
                    mem.str_value(name)
                },
            }
        }
    }

    /// Spawns `n` background competitor Processes (`idle` = the paper's
    /// `[true] whileTrue`, else the sweep-hand busy loop). They run on the
    /// worker interpreters until [`shutdown`](Self::shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the spawn expression fails (image defect).
    pub fn spawn_competitors(&mut self, n: usize, idle: bool) {
        for _ in 0..n {
            let expr = if idle {
                "Benchmark spawnIdle"
            } else {
                "Benchmark spawnBusy"
            };
            let root = self
                .evaluate_to_root(expr)
                .expect("competitor spawn failed");
            // Keep a root so diagnostics can find the Processes.
            self.background.push(root);
        }
    }

    /// Spawns the competitors implied by a [`SystemState`].
    pub fn enter_state(&mut self, state: SystemState) {
        match state {
            SystemState::BaselineBs | SystemState::Ms => {}
            SystemState::MsIdle4 => self.spawn_competitors(4, true),
            SystemState::MsBusy4 => self.spawn_competitors(4, false),
        }
    }

    /// Number of background roots retained (diagnostics).
    pub fn background_count(&self) -> usize {
        self.background.len()
    }

    /// Writes a snapshot of the running image (paper §3.3: the
    /// `activeProcess` slot is filled around the snapshot for
    /// pre-reorganization compatibility, then emptied again). Returns the
    /// CRC-32 of the bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn save_snapshot(&self, w: &mut impl std::io::Write) -> Result<u32, SnapshotError> {
        self.snapshot_world()?.mem().save_snapshot(w)
    }

    /// The stopped world, ready to be written: eden emptied and the
    /// `activeProcess` slot cleared. An eden whose survivors old space
    /// cannot absorb is the save's failure, not a panic while the world is
    /// held: nothing is written.
    fn snapshot_world(&self) -> Result<StoppedWorld<'_>, SnapshotError> {
        let world = self.vm.stop_world();
        match world.snapshot_ready() {
            Ok(()) => Ok(world),
            Err(e) => Err(SnapshotError::io(
                "scavenge",
                0,
                std::io::Error::new(std::io::ErrorKind::OutOfMemory, e),
            )),
        }
    }

    /// Writes a crash-consistent snapshot to `path` through
    /// [`write_atomic`](mst_vkernel::io::write_atomic): the image is staged
    /// in `<path>.tmp`, fsynced, and atomically renamed into place, so a
    /// crash mid-save can never leave a torn image where a good one was,
    /// and a failed save leaves no temp file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`SnapshotError`].
    pub fn save_snapshot_file(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let world = self.snapshot_world()?;
        mst_vkernel::io::write_atomic(path, |mut w| {
            world
                .mem()
                .save_snapshot(&mut w)
                .map_err(std::io::Error::other)
        })
        .map(drop)
        .map_err(|e| SnapshotError::io("file", 0, std::io::Error::other(e)))
    }

    /// Boots a system from a snapshot file written by
    /// [`save_snapshot_file`](Self::save_snapshot_file).
    ///
    /// # Errors
    ///
    /// Propagates snapshot-format errors with section and byte offset; a
    /// file that cannot be opened is named in the error.
    pub fn from_snapshot_file(
        path: &std::path::Path,
        config: MsConfig,
    ) -> Result<MsSystem, SnapshotError> {
        MsSystem::from_snapshot(&mut mst_objmem::open_snapshot(path)?, config)
    }

    /// A copy of the supervised-processor health roster (workers only).
    pub fn processor_roster(&self) -> Vec<ProcessorInfo> {
        self.vm.processor_roster()
    }

    /// How many supervised worker processors are currently online.
    pub fn processors_online(&self) -> usize {
        self.vm.processors_online()
    }

    /// Boots a system from a snapshot instead of a fresh bootstrap. The
    /// sizes in `config.memory` must match the snapshot's.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-format errors.
    pub fn from_snapshot(
        r: &mut impl std::io::Read,
        config: MsConfig,
    ) -> Result<MsSystem, SnapshotError> {
        let (mem, ..) = ObjectMemory::load_snapshot(r, config.memory_config())?;
        Ok(MsSystem::from_memory(mem, config))
    }

    /// Boots a system on an object memory already loaded from a snapshot
    /// (`config.memory` must be the configuration it was loaded with) —
    /// for a caller that checks what it loaded before the session boots.
    pub fn from_memory(mem: ObjectMemory, config: MsConfig) -> MsSystem {
        MsSystem::boot(mem, config, RuntimeEnv::process())
    }

    /// Reads and validates a snapshot file as a reusable
    /// [`SnapshotTemplate`], applying `config`'s sync and allocation
    /// strategies to the memory configuration (as
    /// [`from_snapshot`](Self::from_snapshot) would).
    ///
    /// # Errors
    ///
    /// Propagates snapshot-format errors; a file that cannot be opened is
    /// named in the error.
    pub fn load_template(
        path: &std::path::Path,
        config: MsConfig,
    ) -> Result<SnapshotTemplate, SnapshotError> {
        SnapshotTemplate::from_path(path, config.memory_config())
    }

    /// Boots a fresh, fully independent system from a shared
    /// [`SnapshotTemplate`] — the serving layer's copy-on-load session
    /// spawn. Each call deserializes its own object memory; sessions share
    /// only the immutable image bytes.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-format errors (resource exhaustion only — the
    /// template's bytes were validated when it was built).
    pub fn from_template(
        template: &SnapshotTemplate,
        config: MsConfig,
    ) -> Result<MsSystem, SnapshotError> {
        Ok(MsSystem::from_memory(template.instantiate()?, config))
    }

    /// Runs a [`Prepared`] doit under a wall-clock deadline: if the doit has
    /// not ended when the budget expires, its watcher terminates it — at its
    /// next safepoint if it runs, at the deadline if it blocked or suspended
    /// itself. The session stays consistent (the heap passes `audit_heap`)
    /// and the expiry surfaces as [`EvalError::DeadlineExpired`].
    ///
    /// # Errors
    ///
    /// As [`run_prepared`](Self::run_prepared), plus
    /// [`EvalError::DeadlineExpired`] on budget expiry.
    pub fn run_prepared_with_deadline(
        &mut self,
        prepared: &Prepared,
        budget: std::time::Duration,
    ) -> Result<Value, EvalError> {
        let abs = mst_telemetry::now_ns().saturating_add(budget.as_nanos() as u64);
        self.vm.set_deadline_ns(abs.max(1));
        let result = self.run_prepared(prepared);
        self.vm.set_deadline_ns(0);
        result
    }

    /// Shrinks (or restores) this session's soft eden budget, in words —
    /// the graceful-degradation knob the serving layer turns under memory
    /// pressure. See [`mst_objmem::ObjectMemory::set_eden_budget`].
    pub fn set_eden_budget(&self, words: usize) {
        self.vm.mem.set_eden_budget(words);
    }

    /// Whether the VM's low-space latch is currently set (a collection
    /// recently left old space nearly full and the LowSpaceSemaphore was
    /// signalled).
    pub fn low_space(&self) -> bool {
        self.vm.low_space_latched()
    }

    /// Stops the world and scavenges (for tests and harnesses). The
    /// stopped worker interpreters are donated to the collection as
    /// scavenge helpers, up to the configured `gc_helpers`.
    ///
    /// # Panics
    ///
    /// Panics on genuine out-of-memory (old space cannot absorb the
    /// survivors even after a full collection).
    pub fn collect_garbage(&self) {
        let scavenged = self.vm.stop_world().scavenge();
        scavenged.unwrap_or_else(|e| panic!("{e}"));
    }

    /// Stops the world and runs a full mark-compact collection (for tests
    /// and harnesses). The stopped worker interpreters are donated to the
    /// mark phase as parallel helpers; the helper count adapts to the live
    /// set, so a small heap marks serially even on a big machine. Any
    /// dangling references the compactor neutralized are drained into the
    /// VM error log — the same containment surface the supervisor uses —
    /// instead of crashing the system.
    pub fn full_collect(&self) -> mst_objmem::FullGcOutcome {
        self.vm.stop_world().full_collect()
    }

    /// Stops the world and runs the heap verifier ([`mst_objmem`]'s
    /// [`HeapAudit`](mst_objmem::HeapAudit)): every reachable region is
    /// walked and headers, class pointers, slot targets, the remembered
    /// set, and the symbol table are cross-checked. The chaos soak harness
    /// calls this after each faulted run to prove the heap survived.
    pub fn audit_heap(&self) -> mst_objmem::HeapAudit {
        self.vm.stop_world().mem().verify_heap()
    }

    /// Stops every interpreter and joins the worker threads (what dropping
    /// the system does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for MsSystem {
    fn drop(&mut self) {
        self.vm.shutdown();
        for w in self.workers.drain(..) {
            w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MsConfig {
        MsConfig {
            processors: 2,
            ..MsConfig::default()
        }
    }

    #[test]
    fn arithmetic_evaluates() {
        let mut ms = MsSystem::new(small_config());
        assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
        assert_eq!(ms.evaluate("3 + 4 * 2").unwrap(), Value::Int(14));
        assert_eq!(ms.evaluate("10 // 3").unwrap(), Value::Int(3));
        assert_eq!(ms.evaluate("10 \\\\ 3").unwrap(), Value::Int(1));
        assert_eq!(ms.evaluate("2 < 3").unwrap(), Value::Bool(true));
    }

    #[test]
    fn message_sends_and_blocks() {
        let mut ms = MsSystem::new(small_config());
        assert_eq!(
            ms.evaluate("[:a :b | a * b] value: 6 value: 7").unwrap(),
            Value::Int(42)
        );
        assert_eq!(ms.evaluate("3 max: 9").unwrap(), Value::Int(9));
        assert_eq!(
            ms.evaluate("(1 to: 10) inject: 0 into: [:a :b | a + b]")
                .unwrap(),
            Value::Int(55)
        );
    }

    #[test]
    fn strings_and_print_string() {
        let mut ms = MsSystem::new(small_config());
        assert_eq!(
            ms.evaluate("'hello' , ' ' , 'world'").unwrap(),
            Value::Str("hello world".into())
        );
        assert_eq!(
            ms.evaluate("42 printString").unwrap(),
            Value::Str("42".into())
        );
        assert_eq!(
            ms.evaluate("(3 @ 4) printString").unwrap(),
            Value::Str("3@4".into())
        );
    }

    #[test]
    fn runtime_errors_surface() {
        let mut ms = MsSystem::new(small_config());
        let err = ms.evaluate("nil frobnicate").unwrap_err();
        match err {
            EvalError::Runtime(msg) => assert!(msg.contains("frobnicate"), "{msg}"),
            other => panic!("expected runtime error, got {other:?}"),
        }
        // The system still works afterwards.
        assert_eq!(ms.evaluate("1 + 1").unwrap(), Value::Int(2));
    }

    #[test]
    fn full_collect_keeps_the_system_running() {
        let mut ms = MsSystem::new(small_config());
        let root = ms.evaluate_to_root("'survives' , ' compaction'").unwrap();
        let outcome = ms.full_collect();
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        assert!(ms.audit_heap().is_clean());
        // The rooted result survived compaction and the system still runs.
        assert_eq!(
            ms.value_of(root.get()),
            Value::Str("survives compaction".into())
        );
        assert_eq!(ms.evaluate("2 + 2").unwrap(), Value::Int(4));
    }

    #[test]
    fn an_env_override_replaces_its_value_on_a_template_boot_and_nothing_else() {
        let config = small_config();
        let mut image = Vec::new();
        MsSystem::new(config).save_snapshot(&mut image).unwrap();
        let template = SnapshotTemplate::from_bytes(image, config.memory_config()).unwrap();
        let env = RuntimeEnv {
            gc_threads: Some(3),
            supervisor_policy: Some(SupervisorPolicy::Restart),
            ..RuntimeEnv::default()
        };
        let mut ms = MsSystem::boot(template.instantiate().unwrap(), config, &env);
        let memory = MemoryConfig {
            gc_helpers: 3,
            ..template.config()
        };
        assert_eq!(*ms.mem().config(), memory);
        assert_eq!(ms.vm().options.memory, memory);
        let expected = MsConfig {
            supervisor: SupervisorPolicy::Restart,
            ..config
        };
        assert_eq!(format!("{:?}", ms.config()), format!("{expected:?}"));
        assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    }

    #[test]
    fn compile_errors_surface() {
        let mut ms = MsSystem::new(small_config());
        assert!(matches!(ms.evaluate("3 + "), Err(EvalError::Compile(_))));
    }
}
