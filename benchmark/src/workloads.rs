//! The systems under test and their closed loops.
//!
//! Two shapes cover the five workloads: [`Solo`] is one caller driving one
//! `MsSystem` (`macro_solo`, `macro_contended`, `gc_churn`); [`Fleet`] is
//! `C` client threads driving one `mst_serve::Server` (`serve_steady`,
//! `serve_checkpoint`). Every loop is closed: a caller issues its next op
//! only after the previous one answered.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mst_core::{MsConfig, MsSystem, Prepared, Strategies, Value};
use mst_objmem::{MemoryConfig, RootHandle, SnapshotTemplate, So};
use mst_serve::{CheckpointPolicy, RecoverySource, ServeConfig, Server};
use mst_telemetry::{timeline, GcPause};

use crate::gen::{Op, OpStream, SplitMix64, CHURN_MAX, CHURN_MIN};
use crate::spans::Recorder;
use crate::spec::{Sizing, Workload, MACRO_SELECTORS, MACRO_SPANS, SERVE_DOITS};
use crate::sys::{process_cpu_ns, thread_cpu_ns};

/// How many results `gc_churn` keeps alive: the newest this many, so every
/// result tenures and later becomes old garbage.
const CHURN_RETAINED: usize = 150;
/// Slots of each element Array a `gc_churn` doit allocates.
const CHURN_ELEMENT_SLOTS: usize = 14;
/// A serve tenant checkpoints after this many successful requests.
const CHECKPOINT_EVERY: u64 = 50;
/// A probed serve run replays one request in this many on a side session.
const REPLAY_ONE_IN: u64 = 100;
/// A probed run drains the runtime's bounded pause log this often (ops).
const DRAIN_EVERY: u64 = 64;
/// Timeline slots of the serve clients (clear of the sessions' processors).
const CLIENT_PROC_BASE: usize = 8;

/// The answers every op is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// printString of each Table 2 selector's answer, in selector order.
    pub macros: [String; 8],
    /// printString of each serve doit's answer.
    pub doits: [String; 4],
}

impl Expected {
    /// The committed fixtures: `expected/macro.txt` and the hand-written
    /// doit answers in [`SERVE_DOITS`].
    pub fn committed() -> Expected {
        Expected::parse(include_str!("../expected/macro.txt"))
            .expect("expected/macro.txt names every selector once")
    }

    /// Parses `selector answer` lines (`#` starts a comment).
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut macros: [Option<String>; 8] = Default::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (sel, answer) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("no answer on line {line:?}"))?;
            let idx = MACRO_SELECTORS
                .iter()
                .position(|s| *s == sel)
                .ok_or_else(|| format!("unknown selector {sel:?}"))?;
            if macros[idx].replace(answer.trim().to_string()).is_some() {
                return Err(format!("{sel} listed twice"));
            }
        }
        let mut out = Vec::with_capacity(8);
        for (sel, answer) in MACRO_SELECTORS.iter().zip(macros) {
            out.push(answer.ok_or_else(|| format!("{sel} missing"))?);
        }
        Ok(Expected {
            macros: out.try_into().expect("eight selectors"),
            doits: SERVE_DOITS.map(|(_, answer)| answer.to_string()),
        })
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunParams {
    pub workload: Workload,
    pub seed: u64,
    pub sizing: Sizing,
    pub expected: Expected,
    /// Directory for files a workload writes (checkpoints), inside the
    /// checkout.
    pub scratch: PathBuf,
}

/// The session configuration of a workload.
pub fn config(workload: Workload, sizing: Sizing) -> MsConfig {
    let (processors, memory) = match workload {
        Workload::MacroSolo | Workload::MacroContended => {
            (sizing.processors, MemoryConfig::default())
        }
        // A small heap, so collections happen on their own within a window.
        Workload::GcChurn => (
            sizing.processors,
            MemoryConfig {
                eden_words: 64 << 10,
                survivor_words: 32 << 10,
                old_words: 1 << 20,
                ..MemoryConfig::default()
            },
        ),
        // Small sessions that coexist, as `crates/bench --bin serve`, but
        // with half its old space: every request leaves a compiled method
        // behind, and a tenant must fill old space and collect it several
        // times inside one window or memory and checkpoint size would
        // measure how far the first fill got.
        Workload::ServeSteady | Workload::ServeCheckpoint => (
            2,
            MemoryConfig {
                old_words: 256 << 10,
                eden_words: 64 << 10,
                survivor_words: 24 << 10,
                ..MemoryConfig::default()
            },
        ),
    };
    MsConfig {
        strategies: Strategies::ms(),
        processors,
        memory,
        ..MsConfig::default()
    }
}

/// The sources a workload compiles (the `compiler.*` rows time these).
pub fn sources(workload: Workload) -> Vec<String> {
    match workload {
        Workload::MacroSolo | Workload::MacroContended => MACRO_SELECTORS
            .iter()
            .map(|s| format!("Benchmark {s}"))
            .collect(),
        Workload::GcChurn => (CHURN_MIN..=CHURN_MAX).map(churn_source).collect(),
        Workload::ServeSteady | Workload::ServeCheckpoint => {
            SERVE_DOITS.iter().map(|(s, _)| s.to_string()).collect()
        }
    }
}

fn churn_source(n: u16) -> String {
    format!(
        "| a | a := Array new: {n}. \
         1 to: {n} do: [:i | a at: i put: (Array new: {CHURN_ELEMENT_SLOTS})]. a"
    )
}

/// What a probed caller collects besides its latencies.
#[derive(Debug, Default)]
pub struct Probe {
    pub rec: Recorder,
    /// Every GC pause of the window, drained from the runtime's bounded log.
    pub pauses: Vec<GcPause>,
    /// Pauses the runtime's log dropped before the driver drained them.
    pub pauses_dropped: u64,
    /// Caller CPU spent in each Table 2 selector.
    pub macro_cpu_ns: [u64; 8],
}

impl Probe {
    fn drain_pauses(&mut self, op: u32) {
        self.rec.begin("driver.drain", op);
        let (pauses, dropped) = mst_telemetry::pauselog::snapshot();
        mst_telemetry::pauselog::clear();
        self.pauses.extend(pauses);
        self.pauses_dropped += dropped;
        self.rec.end();
    }
}

/// One timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall latency of every op, in completion order per caller.
    pub wall_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Window start to the last op's end (the longest caller).
    pub window_ns: u64,
    /// CPU of the calling threads, GC done on them included.
    pub caller_cpu_ns: u64,
    /// CPU of every thread of the process.
    pub process_cpu_ns: u64,
    /// One per caller, probed runs only.
    pub probes: Vec<Probe>,
    /// Requests replayed on the side session (probed serve runs).
    pub side_ops: u64,
}

impl Window {
    fn record(&mut self, wall_ns: u64, result: Result<(), String>) {
        self.wall_ns.push(wall_ns);
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn absorb(&mut self, other: Window) {
        self.wall_ns.extend(other.wall_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
        self.window_ns = self.window_ns.max(other.window_ns);
        self.caller_cpu_ns += other.caller_cpu_ns;
        self.process_cpu_ns = self.process_cpu_ns.max(other.process_cpu_ns);
        self.probes.extend(other.probes);
        self.side_ops += other.side_ops;
    }
}

fn check(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} answered {got}, expected {want}"))
    }
}

// ---------------------------------------------------------------------
// Solo: one caller, one MsSystem
// ---------------------------------------------------------------------

pub struct Solo {
    ms: MsSystem,
    /// Macro: one per selector. Churn: one per element count.
    prepared: Vec<Prepared>,
    retained: VecDeque<RootHandle>,
}

impl Solo {
    fn setup(p: &RunParams) -> Solo {
        let mut ms = MsSystem::new(config(p.workload, p.sizing));
        let prepared = sources(p.workload)
            .iter()
            .map(|src| ms.prepare(src).expect("workload source compiles"))
            .collect();
        if p.workload == Workload::MacroContended {
            ms.spawn_competitors(p.sizing.processors.saturating_sub(1), false);
        }
        let mut solo = Solo {
            ms,
            prepared,
            retained: VecDeque::with_capacity(CHURN_RETAINED + 1),
        };
        // Warm-up on a fixed stream: caches fill, competitors get claimed,
        // and gc_churn reaches its steady state of a full retained set.
        let warmup = if p.workload == Workload::GcChurn {
            CHURN_RETAINED + 50
        } else {
            3
        };
        let mut stream = OpStream::new(p.workload, 0, 0, 1);
        for _ in 0..warmup {
            // Answers are judged in the timed window, not here.
            let _ = solo.do_op(stream.next_op(), &p.expected, None, 0);
        }
        solo
    }

    fn do_op(
        &mut self,
        op: Op,
        expected: &Expected,
        mut probe: Option<&mut Probe>,
        op_id: u32,
    ) -> Result<(), String> {
        match op {
            Op::Sweep(order) => {
                let mut result = Ok(());
                for i in order.map(usize::from) {
                    let cpu0 = probe.as_deref_mut().map(|pr| {
                        pr.rec.begin(MACRO_SPANS[i], op_id);
                        thread_cpu_ns()
                    });
                    let answer = self.ms.run_prepared(&self.prepared[i]);
                    if let (Some(pr), Some(cpu0)) = (probe.as_deref_mut(), cpu0) {
                        pr.macro_cpu_ns[i] += thread_cpu_ns() - cpu0;
                        pr.rec.end();
                    }
                    let checked = match answer {
                        Ok(v) => check(MACRO_SELECTORS[i], &v.to_string(), &expected.macros[i]),
                        Err(e) => Err(format!("{}: {e}", MACRO_SELECTORS[i])),
                    };
                    result = result.and(checked);
                }
                result
            }
            Op::Churn(n) => {
                if let Some(pr) = probe.as_deref_mut() {
                    pr.rec.begin("core.run_prepared_rooted", op_id);
                }
                let answer = self
                    .ms
                    .run_prepared_rooted(&self.prepared[usize::from(n - CHURN_MIN)]);
                if let Some(pr) = probe.as_deref_mut() {
                    pr.rec.end();
                    pr.rec.begin("driver.verify", op_id);
                }
                let checked = match answer {
                    Ok(root) => {
                        let shape = self.churn_shape(&root);
                        self.retained.push_back(root);
                        if self.retained.len() > CHURN_RETAINED {
                            self.retained.pop_front();
                        }
                        check(
                            "gc_churn doit",
                            &shape,
                            &format!("Array[{n}] of Array[{CHURN_ELEMENT_SLOTS}]"),
                        )
                    }
                    Err(e) => Err(format!("gc_churn doit: {e}")),
                };
                if let Some(pr) = probe {
                    pr.rec.end();
                }
                checked
            }
            Op::Request { .. } => unreachable!("requests go to a Fleet"),
        }
    }

    /// Describes a churn result as `Array[n] of Array[m]`, reading the heap
    /// with the world stopped (a worker may scavenge at any other time).
    fn churn_shape(&self, root: &RootHandle) -> String {
        let me = self.ms.vm().rendezvous.participant();
        let guard = me.stop_world();
        let mem = self.ms.mem();
        let array_class = mem.specials().get(So::ClassArray);
        let describe = |oop| {
            if !mem.is_new(oop) && !mem.is_old(oop) {
                "a non-object".to_string()
            } else if mem.class_of(oop) == array_class {
                format!("Array[{}]", mem.header(oop).body_words())
            } else {
                "a non-Array".to_string()
            }
        };
        let outer = root.get();
        let mut shape = describe(outer);
        if shape.starts_with("Array[") && mem.header(outer).body_words() > 0 {
            let last = mem.fetch(outer, mem.header(outer).body_words() - 1);
            shape = format!("{shape} of {}", describe(last));
        }
        drop(guard);
        shape
    }

    fn run(&mut self, p: &RunParams, window: Duration, probed: bool) -> Window {
        // Inert unless the runtime's timelines are switched on.
        let _session = probed.then(|| timeline::register(0));
        let mut probe = probed.then(Probe::default);
        let mut stream = OpStream::new(p.workload, p.seed, 0, 1);
        let mut w = Window::default();
        let (process0, caller0, t0) = (process_cpu_ns(), thread_cpu_ns(), Instant::now());
        while t0.elapsed() < window {
            let op = stream.next_op();
            let op_id = w.attempted as u32;
            let start = Instant::now();
            if let Some(pr) = &mut probe {
                pr.rec.begin("op", op_id);
            }
            let result = self.do_op(op, &p.expected, probe.as_mut(), op_id);
            if let Some(pr) = &mut probe {
                pr.rec.end();
            }
            w.record(start.elapsed().as_nanos() as u64, result);
            if let Some(pr) = &mut probe {
                if w.attempted % DRAIN_EVERY == 0 {
                    pr.drain_pauses(op_id);
                }
            }
        }
        w.window_ns = t0.elapsed().as_nanos() as u64;
        w.caller_cpu_ns = thread_cpu_ns() - caller0;
        w.process_cpu_ns = process_cpu_ns() - process0;
        if let Some(mut pr) = probe {
            pr.drain_pauses(w.attempted as u32);
            w.probes.push(pr);
        }
        w
    }
}

// ---------------------------------------------------------------------
// Fleet: C clients, one Server of T tenants
// ---------------------------------------------------------------------

pub struct Fleet {
    server: Server,
    template: SnapshotTemplate,
    base: MsConfig,
    cfg: ServeConfig,
    tenants: usize,
    clients: usize,
    /// Mean first-request latency of a cold tenant, in milliseconds.
    cold_start_ms: f64,
    /// A session of the same template, outside the server, on which the
    /// probed run replays sampled requests to see inside them.
    side: Option<MsSystem>,
}

/// What [`System::finish`] learned after the window.
#[derive(Debug, Default)]
pub struct Finish {
    /// Failed post-window checks; any entry fails the run.
    pub errors: Vec<String>,
    pub audit_clean: bool,
    pub recover_ms: f64,
    pub ckpt_image_kb: f64,
}

impl Fleet {
    fn setup(p: &RunParams, probed: bool) -> Fleet {
        let base = config(p.workload, p.sizing);
        let image = {
            let ms = MsSystem::new(base);
            let mut bytes = Vec::new();
            ms.save_snapshot(&mut bytes)
                .expect("template snapshot saves");
            ms.shutdown();
            bytes
        };
        // As `MsSystem::load_template`: the strategies decide the memory's
        // sync mode and allocation policy.
        let memory = MemoryConfig {
            sync: base.strategies.sync,
            alloc_policy: base.strategies.alloc,
            ..base.memory
        };
        let template = SnapshotTemplate::from_bytes(image, memory).expect("template validates");
        let checkpointing = p.workload == Workload::ServeCheckpoint;
        if checkpointing {
            // A fresh store: epochs of an earlier set-up must not leak in.
            let _ = std::fs::remove_dir_all(&p.scratch);
        }
        let cfg = ServeConfig {
            processors: base.processors,
            deadline: Duration::from_secs(2),
            queue_cap: 8,
            queue_wait_limit: Duration::from_secs(1),
            checkpoint_dir: checkpointing.then(|| p.scratch.clone()),
            checkpoint: CheckpointPolicy {
                every_requests: checkpointing.then_some(CHECKPOINT_EVERY),
                on_degrade: false,
            },
            ..ServeConfig::default()
        };
        let tenants = p.sizing.clients;
        let server = Server::new(template.clone(), base, cfg.clone(), tenants);
        // Cold starts (template instantiation + worker start), then every
        // doit once per tenant, all outside the timed window.
        let mut cold_ns = 0u128;
        for t in 0..tenants {
            let t0 = Instant::now();
            server.request(t, "3 + 4").expect("cold-start doit");
            cold_ns += t0.elapsed().as_nanos();
            for (src, _) in SERVE_DOITS {
                server.request(t, src).expect("warm-up doit");
            }
        }
        // One processor: no worker thread, so the side session adds no
        // runnable thread to a host sized for the clients alone.
        let side = probed.then(|| {
            MsSystem::from_template(
                &template,
                MsConfig {
                    processors: 1,
                    ..base
                },
            )
            .expect("template was validated")
        });
        Fleet {
            server,
            template,
            base,
            cfg,
            tenants,
            clients: p.sizing.clients,
            cold_start_ms: cold_ns as f64 / 1e6 / tenants as f64,
            side,
        }
    }

    fn run(&mut self, p: &RunParams, window: Duration, probed: bool) -> Window {
        let server = &self.server;
        let tenants = self.tenants;
        let mut side = self.side.as_mut();
        let start = Barrier::new(self.clients + 1);
        let end = Barrier::new(self.clients + 1);
        // Process CPU at window start, read before the clients are released
        // and published to them by the start barrier.
        let process0 = AtomicU64::new(0);
        let mut total = Window::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let side = if c == 0 { side.take() } else { None };
                    let (start, end, process0) = (&start, &end, &process0);
                    s.spawn(move || {
                        let _session = probed.then(|| timeline::register(CLIENT_PROC_BASE + c));
                        start.wait();
                        let mut w = client_loop(server, p, c, tenants, window, probed, side);
                        // Each client reads the process CPU as it finishes
                        // (the last reading counts) and then stays alive:
                        // an exited thread's time leaves the task list.
                        w.process_cpu_ns =
                            process_cpu_ns().saturating_sub(process0.load(Ordering::Relaxed));
                        end.wait();
                        w
                    })
                })
                .collect();
            process0.store(process_cpu_ns(), Ordering::Relaxed);
            start.wait();
            end.wait();
            for h in handles {
                total.absorb(h.join().expect("client thread"));
            }
        });
        total
    }

    fn finish(self, p: &RunParams) -> Finish {
        let mut out = Finish {
            audit_clean: true,
            ..Finish::default()
        };
        let mut audit = |server: &Server, errors: &mut Vec<String>, what: &str| {
            for t in 0..self.tenants {
                match server.audit(t) {
                    Ok(a) if a.is_clean() => {}
                    Ok(a) => {
                        out.audit_clean = false;
                        errors.push(format!("{what} tenant {t}: heap audit {:?}", a.errors));
                    }
                    Err(e) => errors.push(format!("{what} tenant {t}: {e}")),
                }
            }
        };
        let mut errors = Vec::new();
        audit(&self.server, &mut errors, "served");
        if p.workload == Workload::ServeCheckpoint {
            // Whole-process recovery into a fresh server must land every
            // tenant on its newest committed epoch and keep serving.
            let store = self
                .server
                .store()
                .expect("checkpointing server has a store");
            let newest: Vec<_> = (0..self.tenants).map(|t| store.newest(t as u64)).collect();
            out.ckpt_image_kb = newest
                .iter()
                .flatten()
                .map(|c| c.file_len as f64 / 1024.0)
                .sum::<f64>()
                / self.tenants as f64;
            drop(self.server);
            let (recovered, report) =
                Server::recover(self.template, self.base, self.cfg, self.tenants);
            out.recover_ms = report.total_ns as f64 / 1e6;
            for (t, commit) in newest.iter().enumerate() {
                let want = commit.map(|c| RecoverySource::Checkpoint { epoch: c.epoch });
                let got = report.tenants.get(t).map(|r| r.source);
                if want.is_none() || got != want {
                    errors.push(format!(
                        "tenant {t} recovered from {got:?}, expected {want:?}"
                    ));
                }
                let (src, answer) = (SERVE_DOITS[0].0, &p.expected.doits[0]);
                match recovered.request(t, src) {
                    Ok(r) => {
                        errors.extend(check("recovered doit", &r.value.to_string(), answer).err())
                    }
                    Err(e) => errors.push(format!("recovered tenant {t}: {e}")),
                }
            }
            audit(&recovered, &mut errors, "recovered");
            drop(recovered);
            let _ = std::fs::remove_dir_all(&p.scratch);
        }
        out.errors = errors;
        out
    }
}

fn client_loop(
    server: &Server,
    p: &RunParams,
    client: usize,
    tenants: usize,
    window: Duration,
    probed: bool,
    mut side: Option<&mut MsSystem>,
) -> Window {
    let mut probe = probed.then(Probe::default);
    let mut stream = OpStream::new(p.workload, p.seed, client, tenants);
    let mut replay_rng = SplitMix64::new(p.seed ^ 0x5EED_0F5A_3B1E_5EED);
    let mut w = Window::default();
    let (caller0, t0) = (thread_cpu_ns(), Instant::now());
    while t0.elapsed() < window {
        let Op::Request { tenant, doit } = stream.next_op() else {
            unreachable!("a Fleet serves requests");
        };
        let (src, answer) = (
            SERVE_DOITS[doit as usize].0,
            &p.expected.doits[doit as usize],
        );
        let op_id = w.attempted as u32;
        let begin = Instant::now();
        if let Some(pr) = &mut probe {
            pr.rec.begin("op", op_id);
            pr.rec.begin("serve.request", op_id);
        }
        let response = server.request(tenant as usize, src);
        if let Some(pr) = &mut probe {
            pr.rec.end();
            pr.rec.end();
        }
        let result = match response {
            Ok(r) => check("doit", &r.value.to_string(), answer),
            Err(e) => Err(format!("tenant {tenant}: {e}")),
        };
        w.record(begin.elapsed().as_nanos() as u64, result);
        let Some(pr) = &mut probe else { continue };
        // Only the first client holds the side session and the pause log.
        if let Some(ms) = side.as_deref_mut() {
            if replay_rng.below(REPLAY_ONE_IN) == 0 {
                replay(ms, src, answer, &mut pr.rec, op_id);
                w.side_ops += 1;
            }
            if w.attempted % DRAIN_EVERY == 0 {
                pr.drain_pauses(op_id);
            }
        }
    }
    w.window_ns = t0.elapsed().as_nanos() as u64;
    w.caller_cpu_ns = thread_cpu_ns() - caller0;
    if let Some(mut pr) = probe {
        if side.is_some() {
            pr.drain_pauses(w.attempted as u32);
        }
        w.probes.push(pr);
    }
    w
}

/// Replays one request's doit outside the server, as `Server::request`
/// runs it: a fresh compile, then a run under the deadline.
fn replay(ms: &mut MsSystem, src: &str, answer: &str, rec: &mut Recorder, op: u32) {
    rec.begin("replay", op);
    rec.begin("core.prepare", op);
    let prepared = ms.prepare(src).expect("served source compiles");
    rec.end();
    rec.begin("core.run_prepared_with_deadline", op);
    let value = ms.run_prepared_with_deadline(&prepared, Duration::from_secs(2));
    rec.end();
    rec.end();
    assert_eq!(
        value.map(|v: Value| v.to_string()).ok().as_deref(),
        Some(answer),
        "the side session answers as the server does"
    );
}

// ---------------------------------------------------------------------
// Either shape, behind one interface
// ---------------------------------------------------------------------

pub enum System {
    Solo(Box<Solo>),
    Fleet(Box<Fleet>),
}

impl System {
    /// Builds and warms the system: everything `setup_s` times. A probed
    /// serve set-up also boots the side session.
    pub fn setup(p: &RunParams, probed: bool) -> System {
        if p.workload.is_serve() {
            System::Fleet(Box::new(Fleet::setup(p, probed)))
        } else {
            System::Solo(Box::new(Solo::setup(p)))
        }
    }

    /// Runs the closed loop for `window`. `probed` adds the driver's own
    /// instruments: spans, per-selector CPU, the drained GC pause log.
    pub fn run(&mut self, p: &RunParams, window: Duration, probed: bool) -> Window {
        match self {
            System::Solo(s) => s.run(p, window, probed),
            System::Fleet(f) => f.run(p, window, probed),
        }
    }

    /// How many callers drive the system.
    pub fn callers(&self) -> usize {
        match self {
            System::Solo(_) => 1,
            System::Fleet(f) => f.clients,
        }
    }

    /// The session whose interpreter and collector counters the `interp.*`
    /// and `objmem.words_*` rows read: the system itself, or for a Fleet
    /// (whose sessions are private to the server) the side session.
    pub fn observed(&self) -> Option<&MsSystem> {
        match self {
            System::Solo(s) => Some(&s.ms),
            System::Fleet(f) => f.side.as_ref(),
        }
    }

    pub fn cold_start_ms(&self) -> f64 {
        match self {
            System::Solo(_) => 0.0,
            System::Fleet(f) => f.cold_start_ms,
        }
    }

    /// The post-window checks: every heap audits clean, and a checkpointing
    /// server recovers. Consumes (and shuts down) the system.
    pub fn finish(self, p: &RunParams) -> Finish {
        match self {
            System::Solo(s) => {
                let audit = s.ms.audit_heap();
                let errors = if audit.is_clean() {
                    Vec::new()
                } else {
                    vec![format!("heap audit: {:?}", audit.errors)]
                };
                s.ms.shutdown();
                Finish {
                    audit_clean: audit.is_clean(),
                    errors,
                    ..Finish::default()
                }
            }
            System::Fleet(f) => f.finish(p),
        }
    }
}

/// Scratch directory of one run's checkpoints.
pub fn scratch_dir(out: &Path, workload: Workload) -> PathBuf {
    out.join(format!("ckpt-{}-{}", workload.name(), std::process::id()))
}
