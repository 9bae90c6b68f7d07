//! Fault-isolated multi-tenant request serving.
//!
//! The paper's thesis is a *shared interactive environment*: many users on
//! one machine, each insulated from the others' pauses and faults. This
//! crate is that environment's front end. Each tenant owns an isolated
//! session — a full [`MsSystem`] spawned copy-on-load from a shared
//! [`SnapshotTemplate`] — and every doit is a request executed under an
//! enforced deadline. Sessions share only the immutable image bytes, so a
//! fault in one tenant cannot corrupt another.
//!
//! The robustness envelope, per request:
//!
//! 1. **Admission control + backpressure** — a bounded per-tenant queue.
//!    Requests beyond the queue cap, behind too long a queue delay, or
//!    arriving under memory pressure are rejected *up front* with a
//!    structured [`Reject`] reason (the HTTP-429 shape) instead of joining
//!    an unbounded latency collapse.
//! 2. **Deadline enforcement** — the per-request budget is armed on the
//!    session VM and checked at safepoint polls; an expired doit is
//!    terminated through the same containment route as `outOfMemory`,
//!    leaving the session consistent (`audit_heap` stays clean).
//! 3. **Crash-only recovery** — a panic inside the session (including the
//!    chaos `serve.panic` mid-doit kill) is caught at the session boundary.
//!    The whole session is discarded and respawned from its checkpoint or
//!    the template with an incremented epoch; other tenants never observe
//!    the fault.
//! 4. **Graceful degradation** — when a session loses supervised
//!    processors or its LowSpaceSemaphore fires, the server shrinks that
//!    tenant's eden budget and halves its admission cap (shedding load)
//!    rather than failing requests outright.
//!
//! Session lifecycle (see DESIGN.md for the full state machine):
//!
//! ```text
//! Cold --first request--> Ready --execute--> Executing --ok--> Ready
//!   Executing --panic--> Crashed --respawn (epoch+1)--> Ready
//!   Ready --pressure--> Degraded (shrunken eden, halved cap) --> Ready
//! ```
//!
//! Chaos: the `serve.drop`, `serve.slow` and `serve.panic` fault sites
//! ([`mst_vkernel::fault`]) are consulted only for the configured *victim*
//! tenant ([`Server::set_victim`]), so a soak can prove the blast radius of
//! a misbehaving tenant stays confined to it.
//!
//! **Durability** (the [`store`] module): when a checkpoint directory is
//! configured, every tenant's checkpoints are versioned files committed
//! through an append-only, CRC'd `MANIFEST` journal. A [`CheckpointPolicy`]
//! takes checkpoints at quiescent points (after a completed doit, holding
//! only that tenant's lock). The request serializes the image into a temp
//! file and stages it; the store's committer thread then does every fsync,
//! rename and journal append, one image at a time, after the session lock
//! is released. So a request waits for the page cache, never for the disk
//! (CI's lint "Requests never wait for the disk" keeps this file free of
//! syncs). [`Server::checkpoint`] waits until its record is durable; an
//! auto-checkpoint does not, and a failure on the committer is counted
//! there. [`Server::recover`] reconstructs the whole fleet — epochs,
//! restart counts, sessions — from the directory alone after a process
//! death. The `ckpt.crash` / `ckpt.torn_manifest` / `ckpt.slow` fault
//! sites simulate deaths inside the commit protocol itself;
//! `tests/serving.rs` recovers from seeded deaths at both (as many as
//! `MST_PROP_CASES` asks for).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mst_core::{EvalError, MsConfig, MsSystem, SnapshotTemplate, Value};
use mst_telemetry as tel;
use mst_vkernel::fault;

pub mod store;

pub use store::{
    chains_from_records, scan_manifest, CheckpointStore, Commit, Record, StoreError, Ticket,
};

/// When the server takes checkpoints on its own (on-demand
/// [`Server::checkpoint`] always works regardless). Checkpoints are taken
/// at quiescent points — after a completed doit, holding only that
/// tenant's session lock — so one tenant checkpointing never blocks
/// another's requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint a tenant after every N successful requests.
    pub every_requests: Option<u64>,
    /// Checkpoint a tenant the moment it transitions into degraded mode
    /// (the session may be about to get worse; capture it while it is
    /// still consistent).
    pub on_degrade: bool,
}

/// Serving-layer policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Virtual processors per tenant session (the main interpreter plus
    /// `processors - 1` supervised workers).
    pub processors: usize,
    /// Per-request wall-clock budget; expired doits are terminated at the
    /// next safepoint poll.
    pub deadline: Duration,
    /// Admission: maximum requests queued (waiting or executing) per
    /// tenant; the cap halves while a tenant is degraded.
    pub queue_cap: usize,
    /// Admission: a request that waited longer than this for its session
    /// is rejected (queue-delay backpressure).
    pub queue_wait_limit: Duration,
    /// Eden budget (words) a degraded session shrinks to.
    pub degraded_eden_words: usize,
    /// How long the chaos `serve.slow` fault stalls the victim tenant.
    pub slow_stall: Duration,
    /// Directory for per-tenant checkpoints ([`Server::checkpoint`]);
    /// recovery prefers a checkpoint over the template when present. With
    /// a directory configured the server runs a durable
    /// [`CheckpointStore`] there: versioned images committed through the
    /// `MANIFEST` journal.
    pub checkpoint_dir: Option<PathBuf>,
    /// Automatic checkpoint policy (applies only with `checkpoint_dir`).
    pub checkpoint: CheckpointPolicy,
    /// Committed checkpoints retained per tenant (clamped to ≥ 1; the
    /// newest committed entry is never pruned).
    pub retain: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            processors: 2,
            deadline: Duration::from_secs(2),
            queue_cap: 4,
            queue_wait_limit: Duration::from_millis(500),
            degraded_eden_words: 16 << 10,
            slow_stall: Duration::from_millis(20),
            checkpoint_dir: None,
            checkpoint: CheckpointPolicy::default(),
            retain: 2,
        }
    }
}

/// Why admission control refused a request (the 429-style structured
/// reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The tenant's queue (waiting + executing) is at its cap.
    QueueFull {
        /// Requests already queued.
        queued: usize,
        /// The effective cap (halved while degraded).
        cap: usize,
    },
    /// The request waited longer than the configured limit for its session.
    QueueDelay {
        /// How long it waited.
        waited: Duration,
        /// The configured limit.
        limit: Duration,
    },
    /// The session's LowSpaceSemaphore pressure latch is set and another
    /// request is already in flight; load is shed until space recovers.
    MemoryPressure,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { queued, cap } => {
                write!(f, "queue full ({queued} queued, cap {cap})")
            }
            Reject::QueueDelay { waited, limit } => {
                write!(f, "queue delay {waited:?} over limit {limit:?}")
            }
            Reject::MemoryPressure => f.write_str("memory pressure"),
        }
    }
}

/// A failed request.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the request; retry after backoff.
    Rejected(Reject),
    /// The request was dropped before execution (chaos `serve.drop`).
    Dropped,
    /// The doit ran past its deadline and was terminated; the session
    /// remains consistent and keeps serving.
    DeadlineExpired,
    /// The doit failed in the image (an `error:` report).
    Runtime(String),
    /// The session crashed while executing this request and was respawned
    /// at the given epoch; retry lands on the fresh session.
    SessionCrashed {
        /// The epoch of the respawned session.
        epoch: u64,
    },
    /// The tenant id does not exist.
    NoSuchTenant(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Dropped => f.write_str("request dropped"),
            ServeError::DeadlineExpired => f.write_str("deadline expired"),
            ServeError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            ServeError::SessionCrashed { epoch } => {
                write!(f, "session crashed; respawned at epoch {epoch}")
            }
            ServeError::NoSuchTenant(t) => write!(f, "no such tenant {t}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful request.
#[derive(Debug)]
pub struct Response {
    /// The doit's value.
    pub value: Value,
    /// Wall-clock latency, admission to result.
    pub latency: Duration,
    /// The epoch of the session that served it (bumped by every respawn).
    pub epoch: u64,
}

/// One tenant's session slot. `None` until the first request (Cold) and
/// momentarily during a crash respawn.
struct Slot {
    ms: Option<MsSystem>,
}

struct Tenant {
    id: usize,
    slot: Mutex<Slot>,
    /// Requests waiting for or holding the session lock.
    queued: AtomicUsize,
    /// Session generation: bumped by every spawn/respawn.
    epoch: AtomicU64,
    /// Crash respawns (epoch minus the initial spawn).
    restarts: AtomicU64,
    /// 1 while the session is degraded (shrunken eden, halved cap).
    degraded: AtomicUsize,
    /// Successful requests since the last checkpoint (drives
    /// [`CheckpointPolicy::every_requests`]).
    since_ckpt: AtomicU64,
}

/// Decrements the tenant's queue depth when a request leaves (including
/// every early-reject path).
struct QueueGuard<'a>(&'a AtomicUsize);

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The multi-tenant server: N isolated sessions over one shared template.
pub struct Server {
    template: SnapshotTemplate,
    base: MsConfig,
    cfg: ServeConfig,
    tenants: Vec<Tenant>,
    /// Durable checkpoint store, present iff `cfg.checkpoint_dir` is.
    store: Option<CheckpointStore>,
    /// Chaos victim tenant (`usize::MAX` = none): the only tenant for
    /// which the `serve.*` fault sites are consulted.
    victim: AtomicUsize,
}

/// Where a tenant's session came from during [`Server::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// Restored from a committed checkpoint at this epoch (the newest
    /// loadable entry in the tenant's manifest chain).
    Checkpoint {
        /// The committed epoch the session resumed at.
        epoch: u64,
    },
    /// Every committed checkpoint failed to load; respawned from the
    /// template at (newest committed epoch + 1).
    Template,
    /// The tenant had no committed checkpoints; left cold.
    Cold,
}

/// One tenant's recovery outcome.
#[derive(Debug, Clone, Copy)]
pub struct TenantRecovery {
    /// The tenant id.
    pub tenant: usize,
    /// Where the session came from.
    pub source: RecoverySource,
    /// Wall-clock nanoseconds spent recovering this tenant.
    pub duration_ns: u64,
}

/// What [`Server::recover`] did, tenant by tenant.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, in tenant-id order.
    pub tenants: Vec<TenantRecovery>,
    /// Total wall-clock nanoseconds for the whole recovery.
    pub total_ns: u64,
}

impl Server {
    /// Builds a server with `tenants` cold sessions over `template`.
    /// `base` supplies the strategy/memory configuration every session
    /// boots with (its `processors` field is overridden by
    /// `cfg.processors`).
    pub fn new(
        template: SnapshotTemplate,
        base: MsConfig,
        cfg: ServeConfig,
        tenants: usize,
    ) -> Server {
        assert!(tenants > 0, "a server needs at least one tenant");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        // Losing the checkpoint store means losing durability silently —
        // exactly the failure mode this layer exists to remove — so a
        // store that cannot open is a construction error, not a warning.
        let store = cfg.checkpoint_dir.as_ref().map(|dir| {
            CheckpointStore::open(dir, cfg.retain)
                .unwrap_or_else(|e| panic!("checkpoint store at {}: {e}", dir.display()))
        });
        let tenants = (0..tenants)
            .map(|id| {
                // Seed epochs/restarts from the manifest so generation
                // counters stay monotonic across process lifetimes: the
                // next spawn lands above every committed epoch.
                let newest = store.as_ref().and_then(|s| s.newest(id as u64));
                Tenant {
                    id,
                    slot: Mutex::new(Slot { ms: None }),
                    queued: AtomicUsize::new(0),
                    epoch: AtomicU64::new(newest.map_or(0, |c| c.epoch)),
                    restarts: AtomicU64::new(newest.map_or(0, |c| c.restarts)),
                    degraded: AtomicUsize::new(0),
                    since_ckpt: AtomicU64::new(0),
                }
            })
            .collect();
        Server {
            template,
            base,
            cfg,
            tenants,
            store,
            victim: AtomicUsize::new(usize::MAX),
        }
    }

    /// Reconstructs a whole server — sessions, epochs, restart counts —
    /// from its checkpoint directory after a process death. Every tenant
    /// with committed checkpoints is eagerly restored from the newest
    /// loadable entry in its manifest chain (falling down the chain past
    /// corrupt images, then to the template); tenants that never
    /// checkpointed stay cold. Records the `serve.ckpt.recovery_ns`
    /// histogram and returns a per-tenant [`RecoveryReport`].
    pub fn recover(
        template: SnapshotTemplate,
        base: MsConfig,
        cfg: ServeConfig,
        tenants: usize,
    ) -> (Server, RecoveryReport) {
        let t0 = tel::now_ns();
        let server = Server::new(template, base, cfg, tenants);
        let mut report = RecoveryReport::default();
        for t in &server.tenants {
            let tt0 = tel::now_ns();
            let source = server.recover_tenant(t);
            let duration_ns = tel::now_ns().saturating_sub(tt0);
            tel::histogram!("serve.ckpt.tenant_recovery_ns").record(duration_ns);
            report.tenants.push(TenantRecovery {
                tenant: t.id,
                source,
                duration_ns,
            });
        }
        report.total_ns = tel::now_ns().saturating_sub(t0);
        tel::histogram!("serve.ckpt.recovery_ns").record(report.total_ns);
        (server, report)
    }

    /// Restores one tenant's session during [`recover`](Self::recover):
    /// newest chain entry → older entries → template; cold when it never
    /// committed.
    fn recover_tenant(&self, t: &Tenant) -> RecoverySource {
        let newest = self.store.as_ref().and_then(|s| s.newest(t.id as u64));
        let Some(newest) = newest else {
            return RecoverySource::Cold;
        };
        let (ms, restored) = self.restore_newest(t);
        lock_slot(&t.slot).ms = Some(ms);
        match restored {
            Some(commit) => {
                t.epoch.store(commit.epoch, Ordering::Relaxed);
                t.restarts.store(commit.restarts, Ordering::Relaxed);
                tel::counter!("serve.ckpt.recovered").incr();
                RecoverySource::Checkpoint {
                    epoch: commit.epoch,
                }
            }
            None => {
                // Every committed image was unreadable: the chain is
                // evidence of the tenant's existence but not of its state.
                // One generation above everything committed.
                t.epoch.store(newest.epoch + 1, Ordering::Relaxed);
                RecoverySource::Template
            }
        }
    }

    /// The durable checkpoint store, when a directory is configured.
    pub fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Marks `tenant` as the chaos victim (or clears it with `None`): the
    /// `serve.drop` / `serve.slow` / `serve.panic` fault sites fire only
    /// inside its requests.
    pub fn set_victim(&self, tenant: Option<usize>) {
        self.victim
            .store(tenant.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// The session epoch of `tenant` (0 = still cold).
    pub fn epoch(&self, tenant: usize) -> u64 {
        self.tenants[tenant].epoch.load(Ordering::Relaxed)
    }

    /// How many times `tenant`'s session crashed and was respawned.
    pub fn restarts(&self, tenant: usize) -> u64 {
        self.tenants[tenant].restarts.load(Ordering::Relaxed)
    }

    /// Whether `tenant` is currently degraded.
    pub fn degraded(&self, tenant: usize) -> bool {
        self.tenants[tenant].degraded.load(Ordering::Relaxed) != 0
    }

    /// Executes `source` as a doit in `tenant`'s session under the
    /// configured deadline, applying admission control first.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] from admission control (retryable);
    /// [`ServeError::DeadlineExpired`] / [`ServeError::Runtime`] for doit
    /// failures (the session keeps serving); [`ServeError::SessionCrashed`]
    /// when the session died and was respawned (retry lands on the fresh
    /// epoch); [`ServeError::Dropped`] for the chaos drop fault.
    pub fn request(&self, tenant: usize, source: &str) -> Result<Response, ServeError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or(ServeError::NoSuchTenant(tenant))?;
        let start = Instant::now();
        tel::counter!("serve.requests").incr();

        // Admission: bounded queue. The effective cap halves while the
        // session is degraded (load shedding).
        let queued = t.queued.fetch_add(1, Ordering::Relaxed) + 1;
        let queue = QueueGuard(&t.queued);
        let cap = if t.degraded.load(Ordering::Relaxed) != 0 {
            (self.cfg.queue_cap / 2).max(1)
        } else {
            self.cfg.queue_cap
        };
        if queued > cap {
            tel::counter!("serve.rejected").incr();
            return Err(ServeError::Rejected(Reject::QueueFull {
                queued: queued - 1,
                cap,
            }));
        }

        // Admission: queue-delay backpressure. The wait for the session
        // lock *is* the queue delay; a request that waited past the limit
        // is shed even though the session just became available — serving
        // it would only push the collapse onto the requests behind it.
        let mut slot = lock_slot(&t.slot);
        let waited = start.elapsed();
        tel::histogram!("serve.queue_wait_ns").record(waited.as_nanos() as u64);
        if waited > self.cfg.queue_wait_limit {
            tel::counter!("serve.rejected").incr();
            return Err(ServeError::Rejected(Reject::QueueDelay {
                waited,
                limit: self.cfg.queue_wait_limit,
            }));
        }

        let is_victim = self.victim.load(Ordering::Relaxed) == t.id;
        // Chaos: drop the request before it touches the session.
        if is_victim && fault::serve_drop() {
            tel::counter!("serve.dropped").incr();
            return Err(ServeError::Dropped);
        }

        // Cold start: spawn the session from checkpoint/template.
        if slot.ms.is_none() {
            slot.ms = Some(self.spawn_session(t));
        }
        // The borrow lives for the execution; on crash we take it out.
        let ms = slot.ms.as_mut().expect("session just spawned");

        // Graceful degradation: losing a supervised processor or tripping
        // the low-space latch shrinks this tenant's eden budget and halves
        // its admission cap instead of failing its requests.
        let pressure = ms.low_space();
        let shrunk = ms.processors_online() < self.cfg.processors.saturating_sub(1);
        if (pressure || shrunk) && t.degraded.swap(1, Ordering::Relaxed) == 0 {
            ms.set_eden_budget(self.cfg.degraded_eden_words);
            tel::counter!("serve.degraded").incr();
            // Policy: capture the session while it is still consistent —
            // degradation means it may be about to get worse. Quiescent
            // (no doit is running) and only this tenant's lock is held.
            if self.cfg.checkpoint.on_degrade && self.store.is_some() {
                self.auto_checkpoint(t, ms);
            }
        }
        // Admission: memory pressure. One request may proceed (the tenant
        // must keep making progress for space to recover) but concurrent
        // load is shed.
        if pressure && queued > 1 {
            tel::counter!("serve.rejected").incr();
            return Err(ServeError::Rejected(Reject::MemoryPressure));
        }

        // Chaos: a slow tenant stalls inside its own session, holding only
        // its own lock — other tenants' latency must not move.
        if is_victim && fault::serve_slow() {
            std::thread::sleep(self.cfg.slow_stall);
        }
        // Chaos: arm the mid-doit panic; the session's interpreter panics
        // at a safepoint *inside* the doit.
        if is_victim && fault::serve_panic() {
            ms.vm().inject_doit_panic();
        }

        let deadline = self.cfg.deadline;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let prepared = ms.prepare(source)?;
            ms.run_prepared_with_deadline(&prepared, deadline)
        }));
        let epoch = t.epoch.load(Ordering::Relaxed);
        match outcome {
            Ok(Ok(value)) => {
                let latency = start.elapsed();
                tel::histogram!("serve.request.latency_ns").record(latency.as_nanos() as u64);
                tel::counter!("serve.ok").incr();
                self.maybe_auto_checkpoint(t, &slot);
                drop(queue);
                Ok(Response {
                    value,
                    latency,
                    epoch,
                })
            }
            Ok(Err(EvalError::DeadlineExpired)) => {
                tel::counter!("serve.deadline_expired").incr();
                Err(ServeError::DeadlineExpired)
            }
            Ok(Err(e)) => Err(ServeError::Runtime(e.to_string())),
            Err(_panic) => {
                // Crash-only recovery: the session is gone as a unit. Drop
                // it (shutting down and joining its workers), respawn from
                // checkpoint/template, bump the epoch. Only this tenant's
                // lock is held throughout — the blast radius is one tenant.
                tel::counter!("serve.session_crashes").incr();
                slot.ms = None;
                t.restarts.fetch_add(1, Ordering::Relaxed);
                slot.ms = Some(self.spawn_session(t));
                Err(ServeError::SessionCrashed {
                    epoch: t.epoch.load(Ordering::Relaxed),
                })
            }
        }
    }

    /// Takes a crash-consistent, manifest-committed checkpoint of
    /// `tenant`'s session on demand, returning the image path once its
    /// record is durable (the session lock is released while the committer
    /// syncs); later crash respawns and [`Server::recover`] restore from it
    /// instead of the template.
    ///
    /// # Errors
    ///
    /// [`ServeError::Runtime`] if no checkpoint directory is configured,
    /// the tenant is cold, or the commit fails (counted in
    /// `serve.ckpt.failures`; the previously committed chain is
    /// untouched).
    pub fn checkpoint(&self, tenant: usize) -> Result<PathBuf, ServeError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or(ServeError::NoSuchTenant(tenant))?;
        let ticket = {
            let slot = lock_slot(&t.slot);
            let Some(ms) = slot.ms.as_ref() else {
                return Err(ServeError::Runtime("tenant is cold".into()));
            };
            tel::counter!("serve.ckpt.on_demand").incr();
            self.stage_session(t, ms)?
        };
        // The session serves again while the committer makes the image
        // durable; the caller waits for the record.
        ticket.wait().map_err(checkpoint_err)
    }

    /// Runs a full heap audit on `tenant`'s live session (the recovery
    /// tests verify recovered sessions with this).
    ///
    /// # Errors
    ///
    /// [`ServeError::Runtime`] when the tenant is cold — there is no heap
    /// to audit.
    pub fn audit(&self, tenant: usize) -> Result<mst_objmem::HeapAudit, ServeError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or(ServeError::NoSuchTenant(tenant))?;
        let slot = lock_slot(&t.slot);
        match slot.ms.as_ref() {
            Some(ms) => Ok(ms.audit_heap()),
            None => Err(ServeError::Runtime("tenant is cold".into())),
        }
    }

    /// Serializes `t`'s session into the store's temp file and queues it
    /// for the committer (stops that session's world for the save; no
    /// other tenant blocks). A failure is counted by the store, here or on
    /// the committer.
    fn stage_session(&self, t: &Tenant, ms: &MsSystem) -> Result<Ticket, ServeError> {
        let Some(store) = &self.store else {
            return Err(ServeError::Runtime("no checkpoint directory".into()));
        };
        let t0 = tel::now_ns();
        // The image streams straight into the store's temp file; the
        // snapshot's folded CRC is the one the commit record keeps.
        let ticket = store
            .stage(
                t.id as u64,
                t.epoch.load(Ordering::Relaxed),
                t.restarts.load(Ordering::Relaxed),
                |mut w| ms.save_snapshot(&mut w).map_err(std::io::Error::other),
            )
            .map_err(checkpoint_err)?;
        t.since_ckpt.store(0, Ordering::Relaxed);
        tel::histogram!("serve.ckpt.save_ns").record(tel::now_ns().saturating_sub(t0));
        Ok(ticket)
    }

    /// Applies [`CheckpointPolicy::every_requests`] at the quiescent
    /// point after a completed doit, still holding only this tenant's
    /// session lock.
    fn maybe_auto_checkpoint(&self, t: &Tenant, slot: &Slot) {
        if self.store.is_none() {
            return;
        }
        let Some(n) = self.cfg.checkpoint.every_requests else {
            return;
        };
        let since = t.since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        if since < n.max(1) {
            return;
        }
        let Some(ms) = slot.ms.as_ref() else {
            return;
        };
        // The interval restarts whether or not the commit succeeds: a
        // failing store (a full disk) is retried after another `n`
        // requests, not on every request.
        t.since_ckpt.store(0, Ordering::Relaxed);
        self.auto_checkpoint(t, ms);
    }

    /// The one automatic checkpoint, taken by either policy: staged, not
    /// waited for, so the committer makes it durable after the session
    /// lock is released. A failure is counted by the store.
    fn auto_checkpoint(&self, t: &Tenant, ms: &MsSystem) {
        tel::counter!("serve.ckpt.auto").incr();
        let _ = self.stage_session(t, ms);
    }

    /// Spawns a fresh session for `t` at the next epoch.
    fn spawn_session(&self, t: &Tenant) -> MsSystem {
        t.epoch.fetch_add(1, Ordering::Relaxed);
        self.restore_newest(t).0
    }

    /// The one chain walk: boots `t`'s session from the newest loadable
    /// image in its committed chain — answering which commit that was — or,
    /// with none, copy-on-load from the shared template. The session starts
    /// undegraded with a fresh checkpoint interval.
    fn restore_newest(&self, t: &Tenant) -> (MsSystem, Option<Commit>) {
        t.degraded.store(0, Ordering::Relaxed);
        t.since_ckpt.store(0, Ordering::Relaxed);
        let config = MsConfig {
            processors: self.cfg.processors,
            ..self.base
        };
        if let Some(store) = &self.store {
            for commit in store.chain(t.id as u64) {
                // One read of the file: the loader streams it into a fresh
                // heap, and the length and CRC it read must match the
                // record before the session boots.
                let loaded = store.load(&commit, |mut r| {
                    mst_objmem::ObjectMemory::load_snapshot(&mut r, config.memory_config())
                        .map_err(std::io::Error::other)
                });
                match loaded {
                    Ok(mem) => return (MsSystem::from_memory(mem, config), Some(commit)),
                    // A corrupt or unloadable checkpoint must not wedge
                    // recovery: fall down the chain toward the template.
                    Err(_) => tel::counter!("serve.checkpoint_fallback").incr(),
                }
            }
        }
        let ms = MsSystem::from_template(&self.template, config)
            .expect("template was validated at build time");
        (ms, None)
    }
}

fn checkpoint_err(e: StoreError) -> ServeError {
    ServeError::Runtime(format!("checkpoint: {e}"))
}

fn lock_slot(m: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    // A panic inside `request` can poison the mutex, but every panic path
    // leaves the slot in a recoverable state (`None` or a live session),
    // so the poison flag carries no information here.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Seeded exponential backoff with jitter for request retry loops (the
/// client half of the backpressure protocol). Deterministic in its seed.
#[derive(Debug)]
pub struct Backoff {
    rng: mst_vkernel::SplitMix64,
    base: Duration,
    max: Duration,
    attempt: u32,
}

impl Backoff {
    /// A policy starting at `base` and capping each delay at `max`.
    pub fn new(seed: u64, base: Duration, max: Duration) -> Backoff {
        Backoff {
            rng: mst_vkernel::SplitMix64::new(seed),
            base,
            max,
            attempt: 0,
        }
    }

    /// The next delay: `base * 2^attempt`, capped at `max`, with uniform
    /// jitter over the full range ("full jitter"), so retry storms from
    /// many clients decorrelate.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt += 1;
        let ceil_ns = self
            .base
            .as_nanos()
            .saturating_mul(1u128 << exp)
            .min(self.max.as_nanos())
            .max(1) as u64;
        Duration::from_nanos(self.rng.gen_range(0, ceil_ns) + 1)
    }

    /// Resets the policy after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn server_is_shareable_across_threads() {
        assert_send::<Server>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<Server>();
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let base = Duration::from_millis(1);
        let max = Duration::from_millis(50);
        let mut a = Backoff::new(7, base, max);
        let mut b = Backoff::new(7, base, max);
        let da: Vec<_> = (0..10).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da.iter().all(|d| *d <= max + Duration::from_nanos(1)));
        let mut c = Backoff::new(8, base, max);
        assert!(c.next_delay() <= base + Duration::from_nanos(1));
        c.reset();
        assert_eq!(c.attempt, 0);
    }

    #[test]
    fn reject_and_error_display() {
        let r = Reject::QueueFull { queued: 4, cap: 4 };
        assert!(r.to_string().contains("queue full"));
        let e = ServeError::SessionCrashed { epoch: 3 };
        assert!(e.to_string().contains("epoch 3"));
        assert!(ServeError::Rejected(Reject::MemoryPressure)
            .to_string()
            .contains("memory pressure"));
    }
}
