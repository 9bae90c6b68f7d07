//! Durable, manifest-committed checkpoint store.
//!
//! A Smalltalk environment *is* its image: the paper's programming model
//! assumes the image survives anything the processors do to it. The
//! serving layer's original checkpoint path overwrote one
//! `tenant{id}.image` in place with no commit record and no retention — a
//! crash mid-overwrite could cost a tenant its only checkpoint, and a
//! process death lost every tenant's epoch/restart state. This module is
//! the durable replacement, following the multicomputer-object-store
//! playbook (PAPERS.md): versioned checkpoint files committed through an
//! append-only journal.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/MANIFEST                  append-only, CRC-framed commit journal
//! <dir>/tenant{N}.e{E}.{C}.image  checkpoint image for tenant N, epoch E,
//!                                 CRC-32 C (eight hex digits)
//! <dir>/*.tmp                     in-flight writes (removed on open)
//! ```
//!
//! The CRC in the name means a re-checkpoint at the same epoch — every
//! auto-checkpoint between two respawns is one — writes a new file instead
//! of renaming over the one the newest record names. Only an identical
//! image gets the same name.
//!
//! # Commit protocol
//!
//! A checkpoint exists only once its MANIFEST record is durable. The
//! protocol is split across two threads, the way the paper's interpreter
//! queues a display command and the controller drains it (§3.1): the
//! request pays for the page cache, the store's committer for the disk.
//!
//! On the request's thread, [`stage`](CheckpointStore::stage):
//!
//! 1. waits until the tenant has no image in flight (its previous
//!    checkpoint is waited for, never skipped or superseded);
//! 2. streams the image through [`write_temp`] into
//!    `tenant{N}.e{E}.image.tmp`, with no fsync (the writer returns the
//!    image's CRC-32, folded from its section checksums, and counts the
//!    length; debug builds re-read the file and assert both);
//! 3. queues it and returns a [`Ticket`]. The session lock is released.
//!
//! On the committer thread, which [`CheckpointStore::open`] starts and
//! `Drop` drains and joins, one staged image at a time, oldest first:
//!
//! 4. fsync the temp file and rename it to `tenant{N}.e{E}.{C}.image`
//!    ([`TempFile::persist`]), then fsync the directory ([`sync_dir`]);
//! 5. append the image's CRC-framed [`Commit`] record, and a
//!    [`Prune`](Record::Prune) record if retention drops older epochs, in
//!    one journal write with one fsync;
//! 6. delete the files no record names any more (the image this one
//!    superseded at its epoch, and the pruned ones), compact the journal if
//!    it is due, then complete the ticket.
//!
//! [`commit`](CheckpointStore::commit) is `stage` plus [`Ticket::wait`].
//! [`chain`](CheckpointStore::chain) and
//! [`newest`](CheckpointStore::newest) first wait until the tenant has no
//! image in flight, and [`tenants`](CheckpointStore::tenants) until no
//! tenant has, so a read sees each commit staged before it.
//!
//! A crash between steps 3 and 5 — staged, not yet durable — leaves a temp
//! file or an image that no record names: invisible to recovery and
//! removed by the next [`CheckpointStore::open`], which lands on the
//! previous commit. A crash *during* step 5 leaves a torn final frame; the
//! scan keeps the journal's valid prefix and drops the tail. A crash during
//! step 6 leaves files only superseded or pruned records name, which the
//! next open also removes. Either way, every previously committed
//! checkpoint survives, file and all. A write that fails without a crash
//! removes its temp file. A failed append leaves its image for the next
//! open to remove, and the journal's length at its last valid frame; the
//! next append truncates the torn bytes first.
//!
//! # Recovery scan
//!
//! [`scan_manifest`] is a pure function over the journal bytes: it walks
//! `[u32 len][u32 crc][payload]` frames from the start, stops at the
//! first torn or corrupt frame (counted in `serve.ckpt.manifest_torn`),
//! and never panics. Records replay into per-tenant chains, newest first;
//! [`Prune`](Record::Prune) records drop what retention already deleted.
//! Recovery then walks each chain newest → oldest, loading each image
//! through [`CheckpointStore::load`]: the loader reads every byte once and
//! answers the length and CRC-32 it read, and an image whose file size,
//! read length or CRC disagrees with its record is not trusted. It falls
//! back to the session template only when no committed checkpoint loads.
//!
//! # Retention
//!
//! The committer keeps the newest `retain` checkpoints per tenant: older
//! image files are deleted after a `Prune` record is durably appended, so
//! the journal never names a file that retention still needs. Pruning
//! never touches the newest committed entry (`retain` is clamped to ≥ 1).
//! When the journal outgrows [`COMPACT_BYTES`] it is compacted — rewritten
//! with only live records through [`write_atomic`].
//!
//! Chaos: the `ckpt.crash` site tears any [`write_temp`] (an image in step
//! 2, a compacted journal) and `ckpt.torn_manifest` tears any journal
//! append (step 5), each at a seeded byte boundary, leaving the directory
//! exactly as a process death would; `ckpt.slow` stalls the committer
//! before step 4. `tests/serving.rs` recovers from seeded deaths at both.
//!
//! Metrics: `serve.ckpt.commit_ns` is what the request pays (the wait for
//! the tenant's previous commit, plus the temp write); `serve.ckpt.durable_ns`
//! is staged → record durable. The committer's `ckpt.publish` trace span,
//! one per image, shows which disk sync a slow request was queued behind.
//! `serve.ckpt.failures` counts each failed attempt once, on whichever
//! thread it failed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use mst_telemetry as tel;
use mst_vkernel::crc::crc32;
use mst_vkernel::fault;
use mst_vkernel::io::{sync_dir, write_atomic, write_temp, TempFile, WriteError};

/// Journal header: identifies a checkpoint MANIFEST.
const MANIFEST_MAGIC: &[u8; 8] = b"MSTCKPT1";
/// Largest frame payload the scanner will believe; real records are tens
/// of bytes, so anything larger is corruption (or a torn length word).
const MAX_PAYLOAD: u32 = 256;
/// Journal size that triggers compaction on the next commit.
const COMPACT_BYTES: u64 = 1 << 20;

const KIND_COMMIT: u8 = 1;
const KIND_PRUNE: u8 = 2;

/// One committed checkpoint: the payload of a MANIFEST commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// Tenant the checkpoint belongs to.
    pub tenant: u64,
    /// Session epoch the image was taken at.
    pub epoch: u64,
    /// Tenant crash-restart count at commit time (recovered along with
    /// the epoch after a process death).
    pub restarts: u64,
    /// Exact image file length, verified before the image is trusted.
    pub file_len: u64,
    /// CRC-32 of the image bytes, verified before the image is trusted.
    pub file_crc: u32,
}

impl Commit {
    /// The checkpoint's image file name, `tenant{N}.e{E}.{C}.image` with
    /// the image's CRC-32 as eight hex digits: a re-commit at the same
    /// epoch never renames over the file an earlier record names.
    pub fn file_name(&self) -> String {
        format!(
            "tenant{}.e{}.{:08x}.image",
            self.tenant, self.epoch, self.file_crc
        )
    }
}

/// A decoded MANIFEST record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A checkpoint became durable.
    Commit(Commit),
    /// Retention deleted this tenant's checkpoints with `epoch <
    /// upto_epoch`; the scan must stop resurrecting them.
    Prune {
        /// Tenant whose old checkpoints were deleted.
        tenant: u64,
        /// Exclusive epoch bound: strictly older entries are gone.
        upto_epoch: u64,
    },
}

/// A checkpoint-store failure. I/O and injected crashes surface here; the
/// recovery scan itself never fails (it degrades to shorter chains).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failed; `ctx` names the step.
    Io {
        /// Which step failed (`"image write"`, `"manifest append"`, …).
        ctx: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A chaos site abandoned the write mid-way (simulated process
    /// death); the on-disk state is exactly what a real crash leaves.
    Injected {
        /// The fault site that fired (`"ckpt.crash"`, …).
        site: &'static str,
        /// The byte boundary the write was abandoned at.
        boundary: u64,
    },
    /// An image file disagrees with its commit record (wrong length or
    /// CRC) — corruption after commit, detected before the bytes are
    /// trusted.
    ImageMismatch {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { ctx, source } => write!(f, "checkpoint {ctx} failed: {source}"),
            StoreError::Injected { site, boundary } => {
                write!(
                    f,
                    "checkpoint abandoned at byte {boundary} ({site} injected)"
                )
            }
            StoreError::ImageMismatch { path, detail } => {
                write!(f, "checkpoint image {} corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(ctx: &'static str) -> impl FnOnce(io::Error) -> StoreError {
    move |source| StoreError::Io { ctx, source }
}

/// An injected death inside a commit, counted.
fn injected(site: &'static str, boundary: u64) -> StoreError {
    tel::counter!("serve.ckpt.commit_failures").incr();
    StoreError::Injected { site, boundary }
}

/// The store's reading of a failed [`write_atomic`] of `ctx`: a tear is
/// the injected death it simulates.
fn write_err(ctx: &'static str) -> impl FnOnce(WriteError) -> StoreError {
    move |e| match e {
        WriteError::Io(source) => StoreError::Io { ctx, source },
        WriteError::Torn { boundary } => injected("ckpt.crash", boundary),
    }
}

// ---------------------------------------------------------------------------
// Record encoding

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a record as a `[u32 len][u32 crc][payload]` frame.
fn encode_frame(record: &Record) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    match record {
        Record::Commit(c) => {
            payload.push(KIND_COMMIT);
            put_u64(&mut payload, c.tenant);
            put_u64(&mut payload, c.epoch);
            put_u64(&mut payload, c.restarts);
            put_u64(&mut payload, c.file_len);
            put_u64(&mut payload, c.file_crc as u64);
        }
        Record::Prune { tenant, upto_epoch } => {
            payload.push(KIND_PRUNE);
            put_u64(&mut payload, *tenant);
            put_u64(&mut payload, *upto_epoch);
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn get_u64(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = payload.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Decodes one frame payload; `None` means a structurally invalid record.
fn decode_payload(payload: &[u8]) -> Option<Record> {
    let kind = *payload.first()?;
    let mut pos = 1;
    let record = match kind {
        KIND_COMMIT => Record::Commit(Commit {
            tenant: get_u64(payload, &mut pos)?,
            epoch: get_u64(payload, &mut pos)?,
            restarts: get_u64(payload, &mut pos)?,
            file_len: get_u64(payload, &mut pos)?,
            file_crc: u32::try_from(get_u64(payload, &mut pos)?).ok()?,
        }),
        KIND_PRUNE => Record::Prune {
            tenant: get_u64(payload, &mut pos)?,
            upto_epoch: get_u64(payload, &mut pos)?,
        },
        _ => return None,
    };
    (pos == payload.len()).then_some(record)
}

/// What a manifest scan found.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every valid record, in journal order.
    pub records: Vec<Record>,
    /// Bytes of the journal that form the valid prefix (header + whole,
    /// checksummed frames). Everything past this is a torn or corrupt
    /// tail.
    pub valid_len: usize,
    /// Whether a torn/corrupt tail (or a bad header) was found and
    /// dropped.
    pub torn: bool,
}

/// Walks MANIFEST bytes, collecting the valid record prefix. Tolerates a
/// missing header, torn frames, corrupt checksums and garbage lengths by
/// stopping at the first invalid byte — it never panics and never reads
/// past what the checksums vouch for.
pub fn scan_manifest(bytes: &[u8]) -> Scan {
    let mut scan = Scan::default();
    if !bytes.starts_with(MANIFEST_MAGIC) {
        scan.torn = !bytes.is_empty();
        return scan;
    }
    let mut pos = MANIFEST_MAGIC.len();
    loop {
        let Some(header) = bytes.get(pos..pos + 8) else {
            // Torn mid-frame-header (or clean EOF when pos == len).
            scan.torn = pos != bytes.len();
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_PAYLOAD {
            scan.torn = true;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            scan.torn = true; // torn mid-payload
            break;
        };
        if crc32(payload) != crc {
            scan.torn = true;
            break;
        }
        let Some(record) = decode_payload(payload) else {
            scan.torn = true;
            break;
        };
        scan.records.push(record);
        pos += 8 + len as usize;
        scan.valid_len = pos;
    }
    if scan.valid_len == 0 {
        scan.valid_len = MANIFEST_MAGIC.len().min(bytes.len());
    }
    scan
}

/// Replays scanned records into per-tenant chains, newest first. A
/// re-commit at an existing epoch supersedes the older record (and its
/// file, which the committer deletes once the new record is durable);
/// prunes drop strictly-older epochs.
pub fn chains_from_records(records: &[Record]) -> BTreeMap<u64, Vec<Commit>> {
    let mut chains: BTreeMap<u64, Vec<Commit>> = BTreeMap::new();
    for record in records {
        match record {
            Record::Commit(c) => {
                let chain = chains.entry(c.tenant).or_default();
                chain.retain(|old| old.epoch != c.epoch);
                chain.push(*c);
            }
            Record::Prune { tenant, upto_epoch } => {
                if let Some(chain) = chains.get_mut(tenant) {
                    chain.retain(|c| c.epoch >= *upto_epoch);
                }
            }
        }
    }
    for chain in chains.values_mut() {
        // Journal order is already oldest→newest per epoch; sort by epoch
        // descending so index 0 is the newest committed checkpoint.
        chain.sort_by_key(|c| std::cmp::Reverse(c.epoch));
    }
    chains
}

struct Inner {
    /// Append handle on MANIFEST.
    manifest: File,
    /// Bytes of valid journal (where the next append lands).
    manifest_len: u64,
    /// Whether the file may hold bytes past `manifest_len`: a failed
    /// append left a torn or partial frame there, which the next append
    /// truncates away before it writes.
    torn_tail: bool,
    /// Per-tenant committed chains, newest first.
    chains: BTreeMap<u64, Vec<Commit>>,
}

/// An image written to its temp file and handed to the committer.
struct Staged {
    commit: Commit,
    temp: TempFile,
    staged_ns: u64,
    ticket: mpsc::Sender<Result<PathBuf, StoreError>>,
}

/// A staged checkpoint. [`wait`](Ticket::wait) answers once its record is
/// durable or its commit failed; dropping the ticket does not cancel the
/// commit.
#[derive(Debug)]
pub struct Ticket(mpsc::Receiver<Result<PathBuf, StoreError>>);

impl Ticket {
    /// Blocks until the committer has finished this image: its durable
    /// path, or why it was not committed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the image's fsync or rename or the journal
    /// append failed; [`StoreError::Injected`] when a chaos site tore the
    /// append. The previous committed chain is untouched, files included.
    pub fn wait(self) -> Result<PathBuf, StoreError> {
        self.0.recv().unwrap_or_else(|_| Err(committer_died()))
    }
}

fn committer_died() -> StoreError {
    StoreError::Io {
        ctx: "image publish",
        source: io::Error::other("the checkpoint committer died"),
    }
}

/// The hand-off between the threads that stage images and the committer.
#[derive(Default)]
struct Queue {
    /// Images written to their temp files, oldest first.
    staged: VecDeque<Staged>,
    /// Tenants with an image staged or being published: at most one each.
    in_flight: BTreeSet<u64>,
    /// Set by `Drop`: the committer drains what is staged, then exits.
    closing: bool,
}

/// What the request threads and the committer share.
struct Shared {
    dir: PathBuf,
    retain: usize,
    inner: Mutex<Inner>,
    queue: Mutex<Queue>,
    /// Wakes the committer: an image was staged, or the store is closing.
    work: Condvar,
    /// Wakes stagers and readers: a tenant's image left flight.
    finished: Condvar,
}

/// The durable per-tenant checkpoint store. One instance owns one
/// directory and one committer thread; all commits funnel through it so
/// MANIFEST order is total.
pub struct CheckpointStore {
    shared: Arc<Shared>,
    committer: Option<JoinHandle<()>>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.shared.dir)
            .field("retain", &self.shared.retain)
            .finish()
    }
}

/// Locks a store mutex. Nothing runs user code under these locks; poison
/// just means a peer thread died mid-commit, and the on-disk journal is
/// the source of truth anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A commit that will not happen, counted once per attempt.
fn failed(e: StoreError) -> StoreError {
    tel::counter!("serve.ckpt.failures").incr();
    e
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`, keeping the newest
    /// `retain` checkpoints per tenant (clamped to ≥ 1: pruning never
    /// touches the newest committed entry), and starts its committer.
    ///
    /// The open performs the recovery scan: the MANIFEST's valid prefix
    /// is replayed into per-tenant chains, a torn tail is truncated away
    /// (it would otherwise block future appends from ever parsing), and
    /// stale `*.tmp` droppings from interrupted writes are removed, as are
    /// the images no live record names. A corrupt or missing journal
    /// yields empty chains, never an error — recovery then falls back to
    /// the template.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (directory creation, journal open, starting
    /// the committer) — corruption is tolerated, not reported.
    pub fn open(dir: &Path, retain: usize) -> Result<CheckpointStore, StoreError> {
        fs::create_dir_all(dir).map_err(io_err("directory create"))?;
        let path = dir.join("MANIFEST");
        let bytes = fs::read(&path).unwrap_or_default();
        let scan = scan_manifest(&bytes);
        if scan.torn {
            tel::counter!("serve.ckpt.manifest_torn").incr();
        }
        let chains = chains_from_records(&scan.records);
        let fresh = !bytes.starts_with(MANIFEST_MAGIC);
        // Reclaim what a crash left behind: temp files of interrupted
        // writes, and images whose record never became durable or was
        // superseded or pruned before the file could be deleted. Images
        // are left alone when the journal itself is unrecognizable.
        let live: BTreeSet<String> = chains.values().flatten().map(Commit::file_name).collect();
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let image = name.starts_with("tenant") && name.ends_with(".image");
                if name.ends_with(".tmp") || (image && !fresh && !live.contains(&name)) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let mut manifest = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(io_err("manifest open"))?;
        if fresh {
            // New (or unrecognizable) journal: start it with the header.
            manifest.set_len(0).map_err(io_err("manifest reset"))?;
            manifest
                .write_all(MANIFEST_MAGIC)
                .map_err(io_err("manifest header"))?;
            manifest.sync_all().map_err(io_err("manifest sync"))?;
        } else if (scan.valid_len as u64) < bytes.len() as u64 {
            // Truncate the torn tail so the next append parses.
            manifest
                .set_len(scan.valid_len as u64)
                .map_err(io_err("manifest truncate"))?;
            manifest.sync_all().map_err(io_err("manifest sync"))?;
        }
        let manifest_len = if fresh {
            MANIFEST_MAGIC.len() as u64
        } else {
            scan.valid_len as u64
        };
        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            retain: retain.max(1),
            inner: Mutex::new(Inner {
                manifest,
                manifest_len,
                torn_tail: false,
                chains,
            }),
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ckpt-committer".into())
                .spawn(move || shared.run_committer())
                .map_err(io_err("committer start"))?
        };
        Ok(CheckpointStore {
            shared,
            committer: Some(committer),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Tenants with at least one committed checkpoint, once no tenant has
    /// an image in flight.
    pub fn tenants(&self) -> Vec<u64> {
        drop(self.shared.wait_for(|q| q.in_flight.is_empty()));
        lock(&self.shared.inner).chains.keys().copied().collect()
    }

    /// `tenant`'s committed chain, newest first, once the tenant has no
    /// image in flight. Other tenants' commits are not waited for.
    pub fn chain(&self, tenant: u64) -> Vec<Commit> {
        drop(self.shared.wait_for(|q| !q.in_flight.contains(&tenant)));
        let inner = lock(&self.shared.inner);
        inner.chains.get(&tenant).cloned().unwrap_or_default()
    }

    /// `tenant`'s newest committed checkpoint, if any, once the tenant has
    /// no image in flight.
    pub fn newest(&self, tenant: u64) -> Option<Commit> {
        self.chain(tenant).first().copied()
    }

    /// Commits the image `write` produces as `tenant`'s checkpoint at
    /// `epoch` and waits until it is durable, returning its path:
    /// [`stage`](Self::stage), then [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Whatever [`stage`](Self::stage) or [`Ticket::wait`] answers; in
    /// every case the previous committed chain is untouched.
    pub fn commit(
        &self,
        tenant: u64,
        epoch: u64,
        restarts: u64,
        write: impl FnOnce(&mut dyn Write) -> io::Result<u32>,
    ) -> Result<PathBuf, StoreError> {
        self.stage(tenant, epoch, restarts, write)?.wait()
    }

    /// The request thread's half of a commit. Waits until `tenant` has no
    /// image in flight, streams the image `write` produces into
    /// `tenant{N}.e{E}.image.tmp` with no fsync, and queues it for the
    /// committer, which renames it to its record's file name, makes it
    /// durable and appends its record.
    ///
    /// `write` streams the image and returns the CRC-32 of every byte it
    /// wrote; that CRC is what the commit record stores (debug builds
    /// re-read the temp file and assert it). The writer counts the length.
    /// No store lock is held while `write` runs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temp file cannot be written or `write`
    /// fails (the temp file is removed); [`StoreError::Injected`] when the
    /// `ckpt.crash` site tore it. Nothing is queued, and the failure is
    /// counted in `serve.ckpt.failures`.
    pub fn stage(
        &self,
        tenant: u64,
        epoch: u64,
        restarts: u64,
        write: impl FnOnce(&mut dyn Write) -> io::Result<u32>,
    ) -> Result<Ticket, StoreError> {
        let t0 = tel::now_ns();
        let shared = &*self.shared;
        let claim = shared.claim(tenant);
        // The file name needs the CRC, so the temp file is named without it.
        let stem = shared.dir.join(format!("tenant{tenant}.e{epoch}.image"));
        let (file_crc, file_len, temp) = write_temp(&stem, write)
            .map_err(write_err("image write"))
            .map_err(failed)?;
        let commit = Commit {
            tenant,
            epoch,
            restarts,
            file_len,
            file_crc,
        };
        #[cfg(debug_assertions)]
        {
            let bytes = fs::read(temp.temp_path()).map_err(io_err("image re-read"))?;
            assert_eq!(
                (bytes.len() as u64, crc32(&bytes)),
                (commit.file_len, commit.file_crc),
                "{}: the writer's length and CRC disagree with the bytes on disk",
                temp.temp_path().display()
            );
        }
        let (ticket, outcome) = mpsc::channel();
        lock(&shared.queue).staged.push_back(Staged {
            commit,
            temp,
            staged_ns: tel::now_ns(),
            ticket,
        });
        // The committer now owns the tenant's in-flight slot.
        std::mem::forget(claim);
        shared.work.notify_one();
        tel::histogram!("serve.ckpt.commit_ns").record(tel::now_ns().saturating_sub(t0));
        Ok(Ticket(outcome))
    }

    /// Rewrites MANIFEST with only the live commit records (through
    /// [`write_atomic`]), bounding journal growth. Exposed for tests;
    /// the committer triggers it automatically past [`COMPACT_BYTES`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on I/O failure; the old journal stays in place.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = lock(&self.shared.inner);
        self.shared.compact_locked(&mut inner)
    }

    /// Loads a committed checkpoint through `load`, which reads the image
    /// once and answers what it built with the length and CRC-32 of the
    /// bytes it consumed. The result is trusted only when the file's size,
    /// that length and that CRC all match the record: that catches what no
    /// check inside the image can — trailing bytes, or a whole valid image
    /// of another epoch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened or `load` fails;
    /// [`StoreError::ImageMismatch`] when the file disagrees with the
    /// record (post-commit corruption) — callers fall back down the chain.
    pub fn load<T>(
        &self,
        commit: &Commit,
        load: impl FnOnce(&mut dyn Read) -> io::Result<(T, u64, u32)>,
    ) -> Result<T, StoreError> {
        let path = self.shared.dir.join(commit.file_name());
        let file = File::open(&path).map_err(io_err("image open"))?;
        let size = file.metadata().map_err(io_err("image open"))?.len();
        let (value, len, crc) = load(&mut BufReader::new(file)).map_err(io_err("image load"))?;
        let want = (commit.file_len, commit.file_crc);
        if size != want.0 || (len, crc) != want {
            return Err(StoreError::ImageMismatch {
                path,
                detail: format!(
                    "read {len} of {size} bytes with CRC {crc:#010x}, record says {} bytes \
                     with CRC {:#010x}",
                    want.0, want.1
                ),
            });
        }
        Ok(value)
    }
}

impl Drop for CheckpointStore {
    /// Lets the committer finish every staged image, then joins it.
    fn drop(&mut self) {
        lock(&self.shared.queue).closing = true;
        self.shared.work.notify_all();
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
    }
}

/// Releases a tenant's in-flight slot if staging fails (or panics) before
/// the image reaches the committer.
struct Claim<'a> {
    shared: &'a Shared,
    tenant: u64,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock(&self.shared.queue).in_flight.remove(&self.tenant);
        self.shared.finished.notify_all();
    }
}

impl Shared {
    /// Waits until `ready` holds of the queue, answering it locked.
    fn wait_for(&self, ready: impl Fn(&Queue) -> bool) -> MutexGuard<'_, Queue> {
        let mut queue = lock(&self.queue);
        while !ready(&queue) {
            queue = self.finished.wait(queue).unwrap_or_else(|p| p.into_inner());
        }
        queue
    }

    /// Waits until `tenant` has no image in flight, then takes its slot: a
    /// tenant's next checkpoint waits for the last one rather than skipping
    /// or superseding it, so its temp name is never written twice at once.
    fn claim(&self, tenant: u64) -> Claim<'_> {
        self.wait_for(|q| !q.in_flight.contains(&tenant))
            .in_flight
            .insert(tenant);
        Claim {
            shared: self,
            tenant,
        }
    }

    /// The committer thread: publishes each staged image, oldest first,
    /// until the store closes and nothing is left.
    fn run_committer(&self) {
        loop {
            let staged = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(staged) = queue.staged.pop_front() {
                        break staged;
                    }
                    if queue.closing {
                        return;
                    }
                    queue = self.work.wait(queue).unwrap_or_else(|p| p.into_inner());
                }
            };
            self.publish(staged);
        }
    }

    /// Makes one staged image durable, then completes its ticket and frees
    /// its tenant's slot.
    fn publish(&self, staged: Staged) {
        let Staged {
            commit,
            temp,
            staged_ns,
            ticket,
        } = staged;
        let mut span = tel::span("ckpt.publish", "serve");
        span.set_arg("tenant", commit.tenant);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.make_durable(commit, temp)))
            .unwrap_or_else(|_| Err(committer_died()));
        match &outcome {
            Ok(_) => tel::histogram!("serve.ckpt.durable_ns")
                .record(tel::now_ns().saturating_sub(staged_ns)),
            Err(_) => tel::counter!("serve.ckpt.failures").incr(),
        }
        // An auto-checkpoint's ticket is already dropped.
        let _ = ticket.send(outcome);
        lock(&self.queue).in_flight.remove(&commit.tenant);
        self.finished.notify_all();
    }

    /// The committer's half of the commit protocol for one image: fsync it
    /// and rename it to its record's file name, fsync the directory, then
    /// record it. A failed record leaves the renamed image to the next
    /// open: if the append's bytes reached the disk after all, a record
    /// names it.
    fn make_durable(&self, commit: Commit, temp: TempFile) -> Result<PathBuf, StoreError> {
        fault::ckpt_slow();
        let path = self.dir.join(commit.file_name());
        temp.persist(&path).map_err(io_err("image write"))?;
        sync_dir(&self.dir);
        self.record(&mut lock(&self.inner), commit)?;
        Ok(path)
    }

    /// Appends `commit`'s record, and a `Prune` record if its tenant's
    /// chain then outgrows retention, in one fsynced journal write. Only
    /// then updates the chain, deletes the files no record names any more —
    /// the image this one superseded at its epoch, and the pruned ones — and
    /// compacts a journal past [`COMPACT_BYTES`]. So the journal never names
    /// a file that is gone.
    fn record(&self, inner: &mut Inner, commit: Commit) -> Result<(), StoreError> {
        let mut chain = inner
            .chains
            .get(&commit.tenant)
            .cloned()
            .unwrap_or_default();
        // An identical image has the same name: its file is the new one.
        let mut doomed: Vec<Commit> = chain
            .iter()
            .filter(|old| old.epoch == commit.epoch && old.file_name() != commit.file_name())
            .copied()
            .collect();
        chain.retain(|old| old.epoch != commit.epoch);
        chain.push(commit);
        chain.sort_by_key(|c| std::cmp::Reverse(c.epoch));
        let mut records = vec![Record::Commit(commit)];
        let mut pruned = 0;
        // Pruning never touches the newest `retain` entries.
        if chain.len() > self.retain {
            records.push(Record::Prune {
                tenant: commit.tenant,
                upto_epoch: chain[self.retain - 1].epoch,
            });
            let old = chain.split_off(self.retain);
            pruned = old.len() as u64;
            doomed.extend(old);
        }
        self.append(inner, &records)?;
        tel::counter!("serve.ckpt.commits").incr();
        tel::counter!("serve.ckpt.pruned").add(pruned);
        for old in &doomed {
            let _ = fs::remove_file(self.dir.join(old.file_name()));
        }
        inner.chains.insert(commit.tenant, chain);
        if inner.manifest_len > COMPACT_BYTES {
            // Every record is already durable; a failed compaction leaves
            // the old journal in place and is retried after the next commit.
            let _ = self.compact_locked(inner);
        }
        Ok(())
    }

    /// Appends `records` to the journal in one write and fsyncs it: the
    /// one way a record becomes durable. A failed append leaves
    /// `manifest_len` at the last valid frame and marks the tail torn, so
    /// the next append first truncates the file back to it — otherwise its
    /// records would land after garbage the recovery scan stops at. The
    /// `ckpt.torn_manifest` site tears the append at a seeded byte
    /// boundary, as a death mid-append would: the torn prefix is durable
    /// and the records are not.
    fn append(&self, inner: &mut Inner, records: &[Record]) -> Result<(), StoreError> {
        if inner.torn_tail {
            inner
                .manifest
                .set_len(inner.manifest_len)
                .and_then(|()| inner.manifest.sync_all())
                .map_err(io_err("manifest truncate"))?;
            inner.torn_tail = false;
        }
        let frames: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        let torn = fault::ckpt_torn_manifest(frames.len() as u64);
        let n = torn.unwrap_or(frames.len() as u64);
        inner.torn_tail = true;
        inner
            .manifest
            .write_all(&frames[..n as usize])
            .and_then(|()| inner.manifest.sync_all())
            .map_err(io_err("manifest append"))?;
        if let Some(boundary) = torn {
            return Err(injected("ckpt.torn_manifest", boundary));
        }
        inner.torn_tail = false;
        inner.manifest_len += n;
        Ok(())
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let path = self.dir.join("MANIFEST");
        let ((), len) = write_atomic(&path, |w| {
            w.write_all(MANIFEST_MAGIC)?;
            // Oldest→newest per tenant, so a rescan replays to the same chains.
            for commit in inner.chains.values().flat_map(|c| c.iter().rev()) {
                w.write_all(&encode_frame(&Record::Commit(*commit)))?;
            }
            Ok(())
        })
        .map_err(write_err("manifest compact"))?;
        inner.manifest = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err("manifest reopen"))?;
        inner.manifest_len = len;
        inner.torn_tail = false;
        tel::counter!("serve.ckpt.compactions").incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_vkernel::fault::{ChaosConfig, FaultSite};

    /// One test at a time touches a store: the fault registry is
    /// process-global, so the test that arms the `ckpt.*` sites would
    /// otherwise tear a commit some other test is making concurrently.
    static STORE_TESTS: Mutex<()> = Mutex::new(());

    /// Disarms the fault registry and restores its default stall when
    /// dropped, so a failing assertion cannot leave chaos armed.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            fault::disable();
            fault::set_stall_ns(200_000);
        }
    }

    fn arm(site: FaultSite, seed: u64) {
        fault::install(ChaosConfig {
            seed,
            rate: 1.0,
            sites: site.bit(),
        });
    }

    fn epochs(chain: &[Commit]) -> Vec<u64> {
        chain.iter().map(|c| c.epoch).collect()
    }

    fn temp_store(
        tag: &str,
        retain: usize,
    ) -> (PathBuf, CheckpointStore, std::sync::MutexGuard<'static, ()>) {
        let alone = STORE_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!(
            "mst_ckpt_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, retain).expect("store opens");
        (dir, store, alone)
    }

    /// The writer callback that streams an in-memory image.
    fn image(bytes: &[u8]) -> impl FnOnce(&mut dyn Write) -> io::Result<u32> + '_ {
        move |w| {
            w.write_all(bytes)?;
            Ok(crc32(bytes))
        }
    }

    fn fake_image(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(tag)).collect()
    }

    /// Loads a committed image's bytes through [`CheckpointStore::load`],
    /// with a loader that reads the whole file.
    fn read(store: &CheckpointStore, commit: &Commit) -> Result<Vec<u8>, StoreError> {
        store.load(commit, |r| {
            let mut bytes = Vec::new();
            r.read_to_end(&mut bytes)?;
            let (len, crc) = (bytes.len() as u64, crc32(&bytes));
            Ok((bytes, len, crc))
        })
    }

    fn file_names(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// The image files in `dir`, sorted.
    fn images(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = file_names(dir)
            .into_iter()
            .filter(|n| n.ends_with(".image"))
            .collect();
        names.sort();
        names
    }

    /// The file name a commit of `bytes` as `tenant`'s checkpoint at
    /// `epoch` is published under.
    fn image_name(tenant: u64, epoch: u64, bytes: &[u8]) -> String {
        Commit {
            tenant,
            epoch,
            restarts: 0,
            file_len: bytes.len() as u64,
            file_crc: crc32(bytes),
        }
        .file_name()
    }

    #[test]
    fn commit_read_and_reopen_round_trip() {
        let (dir, store, _alone) = temp_store("roundtrip", 4);
        let img1 = fake_image(3, 257);
        let img2 = fake_image(5, 513);
        store.commit(0, 1, 0, image(&img1)).expect("commit e1");
        store.commit(0, 2, 1, image(&img2)).expect("commit e2");
        store
            .commit(7, 4, 0, image(&img1))
            .expect("tenant 7 commit");

        let newest = store.newest(0).expect("chain exists");
        assert_eq!((newest.epoch, newest.restarts), (2, 1));
        assert_eq!(read(&store, &newest).unwrap(), img2);
        let chain = store.chain(0);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].epoch, 1);
        assert_eq!(read(&store, &chain[1]).unwrap(), img1);

        // Reopen: the journal replays to identical chains.
        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(store.chain(0).len(), 2);
        assert_eq!(store.newest(0).unwrap().epoch, 2);
        assert_eq!(store.newest(7).unwrap().epoch, 4);
        assert_eq!(store.tenants(), vec![0, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_epochs_but_never_the_newest() {
        let (dir, store, _alone) = temp_store("retention", 2);
        for epoch in 1..=5u64 {
            store
                .commit(0, epoch, 0, image(&fake_image(epoch as u8, 64)))
                .expect("commit");
        }
        let chain = store.chain(0);
        assert_eq!(
            chain.iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![5, 4],
            "retain=2 keeps the two newest"
        );
        // Pruned files are gone, kept files remain.
        let kept: Vec<String> = (4..=5u64)
            .map(|epoch| image_name(0, epoch, &fake_image(epoch as u8, 64)))
            .collect();
        assert_eq!(images(&dir), kept);
        // And the prune survives a reopen (the record is durable).
        drop(store);
        let store = CheckpointStore::open(&dir, 2).expect("reopen");
        assert_eq!(store.chain(0).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recommit_at_same_epoch_supersedes() {
        let (dir, store, _alone) = temp_store("recommit", 4);
        store.commit(0, 1, 0, image(&fake_image(1, 64))).unwrap();
        let img = fake_image(9, 96);
        store.commit(0, 1, 0, image(&img)).unwrap();
        let chain = store.chain(0);
        assert_eq!(chain.len(), 1, "same-epoch re-commit supersedes");
        assert_eq!(read(&store, &chain[0]).unwrap(), img);
        assert_eq!(
            images(&dir),
            [chain[0].file_name()],
            "the superseded image is deleted"
        );
        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(read(&store, &store.newest(0).unwrap()).unwrap(), img);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writer_leaves_no_temp_file_and_no_record() {
        let (dir, store, _alone) = temp_store("writerfail", 4);
        let img = fake_image(1, 64);
        store.commit(0, 1, 0, image(&img)).unwrap();
        let err = store
            .commit(0, 2, 0, |w| {
                w.write_all(&[7; 100])?;
                Err(io::Error::other("serializer failed"))
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Io {
                    ctx: "image write",
                    ..
                }
            ),
            "{err}"
        );
        let names = file_names(&dir);
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        let chain = store.chain(0);
        assert_eq!(chain.len(), 1, "the failed commit left no record");
        assert_eq!(read(&store, &chain[0]).unwrap(), img);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a rename that fails (a non-empty directory holds the
    /// final name) used to leave `tenant0.e2.image.tmp` behind.
    #[test]
    fn failed_rename_leaves_no_temp_file_and_no_record() {
        let (dir, store, _alone) = temp_store("renamefail", 4);
        let img = fake_image(1, 64);
        store.commit(0, 1, 0, image(&img)).unwrap();
        let manifest_before = fs::read(dir.join("MANIFEST")).unwrap();
        let blocked = dir.join(image_name(0, 2, &fake_image(2, 64)));
        fs::create_dir_all(blocked.join("occupied")).unwrap();
        let err = store
            .commit(0, 2, 0, image(&fake_image(2, 64)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Io {
                    ctx: "image write",
                    ..
                }
            ),
            "{err}"
        );
        let names = file_names(&dir);
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        assert_eq!(
            fs::read(dir.join("MANIFEST")).unwrap(),
            manifest_before,
            "no MANIFEST record was added"
        );
        let chain = store.chain(0);
        assert_eq!(chain.iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![1]);
        assert_eq!(read(&store, &chain[0]).unwrap(), img);
        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(read(&store, &store.newest(0).unwrap()).unwrap(), img);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_detected_by_length_and_crc() {
        let (dir, store, _alone) = temp_store("imgcorrupt", 4);
        let img = fake_image(1, 128);
        store.commit(0, 1, 0, image(&img)).unwrap();
        let newest = store.newest(0).unwrap();
        let path = dir.join(newest.file_name());
        let mismatch = |store: &CheckpointStore| {
            matches!(read(store, &newest), Err(StoreError::ImageMismatch { .. }))
        };

        // Bit flip: same length, wrong CRC.
        let mut bytes = img.clone();
        bytes[64] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(mismatch(&store));

        // Truncation and trailing bytes: wrong length.
        fs::write(&path, &img[..100]).unwrap();
        assert!(mismatch(&store));
        fs::write(&path, [&img[..], b"tail"].concat()).unwrap();
        assert!(mismatch(&store));

        // A loader that stops short of the record's length is not trusted
        // either, even though every byte it read is good.
        fs::write(&path, &img).unwrap();
        assert_eq!(read(&store, &newest).unwrap(), img);
        let short = store.load(&newest, |r| {
            let mut head = [0u8; 100];
            r.read_exact(&mut head)?;
            Ok(((), 100, crc32(&head)))
        });
        assert!(
            matches!(short, Err(StoreError::ImageMismatch { .. })),
            "{short:?}"
        );

        // A missing file is an I/O error, not a mismatch.
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            read(&store, &newest),
            Err(StoreError::Io {
                ctx: "image open",
                ..
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_chains_and_shrinks_the_journal() {
        let (dir, store, _alone) = temp_store("compact", 2);
        for epoch in 1..=20u64 {
            store
                .commit(0, epoch, 0, image(&fake_image(epoch as u8, 64)))
                .unwrap();
        }
        let before = fs::metadata(dir.join("MANIFEST")).unwrap().len();
        store.compact().expect("compaction");
        let after = fs::metadata(dir.join("MANIFEST")).unwrap().len();
        assert!(after < before, "compaction shrinks ({before} -> {after})");
        assert_eq!(
            store.chain(0).iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![20, 19]
        );
        drop(store);
        let store = CheckpointStore::open(&dir, 2).expect("reopen after compaction");
        assert_eq!(
            store.chain(0).iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![20, 19]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Acceptance property: crash-at-every-byte-boundary. Truncating the
    /// journal at *every* prefix length must scan without panicking to
    /// exactly the commits whose frames are fully contained in the
    /// prefix — committed entries are never lost, torn tails never
    /// resurrect.
    #[test]
    fn manifest_scan_survives_truncation_at_every_byte_boundary() {
        let commits: Vec<Record> = (1..=4u64)
            .map(|e| {
                Record::Commit(Commit {
                    tenant: e % 2,
                    epoch: e,
                    restarts: e / 2,
                    file_len: 100 + e,
                    file_crc: 0xABCD_0000 | e as u32,
                })
            })
            .collect();
        let mut bytes = MANIFEST_MAGIC.to_vec();
        let mut frame_ends = Vec::new();
        for record in &commits {
            bytes.extend_from_slice(&encode_frame(record));
            frame_ends.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan_manifest(&bytes[..cut]);
            let expect_records = frame_ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                scan.records.len(),
                expect_records,
                "cut at {cut}: committed prefix must survive exactly"
            );
            assert_eq!(&scan.records[..], &commits[..expect_records]);
            assert_eq!(
                scan.torn,
                cut != 0 && !frame_ends.contains(&cut) && cut != MANIFEST_MAGIC.len(),
                "cut at {cut}: torn flag"
            );
        }
    }

    /// Same property end-to-end: every truncation point of a real store's
    /// journal must open to a consistent (prefix) state.
    #[test]
    fn store_reopens_from_every_journal_truncation() {
        let (dir, store, _alone) = temp_store("everycut", 8);
        for epoch in 1..=3u64 {
            store
                .commit(1, epoch, 0, image(&fake_image(epoch as u8, 64)))
                .unwrap();
        }
        let manifest = fs::read(dir.join("MANIFEST")).unwrap();
        drop(store);
        let cut_dir = std::env::temp_dir().join(format!(
            "mst_ckpt_store_everycut_cut_{}",
            std::process::id()
        ));
        for cut in 0..=manifest.len() {
            let _ = fs::remove_dir_all(&cut_dir);
            fs::create_dir_all(&cut_dir).unwrap();
            fs::write(cut_dir.join("MANIFEST"), &manifest[..cut]).unwrap();
            let store = CheckpointStore::open(&cut_dir, 8).expect("open never fails on torn");
            let chain = store.chain(1);
            // The chain is some prefix of [1, 2, 3] worth of epochs,
            // newest-first and contiguous from 1.
            let epochs: Vec<u64> = chain.iter().map(|c| c.epoch).collect();
            let n = epochs.len() as u64;
            assert!(n <= 3);
            assert_eq!(epochs, (1..=n).rev().collect::<Vec<_>>(), "cut {cut}");
        }
        let _ = fs::remove_dir_all(&cut_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_journal_keeps_the_valid_prefix() {
        let (dir, store, _alone) = temp_store("midflip", 8);
        for epoch in 1..=3u64 {
            store
                .commit(0, epoch, 0, image(&fake_image(epoch as u8, 64)))
                .unwrap();
        }
        let path = dir.join("MANIFEST");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second frame's payload.
        let frame_len = encode_frame(&Record::Commit(store.chain(0)[0])).len();
        let pos = MANIFEST_MAGIC.len() + frame_len + 10;
        bytes[pos] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir, 8).expect("open tolerates corruption");
        assert_eq!(
            store.chain(0).iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![1],
            "only the pre-corruption prefix survives"
        );
        // And the store keeps working: the truncated journal accepts new
        // commits on top of the surviving prefix.
        store.commit(0, 5, 0, image(&fake_image(5, 64))).unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir, 8).unwrap();
        assert_eq!(
            store.chain(0).iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![5, 1]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_and_torn_manifest_lose_nothing_committed() {
        let _disarm = Disarm;

        let (dir, store, _alone) = temp_store("injected", 4);
        store.commit(0, 1, 0, image(&fake_image(1, 200))).unwrap();

        // ckpt.crash: the image write dies at a seeded boundary; the
        // committed chain is untouched and a torn .tmp is left behind.
        fault::install(ChaosConfig {
            seed: 11,
            rate: 1.0,
            sites: FaultSite::CkptCrash.bit(),
        });
        fault::set_kill_budget(1);
        let err = store
            .commit(0, 2, 0, image(&fake_image(2, 200)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Injected {
                    site: "ckpt.crash",
                    ..
                }
            ),
            "{err}"
        );
        fault::disable();
        assert_eq!(store.newest(0).unwrap().epoch, 1, "commit never happened");

        // ckpt.torn_manifest: the image renamed but the record tore; the
        // journal keeps its prefix, the orphan image is invisible.
        fault::install(ChaosConfig {
            seed: 12,
            rate: 1.0,
            sites: FaultSite::CkptTornManifest.bit(),
        });
        fault::set_kill_budget(1);
        let err = store
            .commit(0, 3, 0, image(&fake_image(3, 200)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Injected {
                    site: "ckpt.torn_manifest",
                    ..
                }
            ),
            "{err}"
        );
        fault::disable();
        drop(store);

        // "Process death": reopen from disk alone.
        let store = CheckpointStore::open(&dir, 4).expect("reopen after injected crashes");
        assert_eq!(
            store.chain(0).iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![1],
            "exactly the committed prefix survives"
        );
        assert_eq!(
            read(&store, &store.newest(0).unwrap()).unwrap(),
            fake_image(1, 200)
        );
        // The torn tail was truncated on open: appends work again.
        store.commit(0, 4, 1, image(&fake_image(4, 200))).unwrap();
        assert_eq!(store.newest(0).unwrap().epoch, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a failed append used to add the torn frame's bytes to
    /// the journal length, so the next commit landed after garbage the
    /// recovery scan stops at, and a reopen lost it.
    #[test]
    fn a_commit_after_a_failed_append_survives_reopen() {
        let _disarm = Disarm;
        let (dir, store, _alone) = temp_store("afterfail", 4);
        store.commit(0, 1, 0, image(&fake_image(1, 64))).unwrap();
        let manifest = dir.join("MANIFEST");
        let valid = fs::metadata(&manifest).unwrap().len();

        arm(FaultSite::CkptTornManifest, 21);
        fault::set_kill_budget(1);
        let err = store
            .commit(0, 2, 0, image(&fake_image(2, 64)))
            .unwrap_err();
        fault::disable();
        assert!(
            matches!(
                err,
                StoreError::Injected {
                    site: "ckpt.torn_manifest",
                    boundary: 1..,
                }
            ),
            "{err}"
        );
        assert!(
            fs::metadata(&manifest).unwrap().len() > valid,
            "the torn frame's bytes are on disk"
        );

        // The process keeps going: the next commit truncates the torn
        // tail before it appends.
        store
            .commit(0, 3, 0, image(&fake_image(3, 64)))
            .expect("the next commit lands");
        assert_eq!(epochs(&store.chain(0)), [3, 1]);
        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(
            epochs(&store.chain(0)),
            [3, 1],
            "the commit after the tear survives a reopen"
        );
        assert_eq!(
            read(&store, &store.newest(0).unwrap()).unwrap(),
            fake_image(3, 64)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A tenant has at most one image in flight: its next stage waits for
    /// the last one to finish rather than skipping or superseding it.
    #[test]
    fn a_tenants_next_stage_waits_for_its_last_commit() {
        let _disarm = Disarm;
        let (dir, store, _alone) = temp_store("oneinflight", 4);
        fault::set_stall_ns(50_000_000);
        arm(FaultSite::CkptSlow, 22);
        let first = store.stage(0, 1, 0, image(&fake_image(1, 64))).unwrap();
        let other = store.stage(1, 1, 0, image(&fake_image(7, 64))).unwrap();
        let second = store.stage(0, 2, 0, image(&fake_image(2, 64))).unwrap();
        let done = first.0.try_recv();
        assert!(
            done.is_ok(),
            "the second stage returned before the first commit finished"
        );
        fault::disable();
        done.unwrap().expect("commit");
        for ticket in [other, second] {
            ticket.wait().expect("commit");
        }
        assert_eq!(epochs(&store.chain(0)), [2, 1]);
        assert_eq!(epochs(&store.chain(1)), [1]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A rename that fails on the committer fails that image alone: every
    /// waiter is released, the failure is counted once, the other tenants'
    /// images commit, and the tenant's next checkpoint proceeds.
    #[test]
    fn a_failed_publish_releases_every_waiter() {
        let (dir, store, _alone) = temp_store("publishfail", 4);
        let blocked = dir.join(image_name(0, 1, &fake_image(1, 64)));
        fs::create_dir_all(blocked.join("occupied")).unwrap();
        let failures = tel::counter!("serve.ckpt.failures");
        let before = failures.get();
        let tickets: Vec<Ticket> = (0..3)
            .map(|t| store.stage(t, 1, 0, image(&fake_image(1, 64))).unwrap())
            .collect();
        let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(
            matches!(
                outcomes[0],
                Err(StoreError::Io {
                    ctx: "image write",
                    ..
                })
            ),
            "{:?}",
            outcomes[0]
        );
        assert!(outcomes[1..].iter().all(Result::is_ok), "{outcomes:?}");
        assert_eq!(failures.get() - before, 1, "one failure, counted once");
        assert_eq!(store.tenants(), [1, 2]);
        let names = file_names(&dir);
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");

        fs::remove_dir_all(&blocked).unwrap();
        store
            .commit(0, 1, 0, image(&fake_image(1, 64)))
            .expect("the tenant's next checkpoint proceeds");
        assert_eq!(store.tenants(), [0, 1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A re-commit at the same epoch with different bytes is published
    /// under its own name, never over the file the committed record names:
    /// when its append tears, the committed image still loads, in-process
    /// and after a reopen, and the reopen removes the image no record
    /// names.
    #[test]
    fn a_torn_recommit_keeps_the_committed_image_of_its_epoch() {
        let _disarm = Disarm;
        let (dir, store, _alone) = temp_store("tornrecommit", 4);
        let committed = fake_image(1, 64);
        store.commit(0, 1, 0, image(&committed)).unwrap();

        arm(FaultSite::CkptTornManifest, 23);
        fault::set_kill_budget(1);
        let err = store
            .commit(0, 1, 0, image(&fake_image(2, 64)))
            .unwrap_err();
        fault::disable();
        assert!(
            matches!(
                err,
                StoreError::Injected {
                    site: "ckpt.torn_manifest",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(read(&store, &store.newest(0).unwrap()).unwrap(), committed);
        assert_eq!(images(&dir).len(), 2, "the torn commit's image is orphaned");

        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        let chain = store.chain(0);
        assert_eq!(epochs(&chain), [1]);
        assert_eq!(read(&store, &chain[0]).unwrap(), committed);
        assert_eq!(
            images(&dir),
            [chain[0].file_name()],
            "the orphan is removed"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
