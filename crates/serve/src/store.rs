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
//! <dir>/MANIFEST               append-only, CRC-framed commit journal
//! <dir>/tenant{N}.e{E}.image   checkpoint image for tenant N, epoch E
//! <dir>/*.tmp                  in-flight writes (removed on open)
//! ```
//!
//! # Commit protocol
//!
//! A checkpoint exists only once its MANIFEST record is durable:
//!
//! 1. stream the image into `tenant{N}.e{E}.image.tmp` through a buffered
//!    writer, fsync (the writer returns the image's CRC-32, folded from its
//!    section checksums; debug builds re-read the file and assert it);
//! 2. rename over `tenant{N}.e{E}.image`, fsync the directory;
//! 3. append a CRC-framed [`Commit`] record to `MANIFEST`, fsync.
//!
//! A crash before step 3 leaves at worst a torn temp file or an orphan
//! image that no record names — invisible to recovery and reclaimed by
//! the next [`CheckpointStore::open`]. A crash *during* step 3 leaves a
//! torn final record; the scan keeps the journal's valid prefix and drops
//! the tail. Either way, every previously committed checkpoint survives.
//!
//! # Recovery scan
//!
//! [`scan_manifest`] is a pure function over the journal bytes: it walks
//! `[u32 len][u32 crc][payload]` frames from the start, stops at the
//! first torn or corrupt frame (counted in `serve.ckpt.manifest_torn`),
//! and never panics. Records replay into per-tenant chains, newest first;
//! [`Prune`](Record::Prune) records drop what retention already deleted.
//! Recovery then walks each chain newest → oldest (length- and
//! CRC-verifying every image before trusting it) and falls back to the
//! session template only when no committed checkpoint loads.
//!
//! # Retention
//!
//! [`commit`](CheckpointStore::commit) keeps the newest `retain`
//! checkpoints per tenant: older image files are deleted after a `Prune`
//! record is durably appended, so the journal never names a file that
//! retention still needs. Pruning never touches the newest committed
//! entry (`retain` is clamped to ≥ 1). When the journal outgrows
//! [`COMPACT_BYTES`] it is compacted — rewritten with only live records
//! via the same temp + fsync + rename discipline.
//!
//! Chaos: the `ckpt.crash` and `ckpt.torn_manifest` fault sites
//! ([`mst_vkernel::fault`]) tear step 1 (the written temp file is truncated
//! to the boundary and fsynced, never renamed) or step 3 at a seeded byte
//! boundary, leaving the directory exactly as a process death would;
//! `ckpt.slow` stalls the write. `tests/serving.rs` recovers from seeded
//! deaths at both sites.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mst_telemetry as tel;
use mst_vkernel::crc::crc32;
use mst_vkernel::fault;

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
    /// The checkpoint's image file name: `tenant{N}.e{E}.image`.
    pub fn file_name(&self) -> String {
        format!("tenant{}.e{}.image", self.tenant, self.epoch)
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

/// Runs an image writer over a buffered `file`, flushing it before handing
/// the file back with the writer's CRC.
fn stream_image(
    file: File,
    write: impl FnOnce(&mut dyn Write) -> io::Result<u32>,
) -> io::Result<(File, u32)> {
    let mut w = BufWriter::new(file);
    let crc = write(&mut w)?;
    let file = w.into_inner().map_err(|e| e.into_error())?;
    Ok((file, crc))
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
    if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
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
/// re-commit at an existing epoch supersedes the older record (same file,
/// rewritten atomically); prunes drop strictly-older epochs.
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
    /// Per-tenant committed chains, newest first.
    chains: BTreeMap<u64, Vec<Commit>>,
}

/// The durable per-tenant checkpoint store. One instance owns one
/// directory; all commits funnel through it so MANIFEST order is total.
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    inner: Mutex<Inner>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .finish()
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`, keeping the newest
    /// `retain` checkpoints per tenant (clamped to ≥ 1: pruning never
    /// touches the newest committed entry).
    ///
    /// The open performs the recovery scan: the MANIFEST's valid prefix
    /// is replayed into per-tenant chains, a torn tail is truncated away
    /// (it would otherwise block future appends from ever parsing), and
    /// stale `*.tmp` droppings from interrupted writes are removed. A
    /// corrupt or missing journal yields empty chains, never an error —
    /// recovery then falls back to the template.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (directory creation, journal open) —
    /// corruption is tolerated, not reported.
    pub fn open(dir: &Path, retain: usize) -> Result<CheckpointStore, StoreError> {
        fs::create_dir_all(dir).map_err(io_err("directory create"))?;
        // Reclaim temp droppings from writes a crash interrupted.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let path = dir.join("MANIFEST");
        let bytes = fs::read(&path).unwrap_or_default();
        let scan = scan_manifest(&bytes);
        if scan.torn {
            tel::counter("serve.ckpt.manifest_torn").incr();
        }
        let chains = chains_from_records(&scan.records);
        let fresh =
            bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC;
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
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            retain: retain.max(1),
            inner: Mutex::new(Inner {
                manifest,
                manifest_len,
                chains,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Tenants with at least one committed checkpoint.
    pub fn tenants(&self) -> Vec<u64> {
        self.lock().chains.keys().copied().collect()
    }

    /// `tenant`'s committed chain, newest first.
    pub fn chain(&self, tenant: u64) -> Vec<Commit> {
        self.lock().chains.get(&tenant).cloned().unwrap_or_default()
    }

    /// `tenant`'s newest committed checkpoint, if any.
    pub fn newest(&self, tenant: u64) -> Option<Commit> {
        self.lock()
            .chains
            .get(&tenant)
            .and_then(|c| c.first())
            .copied()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Commit takes no user code under the lock; poison just means a
        // peer thread died mid-commit, and the on-disk journal is the
        // source of truth anyway.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Commits the image `write` produces as `tenant`'s checkpoint at
    /// `epoch`, returning the durable path. Applies the commit protocol
    /// (temp + fsync + rename, then a fsynced MANIFEST append), then
    /// retention.
    ///
    /// `write` streams the image into the temp file and returns the CRC-32
    /// of every byte it wrote; that CRC is what the commit record stores
    /// (debug builds re-read the file and assert it). The store counts the
    /// length itself. No store lock is held while `write` runs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on real I/O failure or when `write` fails (the
    /// temp file is removed); [`StoreError::Injected`] when a chaos site
    /// abandoned the write. In every case the previous committed chain is
    /// untouched.
    pub fn commit(
        &self,
        tenant: u64,
        epoch: u64,
        restarts: u64,
        write: impl FnOnce(&mut dyn Write) -> io::Result<u32>,
    ) -> Result<PathBuf, StoreError> {
        let t0 = tel::now_ns();
        fault::ckpt_slow();
        let mut commit = Commit {
            tenant,
            epoch,
            restarts,
            file_len: 0,
            file_crc: 0,
        };
        let final_path = self.dir.join(commit.file_name());
        let tmp = self.dir.join(format!("{}.tmp", commit.file_name()));

        // Step 1: durable image bytes under a temp name.
        let file = File::create(&tmp).map_err(io_err("image create"))?;
        let (mut file, crc) = match stream_image(file, write) {
            Ok(written) => written,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(StoreError::Io {
                    ctx: "image write",
                    source: e,
                });
            }
        };
        commit.file_len = file.stream_position().map_err(io_err("image write"))?;
        commit.file_crc = crc;
        if let Some(boundary) = fault::ckpt_crash(commit.file_len) {
            // Simulated process death mid-write: persist exactly the torn
            // prefix and stop — no rename, no record, no cleanup.
            let _ = file.set_len(boundary);
            let _ = file.sync_all();
            tel::counter("serve.ckpt.commit_failures").incr();
            return Err(StoreError::Injected {
                site: "ckpt.crash",
                boundary,
            });
        }
        file.sync_all().map_err(io_err("image write"))?;
        drop(file);
        #[cfg(debug_assertions)]
        {
            let bytes = fs::read(&tmp).map_err(io_err("image re-read"))?;
            assert_eq!(bytes.len() as u64, commit.file_len, "{}", tmp.display());
            assert_eq!(
                crc32(&bytes),
                commit.file_crc,
                "{}: the writer's CRC disagrees with the bytes on disk",
                tmp.display()
            );
        }

        // Step 2: publish the image under its versioned name.
        fs::rename(&tmp, &final_path).map_err(io_err("image rename"))?;
        self.sync_dir();

        // Step 3: the commit point — a durable MANIFEST record.
        let frame = encode_frame(&Record::Commit(commit));
        let mut inner = self.lock();
        if let Some(boundary) = fault::ckpt_torn_manifest(frame.len() as u64) {
            // Simulated process death mid-append: the journal gains a torn
            // tail; the image file is an orphan no record names.
            let _ = inner.manifest.write_all(&frame[..boundary as usize]);
            let _ = inner.manifest.sync_all();
            inner.manifest_len += boundary;
            tel::counter("serve.ckpt.commit_failures").incr();
            return Err(StoreError::Injected {
                site: "ckpt.torn_manifest",
                boundary,
            });
        }
        inner
            .manifest
            .write_all(&frame)
            .and_then(|()| inner.manifest.sync_all())
            .map_err(io_err("manifest append"))?;
        inner.manifest_len += frame.len() as u64;
        let chain = inner.chains.entry(tenant).or_default();
        chain.retain(|old| old.epoch != epoch);
        chain.push(commit);
        chain.sort_by_key(|c| std::cmp::Reverse(c.epoch));
        tel::counter("serve.ckpt.commits").incr();

        self.apply_retention(&mut inner, tenant)?;
        if inner.manifest_len > COMPACT_BYTES {
            self.compact_locked(&mut inner)?;
        }
        tel::histogram("serve.ckpt.commit_ns").record(tel::now_ns().saturating_sub(t0));
        Ok(final_path)
    }

    /// Deletes checkpoints beyond the newest `retain` for `tenant`. The
    /// prune record goes durable *before* the files disappear, so the
    /// journal never names a file retention still needs.
    fn apply_retention(&self, inner: &mut Inner, tenant: u64) -> Result<(), StoreError> {
        let Some(chain) = inner.chains.get(&tenant) else {
            return Ok(());
        };
        if chain.len() <= self.retain {
            return Ok(());
        }
        let cutoff = chain[self.retain - 1].epoch;
        let doomed: Vec<Commit> = chain.iter().filter(|c| c.epoch < cutoff).copied().collect();
        let frame = encode_frame(&Record::Prune {
            tenant,
            upto_epoch: cutoff,
        });
        inner
            .manifest
            .write_all(&frame)
            .and_then(|()| inner.manifest.sync_all())
            .map_err(io_err("prune append"))?;
        inner.manifest_len += frame.len() as u64;
        for commit in &doomed {
            let _ = fs::remove_file(self.dir.join(commit.file_name()));
            tel::counter("serve.ckpt.pruned").incr();
        }
        inner
            .chains
            .get_mut(&tenant)
            .expect("chain exists")
            .retain(|c| c.epoch >= cutoff);
        Ok(())
    }

    /// Rewrites MANIFEST with only the live commit records (same temp,
    /// fsync, rename discipline), bounding journal growth. Exposed for
    /// tests; commits trigger it automatically past [`COMPACT_BYTES`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on I/O failure; the old journal stays in place.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        // Oldest→newest per tenant, so a rescan replays to the same chains.
        for chain in inner.chains.values() {
            for commit in chain.iter().rev() {
                bytes.extend_from_slice(&encode_frame(&Record::Commit(*commit)));
            }
        }
        let path = self.dir.join("MANIFEST");
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut file = File::create(&tmp).map_err(io_err("manifest compact create"))?;
        file.write_all(&bytes)
            .and_then(|()| file.sync_all())
            .map_err(io_err("manifest compact write"))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(io_err("manifest compact rename"))?;
        self.sync_dir();
        inner.manifest = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err("manifest reopen"))?;
        inner.manifest_len = bytes.len() as u64;
        tel::counter("serve.ckpt.compactions").incr();
        Ok(())
    }

    /// Reads and verifies a committed checkpoint's image bytes: the file
    /// must match the record's recorded length and CRC-32 exactly before
    /// a single byte is trusted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file is unreadable;
    /// [`StoreError::ImageMismatch`] when it disagrees with its record
    /// (post-commit corruption) — callers fall back down the chain.
    pub fn read_image(&self, commit: &Commit) -> Result<Vec<u8>, StoreError> {
        let path = self.dir.join(commit.file_name());
        let bytes = fs::read(&path).map_err(io_err("image read"))?;
        if bytes.len() as u64 != commit.file_len {
            return Err(StoreError::ImageMismatch {
                path,
                detail: format!(
                    "{} bytes on disk, record says {}",
                    bytes.len(),
                    commit.file_len
                ),
            });
        }
        let found = crc32(&bytes);
        if found != commit.file_crc {
            return Err(StoreError::ImageMismatch {
                path,
                detail: format!(
                    "CRC {found:#010x} on disk, record says {:#010x}",
                    commit.file_crc
                ),
            });
        }
        Ok(bytes)
    }

    /// Best-effort directory fsync (not every filesystem supports it).
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test at a time touches a store: the fault registry is
    /// process-global, so the test that arms the `ckpt.*` sites would
    /// otherwise tear a commit some other test is making concurrently.
    static STORE_TESTS: Mutex<()> = Mutex::new(());

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
        assert_eq!(store.read_image(&newest).unwrap(), img2);
        let chain = store.chain(0);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].epoch, 1);
        assert_eq!(store.read_image(&chain[1]).unwrap(), img1);

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
        for epoch in 1..=3u64 {
            assert!(!dir.join(format!("tenant0.e{epoch}.image")).exists());
        }
        for epoch in 4..=5u64 {
            assert!(dir.join(format!("tenant0.e{epoch}.image")).exists());
        }
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
        assert_eq!(store.read_image(&chain[0]).unwrap(), img);
        drop(store);
        let store = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(store.read_image(&store.newest(0).unwrap()).unwrap(), img);
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
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        let chain = store.chain(0);
        assert_eq!(chain.len(), 1, "the failed commit left no record");
        assert_eq!(store.read_image(&chain[0]).unwrap(), img);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_detected_by_length_and_crc() {
        let (dir, store, _alone) = temp_store("imgcorrupt", 4);
        store.commit(0, 1, 0, image(&fake_image(1, 128))).unwrap();
        let newest = store.newest(0).unwrap();
        let path = dir.join(newest.file_name());

        // Bit flip: same length, wrong CRC.
        let mut bytes = fs::read(&path).unwrap();
        bytes[64] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.read_image(&newest),
            Err(StoreError::ImageMismatch { .. })
        ));

        // Truncation: wrong length.
        fs::write(&path, &bytes[..100]).unwrap();
        assert!(matches!(
            store.read_image(&newest),
            Err(StoreError::ImageMismatch { .. })
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
        use mst_vkernel::fault::{self, ChaosConfig, FaultSite};
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                fault::disable();
            }
        }
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
            store.read_image(&store.newest(0).unwrap()).unwrap(),
            fake_image(1, 200)
        );
        // The torn tail was truncated on open: appends work again.
        store.commit(0, 4, 1, image(&fake_image(4, 200))).unwrap();
        assert_eq!(store.newest(0).unwrap().epoch, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
