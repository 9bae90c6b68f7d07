//! Crash-consistent virtual-image snapshots.
//!
//! Smalltalk-80 systems persist as a *virtual image* — "a static
//! representation or 'snapshot' of the compiled code, class descriptions,
//! etc." (paper §1, footnote 2). Because our oops are heap-relative word
//! indices, a snapshot is a straight dump of the used heap regions plus the
//! special-objects table, the entry table and the symbol intern table; it
//! reloads at any address.
//!
//! The paper's reorganization of `activeProcess` shows up here: MS "fill[s]
//! in the activeProcess slot before taking a snapshot and … empt[ies] it
//! afterwards" (§3.3). That slot manipulation is the scheduler layer's job
//! (`mst-interp`); this module only moves bits.
//!
//! # Format v3: sectioned, checksummed, durable
//!
//! The image on disk is the restart path after a processor failure, so it
//! must never be trusted blindly. Version 3 wraps every section in a
//! `[u64 byte-length][payload][u64 CRC-32]` frame:
//!
//! ```text
//! [MAGIC][VERSION]
//! config   — space sizes + fill levels (fixed 64 bytes)
//! specials — the special-objects table
//! entries  — the entry table (remembered set)
//! symbols  — the symbol intern table
//! old      — old space up to old_next
//! eden     — eden up to the allocation frontier
//! past     — the past survivor space up to its fill
//! ```
//!
//! The loader reads each byte once: the heap regions stream straight into
//! heap words in 4 KiB chunks, and every byte is checksummed once, into
//! its section's CRC, which is folded into a whole-file CRC the way the
//! writer folds it. It re-checks each section CRC, bounds-checks every
//! count, length and oop against the configured spaces, and finishes with
//! a structural walk of old space — any corruption yields a
//! [`SnapshotError`] naming the section and byte offset, never a panic.
//! The saver and the loader both answer the file's CRC-32 (the loader its
//! length too), so a caller holding a record of both — the checkpoint
//! store's `Commit` — catches what no section CRC can: trailing bytes, or
//! a whole valid image of the wrong epoch.
//!
//! Files are made durable elsewhere, by `mst_vkernel::io::write_atomic`
//! (temp file, fsync, rename, directory fsync), which callers hand
//! [`save_snapshot`](ObjectMemory::save_snapshot) as the writer.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering;

use mst_vkernel::crc::Crc32;

use crate::header::{Header, ObjFormat};
use crate::heap::{MemoryConfig, ObjectMemory};
use crate::method::MethodHeader;
use crate::oop::Oop;
use crate::special::SPECIAL_COUNT;

const MAGIC: u64 = 0x4D53_5F49_4D41_4745; // "MS_IMAGE"
                                          // Version history: 1 = initial format; 2 = So::LowSpaceSemaphore appended to
                                          // the special-objects table (the table is written by count, so any layout
                                          // change is a format change); 3 = sectioned format with per-section CRC-32
                                          // and a hardened, bounds-checking loader.
const VERSION: u64 = 3;

/// Longest symbol name the loader will accept, in bytes. Real selectors are
/// tens of bytes; anything larger is corruption.
const MAX_SYMBOL_BYTES: u64 = 1 << 16;

/// An error while writing or reading a snapshot, locating the failure by
/// section and absolute byte offset in the stream.
#[derive(Debug)]
pub struct SnapshotError {
    /// Which section was being processed (`"magic"`, `"config"`, `"old"`, …).
    pub section: &'static str,
    /// Absolute byte offset in the snapshot stream where the problem was
    /// detected (0 when unknown, e.g. failures before any bytes moved).
    pub offset: u64,
    /// What went wrong.
    pub kind: SnapshotErrorKind,
}

/// The failure category inside a [`SnapshotError`].
#[derive(Debug)]
pub enum SnapshotErrorKind {
    /// Underlying I/O failed (includes truncation: unexpected EOF).
    Io(io::Error),
    /// The stream does not start with the snapshot magic number.
    BadMagic,
    /// The snapshot was written by an incompatible version.
    BadVersion(u64),
    /// The loading memory's configured sizes differ from the snapshot's
    /// (oops are space-relative, so sizes must match exactly).
    SizeMismatch {
        /// What the snapshot requires (old, eden, survivor words).
        required: (usize, usize, usize),
    },
    /// A section's payload does not match its recorded CRC-32.
    Checksum {
        /// The checksum recorded in the stream.
        expected: u32,
        /// The checksum of the bytes actually read.
        found: u32,
    },
    /// A structurally invalid value: out-of-range length, count, oop or
    /// header. The message says which.
    Corrupt(String),
}

impl SnapshotError {
    fn new(section: &'static str, offset: u64, kind: SnapshotErrorKind) -> SnapshotError {
        SnapshotError {
            section,
            offset,
            kind,
        }
    }

    fn corrupt(section: &'static str, offset: u64, msg: impl Into<String>) -> SnapshotError {
        SnapshotError::new(section, offset, SnapshotErrorKind::Corrupt(msg.into()))
    }

    /// An I/O failure in `section` at byte `offset`.
    pub fn io(section: &'static str, offset: u64, e: io::Error) -> SnapshotError {
        SnapshotError::new(section, offset, SnapshotErrorKind::Io(e))
    }
}

/// Opens a snapshot file for reading, buffered; a failure names the path.
/// Every reader of a snapshot file opens it here.
pub fn open_snapshot(path: &Path) -> Result<BufReader<File>, SnapshotError> {
    let file = File::open(path).map_err(|e| {
        let e = io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        SnapshotError::io("open", 0, e)
    })?;
    Ok(BufReader::new(file))
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot section '{}' at byte offset {}: ",
            self.section, self.offset
        )?;
        match &self.kind {
            SnapshotErrorKind::Io(e) => write!(f, "i/o failed: {e}"),
            SnapshotErrorKind::BadMagic => f.write_str("not a Multiprocessor Smalltalk snapshot"),
            SnapshotErrorKind::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotErrorKind::SizeMismatch { required } => write!(
                f,
                "snapshot needs exactly old={} eden={} survivor={} words",
                required.0, required.1, required.2
            ),
            SnapshotErrorKind::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: recorded {expected:#010x}, computed {found:#010x}"
            ),
            SnapshotErrorKind::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            SnapshotErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Writing

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Words of a heap region staged per write or read: one CRC step and one
/// `write_all` / `read_exact` per 4 KiB instead of per word.
const REGION_CHUNK_WORDS: usize = 512;

/// Writes an image while folding the CRC-32 of every byte written, so the
/// caller learns the whole file's checksum without a second pass: small
/// pieces (magic, lengths, CRC words) are digested directly, and each
/// section payload's CRC, which the section frame needs anyway, is
/// [combined](Crc32::append_crc) in.
struct ImageWriter<'a, W: Write> {
    inner: &'a mut W,
    file: Crc32,
}

impl<W: Write> ImageWriter<'_, W> {
    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        let bytes = v.to_le_bytes();
        self.inner.write_all(&bytes)?;
        self.file.update(&bytes);
        Ok(())
    }

    /// Writes payload bytes of the open section, checksummed once into
    /// `section` only.
    fn payload(&mut self, section: &mut Crc32, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        section.update(bytes);
        Ok(())
    }

    /// Closes a section whose `len`-byte payload was checksummed into
    /// `section`: folds it into the file CRC and writes the CRC word.
    fn end_section(&mut self, section: Crc32, len: u64) -> io::Result<()> {
        let crc = section.finish();
        self.file.append_crc(crc, len);
        self.put_u64(crc as u64)
    }

    /// Writes one `[len][payload][crc]` section from an in-memory payload.
    fn section(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = payload.len() as u64;
        self.put_u64(len)?;
        let mut crc = Crc32::new();
        self.payload(&mut crc, payload)?;
        self.end_section(crc, len)
    }
}

// ---------------------------------------------------------------------------
// Reading

/// Reads an image while folding the CRC-32 of every byte read, the mirror
/// of [`ImageWriter`]: framing words (magic, lengths, CRC words) are
/// digested directly, and each section payload's CRC, which the frame
/// check computes anyway, is [combined](Crc32::append_crc) in. It tracks
/// the absolute offset of everything read, so errors can point at the
/// exact position in the stream.
struct ImageReader<'a, R: Read> {
    inner: &'a mut R,
    pos: u64,
    file: Crc32,
}

impl<R: Read> ImageReader<'_, R> {
    /// Reads a framing word, digested straight into the file CRC.
    fn read_u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        let mut buf = [0u8; 8];
        let mut file = self.file;
        self.payload(section, &mut file, &mut buf)?;
        self.file = file;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads payload bytes of the open section, checksummed once into
    /// `crc` only.
    fn payload(
        &mut self,
        section: &'static str,
        crc: &mut Crc32,
        buf: &mut [u8],
    ) -> Result<(), SnapshotError> {
        let at = self.pos;
        self.inner
            .read_exact(buf)
            .map_err(|e| SnapshotError::io(section, at, e))?;
        self.pos += buf.len() as u64;
        crc.update(buf);
        Ok(())
    }

    /// Closes a section whose `len`-byte payload, starting at `base`, was
    /// checksummed into `crc`: folds it into the file CRC, then reads the
    /// recorded CRC word and checks it.
    fn end_section(
        &mut self,
        section: &'static str,
        crc: Crc32,
        base: u64,
        len: u64,
    ) -> Result<(), SnapshotError> {
        let found = crc.finish();
        self.file.append_crc(found, len);
        let crc_at = self.pos;
        let recorded = self.read_u64(section)?;
        if recorded >> 32 != 0 {
            return Err(SnapshotError::corrupt(
                section,
                crc_at,
                format!("checksum word has nonzero high bits ({recorded:#x})"),
            ));
        }
        let expected = recorded as u32;
        if found != expected {
            return Err(SnapshotError::new(
                section,
                base,
                SnapshotErrorKind::Checksum { expected, found },
            ));
        }
        Ok(())
    }
}

/// A small section's checksum-verified payload plus its position in the
/// stream, parsed via a bounds-checked cursor. (The heap regions never
/// become one: they stream straight into the heap.)
struct Section {
    name: &'static str,
    /// Absolute stream offset of the first payload byte.
    base: u64,
    data: Vec<u8>,
    pos: usize,
}

impl Section {
    /// Reads the next section frame, enforcing `max_len` before allocating
    /// and verifying the trailing CRC-32.
    fn read(
        r: &mut ImageReader<'_, impl Read>,
        name: &'static str,
        max_len: u64,
    ) -> Result<Section, SnapshotError> {
        let len_at = r.pos;
        let len = r.read_u64(name)?;
        if len > max_len {
            return Err(SnapshotError::corrupt(
                name,
                len_at,
                format!("section length {len} exceeds the {max_len}-byte limit"),
            ));
        }
        let base = r.pos;
        let mut data = vec![0u8; len as usize];
        let mut crc = Crc32::new();
        r.payload(name, &mut crc, &mut data)?;
        r.end_section(name, crc, base, len)?;
        Ok(Section {
            name,
            base,
            data,
            pos: 0,
        })
    }

    /// Absolute stream offset of the next unparsed byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.data.len() - self.pos < n {
            return Err(SnapshotError::corrupt(
                self.name,
                self.offset(),
                format!(
                    "needs {n} more bytes but only {} remain in the section",
                    self.data.len() - self.pos
                ),
            ));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The section must be fully consumed; trailing bytes are corruption.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.data.len() {
            return Err(SnapshotError::corrupt(
                self.name,
                self.offset(),
                format!("{} unparsed trailing bytes", self.data.len() - self.pos),
            ));
        }
        Ok(())
    }
}

/// Whether `raw` is a well-formed oop for a heap ending at `limit` words:
/// a SmallInteger, the reserved zero word, or an object index in bounds.
fn oop_in_bounds(raw: u64, limit: usize) -> bool {
    let o = Oop::from_raw(raw);
    o.is_small_int() || o == Oop::ZERO || o.index() < limit
}

impl ObjectMemory {
    /// Writes a snapshot of the image. **The world must be stopped** and a
    /// scavenge should normally precede the save so eden is empty: a
    /// running system calls `mst_interp::StoppedWorld::snapshot_ready` and
    /// saves only if that succeeds.
    ///
    /// Returns the CRC-32 of every byte written, folded from the section
    /// checksums as they are written (no byte is checksummed twice).
    pub fn save_snapshot(&self, w: &mut impl Write) -> Result<u32, SnapshotError> {
        self.save_inner(w)
            .map_err(|e| SnapshotError::io("write", 0, e))
    }

    fn save_inner(&self, w: &mut impl Write) -> io::Result<u32> {
        let w = &mut ImageWriter {
            inner: w,
            file: Crc32::new(),
        };
        w.put_u64(MAGIC)?;
        w.put_u64(VERSION)?;
        let sp = *self.spaces();
        let c = self.config();

        // config
        let mut config = Vec::with_capacity(64);
        put_u64(&mut config, c.old_words as u64)?;
        put_u64(&mut config, c.eden_words as u64)?;
        put_u64(&mut config, c.survivor_words as u64)?;
        put_u64(&mut config, c.tenure_age as u64)?;
        put_u64(&mut config, self.old_next_value() as u64)?;
        // The frontier, not `eden_used()`: under per-processor LABs the
        // wasted buffer tails are part of the raw extent being copied.
        put_u64(&mut config, self.eden_frontier() as u64)?;
        put_u64(&mut config, self.past_is_a.load(Ordering::Relaxed) as u64)?;
        put_u64(&mut config, self.past_survivor_used() as u64)?;
        w.section(&config)?;

        // specials
        let mut specials = Vec::with_capacity(SPECIAL_COUNT * 8);
        self.specials().update_all(|o| {
            specials.extend_from_slice(&o.raw().to_le_bytes());
            o
        });
        w.section(&specials)?;

        // entries
        let entries: Vec<Oop> = self.entry_table.lock().clone();
        let mut buf = Vec::with_capacity(8 + entries.len() * 8);
        put_u64(&mut buf, entries.len() as u64)?;
        for e in &entries {
            put_u64(&mut buf, e.raw())?;
        }
        w.section(&buf)?;

        // symbols
        let symbols: Vec<(String, u64)> = self.symbol_entries();
        let mut buf = Vec::new();
        put_u64(&mut buf, symbols.len() as u64)?;
        for (name, raw) in &symbols {
            put_u64(&mut buf, name.len() as u64)?;
            buf.extend_from_slice(name.as_bytes());
            put_u64(&mut buf, *raw)?;
        }
        w.section(&buf)?;

        // Heap regions: old space, eden, past survivor — streamed in chunks
        // rather than buffered (old space is the bulk of the image).
        self.write_region_section(w, sp.old_start, self.old_next_value())?;
        self.write_region_section(w, sp.eden_start, sp.eden_start + self.eden_frontier())?;
        let (past_start, past_fill) = self.past_range();
        self.write_region_section(w, past_start, past_fill)?;
        Ok(w.file.finish())
    }

    fn write_region_section(
        &self,
        w: &mut ImageWriter<'_, impl Write>,
        start: usize,
        end: usize,
    ) -> io::Result<()> {
        let words = end - start;
        let len = (8 + words * 8) as u64;
        w.put_u64(len)?;
        let mut crc = Crc32::new();
        w.payload(&mut crc, &(words as u64).to_le_bytes())?;
        let mut buf = [0u8; REGION_CHUNK_WORDS * 8];
        for from in (start..end).step_by(REGION_CHUNK_WORDS) {
            let n = REGION_CHUNK_WORDS.min(end - from);
            for (i, dst) in buf[..n * 8].chunks_exact_mut(8).enumerate() {
                dst.copy_from_slice(&self.word(from + i).to_le_bytes());
            }
            w.payload(&mut crc, &buf[..n * 8])?;
        }
        w.end_section(crc, len)
    }

    /// Loads a snapshot into a fresh memory using `config` for sync mode and
    /// allocation policy (sizes must match the snapshot's exactly — oops are
    /// space-relative indices). Answers the memory with the length and
    /// CRC-32 of the bytes read, folded from the section checksums as they
    /// are read (no byte is read or checksummed twice); bytes after the
    /// image are not read.
    ///
    /// The loader trusts nothing: every section is checksum-verified, every
    /// count, length and oop is bounds-checked, and old space gets a final
    /// structural walk. Corruption yields a [`SnapshotError`] naming the
    /// section and byte offset; it never panics.
    pub fn load_snapshot(
        r: &mut impl Read,
        config: MemoryConfig,
    ) -> Result<(ObjectMemory, u64, u32), SnapshotError> {
        let r = &mut ImageReader {
            inner: r,
            pos: 0,
            file: Crc32::new(),
        };
        if r.read_u64("magic")? != MAGIC {
            return Err(SnapshotError::new("magic", 0, SnapshotErrorKind::BadMagic));
        }
        let version = r.read_u64("magic")?;
        if version != VERSION {
            return Err(SnapshotError::new(
                "magic",
                8,
                SnapshotErrorKind::BadVersion(version),
            ));
        }

        // config — fixed size, so enforce it exactly.
        let mut s = Section::read(r, "config", 64)?;
        if s.data.len() != 64 {
            return Err(SnapshotError::corrupt(
                "config",
                s.base,
                format!("config section is {} bytes, expected 64", s.data.len()),
            ));
        }
        let old_words = s.u64()? as usize;
        let eden_words = s.u64()? as usize;
        let survivor_words = s.u64()? as usize;
        let _tenure_age = s.u64()?;
        // Snapshots store space-relative layout, so sizes must match exactly
        // for oops (absolute indices) to stay valid.
        if config.old_words != old_words
            || config.eden_words != eden_words
            || config.survivor_words != survivor_words
        {
            return Err(SnapshotError::new(
                "config",
                s.base,
                SnapshotErrorKind::SizeMismatch {
                    required: (old_words, eden_words, survivor_words),
                },
            ));
        }
        let mem = ObjectMemory::new(config);
        let sp = *mem.spaces();
        let heap_limit = sp.surv_b_end;
        let at = s.offset();
        let old_next = s.u64()? as usize;
        if old_next < sp.old_start || old_next > sp.old_end {
            return Err(SnapshotError::corrupt(
                "config",
                at,
                format!(
                    "old_next {old_next} outside old space [{}, {}]",
                    sp.old_start, sp.old_end
                ),
            ));
        }
        let at = s.offset();
        let eden_used = s.u64()? as usize;
        if eden_used > eden_words {
            return Err(SnapshotError::corrupt(
                "config",
                at,
                format!("eden_used {eden_used} exceeds eden size {eden_words}"),
            ));
        }
        let at = s.offset();
        let past_flag = s.u64()?;
        if past_flag > 1 {
            return Err(SnapshotError::corrupt(
                "config",
                at,
                format!("past_is_a flag is {past_flag}, expected 0 or 1"),
            ));
        }
        let past_is_a = past_flag != 0;
        let at = s.offset();
        let past_used = s.u64()? as usize;
        if past_used > survivor_words {
            return Err(SnapshotError::corrupt(
                "config",
                at,
                format!("past survivor fill {past_used} exceeds survivor size {survivor_words}"),
            ));
        }
        s.finish()?;

        mem.set_old_next(old_next);
        mem.set_eden_used(eden_used);
        mem.past_is_a.store(past_is_a, Ordering::Relaxed);
        let past_start = if past_is_a {
            sp.surv_a_start
        } else {
            sp.surv_b_start
        };
        mem.past_fill
            .store(past_start + past_used, Ordering::Relaxed);

        // specials — fixed count of oops, each bounds-checked.
        let mut s = Section::read(r, "specials", (SPECIAL_COUNT * 8) as u64)?;
        if s.data.len() != SPECIAL_COUNT * 8 {
            return Err(SnapshotError::corrupt(
                "specials",
                s.base,
                format!(
                    "specials section is {} bytes, expected {}",
                    s.data.len(),
                    SPECIAL_COUNT * 8
                ),
            ));
        }
        let mut specials = [0u64; SPECIAL_COUNT];
        for (i, slot) in specials.iter_mut().enumerate() {
            let at = s.offset();
            let raw = s.u64()?;
            if !oop_in_bounds(raw, heap_limit) {
                return Err(SnapshotError::corrupt(
                    "specials",
                    at,
                    format!("special {i} holds out-of-range oop {raw:#x}"),
                ));
            }
            *slot = raw;
        }
        s.finish()?;
        let mut i = 0;
        mem.specials().update_all(|_| {
            let v = Oop::from_raw(specials[i]);
            i += 1;
            v
        });

        // entries — the remembered set: old-space objects only.
        let mut s = Section::read(r, "entries", (8 + old_words * 8) as u64)?;
        let at = s.offset();
        let n_entries = s.u64()?;
        // data.len() >= 8 here (the count itself was just read from it).
        let body = s.data.len() as u64 - 8;
        if !body.is_multiple_of(8) || body / 8 != n_entries {
            return Err(SnapshotError::corrupt(
                "entries",
                at,
                format!(
                    "entry count {n_entries} disagrees with section length {}",
                    s.data.len()
                ),
            ));
        }
        {
            let mut table = mem.entry_table.lock();
            for i in 0..n_entries {
                let at = s.offset();
                let raw = s.u64()?;
                let o = Oop::from_raw(raw);
                if !o.is_object() || o.index() < sp.old_start || o.index() >= old_next {
                    return Err(SnapshotError::corrupt(
                        "entries",
                        at,
                        format!("entry {i} is not an allocated old-space object ({raw:#x})"),
                    ));
                }
                table.push(o);
            }
        }
        s.finish()?;

        // symbols — name/oop pairs; names capped, oops bounds-checked.
        let mut s = Section::read(r, "symbols", (8 + old_words * 8) as u64 * 2)?;
        let n_symbols = s.u64()?;
        for i in 0..n_symbols {
            let at = s.offset();
            let len = s.u64()?;
            if len > MAX_SYMBOL_BYTES {
                return Err(SnapshotError::corrupt(
                    "symbols",
                    at,
                    format!("symbol {i} name length {len} exceeds {MAX_SYMBOL_BYTES}"),
                ));
            }
            let name = String::from_utf8_lossy(s.bytes(len as usize)?).into_owned();
            let at = s.offset();
            let raw = s.u64()?;
            let o = Oop::from_raw(raw);
            if !o.is_object() || o.index() >= heap_limit {
                return Err(SnapshotError::corrupt(
                    "symbols",
                    at,
                    format!("symbol '{name}' maps to out-of-range oop {raw:#x}"),
                ));
            }
            if !mem.insert_symbol(&name, o) {
                // A name interned twice (at different oops) would silently
                // re-point the intern table — later interns of the name
                // would disagree with symbols already baked into methods.
                return Err(SnapshotError::corrupt(
                    "symbols",
                    at,
                    format!("symbol '{name}' interned twice with conflicting oops"),
                ));
            }
        }
        s.finish()?;

        // Heap regions. Their lengths are fixed by the (already validated)
        // config section; any disagreement is corruption.
        let old_len = old_next - sp.old_start;
        mem.read_region_section(r, "old", sp.old_start, old_len)?;
        mem.read_region_section(r, "eden", sp.eden_start, eden_used)?;
        mem.read_region_section(r, "past", past_start, past_used)?;

        // Final line of defense: a structural walk of old space. This
        // catches corruption that is locally well-formed (a bit-flip inside
        // a header length, a pointer slot aimed at nothing) before the
        // interpreter ever dereferences it.
        mem.validate_old_space()?;
        Ok((mem, r.pos, r.file.finish()))
    }

    /// Streams one heap-region section straight into the words at `start`,
    /// the mirror of `write_region_section`. Its length is fixed by the
    /// (already validated) config section; any other is corruption.
    fn read_region_section(
        &self,
        r: &mut ImageReader<'_, impl Read>,
        name: &'static str,
        start: usize,
        expected_words: usize,
    ) -> Result<(), SnapshotError> {
        let len_at = r.pos;
        let len = r.read_u64(name)?;
        let want = (8 + expected_words * 8) as u64;
        if len != want {
            return Err(SnapshotError::corrupt(
                name,
                len_at,
                format!("region section is {len} bytes but the config section implies {want}"),
            ));
        }
        let base = r.pos;
        let mut crc = Crc32::new();
        let mut buf = [0u8; REGION_CHUNK_WORDS * 8];
        // The word count repeats what the length says; the section CRC
        // vouches for it like any payload byte.
        r.payload(name, &mut crc, &mut buf[..8])?;
        let end = start + expected_words;
        for from in (start..end).step_by(REGION_CHUNK_WORDS) {
            let chunk = &mut buf[..REGION_CHUNK_WORDS.min(end - from) * 8];
            r.payload(name, &mut crc, chunk)?;
            for (i, word) in chunk.chunks_exact(8).enumerate() {
                self.set_word(from + i, u64::from_le_bytes(word.try_into().unwrap()));
            }
        }
        r.end_section(name, crc, base, len)
    }

    /// Walks old space checking structural invariants without panicking:
    /// headers decode, objects stay inside the space, no forwarding flag or
    /// reserved bit is set, method literal frames fit their bodies, class
    /// words and pointer slots (literals included) hold in-bounds oops.
    /// Word indices in the error messages are heap-relative.
    pub fn validate_old_space(&self) -> Result<usize, SnapshotError> {
        let sp = *self.spaces();
        let heap_limit = sp.surv_b_end;
        let end = self.old_next_value();
        let mut count = 0;
        let mut scan = sp.old_start;
        let bad = |scan: usize, msg: String| {
            SnapshotError::corrupt(
                "old",
                scan as u64 * 8,
                format!("object at word {scan}: {msg}"),
            )
        };
        while scan < end {
            let obj = Oop::from_index(scan);
            let h = Header(self.word(scan));
            let format = h
                .try_format()
                .ok_or_else(|| bad(scan, "unassigned format bits".into()))?;
            if scan + 2 + h.body_words() > end {
                return Err(bad(
                    scan,
                    format!("{}-word body overruns the space", h.body_words()),
                ));
            }
            if h.is_forwarded() {
                return Err(bad(scan, "forwarding pointer outside scavenge".into()));
            }
            if h.has_reserved_bits() {
                return Err(bad(scan, format!("reserved bits set in header {:#x}", h.0)));
            }
            let class = self.word(scan + 1);
            if !oop_in_bounds(class, heap_limit) {
                return Err(bad(scan, format!("class word {class:#x} out of range")));
            }
            let slots = match format {
                ObjFormat::Pointers => h.body_words(),
                ObjFormat::Bytes => 0,
                // The method header and its literals, which the collector
                // traces and rewrites like any pointer slot.
                ObjFormat::Method => {
                    let mh = Oop::from_raw(self.word(scan + 2));
                    mh.is_small_int()
                        .then(|| MethodHeader::decode(mh).pointer_slots())
                        .filter(|&n| n <= h.body_words())
                        .ok_or_else(|| bad(scan, "method literal frame overruns its body".into()))?
                }
            };
            for i in 0..slots {
                let v = self.fetch(obj, i);
                if v.is_object() && v.index() >= heap_limit {
                    return Err(bad(scan, format!("slot {i} points outside the heap")));
                }
            }
            count += 1;
            scan += 2 + h.body_words();
        }
        Ok(count)
    }

    /// Verifies basic heap invariants; used by tests and after snapshot
    /// loads. Panicking wrapper around
    /// [`validate_old_space`](ObjectMemory::validate_old_space); returns
    /// the object count.
    pub fn verify(&self) -> usize {
        match self.validate_old_space() {
            Ok(count) => count,
            Err(e) => panic!("heap verification failed: {e}"),
        }
    }
}

/// A validated snapshot image held in memory for repeated instantiation —
/// the serving layer's copy-on-load tenant template.
///
/// The bytes are read (and fully validated by a trial load) once; every
/// [`instantiate`](SnapshotTemplate::instantiate) then deserializes a
/// *fresh* [`ObjectMemory`] from the shared buffer. Sessions share nothing
/// mutable: each gets its own heap, entry table, specials and symbol intern
/// table, so loading the same template twice in one process cannot
/// re-intern specials or globals inconsistently across sessions. The
/// template is cheap to clone (the image buffer is shared).
#[derive(Clone)]
pub struct SnapshotTemplate {
    bytes: std::sync::Arc<[u8]>,
    config: MemoryConfig,
}

impl fmt::Debug for SnapshotTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotTemplate")
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

impl SnapshotTemplate {
    /// Builds a template from raw snapshot bytes, validating them with a
    /// trial load so later instantiations fail only on resource exhaustion,
    /// not corruption.
    pub fn from_bytes(
        bytes: Vec<u8>,
        config: MemoryConfig,
    ) -> Result<SnapshotTemplate, SnapshotError> {
        ObjectMemory::load_snapshot(&mut bytes.as_slice(), config)?;
        Ok(SnapshotTemplate {
            bytes: bytes.into(),
            config,
        })
    }

    /// Reads and validates a snapshot file as a template.
    pub fn from_path(path: &Path, config: MemoryConfig) -> Result<SnapshotTemplate, SnapshotError> {
        let mut bytes = Vec::new();
        open_snapshot(path)?
            .read_to_end(&mut bytes)
            .map_err(|e| SnapshotError::io("file", 0, e))?;
        SnapshotTemplate::from_bytes(bytes, config)
    }

    /// Deserializes a fresh, fully independent [`ObjectMemory`] from the
    /// template.
    pub fn instantiate(&self) -> Result<ObjectMemory, SnapshotError> {
        ObjectMemory::load_snapshot(&mut &self.bytes[..], self.config).map(|(mem, ..)| mem)
    }

    /// The memory configuration instantiated images use.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Size of the backing image, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::tests::bootstrap_minimal;
    use crate::special::So;
    use mst_vkernel::crc::crc32;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            old_words: 32 << 10,
            eden_words: 8 << 10,
            survivor_words: 4 << 10,
            ..MemoryConfig::default()
        }
    }

    #[test]
    fn save_load_round_trip() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let sym = mem.intern("snapshotSelector");
        let arr = mem.alloc_array_old(2).unwrap();
        mem.store_nocheck(arr, 0, Oop::from_small_int(77));
        mem.store_nocheck(arr, 1, sym);
        let s = mem.alloc_string_old("persisted").unwrap();
        mem.specials().set(So::SmalltalkDict, s); // abuse a slot as a root

        let mut buf = Vec::new();
        let crc = mem.save_snapshot(&mut buf).unwrap();
        assert_eq!(crc, crc32(&buf), "folded file CRC equals a second pass");
        // Bytes after the image are not read: only a caller holding the
        // file's recorded length can tell they are there.
        let trailing = [&buf[..], b"trailing"].concat();
        let (loaded, len, read_crc) =
            ObjectMemory::load_snapshot(&mut trailing.as_slice(), small_config()).unwrap();
        assert_eq!(
            (len, read_crc),
            (buf.len() as u64, crc),
            "the loader folds the same file CRC the saver did"
        );
        assert_eq!(
            loaded.str_value(loaded.specials().get(So::SmalltalkDict)),
            "persisted"
        );
        let sym2 = loaded.find_symbol("snapshotSelector").unwrap();
        assert_eq!(loaded.str_value(sym2), "snapshotSelector");
        assert_eq!(loaded.fetch(arr, 0).as_small_int(), 77);
        assert_eq!(loaded.fetch(arr, 1), sym2);
        assert!(loaded.verify() > 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = vec![0u8; 64];
        let err = ObjectMemory::load_snapshot(&mut buf.as_slice(), small_config()).unwrap_err();
        assert!(matches!(err.kind, SnapshotErrorKind::BadMagic));
        assert!(err.to_string().contains("not a"));
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let mut buf = Vec::new();
        mem.save_snapshot(&mut buf).unwrap();
        let bigger = MemoryConfig {
            old_words: 64 << 10,
            ..small_config()
        };
        let err = ObjectMemory::load_snapshot(&mut buf.as_slice(), bigger).unwrap_err();
        assert!(matches!(err.kind, SnapshotErrorKind::SizeMismatch { .. }));
        assert_eq!(err.section, "config");
    }

    #[test]
    fn truncated_snapshot_reports_io_error_with_offset() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let mut buf = Vec::new();
        mem.save_snapshot(&mut buf).unwrap();
        let full = buf.len();
        buf.truncate(full / 2);
        let err = ObjectMemory::load_snapshot(&mut buf.as_slice(), small_config()).unwrap_err();
        assert!(matches!(err.kind, SnapshotErrorKind::Io(_)), "{err}");
        // The offset names where the stream ran dry, inside a real section.
        assert!(err.offset > 0 && err.offset <= full as u64, "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let mut buf = Vec::new();
        mem.save_snapshot(&mut buf).unwrap();
        // Exhaustive over a stride of positions (the full image is large):
        // any one-bit flip must be rejected — the per-section CRC-32 is
        // exact for single-bit errors — and must never panic.
        let mut rejected = 0;
        let mut pos = 0;
        while pos < buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let r = std::panic::catch_unwind(|| {
                ObjectMemory::load_snapshot(&mut corrupt.as_slice(), small_config()).err()
            });
            match r {
                Ok(Some(_)) => rejected += 1,
                Ok(None) => panic!("bit flip at byte {pos} was accepted"),
                Err(_) => panic!("bit flip at byte {pos} caused a panic"),
            }
            pos += 37; // prime stride: hits every section and byte alignment
        }
        assert_eq!(rejected, buf.len().div_ceil(37));
        assert!(rejected > 20, "stride covered too little of the image");
    }

    #[test]
    fn checksum_error_names_the_section() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let mut buf = Vec::new();
        mem.save_snapshot(&mut buf).unwrap();
        // The config payload starts right after magic+version+length.
        let flip_at = 8 + 8 + 8 + 3;
        buf[flip_at] ^= 0x10;
        let err = ObjectMemory::load_snapshot(&mut buf.as_slice(), small_config()).unwrap_err();
        assert!(
            matches!(err.kind, SnapshotErrorKind::Checksum { .. }),
            "{err}"
        );
        assert_eq!(err.section, "config");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    /// The image of a minimal heap that `corrupt` has damaged. The saver
    /// computes every CRC, so only the loader's structural walk stands
    /// between the damage and a load.
    fn image_of(corrupt: impl FnOnce(&ObjectMemory)) -> Vec<u8> {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        corrupt(&mem);
        let mut buf = Vec::new();
        mem.save_snapshot(&mut buf).unwrap();
        buf
    }

    fn load(image: &[u8]) -> Result<ObjectMemory, SnapshotError> {
        ObjectMemory::load_snapshot(&mut &image[..], small_config()).map(|(mem, ..)| mem)
    }

    #[test]
    fn reserved_header_bit_is_rejected() {
        let with_bits = |bits: u64| {
            image_of(move |mem| {
                let a = mem.alloc_array_old(2).unwrap();
                mem.set_header(a, Header(mem.header(a).0 | bits));
            })
        };
        assert!(load(&with_bits(0)).is_ok());
        for bit in [34, 36, 39] {
            let err = load(&with_bits(1 << bit)).unwrap_err();
            assert_eq!(err.section, "old");
            assert!(err.to_string().contains("reserved bits"), "{err}");
        }
    }

    #[test]
    fn method_literal_frames_are_bounds_checked() {
        // A three-word method: header, one literal slot, bytecodes.
        let method = |num_literals: u16, literal: fn(&ObjectMemory) -> Oop| {
            image_of(move |mem| {
                let m = mem
                    .allocate_old(mem.nil(), ObjFormat::Method, 3, 0)
                    .unwrap();
                let mh = MethodHeader {
                    num_literals,
                    ..MethodHeader::default()
                };
                mem.store_nocheck(m, 0, mh.encode());
                mem.store_nocheck(m, 1, literal(mem));
            })
        };
        assert!(load(&method(1, |mem| mem.nil())).is_ok());
        // A header claiming more literals than the body holds, and a literal
        // outside the heap: the collector would trace either straight out
        // of the object.
        let overrun = load(&method(5, |mem| mem.nil())).unwrap_err();
        assert!(overrun.to_string().contains("literal frame"), "{overrun}");
        let wild = load(&method(1, |mem| {
            Oop::from_index(mem.spaces().surv_b_end + 64)
        }))
        .unwrap_err();
        assert!(wild.to_string().contains("slot 1 points outside"), "{wild}");
        assert_eq!((overrun.section, wild.section), ("old", "old"));
    }

    #[test]
    fn new_space_contents_survive_snapshot() {
        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let tok = mem.new_token();
        let young = mem.alloc_array(&tok, 1).unwrap();
        mem.store_nocheck(young, 0, Oop::from_small_int(9));
        let old = mem.alloc_array_old(1).unwrap();
        mem.store(old, 0, young);
        let mut buf = Vec::new();
        // Every region non-empty, eden included: the folded CRC still
        // equals a second pass over the bytes.
        let crc = mem.save_snapshot(&mut buf).unwrap();
        assert_eq!(crc, crc32(&buf));
        let (loaded, len, read_crc) =
            ObjectMemory::load_snapshot(&mut buf.as_slice(), small_config()).unwrap();
        assert_eq!((len, read_crc), (buf.len() as u64, crc));
        let young2 = loaded.fetch(old, 0);
        assert_eq!(loaded.fetch(young2, 0).as_small_int(), 9);
        assert_eq!(loaded.entry_table_len(), 1);
        // And the loaded image scavenges correctly.
        let root = loaded.new_root(old);
        loaded.scavenge();
        let old2 = root.get();
        assert_eq!(loaded.fetch(loaded.fetch(old2, 0), 0).as_small_int(), 9);
    }

    #[test]
    fn file_save_is_atomic_and_torn_writes_leave_the_old_image() {
        use mst_vkernel::{fault, io::write_atomic, io::WriteError};
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                fault::disable();
            }
        }
        let _disarm = Disarm;

        let dir = std::env::temp_dir().join(format!("mst-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.mss");
        let save = |mem: &ObjectMemory| {
            write_atomic(&path, |mut w| {
                mem.save_snapshot(&mut w).map_err(io::Error::other)
            })
        };
        let load_path = || {
            let (mem, ..) =
                ObjectMemory::load_snapshot(&mut open_snapshot(&path).unwrap(), small_config())
                    .unwrap();
            mem
        };

        let mem = ObjectMemory::new(small_config());
        bootstrap_minimal(&mem);
        let s = mem.alloc_string_old("generation-one").unwrap();
        mem.specials().set(So::SmalltalkDict, s);
        let (crc, len) = save(&mem).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!((crc, len), (crc32(&on_disk), on_disk.len() as u64));
        // No temp droppings on the happy path.
        assert!(!dir.join("image.mss.tmp").exists());

        // A torn write must fail loudly and leave the previous image
        // loadable.
        let s2 = mem.alloc_string_old("generation-two").unwrap();
        mem.specials().set(So::SmalltalkDict, s2);
        fault::install(fault::ChaosConfig {
            seed: 1,
            rate: 1.0,
            sites: fault::FaultSite::CkptCrash.bit(),
        });
        let err = save(&mem).unwrap_err();
        assert!(matches!(err, WriteError::Torn { .. }), "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
        fault::disable();

        assert_eq!(std::fs::read(&path).unwrap(), on_disk);
        let loaded = load_path();
        assert_eq!(
            loaded.str_value(loaded.specials().get(So::SmalltalkDict)),
            "generation-one"
        );
        // With chaos disarmed the save goes through and the new image wins.
        save(&mem).unwrap();
        let loaded = load_path();
        assert_eq!(
            loaded.str_value(loaded.specials().get(So::SmalltalkDict)),
            "generation-two"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
