//! Serialized I/O devices.
//!
//! Paper §3.1, the first serialization example: *"The interpreter places
//! input events on a queue which is shared (potentially) by several
//! processes. There is also an output queue associated with the display
//! controller, into which display commands are placed. In both of these
//! cases, access to the shared resource is for very brief intervals."*
//!
//! This module rebuilds both devices: [`InputQueue`] for keyboard/mouse
//! events and [`Display`] — a display controller with a serialized command
//! queue feeding a small monochrome BitBlt framebuffer. The paper's *busy*
//! background Process "contends for the display" by pushing commands here.
//!
//! The image's own device is the disk. A file becomes durable in two
//! steps, both here: [`write_temp`] streams it into a temp file (the one
//! place the `ckpt.crash` fault site tears a write) and
//! [`TempFile::persist`] fsyncs and renames it; [`sync_dir`] then makes the
//! rename durable. [`write_atomic`] is the three in a row — snapshot files
//! and the compacted MANIFEST go through it — while the checkpoint store
//! runs the first step on the request's thread and the rest on its
//! committer.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};

use crate::fault;
use crate::spinlock::{SpinMutex, SyncMode};

/// One input event (keystroke, mouse motion, button).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputEvent {
    /// Device that produced the event (0 = keyboard, 1 = mouse, ...).
    pub device: u8,
    /// Device-specific event code (key number, coordinate, ...).
    pub code: u32,
    /// Millisecond timestamp.
    pub time: u64,
}

/// The shared input-event queue, serialized by a spin-lock.
#[derive(Debug)]
pub struct InputQueue {
    queue: SpinMutex<VecDeque<InputEvent>>,
    capacity: usize,
}

impl InputQueue {
    /// Creates an input queue holding at most `capacity` pending events.
    pub fn new(mode: SyncMode, capacity: usize) -> Self {
        InputQueue {
            queue: SpinMutex::named(mode, "input_queue", VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Enqueues an event, dropping the oldest one if the queue is full
    /// (real keyboards lose keystrokes too).
    pub fn post(&self, event: InputEvent) {
        let mut q = self.queue.lock();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event);
    }

    /// Dequeues the next pending event, if any.
    pub fn next_event(&self) -> Option<InputEvent> {
        self.queue.lock().pop_front()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Combination rules for [`DisplayCommand::CopyRect`], after BitBlt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinationRule {
    /// destination := source
    Over,
    /// destination := destination AND source
    And,
    /// destination := destination OR source
    Paint,
    /// destination := destination XOR source
    Reverse,
    /// destination := destination AND NOT source
    Erase,
}

/// A command for the display controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisplayCommand {
    /// Set every pixel to white (0).
    Clear,
    /// Set a single pixel.
    Plot {
        /// X coordinate in pixels.
        x: u16,
        /// Y coordinate in pixels.
        y: u16,
        /// `true` for black.
        on: bool,
    },
    /// Fill a rectangle with a solid color using a combination rule.
    FillRect {
        /// Left edge.
        x: u16,
        /// Top edge.
        y: u16,
        /// Width in pixels.
        w: u16,
        /// Height in pixels.
        h: u16,
        /// How the (all-ones) source combines with the destination.
        rule: CombinationRule,
    },
    /// Copy a rectangle from one place on the screen to another.
    CopyRect {
        /// Source left edge.
        sx: u16,
        /// Source top edge.
        sy: u16,
        /// Destination left edge.
        dx: u16,
        /// Destination top edge.
        dy: u16,
        /// Width in pixels.
        w: u16,
        /// Height in pixels.
        h: u16,
        /// How source pixels combine with destination pixels.
        rule: CombinationRule,
    },
}

/// The monochrome framebuffer behind the display controller.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: u16,
    height: u16,
    /// Row-major, one `bool`-as-bit per pixel, packed 64 per word.
    bits: Vec<u64>,
}

impl Framebuffer {
    fn new(width: u16, height: u16) -> Self {
        let words_per_row = (width as usize).div_ceil(64);
        Framebuffer {
            width,
            height,
            bits: vec![0; words_per_row * height as usize],
        }
    }

    fn words_per_row(&self) -> usize {
        (self.width as usize).div_ceil(64)
    }

    /// Reads one pixel; out-of-bounds pixels read as white.
    pub fn pixel(&self, x: u16, y: u16) -> bool {
        if x >= self.width || y >= self.height {
            return false;
        }
        let idx = y as usize * self.words_per_row() + x as usize / 64;
        self.bits[idx] >> (x % 64) & 1 == 1
    }

    fn set_pixel(&mut self, x: u16, y: u16, on: bool) {
        if x >= self.width || y >= self.height {
            return;
        }
        let wpr = self.words_per_row();
        let idx = y as usize * wpr + x as usize / 64;
        let bit = 1u64 << (x % 64);
        if on {
            self.bits[idx] |= bit;
        } else {
            self.bits[idx] &= !bit;
        }
    }

    fn combine(dst: bool, src: bool, rule: CombinationRule) -> bool {
        match rule {
            CombinationRule::Over => src,
            CombinationRule::And => dst & src,
            CombinationRule::Paint => dst | src,
            CombinationRule::Reverse => dst ^ src,
            CombinationRule::Erase => dst & !src,
        }
    }

    /// Number of black pixels (used by tests and the inspector benchmark).
    pub fn population(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Display width in pixels.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Display height in pixels.
    pub fn height(&self) -> u16 {
        self.height
    }

    fn apply(&mut self, cmd: DisplayCommand) {
        match cmd {
            DisplayCommand::Clear => self.bits.fill(0),
            DisplayCommand::Plot { x, y, on } => self.set_pixel(x, y, on),
            DisplayCommand::FillRect { x, y, w, h, rule } => {
                for yy in y..y.saturating_add(h).min(self.height) {
                    for xx in x..x.saturating_add(w).min(self.width) {
                        let dst = self.pixel(xx, yy);
                        self.set_pixel(xx, yy, Self::combine(dst, true, rule));
                    }
                }
            }
            DisplayCommand::CopyRect {
                sx,
                sy,
                dx,
                dy,
                w,
                h,
                rule,
            } => {
                // Copy through a staging buffer so overlapping rectangles
                // behave like real BitBlt (source sampled before writes).
                let mut staged = Vec::with_capacity(w as usize * h as usize);
                for yy in 0..h {
                    for xx in 0..w {
                        staged.push(self.pixel(sx.saturating_add(xx), sy.saturating_add(yy)));
                    }
                }
                for yy in 0..h {
                    for xx in 0..w {
                        let (px, py) = (dx.saturating_add(xx), dy.saturating_add(yy));
                        if px < self.width && py < self.height {
                            let dst = self.pixel(px, py);
                            let src = staged[yy as usize * w as usize + xx as usize];
                            self.set_pixel(px, py, Self::combine(dst, src, rule));
                        }
                    }
                }
            }
        }
    }
}

/// The display controller: a serialized command queue plus framebuffer.
///
/// Commands are queued under a brief spin-lock (the paper's serialization of
/// output) and drained either eagerly ([`Display::flush`]) or whenever the
/// queue exceeds its high-water mark.
pub struct Display {
    queue: SpinMutex<VecDeque<DisplayCommand>>,
    frame: SpinMutex<Framebuffer>,
    high_water: usize,
    commands_applied: std::sync::atomic::AtomicU64,
}

impl fmt::Debug for Display {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frame = self.frame.lock();
        f.debug_struct("Display")
            .field("width", &frame.width())
            .field("height", &frame.height())
            .field("population", &frame.population())
            .finish()
    }
}

impl Display {
    /// Creates a display of the given size.
    pub fn new(mode: SyncMode, width: u16, height: u16) -> Self {
        Display {
            queue: SpinMutex::named(mode, "display_queue", VecDeque::new()),
            frame: SpinMutex::named(mode, "framebuffer", Framebuffer::new(width, height)),
            high_water: 256,
            commands_applied: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Queues a display command; drains the queue past the high-water mark.
    pub fn post(&self, cmd: DisplayCommand) {
        let should_flush = {
            let mut q = self.queue.lock();
            q.push_back(cmd);
            q.len() >= self.high_water
        };
        if should_flush {
            self.flush();
        }
    }

    /// Applies every queued command to the framebuffer.
    pub fn flush(&self) {
        loop {
            // Take a batch under the queue lock, apply under the frame lock,
            // keeping each critical section brief (the paper's requirement
            // for serialized resources).
            let batch: Vec<DisplayCommand> = {
                let mut q = self.queue.lock();
                if q.is_empty() {
                    return;
                }
                q.drain(..).collect()
            };
            let mut frame = self.frame.lock();
            let n = batch.len() as u64;
            for cmd in batch {
                frame.apply(cmd);
            }
            self.commands_applied
                .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Runs `f` against the current framebuffer contents (after a flush).
    pub fn with_frame<R>(&self, f: impl FnOnce(&Framebuffer) -> R) -> R {
        self.flush();
        f(&self.frame.lock())
    }

    /// Total number of commands applied since creation.
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Why [`write_atomic`] published nothing.
#[derive(Debug)]
pub enum WriteError {
    /// An I/O step failed, or the caller's writer did. The temp file is
    /// removed and the file at the path is untouched.
    Io(io::Error),
    /// The `ckpt.crash` fault site tore the temp file at `boundary` bytes,
    /// as a process death would: the torn prefix is durable under the temp
    /// name, nothing was renamed, and the temp file stays (the next write
    /// to the path replaces it).
    Torn {
        /// Bytes of the temp file that survived the tear.
        boundary: u64,
    },
}

impl From<io::Error> for WriteError {
    fn from(e: io::Error) -> WriteError {
        WriteError::Io(e)
    }
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Io(e) => write!(f, "{e}"),
            WriteError::Torn { boundary } => {
                write!(f, "write torn at byte {boundary} (ckpt.crash injected)")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// A file [`write_temp`] wrote under `<path>.tmp` and nothing has made
/// durable yet: its bytes may still sit only in the page cache, and `path`
/// is untouched. [`persist`](TempFile::persist) publishes it.
#[derive(Debug)]
pub struct TempFile {
    file: File,
    tmp: PathBuf,
}

impl TempFile {
    /// Where the bytes are until they are persisted: `<path>.tmp`.
    pub fn temp_path(&self) -> &Path {
        &self.tmp
    }

    /// Fsyncs the temp file and renames it to `path` — usually the path
    /// it was written for, but any name in the same directory will do. The
    /// directory entry is durable only after a [`sync_dir`] of the parent.
    ///
    /// # Errors
    ///
    /// The fsync's or the rename's error; the temp file is removed and the
    /// file at `path` is untouched.
    pub fn persist(self, path: &Path) -> io::Result<()> {
        let TempFile { file, tmp } = self;
        let renamed = file.sync_all().and_then(|()| {
            drop(file);
            fs::rename(&tmp, path)
        });
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }
}

/// Streams what `write` writes through a buffer into `<path>.tmp`, with no
/// fsync: the first half of [`write_atomic`]. Answers `write`'s value, the
/// number of bytes written and the [`TempFile`] to persist.
///
/// # Errors
///
/// [`WriteError::Io`] when creating or writing the temp file fails, or
/// `write` itself does (the temp file is removed); [`WriteError::Torn`]
/// when the `ckpt.crash` site fired.
pub fn write_temp<T>(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
) -> Result<(T, u64, TempFile), WriteError> {
    write_temp_torn_by(path, write, fault::ckpt_crash)
}

/// [`write_temp`] with the tear site as a parameter: `tear(len)` answers
/// the byte boundary at which a `len`-byte write dies, if it does.
fn write_temp_torn_by<T>(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
    tear: impl FnOnce(u64) -> Option<u64>,
) -> Result<(T, u64, TempFile), WriteError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let stream = || -> Result<(T, u64, File), WriteError> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        let value = write(&mut w)?;
        let mut file = w.into_inner().map_err(|e| e.into_error())?;
        let len = file.stream_position()?;
        if let Some(boundary) = tear(len) {
            let _ = file.set_len(boundary).and_then(|()| file.sync_all());
            return Err(WriteError::Torn { boundary });
        }
        Ok((value, len, file))
    };
    let written = stream();
    if let Err(WriteError::Io(_)) = written {
        let _ = fs::remove_file(&tmp);
    }
    let (value, len, file) = written?;
    Ok((value, len, TempFile { file, tmp }))
}

/// Fsyncs the directory `dir`, making the renames into it durable.
/// Best-effort: not every filesystem supports it.
pub fn sync_dir(dir: &Path) {
    if let Ok(dir) = File::open(dir) {
        let _ = dir.sync_all();
    }
}

/// Makes `path` hold exactly what `write` writes, or leaves it as it was:
/// [`write_temp`], then [`TempFile::persist`], then [`sync_dir`] of the
/// parent directory. Answers `write`'s value and the number of bytes
/// written.
///
/// # Errors
///
/// [`WriteError::Io`] when any step or `write` itself fails (the temp file
/// is removed); [`WriteError::Torn`] when the `ckpt.crash` site fired.
pub fn write_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
) -> Result<(T, u64), WriteError> {
    write_atomic_torn_by(path, write, fault::ckpt_crash)
}

/// [`write_atomic`] with the tear site as a parameter.
fn write_atomic_torn_by<T>(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
    tear: impl FnOnce(u64) -> Option<u64>,
) -> Result<(T, u64), WriteError> {
    let (value, len, temp) = write_temp_torn_by(path, write, tear)?;
    temp.persist(path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        sync_dir(dir);
    }
    Ok((value, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp() -> SyncMode {
        SyncMode::Multiprocessor
    }

    #[test]
    fn input_queue_fifo_order() {
        let q = InputQueue::new(mp(), 8);
        for code in 0..3 {
            q.post(InputEvent {
                device: 0,
                code,
                time: code as u64,
            });
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_event().unwrap().code, 0);
        assert_eq!(q.next_event().unwrap().code, 1);
        assert_eq!(q.next_event().unwrap().code, 2);
        assert!(q.next_event().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn input_queue_drops_oldest_when_full() {
        let q = InputQueue::new(mp(), 2);
        for code in 0..5 {
            q.post(InputEvent {
                device: 0,
                code,
                time: 0,
            });
        }
        assert_eq!(q.next_event().unwrap().code, 3);
        assert_eq!(q.next_event().unwrap().code, 4);
    }

    #[test]
    fn plot_and_read_pixel() {
        let d = Display::new(mp(), 128, 64);
        d.post(DisplayCommand::Plot {
            x: 5,
            y: 6,
            on: true,
        });
        assert!(d.with_frame(|f| f.pixel(5, 6)));
        assert!(!d.with_frame(|f| f.pixel(6, 5)));
    }

    #[test]
    fn fill_and_clear() {
        let d = Display::new(mp(), 64, 64);
        d.post(DisplayCommand::FillRect {
            x: 0,
            y: 0,
            w: 8,
            h: 8,
            rule: CombinationRule::Over,
        });
        assert_eq!(d.with_frame(|f| f.population()), 64);
        d.post(DisplayCommand::Clear);
        assert_eq!(d.with_frame(|f| f.population()), 0);
    }

    #[test]
    fn xor_fill_twice_restores() {
        let d = Display::new(mp(), 32, 32);
        let fill = DisplayCommand::FillRect {
            x: 2,
            y: 2,
            w: 5,
            h: 5,
            rule: CombinationRule::Reverse,
        };
        d.post(fill);
        assert_eq!(d.with_frame(|f| f.population()), 25);
        d.post(fill);
        assert_eq!(d.with_frame(|f| f.population()), 0);
    }

    #[test]
    fn copy_rect_moves_pixels() {
        let d = Display::new(mp(), 64, 64);
        d.post(DisplayCommand::Plot {
            x: 1,
            y: 1,
            on: true,
        });
        d.post(DisplayCommand::CopyRect {
            sx: 0,
            sy: 0,
            dx: 10,
            dy: 10,
            w: 4,
            h: 4,
            rule: CombinationRule::Over,
        });
        assert!(d.with_frame(|f| f.pixel(11, 11)));
    }

    #[test]
    fn overlapping_copy_uses_staged_source() {
        let d = Display::new(mp(), 64, 8);
        d.post(DisplayCommand::Plot {
            x: 0,
            y: 0,
            on: true,
        });
        // Shift right by one, overlapping; pixel must land only at x=1.
        d.post(DisplayCommand::CopyRect {
            sx: 0,
            sy: 0,
            dx: 1,
            dy: 0,
            w: 8,
            h: 1,
            rule: CombinationRule::Over,
        });
        d.with_frame(|f| {
            assert!(f.pixel(1, 0));
            assert!(!f.pixel(2, 0));
        });
    }

    #[test]
    fn out_of_bounds_ops_are_clipped() {
        let d = Display::new(mp(), 16, 16);
        d.post(DisplayCommand::Plot {
            x: 200,
            y: 200,
            on: true,
        });
        d.post(DisplayCommand::FillRect {
            x: 14,
            y: 14,
            w: 10,
            h: 10,
            rule: CombinationRule::Over,
        });
        assert_eq!(d.with_frame(|f| f.population()), 4);
    }

    #[test]
    fn erase_rule_clears_only_source_bits() {
        let d = Display::new(mp(), 16, 16);
        d.post(DisplayCommand::FillRect {
            x: 0,
            y: 0,
            w: 4,
            h: 1,
            rule: CombinationRule::Over,
        });
        d.post(DisplayCommand::FillRect {
            x: 2,
            y: 0,
            w: 4,
            h: 1,
            rule: CombinationRule::Erase,
        });
        d.with_frame(|f| {
            assert!(f.pixel(0, 0) && f.pixel(1, 0));
            assert!(!f.pixel(2, 0) && !f.pixel(3, 0));
        });
    }

    #[test]
    fn command_counter_advances() {
        let d = Display::new(mp(), 8, 8);
        d.post(DisplayCommand::Clear);
        d.flush();
        assert_eq!(d.commands_applied(), 1);
    }

    #[test]
    fn concurrent_posts_do_not_lose_commands() {
        use std::sync::Arc;
        let d = Arc::new(Display::new(mp(), 64, 64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for i in 0..1000u16 {
                        d.post(DisplayCommand::Plot {
                            x: i % 64,
                            y: (i / 64) % 64,
                            on: true,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        d.flush();
        assert_eq!(d.commands_applied(), 4000);
    }

    /// A fresh directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("mst_write_atomic_{tag}_{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn bytes(b: &[u8]) -> impl FnOnce(&mut dyn Write) -> io::Result<()> + '_ {
        move |w| w.write_all(b)
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_atomic_publishes_and_reports_the_length() {
        let dir = TempDir::new("publish");
        let path = dir.0.join("image");
        let ((), len) = write_atomic_torn_by(&path, bytes(b"first"), |_| None).unwrap();
        assert_eq!((fs::read(&path).unwrap(), len), (b"first".to_vec(), 5));
        let (value, len) = write_atomic_torn_by(
            &path,
            |w| {
                w.write_all(b"second!")?;
                Ok(42)
            },
            |_| None,
        )
        .unwrap();
        assert_eq!((value, len), (42, 7));
        assert_eq!(fs::read(&path).unwrap(), b"second!");
        assert_eq!(names(&dir.0), ["image"], "no temp file on the happy path");
    }

    #[test]
    fn a_temp_file_publishes_nothing_until_persisted() {
        let dir = TempDir::new("staged");
        let path = dir.0.join("image");
        write_atomic_torn_by(&path, bytes(b"old"), |_| None).unwrap();
        let ((), len, temp) = write_temp_torn_by(&path, bytes(b"staged!"), |_| None).unwrap();
        assert_eq!(len, 7);
        assert_eq!(
            fs::read(&path).unwrap(),
            b"old",
            "the final path is untouched"
        );
        assert_eq!(fs::read(temp.temp_path()).unwrap(), b"staged!");
        temp.persist(&path).unwrap();
        sync_dir(&dir.0);
        assert_eq!(fs::read(&path).unwrap(), b"staged!");
        assert_eq!(names(&dir.0), ["image"]);

        // A persist whose rename fails removes its temp file.
        let blocked = dir.0.join("blocked");
        fs::create_dir_all(blocked.join("occupied")).unwrap();
        let ((), _, temp) = write_temp_torn_by(&blocked, bytes(b"never"), |_| None).unwrap();
        assert!(temp.persist(&blocked).is_err());
        assert_eq!(names(&dir.0), ["blocked", "image"]);
    }

    #[test]
    fn a_tear_at_any_boundary_leaves_the_previous_file_byte_identical() {
        let dir = TempDir::new("tear");
        let path = dir.0.join("image");
        let previous: Vec<u8> = (0..100u8).collect();
        write_atomic_torn_by(&path, bytes(&previous), |_| None).unwrap();
        let next = vec![0xA5u8; 64];
        for boundary in [0, 1, 32, 63] {
            let err = write_atomic_torn_by(&path, bytes(&next), |len| {
                assert_eq!(len, 64, "the tear site sees the whole length");
                Some(boundary)
            })
            .unwrap_err();
            assert!(
                matches!(err, WriteError::Torn { boundary: b } if b == boundary),
                "{err}"
            );
            assert_eq!(fs::read(&path).unwrap(), previous, "boundary {boundary}");
            // The torn prefix stays behind, as a crash would leave it.
            let tmp = fs::read(dir.0.join("image.tmp")).unwrap();
            assert_eq!(tmp, next[..boundary as usize], "boundary {boundary}");
        }
    }

    #[test]
    fn a_failing_writer_leaves_no_temp_file() {
        let dir = TempDir::new("writerfail");
        let path = dir.0.join("image");
        write_atomic_torn_by(&path, bytes(b"kept"), |_| None).unwrap();
        let err = write_atomic_torn_by(
            &path,
            |w| {
                w.write_all(&[7; 10_000])?;
                Err::<(), _>(io::Error::other("serializer failed"))
            },
            |_| panic!("a failed write never reaches the tear site"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("serializer failed"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"kept");
        assert_eq!(names(&dir.0), ["image"]);
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file() {
        let dir = TempDir::new("renamefail");
        // A non-empty directory at the final name: the rename must fail.
        let path = dir.0.join("image");
        fs::create_dir_all(path.join("occupied")).unwrap();
        let err = write_atomic_torn_by(&path, bytes(b"never published"), |_| None).unwrap_err();
        assert!(matches!(err, WriteError::Io(_)), "{err}");
        assert_eq!(names(&dir.0), ["image"]);
        assert!(path.is_dir());
    }
}
