//! Spin-locks in the style of the V kernel's on the Firefly.
//!
//! The paper (§3.1): *"For very brief periods of exclusion, we rely on a
//! spin-lock mechanism based on the processor's interlocked test-and-set
//! instruction. If the test fails, the locking code invokes the kernel's
//! `Delay` operation with a minimal timeout, which allows V process switching
//! to occur, if necessary, and also avoids monopolizing the memory bus."*
//!
//! [`SpinLock`] reproduces exactly that: an atomic swap for test-and-set and
//! [`delay`](crate::delay) as the back-off. The [`SyncMode`] knob compiles
//! the lock down to nothing for the *baseline BS* configuration, which the
//! harness uses to measure the static cost of multiprocessor support.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use mst_telemetry as tel;
use mst_telemetry::trace::record;
use mst_telemetry::{TraceEvent, TracePhase};

use crate::process::delay;

/// Whether synchronization operations are real or compiled away.
///
/// `Uniprocessor` corresponds to the paper's "baseline BS" interpreter: the
/// code paths are identical but every lock acquisition is a no-op, so the
/// system is only safe with a single interpreter thread. `Multiprocessor`
/// is the MS configuration with interlocked test-and-set locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncMode {
    /// Baseline BS: no interlocked operations; single interpreter only.
    Uniprocessor,
    /// MS: spin-locks on every serialized resource.
    #[default]
    Multiprocessor,
}

impl SyncMode {
    /// Returns `true` in the multiprocessor (MS) configuration.
    #[inline]
    pub fn is_mp(self) -> bool {
        matches!(self, SyncMode::Multiprocessor)
    }
}

/// A raw test-and-set spin-lock (no protected data).
///
/// Contention is counted only on the slow path, so the uncontended fast
/// path stays a single interlocked operation, and only in the telemetry
/// registry: every lock adds to `lock.contended`, `lock.spin_iters` and
/// `lock.spin_wait_ns`, and a [named](SpinLock::named) one also to
/// `lock.<name>.contended` and `lock.<name>.spin_iters`.
///
/// Most callers want [`SpinMutex`], which pairs the lock with the data it
/// guards. `SpinLock` exists for the cases in the VM where the guarded state
/// lives in the Smalltalk heap rather than in a Rust value (for example the
/// scheduler's ready queue, which is a Smalltalk object).
pub struct SpinLock {
    mode: SyncMode,
    /// Registry name of the serialized resource ("" for anonymous locks).
    name: &'static str,
    flag: AtomicBool,
    /// Per-lock registry instruments, resolved on first contention.
    instruments: OnceLock<(&'static tel::Counter, &'static tel::Histogram)>,
}

impl fmt::Debug for SpinLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpinLock")
            .field("mode", &self.mode)
            .field("held", &self.flag.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpinLock {
    /// Creates an anonymous lock operating in the given [`SyncMode`].
    pub const fn new(mode: SyncMode) -> Self {
        SpinLock::named(mode, "")
    }

    /// Creates a lock whose contention is published to the telemetry
    /// registry under `lock.<name>.*` (Table 3's per-resource rows).
    pub const fn named(mode: SyncMode, name: &'static str) -> Self {
        SpinLock {
            mode,
            name,
            flag: AtomicBool::new(false),
            instruments: OnceLock::new(),
        }
    }

    /// The mode this lock was created with.
    #[inline]
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// The registry name of the serialized resource ("" if anonymous).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, spinning with [`delay`] back-off until available.
    ///
    /// In [`SyncMode::Uniprocessor`] this is a no-op (the guard is still
    /// returned so call sites are mode-independent).
    #[inline]
    pub fn acquire(&self) -> SpinGuard<'_> {
        if self.mode.is_mp() {
            crate::fault::lock_delay();
            if self.flag.swap(true, Ordering::Acquire) {
                self.acquire_slow();
            }
        }
        SpinGuard { lock: self }
    }

    #[cold]
    fn acquire_slow(&self) {
        let _spin_state = tel::timeline::enter_state(tel::ProcState::LockSpin);
        let start_ns = tel::now_ns();
        let mut iter = 0u32;
        let mut spins = 0u64;
        // Test (plain load) then test-and-set, delaying between attempts,
        // exactly as the V kernel locks did to keep off the memory bus.
        loop {
            while self.flag.load(Ordering::Relaxed) {
                delay(iter);
                iter += 1;
                spins += 1;
            }
            if !self.flag.swap(true, Ordering::Acquire) {
                break;
            }
        }
        let waited_ns = tel::now_ns() - start_ns;
        tel::counter!("lock.contended").incr();
        tel::histogram!("lock.spin_iters").record(spins);
        tel::histogram!("lock.spin_wait_ns").record(waited_ns);
        if !self.name.is_empty() {
            let (contended, iters) = *self.instruments.get_or_init(|| {
                (
                    tel::counter(&format!("lock.{}.contended", self.name)),
                    tel::histogram(&format!("lock.{}.spin_iters", self.name)),
                )
            });
            contended.incr();
            iters.record(spins);
        }
        if tel::enabled() {
            record(TraceEvent {
                name: if self.name.is_empty() {
                    "lock.contended"
                } else {
                    self.name
                },
                cat: "lock",
                phase: TracePhase::Complete,
                start_ns,
                dur_ns: waited_ns,
                arg_name: "spins",
                arg: spins,
            });
        }
    }

    /// Attempts to acquire the lock without spinning.
    ///
    /// Returns `None` if the lock is held by somebody else. Always succeeds
    /// in uniprocessor mode.
    #[inline]
    pub fn try_acquire(&self) -> Option<SpinGuard<'_>> {
        if self.mode.is_mp() && self.flag.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(SpinGuard { lock: self })
        }
    }

    /// Whether the lock is currently held (racy; for diagnostics only).
    pub fn is_held(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    #[inline]
    fn release(&self) {
        if self.mode.is_mp() {
            self.flag.store(false, Ordering::Release);
        }
    }
}

/// RAII guard returned by [`SpinLock::acquire`]; releases the lock on drop.
#[must_use = "the lock is released as soon as the guard is dropped"]
#[derive(Debug)]
pub struct SpinGuard<'a> {
    lock: &'a SpinLock,
}

impl Drop for SpinGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.release();
    }
}

/// A value protected by a [`SpinLock`].
///
/// # Example
///
/// ```
/// use mst_vkernel::{SpinMutex, SyncMode};
///
/// let q = SpinMutex::new(SyncMode::Multiprocessor, Vec::new());
/// q.lock().push(7);
/// assert_eq!(q.lock().pop(), Some(7));
/// ```
pub struct SpinMutex<T> {
    lock: SpinLock,
    value: UnsafeCell<T>,
}

// SAFETY: access to `value` is mediated by the spin-lock in multiprocessor
// mode. In uniprocessor mode the lock is a no-op, but that mode is only used
// with a single interpreter thread; sharing a uniprocessor-mode SpinMutex
// across threads that lock concurrently is a usage error of the VM
// configuration, mirroring the fact that baseline BS was not thread-safe.
unsafe impl<T: Send> Send for SpinMutex<T> {}
unsafe impl<T: Send> Sync for SpinMutex<T> {}

impl<T: fmt::Debug> fmt::Debug for SpinMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(v) => f.debug_tuple("SpinMutex").field(&&*v).finish(),
            None => f.write_str("SpinMutex(<locked>)"),
        }
    }
}

impl<T> SpinMutex<T> {
    /// Creates a new mutex guarding `value` in the given [`SyncMode`].
    pub const fn new(mode: SyncMode, value: T) -> Self {
        SpinMutex {
            lock: SpinLock::new(mode),
            value: UnsafeCell::new(value),
        }
    }

    /// Creates a named mutex whose contention is published to the telemetry
    /// registry under `lock.<name>.*` (see [`SpinLock::named`]).
    pub const fn named(mode: SyncMode, name: &'static str, value: T) -> Self {
        SpinMutex {
            lock: SpinLock::named(mode, name),
            value: UnsafeCell::new(value),
        }
    }

    /// The registry name of the underlying lock ("" if anonymous).
    pub fn name(&self) -> &'static str {
        self.lock.name()
    }

    /// Acquires the lock and returns a guard dereferencing to the value.
    #[inline]
    pub fn lock(&self) -> SpinMutexGuard<'_, T> {
        SpinMutexGuard {
            _guard: self.lock.acquire(),
            value: self.value.get(),
        }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinMutexGuard<'_, T>> {
        self.lock.try_acquire().map(|g| SpinMutexGuard {
            _guard: g,
            value: self.value.get(),
        })
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Gets mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// RAII guard for [`SpinMutex`]; dereferences to the protected value.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct SpinMutexGuard<'a, T> {
    _guard: SpinGuard<'a>,
    value: *mut T,
}

impl<T> Deref for SpinMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, giving exclusive access.
        unsafe { &*self.value }
    }
}

impl<T> DerefMut for SpinMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock, giving exclusive access.
        unsafe { &mut *self.value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_acquire_release() {
        let lock = SpinLock::named(SyncMode::Multiprocessor, "test_spinlock_uncontended");
        let contended = tel::counter!("lock.test_spinlock_uncontended.contended");
        let before = contended.get();
        {
            let _g = lock.acquire();
            assert!(lock.is_held());
            assert!(lock.try_acquire().is_none());
        }
        assert!(!lock.is_held());
        assert!(lock.try_acquire().is_some());
        assert_eq!(contended.get() - before, 0, "the fast path counts nothing");
    }

    #[test]
    fn uniprocessor_mode_is_noop() {
        let lock = SpinLock::new(SyncMode::Uniprocessor);
        let _a = lock.acquire();
        // A second acquire must not deadlock: baseline BS has no locking.
        let _b = lock.acquire();
        assert!(!lock.is_held());
    }

    #[test]
    fn mutex_guards_data_across_threads() {
        let m = Arc::new(SpinMutex::new(SyncMode::Multiprocessor, 0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 40_000);
    }

    #[test]
    fn contention_is_counted() {
        // An anonymous lock has no per-lock instruments; its contention
        // reaches the aggregate ones every lock adds to.
        let contended = tel::counter!("lock.contended");
        let spin_iters = tel::histogram!("lock.spin_iters");
        let before = (contended.get(), spin_iters.snapshot().count);
        let m = Arc::new(SpinMutex::new(SyncMode::Multiprocessor, ()));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        // Give the other thread time to hit the contended path.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        t.join().unwrap();
        assert!(contended.get() - before.0 >= 1);
        assert!(spin_iters.snapshot().count - before.1 >= 1);
    }

    #[test]
    fn named_lock_publishes_contention_to_registry() {
        let m = Arc::new(SpinMutex::named(
            SyncMode::Multiprocessor,
            "test_spinlock_named",
            (),
        ));
        assert_eq!(m.name(), "test_spinlock_named");
        let contended = tel::counter!("lock.test_spinlock_named.contended");
        let before = contended.get();
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        // Give the other thread time to hit the contended path.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        t.join().unwrap();
        assert!(
            contended.get() - before >= 1,
            "the contended acquisition reached the registry"
        );
        let hists = tel::registry::histograms();
        assert!(hists
            .iter()
            .any(|(k, _)| k == "lock.test_spinlock_named.spin_iters"));
    }

    #[test]
    fn mutex_into_inner_and_get_mut() {
        let mut m = SpinMutex::new(SyncMode::Multiprocessor, String::from("a"));
        m.get_mut().push('b');
        assert_eq!(m.into_inner(), "ab");
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let m = SpinMutex::new(SyncMode::Multiprocessor, 3);
        assert!(format!("{m:?}").contains('3'));
        let _g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
    }
}
