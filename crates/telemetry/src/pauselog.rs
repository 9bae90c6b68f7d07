//! Bounded in-memory log of GC pauses with per-phase attribution.
//!
//! A single whole-pause number cannot say *why* a collection was slow —
//! whether the roots scan, the copy/mark work, the termination protocol, or
//! the compactor's plan/update/move phases dominated, or whether one helper
//! did all the work. Each collection therefore reports a structured
//! [`GcPause`] record: named phase durations that partition the pause,
//! helper count, per-helper work, steal count, and balance. Records land in
//! a bounded ring (oldest dropped first, drops counted exactly) and every
//! phase duration is also fed into a registry histogram
//! (`gc.pause.<kind>.total_ns`, `gc.phase.<kind>.<phase>_ns`) for log₂
//! percentile summaries across a whole run.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::registry;

/// Maximum retained pause records; older records are dropped (and counted).
pub const PAUSE_LOG_CAP: usize = 512;

/// One collection pause, attributed to named phases.
#[derive(Clone, Debug)]
pub struct GcPause {
    /// Collection kind: `"scavenge"` or `"fullgc"`.
    pub kind: &'static str,
    /// `now_ns()` at pause start.
    pub start_ns: u64,
    /// Whole-pause duration.
    pub total_ns: u64,
    /// Named phase durations, in execution order. Phases are chosen so they
    /// partition the pause: their sum is the attributed time.
    pub phases: Vec<(&'static str, u64)>,
    /// Helper slots that participated (1 = serial).
    pub helpers: usize,
    /// Words copied/marked per helper slot (empty for serial collections
    /// that don't track it separately).
    pub per_helper_work: Vec<u64>,
    /// Work-stealing steals across all helpers.
    pub steals: u64,
    /// `min * 100 / max` over per-helper work; 100 = perfectly balanced
    /// (or no helper data), 0 = some helper did nothing.
    pub imbalance_pct: u32,
}

impl GcPause {
    /// The [`imbalance_pct`](Self::imbalance_pct) of `per_helper_work`.
    pub fn balance_pct(per_helper_work: &[u64]) -> u32 {
        let (lo, hi) = per_helper_work
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        lo.saturating_mul(100).checked_div(hi).unwrap_or(100) as u32
    }

    /// Nanoseconds attributed to named phases.
    pub fn attributed_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns)| ns).sum()
    }

    /// Share of the pause attributed to named phases, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_ns == 0 {
            return 100.0;
        }
        self.attributed_ns() as f64 * 100.0 / self.total_ns as f64
    }
}

struct Log {
    ring: VecDeque<GcPause>,
    dropped: u64,
}

static LOG: OnceLock<Mutex<Log>> = OnceLock::new();

fn log() -> MutexGuard<'static, Log> {
    LOG.get_or_init(|| {
        Mutex::new(Log {
            ring: VecDeque::with_capacity(PAUSE_LOG_CAP),
            dropped: 0,
        })
    })
    .lock()
    .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records a pause: appends to the ring (dropping the oldest past
/// [`PAUSE_LOG_CAP`]) and feeds the total and each phase duration into the
/// corresponding registry histograms. Called from stop-the-world context,
/// so the mutex is uncontended in practice.
pub fn record(pause: GcPause) {
    registry::histogram(&format!("gc.pause.{}.total_ns", pause.kind)).record(pause.total_ns);
    for &(phase, ns) in &pause.phases {
        registry::histogram(&format!("gc.phase.{}.{}_ns", pause.kind, phase)).record(ns);
    }
    let mut log = log();
    if log.ring.len() >= PAUSE_LOG_CAP {
        log.ring.pop_front();
        log.dropped += 1;
    }
    log.ring.push_back(pause);
}

/// All retained records (oldest first) and the exact count of dropped ones.
pub fn snapshot() -> (Vec<GcPause>, u64) {
    let log = log();
    (log.ring.iter().cloned().collect(), log.dropped)
}

/// Clears the log (between benchmark runs). The registry histograms the
/// records fed are left alone.
pub fn clear() {
    let mut log = log();
    log.ring.clear();
    log.dropped = 0;
}

/// Serializes tests (across this crate) that fill, clear, or assert on the
/// process-global pause log.
#[cfg(test)]
pub(crate) fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> MutexGuard<'static, ()> {
        test_guard()
    }

    fn pause(kind: &'static str, total: u64) -> GcPause {
        GcPause {
            kind,
            start_ns: 1,
            total_ns: total,
            phases: vec![
                ("roots", total / 4),
                ("copy", total / 2),
                ("flip", total / 4),
            ],
            helpers: 2,
            per_helper_work: vec![100, 80],
            steals: 3,
            imbalance_pct: 80,
        }
    }

    #[test]
    fn records_attribute_and_summarize() {
        let _l = serial();
        clear();
        record(pause("test_scavenge", 1000));
        record(pause("test_scavenge", 2000));
        let (records, dropped) = snapshot();
        let mine: Vec<_> = records
            .iter()
            .filter(|p| p.kind == "test_scavenge")
            .collect();
        assert!(mine.len() >= 2);
        assert_eq!(dropped, 0);
        assert_eq!(mine[0].attributed_ns(), 1000);
        assert!((mine[0].coverage_pct() - 100.0).abs() < 1e-9);
        let h = registry::histogram("gc.pause.test_scavenge.total_ns").snapshot();
        assert!(h.count >= 2);
        let p = registry::histogram("gc.phase.test_scavenge.copy_ns").snapshot();
        assert!(p.count >= 2);
    }

    #[test]
    fn ring_is_bounded_with_exact_drop_accounting() {
        let _l = serial();
        clear();
        for i in 0..(PAUSE_LOG_CAP as u64 + 37) {
            record(pause("test_bound", 100 + i));
        }
        let (records, dropped) = snapshot();
        assert_eq!(records.len(), PAUSE_LOG_CAP);
        assert_eq!(dropped, 37);
        // Oldest 37 dropped: the survivors start at total_ns == 100 + 37.
        assert_eq!(records[0].total_ns, 137);
        assert_eq!(
            records.last().unwrap().total_ns,
            100 + PAUSE_LOG_CAP as u64 + 36
        );
    }

    #[test]
    fn zero_total_counts_as_fully_covered() {
        let p = GcPause {
            kind: "test_zero",
            start_ns: 0,
            total_ns: 0,
            phases: vec![],
            helpers: 1,
            per_helper_work: vec![],
            steals: 0,
            imbalance_pct: 0,
        };
        assert_eq!(p.attributed_ns(), 0);
        assert!((p.coverage_pct() - 100.0).abs() < 1e-9);
    }
}
