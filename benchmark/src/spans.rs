//! The driver's span recorder: one span around every public call the
//! benchmark makes into the system, kept in memory and written out when the
//! run ends. Timestamps are on `mst_telemetry::now_ns`, so driver spans line
//! up with the runtime's own trace events in one file.

use std::collections::BTreeMap;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to: spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One caller thread's spans. Spans nest by call order: `begin` opens a
/// child of whatever span is open.
#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn begin(&mut self, name: &'static str, op: u32) {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: mst_telemetry::now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> u64 {
        let idx = self.open.pop().expect("end without begin") as usize;
        self.spans[idx].end_ns = mst_telemetry::now_ns();
        self.spans[idx].dur_ns()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl NameTotal {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

/// A span's self time is its duration minus what its children cover. The
/// children of one span are sequential calls on one thread, so they never
/// overlap and their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

pub fn totals_by_name(recorders: &[&Recorder]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for r in recorders {
        for (s, self_ns) in r.spans.iter().zip(self_times(&r.spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Share of `callers × window` that lies inside a root span, in percent.
pub fn coverage_pct(recorders: &[&Recorder], window_ns: u64) -> f64 {
    let covered: u64 = recorders
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::dur_ns)
        .sum();
    100.0 * crate::stats::ratio(covered as f64, (window_ns * recorders.len() as u64) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // op [0, 100) holds a [10, 40) and b [40, 90) (adjacent); a holds
        // c [15, 25) (nested). A grandchild shortens only its own parent.
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("c", 15, 25, 1),
            span("b", 40, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn totals_group_by_name_and_coverage_counts_roots_only() {
        let r = Recorder {
            spans: vec![
                span("op", 0, 40, NO_PARENT),
                span("call", 5, 35, 0),
                span("op", 50, 90, NO_PARENT),
                span("call", 50, 90, 2),
            ],
            open: Vec::new(),
        };
        let totals = totals_by_name(&[&r]);
        assert_eq!(
            totals["op"],
            NameTotal {
                count: 2,
                total_ns: 80,
                self_ns: 10
            }
        );
        assert_eq!(totals["call"].self_ns, 70);
        assert_eq!(coverage_pct(&[&r], 100), 80.0);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut r = Recorder::default();
        r.begin("op", 7);
        r.begin("call", 7);
        r.end();
        r.begin("call", 7);
        r.end();
        r.end();
        let parents: Vec<u32> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0]);
        assert!(r.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}
