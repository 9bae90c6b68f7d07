//! One run: one workload, one seed, one window — untraced for the
//! end-to-end metrics, or traced for the per-layer metrics.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mst_telemetry::json::escape;

use crate::layers::{per_layer, Context, Fixed, Slice};
use crate::spans::NO_PARENT;
use crate::spec::{Sizing, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio};
use crate::sys;
use crate::workloads::{config, scratch_dir, Expected, RunParams, System, Window};

/// Driver spans and runtime events beyond these counts stay out of
/// `TRACE_<workload>.json` (they are still counted); the file is for
/// looking at, the totals come from memory.
const TRACE_FILE_SPANS: usize = 20_000;
const TRACE_FILE_EVENTS_PER_THREAD: usize = 5_000;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    /// Fewer set-up repeats, for the ≤15 s smoke suite.
    pub smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every op answered as expected and every post-window check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failures and caveats, for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct)
    }

    /// `failed ÷ attempted`: a failed, refused or wrongly answered op also
    /// counts as missing every latency figure.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The one-line result the acceptance driver reads.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }

    pub fn print(&self, args: &RunArgs) {
        println!(
            "== {} seed {} window {} s {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            if args.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        for m in &self.metrics {
            println!("  {:<46} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "  attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// A JSON number with every digit the measurement has.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn params(args: &RunArgs, expected: &Expected) -> RunParams {
    RunParams {
        workload: args.workload,
        seed: args.seed,
        sizing: Sizing::host(),
        expected: expected.clone(),
        scratch: scratch_dir(&crate::out_dir(), args.workload),
    }
}

/// Runs one window against the given expected answers.
pub fn run_one(args: &RunArgs, expected: &Expected) -> Outcome {
    std::fs::create_dir_all(crate::out_dir()).expect("benchmark/out is writable");
    if args.traced {
        run_traced(args, expected)
    } else {
        run_untraced(args, expected)
    }
}

fn run_untraced(args: &RunArgs, expected: &Expected) -> Outcome {
    let p = params(args, expected);
    // Set up several times and report the median: one set-up is a few tens
    // of milliseconds and would otherwise be the noisiest number here (the
    // median of five still spread 0.22 between runs on `gc_churn`).
    let repeats = if args.smoke { 3 } else { 11 };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut system = None;
    for _ in 0..repeats {
        drop(system.take());
        let t0 = Instant::now();
        system = Some(System::setup(&p, false));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut system = system.expect("at least one set-up");
    let mut w = system.run(&p, Duration::from_secs_f64(args.seconds), false);
    // Read before the post-window checks: the recovery check builds a
    // second server, which is the benchmark's footprint, not the system's.
    let peak_rss_mb = sys::peak_rss_mb();
    let finish = system.finish(&p);

    w.wall_ns.sort_unstable();
    let p99 = percentile(&w.wall_ns, 99.0);
    let ops = w.attempted as f64;
    let values = [
        median(&setup_s),
        percentile(&w.wall_ns, 50.0).value / 1e3,
        percentile(&w.wall_ns, 90.0).value / 1e3,
        ratio(w.caller_cpu_ns as f64 / 1e3, ops),
        ratio(w.process_cpu_ns as f64 / 1e3, ops),
        ratio(ops, w.window_ns as f64 / 1e9),
        peak_rss_mb,
    ];
    let mut notes = w.errors.clone();
    notes.extend(finish.errors.iter().cloned());
    notes.push(format!(
        "op_wall_us_p99 {} us, {} samples beyond it{} (reported, not bounded)",
        p99.value / 1e3,
        p99.beyond,
        if p99.reportable() {
            ""
        } else {
            ": fewer than 10, window too short"
        }
    ));
    Outcome {
        correct: w.failed == 0 && finish.errors.is_empty(),
        attempted: w.attempted,
        failed: w.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, unit, value })
            .collect(),
        notes,
    }
}

fn run_traced(args: &RunArgs, expected: &Expected) -> Outcome {
    let p = params(args, expected);
    let loadavg_start = sys::loadavg();
    let session = config(args.workload, p.sizing);
    let fixed = Fixed::measure(args.workload, session);

    // Two slices, same seed, each on a fresh system. The first has only the
    // driver's probes on; the second also has the runtime's event tracing
    // and state timelines on (timelines register threads as they start, so
    // they are switched on before that system is built).
    let probed = Slice::measure(&p, args.seconds / 2.0);
    mst_telemetry::set_enabled(true);
    mst_telemetry::timeline::set_enabled(true);
    let traced = Slice::measure(&p, args.seconds / 2.0);
    mst_telemetry::set_enabled(false);
    mst_telemetry::timeline::set_enabled(false);

    let rings = mst_telemetry::trace::all_rings();
    let cx = Context {
        workload: args.workload,
        processors: session.processors,
        fixed: &fixed,
        loadavg_start,
        trace_events_dropped: rings.iter().map(|(_, _, dropped)| dropped).sum(),
    };
    let values = per_layer(&cx, &probed, &traced);
    assert!(
        values
            .iter()
            .map(|(n, _)| n)
            .eq(PER_LAYER.iter().map(|(n, _)| n)),
        "per-layer rows are emitted in the declared order"
    );

    let path = crate::out_dir().join(format!("TRACE_{}.json", args.workload.name()));
    write_trace(&path, args, &traced.window, &rings).expect("trace file writes");

    let mut notes = Vec::new();
    let mut dropped = 0;
    for slice in [&probed, &traced] {
        notes.extend(slice.window.errors.iter().cloned());
        notes.extend(slice.finish.errors.iter().cloned());
        dropped += slice
            .window
            .probes
            .iter()
            .map(|pr| pr.pauses_dropped)
            .sum::<u64>();
    }
    if dropped > 0 {
        notes.push(format!(
            "{dropped} GC pauses left the runtime's log undrained"
        ));
    }
    if loadavg_start > p.sizing.cores as f64 / 2.0 {
        notes.push(format!("noisy: load average {loadavg_start} at start"));
    }
    notes.push(format!("trace written to {}", path.display()));
    let failed = probed.window.failed + traced.window.failed;
    Outcome {
        correct: failed == 0 && probed.finish.errors.is_empty() && traced.finish.errors.is_empty(),
        attempted: probed.window.attempted + traced.window.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), (_, value))| Metric { name, unit, value })
            .collect(),
        notes,
    }
}

type Rings = [(
    std::sync::Arc<mst_telemetry::trace::ThreadRing>,
    Vec<mst_telemetry::TraceEvent>,
    u64,
)];

/// Writes the driver's spans and the newest runtime trace events as one
/// Chrome `trace_event` document (open it in `chrome://tracing` or
/// <https://ui.perfetto.dev>). Driver spans carry their index, parent and
/// op id as `args`; each caller is one `tid` under `pid` 1, the runtime's
/// threads sit under `pid` 2.
fn write_trace(path: &Path, args: &RunArgs, w: &Window, rings: &Rings) -> std::io::Result<()> {
    let quota = TRACE_FILE_SPANS / w.probes.len().max(1);
    let spans_total: usize = w.probes.iter().map(|p| p.rec.spans.len()).sum();
    let spans_written: usize = w.probes.iter().map(|p| p.rec.spans.len().min(quota)).sum();
    let mut out = String::with_capacity(4 << 20);
    write!(
        out,
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"ops\":{},\"driver_spans_total\":{},\
         \"driver_spans_in_file\":{},\"clock\":\"mst_telemetry::now_ns, shown in us\"}},\
         \"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        args.workload.name(),
        args.seed,
        w.attempted,
        spans_total,
        spans_written,
    )
    .expect("writing to a String");
    let mut first = true;
    let mut event = |out: &mut String, body: std::fmt::Arguments| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.write_fmt(body).expect("writing to a String");
    };
    let us = |ns: u64| ns as f64 / 1e3;
    for (tid, probe) in w.probes.iter().enumerate() {
        for (i, s) in probe.rec.spans.iter().take(quota).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            event(
                &mut out,
                format_args!(
                    "{{\"name\":\"{}\",\"cat\":\"driver\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                    escape(s.name),
                    us(s.start_ns),
                    us(s.dur_ns()),
                    s.op
                ),
            );
        }
    }
    for (ring, events, _) in rings {
        let skip = events.len().saturating_sub(TRACE_FILE_EVENTS_PER_THREAD);
        for e in &events[skip..] {
            let ph = match e.phase {
                mst_telemetry::TracePhase::Complete => "X",
                mst_telemetry::TracePhase::Instant => "i",
                // Counter samples need a series object; the timeline view
                // of this file is about spans.
                mst_telemetry::TracePhase::Counter => continue,
            };
            event(
                &mut out,
                format_args!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"pid\":2,\"tid\":{},\
                     \"ts\":{},\"dur\":{},\"args\":{{\"{}\":{}}}}}",
                    escape(e.name),
                    escape(e.cat),
                    ring.tid,
                    us(e.start_ns),
                    us(e.dur_ns),
                    escape(if e.arg_name.is_empty() {
                        "arg"
                    } else {
                        e.arg_name
                    }),
                    e.arg
                ),
            );
        }
    }
    out.push_str("]}");
    std::fs::write(path, out)
}
