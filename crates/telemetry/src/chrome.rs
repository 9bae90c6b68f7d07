//! Chrome `trace_event` JSON export.
//!
//! Emits the "JSON Array Format" with a `traceEvents` top-level key —
//! loadable directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//! Timestamps (`ts`) and durations (`dur`) are microseconds, emitted with
//! three decimal places so nanosecond resolution survives.

use std::fmt::Write as _;

use crate::json::escape;
use crate::trace::{all_rings, TraceEvent, TracePhase};

/// The process id used in exported traces (one VM = one process).
pub const TRACE_PID: u64 = 1;

/// The process display name emitted as `process_name` metadata.
pub const TRACE_PROCESS_NAME: &str = "mst-vm";

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with ns precision, without going through floats.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_event(out: &mut String, tid: u64, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    out.push_str(&escape(ev.name));
    out.push_str("\",\"cat\":\"");
    out.push_str(&escape(ev.cat));
    out.push_str("\",\"ph\":\"");
    out.push_str(match ev.phase {
        TracePhase::Complete => "X",
        TracePhase::Instant => "i",
        TracePhase::Counter => "C",
    });
    out.push_str("\",\"ts\":");
    push_us(out, ev.start_ns);
    match ev.phase {
        TracePhase::Complete => {
            out.push_str(",\"dur\":");
            push_us(out, ev.dur_ns);
        }
        TracePhase::Instant => out.push_str(",\"s\":\"t\""),
        TracePhase::Counter => {}
    }
    let _ = write!(out, ",\"pid\":{TRACE_PID},\"tid\":{tid}");
    if !ev.arg_name.is_empty() {
        let _ = write!(out, ",\"args\":{{\"{}\":{}}}", escape(ev.arg_name), ev.arg);
    } else {
        out.push_str(",\"args\":{}");
    }
    out.push('}');
}

fn push_process_name(out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(TRACE_PROCESS_NAME)
    );
}

fn push_thread_name(out: &mut String, tid: u64, name: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    );
}

/// Renders named threads' events as a complete `trace_event` document.
/// Pure (no global state) so tests can feed fixed timestamps.
pub fn events_to_json(threads: &[(u64, &str, &[TraceEvent])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    push_process_name(&mut out);
    for (tid, name, _) in threads {
        out.push(',');
        push_thread_name(&mut out, *tid, name);
    }
    for (tid, _, events) in threads {
        for ev in *events {
            out.push(',');
            push_event(&mut out, *tid, ev);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Exports every live thread ring as Chrome `trace_event` JSON.
pub fn export_chrome_json() -> String {
    let rings = all_rings();
    let mut threads: Vec<(u64, String, Vec<TraceEvent>)> = rings
        .into_iter()
        .map(|(ring, events, _dropped)| (ring.tid, ring.name(), events))
        .collect();
    threads.sort_by_key(|(tid, _, _)| *tid);
    let borrowed: Vec<(u64, &str, &[TraceEvent])> = threads
        .iter()
        .map(|(tid, name, events)| (*tid, name.as_str(), events.as_slice()))
        .collect();
    events_to_json(&borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn fixed_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "gc.scavenge",
                cat: "gc",
                phase: TracePhase::Complete,
                start_ns: 1_234_567,
                dur_ns: 89_012,
                arg_name: "words_survived",
                arg: 4096,
            },
            TraceEvent {
                name: "interp.cache_miss",
                cat: "interp",
                phase: TracePhase::Instant,
                start_ns: 2_000_500,
                dur_ns: 0,
                arg_name: "",
                arg: 0,
            },
        ]
    }

    #[test]
    fn exporter_matches_golden_file() {
        // Satellite: golden-file test of schema-complete output.
        let events = fixed_events();
        let threads: Vec<(u64, &str, &[TraceEvent])> = vec![
            (1, "p0:interp", events.as_slice()),
            (2, "p1:interp", &events[..1]),
        ];
        let json = events_to_json(&threads);
        let golden = include_str!("../tests/golden_trace.json");
        assert_eq!(
            json,
            golden.trim_end(),
            "exporter output drifted from golden file"
        );
    }

    #[test]
    fn exported_json_is_schema_complete() {
        let events = fixed_events();
        let threads: Vec<(u64, &str, &[TraceEvent])> = vec![(7, "p0:interp", events.as_slice())];
        let doc = parse(&events_to_json(&threads)).expect("exporter emits valid JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Process-name and thread-name metadata plus the two events.
        assert_eq!(evs.len(), 4);
        let pmeta = &evs[0];
        assert_eq!(pmeta.get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            pmeta.get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(
            pmeta
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some(TRACE_PROCESS_NAME)
        );
        let tmeta = &evs[1];
        assert_eq!(
            tmeta.get("name").and_then(Json::as_str),
            Some("thread_name")
        );
        assert_eq!(
            tmeta
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("p0:interp")
        );
        // What a trace viewer requires of every event, metadata included...
        for ev in evs {
            for key in ["name", "ph", "pid", "tid", "args"] {
                assert!(ev.get(key).is_some(), "event missing required key {key}");
            }
        }
        assert_eq!(pmeta.get("tid").and_then(Json::as_f64), Some(0.0));
        assert_eq!(tmeta.get("tid").and_then(Json::as_f64), Some(7.0));
        // ...and of the non-metadata ones besides.
        for ev in &evs[2..] {
            for key in ["cat", "ts"] {
                assert!(ev.get(key).is_some(), "event missing required key {key}");
            }
        }
        let span = &evs[2];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(1234.567));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(89.012));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("words_survived"))
                .and_then(Json::as_f64),
            Some(4096.0)
        );
        let inst = &evs[3];
        assert_eq!(inst.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(inst.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn counter_events_export_as_counter_phase() {
        let ev = TraceEvent {
            name: "gc.eden",
            cat: "gc",
            phase: TracePhase::Counter,
            start_ns: 5_000_250,
            dur_ns: 0,
            arg_name: "occupied_words",
            arg: 81920,
        };
        let events = [ev];
        let threads: Vec<(u64, &str, &[TraceEvent])> = vec![(3, "p0:interp", &events)];
        let doc = parse(&events_to_json(&threads)).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let c = evs.last().unwrap();
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(c.get("ts").and_then(Json::as_f64), Some(5000.25));
        assert!(c.get("dur").is_none(), "counters carry no duration");
        assert!(c.get("s").is_none(), "counters carry no instant scope");
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("occupied_words"))
                .and_then(Json::as_f64),
            Some(81920.0)
        );
    }

    #[test]
    fn live_export_round_trips_through_parser() {
        crate::trace::set_enabled(true);
        crate::trace::instant("test.chrome_live", "test", "k", 1);
        crate::trace::set_enabled(false);
        let doc = parse(&export_chrome_json()).expect("live export parses");
        let names: Vec<&str> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"test.chrome_live"));
    }
}
