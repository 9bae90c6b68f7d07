//! Unified profile pipeline: Table 2 busy-state workload → `PROFILE.json`.
//!
//! Usage: `cargo run --release -p mst-bench --bin profile [--smoke] [--out FILE]`
//!
//! Runs a subset of the Table 2 macro benchmarks in the MS+4-busy system
//! state with per-processor state timelines enabled, interleaving forced
//! scavenges and full collections so the GC pause log fills, then captures
//! the whole measurement substrate — utilization timelines, registry
//! counters and histograms, pause-phase attribution — into a versioned
//! [`ProfileReport`](mst_telemetry::ProfileReport) written to
//! `PROFILE.json` (override with `--out`).
//!
//! The run is self-gating (exit 1 on violation):
//!
//! * **accounting is exact** — over the measured window, every processor's
//!   per-state nanoseconds must sum to the window wall-clock within 1%,
//!   and the aggregate across processors to `wall × processors` within 1%
//!   (a leak here means some code path switches state without closing the
//!   previous interval);
//! * **pauses are attributed** — every recorded GC pause's named phases
//!   must sum to its duration within 1 µs. Both collectors take their
//!   phases as gaps between boundary timestamps off one clock, so this is
//!   an identity, not a budget a preempted pause can miss.
//!
//! `--smoke` shortens the workload for CI; the gates are identical.

use std::time::Instant;

use mst_bench::harness::system_for_state;
use mst_core::SystemState;
use mst_telemetry::timeline::{self, ProcTimeline};
use mst_telemetry::{pauselog, profile, registry};

/// Minimum measured-window wall clock, long enough for several scavenge
/// and full-GC pauses per processor state.
const MIN_WALL_NS: u64 = 4_000_000_000;
const MIN_WALL_NS_SMOKE: u64 = 1_200_000_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "PROFILE.json".to_string());

    // Fresh instruments: the timelines, pause log, and registry are
    // process-global, and the report should describe this run only.
    timeline::set_enabled(true);
    registry::reset_all();
    pauselog::clear();
    timeline::reset();

    // The main thread is virtual processor 0 (the unsupervised main
    // interpreter); workers 1..N register their own sessions.
    let _session = timeline::register(0);
    let state = SystemState::MsBusy4;
    let mut ms = system_for_state(state);
    // Workers 1..N are in the roster; the main interpreter (processor 0)
    // runs on this thread, unsupervised.
    let processors = ms.vm().processor_roster().len() + 1;

    // Wait until every worker's timeline session is open, so the measured
    // window is wholly inside every processor's session and the
    // wall × processors identity holds exactly.
    let spawn_deadline = Instant::now() + std::time::Duration::from_secs(5);
    while timeline::snapshot().len() < processors {
        assert!(
            Instant::now() < spawn_deadline,
            "workers never registered timeline sessions"
        );
        std::thread::yield_now();
    }

    let selectors: &[&str] = if smoke {
        &["printClassDefinition", "findAllImplementors"]
    } else {
        &[
            "printClassDefinition",
            "findAllImplementors",
            "createInspectorView",
            "printClassHierarchy",
        ]
    };
    let prepared: Vec<_> = selectors
        .iter()
        .map(|sel| {
            ms.prepare(&format!("Benchmark {sel}"))
                .expect("benchmark selector must compile")
        })
        .collect();
    let min_wall = if smoke {
        MIN_WALL_NS_SMOKE
    } else {
        MIN_WALL_NS
    };

    eprintln!(
        "profile: {} workload, {} processors, {} selectors, >= {:.1}s window",
        state.label(),
        processors,
        selectors.len(),
        min_wall as f64 / 1e9
    );

    // ---- Measured window -------------------------------------------------
    let t0 = mst_telemetry::now_ns();
    let s0 = timeline::snapshot();
    let mut iters = 0usize;
    loop {
        let p = &prepared[iters % prepared.len()];
        ms.run_prepared(p).expect("benchmark run");
        ms.collect_garbage();
        if iters % 3 == 2 {
            ms.full_collect();
        }
        iters += 1;
        if iters >= prepared.len() && mst_telemetry::now_ns() - t0 >= min_wall {
            break;
        }
    }
    ms.full_collect();
    let s1 = timeline::snapshot();
    let t1 = mst_telemetry::now_ns();
    let wall_ns = t1 - t0;

    let utilization = window_diff(&s0, &s1, t0, t1);
    let mut failed = false;

    // Gate 1: per-processor accounting over the window.
    let mut agg = 0u64;
    for t in &utilization {
        agg += t.total_ns();
        let drift = t.total_ns().abs_diff(wall_ns);
        let pct = drift as f64 * 100.0 / wall_ns as f64;
        if pct > 1.0 {
            eprintln!(
                "FAIL: p{} accounted {} of {} window ns ({pct:.2}% drift, budget 1%)",
                t.proc,
                t.total_ns(),
                wall_ns
            );
            failed = true;
        }
    }
    let expect = wall_ns * utilization.len() as u64;
    let agg_pct = agg.abs_diff(expect) as f64 * 100.0 / expect.max(1) as f64;
    if agg_pct > 1.0 {
        eprintln!(
            "FAIL: aggregate accounted {agg} ns vs wall x processors {expect} \
             ({agg_pct:.2}% drift, budget 1%)"
        );
        failed = true;
    } else {
        eprintln!(
            "PASS: state accounting covers wall x {} processors within {agg_pct:.3}%",
            utilization.len()
        );
    }

    // Gate 2: every pause's phases sum to the pause, within 1 µs.
    let (pauses, _dropped) = pauselog::snapshot();
    assert!(!pauses.is_empty(), "workload must record GC pauses");
    let mut worst = 0u64;
    for p in &pauses {
        let gap = p.attributed_ns().abs_diff(p.total_ns);
        worst = worst.max(gap);
        if gap > 1_000 {
            eprintln!(
                "FAIL: {} pause at {} ns: phases sum to {} of {} ns (budget 1 µs)",
                p.kind,
                p.start_ns,
                p.attributed_ns(),
                p.total_ns
            );
            failed = true;
        }
    }
    if worst <= 1_000 {
        eprintln!(
            "PASS: {} pauses recorded, phases sum to every pause within {worst} ns",
            pauses.len()
        );
    }

    // ---- Report ----------------------------------------------------------
    let mut report = profile::capture(
        "profile.busy4",
        wall_ns,
        processors,
        vec![
            ("state".to_string(), state.label().to_string()),
            ("smoke".to_string(), smoke.to_string()),
            ("iters".to_string(), iters.to_string()),
            (
                "cores".to_string(),
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .to_string(),
            ),
        ],
    );
    // Report the measured window, not the whole process lifetime: the
    // bootstrap and shutdown phases are single-threaded by construction
    // and would dilute every utilization column.
    report.utilization = utilization;
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("{out_path} must be writable: {e}"));
    println!("{}", mst_telemetry::report::text_report());
    println!("wrote {out_path} ({} rows)", report.rows().len());

    ms.shutdown();
    if failed {
        std::process::exit(1);
    }
}

/// Per-processor deltas between two timeline snapshots, presented as
/// window-spanning timelines (`opened_ns = t0`, `closed_ns = t1`). Only
/// processors present in both snapshots qualify — anything else was not
/// live across the whole window.
fn window_diff(s0: &[ProcTimeline], s1: &[ProcTimeline], t0: u64, t1: u64) -> Vec<ProcTimeline> {
    s1.iter()
        .filter_map(|after| {
            let before = s0.iter().find(|b| b.proc == after.proc)?;
            let mut ns = [0u64; timeline::NSTATES];
            for (i, cell) in ns.iter_mut().enumerate() {
                *cell = after.ns[i].saturating_sub(before.ns[i]);
            }
            Some(ProcTimeline {
                proc: after.proc,
                ns,
                opened_ns: t0,
                closed_ns: t1,
                sessions: after.sessions,
            })
        })
        .collect()
}
