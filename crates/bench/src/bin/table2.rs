//! Regenerates **Table 2** ("Preliminary performance results") and
//! **Figure 2** (the same data normalized to baseline) from the paper.
//!
//! Usage: `cargo run --release -p mst-bench --bin table2 [--quick]`
//!
//! Each of the eight macro benchmarks runs in the four system states:
//! baseline BS, MS, MS + 4 idle Processes, MS + 4 busy Processes. The
//! primary metric is per-thread CPU time of the benchmark interpreter (see
//! `harness` module docs for why, on a single-core host); wall time is
//! shown for reference. The paper's numbers are printed alongside for
//! shape comparison.

use mst_bench::harness::{
    bar, ms_str, system_for_state, time_prepared, warm_process, Timing, TABLE2,
};
use mst_core::SystemState;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (min_iters, min_ms) = if quick { (2, 50) } else { (3, 400) };

    println!("Reproducing Table 2 / Figure 2 — Pallas & Ungar, PLDI 1988");
    println!(
        "({} iterations-minimum per cell; metric: benchmark-thread CPU time)",
        min_iters
    );
    println!();

    eprintln!("== warming the process");
    warm_process(&TABLE2.map(|b| b.selector));

    // results[state][bench]
    let mut results: Vec<Vec<Timing>> = Vec::new();
    for state in SystemState::ALL {
        eprintln!("== state: {}", state.label());
        let mut ms = system_for_state(state);
        let mut row = Vec::new();
        for b in TABLE2 {
            let prepared = ms
                .prepare(&format!("Benchmark {}", b.selector))
                .expect("benchmark selector must compile");
            let t = time_prepared(&mut ms, &prepared, min_iters, min_ms);
            eprintln!("   {:<36} {} ms cpu", b.label, ms_str(t.cpu_ns));
            row.push(t);
        }
        let c = ms.vm().counters();
        eprintln!(
            "   [counters: {} bytecodes, {} sends, {:.1}% cache hits, {} scavenges]",
            c.bytecodes,
            c.sends,
            100.0 * c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
            ms.mem().gc_stats().scavenges,
        );
        results.push(row);
        ms.shutdown();
    }

    // ---- Table 2 ----------------------------------------------------
    println!("\nTable 2: measured CPU milliseconds per run (wall in parens)\n");
    print!("{:<36}", "state \\ benchmark");
    for b in TABLE2 {
        print!(" | {:>20}", short(b.label));
    }
    println!();
    for (si, state) in SystemState::ALL.iter().enumerate() {
        print!("{:<36}", state.label());
        for t in &results[si] {
            print!(
                " | {:>9} ({:>7})",
                ms_str(t.cpu_ns).trim(),
                format!("{:.1}", t.wall_ns / 1.0e6)
            );
        }
        println!();
    }

    println!("\npaper's Table 2 (seconds on the Firefly), for shape comparison:\n");
    print!("{:<36}", "state \\ benchmark");
    for b in TABLE2 {
        print!(" | {:>8}", short(b.label));
    }
    println!();
    for (si, state) in SystemState::ALL.iter().enumerate() {
        print!("{:<36}", state.label());
        for b in TABLE2 {
            print!(" | {:>8.1}", b.paper_secs[si]);
        }
        println!();
    }

    // ---- Figure 2: normalized to baseline ---------------------------
    println!("\nFigure 2: times normalized to baseline BS (ours vs paper)\n");
    println!(
        "{:<36} {:>7} {:>7} {:>7} {:>7}   (ours | paper)",
        "benchmark", "base", "MS", "+idle", "+busy"
    );
    let mut ours_norm = vec![[0.0f64; 4]; TABLE2.len()];
    for (bi, b) in TABLE2.iter().enumerate() {
        let base = results[0][bi].cpu_ns;
        for si in 0..4 {
            ours_norm[bi][si] = results[si][bi].cpu_ns / base;
        }
        print!("{:<36}", b.label);
        for v in ours_norm[bi] {
            print!(" {v:>7.2}");
        }
        print!("   |");
        for si in 0..4 {
            print!(" {:>5.2}", b.paper_secs[si] / b.paper_secs[0]);
        }
        println!();
    }

    println!("\nFigure 2 chart (normalized, ours):\n");
    let max = ours_norm.iter().flatten().fold(1.0f64, |m, &v| m.max(v));
    for (bi, b) in TABLE2.iter().enumerate() {
        println!("{}", b.label);
        for (si, state) in SystemState::ALL.iter().enumerate() {
            println!(
                "  {:<9} {:<40} {:.2}",
                short_state(*state),
                bar(ours_norm[bi][si], max, 40),
                ours_norm[bi][si]
            );
        }
    }

    // ---- Overhead summary (the paper's §4 headline numbers) ---------
    let mean = |si: usize| -> f64 {
        let s: f64 = (0..TABLE2.len()).map(|bi| ours_norm[bi][si]).sum();
        s / TABLE2.len() as f64
    };
    let worst = |si: usize| -> f64 {
        (0..TABLE2.len())
            .map(|bi| ours_norm[bi][si])
            .fold(0.0, f64::max)
    };
    println!("\noverhead summary (vs baseline BS):");
    println!(
        "  static MS overhead:      worst {:>5.0}%, mean {:>5.0}%   (paper: <15% worst)",
        (worst(1) - 1.0) * 100.0,
        (mean(1) - 1.0) * 100.0
    );
    println!(
        "  + trivial competition:   worst {:>5.0}%, mean {:>5.0}%   (paper: ~30% worst)",
        (worst(2) - 1.0) * 100.0,
        (mean(2) - 1.0) * 100.0
    );
    println!(
        "  + busy competition:      worst {:>5.0}%, mean {:>5.0}%   (paper: 65% worst, ~40% mean)",
        (worst(3) - 1.0) * 100.0,
        (mean(3) - 1.0) * 100.0
    );
    println!("\n(differences of less than 3% are not significant — paper, Table 2 note)");
}

fn short(label: &str) -> String {
    let words: Vec<&str> = label.split_whitespace().collect();
    words
        .iter()
        .map(|w| &w[..w.len().min(4)])
        .collect::<Vec<_>>()
        .join(" ")
}

fn short_state(s: SystemState) -> &'static str {
    match s {
        SystemState::BaselineBs => "baseline",
        SystemState::Ms => "MS",
        SystemState::MsIdle4 => "MS+idle",
        SystemState::MsBusy4 => "MS+busy",
    }
}
