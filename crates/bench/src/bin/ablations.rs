//! Ablation benchmarks for the paper's strategy claims (DESIGN.md A1–A4).
//!
//! Usage: `cargo run --release -p mst-bench --bin ablations [-- <which>]`
//! where `<which>` ∈ `cache | contexts | alloc | scavenge | all` (default).
//!
//! * **cache** — §3.2: the serialized method cache ("a two-level locking
//!   scheme to allow multiple readers") was "much too slow" under
//!   contention; replication fixed it.
//! * **contexts** — §3.2: replicating the free context list cut worst-case
//!   overhead from 160% to 65%.
//! * **alloc** — §4: "replication of the new-object space should have
//!   significant benefits" (the paper's future work, implemented here as
//!   per-processor allocation buffers).
//! * **scavenge** — §3.1: scavenge time is proportional to live data.

use mst_bench::harness::{thread_cpu_ns, time_prepared};
use mst_core::{MsConfig, MsSystem, Strategies};
use mst_interp::{CachePolicy, FreeListPolicy};
use mst_objmem::AllocPolicy;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "cache" => cache_ablation(),
        "contexts" => contexts_ablation(),
        "alloc" => alloc_ablation(),
        "scavenge" => scavenge_ablation(),
        _ => {
            cache_ablation();
            contexts_ablation();
            alloc_ablation();
            scavenge_ablation();
        }
    }
}

/// Runs `workload` on the main interpreter while 4 competitors run
/// `competitor` on the workers; reports the main thread's CPU ns/iter.
fn contended_run(strategies: Strategies, workload: &str, competitor: &str) -> f64 {
    let mut ms = MsSystem::new(MsConfig {
        strategies,
        processors: 5,
        ..MsConfig::default()
    });
    for _ in 0..4 {
        ms.evaluate(&format!("[[true] whileTrue: [{competitor}]] forkAt: 2"))
            .expect("competitor spawn failed");
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    let prepared = ms.prepare(workload).expect("workload must compile");
    let t = time_prepared(&mut ms, &prepared, 3, 300);
    ms.shutdown();
    t.cpu_ns
}

fn solo_run(strategies: Strategies, workload: &str) -> f64 {
    let mut ms = MsSystem::new(MsConfig {
        strategies,
        processors: 5,
        ..MsConfig::default()
    });
    let prepared = ms.prepare(workload).expect("workload must compile");
    let t = time_prepared(&mut ms, &prepared, 3, 300);
    ms.shutdown();
    t.cpu_ns
}

fn report(line: &str, solo: f64, contended: f64) {
    println!(
        "  {line:<46} solo {:>8.2} ms   contended {:>8.2} ms   overhead {:>5.0}%",
        solo / 1e6,
        contended / 1e6,
        (contended / solo - 1.0) * 100.0
    );
}

fn cache_ablation() {
    println!("\nA1. Method-lookup cache: serialized (two-level lock) vs replicated");
    println!("    (paper §3.2: the serialized variant ran 'much too slowly')");
    let workload = "Benchmark sendHeavy: 30000";
    let competitor = "Benchmark sendHeavy: 1000";
    for (name, policy) in [
        ("serialized global cache", CachePolicy::Serialized),
        ("replicated per-processor", CachePolicy::Replicated),
    ] {
        let strategies = Strategies {
            cache: policy,
            ..Strategies::ms()
        };
        let solo = solo_run(strategies, workload);
        let contended = contended_run(strategies, workload, competitor);
        report(name, solo, contended);
    }
}

fn contexts_ablation() {
    println!("\nA2. Free context list: disabled vs shared-locked vs replicated");
    println!("    (paper §3.2: replication cut worst-case overhead 160% → 65%)");
    let workload = "Benchmark callHeavy: 20000";
    let competitor = "Benchmark callHeavy: 500";
    for (name, policy) in [
        (
            "no recycling (allocate every frame)",
            FreeListPolicy::Disabled,
        ),
        ("shared free list under one lock", FreeListPolicy::Shared),
        ("replicated per-processor lists", FreeListPolicy::Replicated),
    ] {
        let strategies = Strategies {
            free_contexts: policy,
            ..Strategies::ms()
        };
        let solo = solo_run(strategies, workload);
        let contended = contended_run(strategies, workload, competitor);
        report(name, solo, contended);
    }
}

fn alloc_ablation() {
    println!("\nA3. New-space allocation: shared locked eden vs per-processor buffers");
    println!("    (paper §4: 'replication of the new-object space should have");
    println!("     significant benefits' — their future work, implemented here)");
    let workload = "Benchmark allocHeavy: 20000";
    let competitor = "Benchmark allocHeavy: 500";
    for (name, policy) in [
        ("shared eden, one allocation lock", AllocPolicy::SharedEden),
        (
            "per-processor allocation buffers",
            AllocPolicy::PerProcessorLab { lab_words: 8 << 10 },
        ),
    ] {
        let strategies = Strategies {
            alloc: policy,
            ..Strategies::ms()
        };
        let solo = solo_run(strategies, workload);
        let contended = contended_run(strategies, workload, competitor);
        report(name, solo, contended);
    }
}

fn scavenge_ablation() {
    println!("\nA4. Scavenge cost is proportional to surviving data (paper §3.1)");
    let mut ms = MsSystem::new(MsConfig::default());
    // Each scavenge's pause record feeds this histogram.
    let pauses = mst_telemetry::histogram!("gc.pause.scavenge.total_ns");
    for keep in [0usize, 200, 800, 3200, 12800] {
        // Build a retained graph of `keep` arrays (rooted from Rust), then
        // fill eden with garbage and time a forced scavenge.
        let _retained = ms
            .evaluate_to_root(&format!(
                "(1 to: {keep}) inject: OrderedCollection new
                    into: [:acc :i | acc add: (Array new: 8). acc]"
            ))
            .unwrap_or_else(|e| panic!("retain setup failed: {e}"));
        let prepared = ms
            .prepare("1 to: 2000 do: [:i | Array new: 16]. Object new scavenge")
            .unwrap();
        // One timed scavenge after warming.
        ms.run_prepared(&prepared).unwrap();
        let s0 = ms.mem().gc_stats();
        let p0 = pauses.snapshot();
        let cpu0 = thread_cpu_ns();
        ms.run_prepared(&prepared).unwrap();
        let cpu = thread_cpu_ns() - cpu0;
        let s1 = ms.mem().gc_stats();
        let p1 = pauses.snapshot();
        let scavenges = s1.scavenges - s0.scavenges;
        let survived = s1.words_survived - s0.words_survived;
        let pause_us = (p1.sum - p0.sum) as f64 / (p1.count - p0.count).max(1) as f64 / 1e3;
        println!(
            "  retained {keep:>6} arrays: {scavenges} scavenge(s), {survived:>8} words survived, \
             mean pause {pause_us:>8.1} µs  (run cpu {:.2} ms)",
            cpu as f64 / 1e6
        );
    }
    ms.shutdown();
}
