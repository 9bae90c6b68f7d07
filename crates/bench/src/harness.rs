//! Measurement machinery shared by the table/figure binaries.
//!
//! ## Metric
//!
//! The paper measured wall-clock seconds of each macro benchmark on a real
//! five-processor Firefly. This reproduction runs its five virtual
//! processors as threads on the host, which in this environment has a
//! single core, so raw wall-clock time would charge the benchmark for
//! losing its time-slice — a cost the real machine did not impose. The
//! harness therefore reports **per-thread CPU time** of the benchmark
//! interpreter (read from `/proc/thread-self/schedstat`, nanosecond
//! resolution) as the primary number: it includes the benchmark's own work,
//! its lock spinning, its GC share and its atomic traffic — the overheads
//! the paper is about — while excluding simple descheduling. Wall-clock is
//! reported alongside for completeness. See DESIGN.md §2.

use std::time::Instant;

use mst_core::{MsConfig, MsSystem, SystemState};

/// One macro benchmark: harness name, selector, and the paper's Table 2
/// seconds for [baseline, MS, MS+4 idle, MS+4 busy].
#[derive(Debug, Clone, Copy)]
pub struct MacroBench {
    /// Column label (as in Table 2).
    pub label: &'static str,
    /// `Benchmark` class-side selector.
    pub selector: &'static str,
    /// The paper's measured seconds, per state.
    pub paper_secs: [f64; 4],
}

/// The eight macro benchmarks of Table 2, in column order, with the
/// paper's numbers.
pub const TABLE2: [MacroBench; 8] = [
    MacroBench {
        label: "read and write class organization",
        selector: "readWriteClassOrganization",
        paper_secs: [14.3, 15.6, 16.3, 18.4],
    },
    MacroBench {
        label: "print class definition",
        selector: "printClassDefinition",
        paper_secs: [8.1, 8.6, 8.8, 11.1],
    },
    MacroBench {
        label: "print class hierarchy",
        selector: "printClassHierarchy",
        paper_secs: [10.0, 11.4, 14.3, 16.4],
    },
    MacroBench {
        label: "find all calls",
        selector: "findAllCalls",
        paper_secs: [26.0, 27.0, 27.0, 33.0],
    },
    MacroBench {
        label: "find all implementors",
        selector: "findAllImplementors",
        paper_secs: [8.2, 8.9, 9.0, 11.2],
    },
    MacroBench {
        label: "create inspector view",
        selector: "createInspectorView",
        paper_secs: [6.1, 6.7, 7.4, 10.0],
    },
    MacroBench {
        label: "compile dummy method",
        selector: "compileDummyMethod",
        paper_secs: [22.0, 25.0, 27.0, 31.0],
    },
    MacroBench {
        label: "decompile class",
        selector: "decompileClass",
        paper_secs: [12.7, 14.1, 16.1, 18.2],
    },
];

/// Reads this thread's accumulated CPU time in nanoseconds.
///
/// # Panics
///
/// Panics if `/proc/thread-self/schedstat` is unavailable (non-Linux).
pub fn thread_cpu_ns() -> u64 {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("per-thread CPU time needs /proc/thread-self/schedstat");
    s.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("malformed schedstat")
}

/// A timed run: per-iteration CPU and wall nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// CPU nanoseconds per iteration (benchmark thread only).
    pub cpu_ns: f64,
    /// Wall nanoseconds per iteration.
    pub wall_ns: f64,
    /// Iterations measured.
    pub iters: u32,
}

/// Runs a prepared doit repeatedly until `min_cpu_ms` of *benchmark-thread
/// CPU time* has accumulated (at least `min_iters`), returning
/// per-iteration times.
///
/// To keep cells comparable across system states, eden is scavenged
/// *outside* each timed window: otherwise a state with busy competitors
/// hands the benchmark's GC work to whichever thread trips the collection,
/// and the benchmark can look spuriously cheaper than the baseline that
/// collected its own garbage. Collections forced mid-iteration by the
/// benchmark's own allocation still count — that is real benchmark cost.
pub fn time_prepared(
    ms: &mut MsSystem,
    prepared: &mst_core::Prepared,
    min_iters: u32,
    min_cpu_ms: u64,
) -> Timing {
    // Warm up: method caches, free lists, heap shape, branch predictors.
    for _ in 0..3 {
        ms.run_prepared(prepared).expect("benchmark failed");
    }
    let mut cpu_total = 0u64;
    let mut wall_total = 0u64;
    let mut iters = 0u32;
    let hard_deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        ms.collect_garbage(); // outside the timed window
        let w0 = Instant::now();
        let c0 = thread_cpu_ns();
        ms.run_prepared(prepared).expect("benchmark failed");
        cpu_total += thread_cpu_ns() - c0;
        wall_total += w0.elapsed().as_nanos() as u64;
        iters += 1;
        if iters >= min_iters && cpu_total >= min_cpu_ms * 1_000_000 {
            break;
        }
        if Instant::now() > hard_deadline {
            break; // heavily-contended cells stop at the deadline
        }
    }
    Timing {
        cpu_ns: cpu_total as f64 / iters as f64,
        wall_ns: wall_total as f64 / iters as f64,
        iters,
    }
}

/// Warms the host process (page faults, lazy relocations, allocator pools)
/// with a throwaway system so the first measured state is not penalized.
/// Call once before any measurement.
pub fn warm_process(selectors: &[&str]) {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::Ms));
    for sel in selectors {
        let p = ms
            .prepare(&format!("Benchmark {sel}"))
            .expect("warmup compile");
        for _ in 0..3 {
            ms.run_prepared(&p).expect("warmup run");
        }
    }
    ms.shutdown();
}

/// Builds a system in the given Table 2 state (competitors spawned).
pub fn system_for_state(state: SystemState) -> MsSystem {
    let mut ms = MsSystem::new(MsConfig::for_state(state));
    ms.enter_state(state);
    // Give competitors a moment to be claimed by worker interpreters.
    if state.competitors() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    ms
}

// ---------------------------------------------------------------------
// Micro-benchmark runner (criterion replacement)
// ---------------------------------------------------------------------

/// A group of related micro-benchmarks (hermetic replacement for
/// `criterion`'s `BenchmarkGroup`): calibrates a batch size, runs each
/// closure for a wall-clock budget, and prints per-iteration wall and CPU
/// time plus optional throughput.
///
/// The budget per benchmark defaults to 100 ms and can be changed with
/// `MST_MICRO_MS` (e.g. `MST_MICRO_MS=500 cargo bench -p mst-bench`); a
/// value that is not a `u64` fails the run.
pub struct MicroGroup {
    name: &'static str,
    budget: std::time::Duration,
    /// Elements processed per iteration for the *next* `bench` call.
    throughput: Option<u64>,
}

impl MicroGroup {
    /// Starts a group and prints its header.
    pub fn new(name: &'static str) -> Self {
        let ms = micro_budget_ms(std::env::var("MST_MICRO_MS").ok().as_deref());
        println!("\n{name}");
        MicroGroup {
            name,
            budget: std::time::Duration::from_millis(ms),
            throughput: None,
        }
    }

    /// Declares elements-per-iteration for the next benchmark, so it also
    /// reports a rate.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    /// Measures `f`, printing `group/name  time: … /iter  cpu: …` and — if
    /// a throughput was declared — `thrpt: … elem/s`.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        // Warm up and calibrate: grow the batch until one batch is long
        // enough to dwarf timer overhead (or a single run already is).
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            if t.elapsed() >= std::time::Duration::from_millis(1) || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }
        // Timed region: whole batches until the budget elapses.
        let wall0 = Instant::now();
        let cpu0 = thread_cpu_ns();
        let mut iters = 0u64;
        while wall0.elapsed() < self.budget {
            for _ in 0..batch {
                f();
            }
            iters += batch;
        }
        let cpu_ns = (thread_cpu_ns() - cpu0) as f64 / iters as f64;
        let wall_ns = wall0.elapsed().as_nanos() as f64 / iters as f64;
        let mut line = format!(
            "  {:<32} time: {:>10}/iter  cpu: {:>10}/iter  ({iters} iters)",
            format!("{}/{name}", self.name),
            ns_human(wall_ns),
            ns_human(cpu_ns),
        );
        if let Some(elements) = self.throughput.take() {
            let rate = elements as f64 / (wall_ns / 1.0e9);
            line.push_str(&format!("  thrpt: {}/s", si_human(rate)));
        }
        println!("{line}");
    }
}

/// The per-benchmark budget `MST_MICRO_MS` asks for: 100 ms when unset.
///
/// # Panics
///
/// Panics, naming the variable, when the value is not a `u64`: a typo must
/// not silently run every benchmark at the default budget.
fn micro_budget_ms(raw: Option<&str>) -> u64 {
    raw.map_or(100, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("MST_MICRO_MS={v} is not a u64"))
    })
}

/// Formats nanoseconds with an adaptive unit (ns/µs/ms/s).
pub fn ns_human(ns: f64) -> String {
    if ns < 1.0e3 {
        format!("{ns:.1} ns")
    } else if ns < 1.0e6 {
        format!("{:.2} µs", ns / 1.0e3)
    } else if ns < 1.0e9 {
        format!("{:.2} ms", ns / 1.0e6)
    } else {
        format!("{:.2} s", ns / 1.0e9)
    }
}

/// Formats a rate with an SI prefix (k/M/G).
pub fn si_human(rate: f64) -> String {
    if rate < 1.0e3 {
        format!("{rate:.1}")
    } else if rate < 1.0e6 {
        format!("{:.1}k", rate / 1.0e3)
    } else if rate < 1.0e9 {
        format!("{:.1}M", rate / 1.0e6)
    } else {
        format!("{:.2}G", rate / 1.0e9)
    }
}

/// Renders a bar of up to `width` cells for `value` on a `max`-scaled axis.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// Formats nanoseconds as milliseconds with two decimals.
pub fn ms_str(ns: f64) -> String {
    format!("{:9.2}", ns / 1.0e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances() {
        // schedstat updates on scheduler ticks; spin until it moves (bounded
        // by a generous wall deadline so a broken reader still fails).
        let a = thread_cpu_ns();
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        let mut x = 0u64;
        loop {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i) * i);
            }
            std::hint::black_box(x);
            if thread_cpu_ns() > a {
                return;
            }
            assert!(Instant::now() < deadline, "CPU time never advanced");
        }
    }

    #[test]
    fn paper_table_is_monotone_per_row() {
        // The paper's own data: each benchmark gets slower (or equal)
        // moving baseline → MS → idle → busy. Our reproduction target.
        for b in TABLE2 {
            for i in 0..3 {
                assert!(
                    b.paper_secs[i] <= b.paper_secs[i + 1],
                    "{} paper data not monotone",
                    b.label
                );
            }
        }
    }

    #[test]
    fn micro_budget_defaults_and_parses() {
        assert_eq!(micro_budget_ms(None), 100);
        assert_eq!(micro_budget_ms(Some("5")), 5);
    }

    #[test]
    #[should_panic(expected = "MST_MICRO_MS=5ms is not a u64")]
    fn a_malformed_micro_budget_fails_loudly() {
        micro_budget_ms(Some("5ms"));
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
    }
}
