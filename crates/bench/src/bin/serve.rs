//! Load driver for the serving layer (`mst-serve`): measures request
//! latency and goodput across N isolated tenant sessions, then repeats the
//! run with serve-path chaos faults (`serve.drop`, `serve.slow`,
//! `serve.panic`) injected into ONE victim tenant and proves the blast
//! radius stays confined to it.
//!
//! ```text
//! cargo run --release -p mst-bench --bin serve              # full run
//! cargo run --release -p mst-bench --bin serve -- --smoke   # CI gate
//! ```
//!
//! Phases:
//!
//! 1. **Clean** — every tenant drives a mixed doit workload through
//!    [`Server::request`]; exact p50/p99/p999 over all samples.
//! 2. **Chaos** — the same workload with the victim tenant's requests
//!    dropped, stalled, and panicked mid-doit (kill-budgeted). Clients
//!    retry retryable failures with seeded exponential backoff + jitter.
//!
//! The run **fails** (exit 1) unless the other N−1 tenants complete all
//! their requests with zero errors and their chaos-phase p99 stays within
//! 2× the fault-free p99 (with a 10 ms floor so the trivial-doit baseline
//! does not turn scheduler jitter on shared CI runners into a flake).
//!
//! Writes `BENCH_serve.json` (`mst-bench-rows/1`).

use std::time::Duration;

use mst_bench::rows::write_rows;
use mst_core::{MsConfig, MsSystem};
use mst_objmem::MemoryConfig;
use mst_serve::{Backoff, ServeConfig, ServeError, Server};
use mst_telemetry as tel;
use mst_telemetry::profile::Row;
use mst_vkernel::fault::{self, ChaosConfig, FaultSite};

/// The request mix: short compute, allocation, collection traffic, string
/// building — each fast enough that the 2 s deadline only fires if
/// enforcement itself is broken.
const DOITS: &[&str] = &[
    "(1 to: 50) inject: 0 into: [:a :b | a + b]",
    "| o | o := OrderedCollection new. 1 to: 40 do: [:i | o add: i * i]. o size",
    "'serve' , '/' , 42 printString",
    "[:a :b | a * b] value: 6 value: 7",
];

/// What one tenant's driver thread saw.
#[derive(Default)]
struct Outcome {
    /// Nanosecond latency of every served request.
    latencies: Vec<u64>,
    /// Terminal failures (retry budget exhausted or a non-retryable error).
    errors: Vec<String>,
    served: u64,
    attempted: u64,
    retries: u64,
    crashes_observed: u64,
}

/// Drives `requests` doits through `tenant`, retrying retryable failures
/// (rejects, drops, crash respawns, expired deadlines) with seeded
/// exponential backoff.
fn drive(server: &Server, tenant: usize, requests: usize, seed: u64) -> Outcome {
    let mut backoff = Backoff::new(seed, Duration::from_micros(200), Duration::from_millis(20));
    let mut out = Outcome::default();
    for i in 0..requests {
        let src = DOITS[i % DOITS.len()];
        out.attempted += 1;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match server.request(tenant, src) {
                Ok(resp) => {
                    out.latencies.push(resp.latency.as_nanos() as u64);
                    out.served += 1;
                    backoff.reset();
                    break;
                }
                Err(e) => {
                    let retryable = matches!(
                        e,
                        ServeError::Rejected(_)
                            | ServeError::Dropped
                            | ServeError::SessionCrashed { .. }
                            | ServeError::DeadlineExpired
                    );
                    if matches!(e, ServeError::SessionCrashed { .. }) {
                        out.crashes_observed += 1;
                    }
                    if retryable && attempts < 16 {
                        out.retries += 1;
                        std::thread::sleep(backoff.next_delay());
                        continue;
                    }
                    out.errors.push(format!("tenant {tenant} request {i}: {e}"));
                    break;
                }
            }
        }
    }
    out
}

/// Runs one phase: every tenant drives concurrently; outcomes by tenant.
fn run_phase(server: &Server, tenants: usize, requests: usize, seed0: u64) -> Vec<Outcome> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                s.spawn(move || {
                    drive(
                        server,
                        t,
                        requests,
                        seed0 ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread"))
            .collect()
    })
}

fn pctl(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_after = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let tenants: usize = arg_after("--tenants")
        .map(|v| v.parse().expect("--tenants takes an integer"))
        .unwrap_or(8);
    assert!(
        tenants >= 2,
        "the blast-radius check needs at least 2 tenants"
    );
    let requests: usize = arg_after("--requests")
        .map(|v| v.parse().expect("--requests takes an integer"))
        .unwrap_or(if smoke { 30 } else { 80 });
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Small sessions: the image bootstraps comfortably inside 1 M old
    // words, and N of them must coexist.
    let base = MsConfig {
        processors: 2,
        memory: MemoryConfig {
            old_words: 1 << 20,
            eden_words: 64 << 10,
            survivor_words: 24 << 10,
            ..MemoryConfig::default()
        },
        ..MsConfig::default()
    };

    // Build the shared template once: bootstrap a real image, snapshot it.
    println!(
        "serve bench: building snapshot template ({tenants} tenants, {requests} requests each)"
    );
    let template_path =
        std::env::temp_dir().join(format!("mst_serve_bench_{}.image", std::process::id()));
    {
        let ms = MsSystem::new(base);
        ms.save_snapshot_file(&template_path)
            .expect("template snapshot saves");
        ms.shutdown();
    }
    let template = MsSystem::load_template(&template_path, base).expect("template loads");

    let cfg = ServeConfig {
        processors: 2,
        deadline: Duration::from_secs(2),
        queue_cap: 8,
        queue_wait_limit: Duration::from_secs(1),
        slow_stall: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let server = Server::new(template, base, cfg, tenants);

    // Warm every session (template instantiation + worker start) outside
    // the timed window, so cold-start cost does not masquerade as p99.
    for t in 0..tenants {
        server.request(t, "3 + 4").expect("warmup doit");
    }

    // Phase 1: fault-free.
    let clean = run_phase(&server, tenants, requests, 0x5EED_5E12_7E00_0001);
    let mut clean_ns: Vec<u64> = clean
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    clean_ns.sort_unstable();
    let clean_errors: usize = clean.iter().map(|o| o.errors.len()).sum();
    let (p50, p99, p999) = (
        pctl(&clean_ns, 50.0),
        pctl(&clean_ns, 99.0),
        pctl(&clean_ns, 99.9),
    );
    println!(
        "clean: {} served, {} errors, p50 {:.1}us p99 {:.1}us p999 {:.1}us",
        clean_ns.len(),
        clean_errors,
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        p999 as f64 / 1e3,
    );

    // Phase 2: same workload, serve-path faults aimed at tenant 0. The
    // panic site is kill-budgeted so the victim spends its time serving,
    // not only rebooting; drop/slow fire probabilistically per request.
    let victim = 0usize;
    // The injected panics are the point of this phase; keep their
    // backtraces out of the log so real failures stay visible.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos: injected") {
            prev_hook(info);
        }
    }));
    fault::install(ChaosConfig {
        seed: 0x5EED_C8A0_5E12_7E00,
        rate: 0.2,
        sites: FaultSite::ServeDrop.bit()
            | FaultSite::ServeSlow.bit()
            | FaultSite::ServePanic.bit(),
    });
    fault::set_kill_budget(if smoke { 2 } else { 4 });
    server.set_victim(Some(victim));
    let chaos = run_phase(&server, tenants, requests, 0x5EED_5E12_7E00_0002);
    fault::disable();
    server.set_victim(None);

    let mut nonvictim_ns: Vec<u64> = chaos
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != victim)
        .flat_map(|(_, o)| o.latencies.iter().copied())
        .collect();
    nonvictim_ns.sort_unstable();
    let chaos_p99 = pctl(&nonvictim_ns, 99.0);
    let victim_goodput =
        100.0 * chaos[victim].served as f64 / chaos[victim].attempted.max(1) as f64;
    let crashes = server.restarts(victim);
    let retries: u64 = chaos.iter().map(|o| o.retries).sum();
    println!(
        "chaos: non-victim p99 {:.1}us over {} samples; victim goodput {victim_goodput:.1}% \
         ({} crashes, {} retries; drop={} slow={} panic={})",
        chaos_p99 as f64 / 1e3,
        nonvictim_ns.len(),
        crashes,
        retries,
        tel::counter("chaos.serve_drop").get(),
        tel::counter("chaos.serve_slow").get(),
        tel::counter("chaos.serve_panic").get(),
    );

    // Verdicts. The p99 bound gets a 10 ms floor: the clean p99 of these
    // trivial doits is well under a millisecond, and 2x a sub-millisecond
    // number is within scheduler noise on a loaded CI runner.
    let mut failed = false;
    for (t, o) in chaos.iter().enumerate() {
        if t == victim {
            continue;
        }
        if !o.errors.is_empty() || o.served != o.attempted {
            failed = true;
            eprintln!(
                "FAIL: non-victim tenant {t} had {} errors ({} / {} served): {:?}",
                o.errors.len(),
                o.served,
                o.attempted,
                o.errors
            );
        }
        if server.restarts(t) != 0 {
            failed = true;
            eprintln!(
                "FAIL: non-victim tenant {t} session crashed {} times",
                server.restarts(t)
            );
        }
    }
    if clean_errors != 0 {
        failed = true;
        eprintln!("FAIL: {clean_errors} errors in the fault-free phase");
    }
    let p99_bound = 2 * p99.max(10_000_000);
    if chaos_p99 > p99_bound {
        failed = true;
        eprintln!(
            "FAIL: non-victim chaos p99 {chaos_p99}ns exceeds bound {p99_bound}ns (2 x clean p99, 10ms floor)"
        );
    }

    let n = clean_ns.len() as u64;
    let rows = vec![
        Row::new("serve.clean.p50_ns", p50 as f64, "ns", n),
        Row::new("serve.clean.p99_ns", p99 as f64, "ns", n),
        Row::new("serve.clean.p999_ns", p999 as f64, "ns", n),
        Row::new(
            "serve.chaos.nonvictim_p99_ns",
            chaos_p99 as f64,
            "ns",
            nonvictim_ns.len() as u64,
        ),
        Row::new(
            "serve.chaos.victim_goodput_pct",
            victim_goodput,
            "pct",
            chaos[victim].attempted,
        ),
        Row::new("serve.chaos.session_crashes", crashes as f64, "count", 1),
        Row::new("serve.chaos.retries", retries as f64, "count", 1),
    ];
    write_rows(
        &out_path,
        "serve",
        &[
            ("tenants", tenants.to_string()),
            ("requests", requests.to_string()),
            ("mode", if smoke { "smoke" } else { "full" }.to_string()),
        ],
        &rows,
    );
    println!("wrote {out_path}");
    let _ = std::fs::remove_file(&template_path);

    if failed {
        eprintln!("serve bench FAILED");
        std::process::exit(1);
    }
    println!(
        "serve bench OK: {} non-victim tenants completed all requests with zero errors",
        tenants - 1
    );
}
