//! Crash-recovery harness for the durable checkpoint store: serve load →
//! seeded process death inside the checkpoint commit protocol →
//! [`Server::recover`] → verify no committed state was lost.
//!
//! ```text
//! cargo run --release -p mst-bench --bin crashrec              # >=100 seeds
//! cargo run --release -p mst-bench --bin crashrec -- --smoke   # CI gate
//! ```
//!
//! Per seed: a fresh checkpoint directory, a small tenant fleet driving
//! doits with an every-request [`CheckpointPolicy`], one chaos session
//! crash (`serve.panic`) so chains span multiple epochs, then a seeded
//! death at a random byte boundary inside the commit protocol itself —
//! even seeds die mid-image-write (`ckpt.crash`), odd seeds tear the
//! MANIFEST append (`ckpt.torn_manifest`), and every seed stalls writes
//! through `ckpt.slow`. The manifest is then scanned *independently* of
//! the store (raw bytes through [`scan_manifest`]) to establish ground
//! truth, the server is dropped (process death), and a brand-new
//! [`Server::recover`] must restore every tenant to exactly its newest
//! manifest-committed epoch with its recorded restart count, a clean
//! `audit_heap`, a working session, and zero committed checkpoints lost.
//!
//! The run **fails** (exit 1) on any verification miss or if the armed
//! fault never fired. Writes `BENCH_recover.json` (`mst-bench-rows/1`)
//! with recovery-time p50/p99.

use std::collections::BTreeMap;
use std::time::Duration;

use mst_bench::rows::write_rows;
use mst_core::{MsConfig, MsSystem};
use mst_objmem::MemoryConfig;
use mst_serve::{
    chains_from_records, scan_manifest, CheckpointPolicy, Commit, RecoverySource, ServeConfig,
    ServeError, Server,
};
use mst_telemetry as tel;
use mst_telemetry::profile::Row;
use mst_vkernel::fault::{self, ChaosConfig, FaultSite};

/// Small, allocation-heavy doits: enough heap traffic that a checkpoint
/// after every request captures genuinely different images.
const DOITS: &[&str] = &[
    "(1 to: 30) inject: 0 into: [:a :b | a + b]",
    "| o | o := OrderedCollection new. 1 to: 25 do: [:i | o add: i * i]. o size",
    "'recover' , '/' , 7 printString",
];

fn pctl(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

/// Reads the manifest's committed chains straight from the raw bytes —
/// deliberately *not* through [`CheckpointStore`](mst_serve::CheckpointStore),
/// so the store's own recovery scan is verified against an independent
/// decode.
fn ground_truth(dir: &std::path::Path) -> BTreeMap<u64, Vec<Commit>> {
    let bytes = std::fs::read(dir.join("MANIFEST")).unwrap_or_default();
    chains_from_records(&scan_manifest(&bytes).records)
}

/// Drives `n` doits through `tenant`, retrying transient outcomes.
fn drive(server: &Server, tenant: usize, n: usize) {
    for i in 0..n {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match server.request(tenant, DOITS[i % DOITS.len()]) {
                Ok(_) => break,
                Err(ServeError::Rejected(_) | ServeError::SessionCrashed { .. })
                    if attempts < 8 =>
                {
                    continue;
                }
                Err(e) => panic!("tenant {tenant} doit {i}: {e}"),
            }
        }
    }
}

struct SeedOutcome {
    recover_ns: u64,
    tenant_ns: Vec<u64>,
    failures: Vec<String>,
}

/// One full death-and-recovery cycle under `seed`.
fn run_seed(
    seed: u64,
    template: &mst_core::SnapshotTemplate,
    base: MsConfig,
    tenants: usize,
) -> SeedOutcome {
    let dir = std::env::temp_dir().join(format!("mst_crashrec_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        processors: 2,
        queue_cap: 8,
        queue_wait_limit: Duration::from_secs(5),
        checkpoint_dir: Some(dir.clone()),
        checkpoint: CheckpointPolicy {
            every_requests: Some(1),
            on_degrade: false,
        },
        retain: 2,
        ..ServeConfig::default()
    };
    let mut failures = Vec::new();

    // Phase 1: load with checkpoints committing after every request.
    let server = Server::new(template.clone(), base, cfg.clone(), tenants);
    for t in 0..tenants {
        drive(&server, t, 2);
    }
    // One chaos session crash on a rotating victim: its respawn bumps the
    // epoch, so later commits put a second epoch on its chain and record
    // a nonzero restart count — recovery must bring both back.
    let victim = (seed as usize) % tenants;
    server.set_victim(Some(victim));
    fault::install(ChaosConfig {
        seed: seed ^ 0x5EED_C8A5_0001,
        rate: 1.0,
        sites: FaultSite::ServePanic.bit(),
    });
    fault::set_kill_budget(1);
    // The doit must run long enough to reach a safepoint poll, where the
    // injected panic actually fires.
    let crashed = matches!(
        server.request(victim, "(1 to: 1000000) inject: 0 into: [:a :b | a + b]"),
        Err(ServeError::SessionCrashed { .. })
    );
    fault::disable();
    server.set_victim(None);
    if !crashed {
        failures.push(format!("seed {seed}: serve.panic never crashed the victim"));
    }
    drive(&server, victim, 2);

    // Phase 2: seeded death inside the commit protocol. Alternate the
    // crash point: mid-image-write on even seeds, mid-manifest-append on
    // odd; ckpt.slow stalls the write path either way.
    let site = if seed.is_multiple_of(2) {
        FaultSite::CkptCrash
    } else {
        FaultSite::CkptTornManifest
    };
    fault::set_stall_ns(50_000);
    fault::install(ChaosConfig {
        seed: seed ^ 0x5EED_C8A5_0002,
        rate: 1.0,
        sites: site.bit() | FaultSite::CkptSlow.bit(),
    });
    fault::set_kill_budget(1);
    let died = server.checkpoint(victim).is_err();
    fault::disable();
    if !died {
        failures.push(format!("seed {seed}: {} never fired", site.name()));
    }

    // Ground truth from the raw bytes, then "process death".
    let expected = ground_truth(&dir);
    drop(server);

    // Phase 3: whole-process recovery from the directory alone.
    let t0 = tel::now_ns();
    let (server, report) = Server::recover(template.clone(), base, cfg, tenants);
    let recover_ns = tel::now_ns().saturating_sub(t0);

    // Verify: every tenant with committed checkpoints landed on its
    // newest manifest-committed epoch with its recorded restart count...
    for (t, rec) in report.tenants.iter().enumerate() {
        let Some(chain) = expected.get(&(t as u64)).filter(|c| !c.is_empty()) else {
            if rec.source != RecoverySource::Cold {
                failures.push(format!("seed {seed} tenant {t}: recovered without commits"));
            }
            continue;
        };
        let newest = chain[0];
        if rec.source
            != (RecoverySource::Checkpoint {
                epoch: newest.epoch,
            })
        {
            failures.push(format!(
                "seed {seed} tenant {t}: source {:?}, wanted checkpoint at epoch {}",
                rec.source, newest.epoch
            ));
        }
        if server.epoch(t) != newest.epoch {
            failures.push(format!(
                "seed {seed} tenant {t}: epoch {} != committed {}",
                server.epoch(t),
                newest.epoch
            ));
        }
        if server.restarts(t) != newest.restarts {
            failures.push(format!(
                "seed {seed} tenant {t}: restarts {} != recorded {}",
                server.restarts(t),
                newest.restarts
            ));
        }
        // ...with zero committed checkpoints lost: the store's chain must
        // be exactly what the independent scan promised. (Checked before
        // the probe doit below, whose auto-checkpoint supersedes the
        // newest entry with a fresh image.)
        let store_chain = server
            .store()
            .map(|s| s.chain(t as u64))
            .unwrap_or_default();
        if store_chain != *chain {
            failures.push(format!(
                "seed {seed} tenant {t}: committed chain {:?} != expected {:?}",
                store_chain, chain
            ));
        }
        // ...and a clean heap under a session that actually serves.
        match server.audit(t) {
            Ok(audit) if audit.error_count == 0 => {}
            Ok(audit) => failures.push(format!(
                "seed {seed} tenant {t}: heap audit found {} errors: {:?}",
                audit.error_count, audit.errors
            )),
            Err(e) => failures.push(format!("seed {seed} tenant {t}: audit failed: {e}")),
        }
        if let Err(e) = server.request(t, "3 + 4") {
            failures.push(format!("seed {seed} tenant {t}: post-recovery doit: {e}"));
        }
    }
    let tenant_ns = report.tenants.iter().map(|r| r.duration_ns).collect();
    let _ = std::fs::remove_dir_all(&dir);
    SeedOutcome {
        recover_ns,
        tenant_ns,
        failures,
    }
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
    let seeds: u64 = arg_after("--seeds")
        .map(|v| v.parse().expect("--seeds takes an integer"))
        .unwrap_or(if smoke { 12 } else { 100 });
    let tenants: usize = arg_after("--tenants")
        .map(|v| v.parse().expect("--tenants takes an integer"))
        .unwrap_or(if smoke { 2 } else { 3 });
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_recover.json".to_string());

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

    println!("crashrec: building snapshot template ({seeds} seeds, {tenants} tenants)");
    let template_path =
        std::env::temp_dir().join(format!("mst_crashrec_{}.image", std::process::id()));
    {
        let ms = MsSystem::new(base);
        ms.save_snapshot_file(&template_path)
            .expect("template snapshot saves");
        ms.shutdown();
    }
    let template = MsSystem::load_template(&template_path, base).expect("template loads");

    // The injected serve.panic crashes are the point; keep their
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

    let mut recover_ns = Vec::new();
    let mut tenant_ns = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for seed in 0..seeds {
        let out = run_seed(seed, &template, base, tenants);
        recover_ns.push(out.recover_ns);
        tenant_ns.extend(out.tenant_ns);
        failures.extend(out.failures);
        if (seed + 1) % 20 == 0 || seed + 1 == seeds {
            println!("  {}/{} seeds", seed + 1, seeds);
        }
    }

    recover_ns.sort_unstable();
    tenant_ns.sort_unstable();
    let (p50, p99) = (pctl(&recover_ns, 50.0), pctl(&recover_ns, 99.0));
    let tenant_p99 = pctl(&tenant_ns, 99.0);
    println!(
        "recover: p50 {:.2}ms p99 {:.2}ms over {} deaths ({} tenant recoveries, tenant p99 {:.2}ms)",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        recover_ns.len(),
        tenant_ns.len(),
        tenant_p99 as f64 / 1e6,
    );
    println!(
        "faults fired: ckpt.crash={} ckpt.torn_manifest={} ckpt.slow={} serve.panic={} \
         manifests torn={} fallbacks={}",
        tel::counter("chaos.ckpt_crash").get(),
        tel::counter("chaos.ckpt_torn_manifest").get(),
        tel::counter("chaos.ckpt_slow").get(),
        tel::counter("chaos.serve_panic").get(),
        tel::counter("serve.ckpt.manifest_torn").get(),
        tel::counter("serve.checkpoint_fallback").get(),
    );

    let rows = vec![
        Row::new("recover.p50_ns", p50 as f64, "ns", recover_ns.len() as u64),
        Row::new("recover.p99_ns", p99 as f64, "ns", recover_ns.len() as u64),
        Row::new(
            "recover.tenant_p99_ns",
            tenant_p99 as f64,
            "ns",
            tenant_ns.len() as u64,
        ),
        Row::new("recover.seeds", seeds as f64, "count", 1),
        Row::new(
            "recover.commits",
            tel::counter("serve.ckpt.commits").get() as f64,
            "count",
            1,
        ),
        Row::new(
            "recover.recovered_tenants",
            tel::counter("serve.ckpt.recovered").get() as f64,
            "count",
            1,
        ),
        Row::new("recover.failures", failures.len() as f64, "count", 1),
    ];
    write_rows(
        &out_path,
        "crashrec",
        &[
            ("seeds", seeds.to_string()),
            ("tenants", tenants.to_string()),
            ("mode", if smoke { "smoke" } else { "full" }.to_string()),
        ],
        &rows,
    );
    println!("wrote {out_path}");
    let _ = std::fs::remove_file(&template_path);

    if !failures.is_empty() {
        for f in failures.iter().take(20) {
            eprintln!("FAIL: {f}");
        }
        eprintln!("crashrec FAILED ({} verification misses)", failures.len());
        std::process::exit(1);
    }
    println!("crashrec OK: {seeds} seeded deaths, zero committed checkpoints lost");
}
