//! Per-layer metrics of a `--trace 1` run.
//!
//! Everything here is read through the layers' public counters as window
//! deltas — `Vm::counters`, `ObjectMemory::gc_stats`, the telemetry
//! registry, the state timelines and the GC pause log — plus the driver's
//! own spans. Nothing is instrumented inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use mst_compiler::ast::MethodNode;
use mst_compiler::{compile_method, parse_doit, CompileContext};
use mst_core::{MsConfig, MsSystem};
use mst_objmem::{MemoryConfig, ObjectMemory, SnapshotTemplate};
use mst_telemetry::timeline::{self, ProcState, NSTATES};
use mst_telemetry::{registry, GcPause, HistogramSnapshot};

use crate::spans::{coverage_pct, totals_by_name, Recorder};
use crate::spec::{Workload, MACRO_CPU_ROWS, PER_LAYER};
use crate::stats::{delta, median, percentile, ratio};
use crate::workloads::{sources, Finish, RunParams, System, Window};

/// The layers' counters at one instant.
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    /// `Vm::counters` of the observed session, in [`VM_FIELDS`] order.
    vm: [u64; 8],
    /// `[scavenges, words_survived, words_tenured]` of the observed session.
    gc: [u64; 3],
    /// Nanoseconds per processor state, summed over every timeline slot.
    states: [u64; NSTATES],
    /// `mst_telemetry::now_ns` when the snapshot was taken.
    pub at_ns: u64,
}

const VM_FIELDS: [&str; 8] = [
    "bytecodes",
    "sends",
    "cache_hits",
    "cache_misses",
    "primitives",
    "contexts_recycled",
    "contexts_allocated",
    "process_switches",
];

impl Snapshot {
    pub fn take(system: &System) -> Snapshot {
        let reg = registry::snapshot();
        let (vm, gc) = system.observed().map_or(([0; 8], [0; 3]), |ms| {
            let c = ms.vm().counters();
            let g = ms.mem().gc_stats();
            (
                [
                    c.bytecodes,
                    c.sends,
                    c.cache_hits,
                    c.cache_misses,
                    c.primitives,
                    c.contexts_recycled,
                    c.contexts_allocated,
                    c.process_switches,
                ],
                [g.scavenges, g.words_survived, g.words_tenured],
            )
        });
        let mut states = [0u64; NSTATES];
        for slot in timeline::snapshot() {
            for (total, ns) in states.iter_mut().zip(slot.ns) {
                *total += ns;
            }
        }
        Snapshot {
            counters: reg.counters.into_iter().collect(),
            histograms: reg.histograms.into_iter().collect(),
            vm,
            gc,
            states,
            at_ns: mst_telemetry::now_ns(),
        }
    }
}

/// Growth between two snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        delta(get(self.after), get(self.before)) as f64
    }

    /// `(samples, sum)` a histogram gained.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let get = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (a, b) = (get(self.after), get(self.before));
        (delta(a.0, b.0) as f64, delta(a.1, b.1) as f64)
    }

    fn histogram_mean(&self, name: &str) -> f64 {
        let (n, sum) = self.histogram(name);
        ratio(sum, n)
    }

    fn vm(&self, field: &str) -> f64 {
        let i = VM_FIELDS
            .iter()
            .position(|f| *f == field)
            .expect("a Vm counter");
        delta(self.after.vm[i], self.before.vm[i]) as f64
    }

    fn gc(&self, i: usize) -> f64 {
        delta(self.after.gc[i], self.before.gc[i]) as f64
    }

    fn state_share(&self, state: ProcState) -> f64 {
        let grown = |i: usize| delta(self.after.states[i], self.before.states[i]) as f64;
        ratio(grown(state as usize), (0..NSTATES).map(grown).sum())
    }
}

/// Fixed costs of the layers, measured once before the window on a system
/// of the workload's configuration (tracing off).
#[derive(Debug, Default, Clone, Copy)]
pub struct Fixed {
    pub image_bootstrap_ms: f64,
    pub image_methods: f64,
    pub core_boot_ms: f64,
    pub null_doit_us_p50: f64,
    pub prepare_us_mean: f64,
    pub rust_compile_us_mean: f64,
    pub snapshot_save_ms: f64,
    pub template_instantiate_ms: f64,
}

fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median of three timings of `f`, with the last result.
fn median_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = [0.0; 3];
    let mut last = None;
    for t in &mut times {
        let (r, ms) = timed_ms(&mut f);
        *t = ms;
        last = Some(r);
    }
    (last.expect("three runs"), median(&times))
}

impl Fixed {
    pub fn measure(workload: Workload, config: MsConfig) -> Fixed {
        let memory = MemoryConfig {
            sync: config.strategies.sync,
            alloc_policy: config.strategies.alloc,
            ..config.memory
        };
        let (methods, image_bootstrap_ms) = median_ms(|| {
            let mem = ObjectMemory::new(memory);
            mst_image::build_image(&mem).expect("bundled image bootstraps")
        });
        let (mut ms, core_boot_ms) = median_ms(|| MsSystem::new(config));

        let mut null_ns: Vec<u64> = (0..300)
            .map(|_| {
                let t0 = Instant::now();
                ms.evaluate("3 + 4").expect("null doit");
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        null_ns.sort_unstable();

        // Each distinct source, compiled often enough for a stable mean.
        let srcs = sources(workload);
        let rounds = (400 / srcs.len()).max(1);
        let t0 = Instant::now();
        for src in srcs.iter().cycle().take(rounds * srcs.len()) {
            ms.prepare(src).expect("workload source compiles");
        }
        let prepare_us_mean = t0.elapsed().as_secs_f64() * 1e6 / (rounds * srcs.len()) as f64;
        let t0 = Instant::now();
        for src in srcs.iter().cycle().take(rounds * srcs.len()) {
            // What `mst_image::compile_doit` does before it touches the heap.
            let (temps, body) = parse_doit(src).expect("workload source parses");
            let node = MethodNode {
                selector: "doIt".to_string(),
                args: vec![],
                temps,
                primitive: 0,
                body,
            };
            std::hint::black_box(
                compile_method(&node, &CompileContext::default()).expect("source compiles"),
            );
        }
        let rust_compile_us_mean = t0.elapsed().as_secs_f64() * 1e6 / (rounds * srcs.len()) as f64;

        let (image, snapshot_save_ms) = median_ms(|| {
            let mut bytes = Vec::new();
            ms.save_snapshot(&mut bytes).expect("snapshot saves");
            bytes
        });
        ms.shutdown();
        let template = SnapshotTemplate::from_bytes(image, memory).expect("snapshot validates");
        let (_, template_instantiate_ms) =
            median_ms(|| template.instantiate().expect("template instantiates"));

        Fixed {
            image_bootstrap_ms,
            image_methods: methods as f64,
            core_boot_ms,
            null_doit_us_p50: percentile(&null_ns, 50.0).value / 1e3,
            prepare_us_mean,
            rust_compile_us_mean,
            snapshot_save_ms,
            template_instantiate_ms,
        }
    }
}

/// GC pauses of a window, with full collections that ran inside a scavenge
/// (its tenure reservation) taken out of that scavenge's time.
struct Pauses {
    /// Scavenge durations net of nested full collections, ascending.
    scavenge_ns: Vec<u64>,
    full: Vec<GcPause>,
    /// Time the world was stopped for collection (nested time once).
    stopped_ns: u64,
    attributed_pct: f64,
}

impl Pauses {
    fn of(window: &Window, from_ns: u64, to_ns: u64) -> Pauses {
        let all: Vec<&GcPause> = window
            .probes
            .iter()
            .flat_map(|p| &p.pauses)
            .filter(|p| p.start_ns >= from_ns && p.start_ns < to_ns)
            .collect();
        let end = |p: &GcPause| p.start_ns + p.total_ns;
        let (scavenges, full): (Vec<&GcPause>, Vec<&GcPause>) =
            all.iter().partition(|p| p.kind == "scavenge");
        let mut scavenge_ns = Vec::with_capacity(scavenges.len());
        let mut stopped_ns = 0;
        for s in &scavenges {
            let nested: u64 = full
                .iter()
                .filter(|f| f.start_ns >= s.start_ns && end(f) <= end(s))
                .map(|f| f.total_ns)
                .sum();
            scavenge_ns.push(s.total_ns.saturating_sub(nested));
            stopped_ns += s.total_ns.saturating_sub(nested);
        }
        stopped_ns += full.iter().map(|f| f.total_ns).sum::<u64>();
        scavenge_ns.sort_unstable();
        // Attribution is judged pause by pause on the leaf records; a
        // scavenge that contains a full collection attributes that time to
        // its own "reserve" phase as well.
        let total: u64 = all.iter().map(|p| p.total_ns).sum();
        let attributed: u64 = all.iter().map(|p| p.attributed_ns().min(p.total_ns)).sum();
        Pauses {
            scavenge_ns,
            full: full.into_iter().cloned().collect(),
            stopped_ns,
            attributed_pct: if total == 0 {
                100.0
            } else {
                100.0 * attributed as f64 / total as f64
            },
        }
    }

    fn full_phase_us_mean(&self, phase: &str) -> f64 {
        let ns: u64 = self
            .full
            .iter()
            .flat_map(|p| &p.phases)
            .filter(|(name, _)| *name == phase)
            .map(|(_, ns)| ns)
            .sum();
        ratio(ns as f64 / 1e3, self.full.len() as f64)
    }
}

/// One measured slice of a `--trace 1` run: a freshly set-up system, the
/// layers' counters on both sides of its window, and its post-window checks.
pub struct Slice {
    pub before: Snapshot,
    pub after: Snapshot,
    pub window: Window,
    pub finish: Finish,
    pub cold_start_ms: f64,
}

impl Slice {
    /// Sets up, runs a probed window of `seconds`, and finishes.
    pub fn measure(p: &RunParams, seconds: f64) -> Slice {
        let mut system = System::setup(p, true);
        mst_telemetry::pauselog::clear();
        mst_telemetry::trace::clear_traces();
        let before = Snapshot::take(&system);
        let window = system.run(p, std::time::Duration::from_secs_f64(seconds), true);
        let after = Snapshot::take(&system);
        let cold_start_ms = system.cold_start_ms();
        Slice {
            before,
            after,
            window,
            finish: system.finish(p),
            cold_start_ms,
        }
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        ratio(
            self.window.caller_cpu_ns as f64 / 1e3,
            self.window.attempted as f64,
        )
    }
}

/// What the run knows beyond its two slices.
pub struct Context<'a> {
    pub workload: Workload,
    pub processors: usize,
    pub fixed: &'a Fixed,
    pub loadavg_start: f64,
    pub trace_events_dropped: u64,
}

/// Every per-layer metric, in [`PER_LAYER`] order.
///
/// `probed` ran with the runtime's own tracing off and supplies every row
/// but the few that need that tracing: event tracing plus state timelines
/// slow the mutator by 40–100% on this code, which would double every time
/// row and halve every GC share. `traced` ran with both on and supplies the
/// `vkernel.proc.*` shares and the `telemetry.*` rows.
pub fn per_layer(cx: &Context, probed: &Slice, traced: &Slice) -> Vec<(&'static str, f64)> {
    let (before, after, window) = (&probed.before, &probed.after, &probed.window);
    let shares = Delta {
        before: &traced.before,
        after: &traced.after,
    };
    let d = Delta { before, after };
    let ops = window.attempted as f64;
    let recorders: Vec<&Recorder> = window.probes.iter().map(|p| &p.rec).collect();
    let spans = totals_by_name(&recorders);
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let pauses = Pauses::of(window, before.at_ns, after.at_ns);
    // The observed session saw every op of a Solo, but only the replayed
    // sample of a Fleet's requests.
    let observed_ops = if cx.workload.is_serve() {
        window.side_ops as f64
    } else {
        ops
    };
    let run_spans = spans
        .iter()
        .filter(|(name, _)| name.starts_with("core.run_prepared"))
        .fold((0.0, 0.0), |(n, ns), (_, t)| {
            (n + t.count as f64, ns + t.total_ns as f64)
        });
    // Interpreter time: the caller's CPU minus collection for a Solo (VM-wide
    // bytecode counts under competitors, so a lower bound there); the
    // replayed runs' wall time for a Fleet.
    let interp_ns = if cx.workload.is_serve() {
        span("core.run_prepared_with_deadline").total_ns as f64
    } else {
        (window.caller_cpu_ns as f64 - pauses.stopped_ns as f64).max(0.0)
    };
    let replayed_us = ratio(
        (span("core.prepare").total_ns + span("core.run_prepared_with_deadline").total_ns) as f64
            / 1e3,
        window.side_ops as f64,
    );
    let macro_cpu_us = |i: usize| {
        let ns: u64 = window.probes.iter().map(|p| p.macro_cpu_ns[i]).sum();
        ratio(ns as f64 / 1e3, ops)
    };
    let contended = d.counter("lock.contended");

    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64| out.push((name, value));

    put(
        "interp.bytecodes_per_op",
        ratio(d.vm("bytecodes"), observed_ops),
    );
    put("interp.sends_per_op", ratio(d.vm("sends"), observed_ops));
    put(
        "interp.cache_hit_share",
        ratio(
            d.vm("cache_hits"),
            d.vm("cache_hits") + d.vm("cache_misses"),
        ),
    );
    put(
        "interp.primitives_per_op",
        ratio(d.vm("primitives"), observed_ops),
    );
    put(
        "interp.contexts_recycled_share",
        ratio(
            d.vm("contexts_recycled"),
            d.vm("contexts_recycled") + d.vm("contexts_allocated"),
        ),
    );
    put(
        "interp.process_switches_per_op",
        ratio(d.vm("process_switches"), observed_ops),
    );
    put(
        "interp.ns_per_bytecode",
        ratio(interp_ns, d.vm("bytecodes")),
    );
    put("interp.run_us_mean", ratio(run_spans.1 / 1e3, run_spans.0));

    put("compiler.prepare_us_mean", cx.fixed.prepare_us_mean);
    put(
        "compiler.rust_compile_us_mean",
        cx.fixed.rust_compile_us_mean,
    );

    for (i, name) in MACRO_CPU_ROWS.into_iter().enumerate() {
        put(name, macro_cpu_us(i));
    }
    put("core.null_doit_us_p50", cx.fixed.null_doit_us_p50);
    put("core.boot_ms", cx.fixed.core_boot_ms);

    put(
        "objmem.scavenges_per_kop",
        ratio(1e3 * pauses.scavenge_ns.len() as f64, ops),
    );
    put(
        "objmem.scavenge_us_mean",
        ratio(
            pauses.scavenge_ns.iter().sum::<u64>() as f64 / 1e3,
            pauses.scavenge_ns.len() as f64,
        ),
    );
    put(
        "objmem.scavenge_us_p99",
        if pauses.scavenge_ns.is_empty() {
            0.0
        } else {
            percentile(&pauses.scavenge_ns, 99.0).value / 1e3
        },
    );
    put(
        "objmem.words_survived_per_scavenge",
        ratio(d.gc(1), d.gc(0)),
    );
    put("objmem.words_tenured_per_op", ratio(d.gc(2), observed_ops));
    put(
        "objmem.full_gcs_per_kop",
        ratio(1e3 * pauses.full.len() as f64, ops),
    );
    put(
        "objmem.fullgc_us_mean",
        ratio(
            pauses.full.iter().map(|p| p.total_ns).sum::<u64>() as f64 / 1e3,
            pauses.full.len() as f64,
        ),
    );
    put(
        "objmem.fullgc.mark_us_mean",
        pauses.full_phase_us_mean("mark"),
    );
    put(
        "objmem.fullgc.plan_us_mean",
        pauses.full_phase_us_mean("plan"),
    );
    put(
        "objmem.fullgc.update_us_mean",
        pauses.full_phase_us_mean("update"),
    );
    put(
        "objmem.fullgc.move_us_mean",
        pauses.full_phase_us_mean("move"),
    );
    put(
        "objmem.fullgc.clear_us_mean",
        pauses.full_phase_us_mean("clear"),
    );
    put(
        "objmem.gc_share_of_cpu",
        ratio(pauses.stopped_ns as f64, window.caller_cpu_ns as f64),
    );
    put("objmem.pause_attributed_pct", pauses.attributed_pct);
    put("objmem.snapshot_save_ms", cx.fixed.snapshot_save_ms);
    put(
        "objmem.template_instantiate_ms",
        cx.fixed.template_instantiate_ms,
    );
    put(
        "objmem.audit_clean",
        f64::from(u8::from(
            probed.finish.audit_clean && traced.finish.audit_clean,
        )),
    );

    put(
        "vkernel.safepoint.stops_per_op",
        ratio(d.counter("safepoint.stops"), ops),
    );
    put(
        "vkernel.safepoint.time_to_stop_us_mean",
        d.histogram_mean("safepoint.time_to_stop_ns") / 1e3,
    );
    put(
        "vkernel.safepoint.park_us_per_op",
        ratio(d.histogram("safepoint.park_ns").1 / 1e3, ops),
    );
    put("vkernel.lock.contended_per_op", ratio(contended, ops));
    put(
        "vkernel.lock.spin_wait_us_per_op",
        ratio(d.histogram("lock.spin_wait_ns").1 / 1e3, ops),
    );
    put(
        "vkernel.alloc_lock.contended_share",
        ratio(d.counter("lock.eden_next.contended"), contended),
    );
    put(
        "vkernel.sched_lock.contended_share",
        ratio(d.counter("lock.sched.contended"), contended),
    );
    put(
        "vkernel.entry_lock.contended_share",
        ratio(d.counter("lock.entry_table.contended"), contended),
    );
    put(
        "vkernel.proc.mutator_share",
        shares.state_share(ProcState::Mutator),
    );
    put(
        "vkernel.proc.primitive_share",
        shares.state_share(ProcState::Primitive),
    );
    put(
        "vkernel.proc.safepoint_wait_share",
        shares.state_share(ProcState::SafepointWait),
    );
    put(
        "vkernel.proc.stopped_share",
        shares.state_share(ProcState::Stopped),
    );
    put(
        "vkernel.proc.gc_helper_share",
        shares.state_share(ProcState::GcHelper),
    );
    put(
        "vkernel.proc.lock_spin_share",
        shares.state_share(ProcState::LockSpin),
    );
    put(
        "vkernel.proc.idle_share",
        shares.state_share(ProcState::Idle),
    );

    put(
        "serve.queue_wait_us_mean",
        d.histogram_mean("serve.queue_wait_ns") / 1e3,
    );
    put(
        "serve.request_self_us_mean",
        if window.side_ops == 0 {
            0.0
        } else {
            (span("serve.request").mean_us() - replayed_us).max(0.0)
        },
    );
    put(
        "serve.rejected_per_kop",
        ratio(1e3 * d.counter("serve.rejected"), ops),
    );
    put("serve.cold_start_ms", probed.cold_start_ms);
    put("serve.session_crashes", d.counter("serve.session_crashes"));
    put("serve.ckpt.commits", d.counter("serve.ckpt.commits"));
    put(
        "serve.ckpt.save_ms_mean",
        d.histogram_mean("serve.ckpt.save_ns") / 1e6,
    );
    put(
        "serve.ckpt.commit_ms_mean",
        d.histogram_mean("serve.ckpt.commit_ns") / 1e6,
    );
    put("serve.ckpt.image_kb", probed.finish.ckpt_image_kb);
    put("serve.recover_ms", probed.finish.recover_ms);

    put("image.bootstrap_ms", cx.fixed.image_bootstrap_ms);
    put("image.methods_installed", cx.fixed.image_methods);

    put(
        "telemetry.trace_overhead_pct",
        100.0 * (ratio(traced.cpu_us_per_op(), probed.cpu_us_per_op()) - 1.0),
    );
    put(
        "telemetry.trace_events_dropped",
        cx.trace_events_dropped as f64,
    );
    put(
        "telemetry.driver_span_coverage_pct",
        coverage_pct(&recorders, window.window_ns),
    );

    put("driver.ops", ops);
    put("driver.window_s", window.window_ns as f64 / 1e9);
    let mut wall_ns = window.wall_ns.clone();
    wall_ns.sort_unstable();
    let p99 = percentile(&wall_ns, 99.0);
    put("driver.op_wall_us_p99", p99.value / 1e3);
    put("driver.samples_beyond_p99", p99.beyond as f64);
    put("driver.failed_share", ratio(window.failed as f64, ops));
    put("driver.host_cores", crate::sys::host_cores() as f64);
    put("driver.processors", cx.processors as f64);
    put("driver.loadavg_start", cx.loadavg_start);

    out
}
