//! What the benchmark measures: workload names, metric names and units.
//!
//! `BENCHMARK.json` at the repo root repeats these lists (with bounds and
//! one-line reasons) for the driver; `tests/contract.rs` checks the two
//! agree, so a metric cannot be added here without being declared there.

/// The five workloads. See `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MacroSolo,
    MacroContended,
    GcChurn,
    ServeSteady,
    ServeCheckpoint,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MacroSolo,
        Workload::MacroContended,
        Workload::GcChurn,
        Workload::ServeSteady,
        Workload::ServeCheckpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MacroSolo => "macro_solo",
            Workload::MacroContended => "macro_contended",
            Workload::GcChurn => "gc_churn",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeCheckpoint => "serve_checkpoint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeSteady | Workload::ServeCheckpoint)
    }
}

/// The eight Table 2 selectors, in the paper's column order.
pub const MACRO_SELECTORS: [&str; 8] = [
    "readWriteClassOrganization",
    "printClassDefinition",
    "printClassHierarchy",
    "findAllCalls",
    "findAllImplementors",
    "createInspectorView",
    "compileDummyMethod",
    "decompileClass",
];

/// Span names for the eight selectors (static so spans stay `Copy`).
pub const MACRO_SPANS: [&str; 8] = [
    "core.run_prepared/readWriteClassOrganization",
    "core.run_prepared/printClassDefinition",
    "core.run_prepared/printClassHierarchy",
    "core.run_prepared/findAllCalls",
    "core.run_prepared/findAllImplementors",
    "core.run_prepared/createInspectorView",
    "core.run_prepared/compileDummyMethod",
    "core.run_prepared/decompileClass",
];

/// The `core.macro.<selector>.cpu_us` rows, in selector order.
pub const MACRO_CPU_ROWS: [&str; 8] = [
    "core.macro.readWriteClassOrganization.cpu_us",
    "core.macro.printClassDefinition.cpu_us",
    "core.macro.printClassHierarchy.cpu_us",
    "core.macro.findAllCalls.cpu_us",
    "core.macro.findAllImplementors.cpu_us",
    "core.macro.createInspectorView.cpu_us",
    "core.macro.compileDummyMethod.cpu_us",
    "core.macro.decompileClass.cpu_us",
];

/// The four short doits of the serve workloads (the request mix of
/// `crates/bench --bin serve`), with their hand-written answers.
pub const SERVE_DOITS: [(&str, &str); 4] = [
    ("(1 to: 50) inject: 0 into: [:a :b | a + b]", "1275"),
    (
        "| o | o := OrderedCollection new. 1 to: 40 do: [:i | o add: i * i]. o size",
        "40",
    ),
    ("'serve' , '/' , 42 printString", "'serve/42'"),
    ("[:a :b | a * b] value: 6 value: 7", "42"),
];

/// End-to-end metrics, from the untraced run: `(name, unit, better)`.
///
/// The bounded upper percentile is p90, not p99: on a shared host the
/// hypervisor pauses a vCPU for ~5 ms a few times a second, which lands in
/// 2-5% of the 10 ms macro sweeps, so their p99 measures how often the host
/// did that (it spread 0.22-0.40 between runs of the same code). p99 is
/// still reported by every run, unbounded: a line of the untraced report
/// and the layer row `driver.op_wall_us_p99`.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("op_wall_us_p50", "us", "lower"),
    ("op_wall_us_p90", "us", "lower"),
    ("op_cpu_us_mean", "us", "lower"),
    ("process_cpu_us_per_op", "us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A metric that
/// does not apply to a workload (the `serve.*` rows on `macro_solo`) reads 0.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("interp.bytecodes_per_op", "count"),
    ("interp.sends_per_op", "count"),
    ("interp.cache_hit_share", "ratio"),
    ("interp.primitives_per_op", "count"),
    ("interp.contexts_recycled_share", "ratio"),
    ("interp.process_switches_per_op", "count"),
    ("interp.ns_per_bytecode", "ns"),
    ("interp.run_us_mean", "us"),
    ("compiler.prepare_us_mean", "us"),
    ("compiler.rust_compile_us_mean", "us"),
    ("core.macro.readWriteClassOrganization.cpu_us", "us"),
    ("core.macro.printClassDefinition.cpu_us", "us"),
    ("core.macro.printClassHierarchy.cpu_us", "us"),
    ("core.macro.findAllCalls.cpu_us", "us"),
    ("core.macro.findAllImplementors.cpu_us", "us"),
    ("core.macro.createInspectorView.cpu_us", "us"),
    ("core.macro.compileDummyMethod.cpu_us", "us"),
    ("core.macro.decompileClass.cpu_us", "us"),
    ("core.null_doit_us_p50", "us"),
    ("core.boot_ms", "ms"),
    ("objmem.scavenges_per_kop", "count"),
    ("objmem.scavenge_us_mean", "us"),
    ("objmem.scavenge_us_p99", "us"),
    ("objmem.words_survived_per_scavenge", "count"),
    ("objmem.words_tenured_per_op", "count"),
    ("objmem.full_gcs_per_kop", "count"),
    ("objmem.fullgc_us_mean", "us"),
    ("objmem.fullgc.mark_us_mean", "us"),
    ("objmem.fullgc.plan_us_mean", "us"),
    ("objmem.fullgc.update_us_mean", "us"),
    ("objmem.fullgc.move_us_mean", "us"),
    ("objmem.fullgc.clear_us_mean", "us"),
    ("objmem.gc_share_of_cpu", "ratio"),
    ("objmem.pause_attributed_pct", "%"),
    ("objmem.snapshot_save_ms", "ms"),
    ("objmem.template_instantiate_ms", "ms"),
    ("objmem.audit_clean", "count"),
    ("vkernel.safepoint.stops_per_op", "count"),
    ("vkernel.safepoint.time_to_stop_us_mean", "us"),
    ("vkernel.safepoint.park_us_per_op", "us"),
    ("vkernel.lock.contended_per_op", "count"),
    ("vkernel.lock.spin_wait_us_per_op", "us"),
    ("vkernel.alloc_lock.contended_share", "ratio"),
    ("vkernel.sched_lock.contended_share", "ratio"),
    ("vkernel.entry_lock.contended_share", "ratio"),
    ("vkernel.proc.mutator_share", "ratio"),
    ("vkernel.proc.primitive_share", "ratio"),
    ("vkernel.proc.safepoint_wait_share", "ratio"),
    ("vkernel.proc.stopped_share", "ratio"),
    ("vkernel.proc.gc_helper_share", "ratio"),
    ("vkernel.proc.lock_spin_share", "ratio"),
    ("vkernel.proc.idle_share", "ratio"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.request_self_us_mean", "us"),
    ("serve.rejected_per_kop", "count"),
    ("serve.cold_start_ms", "ms"),
    ("serve.session_crashes", "count"),
    ("serve.ckpt.commits", "count"),
    ("serve.ckpt.save_ms_mean", "ms"),
    ("serve.ckpt.commit_ms_mean", "ms"),
    ("serve.ckpt.image_kb", "KB"),
    ("serve.recover_ms", "ms"),
    ("image.bootstrap_ms", "ms"),
    ("image.methods_installed", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.trace_events_dropped", "count"),
    ("telemetry.driver_span_coverage_pct", "%"),
    ("driver.ops", "count"),
    ("driver.window_s", "s"),
    ("driver.op_wall_us_p99", "us"),
    ("driver.samples_beyond_p99", "count"),
    ("driver.failed_share", "ratio"),
    ("driver.host_cores", "count"),
    ("driver.processors", "count"),
    ("driver.loadavg_start", "count"),
];

/// Load sizing, so runnable threads never exceed cores: `P` virtual
/// processors for the single-system workloads, `C` clients and `T = C`
/// tenants for the serve workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub cores: usize,
    pub processors: usize,
    pub clients: usize,
}

impl Sizing {
    pub fn for_cores(cores: usize) -> Sizing {
        Sizing {
            cores,
            processors: cores.clamp(1, 5),
            clients: cores.clamp(1, 4),
        }
    }

    pub fn host() -> Sizing {
        Sizing::for_cores(crate::sys::host_cores())
    }
}
