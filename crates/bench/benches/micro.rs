//! Micro-benchmarks (experiment M1 in DESIGN.md): the rates that
//! contextualize the macro results — bytecode dispatch, full sends,
//! allocation, context activation, spin-lock acquisition, scavenging, and
//! the CRC-32 every checkpoint image pays.
//!
//! Runs on the in-tree [`mst_bench::harness::MicroGroup`] runner instead
//! of `criterion`, per the hermetic-build policy. Invoke with
//! `cargo bench -p mst-bench`; tune the per-benchmark budget with
//! `MST_MICRO_MS` (milliseconds, default 100).

use mst_bench::harness::MicroGroup;
use mst_core::{MsConfig, MsSystem};
use mst_vkernel::{SpinLock, SyncMode};

fn system() -> MsSystem {
    MsSystem::new(MsConfig {
        processors: 1,
        ..MsConfig::default()
    })
}

fn bench_dispatch() {
    let mut ms = system();
    let mut g = MicroGroup::new("interpreter");
    // ~6 bytecodes per loop iteration, 100k iterations.
    let loop_100k = ms
        .prepare("| i | i := 0. [i < 100000] whileTrue: [i := i + 1]. i")
        .unwrap();
    g.throughput(600_000).bench("bytecode_dispatch_loop", || {
        ms.run_prepared(&loop_100k).unwrap();
    });
    let sends = ms.prepare("Benchmark callHeavy: 10000").unwrap();
    g.throughput(70_000) // 7 activations per iter
        .bench("method_activation", || {
            ms.run_prepared(&sends).unwrap();
        });
    let alloc = ms.prepare("Benchmark allocHeavy: 10000").unwrap();
    g.throughput(20_000).bench("allocation", || {
        ms.run_prepared(&alloc).unwrap();
    });
    let dict = ms
        .prepare(
            "| d | d := Dictionary new.
             1 to: 200 do: [:i | d at: i put: i * i].
             d at: 100",
        )
        .unwrap();
    g.bench("image_dictionary", || {
        ms.run_prepared(&dict).unwrap();
    });
}

fn bench_compiler() {
    let mut ms = system();
    let mut g = MicroGroup::new("compiler");
    let compile = ms
        .prepare("Benchmark compile: 'microBenchDummy ^3 + 4 * (5 - 2)'")
        .unwrap();
    g.bench("compile_method_primitive", || {
        ms.run_prepared(&compile).unwrap();
    });
    let decompile = ms.prepare("Object decompile: #printString").unwrap();
    g.bench("decompile_method_primitive", || {
        ms.run_prepared(&decompile).unwrap();
    });

    let ctx = mst_compiler::CompileContext::default();
    g.bench("rust_compile_direct", || {
        mst_compiler::compile("at: i put: v | t | t := v. self check: i. ^t", &ctx).unwrap();
    });
}

fn bench_gc() {
    let mut ms = system();
    let mut g = MicroGroup::new("gc");
    let churn = ms
        .prepare("1 to: 3000 do: [:i | Array new: 16]. Object new scavenge")
        .unwrap();
    g.bench("scavenge_after_churn", || {
        ms.run_prepared(&churn).unwrap();
    });
}

fn bench_vkernel() {
    let mut g = MicroGroup::new("vkernel");
    let mp = SpinLock::new(SyncMode::Multiprocessor);
    g.bench("spinlock_uncontended", || {
        let guard = mp.acquire();
        std::hint::black_box(&guard);
    });
    let uni = SpinLock::new(SyncMode::Uniprocessor);
    g.bench("spinlock_baseline_noop", || {
        let guard = uni.acquire();
        std::hint::black_box(&guard);
    });
    let image: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect();
    g.throughput(1 << 20).bench("crc32_1mib", || {
        std::hint::black_box(mst_vkernel::crc::crc32(std::hint::black_box(&image)));
    });
}

fn main() {
    bench_dispatch();
    bench_compiler();
    bench_gc();
    bench_vkernel();
}
