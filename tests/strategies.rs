//! Integration: every strategy combination computes the same answers.
//!
//! The paper's knobs (serialized vs replicated caches, free-context lists,
//! shared vs per-processor allocation, baseline vs MS sync) must never
//! change *what* the system computes — only how fast.

use mst_core::{MsConfig, MsSystem, Strategies, SystemState, Value};
use mst_interp::{CachePolicy, FreeListPolicy};
use mst_objmem::AllocPolicy;
use mst_vkernel::SyncMode;

const WORKLOADS: [&str; 5] = [
    "(1 to: 200) inject: 0 into: [:a :b | a + (b * b)]",
    "Benchmark callHeavy: 300",
    "Benchmark mixed: 150",
    "Benchmark printClassHierarchy",
    "'abcdefgh' , 'ij' , (42 printString)",
];

fn expected() -> Vec<Value> {
    let mut ms = MsSystem::new(MsConfig::for_state(SystemState::BaselineBs));
    WORKLOADS.iter().map(|w| ms.evaluate(w).unwrap()).collect()
}

fn check(strategies: Strategies, expected: &[Value]) {
    let mut ms = MsSystem::new(MsConfig {
        strategies,
        processors: if strategies.sync.is_mp() { 3 } else { 1 },
        ..MsConfig::default()
    });
    for (w, e) in WORKLOADS.iter().zip(expected) {
        let got = ms.evaluate(w).unwrap_or_else(|err| panic!("{w}: {err}"));
        assert_eq!(&got, e, "strategies {strategies:?}, workload {w}");
    }
}

#[test]
fn all_strategy_combinations_agree() {
    let expected = expected();
    for cache in [CachePolicy::Serialized, CachePolicy::Replicated] {
        for free in [
            FreeListPolicy::Disabled,
            FreeListPolicy::Shared,
            FreeListPolicy::Replicated,
        ] {
            for alloc in [
                AllocPolicy::SharedEden,
                AllocPolicy::PerProcessorLab { lab_words: 4 << 10 },
            ] {
                check(
                    Strategies {
                        sync: SyncMode::Multiprocessor,
                        cache,
                        free_contexts: free,
                        alloc,
                    },
                    &expected,
                );
            }
        }
    }
}

#[test]
fn baseline_bs_agrees() {
    let expected = expected();
    check(Strategies::baseline(), &expected);
}

/// Every free-list policy crossed with both allocation policies, beside
/// busy competitors and a small eden: recycled contexts cross scavenges and
/// full collections under each policy and the answers do not change.
#[test]
fn strategies_agree_under_competition_and_small_eden() {
    let expected = expected();
    for free_contexts in [
        FreeListPolicy::Disabled,
        FreeListPolicy::Shared,
        FreeListPolicy::Replicated,
    ] {
        for alloc in [
            AllocPolicy::SharedEden,
            AllocPolicy::PerProcessorLab { lab_words: 2 << 10 },
        ] {
            let mut ms = MsSystem::new(MsConfig {
                strategies: Strategies {
                    alloc,
                    free_contexts,
                    ..Strategies::ms()
                },
                memory: mst_objmem::MemoryConfig {
                    eden_words: 96 << 10,
                    survivor_words: 32 << 10,
                    ..mst_objmem::MemoryConfig::default()
                },
                ..MsConfig::default()
            });
            ms.enter_state(SystemState::MsBusy4);
            // Force allocation pressure so the small eden must scavenge at
            // least once while competitors run.
            ms.evaluate("Benchmark allocHeavy: 20000").unwrap();
            for (w, e) in WORKLOADS.iter().zip(&expected) {
                let got = ms.evaluate(w).unwrap_or_else(|err| panic!("{w}: {err}"));
                assert_eq!(
                    &got, e,
                    "free {free_contexts:?}, alloc {alloc:?}, workload {w}"
                );
                ms.full_collect();
            }
            let stats = ms.mem().gc_stats();
            assert!(stats.scavenges > 0, "{free_contexts:?}, {alloc:?}");
            assert!(stats.full_gcs > 0, "{free_contexts:?}, {alloc:?}");
            ms.shutdown();
        }
    }
}
