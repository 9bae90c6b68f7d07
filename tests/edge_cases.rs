//! Integration: edge cases and failure injection — dead-context returns,
//! escaped contexts, overflow, deep recursion across collections,
//! snapshots, and primitive-failure fallbacks.

use mst_core::testing::{Gen, Runner};
use mst_core::{EvalError, MsConfig, MsSystem, Value};
use mst_objmem::{ObjectMemory, Oop};

fn system() -> MsSystem {
    MsSystem::new(MsConfig {
        processors: 2,
        ..MsConfig::default()
    })
}

fn eval(ms: &mut MsSystem, src: &str) -> Value {
    ms.evaluate(src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn nonlocal_return_from_dead_context_is_reported() {
    let mut ms = system();
    // Install a method that answers a block; evaluating the block after the
    // method returned makes its home context dead — ^ must raise.
    eval(&mut ms, "Benchmark class compile: 'escaper ^[^99]'");
    let err = ms.evaluate("Benchmark escaper value").unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("dead context") || msg.contains("cannotReturn"),
        "{msg}"
    );
    // System is healthy afterwards.
    assert_eq!(eval(&mut ms, "1 + 1"), Value::Int(2));
}

#[test]
fn this_context_is_a_method_context() {
    let mut ms = system();
    assert_eq!(
        eval(&mut ms, "thisContext class name asString"),
        Value::Str("MethodContext".into())
    );
}

#[test]
fn block_home_sharing_after_method_return() {
    let mut ms = system();
    // A block keeps (non-closure) access to its home temps while the home
    // frame is alive — the ST-80 semantics the paper's VM had.
    assert_eq!(
        eval(
            &mut ms,
            "| acc blk |
             acc := 0.
             blk := [:x | acc := acc + x. acc].
             blk value: 5.
             blk value: 7.
             acc"
        ),
        Value::Int(12)
    );
}

#[test]
fn small_integer_overflow_is_an_error_not_wraparound() {
    let mut ms = system();
    let big = (1i64 << 61).to_string();
    let err = ms.evaluate(&format!("{big} * 4")).unwrap_err();
    assert!(format!("{err}").contains("multiply"), "{err}");
    // But in-range products work at the boundary.
    // Left-to-right: (big - 1) + big stays just inside the 63-bit range.
    assert_eq!(
        eval(&mut ms, &format!("{big} - 1 + {big}")),
        Value::Int((1i64 << 62) - 1)
    );
}

/// An integer literal outside the SmallInteger range is a compile error,
/// not a wrapped value; the bounds themselves compile to themselves.
#[test]
fn integer_literals_outside_the_small_integer_range_do_not_compile() {
    let mut ms = system();
    for v in [Oop::MAX_SMALL_INT, Oop::MIN_SMALL_INT] {
        assert_eq!(eval(&mut ms, &v.to_string()), Value::Int(v));
    }
    for src in [
        "4611686018427387904",
        "-4611686018427387905",
        "16r4000000000000000",
        "#(4611686018427387904) first",
    ] {
        let answer = ms.evaluate(src);
        assert!(
            matches!(answer, Err(EvalError::Compile(_))),
            "{src} answered {answer:?}"
        );
    }
    assert_eq!(eval(&mut ms, "3 + 4"), Value::Int(7));
}

/// The compiler has no object memory to ask, so it keeps its own copy of
/// the SmallInteger range; the two must not drift.
#[test]
fn the_compilers_small_integer_bounds_are_the_object_memorys() {
    use mst_compiler::ast::{MAX_SMALL_INT, MIN_SMALL_INT};
    assert_eq!(
        (MIN_SMALL_INT, MAX_SMALL_INT),
        (Oop::MIN_SMALL_INT, Oop::MAX_SMALL_INT)
    );
}

#[test]
fn large_contexts_handle_deep_expressions() {
    let mut ms = system();
    // 20+ live operands forces a large context.
    let src = format!("{}1{}", "(1 + ".repeat(20), ")".repeat(20));
    assert_eq!(eval(&mut ms, &src), Value::Int(21));
}

#[test]
fn deep_recursion_across_scavenges() {
    let mut ms = MsSystem::new(MsConfig {
        memory: mst_objmem::MemoryConfig {
            eden_words: 48 << 10,
            survivor_words: 16 << 10,
            ..mst_objmem::MemoryConfig::default()
        },
        processors: 2,
        ..MsConfig::default()
    });
    eval(
        &mut ms,
        "Benchmark class compile: 'sumTo: n
            n = 0 ifTrue: [^0].
            ^n + (Benchmark sumTo: n - 1)'",
    );
    // Thousands of context allocations; contexts tenure and the chain must
    // survive scavenges and stay walkable for the returns.
    assert_eq!(
        eval(&mut ms, "Benchmark sumTo: 4000"),
        Value::Int(4000 * 4001 / 2)
    );
    assert!(ms.mem().gc_stats().scavenges > 0);
}

#[test]
fn explicit_scavenge_primitive_from_smalltalk() {
    let mut ms = system();
    let before = ms.mem().gc_stats().scavenges;
    assert_eq!(
        eval(&mut ms, "Object new scavenge. Object new scavengeCount"),
        Value::Int(before as i64 + 1)
    );
}

#[test]
fn perform_with_wrong_arity_fails_cleanly() {
    let mut ms = system();
    let err = ms.evaluate("3 perform: #between:and: with: 1").unwrap_err();
    assert!(format!("{err}").contains("understand"), "{err}");
    assert_eq!(eval(&mut ms, "3 perform: #negated"), Value::Int(-3));
}

#[test]
fn byte_array_and_string_element_rules() {
    let mut ms = system();
    assert_eq!(
        eval(
            &mut ms,
            "| b | b := ByteArray new: 3. b at: 2 put: 200. b at: 2"
        ),
        Value::Int(200)
    );
    // Bytes must be 0..255.
    assert!(ms.evaluate("(ByteArray new: 1) at: 1 put: 300").is_err());
    // Strings take Characters, not integers.
    assert!(ms.evaluate("(String new: 1) at: 1 put: 65").is_err());
    assert_eq!(
        eval(&mut ms, "| s | s := String new: 1. s at: 1 put: $Z. s"),
        Value::Str("Z".into())
    );
}

/// A `new:` no heap could ever hold — past the header's size field, or
/// past the whole of old space — fails as a primitive (a Smalltalk error),
/// not as the allocator's size assertion, and leaves a clean heap.
#[test]
fn new_beyond_any_heap_fails_as_a_primitive() {
    let mut ms = system();
    for src in [
        "Array new: 100000000",
        "Array new: 1073741824",
        "String new: 1073741824",
    ] {
        let err = ms.evaluate(src).expect_err(src);
        assert!(
            err.to_string().contains("cannot create indexed instances"),
            "{src}: {err}"
        );
        let audit = ms.audit_heap();
        assert!(audit.is_clean(), "{src}: dirty heap:\n{audit}");
    }
    assert_eq!(eval(&mut ms, "(Array new: 1000) size"), Value::Int(1000));
    ms.shutdown();
}

#[test]
fn non_boolean_loop_condition_is_reported() {
    let mut ms = system();
    let err = ms.evaluate("[3] whileTrue: [1]").unwrap_err();
    assert!(format!("{err}").contains("non-boolean"), "{err}");
}

#[test]
fn saved_snapshot_reports_the_crc_of_its_bytes() {
    let mut ms = system();
    let mut fresh = Vec::new();
    let crc = ms.save_snapshot(&mut fresh).unwrap();
    assert_eq!(crc, mst_vkernel::crc::crc32(&fresh), "freshly booted");

    // Churn: tenured garbage, scavenges, and a result that survives them.
    eval(
        &mut ms,
        "| keep | keep := OrderedCollection new.
         1 to: 3000 do: [:i | keep add: (Array new: 14). keep size > 200 ifTrue: [keep removeFirst]].
         Object new scavenge. keep size",
    );
    assert!(ms.mem().gc_stats().scavenges > 0);
    let mut churned = Vec::new();
    let crc = ms.save_snapshot(&mut churned).unwrap();
    assert_ne!(churned, fresh);
    assert_eq!(crc, mst_vkernel::crc::crc32(&churned), "after GC churn");
}

/// Regression: a snapshot save whose rename fails (a non-empty directory
/// holds the final name) used to leave `<path>.tmp` behind, and nothing
/// reclaims a stray temp file outside a checkpoint store.
#[test]
fn a_failed_snapshot_save_leaves_no_temp_file() {
    let dir = std::env::temp_dir().join(format!("mst_edge_renamefail_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let occupied = dir.join("image");
    std::fs::create_dir_all(occupied.join("occupied")).unwrap();
    let previous = dir.join("previous.image");
    let mut ms = system();
    eval(&mut ms, "Benchmark class compile: 'kept ^7'");
    ms.save_snapshot_file(&previous).expect("a free name saves");
    let err = ms.save_snapshot_file(&occupied).unwrap_err();
    assert_eq!(err.section, "file", "{err}");
    ms.shutdown();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["image", "previous.image"], "no temp file remains");
    let mut restored = MsSystem::from_snapshot_file(&previous, MsConfig::default())
        .expect("the earlier save still loads");
    assert_eq!(eval(&mut restored, "Benchmark kept"), Value::Int(7));
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both ways of reading a snapshot file open it the same way, so both name
/// a file that is not there.
#[test]
fn a_missing_snapshot_file_is_named_by_every_reader() {
    let path = std::env::temp_dir().join("mst_edge_no_such.image");
    let config = MsConfig::default();
    let template = MsSystem::load_template(&path, config).unwrap_err();
    let boot = MsSystem::from_snapshot_file(&path, config).unwrap_err();
    for err in [template.to_string(), boot.to_string()] {
        assert!(err.contains(&*path.to_string_lossy()), "{err}");
    }
}

#[test]
fn snapshot_round_trip_preserves_runtime_state() {
    let config = MsConfig {
        processors: 2,
        ..MsConfig::default()
    };
    let mut ms = MsSystem::new(config);
    eval(&mut ms, "Benchmark class compile: 'snapTest ^123'");
    let mut bytes = Vec::new();
    ms.save_snapshot(&mut bytes).unwrap();
    ms.shutdown();

    let mut restored = MsSystem::from_snapshot(&mut bytes.as_slice(), config).unwrap();
    assert_eq!(
        restored.evaluate("Benchmark snapTest").unwrap(),
        Value::Int(123)
    );
    // Restored image still compiles, collects, and runs processes.
    eval(
        &mut restored,
        "Benchmark class compile: 'snapTest2 ^Benchmark snapTest + 1'",
    );
    restored.collect_garbage();
    assert_eq!(
        restored.evaluate("Benchmark snapTest2").unwrap(),
        Value::Int(124)
    );
    assert_eq!(
        eval(
            &mut restored,
            "| done | done := Semaphore new. [done signal] fork. done wait. 7"
        ),
        Value::Int(7)
    );
}

/// One way to damage an image.
#[derive(Debug)]
enum Corruption {
    /// Flip one bit of one byte.
    Flip { byte: usize, bit: u8 },
    /// Keep only the first `len` bytes.
    Truncate { len: usize },
    /// Overwrite a run of bytes at `start` — headers, section lengths and
    /// CRC trailers all get hit across the cases.
    Garbage { start: usize, bytes: Vec<u8> },
}

impl Corruption {
    /// Bit flips, truncations and garbage runs in the proportion 8 : 2 : 1.
    fn of_image(len: usize) -> Gen<Corruption> {
        Gen::from_fn(move |rng, _size| match rng.gen_range(0, 11) {
            0..=7 => Corruption::Flip {
                byte: rng.gen_range(0, len as u64) as usize,
                bit: rng.gen_range(0, 8) as u8,
            },
            8..=9 => Corruption::Truncate {
                len: rng.gen_range(0, len as u64) as usize,
            },
            _ => {
                let run = rng.gen_range(1, 128) as usize;
                Corruption::Garbage {
                    start: rng.gen_range(0, (len - run) as u64) as usize,
                    bytes: (0..run).map(|_| rng.gen_range(0, 256) as u8).collect(),
                }
            }
        })
    }

    fn apply(&self, image: &[u8]) -> Vec<u8> {
        let mut out = image.to_vec();
        match self {
            Corruption::Flip { byte, bit } => out[*byte] ^= 1 << bit,
            Corruption::Truncate { len } => out.truncate(*len),
            Corruption::Garbage { start, bytes } => {
                out[*start..*start + bytes.len()].copy_from_slice(bytes)
            }
        }
        out
    }
}

/// The loader fuzzed: every corruption of a real image must be refused
/// with a structured `SnapshotError` — never a panic, never a silently
/// accepted image — and the pristine image must still load.
/// `MST_PROP_CASES` / `MST_PROP_SEED` run a larger or a different corpus.
#[test]
fn snapshot_loader_rejects_every_corrupted_image() {
    let config = MsConfig {
        processors: 2,
        ..MsConfig::default()
    };
    // Not just the pristine bootstrap: a runtime-compiled method too.
    let mut ms = MsSystem::new(config);
    eval(&mut ms, "Benchmark class compile: 'answer ^6 * 7'");
    assert_eq!(eval(&mut ms, "Benchmark answer"), Value::Int(42));
    let mut image = Vec::new();
    ms.save_snapshot(&mut image).expect("base snapshot");
    ms.shutdown();
    let load = |bytes: &[u8]| {
        std::panic::catch_unwind(|| {
            ObjectMemory::load_snapshot(&mut &bytes[..], config.memory_config()).map(|_| ())
        })
    };
    assert!(
        matches!(load(&image), Ok(Ok(()))),
        "the pristine image must load"
    );
    Runner::with_cases(88).run(
        "snapshot_loader_rejects_every_corrupted_image",
        &Corruption::of_image(image.len()),
        |corruption| match load(&corruption.apply(&image)) {
            Ok(Err(_)) => Ok(()),
            Ok(Ok(())) => Err("the corrupted image loaded".into()),
            Err(_) => Err("the loader panicked instead of returning an error".into()),
        },
    );
}

#[test]
fn heavy_symbol_and_method_churn() {
    let mut ms = system();
    // Install many distinct methods; lookups and caches must stay coherent
    // through repeated installation (cache-epoch invalidation).
    for i in 0..40 {
        eval(
            &mut ms,
            &format!("Benchmark class compile: 'gen{i} ^{i} * 2'"),
        );
    }
    for i in (0..40).step_by(7) {
        assert_eq!(
            eval(&mut ms, &format!("Benchmark gen{i}")),
            Value::Int(i * 2)
        );
    }
    // Full GC compacts the churned old space and everything still runs.
    ms.mem();
    eval(&mut ms, "Benchmark gen0 + Benchmark gen35");
}

#[test]
fn display_and_input_queues_from_smalltalk() {
    let mut ms = system();
    ms.vm().input.post(mst_vkernel::io::InputEvent {
        device: 0,
        code: 42,
        time: 0,
    });
    // Primitive 102 drains the serialized input queue.
    eval(
        &mut ms,
        "Benchmark class compile: 'nextEvent <primitive: 102> ^nil'",
    );
    assert_eq!(eval(&mut ms, "Benchmark nextEvent"), Value::Int(42));
    assert_eq!(eval(&mut ms, "Benchmark nextEvent"), Value::Nil);
}

/// One-line doits that break a class's superclass chain, each run by a
/// child copy of this test binary (named by an extra test filter that
/// matches no test): a doit that hangs or panics its caller then fails
/// that case instead of wedging or killing this binary.
const CHAIN_CASES: [(&str, &str); 2] = [
    (
        "chain-case-cycle",
        "Array instVarAt: 1 put: Array. Array new foo",
    ),
    (
        "chain-case-nil",
        "Benchmark instVarAt: 1 put: nil. Benchmark new foo",
    ),
];

/// In a child: the doit answers `EvalError::Runtime` within its 300 ms
/// deadline, and the session goes on serving.
fn run_chain_case(src: &str) {
    let mut ms = system();
    let deadline = std::time::Duration::from_millis(300);
    let p = ms.prepare(src).expect("the doit compiles");
    match ms.run_prepared_with_deadline(&p, deadline) {
        Err(EvalError::Runtime(msg)) => assert!(msg.contains("foo"), "{msg}"),
        other => panic!("{src}: {other:?}"),
    }
    assert_eq!(eval(&mut ms, "3 + 4"), Value::Int(7));
}

#[test]
fn a_doit_that_breaks_a_superclass_chain_fails_within_its_deadline() {
    const NAME: &str = "a_doit_that_breaks_a_superclass_chain_fails_within_its_deadline";
    let args: Vec<String> = std::env::args().collect();
    if let Some((_, src)) = CHAIN_CASES
        .iter()
        .find(|(case, _)| args.iter().any(|a| a == case))
    {
        run_chain_case(src);
        return;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    for (case, src) in CHAIN_CASES {
        let mut child = std::process::Command::new(&exe)
            .args([NAME, case, "--exact", "--test-threads=1", "--nocapture"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("the child test starts");
        let t0 = std::time::Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("the child is waitable") {
                break Some(status);
            }
            if t0.elapsed() > std::time::Duration::from_secs(30) {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let out = child.wait_with_output().expect("the child's output");
        let log = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        match status {
            None => panic!("{src}: no answer after 30 s\n{log}"),
            Some(s) if !s.success() => panic!("{src}: the child ended with {s}\n{log}"),
            Some(_) => assert!(
                log.contains("1 passed"),
                "{src}: the case did not run\n{log}"
            ),
        }
    }
}
