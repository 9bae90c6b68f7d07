//! Property-based tests: the Smalltalk system against Rust oracles.
//!
//! Random arithmetic expressions, collection operation sequences and
//! compile/decompile round trips are checked against plain-Rust models.
//! One shared system serves all cases (building an image per case would
//! dominate the run time).
//!
//! Runs on the in-tree harness ([`mst_core::testing`]) rather than
//! `proptest`, per the hermetic-build policy: deterministic by default,
//! reproducible via `MST_PROP_SEED`, shrinking by halving the size budget.

use std::sync::{Mutex, OnceLock};

use mst_core::testing::{
    constant, int_range, lowercase_string, one_of, recursive, tuple2, vec_of, Gen, Runner,
};
use mst_core::{prop_assert, prop_assert_eq, MsConfig, MsSystem, Value};

fn shared() -> &'static Mutex<MsSystem> {
    static SYS: OnceLock<Mutex<MsSystem>> = OnceLock::new();
    SYS.get_or_init(|| {
        Mutex::new(MsSystem::new(MsConfig {
            processors: 1,
            ..MsConfig::default()
        }))
    })
}

// ---------------------------------------------------------------------
// Arithmetic oracle
// ---------------------------------------------------------------------

/// A random integer expression with a Rust-side evaluation.
#[derive(Debug, Clone)]
enum IntExpr {
    Lit(i32),
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
    Mul(Box<IntExpr>, Box<IntExpr>),
    FloorDiv(Box<IntExpr>, Box<IntExpr>),
    Mod(Box<IntExpr>, Box<IntExpr>),
    Max(Box<IntExpr>, Box<IntExpr>),
    Abs(Box<IntExpr>),
}

impl IntExpr {
    fn eval(&self) -> i64 {
        match self {
            IntExpr::Lit(v) => *v as i64,
            IntExpr::Add(a, b) => a.eval() + b.eval(),
            IntExpr::Sub(a, b) => a.eval() - b.eval(),
            IntExpr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            IntExpr::FloorDiv(a, b) => {
                let (a, b) = (a.eval(), b.eval());
                if b == 0 {
                    0
                } else {
                    Self::floor_div(a, b)
                }
            }
            IntExpr::Mod(a, b) => {
                let (a, b) = (a.eval(), b.eval());
                if b == 0 {
                    0
                } else {
                    a - Self::floor_div(a, b) * b
                }
            }
            IntExpr::Max(a, b) => a.eval().max(b.eval()),
            IntExpr::Abs(a) => a.eval().abs(),
        }
    }

    fn floor_div(a: i64, b: i64) -> i64 {
        let q = a / b;
        if a % b != 0 && (a < 0) != (b < 0) {
            q - 1
        } else {
            q
        }
    }

    /// Renders as Smalltalk (fully parenthesized; division guarded).
    fn to_smalltalk(&self) -> String {
        match self {
            IntExpr::Lit(v) => format!("{v}"),
            IntExpr::Add(a, b) => format!("({} + {})", a.to_smalltalk(), b.to_smalltalk()),
            IntExpr::Sub(a, b) => format!("({} - {})", a.to_smalltalk(), b.to_smalltalk()),
            IntExpr::Mul(a, b) => format!("({} * {})", a.to_smalltalk(), b.to_smalltalk()),
            IntExpr::FloorDiv(a, b) => format!(
                "([:d | d = 0 ifTrue: [0] ifFalse: [{} // d]] value: {})",
                a.to_smalltalk(),
                b.to_smalltalk()
            ),
            IntExpr::Mod(a, b) => format!(
                "([:d | d = 0 ifTrue: [0] ifFalse: [{} \\\\ d]] value: {})",
                a.to_smalltalk(),
                b.to_smalltalk()
            ),
            IntExpr::Max(a, b) => format!("({} max: {})", a.to_smalltalk(), b.to_smalltalk()),
            IntExpr::Abs(a) => format!("{} abs", a.to_smalltalk()),
        }
    }
}

fn int_expr() -> Gen<IntExpr> {
    // Small leaves and shallow nesting keep products inside the 63-bit
    // SmallInteger range (overflow is a separate, directed test).
    let leaf = int_range(-20, 20).map(|v| IntExpr::Lit(v as i32));
    let binary = |f: fn(Box<IntExpr>, Box<IntExpr>) -> IntExpr, inner: &Gen<IntExpr>| {
        tuple2(inner.clone(), inner.clone()).map(move |(a, b)| f(Box::new(a), Box::new(b)))
    };
    recursive(leaf, 3, move |inner| {
        one_of(vec![
            binary(IntExpr::Add, &inner),
            binary(IntExpr::Sub, &inner),
            binary(IntExpr::Mul, &inner),
            binary(IntExpr::FloorDiv, &inner),
            binary(IntExpr::Mod, &inner),
            binary(IntExpr::Max, &inner),
            inner.map(|a| IntExpr::Abs(Box::new(a))),
        ])
    })
}

#[test]
fn arithmetic_matches_rust_oracle() {
    Runner::with_cases(48).run("arithmetic_matches_rust_oracle", &int_expr(), |e| {
        let mut ms = shared().lock().unwrap();
        let got = ms.evaluate(&e.to_smalltalk()).unwrap();
        prop_assert_eq!(got, Value::Int(e.eval()));
        Ok(())
    });
}

// ---------------------------------------------------------------------
// OrderedCollection vs Vec oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CollOp {
    Add(i32),
    RemoveFirst,
    RemoveLast,
}

fn coll_ops() -> Gen<Vec<CollOp>> {
    vec_of(
        one_of(vec![
            int_range(0, 100).map(|v| CollOp::Add(v as i32)),
            constant(CollOp::RemoveFirst),
            constant(CollOp::RemoveLast),
        ]),
        40,
    )
}

#[test]
fn ordered_collection_matches_vec() {
    Runner::with_cases(32).run("ordered_collection_matches_vec", &coll_ops(), |ops| {
        // Oracle.
        let mut model: Vec<i64> = Vec::new();
        let mut script = String::from("| o | o := OrderedCollection new. ");
        for op in ops {
            match op {
                CollOp::Add(v) => {
                    model.push(*v as i64);
                    script.push_str(&format!("o add: {v}. "));
                }
                CollOp::RemoveFirst => {
                    if !model.is_empty() {
                        model.remove(0);
                        script.push_str("o removeFirst. ");
                    }
                }
                CollOp::RemoveLast => {
                    if !model.is_empty() {
                        model.pop();
                        script.push_str("o removeLast. ");
                    }
                }
            }
        }
        let sum: i64 = model.iter().sum();
        script.push_str("(o inject: 0 into: [:a :b | a + b]) * 1000 + o size");
        let mut ms = shared().lock().unwrap();
        let got = ms.evaluate(&script).unwrap();
        prop_assert_eq!(got, Value::Int(sum * 1000 + model.len() as i64));
        Ok(())
    });
}

#[test]
fn dictionary_matches_hashmap() {
    let pairs = vec_of(tuple2(int_range(0, 50), int_range(0, 1000)), 30);
    Runner::with_cases(32).run("dictionary_matches_hashmap", &pairs, |pairs| {
        let mut model = std::collections::HashMap::new();
        let mut script = String::from("| d | d := Dictionary new. ");
        for (k, v) in pairs {
            model.insert(*k, *v);
            script.push_str(&format!("d at: {k} put: {v}. "));
        }
        let sum: i64 = model.values().sum();
        script.push_str("(d inject: 0 into: [:a :v | a + v]) * 1000 + d size");
        let mut ms = shared().lock().unwrap();
        let got = ms.evaluate(&script).unwrap();
        prop_assert_eq!(got, Value::Int(sum * 1000 + model.len() as i64));
        Ok(())
    });
}

/// The `('' , 'ab' , …) size` oracle, shared by the random property and
/// the ported regression cases below.
fn check_concat_size(parts: &[String]) -> Result<(), String> {
    let joined: String = parts.concat();
    if joined.is_empty() {
        return Ok(());
    }
    let mut script = String::from("(''");
    for p in parts {
        script.push_str(&format!(" , '{p}'"));
    }
    script.push_str(") size");
    let mut ms = shared().lock().unwrap();
    let got = ms.evaluate(&script).unwrap();
    prop_assert_eq!(got, Value::Int(joined.len() as i64));
    Ok(())
}

#[test]
fn string_reverse_concat_oracle() {
    let parts = vec_of(lowercase_string(6), 6);
    Runner::with_cases(32).run("string_reverse_concat_oracle", &parts, |parts| {
        check_concat_size(parts)
    });
}

// ---------------------------------------------------------------------
// Regressions ported from tests/properties.proptest-regressions
// ---------------------------------------------------------------------

/// Historical proptest shrink: `parts = ["a"]` — a single one-character
/// part once disagreed with the oracle (seed
/// `9578d4e7f92111ddfadf4d2cd4721032a8e299b092248a475711ec5c18b20504`).
#[test]
fn regression_concat_single_letter_part() {
    check_concat_size(&["a".to_string()]).unwrap();
}

/// Companion to the shrink above: the pre-shrink shape mixed empty and
/// non-empty parts, so pin the empty-part-interleaved case too.
#[test]
fn regression_concat_with_empty_parts() {
    check_concat_size(&["".to_string(), "a".to_string(), "".to_string()]).unwrap();
}

// ---------------------------------------------------------------------
// Interval oracle
// ---------------------------------------------------------------------

#[test]
fn interval_sum_matches_rust() {
    let bounds = tuple2(int_range(-50, 50), int_range(-50, 50));
    Runner::with_cases(32).run("interval_sum_matches_rust", &bounds, |&(a, b)| {
        let expected: i64 = if a <= b { (a..=b).sum() } else { 0 };
        let mut ms = shared().lock().unwrap();
        let got = ms
            .evaluate(&format!("({a} to: {b}) inject: 0 into: [:x :y | x + y]"))
            .unwrap();
        prop_assert_eq!(got, Value::Int(expected));
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Inlined counted loops against the real send and a Rust loop
// ---------------------------------------------------------------------

/// The SmallInteger range (63-bit tagged).
const SMALL_MIN: i64 = -(1 << 62);
const SMALL_MAX: i64 = (1 << 62) - 1;

/// `start to: stop by: step do:` (plain `to:do:` when `step` is 1).
#[derive(Debug, Clone, Copy)]
struct CountedLoop {
    start: i64,
    stop: i64,
    step: i64,
}

/// What the loop's body and its `stop` expression leave in `LoopProbe`:
/// the sum of `i \\ 1009`, the iteration count, the last index (or nil) and
/// how often `stop` was evaluated.
#[derive(Debug, Clone, PartialEq)]
struct LoopEffects {
    sum: Value,
    count: Value,
    last: Value,
    stops: Value,
}

/// Ranges of up to 40 indices around 0 and both SmallInteger bounds, with
/// steps of either sign; many are empty.
fn counted_loops() -> Gen<CountedLoop> {
    let anchor = one_of(vec![constant(0), constant(SMALL_MAX), constant(SMALL_MIN)]);
    let step = one_of(vec![
        constant(1),
        int_range(-5, 5).map(|s| if s == 0 { 1 } else { s }),
    ]);
    tuple2(
        tuple2(anchor, step),
        tuple2(int_range(-40, 41), int_range(-40, 41)),
    )
    .map(|((anchor, step), (a, b))| {
        let at = |d: i64| anchor.saturating_add(d).clamp(SMALL_MIN, SMALL_MAX);
        CountedLoop {
            start: at(a),
            stop: at(b),
            step,
        }
    })
}

impl CountedLoop {
    /// The loop as a doit. With `inline` its block is a literal, which the
    /// compiler inlines; otherwise the block is bound to a temp first, so
    /// the doit sends `to:do:` to `Number`.
    fn doit(&self, inline: bool) -> String {
        let CountedLoop { start, stop, step } = *self;
        let body = "[:i | h at: 1 put: (h at: 1) + (i \\\\ 1009). \
                    h at: 2 put: (h at: 2) + 1. h at: 3 put: i]";
        let stop = format!("((h at: 4 put: (h at: 4) + 1) * 0 + ({stop}))");
        let by = if step == 1 {
            String::new()
        } else {
            format!(" by: {step}")
        };
        let block = if inline { body } else { "b" };
        format!(
            "| h b | h := LoopProbe. \
             h at: 1 put: 0; at: 2 put: 0; at: 3 put: nil; at: 4 put: 0. \
             b := {body}. \
             ({start}) to: {stop}{by} do: {block}"
        )
    }

    /// The Rust loop: the expression's value (`start`, or an error when the
    /// index steps past a SmallInteger bound) and the body's effects.
    fn oracle(&self) -> (Option<i64>, LoopEffects) {
        let CountedLoop { start, stop, step } = *self;
        let (mut sum, mut count, mut last) = (0, 0, None);
        let mut i = start;
        let value = loop {
            if !(if step > 0 { i <= stop } else { i >= stop }) {
                break Some(start);
            }
            sum += i.rem_euclid(1009);
            count += 1;
            last = Some(i);
            match i.checked_add(step) {
                Some(next) if (SMALL_MIN..=SMALL_MAX).contains(&next) => i = next,
                _ => break None,
            }
        };
        let effects = LoopEffects {
            sum: Value::Int(sum),
            count: Value::Int(count),
            last: last.map_or(Value::Nil, Value::Int),
            stops: Value::Int(1),
        };
        (value, effects)
    }
}

/// Runs a doit that fills `LoopProbe`; answers its value (or error text)
/// and the effects it left.
fn run_probed(ms: &mut MsSystem, doit: &str) -> (Result<Value, String>, LoopEffects) {
    // Naming the global in the doit creates its binding before it runs.
    ms.evaluate(
        "(Smalltalk associationAt: #LoopProbe ifAbsent: [nil]) value: (Array new: 4). LoopProbe",
    )
    .unwrap();
    let value = ms.evaluate(doit).map_err(|e| e.to_string());
    let mut probe = |k| ms.evaluate(&format!("LoopProbe at: {k}")).unwrap();
    let effects = LoopEffects {
        sum: probe(1),
        count: probe(2),
        last: probe(3),
        stops: probe(4),
    };
    (value, effects)
}

#[test]
fn inlined_to_do_matches_the_send_and_a_rust_loop() {
    Runner::with_cases(48).run(
        "inlined_to_do_matches_the_send_and_a_rust_loop",
        &counted_loops(),
        |lp| {
            // The two doits differ in the one thing under test: only the
            // first names no loop selector in its literal frame.
            for (inline, expect_send) in [(true, false), (false, true)] {
                let method = format!("doIt {}", lp.doit(inline));
                let spec = mst_compiler::compile(&method, &Default::default()).unwrap();
                let sends = ["to:do:", "to:by:do:"].iter().any(|sel| {
                    let sym = mst_compiler::ast::Literal::Symbol(sel.to_string());
                    spec.literals.contains(&mst_compiler::LitEntry::Value(sym))
                });
                prop_assert_eq!(sends, expect_send);
            }
            let mut ms = shared().lock().unwrap();
            let inlined = run_probed(&mut ms, &lp.doit(true));
            let sent = run_probed(&mut ms, &lp.doit(false));
            prop_assert_eq!(inlined, sent);
            let (value, effects) = lp.oracle();
            prop_assert_eq!(inlined.1, effects);
            match value {
                Some(start) => prop_assert_eq!(inlined.0, Ok(Value::Int(start))),
                None => prop_assert!(inlined.0.is_err(), "{:?} should overflow", inlined.0),
            }
            Ok(())
        },
    );
}

/// The guard cases: a loop whose inlining would not be exact stays a send
/// and keeps the send's answer.
#[test]
fn inlined_to_do_guards_keep_the_send_semantics() {
    let mut ms = shared().lock().unwrap();
    // The body assigns its argument: that changes only the argument, not
    // the iteration.
    let v = ms
        .evaluate("| n | n := 0. 1 to: 5 do: [:i | i := i + 1. n := n + 1]. n")
        .unwrap();
    assert_eq!(v, Value::Int(5));
    // Escaping blocks share the home's slot for `i`; after the loop it
    // holds the last index, not the limit + 1.
    let v = ms
        .evaluate(
            "| bs | bs := Array new: 3. \
             1 to: 3 do: [:i | bs at: i put: [i]]. \
             (bs at: 1) value",
        )
        .unwrap();
    assert_eq!(v, Value::Int(3));
    // Two BlockContexts of one block literal share their home's frame; a
    // loop inside them keeps one counter per activation, so the nested
    // run of `b2` does not end `b1`'s loop early (3 + 3 iterations).
    let v = ms
        .evaluate(
            "| n nested mk b1 b2 | n := 0. nested := true. \
             mk := [[1 to: 3 do: [:i | \
                 n := n + 1. \
                 nested ifTrue: [nested := false. b2 value]]]]. \
             b1 := mk value. b2 := mk value. \
             b1 value. \
             n",
        )
        .unwrap();
    assert_eq!(v, Value::Int(6));
    // A ^ in the body returns from the doit, inlined or not.
    for (doit, answer) in [
        ("1 to: 10 do: [:i | i = 4 ifTrue: [^i * 10]]. 0", 40),
        (
            "| b | b := [:i | i = 4 ifTrue: [^i * 10]]. 1 to: 10 do: b. 0",
            40,
        ),
        ("10 to: 1 by: -3 do: [:i | i < 5 ifTrue: [^i]]. 0", 4),
    ] {
        assert_eq!(ms.evaluate(doit).unwrap(), Value::Int(answer), "{doit}");
    }
    // A block that is not a literal is sent `value:` by `Number>>to:do:`,
    // which answers its receiver.
    let v = ms
        .evaluate("| n b | n := 0. b := [:i | n := n + i]. (3 to: 4 do: b) * 100 + n")
        .unwrap();
    assert_eq!(v, Value::Int(307));
}

// ---------------------------------------------------------------------
// Heap verifier vs random GC interleavings
// ---------------------------------------------------------------------

/// One step of a random mutator/collector schedule against a raw
/// [`mst_objmem::ObjectMemory`].
#[derive(Debug, Clone)]
enum HeapOp {
    /// Allocate an n-slot array in new space and (maybe) root it.
    AllocNew { words: usize, rooted: bool },
    /// Allocate an n-slot array directly in old space and root it.
    AllocOld { words: usize },
    /// Store root `to` into slot 0 of root `from` (write barrier path —
    /// old-to-new stores must land in the remembered set).
    Link { from: usize, to: usize },
    /// Forget a root, turning its object into garbage.
    DropRoot(usize),
    /// Generation scavenge.
    Scavenge,
    /// Mark-compact full collection.
    FullGc,
}

fn heap_ops() -> Gen<Vec<HeapOp>> {
    vec_of(
        one_of(vec![
            tuple2(int_range(1, 40), int_range(0, 1)).map(|(w, r)| HeapOp::AllocNew {
                words: w as usize,
                rooted: r == 1,
            }),
            int_range(1, 40).map(|w| HeapOp::AllocOld { words: w as usize }),
            tuple2(int_range(0, 1000), int_range(0, 1000)).map(|(a, b)| HeapOp::Link {
                from: a as usize,
                to: b as usize,
            }),
            int_range(0, 1000).map(|i| HeapOp::DropRoot(i as usize)),
            constant(HeapOp::Scavenge),
            constant(HeapOp::FullGc),
        ]),
        60,
    )
}

/// A small raw object memory with just enough bootstrap (a nil) to allocate
/// and collect.
fn scratch_mem() -> mst_objmem::ObjectMemory {
    use mst_objmem::{MemoryConfig, ObjFormat, ObjectMemory, Oop, So};
    let mem = ObjectMemory::new(MemoryConfig {
        old_words: 128 << 10,
        eden_words: 16 << 10,
        survivor_words: 8 << 10,
        ..MemoryConfig::default()
    });
    let nil = mem
        .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
        .unwrap();
    mem.specials().set(So::Nil, nil);
    mem
}

/// Applies a schedule, returning the surviving roots.
fn apply_heap_ops(mem: &mst_objmem::ObjectMemory, ops: &[HeapOp]) -> Vec<mst_objmem::RootHandle> {
    let tok = mem.new_token();
    let mut roots: Vec<mst_objmem::RootHandle> = Vec::new();
    for op in ops {
        match op {
            HeapOp::AllocNew { words, rooted } => {
                let obj = mem.alloc_array(&tok, *words).or_else(|| {
                    // Eden full: collect (OOM leaves the heap untouched,
                    // which is itself a state the verifier must accept).
                    let _ = mem.try_scavenge();
                    mem.alloc_array(&tok, *words)
                });
                if let (Some(o), true) = (obj, *rooted) {
                    roots.push(mem.new_root(o));
                }
            }
            HeapOp::AllocOld { words } => {
                if let Some(o) = mem.alloc_array_old(*words) {
                    roots.push(mem.new_root(o));
                }
            }
            HeapOp::Link { from, to } => {
                if !roots.is_empty() {
                    let from = roots[from % roots.len()].get();
                    let to = roots[to % roots.len()].get();
                    mem.store(from, 0, to);
                }
            }
            HeapOp::DropRoot(i) => {
                if !roots.is_empty() {
                    let i = i % roots.len();
                    roots.swap_remove(i);
                }
            }
            HeapOp::Scavenge => {
                let _ = mem.try_scavenge();
            }
            HeapOp::FullGc => {
                mem.full_gc();
            }
        }
    }
    roots
}

#[test]
fn verifier_accepts_random_gc_interleavings() {
    Runner::with_cases(24).run(
        "verifier_accepts_random_gc_interleavings",
        &heap_ops(),
        |ops| {
            let mem = scratch_mem();
            let roots = apply_heap_ops(&mem, ops);
            let audit = mem.verify_heap();
            if !audit.is_clean() {
                return Err(format!("dirty heap after {} ops:\n{audit}", ops.len()));
            }
            // A final scavenge must also leave a clean heap (and re-enables
            // new-space reference validation after any full collection).
            let _ = mem.try_scavenge();
            let audit = mem.verify_heap();
            if !audit.is_clean() {
                return Err(format!("dirty heap after final scavenge:\n{audit}"));
            }
            drop(roots);
            Ok(())
        },
    );
}

#[test]
fn verifier_rejects_a_corrupted_remembered_set() {
    Runner::with_cases(16).run(
        "verifier_rejects_a_corrupted_remembered_set",
        &heap_ops(),
        |ops| {
            let mem = scratch_mem();
            let roots = apply_heap_ops(&mem, ops);
            // Plant the classic lost-write-barrier bug on top of whatever
            // state the schedule produced: an old object referencing new
            // space without a remembered-set entry.
            let tok = mem.new_token();
            let old = mem.alloc_array_old(1).expect("room for one old array");
            let young = mem
                .alloc_array(&tok, 1)
                .or_else(|| {
                    let _ = mem.try_scavenge();
                    mem.alloc_array(&tok, 1)
                })
                .expect("room for one young array");
            mem.store_nocheck(old, 0, young);
            let audit = mem.verify_heap();
            if audit.is_clean() {
                return Err("verifier missed an unremembered old-to-new reference".into());
            }
            drop(roots);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Helper-count oracle for scavenging: N helpers ≡ one helper, judged by a
// test-side graph walker and the heap verifier
// ---------------------------------------------------------------------

/// Drives the scavenge closure from `helpers` OS threads, the way a stopped
/// world of donated processors would.
fn scope_runner(helpers: usize, f: &(dyn Fn(usize) + Sync)) {
    std::thread::scope(|s| {
        for slot in 1..helpers {
            s.spawn(move || f(slot));
        }
        f(0);
    });
}

/// A `scratch_mem` with survivor room sized so overflow tenuring cannot
/// trigger (its victim choice is timing-dependent under parallel copying,
/// and these tests demand determinism).
fn scratch_mem_roomy() -> mst_objmem::ObjectMemory {
    use mst_objmem::{MemoryConfig, ObjFormat, ObjectMemory, Oop, So};
    let mem = ObjectMemory::new(MemoryConfig {
        old_words: 128 << 10,
        eden_words: 8 << 10,
        survivor_words: 32 << 10,
        ..MemoryConfig::default()
    });
    let nil = mem
        .allocate_old(Oop::ZERO, ObjFormat::Pointers, 0, 0)
        .unwrap();
    mem.specials().set(So::Nil, nil);
    mem
}

/// Applies a schedule like [`apply_heap_ops`], scavenging with `helpers`
/// threads (1 = the same scavenger with nobody to steal from).
fn apply_heap_ops_par(
    mem: &mst_objmem::ObjectMemory,
    ops: &[HeapOp],
    helpers: usize,
) -> Vec<mst_objmem::RootHandle> {
    let scavenge = |mem: &mst_objmem::ObjectMemory| {
        let _ = mem.try_scavenge_with(helpers, scope_runner);
    };
    let tok = mem.new_token();
    let mut roots: Vec<mst_objmem::RootHandle> = Vec::new();
    for op in ops {
        match op {
            HeapOp::AllocNew { words, rooted } => {
                let obj = mem.alloc_array(&tok, *words).or_else(|| {
                    scavenge(mem);
                    mem.alloc_array(&tok, *words)
                });
                if let (Some(o), true) = (obj, *rooted) {
                    roots.push(mem.new_root(o));
                }
            }
            HeapOp::AllocOld { words } => {
                if let Some(o) = mem.alloc_array_old(*words) {
                    roots.push(mem.new_root(o));
                }
            }
            HeapOp::Link { from, to } => {
                if !roots.is_empty() {
                    let from = roots[from % roots.len()].get();
                    let to = roots[to % roots.len()].get();
                    mem.store(from, 0, to);
                }
            }
            HeapOp::DropRoot(i) => {
                if !roots.is_empty() {
                    let i = i % roots.len();
                    roots.swap_remove(i);
                }
            }
            HeapOp::Scavenge => scavenge(mem),
            HeapOp::FullGc => {
                mem.full_gc();
            }
        }
    }
    roots
}

/// One node of the canonical reachable-graph signature: generation, age,
/// size, and each slot rendered as a heap-independent token (a visit index
/// for references, the value for small integers).
#[derive(Debug, PartialEq, Eq)]
struct SigNode {
    is_old: bool,
    age: u8,
    body_words: usize,
    slots: Vec<SigSlot>,
}

#[derive(Debug, PartialEq, Eq)]
enum SigSlot {
    Int(i64),
    Nil,
    Zero,
    Ref(usize),
}

/// Depth-first signature of everything reachable from `roots`, in root
/// order. Two heaps that executed the same schedule must produce identical
/// signatures regardless of how (or how parallel) their scavenges ran.
fn graph_signature(
    mem: &mst_objmem::ObjectMemory,
    roots: &[mst_objmem::RootHandle],
) -> Vec<SigNode> {
    use mst_objmem::Oop;
    use std::collections::HashMap;
    let nil = mem.nil();
    let mut visit: HashMap<u64, usize> = HashMap::new();
    let mut order: Vec<Oop> = Vec::new();
    let mut stack: Vec<Oop> = roots.iter().rev().map(|r| r.get()).collect();
    while let Some(obj) = stack.pop() {
        if obj == Oop::ZERO || obj.is_small_int() || obj == nil {
            continue;
        }
        if visit.contains_key(&obj.raw()) {
            continue;
        }
        visit.insert(obj.raw(), order.len());
        order.push(obj);
        let h = mem.header(obj);
        for i in (0..h.body_words()).rev() {
            stack.push(mem.fetch(obj, i));
        }
    }
    order
        .iter()
        .map(|&obj| {
            let h = mem.header(obj);
            let slots = (0..h.body_words())
                .map(|i| {
                    let v = mem.fetch(obj, i);
                    if v.is_small_int() {
                        SigSlot::Int(v.as_small_int())
                    } else if v == nil {
                        SigSlot::Nil
                    } else if v == Oop::ZERO {
                        SigSlot::Zero
                    } else {
                        SigSlot::Ref(visit[&v.raw()])
                    }
                })
                .collect();
            SigNode {
                is_old: mem.is_old(obj),
                age: h.age(),
                body_words: h.body_words(),
                slots,
            }
        })
        .collect()
}

/// Where two signatures first differ, for a failure message.
fn sig_divergence(solo: &[SigNode], multi: &[SigNode]) -> String {
    solo.iter()
        .zip(multi.iter())
        .position(|(a, b)| a != b)
        .map(|i| {
            format!(
                "first divergence at node {i}: {:?} vs {:?}",
                solo[i], multi[i]
            )
        })
        .unwrap_or_else(|| {
            format!(
                "node counts: one helper {} vs many {}",
                solo.len(),
                multi.len()
            )
        })
}

/// Fails unless `mem` passes the heap verifier.
fn audit_clean(mem: &mst_objmem::ObjectMemory, what: &str) -> Result<(), String> {
    let audit = mem.verify_heap();
    if audit.is_clean() {
        Ok(())
    } else {
        Err(format!("dirty heap ({what}):\n{audit}"))
    }
}

#[test]
fn n_helper_scavenge_is_observationally_one_helper() {
    Runner::with_cases(16).run(
        "n_helper_scavenge_is_observationally_one_helper",
        &heap_ops(),
        |ops| {
            let solo = scratch_mem_roomy();
            let sroots = apply_heap_ops_par(&solo, ops, 1);
            audit_clean(&solo, "1 helper")?;
            let ssig = graph_signature(&solo, &sroots);
            for helpers in [2usize, 4] {
                let multi = scratch_mem_roomy();
                let mroots = apply_heap_ops_par(&multi, ops, helpers);
                audit_clean(&multi, &format!("{helpers} helpers"))?;
                prop_assert_eq!(sroots.len(), mroots.len());
                let msig = graph_signature(&multi, &mroots);
                if ssig != msig {
                    return Err(format!(
                        "reachable graphs diverged after {} ops with {helpers} helpers; {}",
                        ops.len(),
                        sig_divergence(&ssig, &msig)
                    ));
                }
                // The same tenure decisions imply identical generation stats.
                let (s, m) = (solo.gc_stats(), multi.gc_stats());
                prop_assert_eq!(s.words_survived, m.words_survived);
                prop_assert_eq!(s.words_tenured, m.words_tenured);
            }
            Ok(())
        },
    );
}

#[test]
fn parallel_scavenge_survives_spurious_wakeups() {
    use mst_vkernel::fault;
    // The fault registry is process-global; take the same care the
    // supervisor tests do and disarm on every exit path.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            fault::disable();
        }
    }
    let _disarm = Disarm;
    fault::install(fault::ChaosConfig {
        seed: 0x5CAF_F01D,
        rate: 0.4,
        sites: fault::FaultSite::SpuriousWake.bit(),
    });

    // Drive the parallel scavenge the way the interpreter does: through a
    // real rendezvous whose parked participants get drafted as helpers,
    // with the condvar waits being spuriously woken underneath them.
    let rdv = std::sync::Arc::new(mst_vkernel::Rendezvous::new());
    let mem = scratch_mem_roomy();
    let tok = mem.new_token();
    let mut head = mem.nil();
    for i in 0..300 {
        let cell = mem
            .alloc_array(&tok, 2)
            .expect("eden sized for the whole list");
        mem.store_nocheck(cell, 0, mst_objmem::Oop::from_small_int(i));
        mem.store_nocheck(cell, 1, head);
        head = cell;
    }
    let root = mem.new_root(head);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let rdv = std::sync::Arc::clone(&rdv);
            let stop = std::sync::Arc::clone(&stop);
            s.spawn(move || {
                let me = rdv.participant();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    if rdv.poll() {
                        me.park();
                    }
                    std::hint::spin_loop();
                }
            });
        }
        let me = rdv.participant();
        for _ in 0..10 {
            let guard = me.stop_world();
            mem.try_scavenge_with(4, |n, f| {
                guard.run_stopped(n, f);
            })
            .expect("plenty of old space");
            drop(guard);
            mem.verify_heap().assert_clean();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
    });

    let mut cur = root.get();
    for i in (0..300).rev() {
        assert_eq!(mem.fetch(cur, 0).as_small_int(), i);
        cur = mem.fetch(cur, 1);
    }
    assert_eq!(cur, mem.nil());
}

// ---------------------------------------------------------------------
// Helper-count full GC oracles: the one-helper collection,
// the graph walker, and the heap verifier
// ---------------------------------------------------------------------

#[test]
fn n_helper_full_gc_is_observationally_one_helper() {
    Runner::with_cases(12).run(
        "n_helper_full_gc_is_observationally_one_helper",
        &heap_ops(),
        |ops| {
            // Grow identical heaps with the exact same schedule, then
            // collect one with the leader alone and the others with helper
            // threads stealing from each other's deques (mark) and claiming
            // update chunks (the plan and the move run on the leader
            // alone). Everything observable must agree —
            // reclaimed words, the reachable graphs, the heap extent, and
            // the entry table (the remembered set survives compaction
            // verbatim).
            let solo = scratch_mem_roomy();
            let sroots = apply_heap_ops_par(&solo, ops, 1);
            let s_out = solo.full_gc_with(1, scope_runner);
            if !s_out.report.is_clean() {
                return Err(format!("1-helper compactor reported: {}", s_out.report));
            }
            audit_clean(&solo, "1 helper")?;
            let ssig = graph_signature(&solo, &sroots);
            for helpers in [2usize, 4] {
                let multi = scratch_mem_roomy();
                let mroots = apply_heap_ops_par(&multi, ops, 1);
                let m_out = multi.full_gc_with(helpers, scope_runner);
                if !m_out.report.is_clean() {
                    return Err(format!(
                        "{helpers}-helper compactor reported: {}",
                        m_out.report
                    ));
                }
                prop_assert_eq!(s_out.reclaimed_words, m_out.reclaimed_words);
                prop_assert_eq!(solo.old_used(), multi.old_used());
                prop_assert_eq!(solo.entry_table_snapshot(), multi.entry_table_snapshot());
                audit_clean(&multi, &format!("{helpers} helpers"))?;
                let msig = graph_signature(&multi, &mroots);
                if ssig != msig {
                    return Err(format!(
                        "reachable graphs diverged after {} ops with {helpers} helpers; {}",
                        ops.len(),
                        sig_divergence(&ssig, &msig)
                    ));
                }
            }
            Ok(())
        },
    );
}
