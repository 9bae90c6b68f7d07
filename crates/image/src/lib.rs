//! The bootstrap Smalltalk-80 virtual image.
//!
//! The paper ran "the ParcPlace Systems Smalltalk-80 virtual image release
//! VI2.1"; this crate builds a replacement image from scratch — class
//! hierarchy, kernel behaviour, collections, streams, processes, the
//! reflective machinery, and the macro-benchmark suite — by compiling the
//! chunk-format sources in `src/st/` into a fresh
//! [`mst_objmem::ObjectMemory`] instance.
//!
//! # Example
//!
//! ```
//! use mst_objmem::{MemoryConfig, ObjectMemory};
//!
//! let mem = ObjectMemory::new(MemoryConfig::default());
//! let methods = mst_image::build_image(&mem)?;
//! assert!(methods > 200, "the class library is substantial");
//! # Ok::<(), mst_image::BootstrapError>(())
//! ```

mod bootstrap;

use mst_compiler::ast::MethodNode;
use mst_compiler::{compile_method, parse_doit, CompileContext, CompileError};
use mst_interp::dicts::global_get;
use mst_interp::install::create_method;
use mst_objmem::{ObjectMemory, Oop};

pub use bootstrap::{build_image, file_in, BootstrapError, SOURCES};

/// Compiles an expression sequence ("doit") into an unbound CompiledMethod
/// whose value is the last expression. The method is compiled as if defined
/// by Object (globals resolve; no instance variables).
///
/// # Errors
///
/// Returns the compiler's error for malformed source.
pub fn compile_doit(mem: &ObjectMemory, source: &str) -> Result<Oop, CompileError> {
    let (temps, body) = parse_doit(source)?;
    let node = MethodNode {
        selector: "doIt".to_string(),
        args: vec![],
        temps,
        primitive: 0,
        body,
    };
    let spec = compile_method(&node, &CompileContext::default())?;
    let object_class = global_get(mem, "Object");
    Ok(create_method(mem, &spec, object_class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_compiler::ast::{Expr, Literal, Stmt};
    use mst_interp::dicts::global_get;
    use mst_objmem::layout::class as cls;
    use mst_objmem::{MemoryConfig, So};

    fn image() -> ObjectMemory {
        let mem = ObjectMemory::new(MemoryConfig::default());
        build_image(&mem).expect("bootstrap failed");
        mem
    }

    #[test]
    fn image_builds_with_many_methods() {
        let mem = ObjectMemory::new(MemoryConfig::default());
        let n = build_image(&mem).unwrap();
        assert!(n > 200, "expected a substantial library, got {n} methods");
    }

    #[test]
    fn core_classes_are_wired() {
        let mem = image();
        let object = global_get(&mem, "Object");
        assert_ne!(object, mem.nil());
        assert_eq!(mem.fetch(object, cls::SUPERCLASS), mem.nil());
        let small_int = global_get(&mem, "SmallInteger");
        assert_eq!(small_int, mem.specials().get(So::ClassSmallInteger));
        // SmallInteger < Number < Magnitude < Object
        let number = mem.fetch(small_int, cls::SUPERCLASS);
        assert_eq!(mem.str_value(mem.fetch(number, cls::NAME)), "Number");
        // nil's class is UndefinedObject.
        assert_eq!(
            mem.str_value(mem.fetch(mem.class_of(mem.nil()), cls::NAME)),
            "UndefinedObject"
        );
        // true/false are instances of True/False.
        let t = mem.specials().get(So::True);
        assert_eq!(mem.str_value(mem.fetch(mem.class_of(t), cls::NAME)), "True");
    }

    #[test]
    fn metaclass_chain_matches_smalltalk_80() {
        let mem = image();
        let object = global_get(&mem, "Object");
        let class_class = global_get(&mem, "Class");
        let metaclass = global_get(&mem, "Metaclass");
        let object_meta = mem.class_of(object);
        // Object class superclass == Class
        assert_eq!(mem.fetch(object_meta, cls::SUPERCLASS), class_class);
        // Metaclasses are instances of Metaclass.
        assert_eq!(mem.class_of(object_meta), metaclass);
        // Point class superclass == Object class
        let point = global_get(&mem, "Point");
        assert_eq!(mem.fetch(mem.class_of(point), cls::SUPERCLASS), object_meta);
    }

    #[test]
    fn characters_and_scheduler_exist() {
        let mem = image();
        let a = mem.char_oop(b'a');
        assert_eq!(mem.fetch(a, 0).as_small_int(), 97);
        assert_eq!(
            mem.str_value(mem.fetch(mem.class_of(a), cls::NAME)),
            "Character"
        );
        let sched = mem.specials().get(So::Scheduler);
        assert_ne!(sched, mem.nil());
        assert_eq!(global_get(&mem, "Processor"), sched);
    }

    #[test]
    fn method_lookup_finds_kernel_methods() {
        let mem = image();
        let object = global_get(&mem, "Object");
        let dict = mem.fetch(object, cls::METHOD_DICT);
        let print_string = mem.intern("printString");
        assert!(
            mst_interp::dicts::method_dict_at(&mem, dict, print_string).is_some(),
            "Object>>printString must be installed"
        );
        // Class-side method on a metaclass.
        let bench = global_get(&mem, "Benchmark");
        let meta_dict = mem.fetch(mem.class_of(bench), cls::METHOD_DICT);
        let sel = mem.intern("printClassHierarchy");
        assert!(mst_interp::dicts::method_dict_at(&mem, meta_dict, sel).is_some());
    }

    #[test]
    fn compile_doit_produces_a_method() {
        let mem = image();
        let m = compile_doit(&mem, "3 + 4").unwrap();
        assert!(mem.is_old(m));
        assert!(
            compile_doit(&mem, "| x | x := 9. x").is_ok(),
            "doit temps allowed"
        );
        assert!(compile_doit(&mem, "3 +").is_err());
    }

    /// Whether any expression of the method satisfies `pred`.
    fn any_expr(node: &MethodNode, pred: &dyn Fn(&Expr) -> bool) -> bool {
        fn stmt(s: &Stmt, pred: &dyn Fn(&Expr) -> bool) -> bool {
            match s {
                Stmt::Expr(e) | Stmt::Return(e) => expr(e, pred),
            }
        }
        fn expr(e: &Expr, pred: &dyn Fn(&Expr) -> bool) -> bool {
            pred(e)
                || match e {
                    Expr::Block { body, .. } => body.iter().any(|s| stmt(s, pred)),
                    Expr::Assign(_, v) => expr(v, pred),
                    Expr::Send { receiver, args, .. } => {
                        expr(receiver, pred) || args.iter().any(|a| expr(a, pred))
                    }
                    Expr::Cascade { receiver, messages } => {
                        expr(receiver, pred)
                            || messages.iter().flat_map(|m| &m.args).any(|a| expr(a, pred))
                    }
                    Expr::Var(_) | Expr::Pseudo(_) | Expr::Literal(_) => false,
                }
        }
        node.body.iter().any(|s| stmt(s, pred))
    }

    /// Every method the bootstrap installs, instance and class side, goes
    /// through decompile → print → compile under the round-trip rule of the
    /// decompiler's own tests: a method without real blocks (and without
    /// block-declared temps) comes back as identical bytecodes; any other
    /// is stable after one normalisation round.
    #[test]
    fn every_image_method_round_trips_through_the_decompiler() {
        use mst_compiler::bytecode::{decode, Instr};
        use mst_compiler::{
            compile, decompile, parse_chunks, parse_method, print_method, ChunkEvent,
            CompiledMethodSpec, LitEntry,
        };
        use mst_interp::install::all_instance_var_names;

        let mem = ObjectMemory::new(MemoryConfig::default());
        let installed = build_image(&mem).unwrap();
        let (mut checked, mut exact, mut inlined_loops) = (0, 0, 0);
        for (file, text) in SOURCES {
            for event in parse_chunks(text).unwrap() {
                let ChunkEvent::Methods {
                    class_name,
                    meta,
                    sources,
                    ..
                } = event
                else {
                    continue;
                };
                let class = global_get(&mem, &class_name);
                let target = if meta { mem.class_of(class) } else { class };
                let ivars = all_instance_var_names(&mem, target);
                let ctx = CompileContext {
                    instance_vars: &ivars,
                };
                let round = |spec: &CompiledMethodSpec| {
                    let node = decompile(
                        &spec.selector,
                        spec.num_args,
                        spec.num_temps,
                        spec.primitive,
                        &spec.literals,
                        &spec.bytecodes,
                        &ivars,
                    )
                    .unwrap_or_else(|e| panic!("{file} {class_name}: {e}"));
                    let text = print_method(&node);
                    let again = compile(&text, &ctx)
                        .unwrap_or_else(|e| panic!("{file} {class_name}: {e}\n{text}"));
                    (again, text)
                };
                for source in sources {
                    let first = compile(&source, &ctx).unwrap();
                    let mut pc = 0;
                    let mut has_block = false;
                    while pc < first.bytecodes.len() {
                        let (instr, next) = decode(&first.bytecodes, pc);
                        has_block |= matches!(instr, Instr::PushBlock { .. });
                        pc = next;
                    }
                    let node = parse_method(&source).unwrap();
                    let to_do = Literal::Symbol("to:do:".into());
                    if any_expr(
                        &node,
                        &|e| matches!(e, Expr::Send { selector, .. } if selector == "to:do:"),
                    ) && !first.literals.contains(&LitEntry::Value(to_do))
                    {
                        inlined_loops += 1;
                    }
                    // The decompiler lists temps declared in a block among
                    // the method's, so recompiling may move their slots.
                    let block_temps = any_expr(
                        &node,
                        &|e| matches!(e, Expr::Block { temps, .. } if !temps.is_empty()),
                    );
                    let (second, text) = round(&first);
                    let where_ = format!("{file} {class_name} (meta {meta})\n{source}\n--\n{text}");
                    if !has_block && !block_temps {
                        assert_eq!(first.bytecodes, second.bytecodes, "{where_}");
                        assert_eq!(first.literals, second.literals, "{where_}");
                        assert_eq!(first.num_temps, second.num_temps, "{where_}");
                        exact += 1;
                    } else {
                        let (third, text2) = round(&second);
                        let where_ = format!("{where_}\n--\n{text2}");
                        assert_eq!(second.bytecodes, third.bytecodes, "{where_}");
                        assert_eq!(second.literals, third.literals, "{where_}");
                        assert_eq!(second.num_temps, third.num_temps, "{where_}");
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, installed, "every installed method is checked");
        assert!(exact * 2 > checked, "{exact} of {checked} exact");
        assert!(inlined_loops > 30, "only {inlined_loops} inlined loops");
    }

    #[test]
    fn image_fits_and_verifies() {
        let mem = image();
        assert!(mem.verify() > 1000, "image should contain many objects");
        assert!(mem.old_used() > 0);
    }
}
