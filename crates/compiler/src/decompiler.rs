//! Decompilation: bytecodes back to a method AST.
//!
//! Smalltalk-80 environments routinely regenerate source from compiled
//! methods — the *decompile class* macro benchmark (paper, Table 2) measures
//! exactly that. The decompiler runs a symbolic evaluator over the bytecode:
//! a simulation stack of expressions, with the jump patterns produced by our
//! own code generator recognized and folded back into `ifTrue:`, `and:`,
//! `whileTrue:`, `to:do:` and friends. Temporaries are given canonical names
//! (`t1`, `t2`, …) since names are not retained in compiled methods; the
//! hidden limit slot of an inlined `to:do:` gets no name and no number, so
//! such a loop prints exactly as its real-block form does.
//!
//! Round-trip guarantee (tested): for a method without blocks,
//! `compile(print(decompile(m)))` reproduces `m`'s bytecodes exactly; with
//! blocks, the form is stable after one normalization round.

use std::collections::BTreeSet;

use crate::ast::{Expr, Literal, Message, MethodNode, Pseudo, Stmt};
use crate::bytecode::{decode, Instr, SPECIAL_SELECTORS};
use crate::codegen::LitEntry;
use crate::error::CompileError;

/// Decompiles a method's bytecodes into an AST.
///
/// `ivars` supplies instance-variable names (slot order); missing names are
/// rendered as `instVarN`.
///
/// # Errors
///
/// Returns an error if the bytecode does not follow the shapes produced by
/// this crate's code generator.
pub fn decompile(
    selector: &str,
    num_args: u8,
    num_temps: u8,
    primitive: u16,
    literals: &[LitEntry],
    code: &[u8],
    ivars: &[String],
) -> Result<MethodNode, CompileError> {
    let mut d = Decomp {
        code,
        literals,
        ivars,
        block_arg_slots: BTreeSet::new(),
        limit_slots: BTreeSet::new(),
    };
    d.limit_slots = d.find_limit_slots();
    let (stmts, value) = d.region(0, code.len(), RegionKind::Method)?;
    let body: Vec<Stmt> = stmts.into_iter().map(|(s, _)| s).collect();
    debug_assert!(value.is_none(), "method region leaves no value");
    // Drop a trailing explicit `^self` only if it was the implicit one
    // (RETURN_SELF); region() already encodes that by not emitting it.
    let args: Vec<String> = (0..num_args).map(|s| d.temp_name(s)).collect();
    let temps: Vec<String> = (num_args..num_temps)
        .filter(|s| !d.block_arg_slots.contains(s) && !d.limit_slots.contains(s))
        .map(|s| d.temp_name(s))
        .collect();
    Ok(MethodNode {
        selector: selector.to_string(),
        args,
        temps,
        primitive,
        body,
    })
}

/// An inlined `start to: stop [by: step] do: [:var | body]`, in the shape
/// the code generator's `inline_to_do` emits.
struct CountedLoop {
    var: u8,
    limit: u8,
    step: i64,
    /// The body statements: `[body, increment)`.
    body: usize,
    increment: usize,
    /// Where the loop exits, with `start` on the stack as its value.
    exit: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    expr: Expr,
    start: usize,
    cascade: Vec<Message>,
    is_dup: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    /// The whole method: ends at code end or RETURN_SELF; leaves no value.
    Method,
    /// A value region (branch arm, condition): leaves exactly one value.
    Value,
    /// A loop body: statements only, no value.
    Statements,
    /// A block body: ends with BLOCK_RETURN_TOP or RETURN_TOP.
    Block,
}

struct Decomp<'a> {
    code: &'a [u8],
    literals: &'a [LitEntry],
    ivars: &'a [String],
    block_arg_slots: BTreeSet<u8>,
    /// The hidden limit slots of inlined `to:do:` loops.
    limit_slots: BTreeSet<u8>,
}

type Stmts = Vec<(Stmt, usize)>;

impl Decomp<'_> {
    fn err<T>(&self, pc: usize, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::new(pc, format!("decompile: {}", msg.into())))
    }

    /// The canonical name of a temp slot: `t` and its number, counting
    /// every slot below it except the hidden loop limits.
    fn temp_name(&self, slot: u8) -> String {
        let hidden = self.limit_slots.range(..slot).count();
        format!("t{}", slot as usize + 1 - hidden)
    }

    fn instr_at(&self, pc: usize) -> Option<(Instr, usize)> {
        (pc < self.code.len()).then(|| decode(self.code, pc))
    }

    /// The limit slots of every inlined loop in the method, blocks included.
    fn find_limit_slots(&self) -> BTreeSet<u8> {
        let mut slots = BTreeSet::new();
        let mut pc = 0;
        while pc < self.code.len() {
            let (instr, next) = decode(self.code, pc);
            if let Instr::StoreTemp(_, true) = instr {
                slots.extend(self.counted_loop(pc).map(|l| l.limit));
            }
            pc = next;
        }
        slots
    }

    /// Recognises an inlined `to:do:` starting at `at` (its `storePop
    /// limit`). Our code generator emits `storePop` then a non-popping
    /// `store` back to back only there.
    fn counted_loop(&self, at: usize) -> Option<CountedLoop> {
        let (Instr::StoreTemp(limit, true), pc) = self.instr_at(at)? else {
            return None;
        };
        let (Instr::StoreTemp(var, false), head) = self.instr_at(pc)? else {
            return None;
        };
        let (Instr::PushTemp(v), pc) = self.instr_at(head)? else {
            return None;
        };
        let (Instr::PushTemp(l), pc) = self.instr_at(pc)? else {
            return None;
        };
        let (Instr::SpecialSend(cmp @ (4 | 5)), pc) = self.instr_at(pc)? else {
            return None;
        };
        let (Instr::JumpFalse(d), body) = self.instr_at(pc)? else {
            return None;
        };
        let exit = body + usize::try_from(d).ok()?;
        if v != var || l != limit || var == limit || exit > self.code.len() {
            return None;
        }
        // The body ends with `push var, push step, +, storePop var, jump head`.
        let mut tail = [0usize; 5];
        let mut pc = body;
        let mut seen = 0;
        while pc < exit {
            tail.rotate_left(1);
            tail[4] = pc;
            pc = decode(self.code, pc).1;
            seen += 1;
        }
        if pc != exit || seen < tail.len() {
            return None;
        }
        let [increment, step_at, plus, store, jump] = tail;
        let step = match decode(self.code, step_at).0 {
            Instr::PushInt(k) => k,
            Instr::PushLitConst(n) => match self.literals.get(n as usize) {
                Some(LitEntry::Value(Literal::Int(k))) => *k,
                _ => return None,
            },
            _ => return None,
        };
        let shape_holds = decode(self.code, increment).0 == Instr::PushTemp(var)
            && decode(self.code, plus).0 == Instr::SpecialSend(0)
            && decode(self.code, store).0 == Instr::StoreTemp(var, true)
            && matches!(decode(self.code, jump).0,
                Instr::Jump(back) if exit as isize + back as isize == head as isize)
            && step != 0
            && (step > 0) == (cmp == 4);
        shape_holds.then_some(CountedLoop {
            var,
            limit,
            step,
            body,
            increment,
            exit,
        })
    }

    fn ivar_name(&self, slot: u8) -> String {
        self.ivars
            .get(slot as usize)
            .cloned()
            .unwrap_or_else(|| format!("instVar{}", slot + 1))
    }

    fn literal_value(&self, pc: usize, idx: u8) -> Result<Literal, CompileError> {
        match self.literals.get(idx as usize) {
            Some(LitEntry::Value(v)) => Ok(v.clone()),
            other => self.err(pc, format!("literal {idx} is {other:?}, expected a value")),
        }
    }

    fn selector_at(&self, pc: usize, idx: u8) -> Result<String, CompileError> {
        match self.literal_value(pc, idx)? {
            Literal::Symbol(s) => Ok(s),
            other => self.err(
                pc,
                format!("literal {idx} is {other:?}, expected a selector"),
            ),
        }
    }

    /// Runs the symbolic evaluator over `[start, end)`.
    ///
    /// Returns the statements and, for value/block regions, the final value.
    fn region(
        &mut self,
        start: usize,
        end: usize,
        kind: RegionKind,
    ) -> Result<(Stmts, Option<Expr>), CompileError> {
        let mut stmts: Stmts = Vec::new();
        let mut stack: Vec<Entry> = Vec::new();
        let mut pc = start;
        while pc < end {
            let at = pc;
            let (instr, next) = decode(self.code, pc);
            pc = next;
            match instr {
                Instr::PushRcvrVar(n) => stack.push(Entry {
                    expr: Expr::Var(self.ivar_name(n)),
                    start: at,
                    cascade: vec![],
                    is_dup: false,
                }),
                Instr::PushTemp(n) => stack.push(Entry {
                    expr: Expr::Var(self.temp_name(n)),
                    start: at,
                    cascade: vec![],
                    is_dup: false,
                }),
                Instr::PushLitConst(n) => {
                    let lit = self.literal_value(at, n)?;
                    stack.push(Entry {
                        expr: Expr::Literal(lit),
                        start: at,
                        cascade: vec![],
                        is_dup: false,
                    });
                }
                Instr::PushLitVar(n) => {
                    let name = match self.literals.get(n as usize) {
                        Some(LitEntry::GlobalBinding(name)) => name.clone(),
                        other => {
                            return self
                                .err(at, format!("literal {n} is {other:?}, expected a binding"))
                        }
                    };
                    stack.push(Entry {
                        expr: Expr::Var(name),
                        start: at,
                        cascade: vec![],
                        is_dup: false,
                    });
                }
                Instr::PushSelf => stack.push(self.simple(Expr::Pseudo(Pseudo::SelfVar), at)),
                Instr::PushTrue => stack.push(self.simple(Expr::Pseudo(Pseudo::True), at)),
                Instr::PushFalse => stack.push(self.simple(Expr::Pseudo(Pseudo::False), at)),
                Instr::PushNil => stack.push(self.simple(Expr::Pseudo(Pseudo::Nil), at)),
                Instr::PushThisContext => {
                    stack.push(self.simple(Expr::Pseudo(Pseudo::ThisContext), at))
                }
                Instr::PushInt(v) => stack.push(self.simple(Expr::Literal(Literal::Int(v)), at)),
                Instr::Dup => {
                    let below_start = match stack.last() {
                        Some(e) => e.start,
                        None => return self.err(at, "dup on empty stack"),
                    };
                    stack.push(Entry {
                        expr: Expr::Pseudo(Pseudo::Nil), // placeholder
                        start: below_start,
                        cascade: vec![],
                        is_dup: true,
                    });
                }
                Instr::Pop => {
                    let e = match stack.pop() {
                        Some(e) => e,
                        None => return self.err(at, "pop on empty stack"),
                    };
                    stmts.push((Stmt::Expr(self.finish_entry(e)), at));
                }
                Instr::StoreRcvrVar(n, pop) => {
                    let name = self.ivar_name(n);
                    self.apply_store(&mut stack, &mut stmts, name, pop, at)?;
                }
                Instr::StoreTemp(n, pop) => {
                    if let Some(l) = pop.then(|| self.counted_loop(at)).flatten() {
                        pc = self.apply_counted_loop(&mut stack, l, at)?;
                        continue;
                    }
                    let name = self.temp_name(n);
                    self.apply_store(&mut stack, &mut stmts, name, pop, at)?;
                }
                Instr::Send {
                    lit,
                    nargs,
                    is_super,
                } => {
                    let selector = self.selector_at(at, lit)?;
                    pc = self.apply_send(&mut stack, selector, nargs, is_super, at, pc)?;
                }
                Instr::SpecialSend(i) => {
                    let (sel, nargs) = SPECIAL_SELECTORS[i as usize];
                    pc = self.apply_send(&mut stack, sel.to_string(), nargs, false, at, pc)?;
                }
                Instr::PushBlock { nargs, len } => {
                    let body_start = pc;
                    let body_end = pc + len as usize;
                    let block = self.decode_block(nargs, body_start, body_end)?;
                    stack.push(Entry {
                        expr: block,
                        start: at,
                        cascade: vec![],
                        is_dup: false,
                    });
                    pc = body_end;
                }
                Instr::ReturnSelf => {
                    if kind == RegionKind::Method && pc == end && stack.is_empty() {
                        // The implicit trailing return: not a statement.
                        return Ok((stmts, None));
                    }
                    stmts.push((Stmt::Return(Expr::Pseudo(Pseudo::SelfVar)), at));
                }
                Instr::ReturnTrue | Instr::ReturnFalse | Instr::ReturnNil => {
                    let v = match instr {
                        Instr::ReturnTrue => Pseudo::True,
                        Instr::ReturnFalse => Pseudo::False,
                        _ => Pseudo::Nil,
                    };
                    stmts.push((Stmt::Return(Expr::Pseudo(v)), at));
                }
                Instr::ReturnTop => {
                    let e = match stack.pop() {
                        Some(e) => self.finish_entry(e),
                        None => return self.err(at, "return with empty stack"),
                    };
                    stmts.push((Stmt::Return(e), at));
                    if kind == RegionKind::Method && pc == end {
                        return Ok((stmts, None));
                    }
                }
                Instr::BlockReturnTop => {
                    if kind != RegionKind::Block {
                        return self.err(at, "block return outside a block");
                    }
                    let e = match stack.pop() {
                        Some(e) => self.finish_entry(e),
                        None => return self.err(at, "block return with empty stack"),
                    };
                    if pc != end {
                        return self.err(at, "block return before block end");
                    }
                    return Ok((stmts, Some(e)));
                }
                Instr::JumpFalse(d) | Instr::JumpTrue(d) => {
                    let on_true = matches!(instr, Instr::JumpTrue(_));
                    let target = (pc as isize + d as isize) as usize;
                    pc = self.structured_jump(&mut stack, &mut stmts, on_true, pc, target, at)?;
                }
                Instr::Jump(_) => {
                    return self.err(at, "unstructured jump (not produced by our compiler)")
                }
            }
        }
        match kind {
            RegionKind::Method | RegionKind::Statements => {
                if !stack.is_empty() {
                    return self.err(end, "region ended with values on the stack");
                }
                Ok((stmts, None))
            }
            RegionKind::Value => {
                if stack.len() != 1 {
                    return self.err(end, "value region must end with exactly one value");
                }
                let e = stack.pop().map(|e| self.finish_entry(e));
                Ok((stmts, e))
            }
            RegionKind::Block => self.err(end, "block fell off the end without returning"),
        }
    }

    fn simple(&self, expr: Expr, start: usize) -> Entry {
        Entry {
            expr,
            start,
            cascade: vec![],
            is_dup: false,
        }
    }

    fn finish_entry(&self, e: Entry) -> Expr {
        debug_assert!(e.cascade.is_empty(), "unfinished cascade");
        e.expr
    }

    fn apply_store(
        &mut self,
        stack: &mut Vec<Entry>,
        stmts: &mut Stmts,
        name: String,
        pop: bool,
        at: usize,
    ) -> Result<(), CompileError> {
        let e = match stack.pop() {
            Some(e) => e,
            None => return self.err(at, "store with empty stack"),
        };
        let start = e.start;
        let assign = Expr::Assign(name, Box::new(self.finish_entry(e)));
        if pop {
            stmts.push((Stmt::Expr(assign), start));
        } else {
            stack.push(Entry {
                expr: assign,
                start,
                cascade: vec![],
                is_dup: false,
            });
        }
        Ok(())
    }

    /// Applies a send; returns the (possibly advanced) pc — cascade sends
    /// swallow their trailing POP.
    fn apply_send(
        &mut self,
        stack: &mut Vec<Entry>,
        selector: String,
        nargs: u8,
        is_super: bool,
        at: usize,
        pc: usize,
    ) -> Result<usize, CompileError> {
        let mut args = Vec::with_capacity(nargs as usize);
        for _ in 0..nargs {
            match stack.pop() {
                Some(e) => args.push(self.finish_entry(e)),
                None => return self.err(at, "send with too few arguments on stack"),
            }
        }
        args.reverse();
        let recv = match stack.pop() {
            Some(e) => e,
            None => return self.err(at, "send with no receiver on stack"),
        };
        if recv.is_dup {
            // Cascade message to the entry below; swallow the following POP.
            let below = match stack.last_mut() {
                Some(b) => b,
                None => return self.err(at, "cascade dup without receiver"),
            };
            below.cascade.push(Message { selector, args });
            if self.code.get(pc) != Some(&crate::bytecode::POP) {
                return self.err(pc, "cascade send must be followed by pop");
            }
            return Ok(pc + 1);
        }
        if !recv.cascade.is_empty() {
            // Final message of the cascade.
            let mut messages = std::mem::take(&mut { recv.cascade.clone() });
            messages.push(Message { selector, args });
            stack.push(Entry {
                expr: Expr::Cascade {
                    receiver: Box::new(recv.expr),
                    messages,
                },
                start: recv.start,
                cascade: vec![],
                is_dup: false,
            });
            return Ok(pc);
        }
        let receiver = if is_super {
            Expr::Pseudo(Pseudo::SelfVar)
        } else {
            recv.expr
        };
        stack.push(Entry {
            expr: Expr::Send {
                receiver: Box::new(receiver),
                selector,
                args,
                is_super,
            },
            start: recv.start,
            cascade: vec![],
            is_dup: false,
        });
        Ok(pc)
    }

    /// Folds an inlined loop back into `start to: stop [by: step] do:
    /// [:var | body]`, consuming `start` and `stop` from the stack; returns
    /// the loop's exit pc.
    fn apply_counted_loop(
        &mut self,
        stack: &mut Vec<Entry>,
        l: CountedLoop,
        at: usize,
    ) -> Result<usize, CompileError> {
        let (Some(stop), Some(start)) = (stack.pop(), stack.pop()) else {
            return self.err(at, "counted loop without start and stop on the stack");
        };
        self.block_arg_slots.insert(l.var);
        let (body, _) = self.region(l.body, l.increment, RegionKind::Statements)?;
        let block = Expr::Block {
            args: vec![self.temp_name(l.var)],
            temps: vec![],
            body: body.into_iter().map(|(s, _)| s).collect(),
        };
        let (selector, args) = if l.step == 1 {
            ("to:do:", vec![self.finish_entry(stop), block])
        } else {
            let step = Expr::Literal(Literal::Int(l.step));
            ("to:by:do:", vec![self.finish_entry(stop), step, block])
        };
        let start_pc = start.start;
        stack.push(Entry {
            expr: Expr::Send {
                receiver: Box::new(self.finish_entry(start)),
                selector: selector.to_string(),
                args,
                is_super: false,
            },
            start: start_pc,
            cascade: vec![],
            is_dup: false,
        });
        Ok(l.exit)
    }

    /// Scans `[from, to)` and returns the pc of its final instruction.
    fn last_instr_pc(&self, from: usize, to: usize) -> Result<usize, CompileError> {
        let mut pc = from;
        let mut last = from;
        while pc < to {
            last = pc;
            let (_, next) = decode(self.code, pc);
            pc = next;
        }
        if pc != to {
            return self.err(from, "region does not end on an instruction boundary");
        }
        Ok(last)
    }

    /// Folds a conditional-jump pattern back into its source construct.
    /// Returns the pc at which normal decoding resumes.
    #[allow(clippy::too_many_arguments)]
    fn structured_jump(
        &mut self,
        stack: &mut Vec<Entry>,
        stmts: &mut Stmts,
        on_true: bool,
        pc: usize,
        target: usize,
        at: usize,
    ) -> Result<usize, CompileError> {
        let cond = match stack.pop() {
            Some(e) => e,
            None => return self.err(at, "conditional jump with empty stack"),
        };
        let cond_start = cond.start;
        let cond_expr = self.finish_entry(cond);
        // Find the unconditional jump that terminates branch A.
        let a_last = self.last_instr_pc(pc, target)?;
        let (a_term, a_term_next) = decode(self.code, a_last);
        let Instr::Jump(d2) = a_term else {
            return self.err(a_last, format!("expected a join jump, found {a_term:?}"));
        };
        let join = (a_term_next as isize + d2 as isize) as usize;
        if d2 < 0 {
            // Loop: `[cond] whileTrue[: [body]]` — the back jump returns to
            // the start of the condition code.
            let loop_start = join;
            // Reclaim any leading condition statements emitted earlier.
            let mut cond_stmts: Vec<Stmt> = Vec::new();
            while let Some((_, s_start)) = stmts.last() {
                if *s_start >= loop_start {
                    cond_stmts.insert(0, stmts.pop().unwrap().0);
                } else {
                    break;
                }
            }
            cond_stmts.push(Stmt::Expr(cond_expr));
            let (body_stmts, _) = self.region(pc, a_last, RegionKind::Statements)?;
            // The loop's value: codegen emits PUSH_NIL at the exit.
            let (nil_instr, after_nil) = decode(self.code, target);
            if nil_instr != Instr::PushNil {
                return self.err(target, "expected pushNil after a loop");
            }
            let selector = match (on_true, body_stmts.is_empty()) {
                (false, false) => "whileTrue:",
                (true, false) => "whileFalse:",
                (false, true) => "whileTrue",
                (true, true) => "whileFalse",
            };
            let mut args = Vec::new();
            if !body_stmts.is_empty() {
                args.push(Expr::Block {
                    args: vec![],
                    temps: vec![],
                    body: body_stmts.into_iter().map(|(s, _)| s).collect(),
                });
            }
            stack.push(Entry {
                expr: Expr::Send {
                    receiver: Box::new(Expr::Block {
                        args: vec![],
                        temps: vec![],
                        body: cond_stmts,
                    }),
                    selector: selector.to_string(),
                    args,
                    is_super: false,
                },
                start: loop_start,
                cascade: vec![],
                is_dup: false,
            });
            return Ok(after_nil);
        }
        // Conditional: decode branch A (value region) and branch B.
        let branch_a = self.value_block(pc, a_last)?;
        let b_region = &self.code[target..join];
        let (selector, args) = match (on_true, b_region) {
            (false, [crate::bytecode::PUSH_NIL]) => ("ifTrue:".to_string(), vec![branch_a]),
            (true, [crate::bytecode::PUSH_NIL]) => ("ifFalse:".to_string(), vec![branch_a]),
            (false, [crate::bytecode::PUSH_FALSE]) => ("and:".to_string(), vec![branch_a]),
            (true, [crate::bytecode::PUSH_TRUE]) => ("or:".to_string(), vec![branch_a]),
            (false, _) => {
                let branch_b = self.value_block(target, join)?;
                ("ifTrue:ifFalse:".to_string(), vec![branch_a, branch_b])
            }
            (true, _) => {
                let branch_b = self.value_block(target, join)?;
                ("ifFalse:ifTrue:".to_string(), vec![branch_a, branch_b])
            }
        };
        stack.push(Entry {
            expr: Expr::Send {
                receiver: Box::new(cond_expr),
                selector,
                args,
                is_super: false,
            },
            start: cond_start,
            cascade: vec![],
            is_dup: false,
        });
        Ok(join)
    }

    /// Decodes a region as a block-shaped value (for inlined branch arms).
    fn value_block(&mut self, from: usize, to: usize) -> Result<Expr, CompileError> {
        let (stmts, value) = self.region(from, to, RegionKind::Value)?;
        let mut body: Vec<Stmt> = stmts.into_iter().map(|(s, _)| s).collect();
        if let Some(v) = value {
            // Dead-path filler after a ^-return inside an inlined block.
            let is_filler = matches!(v, Expr::Pseudo(Pseudo::Nil))
                && matches!(body.last(), Some(Stmt::Return(_)));
            if !is_filler {
                body.push(Stmt::Expr(v));
            }
        }
        Ok(Expr::Block {
            args: vec![],
            temps: vec![],
            body,
        })
    }

    /// Decodes a real (non-inlined) block body.
    fn decode_block(&mut self, nargs: u8, start: usize, end: usize) -> Result<Expr, CompileError> {
        // Prologue: nargs store-pops, last argument first.
        let mut pc = start;
        let mut slots = Vec::new();
        for _ in 0..nargs {
            let (instr, next) = decode(self.code, pc);
            let Instr::StoreTemp(slot, true) = instr else {
                return self.err(pc, format!("expected block-arg store, found {instr:?}"));
            };
            slots.push(slot);
            pc = next;
        }
        slots.reverse();
        for &s in &slots {
            self.block_arg_slots.insert(s);
        }
        let args: Vec<String> = slots.iter().map(|&s| self.temp_name(s)).collect();
        // Body: either ends in BLOCK_RETURN_TOP (value) or RETURN_TOP.
        let last = self.last_instr_pc(pc, end)?;
        let (last_instr, _) = decode(self.code, last);
        let mut body: Vec<Stmt>;
        match last_instr {
            Instr::BlockReturnTop => {
                let (stmts, value) = self.region(pc, end, RegionKind::Block)?;
                body = stmts.into_iter().map(|(s, _)| s).collect();
                if let Some(v) = value {
                    let empty_block = body.is_empty() && matches!(v, Expr::Pseudo(Pseudo::Nil));
                    if !empty_block {
                        body.push(Stmt::Expr(v));
                    }
                }
            }
            Instr::ReturnTop => {
                let (stmts, _) = self.region(pc, end, RegionKind::Statements)?;
                body = stmts.into_iter().map(|(s, _)| s).collect();
                if !matches!(body.last(), Some(Stmt::Return(_))) {
                    return self.err(last, "block ends with ^ but no return statement decoded");
                }
            }
            other => return self.err(last, format!("unexpected block terminator {other:?}")),
        }
        Ok(Expr::Block {
            args,
            temps: vec![],
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{compile, CompileContext, CompiledMethodSpec};
    use crate::printer::print_method;

    fn compile_src(src: &str) -> CompiledMethodSpec {
        compile(src, &CompileContext::default()).unwrap()
    }

    fn compile_ivars(src: &str, ivars: &[String]) -> CompiledMethodSpec {
        compile(
            src,
            &CompileContext {
                instance_vars: ivars,
            },
        )
        .unwrap()
    }

    fn decompile_spec(spec: &CompiledMethodSpec, ivars: &[String]) -> MethodNode {
        decompile(
            &spec.selector,
            spec.num_args,
            spec.num_temps,
            spec.primitive,
            &spec.literals,
            &spec.bytecodes,
            ivars,
        )
        .unwrap()
    }

    /// compile → decompile → print → compile must reproduce the bytecodes
    /// (exactly for blockless methods; after one normalization round with
    /// blocks).
    fn assert_round_trip(src: &str, ivars: &[&str]) {
        let ivars: Vec<String> = ivars.iter().map(|s| s.to_string()).collect();
        let first = compile_ivars(src, &ivars);
        let node1 = decompile_spec(&first, &ivars);
        let src1 = print_method(&node1);
        let second = compile_ivars(&src1, &ivars);
        let node2 = decompile_spec(&second, &ivars);
        let src2 = print_method(&node2);
        let third = compile_ivars(&src2, &ivars);
        assert_eq!(
            second.bytecodes, third.bytecodes,
            "decompiled form must be stable\nsource: {src}\nround1:\n{src1}\nround2:\n{src2}"
        );
        assert_eq!(second.literals, third.literals, "source: {src}");
        assert_eq!(second.num_temps, third.num_temps, "source: {src}");
    }

    /// Blockless methods round-trip to the exact same bytecodes immediately.
    fn assert_exact_round_trip(src: &str) {
        let first = compile_src(src);
        let node = decompile_spec(&first, &[]);
        let printed = print_method(&node);
        let second = compile_src(&printed);
        assert_eq!(
            first.bytecodes, second.bytecodes,
            "source: {src}\ndecompiled:\n{printed}"
        );
        assert_eq!(first.literals, second.literals, "source: {src}");
    }

    #[test]
    fn simple_returns() {
        assert_exact_round_trip("m ^self");
        assert_exact_round_trip("m ^nil");
        assert_exact_round_trip("m ^42");
        assert_exact_round_trip("m ^'hello'");
        assert_exact_round_trip("m");
    }

    #[test]
    fn arithmetic_and_sends() {
        assert_exact_round_trip("m ^1 + 2 * 3");
        assert_exact_round_trip("m ^self foo: 1 bar: 2");
        assert_exact_round_trip("m ^self size max: Other size");
        assert_exact_round_trip("+ other ^other");
    }

    #[test]
    fn temps_and_statements() {
        assert_exact_round_trip("m | a b | a := 1. b := a + 2. ^b");
        assert_exact_round_trip("m self foo. self bar. ^self baz");
    }

    #[test]
    fn instance_variables_keep_names() {
        let ivars = vec!["x".to_string(), "y".to_string()];
        let spec = compile_ivars("setX: v x := v. ^x", &ivars);
        let node = decompile_spec(&spec, &ivars);
        let printed = print_method(&node);
        assert!(printed.contains("x := t1"), "got:\n{printed}");
    }

    #[test]
    fn conditionals() {
        assert_exact_round_trip("m ^a ifTrue: [1]");
        assert_exact_round_trip("m ^a ifFalse: [1]");
        assert_exact_round_trip("m ^a ifTrue: [1] ifFalse: [2]");
        assert_exact_round_trip("m a ifTrue: [self foo. self bar]. ^nil");
        assert_exact_round_trip("m ^a and: [b]");
        assert_exact_round_trip("m ^a or: [b and: [c]]");
    }

    #[test]
    fn loops() {
        assert_round_trip("m | i | i := 0. [i < 10] whileTrue: [i := i + 1]. ^i", &[]);
        assert_round_trip("m [a] whileFalse: [self tick]", &[]);
        assert_round_trip("m [self done] whileFalse", &[]);
        assert_round_trip(
            "m | i s | i := 0. s := 0. [i < 9] whileTrue: [s := s + i. i := i + 1]. ^s",
            &[],
        );
    }

    #[test]
    fn counted_loops() {
        assert_exact_round_trip("m | s | s := 0. 1 to: 10 do: [:i | s := s + i]. ^s");
        assert_exact_round_trip("m: n n to: 1 by: -1 do: [:i | self foo: i]");
        assert_exact_round_trip("m: n ^1 to: n by: 300 do: [:i | self foo: i]");
        assert_exact_round_trip("m ^(1 to: 3 do: [:i | ]) + 1");
        assert_exact_round_trip("m 1 to: 3 do: [:i | 1 to: i do: [:j | self foo: i bar: j]]");
        assert_exact_round_trip("m 1 to: 3 do: [:i | i > 1 ifTrue: [^i]]. ^0");
        assert_exact_round_trip("m [self done] whileFalse: [1 to: self size do: [:i | self tick]]");
        // A loop that stays a send decompiles as one.
        assert_round_trip("m | b | 1 to: 3 do: [:i | b := [:x | x + i]]. ^b", &[]);
        assert_round_trip("m ^[1 to: 3 do: [:i | self foo: i]]", &[]);
    }

    #[test]
    fn counted_loop_prints_as_its_source() {
        let print = |src| print_method(&decompile_spec(&compile_src(src), &[]));
        assert_eq!(
            print("m: n 1 to: n by: 1 do: [:i | self foo: i]"),
            print("m: n 1 to: n do: [:i | self foo: i]")
        );
        let text = print("m: n n to: 1 by: -2 do: [:i | self foo: i]");
        assert!(
            text.contains("t1 to: 1 by: -2 do: [:t2 | self foo: t2]"),
            "{text}"
        );
    }

    #[test]
    fn limit_slots_take_no_name_or_number() {
        // Slots: a, i, the hidden limit, x. The limit is skipped, so x is
        // t3, as it is when the loop is a real block.
        let spec = compile_src("m | a | 1 to: 3 do: [:i | a := i]. ^[:x | x + a]");
        assert_eq!(spec.num_temps, 4);
        let node = decompile_spec(&spec, &[]);
        assert_eq!(node.temps, vec!["t1"]);
        let text = print_method(&node);
        assert!(text.contains("1 to: 3 do: [:t2 | t1 := t2]"), "{text}");
        assert!(text.contains("[:t3 | t3 + t1]"), "{text}");
    }

    #[test]
    fn multi_statement_loop_condition() {
        assert_round_trip("m [self poke. a < b] whileTrue: [self advance]", &[]);
    }

    #[test]
    fn cascades() {
        assert_exact_round_trip("m s a; b; c. ^s");
        assert_exact_round_trip("m ^s nextPutAll: 'x'; tab; nextPut: $y; contents");
        assert_exact_round_trip("m s at: 1 put: 2; at: 3 put: 4");
    }

    #[test]
    fn real_blocks() {
        assert_round_trip("m ^[:a :b | a + b]", &[]);
        assert_round_trip("m ^[]", &[]);
        assert_round_trip("m ^[3]", &[]);
        assert_round_trip("m items do: [:e | sum := sum + e]", &["sum"]);
        assert_round_trip("m items do: [:e | e > 0 ifTrue: [^e]]", &[]);
    }

    #[test]
    fn super_sends() {
        assert_round_trip("initialize super initialize. ^self setUp", &[]);
    }

    #[test]
    fn nonlocal_return_in_block() {
        assert_round_trip(
            "detect: aBlock self do: [:e | (aBlock value: e) ifTrue: [^e]]. ^nil",
            &[],
        );
    }

    #[test]
    fn primitive_is_preserved() {
        let spec = compile_src("basicAt: i <primitive: 60> ^self error");
        let node = decompile_spec(&spec, &[]);
        assert_eq!(node.primitive, 60);
        assert!(print_method(&node).contains("<primitive: 60>"));
    }

    #[test]
    fn decompile_rejects_garbage() {
        // A bare unconditional jump is never generated at top level.
        let r = decompile("m", 0, 0, 0, &[], &[0x90, 0x70], &[]);
        assert!(r.is_err());
    }

    #[test]
    fn temp_names_are_canonical() {
        let spec = compile_src("at: idx | v | v := idx. ^v");
        let node = decompile_spec(&spec, &[]);
        assert_eq!(node.args, vec!["t1"]);
        assert_eq!(node.temps, vec!["t2"]);
    }
}
