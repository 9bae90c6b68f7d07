//! Bytecode generation.
//!
//! Compiles a parsed [`MethodNode`] into a [`CompiledMethodSpec`]: the
//! neutral form the image layer converts into a CompiledMethod object.
//! Control-flow selectors (`ifTrue:`, `and:`, `whileTrue:`, …) applied to
//! literal blocks are inlined into jumps, as in every Smalltalk-80 compiler,
//! and so are `to:do:` and `to:by:do:` loops whose inlining is exact (see
//! `Gen::inline_to_do`); other blocks become [`PUSH_BLOCK`]-created
//! BlockContexts that share the home method's temporary frame (Smalltalk-80
//! blocks are not closures).

use crate::ast::{Expr, Literal, Message, MethodNode, Pseudo, Stmt};
use crate::bytecode::*;
use crate::error::CompileError;
use crate::parser::parse_method;

/// Stack slots available in a small context.
pub const SMALL_FRAME: usize = 16;
/// Stack slots available in a large context.
pub const LARGE_FRAME: usize = 40;

/// One entry of a method's literal frame, in image-neutral form.
#[derive(Debug, Clone, PartialEq)]
pub enum LitEntry {
    /// A literal value (selector Symbols included).
    Value(Literal),
    /// The Association binding a global name (created on install if absent).
    GlobalBinding(String),
    /// Placeholder the installer replaces with the defining class (used by
    /// super sends; always the last literal when present).
    MethodClass,
}

/// A compiled method, ready for installation into an image.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMethodSpec {
    /// Full selector.
    pub selector: String,
    /// Argument count.
    pub num_args: u8,
    /// Total temporary slots (arguments + temps + block args/temps).
    pub num_temps: u8,
    /// Primitive index or 0.
    pub primitive: u16,
    /// Whether activations need a large context.
    pub large_context: bool,
    /// The literal frame.
    pub literals: Vec<LitEntry>,
    /// The bytecodes.
    pub bytecodes: Vec<u8>,
}

/// Name-resolution context: the defining class's instance variables.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileContext<'a> {
    /// All instance variable names (inherited first), in slot order.
    pub instance_vars: &'a [String],
}

/// Parses and compiles a method source string.
pub fn compile(src: &str, ctx: &CompileContext<'_>) -> Result<CompiledMethodSpec, CompileError> {
    let node = parse_method(src)?;
    compile_method(&node, ctx)
}

/// Compiles an already-parsed method.
pub fn compile_method(
    node: &MethodNode,
    ctx: &CompileContext<'_>,
) -> Result<CompiledMethodSpec, CompileError> {
    let mut g = Gen::new(ctx);
    for a in &node.args {
        g.define_temp(a)?;
    }
    for t in &node.temps {
        g.define_temp(t)?;
    }
    g.gen_body(&node.body)?;
    g.finish(node)
}

struct Gen<'a> {
    ctx: &'a CompileContext<'a>,
    code: Vec<u8>,
    literals: Vec<LitEntry>,
    /// Temp slots allocated so far (args first).
    num_temps: usize,
    /// Currently visible temps: (name, slot).
    visible: Vec<(String, u8)>,
    depth: usize,
    max_depth: usize,
    uses_super: bool,
    /// Real blocks enclosing the code being generated.
    block_depth: usize,
    /// The loop variables of the counted loops being inlined, innermost last.
    loop_vars: Vec<LoopVar>,
}

/// The loop variable of a `to:do:` being inlined, and whether the body has
/// used it in a way that only the real block keeps exact.
struct LoopVar {
    slot: u8,
    broken: bool,
}

/// Everything [`Gen::rewind`] restores to abandon an inlining attempt.
struct Mark {
    code: usize,
    literals: usize,
    temps: usize,
    visible: usize,
    depth: usize,
    max_depth: usize,
    uses_super: bool,
    block_depth: usize,
    loop_vars: usize,
}

impl<'a> Gen<'a> {
    fn new(ctx: &'a CompileContext<'a>) -> Self {
        Gen {
            ctx,
            code: Vec::new(),
            literals: Vec::new(),
            num_temps: 0,
            visible: Vec::new(),
            depth: 0,
            max_depth: 0,
            uses_super: false,
            block_depth: 0,
            loop_vars: Vec::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            code: self.code.len(),
            literals: self.literals.len(),
            temps: self.num_temps,
            visible: self.visible.len(),
            depth: self.depth,
            max_depth: self.max_depth,
            uses_super: self.uses_super,
            block_depth: self.block_depth,
            loop_vars: self.loop_vars.len(),
        }
    }

    fn rewind(&mut self, m: Mark) {
        self.code.truncate(m.code);
        self.literals.truncate(m.literals);
        self.num_temps = m.temps;
        self.visible.truncate(m.visible);
        self.depth = m.depth;
        self.max_depth = m.max_depth;
        self.uses_super = m.uses_super;
        self.block_depth = m.block_depth;
        self.loop_vars.truncate(m.loop_vars);
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::new(self.code.len(), msg))
    }

    fn define_temp(&mut self, name: &str) -> Result<u8, CompileError> {
        let slot = self.define_hidden_temp()?;
        self.visible.push((name.to_string(), slot));
        Ok(slot)
    }

    /// Allocates a temp slot that no source name refers to.
    fn define_hidden_temp(&mut self) -> Result<u8, CompileError> {
        if self.num_temps >= 63 {
            return self.err("too many temporaries (max 63)");
        }
        self.num_temps += 1;
        Ok((self.num_temps - 1) as u8)
    }

    /// Records a source reference to a temp for the inlined loops' guards:
    /// a loop variable must not be assigned, nor read from a real block.
    fn note_temp_use(&mut self, slot: u8, store: bool) {
        let in_block = self.block_depth > 0;
        for lv in self.loop_vars.iter_mut().filter(|lv| lv.slot == slot) {
            lv.broken |= store || in_block;
        }
    }

    fn lookup_temp(&self, name: &str) -> Option<u8> {
        self.visible
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    fn lookup_ivar(&self, name: &str) -> Option<u8> {
        self.ctx
            .instance_vars
            .iter()
            .position(|n| n == name)
            .map(|i| i as u8)
    }

    fn add_literal(&mut self, entry: LitEntry) -> Result<u8, CompileError> {
        if let Some(i) = self.literals.iter().position(|e| *e == entry) {
            return Ok(i as u8);
        }
        if self.literals.len() >= 255 {
            return self.err("too many literals (max 255)");
        }
        self.literals.push(entry);
        Ok((self.literals.len() - 1) as u8)
    }

    // --- emission helpers -------------------------------------------------

    fn emit(&mut self, b: u8) {
        self.code.push(b);
    }

    fn note_push(&mut self) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn note_pop(&mut self, n: usize) {
        debug_assert!(self.depth >= n, "stack underflow in codegen");
        self.depth -= n;
    }

    fn emit_push_temp(&mut self, slot: u8) {
        if slot < 16 {
            self.emit(PUSH_TEMP + slot);
        } else {
            self.emit(EXT_PUSH);
            self.emit(0b0100_0000 | slot);
        }
        self.note_push();
    }

    fn emit_push_ivar(&mut self, slot: u8) -> Result<(), CompileError> {
        if slot < 16 {
            self.emit(PUSH_RCVR_VAR + slot);
        } else if slot < 64 {
            self.emit(EXT_PUSH);
            self.emit(slot);
        } else {
            return self.err("too many instance variables (max 64)");
        }
        self.note_push();
        Ok(())
    }

    fn emit_push_lit_const(&mut self, idx: u8) -> Result<(), CompileError> {
        if idx < 32 {
            self.emit(PUSH_LIT_CONST + idx);
        } else if idx < 64 {
            self.emit(EXT_PUSH);
            self.emit(0b1000_0000 | idx);
        } else {
            return self.err("literal constant index too large to push (max 64)");
        }
        self.note_push();
        Ok(())
    }

    fn emit_push_lit_var(&mut self, idx: u8) -> Result<(), CompileError> {
        if idx < 16 {
            self.emit(PUSH_LIT_VAR + idx);
        } else if idx < 64 {
            self.emit(EXT_PUSH);
            self.emit(0b1100_0000 | idx);
        } else {
            return self.err("too many global references in one method (max 64)");
        }
        self.note_push();
        Ok(())
    }

    /// Emits a store (optionally popping) to a temp slot.
    fn emit_store_temp(&mut self, slot: u8, pop: bool) {
        if pop && slot < 8 {
            self.emit(STORE_POP_TEMP + slot);
        } else {
            self.emit(if pop { EXT_STORE_POP } else { EXT_STORE });
            self.emit(0b0100_0000 | slot);
        }
        if pop {
            self.note_pop(1);
        }
    }

    /// Emits a store (optionally popping) to a resolved variable.
    fn emit_store(&mut self, name: &str, pop: bool) -> Result<(), CompileError> {
        if let Some(slot) = self.lookup_temp(name) {
            self.note_temp_use(slot, true);
            self.emit_store_temp(slot, pop);
            return Ok(());
        } else if let Some(slot) = self.lookup_ivar(name) {
            if pop && slot < 8 {
                self.emit(STORE_POP_RCVR_VAR + slot);
            } else {
                self.emit(if pop { EXT_STORE_POP } else { EXT_STORE });
                self.emit(slot);
            }
        } else {
            // Assignment into a global: storeLitVar via the long form is not
            // in the instruction set (matching ST-80, where globals are
            // assigned via the Association). Compile as
            // `<binding> value: <top>`? Simplest faithful route: reject.
            return self.err(format!(
                "cannot assign to `{name}`: not a temporary or instance variable"
            ));
        }
        if pop {
            self.note_pop(1);
        }
        Ok(())
    }

    /// Reserves a 2-byte forward jump, returning a patch handle.
    fn emit_jump_placeholder(&mut self, kind: u8) -> usize {
        // kind: LONG_JUMP, LONG_JUMP_TRUE, or LONG_JUMP_FALSE base opcode.
        self.emit(kind);
        self.emit(0);
        self.code.len() - 2
    }

    /// Patches a forward jump to land at the current position.
    fn patch_jump(&mut self, at: usize) -> Result<(), CompileError> {
        let delta = self.code.len() as isize - (at + 2) as isize;
        if !(0..=1023).contains(&delta) {
            return self.err("jump too far (max 1023 bytes)");
        }
        let base = self.code[at];
        let op = if base == LONG_JUMP {
            LONG_JUMP + 4 + (delta >> 8) as u8
        } else {
            base + (delta >> 8) as u8
        };
        self.code[at] = op;
        self.code[at + 1] = (delta & 0xFF) as u8;
        Ok(())
    }

    /// Emits an unconditional backward jump to `target`.
    fn emit_jump_back(&mut self, target: usize) -> Result<(), CompileError> {
        let delta = target as isize - (self.code.len() + 2) as isize;
        if !(-1024..0).contains(&delta) {
            return self.err("backward jump too far (max 1024 bytes)");
        }
        self.emit((LONG_JUMP as isize + 4 + (delta >> 8)) as u8);
        self.emit((delta & 0xFF) as u8);
        Ok(())
    }

    // --- expressions -------------------------------------------------------

    fn gen_expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Var(name) => {
                if name == "super" {
                    return self.err("`super` may only be a message receiver");
                }
                if let Some(slot) = self.lookup_temp(name) {
                    self.note_temp_use(slot, false);
                    self.emit_push_temp(slot);
                } else if let Some(slot) = self.lookup_ivar(name) {
                    self.emit_push_ivar(slot)?;
                } else {
                    let idx = self.add_literal(LitEntry::GlobalBinding(name.clone()))?;
                    self.emit_push_lit_var(idx)?;
                }
                Ok(())
            }
            Expr::Pseudo(p) => {
                self.emit(match p {
                    Pseudo::SelfVar => PUSH_SELF,
                    Pseudo::True => PUSH_TRUE,
                    Pseudo::False => PUSH_FALSE,
                    Pseudo::Nil => PUSH_NIL,
                    Pseudo::ThisContext => PUSH_THIS_CONTEXT,
                });
                self.note_push();
                Ok(())
            }
            Expr::Literal(lit) => self.gen_literal(lit),
            Expr::Assign(name, value) => {
                self.gen_expr(value)?;
                self.emit_store(name, false)
            }
            Expr::Send {
                receiver,
                selector,
                args,
                is_super,
            } => self.gen_send(receiver, selector, args, *is_super),
            Expr::Cascade { receiver, messages } => {
                self.gen_expr(receiver)?;
                let (last, rest) = messages.split_last().expect("cascade has messages");
                for msg in rest {
                    self.emit(DUP);
                    self.note_push();
                    self.gen_message(msg, false)?;
                    self.emit(POP);
                    self.note_pop(1);
                }
                self.gen_message(last, false)
            }
            Expr::Block { args, temps, body } => self.gen_block(args, temps, body),
        }
    }

    fn gen_literal(&mut self, lit: &Literal) -> Result<(), CompileError> {
        match lit {
            Literal::Int(-1) => {
                self.emit(PUSH_MINUS_ONE);
                self.note_push();
            }
            Literal::Int(0) => {
                self.emit(PUSH_ZERO);
                self.note_push();
            }
            Literal::Int(1) => {
                self.emit(PUSH_ONE);
                self.note_push();
            }
            Literal::Int(2) => {
                self.emit(PUSH_TWO);
                self.note_push();
            }
            Literal::True => {
                self.emit(PUSH_TRUE);
                self.note_push();
            }
            Literal::False => {
                self.emit(PUSH_FALSE);
                self.note_push();
            }
            Literal::Nil => {
                self.emit(PUSH_NIL);
                self.note_push();
            }
            other => {
                let idx = self.add_literal(LitEntry::Value(other.clone()))?;
                self.emit_push_lit_const(idx)?;
            }
        }
        Ok(())
    }

    fn gen_message(&mut self, msg: &Message, is_super: bool) -> Result<(), CompileError> {
        for a in &msg.args {
            self.gen_expr(a)?;
        }
        self.emit_send_op(&msg.selector, msg.args.len() as u8, is_super)
    }

    fn gen_send(
        &mut self,
        receiver: &Expr,
        selector: &str,
        args: &[Expr],
        is_super: bool,
    ) -> Result<(), CompileError> {
        if !is_super && self.try_inline(receiver, selector, args)? {
            return Ok(());
        }
        self.gen_expr(receiver)?;
        for a in args {
            self.gen_expr(a)?;
        }
        self.emit_send_op(selector, args.len() as u8, is_super)
    }

    fn emit_send_op(
        &mut self,
        selector: &str,
        nargs: u8,
        is_super: bool,
    ) -> Result<(), CompileError> {
        if !is_super {
            if let Some(i) = special_selector_index(selector) {
                debug_assert_eq!(SPECIAL_SELECTORS[i as usize].1, nargs, "{selector}");
                self.emit(SPECIAL_SEND + i);
                self.note_pop(nargs as usize);
                return Ok(());
            }
        }
        let lit = self.add_literal(LitEntry::Value(Literal::Symbol(selector.to_string())))?;
        if is_super {
            self.uses_super = true;
            self.emit(SEND_SUPER);
            self.emit(lit);
            self.emit(nargs);
        } else if lit < 16 && nargs <= 2 {
            self.emit(match nargs {
                0 => SEND_LIT_0 + lit,
                1 => SEND_LIT_1 + lit,
                _ => SEND_LIT_2 + lit,
            });
        } else {
            self.emit(SEND);
            self.emit(lit);
            self.emit(nargs);
        }
        self.note_pop(nargs as usize);
        Ok(())
    }

    // --- blocks ------------------------------------------------------------

    fn gen_block(
        &mut self,
        args: &[String],
        temps: &[String],
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        let scope_mark = self.visible.len();
        let mut arg_slots = Vec::new();
        for a in args {
            arg_slots.push(self.define_temp(a)?);
        }
        for t in temps {
            self.define_temp(t)?;
        }
        self.emit(PUSH_BLOCK);
        self.emit(args.len() as u8);
        let len_at = self.code.len();
        self.emit(0);
        self.emit(0);
        self.note_push(); // the block object

        // Body runs on the block's own stack; track depth separately.
        let saved_depth = self.depth;
        self.depth = 0;
        self.block_depth += 1;
        // Prologue: pop the pushed arguments into home temps, last first.
        for &slot in arg_slots.iter().rev() {
            self.note_push(); // value: pushed them
            self.emit_store_temp(slot, true);
        }
        match body.split_last() {
            None => {
                self.emit(PUSH_NIL);
                self.note_push();
                self.emit(BLOCK_RETURN_TOP);
                self.note_pop(1);
            }
            Some((last, init)) => {
                for s in init {
                    self.gen_stmt_effect(s)?;
                }
                match last {
                    Stmt::Return(e) => {
                        self.gen_expr(e)?;
                        self.emit(RETURN_TOP);
                        self.note_pop(1);
                    }
                    Stmt::Expr(e) => {
                        self.gen_expr(e)?;
                        self.emit(BLOCK_RETURN_TOP);
                        self.note_pop(1);
                    }
                }
            }
        }
        self.depth = saved_depth;
        self.block_depth -= 1;
        let len = self.code.len() - (len_at + 2);
        if len > u16::MAX as usize {
            return self.err("block body too large");
        }
        self.code[len_at] = (len & 0xFF) as u8;
        self.code[len_at + 1] = (len >> 8) as u8;
        self.visible.truncate(scope_mark);
        Ok(())
    }

    // --- statements & inlined control flow ----------------------------------

    fn gen_stmt_effect(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Return(e) => {
                self.gen_expr(e)?;
                self.emit(RETURN_TOP);
                self.note_pop(1);
                Ok(())
            }
            Stmt::Expr(Expr::Assign(name, value)) => {
                self.gen_expr(value)?;
                self.emit_store(name, true)
            }
            Stmt::Expr(e) => {
                self.gen_expr(e)?;
                self.emit(POP);
                self.note_pop(1);
                Ok(())
            }
        }
    }

    fn gen_body(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.gen_stmt_effect(s)?;
        }
        // Implicit ^self unless the last statement already returned.
        if !matches!(body.last(), Some(Stmt::Return(_))) {
            self.emit(RETURN_SELF);
        }
        Ok(())
    }

    /// Generates the statements of an inlined block, leaving its value on
    /// the stack (the home frame is shared, so inlining is transparent).
    fn gen_inline_block_value(
        &mut self,
        args: &[String],
        temps: &[String],
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        debug_assert!(args.is_empty());
        let scope_mark = self.visible.len();
        for t in temps {
            self.define_temp(t)?;
        }
        match body.split_last() {
            None => {
                self.emit(PUSH_NIL);
                self.note_push();
            }
            Some((last, init)) => {
                for s in init {
                    self.gen_stmt_effect(s)?;
                }
                match last {
                    Stmt::Return(e) => {
                        // A ^ in an inlined block returns from the method;
                        // emit the return and push nil to keep the stack
                        // shape consistent for the dead join path.
                        self.gen_expr(e)?;
                        self.emit(RETURN_TOP);
                        self.note_pop(1);
                        self.emit(PUSH_NIL);
                        self.note_push();
                    }
                    Stmt::Expr(e) => self.gen_expr(e)?,
                }
            }
        }
        self.visible.truncate(scope_mark);
        Ok(())
    }

    fn as_inlinable_block(e: &Expr) -> Option<(&[String], &[String], &[Stmt])> {
        match e {
            Expr::Block { args, temps, body } if args.is_empty() => Some((args, temps, body)),
            _ => None,
        }
    }

    /// Tries to inline a control-flow send; returns whether it did.
    fn try_inline(
        &mut self,
        receiver: &Expr,
        selector: &str,
        args: &[Expr],
    ) -> Result<bool, CompileError> {
        match (selector, args) {
            ("ifTrue:", [t]) => self.inline_conditional(receiver, Some(t), None),
            ("ifFalse:", [f]) => self.inline_conditional(receiver, None, Some(f)),
            ("ifTrue:ifFalse:", [t, f]) => self.inline_conditional(receiver, Some(t), Some(f)),
            ("ifFalse:ifTrue:", [f, t]) => self.inline_conditional(receiver, Some(t), Some(f)),
            ("and:", [rhs]) => self.inline_and_or(receiver, rhs, true),
            ("or:", [rhs]) => self.inline_and_or(receiver, rhs, false),
            ("whileTrue:", [body]) => self.inline_while(receiver, Some(body), true),
            ("whileFalse:", [body]) => self.inline_while(receiver, Some(body), false),
            ("whileTrue", []) => self.inline_while(receiver, None, true),
            ("whileFalse", []) => self.inline_while(receiver, None, false),
            ("to:do:", [stop, body]) => self.inline_to_do(receiver, stop, 1, body),
            ("to:by:do:", [stop, Expr::Literal(Literal::Int(step)), body]) if *step != 0 => {
                self.inline_to_do(receiver, stop, *step, body)
            }
            _ => Ok(false),
        }
    }

    fn inline_conditional(
        &mut self,
        cond: &Expr,
        then_blk: Option<&Expr>,
        else_blk: Option<&Expr>,
    ) -> Result<bool, CompileError> {
        let then_parts = then_blk.map(Self::as_inlinable_block);
        let else_parts = else_blk.map(Self::as_inlinable_block);
        // All present branches must be inlinable literal blocks.
        if then_parts == Some(None) || else_parts == Some(None) {
            return Ok(false);
        }
        self.gen_expr(cond)?;
        // Branch A is the one executed when the jump does NOT fire.
        // For ifTrue:(+ifFalse:) we jump on false.
        let jf = self.emit_jump_placeholder(LONG_JUMP_FALSE);
        self.note_pop(1);
        match then_parts.flatten() {
            Some((a, t, b)) => self.gen_inline_block_value(a, t, b)?,
            None => {
                // pure ifFalse: — then-branch value is nil
                self.emit(PUSH_NIL);
                self.note_push();
            }
        }
        let jend = self.emit_jump_placeholder(LONG_JUMP);
        self.note_pop(1); // only one branch's value materializes at runtime
        self.patch_jump(jf)?;
        match else_parts.flatten() {
            Some((a, t, b)) => self.gen_inline_block_value(a, t, b)?,
            None => {
                self.emit(PUSH_NIL);
                self.note_push();
            }
        }
        self.patch_jump(jend)?;
        Ok(true)
    }

    fn inline_and_or(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        is_and: bool,
    ) -> Result<bool, CompileError> {
        let Some((a, t, b)) = Self::as_inlinable_block(rhs) else {
            return Ok(false);
        };
        self.gen_expr(lhs)?;
        let j = self.emit_jump_placeholder(if is_and {
            LONG_JUMP_FALSE
        } else {
            LONG_JUMP_TRUE
        });
        self.note_pop(1);
        self.gen_inline_block_value(a, t, b)?;
        let jend = self.emit_jump_placeholder(LONG_JUMP);
        self.note_pop(1);
        self.patch_jump(j)?;
        self.emit(if is_and { PUSH_FALSE } else { PUSH_TRUE });
        self.note_push();
        self.patch_jump(jend)?;
        Ok(true)
    }

    fn inline_while(
        &mut self,
        cond: &Expr,
        body: Option<&Expr>,
        while_true: bool,
    ) -> Result<bool, CompileError> {
        let Some((ca, ct, cb)) = Self::as_inlinable_block(cond) else {
            return Ok(false);
        };
        let body_parts = match body {
            Some(b) => match Self::as_inlinable_block(b) {
                Some(p) => Some(p),
                None => return Ok(false),
            },
            None => None,
        };
        let loop_start = self.code.len();
        self.gen_inline_block_value(ca, ct, cb)?;
        let jexit = self.emit_jump_placeholder(if while_true {
            LONG_JUMP_FALSE
        } else {
            LONG_JUMP_TRUE
        });
        self.note_pop(1);
        if let Some((a, t, b)) = body_parts {
            let scope_mark = self.visible.len();
            for tn in t {
                self.define_temp(tn)?;
            }
            for s in b {
                self.gen_stmt_effect(s)?;
            }
            let _ = a;
            self.visible.truncate(scope_mark);
        }
        self.emit_jump_back(loop_start)?;
        self.patch_jump(jexit)?;
        self.emit(PUSH_NIL); // a while loop's value is nil
        self.note_push();
        Ok(true)
    }

    /// Inlines `start to: stop [by: step] do: [:i | body]` as a counted loop
    /// when that is exact; otherwise leaves it to the real send.
    ///
    /// The loop keeps `start` on the stack as the expression's value (what
    /// `Number>>to:do:` answers) and `stop`, evaluated once, in a hidden
    /// temp allocated right after `i`:
    ///
    /// ```text
    ///       <start> <stop> storePop limit  store i
    /// head: push i  push limit  <= (>= for a negative step)  jumpFalse exit
    ///       <body statements, each popped>
    ///       push i  push step  +  storePop i  jump head
    /// exit:
    /// ```
    ///
    /// Blocks share their home's temp slots, so the loop is exact only
    /// where no other activation can see `i` or the limit:
    ///
    /// - the block is a literal with one argument;
    /// - the body never assigns `i`;
    /// - no block in the body that stays real mentions `i` (after the loop
    ///   it would see `limit + step`, not the last index);
    /// - the loop is not itself inside a real block. Two BlockContexts of
    ///   one home (say, forked Processes) would share the counter and the
    ///   limit, where `Number>>to:do:` gives each activation its own.
    ///
    /// The body is generated first and rewound if it breaks a guard (or
    /// cannot be inlined at all, e.g. a jump too far).
    fn inline_to_do(
        &mut self,
        start: &Expr,
        stop: &Expr,
        step: i64,
        block: &Expr,
    ) -> Result<bool, CompileError> {
        let Expr::Block { args, temps, body } = block else {
            return Ok(false);
        };
        let [var] = args.as_slice() else {
            return Ok(false);
        };
        if self.block_depth > 0 {
            return Ok(false);
        }
        let mark = self.mark();
        match self.counted_loop(start, stop, step, var, temps, body) {
            Ok(true) => Ok(true),
            Ok(false) | Err(_) => {
                self.rewind(mark);
                Ok(false)
            }
        }
    }

    /// Emits the loop of [`Gen::inline_to_do`]; answers whether the body
    /// kept its guards.
    fn counted_loop(
        &mut self,
        start: &Expr,
        stop: &Expr,
        step: i64,
        var: &str,
        temps: &[String],
        body: &[Stmt],
    ) -> Result<bool, CompileError> {
        self.gen_expr(start)?;
        self.gen_expr(stop)?;
        let scope_mark = self.visible.len();
        let i = self.define_temp(var)?;
        let limit = self.define_hidden_temp()?;
        self.emit_store_temp(limit, true);
        self.emit_store_temp(i, false);
        for t in temps {
            self.define_temp(t)?;
        }
        self.loop_vars.push(LoopVar {
            slot: i,
            broken: false,
        });
        let head = self.code.len();
        self.emit_push_temp(i);
        self.emit_push_temp(limit);
        self.emit_send_op(if step > 0 { "<=" } else { ">=" }, 1, false)?;
        let jexit = self.emit_jump_placeholder(LONG_JUMP_FALSE);
        self.note_pop(1);
        for s in body {
            self.gen_stmt_effect(s)?;
        }
        self.emit_push_temp(i);
        self.gen_literal(&Literal::Int(step))?;
        self.emit_send_op("+", 1, false)?;
        self.emit_store_temp(i, true);
        self.emit_jump_back(head)?;
        self.patch_jump(jexit)?;
        self.visible.truncate(scope_mark);
        let lv = self.loop_vars.pop().expect("pushed above");
        Ok(!lv.broken)
    }

    // --- finish --------------------------------------------------------------

    fn finish(mut self, node: &MethodNode) -> Result<CompiledMethodSpec, CompileError> {
        if node.args.len() > 15 {
            return self.err("too many arguments (max 15)");
        }
        if self.uses_super {
            // The installer replaces this with the defining class; it must
            // be the last literal by convention.
            self.literals.push(LitEntry::MethodClass);
            if self.literals.len() > 255 {
                return self.err("too many literals (max 255)");
            }
        }
        let frame_needed = self.num_temps + self.max_depth;
        let large_context = frame_needed > SMALL_FRAME;
        if frame_needed > LARGE_FRAME {
            return self.err(format!(
                "method needs {frame_needed} frame slots; the large context has {LARGE_FRAME}"
            ));
        }
        Ok(CompiledMethodSpec {
            selector: node.selector.clone(),
            num_args: node.args.len() as u8,
            num_temps: self.num_temps as u8,
            primitive: node.primitive,
            large_context,
            literals: self.literals,
            bytecodes: self.code,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{decode, Instr};

    fn compile_src(src: &str) -> CompiledMethodSpec {
        compile(src, &CompileContext::default()).unwrap()
    }

    fn compile_with_ivars(src: &str, ivars: &[&str]) -> CompiledMethodSpec {
        let ivars: Vec<String> = ivars.iter().map(|s| s.to_string()).collect();
        compile(
            src,
            &CompileContext {
                instance_vars: &ivars,
            },
        )
        .unwrap()
    }

    fn instrs(spec: &CompiledMethodSpec) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < spec.bytecodes.len() {
            let (i, next) = decode(&spec.bytecodes, pc);
            out.push(i);
            pc = next;
        }
        out
    }

    #[test]
    fn empty_method_returns_self() {
        let m = compile_src("doNothing");
        assert_eq!(instrs(&m), vec![Instr::ReturnSelf]);
        assert_eq!(m.num_args, 0);
        assert_eq!(m.num_temps, 0);
        assert!(!m.large_context);
    }

    #[test]
    fn return_sum_of_args() {
        let m = compile_src("+ other ^other + 1");
        assert_eq!(
            instrs(&m),
            vec![
                Instr::PushTemp(0),
                Instr::PushInt(1),
                Instr::SpecialSend(0),
                Instr::ReturnTop
            ]
        );
        assert_eq!(m.num_args, 1);
        assert_eq!(m.num_temps, 1);
    }

    #[test]
    fn temps_and_assignment() {
        let m = compile_src("m | a | a := 3. ^a");
        assert_eq!(
            instrs(&m),
            vec![
                Instr::PushLitConst(0),
                Instr::StoreTemp(0, true),
                Instr::PushTemp(0),
                Instr::ReturnTop
            ]
        );
        assert_eq!(m.literals[0], LitEntry::Value(Literal::Int(3)));
    }

    #[test]
    fn instance_variable_access() {
        let m = compile_with_ivars("setX: v x := v. ^x", &["x", "y"]);
        assert_eq!(
            instrs(&m),
            vec![
                Instr::PushTemp(0),
                Instr::StoreRcvrVar(0, true),
                Instr::PushRcvrVar(0),
                Instr::ReturnTop
            ]
        );
    }

    #[test]
    fn globals_become_literal_bindings() {
        let m = compile_src("m ^Transcript");
        assert_eq!(instrs(&m), vec![Instr::PushLitVar(0), Instr::ReturnTop]);
        assert_eq!(m.literals[0], LitEntry::GlobalBinding("Transcript".into()));
    }

    #[test]
    fn assignment_to_global_rejected() {
        let err = compile("m Transcript := 3", &CompileContext::default()).unwrap_err();
        assert!(err.message.contains("cannot assign"));
    }

    #[test]
    fn keyword_send_uses_literal_selector() {
        let m = compile_src("m ^self foo: 1 bar: 2");
        let is = instrs(&m);
        assert_eq!(
            is,
            vec![
                Instr::PushSelf,
                Instr::PushInt(1),
                Instr::PushInt(2),
                Instr::Send {
                    lit: 0,
                    nargs: 2,
                    is_super: false
                },
                Instr::ReturnTop
            ]
        );
        assert_eq!(
            m.literals[0],
            LitEntry::Value(Literal::Symbol("foo:bar:".into()))
        );
    }

    #[test]
    fn super_send_appends_method_class_literal() {
        let m = compile_src("init super init");
        let is = instrs(&m);
        assert_eq!(
            is[1],
            Instr::Send {
                lit: 0,
                nargs: 0,
                is_super: true
            }
        );
        assert_eq!(m.literals.last(), Some(&LitEntry::MethodClass));
    }

    #[test]
    fn cascade_duplicates_receiver() {
        let m = compile_src("m s a; b: 1; c");
        let is = instrs(&m);
        assert_eq!(is[0], Instr::PushLitVar(0)); // s is a global here
        assert_eq!(is[1], Instr::Dup);
        assert!(matches!(is[2], Instr::Send { nargs: 0, .. }));
        assert_eq!(is[3], Instr::Pop);
        assert_eq!(is[4], Instr::Dup);
        assert_eq!(is[5], Instr::PushInt(1));
        assert!(matches!(is[6], Instr::Send { nargs: 1, .. }));
        assert_eq!(is[7], Instr::Pop);
        assert!(matches!(is[8], Instr::Send { nargs: 0, .. }));
        assert_eq!(is[9], Instr::Pop);
        assert_eq!(is[10], Instr::ReturnSelf);
    }

    #[test]
    fn if_true_compiles_to_jump_false() {
        let m = compile_src("m x ifTrue: [1]");
        let is = instrs(&m);
        // pushLitVar(x) jumpFalse A; push 1; jump B; A: pushNil; B: pop, ^self
        assert!(matches!(is[1], Instr::JumpFalse(_)));
        assert_eq!(is[2], Instr::PushInt(1));
        assert!(matches!(is[3], Instr::Jump(_)));
        assert_eq!(is[4], Instr::PushNil);
        assert_eq!(is[5], Instr::Pop);
        assert_eq!(is[6], Instr::ReturnSelf);
    }

    #[test]
    fn if_true_if_false_both_branches() {
        let m = compile_src("m ^x ifTrue: ['a'] ifFalse: ['b']");
        let is = instrs(&m);
        assert!(matches!(is[1], Instr::JumpFalse(_)));
        assert_eq!(is[2], Instr::PushLitConst(1)); // 'a' (lit 0 is binding x)
        assert!(matches!(is[3], Instr::Jump(_)));
        assert_eq!(is[4], Instr::PushLitConst(2)); // 'b'
        assert_eq!(is[5], Instr::ReturnTop);
    }

    #[test]
    fn and_or_short_circuit() {
        let m = compile_src("m ^a and: [b]");
        let is = instrs(&m);
        assert!(matches!(is[1], Instr::JumpFalse(_)));
        assert!(matches!(is[3], Instr::Jump(_)));
        assert_eq!(is[4], Instr::PushFalse);
        let m2 = compile_src("m ^a or: [b]");
        let is2 = instrs(&m2);
        assert!(matches!(is2[1], Instr::JumpTrue(_)));
        assert_eq!(is2[4], Instr::PushTrue);
    }

    #[test]
    fn while_true_loops_backward() {
        let m = compile_src("m [x] whileTrue: [y]");
        let is = instrs(&m);
        assert_eq!(is[0], Instr::PushLitVar(0));
        assert!(matches!(is[1], Instr::JumpFalse(_)));
        assert_eq!(is[2], Instr::PushLitVar(1));
        assert_eq!(is[3], Instr::Pop);
        let Instr::Jump(d) = is[4] else { panic!() };
        assert!(d < 0, "loop jump must be backward, got {d}");
        assert_eq!(is[5], Instr::PushNil);
        assert_eq!(is[6], Instr::Pop);
    }

    #[test]
    fn non_literal_blocks_are_real_sends() {
        let m = compile_src("m ^x ifTrue: aBlock");
        let is = instrs(&m);
        assert!(is.iter().any(|i| matches!(
            i,
            Instr::Send {
                is_super: false,
                ..
            }
        )));
        assert!(m
            .literals
            .contains(&LitEntry::Value(Literal::Symbol("ifTrue:".into()))));
    }

    #[test]
    fn block_with_args_pops_into_home_temps() {
        let m = compile_src("m ^[:a :b | a + b]");
        let is = instrs(&m);
        assert_eq!(
            is[0],
            Instr::PushBlock {
                nargs: 2,
                len: m.bytecodes.len() as u16 - 4 - 1 // all but push+return
            }
        );
        // Prologue stores the last argument first.
        assert_eq!(is[1], Instr::StoreTemp(1, true));
        assert_eq!(is[2], Instr::StoreTemp(0, true));
        assert_eq!(is[3], Instr::PushTemp(0));
        assert_eq!(is[4], Instr::PushTemp(1));
        assert_eq!(is[5], Instr::SpecialSend(0));
        assert_eq!(is[6], Instr::BlockReturnTop);
        assert_eq!(is[7], Instr::ReturnTop);
        assert_eq!(m.num_temps, 2);
    }

    #[test]
    fn empty_block_returns_nil() {
        let m = compile_src("m ^[]");
        let is = instrs(&m);
        assert_eq!(is[1], Instr::PushNil);
        assert_eq!(is[2], Instr::BlockReturnTop);
    }

    #[test]
    fn nonlocal_return_in_block() {
        let m = compile_src("m x do: [:e | ^e]");
        let is = instrs(&m);
        assert!(is.contains(&Instr::ReturnTop));
        // The block's ^e is a RETURN_TOP inside the block body.
        let Instr::PushBlock { nargs: 1, .. } = is[1] else {
            panic!("expected block push, got {:?}", is[1]);
        };
    }

    #[test]
    fn literal_dedup() {
        let m = compile_src("m ^self foo: 42 bar: 42 qux: 42");
        let count_42 = m
            .literals
            .iter()
            .filter(|l| **l == LitEntry::Value(Literal::Int(42)))
            .count();
        assert_eq!(count_42, 1);
    }

    #[test]
    fn large_context_when_many_temps() {
        let m = compile_src("m | t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12 t13 t14 t15 t16 | t1 := 1");
        assert!(m.large_context);
    }

    #[test]
    fn deep_nesting_is_rejected_not_miscompiled() {
        // 50 temps plus nested sends exceeds the large frame.
        let temps: Vec<String> = (0..45).map(|i| format!("t{i}")).collect();
        let src = format!("m | {} | t0 := 1", temps.join(" "));
        let err = compile(&src, &CompileContext::default()).unwrap_err();
        assert!(err.message.contains("frame slots"));
    }

    #[test]
    fn special_selectors_have_no_literal() {
        let m = compile_src("m ^1 + 2 * 0");
        assert!(m.literals.is_empty());
    }

    #[test]
    fn if_branch_with_method_return() {
        let m = compile_src("m x ifTrue: [^1]. ^2");
        let is = instrs(&m);
        assert!(is.contains(&Instr::ReturnTop));
        // Falls through to ^2 when x is false.
        assert_eq!(*is.last().unwrap(), Instr::ReturnTop);
    }

    fn sends(spec: &CompiledMethodSpec, selector: &str) -> bool {
        spec.literals
            .contains(&LitEntry::Value(Literal::Symbol(selector.into())))
    }

    #[test]
    fn to_do_over_a_literal_block_is_a_counted_loop() {
        let m = compile_src("m | s | s := 0. 1 to: 10 do: [:i | s := s + i]. ^s");
        assert!(!sends(&m, "to:do:"), "{:?}", m.literals);
        // s, i, then the hidden limit.
        assert_eq!(m.num_temps, 3);
        let is = instrs(&m);
        assert_eq!(
            is[2..15],
            [
                Instr::PushInt(1),
                Instr::PushLitConst(0),
                Instr::StoreTemp(2, true),
                Instr::StoreTemp(1, false),
                Instr::PushTemp(1),
                Instr::PushTemp(2),
                Instr::SpecialSend(4), // <=
                Instr::JumpFalse(10),
                Instr::PushTemp(0),
                Instr::PushTemp(1),
                Instr::SpecialSend(0),
                Instr::StoreTemp(0, true),
                Instr::PushTemp(1),
            ]
        );
        assert_eq!(is[15], Instr::PushInt(1));
        assert_eq!(is[16], Instr::SpecialSend(0)); // +
        assert_eq!(is[17], Instr::StoreTemp(1, true));
        assert!(matches!(is[18], Instr::Jump(d) if d < 0));
        // The loop's value (its receiver) is what the statement pops.
        assert_eq!(is[19], Instr::Pop);
    }

    #[test]
    fn to_by_do_with_a_negative_literal_step_counts_down() {
        let m = compile_src("m: n n to: 1 by: -2 do: [:i | self foo: i]");
        assert!(!sends(&m, "to:by:do:"));
        let is = instrs(&m);
        assert!(is.contains(&Instr::SpecialSend(5)), "{is:?}"); // >=
        assert!(is.contains(&Instr::PushLitConst(1)), "{is:?}"); // -2
        assert_eq!(m.literals[1], LitEntry::Value(Literal::Int(-2)));
    }

    #[test]
    fn to_do_stays_a_send_when_inlining_would_not_be_exact() {
        for src in [
            // the body assigns the loop variable
            "m 1 to: 10 do: [:i | i := i + 1]",
            // a real block in the body captures it
            "m | b | 1 to: 10 do: [:i | b := [i]]. ^b",
            "m 1 to: 10 do: [:i | self do: [:e | e + i]]",
            // a nested loop that stays a send reads it from its block
            "m 1 to: 3 do: [:i | 1 to: 3 do: [:j | j := i]]",
            // not a one-argument literal block
            "m: b 1 to: 10 do: b",
            "m 1 to: 10 do: [self foo]",
            "m 1 to: 10 do: [:a :b | a]",
        ] {
            let m = compile_src(src);
            assert!(sends(&m, "to:do:"), "{src} was inlined");
        }
        for src in [
            "m: s 1 to: 10 by: s do: [:i | self foo: i]",
            "m 1 to: 10 by: 0 do: [:i | self foo: i]",
            "m 1 to: 10 by: 1.5 do: [:i | self foo: i]",
        ] {
            let m = compile_src(src);
            assert!(sends(&m, "to:by:do:"), "{src} was inlined");
        }
    }

    #[test]
    fn to_do_guards_are_per_loop_and_by_slot() {
        // The inner loop's variable escapes, so it stays a send; the outer
        // loop's does not, so it is inlined.
        let m = compile_src("m | b | 1 to: 3 do: [:i | i to: 5 do: [:j | b := [j]]]. ^b");
        assert!(sends(&m, "to:do:"));
        assert_eq!(
            instrs(&m)
                .iter()
                .filter(|i| matches!(i, Instr::PushBlock { .. }))
                .count(),
            2
        );
        // A block argument that shadows the loop variable is another slot.
        let m = compile_src("m 1 to: 3 do: [:i | self do: [:i | i]]");
        assert!(!sends(&m, "to:do:"));
        // A loop inside a real block keeps its counter in the Process's
        // own `Number>>to:do:` activation.
        let m = compile_src("m ^[1 to: 3 do: [:i | self foo: i]]");
        assert!(sends(&m, "to:do:"));
        // A ^ in the body returns from the method either way.
        let m = compile_src("m 1 to: 3 do: [:i | i > 1 ifTrue: [^i]]");
        assert!(!sends(&m, "to:do:"));
    }

    #[test]
    fn to_do_with_a_body_too_long_to_jump_over_stays_a_send() {
        let body = vec!["self foo: i"; 300].join(". ");
        let m = compile_src(&format!("m 1 to: 10 do: [:i | {body}]"));
        assert!(sends(&m, "to:do:"));
        assert_eq!(m.num_temps, 1, "the abandoned attempt's slots are rewound");
    }

    #[test]
    fn while_with_temp_in_body() {
        let m = compile_src("m | i | i := 0. [i < 5] whileTrue: [i := i + 1]. ^i");
        assert_eq!(m.num_temps, 1);
        let is = instrs(&m);
        assert!(is.iter().any(|i| matches!(i, Instr::Jump(d) if *d < 0)));
    }
}
