//! Numbered primitives.
//!
//! Primitive methods carry an index in their header (`<primitive: n>` in
//! source). The interpreter tries the primitive first; on failure the
//! method's Smalltalk body runs (the Smalltalk-80 failure-fallback protocol
//! the paper relies on for `thisProcess`/`canRun:` compatibility, §3.3).
//!
//! Convention: on entry the receiver is at `sp - nargs` with the arguments
//! above it; a successful primitive replaces that frame with the result. A
//! primitive must not disturb the stack before its last possible failure
//! point, so a failed allocation can restart the whole send after a GC.

use mst_objmem::layout::class::ClassFormat;
use mst_objmem::layout::{block_ctx, class as cls};
use mst_objmem::{MethodHeader, ObjFormat, Oop, So};
use mst_vkernel::io::{CombinationRule, DisplayCommand};

use crate::classes::compile_and_install;
use crate::dicts::method_dict_at;
use crate::interp::{Interpreter, PrimOutcome};
use crate::scheduler::{self as sched, State, Subject};

impl Interpreter {
    fn t(&self) -> Oop {
        self.vm().mem.specials().get(So::True)
    }

    fn f(&self) -> Oop {
        self.vm().mem.specials().get(So::False)
    }

    fn boolean(&self, v: bool) -> Oop {
        if v {
            self.t()
        } else {
            self.f()
        }
    }

    /// Completes a send: pops the frame, pushes the result.
    fn prim_done(&mut self, nargs: usize, result: Oop) -> PrimOutcome {
        self.set_sp(self.sp() - nargs);
        self.poke_top(result);
        PrimOutcome::Done
    }

    fn arg(&self, nargs: usize, i: usize) -> Oop {
        self.stack_at(self.sp() - nargs + 1 + i)
    }

    fn prim_receiver(&self, nargs: usize) -> Oop {
        self.stack_at(self.sp() - nargs)
    }

    pub(crate) fn dispatch_primitive(
        &mut self,
        index: u16,
        nargs: usize,
        pc0: usize,
    ) -> PrimOutcome {
        let mem = self.mem();
        let rcvr = self.prim_receiver(nargs);
        match index {
            // --- SmallInteger arithmetic (1..=16) --------------------------
            1..=15 => {
                let arg = self.arg(nargs, 0);
                if !rcvr.is_small_int() || !arg.is_small_int() {
                    return PrimOutcome::Fail;
                }
                match crate::interp::small_int_op(
                    mem,
                    index as usize - 1,
                    rcvr.as_small_int(),
                    arg.as_small_int(),
                ) {
                    Some(v) => self.prim_done(nargs, v),
                    None => PrimOutcome::Fail,
                }
            }
            16 => {
                // bitXor:
                let arg = self.arg(nargs, 0);
                if !rcvr.is_small_int() || !arg.is_small_int() {
                    return PrimOutcome::Fail;
                }
                match Oop::try_from_i64(rcvr.as_small_int() ^ arg.as_small_int()) {
                    Some(v) => self.prim_done(nargs, v),
                    None => PrimOutcome::Fail,
                }
            }
            18 => {
                // SmallInteger>>asFloat
                if !rcvr.is_small_int() {
                    return PrimOutcome::Fail;
                }
                match mem.alloc_float(self.token(), rcvr.as_small_int() as f64) {
                    Some(f) => self.prim_done(nargs, f),
                    None => PrimOutcome::NeedGc,
                }
            }
            // --- Float (40..=49) ------------------------------------------
            40..=46 => {
                let float_class = mem.specials().get(So::ClassFloat);
                if mem.class_of(rcvr) != float_class {
                    return PrimOutcome::Fail;
                }
                let arg = self.arg(nargs, 0);
                let b = if mem.class_of(arg) == float_class {
                    mem.float_value(arg)
                } else if arg.is_small_int() {
                    arg.as_small_int() as f64
                } else {
                    return PrimOutcome::Fail;
                };
                let a = mem.float_value(rcvr);
                let result = match index {
                    40 => a + b,
                    41 => a - b,
                    42 => return self.prim_done(nargs, self.boolean(a < b)),
                    43 => return self.prim_done(nargs, self.boolean(a > b)),
                    44 => return self.prim_done(nargs, self.boolean(a == b)),
                    45 => a * b,
                    _ => {
                        if b == 0.0 {
                            return PrimOutcome::Fail;
                        }
                        a / b
                    }
                };
                match mem.alloc_float(self.token(), result) {
                    Some(f) => self.prim_done(nargs, f),
                    None => PrimOutcome::NeedGc,
                }
            }
            47 => {
                // Float>>truncated
                if mem.class_of(rcvr) != mem.specials().get(So::ClassFloat) {
                    return PrimOutcome::Fail;
                }
                let v = mem.float_value(rcvr).trunc();
                match Oop::try_from_i64(v as i64) {
                    Some(o) if (v as i64) as f64 == v => self.prim_done(nargs, o),
                    _ => PrimOutcome::Fail,
                }
            }
            49 => {
                // Float>>printString (via Rust formatting)
                if mem.class_of(rcvr) != mem.specials().get(So::ClassFloat) {
                    return PrimOutcome::Fail;
                }
                let s = format!("{:?}", mem.float_value(rcvr));
                match mem.alloc_string(self.token(), &s) {
                    Some(o) => self.prim_done(nargs, o),
                    None => PrimOutcome::NeedGc,
                }
            }
            // --- Indexable access (60..=63) --------------------------------
            60 => self.prim_at(nargs),
            61 => self.prim_at_put(nargs),
            62 => self.prim_size(nargs),
            63 => {
                // SmallInteger>>asCharacter
                if !rcvr.is_small_int() {
                    return PrimOutcome::Fail;
                }
                let v = rcvr.as_small_int();
                if !(0..=255).contains(&v) {
                    return PrimOutcome::Fail;
                }
                let c = mem.char_oop(v as u8);
                self.prim_done(nargs, c)
            }
            // --- CompiledMethod reflection (66..=68) -----------------------
            66 => {
                // numArgs
                if mem.header(rcvr).format() != ObjFormat::Method {
                    return PrimOutcome::Fail;
                }
                let mh = MethodHeader::decode(mem.fetch(rcvr, 0));
                self.prim_done(nargs, Oop::from_small_int(mh.num_args as i64))
            }
            67 => {
                // numLiterals
                if mem.header(rcvr).format() != ObjFormat::Method {
                    return PrimOutcome::Fail;
                }
                let mh = MethodHeader::decode(mem.fetch(rcvr, 0));
                self.prim_done(nargs, Oop::from_small_int(mh.num_literals as i64))
            }
            68 => {
                // literalAt: (1-based)
                if mem.header(rcvr).format() != ObjFormat::Method {
                    return PrimOutcome::Fail;
                }
                let arg = self.arg(nargs, 0);
                let mh = MethodHeader::decode(mem.fetch(rcvr, 0));
                match arg.to_i64() {
                    Some(i) if (1..=mh.num_literals as i64).contains(&i) => {
                        let v = mem.fetch(rcvr, MethodHeader::literal_slot(i as usize - 1));
                        self.prim_done(nargs, v)
                    }
                    _ => PrimOutcome::Fail,
                }
            }
            // --- Instantiation & object access (70..=75) -------------------
            70 => {
                // new
                if !rcvr.is_object() {
                    return PrimOutcome::Fail;
                }
                match mem.instantiate(self.token(), rcvr, 0) {
                    Some(o) => self.prim_done(nargs, o),
                    None => PrimOutcome::NeedGc,
                }
            }
            71 => {
                // new:
                let arg = self.arg(nargs, 0);
                let Some(n) = arg.to_i64() else {
                    return PrimOutcome::Fail;
                };
                if n < 0 || !rcvr.is_object() {
                    return PrimOutcome::Fail;
                }
                let fmt = ClassFormat::decode(mem.fetch(rcvr, cls::FORMAT).as_small_int());
                // An instance no collection could make room for fails here,
                // before the allocator's size precondition.
                if !fmt.indexable || !mem.could_instantiate(rcvr, n as usize) {
                    return PrimOutcome::Fail;
                }
                match mem.instantiate(self.token(), rcvr, n as usize) {
                    Some(o) => self.prim_done(nargs, o),
                    None => PrimOutcome::NeedGc,
                }
            }
            73 => {
                // instVarAt:
                let arg = self.arg(nargs, 0);
                if !rcvr.is_object() {
                    return PrimOutcome::Fail;
                }
                let h = mem.header(rcvr);
                match arg.to_i64() {
                    Some(i)
                        if h.format() == ObjFormat::Pointers
                            && (1..=h.body_words() as i64).contains(&i) =>
                    {
                        let v = mem.fetch(rcvr, i as usize - 1);
                        self.prim_done(nargs, v)
                    }
                    _ => PrimOutcome::Fail,
                }
            }
            74 => {
                // instVarAt:put:
                let idx = self.arg(nargs, 0);
                let val = self.arg(nargs, 1);
                if !rcvr.is_object() {
                    return PrimOutcome::Fail;
                }
                let h = mem.header(rcvr);
                match idx.to_i64() {
                    Some(i)
                        if h.format() == ObjFormat::Pointers
                            && (1..=h.body_words() as i64).contains(&i) =>
                    {
                        mem.store(rcvr, i as usize - 1, val);
                        self.prim_done(nargs, val)
                    }
                    _ => PrimOutcome::Fail,
                }
            }
            75 => {
                let h = mem.identity_hash(rcvr);
                self.prim_done(nargs, Oop::from_small_int(h))
            }
            // --- Blocks & perform (80..=84) --------------------------------
            80 => {
                let out = self.block_value(nargs);
                if matches!(out, PrimOutcome::Done) {
                    // block_value switched contexts itself.
                    PrimOutcome::Done
                } else {
                    out
                }
            }
            81 => self.prim_value_with_arguments(nargs),
            82 => self.prim_perform(nargs, pc0),
            84 => self.prim_perform_with_arguments(nargs, pc0),
            // --- Processes & semaphores (85..=93) --------------------------
            85 => {
                // Semaphore>>signal
                sched::transition(self.vm(), Subject::FirstWaiter(rcvr), State::Ready);
                self.prim_done(nargs, rcvr)
            }
            86 => {
                // Semaphore>>wait. The registers reach the heap before the
                // wait: once the Process sits on the Semaphore, a signal on
                // another interpreter makes it ready, and whichever
                // interpreter claims it resumes it from its suspended context.
                self.prim_done(nargs, rcvr);
                let flushed = self.flush_registers();
                match sched::transition(self.vm(), flushed, State::Waiting(rcvr)) {
                    Some(_) => PrimOutcome::Switch,
                    None => PrimOutcome::Done, // a banked signal
                }
            }
            87 => {
                // Process>>resume
                sched::transition(self.vm(), rcvr, State::Ready);
                self.prim_done(nargs, rcvr)
            }
            88 | 91 => {
                // Process>>suspend, Process>>terminate
                let to = if index == 88 {
                    State::Suspended
                } else {
                    State::Terminated
                };
                if rcvr == self.current_process() {
                    // Flushed first, for the reason `wait` is: a `resume`
                    // on another interpreter may follow at once.
                    self.prim_done(nargs, rcvr);
                    let flushed = self.flush_registers();
                    sched::transition(self.vm(), flushed, to);
                    PrimOutcome::Switch
                } else if sched::transition(self.vm(), rcvr, to).is_some() {
                    self.prim_done(nargs, rcvr)
                } else {
                    // It runs on another processor (§3.3), or has ended.
                    PrimOutcome::Fail
                }
            }
            89 => {
                // Processor yield (receiver ignored)
                self.prim_done(nargs, rcvr);
                self.release();
                PrimOutcome::Switch
            }
            90 => {
                // BlockContext>>newProcess
                if mem.class_of(rcvr) != mem.specials().get(So::ClassBlockContext) {
                    return PrimOutcome::Fail;
                }
                if mem.fetch(rcvr, block_ctx::NARGS).as_small_int() != 0 {
                    return PrimOutcome::Fail;
                }
                let body = mem.header(rcvr).body_words();
                let class = mem.specials().get(So::ClassBlockContext);
                let Some(fresh) = mem.allocate(self.token(), class, ObjFormat::Pointers, body, 0)
                else {
                    return PrimOutcome::NeedGc;
                };
                let initial = mem.fetch(rcvr, block_ctx::INITIAL_PC).as_small_int() as usize;
                let home = mem.fetch(rcvr, block_ctx::HOME);
                crate::contexts::reinit_block_ctx(mem, fresh, 0, initial, home);
                mem.store_nocheck(
                    fresh,
                    block_ctx::STACKP,
                    Oop::from_small_int(block_ctx::STACK_START as i64 - 1),
                );
                let name = mem.nil();
                let Some(p) =
                    sched::create_process(mem, self.token(), fresh, self.priority(), name)
                else {
                    return PrimOutcome::NeedGc;
                };
                // The home context now escapes through another process.
                let h = mem.header(home);
                mem.set_header(home, h.with_escaped());
                self.prim_done(nargs, p)
            }
            92 => {
                // thisProcess (the paper's reorganization, §3.3)
                let p = self.current_process();
                self.prim_done(nargs, p)
            }
            93 => {
                // canRun: aProcess
                let arg = self.arg(nargs, 0);
                if !arg.is_object() {
                    return PrimOutcome::Fail;
                }
                let b = self.boolean(sched::can_run(self.vm(), arg));
                self.prim_done(nargs, b)
            }
            // --- System (99..) ---------------------------------------------
            99 => {
                // force a scavenge (tests, GC benchmarks)
                self.prim_done(nargs, rcvr);
                self.explicit_scavenge();
                PrimOutcome::Done
            }
            100 => {
                let ms = self.vm().start.elapsed().as_millis() as i64;
                self.prim_done(nargs, Oop::from_small_int(ms))
            }
            101 => self.prim_display_command(nargs),
            102 => {
                let ev = self.vm().input.next_event();
                let result = match ev {
                    Some(e) => Oop::from_small_int(e.code as i64),
                    None => mem.nil(),
                };
                self.prim_done(nargs, result)
            }
            103 => self.prim_compile(nargs),
            104 => self.prim_decompile(nargs),
            105 => {
                // primitive string equality
                let arg = self.arg(nargs, 0);
                if !rcvr.is_object()
                    || !arg.is_object()
                    || mem.header(rcvr).format() != ObjFormat::Bytes
                    || mem.header(arg).format() != ObjFormat::Bytes
                {
                    return PrimOutcome::Fail;
                }
                let eq = mem.bytes(rcvr) == mem.bytes(arg);
                let b = self.boolean(eq);
                self.prim_done(nargs, b)
            }
            107 => self.prim_replace(nargs),
            110 => {
                let arg = self.arg(nargs, 0);
                let b = self.boolean(rcvr == arg);
                self.prim_done(nargs, b)
            }
            111 => {
                let c = mem.class_of(rcvr);
                self.prim_done(nargs, c)
            }
            120 => {
                // String>>asSymbol
                if !rcvr.is_object() || mem.header(rcvr).format() != ObjFormat::Bytes {
                    return PrimOutcome::Fail;
                }
                let s = mem.str_value(rcvr);
                // Failure containment: old-space exhaustion fails the
                // primitive (the image sees primitiveFailed) instead of
                // aborting the VM.
                let Ok(sym) = mem.try_intern(&s) else {
                    return PrimOutcome::Fail;
                };
                self.prim_done(nargs, sym)
            }
            121 => {
                // Symbol>>asString
                if !rcvr.is_object() || mem.header(rcvr).format() != ObjFormat::Bytes {
                    return PrimOutcome::Fail;
                }
                let s = mem.str_value(rcvr);
                match mem.alloc_string(self.token(), &s) {
                    Some(o) => self.prim_done(nargs, o),
                    None => PrimOutcome::NeedGc,
                }
            }
            130 => {
                // error: — log and terminate the process.
                let arg = self.arg(nargs, 0);
                let msg = if arg.is_object() && mem.header(arg).format() == ObjFormat::Bytes {
                    mem.str_value(arg)
                } else {
                    format!("{arg:?}")
                };
                self.report_error(msg);
                self.prim_done(nargs, rcvr);
                self.end_process(arg);
                PrimOutcome::Switch
            }
            132 => {
                // Transcript output
                let arg = self.arg(nargs, 0);
                if !arg.is_object() || mem.header(arg).format() != ObjFormat::Bytes {
                    return PrimOutcome::Fail;
                }
                let s = mem.str_value(arg);
                self.vm().transcript.lock().push_str(&s);
                self.prim_done(nargs, rcvr)
            }
            135 => {
                self.vm().display.flush();
                self.prim_done(nargs, rcvr)
            }
            138 => {
                // scavenge count (instrumentation)
                let n = self.vm().mem.gc_stats().scavenges as i64;
                self.prim_done(nargs, Oop::from_small_int(n))
            }
            _ => PrimOutcome::Fail,
        }
    }

    // ------------------------------------------------------------------
    // Indexable access helpers
    // ------------------------------------------------------------------

    fn indexable_info(&self, obj: Oop) -> Option<(ClassFormat, usize)> {
        let mem = self.mem();
        if !obj.is_object() {
            return None;
        }
        let class = mem.class_of(obj);
        if !class.is_object() {
            return None;
        }
        let fmt = ClassFormat::decode(mem.fetch(class, cls::FORMAT).as_small_int());
        if !fmt.indexable {
            return None;
        }
        let len = if fmt.bytes {
            mem.byte_len(obj)
        } else {
            mem.header(obj).body_words() - fmt.inst_size as usize
        };
        Some((fmt, len))
    }

    fn is_stringlike(&self, obj: Oop) -> bool {
        let mem = self.mem();
        let class = mem.class_of(obj);
        class == mem.specials().get(So::ClassString) || class == mem.specials().get(So::ClassSymbol)
    }

    fn prim_at(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let rcvr = self.prim_receiver(nargs);
        let Some(idx) = self.arg(nargs, 0).to_i64() else {
            return PrimOutcome::Fail;
        };
        let Some((fmt, len)) = self.indexable_info(rcvr) else {
            return PrimOutcome::Fail;
        };
        if idx < 1 || idx as usize > len {
            return PrimOutcome::Fail;
        }
        let i = idx as usize - 1;
        let v = if fmt.bytes {
            let b = mem.byte_at(rcvr, i);
            if self.is_stringlike(rcvr) {
                mem.char_oop(b)
            } else {
                Oop::from_small_int(b as i64)
            }
        } else {
            mem.fetch(rcvr, fmt.inst_size as usize + i)
        };
        self.prim_done(nargs, v)
    }

    fn prim_at_put(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let rcvr = self.prim_receiver(nargs);
        let Some(idx) = self.arg(nargs, 0).to_i64() else {
            return PrimOutcome::Fail;
        };
        let val = self.arg(nargs, 1);
        let Some((fmt, len)) = self.indexable_info(rcvr) else {
            return PrimOutcome::Fail;
        };
        if idx < 1 || idx as usize > len {
            return PrimOutcome::Fail;
        }
        let i = idx as usize - 1;
        if fmt.bytes {
            let byte = if self.is_stringlike(rcvr) {
                // Characters carry their code in instance variable 0.
                if mem.class_of(val) != mem.specials().get(So::ClassCharacter) {
                    return PrimOutcome::Fail;
                }
                mem.fetch(val, 0).as_small_int() as u8
            } else {
                match val.to_i64() {
                    Some(v) if (0..=255).contains(&v) => v as u8,
                    _ => return PrimOutcome::Fail,
                }
            };
            mem.byte_at_put(rcvr, i, byte);
        } else {
            mem.store(rcvr, fmt.inst_size as usize + i, val);
        }
        self.prim_done(nargs, val)
    }

    fn prim_size(&mut self, nargs: usize) -> PrimOutcome {
        let rcvr = self.prim_receiver(nargs);
        match self.indexable_info(rcvr) {
            Some((_, len)) => self.prim_done(nargs, Oop::from_small_int(len as i64)),
            None => PrimOutcome::Fail,
        }
    }

    fn prim_replace(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let rcvr = self.prim_receiver(nargs);
        let (Some(start), Some(stop), Some(rep_start)) = (
            self.arg(nargs, 0).to_i64(),
            self.arg(nargs, 1).to_i64(),
            self.arg(nargs, 3).to_i64(),
        ) else {
            return PrimOutcome::Fail;
        };
        let replacement = self.arg(nargs, 2);
        let (Some((dfmt, dlen)), Some((sfmt, slen))) =
            (self.indexable_info(rcvr), self.indexable_info(replacement))
        else {
            return PrimOutcome::Fail;
        };
        if dfmt.bytes != sfmt.bytes {
            return PrimOutcome::Fail;
        }
        if start < 1 || stop < start - 1 || stop as usize > dlen {
            return PrimOutcome::Fail;
        }
        let count = (stop - start + 1) as usize;
        if rep_start < 1 || (rep_start as usize + count).saturating_sub(1) > slen {
            return PrimOutcome::Fail;
        }
        let (d0, s0) = (start as usize - 1, rep_start as usize - 1);
        if dfmt.bytes {
            for i in 0..count {
                let b = mem.byte_at(replacement, s0 + i);
                mem.byte_at_put(rcvr, d0 + i, b);
            }
        } else {
            let dbase = dfmt.inst_size as usize;
            let sbase = sfmt.inst_size as usize;
            for i in 0..count {
                let v = mem.fetch(replacement, sbase + s0 + i);
                mem.store(rcvr, dbase + d0 + i, v);
            }
        }
        self.prim_done(nargs, rcvr)
    }

    // ------------------------------------------------------------------
    // perform: & valueWithArguments:
    // ------------------------------------------------------------------

    fn prim_value_with_arguments(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let array = self.arg(nargs, 0);
        if !array.is_object() || mem.header(array).format() != ObjFormat::Pointers {
            return PrimOutcome::Fail;
        }
        let n = mem.header(array).body_words();
        let rcvr = self.prim_receiver(nargs);
        if mem.class_of(rcvr) != mem.specials().get(So::ClassBlockContext)
            || mem.fetch(rcvr, block_ctx::NARGS).as_small_int() as usize != n
        {
            return PrimOutcome::Fail;
        }
        // Rewrite the frame [block, array] into [block, a0.. an-1] and
        // delegate to block_value. Restart-safe: block_value allocates
        // nothing.
        self.set_sp(self.sp() - 1); // drop the array (values copied below)
        for i in 0..n {
            let v = mem.fetch(array, i);
            self.push(v);
        }
        self.block_value(n)
    }

    /// `perform:` and friends. See DESIGN.md: to keep the restart-on-GC
    /// protocol sound the primitive forces a scavenge up front when eden
    /// headroom is low, because it must shuffle the stack before the inner
    /// send (whose own allocations could otherwise demand a restart).
    fn prim_perform(&mut self, nargs: usize, pc0: usize) -> PrimOutcome {
        if nargs == 0 {
            return PrimOutcome::Fail;
        }
        let mem = self.mem();
        if mem.eden_headroom() < 64 << 10 {
            return PrimOutcome::NeedGc;
        }
        let selector = self.arg(nargs, 0);
        if !selector.is_object() || mem.class_of(selector) != mem.specials().get(So::ClassSymbol) {
            return PrimOutcome::Fail;
        }
        // Shift the remaining args down over the selector slot.
        let k = nargs - 1;
        let base = self.sp() - nargs + 1;
        for i in 0..k {
            let v = self.stack_at(base + 1 + i);
            self.stack_at_put(base + i, v);
        }
        self.set_sp(self.sp() - 1);
        self.send_for_prim(pc0, selector, k)
    }

    fn prim_perform_with_arguments(&mut self, nargs: usize, pc0: usize) -> PrimOutcome {
        if nargs != 2 {
            return PrimOutcome::Fail;
        }
        let mem = self.mem();
        if mem.eden_headroom() < 64 << 10 {
            return PrimOutcome::NeedGc;
        }
        let selector = self.arg(nargs, 0);
        let array = self.arg(nargs, 1);
        if !selector.is_object()
            || mem.class_of(selector) != mem.specials().get(So::ClassSymbol)
            || !array.is_object()
            || mem.header(array).format() != ObjFormat::Pointers
        {
            return PrimOutcome::Fail;
        }
        let n = mem.header(array).body_words();
        // [rcvr, sel, array] → [rcvr, a0..an-1]
        self.set_sp(self.sp() - 2);
        for i in 0..n {
            let v = mem.fetch(array, i);
            self.push(v);
        }
        self.send_for_prim(pc0, selector, n)
    }

    // ------------------------------------------------------------------
    // Devices & tools
    // ------------------------------------------------------------------

    fn prim_display_command(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        let arg = self.arg(nargs, 0);
        if !arg.is_object() || mem.header(arg).format() != ObjFormat::Pointers {
            return PrimOutcome::Fail;
        }
        let n = mem.header(arg).body_words();
        let mut vals = [0i64; 8];
        for (i, v) in vals.iter_mut().enumerate().take(n.min(8)) {
            match mem.fetch(arg, i).to_i64() {
                Some(x) => *v = x,
                None => return PrimOutcome::Fail,
            }
        }
        let rule = |r: i64| match r {
            1 => CombinationRule::And,
            2 => CombinationRule::Paint,
            3 => CombinationRule::Reverse,
            4 => CombinationRule::Erase,
            _ => CombinationRule::Over,
        };
        let cmd = match vals[0] {
            0 => DisplayCommand::Clear,
            1 => DisplayCommand::Plot {
                x: vals[1] as u16,
                y: vals[2] as u16,
                on: vals[3] != 0,
            },
            2 => DisplayCommand::FillRect {
                x: vals[1] as u16,
                y: vals[2] as u16,
                w: vals[3] as u16,
                h: vals[4] as u16,
                rule: rule(vals[5]),
            },
            3 => DisplayCommand::CopyRect {
                sx: vals[1] as u16,
                sy: vals[2] as u16,
                dx: vals[3] as u16,
                dy: vals[4] as u16,
                w: vals[5] as u16,
                h: vals[6] as u16,
                rule: rule(vals[7]),
            },
            _ => return PrimOutcome::Fail,
        };
        self.vm().display.post(cmd);
        let rcvr = self.prim_receiver(nargs);
        self.prim_done(nargs, rcvr)
    }

    fn prim_compile(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        if nargs != 1 {
            return PrimOutcome::Fail;
        }
        let class_oop = self.prim_receiver(nargs);
        let src_oop = self.arg(nargs, 0);
        if !src_oop.is_object()
            || mem.header(src_oop).format() != ObjFormat::Bytes
            || !class_oop.is_object()
        {
            return PrimOutcome::Fail;
        }
        let source = mem.str_value(src_oop);
        match compile_and_install(mem, class_oop, "as yet unclassified", &source) {
            Ok(_method) => {
                // Installing a method invalidates every cache.
                self.invalidate_caches_after_install();
                let Ok(selector) = mem.try_intern(
                    &mst_compiler::parse_method(&source)
                        .map(|m| m.selector)
                        .unwrap_or_default(),
                ) else {
                    return PrimOutcome::Fail;
                };
                self.prim_done(nargs, selector)
            }
            Err(_) => {
                let nil = mem.nil();
                self.prim_done(nargs, nil)
            }
        }
    }

    fn prim_decompile(&mut self, nargs: usize) -> PrimOutcome {
        let mem = self.mem();
        if nargs != 1 {
            return PrimOutcome::Fail;
        }
        let class_oop = self.prim_receiver(nargs);
        let sel_oop = self.arg(nargs, 0);
        if !sel_oop.is_object() || !class_oop.is_object() {
            return PrimOutcome::Fail;
        }
        let dict = mem.fetch(class_oop, cls::METHOD_DICT);
        let Some(method) = method_dict_at(mem, dict, sel_oop) else {
            return PrimOutcome::Fail;
        };
        let mh = MethodHeader::decode(mem.fetch(method, 0));
        // Reconstruct the literal frame in compiler-neutral form.
        let mut literals = Vec::with_capacity(mh.num_literals as usize);
        for i in 0..mh.num_literals as usize {
            let lit = mem.fetch(method, MethodHeader::literal_slot(i));
            literals.push(self.literal_to_spec(lit));
        }
        let ivars = crate::install::all_instance_var_names(mem, class_oop);
        let selector = mem.str_value(sel_oop);
        let source = match mst_compiler::decompile(
            &selector,
            mh.num_args,
            mh.num_temps,
            mh.primitive,
            &literals,
            mem.method_bytecodes(method),
            &ivars,
        ) {
            Ok(node) => mst_compiler::print_method(&node),
            Err(_) => return PrimOutcome::Fail,
        };
        match mem.alloc_string(self.token(), &source) {
            Some(o) => self.prim_done(nargs, o),
            None => PrimOutcome::NeedGc,
        }
    }

    /// Converts a heap literal back to the compiler-neutral form (for the
    /// decompiler). Globals' Associations become `GlobalBinding`s.
    fn literal_to_spec(&self, lit: Oop) -> mst_compiler::LitEntry {
        use mst_compiler::ast::Literal;
        use mst_compiler::LitEntry;
        let mem = self.mem();
        if lit.is_small_int() {
            return LitEntry::Value(Literal::Int(lit.as_small_int()));
        }
        let sp = mem.specials();
        if lit == sp.get(So::True) {
            return LitEntry::Value(Literal::True);
        }
        if lit == sp.get(So::False) {
            return LitEntry::Value(Literal::False);
        }
        if lit == mem.nil() {
            return LitEntry::Value(Literal::Nil);
        }
        let class = mem.class_of(lit);
        if class == sp.get(So::ClassSymbol) {
            LitEntry::Value(Literal::Symbol(mem.str_value(lit)))
        } else if class == sp.get(So::ClassString) {
            LitEntry::Value(Literal::Str(mem.str_value(lit)))
        } else if class == sp.get(So::ClassFloat) {
            LitEntry::Value(Literal::Float(mem.float_value(lit)))
        } else if class == sp.get(So::ClassCharacter) {
            LitEntry::Value(Literal::Char(mem.fetch(lit, 0).as_small_int() as u8))
        } else if class == sp.get(So::ClassByteArray) {
            LitEntry::Value(Literal::ByteArray(mem.bytes(lit).to_vec()))
        } else if class == sp.get(So::ClassAssociation) {
            let key = mem.fetch(lit, mst_objmem::layout::assoc::KEY);
            LitEntry::GlobalBinding(mem.str_value(key))
        } else if class == sp.get(So::ClassArray) {
            let items = (0..mem.header(lit).body_words())
                .map(|i| match self.literal_to_spec(mem.fetch(lit, i)) {
                    LitEntry::Value(v) => v,
                    _ => Literal::Nil,
                })
                .collect();
            LitEntry::Value(Literal::Array(items))
        } else {
            // A class literal (super-send method-class slot).
            LitEntry::MethodClass
        }
    }
}
