//! The interpreter: execution, cycle accounting, and trace capture.

use crate::cost::CostModel;
use crate::decode::{Action, DecodedModule, Edge, Opnd, NO_LOOP};
use crate::memory::Memory;
use crate::profiler::Profiler;
use std::fmt;
use std::rc::Rc;
use vectorscope_ir::loops::{LoopForest, LoopId};
use vectorscope_ir::{
    BinOp, CmpOp, FuncId, InstId, Intrinsic, Module, RegId, ScalarTy, Span, UnOp,
};
use vectorscope_trace::{Trace, TraceEvent};

/// A run-time scalar value.
///
/// Pointers are carried as `Int` (byte addresses); `f32` values are carried
/// as `Float` already rounded to f32 precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer or pointer.
    Int(i64),
    /// Floating point.
    Float(f64),
}

impl RtVal {
    /// The value as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float (the verifier prevents this for
    /// verified modules).
    pub fn as_int(self) -> i64 {
        match self {
            RtVal::Int(i) => i,
            RtVal::Float(f) => panic!("expected int, found float {f}"),
        }
    }

    /// The value as a float.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_float(self) -> f64 {
        match self {
            RtVal::Float(f) => f,
            RtVal::Int(i) => panic!("expected float, found int {i}"),
        }
    }
}

impl fmt::Display for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::Int(i) => write!(f, "{i}"),
            RtVal::Float(x) => write!(f, "{x}"),
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A run-time trap (bad memory access, division by zero, ...).
    Trap {
        /// What happened.
        message: String,
        /// Source location of the trapping instruction.
        span: Span,
    },
    /// The configured instruction budget was exhausted (probable infinite
    /// loop).
    OutOfFuel {
        /// The innermost loop that was executing when the budget ran out,
        /// or `None` outside any loop.
        in_loop: Option<LoopSite>,
    },
    /// The stack region exceeded the memory limit.
    StackOverflow,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Trap { message, span } => write!(f, "trap at {span}: {message}"),
            VmError::OutOfFuel { in_loop: None } => write!(f, "instruction budget exhausted"),
            VmError::OutOfFuel {
                in_loop: Some(site),
            } => write!(
                f,
                "instruction budget exhausted in the loop at line {} of `{}`",
                site.line, site.func
            ),
            VmError::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

impl std::error::Error for VmError {}

/// Where a loop sits in the source: its function and the first source line
/// of its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSite {
    /// The containing function's name.
    pub func: String,
    /// 1-based source line of the loop header (0 when synthesized).
    pub line: u32,
}

/// The VM execution engine.
///
/// There is one engine, the pre-decoded bytecode engine; this type and the
/// `engine` option fields that carry it stay only so existing callers
/// compile. Nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Pre-decoded flat bytecode with fused superinstructions.
    #[default]
    Decoded,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Maximum number of executed instructions before [`VmError::OutOfFuel`].
    pub fuel: u64,
    /// Memory limit in bytes (globals + stack).
    pub mem_limit: u64,
    /// Cycle cost table for the profiler.
    pub cost: CostModel,
    /// The execution engine (a single variant; kept only so existing
    /// callers compile).
    pub engine: Engine,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel: 2_000_000_000,
            mem_limit: 256 << 20,
            cost: CostModel::default(),
            engine: Engine::default(),
        }
    }
}

/// What to capture into a trace.
///
/// The paper's unit of analysis is one dynamic instance of one loop: "a
/// subtrace was started upon loop entry and terminated upon loop exit".
/// Instances are numbered from 0 in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSpec {
    /// One dynamic instance of a natural loop (entered from outside),
    /// including everything executed by calls made inside the loop.
    Loop {
        /// The loop's function.
        func: FuncId,
        /// The loop within that function.
        loop_id: LoopId,
        /// Which dynamic instance (0-based).
        instance: u64,
    },
    /// One activation of a function (0-based instance across the run).
    Function {
        /// The function.
        func: FuncId,
        /// Which activation (0-based).
        instance: u64,
    },
    /// The entire run.
    Program,
}

/// A consumer of trace events pushed by the VM as they happen.
///
/// Unlike a buffered [`Trace`] capture, a sink never materializes the event
/// stream: the streaming analysis engine rides on this to keep peak memory
/// proportional to *live* analysis state instead of trace length.
pub type EventSink<'m> = Box<dyn FnMut(&TraceEvent) + 'm>;

/// Where an armed capture delivers its events: into a buffered [`Trace`]
/// (the batch pipeline) or into a push-style [`EventSink`] (the streaming
/// pipeline). Both share the same activation gating.
enum CaptureBody<'m> {
    Trace(Trace),
    Sink(EventSink<'m>),
}

impl fmt::Debug for CaptureBody<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureBody::Trace(t) => f.debug_tuple("Trace").field(t).finish(),
            CaptureBody::Sink(_) => f.write_str("Sink(..)"),
        }
    }
}

#[derive(Debug)]
struct Capture<'m> {
    spec: CaptureSpec,
    body: CaptureBody<'m>,
    active: bool,
    done: bool,
    seen: u64,
    /// Call-stack depth (frames.len()) at activation.
    start_depth: usize,
}

impl<'m> Capture<'m> {
    fn new(spec: CaptureSpec, label: &str) -> Self {
        Capture::with_body(spec, CaptureBody::Trace(Trace::new(label)))
    }

    fn new_sink(spec: CaptureSpec, sink: EventSink<'m>) -> Self {
        Capture::with_body(spec, CaptureBody::Sink(sink))
    }

    fn with_body(spec: CaptureSpec, body: CaptureBody<'m>) -> Self {
        Capture {
            spec,
            body,
            active: matches!(spec, CaptureSpec::Program),
            done: false,
            seen: 0,
            start_depth: 0,
        }
    }
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    regs: Vec<RtVal>,
    frame_base: u64,
    activation: u32,
    ip: usize,
    ret_dst: Option<RegId>,
}

/// The vectorscope virtual machine.
///
/// See the [crate docs](crate) for the role it plays in the reproduction.
#[derive(Debug)]
pub struct Vm<'m> {
    module: &'m Module,
    forests: Vec<LoopForest>,
    mem: Memory,
    profiler: Profiler,
    options: VmOptions,
    fuel_used: u64,
    captures: Vec<Capture<'m>>,
    next_activation: u32,
    inst_counts: Vec<u64>,
    branch_taken: Vec<u64>,
    /// Flat bytecode, built once at construction (shared so the dispatch
    /// loop can hold a reference while the VM is borrowed mutably).
    decoded: Rc<DecodedModule>,
    /// Indices of currently active captures, so the emit path walks only
    /// live consumers; rebuilt lazily when stale.
    active_idx: Vec<u32>,
    active_dirty: bool,
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module` with default options.
    pub fn new(module: &'m Module) -> Self {
        Vm::with_options(module, VmOptions::default())
    }

    /// Creates a VM with explicit options.
    pub fn with_options(module: &'m Module, options: VmOptions) -> Self {
        let forests: Vec<LoopForest> = module.functions().iter().map(LoopForest::new).collect();
        let mem = Memory::for_module(module, options.mem_limit);
        let inst_counts = vec![0; module.num_inst_ids()];
        let branch_taken = vec![0; module.num_inst_ids()];
        let decoded = Rc::new(DecodedModule::build(module, &forests, &options.cost));
        Vm {
            module,
            forests,
            mem,
            profiler: Profiler::new(),
            options,
            fuel_used: 0,
            captures: Vec::new(),
            next_activation: 0,
            inst_counts,
            branch_taken,
            decoded,
            active_idx: Vec::new(),
            active_dirty: true,
        }
    }

    /// The loop forests of all functions (index = `FuncId::index()`).
    pub fn forests(&self) -> &[LoopForest] {
        &self.forests
    }

    /// The profiler with accumulated cycle counts.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Dynamic execution counts per static instruction (index =
    /// `InstId::index()`), accumulated across all runs of this VM.
    pub fn inst_counts(&self) -> &[u64] {
        &self.inst_counts
    }

    /// Total instructions executed so far (across all runs of this VM).
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Taken counts per conditional branch (index = the terminator's
    /// `InstId::index()`); together with [`Vm::inst_counts`] this yields
    /// per-branch outcome distributions, the raw material of the paper's
    /// proposed control-flow-regularity refinement (§4.4).
    pub fn branch_taken(&self) -> &[u64] {
        &self.branch_taken
    }

    /// The VM memory (for inspecting results after a run).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Arms a buffered trace capture; call before [`Vm::run`].
    ///
    /// Replaces any previously armed captures with this single one. To
    /// record several sub-traces in one execution, follow with
    /// [`Vm::add_capture`]. The analysis driver never buffers (it arms
    /// sinks, [`Vm::add_sink`]); buffered captures serve `vscope trace`,
    /// Figure 2's loop-level baseline (`crates/bench/src/figures.rs`),
    /// tests and the pipeline benchmark.
    pub fn set_capture(&mut self, spec: CaptureSpec, label: &str) {
        self.captures = vec![Capture::new(spec, label)];
        self.active_dirty = true;
    }

    /// Arms an additional capture alongside those already armed.
    ///
    /// All armed captures record simultaneously during the next
    /// [`Vm::run`]: one execution can yield sub-traces for several
    /// (loop, instance) targets without replaying the program once per
    /// target. Only tests and the pipeline benchmark arm several buffered
    /// captures; the analysis driver arms sinks instead.
    pub fn add_capture(&mut self, spec: CaptureSpec, label: &str) {
        self.captures.push(Capture::new(spec, label));
        self.active_dirty = true;
    }

    /// Arms a push-style event sink alongside any captures already armed.
    ///
    /// The sink receives every [`TraceEvent`] the capture would have
    /// buffered, *as it happens*, under exactly the same activation gating
    /// as [`Vm::add_capture`] (same spec semantics, same instance
    /// selection, same start/stop boundaries) — but nothing is retained by
    /// the VM, so memory stays flat no matter how long the region runs.
    /// Every capture of the analysis driver is a sink: whole-program and
    /// hot-loop DDG builders and the streaming engine.
    ///
    /// Sinks and buffered captures can be armed together; sinks simply
    /// yield an empty trace slot in [`Vm::take_traces`].
    pub fn add_sink(&mut self, spec: CaptureSpec, sink: EventSink<'m>) {
        self.captures.push(Capture::new_sink(spec, sink));
        self.active_dirty = true;
    }

    /// Takes the captured trace, if capture was armed and fired.
    ///
    /// With several armed captures this returns the first; use
    /// [`Vm::take_traces`] to collect all of them. For buffered captures
    /// only (see [`Vm::set_capture`] for who still buffers).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.active_dirty = true;
        if self.captures.is_empty() {
            None
        } else {
            match self.captures.remove(0).body {
                CaptureBody::Trace(t) => Some(t),
                CaptureBody::Sink(_) => None,
            }
        }
    }

    /// Takes every captured trace, in the order the captures were armed.
    ///
    /// Captures that never fired yield their (empty) traces too, so the
    /// result lines up index-for-index with the arming calls; sink
    /// captures contribute an empty placeholder trace. For buffered
    /// captures only (see [`Vm::set_capture`] for who still buffers).
    pub fn take_traces(&mut self) -> Vec<Trace> {
        self.active_dirty = true;
        std::mem::take(&mut self.captures)
            .into_iter()
            .map(|c| match c.body {
                CaptureBody::Trace(t) => t,
                CaptureBody::Sink(_) => Trace::new("sink"),
            })
            .collect()
    }

    /// Reads element `index` of a scalar-element global by name.
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist or has no scalar element type.
    pub fn read_global(&self, name: &str, index: u64) -> f64 {
        let gid = self
            .module
            .lookup_global(name)
            .unwrap_or_else(|| panic!("no global `{name}`"));
        let g = self.module.global(gid);
        let ty = g
            .elem_ty
            .unwrap_or_else(|| panic!("global `{name}` is opaque"));
        let addr = self.mem.global_base(gid) + index * ty.size();
        self.mem.read_scalar(addr, ty)
    }

    /// Runs `main` (no arguments).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on trap, fuel exhaustion, or stack overflow;
    /// also traps if the module has no `main`.
    pub fn run_main(&mut self) -> Result<Option<RtVal>, VmError> {
        let main = self.module.lookup_function("main").ok_or(VmError::Trap {
            message: "module has no `main` function".into(),
            span: Span::SYNTH,
        })?;
        self.run(main, &[])
    }

    /// Runs `func` with `args` to completion and returns its result.
    ///
    /// The flat profiling counters are flushed into the [`Profiler`] on
    /// every exit path, so profiles stay complete even after an error.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on trap, fuel exhaustion, or stack overflow.
    pub fn run(&mut self, func: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, VmError> {
        let dm = Rc::clone(&self.decoded);
        let mut prof = FlatProfile {
            loop_cycles: vec![0; dm.loop_keys.len()],
            loop_entries: vec![0; dm.loop_keys.len()],
            total: 0,
        };
        let result = self.run_inner(&dm, func, args, &mut prof);
        let mut in_loops = 0u64;
        for (i, &c) in prof.loop_cycles.iter().enumerate() {
            if c > 0 {
                self.profiler.charge(Some(dm.loop_keys[i]), c);
                in_loops += c;
            }
        }
        if prof.total > in_loops {
            self.profiler.charge(None, prof.total - in_loops);
        }
        for (i, &n) in prof.loop_entries.iter().enumerate() {
            if n > 0 {
                self.profiler.add_entries(dm.loop_keys[i], n);
            }
        }
        result
    }

    /// Pushes an activation of `func` positioned at its entry block.
    fn push_frame(
        &mut self,
        dm: &DecodedModule,
        frames: &mut Vec<Frame>,
        func: FuncId,
        args: &[RtVal],
        ret_dst: Option<RegId>,
    ) -> Result<(), VmError> {
        let function = self.module.function(func);
        assert_eq!(
            args.len(),
            function.params().len(),
            "arity mismatch calling `{}`",
            function.name()
        );
        let frame_base = self
            .mem
            .push_frame(function.frame_size())
            .map_err(|_| VmError::StackOverflow)?;
        if frames.len() >= 10_000 {
            return Err(VmError::StackOverflow);
        }
        let mut regs = vec![RtVal::Int(0); function.num_regs()];
        for (i, &a) in args.iter().enumerate() {
            regs[function.params()[i].index()] = a;
        }
        let activation = self.next_activation;
        self.next_activation += 1;
        frames.push(Frame {
            func,
            regs,
            frame_base,
            activation,
            ip: dm.funcs[func.index()].block_pc[function.entry().index()] as usize,
            ret_dst,
        });
        Ok(())
    }

    fn run_inner(
        &mut self,
        dm: &DecodedModule,
        func: FuncId,
        args: &[RtVal],
        prof: &mut FlatProfile,
    ) -> Result<Option<RtVal>, VmError> {
        let mut frames: Vec<Frame> = Vec::new();
        self.push_frame(dm, &mut frames, func, args, None)?;
        // The entry frame itself may be the requested function capture.
        self.check_function_capture(&frames);
        loop {
            let depth = frames.len();
            let frame = frames.last_mut().expect("at least one frame");
            let dop = &dm.funcs[frame.func.index()].code[frame.ip];

            self.fuel_used += 1;
            if self.fuel_used > self.options.fuel {
                return Err(self.out_of_fuel(dm, dop.loop_idx));
            }
            self.inst_counts[dop.inst.index()] += 1;
            prof.total += dop.cost as u64;
            if dop.loop_idx != NO_LOOP {
                prof.loop_cycles[dop.loop_idx as usize] += dop.cost as u64;
            }

            match &dop.action {
                Action::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = opnd_in(frame, *lhs);
                    let b = opnd_in(frame, *rhs);
                    let r =
                        Self::eval_bin(*op, *ty, a, b).map_err(|m| self.trap_at(dop.inst, m))?;
                    frame.regs[*dst as usize] = r;
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::Un { op, ty, dst, src } => {
                    let v = opnd_in(frame, *src);
                    frame.regs[*dst as usize] = match op {
                        UnOp::INeg => RtVal::Int(v.as_int().wrapping_neg()),
                        UnOp::FNeg => {
                            let x = -v.as_float();
                            RtVal::Float(if *ty == ScalarTy::F32 {
                                (x as f32) as f64
                            } else {
                                x
                            })
                        }
                    };
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::Cmp {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = opnd_in(frame, *lhs);
                    let b = opnd_in(frame, *rhs);
                    frame.regs[*dst as usize] = RtVal::Int(Self::eval_cmp(*op, *ty, a, b) as i64);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::Cast { dst, to, from, src } => {
                    let v = opnd_in(frame, *src);
                    frame.regs[*dst as usize] = Self::eval_cast(*from, *to, v);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::Load { dst, ty, addr } => {
                    let a = opnd_in(frame, *addr).as_int() as u64;
                    if !self.mem.check(a, ty.size()) {
                        return Err(self.trap_at(
                            dop.inst,
                            format!("load of {} bytes at {a:#x} out of bounds", ty.size()),
                        ));
                    }
                    frame.regs[*dst as usize] = match ty {
                        ScalarTy::I64 | ScalarTy::Ptr => RtVal::Int(self.mem.read_int(a)),
                        _ => RtVal::Float(self.mem.read_scalar(a, *ty)),
                    };
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, Some(a));
                    self.emit_active(ev);
                }
                Action::Store { ty, addr, value } => {
                    let a = opnd_in(frame, *addr).as_int() as u64;
                    if !self.mem.check(a, ty.size()) {
                        return Err(self.trap_at(
                            dop.inst,
                            format!("store of {} bytes at {a:#x} out of bounds", ty.size()),
                        ));
                    }
                    let v = opnd_in(frame, *value);
                    match ty {
                        ScalarTy::I64 | ScalarTy::Ptr => self.mem.write_int(a, v.as_int()),
                        _ => self.mem.write_scalar(a, v.as_float(), *ty),
                    }
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, Some(a));
                    self.emit_active(ev);
                }
                Action::Gep1 {
                    dst,
                    base,
                    idx,
                    scale,
                    offset,
                } => {
                    let base = opnd_in(frame, *base).as_int();
                    let i = opnd_in(frame, *idx).as_int();
                    let addr = base
                        .wrapping_add(i.wrapping_mul(*scale))
                        .wrapping_add(*offset);
                    frame.regs[*dst as usize] = RtVal::Int(addr);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::GepN {
                    dst,
                    base,
                    pairs,
                    offset,
                } => {
                    let mut addr = opnd_in(frame, *base).as_int();
                    for (idx, scale) in pairs.iter() {
                        let i = opnd_in(frame, *idx).as_int();
                        addr = addr.wrapping_add(i.wrapping_mul(*scale));
                    }
                    addr = addr.wrapping_add(*offset);
                    frame.regs[*dst as usize] = RtVal::Int(addr);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::Call { dst, callee, args } => {
                    let argv: Vec<RtVal> = args.iter().map(|&a| opnd_in(frame, a)).collect();
                    let dst = *dst;
                    let callee = *callee;
                    frame.ip += 1;
                    let caller_activation = frame.activation;
                    let callee_activation = self.next_activation;
                    self.emit_active(TraceEvent::call(
                        dop.inst,
                        caller_activation,
                        callee_activation,
                    ));
                    self.push_frame(dm, &mut frames, callee, &argv, dst)?;
                    self.check_function_capture(&frames);
                }
                Action::Intrin {
                    dst,
                    which,
                    ty,
                    args,
                    arity,
                } => {
                    let mut xs = [0.0f64; 2];
                    let n = *arity as usize;
                    for (slot, &a) in xs.iter_mut().zip(args.iter()).take(n) {
                        *slot = opnd_in(frame, a).as_float();
                    }
                    let r = Self::eval_intrinsic(*which, &xs[..n]);
                    frame.regs[*dst as usize] = RtVal::Float(if *ty == ScalarTy::F32 {
                        (r as f32) as f64
                    } else {
                        r
                    });
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::FrameAddr { dst, offset } => {
                    frame.regs[*dst as usize] = RtVal::Int((frame.frame_base + offset) as i64);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::GlobalAddr { dst, global } => {
                    frame.regs[*dst as usize] = RtVal::Int(self.mem.global_base(*global) as i64);
                    frame.ip += 1;
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::LoadBin {
                    load_dst,
                    load_ty,
                    addr,
                    bin_inst,
                    bin_cost,
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    // First constituent (the load); the shared preamble
                    // above already charged it.
                    let a = opnd_in(frame, *addr).as_int() as u64;
                    if !self.mem.check(a, load_ty.size()) {
                        return Err(self.trap_at(
                            dop.inst,
                            format!("load of {} bytes at {a:#x} out of bounds", load_ty.size()),
                        ));
                    }
                    frame.regs[*load_dst as usize] = match load_ty {
                        ScalarTy::I64 | ScalarTy::Ptr => RtVal::Int(self.mem.read_int(a)),
                        _ => RtVal::Float(self.mem.read_scalar(a, *load_ty)),
                    };
                    let ev = TraceEvent::plain(dop.inst, frame.activation, Some(a));
                    self.emit_active(ev);
                    // Second constituent (the binary op): its own fuel,
                    // count, and cycle charges, exactly as if unfused.
                    self.fuel_used += 1;
                    if self.fuel_used > self.options.fuel {
                        return Err(self.out_of_fuel(dm, dop.loop_idx));
                    }
                    self.inst_counts[bin_inst.index()] += 1;
                    prof.total += *bin_cost as u64;
                    if dop.loop_idx != NO_LOOP {
                        prof.loop_cycles[dop.loop_idx as usize] += *bin_cost as u64;
                    }
                    let x = opnd_in(frame, *lhs);
                    let y = opnd_in(frame, *rhs);
                    let r =
                        Self::eval_bin(*op, *ty, x, y).map_err(|m| self.trap_at(*bin_inst, m))?;
                    frame.regs[*dst as usize] = r;
                    frame.ip += 1;
                    let ev = TraceEvent::plain(*bin_inst, frame.activation, None);
                    self.emit_active(ev);
                }
                Action::CmpBr {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                    br_inst,
                    br_cost,
                    then_edge,
                    else_edge,
                } => {
                    let a = opnd_in(frame, *lhs);
                    let b = opnd_in(frame, *rhs);
                    let taken = Self::eval_cmp(*op, *ty, a, b);
                    frame.regs[*dst as usize] = RtVal::Int(taken as i64);
                    let ev = TraceEvent::plain(dop.inst, frame.activation, None);
                    self.emit_active(ev);
                    // Second constituent (the branch).
                    self.fuel_used += 1;
                    if self.fuel_used > self.options.fuel {
                        return Err(self.out_of_fuel(dm, dop.loop_idx));
                    }
                    self.inst_counts[br_inst.index()] += 1;
                    prof.total += *br_cost as u64;
                    if dop.loop_idx != NO_LOOP {
                        prof.loop_cycles[dop.loop_idx as usize] += *br_cost as u64;
                    }
                    if taken {
                        self.branch_taken[br_inst.index()] += 1;
                    }
                    let edge = if taken { *then_edge } else { *else_edge };
                    let func = frame.func;
                    frame.ip = edge.pc as usize;
                    self.take_edge(dm, func, edge, depth, prof);
                }
                Action::Br { edge } => {
                    let edge = *edge;
                    let func = frame.func;
                    frame.ip = edge.pc as usize;
                    self.take_edge(dm, func, edge, depth, prof);
                }
                Action::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    let c = opnd_in(frame, *cond).as_int();
                    if c != 0 {
                        self.branch_taken[dop.inst.index()] += 1;
                    }
                    let edge = if c != 0 { *then_edge } else { *else_edge };
                    let func = frame.func;
                    frame.ip = edge.pc as usize;
                    self.take_edge(dm, func, edge, depth, prof);
                }
                Action::Ret { value } => {
                    let v = value.map(|o| opnd_in(frame, o));
                    let activation = frame.activation;
                    let frame_base = frame.frame_base;
                    let ret_dst = frame.ret_dst;
                    // Loop capture ends if the starting frame returns.
                    let mut changed = false;
                    for c in &mut self.captures {
                        if c.active
                            && depth == c.start_depth
                            && !matches!(c.spec, CaptureSpec::Program)
                        {
                            c.active = false;
                            c.done = true;
                            changed = true;
                        }
                    }
                    if changed {
                        self.active_dirty = true;
                    }
                    self.emit_active(TraceEvent::ret(dop.inst, activation));
                    self.mem.pop_frame(frame_base);
                    frames.pop();
                    match frames.last_mut() {
                        None => return Ok(v),
                        Some(caller) => {
                            if let (Some(dst), Some(v)) = (ret_dst, v) {
                                caller.regs[dst.index()] = v;
                            }
                            // Function capture: deactivate when leaving the
                            // captured activation's depth.
                            let mut changed = false;
                            for c in &mut self.captures {
                                if c.active
                                    && matches!(c.spec, CaptureSpec::Function { .. })
                                    && frames.len() < c.start_depth
                                {
                                    c.active = false;
                                    c.done = true;
                                    changed = true;
                                }
                            }
                            if changed {
                                self.active_dirty = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Bookkeeping for a taken control-flow edge: flat loop-entry counts
    /// plus loop-capture activation/stop, driven by the edge's pre-computed
    /// list of entered loops.
    fn take_edge(
        &mut self,
        dm: &DecodedModule,
        func: FuncId,
        edge: Edge,
        depth: usize,
        prof: &mut FlatProfile,
    ) {
        let entered = &dm.funcs[func.index()].entered_pool
            [edge.entered_off as usize..(edge.entered_off + edge.entered_len) as usize];
        for &d in entered {
            prof.loop_entries[d as usize] += 1;
        }
        if !self.captures.is_empty() {
            let forest = &self.forests[func.index()];
            let cur = edge.block;
            let mut changed = false;
            for c in &mut self.captures {
                if c.done {
                    continue;
                }
                if let CaptureSpec::Loop {
                    func: cf,
                    loop_id,
                    instance,
                } = c.spec
                {
                    if c.active {
                        // Exit: back in the start frame, moving to a block
                        // outside the loop.
                        if depth == c.start_depth
                            && cf == func
                            && !forest.get(loop_id).contains(cur)
                        {
                            c.active = false;
                            c.done = true;
                            changed = true;
                        }
                    } else if cf == func
                        && entered
                            .iter()
                            .any(|&d| dm.loop_keys[d as usize].loop_id == loop_id)
                    {
                        if c.seen == instance {
                            c.active = true;
                            c.start_depth = depth;
                            changed = true;
                        }
                        c.seen += 1;
                    }
                }
            }
            if changed {
                self.active_dirty = true;
            }
        }
    }

    /// Emits `event` to all active captures via the cached active-index
    /// list (rebuilt lazily after any capture state change).
    #[inline]
    fn emit_active(&mut self, event: TraceEvent) {
        if self.active_dirty {
            self.rebuild_active();
        }
        for k in 0..self.active_idx.len() {
            let i = self.active_idx[k] as usize;
            match &mut self.captures[i].body {
                CaptureBody::Trace(t) => t.push(event),
                CaptureBody::Sink(sink) => sink(&event),
            }
        }
    }

    fn rebuild_active(&mut self) {
        self.active_idx.clear();
        for (i, c) in self.captures.iter().enumerate() {
            if c.active {
                self.active_idx.push(i as u32);
            }
        }
        self.active_dirty = false;
    }

    /// A [`VmError::OutOfFuel`] naming the loop with dense index
    /// `loop_idx` (cold path: the name and line lookups only happen when
    /// the budget actually runs out).
    #[cold]
    fn out_of_fuel(&self, dm: &DecodedModule, loop_idx: u32) -> VmError {
        let in_loop = (loop_idx != NO_LOOP).then(|| {
            let key = dm.loop_keys[loop_idx as usize];
            let function = self.module.function(key.func);
            LoopSite {
                func: function.name().to_string(),
                line: self.forests[key.func.index()]
                    .span_of(function, key.loop_id)
                    .line,
            }
        });
        VmError::OutOfFuel { in_loop }
    }

    /// A [`VmError::Trap`] at instruction `id` (cold path: the span lookup
    /// only happens when a trap actually fires).
    #[cold]
    fn trap_at(&self, id: InstId, message: String) -> VmError {
        VmError::Trap {
            message,
            span: self.module.span_of(id),
        }
    }

    /// Activates function capture when the just-pushed frame matches.
    fn check_function_capture(&mut self, frames: &[Frame]) {
        let mut changed = false;
        for c in &mut self.captures {
            if c.done || c.active {
                continue;
            }
            if let CaptureSpec::Function { func, instance } = c.spec {
                if frames.last().map(|f| f.func) == Some(func) {
                    if c.seen == instance {
                        c.active = true;
                        c.start_depth = frames.len();
                        changed = true;
                    }
                    c.seen += 1;
                }
            }
        }
        if changed {
            self.active_dirty = true;
        }
    }

    fn eval_bin(op: BinOp, ty: ScalarTy, a: RtVal, b: RtVal) -> Result<RtVal, String> {
        Ok(match op {
            BinOp::IAdd => RtVal::Int(a.as_int().wrapping_add(b.as_int())),
            BinOp::ISub => RtVal::Int(a.as_int().wrapping_sub(b.as_int())),
            BinOp::IMul => RtVal::Int(a.as_int().wrapping_mul(b.as_int())),
            BinOp::IDiv => {
                let d = b.as_int();
                if d == 0 {
                    return Err("integer division by zero".into());
                }
                RtVal::Int(a.as_int().wrapping_div(d))
            }
            BinOp::IRem => {
                let d = b.as_int();
                if d == 0 {
                    return Err("integer remainder by zero".into());
                }
                RtVal::Int(a.as_int().wrapping_rem(d))
            }
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
                let (x, y) = (a.as_float(), b.as_float());
                let r = if ty == ScalarTy::F32 {
                    let (x, y) = (x as f32, y as f32);
                    (match op {
                        BinOp::FAdd => x + y,
                        BinOp::FSub => x - y,
                        BinOp::FMul => x * y,
                        BinOp::FDiv => x / y,
                        _ => unreachable!(),
                    }) as f64
                } else {
                    match op {
                        BinOp::FAdd => x + y,
                        BinOp::FSub => x - y,
                        BinOp::FMul => x * y,
                        BinOp::FDiv => x / y,
                        _ => unreachable!(),
                    }
                };
                RtVal::Float(r)
            }
        })
    }

    fn eval_cmp(op: CmpOp, ty: ScalarTy, a: RtVal, b: RtVal) -> bool {
        if ty.is_float() {
            let (x, y) = (a.as_float(), b.as_float());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        } else {
            let (x, y) = (a.as_int(), b.as_int());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
    }

    fn eval_cast(from: ScalarTy, to: ScalarTy, v: RtVal) -> RtVal {
        match (from, to) {
            (ScalarTy::I64 | ScalarTy::Ptr, ScalarTy::I64 | ScalarTy::Ptr) => {
                RtVal::Int(v.as_int())
            }
            (ScalarTy::I64 | ScalarTy::Ptr, ScalarTy::F64) => RtVal::Float(v.as_int() as f64),
            (ScalarTy::I64 | ScalarTy::Ptr, ScalarTy::F32) => {
                RtVal::Float((v.as_int() as f32) as f64)
            }
            (ScalarTy::F64 | ScalarTy::F32, ScalarTy::I64 | ScalarTy::Ptr) => {
                RtVal::Int(v.as_float() as i64)
            }
            (ScalarTy::F32, ScalarTy::F64) => RtVal::Float(v.as_float()),
            (ScalarTy::F64, ScalarTy::F32) => RtVal::Float((v.as_float() as f32) as f64),
            (ScalarTy::F32, ScalarTy::F32) | (ScalarTy::F64, ScalarTy::F64) => {
                RtVal::Float(v.as_float())
            }
        }
    }

    fn eval_intrinsic(which: Intrinsic, xs: &[f64]) -> f64 {
        match which {
            Intrinsic::Exp => xs[0].exp(),
            Intrinsic::Log => xs[0].ln(),
            Intrinsic::Sqrt => xs[0].sqrt(),
            Intrinsic::Fabs => xs[0].abs(),
            Intrinsic::Sin => xs[0].sin(),
            Intrinsic::Cos => xs[0].cos(),
            Intrinsic::Floor => xs[0].floor(),
            Intrinsic::Fmin => xs[0].min(xs[1]),
            Intrinsic::Fmax => xs[0].max(xs[1]),
            Intrinsic::Pow => xs[0].powf(xs[1]),
        }
    }
}

/// Flat per-run profiling accumulators, indexed by the dense loop table of
/// the [`DecodedModule`]; flushed into the [`Profiler`] when the run ends
/// (including error exits).
struct FlatProfile {
    loop_cycles: Vec<u64>,
    loop_entries: Vec<u64>,
    total: u64,
}

/// Reads a pre-resolved operand against the current frame.
#[inline(always)]
fn opnd_in(frame: &Frame, o: Opnd) -> RtVal {
    match o {
        Opnd::Reg(r) => frame.regs[r as usize],
        Opnd::Int(i) => RtVal::Int(i),
        Opnd::Float(f) => RtVal::Float(f),
    }
}
