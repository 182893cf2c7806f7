//! Tracing virtual machine and loop profiler for vectorscope IR.
//!
//! This crate is the dynamic substrate of the reproduction. In the paper,
//! programs are instrumented with LLVM, executed natively to produce a
//! trace, and profiled with HPCToolkit to find hot loops. Here a single
//! deterministic VM provides all three services:
//!
//! * **Execution** — [`Vm`] lowers a [`vectorscope_ir::Module`] once into
//!   flat pre-decoded bytecode with fused superinstructions, then executes
//!   it against a flat byte-addressed [`Memory`], with real IEEE arithmetic
//!   (f32 operations round to f32 per operation). Fuel exhaustion
//!   ([`VmError::OutOfFuel`]) names the innermost loop that was running.
//! * **Profiling** — every executed instruction is charged a cost from the
//!   [`CostModel`] and attributed to the innermost enclosing natural loop;
//!   [`Profiler::hot_loops`] reproduces the paper's hot-loop selection rule
//!   (innermost loops at ≥ N% of cycles; parents only when ≥ 10 points above
//!   the sum of their children).
//! * **Trace capture** — a [`CaptureSpec`] selects one dynamic instance of
//!   one loop (the paper's sub-trace unit: "a subtrace was started upon loop
//!   entry and terminated upon loop exit"), a whole function call, or the
//!   whole program; the VM emits [`vectorscope_trace::TraceEvent`]s while
//!   capture is active, including everything executed by functions called
//!   from inside the region.
//!
//! # Example
//!
//! ```
//! use vectorscope_interp::{Vm, RtVal};
//!
//! let src = "double sq(double x) { return x * x; }";
//! let module = vectorscope_frontend::compile("sq.kern", src).unwrap();
//! let mut vm = Vm::new(&module);
//! let func = module.lookup_function("sq").unwrap();
//! let out = vm.run(func, &[RtVal::Float(3.0)]).unwrap();
//! assert_eq!(out, Some(RtVal::Float(9.0)));
//! ```

#![deny(missing_docs)]

mod cost;
mod decode;
mod memory;
mod profiler;
mod vm;

pub use cost::CostModel;
pub use memory::Memory;
pub use profiler::{HotLoop, LoopKey, LoopProfile, Profiler};
pub use vm::{CaptureSpec, Engine, EventSink, LoopSite, RtVal, Vm, VmError, VmOptions};
