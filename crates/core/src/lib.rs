//! Vectorscope: dynamic trace-based analysis of the SIMD vectorization
//! potential of programs.
//!
//! This crate is a from-scratch reproduction of the analysis published as
//! *Dynamic Trace-Based Analysis of Vectorization Potential of Applications*
//! (Holewinski et al., PLDI 2012). Given a sequential execution trace, it
//! answers, per static floating-point instruction: *how many of this
//! instruction's run-time instances could execute as one SIMD operation,
//! under any dependence-preserving reordering of the whole computation, and
//! do they touch memory contiguously?*
//!
//! The pipeline (each stage has its own crate; this crate adds the paper's
//! novel analyses and a one-call driver):
//!
//! 1. **Compile** Kern source to IR (`vectorscope-frontend`).
//! 2. **Profile** a run to find hot loops (`vectorscope-interp`), like the
//!    paper's HPCToolkit step.
//! 3. **Capture** sampled instances of each hot loop in one run, keeping one.
//! 4. **Build the DDG** as the events happen — flow dependences only (`vectorscope-ddg`).
//! 5. **[`partition()`](partition())** — Algorithm 1: per-statement timestamps placing
//!    every instance at its earliest slot; equal timestamps ⇒ independent
//!    (maximal per-statement parallelism, Properties 3.1/3.2).
//! 6. **[`stride`]** — split each parallel partition into unit/zero-stride
//!    subpartitions (§3.2), then regroup leftover singletons at any fixed
//!    non-unit stride (§3.3, the data-layout-transformation indicator).
//! 7. **[`metrics`]/[`report`]** — the paper's table columns: Average
//!    Concurrency, Percent Vec. Ops and Average Vec. Size (unit and
//!    non-unit), rendered per hot loop as `file : line` rows.
//!
//! The [`reduction`] module implements the extension the paper sketches in
//! §3/§4.1: detecting `s += expr` chains and optionally ignoring their
//! self-dependences so reduction-style vectorization potential becomes
//! visible.
//!
//! Stages 5–7 run on a deterministic work pool (`rayon_lite`, vendored):
//! the hot loops of one program and the programs of a batch
//! ([`analyze_sources`]) fan out across [`AnalysisOptions::threads`]
//! workers (the stride stages run serially inside them), and every report
//! is **byte-identical at every thread count** — a contract enforced by the
//! `determinism` differential test suite and the `golden` snapshots.
//!
//! # Quick start
//!
//! ```
//! use vectorscope::{analyze_source, AnalysisOptions};
//!
//! let src = r#"
//!     const int N = 64;
//!     double a[N]; double b[N]; double c[N];
//!     void main() {
//!         for (int i = 0; i < N; i++) { b[i] = 1.0; c[i] = 2.0; }
//!         for (int i = 0; i < N; i++) { a[i] = b[i] * c[i]; }
//!     }
//! "#;
//! let suite = analyze_source("axpy.kern", src, &AnalysisOptions::default())?;
//! let row = &suite.loops[0];
//! assert!(row.metrics.pct_unit_vec_ops > 99.0); // fully vectorizable
//! # Ok::<(), vectorscope::Error>(())
//! ```

#![deny(missing_docs)]

pub mod control;
mod driver;
pub mod gap;
pub mod json;
pub mod metrics;
pub mod partition;
pub mod reduction;
pub mod report;
pub mod stream;
pub mod stride;
pub mod triage;

pub use driver::{
    analyze_loop, analyze_program, analyze_source, analyze_sources, program_ddg, stream_program,
    AnalysisOptions, Error, InstancePick, LoopAnalysis, ProgramAnalysis, SuiteReport,
};
pub use gap::{analyze_gap, analyze_gap_sources, GapSuite, LoopGap};
pub use metrics::{InstMetrics, LoopMetrics, VecLengthHistogram};
pub use partition::{partition, partition_all, Partitions};
pub use report::LoopReport;
pub use stream::{StreamOutcome, StreamStats, StreamingAnalyzer};
pub use stride::{non_unit_stride, unit_stride, StrideReport};
pub use vectorscope_ddg::CandidatePolicy;
pub use vectorscope_interp::Engine;
