//! End-to-end driver: source → hot loops → sink-built DDGs → reports.

use crate::metrics::{analyze_ddg, InstMetrics, LoopMetrics, MetricOptions};
use crate::report::LoopReport;
use crate::stream::{StreamOutcome, StreamingAnalyzer};
use std::sync::Mutex;
use vectorscope_ddg::{BuildError, CandidatePolicy, Ddg, DdgBuilder};
use vectorscope_frontend::CompileError;
use vectorscope_interp::{CaptureSpec, Engine, LoopKey, LoopProfile, Vm, VmError, VmOptions};
use vectorscope_ir::loops::LoopId;
use vectorscope_ir::{FuncId, InstId, Module};
use vectorscope_trace::TraceEvent;

/// Any failure of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Kern compilation failed.
    Compile(CompileError),
    /// Program execution failed.
    Vm(VmError),
    /// The requested loop produced no trace (never entered).
    EmptyTrace {
        /// The loop's function.
        func: String,
        /// The loop's source line.
        line: u32,
    },
    /// An armed capture handed back no trace. No product path constructs
    /// it (every driver capture is a sink); it stays while the pipeline
    /// benchmark's replica of the driver still names it.
    TraceUnavailable {
        /// What the missing trace was supposed to cover.
        what: String,
    },
    /// The captured region held more dynamic instances than `u32` node ids
    /// can express (see [`vectorscope_ddg::BuildError`]); the DDG builder
    /// and the streaming engine surface this instead of silently
    /// corrupting dependences.
    TraceTooLarge {
        /// How many nodes the region tried to create.
        nodes: usize,
    },
    /// A load or store event of the captured region carries no address
    /// (see [`vectorscope_ddg::BuildError::MissingAddress`]).
    MissingAddress {
        /// The memory instruction of the offending event.
        inst: InstId,
    },
    /// An instruction instance of the captured region has more than 255
    /// operands, more than a DDG node holds (see
    /// [`vectorscope_ddg::BuildError::TooManyOperands`]).
    TooManyOperands {
        /// The offending instruction.
        inst: InstId,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Vm(e) => write!(f, "execution error: {e}"),
            Error::EmptyTrace { func, line } => {
                write!(f, "loop {func}:{line} was never entered; no trace captured")
            }
            Error::TraceUnavailable { what } => {
                write!(f, "no trace available for {what} despite an armed capture")
            }
            Error::TraceTooLarge { nodes } => {
                write!(f, "{}", BuildError::TraceTooLarge { nodes: *nodes })
            }
            Error::MissingAddress { inst } => {
                write!(f, "{}", BuildError::MissingAddress { inst: *inst })
            }
            Error::TooManyOperands { inst } => {
                write!(f, "{}", BuildError::TooManyOperands { inst: *inst })
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Vm(e) => Some(e),
            Error::EmptyTrace { .. }
            | Error::TraceUnavailable { .. }
            | Error::TraceTooLarge { .. }
            | Error::MissingAddress { .. }
            | Error::TooManyOperands { .. } => None,
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Self {
        Error::Vm(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::TraceTooLarge { nodes } => Error::TraceTooLarge { nodes },
            BuildError::MissingAddress { inst } => Error::MissingAddress { inst },
            BuildError::TooManyOperands { inst } => Error::TooManyOperands { inst },
        }
    }
}

/// How to pick the dynamic loop instance whose sub-trace is analyzed.
///
/// The paper "randomly chose several instances of the loop, analyzed each
/// corresponding subtrace ... and chose one representative subtrace". A
/// fixed instance can be unrepresentative — e.g. the first instance of the
/// PDE solver's inner loop runs entirely on the domain boundary and
/// executes no floating-point work at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstancePick {
    /// A specific instance (clamped to the number observed).
    Index(u64),
    /// Sample this many instances spread over the run and keep the one
    /// with the most candidate (FP) operations.
    Representative(u64),
}

/// Options for the end-to-end analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Minimum share of total cycles for a loop to be analyzed (the paper
    /// uses 10%; its extended study drops to 5%).
    pub hot_threshold_pct: f64,
    /// Which dynamic loop instance to capture.
    pub loop_instance: InstancePick,
    /// Break detected reduction chains before partitioning (the paper's
    /// proposed extension; off by default to match the published tables).
    pub break_reductions: bool,
    /// Also characterize integer add/sub/mul/div (the paper's §4
    /// generalization; off by default — the published tables are FP-only).
    pub include_integer_ops: bool,
    /// VM instruction budget per run.
    pub fuel: u64,
    /// Worker threads for the analysis engine: the programs of a batch
    /// ([`analyze_sources`]) and, within one program, its hot loops. `0`
    /// resolves via [`rayon_lite::resolve_threads`]: the
    /// `VSCOPE_THREADS` environment variable if set to a positive integer,
    /// else the machine's available parallelism, clamped to ≥ 1. Reports
    /// are bit-identical at every thread count.
    pub threads: usize,
    /// The VM execution engine. [`Engine`] has a single variant; the field
    /// stays only so existing callers compile, and nothing reads it.
    pub engine: Engine,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            hot_threshold_pct: 10.0,
            loop_instance: InstancePick::Representative(4),
            break_reductions: false,
            include_integer_ops: false,
            fuel: 2_000_000_000,
            threads: 0,
            engine: Engine::default(),
        }
    }
}

impl AnalysisOptions {
    fn vm_options(&self) -> VmOptions {
        VmOptions {
            fuel: self.fuel,
            ..VmOptions::default()
        }
    }

    fn metric_options(&self) -> MetricOptions {
        MetricOptions {
            break_reductions: self.break_reductions,
            ..MetricOptions::default()
        }
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        if self.include_integer_ops {
            CandidatePolicy::IntAndFloatArith
        } else {
            CandidatePolicy::FloatArith
        }
    }
}

/// The output of [`analyze_source`]: the compiled module and one report per
/// hot loop (sorted by percent of cycles, descending).
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The compiled module (kept so callers can attach Percent Packed from
    /// a vectorizer model, or inspect instructions).
    pub module: Module,
    /// Hot-loop reports.
    pub loops: Vec<LoopReport>,
}

impl SuiteReport {
    /// The hot-loop reports with the model vectorizer's *Percent Packed*
    /// attached to each ([`LoopReport::attach_percent_packed`]).
    pub fn into_packed_loops(self) -> Vec<LoopReport> {
        let decisions = vectorscope_autovec::analyze_module(&self.module);
        let mut loops = self.loops;
        for report in &mut loops {
            report.attach_percent_packed(&decisions);
        }
        loops
    }
}

/// The output of [`analyze_loop`]: the report plus the analyzed DDG.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// The loop's report row.
    pub report: LoopReport,
    /// The DDG of the captured sub-trace (for further inspection).
    pub ddg: Ddg,
}

/// The output of [`analyze_program`]: whole-run metrics.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Aggregated table metrics over the whole run.
    pub metrics: LoopMetrics,
    /// Per-instruction breakdown.
    pub per_inst: Vec<InstMetrics>,
    /// The whole-run DDG.
    pub ddg: Ddg,
}

/// Captures and analyzes the entire execution of `main` (used for
/// whole-benchmark rows like the paper's Table 3, where one number
/// characterizes the whole kernel rather than a single loop): [`program_ddg`]
/// followed by [`analyze_ddg`].
///
/// # Errors
///
/// The errors of [`program_ddg`].
pub fn analyze_program(
    module: &Module,
    options: &AnalysisOptions,
) -> Result<ProgramAnalysis, Error> {
    let ddg = program_ddg(module, options)?;
    let (metrics, per_inst) = analyze_ddg(module, &ddg, &options.metric_options());
    Ok(ProgramAnalysis {
        metrics,
        per_inst,
        ddg,
    })
}

/// Builds the DDG of the entire execution of `main` under `options`'
/// candidate policy and fuel: the first half of [`analyze_program`], for
/// callers that inspect the whole-program graph itself (DOT export, the
/// Kumar profile, memory figures, the figures' partitions).
///
/// The graph is built from the VM's event sink while the program runs, so
/// the trace is never buffered.
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails, and [`Error::TraceTooLarge`],
/// [`Error::MissingAddress`] or [`Error::TooManyOperands`] if the run
/// cannot be built into a DDG.
pub fn program_ddg(module: &Module, options: &AnalysisOptions) -> Result<Ddg, Error> {
    let builder = DdgBuilder::new(module, options.candidate_policy());
    let sink = [(CaptureSpec::Program, builder)];
    let builder = run_sinks(module, options, sink, DdgBuilder::push)?.remove(0);
    Ok(builder.finish()?)
}

/// The one capture path: runs `main` once with every `(spec, sink)` of
/// `sinks` armed on one VM, each fed its spec's events through `push`, and
/// hands the sinks back in arming order. A sink costs one boxed call per
/// event it receives.
fn run_sinks<'m, S: 'm>(
    module: &'m Module,
    options: &AnalysisOptions,
    sinks: impl IntoIterator<Item = (CaptureSpec, S)>,
    push: fn(&mut S, &TraceEvent),
) -> Result<Vec<S>, Error> {
    let (specs, mut sinks): (Vec<CaptureSpec>, Vec<S>) = sinks.into_iter().unzip();
    let mut vm = Vm::with_options(module, options.vm_options());
    for (spec, sink) in specs.into_iter().zip(&mut sinks) {
        vm.add_sink(spec, Box::new(move |e| push(sink, e)));
    }
    vm.run_main()?;
    drop(vm); // ends the closures' borrows of `sinks`
    Ok(sinks)
}

/// Streams the entire execution of `main` through the bounded-memory
/// engine ([`crate::stream`]): the whole-program twin of
/// [`analyze_program`] that never materializes a trace or DDG, returning
/// byte-identical metrics plus the engine's observability counters
/// ([`crate::StreamStats`]). This is what `vscope stats` runs; hot-loop
/// analysis ([`analyze_source`]) always builds DDGs.
///
/// `break_reductions` is ignored: reduction chains are found on the whole
/// graph before timestamping, which a one-pass engine does not have. Use
/// [`analyze_program`] for the reduction extension.
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails and [`Error::TraceTooLarge`]
/// if the run exceeds `u32` instance ids (the same limit as the batch
/// builder).
pub fn stream_program(module: &Module, options: &AnalysisOptions) -> Result<StreamOutcome, Error> {
    let analyzer = StreamingAnalyzer::new(module, options.candidate_policy());
    let sink = [(CaptureSpec::Program, analyzer)];
    let analyzer = run_sinks(module, options, sink, StreamingAnalyzer::consume)?.remove(0);
    Ok(analyzer.finish(&options.metric_options())?)
}

/// Compiles `source`, profiles a full run of `main`, selects hot loops
/// (≥ `hot_threshold_pct` of cycles, the paper's §4.1 rule), builds the
/// DDG of each sampled instance of each hot loop, and analyzes the
/// representative instance of each.
///
/// Every sampled (loop, instance) pair is its own [`DdgBuilder`] sink on
/// one VM, so the analysis costs two executions (profile + capture) however
/// many instances are sampled, and never buffers a trace.
///
/// # Errors
///
/// Returns [`Error::Compile`] for invalid source and [`Error::Vm`] if any
/// run traps or exhausts its budget.
pub fn analyze_source(
    name: &str,
    source: &str,
    options: &AnalysisOptions,
) -> Result<SuiteReport, Error> {
    let module = vectorscope_frontend::compile(name, source)?;
    let loops = analyze_hot_loops(&module, options, |report, _| report)?;
    Ok(SuiteReport { module, loops })
}

/// Analyzes a batch of independent programs — `(name, source)` pairs —
/// concurrently, one worker per program.
///
/// This is the engine behind `vscope suite` and any code-base
/// characterization run: each program's profile/capture/analysis pipeline
/// is self-contained, so the batch fans out across
/// [`AnalysisOptions::threads`] workers while each worker runs its inner
/// stages single-threaded. Results come back in input order, and one
/// failing program yields its own `Err` entry without disturbing (or being
/// reordered by) the others.
pub fn analyze_sources(
    programs: &[(String, String)],
    options: &AnalysisOptions,
) -> Vec<Result<SuiteReport, Error>> {
    per_program(programs, options, analyze_source)
}

/// Runs `analyze` over every `(name, source)` program on the work pool, in
/// input order (the fan-out of [`analyze_sources`] and
/// [`crate::gap::analyze_gap_sources`]).
pub(crate) fn per_program<T: Send>(
    programs: &[(String, String)],
    options: &AnalysisOptions,
    analyze: fn(&str, &str, &AnalysisOptions) -> Result<T, Error>,
) -> Vec<Result<T, Error>> {
    // Inside a worker, run the whole per-program pipeline on one thread;
    // with a single program there is no outer fan-out, so let the inner
    // stages use the full budget instead.
    let per_program = if programs.len() > 1 {
        AnalysisOptions {
            threads: 1,
            ..options.clone()
        }
    } else {
        options.clone()
    };
    rayon_lite::par_map(options.threads, programs, |_, (name, source)| {
        analyze(name, source, &per_program)
    })
}

/// Analyzes the dynamic instance of one loop of `module` that
/// [`AnalysisOptions::loop_instance`] picks.
///
/// Runs a profiling pass first so the report's *Percent Cycles* is filled
/// in.
///
/// # Errors
///
/// Returns [`Error::Vm`] if execution fails and [`Error::EmptyTrace`] if
/// the loop is never entered.
///
/// # Panics
///
/// Panics if `loop_id` is not a loop of `func`.
pub fn analyze_loop(
    module: &Module,
    func: FuncId,
    loop_id: LoopId,
    options: &AnalysisOptions,
) -> Result<LoopAnalysis, Error> {
    let key = LoopKey { func, loop_id };
    let select = |vm: &Vm<'_>| {
        let profiles = vm.profiler().profiles(module, vm.forests());
        profiles.into_iter().filter(|p| p.key == key).collect()
    };
    let mut analyses = analyze_loops(module, options, select, |report, ddg| LoopAnalysis {
        report,
        ddg,
    })?;
    Ok(analyses
        .pop()
        .expect("the profile has a row for every loop of the module"))
}

/// Profiles `main` and analyzes every hot loop, in descending order of
/// percent of cycles: [`analyze_source`] and [`crate::gap::analyze_gap`]
/// differ only in what `per_loop` does with each row and its DDG.
pub(crate) fn analyze_hot_loops<T: Send>(
    module: &Module,
    options: &AnalysisOptions,
    per_loop: impl Fn(LoopReport, Ddg) -> T + Sync,
) -> Result<Vec<T>, Error> {
    let select = |vm: &Vm<'_>| {
        let hot = vm
            .profiler()
            .hot_loops(module, vm.forests(), options.hot_threshold_pct);
        let mut hot: Vec<LoopProfile> = hot.into_iter().map(|h| h.profile).collect();
        hot.sort_by(|a, b| b.percent.total_cmp(&a.percent));
        hot
    };
    analyze_loops(module, options, select, per_loop)
}

/// The one capture-and-analyze path.
///
/// Profiles a run of `main` and takes the loops `select` picks from it.
/// Then every sampled instance of every picked loop is armed as its own
/// [`DdgBuilder`] sink, and `main` runs once more. Each loop keeps its
/// [`representative`] graph, unanalyzed. The loops fan out across the work
/// pool: each worker analyzes its graph and hands the report row and the
/// graph, by value, to `per_loop`. The pool lends items by reference, so a
/// `Mutex<Option<Ddg>>` per loop passes the worker its graph uncloned.
///
/// Results come back in `select`'s order. A VM error wins, then the
/// lowest-indexed loop's error ([`Error::EmptyTrace`] or a build error).
fn analyze_loops<T: Send>(
    module: &Module,
    options: &AnalysisOptions,
    select: impl FnOnce(&Vm<'_>) -> Vec<LoopProfile>,
    per_loop: impl Fn(LoopReport, Ddg) -> T + Sync,
) -> Result<Vec<T>, Error> {
    // Profiling run. Its VM is dropped before the capture VM exists, so
    // the two program images are never resident together.
    let mut vm = Vm::with_options(module, options.vm_options());
    vm.run_main()?;
    let loops = select(&vm);
    let inst_counts = vm.inst_counts().to_vec();
    let branch_taken = vm.branch_taken().to_vec();
    drop(vm);
    if loops.is_empty() {
        return Ok(Vec::new());
    }

    let empty_trace = |p: &LoopProfile| Error::EmptyTrace {
        func: p.func_name.clone(),
        line: p.span.line,
    };
    let mut sinks = Vec::new();
    let mut n_sampled = Vec::with_capacity(loops.len());
    for p in &loops {
        // A loop that was never entered cannot produce a trace; fail
        // before spending a capture run (and before `sampled_instances`,
        // whose clamp needs `entries > 0`).
        if p.entries == 0 {
            return Err(empty_trace(p));
        }
        let instances = sampled_instances(options.loop_instance, p.entries);
        n_sampled.push(instances.len());
        sinks.extend(instances.into_iter().map(|instance| {
            let spec = CaptureSpec::Loop {
                func: p.key.func,
                loop_id: p.key.loop_id,
                instance,
            };
            (spec, DdgBuilder::new(module, options.candidate_policy()))
        }));
    }
    let mut builders = run_sinks(module, options, sinks, DdgBuilder::push)?.into_iter();
    let work = loops
        .iter()
        .zip(n_sampled)
        .map(|(p, n)| {
            let ddg = representative(builders.by_ref().take(n))?.ok_or_else(|| empty_trace(p))?;
            Ok((p, Mutex::new(Some(ddg))))
        })
        .collect::<Result<Vec<_>, Error>>()?;

    let rows = rayon_lite::par_map(options.threads, &work, |_, (p, ddg)| {
        let ddg = ddg.lock().map(|mut slot| slot.take());
        let ddg = ddg.ok().flatten().expect("each graph is taken once");
        let (metrics, per_inst) = analyze_ddg(module, &ddg, &options.metric_options());
        let (func, loop_id) = (p.key.func, p.key.loop_id);
        let report = LoopReport {
            module_name: module.name().to_string(),
            func_name: p.func_name.clone(),
            func,
            loop_id,
            loop_line: p.span.line,
            percent_cycles: p.percent,
            percent_packed: None,
            control_irregularity: crate::control::loop_irregularity(
                module,
                func,
                loop_id,
                &inst_counts,
                &branch_taken,
            ),
            metrics,
            per_inst,
            ddg_nodes: ddg.len(),
        };
        per_loop(report, ddg)
    });
    Ok(rows)
}

/// The dynamic loop instances to capture, per the sampling policy.
///
/// `entries` must be non-zero (callers return [`Error::EmptyTrace`] before
/// arming any capture otherwise).
fn sampled_instances(pick: InstancePick, entries: u64) -> Vec<u64> {
    let clamp = |i: u64| i.min(entries - 1);
    match pick {
        InstancePick::Index(i) => vec![clamp(i)],
        InstancePick::Representative(k) => {
            let k = k.max(1);
            let mut v: Vec<u64> = (0..k).map(|s| clamp(s * entries / k)).collect();
            v.dedup();
            v
        }
    }
}

/// Finishes one loop's sampled builders in order and keeps the graph with
/// the most candidate nodes, i.e. [`LoopMetrics::total_ops`] (the paper's
/// "representative subtrace"; ties go to the earliest). Returns the first
/// build error, else `None` if every graph is empty: every Kern loop header
/// computes its condition with an instruction, so only an instance that
/// emitted no event has no node.
fn representative<'m>(
    builders: impl Iterator<Item = DdgBuilder<'m>>,
) -> Result<Option<Ddg>, Error> {
    let mut best: Option<(usize, Ddg)> = None;
    for builder in builders {
        let ddg = builder.finish()?;
        if ddg.is_empty() {
            continue;
        }
        let insts = ddg.candidate_insts();
        let candidates = insts.iter().map(|&i| ddg.candidate_instances(i)).sum();
        if best.as_ref().is_none_or(|&(most, _)| candidates > most) {
            best = Some((candidates, ddg));
        }
    }
    Ok(best.map(|(_, ddg)| ddg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_vectorizable_loop() {
        let src = r#"
            const int N = 64;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { b[i] = (double)i; }
                for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; }
            }
        "#;
        let suite = analyze_source("v.kern", src, &AnalysisOptions::default()).unwrap();
        assert!(!suite.loops.is_empty());
        // The multiply loop must be a hot loop with near-total unit-stride
        // vectorizability.
        let best = suite
            .loops
            .iter()
            .max_by(|a, b| {
                a.metrics
                    .pct_unit_vec_ops
                    .partial_cmp(&b.metrics.pct_unit_vec_ops)
                    .unwrap()
            })
            .unwrap();
        assert!(best.metrics.pct_unit_vec_ops > 99.0);
        assert!(best.percent_cycles >= 10.0);
    }

    #[test]
    fn compile_errors_are_propagated() {
        let err = analyze_source("bad.kern", "void main( {", &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::Compile(_))));
    }

    #[test]
    fn trap_is_propagated() {
        let src = "int z = 0; int o = 0; void main() { o = 1 / z; }";
        let err = analyze_source("trap.kern", src, &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::Vm(_))));
    }

    #[test]
    fn analyze_specific_loop() {
        let src = r#"
            const int N = 16;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("one.kern", src).unwrap();
        let main = module.lookup_function("main").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
        let (loop_id, _) = forest.iter().next().unwrap();
        let analysis = analyze_loop(&module, main, loop_id, &AnalysisOptions::default()).unwrap();
        assert_eq!(analysis.report.metrics.total_ops, 16);
        assert!(analysis.report.percent_cycles > 0.0);
        assert!(analysis.ddg.len() > 16);
    }

    #[test]
    fn loop_instance_clamped() {
        let src = r#"
            const int N = 8;
            double a[N];
            void main() {
                for (int r = 0; r < 2; r++)
                    for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("cl.kern", src).unwrap();
        let main = module.lookup_function("main").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
        let (inner, _) = forest.iter().find(|(_, l)| l.is_innermost()).unwrap();
        let options = AnalysisOptions {
            loop_instance: InstancePick::Index(99), // clamps to the last of 2
            ..AnalysisOptions::default()
        };
        let analysis = analyze_loop(&module, main, inner, &options).unwrap();
        assert_eq!(analysis.report.metrics.total_ops, 8);
    }

    #[test]
    fn never_entered_loop_is_empty_trace_error() {
        let src = r#"
            const int N = 8;
            double a[N];
            double dead(double x) {
                for (int i = 0; i < N; i++) { x = x + a[i]; }
                return x;
            }
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 2.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("never.kern", src).unwrap();
        let dead = module.lookup_function("dead").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(dead));
        let (loop_id, _) = forest.iter().next().unwrap();
        // `dead` is never called, so its loop has zero profiled entries and
        // the analysis must fail before spending a capture run.
        let err = analyze_loop(&module, dead, loop_id, &AnalysisOptions::default());
        assert!(matches!(err, Err(Error::EmptyTrace { .. })), "got {err:?}");
    }
}
