//! The three workloads: their seeded inputs, their operations (untraced
//! and traced) and the checks their outputs must pass.

use crate::alloc;
use crate::spans::Recorder;
use crate::traced::{counts_of, Tracer};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use vectorscope::json::{gap_suite_json, suite_json};
use vectorscope::metrics::{InstMetrics, LoopMetrics};
use vectorscope::triage::{triage, TriageThresholds};
use vectorscope::{AnalysisOptions, Error, LoopReport, SuiteReport};
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_ir::Module;

/// A named set of inputs and the operations run on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All bundled kernels through the `vscope suite` pass and the
    /// `vscope gap --all-kernels` pass.
    Kernels,
    /// The scaled Gauss-Seidel stencil through `analyze_source` (the
    /// `vscope analyze --json` path): hot-loop sub-traces only.
    StencilHot,
    /// The same stencil through `analyze_program` and `stream_program`:
    /// every event of the run resolved.
    StencilWhole,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "kernels" => Some(Workload::Kernels),
            "stencil_hot" => Some(Workload::StencilHot),
            "stencil_whole" => Some(Workload::StencilWhole),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::StencilHot => "stencil_hot",
            Workload::StencilWhole => "stencil_whole",
        }
    }

    /// The operations of one pass, in order.
    pub fn ops(self) -> &'static [&'static str] {
        match self {
            Workload::Kernels => &["suite", "gap"],
            Workload::StencilHot => &["analyze"],
            Workload::StencilWhole => &["program", "stream"],
        }
    }
}

/// Stencil size: N = 128, T = 10 gives about 11.2M instructions and
/// 10.6M trace events per run.
const STENCIL_N: u32 = 128;
const STENCIL_T: u32 = 10;
/// The `rnd` increment of the bundled kernel; the seeded stencil replaces it.
const REFERENCE_INCREMENT: u64 = 12345;

/// SplitMix64: a small, well-mixed generator for seeding.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Gauss-Seidel at the benchmark size, its initial data set by the `rnd`
/// increment.
fn stencil_source(increment: u64) -> Result<String, String> {
    let mut source = vectorscope_kernels::studies::gauss_seidel_original().source;
    for (from, to) in [
        ("const int N = 48;", format!("const int N = {STENCIL_N};")),
        ("const int T = 3;", format!("const int T = {STENCIL_T};")),
        ("+ 12345)", format!("+ {increment})")),
    ] {
        if !source.contains(from) {
            return Err(format!("gauss_seidel source no longer contains `{from}`"));
        }
        source = source.replacen(from, &to, 1);
    }
    Ok(source)
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

const STENCIL_NAME: &str = "gauss_seidel_n128.kern";

/// Generates the workload's `(name, source)` programs from the seed: the
/// kernel batch in a seeded order, or the stencil with seeded initial data.
pub fn generate(w: Workload, seed: u64) -> Result<Vec<(String, String)>, String> {
    let mut rng = SplitMix(seed);
    match w {
        Workload::Kernels => {
            let mut programs: Vec<(String, String)> = vectorscope_kernels::all_kernels()
                .into_iter()
                .map(|k| (k.file_name(), k.source))
                .collect();
            shuffle(&mut programs, &mut rng);
            Ok(programs)
        }
        Workload::StencilHot | Workload::StencilWhole => {
            let increment = 1 + rng.next() % 99_999;
            Ok(vec![(STENCIL_NAME.to_string(), stencil_source(increment)?)])
        }
    }
}

/// The `(name, source)` programs of a workload and their compiled modules.
pub type Inputs = (Vec<(String, String)>, Vec<Module>);

/// The set-up step: generate the inputs, then compile and verify every
/// program once.
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    let programs = generate(w, seed)?;
    let mut modules = Vec::with_capacity(programs.len());
    for (name, source) in &programs {
        let module =
            vectorscope_frontend::compile(name, source).map_err(|e| format!("{name}: {e}"))?;
        vectorscope_ir::verify::verify_module(&module).map_err(|e| format!("{name}: {e}"))?;
        modules.push(module);
    }
    Ok((programs, modules))
}

/// [`setup`] with a span around each compile and verify.
pub fn traced_setup(w: Workload, seed: u64, rec: &mut Recorder) -> Result<(), String> {
    let root = rec.enter("setup");
    let result = (|| {
        let programs = generate(w, seed)?;
        for (name, source) in &programs {
            let module = rec
                .leaf("frontend.compile", || {
                    vectorscope_frontend::compile(name, source)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            rec.leaf("ir.verify", || {
                vectorscope_ir::verify::verify_module(&module)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    })();
    rec.exit(root);
    result
}

/// What the checks compare against, loaded once before measuring.
pub struct Expected {
    /// Golden `(report JSON, gap JSON)` per kernel file name.
    golden: HashMap<String, (String, String)>,
    /// `(instructions, trace events)` of one stencil run, identical for
    /// every seed.
    pub stencil_counts: Option<(u64, u64)>,
}

/// Instructions executed and trace events emitted by one run of `main`.
fn run_counts(name: &str, source: &str) -> Result<(u64, u64), String> {
    let module = vectorscope_frontend::compile(name, source).map_err(|e| e.to_string())?;
    let events = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&events);
    let mut vm = Vm::new(&module);
    vm.add_sink(
        CaptureSpec::Program,
        Box::new(move |_| seen.set(seen.get() + 1)),
    );
    vm.run_main().map_err(|e| e.to_string())?;
    Ok((vm.fuel_used(), events.get()))
}

impl Expected {
    /// Reads the golden reports (kernels) or checks that the stencil's
    /// instruction and event counts do not depend on the seed.
    pub fn load(w: Workload, seed: u64, repo: &Path) -> Result<Expected, String> {
        let mut golden = HashMap::new();
        let mut stencil_counts = None;
        match w {
            Workload::Kernels => {
                let dir = repo.join("tests/golden");
                for k in vectorscope_kernels::all_kernels() {
                    let name = k.file_name();
                    let report = dir.join(format!("{name}.json"));
                    if !report.exists() {
                        continue;
                    }
                    let read = |p: &Path| {
                        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
                    };
                    let gap = read(&dir.join(format!("{name}.gap.json")))?;
                    golden.insert(name, (read(&report)?, gap));
                }
                if golden.is_empty() {
                    return Err(format!("no golden reports under {}", dir.display()));
                }
            }
            Workload::StencilHot | Workload::StencilWhole => {
                let (_, source) = generate(w, seed)?.remove(0);
                let counts = run_counts(STENCIL_NAME, &source)?;
                let reference = run_counts(STENCIL_NAME, &stencil_source(REFERENCE_INCREMENT)?)?;
                if counts != reference {
                    return Err(format!(
                        "seed {seed} changes the stencil's (instructions, events): \
                         {counts:?} vs {reference:?}"
                    ));
                }
                stencil_counts = Some(counts);
            }
        }
        Ok(Expected {
            golden,
            stencil_counts,
        })
    }

    /// Number of golden kernels.
    pub fn golden_kernels(&self) -> usize {
        self.golden.len()
    }
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (one per program per operation).
    pub attempted: u64,
    /// Operations that returned `Err` or failed their check.
    pub failed: u64,
    /// Messages of the first failures.
    pub messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One timed operation of a pass.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Wall time.
    pub secs: f64,
    /// Counted heap high-water above the live bytes at the start.
    pub heap_bytes: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, OpSample) {
    let mark = alloc::Mark::start();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let heap_bytes = mark.finish();
    (out, OpSample { secs, heap_bytes })
}

/// The hottest FP loop's triage verdict, with Percent Packed from the
/// model vectorizer attached.
fn verdict(suite: SuiteReport, decisions: &[vectorscope_autovec::LoopDecision]) -> Option<String> {
    let mut best: Option<LoopReport> = None;
    for mut report in suite.loops {
        if report.metrics.total_ops == 0 {
            continue;
        }
        report.percent_packed = Some(vectorscope_autovec::percent_packed(
            decisions,
            &counts_of(&report),
        ));
        if best
            .as_ref()
            .is_none_or(|b| report.percent_cycles > b.percent_cycles)
        {
            best = Some(report);
        }
    }
    best.map(|r| triage(&r, &TriageThresholds::default()).to_string())
}

/// A kernel's `vscope suite` outcome: its report JSON, before Percent
/// Packed is attached, as the goldens hold it. The pass also computes the
/// triage verdict `vscope suite` prints.
fn suite_out(suite: SuiteReport) -> String {
    let json = suite_json(&suite.loops);
    let decisions = vectorscope_autovec::analyze_module(&suite.module);
    std::hint::black_box(verdict(suite, &decisions));
    json
}

/// `vscope analyze --json`: the report with Percent Packed attached.
fn analyze_out(suite: SuiteReport) -> (Vec<LoopReport>, String) {
    let decisions = vectorscope_autovec::analyze_module(&suite.module);
    let mut loops = suite.loops;
    for r in &mut loops {
        r.percent_packed = Some(vectorscope_autovec::percent_packed(
            &decisions,
            &counts_of(r),
        ));
    }
    let json = suite_json(&loops);
    (loops, json)
}

/// Metrics, per-instruction rows and node count of a whole-program run.
type ProgramOut = (LoopMetrics, Vec<InstMetrics>, usize);

/// Runs one untraced pass at `threads` workers; returns one sample per
/// operation, in [`Workload::ops`] order, and tallies the checks.
pub fn run_pass(
    w: Workload,
    programs: &[(String, String)],
    modules: &[Module],
    expected: &Expected,
    threads: usize,
    tally: &mut Tally,
) -> Vec<OpSample> {
    let options = AnalysisOptions {
        threads,
        ..AnalysisOptions::default()
    };
    match w {
        Workload::Kernels => {
            let (suites, suite_t) = timed(|| {
                vectorscope::analyze_sources(programs, &options)
                    .into_iter()
                    .map(|r| r.map(suite_out))
                    .collect::<Vec<_>>()
            });
            let (gaps, gap_t) = timed(|| {
                vectorscope::analyze_gap_sources(programs, &options)
                    .into_iter()
                    .map(|r| r.map(|g| (gap_suite_json(&g), g.violations().len())))
                    .collect::<Vec<_>>()
            });
            for ((name, _), suite) in programs.iter().zip(&suites) {
                tally.record(check_suite(expected, name, suite));
            }
            for ((name, _), gap) in programs.iter().zip(&gaps) {
                tally.record(check_gap(expected, name, gap));
            }
            vec![suite_t, gap_t]
        }
        Workload::StencilHot => {
            let (name, source) = &programs[0];
            let (out, t) =
                timed(|| vectorscope::analyze_source(name, source, &options).map(analyze_out));
            tally.record(check_hot(out.as_ref().map(|(loops, _)| loops)));
            vec![t]
        }
        Workload::StencilWhole => {
            let module = &modules[0];
            let (program, program_t) = timed(|| {
                vectorscope::analyze_program(module, &options)
                    .map(|p| (p.metrics, p.per_inst, p.ddg.len()))
            });
            let (stream, stream_t) = timed(|| vectorscope::stream_program(module, &options));
            let events = stream.as_ref().ok().map(|s| s.stats.events);
            let stream = stream.map(|s| (s.metrics, s.per_inst, s.nodes));
            tally.record(
                program
                    .as_ref()
                    .map(|_| ())
                    .map_err(|e| format!("program: {e}")),
            );
            tally.record(check_whole(expected, &program, &stream, events));
            vec![program_t, stream_t]
        }
    }
}

fn check_suite(
    expected: &Expected,
    name: &str,
    suite: &Result<String, Error>,
) -> Result<(), String> {
    let json = suite.as_ref().map_err(|e| format!("suite {name}: {e}"))?;
    match expected.golden.get(name) {
        Some((report, _)) if report.trim_end() != json => {
            Err(format!("suite {name}: report differs from tests/golden"))
        }
        _ => Ok(()),
    }
}

fn check_gap(
    expected: &Expected,
    name: &str,
    gap: &Result<(String, usize), Error>,
) -> Result<(), String> {
    let (json, violations) = gap.as_ref().map_err(|e| format!("gap {name}: {e}"))?;
    if *violations > 0 {
        return Err(format!("gap {name}: {violations} oracle violation(s)"));
    }
    match expected.golden.get(name) {
        Some((_, golden)) if golden.trim_end() != json => {
            Err(format!("gap {name}: report differs from tests/golden"))
        }
        _ => Ok(()),
    }
}

/// The paper's Table 2 Gauss-Seidel row: 2 of the 9 FP operations
/// vectorize at unit stride, in groups of N - 2, and none at non-unit
/// stride.
fn check_hot(loops: Result<&Vec<LoopReport>, &Error>) -> Result<(), String> {
    let loops = loops.map_err(|e| format!("analyze: {e}"))?;
    let hot = loops.first().ok_or("analyze: no hot loop")?;
    let m = &hot.metrics;
    let want_pct = 200.0 / 9.0;
    let want_size = f64::from(STENCIL_N - 2);
    if (m.pct_unit_vec_ops - want_pct).abs() > 0.05
        || m.avg_unit_vec_size != want_size
        || m.pct_non_unit_vec_ops != 0.0
    {
        return Err(format!(
            "analyze: hot loop {} shows U %VecOps {:.2}, U AvgSize {:.1}, N %VecOps {:.2}; \
             want {want_pct:.2}, {want_size:.1}, 0",
            hot.location(),
            m.pct_unit_vec_ops,
            m.avg_unit_vec_size,
            m.pct_non_unit_vec_ops
        ));
    }
    Ok(())
}

/// Batch and streaming must agree exactly, over every event of the run.
fn check_whole(
    expected: &Expected,
    program: &Result<ProgramOut, Error>,
    stream: &Result<ProgramOut, Error>,
    events: Option<u64>,
) -> Result<(), String> {
    let stream = stream.as_ref().map_err(|e| format!("stream: {e}"))?;
    let Ok(program) = program else {
        return Err("stream: no batch result to compare with".into());
    };
    if program != stream {
        return Err("stream: metrics or per-instruction rows differ from analyze_program".into());
    }
    let want = expected.stencil_counts.map(|(_, e)| e);
    if events.is_some() && events != want {
        return Err(format!(
            "stream: consumed {events:?} events, the run emits {want:?}"
        ));
    }
    Ok(())
}

/// Streams the sub-traces the operations captured: the streaming layer's
/// probe on workloads whose operations only run the batch engine.
fn replay(t: &mut Tracer, subtraces: &[(Module, vectorscope_trace::Trace)], tally: &mut Tally) {
    for (module, trace) in subtraces {
        let out = t.stream_trace(module, trace).map(|_| ());
        tally.record(out.map_err(|e| format!("traced stream: {e}")));
    }
}

/// The largest DDG a traced pass built, with its module.
pub type Largest = Option<(Module, vectorscope_ddg::Ddg)>;

/// Runs one traced pass: every operation under an `op.*` root span, then
/// a `probe` root timing the layers the operations skip.
pub fn traced_pass(
    w: Workload,
    programs: &[(String, String)],
    modules: &[Module],
    expected: &Expected,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Largest {
    let mut t = Tracer::new(rec);
    match w {
        Workload::Kernels => {
            t.subtraces = Some(Vec::new());
            t.root("op.suite", |t| {
                for (name, source) in programs {
                    let out = t.analyze_source(name, source).map(|suite| {
                        let json = t.rec.leaf("report.json", || suite_json(&suite.loops));
                        let decisions = t.rec.leaf("autovec", || {
                            vectorscope_autovec::analyze_module(&suite.module)
                        });
                        t.rec.leaf("autovec", || {
                            std::hint::black_box(verdict(suite, &decisions))
                        });
                        json
                    });
                    tally.record(check_suite(expected, name, &out));
                }
            });
            let subtraces = t.subtraces.take().unwrap_or_default();
            t.root("op.gap", |t| {
                for (name, source) in programs {
                    let out = t.gap(name, source).map(|_| ());
                    tally.record(out.map_err(|e| format!("traced gap {name}: {e}")));
                }
            });
            t.root("probe", |t| replay(t, &subtraces, tally));
        }
        Workload::StencilHot => {
            let (name, source) = &programs[0];
            t.subtraces = Some(Vec::new());
            t.root("op.analyze", |t| {
                let out = t.analyze_source(name, source).map(|suite| {
                    let decisions = t.rec.leaf("autovec", || {
                        vectorscope_autovec::analyze_module(&suite.module)
                    });
                    let mut loops = suite.loops;
                    t.rec.leaf("autovec", || {
                        for r in &mut loops {
                            r.percent_packed = Some(vectorscope_autovec::percent_packed(
                                &decisions,
                                &counts_of(r),
                            ));
                        }
                    });
                    t.rec.leaf("report.json", || suite_json(&loops));
                    loops
                });
                tally.record(check_hot(out.as_ref()));
            });
            let subtraces = t.subtraces.take().unwrap_or_default();
            t.root("probe", |t| {
                let out = t.gap(name, source).map(|_| ());
                tally.record(out.map_err(|e| format!("traced gap: {e}")));
                replay(t, &subtraces, tally);
            });
        }
        Workload::StencilWhole => {
            let (name, source) = &programs[0];
            let module = &modules[0];
            let program = t.root("op.program", |t| t.program(name, module));
            let stream = t.root("op.stream", |t| t.stream(name, module));
            let events = stream.as_ref().ok().map(|s| s.stats.events);
            let stream = stream.map(|s| (s.metrics, s.per_inst, s.nodes));
            tally.record(
                program
                    .as_ref()
                    .map(|_| ())
                    .map_err(|e| format!("traced program: {e}")),
            );
            tally.record(check_whole(expected, &program, &stream, events));
            t.root("probe", |t| {
                let outcome = t
                    .gap(name, source)
                    .map(|suite| t.rec.leaf("report.json", || suite_json(&suite.loops)));
                tally.record(
                    outcome
                        .map(|_| ())
                        .map_err(|e| format!("traced probe: {e}")),
                );
            });
        }
    }
    t.largest
}
