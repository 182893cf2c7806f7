//! `vscope`: command-line driver for the vectorscope analyzer.
//!
//! ```text
//! vscope analyze <file.kern> [--threshold PCT] [--break-reductions]
//!                            [--integer-ops] [--verbose] [--json]
//! vscope stats <file.kern> [--integer-ops] [--json]
//! vscope profile <file.kern>
//! vscope vectorize <file.kern>
//! vscope trace <file.kern> [--out trace.bin]
//! vscope ir <file.kern> [--no-verify]
//! vscope kernels
//! vscope kernel <name> [<variant>] [--verbose]
//! vscope triage <file.kern> [--threshold PCT]
//! vscope gap <file.kern> [--json]
//! vscope gap --all-kernels [--json]
//! vscope table <1|2|3|4>
//! vscope fig <1|2>
//! ```

use std::process::ExitCode;
use vectorscope::report::{render_inst_breakdown, render_table};
use vectorscope::{analyze_source, AnalysisOptions};
use vectorscope_autovec::{analyze_module, percent_packed};
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_kernels::Variant;

/// The usage text. A plain multi-line literal (no `\` line continuations,
/// which would strip the indentation of every continued line).
const USAGE: &str = "vscope — dynamic trace-based analysis of vectorization potential

USAGE:
  vscope analyze <file.kern> [--threshold PCT] [--break-reductions] [--verbose]
                 [--threads N]       analysis worker threads (0 = auto;
                                     also via VSCOPE_THREADS; results are
                                     identical at every thread count)
  vscope stats <file.kern> [--json]    stream a whole run and report the
                                       engine's observability counters and
                                       peak memory vs. the batch pipeline
  vscope profile <file.kern> [--phases] show per-loop cycle profile; with
                                       --phases also wall-clock time per
                                       pipeline phase (decode/execute/
                                       trace/ddg/analysis)
  vscope vectorize <file.kern>         show model auto-vectorizer decisions
  vscope trace <file.kern> [--out F]   capture a whole-program trace
  vscope ir <file.kern> [--no-verify]  verify and dump the compiled IR
  vscope kernels                       list the built-in benchmark kernels
  vscope kernel <name> [<variant>]     analyze a built-in kernel
  vscope triage <file.kern>            rank loops by missed opportunity
  vscope gap <file.kern> [--json]      static dependence oracle: cross-validate
  vscope gap --all-kernels [--json]    static vs. dynamic analysis (exit 1 on
                                       any oracle violation)
  vscope parallelism <file.kern>       Kumar critical-path profile (prior work)
  vscope ddg <file.kern> [--out F.dot] export the DDG as Graphviz DOT
  vscope suite                         characterize the built-in kernel suite
  vscope table <1|2|3|4>               regenerate a paper table
  vscope fig <1|2>                     regenerate a paper figure";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The flags one subcommand accepts.
struct Flags {
    /// Whether it runs the analysis pipeline, and so also accepts
    /// [`ANALYSIS_SWITCHES`] and [`ANALYSIS_OPTIONS`].
    analysis: bool,
    /// Flags without a value.
    switches: &'static [&'static str],
    /// Flags followed by a value.
    options: &'static [&'static str],
}

const fn flags(
    analysis: bool,
    switches: &'static [&'static str],
    options: &'static [&'static str],
) -> Flags {
    Flags {
        analysis,
        switches,
        options,
    }
}

const ANALYSIS_SWITCHES: &[&str] = &["--break-reductions", "--integer-ops"];
const ANALYSIS_OPTIONS: &[&str] = &["--threshold", "--threads"];

/// Every subcommand and the flags it accepts.
const SUBCOMMANDS: &[(&str, Flags)] = &[
    ("analyze", flags(true, &["--verbose", "--json"], &[])),
    (
        "stats",
        flags(false, &["--integer-ops", "--json"], &["--threads"]),
    ),
    ("profile", flags(false, &["--phases"], &[])),
    ("vectorize", flags(false, &[], &[])),
    ("trace", flags(false, &[], &["--out"])),
    ("ir", flags(false, &["--no-verify"], &[])),
    ("kernels", flags(false, &[], &[])),
    ("kernel", flags(true, &["--verbose", "--json"], &[])),
    ("triage", flags(true, &[], &[])),
    ("gap", flags(true, &["--json", "--all-kernels"], &[])),
    ("parallelism", flags(false, &[], &[])),
    ("ddg", flags(false, &["--candidates-only"], &["--out"])),
    ("suite", flags(true, &[], &[])),
    ("table", flags(false, &[], &[])),
    ("fig", flags(false, &[], &[])),
];

/// Rejects a flag `cmd` does not accept, and an option without its value.
fn check_flags(cmd: &str, f: &Flags, rest: &[String]) -> Result<(), String> {
    let is = |own: &[&str], shared: &[&str], a: &str| {
        own.contains(&a) || (f.analysis && shared.contains(&a))
    };
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        if is(f.options, ANALYSIS_OPTIONS, a) {
            if args.next().is_none() {
                return Err(format!("{cmd}: option `{a}` needs a value"));
            }
        } else if a.len() > 1 && a.starts_with('-') && !is(f.switches, ANALYSIS_SWITCHES, a) {
            let mut known = [f.switches, f.options].concat();
            if f.analysis {
                known.extend(ANALYSIS_SWITCHES.iter().chain(ANALYSIS_OPTIONS));
            }
            let hint = known
                .into_iter()
                .map(|flag| (edit_distance(a, flag), flag))
                .filter(|&(d, _)| d <= 2)
                .min_by_key(|&(d, _)| d)
                .map(|(_, flag)| format!(" (did you mean `{flag}`?)"))
                .unwrap_or_default();
            return Err(format!("{cmd}: unknown flag `{a}`{hint}"));
        }
    }
    Ok(())
}

/// Levenshtein distance between two flags, over bytes.
fn edit_distance(a: &str, b: &str) -> usize {
    let b = b.as_bytes();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &x) in a.as_bytes().iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &y) in b.iter().enumerate() {
            let next = (diag + usize::from(x != y))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let Some((_, flags)) = SUBCOMMANDS.iter().find(|(name, _)| name == cmd) else {
        return usage();
    };
    if let Err(e) = check_flags(cmd, flags, rest) {
        eprintln!("vscope: {e} (run `vscope` for usage)");
        return ExitCode::from(2);
    }
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "stats" => cmd_stats(rest),
        "profile" => cmd_profile(rest),
        "vectorize" => cmd_vectorize(rest),
        "trace" => cmd_trace(rest),
        "ir" => cmd_ir(rest),
        "kernels" => cmd_kernels(),
        "kernel" => cmd_kernel(rest),
        "triage" => cmd_triage(rest),
        "gap" => cmd_gap(rest),
        "parallelism" => cmd_parallelism(rest),
        "ddg" => cmd_ddg(rest),
        "suite" => cmd_suite(rest),
        "table" => cmd_table(rest),
        "fig" => cmd_fig(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vscope: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn read_source(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path)?)
}

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn opt_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn positional(rest: &[String], idx: usize) -> Option<&str> {
    let mut skip_next = false;
    let mut seen = 0;
    for a in rest {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--threshold" || a == "--out" || a == "--threads" {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        if seen == idx {
            return Some(a);
        }
        seen += 1;
    }
    None
}

fn analysis_options(rest: &[String]) -> Result<AnalysisOptions, Box<dyn std::error::Error>> {
    let mut options = AnalysisOptions {
        break_reductions: flag(rest, "--break-reductions"),
        include_integer_ops: flag(rest, "--integer-ops"),
        ..AnalysisOptions::default()
    };
    if let Some(t) = opt_value(rest, "--threshold") {
        options.hot_threshold_pct = t.parse::<f64>()?;
    }
    if let Some(t) = opt_value(rest, "--threads") {
        options.threads = t.parse::<usize>()?;
    }
    Ok(options)
}

/// Analyzes a source and prints its hot-loop table (shared by `analyze`
/// and `kernel`).
fn analyze_and_print(
    name: &str,
    source: &str,
    options: &AnalysisOptions,
    verbose: bool,
    json: bool,
) -> CliResult {
    let suite = analyze_source(name, source, options)?;
    let decisions = analyze_module(&suite.module);
    let mut loops = suite.loops;
    for report in &mut loops {
        let counts: Vec<(vectorscope_ir::InstId, u64)> = report
            .per_inst
            .iter()
            .map(|m| (m.inst, m.instances))
            .collect();
        report.percent_packed = Some(percent_packed(&decisions, &counts));
    }
    if json {
        println!("{}", vectorscope::json::suite_json(&loops));
        return Ok(());
    }
    if loops.is_empty() {
        println!(
            "no loops above {:.0}% of cycles; try --threshold with a lower value",
            options.hot_threshold_pct
        );
        return Ok(());
    }
    println!("{}", render_table(name, &loops));
    if verbose {
        for report in &loops {
            println!("{}", render_inst_breakdown(report));
        }
    }
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("analyze: missing <file.kern>")?;
    let source = read_source(path)?;
    let options = analysis_options(rest)?;
    analyze_and_print(
        path,
        &source,
        &options,
        flag(rest, "--verbose"),
        flag(rest, "--json"),
    )
}

/// Streams a whole run through the bounded-memory engine and reports its
/// per-phase observability counters, then analyzes the same run through
/// the batch pipeline (`analyze_program`) for a peak-memory comparison
/// against the DDG it builds. The counters live here — never in
/// `vscope analyze` output, whose bytes are contractually identical
/// between the two engines.
fn cmd_stats(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("stats: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let options = analysis_options(rest)?;

    let outcome = vectorscope::stream_program(&module, &options)?;
    let s = &outcome.stats;
    let streaming_peak = s.peak_resident_bytes();
    // Batch footprint for the same run: the DDG the streaming engine never
    // builds, under the same options (candidate policy included).
    let ddg_bytes = vectorscope::analyze_program(&module, &options)?
        .ddg
        .memory_bytes();

    if flag(rest, "--json") {
        println!(
            "{{\"events\":{},\"nodes\":{},\"candidate_instances\":{},\"partitions\":{},\
             \"peak_reg_shadow\":{},\"peak_mem_shadow\":{},\"peak_shadow_bytes\":{},\
             \"peak_accumulator_bytes\":{},\"streaming_peak_bytes\":{},\
             \"batch_ddg_bytes\":{}}}",
            s.events,
            s.nodes,
            s.candidate_instances,
            s.partitions,
            s.peak_reg_shadow,
            s.peak_mem_shadow,
            s.peak_shadow_bytes,
            s.peak_accumulator_bytes,
            streaming_peak,
            ddg_bytes,
        );
        return Ok(());
    }
    println!("streaming engine counters for {path}:");
    println!("  events consumed        {:>14}", s.events);
    println!("  dynamic nodes          {:>14}", s.nodes);
    println!("  candidate instances    {:>14}", s.candidate_instances);
    println!("  partitions             {:>14}", s.partitions);
    println!("  peak register shadows  {:>14}", s.peak_reg_shadow);
    println!("  peak memory shadows    {:>14}", s.peak_mem_shadow);
    println!("  peak shadow bytes      {:>14}", s.peak_shadow_bytes);
    println!("  peak accumulator bytes {:>14}", s.peak_accumulator_bytes);
    println!("  peak resident bytes    {:>14}", streaming_peak);
    println!("batch pipeline for the same run:");
    println!("  DDG bytes              {:>14}", ddg_bytes);
    println!(
        "streaming peak = {:.1}% of the batch DDG",
        streaming_peak as f64 * 100.0 / ddg_bytes.max(1) as f64
    );
    Ok(())
}

fn cmd_profile(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("profile: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let t0 = std::time::Instant::now();
    let mut vm = Vm::new(&module);
    let decode_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    vm.run_main()?;
    let execute_time = t1.elapsed();
    let profiles = vm.profiler().profiles(&module, vm.forests());
    println!(
        "{:<30} {:>6} {:>14} {:>14} {:>10} {:>8}",
        "loop", "depth", "self cycles", "incl cycles", "entries", "percent"
    );
    for p in profiles {
        println!(
            "{:<30} {:>6} {:>14} {:>14} {:>10} {:>7.1}%",
            format!("{}:{}", p.func_name, p.span.line),
            p.depth,
            p.self_cycles,
            p.inclusive_cycles,
            p.entries,
            p.percent
        );
    }
    println!("total cycles: {}", vm.profiler().total_cycles());
    // The default output above is deterministic (CI diffs two runs); the
    // wall-clock phase breakdown is opt-in behind `--phases`.
    if flag(rest, "--phases") {
        drop(vm);
        let t2 = std::time::Instant::now();
        let mut cap_vm = Vm::new(&module);
        cap_vm.set_capture(CaptureSpec::Program, path);
        cap_vm.run_main()?;
        let trace = cap_vm.take_trace().expect("capture armed");
        let trace_time = t2.elapsed();
        let t3 = std::time::Instant::now();
        let ddg = vectorscope_ddg::Ddg::build(&module, &trace);
        let ddg_time = t3.elapsed();
        let t4 = std::time::Instant::now();
        let _ = vectorscope::metrics::analyze_ddg(
            &module,
            &ddg,
            &vectorscope::metrics::MetricOptions {
                break_reductions: false,
                threads: 1,
            },
        );
        let analysis_time = t4.elapsed();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!("phase breakdown (wall clock):");
        println!(
            "  decode    {:>10.3} ms  (VM construction incl. bytecode pre-decode)",
            ms(decode_time)
        );
        println!(
            "  execute   {:>10.3} ms  (profiling run, no capture)",
            ms(execute_time)
        );
        println!(
            "  trace     {:>10.3} ms  (capture run incl. event buffering)",
            ms(trace_time)
        );
        println!(
            "  ddg       {:>10.3} ms  (dependence-graph construction)",
            ms(ddg_time)
        );
        println!(
            "  analysis  {:>10.3} ms  (partitioning + stride stages)",
            ms(analysis_time)
        );
    }
    Ok(())
}

fn cmd_vectorize(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("vectorize: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    for d in analyze_module(&module) {
        let func = module.function(d.func).name();
        if d.vectorized {
            println!(
                "{func}:{} VECTORIZED{} ({} packed FP instruction(s))",
                d.line,
                if d.reduction { " (reduction)" } else { "" },
                d.packed.len()
            );
        } else {
            println!(
                "{func}:{} not vectorized: {}",
                d.line,
                d.reason.map(|r| r.to_string()).unwrap_or_default()
            );
        }
    }
    Ok(())
}

fn cmd_trace(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("trace: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, path);
    vm.run_main()?;
    let trace = vm.take_trace().expect("capture armed");
    println!("captured {} events", trace.len());
    if let Some(out) = opt_value(rest, "--out") {
        std::fs::write(out, trace.to_bytes())?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_ir(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("ir: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    if !flag(rest, "--no-verify") {
        if let Err(e) = vectorscope_ir::verify::verify_module(&module) {
            let line = verify_error_line(&module, &e);
            eprintln!(
                "{path}:{line}: warning: verifier: {} (in `{}`)",
                e.message, e.func
            );
            eprintln!("printing the IR anyway; pass --no-verify to silence this check");
        }
    }
    println!("{module}");
    Ok(())
}

/// Best-effort source line for a verifier diagnostic: the first
/// instruction of the offending block (the verifier reports function and
/// block, not spans).
fn verify_error_line(
    module: &vectorscope_ir::Module,
    e: &vectorscope_ir::verify::VerifyError,
) -> u32 {
    let Some(func) = module.lookup_function(&e.func) else {
        return 0;
    };
    let function = module.function(func);
    let block = function.block(e.block.unwrap_or_else(|| function.entry()));
    block
        .insts
        .first()
        .map(|i| i.span.line)
        .unwrap_or_else(|| block.terminator().span.line)
}

fn cmd_kernels() -> CliResult {
    println!("{:<20} {:<10} {:<12}", "name", "group", "variant");
    for k in vectorscope_kernels::all_kernels() {
        println!(
            "{:<20} {:<10} {:<12}",
            k.name,
            format!("{:?}", k.group),
            k.variant.to_string()
        );
    }
    Ok(())
}

fn cmd_kernel(rest: &[String]) -> CliResult {
    let name = positional(rest, 0).ok_or("kernel: missing <name>")?;
    let variant = match positional(rest, 1) {
        None => None,
        Some("sole") => Some(Variant::Sole),
        Some("array") => Some(Variant::Array),
        Some("pointer") => Some(Variant::Pointer),
        Some("original") => Some(Variant::Original),
        Some("transformed") => Some(Variant::Transformed),
        Some(other) => return Err(format!("unknown variant `{other}`").into()),
    };
    let kernel = vectorscope_kernels::all_kernels()
        .into_iter()
        .find(|k| k.name == name && variant.map(|v| v == k.variant).unwrap_or(true))
        .ok_or_else(|| format!("no kernel `{name}` (try `vscope kernels`)"))?;
    let options = analysis_options(rest)?;
    analyze_and_print(
        &kernel.file_name(),
        &kernel.source,
        &options,
        flag(rest, "--verbose"),
        flag(rest, "--json"),
    )
}

/// The prior-work whole-DAG parallelism profile (Kumar 1988, paper §2.1):
/// critical path, average parallelism, and the operations-per-timestamp
/// histogram over the whole program trace.
fn cmd_parallelism(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("parallelism: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, path);
    vm.run_main()?;
    let trace = vm.take_trace().expect("capture armed");
    let ddg = vectorscope_ddg::Ddg::build(&module, &trace);
    let k = vectorscope_ddg::kumar::analyze(&ddg);
    println!(
        "{} DDG nodes, critical path {}, average parallelism {:.2}",
        ddg.len(),
        k.critical_path,
        k.average_parallelism()
    );
    // Coarse histogram: bucket the timestamp axis into at most 20 rows.
    let buckets = 20usize.min(k.histogram.len().max(1));
    if k.histogram.is_empty() {
        return Ok(());
    }
    let per = k.histogram.len().div_ceil(buckets);
    let max: u64 = k
        .histogram
        .chunks(per)
        .map(|c| c.iter().sum())
        .max()
        .unwrap_or(1);
    for (i, chunk) in k.histogram.chunks(per).enumerate() {
        let total: u64 = chunk.iter().sum();
        let width = (total * 50 / max.max(1)) as usize;
        println!(
            "t{:>6}..{:<6} {:>8} |{}",
            i * per + 1,
            (i + 1) * per,
            total,
            "#".repeat(width)
        );
    }
    Ok(())
}

/// Exports the whole-program DDG as Graphviz DOT (the paper's Fig. 1/2
/// style dependence diagrams).
fn cmd_ddg(rest: &[String]) -> CliResult {
    let path = positional(rest, 0).ok_or("ddg: missing <file.kern>")?;
    let source = read_source(path)?;
    let module = vectorscope_frontend::compile(path, &source)?;
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, path);
    vm.run_main()?;
    let trace = vm.take_trace().expect("capture armed");
    let ddg = vectorscope_ddg::Ddg::build(&module, &trace);
    let options = vectorscope_ddg::dot::DotOptions {
        candidates_only: flag(rest, "--candidates-only"),
        ..vectorscope_ddg::dot::DotOptions::default()
    };
    let text = vectorscope_ddg::dot::to_dot(&module, &ddg, &options);
    match opt_value(rest, "--out") {
        Some(out) => {
            std::fs::write(out, &text)?;
            println!("wrote {out} ({} nodes)", ddg.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_triage(rest: &[String]) -> CliResult {
    use vectorscope::triage::{triage_suite, TriageThresholds};
    let path = positional(rest, 0).ok_or("triage: missing <file.kern>")?;
    let source = read_source(path)?;
    let options = analysis_options(rest)?;
    let suite = analyze_source(path, &source, &options)?;
    let decisions = analyze_module(&suite.module);
    let mut loops = suite.loops;
    for report in &mut loops {
        let counts: Vec<(vectorscope_ir::InstId, u64)> = report
            .per_inst
            .iter()
            .map(|m| (m.inst, m.instances))
            .collect();
        report.percent_packed = Some(percent_packed(&decisions, &counts));
    }
    let thresholds = TriageThresholds::default();
    println!(
        "{:<30} {:>8} {:>8} {:>10} {:>8}  verdict",
        "loop", "%cycles", "%packed", "potential", "irreg."
    );
    for (i, verdict) in triage_suite(&loops, &thresholds) {
        let r = &loops[i];
        println!(
            "{:<30} {:>7.1}% {:>7.1}% {:>9.1}% {:>8.2}  {}",
            r.location(),
            r.percent_cycles,
            r.percent_packed.unwrap_or(0.0),
            r.metrics.pct_unit_vec_ops + r.metrics.pct_non_unit_vec_ops,
            r.control_irregularity,
            verdict
        );
    }
    Ok(())
}

/// The static dependence oracle (`vscope gap`): run the dynamic analysis
/// and the static direction/distance-vector analysis on the same hot
/// loops, cross-validate (witness, bound, and stride obligations), and
/// report the classified static↔dynamic gap. Exits non-zero when any
/// oracle obligation fails — the CI contract.
fn cmd_gap(rest: &[String]) -> CliResult {
    use vectorscope::gap::{analyze_gap, analyze_gap_sources, render_gap};
    use vectorscope::json::gap_suite_json;
    let options = analysis_options(rest)?;
    let json = flag(rest, "--json");

    let mut violations: Vec<String> = Vec::new();
    if flag(rest, "--all-kernels") {
        let kernels = vectorscope_kernels::all_kernels();
        let programs: Vec<(String, String)> = kernels
            .iter()
            .map(|k| (k.file_name(), k.source.clone()))
            .collect();
        let results = analyze_gap_sources(&programs, &options);
        let mut rows: Vec<String> = Vec::new();
        for (kernel, result) in kernels.iter().zip(results) {
            let suite = match result {
                Ok(s) => s,
                Err(e) => return Err(format!("{}: {e}", kernel.file_name()).into()),
            };
            violations.extend(suite.violations());
            if json {
                rows.push(format!(
                    "{{\"kernel\":\"{}\",\"loops\":{}}}",
                    kernel.file_name(),
                    gap_suite_json(&suite)
                ));
            } else {
                println!("# {}", kernel.file_name());
                print!("{}", render_gap(&suite));
            }
        }
        if json {
            println!("[{}]", rows.join(","));
        }
    } else {
        let path = positional(rest, 0).ok_or("gap: missing <file.kern> (or --all-kernels)")?;
        let source = read_source(path)?;
        let suite = analyze_gap(path, &source, &options)?;
        violations.extend(suite.violations());
        if json {
            println!("{}", gap_suite_json(&suite));
        } else {
            print!("{}", render_gap(&suite));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("gap oracle: {} violation(s)", violations.len()).into())
    }
}

/// Characterizes the whole built-in kernel suite — the paper's
/// "characterization of code bases" workflow (§1): one triage verdict per
/// kernel's hottest loop. The kernels are independent programs, so the
/// batch fans out across the worker pool (`--threads` / `VSCOPE_THREADS`);
/// rows still print in suite order with identical contents at every
/// thread count.
fn cmd_suite(rest: &[String]) -> CliResult {
    use vectorscope::triage::{triage, TriageThresholds};
    let options = analysis_options(rest)?;
    let thresholds = TriageThresholds::default();
    println!(
        "{:<28} {:>8} {:>10} {:>8}  verdict",
        "kernel", "%packed", "potential", "irreg."
    );
    let kernels = vectorscope_kernels::all_kernels();
    let programs: Vec<(String, String)> = kernels
        .iter()
        .map(|k| (k.file_name(), k.source.clone()))
        .collect();
    let results = vectorscope::analyze_sources(&programs, &options);
    for (kernel, result) in kernels.iter().zip(results) {
        let suite = match result {
            Ok(s) => s,
            Err(e) => {
                println!("{:<28} error: {e}", kernel.file_name());
                continue;
            }
        };
        let decisions = analyze_module(&suite.module);
        // The kernel's hottest FP loop.
        let mut best: Option<vectorscope::LoopReport> = None;
        for mut report in suite.loops {
            if report.metrics.total_ops == 0 {
                continue;
            }
            let counts: Vec<(vectorscope_ir::InstId, u64)> = report
                .per_inst
                .iter()
                .map(|m| (m.inst, m.instances))
                .collect();
            report.percent_packed = Some(percent_packed(&decisions, &counts));
            let better = best
                .as_ref()
                .map(|b| report.percent_cycles > b.percent_cycles)
                .unwrap_or(true);
            if better {
                best = Some(report);
            }
        }
        let Some(report) = best else {
            println!("{:<28} no FP loops above threshold", kernel.file_name());
            continue;
        };
        println!(
            "{:<28} {:>7.1}% {:>9.1}% {:>8.2}  {}",
            kernel.file_name(),
            report.percent_packed.unwrap_or(0.0),
            report.metrics.pct_unit_vec_ops + report.metrics.pct_non_unit_vec_ops,
            report.control_irregularity,
            triage(&report, &thresholds)
        );
    }
    Ok(())
}

fn cmd_table(rest: &[String]) -> CliResult {
    match positional(rest, 0) {
        Some("1") => println!("{}", vectorscope_bench::tables::table1()),
        Some("2") => println!("{}", vectorscope_bench::tables::table2()),
        Some("3") => println!("{}", vectorscope_bench::tables::table3()),
        Some("4") => println!("{}", vectorscope_bench::tables::table4()),
        _ => return Err("table: expected 1, 2, 3, or 4".into()),
    }
    Ok(())
}

fn cmd_fig(rest: &[String]) -> CliResult {
    match positional(rest, 0) {
        Some("1") => println!("{}", vectorscope_bench::figures::fig1()),
        Some("2") => println!("{}", vectorscope_bench::figures::fig2()),
        _ => return Err("fig: expected 1 or 2".into()),
    }
    Ok(())
}
