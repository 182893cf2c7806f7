//! `pipebench`: end-to-end and per-layer benchmark of the vectorscope
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <kernels|stencil_hot|stencil_whole> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's operations in a closed loop on
//! one process at `available_parallelism` threads for `--seconds` and
//! reports set-up time, pass time and counted peak heap. With `--trace 1`
//! it instead runs untraced passes at one thread and at all threads
//! alongside traced passes, and reports per-layer times, throughputs,
//! counts, heap figures and pool speedups. Either way every output is
//! checked, the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, the line before it a
//! detailed report, and `pipebench/results/` receives the report plus, for
//! traced runs, the spans of the last traced pass.

mod alloc;
mod spans;
mod traced;
mod workloads;

use spans::{Layers, Phase, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Expected, OpSample, SplitMix, Tally, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const MB: f64 = (1u64 << 20) as f64;

/// Fewest measured passes (untraced) or traced iterations per run.
const MIN_PASSES: usize = 3;
const MIN_TRACED: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// The highest whole percentile with at least ten samples above it (the
/// median when there are fewer than 20 samples), and its value.
fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let pct = if n >= 20.0 {
        ((1.0 - 10.0 / n) * 100.0).floor()
    } else {
        50.0
    };
    (pct, quantile(&sorted(v), pct / 100.0))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON array of numbers.
fn array(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(","))
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Named, already-rendered JSON values.
type Fields = Vec<(String, String)>;

/// A JSON object from already-rendered values.
fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn field(k: &str, v: impl Into<String>) -> (String, String) {
    (k.to_string(), v.into())
}

/// The revision of the checkout, read from `.git` without running git.
fn git_revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a measurement needs about the run.
struct Ctx<'a> {
    workload: Workload,
    seed: u64,
    /// The programs, in the order of the next pass.
    programs: Vec<(String, String)>,
    /// Draws each pass's kernel batch order.
    orders: SplitMix,
    modules: &'a [vectorscope_ir::Module],
    expected: &'a Expected,
    threads: usize,
    seconds: f64,
}

impl Ctx<'_> {
    /// The kernel batch runs in a new seeded order every pass, so a run
    /// samples many orders instead of hanging on one.
    fn next_order(&mut self) {
        if self.workload == Workload::Kernels {
            workloads::shuffle(&mut self.programs, &mut self.orders);
        }
    }

    fn pass(&mut self, threads: usize, tally: &mut Tally) -> Vec<OpSample> {
        self.next_order();
        workloads::run_pass(
            self.workload,
            &self.programs,
            self.modules,
            self.expected,
            threads,
            tally,
        )
    }
}

/// Per-operation samples over many passes.
struct OpSeries {
    secs: Vec<Vec<f64>>,
    heap: Vec<Vec<f64>>,
}

impl OpSeries {
    fn new(ops: usize) -> Self {
        OpSeries {
            secs: vec![Vec::new(); ops],
            heap: vec![Vec::new(); ops],
        }
    }

    fn push(&mut self, pass: &[OpSample]) {
        for (i, s) in pass.iter().enumerate() {
            self.secs[i].push(s.secs);
            self.heap[i].push(s.heap_bytes as f64 / MB);
        }
    }

    /// Each operation's `rank`-th fastest time (0 is the fastest), or its
    /// slowest when it has no more samples.
    fn fastest(&self, rank: usize) -> Vec<f64> {
        self.secs
            .iter()
            .map(|s| sorted(s)[rank.min(s.len() - 1)])
            .collect()
    }

    fn report(&self, w: Workload) -> String {
        let (best, second) = (self.fastest(0), self.fastest(1));
        let fields: Vec<(String, String)> = w
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let (pct, tail_s) = tail(&self.secs[i]);
                let stats = object(&[
                    field("median_s", num(median(&self.secs[i]))),
                    field("tail_pct", num(pct)),
                    field("tail_s", num(tail_s)),
                    field("n", self.secs[i].len().to_string()),
                    field("best_s", num(best[i])),
                    field("second_best_s", num(second[i])),
                    field("samples_s", array(&self.secs[i])),
                    field("peak_mb", num(median(&self.heap[i]))),
                ]);
                (op.to_string(), stats)
            })
            .collect();
        object(&fields)
    }
}

/// One measured metric for the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Runs the set-up at least three times and for at least 20 ms, adding
/// each time to `samples`; returns the last set-up's programs and modules.
fn setup_batch(
    w: Workload,
    seed: u64,
    samples: &mut Vec<f64>,
) -> Result<workloads::Inputs, String> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let out = workloads::setup(w, seed)?;
        samples.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= 3 && start.elapsed() >= Duration::from_millis(20) {
            return Ok(out);
        }
    }
}

/// Closed-loop untraced passes at `ctx.threads`, with a set-up batch before
/// each pass so set-up samples span the run like pass samples do.
fn untraced(
    ctx: &mut Ctx,
    setup_s: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Fields), String> {
    // No warm-up pass: the bounded timing takes second-fastest times, which
    // a slow first pass cannot move.
    let mut series = OpSeries::new(ctx.workload.ops().len());
    let (mut pass_s, mut peak_mb) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while pass_s.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + median(&pass_s) <= ctx.seconds
    {
        setup_batch(ctx.workload, ctx.seed, setup_s)?;
        let pass = ctx.pass(ctx.threads, tally);
        series.push(&pass);
        pass_s.push(pass.iter().map(|s| s.secs).sum());
        peak_mb.push(pass.iter().map(|s| s.heap_bytes).max().unwrap_or(0) as f64 / MB);
    }
    let (pct, tail_s) = tail(&pass_s);
    // Second-fastest times, not medians or fastest times: on a shared host,
    // passes swing between a fast and a contended regime. A run's median (and
    // any quantile) moves with the regime mix, while the fastest of the few
    // passes of a long operation hangs on one lucky pass; the second-fastest
    // time needs a speed reached twice. Fastest times, medians and tails are
    // in the report.
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: sorted(setup_s)[0],
            unit: "s",
        },
        Metric {
            name: "pass_2nd_best_s",
            value: series.fastest(1).iter().sum(),
            unit: "s",
        },
        Metric {
            name: "peak_mb",
            value: median(&peak_mb),
            unit: "MB",
        },
    ];
    let report = vec![
        field("passes", pass_s.len().to_string()),
        field("pass_median_s", num(median(&pass_s))),
        field("pass_tail_pct", num(pct)),
        field("pass_tail_s", num(tail_s)),
        field("pass_samples_s", array(&pass_s)),
        field("ops", series.report(ctx.workload)),
    ];
    Ok((metrics, report))
}

/// Median of `analyze_ddg` at one thread over median at `threads`, on the
/// largest DDG a traced pass built.
fn stride_speedup(
    module: &vectorscope_ir::Module,
    ddg: &vectorscope_ddg::Ddg,
    threads: usize,
) -> f64 {
    let run = |threads| {
        let options = vectorscope::metrics::MetricOptions {
            break_reductions: false,
            threads,
        };
        let start = Instant::now();
        std::hint::black_box(vectorscope::metrics::analyze_ddg(module, ddg, &options));
        start.elapsed().as_secs_f64()
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while one.len() < 3 || (start.elapsed() < Duration::from_millis(500) && one.len() < 1000) {
        one.push(run(1));
        many.push(run(threads));
    }
    median(&one) / median(&many)
}

/// Per-layer metrics of one traced pass (see `BENCHMARK.json`).
fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let ms = |layer: &str| l.stat(layer).ns as f64 / 1e6;
    let count = |layer: &str, key: &str| l.count(layer, key) as f64;
    let per_s = |layer: &str, key: &str| {
        let secs = l.stat(layer).ns as f64 / 1e9;
        if secs > 0.0 {
            count(layer, key) / secs / 1e6
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("frontend.compile_ms", ms("frontend.compile"), "ms"),
        m("ir.verify_ms", ms("ir.verify"), "ms"),
        m("interp.decode_ms", ms("interp.decode"), "ms"),
        m("interp.profile_ms", ms("interp.profile"), "ms"),
        m(
            "interp.profile_minst_per_s",
            per_s("interp.profile", "profile.inst"),
            "Minst/s",
        ),
        m("interp.capture_ms", ms("interp.capture"), "ms"),
        m(
            "interp.capture_mevents_per_s",
            per_s("interp.capture", "capture.events"),
            "Mevents/s",
        ),
        m(
            "driver.hot_loops",
            count("driver.plan", "driver.hot_loops"),
            "count",
        ),
        m(
            "driver.captures",
            count("driver.plan", "driver.captures"),
            "count",
        ),
        m(
            "driver.subtrace_events",
            count("driver.plan", "driver.subtrace_events"),
            "count",
        ),
        m("ddg.build_ms", ms("ddg.build"), "ms"),
        m(
            "ddg.mevents_per_s",
            per_s("ddg.build", "ddg.events"),
            "Mevents/s",
        ),
        m("ddg.nodes", count("ddg.build", "ddg.nodes"), "count"),
        m("ddg.edges", count("ddg.build", "ddg.edges"), "count"),
        m(
            "ddg.heap_mb",
            l.stat("ddg.build").heap_bytes as f64 / MB,
            "MB",
        ),
        m(
            "trace.heap_mb",
            count("interp.capture", "trace.bytes") / MB,
            "MB",
        ),
        m(
            "ddg.self_report_ratio",
            ratio(
                count("ddg.build", "ddg.counted_bytes")
                    + count("ddg.build", "ddg.trace_counted_bytes"),
                count("ddg.build", "ddg.self_report_bytes"),
            ),
            "ratio",
        ),
        m("partition.ms", ms("partition"), "ms"),
        m(
            "partition.mnodes_per_s",
            per_s("partition", "partition.nodes"),
            "Mnodes/s",
        ),
        m(
            "partition.heap_mb",
            l.stat("partition").heap_bytes as f64 / MB,
            "MB",
        ),
        m("stride.ms", ms("stride"), "ms"),
        m("stride.mops_per_s", per_s("stride", "stride.ops"), "Mops/s"),
        m("stride.shards", count("stride", "stride.shards"), "count"),
        m("stream.consume_ms", ms("stream.consume"), "ms"),
        m(
            "stream.mevents_per_s",
            per_s("stream.consume", "stream.events"),
            "Mevents/s",
        ),
        m("stream.finish_ms", ms("stream.finish"), "ms"),
        m(
            "stream.peak_heap_mb",
            count("stream.consume", "stream.heap_bytes") / MB,
            "MB",
        ),
        m(
            "stream.self_report_ratio",
            ratio(
                count("stream.consume", "stream.counted_bytes"),
                count("stream.consume", "stream.self_report_bytes"),
            ),
            "ratio",
        ),
        m("staticdep.ms", ms("staticdep"), "ms"),
        m("gap.reanalyze_ms", ms("gap.reanalyze"), "ms"),
        m("autovec.ms", ms("autovec"), "ms"),
        m("report.json_ms", ms("report.json"), "ms"),
    ]
}

/// The spans of a traced pass as JSON, with self times.
fn spans_json(rec: &Recorder) -> String {
    let own = rec.self_ns();
    let rows: Vec<String> = rec
        .spans()
        .iter()
        .zip(own)
        .map(|(s, own)| {
            object(&[
                field("name", format!("\"{}\"", s.name)),
                field("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                field("start_ns", s.start_ns.to_string()),
                field("end_ns", s.end_ns.to_string()),
                field("self_ns", own.to_string()),
                field("heap_bytes", s.heap_bytes.to_string()),
            ])
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Untraced passes at one thread and at `ctx.threads`, interleaved with
/// traced passes at one thread.
fn traced(ctx: &mut Ctx, tally: &mut Tally) -> Result<(Vec<Metric>, Fields, String), String> {
    let mut setup = Recorder::new();
    workloads::traced_setup(ctx.workload, ctx.seed, &mut setup)?;
    let setup = setup.layers();

    ctx.pass(ctx.threads, tally); // warm-up
    let ops = ctx.workload.ops().len();
    let (mut one, mut many) = (OpSeries::new(ops), OpSeries::new(ops));
    let (mut per_pass, mut coverage, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut iteration_s = Vec::new();
    let mut pool_stride = None;
    let mut last_spans = String::new();
    let mut probe_layers = Vec::new();
    let start = Instant::now();
    while iteration_s.len() < MIN_TRACED
        || start.elapsed().as_secs_f64() + median(&iteration_s) <= ctx.seconds
    {
        let began = Instant::now();
        // The traced pass runs right after its untraced twin, so the
        // two see the same host conditions.
        let untraced = ctx.pass(1, tally);
        one.push(&untraced);
        let untraced_s: f64 = untraced.iter().map(|s| s.secs).sum();
        let mut rec = Recorder::new();
        ctx.next_order();
        let largest = workloads::traced_pass(
            ctx.workload,
            &ctx.programs,
            ctx.modules,
            ctx.expected,
            &mut rec,
            tally,
        );
        if let (None, Some((module, ddg))) = (pool_stride, &largest) {
            pool_stride = Some(stride_speedup(module, ddg, ctx.threads));
        }
        drop(largest);
        many.push(&ctx.pass(ctx.threads, tally));
        let mut layers = rec.layers();
        layers.merge(&setup);
        per_pass.push(layer_metrics(&layers));
        let traced_s = layers.root_total_ns.get(&Phase::Op).copied().unwrap_or(0) as f64 / 1e9;
        coverage.push(layers.op_layer_ns() as f64 / 1e9 / untraced_s);
        overhead.push(traced_s / untraced_s - 1.0);
        last_spans = spans_json(&rec);
        probe_layers = layers.probe_layers();
        iteration_s.push(began.elapsed().as_secs_f64());
    }

    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            name: m.name,
            value: median(&per_pass.iter().map(|p| p[i].value).collect::<Vec<_>>()),
            unit: m.unit,
        })
        .collect();
    metrics.extend([
        // 1 thread over `ctx.threads`, fastest times, of the workload's
        // first operation: the suite pass on `kernels`, but
        // `analyze_source` on `stencil_hot` and `analyze_program` on
        // `stencil_whole`. The report names the operation.
        Metric {
            name: "pool.suite_speedup",
            value: one.fastest(0)[0] / many.fastest(0)[0],
            unit: "ratio",
        },
        Metric {
            name: "pool.stride_speedup",
            value: pool_stride.unwrap_or(0.0),
            unit: "ratio",
        },
        Metric {
            name: "bench.span_coverage",
            value: median(&coverage),
            unit: "ratio",
        },
        Metric {
            name: "bench.tracing_overhead",
            value: median(&overhead),
            unit: "ratio",
        },
    ]);
    let probe_layers: Vec<String> = probe_layers.iter().map(|l| format!("\"{l}\"")).collect();
    let report = vec![
        field("traced_passes", per_pass.len().to_string()),
        field(
            "pool_suite_speedup_op",
            format!("\"{}\"", ctx.workload.ops()[0]),
        ),
        field("probe_layers", format!("[{}]", probe_layers.join(","))),
        field("untraced_1_thread", one.report(ctx.workload)),
        field("untraced_all_threads", many.report(ctx.workload)),
    ];
    Ok((metrics, report, last_spans))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "pipebench: {e}\nusage: pipebench --workload <kernels|stencil_hot|stencil_whole> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.join("..");
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let expected = Expected::load(w, args.seed, &repo)?;

    let mut setup_s = Vec::new();
    let (programs, modules) = setup_batch(w, args.seed, &mut setup_s)?;
    let program_count = programs.len();
    let mut ctx = Ctx {
        workload: w,
        seed: args.seed,
        programs,
        orders: SplitMix(args.seed.wrapping_add(1)),
        modules: &modules,
        expected: &expected,
        threads,
        seconds: args.seconds,
    };

    let mut tally = Tally::default();
    let (metrics, details, spans) = if args.trace {
        traced(&mut ctx, &mut tally)?
    } else {
        let (metrics, details) = untraced(&mut ctx, &mut setup_s, &mut tally)?;
        (metrics, details, String::new())
    };

    let mut report = vec![
        field("workload", format!("\"{}\"", w.name())),
        field("seed", args.seed.to_string()),
        field("trace", (args.trace as u8).to_string()),
        field("seconds", num(args.seconds)),
        field("host_cpus", threads.to_string()),
        field("git_revision", format!("\"{}\"", esc(&git_revision(&repo)))),
        field("setup_median_s", num(median(&setup_s))),
        field("setup_fastest_s", num(sorted(&setup_s)[0])),
        field("setup_n", setup_s.len().to_string()),
        field("programs", program_count.to_string()),
        field("golden_kernels", expected.golden_kernels().to_string()),
    ];
    if let Some((instructions, events)) = expected.stencil_counts {
        report.push(field("stencil_instructions", instructions.to_string()));
        report.push(field("stencil_events", events.to_string()));
    }
    report.extend(details);
    report.push(field(
        "fail_share",
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
    ));
    let messages: Vec<String> = tally
        .messages
        .iter()
        .map(|m| format!("\"{}\"", esc(m)))
        .collect();
    report.push(field("failures", format!("[{}]", messages.join(","))));
    let report = object(&report);
    println!("{}", object(&[field("pipebench", report.clone())]));

    let results = bench_dir.join("results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    ));
    let mut saved = vec![field("report", report)];
    if !spans.is_empty() {
        saved.push(field("spans", spans));
    }
    std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&file, object(&saved) + "\n"))
        .map_err(|e| format!("{}: {e}", file.display()))?;

    let metric_fields: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            let v = object(&[
                field("value", num(m.value)),
                field("unit", format!("\"{}\"", m.unit)),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    println!(
        "{}",
        object(&[
            field("correct", (tally.failed == 0).to_string()),
            field("attempted", tally.attempted.to_string()),
            field("failed", tally.failed.to_string()),
            field("metrics", object(&metric_fields)),
        ])
    );
    Ok(())
}
