//! Differential tests for the streaming bounded-memory analysis engine.
//!
//! The streaming engine ([`vectorscope::stream`]) consumes trace events as
//! the VM emits them and never materializes a trace or DDG. Its contract is
//! that its metrics are **byte-identical** to the batch engine's
//! ([`analyze_ddg`] over the DDG of the same events), at every thread
//! count. These tests enforce that over every hot-loop sub-trace the driver
//! captures for the bundled kernels and the golden snapshots, over
//! whole-program runs of proptest-generated random programs, pin the
//! overlapping-store dependence fix in *both* engines, and hold the engine
//! to its memory budget against the batch DDG.

use proptest::prelude::*;
use vectorscope::json::suite_json;
use vectorscope::metrics::{analyze_ddg, MetricOptions};
use vectorscope::{
    analyze_program, analyze_source, stream_program, AnalysisOptions, CandidatePolicy, LoopReport,
    StreamOutcome, StreamingAnalyzer,
};
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_ir::Module;
use vectorscope_trace::Trace;

/// One hot loop's report row from [`analyze_source`] and the sub-traces of
/// the instances the driver sampled for it, in instance order.
struct CapturedLoop {
    row: LoopReport,
    traces: Vec<Trace>,
}

/// Runs [`analyze_source`] with default options and re-captures, in one
/// run, the sub-traces its rows were computed from (the default
/// [`vectorscope::InstancePick::Representative`] sampling of four
/// instances spread over the run).
fn captured_loops(name: &str, source: &str) -> (Module, Vec<CapturedLoop>) {
    let options = AnalysisOptions::default();
    let suite = analyze_source(name, source, &options)
        .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
    let module = suite.module;
    let mut vm = Vm::new(&module);
    vm.run_main().unwrap();
    let profiles = vm.profiler().profiles(&module, vm.forests());
    let mut cap = Vm::new(&module);
    let mut counts = Vec::new();
    for row in &suite.loops {
        let entries = profiles
            .iter()
            .find(|p| p.key.func == row.func && p.key.loop_id == row.loop_id)
            .map(|p| p.entries)
            .expect("a hot loop has a profile row");
        let mut instances: Vec<u64> = (0..4).map(|s| (s * entries / 4).min(entries - 1)).collect();
        instances.dedup();
        for &instance in &instances {
            let spec = CaptureSpec::Loop {
                func: row.func,
                loop_id: row.loop_id,
                instance,
            };
            cap.add_capture(spec, &row.location());
        }
        counts.push(instances.len());
    }
    cap.run_main().unwrap();
    let mut traces = cap.take_traces().into_iter();
    drop((vm, cap));
    let loops = suite
        .loops
        .into_iter()
        .zip(counts)
        .map(|(row, n)| CapturedLoop {
            row,
            traces: traces.by_ref().take(n).collect(),
        })
        .collect();
    (module, loops)
}

/// Feeds `trace` through a fresh [`StreamingAnalyzer`] and checks its
/// metrics, per-instruction rows and node count against [`analyze_ddg`]
/// over the DDG of the same trace, at 1, 2 and 7 stride threads (7 exceeds
/// the shard count of most sub-traces, exercising over-subscription).
fn stream_and_compare(module: &Module, trace: &Trace, what: &str) -> StreamOutcome {
    let policy = CandidatePolicy::FloatArith;
    let ddg = Ddg::try_build_with_policy(module, trace, policy).unwrap();
    let [first, _, _] = [1usize, 2, 7].map(|threads| {
        let options = MetricOptions {
            break_reductions: false,
            threads,
        };
        let (metrics, per_inst) = analyze_ddg(module, &ddg, &options);
        let mut analyzer = StreamingAnalyzer::new(module, policy);
        for event in trace {
            analyzer.consume(event);
        }
        let streamed = analyzer
            .finish(&options)
            .unwrap_or_else(|e| panic!("{what}: streaming failed: {e}"));
        assert_eq!(
            metrics, streamed.metrics,
            "{what}: metrics diverged at {threads} threads"
        );
        assert_eq!(
            per_inst, streamed.per_inst,
            "{what}: per-inst diverged at {threads} threads"
        );
        assert_eq!(ddg.len(), streamed.nodes, "{what}: node count diverged");
        streamed
    });
    first
}

/// Streams every captured sub-trace of `l` (see [`stream_and_compare`])
/// and returns its report row with the streamed representative (most
/// candidate operations, ties to the earliest instance) in place of the
/// batch one.
fn streamed_row(module: &Module, l: &CapturedLoop) -> LoopReport {
    let what = l.row.location();
    let mut best: Option<StreamOutcome> = None;
    for trace in l.traces.iter().filter(|t| !t.is_empty()) {
        let outcome = stream_and_compare(module, trace, &what);
        if best
            .as_ref()
            .is_none_or(|b| outcome.metrics.total_ops > b.metrics.total_ops)
        {
            best = Some(outcome);
        }
    }
    let best = best.unwrap_or_else(|| panic!("{what}: every sub-trace is empty"));
    LoopReport {
        metrics: best.metrics,
        per_inst: best.per_inst,
        ddg_nodes: best.nodes,
        ..l.row.clone()
    }
}

/// Every hot-loop sub-trace the driver captures for every bundled kernel
/// streams to the batch engine's exact metrics, and the streamed
/// representative reproduces the driver's report row.
#[test]
fn every_bundled_kernel_is_byte_identical_to_the_batch_engine() {
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let (module, loops) = captured_loops(&name, &kernel.source);
        for l in &loops {
            assert_eq!(
                streamed_row(&module, l),
                l.row,
                "{name}: streamed row diverged from the driver's"
            );
        }
    }
}

/// The streaming engine reproduces every checked-in golden snapshot
/// byte-for-byte from the captured sub-traces — the same gate the driver
/// passes in `tests/golden.rs`.
#[test]
fn golden_snapshots_match_the_streaming_engine() {
    let dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"));
    let mut kernels = vectorscope_kernels::studies::kernels();
    kernels.push(vectorscope_kernels::paper::listing1(8));
    kernels.push(vectorscope_kernels::paper::listing2(8));
    kernels.push(vectorscope_kernels::paper::listing3_original(12));
    kernels.push(vectorscope_kernels::paper::listing3_transformed(12));
    for kernel in kernels {
        let name = kernel.file_name();
        let path = dir.join(format!("{name}.json"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read golden snapshot {}: {e}", path.display()));
        let (module, loops) = captured_loops(&name, &kernel.source);
        let rows: Vec<LoopReport> = loops.iter().map(|l| streamed_row(&module, l)).collect();
        let mut streaming = suite_json(&rows);
        streaming.push('\n');
        assert_eq!(
            golden, streaming,
            "{name}: streaming report diverged from the golden snapshot"
        );
    }
}

/// The streaming engine inherits the determinism contract: whole-program
/// metrics *and* observability counters are identical at 1, 2, and 7
/// threads.
#[test]
fn streaming_reports_and_stats_are_identical_at_1_2_and_7_threads() {
    for kernel in vectorscope_kernels::studies::kernels().into_iter().take(4) {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        let outcomes = [1usize, 2, 7].map(|threads| {
            let options = AnalysisOptions {
                threads,
                ..AnalysisOptions::default()
            };
            stream_program(&module, &options)
                .unwrap_or_else(|e| panic!("{name} failed to stream: {e}"))
        });
        for o in &outcomes[1..] {
            assert_eq!(outcomes[0].metrics, o.metrics, "{name}: metrics diverged");
            assert_eq!(
                outcomes[0].per_inst, o.per_inst,
                "{name}: per-inst diverged"
            );
            assert_eq!(outcomes[0].nodes, o.nodes, "{name}: node count diverged");
            assert_eq!(outcomes[0].stats, o.stats, "{name}: stream stats diverged");
        }
        assert!(outcomes[0].stats.events > 0, "{name}: no events streamed");
        assert!(
            outcomes[0].stats.peak_resident_bytes() > 0,
            "{name}: no resident state accounted"
        );
    }
}

/// Asserts that [`stream_program`] agrees with the batch whole-program
/// analysis ([`analyze_program`]) on metrics, per-instruction rows, and
/// node count.
fn assert_stream_program_matches(name: &str, module: &Module, threads: usize) {
    let options = AnalysisOptions {
        threads,
        ..AnalysisOptions::default()
    };
    let batch = analyze_program(module, &options)
        .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
    let streamed =
        stream_program(module, &options).unwrap_or_else(|e| panic!("{name} failed to stream: {e}"));
    assert_eq!(batch.metrics, streamed.metrics, "{name}: metrics diverged");
    assert_eq!(
        batch.per_inst, streamed.per_inst,
        "{name}: per-inst diverged"
    );
    assert_eq!(
        batch.ddg.len(),
        streamed.nodes,
        "{name}: node count diverged"
    );
}

#[test]
fn stream_program_matches_analyze_program() {
    for kernel in vectorscope_kernels::studies::kernels().into_iter().take(4) {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        assert_stream_program_matches(&name, &module, 1);
    }
}

/// The streaming engine's memory budget. Its peak resident state scales
/// with live program state and candidate instances, not with trace length,
/// so on the bundled kernel with the longest whole-program trace it must
/// stay at most 25% of the batch DDG (a ≥ 4× reduction). Both sides are the
/// engines' own byte counts, which are deterministic.
#[test]
fn streaming_peak_is_at_most_a_quarter_of_the_batch_ddg() {
    let kernel = vectorscope_kernels::all_kernels()
        .into_iter()
        .find(|k| k.file_name() == "spec_434_zeusmp.kern")
        .expect("spec_434_zeusmp is bundled");
    let module = kernel.compile().unwrap();
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let ddg_bytes = analyze_program(&module, &options)
        .unwrap()
        .ddg
        .memory_bytes();
    let streaming_peak = stream_program(&module, &options)
        .unwrap()
        .stats
        .peak_resident_bytes();
    println!("streaming peak {streaming_peak} B vs batch DDG {ddg_bytes} B");
    assert!(
        streaming_peak <= ddg_bytes / 4,
        "streaming peak ({streaming_peak} B) must be at most 25% of the batch DDG ({ddg_bytes} B)"
    );
}

/// Regression test for the overlapping-store dependence bug, pinned in
/// **both** engines.
///
/// Each iteration `i` first stores `a[i+1] = 0.0` (an exact-base store
/// carrying no candidate dependence), then overwrites half of that slot
/// through a float pointer with a value derived from this iteration's
/// multiply. Iteration `i+1` loads `a[i+1]`: under the fixed most-recent-
/// overlapping-writer rule the load depends on the float store and the
/// multiplies form a serial chain (8 singleton partitions); under the old
/// exact-base fast path the stale `0.0` store shadowed it and the
/// multiplies looked embarrassingly parallel (1 partition of size 8).
#[test]
fn overlapping_store_serializes_the_chain_in_both_engines() {
    let src = r#"
        const int N = 8;
        double a[9];
        double out = 0.0;
        void main() {
            a[0] = 0.5;
            for (int i = 0; i < N; i++) {
                double v = a[i] * 2.0;
                a[i+1] = 0.0;
                double* p = a;
                int q = (int)p + (i+1)*8 + 4;
                float* f = (float*)q;
                f[0] = (float)v;
            }
            out = a[N];
        }
    "#;
    let module = vectorscope_frontend::compile("chain.kern", src).unwrap();
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let batch = analyze_program(&module, &options).unwrap();
    let streamed = stream_program(&module, &options).unwrap();
    for (engine, per_inst) in [
        ("batch", &batch.per_inst),
        ("streaming", &streamed.per_inst),
    ] {
        assert_eq!(per_inst.len(), 1, "{engine}: expected exactly the fmul");
        let m = &per_inst[0];
        assert_eq!(m.instances, 8, "{engine}: fmul instance count");
        assert_eq!(
            m.partitions, 8,
            "{engine}: the aliased float store must serialize the multiply \
             chain (old exact-base fast path reported 1 partition)"
        );
        assert_eq!(
            m.avg_partition_size, 1.0,
            "{engine}: partitions are singletons"
        );
    }
    assert_eq!(batch.metrics, streamed.metrics);
}

/// Emits a random-but-valid Kern program covering every engine path —
/// unit stride, non-unit stride, reversed access, reductions, serial
/// chains (the determinism suite's grammar).
fn random_program(n: u64, stmts: &[u8]) -> String {
    let m = n * 4 + 2;
    let mut body = String::new();
    for s in stmts {
        let line = match s % 7 {
            0 => "a[i] = b[i] + c[i];",
            1 => "a[i] = b[i] * c[i] - b[i];",
            2 => "a[i*2] = b[i*2] * 2.0;",
            3 => "a[i] = a[i] + b[i*3];",
            4 => "acc += b[i] * c[i];",
            5 => "a[i+1] = a[i] * 0.5;",
            _ => "c[i] = b[i] * b[i];",
        };
        body.push_str("        ");
        body.push_str(line);
        body.push('\n');
    }
    format!(
        r#"
const int N = {n};
const int M = {m};
double a[M]; double b[M]; double c[M]; double s = 0.0;
void main() {{
    for (int i = 0; i < M; i++) {{
        b[i] = (double)i * 0.5;
        c[i] = (double)(i + 3) * 0.25;
    }}
    double acc = 0.0;
    for (int i = 0; i < N; i++) {{
{body}    }}
    s = acc;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs must stream to the batch engine's exact
    /// whole-program metrics, at every thread count.
    #[test]
    fn random_programs_stream_identically_to_the_batch_engine(
        n in 4u64..48,
        stmts in prop::collection::vec(0u8..7, 1..6),
    ) {
        let source = random_program(n, &stmts);
        let module = vectorscope_frontend::compile("rand.kern", &source)
            .unwrap_or_else(|e| panic!("generated program failed: {e}\n{source}"));
        for threads in [1usize, 2, 7] {
            assert_stream_program_matches(&source, &module, threads);
        }
    }
}
