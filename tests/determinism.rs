//! Differential tests for the parallel analysis engine.
//!
//! The engine's contract is that `SuiteReport`s are **bit-deterministic at
//! any thread count**: workers write into pre-indexed slots and nothing is
//! reduced in completion order, so the rendered JSON must be byte-identical
//! whether the analysis ran on 1, 2, or 7 threads (7 exceeds the hot-loop
//! count of most kernels, so the over-subscribed path is exercised too).
//! These tests enforce that over every bundled kernel and over
//! proptest-generated random programs.

use proptest::prelude::*;
use vectorscope::json::{gap_suite_json, suite_json};
use vectorscope::{analyze_gap, analyze_source, analyze_sources, AnalysisOptions};

/// Analyzes at a given thread count and renders the canonical JSON report.
fn report_json(name: &str, source: &str, threads: usize) -> String {
    let options = AnalysisOptions {
        threads,
        ..AnalysisOptions::default()
    };
    let suite = analyze_source(name, source, &options)
        .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
    suite_json(&suite.loops)
}

#[test]
fn every_bundled_kernel_is_identical_at_1_2_and_7_threads() {
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let sequential = report_json(&name, &kernel.source, 1);
        for threads in [2, 7] {
            let parallel = report_json(&name, &kernel.source, threads);
            assert_eq!(
                sequential, parallel,
                "{name}: report diverged from the sequential engine at {threads} threads"
            );
        }
    }
}

/// The static↔dynamic cross-validation inherits the determinism contract:
/// `vscope gap` output (witness/bound/stride obligations, gap percentages,
/// verdicts) is byte-identical at every thread count.
#[test]
fn gap_reports_are_identical_at_1_2_and_7_threads() {
    for kernel in vectorscope_kernels::studies::kernels() {
        let name = kernel.file_name();
        let mut reports = Vec::new();
        for threads in [1usize, 2, 7] {
            let options = AnalysisOptions {
                threads,
                ..AnalysisOptions::default()
            };
            let suite = analyze_gap(&name, &kernel.source, &options)
                .unwrap_or_else(|e| panic!("{name} failed to cross-validate: {e}"));
            reports.push(gap_suite_json(&suite));
        }
        assert_eq!(
            reports[0], reports[1],
            "{name}: gap report diverged at 2 threads"
        );
        assert_eq!(
            reports[0], reports[2],
            "{name}: gap report diverged at 7 threads"
        );
    }
}

#[test]
fn auto_thread_count_matches_the_sequential_engine() {
    // threads = 0 resolves via VSCOPE_THREADS / available_parallelism —
    // whatever it picks, the report must not change.
    for kernel in vectorscope_kernels::studies::kernels().into_iter().take(3) {
        let name = kernel.file_name();
        assert_eq!(
            report_json(&name, &kernel.source, 1),
            report_json(&name, &kernel.source, 0),
            "{name}: auto thread count diverged from the sequential engine"
        );
    }
}

#[test]
fn batch_analysis_is_identical_to_one_by_one() {
    let kernels: Vec<_> = vectorscope_kernels::studies::kernels()
        .into_iter()
        .take(4)
        .collect();
    let programs: Vec<(String, String)> = kernels
        .iter()
        .map(|k| (k.file_name(), k.source.clone()))
        .collect();
    let solo: Vec<String> = programs
        .iter()
        .map(|(name, source)| report_json(name, source, 1))
        .collect();
    for threads in [1, 2, 7] {
        let options = AnalysisOptions {
            threads,
            ..AnalysisOptions::default()
        };
        let batch: Vec<String> = analyze_sources(&programs, &options)
            .into_iter()
            .map(|r| suite_json(&r.expect("kernel analyzes").loops))
            .collect();
        assert_eq!(
            solo, batch,
            "batch path diverged from one-by-one analysis at {threads} threads"
        );
    }
}

/// Emits a random-but-valid Kern program: an init loop, then a compute
/// loop whose body is drawn from patterns covering every engine path —
/// unit stride, non-unit stride, reversed access, reductions, and serial
/// chains.
fn random_program(n: u64, stmts: &[u8]) -> String {
    let m = n * 4 + 2; // array size: covers i*3 and i+1 at every pick
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

    /// Random programs drawn from the statement grammar above must report
    /// identically at 1, 2, and 7 threads, with and without reduction
    /// breaking.
    #[test]
    fn random_programs_are_identical_at_any_thread_count(
        n in 4u64..48,
        stmts in prop::collection::vec(0u8..7, 1..6),
        break_reductions in any::<bool>(),
    ) {
        let source = random_program(n, &stmts);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 7] {
            let options = AnalysisOptions {
                threads,
                break_reductions,
                // Random bodies spread cycles thinly; analyze every loop.
                hot_threshold_pct: 1.0,
                ..AnalysisOptions::default()
            };
            let suite = analyze_source("rand.kern", &source, &options)
                .unwrap_or_else(|e| panic!("generated program failed: {e}\n{source}"));
            reports.push(suite_json(&suite.loops));
        }
        prop_assert_eq!(
            &reports[0], &reports[1],
            "2 threads diverged for:\n{}", source
        );
        prop_assert_eq!(
            &reports[0], &reports[2],
            "7 threads diverged for:\n{}", source
        );
    }
}
