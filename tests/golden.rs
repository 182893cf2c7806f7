//! Golden snapshot tests for the paper kernels.
//!
//! `tests/golden/*.json` holds the checked-in `SuiteReport` JSON for every
//! `kernels::paper` listing and every `kernels::studies` case-study kernel
//! (the paper's Table 3 / Listing 5 material). `analyze_source` must
//! reproduce each file **byte-for-byte**: any engine change that shifts a
//! metric — a reordered reduction, a float summed in a different order, a
//! changed stride grouping — fails loudly here instead of silently
//! drifting the reproduced tables.
//!
//! To regenerate after an *intentional* metrics change, run:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use vectorscope::json::{gap_suite_json, suite_json};
use vectorscope::{analyze_gap, analyze_source, AnalysisOptions};
use vectorscope_kernels::Kernel;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The kernels with checked-in golden reports: the inline paper listings
/// and the §4.4 case studies.
fn golden_kernels() -> Vec<Kernel> {
    let mut kernels = vectorscope_kernels::studies::kernels();
    kernels.push(vectorscope_kernels::paper::listing1(8));
    kernels.push(vectorscope_kernels::paper::listing2(8));
    kernels.push(vectorscope_kernels::paper::listing3_original(12));
    kernels.push(vectorscope_kernels::paper::listing3_transformed(12));
    kernels
}

fn render(kernel: &Kernel) -> String {
    // Default options, sequential thread count: the determinism suite
    // proves every other thread count produces these same bytes.
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let suite = analyze_source(&kernel.file_name(), &kernel.source, &options)
        .unwrap_or_else(|e| panic!("{} failed to analyze: {e}", kernel.file_name()));
    let mut json = suite_json(&suite.loops);
    json.push('\n');
    json
}

/// The `vscope gap` cross-validation snapshot for one kernel (the
/// `.gap.json` files): witness/bound/stride obligations and the classified
/// static↔dynamic gap, rendered at one thread like the report snapshots.
fn render_gap(kernel: &Kernel) -> String {
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    let suite = analyze_gap(&kernel.file_name(), &kernel.source, &options)
        .unwrap_or_else(|e| panic!("{} failed to cross-validate: {e}", kernel.file_name()));
    let mut json = gap_suite_json(&suite);
    json.push('\n');
    json
}

/// Shared snapshot driver for both golden families (`.json` reports and
/// `.gap.json` cross-validations).
fn check_snapshots(suffix: &str, render_one: impl Fn(&Kernel) -> String) {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let dir = golden_dir();
    let mut diverged = Vec::new();
    for kernel in golden_kernels() {
        let json = render_one(&kernel);
        let path = dir.join(format!("{}{suffix}", kernel.file_name()));
        if update {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &json).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden report {} ({e}); regenerate with UPDATE_GOLDEN=1 \
                 cargo test --test golden",
                path.display()
            )
        });
        if want != json {
            diverged.push(format!(
                "{}:\n  expected: {}\n  got:      {}",
                kernel.file_name(),
                want.trim_end(),
                json.trim_end()
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "{} kernel report(s) diverged from tests/golden (if the metrics change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff):\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn paper_and_study_kernels_match_their_golden_reports() {
    check_snapshots(".json", render);
}

#[test]
fn paper_and_study_kernels_match_their_golden_gap_reports() {
    check_snapshots(".gap.json", render_gap);
}

#[test]
fn golden_directory_has_no_stale_files() {
    // A renamed kernel must not leave its old snapshot behind silently.
    // `vm_trace_digests.txt` is the VM-level golden of tests/trace_digest.rs.
    let mut expected: Vec<String> = golden_kernels()
        .iter()
        .flat_map(|k| {
            [
                format!("{}.json", k.file_name()),
                format!("{}.gap.json", k.file_name()),
            ]
        })
        .collect();
    expected.push("vm_trace_digests.txt".into());
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        assert!(
            expected.contains(&name),
            "stale golden file tests/golden/{name}: no bundled kernel produces it"
        );
    }
}
