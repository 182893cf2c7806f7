//! End-to-end tests of the `vscope` binary.

use std::process::Command;

fn vscope(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_vscope"))
        .args(args)
        .output()
        .expect("vscope runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vscope-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const SAXPY: &str = r#"
const int N = 64;
double a[N]; double b[N]; double c[N];
void main() {
    for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
    for (int i = 0; i < N; i++) { c[i] = 2.5 * a[i] + b[i]; }
}
"#;

/// The usage text is also pinned byte for byte. To regenerate it after an
/// intentional change, run `UPDATE_GOLDEN=1 cargo test -p vectorscope-cli
/// --test cli` and review the diff.
#[test]
fn no_args_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_vscope"))
        .output()
        .expect("vscope runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("usage is UTF-8");
    assert!(err.contains("USAGE"));
    // Continuation lines keep their indentation under the command name.
    let threads = err
        .lines()
        .find(|l| l.contains("[--threads N]"))
        .expect("usage lists --threads");
    assert!(
        threads.starts_with("                 [--threads N]"),
        "continuation line lost its indentation: {threads:?}"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/usage.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &err).expect("write usage golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("usage golden exists");
    assert_eq!(err, want, "usage text diverged from {path}");
}

#[test]
fn unknown_command_prints_usage() {
    let (_, err, ok) = vscope(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let path = write_temp("flags.kern", SAXPY);
    let file = path.to_str().unwrap();
    for args in [
        &["analyze", file, "--thrads", "2"][..],
        &["analyze", file, "--engine", "tree"],
        &["analyze", file, "--streaming"],
        &["trace", file, "--verbose"],
        &["gap", "--all-kernel"],
        &["table", "2", "--json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vscope"))
            .args(args)
            .output()
            .expect("vscope runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {err}"
        );
    }
    // An option that needs a value and has none is rejected too.
    let (_, err, ok) = vscope(&["analyze", file, "--threads"]);
    assert!(!ok);
    assert!(err.contains("`--threads` needs a value"), "{err}");
    // Accepted flags still work, the shared analysis ones included.
    let (_, err, ok) = vscope(&["analyze", file, "--threads", "2", "--json"]);
    assert!(ok, "{err}");
}

#[test]
fn unknown_flags_suggest_the_closest_known_flag() {
    let path = write_temp("hints.kern", SAXPY);
    let file = path.to_str().unwrap();
    let (_, err, ok) = vscope(&["analyze", file, "--thrads", "2"]);
    assert!(!ok);
    assert!(
        err.contains("unknown flag `--thrads` (did you mean `--threads`?)"),
        "{err}"
    );
    // Nothing within edit distance 2: no hint.
    let (_, err, ok) = vscope(&["analyze", file, "--frobnicate"]);
    assert!(!ok);
    assert!(!err.contains("did you mean"), "{err}");
}

#[test]
fn analyze_produces_table() {
    let path = write_temp("saxpy.kern", SAXPY);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--verbose"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("Avg Concur"), "{out}");
    assert!(out.contains("%Packed"), "{out}");
    assert!(out.contains("control irregularity"), "{out}");
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let (_, err, ok) = vscope(&["analyze", "/nonexistent/x.kern"]);
    assert!(!ok);
    assert!(err.contains("vscope:"));
}

#[test]
fn analyze_compile_error_has_position() {
    let path = write_temp("bad.kern", "void main( {");
    let (_, err, ok) = vscope(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("compile error"), "{err}");
}

#[test]
fn profile_lists_loops() {
    let path = write_temp("saxpy2.kern", SAXPY);
    let (out, _, ok) = vscope(&["profile", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("total cycles"), "{out}");
    assert!(out.contains("main:"), "{out}");
}

#[test]
fn vectorize_reports_decisions() {
    let path = write_temp("saxpy3.kern", SAXPY);
    let (out, _, ok) = vscope(&["vectorize", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("VECTORIZED"), "{out}");
}

#[test]
fn trace_writes_decodable_file() {
    let path = write_temp("saxpy4.kern", SAXPY);
    let out_path = std::env::temp_dir().join("vscope-cli-tests/t.bin");
    let (out, _, ok) = vscope(&[
        "trace",
        path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(out.contains("captured"), "{out}");
    let bytes = std::fs::read(&out_path).unwrap();
    let trace = vectorscope_trace::Trace::from_bytes(&bytes).unwrap();
    assert!(!trace.is_empty());
}

#[test]
fn ir_dump_contains_function() {
    let path = write_temp("saxpy5.kern", SAXPY);
    let (out, _, ok) = vscope(&["ir", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("fn main()"), "{out}");
    assert!(out.contains("fmul"), "{out}");
}

#[test]
fn kernels_lists_suite() {
    let (out, _, ok) = vscope(&["kernels"]);
    assert!(ok);
    assert!(out.contains("gauss_seidel"));
    assert!(out.contains("fir"));
    assert!(out.contains("spec_470_lbm"));
}

#[test]
fn kernel_by_name_and_variant() {
    let (out, err, ok) = vscope(&["kernel", "fir", "pointer"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("fir_pointer.kern"), "{out}");

    let (_, err, ok) = vscope(&["kernel", "nope"]);
    assert!(!ok);
    assert!(err.contains("no kernel"), "{err}");
}

#[test]
fn fig_runs() {
    let (out, _, ok) = vscope(&["fig", "2"]);
    assert!(ok);
    assert!(out.contains("REPRODUCED"), "{out}");
}

#[test]
fn triage_ranks_loops() {
    let src = r#"
const int N = 128;
double a[N]; double b[N]; double p[N];
void main() {
    for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
    for (int i = 0; i < N; i++) { a[i] = a[i] * b[i] + 0.5; }  // missed
    p[0] = 1.0;
    for (int i = 1; i < N; i++) { p[i] = p[i-1] * 1.01; }      // serial
}
"#;
    let path = write_temp("triage.kern", src);
    let (out, err, ok) = vscope(&["triage", path.to_str().unwrap()]);
    assert!(ok, "stderr: {err}");
    assert!(
        out.contains("MISSED OPPORTUNITY") || out.contains("already vectorized"),
        "{out}"
    );
    assert!(out.contains("verdict"), "{out}");
}

#[test]
fn analyze_json_output() {
    let path = write_temp("saxpy6.kern", SAXPY);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(ok, "stderr: {err}");
    let json = out.trim();
    assert!(json.starts_with('['), "{json}");
    assert!(json.ends_with(']'), "{json}");
    assert!(json.contains("\"percent_packed\""), "{json}");
}

#[test]
fn parallelism_profile_runs() {
    let path = write_temp("saxpy7.kern", SAXPY);
    let (out, err, ok) = vscope(&["parallelism", path.to_str().unwrap()]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("critical path"), "{out}");
    assert!(out.contains('#'), "{out}");
}

#[test]
fn integer_ops_flag_is_accepted() {
    let src = r#"
const int N = 64;
int a[N]; int b[N];
void main() {
    for (int i = 0; i < N; i++) { b[i] = i * 3; }
    for (int i = 0; i < N; i++) { a[i] = b[i] + 7; }
}
"#;
    let path = write_temp("ints.kern", src);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--integer-ops"]);
    assert!(ok, "stderr: {err}");
    // Without --integer-ops there would be no candidate ops at all.
    assert!(!out.contains("no loops above"), "{out}");
}

#[test]
fn ddg_dot_export() {
    let path = write_temp("saxpy8.kern", SAXPY);
    let out_path = std::env::temp_dir().join("vscope-cli-tests/g.dot");
    let (out, err, ok) = vscope(&[
        "ddg",
        path.to_str().unwrap(),
        "--candidates-only",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("wrote"), "{out}");
    let dot = std::fs::read_to_string(&out_path).unwrap();
    assert!(dot.starts_with("digraph ddg {"));
    assert!(dot.contains("shape=box"));
}

#[test]
fn stats_compares_streaming_peak_with_the_batch_ddg() {
    // Enough repeated work that the DDG outgrows the streaming state.
    let src = r#"
const int N = 1024;
double a[N]; double b[N]; double c[N];
void main() {
    for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
    for (int t = 0; t < 4; t++)
        for (int i = 0; i < N; i++) { c[i] = 2.5 * a[i] + b[i]; }
}
"#;
    let path = write_temp("stats.kern", src);
    let path = path.to_str().unwrap();

    let (out, err, ok) = vscope(&["stats", path]);
    assert!(ok, "stderr: {err}");
    for label in ["events consumed", "peak resident bytes", "DDG bytes"] {
        assert!(out.contains(label), "missing {label:?}: {out}");
    }
    assert!(out.contains("% of the batch DDG"), "{out}");
    assert!(!out.contains("trace bytes"), "{out}");

    let (json, err, ok) = vscope(&["stats", path, "--json"]);
    assert!(ok, "stderr: {err}");
    let field = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let start = json.find(&key).unwrap_or_else(|| panic!("{name}: {json}")) + key.len();
        let digits: String = json[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    for name in [
        "events",
        "nodes",
        "candidate_instances",
        "partitions",
        "peak_reg_shadow",
        "peak_mem_shadow",
        "peak_shadow_bytes",
        "peak_accumulator_bytes",
    ] {
        let _ = field(name);
    }
    assert!(
        field("batch_ddg_bytes") > field("streaming_peak_bytes"),
        "{json}"
    );
    assert!(!json.contains("trace"), "{json}");
}
