//! The analyzer's two timing gates, measured on optimized code:
//!
//! - **fused**: `partition_all` computes every candidate's Algorithm 1
//!   timestamps in one forward scan of the DDG, where the per-instruction
//!   reference `partition` walks the whole DDG once per candidate. On an
//!   8-statement loop body (N=256) both must agree, and the fused scan must
//!   be at least 2× faster.
//! - **staticdep**: `vscope gap` runs the static dependence tests next to
//!   the dynamic pipeline, so they must stay cheap: `analyze_module` over
//!   the 10 study kernels must take under 5% of `analyze_sources` on the
//!   same kernels (sequential, so the ratio does not depend on the thread
//!   count).
//!
//! Run: `cargo bench -p vectorscope-bench --bench gates`. It prints its
//! measurements, writes no file, and exits non-zero if a gate fails.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use vectorscope::{analyze_sources, partition, partition_all, AnalysisOptions};
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_ir::Module;

/// Target wall-clock time of the measured batch.
const MEASURE_TARGET_NS: u128 = 200_000_000;

/// Mean wall-clock nanoseconds per call of `routine`: a warm-up (10 ms or
/// 50 calls) estimates the cost, then one batch of about 200 ms (at least
/// 10 calls) is timed.
fn ns_per_iter<O>(mut routine: impl FnMut() -> O) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    loop {
        black_box(routine());
        warm_iters += 1;
        if warm_start.elapsed().as_millis() >= 10 || warm_iters >= 50 {
            break;
        }
    }
    let est_ns = (warm_start.elapsed().as_nanos() / warm_iters as u128).max(1);
    let iters = (MEASURE_TARGET_NS / est_ns).clamp(10, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A loop body with many independent floating-point statements, so the DDG
/// carries well over 8 candidate instructions.
fn multi_statement_src(n: usize) -> String {
    format!(
        r#"
const int N = {n};
double a[N]; double b[N]; double c[N]; double d[N];
double e[N]; double f[N]; double g[N]; double h[N];
double p[N]; double q[N];
void main() {{
    for (int i = 0; i < N; i++) {{
        b[i] = (double)i * 0.5;
        c[i] = (double)(N - i) * 0.25;
    }}
    for (int i = 0; i < N; i++) {{
        a[i] = b[i] * c[i];
        d[i] = b[i] + c[i];
        e[i] = a[i] - d[i];
        f[i] = a[i] * 2.0;
        g[i] = d[i] + 1.0;
        h[i] = e[i] * f[i];
        p[i] = g[i] + h[i];
        q[i] = p[i] * 0.5;
    }}
}}
"#
    )
}

/// The fused-partitioning speedup over the per-instruction reference.
fn fused_speedup() -> f64 {
    let module = vectorscope_frontend::compile("fused.kern", &multi_statement_src(256)).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "fused");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    let ddg = Ddg::build(&module, &trace);
    let insts = ddg.candidate_insts();
    assert!(
        insts.len() >= 8,
        "kernel must expose at least 8 candidate statements, got {}",
        insts.len()
    );
    let empty = HashSet::new();

    // The two paths agree before they are timed.
    let fused = partition_all(&ddg, &insts, &[]);
    for (&inst, got) in insts.iter().zip(&fused) {
        assert_eq!(got, &partition(&ddg, inst, &empty));
    }

    let per_inst_ns = ns_per_iter(|| {
        insts
            .iter()
            .map(|&inst| black_box(partition(&ddg, inst, &empty)).groups.len())
            .sum::<usize>()
    });
    let fused_ns = ns_per_iter(|| {
        black_box(partition_all(&ddg, &insts, &[]))
            .iter()
            .map(|p| p.groups.len())
            .sum::<usize>()
    });
    println!(
        "fused: {} DDG nodes, {} candidates; per-instruction {:.3} ms, fused {:.3} ms",
        ddg.len(),
        insts.len(),
        per_inst_ns / 1e6,
        fused_ns / 1e6
    );
    per_inst_ns / fused_ns
}

/// The static dependence analysis' cost as a percentage of the dynamic
/// pipeline's on the study kernels.
fn staticdep_pct() -> f64 {
    let programs: Vec<(String, String)> = vectorscope_kernels::studies::kernels()
        .into_iter()
        .map(|k| (k.file_name(), k.source))
        .collect();
    // Compilation is shared by both sides in `vscope gap`, so the static
    // side is timed on compiled modules.
    let modules: Vec<Module> = programs
        .iter()
        .map(|(name, src)| vectorscope_frontend::compile(name, src).expect("kernel compiles"))
        .collect();
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };

    let static_ns = ns_per_iter(|| {
        modules
            .iter()
            .map(|m| vectorscope_staticdep::analyze_module(black_box(m)).len())
            .sum::<usize>()
    });
    let dynamic_ns = ns_per_iter(|| {
        let results = analyze_sources(black_box(&programs), &options);
        assert!(results.iter().all(Result::is_ok));
        results.len()
    });
    println!(
        "staticdep: {} kernels; static {:.3} ms, dynamic {:.3} ms",
        programs.len(),
        static_ns / 1e6,
        dynamic_ns / 1e6
    );
    100.0 * static_ns / dynamic_ns
}

fn main() {
    let speedup = fused_speedup();
    let pct = staticdep_pct();
    println!("fused speedup: {speedup:.2}x (gate: >= 2x)");
    println!("staticdep share: {pct:.3}% of the dynamic pipeline (gate: < 5%)");
    let mut failed = false;
    if speedup < 2.0 {
        eprintln!("FAIL: fused scan must be at least 2x faster than per-instruction");
        failed = true;
    }
    if pct >= 5.0 {
        eprintln!("FAIL: static analysis must stay under 5% of the dynamic pipeline");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
