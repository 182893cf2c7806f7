//! Regeneration of Tables 1–4.

use crate::speedup::case_study_speedups;
use vectorscope::report::render_table;
use vectorscope::{analyze_program, analyze_source, AnalysisOptions, LoopReport};
use vectorscope_autovec::analyze_module;
use vectorscope_kernels::{studies, utdsp, Kernel};

/// Runs the full pipeline on one kernel and returns its hot-loop rows with
/// *Percent Packed* attached.
pub fn analyze_kernel_hot_loops(
    kernel: &Kernel,
    options: &AnalysisOptions,
) -> Result<Vec<LoopReport>, vectorscope::Error> {
    Ok(analyze_source(&kernel.file_name(), &kernel.source, options)?.into_packed_loops())
}

/// Whole-program analysis row for one kernel (Table 3 granularity).
pub fn analyze_kernel_program(
    kernel: &Kernel,
    options: &AnalysisOptions,
) -> Result<LoopReport, vectorscope::Error> {
    let module = kernel.compile().map_err(vectorscope::Error::Compile)?;
    let analysis = analyze_program(&module, options)?;
    let mut report = LoopReport {
        module_name: kernel.file_name(),
        func_name: "<program>".into(),
        func: vectorscope_ir::FuncId(0),
        loop_id: vectorscope_ir::loops::LoopId(0),
        loop_line: 0,
        percent_cycles: 100.0,
        percent_packed: None,
        control_irregularity: 0.0,
        metrics: analysis.metrics,
        per_inst: analysis.per_inst,
        ddg_nodes: analysis.ddg.len(),
    };
    report.attach_percent_packed(&analyze_module(&module));
    Ok(report)
}

/// Table 1: per-hot-loop analysis of the SPEC CFP2006 stand-ins.
pub fn table1() -> String {
    let options = AnalysisOptions::default();
    let mut rows = Vec::new();
    for kernel in vectorscope_kernels::spec::kernels() {
        match analyze_kernel_hot_loops(&kernel, &options) {
            Ok(loops) => {
                // The paper's analysis characterizes floating-point
                // operations; hot loops without any (data-movement loops)
                // produce empty rows and are omitted.
                rows.extend(loops.into_iter().filter(|r| r.metrics.total_ops > 0));
            }
            Err(e) => panic!("{}: {e}", kernel.file_name()),
        }
    }
    render_table(
        "Table 1: SPEC CFP2006 stand-in hot loops (>= 10% of cycles)",
        &rows,
    )
}

/// Table 2: the stand-alone computation kernels (Gauss-Seidel stencil, 2-D
/// PDE grid solver), original versions.
pub fn table2() -> String {
    let options = AnalysisOptions::default();
    let mut rows = Vec::new();
    for kernel in [
        studies::gauss_seidel_original(),
        studies::pde_solver_original(),
    ] {
        let mut loops = analyze_kernel_hot_loops(&kernel, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.file_name()));
        // The paper reports the kernel's main loop: keep the hottest row.
        loops.truncate(1);
        rows.append(&mut loops);
    }
    render_table("Table 2: stand-alone computation kernels", &rows)
}

/// Table 3: UTDSP kernels, array vs pointer variants (whole-kernel rows).
pub fn table3() -> String {
    let options = AnalysisOptions::default();
    let mut rows = Vec::new();
    for kernel in utdsp::kernels() {
        let row = analyze_kernel_program(&kernel, &options)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.file_name()));
        rows.push(row);
    }
    render_table("Table 3: UTDSP kernels, array vs pointer variants", &rows)
}

/// Table 4: case-study speedups (original -> transformed) on the three
/// machine models.
pub fn table4() -> String {
    let mut out = String::new();
    out.push_str("== Table 4: case-study speedups (model cost, kernel region) ==\n");
    out.push_str(&format!(
        "{:<14} {:>22} {:>22} {:>22}\n",
        "Benchmark", "Xeon E5630 (SSE)", "Core i7-2600K (AVX)", "Phenom II (SSE)"
    ));
    out.push_str(&"-".repeat(84));
    out.push('\n');
    for row in case_study_speedups() {
        out.push_str(&format!(
            "{:<14} {:>22} {:>22} {:>22}\n",
            row.name,
            format!("{:.2}x", row.speedups[0]),
            format!("{:.2}x", row.speedups[1]),
            format!("{:.2}x", row.speedups[2]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_kernels::{find, Variant};

    #[test]
    fn table2_shapes_match_paper() {
        let options = AnalysisOptions::default();

        // Gauss-Seidel: not vectorized by the compiler, but some unit-stride
        // potential exists (the chained adds of the previous row's values).
        let gs = find("gauss_seidel", Variant::Original).unwrap();
        let rows = analyze_kernel_hot_loops(&gs, &options).unwrap();
        let row = rows
            .iter()
            .find(|r| r.func_name == "kernel")
            .expect("kernel loop is hot");
        assert_eq!(row.percent_packed, Some(0.0), "{row:?}");
        assert!(row.metrics.pct_unit_vec_ops > 10.0, "{:?}", row.metrics);

        // PDE solver: not vectorized (boundary if), but near-total
        // unit-stride vectorizability.
        let pde = find("pde_solver", Variant::Original).unwrap();
        let rows = analyze_kernel_hot_loops(&pde, &options).unwrap();
        let row = rows
            .iter()
            .find(|r| r.func_name == "block_kernel")
            .expect("block_kernel loop is hot");
        assert_eq!(row.percent_packed, Some(0.0), "{row:?}");
        assert!(row.metrics.pct_unit_vec_ops > 80.0, "{:?}", row.metrics);
    }

    #[test]
    fn table3_array_pointer_metrics_agree() {
        // The paper's §4.3 claim: the dynamic analysis is invariant to
        // array vs pointer style, while the compiler is not.
        let options = AnalysisOptions::default();
        for name in ["fir", "mult"] {
            let arr =
                analyze_kernel_program(&find(name, Variant::Array).unwrap(), &options).unwrap();
            let ptr =
                analyze_kernel_program(&find(name, Variant::Pointer).unwrap(), &options).unwrap();
            let (ma, mp) = (&arr.metrics, &ptr.metrics);
            assert_eq!(ma.total_ops, mp.total_ops, "{name}: op counts differ");
            assert!(
                (ma.avg_concurrency - mp.avg_concurrency).abs() < 1e-6,
                "{name}: concurrency differs: {ma:?} vs {mp:?}"
            );
            assert!(
                (ma.pct_unit_vec_ops - mp.pct_unit_vec_ops).abs() < 1.0,
                "{name}: unit vec ops differ: {ma:?} vs {mp:?}"
            );
            // ... but the compiler vectorizes only the array variant.
            assert!(
                arr.percent_packed.unwrap() > 50.0,
                "{name} array packed: {:?}",
                arr.percent_packed
            );
            assert_eq!(
                ptr.percent_packed,
                Some(0.0),
                "{name} pointer packed nonzero"
            );
        }
    }

    #[test]
    fn spec_lbm_is_fully_packed_and_parallel() {
        let options = AnalysisOptions::default();
        let k = vectorscope_kernels::spec::spec_470_lbm();
        let rows = analyze_kernel_hot_loops(&k, &options).unwrap();
        let row = rows
            .iter()
            .find(|r| r.func_name == "kernel")
            .expect("kernel loop is hot");
        assert!(row.percent_packed.unwrap() > 99.0, "{row:?}");
        assert!(row.metrics.avg_concurrency > 100.0);
        assert!(row.metrics.pct_unit_vec_ops > 99.0);
    }

    #[test]
    fn spec_sphinx3_packed_exceeds_vec_ops() {
        // Reductions: icc packs them, the base analysis does not (the
        // paper's explanation for %packed > %vec-ops rows).
        let options = AnalysisOptions::default();
        let k = vectorscope_kernels::spec::spec_482_sphinx3();
        let rows = analyze_kernel_hot_loops(&k, &options).unwrap();
        let row = rows
            .iter()
            .find(|r| r.func_name == "kernel")
            .expect("kernel loop is hot");
        let packed = row.percent_packed.unwrap();
        let vec_ops = row.metrics.pct_unit_vec_ops + row.metrics.pct_non_unit_vec_ops;
        assert!(
            packed > vec_ops,
            "packed {packed} should exceed vec ops {vec_ops}"
        );
    }
}
