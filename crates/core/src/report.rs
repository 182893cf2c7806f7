//! Per-loop reports and paper-style table rendering.

use crate::metrics::{InstMetrics, LoopMetrics};
use vectorscope_autovec::{percent_packed, LoopDecision};
use vectorscope_ir::loops::LoopId;
use vectorscope_ir::{FuncId, InstId};

/// Analysis results for one hot loop — one row of the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Module (source file) name.
    pub module_name: String,
    /// Containing function name.
    pub func_name: String,
    /// Containing function.
    pub func: FuncId,
    /// The loop within that function.
    pub loop_id: LoopId,
    /// Source line of the loop (the paper's `file : line` identifier).
    pub loop_line: u32,
    /// Share of total program cycles spent in the loop (inclusive), from
    /// the profiler — the paper's *Percent Cycles* column.
    pub percent_cycles: f64,
    /// Share of dynamic FP ops the (model) compiler vectorized — the
    /// paper's *Percent Packed* column. `None` until a vectorizer model
    /// attaches it.
    pub percent_packed: Option<f64>,
    /// Control-flow irregularity score in [0, 1] (see
    /// [`crate::control`]): 0 = branch-free or fully biased, 1 =
    /// coin-flip data-dependent branching that resists vectorization even
    /// when concurrency exists (the 453.povray situation).
    pub control_irregularity: f64,
    /// Aggregated analysis metrics (the remaining table columns).
    pub metrics: LoopMetrics,
    /// Per-instruction breakdown, largest instance count first.
    pub per_inst: Vec<InstMetrics>,
    /// Size of the analyzed DDG (nodes).
    pub ddg_nodes: usize,
}

impl LoopReport {
    /// The paper-style loop identifier, e.g. `stencil.kern : 12`.
    pub fn location(&self) -> String {
        format!("{} : {}", self.module_name, self.loop_line)
    }

    /// Attaches *Percent Packed* from the model vectorizer's `decisions`,
    /// weighting each instruction by its dynamic instances in
    /// [`LoopReport::per_inst`].
    pub fn attach_percent_packed(&mut self, decisions: &[LoopDecision]) {
        let counts: Vec<(InstId, u64)> = self
            .per_inst
            .iter()
            .map(|m| (m.inst, m.instances))
            .collect();
        self.percent_packed = Some(percent_packed(decisions, &counts));
    }
}

/// Formats a float with one decimal, using `-` for exact zero (matching the
/// paper's table typography for empty cells).
fn cell(v: f64) -> String {
    if v == 0.0 {
        "-".to_string()
    } else {
        format!("{v:.1}")
    }
}

/// Renders reports as a text table with the columns of the paper's
/// Tables 1–3.
///
/// # Example
///
/// ```
/// use vectorscope::{analyze_source, AnalysisOptions, report::render_table};
/// let src = r#"
///     const int N = 64;
///     double a[N];
///     void main() { for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; } }
/// "#;
/// let suite = analyze_source("demo.kern", src, &AnalysisOptions::default())?;
/// let table = render_table("Demo", &suite.loops);
/// assert!(table.contains("demo.kern"));
/// assert!(table.contains("Avg Concur"));
/// # Ok::<(), vectorscope::Error>(())
/// ```
pub fn render_table(title: &str, rows: &[LoopReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<34} {:>7} {:>7} {:>12} | {:>9} {:>9} | {:>9} {:>9}\n",
        "Loop",
        "%Cycles",
        "%Packed",
        "Avg Concur.",
        "U %VecOps",
        "U AvgSize",
        "N %VecOps",
        "N AvgSize",
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>7} {:>7} {:>12} | {:>9} {:>9} | {:>9} {:>9}\n",
            r.location(),
            format!("{:.1}%", r.percent_cycles),
            r.percent_packed
                .map(|p| format!("{p:.1}%"))
                .unwrap_or_else(|| "n/a".to_string()),
            cell(r.metrics.avg_concurrency),
            format!("{:.1}%", r.metrics.pct_unit_vec_ops),
            cell(r.metrics.avg_unit_vec_size),
            format!("{:.1}%", r.metrics.pct_non_unit_vec_ops),
            cell(r.metrics.avg_non_unit_vec_size),
        ));
    }
    out
}

/// Renders the per-instruction breakdown of one loop (used by the CLI's
/// verbose mode and the case studies, which reason about individual
/// statements like the Gauss-Seidel adds).
pub fn render_inst_breakdown(report: &LoopReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "loop {} ({}), {} DDG nodes, {} FP ops, control irregularity {:.2}\n",
        report.location(),
        report.func_name,
        report.ddg_nodes,
        report.metrics.total_ops,
        report.control_irregularity
    ));
    out.push_str(&format!(
        "  {:<10} {:>6} {:>10} {:>11} {:>10} {:>10} {:>10}\n",
        "inst@line", "count", "partitions", "avg par.", "unit ops", "nonu ops", "reduction"
    ));
    for m in &report.per_inst {
        out.push_str(&format!(
            "  {:<10} {:>6} {:>10} {:>11.1} {:>10} {:>10} {:>10}\n",
            format!("#{}@{}", m.inst.0, m.span.line),
            m.instances,
            m.partitions,
            m.avg_partition_size,
            m.unit_ops,
            m.non_unit_ops,
            if m.reduction { "yes" } else { "no" },
        ));
    }
    // Vector-length histogram (GPU-suitability view, paper §1 use case 1).
    let h = &report.metrics.vec_lengths;
    if h.total() > 0 {
        out.push_str("  vector-length histogram (ops per group-size bucket):\n");
        let labels = [
            "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128-255", "256-511", "512-1023",
            ">=1024",
        ];
        for (label, &count) in labels.iter().zip(h.buckets.iter()) {
            if count > 0 {
                out.push_str(&format!("    {label:>9}: {count}\n"));
            }
        }
        out.push_str(&format!(
            "    warp-sized (>=32) share: {:.0}%\n",
            h.gpu_share() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> LoopReport {
        LoopReport {
            module_name: "m.kern".into(),
            func_name: "main".into(),
            func: FuncId(0),
            loop_id: LoopId(0),
            loop_line: 7,
            percent_cycles: 55.5,
            percent_packed: Some(12.5),
            control_irregularity: 0.0,
            metrics: LoopMetrics {
                total_ops: 100,
                avg_concurrency: 25.0,
                pct_unit_vec_ops: 80.0,
                avg_unit_vec_size: 20.0,
                pct_non_unit_vec_ops: 10.0,
                avg_non_unit_vec_size: 5.0,
                vec_lengths: Default::default(),
            },
            per_inst: vec![],
            ddg_nodes: 1234,
        }
    }

    #[test]
    fn table_contains_all_columns() {
        let t = render_table("Test", &[dummy_report()]);
        assert!(t.contains("m.kern : 7"));
        assert!(t.contains("55.5%"));
        assert!(t.contains("12.5%"));
        assert!(t.contains("25.0"));
        assert!(t.contains("80.0%"));
    }

    #[test]
    fn missing_packed_shows_na() {
        let mut r = dummy_report();
        r.percent_packed = None;
        let t = render_table("Test", &[r]);
        assert!(t.contains("n/a"));
    }

    #[test]
    fn location_format_matches_paper() {
        assert_eq!(dummy_report().location(), "m.kern : 7");
    }
}
