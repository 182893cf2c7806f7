//! Kumar-style whole-DAG timestamping (prior work, paper §2.1).
//!
//! Each DDG node gets timestamp `1 + max(timestamps of predecessors)`; the
//! largest timestamp is the critical-path length, and the histogram of node
//! counts per timestamp is the fine-grained parallelism profile. The paper
//! uses this baseline (Fig. 1(a)) to show why whole-DAG timestamps cannot
//! expose per-statement vectorizable partitions: instances of different
//! statements interleave in the timestamp classes.

use crate::{Ddg, EXTERNAL};

/// Result of the Kumar critical-path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct KumarAnalysis {
    /// Timestamp per node (1-based; independent nodes get 1).
    pub timestamps: Vec<u64>,
    /// Length of the critical path (max timestamp; 0 for an empty graph).
    pub critical_path: u64,
    /// Number of nodes per timestamp value (`histogram[t-1]` = count at
    /// timestamp `t`).
    pub histogram: Vec<u64>,
}

impl KumarAnalysis {
    /// Average parallelism: nodes divided by critical-path length.
    pub fn average_parallelism(&self) -> f64 {
        if self.critical_path == 0 {
            return 0.0;
        }
        self.timestamps.len() as f64 / self.critical_path as f64
    }
}

/// Runs the whole-DAG timestamp analysis on `ddg`.
///
/// # Example
///
/// The paper's Example 1 (Listing 1): `A[i] = 2*A[i-1]` forms a chain, so
/// the critical path grows with N.
///
/// ```
/// use vectorscope_interp::{Vm, CaptureSpec};
/// use vectorscope_ddg::{Ddg, kumar};
///
/// let src = r#"
///     const int N = 8;
///     double a[N];
///     void main() {
///         a[0] = 1.0;
///         for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
///     }
/// "#;
/// let module = vectorscope_frontend::compile("l1.kern", src).unwrap();
/// let mut vm = Vm::new(&module);
/// vm.set_capture(CaptureSpec::Program, "all");
/// vm.run_main().unwrap();
/// let ddg = Ddg::build(&module, &vm.take_trace().unwrap());
/// let k = kumar::analyze(&ddg);
/// assert!(k.critical_path >= 7); // the 7 fmuls form a chain
/// ```
pub fn analyze(ddg: &Ddg) -> KumarAnalysis {
    let mut timestamps = vec![0u64; ddg.len()];
    let mut critical_path = 0u64;
    for (n, row) in ddg.operand_rows().enumerate() {
        let mut ts = 0;
        for &p in row.iter().filter(|&&p| p != EXTERNAL) {
            ts = ts.max(timestamps[p as usize]);
        }
        let ts = ts + 1;
        timestamps[n] = ts;
        critical_path = critical_path.max(ts);
    }
    let mut histogram = vec![0u64; critical_path as usize];
    for &t in &timestamps {
        histogram[(t - 1) as usize] += 1;
    }
    KumarAnalysis {
        timestamps,
        critical_path,
        histogram,
    }
}

/// Like [`analyze`], but restricted to candidate (FP) nodes when reporting
/// the histogram — the partition view the paper contrasts with its own
/// per-statement partitions in Fig. 1.
pub fn candidate_histogram(ddg: &Ddg, analysis: &KumarAnalysis) -> Vec<u64> {
    let mut histogram = vec![0u64; analysis.critical_path as usize];
    for n in ddg.candidate_nodes() {
        histogram[(analysis.timestamps[n as usize] - 1) as usize] += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn ddg_of(src: &str) -> Ddg {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        Ddg::build(&module, &vm.take_trace().unwrap())
    }

    #[test]
    fn empty_graph() {
        let ddg = ddg_of("void main() { }");
        let k = analyze(&ddg);
        assert_eq!(k.critical_path, 0);
        assert_eq!(k.average_parallelism(), 0.0);
    }

    #[test]
    fn chain_has_long_critical_path() {
        let ddg = ddg_of(
            r#"
            const int N = 32;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
            }
        "#,
        );
        let k = analyze(&ddg);
        // The 31 fmuls form a chain: path at least 31 long (plus the
        // interleaved loads/stores).
        assert!(k.critical_path >= 31, "critical path {}", k.critical_path);
    }

    #[test]
    fn parallel_work_has_flat_profile() {
        let ddg = ddg_of(
            r#"
            const int N = 32;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#,
        );
        let k = analyze(&ddg);
        let ch = candidate_histogram(&ddg, &k);
        // All 32 fadds are mutually independent, but they do NOT all share
        // one timestamp class in the whole-DAG view (addresses chain through
        // the induction variable differently); the paper's point is that the
        // per-statement analysis (in vectorscope core) is what groups them.
        assert_eq!(ch.iter().sum::<u64>(), 32);
        // Parallelism is high: critical path much shorter than node count.
        assert!(k.average_parallelism() > 2.0);
    }

    #[test]
    fn histogram_counts_all_nodes() {
        let ddg = ddg_of(
            r#"
            double x = 0.0;
            void main() { x = 1.0 + 2.0; x = x * 3.0; }
        "#,
        );
        let k = analyze(&ddg);
        assert_eq!(k.histogram.iter().sum::<u64>() as usize, ddg.len());
        // fmul depends on fadd: strictly increasing timestamps.
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert!(k.timestamps[cands[1] as usize] > k.timestamps[cands[0] as usize]);
    }
}
