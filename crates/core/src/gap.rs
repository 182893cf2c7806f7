//! Static↔dynamic cross-validation: the dependence oracle behind
//! `vscope gap`.
//!
//! The paper's central claim is that a dynamic trace reveals vectorization
//! potential that static dependence analysis must conservatively forfeit
//! (§1, §4.2). This module makes that claim *checkable* instead of
//! anecdotal, by running both analyses on the same loop and holding each to
//! the other's evidence:
//!
//! * **Witness obligation** — every statically *proven* flow dependence
//!   whose minimum trip count fits the observed execution must be witnessed
//!   by at least one edge of the dynamic DDG. A missing witness means one
//!   of the two analyses is wrong, and is reported as a hard violation
//!   (unless another store to the same object may have killed the value,
//!   which downgrades the obligation to a shadowed warning).
//! * **Bound obligation** — on statically *exact* loops (every access
//!   affine, every pair verdict proven), the static per-statement
//!   serialization bounds are theorems: the dynamic average partition size
//!   of a bounded statement cannot exceed its bound, and a statically
//!   unit/zero-strided loop cannot exhibit non-unit dynamic vector ops.
//! * **Gap classification** — where the static side had to give up, the
//!   excess dynamic potential is quantified ([`LoopGap::gap_pct`]) and
//!   attributed to machine-readable causes (may-alias conservatism,
//!   indirection, data-dependent control, reduction chains, …), which feed
//!   the refined [`triage::triage_with_gap`](crate::triage::triage_with_gap)
//!   verdict.
//!
//! Like every other report in this workspace, the output is byte-identical
//! at every worker-thread count.

use crate::driver::{analyze_hot_loops, per_program, AnalysisOptions, Error};
use crate::report::LoopReport;
use crate::triage::{triage_with_gap, TriageThresholds, Verdict};
use vectorscope_autovec::affine::scan_loop;
use vectorscope_autovec::{analyze_module as autovec_analyze, LoopDecision};
use vectorscope_ddg::Ddg;
use vectorscope_ir::loops::LoopForest;
use vectorscope_ir::{InstId, Module};
use vectorscope_staticdep::{DepKind, GapCause, LoopDep, StrideClass, Verdict as PairVerdict};

/// One witness obligation: a statically proven flow dependence that the
/// dynamic DDG is expected to exhibit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WitnessCheck {
    /// The writing instruction (dependence source).
    pub source: InstId,
    /// Source line of the writer.
    pub source_line: u32,
    /// The reading instruction (dependence sink).
    pub sink: InstId,
    /// Source line of the reader.
    pub sink_line: u32,
    /// Constant dependence distance, when the static test produced one.
    pub distance: Option<u64>,
    /// Minimum trip count for a dynamic instance of the dependence to
    /// exist; obligations are only raised when the observed trip reaches it.
    pub min_trip: u64,
    /// Whether the dynamic DDG contains a flow edge from an instance of
    /// `source` to an instance of `sink`.
    pub witnessed: bool,
    /// Whether another store to the same object may have killed the stored
    /// value before the sink read it. A shadowed miss is a warning, not a
    /// violation: the static vector is still true of the *address* stream,
    /// but the *value* flow may legitimately bypass the pair.
    pub shadowed: bool,
}

impl WitnessCheck {
    /// A hard oracle failure: the obligation was due, unshadowed, and the
    /// dynamic DDG has no witnessing edge.
    pub fn violated(&self) -> bool {
        !self.witnessed && !self.shadowed
    }
}

/// One bound obligation: a static serialization bound compared against the
/// dynamic partitioning of the same instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// The bounded FP candidate instruction.
    pub inst: InstId,
    /// Its source line.
    pub line: u32,
    /// The static bound δ: average partition size cannot exceed this.
    pub bound: u64,
    /// Whether the bounding cycle is a pure register reduction.
    pub from_reduction: bool,
    /// Whether the dynamic analysis broke reduction chains (which
    /// invalidates reduction-derived bounds by design).
    pub reduction_broken: bool,
    /// Observed dynamic instances of the instruction.
    pub instances: u64,
    /// Observed dynamic average partition size.
    pub avg_partition_size: f64,
}

impl BoundCheck {
    /// Whether the bound binds at all: reduction bounds are waived when the
    /// dynamic analysis breaks reductions, and a bound at or above the
    /// instance count is vacuous.
    pub fn applicable(&self) -> bool {
        !(self.from_reduction && self.reduction_broken) && self.bound < self.instances
    }

    /// A hard oracle failure: the dynamic run exceeded a static theorem.
    pub fn violated(&self) -> bool {
        self.applicable() && self.avg_partition_size > self.bound as f64 + 1e-9
    }
}

/// Outcome of the stride oracle on one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideOracle {
    /// The loop is not statically exact with all strides unit/zero, so the
    /// oracle makes no prediction.
    NotApplicable,
    /// Prediction held: no non-unit dynamic vector ops.
    Consistent,
    /// The dynamic run found non-unit-stride vector ops in a loop whose
    /// every access is statically unit or zero strided — an oracle failure.
    Violated,
}

impl std::fmt::Display for StrideOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrideOracle::NotApplicable => "n/a",
            StrideOracle::Consistent => "ok",
            StrideOracle::Violated => "VIOLATED",
        })
    }
}

/// The cross-validated analysis of one hot loop.
#[derive(Debug, Clone)]
pub struct LoopGap {
    /// The dynamic report (with *Percent Packed* attached).
    pub report: LoopReport,
    /// The static dependence analysis of the same loop.
    pub dep: LoopDep,
    /// The observed trip count of the analyzed instance (max dynamic
    /// instances over the loop's candidate instructions).
    pub observed_trip: u64,
    /// Witness obligations and outcomes.
    pub witnesses: Vec<WitnessCheck>,
    /// Bound obligations and outcomes.
    pub bounds: Vec<BoundCheck>,
    /// The stride oracle's outcome.
    pub stride: StrideOracle,
    /// Percent of candidate operations the dynamic analysis can vectorize
    /// beyond what the static analysis promises — the loop's measured
    /// static↔dynamic gap, instance-weighted over its instructions.
    pub gap_pct: f64,
    /// Why the static analysis fell short (empty on fully captured loops).
    pub causes: Vec<GapCause>,
    /// The gap-refined triage verdict.
    pub verdict: Verdict,
}

impl LoopGap {
    /// Human-readable hard-violation descriptions (empty when the oracle
    /// holds).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let at = self.report.location();
        for w in &self.witnesses {
            if w.violated() {
                out.push(format!(
                    "{at}: proven flow dependence line {} -> line {} (distance {}) \
                     has no witnessing DDG edge",
                    w.source_line,
                    w.sink_line,
                    w.distance
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "*".into()),
                ));
            }
        }
        for b in &self.bounds {
            if b.violated() {
                out.push(format!(
                    "{at}: line {} exceeds static bound: avg partition size {:.2} > δ={}",
                    b.line, b.avg_partition_size, b.bound,
                ));
            }
        }
        if self.stride == StrideOracle::Violated {
            out.push(format!(
                "{at}: statically unit/zero-strided loop reports {:.1}% non-unit vec ops",
                self.report.metrics.pct_non_unit_vec_ops,
            ));
        }
        out
    }
}

/// The cross-validated analysis of one program: one [`LoopGap`] per hot
/// loop, in the dynamic suite's order (percent of cycles, descending).
#[derive(Debug, Clone)]
pub struct GapSuite {
    /// The compiled module.
    pub module: Module,
    /// Per-hot-loop cross-validation.
    pub loops: Vec<LoopGap>,
}

impl GapSuite {
    /// All hard violations across the suite's loops.
    pub fn violations(&self) -> Vec<String> {
        self.loops.iter().flat_map(LoopGap::violations).collect()
    }

    /// Whether any oracle obligation failed.
    pub fn has_violations(&self) -> bool {
        self.loops.iter().any(|l| {
            l.stride == StrideOracle::Violated
                || l.witnesses.iter().any(WitnessCheck::violated)
                || l.bounds.iter().any(BoundCheck::violated)
        })
    }
}

/// Compiles and dynamically analyzes `source` like
/// [`analyze_source`](crate::analyze_source), then statically analyzes
/// every hot loop and cross-validates the two results.
///
/// Each hot loop is cross-validated in the worker that built its
/// representative DDG, so the program runs exactly twice (profile +
/// capture) whatever its number of hot loops, and each report row is the
/// one [`analyze_source`](crate::analyze_source) returns, with *Percent
/// Packed* attached.
///
/// # Errors
///
/// Propagates every [`Error`] of the dynamic pipeline (compile, VM,
/// empty-trace). Oracle *violations* are not errors: they are recorded in
/// the returned [`GapSuite`] so batch runs can report all of them.
///
/// # Example
///
/// ```
/// use vectorscope::{gap::analyze_gap, AnalysisOptions};
///
/// // Gauss-Seidel: static analysis proves the distance-1 flow dependence,
/// // the dynamic DDG witnesses it, and the serial bound is respected —
/// // the static and dynamic views agree, so the gap is zero.
/// let src = r#"
///     const int N = 64;
///     double a[N];
///     void main() { for (int i = 1; i < N; i++) { a[i] = a[i-1] * 0.5; } }
/// "#;
/// let suite = analyze_gap("gs.kern", src, &AnalysisOptions::default())?;
/// let l = &suite.loops[0];
/// assert!(l.dep.exact);
/// assert!(!suite.has_violations());
/// assert!(l.gap_pct < 5.0);
/// # Ok::<(), vectorscope::Error>(())
/// ```
pub fn analyze_gap(name: &str, source: &str, options: &AnalysisOptions) -> Result<GapSuite, Error> {
    let module = vectorscope_frontend::compile(name, source)?;
    let decisions = autovec_analyze(&module);
    let loops = analyze_hot_loops(&module, options, |report, ddg| {
        Ok(cross_validate(&module, &decisions, options, report, &ddg))
    })?;
    Ok(GapSuite { module, loops })
}

/// Cross-validates one hot loop's dynamic report and representative DDG
/// against the static analysis of the same loop.
fn cross_validate(
    module: &Module,
    decisions: &[LoopDecision],
    options: &AnalysisOptions,
    mut report: LoopReport,
    ddg: &Ddg,
) -> LoopGap {
    let dep = vectorscope_staticdep::analyze_loop(module, report.func, report.loop_id)
        .expect("hot loop exists in the loop forest");
    report.attach_percent_packed(decisions);

    let observed_trip = report
        .per_inst
        .iter()
        .map(|m| m.instances)
        .max()
        .unwrap_or(0);

    // Witness obligations: proven flow dependences that had time to
    // materialize must appear in the dynamic DDG.
    let multi_store = multi_store_sources(module, &dep);
    let mut witnesses = Vec::new();
    for p in &dep.pairs {
        let PairVerdict::ProvenDependence(v) = p.verdict else {
            continue;
        };
        if v.kind != DepKind::Flow || v.min_trip > observed_trip {
            continue;
        }
        witnesses.push(WitnessCheck {
            source: v.source,
            source_line: module.span_of(v.source).line,
            sink: v.sink,
            sink_line: module.span_of(v.sink).line,
            distance: v.distance,
            min_trip: v.min_trip,
            witnessed: ddg.has_flow_edge(v.source, v.sink),
            shadowed: multi_store.contains(&v.source),
        });
    }

    // Bound obligations: static serialization theorems vs. dynamic
    // partition sizes.
    let bounds: Vec<BoundCheck> = dep
        .bounds
        .iter()
        .filter_map(|b| {
            let m = report.per_inst.iter().find(|m| m.inst == b.inst)?;
            Some(BoundCheck {
                inst: b.inst,
                line: m.span.line,
                bound: b.distance,
                from_reduction: b.from_reduction,
                reduction_broken: options.break_reductions,
                instances: m.instances,
                avg_partition_size: m.avg_partition_size,
            })
        })
        .collect();

    // Stride oracle: statically contiguous loops cannot exhibit
    // non-unit dynamic vector ops.
    let all_contiguous = !dep.strides.is_empty()
        && dep
            .strides
            .iter()
            .all(|s| matches!(s.class, StrideClass::Zero | StrideClass::Unit));
    let stride = if dep.exact && all_contiguous {
        if report.metrics.pct_non_unit_vec_ops > 1e-9 {
            StrideOracle::Violated
        } else {
            StrideOracle::Consistent
        }
    } else {
        StrideOracle::NotApplicable
    };

    let gap_pct = gap_percent(&report, &dep, options.break_reductions);
    let causes = dep.limits.clone();
    let verdict = triage_with_gap(&report, &causes, &TriageThresholds::default());
    LoopGap {
        report,
        dep,
        observed_trip,
        witnesses,
        bounds,
        stride,
        gap_pct,
        causes,
        verdict,
    }
}

/// Cross-validates a batch of independent programs, fanning out across the
/// worker pool like [`analyze_sources`](crate::analyze_sources): results
/// come back in input order and one failing program does not disturb the
/// others.
pub fn analyze_gap_sources(
    programs: &[(String, String)],
    options: &AnalysisOptions,
) -> Vec<Result<GapSuite, Error>> {
    per_program(programs, options, analyze_gap)
}

/// The proven-flow sources whose base object is written by more than one
/// store instruction in the loop (their stored value can be killed before
/// the sink reads it, so a missing witness is only a warning).
fn multi_store_sources(module: &Module, dep: &LoopDep) -> Vec<InstId> {
    let function = module.function(dep.func);
    let forest = LoopForest::new(function);
    let info = scan_loop(function, forest.get(dep.loop_id));
    let mut out = Vec::new();
    for p in &dep.pairs {
        let PairVerdict::ProvenDependence(v) = p.verdict else {
            continue;
        };
        if v.kind != DepKind::Flow {
            continue;
        }
        let Some(base) = info
            .accesses
            .iter()
            .find(|a| a.inst == v.source)
            .and_then(|a| a.addr.as_ref().map(|ad| &ad.base))
        else {
            continue;
        };
        let stores = info
            .accesses
            .iter()
            .filter(|a| a.is_store && a.addr.as_ref().map(|ad| &ad.base) == Some(base))
            .count();
        if stores > 1 {
            out.push(v.source);
        }
    }
    out
}

/// The instance-weighted percentage of candidate operations the dynamic
/// analysis vectorizes beyond the static promise.
///
/// Per instruction, the dynamic vectorizable fraction is
/// `(unit_ops + non_unit_ops) / instances`; the static promise is `0` for a
/// statement on a distance-1 cycle (serial), `(δ−1)/δ` for a distance-δ
/// chain, `1` for an unbounded statement of an exact loop, and `0`
/// everywhere the static analysis had to give up (a non-exact loop promises
/// nothing — the whole dynamic potential is gap).
fn gap_percent(report: &LoopReport, dep: &LoopDep, break_reductions: bool) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0u64;
    for m in &report.per_inst {
        if m.instances == 0 {
            continue;
        }
        total += m.instances;
        let dyn_frac = (m.unit_ops + m.non_unit_ops) as f64 / m.instances as f64;
        let stat_frac = if !dep.exact {
            0.0
        } else {
            let bound = dep
                .bounds
                .iter()
                .filter(|b| b.inst == m.inst && !(break_reductions && b.from_reduction))
                .map(|b| b.distance)
                .min();
            match bound {
                Some(1) => 0.0,
                Some(d) => (d - 1) as f64 / d as f64,
                None => 1.0,
            }
        };
        weighted += m.instances as f64 * (dyn_frac - stat_frac).max(0.0);
    }
    if total == 0 {
        0.0
    } else {
        100.0 * weighted / total as f64
    }
}

/// Renders a gap suite as a human-readable text report.
pub fn render_gap(suite: &GapSuite) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if suite.loops.is_empty() {
        out.push_str("no hot loops to cross-validate\n");
        return out;
    }
    for l in &suite.loops {
        let r = &l.report;
        let _ = writeln!(
            out,
            "== {} ({})  {:.1}% of cycles  [{}]",
            r.location(),
            r.func_name,
            r.percent_cycles,
            if l.dep.exact {
                "statically exact".to_string()
            } else {
                let causes: Vec<String> = l.causes.iter().map(|c| c.to_string()).collect();
                if causes.is_empty() {
                    "inexact".to_string()
                } else {
                    causes.join(", ")
                }
            },
        );
        let (mut pd, mut pi, mut unk) = (0usize, 0usize, 0usize);
        for p in &l.dep.pairs {
            match p.verdict {
                PairVerdict::ProvenDependence(_) => pd += 1,
                PairVerdict::ProvenIndependence => pi += 1,
                PairVerdict::Unknown(_) => unk += 1,
            }
        }
        let _ = writeln!(
            out,
            "   pairs: {pd} proven dep, {pi} proven indep, {unk} unknown; trip observed {}",
            l.observed_trip,
        );
        for w in &l.witnesses {
            let _ = writeln!(
                out,
                "   witness line {} -> line {} (dist {}, min trip {}): {}",
                w.source_line,
                w.sink_line,
                w.distance
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "*".into()),
                w.min_trip,
                if w.witnessed {
                    "witnessed"
                } else if w.shadowed {
                    "unwitnessed (shadowed store - warning)"
                } else {
                    "MISSING"
                },
            );
        }
        for b in &l.bounds {
            let _ = writeln!(
                out,
                "   bound line {}: δ={}{} vs avg partition {:.2} over {} instances: {}",
                b.line,
                b.bound,
                if b.from_reduction { " (reduction)" } else { "" },
                b.avg_partition_size,
                b.instances,
                if b.violated() {
                    "VIOLATED"
                } else if b.applicable() {
                    "ok"
                } else {
                    "vacuous"
                },
            );
        }
        let _ = writeln!(out, "   stride oracle: {}", l.stride);
        let _ = writeln!(out, "   gap: {:.1}%   verdict: {}", l.gap_pct, l.verdict);
    }
    let violations = suite.violations();
    if violations.is_empty() {
        out.push_str("oracle: all obligations hold\n");
    } else {
        let _ = writeln!(out, "oracle: {} VIOLATION(S)", violations.len());
        for v in &violations {
            let _ = writeln!(out, "  ! {v}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(src: &str) -> GapSuite {
        analyze_gap("t.kern", src, &AnalysisOptions::default()).expect("analyzes")
    }

    #[test]
    fn parallel_loop_has_no_obligations_and_no_gap() {
        let s = gap("const int N = 64; double a[N]; double b[N];\n\
             void main() { for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; } }");
        let l = &s.loops[0];
        assert!(l.dep.exact);
        assert!(l.witnesses.is_empty());
        assert!(l.bounds.is_empty());
        assert_eq!(l.stride, StrideOracle::Consistent);
        assert!(l.gap_pct.abs() < 1e-6, "gap {}", l.gap_pct);
        assert!(!s.has_violations());
    }

    #[test]
    fn gauss_seidel_witnesses_and_bounds_hold() {
        let s = gap("const int N = 64; double a[N];\n\
             void main() { for (int i = 1; i < N; i++) { a[i] = a[i-1] * 0.5; } }");
        let l = &s.loops[0];
        assert!(l.dep.exact);
        assert!(!l.witnesses.is_empty());
        assert!(l.witnesses.iter().all(|w| w.witnessed));
        assert!(!l.bounds.is_empty());
        assert!(l.bounds.iter().all(|b| !b.violated()));
        assert!(!s.has_violations());
        assert!(l.gap_pct < 5.0, "gap {}", l.gap_pct);
    }

    #[test]
    fn indirection_shows_as_pure_gap() {
        let s = gap("const int N = 64; double a[N]; double b[N]; int idx[N];\n\
             void main() {\n\
               for (int i = 0; i < N; i++) { idx[i] = i; b[i] = 1.0; }\n\
               for (int i = 0; i < N; i++) { a[i] = b[idx[i]] * 2.0; } }");
        let l = s
            .loops
            .iter()
            .find(|l| l.causes.contains(&GapCause::Indirection))
            .expect("indirection loop is hot");
        assert!(!l.dep.exact);
        // Static analysis promises nothing, dynamic finds the loop almost
        // fully parallel: a near-total gap.
        assert!(l.gap_pct > 90.0, "gap {}", l.gap_pct);
        assert!(!s.has_violations());
    }

    #[test]
    fn renders_without_panicking() {
        let s = gap("const int N = 64; double a[N];\n\
             void main() { for (int i = 1; i < N; i++) { a[i] = a[i-1] * 0.5; } }");
        let text = render_gap(&s);
        assert!(text.contains("witness"));
        assert!(text.contains("all obligations hold"));
    }
}
