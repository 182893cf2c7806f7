//! Missed-opportunity triage — the paper's "assisting vectorization
//! experts" and "aid to compiler writers" use cases (§4.2, §1).
//!
//! The paper argues the tool's value is focusing expert attention: "An
//! automated tool allows the vectorization expert to quickly eliminate
//! loops with little to no vectorization potential, and concentrate on the
//! loops with high potential", and for compiler writers, "identifying why
//! code that has been identified as being potentially vectorizable is not
//! actually being vectorized". This module automates that cut: it combines
//! a loop's measured potential, what the compiler achieved, and the
//! §4.4-style control-regularity signal into a recommendation.

use crate::report::LoopReport;
use vectorscope_staticdep::GapCause;

/// The recommendation for one hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The compiler already vectorizes most of what is available.
    AlreadyVectorized,
    /// High potential, regular control flow, compiler failed: a missed
    /// opportunity worth expert (or compiler-writer) attention.
    MissedOpportunity,
    /// High potential that the static model cannot reach only because a
    /// pointer's provenance is unknown: a `restrict` annotation or runtime
    /// disambiguation would likely unlock it.
    AliasLimited,
    /// High potential hidden behind indirect subscripts (`a[idx[i]]`,
    /// 435.gromacs-style): gather/scatter support or an index-set rewrite
    /// is needed, not a smarter dependence test.
    IndirectionLimited,
    /// Potential exists only at non-unit stride: consider a data-layout
    /// transformation (transpose, AoS→SoA).
    NeedsLayoutChange,
    /// The loop is serial because of a reduction recurrence the analysis
    /// did not break: reassociation (`-ffast-math`-style) would expose the
    /// parallelism the dynamic run confirms is absent only on the chain.
    ReductionSerial,
    /// Potential exists but control flow is highly data-dependent
    /// (453.povray): hard to realize without algorithmic change.
    IrregularControl,
    /// Little inherent SIMD parallelism: an algorithmic rewrite would be
    /// needed ("complete algorithmic rewrite" in the paper's ISV framing).
    NoPotential,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::AlreadyVectorized => "already vectorized",
            Verdict::MissedOpportunity => "MISSED OPPORTUNITY",
            Verdict::AliasLimited => "blocked by possible aliasing",
            Verdict::IndirectionLimited => "blocked by indirection",
            Verdict::NeedsLayoutChange => "needs data-layout change",
            Verdict::ReductionSerial => "serial reduction chain",
            Verdict::IrregularControl => "irregular control flow",
            Verdict::NoPotential => "no SIMD potential",
        };
        f.write_str(s)
    }
}

/// Tunable thresholds for [`triage`].
#[derive(Debug, Clone, PartialEq)]
pub struct TriageThresholds {
    /// Minimum combined vec-ops percentage to call a loop "has potential".
    pub potential_pct: f64,
    /// Packed percentage above which the compiler "already did it".
    pub packed_pct: f64,
    /// Control irregularity above which realization is doubtful.
    pub irregularity: f64,
}

impl Default for TriageThresholds {
    fn default() -> Self {
        TriageThresholds {
            // Gauss-Seidel's 22.2% was worth a manual transformation in the
            // paper; the default keeps such partial potential on the radar.
            potential_pct: 15.0,
            packed_pct: 50.0,
            irregularity: 0.6,
        }
    }
}

/// Classifies one analyzed loop.
///
/// `percent_packed` must have been attached to the report (reports produced
/// without a vectorizer model treat the compiler as having packed nothing).
///
/// # Example
///
/// ```
/// use vectorscope::{analyze_source, AnalysisOptions};
/// use vectorscope::triage::{triage, TriageThresholds, Verdict};
///
/// // A fully parallel loop the (absent) compiler did not vectorize.
/// let src = r#"
///     const int N = 64;
///     double a[N];
///     void main() { for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; } }
/// "#;
/// let suite = analyze_source("t.kern", src, &AnalysisOptions::default())?;
/// let verdict = triage(&suite.loops[0], &TriageThresholds::default());
/// assert_eq!(verdict, Verdict::MissedOpportunity);
/// # Ok::<(), vectorscope::Error>(())
/// ```
pub fn triage(report: &LoopReport, t: &TriageThresholds) -> Verdict {
    let packed = report.percent_packed.unwrap_or(0.0);
    let unit = report.metrics.pct_unit_vec_ops;
    let non_unit = report.metrics.pct_non_unit_vec_ops;
    let potential = unit + non_unit;

    if packed >= t.packed_pct {
        return Verdict::AlreadyVectorized;
    }
    if potential < t.potential_pct {
        return Verdict::NoPotential;
    }
    if report.control_irregularity > t.irregularity {
        return Verdict::IrregularControl;
    }
    if non_unit > unit {
        return Verdict::NeedsLayoutChange;
    }
    Verdict::MissedOpportunity
}

/// Refines [`triage`] with the static dependence oracle's gap causes
/// (`vscope gap`): a dynamic verdict of *missed opportunity* becomes
/// *alias-limited* or *indirection-limited* when the static analysis
/// recorded the corresponding obstruction, and *no potential* becomes
/// *reduction-serial* when the only thing serializing the loop is a
/// recurrence chain that reassociation could break. The refinement tells
/// the expert **which tool** unlocks the loop, not just that one exists.
pub fn triage_with_gap(report: &LoopReport, limits: &[GapCause], t: &TriageThresholds) -> Verdict {
    match triage(report, t) {
        Verdict::MissedOpportunity if limits.contains(&GapCause::MayAlias) => Verdict::AliasLimited,
        Verdict::MissedOpportunity if limits.contains(&GapCause::Indirection) => {
            Verdict::IndirectionLimited
        }
        Verdict::NoPotential if limits.contains(&GapCause::ReductionChain) => {
            Verdict::ReductionSerial
        }
        v => v,
    }
}

/// Triage an entire suite of reports; returns `(report index, verdict)`
/// pairs with missed opportunities first, then layout candidates, ordered
/// by percent of cycles within each class.
pub fn triage_suite(reports: &[LoopReport], t: &TriageThresholds) -> Vec<(usize, Verdict)> {
    let rank = |v: Verdict| match v {
        Verdict::MissedOpportunity => 0,
        Verdict::AliasLimited => 1,
        Verdict::IndirectionLimited => 2,
        Verdict::NeedsLayoutChange => 3,
        Verdict::ReductionSerial => 4,
        Verdict::IrregularControl => 5,
        Verdict::AlreadyVectorized => 6,
        Verdict::NoPotential => 7,
    };
    let mut out: Vec<(usize, Verdict)> = reports
        .iter()
        .enumerate()
        .map(|(i, r)| (i, triage(r, t)))
        .collect();
    out.sort_by(|a, b| {
        rank(a.1).cmp(&rank(b.1)).then(
            reports[b.0]
                .percent_cycles
                .total_cmp(&reports[a.0].percent_cycles),
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LoopMetrics;
    use vectorscope_ir::loops::LoopId;
    use vectorscope_ir::FuncId;

    fn report(packed: f64, unit: f64, non_unit: f64, irregularity: f64) -> LoopReport {
        LoopReport {
            module_name: "t.kern".into(),
            func_name: "kernel".into(),
            func: FuncId(0),
            loop_id: LoopId(0),
            loop_line: 1,
            percent_cycles: 50.0,
            percent_packed: Some(packed),
            control_irregularity: irregularity,
            metrics: LoopMetrics {
                total_ops: 100,
                avg_concurrency: 10.0,
                pct_unit_vec_ops: unit,
                avg_unit_vec_size: 8.0,
                pct_non_unit_vec_ops: non_unit,
                avg_non_unit_vec_size: 4.0,
                vec_lengths: Default::default(),
            },
            per_inst: vec![],
            ddg_nodes: 100,
        }
    }

    #[test]
    fn verdict_classes() {
        let t = TriageThresholds::default();
        assert_eq!(
            triage(&report(95.0, 100.0, 0.0, 0.0), &t),
            Verdict::AlreadyVectorized
        );
        assert_eq!(
            triage(&report(0.0, 90.0, 0.0, 0.0), &t),
            Verdict::MissedOpportunity
        );
        assert_eq!(
            triage(&report(0.0, 10.0, 60.0, 0.0), &t),
            Verdict::NeedsLayoutChange
        );
        assert_eq!(
            triage(&report(0.0, 90.0, 0.0, 0.9), &t),
            Verdict::IrregularControl
        );
        assert_eq!(
            triage(&report(0.0, 5.0, 5.0, 0.0), &t),
            Verdict::NoPotential
        );
    }

    #[test]
    fn suite_ordering_puts_missed_first() {
        let t = TriageThresholds::default();
        let reports = vec![
            report(95.0, 100.0, 0.0, 0.0), // already
            report(0.0, 90.0, 0.0, 0.0),   // missed
            report(0.0, 10.0, 60.0, 0.0),  // layout
        ];
        let order = triage_suite(&reports, &t);
        assert_eq!(order[0], (1, Verdict::MissedOpportunity));
        assert_eq!(order[1], (2, Verdict::NeedsLayoutChange));
        assert_eq!(order[2], (0, Verdict::AlreadyVectorized));
    }

    #[test]
    fn missing_packed_defaults_to_unvectorized() {
        let t = TriageThresholds::default();
        let mut r = report(0.0, 90.0, 0.0, 0.0);
        r.percent_packed = None;
        assert_eq!(triage(&r, &t), Verdict::MissedOpportunity);
    }

    #[test]
    fn gap_causes_refine_missed_opportunities() {
        let t = TriageThresholds::default();
        let missed = report(0.0, 90.0, 0.0, 0.0);
        assert_eq!(
            triage_with_gap(&missed, &[GapCause::MayAlias], &t),
            Verdict::AliasLimited
        );
        assert_eq!(
            triage_with_gap(&missed, &[GapCause::Indirection], &t),
            Verdict::IndirectionLimited
        );
        // Aliasing is the first obstruction to clear when both apply.
        assert_eq!(
            triage_with_gap(&missed, &[GapCause::MayAlias, GapCause::Indirection], &t),
            Verdict::AliasLimited
        );
        // Without an obstruction the base verdict stands.
        assert_eq!(
            triage_with_gap(&missed, &[], &t),
            Verdict::MissedOpportunity
        );
    }

    #[test]
    fn reduction_chain_refines_no_potential() {
        let t = TriageThresholds::default();
        let serial = report(0.0, 5.0, 0.0, 0.0);
        assert_eq!(
            triage_with_gap(&serial, &[GapCause::ReductionChain], &t),
            Verdict::ReductionSerial
        );
        assert_eq!(triage_with_gap(&serial, &[], &t), Verdict::NoPotential);
        // A reduction chain on a loop with realized potential does not
        // demote it.
        let missed = report(0.0, 90.0, 0.0, 0.0);
        assert_eq!(
            triage_with_gap(&missed, &[GapCause::ReductionChain], &t),
            Verdict::MissedOpportunity
        );
    }

    #[test]
    fn gap_causes_do_not_override_other_verdicts() {
        let t = TriageThresholds::default();
        // Already vectorized and irregular-control loops keep their verdict
        // regardless of recorded static obstructions.
        assert_eq!(
            triage_with_gap(&report(95.0, 100.0, 0.0, 0.0), &[GapCause::MayAlias], &t),
            Verdict::AlreadyVectorized
        );
        assert_eq!(
            triage_with_gap(&report(0.0, 90.0, 0.0, 0.9), &[GapCause::Indirection], &t),
            Verdict::IrregularControl
        );
        assert_eq!(
            triage_with_gap(&report(0.0, 10.0, 60.0, 0.0), &[GapCause::MayAlias], &t),
            Verdict::NeedsLayoutChange
        );
    }

    #[test]
    fn every_verdict_has_a_distinct_display() {
        let all = [
            Verdict::AlreadyVectorized,
            Verdict::MissedOpportunity,
            Verdict::AliasLimited,
            Verdict::IndirectionLimited,
            Verdict::NeedsLayoutChange,
            Verdict::ReductionSerial,
            Verdict::IrregularControl,
            Verdict::NoPotential,
        ];
        let shown: std::collections::HashSet<String> = all.iter().map(|v| v.to_string()).collect();
        assert_eq!(shown.len(), all.len());
    }

    /// Reports are caller-built, so a NaN share of cycles must not panic
    /// the ordering.
    #[test]
    fn suite_ordering_tolerates_nan_percent_cycles() {
        let t = TriageThresholds::default();
        let mut nan = report(0.0, 90.0, 0.0, 0.0);
        nan.percent_cycles = f64::NAN;
        let reports = vec![report(0.0, 90.0, 0.0, 0.0), nan];
        let order = triage_suite(&reports, &t);
        assert_eq!(order.len(), 2);
        assert!(order.iter().all(|&(_, v)| v == Verdict::MissedOpportunity));
    }

    #[test]
    fn suite_ordering_ranks_gap_verdicts_between_missed_and_layout() {
        let t = TriageThresholds::default();
        let reports = vec![
            report(0.0, 10.0, 60.0, 0.0), // layout
            report(0.0, 90.0, 0.0, 0.0),  // missed
        ];
        let order = triage_suite(&reports, &t);
        assert_eq!(order[0].0, 1);
        assert_eq!(order[1].0, 0);
    }
}
