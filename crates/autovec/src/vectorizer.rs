//! Per-loop vectorization decisions.

use crate::affine::{scan_loop, Access, Base, InductionVar};
use std::collections::HashSet;
use vectorscope_ir::loops::{LoopForest, LoopId};
use vectorscope_ir::{FuncId, InstId, InstKind, Module, ScalarTy};

/// Why a loop was not vectorized (mirrors the reasons icc reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Outer loops are not vectorized directly.
    NotInnermost,
    /// No recognizable induction variable.
    NoInductionVar,
    /// Data-dependent control flow in the body.
    ControlFlow,
    /// A non-intrinsic call in the body.
    Call,
    /// A memory access whose address is not affine in the induction
    /// variables (e.g. indirection `a[idx[i]]`).
    NonAffineAccess,
    /// A store through a pointer of unknown provenance may alias another
    /// access (no `restrict`, no runtime disambiguation in the model).
    PossibleAliasing,
    /// A loop-carried flow dependence (ZIV / strong SIV).
    LoopCarriedDependence,
    /// An access advances by a non-unit, non-zero stride per iteration.
    NonUnitStride,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reason::NotInnermost => "not innermost",
            Reason::NoInductionVar => "no induction variable",
            Reason::ControlFlow => "data-dependent control flow",
            Reason::Call => "function call in body",
            Reason::NonAffineAccess => "non-affine memory access",
            Reason::PossibleAliasing => "possible aliasing",
            Reason::LoopCarriedDependence => "loop-carried dependence",
            Reason::NonUnitStride => "non-unit stride access",
        };
        f.write_str(s)
    }
}

/// The model vectorizer's verdict for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDecision {
    /// The loop's function.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// Source line of the loop.
    pub line: u32,
    /// Whether the loop vectorizes.
    pub vectorized: bool,
    /// The first rejection reason, when not vectorized.
    pub reason: Option<Reason>,
    /// FP candidate instructions that execute packed when vectorized.
    pub packed: Vec<InstId>,
    /// Whether a register reduction was recognized (and vectorized).
    pub reduction: bool,
    /// Element type driving the lane count (`F32` only when every candidate
    /// is single precision).
    pub elem: ScalarTy,
}

/// Runs the model vectorizer over every loop of every function.
///
/// # Example
///
/// ```
/// let src = r#"
///     const int N = 64;
///     double a[N]; double b[N];
///     void main() {
///         for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; }  // vectorizes
///         a[0] = 1.0;
///         for (int i = 1; i < N; i++) { a[i] = a[i-1] * 2.0; } // carried dep
///     }
/// "#;
/// let module = vectorscope_frontend::compile("v.kern", src).unwrap();
/// let decisions = vectorscope_autovec::analyze_module(&module);
/// let v: Vec<bool> = decisions.iter().map(|d| d.vectorized).collect();
/// assert_eq!(v, vec![true, false]);
/// ```
pub fn analyze_module(module: &Module) -> Vec<LoopDecision> {
    let mut out = Vec::new();
    for f in 0..module.functions().len() as u32 {
        out.extend(analyze_function(module, FuncId(f)));
    }
    out
}

/// Runs the model vectorizer over every loop of one function.
pub fn analyze_function(module: &Module, func: FuncId) -> Vec<LoopDecision> {
    let function = module.function(func);
    let forest = LoopForest::new(function);
    let mut out = Vec::new();
    for (loop_id, l) in forest.iter() {
        let line = forest.span_of(function, loop_id).line;
        let fp_insts: Vec<(InstId, ScalarTy)> = l
            .blocks
            .iter()
            .flat_map(|&b| function.block(b).insts.iter())
            .filter(|i| i.is_fp_candidate())
            .map(|i| {
                let ty = match &i.kind {
                    InstKind::Bin { ty, .. } => *ty,
                    _ => ScalarTy::F64,
                };
                (i.id, ty)
            })
            .collect();
        let elem = if !fp_insts.is_empty() && fp_insts.iter().all(|(_, t)| *t == ScalarTy::F32) {
            ScalarTy::F32
        } else {
            ScalarTy::F64
        };
        let mut decision = LoopDecision {
            func,
            loop_id,
            line,
            vectorized: false,
            reason: None,
            packed: Vec::new(),
            reduction: false,
            elem,
        };
        match decide(module, function, l) {
            Ok(reduction) => {
                decision.vectorized = true;
                decision.reduction = reduction;
                decision.packed = fp_insts.iter().map(|(i, _)| *i).collect();
            }
            Err(reason) => decision.reason = Some(reason),
        }
        if !l.is_innermost() {
            decision.vectorized = false;
            decision.reason = Some(Reason::NotInnermost);
            decision.packed.clear();
        }
        out.push(decision);
    }
    out
}

/// Classification of floating-point register recurrences in a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recurrence {
    /// No FP value flows from one iteration to the next through registers.
    None,
    /// A pure accumulator (`acc = acc ⊕ x`): the accumulator is read only
    /// by the accumulating operation and the new value is used only to
    /// update the accumulator. Vectorizable by reassociation, like icc.
    PureReduction,
    /// A scalar recurrence whose running value is *used* by other
    /// computation (e.g. a lattice filter's forward value): genuinely
    /// serial.
    Impure,
}

/// The floating-point register recurrences of one loop body: the overall
/// classification plus the candidate instructions sitting on a recurrence
/// cycle (the statically serial statements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceInfo {
    /// Overall classification (worst SCC wins).
    pub class: Recurrence,
    /// FP candidate instructions on some register-dataflow cycle, sorted.
    pub candidates: Vec<InstId>,
}

/// Detects floating-point register recurrences by examining cycles in the
/// loop body's register dataflow graph: an edge `r → d` exists when an
/// instruction uses register `r` and defines float register `d`. Registers
/// persist across iterations, so any cycle among float registers is a
/// loop-carried scalar recurrence.
///
/// A recurrence is a *pure reduction* (vectorizable by reassociation, as
/// icc does) iff its cycle consists of exactly one FP candidate plus
/// identity copies, and none of the cycle's registers is read by any other
/// in-loop instruction — intermediate prefix values must not escape, or
/// reassociation would change observable results.
pub fn recurrence_info(
    function: &vectorscope_ir::Function,
    l: &vectorscope_ir::loops::Loop,
) -> RecurrenceInfo {
    use std::collections::{HashMap, HashSet};
    use vectorscope_ir::RegId;

    // Instructions of the body, flattened, with per-instruction metadata.
    struct BodyInst {
        id: InstId,
        is_copy: bool,
        is_candidate: bool,
        dst: Option<RegId>,
        uses: Vec<RegId>,
    }
    let mut insts: Vec<BodyInst> = Vec::new();
    for &b in &l.blocks {
        for inst in &function.block(b).insts {
            let is_copy = matches!(&inst.kind, InstKind::Cast { to, from, .. } if to == from);
            insts.push(BodyInst {
                id: inst.id,
                is_copy,
                is_candidate: inst.is_fp_candidate(),
                dst: inst.dst(),
                uses: inst.used_regs(),
            });
        }
    }

    // Float-register dataflow edges: use -> def, labeled by instruction.
    let is_float = |r: RegId| function.reg(r).ty.is_float();
    let mut edges: HashMap<RegId, Vec<(RegId, usize)>> = HashMap::new();
    for (idx, bi) in insts.iter().enumerate() {
        let Some(d) = bi.dst else { continue };
        if !is_float(d) {
            continue;
        }
        for &u in &bi.uses {
            if is_float(u) {
                edges.entry(u).or_default().push((d, idx));
            }
        }
    }

    // Reachability helper over the float graph.
    let reaches = |from: RegId, to: RegId| -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(r) = stack.pop() {
            for &(d, _) in edges.get(&r).map(Vec::as_slice).unwrap_or(&[]) {
                if d == to {
                    return true;
                }
                if seen.insert(d) {
                    stack.push(d);
                }
            }
        }
        false
    };

    // Registers on some cycle.
    let all_regs: Vec<RegId> = edges.keys().copied().collect();
    let cyclic: HashSet<RegId> = all_regs
        .iter()
        .copied()
        .filter(|&r| reaches(r, r))
        .collect();
    if cyclic.is_empty() {
        return RecurrenceInfo {
            class: Recurrence::None,
            candidates: Vec::new(),
        };
    }

    // Partition cyclic regs into SCCs (r, s together iff mutually
    // reachable). Quadratic, but loop bodies are tiny.
    let mut sccs: Vec<HashSet<RegId>> = Vec::new();
    for &r in &cyclic {
        if sccs.iter().any(|s| s.contains(&r)) {
            continue;
        }
        let mut scc = HashSet::new();
        scc.insert(r);
        for &s in &cyclic {
            if s != r && reaches(r, s) && reaches(s, r) {
                scc.insert(s);
            }
        }
        sccs.push(scc);
    }

    let mut impure = false;
    let mut cand_ids: Vec<InstId> = Vec::new();
    for scc in &sccs {
        // Instructions with an edge inside this SCC.
        let mut scc_insts: HashSet<usize> = HashSet::new();
        for &r in scc {
            for &(d, idx) in edges.get(&r).map(Vec::as_slice).unwrap_or(&[]) {
                if scc.contains(&d) {
                    scc_insts.insert(idx);
                }
            }
        }
        cand_ids.extend(
            scc_insts
                .iter()
                .filter(|&&i| insts[i].is_candidate)
                .map(|&i| insts[i].id),
        );
        let candidates = scc_insts.iter().filter(|&&i| insts[i].is_candidate).count();
        let non_copy_non_candidate = scc_insts
            .iter()
            .filter(|&&i| !insts[i].is_candidate && !insts[i].is_copy)
            .count();
        if candidates != 1 || non_copy_non_candidate != 0 {
            impure = true;
            continue;
        }
        // No SCC register may be read by an instruction outside the cycle:
        // that would consume intermediate prefix values.
        for (idx, bi) in insts.iter().enumerate() {
            if scc_insts.contains(&idx) {
                continue;
            }
            if bi.uses.iter().any(|u| scc.contains(u)) {
                impure = true;
                break;
            }
        }
    }
    cand_ids.sort_by_key(|i| i.0);
    cand_ids.dedup();
    RecurrenceInfo {
        class: if impure {
            Recurrence::Impure
        } else {
            Recurrence::PureReduction
        },
        candidates: cand_ids,
    }
}

fn decide(
    module: &Module,
    function: &vectorscope_ir::Function,
    l: &vectorscope_ir::loops::Loop,
) -> Result<bool, Reason> {
    let _ = module;
    let info = scan_loop(function, l);
    if info.inner_branches > 0 {
        return Err(Reason::ControlFlow);
    }
    if info.calls > 0 {
        return Err(Reason::Call);
    }
    if info.ivs.is_empty() {
        return Err(Reason::NoInductionVar);
    }
    for a in &info.accesses {
        if a.addr.is_none() {
            return Err(Reason::NonAffineAccess);
        }
        // Pointer-walk addressing (`*p++`): the base is itself a pointer
        // recurrence. Real vectorizers frequently bail on these subscripts
        // (and cannot disambiguate the walks without `restrict`); the model
        // rejects them, which is what separates the UTDSP pointer variants
        // from their array twins (paper §4.3).
        if let Some(addr) = &a.addr {
            if let Base::LoopIn(r) = addr.base {
                if info.ivs.iter().any(|iv| iv.reg == r && iv.is_pointer) {
                    return Err(Reason::NonAffineAccess);
                }
            }
        }
    }

    // Aliasing & dependences over pairs involving at least one store.
    for (i, a) in info.accesses.iter().enumerate() {
        for b in &info.accesses[i + 1..] {
            if !a.is_store && !b.is_store {
                continue;
            }
            check_pair(a, b, &info.ivs)?;
        }
    }

    // Stride check: every access must advance by 0 or ±size per iteration.
    for a in &info.accesses {
        let adv = per_iteration_advance(a, &info.ivs);
        if adv != 0 && adv.unsigned_abs() != a.size {
            return Err(Reason::NonUnitStride);
        }
    }

    match recurrence_info(function, l).class {
        Recurrence::None => Ok(false),
        Recurrence::PureReduction => Ok(true),
        Recurrence::Impure => Err(Reason::LoopCarriedDependence),
    }
}

/// How many bytes the access's address advances per loop iteration.
fn per_iteration_advance(a: &Access, ivs: &[InductionVar]) -> i64 {
    crate::affine::per_iteration_advance(a.addr.as_ref().expect("checked affine"), ivs)
}

fn check_pair(a: &Access, b: &Access, ivs: &[InductionVar]) -> Result<(), Reason> {
    let aa = a.addr.as_ref().expect("checked affine");
    let ba = b.addr.as_ref().expect("checked affine");

    if aa.base != ba.base {
        // Distinct named objects never alias; anything involving an opaque
        // pointer might.
        let opaque = |base: &Base| matches!(base, Base::LoopIn(_));
        if opaque(&aa.base) || opaque(&ba.base) {
            return Err(Reason::PossibleAliasing);
        }
        return Ok(());
    }

    // Same base object. Compare coefficient shapes.
    if aa.coeffs != ba.coeffs {
        // e.g. A[i] vs A[2i] or different outer-loop symbols: give up.
        return Err(Reason::LoopCarriedDependence);
    }
    let d = ba.konst - aa.konst;
    // Per-iteration combined advance (equal for both since shapes match).
    let c = per_iteration_advance(a, ivs);
    if d != 0 {
        // Dimension-split (delta) test: a distance containing whole rows
        // of an enclosing dimension (the largest invariant-symbol
        // coefficient) is carried by an *outer* loop; under the standard
        // in-bounds-subscript assumption the accesses never coincide
        // within one execution of this loop, so it does not constrain
        // vectorizing it. Example: `at[j][i] = f(at[j-1][i])` — distance
        // N·8, row size N·8 → the inner i loop is dependence-free.
        let row = aa
            .coeffs
            .iter()
            .filter(|(r, _)| !ivs.iter().any(|iv| iv.reg == **r))
            .map(|(_, coeff)| coeff.abs())
            .max()
            .unwrap_or(0);
        if row > 0 {
            let q = (d as f64 / row as f64).round() as i64;
            let r = d - q * row;
            if q != 0 && r.abs() < row {
                return Ok(());
            }
        }
    }
    if c == 0 {
        // ZIV: same location every iteration.
        if d == 0 {
            return Err(Reason::LoopCarriedDependence);
        }
        // Overlap check for differently-sized accesses is skipped: Kern
        // accesses are type-consistent.
        return Ok(());
    }
    if d == 0 {
        // Same location within one iteration: loop-independent, fine.
        return Ok(());
    }
    if d % c == 0 {
        // Dependence at distance d/c iterations.
        return Err(Reason::LoopCarriedDependence);
    }
    Ok(())
}

/// The *Percent Packed* metric: dynamic FP operations belonging to
/// vectorized loops, as a share of all dynamic FP operations
/// (`candidate_counts` maps candidate instructions to their dynamic counts
/// in the region of interest).
pub fn percent_packed(decisions: &[LoopDecision], candidate_counts: &[(InstId, u64)]) -> f64 {
    let packed: HashSet<InstId> = decisions
        .iter()
        .filter(|d| d.vectorized)
        .flat_map(|d| d.packed.iter().copied())
        .collect();
    let total: u64 = candidate_counts.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let hit: u64 = candidate_counts
        .iter()
        .filter(|(i, _)| packed.contains(i))
        .map(|&(_, c)| c)
        .sum();
    hit as f64 * 100.0 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions_of(src: &str) -> Vec<LoopDecision> {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        analyze_module(&module)
    }

    fn single(src: &str) -> LoopDecision {
        let ds = decisions_of(src);
        assert_eq!(ds.len(), 1, "expected one loop: {ds:?}");
        ds.into_iter().next().unwrap()
    }

    #[test]
    fn simple_global_loop_vectorizes() {
        let d = single(
            r#"
            const int N = 64;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; }
            }
        "#,
        );
        assert!(d.vectorized, "{d:?}");
        assert_eq!(d.packed.len(), 1);
        assert_eq!(d.elem, ScalarTy::F64);
    }

    #[test]
    fn loop_carried_dependence_rejects() {
        let d = single(
            r#"
            const int N = 64;
            double a[N];
            void main() {
                for (int i = 1; i < N; i++) { a[i] = a[i-1] * 2.0; }
            }
        "#,
        );
        assert!(!d.vectorized);
        assert_eq!(d.reason, Some(Reason::LoopCarriedDependence));
    }

    #[test]
    fn conditional_body_rejects() {
        let d = decisions_of(
            r#"
            const int N = 64;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) {
                    if (a[i] > 0.0) { a[i] = a[i] * 2.0; }
                }
            }
        "#,
        );
        assert!(!d[0].vectorized);
        assert_eq!(d[0].reason, Some(Reason::ControlFlow));
    }

    #[test]
    fn pointer_store_rejects_for_aliasing() {
        let d = decisions_of(
            r#"
            const int N = 64;
            double a[N]; double b[N];
            void copy_ptr(double* dst, double* src, int n) {
                for (int i = 0; i < n; i++) { dst[i] = src[i] * 2.0; }
            }
            void main() { copy_ptr(a, b, N); }
        "#,
        );
        let lp = d
            .iter()
            .find(|x| !x.packed.is_empty() || x.reason.is_some())
            .unwrap();
        assert!(!lp.vectorized);
        assert_eq!(lp.reason, Some(Reason::PossibleAliasing));
    }

    #[test]
    fn indirection_rejects_as_non_affine() {
        let d = decisions_of(
            r#"
            const int N = 64;
            double a[N]; double b[N];
            int idx[N];
            void main() {
                for (int i = 0; i < N; i++) { a[idx[i]] = b[i] + 1.0; }
            }
        "#,
        );
        assert!(!d[0].vectorized);
        assert_eq!(d[0].reason, Some(Reason::NonAffineAccess));
    }

    #[test]
    fn aos_stride_rejects_as_non_unit() {
        let d = decisions_of(
            r#"
            struct complex { double r; double i; };
            const int N = 32;
            complex z[N]; double out[N];
            void main() {
                for (int k = 0; k < N; k++) { out[k] = z[k].r * 2.0; }
            }
        "#,
        );
        assert!(!d[0].vectorized);
        assert_eq!(d[0].reason, Some(Reason::NonUnitStride));
    }

    #[test]
    fn reduction_vectorizes_and_is_marked() {
        let d = decisions_of(
            r#"
            const int N = 64;
            double a[N]; double s = 0.0;
            void main() {
                double acc = 0.0;
                for (int i = 0; i < N; i++) { acc += a[i]; }
                s = acc;
            }
        "#,
        );
        assert!(d[0].vectorized, "{:?}", d[0]);
        assert!(d[0].reduction);
    }

    #[test]
    fn call_in_body_rejects_but_intrinsic_ok() {
        let with_call = decisions_of(
            r#"
            const int N = 8;
            double a[N];
            double f(double x) { return x + 1.0; }
            void main() {
                for (int i = 0; i < N; i++) { a[i] = f(a[i]); }
            }
        "#,
        );
        let loop_d = with_call
            .iter()
            .find(|d| d.reason.is_some() || d.vectorized)
            .unwrap();
        assert_eq!(loop_d.reason, Some(Reason::Call));

        let with_intrin = single(
            r#"
            const int N = 8;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = exp(b[i]) * 2.0; }
            }
        "#,
        );
        assert!(with_intrin.vectorized, "{with_intrin:?}");
    }

    #[test]
    fn outer_loop_not_vectorized_directly() {
        let d = decisions_of(
            r#"
            const int N = 16;
            double a[N][N];
            void main() {
                for (int i = 0; i < N; i++)
                    for (int j = 0; j < N; j++)
                        a[i][j] = a[i][j] + 1.0;
            }
        "#,
        );
        assert_eq!(d.len(), 2);
        let outer = d.iter().find(|x| x.reason == Some(Reason::NotInnermost));
        assert!(outer.is_some());
        let inner = d.iter().find(|x| x.vectorized);
        assert!(inner.is_some(), "{d:?}");
    }

    #[test]
    fn column_major_access_rejects_non_unit() {
        // The paper's Listing 3 first loop after interchange would be
        // stride-N; here we directly write the stride-N inner loop.
        let d = decisions_of(
            r#"
            const int N = 16;
            double a[N][N];
            void main() {
                for (int j = 0; j < N; j++)
                    for (int i = 0; i < N; i++)
                        a[i][j] = a[i][j] * 2.0;    // column access
            }
        "#,
        );
        let inner = d
            .iter()
            .find(|x| x.reason != Some(Reason::NotInnermost))
            .unwrap();
        assert!(!inner.vectorized);
        assert_eq!(inner.reason, Some(Reason::NonUnitStride));
    }

    #[test]
    fn static_dependence_test_programs_get_their_verdicts() {
        // The three loops whose dependence evidence `vectorscope-staticdep`
        // tests (disjoint globals, distance-1 flow, stride-2): the model
        // vectorizer accepts only the first.
        let disjoint = single(
            "const int N = 16; double a[N]; double b[N];\n\
             void main() { for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; } }",
        );
        assert!(disjoint.vectorized, "{disjoint:?}");
        let flow = single(
            "const int N = 16; double a[N];\n\
             void main() { for (int i = 1; i < N; i++) { a[i] = a[i-1] * 0.5; } }",
        );
        assert!(!flow.vectorized, "{flow:?}");
        let strided = single(
            "const int N = 16; double a[N]; double b[N];\n\
             void main() { for (int i = 0; i < 8; i++) { a[2*i] = b[2*i] + 1.0; } }",
        );
        assert!(!strided.vectorized, "{strided:?}");
    }

    #[test]
    fn percent_packed_counts_dynamic_ops() {
        let module = vectorscope_frontend::compile(
            "p.kern",
            r#"
            const int N = 10;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; }      // packed
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = a[i-1] + 1.0; }    // not
            }
        "#,
        )
        .unwrap();
        let decisions = analyze_module(&module);
        assert_eq!(decisions.iter().filter(|d| d.vectorized).count(), 1);
        let packed_inst = decisions.iter().find(|d| d.vectorized).unwrap().packed[0];
        // 10 packed fmuls vs 9 serial fadds.
        let counts = vec![(packed_inst, 10u64), (InstId(9999), 9u64)];
        let pct = percent_packed(&decisions, &counts);
        assert!((pct - 10.0 * 100.0 / 19.0).abs() < 1e-9);
    }
}
