//! Static data-dependence analysis over the IR's affine address forms.
//!
//! Where [`vectorscope_autovec`] answers one binary question per loop
//! ("does the model vectorizer accept it?"), this crate computes the
//! *evidence*: per-pair dependence tests (ZIV, strong/weak-zero SIV, GCD,
//! Banerjee) emitting direction/distance vectors with a three-valued
//! verdict, a static stride class per access, and sound per-statement
//! concurrency bounds derived from 0/1-weighted recurrence cycles.
//!
//! The results serve two purposes:
//!
//! 1. **Prediction** — quantify the gap between what a static compiler can
//!    prove and what the dynamic trace reveals (the paper's central
//!    argument, §4.2/§4.4).
//! 2. **Oracle** — every [`Verdict::ProvenDependence`] whose distance fits
//!    the observed trip count *must* be witnessed by a dynamic DDG edge,
//!    and on statically exact loops the dynamic concurrency must not
//!    exceed the static bounds. `vectorscope::gap` performs that
//!    cross-validation.
//!
//! Soundness over precision: a verdict of `Proven*` is a theorem about
//! every execution of the loop (under the standard in-bounds-subscript
//! assumption for the dimension-split test); anything the linear-scan
//! affine model cannot see — data-dependent control flow, calls,
//! indirection, opaque pointers — degrades to [`Verdict::Unknown`] with a
//! machine-readable cause.

#![deny(missing_docs)]

use std::collections::{HashMap, HashSet};

use vectorscope_autovec::affine::{per_iteration_advance, scan_loop, Access, Base, LoopAccessInfo};
use vectorscope_autovec::{recurrence_info, Recurrence};
use vectorscope_ir::loops::{Loop, LoopForest, LoopId};
use vectorscope_ir::{FuncId, Function, Inst, InstId, InstKind, Module, RegId, Value};

/// Relative iteration order of a dependence's source and sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Source iteration strictly precedes the sink iteration (`<`).
    Lt,
    /// Source and sink are in the same iteration (`=`, loop-independent).
    Eq,
    /// Source iteration strictly follows the sink iteration (`>`). Pairs
    /// are normalized so the source executes first; this variant exists
    /// for completeness of the vector algebra and is never emitted.
    Gt,
    /// The dependence recurs at many (or unbounded) distances (`*`).
    Any,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Any => "*",
        })
    }
}

/// The kind of a data dependence between two memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write then read (true dependence). The only kind the dynamic DDG
    /// records, hence the only kind the witness oracle checks.
    Flow,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        })
    }
}

/// Which dependence test produced a pair's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// Base-object comparison (distinct named objects never alias).
    BaseObject,
    /// The distance spans whole rows of an enclosing dimension, so the
    /// dependence is carried by an outer loop (delta test).
    DimensionSplit,
    /// Zero-induction-variable test: neither address moves per iteration.
    Ziv,
    /// Strong SIV: both addresses advance by the same amount per iteration.
    StrongSiv,
    /// Weak-zero SIV: one address is loop-invariant, the other walks.
    WeakZeroSiv,
    /// GCD divisibility test over all differing coefficients.
    Gcd,
    /// Banerjee-style feasibility bounds on the dependence equation.
    Banerjee,
}

impl std::fmt::Display for TestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TestKind::BaseObject => "base",
            TestKind::DimensionSplit => "dim-split",
            TestKind::Ziv => "ziv",
            TestKind::StrongSiv => "strong-siv",
            TestKind::WeakZeroSiv => "weak-zero-siv",
            TestKind::Gcd => "gcd",
            TestKind::Banerjee => "banerjee",
        })
    }
}

/// Why a pair's dependence question could not be decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownCause {
    /// An opaque pointer base may alias the other access's object.
    MayAlias,
    /// The dependence equation involves symbols (loop-invariant registers
    /// or unextractable IV start values) the tests cannot bound.
    Symbolic,
    /// At least one address is not affine in the induction variables.
    NonAffine,
    /// Data-dependent control flow or a call makes the linear-scan affine
    /// model of the body unreliable, so proofs are withdrawn.
    Control,
}

impl std::fmt::Display for UnknownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnknownCause::MayAlias => "may-alias",
            UnknownCause::Symbolic => "symbolic",
            UnknownCause::NonAffine => "non-affine",
            UnknownCause::Control => "control",
        })
    }
}

/// A concrete direction/distance vector for a proven dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepVector {
    /// Flow, anti, or output.
    pub kind: DepKind,
    /// Iteration-order relation of source and sink.
    pub direction: Direction,
    /// Dependence distance in iterations when it is a single constant;
    /// `None` when the dependence recurs at many distances ([`Direction::Any`]).
    pub distance: Option<u64>,
    /// Smallest trip count at which at least one dynamic instance of this
    /// dependence materializes. The witness oracle only demands a DDG edge
    /// when the observed trip count reaches this.
    pub min_trip: u64,
    /// The access that executes first (the writer for flow dependences).
    pub source: InstId,
    /// The access that executes second.
    pub sink: InstId,
}

/// Three-valued outcome of the dependence tests for one access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The pair provably conflicts; the vector says how.
    ProvenDependence(DepVector),
    /// The pair provably never touches overlapping bytes within one
    /// execution of the loop.
    ProvenIndependence,
    /// The tests could not decide.
    Unknown(UnknownCause),
}

/// The analyzed dependence relation of one access pair (at least one of
/// which is a store), in body order: `a` executes before `b` within an
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDep {
    /// The body-earlier access.
    pub a: InstId,
    /// The body-later access.
    pub b: InstId,
    /// The test that decided (or gave up on) the pair.
    pub test: TestKind,
    /// The outcome.
    pub verdict: Verdict,
}

/// Static per-iteration stride classification of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideClass {
    /// The address does not move between iterations.
    Zero,
    /// The address advances by exactly the access size (contiguous).
    Unit,
    /// The address advances by a constant other than the access size
    /// (bytes per iteration).
    NonUnit(i64),
    /// The address is not affine; no static stride exists.
    Unknown,
}

impl std::fmt::Display for StrideClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrideClass::Zero => f.write_str("zero"),
            StrideClass::Unit => f.write_str("unit"),
            StrideClass::NonUnit(b) => write!(f, "non-unit({b})"),
            StrideClass::Unknown => f.write_str("unknown"),
        }
    }
}

/// Stride classification of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessStride {
    /// The load/store instruction.
    pub inst: InstId,
    /// Whether it writes.
    pub is_store: bool,
    /// The static stride class.
    pub class: StrideClass,
}

/// Why the static analysis could not fully capture a loop — the
/// classification of the static↔dynamic gap the paper's case studies
/// revolve around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GapCause {
    /// An opaque pointer may alias another accessed object.
    MayAlias,
    /// A subscript is not affine in the induction variables.
    NonAffine,
    /// A non-affine subscript whose address chain passes through an
    /// in-loop load (`a[idx[i]]`, 435.gromacs-style indirection).
    Indirection,
    /// The body branches on data.
    DataDependentControl,
    /// The body calls a non-intrinsic function.
    Call,
    /// A floating-point register recurrence chains iterations together.
    ReductionChain,
    /// Not an innermost loop; per-pair analysis is delegated to the inner
    /// loops.
    OuterLoop,
}

impl std::fmt::Display for GapCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GapCause::MayAlias => "may-alias",
            GapCause::NonAffine => "non-affine-subscript",
            GapCause::Indirection => "indirection",
            GapCause::DataDependentControl => "data-dependent-control",
            GapCause::Call => "call",
            GapCause::ReductionChain => "reduction-chain",
            GapCause::OuterLoop => "outer-loop",
        })
    }
}

/// A sound static serialization bound for one candidate instruction: some
/// dependence cycle forces instance `i` to wait for instance `i − distance`,
/// so over the loop's execution the instruction's average partition size
/// (concurrency among its own instances) cannot exceed `distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtBound {
    /// The FP candidate instruction.
    pub inst: InstId,
    /// The minimal loop-crossing weight of a dependence cycle through the
    /// instruction (δ ≥ 1).
    pub distance: u64,
    /// Whether the cycle is a pure register reduction — breakable by
    /// reassociation, so the bound only holds when reductions are *not*
    /// broken by the dynamic analysis.
    pub from_reduction: bool,
}

/// The full static dependence analysis of one loop.
#[derive(Debug, Clone)]
pub struct LoopDep {
    /// The loop's function.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// Source line of the loop header.
    pub line: u32,
    /// Whether the loop is innermost (pair analysis only runs on innermost
    /// loops; outer loops delegate to their children).
    pub innermost: bool,
    /// Whether the loop is *statically exact*: innermost, no calls, no
    /// data-dependent control flow, every access affine, and every pair
    /// verdict proven. On exact loops the static bounds are theorems the
    /// dynamic metrics must respect.
    pub exact: bool,
    /// Causes of inexactness, sorted and deduplicated (empty iff `exact`,
    /// except for a pure reduction chain, which is recorded here but does
    /// not by itself make the dependence relation inexact).
    pub limits: Vec<GapCause>,
    /// Dependence verdicts for every access pair involving a store.
    pub pairs: Vec<PairDep>,
    /// Static stride class per access.
    pub strides: Vec<AccessStride>,
    /// Sound per-candidate serialization bounds (computed only on exact
    /// loops).
    pub bounds: Vec<StmtBound>,
}

impl LoopDep {
    /// The strongest distance bound applicable to any candidate, honoring
    /// `break_reductions` (reduction-only bounds are skipped when the
    /// dynamic analysis breaks reduction chains).
    pub fn min_bound(&self, break_reductions: bool) -> Option<u64> {
        self.bounds
            .iter()
            .filter(|b| !(break_reductions && b.from_reduction))
            .map(|b| b.distance)
            .min()
    }
}

/// Greatest common divisor (with `gcd(0, n) = n`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Banerjee-style feasibility of the dependence equation
/// `c_a·p − c_b·q = d` with iterations `0 ≤ p, q ≤ trip − 1`.
///
/// Returns `false` when the equation is infeasible over the iteration
/// space — a proof of independence. With `trip = None` the iteration space
/// is unbounded, so only sign information can refute (e.g. both advances
/// non-negative but the required difference is negative beyond reach).
pub fn banerjee_feasible(d: i64, c_a: i64, c_b: i64, trip: Option<u64>) -> bool {
    // Extent of the iteration index. Unbounded trips use a cap large
    // enough that only sign information matters; arithmetic is i128 so the
    // products cannot overflow.
    let m: i128 = match trip {
        Some(0) => return false, // no iterations, no dependence
        Some(t) => (t - 1) as i128,
        None => 1i128 << 40,
    };
    let (ca, cb, d) = (c_a as i128, c_b as i128, d as i128);
    let min_term = |c: i128| if c < 0 { c * m } else { 0 };
    let max_term = |c: i128| if c > 0 { c * m } else { 0 };
    let lo = min_term(ca) - max_term(cb);
    let hi = max_term(ca) - min_term(cb);
    lo <= d && d <= hi
}

/// Runs the static dependence analysis over every loop of every function.
pub fn analyze_module(module: &Module) -> Vec<LoopDep> {
    let mut out = Vec::new();
    for f in 0..module.functions().len() as u32 {
        out.extend(analyze_function(module, FuncId(f)));
    }
    out
}

/// Runs the static dependence analysis over every loop of one function,
/// in [`LoopForest`] order (outer loops before the loops they contain).
pub fn analyze_function(module: &Module, func: FuncId) -> Vec<LoopDep> {
    let function = module.function(func);
    let forest = LoopForest::new(function);
    forest
        .iter()
        .map(|(loop_id, l)| analyze_one(function, &forest, func, loop_id, l))
        .collect()
}

/// Analyzes a single loop, identified by function and loop id.
pub fn analyze_loop(module: &Module, func: FuncId, loop_id: LoopId) -> Option<LoopDep> {
    let function = module.function(func);
    let forest = LoopForest::new(function);
    let l = forest.loops().get(loop_id.index())?;
    Some(analyze_one(function, &forest, func, loop_id, l))
}

fn analyze_one(
    function: &Function,
    forest: &LoopForest,
    func: FuncId,
    loop_id: LoopId,
    l: &Loop,
) -> LoopDep {
    let line = forest.span_of(function, loop_id).line;
    if !l.is_innermost() {
        return LoopDep {
            func,
            loop_id,
            line,
            innermost: false,
            exact: false,
            limits: vec![GapCause::OuterLoop],
            pairs: Vec::new(),
            strides: Vec::new(),
            bounds: Vec::new(),
        };
    }

    let info = scan_loop(function, l);
    let body = body_insts(function, l);
    let mut limits: Vec<GapCause> = Vec::new();
    let tainted = info.inner_branches > 0 || info.calls > 0;
    if info.inner_branches > 0 {
        limits.push(GapCause::DataDependentControl);
    }
    if info.calls > 0 {
        limits.push(GapCause::Call);
    }

    // Stride classes.
    let strides: Vec<AccessStride> = info
        .accesses
        .iter()
        .map(|a| AccessStride {
            inst: a.inst,
            is_store: a.is_store,
            class: match &a.addr {
                None => StrideClass::Unknown,
                Some(addr) => {
                    let adv = per_iteration_advance(addr, &info.ivs);
                    if adv == 0 {
                        StrideClass::Zero
                    } else if adv.unsigned_abs() == a.size {
                        StrideClass::Unit
                    } else {
                        StrideClass::NonUnit(adv)
                    }
                }
            },
        })
        .collect();

    // Classify non-affine subscripts: indirection vs. general opacity.
    for a in info.accesses.iter().filter(|a| a.addr.is_none()) {
        if address_feeds_from_load(&body, a.inst) {
            limits.push(GapCause::Indirection);
        } else {
            limits.push(GapCause::NonAffine);
        }
    }

    // Pairwise dependence tests over pairs involving at least one store.
    let mut pairs: Vec<PairDep> = Vec::new();
    for (i, a) in info.accesses.iter().enumerate() {
        for b in &info.accesses[i + 1..] {
            if !a.is_store && !b.is_store {
                continue;
            }
            if a.addr.is_none() || b.addr.is_none() {
                pairs.push(PairDep {
                    a: a.inst,
                    b: b.inst,
                    test: TestKind::BaseObject,
                    verdict: Verdict::Unknown(UnknownCause::NonAffine),
                });
                continue;
            }
            let mut p = analyze_pair(function, l, &info, a, b);
            if tainted {
                // Under data-dependent control or calls the linear body
                // scan is not a faithful model: withdraw proofs.
                if !matches!(p.verdict, Verdict::Unknown(_)) {
                    p.verdict = Verdict::Unknown(UnknownCause::Control);
                }
            }
            pairs.push(p);
        }
    }
    if pairs
        .iter()
        .any(|p| matches!(p.verdict, Verdict::Unknown(UnknownCause::MayAlias)))
    {
        limits.push(GapCause::MayAlias);
    }

    // Register recurrences.
    let rec = recurrence_info(function, l);
    if rec.class != Recurrence::None {
        limits.push(GapCause::ReductionChain);
    }

    let all_affine = info.accesses.iter().all(|a| a.addr.is_some());
    let any_unknown = pairs
        .iter()
        .any(|p| matches!(p.verdict, Verdict::Unknown(_)));
    let exact = !tainted && all_affine && !any_unknown;

    let bounds = if exact {
        compute_bounds(&body, &info, &pairs, &rec)
    } else {
        Vec::new()
    };

    limits.sort();
    limits.dedup();

    LoopDep {
        func,
        loop_id,
        line,
        innermost: true,
        exact,
        limits,
        pairs,
        strides,
        bounds,
    }
}

/// The loop body's instructions flattened in block-id order (the frontend
/// emits bodies in execution order; branch-free exact loops make this a
/// faithful schedule).
fn body_insts<'f>(function: &'f Function, l: &Loop) -> Vec<&'f Inst> {
    l.blocks
        .iter()
        .flat_map(|&b| function.block(b).insts.iter())
        .collect()
}

/// Whether the address chain of `access_inst` passes through an in-loop
/// load — the signature of indirection (`a[idx[i]]`).
fn address_feeds_from_load(body: &[&Inst], access_inst: InstId) -> bool {
    let Some(inst) = body.iter().find(|i| i.id == access_inst) else {
        return false;
    };
    let addr = match &inst.kind {
        InstKind::Load { addr, .. } => *addr,
        InstKind::Store { addr, .. } => *addr,
        _ => return false,
    };
    let Value::Reg(r0) = addr else { return false };
    let mut defs: HashMap<RegId, Vec<&Inst>> = HashMap::new();
    for i in body {
        if let Some(d) = i.dst() {
            defs.entry(d).or_default().push(i);
        }
    }
    let mut stack = vec![r0];
    let mut seen: HashSet<RegId> = HashSet::new();
    seen.insert(r0);
    while let Some(r) = stack.pop() {
        for def in defs.get(&r).map(Vec::as_slice).unwrap_or(&[]) {
            if matches!(def.kind, InstKind::Load { .. }) {
                return true;
            }
            for u in def.used_regs() {
                if seen.insert(u) {
                    stack.push(u);
                }
            }
        }
    }
    false
}

/// The loop-entry value of induction variable `iv`, when it has exactly
/// one definition outside the loop and that definition is a constant copy.
fn iv_start(function: &Function, l: &Loop, iv: RegId) -> Option<i64> {
    let mut start = None;
    let mut outside_defs = 0usize;
    for (b, block) in function.iter_blocks() {
        if l.contains(b) {
            continue;
        }
        for inst in &block.insts {
            if inst.dst() != Some(iv) {
                continue;
            }
            outside_defs += 1;
            if let InstKind::Cast {
                to,
                from,
                src: Value::ImmInt(k),
                ..
            } = &inst.kind
            {
                if to == from {
                    start = Some(*k);
                }
            }
        }
    }
    if outside_defs == 1 {
        start
    } else {
        None
    }
}

/// The dependence kind implied by the store-ness of source and sink.
fn kind_of(source_is_store: bool, sink_is_store: bool) -> DepKind {
    match (source_is_store, sink_is_store) {
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (true, true) => DepKind::Output,
        (false, false) => unreachable!("load-load pairs are skipped"),
    }
}

/// Runs the dependence tests on one pair. `a` precedes `b` in body order;
/// both addresses are affine.
fn analyze_pair(
    function: &Function,
    l: &Loop,
    info: &LoopAccessInfo,
    a: &Access,
    b: &Access,
) -> PairDep {
    let aa = a.addr.as_ref().expect("caller checked affine");
    let ba = b.addr.as_ref().expect("caller checked affine");
    let pair = |test: TestKind, verdict: Verdict| PairDep {
        a: a.inst,
        b: b.inst,
        test,
        verdict,
    };

    // 1. Base objects.
    if aa.base != ba.base {
        let opaque = |base: &Base| matches!(base, Base::LoopIn(_));
        if opaque(&aa.base) || opaque(&ba.base) {
            return pair(
                TestKind::BaseObject,
                Verdict::Unknown(UnknownCause::MayAlias),
            );
        }
        return pair(TestKind::BaseObject, Verdict::ProvenIndependence);
    }

    let sa = a.size as i64;
    let sb = b.size as i64;
    let ivs = &info.ivs;
    let is_iv = |r: RegId| ivs.iter().any(|iv| iv.reg == r);

    // 2. Identical coefficient shapes: the symbolic parts cancel exactly.
    if aa.coeffs == ba.coeffs {
        let d = ba.konst - aa.konst;
        let c = per_iteration_advance(aa, ivs);

        if d != 0 {
            // Dimension-split (delta) test: a distance of whole rows of an
            // enclosing dimension is carried by an outer loop; under the
            // in-bounds-subscript assumption the accesses never coincide
            // within one execution of this loop.
            let row = aa
                .coeffs
                .iter()
                .filter(|(r, _)| !is_iv(**r))
                .map(|(_, coeff)| coeff.abs())
                .max()
                .unwrap_or(0);
            if row > 0 {
                let q = (d as f64 / row as f64).round() as i64;
                let r = d - q * row;
                if q != 0 && r.abs() < row {
                    return pair(TestKind::DimensionSplit, Verdict::ProvenIndependence);
                }
            }
        }

        if c == 0 {
            // ZIV: both addresses are fixed for the whole loop.
            if d >= sa || -d >= sb {
                return pair(TestKind::Ziv, Verdict::ProvenIndependence);
            }
            return pair(TestKind::Ziv, Verdict::ProvenDependence(ziv_vector(a, b)));
        }

        // Strong SIV: both addresses advance by `c` per iteration, so the
        // iteration gap solving `addr_a(p) = addr_b(q)` is `p − q = d/c`.
        if d == 0 {
            let kind = kind_of(a.is_store, b.is_store);
            return pair(
                TestKind::StrongSiv,
                Verdict::ProvenDependence(DepVector {
                    kind,
                    direction: Direction::Eq,
                    distance: Some(0),
                    min_trip: 1,
                    source: a.inst,
                    sink: b.inst,
                }),
            );
        }
        return pair(TestKind::StrongSiv, strong_siv(a, b, d, c, sa, sb));
    }

    // 3. Differing coefficient shapes. Any non-IV register whose
    // coefficient differs injects an unbounded symbol into the dependence
    // equation — only the GCD residue test applies.
    let mut diff_regs: Vec<RegId> = Vec::new();
    {
        let mut seen = HashSet::new();
        for r in aa.coeffs.keys().chain(ba.coeffs.keys()) {
            if seen.insert(*r) && aa.coeff(*r) != ba.coeff(*r) {
                diff_regs.push(*r);
            }
        }
    }
    let d = ba.konst - aa.konst;
    let ca = per_iteration_advance(aa, ivs);
    let cb = per_iteration_advance(ba, ivs);

    if diff_regs.iter().any(|&r| !is_iv(r)) {
        return pair(
            TestKind::Gcd,
            gcd_verdict(d, ca, cb, &diff_regs, aa, ba, sa, sb),
        );
    }

    // Only IV coefficients differ. Try to resolve the IV start values so
    // the symbol terms become constants.
    let mut resolved = 0i64;
    let mut all_resolved = true;
    for &r in &diff_regs {
        match iv_start(function, l, r) {
            Some(s) => resolved += (ba.coeff(r) - aa.coeff(r)) * s,
            None => {
                all_resolved = false;
                break;
            }
        }
    }
    if !all_resolved {
        return pair(
            TestKind::Gcd,
            gcd_verdict(d, ca, cb, &diff_regs, aa, ba, sa, sb),
        );
    }
    // addr_b(q) − addr_a(p) = dd + cb·q − ca·p, with dd fully constant.
    let dd = d + resolved;

    if (ca == 0) != (cb == 0) {
        return weak_zero_siv(a, b, dd, ca, cb, sa, sb)
            .map(|v| pair(TestKind::WeakZeroSiv, v))
            .unwrap_or_else(|| {
                pair(
                    TestKind::WeakZeroSiv,
                    Verdict::Unknown(UnknownCause::Symbolic),
                )
            });
    }

    // General two-coefficient case: GCD divisibility, then Banerjee
    // feasibility over an unbounded iteration space.
    let g = gcd(ca.unsigned_abs(), cb.unsigned_abs());
    if g > 0 && !residue_overlaps(dd, g as i64, sa, sb) {
        return pair(TestKind::Gcd, Verdict::ProvenIndependence);
    }
    if !banerjee_feasible(-dd, ca, cb, None) {
        return pair(TestKind::Banerjee, Verdict::ProvenIndependence);
    }
    pair(TestKind::Banerjee, Verdict::Unknown(UnknownCause::Symbolic))
}

/// The dependence vector for a ZIV hit: both accesses touch the same
/// location every iteration, so the dependence recurs at every distance.
fn ziv_vector(a: &Access, b: &Access) -> DepVector {
    match (a.is_store, b.is_store) {
        // Store first in the body: the same-iteration flow edge exists.
        (true, false) => DepVector {
            kind: DepKind::Flow,
            direction: Direction::Any,
            distance: None,
            min_trip: 1,
            source: a.inst,
            sink: b.inst,
        },
        // Load first: the flow edge needs a second iteration.
        (false, true) => DepVector {
            kind: DepKind::Flow,
            direction: Direction::Any,
            distance: None,
            min_trip: 2,
            source: b.inst,
            sink: a.inst,
        },
        (true, true) => DepVector {
            kind: DepKind::Output,
            direction: Direction::Any,
            distance: None,
            min_trip: 1,
            source: a.inst,
            sink: b.inst,
        },
        (false, false) => unreachable!("load-load pairs are skipped"),
    }
}

/// Whether a value ≡ `d` (mod `g`) can fall in the overlap window
/// `(−sb, sa)` of two accesses of sizes `sa`/`sb`.
fn residue_overlaps(d: i64, g: i64, sa: i64, sb: i64) -> bool {
    debug_assert!(g > 0);
    let r = d.rem_euclid(g);
    r < sa || g - r < sb
}

/// Strong SIV with a non-zero constant distance `d` and common advance `c`.
fn strong_siv(a: &Access, b: &Access, d: i64, c: i64, sa: i64, sb: i64) -> Verdict {
    let cc = c.abs();
    if !residue_overlaps(d, cc, sa, sb) {
        return Verdict::ProvenIndependence;
    }
    // The overlapping residue: exact hit when c | d; otherwise a partial
    // byte overlap at the nearest residue (only possible for mixed sizes).
    let r = d.rem_euclid(cc);
    let v = if r < sa { r } else { r - cc };
    // addr_b(q) − addr_a(p) = v  ⇒  q − p = (v − d)/c.
    let u = (v - d) / c;
    let (source, sink, source_is_store, sink_is_store, dist) = if u > 0 {
        // b runs u iterations after a: a is the source.
        (a.inst, b.inst, a.is_store, b.is_store, u)
    } else if u < 0 {
        (b.inst, a.inst, b.is_store, a.is_store, -u)
    } else {
        (a.inst, b.inst, a.is_store, b.is_store, 0)
    };
    Verdict::ProvenDependence(DepVector {
        kind: kind_of(source_is_store, sink_is_store),
        direction: if dist == 0 {
            Direction::Eq
        } else {
            Direction::Lt
        },
        distance: Some(dist as u64),
        min_trip: dist as u64 + 1,
        source,
        sink,
    })
}

/// Weak-zero SIV: one access is loop-invariant (`c = 0`), the other walks.
/// `dd` is the fully-resolved constant part of `addr_b(q) − addr_a(p)`.
/// Returns `None` when a partial byte overlap defeats the exact-hit
/// reasoning.
fn weak_zero_siv(
    a: &Access,
    b: &Access,
    dd: i64,
    ca: i64,
    cb: i64,
    sa: i64,
    sb: i64,
) -> Option<Verdict> {
    // Normalize: `w` is the walking access, `f` the fixed one, and the
    // walker meets the fixed address at iteration q* when diff(q*) = 0.
    // For cb ≠ 0: diff(q) = dd + cb·q ⇒ q* = −dd/cb.
    // For ca ≠ 0: diff(p) = dd − ca·p ⇒ p* = dd/ca.
    let (walk, fixed, c, num) = if cb != 0 {
        (b, a, cb, -dd)
    } else {
        (a, b, ca, dd)
    };
    let cc = c.abs();
    if num % c != 0 {
        // No exact hit; a partial overlap needs mixed access sizes.
        if residue_overlaps(if cb != 0 { dd } else { -dd }, cc, sa, sb) {
            return None; // give up: Unknown(Symbolic)
        }
        return Some(Verdict::ProvenIndependence);
    }
    let q_star = num / c;
    if q_star < 0 {
        return Some(Verdict::ProvenIndependence);
    }
    let q_star = q_star as u64;

    // The walker touches the fixed location exactly once, at iteration q*;
    // the fixed access touches it every iteration.
    let (source, sink, source_is_store, sink_is_store, min_trip) =
        match (walk.is_store, fixed.is_store) {
            (true, false) => {
                // Walking store feeds the fixed load from iteration q* on;
                // a same-iteration edge needs the store earlier in the body.
                let store_first = walk.inst == a.inst;
                (
                    walk.inst,
                    fixed.inst,
                    true,
                    false,
                    q_star + if store_first { 1 } else { 2 },
                )
            }
            (false, true) => {
                // Fixed store writes every iteration; the walking load
                // reads it at q* (from the same iteration when the store
                // is earlier in the body, else from q* − 1).
                let store_first = fixed.inst == a.inst;
                if !store_first && q_star == 0 {
                    // The load at iteration 0 precedes every store: only
                    // an anti dependence materializes.
                    (walk.inst, fixed.inst, false, true, 1)
                } else {
                    (fixed.inst, walk.inst, true, false, q_star + 1)
                }
            }
            (true, true) => (a.inst, b.inst, true, true, q_star + 1),
            (false, false) => unreachable!("load-load pairs are skipped"),
        };
    Some(Verdict::ProvenDependence(DepVector {
        kind: kind_of(source_is_store, sink_is_store),
        direction: Direction::Any,
        distance: None,
        min_trip,
        source,
        sink,
    }))
}

/// GCD residue test over every differing coefficient plus both advances.
#[allow(clippy::too_many_arguments)]
fn gcd_verdict(
    d: i64,
    ca: i64,
    cb: i64,
    diff_regs: &[RegId],
    aa: &vectorscope_autovec::affine::Affine,
    ba: &vectorscope_autovec::affine::Affine,
    sa: i64,
    sb: i64,
) -> Verdict {
    let mut g = gcd(ca.unsigned_abs(), cb.unsigned_abs());
    for &r in diff_regs {
        g = gcd(g, (ba.coeff(r) - aa.coeff(r)).unsigned_abs());
    }
    if g > 0 && !residue_overlaps(d, g as i64, sa, sb) {
        return Verdict::ProvenIndependence;
    }
    Verdict::Unknown(UnknownCause::Symbolic)
}

/// Computes sound per-candidate serialization bounds on a statically exact
/// loop by finding minimum loop-crossing-weight dependence cycles in the
/// combined register/memory dataflow graph of one iteration.
///
/// Edges:
/// * register use: producer → consumer, weight 0 when the nearest
///   definition precedes the use in body order (same iteration), weight 1
///   when the use reads the previous iteration's value;
/// * proven recurring memory flow (ZIV or strong SIV, single store
///   instruction to the base so the value cannot be killed): store → load,
///   weight = dependence distance.
///
/// All weight-0 edges point strictly forward in body order, so every cycle
/// has weight ≥ 1 — exactly the number of iterations the chain crosses.
/// A cycle of weight δ through candidate `c` chains instance `c@i` to
/// `c@i+δ`, forcing its instances into at least ⌈n/δ⌉ distinct dynamic
/// partitions: average partition size ≤ δ.
fn compute_bounds(
    body: &[&Inst],
    info: &LoopAccessInfo,
    pairs: &[PairDep],
    rec: &vectorscope_autovec::RecurrenceInfo,
) -> Vec<StmtBound> {
    let n = body.len();
    let mut edges: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];

    // Register edges.
    let mut defs: HashMap<RegId, Vec<usize>> = HashMap::new();
    for (idx, inst) in body.iter().enumerate() {
        if let Some(d) = inst.dst() {
            defs.entry(d).or_default().push(idx);
        }
    }
    for (idx, inst) in body.iter().enumerate() {
        for u in inst.used_regs() {
            let Some(sites) = defs.get(&u) else { continue };
            // Nearest definition before the use (same iteration), else the
            // last definition of the body (previous iteration).
            let prev = sites.iter().rev().find(|&&s| s < idx);
            match prev {
                Some(&s) => edges[s].push((idx, 0)),
                None => {
                    let &last = sites.last().expect("non-empty");
                    edges[last].push((idx, 1));
                }
            }
        }
    }

    // Memory edges from proven recurring flow dependences.
    let idx_of: HashMap<InstId, usize> = body.iter().enumerate().map(|(i, x)| (x.id, i)).collect();
    let base_of: HashMap<InstId, &Base> = info
        .accesses
        .iter()
        .filter_map(|a| a.addr.as_ref().map(|ad| (a.inst, &ad.base)))
        .collect();
    let stores_to = |base: &Base| {
        info.accesses
            .iter()
            .filter(|a| a.is_store && a.addr.as_ref().map(|ad| &ad.base) == Some(base))
            .count()
    };
    for p in pairs {
        let Verdict::ProvenDependence(v) = p.verdict else {
            continue;
        };
        if v.kind != DepKind::Flow {
            continue;
        }
        // Only recurring per-iteration edges serialize chains; a weak-zero
        // hit happens once and broadcasts, it does not chain.
        if !matches!(p.test, TestKind::Ziv | TestKind::StrongSiv) {
            continue;
        }
        let Some(base) = base_of.get(&v.source) else {
            continue;
        };
        if stores_to(base) != 1 {
            // Another store to the same object could kill the value before
            // the load observes it; the chain is not guaranteed.
            continue;
        }
        let (Some(&src), Some(&snk)) = (idx_of.get(&v.source), idx_of.get(&v.sink)) else {
            continue;
        };
        let w = match v.distance {
            Some(d) => d,
            // ZIV: the load reads the nearest prior store instance.
            None => u64::from(src >= snk),
        };
        edges[src].push((snk, w));
    }

    // Minimum-weight cycle through each candidate (Dijkstra; bodies are
    // tiny).
    let mut out = Vec::new();
    for (start, inst) in body.iter().enumerate() {
        if !inst.is_fp_candidate() {
            continue;
        }
        if let Some(delta) = min_cycle_through(&edges, start) {
            debug_assert!(delta >= 1, "zero-weight cycles are impossible");
            out.push(StmtBound {
                inst: inst.id,
                distance: delta.max(1),
                from_reduction: rec.class == Recurrence::PureReduction
                    && rec.candidates.contains(&inst.id),
            });
        }
    }
    out
}

/// Minimum total weight of a cycle passing through `start`, or `None` if
/// no such cycle exists.
fn min_cycle_through(edges: &[Vec<(usize, u64)>], start: usize) -> Option<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist: Vec<Option<u64>> = vec![None; edges.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for &(to, w) in &edges[start] {
        if to == start {
            return Some(w);
        }
        if dist[to].is_none_or(|d| w < d) {
            dist[to] = Some(w);
            heap.push(Reverse((w, to)));
        }
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        if dist[v] != Some(d) {
            continue;
        }
        for &(to, w) in &edges[v] {
            let nd = d + w;
            if to == start {
                return Some(nd);
            }
            if dist[to].is_none_or(|cur| nd < cur) {
                dist[to] = Some(nd);
                heap.push(Reverse((nd, to)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        vectorscope_frontend::compile("t.kern", src).expect("compiles")
    }

    fn innermost_deps(m: &Module) -> Vec<LoopDep> {
        analyze_module(m)
            .into_iter()
            .filter(|d| d.innermost)
            .collect()
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 3), 1);
    }

    #[test]
    fn banerjee_refutes_sign_separated_equations() {
        // p − (−q)·... : c_a ≥ 0, c_b ≤ 0 ⇒ c_a·p − c_b·q ≥ 0; d = −8 is
        // unreachable.
        assert!(!banerjee_feasible(-8, 8, -8, None));
        assert!(banerjee_feasible(8, 8, -8, None));
        // Bounded trips restrict the reach.
        assert!(!banerjee_feasible(64, 8, 8, Some(4)));
        assert!(banerjee_feasible(16, 8, 8, Some(4)));
        // Divisibility is GCD's job, not Banerjee's: d = 1 stays feasible.
        assert!(banerjee_feasible(1, 8, 8, Some(4)));
        assert!(!banerjee_feasible(0, 1, 1, Some(0)));
    }

    #[test]
    fn disjoint_globals_are_independent_and_exact() {
        let m = compile(
            "const int N = 16; double a[N]; double b[N];\n\
             void main() { for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; } }",
        );
        let deps = innermost_deps(&m);
        assert_eq!(deps.len(), 1);
        let d = &deps[0];
        assert!(d.exact, "limits: {:?}", d.limits);
        assert!(d
            .pairs
            .iter()
            .all(|p| p.verdict == Verdict::ProvenIndependence));
        assert!(d.bounds.is_empty());
        assert!(d.strides.iter().all(|s| s.class == StrideClass::Unit));
    }

    #[test]
    fn gauss_seidel_proves_distance_one_flow() {
        let m = compile(
            "const int N = 16; double a[N];\n\
             void main() { for (int i = 1; i < N; i++) { a[i] = a[i-1] * 0.5; } }",
        );
        let deps = innermost_deps(&m);
        assert_eq!(deps.len(), 1);
        let d = &deps[0];
        assert!(d.exact);
        let proven: Vec<&DepVector> = d
            .pairs
            .iter()
            .filter_map(|p| match &p.verdict {
                Verdict::ProvenDependence(v) => Some(v),
                _ => None,
            })
            .collect();
        assert!(
            proven
                .iter()
                .any(|v| v.kind == DepKind::Flow && v.distance == Some(1)),
            "pairs: {:?}",
            d.pairs
        );
        // The candidate multiply sits on a store→load memory cycle of
        // distance 1: statically serial.
        assert_eq!(d.min_bound(true), Some(1));
    }

    #[test]
    fn reduction_bound_is_marked_breakable() {
        let m = compile(
            "const int N = 16; double a[N]; double s;\n\
             void main() { double acc = 0.0;\n\
               for (int i = 0; i < N; i++) { acc = acc + a[i]; } s = acc; }",
        );
        let deps = innermost_deps(&m);
        assert_eq!(deps.len(), 1);
        let d = &deps[0];
        assert!(d.exact);
        assert!(d.limits.contains(&GapCause::ReductionChain));
        assert_eq!(d.min_bound(false), Some(1));
        // Breaking reductions removes the only bound.
        assert_eq!(d.min_bound(true), None);
    }

    #[test]
    fn ziv_accumulator_in_memory_is_serial() {
        let m = compile(
            "const int N = 16; double a[N]; double s[1];\n\
             void main() { for (int i = 0; i < N; i++) { s[0] = s[0] + a[i]; } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        assert!(d.exact);
        let ziv_flow = d.pairs.iter().find_map(|p| match &p.verdict {
            Verdict::ProvenDependence(v) if v.kind == DepKind::Flow && p.test == TestKind::Ziv => {
                Some(*v)
            }
            _ => None,
        });
        let v = ziv_flow.expect("ZIV flow dependence");
        assert_eq!(v.direction, Direction::Any);
        assert_eq!(v.min_trip, 2); // load precedes the store in the body
        assert_eq!(d.min_bound(true), Some(1));
    }

    #[test]
    fn analyze_loop_matches_the_function_wide_analysis() {
        let m = compile(
            "const int N = 16; double a[N][N];\n\
             void main() { for (int i = 1; i < N; i++) {\n\
               for (int j = 0; j < N; j++) { a[i][j] = a[i-1][j] * 0.5; } } }",
        );
        let main = m.lookup_function("main").unwrap();
        let all = analyze_function(&m, main);
        assert_eq!(all.len(), 2);
        for d in &all {
            let one = analyze_loop(&m, main, d.loop_id).expect("loop exists");
            assert_eq!(format!("{one:?}"), format!("{d:?}"));
        }
        assert!(analyze_loop(&m, main, LoopId(2)).is_none());
    }

    #[test]
    fn indirection_is_classified() {
        let m = compile(
            "const int N = 16; double a[N]; double b[N]; int idx[N];\n\
             void main() { for (int i = 0; i < N; i++) { a[i] = b[idx[i]]; } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        assert!(!d.exact);
        assert!(d.limits.contains(&GapCause::Indirection), "{:?}", d.limits);
    }

    #[test]
    fn non_unit_stride_is_classified() {
        let m = compile(
            "const int N = 16; double a[N]; double b[N];\n\
             void main() { for (int i = 0; i < 8; i++) { a[2*i] = b[2*i] + 1.0; } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        assert!(d
            .strides
            .iter()
            .all(|s| s.class == StrideClass::NonUnit(16)));
    }

    #[test]
    fn weak_zero_siv_respects_iv_start() {
        // i starts at 1, so a[i] never reaches a[0]: independence.
        let m = compile(
            "const int N = 16; double a[N];\n\
             void main() { for (int i = 1; i < N; i++) { a[i] = a[0] + 1.0; } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        let wz = d
            .pairs
            .iter()
            .find(|p| p.test == TestKind::WeakZeroSiv)
            .expect("weak-zero pair");
        assert_eq!(wz.verdict, Verdict::ProvenIndependence);

        // i starts at 0: the store at iteration 0 writes a[0], which every
        // later load reads.
        let m = compile(
            "const int N = 16; double a[N];\n\
             void main() { for (int i = 0; i < N; i++) { a[i] = a[0] + 1.0; } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        let wz = d
            .pairs
            .iter()
            .find(|p| p.test == TestKind::WeakZeroSiv)
            .expect("weak-zero pair");
        match wz.verdict {
            Verdict::ProvenDependence(v) => {
                assert_eq!(v.kind, DepKind::Flow);
                assert_eq!(v.direction, Direction::Any);
                // Load precedes the store in the body, so the flow edge
                // needs iteration 1 to exist.
                assert_eq!(v.min_trip, 2);
            }
            other => panic!("expected dependence, got {other:?}"),
        }
    }

    #[test]
    fn opaque_pointers_are_may_alias() {
        let m = compile(
            "const int N = 16;\n\
             void f(double* p, double* q) {\n\
               for (int i = 0; i < N; i++) { p[i] = q[i] * 2.0; } }\n\
             double a[N]; double b[N];\n\
             void main() { f(a, b); }",
        );
        let deps = innermost_deps(&m);
        let d = deps.iter().find(|d| !d.pairs.is_empty()).expect("f's loop");
        assert!(!d.exact);
        assert!(d.limits.contains(&GapCause::MayAlias));
        assert!(d
            .pairs
            .iter()
            .any(|p| p.verdict == Verdict::Unknown(UnknownCause::MayAlias)));
    }

    #[test]
    fn outer_loops_delegate() {
        let m = compile(
            "const int N = 8; double a[N*N];\n\
             void main() { for (int j = 0; j < N; j++) {\n\
               for (int i = 0; i < N; i++) { a[j*N+i] = a[j*N+i] + 1.0; } } }",
        );
        let all = analyze_module(&m);
        let outer = all.iter().find(|d| !d.innermost).expect("outer loop");
        assert!(!outer.exact);
        assert_eq!(outer.limits, vec![GapCause::OuterLoop]);
        assert!(outer.pairs.is_empty());
    }

    #[test]
    fn dimension_split_frees_inner_loop() {
        // at[j][i] depends on at[j-1][i]: carried by the outer loop only.
        let m = compile(
            "const int N = 8; double at[N*N];\n\
             void main() { for (int j = 1; j < N; j++) {\n\
               for (int i = 0; i < N; i++) { at[j*N+i] = at[(j-1)*N+i] * 0.5; } } }",
        );
        let deps = innermost_deps(&m);
        let d = &deps[0];
        assert!(
            d.pairs
                .iter()
                .any(|p| p.test == TestKind::DimensionSplit
                    && p.verdict == Verdict::ProvenIndependence),
            "pairs: {:?}",
            d.pairs
        );
    }
}
