//! Reduction-chain detection — the extension the paper proposes in §3/§4.1.
//!
//! Instances of a statement like `s += a[i]` form a timestamp chain in the
//! DDG, so the base analysis reports them as non-vectorizable, while real
//! compilers (icc among them) vectorize reductions by accumulating into a
//! vector register. The paper explicitly suggests identifying and
//! removing "dependence edges that are due to updates of reduction
//! variables".
//!
//! [`reduction_chains`] detects, per static candidate instruction `s`,
//! whether consecutive instances of `s` are linked purely through register
//! moves (the value never leaves registers between one instance and the
//! next — the signature of an accumulator). For detected reductions it
//! returns the set of *chain nodes* whose outgoing dependences
//! [`crate::partition()`] can then ignore, which collapses the chain into one
//! parallel partition.

use std::collections::{HashMap, HashSet};
use vectorscope_ddg::Ddg;
use vectorscope_ir::{InstId, InstKind, Module};

/// A detected reduction: the static instruction and its chain nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionChain {
    /// The accumulating candidate instruction.
    pub inst: InstId,
    /// Nodes participating in the accumulator chain (instances of `inst`
    /// plus the register moves linking them). Pass this set to
    /// [`crate::partition()`]'s `ignore_self_deps` to break the chain.
    pub chain_nodes: HashSet<u32>,
}

/// Whether `start`'s value reaches an instance of `inst` through register
/// moves only (identity casts, the frontend's `copy`), collecting that
/// instance and the moves on the way into `collect`.
///
/// A move has one operand, so each operand of `start` leads back along a
/// single chain of moves; the walk follows it in a loop, however long.
fn reaches_through_moves(
    module: &Module,
    ddg: &Ddg,
    start: u32,
    inst: InstId,
    collect: &mut HashSet<u32>,
) -> bool {
    let is_move = |n: u32| {
        module
            .inst(ddg.inst(n))
            .is_some_and(|i| matches!(&i.kind, InstKind::Cast { to, from, .. } if to == from))
    };
    let mut found = false;
    let mut moves = Vec::new();
    for mut w in ddg.preds(start) {
        moves.clear();
        loop {
            if ddg.inst(w) == inst && ddg.is_candidate(w) {
                collect.insert(w);
                collect.extend(&moves);
                found = true;
                break;
            }
            if !is_move(w) {
                break;
            }
            moves.push(w);
            match ddg.preds(w).next() {
                Some(p) => w = p,
                None => break,
            }
        }
    }
    found
}

/// Detects reduction chains among the candidate instructions of `ddg`.
///
/// A static instruction `s` is classified as a reduction when **every**
/// instance after the first receives the previous instance's value through
/// register moves alone (no intervening memory traffic), which is exactly
/// the `acc = acc ⊕ x` pattern.
///
/// # Example
///
/// ```
/// use vectorscope_interp::{Vm, CaptureSpec};
/// use vectorscope_ddg::Ddg;
/// use std::collections::HashSet;
///
/// let src = r#"
///     const int N = 16;
///     double a[N];
///     double s = 0.0;
///     void main() {
///         for (int i = 0; i < N; i++) { a[i] = 1.0; }
///         double acc = 0.0;
///         for (int i = 0; i < N; i++) { acc += a[i]; }
///         s = acc;
///     }
/// "#;
/// let module = vectorscope_frontend::compile("red.kern", src).unwrap();
/// let mut vm = Vm::new(&module);
/// vm.set_capture(CaptureSpec::Program, "all");
/// vm.run_main().unwrap();
/// let ddg = Ddg::build(&module, &vm.take_trace().unwrap());
///
/// let chains = vectorscope::reduction::reduction_chains(&module, &ddg);
/// assert_eq!(chains.len(), 1);
///
/// // Breaking the chain exposes the full parallelism.
/// let chain = &chains[0];
/// let parts = vectorscope::partition(&ddg, chain.inst, &chain.chain_nodes);
/// assert_eq!(parts.groups.len(), 1);
/// assert_eq!(parts.groups[0].len(), 16);
///
/// // Without breaking it, the chain serializes.
/// let parts = vectorscope::partition(&ddg, chain.inst, &HashSet::new());
/// assert_eq!(parts.groups.len(), 16);
/// ```
pub fn reduction_chains(module: &Module, ddg: &Ddg) -> Vec<ReductionChain> {
    // Group candidate instances per static instruction.
    let mut instances: HashMap<InstId, Vec<u32>> = HashMap::new();
    for n in ddg.candidate_nodes() {
        instances.entry(ddg.inst(n)).or_default().push(n);
    }
    let mut out = Vec::new();
    for (inst, nodes) in instances {
        if nodes.len() < 2 {
            continue;
        }
        let mut chain_nodes: HashSet<u32> = HashSet::new();
        let mut all_linked = true;
        for &n in &nodes[1..] {
            let mut collected = HashSet::new();
            if reaches_through_moves(module, ddg, n, inst, &mut collected) {
                chain_nodes.extend(collected);
            } else {
                all_linked = false;
                break;
            }
        }
        if all_linked {
            // The chain includes the instances themselves (their outgoing
            // self-dependences are what partitioning must ignore).
            chain_nodes.extend(nodes.iter().copied());
            out.push(ReductionChain { inst, chain_nodes });
        }
    }
    out.sort_by_key(|c| c.inst);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn program_ddg(src: &str) -> (Module, Ddg) {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm); // the VM borrows `module`, which moves below
        let ddg = Ddg::build(&module, &trace);
        (module, ddg)
    }

    #[test]
    fn scalar_accumulator_detected() {
        let (module, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N]; double s = 0.0;
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 2.0; }
                double acc = 0.0;
                for (int i = 0; i < N; i++) { acc += a[i]; }
                s = acc;
            }
        "#,
        );
        let chains = reduction_chains(&module, &ddg);
        assert_eq!(chains.len(), 1);
    }

    #[test]
    fn memory_recurrence_is_not_a_reduction() {
        // a[i] = 2*a[i-1] chains through MEMORY, not an accumulator.
        let (module, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
            }
        "#,
        );
        assert!(reduction_chains(&module, &ddg).is_empty());
    }

    #[test]
    fn independent_statement_is_not_a_reduction() {
        let (module, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#,
        );
        assert!(reduction_chains(&module, &ddg).is_empty());
    }

    #[test]
    fn product_reduction_detected() {
        let (module, ddg) = program_ddg(
            r#"
            const int N = 6;
            double a[N]; double p = 0.0;
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 1.5; }
                double prod = 1.0;
                for (int i = 0; i < N; i++) { prod = prod * a[i]; }
                p = prod;
            }
        "#,
        );
        let chains = reduction_chains(&module, &ddg);
        assert_eq!(chains.len(), 1);
        // Breaking it yields one full partition.
        let c = &chains[0];
        let parts = crate::partition(&ddg, c.inst, &c.chain_nodes);
        assert_eq!(parts.groups.len(), 1);
        assert_eq!(parts.groups[0].len(), 6);
    }

    #[test]
    fn long_move_chains_do_not_overflow_the_stack() {
        // 50,000 register moves separate the two instances of `acc +=`:
        // a walk that recursed once per move overflowed a 2 MiB stack.
        let src = r#"
            const int N = 2;
            double a[N]; double s = 0.0;
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 1.0; }
                double acc = 0.0;
                for (int i = 0; i < N; i++) {
                    acc += a[i];
                    for (int j = 0; j < 50000; j++) { acc = acc; }
                }
                s = acc;
            }
        "#;
        let chains = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let module = vectorscope_frontend::compile("moves.kern", src).unwrap();
                let options = crate::AnalysisOptions {
                    break_reductions: true,
                    ..crate::AnalysisOptions::default()
                };
                let analysis = crate::analyze_program(&module, &options).unwrap();
                reduction_chains(&module, &analysis.ddg)
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(chains.len(), 1);
        // Both instances plus every move between them.
        assert!(chains[0].chain_nodes.len() > 50_000);
    }
}
