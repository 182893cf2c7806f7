//! Harness regenerating the paper's evaluation tables and figures.
//!
//! Each public function produces the text of one table/figure of the PLDI
//! 2012 paper, computed from scratch on the in-repo kernel suite. The
//! `cargo bench` targets (`table1` ... `table4`, `fig1`, `fig2`) print
//! them; the `gates` target checks the analyzer's two timing budgets.
//! `EXPERIMENTS.md` records how each regenerated result compares with the
//! published one.

#![deny(missing_docs)]

pub mod figures;
pub mod speedup;
pub mod tables;

use std::collections::HashSet;
use vectorscope_ir::{FuncId, InstKind, Module};

/// Functions reachable from the function named `root` (inclusive), via
/// direct calls. Used to restrict cost-model measurements to the kernel
/// region (excluding init/canonicalization code), the way the paper times
/// "the total time spent in the loop".
pub fn reachable_funcs(module: &Module, root: &str) -> HashSet<FuncId> {
    let mut out = HashSet::new();
    let Some(start) = module.lookup_function(root) else {
        return out;
    };
    let mut stack = vec![start];
    out.insert(start);
    while let Some(f) = stack.pop() {
        for block in module.function(f).blocks() {
            for inst in &block.insts {
                if let InstKind::Call { callee, .. } = &inst.kind {
                    if out.insert(*callee) {
                        stack.push(*callee);
                    }
                }
            }
        }
    }
    out
}

/// Zeroes dynamic instruction counts outside the given function set,
/// returning the filtered copy.
pub fn restrict_counts(module: &Module, counts: &[u64], funcs: &HashSet<FuncId>) -> Vec<u64> {
    let mut out = vec![0u64; counts.len()];
    for (fi, function) in module.functions().iter().enumerate() {
        if !funcs.contains(&FuncId(fi as u32)) {
            continue;
        }
        for block in function.blocks() {
            for inst in &block.insts {
                let i = inst.id.index();
                if i < counts.len() {
                    out[i] = counts[i];
                }
            }
            if let Some(t) = &block.term {
                let i = t.id.index();
                if i < counts.len() {
                    out[i] = counts[i];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_follows_calls() {
        let src = r#"
            double helper(double x) { return x + 1.0; }
            double unused(double x) { return x * 3.0; }
            void kernel() { double t = helper(1.0); }
            void main() { kernel(); }
        "#;
        let module = vectorscope_frontend::compile("r.kern", src).unwrap();
        let set = reachable_funcs(&module, "kernel");
        assert!(set.contains(&module.lookup_function("kernel").unwrap()));
        assert!(set.contains(&module.lookup_function("helper").unwrap()));
        assert!(!set.contains(&module.lookup_function("unused").unwrap()));
        assert!(!set.contains(&module.lookup_function("main").unwrap()));
    }

    #[test]
    fn restriction_zeroes_other_functions() {
        let src = r#"
            double a = 0.0;
            void kernel() { a = a + 1.0; }
            void main() { a = 2.0; kernel(); }
        "#;
        let module = vectorscope_frontend::compile("r2.kern", src).unwrap();
        let mut vm = vectorscope_interp::Vm::new(&module);
        vm.run_main().unwrap();
        let set = reachable_funcs(&module, "kernel");
        let filtered = restrict_counts(&module, vm.inst_counts(), &set);
        let total_all: u64 = vm.inst_counts().iter().sum();
        let total_kernel: u64 = filtered.iter().sum();
        assert!(total_kernel > 0);
        assert!(total_kernel < total_all);
    }
}
