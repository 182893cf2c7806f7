//! Cycle attribution per loop and hot-loop selection (the HPCToolkit role).

use std::collections::HashMap;
use vectorscope_ir::loops::{LoopForest, LoopId};
use vectorscope_ir::{FuncId, Module, Span};

/// Module-wide identifier of a loop: function plus function-local loop id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopKey {
    /// The containing function.
    pub func: FuncId,
    /// The loop within that function's [`LoopForest`].
    pub loop_id: LoopId,
}

/// Accumulated cycles for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfile {
    /// Which loop.
    pub key: LoopKey,
    /// Function name (for reports).
    pub func_name: String,
    /// Representative source span of the loop header.
    pub span: Span,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Cycles attributed to blocks whose *innermost* loop is this one.
    pub self_cycles: u64,
    /// Self cycles plus all descendants' cycles.
    pub inclusive_cycles: u64,
    /// Number of times the loop was entered from outside.
    pub entries: u64,
    /// `inclusive_cycles` as a percentage of total program cycles.
    pub percent: f64,
}

/// A loop selected by the hot-loop rule.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLoop {
    /// The profile row that qualified.
    pub profile: LoopProfile,
}

/// Cycle accounting per loop, mirroring a sampling profiler's attribution.
///
/// Self-cycles are charged to the innermost natural loop containing the
/// executing block; inclusive cycles roll up through the loop forest.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    self_cycles: HashMap<LoopKey, u64>,
    entries: HashMap<LoopKey, u64>,
    total_cycles: u64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Charges `cycles` to `loop_key` (or only to the program total when the
    /// instruction is outside any loop).
    pub fn charge(&mut self, loop_key: Option<LoopKey>, cycles: u64) {
        self.total_cycles += cycles;
        if let Some(k) = loop_key {
            *self.self_cycles.entry(k).or_insert(0) += cycles;
        }
    }

    /// Records `n` entries into `loop_key` from outside the loop. The VM
    /// accumulates entry counts in flat per-run arrays and flushes them
    /// here when a run ends.
    pub fn add_entries(&mut self, loop_key: LoopKey, n: u64) {
        *self.entries.entry(loop_key).or_insert(0) += n;
    }

    /// Total cycles across the whole run.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Builds per-loop profiles with inclusive cycles and percentages.
    ///
    /// `forests` must map every function of `module` to its loop forest
    /// (index = `FuncId::index()`).
    pub fn profiles(&self, module: &Module, forests: &[LoopForest]) -> Vec<LoopProfile> {
        let mut out = Vec::new();
        for (fi, forest) in forests.iter().enumerate() {
            let func = FuncId(fi as u32);
            let func_ref = module.function(func);
            // Inclusive = self + children (children have larger ids; iterate
            // deepest-first by processing in reverse id order).
            let n = forest.loops().len();
            let mut inclusive: Vec<u64> = (0..n)
                .map(|li| {
                    let key = LoopKey {
                        func,
                        loop_id: LoopId(li as u32),
                    };
                    self.self_cycles.get(&key).copied().unwrap_or(0)
                })
                .collect();
            for li in (0..n).rev() {
                if let Some(parent) = forest.loops()[li].parent {
                    inclusive[parent.index()] += inclusive[li];
                }
            }
            for (li, &incl) in inclusive.iter().enumerate() {
                let loop_id = LoopId(li as u32);
                let key = LoopKey { func, loop_id };
                let span = forest.span_of(func_ref, loop_id);
                let percent = if self.total_cycles > 0 {
                    incl as f64 * 100.0 / self.total_cycles as f64
                } else {
                    0.0
                };
                out.push(LoopProfile {
                    key,
                    func_name: func_ref.name().to_string(),
                    span,
                    depth: forest.loops()[li].depth,
                    self_cycles: self.self_cycles.get(&key).copied().unwrap_or(0),
                    inclusive_cycles: incl,
                    entries: self.entries.get(&key).copied().unwrap_or(0),
                    percent,
                });
            }
        }
        out.sort_by_key(|p| std::cmp::Reverse(p.inclusive_cycles));
        out
    }

    /// Applies the paper's hot-loop selection (§4.1): take every innermost
    /// loop at `threshold_pct` or more of total cycles, and include a parent
    /// loop only when its inclusive percentage exceeds the sum of its
    /// children's percentages by at least 10 percentage points.
    pub fn hot_loops(
        &self,
        module: &Module,
        forests: &[LoopForest],
        threshold_pct: f64,
    ) -> Vec<HotLoop> {
        let profiles = self.profiles(module, forests);
        let by_key: HashMap<LoopKey, &LoopProfile> = profiles.iter().map(|p| (p.key, p)).collect();
        let mut hot = Vec::new();
        for p in &profiles {
            let forest = &forests[p.key.func.index()];
            let l = forest.get(p.key.loop_id);
            let qualifies = if l.is_innermost() {
                p.percent >= threshold_pct
            } else {
                let child_sum: f64 = l
                    .children
                    .iter()
                    .filter_map(|c| {
                        by_key
                            .get(&LoopKey {
                                func: p.key.func,
                                loop_id: *c,
                            })
                            .map(|cp| cp.percent)
                    })
                    .sum();
                p.percent >= threshold_pct && p.percent - child_sum >= 10.0
            };
            if qualifies {
                hot.push(HotLoop { profile: p.clone() });
            }
        }
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut p = Profiler::new();
        let k = LoopKey {
            func: FuncId(0),
            loop_id: LoopId(0),
        };
        p.charge(Some(k), 10);
        p.charge(Some(k), 5);
        p.charge(None, 85);
        assert_eq!(p.total_cycles(), 100);
        assert_eq!(p.self_cycles[&k], 15);
    }

    #[test]
    fn entries_counted() {
        let mut p = Profiler::new();
        let k = LoopKey {
            func: FuncId(0),
            loop_id: LoopId(1),
        };
        p.add_entries(k, 1);
        p.add_entries(k, 2);
        assert_eq!(p.entries[&k], 3);
    }
}
