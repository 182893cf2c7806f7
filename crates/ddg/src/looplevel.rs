//! Larus-style loop-level parallelism (prior work, paper §2.1).
//!
//! This baseline measures parallelism *across* iterations of one loop while
//! keeping each iteration internally sequential: iteration `k` may begin
//! once every earlier iteration it consumes values from has completed
//! (iteration-granularity DOACROSS — a faithful coarse rendering of the
//! staggered schedule in the paper's Fig. 2(b)).
//!
//! The paper's key observation is that this model cannot expose the
//! vectorization in Listing 2: a loop-carried dependence from S2 to S1
//! serializes iterations even though *all instances of S1* (and separately
//! all of S2) are mutually independent. The per-statement analysis in the
//! `vectorscope` core crate recovers that missing parallelism.

use crate::{Ddg, EXTERNAL};
use vectorscope_ir::loops::LoopId;
use vectorscope_ir::{FuncId, Module};
use vectorscope_trace::{EventKind, Trace};

/// Result of the loop-level parallelism analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopLevelAnalysis {
    /// Number of iterations observed in the trace.
    pub iterations: usize,
    /// DOACROSS timestamp per iteration (1-based).
    pub iter_timestamps: Vec<u64>,
    /// Iteration index of every DDG node (`u32::MAX` before the first
    /// iteration marker — possible only for malformed traces).
    pub node_iteration: Vec<u32>,
}

impl LoopLevelAnalysis {
    /// The schedule length: iterations on the longest dependence chain.
    pub fn schedule_length(&self) -> u64 {
        self.iter_timestamps.iter().copied().max().unwrap_or(0)
    }

    /// Average loop-level parallelism: iterations / schedule length.
    pub fn average_parallelism(&self) -> f64 {
        let len = self.schedule_length();
        if len == 0 {
            return 0.0;
        }
        self.iterations as f64 / len as f64
    }

    /// Iteration counts per timestamp (the "partitions" of Fig. 2(b)).
    pub fn partitions(&self) -> Vec<u64> {
        let len = self.schedule_length() as usize;
        let mut hist = vec![0u64; len];
        for &t in &self.iter_timestamps {
            hist[(t - 1) as usize] += 1;
        }
        hist
    }
}

/// Runs the loop-level analysis for the loop `(func, loop_id)` over a trace
/// captured from exactly one instance of that loop.
///
/// Iteration boundaries are detected by executions of the loop header's
/// first instruction in the activation where capture started. Loops whose
/// header contains no instructions (e.g. `while (true)`) cannot be
/// segmented; they report a single iteration.
pub fn analyze(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    func: FuncId,
    loop_id: LoopId,
) -> LoopLevelAnalysis {
    let function = module.function(func);
    let forest = vectorscope_ir::loops::LoopForest::new(function);
    let header = forest.get(loop_id).header;
    let header_block = function.block(header);
    let header_first = header_block.insts.first().map(|i| i.id);

    let root_act = trace.events().first().map(|e| e.activation);

    let mut node_iteration = Vec::with_capacity(ddg.len());
    let mut has_body: Vec<bool> = Vec::new();
    let mut iter: i64 = -1;
    for event in trace {
        if Some(event.inst) == header_first && Some(event.activation) == root_act {
            iter += 1;
            has_body.push(false);
        }
        // An event outside the header block (or in a callee activation)
        // means the segment did real body work — the final header
        // execution, which only evaluates the exit condition, has none.
        if iter >= 0 {
            let in_header = Some(event.activation) == root_act
                && module
                    .inst_loc(event.inst)
                    .map(|loc| loc.func == func && loc.block == header)
                    .unwrap_or(false);
            if !in_header {
                has_body[iter as usize] = true;
            }
        }
        // Mirror the builder: only Plain events with a known (non-terminator)
        // instruction create nodes.
        if matches!(event.kind, EventKind::Plain { .. }) && module.inst(event.inst).is_some() {
            node_iteration.push(if iter < 0 { u32::MAX } else { iter as u32 });
        }
    }
    debug_assert_eq!(node_iteration.len(), ddg.len());
    // Drop trailing condition-only segments (the header execution that
    // exits the loop).
    let mut iterations = (iter + 1).max(0) as usize;
    while iterations > 0 && !has_body[iterations - 1] {
        iterations -= 1;
    }
    for ni in &mut node_iteration {
        if *ni != u32::MAX && *ni as usize >= iterations {
            *ni = u32::MAX;
        }
    }

    // DOACROSS timestamps: an iteration starts after every earlier
    // iteration that feeds it.
    let mut iter_timestamps = vec![1u64; iterations];
    for (&ni, row) in node_iteration.iter().zip(ddg.operand_rows()) {
        if ni == u32::MAX {
            continue;
        }
        for &p in row {
            // Only data flow (memory accesses and floating-point values)
            // orders iterations; integer loop-control recurrences (i = i+1)
            // are part of loop control in Larus's model.
            if p == EXTERNAL || !ddg.is_data_node(p) {
                continue;
            }
            let pi = node_iteration[p as usize];
            if pi != u32::MAX && pi < ni {
                let need = iter_timestamps[pi as usize] + 1;
                if iter_timestamps[ni as usize] < need {
                    iter_timestamps[ni as usize] = need;
                }
            }
        }
    }
    // Monotonicity cleanup: the DOACROSS start time of an iteration also
    // bounds later iterations it feeds; the loop above already handles all
    // direct dependences and transitive ones resolve because nodes are in
    // execution order.

    LoopLevelAnalysis {
        iterations,
        iter_timestamps,
        node_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn loop_analysis(src: &str) -> LoopLevelAnalysis {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let main = module.lookup_function("main").unwrap();
        let probe = Vm::new(&module);
        let (loop_id, _) = probe.forests()[main.index()]
            .iter()
            .find(|(_, l)| l.is_innermost())
            .expect("loop");
        drop(probe);
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Loop {
                func: main,
                loop_id,
                instance: 0,
            },
            "loop",
        );
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        let ddg = Ddg::build(&module, &trace);
        analyze(&module, &trace, &ddg, main, loop_id)
    }

    #[test]
    fn independent_loop_is_fully_parallel() {
        let a = loop_analysis(
            r#"
            const int N = 16;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#,
        );
        assert_eq!(a.iterations, 16);
        assert_eq!(a.schedule_length(), 1);
        assert_eq!(a.average_parallelism(), 16.0);
    }

    #[test]
    fn recurrence_serializes_iterations() {
        let a = loop_analysis(
            r#"
            const int N = 16;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
            }
        "#,
        );
        assert_eq!(a.iterations, 15);
        assert_eq!(a.schedule_length(), 15);
        assert!((a.average_parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_listing2_loop_level_misses_parallelism() {
        // Listing 2: A[i] = 2*B[i-1]; B[i] = 0.5*C[i]. Loop-carried dep
        // S2 -> S1 gives loop-level parallelism ~2 (staircase), while the
        // per-statement analysis finds full parallelism for each statement.
        let a = loop_analysis(
            r#"
            const int N = 16;
            double a[N]; double b[N]; double c[N];
            void main() {
                for (int i = 1; i < N; i++) {
                    a[i] = 2.0 * b[i-1];
                    b[i] = 0.5 * c[i];
                }
            }
        "#,
        );
        assert_eq!(a.iterations, 15);
        // Each iteration depends on the previous one (B written there).
        assert_eq!(a.schedule_length(), 15);
    }

    #[test]
    fn partitions_sum_to_iterations() {
        let a = loop_analysis(
            r#"
            const int N = 10;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] * 3.0; }
            }
        "#,
        );
        assert_eq!(a.partitions().iter().sum::<u64>() as usize, a.iterations);
    }
}
