//! Regeneration of Figures 1 and 2.

use std::collections::HashSet;
use vectorscope::{partition, program_ddg, AnalysisOptions};
use vectorscope_ddg::{kumar, looplevel, Ddg};
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_ir::InstId;

/// Compiles a source and builds its whole-program DDG, returning both.
fn trace_program(name: &str, src: &str) -> (vectorscope_ir::Module, Ddg) {
    let module = vectorscope_frontend::compile(name, src).expect("figure source compiles");
    let ddg = program_ddg(&module, &AnalysisOptions::default()).expect("figure program runs");
    (module, ddg)
}

/// Candidate instructions sorted by dynamic instance count (descending).
fn candidates_by_count(ddg: &Ddg) -> Vec<(InstId, usize)> {
    let mut v: Vec<(InstId, usize)> = ddg
        .candidate_insts()
        .into_iter()
        .map(|i| {
            (
                i,
                ddg.candidate_nodes().filter(|&n| ddg.inst(n) == i).count(),
            )
        })
        .collect();
    v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    v
}

/// Figure 1: the paper's Example 1 (Listing 1).
///
/// (a) Kumar whole-DAG timestamps interleave S1 and S2 instances, so the
/// timestamp classes do not expose S2's vectorizable groups; (b) the
/// per-statement analysis puts all N instances of S2 with the same `j` in
/// one partition.
pub fn fig1() -> String {
    let n = 8usize;
    let src = format!(
        r#"
const int N = {n};
double a[N];
double b[N][N];
void main() {{
    a[0] = 1.0;
    for (int j = 0; j < N; j++) {{ b[0][j] = (double)(j + 1); }}
    for (int i = 1; i < N; i++) {{ a[i] = 2.0 * a[i-1]; }}        // S1
    for (int i = 0; i < N; i++)
        for (int j = 1; j < N; j++)
            b[j][i] = b[j-1][i] * a[i];                           // S2
}}
"#
    );
    let (_, ddg) = trace_program("listing1.kern", &src);
    let mut out = String::new();
    out.push_str("== Figure 1: Example 1 (Listing 1) ==\n");

    // (a) Kumar analysis.
    let k = kumar::analyze(&ddg);
    let ch = kumar::candidate_histogram(&ddg, &k);
    out.push_str(&format!(
        "(a) Kumar whole-DAG analysis: critical path = {}, avg parallelism = {:.2}\n",
        k.critical_path,
        k.average_parallelism()
    ));
    out.push_str("    FP ops per timestamp class: ");
    let nonzero: Vec<String> = ch
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(t, c)| format!("t{}={c}", t + 1))
        .collect();
    out.push_str(&nonzero.join(" "));
    out.push('\n');

    // (b) Per-statement partitions (Algorithm 1).
    let cands = candidates_by_count(&ddg);
    let (s2, s2_count) = cands[0]; // S2 has N*(N-1) instances
    let (s1, s1_count) = cands[1];
    let p2 = partition(&ddg, s2, &HashSet::new());
    let p1 = partition(&ddg, s1, &HashSet::new());
    out.push_str(&format!(
        "(b) Per-statement timestamps:\n    S2 ({} instances): {} partitions, sizes {:?}\n",
        s2_count,
        p2.groups.len(),
        p2.groups.iter().map(Vec::len).collect::<Vec<_>>()
    ));
    out.push_str(&format!(
        "    S1 ({} instances): {} partitions (the serial chain), avg size {:.2}\n",
        s1_count,
        p1.groups.len(),
        p1.average_size()
    ));
    out.push_str(&format!(
        "Paper's claim: S2 forms N-1 = {} partitions of size N = {n}: {}\n",
        n - 1,
        if p2.groups.len() == n - 1 && p2.groups.iter().all(|g| g.len() == n) {
            "REPRODUCED"
        } else {
            "MISMATCH"
        }
    ));
    out
}

/// Figure 2: the paper's Example 2 (Listing 2).
///
/// Loop-level (Larus) analysis sees a serial staircase because of the
/// loop-carried S2→S1 dependence; the per-statement analysis shows both
/// statements fully parallel (Fig. 2(c)).
pub fn fig2() -> String {
    let n = 8usize;
    let src = format!(
        r#"
const int N = {n};
double a[N];
double b[N];
double c[N];
void main() {{
    for (int i = 0; i < N; i++) {{ c[i] = (double)(i + 1) * 0.5; }}
    b[0] = 1.0;
    for (int i = 1; i < N; i++) {{
        a[i] = 2.0 * b[i-1];     // S1
        b[i] = 0.5 * c[i];       // S2
    }}
}}
"#
    );
    let module = vectorscope_frontend::compile("listing2.kern", &src).expect("compiles");
    let main = module.lookup_function("main").unwrap();
    // The S1/S2 loop is the textually later of main's two loops: pick the
    // one whose header has the larger source line.
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
    let loop_id = forest
        .iter()
        .map(|(id, _)| id)
        .max_by_key(|&id| forest.span_of(module.function(main), id).line)
        .expect("loops exist");

    let mut vm = Vm::new(&module);
    vm.set_capture(
        CaptureSpec::Loop {
            func: main,
            loop_id,
            instance: 0,
        },
        "listing2-loop",
    );
    vm.run_main().expect("runs");
    let trace = vm.take_trace().expect("captured");
    let ddg = Ddg::build(&module, &trace);

    let mut out = String::new();
    out.push_str("== Figure 2: Example 2 (Listing 2) ==\n");

    let ll = looplevel::analyze(&module, &trace, &ddg, main, loop_id);
    out.push_str(&format!(
        "(b) Loop-level (Larus) analysis: {} iterations, schedule length {}, avg parallelism {:.2}\n",
        ll.iterations,
        ll.schedule_length(),
        ll.average_parallelism()
    ));

    let cands = candidates_by_count(&ddg);
    out.push_str("(c) Per-statement partitions:\n");
    let mut reproduced = true;
    for (inst, count) in &cands {
        let p = partition(&ddg, *inst, &HashSet::new());
        out.push_str(&format!(
            "    statement {inst}: {} instances in {} partition(s)\n",
            count,
            p.groups.len()
        ));
        if p.groups.len() != 1 {
            reproduced = false;
        }
    }
    out.push_str(&format!(
        "Paper's claim: each statement is one full partition while loop-level \
         analysis serializes ({} iterations deep): {}\n",
        ll.schedule_length(),
        if reproduced && ll.schedule_length() as usize == ll.iterations {
            "REPRODUCED"
        } else {
            "MISMATCH"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces() {
        let text = fig1();
        assert!(text.contains("REPRODUCED"), "{text}");
    }

    #[test]
    fn fig2_reproduces() {
        let text = fig2();
        assert!(text.contains("REPRODUCED"), "{text}");
    }
}
