//! Cross-crate integration tests of the full pipeline:
//! source → IR → VM/profile → sub-trace → DDG → partitions → metrics.

use std::collections::HashSet;
use vectorscope::metrics::{analyze_ddg, MetricOptions};
use vectorscope::{
    analyze_loop, analyze_program, analyze_source, partition, AnalysisOptions, InstancePick,
    LoopReport,
};
use vectorscope_ddg::{CandidatePolicy, Ddg};
use vectorscope_interp::{CaptureSpec, Vm};

/// Shared helper: whole-program DDG of a source string.
fn program_ddg(src: &str) -> (vectorscope_ir::Module, Ddg) {
    let module = vectorscope_frontend::compile("pipe.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "all");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    drop(vm); // the VM's capture state borrows `module`, which moves below
    let ddg = Ddg::build(&module, &trace);
    (module, ddg)
}

#[test]
fn metrics_denominators_are_consistent() {
    let suite = analyze_source(
        "m.kern",
        r#"
        const int N = 100;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i; }
            for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0 + 1.0; }
        }
    "#,
        &AnalysisOptions::default(),
    )
    .unwrap();
    for row in &suite.loops {
        let m = &row.metrics;
        // Per-inst instance counts sum to the loop total.
        let sum: u64 = row.per_inst.iter().map(|x| x.instances).sum();
        assert_eq!(sum, m.total_ops);
        // Percentages are within [0, 100] and unit + singleton <= 100.
        assert!(m.pct_unit_vec_ops >= 0.0 && m.pct_unit_vec_ops <= 100.0);
        assert!(m.pct_non_unit_vec_ops >= 0.0 && m.pct_non_unit_vec_ops <= 100.0);
        assert!(m.pct_unit_vec_ops + m.pct_non_unit_vec_ops <= 100.0 + 1e-9);
        // Average concurrency is at least 1 when ops exist.
        if m.total_ops > 0 {
            assert!(m.avg_concurrency >= 1.0);
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    let src = r#"
        const int N = 64;
        double a[N][N];
        void main() {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = (double)(i + j);
            for (int i = 1; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = a[i-1][j] * 0.5 + a[i][j];
        }
    "#;
    let one = analyze_source("d.kern", src, &AnalysisOptions::default()).unwrap();
    let two = analyze_source("d.kern", src, &AnalysisOptions::default()).unwrap();
    assert_eq!(one.loops.len(), two.loops.len());
    for (a, b) in one.loops.iter().zip(&two.loops) {
        assert_eq!(a, b, "reports differ between runs");
    }
}

#[test]
fn partitions_cover_every_candidate_exactly_once() {
    let (_, ddg) = program_ddg(
        r#"
        const int N = 24;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i; }
            for (int i = 2; i < N; i++) { a[i] = a[i-2] + b[i]; }
        }
    "#,
    );
    for inst in ddg.candidate_insts() {
        let p = partition(&ddg, inst, &HashSet::new());
        let mut seen = HashSet::new();
        for g in &p.groups {
            for &n in g {
                assert_eq!(ddg.inst(n), inst);
                assert!(seen.insert(n), "node {n} appears in two partitions");
            }
        }
        let total = ddg
            .candidate_nodes()
            .filter(|&n| ddg.inst(n) == inst)
            .count();
        assert_eq!(seen.len(), total);
    }
}

#[test]
fn interleaved_distance2_recurrence_gets_pairs() {
    // a[i] = a[i-2] + b[i]: two independent chains (even/odd); each
    // timestamp class holds exactly 2 instances.
    let (_, ddg) = program_ddg(
        r#"
        const int N = 22;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = 1.0; }
            for (int i = 2; i < N; i++) { a[i] = a[i-2] + b[i]; }
        }
    "#,
    );
    let insts = ddg.candidate_insts();
    let p = partition(&ddg, insts[0], &HashSet::new());
    assert_eq!(p.groups.len(), 10);
    assert!(p.groups.iter().all(|g| g.len() == 2), "{:?}", p.groups);
}

#[test]
fn subtrace_equals_paper_unit_of_analysis() {
    // The loop sub-trace must contain exactly the loop's own work: for a
    // 3-instance loop nest, each inner instance has N candidate ops.
    let src = r#"
        const int R = 3;
        const int N = 20;
        double a[N];
        void main() {
            for (int r = 0; r < R; r++)
                for (int i = 0; i < N; i++)
                    a[i] = a[i] + 1.0;
        }
    "#;
    let module = vectorscope_frontend::compile("s.kern", src).unwrap();
    let main_fn = module.lookup_function("main").unwrap();
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(main_fn));
    let (inner, _) = forest.iter().find(|(_, l)| l.is_innermost()).unwrap();
    for instance in 0..3u64 {
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Loop {
                func: main_fn,
                loop_id: inner,
                instance,
            },
            "inner",
        );
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        let ddg = Ddg::build(&module, &trace);
        assert_eq!(ddg.candidate_nodes().count(), 20, "instance {instance}");
    }
}

#[test]
fn instance_pick_index_vs_representative() {
    // A loop whose first instance does no FP work: Representative sampling
    // must find a working instance, Index(0) reports none.
    let src = r#"
        const int N = 16;
        double a[N];
        int gate = 0;
        void inner(int on) {
            for (int i = 0; i < N; i++) {
                if (on == 1) { a[i] = a[i] + 1.0; }
            }
        }
        void main() {
            inner(0);
            inner(1);
            inner(1);
            inner(1);
        }
    "#;
    let module = vectorscope_frontend::compile("pick.kern", src).unwrap();
    let inner_fn = module.lookup_function("inner").unwrap();
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(inner_fn));
    let (loop_id, _) = forest.iter().next().unwrap();

    let first = vectorscope::analyze_loop(
        &module,
        inner_fn,
        loop_id,
        &AnalysisOptions {
            loop_instance: InstancePick::Index(0),
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(first.report.metrics.total_ops, 0);

    let representative = vectorscope::analyze_loop(
        &module,
        inner_fn,
        loop_id,
        &AnalysisOptions {
            loop_instance: InstancePick::Representative(4),
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(representative.report.metrics.total_ops, 16);
}

#[test]
fn hot_loops_respect_threshold() {
    let src = r#"
        const int N = 300;
        double a[N];
        double warm = 0.0;
        void main() {
            // One dominant loop and one tiny one.
            for (int i = 0; i < N; i++) { a[i] = a[i] * 1.5 + 0.25; }
            for (int i = 0; i < 3; i++) { warm = warm + a[i]; }
        }
    "#;
    let strict = analyze_source(
        "h.kern",
        src,
        &AnalysisOptions {
            hot_threshold_pct: 50.0,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert_eq!(strict.loops.len(), 1);
    let lax = analyze_source(
        "h.kern",
        src,
        &AnalysisOptions {
            hot_threshold_pct: 0.5,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert!(lax.loops.len() >= 2);
    for w in lax.loops.windows(2) {
        assert!(
            w[0].percent_cycles >= w[1].percent_cycles,
            "rows not sorted"
        );
    }
}

#[test]
fn trace_file_roundtrip_preserves_analysis() {
    let src = r#"
        const int N = 32;
        double a[N];
        void main() {
            for (int i = 0; i < N; i++) { a[i] = a[i] + 2.0; }
        }
    "#;
    let module = vectorscope_frontend::compile("rt.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "rt");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();

    let bytes = trace.to_bytes();
    let reloaded = vectorscope_trace::Trace::from_bytes(&bytes).unwrap();

    let d1 = Ddg::build(&module, &trace);
    let d2 = Ddg::build(&module, &reloaded);
    assert_eq!(d1.len(), d2.len());
    let i1 = d1.candidate_insts();
    let p1 = partition(&d1, i1[0], &HashSet::new());
    let p2 = partition(&d2, i1[0], &HashSet::new());
    assert_eq!(p1, p2);
}

#[test]
fn moderate_scale_program_analyzes_in_bounds() {
    // A ~300k-event whole-program trace: the pipeline must stay linear.
    let src = r#"
        const int N = 64;
        const int T = 2;
        double a[N][N];
        void main() {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = (double)((i * 13 + j * 7) % 17) * 0.05;
            for (int t = 0; t < T; t++)
                for (int i = 1; i < N - 1; i++)
                    for (int j = 1; j < N - 1; j++)
                        a[i][j] = (a[i-1][j] + a[i][j-1] + a[i][j+1] + a[i+1][j]) * 0.25;
        }
    "#;
    let module = vectorscope_frontend::compile("big.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "big");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    assert!(trace.len() > 200_000, "trace has {} events", trace.len());
    let ddg = Ddg::build(&module, &trace);
    assert_eq!(
        ddg.len(),
        trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, vectorscope_trace::EventKind::Plain { .. }))
            .count()
    );
    // Analyze every candidate; partitions must cover all instances.
    for inst in ddg.candidate_insts() {
        let p = partition(&ddg, inst, &HashSet::new());
        assert!(p.num_instances() > 0);
    }
}

/// `analyze_program` builds its DDG from the VM's event sink while the
/// program runs; on every bundled kernel that graph, and the analysis over
/// it, must equal the graph built from the buffered trace of the same run.
#[test]
fn sink_built_program_ddg_equals_trace_built() {
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, &name);
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm);
        let from_trace =
            Ddg::try_build_with_policy(&module, &trace, CandidatePolicy::FloatArith).unwrap();

        let program = analyze_program(&module, &options).unwrap();
        assert_eq!(program.ddg.len(), from_trace.len(), "{name}: node count");
        for n in 0..from_trace.len() as u32 {
            assert_eq!(program.ddg.inst(n), from_trace.inst(n), "{name}: node {n}");
            assert_eq!(program.ddg.addr(n), from_trace.addr(n), "{name}: node {n}");
            assert_eq!(
                program.ddg.operand_writers(n),
                from_trace.operand_writers(n),
                "{name}: node {n}"
            );
        }
        // Node classes and element sizes are private: whole-graph equality
        // covers them.
        assert!(program.ddg == from_trace, "{name}: graphs differ");

        let (metrics, per_inst) = analyze_ddg(&module, &from_trace, &MetricOptions::default());
        assert_eq!(program.metrics, metrics, "{name}: metrics");
        assert_eq!(program.per_inst, per_inst, "{name}: per-inst rows");
    }
}

/// The graph of each sampled instance of a hot loop, re-captured with
/// buffered captures (the default `Representative(4)` sampling), in
/// instance order; `None` for an instance that emitted no event.
fn sampled_graphs(module: &vectorscope_ir::Module, row: &LoopReport) -> Vec<Option<Ddg>> {
    let mut vm = Vm::new(module);
    vm.run_main().unwrap();
    let entries = vm
        .profiler()
        .profiles(module, vm.forests())
        .into_iter()
        .find(|p| p.key.func == row.func && p.key.loop_id == row.loop_id)
        .map(|p| p.entries)
        .expect("a hot loop has a profile row");
    let mut instances: Vec<u64> = (0..4).map(|s| (s * entries / 4).min(entries - 1)).collect();
    instances.dedup();
    let mut cap = Vm::new(module);
    for &instance in &instances {
        let spec = CaptureSpec::Loop {
            func: row.func,
            loop_id: row.loop_id,
            instance,
        };
        cap.add_capture(spec, &row.location());
    }
    cap.run_main().unwrap();
    cap.take_traces()
        .iter()
        .map(|trace| {
            (!trace.is_empty()).then(|| {
                Ddg::try_build_with_policy(module, trace, CandidatePolicy::FloatArith).unwrap()
            })
        })
        .collect()
}

/// The sampled graph with the most candidate nodes, ties to the earliest.
fn largest(graphs: Vec<Option<Ddg>>) -> Ddg {
    let mut best: Option<Ddg> = None;
    for ddg in graphs.into_iter().flatten() {
        let candidates = ddg.candidate_nodes().count();
        if best
            .as_ref()
            .is_none_or(|b| candidates > b.candidate_nodes().count())
        {
            best = Some(ddg);
        }
    }
    best.expect("a sampled instance ran")
}

/// Hot loops keep one representative instance: on every bundled kernel's
/// hot loops, `analyze_loop`'s graph is the trace-built graph of the
/// sampled instance with the most candidate nodes (ties to the earliest),
/// and its row is the analysis of that graph.
#[test]
fn hot_loop_ddg_is_the_largest_sampled_instance() {
    let options = AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    };
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let suite = analyze_source(&name, &kernel.source, &options).unwrap();
        for row in &suite.loops {
            let want = largest(sampled_graphs(&suite.module, row));
            let got = analyze_loop(&suite.module, row.func, row.loop_id, &options).unwrap();
            let at = row.location();
            assert!(got.ddg == want, "{name} {at}: representative graph");
            assert_eq!(got.report, *row, "{name} {at}: row");
            let (metrics, per_inst) = analyze_ddg(&suite.module, &want, &MetricOptions::default());
            assert_eq!(row.metrics, metrics, "{name} {at}: metrics");
            assert_eq!(row.per_inst, per_inst, "{name} {at}: per-inst rows");
            assert_eq!(row.ddg_nodes, want.len(), "{name} {at}: nodes");
        }
    }
}

/// A triangular loop whose sampled instances differ in candidate count
/// takes its row from the one with the most candidates, which here is
/// neither the first, the last nor the one with the most nodes.
#[test]
fn triangular_loop_row_comes_from_its_largest_sampled_instance() {
    // Inner instance `i` runs `i` iterations, min(i, N - i) of them with a
    // candidate op and the rest with integer work. Sampling 4 of the 16
    // instances takes 0, 4, 8 and 12: 0, 4, 8 and 4 candidates, and
    // instance 12 has the most nodes.
    let src = r#"
        const int N = 16;
        double a[N];
        int k = 0;
        void main() {
            for (int i = 0; i < N; i++) {
                for (int j = 0; j < i; j++) {
                    if (j < N - i) { a[j] = a[j] + 1.0; } else { k = k + j * 3; }
                }
            }
        }
    "#;
    let module = vectorscope_frontend::compile("tri.kern", src).unwrap();
    let main = module.lookup_function("main").unwrap();
    let forest = vectorscope_ir::loops::LoopForest::new(module.function(main));
    let (inner, _) = forest.iter().find(|(_, l)| l.is_innermost()).unwrap();
    let options = AnalysisOptions::default();
    let got = analyze_loop(&module, main, inner, &options).unwrap();

    let graphs: Vec<Ddg> = sampled_graphs(&module, &got.report)
        .into_iter()
        .map(|g| g.expect("every sampled instance ran"))
        .collect();
    let sizes: Vec<usize> = graphs.iter().map(|g| g.candidate_nodes().count()).collect();
    assert_eq!(sizes, [0, 4, 8, 4]);
    assert!(
        graphs[3].len() > graphs[2].len(),
        "instance 12 has the most nodes"
    );
    assert_eq!(got.report.metrics.total_ops, 8);
    assert!(got.ddg == graphs[2]);
    let third = AnalysisOptions {
        loop_instance: InstancePick::Index(8),
        ..options
    };
    let want = analyze_loop(&module, main, inner, &third).unwrap();
    assert_eq!(got.report, want.report);
}

/// The forward walks against their random-access oracles, on every
/// bundled kernel's whole-program DDG under both candidate policies:
/// `operand_rows` yields what `operand_writers` returns node by node, and
/// `analyze_ddg` (timestamps, then tuples gathered in execution order)
/// counts what `partition_all` + `stride::analyze_partition` count per
/// group, with and without reduction breaking.
#[test]
fn forward_walks_match_their_random_access_oracles() {
    use vectorscope::reduction::reduction_chains;
    use vectorscope::stride::analyze_partition;
    use vectorscope::{partition_all, InstMetrics};

    let counts = |m: &InstMetrics| {
        let c = [
            m.instances,
            m.partitions,
            m.unit_ops,
            m.unit_subparts,
            m.non_unit_ops,
            m.non_unit_subparts,
        ];
        (m.inst, c)
    };
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, &name);
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm);
        for policy in [
            CandidatePolicy::FloatArith,
            CandidatePolicy::IntAndFloatArith,
        ] {
            let ddg = Ddg::try_build_with_policy(&module, &trace, policy).unwrap();
            let mut rows = 0;
            for (n, row) in (0..).zip(ddg.operand_rows()) {
                assert_eq!(row, ddg.operand_writers(n), "{name}: node {n}");
                rows += 1;
            }
            assert_eq!(rows, ddg.len(), "{name}: row count");

            for break_reductions in [false, true] {
                let options = MetricOptions {
                    break_reductions,
                    threads: 1,
                };
                let (_, per_inst) = analyze_ddg(&module, &ddg, &options);
                let mut got: Vec<_> = per_inst.iter().map(counts).collect();

                let chains = if break_reductions {
                    reduction_chains(&module, &ddg)
                } else {
                    Vec::new()
                };
                let empty = HashSet::new();
                let insts = ddg.candidate_insts();
                let ignores: Vec<&HashSet<u32>> = insts
                    .iter()
                    .map(|&i| {
                        chains
                            .iter()
                            .find(|c| c.inst == i)
                            .map_or(&empty, |c| &c.chain_nodes)
                    })
                    .collect();
                let mut want: Vec<_> = partition_all(&ddg, &insts, &ignores)
                    .iter()
                    .map(|p| {
                        let mut c = [p.num_instances() as u64, p.groups.len() as u64, 0, 0, 0, 0];
                        for g in &p.groups {
                            let r = analyze_partition(&ddg, g, ddg.elem_size(p.inst));
                            c[2] += r.unit_ops() as u64;
                            c[3] += r.unit.len() as u64;
                            c[4] += r.non_unit_ops() as u64;
                            c[5] += r.non_unit.len() as u64;
                        }
                        (p.inst, c)
                    })
                    .collect();
                got.sort_by_key(|&(inst, _)| inst.0);
                want.sort_by_key(|&(inst, _)| inst.0);
                assert_eq!(
                    got, want,
                    "{name}: {policy:?}, break_reductions {break_reductions}"
                );
            }
        }
    }
}
