//! Robustness and failure-injection tests: malformed inputs, trapping
//! programs, and corrupted traces must produce errors, never panics or
//! bogus reports.

use vectorscope::{analyze_source, AnalysisOptions, Error};
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm, VmOptions};

#[test]
fn syntax_errors_are_reported_with_position() {
    let err = analyze_source("bad.kern", "void main( { }", &AnalysisOptions::default());
    match err {
        Err(Error::Compile(e)) => {
            assert!(e.line >= 1);
            assert!(!e.message.is_empty());
        }
        other => panic!("expected compile error, got {other:?}"),
    }
}

#[test]
fn type_errors_are_reported() {
    let cases = [
        "void main() { int x = 0; double* p = x; }", // int -> pointer
        "void main() { unknown(); }",                // unknown function
        "void main() { int a[4]; a = 3; }",          // assign to array
        "double f() { return; }",                    // missing return value
        "void main() { break; }",                    // break outside loop
        "struct s { double x; }; void main() { s a; s b; a = b; }", // struct assign
        "void main() { int x = 0; x = *x; }",        // deref non-pointer
    ];
    for src in cases {
        let r = analyze_source("t.kern", src, &AnalysisOptions::default());
        assert!(
            matches!(r, Err(Error::Compile(_))),
            "case should fail to compile: {src}"
        );
    }
}

#[test]
fn runtime_traps_are_errors_not_panics() {
    let cases = [
        "int z = 0; int o = 0; void main() { o = 5 / z; }",
        "int z = 0; int o = 0; void main() { o = 5 % z; }",
        r#"
        double a[4];
        void main() {
            double* p = a;
            p = p + 1000000;
            *p = 1.0;
        }
        "#,
    ];
    for src in cases {
        let r = analyze_source("trap.kern", src, &AnalysisOptions::default());
        assert!(matches!(r, Err(Error::Vm(_))), "case should trap: {src}");
    }
}

#[test]
fn unbounded_recursion_overflows_cleanly() {
    let src = r#"
        int f(int n) { return f(n + 1); }
        int out = 0;
        void main() { out = f(0); }
    "#;
    let module = vectorscope_frontend::compile("rec.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    let r = vm.run_main();
    assert!(
        matches!(
            r,
            Err(vectorscope_interp::VmError::StackOverflow)
                | Err(vectorscope_interp::VmError::OutOfFuel { .. })
        ),
        "got {r:?}"
    );
}

#[test]
fn fuel_limits_are_enforced_per_options() {
    let src = "void main() { while (true) { } }";
    let r = analyze_source(
        "spin.kern",
        src,
        &AnalysisOptions {
            fuel: 5_000,
            ..AnalysisOptions::default()
        },
    );
    assert!(matches!(
        r,
        Err(Error::Vm(vectorscope_interp::VmError::OutOfFuel { .. }))
    ));
}

#[test]
fn corrupt_trace_bytes_are_rejected() {
    let src = r#"
        double a[8];
        void main() { for (int i = 0; i < 8; i++) { a[i] = 1.0; } }
    "#;
    let module = vectorscope_frontend::compile("c.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "c");
    vm.run_main().unwrap();
    let mut bytes = vm.take_trace().unwrap().to_bytes();
    // Flip the event-tag byte region and truncate: decode must error, not
    // panic.
    if bytes.len() > 30 {
        bytes[25] ^= 0xff;
        bytes.truncate(bytes.len() - 3);
    }
    let _ = vectorscope_trace::Trace::from_bytes(&bytes); // no panic
    assert!(vectorscope_trace::Trace::from_bytes(&bytes[..10]).is_err());
}

#[test]
fn foreign_trace_against_wrong_module_is_harmless() {
    // Build a trace from one module and (incorrectly) analyze it against
    // another: the builder must not panic and simply skips unknown ids.
    let src_a = r#"
        double a[8];
        void main() { for (int i = 0; i < 8; i++) { a[i] = a[i] + 1.0; } }
    "#;
    let src_b = "void main() { }";
    let module_a = vectorscope_frontend::compile("a.kern", src_a).unwrap();
    let module_b = vectorscope_frontend::compile("b.kern", src_b).unwrap();
    let mut vm = Vm::new(&module_a);
    vm.set_capture(CaptureSpec::Program, "a");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    let ddg = Ddg::build(&module_b, &trace);
    // module_b has only a `ret`; every other id is unknown -> tiny graph.
    assert!(ddg.len() <= trace.len());
}

#[test]
fn zero_iteration_loops_are_fine() {
    let src = r#"
        const int N = 8;
        double a[N];
        int limit = 0;
        void main() {
            for (int i = 0; i < limit; i++) { a[i] = 1.0; }
            for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; }
        }
    "#;
    let suite = analyze_source("z.kern", src, &AnalysisOptions::default()).unwrap();
    // The dead loop contributes nothing; the live loop is analyzable.
    assert!(suite
        .loops
        .iter()
        .all(|r| r.metrics.total_ops == 0 || r.metrics.pct_unit_vec_ops > 0.0));
}

#[test]
fn memory_limit_is_respected() {
    let src = r#"
        const int N = 4096;
        double big[N][N];   // 128 MB
        void main() { big[0][0] = 1.0; }
    "#;
    let module = vectorscope_frontend::compile("big.kern", src).unwrap();
    // Tiny memory budget: building the VM is fine (lazy zeroing), but the
    // frame push / store must not scribble out of bounds. With a limit
    // smaller than the globals, the stack cannot even be placed: the store
    // or frame push must fail cleanly.
    let mut vm = Vm::with_options(
        &module,
        VmOptions {
            mem_limit: 1 << 20,
            ..VmOptions::default()
        },
    );
    let r = vm.run_main();
    // Either a clean stack overflow or a trap; never a panic.
    assert!(r.is_err() || r.is_ok());
}

// ---------------------------------------------------------------------------
// Parallel engine robustness: worker failures, thread-count edge cases, and
// the driver's trace hand-off.

/// A worker whose analysis fails (here: a VM trap during the capture run of
/// one batch entry) must surface exactly one `Error` for its own slot —
/// without panicking, deadlocking, or poisoning the neighbouring workers'
/// results.
#[test]
fn batch_worker_error_does_not_poison_other_workers() {
    let ok = r#"
        const int N = 32;
        double a[N];
        void main() { for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; } }
    "#;
    let trap = "int z = 0; int o = 0; void main() { o = 1 / z; }";
    let programs: Vec<(String, String)> = [
        ("ok_one.kern", ok),
        ("trap.kern", trap),
        ("ok_two.kern", ok),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s.to_string()))
    .collect();

    let solo_for = |name: &str| {
        let options = AnalysisOptions {
            threads: 1,
            ..AnalysisOptions::default()
        };
        let suite = analyze_source(name, ok, &options).unwrap();
        vectorscope::json::suite_json(&suite.loops)
    };
    let solo = [solo_for("ok_one.kern"), solo_for("ok_two.kern")];

    for threads in [1, 2, 7] {
        let options = AnalysisOptions {
            threads,
            ..AnalysisOptions::default()
        };
        let results = vectorscope::analyze_sources(&programs, &options);
        assert_eq!(results.len(), 3, "threads = {threads}");
        assert!(
            matches!(results[1], Err(Error::Vm(_))),
            "threads = {threads}: expected the trapping program's own Vm error, got {:?}",
            results[1]
        );
        for (idx, want) in [(0, &solo[0]), (2, &solo[1])] {
            let suite = results[idx]
                .as_ref()
                .unwrap_or_else(|e| panic!("threads = {threads}: slot {idx} poisoned: {e}"));
            assert_eq!(
                &vectorscope::json::suite_json(&suite.loops),
                want,
                "threads = {threads}: slot {idx} diverged after a sibling worker failed"
            );
        }
    }
}

/// `threads: 0` resolves to the machine's available parallelism (clamped to
/// at least one worker) and must not change a single byte of the report.
#[test]
fn threads_zero_clamps_to_available_parallelism() {
    let src = r#"
        const int N = 24;
        double a[N]; double b[N];
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i; }
            for (int i = 0; i < N; i++) { a[i] = b[i] * 3.0; }
        }
    "#;
    let at = |threads: usize| {
        let options = AnalysisOptions {
            threads,
            ..AnalysisOptions::default()
        };
        let suite = analyze_source("clamp.kern", src, &options).unwrap();
        vectorscope::json::suite_json(&suite.loops)
    };
    assert_eq!(at(0), at(1));
}

/// More threads than shards: the pool spawns at most one worker per work
/// item, so a huge `threads` value on a tiny kernel must neither hang nor
/// change the result.
#[test]
fn threads_beyond_shard_count_is_safe() {
    let src = r#"
        const int N = 8;
        double a[N];
        void main() { for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; } }
    "#;
    let at = |threads: usize| {
        let options = AnalysisOptions {
            threads,
            ..AnalysisOptions::default()
        };
        let suite = analyze_source("tiny.kern", src, &options).unwrap();
        vectorscope::json::suite_json(&suite.loops)
    };
    assert_eq!(at(64), at(1));
}

/// Regression for the driver's trace hand-off: `analyze_program` used to
/// `expect("capture was armed")` on the VM's returned trace; any failure on
/// that path must come back as an `Error`, never a panic.
#[test]
fn analyze_program_failures_are_errors_not_panics() {
    // A trapping program exits through the VM error path, one misstep
    // before the old expect.
    let trap = "int z = 0; int o = 0; void main() { o = 1 / z; }";
    let module = vectorscope_frontend::compile("trap.kern", trap).unwrap();
    let err = vectorscope::analyze_program(&module, &AnalysisOptions::default());
    assert!(matches!(err, Err(Error::Vm(_))), "got {err:?}");

    // The dedicated variant for a missing trace is a displayable,
    // source-less error (not a panic payload).
    let e = Error::TraceUnavailable {
        what: "program capture of `x.kern`".to_string(),
    };
    assert!(e.to_string().contains("x.kern"));
    assert!(std::error::Error::source(&e).is_none());
}

/// A load event without an address (a corrupt or foreign trace) is a typed
/// error in both engines, raised by the shared resolver — not a panic.
#[test]
fn memory_events_without_an_address_are_errors_not_panics() {
    use vectorscope::StreamingAnalyzer;
    use vectorscope_ddg::{BuildError, CandidatePolicy};
    use vectorscope_ir::InstKind;
    use vectorscope_trace::{Trace, TraceEvent};

    let src = "double x = 1.0; double y = 0.0; void main() { y = x + 1.0; }";
    let module = vectorscope_frontend::compile("noaddr.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "all");
    vm.run_main().unwrap();
    let load = vm
        .take_trace()
        .unwrap()
        .events()
        .iter()
        .map(|e| e.inst)
        .find(|&id| {
            matches!(
                module.inst(id).map(|i| &i.kind),
                Some(InstKind::Load { .. })
            )
        })
        .expect("the program loads x");
    let mut trace = Trace::new("no-address");
    trace.push(TraceEvent::plain(load, 0, None));

    let want = BuildError::MissingAddress { inst: load };
    assert_eq!(Ddg::try_build(&module, &trace).err(), Some(want.clone()));

    let mut analyzer = StreamingAnalyzer::new(&module, CandidatePolicy::FloatArith);
    for e in &trace {
        analyzer.consume(e);
    }
    let streamed = analyzer.finish(&Default::default());
    assert_eq!(streamed.err(), Some(want.clone()));

    let e = Error::from(want);
    assert_eq!(e, Error::MissingAddress { inst: load });
    assert!(e.to_string().contains("no address"), "{e}");
}
