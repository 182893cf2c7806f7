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

/// More threads than work items: the pool spawns at most one worker per
/// work item, so a huge `threads` value on a tiny kernel must neither hang nor
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

/// A DDG node holds its operand count in one byte: an instruction with
/// more than 255 operands (here a textual-IR `gep` of 256 index terms plus
/// its base) is a typed error from the builder and from `analyze_program`,
/// not a panic or a truncated row.
#[test]
fn more_than_255_operands_is_an_error_not_a_panic() {
    use vectorscope_ddg::BuildError;
    use vectorscope_ir::InstKind;

    let terms = " + %0*8".repeat(256);
    let text = format!(
        "module wide.ir {{
  global a : 8 bytes
  fn main() {{
  bb0:
    %0 = copy.i64 0
    %1 = global_addr @0
    %2 = gep %1{terms}
    ret
  }}
}}
"
    );
    let module = vectorscope_ir::parse::parse_module(&text).unwrap();
    vectorscope_ir::verify::verify_module(&module).unwrap();
    let gep = module
        .functions()
        .iter()
        .flat_map(|f| f.blocks())
        .flat_map(|b| &b.insts)
        .find(|i| matches!(&i.kind, InstKind::Gep { indices, .. } if indices.len() == 256))
        .expect("the module has the wide gep")
        .id;

    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "all");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    let want = BuildError::TooManyOperands { inst: gep };
    assert_eq!(Ddg::try_build(&module, &trace).err(), Some(want.clone()));

    let err = vectorscope::analyze_program(&module, &AnalysisOptions::default()).err();
    assert_eq!(err, Some(Error::TooManyOperands { inst: gep }));
    assert!(Error::from(want).to_string().contains("255"));
}

/// The first events of every bundled kernel's run, in the version-1 trace
/// format `vscope trace` writes, with the module that produced them: the
/// seeds of the decoder fuzz target below. A small fuel budget caps each
/// run, so each seed is a prefix of a few thousand events.
fn fuzz_seeds() -> &'static [(vectorscope_ir::Module, Vec<u8>)] {
    static SEEDS: std::sync::OnceLock<Vec<(vectorscope_ir::Module, Vec<u8>)>> =
        std::sync::OnceLock::new();
    SEEDS.get_or_init(|| {
        vectorscope_kernels::all_kernels()
            .into_iter()
            .map(|kernel| {
                let module = kernel.compile().unwrap();
                let options = VmOptions {
                    fuel: 3_000,
                    ..VmOptions::default()
                };
                let mut vm = Vm::with_options(&module, options);
                vm.set_capture(CaptureSpec::Program, &kernel.file_name());
                let _ = vm.run_main(); // most kernels run out of fuel here
                let bytes = vm.take_trace().unwrap().to_bytes();
                drop(vm);
                (module, bytes)
            })
            .collect()
    })
}

/// The unmutated seeds decode and build, so the fuzz target below does not
/// pass by rejecting everything.
#[test]
fn fuzz_seeds_decode_and_build() {
    for (module, bytes) in fuzz_seeds() {
        let trace = vectorscope_trace::Trace::from_bytes(bytes).unwrap();
        assert!(
            trace.len() > 100,
            "{}: {} events",
            module.name(),
            trace.len()
        );
        Ddg::try_build_with_policy(module, &trace, vectorscope::CandidatePolicy::FloatArith)
            .unwrap();
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

    /// The trace decoder feeding the DDG builder: a kernel's trace with
    /// bits flipped and its tail cut decodes and builds to `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn mutated_traces_decode_and_build_without_panics(
        seed in proptest::strategy::any::<usize>(),
        flips in proptest::collection::vec(
            (proptest::strategy::any::<usize>(), 0u32..8),
            0..6,
        ),
        cut in proptest::strategy::any::<usize>(),
        truncate in proptest::strategy::any::<bool>(),
        integer_ops in proptest::strategy::any::<bool>(),
    ) {
        let seeds = fuzz_seeds();
        let (module, bytes) = &seeds[seed % seeds.len()];
        let mut bytes = bytes.clone();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if truncate {
            bytes.truncate(cut % bytes.len());
        }
        let policy = if integer_ops {
            vectorscope::CandidatePolicy::IntAndFloatArith
        } else {
            vectorscope::CandidatePolicy::FloatArith
        };
        if let Ok(trace) = vectorscope_trace::Trace::from_bytes(&bytes) {
            let _ = Ddg::try_build_with_policy(module, &trace, policy);
        }
    }
}

/// Every bundled kernel's source and the printed IR of its module: the
/// seeds of the two front-end fuzz targets below. (Both parse unmutated:
/// the kernels compile everywhere, and `crates/kernels/tests/equivalence.rs`
/// round-trips and verifies their printed IR.)
fn text_seeds() -> &'static (Vec<String>, Vec<String>) {
    static SEEDS: std::sync::OnceLock<(Vec<String>, Vec<String>)> = std::sync::OnceLock::new();
    SEEDS.get_or_init(|| {
        vectorscope_kernels::all_kernels()
            .into_iter()
            .map(|kernel| {
                let ir = kernel.compile().unwrap().to_string();
                (kernel.source, ir)
            })
            .unzip()
    })
}

/// Applies `mutations`, each `(kind, at, len, from)`, to `seed`: a flipped
/// bit, a deleted span, a span spliced in from one of `donors` (a token, a
/// line or a fragment of another kernel), a duplicated line, or a cut
/// tail.
fn mutate(seed: &str, donors: &[String], mutations: &[(u8, usize, usize, usize)]) -> String {
    let mut text = seed.as_bytes().to_vec();
    for &(kind, at, len, from) in mutations {
        if text.is_empty() {
            break;
        }
        let at = at % text.len();
        let len = 1 + len % 32;
        match kind % 5 {
            0 => text[at] ^= 1 << (len % 8),
            1 => {
                text.drain(at..text.len().min(at + len));
            }
            2 => {
                let donor = donors[from % donors.len()].as_bytes();
                let start = from / donors.len() % donor.len();
                let span = &donor[start..donor.len().min(start + len)];
                text.splice(at..at, span.iter().copied());
            }
            3 => {
                let start = text[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = text[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(text.len(), |i| at + i + 1);
                let line = text[start..end].to_vec();
                let to = from % text.len();
                text.splice(to..to, line);
            }
            _ => text.truncate(at),
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

    /// The Kern front end: a bundled kernel's source, mutated, compiles to
    /// `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_sources_compile_without_panics(
        seed in proptest::strategy::any::<usize>(),
        mutations in proptest::collection::vec(
            (
                proptest::strategy::any::<u8>(),
                proptest::strategy::any::<usize>(),
                proptest::strategy::any::<usize>(),
                proptest::strategy::any::<usize>(),
            ),
            1..5,
        ),
    ) {
        let (sources, _) = text_seeds();
        let source = mutate(&sources[seed % sources.len()], sources, &mutations);
        let _ = vectorscope_frontend::compile("fuzz.kern", &source);
    }

    /// The textual IR parser and the verifier: a bundled kernel's printed
    /// IR, mutated, parses and verifies to `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_ir_parses_and_verifies_without_panics(
        seed in proptest::strategy::any::<usize>(),
        mutations in proptest::collection::vec(
            (
                proptest::strategy::any::<u8>(),
                proptest::strategy::any::<usize>(),
                proptest::strategy::any::<usize>(),
                proptest::strategy::any::<usize>(),
            ),
            1..5,
        ),
    ) {
        let (_, irs) = text_seeds();
        let text = mutate(&irs[seed % irs.len()], irs, &mutations);
        if let Ok(module) = vectorscope_ir::parse::parse_module(&text) {
            let _ = vectorscope_ir::verify::verify_module(&module);
        }
    }
}
