//! End-to-end execution tests: Kern source → IR → VM, with results checked
//! against native Rust computations.

use std::cell::RefCell;
use std::rc::Rc;
use vectorscope_frontend::compile;
use vectorscope_interp::{CaptureSpec, LoopSite, Vm, VmError, VmOptions};
use vectorscope_trace::TraceEvent;

/// Compiles and runs `main`, returning the VM for inspection.
macro_rules! run {
    ($src:expr) => {{
        let module = Box::leak(Box::new(
            compile("test.kern", $src).expect("compile failed"),
        ));
        let mut vm = Vm::new(module);
        vm.run_main().expect("run failed");
        vm
    }};
}

#[test]
fn arithmetic_and_calls() {
    let src = r#"
        double poly(double x) { return 3.0 * x * x + 2.0 * x + 1.0; }
        double result = 0.0;
        void main() { result = poly(2.0); }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("result", 0), 17.0);
}

#[test]
fn loops_and_arrays() {
    let n = 50usize;
    let src = format!(
        r#"
        const int N = {n};
        double a[N];
        double sum = 0.0;
        void main() {{
            for (int i = 0; i < N; i++) {{ a[i] = (double)(i * i); }}
            for (int i = 0; i < N; i++) {{ sum += a[i]; }}
        }}
    "#
    );
    let vm = run!(&src);
    let expect: f64 = (0..n).map(|i| (i * i) as f64).sum();
    assert_eq!(vm.read_global("sum", 0), expect);
    assert_eq!(vm.read_global("a", 7), 49.0);
}

#[test]
fn two_d_arrays_row_major() {
    let src = r#"
        const int N = 8;
        double b[N][N];
        double got = 0.0;
        void main() {
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    b[i][j] = (double)(i * 100 + j);
            got = b[3][5];
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("got", 0), 305.0);
    // Row-major: element (3,5) is at linear index 3*8+5.
    assert_eq!(vm.read_global("b", 3 * 8 + 5), 305.0);
}

#[test]
fn pointer_traversal_matches_array() {
    let src = r#"
        const int N = 32;
        double x[N];
        double s_arr = 0.0;
        double s_ptr = 0.0;
        void main() {
            for (int i = 0; i < N; i++) { x[i] = (double)i * 0.5; }
            for (int i = 0; i < N; i++) { s_arr += x[i]; }
            double* p = x;
            for (int i = 0; i < N; i++) { s_ptr += *p; p++; }
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("s_arr", 0), vm.read_global("s_ptr", 0));
    assert_eq!(
        vm.read_global("s_arr", 0),
        (0..32).map(|i| i as f64 * 0.5).sum()
    );
}

#[test]
fn structs_and_member_access() {
    let src = r#"
        struct complex { double r; double i; };
        complex z[4];
        double out_r = 0.0;
        double out_i = 0.0;
        void main() {
            for (int k = 0; k < 4; k++) {
                z[k].r = (double)k;
                z[k].i = (double)(k * 10);
            }
            complex* p = &z[2];
            out_r = p->r;
            out_i = z[3].i;
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("out_r", 0), 2.0);
    assert_eq!(vm.read_global("out_i", 0), 30.0);
}

#[test]
fn conditionals_and_short_circuit() {
    let src = r#"
        int taken = 0;
        int guard = 0;
        int bump() { guard = guard + 1; return 1; }
        void main() {
            int a = 3;
            if (a > 5 && bump() == 1) { taken = 1; }   // rhs must not run
            if (a > 1 || bump() == 1) { taken = taken + 2; }  // rhs must not run
            if (!(a == 3)) { taken = taken + 100; }
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("taken", 0), 2.0);
    assert_eq!(vm.read_global("guard", 0), 0.0);
}

#[test]
fn while_break_continue() {
    let src = r#"
        int acc = 0;
        void main() {
            int i = 0;
            while (true) {
                i++;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                acc += i;  // 1+3+5+7+9
            }
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("acc", 0), 25.0);
}

#[test]
fn integer_ops_match_rust() {
    let src = r#"
        int q = 0; int r = 0; int m = 0;
        void main() {
            q = (-17) / 5;
            r = (-17) % 5;
            m = 7 % 3;
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("q", 0), (-17i64 / 5) as f64);
    assert_eq!(vm.read_global("r", 0), (-17i64 % 5) as f64);
    assert_eq!(vm.read_global("m", 0), 1.0);
}

#[test]
fn float_math_intrinsics() {
    let src = r#"
        double e = 0.0; double s = 0.0; double mx = 0.0;
        void main() {
            e = exp(1.0);
            s = sqrt(2.0);
            mx = fmax(3.0, fabs(-7.5));
        }
    "#;
    let vm = run!(src);
    assert!((vm.read_global("e", 0) - std::f64::consts::E).abs() < 1e-15);
    assert!((vm.read_global("s", 0) - 2f64.sqrt()).abs() < 1e-15);
    assert_eq!(vm.read_global("mx", 0), 7.5);
}

#[test]
fn f32_rounding_is_observable() {
    let src = r#"
        float f[2];
        double delta = 0.0;
        void main() {
            f[0] = 0.1;
            f[1] = 0.2;
            double d64 = 0.1 + 0.2;
            delta = (f[0] + f[1]) - d64;
        }
    "#;
    let vm = run!(src);
    let expect = ((0.1f32 + 0.2f32) as f64) - (0.1f64 + 0.2f64);
    assert!((vm.read_global("delta", 0) - expect).abs() < 1e-12);
}

#[test]
fn recursion() {
    let src = r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int out = 0;
        void main() { out = fib(15); }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("out", 0), 610.0);
}

#[test]
fn address_taken_scalars() {
    let src = r#"
        void set(double* p, double v) { *p = v; }
        double out = 0.0;
        void main() {
            double local = 1.0;
            set(&local, 42.0);
            out = local;
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("out", 0), 42.0);
}

#[test]
fn gauss_seidel_semantics_match_rust() {
    // The paper's Gauss-Seidel stencil (Listing 5) at small size.
    let n = 10usize;
    let t = 3usize;
    let src = format!(
        r#"
        const int N = {n};
        const int T = {t};
        double a[N][N];
        void main() {{
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    a[i][j] = (double)(i * 7 + j * 3);
            double cnst = 1.0 / 9.0;
            for (int tt = 0; tt < T; tt++)
                for (int i = 1; i < N - 1; i++)
                    for (int j = 1; j < N - 1; j++)
                        a[i][j] = (a[i-1][j-1] + a[i-1][j] + a[i-1][j+1] +
                                   a[i][j-1] + a[i][j] + a[i][j+1] +
                                   a[i+1][j-1] + a[i+1][j] + a[i+1][j+1]) * cnst;
        }}
    "#
    );
    let vm = run!(&src);

    // Native reference.
    let mut a = vec![vec![0f64; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (i * 7 + j * 3) as f64;
        }
    }
    let cnst = 1.0 / 9.0;
    for _ in 0..t {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                a[i][j] = (a[i - 1][j - 1]
                    + a[i - 1][j]
                    + a[i - 1][j + 1]
                    + a[i][j - 1]
                    + a[i][j]
                    + a[i][j + 1]
                    + a[i + 1][j - 1]
                    + a[i + 1][j]
                    + a[i + 1][j + 1])
                    * cnst;
            }
        }
    }
    for (i, row) in a.iter().enumerate() {
        for (j, want) in row.iter().enumerate() {
            let got = vm.read_global("a", (i * n + j) as u64);
            assert!(
                (got - want).abs() < 1e-12,
                "a[{i}][{j}]: got {got}, want {want}"
            );
        }
    }
}

#[test]
fn division_by_zero_traps() {
    let src = r#"
        int out = 0;
        void main() { int z = 0; out = 1 / z; }
    "#;
    let module = compile("t.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    match vm.run_main() {
        Err(VmError::Trap { message, .. }) => assert!(message.contains("division by zero")),
        other => panic!("expected trap, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_traps() {
    let src = r#"
        double a[4];
        void main() {
            double* p = a;
            p = p - 100000;
            *p = 1.0;
        }
    "#;
    let module = compile("t.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    assert!(matches!(vm.run_main(), Err(VmError::Trap { .. })));
}

#[test]
fn infinite_loop_runs_out_of_fuel() {
    let src =
        "double x = 0.0;\nvoid main() {\n    x = 1.0;\n    while (true) { x = x * 0.5; }\n}\n";
    let module = compile("t.kern", src).unwrap();
    let mut vm = Vm::with_options(
        &module,
        VmOptions {
            fuel: 10_000,
            ..VmOptions::default()
        },
    );
    let err = vm.run_main().unwrap_err();
    assert_eq!(
        err,
        VmError::OutOfFuel {
            in_loop: Some(LoopSite {
                func: "main".into(),
                line: 4,
            })
        }
    );
    assert_eq!(
        err.to_string(),
        "instruction budget exhausted in the loop at line 4 of `main`"
    );
}

/// Fuel runs out at an exact instruction boundary: at the exact budget the
/// run completes, and below it the instruction that would exceed the budget
/// is charged fuel but never counted or executed. Pins the
/// check-before-count order, including inside fused compare+branch and
/// load+binop superinstructions.
#[test]
fn fuel_boundary_stops_before_the_first_unpaid_instruction() {
    // Loops, a call, memory traffic, and fused compare+branch /
    // load+binop sequences near the end.
    let src = r#"
        const int N = 24;
        double a[N]; double b[N];
        double dot(double x, double y) { return x * y; }
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i * 0.5; }
            for (int i = 0; i < N; i++) { a[i] = dot(b[i], 2.0) + b[i]; }
        }
    "#;
    let module = compile("fuel.kern", src).expect("compiles");
    let run = |fuel: u64| {
        let mut vm = Vm::with_options(
            &module,
            VmOptions {
                fuel,
                ..VmOptions::default()
            },
        );
        let result = vm.run_main();
        let counted: u64 = vm.inst_counts().iter().sum();
        (result, vm.fuel_used(), counted)
    };

    let (ok, exact, counted) = run(u64::MAX);
    assert!(ok.is_ok(), "unbounded run fails: {ok:?}");
    assert!(exact > 40, "program too short to probe: {exact}");
    assert_eq!(counted, exact, "inst_counts must sum to fuel_used");

    let (at_exact, used, counted) = run(exact);
    assert!(at_exact.is_ok(), "exact budget fails: {at_exact:?}");
    assert_eq!((used, counted), (exact, exact));

    for fuel in (exact - 40..exact).chain([exact / 2, 1]) {
        let (result, used, counted) = run(fuel);
        assert!(
            matches!(result, Err(VmError::OutOfFuel { .. })),
            "fuel={fuel}: {result:?}"
        );
        assert_eq!(used, fuel + 1, "fuel_used at fuel={fuel}");
        assert_eq!(counted, fuel, "inst_counts sum at fuel={fuel}");
    }
    // The first instruction of `main` sits outside any loop.
    assert_eq!(run(0).0, Err(VmError::OutOfFuel { in_loop: None }));
}

#[test]
fn profiler_finds_the_hot_loop() {
    let src = r#"
        const int N = 200;
        double a[N];
        double s = 0.0;
        void main() {
            a[0] = 1.0;
            for (int i = 1; i < N; i++) { a[i] = a[i-1] * 1.0001 + 0.5; }
            s = a[N-1];
        }
    "#;
    let module = compile("hot.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.run_main().unwrap();
    let hot = vm.profiler().hot_loops(&module, vm.forests(), 10.0);
    assert_eq!(hot.len(), 1, "expected exactly one hot loop: {hot:?}");
    assert!(hot[0].profile.percent > 50.0);
    assert_eq!(hot[0].profile.entries, 1);
}

#[test]
fn loop_capture_gets_one_instance() {
    let src = r#"
        const int N = 16;
        double a[N];
        void main() {
            for (int r = 0; r < 3; r++) {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        }
    "#;
    let module = compile("cap.kern", src).unwrap();
    // Find the inner loop (depth 2) of main.
    let main = module.lookup_function("main").unwrap();
    let vm_probe = Vm::new(&module);
    let forest = &vm_probe.forests()[main.index()];
    let (inner_id, _) = forest
        .iter()
        .find(|(_, l)| l.depth == 2)
        .expect("inner loop exists");
    drop(vm_probe);

    // Capture instance 1 (the second of three).
    let mut vm = Vm::new(&module);
    vm.set_capture(
        CaptureSpec::Loop {
            func: main,
            loop_id: inner_id,
            instance: 1,
        },
        "inner@1",
    );
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    assert!(!trace.is_empty());
    // The captured instance performs exactly N fadd instructions.
    let fadds = trace
        .iter()
        .filter(|e| {
            module
                .inst(e.inst)
                .map(|i| i.is_fp_candidate())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(fadds, 16);

    // Capturing instance 0 and 2 gives traces of the same length.
    for inst in [0u64, 2] {
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Loop {
                func: main,
                loop_id: inner_id,
                instance: inst,
            },
            "inner",
        );
        vm.run_main().unwrap();
        assert_eq!(vm.take_trace().unwrap().len(), trace.len());
    }
}

#[test]
fn capture_includes_callee_events() {
    let src = r#"
        const int N = 8;
        double a[N];
        double f(double x) { return x * 2.0; }
        void main() {
            for (int i = 0; i < N; i++) { a[i] = f((double)i); }
        }
    "#;
    let module = compile("callee.kern", src).unwrap();
    let main = module.lookup_function("main").unwrap();
    let probe = Vm::new(&module);
    let (loop_id, _) = probe.forests()[main.index()].iter().next().expect("loop");
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
    // The fmul inside `f` must appear in the loop's subtrace (dependences
    // through function calls, paper §4.2).
    let fmuls = trace
        .iter()
        .filter(|e| {
            module
                .inst(e.inst)
                .map(|i| i.is_fp_candidate())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(fmuls, 8);
    // Call and Ret events present for linkage.
    let calls = trace
        .iter()
        .filter(|e| matches!(e.kind, vectorscope_trace::EventKind::Call { .. }))
        .count();
    assert_eq!(calls, 8);
}

#[test]
fn program_capture_covers_everything() {
    let src = r#"
        double x = 0.0;
        void main() { x = 1.0 + 2.0; }
    "#;
    let module = compile("prog.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, "whole");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    assert!(trace.len() >= 2); // at least the fadd and the store
}

#[test]
fn function_capture_selects_one_activation() {
    let src = r#"
        double work(double x) { return x * 2.0 + 1.0; }
        double out = 0.0;
        void main() {
            double acc = 0.0;
            acc = acc + work(1.0);
            acc = acc + work(2.0);
            acc = acc + work(3.0);
            out = acc;
        }
    "#;
    let module = compile("fc.kern", src).unwrap();
    let work = module.lookup_function("work").unwrap();
    // Capture each of the three activations: identical event counts, and
    // exactly one fmul + one fadd inside `work`.
    let mut lens = Vec::new();
    for inst in 0..3u64 {
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Function {
                func: work,
                instance: inst,
            },
            "work",
        );
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        assert!(!trace.is_empty(), "instance {inst}");
        let fp = trace
            .iter()
            .filter(|e| {
                module
                    .inst(e.inst)
                    .map(|i| i.is_fp_candidate())
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(fp, 2, "instance {inst}");
        lens.push(trace.len());
    }
    assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
}

#[test]
fn all_intrinsics_evaluate_correctly() {
    let src = r#"
        double out[10];
        void main() {
            out[0] = exp(1.5);
            out[1] = log(2.5);
            out[2] = sqrt(7.0);
            out[3] = fabs(-3.25);
            out[4] = sin(0.7);
            out[5] = cos(0.7);
            out[6] = floor(2.9);
            out[7] = fmin(1.5, -0.5);
            out[8] = fmax(1.5, -0.5);
            out[9] = pow(2.0, 10.0);
        }
    "#;
    let vm = run!(src);
    let expect = [
        1.5f64.exp(),
        2.5f64.ln(),
        7.0f64.sqrt(),
        3.25,
        0.7f64.sin(),
        0.7f64.cos(),
        2.0,
        -0.5,
        1.5,
        1024.0,
    ];
    for (i, want) in expect.iter().enumerate() {
        let got = vm.read_global("out", i as u64);
        assert_eq!(got, *want, "intrinsic {i}");
    }
}

#[test]
fn negative_pointer_walks_work() {
    let src = r#"
        const int N = 16;
        double a[N];
        double total = 0.0;
        void main() {
            for (int i = 0; i < N; i++) { a[i] = (double)i; }
            double* p = &a[N - 1];
            double acc = 0.0;
            for (int i = 0; i < N; i++) { acc += *p; p--; }
            total = acc;
        }
    "#;
    let vm = run!(src);
    assert_eq!(vm.read_global("total", 0), (0..16).sum::<i64>() as f64);
}

#[test]
fn global_scalar_initializers_apply() {
    let src = r#"
        double x = 2.5;
        double y = -1.0;
        int k = 42;
        double out = 0.0;
        void main() { out = x * y + (double)k; }
    "#;
    let vm = run!(src);
    let want = 2.5f64.mul_add(-1.0, 42.0);
    assert!((vm.read_global("out", 0) - want).abs() < 1e-12);
}

#[test]
fn profiler_entries_count_loop_entries() {
    let src = r#"
        const int N = 8;
        double a[N];
        void main() {
            for (int r = 0; r < 5; r++)
                for (int i = 0; i < N; i++)
                    a[i] = a[i] + 1.0;
        }
    "#;
    let module = compile("pe.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.run_main().unwrap();
    let profiles = vm.profiler().profiles(&module, vm.forests());
    let inner = profiles.iter().find(|p| p.depth == 2).unwrap();
    assert_eq!(inner.entries, 5);
    let outer = profiles.iter().find(|p| p.depth == 1).unwrap();
    assert_eq!(outer.entries, 1);
}

#[test]
fn function_capture_works_for_entry_function() {
    let src = r#"
        double out = 0.0;
        void main() { out = 1.5 + 2.5; }
    "#;
    let module = compile("entry.kern", src).unwrap();
    let main_fn = module.lookup_function("main").unwrap();
    let mut vm = Vm::new(&module);
    vm.set_capture(
        CaptureSpec::Function {
            func: main_fn,
            instance: 0,
        },
        "main",
    );
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    assert!(!trace.is_empty(), "entry-function capture must fire");
}

#[test]
fn wrapped_pointer_arithmetic_traps_cleanly() {
    // Walking a pointer far below zero wraps around u64; the access must
    // trap, not panic.
    let src = r#"
        double a[4];
        void main() {
            double* p = a;
            for (int i = 0; i < 3; i++) { p = p - 1000000000000000000; }
            *p = 1.0;
        }
    "#;
    let module = compile("wrap.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    assert!(matches!(vm.run_main(), Err(VmError::Trap { .. })));
}

#[test]
fn fuel_and_cost_model_are_observable() {
    let src = r#"
        double x = 0.0;
        void main() { x = 1.0 + 2.0; }
    "#;
    let module = compile("fuel.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.run_main().unwrap();
    let used = vm.fuel_used();
    assert!(used >= 3, "fadd + store + ret at minimum, got {used}");

    // A cost model that makes FP adds enormous must dominate the profile.
    let expensive = vectorscope_interp::CostModel {
        fadd: 1_000,
        ..vectorscope_interp::CostModel::default()
    };
    let mut vm2 = Vm::with_options(
        &module,
        VmOptions {
            cost: expensive,
            ..VmOptions::default()
        },
    );
    vm2.run_main().unwrap();
    assert!(vm2.profiler().total_cycles() > vm.profiler().total_cycles() + 900);
}

#[test]
fn multi_capture_matches_single_capture_runs() {
    let src = r#"
        const int N = 12;
        double a[N];
        void main() {
            for (int r = 0; r < 4; r++) {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        }
    "#;
    let module = compile("multi.kern", src).unwrap();
    let main = module.lookup_function("main").unwrap();
    let probe = Vm::new(&module);
    let forest = &probe.forests()[main.index()];
    let (outer_id, _) = forest.iter().find(|(_, l)| l.depth == 1).expect("outer");
    let (inner_id, _) = forest.iter().find(|(_, l)| l.depth == 2).expect("inner");
    drop(probe);

    // Reference: one capture per execution.
    let mut reference = Vec::new();
    let specs = [
        CaptureSpec::Loop {
            func: main,
            loop_id: inner_id,
            instance: 0,
        },
        CaptureSpec::Loop {
            func: main,
            loop_id: inner_id,
            instance: 2,
        },
        CaptureSpec::Loop {
            func: main,
            loop_id: outer_id,
            instance: 0,
        },
        CaptureSpec::Program,
        CaptureSpec::Function {
            func: main,
            instance: 0,
        },
    ];
    for spec in specs {
        let mut vm = Vm::new(&module);
        vm.set_capture(spec, "single");
        vm.run_main().unwrap();
        reference.push(vm.take_trace().unwrap());
    }

    // Fused: all five captures armed on one execution, and the same five
    // specs again as sinks that collect their events.
    let mut vm = Vm::new(&module);
    for spec in specs {
        vm.add_capture(spec, "single");
    }
    let sunk: Vec<Rc<RefCell<Vec<TraceEvent>>>> = specs
        .iter()
        .map(|&spec| {
            let events = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&events);
            vm.add_sink(spec, Box::new(move |e| sink.borrow_mut().push(*e)));
            events
        })
        .collect();
    vm.run_main().unwrap();
    let traces = vm.take_traces();
    assert_eq!(traces.len(), 2 * specs.len());
    for (i, (got, want)) in traces.iter().zip(&reference).enumerate() {
        assert!(!want.is_empty(), "reference capture {i} fired");
        assert_eq!(
            got.events(),
            want.events(),
            "fused capture {i} ({:?}) diverges from its single-capture run",
            specs[i]
        );
    }
    for (i, (events, trace)) in sunk.iter().zip(&traces).enumerate() {
        assert_eq!(
            events.borrow().as_slice(),
            trace.events(),
            "sink {i} ({:?}) is gated unlike its buffered capture",
            specs[i]
        );
    }
}

#[test]
fn set_capture_replaces_armed_captures() {
    let src = r#"
        const int N = 4;
        double a[N];
        void main() {
            for (int i = 0; i < N; i++) { a[i] = 1.0; }
        }
    "#;
    let module = compile("replace.kern", src).unwrap();
    let mut vm = Vm::new(&module);
    vm.add_capture(CaptureSpec::Program, "first");
    vm.add_capture(CaptureSpec::Program, "second");
    vm.set_capture(CaptureSpec::Program, "only");
    vm.run_main().unwrap();
    let traces = vm.take_traces();
    assert_eq!(traces.len(), 1);
    assert!(!traces[0].is_empty());
    assert!(vm.take_trace().is_none());
}
