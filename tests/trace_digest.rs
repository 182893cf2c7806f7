//! Golden trace digests: pins the VM's observable behaviour on every
//! bundled kernel, below any analysis-layer normalization.
//!
//! Each kernel runs once with a whole-program capture. The digest records
//! the event count, `fuel_used`, an FNV-1a-64 hash of the encoded trace
//! (`Trace::to_bytes`), and an FNV-1a-64 hash of the per-instruction
//! execution counts followed by the per-branch taken counts (each a
//! little-endian `u64`). `tests/golden/vm_trace_digests.txt` holds one line
//! per kernel; any change to execution order, event emission, fuel
//! accounting or branch counting shows up here.
//!
//! To regenerate after an *intentional* VM change, run:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_digest
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use vectorscope_interp::{CaptureSpec, Vm};
use vectorscope_kernels::Kernel;

fn digest_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/vm_trace_digests.txt"
    ))
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One digest line: `name events=N fuel=N trace=HEX counters=HEX`.
fn digest(kernel: &Kernel) -> String {
    let name = kernel.file_name();
    let module = kernel
        .compile()
        .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
    let mut vm = Vm::new(&module);
    vm.set_capture(CaptureSpec::Program, &name);
    vm.run_main().unwrap_or_else(|e| panic!("{name}: {e}"));
    let trace = vm.take_trace().expect("capture armed");

    let mut trace_hash = Fnv::new();
    trace_hash.write(&trace.to_bytes());
    let mut counters = Fnv::new();
    for &n in vm.inst_counts().iter().chain(vm.branch_taken()) {
        counters.write(&n.to_le_bytes());
    }
    format!(
        "{name} events={} fuel={} trace={:016x} counters={:016x}",
        trace.len(),
        vm.fuel_used(),
        trace_hash.0,
        counters.0
    )
}

#[test]
fn every_bundled_kernel_matches_its_trace_digest() {
    let got: String = vectorscope_kernels::all_kernels()
        .iter()
        .map(|k| digest(k) + "\n")
        .collect();
    let path = digest_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write trace digest golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test trace_digest",
            path.display()
        )
    });
    let diverged: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  expected: {w}\n  got:      {g}"))
        .collect();
    assert!(
        diverged.is_empty() && want.lines().count() == got.lines().count(),
        "VM trace digests diverged from tests/golden/vm_trace_digests.txt \
         ({} of {} kernels differ, {} vs {} lines; if the VM change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff):\n{}",
        diverged.len(),
        got.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diverged.join("\n")
    );
}
