//! Unused DDG capacity: the graph's allocations must stay close to the
//! bytes it reports holding.
//!
//! Its own test binary, because the counting global allocator below sees
//! every allocation of the process; one `#[test]` keeps other tests from
//! allocating while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use vectorscope::{analyze_program, AnalysisOptions};

/// The system allocator plus a count of live heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is bookkeeping only and never influences the returned pointers.
// The default `alloc_zeroed` and `realloc` go through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ddg_holds_little_unused_capacity() {
    // The bundled kernel with the longest whole-program trace.
    let kernel = vectorscope_kernels::all_kernels()
        .into_iter()
        .find(|k| k.file_name() == "spec_434_zeusmp.kern")
        .expect("bundled kernel");
    let module = kernel.compile().expect("kernel compiles");
    let analysis = analyze_program(&module, &AnalysisOptions::default()).expect("kernel analyzes");
    let ddg = analysis.ddg;
    let data = ddg.memory_bytes();
    let before = LIVE.load(Relaxed);
    drop(ddg);
    let held = before - LIVE.load(Relaxed);
    let ratio = held as f64 / data as f64;
    assert!(
        ratio <= 1.02,
        "the DDG held {held} B for {data} B of data ({ratio:.2}x)"
    );
}
