//! A counting global allocator: live heap bytes and a resettable
//! high-water mark.
//!
//! Every `*_peak_mb` and `*.heap_mb` figure of the benchmark comes from
//! here, never from the analyzer's own size estimates. A [`Mark`] resets
//! the high-water mark to the current live bytes and later reports how far
//! above that baseline the heap rose; marks nest, so a span's mark does not
//! hide an enclosing mark's earlier peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator plus two counters.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are bookkeeping only and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// An open high-water measurement (see the module docs). Marks nest in
/// LIFO order on one thread; threads the measured work spawns may
/// allocate freely.
pub struct Mark {
    base: usize,
    outer_peak: usize,
}

impl Mark {
    /// Resets the high-water mark to the live bytes.
    pub fn start() -> Mark {
        let base = LIVE.load(Relaxed);
        let outer_peak = PEAK.swap(base, Relaxed);
        Mark { base, outer_peak }
    }

    /// How far the heap rose above the baseline since [`Mark::start`];
    /// restores the enclosing mark's peak.
    pub fn finish(self) -> usize {
        let peak = PEAK.load(Relaxed);
        PEAK.fetch_max(self.outer_peak, Relaxed);
        peak.saturating_sub(self.base)
    }
}
