//! A counting global allocator: every allocation (and reallocation) bumps
//! a process-wide counter and a per-thread counter, so a span can report
//! how many heap allocations the layer it wraps performed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus two allocation counters.
pub struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can never allocate or re-enter.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A statistic only; it publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's TLS is being torn down.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by all threads since process start.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread since it started.
pub fn local() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}
