//! A counting [`GlobalAlloc`] wrapper over the system allocator, shared
//! by the zero-alloc delta-path test (`tests/alloc.rs` in the facade),
//! the `bench_pr4` snapshot and the `perfbench` traced run so all count
//! with identical rules (every `alloc`/`alloc_zeroed`/`realloc` call is
//! one event; `dealloc` is free).
//!
//! Each binary still declares its own registration:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: bds_par::CountingAlloc = bds_par::CountingAlloc;
//! ```

// bds:allow-file(facade-bypass): the counting allocator runs *inside*
// alloc; its static must be const-initialized and its accesses must
// never touch instrumented model state (which allocates), so it stays
// on raw std atomics in every build.
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator; register as `#[global_allocator]`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Const-initialized and `Drop`-free, so accessing it inside the
// allocator can never itself allocate or recurse.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Total allocation events since process start (monotone), all threads.
pub fn allocations() -> u64 {
    // ordering: monotone event counter read for diagnostics only; no
    // other memory is published through it, so Relaxed suffices.
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events performed by the *calling thread* (monotone).
///
/// Zero-alloc assertions should diff this counter, not
/// [`allocations`]: the process-wide count picks up whatever other
/// threads happen to allocate inside the measured window (the libtest
/// harness thread is enough to trip an `== 0` assertion sporadically).
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[inline]
fn count() {
    // ordering: pure event count; nothing synchronizes-with it, and
    // fetch_add keeps it exact under contention either way.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates verbatim to `System`, which upholds
// the GlobalAlloc contract; the counter bump on the side touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller obligations (non-zero-sized `layout`) are
        // passed through unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`; delegated with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` pair comes from the caller, who must
        // have obtained it from this allocator (same contract System
        // requires).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: delegated; the caller guarantees `ptr` was allocated
        // here with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
