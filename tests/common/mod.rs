//! One counting global allocator for the test binaries that measure the
//! heap. A binary that declares `mod common;` allocates through it, and
//! reads whichever counter its claim is about:
//!
//! * [`live_bytes`]: the process's live heap across all threads —
//!   allocations minus deallocations, plus each `realloc`'s change in
//!   size — so server, worker and lane threads count with the caller's;
//! * [`allocations`]: how many allocations (`alloc`, `alloc_zeroed`,
//!   `realloc`) the process has made, across all threads;
//! * [`requested`]: bytes the process has requested (`alloc`,
//!   `alloc_zeroed`, and a `realloc`'s new size), across all threads;
//! * [`requested_here`]: bytes this thread has requested (`alloc`,
//!   `alloc_zeroed`, and a `realloc`'s new size), so two threads of one
//!   exchange are measured apart.
//!
//! The counters are process-wide (bar the last), so a binary whose
//! tests read them runs those tests one at a time.

// Each binary that includes this module reads only some of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED_ALL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Book one allocation that requests `size` bytes and changes the live
/// heap by `live`.
fn count(size: usize, live: isize) {
    LIVE.fetch_add(live, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    REQUESTED_ALL.fetch_add(size, Ordering::Relaxed);
    let _ = REQUESTED.try_with(|n| n.set(n.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is
// atomic adds and a thread-local add, none of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as isize);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as isize);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes of the whole process.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Allocations the whole process has made.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes the whole process has requested.
pub fn requested() -> usize {
    REQUESTED_ALL.load(Ordering::Relaxed)
}

/// Bytes this thread has requested.
pub fn requested_here() -> usize {
    REQUESTED.with(Cell::get)
}
