//! A counting global allocator for binaries that measure their own heap
//! use. It forwards every call to the system allocator and counts, on
//! the calling thread: the bytes allocated and not yet freed, their
//! high-water mark, the allocation requests, and the largest single
//! request. It also counts the allocation requests of the whole
//! process.
//!
//! Include it with `#[path = "support/counting_alloc.rs"] mod
//! counting_alloc;` (adjust the path from outside `tests/`), and install
//! it in the including binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! Counts other than [`all_requests`] are per thread, so work measured
//! this way must run on the calling thread. Live bytes go negative on a
//! thread that frees what another allocated.

// Each including binary reads only some of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation requests of every thread of the process.
static ALL_REQUESTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`).
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
    /// The largest request size since the last [`reset_largest`].
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting on the calling thread.
pub struct Counting;

/// Notes a request for `size` bytes, made before it is served.
fn note_request(size: usize) {
    ALL_REQUESTS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are torn down;
    // allocations then go unrecorded.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// Moves this thread's live bytes by `delta` and raises their peak.
fn note_live(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and hands back what `System`
// returned; the caller's contract for each method (a valid `layout`, and
// a `ptr` that this allocator, so `System`, allocated with `layout`)
// therefore passes through. The counting only updates thread-local
// `Cell`s with const initializers and one static atomic, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_live(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_live(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `System` allocated `ptr` with `layout`, as the caller
        // guarantees of this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note_live(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        // SAFETY: `System` allocated `ptr` with `layout`, as the caller
        // guarantees of this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Restarts this thread's high-water mark at its live bytes, and returns
/// them.
pub fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The largest live byte count on this thread since [`reset_peak`].
pub fn peak() -> isize {
    PEAK.with(Cell::get)
}

/// Allocation requests this thread has made.
pub fn requests() -> u64 {
    REQUESTS.with(Cell::get)
}

/// Allocation requests every thread of the process has made.
pub fn all_requests() -> u64 {
    ALL_REQUESTS.load(Ordering::Relaxed)
}

/// Forgets this thread's largest request.
pub fn reset_largest() {
    LARGEST.with(|largest| largest.set(0));
}

/// The largest single request on this thread since [`reset_largest`],
/// in bytes.
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}
