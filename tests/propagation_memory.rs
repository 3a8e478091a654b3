//! The heap one design-level propagation pass holds. A pass reads only
//! the design outputs, so it drops each arrival once the last edge out
//! of its vertex has been pulled: its high-water mark follows the live
//! frontier, not one full-width form per vertex of the design graph.
//!
//! The counting allocator is this binary's `#[global_allocator]`, so the
//! test lives in a binary of its own.

#[path = "support/arrays.rs"]
mod arrays;

use hier_ssta::core::{
    assemble_design_graph, propagate_assembled, AnalyzeOptions, CorrelationMode,
};
use hier_ssta::timing::LevelSchedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed (negative when it
    /// frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes on the calling thread.
struct Counting;

fn note(delta: isize) {
    // `try_with` fails only while the thread's locals are torn down;
    // allocations then go unrecorded.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates
// thread-local `Cell`s with const initializers, which neither allocate
// nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the high-water mark at the current live bytes, and returns
/// them.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

#[test]
fn a_design_pass_holds_its_frontier_not_the_whole_graph() {
    let design = arrays::c880_array(16);
    let assembled = assemble_design_graph(
        &design,
        CorrelationMode::Proposed,
        &AnalyzeOptions { threads: 1 },
    )
    .expect("assembly");
    let schedule = LevelSchedule::build(&assembled.graph).expect("levelize");

    let before = reset_peak();
    let timing = propagate_assembled(&assembled, &schedule, 1).expect("propagation");
    let held = PEAK.with(Cell::get) - before;
    drop(timing);

    // One form per vertex, the whole graph held at once.
    let width = design.config().parameters.len() + assembled.n_local_components;
    let whole_graph = assembled.graph.n_vertices() * width * std::mem::size_of::<f64>();
    assert!(
        3 * held < whole_graph as isize,
        "one pass held {held} bytes at its peak; every arrival at once is {whole_graph}"
    );
}
