//! A design analysis runs on the calling thread: every allocation
//! request made while `analyze` runs comes from the thread that called
//! it, so no phase of the analysis hands work to another thread.
//!
//! The counting allocator is this binary's `#[global_allocator]`, and
//! the test lives in a binary of its own: libtest starts sibling tests
//! concurrently, and their allocations would land in the process-wide
//! count.

#[path = "support/arrays.rs"]
mod arrays;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use hier_ssta::core::{analyze, CorrelationMode};

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_design_analysis_allocates_only_on_the_calling_thread() {
    let design = arrays::c880_array(16);
    let mut strays = Vec::new();
    for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
        let all_before = counting_alloc::all_requests();
        let own_before = counting_alloc::requests();
        let timing = analyze(&design, mode).expect("analysis");
        let own = counting_alloc::requests() - own_before;
        let all = counting_alloc::all_requests() - all_before;
        drop(timing);
        if all != own {
            strays.push(format!(
                "{mode:?}: {} of {all} allocation requests ran on other threads",
                all - own
            ));
        }
    }
    assert!(strays.is_empty(), "{}", strays.join("\n"));
}
