//! The heap one design-level propagation pass holds. A pass reads only
//! the design outputs, so it drops each arrival once the last edge out
//! of its vertex has been pulled: its high-water mark follows the live
//! frontier, not one full-width form per vertex of the design graph.
//!
//! The counting allocator is this binary's `#[global_allocator]`, so the
//! test lives in a binary of its own.

#[path = "support/arrays.rs"]
mod arrays;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use hier_ssta::core::{assemble_design_graph, propagate_assembled, CorrelationMode};
use hier_ssta::timing::LevelSchedule;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_design_pass_holds_its_frontier_not_the_whole_graph() {
    let design = arrays::c880_array(16);
    let assembled = assemble_design_graph(&design, CorrelationMode::Proposed).expect("assembly");
    let schedule = LevelSchedule::build(&assembled.graph).expect("levelize");

    let before = counting_alloc::reset_peak();
    let timing = propagate_assembled(&assembled, &schedule, 1).expect("propagation");
    let held = counting_alloc::peak() - before;
    drop(timing);

    // One form per vertex, the whole graph held at once.
    let width = design.config().parameters.len() + assembled.n_local_components;
    let whole_graph = assembled.graph.n_vertices() * width * std::mem::size_of::<f64>();
    assert!(
        3 * held < whole_graph as isize,
        "one pass held {held} bytes at its peak; every arrival at once is {whole_graph}"
    );
}
