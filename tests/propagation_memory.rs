//! The heap one design-level propagation pass holds, and how often it
//! asks for more. A pass reads only the design outputs, so it hands
//! each arrival's storage back once the last edge out of its vertex has
//! been pulled, and it keeps its forms in one buffer sized before it
//! starts: its high-water mark follows the live frontier, not one
//! full-width form per vertex of the design graph, and it makes no
//! allocation request per vertex. Design PIs, top-level edges and the
//! arrivals built from them alone store no coefficients at all.
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
    let requests = counting_alloc::requests();
    let timing = propagate_assembled(&assembled, &schedule, 1).expect("propagation");
    let held = counting_alloc::peak() - before;
    let requests = counting_alloc::requests() - requests;
    drop(timing);

    // One form per vertex, the whole graph held at once.
    let vertices = assembled.graph.n_vertices();
    let width = design.config().parameters.len() + assembled.n_local_components;
    let whole_graph = vertices * width * std::mem::size_of::<f64>();
    assert!(
        10 * held < whole_graph as isize,
        "one pass held {held} bytes at its peak; every arrival at once is {whole_graph}"
    );
    assert!(
        10 * requests < vertices as u64,
        "one pass made {requests} allocation requests over {vertices} vertices"
    );
}
