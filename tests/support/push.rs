//! Push-based longest-path propagation in topological order: the
//! test oracle the levelized pull engine (`ssta_timing::levels`) is
//! cross-checked against.
//!
//! `forward` computes arrival times (max delay from a set of sources);
//! `backward` computes the max delay *to* a set of sinks (the negated
//! required time of Section IV-B of the paper). Each call re-runs Kahn's
//! algorithm and pushes every value along its out-edges, so the two
//! engines share no propagation code: for scalar delays they must agree
//! bit for bit, and for canonical forms backward must too, while forward
//! re-associates Clark's order-sensitive `maximum` differently.
//!
//! Include it with `#[path = "support/push.rs"] mod push;`.

use hier_ssta::timing::{DelayAlgebra, TimingError, TimingGraph, VertexId};

/// Arrival times from the given `(vertex, initial)` sources.
///
/// Returns one `Option<D>` per vertex slot; `None` means the vertex is not
/// reachable from any source. A vertex listed twice keeps the max of its
/// initial values.
///
/// # Errors
///
/// Returns [`TimingError::CyclicGraph`] for cyclic graphs.
pub fn forward<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    sources: &[(VertexId, D)],
) -> Result<Vec<Option<D>>, TimingError> {
    let order = graph.topo_order()?;
    let mut arrival: Vec<Option<D>> = vec![None; graph.vertex_bound()];
    for (v, init) in sources {
        let slot = &mut arrival[v.0 as usize];
        *slot = Some(match slot.take() {
            Some(prev) => prev.maximum(init),
            None => init.clone(),
        });
    }
    for &v in &order {
        // Take the value out instead of cloning it (a canonical form
        // clones a full coefficient vector); a DAG has no self-edges, so
        // the slot is never read while it is vacated.
        let Some(at_v) = arrival[v.0 as usize].take() else {
            continue;
        };
        for e in graph.out_edges(v) {
            let edge = graph.edge(e);
            let cand = at_v.sum(&edge.delay);
            let slot = &mut arrival[edge.to.0 as usize];
            *slot = Some(match slot.take() {
                Some(prev) => prev.maximum(&cand),
                None => cand,
            });
        }
        arrival[v.0 as usize] = Some(at_v);
    }
    Ok(arrival)
}

/// Max delay from each vertex to the given `(vertex, initial)` sinks
/// (reverse propagation).
///
/// # Errors
///
/// Returns [`TimingError::CyclicGraph`] for cyclic graphs.
pub fn backward<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    sinks: &[(VertexId, D)],
) -> Result<Vec<Option<D>>, TimingError> {
    let order = graph.topo_order()?;
    let mut required: Vec<Option<D>> = vec![None; graph.vertex_bound()];
    for (v, init) in sinks {
        let slot = &mut required[v.0 as usize];
        *slot = Some(match slot.take() {
            Some(prev) => prev.maximum(init),
            None => init.clone(),
        });
    }
    for &v in order.iter().rev() {
        // max over out-edges of (required[to] + delay). Taking the seed
        // out avoids a per-vertex clone; no self-edges in a DAG.
        let mut best: Option<D> = required[v.0 as usize].take();
        for e in graph.out_edges(v) {
            let edge = graph.edge(e);
            if let Some(r) = &required[edge.to.0 as usize] {
                let cand = edge.delay.sum(r);
                best = Some(match best {
                    Some(prev) => prev.maximum(&cand),
                    None => cand,
                });
            }
        }
        required[v.0 as usize] = best;
    }
    Ok(required)
}
