//! Property-based tests (proptest) of the levelized pull propagation
//! engine against the push-based oracle (`support/push.rs`) on random
//! DAGs:
//!
//! * scalar algebra: pull ≡ push bit-exactly (f64 max/+ is
//!   order-insensitive), forward and backward, and scalar STA's graph
//!   delay and critical path agree with the oracle's arrivals;
//! * canonical algebra: backward is bit-identical (same per-vertex
//!   reduction order as the reference), forward agrees within working
//!   precision (Clark's `maximum` is order-sensitive, so pull's fixed
//!   in-edge order re-associates it);
//! * one `LevelSchedule` serves arbitrarily many passes — the build
//!   counter moves once per graph, not once per pass.

#[path = "support/push.rs"]
mod push;

use hier_ssta::core::CanonicalForm;
use hier_ssta::timing::{levels, sta, LevelSchedule, TimingError, TimingGraph, VertexId};
use proptest::prelude::*;

/// A random DAG encoded as a vertex count plus candidate edges; pairs are
/// oriented low → high index, so the graph is acyclic by construction.
#[derive(Debug, Clone)]
struct RandomDag {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

fn dag() -> impl Strategy<Value = RandomDag> {
    (4usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1..25.0f64), 3..4 * n).prop_map(move |raw| {
            RandomDag {
                n,
                edges: raw
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, d)| (u.min(v), u.max(v), d))
                    .collect(),
            }
        })
    })
}

fn scalar_graph(dag: &RandomDag) -> (TimingGraph<f64>, Vec<VertexId>) {
    let mut g = TimingGraph::new();
    let mut vs = Vec::with_capacity(dag.n);
    vs.push(g.add_input());
    for _ in 1..dag.n {
        vs.push(g.add_vertex());
    }
    g.mark_output(vs[dag.n - 1]);
    for &(u, v, d) in &dag.edges {
        g.add_edge(vs[u], vs[v], d);
    }
    (g, vs)
}

/// Lifts the scalar DAG into canonical forms: each delay gets sensitivity
/// coefficients derived deterministically from its nominal value, so the
/// graph exercises the full algebra without a second random source.
fn canonical_graph(dag: &RandomDag) -> (TimingGraph<CanonicalForm>, Vec<VertexId>) {
    let mut g = TimingGraph::new();
    let mut vs = Vec::with_capacity(dag.n);
    vs.push(g.add_input());
    for _ in 1..dag.n {
        vs.push(g.add_vertex());
    }
    g.mark_output(vs[dag.n - 1]);
    for (k, &(u, v, d)) in dag.edges.iter().enumerate() {
        let s = 0.05 * d;
        let globals = vec![s * (1.0 + (k % 3) as f64), -0.5 * s];
        let locals = vec![s, 0.25 * s * ((k % 5) as f64 - 2.0), -0.75 * s];
        let form =
            CanonicalForm::from_parts(10.0 + d, globals, locals, 0.1 * s).expect("finite form");
        g.add_edge(vs[u], vs[v], form);
    }
    (g, vs)
}

fn czero() -> CanonicalForm {
    CanonicalForm::constant(0.0, 2, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scalar_pull_forward_is_bit_identical_to_push(dag in dag()) {
        let (g, vs) = scalar_graph(&dag);
        let sources = [(vs[0], 0.0)];
        let push = push::forward(&g, &sources).unwrap();
        let schedule = LevelSchedule::build(&g).unwrap();
        let pull = levels::forward(&g, &schedule, &sources).unwrap();
        prop_assert_eq!(pull, push);
    }

    #[test]
    fn scalar_pull_backward_is_bit_identical_to_push(dag in dag()) {
        let (g, vs) = scalar_graph(&dag);
        let sinks = [(vs[dag.n - 1], 0.0)];
        let push = push::backward(&g, &sinks).unwrap();
        let schedule = LevelSchedule::build(&g).unwrap();
        let pull = levels::backward(&g, &schedule, &sinks).unwrap();
        prop_assert_eq!(pull, push);
    }

    #[test]
    fn scalar_sta_matches_push_oracle(dag in dag()) {
        // The worst output arrival of one push pass is the graph delay,
        // bit for bit; no reachable output means `NoPath` on both sides.
        let (g, _) = scalar_graph(&dag);
        let sources: Vec<_> = g.inputs().iter().map(|&v| (v, 0.0)).collect();
        let arrival = push::forward(&g, &sources).unwrap();
        let oracle = g
            .outputs()
            .iter()
            .filter_map(|&v| arrival[v.0 as usize])
            .reduce(f64::max);
        match oracle {
            Some(want) => {
                let delay = sta::graph_delay(&g).unwrap();
                prop_assert_eq!(delay.to_bits(), want.to_bits());
                let (path_delay, path) = sta::critical_path(&g).unwrap();
                prop_assert_eq!(path_delay.to_bits(), want.to_bits());
                let sum: f64 = path.iter().map(|&e| g.edge(e).delay).sum();
                prop_assert!((sum - want).abs() < 1e-9, "path sums to {} of {}", sum, want);
            }
            None => {
                prop_assert_eq!(sta::graph_delay(&g), Err(TimingError::NoPath));
                prop_assert_eq!(sta::critical_path(&g), Err(TimingError::NoPath));
            }
        }
    }

    #[test]
    fn canonical_pull_forward_matches_push_within_tolerance(dag in dag()) {
        // Clark's moment-matched `maximum` is order-sensitive: pull
        // reduces each vertex's in-edges in edge-index order, push in
        // predecessor-completion order. The two must agree to working
        // precision (this re-association is why the module fingerprint
        // payload was bumped to v4), not bit-exactly.
        let (g, vs) = canonical_graph(&dag);
        let sources = [(vs[0], czero())];
        let push = push::forward(&g, &sources).unwrap();
        let schedule = LevelSchedule::build(&g).unwrap();
        let pull = levels::forward(&g, &schedule, &sources).unwrap();
        for (slot, (a, b)) in pull.iter().zip(&push).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => {
                    let rel = (a.mean() - b.mean()).abs() / b.mean().abs().max(1.0);
                    prop_assert!(rel < 0.02, "vertex {} mean drift {}", slot, rel);
                    let ds = (a.std_dev() - b.std_dev()).abs()
                        / b.std_dev().max(1e-9);
                    prop_assert!(ds < 0.1, "vertex {} sigma drift {}", slot, ds);
                }
                (None, None) => {}
                _ => prop_assert!(false, "reachability mismatch at vertex {}", slot),
            }
        }
    }

    #[test]
    fn canonical_pull_backward_is_bit_identical_to_push(dag in dag()) {
        // The backward reduction (seed first, then out-edges in edge-index
        // order) reproduces the reference's per-vertex fold exactly, so
        // even the order-sensitive algebra must match bit for bit.
        let (g, vs) = canonical_graph(&dag);
        let sinks = [(vs[dag.n - 1], czero())];
        let push = push::backward(&g, &sinks).unwrap();
        let schedule = LevelSchedule::build(&g).unwrap();
        let pull = levels::backward(&g, &schedule, &sinks).unwrap();
        prop_assert_eq!(pull, push);
    }

    #[test]
    fn one_schedule_serves_many_passes(dag in dag()) {
        // Regression guard for the historical bug where every propagate
        // call re-ran Kahn's algorithm: the build counter must move
        // exactly once per graph no matter how many passes run.
        let (g, vs) = scalar_graph(&dag);
        let before = levels::schedule_builds();
        let schedule = LevelSchedule::build(&g).unwrap();
        for _ in 0..5 {
            levels::forward(&g, &schedule, &[(vs[0], 0.0)]).unwrap();
            levels::backward(&g, &schedule, &[(vs[dag.n - 1], 0.0)]).unwrap();
        }
        prop_assert_eq!(levels::schedule_builds(), before + 1);
    }
}
