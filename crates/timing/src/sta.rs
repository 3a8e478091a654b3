//! Scalar static timing analysis baseline.
//!
//! The paper's Section I motivation: corner-based STA is too pessimistic
//! under growing process variation, which is what SSTA fixes. This module
//! provides the STA side of that comparison — nominal and corner analysis
//! plus critical-path extraction — on the same [`TimingGraph`] engine the
//! statistical analysis uses.

use crate::{levels, DelayAlgebra, EdgeId, LevelSchedule, TimingError, TimingGraph};

/// Arrival times of one levelized pass with every input seeded by
/// `zero()`.
fn arrivals_from_inputs<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    mut zero: impl FnMut() -> D,
) -> Result<Vec<Option<D>>, TimingError> {
    let schedule = LevelSchedule::build(graph)?;
    let sources: Vec<_> = graph.inputs().iter().map(|&v| (v, zero())).collect();
    levels::forward(graph, &schedule, &sources)
}

/// The overall graph delay: maximum arrival time over all outputs, with
/// arrival 0 at every input.
///
/// # Errors
///
/// * [`TimingError::CyclicGraph`] for cyclic graphs;
/// * [`TimingError::NoPath`] when no output is reachable from any input.
pub fn graph_delay(graph: &TimingGraph<f64>) -> Result<f64, TimingError> {
    let arrival = arrivals_from_inputs(graph, || 0.0)?;
    graph
        .outputs()
        .iter()
        .filter_map(|&v| arrival[v.0 as usize])
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.max(d)))
        })
        .ok_or(TimingError::NoPath)
}

/// The critical path: the input-to-output path with the largest total
/// delay. Returns `(delay, edges along the path in order)`.
///
/// # Errors
///
/// * [`TimingError::CyclicGraph`] for cyclic graphs;
/// * [`TimingError::NoPath`] when no output is reachable.
pub fn critical_path(graph: &TimingGraph<f64>) -> Result<(f64, Vec<EdgeId>), TimingError> {
    let arrival = arrivals_from_inputs(graph, || 0.0)?;

    // Find the worst output.
    let mut end = None;
    for &v in graph.outputs() {
        if let Some(d) = arrival[v.0 as usize] {
            if end.is_none_or(|(_, best)| d > best) {
                end = Some((v, d));
            }
        }
    }
    let (mut v, total) = end.ok_or(TimingError::NoPath)?;

    // Walk backwards along the arg-max predecessor edges.
    let mut path = Vec::new();
    const TOL: f64 = 1e-9;
    'walk: while arrival[v.0 as usize].expect("on path") > TOL {
        for e in graph.in_edges(v) {
            let edge = graph.edge(e);
            if let Some(a) = arrival[edge.from.0 as usize] {
                if (a + edge.delay - arrival[v.0 as usize].expect("on path")).abs() < TOL {
                    path.push(e);
                    v = edge.from;
                    continue 'walk;
                }
            }
        }
        // Arrival value not explained by any predecessor: v is a source
        // with a non-zero initial value, impossible here.
        break;
    }
    path.reverse();
    Ok((total, path))
}

/// Per-output arrival times (0 at every input), `None` for unreachable
/// outputs.
///
/// # Errors
///
/// Returns [`TimingError::CyclicGraph`] for cyclic graphs.
pub fn output_arrivals<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    zero: impl FnMut() -> D,
) -> Result<Vec<Option<D>>, TimingError> {
    let arrival = arrivals_from_inputs(graph, zero)?;
    Ok(graph
        .outputs()
        .iter()
        .map(|&v| arrival[v.0 as usize].clone())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_netlist::generators;

    fn adder_graph() -> TimingGraph<f64> {
        let n = generators::ripple_carry_adder(8).unwrap();
        TimingGraph::from_netlist(&n, |ctx| ctx.nominal_ps())
    }

    #[test]
    fn graph_delay_positive_and_consistent_with_critical_path() {
        let g = adder_graph();
        let d = graph_delay(&g).unwrap();
        let (cp_delay, path) = critical_path(&g).unwrap();
        assert!((d - cp_delay).abs() < 1e-9);
        let sum: f64 = path.iter().map(|&e| g.edge(e).delay).sum();
        assert!((sum - d).abs() < 1e-9, "path edges sum to the delay");
    }

    #[test]
    fn critical_path_is_connected_input_to_output() {
        let g = adder_graph();
        let (_, path) = critical_path(&g).unwrap();
        assert!(!path.is_empty());
        // Starts at an input.
        let first = g.edge(path[0]);
        assert!(g.inputs().contains(&first.from));
        // Consecutive edges share vertices.
        for w in path.windows(2) {
            assert_eq!(g.edge(w[0]).to, g.edge(w[1]).from);
        }
        // Ends at an output.
        let last = g.edge(*path.last().unwrap());
        assert!(g.outputs().contains(&last.to));
    }

    #[test]
    fn deeper_adder_has_longer_delay() {
        let d8 = graph_delay(&adder_graph()).unwrap();
        let n16 = generators::ripple_carry_adder(16).unwrap();
        let g16 = TimingGraph::from_netlist(&n16, |ctx| ctx.nominal_ps());
        let d16 = graph_delay(&g16).unwrap();
        assert!(d16 > d8 * 1.5, "ripple chains scale with width");
    }

    #[test]
    fn no_path_is_reported() {
        let mut g: TimingGraph<f64> = TimingGraph::new();
        let _i = g.add_input();
        let o = g.add_vertex();
        g.mark_output(o);
        assert_eq!(graph_delay(&g), Err(TimingError::NoPath));
        assert!(critical_path(&g).is_err());
    }

    #[test]
    fn output_arrivals_per_port() {
        let g = adder_graph();
        let arr = output_arrivals(&g, || 0.0).unwrap();
        assert_eq!(arr.len(), g.outputs().len());
        assert!(arr.iter().all(|a| a.is_some()));
        // Later sum bits of a ripple adder arrive later.
        let first = arr[0].unwrap();
        let last = arr[7].unwrap();
        assert!(last > first);
    }
}
