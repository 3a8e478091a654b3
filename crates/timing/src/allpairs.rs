//! All-pairs input/output delay computation (Sapatnekar, ISCAS'96).
//!
//! Section III of the paper: a timing model must preserve the matrix
//! `M_ij` of maximum delays from every input `i` to every output `j`. This
//! module computes that matrix with one forward propagation per input —
//! the same "PERT-like" traversal the paper uses — generically over the
//! delay algebra.
//!
//! All passes share one [`LevelSchedule`]: the graph is levelized once,
//! not once per input (the extraction cold path used to pay
//! `O(inputs × (V + E))` in redundant topological sorting). The passes
//! run one after another on the calling thread, in input order.
//!
//! A row reads only output arrivals, so each pass is a
//! [`levels::forward_with`] pass with the plain step: it drops each
//! interior arrival once its last fanout has pulled it, and holds one
//! pass's frontier rather than a value per vertex. The rows carry the
//! bits a keep-everything [`levels::forward`] gives.

use crate::levels::{self, LevelSchedule};
use crate::{DelayAlgebra, TimingError, TimingGraph};

/// The `m × n` matrix of maximum input-to-output delays.
///
/// `None` entries mean no path exists from that input to that output.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayMatrix<D> {
    n_inputs: usize,
    n_outputs: usize,
    entries: Vec<Option<D>>,
}

impl<D: DelayAlgebra> DelayMatrix<D> {
    /// Number of input rows.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of output columns.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The maximum delay from input `i` to output `j`, if connected.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> Option<&D> {
        assert!(
            i < self.n_inputs && j < self.n_outputs,
            "index out of range"
        );
        self.entries[i * self.n_outputs + j].as_ref()
    }

    /// Iterates over all connected `(input, output, delay)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &D)> + '_ {
        self.entries.iter().enumerate().filter_map(move |(k, d)| {
            d.as_ref()
                .map(|d| (k / self.n_outputs, k % self.n_outputs, d))
        })
    }

    /// Number of connected pairs.
    pub fn n_connected(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Largest absolute difference of `f(delay)` against another matrix,
    /// over pairs connected in **both** matrices; also returns how many
    /// pairs are connected in one matrix but not the other.
    pub fn compare_with(&self, other: &DelayMatrix<D>, f: impl Fn(&D) -> f64) -> (f64, usize) {
        assert_eq!(self.n_inputs, other.n_inputs, "matrix shape mismatch");
        assert_eq!(self.n_outputs, other.n_outputs, "matrix shape mismatch");
        let mut worst = 0.0f64;
        let mut mismatched = 0usize;
        for (a, b) in self.entries.iter().zip(&other.entries) {
            match (a, b) {
                (Some(a), Some(b)) => worst = worst.max((f(a) - f(b)).abs()),
                (None, None) => {}
                _ => mismatched += 1,
            }
        }
        (worst, mismatched)
    }
}

/// Computes the full input/output delay matrix: one forward propagation
/// per input, starting from the value produced by `zero` (the additive
/// identity of the delay algebra, e.g. `0.0` or a constant-zero canonical
/// form). The graph is levelized once and the schedule shared across all
/// inputs, whose passes run in input order on the calling thread.
///
/// # Errors
///
/// Returns [`TimingError::CyclicGraph`] for cyclic graphs.
pub fn delay_matrix<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    zero: impl Fn() -> D,
) -> Result<DelayMatrix<D>, TimingError> {
    let schedule = LevelSchedule::build(graph)?;
    let outputs = graph.outputs();
    let mut entries: Vec<Option<D>> = Vec::with_capacity(graph.inputs().len() * outputs.len());
    for &input in graph.inputs() {
        let arrival = levels::forward_with(graph, &schedule, [(input, zero())], |acc, a, e| {
            D::max_plus_into(acc, a, &graph.edge(e).delay);
            Ok::<(), TimingError>(())
        })?;
        entries.extend(outputs.iter().map(|&vj| arrival[vj.0 as usize].clone()));
    }
    Ok(DelayMatrix {
        n_inputs: graph.inputs().len(),
        n_outputs: outputs.len(),
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimingGraph, VertexId};

    /// Two inputs, two outputs:
    /// i0 --1--> m --2--> o0 ; m --4--> o1 ; i1 --3--> o1 (direct)
    fn two_by_two() -> TimingGraph<f64> {
        let mut g = TimingGraph::new();
        let i0 = g.add_input();
        let i1 = g.add_input();
        let m = g.add_vertex();
        let o0 = g.add_vertex();
        let o1 = g.add_vertex();
        g.mark_output(o0);
        g.mark_output(o1);
        g.add_edge(i0, m, 1.0);
        g.add_edge(m, o0, 2.0);
        g.add_edge(m, o1, 4.0);
        g.add_edge(i1, o1, 3.0);
        g
    }

    #[test]
    fn matrix_entries_match_paths() {
        let g = two_by_two();
        let m = delay_matrix(&g, || 0.0).unwrap();
        assert_eq!(m.get(0, 0), Some(&3.0));
        assert_eq!(m.get(0, 1), Some(&5.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(1, 1), Some(&3.0));
        assert_eq!(m.n_connected(), 3);
    }

    #[test]
    fn iter_yields_connected_pairs_only() {
        let g = two_by_two();
        let m = delay_matrix(&g, || 0.0).unwrap();
        let triples: Vec<(usize, usize, f64)> = m.iter().map(|(i, j, &d)| (i, j, d)).collect();
        assert_eq!(triples, vec![(0, 0, 3.0), (0, 1, 5.0), (1, 1, 3.0)]);
    }

    #[test]
    fn compare_with_detects_differences() {
        let g = two_by_two();
        let m1 = delay_matrix(&g, || 0.0).unwrap();
        let mut g2 = two_by_two();
        // Change one edge delay.
        let e = g2.edges_iter().next().unwrap().0;
        g2.set_delay(e, 1.5);
        let m2 = delay_matrix(&g2, || 0.0).unwrap();
        let (worst, mismatched) = m1.compare_with(&m2, |&d| d);
        assert!((worst - 0.5).abs() < 1e-12);
        assert_eq!(mismatched, 0);
    }

    #[test]
    fn compare_with_counts_connectivity_mismatches() {
        let g = two_by_two();
        let m1 = delay_matrix(&g, || 0.0).unwrap();
        let mut g2 = two_by_two();
        // Remove the i1 -> o1 edge: pair (1,1) loses connectivity.
        let e = g2
            .edges_iter()
            .find(|(_, e)| e.from == VertexId(1))
            .unwrap()
            .0;
        g2.remove_edge(e);
        let m2 = delay_matrix(&g2, || 0.0).unwrap();
        let (_, mismatched) = m1.compare_with(&m2, |&d| d);
        assert_eq!(mismatched, 1);
    }

    #[test]
    fn one_schedule_build_per_matrix() {
        // The historical bug: every per-input pass re-ran Kahn's
        // algorithm. The matrix must levelize exactly once.
        let g = two_by_two();
        let before = crate::levels::schedule_builds();
        let _ = delay_matrix(&g, || 0.0).unwrap();
        assert_eq!(crate::levels::schedule_builds(), before + 1);
    }

    #[test]
    fn matrix_on_multi_edge_graph_uses_max() {
        let mut g: TimingGraph<f64> = TimingGraph::new();
        let i = g.add_input();
        let o = g.add_vertex();
        g.mark_output(o);
        g.add_edge(i, o, 1.0);
        g.add_edge(i, o, 7.0);
        g.add_edge(i, o, 3.0);
        let m = delay_matrix(&g, || 0.0).unwrap();
        assert_eq!(m.get(0, 0), Some(&7.0));
    }
}
