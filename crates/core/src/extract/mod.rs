//! Gray-box statistical timing-model extraction (Section IV).
//!
//! Pipeline (Fig. 3 of the paper):
//!
//! 1. compute the maximum criticality `c_m` of every edge;
//! 2. remove edges with `c_m < δ`;
//! 3. apply serial and parallel merge operations iteratively.
//!
//! Step 1 only has to decide `c_m ≥ δ`, so it stops scoring an edge as
//! soon as one input/output pair lifts it to δ (see
//! [`criticality`](crate::criticality)); the keep set is the exact one.
//!
//! Step 2 can — rarely — disconnect an input/output pair whose paths all
//! consist of individually sub-threshold edges. The paper ignores this;
//! [`ExtractOptions::ensure_connectivity`] (default on) restores the
//! nominally-longest path for any pair that would lose connectivity, so a
//! model never reports "no path" where the module had one.

mod merge;
mod model;
mod sequential;

pub use merge::{reduce, MergeStats};
pub use model::{ExtractionStats, TimingModel};
pub use sequential::{extract_registered, ConstraintArc, SequentialModel};

use crate::canonical::CanonicalForm;
use crate::criticality::{criticalities_until, CriticalityOptions};
use crate::module::ModuleContext;
use crate::CoreError;
use ssta_timing::{DelayAlgebra, EdgeId, TimingGraph, VertexId};

/// Options for [`extract`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractOptions {
    /// Criticality threshold δ; edges with `c_m < δ` are pruned. The paper
    /// uses 0.05.
    pub delta: f64,
    /// Restore the nominally-longest path of any input/output pair that
    /// pruning would disconnect.
    pub ensure_connectivity: bool,
    /// Accuracy repair (extension beyond the paper): after pruning, pairs
    /// whose analytic mean delay in the kept subgraph falls short of the
    /// original by more than this relative tolerance get their edges
    /// re-admitted at progressively lower pair-specific thresholds. This
    /// protects against pathological reconvergence where *every* path of a
    /// pair is individually sub-threshold — a case the paper's benchmarks
    /// do not exhibit but heavily reconvergent circuits do. `None`
    /// disables the repair (the paper's exact algorithm).
    pub accuracy_repair: Option<f64>,
    /// Settings for the criticality engine.
    pub criticality: CriticalityOptions,
}

/// Bound on accuracy-repair rounds.
pub(crate) const MAX_REPAIR_ROUNDS: usize = 4;

/// Safety bound on merge iterations.
pub(crate) const MAX_MERGE_ROUNDS: usize = 64;

impl Default for ExtractOptions {
    /// The paper's settings (δ = 0.05, connectivity repair) plus accuracy
    /// repair at a 2 % mean tolerance.
    fn default() -> Self {
        ExtractOptions {
            delta: 0.05,
            ensure_connectivity: true,
            accuracy_repair: Some(0.02),
            criticality: CriticalityOptions::default(),
        }
    }
}

impl ExtractOptions {
    /// The paper's algorithm exactly: no accuracy repair, no connectivity
    /// restoration.
    pub fn paper_exact() -> Self {
        ExtractOptions {
            ensure_connectivity: false,
            accuracy_repair: None,
            ..Default::default()
        }
    }
}

/// Extracts a compressed timing model from a characterized module.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for δ outside `[0, 1]` and propagates
/// criticality/graph errors.
pub fn extract(ctx: &ModuleContext, options: &ExtractOptions) -> Result<TimingModel, CoreError> {
    if !(0.0..=1.0).contains(&options.delta) {
        return Err(CoreError::Config {
            reason: format!("delta {} outside [0, 1]", options.delta),
        });
    }
    let graph = ctx.graph();
    let original_edges = graph.n_edges();
    let original_vertices = graph.n_vertices();

    // Step 1: maximum criticality per edge. Pruning reads only
    // `c_m >= δ`, so an edge stops being scored once it reaches δ.
    let cms = criticalities_until(graph, &ctx.zero(), &options.criticality, options.delta)?;

    // Step 2: decide the keep set.
    let mut keep: Vec<bool> = vec![false; cms.len()];
    for (id, _) in graph.edges_iter() {
        keep[id.0 as usize] = cms[id.0 as usize] >= options.delta;
    }
    let mut restored_paths = 0;
    if options.ensure_connectivity {
        restored_paths = repair_connectivity(graph, &mut keep)?;
    }
    let mut repaired_pairs = 0;
    if let Some(tolerance) = options.accuracy_repair {
        repaired_pairs = repair_accuracy(ctx, &mut keep, tolerance, options.delta)?;
    }

    // Materialize the pruned graph.
    let mut pruned = graph.clone();
    let to_remove: Vec<EdgeId> = pruned
        .edges_iter()
        .filter(|(id, _)| !keep[id.0 as usize])
        .map(|(id, _)| id)
        .collect();
    let edges_pruned = to_remove.len();
    for e in to_remove {
        pruned.remove_edge(e);
    }
    drop_dead_vertices(&mut pruned);

    // Step 3: merge to fixpoint.
    let merge_stats = reduce(&mut pruned, MAX_MERGE_ROUNDS);

    let (model_graph, _) = pruned.compact();
    let stats = ExtractionStats {
        original_edges,
        original_vertices,
        edges_pruned,
        restored_paths,
        repaired_pairs,
        merge_rounds: merge_stats.rounds,
        serial_merges: merge_stats.serial_merges,
        parallel_merges: merge_stats.parallel_merges,
        model_edges: model_graph.n_edges(),
        model_vertices: model_graph.n_vertices(),
    };
    Ok(TimingModel::new(ctx, model_graph, stats))
}

/// For every input/output pair connected in the full graph but not in the
/// keep set, marks the nominally-longest path's edges as kept. Returns the
/// number of restored pairs.
fn repair_connectivity(
    graph: &TimingGraph<CanonicalForm>,
    keep: &mut [bool],
) -> Result<usize, CoreError> {
    let outputs: Vec<VertexId> = {
        let mut o = graph.outputs().to_vec();
        o.sort();
        o.dedup();
        o
    };
    // One topological sort serves every pass below (two per input).
    let order = graph.topo_order().map_err(CoreError::Timing)?;
    let mut restored = 0;
    for &vi in graph.inputs() {
        // Nominal arrival + connectivity in the full graph.
        let full = nominal_forward(graph, &order, vi, None);
        // Connectivity in the kept subgraph.
        let kept = nominal_forward(graph, &order, vi, Some(keep));
        for &vj in &outputs {
            if full[vj.0 as usize].is_some() && kept[vj.0 as usize].is_none() {
                restore_path(graph, &full, vi, vj, keep);
                restored += 1;
            }
        }
    }
    Ok(restored)
}

/// Scalar forward propagation on nominal delays over a precomputed
/// topological order, optionally restricted to kept edges. Returns
/// per-vertex `Option<(arrival, predecessor edge)>`.
fn nominal_forward(
    graph: &TimingGraph<CanonicalForm>,
    order: &[VertexId],
    source: VertexId,
    keep: Option<&[bool]>,
) -> Vec<Option<(f64, Option<EdgeId>)>> {
    let mut arr: Vec<Option<(f64, Option<EdgeId>)>> = vec![None; graph.vertex_bound()];
    arr[source.0 as usize] = Some((0.0, None));
    for &v in order {
        let Some((av, _)) = arr[v.0 as usize] else {
            continue;
        };
        for e in graph.out_edges(v) {
            if let Some(keep) = keep {
                if !keep[e.0 as usize] {
                    continue;
                }
            }
            let edge = graph.edge(e);
            let cand = av + edge.delay.mean();
            let slot = &mut arr[edge.to.0 as usize];
            if slot.is_none_or(|(prev, _)| cand > prev) {
                *slot = Some((cand, Some(e)));
            }
        }
    }
    arr
}

/// Accuracy repair: for every pair whose kept-subgraph analytic mean falls
/// more than `tolerance` (relative) below the full graph's, re-admit that
/// pair's edges at a progressively lower pair-specific criticality
/// threshold. Returns the number of distinct pairs repaired.
fn repair_accuracy(
    ctx: &ModuleContext,
    keep: &mut [bool],
    tolerance: f64,
    delta: f64,
) -> Result<usize, CoreError> {
    let graph = ctx.graph();
    let zero = ctx.zero();
    let outputs: Vec<VertexId> = {
        let mut o = graph.outputs().to_vec();
        o.sort();
        o.dedup();
        o
    };
    // One levelization serves every pass below: the reference loop,
    // every repair round's kept-subgraph sweeps, and the per-pair
    // criticality probes.
    let schedule = ssta_timing::LevelSchedule::build(graph).map_err(CoreError::Timing)?;

    // Reference means from the full graph, one forward pass per input;
    // like the kept-subgraph sweeps below, it reads only the outputs.
    let mut reference: Vec<Vec<Option<f64>>> = Vec::with_capacity(graph.inputs().len());
    for &vi in graph.inputs() {
        let arr = ssta_timing::levels::forward_with(
            graph,
            &schedule,
            [(vi, zero.clone())],
            |acc: &mut Option<_>, a: &_, e| {
                CanonicalForm::max_plus_into(acc, a, &graph.edge(e).delay);
                Ok::<(), CoreError>(())
            },
        )?;
        reference.push(
            outputs
                .iter()
                .map(|&vj| arr[vj.0 as usize].as_ref().map(|f| f.mean()))
                .collect(),
        );
    }

    let mut repaired = std::collections::HashSet::new();
    for round in 0..MAX_REPAIR_ROUNDS {
        let mut failing: Vec<(usize, usize)> = Vec::new();
        for (i, &vi) in graph.inputs().iter().enumerate() {
            // The kept subgraph: the step skips every pruned edge.
            let arr = ssta_timing::levels::forward_with(
                graph,
                &schedule,
                [(vi, zero.clone())],
                |acc: &mut Option<_>, a: &_, e: EdgeId| {
                    if keep[e.0 as usize] {
                        CanonicalForm::max_plus_into(acc, a, &graph.edge(e).delay);
                    }
                    Ok::<(), CoreError>(())
                },
            )?;
            for (j, &vj) in outputs.iter().enumerate() {
                let Some(want) = reference[i][j] else {
                    continue;
                };
                let got = arr[vj.0 as usize].as_ref().map_or(0.0, |f| f.mean());
                if (want - got) / want > tolerance {
                    failing.push((i, j));
                }
            }
        }
        if failing.is_empty() {
            break;
        }
        let threshold = delta / 4.0f64.powi(round as i32 + 1);
        for &(i, j) in &failing {
            let cij = crate::criticality::pair_criticalities_with(
                graph,
                &schedule,
                &zero,
                graph.inputs()[i],
                outputs[j],
            )?;
            for (slot, &c) in cij.iter().enumerate() {
                if c >= threshold {
                    keep[slot] = true;
                }
            }
            repaired.insert((i, j));
        }
    }
    Ok(repaired.len())
}

/// Walks the predecessor chain from `vj` back to `vi`, marking edges kept.
fn restore_path(
    graph: &TimingGraph<CanonicalForm>,
    full: &[Option<(f64, Option<EdgeId>)>],
    vi: VertexId,
    vj: VertexId,
    keep: &mut [bool],
) {
    let mut v = vj;
    while v != vi {
        let Some((_, Some(e))) = full[v.0 as usize] else {
            break; // defensive: chain ended unexpectedly
        };
        keep[e.0 as usize] = true;
        v = graph.edge(e).from;
    }
}

/// Removes vertices (and their incident edges) that are not on any live
/// input-to-output path.
fn drop_dead_vertices(graph: &mut TimingGraph<CanonicalForm>) {
    let fwd = graph.reachable_from_inputs();
    let bwd = graph.reaches_outputs();
    let dead: Vec<VertexId> = graph
        .vertices()
        .filter(|v| !(fwd[v.0 as usize] && bwd[v.0 as usize]))
        .collect();
    for &v in &dead {
        let incident: Vec<EdgeId> = graph.in_edges(v).chain(graph.out_edges(v)).collect();
        for e in incident {
            graph.remove_edge(e);
        }
    }
    for v in dead {
        // Inputs/outputs are always on some path in valid modules; if an
        // input truly reaches nothing it must stay (it is a port).
        if graph.inputs().contains(&v) || graph.outputs().contains(&v) {
            continue;
        }
        graph.remove_vertex(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::generators;

    fn ctx(name: &str) -> ModuleContext {
        let n = generators::iscas85(name).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    #[test]
    fn extraction_compresses_c432() {
        let ctx = ctx("c432");
        let model = extract(&ctx, &ExtractOptions::default()).unwrap();
        let stats = model.stats();
        assert!(stats.model_edges < stats.original_edges);
        assert!(stats.model_vertices < stats.original_vertices);
        // The paper reports pe in the 9-43% band across ISCAS85.
        let pe = stats.model_edges as f64 / stats.original_edges as f64;
        assert!(pe < 0.8, "pe = {pe}");
    }

    #[test]
    fn model_preserves_port_counts() {
        let ctx = ctx("c432");
        let model = extract(&ctx, &ExtractOptions::default()).unwrap();
        assert_eq!(model.n_inputs(), ctx.netlist().n_inputs());
        assert_eq!(model.n_outputs(), ctx.netlist().n_outputs());
    }

    #[test]
    fn model_preserves_connectivity() {
        let ctx = ctx("c432");
        let model = extract(&ctx, &ExtractOptions::default()).unwrap();
        let orig = ctx.delay_matrix().unwrap();
        let reduced = model.delay_matrix().unwrap();
        let (_, mismatched) = orig.compare_with(&reduced, |d| d.mean());
        assert_eq!(mismatched, 0, "connectivity must be preserved");
    }

    #[test]
    fn model_delay_matrix_is_accurate() {
        let ctx = ctx("c432");
        let model = extract(&ctx, &ExtractOptions::default()).unwrap();
        let orig = ctx.delay_matrix().unwrap();
        let reduced = model.delay_matrix().unwrap();
        // Relative mean error per pair within ~2% (paper: < 1.3% vs MC).
        for (i, j, d) in orig.iter() {
            let r = reduced.get(i, j).expect("connectivity preserved");
            let rel = (d.mean() - r.mean()).abs() / d.mean();
            assert!(rel < 0.02, "pair ({i},{j}) mean error {rel}");
            let rel_sigma = (d.std_dev() - r.std_dev()).abs() / d.std_dev();
            assert!(rel_sigma < 0.05, "pair ({i},{j}) sigma error {rel_sigma}");
        }
    }

    #[test]
    fn delta_zero_keeps_connectivity_and_only_merges() {
        let ctx = ctx("c432");
        let model = extract(
            &ctx,
            &ExtractOptions {
                delta: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        // With no pruning, drift comes only from re-associating Clark max
        // operations during merges (Clark's max is not associative); it
        // must stay well below 1% of each pair delay.
        let orig = ctx.delay_matrix().unwrap();
        let reduced = model.delay_matrix().unwrap();
        let (_, mismatched) = orig.compare_with(&reduced, |d| d.mean());
        assert_eq!(mismatched, 0);
        for (i, j, d) in orig.iter() {
            let r = reduced.get(i, j).expect("connectivity preserved");
            let rel = (d.mean() - r.mean()).abs() / d.mean();
            assert!(rel < 0.01, "pair ({i},{j}) mean drift {rel}");
        }
    }

    #[test]
    fn larger_delta_gives_smaller_model() {
        // Monotonicity holds for the paper's raw algorithm (the accuracy
        // repair deliberately counteracts over-pruning, so it is disabled
        // here).
        let ctx = ctx("c432");
        let small = extract(
            &ctx,
            &ExtractOptions {
                delta: 0.01,
                accuracy_repair: None,
                ..Default::default()
            },
        )
        .unwrap();
        let large = extract(
            &ctx,
            &ExtractOptions {
                delta: 0.3,
                accuracy_repair: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(large.edge_count() <= small.edge_count());
    }

    #[test]
    fn extraction_is_bit_deterministic() {
        // The engine content-addresses models and reproduces them from
        // cache, and parallel/serial engine runs must agree bit-exactly —
        // so two extractions of the same inputs must produce *identical*
        // model graphs (not merely statistically equivalent ones).
        let a = extract(&ctx("c432"), &ExtractOptions::default()).unwrap();
        let b = extract(&ctx("c432"), &ExtractOptions::default()).unwrap();
        let ga = serde_json::to_string(a.graph()).unwrap();
        let gb = serde_json::to_string(b.graph()).unwrap();
        assert_eq!(ga, gb, "model graphs must be bit-identical");
    }

    #[test]
    fn invalid_delta_is_rejected() {
        let ctx = ctx("c432");
        assert!(extract(
            &ctx,
            &ExtractOptions {
                delta: 1.5,
                ..Default::default()
            }
        )
        .is_err());
    }
}
