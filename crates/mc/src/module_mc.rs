//! Per input/output pair Monte Carlo of a characterized module.
//!
//! Each sample draws one realisation of the module's variable space
//! (global variables, local PCA components, one private random value per
//! timing arc), evaluates every canonical edge delay to a scalar, and runs
//! one scalar longest-path traversal per input. Pair statistics accumulate
//! in Welford summaries that merge across worker threads.

use crate::{chunk_sizes, McOptions};
use ssta_core::{CoreError, ModuleContext};
use ssta_math::rng::{seeded_rng, NormalSampler};
use ssta_math::Summary;
use ssta_timing::VertexId;

/// Monte Carlo mean/σ per input/output pair.
#[derive(Debug, Clone)]
pub struct PairStats {
    n_inputs: usize,
    n_outputs: usize,
    cells: Vec<Summary>,
}

impl PairStats {
    fn new(n_inputs: usize, n_outputs: usize) -> Self {
        PairStats {
            n_inputs,
            n_outputs,
            cells: vec![Summary::new(); n_inputs * n_outputs],
        }
    }

    fn merge(&mut self, other: &PairStats) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b);
        }
    }

    /// Number of inputs (rows).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs (columns).
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The summary for pair `(i, j)`; empty when the pair is disconnected.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pair(&self, i: usize, j: usize) -> &Summary {
        assert!(i < self.n_inputs && j < self.n_outputs, "pair out of range");
        &self.cells[i * self.n_outputs + j]
    }

    /// Iterates over connected pairs `(i, j, summary)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &Summary)> + '_ {
        self.cells.iter().enumerate().filter_map(move |(k, s)| {
            (s.count() > 0).then_some((k / self.n_outputs, k % self.n_outputs, s))
        })
    }
}

/// Runs the per-pair Monte Carlo on the module's **original** timing graph.
///
/// # Errors
///
/// Propagates graph errors (cannot occur for netlist-derived graphs).
pub fn module_delay_matrix(
    ctx: &ModuleContext,
    options: &McOptions,
) -> Result<PairStats, CoreError> {
    let graph = ctx.graph();
    let order = graph.topo_order()?;
    let inputs = graph.inputs().to_vec();
    let outputs = graph.outputs().to_vec();
    let n_globals = ctx.config().parameters.len();
    let n_locals = ctx.layout().n_locals();

    // Edge snapshot in a traversal-friendly layout.
    let edges: Vec<(u32, u32, usize)> = graph
        .edges_iter()
        .map(|(id, e)| (e.from.0, e.to.0, id.0 as usize))
        .collect();
    let n_slots = edges.iter().map(|&(_, _, s)| s + 1).max().unwrap_or(0);

    let threads = options.resolve_threads();
    let sizes = chunk_sizes(options.samples, threads);

    let partials = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (chunk_idx, &n_samples) in sizes.iter().enumerate() {
            let order = &order;
            let inputs = &inputs;
            let outputs = &outputs;
            let edges = &edges;
            handles.push(s.spawn(move || {
                let mut rng = seeded_rng(options.seed ^ (chunk_idx as u64).wrapping_mul(0x9E37));
                let mut normal = NormalSampler::new();
                let mut stats = PairStats::new(inputs.len(), outputs.len());
                let mut g = vec![0.0; n_globals];
                let mut l = vec![0.0; n_locals];
                let mut delays = vec![0.0f64; n_slots];
                let mut arrival: Vec<f64> = vec![f64::NEG_INFINITY; graph.vertex_bound()];
                for _ in 0..n_samples {
                    normal.fill(&mut rng, &mut g);
                    normal.fill(&mut rng, &mut l);
                    for &(_, _, slot) in edges.iter() {
                        let form = &graph.edge(ssta_timing::EdgeId(slot as u32)).delay;
                        delays[slot] = form.evaluate(&g, &l, normal.sample(&mut rng));
                    }
                    for (i, &vi) in inputs.iter().enumerate() {
                        arrival.fill(f64::NEG_INFINITY);
                        arrival[vi.0 as usize] = 0.0;
                        scalar_forward(graph, order, &delays, &mut arrival);
                        for (j, &vj) in outputs.iter().enumerate() {
                            let a = arrival[vj.0 as usize];
                            if a > f64::NEG_INFINITY {
                                stats.cells[i * outputs.len() + j].push(a);
                            }
                        }
                    }
                }
                stats
            }));
        }
        let mut total = PairStats::new(inputs.len(), outputs.len());
        for h in handles {
            total.merge(&h.join().expect("MC worker panicked"));
        }
        total
    });

    Ok(partials)
}

fn scalar_forward(
    graph: &ssta_timing::TimingGraph<ssta_core::CanonicalForm>,
    order: &[VertexId],
    delays: &[f64],
    arrival: &mut [f64],
) {
    for &v in order {
        let av = arrival[v.0 as usize];
        if av == f64::NEG_INFINITY {
            continue;
        }
        for e in graph.out_edges(v) {
            let edge = graph.edge(e);
            let cand = av + delays[e.0 as usize];
            let slot = &mut arrival[edge.to.0 as usize];
            if cand > *slot {
                *slot = cand;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_core::SstaConfig;
    use ssta_netlist::generators;

    fn ctx() -> ModuleContext {
        let n = generators::ripple_carry_adder(4).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    #[test]
    fn mc_matches_analytic_delay_matrix() {
        let ctx = ctx();
        let analytic = ctx.delay_matrix().unwrap();
        let mc = module_delay_matrix(
            &ctx,
            &McOptions {
                samples: 4000,
                ..Default::default()
            },
        )
        .unwrap();
        for (i, j, d) in analytic.iter() {
            let s = mc.pair(i, j);
            assert!(s.count() > 0, "pair ({i},{j}) missing in MC");
            let mean_err = (d.mean() - s.mean()).abs() / s.mean();
            assert!(mean_err < 0.03, "pair ({i},{j}) mean err {mean_err}");
            let sigma_err = (d.std_dev() - s.std_dev()).abs() / s.std_dev();
            assert!(sigma_err < 0.15, "pair ({i},{j}) sigma err {sigma_err}");
        }
    }

    #[test]
    fn connectivity_agrees_with_analytic() {
        let ctx = ctx();
        let analytic = ctx.delay_matrix().unwrap();
        let mc = module_delay_matrix(
            &ctx,
            &McOptions {
                samples: 50,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..mc.n_inputs() {
            for j in 0..mc.n_outputs() {
                assert_eq!(
                    analytic.get(i, j).is_some(),
                    mc.pair(i, j).count() > 0,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ctx = ctx();
        let opts = McOptions {
            samples: 200,
            seed: 7,
            threads: 2,
        };
        let a = module_delay_matrix(&ctx, &opts).unwrap();
        let b = module_delay_matrix(&ctx, &opts).unwrap();
        for (i, j, s) in a.iter() {
            assert_eq!(s.mean(), b.pair(i, j).mean());
        }
    }

    #[test]
    fn thread_count_does_not_change_sample_total() {
        let ctx = ctx();
        for threads in [1, 3] {
            let mc = module_delay_matrix(
                &ctx,
                &McOptions {
                    samples: 100,
                    seed: 1,
                    threads,
                },
            )
            .unwrap();
            let (_, _, s) = mc.iter().next().unwrap();
            assert_eq!(s.count(), 100);
        }
    }
}
