//! The extracted gray-box statistical timing model.
//!
//! This is the artifact an IP vendor would ship instead of a netlist: a
//! compressed timing graph with the same ports and (statistically) the
//! same input/output delay matrix, plus the spatial metadata — grid
//! geometry and the PCA basis — that the hierarchical variable-replacement
//! step needs to re-correlate the model inside a larger design. It
//! travels as the binary payload of [`crate::codec`], whose decoder
//! validates it; the `ip_model_handoff` example exercises that handoff
//! end to end.

use crate::canonical::CanonicalForm;
use crate::extract::SequentialModel;
use crate::module::ModuleContext;
use crate::params::{SstaConfig, VariableLayout};
use crate::spatial::GridGeometry;
use crate::CoreError;
use serde::Serialize;
use ssta_math::PcaBasis;
use ssta_timing::{allpairs, DelayMatrix, TimingGraph};

/// Size/effort accounting of one extraction run — the raw material of the
/// paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExtractionStats {
    /// Edges in the original timing graph (`Eo`).
    pub original_edges: usize,
    /// Vertices in the original timing graph (`Vo`).
    pub original_vertices: usize,
    /// Edges dropped by the criticality threshold.
    pub edges_pruned: usize,
    /// Input/output pairs whose nominal path had to be restored.
    pub restored_paths: usize,
    /// Input/output pairs re-admitted by the accuracy-repair extension.
    pub repaired_pairs: usize,
    /// Merge fixpoint rounds.
    pub merge_rounds: usize,
    /// Vertices removed by serial merges.
    pub serial_merges: usize,
    /// Edge groups collapsed by parallel merges.
    pub parallel_merges: usize,
    /// Edges in the extracted model (`Em`).
    pub model_edges: usize,
    /// Vertices in the extracted model (`Vm`).
    pub model_vertices: usize,
}

impl ExtractionStats {
    /// Edge compression ratio `pe = Em / Eo`.
    pub fn edge_ratio(&self) -> f64 {
        self.model_edges as f64 / self.original_edges.max(1) as f64
    }

    /// Vertex compression ratio `pv = Vm / Vo`.
    pub fn vertex_ratio(&self) -> f64 {
        self.model_vertices as f64 / self.original_vertices.max(1) as f64
    }
}

/// A pre-characterized statistical timing model of a module —
/// combinational, or registered when a [`SequentialModel`] interface is
/// attached.
#[derive(Debug, Clone, Serialize)]
pub struct TimingModel {
    name: String,
    graph: TimingGraph<CanonicalForm>,
    geometry: GridGeometry,
    /// The PCA basis of the grid correlation, shared by every parameter;
    /// `None` for a basis-free model (the interface-only SDF import).
    pca: Option<PcaBasis>,
    config: SstaConfig,
    stats: ExtractionStats,
    /// Sequential interface (setup/hold/launch constraint arcs); `None`
    /// for purely combinational models.
    sequential: Option<SequentialModel>,
}

impl TimingModel {
    pub(crate) fn new(
        ctx: &ModuleContext,
        graph: TimingGraph<CanonicalForm>,
        stats: ExtractionStats,
    ) -> Self {
        TimingModel {
            name: ctx.netlist().name().to_owned(),
            graph,
            geometry: ctx.geometry(),
            pca: Some(ctx.pca().clone()),
            config: ctx.config().clone(),
            stats,
            sequential: None,
        }
    }

    /// Attaches a sequential interface (registered-module extraction).
    pub(crate) fn with_sequential(mut self, sequential: SequentialModel) -> Self {
        self.sequential = Some(sequential);
        self
    }

    /// Builds a model from parts that arrive from outside — the binary
    /// decoder and [`assemble`](Self::assemble) — and admits it only if
    /// it [validates](Self::validate).
    ///
    /// # Errors
    ///
    /// The first violation, as a reason each caller wraps in its
    /// boundary's error variant.
    pub(crate) fn from_parts(
        name: String,
        graph: TimingGraph<CanonicalForm>,
        geometry: GridGeometry,
        pca: Option<PcaBasis>,
        config: SstaConfig,
        stats: ExtractionStats,
        sequential: Option<SequentialModel>,
    ) -> Result<Self, String> {
        let model = TimingModel {
            name,
            graph,
            geometry,
            pca,
            config,
            stats,
            sequential,
        };
        model.validate()?;
        Ok(model)
    }

    /// Assembles a model from externally produced parts — the seam the
    /// SDF interchange layer uses to turn imported cells into analyzable
    /// models. The parts come from arbitrary outside data, so the model
    /// is validated before it is admitted, with the same checks the
    /// binary decoder applies: PCA basis against grid, every form against
    /// the variable space, every constraint arc against the ports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] naming the first part that
    /// does not fit the model's variable space.
    pub fn assemble(
        name: String,
        graph: TimingGraph<CanonicalForm>,
        geometry: GridGeometry,
        pca: Option<PcaBasis>,
        config: SstaConfig,
        stats: ExtractionStats,
        sequential: Option<SequentialModel>,
    ) -> Result<Self, CoreError> {
        Self::from_parts(name, graph, geometry, pca, config, stats, sequential)
            .map_err(|reason| CoreError::Incompatible { reason })
    }

    /// Checks that the model's parts describe one compact graph and one
    /// variable space, the one its [layout](Self::layout) derives from
    /// the configuration and the basis:
    ///
    /// * the graph is compact: every vertex and edge slot is live, and
    ///   input port `i` is vertex `i` (removed slots are extraction's
    ///   working state only: it compacts its graph before it builds a
    ///   model);
    /// * the stats' `model_edges` and `model_vertices` are the graph's
    ///   counts;
    /// * every edge delay lives in the `(n_params, n_locals)` variable
    ///   space;
    /// * the PCA basis covers the geometry's `nx · ny` grids, with an
    ///   `n_grids × k` transform and a `k × n_grids` whitening matrix, or
    ///   there is no basis and one grid (the interface-only SDF import);
    /// * every constraint arc lives in the same variable space and names
    ///   a real port.
    ///
    /// Every length a later computation allocates is then tied to data
    /// the model actually carries; a geometry claiming 2³⁰ grid columns
    /// over a small basis is rejected here instead of aborting the
    /// process when a design partitions it.
    ///
    /// # Errors
    ///
    /// The first violation, as a human-readable reason.
    fn validate(&self) -> Result<(), String> {
        let graph = &self.graph;
        let (n_vertices, n_edges) = (graph.n_vertices(), graph.n_edges());
        if graph.vertex_bound() != n_vertices || graph.edge_bound() != n_edges {
            return Err(format!(
                "graph has {} vertex and {} edge slots but {n_vertices} live vertices and \
                 {n_edges} live edges; a model graph has no removed slots",
                graph.vertex_bound(),
                graph.edge_bound()
            ));
        }
        let misplaced = graph
            .inputs()
            .iter()
            .enumerate()
            .find(|&(i, v)| v.0 as usize != i);
        if let Some((i, v)) = misplaced {
            return Err(format!("input port {i} is vertex {}, not vertex {i}", v.0));
        }
        let stats = (self.stats.model_edges, self.stats.model_vertices);
        if stats != (n_edges, n_vertices) {
            return Err(format!(
                "stats claim {} edges and {} vertices, but the graph has {n_edges} and \
                 {n_vertices}",
                stats.0, stats.1
            ));
        }
        let layout = self.layout();
        let (n_params, n_locals) = (layout.n_params(), layout.n_locals());
        for (id, edge) in graph.edges_iter() {
            let (globals, locals) = (edge.delay.n_globals(), edge.delay.n_locals());
            if globals != n_params || locals != n_locals {
                return Err(format!(
                    "edge {} ({} -> {}) has a delay over {globals} globals and {locals} \
                     locals, but the model's variable space has {n_params} and {n_locals}",
                    id.0, edge.from.0, edge.to.0
                ));
            }
        }
        let (nx, ny) = (self.geometry.nx(), self.geometry.ny());
        let n_grids = nx
            .checked_mul(ny)
            .ok_or_else(|| format!("grid of {nx} x {ny} overflows"))?;
        match &self.pca {
            None if n_grids != 1 => {
                return Err(format!(
                    "model has no PCA basis over {n_grids} grids; a basis-free model \
                     has one grid"
                ))
            }
            None => {}
            Some(basis) => {
                let k = basis.n_components();
                let transform = (basis.transform().rows(), basis.transform().cols());
                let whiten = (basis.whiten().rows(), basis.whiten().cols());
                if transform != (n_grids, k) || whiten != (k, n_grids) {
                    return Err(format!(
                        "PCA basis has {k} components, a {}x{} transform and a {}x{} \
                         whitening matrix, but the geometry holds {n_grids} grids",
                        transform.0, transform.1, whiten.0, whiten.1
                    ));
                }
            }
        }
        if let Some(seq) = &self.sequential {
            seq.validate(
                self.graph.inputs().len(),
                self.graph.outputs().len(),
                n_params,
                n_locals,
            )
            .map_err(|reason| format!("sequential interface is invalid: {reason}"))?;
        }
        Ok(())
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compressed timing graph.
    pub fn graph(&self) -> &TimingGraph<CanonicalForm> {
        &self.graph
    }

    /// Number of input ports.
    pub fn n_inputs(&self) -> usize {
        self.graph.inputs().len()
    }

    /// Number of output ports.
    pub fn n_outputs(&self) -> usize {
        self.graph.outputs().len()
    }

    /// Edges in the model (`Em`).
    pub fn edge_count(&self) -> usize {
        self.graph.n_edges()
    }

    /// Vertices in the model (`Vm`).
    pub fn vertex_count(&self) -> usize {
        self.graph.n_vertices()
    }

    /// Extraction accounting.
    pub fn stats(&self) -> &ExtractionStats {
        &self.stats
    }

    /// The sequential interface, if this is a registered module's model.
    pub fn sequential(&self) -> Option<&SequentialModel> {
        self.sequential.as_ref()
    }

    /// The module's grid partition (module-local coordinates).
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// The module's independent-variable layout: one block of the
    /// basis' components per parameter, or empty blocks without a basis.
    pub fn layout(&self) -> VariableLayout {
        let per_param = self.pca.as_ref().map_or(0, PcaBasis::n_components);
        VariableLayout::new(self.config.parameters.len(), per_param)
    }

    /// The PCA basis from characterization, shared by every parameter;
    /// `None` for an interface-only model, whose forms carry no local
    /// components.
    pub fn pca(&self) -> Option<&PcaBasis> {
        self.pca.as_ref()
    }

    /// The configuration the model was characterized under.
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// A zero-delay constant in the model's variable space.
    pub fn zero(&self) -> CanonicalForm {
        CanonicalForm::constant(0.0, self.config.parameters.len(), self.layout().n_locals())
    }

    /// The model's statistical input/output delay matrix.
    ///
    /// # Errors
    ///
    /// Propagates graph errors (cannot occur for extracted models).
    pub fn delay_matrix(&self) -> Result<DelayMatrix<CanonicalForm>, CoreError> {
        Ok(allpairs::delay_matrix(&self.graph, || self.zero())?)
    }

    /// Checks that this model was characterized compatibly with `config`
    /// (same parameters, correlation model and grid pitch) so it can be
    /// embedded in a design analyzed under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] describing the first mismatch.
    pub fn check_compatible(&self, config: &SstaConfig) -> Result<(), CoreError> {
        if self.config.parameters != config.parameters {
            return Err(CoreError::Incompatible {
                reason: format!("model `{}` uses different process parameters", self.name),
            });
        }
        if self.config.correlation != config.correlation {
            return Err(CoreError::Incompatible {
                reason: format!("model `{}` uses a different correlation model", self.name),
            });
        }
        if (self.config.grid_pitch_um() - config.grid_pitch_um()).abs() > 1e-9 {
            return Err(CoreError::Incompatible {
                reason: format!("model `{}` uses a different grid pitch", self.name),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use crate::params::SstaConfig;
    use ssta_netlist::generators;
    use ssta_timing::EdgeId;

    fn model() -> TimingModel {
        let n = generators::ripple_carry_adder(6).unwrap();
        let ctx = ModuleContext::characterize(n, &SstaConfig::paper()).unwrap();
        extract(&ctx, &ExtractOptions::default()).unwrap()
    }

    #[test]
    fn ratios_are_consistent_with_counts() {
        let m = model();
        let s = m.stats();
        assert_eq!(s.model_edges, m.edge_count());
        assert_eq!(s.model_vertices, m.vertex_count());
        assert!((s.edge_ratio() - s.model_edges as f64 / s.original_edges as f64).abs() < 1e-12);
    }

    #[test]
    fn codec_round_trip_preserves_model() {
        let m = model();
        let back = crate::codec::decode_model(&crate::codec::encode_model(&m)).unwrap();
        assert_eq!(back.name(), m.name());
        assert_eq!(back.edge_count(), m.edge_count());
        assert_eq!(back.n_inputs(), m.n_inputs());
        // The delay matrices agree entry by entry.
        let a = m.delay_matrix().unwrap();
        let b = back.delay_matrix().unwrap();
        let (worst, mismatched) = a.compare_with(&b, |d| d.mean());
        assert_eq!(mismatched, 0);
        assert!(worst < 1e-12);
    }

    #[test]
    fn compatibility_check_accepts_own_config() {
        let m = model();
        m.check_compatible(&SstaConfig::paper()).unwrap();
    }

    #[test]
    fn compatibility_check_rejects_other_correlation() {
        let m = model();
        let mut other = SstaConfig::paper();
        other.correlation.cutoff_grids = 5.0;
        assert!(matches!(
            m.check_compatible(&other),
            Err(CoreError::Incompatible { .. })
        ));
    }

    #[test]
    fn compatibility_check_rejects_other_pitch() {
        let m = model();
        let mut other = SstaConfig::paper();
        other.grid_side_cells = 5;
        assert!(m.check_compatible(&other).is_err());
    }

    #[test]
    fn assemble_admits_only_parts_of_one_variable_space() {
        let m = model();
        let admits = |pca: Option<&PcaBasis>, geometry: GridGeometry, config: &SstaConfig| {
            let parts = TimingModel::assemble(
                m.name().to_owned(),
                m.graph().clone(),
                geometry,
                pca.cloned(),
                config.clone(),
                *m.stats(),
                None,
            );
            match parts {
                Ok(_) => true,
                Err(CoreError::Incompatible { .. }) => false,
                Err(e) => panic!("not an incompatibility: {e}"),
            }
        };
        let (pca, g, config) = (m.pca(), m.geometry(), m.config());
        assert!(admits(pca, g, config));
        // Locals with no basis to give them meaning.
        assert!(!admits(None, g, config));
        // A basis over fewer grids than the geometry holds.
        let wider = GridGeometry::from_raw_parts(g.origin(), g.pitch(), g.nx() + 1, g.ny());
        assert!(!admits(pca, wider, config));
        // A grid count that overflows.
        let huge = GridGeometry::from_raw_parts(g.origin(), g.pitch(), usize::MAX, 2);
        assert!(!admits(pca, huge, config));
        // Fewer parameters than the forms carry global coefficients for.
        let mut fewer = config.clone();
        fewer.parameters.pop();
        assert!(!admits(pca, g, &fewer));
    }

    #[test]
    fn assemble_admits_only_compact_graphs_its_stats_count() {
        let m = model();
        // The reason `assemble` gives for `graph` under stats counting
        // `edges` and `vertices`, or `None` when it admits the model.
        let rejects = |graph: TimingGraph<CanonicalForm>, edges: usize, vertices: usize| {
            let stats = ExtractionStats {
                model_edges: edges,
                model_vertices: vertices,
                ..*m.stats()
            };
            let parts = TimingModel::assemble(
                m.name().to_owned(),
                graph,
                m.geometry(),
                m.pca().cloned(),
                m.config().clone(),
                stats,
                None,
            );
            match parts {
                Ok(_) => None,
                Err(CoreError::Incompatible { reason }) => Some(reason),
                Err(e) => panic!("not an incompatibility: {e}"),
            }
        };
        let (e, v) = (m.edge_count(), m.vertex_count());
        assert_eq!(rejects(m.graph().clone(), e, v), None);

        // Stats that miscount the graph.
        for (edges, vertices) in [(5, v), (e, v + 1)] {
            let reason = rejects(m.graph().clone(), edges, vertices).expect("miscounted");
            assert!(
                reason.contains(&format!(
                    "stats claim {edges} edges and {vertices} vertices"
                )),
                "{reason}"
            );
        }

        // A removed edge slot and a removed vertex slot, under stats that
        // count the live ones.
        let mut removed_edge = m.graph().clone();
        removed_edge.remove_edge(EdgeId(0));
        let reason = rejects(removed_edge, e - 1, v).expect("a removed edge slot");
        assert!(reason.contains("no removed slots"), "{reason}");
        let mut removed_vertex = m.graph().clone();
        let spare = removed_vertex.add_vertex();
        removed_vertex.remove_vertex(spare);
        let reason = rejects(removed_vertex, e, v).expect("a removed vertex slot");
        assert!(reason.contains("no removed slots"), "{reason}");

        // One arc into an output, its input added first or second: only
        // input port 0 at vertex 0 is admitted.
        let one_arc = |input_first: bool| {
            let mut g = TimingGraph::new();
            let (input, output) = if input_first {
                (g.add_input(), g.add_vertex())
            } else {
                let output = g.add_vertex();
                (g.add_input(), output)
            };
            g.add_edge(input, output, m.zero());
            g.mark_output(output);
            g
        };
        assert_eq!(rejects(one_arc(true), 1, 2), None);
        let reason = rejects(one_arc(false), 1, 2).expect("input 0 at vertex 1");
        assert!(reason.contains("input port 0 is vertex 1"), "{reason}");
    }
}
