//! Module characterization: netlist + placement + variation model →
//! a statistical timing graph in canonical form.
//!
//! This is the "original timing graph" side of the paper: before any model
//! extraction, every cell arc becomes an edge whose canonical delay form
//! encodes the arc's sensitivity to each process parameter, split into the
//! global share, the spatially-correlated local share (projected through
//! the module's PCA basis at the cell's grid) and the private random
//! share.

use crate::canonical::CanonicalForm;
use crate::params::{SstaConfig, VariableLayout};
use crate::spatial::GridGeometry;
use crate::CoreError;
use ssta_math::PcaBasis;
use ssta_netlist::{Netlist, Placement, Sensitivity};
use ssta_timing::{allpairs, DelayMatrix, TimingGraph};
use std::sync::Arc;

/// A characterized combinational module: the original statistical timing
/// graph plus everything needed to extract a timing model from it and to
/// re-embed it in a hierarchical design (grid geometry, PCA basis).
#[derive(Debug, Clone)]
pub struct ModuleContext {
    netlist: Arc<Netlist>,
    placement: Arc<Placement>,
    geometry: GridGeometry,
    /// The PCA basis of the grid correlation. The paper uses one
    /// correlation model for all parameters, so this one basis spans
    /// every parameter's local block.
    pca: PcaBasis,
    graph: TimingGraph<CanonicalForm>,
    config: SstaConfig,
}

impl ModuleContext {
    /// Characterizes a module under the given configuration: places it,
    /// partitions its die into grids, decomposes the grid correlation with
    /// PCA, and annotates every timing arc with a canonical delay form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for invalid configurations and
    /// propagates netlist/PCA failures.
    pub fn characterize(netlist: Netlist, config: &SstaConfig) -> Result<Self, CoreError> {
        config.validate()?;
        netlist.validate()?;
        let placement = Placement::rows(&netlist, config.cell_pitch_um);
        let geometry = GridGeometry::from_die(placement.die(), config.grid_pitch_um());

        let cov = config
            .correlation
            .covariance_matrix(&geometry.centers(), geometry.pitch());
        let pca = PcaBasis::from_covariance(&cov, config.pca)?;
        let layout = VariableLayout::new(config.parameters.len(), pca.n_components());

        let graph = TimingGraph::from_netlist(&netlist, |arc| {
            let grid = geometry.grid_of(placement.gate_position(arc.gate));
            characterized_form(
                config,
                layout,
                &pca,
                arc.nominal_ps(),
                arc.cell().sensitivity(),
                grid,
            )
        });
        Ok(ModuleContext {
            netlist: Arc::new(netlist),
            placement: Arc::new(placement),
            geometry,
            pca,
            graph,
            config: config.clone(),
        })
    }

    /// The module netlist.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The module placement (module-local coordinates).
    pub fn placement(&self) -> &Arc<Placement> {
        &self.placement
    }

    /// The grid partition of the module die.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// Layout of the module's independent-variable space: one block of
    /// the basis' components per parameter.
    pub fn layout(&self) -> VariableLayout {
        VariableLayout::new(self.config.parameters.len(), self.pca.n_components())
    }

    /// The PCA basis of the module's grid correlation, shared by every
    /// parameter.
    pub fn pca(&self) -> &PcaBasis {
        &self.pca
    }

    /// The original statistical timing graph.
    pub fn graph(&self) -> &TimingGraph<CanonicalForm> {
        &self.graph
    }

    /// Number of edges in the original graph (the paper's `Eo`).
    pub fn graph_edge_count(&self) -> usize {
        self.graph.n_edges()
    }

    /// The configuration used for characterization.
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// A zero-delay constant in this module's variable space.
    pub fn zero(&self) -> CanonicalForm {
        CanonicalForm::constant(0.0, self.config.parameters.len(), self.layout().n_locals())
    }

    /// The statistical input/output delay matrix of the original graph
    /// (the quantity a timing model must preserve, Section III).
    ///
    /// # Errors
    ///
    /// Propagates graph errors (cannot occur for netlist-derived graphs).
    pub fn delay_matrix(&self) -> Result<DelayMatrix<CanonicalForm>, CoreError> {
        Ok(allpairs::delay_matrix(&self.graph, || self.zero())?)
    }

    /// Extracts a compressed gray-box timing model (Section IV).
    ///
    /// # Errors
    ///
    /// Propagates criticality/graph errors.
    pub fn extract_model(
        &self,
        options: &crate::extract::ExtractOptions,
    ) -> Result<crate::extract::TimingModel, CoreError> {
        crate::extract::extract(self, options)
    }
}

/// The canonical form of a characterized delay at `grid`: each
/// parameter's 1σ response `nominal_ps × sensitivity × σ_rel` split into
/// its global share, its local share projected onto the PCA components
/// through row `grid` of the basis' transform, and its private random
/// share. Combinational arcs and a register's clocked quantities are
/// characterized alike.
pub(crate) fn characterized_form(
    config: &SstaConfig,
    layout: VariableLayout,
    basis: &PcaBasis,
    nominal_ps: f64,
    sensitivity: &Sensitivity,
    grid: usize,
) -> CanonicalForm {
    let shares = &config.correlation;
    let sg = shares.global_share.sqrt();
    let sl = shares.local_share.sqrt();
    let sr = shares.random_share.sqrt();
    // The grid's unit-variance local variable decomposes onto the PCA
    // components via row `grid` of the transform.
    let row = basis.transform().row(grid);

    let mut globals = vec![0.0; config.parameters.len()];
    let mut locals = vec![0.0; layout.n_locals()];
    let mut random_var = 0.0;
    for (p, spec) in config.parameters.iter().enumerate() {
        // First-order magnitude of the delay's response to a 1σ move of
        // parameter p.
        let base = nominal_ps * sensitivity.get(spec.param) * spec.sigma_rel;
        globals[p] = base * sg;
        for (slot, &t) in locals[layout.local_range(p)].iter_mut().zip(row) {
            *slot = base * sl * t;
        }
        random_var += (base * sr) * (base * sr);
    }
    CanonicalForm::from_parts(nominal_ps, globals, locals, random_var.sqrt())
        .expect("finite construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_netlist::generators;
    use ssta_timing::DelayAlgebra;

    fn small_ctx() -> ModuleContext {
        let n = generators::ripple_carry_adder(4).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    #[test]
    fn graph_size_matches_netlist_stats() {
        let ctx = small_ctx();
        let stats = ctx.netlist().stats();
        assert_eq!(ctx.graph_edge_count(), stats.pin_connections);
        assert_eq!(ctx.graph().n_vertices(), stats.inputs + stats.gates);
    }

    #[test]
    fn every_edge_has_full_variation_structure() {
        let ctx = small_ctx();
        for (_, e) in ctx.graph().edges_iter() {
            let d = &e.delay;
            assert!(d.mean() > 0.0);
            assert!(d.variance() > 0.0);
            assert!(d.random() > 0.0, "random share present");
            assert!(d.globals().iter().all(|&g| g > 0.0), "global coefficients");
            assert!(
                d.locals().iter().any(|&l| l.abs() > 0.0),
                "local coefficients"
            );
        }
    }

    #[test]
    fn edge_variance_decomposition_matches_shares() {
        // For a single edge, the variance split must equal the configured
        // global/local/random shares (PCA preserves the local variance).
        let ctx = small_ctx();
        let shares = ctx.config().correlation;
        let (_, e) = ctx.graph().edges_iter().next().unwrap();
        let d = &e.delay;
        let gv: f64 = d.globals().iter().map(|x| x * x).sum();
        let lv: f64 = d.locals().iter().map(|x| x * x).sum();
        let rv = d.random() * d.random();
        let total = gv + lv + rv;
        assert!((gv / total - shares.global_share).abs() < 1e-9);
        assert!((lv / total - shares.local_share).abs() < 1e-9);
        assert!((rv / total - shares.random_share).abs() < 1e-9);
    }

    #[test]
    fn nearby_edges_correlate_more_than_distant_ones() {
        // Use a bigger module so grid distances actually vary.
        let n = generators::iscas85("c880").unwrap();
        let ctx = ModuleContext::characterize(n, &SstaConfig::paper()).unwrap();
        let edges: Vec<&CanonicalForm> = ctx.graph().edges_iter().map(|(_, e)| &e.delay).collect();
        // "Self"-correlation through the shared-variable API equals
        // 1 - random_share (the private random parts never correlate).
        let first = edges.first().unwrap();
        let last = edges.last().unwrap();
        let self_corr = first.correlation(first);
        let expected = 1.0 - ctx.config().correlation.random_share;
        assert!(
            (self_corr - expected).abs() < 1e-9,
            "self correlation {self_corr} != {expected}"
        );
        // First and last gates sit in distant grids: they correlate less
        // than an edge with itself, but at least at the global floor.
        let cross = first.correlation(last);
        assert!(cross < self_corr);
        assert!(cross > 0.0, "global share always correlates");
    }

    #[test]
    fn delay_matrix_entries_are_positive_forms() {
        let ctx = small_ctx();
        let m = ctx.delay_matrix().unwrap();
        assert!(m.n_connected() > 0);
        for (_, _, d) in m.iter() {
            assert!(d.mean() > 0.0);
            assert!(d.std_dev() > 0.0);
        }
    }

    #[test]
    fn relative_variation_is_plausible() {
        // With the paper's sigmas, delay σ/mean per arc lands around
        // 14-16 % (dominated by L at 15.7 % with sensitivity ~0.9).
        let ctx = small_ctx();
        let s: ssta_math::Summary = ctx
            .graph()
            .edges_iter()
            .map(|(_, e)| e.delay.std_dev() / e.delay.mean().max(1e-12))
            .collect();
        assert!(s.mean() > 0.08 && s.mean() < 0.25, "σ/mean = {}", s.mean());
    }

    #[test]
    fn zero_is_additive_identity() {
        let ctx = small_ctx();
        let (_, e) = ctx.graph().edges_iter().next().unwrap();
        let z = ctx.zero();
        let s = DelayAlgebra::sum(&z, &e.delay);
        assert_eq!(s, e.delay);
    }

    #[test]
    fn characterization_is_deterministic() {
        let a = small_ctx();
        let b = small_ctx();
        let (_, ea) = a.graph().edges_iter().next().unwrap();
        let (_, eb) = b.graph().edges_iter().next().unwrap();
        assert_eq!(ea.delay, eb.delay);
    }
}
