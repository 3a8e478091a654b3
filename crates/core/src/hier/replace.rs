//! Independent-variable replacement (Section V, equation (19)).
//!
//! Each module's timing model expresses local variation in the module's
//! own PCA components `x` (with `p_l = T_m·x`, `x = W_m·p_l`). At design
//! level the same physical grid variables appear as rows of the design
//! transform: `p_l = T_d[rows]·xᵗ`. Substituting,
//!
//! `x = W_m · T_d[rows] · xᵗ  =:  R · xᵗ`
//!
//! so a delay's module-space coefficient vector `a` becomes the
//! design-space vector `Rᵀ·a`. Because the module's grid sub-covariance is
//! embedded unchanged in the design covariance (correlation depends only
//! on distance), `R·Rᵀ = I` and the replacement preserves every variance
//! and intra-module covariance — while *adding* the inter-module
//! correlation that separate variable sets cannot express. Every
//! parameter shares one correlation model, hence one basis on each side,
//! so one `R` per instance maps every parameter's local block.

use crate::canonical::CanonicalForm;
use crate::extract::TimingModel;
use crate::hier::analysis::PhaseTimings;
use crate::hier::design::Design;
use crate::hier::partition::DesignPartition;
use crate::params::VariableLayout;
use crate::CoreError;
use ssta_math::{Matrix, PcaBasis};
use std::time::Instant;

/// The design-level independent-variable space: heterogeneous partition
/// and the PCA basis over all design grids, which every parameter
/// shares. Its [layout](Self::layout) is one block of the basis'
/// components per parameter.
#[derive(Debug, Clone)]
pub struct DesignVariables {
    partition: DesignPartition,
    pca: PcaBasis,
    n_params: usize,
}

impl DesignVariables {
    /// Builds the design variable space: heterogeneous partition followed
    /// by a PCA of the design-level grid covariance (steps 1–2 of Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates PCA failures ([`CoreError::Math`]).
    pub fn build(design: &Design) -> Result<Self, CoreError> {
        Ok(Self::build_profiled(design, 1)?.0)
    }

    /// As [`build`](Self::build), reporting how long each phase
    /// (partition / covariance / eigen) took.
    ///
    /// Every phase runs on the calling thread, so `_threads` is ignored;
    /// the parameter stays because perfbench's layer replay passes it.
    ///
    /// # Errors
    ///
    /// Propagates PCA failures ([`CoreError::Math`]).
    pub fn build_profiled(
        design: &Design,
        _threads: usize,
    ) -> Result<(Self, PhaseTimings), CoreError> {
        let mut phases = PhaseTimings::default();
        let geometries: Vec<_> = design.translated_geometries();
        let config = design.config();

        let started = Instant::now();
        let partition = DesignPartition::build(design.die(), &geometries, config.grid_pitch_um());
        phases.partition_seconds = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let cov = config
            .correlation
            .covariance_matrix(partition.centers(), config.grid_pitch_um());
        phases.covariance_seconds = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let pca = PcaBasis::from_covariance(&cov, config.pca)?;
        phases.eigen_seconds = started.elapsed().as_secs_f64();

        Ok((
            DesignVariables {
                partition,
                pca,
                n_params: config.parameters.len(),
            },
            phases,
        ))
    }

    /// The heterogeneous grid partition.
    pub fn partition(&self) -> &DesignPartition {
        &self.partition
    }

    /// The design PCA basis, shared by every parameter.
    pub fn pca(&self) -> &PcaBasis {
        &self.pca
    }

    /// Layout of the design variable space: one block of the basis'
    /// components per parameter.
    pub fn layout(&self) -> VariableLayout {
        VariableLayout::new(self.n_params, self.pca.n_components())
    }
}

/// The replacement matrix `R` (module components × design components) of
/// one instance. Every parameter's local block maps through it.
#[derive(Debug, Clone)]
pub struct InstanceReplacement {
    r: Matrix,
}

impl InstanceReplacement {
    /// Builds the replacement for instance `idx` of the design
    /// (step 3 of Fig. 5; equation (19)). A model without a PCA basis
    /// has no local components, so its `R` has no rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Math`] on dimension mismatches (impossible for
    /// partitions built from the same design).
    pub fn build(
        model: &TimingModel,
        vars: &DesignVariables,
        idx: usize,
    ) -> Result<Self, CoreError> {
        let design_t = vars.pca.transform();
        let r = match model.pca() {
            Some(module_basis) => {
                // T_d restricted to this instance's grid rows.
                let rows: Vec<usize> = vars.partition.instance_range(idx).collect();
                let cols: Vec<usize> = (0..design_t.cols()).collect();
                let t_sub = design_t.select(&rows, &cols);
                // R = W_m · T_d[rows]  (k_m × k_d).
                module_basis.whiten().matmul(&t_sub)?
            }
            None => Matrix::zeros(0, design_t.cols()),
        };
        Ok(InstanceReplacement { r })
    }

    /// The replacement matrix `R`.
    pub fn matrix(&self) -> &Matrix {
        &self.r
    }

    /// Rewrites a canonical form from module space into design space:
    /// each parameter's local block maps through `Rᵀ`; nominal, globals
    /// and the private random part are unchanged. Allocates the result;
    /// see [`apply_into`](Self::apply_into) for the in-place rewrite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Math`] if the form does not match the module
    /// layout.
    pub fn apply(
        &self,
        form: &CanonicalForm,
        module_layout: VariableLayout,
        design_layout: VariableLayout,
    ) -> Result<CanonicalForm, CoreError> {
        let mut locals = vec![0.0; design_layout.n_locals()];
        self.apply_into(form.locals(), module_layout, design_layout, &mut locals)?;
        Ok(form.with_locals(locals))
    }

    /// Writes the design-space image of a module-space local coefficient
    /// vector into `dst`: `dst[design block p] = Rᵀ · src[module block
    /// p]` for every parameter `p`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Math`] if a block of `src` or `dst` does not
    /// match the replacement's shape.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is shorter than its layout.
    pub fn apply_into(
        &self,
        src: &[f64],
        module_layout: VariableLayout,
        design_layout: VariableLayout,
        dst: &mut [f64],
    ) -> Result<(), CoreError> {
        dst.fill(0.0);
        for p in 0..design_layout.n_params() {
            self.r.add_mat_vec_transposed(
                &src[module_layout.local_range(p)],
                &mut dst[design_layout.local_range(p)],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use crate::hier::design::DesignBuilder;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::{generators, DieRect};
    use std::sync::Arc;

    fn two_instance_design() -> (Design, Arc<TimingModel>) {
        let netlist = generators::ripple_carry_adder(8).unwrap();
        let config = SstaConfig::paper();
        let ctx = Arc::new(ModuleContext::characterize(netlist, &config).unwrap());
        let model = Arc::new(extract(&ctx, &ExtractOptions::default()).unwrap());
        let (mw, mh) = model.geometry().extent_um();
        let die = DieRect {
            width: mw * 2.0,
            height: mh,
        };
        let mut b = DesignBuilder::new("pair", die, config);
        let a = b
            .add_instance("u0", Arc::clone(&model), Some(Arc::clone(&ctx)), (0.0, 0.0))
            .unwrap();
        let c = b
            .add_instance("u1", Arc::clone(&model), Some(Arc::clone(&ctx)), (mw, 0.0))
            .unwrap();
        // Feed u0's sum outputs into u1's a-inputs; everything else is PI.
        for k in 0..8 {
            b.connect(a, k, c, k, 0.0).unwrap();
        }
        for k in 0..17 {
            b.expose_input(vec![(a, k)]).unwrap();
        }
        for k in 8..17 {
            b.expose_input(vec![(c, k)]).unwrap();
        }
        for k in 0..9 {
            b.expose_output(c, k).unwrap();
        }
        // u0's carry-out is also observable.
        b.expose_output(a, 8).unwrap();
        (b.finish().unwrap(), model)
    }

    #[test]
    fn replacement_is_row_orthonormal() {
        // R·Rᵀ = I: the module components remain unit-variance independent
        // after replacement (the embedding-preservation property).
        let (design, model) = two_instance_design();
        let vars = DesignVariables::build(&design).unwrap();
        for idx in 0..2 {
            let repl = InstanceReplacement::build(&model, &vars, idx).unwrap();
            let r = repl.matrix();
            assert_eq!(r.rows(), model.layout().per_param());
            assert_eq!(r.cols(), vars.layout().per_param());
            let rrt = r.matmul(&r.transposed()).unwrap();
            let eye = Matrix::identity(r.rows());
            let err = rrt.max_abs_diff(&eye).unwrap();
            assert!(err < 1e-6, "instance {idx}: ||RRᵀ - I|| = {err}");
        }
    }

    #[test]
    fn replacement_preserves_variance_and_mean() {
        let (design, model) = two_instance_design();
        let vars = DesignVariables::build(&design).unwrap();
        let repl = InstanceReplacement::build(&model, &vars, 0).unwrap();
        for (_, e) in model.graph().edges_iter() {
            let mapped = repl.apply(&e.delay, model.layout(), vars.layout()).unwrap();
            assert_eq!(mapped.mean(), e.delay.mean());
            assert!(
                (mapped.variance() - e.delay.variance()).abs()
                    < 1e-9 * e.delay.variance().max(1e-9),
                "variance drifted: {} -> {}",
                e.delay.variance(),
                mapped.variance()
            );
            assert_eq!(mapped.globals(), e.delay.globals());
            assert_eq!(mapped.random(), e.delay.random());
        }
    }

    #[test]
    fn replacement_preserves_intra_module_covariance() {
        let (design, model) = two_instance_design();
        let vars = DesignVariables::build(&design).unwrap();
        let repl = InstanceReplacement::build(&model, &vars, 1).unwrap();
        let edges: Vec<&CanonicalForm> = model
            .graph()
            .edges_iter()
            .map(|(_, e)| &e.delay)
            .take(10)
            .collect();
        for a in &edges {
            for b in &edges {
                let ma = repl.apply(a, model.layout(), vars.layout()).unwrap();
                let mb = repl.apply(b, model.layout(), vars.layout()).unwrap();
                let want = a.covariance(b);
                let got = ma.covariance(&mb);
                assert!(
                    (want - got).abs() < 1e-9 * want.abs().max(1e-6),
                    "covariance drifted: {want} -> {got}"
                );
            }
        }
    }

    #[test]
    fn same_module_different_instances_now_correlate() {
        // The whole point of the replacement: the *same* edge delay of two
        // abutted instances shares local variables at design level.
        let (design, model) = two_instance_design();
        let vars = DesignVariables::build(&design).unwrap();
        let r0 = InstanceReplacement::build(&model, &vars, 0).unwrap();
        let r1 = InstanceReplacement::build(&model, &vars, 1).unwrap();
        let (_, e) = model.graph().edges_iter().next().unwrap();
        let a = r0.apply(&e.delay, model.layout(), vars.layout()).unwrap();
        let b = r1.apply(&e.delay, model.layout(), vars.layout()).unwrap();
        // Local parts now overlap: covariance beyond the global share.
        let local_cov: f64 = a.locals().iter().zip(b.locals()).map(|(x, y)| x * y).sum();
        assert!(
            local_cov > 0.0,
            "abutted instances must share local variation, got {local_cov}"
        );
    }
}
