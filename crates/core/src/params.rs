//! Process-variation configuration and the independent-variable layout.

use crate::spatial::CorrelationModel;
use crate::CoreError;
use serde::Serialize;
use ssta_math::PcaOptions;
use ssta_netlist::ProcessParam;
use std::ops::Range;

/// One varying process parameter: which one, and its total relative σ.
///
/// The split of that variance into global/local/random shares is common to
/// all parameters and lives in [`CorrelationModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ParameterSpec {
    /// The parameter.
    pub param: ProcessParam,
    /// Total standard deviation as a fraction of the nominal value
    /// (e.g. `0.157` for transistor length in the paper).
    pub sigma_rel: f64,
}

/// Full SSTA configuration: parameters, spatial correlation, placement and
/// grid settings, PCA retention policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SstaConfig {
    /// The varying parameters (paper defaults: L, Tox, Vth, CL).
    pub parameters: Vec<ParameterSpec>,
    /// Spatial-correlation model shared by all parameters.
    pub correlation: CorrelationModel,
    /// Cell-site pitch in µm used by the row placement.
    pub cell_pitch_um: f64,
    /// Grid side length in cell pitches. The paper partitions so that a
    /// grid holds fewer than 100 cells; 10×10 sites achieves that.
    pub grid_side_cells: usize,
    /// PCA component-retention policy.
    pub pca: PcaOptions,
}

impl SstaConfig {
    /// The paper's Section VI settings: σ(L) = 15.7 %, σ(Tox) = 5.3 %,
    /// σ(Vth) = 4.4 %, σ(CL) = 15 %; neighbouring-grid correlation 0.92
    /// decaying to the 0.42 global floor at grid distance 15; grids of
    /// fewer than 100 cells; all PCA components retained.
    pub fn paper() -> Self {
        SstaConfig {
            parameters: vec![
                ParameterSpec {
                    param: ProcessParam::Length,
                    sigma_rel: 0.157,
                },
                ParameterSpec {
                    param: ProcessParam::OxideThickness,
                    sigma_rel: 0.053,
                },
                ParameterSpec {
                    param: ProcessParam::Threshold,
                    sigma_rel: 0.044,
                },
                ParameterSpec {
                    param: ProcessParam::Load,
                    sigma_rel: 0.15,
                },
            ],
            correlation: CorrelationModel::paper(),
            cell_pitch_um: 2.0,
            grid_side_cells: 10,
            pca: PcaOptions::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for empty parameter lists, duplicate
    /// parameters, non-positive sigmas/pitches or invalid variance shares.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.parameters.is_empty() {
            return Err(CoreError::Config {
                reason: "at least one process parameter is required".into(),
            });
        }
        for (i, p) in self.parameters.iter().enumerate() {
            if !(p.sigma_rel > 0.0 && p.sigma_rel < 1.0) {
                return Err(CoreError::Config {
                    reason: format!("sigma_rel {} out of (0, 1) for {}", p.sigma_rel, p.param),
                });
            }
            if self.parameters[..i].iter().any(|q| q.param == p.param) {
                return Err(CoreError::Config {
                    reason: format!("duplicate parameter {}", p.param),
                });
            }
        }
        if self.cell_pitch_um <= 0.0 {
            return Err(CoreError::Config {
                reason: "cell pitch must be positive".into(),
            });
        }
        if self.grid_side_cells == 0 {
            return Err(CoreError::Config {
                reason: "grid side must be at least one cell".into(),
            });
        }
        self.correlation.validate()
    }

    /// Grid pitch in µm (`cell_pitch_um × grid_side_cells`).
    pub fn grid_pitch_um(&self) -> f64 {
        self.cell_pitch_um * self.grid_side_cells as f64
    }
}

impl Default for SstaConfig {
    /// The paper's settings ([`SstaConfig::paper`]).
    fn default() -> Self {
        SstaConfig::paper()
    }
}

/// Layout of a canonical form's variable space: one global slot per
/// parameter, then one block of local PCA components per parameter.
///
/// Every parameter shares the one correlation model, so a variable space
/// has one PCA basis and every block holds its components: the layout
/// is `n_params` equal blocks of `per_param` components. It is derived
/// from the configuration's parameter count and the basis wherever it is
/// needed, and never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariableLayout {
    n_params: usize,
    per_param: usize,
}

impl VariableLayout {
    /// `n_params` local blocks of `per_param` components each.
    pub fn new(n_params: usize, per_param: usize) -> Self {
        VariableLayout {
            n_params,
            per_param,
        }
    }

    /// Number of parameters (= number of global slots).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Local components in each parameter's block.
    pub fn per_param(&self) -> usize {
        self.per_param
    }

    /// Total number of local components across all parameters.
    pub fn n_locals(&self) -> usize {
        self.n_params * self.per_param
    }

    /// The index range of parameter `p`'s local block.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n_params()`.
    pub fn local_range(&self, p: usize) -> Range<usize> {
        assert!(p < self.n_params, "parameter index out of range");
        p * self.per_param..(p + 1) * self.per_param
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SstaConfig::paper().validate().unwrap();
        assert_eq!(SstaConfig::default(), SstaConfig::paper());
    }

    #[test]
    fn paper_sigmas_match_section_six() {
        let c = SstaConfig::paper();
        let sigma = |p: ProcessParam| {
            c.parameters
                .iter()
                .find(|s| s.param == p)
                .map(|s| s.sigma_rel)
                .unwrap()
        };
        assert_eq!(sigma(ProcessParam::Length), 0.157);
        assert_eq!(sigma(ProcessParam::OxideThickness), 0.053);
        assert_eq!(sigma(ProcessParam::Threshold), 0.044);
        assert_eq!(sigma(ProcessParam::Load), 0.15);
    }

    #[test]
    fn grid_holds_less_than_100_cells() {
        let c = SstaConfig::paper();
        assert!(c.grid_side_cells * c.grid_side_cells <= 100);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SstaConfig::paper();
        c.parameters.clear();
        assert!(c.validate().is_err());

        let mut c = SstaConfig::paper();
        c.parameters.push(c.parameters[0]); // duplicate
        assert!(c.validate().is_err());

        let mut c = SstaConfig::paper();
        c.parameters[0].sigma_rel = 1.5;
        assert!(c.validate().is_err());

        let mut c = SstaConfig::paper();
        c.cell_pitch_um = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn layout_ranges_partition_the_locals() {
        let l = VariableLayout::new(3, 5);
        assert_eq!(l.n_params(), 3);
        assert_eq!(l.per_param(), 5);
        assert_eq!(l.n_locals(), 15);
        assert_eq!(l.local_range(0), 0..5);
        assert_eq!(l.local_range(1), 5..10);
        assert_eq!(l.local_range(2), 10..15);
        let empty = VariableLayout::new(4, 0);
        assert_eq!(empty.n_locals(), 0);
        assert_eq!(empty.local_range(3), 0..0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn layout_range_bound_check() {
        let l = VariableLayout::new(1, 2);
        let _ = l.local_range(1);
    }
}
