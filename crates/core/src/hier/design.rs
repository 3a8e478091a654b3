//! Hierarchical design description: placed timing-model instances wired
//! together, with design-level primary inputs and outputs.

use crate::extract::TimingModel;
use crate::module::ModuleContext;
use crate::params::SstaConfig;
use crate::spatial::GridGeometry;
use crate::CoreError;
use ssta_netlist::DieRect;
use std::sync::Arc;

/// One placed instance of a pre-characterized module.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance name (e.g. `"mult_ne"`).
    pub name: String,
    /// The extracted timing model used for analysis.
    pub model: Arc<TimingModel>,
    /// The full characterized module, kept for Monte Carlo flattening.
    /// `None` for true black-box IP where only the model is available.
    pub context: Option<Arc<ModuleContext>>,
    /// Placement offset of the module origin, in µm.
    pub origin: (f64, f64),
}

/// A wire from an instance output port to an instance input port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Connection {
    /// `(instance, output port)` source.
    pub from: (usize, usize),
    /// `(instance, input port)` sink.
    pub to: (usize, usize),
    /// Wire delay in ps (deterministic; the paper's experiment abuts
    /// modules and uses direct connections).
    pub wire_delay_ps: f64,
}

/// A validated hierarchical design.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    die: DieRect,
    config: SstaConfig,
    instances: Vec<Instance>,
    connections: Vec<Connection>,
    pi_bindings: Vec<Vec<(usize, usize)>>,
    po_sources: Vec<(usize, usize)>,
}

impl Design {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Top die rectangle.
    pub fn die(&self) -> DieRect {
        self.die
    }

    /// The analysis configuration (shared with every model).
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// The placed instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Inter-module connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Per design primary input: the `(instance, input port)` sinks it
    /// drives.
    pub fn pi_bindings(&self) -> &[Vec<(usize, usize)>] {
        &self.pi_bindings
    }

    /// Per design primary output: the `(instance, output port)` source.
    pub fn po_sources(&self) -> &[(usize, usize)] {
        &self.po_sources
    }

    /// Each instance's grid geometry translated to its placement — the
    /// inputs of the heterogeneous partition.
    pub fn translated_geometries(&self) -> Vec<GridGeometry> {
        self.instances
            .iter()
            .map(|inst| {
                inst.model
                    .geometry()
                    .translated(inst.origin.0, inst.origin.1)
            })
            .collect()
    }
}

/// Incremental builder for [`Design`], validating on
/// [`finish`](DesignBuilder::finish).
#[derive(Debug)]
pub struct DesignBuilder {
    name: String,
    die: DieRect,
    config: SstaConfig,
    instances: Vec<Instance>,
    connections: Vec<Connection>,
    pi_bindings: Vec<Vec<(usize, usize)>>,
    po_sources: Vec<(usize, usize)>,
}

impl DesignBuilder {
    /// Starts a design on the given die under the given configuration.
    pub fn new(name: impl Into<String>, die: DieRect, config: SstaConfig) -> Self {
        DesignBuilder {
            name: name.into(),
            die,
            config,
            instances: Vec::new(),
            connections: Vec::new(),
            pi_bindings: Vec::new(),
            po_sources: Vec::new(),
        }
    }

    /// Places a model instance at `origin` and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incompatible`] if the model was characterized
    /// under a different configuration, or [`CoreError::Config`] if the
    /// instance does not fit on the die.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        model: Arc<TimingModel>,
        context: Option<Arc<ModuleContext>>,
        origin: (f64, f64),
    ) -> Result<usize, CoreError> {
        model.check_compatible(&self.config)?;
        let (w, h) = model.geometry().extent_um();
        if origin.0 < 0.0
            || origin.1 < 0.0
            || origin.0 + w > self.die.width + 1e-9
            || origin.1 + h > self.die.height + 1e-9
        {
            return Err(CoreError::Config {
                reason: format!(
                    "instance at ({}, {}) with extent ({w}, {h}) exceeds the die",
                    origin.0, origin.1
                ),
            });
        }
        self.instances.push(Instance {
            name: name.into(),
            model,
            context,
            origin,
        });
        Ok(self.instances.len() - 1)
    }

    /// Wires instance `from`'s output port to instance `to`'s input port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for out-of-range ports or instances,
    /// and for a wire delay that is not finite or is negative (`-0.0` is
    /// a zero wire).
    pub fn connect(
        &mut self,
        from: usize,
        from_port: usize,
        to: usize,
        to_port: usize,
        wire_delay_ps: f64,
    ) -> Result<(), CoreError> {
        self.check_output(from, from_port)?;
        self.check_input(to, to_port)?;
        if !(wire_delay_ps.is_finite() && wire_delay_ps >= 0.0) {
            return Err(CoreError::Config {
                reason: format!(
                    "wire from `{}` output {from_port} to `{}` input {to_port} has delay \
                     {wire_delay_ps} ps; a wire delay must be finite and non-negative",
                    self.instances[from].name, self.instances[to].name
                ),
            });
        }
        self.connections.push(Connection {
            from: (from, from_port),
            to: (to, to_port),
            wire_delay_ps,
        });
        Ok(())
    }

    /// Declares a design primary input driving the given instance input
    /// ports; returns the design PI index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for out-of-range targets.
    pub fn expose_input(&mut self, targets: Vec<(usize, usize)>) -> Result<usize, CoreError> {
        if targets.is_empty() {
            return Err(CoreError::Config {
                reason: "design input must drive at least one port".into(),
            });
        }
        for &(inst, port) in &targets {
            self.check_input(inst, port)?;
        }
        self.pi_bindings.push(targets);
        Ok(self.pi_bindings.len() - 1)
    }

    /// Declares a design primary output observing the given instance
    /// output port; returns the design PO index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for out-of-range sources.
    pub fn expose_output(&mut self, inst: usize, port: usize) -> Result<usize, CoreError> {
        self.check_output(inst, port)?;
        self.po_sources.push((inst, port));
        Ok(self.po_sources.len() - 1)
    }

    fn check_input(&self, inst: usize, port: usize) -> Result<(), CoreError> {
        let m = self.instances.get(inst).ok_or_else(|| CoreError::Config {
            reason: format!("instance {inst} does not exist"),
        })?;
        if port >= m.model.n_inputs() {
            return Err(CoreError::Config {
                reason: format!(
                    "input port {port} out of range for `{}` ({} inputs)",
                    m.name,
                    m.model.n_inputs()
                ),
            });
        }
        Ok(())
    }

    fn check_output(&self, inst: usize, port: usize) -> Result<(), CoreError> {
        let m = self.instances.get(inst).ok_or_else(|| CoreError::Config {
            reason: format!("instance {inst} does not exist"),
        })?;
        if port >= m.model.n_outputs() {
            return Err(CoreError::Config {
                reason: format!(
                    "output port {port} out of range for `{}` ({} outputs)",
                    m.name,
                    m.model.n_outputs()
                ),
            });
        }
        Ok(())
    }

    /// Validates and finalizes the design: every instance input port must
    /// be driven exactly once (by a PI or a connection), and at least one
    /// PO must exist.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] describing the first violation.
    pub fn finish(self) -> Result<Design, CoreError> {
        if self.instances.is_empty() || self.po_sources.is_empty() {
            return Err(CoreError::Config {
                reason: "design needs at least one instance and one output".into(),
            });
        }
        let mut driven: Vec<Vec<u32>> = self
            .instances
            .iter()
            .map(|i| vec![0; i.model.n_inputs()])
            .collect();
        for targets in &self.pi_bindings {
            for &(inst, port) in targets {
                driven[inst][port] += 1;
            }
        }
        for c in &self.connections {
            driven[c.to.0][c.to.1] += 1;
        }
        for (i, ports) in driven.iter().enumerate() {
            for (p, &count) in ports.iter().enumerate() {
                if count != 1 {
                    return Err(CoreError::Config {
                        reason: format!(
                            "input port {p} of instance `{}` driven {count} times (must be 1)",
                            self.instances[i].name
                        ),
                    });
                }
            }
        }
        Ok(Design {
            name: self.name,
            die: self.die,
            config: self.config,
            instances: self.instances,
            connections: self.connections,
            pi_bindings: self.pi_bindings,
            po_sources: self.po_sources,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use ssta_netlist::generators;

    fn model_and_ctx() -> (Arc<TimingModel>, Arc<ModuleContext>) {
        let n = generators::ripple_carry_adder(2).unwrap();
        let ctx = Arc::new(ModuleContext::characterize(n, &SstaConfig::paper()).unwrap());
        let model = Arc::new(extract(&ctx, &ExtractOptions::default()).unwrap());
        (model, ctx)
    }

    fn big_die() -> DieRect {
        DieRect {
            width: 1000.0,
            height: 1000.0,
        }
    }

    #[test]
    fn single_instance_design_builds() {
        let (model, ctx) = model_and_ctx();
        let mut b = DesignBuilder::new("d", big_die(), SstaConfig::paper());
        let i = b
            .add_instance("u0", model.clone(), Some(ctx), (0.0, 0.0))
            .unwrap();
        for k in 0..model.n_inputs() {
            b.expose_input(vec![(i, k)]).unwrap();
        }
        for k in 0..model.n_outputs() {
            b.expose_output(i, k).unwrap();
        }
        let d = b.finish().unwrap();
        assert_eq!(d.instances().len(), 1);
        assert_eq!(d.pi_bindings().len(), model.n_inputs());
    }

    #[test]
    fn undriven_input_is_rejected() {
        let (model, _) = model_and_ctx();
        let mut b = DesignBuilder::new("d", big_die(), SstaConfig::paper());
        let i = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        b.expose_output(i, 0).unwrap();
        // No PI bound: every input is undriven.
        assert!(matches!(b.finish(), Err(CoreError::Config { .. })));
    }

    #[test]
    fn doubly_driven_input_is_rejected() {
        let (model, _) = model_and_ctx();
        let mut b = DesignBuilder::new("d", big_die(), SstaConfig::paper());
        let i = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        for k in 0..model.n_inputs() {
            b.expose_input(vec![(i, k)]).unwrap();
        }
        b.expose_input(vec![(i, 0)]).unwrap(); // port 0 now driven twice
        b.expose_output(i, 0).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn out_of_die_instance_is_rejected() {
        let (model, _) = model_and_ctx();
        let mut b = DesignBuilder::new(
            "d",
            DieRect {
                width: 10.0,
                height: 10.0,
            },
            SstaConfig::paper(),
        );
        assert!(b.add_instance("u0", model, None, (5.0, 5.0)).is_err());
    }

    #[test]
    fn incompatible_model_is_rejected() {
        let (model, _) = model_and_ctx();
        let mut other = SstaConfig::paper();
        other.correlation.cutoff_grids = 3.0;
        let mut b = DesignBuilder::new("d", big_die(), other);
        assert!(matches!(
            b.add_instance("u0", model, None, (0.0, 0.0)),
            Err(CoreError::Incompatible { .. })
        ));
    }

    #[test]
    fn port_range_checks() {
        let (model, _) = model_and_ctx();
        let mut b = DesignBuilder::new("d", big_die(), SstaConfig::paper());
        let i = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        assert!(b.expose_input(vec![(i, 999)]).is_err());
        assert!(b.expose_output(i, 999).is_err());
        assert!(b.connect(i, 999, i, 0, 0.0).is_err());
        assert!(b.expose_input(vec![]).is_err());
    }

    #[test]
    fn wire_delays_must_be_finite_and_non_negative() {
        let (model, _) = model_and_ctx();
        let mut b = DesignBuilder::new("d", big_die(), SstaConfig::paper());
        let u0 = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        let u1 = b.add_instance("u1", model, None, (100.0, 0.0)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -50.0] {
            match b.connect(u0, 0, u1, 0, bad) {
                Err(CoreError::Config { reason }) => {
                    assert!(reason.contains("`u0` output 0 to `u1` input 0"), "{reason}")
                }
                other => panic!("{bad} ps wire accepted: {other:?}"),
            }
        }
        for (port, good) in [0.0, -0.0, 12.5].into_iter().enumerate() {
            b.connect(u0, 0, u1, port, good).unwrap();
        }
        assert_eq!(b.connections.len(), 3);
    }
}
