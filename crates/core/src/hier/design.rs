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

/// Incremental builder for [`Design`]: each call checks what it adds,
/// and [`finish`](DesignBuilder::finish) checks the whole under
/// [`check_wiring`].
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
        let c = Connection {
            from: (from, from_port),
            to: (to, to_port),
            wire_delay_ps,
        };
        check_connection(&self.instances, &c)?;
        self.connections.push(c);
        Ok(())
    }

    /// Declares a design primary input driving the given instance input
    /// ports; returns the design PI index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an empty or out-of-range target
    /// list.
    pub fn expose_input(&mut self, targets: Vec<(usize, usize)>) -> Result<usize, CoreError> {
        check_targets(&self.instances, &targets)?;
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
        check_output(&self.instances, inst, port)?;
        self.po_sources.push((inst, port));
        Ok(self.po_sources.len() - 1)
    }

    /// Validates and finalizes the design under [`check_wiring`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] describing the first violation.
    pub fn finish(self) -> Result<Design, CoreError> {
        let ports: Vec<_> = self.instances.iter().map(Ports::ports).collect();
        check_wiring(
            &ports,
            &self.connections,
            &self.pi_bindings,
            &self.po_sources,
        )?;
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

/// The wiring rules of a design over each instance's `(name, inputs,
/// outputs)`, checked in this order: at least one instance and one
/// primary output; each connection's output port, input port and wire
/// delay (finite and non-negative; `-0.0` is a zero wire); each primary
/// input's targets (at least one, each an input port); each primary
/// output's source; and every input port driven exactly once.
/// [`DesignBuilder`] checks each item as it is added, and the engine's
/// spec builder checks a spec before any model exists.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for the first violation.
pub fn check_wiring(
    ports: &[(&str, usize, usize)],
    connections: &[Connection],
    pi_bindings: &[Vec<(usize, usize)>],
    po_sources: &[(usize, usize)],
) -> Result<(), CoreError> {
    if ports.is_empty() || po_sources.is_empty() {
        return Err(CoreError::Config {
            reason: "design needs at least one instance and one output".into(),
        });
    }
    for c in connections {
        check_connection(ports, c)?;
    }
    for targets in pi_bindings {
        check_targets(ports, targets)?;
    }
    for &(inst, port) in po_sources {
        check_output(ports, inst, port)?;
    }
    let mut driven: Vec<Vec<u32>> = ports
        .iter()
        .map(|&(_, inputs, _)| vec![0; inputs])
        .collect();
    let sinks = pi_bindings.iter().flatten().copied();
    for (inst, port) in sinks.chain(connections.iter().map(|c| c.to)) {
        driven[inst][port] += 1;
    }
    for (&(name, ..), counts) in ports.iter().zip(&driven) {
        if let Some((p, &count)) = counts.iter().enumerate().find(|&(_, &n)| n != 1) {
            return Err(CoreError::Config {
                reason: format!(
                    "input port {p} of instance `{name}` driven {count} times (must be 1)"
                ),
            });
        }
    }
    Ok(())
}

/// What the wiring rules read of an instance: `(name, inputs, outputs)`.
trait Ports {
    fn ports(&self) -> (&str, usize, usize);
}

impl Ports for Instance {
    fn ports(&self) -> (&str, usize, usize) {
        (&self.name, self.model.n_inputs(), self.model.n_outputs())
    }
}

impl Ports for (&str, usize, usize) {
    fn ports(&self) -> (&str, usize, usize) {
        *self
    }
}

/// The name of instance `inst` if `port` is one of its inputs.
fn check_input<P: Ports>(instances: &[P], inst: usize, port: usize) -> Result<&str, CoreError> {
    let (name, inputs, _) = ports_of(instances, inst)?;
    if port >= inputs {
        return Err(CoreError::Config {
            reason: format!("input port {port} out of range for `{name}` ({inputs} inputs)"),
        });
    }
    Ok(name)
}

/// The name of instance `inst` if `port` is one of its outputs.
fn check_output<P: Ports>(instances: &[P], inst: usize, port: usize) -> Result<&str, CoreError> {
    let (name, _, outputs) = ports_of(instances, inst)?;
    if port >= outputs {
        return Err(CoreError::Config {
            reason: format!("output port {port} out of range for `{name}` ({outputs} outputs)"),
        });
    }
    Ok(name)
}

/// Instance `inst`'s ports, or the error that it does not exist.
fn ports_of<P: Ports>(instances: &[P], inst: usize) -> Result<(&str, usize, usize), CoreError> {
    instances
        .get(inst)
        .map(Ports::ports)
        .ok_or_else(|| CoreError::Config {
            reason: format!("instance {inst} does not exist"),
        })
}

/// A connection's ports, then its wire delay.
fn check_connection<P: Ports>(instances: &[P], c: &Connection) -> Result<(), CoreError> {
    let ((from, from_port), (to, to_port)) = (c.from, c.to);
    let from = check_output(instances, from, from_port)?;
    let to = check_input(instances, to, to_port)?;
    let delay = c.wire_delay_ps;
    if !(delay.is_finite() && delay >= 0.0) {
        return Err(CoreError::Config {
            reason: format!(
                "wire from `{from}` output {from_port} to `{to}` input {to_port} has delay \
                 {delay} ps; a wire delay must be finite and non-negative"
            ),
        });
    }
    Ok(())
}

/// A primary input's target list: non-empty, and every target an input.
fn check_targets<P: Ports>(instances: &[P], targets: &[(usize, usize)]) -> Result<(), CoreError> {
    if targets.is_empty() {
        return Err(CoreError::Config {
            reason: "design input must drive at least one port".into(),
        });
    }
    for &(inst, port) in targets {
        check_input(instances, inst, port)?;
    }
    Ok(())
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
