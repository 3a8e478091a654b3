//! Pre-extraction design specification.
//!
//! [`ssta_core::Design`] is built from already-extracted models — the
//! right input for one-shot analysis, but too late for an engine that
//! wants to decide *whether* to extract at all. A [`DesignSpec`] is the
//! same hierarchy expressed one level earlier: module *definitions*
//! (netlists) plus instances referencing them, with the wiring of the
//! eventual design. [`DesignSpecBuilder::finish`] refuses wiring that
//! breaks [`ssta_core::hier::check_wiring`] over the definitions'
//! netlist ports, so an engine never sees a malformed spec; it resolves
//! every definition to a model (cache or fresh extraction) and only
//! then assembles the `Design`.

use crate::error::EngineError;
use ssta_core::hier::{check_wiring, Connection};
use ssta_core::{netlist_digest, CoreError, NetlistDigest};
use ssta_netlist::{DieRect, Netlist};
use std::sync::{Arc, OnceLock};

/// Identifier of a module definition within one [`DesignSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(pub usize);

/// A module definition: a named netlist shared by any number of
/// instances.
#[derive(Debug, Clone)]
pub struct ModuleDef {
    /// Definition name (defaults to the netlist name).
    pub name: String,
    /// The module netlist.
    pub netlist: Arc<Netlist>,
    /// Memoized canonical-form digest of the netlist structure. Shared
    /// across clones (scenario sweeps fingerprint the same spec under K
    /// configurations; the netlist is canonicalized exactly once).
    digest: Arc<OnceLock<NetlistDigest>>,
}

impl ModuleDef {
    /// The configuration-independent digest of this definition's
    /// canonical structural form, computed on first use and cached for
    /// the lifetime of the spec (and every clone of it).
    pub fn structural_digest(&self) -> &NetlistDigest {
        self.digest.get_or_init(|| netlist_digest(&self.netlist))
    }
}

/// One placed instance of a module definition.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Instance name.
    pub name: String,
    /// The definition this instance refers to.
    pub module: ModuleId,
    /// Placement offset of the module origin, in µm.
    pub origin: (f64, f64),
}

/// A hierarchical design expressed over module definitions rather than
/// extracted models. Only [`DesignSpecBuilder::finish`] makes one, so
/// its wiring holds.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    pub(crate) name: String,
    pub(crate) die: DieRect,
    pub(crate) modules: Vec<ModuleDef>,
    pub(crate) instances: Vec<InstanceSpec>,
    pub(crate) connections: Vec<Connection>,
    pub(crate) pi_bindings: Vec<Vec<(usize, usize)>>,
    pub(crate) po_sources: Vec<(usize, usize)>,
}

impl DesignSpec {
    /// Starts building a spec for a design named `name` on `die`.
    pub fn builder(name: impl Into<String>, die: DieRect) -> DesignSpecBuilder {
        DesignSpecBuilder {
            spec: DesignSpec {
                name: name.into(),
                die,
                modules: Vec::new(),
                instances: Vec::new(),
                connections: Vec::new(),
                pi_bindings: Vec::new(),
                po_sources: Vec::new(),
            },
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module definitions.
    pub fn modules(&self) -> &[ModuleDef] {
        &self.modules
    }

    /// The placed instances.
    pub fn instances(&self) -> &[InstanceSpec] {
        &self.instances
    }
}

/// Incremental builder for [`DesignSpec`].
#[derive(Debug)]
pub struct DesignSpecBuilder {
    spec: DesignSpec,
}

impl DesignSpecBuilder {
    /// Registers a module definition and returns its id. The same
    /// netlist may be registered once and instantiated many times — the
    /// engine also deduplicates *identical* definitions registered
    /// separately (same structure, by content fingerprint).
    pub fn add_module(&mut self, netlist: Netlist) -> ModuleId {
        let name = netlist.name().to_owned();
        self.spec.modules.push(ModuleDef {
            name,
            netlist: Arc::new(netlist),
            digest: Arc::new(OnceLock::new()),
        });
        ModuleId(self.spec.modules.len() - 1)
    }

    /// Places an instance of `module` at `origin`; returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Spec`] for an unknown module id.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        module: ModuleId,
        origin: (f64, f64),
    ) -> Result<usize, EngineError> {
        if module.0 >= self.spec.modules.len() {
            return Err(EngineError::Spec {
                reason: format!("module id {} does not exist", module.0),
            });
        }
        self.spec.instances.push(InstanceSpec {
            name: name.into(),
            module,
            origin,
        });
        Ok(self.spec.instances.len() - 1)
    }

    /// Wires instance `from`'s output port to instance `to`'s input port
    /// with a zero wire. [`finish`](Self::finish) checks the instances
    /// and ports.
    pub fn connect(&mut self, from: usize, from_port: usize, to: usize, to_port: usize) {
        self.connect_with_delay(from, from_port, to, to_port, 0.0);
    }

    /// As [`connect`](Self::connect) with an explicit wire delay;
    /// [`finish`](Self::finish) refuses one that is not finite or is
    /// negative (`-0.0` is a zero wire).
    pub fn connect_with_delay(
        &mut self,
        from: usize,
        from_port: usize,
        to: usize,
        to_port: usize,
        wire_delay_ps: f64,
    ) {
        self.spec.connections.push(Connection {
            from: (from, from_port),
            to: (to, to_port),
            wire_delay_ps,
        });
    }

    /// Declares a design primary input driving the given instance input
    /// ports; returns the design PI index. [`finish`](Self::finish)
    /// refuses an empty list and checks each port.
    pub fn expose_input(&mut self, targets: Vec<(usize, usize)>) -> usize {
        self.spec.pi_bindings.push(targets);
        self.spec.pi_bindings.len() - 1
    }

    /// Declares a design primary output observing the given instance
    /// output port; returns the design PO index. [`finish`](Self::finish)
    /// checks the port.
    pub fn expose_output(&mut self, inst: usize, port: usize) -> usize {
        self.spec.po_sources.push((inst, port));
        self.spec.po_sources.len() - 1
    }

    /// Finalizes the spec under [`check_wiring`], with each instance's
    /// port counts taken from its definition's netlist, so a malformed
    /// spec is refused before any engine resolves a module.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Spec`] for the first violation, with the
    /// reason [`ssta_core::DesignBuilder`] gives for it.
    pub fn finish(self) -> Result<DesignSpec, EngineError> {
        let spec = self.spec;
        let ports: Vec<_> = spec
            .instances
            .iter()
            .map(|inst| {
                let netlist = &spec.modules[inst.module.0].netlist;
                (inst.name.as_str(), netlist.n_inputs(), netlist.n_outputs())
            })
            .collect();
        check_wiring(
            &ports,
            &spec.connections,
            &spec.pi_bindings,
            &spec.po_sources,
        )
        .map_err(|e| match e {
            CoreError::Config { reason } => EngineError::Spec { reason },
            other => EngineError::Core(other),
        })?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_netlist::generators;

    #[test]
    fn builder_validates_module_ids() {
        let die = DieRect {
            width: 1000.0,
            height: 1000.0,
        };
        let mut b = DesignSpec::builder("d", die);
        let m = b.add_module(generators::ripple_carry_adder(2).unwrap());
        assert!(b.add_instance("u0", m, (0.0, 0.0)).is_ok());
        assert!(b.add_instance("bad", ModuleId(7), (0.0, 0.0)).is_err());
    }

    #[test]
    fn finish_requires_instances_and_outputs() {
        let die = DieRect {
            width: 10.0,
            height: 10.0,
        };
        assert!(DesignSpec::builder("d", die).finish().is_err());
    }
}
