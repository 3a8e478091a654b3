//! Pre-extraction design specification.
//!
//! [`ssta_core::Design`] is built from already-extracted models — the
//! right input for one-shot analysis, but too late for an engine that
//! wants to decide *whether* to extract at all. A [`DesignSpec`] is the
//! same hierarchy expressed one level earlier: module *definitions*
//! (netlists) plus instances referencing them, with the wiring of the
//! eventual design. The engine resolves every definition to a model
//! (cache or fresh extraction) and only then assembles the `Design`.

use crate::error::EngineError;
use ssta_core::{netlist_digest, NetlistDigest};
use ssta_netlist::{DieRect, Netlist};
use std::fmt;
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

/// A wire between instance ports, mirroring
/// [`ssta_core::hier::Connection`] at spec level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionSpec {
    /// `(instance, output port)` source.
    pub from: (usize, usize),
    /// `(instance, input port)` sink.
    pub to: (usize, usize),
    /// Wire delay in ps.
    pub wire_delay_ps: f64,
}

/// A hierarchical design expressed over module definitions rather than
/// extracted models.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    pub(crate) name: String,
    pub(crate) die: DieRect,
    pub(crate) modules: Vec<ModuleDef>,
    pub(crate) instances: Vec<InstanceSpec>,
    pub(crate) connections: Vec<ConnectionSpec>,
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

    /// The checks a spec's wiring can take before any model exists:
    /// every wire delay is finite and non-negative (`-0.0` is a zero
    /// wire), and every connection, PI binding and PO source names an
    /// instance of the spec. Port ranges need the models, so assembly
    /// checks them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Spec`] for the first violation found.
    pub(crate) fn check_wiring(&self) -> Result<(), EngineError> {
        for (k, c) in self.connections.iter().enumerate() {
            let from = self.instance_name(c.from.0, format_args!("connection {k}"))?;
            let to = self.instance_name(c.to.0, format_args!("connection {k}"))?;
            let delay = c.wire_delay_ps;
            if !(delay.is_finite() && delay >= 0.0) {
                return Err(EngineError::Spec {
                    reason: format!(
                        "wire from `{from}` output {} to `{to}` input {} has delay {delay} ps; \
                         a wire delay must be finite and non-negative",
                        c.from.1, c.to.1
                    ),
                });
            }
        }
        for (k, targets) in self.pi_bindings.iter().enumerate() {
            for &(inst, _) in targets {
                self.instance_name(inst, format_args!("primary input {k}"))?;
            }
        }
        for (k, &(inst, _)) in self.po_sources.iter().enumerate() {
            self.instance_name(inst, format_args!("primary output {k}"))?;
        }
        Ok(())
    }

    /// The name of instance `idx`, or the error that `what` names a
    /// missing instance.
    fn instance_name(&self, idx: usize, what: fmt::Arguments<'_>) -> Result<&str, EngineError> {
        match self.instances.get(idx) {
            Some(inst) => Ok(&inst.name),
            None => Err(EngineError::Spec {
                reason: format!(
                    "{what} names instance {idx}, but the spec has {} instances",
                    self.instances.len()
                ),
            }),
        }
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

    /// Wires instance `from`'s output port to instance `to`'s input port.
    /// An analysis checks the instance indices (and the wire delay)
    /// before any module resolves, and the port ranges at assembly,
    /// once models (and thus port counts) exist.
    pub fn connect(&mut self, from: usize, from_port: usize, to: usize, to_port: usize) {
        self.spec.connections.push(ConnectionSpec {
            from: (from, from_port),
            to: (to, to_port),
            wire_delay_ps: 0.0,
        });
    }

    /// As [`connect`](Self::connect) with an explicit wire delay, which
    /// must be finite and non-negative.
    pub fn connect_with_delay(
        &mut self,
        from: usize,
        from_port: usize,
        to: usize,
        to_port: usize,
        wire_delay_ps: f64,
    ) {
        self.spec.connections.push(ConnectionSpec {
            from: (from, from_port),
            to: (to, to_port),
            wire_delay_ps,
        });
    }

    /// Declares a design primary input driving the given instance input
    /// ports; returns the design PI index.
    pub fn expose_input(&mut self, targets: Vec<(usize, usize)>) -> usize {
        self.spec.pi_bindings.push(targets);
        self.spec.pi_bindings.len() - 1
    }

    /// Declares a design primary output observing the given instance
    /// output port; returns the design PO index.
    pub fn expose_output(&mut self, inst: usize, port: usize) -> usize {
        self.spec.po_sources.push((inst, port));
        self.spec.po_sources.len() - 1
    }

    /// Finalizes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Spec`] if the design has no instances or no
    /// outputs, or an instance references a missing module. Wiring is
    /// checked when an analysis starts, before any module resolves;
    /// port-level validation happens at assembly, via
    /// [`ssta_core::DesignBuilder`].
    pub fn finish(self) -> Result<DesignSpec, EngineError> {
        let spec = self.spec;
        if spec.instances.is_empty() || spec.po_sources.is_empty() {
            return Err(EngineError::Spec {
                reason: "a design needs at least one instance and one output".into(),
            });
        }
        for inst in &spec.instances {
            if inst.module.0 >= spec.modules.len() {
                return Err(EngineError::Spec {
                    reason: format!(
                        "instance `{}` references missing module {}",
                        inst.name, inst.module.0
                    ),
                });
            }
        }
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
