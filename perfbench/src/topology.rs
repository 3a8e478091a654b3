//! Design shapes, described once and built two ways: as a
//! [`DesignSpec`] for the engine and the server, and as an
//! [`ssta_core::Design`] over already-resolved models for the traced
//! layer-by-layer replay. Building both from one description is what
//! lets the traced run check its replayed delay bit for bit against the
//! engine's.

use ssta_core::{CoreError, Design, DesignBuilder, GridGeometry, SstaConfig, TimingModel};
use ssta_engine::DesignSpec;
use ssta_netlist::{generators::iscas85, DieRect, Netlist, Placement};
use std::sync::Arc;

/// One hierarchical design: module netlists, placed instances and the
/// top-level wiring (zero wire delay throughout).
#[derive(Debug, Clone)]
pub struct Topology {
    pub name: String,
    pub die: DieRect,
    pub modules: Vec<Arc<Netlist>>,
    /// `(instance name, module index, origin in µm)`.
    pub instances: Vec<(String, usize, (f64, f64))>,
    /// `((from instance, output port), (to instance, input port))`.
    pub connections: Vec<((usize, usize), (usize, usize))>,
    pub pi_bindings: Vec<Vec<(usize, usize)>>,
    pub po_sources: Vec<(usize, usize)>,
}

/// The placed extent of an ISCAS-85 module, as characterization will
/// derive it.
fn extent(netlist: &Netlist, config: &SstaConfig) -> (f64, f64) {
    let placement = Placement::rows(netlist, config.cell_pitch_um);
    GridGeometry::from_die(placement.die(), config.grid_pitch_um()).extent_um()
}

fn netlist(name: &str) -> Arc<Netlist> {
    Arc::new(iscas85(name).expect("known ISCAS-85 circuit"))
}

impl Topology {
    /// One instance of each named module, abutted left to right on one
    /// die — module `i` in slot `slots[i]` — with every module port
    /// exposed as a design port and no top-level wiring.
    pub fn soc(modules: &[&str], slots: &[usize], config: &SstaConfig) -> Self {
        let nets: Vec<Arc<Netlist>> = modules.iter().map(|m| netlist(m)).collect();
        let extents: Vec<(f64, f64)> = nets.iter().map(|n| extent(n, config)).collect();
        let die = DieRect {
            width: extents.iter().map(|e| e.0).sum(),
            height: extents.iter().map(|e| e.1).fold(0.0, f64::max),
        };
        let mut t = Topology {
            name: format!("soc-{}", modules.join("-")),
            die,
            modules: nets,
            instances: Vec::new(),
            connections: Vec::new(),
            pi_bindings: Vec::new(),
            po_sources: Vec::new(),
        };
        for (i, name) in modules.iter().enumerate() {
            let x: f64 = (0..modules.len())
                .filter(|&j| slots[j] < slots[i])
                .map(|j| extents[j].0)
                .sum();
            t.instances.push((format!("u_{name}"), i, (x, 0.0)));
            for k in 0..t.modules[i].n_inputs() {
                t.pi_bindings.push(vec![(i, k)]);
            }
            for k in 0..t.modules[i].n_outputs() {
                t.po_sources.push((i, k));
            }
        }
        t
    }

    /// `n` instances of one module tiled on a near-square grid and
    /// chained: instance `i`'s outputs drive instance `i + 1`'s leading
    /// inputs, the remaining inputs are design inputs and the last
    /// instance's outputs are the design outputs.
    pub fn array(module: &str, n: usize, config: &SstaConfig) -> Self {
        assert!(n >= 1, "an array needs at least one instance");
        let net = netlist(module);
        let (mw, mh) = extent(&net, config);
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let (n_in, n_out) = (net.n_inputs(), net.n_outputs());
        let chained = n_out.min(n_in);
        let mut t = Topology {
            name: format!("{module}-array-{n}"),
            die: DieRect {
                width: cols as f64 * mw,
                height: rows as f64 * mh,
            },
            modules: vec![net],
            instances: (0..n)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    (format!("u{i}"), 0, (c as f64 * mw, r as f64 * mh))
                })
                .collect(),
            connections: Vec::new(),
            pi_bindings: Vec::new(),
            po_sources: Vec::new(),
        };
        for i in 1..n {
            for k in 0..chained {
                t.connections.push(((i - 1, k), (i, k)));
            }
        }
        t.pi_bindings.extend((0..n_in).map(|k| vec![(0, k)]));
        for i in 1..n {
            t.pi_bindings.extend((chained..n_in).map(|k| vec![(i, k)]));
        }
        t.po_sources.extend((0..n_out).map(|k| (n - 1, k)));
        t
    }

    /// The engine's view: module definitions plus wiring, no models yet.
    pub fn spec(&self) -> DesignSpec {
        let mut b = DesignSpec::builder(self.name.clone(), self.die);
        let ids: Vec<_> = self
            .modules
            .iter()
            .map(|n| b.add_module((**n).clone()))
            .collect();
        for (name, module, origin) in &self.instances {
            b.add_instance(name.clone(), ids[*module], *origin)
                .expect("benchmark topologies reference their own modules");
        }
        for &((fi, fp), (ti, tp)) in &self.connections {
            b.connect(fi, fp, ti, tp);
        }
        for targets in &self.pi_bindings {
            b.expose_input(targets.clone());
        }
        for &(inst, port) in &self.po_sources {
            b.expose_output(inst, port);
        }
        b.finish().expect("benchmark topologies are well formed")
    }

    /// The core view: the same design over one resolved model per module
    /// (indexed like [`Topology::modules`]), analyzed under `config`.
    pub fn design(
        &self,
        models: &[Arc<TimingModel>],
        config: &SstaConfig,
    ) -> Result<Design, CoreError> {
        let mut b = DesignBuilder::new(self.name.clone(), self.die, config.clone());
        for (name, module, origin) in &self.instances {
            b.add_instance(name.clone(), Arc::clone(&models[*module]), None, *origin)?;
        }
        for &((fi, fp), (ti, tp)) in &self.connections {
            b.connect(fi, fp, ti, tp, 0.0)?;
        }
        for targets in &self.pi_bindings {
            b.expose_input(targets.clone())?;
        }
        for &(inst, port) in &self.po_sources {
            b.expose_output(inst, port)?;
        }
        b.finish()
    }
}
