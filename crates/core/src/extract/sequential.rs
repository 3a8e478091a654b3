//! Sequential model extraction: registered modules become timing models
//! carrying statistical constraint arcs.
//!
//! A [`RegisteredModule`](ssta_netlist::RegisteredModule) hands off an
//! input-registered block: every module input is the D pin of a register,
//! every output launches from the shared clock through clock-to-q plus
//! the combinational core. Following "Timing Model Extraction for
//! Sequential Circuits Considering Process Variations" (arXiv
//! 1705.04976), the interface a vendor ships is not the internal netlist
//! but three families of *statistical* constraint arcs, each a canonical
//! first-order form built with the same PCA machinery as combinational
//! arc delays:
//!
//! * **setup / hold** per input port — how long D must be stable around
//!   the capturing clock edge at that register's die location;
//! * **launch (clock-to-output)** per output port — the statistical max
//!   over all registers `i` of `clk→q_i ⊕ D(i, j)`, where `D` is the
//!   extracted core's input/output delay matrix. Lumping the launch this
//!   way is exact for a single-clock bank (all registers launch on the
//!   same edge) and makes interface-only models — including ones
//!   re-imported from SDF — analyzable without their internal graphs.
//!
//! The result is an ordinary [`TimingModel`] with
//! [`SequentialModel`] attached: the codec, the store and the
//! hierarchical assembly all carry it along.

use crate::canonical::CanonicalForm;
use crate::extract::{extract, ExtractOptions, TimingModel};
use crate::module::{characterized_form, ModuleContext};
use crate::CoreError;
use serde::Serialize;
use ssta_netlist::{SeqCellType, Signal};

/// One statistical constraint arc: a canonical-form quantity attached to
/// a model port.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConstraintArc {
    /// Port index — an input port for setup/hold arcs, an output port
    /// for launch arcs.
    pub port: u32,
    /// The statistical quantity (ps), in the model's variable space.
    pub form: CanonicalForm,
}

/// The sequential interface of a registered timing model: per-input
/// setup/hold constraints and per-output clock-to-output launch delays,
/// all relative to one clock pin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SequentialModel {
    /// Name of the clock pin every arc is referenced to.
    pub clock_pin: String,
    /// Clock-to-output launch delay per output port (ascending port
    /// order, one arc per reachable output).
    pub launch: Vec<ConstraintArc>,
    /// Setup requirement per input port (ascending port order).
    pub setup: Vec<ConstraintArc>,
    /// Hold requirement per input port (ascending port order).
    pub hold: Vec<ConstraintArc>,
}

impl SequentialModel {
    /// Checks every constraint arc against the owning model's shape:
    /// launch ports must name existing outputs, setup/hold ports existing
    /// inputs, and every form must live in the model's variable space.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a human-readable reason (callers
    /// wrap it in the [`CoreError`] variant appropriate to their layer —
    /// the codec's decode paths report it as a named
    /// [`CoreError::Codec`] instead of panicking or silently dropping
    /// the arc).
    pub fn validate(
        &self,
        n_inputs: usize,
        n_outputs: usize,
        n_globals: usize,
        n_locals: usize,
    ) -> Result<(), String> {
        let check = |arcs: &[ConstraintArc], family: &str, bound: usize| -> Result<(), String> {
            for arc in arcs {
                if arc.port as usize >= bound {
                    return Err(format!(
                        "{family} constraint arc references unknown pin {} \
                         (model has {bound} {family}-side ports)",
                        arc.port
                    ));
                }
                if arc.form.n_globals() != n_globals || arc.form.n_locals() != n_locals {
                    return Err(format!(
                        "{family} constraint arc on pin {} has variable shape \
                         {}g/{}l, model uses {n_globals}g/{n_locals}l",
                        arc.port,
                        arc.form.n_globals(),
                        arc.form.n_locals()
                    ));
                }
            }
            Ok(())
        };
        check(&self.launch, "launch", n_outputs)?;
        check(&self.setup, "setup", n_inputs)?;
        check(&self.hold, "hold", n_inputs)?;
        Ok(())
    }

    /// The setup arc of input port `port`, if present.
    pub fn setup_of(&self, port: usize) -> Option<&CanonicalForm> {
        arc_of(&self.setup, port)
    }

    /// The hold arc of input port `port`, if present.
    pub fn hold_of(&self, port: usize) -> Option<&CanonicalForm> {
        arc_of(&self.hold, port)
    }

    /// The launch arc of output port `port`, if present.
    pub fn launch_of(&self, port: usize) -> Option<&CanonicalForm> {
        arc_of(&self.launch, port)
    }
}

fn arc_of(arcs: &[ConstraintArc], port: usize) -> Option<&CanonicalForm> {
    arcs.iter()
        .find(|a| a.port as usize == port)
        .map(|a| &a.form)
}

/// Extracts a registered module: the combinational core is compressed by
/// the ordinary extraction pipeline, then the register bank is
/// characterized into statistical setup/hold and lumped clock-to-output
/// launch arcs at each register's die location.
///
/// `ctx` characterizes the module's *core*; `register` is the cell
/// banked across its inputs. Each register is placed at the grid of the
/// first gate consuming its D input, so its constraint arcs pick up the
/// same spatially-correlated variation as the logic it feeds.
///
/// # Errors
///
/// Propagates extraction failures, and returns [`CoreError::Timing`]
/// (`NoPath`) if some output is unreachable from every input (cannot
/// happen with connectivity repair enabled, the default).
pub fn extract_registered(
    ctx: &ModuleContext,
    register: &SeqCellType,
    options: &ExtractOptions,
) -> Result<TimingModel, CoreError> {
    let model = extract(ctx, options)?;

    // One grid per input register: the first consumer gate's location.
    let grids = input_grids(ctx);
    // Each clocked quantity is characterized like a combinational arc at
    // its register's grid.
    let layout = ctx.layout();
    let clocked_form = |nominal_ps: f64, grid: usize| {
        characterized_form(
            ctx.config(),
            layout,
            ctx.pca(),
            nominal_ps,
            register.sensitivity(),
            grid,
        )
    };
    let clk2q: Vec<CanonicalForm> = grids
        .iter()
        .map(|&g| clocked_form(register.clk_to_q_ps(), g))
        .collect();
    let setup = grids
        .iter()
        .enumerate()
        .map(|(i, &g)| ConstraintArc {
            port: i as u32,
            form: clocked_form(register.setup_ps(), g),
        })
        .collect();
    let hold = grids
        .iter()
        .enumerate()
        .map(|(i, &g)| ConstraintArc {
            port: i as u32,
            form: clocked_form(register.hold_ps(), g),
        })
        .collect();

    // Lumped launch per output: max over registers of clk→q ⊕ core
    // delay, in ascending input order (deterministic reduction).
    let dm = model.delay_matrix()?;
    let mut launch = Vec::with_capacity(dm.n_outputs());
    for j in 0..dm.n_outputs() {
        let mut acc: Option<CanonicalForm> = None;
        for (i, c2q) in clk2q.iter().enumerate() {
            if let Some(d) = dm.get(i, j) {
                let cand = c2q.sum(d);
                acc = Some(match acc {
                    Some(prev) => prev.maximum(&cand),
                    None => cand,
                });
            }
        }
        let form = acc.ok_or(CoreError::Timing(ssta_timing::TimingError::NoPath))?;
        launch.push(ConstraintArc {
            port: j as u32,
            form,
        });
    }

    Ok(model.with_sequential(SequentialModel {
        clock_pin: register.clock_pin().to_owned(),
        launch,
        setup,
        hold,
    }))
}

/// Grid index of each input register: the grid of the first gate
/// consuming that primary input (validated netlists use every input).
fn input_grids(ctx: &ModuleContext) -> Vec<usize> {
    let netlist = ctx.netlist();
    let geometry = ctx.geometry();
    let placement = ctx.placement();
    let mut first_consumer: Vec<Option<usize>> = vec![None; netlist.n_inputs()];
    for (gi, gate) in netlist.gates().iter().enumerate() {
        for &s in &gate.inputs {
            if let Signal::Input(i) = s {
                let slot = &mut first_consumer[i as usize];
                if slot.is_none() {
                    *slot = Some(gi);
                }
            }
        }
    }
    first_consumer
        .into_iter()
        .map(|g| {
            // Unconsumed inputs cannot occur in validated netlists; fall
            // back to the die origin's grid rather than panicking.
            let gate = g.unwrap_or(0);
            geometry.grid_of(placement.gate_position(gate))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SstaConfig;
    use ssta_netlist::{generators, seq_library_90nm};

    fn registered_model() -> (ModuleContext, TimingModel) {
        let stages = generators::registered_pipeline(&["rca4"], "DFF").unwrap();
        let ctx =
            ModuleContext::characterize(stages[0].core().clone(), &SstaConfig::paper()).unwrap();
        let model =
            extract_registered(&ctx, stages[0].register(), &ExtractOptions::default()).unwrap();
        (ctx, model)
    }

    #[test]
    fn registered_extraction_attaches_full_interface() {
        let (ctx, model) = registered_model();
        let seq = model.sequential().expect("sequential interface");
        assert_eq!(seq.clock_pin, "clk");
        assert_eq!(seq.setup.len(), ctx.netlist().n_inputs());
        assert_eq!(seq.hold.len(), ctx.netlist().n_inputs());
        assert_eq!(seq.launch.len(), model.n_outputs());
        seq.validate(
            model.n_inputs(),
            model.n_outputs(),
            model.config().parameters.len(),
            model.layout().n_locals(),
        )
        .unwrap();
    }

    #[test]
    fn constraint_arcs_carry_statistical_structure() {
        let (_, model) = registered_model();
        let seq = model.sequential().unwrap();
        let dff = seq_library_90nm();
        let reg = dff.find("DFF").unwrap();
        for arc in seq.setup.iter().chain(&seq.hold).chain(&seq.launch) {
            assert!(arc.form.mean() > 0.0);
            assert!(arc.form.std_dev() > 0.0, "arcs vary with process");
            assert!(arc.form.globals().iter().all(|&g| g > 0.0));
            assert!(arc.form.locals().iter().any(|&l| l.abs() > 0.0));
        }
        // Setup/hold means are the library's nominal values.
        assert!((seq.setup[0].form.mean() - reg.setup_ps()).abs() < 1e-12);
        assert!((seq.hold[0].form.mean() - reg.hold_ps()).abs() < 1e-12);
    }

    #[test]
    fn launch_dominates_clk_to_q_plus_core_delay() {
        let (_, model) = registered_model();
        let seq = model.sequential().unwrap();
        let dff = seq_library_90nm();
        let c2q = dff.find("DFF").unwrap().clk_to_q_ps();
        let dm = model.delay_matrix().unwrap();
        for arc in &seq.launch {
            let j = arc.port as usize;
            for i in 0..dm.n_inputs() {
                if let Some(d) = dm.get(i, j) {
                    // A statistical max is bounded below by each operand's
                    // mean.
                    assert!(
                        arc.form.mean() >= c2q + d.mean() - 1e-9,
                        "launch {} < clk2q {} + core {}",
                        arc.form.mean(),
                        c2q,
                        d.mean()
                    );
                }
            }
        }
    }

    #[test]
    fn validate_names_the_offending_pin() {
        let (_, model) = registered_model();
        let mut seq = model.sequential().unwrap().clone();
        seq.setup[0].port = 10_000;
        let reason = seq
            .validate(
                model.n_inputs(),
                model.n_outputs(),
                model.config().parameters.len(),
                model.layout().n_locals(),
            )
            .unwrap_err();
        assert!(reason.contains("unknown pin 10000"), "{reason}");
    }

    #[test]
    fn sequential_extraction_is_deterministic() {
        let (_, a) = registered_model();
        let (_, b) = registered_model();
        assert_eq!(a.sequential(), b.sequential());
    }
}
