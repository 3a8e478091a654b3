//! Mapping between statistical [`TimingModel`]s and SDF cells.
//!
//! **Export** flattens every Gaussian quantity to SDF's min/typ/max
//! triple as `μ−kσ : μ : μ+kσ` (`k` = [`ExportOptions::sigmas`]): the
//! delay matrix becomes `IOPATH` records, a sequential interface becomes
//! clock-edge `IOPATH` launch arcs plus `SETUPHOLD` checks. Because that
//! projection is lossy (correlation structure and spatial layout don't
//! survive three corners), the exporter also embeds the model's full
//! binary codec stream in an `(SSTM "…")` vendor extension.
//!
//! **Import** prefers the `SSTM` payload — decoding it reconstructs the
//! model *bit-identically*, so export → import → analyze matches the
//! original analysis exactly. Foreign SDF without the extension still
//! imports: each cell becomes an interface-only approximate model whose
//! arc means come from the `typ` corner and whose variability is folded
//! into the independent random term as `(max − typ) / k`. Approximate
//! models carry no spatial information (a 1×1 grid, no PCA basis), so
//! analyze them in [`CorrelationMode::GlobalOnly`].
//!
//! [`CorrelationMode::GlobalOnly`]: ssta_core::CorrelationMode
//!
//! Port naming is positional: input `k` is `i{k}`, output `j` is `o{j}`.
//! The importer does not depend on those names — it indexes ports by
//! first appearance, so foreign SDF with arbitrary port names maps onto
//! model ports in file order.

use crate::{from_hex, to_hex, Cell, Delay, Edge, IoPath, Sdf, SetupHold};
use ssta_core::codec::{decode_model, encode_model};
use ssta_core::GridGeometry;
use ssta_core::{
    CanonicalForm, ConstraintArc, CoreError, ExtractionStats, SequentialModel, SstaConfig,
    TimingModel,
};
use ssta_netlist::DieRect;
use ssta_timing::TimingGraph;
use std::collections::HashMap;

/// The vendor-extension keyword carrying the hex-encoded binary model
/// payload inside a cell.
pub const SSTM_KEYWORD: &str = "SSTM";

/// Controls how statistical quantities are projected onto SDF corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExportOptions {
    /// Corner width in standard deviations: `min/max = μ ∓ sigmas·σ`.
    /// Also the factor the approximate importer divides by to recover a
    /// random σ from `max − typ`.
    pub sigmas: f64,
    /// Embed the full binary model as an `(SSTM "…")` extension so a
    /// hier-ssta importer round-trips bit-identically. Disable to emit
    /// plain tool-neutral SDF.
    pub embed_sstm: bool,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            sigmas: 3.0,
            embed_sstm: true,
        }
    }
}

fn corner_triple(form: &CanonicalForm, sigmas: f64) -> Delay {
    let mu = form.mean();
    let spread = sigmas * form.std_dev();
    Delay {
        min: mu - spread,
        typ: mu,
        max: mu + spread,
    }
}

/// Renders one model as an SDF cell.
///
/// # Errors
///
/// Propagates [`CoreError`] from the model's delay-matrix computation.
pub fn model_to_cell(model: &TimingModel, options: &ExportOptions) -> Result<Cell, CoreError> {
    let matrix = model.delay_matrix()?;
    let mut cell = Cell {
        celltype: model.name().to_string(),
        ..Cell::default()
    };
    for i in 0..matrix.n_inputs() {
        for j in 0..matrix.n_outputs() {
            if let Some(form) = matrix.get(i, j) {
                let d = corner_triple(form, options.sigmas);
                cell.iopath.push(IoPath {
                    from: Edge::Plain(format!("i{i}")),
                    to: Edge::Plain(format!("o{j}")),
                    rise: d,
                    fall: d,
                });
            }
        }
    }
    if let Some(seq) = model.sequential() {
        for arc in &seq.launch {
            let d = corner_triple(&arc.form, options.sigmas);
            cell.iopath.push(IoPath {
                from: Edge::Posedge(seq.clock_pin.clone()),
                to: Edge::Plain(format!("o{}", arc.port)),
                rise: d,
                fall: d,
            });
        }
        for port in 0..model.n_inputs() {
            let setup = seq.setup_of(port);
            let hold = seq.hold_of(port);
            if setup.is_none() && hold.is_none() {
                continue;
            }
            cell.setuphold.push(SetupHold {
                edge_d: Edge::Posedge(format!("i{port}")),
                edge_c: Edge::Posedge(seq.clock_pin.clone()),
                setup: setup.map(|f| corner_triple(f, options.sigmas)),
                hold: hold.map(|f| corner_triple(f, options.sigmas)),
            });
        }
    }
    if options.embed_sstm {
        cell.sstm = Some(to_hex(&encode_model(model)));
    }
    Ok(cell)
}

/// Renders a set of models as one SDF file with a deterministic header.
///
/// # Errors
///
/// Propagates the first [`model_to_cell`] failure.
pub fn export_models<'a>(
    models: impl IntoIterator<Item = &'a TimingModel>,
    options: &ExportOptions,
) -> Result<Sdf, CoreError> {
    let mut sdf = Sdf {
        sdfversion: Some("3.0".to_string()),
        vendor: Some("hier-ssta".to_string()),
        program: Some("hier-ssta".to_string()),
        divider: Some("/".to_string()),
        timescale: Some("1ps".to_string()),
        ..Sdf::default()
    };
    for model in models {
        sdf.cells.push(model_to_cell(model, options)?);
    }
    Ok(sdf)
}

/// Imports every cell of an SDF file as a [`TimingModel`].
///
/// # Errors
///
/// Propagates the first [`import_cell`] failure.
pub fn import_sdf_models(
    sdf: &Sdf,
    config: &SstaConfig,
    sigmas: f64,
) -> Result<Vec<TimingModel>, CoreError> {
    sdf.cells
        .iter()
        .map(|cell| import_cell(cell, config, sigmas))
        .collect()
}

/// Imports one SDF cell as a [`TimingModel`].
///
/// If the cell carries an `SSTM` payload the binary model is decoded
/// directly — the result is bit-identical to the exported model. Without
/// it, an interface-only approximate model is synthesized from the
/// corner triples (see the module docs for the projection and its
/// limits).
///
/// # Errors
///
/// Returns [`CoreError::Codec`] for a corrupt `SSTM` payload or a
/// payload naming a different cell type, and [`CoreError::Incompatible`]
/// for cells that cannot form a well-shaped model (no ports, conflicting
/// clock pins, non-positive corner ordering).
pub fn import_cell(
    cell: &Cell,
    config: &SstaConfig,
    sigmas: f64,
) -> Result<TimingModel, CoreError> {
    if let Some(hex) = &cell.sstm {
        let bytes = from_hex(hex).map_err(|offset| CoreError::Codec {
            reason: format!(
                "cell `{}`: SSTM payload is not valid hex (defect at character {offset})",
                cell.celltype
            ),
        })?;
        let model = decode_model(&bytes)?;
        if model.name() != cell.celltype {
            return Err(CoreError::Codec {
                reason: format!(
                    "cell `{}`: SSTM payload names model `{}`",
                    cell.celltype,
                    model.name()
                ),
            });
        }
        return Ok(model);
    }
    approximate_model(cell, config, sigmas)
}

/// Builds an interface-only model from the cell's corner triples.
fn approximate_model(
    cell: &Cell,
    config: &SstaConfig,
    sigmas: f64,
) -> Result<TimingModel, CoreError> {
    if !(sigmas.is_finite() && sigmas > 0.0) {
        return Err(CoreError::Config {
            reason: format!("corner width must be a positive finite sigma count, got {sigmas}"),
        });
    }
    let bad = |reason: String| CoreError::Incompatible {
        reason: format!("cell `{}`: {reason}", cell.celltype),
    };

    // Index ports by first appearance. Plain IOPATH sources and
    // SETUPHOLD data pins are inputs; IOPATH destinations are outputs;
    // clock-edge IOPATH sources and SETUPHOLD clock pins must all agree
    // on one clock.
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut input_of: HashMap<String, usize> = HashMap::new();
    let mut output_of: HashMap<String, usize> = HashMap::new();
    let mut clock: Option<String> = None;
    let intern =
        |names: &mut Vec<String>, index: &mut HashMap<String, usize>, port: &str| -> usize {
            *index.entry(port.to_string()).or_insert_with(|| {
                names.push(port.to_string());
                names.len() - 1
            })
        };
    let claim_clock = |clock: &mut Option<String>, port: &str| -> Result<(), CoreError> {
        match clock {
            Some(c) if c != port => Err(bad(format!("conflicting clock pins `{c}` and `{port}`"))),
            Some(_) => Ok(()),
            None => {
                *clock = Some(port.to_string());
                Ok(())
            }
        }
    };

    // First pass: establish port indices and the clock pin.
    for p in &cell.iopath {
        if p.from.is_clocked() {
            claim_clock(&mut clock, p.from.port())?;
        } else {
            intern(&mut inputs, &mut input_of, p.from.port());
        }
        intern(&mut outputs, &mut output_of, p.to.port());
    }
    for sh in &cell.setuphold {
        intern(&mut inputs, &mut input_of, sh.edge_d.port());
        claim_clock(&mut clock, sh.edge_c.port())?;
    }
    if inputs.is_empty() || outputs.is_empty() {
        return Err(bad(format!(
            "cannot synthesize a model from {} input and {} output ports",
            inputs.len(),
            outputs.len()
        )));
    }

    let n_globals = config.parameters.len();
    let form = |d: &Delay, what: &str| -> Result<CanonicalForm, CoreError> {
        let sigma = (d.max - d.typ) / sigmas;
        if sigma < 0.0 {
            return Err(bad(format!(
                "{what} triple has max {} below typ {}",
                d.max, d.typ
            )));
        }
        CanonicalForm::from_parts(d.typ, vec![0.0; n_globals], Vec::new(), sigma)
    };

    let mut graph: TimingGraph<CanonicalForm> = TimingGraph::new();
    let input_vertices: Vec<_> = inputs.iter().map(|_| graph.add_input()).collect();
    let output_vertices: Vec<_> = outputs
        .iter()
        .map(|_| {
            let v = graph.add_vertex();
            graph.mark_output(v);
            v
        })
        .collect();
    let mut launch: Vec<ConstraintArc> = Vec::new();
    for p in &cell.iopath {
        let to = output_vertices[output_of[p.to.port()]];
        if p.from.is_clocked() {
            launch.push(ConstraintArc {
                port: output_of[p.to.port()] as u32,
                form: form(&p.rise, "launch")?,
            });
        } else {
            let from = input_vertices[input_of[p.from.port()]];
            graph.add_edge(from, to, form(&p.rise, "IOPATH")?);
        }
    }
    let mut setup: Vec<ConstraintArc> = Vec::new();
    let mut hold: Vec<ConstraintArc> = Vec::new();
    for sh in &cell.setuphold {
        let port = input_of[sh.edge_d.port()] as u32;
        if let Some(d) = &sh.setup {
            setup.push(ConstraintArc {
                port,
                form: form(d, "setup")?,
            });
        }
        if let Some(d) = &sh.hold {
            hold.push(ConstraintArc {
                port,
                form: form(d, "hold")?,
            });
        }
    }
    let sort_arcs = |arcs: &mut Vec<ConstraintArc>| arcs.sort_by_key(|a| a.port);
    sort_arcs(&mut launch);
    sort_arcs(&mut setup);
    sort_arcs(&mut hold);
    let sequential = clock.map(|clock_pin| SequentialModel {
        clock_pin,
        launch,
        setup,
        hold,
    });

    let stats = ExtractionStats {
        original_edges: graph.n_edges(),
        original_vertices: graph.n_vertices(),
        edges_pruned: 0,
        restored_paths: 0,
        repaired_pairs: 0,
        merge_rounds: 0,
        serial_merges: 0,
        parallel_merges: 0,
        model_edges: graph.n_edges(),
        model_vertices: graph.n_vertices(),
    };
    // Approximate models have no spatial footprint: one grid the size of
    // the correlation pitch, zero local variables, no PCA basis.
    let pitch = config.grid_pitch_um();
    let geometry = GridGeometry::from_die(
        DieRect {
            width: pitch,
            height: pitch,
        },
        pitch,
    );
    TimingModel::assemble(
        cell.celltype.clone(),
        graph,
        geometry,
        None,
        config.clone(),
        stats,
        sequential,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_sdf, write_sdf};
    use ssta_core::{extract_registered, ExtractOptions, ModuleContext};
    use ssta_netlist::generators;

    fn registered_model() -> TimingModel {
        let stages = generators::registered_pipeline(&["rca4"], "DFF").expect("generator");
        let ctx = ModuleContext::characterize(stages[0].core().clone(), &SstaConfig::paper())
            .expect("context");
        extract_registered(&ctx, stages[0].register(), &ExtractOptions::default()).expect("extract")
    }

    #[test]
    fn export_embeds_interface_and_payload() {
        let model = registered_model();
        let cell = model_to_cell(&model, &ExportOptions::default()).expect("cell");
        assert_eq!(cell.celltype, model.name());
        assert!(cell.sstm.is_some());
        assert!(!cell.setuphold.is_empty());
        assert!(
            cell.iopath.iter().any(|p| p.from.is_clocked()),
            "launch arcs should be clock-edge IOPATHs"
        );
        // Corners bracket the mean symmetrically.
        for p in &cell.iopath {
            assert!(p.rise.min <= p.rise.typ && p.rise.typ <= p.rise.max);
        }
    }

    #[test]
    fn sstm_import_is_bit_identical() {
        let model = registered_model();
        let sdf = export_models([&model], &ExportOptions::default()).expect("export");
        let text = write_sdf(&sdf);
        let back = parse_sdf(&text).expect("parse");
        let imported = import_sdf_models(&back, model.config(), 3.0).expect("import");
        assert_eq!(imported.len(), 1);
        assert_eq!(encode_model(&imported[0]), encode_model(&model));
    }

    #[test]
    fn approximate_import_preserves_interface_shape() {
        let model = registered_model();
        let opts = ExportOptions {
            embed_sstm: false,
            ..ExportOptions::default()
        };
        let sdf = export_models([&model], &opts).expect("export");
        let approx = import_cell(&sdf.cells[0], model.config(), opts.sigmas).expect("import");
        assert_eq!(approx.n_inputs(), model.n_inputs());
        assert_eq!(approx.n_outputs(), model.n_outputs());
        let seq = approx.sequential().expect("sequential interface");
        let orig = model.sequential().expect("sequential interface");
        assert_eq!(seq.clock_pin, orig.clock_pin);
        assert_eq!(seq.launch.len(), orig.launch.len());
        // Means survive the corner projection exactly; σ within the
        // lossy-projection ballpark (local/global structure is folded
        // into one random term).
        for (a, b) in seq.setup.iter().zip(&orig.setup) {
            assert_eq!(a.port, b.port);
            assert!((a.form.mean() - b.form.mean()).abs() < 1e-9);
            assert!((a.form.std_dev() - b.form.std_dev()).abs() < 1e-9);
        }
    }

    #[test]
    fn corrupt_sstm_is_rejected_with_cell_name() {
        let cell = Cell {
            celltype: "c432".into(),
            sstm: Some("zz".into()),
            ..Cell::default()
        };
        let err = import_cell(&cell, &SstaConfig::paper(), 3.0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("c432"), "{msg}");
        assert!(msg.contains("hex"), "{msg}");
    }

    #[test]
    fn conflicting_clocks_are_rejected() {
        let cell = Cell {
            celltype: "x".into(),
            iopath: vec![
                IoPath {
                    from: Edge::Posedge("clkA".into()),
                    to: Edge::Plain("o0".into()),
                    rise: Delay::flat(10.0),
                    fall: Delay::flat(10.0),
                },
                IoPath {
                    from: Edge::Plain("i0".into()),
                    to: Edge::Plain("o0".into()),
                    rise: Delay::flat(5.0),
                    fall: Delay::flat(5.0),
                },
            ],
            setuphold: vec![SetupHold {
                edge_d: Edge::Posedge("i0".into()),
                edge_c: Edge::Posedge("clkB".into()),
                setup: Some(Delay::flat(3.0)),
                hold: None,
            }],
            ..Cell::default()
        };
        let err = import_cell(&cell, &SstaConfig::paper(), 3.0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("clkA") && msg.contains("clkB"), "{msg}");
    }

    #[test]
    fn portless_cells_are_rejected() {
        let cell = Cell {
            celltype: "empty".into(),
            ..Cell::default()
        };
        let err = import_cell(&cell, &SstaConfig::paper(), 3.0).unwrap_err();
        assert!(err.to_string().contains("ports"), "{}", err.to_string());
    }
}
