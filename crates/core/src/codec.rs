//! The compact binary model codec (SSTM payload codec 1).
//!
//! Extracted [`TimingModel`]s are the product the DATE'09 flow ships
//! across the IP-vendor/integrator boundary, so their wire format is a
//! contract, and this codec is the only one: [`decode_model`] is the
//! one way to load a model, and it validates the parts it decodes. JSON
//! is self-describing but bulky — a c880 model weighs
//! ~118 KiB, dominated by `f64`s printed at 17 significant digits. This
//! codec stores the same structure as a deterministic, length-prefixed
//! binary stream built on [`ssta_math::codec`]:
//!
//! * every `f64` is its 8-byte IEEE-754 bit pattern (bit-exact — a
//!   decoded model re-encodes to *identical bytes* and analyzes to
//!   *identical bits*, which the engine's parallel-determinism
//!   guarantees rely on);
//! * every count/index is an LEB128 varint, so the small integers that
//!   dominate graph topology cost one byte;
//! * every variable-length field is length-prefixed and bounds-checked
//!   against structural limits, so corrupted lengths fail with a
//!   precise [`CoreError::Codec`] instead of an allocation bomb.
//!
//! The stream opens with a one-byte **layout version**
//! ([`MODEL_CODEC_VERSION`]) so the payload format can evolve
//! independently of the store's envelope version; readers reject every
//! other layout up front.
//!
//! Layout 3 stores, in order: name, configuration, grid geometry, a
//! basis flag and at most one PCA basis (shared by every parameter),
//! the timing graph, the extraction stats, and an optional
//! sequential-interface block (clock pin + launch/setup/hold constraint
//! arcs). The graph is written as
//!
//! * the vertex count, then per vertex its kind (`0` internal, or `1`
//!   followed by its input index) and a liveness byte;
//! * the edge count, then per edge its source and sink vertex ids, a
//!   liveness byte and its delay form;
//! * the output count, then each output port's vertex id.
//!
//! A model graph is compact: every vertex and edge slot is live and
//! input `i` is vertex `i`. The model's validation, which every way in
//! runs ([`decode_model`] and [`TimingModel::assemble`]), owns that
//! rule, so every liveness byte is 1 and the decoder rejects any other
//! value. The bytes stay because they bound the vertex count by the
//! payload length (an isolated input port costs no other byte). The
//! decoder builds the graph through the graph's own constructors
//! (`add_input`, `add_vertex`, `add_edge`, `mark_output`) and checks
//! each vertex id against the vertex count, and each input index
//! against the next input, before the call.
//!
//! Two things are derived rather than stored: the variable layout,
//! which the configuration's parameter count and the basis determine,
//! and the graph's input list, which the `Input(i)` vertex kinds
//! determine. Neither can then disagree with the data it describes, and
//! both save bytes. The decoded model is validated as a whole (graph
//! against stats, basis against grid, edge delays and constraint arcs
//! against the variable space), so a hostile payload cannot claim more
//! grids than its basis covers, smuggle in forms from a foreign variable
//! space or name unknown pins.
//!
//! The stream holds no wall-clock time or other run-dependent field, so
//! one model always encodes to the same bytes: artifacts stored under
//! the same key are byte-identical whichever run extracted them.

use crate::canonical::CanonicalForm;
use crate::extract::{ConstraintArc, ExtractionStats, SequentialModel, TimingModel};
use crate::params::{ParameterSpec, SstaConfig};
use crate::spatial::{CorrelationModel, GridGeometry};
use crate::CoreError;
use ssta_math::codec::{ByteReader, ByteWriter, CodecError};
use ssta_math::{Matrix, PcaBasis, PcaOptions};
use ssta_netlist::ProcessParam;
use ssta_timing::{TimingGraph, VertexId, VertexKind};

/// Version byte opening every binary model payload: the one layout
/// this build reads and writes.
pub const MODEL_CODEC_VERSION: u8 = 3;

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Codec {
            reason: e.to_string(),
        }
    }
}

/// Encodes a model into the deterministic binary payload.
///
/// Same model in, same bytes out — encoding is a pure function with no
/// iteration-order or formatting freedom, so content-addressed stores
/// and integrity stamps over the payload are stable.
pub fn encode_model(model: &TimingModel) -> Vec<u8> {
    // Pre-size roughly: the graph dominates, ~8 bytes per coefficient.
    let mut w = ByteWriter::with_capacity(1024 + model.edge_count() * 64);
    w.put_u8(MODEL_CODEC_VERSION);
    w.put_str(model.name());
    encode_config(&mut w, model.config());
    encode_geometry(&mut w, model.geometry());
    encode_basis(&mut w, model.pca());
    encode_graph(&mut w, model.graph());
    encode_stats(&mut w, model.stats());
    encode_sequential(&mut w, model.sequential());
    w.into_bytes()
}

/// Decodes a binary payload produced by [`encode_model`].
///
/// # Errors
///
/// Returns [`CoreError::Codec`] for truncated or structurally invalid
/// payloads, unknown layout versions, and models whose parts disagree
/// (a PCA basis that does not cover the grid, forms outside the model's
/// own variable space, arcs naming unknown pins), naming the first
/// defect.
pub fn decode_model(bytes: &[u8]) -> Result<TimingModel, CoreError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u8()?;
    if version != MODEL_CODEC_VERSION {
        return Err(CoreError::Codec {
            reason: format!(
                "unknown binary model layout {version}, this build reads only \
                 {MODEL_CODEC_VERSION}"
            ),
        });
    }
    let name = r.get_str()?;
    let config = decode_config(&mut r)?;
    let geometry = decode_geometry(&mut r)?;
    let pca = decode_basis(&mut r)?;
    let graph = decode_graph(&mut r)?;
    let stats = decode_stats(&mut r)?;
    let sequential = decode_sequential(&mut r)?;
    r.finish()?;
    // The integrity stamp vouches for the bytes, not for what they
    // describe: a payload whose lengths disagree with its own basis or
    // variable space is rejected here, where the store can re-extract.
    TimingModel::from_parts(name, graph, geometry, pca, config, stats, sequential).map_err(
        |reason| CoreError::Codec {
            reason: format!("stored {reason}"),
        },
    )
}

fn encode_config(w: &mut ByteWriter, config: &SstaConfig) {
    w.put_usize(config.parameters.len());
    for p in &config.parameters {
        w.put_u8(p.param.index() as u8);
        w.put_f64(p.sigma_rel);
    }
    let c = &config.correlation;
    w.put_f64(c.global_share);
    w.put_f64(c.local_share);
    w.put_f64(c.random_share);
    w.put_f64(c.decay_per_grid);
    w.put_f64(c.cutoff_grids);
    w.put_f64(config.cell_pitch_um);
    w.put_usize(config.grid_side_cells);
    w.put_f64(config.pca.variance_fraction);
    w.put_f64(config.pca.min_eigenvalue);
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<SstaConfig, CoreError> {
    let n = r.get_len(ProcessParam::ALL.len())?;
    let mut parameters = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.get_u8()? as usize;
        let param = *ProcessParam::ALL.get(idx).ok_or_else(|| CoreError::Codec {
            reason: format!("unknown process parameter index {idx}"),
        })?;
        let sigma_rel = r.get_f64()?;
        parameters.push(ParameterSpec { param, sigma_rel });
    }
    let correlation = CorrelationModel {
        global_share: r.get_f64()?,
        local_share: r.get_f64()?,
        random_share: r.get_f64()?,
        decay_per_grid: r.get_f64()?,
        cutoff_grids: r.get_f64()?,
    };
    Ok(SstaConfig {
        parameters,
        correlation,
        cell_pitch_um: r.get_f64()?,
        grid_side_cells: r.get_usize()?,
        pca: PcaOptions {
            variance_fraction: r.get_f64()?,
            min_eigenvalue: r.get_f64()?,
        },
    })
}

fn encode_geometry(w: &mut ByteWriter, g: GridGeometry) {
    let (ox, oy) = g.origin();
    w.put_f64(ox);
    w.put_f64(oy);
    w.put_f64(g.pitch());
    w.put_usize(g.nx());
    w.put_usize(g.ny());
}

fn decode_geometry(r: &mut ByteReader<'_>) -> Result<GridGeometry, CoreError> {
    let origin = (r.get_f64()?, r.get_f64()?);
    let pitch = r.get_f64()?;
    let nx = r.get_usize()?;
    let ny = r.get_usize()?;
    Ok(GridGeometry::from_raw_parts(origin, pitch, nx, ny))
}

fn encode_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &v in m.as_slice() {
        w.put_f64(v);
    }
}

fn decode_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, CoreError> {
    let rows = r.get_len(r.remaining() / 8)?;
    let cols = r.get_len(r.remaining() / 8)?;
    let n = rows.checked_mul(cols).ok_or_else(|| CoreError::Codec {
        reason: format!("matrix shape {rows}x{cols} overflows"),
    })?;
    if n > r.remaining() / 8 {
        return Err(CoreError::Codec {
            reason: format!(
                "matrix shape {rows}x{cols} needs {} bytes, stream has {}",
                n * 8,
                r.remaining()
            ),
        });
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f64()?);
    }
    Matrix::from_vec(rows, cols, data).map_err(|e| CoreError::Codec {
        reason: format!("stored matrix is inconsistent: {e}"),
    })
}

fn encode_pca(w: &mut ByteWriter, basis: &PcaBasis) {
    encode_matrix(w, basis.transform());
    encode_matrix(w, basis.whiten());
    w.put_f64_slice(basis.eigenvalues());
    w.put_f64(basis.total_variance());
}

fn decode_pca(r: &mut ByteReader<'_>) -> Result<PcaBasis, CoreError> {
    let transform = decode_matrix(r)?;
    let whiten = decode_matrix(r)?;
    let eigenvalues = r.get_f64_vec()?;
    let total_variance = r.get_f64()?;
    PcaBasis::from_raw_parts(transform, whiten, eigenvalues, total_variance).map_err(|e| {
        CoreError::Codec {
            reason: format!("stored PCA basis is inconsistent: {e}"),
        }
    })
}

fn encode_basis(w: &mut ByteWriter, basis: Option<&PcaBasis>) {
    w.put_bool(basis.is_some());
    if let Some(basis) = basis {
        encode_pca(w, basis);
    }
}

fn decode_basis(r: &mut ByteReader<'_>) -> Result<Option<PcaBasis>, CoreError> {
    if r.get_bool()? {
        decode_pca(r).map(Some)
    } else {
        Ok(None)
    }
}

fn encode_form(w: &mut ByteWriter, form: &CanonicalForm) {
    w.put_f64(form.mean());
    w.put_f64_slice(form.globals());
    w.put_f64_slice(form.locals());
    w.put_f64(form.random());
}

fn decode_form(r: &mut ByteReader<'_>) -> Result<CanonicalForm, CoreError> {
    let nominal = r.get_f64()?;
    let globals = r.get_f64_vec()?;
    let locals = r.get_f64_vec()?;
    let random = r.get_f64()?;
    CanonicalForm::from_parts(nominal, globals, locals, random).map_err(|e| CoreError::Codec {
        reason: format!("stored canonical form is invalid: {e}"),
    })
}

fn encode_graph(w: &mut ByteWriter, graph: &TimingGraph<CanonicalForm>) {
    // A model graph is compact, so the `k`-th vertex or edge written is
    // slot `k`, and every liveness byte is 1.
    w.put_usize(graph.n_vertices());
    for v in graph.vertices() {
        match graph.kind(v) {
            VertexKind::Internal => w.put_u8(0),
            VertexKind::Input(i) => {
                w.put_u8(1);
                w.put_varint(u64::from(i));
            }
        }
        w.put_bool(true);
    }
    w.put_usize(graph.n_edges());
    for (_, edge) in graph.edges_iter() {
        w.put_varint(u64::from(edge.from.0));
        w.put_varint(u64::from(edge.to.0));
        w.put_bool(true);
        encode_form(w, &edge.delay);
    }
    w.put_usize(graph.outputs().len());
    for v in graph.outputs() {
        w.put_varint(u64::from(v.0));
    }
}

fn decode_graph(r: &mut ByteReader<'_>) -> Result<TimingGraph<CanonicalForm>, CoreError> {
    let live = |r: &mut ByteReader<'_>, slot: &str, id: usize| -> Result<(), CoreError> {
        if r.get_bool()? {
            Ok(())
        } else {
            Err(CoreError::Codec {
                reason: format!("{slot} {id} is a removed slot; a model graph has none"),
            })
        }
    };

    let mut graph = TimingGraph::new();
    let n_vertices = r.get_len(r.remaining() / 2)?; // ≥ 2 bytes per vertex
    for v in 0..n_vertices {
        match r.get_u8()? {
            0 => {
                graph.add_vertex();
            }
            1 => {
                let i = r.get_varint()?;
                let next = graph.inputs().len();
                if i != next as u64 {
                    return Err(CoreError::Codec {
                        reason: format!(
                            "vertex {v} claims input index {i}, the next input is {next}"
                        ),
                    });
                }
                graph.add_input();
            }
            t => {
                return Err(CoreError::Codec {
                    reason: format!("unknown vertex kind tag {t}"),
                })
            }
        }
        live(r, "vertex", v)?;
    }

    // Every id is checked here, since `add_edge` and `mark_output`
    // assert on an unknown vertex.
    let vertex_id = |r: &mut ByteReader<'_>| -> Result<VertexId, CoreError> {
        let v = r.get_varint()?;
        match u32::try_from(v) {
            Ok(id) if (id as usize) < n_vertices => Ok(VertexId(id)),
            _ => Err(CoreError::Codec {
                reason: format!("vertex id {v} out of range for {n_vertices} vertices"),
            }),
        }
    };
    let n_edges = r.get_len(r.remaining() / 19)?; // ≥ 19 bytes per edge
    for e in 0..n_edges {
        let from = vertex_id(r)?;
        let to = vertex_id(r)?;
        live(r, "edge", e)?;
        graph.add_edge(from, to, decode_form(r)?);
    }

    let n_outputs = r.get_len(r.remaining())?;
    for _ in 0..n_outputs {
        graph.mark_output(vertex_id(r)?);
    }
    Ok(graph)
}

fn encode_sequential(w: &mut ByteWriter, seq: Option<&SequentialModel>) {
    match seq {
        None => w.put_bool(false),
        Some(seq) => {
            w.put_bool(true);
            w.put_str(&seq.clock_pin);
            for arcs in [&seq.launch, &seq.setup, &seq.hold] {
                w.put_usize(arcs.len());
                for arc in arcs {
                    w.put_varint(u64::from(arc.port));
                    encode_form(w, &arc.form);
                }
            }
        }
    }
}

fn decode_sequential(r: &mut ByteReader<'_>) -> Result<Option<SequentialModel>, CoreError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let clock_pin = r.get_str()?;
    let mut families = [Vec::new(), Vec::new(), Vec::new()];
    for arcs in &mut families {
        // ≥ 19 bytes per arc: 1-byte port varint + an 18-byte minimal
        // canonical form — bounds a corrupted count before allocation.
        let n = r.get_len(r.remaining() / 19)?;
        arcs.reserve(n);
        for _ in 0..n {
            let port = r.get_varint()?;
            let port = u32::try_from(port).map_err(|_| CoreError::Codec {
                reason: format!("constraint arc port {port} exceeds u32"),
            })?;
            let form = decode_form(r)?;
            arcs.push(ConstraintArc { port, form });
        }
    }
    let [launch, setup, hold] = families;
    Ok(Some(SequentialModel {
        clock_pin,
        launch,
        setup,
        hold,
    }))
}

fn encode_stats(w: &mut ByteWriter, s: &ExtractionStats) {
    w.put_usize(s.original_edges);
    w.put_usize(s.original_vertices);
    w.put_usize(s.edges_pruned);
    w.put_usize(s.restored_paths);
    w.put_usize(s.repaired_pairs);
    w.put_usize(s.merge_rounds);
    w.put_usize(s.serial_merges);
    w.put_usize(s.parallel_merges);
    w.put_usize(s.model_edges);
    w.put_usize(s.model_vertices);
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<ExtractionStats, CoreError> {
    Ok(ExtractionStats {
        original_edges: r.get_usize()?,
        original_vertices: r.get_usize()?,
        edges_pruned: r.get_usize()?,
        restored_paths: r.get_usize()?,
        repaired_pairs: r.get_usize()?,
        merge_rounds: r.get_usize()?,
        serial_merges: r.get_usize()?,
        parallel_merges: r.get_usize()?,
        model_edges: r.get_usize()?,
        model_vertices: r.get_usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleContext;
    use ssta_netlist::generators;

    fn model(bits: usize) -> TimingModel {
        let n = generators::ripple_carry_adder(bits).unwrap();
        let ctx = ModuleContext::characterize(n, &SstaConfig::paper()).unwrap();
        ctx.extract_model(&crate::ExtractOptions::default())
            .unwrap()
    }

    #[test]
    fn encode_is_deterministic() {
        let m = model(4);
        assert_eq!(encode_model(&m), encode_model(&m));
    }

    #[test]
    fn round_trip_reencodes_to_identical_bytes() {
        let m = model(5);
        let bytes = encode_model(&m);
        let back = decode_model(&bytes).unwrap();
        assert_eq!(
            encode_model(&back),
            bytes,
            "decode ∘ encode must be identity"
        );
        assert_eq!(back.name(), m.name());
        assert_eq!(back.edge_count(), m.edge_count());
        assert_eq!(back.vertex_count(), m.vertex_count());
        assert_eq!(back.config(), m.config());
        assert_eq!(back.layout(), m.layout());
    }

    #[test]
    fn round_trip_preserves_delay_matrix_bits() {
        let m = model(4);
        let back = decode_model(&encode_model(&m)).unwrap();
        let a = m.delay_matrix().unwrap();
        let b = back.delay_matrix().unwrap();
        let (worst_mean, mismatched) = a.compare_with(&b, |d| d.mean());
        assert_eq!(mismatched, 0);
        assert_eq!(worst_mean, 0.0);
        let (worst_sigma, _) = a.compare_with(&b, |d| d.std_dev());
        assert_eq!(worst_sigma, 0.0);
    }

    #[test]
    fn binary_payload_is_much_smaller_than_json() {
        let m = model(6);
        let json = serde_json::to_vec(&m).unwrap();
        let binary = encode_model(&m);
        assert!(
            binary.len() * 2 <= json.len(),
            "binary {} vs JSON {}: expected ≤ 50%",
            binary.len(),
            json.len()
        );
    }

    #[test]
    fn decoder_rejects_unknown_layout_version() {
        let m = model(2);
        let mut bytes = encode_model(&m);
        // Only layout 3 decodes: the retired layouts 1 (no sequential
        // block) and 2 (one basis per parameter, a stored variable layout
        // and the extraction's wall clock) are rejected like any future
        // layout.
        for version in [1, 2, MODEL_CODEC_VERSION + 1] {
            bytes[0] = version;
            assert!(matches!(
                decode_model(&bytes),
                Err(CoreError::Codec { reason })
                    if reason.contains(&format!("layout {version}"))
            ));
        }
    }

    #[test]
    fn decoder_rejects_truncation_at_every_prefix_length() {
        let m = model(2);
        let bytes = encode_model(&m);
        // Every strict prefix must fail cleanly, never panic. Step a few
        // bytes at a time to keep the test fast.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                decode_model(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn decoder_bounds_hostile_input_index() {
        // A vertex claiming input index u32::MAX must be rejected (input
        // indices count up from 0 in vertex order), not amplified into a
        // multi-gigabyte `inputs` allocation.
        let m = model(2);
        let mut w = ByteWriter::new();
        w.put_u8(MODEL_CODEC_VERSION);
        w.put_str(m.name());
        encode_config(&mut w, m.config());
        encode_geometry(&mut w, m.geometry());
        encode_basis(&mut w, None);
        w.put_usize(1); // one vertex slot...
        w.put_u8(1); // ...of Input kind...
        w.put_varint(u64::from(u32::MAX)); // ...with a hostile index
        w.put_bool(true);
        assert!(matches!(
            decode_model(&w.into_bytes()),
            Err(CoreError::Codec { reason })
                if reason.contains("input index 4294967295, the next input is 0")
        ));
    }

    /// A payload of `m`'s parts around the graph block `graph` writes,
    /// under `stats`.
    fn payload_with(
        m: &TimingModel,
        graph: impl FnOnce(&mut ByteWriter),
        stats: &ExtractionStats,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(MODEL_CODEC_VERSION);
        w.put_str(m.name());
        encode_config(&mut w, m.config());
        encode_geometry(&mut w, m.geometry());
        encode_basis(&mut w, m.pca());
        graph(&mut w);
        encode_stats(&mut w, stats);
        encode_sequential(&mut w, m.sequential());
        w.into_bytes()
    }

    #[test]
    fn decoder_rejects_removed_slots() {
        // One input, one output vertex and one arc between them, written
        // by hand so that either liveness byte can be 0.
        let m = model(2);
        let stats = ExtractionStats {
            model_edges: 1,
            model_vertices: 2,
            ..*m.stats()
        };
        let one_arc = |vertex_live: bool, edge_live: bool| {
            payload_with(
                &m,
                |w| {
                    w.put_usize(2);
                    w.put_u8(1); // Input(0)...
                    w.put_varint(0);
                    w.put_bool(vertex_live);
                    w.put_u8(0); // ...and an internal vertex
                    w.put_bool(true);
                    w.put_usize(1);
                    w.put_varint(0);
                    w.put_varint(1);
                    w.put_bool(edge_live);
                    encode_form(w, &m.zero());
                    w.put_usize(1);
                    w.put_varint(1);
                },
                &stats,
            )
        };
        let back = decode_model(&one_arc(true, true)).expect("the live graph decodes");
        assert_eq!((back.edge_count(), back.vertex_count()), (1, 2));
        for (payload, slot) in [
            (one_arc(false, true), "vertex 0"),
            (one_arc(true, false), "edge 0"),
        ] {
            assert!(matches!(
                decode_model(&payload),
                Err(CoreError::Codec { reason })
                    if reason.contains(&format!("{slot} is a removed slot"))
            ));
        }
    }

    #[test]
    fn decoder_rejects_stats_that_miscount_the_graph() {
        let m = model(2);
        let false_stats = ExtractionStats {
            model_edges: 5,
            ..*m.stats()
        };
        assert_ne!(m.edge_count(), 5);
        let payload = payload_with(&m, |w| encode_graph(w, m.graph()), &false_stats);
        assert!(matches!(
            decode_model(&payload),
            Err(CoreError::Codec { reason })
                if reason.contains("stats claim 5 edges")
        ));
        // The honest stats, through the same writer, decode.
        let honest = payload_with(&m, |w| encode_graph(w, m.graph()), m.stats());
        assert_eq!(honest, encode_model(&m));
    }

    fn registered_model() -> TimingModel {
        let stages = generators::registered_pipeline(&["rca4"], "DFF").unwrap();
        let ctx =
            ModuleContext::characterize(stages[0].core().clone(), &SstaConfig::paper()).unwrap();
        crate::extract::extract_registered(
            &ctx,
            stages[0].register(),
            &crate::ExtractOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn sequential_block_round_trips_bit_exactly() {
        let m = registered_model();
        let bytes = encode_model(&m);
        let back = decode_model(&bytes).unwrap();
        assert_eq!(encode_model(&back), bytes);
        assert_eq!(back.sequential(), m.sequential());
    }

    #[test]
    fn decoder_names_unknown_constraint_pins() {
        // Corrupt a stored sequential block to reference a pin past the
        // interface: the decoder must reject it with the pin number, not
        // admit a model whose arcs silently misbehave downstream.
        let m = registered_model();
        let seq = m.sequential().unwrap();
        let mut hostile = seq.clone();
        hostile.setup[0].port = 40_000;
        let mut w = ByteWriter::new();
        w.put_u8(MODEL_CODEC_VERSION);
        w.put_str(m.name());
        encode_config(&mut w, m.config());
        encode_geometry(&mut w, m.geometry());
        encode_basis(&mut w, m.pca());
        encode_graph(&mut w, m.graph());
        encode_stats(&mut w, m.stats());
        encode_sequential(&mut w, Some(&hostile));
        assert!(matches!(
            decode_model(&w.into_bytes()),
            Err(CoreError::Codec { reason })
                if reason.contains("unknown pin 40000") && reason.contains("sequential")
        ));
    }

    #[test]
    fn decoder_bounds_hostile_arc_count() {
        // A corrupted arc count near u64::MAX must fail as a length
        // error before any allocation, like every other stored length.
        let m = registered_model();
        let bytes = encode_model(&m);
        let seq_flag = {
            // The sequential block starts right after the stats; find it
            // by re-encoding everything before it.
            let mut w = ByteWriter::new();
            w.put_u8(MODEL_CODEC_VERSION);
            w.put_str(m.name());
            encode_config(&mut w, m.config());
            encode_geometry(&mut w, m.geometry());
            encode_basis(&mut w, m.pca());
            encode_graph(&mut w, m.graph());
            encode_stats(&mut w, m.stats());
            w.into_bytes().len()
        };
        let mut w = ByteWriter::new();
        for &b in &bytes[..seq_flag] {
            w.put_u8(b);
        }
        w.put_bool(true);
        w.put_str("clk");
        w.put_varint(u64::MAX); // hostile launch-arc count
        assert!(matches!(
            decode_model(&w.into_bytes()),
            Err(CoreError::Codec { reason }) if reason.contains("exceeds limit")
        ));
    }

    #[test]
    fn decoder_rejects_trailing_garbage() {
        let m = model(2);
        let mut bytes = encode_model(&m);
        bytes.push(0);
        assert!(matches!(
            decode_model(&bytes),
            Err(CoreError::Codec { reason }) if reason.contains("trailing")
        ));
    }
}
