//! The storage subsystem contract, across backends:
//!
//! * every [`StorageBackend`] passes one shared conformance suite
//!   (`FsBackend` and `MemoryBackend` are interchangeable);
//! * malformed store keys are rejected before they can touch a backend;
//! * the binary codec round-trips arbitrary extracted models to
//!   identical bytes and bit-identical delay matrices (property-tested),
//!   through both the filesystem and the memory backend;
//! * no single-bit mutation of a payload, and no seeded multi-byte
//!   damage (overwrites, truncations, `0xff` runs), decodes to a model
//!   that panics downstream: it is rejected, or its delay matrix
//!   computes;
//! * a well-formed payload whose geometry claims more grids than its PCA
//!   basis covers is rejected at every boundary it can enter through —
//!   the decoder, a store read (counted as a reject and re-extracted)
//!   and SDF import;
//! * two cold engines that extract the same modules store the same
//!   artifact bytes under the same keys;
//! * the binary c880 artifact is at most half the size of its serde
//!   JSON rendering.

use hier_ssta::core::{
    CoreError, ExtractOptions, ExtractionStats, ModuleContext, SstaConfig, TimingModel,
};
use hier_ssta::engine::store::envelope;
use hier_ssta::engine::{
    Codec, DesignSpec, Engine, EngineError, EngineOptions, FaultInjectingBackend, FaultPlan,
    FsBackend, MemoryBackend, ModelStore, RemoteBackend, StorageBackend, TieredBackend,
    TieredOptions,
};
use hier_ssta::math::ByteWriter;
use hier_ssta::netlist::{generators, DieRect};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hier-ssta-store-codec-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn extract(netlist: hier_ssta::netlist::Netlist, config: &SstaConfig) -> TimingModel {
    let ctx = ModuleContext::characterize(netlist, config).expect("characterize");
    ctx.extract_model(&ExtractOptions::default())
        .expect("extract")
}

fn hex_key(fill: u8) -> String {
    (fill as char).to_string().repeat(64)
}

// ---------------------------------------------------------------------
// Backend conformance: every backend obeys the same contract.
// ---------------------------------------------------------------------

/// The suite, parameterized over how payloads become stored bytes.
/// Plain backends move raw bytes (`encode` is the identity); a
/// verifying [`RemoteBackend`] re-checks the SSTM envelope on every
/// get, so its conformance run stores real envelopes.
fn backend_conformance_encoded<B: StorageBackend>(backend: &B, encode: &dyn Fn(&[u8]) -> Vec<u8>) {
    let (ka, kb) = (hex_key(b'a'), hex_key(b'b'));
    let (alpha, alpha_v2, beta) = (encode(b"alpha"), encode(b"alpha v2"), encode(b"beta"));

    // Empty store.
    assert!(backend.is_empty().expect("is_empty"));
    assert_eq!(backend.len().expect("len"), 0);
    assert_eq!(backend.list_keys().expect("list"), Vec::<String>::new());
    assert!(backend.get(&ka).expect("get absent").is_none());
    assert!(!backend.contains(&ka).expect("contains absent"));
    assert!(!backend.remove(&ka).expect("remove absent"));

    // Put / get round trip.
    backend.put(&kb, &beta).expect("put");
    backend.put(&ka, &alpha).expect("put");
    assert_eq!(backend.get(&ka).expect("get"), Some(alpha));
    assert!(backend.contains(&ka).expect("contains"));
    assert!(!backend.is_empty().expect("is_empty"));
    assert_eq!(backend.len().expect("len"), 2);
    // Keys come back sorted, whatever the insertion order.
    assert_eq!(
        backend.list_keys().expect("list"),
        vec![ka.clone(), kb.clone()]
    );

    // Overwrite replaces.
    backend.put(&ka, &alpha_v2).expect("overwrite");
    assert_eq!(backend.get(&ka).expect("get"), Some(alpha_v2));
    assert_eq!(backend.len().expect("len"), 2);

    // Remove reports prior existence.
    assert!(backend.remove(&ka).expect("remove"));
    assert!(!backend.remove(&ka).expect("second remove"));
    assert_eq!(backend.len().expect("len"), 1);

    // Clear empties everything.
    backend.clear().expect("clear");
    assert!(backend.is_empty().expect("is_empty after clear"));
    assert_eq!(
        backend.list_keys().expect("list after clear"),
        Vec::<String>::new()
    );
}

fn backend_conformance<B: StorageBackend>(backend: &B) {
    backend_conformance_encoded(backend, &|payload| payload.to_vec());
}

#[test]
fn fs_backend_passes_the_conformance_suite() {
    let dir = temp_dir("conformance-fs");
    let backend = FsBackend::open(&dir).expect("open");
    backend_conformance(&backend);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_backend_passes_the_conformance_suite() {
    backend_conformance(&MemoryBackend::new());
}

/// Self-validating payload: every byte is the writer's tag and the
/// length encodes it too, so any mix of two writes — a torn read —
/// fails both checks.
fn tagged_payload(tag: u8) -> Vec<u8> {
    vec![tag; 512 + tag as usize]
}

fn assert_intact(key: &str, bytes: &[u8]) {
    let tag = bytes[0];
    assert_eq!(
        bytes.len(),
        512 + tag as usize,
        "torn read under `{key}`: length disagrees with tag {tag}"
    );
    assert!(
        bytes.iter().all(|&b| b == tag),
        "torn read under `{key}`: mixed writer tags"
    );
}

#[test]
fn fs_backend_survives_concurrent_writers_without_torn_or_lost_artifacts() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 20;
    const PRIVATE_KEYS: usize = 4;

    let dir = temp_dir("concurrent-fs");
    let backend = FsBackend::open(&dir).expect("open");
    // One key every thread hammers (overwrite races on a single file)
    // plus per-thread key ranges (create/remove races across the
    // sharded tree).
    let contended = hex_key(b'f');
    let private = |writer: usize, slot: usize| format!("{:064x}", 1 + writer * PRIVATE_KEYS + slot);

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let backend = &backend;
            let contended = &contended;
            scope.spawn(move || {
                let tag = writer as u8 + 1;
                for round in 0..ROUNDS {
                    backend.put(contended, &tagged_payload(tag)).expect("put");
                    if let Some(bytes) = backend.get(contended).expect("get") {
                        assert_intact(contended, &bytes);
                    }
                    let key = private(writer, round % PRIVATE_KEYS);
                    backend.put(&key, &tagged_payload(tag)).expect("put");
                    let bytes = backend.get(&key).expect("get").expect("own key present");
                    assert_intact(&key, &bytes);
                    // Churn: drop every other private slot, re-created
                    // next round — remove races put on neighbours' shards.
                    if round % 2 == 1 {
                        assert!(backend.remove(&key).expect("remove"), "own key vanished");
                    }
                }
            });
        }
    });

    // Quiesced store: the contended key holds one writer's payload in
    // full, every surviving private key is intact, and no key was lost.
    let survivor = backend
        .get(&contended)
        .expect("get")
        .expect("contended key survives");
    assert_intact(&contended, &survivor);
    let mut expected: Vec<String> = vec![contended.clone()];
    for writer in 0..WRITERS {
        for slot in 0..PRIVATE_KEYS {
            // ROUNDS is even, so odd slots saw a final remove and even
            // slots a final put.
            if slot % 2 == 0 {
                expected.push(private(writer, slot));
            }
        }
    }
    expected.sort();
    assert_eq!(backend.list_keys().expect("list"), expected);
    for key in &expected {
        let bytes = backend.get(key).expect("get").expect("listed key loads");
        assert_intact(key, &bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fs_backend_gc_evicts_least_recently_modified_artifacts_first() {
    let dir = temp_dir("gc-fs");
    let backend = FsBackend::open(&dir).expect("open");

    // Three artifacts with strictly increasing mtimes and a known size
    // each. The sleeps keep the ordering unambiguous even on coarse
    // filesystem timestamp granularity.
    let keys = [hex_key(b'1'), hex_key(b'2'), hex_key(b'3')];
    for key in &keys {
        backend.put(key, &[0u8; 1000]).expect("put");
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // Already under budget: nothing to do.
    assert_eq!(backend.gc(u64::MAX).expect("gc"), 0);
    assert_eq!(backend.health().gc_evictions, 0);
    assert_eq!(backend.len().expect("len"), 3);

    // Budget for two artifacts: the oldest one goes, newer ones stay.
    assert_eq!(backend.gc(2000).expect("gc"), 1);
    assert_eq!(backend.list_keys().expect("list"), keys[1..].to_vec());

    // Touching the survivor that is now oldest makes it newest again,
    // so the next collection evicts the other one.
    backend.put(&keys[1], &[0u8; 1000]).expect("refresh");
    std::thread::sleep(std::time::Duration::from_millis(25));
    assert_eq!(backend.gc(1000).expect("gc"), 1);
    assert_eq!(backend.list_keys().expect("list"), vec![keys[1].clone()]);

    // The counter surfaces through the health snapshot.
    assert_eq!(backend.health().gc_evictions, 2);

    // A zero budget clears the store entirely.
    assert_eq!(backend.gc(0).expect("gc"), 1);
    assert!(backend.is_empty().expect("is_empty"));
    assert_eq!(backend.health().gc_evictions, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boxed_and_shared_backends_pass_the_conformance_suite() {
    // The smart-pointer impls the engine relies on behave identically.
    let boxed: Box<dyn StorageBackend> = Box::new(MemoryBackend::new());
    backend_conformance(&boxed);
    backend_conformance(&Arc::new(MemoryBackend::new()));
}

#[test]
fn tiered_backend_passes_the_conformance_suite() {
    backend_conformance(&TieredBackend::with_defaults(MemoryBackend::new()));
    // A hot tier too small for any entry degenerates to the cold tier
    // alone — same contract.
    let cold_only = TieredBackend::new(
        MemoryBackend::new(),
        TieredOptions {
            hot_capacity_bytes: 0,
            ..TieredOptions::default()
        },
    );
    backend_conformance(&cold_only);
}

#[test]
fn remote_backend_passes_the_conformance_suite() {
    // The verifying configuration (the default) re-checks the SSTM
    // envelope on every get, so its run stores real envelopes.
    let verifying = RemoteBackend::perfect(MemoryBackend::new());
    backend_conformance_encoded(&verifying, &|payload| {
        envelope::encode_envelope(Codec::Binary, payload)
    });
    assert!(verifying.quarantined_keys().is_empty());
    assert_eq!(verifying.health().retries, 0);

    // With verification off it is a plain byte store.
    let raw = RemoteBackend::perfect(MemoryBackend::new()).without_verification();
    backend_conformance(&raw);
}

#[test]
fn fault_injecting_backend_with_an_empty_plan_passes_the_conformance_suite() {
    let backend = FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none());
    backend_conformance(&backend);
    assert_eq!(backend.counters().total(), 0, "empty plan injects nothing");
}

#[test]
fn the_full_backend_stack_passes_the_conformance_suite() {
    // The production fault-tolerant stack: hot tier over a retrying
    // remote over a (quiet) fault injector over memory.
    let transport = FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none());
    let stack = TieredBackend::with_defaults(RemoteBackend::perfect(transport));
    backend_conformance_encoded(&stack, &|payload| {
        envelope::encode_envelope(Codec::Binary, payload)
    });
    // Cache traffic (hot hits, promotions) is expected; faults are not.
    let health = stack.health();
    assert_eq!(health.retries, 0);
    assert_eq!(health.quarantined, 0);
    assert_eq!(health.faults_injected, 0);
    assert_eq!(health.cold_failures, 0);
    assert_eq!(health.breaker_trips, 0);
}

// ---------------------------------------------------------------------
// Key validation: the store is not a path-interpolation gadget.
// ---------------------------------------------------------------------

#[test]
fn store_rejects_malformed_keys_before_the_backend_sees_them() {
    let dir = temp_dir("key-validation");
    let store = ModelStore::open(&dir).expect("open");
    let model = extract(
        generators::ripple_carry_adder(2).expect("adder"),
        &SstaConfig::paper(),
    );

    for bad in [
        "",
        "short",
        &hex_key(b'a')[..63],
        &format!("{}0", hex_key(b'a')),
        &hex_key(b'a').to_uppercase(),
        &hex_key(b'z'),
        "../../../../tmp/escape",
        &format!("..%2f{}", &hex_key(b'a')[..58]),
    ] {
        assert!(
            matches!(
                store.save(bad, &model),
                Err(EngineError::Store { ref reason }) if reason.contains("invalid store key")
            ),
            "save under `{bad}` must be rejected"
        );
        assert!(
            matches!(store.load(bad), Err(EngineError::Store { .. })),
            "load under `{bad}` must be rejected"
        );
        assert!(!store.contains(bad));
    }
    // Nothing leaked onto disk — not even outside the root.
    assert!(store.is_empty().expect("is_empty"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary extracted models survive the binary codec bit-exactly:
    /// decode ∘ encode is the identity on bytes, and the decoded model's
    /// statistical delay matrix is bit-identical.
    #[test]
    fn binary_codec_round_trips_arbitrary_models(
        kind in 0usize..3,
        size in 2usize..7,
        grid_side in 4usize..12,
    ) {
        let netlist = match kind {
            0 => generators::ripple_carry_adder(size).expect("adder"),
            1 => generators::parity_tree(size + 2).expect("parity"),
            _ => generators::array_multiplier(size.min(4)).expect("multiplier"),
        };
        let mut config = SstaConfig::paper();
        config.grid_side_cells = grid_side; // vary the PCA dimensions too
        let model = extract(netlist, &config);

        let bytes = hier_ssta::core::codec::encode_model(&model);
        let back = hier_ssta::core::codec::decode_model(&bytes).expect("decode");
        prop_assert_eq!(
            &hier_ssta::core::codec::encode_model(&back),
            &bytes,
            "re-encode must reproduce identical bytes"
        );

        let a = model.delay_matrix().expect("matrix");
        let b = back.delay_matrix().expect("matrix");
        let (worst_mean, mismatched) = a.compare_with(&b, |d| d.mean());
        prop_assert_eq!(mismatched, 0);
        prop_assert_eq!(worst_mean, 0.0);
        let (worst_sigma, _) = a.compare_with(&b, |d| d.std_dev());
        prop_assert_eq!(worst_sigma, 0.0);
    }
}

#[test]
fn both_codecs_round_trip_through_both_backends_bit_exactly() {
    let model = extract(
        generators::ripple_carry_adder(5).expect("adder"),
        &SstaConfig::paper(),
    );
    let key = hex_key(b'c');
    let reference = model.delay_matrix().expect("matrix");

    let dir = temp_dir("codec-matrix");
    let fs_store = ModelStore::open(&dir).expect("open");
    let mem_store = ModelStore::with_backend(MemoryBackend::new());

    fs_store.save(&key, &model).expect("fs save");
    mem_store.save(&key, &model).expect("mem save");
    for (store_name, loaded) in [
        (
            "fs",
            fs_store.load(&key).expect("fs load").expect("present"),
        ),
        (
            "mem",
            mem_store.load(&key).expect("mem load").expect("present"),
        ),
    ] {
        let got = loaded.delay_matrix().expect("matrix");
        let (worst, mismatched) = reference.compare_with(&got, |d| d.mean());
        assert_eq!(mismatched, 0, "{store_name}");
        assert_eq!(worst, 0.0, "{store_name}: bit-exact mean");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Hostile payloads.
// ---------------------------------------------------------------------

#[test]
fn single_bit_payload_mutations_are_rejected_or_decode_to_usable_models() {
    // SDF `(SSTM "…")` payloads reach the decoder with no integrity
    // stamp, so every byte is attacker-controlled. Flip the low and the
    // high bit of each byte in turn: the decoder either rejects the
    // payload, or the model it returns survives a full delay-matrix
    // computation. A payload whose grid no longer matches its PCA basis
    // must be caught by the decoder's validation, not by a panic
    // downstream.
    let model = extract(
        generators::ripple_carry_adder(2).expect("adder"),
        &SstaConfig::paper(),
    );
    let pristine = hier_ssta::core::codec::encode_model(&model);
    let mut panicked = Vec::new();
    let mut grid_rejects = 0;
    for at in 0..pristine.len() {
        for flip in [0x01u8, 0x80] {
            let mut bytes = pristine.clone();
            bytes[at] ^= flip;
            match hier_ssta::core::codec::decode_model(&bytes) {
                Ok(decoded) => {
                    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = decoded.delay_matrix();
                    }));
                    if computed.is_err() {
                        panicked.push((at, flip));
                    }
                }
                Err(CoreError::Codec { reason }) => {
                    if reason.contains("stored PCA basis") && reason.contains("grids") {
                        grid_rejects += 1;
                    }
                }
                Err(e) => panic!("byte {at} ^ {flip:#04x}: not a codec error: {e}"),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "mutations (byte, flip) decoded to models whose delay matrix panics: {panicked:?}"
    );
    assert!(
        grid_rejects > 0,
        "no mutation was rejected for a grid its PCA basis does not cover"
    );
}

#[test]
fn multi_byte_payload_damage_is_rejected_or_decodes_to_usable_models() {
    // The multi-byte sibling of the single-bit pass, seeded: overwrite
    // 1–8 random bytes, truncate, or stamp a run of `0xff` over the
    // payload. Same contract — a codec error, or a model whose delay
    // matrix computes.
    let model = extract(
        generators::ripple_carry_adder(2).expect("adder"),
        &SstaConfig::paper(),
    );
    let pristine = hier_ssta::core::codec::encode_model(&model);
    let mut rng = TestRng::deterministic("multi_byte_payload_damage");
    let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut panicked = Vec::new();
    let mut decoded = 0;
    for case in 0..3000 {
        let mut bytes = pristine.clone();
        match case % 3 {
            0 => {
                for _ in 0..1 + draw(8) {
                    let at = draw(bytes.len());
                    bytes[at] = draw(256) as u8;
                }
            }
            1 => bytes.truncate(draw(bytes.len())),
            _ => {
                let at = draw(bytes.len());
                let end = bytes.len().min(at + 1 + draw(16));
                bytes[at..end].fill(0xff);
            }
        }
        match hier_ssta::core::codec::decode_model(&bytes) {
            Ok(model) => {
                decoded += 1;
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = model.delay_matrix();
                }));
                if computed.is_err() {
                    panicked.push(case);
                }
            }
            Err(CoreError::Codec { .. }) => {}
            Err(e) => panic!("case {case}: not a codec error: {e}"),
        }
    }
    assert!(
        panicked.is_empty(),
        "damaged payloads (cases) decoded to models whose delay matrix panics: {panicked:?}"
    );
    assert!(
        decoded > 0,
        "no damaged payload decoded; delay_matrix never ran"
    );
}

/// `ripple_carry_adder(2)`'s model with every edge dropped, encoded,
/// with its geometry block spliced to claim 2³⁰ grid columns over a PCA
/// basis of a few grids. Every length prefix is in bounds and the bytes
/// are well formed; only the parts disagree. Every grid computation
/// sizes its buffers from the geometry (the module's grid centers alone
/// would take 2³⁰ · ny · 16 bytes), and an allocation that large aborts
/// the process instead of panicking, so no boundary may admit it.
fn oversized_grid_payload() -> Vec<u8> {
    let model = extract(
        generators::ripple_carry_adder(2).expect("adder"),
        &SstaConfig::paper(),
    );
    let mut bare = model.graph().clone();
    let edges: Vec<_> = bare.edges_iter().map(|(id, _)| id).collect();
    for e in edges {
        bare.remove_edge(e);
    }
    let (bare, _) = bare.compact();
    let stats = ExtractionStats {
        model_edges: bare.n_edges(),
        model_vertices: bare.n_vertices(),
        ..*model.stats()
    };
    let bare = TimingModel::assemble(
        model.name().to_owned(),
        bare,
        model.geometry(),
        model.pca().cloned(),
        model.config().clone(),
        stats,
        model.sequential().cloned(),
    )
    .expect("an edge-free model is valid");
    let payload = hier_ssta::core::codec::encode_model(&bare);

    // The geometry block: origin, pitch, then the grid columns and rows.
    let geometry = bare.geometry();
    let block = |nx: usize| {
        let mut w = ByteWriter::new();
        let (ox, oy) = geometry.origin();
        w.put_f64(ox);
        w.put_f64(oy);
        w.put_f64(geometry.pitch());
        w.put_usize(nx);
        w.put_usize(geometry.ny());
        w.into_bytes()
    };
    let honest = block(geometry.nx());
    let at: Vec<usize> = payload
        .windows(honest.len())
        .enumerate()
        .filter(|(_, w)| *w == honest.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        at.len(),
        1,
        "the geometry block {honest:?} occurs exactly once"
    );
    let mut spliced = payload[..at[0]].to_vec();
    spliced.extend(block(1 << 30));
    spliced.extend(&payload[at[0] + honest.len()..]);
    spliced
}

#[test]
fn a_grid_larger_than_its_basis_is_a_codec_error() {
    let payload = oversized_grid_payload();
    match hier_ssta::core::codec::decode_model(&payload) {
        Err(CoreError::Codec { reason }) => {
            assert!(reason.contains("PCA basis"), "{reason}");
        }
        Err(e) => panic!("not a codec error: {e}"),
        Ok(model) => panic!(
            "decoded a model claiming {} grid columns",
            model.geometry().nx()
        ),
    }
}

#[test]
fn a_stored_oversized_grid_is_rejected_and_re_extracted() {
    let mut b = DesignSpec::builder(
        "one",
        DieRect {
            width: 40.0,
            height: 40.0,
        },
    );
    let m = b.add_module(generators::ripple_carry_adder(2).expect("adder"));
    let u0 = b.add_instance("u0", m, (0.0, 0.0)).expect("u0");
    for k in 0..5 {
        b.expose_input(vec![(u0, k)]);
    }
    for k in 0..3 {
        b.expose_output(u0, k);
    }
    let spec = b.finish().expect("spec");

    let backend = Arc::new(MemoryBackend::new());
    let cold = Engine::new(SstaConfig::paper())
        .with_backend(Arc::clone(&backend))
        .analyze(&spec)
        .expect("cold");
    assert_eq!(cold.stats.extractions, 1);
    let keys = backend.list_keys().expect("keys");
    assert_eq!(keys.len(), 1);
    backend
        .put(
            &keys[0],
            &envelope::encode_envelope(Codec::Binary, &oversized_grid_payload()),
        )
        .expect("put");

    let healed = Engine::new(SstaConfig::paper())
        .with_backend(Arc::clone(&backend))
        .analyze(&spec)
        .expect("healed analysis");
    assert_eq!(healed.stats.store_rejects, 1);
    assert_eq!(healed.stats.extractions, 1);
    assert_eq!(healed.timing.po_arrivals, cold.timing.po_arrivals);
}

#[test]
fn an_sdf_cell_embedding_an_oversized_grid_fails_import() {
    let config = SstaConfig::paper();
    let model = extract(generators::ripple_carry_adder(2).expect("adder"), &config);
    let mut cell = hier_ssta::sdf::model_to_cell(&model, &hier_ssta::sdf::ExportOptions::default())
        .expect("export");
    cell.sstm = Some(hier_ssta::sdf::to_hex(&oversized_grid_payload()));
    match hier_ssta::sdf::import_cell(&cell, &config, 3.0) {
        Err(CoreError::Codec { reason }) => {
            assert!(reason.contains("PCA basis"), "{reason}");
        }
        Err(e) => panic!("not a codec error: {e}"),
        Ok(model) => panic!(
            "imported a model claiming {} grid columns",
            model.geometry().nx()
        ),
    }
}

// ---------------------------------------------------------------------
// Payload size: the c880 acceptance criterion.
// ---------------------------------------------------------------------

#[test]
fn binary_c880_artifact_is_at_most_half_the_json_size() {
    let model = extract(
        generators::iscas85("c880").expect("c880"),
        &SstaConfig::paper(),
    );
    let json = serde_json::to_vec(&model).expect("serialize");
    let binary = hier_ssta::core::codec::encode_model(&model);
    assert!(
        binary.len() * 2 <= json.len(),
        "c880 binary payload {} bytes vs JSON {} bytes: expected ≤ 50%",
        binary.len(),
        json.len()
    );
}

// ---------------------------------------------------------------------
// Engine-level determinism across backends × scheduling.
// ---------------------------------------------------------------------

/// Two distinct modules so the parallel scheduler has real fan-out.
fn two_module_spec() -> DesignSpec {
    let mut b = DesignSpec::builder(
        "mixed",
        DieRect {
            width: 80.0,
            height: 40.0,
        },
    );
    let ms = b.add_module(generators::ripple_carry_adder(4).expect("adder4"));
    let ml = b.add_module(generators::ripple_carry_adder(5).expect("adder5"));
    let u0 = b.add_instance("u0", ms, (0.0, 0.0)).expect("u0");
    let u1 = b.add_instance("u1", ml, (30.0, 0.0)).expect("u1");
    for k in 0..5 {
        b.connect(u0, k, u1, k);
    }
    for k in 0..9 {
        b.expose_input(vec![(u0, k)]);
    }
    for k in 5..11 {
        b.expose_input(vec![(u1, k)]);
    }
    for k in 0..6 {
        b.expose_output(u1, k);
    }
    b.finish().expect("spec")
}

#[test]
fn parallel_vs_serial_runs_are_bit_identical_across_backends_and_codecs() {
    let spec = two_module_spec();
    let dir = temp_dir("determinism");
    let mut reference: Option<Vec<_>> = None;

    for backend_name in ["fs", "memory"] {
        for threads in [1usize, 4] {
            let options = EngineOptions {
                threads,
                ..EngineOptions::default()
            };
            let engine = Engine::with_options(SstaConfig::paper(), options.clone());
            let mut engine = match backend_name {
                "fs" => engine
                    .with_store(dir.join(format!("fs-{threads}")))
                    .expect("store"),
                _ => engine.with_backend(MemoryBackend::new()),
            };
            // Cold run extracts and writes through the chosen backend; a
            // second run reads everything back.
            let cold = engine.analyze(&spec).expect("cold analysis");
            assert_eq!(cold.stats.extractions, 2);
            assert_eq!(cold.stats.store_writes, 2);
            assert!(cold.stats.store_bytes_written > 0);

            let arrivals = &cold.timing.po_arrivals;
            match &reference {
                None => reference = Some(arrivals.clone()),
                Some(r) => assert_eq!(arrivals, r, "{backend_name}/threads={threads} diverged"),
            }

            // Warm restart over the same backend: store hits only, and
            // byte accounting reflects the reads.
            if backend_name == "fs" {
                let mut warm = Engine::with_options(SstaConfig::paper(), options)
                    .with_store(dir.join(format!("fs-{threads}")))
                    .expect("store");
                let warm_run = warm.analyze(&spec).expect("warm analysis");
                assert_eq!(warm_run.stats.extractions, 0);
                assert_eq!(warm_run.stats.store_hits, 2);
                assert!(warm_run.stats.store_bytes_read > 0);
                assert_eq!(warm_run.stats.store_bytes_written, 0);
                assert_eq!(
                    &warm_run.timing.po_arrivals,
                    reference.as_ref().expect("set above")
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engines_can_share_one_memory_backend() {
    let spec = two_module_spec();
    let shared = Arc::new(MemoryBackend::new());

    let mut first = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&shared));
    let cold = first.analyze(&spec).expect("cold");
    assert_eq!(cold.stats.extractions, 2);

    // A different engine over the same shared map starts warm.
    let mut second = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&shared));
    let warm = second.analyze(&spec).expect("warm");
    assert_eq!(warm.stats.extractions, 0);
    assert_eq!(warm.stats.store_hits, 2);
    assert_eq!(warm.timing.po_arrivals, cold.timing.po_arrivals);
    assert_eq!(shared.len().expect("len"), 2);
}

#[test]
fn cold_engines_store_the_same_artifact_bytes_under_the_same_keys() {
    // An artifact is a pure function of its key: the payload carries no
    // wall clock or other run-dependent field, so two cold engines that
    // extract the same modules into separate stores write identical
    // bytes.
    let spec = two_module_spec();
    let backends = [MemoryBackend::new(), MemoryBackend::new()].map(Arc::new);
    for backend in &backends {
        let run = Engine::new(SstaConfig::paper())
            .with_backend(Arc::clone(backend))
            .analyze(&spec)
            .expect("cold");
        assert_eq!(run.stats.extractions, 2);
    }
    let artifacts = |backend: &MemoryBackend| -> Vec<(String, Vec<u8>)> {
        let keys = backend.list_keys().expect("keys");
        keys.into_iter()
            .map(|key| {
                let bytes = backend.get(&key).expect("get").expect("present");
                (key, bytes)
            })
            .collect()
    };
    let (first, second) = (artifacts(&backends[0]), artifacts(&backends[1]));
    assert_eq!(first.len(), 2);
    assert!(
        first == second,
        "the same keys must hold the same artifact bytes"
    );
}
