//! The engine contract, end to end:
//!
//! * a design with ≥ 4 instances of one module performs exactly one
//!   characterization/extraction (fingerprint deduplication);
//! * a warm-cache engine run performs zero extractions (persistent model
//!   library);
//! * parallel and serial engine runs produce bit-identical results;
//! * invalidating one module recomputes only that module;
//! * the versioned on-disk format round-trips models bit-exactly and
//!   rejects corrupt, wrong-version or retired-format artifacts cleanly;
//! * spec wire delays reach the analysis;
//! * malformed wiring is refused when the spec is finished, before any
//!   engine sees it, and the spec builder agrees with `DesignBuilder`
//!   on random wirings.

#[path = "support/quad_adder.rs"]
mod quad_adder;

use hier_ssta::core::{
    analyze, CanonicalForm, CoreError, CorrelationMode, Design, DesignBuilder, ExtractOptions,
    ModuleContext, SstaConfig,
};
use hier_ssta::engine::{
    store, DesignSpec, DesignSpecBuilder, Engine, EngineError, EngineOptions, ModelStore, ModuleId,
};
use hier_ssta::math::digest::sha256;
use hier_ssta::netlist::{generators, DieRect};
use proptest::test_runner::TestRng;
use quad_adder::{quad_adder_builder, quad_adder_spec};
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh scratch directory for a persistent store.
fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hier-ssta-engine-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two structurally different modules (a 4-bit and a 5-bit adder) chained.
fn two_module_spec() -> (DesignSpec, ModuleId, ModuleId) {
    let small = generators::ripple_carry_adder(4).expect("adder4");
    let large = generators::ripple_carry_adder(5).expect("adder5");
    let mut b = DesignSpec::builder(
        "mixed",
        DieRect {
            width: 80.0,
            height: 40.0,
        },
    );
    let ms = b.add_module(small);
    let ml = b.add_module(large);
    let u0 = b.add_instance("u0", ms, (0.0, 0.0)).expect("u0");
    let u1 = b.add_instance("u1", ml, (30.0, 0.0)).expect("u1");
    // u0's five outputs feed u1's first five inputs.
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
    (b.finish().expect("spec"), ms, ml)
}

#[test]
fn four_instances_extract_once() {
    let (spec, _) = quad_adder_spec();
    let mut engine = Engine::new(SstaConfig::paper());
    let run = engine.analyze(&spec).expect("analysis");
    assert_eq!(run.stats.distinct_fingerprints, 1);
    assert_eq!(run.stats.extractions, 1, "one definition, one extraction");
    assert!(run.timing.delay.mean() > 0.0);
    assert!(run.timing.delay.std_dev() > 0.0);

    // Re-analysis in the same session: everything from memory.
    let again = engine.analyze(&spec).expect("re-analysis");
    assert_eq!(again.stats.extractions, 0);
    assert_eq!(again.stats.memory_hits, 1);
    assert_eq!(again.timing.po_arrivals, run.timing.po_arrivals);
}

#[test]
fn duplicate_definitions_dedupe_by_content() {
    // The same netlist registered as two separate module definitions
    // still characterizes once: dedupe is by content, not by id.
    let mut b = DesignSpec::builder(
        "dup",
        DieRect {
            width: 60.0,
            height: 40.0,
        },
    );
    // Same structure under a *different* name: the name is a label and
    // must not defeat content deduplication.
    let ma = b.add_module(generators::ripple_carry_adder(4).expect("adder"));
    let mb = b.add_module(
        generators::ripple_carry_adder(4)
            .expect("adder")
            .renamed("alu_west"),
    );
    let u0 = b.add_instance("u0", ma, (0.0, 0.0)).expect("u0");
    let u1 = b.add_instance("u1", mb, (30.0, 0.0)).expect("u1");
    for k in 0..9 {
        b.expose_input(vec![(u0, k)]);
        b.expose_input(vec![(u1, k)]);
    }
    b.expose_output(u0, 4);
    b.expose_output(u1, 4);
    let spec = b.finish().expect("spec");

    let mut engine = Engine::new(SstaConfig::paper());
    let run = engine.analyze(&spec).expect("analysis");
    assert_eq!(run.stats.distinct_fingerprints, 1);
    assert_eq!(run.stats.extractions, 1);
}

#[test]
fn warm_store_run_performs_zero_extractions() {
    let dir = temp_store_dir("warm");
    let (spec, _) = quad_adder_spec();

    // Cold run: extract once, write the artifact.
    let mut cold = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    let cold_run = cold.analyze(&spec).expect("cold analysis");
    assert_eq!(cold_run.stats.extractions, 1);
    assert_eq!(cold_run.stats.store_writes, 1);
    assert_eq!(cold.store().expect("store").len().expect("len"), 1);

    // Warm run: a *fresh* engine (new process, in spirit) with the same
    // library performs zero extractions.
    let mut warm = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    let warm_run = warm.analyze(&spec).expect("warm analysis");
    assert_eq!(warm_run.stats.extractions, 0, "warm cache: no extraction");
    assert_eq!(warm_run.stats.store_hits, 1);

    // And the cached model yields bit-identical timing.
    assert_eq!(warm_run.timing.po_arrivals, cold_run.timing.po_arrivals);
    assert_eq!(
        warm_run.timing.delay.mean().to_bits(),
        cold_run.timing.delay.mean().to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_runs_are_bit_identical() {
    let (spec, _, _) = {
        let s = two_module_spec();
        (s.0, s.1, s.2)
    };
    let run_with_threads = |threads: usize| {
        let mut engine = Engine::with_options(
            SstaConfig::paper(),
            EngineOptions {
                threads,
                ..EngineOptions::default()
            },
        );
        engine.analyze(&spec).expect("analysis")
    };
    let serial = run_with_threads(1);
    let parallel = run_with_threads(4);
    assert_eq!(serial.stats.extractions, 2);
    assert_eq!(parallel.stats.extractions, 2);
    assert_eq!(
        serial.timing.po_arrivals, parallel.timing.po_arrivals,
        "arrival times must be bit-identical across thread counts"
    );
    assert_eq!(
        serial.timing.delay.mean().to_bits(),
        parallel.timing.delay.mean().to_bits()
    );
    assert_eq!(
        serial.timing.delay.std_dev().to_bits(),
        parallel.timing.delay.std_dev().to_bits()
    );
}

#[test]
fn invalidation_recomputes_only_that_module() {
    let (spec, ms, _) = two_module_spec();
    let mut engine = Engine::new(SstaConfig::paper());
    let first = engine.analyze(&spec).expect("first analysis");
    assert_eq!(first.stats.extractions, 2);

    // Invalidate the small adder: only it recomputes, the large adder is
    // served from the session cache.
    assert!(engine.invalidate(&spec, ms).expect("invalidate"));
    let second = engine.analyze(&spec).expect("second analysis");
    assert_eq!(second.stats.extractions, 1, "only the invalidated module");
    assert_eq!(second.stats.memory_hits, 1, "the other module is cached");
    assert_eq!(second.timing.po_arrivals, first.timing.po_arrivals);

    // Invalidating an unknown module id is a spec error.
    assert!(matches!(
        engine.invalidate(&spec, ModuleId(99)),
        Err(EngineError::Spec { .. })
    ));
}

#[test]
fn unused_module_definitions_cost_nothing() {
    // A registered definition with no instances must not be
    // characterized, extracted, or counted.
    let mut b = DesignSpec::builder(
        "partial",
        DieRect {
            width: 60.0,
            height: 40.0,
        },
    );
    let used = b.add_module(generators::ripple_carry_adder(4).expect("adder"));
    let _unused = b.add_module(generators::ripple_carry_adder(12).expect("big adder"));
    let u0 = b.add_instance("u0", used, (0.0, 0.0)).expect("u0");
    for k in 0..9 {
        b.expose_input(vec![(u0, k)]);
    }
    b.expose_output(u0, 4);
    let spec = b.finish().expect("spec");

    let mut engine = Engine::new(SstaConfig::paper());
    let run = engine.analyze(&spec).expect("analysis");
    assert_eq!(run.stats.distinct_fingerprints, 1);
    assert_eq!(run.stats.extractions, 1, "unused definition not extracted");
}

#[test]
fn invalidate_all_clears_artifacts_from_other_engines() {
    let dir = temp_store_dir("invalidate-all");
    let (spec, _) = quad_adder_spec();
    Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store")
        .analyze(&spec)
        .expect("seed the store");

    // A *fresh* engine (empty memory tier) must still clear the store.
    let mut fresh = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    fresh.invalidate_all().expect("invalidate all");
    assert_eq!(fresh.store().expect("store").len().expect("len"), 0);
    let run = fresh.analyze(&spec).expect("post-invalidate analysis");
    assert_eq!(run.stats.store_hits, 0);
    assert_eq!(run.stats.extractions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The design [`quad_adder_builder`] describes, assembled by hand from
/// the engine's cached adder model.
fn quad_adder_design(engine: &mut Engine, config: &SstaConfig, wire_ps: f64) -> Design {
    let netlist = generators::ripple_carry_adder(4).expect("adder");
    let (model, _) = engine.model_for(&netlist).expect("cached model");
    let mut b = DesignBuilder::new(
        "quad-adder",
        DieRect {
            width: 60.0,
            height: 60.0,
        },
        config.clone(),
    );
    let mut insts = Vec::new();
    for (name, origin) in [
        ("u0", (0.0, 0.0)),
        ("u1", (25.0, 0.0)),
        ("u2", (0.0, 25.0)),
        ("u3", (25.0, 25.0)),
    ] {
        insts.push(
            b.add_instance(name, Arc::clone(&model), None, origin)
                .expect("instance"),
        );
    }
    for w in insts.windows(2) {
        b.connect(w[0], 0, w[1], 8, wire_ps).expect("carry wire");
    }
    for (i, &inst) in insts.iter().enumerate() {
        for k in 0..8 {
            b.expose_input(vec![(inst, k)]).expect("pi");
        }
        if i == 0 {
            b.expose_input(vec![(inst, 8)]).expect("pi");
        }
    }
    for k in 0..5 {
        b.expose_output(insts[3], k).expect("po");
    }
    b.finish().expect("design")
}

#[test]
fn engine_matches_the_direct_analysis_path() {
    // The engine adds scheduling and caching, not semantics: assembling
    // the same design by hand must give identical timing.
    let (spec, _) = quad_adder_spec();
    let config = SstaConfig::paper();
    let mut engine = Engine::new(config.clone());
    let run = engine.analyze(&spec).expect("engine analysis");

    let design = quad_adder_design(&mut engine, &config, 0.0);
    let direct = analyze(&design, CorrelationMode::Proposed).expect("direct analysis");

    assert_eq!(run.timing.po_arrivals, direct.po_arrivals);
}

/// The bits of every coefficient of every form.
fn form_bits<'a>(forms: impl IntoIterator<Item = &'a CanonicalForm>) -> Vec<u64> {
    forms
        .into_iter()
        .flat_map(|f| {
            std::iter::once(f.mean())
                .chain(f.globals().iter().copied())
                .chain(f.locals().iter().copied())
                .chain(std::iter::once(f.random()))
        })
        .map(f64::to_bits)
        .collect()
}

#[test]
fn spec_wire_delays_reach_the_analysis_and_non_finite_ones_are_rejected() {
    let config = SstaConfig::paper();
    let mut engine = Engine::new(config.clone());
    let spec = quad_adder_builder(2.5).0.finish().expect("spec");
    let run = engine.analyze(&spec).expect("engine analysis");
    let design = quad_adder_design(&mut engine, &config, 2.5);
    let direct = analyze(&design, CorrelationMode::Proposed).expect("direct analysis");
    let engine_forms = run.timing.po_arrivals.iter().chain([&run.timing.delay]);
    let direct_forms = direct.po_arrivals.iter().chain([&direct.delay]);
    assert!(form_bits(engine_forms) == form_bits(direct_forms));
    // The wires are not dropped: the zero-wire design is faster.
    let zero_wires = engine.analyze(&quad_adder_spec().0).expect("zero wires");
    assert!(zero_wires.timing.delay.mean() < run.timing.delay.mean());

    let err = quad_adder_builder(f64::NAN)
        .0
        .finish()
        .expect_err("a NaN wire is an error");
    assert!(matches!(err, EngineError::Spec { .. }), "{err}");
    assert!(err.to_string().contains("finite and non-negative"), "{err}");
}

/// Why `finish` refuses the quad adder with `wire_ps` carry wires once
/// `defect` is added; the refusal must be a spec error.
fn refusal<R>(wire_ps: f64, defect: impl FnOnce(&mut DesignSpecBuilder, ModuleId) -> R) -> String {
    let (mut b, m) = quad_adder_builder(wire_ps);
    defect(&mut b, m);
    match b.finish() {
        Err(EngineError::Spec { reason }) => reason,
        other => panic!("not refused as a spec error: {other:?}"),
    }
}

#[test]
fn malformed_wiring_is_refused_before_any_module_resolves() {
    // The quad adder's u0..u3 have 9 inputs and 5 outputs each; u1..u3's
    // carry-in, input 8, is wired from the previous output 0. `finish`
    // refuses each defect, so no engine ever sees the spec.
    let r = refusal(0.0, |b, _| b.connect(3, 0, 9, 0));
    assert_eq!(r, "instance 9 does not exist");
    let r = refusal(0.0, |b, _| b.expose_input(vec![(0, 0), (7, 0)]));
    assert_eq!(r, "instance 7 does not exist");
    let r = refusal(0.0, |b, _| b.expose_output(5, 0));
    assert_eq!(r, "instance 5 does not exist");
    for (wire_ps, shown) in [(f64::NAN, "NaN"), (-1.0, "-1")] {
        let r = refusal(wire_ps, |_, _| ());
        let wire = format!("wire from `u0` output 0 to `u1` input 8 has delay {shown} ps;");
        assert!(
            r.starts_with(&wire) && r.ends_with("finite and non-negative"),
            "{r}"
        );
    }
    let r = refusal(0.0, |b, _| b.connect(3, 1, 0, 9));
    assert_eq!(r, "input port 9 out of range for `u0` (9 inputs)");
    let r = refusal(0.0, |b, _| b.expose_output(3, 5));
    assert_eq!(r, "output port 5 out of range for `u3` (5 outputs)");
    let r = refusal(0.0, |b, _| b.expose_input(Vec::new()));
    assert_eq!(r, "design input must drive at least one port");
    let r = refusal(0.0, |b, m| b.add_instance("u4", m, (0.0, 0.0)));
    assert_eq!(
        r,
        "input port 0 of instance `u4` driven 0 times (must be 1)"
    );
    let r = refusal(0.0, |b, _| b.expose_input(vec![(1, 8)]));
    assert_eq!(
        r,
        "input port 8 of instance `u1` driven 2 times (must be 1)"
    );
}

/// `(from, output port, to, input port, wire ps)` connections, design
/// input target lists and design output sources.
type Wiring = (
    Vec<(usize, usize, usize, usize, f64)>,
    Vec<Vec<(usize, usize)>>,
    Vec<(usize, usize)>,
);

/// A well-formed wiring of three `rca2` instances (5 inputs, 3 outputs
/// each; every input driven once, by a design input or an earlier
/// instance's output) with zero to two defects, whose instance ids and
/// ports reach one past the end.
fn random_wiring(rng: &mut TestRng) -> Wiring {
    const DELAYS: [f64; 6] = [0.0, -0.0, 1.5, -1.0, f64::NAN, f64::INFINITY];
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let (mut wires, mut inputs, mut outputs) = (Vec::new(), Vec::<Vec<_>>::new(), Vec::new());
    for inst in 0..3 {
        for port in 0..5 {
            if inst > 0 && pick(3) == 0 {
                wires.push((pick(inst), pick(3), inst, port, DELAYS[pick(3)]));
            } else if !inputs.is_empty() && pick(4) == 0 {
                let k = pick(inputs.len());
                inputs[k].push((inst, port));
            } else {
                inputs.push(vec![(inst, port)]);
            }
        }
    }
    for _ in 0..1 + pick(2) {
        outputs.push((pick(3), pick(3)));
    }
    for _ in 0..pick(3) {
        match pick(6) {
            0 if !wires.is_empty() => {
                let k = pick(wires.len());
                wires[k].4 = DELAYS[pick(6)];
            }
            1 => wires.push((pick(4), pick(4), pick(4), pick(6), DELAYS[pick(6)])),
            2 => inputs.push(Vec::new()),
            3 => inputs.push(vec![(pick(4), pick(6))]),
            4 => outputs.push((pick(4), pick(4))),
            5 if !inputs.is_empty() => {
                let k = pick(inputs.len());
                inputs.swap_remove(k);
            }
            _ => {}
        }
    }
    (wires, inputs, outputs)
}

#[test]
fn spec_and_design_builders_agree_on_random_wirings() {
    let config = SstaConfig::paper();
    let netlist = generators::ripple_carry_adder(2).expect("adder");
    let ctx = ModuleContext::characterize(netlist.clone(), &config).expect("characterize");
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("model"),
    );
    assert_eq!((model.n_inputs(), model.n_outputs()), (5, 3));
    let die = DieRect {
        width: 1000.0,
        height: 1000.0,
    };
    let mut rng = TestRng::deterministic("wiring_agreement");
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..400 {
        let (wires, inputs, outputs) = random_wiring(&mut rng);
        let mut spec = DesignSpec::builder("wiring", die);
        let m = spec.add_module(netlist.clone());
        let mut design = DesignBuilder::new("wiring", die, config.clone());
        for k in 0..3 {
            let (name, origin) = (format!("u{k}"), (100.0 * k as f64, 0.0));
            spec.add_instance(name.clone(), m, origin)
                .expect("spec instance");
            let model = Arc::clone(&model);
            design
                .add_instance(name, model, None, origin)
                .expect("instance");
        }
        // `DesignBuilder` refuses at the first bad call, the spec at
        // `finish`; both must give the same reason.
        let mut first = Ok(());
        for &(from, from_port, to, to_port, wire) in &wires {
            spec.connect_with_delay(from, from_port, to, to_port, wire);
            first = first.and_then(|()| design.connect(from, from_port, to, to_port, wire));
        }
        for targets in &inputs {
            spec.expose_input(targets.clone());
            first = first.and_then(|()| design.expose_input(targets.clone()).map(drop));
        }
        for &(inst, port) in &outputs {
            spec.expose_output(inst, port);
            first = first.and_then(|()| design.expose_output(inst, port).map(drop));
        }
        match (spec.finish(), first.and_then(|()| design.finish())) {
            (Ok(_), Ok(_)) => accepted += 1,
            (Err(EngineError::Spec { reason }), Err(CoreError::Config { reason: r }))
                if reason == r =>
            {
                rejected += 1
            }
            other => panic!("{other:?} on {wires:?} {inputs:?} {outputs:?}"),
        }
    }
    assert!(
        accepted >= 40 && rejected >= 40,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn store_round_trip_preserves_the_model_bit_exactly() {
    let dir = temp_store_dir("roundtrip");
    let store = ModelStore::open(&dir).expect("open");
    let netlist = generators::ripple_carry_adder(6).expect("adder");
    let config = SstaConfig::paper();
    let ctx = hier_ssta::core::ModuleContext::characterize(netlist, &config).expect("ctx");
    let model = ctx
        .extract_model(&hier_ssta::core::ExtractOptions::default())
        .expect("extract");

    let key = "a".repeat(64);
    assert!(!store.contains(&key));
    assert!(store.load(&key).expect("absent is not an error").is_none());
    store.save(&key, &model).expect("save");
    assert!(store.contains(&key));
    let back = store.load(&key).expect("load").expect("present");

    assert_eq!(back.name(), model.name());
    assert_eq!(back.edge_count(), model.edge_count());
    let a = model.delay_matrix().expect("matrix");
    let b = back.delay_matrix().expect("matrix");
    let (worst_mean, mismatched) = a.compare_with(&b, |d| d.mean());
    assert_eq!(mismatched, 0);
    assert_eq!(worst_mean, 0.0, "bit-exact mean preservation");
    let (worst_sigma, _) = a.compare_with(&b, |d| d.std_dev());
    assert_eq!(worst_sigma, 0.0, "bit-exact sigma preservation");

    assert!(store.remove(&key).expect("remove"));
    assert!(!store.contains(&key));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_rejects_corrupt_and_wrong_version_artifacts() {
    let dir = temp_store_dir("rejects");
    let store = ModelStore::open(&dir).expect("open");
    let netlist = generators::ripple_carry_adder(2).expect("adder");
    let config = SstaConfig::paper();
    let ctx = hier_ssta::core::ModuleContext::characterize(netlist, &config).expect("ctx");
    let model = ctx
        .extract_model(&hier_ssta::core::ExtractOptions::default())
        .expect("extract");
    let key = "b".repeat(64);
    store.save(&key, &model).expect("save");

    // Locate the artifact on disk.
    let path = {
        let mut found = None;
        for shard in std::fs::read_dir(&dir).expect("read root") {
            let shard = shard.expect("entry").path();
            if shard.is_dir() {
                for f in std::fs::read_dir(&shard).expect("read shard") {
                    found = Some(f.expect("entry").path());
                }
            }
        }
        found.expect("artifact exists")
    };
    let pristine = std::fs::read(&path).expect("read artifact");

    // Flip one payload byte: integrity stamp mismatch.
    let mut corrupt = pristine.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    std::fs::write(&path, &corrupt).expect("write corrupt");
    assert!(matches!(
        store.load(&key),
        Err(EngineError::Store { reason }) if reason.contains("integrity")
    ));

    // Bump the version field: unsupported version.
    let mut wrong_version = pristine.clone();
    wrong_version[4] = store::FORMAT_VERSION as u8 + 1;
    std::fs::write(&path, &wrong_version).expect("write versioned");
    assert!(matches!(
        store.load(&key),
        Err(EngineError::Store { reason }) if reason.contains("version")
    ));

    // The retired formats, hand-framed around the same model as JSON: a
    // v1 envelope (version 1, no codec byte) and a v2 envelope with
    // codec byte 0. Neither is parsed; both are rejected by name.
    let json = serde_json::to_vec(&model).expect("serialize");
    let frame = |header: &[u8]| {
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&(json.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&sha256(&json).prefix_u64().to_be_bytes());
        bytes.extend_from_slice(&json);
        bytes
    };
    std::fs::write(&path, frame(b"SSTM\x01\x00")).expect("write v1");
    assert!(matches!(
        store.load(&key),
        Err(EngineError::Store { reason }) if reason.contains("version 1")
    ));
    std::fs::write(&path, frame(b"SSTM\x02\x00\x00")).expect("write JSON codec");
    assert!(matches!(
        store.load(&key),
        Err(EngineError::Store { reason }) if reason.contains("codec byte 0x00")
    ));

    // Truncate below the header: rejected, not a panic.
    std::fs::write(&path, &pristine[..10]).expect("write truncated");
    assert!(matches!(
        store.load(&key),
        Err(EngineError::Store { reason }) if reason.contains("truncated")
    ));

    // Restore the pristine bytes: loads again.
    std::fs::write(&path, &pristine).expect("restore");
    assert!(store.load(&key).expect("pristine loads").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_store_writes_do_not_fail_the_analysis() {
    // A read-only or broken library is a degraded cache, not an error:
    // the analysis must still return, counting the failed write.
    let dir = temp_store_dir("write-fail");
    let (spec, _) = quad_adder_spec();
    let mut engine = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    // Sabotage the shard: a *file* where the shard directory must go
    // makes save()'s create_dir_all fail, while load treats the missing
    // path as a miss.
    let key = engine.module_key(&generators::ripple_carry_adder(4).expect("adder"));
    std::fs::write(dir.join(&key[..2]), b"not a directory").expect("plant file");

    let run = engine.analyze(&spec).expect("analysis still succeeds");
    assert_eq!(run.stats.extractions, 1);
    assert_eq!(run.stats.store_writes, 0);
    assert_eq!(run.stats.store_write_failures, 1);
    assert!(run.timing.delay.mean() > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_recovers_from_a_corrupt_store_artifact() {
    let dir = temp_store_dir("recover");
    let (spec, _) = quad_adder_spec();
    let mut engine = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    let cold = engine.analyze(&spec).expect("cold");
    assert_eq!(cold.stats.extractions, 1);

    // Corrupt the stored artifact behind the engine's back.
    for shard in std::fs::read_dir(&dir).expect("read root") {
        let shard = shard.expect("entry").path();
        if shard.is_dir() {
            for f in std::fs::read_dir(&shard).expect("read shard") {
                let p = f.expect("entry").path();
                let mut bytes = std::fs::read(&p).expect("read");
                let last = bytes.len() - 1;
                bytes[last] ^= 0xFF;
                std::fs::write(&p, bytes).expect("write");
            }
        }
    }

    // A fresh engine rejects the artifact, recomputes and heals the
    // store.
    let mut fresh = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    let healed = fresh.analyze(&spec).expect("healed analysis");
    assert_eq!(healed.stats.store_rejects, 1);
    assert_eq!(healed.stats.extractions, 1);
    assert_eq!(healed.timing.po_arrivals, cold.timing.po_arrivals);

    // And the rewritten artifact now serves a warm run.
    let mut warm = Engine::new(SstaConfig::paper())
        .with_store(&dir)
        .expect("store");
    let warm_run = warm.analyze(&spec).expect("warm");
    assert_eq!(warm_run.stats.extractions, 0);
    assert_eq!(warm_run.stats.store_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
