//! Acceptance tests for the sequential timing subsystem:
//!
//! * a 3-stage registered design of ISCAS85-class modules (c432, c880)
//!   analyzes hierarchically, and compressed (gray-box) models track
//!   uncompressed (paper-exact) models within 2% per stage;
//! * exporting the registered models to SDF, importing them into the
//!   engine's model store through the `SSTM` payload, and re-analyzing
//!   reproduces the hierarchical result bit-identically;
//! * pinned digests of two registered designs in both correlation
//!   modes, one of them with combinational instances and nonzero wires
//!   between the register banks;
//! * the combinational analysis sees a registered instance as opaque: a
//!   design output driven by one reports its clock-to-output arc.

use hier_ssta::core::{
    analyze, analyze_sequential, extract_registered, CanonicalForm, CorrelationMode, Design,
    DesignBuilder, ExtractOptions, ModuleContext, SequentialAnalyzeOptions, SequentialTiming,
    SstaConfig, TimingModel,
};
use hier_ssta::engine::{MemoryBackend, ModelStore};
use hier_ssta::math::digest::sha256;
use hier_ssta::netlist::{generators, DieRect};
use hier_ssta::sdf::{export_models, write_sdf, ExportOptions};
use std::sync::Arc;

const STAGES: [&str; 3] = ["c432", "c880", "c432"];

/// Extracts one registered model per pipeline stage.
fn stage_models(options: &ExtractOptions) -> (SstaConfig, Vec<Arc<TimingModel>>) {
    let stages = generators::registered_pipeline(&STAGES, "DFF").expect("generator");
    let config = SstaConfig::paper();
    let mut models = Vec::new();
    for stage in &stages {
        let ctx = ModuleContext::characterize(stage.core().clone(), &config).expect("context");
        models.push(Arc::new(
            extract_registered(&ctx, stage.register(), options).expect("extract"),
        ));
    }
    (config, models)
}

/// Chains the stage models into one registered design: stage `k`
/// outputs feed stage `k+1` register D pins round-robin, with zero
/// wires.
fn chain(config: &SstaConfig, models: &[Arc<TimingModel>]) -> Design {
    chain_with_wires(config, models, |_| 0.0)
}

/// [`chain`] with `wire_ps(p)` on the wire into input port `p` of each
/// next instance.
fn chain_with_wires(
    config: &SstaConfig,
    models: &[Arc<TimingModel>],
    wire_ps: impl Fn(usize) -> f64,
) -> Design {
    let widths: Vec<f64> = models.iter().map(|m| m.geometry().extent_um().0).collect();
    let height = models
        .iter()
        .map(|m| m.geometry().extent_um().1)
        .fold(0.0f64, f64::max);
    let die = DieRect {
        width: widths.iter().sum::<f64>() + 100.0,
        height: height + 100.0,
    };
    let mut b = DesignBuilder::new("seq-acceptance", die, config.clone());
    let mut ids = Vec::new();
    let mut x = 0.0;
    for (k, model) in models.iter().enumerate() {
        let id = b
            .add_instance(format!("s{k}"), model.clone(), None, (x, 0.0))
            .expect("instance");
        x += widths[k];
        ids.push(id);
    }
    for k in 0..models.len() - 1 {
        let n_out = models[k].n_outputs();
        for p in 0..models[k + 1].n_inputs() {
            b.connect(ids[k], p % n_out, ids[k + 1], p, wire_ps(p))
                .expect("connect");
        }
    }
    for p in 0..models[0].n_inputs() {
        b.expose_input(vec![(ids[0], p)]).expect("input");
    }
    for j in 0..models.last().unwrap().n_outputs() {
        b.expose_output(*ids.last().unwrap(), j).expect("output");
    }
    b.finish().expect("design")
}

#[test]
fn compressed_tracks_exact_within_two_percent_per_stage() {
    let (config, exact_models) = stage_models(&ExtractOptions::paper_exact());
    let (_, compressed_models) = stage_models(&ExtractOptions::default());
    let options = SequentialAnalyzeOptions::with_period(3000.0);
    let exact = analyze_sequential(&chain(&config, &exact_models), &options).expect("exact");
    let compressed =
        analyze_sequential(&chain(&config, &compressed_models), &options).expect("compressed");

    assert_eq!(exact.stages.len(), STAGES.len());
    for (a, b) in exact.stages.iter().zip(&compressed.stages) {
        let rel =
            (a.required_period.mean() - b.required_period.mean()).abs() / a.required_period.mean();
        assert!(
            rel < 0.02,
            "stage {}: required-period mean drifted {rel:.4}",
            a.instance
        );
        // Equivalent statement on the slack itself, normalized by the
        // stage's timing scale.
        let slack_drift =
            (a.setup_slack.mean() - b.setup_slack.mean()).abs() / a.required_period.mean();
        assert!(
            slack_drift < 0.02,
            "stage {}: slack mean drifted {slack_drift:.4}",
            a.instance
        );
    }
    let period_rel =
        (exact.min_period.mean() - compressed.min_period.mean()).abs() / exact.min_period.mean();
    assert!(period_rel < 0.02, "min-period mean drifted {period_rel:.4}");
}

#[test]
fn sdf_store_round_trip_reproduces_the_analysis_bit_identically() {
    let (config, models) = stage_models(&ExtractOptions::default());
    let options = SequentialAnalyzeOptions::with_period(3000.0);
    let original = analyze_sequential(&chain(&config, &models), &options).expect("analyze");

    // Export → SDF text → import into the engine's model store.
    let sdf =
        export_models(models.iter().map(Arc::as_ref), &ExportOptions::default()).expect("export");
    let text = write_sdf(&sdf);
    let store = ModelStore::with_backend(MemoryBackend::new());
    let receipts = store.import_sdf(&text, &config, 3.0).expect("import");
    assert_eq!(receipts.len(), models.len());
    assert!(receipts.iter().all(|r| r.bit_exact));

    // Re-assemble the design from the store's copies and re-analyze.
    let imported: Vec<Arc<TimingModel>> = receipts
        .iter()
        .map(|r| Arc::new(store.load(&r.key).expect("load").expect("present")))
        .collect();
    for (orig, imp) in models.iter().zip(&imported) {
        assert_eq!(orig.name(), imp.name());
    }
    let replay = analyze_sequential(&chain(&config, &imported), &options).expect("replay");

    assert_eq!(replay.min_period, original.min_period);
    assert_eq!(replay.worst_setup_slack, original.worst_setup_slack);
    assert_eq!(replay.worst_hold_slack, original.worst_hold_slack);
    for (a, b) in replay.stages.iter().zip(&original.stages) {
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.capture_arrival, b.capture_arrival);
        assert_eq!(a.required_period, b.required_period);
        assert_eq!(a.setup_slack, b.setup_slack);
        assert_eq!(a.hold_slack, b.hold_slack);
    }

    // Importing the same file again lands on the same keys — the
    // import is idempotent, not duplicating artifacts.
    let again = store.import_sdf(&text, &config, 3.0).expect("re-import");
    assert_eq!(again, receipts);
}

/// Registered c432 → c880 → c499 → registered c432: two combinational
/// instances between the register banks, joined by a mix of zero wires
/// and 1.5–3.0 ps wires.
fn mixed_registered_chain() -> Design {
    let config = SstaConfig::paper();
    let stages = generators::registered_pipeline(&["c432", "c880", "c499", "c432"], "DFF")
        .expect("generator");
    let models: Vec<Arc<TimingModel>> = stages
        .iter()
        .enumerate()
        .map(|(k, stage)| {
            let ctx = ModuleContext::characterize(stage.core().clone(), &config).expect("context");
            let options = ExtractOptions::default();
            let model = if k == 0 || k == stages.len() - 1 {
                extract_registered(&ctx, stage.register(), &options)
            } else {
                ctx.extract_model(&options)
            };
            Arc::new(model.expect("extract"))
        })
        .collect();
    chain_with_wires(&config, &models, |p| {
        if p % 3 == 0 {
            0.0
        } else {
            1.5 + 0.5 * (p % 4) as f64
        }
    })
}

/// Every coefficient of `f` as little-endian bytes; with `fold_zero_sign`
/// a `-0.0` coefficient is written as `+0.0`.
fn push_form_bytes(f: &CanonicalForm, fold_zero_sign: bool, out: &mut Vec<u8>) {
    let coefficients = std::iter::once(f.mean())
        .chain(f.globals().iter().copied())
        .chain(f.locals().iter().copied())
        .chain(std::iter::once(f.random()));
    for c in coefficients {
        let c = if fold_zero_sign && c == 0.0 { 0.0 } else { c };
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

/// SHA-256 over every stage's forms, then the design-wide summaries.
fn timing_digest(t: &SequentialTiming, fold_zero_sign: bool) -> String {
    let mut bytes = Vec::new();
    for s in &t.stages {
        let forms = [&s.capture_arrival, &s.required_period, &s.setup_slack];
        for f in forms.into_iter().chain(&s.hold_slack) {
            push_form_bytes(f, fold_zero_sign, &mut bytes);
        }
    }
    for f in [&t.min_period, &t.worst_setup_slack]
        .into_iter()
        .chain(&t.worst_hold_slack)
    {
        push_form_bytes(f, fold_zero_sign, &mut bytes);
    }
    sha256(&bytes).to_hex()
}

#[test]
fn sequential_results_match_golden_digests() {
    // Proposed-mode digests hash raw bits. GlobalOnly-mode digests fold
    // the sign of zero: a coefficient outside an instance's private
    // block is an exact zero whose sign only records which way the hold
    // pass negated it.
    let (config, models) = stage_models(&ExtractOptions::default());
    let designs = [
        (
            "registered chain",
            chain(&config, &models),
            [
                "a1be8b17de47cac185f9b6a8c77827104f7f7f3ec2694d7357d573218253f87f",
                "2005a517c4f020f228cc4551b7c2d7abbc1b37be267a76bfcbbab430a5669805",
            ],
        ),
        (
            "mixed registered chain",
            mixed_registered_chain(),
            [
                "ff37fa11cc115df76c6564f408a01fff90bc97b0921f6ee9b91426386cd5b37c",
                "e9faa9457dbcf8fbfee89adb696582e2a4c13603f5ae9ffbfc4fb7024ccb9085",
            ],
        ),
    ];
    let mut drifted = Vec::new();
    for (name, design, want) in &designs {
        for (mode, want) in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly]
            .into_iter()
            .zip(want)
        {
            let options = SequentialAnalyzeOptions {
                clock_period_ps: 3000.0,
                mode,
            };
            let t = analyze_sequential(design, &options).expect("analyze");
            let got = timing_digest(&t, mode == CorrelationMode::GlobalOnly);
            if got != *want {
                drifted.push(format!("{name} {mode:?}: {got}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "digests drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn combinational_analysis_treats_registered_instances_as_opaque() {
    // Every design output is a launch port of the last registered
    // stage, which no path within the cycle reaches: its arrival is the
    // clock-to-output arc, whose mean the rewrite into the design
    // variable space keeps.
    let (config, models) = stage_models(&ExtractOptions::default());
    let design = chain(&config, &models);
    let last = models.last().unwrap().sequential().expect("registered");
    for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
        let t = analyze(&design, mode).expect("analyze");
        assert_eq!(t.po_arrivals.len(), models.last().unwrap().n_outputs());
        for (j, arrival) in t.po_arrivals.iter().enumerate() {
            let launch = last.launch_of(j).expect("launch arc");
            assert_eq!(arrival.mean(), launch.mean(), "{mode:?} PO {j}");
        }
    }
}
