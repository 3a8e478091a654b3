//! End-to-end extraction flow across crates: generate a benchmark,
//! characterize it, extract a timing model, and validate the model's
//! statistical delay matrix against Monte Carlo of the original netlist —
//! the paper's Table I acceptance criteria at test scale.

use hier_ssta::core::{ExtractOptions, ModuleContext, SstaConfig};
use hier_ssta::mc::{model_vs_mc, module_delay_matrix, McOptions};
use hier_ssta::netlist::generators;

fn mc_options() -> McOptions {
    McOptions {
        samples: 3000,
        ..Default::default()
    }
}

#[test]
fn c432_model_matches_monte_carlo_within_paper_band() {
    let ctx = ModuleContext::characterize(
        generators::iscas85("c432").expect("benchmark"),
        &SstaConfig::paper(),
    )
    .expect("characterize");
    let model = ctx
        .extract_model(&ExtractOptions::default())
        .expect("extract");
    let mc = module_delay_matrix(&ctx, &mc_options()).expect("MC");
    let err = model_vs_mc(&model.delay_matrix().expect("matrix"), &mc);

    assert_eq!(err.connectivity_mismatches, 0);
    // Paper band: merr <= 1.21%, verr <= 1.6% across ISCAS85 (at 10k
    // samples); allow headroom for the reduced MC effort here.
    assert!(err.merr < 0.02, "merr = {}", err.merr);
    assert!(err.verr < 0.06, "verr = {}", err.verr);
    // Compression actually happened.
    assert!(model.stats().edge_ratio() < 0.6);
    assert!(model.stats().vertex_ratio() < 0.6);
}

#[test]
fn adder_model_is_equivalent_for_design_use() {
    // For a module whose model and original graph are both available, the
    // analytic delay matrices must agree pair-by-pair within tolerance.
    let ctx = ModuleContext::characterize(
        generators::ripple_carry_adder(12).expect("adder"),
        &SstaConfig::paper(),
    )
    .expect("characterize");
    let model = ctx
        .extract_model(&ExtractOptions::default())
        .expect("extract");
    let orig = ctx.delay_matrix().expect("matrix");
    let compressed = model.delay_matrix().expect("matrix");
    for (i, j, d) in orig.iter() {
        let r = compressed.get(i, j).expect("connectivity preserved");
        let mean_rel = (d.mean() - r.mean()).abs() / d.mean();
        assert!(mean_rel < 0.02, "pair ({i},{j}) mean error {mean_rel}");
        let sigma_rel = (d.std_dev() - r.std_dev()).abs() / d.std_dev();
        assert!(sigma_rel < 0.08, "pair ({i},{j}) sigma error {sigma_rel}");
    }
}

#[test]
fn extraction_scales_across_benchmark_sizes() {
    // Extraction must succeed and compress on a spread of circuit sizes.
    for name in ["c432", "c499", "c880"] {
        let ctx = ModuleContext::characterize(
            generators::iscas85(name).expect("benchmark"),
            &SstaConfig::paper(),
        )
        .expect("characterize");
        let model = ctx
            .extract_model(&ExtractOptions::default())
            .expect("extract");
        let stats = model.stats();
        assert!(
            stats.model_edges < stats.original_edges,
            "{name}: no compression"
        );
        assert_eq!(model.n_inputs(), ctx.netlist().n_inputs(), "{name}");
        assert_eq!(model.n_outputs(), ctx.netlist().n_outputs(), "{name}");
    }
}

#[test]
fn model_graphs_match_golden_digests() {
    // Models are content-addressed and must not drift: any change to
    // criticality scoring, pruning or merging that alters a single bit
    // of an extracted model changes these SHA-256 digests of the model
    // graph's JSON.
    let golden = [
        (
            "c432",
            "9324a887feddadbc692bd8f864dbe9c4cbceb9f3d5b993cb86fff9ec2973db7a",
        ),
        (
            "c880",
            "58c80b47d27e89c75e1a9b6e385b21c043b2d4ca30e1e0c2710eba6baf422770",
        ),
    ];
    for (name, want) in golden {
        let ctx = ModuleContext::characterize(
            generators::iscas85(name).expect("benchmark"),
            &SstaConfig::paper(),
        )
        .expect("characterize");
        let model = ctx
            .extract_model(&ExtractOptions::default())
            .expect("extract");
        let json = serde_json::to_string(model.graph()).expect("model graph serializes");
        let got = hier_ssta::math::digest::sha256(json.as_bytes()).to_hex();
        assert_eq!(got, want, "{name} model graph digest");
    }
}
