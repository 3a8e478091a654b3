//! The IP-handoff contract: a timing model encoded with the binary model
//! codec must behave identically after a round trip — same ports, same
//! delay matrix, same design-level analysis results.

use hier_ssta::core::codec::{decode_model, encode_model};
use hier_ssta::core::{
    analyze, CorrelationMode, DesignBuilder, ExtractOptions, ModuleContext, SstaConfig, TimingModel,
};
use hier_ssta::netlist::{generators, DieRect};
use std::sync::Arc;

fn extract_model() -> (ModuleContext, TimingModel) {
    let ctx = ModuleContext::characterize(
        generators::ripple_carry_adder(8).expect("adder"),
        &SstaConfig::paper(),
    )
    .expect("characterize");
    let model = ctx
        .extract_model(&ExtractOptions::default())
        .expect("extract");
    (ctx, model)
}

/// The model as the integrator receives it: encoded, then decoded.
fn reload(model: &TimingModel) -> TimingModel {
    decode_model(&encode_model(model)).expect("decode")
}

#[test]
fn round_trip_preserves_delay_matrix() {
    let (_, model) = extract_model();
    let back = reload(&model);

    let a = model.delay_matrix().expect("matrix");
    let b = back.delay_matrix().expect("matrix");
    let (worst_mean, mismatched) = a.compare_with(&b, |d| d.mean());
    assert_eq!(mismatched, 0);
    assert_eq!(worst_mean, 0.0, "bit-exact mean preservation");
    let (worst_sigma, _) = a.compare_with(&b, |d| d.std_dev());
    assert_eq!(worst_sigma, 0.0, "bit-exact sigma preservation");
}

#[test]
fn reloaded_model_analyzes_identically_in_a_design() {
    let (_, model) = extract_model();
    let reloaded = reload(&model);

    let build = |m: Arc<TimingModel>| {
        let (w, h) = m.geometry().extent_um();
        let mut b = DesignBuilder::new(
            "d",
            DieRect {
                width: 2.0 * w + 20.0,
                height: h + 20.0,
            },
            SstaConfig::paper(),
        );
        let u0 = b
            .add_instance("u0", m.clone(), None, (0.0, 0.0))
            .expect("u0");
        let u1 = b.add_instance("u1", m.clone(), None, (w, 0.0)).expect("u1");
        for k in 0..m.n_outputs().min(m.n_inputs()) {
            b.connect(u0, k, u1, k, 0.0).expect("wire");
        }
        for k in 0..m.n_inputs() {
            b.expose_input(vec![(u0, k)]).expect("pi");
        }
        for k in m.n_outputs().min(m.n_inputs())..m.n_inputs() {
            b.expose_input(vec![(u1, k)]).expect("pi");
        }
        for k in 0..m.n_outputs() {
            b.expose_output(u1, k).expect("po");
        }
        b.finish().expect("design")
    };

    let d1 = build(Arc::new(model));
    let d2 = build(Arc::new(reloaded));
    let t1 = analyze(&d1, CorrelationMode::Proposed).expect("analysis");
    let t2 = analyze(&d2, CorrelationMode::Proposed).expect("analysis");
    assert_eq!(t1.delay.mean(), t2.delay.mean());
    assert_eq!(t1.delay.std_dev(), t2.delay.std_dev());
}

#[test]
fn incompatible_config_is_caught_after_reload() {
    let (_, model) = extract_model();
    let reloaded = reload(&model);
    let mut other = SstaConfig::paper();
    other.grid_side_cells = 4;
    assert!(reloaded.check_compatible(&other).is_err());
}
