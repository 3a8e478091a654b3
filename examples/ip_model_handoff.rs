//! The IP-vendor scenario that motivates gray-box timing models: the
//! vendor characterizes a block and ships a *serialized timing model*
//! instead of the netlist; the integrator loads it, verifies that it was
//! characterized compatibly, and uses it in design-level analysis — never
//! seeing the implementation.
//!
//! Two handoff vehicles are shown:
//!
//! 1. a binary model artifact (the payload the model library stores)
//!    moved by hand; loading it validates the model's parts against each
//!    other before the integrator can use it;
//! 2. the engine's **persistent model library** — the vendor publishes
//!    into a content-addressed store, the integrator's engine pulls from
//!    it and analyzes the design with *zero* extractions.
//!
//! Run with `cargo run --release --example ip_model_handoff`.

use hier_ssta::core::codec::{decode_model, encode_model};
use hier_ssta::core::{
    analyze, CorrelationMode, DesignBuilder, ExtractOptions, ModuleContext, SstaConfig,
};
use hier_ssta::engine::{DesignSpec, Engine, ModelSource};
use hier_ssta::netlist::{generators, DieRect};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------- vendor side ----------------
    let netlist = generators::iscas85("c880")?;
    let config = SstaConfig::paper();
    let ctx = ModuleContext::characterize(netlist, &config)?;
    let model = ctx.extract_model(&ExtractOptions::default())?;
    println!(
        "vendor: extracted `{}` model with {} edges ({}% of the netlist's timing graph)",
        model.name(),
        model.edge_count(),
        (100.0 * model.stats().edge_ratio()).round()
    );

    // Encode — the handoff artifact.
    let artifact = encode_model(&model);
    println!("vendor: encoded model is {} KiB", artifact.len() / 1024);

    // ---------------- integrator side ----------------
    let loaded = decode_model(&artifact)?;
    loaded.check_compatible(&config)?;
    println!(
        "integrator: loaded `{}` ({} inputs, {} outputs), compatible with design config",
        loaded.name(),
        loaded.n_inputs(),
        loaded.n_outputs()
    );

    // Two instances of the black-box IP side by side; the first feeds the
    // second through the first 26 input ports.
    let ip = Arc::new(loaded);
    let (w, h) = ip.geometry().extent_um();
    let die = DieRect {
        width: 2.0 * w,
        height: h,
    };
    let mut b = DesignBuilder::new("two-ip", die, config.clone());
    let u0 = b.add_instance("u0", ip.clone(), None, (0.0, 0.0))?;
    let u1 = b.add_instance("u1", ip.clone(), None, (w, 0.0))?;
    for k in 0..ip.n_outputs() {
        b.connect(u0, k, u1, k, 0.0)?;
    }
    for k in 0..ip.n_inputs() {
        b.expose_input(vec![(u0, k)])?;
    }
    for k in ip.n_outputs()..ip.n_inputs() {
        b.expose_input(vec![(u1, k)])?;
    }
    for k in 0..ip.n_outputs() {
        b.expose_output(u1, k)?;
    }
    let design = b.finish()?;

    let proposed = analyze(&design, CorrelationMode::Proposed)?;
    let global = analyze(&design, CorrelationMode::GlobalOnly)?;
    println!(
        "integrator: design delay mean {:.1} ps, sigma {:.1} ps (proposed method)",
        proposed.delay.mean(),
        proposed.delay.std_dev()
    );
    println!(
        "integrator: ignoring inter-IP local correlation would report sigma {:.1} ps ({:+.1}%)",
        global.delay.std_dev(),
        100.0 * (global.delay.std_dev() / proposed.delay.std_dev() - 1.0)
    );

    // ---------------- engine-backed flow ----------------
    // The same handoff, production-shaped: the vendor publishes into a
    // persistent model library; the integrator's engine resolves the IP
    // from that library and never characterizes it.
    let library = std::env::temp_dir().join("hier-ssta-ip-library");
    let _ = std::fs::remove_dir_all(&library);

    let mut vendor = Engine::new(config.clone()).with_store(&library)?;
    let (_, source) = vendor.model_for(&generators::iscas85("c880")?)?;
    assert_eq!(source, ModelSource::Extracted);
    println!(
        "\nvendor: published `c880` to the model library ({} artifact)",
        vendor.store().expect("store attached").len()?
    );

    let mut b = DesignSpec::builder("two-ip-engine", die);
    let m = b.add_module(generators::iscas85("c880")?);
    let u0 = b.add_instance("u0", m, (0.0, 0.0))?;
    let u1 = b.add_instance("u1", m, (w, 0.0))?;
    for k in 0..ip.n_outputs() {
        b.connect(u0, k, u1, k);
    }
    for k in 0..ip.n_inputs() {
        b.expose_input(vec![(u0, k)]);
    }
    for k in ip.n_outputs()..ip.n_inputs() {
        b.expose_input(vec![(u1, k)]);
    }
    for k in 0..ip.n_outputs() {
        b.expose_output(u1, k);
    }
    let spec = b.finish()?;

    let mut integrator = Engine::new(config).with_store(&library)?;
    let run = integrator.analyze(&spec)?;
    println!("integrator: {}", run.stats);
    println!(
        "integrator: engine delay mean {:.1} ps, sigma {:.1} ps — identical to the manual flow: {}",
        run.timing.delay.mean(),
        run.timing.delay.std_dev(),
        run.timing.delay.mean().to_bits() == proposed.delay.mean().to_bits()
    );
    let _ = std::fs::remove_dir_all(&library);
    Ok(())
}
