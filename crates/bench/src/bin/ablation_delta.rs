//! Ablation A: sweep of the criticality threshold δ.
//!
//! The paper fixes δ = 0.05 without justifying the value; this sweep
//! quantifies the model-size/accuracy trade-off it buys, with the
//! accuracy-repair extension disabled so the raw algorithm is visible,
//! and enabled to show what the repair adds back.
//!
//! `SSTA_BENCHMARKS` (default `c1908`) selects the circuit.

use ssta_bench::{characterize, mc_samples, pct, pct2};
use ssta_core::ExtractOptions;
use ssta_mc::McOptions;

fn main() {
    let name = std::env::var("SSTA_BENCHMARKS").unwrap_or_else(|_| "c1908".into());
    let name = name.split(',').next().expect("non-empty").trim().to_owned();
    let samples = mc_samples().min(4000); // per-sweep-point MC cost
    println!("ablation: delta sweep on {name} (MC samples = {samples})");
    let ctx = characterize(&name);
    let mc = ssta_mc::module_delay_matrix(
        &ctx,
        &McOptions {
            samples,
            ..Default::default()
        },
    )
    .expect("module MC");

    println!(
        "{:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "delta", "repair", "Em", "Vm", "pe", "pv", "merr", "verr", "T(s)"
    );
    for &delta in &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5] {
        for repair in [false, true] {
            let options = ExtractOptions {
                delta,
                accuracy_repair: repair.then_some(0.02),
                ..Default::default()
            };
            let started = std::time::Instant::now();
            let model = ctx.extract_model(&options).expect("extract");
            let t = started.elapsed().as_secs_f64();
            let err = ssta_mc::model_vs_mc(&model.delay_matrix().expect("matrix"), &mc);
            let stats = model.stats();
            println!(
                "{:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8.2}",
                delta,
                if repair { "on" } else { "off" },
                stats.model_edges,
                stats.model_vertices,
                pct(stats.edge_ratio()),
                pct(stats.vertex_ratio()),
                pct2(err.merr),
                pct2(err.verr),
                t
            );
        }
    }
}
