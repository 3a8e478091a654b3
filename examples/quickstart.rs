//! Quickstart: characterize a module, extract a gray-box statistical
//! timing model, and read delay/yield numbers from it.
//!
//! Run with `cargo run --release --example quickstart`.

use hier_ssta::core::{yield_analysis, ExtractOptions, ModuleContext, SstaConfig};
use hier_ssta::netlist::generators;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A combinational module: a 16-bit ripple-carry adder.
    let netlist = generators::ripple_carry_adder(16)?;
    println!(
        "module `{}`: {} gates, {} inputs, {} outputs, depth {}",
        netlist.name(),
        netlist.n_gates(),
        netlist.n_inputs(),
        netlist.n_outputs(),
        netlist.logic_depth()
    );

    // 2. Characterize under the paper's 90nm variation model: placement,
    //    spatial-correlation grids, PCA, canonical delay forms.
    let ctx = ModuleContext::characterize(netlist, &SstaConfig::paper())?;
    println!(
        "characterized: {} timing edges, {} PCA components, grid {}x{}",
        ctx.graph_edge_count(),
        ctx.layout().n_locals(),
        ctx.geometry().nx(),
        ctx.geometry().ny()
    );

    // 3. The module delay as a distribution (max over all outputs).
    let arrivals = hier_ssta::timing::sta::output_arrivals(ctx.graph(), || ctx.zero())?;
    let delay = arrivals
        .into_iter()
        .flatten()
        .reduce(|a, b| a.maximum(&b))
        .expect("outputs exist");
    println!(
        "module delay: mean {:.1} ps, sigma {:.1} ps ({:.1}% relative)",
        delay.mean(),
        delay.std_dev(),
        100.0 * delay.std_dev() / delay.mean()
    );
    for yield_target in [0.5, 0.9, 0.9973] {
        println!(
            "  period for {:6.2}% yield: {:.1} ps",
            100.0 * yield_target,
            yield_analysis::period_for_yield(&delay, yield_target)
        );
    }

    // 4. Extract the compressed timing model an IP vendor would ship.
    let started = Instant::now();
    let model = ctx.extract_model(&ExtractOptions::default())?;
    let extraction_seconds = started.elapsed().as_secs_f64();
    let stats = model.stats();
    println!(
        "extracted model: {} -> {} edges ({:.0}%), {} -> {} vertices ({:.0}%) in {:.3}s",
        stats.original_edges,
        stats.model_edges,
        100.0 * stats.edge_ratio(),
        stats.original_vertices,
        stats.model_vertices,
        100.0 * stats.vertex_ratio(),
        extraction_seconds
    );

    // 5. The model preserves the statistical input-to-output delays.
    let orig = ctx.delay_matrix()?;
    let compressed = model.delay_matrix()?;
    let (worst, mismatched) = orig.compare_with(&compressed, |d| d.mean());
    println!(
        "model fidelity: worst per-pair mean drift {:.3} ps, {} connectivity mismatches",
        worst, mismatched
    );
    Ok(())
}
