//! Corner-grid mega-sweep: a three-axis cartesian grid analyzed in one
//! `Engine::analyze_sweep` call.
//!
//! The grid crosses an extraction-relevant axis (process sigma scaling)
//! with two analysis-level axes (correlation handling, clock target).
//! The sweep planner groups the corners by extraction fingerprint
//! before any work is scheduled, so the whole grid performs exactly one
//! extraction per sigma point — the mode and clock axes multiply only
//! the corner count, never the characterization cost. Each group writes
//! compact per-corner roll-ups; full `DesignTiming` results are
//! retained here (`retain_results`) only to print the table.
//!
//! Run with `cargo run --release --example corner_grid`.

use hier_ssta::core::SstaConfig;
use hier_ssta::engine::{CornerGrid, DesignSpec, Engine, GridAxis, SweepOptions};
use hier_ssta::netlist::{generators, DieRect};

/// Four 4-bit array multipliers in two columns with cross-connected
/// data paths, expressed as a pre-extraction spec.
fn soc_spec() -> Result<DesignSpec, Box<dyn std::error::Error>> {
    const WIDTH: usize = 4;
    let config = SstaConfig::paper();
    let netlist = generators::array_multiplier(WIDTH)?;
    let placement = hier_ssta::netlist::Placement::rows(&netlist, config.cell_pitch_um);
    let geometry = hier_ssta::core::GridGeometry::from_die(placement.die(), config.grid_pitch_um());
    let (mw, mh) = geometry.extent_um();
    let mut b = DesignSpec::builder(
        "corner-grid-soc",
        DieRect {
            width: 2.0 * mw,
            height: 2.0 * mh,
        },
    );
    let m = b.add_module(netlist);
    let m0 = b.add_instance("m0", m, (0.0, 0.0))?;
    let m1 = b.add_instance("m1", m, (0.0, mh))?;
    let m2 = b.add_instance("m2", m, (mw, 0.0))?;
    let m3 = b.add_instance("m3", m, (mw, mh))?;
    for k in 0..WIDTH {
        b.connect(m0, k, m2, k);
        b.connect(m1, k, m2, WIDTH + k);
        b.connect(m0, WIDTH + k, m3, k);
        b.connect(m1, WIDTH + k, m3, WIDTH + k);
    }
    for inst in [m0, m1] {
        for k in 0..2 * WIDTH {
            b.expose_input(vec![(inst, k)]);
        }
    }
    for inst in [m2, m3] {
        for k in 0..2 * WIDTH {
            b.expose_output(inst, k);
        }
    }
    Ok(b.finish()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = soc_spec()?;

    // 3 sigma points × 2 modes × 4 clock targets = 24 corners,
    // 3 extraction-fingerprint groups, 6 analyses (group × mode).
    let grid = CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", &[0.9, 1.0, 1.2]))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets(
            "clock",
            &[1500.0, 1650.0, 1800.0, 1950.0],
        ))
        .finish()?;
    println!(
        "grid: {} corners over {} axes",
        grid.len(),
        grid.axes().len()
    );

    let options = SweepOptions {
        retain_results: true,
    };
    let summary = Engine::new(SstaConfig::paper()).analyze_sweep(&spec, &grid, &options)?;

    println!("{summary}");
    println!();
    println!(
        "{:<46} {:>9} {:>8} {:>11} {:>7}  {:>9} {:>9}",
        "corner", "mean [ps]", "σ [ps]", "p99.73 [ps]", "yield", "prop [ms]", "analysis"
    );
    for record in &summary.records {
        println!(
            "{:<46} {:>9.1} {:>8.1} {:>11.1} {:>6.1}%  {:>9.2} {:>9}",
            record.scenario,
            record.mean_ps,
            record.sigma_ps,
            record.p9973_ps,
            100.0 * record.timing_yield.unwrap_or(f64::NAN),
            1e3 * record.phases.propagate_seconds,
            if record.reused_analysis {
                "shared"
            } else {
                "led"
            },
        );
    }
    println!();
    println!(
        "collapse: {} corners -> {} fingerprint groups -> {} analyses, \
         {} extractions ({} distinct fingerprints), {} coalesced / memory hits",
        summary.scenarios,
        summary.groups,
        summary.analyses,
        summary.extractions,
        summary.distinct_fingerprints,
        summary.coalesced + summary.memory_hits,
    );
    println!(
        "streaming: peak {} full results resident across {} workers \
         (retain_results held the rest for this table)",
        summary.peak_retained_results, summary.workers,
    );
    Ok(())
}
