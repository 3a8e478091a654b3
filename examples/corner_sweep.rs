//! Scenario sweep: one SoC spec analyzed under four named what-if
//! configurations in a single batch over one shared model library.
//!
//! The sweep shows the batch engine's two economies:
//!
//! * scenarios that differ only in *analysis-level* knobs (correlation
//!   mode, yield target) share the nominal scenario's extracted models
//!   outright — their cache keys are identical by construction;
//! * scenarios that change *extraction-relevant* configuration (sigmas,
//!   spatial correlation) are re-keyed and extracted exactly once each:
//!   the planner groups scenarios by extraction signature before any
//!   work runs, so the batch never characterizes the same module twice.
//!
//! Run with `cargo run --release --example corner_sweep`.

use hier_ssta::core::{CorrelationMode, CorrelationModel, SstaConfig};
use hier_ssta::engine::{DesignSpec, Engine, Scenario, ScenarioSet};
use hier_ssta::netlist::{generators, DieRect};

/// A small SoC: four 5-bit array multipliers in two columns with
/// cross-connected data paths (the paper's Fig. 7 topology at example
/// scale), expressed as a pre-extraction spec.
fn soc_spec() -> Result<DesignSpec, Box<dyn std::error::Error>> {
    const WIDTH: usize = 5;
    let config = SstaConfig::paper();
    let netlist = generators::array_multiplier(WIDTH)?;
    let placement = hier_ssta::netlist::Placement::rows(&netlist, config.cell_pitch_um);
    let geometry = hier_ssta::core::GridGeometry::from_die(placement.die(), config.grid_pitch_um());
    let (mw, mh) = geometry.extent_um();
    let mut b = DesignSpec::builder(
        "corner-sweep-soc",
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

    // The sweep's yield read-out target: a clock period around the
    // nominal p90, where the corners visibly disagree.
    let target_ps = 1750.0;

    // High-sigma corner: every process sigma scaled 1.5x.
    let mut high_sigma = SstaConfig::paper();
    for p in &mut high_sigma.parameters {
        p.sigma_rel = (p.sigma_rel * 1.5).min(0.9);
    }

    // Tight spatial correlation: local variation decays half as fast and
    // reaches twice as far, so neighbouring modules track each other.
    let mut tight_corr = SstaConfig::paper();
    tight_corr.correlation = CorrelationModel {
        decay_per_grid: tight_corr.correlation.decay_per_grid / 2.0,
        cutoff_grids: tight_corr.correlation.cutoff_grids * 2.0,
        ..tight_corr.correlation
    };

    let set = ScenarioSet::new()
        .with(Scenario::new("nominal").with_yield_target(target_ps))
        .with(
            Scenario::new("high-sigma")
                .with_config(high_sigma)
                .with_yield_target(target_ps),
        )
        .with(
            Scenario::new("tight-spatial-corr")
                .with_config(tight_corr)
                .with_yield_target(target_ps),
        )
        // Analysis-level overlay only: shares the nominal scenario's
        // extracted models, no extra extraction.
        .with(
            Scenario::new("global-only")
                .with_mode(CorrelationMode::GlobalOnly)
                .with_yield_target(target_ps),
        );

    let mut engine = Engine::new(SstaConfig::paper());
    let batch = engine.analyze_batch(&spec, &set)?;

    println!("sweep: {}", batch.stats);
    println!();
    let yield_header = format!("yield@{target_ps:.0}ps");
    println!(
        "{:<18} {:>10} {:>9} {:>11} {:>13}",
        "scenario", "mean [ps]", "σ [ps]", "p99.73 [ps]", yield_header
    );
    for run in &batch.scenarios {
        println!(
            "{:<18} {:>10.1} {:>9.1} {:>11.1} {:>12.1}%",
            run.scenario,
            run.timing.delay.mean(),
            run.timing.delay.std_dev(),
            run.timing.delay.quantile(0.9973),
            100.0 * run.timing_yield.unwrap_or(f64::NAN),
        );
    }
    println!();
    println!(
        "dedup: {} scenarios resolved {} distinct fingerprints with {} extractions \
         ({} coalesced / served from shared caches)",
        batch.stats.scenarios,
        batch.stats.distinct_fingerprints,
        batch.stats.extractions,
        batch.stats.coalesced + batch.stats.memory_hits
    );
    Ok(())
}
