//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p ssta-bench --release --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table I — timing-model extraction results |
//! | `fig6` | Fig. 6 — edge-criticality histogram of c7552 |
//! | `fig7` | Fig. 7 — hierarchical CDFs (proposed / global-only / MC) |
//! | `speedup` | §VI-B — hierarchical analysis vs flattened-MC runtime |
//! | `ablation_delta` | δ sweep: model size vs accuracy |
//! | `ablation_grid` | grid-pitch sweep: components vs accuracy/runtime |
//! | `corner_vs_ssta` | §I motivation — corner pessimism vs SSTA quantiles |
//!
//! Environment knobs: `SSTA_MC_SAMPLES` (default 10000),
//! `SSTA_BENCHMARKS` (comma-separated circuit filter, default all),
//! `SSTA_MUL_WIDTH` (multiplier width for Fig. 7, default 16).

#![forbid(unsafe_code)]

use serde::Serialize;
use ssta_core::{
    extract_registered, CorrelationMode, Design, DesignBuilder, ExtractOptions, ModuleContext,
    SstaConfig, TimingModel,
};
use ssta_mc::McOptions;
use ssta_netlist::generators::{array_multiplier, iscas85, registered_pipeline, ISCAS85_SPECS};
use ssta_netlist::DieRect;
use std::sync::Arc;
use std::time::Instant;

/// Run profile of a `bench_*` binary and where its JSON report goes.
///
/// `--tiny` on the command line, or `SSTA_BENCH_PROFILE=tiny`, selects
/// the CI-smoke sizes. The report goes to `SSTA_BENCH_OUT` if set, else
/// to `<stem>.json` (full) or `<stem>.tiny.json` (tiny, gitignored), so a
/// local smoke run never clobbers the committed full-profile baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    /// Whether the tiny (CI smoke) profile is selected.
    pub tiny: bool,
    /// Where [`write`](Self::write) puts the report.
    pub out: String,
}

impl BenchProfile {
    /// Reads the profile of the report named `stem` (e.g. `"BENCH_sweep"`)
    /// from the command line and the environment.
    pub fn from_env(stem: &str) -> Self {
        let tiny = std::env::args().any(|a| a == "--tiny")
            || std::env::var("SSTA_BENCH_PROFILE").is_ok_and(|v| v == "tiny");
        let default_out = if tiny {
            format!("{stem}.tiny.json")
        } else {
            format!("{stem}.json")
        };
        BenchProfile {
            tiny,
            out: std::env::var("SSTA_BENCH_OUT").unwrap_or(default_out),
        }
    }

    /// The profile name the reports record: `"tiny"` or `"full"`.
    pub fn name(&self) -> String {
        if self.tiny { "tiny" } else { "full" }.into()
    }

    /// Serializes `report` to [`out`](Self::out).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, report: &impl Serialize) {
        let json = serde_json::to_string(report).expect("report serializes");
        std::fs::write(&self.out, json).expect("write benchmark JSON");
        println!("wrote {}", self.out);
    }
}

/// Monte Carlo sample count, overridable via `SSTA_MC_SAMPLES`.
pub fn mc_samples() -> usize {
    std::env::var("SSTA_MC_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// Benchmark-name filter from `SSTA_BENCHMARKS` (`None` = all).
pub fn benchmark_filter() -> Option<Vec<String>> {
    std::env::var("SSTA_BENCHMARKS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_owned()).collect())
}

/// Multiplier width for the Fig. 7 design, overridable via
/// `SSTA_MUL_WIDTH` (16 = the paper's c6288).
pub fn multiplier_width() -> usize {
    std::env::var("SSTA_MUL_WIDTH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// The benchmark names in paper order, after filtering.
pub fn selected_benchmarks() -> Vec<&'static str> {
    let filter = benchmark_filter();
    ISCAS85_SPECS
        .iter()
        .map(|s| s.name)
        .filter(|n| filter.as_ref().is_none_or(|f| f.iter().any(|x| x == n)))
        .collect()
}

/// One measured row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Original edges `Eo`.
    pub eo: usize,
    /// Original vertices `Vo`.
    pub vo: usize,
    /// Model edges `Em`.
    pub em: usize,
    /// Model vertices `Vm`.
    pub vm: usize,
    /// `Em/Eo`.
    pub pe: f64,
    /// `Vm/Vo`.
    pub pv: f64,
    /// Max relative mean error vs MC.
    pub merr: f64,
    /// Max relative σ error vs MC.
    pub verr: f64,
    /// Extraction wall-clock seconds.
    pub t_seconds: f64,
}

/// Characterizes one benchmark under the paper configuration.
pub fn characterize(name: &str) -> ModuleContext {
    let netlist = iscas85(name).expect("known benchmark");
    ModuleContext::characterize(netlist, &SstaConfig::paper()).expect("characterization")
}

/// Runs the full Table I pipeline for one circuit: extract a model, then
/// validate its delay matrix against Monte Carlo of the original netlist.
pub fn table1_row(name: &str, samples: usize) -> Table1Row {
    let ctx = characterize(name);
    let started = Instant::now();
    let model = ctx
        .extract_model(&ExtractOptions::default())
        .expect("extraction");
    let t_seconds = started.elapsed().as_secs_f64();

    let mc = ssta_mc::module_delay_matrix(
        &ctx,
        &McOptions {
            samples,
            ..Default::default()
        },
    )
    .expect("module MC");
    let matrix = model.delay_matrix().expect("model matrix");
    let err = ssta_mc::model_vs_mc(&matrix, &mc);

    let stats = model.stats();
    Table1Row {
        name: name.to_owned(),
        eo: stats.original_edges,
        vo: stats.original_vertices,
        em: stats.model_edges,
        vm: stats.model_vertices,
        pe: stats.edge_ratio(),
        pv: stats.vertex_ratio(),
        merr: err.merr,
        verr: err.verr,
        t_seconds,
    }
}

/// The paper's Table I reference values `(name, Eo, Vo, Em, Vm, merr, verr)`.
pub const PAPER_TABLE1: [(&str, usize, usize, usize, usize, f64, f64); 10] = [
    ("c432", 336, 196, 45, 46, 0.0023, 0.0096),
    ("c499", 408, 243, 176, 99, 0.0014, 0.0094),
    ("c880", 729, 443, 249, 115, 0.0056, 0.003),
    ("c1355", 1064, 587, 143, 99, 0.0044, 0.0026),
    ("c1908", 1498, 913, 264, 93, 0.0082, 0.0147),
    ("c2670", 2076, 1426, 410, 335, 0.0026, 0.0128),
    ("c3540", 2939, 1719, 440, 141, 0.0049, 0.0072),
    ("c5315", 4386, 2485, 966, 424, 0.0072, 0.0147),
    ("c6288", 4800, 2448, 429, 188, 0.0103, 0.016),
    ("c7552", 6144, 3719, 1073, 546, 0.0121, 0.0158),
];

/// `n` instances of one pre-extracted ISCAS-85 model tiled on a single
/// die (near-square array), with each instance's first
/// `min(outputs, inputs)` ports chained to the next instance — the
/// many-instance workload that stresses design-level assembly
/// (partition / covariance / PCA eigensolve / variable replacement),
/// whose cost grows with the design grid count rather than with module
/// internals. Sweeps over `n` pay the characterization exactly once.
pub fn module_array_from_model(
    name: &str,
    model: Arc<TimingModel>,
    n: usize,
    config: SstaConfig,
) -> Design {
    assert!(n >= 1, "need at least one instance");
    let (mw, mh) = model.geometry().extent_um();
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let die = DieRect {
        width: cols as f64 * mw,
        height: rows as f64 * mh,
    };
    let mut b = DesignBuilder::new(format!("{name}-array-{n}"), die, config);
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            b.add_instance(
                format!("u{i}"),
                Arc::clone(&model),
                None,
                (c as f64 * mw, r as f64 * mh),
            )
            .expect("instance fits tiled die")
        })
        .collect();
    let chained = model.n_outputs().min(model.n_inputs());
    for w in ids.windows(2) {
        for k in 0..chained {
            b.connect(w[0], k, w[1], k, 0.0).expect("chain wire");
        }
    }
    // Unchained inputs become design PIs; the first instance exposes all
    // of its inputs.
    for k in 0..model.n_inputs() {
        b.expose_input(vec![(ids[0], k)]).expect("pi");
    }
    for &id in &ids[1..] {
        for k in chained..model.n_inputs() {
            b.expose_input(vec![(id, k)]).expect("pi");
        }
    }
    for k in 0..model.n_outputs() {
        b.expose_output(*ids.last().expect("nonempty"), k)
            .expect("po");
    }
    b.finish().expect("array design")
}

/// As [`module_array_from_model`] but as a pre-extraction
/// [`ssta_engine::DesignSpec`] — the serving-workload shape: `n` chained
/// instances of one ISCAS-85 module, die sized from the module geometry
/// alone, so building the spec performs no characterization and the
/// engine (or server) decides where the model comes from.
pub fn module_array_spec(name: &str, n: usize) -> ssta_engine::DesignSpec {
    assert!(n >= 1, "need at least one instance");
    let config = SstaConfig::paper();
    let netlist = iscas85(name).expect("known benchmark");
    let placement = ssta_netlist::Placement::rows(&netlist, config.cell_pitch_um);
    let geometry = ssta_core::GridGeometry::from_die(placement.die(), config.grid_pitch_um());
    let (mw, mh) = geometry.extent_um();
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let die = DieRect {
        width: cols as f64 * mw,
        height: rows as f64 * mh,
    };
    let n_in = netlist.n_inputs();
    let n_out = netlist.n_outputs();
    let mut b = ssta_engine::DesignSpec::builder(format!("{name}-array-{n}-spec"), die);
    let m = b.add_module(netlist);
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            b.add_instance(format!("u{i}"), m, (c as f64 * mw, r as f64 * mh))
                .expect("instance fits tiled die")
        })
        .collect();
    let chained = n_out.min(n_in);
    for w in ids.windows(2) {
        for k in 0..chained {
            b.connect(w[0], k, w[1], k);
        }
    }
    for k in 0..n_in {
        b.expose_input(vec![(ids[0], k)]);
    }
    for &id in &ids[1..] {
        for k in chained..n_in {
            b.expose_input(vec![(id, k)]);
        }
    }
    for k in 0..n_out {
        b.expose_output(*ids.last().expect("nonempty"), k);
    }
    b.finish().expect("array spec")
}

/// Characterizes and extracts one registered model per pipeline stage
/// (core names as accepted by `generators::registered_pipeline`: ISCAS-85
/// names or `rca<w>`/`parity<n>`), returning the models plus the total
/// characterize-and-extract wall-clock — the cost a sequential scaling
/// row reports as `extract_seconds`.
pub fn registered_pipeline_models(
    cores: &[&str],
    register: &str,
    config: &SstaConfig,
) -> (Vec<Arc<TimingModel>>, f64) {
    let stages = registered_pipeline(cores, register).expect("pipeline generator");
    let started = Instant::now();
    let models = stages
        .iter()
        .map(|stage| {
            let ctx =
                ModuleContext::characterize(stage.core().clone(), config).expect("characterize");
            Arc::new(
                extract_registered(&ctx, stage.register(), &ExtractOptions::default())
                    .expect("registered extraction"),
            )
        })
        .collect();
    (models, started.elapsed().as_secs_f64())
}

/// Chains registered stage models into one design: stage geometries are
/// abutted left to right, stage `k` outputs feed stage `k+1` register D
/// pins round-robin, the first stage exposes the design PIs and the last
/// the POs — the sequential analogue of [`module_array_from_model`].
pub fn registered_chain_design(
    name: &str,
    models: &[Arc<TimingModel>],
    config: SstaConfig,
) -> Design {
    assert!(!models.is_empty(), "need at least one stage");
    let widths: Vec<f64> = models.iter().map(|m| m.geometry().extent_um().0).collect();
    let height = models
        .iter()
        .map(|m| m.geometry().extent_um().1)
        .fold(0.0f64, f64::max);
    let die = DieRect {
        width: widths.iter().sum(),
        height,
    };
    let mut b = DesignBuilder::new(name, die, config);
    let mut ids = Vec::new();
    let mut x = 0.0;
    for (k, model) in models.iter().enumerate() {
        let id = b
            .add_instance(format!("s{k}"), Arc::clone(model), None, (x, 0.0))
            .expect("stage fits abutted die");
        x += widths[k];
        ids.push(id);
    }
    for k in 0..models.len() - 1 {
        let n_out = models[k].n_outputs();
        for p in 0..models[k + 1].n_inputs() {
            b.connect(ids[k], p % n_out, ids[k + 1], p, 0.0)
                .expect("stage wire");
        }
    }
    for p in 0..models[0].n_inputs() {
        b.expose_input(vec![(ids[0], p)]).expect("pi");
    }
    for j in 0..models.last().expect("nonempty").n_outputs() {
        b.expose_output(*ids.last().expect("nonempty"), j)
            .expect("po");
    }
    b.finish().expect("pipeline design")
}

/// Builds the Fig. 7 experimental design: four `width×width` multipliers
/// in two columns, first-column outputs cross-connected to second-column
/// inputs, all modules abutted so the spatial correlation is maximal.
pub fn four_multiplier_design(width: usize) -> Design {
    let config = SstaConfig::paper();
    let netlist = array_multiplier(width).expect("multiplier generator");
    let ctx = Arc::new(ModuleContext::characterize(netlist, &config).expect("characterize"));
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("extract"),
    );
    four_instance_design(ctx, model, width, config)
}

/// As [`four_multiplier_design`] but reusing a pre-extracted model.
pub fn four_instance_design(
    ctx: Arc<ModuleContext>,
    model: Arc<TimingModel>,
    width: usize,
    config: SstaConfig,
) -> Design {
    let (mw, mh) = model.geometry().extent_um();
    let die = DieRect {
        width: 2.0 * mw,
        height: 2.0 * mh,
    };
    let mut b = DesignBuilder::new(format!("quad-mul{width}"), die, config);
    // Column 1: m0 (bottom), m1 (top); column 2: m2 (bottom), m3 (top).
    let m0 = b
        .add_instance("m0", model.clone(), Some(ctx.clone()), (0.0, 0.0))
        .expect("place m0");
    let m1 = b
        .add_instance("m1", model.clone(), Some(ctx.clone()), (0.0, mh))
        .expect("place m1");
    let m2 = b
        .add_instance("m2", model.clone(), Some(ctx.clone()), (mw, 0.0))
        .expect("place m2");
    let m3 = b
        .add_instance("m3", model.clone(), Some(ctx), (mw, mh))
        .expect("place m3");

    // Cross-connection: m0's low product half feeds m2's `a` operand and
    // m3's gets m0's high half; m1 symmetric on the `b` operands.
    for k in 0..width {
        b.connect(m0, k, m2, k, 0.0).expect("wire");
        b.connect(m1, k, m2, width + k, 0.0).expect("wire");
        b.connect(m0, width + k, m3, k, 0.0).expect("wire");
        b.connect(m1, width + k, m3, width + k, 0.0).expect("wire");
    }
    // Design PIs drive all of m0's and m1's inputs.
    for inst in [m0, m1] {
        for k in 0..2 * width {
            b.expose_input(vec![(inst, k)]).expect("pi");
        }
    }
    // Design POs observe all of m2's and m3's product bits.
    for inst in [m2, m3] {
        for k in 0..2 * width {
            b.expose_output(inst, k).expect("po");
        }
    }
    b.finish().expect("design")
}

/// Formats a ratio as a percentage with the paper's precision.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// Formats an error as a percentage with two decimals.
pub fn pct2(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Runs the hierarchical analysis of a design in both modes and returns
/// `(proposed, global_only)`.
pub fn analyze_both(design: &Design) -> (ssta_core::DesignTiming, ssta_core::DesignTiming) {
    let proposed =
        ssta_core::analyze(design, CorrelationMode::Proposed).expect("proposed analysis");
    let global =
        ssta_core::analyze(design, CorrelationMode::GlobalOnly).expect("global-only analysis");
    (proposed, global)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_calibration_specs() {
        for (name, eo, vo, ..) in PAPER_TABLE1 {
            let spec = ssta_netlist::generators::iscas::spec(name).unwrap();
            if !spec.structural {
                assert_eq!(spec.pin_connections, eo, "{name}");
                assert_eq!(spec.gates + spec.inputs, vo, "{name}");
            }
        }
    }

    #[test]
    fn small_quad_design_builds_and_analyzes() {
        let design = four_multiplier_design(4);
        assert_eq!(design.instances().len(), 4);
        assert_eq!(design.pi_bindings().len(), 16);
        assert_eq!(design.po_sources().len(), 16);
        let (prop, glob) = analyze_both(&design);
        assert!(prop.delay.std_dev() > glob.delay.std_dev());
    }

    #[test]
    fn env_helpers_have_sane_defaults() {
        // Do not set the env vars here (tests run in parallel); just check
        // the defaults parse.
        assert!(mc_samples() >= 1);
        assert!(multiplier_width() >= 2);
        assert!(!selected_benchmarks().is_empty());
    }
}
