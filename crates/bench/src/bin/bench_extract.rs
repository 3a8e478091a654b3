//! Machine-readable cold-extraction benchmark over the ISCAS-85 suite.
//!
//! Emits `BENCH_extract.json` (override the path with `SSTA_BENCH_OUT`)
//! with one row per circuit, under `SstaConfig::paper()` and
//! `ExtractOptions::default()` (δ = 0.05):
//!
//! * **size** — inputs, distinct outputs, edges and variables (globals
//!   plus local PCA components);
//! * **criticality_s** — the exact all-pairs sweep
//!   ([`edge_criticalities`]) at 1 and 2 threads;
//! * **extract_s** — the whole
//!   [`extract_model`](ssta_core::ModuleContext::extract_model)
//!   (δ-stopped sweep, repair, prune, merge) at 1 and 2 threads;
//! * **kept / pruned / model edges**, and the SHA-256 of the model graph's
//!   JSON. The digest must be equal at 1 and 2 threads (asserted): models
//!   are content-addressed, so thread count must never change a bit.
//!
//! Each time is the median of repeated runs (at least one, until a
//! second has passed), in wall-clock seconds.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) runs c432 and c880 only, for CI
//! smoke; the tiny profile defaults to its own gitignored output path.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_extract`.

use serde::Serialize;
use ssta_bench::{characterize, BenchProfile};
use ssta_core::criticality::{edge_criticalities, CriticalityOptions};
use ssta_core::{ExtractOptions, TimingModel};
use ssta_math::digest::sha256;
use ssta_netlist::generators::ISCAS85_SPECS;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    /// Criticality threshold of every extraction.
    delta: f64,
    circuits: Vec<CircuitRow>,
}

#[derive(Serialize)]
struct CircuitRow {
    name: String,
    inputs: usize,
    /// Distinct output vertices (ports may share a driver).
    outputs: usize,
    edges: usize,
    /// Global parameters plus local PCA components.
    variables: usize,
    criticality_s: PerThreads,
    extract_s: PerThreads,
    /// Edges kept after pruning and repair.
    kept_edges: usize,
    pruned_edges: usize,
    model_edges: usize,
    /// SHA-256 of `serde_json::to_string(model.graph())`.
    model_sha256: String,
}

#[derive(Serialize)]
struct PerThreads {
    threads_1: f64,
    threads_2: f64,
}

fn main() {
    let bench = BenchProfile::from_env("BENCH_extract");
    let names: Vec<&str> = if bench.tiny {
        vec!["c432", "c880"]
    } else {
        ISCAS85_SPECS.iter().map(|s| s.name).collect()
    };
    let base = ExtractOptions::default();
    let mut rows = Vec::new();
    for name in names {
        let ctx = characterize(name);
        let graph = ctx.graph();
        let zero = ctx.zero();
        let mut outputs = graph.outputs().to_vec();
        outputs.sort();
        outputs.dedup();

        let mut criticality_s = Vec::new();
        let mut extract_s = Vec::new();
        let mut models: Vec<TimingModel> = Vec::new();
        for threads in [1, 2] {
            let criticality = CriticalityOptions { threads };
            criticality_s.push(median_seconds(|| {
                edge_criticalities(graph, &zero, &criticality).expect("criticality sweep");
            }));
            let options = ExtractOptions {
                criticality,
                ..base.clone()
            };
            let mut model = None;
            extract_s.push(median_seconds(|| {
                model = Some(ctx.extract_model(&options).expect("extraction"));
            }));
            models.push(model.expect("extraction ran"));
        }
        let digests: Vec<String> = models.iter().map(model_digest).collect();
        assert_eq!(
            digests[0], digests[1],
            "{name}: the model differs between 1 and 2 threads"
        );

        let stats = models[0].stats();
        let row = CircuitRow {
            name: name.into(),
            inputs: graph.inputs().len(),
            outputs: outputs.len(),
            edges: stats.original_edges,
            variables: zero.n_globals() + zero.n_locals(),
            criticality_s: PerThreads {
                threads_1: criticality_s[0],
                threads_2: criticality_s[1],
            },
            extract_s: PerThreads {
                threads_1: extract_s[0],
                threads_2: extract_s[1],
            },
            kept_edges: stats.original_edges - stats.edges_pruned,
            pruned_edges: stats.edges_pruned,
            model_edges: stats.model_edges,
            model_sha256: digests[0].clone(),
        };
        println!(
            "{:>6}: {:>4} in x {:>3} out, {:>5} edges, {:>3} vars | criticality {:7.3} s / {:7.3} s, \
             extract {:7.3} s / {:7.3} s (1 / 2 threads) | kept {:>5}, model {:>5} | {}",
            row.name,
            row.inputs,
            row.outputs,
            row.edges,
            row.variables,
            row.criticality_s.threads_1,
            row.criticality_s.threads_2,
            row.extract_s.threads_1,
            row.extract_s.threads_2,
            row.kept_edges,
            row.model_edges,
            &row.model_sha256[..16],
        );
        rows.push(row);
    }

    bench.write(&Report {
        schema: 1,
        profile: bench.name(),
        delta: base.delta,
        circuits: rows,
    });
}

/// Median wall-clock seconds of `run`, repeated until a second has passed
/// (at least once, at most 25 times).
fn median_seconds(mut run: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (started.elapsed().as_secs_f64() < 1.0 && times.len() < 25) {
        let t = Instant::now();
        run();
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn model_digest(model: &TimingModel) -> String {
    let json = serde_json::to_string(model.graph()).expect("model graph serializes");
    sha256(json.as_bytes()).to_hex()
}
