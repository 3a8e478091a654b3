//! Regenerates Fig. 6 of the paper: the edge-criticality histogram of
//! c7552, showing the bimodal distribution that makes criticality-based
//! pruning effective.
//!
//! Note on the upper mode: the paper plots it at criticality 1.0; under
//! this implementation's collapsed-random tightness convention dominant
//! edges saturate near 0.5 instead. The *shape* —
//! most edges near 0, a dominant-edge mode at the saturation point, and a
//! thin middle — is the reproduced result.
//!
//! `SSTA_BENCHMARKS=c432` switches the circuit.

use ssta_bench::{characterize, selected_benchmarks};
use ssta_core::criticality::{criticality_histogram, edge_criticalities, CriticalityOptions};

fn main() {
    let name = selected_benchmarks()
        .first()
        .copied()
        .filter(|_| std::env::var("SSTA_BENCHMARKS").is_ok())
        .unwrap_or("c7552");
    println!("Fig. 6: edge criticalities in {name}");
    let ctx = characterize(name);
    let started = std::time::Instant::now();
    let cms = edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default())
        .expect("criticality engine");
    let elapsed = started.elapsed().as_secs_f64();
    let hist = criticality_histogram(ctx.graph(), &cms, 20);

    let max_count = hist.counts().iter().copied().max().unwrap_or(1).max(1);
    println!("{:>13} {:>7}  histogram", "cm bin", "edges");
    for (i, &count) in hist.counts().iter().enumerate() {
        let (lo, hi) = hist.bin_edges(i);
        let bar_len = (50 * count / max_count) as usize;
        println!(
            "[{:4.2}, {:4.2}) {:>7}  {}",
            lo,
            hi,
            count,
            "#".repeat(bar_len)
        );
    }
    let total = hist.total() as f64;
    let low = hist.counts()[0] as f64;
    let upper_mode: u64 = hist.counts()[9..13].iter().sum();
    println!(
        "\n{} edges total; {:.1}% in [0, 0.05) (prunable at δ = 0.05), {:.1}% in the dominant band [0.45, 0.65)",
        hist.total(),
        100.0 * low / total,
        100.0 * upper_mode as f64 / total
    );
    println!("all-pairs criticality runtime: {elapsed:.2}s");
}
