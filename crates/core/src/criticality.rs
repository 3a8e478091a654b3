//! Edge criticality (Section IV-B of the paper).
//!
//! The criticality `c_ij` of edge `e` with respect to input `i` and output
//! `j` is the probability that `e` lies on the statistically longest
//! `i → j` path. Following Xiong et al. (DATE'08) it is computed as
//!
//! `c_ij = P{dₑ ≥ M_ij}`,   `dₑ = aₑ + d + rₑ`
//!
//! where `aₑ` is the arrival at `e`'s source from input `i` alone, `rₑ` is
//! the maximum delay from `e`'s sink to output `j`, and `M_ij` is the full
//! input-to-output delay. The *maximum criticality* `c_m` of an edge is the
//! max of `c_ij` over all input/output pairs; edges with `c_m` below a
//! threshold δ are dropped during model extraction.
//!
//! The all-pairs sweep (one forward traversal per input, one backward per
//! output, Sapatnekar ISCAS'96) is batched over outputs to bound memory
//! and parallelized over chunks of inputs. Every traversal runs through
//! one shared [`LevelSchedule`]: the graph is levelized once per call, and
//! each pass is the pull-ordered wavefront engine of
//! [`ssta_timing::levels`]. Scoring the (edge, input, output) triples,
//! not the traversals, is where the exact sweep spends its time (about
//! 85 % on c2670), so:
//!
//! * **One allocation-free kernel scores a triple.** It reads the
//!   coefficient slices of `aₑ`, `d`, `rₑ` and `M_ij` in one pass and
//!   never builds `dₑ`. It performs the same floating-point additions and
//!   products, in the same order, as `aₑ.sum(d).sum(rₑ)` followed by
//!   [`CanonicalForm::variance`], [`CanonicalForm::covariance`] and
//!   [`tightness_probability`], so every `c_ij` is bit-identical to the
//!   form-building evaluation.
//! * **A mean/σ prefilter** skips a triple when `M_ij`'s mean exceeds
//!   `dₑ`'s by more than 8 times a sub-additive σ bound. At 8σ it is a
//!   guard for widely separated delays only: under
//!   [`SstaConfig::paper`](crate::SstaConfig::paper) it skips none of
//!   the in-cone triples of the ISCAS-85 circuits.
//! * **Extraction stops scoring an edge once it reaches δ.** Pruning reads
//!   only `c_m ≥ δ`, which holds exactly when some pair lifts the edge to
//!   δ, so the extraction sweep skips an edge whose running maximum
//!   already reaches δ, also across output batches. Each worker visits
//!   only the undecided edges in the current input's fan-out cone, a list
//!   that shrinks as edges reach δ. The keep set, and so every model bit,
//!   equals the exact sweep's; [`edge_criticalities`] itself stays exact.

use crate::canonical::CanonicalForm;
use crate::CoreError;
use ssta_math::gaussian::tightness_probability;
use ssta_math::parallel::{effective_threads, try_parallel_indexed};
use ssta_math::Histogram;
use ssta_timing::{levels, LevelSchedule, TimingGraph, VertexId};

/// Options for the criticality engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CriticalityOptions {
    /// Worker threads; `0` uses the available parallelism.
    pub threads: usize,
}

/// Outputs processed per batch (bounds the memory used for backward
/// propagation results).
const OUTPUT_BATCH: usize = 16;

/// Prefilter width in combined sigmas: pairs whose mean gap exceeds this
/// many (sub-additive bound) sigmas are treated as criticality 0.
pub(crate) const PREFILTER_SIGMAS: f64 = 8.0;

/// Maximum criticality `c_m` per edge slot (indexed by `EdgeId.0`; dead
/// edges hold 0).
///
/// `zero` must be the additive identity of the graph's variable space.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn edge_criticalities(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    options: &CriticalityOptions,
) -> Result<Vec<f64>, CoreError> {
    criticalities_until(graph, zero, options, f64::INFINITY)
}

/// [`edge_criticalities`] that stops scoring an edge once its running
/// maximum reaches `stop`. Edges whose exact `c_m` is below `stop` hold it
/// exactly; the others hold some value in `[stop, c_m]`. So `c ≥ stop`
/// holds for exactly the edges whose exact `c_m ≥ stop`, at any thread
/// count.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub(crate) fn criticalities_until(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    options: &CriticalityOptions,
    stop: f64,
) -> Result<Vec<f64>, CoreError> {
    let inputs = graph.inputs();
    // Distinct output vertices (ports may share a driver).
    let mut outputs: Vec<VertexId> = graph.outputs().to_vec();
    outputs.sort();
    outputs.dedup();

    // One levelization serves every forward and backward pass below.
    let schedule = LevelSchedule::build(graph)?;

    let n_threads = effective_threads(options.threads);
    let input_chunks: Vec<&[VertexId]> = inputs
        .chunks(inputs.len().div_ceil(n_threads).max(1))
        .collect();

    // Edge snapshot: (edge slot, from, to, delay, nominal, sigma).
    let edge_info: Vec<(usize, u32, u32, &CanonicalForm, f64, f64)> = graph
        .edges_iter()
        .map(|(id, e)| {
            (
                id.0 as usize,
                e.from.0,
                e.to.0,
                &e.delay,
                e.delay.mean(),
                e.delay.std_dev(),
            )
        })
        .collect();

    let mut cm = vec![0.0f64; graph.edge_bound()];

    for chunk in outputs.chunks(OUTPUT_BATCH) {
        // Backward propagation per output in this batch: independent
        // sink passes fanned out via parallel_indexed (index-ordered,
        // bit-identical for any thread count).
        let required = try_parallel_indexed(chunk.len(), n_threads, |j| {
            levels::backward(graph, &schedule, &[(chunk[j], zero.clone())])
        })?;
        // Cache (nominal, sigma) of each required entry.
        let req_stats: Vec<Vec<Option<(f64, f64)>>> = required
            .iter()
            .map(|r| {
                r.iter()
                    .map(|o| o.as_ref().map(|f| (f.mean(), f.std_dev())))
                    .collect()
            })
            .collect();

        // Parallel over input chunks. Each worker starts from the maxima
        // merged so far, so an edge that reached `stop` in an earlier
        // batch is never scored again; the max merge below is exact, so
        // the chunking never changes a value.
        let locals = try_parallel_indexed(input_chunks.len(), n_threads, |c| {
            let mut local_cm = cm.clone();
            // Indices into `edge_info` of the edges still below `stop`, and
            // of those in the current input's fan-out cone: the only ones
            // worth visiting.
            let mut live: Vec<usize> = (0..edge_info.len()).collect();
            let mut cone: Vec<usize> = Vec::new();
            for &vi in input_chunks[c] {
                live.retain(|&k| local_cm[edge_info[k].0] < stop);
                if live.is_empty() {
                    break;
                }
                let arrival = levels::forward(graph, &schedule, &[(vi, zero.clone())])?;
                let arr_stats: Vec<Option<(f64, f64)>> = arrival
                    .iter()
                    .map(|o| o.as_ref().map(|f| (f.mean(), f.std_dev())))
                    .collect();
                cone.clear();
                cone.extend(
                    live.iter()
                        .copied()
                        .filter(|&k| arr_stats[edge_info[k].1 as usize].is_some()),
                );
                for (j_idx, &vj) in chunk.iter().enumerate() {
                    let Some(m_ij) = arrival[vj.0 as usize].as_ref() else {
                        continue;
                    };
                    let (m_nom, m_sig) = arr_stats[vj.0 as usize].expect("checked above");
                    let m_var = m_ij.variance();
                    let req_j = &required[j_idx];
                    let req_stat_j = &req_stats[j_idx];
                    for &k in &cone {
                        let (slot, from, to, d, d_nom, d_sig) = edge_info[k];
                        if local_cm[slot] >= stop {
                            continue;
                        }
                        let (a_nom, a_sig) = arr_stats[from as usize].expect("edge in the cone");
                        let Some((r_nom, r_sig)) = req_stat_j[to as usize] else {
                            continue;
                        };
                        // Cheap prefilter: σ(x + y) ≤ σ(x) + σ(y) for any
                        // correlation, so θ ≤ combined. When the mean gap
                        // dwarfs it, P{de ≥ M} ≈ 0.
                        let de_nom = a_nom + d_nom + r_nom;
                        let combined = a_sig + d_sig + r_sig + m_sig;
                        if m_nom - de_nom > PREFILTER_SIGMAS * combined {
                            continue;
                        }
                        let a = arrival[from as usize].as_ref().expect("stats cached");
                        let r = req_j[to as usize].as_ref().expect("stats cached");
                        let c = path_criticality(a, d, r, m_ij, m_var);
                        if c > local_cm[slot] {
                            local_cm[slot] = c;
                        }
                    }
                }
            }
            Ok::<Vec<f64>, CoreError>(local_cm)
        })?;
        for local in locals {
            for (g, l) in cm.iter_mut().zip(&local) {
                if *l > *g {
                    *g = *l;
                }
            }
        }
    }
    Ok(cm)
}

/// `P{a + d + r ≥ m}` over the *shared* variables (globals + locals),
/// exactly as the paper evaluates equation (14) on canonical forms;
/// `m_var` is `m.variance()`.
///
/// Bit-identical to building `de = a.sum(d).sum(r)` and evaluating
/// `tightness_probability(de.mean(), de.variance(), m.mean(), m_var,
/// de.covariance(m))`, without allocating `de`: every coefficient of `de`
/// is formed as `(aₖ + dₖ) + rₖ`, the random part through the same two
/// square roots, and the sums run in the same order.
///
/// Collapsed-random convention: after propagation, the private random
/// parts of `dₑ` and `M_ij` look independent even though `dₑ`'s paths are
/// a subset of `M_ij`'s. The effect is that a fully dominant edge
/// (true criticality 1) evaluates to ≈ 0.5 rather than 1 — `θ` keeps a
/// residual `≈ √2·a_r` and the means tie. This is *conservative*: values
/// are compressed toward 0.5 and an edge is never spuriously pushed below
/// a practical pruning threshold δ (Monte-Carlo argmax tracing confirms
/// the ordering is preserved). Crediting the full
/// product `r(dₑ)·r(M)` instead would make the probability hypersensitive
/// to the tiny mean discrepancies that different Clark collapse orders
/// introduce, and measurably misclassifies dominant edges.
fn path_criticality(
    a: &CanonicalForm,
    d: &CanonicalForm,
    r: &CanonicalForm,
    m: &CanonicalForm,
    m_var: f64,
) -> f64 {
    let (g_var, g_cov) = sum_moments(a.globals(), d.globals(), r.globals(), m.globals());
    let (l_var, l_cov) = sum_moments(a.locals(), d.locals(), r.locals(), m.locals());
    let ad_random = (a.random() * a.random() + d.random() * d.random()).sqrt();
    let random = (ad_random * ad_random + r.random() * r.random()).sqrt();
    tightness_probability(
        a.mean() + d.mean() + r.mean(),
        g_var + l_var + random * random,
        m.mean(),
        m_var,
        g_cov + l_cov,
    )
}

/// `(Σ xₖ², Σ xₖ·mₖ)` of `xₖ = (aₖ + dₖ) + rₖ`, accumulated left to right
/// from `-0.0` like the float `Iterator::sum` behind
/// [`CanonicalForm::variance`] and [`CanonicalForm::covariance`].
fn sum_moments(a: &[f64], d: &[f64], r: &[f64], m: &[f64]) -> (f64, f64) {
    assert!(
        d.len() == a.len() && r.len() == a.len() && m.len() == a.len(),
        "canonical forms live in different variable spaces"
    );
    let mut var = -0.0;
    let mut cov = -0.0;
    for (((a, d), r), m) in a.iter().zip(d).zip(r).zip(m) {
        let x = a + d + r;
        var += x * x;
        cov += x * m;
    }
    (var, cov)
}

/// Criticalities `c_ij` of every edge for one specific input/output pair
/// (one forward and one backward traversal). Returns a per-edge-slot
/// vector; edges outside the `(i, j)` cone hold 0.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn pair_criticalities(
    graph: &TimingGraph<CanonicalForm>,
    zero: &CanonicalForm,
    vi: VertexId,
    vj: VertexId,
) -> Result<Vec<f64>, CoreError> {
    let schedule = LevelSchedule::build(graph)?;
    pair_criticalities_with(graph, &schedule, zero, vi, vj)
}

/// [`pair_criticalities`] over a prebuilt schedule, so repair loops that
/// probe many pairs levelize the graph once.
///
/// # Errors
///
/// Propagates graph errors ([`CoreError::Timing`]).
pub fn pair_criticalities_with(
    graph: &TimingGraph<CanonicalForm>,
    schedule: &LevelSchedule,
    zero: &CanonicalForm,
    vi: VertexId,
    vj: VertexId,
) -> Result<Vec<f64>, CoreError> {
    let arrival = levels::forward(graph, schedule, &[(vi, zero.clone())])?;
    let required = levels::backward(graph, schedule, &[(vj, zero.clone())])?;
    let mut out = vec![0.0; graph.edge_bound()];
    let Some(m_ij) = arrival[vj.0 as usize].as_ref() else {
        return Ok(out); // pair not connected
    };
    let m_var = m_ij.variance();
    for (id, e) in graph.edges_iter() {
        let (Some(a), Some(r)) = (
            arrival[e.from.0 as usize].as_ref(),
            required[e.to.0 as usize].as_ref(),
        ) else {
            continue;
        };
        out[id.0 as usize] = path_criticality(a, &e.delay, r, m_ij, m_var);
    }
    Ok(out)
}

/// Histogram of the live edges' maximum criticalities over `[0, 1]` — the
/// paper's Fig. 6.
pub fn criticality_histogram(
    graph: &TimingGraph<CanonicalForm>,
    cms: &[f64],
    n_bins: usize,
) -> Histogram {
    let mut h = Histogram::new(0.0, 1.0, n_bins);
    for (id, _) in graph.edges_iter() {
        h.push(cms[id.0 as usize]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::generators;

    fn ctx(name: &str) -> ModuleContext {
        let n = generators::iscas85(name).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    fn adder_ctx() -> ModuleContext {
        let n = generators::ripple_carry_adder(4).unwrap();
        ModuleContext::characterize(n, &SstaConfig::paper()).unwrap()
    }

    #[test]
    fn criticalities_are_probabilities() {
        let ctx = adder_ctx();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        for (id, _) in ctx.graph().edges_iter() {
            let c = cms[id.0 as usize];
            assert!((0.0..=1.0).contains(&c), "cm = {c}");
        }
    }

    #[test]
    fn chain_edges_saturate_and_are_never_prunable() {
        // A pure chain: every edge is on the only path (true criticality
        // 1). Under the collapsed-random convention the tightness
        // saturates at 0.5 — far above any practical pruning threshold.
        use ssta_netlist::{library::library_90nm, Netlist, Signal};
        use std::sync::Arc;
        let lib = Arc::new(library_90nm());
        let mut b = Netlist::builder("chain", lib, 1);
        let mut s = Signal::Input(0);
        for _ in 0..5 {
            s = b.add_gate_by_name("INV", &[s]).unwrap();
        }
        b.add_output(s).unwrap();
        let ctx = ModuleContext::characterize(b.finish().unwrap(), &SstaConfig::paper()).unwrap();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        for (id, _) in ctx.graph().edges_iter() {
            let c = cms[id.0 as usize];
            assert!((0.49..=0.51).contains(&c), "chain edge cm = {c}");
        }
    }

    #[test]
    fn dominated_parallel_branch_has_low_criticality() {
        // Two branches input -> output: one long (3 gates), one short
        // (1 gate). The short branch's edge criticality should be ~0.
        use ssta_netlist::{library::library_90nm, Netlist, Signal};
        use std::sync::Arc;
        let lib = Arc::new(library_90nm());
        let mut b = Netlist::builder("branch", lib, 1);
        let mut long = Signal::Input(0);
        for _ in 0..4 {
            long = b
                .add_gate_by_name("NOR2", &[long, Signal::Input(0)])
                .unwrap();
        }
        let short = b.add_gate_by_name("INV", &[Signal::Input(0)]).unwrap();
        let join = b.add_gate_by_name("NAND2", &[long, short]).unwrap();
        b.add_output(join).unwrap();
        let ctx = ModuleContext::characterize(b.finish().unwrap(), &SstaConfig::paper()).unwrap();
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        // Find the INV arc (short branch).
        let short_edges: Vec<f64> = ctx
            .graph()
            .edges_iter()
            .filter(|(_, e)| e.delay.mean() < 15.0) // INV is the fastest cell
            .map(|(id, _)| cms[id.0 as usize])
            .collect();
        assert!(!short_edges.is_empty());
        for c in short_edges {
            assert!(c < 0.05, "dominated edge cm = {c}");
        }
    }

    #[test]
    fn histogram_is_bimodal_for_benchmark_circuit() {
        // The paper's Fig. 6 observation: criticalities pile up near 0
        // and 1. Check on the smallest benchmark.
        let ctx = ctx("c432");
        let cms =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        let h = criticality_histogram(ctx.graph(), &cms, 20);
        let total = h.total() as f64;
        let low = h.counts()[0] as f64; // [0, 0.05): prunable edges
                                        // Upper mode: the 0.5 saturation band [0.45, 0.65) under the
                                        // collapsed-random convention (the paper's mode at 1.0).
        let high: f64 = h.counts()[9..13].iter().sum::<u64>() as f64;
        assert!(
            (low + high) / total > 0.6,
            "expected bimodal histogram, modes hold {:.1}%",
            100.0 * (low + high) / total
        );
    }

    #[test]
    fn full_sweep_levelizes_exactly_once() {
        // All 2·(inputs + outputs)-ish traversals of the sweep must share
        // one schedule — re-levelizing per pass is the bug this engine
        // exists to fix. (The counter is thread-local; worker threads
        // never build schedules, only the entry point does.)
        let ctx = adder_ctx();
        let before = ssta_timing::levels::schedule_builds();
        let _ =
            edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions::default()).unwrap();
        assert_eq!(ssta_timing::levels::schedule_builds(), before + 1);
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let ctx = adder_ctx();
        let a = edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions { threads: 1 })
            .unwrap();
        let b = edge_criticalities(ctx.graph(), &ctx.zero(), &CriticalityOptions { threads: 4 })
            .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// Distinct output vertices, as the sweep visits them.
    fn distinct_outputs(graph: &TimingGraph<CanonicalForm>) -> Vec<VertexId> {
        let mut outputs = graph.outputs().to_vec();
        outputs.sort();
        outputs.dedup();
        outputs
    }

    #[test]
    fn kernel_matches_the_form_building_evaluation_bit_for_bit() {
        // The reference: build dₑ = a + d + r as a canonical form, then
        // take its tightness against M_ij. Every in-cone triple of c432.
        let ctx = ctx("c432");
        let graph = ctx.graph();
        let zero = ctx.zero();
        let schedule = LevelSchedule::build(graph).unwrap();
        let mut triples = 0;
        for &vi in graph.inputs() {
            let arrival = levels::forward(graph, &schedule, &[(vi, zero.clone())]).unwrap();
            for &vj in &distinct_outputs(graph) {
                let Some(m) = arrival[vj.0 as usize].as_ref() else {
                    continue;
                };
                let required = levels::backward(graph, &schedule, &[(vj, zero.clone())]).unwrap();
                for (_, e) in graph.edges_iter() {
                    let (Some(a), Some(r)) = (
                        arrival[e.from.0 as usize].as_ref(),
                        required[e.to.0 as usize].as_ref(),
                    ) else {
                        continue;
                    };
                    let de = a.sum(&e.delay).sum(r);
                    let want = tightness_probability(
                        de.mean(),
                        de.variance(),
                        m.mean(),
                        m.variance(),
                        de.covariance(m),
                    );
                    let got = path_criticality(a, &e.delay, r, m, m.variance());
                    assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
                    triples += 1;
                }
            }
        }
        assert!(triples > 10_000, "only {triples} triples checked");
    }

    #[test]
    fn sweep_is_the_bitwise_max_of_pair_criticalities() {
        // c880 drives 26 distinct outputs, so its sweep runs two output
        // batches. At 8σ the prefilter skips no in-cone triple of these
        // circuits, so every maximum is exact.
        let multi_batch = ctx("c880");
        assert!(distinct_outputs(multi_batch.graph()).len() > OUTPUT_BATCH);
        for ctx in [adder_ctx(), ctx("c432"), multi_batch] {
            let graph = ctx.graph();
            let zero = ctx.zero();
            let schedule = LevelSchedule::build(graph).unwrap();
            let mut want = vec![0.0f64; graph.edge_bound()];
            for &vi in graph.inputs() {
                for &vj in &distinct_outputs(graph) {
                    let cij = pair_criticalities_with(graph, &schedule, &zero, vi, vj).unwrap();
                    for (w, c) in want.iter_mut().zip(cij) {
                        if c > *w {
                            *w = c;
                        }
                    }
                }
            }
            for threads in [1, 2] {
                let got =
                    edge_criticalities(graph, &zero, &CriticalityOptions { threads }).unwrap();
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "threads {threads}");
            }
        }
    }

    #[test]
    fn delta_stopped_sweep_keeps_exactly_the_exact_keep_set() {
        let ctx = ctx("c432");
        let graph = ctx.graph();
        let zero = ctx.zero();
        for threads in [1, 2] {
            let options = CriticalityOptions { threads };
            let exact = edge_criticalities(graph, &zero, &options).unwrap();
            for delta in [0.0, 0.01, 0.05, 0.3, 1.0] {
                let stopped = criticalities_until(graph, &zero, &options, delta).unwrap();
                for (id, _) in graph.edges_iter() {
                    let (x, s) = (exact[id.0 as usize], stopped[id.0 as usize]);
                    assert_eq!(
                        s >= delta,
                        x >= delta,
                        "edge {}: exact {x}, stopped {s}, delta {delta}, threads {threads}",
                        id.0
                    );
                    if x < delta {
                        assert_eq!(s.to_bits(), x.to_bits(), "sub-threshold edges stay exact");
                    }
                }
            }
        }
    }
}
