//! Flattened-design Monte Carlo (the Fig. 7 ground truth).
//!
//! The hierarchical analysis works on extracted timing models; its ground
//! truth must not. This module flattens the design back to the original
//! module netlists (every instance must carry its `ModuleContext`),
//! places every gate at its absolute die position, assigns it the design
//! grid from the same heterogeneous partition the analysis uses, and
//! samples:
//!
//! * one global value per process parameter (shared by all instances),
//! * one value per design grid per parameter, drawn with the design-level
//!   covariance (via the design PCA transform), so abutting modules see
//!   physically correlated local variation,
//! * one private random value per timing arc.
//!
//! Each sample is a scalar longest-path evaluation of the whole flattened
//! design; the result is the empirical design-delay distribution.

use crate::{chunk_sizes, McOptions};
use ssta_core::hier::DesignVariables;
use ssta_core::{CoreError, Design};
use ssta_math::rng::{seeded_rng, NormalSampler};
use ssta_math::EmpiricalDist;
use ssta_netlist::Signal;

/// One flattened timing arc.
struct FlatEdge {
    from: u32,
    to: u32,
    nominal: f64,
    /// Per-parameter 1σ delay response `d0·sens·σ_rel`.
    bases: Vec<f64>,
    /// Design grid index of the receiving cell.
    grid: u32,
    /// Collapsed per-edge random coefficient (matches the canonical form).
    random: f64,
}

/// The flattened design ready for sampling.
struct FlatDesign {
    n_vertices: usize,
    edges: Vec<FlatEdge>,
    start_vertices: Vec<u32>,
    po_vertices: Vec<u32>,
    n_params: usize,
    n_grids: usize,
    shares: (f64, f64, f64),
}

/// Estimates the flattened design-delay distribution by Monte Carlo.
///
/// # Errors
///
/// * [`CoreError::Config`] if an instance lacks its original
///   `ModuleContext` (black-box models cannot be flattened);
/// * propagated partition/PCA/graph errors.
pub fn flat_design_delay(design: &Design, options: &McOptions) -> Result<EmpiricalDist, CoreError> {
    let vars = DesignVariables::build(design)?;
    let flat = flatten(design, &vars)?;
    // The design grid transform, shared by every parameter: each
    // parameter draws its own components and maps them through it.
    let transform = vars.pca().transform();

    let threads = options.resolve_threads();
    let sizes = chunk_sizes(options.samples, threads);

    let samples = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (chunk_idx, &n_samples) in sizes.iter().enumerate() {
            let flat = &flat;
            handles.push(s.spawn(move || {
                let mut rng = seeded_rng(options.seed ^ (chunk_idx as u64).wrapping_mul(0x51_7cc1));
                let mut normal = NormalSampler::new();
                let mut out = Vec::with_capacity(n_samples);
                let mut g = vec![0.0; flat.n_params];
                let mut grid_vals = vec![vec![0.0; flat.n_grids]; flat.n_params];
                let mut z = vec![0.0; transform.cols()];
                let mut arrival = vec![f64::NEG_INFINITY; flat.n_vertices];
                let (wg, wl, _wr) = flat.shares;
                let (sg, sl) = (wg.sqrt(), wl.sqrt());
                for _ in 0..n_samples {
                    normal.fill(&mut rng, &mut g);
                    for vals in &mut grid_vals {
                        normal.fill(&mut rng, &mut z);
                        *vals = transform
                            .mat_vec(&z)
                            .expect("dimension fixed at build time");
                    }
                    arrival.fill(f64::NEG_INFINITY);
                    for &v in &flat.start_vertices {
                        arrival[v as usize] = 0.0;
                    }
                    // Edges are stored in a topologically valid order, so a
                    // single linear sweep implements the longest path. The
                    // per-edge random draw happens unconditionally to keep
                    // the RNG stream independent of reachability.
                    for e in &flat.edges {
                        let r = if e.random > 0.0 {
                            normal.sample(&mut rng)
                        } else {
                            0.0
                        };
                        let av = arrival[e.from as usize];
                        if av == f64::NEG_INFINITY {
                            continue;
                        }
                        // e.random already carries the √share factor.
                        let mut d = e.nominal + e.random * r;
                        for (p, &base) in e.bases.iter().enumerate() {
                            d += base * (sg * g[p] + sl * grid_vals[p][e.grid as usize]);
                        }
                        let cand = av + d;
                        let slot = &mut arrival[e.to as usize];
                        if cand > *slot {
                            *slot = cand;
                        }
                    }
                    let delay = flat
                        .po_vertices
                        .iter()
                        .map(|&v| arrival[v as usize])
                        .fold(f64::NEG_INFINITY, f64::max);
                    out.push(delay);
                }
                out
            }));
        }
        let mut all = Vec::with_capacity(options.samples);
        for h in handles {
            all.extend(h.join().expect("MC worker panicked"));
        }
        all
    });

    if samples.iter().any(|d| !d.is_finite()) {
        return Err(CoreError::Timing(ssta_timing::TimingError::NoPath));
    }
    Ok(EmpiricalDist::from_samples(samples))
}

/// Flattens every instance netlist into one scalar evaluation structure.
/// Edges are emitted in topological order: instance-internal edges follow
/// the netlist topological invariant, and connection edges are interleaved
/// by a Kahn pass over the instance dependency order.
fn flatten(design: &Design, vars: &DesignVariables) -> Result<FlatDesign, CoreError> {
    let config = design.config();
    let n_params = config.parameters.len();
    let (wg, wl, wr) = (
        config.correlation.global_share,
        config.correlation.local_share,
        config.correlation.random_share,
    );

    // Vertex offsets per instance.
    let mut offsets = Vec::with_capacity(design.instances().len());
    let mut n_vertices = 0usize;
    for inst in design.instances() {
        let ctx = inst.context.as_ref().ok_or_else(|| CoreError::Config {
            reason: format!(
                "instance `{}` has no module context; flattened MC needs the original netlist",
                inst.name
            ),
        })?;
        offsets.push(n_vertices as u32);
        n_vertices += ctx.netlist().n_inputs() + ctx.netlist().n_gates();
    }

    let flat_signal = |inst: usize, sig: Signal, design: &Design| -> u32 {
        let ctx = design.instances()[inst].context.as_ref().expect("checked");
        offsets[inst]
            + match sig {
                Signal::Input(i) => i,
                Signal::Gate(g) => ctx.netlist().n_inputs() as u32 + g,
            }
    };

    // Topological order over instances (connections define dependencies).
    let n_inst = design.instances().len();
    let mut indeg = vec![0usize; n_inst];
    for c in design.connections() {
        if c.from.0 != c.to.0 {
            indeg[c.to.0] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n_inst).filter(|&i| indeg[i] == 0).collect();
    let mut inst_order = Vec::with_capacity(n_inst);
    while let Some(i) = ready.pop() {
        inst_order.push(i);
        for c in design.connections() {
            if c.from.0 == i && c.to.0 != i {
                indeg[c.to.0] -= 1;
                if indeg[c.to.0] == 0 {
                    ready.push(c.to.0);
                }
            }
        }
    }
    if inst_order.len() != n_inst {
        return Err(CoreError::Timing(ssta_timing::TimingError::CyclicGraph));
    }

    let mut edges: Vec<FlatEdge> = Vec::new();
    for &idx in &inst_order {
        let inst = &design.instances()[idx];
        let ctx = inst.context.as_ref().expect("checked above");
        let netlist = ctx.netlist();
        let placement = ctx.placement();
        let geometry = ctx.geometry();
        let grid_base = vars.partition().instance_range(idx).start as u32;

        // Connection edges INTO this instance (sources already emitted).
        for c in design.connections() {
            if c.to.0 != idx {
                continue;
            }
            let src_sig = design.instances()[c.from.0]
                .context
                .as_ref()
                .expect("checked")
                .netlist()
                .outputs()[c.from.1];
            edges.push(FlatEdge {
                from: flat_signal(c.from.0, src_sig, design),
                to: offsets[idx] + c.to.1 as u32,
                nominal: c.wire_delay_ps,
                bases: vec![0.0; n_params],
                grid: grid_base, // irrelevant: zero bases
                random: 0.0,
            });
        }

        // Instance-internal arcs.
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let cell = netlist.library().cell(gate.cell);
            let pos = placement.gate_position(gi);
            let grid = grid_base + geometry.grid_of(pos) as u32;
            let to = offsets[idx] + (netlist.n_inputs() + gi) as u32;
            for (pin, &src) in gate.inputs.iter().enumerate() {
                let d0 = cell.arc_delay_ps(pin);
                let bases: Vec<f64> = config
                    .parameters
                    .iter()
                    .map(|p| d0 * cell.sensitivity().get(p.param) * p.sigma_rel)
                    .collect();
                let random = (bases.iter().map(|b| (b * wr.sqrt()) * (b * wr.sqrt())))
                    .sum::<f64>()
                    .sqrt();
                edges.push(FlatEdge {
                    from: flat_signal(idx, src, design),
                    to,
                    nominal: d0,
                    bases,
                    grid,
                    random,
                });
            }
        }
    }

    // Start vertices: every instance input port driven by a design PI.
    let mut start_vertices = Vec::new();
    for targets in design.pi_bindings() {
        for &(inst, port) in targets {
            start_vertices.push(offsets[inst] + port as u32);
        }
    }
    let po_vertices: Vec<u32> = design
        .po_sources()
        .iter()
        .map(|&(inst, port)| {
            let sig = design.instances()[inst]
                .context
                .as_ref()
                .expect("checked")
                .netlist()
                .outputs()[port];
            flat_signal(inst, sig, design)
        })
        .collect();

    Ok(FlatDesign {
        n_vertices,
        edges,
        start_vertices,
        po_vertices,
        n_params,
        n_grids: vars.partition().n_grids(),
        shares: (wg, wl, wr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_core::{
        analyze, CorrelationMode, DesignBuilder, ExtractOptions, ModuleContext, SstaConfig,
    };
    use ssta_netlist::{generators, DieRect};
    use std::sync::Arc;

    fn single_instance_design() -> Design {
        let n = generators::ripple_carry_adder(4).unwrap();
        let config = SstaConfig::paper();
        let ctx = Arc::new(ModuleContext::characterize(n, &config).unwrap());
        let model = Arc::new(ctx.extract_model(&ExtractOptions::default()).unwrap());
        let (w, h) = model.geometry().extent_um();
        let mut b = DesignBuilder::new(
            "solo",
            DieRect {
                width: w + 40.0,
                height: h + 40.0,
            },
            config,
        );
        let u = b
            .add_instance("u0", model.clone(), Some(ctx), (0.0, 0.0))
            .unwrap();
        for k in 0..model.n_inputs() {
            b.expose_input(vec![(u, k)]).unwrap();
        }
        for k in 0..model.n_outputs() {
            b.expose_output(u, k).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn flat_mc_matches_analysis_for_single_instance() {
        let design = single_instance_design();
        let analytic = analyze(&design, CorrelationMode::Proposed).unwrap();
        let mc = flat_design_delay(
            &design,
            &McOptions {
                samples: 4000,
                ..Default::default()
            },
        )
        .unwrap();
        let mean_err = (analytic.delay.mean() - mc.mean()).abs() / mc.mean();
        assert!(mean_err < 0.03, "mean err {mean_err}");
        let sigma_err = (analytic.delay.std_dev() - mc.std_dev()).abs() / mc.std_dev();
        assert!(sigma_err < 0.12, "sigma err {sigma_err}");
    }

    #[test]
    fn missing_context_is_reported() {
        let n = generators::ripple_carry_adder(2).unwrap();
        let config = SstaConfig::paper();
        let ctx = Arc::new(ModuleContext::characterize(n, &config).unwrap());
        let model = Arc::new(ctx.extract_model(&ExtractOptions::default()).unwrap());
        let (w, h) = model.geometry().extent_um();
        let mut b = DesignBuilder::new(
            "bb",
            DieRect {
                width: w + 10.0,
                height: h + 10.0,
            },
            config,
        );
        let u = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        for k in 0..model.n_inputs() {
            b.expose_input(vec![(u, k)]).unwrap();
        }
        b.expose_output(u, 0).unwrap();
        let design = b.finish().unwrap();
        assert!(matches!(
            flat_design_delay(&design, &McOptions::default()),
            Err(CoreError::Config { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let design = single_instance_design();
        let opts = McOptions {
            samples: 300,
            seed: 5,
            threads: 2,
        };
        let a = flat_design_delay(&design, &opts).unwrap();
        let b = flat_design_delay(&design, &opts).unwrap();
        assert_eq!(a.mean(), b.mean());
    }
}
