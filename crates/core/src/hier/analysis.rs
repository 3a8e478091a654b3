//! Design-level arrival-time propagation (Fig. 5 of the paper).
//!
//! Two modes:
//!
//! * [`CorrelationMode::Proposed`] — the paper's method: heterogeneous
//!   partition, design-level PCA, and independent-variable replacement, so
//!   all instances share one design-level local variable set;
//! * [`CorrelationMode::GlobalOnly`] — the baseline the paper compares
//!   against: each instance keeps a private copy of its local variables
//!   (inter-module correlation carried by the global variables only).

use crate::canonical::CanonicalForm;
use crate::hier::design::Design;
use crate::hier::replace::{DesignVariables, InstanceReplacement};
use crate::params::VariableLayout;
use crate::CoreError;
use serde::{Deserialize, Serialize};
use ssta_math::parallel::{effective_threads, try_parallel_indexed};
use ssta_timing::{levels, DelayAlgebra, EdgeId, LevelSchedule, TimingGraph, VertexId};
use std::fmt;
use std::time::Instant;

/// How inter-module local correlation is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationMode {
    /// Independent-variable replacement (the paper's method).
    Proposed,
    /// Private local variables per instance; only global variation is
    /// shared between modules.
    GlobalOnly,
}

/// Tuning knobs for [`analyze_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Worker threads for the parallel assembly phases (design covariance
    /// rows and the per-instance replacement matrices); `0` uses the
    /// available parallelism, `1` forces the serial path. Step 4's
    /// propagation, which also rewrites each edge into the design
    /// variable space, always runs on the calling thread. Every thread
    /// count produces bit-identical results.
    pub threads: usize,
}

impl Default for AnalyzeOptions {
    /// Uses the available parallelism.
    fn default() -> Self {
        AnalyzeOptions { threads: 0 }
    }
}

/// Wall-clock seconds spent in each phase of one design-level analysis
/// (Fig. 5 steps plus the final propagation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Step 1 — heterogeneous partition of the top die.
    pub partition_seconds: f64,
    /// Step 2a — design-level grid covariance matrix.
    pub covariance_seconds: f64,
    /// Step 2b — its eigendecomposition (PCA).
    pub eigen_seconds: f64,
    /// Step 3 — building the per-instance replacement matrices and
    /// flattening the instance graphs, whose edges stay in module space.
    pub replace_seconds: f64,
    /// Step 4 — arrival-time propagation over the assembled graph,
    /// including step 3's rewrite of each edge into the design variable
    /// space, which runs as propagation pulls the edge.
    pub propagate_seconds: f64,
}

impl PhaseTimings {
    /// Sum over all phases.
    pub fn total_seconds(&self) -> f64 {
        self.partition_seconds
            + self.covariance_seconds
            + self.eigen_seconds
            + self.replace_seconds
            + self.propagate_seconds
    }

    /// Adds another analysis' phase times onto this one (batch
    /// aggregation).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.partition_seconds += other.partition_seconds;
        self.covariance_seconds += other.covariance_seconds;
        self.eigen_seconds += other.eigen_seconds;
        self.replace_seconds += other.replace_seconds;
        self.propagate_seconds += other.propagate_seconds;
    }
}

impl fmt::Display for PhaseTimings {
    /// Compact one-line breakdown in milliseconds, e.g.
    /// `partition 0.2 + covariance 1.4 + eigen 5.0 + replace 2.1 + propagate 0.7 ms`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition {:.1} + covariance {:.1} + eigen {:.1} + replace {:.1} + propagate {:.1} ms",
            1e3 * self.partition_seconds,
            1e3 * self.covariance_seconds,
            1e3 * self.eigen_seconds,
            1e3 * self.replace_seconds,
            1e3 * self.propagate_seconds,
        )
    }
}

/// The result of one design-level analysis.
#[derive(Debug, Clone)]
pub struct DesignTiming {
    /// The analysis mode that produced this result.
    pub mode: CorrelationMode,
    /// Arrival time at each design primary output.
    pub po_arrivals: Vec<CanonicalForm>,
    /// The design delay: statistical max over all primary outputs.
    pub delay: CanonicalForm,
    /// Total local components in the design variable space.
    pub n_local_components: usize,
    /// Wall-clock analysis time in seconds (includes partition + PCA +
    /// replacement + propagation).
    pub elapsed_seconds: f64,
    /// Per-phase wall-clock breakdown of
    /// [`elapsed_seconds`](Self::elapsed_seconds).
    pub phases: PhaseTimings,
}

/// Analyzes a hierarchical design (steps 1–4 of Fig. 5) with default
/// options (all available threads; bit-identical to the serial path).
///
/// # Errors
///
/// Propagates partition/PCA/graph errors; returns
/// [`CoreError::Timing`]`(NoPath)` if no design output is reachable.
pub fn analyze(design: &Design, mode: CorrelationMode) -> Result<DesignTiming, CoreError> {
    analyze_with(design, mode, &AnalyzeOptions::default())
}

/// Analyzes a hierarchical design with explicit options. A registered
/// instance is opaque (see [`AssembledDesign`]): paths end at its
/// inputs and start again at its outputs.
///
/// The assembly phases fan out across `options.threads` workers: the
/// design covariance is filled by row blocks, and each instance's
/// replacement matrices are built independently. Results are
/// bit-identical for every thread count — each unit of work is
/// self-contained and joined in deterministic index order.
///
/// # Errors
///
/// Propagates partition/PCA/graph errors; returns
/// [`CoreError::Timing`]`(NoPath)` if no design output is reachable.
pub fn analyze_with(
    design: &Design,
    mode: CorrelationMode,
    options: &AnalyzeOptions,
) -> Result<DesignTiming, CoreError> {
    let started = Instant::now();
    let assembled = assemble_design_graph(design, mode, options)?;
    let schedule = LevelSchedule::build(&assembled.graph)?;
    let mut timing = propagate_assembled(&assembled, &schedule, options.threads)?;
    timing.elapsed_seconds = started.elapsed().as_secs_f64();
    Ok(timing)
}

/// Step 4 alone: propagates arrival times over an already-assembled
/// design graph using a prebuilt [`LevelSchedule`] — the reuse seam for
/// sweeps that amortize one assembly (and one schedule) across many
/// scenarios. [`analyze_with`] is [`assemble_design_graph`] + one
/// schedule build + this.
///
/// The pass rewrites each edge into the design variable space when it
/// pulls it (the hot half of step 3), into one reused scratch form that
/// the fused Clark step reads, so the design-space edge delays are
/// never materialized. Results carry the bits of rewriting every edge
/// first and then propagating.
///
/// The pass reads only the design outputs, so it holds only live
/// arrivals: each one is dropped once the last edge out of its vertex
/// has been pulled (see [`levels::forward_with`]). On 64 chained `c880`
/// instances (756 local components) one pass peaks at ~14 MB of heap,
/// where holding every arrival to the end took ~68 MB.
///
/// The returned timing's `phases` are the assembly's phases plus this
/// propagation; `elapsed_seconds` is their sum (callers owning the full
/// wall clock overwrite it).
///
/// The pass runs on the calling thread, so `_threads` is unused: a
/// per-level fan-out measured slower than the serial loop at every
/// design size (see [`levels`]). The parameter stays so existing
/// callers that pass their thread budget keep compiling.
///
/// # Errors
///
/// Returns [`CoreError::Timing`]`(StaleSchedule)` if the schedule does
/// not match the graph's shape, `(NoPath)` if a design output is
/// unreachable, and [`CoreError::Math`] if an edge does not fit its
/// instance's replacement (which a graph built by
/// [`assemble_design_graph`] always does).
pub fn propagate_assembled(
    assembled: &AssembledDesign,
    schedule: &LevelSchedule,
    _threads: usize,
) -> Result<DesignTiming, CoreError> {
    let mut phases = assembled.phases;
    let propagate_started = Instant::now();
    let arrivals = assembled.arrivals(schedule, false)?;
    let po_arrivals: Vec<CanonicalForm> = assembled
        .graph
        .outputs()
        .iter()
        .map(|&v| {
            arrivals[v.0 as usize]
                .clone()
                .ok_or(CoreError::Timing(ssta_timing::TimingError::NoPath))
        })
        .collect::<Result<_, _>>()?;
    let delay = po_arrivals
        .iter()
        .skip(1)
        .fold(po_arrivals[0].clone(), |acc, a| acc.maximum(a));
    phases.propagate_seconds = propagate_started.elapsed().as_secs_f64();

    Ok(DesignTiming {
        mode: assembled.mode,
        po_arrivals,
        delay,
        n_local_components: assembled.n_local_components,
        elapsed_seconds: phases.total_seconds(),
        phases,
    })
}

/// The assembled design-level timing graph (Fig. 5 steps 1–3) before
/// arrival-time propagation: the flattened instance graphs.
///
/// A combinational instance contributes its model graph. A registered
/// instance (one whose model has a
/// [`sequential`](crate::extract::TimingModel::sequential) interface)
/// is opaque: one capture vertex per input port and one launch vertex
/// per output port, with no edges between them, so no path crosses its
/// registers within a cycle. Each pass builds its own seeds, a zero form
/// at every design primary input and each launch vertex's
/// clock-to-output arc, so the assembly keeps no source forms.
///
/// Instance edges keep their delays in their module's own variable
/// space, and top-level edges (design PIs to instance inputs, and
/// inter-module wires) hold deterministic forms with no local
/// coefficients. [`propagate_assembled`] rewrites each edge into the
/// design variable space at the moment it pulls that edge, so the
/// design-space delays are never materialized. Use [`graph`](Self::graph)
/// for its structure (e.g. [`LevelSchedule::build`]), not as a
/// design-space graph.
///
/// Produced by [`assemble_design_graph`] for tooling that times
/// assembly and propagation separately, or reuses one schedule across
/// assemblies; [`analyze_with`] is this plus step 4.
#[derive(Debug, Clone)]
pub struct AssembledDesign {
    /// The analysis mode this graph was assembled for.
    pub mode: CorrelationMode,
    /// The design-level timing graph: instance edges in module space,
    /// top-level edges without locals.
    pub graph: TimingGraph<CanonicalForm>,
    /// Total local components in the design variable space.
    pub n_local_components: usize,
    /// Wall-clock breakdown of the assembly phases (propagate is 0).
    pub phases: PhaseTimings,
    /// Global coefficients per form (one per process parameter).
    n_globals: usize,
    /// Per edge id: the instance whose module space holds the delay, or
    /// `None` for a top-level edge.
    edge_instance: Vec<Option<u32>>,
    /// Per instance: its transform into the design variable space and
    /// its module's variable layout.
    transforms: Vec<LocalTransform>,
    module_layouts: Vec<VariableLayout>,
    design_layout: VariableLayout,
    /// Per instance: the vertex of each input port.
    in_ports: Vec<Vec<VertexId>>,
    /// Each registered instance's launch vertices, seeded with their
    /// clock-to-output arcs in the design variable space.
    launches: Vec<(VertexId, CanonicalForm)>,
}

impl AssembledDesign {
    /// Instance `idx`'s input-port vertices (a registered instance's
    /// capture vertices).
    pub(crate) fn input_ports(&self, idx: usize) -> &[VertexId] {
        &self.in_ports[idx]
    }

    /// Rewrites a constraint arc of instance `idx` into the design
    /// variable space, with the transform its edges get.
    pub(crate) fn rewrite_arc(
        &self,
        idx: usize,
        form: &CanonicalForm,
    ) -> Result<CanonicalForm, CoreError> {
        self.transforms[idx].apply(form, &self.module_layouts[idx], &self.design_layout)
    }

    /// One arrival pass: a zero form at every design PI and each launch
    /// arc at its vertex, then every pulled edge rewritten into the
    /// design variable space. With `early`, each seed and each rewritten
    /// edge is negated, so the max pass yields the negated earliest
    /// arrivals (a statistical min without a second engine).
    ///
    /// Only the design outputs and the vertices no edge leaves (among
    /// them every registered instance's capture vertices) hold a value
    /// afterwards; [`levels::forward_with`] drops the rest as it goes.
    pub(crate) fn arrivals(
        &self,
        schedule: &LevelSchedule,
        early: bool,
    ) -> Result<Vec<Option<CanonicalForm>>, CoreError> {
        let zero = CanonicalForm::constant(0.0, self.n_globals, self.n_local_components);
        let pi_seeds = self.graph.inputs().iter().map(|&v| (v, zero.clone()));
        let seeds = pi_seeds
            .chain(self.launches.iter().cloned())
            .map(|(v, mut f)| {
                if early {
                    f.negate();
                }
                (v, f)
            });
        let mut scratch = zero.clone();
        levels::forward_with(&self.graph, schedule, seeds, |acc, a, e| {
            self.rewrite_edge(e, &mut scratch)?;
            if early {
                scratch.negate();
            }
            CanonicalForm::max_plus_into(acc, a, &scratch);
            Ok::<(), CoreError>(())
        })
    }

    /// Writes edge `e`'s delay, rewritten into the design variable space,
    /// into `out` — the form [`analyze_with`]'s step 4 pulls.
    fn rewrite_edge(&self, e: EdgeId, out: &mut CanonicalForm) -> Result<(), CoreError> {
        let form = &self.graph.edge(e).delay;
        out.assign_rewritten(form, |dst| match self.edge_instance[e.0 as usize] {
            Some(idx) => {
                let idx = idx as usize;
                self.transforms[idx].apply_into(
                    form.locals(),
                    &self.module_layouts[idx],
                    &self.design_layout,
                    dst,
                )
            }
            None => {
                dst.fill(0.0);
                Ok(())
            }
        })
    }
}

/// Builds the design-level timing graph without propagating (steps 1–3
/// of Fig. 5): partition, design PCA, per-instance replacement matrices
/// and graph flattening, fanned out across `options.threads` workers.
///
/// # Errors
///
/// Propagates partition/PCA/graph errors, and returns
/// [`CoreError::Incompatible`] for a registered model without a launch
/// arc on one of its output ports.
pub fn assemble_design_graph(
    design: &Design,
    mode: CorrelationMode,
    options: &AnalyzeOptions,
) -> Result<AssembledDesign, CoreError> {
    assemble_design_graph_with_basis(design, mode, options, None)
}

/// [`assemble_design_graph`] with an optionally precomputed design
/// variable basis.
///
/// [`DesignVariables`] depend only on the die, the placed module
/// geometries and the config's correlation/grid/PCA settings — *not* on
/// parameter sigma magnitudes — so a sweep whose scenarios differ only
/// in sigma scaling can build the basis once (via
/// [`DesignVariables::build_profiled`]) and inject it here, skipping
/// steps 1–2 (partition, covariance, eigendecomposition) on every
/// subsequent assembly. Passing a basis built from *different* inputs
/// is a logic error and produces wrong correlations; callers own that
/// cache key. Ignored in [`CorrelationMode::GlobalOnly`], which never
/// builds a basis.
///
/// # Errors
///
/// As [`assemble_design_graph`].
pub fn assemble_design_graph_with_basis(
    design: &Design,
    mode: CorrelationMode,
    options: &AnalyzeOptions,
    basis: Option<&DesignVariables>,
) -> Result<AssembledDesign, CoreError> {
    let threads = effective_threads(options.threads);
    let (design_layout, transforms, mut phases) =
        build_variable_space(design, mode, threads, basis)?;
    let n_globals = design.config().parameters.len();
    let n_locals = design_layout.n_locals();

    // Flatten the instance graphs. Edge delays stay in module space:
    // step 4 rewrites each one as it pulls it.
    let flatten_started = Instant::now();
    let mut graph: TimingGraph<CanonicalForm> = TimingGraph::new();
    let mut edge_instance: Vec<Option<u32>> = Vec::new();
    let mut pi_vertices = Vec::with_capacity(design.pi_bindings().len());
    for _ in design.pi_bindings() {
        pi_vertices.push(graph.add_input());
    }

    // Instantiate each model's graph, or a registered model's capture
    // and launch vertices.
    let mut in_ports: Vec<Vec<VertexId>> = Vec::with_capacity(design.instances().len());
    let mut out_ports: Vec<Vec<VertexId>> = Vec::with_capacity(design.instances().len());
    let mut launches = Vec::new();
    for (idx, inst) in design.instances().iter().enumerate() {
        let model = &*inst.model;
        if let Some(seq) = model.sequential() {
            let captures = (0..model.n_inputs()).map(|_| graph.add_vertex()).collect();
            let outputs: Vec<VertexId> =
                (0..model.n_outputs()).map(|_| graph.add_vertex()).collect();
            for (j, &v) in outputs.iter().enumerate() {
                let arc = seq.launch_of(j).ok_or_else(|| CoreError::Incompatible {
                    reason: format!(
                        "registered model `{}` has no launch arc for output port {j}",
                        model.name()
                    ),
                })?;
                let arc = transforms[idx].apply(arc, model.layout(), &design_layout)?;
                launches.push((v, arc));
            }
            in_ports.push(captures);
            out_ports.push(outputs);
            continue;
        }
        let mg = model.graph();
        let mut map: Vec<Option<VertexId>> = vec![None; mg.vertex_bound()];
        for v in mg.vertices() {
            map[v.0 as usize] = Some(graph.add_vertex());
        }
        for (_, e) in mg.edges_iter() {
            let from = map[e.from.0 as usize].expect("live endpoint");
            let to = map[e.to.0 as usize].expect("live endpoint");
            graph.add_edge(from, to, e.delay.clone());
            edge_instance.push(Some(idx as u32));
        }
        in_ports.push(
            mg.inputs()
                .iter()
                .map(|&v| map[v.0 as usize].expect("input is live"))
                .collect(),
        );
        out_ports.push(
            mg.outputs()
                .iter()
                .map(|&v| map[v.0 as usize].expect("output is live"))
                .collect(),
        );
    }

    // Design PIs → instance inputs, then inter-module wires: deterministic
    // delays, so their locals are implicitly zero.
    let mut add_top_level = |from: VertexId, to: VertexId, delay_ps: f64| {
        graph.add_edge(from, to, CanonicalForm::constant(delay_ps, n_globals, 0));
        edge_instance.push(None);
    };
    for (pi, targets) in design.pi_bindings().iter().enumerate() {
        for &(inst, port) in targets {
            add_top_level(pi_vertices[pi], in_ports[inst][port], 0.0);
        }
    }
    for c in design.connections() {
        // Every zero wire carries `+0.0`, also one given as `-0.0`.
        let delay_ps = if c.wire_delay_ps == 0.0 {
            0.0
        } else {
            c.wire_delay_ps
        };
        add_top_level(
            out_ports[c.from.0][c.from.1],
            in_ports[c.to.0][c.to.1],
            delay_ps,
        );
    }
    // Design POs.
    for &(inst, port) in design.po_sources() {
        graph.mark_output(out_ports[inst][port]);
    }

    let module_layouts = design
        .instances()
        .iter()
        .map(|inst| inst.model.layout().clone())
        .collect();
    phases.replace_seconds += flatten_started.elapsed().as_secs_f64();
    Ok(AssembledDesign {
        mode,
        graph,
        n_local_components: n_locals,
        phases,
        n_globals,
        edge_instance,
        transforms,
        module_layouts,
        design_layout,
        in_ports,
        launches,
    })
}

/// A per-instance coefficient transform into the design variable space.
#[derive(Debug, Clone)]
pub(crate) enum LocalTransform {
    /// Proposed mode: full replacement matrices.
    Replace(InstanceReplacement),
    /// Global-only mode: copy the module block at a private offset.
    Offset {
        /// Per-parameter offsets into the design-level parameter blocks.
        per_param: Vec<usize>,
    },
}

impl LocalTransform {
    /// Rewrites a whole form into the design variable space (allocating).
    pub(crate) fn apply(
        &self,
        form: &CanonicalForm,
        module_layout: &VariableLayout,
        design_layout: &VariableLayout,
    ) -> Result<CanonicalForm, CoreError> {
        let mut locals = vec![0.0; design_layout.n_locals()];
        self.apply_into(form.locals(), module_layout, design_layout, &mut locals)?;
        Ok(form.with_locals(locals))
    }

    /// Writes the design-space image of module-space locals `src` into
    /// `dst`.
    pub(crate) fn apply_into(
        &self,
        src: &[f64],
        module_layout: &VariableLayout,
        design_layout: &VariableLayout,
        dst: &mut [f64],
    ) -> Result<(), CoreError> {
        match self {
            LocalTransform::Replace(r) => r.apply_into(src, module_layout, design_layout, dst),
            LocalTransform::Offset { per_param } => {
                dst.fill(0.0);
                for (p, &off) in per_param.iter().enumerate() {
                    let block = &src[module_layout.local_range(p)];
                    let base = design_layout.local_range(p).start + off;
                    dst[base..base + block.len()].copy_from_slice(block);
                }
                Ok(())
            }
        }
    }
}

fn build_variable_space(
    design: &Design,
    mode: CorrelationMode,
    threads: usize,
    basis: Option<&DesignVariables>,
) -> Result<(VariableLayout, Vec<LocalTransform>, PhaseTimings), CoreError> {
    let n_params = design.config().parameters.len();
    match mode {
        CorrelationMode::Proposed => {
            // Steps 1–2 are skipped entirely when the caller injects a
            // precomputed basis (their cost shows up wherever it was
            // actually built).
            let (owned, mut phases) = match basis {
                Some(_) => (None, PhaseTimings::default()),
                None => {
                    let (vars, phases) = DesignVariables::build_profiled(design, threads)?;
                    (Some(vars), phases)
                }
            };
            let vars = basis.or(owned.as_ref()).expect("basis built or injected");
            // Step 3 (cold half): one replacement matrix set per
            // instance, each independent of the others.
            let replace_started = Instant::now();
            let instances = design.instances();
            let transforms = try_parallel_indexed(instances.len(), threads, |idx| {
                InstanceReplacement::build(&instances[idx].model, vars, idx)
                    .map(LocalTransform::Replace)
            })?;
            phases.replace_seconds += replace_started.elapsed().as_secs_f64();
            Ok((vars.layout().clone(), transforms, phases))
        }
        CorrelationMode::GlobalOnly => {
            // Concatenate every instance's local blocks per parameter.
            let mut counts = vec![0usize; n_params];
            let mut transforms = Vec::with_capacity(design.instances().len());
            for inst in design.instances() {
                let ml = inst.model.layout();
                let per_param: Vec<usize> = (0..n_params).map(|p| counts[p]).collect();
                for (p, c) in counts.iter_mut().enumerate() {
                    *c += ml.local_range(p).len();
                }
                transforms.push(LocalTransform::Offset { per_param });
            }
            Ok((
                VariableLayout::new(&counts),
                transforms,
                PhaseTimings::default(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractOptions};
    use crate::hier::design::DesignBuilder;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::{generators, DieRect};
    use std::sync::Arc;

    /// Two adder instances side by side, outputs of the first feeding the
    /// second (a miniature version of the paper's Fig. 7 topology).
    fn chain_design(gap: f64) -> Design {
        let netlist = generators::ripple_carry_adder(4).unwrap();
        let config = SstaConfig::paper();
        let ctx = Arc::new(ModuleContext::characterize(netlist, &config).unwrap());
        let model = Arc::new(extract(&ctx, &ExtractOptions::default()).unwrap());
        let (mw, mh) = model.geometry().extent_um();
        let die = DieRect {
            width: mw * 2.0 + gap + 100.0,
            height: mh + 100.0,
        };
        let mut b = DesignBuilder::new("chain", die, config);
        let u0 = b
            .add_instance("u0", model.clone(), Some(ctx.clone()), (0.0, 0.0))
            .unwrap();
        let u1 = b
            .add_instance("u1", model.clone(), Some(ctx), (mw + gap, 0.0))
            .unwrap();
        // u0 sum bits (outputs 0..4) feed u1's a inputs (0..4).
        for k in 0..4 {
            b.connect(u0, k, u1, k, 0.0).unwrap();
        }
        // u0's carry out also feeds u1's carry-in (input port 8).
        b.connect(u0, 4, u1, 8, 0.0).unwrap();
        for k in 0..9 {
            b.expose_input(vec![(u0, k)]).unwrap();
        }
        for k in 4..8 {
            b.expose_input(vec![(u1, k)]).unwrap();
        }
        for k in 0..5 {
            b.expose_output(u1, k).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn proposed_analysis_produces_sane_delay() {
        let d = chain_design(0.0);
        let t = analyze(&d, CorrelationMode::Proposed).unwrap();
        assert!(t.delay.mean() > 0.0);
        assert!(t.delay.std_dev() > 0.0);
        assert_eq!(t.po_arrivals.len(), 5);
        // The design delay dominates every PO arrival.
        for a in &t.po_arrivals {
            assert!(t.delay.mean() >= a.mean() - 1e-9);
        }
    }

    #[test]
    fn both_modes_agree_on_mean_but_differ_on_sigma() {
        let d = chain_design(0.0);
        let prop = analyze(&d, CorrelationMode::Proposed).unwrap();
        let glob = analyze(&d, CorrelationMode::GlobalOnly).unwrap();
        // Means are driven by nominal delays plus max-induced shifts;
        // they stay close (within a couple percent).
        let rel_mean = (prop.delay.mean() - glob.delay.mean()).abs() / glob.delay.mean();
        assert!(rel_mean < 0.05, "means diverged: {rel_mean}");
        // Correlated local variation must *increase* the variance of a sum
        // of module delays relative to the independent assumption.
        assert!(
            prop.delay.std_dev() > glob.delay.std_dev(),
            "proposed σ {} should exceed global-only σ {}",
            prop.delay.std_dev(),
            glob.delay.std_dev()
        );
    }

    #[test]
    fn abutted_modules_correlate_more_than_distant_ones() {
        let near = analyze(&chain_design(0.0), CorrelationMode::Proposed).unwrap();
        let far = analyze(&chain_design(400.0), CorrelationMode::Proposed).unwrap();
        // With distance, local correlation decays, so the chained delay σ
        // shrinks toward the global-only level.
        assert!(
            near.delay.std_dev() > far.delay.std_dev(),
            "near σ {} vs far σ {}",
            near.delay.std_dev(),
            far.delay.std_dev()
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_serial() {
        let d = chain_design(0.0);
        for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
            let serial = analyze_with(&d, mode, &AnalyzeOptions { threads: 1 }).unwrap();
            for threads in [0, 2, 5] {
                let par = analyze_with(&d, mode, &AnalyzeOptions { threads }).unwrap();
                assert_eq!(par.po_arrivals, serial.po_arrivals, "{mode:?}/{threads}");
                assert_eq!(par.delay, serial.delay, "{mode:?}/{threads}");
                assert_eq!(par.n_local_components, serial.n_local_components);
            }
        }
    }

    #[test]
    fn phase_timings_populate_and_stay_within_elapsed() {
        let d = chain_design(0.0);
        let t = analyze(&d, CorrelationMode::Proposed).unwrap();
        assert!(t.phases.eigen_seconds > 0.0);
        assert!(t.phases.replace_seconds > 0.0);
        assert!(t.phases.propagate_seconds > 0.0);
        assert!(t.phases.total_seconds() <= t.elapsed_seconds + 1e-9);
        let line = t.phases.to_string();
        assert!(!line.contains('\n'));
        for phase in ["partition", "covariance", "eigen", "replace", "propagate"] {
            assert!(line.contains(phase), "missing {phase} in {line}");
        }
        // Global-only skips partition/covariance/eigen entirely.
        let g = analyze(&d, CorrelationMode::GlobalOnly).unwrap();
        assert_eq!(g.phases.partition_seconds, 0.0);
        assert_eq!(g.phases.eigen_seconds, 0.0);
        assert!(g.phases.propagate_seconds > 0.0);
    }

    #[test]
    fn phase_timings_accumulate() {
        let mut a = PhaseTimings {
            partition_seconds: 1.0,
            covariance_seconds: 2.0,
            eigen_seconds: 3.0,
            replace_seconds: 4.0,
            propagate_seconds: 5.0,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.total_seconds(), 30.0);
        assert_eq!(a.eigen_seconds, 6.0);
    }

    #[test]
    fn propagate_assembled_matches_analyze_and_reuses_across_modes() {
        let d = chain_design(0.0);
        let opts = AnalyzeOptions::default();
        let prop = assemble_design_graph(&d, CorrelationMode::Proposed, &opts).unwrap();
        let glob = assemble_design_graph(&d, CorrelationMode::GlobalOnly, &opts).unwrap();
        // Graph *structure* is mode-independent (only coefficients
        // differ), so one schedule serves both assemblies.
        let schedule = LevelSchedule::build(&prop.graph).unwrap();
        for (assembled, mode) in [
            (&prop, CorrelationMode::Proposed),
            (&glob, CorrelationMode::GlobalOnly),
        ] {
            let from_seam = propagate_assembled(assembled, &schedule, 0).unwrap();
            let direct = analyze(&d, mode).unwrap();
            assert_eq!(from_seam.mode, mode);
            assert_eq!(from_seam.po_arrivals, direct.po_arrivals, "{mode:?}");
            assert_eq!(from_seam.delay, direct.delay, "{mode:?}");
            assert!(from_seam.elapsed_seconds >= from_seam.phases.propagate_seconds);
        }
    }

    #[test]
    fn injected_basis_is_bit_identical_and_skips_steps_one_two() {
        let d = chain_design(0.0);
        let opts = AnalyzeOptions::default();
        let baseline = assemble_design_graph(&d, CorrelationMode::Proposed, &opts).unwrap();
        let (vars, _) = DesignVariables::build_profiled(&d, 0).unwrap();
        let injected =
            assemble_design_graph_with_basis(&d, CorrelationMode::Proposed, &opts, Some(&vars))
                .unwrap();
        // Same basis inputs ⇒ bit-identical graph coefficients.
        let schedule = LevelSchedule::build(&baseline.graph).unwrap();
        let a = propagate_assembled(&baseline, &schedule, 1).unwrap();
        let b = propagate_assembled(&injected, &schedule, 1).unwrap();
        assert_eq!(a.po_arrivals, b.po_arrivals);
        assert_eq!(a.delay, b.delay);
        // The injected path never runs partition/covariance/eigen.
        assert_eq!(injected.phases.partition_seconds, 0.0);
        assert_eq!(injected.phases.covariance_seconds, 0.0);
        assert_eq!(injected.phases.eigen_seconds, 0.0);
        assert!(baseline.phases.eigen_seconds > 0.0);
    }

    #[test]
    fn global_only_needs_no_partition_and_is_fast() {
        let d = chain_design(0.0);
        let t = analyze(&d, CorrelationMode::GlobalOnly).unwrap();
        // Variable count = sum of both instances' components.
        let per_instance: usize = d.instances()[0].model.layout().n_locals();
        assert_eq!(t.n_local_components, 2 * per_instance);
    }
}
