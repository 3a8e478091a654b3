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

use crate::canonical::{max_plus_parts, sum_parts, CanonicalForm, Parts, PartsMut};
use crate::hier::design::Design;
use crate::hier::replace::{DesignVariables, InstanceReplacement};
use crate::params::VariableLayout;
use crate::CoreError;
use serde::Serialize;
use ssta_timing::levels::{self, PullStep};
use ssta_timing::{EdgeId, LevelSchedule, TimingGraph, VertexId};
use std::fmt;
use std::ops::Range;
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

/// The options argument of [`assemble_design_graph_with_basis`].
///
/// A design analysis runs on the calling thread, so `threads` is
/// ignored. The type stays, with its one public field, because
/// perfbench's layer replay (`perfbench/src/layers.rs`) builds it with a
/// struct literal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Ignored: every phase of a design analysis runs on the calling
    /// thread.
    pub threads: usize,
}

/// Wall-clock seconds spent in each phase of one design-level analysis
/// (Fig. 5 steps plus the final propagation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
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

/// Analyzes a hierarchical design (steps 1–4 of Fig. 5) on the calling
/// thread. A registered instance is opaque (see [`AssembledDesign`]):
/// paths end at its inputs and start again at its outputs.
///
/// # Errors
///
/// Propagates partition/PCA/graph errors; returns
/// [`CoreError::Timing`]`(NoPath)` if no design output is reachable.
pub fn analyze(design: &Design, mode: CorrelationMode) -> Result<DesignTiming, CoreError> {
    let started = Instant::now();
    let assembled = assemble_design_graph(design, mode)?;
    let schedule = LevelSchedule::build(&assembled.graph)?;
    let mut timing = propagate_assembled(&assembled, &schedule, 1)?;
    timing.elapsed_seconds = started.elapsed().as_secs_f64();
    Ok(timing)
}

/// Step 4 alone: propagates arrival times over an already-assembled
/// design graph using a prebuilt [`LevelSchedule`] — the reuse seam for
/// sweeps that amortize one assembly (and one schedule) across many
/// scenarios. [`analyze`] is [`assemble_design_graph`] + one schedule
/// build + this.
///
/// The pass rewrites each instance edge into the design variable space
/// when it pulls it (the hot half of step 3), into one reused scratch
/// form that the fused Clark step reads, so the design-space edge
/// delays are never materialized. Results carry the bits of rewriting
/// every edge first and then propagating.
///
/// The pass reads only the design outputs, so it holds only live
/// arrivals: each one gives its storage back once the last edge out of
/// its vertex has been pulled (see [`levels::forward_with`]). The live
/// forms share one slab sized before the pass, and design PIs,
/// top-level edges and the arrivals built from them alone store no
/// coefficients. On 64 chained `c880` instances (756 local components)
/// one pass peaks at ~1.8 MB of heap over 117 allocation requests,
/// where a separate form per arrival took ~14 MB over 22,310 requests
/// and holding every arrival to the end took ~68 MB.
///
/// The returned timing's `phases` are the assembly's phases plus this
/// propagation; `elapsed_seconds` is their sum (callers owning the full
/// wall clock overwrite it).
///
/// The pass runs on the calling thread, so `_threads` is ignored: a
/// per-level fan-out measured slower than the serial loop at every
/// design size (see [`levels`]). The parameter stays because
/// perfbench's layer replay passes it.
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
            arrivals
                .form(v)
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
/// registers within a cycle. Each pass builds its own seeds, a
/// deterministic zero at every design primary input and each launch
/// vertex's clock-to-output arc, so the assembly keeps no source forms.
///
/// Instance edges keep their delays in their module's own variable
/// space, and top-level edges (design PIs to instance inputs, and
/// inter-module wires) hold deterministic forms with no local
/// coefficients. [`propagate_assembled`] rewrites each instance edge
/// into the design variable space at the moment it pulls that edge, so
/// the design-space delays are never materialized, and reads a
/// top-level edge as its mean alone. Use [`graph`](Self::graph) for its
/// structure (e.g. [`LevelSchedule::build`]), not as a design-space
/// graph.
///
/// Produced by [`assemble_design_graph`] for tooling that times
/// assembly and propagation separately, or reuses one schedule across
/// assemblies; [`analyze`] is this plus step 4.
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
        self.transforms[idx].apply(form, self.module_layouts[idx], self.design_layout)
    }

    /// One arrival pass: a deterministic zero at every design PI and each
    /// launch arc at its vertex, then every pulled edge rewritten into the
    /// design variable space. With `early`, each seed and each rewritten
    /// edge is negated, so the max pass yields the negated earliest
    /// arrivals (a statistical min without a second engine).
    ///
    /// The pass keeps its forms in one [`Slab`], sized before it starts
    /// by [`slots_needed`](Self::slots_needed). Design PIs, top-level
    /// edges and the arrivals built from them alone are
    /// [`Constant`]s: they hold no coefficients and take no rewrite.
    /// Every other arrival takes a slot at its vertex's first step that
    /// needs one, and gives it back once its last reader has pulled it
    /// (see [`levels::forward_with`]), so only the design outputs and the
    /// vertices no edge leaves (among them every registered instance's
    /// capture vertices) hold a value afterwards.
    pub(crate) fn arrivals(
        &self,
        schedule: &LevelSchedule,
        early: bool,
    ) -> Result<Arrivals, CoreError> {
        let slots = self.slots_needed(schedule)?;
        let mut slab = Slab::new(self.n_globals, self.n_local_components, slots);
        for (_, arc) in &self.launches {
            let slot = slab.alloc();
            slab.write(slot, arc.parts());
            if early {
                slab.slot_mut(slot).negate();
            }
        }
        let zero = if early { -0.0 } else { 0.0 };
        let pi = Arrival::Deterministic(Constant {
            nominal: zero,
            zero,
        });
        let launches = self
            .launches
            .iter()
            .zip(0..)
            .map(|(&(v, _), slot)| (v, Arrival::Slot(slot)));
        let seeds = self.graph.inputs().iter().map(|&v| (v, pi)).chain(launches);
        let mut pass = Pass {
            design: self,
            slab,
            scratch: CanonicalForm::constant(0.0, self.n_globals, self.n_local_components),
            early,
        };
        let values = levels::forward_with(&self.graph, schedule, seeds, &mut pass)?;
        debug_assert_eq!(pass.slab.used as usize, slots, "the census missed the peak");
        Ok(Arrivals {
            values,
            slab: pass.slab,
        })
    }

    /// The most slots one pass holds at once. Whether an arrival needs a
    /// slot depends only on the schedule, the seeds and which edges are
    /// top-level, never on a value, so this runs the pass over one flag
    /// per vertex (`true` for a slot), without arithmetic; the late and
    /// the early pass need the same count.
    fn slots_needed(&self, schedule: &LevelSchedule) -> Result<usize, CoreError> {
        let mut census = Census {
            edge_instance: &self.edge_instance,
            live: self.launches.len(),
            peak: self.launches.len(),
        };
        let launches = self.launches.iter().map(|&(v, _)| (v, true));
        let seeds = self
            .graph
            .inputs()
            .iter()
            .map(|&v| (v, false))
            .chain(launches);
        levels::forward_with(&self.graph, schedule, seeds, &mut census)?;
        Ok(census.peak)
    }

    /// Edge `e`'s delay in the design variable space, negated for the
    /// early pass: a top-level edge is a [`Constant`], and an instance
    /// edge is rewritten into `scratch`.
    fn rewrite_edge<'s>(
        &self,
        e: EdgeId,
        early: bool,
        scratch: &'s mut CanonicalForm,
    ) -> Result<Delay<'s>, CoreError> {
        let form = &self.graph.edge(e).delay;
        let Some(idx) = self.edge_instance[e.0 as usize] else {
            let (nominal, zero) = if early {
                (-form.mean(), -0.0)
            } else {
                (form.mean(), 0.0)
            };
            return Ok(Delay::Deterministic(Constant { nominal, zero }));
        };
        let idx = idx as usize;
        let out = scratch.parts_mut();
        *out.nominal = form.mean();
        *out.random = form.random();
        out.globals.copy_from_slice(form.globals());
        self.transforms[idx].apply_into(
            form.locals(),
            self.module_layouts[idx],
            self.design_layout,
            out.locals,
        )?;
        if early {
            scratch.negate();
        }
        Ok(Delay::Rewritten(scratch.parts()))
    }
}

/// A form without variation: its mean, and the signed zero every
/// coefficient carries (`-0.0` once negated, on the early pass); its
/// random part is `0.0`.
#[derive(Debug, Clone, Copy)]
struct Constant {
    nominal: f64,
    zero: f64,
}

impl Constant {
    /// `self + other` as [`CanonicalForm::sum`] adds: the means add, and
    /// so do the zeros, so a sum's zero is `-0.0` only when both are.
    fn plus(self, other: Constant) -> Constant {
        Constant {
            nominal: self.nominal + other.nominal,
            zero: self.zero + other.zero,
        }
    }
}

/// One vertex's arrival during a design pass.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// Built from design PIs and top-level edges alone.
    Deterministic(Constant),
    /// A form in this slot of the pass's [`Slab`].
    Slot(u32),
}

/// A pulled edge's delay in the design variable space.
#[derive(Debug, Clone, Copy)]
enum Delay<'a> {
    /// A top-level edge: a design PI binding or a wire.
    Deterministic(Constant),
    /// An instance edge, rewritten into the pass's scratch form.
    Rewritten(Parts<'a>),
}

/// What one design pass leaves: a handle at each design output and
/// each vertex no edge leaves, and the slab holding their forms.
pub(crate) struct Arrivals {
    values: Vec<Option<Arrival>>,
    slab: Slab,
}

impl Arrivals {
    /// The arrival the pass kept at `v`, as a form of its own.
    pub(crate) fn form(&self, v: VertexId) -> Option<CanonicalForm> {
        self.values[v.0 as usize].map(|a| self.slab.parts(a).to_form())
    }
}

/// The step of one design pass: each pulled edge, rewritten, folds into
/// the vertex's arrival with the fused step of [`max_plus_parts`].
struct Pass<'a> {
    design: &'a AssembledDesign,
    slab: Slab,
    /// The instance edge being pulled, in the design variable space.
    scratch: CanonicalForm,
    early: bool,
}

impl PullStep<Arrival, CoreError> for &mut Pass<'_> {
    fn step(
        &mut self,
        acc: &mut Option<Arrival>,
        from: &Arrival,
        e: EdgeId,
    ) -> Result<(), CoreError> {
        let delay = self.design.rewrite_edge(e, self.early, &mut self.scratch)?;
        // A deterministic `a + d` needs no coefficients. Clark's max of
        // two forms without variance is the one with the larger mean,
        // the accumulator on a tie.
        if let (Arrival::Deterministic(a), Delay::Deterministic(d)) = (*from, delay) {
            let c = a.plus(d);
            match acc {
                None => {
                    *acc = Some(Arrival::Deterministic(c));
                    return Ok(());
                }
                Some(Arrival::Deterministic(p)) => {
                    *p = if p.nominal >= c.nominal { *p } else { c };
                    return Ok(());
                }
                Some(Arrival::Slot(_)) => {}
            }
        }
        // A deterministic accumulator that meets a varying `a + d` takes
        // a slot of its signed zeros first.
        let (slot, fresh) = match *acc {
            Some(Arrival::Slot(slot)) => (slot, false),
            Some(Arrival::Deterministic(p)) => {
                let slot = self.slab.alloc();
                self.slab.write_constant(slot, p);
                (slot, false)
            }
            None => (self.slab.alloc(), true),
        };
        *acc = Some(Arrival::Slot(slot));
        let (p, a, d) = self.slab.operands(slot, *from, delay);
        if fresh {
            sum_parts(p, a, d);
        } else {
            max_plus_parts(p, a, d);
        }
        Ok(())
    }

    fn release(&mut self, value: Arrival) {
        if let Arrival::Slot(slot) = value {
            self.slab.release(slot);
        }
    }
}

/// [`AssembledDesign::slots_needed`]'s dry pass: it tracks only whether
/// each arrival holds a slot, and counts the slots held at once.
struct Census<'a> {
    edge_instance: &'a [Option<u32>],
    live: usize,
    peak: usize,
}

impl PullStep<bool, CoreError> for &mut Census<'_> {
    fn step(&mut self, acc: &mut Option<bool>, from: &bool, e: EdgeId) -> Result<(), CoreError> {
        let varies = *from || self.edge_instance[e.0 as usize].is_some();
        match acc {
            Some(true) => {}
            _ if varies => {
                self.live += 1;
                self.peak = self.peak.max(self.live);
                *acc = Some(true);
            }
            _ => *acc = Some(false),
        }
        Ok(())
    }

    fn release(&mut self, slot: bool) {
        if slot {
            self.live -= 1;
        }
    }
}

/// The forms of one design pass, in equal slots of one buffer sized
/// before the pass. A slot holds `[nominal, random, globals…, locals…]`,
/// and the slots whose readers have all pulled them wait on a free list.
/// Beside them sit a block of `+0.0` and a block of `-0.0`, which a
/// [`Constant`] operand borrows as its coefficients, so the fused step
/// runs the arithmetic of a form storing those zeros.
#[derive(Debug)]
struct Slab {
    n_globals: usize,
    n_locals: usize,
    data: Vec<f64>,
    free: Vec<u32>,
    /// Slots handed out at least once.
    used: u32,
    /// `n_globals.max(n_locals)` of `+0.0`, then as many `-0.0`.
    zeros: Vec<f64>,
}

impl Slab {
    fn new(n_globals: usize, n_locals: usize, slots: usize) -> Self {
        let width = n_globals.max(n_locals);
        let mut zeros = vec![0.0; 2 * width];
        zeros[width..].fill(-0.0);
        Slab {
            n_globals,
            n_locals,
            data: vec![0.0; slots * (2 + n_globals + n_locals)],
            free: Vec::with_capacity(slots),
            used: 0,
            zeros,
        }
    }

    fn range(&self, slot: u32) -> Range<usize> {
        let stride = 2 + self.n_globals + self.n_locals;
        slot as usize * stride..(slot as usize + 1) * stride
    }

    /// A slot to overwrite: a released one, or the next never used. The
    /// census counted the slots the pass holds at once, so every slot
    /// lies inside the buffer.
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.used += 1;
            self.used - 1
        })
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// The parts of arrival `a`.
    fn parts(&self, a: Arrival) -> Parts<'_> {
        match a {
            Arrival::Deterministic(c) => {
                constant_parts(&self.zeros, self.n_globals, self.n_locals, c)
            }
            Arrival::Slot(slot) => slot_parts(&self.data[self.range(slot)], self.n_globals),
        }
    }

    fn slot_mut(&mut self, slot: u32) -> PartsMut<'_> {
        let range = self.range(slot);
        slot_parts_mut(&mut self.data[range], self.n_globals)
    }

    /// Copies `form` into `slot`.
    fn write(&mut self, slot: u32, form: Parts<'_>) {
        let p = self.slot_mut(slot);
        *p.nominal = form.nominal;
        *p.random = form.random;
        p.globals.copy_from_slice(form.globals);
        p.locals.copy_from_slice(form.locals);
    }

    /// Writes `c` into `slot`, its zero in every coefficient.
    fn write_constant(&mut self, slot: u32, c: Constant) {
        let p = self.slot_mut(slot);
        *p.nominal = c.nominal;
        *p.random = 0.0;
        p.globals.fill(c.zero);
        p.locals.fill(c.zero);
    }

    /// `slot` to write, beside the parts of `a` and `d` to read; `a` is
    /// another slot or deterministic.
    fn operands<'s>(
        &'s mut self,
        slot: u32,
        a: Arrival,
        d: Delay<'s>,
    ) -> (PartsMut<'s>, Parts<'s>, Parts<'s>) {
        let range = self.range(slot);
        let stride = range.len();
        let Slab {
            n_globals,
            n_locals,
            data,
            zeros,
            ..
        } = self;
        let constant = |c| constant_parts(zeros, *n_globals, *n_locals, c);
        let d = match d {
            Delay::Deterministic(c) => constant(c),
            Delay::Rewritten(parts) => parts,
        };
        let (p, a) = match a {
            Arrival::Slot(from) => {
                let from = from as usize * stride..(from as usize + 1) * stride;
                let (p, a) = split_ranges(data, range, from);
                (p, slot_parts(a, *n_globals))
            }
            Arrival::Deterministic(c) => (&mut data[range], constant(c)),
        };
        (slot_parts_mut(p, *n_globals), a, d)
    }
}

/// The parts of `c` over `zeros`, a block of `+0.0` and then one of
/// `-0.0`: its coefficients borrow the block of its zero.
fn constant_parts(zeros: &[f64], n_globals: usize, n_locals: usize, c: Constant) -> Parts<'_> {
    let (plus, minus) = zeros.split_at(zeros.len() / 2);
    let block = if c.zero.is_sign_negative() {
        minus
    } else {
        plus
    };
    Parts {
        nominal: c.nominal,
        random: 0.0,
        globals: &block[..n_globals],
        locals: &block[..n_locals],
    }
}

fn slot_parts(slot: &[f64], n_globals: usize) -> Parts<'_> {
    let (globals, locals) = slot[2..].split_at(n_globals);
    Parts {
        nominal: slot[0],
        random: slot[1],
        globals,
        locals,
    }
}

fn slot_parts_mut(slot: &mut [f64], n_globals: usize) -> PartsMut<'_> {
    let [nominal, random, coefficients @ ..] = slot else {
        unreachable!("a slot holds a mean and a random part");
    };
    let (globals, locals) = coefficients.split_at_mut(n_globals);
    PartsMut {
        nominal,
        random,
        globals,
        locals,
    }
}

/// `data[write]` for writing, beside the disjoint `data[read]` for
/// reading.
///
/// # Panics
///
/// Panics if the ranges overlap.
fn split_ranges(data: &mut [f64], write: Range<usize>, read: Range<usize>) -> (&mut [f64], &[f64]) {
    assert!(
        write.end <= read.start || read.end <= write.start,
        "a vertex reads its own arrival"
    );
    if write.start < read.start {
        let (head, tail) = data.split_at_mut(read.start);
        (&mut head[write], &tail[..read.len()])
    } else {
        let (head, tail) = data.split_at_mut(write.start);
        (&mut tail[..write.len()], &head[read])
    }
}

/// Builds the design-level timing graph without propagating (steps 1–3
/// of Fig. 5): partition, design PCA, per-instance replacement matrices
/// and graph flattening, on the calling thread.
///
/// # Errors
///
/// Propagates partition/PCA/graph errors, and returns
/// [`CoreError::Incompatible`] for a registered model without a launch
/// arc on one of its output ports.
pub fn assemble_design_graph(
    design: &Design,
    mode: CorrelationMode,
) -> Result<AssembledDesign, CoreError> {
    assemble_design_graph_with_basis(design, mode, &AnalyzeOptions::default(), None)
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
/// `_options` is ignored (see [`AnalyzeOptions`]); the parameter stays
/// because perfbench's layer replay passes it.
///
/// # Errors
///
/// As [`assemble_design_graph`].
pub fn assemble_design_graph_with_basis(
    design: &Design,
    mode: CorrelationMode,
    _options: &AnalyzeOptions,
    basis: Option<&DesignVariables>,
) -> Result<AssembledDesign, CoreError> {
    let (design_layout, transforms, mut phases) = build_variable_space(design, mode, basis)?;
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
                let arc = transforms[idx].apply(arc, model.layout(), design_layout)?;
                launches.push((v, arc));
            }
            in_ports.push(captures);
            out_ports.push(outputs);
            continue;
        }
        // A model graph is compact, so its vertex `v` lands at `base + v`.
        let mg = model.graph();
        let base = graph.vertex_bound() as u32;
        let at = |v: &VertexId| VertexId(base + v.0);
        for _ in 0..mg.n_vertices() {
            graph.add_vertex();
        }
        for (_, e) in mg.edges_iter() {
            graph.add_edge(at(&e.from), at(&e.to), e.delay.clone());
            edge_instance.push(Some(idx as u32));
        }
        in_ports.push(mg.inputs().iter().map(at).collect());
        out_ports.push(mg.outputs().iter().map(at).collect());
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
        .map(|inst| inst.model.layout())
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
    /// Proposed mode: the instance's replacement matrix.
    Replace(InstanceReplacement),
    /// Global-only mode: copy each module block at a private offset.
    Offset {
        /// Offset of the instance's components within every design-level
        /// parameter block.
        offset: usize,
    },
}

impl LocalTransform {
    /// Rewrites a whole form into the design variable space (allocating).
    pub(crate) fn apply(
        &self,
        form: &CanonicalForm,
        module_layout: VariableLayout,
        design_layout: VariableLayout,
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
        module_layout: VariableLayout,
        design_layout: VariableLayout,
        dst: &mut [f64],
    ) -> Result<(), CoreError> {
        match self {
            LocalTransform::Replace(r) => r.apply_into(src, module_layout, design_layout, dst),
            LocalTransform::Offset { offset } => {
                dst.fill(0.0);
                for p in 0..design_layout.n_params() {
                    let block = &src[module_layout.local_range(p)];
                    let base = design_layout.local_range(p).start + offset;
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
    basis: Option<&DesignVariables>,
) -> Result<(VariableLayout, Vec<LocalTransform>, PhaseTimings), CoreError> {
    match mode {
        CorrelationMode::Proposed => {
            // Steps 1–2 are skipped entirely when the caller injects a
            // precomputed basis (their cost shows up wherever it was
            // actually built).
            let (owned, mut phases) = match basis {
                Some(_) => (None, PhaseTimings::default()),
                None => {
                    let (vars, phases) = DesignVariables::build_profiled(design, 1)?;
                    (Some(vars), phases)
                }
            };
            let vars = basis.or(owned.as_ref()).expect("basis built or injected");
            // Step 3 (cold half): one replacement matrix per instance.
            let replace_started = Instant::now();
            let transforms = design
                .instances()
                .iter()
                .enumerate()
                .map(|(idx, inst)| {
                    InstanceReplacement::build(&inst.model, vars, idx).map(LocalTransform::Replace)
                })
                .collect::<Result<_, _>>()?;
            phases.replace_seconds += replace_started.elapsed().as_secs_f64();
            Ok((vars.layout(), transforms, phases))
        }
        CorrelationMode::GlobalOnly => {
            // Concatenate every instance's components within each
            // parameter's block.
            let mut per_param = 0;
            let mut transforms = Vec::with_capacity(design.instances().len());
            for inst in design.instances() {
                transforms.push(LocalTransform::Offset { offset: per_param });
                per_param += inst.model.layout().per_param();
            }
            Ok((
                VariableLayout::new(design.config().parameters.len(), per_param),
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
        let prop = assemble_design_graph(&d, CorrelationMode::Proposed).unwrap();
        let glob = assemble_design_graph(&d, CorrelationMode::GlobalOnly).unwrap();
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
        let baseline = assemble_design_graph(&d, CorrelationMode::Proposed).unwrap();
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
