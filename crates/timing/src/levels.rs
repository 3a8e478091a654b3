//! Levelized (wavefront) propagation: longest-path arrival times
//! ([`forward`], [`forward_with`]) and max delays to a set of sinks
//! ([`backward`], the negated required time of Section IV-B of the
//! paper).
//!
//! Model extraction and criticality run many passes over one graph (one
//! forward per input, one backward per output), so this module computes
//! a [`LevelSchedule`] **once** per graph — Kahn level assignment,
//! CSR-flattened in/out adjacency and per-level vertex ranges — and
//! reuses it across every pass. Every pass is *pull*-based: each vertex
//! reduces over its own in-edges (out-edges for backward) in fixed
//! edge-index order, so the result never depends on the order vertices
//! within one level are visited.
//!
//! Both directions run one pull loop, and each pulled edge costs one
//! [`DelayAlgebra::max_plus_into`] step, `acc ← max(acc, a + d)`, which
//! canonical forms fuse into one in-place kernel. [`forward_with`]
//! takes its seeds by value and the step from the caller, as a
//! [`PullStep`]: the design-level analysis keeps each instance edge in
//! its module's variable space and rewrites it into the design space
//! inside the step (negated, for the early pass of sequential timing),
//! so no pass materializes design-space edge delays, and extraction's
//! accuracy repair skips pruned edges inside its step.
//!
//! Passes differ in what they keep. [`forward`] and [`backward`] return
//! a value at every vertex a source reaches, because criticality scoring
//! reads the arrival and the required time at both ends of every edge,
//! and a critical-path trace walks interior arrivals. [`forward_with`]
//! serves callers that read only graph outputs and sinks (the design
//! analysis, sequential timing, all-pairs delay matrices and accuracy
//! repair): it hands each value back to the step once the last of its
//! out-arcs has been pulled, so a pass holds its live frontier rather
//! than the whole graph. Its per-vertex values need not be delays: the
//! design analysis keeps a small handle per vertex, either a
//! deterministic arrival or a slot of one slab sized per pass, and its
//! step puts each handed-back slot on the slab's free list. On 64
//! chained `c880` instances, whose design-space forms carry 756 local
//! coefficients, one design pass peaks at ~1.8 MB of heap over 117
//! allocations, against ~14 MB over 22,310 when each arrival was a form
//! of its own and ~68 MB when a pass held every arrival. A value is
//! handed back only after every reader has pulled it, so the two kinds
//! of pass agree bit for bit wherever both hold a value.
//!
//! Passes run on the calling thread. Fanning each level out across
//! scoped threads measured slower than the serial loop at every size
//! tried on a 2-vCPU VM: a design analysis of 4, 16 and 64 chained
//! `c880` instances propagated in 2.6–3.7, 18–26 and 160 ms at 2
//! threads against 0.5, 7–12 and 63–73 ms serial, because a level
//! averages about a dozen vertices and each fan-out pays a spawn and a
//! join. Parallelism lives one layer up instead: many passes per
//! schedule (criticality, all-pairs extraction) and many analyses per
//! call (sweep groups, serve workers).
//!
//! For scalar (`f64`) delays no reduction order can change a bit (`max`
//! and `+` over the same path sets). For canonical forms Clark's
//! `maximum` is order-sensitive, so the fixed pull order is part of every
//! result: another order agrees within working precision, not bit for
//! bit, which is why the module fingerprint was re-keyed (v4) when
//! extraction adopted this one.

use crate::{DelayAlgebra, EdgeId, TimingError, TimingGraph, VertexId};
use std::cell::Cell;

/// One pull step of a [`forward_with`] pass, and where the pass hands
/// back the values no arc will read again.
///
/// A pass folds [`step`](Self::step) over each vertex's in-arcs and
/// calls [`release`](Self::release) with a value once every arc that
/// reads it has been pulled. Every
/// `FnMut(&mut Option<V>, &V, EdgeId) -> Result<(), E>` closure is a
/// step whose released values are dropped; annotate its first two
/// parameters (`|acc: &mut Option<_>, a: &_, e|`) so that the closure
/// accepts borrows of any lifetime.
pub trait PullStep<V, E> {
    /// Folds `from`, the value at the source of `edge`, into `acc`; a
    /// step that leaves `acc` alone skips the edge.
    ///
    /// # Errors
    ///
    /// The first error ends the pass.
    fn step(&mut self, acc: &mut Option<V>, from: &V, edge: EdgeId) -> Result<(), E>;

    /// Takes back a value that no arc will read again; the default
    /// drops it.
    fn release(&mut self, _value: V) {}
}

impl<V, E, F> PullStep<V, E> for F
where
    F: FnMut(&mut Option<V>, &V, EdgeId) -> Result<(), E>,
{
    fn step(&mut self, acc: &mut Option<V>, from: &V, edge: EdgeId) -> Result<(), E> {
        self(acc, from, edge)
    }
}

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`LevelSchedule`]s built **on the calling thread** since it
/// started — a diagnostic counter for regression tests that pin how many
/// times a hot path re-levelizes (the answer should be once per graph,
/// not once per propagation).
pub fn schedule_builds() -> u64 {
    BUILDS.with(Cell::get)
}

/// A reusable propagation schedule: Kahn level assignment plus
/// CSR-flattened adjacency, computed once per graph.
///
/// The schedule borrows nothing — it snapshots the graph's structure by
/// id — but it is only valid for the exact graph state it was built
/// from. Mutating the graph (adding/removing vertices or edges)
/// invalidates it; [`forward`]/[`backward`] reject schedules whose
/// shape counters disagree with the graph.
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    vertex_bound: usize,
    n_live_vertices: usize,
    n_live_edges: usize,
    /// Live vertices in level-major order, ascending id within a level.
    order: Vec<u32>,
    /// `order[level_offsets[l]..level_offsets[l + 1]]` is level `l`.
    level_offsets: Vec<u32>,
    /// CSR in-adjacency: `(edge id, source vertex)` per live vertex slot,
    /// in the graph's fixed edge-index order.
    in_offsets: Vec<u32>,
    in_arcs: Vec<(u32, u32)>,
    /// CSR out-adjacency: `(edge id, sink vertex)` per live vertex slot.
    out_offsets: Vec<u32>,
    out_arcs: Vec<(u32, u32)>,
}

impl LevelSchedule {
    /// Levelizes a graph: Kahn's algorithm assigns each live vertex the
    /// length of its longest incoming edge chain, and the adjacency is
    /// flattened into CSR form for the propagation inner loops.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::CyclicGraph`] for cyclic graphs.
    pub fn build<D: DelayAlgebra>(graph: &TimingGraph<D>) -> Result<Self, TimingError> {
        BUILDS.with(|b| b.set(b.get() + 1));
        let bound = graph.vertex_bound();
        let n_live = graph.n_vertices();

        // CSR adjacency in the graph's edge-index order.
        let mut in_offsets = Vec::with_capacity(bound + 1);
        let mut out_offsets = Vec::with_capacity(bound + 1);
        let mut in_arcs = Vec::with_capacity(graph.n_edges());
        let mut out_arcs = Vec::with_capacity(graph.n_edges());
        in_offsets.push(0);
        out_offsets.push(0);
        for slot in 0..bound {
            let v = VertexId(slot as u32);
            if graph.is_alive(v) {
                for e in graph.in_edges(v) {
                    in_arcs.push((e.0, graph.edge(e).from.0));
                }
                for e in graph.out_edges(v) {
                    out_arcs.push((e.0, graph.edge(e).to.0));
                }
            }
            in_offsets.push(in_arcs.len() as u32);
            out_offsets.push(out_arcs.len() as u32);
        }

        // Kahn level assignment: level(v) = longest in-chain length.
        let mut indeg: Vec<u32> = (0..bound)
            .map(|i| in_offsets[i + 1] - in_offsets[i])
            .collect();
        let mut level = vec![0u32; bound];
        let mut queue: Vec<u32> = (0..bound as u32)
            .filter(|&i| graph.is_alive(VertexId(i)) && indeg[i as usize] == 0)
            .collect();
        let mut processed = 0usize;
        while let Some(v) = queue.pop() {
            processed += 1;
            let lv = level[v as usize];
            for &(_, w) in
                &out_arcs[out_offsets[v as usize] as usize..out_offsets[v as usize + 1] as usize]
            {
                let w = w as usize;
                if level[w] < lv + 1 {
                    level[w] = lv + 1;
                }
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w as u32);
                }
            }
        }
        if processed != n_live {
            return Err(TimingError::CyclicGraph);
        }

        // Bucket live vertices by level, ascending id within a level.
        let n_levels = (0..bound)
            .filter(|&i| graph.is_alive(VertexId(i as u32)))
            .map(|i| level[i] as usize + 1)
            .max()
            .unwrap_or(0);
        let mut widths = vec![0u32; n_levels];
        for i in 0..bound {
            if graph.is_alive(VertexId(i as u32)) {
                widths[level[i] as usize] += 1;
            }
        }
        let mut level_offsets = Vec::with_capacity(n_levels + 1);
        level_offsets.push(0u32);
        for w in &widths {
            level_offsets.push(level_offsets.last().unwrap() + w);
        }
        let mut cursor: Vec<u32> = level_offsets[..n_levels].to_vec();
        let mut order = vec![0u32; n_live];
        for (i, &l) in level.iter().enumerate() {
            if graph.is_alive(VertexId(i as u32)) {
                let l = l as usize;
                order[cursor[l] as usize] = i as u32;
                cursor[l] += 1;
            }
        }

        Ok(LevelSchedule {
            vertex_bound: bound,
            n_live_vertices: n_live,
            n_live_edges: graph.n_edges(),
            order,
            level_offsets,
            in_offsets,
            in_arcs,
            out_offsets,
            out_arcs,
        })
    }

    /// Number of levels (0 for an empty graph).
    pub fn n_levels(&self) -> usize {
        self.level_offsets.len().saturating_sub(1)
    }

    /// Number of live vertices scheduled.
    pub fn n_scheduled(&self) -> usize {
        self.n_live_vertices
    }

    /// The widest level's vertex count (the available wavefront
    /// parallelism).
    pub fn max_width(&self) -> usize {
        (0..self.n_levels())
            .map(|l| self.level_range(l).len())
            .max()
            .unwrap_or(0)
    }

    /// The vertex ids of level `l` (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_levels()`.
    pub fn level_range(&self, l: usize) -> &[u32] {
        &self.order[self.level_offsets[l] as usize..self.level_offsets[l + 1] as usize]
    }

    /// In-arcs `(edge id, source vertex)` of `v` in fixed edge-index
    /// order.
    fn in_arcs_of(&self, v: usize) -> &[(u32, u32)] {
        &self.in_arcs[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize]
    }

    /// Out-arcs `(edge id, sink vertex)` of `v` in fixed edge-index
    /// order.
    fn out_arcs_of(&self, v: usize) -> &[(u32, u32)] {
        &self.out_arcs[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// Rejects use against a graph whose shape no longer matches the one
    /// this schedule was built from.
    fn ensure_matches<D: DelayAlgebra>(&self, graph: &TimingGraph<D>) -> Result<(), TimingError> {
        if graph.vertex_bound() != self.vertex_bound
            || graph.n_vertices() != self.n_live_vertices
            || graph.n_edges() != self.n_live_edges
        {
            return Err(TimingError::StaleSchedule);
        }
        Ok(())
    }
}

/// Moves the `(vertex, initial)` pairs into a per-slot seed array; a
/// vertex listed twice keeps the max of its initial values.
fn seed<D: DelayAlgebra>(
    bound: usize,
    pairs: impl IntoIterator<Item = (VertexId, D)>,
) -> Vec<Option<D>> {
    let mut seeds: Vec<Option<D>> = vec![None; bound];
    for (v, init) in pairs {
        let slot = &mut seeds[v.0 as usize];
        *slot = Some(match slot.take() {
            Some(prev) => prev.maximum(&init),
            None => init,
        });
    }
    seeds
}

/// Which way a pass pulls.
#[derive(Clone, Copy)]
enum Direction {
    /// Levels ascending; each vertex folds its in-edges.
    Forward,
    /// Levels descending; each vertex folds its out-edges.
    Backward,
}

/// Per vertex slot, how many arcs have yet to pull its value in a pass
/// that drops what no one reads: its out-degree, or `u32::MAX` for a
/// graph output, which a pass never counts down to zero (no vertex has
/// that many out-arcs), so outputs survive. A vertex with no out-arc is
/// never pulled, so it keeps its value too.
fn readers<D: DelayAlgebra>(graph: &TimingGraph<D>, schedule: &LevelSchedule) -> Vec<u32> {
    let mut readers: Vec<u32> = schedule
        .out_offsets
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    for &v in graph.outputs() {
        readers[v.0 as usize] = u32::MAX;
    }
    readers
}

/// The one pull loop behind every pass. Each vertex starts from its
/// seed and folds `step(acc, value[w], e)` over its arcs `(e, w)` in
/// fixed edge-index order, skipping arcs whose far end holds no value.
/// Levels run in `direction` order, and a level's vertices ascend by id
/// in both directions: walking `order` backwards visits ids descending
/// instead, which measured ~4 % slower cold extraction.
///
/// With `readers` (see [`readers`]; forward passes only, since the
/// counts are out-degrees), each pulled arc counts its far end down,
/// whether or not that end holds a value, and a value whose count
/// reaches zero goes back to the step: every reader has folded it
/// already.
fn pull<V, E, S>(
    schedule: &LevelSchedule,
    mut values: Vec<Option<V>>,
    direction: Direction,
    mut readers: Option<Vec<u32>>,
    mut step: S,
) -> Result<Vec<Option<V>>, E>
where
    S: PullStep<V, E>,
{
    let n_levels = schedule.n_levels();
    for i in 0..n_levels {
        let l = match direction {
            Direction::Forward => i,
            Direction::Backward => n_levels - 1 - i,
        };
        for &v in schedule.level_range(l) {
            let v = v as usize;
            let arcs = match direction {
                Direction::Forward => schedule.in_arcs_of(v),
                Direction::Backward => schedule.out_arcs_of(v),
            };
            // A vertex reads only other levels (a DAG has no self-arcs),
            // so its own slot can be taken and updated in place.
            let mut acc = values[v].take();
            for &(e, w) in arcs {
                let w = w as usize;
                if let Some(x) = &values[w] {
                    step.step(&mut acc, x, EdgeId(e))?;
                }
                if let Some(readers) = readers.as_mut() {
                    readers[w] -= 1;
                    if readers[w] == 0 {
                        if let Some(spent) = values[w].take() {
                            step.release(spent);
                        }
                    }
                }
            }
            values[v] = acc;
        }
    }
    Ok(values)
}

/// Arrival times from the given `(vertex, initial)` sources, level by
/// level: one `Option<D>` per vertex slot, `None` for a vertex no source
/// reaches. A vertex listed twice keeps the max of its initial values.
///
/// The pass keeps the arrival at every vertex, interior ones included,
/// for callers that read them: criticality scoring and critical-path
/// traces. A caller that reads only outputs runs [`forward_with`] with
/// the plain step instead and holds only the live frontier.
///
/// # Errors
///
/// Returns [`TimingError::StaleSchedule`] when `schedule` was built from
/// a different graph state.
///
/// # Panics
///
/// Panics if a source vertex id is out of range.
pub fn forward<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    schedule: &LevelSchedule,
    sources: &[(VertexId, D)],
) -> Result<Vec<Option<D>>, TimingError> {
    schedule.ensure_matches(graph)?;
    let seeds = seed(schedule.vertex_bound, sources.iter().cloned());
    let step = |acc: &mut Option<D>, a: &D, e: EdgeId| {
        D::max_plus_into(acc, a, &graph.edge(e).delay);
        Ok(())
    };
    pull(schedule, seeds, Direction::Forward, None, step)
}

/// The arrivals [`forward`] finds at graph outputs and at vertices no
/// edge leaves (sinks, such as a registered instance's capture
/// vertices), with sources taken by value and a caller-supplied
/// [`PullStep`]; every other slot is `None`.
///
/// Each vertex folds `step(acc, value[from], edge)` over its in-edges,
/// where the plain step is
/// `D::max_plus_into(acc, arrival, &graph.edge(edge).delay)`. A caller
/// whose edges hold delays in another representation (the design-level
/// analysis keeps instance edges in module space) converts each edge
/// inside its step, at the moment the pass pulls it; a step that leaves
/// `acc` alone skips the edge. The values need not be `D`: a caller may
/// keep each arrival elsewhere and pass a handle to it. The first error
/// a step returns ends the pass.
///
/// The pass hands each interior value back to the step's
/// [`release`](PullStep::release) once the last of its out-edges has
/// been pulled, so it holds the frontier between the levels pulled and
/// the levels still to come rather than one value per vertex, and an
/// output or sink value has the bits [`forward`] gives it.
///
/// # Errors
///
/// Returns [`TimingError::StaleSchedule`] (converted into `E`) when
/// `schedule` was built from a different graph state, and the first
/// error `step` returns.
///
/// # Panics
///
/// Panics if a source vertex id is out of range or listed twice.
pub fn forward_with<D, V, E, S>(
    graph: &TimingGraph<D>,
    schedule: &LevelSchedule,
    sources: impl IntoIterator<Item = (VertexId, V)>,
    step: S,
) -> Result<Vec<Option<V>>, E>
where
    D: DelayAlgebra,
    E: From<TimingError>,
    S: PullStep<V, E>,
{
    schedule.ensure_matches(graph)?;
    let mut values: Vec<Option<V>> = std::iter::repeat_with(|| None)
        .take(schedule.vertex_bound)
        .collect();
    for (v, value) in sources {
        let slot = &mut values[v.0 as usize];
        assert!(slot.is_none(), "vertex {} is a source twice", v.0);
        *slot = Some(value);
    }
    let readers = readers(graph, schedule);
    pull(schedule, values, Direction::Forward, Some(readers), step)
}

/// Max delay from each vertex to the given `(vertex, initial)` sinks,
/// level by level in reverse. Each vertex folds its sink value first,
/// then `delay + required[to]` over its out-edges in edge-index order.
/// Like [`forward`], the pass keeps the value at every vertex:
/// criticality scoring reads the required time at each edge's sink.
///
/// # Errors
///
/// Returns [`TimingError::StaleSchedule`] when `schedule` was built from
/// a different graph state.
///
/// # Panics
///
/// Panics if a sink vertex id is out of range.
pub fn backward<D: DelayAlgebra>(
    graph: &TimingGraph<D>,
    schedule: &LevelSchedule,
    sinks: &[(VertexId, D)],
) -> Result<Vec<Option<D>>, TimingError> {
    schedule.ensure_matches(graph)?;
    let seeds = seed(schedule.vertex_bound, sinks.iter().cloned());
    // `sum` is commutative, so `required + delay` has the bits of
    // `delay + required`.
    let step = |acc: &mut Option<D>, r: &D, e: EdgeId| {
        D::max_plus_into(acc, r, &graph.edge(e).delay);
        Ok(())
    };
    pull(schedule, seeds, Direction::Backward, None, step)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in --1--> a --3--> out
    ///   \--2--> b --1--> out
    fn diamond() -> (TimingGraph<f64>, [VertexId; 4]) {
        let mut g = TimingGraph::new();
        let i = g.add_input();
        let a = g.add_vertex();
        let b = g.add_vertex();
        let o = g.add_vertex();
        g.mark_output(o);
        g.add_edge(i, a, 1.0);
        g.add_edge(i, b, 2.0);
        g.add_edge(a, o, 3.0);
        g.add_edge(b, o, 1.0);
        (g, [i, a, b, o])
    }

    #[test]
    fn schedule_shape_on_diamond() {
        let (g, _) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        assert_eq!(s.n_levels(), 3);
        assert_eq!(s.n_scheduled(), 4);
        assert_eq!(s.max_width(), 2);
        assert_eq!(s.level_range(0), &[0]);
        assert_eq!(s.level_range(1), &[1, 2]);
        assert_eq!(s.level_range(2), &[3]);
    }

    #[test]
    fn forward_takes_longest_path() {
        let (g, [i, a, b, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let arr = forward(&g, &s, &[(i, 0.0)]).unwrap();
        assert_eq!(arr[i.0 as usize], Some(0.0));
        assert_eq!(arr[a.0 as usize], Some(1.0));
        assert_eq!(arr[b.0 as usize], Some(2.0));
        assert_eq!(arr[o.0 as usize], Some(4.0)); // max(1+3, 2+1)
    }

    #[test]
    fn backward_mirrors_forward() {
        let (g, [i, a, b, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let req = backward(&g, &s, &[(o, 0.0)]).unwrap();
        assert_eq!(req[o.0 as usize], Some(0.0));
        assert_eq!(req[a.0 as usize], Some(3.0));
        assert_eq!(req[b.0 as usize], Some(1.0));
        assert_eq!(req[i.0 as usize], Some(4.0));
    }

    #[test]
    fn edge_criticality_identity_holds() {
        // For every edge e: ae + d + re <= graph delay, with equality on
        // the critical path (the de = ae + d + re identity of eq. (15)).
        let (g, [i, _, _, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let arr = forward(&g, &s, &[(i, 0.0)]).unwrap();
        let req = backward(&g, &s, &[(o, 0.0)]).unwrap();
        let total = arr[o.0 as usize].unwrap();
        let mut on_critical = 0;
        for (_, e) in g.edges_iter() {
            let de = arr[e.from.0 as usize].unwrap() + e.delay + req[e.to.0 as usize].unwrap();
            assert!(de <= total + 1e-12);
            if (de - total).abs() < 1e-12 {
                on_critical += 1;
            }
        }
        assert_eq!(on_critical, 2); // i->a->o is the critical path
    }

    #[test]
    fn duplicate_sources_and_offsets_match_reference() {
        let (g, [i, _, _, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let pull = forward(&g, &s, &[(i, 0.0), (i, 5.0)]).unwrap();
        assert_eq!(pull[o.0 as usize], Some(9.0));
        let pull = forward(&g, &s, &[(i, 10.0)]).unwrap();
        assert_eq!(pull[o.0 as usize], Some(14.0));
    }

    #[test]
    fn forward_with_folds_the_callers_step_and_stops_at_its_error() {
        let (g, [i, a, b, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        // A step that doubles every edge delay on the way.
        let doubled = forward_with(&g, &s, [(i, 0.0)], |acc: &mut Option<_>, x: &_, e| {
            f64::max_plus_into(acc, x, &(2.0 * g.edge(e).delay));
            Ok::<(), TimingError>(())
        })
        .unwrap();
        // Only the output survives the pass: both interior arrivals
        // were dropped once `o` had pulled them.
        assert_eq!(doubled[a.0 as usize], None);
        assert_eq!(doubled[b.0 as usize], None);
        assert_eq!(doubled[o.0 as usize], Some(8.0));
        let failed = forward_with(&g, &s, [(i, 0.0)], |acc: &mut Option<_>, x: &_, e| {
            if g.edge(e).to == o {
                return Err(TimingError::NoPath);
            }
            f64::max_plus_into(acc, x, &g.edge(e).delay);
            Ok(())
        });
        assert_eq!(failed, Err(TimingError::NoPath));
    }

    /// A step over `(vertex, arrival)` values that records every value
    /// the pass hands back.
    struct Recording<'g> {
        graph: &'g TimingGraph<f64>,
        released: Vec<(VertexId, f64)>,
    }

    impl PullStep<(VertexId, f64), TimingError> for &mut Recording<'_> {
        fn step(
            &mut self,
            acc: &mut Option<(VertexId, f64)>,
            from: &(VertexId, f64),
            e: EdgeId,
        ) -> Result<(), TimingError> {
            let edge = self.graph.edge(e);
            let arrival = from.1 + edge.delay;
            let prev = acc.map_or(f64::NEG_INFINITY, |(_, a)| a);
            *acc = Some((edge.to, prev.max(arrival)));
            Ok(())
        }

        fn release(&mut self, value: (VertexId, f64)) {
            self.released.push(value);
        }
    }

    #[test]
    fn forward_with_hands_back_each_spent_value_once() {
        let (g, [i, a, b, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let mut recording = Recording {
            graph: &g,
            released: Vec::new(),
        };
        let kept = forward_with(&g, &s, [(i, (i, 0.0))], &mut recording).unwrap();
        assert_eq!(kept[o.0 as usize], Some((o, 4.0)));
        let held: Vec<usize> = (0..kept.len()).filter(|&v| kept[v].is_some()).collect();
        assert_eq!(held, vec![o.0 as usize]);
        // `i` goes back once `b` has pulled it, `a` and `b` once `o` has.
        assert_eq!(recording.released, vec![(i, 0.0), (a, 1.0), (b, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "is a source twice")]
    fn forward_with_refuses_a_source_listed_twice() {
        let (g, [i, ..]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let step = |acc: &mut Option<f64>, x: &f64, e: EdgeId| {
            f64::max_plus_into(acc, x, &g.edge(e).delay);
            Ok::<(), TimingError>(())
        };
        let _ = forward_with(&g, &s, [(i, 0.0), (i, 1.0)], step);
    }

    thread_local! {
        static LIVE: Cell<usize> = const { Cell::new(0) };
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    /// A scalar delay that counts its live instances, and their high
    /// water mark, on the calling thread.
    #[derive(Debug)]
    struct Counted(f64);

    impl Counted {
        fn new(x: f64) -> Self {
            let live = LIVE.with(|live| {
                live.set(live.get() + 1);
                live.get()
            });
            PEAK.with(|peak| peak.set(peak.get().max(live)));
            Counted(x)
        }

        /// Restarts the high water mark at the current live count, and
        /// returns that count.
        fn reset_peak() -> usize {
            let live = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(live));
            live
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.with(|live| live.set(live.get() - 1));
        }
    }

    impl DelayAlgebra for Counted {
        fn sum(&self, other: &Self) -> Self {
            Counted::new(self.0 + other.0)
        }

        fn maximum(&self, other: &Self) -> Self {
            Counted::new(self.0.max(other.0))
        }

        fn nominal(&self) -> f64 {
            self.0
        }
    }

    #[test]
    fn forward_with_holds_a_frontier_and_keeps_outputs_and_sinks() {
        // A 1 000-vertex chain ending in an output, with a second output
        // tapped off the chain (its value is read by its fanout, and
        // kept) and a side sink hanging off its middle.
        let mut g = TimingGraph::new();
        let chain: Vec<VertexId> = std::iter::once(g.add_input())
            .chain((1..1000).map(|_| g.add_vertex()))
            .collect();
        for (k, w) in chain.windows(2).enumerate() {
            g.add_edge(w[0], w[1], Counted::new(1.0 + (k % 7) as f64));
        }
        let (tap, out) = (chain[250], chain[999]);
        g.mark_output(tap);
        g.mark_output(out);
        let sink = g.add_vertex();
        g.add_edge(chain[500], sink, Counted::new(0.5));
        let s = LevelSchedule::build(&g).unwrap();
        let step = |acc: &mut Option<Counted>, x: &Counted, e: EdgeId| {
            Counted::max_plus_into(acc, x, &g.edge(e).delay);
            Ok::<(), TimingError>(())
        };

        let source = Counted::new(0.0);
        let before = Counted::reset_peak();
        let frontier = forward_with(&g, &s, [(chain[0], source)], step).unwrap();
        let held = PEAK.with(Cell::get) - before;
        assert!(held <= 4, "the pass held {held} values at once");
        let kept: Vec<usize> = (0..frontier.len())
            .filter(|&v| frontier[v].is_some())
            .collect();
        assert_eq!(kept, vec![tap.0 as usize, out.0 as usize, sink.0 as usize]);

        let full = forward(&g, &s, &[(chain[0], Counted::new(0.0))]).unwrap();
        assert!(full.iter().all(Option::is_some));
        for v in [tap, out, sink] {
            let at = |values: &[Option<Counted>]| values[v.0 as usize].as_ref().unwrap().0;
            assert_eq!(at(&frontier).to_bits(), at(&full).to_bits());
        }
    }

    #[test]
    fn unreachable_vertices_stay_none() {
        let (g, [_, a, b, o]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let arr = forward(&g, &s, &[(a, 0.0)]).unwrap();
        assert_eq!(arr[b.0 as usize], None);
        assert_eq!(arr[o.0 as usize], Some(3.0));
    }

    #[test]
    fn cycle_is_detected_at_build() {
        let mut g: TimingGraph<f64> = TimingGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert!(matches!(
            LevelSchedule::build(&g),
            Err(TimingError::CyclicGraph)
        ));
    }

    #[test]
    fn stale_schedule_is_rejected() {
        let (mut g, [i, a, ..]) = diamond();
        let s = LevelSchedule::build(&g).unwrap();
        let e = g.out_edges(i).next().unwrap();
        g.remove_edge(e);
        assert_eq!(
            forward(&g, &s, &[(i, 0.0)]),
            Err(TimingError::StaleSchedule)
        );
        assert_eq!(
            backward(&g, &s, &[(a, 0.0)]),
            Err(TimingError::StaleSchedule)
        );
    }

    #[test]
    fn schedule_handles_tombstoned_graphs() {
        let (mut g, [i, a, b, o]) = diamond();
        // Remove the i -> b edge and then b itself once isolated.
        let to_b: Vec<_> = g
            .edges_iter()
            .filter(|(_, e)| e.from == b || e.to == b)
            .map(|(id, _)| id)
            .collect();
        for e in to_b {
            g.remove_edge(e);
        }
        g.remove_vertex(b);
        let s = LevelSchedule::build(&g).unwrap();
        assert_eq!(s.n_scheduled(), 3);
        let arr = forward(&g, &s, &[(i, 0.0)]).unwrap();
        assert_eq!(arr[b.0 as usize], None);
        assert_eq!(arr[a.0 as usize], Some(1.0));
        assert_eq!(arr[o.0 as usize], Some(4.0));
    }

    #[test]
    fn build_counter_increments_on_this_thread() {
        let before = schedule_builds();
        let (g, _) = diamond();
        let _ = LevelSchedule::build(&g).unwrap();
        let _ = LevelSchedule::build(&g).unwrap();
        assert_eq!(schedule_builds(), before + 2);
    }
}
