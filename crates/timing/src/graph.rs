use crate::{DelayAlgebra, TimingError};
use serde::Serialize;
use ssta_netlist::{CellType, Netlist, Signal};

/// Identifier of a vertex in a [`TimingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct VertexId(pub u32);

/// Identifier of an edge in a [`TimingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EdgeId(pub u32);

/// What a vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VertexKind {
    /// Primary input `n` of the module.
    Input(u32),
    /// An internal vertex (gate output or synthetic model vertex).
    Internal,
}

/// A directed delay edge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Edge<D> {
    /// Source vertex.
    pub from: VertexId,
    /// Sink vertex.
    pub to: VertexId,
    /// Edge delay.
    pub delay: D,
    alive: bool,
}

/// Context handed to the delay-annotation callback when importing a
/// netlist: identifies the arc (gate, input pin) an edge corresponds to.
#[derive(Debug, Clone, Copy)]
pub struct ArcContext<'a> {
    /// The netlist being imported.
    pub netlist: &'a Netlist,
    /// Gate index within the netlist.
    pub gate: usize,
    /// Input pin index of the arc.
    pub pin: usize,
}

impl ArcContext<'_> {
    /// The library cell of the gate.
    pub fn cell(&self) -> &CellType {
        let g = self.netlist.gate(self.gate);
        self.netlist.library().cell(g.cell)
    }

    /// Nominal arc delay in picoseconds.
    pub fn nominal_ps(&self) -> f64 {
        self.cell().arc_delay_ps(self.pin)
    }
}

/// A multi-edge weighted DAG with designated primary inputs and outputs.
///
/// Edge removal is tombstone-based (model extraction deletes and rewrites
/// edges heavily); [`compact`](TimingGraph::compact) rebuilds a dense
/// graph. Vertices are never re-indexed except by `compact`.
///
/// Removed slots are extraction's working state only. A graph built by
/// the four constructors ([`add_input`](Self::add_input),
/// [`add_vertex`](Self::add_vertex), [`add_edge`](Self::add_edge),
/// [`mark_output`](Self::mark_output)) and never edited is compact:
/// every vertex and edge slot is live. `compact` returns such a graph
/// with its inputs first, which is the shape a timing model's graph
/// must have.
#[derive(Debug, Clone, Serialize)]
pub struct TimingGraph<D> {
    kinds: Vec<VertexKind>,
    vertex_alive: Vec<bool>,
    edges: Vec<Edge<D>>,
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
    n_dead_edges: usize,
}

impl<D: DelayAlgebra> TimingGraph<D> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TimingGraph {
            kinds: Vec::new(),
            vertex_alive: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            n_dead_edges: 0,
        }
    }

    fn push_vertex(&mut self, kind: VertexKind) -> VertexId {
        let id = VertexId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.vertex_alive.push(true);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a primary-input vertex (appended to the input list).
    pub fn add_input(&mut self) -> VertexId {
        let idx = self.inputs.len() as u32;
        let id = self.push_vertex(VertexKind::Input(idx));
        self.inputs.push(id);
        id
    }

    /// Adds an internal vertex.
    pub fn add_vertex(&mut self) -> VertexId {
        self.push_vertex(VertexKind::Internal)
    }

    /// Marks a vertex as a primary output (appended to the output list).
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn mark_output(&mut self, v: VertexId) {
        assert!((v.0 as usize) < self.kinds.len(), "vertex out of range");
        self.outputs.push(v);
    }

    /// Adds an edge and returns its id. Parallel edges are allowed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or is dead.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, delay: D) -> EdgeId {
        assert!(self.is_alive(from), "source vertex dead or missing");
        assert!(self.is_alive(to), "sink vertex dead or missing");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from,
            to,
            delay,
            alive: true,
        });
        self.out_adj[from.0 as usize].push(id.0);
        self.in_adj[to.0 as usize].push(id.0);
        id
    }

    /// Removes an edge (tombstone). No-op when already removed.
    ///
    /// # Panics
    ///
    /// Panics if the edge id does not exist.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let edge = &mut self.edges[e.0 as usize];
        if !edge.alive {
            return;
        }
        edge.alive = false;
        self.n_dead_edges += 1;
        let (from, to) = (edge.from, edge.to);
        self.out_adj[from.0 as usize].retain(|&x| x != e.0);
        self.in_adj[to.0 as usize].retain(|&x| x != e.0);
    }

    /// Removes an isolated internal vertex.
    ///
    /// # Panics
    ///
    /// Panics if the vertex still has live edges, or is an input/output.
    pub fn remove_vertex(&mut self, v: VertexId) {
        let vi = v.0 as usize;
        assert!(self.vertex_alive[vi], "vertex already removed");
        assert!(
            self.out_adj[vi].is_empty() && self.in_adj[vi].is_empty(),
            "vertex {v:?} still has live edges"
        );
        assert!(
            !self.inputs.contains(&v) && !self.outputs.contains(&v),
            "cannot remove an input/output vertex"
        );
        self.vertex_alive[vi] = false;
    }

    /// `true` when the vertex exists and is alive.
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.vertex_alive
            .get(v.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not exist or the edge was removed.
    pub fn edge(&self, e: EdgeId) -> &Edge<D> {
        let edge = &self.edges[e.0 as usize];
        assert!(edge.alive, "edge {e:?} was removed");
        edge
    }

    /// Replaces the delay of a live edge.
    ///
    /// # Panics
    ///
    /// Panics if the id does not exist or the edge was removed.
    pub fn set_delay(&mut self, e: EdgeId, delay: D) {
        let edge = &mut self.edges[e.0 as usize];
        assert!(edge.alive, "edge {e:?} was removed");
        edge.delay = delay;
    }

    /// Live out-edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_adj[v.0 as usize].iter().map(|&i| EdgeId(i))
    }

    /// Live in-edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_adj[v.0 as usize].iter().map(|&i| EdgeId(i))
    }

    /// Number of live out-edges.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_adj[v.0 as usize].len()
    }

    /// Number of live in-edges.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_adj[v.0 as usize].len()
    }

    /// Total vertex slots (including dead ones) — valid index bound.
    pub fn vertex_bound(&self) -> usize {
        self.kinds.len()
    }

    /// Total edge slots (including removed ones) — valid index bound.
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over live vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| VertexId(i as u32))
    }

    /// Number of live vertices.
    pub fn n_vertices(&self) -> usize {
        self.vertex_alive.iter().filter(|&&a| a).count()
    }

    /// Number of live edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len() - self.n_dead_edges
    }

    /// Iterator over live edges.
    pub fn edges_iter(&self) -> impl Iterator<Item = (EdgeId, &Edge<D>)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// The primary-input vertices, in port order.
    pub fn inputs(&self) -> &[VertexId] {
        &self.inputs
    }

    /// The primary-output vertices, in port order (duplicates possible when
    /// one vertex drives several output ports).
    pub fn outputs(&self) -> &[VertexId] {
        &self.outputs
    }

    /// The kind of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub fn kind(&self, v: VertexId) -> VertexKind {
        self.kinds[v.0 as usize]
    }

    /// `true` when `v` is a designated output vertex.
    pub fn is_output(&self, v: VertexId) -> bool {
        self.outputs.contains(&v)
    }

    /// Topological order over live vertices (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::CyclicGraph`] if a cycle exists.
    pub fn topo_order(&self) -> Result<Vec<VertexId>, TimingError> {
        let n = self.kinds.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.in_adj[i].len()).collect();
        let mut queue: Vec<VertexId> = self
            .vertices()
            .filter(|&v| indeg[v.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.n_vertices());
        while let Some(v) = queue.pop() {
            order.push(v);
            for e in self.out_edges(v) {
                let w = self.edges[e.0 as usize].to;
                indeg[w.0 as usize] -= 1;
                if indeg[w.0 as usize] == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() != self.n_vertices() {
            return Err(TimingError::CyclicGraph);
        }
        Ok(order)
    }

    /// Vertices reachable from any input via live edges.
    pub fn reachable_from_inputs(&self) -> Vec<bool> {
        self.bfs(&self.inputs, |g, v| {
            g.out_adj[v.0 as usize]
                .iter()
                .map(|&e| g.edges[e as usize].to)
                .collect()
        })
    }

    /// Vertices from which some output is reachable via live edges.
    pub fn reaches_outputs(&self) -> Vec<bool> {
        self.bfs(&self.outputs, |g, v| {
            g.in_adj[v.0 as usize]
                .iter()
                .map(|&e| g.edges[e as usize].from)
                .collect()
        })
    }

    fn bfs(
        &self,
        roots: &[VertexId],
        neighbors: impl Fn(&Self, VertexId) -> Vec<VertexId>,
    ) -> Vec<bool> {
        let mut seen = vec![false; self.kinds.len()];
        let mut stack: Vec<VertexId> = Vec::new();
        for &r in roots {
            if self.is_alive(r) && !seen[r.0 as usize] {
                seen[r.0 as usize] = true;
                stack.push(r);
            }
        }
        while let Some(v) = stack.pop() {
            for w in neighbors(self, v) {
                if !seen[w.0 as usize] {
                    seen[w.0 as usize] = true;
                    stack.push(w);
                }
            }
        }
        seen
    }

    /// Rebuilds a dense graph without dead vertices/edges. Input and output
    /// port orders are preserved. Returns the new graph and the old→new
    /// vertex mapping (dead vertices map to `None`).
    pub fn compact(&self) -> (TimingGraph<D>, Vec<Option<VertexId>>) {
        let mut g = TimingGraph::new();
        let mut map: Vec<Option<VertexId>> = vec![None; self.kinds.len()];
        // Inputs first, preserving port order.
        for &v in &self.inputs {
            if self.is_alive(v) {
                map[v.0 as usize] = Some(g.add_input());
            }
        }
        for v in self.vertices() {
            if map[v.0 as usize].is_none() {
                map[v.0 as usize] = Some(g.add_vertex());
            }
        }
        for (_, e) in self.edges_iter() {
            let from = map[e.from.0 as usize].expect("live edge endpoints are live");
            let to = map[e.to.0 as usize].expect("live edge endpoints are live");
            g.add_edge(from, to, e.delay.clone());
        }
        for &v in &self.outputs {
            let nv = map[v.0 as usize].expect("outputs stay alive");
            g.mark_output(nv);
        }
        (g, map)
    }

    /// Imports a netlist: one vertex per primary input and per gate, one
    /// edge per gate input pin (from the pin's driver to the gate), with
    /// delays produced by `annotate`.
    ///
    /// Vertex ids are deterministic: input `i` is `VertexId(i)`, gate `g`
    /// is `VertexId(n_inputs + g)`.
    pub fn from_netlist(
        netlist: &Netlist,
        mut annotate: impl FnMut(&ArcContext<'_>) -> D,
    ) -> TimingGraph<D> {
        let mut g = TimingGraph::new();
        for _ in 0..netlist.n_inputs() {
            g.add_input();
        }
        let gate_vertex = |gi: usize| VertexId((netlist.n_inputs() + gi) as u32);
        for _ in 0..netlist.n_gates() {
            g.add_vertex();
        }
        for (gi, gate) in netlist.gates().iter().enumerate() {
            for (pin, &src) in gate.inputs.iter().enumerate() {
                let from = match src {
                    Signal::Input(i) => VertexId(i),
                    Signal::Gate(sg) => gate_vertex(sg as usize),
                };
                let ctx = ArcContext {
                    netlist,
                    gate: gi,
                    pin,
                };
                g.add_edge(from, gate_vertex(gi), annotate(&ctx));
            }
        }
        for &po in netlist.outputs() {
            let v = match po {
                Signal::Input(i) => VertexId(i),
                Signal::Gate(sg) => gate_vertex(sg as usize),
            };
            g.mark_output(v);
        }
        g
    }
}

impl<D: DelayAlgebra> Default for TimingGraph<D> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_netlist::generators;

    fn diamond() -> (TimingGraph<f64>, VertexId, VertexId) {
        // in -> a -> out, in -> b -> out, plus a parallel edge a -> out.
        let mut g = TimingGraph::new();
        let i = g.add_input();
        let a = g.add_vertex();
        let b = g.add_vertex();
        let o = g.add_vertex();
        g.mark_output(o);
        g.add_edge(i, a, 1.0);
        g.add_edge(i, b, 2.0);
        g.add_edge(a, o, 3.0);
        g.add_edge(a, o, 5.0);
        g.add_edge(b, o, 1.0);
        (g, a, o)
    }

    #[test]
    fn counts_and_degrees() {
        let (g, a, o) = diamond();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(o), 3);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, a, o) = diamond();
        let parallel: Vec<EdgeId> = g.out_edges(a).filter(|&e| g.edge(e).to == o).collect();
        g.remove_edge(parallel[0]);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(o), 2);
        // Double removal is a no-op.
        g.remove_edge(parallel[0]);
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn remove_vertex_requires_isolation() {
        let (mut g, a, _) = diamond();
        let edges: Vec<EdgeId> = g
            .edges_iter()
            .filter(|(_, e)| e.from == a || e.to == a)
            .map(|(id, _)| id)
            .collect();
        for e in edges {
            g.remove_edge(e);
        }
        g.remove_vertex(a);
        assert_eq!(g.n_vertices(), 3);
        assert!(!g.is_alive(a));
    }

    #[test]
    #[should_panic(expected = "still has live edges")]
    fn remove_connected_vertex_panics() {
        let (mut g, a, _) = diamond();
        g.remove_vertex(a);
    }

    #[test]
    fn topo_order_is_valid() {
        let (g, _, _) = diamond();
        let order = g.topo_order().unwrap();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for (_, e) in g.edges_iter() {
            assert!(pos[&e.from] < pos[&e.to]);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g: TimingGraph<f64> = TimingGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert_eq!(g.topo_order(), Err(TimingError::CyclicGraph));
    }

    #[test]
    fn reachability_both_directions() {
        let (mut g, a, o) = diamond();
        let reach = g.reachable_from_inputs();
        assert!(reach.iter().all(|&r| r));
        // Cut vertex b off: in->b edge removed.
        let to_b: Vec<EdgeId> = g
            .edges_iter()
            .filter(|(_, e)| e.to == VertexId(2))
            .map(|(id, _)| id)
            .collect();
        for e in to_b {
            g.remove_edge(e);
        }
        let reach = g.reachable_from_inputs();
        assert!(!reach[2]);
        let back = g.reaches_outputs();
        assert!(back[a.0 as usize] && back[o.0 as usize]);
    }

    #[test]
    fn compact_preserves_ports_and_edges() {
        let (mut g, a, o) = diamond();
        // Remove b entirely.
        let b = VertexId(2);
        let b_edges: Vec<EdgeId> = g
            .edges_iter()
            .filter(|(_, e)| e.from == b || e.to == b)
            .map(|(id, _)| id)
            .collect();
        for e in b_edges {
            g.remove_edge(e);
        }
        g.remove_vertex(b);
        let (c, map) = g.compact();
        assert_eq!(c.n_vertices(), 3);
        assert_eq!(c.n_edges(), 3);
        assert_eq!(c.inputs().len(), 1);
        assert_eq!(c.outputs().len(), 1);
        assert!(map[b.0 as usize].is_none());
        assert!(map[a.0 as usize].is_some());
        assert_eq!(map[o.0 as usize], Some(c.outputs()[0]));
    }

    #[test]
    fn from_netlist_shape_matches_stats() {
        let n = generators::ripple_carry_adder(4).unwrap();
        let g = TimingGraph::from_netlist(&n, |ctx| ctx.nominal_ps());
        let stats = n.stats();
        assert_eq!(g.n_vertices(), stats.inputs + stats.gates);
        assert_eq!(g.n_edges(), stats.pin_connections);
        assert_eq!(g.inputs().len(), stats.inputs);
        assert_eq!(g.outputs().len(), stats.outputs);
        g.topo_order().unwrap();
    }

    #[test]
    fn from_netlist_annotation_receives_correct_arcs() {
        let n = generators::ripple_carry_adder(2).unwrap();
        let mut arcs = Vec::new();
        let _ = TimingGraph::from_netlist(&n, |ctx| {
            arcs.push((ctx.gate, ctx.pin));
            ctx.nominal_ps()
        });
        assert_eq!(arcs.len(), n.pin_connection_count());
        // Every arc is unique.
        let set: std::collections::HashSet<_> = arcs.iter().collect();
        assert_eq!(set.len(), arcs.len());
    }
}
