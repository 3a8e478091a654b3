//! Reference design-level propagation with every edge materialized in
//! the design variable space — the oracle for the analysis that
//! rewrites each edge only when propagation pulls it.
//!
//! It rewrites every instance edge up front (`InstanceReplacement::apply`
//! in the Proposed mode, a block copy at the instance's private offset
//! in the GlobalOnly mode), flattens the design in the analysis' vertex
//! and edge order, and propagates with an unfused pull loop: each vertex
//! folds `prev.maximum(&arrival.sum(delay))` over `in_edges` in
//! edge-index order, level by level over `LevelSchedule::level_range`.

use hier_ssta::core::{
    CanonicalForm, CorrelationMode, Design, DesignVariables, InstanceReplacement, VariableLayout,
};
use hier_ssta::timing::{LevelSchedule, TimingGraph, VertexId};

/// PO arrivals and the design delay of `design`, propagated over a fully
/// materialized design-space graph.
pub fn analyze_materialized(
    design: &Design,
    mode: CorrelationMode,
) -> (Vec<CanonicalForm>, CanonicalForm) {
    let (graph, sources) = materialize(design, mode);
    let schedule = LevelSchedule::build(&graph).expect("levelize");

    let mut arrival: Vec<Option<CanonicalForm>> = vec![None; graph.vertex_bound()];
    for (v, init) in sources {
        let slot = &mut arrival[v.0 as usize];
        *slot = Some(match slot.take() {
            Some(prev) => prev.maximum(&init),
            None => init,
        });
    }
    for l in 0..schedule.n_levels() {
        for &v in schedule.level_range(l) {
            let mut acc = arrival[v as usize].clone();
            for e in graph.in_edges(VertexId(v)) {
                let edge = graph.edge(e);
                if let Some(a) = &arrival[edge.from.0 as usize] {
                    let cand = a.sum(&edge.delay);
                    acc = Some(match acc {
                        Some(prev) => prev.maximum(&cand),
                        None => cand,
                    });
                }
            }
            arrival[v as usize] = acc;
        }
    }

    let po: Vec<CanonicalForm> = graph
        .outputs()
        .iter()
        .map(|v| arrival[v.0 as usize].clone().expect("output reached"))
        .collect();
    let delay = po[1..].iter().fold(po[0].clone(), |acc, a| acc.maximum(a));
    (po, delay)
}

/// The design-space graph and its zero sources.
fn materialize(
    design: &Design,
    mode: CorrelationMode,
) -> (TimingGraph<CanonicalForm>, Vec<(VertexId, CanonicalForm)>) {
    let n_params = design.config().parameters.len();
    let instances = design.instances();
    // `rewrite(instance, form)` maps a module-space form into the design
    // variable space.
    type Rewrite<'a> = Box<dyn Fn(usize, &CanonicalForm) -> CanonicalForm + 'a>;
    let (layout, rewrite): (VariableLayout, Rewrite<'_>) = match mode {
        CorrelationMode::Proposed => {
            let vars = DesignVariables::build(design).expect("design basis");
            let replacements: Vec<InstanceReplacement> = (0..instances.len())
                .map(|idx| {
                    InstanceReplacement::build(&instances[idx].model, &vars, idx)
                        .expect("replacement")
                })
                .collect();
            let layout = vars.layout();
            (
                layout,
                Box::new(move |idx, form| {
                    replacements[idx]
                        .apply(form, instances[idx].model.layout(), layout)
                        .expect("rewrite")
                }),
            )
        }
        CorrelationMode::GlobalOnly => {
            let mut counts = vec![0usize; n_params];
            let mut offsets = Vec::with_capacity(instances.len());
            for inst in instances {
                offsets.push(counts.clone());
                for (p, c) in counts.iter_mut().enumerate() {
                    *c += inst.model.layout().local_range(p).len();
                }
            }
            // Every parameter's block has the same width.
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "unequal parameter blocks {counts:?}"
            );
            let layout = VariableLayout::new(n_params, counts[0]);
            (
                layout,
                Box::new(move |idx, form| {
                    let module_layout = instances[idx].model.layout();
                    let mut locals = vec![0.0; layout.n_locals()];
                    for (p, &off) in offsets[idx].iter().enumerate() {
                        let src = &form.locals()[module_layout.local_range(p)];
                        let base = layout.local_range(p).start + off;
                        locals[base..base + src.len()].copy_from_slice(src);
                    }
                    form.with_locals(locals)
                }),
            )
        }
    };
    let constant = |nominal: f64| CanonicalForm::constant(nominal, n_params, layout.n_locals());

    let mut graph = TimingGraph::new();
    let pi_vertices: Vec<VertexId> = design
        .pi_bindings()
        .iter()
        .map(|_| graph.add_input())
        .collect();
    let mut in_ports = Vec::with_capacity(instances.len());
    let mut out_ports = Vec::with_capacity(instances.len());
    for (idx, inst) in instances.iter().enumerate() {
        let mg = inst.model.graph();
        let mut map: Vec<Option<VertexId>> = vec![None; mg.vertex_bound()];
        for v in mg.vertices() {
            map[v.0 as usize] = Some(graph.add_vertex());
        }
        for (_, e) in mg.edges_iter() {
            let from = map[e.from.0 as usize].expect("live endpoint");
            let to = map[e.to.0 as usize].expect("live endpoint");
            graph.add_edge(from, to, rewrite(idx, &e.delay));
        }
        let port = |v: &VertexId| map[v.0 as usize].expect("port is live");
        in_ports.push(mg.inputs().iter().map(port).collect::<Vec<_>>());
        out_ports.push(mg.outputs().iter().map(port).collect::<Vec<_>>());
    }
    for (pi, targets) in design.pi_bindings().iter().enumerate() {
        for &(inst, port) in targets {
            graph.add_edge(pi_vertices[pi], in_ports[inst][port], constant(0.0));
        }
    }
    for c in design.connections() {
        let wire = if c.wire_delay_ps != 0.0 {
            constant(c.wire_delay_ps)
        } else {
            constant(0.0)
        };
        graph.add_edge(
            out_ports[c.from.0][c.from.1],
            in_ports[c.to.0][c.to.1],
            wire,
        );
    }
    for &(inst, port) in design.po_sources() {
        graph.mark_output(out_ports[inst][port]);
    }
    let sources = graph.inputs().iter().map(|&v| (v, constant(0.0))).collect();
    (graph, sources)
}
