//! ISCAS-85 models extracted once per test binary, and the chained
//! c880 arrays the design-level tests analyze.

use hier_ssta::core::{
    Design, DesignBuilder, ExtractOptions, ModuleContext, SstaConfig, TimingModel,
};
use hier_ssta::netlist::{generators, DieRect};
use std::sync::{Arc, Mutex};

/// An ISCAS-85 module characterized and extracted once per test binary.
pub fn iscas_model(name: &'static str) -> Arc<TimingModel> {
    type Cache = Mutex<Vec<(&'static str, Arc<TimingModel>)>>;
    static MODELS: Cache = Mutex::new(Vec::new());
    let mut models = MODELS.lock().expect("model cache");
    if let Some((_, model)) = models.iter().find(|(n, _)| *n == name) {
        return Arc::clone(model);
    }
    let ctx = ModuleContext::characterize(
        generators::iscas85(name).expect("benchmark"),
        &SstaConfig::paper(),
    )
    .expect("characterize");
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("extract"),
    );
    models.push((name, Arc::clone(&model)));
    model
}

/// `n` c880 instances tiled on a near-square die, each feeding its first
/// `min(outputs, inputs)` ports to the next — the shape of the sweep
/// benchmark's design.
pub fn c880_array(n: usize) -> Design {
    let model = iscas_model("c880");
    let (mw, mh) = model.geometry().extent_um();
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let die = DieRect {
        width: cols as f64 * mw,
        height: rows as f64 * mh,
    };
    let mut b = DesignBuilder::new(format!("c880-array-{n}"), die, SstaConfig::paper());
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            let origin = ((i % cols) as f64 * mw, (i / cols) as f64 * mh);
            b.add_instance(format!("u{i}"), Arc::clone(&model), None, origin)
                .expect("place")
        })
        .collect();
    let chained = model.n_outputs().min(model.n_inputs());
    for w in ids.windows(2) {
        for k in 0..chained {
            b.connect(w[0], k, w[1], k, 0.0).expect("wire");
        }
    }
    for k in 0..model.n_inputs() {
        b.expose_input(vec![(ids[0], k)]).expect("pi");
    }
    for &id in &ids[1..] {
        for k in chained..model.n_inputs() {
            b.expose_input(vec![(id, k)]).expect("pi");
        }
    }
    for k in 0..model.n_outputs() {
        b.expose_output(ids[n - 1], k).expect("po");
    }
    b.finish().expect("array design")
}
