//! The quad-adder engine spec: four instances of one 4-bit adder in a
//! 2×2 arrangement, chained through their carry inputs, everything else
//! driven from design PIs — one module fingerprint per
//! extraction-relevant configuration.
//!
//! Include it with `#[path = "support/quad_adder.rs"] mod quad_adder;`.

use hier_ssta::engine::{DesignSpec, DesignSpecBuilder, ModuleId};
use hier_ssta::netlist::{generators, DieRect};

/// The quad-adder spec with zero carry wires, and its one module.
pub fn quad_adder_spec() -> (DesignSpec, ModuleId) {
    let (b, m) = quad_adder_builder(0.0);
    (b.finish().expect("spec"), m)
}

/// The builder of [`quad_adder_spec`] with `wire_ps` on each carry
/// wire, before `finish`.
pub fn quad_adder_builder(wire_ps: f64) -> (DesignSpecBuilder, ModuleId) {
    let netlist = generators::ripple_carry_adder(4).expect("adder");
    let mut b = DesignSpec::builder(
        "quad-adder",
        DieRect {
            width: 60.0,
            height: 60.0,
        },
    );
    let m = b.add_module(netlist);
    let u0 = b.add_instance("u0", m, (0.0, 0.0)).expect("u0");
    let u1 = b.add_instance("u1", m, (25.0, 0.0)).expect("u1");
    let u2 = b.add_instance("u2", m, (0.0, 25.0)).expect("u2");
    let u3 = b.add_instance("u3", m, (25.0, 25.0)).expect("u3");
    // Carry chain through the quad: sum bit 0 feeds the next carry-in
    // (input port 8 of the 9-input adder).
    b.connect_with_delay(u0, 0, u1, 8, wire_ps);
    b.connect_with_delay(u1, 0, u2, 8, wire_ps);
    b.connect_with_delay(u2, 0, u3, 8, wire_ps);
    for (i, inst) in [u0, u1, u2, u3].into_iter().enumerate() {
        for k in 0..8 {
            b.expose_input(vec![(inst, k)]);
        }
        if i == 0 {
            b.expose_input(vec![(inst, 8)]); // only u0's carry-in is a PI
        }
    }
    for k in 0..5 {
        b.expose_output(u3, k);
    }
    (b, m)
}
