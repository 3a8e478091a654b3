//! ISCAS85-calibrated benchmark circuits.
//!
//! Each spec reproduces the published timing-graph size of one ISCAS85
//! circuit exactly as reported in Table I of the DATE'09 paper
//! (`Eo = Σ fan-ins`, `Vo = gates + primary inputs`), with I/O counts from
//! the original benchmark descriptions and logic depths from Hansen et al.
//! (IEEE Design & Test 1999). c6288 is special-cased to a *real* 16×16
//! array multiplier because the Fig. 7 experiment depends on its array
//! structure; its size is within a few percent of the original
//! (`Vo` ≈ 2.4k, `Eo` ≈ 4.8k; the multiplier tests pin the band).

use super::layered::{generate_layered, LayeredSpec};
use super::multiplier::array_multiplier;
use crate::{Netlist, NetlistError};

/// Shape parameters of one calibrated benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iscas85Spec {
    /// Benchmark name (`"c432"` … `"c7552"`).
    pub name: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Gate count.
    pub gates: usize,
    /// Total fan-in pin connections — the paper's `Eo` column.
    pub pin_connections: usize,
    /// Logic depth in gate levels (Hansen et al.).
    pub depth: usize,
    /// `true` when the circuit is built structurally (c6288) rather than
    /// as a calibrated random DAG.
    pub structural: bool,
}

/// All ten benchmarks of the paper's Table I, in paper order.
pub const ISCAS85_SPECS: [Iscas85Spec; 10] = [
    Iscas85Spec {
        name: "c432",
        inputs: 36,
        outputs: 7,
        gates: 160,
        pin_connections: 336,
        depth: 17,
        structural: false,
    },
    Iscas85Spec {
        name: "c499",
        inputs: 41,
        outputs: 32,
        gates: 202,
        pin_connections: 408,
        depth: 11,
        structural: false,
    },
    Iscas85Spec {
        name: "c880",
        inputs: 60,
        outputs: 26,
        gates: 383,
        pin_connections: 729,
        depth: 24,
        structural: false,
    },
    Iscas85Spec {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        gates: 546,
        pin_connections: 1064,
        depth: 24,
        structural: false,
    },
    Iscas85Spec {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        gates: 880,
        pin_connections: 1498,
        depth: 40,
        structural: false,
    },
    Iscas85Spec {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        gates: 1193,
        pin_connections: 2076,
        depth: 32,
        structural: false,
    },
    Iscas85Spec {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        gates: 1669,
        pin_connections: 2939,
        depth: 47,
        structural: false,
    },
    Iscas85Spec {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        gates: 2307,
        pin_connections: 4386,
        depth: 49,
        structural: false,
    },
    Iscas85Spec {
        name: "c6288",
        inputs: 32,
        outputs: 32,
        gates: 2406,
        pin_connections: 4800,
        depth: 124,
        structural: true,
    },
    Iscas85Spec {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        gates: 3512,
        pin_connections: 6144,
        depth: 43,
        structural: false,
    },
];

/// Looks up the spec for a benchmark name.
pub fn spec(name: &str) -> Option<&'static Iscas85Spec> {
    ISCAS85_SPECS.iter().find(|s| s.name == name)
}

/// Generates the calibrated stand-in for one ISCAS85 benchmark.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownCell`]-style config errors for unknown
/// names ([`NetlistError::InvalidGeneratorConfig`]).
///
/// # Example
///
/// ```
/// let c432 = ssta_netlist::generators::iscas85("c432")?;
/// let stats = c432.stats();
/// assert_eq!(stats.gates + stats.inputs, 196); // the paper's Vo
/// assert_eq!(stats.pin_connections, 336);      // the paper's Eo
/// # Ok::<(), ssta_netlist::NetlistError>(())
/// ```
pub fn iscas85(name: &str) -> Result<Netlist, NetlistError> {
    let spec = spec(name).ok_or_else(|| NetlistError::InvalidGeneratorConfig {
        reason: format!("unknown ISCAS85 benchmark `{name}`"),
    })?;
    if spec.structural {
        // c6288: a real 16×16 array multiplier (renamed for consistency).
        let netlist = array_multiplier(16)?;
        return Ok(netlist.renamed(spec.name));
    }
    generate_layered(&LayeredSpec {
        name: spec.name.to_owned(),
        n_inputs: spec.inputs,
        n_outputs: spec.outputs,
        n_gates: spec.gates,
        pin_connections: spec.pin_connections,
        depth: spec.depth,
        // Stable per-benchmark seed: the suffix digits of the name.
        seed: spec.name[1..].parse::<u64>().expect("cNNN name") * 7919,
    })
}

/// Generates all ten benchmarks in paper order.
///
/// # Errors
///
/// Propagates any generator error (none occur for the built-in specs).
pub fn iscas85_all() -> Result<Vec<Netlist>, NetlistError> {
    ISCAS85_SPECS.iter().map(|s| iscas85(s.name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_random_benchmark_matches_table_one_exactly() {
        for spec in ISCAS85_SPECS.iter().filter(|s| !s.structural) {
            let n = iscas85(spec.name).unwrap();
            let stats = n.stats();
            assert_eq!(stats.inputs, spec.inputs, "{} inputs", spec.name);
            assert_eq!(stats.outputs, spec.outputs, "{} outputs", spec.name);
            assert_eq!(stats.gates, spec.gates, "{} gates", spec.name);
            assert_eq!(
                stats.pin_connections, spec.pin_connections,
                "{} Eo",
                spec.name
            );
            n.validate().unwrap();
        }
    }

    #[test]
    fn c6288_is_structural_multiplier() {
        let n = iscas85("c6288").unwrap();
        assert_eq!(n.name(), "c6288");
        assert_eq!(n.n_inputs(), 32);
        assert_eq!(n.n_outputs(), 32);
        assert!(n.logic_depth() > 100);
    }

    #[test]
    fn depths_are_near_published_values() {
        for spec in ISCAS85_SPECS.iter().filter(|s| !s.structural) {
            let n = iscas85(spec.name).unwrap();
            let d = n.logic_depth() as f64;
            let want = spec.depth as f64;
            assert!(
                (d - want).abs() <= want * 0.15 + 1.0,
                "{}: depth {d} vs published {want}",
                spec.name
            );
        }
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        assert!(iscas85("c9999").is_err());
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(spec("c432").unwrap().gates, 160);
        assert!(spec("b17").is_none());
    }

    #[test]
    fn table_one_vo_identity_holds_for_all_specs() {
        // Vo(paper) = gates + inputs for every non-structural circuit:
        // the paper's timing graph has one vertex per gate output and
        // primary input, so matching gate and input counts matches Vo.
        let paper_vo = [
            ("c432", 196),
            ("c499", 243),
            ("c880", 443),
            ("c1355", 587),
            ("c1908", 913),
            ("c2670", 1426),
            ("c3540", 1719),
            ("c5315", 2485),
            ("c7552", 3719),
        ];
        for (name, vo) in paper_vo {
            let s = spec(name).unwrap();
            assert_eq!(s.gates + s.inputs, vo, "{name}");
        }
    }
}
