use serde::Serialize;
use std::fmt;

/// The Boolean function computed by a gate.
///
/// Arity is a property of the [`CellType`](crate::CellType), not the kind:
/// `Nand` covers NAND2/NAND3/NAND4 and so on. Functions are defined for any
/// arity ≥ 1 (`Not` and `Buf` require exactly one input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GateKind {
    /// Identity.
    Buf,
    /// Inversion.
    Not,
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Negated AND.
    Nand,
    /// Negated OR.
    Nor,
    /// Odd parity (XOR reduction).
    Xor,
    /// Even parity (negated XOR reduction).
    Xnor,
}

impl GateKind {
    /// Evaluates the gate function over its input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or if a `Buf`/`Not` receives more than
    /// one input (an arity violation that [`Netlist`](crate::Netlist)
    /// construction prevents).
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(!inputs.is_empty(), "gate evaluated with no inputs");
        match self {
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "Buf takes exactly one input");
                inputs[0]
            }
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "Not takes exactly one input");
                !inputs[0]
            }
            GateKind::And => inputs.iter().all(|&x| x),
            GateKind::Or => inputs.iter().any(|&x| x),
            GateKind::Nand => !inputs.iter().all(|&x| x),
            GateKind::Nor => !inputs.iter().any(|&x| x),
            GateKind::Xor => inputs.iter().fold(false, |acc, &x| acc ^ x),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &x| acc ^ x),
        }
    }

    /// All gate kinds, in a stable order.
    pub const ALL: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_two_inputs() {
        let cases = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expected) in cases {
            for (i, &want) in expected.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(&[a, b]), want, "{kind}({a},{b})");
            }
        }
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Buf.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Not.eval(&[false]));
    }

    #[test]
    fn three_input_parity() {
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true, false]));
        assert!(!GateKind::Xnor.eval(&[true, false, false]));
    }

    #[test]
    #[should_panic(expected = "no inputs")]
    fn empty_inputs_panic() {
        GateKind::And.eval(&[]);
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn buf_arity_violation_panics() {
        GateKind::Buf.eval(&[true, false]);
    }

    #[test]
    fn display_names() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        assert_eq!(GateKind::Xnor.to_string(), "XNOR");
    }
}
