//! NOR-based array multiplier — the c6288 stand-in.
//!
//! Hansen, Yalcin and Hayes ("Unveiling the ISCAS-85 benchmarks", IEEE
//! Design & Test 1999) reverse-engineered c6288 as a 16×16 array
//! multiplier built from 240 adders arranged in 15 rows, with the adder
//! cells implemented entirely in NOR logic. We rebuild that structure:
//!
//! * partial products from AND2 cells,
//! * full adders from the classic 9-NOR-gate cell,
//! * half adders from a 6-NOR-gate cell,
//! * 15 carry-save rows followed by a ripple carry-propagate row.
//!
//! The long ripple chains give the multiplier the deepest logic of all
//! ISCAS85 circuits (depth > 100), which is exactly the structural property
//! the paper's Fig. 7 experiment leans on. Functional correctness is
//! verified against integer multiplication in the tests.

use crate::library::library_90nm;
use crate::{Netlist, NetlistBuilder, NetlistError, Signal};
use std::sync::Arc;

/// 9-NOR full adder (the c6288 adder cell).
///
/// Derivation: with `g1 = NOR(a,b)`, `g4 = XNOR(a,b)` (4 NORs), the sum is
/// `XNOR(g4, cin)` (4 more NORs) and the carry is `NOR(g1, g5)` where
/// `g5 = NOR(g4, cin)` is already available — 9 NOR2 gates total.
fn full_adder(
    b: &mut NetlistBuilder,
    nor2: &str,
    a: Signal,
    bb: Signal,
    cin: Signal,
) -> Result<(Signal, Signal), NetlistError> {
    let g1 = b.add_gate_by_name(nor2, &[a, bb])?;
    let g2 = b.add_gate_by_name(nor2, &[a, g1])?;
    let g3 = b.add_gate_by_name(nor2, &[bb, g1])?;
    let g4 = b.add_gate_by_name(nor2, &[g2, g3])?; // XNOR(a, b)
    let g5 = b.add_gate_by_name(nor2, &[g4, cin])?;
    let g6 = b.add_gate_by_name(nor2, &[g4, g5])?;
    let g7 = b.add_gate_by_name(nor2, &[cin, g5])?;
    let sum = b.add_gate_by_name(nor2, &[g6, g7])?; // XNOR(XNOR(a,b), cin) = a^b^cin
    let cout = b.add_gate_by_name(nor2, &[g1, g5])?; // majority(a, b, cin)
    Ok((sum, cout))
}

/// 6-NOR half adder.
///
/// `sum = NOR(g1, g4) = XOR(a, b)`, `carry = NOR(g1, sum) = a·b`.
fn half_adder(
    b: &mut NetlistBuilder,
    nor2: &str,
    a: Signal,
    bb: Signal,
) -> Result<(Signal, Signal), NetlistError> {
    let g1 = b.add_gate_by_name(nor2, &[a, bb])?;
    let g2 = b.add_gate_by_name(nor2, &[a, g1])?;
    let g3 = b.add_gate_by_name(nor2, &[bb, g1])?;
    let g4 = b.add_gate_by_name(nor2, &[g2, g3])?; // XNOR(a, b)
    let sum = b.add_gate_by_name(nor2, &[g1, g4])?; // XOR(a, b)
    let carry = b.add_gate_by_name(nor2, &[g1, sum])?; // a AND b
    Ok((sum, carry))
}

/// Generates an `n×n` unsigned array multiplier.
///
/// Inputs (in order): `a[0..n]`, `b[0..n]`; outputs: `p[0..2n]`
/// (little-endian product bits). `array_multiplier(16)` is the c6288
/// stand-in.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidGeneratorConfig`] when `n < 2`.
///
/// # Example
///
/// ```
/// use ssta_netlist::generators::array_multiplier;
/// use ssta_netlist::simulate::{from_bits, simulate, to_bits};
///
/// # fn main() -> Result<(), ssta_netlist::NetlistError> {
/// let mul = array_multiplier(4)?;
/// let mut inputs = to_bits(13, 4);
/// inputs.extend(to_bits(11, 4));
/// let product = from_bits(&simulate(&mul, &inputs));
/// assert_eq!(product, 143);
/// # Ok(())
/// # }
/// ```
pub fn array_multiplier(n: usize) -> Result<Netlist, NetlistError> {
    if n < 2 {
        return Err(NetlistError::InvalidGeneratorConfig {
            reason: "multiplier width must be at least 2".into(),
        });
    }
    let lib = Arc::new(library_90nm());
    let mut b = Netlist::builder(format!("mul{n}x{n}"), lib, 2 * n);
    let nor2 = "NOR2";

    let a_bit = |j: usize| Signal::Input(j as u32);
    let b_bit = |i: usize| Signal::Input((n + i) as u32);

    // Partial products pp[i][j] = a[j] & b[i] (weight i + j).
    let mut pp = vec![vec![Signal::Input(0); n]; n];
    for (i, row) in pp.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = b.add_gate_by_name("AND2", &[a_bit(j), b_bit(i)])?;
        }
    }

    // Carry-save rows. Invariant after processing row i:
    //   value remaining = Σ_j S[j]·2^(i+j) + Σ_j C[j]·2^(i+j+1)
    // with product bits p_0..p_i already emitted (p_i = S[0] of row i).
    let mut product: Vec<Signal> = Vec::with_capacity(2 * n);

    // Row 0: S = pp[0], C = none.
    let mut s: Vec<Signal> = pp[0].clone();
    let mut c: Vec<Option<Signal>> = vec![None; n];
    product.push(s[0]);

    for pp_row in pp.iter().take(n).skip(1) {
        let mut s_next = Vec::with_capacity(n);
        let mut c_next: Vec<Option<Signal>> = Vec::with_capacity(n);
        for j in 0..n {
            let in_pp = pp_row[j];
            let in_s = if j + 1 < n { Some(s[j + 1]) } else { None };
            let in_c = c[j];
            let (sum, carry) = match (in_s, in_c) {
                (Some(x), Some(y)) => {
                    let (sm, cr) = full_adder(&mut b, nor2, in_pp, x, y)?;
                    (sm, Some(cr))
                }
                (Some(x), None) | (None, Some(x)) => {
                    let (sm, cr) = half_adder(&mut b, nor2, in_pp, x)?;
                    (sm, Some(cr))
                }
                (None, None) => (in_pp, None),
            };
            s_next.push(sum);
            c_next.push(carry);
        }
        s = s_next;
        c = c_next;
        product.push(s[0]);
    }

    // Final carry-propagate row over weights n .. 2n-1:
    // column k (weight n+k) receives S[k+1] (k < n-1) and C[k], plus the
    // ripple carry from column k-1.
    let mut ripple: Option<Signal> = None;
    for k in 0..n {
        let x = if k + 1 < n { Some(s[k + 1]) } else { None };
        let y = c[k];
        let mut operands: Vec<Signal> = [x, y, ripple].into_iter().flatten().collect();
        let (sum, carry) = match operands.len() {
            3 => {
                let (sm, cr) = full_adder(&mut b, nor2, operands[0], operands[1], operands[2])?;
                (sm, Some(cr))
            }
            2 => {
                let (sm, cr) = half_adder(&mut b, nor2, operands[0], operands[1])?;
                (sm, Some(cr))
            }
            1 => (operands.pop().expect("one operand"), None),
            _ => {
                // Weight column with no contributions: product bit is 0.
                // Cannot happen for n >= 2 (C[k] always exists for k < n).
                return Err(NetlistError::InvalidGeneratorConfig {
                    reason: format!("empty CPA column {k}"),
                });
            }
        };
        product.push(sum);
        ripple = carry;
    }
    // The carry out of the top column is mathematically zero for an n×n
    // product (max value fits in 2n bits); it is intentionally dropped.
    // The tests verify products exhaustively for small n and by sampling
    // for n = 16, which would catch a miswired top column.

    for p in &product {
        b.add_output(*p)?;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{from_bits, simulate, to_bits};

    fn check_product(n: usize, a: u64, x: u64, mul: &Netlist) {
        let mut inputs = to_bits(a, n);
        inputs.extend(to_bits(x, n));
        let got = from_bits(&simulate(mul, &inputs));
        assert_eq!(got, a * x, "{a} * {x} (n = {n})");
    }

    #[test]
    fn exhaustive_4x4() {
        let mul = array_multiplier(4).unwrap();
        mul.validate().unwrap();
        for a in 0..16u64 {
            for x in 0..16u64 {
                check_product(4, a, x, &mul);
            }
        }
    }

    #[test]
    fn exhaustive_2x2_and_3x3() {
        for n in [2usize, 3] {
            let mul = array_multiplier(n).unwrap();
            for a in 0..(1u64 << n) {
                for x in 0..(1u64 << n) {
                    check_product(n, a, x, &mul);
                }
            }
        }
    }

    #[test]
    fn sampled_16x16_matches_integer_multiplication() {
        use rand::{Rng, SeedableRng};
        let mul = array_multiplier(16).unwrap();
        mul.validate().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc6288);
        for _ in 0..200 {
            let a = rng.gen::<u16>() as u64;
            let x = rng.gen::<u16>() as u64;
            check_product(16, a, x, &mul);
        }
        // Corner cases.
        for (a, x) in [(0, 0), (0, 65535), (65535, 65535), (1, 65535), (32768, 2)] {
            check_product(16, a, x, &mul);
        }
    }

    #[test]
    fn c6288_standin_shape_is_close_to_paper() {
        let mul = array_multiplier(16).unwrap();
        let stats = mul.stats();
        assert_eq!(stats.inputs, 32);
        assert_eq!(stats.outputs, 32);
        // Paper timing graph: Vo = 2448, Eo = 4800. The multiplier is
        // rebuilt from the published description of c6288's structure,
        // not from its netlist, so its counts land within a few percent
        // rather than exactly.
        let vo = stats.gates + stats.inputs;
        assert!(
            (2300..=2600).contains(&vo),
            "vertex count {vo} out of expected band"
        );
        assert!(
            (4500..=5200).contains(&stats.pin_connections),
            "edge count {} out of expected band",
            stats.pin_connections
        );
        // Deep ripple structure: depth in excess of 100 levels.
        assert!(stats.logic_depth > 100, "depth {}", stats.logic_depth);
    }

    #[test]
    fn multiplier_is_mostly_nor_gates() {
        let mul = array_multiplier(8).unwrap();
        let usage = mul.cell_usage();
        let nor = usage.get("NOR2").copied().unwrap_or(0);
        let and = usage.get("AND2").copied().unwrap_or(0);
        assert_eq!(and, 64);
        assert!(nor > 4 * and, "NOR-dominated: nor = {nor}, and = {and}");
    }

    #[test]
    fn rejects_width_below_two() {
        assert!(array_multiplier(0).is_err());
        assert!(array_multiplier(1).is_err());
    }
}
