//! Cross-checks for the fast assembly path introduced with the parallel
//! design-level pipeline:
//!
//! * the Householder + implicit-shift QL eigensolver against the cyclic
//!   Jacobi oracle (`support/jacobi.rs`): property tests on random SPD
//!   matrices, plus fixed exponential-decay covariances;
//! * a bit-identity regression of the parallel design-level analysis
//!   against the serial path on a multi-instance design.

#[path = "support/jacobi.rs"]
mod jacobi;

use hier_ssta::core::{
    analyze_with, AnalyzeOptions, CorrelationMode, Design, DesignBuilder, ExtractOptions,
    ModuleContext, SstaConfig,
};
use hier_ssta::math::eigen::{symmetric_eigen, SymmetricEigen};
use hier_ssta::math::Matrix;
use hier_ssta::netlist::{generators, DieRect};
use proptest::prelude::*;
use std::sync::Arc;

/// A random symmetric positive-definite matrix `B·Bᵀ + ε·I` of size `n`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5..1.5f64, n * n).prop_map(move |entries| {
        let b = Matrix::from_vec(n, n, entries).expect("n*n entries");
        let mut spd = b.matmul(&b.transposed()).expect("square product");
        for i in 0..n {
            spd[(i, i)] += 1e-3;
        }
        spd
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ql_solver_matches_jacobi_oracle_on_random_spd(a in spd_matrix(10)) {
        let ql = symmetric_eigen(&a).expect("QL solve");
        let jacobi = jacobi::symmetric_eigen_jacobi(&a).expect("Jacobi solve");
        let scale = (0..a.rows()).map(|i| a[(i, i)].abs()).fold(1.0, f64::max);

        // Sorted spectrum, descending, and agreeing with the oracle.
        for w in ql.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1], "spectrum not sorted: {:?}", ql.eigenvalues);
        }
        for (x, y) in ql.eigenvalues.iter().zip(&jacobi.eigenvalues) {
            prop_assert!((x - y).abs() <= 1e-8 * scale, "eigenvalue drift: {x} vs {y}");
        }

        // Orthonormal eigenvectors.
        let vtv = ql.eigenvectors.transposed().matmul(&ql.eigenvectors).expect("square");
        let ortho_err = vtv.max_abs_diff(&Matrix::identity(a.rows())).expect("same shape");
        prop_assert!(ortho_err < 1e-8, "eigenvectors not orthonormal: {ortho_err}");

        // Reconstruction A = V·Λ·Vᵀ to 1e-9 (relative to the scale).
        let recon_err = reconstruction_error(&ql, &a);
        prop_assert!(recon_err <= 1e-9 * scale.max(1.0), "reconstruction error {recon_err}");
    }
}

/// `max |V·Λ·Vᵀ − A|` over the entries of `a`.
fn reconstruction_error(e: &SymmetricEigen, a: &Matrix) -> f64 {
    let n = a.rows();
    let mut lam = Matrix::zeros(n, n);
    for i in 0..n {
        lam[(i, i)] = e.eigenvalues[i];
    }
    let back = e
        .eigenvectors
        .matmul(&lam)
        .expect("shape")
        .matmul(&e.eigenvectors.transposed())
        .expect("shape");
    back.max_abs_diff(a).expect("same shape")
}

/// Exponential-decay covariances `exp(-|i - j| / length)`, the banded
/// shape of a spatial correlation matrix: the oracle reconstructs each
/// one, and the QL spectrum matches the oracle's to 1e-9 relative.
#[test]
fn ql_solver_matches_jacobi_oracle_on_exp_decay_covariances() {
    for (n, length) in [(12, 4.0), (24, 2.5)] {
        let a = Matrix::from_fn(n, n, |i, j| (-(i as f64 - j as f64).abs() / length).exp());
        let jacobi = jacobi::symmetric_eigen_jacobi(&a).expect("Jacobi solve");
        assert!(reconstruction_error(&jacobi, &a) < 1e-9, "{n}x{n}");
        let ql = symmetric_eigen(&a).expect("QL solve");
        for (x, y) in ql.eigenvalues.iter().zip(&jacobi.eigenvalues) {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1.0),
                "{n}x{n}: {x} vs {y}"
            );
        }
    }
}

/// Six adder instances tiled 3×2 on one die, chained left to right — big
/// enough that partition, covariance, PCA and replacement all do real
/// work, and every parallel fan-out has more items than workers.
fn six_instance_design() -> Design {
    let netlist = generators::ripple_carry_adder(4).expect("generator");
    let config = SstaConfig::paper();
    let ctx = Arc::new(ModuleContext::characterize(netlist, &config).expect("characterize"));
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("extract"),
    );
    let (mw, mh) = model.geometry().extent_um();
    let die = DieRect {
        width: 3.0 * mw,
        height: 2.0 * mh,
    };
    let mut b = DesignBuilder::new("hex", die, config);
    let ids: Vec<usize> = (0..6)
        .map(|i| {
            let (r, c) = (i / 3, i % 3);
            b.add_instance(
                format!("u{i}"),
                Arc::clone(&model),
                None,
                (c as f64 * mw, r as f64 * mh),
            )
            .expect("place")
        })
        .collect();
    // Chain: sum bits (outputs 0..4) of u_i feed the a-inputs of u_{i+1},
    // carry-out (output 4) feeds carry-in (input 8).
    for w in ids.windows(2) {
        for k in 0..4 {
            b.connect(w[0], k, w[1], k, 0.0).expect("wire");
        }
        b.connect(w[0], 4, w[1], 8, 0.0).expect("wire");
    }
    // First instance: all 9 inputs are PIs; the rest expose inputs 4..8.
    for k in 0..9 {
        b.expose_input(vec![(ids[0], k)]).expect("pi");
    }
    for &id in &ids[1..] {
        for k in 4..8 {
            b.expose_input(vec![(id, k)]).expect("pi");
        }
    }
    for k in 0..5 {
        b.expose_output(*ids.last().expect("nonempty"), k)
            .expect("po");
    }
    b.finish().expect("design")
}

#[test]
fn parallel_design_analysis_is_bit_identical_to_serial() {
    let design = six_instance_design();
    for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
        let serial =
            analyze_with(&design, mode, &AnalyzeOptions { threads: 1 }).expect("serial analysis");
        for threads in [2, 3, 8, 0] {
            let parallel = analyze_with(&design, mode, &AnalyzeOptions { threads })
                .expect("parallel analysis");
            assert_eq!(
                parallel.po_arrivals, serial.po_arrivals,
                "{mode:?} with {threads} threads diverged from serial"
            );
            assert_eq!(parallel.delay, serial.delay);
            assert_eq!(parallel.n_local_components, serial.n_local_components);
        }
    }
}

#[test]
fn phase_timings_cover_the_elapsed_time() {
    let design = six_instance_design();
    let t = analyze_with(
        &design,
        CorrelationMode::Proposed,
        &AnalyzeOptions::default(),
    )
    .expect("analysis");
    assert!(t.phases.total_seconds() > 0.0);
    assert!(t.phases.total_seconds() <= t.elapsed_seconds + 1e-9);
    assert!(t.phases.eigen_seconds > 0.0, "eigen phase untimed");
}
