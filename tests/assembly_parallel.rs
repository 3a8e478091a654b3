//! Cross-checks for the fast assembly path introduced with the parallel
//! design-level pipeline:
//!
//! * the Householder + implicit-shift QL eigensolver against the cyclic
//!   Jacobi oracle (`support/jacobi.rs`): property tests on random SPD
//!   matrices, plus fixed exponential-decay covariances;
//! * a bit-identity regression of the parallel design-level analysis
//!   against the serial path on a multi-instance design;
//! * the analysis that rewrites each edge into the design variable space
//!   as propagation pulls it, against the fully materialized oracle
//!   (`support/materialized.rs`), bit for bit, on c880 arrays and on a
//!   mixed-module chain with nonzero wire delays, plus pinned digests of
//!   the c880 array results.

#[path = "support/arrays.rs"]
mod arrays;
#[path = "support/jacobi.rs"]
mod jacobi;
#[path = "support/materialized.rs"]
mod materialized;

use arrays::{c880_array, iscas_model};
use hier_ssta::core::{
    analyze_with, assemble_design_graph, propagate_assembled, AnalyzeOptions, CanonicalForm,
    CorrelationMode, Design, DesignBuilder, ExtractOptions, ModuleContext, SstaConfig, TimingModel,
};
use hier_ssta::math::eigen::{symmetric_eigen, SymmetricEigen};
use hier_ssta::math::Matrix;
use hier_ssta::netlist::{generators, DieRect};
use hier_ssta::timing::LevelSchedule;
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

/// c432 → c499 → c880 → c1355 in a row, each stage feeding the next
/// through wires of 1.5–4.5 ps: different module spaces per instance and
/// top-level edges that carry a delay.
fn mixed_chain() -> Design {
    let models: Vec<Arc<TimingModel>> = ["c432", "c499", "c880", "c1355"]
        .into_iter()
        .map(iscas_model)
        .collect();
    let width: f64 = models.iter().map(|m| m.geometry().extent_um().0).sum();
    let height = models
        .iter()
        .map(|m| m.geometry().extent_um().1)
        .fold(0.0, f64::max);
    let mut b = DesignBuilder::new(
        "mixed-chain",
        DieRect { width, height },
        SstaConfig::paper(),
    );
    let mut x = 0.0;
    let ids: Vec<usize> = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let id = b
                .add_instance(format!("u{i}"), Arc::clone(m), None, (x, 0.0))
                .expect("place");
            x += m.geometry().extent_um().0;
            id
        })
        .collect();
    for (i, w) in ids.windows(2).enumerate() {
        let chained = models[i].n_outputs().min(models[i + 1].n_inputs());
        for k in 0..chained {
            let wire_ps = 1.5 + (k % 4) as f64;
            b.connect(w[0], k, w[1], k, wire_ps).expect("wire");
        }
        for k in chained..models[i + 1].n_inputs() {
            b.expose_input(vec![(w[1], k)]).expect("pi");
        }
    }
    for k in 0..models[0].n_inputs() {
        b.expose_input(vec![(ids[0], k)]).expect("pi");
    }
    let last = models.len() - 1;
    for k in 0..models[last].n_outputs() {
        b.expose_output(ids[last], k).expect("po");
    }
    b.finish().expect("chain design")
}

/// Every coefficient of `f` as little-endian bytes.
fn push_form_bytes(f: &CanonicalForm, out: &mut Vec<u8>) {
    let coefficients = std::iter::once(f.mean())
        .chain(f.globals().iter().copied())
        .chain(f.locals().iter().copied())
        .chain(std::iter::once(f.random()));
    for c in coefficients {
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

/// The bytes of every PO arrival, then the design delay.
fn result_bytes(po_arrivals: &[CanonicalForm], delay: &CanonicalForm) -> Vec<u8> {
    let mut bytes = Vec::new();
    for a in po_arrivals.iter().chain(std::iter::once(delay)) {
        push_form_bytes(a, &mut bytes);
    }
    bytes
}

/// Asserts that both analysis entry points reproduce the materialized
/// oracle bit for bit (`-0.0` and `0.0` differ).
fn assert_matches_oracle(design: &Design, mode: CorrelationMode) {
    let (po, delay) = materialized::analyze_materialized(design, mode);
    let want = result_bytes(&po, &delay);
    for threads in [1, 2] {
        let t = analyze_with(design, mode, &AnalyzeOptions { threads }).expect("analysis");
        assert!(
            result_bytes(&t.po_arrivals, &t.delay) == want,
            "{} {mode:?} at {threads} threads drifted from the materialized oracle",
            design.name()
        );
    }
    let assembled =
        assemble_design_graph(design, mode, &AnalyzeOptions { threads: 1 }).expect("assembly");
    let schedule = LevelSchedule::build(&assembled.graph).expect("levelize");
    let t = propagate_assembled(&assembled, &schedule, 1).expect("propagation");
    assert!(
        result_bytes(&t.po_arrivals, &t.delay) == want,
        "{} {mode:?}: propagate_assembled drifted from the materialized oracle",
        design.name()
    );
}

#[test]
fn rewrite_on_pull_matches_the_materialized_oracle() {
    for n in [4, 16] {
        let design = c880_array(n);
        for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
            assert_matches_oracle(&design, mode);
        }
    }
    let chain = mixed_chain();
    assert!(chain.connections().iter().all(|c| c.wire_delay_ps > 0.0));
    for mode in [CorrelationMode::Proposed, CorrelationMode::GlobalOnly] {
        assert_matches_oracle(&chain, mode);
    }
}

#[test]
fn c880_array_results_match_golden_digests() {
    // SHA-256 over the bits of every PO arrival and the design delay.
    // Any change to replacement, the Clark step or the pull order that
    // moves one result bit changes these.
    let golden = [
        (
            4,
            CorrelationMode::Proposed,
            "ea2e92323f14cc88ade7427146d83bf61c4d052a9165cc76a009b728dd1758d7",
        ),
        (
            4,
            CorrelationMode::GlobalOnly,
            "28a67b44bac1f5b91a87145020dd8430e90605145db647ad9883f50f7815fec2",
        ),
        (
            16,
            CorrelationMode::Proposed,
            "dea4f4c056fbed183d9cd56bbe25c6be0384b75840c2df2089063627cfbd3680",
        ),
        (
            16,
            CorrelationMode::GlobalOnly,
            "0d73dda818827b4d6ae860c773698a309a80aaac5f060c8eeca9178a46d984ef",
        ),
    ];
    let mut drifted = Vec::new();
    for (n, mode, want) in golden {
        let t =
            analyze_with(&c880_array(n), mode, &AnalyzeOptions { threads: 1 }).expect("analysis");
        let got = hier_ssta::math::digest::sha256(&result_bytes(&t.po_arrivals, &t.delay)).to_hex();
        if got != want {
            drifted.push(format!("c880 x{n} {mode:?}: {got}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "digests drifted:\n{}",
        drifted.join("\n")
    );
}
