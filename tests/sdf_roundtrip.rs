//! SDF interchange contract:
//!
//! * the canonical writer is a fixpoint under parsing — for arbitrary
//!   generated files, write → parse → write is byte-identical
//!   (property-tested);
//! * exporting real extracted models round-trips the same way;
//! * approximate (no-`SSTM`) imports analyze within tolerance of the
//!   exact models in global-only correlation mode;
//! * malformed SDF is rejected with positioned errors;
//! * untrusted text never panics: mutated exported SDF and random short
//!   token strings are rejected by the parser or importer, or import
//!   models whose delay matrices compute.

use hier_ssta::core::{
    analyze_sequential, extract_registered, CorrelationMode, DesignBuilder, ExtractOptions,
    ModuleContext, SequentialAnalyzeOptions, SstaConfig, TimingModel,
};
use hier_ssta::netlist::{generators, DieRect};
use hier_ssta::sdf::{
    export_models, import_sdf_models, parse_sdf, write_sdf, Cell, Delay, Edge, ExportOptions,
    IoPath, Period, RecRem, Sdf, SetupHold, Width,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Generators (built on the vendored proptest subset: ranges, tuples,
// Just, prop_map, collection::vec).
// ---------------------------------------------------------------------

/// `Some` for half the draws.
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0usize..2, s).prop_map(|(k, v)| if k == 1 { Some(v) } else { None })
}

/// A word over `alphabet`, `min..max` characters long.
fn word(alphabet: &'static str, min: usize, max: usize) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    vec(0usize..chars.len(), min..max).prop_map(move |ix| ix.iter().map(|&i| chars[i]).collect())
}

fn port() -> impl Strategy<Value = String> {
    (
        0usize..26,
        word("abcdefghijklmnopqrstuvwxyz0123456789_", 0, 8),
    )
        .prop_map(|(first, rest)| format!("{}{rest}", (b'a' + first as u8) as char))
}

fn quoted() -> impl Strategy<Value = String> {
    // Anything the writer emits between quotes verbatim: no quote
    // characters, but spaces, parens-free punctuation etc. are fine.
    word("abcdefghijklmnopqrstuvwxyzABC0123456789 ._:/-", 0, 13)
}

fn edge() -> impl Strategy<Value = Edge> {
    (0usize..3, port()).prop_map(|(k, p)| match k {
        0 => Edge::Plain(p),
        1 => Edge::Posedge(p),
        _ => Edge::Negedge(p),
    })
}

fn num() -> impl Strategy<Value = f64> {
    (0usize..4, -1e12f64..1e12, -1e-3f64..1e-3).prop_map(|(k, big, small)| match k {
        0 => big,
        1 => small,
        2 => 0.0,
        _ => 1.0 / 3.0,
    })
}

fn delay() -> impl Strategy<Value = Delay> {
    (num(), num(), num()).prop_map(|(min, typ, max)| Delay { min, typ, max })
}

fn iopath() -> impl Strategy<Value = IoPath> {
    (edge(), edge(), delay(), delay()).prop_map(|(from, to, rise, fall)| IoPath {
        from,
        to,
        rise,
        fall,
    })
}

fn setuphold() -> impl Strategy<Value = SetupHold> {
    (edge(), edge(), opt(delay()), opt(delay())).prop_map(|(edge_d, edge_c, setup, hold)| {
        SetupHold {
            edge_d,
            edge_c,
            setup,
            hold,
        }
    })
}

fn recrem() -> impl Strategy<Value = RecRem> {
    (edge(), edge(), opt(delay()), opt(delay())).prop_map(|(edge_r, edge_c, recovery, removal)| {
        RecRem {
            edge_r,
            edge_c,
            recovery,
            removal,
        }
    })
}

fn cell() -> impl Strategy<Value = Cell> {
    (
        (
            quoted(),
            opt(port()),
            vec(iopath(), 0..4),
            vec(setuphold(), 0..3),
        ),
        (
            vec(recrem(), 0..2),
            vec(
                (edge(), delay()).prop_map(|(edge, val)| Period { edge, val }),
                0..2,
            ),
            vec(
                (edge(), delay()).prop_map(|(edge, val)| Width { edge, val }),
                0..2,
            ),
            opt(word("0123456789abcdef", 0, 17)),
        ),
    )
        .prop_map(
            |((celltype, instance, iopath, setuphold), (recrem, period, width, sstm))| Cell {
                celltype,
                instance,
                iopath,
                setuphold,
                recrem,
                period,
                width,
                sstm,
            },
        )
}

fn sdf() -> impl Strategy<Value = Sdf> {
    (
        (
            opt(quoted()),
            opt(quoted()),
            opt(quoted()),
            opt(word("/.", 1, 2)),
        ),
        opt((0usize..2).prop_map(|k| {
            if k == 0 {
                "1ps".to_string()
            } else {
                "10 ps".to_string()
            }
        })),
        vec(cell(), 0..3),
    )
        .prop_map(
            |((sdfversion, design, vendor, divider), timescale, cells)| Sdf {
                sdfversion,
                design,
                date: None,
                vendor,
                program: None,
                version: None,
                divider,
                timescale,
                cells,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_write_is_byte_identical(sdf in sdf()) {
        let text = write_sdf(&sdf);
        let parsed = parse_sdf(&text).expect("canonical output must parse");
        prop_assert_eq!(&parsed, &sdf);
        prop_assert_eq!(write_sdf(&parsed), text);
    }
}

// ---------------------------------------------------------------------
// Real models.
// ---------------------------------------------------------------------

fn registered_models(options: &ExportOptions) -> (SstaConfig, Vec<Arc<TimingModel>>, String) {
    let stages = generators::registered_pipeline(&["rca4", "rca4", "rca4"], "DFF").unwrap();
    let config = SstaConfig::paper();
    let models: Vec<Arc<TimingModel>> = stages
        .iter()
        .map(|stage| {
            let ctx = ModuleContext::characterize(stage.core().clone(), &config).unwrap();
            Arc::new(
                extract_registered(&ctx, stage.register(), &ExtractOptions::default()).unwrap(),
            )
        })
        .collect();
    let text = write_sdf(&export_models(models.iter().map(Arc::as_ref), options).unwrap());
    (config, models, text)
}

#[test]
fn exported_models_round_trip_byte_identically() {
    let (_, _, text) = registered_models(&ExportOptions::default());
    let parsed = parse_sdf(&text).expect("exported SDF parses");
    assert_eq!(write_sdf(&parsed), text);
}

#[test]
fn approximate_import_analyzes_within_tolerance() {
    let opts = ExportOptions {
        embed_sstm: false,
        ..ExportOptions::default()
    };
    let (config, exact, text) = registered_models(&opts);
    let approx: Vec<Arc<TimingModel>> =
        import_sdf_models(&parse_sdf(&text).unwrap(), &config, opts.sigmas)
            .expect("import")
            .into_iter()
            .map(Arc::new)
            .collect();

    // Approximate models carry no PCA basis, so compare in global-only
    // mode, where both sides treat local variation as independent.
    let chain = |models: &[Arc<TimingModel>]| {
        let die = DieRect {
            width: 1000.0,
            height: 1000.0,
        };
        let mut b = DesignBuilder::new("sdf-approx", die, config.clone());
        let mut ids = Vec::new();
        for (k, model) in models.iter().enumerate() {
            ids.push(
                b.add_instance(
                    format!("s{k}"),
                    model.clone(),
                    None,
                    (100.0 * k as f64, 0.0),
                )
                .unwrap(),
            );
        }
        for w in ids.windows(2) {
            for p in 0..models[1].n_inputs() {
                b.connect(w[0], p % models[0].n_outputs(), w[1], p, 0.0)
                    .unwrap();
            }
        }
        for p in 0..models[0].n_inputs() {
            b.expose_input(vec![(ids[0], p)]).unwrap();
        }
        for j in 0..models.last().unwrap().n_outputs() {
            b.expose_output(*ids.last().unwrap(), j).unwrap();
        }
        b.finish().unwrap()
    };
    let options = SequentialAnalyzeOptions {
        mode: CorrelationMode::GlobalOnly,
        ..SequentialAnalyzeOptions::with_period(1500.0)
    };
    let reference = analyze_sequential(&chain(&exact), &options).expect("exact");
    let imported = analyze_sequential(&chain(&approx), &options).expect("approx");

    // The corner projection is deliberately lossy: folding correlated
    // global/local structure into one independent random term makes
    // Clark's max more pessimistic, so the approximate result sits a
    // few percent above the exact one. 15% is the documented envelope;
    // per-arc means and sigmas are reproduced exactly (tested in the
    // sdf crate), so all drift comes from lost correlation.
    let rel = (reference.min_period.mean() - imported.min_period.mean()).abs()
        / reference.min_period.mean();
    assert!(rel < 0.15, "min-period mean drifted {rel:.4}");
    // Per-stage drift is normalized by the design's critical period —
    // the shared timing scale — rather than each stage's own required
    // period, which for a PI-fed first stage is just the tiny setup
    // constraint and would turn a few picoseconds into a huge ratio.
    for (a, b) in reference.stages.iter().zip(&imported.stages) {
        let rel = (a.required_period.mean() - b.required_period.mean()).abs()
            / reference.min_period.mean();
        assert!(rel < 0.15, "stage {}: drifted {rel:.4}", a.instance);
    }
}

// ---------------------------------------------------------------------
// Malformed input.
// ---------------------------------------------------------------------

#[test]
fn malformed_sdf_is_rejected_with_positions() {
    // (text, expected line, expected column, expected message fragment)
    let fixtures: [(&str, usize, usize, &str); 6] = [
        ("(DELAYFILE", 1, 11, "end of input"),
        ("(DELAYFILE\n  (FREQUENCY \"10\")\n)", 2, 4, "FREQUENCY"),
        ("(DELAYFILE (DESIGN \"unterminated))", 1, 20, "unterminated"),
        (
            "(DELAYFILE (DESIGN \"a\") (DESIGN \"b\"))",
            1,
            26,
            "duplicate",
        ),
        (
            "(DELAYFILE (CELL (CELLTYPE \"x\")\n  (DELAY (INCREMENT))))",
            2,
            11,
            "INCREMENT",
        ),
        ("(DELAYFILE) trailing", 1, 13, "unexpected"),
    ];
    for (text, line, col, fragment) in fixtures {
        let err = parse_sdf(text).expect_err(text);
        assert_eq!((err.line, err.col), (line, col), "position for {text:?}");
        assert!(
            err.message.contains(fragment),
            "message {:?} should mention {fragment:?}",
            err.message
        );
        // Display renders the position for operators.
        assert!(err.to_string().contains(&format!("line {line}")));
    }
}

// ---------------------------------------------------------------------
// Untrusted input: mutated and random text.
// ---------------------------------------------------------------------

/// Runs `text` through parse → import → delay matrix. Any stage may
/// reject it; none may panic. Returns whether the text imported.
fn parse_import_analyze(text: &str, config: &SstaConfig) -> bool {
    let Ok(sdf) = parse_sdf(text) else {
        return false;
    };
    let Ok(models) = import_sdf_models(&sdf, config, 3.0) else {
        return false;
    };
    for model in &models {
        let _ = model.delay_matrix();
    }
    true
}

/// Characters that matter to the SDF lexer and the number parser.
const SDF_CHARS: &[u8] = b"()\" \n.-+e0123456789:/*ABSTMCELIOPHx";

#[test]
fn mutated_exported_sdf_is_rejected_or_imports_usable_models() {
    // One exported stage, with and without its embedded SSTM payload,
    // damaged the ways a file gets damaged: overwrite 1–8 bytes with
    // lexer-relevant characters, delete a span, or truncate.
    let (config, models, _) = registered_models(&ExportOptions::default());
    let exported = [true, false].map(|embed_sstm| {
        let options = ExportOptions {
            embed_sstm,
            ..ExportOptions::default()
        };
        write_sdf(&export_models([models[0].as_ref()], &options).unwrap()).into_bytes()
    });
    let mut rng = TestRng::deterministic("mutated_exported_sdf");
    let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut panicked = Vec::new();
    let mut imported = 0;
    for case in 0..300 {
        let mut bytes = exported[case % 2].clone();
        match case / 2 % 3 {
            0 => {
                for _ in 0..1 + draw(8) {
                    let at = draw(bytes.len());
                    bytes[at] = SDF_CHARS[draw(SDF_CHARS.len())];
                }
            }
            1 => {
                let at = draw(bytes.len());
                let end = bytes.len().min(at + 1 + draw(64));
                bytes.drain(at..end);
            }
            _ => bytes.truncate(draw(bytes.len())),
        }
        let text = String::from_utf8(bytes).expect("mutations keep the text ASCII");
        match std::panic::catch_unwind(|| parse_import_analyze(&text, &config)) {
            Ok(true) => imported += 1,
            Ok(false) => {}
            Err(_) => panicked.push(case),
        }
    }
    assert!(
        panicked.is_empty(),
        "mutated SDF texts (cases) panicked in parse/import/analysis: {panicked:?}"
    );
    assert!(
        imported > 0,
        "no mutated text imported; delay_matrix never ran"
    );
}

/// Tokens random SDF-like strings are built from (raw ASCII strings
/// ride along).
const SDF_TOKENS: [&str; 16] = [
    "(",
    ")",
    "\"x\"",
    "DELAYFILE",
    "CELL",
    "CELLTYPE",
    "INSTANCE",
    "DELAY",
    "ABSOLUTE",
    "IOPATH",
    "SETUP",
    "SSTM",
    "(1.0:2.0:3.0)",
    "-7e3",
    "a",
    "*",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_short_sdf_strings_never_panic(
        tokens in vec(0usize..SDF_TOKENS.len(), 0..24),
        ascii in vec(0u8..128, 0..64),
    ) {
        let config = SstaConfig::paper();
        let text: Vec<&str> = tokens.iter().map(|&t| SDF_TOKENS[t]).collect();
        parse_import_analyze(&text.join(" "), &config);
        parse_import_analyze(&String::from_utf8(ascii).expect("ASCII"), &config);
    }
}
