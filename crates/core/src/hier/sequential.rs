//! Design-level sequential timing: arrival propagation through registered
//! module boundaries, stage by stage.
//!
//! A registered design is a hierarchical [`Design`] whose instances carry
//! a [`SequentialModel`](crate::extract::SequentialModel) interface (see
//! [`extract_registered`](crate::extract::extract_registered)). At design
//! level a registered instance is *opaque behind its registers*: data
//! arriving at its input ports is captured by the input register bank —
//! it never races through to the outputs within the same cycle — and its
//! outputs launch fresh from the clock edge. That boundary makes the
//! analysis per-stage. It runs over the graph the combinational analysis
//! assembles ([`AssembledDesign`](crate::hier::AssembledDesign)):
//!
//! * each registered instance contributes one **capture sink** per input
//!   port (arrival there is checked against `T − setup`) and one
//!   **launch source** per output port, seeded with the model's
//!   clock-to-output arc;
//! * combinational instances (no sequential interface) contribute their
//!   model graphs and simply extend the paths between register banks;
//! * all constraint arcs are rewritten into the design variable space by
//!   the same independent-variable replacement the edge delays get, so
//!   setup checks correlate correctly with the paths feeding them.
//!
//! Early (hold) analysis reuses the one propagation pass through the
//! negation trick: over the same graph and schedule, it negates every
//! source seed and each edge delay as it pulls that edge, runs the late
//! (max) propagation and negates the result — a statistical min
//! propagation without a second engine or a second graph.

use crate::canonical::CanonicalForm;
use crate::hier::analysis::{assemble_design_graph, CorrelationMode, PhaseTimings};
use crate::hier::design::Design;
use crate::CoreError;
use ssta_timing::LevelSchedule;
use std::time::Instant;

/// Options for [`analyze_sequential`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialAnalyzeOptions {
    /// Clock period `T` in ps — the budget every register-to-register
    /// stage is checked against.
    pub clock_period_ps: f64,
    /// How inter-module local correlation is handled (same semantics as
    /// the combinational analysis).
    pub mode: CorrelationMode,
}

impl SequentialAnalyzeOptions {
    /// Options for a given clock period with the paper's proposed
    /// correlation mode.
    pub fn with_period(clock_period_ps: f64) -> Self {
        SequentialAnalyzeOptions {
            clock_period_ps,
            mode: CorrelationMode::Proposed,
        }
    }
}

impl Default for SequentialAnalyzeOptions {
    /// A 1 ns clock and the proposed correlation mode.
    fn default() -> Self {
        SequentialAnalyzeOptions::with_period(1000.0)
    }
}

/// Timing of one pipeline stage — the capture checks at one registered
/// instance's input bank.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Instance name of the registered module whose registers capture
    /// this stage's paths.
    pub instance: String,
    /// Number of capture (input) ports checked.
    pub n_capture_ports: usize,
    /// Latest data arrival over all capture ports (statistical max).
    pub capture_arrival: CanonicalForm,
    /// Smallest clock period this stage supports: statistical max over
    /// ports of `arrival + setup`.
    pub required_period: CanonicalForm,
    /// Setup slack at the analyzed period: `T − required_period`.
    pub setup_slack: CanonicalForm,
    /// Hold slack: statistical min over ports of
    /// `early_arrival − hold`; `None` when the model ships no hold arcs.
    /// Stages fed directly by design inputs (arrival 0) legitimately
    /// report negative hold slack — primary-input timing is outside the
    /// model.
    pub hold_slack: Option<CanonicalForm>,
}

/// The result of one design-level sequential analysis.
#[derive(Debug, Clone)]
pub struct SequentialTiming {
    /// The correlation mode that produced this result.
    pub mode: CorrelationMode,
    /// The analyzed clock period (ps).
    pub clock_period_ps: f64,
    /// Per-stage capture statistics, in instance order (registered
    /// instances only).
    pub stages: Vec<StageTiming>,
    /// Smallest clock period the design supports: statistical max over
    /// stages of `required_period`.
    pub min_period: CanonicalForm,
    /// Worst (smallest) setup slack over all stages at the analyzed
    /// period.
    pub worst_setup_slack: CanonicalForm,
    /// Worst (smallest) hold slack over stages that carry hold arcs;
    /// `None` if no stage does.
    pub worst_hold_slack: Option<CanonicalForm>,
    /// Total local components in the design variable space.
    pub n_local_components: usize,
    /// Wall-clock analysis time in seconds.
    pub elapsed_seconds: f64,
    /// Per-phase wall-clock breakdown (propagate covers both the late
    /// and the early pass).
    pub phases: PhaseTimings,
}

/// Analyzes a registered design: propagates arrival times through
/// registered module boundaries stage by stage and reports per-stage
/// slack and required-period statistics.
///
/// At least one instance must carry a sequential interface, every
/// registered instance must share one clock pin (single clock domain),
/// and every registered instance needs a launch arc per output port and
/// at least one setup arc — the shape
/// [`extract_registered`](crate::extract::extract_registered) and the SDF
/// importer both produce.
///
/// # Errors
///
/// Returns [`CoreError::Incompatible`] for interface violations above,
/// and propagates partition/PCA/graph errors.
pub fn analyze_sequential(
    design: &Design,
    options: &SequentialAnalyzeOptions,
) -> Result<SequentialTiming, CoreError> {
    let started = Instant::now();
    check_interfaces(design)?;
    let assembled = assemble_design_graph(design, options.mode)?;
    let n_globals = design.config().parameters.len();
    let n_locals = assembled.n_local_components;
    let mut phases = assembled.phases;

    // Late pass (setup) and early pass (hold, via negation) over one
    // graph and one schedule.
    let propagate_started = Instant::now();
    let schedule = LevelSchedule::build(&assembled.graph)?;
    let late = assembled.arrivals(&schedule, false)?;
    let early_neg = assembled.arrivals(&schedule, true)?;
    phases.propagate_seconds = propagate_started.elapsed().as_secs_f64();

    // Per-stage capture statistics, the constraint arcs rewritten as the
    // instance's edges are.
    let missing = || CoreError::Timing(ssta_timing::TimingError::NoPath);
    let mut stage_timings = Vec::new();
    for (idx, inst) in design.instances().iter().enumerate() {
        let Some(seq) = inst.model.sequential() else {
            continue;
        };
        let captures = assembled.input_ports(idx);
        let mut capture_arrival: Option<CanonicalForm> = None;
        let mut required: Option<CanonicalForm> = None;
        let mut hold_slack: Option<CanonicalForm> = None;
        for (p, &v) in captures.iter().enumerate() {
            let arrival = late.form(v).ok_or_else(missing)?;
            capture_arrival = Some(fold(capture_arrival, &arrival, CanonicalForm::maximum));
            if let Some(setup) = seq.setup_of(p) {
                let setup = assembled.rewrite_arc(idx, setup)?;
                required = Some(fold(required, &arrival.sum(&setup), CanonicalForm::maximum));
            }
            if let Some(hold) = seq.hold_of(p) {
                let hold = assembled.rewrite_arc(idx, hold)?;
                let mut early = early_neg.form(v).ok_or_else(missing)?;
                early.negate();
                hold_slack = Some(fold(
                    hold_slack,
                    &early.sum(&hold.negated()),
                    CanonicalForm::minimum,
                ));
            }
        }
        let required = required.ok_or_else(|| CoreError::Incompatible {
            reason: format!(
                "registered model `{}` carries no setup arcs",
                inst.model.name()
            ),
        })?;
        let period = CanonicalForm::constant(options.clock_period_ps, n_globals, n_locals);
        stage_timings.push(StageTiming {
            instance: inst.name.clone(),
            n_capture_ports: captures.len(),
            capture_arrival: capture_arrival.expect("registered instance has inputs"),
            setup_slack: period.sum(&required.negated()),
            required_period: required,
            hold_slack,
        });
    }

    let min_period = stage_timings
        .iter()
        .skip(1)
        .fold(stage_timings[0].required_period.clone(), |acc, s| {
            acc.maximum(&s.required_period)
        });
    let worst_setup_slack = stage_timings
        .iter()
        .skip(1)
        .fold(stage_timings[0].setup_slack.clone(), |acc, s| {
            acc.minimum(&s.setup_slack)
        });
    let worst_hold_slack = stage_timings
        .iter()
        .filter_map(|s| s.hold_slack.as_ref())
        .fold(None, |acc, h| Some(fold(acc, h, CanonicalForm::minimum)));

    Ok(SequentialTiming {
        mode: options.mode,
        clock_period_ps: options.clock_period_ps,
        stages: stage_timings,
        min_period,
        worst_setup_slack,
        worst_hold_slack,
        n_local_components: n_locals,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        phases,
    })
}

/// Folds `next` into an optional accumulator with `op`.
fn fold(
    acc: Option<CanonicalForm>,
    next: &CanonicalForm,
    op: fn(&CanonicalForm, &CanonicalForm) -> CanonicalForm,
) -> CanonicalForm {
    match acc {
        Some(prev) => op(&prev, next),
        None => next.clone(),
    }
}

/// Structural checks before assembly: at least one registered instance,
/// one shared clock pin.
fn check_interfaces(design: &Design) -> Result<(), CoreError> {
    let mut clock: Option<(&str, &str)> = None;
    for inst in design.instances() {
        if let Some(seq) = inst.model.sequential() {
            match clock {
                None => clock = Some((inst.model.name(), &seq.clock_pin)),
                Some((first, pin)) if pin != seq.clock_pin => {
                    return Err(CoreError::Incompatible {
                        reason: format!(
                            "mixed clock pins: model `{first}` uses `{pin}`, \
                             model `{}` uses `{}` (single clock domain required)",
                            inst.model.name(),
                            seq.clock_pin
                        ),
                    });
                }
                Some(_) => {}
            }
        }
    }
    if clock.is_none() {
        return Err(CoreError::Incompatible {
            reason: "sequential analysis needs at least one registered instance".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_registered, ExtractOptions};
    use crate::hier::design::DesignBuilder;
    use crate::module::ModuleContext;
    use crate::params::SstaConfig;
    use ssta_netlist::{generators, DieRect};
    use std::sync::Arc;

    /// A 3-stage registered pipeline of 4-bit adders.
    fn pipeline_design(options: &ExtractOptions) -> Design {
        let stages = generators::registered_pipeline(&["rca4", "rca4", "rca4"], "DFF").unwrap();
        let config = SstaConfig::paper();
        let mut models = Vec::new();
        for stage in &stages {
            let ctx = Arc::new(ModuleContext::characterize(stage.core().clone(), &config).unwrap());
            let model = Arc::new(extract_registered(&ctx, stage.register(), options).unwrap());
            models.push((ctx, model));
        }
        let (mw, mh) = models[0].1.geometry().extent_um();
        let die = DieRect {
            width: mw * stages.len() as f64 + 100.0,
            height: mh + 100.0,
        };
        let mut b = DesignBuilder::new("pipe3", die, config);
        let mut ids = Vec::new();
        for (k, (ctx, model)) in models.iter().enumerate() {
            let id = b
                .add_instance(
                    format!("s{k}"),
                    model.clone(),
                    Some(ctx.clone()),
                    (mw * k as f64, 0.0),
                )
                .unwrap();
            ids.push(id);
        }
        // Stage k outputs feed stage k+1 register D pins round-robin.
        for w in ids.windows(2) {
            let n_out = models[0].1.n_outputs();
            for p in 0..models[0].1.n_inputs() {
                b.connect(w[0], p % n_out, w[1], p, 0.0).unwrap();
            }
        }
        for p in 0..models[0].1.n_inputs() {
            b.expose_input(vec![(ids[0], p)]).unwrap();
        }
        for j in 0..models[0].1.n_outputs() {
            b.expose_output(*ids.last().unwrap(), j).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn three_stage_pipeline_reports_per_stage_slack() {
        let d = pipeline_design(&ExtractOptions::default());
        let t = analyze_sequential(&d, &SequentialAnalyzeOptions::with_period(1500.0)).unwrap();
        assert_eq!(t.stages.len(), 3);
        // Stage 0 captures straight from design PIs: arrival 0.
        assert!(t.stages[0].capture_arrival.mean().abs() < 1e-9);
        // Stages 1, 2 capture after clk→q + adder core: strictly later.
        for s in &t.stages[1..] {
            assert!(
                s.capture_arrival.mean() > 50.0,
                "{}",
                s.capture_arrival.mean()
            );
            assert!(s.capture_arrival.std_dev() > 0.0);
        }
        // Slack + required period reconstruct the clock period.
        for s in &t.stages {
            assert!(
                (s.setup_slack.mean() + s.required_period.mean() - 1500.0).abs() < 1e-9,
                "slack/required inconsistent"
            );
        }
        // The pipeline meets 1.5 ns comfortably.
        assert!(t.worst_setup_slack.mean() > 0.0);
        assert!(t.min_period.mean() < 1500.0);
        // Register-to-register hold is met (clk→q exceeds hold for DFF);
        // stage 0 is PI-fed so its hold slack is negative by convention.
        assert!(t.stages[1].hold_slack.as_ref().unwrap().mean() > 0.0);
        assert!(t.stages[0].hold_slack.as_ref().unwrap().mean() < 0.0);
    }

    #[test]
    fn min_period_dominates_every_stage() {
        let d = pipeline_design(&ExtractOptions::default());
        let t = analyze_sequential(&d, &SequentialAnalyzeOptions::default()).unwrap();
        for s in &t.stages {
            assert!(t.min_period.mean() >= s.required_period.mean() - 1e-9);
        }
        // 3σ quantile of min period is a sane sign-off number.
        assert!(t.min_period.quantile(0.99865) > t.min_period.mean());
    }

    #[test]
    fn compressed_models_track_exact_models() {
        let exact = analyze_sequential(
            &pipeline_design(&ExtractOptions::paper_exact()),
            &SequentialAnalyzeOptions::default(),
        )
        .unwrap();
        let compressed = analyze_sequential(
            &pipeline_design(&ExtractOptions::default()),
            &SequentialAnalyzeOptions::default(),
        )
        .unwrap();
        for (a, b) in exact.stages.iter().zip(&compressed.stages) {
            let rel = (a.required_period.mean() - b.required_period.mean()).abs()
                / a.required_period.mean();
            assert!(rel < 0.02, "stage {} drifted {rel}", a.instance);
        }
    }

    #[test]
    fn a_missing_launch_arc_is_rejected_by_both_analyses() {
        let stages = generators::registered_pipeline(&["rca4"], "DFF").unwrap();
        let config = SstaConfig::paper();
        let ctx = ModuleContext::characterize(stages[0].core().clone(), &config).unwrap();
        let model = extract_registered(&ctx, stages[0].register(), &ExtractOptions::default());
        let model = model.unwrap();
        let mut seq = model.sequential().unwrap().clone();
        seq.launch.retain(|arc| arc.port != 1);
        let model = Arc::new(model.with_sequential(seq));
        let (mw, mh) = model.geometry().extent_um();
        let die = DieRect {
            width: mw + 100.0,
            height: mh + 100.0,
        };
        let mut b = DesignBuilder::new("no-launch", die, config);
        let u = b
            .add_instance("u0", model.clone(), None, (0.0, 0.0))
            .unwrap();
        for p in 0..model.n_inputs() {
            b.expose_input(vec![(u, p)]).unwrap();
        }
        b.expose_output(u, 0).unwrap();
        let d = b.finish().unwrap();
        let errors = [
            analyze_sequential(&d, &SequentialAnalyzeOptions::default()).unwrap_err(),
            crate::hier::analyze(&d, CorrelationMode::Proposed).unwrap_err(),
        ];
        for err in errors {
            assert!(
                err.to_string().contains("no launch arc for output port 1"),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_purely_combinational_designs() {
        let stages = generators::registered_pipeline(&["rca4"], "DFF").unwrap();
        let config = SstaConfig::paper();
        let ctx = Arc::new(ModuleContext::characterize(stages[0].core().clone(), &config).unwrap());
        let model = Arc::new(crate::extract::extract(&ctx, &ExtractOptions::default()).unwrap());
        let (mw, mh) = model.geometry().extent_um();
        let die = DieRect {
            width: mw + 100.0,
            height: mh + 100.0,
        };
        let mut b = DesignBuilder::new("comb", die, config);
        let u = b
            .add_instance("u0", model.clone(), Some(ctx), (0.0, 0.0))
            .unwrap();
        for p in 0..model.n_inputs() {
            b.expose_input(vec![(u, p)]).unwrap();
        }
        b.expose_output(u, 0).unwrap();
        let d = b.finish().unwrap();
        let err = analyze_sequential(&d, &SequentialAnalyzeOptions::default()).unwrap_err();
        assert!(err.to_string().contains("at least one registered instance"));
    }
}
