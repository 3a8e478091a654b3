//! Named scenario sets for batch analysis.
//!
//! A [`ScenarioSet`] is an ordered collection of named
//! [`ScenarioOverlay`]s over an engine's base setup — the input to
//! [`Engine::analyze_batch`](crate::Engine::analyze_batch), which sweeps
//! one [`DesignSpec`](crate::DesignSpec) across every scenario over one
//! shared model store. A set and a [`CornerGrid`](crate::CornerGrid)
//! are two front-ends to the same planner: scenarios that resolve to
//! the same `(SstaConfig, ExtractOptions)` pair fall into one group,
//! which resolves its models and assembles the design once, so the
//! batch never extracts a module twice.

use ssta_core::{CorrelationMode, CorrelationModel, ExtractOptions, ScenarioOverlay, SstaConfig};
use std::collections::BTreeSet;

/// A named scenario: a label plus a delta over the engine's base setup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// Scenario label, used in reports and stats tables.
    pub name: String,
    /// The configuration delta over the engine's base setup.
    pub overlay: ScenarioOverlay,
}

impl Scenario {
    /// A scenario reproducing the base setup exactly (empty overlay).
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            overlay: ScenarioOverlay::default(),
        }
    }

    /// A scenario with an explicit overlay.
    pub fn with_overlay(name: impl Into<String>, overlay: ScenarioOverlay) -> Self {
        Scenario {
            name: name.into(),
            overlay,
        }
    }

    /// Replaces the analysis configuration (extraction-relevant: re-keys
    /// cached models).
    pub fn with_config(mut self, config: SstaConfig) -> Self {
        self.overlay.config = Some(config);
        self
    }

    /// Replaces the extraction options (extraction-relevant: re-keys
    /// cached models).
    pub fn with_extract(mut self, extract: ExtractOptions) -> Self {
        self.overlay.extract = Some(extract);
        self
    }

    /// Overrides the top-level correlation mode (analysis-level: cached
    /// models are shared with the base).
    pub fn with_mode(mut self, mode: CorrelationMode) -> Self {
        self.overlay.mode = Some(mode);
        self
    }

    /// Requests a yield read-out at `target_ps` (analysis-level: cached
    /// models are shared with the base).
    pub fn with_yield_target(mut self, target_ps: f64) -> Self {
        self.overlay.yield_target_ps = Some(target_ps);
        self
    }

    /// Scales every parameter sigma by `scale` (extraction-relevant:
    /// re-keys cached models).
    pub fn with_sigma_scale(mut self, scale: f64) -> Self {
        self.overlay.sigma_scale = Some(scale);
        self
    }

    /// Replaces the spatial-correlation model (extraction-relevant:
    /// re-keys cached models).
    pub fn with_correlation(mut self, correlation: CorrelationModel) -> Self {
        self.overlay.correlation = Some(correlation);
        self
    }
}

/// An ordered set of named scenarios, analyzed as one batch.
///
/// Scenario names key the batch report
/// ([`BatchRun::scenario`](crate::BatchRun::scenario)) and the
/// per-scenario records, so they must be unique. Duplicates are
/// detected at insertion time and rejected when the set reaches an
/// engine ([`Engine::analyze_batch`](crate::Engine::analyze_batch)
/// returns a spec error naming the offender) — construction itself
/// stays infallible so builder chains read cleanly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
    names: BTreeSet<String>,
    duplicate: Option<String>,
}

impl ScenarioSet {
    /// An empty set.
    pub fn new() -> Self {
        ScenarioSet::default()
    }

    /// The single-scenario set equivalent to a plain
    /// [`Engine::analyze`](crate::Engine::analyze) — one scenario named
    /// `base` with an empty overlay.
    pub fn baseline() -> Self {
        ScenarioSet::new().with(Scenario::new("base"))
    }

    /// Appends a scenario (builder style).
    pub fn with(mut self, scenario: Scenario) -> Self {
        self.push(scenario);
        self
    }

    /// Appends a scenario.
    pub fn push(&mut self, scenario: Scenario) {
        if !self.names.insert(scenario.name.clone()) && self.duplicate.is_none() {
            self.duplicate = Some(scenario.name.clone());
        }
        self.scenarios.push(scenario);
    }

    /// The first duplicated scenario name, if any — what the engine
    /// reports when rejecting the set.
    pub fn duplicate_name(&self) -> Option<&str> {
        self.duplicate.as_deref()
    }

    /// The scenarios, in analysis order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Iterates the scenarios in analysis order.
    pub fn iter(&self) -> std::slice::Iter<'_, Scenario> {
        self.scenarios.iter()
    }
}

impl FromIterator<Scenario> for ScenarioSet {
    fn from_iter<I: IntoIterator<Item = Scenario>>(iter: I) -> Self {
        let mut set = ScenarioSet::new();
        for scenario in iter {
            set.push(scenario);
        }
        set
    }
}

impl<'a> IntoIterator for &'a ScenarioSet {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;
    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_composes() {
        let set = ScenarioSet::new()
            .with(Scenario::new("nominal").with_yield_target(1500.0))
            .with(Scenario::new("global-only").with_mode(CorrelationMode::GlobalOnly));
        assert_eq!(set.len(), 2);
        assert_eq!(set.scenarios()[0].name, "nominal");
        assert_eq!(set.scenarios()[0].overlay.yield_target_ps, Some(1500.0));
        assert!(!set.scenarios()[1].overlay.touches_extraction_inputs());
    }

    #[test]
    fn baseline_is_one_empty_overlay() {
        let set = ScenarioSet::baseline();
        assert_eq!(set.len(), 1);
        assert_eq!(set.scenarios()[0].overlay, ScenarioOverlay::default());
        assert!(set.duplicate_name().is_none());
    }

    #[test]
    fn duplicate_names_are_detected_at_insertion() {
        let set = ScenarioSet::new()
            .with(Scenario::new("fast"))
            .with(Scenario::new("slow"))
            .with(Scenario::new("fast").with_yield_target(900.0));
        assert_eq!(set.duplicate_name(), Some("fast"));
        // The first offender sticks even if more duplicates follow.
        let set = set.with(Scenario::new("slow"));
        assert_eq!(set.duplicate_name(), Some("fast"));
        assert_eq!(set.len(), 4);

        let collected: ScenarioSet = ["a", "b", "a"].iter().map(|n| Scenario::new(*n)).collect();
        assert_eq!(collected.duplicate_name(), Some("a"));
    }
}
