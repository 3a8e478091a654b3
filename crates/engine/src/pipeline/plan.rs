//! Stage 1 — plan: fingerprint and deduplicate module definitions.
//!
//! The plan walks the spec's *instantiated* definitions (a registered but
//! unused definition must not cost an extraction), keys each one by its
//! overlay-aware module fingerprint, and collapses duplicates. The
//! expensive half of the fingerprint — canonicalizing the netlist — is
//! memoized on the [`ModuleDef`](crate::ModuleDef) itself, so a call
//! with K extraction-signature groups re-keys the same netlist with K
//! cheap digest+config combinations, not K full canonicalizations.

use crate::spec::DesignSpec;
use ssta_core::{module_fingerprint_from_digest, ExtractOptions, SstaConfig};

/// One group's resolved module plan.
#[derive(Debug)]
pub(crate) struct ModulePlan {
    /// Fingerprint key per module slot; `None` for definitions without
    /// instances.
    pub keys: Vec<Option<String>>,
    /// Distinct `(key, module index)` pairs in first-instantiation order.
    pub distinct: Vec<(String, usize)>,
}

/// Plans `spec` under one group's resolved `(config, extract)` pair.
pub(crate) fn plan_modules(
    spec: &DesignSpec,
    config: &SstaConfig,
    extract: &ExtractOptions,
) -> ModulePlan {
    let mut keys: Vec<Option<String>> = vec![None; spec.modules.len()];
    for inst in &spec.instances {
        let idx = inst.module.0;
        if keys[idx].is_none() {
            let def = &spec.modules[idx];
            keys[idx] = Some(
                module_fingerprint_from_digest(def.structural_digest(), config, extract).to_hex(),
            );
        }
    }
    let mut distinct: Vec<(String, usize)> = Vec::new();
    for (idx, key) in keys.iter().enumerate() {
        let Some(key) = key else { continue };
        if !distinct.iter().any(|(k, _)| k == key) {
            distinct.push((key.clone(), idx));
        }
    }
    ModulePlan { keys, distinct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSpec;
    use ssta_netlist::{generators, DieRect};

    #[test]
    fn duplicate_definitions_collapse_and_unused_ones_are_skipped() {
        let die = DieRect {
            width: 60.0,
            height: 40.0,
        };
        let mut b = DesignSpec::builder("plan", die);
        let ma = b.add_module(generators::ripple_carry_adder(4).expect("adder"));
        let mb = b.add_module(
            generators::ripple_carry_adder(4)
                .expect("adder")
                .renamed("alias"),
        );
        let _unused = b.add_module(generators::ripple_carry_adder(7).expect("adder"));
        let u0 = b.add_instance("u0", ma, (0.0, 0.0)).expect("u0");
        let u1 = b.add_instance("u1", mb, (30.0, 0.0)).expect("u1");
        for k in 0..9 {
            b.expose_input(vec![(u0, k)]);
            b.expose_input(vec![(u1, k)]);
        }
        b.expose_output(u0, 4);
        let spec = b.finish().expect("spec");

        let plan = plan_modules(&spec, &SstaConfig::paper(), &ExtractOptions::default());
        assert_eq!(plan.distinct.len(), 1, "content dedupe across definitions");
        assert_eq!(plan.keys[0], plan.keys[1]);
        assert!(plan.keys[2].is_none(), "unused definition is not keyed");
    }
}
