//! Stage 3 — assemble: build the [`Design`] from resolved models. The
//! executor ([`super::sweep`]) then runs the top-level hierarchical
//! analysis (partition, design PCA, variable replacement, propagation)
//! on it once per correlation mode.

use crate::error::EngineError;
use crate::pipeline::SessionCache;
use crate::spec::DesignSpec;
use ssta_core::{Design, DesignBuilder, SstaConfig};

/// Builds the [`Design`] from the session cache (every planned key is
/// resolved by the time this stage runs).
pub(crate) fn assemble(
    spec: &DesignSpec,
    keys: &[Option<String>],
    config: &SstaConfig,
    cache: &SessionCache,
) -> Result<Design, EngineError> {
    let mut b = DesignBuilder::new(spec.name.clone(), spec.die, config.clone());
    for inst in &spec.instances {
        let key = keys[inst.module.0]
            .as_ref()
            .expect("instanced modules were planned");
        let model = cache.get(key).expect("model resolved above");
        b.add_instance(inst.name.clone(), model, None, inst.origin)?;
    }
    for c in &spec.connections {
        b.connect(c.from.0, c.from.1, c.to.0, c.to.1, c.wire_delay_ps)?;
    }
    for targets in &spec.pi_bindings {
        b.expose_input(targets.clone())?;
    }
    for &(inst, port) in &spec.po_sources {
        b.expose_output(inst, port)?;
    }
    Ok(b.finish()?)
}
