//! Content fingerprints for module characterization inputs.
//!
//! A timing model is a pure function of four inputs: the netlist
//! structure, the cell library it is mapped to, the [`SstaConfig`] it is
//! characterized under (placement and grids are derived deterministically
//! from these), and the [`ExtractOptions`] driving model extraction. The
//! engine's model library keys cached models by a SHA-256 over exactly
//! those inputs, so two instances of the same module definition share one
//! extraction, while any semantic change — a different netlist, sigma,
//! grid pitch or pruning threshold — produces a different key.
//!
//! The fingerprint is computed in two stages so the expensive part can be
//! cached:
//!
//! 1. [`netlist_digest`] canonicalizes the netlist structure and its cell
//!    library into a [`NetlistDigest`] — the costly step, proportional to
//!    the netlist size, and independent of any configuration;
//! 2. [`module_fingerprint_from_digest`] combines that digest with the
//!    (small) serialized configuration and extraction options.
//!
//! A scenario sweep re-keys the same netlists under many configurations;
//! stage 1 is computed once per netlist and stage 2 once per scenario,
//! so K scenarios never re-canonicalize the same netlist K times.
//!
//! Scheduling knobs that cannot change results (worker-thread counts)
//! are deliberately excluded, so re-running with different parallelism
//! still hits the cache.

use crate::criticality::PREFILTER_SIGMAS;
use crate::extract::{ExtractOptions, MAX_MERGE_ROUNDS, MAX_REPAIR_ROUNDS};
use crate::params::SstaConfig;
use ssta_math::digest::{sha256, Sha256};
use ssta_netlist::Netlist;

/// A content fingerprint of one module's characterization inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModuleFingerprint(Sha256);

impl ModuleFingerprint {
    /// The fingerprint as lowercase hex — filesystem- and key-safe.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }

    /// The underlying digest.
    pub fn digest(&self) -> &Sha256 {
        &self.0
    }
}

impl std::fmt::Display for ModuleFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// A digest of a netlist's canonical structural form (structure + cell
/// library, name excluded) — the configuration-independent half of a
/// [`ModuleFingerprint`].
///
/// Computing it walks and serializes the whole netlist, so callers that
/// fingerprint the same netlist under many configurations (scenario
/// sweeps) should compute it once and reuse it via
/// [`module_fingerprint_from_digest`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetlistDigest(Sha256);

impl NetlistDigest {
    /// The digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }
}

impl std::fmt::Display for NetlistDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Digests a netlist's canonical structural form: the serialized
/// structure (deterministic field order, sorted maps, shortest
/// round-trip floats) plus its cell library.
///
/// The netlist *name* is a label, not structure — the same circuit
/// registered under two names (`alu_east`/`alu_west`) must dedupe to one
/// characterization — so it is excluded from the digest.
pub fn netlist_digest(netlist: &Netlist) -> NetlistDigest {
    let mut payload = String::new();
    payload.push_str("hier-ssta netlist digest v1\n");
    let mut structure = serde::Serialize::to_value(netlist);
    if let serde::Value::Map(entries) = &mut structure {
        entries.retain(|(field, _)| field != "name");
    }
    payload.push_str(&serde_json::to_string(&structure).expect("netlist serializes"));
    payload.push('\n');
    payload.push_str(&serde_json::to_string(&**netlist.library()).expect("library serializes"));
    NetlistDigest(sha256(payload.as_bytes()))
}

/// Serializes the netlist-independent half of the fingerprint payload:
/// the configuration plus the semantic extraction options. Shared by
/// [`module_fingerprint_from_digest`] and [`extraction_signature`] so
/// the two can never disagree about which knobs are
/// extraction-relevant.
fn config_extract_payload(config: &SstaConfig, options: &ExtractOptions) -> String {
    let mut payload = String::new();
    payload.push_str(&serde_json::to_string(config).expect("config serializes"));
    payload.push('\n');
    // Semantic extraction options only: thread knobs are excluded (they
    // cannot change the extracted model). The three fixed bounds stay in
    // the text, since dropping them would move every key.
    payload.push_str(&format!(
        "delta={:?};ensure_connectivity={};accuracy_repair={:?};max_repair_rounds={};\
         prefilter_sigmas={:?};max_merge_rounds={}",
        options.delta,
        options.ensure_connectivity,
        options.accuracy_repair,
        MAX_REPAIR_ROUNDS,
        PREFILTER_SIGMAS,
        MAX_MERGE_ROUNDS,
    ));
    payload
}

/// Combines a precomputed [`NetlistDigest`] with a configuration and
/// extraction options into the full module fingerprint — the cheap half
/// of the two-stage scheme, independent of the netlist size.
pub fn module_fingerprint_from_digest(
    structure: &NetlistDigest,
    config: &SstaConfig,
    options: &ExtractOptions,
) -> ModuleFingerprint {
    let mut payload = String::new();
    // v5: the SSTM payload moved to binary layout 2 (optional sequential
    // interface block after the stats). Re-keying keeps a store shared
    // between build generations from handing layout-2 artifacts to
    // layout-1 readers, at the cost of one repopulating miss; no v5 key
    // can reach a layout-1 artifact, and the reader rejects layout 1.
    // Layout 3 (one PCA basis, no stored variable layout, no wall
    // clock) keeps v5, since a key names the model's inputs and they did
    // not change: a layout-2 artifact under a v5 key is a store reject
    // that re-extracts and overwrites.
    // (v4 re-keyed for the levelized pull engine's reduction-order
    // change; v3 for the Jacobi → Householder/QL eigensolver switch.)
    payload.push_str("hier-ssta module fingerprint v5\n");
    payload.push_str(&structure.to_hex());
    payload.push('\n');
    payload.push_str(&config_extract_payload(config, options));
    ModuleFingerprint(sha256(payload.as_bytes()))
}

/// Digests a `(SstaConfig, ExtractOptions)` pair alone — the
/// netlist-independent extraction signature of a scenario.
///
/// Two scenarios with equal signatures produce equal module
/// fingerprints for *every* module (the netlist digest enters the
/// fingerprint separately), so a sweep planner can group scenarios by
/// this signature before any netlist work runs and schedule exactly one
/// extraction pass per group. Built from the same payload as
/// [`module_fingerprint_from_digest`], so the grouping is exactly as
/// fine as the cache keys themselves — never coarser, never finer.
pub fn extraction_signature(config: &SstaConfig, options: &ExtractOptions) -> String {
    let mut payload = String::new();
    payload.push_str("hier-ssta extraction signature v1\n");
    payload.push_str(&config_extract_payload(config, options));
    sha256(payload.as_bytes()).to_hex()
}

/// Fingerprints a module: netlist structure + library + configuration +
/// extraction options.
///
/// Equivalent to [`netlist_digest`] followed by
/// [`module_fingerprint_from_digest`]; equal inputs always produce equal
/// fingerprints.
pub fn module_fingerprint(
    netlist: &Netlist,
    config: &SstaConfig,
    options: &ExtractOptions,
) -> ModuleFingerprint {
    module_fingerprint_from_digest(&netlist_digest(netlist), config, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_netlist::generators;

    fn adder() -> Netlist {
        generators::ripple_carry_adder(4).unwrap()
    }

    #[test]
    fn equal_inputs_equal_fingerprints() {
        let a = module_fingerprint(&adder(), &SstaConfig::paper(), &ExtractOptions::default());
        let b = module_fingerprint(&adder(), &SstaConfig::paper(), &ExtractOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.to_hex().len(), 64);
    }

    #[test]
    fn staged_and_direct_fingerprints_agree() {
        let n = adder();
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        let digest = netlist_digest(&n);
        assert_eq!(
            module_fingerprint(&n, &cfg, &opts),
            module_fingerprint_from_digest(&digest, &cfg, &opts)
        );
    }

    #[test]
    fn renaming_a_netlist_keeps_the_key() {
        // The name is a label: same structure, different label, one
        // characterization unit.
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        let base = module_fingerprint(&adder(), &cfg, &opts);
        let renamed = adder().renamed("alu_west");
        assert_eq!(netlist_digest(&adder()), netlist_digest(&renamed));
        assert_eq!(base, module_fingerprint(&renamed, &cfg, &opts));
    }

    #[test]
    fn netlist_structure_changes_the_key() {
        let small = generators::ripple_carry_adder(4).unwrap();
        let large = generators::ripple_carry_adder(5).unwrap();
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        assert_ne!(netlist_digest(&small), netlist_digest(&large));
        assert_ne!(
            module_fingerprint(&small, &cfg, &opts),
            module_fingerprint(&large, &cfg, &opts)
        );
    }

    #[test]
    fn config_and_options_change_the_key() {
        let n = adder();
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        let base = module_fingerprint(&n, &cfg, &opts);

        let mut other_cfg = cfg.clone();
        other_cfg.grid_side_cells = 5;
        assert_ne!(base, module_fingerprint(&n, &other_cfg, &opts));

        let other_opts = ExtractOptions {
            delta: 0.01,
            ..ExtractOptions::default()
        };
        assert_ne!(base, module_fingerprint(&n, &cfg, &other_opts));
    }

    #[test]
    fn extraction_signature_tracks_the_fingerprint_inputs() {
        let n = adder();
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        let base_sig = extraction_signature(&cfg, &opts);
        assert_eq!(base_sig, extraction_signature(&cfg, &opts));
        assert_eq!(base_sig.len(), 64);

        // Equal signatures ⇒ equal module fingerprints (the planner's
        // grouping invariant).
        let base_fp = module_fingerprint(&n, &cfg, &opts);
        assert_eq!(base_fp, module_fingerprint(&n, &cfg.clone(), &opts.clone()));

        // Any extraction-relevant change moves the signature…
        let mut other_cfg = cfg.clone();
        other_cfg.parameters[0].sigma_rel *= 1.5;
        assert_ne!(base_sig, extraction_signature(&other_cfg, &opts));
        let other_opts = ExtractOptions {
            delta: 0.01,
            ..ExtractOptions::default()
        };
        assert_ne!(base_sig, extraction_signature(&cfg, &other_opts));

        // …while scheduling knobs do not.
        let mut threaded = opts.clone();
        threaded.criticality.threads = 9;
        assert_eq!(base_sig, extraction_signature(&cfg, &threaded));
    }

    #[test]
    fn scheduling_knobs_do_not_change_the_key() {
        let n = adder();
        let cfg = SstaConfig::paper();
        let mut opts = ExtractOptions::default();
        let base = module_fingerprint(&n, &cfg, &opts);
        opts.criticality.threads = 7;
        assert_eq!(base, module_fingerprint(&n, &cfg, &opts));
    }

    #[test]
    fn keys_under_the_paper_defaults_are_pinned() {
        // A key names a stored artifact: one that moves re-extracts every
        // stored model, so a change here must be a deliberate re-key.
        let cfg = SstaConfig::paper();
        let opts = ExtractOptions::default();
        for (netlist, key) in [
            (
                generators::iscas85("c432").unwrap(),
                "37fe3a707051a638fda04402b3398795302cee2bea4c16e68880533102ca135f",
            ),
            (
                generators::iscas85("c880").unwrap(),
                "ba6a4d4a09b41af7b1eb8246a17072ff482b5c533a852478f4d7c912e6e40ab2",
            ),
            (
                adder(),
                "7dc62dd0d5ef16147f0b5cc6e4c9a975488f21b114339a62ac90b47f0441013c",
            ),
        ] {
            let got = module_fingerprint(&netlist, &cfg, &opts).to_hex();
            assert_eq!(got, key, "{}", netlist.name());
        }
    }
}
