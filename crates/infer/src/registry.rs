//! Name-indexed registry of frozen model artifacts.
//!
//! Every trained model in the workspace freezes to a schema-versioned
//! JSON artifact committed next to its crate. The registry is the one
//! place that maps an artifact *name* (`gbt-v1`, `centroid-v1`, …) to its
//! embedded JSON and expected schema tag, replacing the ad-hoc
//! `include_str!` scattered through consumers: lookups fail loudly on
//! unknown names (listing what exists) and on artifacts whose embedded
//! schema tag disagrees with the registration — the two error paths a
//! stale or mis-registered artifact can take.
//!
//! Crates outside `vcabench-infer` register their own artifacts on top
//! of [`ModelRegistry::builtin`] (the fingerprint crate adds its
//! centroid model this way), so one registry instance can resolve the
//! whole model surface of a binary.

use vcabench_telemetry::artifact;

use crate::gbt::{GbtModel, GBT_MODEL_SCHEMA};

/// One registered artifact: a stable name, the schema tag its JSON must
/// carry, and the embedded artifact text.
#[derive(Debug, Clone, Copy)]
pub struct ModelEntry {
    /// Registry name (conventionally `<model>-v<version>`, matching the
    /// committed file stem).
    pub name: &'static str,
    /// Schema tag the artifact's `schema` field must equal.
    pub schema: &'static str,
    /// The artifact JSON, compiled in via `include_str!`.
    pub json: &'static str,
}

/// Registry of frozen model artifacts, resolved by name.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// The artifact committed in this crate: `gbt-v1`.
    pub fn builtin() -> ModelRegistry {
        ModelRegistry {
            entries: vec![ModelEntry {
                name: "gbt-v1",
                schema: GBT_MODEL_SCHEMA,
                json: include_str!("../models/gbt-v1.json"),
            }],
        }
    }

    /// Add an artifact (e.g. another crate's committed model). Replaces
    /// any existing entry with the same name.
    pub fn register(&mut self, entry: ModelEntry) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
    }

    /// Registered artifact names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    fn entry(&self, name: &str) -> Result<&ModelEntry, String> {
        self.entries.iter().find(|e| e.name == name).ok_or_else(|| {
            format!(
                "model registry: unknown artifact `{name}` (registered: {})",
                self.names().join(", ")
            )
        })
    }

    /// The raw JSON of an artifact, after checking that the schema tag it
    /// carries is the registered one. Only the tag is read here — the
    /// typed loader the text goes to next is what parses it.
    pub fn raw_json(&self, name: &str) -> Result<&'static str, String> {
        let entry = self.entry(name)?;
        let tag = artifact::schema_of(entry.json)
            .map_err(|e| format!("model registry: artifact `{name}`: {e}"))?;
        if tag != entry.schema {
            return Err(format!(
                "model registry: artifact `{name}` carries schema `{tag}`, \
                 registered as `{}`",
                entry.schema
            ));
        }
        Ok(entry.json)
    }

    /// Load an artifact as a [`GbtModel`].
    pub fn gbt(&self, name: &str) -> Result<GbtModel, String> {
        GbtModel::from_json(self.raw_json(name)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_entries_resolve_to_typed_models() {
        let reg = ModelRegistry::builtin();
        assert_eq!(reg.names(), vec!["gbt-v1"]);
        reg.gbt("gbt-v1").expect("gbt artifact");
    }

    #[test]
    fn unknown_names_list_what_exists() {
        let reg = ModelRegistry::builtin();
        let err = reg.raw_json("resnet-v1").unwrap_err();
        assert!(err.contains("unknown artifact `resnet-v1`"), "{err}");
        assert!(err.contains("gbt-v1"), "error lists registered: {err}");
    }

    #[test]
    fn version_mismatch_is_rejected_at_lookup() {
        let mut reg = ModelRegistry::builtin();
        // Register the GBT artifact under a schema tag it does not
        // carry: the version-mismatch path.
        reg.register(ModelEntry {
            name: "stale-v2",
            schema: "vcabench-infer-gbt/v2",
            json: include_str!("../models/gbt-v1.json"),
        });
        let err = reg.raw_json("stale-v2").unwrap_err();
        assert!(err.contains("carries schema"), "{err}");
        assert!(err.contains("vcabench-infer-gbt/v1"), "{err}");
    }

    #[test]
    fn cross_type_loads_fail_with_schema_errors() {
        let mut reg = ModelRegistry::builtin();
        // An artifact of another type, registered under its own tag:
        // asking for it as a GBT fails in the typed loader's own schema
        // check.
        reg.register(ModelEntry {
            name: "centroid-v1",
            schema: "vcabench-fingerprint-centroid/v1",
            json: r#"{"schema": "vcabench-fingerprint-centroid/v1"}"#,
        });
        reg.raw_json("centroid-v1")
            .expect("the tag matches its entry");
        assert!(reg.gbt("centroid-v1").unwrap_err().contains("schema"));
    }

    #[test]
    fn register_replaces_same_name() {
        let mut reg = ModelRegistry::builtin();
        let n = reg.names().len();
        reg.register(ModelEntry {
            name: "gbt-v1",
            schema: GBT_MODEL_SCHEMA,
            json: include_str!("../models/gbt-v1.json"),
        });
        assert_eq!(reg.names().len(), n);
    }
}
