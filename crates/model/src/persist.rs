//! Model persistence: serialize a trained Trans-DAS to JSON and restore it.
//!
//! The paper's deployment retrains periodically (§5.2) — which implies the
//! serving system loads a previously trained model while a new one trains.
//! Parameter registration order is deterministic given a configuration, so
//! persistence stores the configuration plus the flat parameter values and
//! reconstruction rebuilds the architecture and overwrites the weights.

use crate::config::TransDasConfig;
use crate::model::TransDas;
use serde::{Deserialize, Serialize};
use ucad_nn::Tensor;

/// Serializable snapshot of a trained model.
#[derive(Debug, Serialize, Deserialize)]
struct Snapshot {
    /// Format version, for forward compatibility.
    version: u32,
    config: TransDasConfig,
    /// Parameter values in registration order.
    params: Vec<Tensor>,
}

const FORMAT_VERSION: u32 = 1;

/// Errors from loading a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// The payload is not valid snapshot JSON.
    Malformed(String),
    /// The snapshot's version or parameter shapes do not match what the
    /// configuration reconstructs.
    Incompatible(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(m) => write!(f, "malformed model snapshot: {m}"),
            PersistError::Incompatible(m) => write!(f, "incompatible model snapshot: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl TransDas {
    /// Serializes the model (configuration + weights) to JSON.
    pub fn to_json(&self) -> String {
        let snapshot = Snapshot {
            version: FORMAT_VERSION,
            config: self.cfg,
            params: self.store.export_values(),
        };
        serde_json::to_string(&snapshot).expect("snapshot serialization cannot fail")
    }

    /// Restores a model from [`TransDas::to_json`] output.
    pub fn from_json(json: &str) -> Result<TransDas, PersistError> {
        let snapshot: Snapshot =
            serde_json::from_str(json).map_err(|e| PersistError::Malformed(e.to_string()))?;
        if snapshot.version != FORMAT_VERSION {
            return Err(PersistError::Incompatible(format!(
                "snapshot version {} (supported: {FORMAT_VERSION})",
                snapshot.version
            )));
        }
        snapshot
            .config
            .validate()
            .map_err(|e| PersistError::Incompatible(e.to_string()))?;
        let mut model = TransDas::new(snapshot.config);
        model
            .store
            .import_values(snapshot.params)
            .map_err(|e| PersistError::Incompatible(e.to_string()))?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaskMode;

    fn trained() -> TransDas {
        let cfg = TransDasConfig {
            vocab_size: 8,
            hidden: 8,
            heads: 2,
            blocks: 2,
            window: 6,
            epochs: 8,
            dropout_keep: 1.0,
            mask: MaskMode::TransDas,
            ..TransDasConfig::scenario1(8)
        };
        let mut model = TransDas::new(cfg);
        let sessions: Vec<Vec<u32>> = (0..6)
            .map(|i| (0..10).map(|j| ((i + j) % 4) as u32 + 1).collect())
            .collect();
        model.train(&sessions);
        model
    }

    #[test]
    fn roundtrip_preserves_scores_exactly() {
        let model = trained();
        let json = model.to_json();
        let restored = TransDas::from_json(&json).expect("roundtrip");
        for context in [[1u32, 2, 3].as_slice(), &[4, 1, 2, 3], &[2, 3, 4]] {
            assert_eq!(
                model.next_scores(context),
                restored.next_scores(context),
                "scores diverged for context {context:?}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_config() {
        let model = trained();
        let restored = TransDas::from_json(&model.to_json()).unwrap();
        assert_eq!(restored.cfg, model.cfg);
    }

    #[test]
    fn snapshot_with_retired_threads_field_still_loads() {
        // Snapshots written before training threads stopped being a model
        // setting carry `"threads"` in their configuration.
        let model = trained();
        let json = model
            .to_json()
            .replacen("\"seed\":", "\"threads\":4,\"seed\":", 1);
        assert!(json.contains("\"threads\":4"));
        let restored = TransDas::from_json(&json).expect("old snapshot loads");
        assert_eq!(restored.cfg, model.cfg);
        for context in [[1u32, 2, 3].as_slice(), &[4, 1, 2, 3]] {
            assert_eq!(model.next_scores(context), restored.next_scores(context));
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            TransDas::from_json("{not json"),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            TransDas::from_json("{\"version\":1}"),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let model = trained();
        let json = model.to_json().replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            TransDas::from_json(&json),
            Err(PersistError::Incompatible(_))
        ));
    }

    #[test]
    fn restored_model_can_keep_training() {
        let model = trained();
        let mut restored = TransDas::from_json(&model.to_json()).unwrap();
        let sessions: Vec<Vec<u32>> = (0..4)
            .map(|i| (0..10).map(|j| ((i + j) % 4) as u32 + 1).collect())
            .collect();
        let report = restored.fine_tune(&sessions, 2);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }
}
