//! Model persistence: serialize a trained Trans-DAS and restore it.
//!
//! The paper's deployment retrains periodically (§5.2) — which implies the
//! serving system loads a previously trained model while a new one trains.
//! Parameter registration order is deterministic given a configuration, so
//! persistence stores the configuration plus the flat parameter values and
//! reconstruction rebuilds the architecture and overwrites the weights.
//!
//! Two codecs carry that snapshot:
//!
//! * [`TransDas::to_bytes`] / [`TransDas::from_bytes`], the checkpoint
//!   payload. All integers are `u32` and every weight an `f32`, both
//!   little-endian:
//!
//!   ```text
//!   u32     n, the length of the configuration JSON
//!   n       TransDasConfig as JSON
//!   u32     t, the tensor count
//!   t ×     u32 rows, u32 cols, rows·cols f32 (row-major)
//!   ```
//!
//!   The weights are their raw bits, so the round trip is bit-exact by
//!   construction — NaN, ±inf, −0.0 and subnormals included. The
//!   configuration stays JSON: it is a few hundred bytes, and JSON keeps
//!   tolerating retired fields (`threads`). The decoder checks every
//!   length against the bytes that remain, and every tensor shape against
//!   [`TransDasConfig::param_shapes`], before it allocates.
//! * [`TransDas::to_json`] / [`TransDas::from_json`], the readable
//!   snapshot, which older checkpoints carry. JSON has no non-finite
//!   numbers: a NaN or ±inf weight is written as `null` and fails to load.

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
        if !snapshot
            .params
            .iter()
            .map(Tensor::shape)
            .eq(snapshot.config.param_shapes())
        {
            return Err(PersistError::Incompatible(
                "parameter shapes do not match the configuration".to_string(),
            ));
        }
        let mut model = TransDas::new(snapshot.config);
        model
            .store
            .import_values(snapshot.params)
            .map_err(|e| PersistError::Incompatible(e.to_string()))?;
        Ok(model)
    }

    /// Serializes the model to the binary payload of the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let config = serde_json::to_string(&self.cfg).expect("config serialization cannot fail");
        let mut out = Vec::with_capacity(
            8 + config.len() + 8 * self.store.len() + 4 * self.store.num_weights(),
        );
        put_len(&mut out, config.len());
        out.extend_from_slice(config.as_bytes());
        put_len(&mut out, self.store.len());
        for (_, param) in self.store.iter() {
            let value = &param.value;
            put_len(&mut out, value.rows());
            put_len(&mut out, value.cols());
            for v in value.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores a model from [`TransDas::to_bytes`] output. Damage fails
    /// as [`PersistError`], never a panic: a length that overflows or runs
    /// past the payload is caught before anything is allocated for it, and
    /// the tensors must match the configuration's
    /// [`TransDasConfig::param_shapes`] in count and shape before the model
    /// is built.
    pub fn from_bytes(bytes: &[u8]) -> Result<TransDas, PersistError> {
        let mut r = Reader(bytes);
        let config_len = r.len("configuration length")?;
        let config: TransDasConfig = std::str::from_utf8(r.take(config_len, "configuration")?)
            .map_err(|e| e.to_string())
            .and_then(|json| serde_json::from_str(json).map_err(|e| e.to_string()))
            .map_err(|e| PersistError::Malformed(format!("configuration: {e}")))?;
        config
            .validate()
            .map_err(|e| PersistError::Incompatible(e.to_string()))?;
        let count = r.len("tensor count")?;
        let mut shapes = config.param_shapes();
        let mut params = Vec::new();
        for i in 0..count {
            let Some(expected) = shapes.next() else {
                return Err(PersistError::Incompatible(format!(
                    "payload declares {count} tensors, the configuration registers {i}"
                )));
            };
            let rows = r.len("tensor rows")?;
            let cols = r.len("tensor cols")?;
            let n_bytes = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(4))
                .ok_or_else(|| {
                    PersistError::Malformed(format!("tensor {i}: {rows}x{cols} overflows"))
                })?;
            let raw = r.take(n_bytes, "tensor data")?;
            if (rows, cols) != expected {
                return Err(PersistError::Incompatible(format!(
                    "tensor {i} is {rows}x{cols}, the configuration expects {}x{}",
                    expected.0, expected.1
                )));
            }
            let data = raw
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            params.push(Tensor::from_vec(rows, cols, data));
        }
        if shapes.next().is_some() {
            return Err(PersistError::Incompatible(format!(
                "payload declares {count} tensors, the configuration registers more"
            )));
        }
        if !r.0.is_empty() {
            return Err(PersistError::Malformed(format!(
                "{} trailing bytes after the last tensor",
                r.0.len()
            )));
        }
        let mut model = TransDas::new(config);
        model
            .store
            .import_values(params)
            .map_err(|e| PersistError::Incompatible(e.to_string()))?;
        Ok(model)
    }
}

/// Appends `n` as a little-endian `u32`.
fn put_len(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("model dimensions fit in u32");
    out.extend_from_slice(&n.to_le_bytes());
}

/// A cursor over a binary payload whose reads fail, rather than panic,
/// past its end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if n > self.0.len() {
            return Err(PersistError::Malformed(format!(
                "{what} needs {n} bytes, {} remain",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn len(&mut self, what: &str) -> Result<usize, PersistError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
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
    fn binary_roundtrip_preserves_weights_and_scores_exactly() {
        let model = trained();
        let restored = TransDas::from_bytes(&model.to_bytes()).expect("roundtrip");
        assert_eq!(restored.cfg, model.cfg);
        assert_eq!(restored.to_bytes(), model.to_bytes());
        assert_eq!(restored.to_json(), model.to_json());
        for context in [[1u32, 2, 3].as_slice(), &[4, 1, 2, 3], &[2, 3, 4]] {
            assert_eq!(model.next_scores(context), restored.next_scores(context));
        }
    }

    #[test]
    fn param_shapes_match_the_registered_parameters() {
        let base = trained().cfg;
        let configs = [
            base,
            TransDasConfig {
                heads: 4,
                blocks: 3,
                ..base
            },
            TransDasConfig {
                heads: 1,
                blocks: 1,
                ..base
            }
            .into_base_transformer(),
        ];
        for cfg in configs {
            let registered: Vec<(usize, usize)> = TransDas::new(cfg)
                .store
                .iter()
                .map(|(_, p)| p.value.shape())
                .collect();
            assert_eq!(
                cfg.param_shapes().collect::<Vec<_>>(),
                registered,
                "{cfg:?}"
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
    fn json_config_that_lies_about_sizes_is_rejected_before_building() {
        // Building this model would need a 2^40-row embedding.
        let json =
            trained()
                .to_json()
                .replacen("\"vocab_size\":8", "\"vocab_size\":1099511627776", 1);
        assert!(json.contains("1099511627776"));
        assert!(matches!(
            TransDas::from_json(&json),
            Err(PersistError::Incompatible(_))
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
