//! Trans-DAS model configuration, including the paper's per-scenario
//! defaults and the ablation toggles of Table 3.

use crate::error::UcadError;
use serde::{Deserialize, Serialize};

/// Attention masking mode (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskMode {
    /// Trans-DAS masking: output position `i` attends to the whole window
    /// *except* input `i+1` (its own prediction target). Bidirectional.
    TransDas,
    /// Standard decoder future-masking: position `i` attends to inputs
    /// `0..=i` only.
    Causal,
    /// Fully connected encoder attention (no mask).
    Full,
}

/// Largest window `L` a configuration may ask for. The attention mask alone
/// holds `L²` f32 (64 MiB at this bound); the paper's windows are at most
/// 100. Bounding it keeps a checkpoint whose configuration lies about `L`
/// from sizing an allocation no payload byte accounts for.
pub const MAX_WINDOW: usize = 4096;

/// Hyper-parameters for Trans-DAS and its ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransDasConfig {
    /// Key-space size including the reserved `k0` (embedding rows).
    pub vocab_size: usize,
    /// Hidden dimension `h`.
    pub hidden: usize,
    /// Attention heads `m` (must divide `hidden`).
    pub heads: usize,
    /// Stacked attention blocks `B`.
    pub blocks: usize,
    /// Input window size `L`.
    pub window: usize,
    /// Learnable positional embedding (the *base Transformer* design;
    /// Trans-DAS removes it).
    pub positional: bool,
    /// Masking mode (base Transformer uses `Causal`; Trans-DAS uses its own).
    pub mask: MaskMode,
    /// Triplet-loss component of the training objective (Eq. 11); when off,
    /// training uses negative-sampling cross entropy only.
    pub triplet: bool,
    /// Triplet margin `g`.
    pub margin: f32,
    /// Negative samples drawn per position (the paper draws negatives
    /// "iteratively"; more negatives sharpen the in-context/out-of-context
    /// score separation).
    pub negatives: usize,
    /// Dropout keep probability (1.0 disables dropout).
    pub dropout_keep: f32,
    /// Learning rate.
    pub lr: f32,
    /// Decoupled weight decay implementing the `||theta||_2` term.
    pub weight_decay: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Sliding-window stride over training sessions (the paper uses 1;
    /// larger strides trade fidelity for speed on big corpora).
    pub stride: usize,
    /// Windows per optimizer step. The windows of a batch run in parallel
    /// on the shared compute pool; the trained weights do not depend on its
    /// size.
    pub batch_size: usize,
    /// RNG seed for initialization, shuffling, dropout and negatives.
    pub seed: u64,
}

impl TransDasConfig {
    /// Paper defaults for Scenario-I: `L=30, g=0.5, h=10, m=2, B=6`.
    pub fn scenario1(vocab_size: usize) -> Self {
        TransDasConfig {
            vocab_size,
            hidden: 10,
            heads: 2,
            blocks: 6,
            window: 30,
            positional: false,
            mask: MaskMode::TransDas,
            triplet: true,
            margin: 0.5,
            negatives: 4,
            dropout_keep: 0.9,
            lr: 1e-2,
            weight_decay: 1e-4,
            epochs: 40,
            stride: 1,
            batch_size: 32,
            seed: 42,
        }
    }

    /// Paper defaults for Scenario-II: `L=100, g=0.5, h=64, m=8, B=6`.
    pub fn scenario2(vocab_size: usize) -> Self {
        TransDasConfig {
            vocab_size,
            hidden: 64,
            heads: 8,
            blocks: 6,
            window: 100,
            epochs: 10,
            ..Self::scenario1(vocab_size)
        }
    }

    /// Defaults for the §6.6 system-log transfer task: `L=10, g=0.5, h=64`.
    pub fn syslog(vocab_size: usize) -> Self {
        TransDasConfig {
            vocab_size,
            hidden: 64,
            heads: 8,
            blocks: 2,
            window: 10,
            epochs: 8,
            ..Self::scenario1(vocab_size)
        }
    }

    /// Table 3 base Transformer: learnable positional embedding, decoder
    /// future-masking, cross-entropy-only objective.
    pub fn into_base_transformer(mut self) -> Self {
        self.positional = true;
        self.mask = MaskMode::Causal;
        self.triplet = false;
        self
    }

    /// Table 3 "our embedding layer" variant: base + order-free embedding.
    pub fn into_embedding_variant(mut self) -> Self {
        self = self.into_base_transformer();
        self.positional = false;
        self
    }

    /// Table 3 "our masking mechanism" variant: base + Trans-DAS mask.
    pub fn into_masking_variant(mut self) -> Self {
        self = self.into_base_transformer();
        self.mask = MaskMode::TransDas;
        self
    }

    /// Table 3 "our training objective" variant: base + triplet objective.
    pub fn into_objective_variant(mut self) -> Self {
        self = self.into_base_transformer();
        self.triplet = true;
        self
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// The `(rows, cols)` of every parameter [`crate::TransDas::new`]
    /// registers, in registration order, computed lazily: a checkpoint
    /// decoder walks it beside the payload's tensors, so a configuration
    /// that claims more weights than the payload holds is rejected before
    /// any model is built.
    pub fn param_shapes(&self) -> impl Iterator<Item = (usize, usize)> {
        let (h, d) = (self.hidden, self.head_dim());
        // Per block: wq, wk, wv per head; wo; ln1; ffn1; ffn2; ln2.
        let block = std::iter::repeat_n((h, d), 3 * self.heads).chain([
            (h, h),
            (1, h),
            (1, h),
            (h, h),
            (1, h),
            (h, h),
            (1, h),
            (1, h),
            (1, h),
        ]);
        std::iter::once((self.vocab_size, h))
            .chain(self.positional.then_some((self.window, h)))
            .chain((0..self.blocks).flat_map(move |_| block.clone()))
    }

    /// Validates structural constraints.
    pub fn validate(&self) -> Result<(), UcadError> {
        if self.vocab_size < 2 {
            return Err(UcadError::invalid(
                "vocab_size",
                "must include k0 plus at least one key",
            ));
        }
        if self.hidden == 0 || self.heads == 0 || self.blocks == 0 || self.window < 2 {
            return Err(UcadError::invalid(
                "hidden/heads/blocks/window",
                "hidden/heads/blocks must be positive, window >= 2",
            ));
        }
        if self.window > MAX_WINDOW {
            return Err(UcadError::invalid(
                "window",
                format!("window ({}) must be at most {MAX_WINDOW}", self.window),
            ));
        }
        if !self.hidden.is_multiple_of(self.heads) {
            return Err(UcadError::invalid(
                "heads",
                format!(
                    "heads ({}) must divide hidden ({})",
                    self.heads, self.hidden
                ),
            ));
        }
        if !(0.0 < self.dropout_keep && self.dropout_keep <= 1.0) {
            return Err(UcadError::invalid("dropout_keep", "must be in (0, 1]"));
        }
        if self.stride == 0 || self.batch_size == 0 {
            return Err(UcadError::invalid("stride/batch_size", "must be positive"));
        }
        if self.negatives == 0 {
            return Err(UcadError::invalid(
                "negatives",
                "need at least one negative sample per position",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert!(TransDasConfig::scenario1(21).validate().is_ok());
        assert!(TransDasConfig::scenario2(594).validate().is_ok());
        assert!(TransDasConfig::syslog(30).validate().is_ok());
    }

    #[test]
    fn scenario_defaults_match_paper() {
        let c1 = TransDasConfig::scenario1(21);
        assert_eq!((c1.window, c1.hidden, c1.heads, c1.blocks), (30, 10, 2, 6));
        assert_eq!(c1.margin, 0.5);
        let c2 = TransDasConfig::scenario2(594);
        assert_eq!((c2.window, c2.hidden, c2.heads, c2.blocks), (100, 64, 8, 6));
    }

    #[test]
    fn ablation_variants_toggle_one_design_each() {
        let full = TransDasConfig::scenario1(21);
        let base = full.into_base_transformer();
        assert!(base.positional && base.mask == MaskMode::Causal && !base.triplet);
        let e = full.into_embedding_variant();
        assert!(!e.positional && e.mask == MaskMode::Causal && !e.triplet);
        let m = full.into_masking_variant();
        assert!(m.positional && m.mask == MaskMode::TransDas && !m.triplet);
        let o = full.into_objective_variant();
        assert!(o.positional && o.mask == MaskMode::Causal && o.triplet);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = TransDasConfig::scenario1(21);
        c.heads = 3; // does not divide 10
        assert!(c.validate().is_err());
        let mut c = TransDasConfig::scenario1(21);
        c.window = 1;
        assert!(c.validate().is_err());
        let mut c = TransDasConfig::scenario1(21);
        c.dropout_keep = 0.0;
        assert!(c.validate().is_err());
        assert!(TransDasConfig::scenario1(1).validate().is_err());
    }
}
