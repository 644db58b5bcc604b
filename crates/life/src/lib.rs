//! # ucad-life
//!
//! Model lifecycle for the UCAD serving system: the subsystem between
//! "reproduction" and "service". The paper (§2, §5.2, §6.3) assumes the
//! detector is periodically retrained as access patterns drift; this crate
//! supplies everything that prescription needs in production:
//!
//! * [`CheckpointStore`] — versioned, content-hashed, CRC-validated model
//!   checkpoints with a manifest index, atomic rename-on-commit writes and
//!   retention GC. Damage (truncation, bit flips) is reported as
//!   [`ucad_model::UcadError::Corrupt`], never a panic.
//! * [`DriftMonitor`] — a [`ucad::ServeObserver`] comparing sliding-window
//!   statistics (alert-rate EWMA, unseen-key ratio, PSI over top-*p* rank
//!   buckets) against a training-time [`DriftBaseline`], exported as
//!   `ucad_life_*` metrics and `life.drift_alarm` events.
//! * [`SessionJournal`] + [`Retrainer`] — a rolling corpus of
//!   verified-normal sessions and a background-thread trainer producing
//!   candidate models from it, deterministically.
//! * [`LifecycleManager`] — checkpointing plus the promotion path: a
//!   candidate must pass the [`shadow_validate`] gate on held-out sessions,
//!   is then committed to the store, **reloaded from its own checkpoint**,
//!   and atomically hot-swapped into the serving engine — so post-swap
//!   serving is byte-identical to a cold start on the promoted checkpoint
//!   by construction.
//!
//! ```no_run
//! use ucad::prelude::*;
//! use ucad_life::{CheckpointStore, GateConfig, LifecycleManager, Retrainer};
//!
//! # fn demo(system: Ucad, journal: ucad_life::SessionJournal) -> Result<(), UcadError> {
//! let mut engine = ShardedOnlineUcad::try_new(system, ServeConfig::default())?;
//! let store = CheckpointStore::open("checkpoints", 4)?;
//! let mut life = LifecycleManager::new(store, GateConfig::default());
//! life.checkpoint(&engine.system().model)?;
//! // ... serve; on a drift alarm:
//! let (train, holdout) = journal.split_holdout(5);
//! let candidate = Retrainer::spawn(engine.system().model.cfg, train)?.join().model;
//! let outcome = life.promote(&mut engine, candidate, &holdout)?;
//! println!("{outcome:?}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod drift;
pub mod journal;
pub mod retrain;
pub mod store;

pub use drift::{DriftBaseline, DriftConfig, DriftMonitor, DriftSnapshot};
pub use journal::SessionJournal;
pub use retrain::{shadow_validate, GateConfig, GateReport, RetrainOutcome, Retrainer};
pub use store::CheckpointStore;

use ucad::ShardedOnlineUcad;
use ucad_model::{TransDas, UcadError};

/// Outcome of a promotion attempt.
#[derive(Debug)]
pub enum Promotion {
    /// The candidate passed the gate, was checkpointed, and is now serving.
    Swapped {
        /// Version id of the promoted checkpoint.
        id: String,
        /// Serving-engine model epoch after the swap.
        epoch: u64,
        /// The gate evidence behind the promotion.
        gate: GateReport,
    },
    /// The candidate failed the shadow gate and was not swapped in.
    Rejected(GateReport),
}

impl Promotion {
    /// True when the candidate is now serving.
    pub fn swapped(&self) -> bool {
        matches!(self, Promotion::Swapped { .. })
    }
}

/// Checkpointing plus the gated promotion path around a serving engine.
#[derive(Debug)]
pub struct LifecycleManager {
    store: CheckpointStore,
    gate: GateConfig,
}

impl LifecycleManager {
    /// Wraps a checkpoint store and a promotion-gate configuration.
    pub fn new(store: CheckpointStore, gate: GateConfig) -> Self {
        LifecycleManager { store, gate }
    }

    /// Read access to the checkpoint store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Commits a model snapshot and returns its version id.
    pub fn checkpoint(&mut self, model: &TransDas) -> Result<String, UcadError> {
        self.store.save(model)
    }

    /// Runs the full promotion protocol for a candidate model:
    ///
    /// 1. **shadow gate** — the candidate and the currently serving model
    ///    are both evaluated on `holdout` (verified-normal sessions); the
    ///    candidate must stay under the gate's false-alarm ceiling and must
    ///    not regress the serving rate beyond the configured slack;
    /// 2. **commit** — the candidate is saved to the checkpoint store
    ///    (atomic rename, manifest update, retention GC);
    /// 3. **reload** — the model is loaded back *from the checkpoint just
    ///    written*, so what swaps in is bit-identical to what any cold
    ///    start on this version would serve;
    /// 4. **hot-swap** — [`ShardedOnlineUcad::swap_model`] installs it at a
    ///    flush-barrier cut with score-cache epoch invalidation.
    ///
    /// A gate failure returns [`Promotion::Rejected`] (not an error): the
    /// engine keeps serving the old model and the store is untouched.
    pub fn promote(
        &mut self,
        engine: &mut ShardedOnlineUcad,
        candidate: TransDas,
        holdout: &[Vec<u32>],
    ) -> Result<Promotion, UcadError> {
        let gate = shadow_validate(
            &candidate,
            &engine.system().model,
            engine.system().detector,
            holdout,
            &self.gate,
        );
        if !gate.pass {
            ucad_obs::event(
                "life.promotion_rejected",
                &[(
                    "reason",
                    gate.reason.clone().unwrap_or_else(|| "gate failed".into()),
                )],
            );
            return Ok(Promotion::Rejected(gate));
        }
        let id = self.store.save(&candidate)?;
        let promoted = self.store.load(&id)?;
        let epoch = engine.swap_model(promoted)?;
        ucad_obs::event(
            "life.promotion",
            &[
                ("id", id.clone()),
                ("epoch", epoch.to_string()),
                ("candidate_rate", format!("{:.6}", gate.candidate_rate)),
                ("serving_rate", format!("{:.6}", gate.serving_rate)),
            ],
        );
        Ok(Promotion::Swapped { id, epoch, gate })
    }
}
