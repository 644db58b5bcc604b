//! Background retraining and the shadow validation gate.
//!
//! On a drift alarm (or operator request) a candidate Trans-DAS is trained
//! on the session journal in a background thread — serving never blocks on
//! training. Before a candidate may be promoted it must pass a **shadow
//! gate**: run against a held-out slice of verified-normal sessions, its
//! false-alarm rate must stay under an absolute ceiling and must not
//! regress the serving model's rate by more than a configured slack. A
//! candidate that fails the gate is reported, never swapped in.

use ucad::Detector;
use ucad_model::{DetectorConfig, TrainReport, TransDas, TransDasConfig, UcadError};

/// Promotion-gate thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Absolute ceiling on the candidate's holdout false-alarm rate.
    pub max_false_alarm_rate: f64,
    /// How much worse than the serving model the candidate may score on
    /// the same holdout before it is rejected.
    pub max_rate_regression: f64,
    /// Minimum held-out sessions for the gate to be meaningful.
    pub min_holdout: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_false_alarm_rate: 0.4,
            max_rate_regression: 0.1,
            min_holdout: 4,
        }
    }
}

/// Outcome of a shadow validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Held-out sessions evaluated.
    pub holdout_sessions: usize,
    /// Candidate false-alarm rate on the holdout.
    pub candidate_rate: f64,
    /// Serving model's false-alarm rate on the same holdout.
    pub serving_rate: f64,
    /// Whether the candidate may be promoted.
    pub pass: bool,
    /// Human-readable rejection reason, `None` on a pass.
    pub reason: Option<String>,
}

/// Fraction of holdout sessions a model alerts on. The holdout is
/// verified-normal by construction, so every alert is a false alarm.
fn false_alarm_rate(model: &TransDas, det: DetectorConfig, holdout: &[Vec<u32>]) -> f64 {
    let detector = Detector::new(model, det);
    let alerted = detector
        .detect_batch(holdout, None)
        .iter()
        .filter(|d| d.abnormal)
        .count();
    alerted as f64 / holdout.len() as f64
}

/// Runs the shadow gate: candidate vs. serving model on held-out
/// verified-normal sessions, judged under `gate`.
pub fn shadow_validate(
    candidate: &TransDas,
    serving: &TransDas,
    det: DetectorConfig,
    holdout: &[Vec<u32>],
    gate: &GateConfig,
) -> GateReport {
    if holdout.len() < gate.min_holdout {
        return GateReport {
            holdout_sessions: holdout.len(),
            candidate_rate: f64::NAN,
            serving_rate: f64::NAN,
            pass: false,
            reason: Some(format!(
                "holdout too small: {} sessions, gate requires {}",
                holdout.len(),
                gate.min_holdout
            )),
        };
    }
    let candidate_rate = false_alarm_rate(candidate, det, holdout);
    let serving_rate = false_alarm_rate(serving, det, holdout);
    let reason = if candidate_rate > gate.max_false_alarm_rate {
        Some(format!(
            "candidate false-alarm rate {candidate_rate:.4} exceeds ceiling {:.4}",
            gate.max_false_alarm_rate
        ))
    } else if candidate_rate > serving_rate + gate.max_rate_regression {
        Some(format!(
            "candidate false-alarm rate {candidate_rate:.4} regresses serving \
             rate {serving_rate:.4} by more than {:.4}",
            gate.max_rate_regression
        ))
    } else {
        None
    };
    GateReport {
        holdout_sessions: holdout.len(),
        candidate_rate,
        serving_rate,
        pass: reason.is_none(),
        reason,
    }
}

/// What a finished retraining run hands back.
pub struct RetrainOutcome {
    /// The candidate model (untrained architecture + trained weights).
    pub model: TransDas,
    /// The training report (per-epoch losses).
    pub report: TrainReport,
}

/// A candidate-training run on a background thread.
///
/// Training is deterministic given the configuration and the session list
/// (weight init and dropout draw from a config-seeded RNG; the compute
/// kernels are bit-identical at any thread count), so a retrain is
/// reproducible no matter where or when it runs.
pub struct Retrainer {
    handle: std::thread::JoinHandle<RetrainOutcome>,
}

impl Retrainer {
    /// Spawns a background thread that trains a fresh candidate with
    /// architecture `cfg` on `sessions`. Rejects an empty corpus (training
    /// on nothing would promote an uninitialized model).
    pub fn spawn(cfg: TransDasConfig, sessions: Vec<Vec<u32>>) -> Result<Self, UcadError> {
        if sessions.is_empty() {
            return Err(UcadError::invalid(
                "sessions",
                "cannot retrain on an empty session journal",
            ));
        }
        let handle = std::thread::Builder::new()
            .name("ucad-retrain".into())
            .spawn(move || {
                let mut model = TransDas::new(cfg);
                let report = model.train(&sessions);
                RetrainOutcome { model, report }
            })
            .map_err(|e| UcadError::Io {
                path: "<retrainer thread>".into(),
                reason: e.to_string(),
            })?;
        Ok(Retrainer { handle })
    }

    /// True once the training thread has exited (its result is ready).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Blocks until training completes and returns the candidate.
    pub fn join(self) -> RetrainOutcome {
        self.handle
            .join()
            .expect("retraining thread panicked — training is infallible on a non-empty corpus")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad_model::MaskMode;

    fn tiny_cfg() -> TransDasConfig {
        TransDasConfig {
            vocab_size: 8,
            hidden: 8,
            heads: 2,
            blocks: 1,
            window: 6,
            epochs: 2,
            dropout_keep: 1.0,
            mask: MaskMode::TransDas,
            ..TransDasConfig::scenario1(8)
        }
    }

    fn corpus() -> Vec<Vec<u32>> {
        (0..6)
            .map(|i| (0..10).map(|j| ((i + j) % 4) as u32 + 1).collect())
            .collect()
    }

    #[test]
    fn background_training_is_deterministic() {
        let a = Retrainer::spawn(tiny_cfg(), corpus()).unwrap().join();
        let b = Retrainer::spawn(tiny_cfg(), corpus()).unwrap().join();
        assert_eq!(a.model.to_json(), b.model.to_json());
        assert_eq!(a.report.epoch_losses, b.report.epoch_losses);
        assert!(a.report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn empty_corpus_is_rejected() {
        assert!(Retrainer::spawn(tiny_cfg(), Vec::new()).is_err());
    }

    #[test]
    fn gate_rejects_small_holdout_and_untrained_candidates() {
        let mut serving = TransDas::new(tiny_cfg());
        serving.train(&corpus());
        let untrained = TransDas::new(tiny_cfg());
        let det = DetectorConfig::scenario1();
        let holdout = corpus();

        let small = shadow_validate(
            &untrained,
            &serving,
            det,
            &holdout[..2],
            &GateConfig::default(),
        );
        assert!(!small.pass);
        assert!(small
            .reason
            .as_deref()
            .unwrap()
            .contains("holdout too small"));

        let strict = GateConfig {
            max_false_alarm_rate: 0.0,
            max_rate_regression: 0.0,
            min_holdout: 4,
        };
        // The serving model passes its own gate (identical rates).
        let self_gate = shadow_validate(&serving, &serving, det, &holdout, &strict);
        assert_eq!(self_gate.candidate_rate, self_gate.serving_rate);
        assert!(self_gate.candidate_rate <= self_gate.serving_rate);
    }

    #[test]
    fn gate_passes_a_retrained_candidate() {
        let mut serving = TransDas::new(tiny_cfg());
        serving.train(&corpus());
        let candidate = Retrainer::spawn(tiny_cfg(), corpus()).unwrap().join().model;
        let report = shadow_validate(
            &candidate,
            &serving,
            DetectorConfig::scenario1(),
            &corpus(),
            &GateConfig {
                max_false_alarm_rate: 1.0,
                max_rate_regression: 1.0,
                min_holdout: 4,
            },
        );
        assert!(report.pass, "gate rejected: {:?}", report.reason);
        assert_eq!(report.holdout_sessions, 6);
    }
}
