//! # ucad-preprocess
//!
//! The UCAD preprocessing module (§5.1): statement abstraction and
//! tokenization into keys, attribute-based access-control filtering, and
//! clustering-based noise removal / pattern balancing.
//!
//! The [`Preprocessor`] façade composes the stages exactly as the paper's
//! pipeline does:
//! 1. tokenize raw sessions against a vocabulary built from the training
//!    log ([`Vocabulary`]),
//! 2. drop sessions that violate access-control policies
//!    ([`AccessPolicy`]),
//! 3. profile the survivors with n-grams, cluster with DBSCAN under Jaccard
//!    distance, balance patterns and drop rare/short sessions
//!    ([`cleaner::clean_sessions`]).

#![warn(missing_docs)]

pub mod abstraction;
pub mod cleaner;
pub mod dbscan;
pub mod ngram;
pub mod policy;
pub mod vocab;

pub use abstraction::{abstract_literals, abstract_statement};
pub use cleaner::{clean_sessions, CleanOutcome, CleanStats, CleanerConfig};
pub use dbscan::{dbscan, Assignment, DbscanParams};
pub use ngram::NgramProfile;
pub use policy::{AccessPolicy, DenyRule, PolicyViolation};
pub use vocab::{Vocabulary, UNKNOWN_KEY};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use ucad_trace::Session;

/// Configuration of the full preprocessing pipeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// Minimum support for learned granting-policy attributes.
    pub policy_min_support: usize,
    /// Cleaning configuration (n-grams, DBSCAN, balancing, thresholds).
    pub cleaner: CleanerConfig,
    /// Whether to run the clustering/cleaning stage (the paper's pipeline
    /// always does; ablations can disable it).
    pub clean: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            policy_min_support: 2,
            cleaner: CleanerConfig::default(),
            clean: true,
        }
    }
}

/// Report of one training-time preprocessing pass.
#[derive(Debug, Clone, Default)]
pub struct PreprocessReport {
    /// Sessions rejected by access-control policies.
    pub policy_rejected: usize,
    /// Cleaning statistics of the clustering stage.
    pub clean_stats: CleanStats,
    /// Vocabulary size (distinct keys, excluding `k0`).
    pub vocab_size: usize,
}

/// Trained preprocessing state: frozen vocabulary plus learned policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preprocessor {
    /// Frozen statement-key vocabulary.
    pub vocab: Vocabulary,
    /// Learned access-control policy set.
    pub policy: AccessPolicy,
    config: PreprocessConfig,
}

impl Preprocessor {
    /// Fits the preprocessor on a raw training log and returns the purified
    /// tokenized training sessions plus a report.
    pub fn fit(
        raw_sessions: &[Session],
        config: PreprocessConfig,
        seed: u64,
    ) -> (Self, Vec<Vec<u32>>, PreprocessReport) {
        let _fit_span = ucad_obs::span!("preprocess.fit");
        let mut report = PreprocessReport::default();
        let (policy, passing, rejected) = {
            let _s = ucad_obs::span!("preprocess.policy");
            let policy = AccessPolicy::learn_with_support(raw_sessions, config.policy_min_support);
            let (passing, rejected) = policy.filter(raw_sessions);
            (policy, passing, rejected)
        };
        report.policy_rejected = rejected.len();

        // The vocabulary is built from policy-passing sessions only, so
        // statements seen exclusively in filtered noise stay unknown (k0).
        let (vocab, tokenized) = {
            let _s = ucad_obs::span!("preprocess.tokenize");
            Vocabulary::build_tokenized(passing.iter().copied())
        };
        report.vocab_size = vocab.len();
        let purified = if config.clean {
            let mut rng = StdRng::seed_from_u64(seed);
            let (outcome, stats) = clean_sessions(&tokenized, &config.cleaner, &mut rng);
            report.clean_stats = stats;
            tokenized
                .into_iter()
                .zip(outcome)
                .filter(|(_, o)| *o == CleanOutcome::Kept)
                .map(|(s, _)| s)
                .collect()
        } else {
            report.clean_stats.kept = tokenized.len();
            tokenized
        };

        // Session fates land on the global registry as
        // `ucad_preprocess_sessions_total{outcome=...}` — one increment per
        // input session, so the label sum equals the raw-log size.
        let obs = ucad_obs::global();
        let fate = |outcome: &str, n: usize| {
            obs.counter("ucad_preprocess_sessions_total", &[("outcome", outcome)])
                .add(n as u64);
        };
        fate("kept", purified.len());
        fate("policy_rejected", report.policy_rejected);
        fate("noise_cluster", report.clean_stats.noise);
        fate("small_cluster", report.clean_stats.small_cluster);
        fate("too_short", report.clean_stats.too_short);
        fate("undersampled", report.clean_stats.undersampled);
        obs.counter("ucad_preprocess_policy_rejected_total", &[])
            .add(report.policy_rejected as u64);
        ucad_obs::event(
            "preprocess.fit",
            &[
                ("raw_sessions", raw_sessions.len().to_string()),
                ("purified", purified.len().to_string()),
                ("vocab_size", report.vocab_size.to_string()),
            ],
        );

        (
            Preprocessor {
                vocab,
                policy,
                config,
            },
            purified,
            report,
        )
    }

    /// Tokenizes an active session for detection. Unknown statements map to
    /// `k0`.
    pub fn transform(&self, session: &Session) -> Vec<u32> {
        self.vocab.tokenize_session(session)
    }

    /// Detection-time policy screen: known attack patterns are filtered
    /// directly (§3, "directly filters out the known attack patterns").
    pub fn screen(&self, session: &Session) -> Option<PolicyViolation> {
        self.policy.check(session)
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PreprocessConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad_trace::{generate_raw_log, ScenarioSpec};

    #[test]
    fn fit_removes_most_noise_and_keeps_most_normals() {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 60, 0.25, 42);
        let (_, purified, report) =
            Preprocessor::fit(&raw.sessions, PreprocessConfig::default(), 7);
        // 15 noise sessions were injected; the pipeline must remove a clear
        // majority of the input noise while keeping a solid training corpus.
        let removed = raw.sessions.len() - purified.len() - report.clean_stats.undersampled;
        assert!(
            removed >= raw.noise_indices.len() / 2,
            "removed only {} sessions for {} injected noise",
            removed,
            raw.noise_indices.len()
        );
        assert!(
            purified.len() >= 20,
            "too little training data survived: {}",
            purified.len()
        );
        assert!(
            report.vocab_size >= 15,
            "vocab too small: {}",
            report.vocab_size
        );
    }

    #[test]
    fn policy_stage_catches_unknown_address_noise() {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 50, 0.2, 43);
        let (pre, _, report) = Preprocessor::fit(&raw.sessions, PreprocessConfig::default(), 7);
        assert!(report.policy_rejected > 0, "expected policy rejections");
        // Every policy-violation noise session must be screened at
        // detection time too.
        for &i in &raw.noise_indices {
            let s = &raw.sessions[i];
            if s.client_ip.starts_with("198.51.100.") {
                assert!(pre.screen(s).is_some(), "unknown address passed screening");
            }
        }
    }

    #[test]
    fn transform_maps_unseen_statements_to_k0() {
        let spec = ScenarioSpec::commenting();
        // Seed picked so session 0 stays fully in-vocabulary after
        // preprocessing under the vendored RNG stream.
        let raw = generate_raw_log(&spec, 40, 0.0, 45);
        let (pre, _, _) = Preprocessor::fit(&raw.sessions, PreprocessConfig::default(), 7);
        let mut s = raw.sessions[0].clone();
        s.ops[0].sql = "SELECT * FROM never_seen_table WHERE zz=1".into();
        let keys = pre.transform(&s);
        assert_eq!(keys[0], UNKNOWN_KEY);
        assert!(keys[1..].iter().all(|&k| k != UNKNOWN_KEY));
    }

    #[test]
    fn clean_disabled_keeps_all_policy_passing_sessions() {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 30, 0.1, 45);
        let cfg = PreprocessConfig {
            clean: false,
            ..Default::default()
        };
        let (_, purified, report) = Preprocessor::fit(&raw.sessions, cfg, 7);
        assert_eq!(purified.len() + report.policy_rejected, raw.sessions.len());
    }
}
