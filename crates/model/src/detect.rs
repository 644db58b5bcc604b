//! Online anomaly detection with the top-*p* strategy (§5.3).
//!
//! For each operation in an active session, the detector checks whether the
//! operation's key ranks within the top-*p* of the model's predicted
//! similarity scores for that position. A miss marks the operation — and
//! therefore the session — abnormal. Statements outside the training
//! vocabulary (`k0`) are abnormal by definition (their embedding is the
//! constant zero vector, so they carry no learned semantics).

use crate::cache::{ScoreCache, ScoreRows};
use crate::model::TransDas;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use ucad_nn::Tensor;

/// How positions are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionMode {
    /// Paper-exact streaming: one forward pass per operation, scoring the
    /// next operation from its *preceding* window (`O_L`).
    Streaming,
    /// Batched evaluation: one forward pass per window of `L` operations,
    /// scoring every position simultaneously. Identical information flow to
    /// the training objective (bidirectional context minus the target);
    /// ~`L`x faster, used for large offline evaluations.
    Block,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// An operation is normal if its key ranks in the top-`p` predictions.
    pub top_p: usize,
    /// Minimum number of preceding operations before detection starts
    /// (early operations have no contextual intent to compare against).
    pub min_context: usize,
    /// Scoring mode.
    pub mode: DetectionMode,
}

impl DetectorConfig {
    /// Paper defaults for Scenario-I (`p = 5`).
    pub fn scenario1() -> Self {
        DetectorConfig {
            top_p: 5,
            min_context: 2,
            mode: DetectionMode::Block,
        }
    }

    /// Paper defaults for Scenario-II (`p = 10`).
    pub fn scenario2() -> Self {
        DetectorConfig {
            top_p: 10,
            min_context: 2,
            mode: DetectionMode::Block,
        }
    }

    /// Fluent builder starting from the Scenario-I defaults.
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder {
            cfg: Self::scenario1(),
        }
    }
}

/// Builder for [`DetectorConfig`]; validates on [`DetectorConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct DetectorConfigBuilder {
    cfg: DetectorConfig,
}

impl DetectorConfigBuilder {
    /// Sets the top-*p* rank threshold.
    pub fn top_p(mut self, top_p: usize) -> Self {
        self.cfg.top_p = top_p;
        self
    }

    /// Sets the minimum preceding context before detection starts.
    pub fn min_context(mut self, min_context: usize) -> Self {
        self.cfg.min_context = min_context;
        self
    }

    /// Sets the scoring mode.
    pub fn mode(mut self, mode: DetectionMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<DetectorConfig, crate::error::UcadError> {
        if self.cfg.top_p == 0 {
            return Err(crate::error::UcadError::invalid(
                "top_p",
                "an operation can never rank in the top 0",
            ));
        }
        Ok(self.cfg)
    }
}

/// Per-session verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// Whether any operation fell outside the top-*p*.
    pub abnormal: bool,
    /// Index of the first abnormal operation, if any.
    pub first_anomaly: Option<usize>,
    /// Number of operations actually scored.
    pub positions_checked: usize,
}

/// Outcome for a single scored operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpVerdict {
    /// Key ranked within the top-*p* for its context.
    Normal,
    /// Key was never seen in training (`k0`): abnormal by definition.
    UnknownStatement,
    /// Key fell outside the top-*p* contextual intent.
    IntentMismatch,
}

impl OpVerdict {
    /// True for either abnormal outcome.
    pub fn is_abnormal(self) -> bool {
        !matches!(self, OpVerdict::Normal)
    }
}

/// One scored position of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionVerdict {
    /// Operation index within the session.
    pub position: usize,
    /// Scoring outcome.
    pub verdict: OpVerdict,
}

/// One scored position with the diagnostic context behind the verdict —
/// what the serve flight recorder captures per alert. The fields fall out
/// of work the detector already does (the rank scan and the score lookup),
/// so carrying them costs nothing extra.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictDetail {
    /// Operation index within the session.
    pub position: usize,
    /// Scoring outcome.
    pub verdict: OpVerdict,
    /// 0-based rank of the actual key among keys `1..V` (`None` for
    /// unknown statements, which are never ranked).
    pub rank: Option<usize>,
    /// Raw similarity score of the actual key.
    pub score: Option<f32>,
    /// Whether the scoring forward hit the score memo (`None` when caching
    /// is disabled or no forward ran).
    pub cache_hit: Option<bool>,
}

impl VerdictDetail {
    /// Drops the diagnostics, keeping the plain verdict.
    pub fn position_verdict(&self) -> PositionVerdict {
        PositionVerdict {
            position: self.position,
            verdict: self.verdict,
        }
    }
}

/// Top-*p* detector over a trained Trans-DAS model.
pub struct Detector<'a> {
    model: &'a TransDas,
    /// Configuration.
    pub cfg: DetectorConfig,
}

impl<'a> Detector<'a> {
    /// Wraps a trained model.
    pub fn new(model: &'a TransDas, cfg: DetectorConfig) -> Self {
        assert!(cfg.top_p >= 1, "top_p must be at least 1");
        Detector { model, cfg }
    }

    /// Detects anomalies in one tokenized session.
    pub fn detect_session(&self, keys: &[u32]) -> Detection {
        self.detect_session_cached(keys, None)
    }

    /// Collapses a stop-on-first-abnormal verdict walk into the session
    /// verdict. The walk stops at the first abnormal position, so the last
    /// verdict is abnormal iff any position was.
    fn detection_from(verdicts: &[VerdictDetail]) -> Detection {
        let abnormal = verdicts
            .last()
            .map(|v| v.verdict.is_abnormal())
            .unwrap_or(false);
        Detection {
            abnormal,
            first_anomaly: abnormal.then(|| verdicts.last().expect("non-empty").position),
            positions_checked: verdicts.len(),
        }
    }

    /// [`Detector::detect_session`] with an optional score memo. The cache
    /// key is the exact padded window, so the result is identical to the
    /// uncached path.
    pub fn detect_session_cached(&self, keys: &[u32], cache: Option<&ScoreCache>) -> Detection {
        Self::detection_from(&self.run_verdicts_detail(keys, 0, cache))
    }

    /// Detects anomalies in many sessions at once, packing the model
    /// forwards of every session's windows into batched passes
    /// ([`TransDas::position_scores_batch`]) so weight traversal is
    /// amortised across sessions.
    ///
    /// Verdict-equivalent to calling [`Detector::detect_session_cached`]
    /// per session: the per-session window walk and stop-on-first-abnormal
    /// rule are the same code, and batched scores are bit-identical to
    /// single-window scores. Cache interaction uses the same
    /// exact-padded-window [`ScoreRows::All`] keys as the sequential Block
    /// walk (one entry per unique window, no duplicates); the only
    /// difference is that windows past a session's first abnormal position
    /// may be scored speculatively, which can only *add* pure cache entries,
    /// never change a verdict.
    ///
    /// In [`DetectionMode::Streaming`] each position needs its own
    /// backward-context forward and sessions early-exit position by
    /// position, so batching would be almost entirely speculative; the
    /// sessions are simply walked one at a time.
    pub fn detect_batch(
        &self,
        sessions: &[Vec<u32>],
        cache: Option<&ScoreCache>,
    ) -> Vec<Detection> {
        match self.cfg.mode {
            DetectionMode::Streaming => sessions
                .iter()
                .map(|s| self.detect_session_cached(s, cache))
                .collect(),
            DetectionMode::Block => self.detect_batch_block(sessions, cache),
        }
    }

    /// Rank (0-based) of `actual` in `scores`, counting keys `1..V` only.
    fn rank_of(scores: &[f32], actual: u32) -> usize {
        let target = scores[actual as usize];
        scores
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(k, &s)| k != actual as usize && s > target)
            .count()
    }

    /// Verdict plus the rank and score that produced it. Unknown statements
    /// carry no rank or score (they are never ranked).
    fn verdict_at(&self, scores: &[f32], actual: u32) -> (OpVerdict, Option<usize>, Option<f32>) {
        if actual == 0 {
            return (OpVerdict::UnknownStatement, None, None);
        }
        let rank = Self::rank_of(scores, actual);
        let verdict = if rank >= self.cfg.top_p {
            OpVerdict::IntentMismatch
        } else {
            OpVerdict::Normal
        };
        (verdict, Some(rank), Some(scores[actual as usize]))
    }

    /// Scores one position under streaming semantics (§5.3's `O_L` rule):
    /// the verdict for `keys[t]` given the preceding context `keys[..t]`,
    /// with rank/score/cache-hit diagnostics. This is the exact
    /// per-operation rule of the online deployment loop; the forward
    /// computes only the `O_L` row it reads
    /// ([`TransDas::next_scores_cached_flagged`]).
    pub fn streaming_verdict_detail(
        &self,
        keys: &[u32],
        t: usize,
        cache: Option<&ScoreCache>,
    ) -> VerdictDetail {
        if keys[t] == 0 {
            return VerdictDetail {
                position: t,
                verdict: OpVerdict::UnknownStatement,
                rank: None,
                score: None,
                cache_hit: None,
            };
        }
        ucad_fault::on_scoring_forward();
        let (scores, cache_hit) = self.model.next_scores_cached_flagged(&keys[..t], cache);
        let (verdict, rank, score) = self.verdict_at(scores.row(0), keys[t]);
        VerdictDetail {
            position: t,
            verdict,
            rank,
            score,
            cache_hit,
        }
    }

    /// Scores positions `from..` of a session in order, stopping after the
    /// first abnormal verdict (the paper flags a session on its first
    /// abnormal operation). Positions below the configured minimum context
    /// are skipped. In [`DetectionMode::Block`] each forward pass scores a
    /// whole window of positions; in [`DetectionMode::Streaming`] each
    /// position gets its own backward-context pass.
    ///
    /// The walk over a suffix is prefix-stable: scoring `from..m` and then
    /// `m..` in a second call yields the same verdicts as one `from..` call,
    /// provided each Block-mode call ends on a window boundary (`m - from` a
    /// multiple of the model window, the invariant the serving engine
    /// maintains) — the property that makes incremental serving output
    /// independent of batch timing. Each verdict carries its rank, score and
    /// cache-hit diagnostics; [`VerdictDetail::position_verdict`] maps it to
    /// the plain verdict.
    pub fn run_verdicts_detail(
        &self,
        keys: &[u32],
        from: usize,
        cache: Option<&ScoreCache>,
    ) -> Vec<VerdictDetail> {
        match self.cfg.mode {
            DetectionMode::Streaming => self.run_streaming(keys, from, cache),
            DetectionMode::Block => self.run_block(keys, from, cache),
        }
    }

    fn run_streaming(
        &self,
        keys: &[u32],
        from: usize,
        cache: Option<&ScoreCache>,
    ) -> Vec<VerdictDetail> {
        let mut out = Vec::new();
        for t in from.max(self.cfg.min_context)..keys.len() {
            let detail = self.streaming_verdict_detail(keys, t, cache);
            out.push(detail);
            if detail.verdict.is_abnormal() {
                break;
            }
        }
        out
    }

    fn run_block(
        &self,
        keys: &[u32],
        from: usize,
        cache: Option<&ScoreCache>,
    ) -> Vec<VerdictDetail> {
        let l = self.model.cfg.window;
        let Some(walk) = BlockWalk::plan(keys, from, self.cfg.min_context, l) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut next_t = walk.first; // watermark: each position scored once
        while next_t < keys.len() {
            let start = walk.window_start(next_t);
            let window = &walk.padded[start..start + l];
            ucad_fault::on_scoring_forward();
            let (scores, cache_hit) = self.model.position_scores_cached_flagged(window, cache);
            if self.scan_block_window(
                keys,
                &walk,
                start,
                &scores,
                cache_hit,
                &mut next_t,
                &mut out,
            ) {
                return out;
            }
        }
        out
    }

    /// Scans the rows of one scored block window, pushing verdicts in
    /// position order and advancing the `next_t` watermark; returns true
    /// when an abnormal verdict ends the session walk. Shared by the
    /// sequential walk ([`Detector::run_verdicts_detail`]) and the batched
    /// walk ([`Detector::detect_batch`]) so the two cannot diverge.
    #[allow(clippy::too_many_arguments)]
    fn scan_block_window(
        &self,
        keys: &[u32],
        walk: &BlockWalk,
        start: usize,
        scores: &Tensor,
        cache_hit: Option<bool>,
        next_t: &mut usize,
        out: &mut Vec<VerdictDetail>,
    ) -> bool {
        let l = self.model.cfg.window;
        let (pad, n) = (walk.pad, walk.padded.len());
        // Row i of a window starting at `start` predicts padded position
        // start + i + 1.
        for i in 0..l {
            let t_padded = start + i + 1;
            if t_padded >= n {
                break;
            }
            if t_padded < pad {
                continue;
            }
            let t = t_padded - pad;
            if t < *next_t {
                continue;
            }
            *next_t = t + 1;
            let (verdict, rank, score) = self.verdict_at(scores.row(i), keys[t]);
            out.push(VerdictDetail {
                position: t,
                verdict,
                rank,
                score,
                cache_hit: if keys[t] == 0 { None } else { cache_hit },
            });
            if verdict.is_abnormal() {
                return true;
            }
        }
        false
    }

    /// Block-mode batched detection: plan every session's window walk,
    /// resolve scores for all windows (cache lookups first, then one
    /// batched forward for the unique misses), then run the standard
    /// per-session verdict scan over the precomputed scores.
    fn detect_batch_block(
        &self,
        sessions: &[Vec<u32>],
        cache: Option<&ScoreCache>,
    ) -> Vec<Detection> {
        let l = self.model.cfg.window;
        let plans: Vec<Option<(BlockWalk, Vec<usize>)>> = sessions
            .iter()
            .map(|keys| {
                let walk = BlockWalk::plan(keys, 0, self.cfg.min_context, l)?;
                let starts = walk.window_starts(keys.len());
                Some((walk, starts))
            })
            .collect();
        // Resolve scores in walk order: cache hits directly, misses through
        // one batched forward. Misses are deduplicated by their exact padded
        // window — the same key the sequential Block walk uses — so a shared
        // cache never receives duplicate entries for one window.
        let mut tables: Vec<Vec<Option<Arc<Tensor>>>> = plans
            .iter()
            .map(|p| vec![None; p.as_ref().map_or(0, |(_, s)| s.len())])
            .collect();
        let mut unique: Vec<Vec<u32>> = Vec::new();
        let mut key_to_idx: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut misses: Vec<(usize, usize, usize)> = Vec::new(); // (session, window, unique)
        for (si, plan) in plans.iter().enumerate() {
            let Some((walk, starts)) = plan else { continue };
            for (wi, &start) in starts.iter().enumerate() {
                let key = self.model.pad_window(&walk.padded[start..start + l]);
                if let Some(cache) = cache {
                    if let Some(hit) = cache.get(&key, ScoreRows::All) {
                        tables[si][wi] = Some(hit);
                        continue;
                    }
                }
                let idx = *key_to_idx.entry(key.clone()).or_insert_with(|| {
                    unique.push(key);
                    unique.len() - 1
                });
                misses.push((si, wi, idx));
            }
        }
        let refs: Vec<&[u32]> = unique.iter().map(Vec::as_slice).collect();
        let computed: Vec<Arc<Tensor>> = self
            .model
            .position_scores_batch(&refs)
            .into_iter()
            .map(Arc::new)
            .collect();
        if let Some(cache) = cache {
            for (key, scores) in unique.iter().zip(&computed) {
                cache.insert(key.clone(), ScoreRows::All, Arc::clone(scores));
            }
        }
        for (si, wi, idx) in misses {
            tables[si][wi] = Some(Arc::clone(&computed[idx]));
        }
        // Per-session verdict walk over the precomputed scores — the same
        // scan (and therefore the same verdicts) as the sequential path.
        sessions
            .iter()
            .zip(plans)
            .zip(tables)
            .map(|((keys, plan), table)| {
                let Some((walk, starts)) = plan else {
                    return Detection {
                        abnormal: false,
                        first_anomaly: None,
                        positions_checked: 0,
                    };
                };
                let mut out = Vec::new();
                let mut next_t = walk.first;
                for (wi, &start) in starts.iter().enumerate() {
                    let scores = table[wi].as_ref().expect("window scores resolved");
                    // Batch-resolved windows cannot report per-lookup hit
                    // flags; diagnostics are a streaming-path concern.
                    if self.scan_block_window(
                        keys,
                        &walk,
                        start,
                        scores,
                        None,
                        &mut next_t,
                        &mut out,
                    ) {
                        break;
                    }
                }
                Self::detection_from(&out)
            })
            .collect()
    }
}

/// The front-padded layout of one session's block-mode walk.
struct BlockWalk {
    /// Session keys with `pad` leading `k0`s.
    padded: Vec<u32>,
    /// Number of leading padding keys.
    pad: usize,
    /// First session position to score.
    first: usize,
    /// Model window length.
    window: usize,
}

impl BlockWalk {
    /// Plans the walk for `keys`; `None` when the session is too short to
    /// score any position.
    fn plan(keys: &[u32], from: usize, min_context: usize, window: usize) -> Option<BlockWalk> {
        // Position 0 has no predecessor and cannot be predicted.
        let first = from.max(min_context.max(1));
        if keys.len() <= first {
            return None;
        }
        // Front-pad so window rows line up with session positions.
        let pad = (window + 1).saturating_sub(keys.len());
        let mut padded = vec![0u32; pad];
        padded.extend_from_slice(keys);
        debug_assert!(padded.len() > window);
        Some(BlockWalk {
            padded,
            pad,
            first,
            window,
        })
    }

    /// Start of the window that scores position `next_t` next.
    fn window_start(&self, next_t: usize) -> usize {
        let tp = next_t + self.pad;
        (tp - 1).min(self.padded.len() - self.window)
    }

    /// The full sequence of window starts the watermark walk visits. The
    /// walk depends only on the session length (never on scores), which is
    /// what lets the batched path plan every forward up front.
    fn window_starts(&self, keys_len: usize) -> Vec<usize> {
        let n = self.padded.len();
        let mut starts = Vec::new();
        let mut next_t = self.first;
        while next_t < keys_len {
            let start = self.window_start(next_t);
            starts.push(start);
            // The scan consumes padded positions start+1 ..= min(start+window, n-1).
            next_t = (start + self.window).min(n - 1) - self.pad + 1;
        }
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MaskMode, TransDasConfig};

    /// Two session "themes" (user task types): keys 1-3 cycle and keys 4-6
    /// cycle. Per the paper's negative sampling (keys absent from the
    /// session), the model learns to score foreign-theme keys low in a
    /// given context — the signal top-p detection relies on.
    fn trained_model() -> TransDas {
        let cfg = TransDasConfig {
            vocab_size: 8,
            hidden: 8,
            heads: 2,
            blocks: 2,
            window: 6,
            positional: false,
            mask: MaskMode::TransDas,
            triplet: true,
            margin: 0.5,
            negatives: 2,
            dropout_keep: 1.0,
            lr: 1e-2,
            weight_decay: 1e-5,
            epochs: 40,
            stride: 1,
            batch_size: 16,
            threads: 1,
            seed: 11,
        };
        let mut model = TransDas::new(cfg);
        let sessions: Vec<Vec<u32>> = (0..12)
            .map(|i| {
                let base = if i % 2 == 0 { 1 } else { 4 };
                (0..15).map(|j| base + (j % 3) as u32).collect()
            })
            .collect();
        model.train(&sessions);
        model
    }

    #[test]
    fn normal_cycle_passes_detection() {
        let model = trained_model();
        let det = Detector::new(
            &model,
            DetectorConfig {
                top_p: 3,
                min_context: 2,
                mode: DetectionMode::Streaming,
            },
        );
        let d = det.detect_session(&[1, 2, 3, 1, 2, 3, 1, 2, 3, 1]);
        assert!(
            !d.abnormal,
            "normal session flagged at {:?}",
            d.first_anomaly
        );
        assert_eq!(d.positions_checked, 8);
    }

    #[test]
    fn out_of_intent_key_is_flagged() {
        let model = trained_model();
        let det = Detector::new(
            &model,
            DetectorConfig {
                top_p: 3,
                min_context: 2,
                mode: DetectionMode::Streaming,
            },
        );
        // Key 5 is in the vocabulary but belongs to the other theme: its
        // semantics do not match this session's contextual intent.
        let d = det.detect_session(&[1, 2, 3, 5, 1, 2]);
        assert!(d.abnormal);
        assert_eq!(d.first_anomaly, Some(3));
    }

    #[test]
    fn unseen_key_is_always_abnormal() {
        let model = trained_model();
        for mode in [DetectionMode::Streaming, DetectionMode::Block] {
            let det = Detector::new(
                &model,
                DetectorConfig {
                    top_p: 4,
                    min_context: 2,
                    mode,
                },
            );
            let d = det.detect_session(&[1, 2, 0, 4]);
            assert!(d.abnormal, "mode {:?}", mode);
            assert_eq!(d.first_anomaly, Some(2));
        }
    }

    #[test]
    fn larger_top_p_is_more_permissive() {
        let model = trained_model();
        let keys = [1, 2, 3, 5, 1, 2];
        let flag = |p: usize| {
            Detector::new(
                &model,
                DetectorConfig {
                    top_p: p,
                    min_context: 2,
                    mode: DetectionMode::Streaming,
                },
            )
            .detect_session(&keys)
            .abnormal
        };
        assert!(flag(3), "p=3 should flag a foreign-theme key");
        assert!(!flag(7), "p=vocab should pass everything in-vocab");
    }

    #[test]
    fn block_and_streaming_agree_on_clear_cases() {
        let model = trained_model();
        let normal = [1u32, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3];
        let abnormal = [1u32, 2, 3, 1, 5, 5, 1, 2, 3, 1, 2, 3];
        for (keys, expect) in [(&normal, false), (&abnormal, true)] {
            for mode in [DetectionMode::Streaming, DetectionMode::Block] {
                let det = Detector::new(
                    &model,
                    DetectorConfig {
                        top_p: 3,
                        min_context: 2,
                        mode,
                    },
                );
                assert_eq!(
                    det.detect_session(keys).abnormal,
                    expect,
                    "mode {:?} keys {:?}",
                    mode,
                    keys
                );
            }
        }
    }

    #[test]
    fn sessions_shorter_than_min_context_pass() {
        let model = trained_model();
        let det = Detector::new(&model, DetectorConfig::scenario1());
        let d = det.detect_session(&[1, 2]);
        assert!(!d.abnormal);
        assert_eq!(d.positions_checked, 0);
    }

    #[test]
    fn block_mode_checks_every_position_of_long_sessions() {
        let model = trained_model();
        let det = Detector::new(
            &model,
            DetectorConfig {
                top_p: 7,
                min_context: 2,
                mode: DetectionMode::Block,
            },
        );
        // 20 ops with window 6: all positions >= 2 must be scored.
        let keys: Vec<u32> = (0..20).map(|j| (j % 4) as u32 + 1).collect();
        let d = det.detect_session(&keys);
        assert!(!d.abnormal);
        assert_eq!(d.positions_checked, 18);
    }
}
