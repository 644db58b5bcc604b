//! Online detection service (§3 / §5.3): the deployment loop around a
//! trained [`Ucad`] instance.
//!
//! Audit records arrive one at a time; the service groups them into active
//! sessions, screens each session's attributes against the access-control
//! policies, scores every new operation against the contextual intent of
//! its preceding operations (the paper's streaming `O_L` procedure), and
//! raises [`Alert`]s for a DBA. DBA feedback closes the loop: alerts
//! confirmed as false alarms become verified-normal sessions that the next
//! fine-tuning round learns from (§5.2's concept-drift strategy).

use crate::system::Ucad;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, Detector, OpVerdict, ScoreCache, TrainReport};
use ucad_trace::{Operation, Session};

/// An alert raised for a DBA (§3: "detected abnormal operations may be
/// subsequently sent to a domain expert").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Session that triggered the alert.
    pub session_id: u64,
    /// User of the session.
    pub user: String,
    /// Reason for the alert.
    pub reason: AlertReason,
    /// Raw SQL of the offending operation (when applicable).
    pub sql: Option<String>,
    /// Index of the offending operation within the session.
    pub position: Option<usize>,
    /// True when the verdict came from the cheap degraded-mode fallback
    /// (the serving engine's `Degrade` overload policy) rather than the
    /// full Trans-DAS scoring path. Degraded alerts deserve a second look
    /// once the overload clears.
    pub degraded: bool,
}

/// Why an alert fired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertReason {
    /// The session violated an access-control policy.
    Policy(String),
    /// An operation's key was never seen in training.
    UnknownStatement,
    /// The operation fell outside the top-p contextual intent.
    IntentMismatch,
}

/// Passive hooks onto the serving engine's detection stream, the feed a
/// drift monitor (or any other telemetry consumer) subscribes to via
/// [`crate::ShardedOnlineUcad::try_new_observed`].
///
/// Implementations must be cheap and non-blocking: hooks run inline on the
/// shard worker threads, inside the scoring hot loop. With more than one
/// shard the interleaving of calls across sessions follows worker timing —
/// only the per-session ordering is deterministic — so observers that need
/// reproducible aggregate statistics should be driven by a single-shard
/// engine.
///
/// Every hook has a no-op default, so observers implement only what they
/// consume.
pub trait ServeObserver: Send + Sync {
    /// A record arrived and was tokenized; `key` is the statement key under
    /// the frozen serving vocabulary (`0` = never seen in training).
    fn on_record(&self, key: u32) {
        let _ = key;
    }

    /// A position was scored. `rank` is the operation's top-*p* rank within
    /// its context scores (`None` when the statement is unknown and no rank
    /// exists); `abnormal` is the resulting verdict.
    fn on_score(&self, rank: Option<usize>, abnormal: bool) {
        let _ = (rank, abnormal);
    }

    /// An alert was raised.
    fn on_alert(&self, alert: &Alert) {
        let _ = alert;
    }

    /// A session closed; `alerted` tells whether it ever raised an alert.
    fn on_session_close(&self, alerted: bool) {
        let _ = alerted;
    }

    /// A submitted record finished scoring, identified by the global
    /// arrival sequence number [`crate::serve::ShardedOnlineUcad`] stamped
    /// at submit time. Fired from the shard worker right after the model
    /// (or, for degraded records, the fallback) scored the record — the
    /// completion signal perfbench's open loop keys its end-to-end latency
    /// off.
    /// Shed records never fire it; supervision replay fires it once for
    /// entries the crashed worker had not yet processed.
    fn on_scored(&self, seq: u64) {
        let _ = seq;
    }
}

struct ActiveSession {
    session: Session,
    keys: Vec<u32>,
    /// Global arrival sequence number of each operation (used by the
    /// sharded engine's deterministic alert ordering).
    seqs: Vec<u64>,
    /// Scoring watermark: positions below it have been scored (Block mode
    /// defers scoring until a full model window of positions has arrived).
    scored: usize,
    alerted: bool,
}

/// An [`Alert`] bundled with the diagnostics the serve flight recorder
/// captures: the arrival sequence of the trigger, the top-*p* rank and raw
/// score behind the verdict, whether the scoring forward hit the score memo,
/// and the padded key window that ends at the triggering position. Policy
/// alerts carry no rank/score/cache-hit (no scoring ran).
///
/// Public so external serving engines built on [`SessionTracker`] (the
/// multi-tenant shard pool in `ucad-tenant` is one) can record the same
/// flight diagnostics as [`crate::ShardedOnlineUcad`].
pub struct RaisedAlert {
    /// Global arrival sequence number of the triggering record.
    pub seq: u64,
    /// The alert itself.
    pub alert: Alert,
    /// Top-*p* rank of the offending key (`None` when no rank exists).
    pub rank: Option<usize>,
    /// Raw similarity score of the offending key.
    pub score: Option<f64>,
    /// Whether the scoring forward hit the score memo.
    pub cache_hit: Option<bool>,
    /// The padded key window that ends at the triggering position.
    pub key_window: Vec<u32>,
}

/// Scoring and alerting engine around one partition of sessions: the shared
/// core of [`OnlineUcad`] (a single partition holding every session) and the
/// sharded serving engine in [`crate::serve`] (one partition per worker
/// thread). Keeping both paths on this one implementation is what makes the
/// N-shard output byte-identical to the single-threaded path.
///
/// In [`DetectionMode::Streaming`] every operation is scored on arrival
/// against its preceding context — the paper's §5.3 deployment rule. In
/// [`DetectionMode::Block`] scoring is deferred until a full model window of
/// positions has arrived and one forward pass scores the whole window
/// (~`L`x fewer forwards); the remaining tail is scored when the session
/// closes. Both disciplines are pure functions of each session's record
/// sequence, so results never depend on how records interleave across
/// sessions or on worker timing.
///
/// Public so serving engines outside this crate can build new topologies on
/// the same per-partition state machine — `ucad-tenant` hosts one tracker
/// per `(shard, tenant)` pair behind a shared shard pool, which is what
/// makes its per-tenant output byte-identical to a dedicated single-tenant
/// engine.
pub struct SessionTracker {
    mode: DetectionMode,
    active: HashMap<u64, ActiveSession>,
    verified_normals: Vec<Vec<u32>>,
}

impl SessionTracker {
    /// An empty partition scoring under `mode`.
    pub fn new(mode: DetectionMode) -> Self {
        SessionTracker {
            mode,
            active: HashMap::new(),
            verified_normals: Vec::new(),
        }
    }

    /// Number of currently active (unclosed) sessions.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Whether `session_id` is currently active in this partition — used by
    /// shard supervision to truncate a replayed ring down to the entries
    /// still needed for a future rebuild.
    pub(crate) fn has_session(&self, session_id: u64) -> bool {
        self.active.contains_key(&session_id)
    }

    /// Sessions waiting in the verified-normal feedback buffer.
    pub fn pending_feedback(&self) -> usize {
        self.verified_normals.len()
    }

    fn alert_for(
        system: &Ucad,
        entry: &mut ActiveSession,
        position: usize,
        reason: AlertReason,
        detail: Option<&ucad_model::VerdictDetail>,
    ) -> RaisedAlert {
        entry.alerted = true;
        let op = &entry.session.ops[position];
        RaisedAlert {
            seq: entry.seqs[position],
            alert: Alert {
                session_id: entry.session.id,
                user: entry.session.user.clone(),
                reason,
                sql: Some(op.sql.clone()),
                position: Some(position),
                degraded: false,
            },
            rank: detail.and_then(|d| d.rank),
            score: detail.and_then(|d| d.score).map(f64::from),
            cache_hit: detail.and_then(|d| d.cache_hit),
            key_window: system.model.pad_window(&entry.keys[..=position]),
        }
    }

    /// Scores every pending position whose verdict is already determined
    /// (all of them when `closing`, otherwise only complete Block windows)
    /// and returns the first abnormal one as an alert.
    fn score_pending(
        &mut self,
        system: &Ucad,
        cache: Option<&ScoreCache>,
        observer: Option<&dyn ServeObserver>,
        session_id: u64,
        closing: bool,
    ) -> Option<RaisedAlert> {
        let entry = self.active.get_mut(&session_id)?;
        if entry.alerted {
            return None;
        }
        let detector = Detector::new(&system.model, system.detector);
        let from = entry.scored;
        let until = if closing {
            entry.keys.len()
        } else {
            // Only score positions whose forward window is complete: the
            // window walk over `keys[..until]` then matches the walk the
            // final full-length session would take, making verdicts
            // independent of arrival batching.
            let l = system.model.cfg.window;
            let watermark = from.max(system.detector.min_context.max(1));
            let complete = entry.keys.len().saturating_sub(watermark) / l;
            if complete == 0 {
                return None;
            }
            watermark + complete * l
        };
        if until <= from && !closing {
            return None;
        }
        let verdicts = detector.run_verdicts_detail(&entry.keys[..until], from, cache);
        entry.scored = until;
        if let Some(observer) = observer {
            for v in &verdicts {
                observer.on_score(v.rank, v.verdict.is_abnormal());
            }
        }
        let bad = verdicts.last().filter(|v| v.verdict.is_abnormal())?;
        let reason = match bad.verdict {
            OpVerdict::UnknownStatement => AlertReason::UnknownStatement,
            OpVerdict::IntentMismatch => AlertReason::IntentMismatch,
            OpVerdict::Normal => unreachable!("filtered to abnormal"),
        };
        Some(Self::alert_for(
            system,
            entry,
            bad.position,
            reason,
            Some(bad),
        ))
    }

    /// Feeds one audit record into its session; returns the alert raised by
    /// this operation (paired with the sequence number of the record that
    /// triggered it), if any. A session alerts at most once (the paper
    /// flags the whole session on the first abnormal operation).
    pub fn ingest(
        &mut self,
        system: &Ucad,
        cache: Option<&ScoreCache>,
        observer: Option<&dyn ServeObserver>,
        record: &LogRecord,
        seq: u64,
    ) -> Option<RaisedAlert> {
        let entry = self
            .active
            .entry(record.session_id)
            .or_insert_with(|| ActiveSession {
                session: Session {
                    id: record.session_id,
                    user: record.user.clone(),
                    client_ip: record.client_ip.clone(),
                    ops: Vec::new(),
                },
                keys: Vec::new(),
                seqs: Vec::new(),
                scored: 0,
                alerted: false,
            });
        entry.session.ops.push(Operation {
            sql: record.sql.clone(),
            table: record.table.clone(),
            kind: record.op,
            timestamp: record.timestamp,
        });
        let key = system.preprocessor.vocab.key_of_sql(&record.sql);
        entry.keys.push(key);
        entry.seqs.push(seq);
        if let Some(observer) = observer {
            observer.on_record(key);
        }
        if entry.alerted {
            return None;
        }

        // (1) Known attack patterns: screen the session's attributes so far.
        if let Some(v) = system.preprocessor.screen(&entry.session) {
            let position = entry.session.ops.len() - 1;
            return Some(Self::alert_for(
                system,
                entry,
                position,
                AlertReason::Policy(format!("{v:?}")),
                None,
            ));
        }

        // (2) Contextual intent.
        match self.mode {
            DetectionMode::Streaming => {
                // Score only the newly arrived operation against its
                // preceding window (earlier positions were checked when they
                // arrived): the streaming `O_L` rule of §5.3.
                let t = entry.keys.len() - 1;
                let min_context = system.detector.min_context.max(1);
                if t < min_context {
                    return None;
                }
                entry.scored = t + 1;
                let detector = Detector::new(&system.model, system.detector);
                let detail = detector.streaming_verdict_detail(&entry.keys, t, cache);
                if let Some(observer) = observer {
                    observer.on_score(detail.rank, detail.verdict.is_abnormal());
                }
                let reason = match detail.verdict {
                    OpVerdict::Normal => return None,
                    OpVerdict::UnknownStatement => AlertReason::UnknownStatement,
                    OpVerdict::IntentMismatch => AlertReason::IntentMismatch,
                };
                Some(Self::alert_for(system, entry, t, reason, Some(&detail)))
            }
            DetectionMode::Block => {
                self.score_pending(system, cache, observer, record.session_id, false)
            }
        }
    }

    /// Closes a session: Block mode scores the still-pending tail first (so
    /// closing can itself raise an alert), then unalerted sessions join the
    /// verified-normal feedback buffer.
    pub fn close(
        &mut self,
        system: &Ucad,
        cache: Option<&ScoreCache>,
        observer: Option<&dyn ServeObserver>,
        session_id: u64,
    ) -> Option<RaisedAlert> {
        let alert = match self.mode {
            DetectionMode::Streaming => None,
            DetectionMode::Block => self.score_pending(system, cache, observer, session_id, true),
        };
        if let Some(entry) = self.active.remove(&session_id) {
            if let Some(observer) = observer {
                observer.on_session_close(entry.alerted);
            }
            if !entry.alerted {
                self.verified_normals.push(entry.keys);
            }
        }
        alert
    }

    /// DBA feedback: the alert was a false alarm; the session is verified
    /// normal regardless of its alert state.
    pub fn confirm_false_alarm(&mut self, session_id: u64) {
        if let Some(entry) = self.active.remove(&session_id) {
            self.verified_normals.push(entry.keys);
        }
    }

    /// Hands over (and clears) the verified-normal feedback buffer.
    pub fn take_verified_normals(&mut self) -> Vec<Vec<u32>> {
        std::mem::take(&mut self.verified_normals)
    }

    /// Serializes the partition into its durable image. Sessions are sorted
    /// by id so the same logical state always produces the same bytes —
    /// snapshot content must not depend on `HashMap` iteration order.
    pub(crate) fn export_state(&self) -> TrackerState {
        let mut sessions: Vec<SessionState> = self
            .active
            .values()
            .map(|e| SessionState {
                session: e.session.clone(),
                keys: e.keys.clone(),
                seqs: e.seqs.clone(),
                scored: e.scored,
                alerted: e.alerted,
            })
            .collect();
        sessions.sort_by_key(|s| s.session.id);
        TrackerState {
            sessions,
            verified_normals: self.verified_normals.clone(),
        }
    }

    /// Rebuilds a partition from a durable image (crash recovery and the
    /// supervision base state).
    pub(crate) fn import_state(mode: DetectionMode, state: TrackerState) -> Self {
        let active = state
            .sessions
            .into_iter()
            .map(|s| {
                (
                    s.session.id,
                    ActiveSession {
                        session: s.session,
                        keys: s.keys,
                        seqs: s.seqs,
                        scored: s.scored,
                        alerted: s.alerted,
                    },
                )
            })
            .collect();
        SessionTracker {
            mode,
            active,
            verified_normals: state.verified_normals,
        }
    }
}

/// The durable image of one [`ActiveSession`]: what a WAL snapshot stores
/// per in-flight session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SessionState {
    pub(crate) session: Session,
    pub(crate) keys: Vec<u32>,
    pub(crate) seqs: Vec<u64>,
    pub(crate) scored: usize,
    pub(crate) alerted: bool,
}

/// The durable image of a whole [`SessionTracker`] partition, sessions
/// sorted by id (see [`SessionTracker::export_state`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct TrackerState {
    pub(crate) sessions: Vec<SessionState>,
    pub(crate) verified_normals: Vec<Vec<u32>>,
}

/// The deployment wrapper: per-session state, alerting, and the verified-
/// normal feedback buffer.
pub struct OnlineUcad {
    system: Ucad,
    tracker: SessionTracker,
    alerts: Vec<Alert>,
    next_seq: u64,
}

impl OnlineUcad {
    /// Wraps a trained system.
    pub fn new(system: Ucad) -> Self {
        OnlineUcad {
            system,
            tracker: SessionTracker::new(DetectionMode::Streaming),
            alerts: Vec::new(),
            next_seq: 0,
        }
    }

    /// Read access to the wrapped system.
    pub fn system(&self) -> &Ucad {
        &self.system
    }

    /// Alerts raised so far (most recent last).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of currently active sessions.
    pub fn active_sessions(&self) -> usize {
        self.tracker.active_sessions()
    }

    /// Sessions queued for the next fine-tuning round.
    pub fn pending_feedback(&self) -> usize {
        self.tracker.pending_feedback()
    }

    /// Feeds one audit record into its session; returns the alert raised by
    /// this operation, if any. A session alerts at most once (the paper
    /// flags the whole session on the first abnormal operation).
    pub fn observe(&mut self, record: &LogRecord) -> Option<Alert> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let raised = self.tracker.ingest(&self.system, None, None, record, seq)?;
        self.alerts.push(raised.alert.clone());
        Some(raised.alert)
    }

    /// Closes a session. Unalerted sessions are verified normal by the
    /// system itself and join the feedback buffer; alerted sessions await
    /// DBA diagnosis (see [`OnlineUcad::confirm_false_alarm`]).
    pub fn close_session(&mut self, session_id: u64) {
        if let Some(raised) = self.tracker.close(&self.system, None, None, session_id) {
            self.alerts.push(raised.alert);
        }
    }

    /// DBA feedback: the alert on `session_id` was a false alarm; the
    /// session is verified normal and will be learned from (§5.3: "false
    /// alarms will be incorporated with the verified normal sessions for
    /// the next round of Trans-DAS training").
    pub fn confirm_false_alarm(&mut self, session_id: u64) {
        self.tracker.confirm_false_alarm(session_id);
    }

    /// Runs one fine-tuning round over the accumulated verified-normal
    /// sessions and clears the buffer. Returns `None` when there is no
    /// feedback to learn from.
    pub fn retrain_from_feedback(&mut self, epochs: usize) -> Option<TrainReport> {
        if self.tracker.pending_feedback() == 0 {
            return None;
        }
        let sessions = self.tracker.take_verified_normals();
        Some(self.system.model.fine_tune(&sessions, epochs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::UcadConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucad_model::TransDasConfig;
    use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, SessionGenerator};

    fn online_system(seed: u64) -> (OnlineUcad, ScenarioSpec) {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 120, 0.0, seed);
        let mut cfg = UcadConfig::scenario1();
        cfg.model = TransDasConfig {
            hidden: 8,
            heads: 2,
            blocks: 2,
            window: 12,
            epochs: 12,
            ..cfg.model
        };
        let (system, _) = Ucad::train(&raw.sessions, cfg);
        (OnlineUcad::new(system), spec)
    }

    fn records_of(session: &Session) -> Vec<LogRecord> {
        session
            .ops
            .iter()
            .map(|op| LogRecord {
                timestamp: op.timestamp,
                user: session.user.clone(),
                client_ip: session.client_ip.clone(),
                session_id: session.id,
                sql: op.sql.clone(),
                table: op.table.clone(),
                op: op.kind,
                rows: 0,
            })
            .collect()
    }

    #[test]
    fn streams_normal_sessions_without_mostly_alerting() {
        let (mut online, spec) = online_system(700);
        let mut gen = SessionGenerator::new(spec);
        let mut rng = StdRng::seed_from_u64(701);
        let mut alerted = 0;
        for _ in 0..10 {
            let s = gen.normal_session(&mut rng).session;
            for r in records_of(&s) {
                online.observe(&r);
            }
            if online.alerts().iter().any(|a| a.session_id == s.id) {
                alerted += 1;
            }
            online.close_session(s.id);
        }
        assert!(alerted <= 4, "too many online false alarms: {alerted}/10");
        assert_eq!(online.active_sessions(), 0);
        assert!(online.pending_feedback() >= 6);
    }

    #[test]
    fn alerts_fire_on_injected_anomalies_and_stop_after_first() {
        let (mut online, spec) = online_system(702);
        let mut gen = SessionGenerator::new(spec.clone());
        let synth = AnomalySynthesizer::new(&spec);
        let mut rng = StdRng::seed_from_u64(703);
        let mut caught = 0;
        for _ in 0..10 {
            let base = gen.normal_session(&mut rng).session;
            let bad = synth.credential_stealing(&base, &mut gen, &mut rng).session;
            let before = online.alerts().len();
            let mut fired = 0;
            for r in records_of(&bad) {
                if online.observe(&r).is_some() {
                    fired += 1;
                }
            }
            assert!(fired <= 1, "a session alerted more than once");
            if online.alerts().len() > before {
                caught += 1;
            }
            online.close_session(bad.id);
        }
        assert!(
            caught >= 6,
            "online detector caught only {caught}/10 A2 sessions"
        );
    }

    #[test]
    fn policy_violations_alert_with_policy_reason() {
        let (mut online, spec) = online_system(704);
        let mut gen = SessionGenerator::new(spec);
        let mut rng = StdRng::seed_from_u64(705);
        let v = gen.noise_policy_violation(&mut rng).session;
        let mut reasons = Vec::new();
        for r in records_of(&v) {
            if let Some(a) = online.observe(&r) {
                reasons.push(a.reason);
            }
        }
        assert!(
            matches!(reasons.first(), Some(AlertReason::Policy(_))),
            "expected a policy alert, got {reasons:?}"
        );
    }

    #[test]
    fn false_alarm_feedback_flows_into_fine_tuning() {
        let (mut online, spec) = online_system(706);
        let mut gen = SessionGenerator::new(spec);
        let mut rng = StdRng::seed_from_u64(707);
        // Feed a few sessions; whatever alerts is confirmed false by the DBA.
        let mut ids = Vec::new();
        for _ in 0..5 {
            let s = gen.normal_session(&mut rng).session;
            ids.push(s.id);
            for r in records_of(&s) {
                online.observe(&r);
            }
        }
        for id in ids {
            // Either path lands the session in the feedback buffer.
            online.confirm_false_alarm(id);
            online.close_session(id);
        }
        assert_eq!(online.pending_feedback(), 5);
        let report = online.retrain_from_feedback(2).expect("feedback available");
        assert_eq!(report.epoch_losses.len(), 2);
        assert_eq!(online.pending_feedback(), 0);
        assert!(online.retrain_from_feedback(2).is_none());
    }

    #[test]
    fn unknown_statements_raise_unknown_statement_alerts() {
        let (mut online, spec) = online_system(708);
        let mut gen = SessionGenerator::new(spec);
        // Seed picked so the unmodified session replays clean under the
        // vendored RNG stream; the injected statement below must then be
        // the first (and only) alert.
        let mut rng = StdRng::seed_from_u64(711);
        let mut s = gen.normal_session(&mut rng).session;
        let mid = s.len() / 2;
        s.ops[mid].sql = "DELETE FROM t_shadow WHERE id=9".into();
        let mut got = None;
        for r in records_of(&s) {
            if let Some(a) = online.observe(&r) {
                got = Some(a);
                break;
            }
        }
        let alert = got.expect("unknown statement must alert");
        assert_eq!(alert.reason, AlertReason::UnknownStatement);
        assert_eq!(alert.position, Some(mid));
    }
}
