//! The load generator: one submitter thread replaying a recorded stream of
//! audit records and session closes into a serving target, either as fast
//! as the target accepts (closed loop) or on a fixed schedule (open loop).

use crate::schedule;
use crate::tracing::Tracer;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use ucad::{Admission, Alert, ServeObserver, ServeStats, SubmitOutcome, UcadError};
use ucad_dbsim::LogRecord;
use ucad_tenant::TenantShardPool;

/// One element of a replayed stream. `tenant` is ignored by single-model
/// targets.
#[derive(Debug, Clone)]
pub enum Event {
    Record { tenant: u64, record: LogRecord },
    Close { tenant: u64, session_id: u64 },
}

/// A replayable stream made of blocks. Every session starts and ends inside
/// one block, so any prefix of whole blocks is itself a complete stream and
/// its alerts are exactly the full stream's alerts on the same sessions.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    pub events: Vec<Event>,
    /// Exclusive event index at which each block ends.
    pub block_ends: Vec<usize>,
    /// `(session, truly abnormal)` for every session, in first-seen order.
    pub labels: Vec<(u64, bool)>,
}

impl Stream {
    /// Appends one block: `sessions` (records plus label) interleaved by
    /// `order`, a sequence of session indices naming whose next record goes
    /// next; each session is closed right after its last record.
    pub fn push_block(
        &mut self,
        tenant_of: impl Fn(usize) -> u64,
        sessions: &[(Vec<LogRecord>, bool)],
        order: &[usize],
    ) {
        let mut cursor = vec![0usize; sessions.len()];
        for &s in order {
            let (records, _) = &sessions[s];
            let record = records[cursor[s]].clone();
            let session_id = record.session_id;
            cursor[s] += 1;
            self.events.push(Event::Record {
                tenant: tenant_of(s),
                record,
            });
            if cursor[s] == records.len() {
                self.events.push(Event::Close {
                    tenant: tenant_of(s),
                    session_id,
                });
            }
        }
        debug_assert!(cursor.iter().zip(sessions).all(|(c, s)| *c == s.0.len()));
        for (records, abnormal) in sessions {
            self.labels.push((records[0].session_id, *abnormal));
        }
        self.block_ends.push(self.events.len());
    }

    pub fn records(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Record { .. }))
            .count()
    }

    pub fn sessions(&self) -> usize {
        self.labels.len()
    }

    /// The shortest prefix of whole blocks holding at least `min_records`
    /// records (the whole stream when it is shorter).
    pub fn prefix(&self, min_records: usize) -> Stream {
        let mut out = Stream::default();
        let mut start = 0;
        let mut label_at = 0;
        for &end in &self.block_ends {
            if out.records() >= min_records {
                break;
            }
            out.events.extend_from_slice(&self.events[start..end]);
            out.block_ends.push(out.events.len());
            let ids: BTreeSet<u64> = self.events[start..end]
                .iter()
                .filter_map(|e| match e {
                    Event::Close { session_id, .. } => Some(*session_id),
                    Event::Record { .. } => None,
                })
                .collect();
            while label_at < self.labels.len() && ids.contains(&self.labels[label_at].0) {
                out.labels.push(self.labels[label_at]);
                label_at += 1;
            }
            start = end;
        }
        out
    }

    pub fn session_ids(&self) -> BTreeSet<u64> {
        self.labels.iter().map(|(s, _)| *s).collect()
    }
}

/// A serving system the generator can drive.
pub trait Target {
    fn submit(&mut self, tenant: u64, record: &LogRecord) -> Result<SubmitOutcome, UcadError>;
    fn close(&mut self, tenant: u64, session_id: u64) -> Result<(), UcadError>;
    fn drain(&mut self) -> Result<Vec<Alert>, UcadError>;
    fn stats(&mut self) -> Result<ServeStats, UcadError>;
}

/// Any single-model [`Admission`] (in-process engine or network client).
pub struct One<A>(pub A);

impl<A: Admission> Target for One<A> {
    fn submit(&mut self, _tenant: u64, record: &LogRecord) -> Result<SubmitOutcome, UcadError> {
        self.0.try_submit(record)
    }
    fn close(&mut self, _tenant: u64, session_id: u64) -> Result<(), UcadError> {
        self.0.close_session(session_id)
    }
    fn drain(&mut self) -> Result<Vec<Alert>, UcadError> {
        self.0.drain_alerts()
    }
    fn stats(&mut self) -> Result<ServeStats, UcadError> {
        self.0.stats()
    }
}

impl Target for TenantShardPool {
    fn submit(&mut self, tenant: u64, record: &LogRecord) -> Result<SubmitOutcome, UcadError> {
        self.try_submit(tenant, record)
    }
    fn close(&mut self, tenant: u64, session_id: u64) -> Result<(), UcadError> {
        self.close_session(tenant, session_id)
    }
    fn drain(&mut self) -> Result<Vec<Alert>, UcadError> {
        self.drain_alerts()
    }
    fn stats(&mut self) -> Result<ServeStats, UcadError> {
        TenantShardPool::stats(self)
    }
}

/// Completion clock: the engine's `on_scored(seq)` hook stamps when each
/// record finished scoring, in nanoseconds since `origin` (0 = never).
pub struct Completions {
    origin: Instant,
    done: Vec<AtomicU64>,
}

impl Completions {
    pub fn new(records: usize) -> Self {
        Completions {
            origin: Instant::now(),
            done: (0..records).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Completion time of record `seq`, if it completed.
    pub fn at(&self, seq: usize) -> Option<u64> {
        // Relaxed: a statistic; the drain that precedes every read is a
        // full barrier with the shard workers.
        match self.done[seq].load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }
}

impl ServeObserver for Completions {
    fn on_scored(&self, seq: u64) {
        if let Some(slot) = self.done.get(seq as usize) {
            let t = (self.origin.elapsed().as_nanos() as u64).max(1);
            slot.store(t, Ordering::Relaxed);
        }
    }
}

/// Submission accounting of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub submitted: u64,
    pub accepted: u64,
    pub shed: u64,
    pub degraded: u64,
    pub failed: u64,
}

impl Accounting {
    fn count(&mut self, outcome: &Result<SubmitOutcome, UcadError>) {
        self.submitted += 1;
        match outcome {
            Ok(SubmitOutcome::Accepted) => self.accepted += 1,
            Ok(SubmitOutcome::Shed) => self.shed += 1,
            Ok(SubmitOutcome::Degraded) => self.degraded += 1,
            Err(_) => self.failed += 1,
        }
    }

    /// The lossless-serving gate: every submission accounted exactly once,
    /// none shed, degraded or failed, and the engine agrees.
    pub fn check(&self, stats: &ServeStats) -> Result<(), String> {
        if self.accepted + self.shed + self.degraded + self.failed != self.submitted {
            return Err(format!("outcomes do not partition submissions: {self:?}"));
        }
        if self.shed != 0 || self.degraded != 0 || self.failed != 0 {
            return Err(format!("lossy phase under Block policy: {self:?}"));
        }
        if stats.records_shed != 0 || stats.records_degraded != 0 {
            return Err(format!(
                "engine counted shed {} / degraded {}",
                stats.records_shed, stats.records_degraded
            ));
        }
        Ok(())
    }
}

/// What one pass over a stream produced.
pub struct Pass {
    pub elapsed: Duration,
    pub alerts: Vec<Alert>,
    pub accounting: Accounting,
    pub stats: ServeStats,
    /// Open loop only: scheduled-send-to-scored latency per record (ns).
    pub latency_ns: Vec<u64>,
    /// Open loop only: how late each send started (ns).
    pub lateness_ns: Vec<u64>,
}

fn replay_event<T: Target>(
    target: &mut T,
    event: &Event,
    acct: &mut Accounting,
    tracer: &mut Tracer,
    layer: &'static str,
) -> Result<(), UcadError> {
    match event {
        Event::Record { tenant, record } => {
            tracer.begin(layer);
            let outcome = target.submit(*tenant, record);
            tracer.end();
            acct.count(&outcome);
            outcome.map(|_| ())
        }
        Event::Close { tenant, session_id } => {
            tracer.span("close", || target.close(*tenant, *session_id))
        }
    }
}

/// Closed loop: submit the whole stream as fast as the target accepts
/// (Block policy backpressure), closing sessions as they end, then drain.
/// Times first submit to drain return. Submit spans are named `layer`.
pub fn closed_pass<T: Target>(
    target: &mut T,
    stream: &Stream,
    tracer: &mut Tracer,
    layer: &'static str,
) -> Result<Pass, UcadError> {
    let mut acct = Accounting::default();
    tracer.begin("pass");
    let start = Instant::now();
    for event in &stream.events {
        replay_event(target, event, &mut acct, tracer, layer)?;
    }
    let alerts = tracer.span("drain", || target.drain())?;
    let elapsed = start.elapsed();
    tracer.end();
    let stats = target.stats()?;
    Ok(Pass {
        elapsed,
        alerts,
        accounting: acct,
        stats,
        latency_ns: Vec::new(),
        lateness_ns: Vec::new(),
    })
}

/// Open loop: records are sent on a constant-rate schedule fixed in
/// advance (closes go out right behind their session's last record);
/// latency runs from each record's due time to the engine's `on_scored`.
/// The target must number records from 0 in stream order and report to
/// `done`.
pub fn open_pass<T: Target>(
    target: &mut T,
    stream: &Stream,
    rate: f64,
    done: &Completions,
) -> Result<Pass, UcadError> {
    let records = stream.records();
    // Start the schedule a little after "now" on the completion clock.
    let base = done.origin().elapsed().as_nanos() as u64 + 1_000_000;
    let due: Vec<u64> = schedule::constant_rate(records, rate)
        .into_iter()
        .map(|d| d + base)
        .collect();
    // Each scheduled slot sends one record plus any closes that follow it.
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(records);
    let mut i = 0;
    while i < stream.events.len() {
        let from = i;
        i += 1;
        while i < stream.events.len() && matches!(stream.events[i], Event::Close { .. }) {
            i += 1;
        }
        slots.push((from, i));
    }
    let mut acct = Accounting::default();
    let mut error = None;
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    let lateness = schedule::run(done.origin(), &due, |slot| {
        if error.is_some() {
            return;
        }
        let (from, to) = slots[slot];
        for event in &stream.events[from..to] {
            if let Err(e) = replay_event(target, event, &mut acct, &mut tracer, "submit") {
                error = Some(e);
                return;
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let alerts = target.drain()?;
    let elapsed = start.elapsed();
    let stats = target.stats()?;
    let mut latency = Vec::with_capacity(records);
    for (seq, &d) in due.iter().enumerate() {
        match done.at(seq) {
            Some(t) => latency.push(t.saturating_sub(d)),
            None => {
                return Err(UcadError::protocol(format!(
                    "record {seq} was never reported scored"
                )))
            }
        }
    }
    Ok(Pass {
        elapsed,
        alerts,
        accounting: acct,
        stats,
        latency_ns: latency,
        lateness_ns: lateness,
    })
}

/// Byte image of an alert stream, for identity gates.
pub fn alert_bytes(alerts: &[Alert]) -> String {
    serde_json::to_string(alerts).expect("alerts serialize")
}

/// `alerts` restricted to `sessions`, order kept.
pub fn alerts_of(alerts: &[Alert], sessions: &BTreeSet<u64>) -> Vec<Alert> {
    alerts
        .iter()
        .filter(|a| sessions.contains(&a.session_id))
        .cloned()
        .collect()
}

/// Sessions that raised at least one alert.
pub fn flagged(alerts: &[Alert]) -> BTreeSet<u64> {
    alerts.iter().map(|a| a.session_id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad_dbsim::OpKind;

    fn rec(session_id: u64, i: u64) -> LogRecord {
        LogRecord {
            timestamp: i,
            user: "u".into(),
            client_ip: "ip".into(),
            session_id,
            sql: format!("SELECT {i}"),
            table: "t".into(),
            op: OpKind::Select,
            rows: 0,
        }
    }

    #[test]
    fn blocks_close_sessions_after_their_last_record_and_prefix_whole_blocks() {
        let mut s = Stream::default();
        let a = vec![rec(1, 0), rec(1, 1)];
        let b = vec![rec(2, 0)];
        s.push_block(|_| 0, &[(a, true), (b, false)], &[0, 1, 0]);
        s.push_block(|_| 0, &[(vec![rec(3, 0)], false)], &[0]);
        assert_eq!(s.records(), 4);
        assert_eq!(s.events.len(), 7);
        assert!(matches!(s.events[2], Event::Close { session_id: 2, .. }));
        assert!(matches!(s.events[4], Event::Close { session_id: 1, .. }));
        let p = s.prefix(1);
        assert_eq!(p.records(), 3);
        assert_eq!(p.labels, vec![(1, true), (2, false)]);
        assert_eq!(s.prefix(4).labels.len(), 3);
    }
}
