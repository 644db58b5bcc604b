//! Flight-recorder integration wall: a Scenario-I serve session with the
//! `UCAD_OBS` event log enabled. Injected A2 (credential-stealing) traffic
//! must produce flight-recorder entries that reference the correct session,
//! shard, position and top-*p* score rank, and the structured event log
//! must carry a matching `serve.alert` line.
//!
//! This file deliberately holds a single `#[test]`: `UCAD_OBS` and the
//! event sink are process-wide (read once), so a sibling test in the same
//! binary would race on them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use ucad::{ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, TransDasConfig};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

/// Event-log sink backed by a shared buffer, so the test can read back the
/// JSON lines the serving engine emitted.
#[derive(Clone, Default)]
struct CaptureSink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for CaptureSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
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
fn flight_recorder_captures_injected_anomaly_context() {
    // Enable the event log before anything reads the (read-once) gate, and
    // capture it instead of spamming stderr.
    std::env::set_var("UCAD_OBS", "1");
    assert!(ucad_obs::obs_enabled());
    let sink = CaptureSink::default();
    ucad_obs::set_event_writer(Box::new(sink.clone()));

    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, 120, 0.0, 11);
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
    let top_p = system.detector.top_p;

    // Five normal sessions plus five A2 sessions (at least one reliably
    // alerts; see the online-detection tests, which catch >= 6/10).
    let mut gen = SessionGenerator::new(spec.clone());
    let synth = AnomalySynthesizer::new(&spec);
    let mut rng = StdRng::seed_from_u64(13);
    let mut sessions: Vec<(Session, bool)> = (0..5)
        .map(|_| (gen.normal_session(&mut rng).session, false))
        .collect();
    for _ in 0..5 {
        let base = gen.normal_session(&mut rng).session;
        let bad = synth.credential_stealing(&base, &mut gen, &mut rng).session;
        sessions.push((bad, true));
    }
    for (i, (s, _)) in sessions.iter_mut().enumerate() {
        s.id = 900 + i as u64;
    }
    let anomalous: Vec<u64> = sessions
        .iter()
        .filter(|(_, bad)| *bad)
        .map(|(s, _)| s.id)
        .collect();

    let mut engine = ShardedOnlineUcad::try_new(
        system,
        ServeConfig {
            shards: 3,
            cache_capacity: 256,
            mode: DetectionMode::Streaming,
            flight_capacity: 32,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let shard_of: Vec<(u64, usize)> = sessions
        .iter()
        .map(|(s, _)| (s.id, engine.shard_of(s.id)))
        .collect();
    for (s, _) in &sessions {
        for r in records_of(s) {
            engine.try_submit(&r).expect("submit");
        }
    }
    for (s, _) in &sessions {
        engine.close_session(s.id);
    }

    let alerts = engine.drain_alerts();
    assert!(
        alerts.iter().any(|a| anomalous.contains(&a.session_id)),
        "no A2 session alerted; alerts: {alerts:?}"
    );

    // Every flight entry must be internally consistent with the engine's
    // routing and the detector's rank rule.
    let entries = engine.flight_entries();
    assert_eq!(
        entries.len(),
        alerts.len(),
        "one flight entry per raised alert"
    );
    let keys_of: Vec<(u64, Vec<u32>)> = sessions
        .iter()
        .map(|(s, _)| {
            (
                s.id,
                s.ops
                    .iter()
                    .map(|op| engine.system().preprocessor.vocab.key_of_sql(&op.sql))
                    .collect(),
            )
        })
        .collect();
    for e in &entries {
        let alert = alerts
            .iter()
            .find(|a| a.session_id == e.session_id)
            .unwrap_or_else(|| panic!("flight entry for unalerted session {}", e.session_id));
        let expected_shard = shard_of
            .iter()
            .find(|(id, _)| *id == e.session_id)
            .map(|(_, sh)| *sh)
            .expect("unknown session in flight entry");
        assert_eq!(e.shard, expected_shard, "entry routed to the wrong shard");
        assert_eq!(e.position, alert.position, "entry/alert position mismatch");
        assert_eq!(format!("{:?}", alert.reason), e.reason);
        match e.reason.as_str() {
            "IntentMismatch" => {
                let rank = e.rank.expect("intent mismatch carries a rank");
                assert!(
                    rank >= top_p,
                    "alerted key ranked {rank}, inside top-{top_p}"
                );
                assert!(e.score.is_some());
                assert!(e.cache_hit.is_some(), "cache enabled, flag must be set");
            }
            "UnknownStatement" => {
                assert_eq!(e.rank, None);
                assert_eq!(e.score, None);
            }
            other => assert!(other.starts_with("Policy("), "odd reason {other}"),
        }
        // The recorded key window must end at the triggering operation's key.
        let keys = &keys_of
            .iter()
            .find(|(id, _)| *id == e.session_id)
            .expect("session keys")
            .1;
        let position = e.position.expect("scored alerts carry a position");
        let expected_window = engine.system().model.pad_window(&keys[..=position]);
        assert_eq!(e.key_window, expected_window, "wrong key window recorded");
        // Latency attribution: every alert here was raised live while
        // scoring a record (Streaming mode never scores at close), so the
        // measured queue wait must be present; and the drain above must
        // have backfilled the raised-to-drained delay.
        let wait = e
            .queue_wait_us
            .expect("live record alerts carry queue wait");
        assert!(wait.is_finite() && wait >= 0.0, "bad queue wait {wait}");
        let delay = e.drain_delay_us.expect("drained alerts carry drain delay");
        assert!(delay.is_finite() && delay >= 0.0, "bad drain delay {delay}");
    }
    // At least one entry must belong to an injected A2 session, and its
    // diagnostics must survive the JSON dump.
    let a2_entry = entries
        .iter()
        .find(|e| anomalous.contains(&e.session_id))
        .expect("no flight entry for an A2 session");
    let dump = engine.dump_flight_json();
    assert!(dump.contains(&format!("\"session_id\":{}", a2_entry.session_id)));
    assert!(
        dump.contains("\"queue_wait_us\":") && dump.contains("\"drain_delay_us\":"),
        "stage timings missing from the JSON dump"
    );

    // The event log must carry a serve.alert line for that session.
    let log = String::from_utf8(sink.0.lock().expect("sink poisoned").clone()).expect("utf8 log");
    assert!(
        log.lines().any(|l| l.contains("\"event\":\"serve.alert\"")
            && l.contains(&format!("\"session_id\":\"{}\"", a2_entry.session_id))),
        "no serve.alert event for session {}; log:\n{log}",
        a2_entry.session_id
    );

    let report = engine.shutdown();
    assert_eq!(report.flight.len(), report.alerts.len() + alerts.len());
}
