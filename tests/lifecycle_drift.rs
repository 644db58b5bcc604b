//! Drift-detection golden wall: a fully seeded single-shard serving run
//! with a [`DriftMonitor`] attached. An unshifted workload (the scenario
//! the model was trained on) must raise **zero** drift alarms and its
//! [`DriftSnapshot`] is pinned in `tests/golden/scenario1_drift.json`; a
//! shifted workload (sessions from a different application, which tokenize
//! to the unknown key under the frozen vocabulary) must alarm.
//!
//! One shard is load-bearing: drift statistics fold over the observer call
//! sequence, which is deterministic only when a single worker consumes the
//! stream in submission order.
//!
//! Regenerate the fixture intentionally with:
//! `UCAD_BLESS=1 cargo test --test lifecycle_drift`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use ucad::{ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_life::{DriftBaseline, DriftConfig, DriftMonitor, DriftSnapshot};
use ucad_model::TransDasConfig;
use ucad_trace::{generate_raw_log, ScenarioSpec, Session, SessionGenerator};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario1_drift.json"
);
const TOLERANCE: f64 = 1e-6;

/// Trained system plus its drift baseline, derived from a seeded
/// verified-normal corpus tokenized under the frozen vocabulary.
fn trained() -> &'static (Ucad, ScenarioSpec, DriftBaseline) {
    static SYSTEM: OnceLock<(Ucad, ScenarioSpec, DriftBaseline)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 120, 0.0, 733);
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
        let mut gen = SessionGenerator::new(spec.clone());
        let mut rng = StdRng::seed_from_u64(1234);
        let corpus: Vec<Vec<u32>> = (0..40)
            .map(|_| {
                system
                    .preprocessor
                    .transform(&gen.normal_session(&mut rng).session)
            })
            .collect();
        let baseline = DriftBaseline::from_keyed_sessions(&system, &corpus, 8)
            .expect("baseline from non-empty corpus");
        (system, spec, baseline)
    })
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

/// Seeded interleaved stream drawn from `spec` — the drift source is
/// selected by which scenario the sessions come from.
fn stream_from(spec: &ScenarioSpec, seed: u64, sessions: usize) -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(spec.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..sessions {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 50_000 + i as u64;
        ids.push(s.id);
        queues.push(records_of(&s));
    }
    let mut stream = Vec::new();
    let mut cursors = vec![0usize; queues.len()];
    loop {
        let open: Vec<usize> = (0..queues.len())
            .filter(|&q| cursors[q] < queues[q].len())
            .collect();
        if open.is_empty() {
            break;
        }
        let q = open[rng.gen_range(0..open.len())];
        stream.push(queues[q][cursors[q]].clone());
        cursors[q] += 1;
    }
    (stream, ids)
}

fn drift_config() -> DriftConfig {
    DriftConfig {
        window: 128,
        // The 40-session baseline undersamples rare rank buckets, and with
        // PSI's 1e-4 flooring a handful of live occurrences in such a bucket
        // contributes ~0.1 each — so a calm window can sit well above the
        // conventional 0.25. A shifted workload lands around 4–8 (most mass
        // moves to the unranked bucket), so 0.75 separates cleanly.
        psi_threshold: 0.75,
        ..DriftConfig::default()
    }
}

/// Runs a stream through a single-shard observed engine and returns the
/// monitor's snapshot.
fn monitored_run(spec: &ScenarioSpec, seed: u64, sessions: usize) -> DriftSnapshot {
    let (system, _, baseline) = trained();
    let monitor =
        Arc::new(DriftMonitor::new(drift_config(), baseline.clone()).expect("valid drift config"));
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let mut engine = ShardedOnlineUcad::try_new_full(
        system.clone(),
        cfg,
        Some(Arc::clone(&monitor) as Arc<dyn ucad::ServeObserver>),
        None,
    )
    .expect("single-shard engine");
    let (stream, ids) = stream_from(spec, seed, sessions);
    for r in &stream {
        engine.try_submit(r).expect("submit");
    }
    for &id in &ids {
        engine.close_session(id);
    }
    engine.flush();
    let snapshot = monitor.snapshot();
    drop(engine.shutdown());
    snapshot
}

fn assert_close(name: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOLERANCE,
        "drift statistic `{name}` drifted: got {got}, fixture has {want} (|Δ| > {TOLERANCE})"
    );
}

/// The golden wall: the unshifted workload's snapshot is pinned exactly
/// (counters) and to 1e-6 (floats), and raises zero alarms.
#[test]
fn unshifted_workload_matches_golden_snapshot() {
    let (_, spec, _) = trained();
    let got = monitored_run(spec, 2026, 24);
    if std::env::var_os("UCAD_BLESS").is_some() {
        let json = serde_json::to_string(&got).expect("serialize snapshot");
        std::fs::write(FIXTURE, json + "\n").expect("write fixture");
        eprintln!("blessed new fixture at {FIXTURE}");
        return;
    }
    let raw = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); run once with UCAD_BLESS=1 to create it")
    });
    let want: DriftSnapshot = serde_json::from_str(&raw).expect("parse fixture");

    assert_eq!(got.records, want.records, "record count drifted");
    assert_eq!(got.unseen, want.unseen, "unseen-key count drifted");
    assert_eq!(got.scored, want.scored, "scored-position count drifted");
    assert_eq!(got.sessions, want.sessions, "session count drifted");
    assert_eq!(
        got.alerted_sessions, want.alerted_sessions,
        "alerted-session count drifted"
    );
    assert_eq!(got.alarms, want.alarms, "alarm count drifted");
    assert_close("alert_rate_ewma", got.alert_rate_ewma, want.alert_rate_ewma);
    assert_close(
        "last_unseen_ratio",
        got.last_unseen_ratio,
        want.last_unseen_ratio,
    );
    assert_close("last_psi", got.last_psi, want.last_psi);

    // Fixture sanity: the run must be substantial and calm — guard against
    // blessing a vacuous (empty) or already-drifted snapshot.
    assert!(
        want.records >= 128,
        "fixture saw only {} records",
        want.records
    );
    assert!(
        want.sessions >= 20,
        "fixture closed only {} sessions",
        want.sessions
    );
    assert_eq!(
        want.alarms, 0,
        "fixture alarms on its own training scenario"
    );
    assert!(
        want.last_psi < drift_config().psi_threshold,
        "fixture PSI {} is already past the alarm threshold",
        want.last_psi
    );
}

/// The detection side of the wall: a workload from a different application
/// (unknown statements under the frozen vocabulary) must raise an alarm.
#[test]
fn shifted_workload_raises_a_drift_alarm() {
    let shifted_spec = ScenarioSpec::location_service();
    let snapshot = monitored_run(&shifted_spec, 2027, 24);
    assert!(
        snapshot.alarms > 0,
        "location-service traffic on a commenting-trained model raised no \
         drift alarm: {snapshot:?}"
    );
    assert!(
        snapshot.unseen > 0,
        "shifted workload produced no unseen keys — the drift source is broken"
    );
}

/// Determinism of the statistics themselves: two identical single-shard
/// runs must produce bit-identical snapshots.
#[test]
fn drift_snapshot_is_reproducible() {
    let (_, spec, _) = trained();
    let a = monitored_run(spec, 7, 12);
    let b = monitored_run(spec, 7, 12);
    assert_eq!(a, b, "single-shard drift statistics are nondeterministic");
}
