//! Golden observability wall: a fully seeded Scenario-I train + serve run
//! whose *counter* metrics — preprocessing session fates, training steps,
//! model forwards, serve records/alerts, cache hits/misses, flight-recorder
//! totals — are pinned in `tests/golden/scenario1_obs.json`. Counters are
//! integer event counts of a deterministic pipeline (single shard, single
//! training thread), so a correct build reproduces the fixture exactly;
//! any drift in preprocessing, training, scoring, caching or alerting shows
//! up as a diff here. Histograms and gauges carry wall-clock durations and
//! float values, so they are validated structurally instead of pinned.
//!
//! This file deliberately holds a single `#[test]`: the global registry is
//! process-wide, and a sibling test in the same binary would pollute the
//! training-side counters.
//!
//! Regenerate the fixture intentionally with:
//! `UCAD_BLESS=1 cargo test --test golden_obs`

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucad::{ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, TransDasConfig};
use ucad_obs::{MetricKind, MetricSnapshot, Registry};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario1_obs.json"
);

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

/// Renders every counter of a registry as sorted `"<scope>:<name>{labels}": n`
/// JSON members. Only counters are pinned: they count discrete events and
/// are exactly reproducible, while histograms/gauges carry timings.
fn counter_lines(scope: &str, snapshot: &[MetricSnapshot]) -> Vec<String> {
    let mut lines: Vec<String> = snapshot
        .iter()
        .filter(|m| m.kind == MetricKind::Counter)
        .map(|m| {
            format!(
                "  \"{scope}:{}{}\": {}",
                m.name,
                m.labels,
                m.counter.expect("counter snapshot")
            )
        })
        .collect();
    lines.sort();
    lines
}

/// Structural histogram validation: bucket counts must sum to the observation
/// count, bounds must be strictly increasing, and the sum must be finite.
fn check_histograms(scope: &str, snapshot: &[MetricSnapshot]) {
    for m in snapshot.iter().filter(|m| m.kind == MetricKind::Histogram) {
        let h = m.histogram.as_ref().expect("histogram snapshot");
        let id = format!("{scope}:{}{}", m.name, m.labels);
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.count,
            "{id}: bucket counts do not sum to count"
        );
        assert_eq!(
            h.buckets.len(),
            h.bounds.len() + 1,
            "{id}: missing +Inf bucket"
        );
        assert!(
            h.bounds.windows(2).all(|w| w[0] < w[1]),
            "{id}: bounds not strictly increasing"
        );
        assert!(h.sum.is_finite() && h.sum >= 0.0, "{id}: bad sum {}", h.sum);
    }
}

fn span_count(registry: &Registry, span: &str) -> u64 {
    registry
        .snapshot()
        .iter()
        .find(|m| {
            m.name == "ucad_span_duration_seconds" && m.labels.contains(&format!("\"{span}\""))
        })
        .and_then(|m| m.histogram.as_ref().map(|h| h.count))
        .unwrap_or(0)
}

#[test]
fn scenario1_obs_counters_match_golden_fixture() {
    // -- Seeded Scenario-I pipeline: train, then serve an interleaved
    //    stream with one injected A2 (credential-stealing) session. Single
    //    shard + single training thread keep every counter deterministic.
    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, 80, 0.0, 2026);
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
    let synth = AnomalySynthesizer::new(&spec);
    let mut rng = StdRng::seed_from_u64(77);
    let mut sessions: Vec<Session> = (0..5)
        .map(|_| gen.normal_session(&mut rng).session)
        .collect();
    let victim = gen.normal_session(&mut rng).session;
    sessions.push(
        synth
            .credential_stealing(&victim, &mut gen, &mut rng)
            .session,
    );
    for (i, s) in sessions.iter_mut().enumerate() {
        s.id = 500 + i as u64;
    }

    let engine_cfg = ServeConfig {
        shards: 1, // multi-shard cache hit/miss interleaving is timing-dependent
        cache_capacity: 256,
        mode: DetectionMode::Block,
        flight_capacity: 64,
        ..ServeConfig::default()
    };
    let mut engine = ShardedOnlineUcad::try_new(system, engine_cfg).expect("valid serve config");
    let queues: Vec<Vec<LogRecord>> = sessions.iter().map(records_of).collect();
    let longest = queues.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for q in &queues {
            if let Some(r) = q.get(i) {
                engine.try_submit(r).expect("submit");
            }
        }
    }
    for s in &sessions {
        engine.close_session(s.id);
    }
    engine.flush();

    // -- Structural validation of the non-pinned families.
    let global_snapshot = ucad_obs::global().snapshot();
    let engine_snapshot = engine.registry().snapshot();
    check_histograms("global", &global_snapshot);
    check_histograms("engine", &engine_snapshot);
    for span in [
        "preprocess.fit",
        "preprocess.ngram",
        "preprocess.dbscan",
        "train.epoch",
        "model.forward",
        "model.attention",
        "model.ffn",
        "nn.backward",
        "nn.optim.step",
    ] {
        assert!(
            span_count(ucad_obs::global(), span) > 0,
            "span `{span}` never fired"
        );
    }

    // -- Pin every counter of both registries.
    let mut lines = counter_lines("global", &global_snapshot);
    lines.extend(counter_lines("engine", &engine_snapshot));
    let got = format!("{{\n{}\n}}\n", lines.join(",\n"));

    let report = engine.shutdown();
    assert!(report.worker_panics.is_empty(), "worker panicked");
    assert!(
        !report.flight.is_empty(),
        "expected at least one flight-recorder entry for the A2 session"
    );

    if std::env::var_os("UCAD_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("blessed new fixture at {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); run once with UCAD_BLESS=1 to create it")
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "observability counter drifted");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "counter set changed (metric added or removed); rebless if intentional"
    );
}
