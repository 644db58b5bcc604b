//! Tracing-determinism wall: latency attribution must be *observation
//! only*. With the profiler force-enabled and every stage histogram live,
//! the sharded engine's ordered alert stream must stay byte-identical to
//! the single-threaded reference — the same equivalence the plain
//! determinism wall checks, re-run with instrumentation at its loudest.
//! CI executes this binary at `UCAD_THREADS` 1 and 4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use ucad::{Alert, OnlineUcad, ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, TransDasConfig};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

fn trained() -> &'static (Ucad, ScenarioSpec) {
    static SYSTEM: OnceLock<(Ucad, ScenarioSpec)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        // Profiling on before anything runs, so every span in the test
        // (training included) takes the instrumented path.
        ucad_obs::profile::force_enable();
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
        (system, spec)
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

/// Interleaves `sessions` concurrent sessions (every third carrying a
/// credential-stealing anomaly) under `seed`.
fn interleaved_stream(seed: u64, sessions: usize) -> (Vec<LogRecord>, Vec<u64>) {
    let (_, spec) = trained();
    let mut gen = SessionGenerator::new(spec.clone());
    let synth = AnomalySynthesizer::new(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..sessions {
        let mut s = gen.normal_session(&mut rng).session;
        if i % 3 == 2 {
            s = synth.credential_stealing(&s, &mut gen, &mut rng).session;
        }
        s.id = 40_000 + i as u64;
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

fn reference_alerts(stream: &[LogRecord], ids: &[u64]) -> Vec<Alert> {
    let (system, _) = trained();
    let mut online = OnlineUcad::new(system.clone());
    for r in stream {
        online.observe(r);
    }
    for &id in ids {
        online.close_session(id);
    }
    online.alerts().to_vec()
}

fn sharded_alerts(
    stream: &[LogRecord],
    ids: &[u64],
    shards: usize,
    mode: DetectionMode,
) -> Vec<Alert> {
    let (system, _) = trained();
    let mut engine = ShardedOnlineUcad::try_new(
        system.clone(),
        ServeConfig {
            shards,
            cache_capacity: 256,
            mode,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    for r in stream {
        engine.try_submit(r).expect("submit");
    }
    for &id in ids {
        engine.close_session(id);
    }
    // The stage histograms must actually be measuring during the run —
    // otherwise the equivalence below would not be testing tracing at all.
    engine.flush();
    let metrics = engine.render_metrics();
    for metric in [
        "ucad_latency_queue_wait_seconds",
        "ucad_latency_score_seconds",
    ] {
        let line = metrics
            .lines()
            .find(|l| l.starts_with(&format!("{metric}_count")))
            .unwrap_or_else(|| panic!("{metric} missing from exposition"));
        let count: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("count sample parses");
        assert!(count > 0, "{metric} observed nothing during the replay");
    }
    engine.shutdown().alerts
}

#[test]
fn tracing_adds_no_alert_stream_divergence() {
    assert!(
        ucad_obs::prof_enabled() || {
            trained();
            ucad_obs::prof_enabled()
        }
    );
    let mut exercised = 0usize;
    for seed in [4242u64, 999, 31337] {
        let (stream, ids) = interleaved_stream(seed, 6);
        let expected = reference_alerts(&stream, &ids);
        exercised += expected.len();
        for shards in [1usize, 4] {
            let got = sharded_alerts(&stream, &ids, shards, DetectionMode::Streaming);
            assert_eq!(
                got, expected,
                "tracing-enabled {shards}-shard streaming run diverged (seed {seed})"
            );
        }
        // Block mode is a pure function of the stream; instrumentation
        // must not perturb it either.
        let block1 = sharded_alerts(&stream, &ids, 1, DetectionMode::Block);
        let block4 = sharded_alerts(&stream, &ids, 4, DetectionMode::Block);
        assert_eq!(
            block4, block1,
            "Block output moved under tracing (seed {seed})"
        );
    }
    assert!(
        exercised > 0,
        "no alerts across three seeds; wall is vacuous"
    );
    // And the profiler actually collected frames while all of that ran.
    assert!(
        !ucad_obs::profile::stats().is_empty(),
        "profiler enabled but captured no spans"
    );
}
