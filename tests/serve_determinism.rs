//! Shard-determinism wall: for arbitrary interleaved record streams, the
//! sharded serving engine must emit the *same ordered alert list* as the
//! single-threaded [`OnlineUcad`] — for every shard count, with and without
//! score memoization — and Block mode must be shard-count invariant too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use ucad::{Alert, OnlineUcad, ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, TransDasConfig};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

/// Trains one small Scenario-I system, shared by every proptest case.
fn trained() -> &'static (Ucad, ScenarioSpec) {
    static SYSTEM: OnceLock<(Ucad, ScenarioSpec)> = OnceLock::new();
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

/// Generates `sessions` concurrent sessions (every third one carrying a
/// credential-stealing anomaly) and interleaves their records arbitrarily
/// under `seed`. Returns the flattened stream plus the session ids in
/// close order.
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
        s.id = 10_000 + i as u64;
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

/// The single-threaded reference: alerts in arrival order of the
/// triggering record.
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
    cache_capacity: usize,
) -> Vec<Alert> {
    let (system, _) = trained();
    let cfg = ServeConfig {
        shards,
        cache_capacity,
        mode,
        ..ServeConfig::default()
    };
    let mut engine = ShardedOnlineUcad::try_new(system.clone(), cfg).expect("valid serve config");
    for r in stream {
        engine.try_submit(r).expect("submit");
    }
    for &id in ids {
        engine.close_session(id);
    }
    engine.shutdown().alerts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming mode, any shard count, cache on or off: ordered alert
    /// list identical to the single-threaded deployment loop.
    #[test]
    fn sharded_streaming_matches_single_threaded(
        shards in 1usize..=8,
        sessions in 3usize..=6,
        seed in 0u64..1_000_000
    ) {
        let (stream, ids) = interleaved_stream(seed, sessions);
        let expected = reference_alerts(&stream, &ids);
        let uncached = sharded_alerts(&stream, &ids, shards, DetectionMode::Streaming, 0);
        prop_assert_eq!(&uncached, &expected, "uncached sharded output diverged");
        let cached = sharded_alerts(&stream, &ids, shards, DetectionMode::Streaming, 256);
        prop_assert_eq!(&cached, &expected, "memoized sharded output diverged");
    }

    /// Block mode: output is a pure function of the stream — identical for
    /// every shard count and unchanged by memoization.
    #[test]
    fn sharded_block_is_shard_count_invariant(
        shards in 2usize..=8,
        sessions in 3usize..=6,
        seed in 0u64..1_000_000
    ) {
        let (stream, ids) = interleaved_stream(seed, sessions);
        let baseline = sharded_alerts(&stream, &ids, 1, DetectionMode::Block, 0);
        let multi = sharded_alerts(&stream, &ids, shards, DetectionMode::Block, 0);
        prop_assert_eq!(&multi, &baseline, "Block output depends on shard count");
        let cached = sharded_alerts(&stream, &ids, shards, DetectionMode::Block, 256);
        prop_assert_eq!(&cached, &baseline, "Block output depends on memoization");
    }
}

/// Anomalous traffic must actually raise alerts in this wall — otherwise
/// every equivalence above would pass vacuously on empty alert lists.
#[test]
fn determinism_wall_exercises_real_alerts() {
    let (stream, ids) = interleaved_stream(4242, 6);
    let mut any = 0usize;
    for seed in [4242u64, 999, 31337] {
        let (s, i) = interleaved_stream(seed, 6);
        any += reference_alerts(&s, &i).len();
    }
    assert!(any > 0, "no alerts across three seeds; the wall is vacuous");
    // And the fixed stream agrees across a 4-shard Block run and its reference.
    let expected = sharded_alerts(&stream, &ids, 1, DetectionMode::Block, 0);
    let got = sharded_alerts(&stream, &ids, 4, DetectionMode::Block, 64);
    assert_eq!(got, expected);
}
