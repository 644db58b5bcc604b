//! Hot-swap determinism wall: after [`ShardedOnlineUcad::swap_model`], every
//! subsequent verdict must be byte-identical to a freshly started engine
//! loaded from the promoted checkpoint — for shard counts 1–4, with and
//! without score memoization. The CI lifecycle job re-runs this wall under
//! `UCAD_THREADS ∈ {1, 2, 4}`; the kernels are bit-identical at any thread
//! count (the `parallel_props` wall), so the equality must hold everywhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use ucad::{Alert, ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_life::{CheckpointStore, GateConfig, LifecycleManager, Promotion, Retrainer};
use ucad_model::TransDasConfig;
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

/// One trained Scenario-I system plus a retrained candidate committed to a
/// checkpoint store — shared by every case so training happens once.
struct Fixture {
    system: Ucad,
    spec: ScenarioSpec,
    store: CheckpointStore,
    promoted_id: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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

        // Retrain a candidate on a fresh corpus under the frozen vocabulary
        // (same architecture, different weights — a real swap, not a no-op).
        let mut gen = SessionGenerator::new(spec.clone());
        let mut rng = StdRng::seed_from_u64(9001);
        let corpus: Vec<Vec<u32>> = (0..60)
            .map(|_| {
                system
                    .preprocessor
                    .transform(&gen.normal_session(&mut rng).session)
            })
            .collect();
        let candidate = Retrainer::spawn(system.model.cfg, corpus)
            .expect("non-empty corpus")
            .join()
            .model;

        let dir = std::env::temp_dir().join(format!("ucad-swap-wall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 4).expect("open checkpoint store");
        let promoted_id = store.save(&candidate).expect("commit candidate");
        Fixture {
            system,
            spec,
            store,
            promoted_id,
        }
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

/// Interleaved stream of `sessions` concurrent sessions (every third one
/// carrying a credential-stealing anomaly), ids offset by `id_base` so
/// pre-swap and post-swap traffic never share a session.
fn interleaved_stream(seed: u64, sessions: usize, id_base: u64) -> (Vec<LogRecord>, Vec<u64>) {
    let fx = fixture();
    let mut gen = SessionGenerator::new(fx.spec.clone());
    let synth = AnomalySynthesizer::new(&fx.spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..sessions {
        let mut s = gen.normal_session(&mut rng).session;
        if i % 3 == 2 {
            s = synth.credential_stealing(&s, &mut gen, &mut rng).session;
        }
        s.id = id_base + i as u64;
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

fn run_stream(engine: &mut ShardedOnlineUcad, stream: &[LogRecord], ids: &[u64]) -> Vec<Alert> {
    for r in stream {
        engine.try_submit(r).expect("submit");
    }
    for &id in ids {
        engine.close_session(id);
    }
    engine.drain_alerts()
}

/// Warm engine: serve stream A on v0, hot-swap to the promoted checkpoint,
/// then serve stream B. Returns only the post-swap alerts.
fn post_swap_alerts(shards: usize, cache_capacity: usize) -> Vec<Alert> {
    let fx = fixture();
    let cfg = ServeConfig {
        shards,
        cache_capacity,
        ..ServeConfig::default()
    };
    let mut engine =
        ShardedOnlineUcad::try_new(fx.system.clone(), cfg).expect("valid serve config");
    let (stream_a, ids_a) = interleaved_stream(51, 5, 10_000);
    let _pre = run_stream(&mut engine, &stream_a, &ids_a);
    let promoted = fx.store.load(&fx.promoted_id).expect("load checkpoint");
    let epoch = engine.swap_model(promoted).expect("swap");
    assert_eq!(epoch, 1, "first swap must land on epoch 1");
    assert_eq!(engine.model_epoch(), 1);
    let (stream_b, ids_b) = interleaved_stream(52, 6, 20_000);
    let alerts = run_stream(&mut engine, &stream_b, &ids_b);
    drop(engine.shutdown());
    alerts
}

/// Cold engine: a fresh start on the promoted checkpoint, serving stream B
/// only. This is the reference the warm engine must match bit-for-bit.
fn cold_start_alerts(shards: usize, cache_capacity: usize) -> Vec<Alert> {
    let fx = fixture();
    let mut system = fx.system.clone();
    system.model = fx.store.load(&fx.promoted_id).expect("load checkpoint");
    let cfg = ServeConfig {
        shards,
        cache_capacity,
        ..ServeConfig::default()
    };
    let mut engine = ShardedOnlineUcad::try_new(system, cfg).expect("valid serve config");
    let (stream_b, ids_b) = interleaved_stream(52, 6, 20_000);
    let alerts = run_stream(&mut engine, &stream_b, &ids_b);
    drop(engine.shutdown());
    alerts
}

/// The wall itself: post-swap serving ≡ cold start on the promoted
/// checkpoint, for every shard count, cached and uncached.
#[test]
fn post_swap_verdicts_match_cold_start_on_checkpoint() {
    // No fault plan may leak into these engines from a concurrently armed
    // test (the guard also serializes against armed sections).
    let _quiet = ucad_fault::quiesce();
    let reference = cold_start_alerts(1, 0);
    assert!(
        !reference.is_empty(),
        "stream B raised no alerts under the promoted model; the wall is vacuous"
    );
    for shards in 1..=4 {
        for cache_capacity in [0, 256] {
            let cold = cold_start_alerts(shards, cache_capacity);
            assert_eq!(
                cold, reference,
                "cold start diverged at shards={shards} cache={cache_capacity}"
            );
            let warm = post_swap_alerts(shards, cache_capacity);
            assert_eq!(
                warm, reference,
                "post-swap output diverged from cold start at \
                 shards={shards} cache={cache_capacity}"
            );
        }
    }
}

/// The swapped-in model must actually change behaviour relative to v0 on at
/// least one of the probe streams — otherwise the wall above could pass with
/// a swap that silently kept the old weights.
#[test]
fn swap_installs_different_weights() {
    let fx = fixture();
    let promoted = fx.store.load(&fx.promoted_id).expect("load checkpoint");
    assert_ne!(
        promoted.to_json(),
        fx.system.model.to_json(),
        "candidate weights are identical to v0; retraining produced a no-op"
    );
}

/// End-to-end promotion through [`LifecycleManager`]: gate on a holdout,
/// commit, reload, swap — then the same cold-start equivalence must hold
/// for the id the manager reports.
#[test]
fn managed_promotion_serves_the_committed_checkpoint() {
    let _quiet = ucad_fault::quiesce();
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("ucad-promo-wall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, 4).expect("open store");
    let mut life = LifecycleManager::new(
        store,
        GateConfig {
            max_false_alarm_rate: 1.0,
            max_rate_regression: 1.0,
            min_holdout: 4,
        },
    );

    let mut gen = SessionGenerator::new(fx.spec.clone());
    let mut rng = StdRng::seed_from_u64(4096);
    let holdout: Vec<Vec<u32>> = (0..6)
        .map(|_| {
            fx.system
                .preprocessor
                .transform(&gen.normal_session(&mut rng).session)
        })
        .collect();
    let candidate = fx.store.load(&fx.promoted_id).expect("load candidate");

    let cfg = ServeConfig {
        shards: 3,
        cache_capacity: 128,
        ..ServeConfig::default()
    };
    let mut engine =
        ShardedOnlineUcad::try_new(fx.system.clone(), cfg).expect("valid serve config");
    let (stream_a, ids_a) = interleaved_stream(77, 4, 30_000);
    let _ = run_stream(&mut engine, &stream_a, &ids_a);

    let outcome = life
        .promote(&mut engine, candidate, &holdout)
        .expect("promotion protocol");
    let Promotion::Swapped { id, epoch, gate } = outcome else {
        panic!("permissive gate rejected the candidate");
    };
    assert!(gate.pass);
    assert_eq!(epoch, 1);
    assert_eq!(engine.model_epoch(), 1);

    let (stream_b, ids_b) = interleaved_stream(78, 5, 40_000);
    let warm = run_stream(&mut engine, &stream_b, &ids_b);
    drop(engine.shutdown());

    // Cold start from the checkpoint the manager committed.
    let mut system = fx.system.clone();
    system.model = life.store().load(&id).expect("load promoted");
    let cfg = ServeConfig {
        shards: 3,
        cache_capacity: 128,
        ..ServeConfig::default()
    };
    let mut cold_engine = ShardedOnlineUcad::try_new(system, cfg).expect("valid serve config");
    let cold = run_stream(&mut cold_engine, &stream_b, &ids_b);
    drop(cold_engine.shutdown());
    assert_eq!(
        warm, cold,
        "managed promotion diverged from its own checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite of the chaos wall: a hot-swap issued while a shard worker lies
/// dead must first heal the shard under the **old** model (the swap's flush
/// barrier supervises, replays the eaten records on epoch 0, and respawns),
/// then cut over — so pre-swap alerts stay byte-identical to a crash-free
/// engine and post-swap scoring stays byte-identical to a cold start on the
/// promoted checkpoint.
///
/// The crash is pinned to the *last* record shard 0 receives before the
/// swap: nothing else touches that shard until the swap, so the swap itself
/// is always what restarts the worker.
#[test]
fn swap_during_shard_restart_matches_cold_start() {
    let fx = fixture();
    for (shards, cache_capacity) in [(2usize, 0usize), (3, 256)] {
        let cfg = ServeConfig {
            shards,
            cache_capacity,
            ..ServeConfig::default()
        };
        let (stream_a, _ids_a) = interleaved_stream(51, 5, 10_000);
        let (stream_b, ids_b) = interleaved_stream(52, 6, 20_000);

        // Crash-free reference for the pre-swap phase. Sessions stay open
        // (no closes) to mirror the faulted engine below, where stream-A
        // sessions straddle the swap.
        let quiet = ucad_fault::quiesce();
        let mut reference =
            ShardedOnlineUcad::try_new(fx.system.clone(), cfg).expect("valid serve config");
        for r in &stream_a {
            reference.try_submit(r).expect("submit");
        }
        let expected_pre = reference.drain_alerts();
        drop(reference.shutdown());
        drop(quiet);

        let mut engine =
            ShardedOnlineUcad::try_new(fx.system.clone(), cfg).expect("valid serve config");
        let kill_at = stream_a
            .iter()
            .filter(|r| engine.shard_of(r.session_id) == 0)
            .count() as u64;
        assert!(kill_at > 0, "no stream-A records route to shard 0");
        let armed = ucad_fault::FaultPlan::new()
            .panic_at(kill_at, Some(0))
            .arm();
        for r in &stream_a {
            engine.try_submit(r).expect("submit");
        }
        let promoted = fx.store.load(&fx.promoted_id).expect("load checkpoint");
        assert_eq!(engine.swap_model(promoted).expect("swap"), 1);
        drop(armed);
        assert!(
            engine.stats().worker_restarts >= 1,
            "shards={shards}: the injected crash never fired; the test is vacuous"
        );
        let pre = engine.drain_alerts();
        assert_eq!(
            pre, expected_pre,
            "shards={shards} cache={cache_capacity}: replay across the swap \
             diverged from the crash-free engine on pre-swap traffic"
        );

        let warm = run_stream(&mut engine, &stream_b, &ids_b);
        drop(engine.shutdown());

        let quiet = ucad_fault::quiesce();
        let cold = cold_start_alerts(shards, cache_capacity);
        drop(quiet);
        assert_eq!(
            warm, cold,
            "shards={shards} cache={cache_capacity}: post-swap scoring after a \
             mid-restart swap diverged from a cold start on the checkpoint"
        );
    }
}

/// A gate failure must leave the engine untouched: epoch stays 0 and the
/// store gains no version.
#[test]
fn rejected_candidate_never_swaps() {
    let _quiet = ucad_fault::quiesce();
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("ucad-reject-wall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, 4).expect("open store");
    let mut life = LifecycleManager::new(
        store,
        GateConfig {
            max_false_alarm_rate: 1.0,
            max_rate_regression: 1.0,
            min_holdout: 1_000_000, // impossible gate
        },
    );
    let candidate = fx.store.load(&fx.promoted_id).expect("load candidate");
    let mut engine = ShardedOnlineUcad::try_new(fx.system.clone(), ServeConfig::default())
        .expect("valid serve config");
    let outcome = life
        .promote(&mut engine, candidate, &[vec![1, 2, 3]])
        .expect("promotion protocol");
    assert!(!outcome.swapped());
    assert_eq!(
        engine.model_epoch(),
        0,
        "rejected candidate bumped the epoch"
    );
    assert!(
        life.store().versions().is_empty(),
        "rejected candidate was committed"
    );
    drop(engine.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}
