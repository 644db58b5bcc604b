//! Lifecycle quickstart: the full train → checkpoint → serve → drift →
//! retrain → hot-swap loop from `ucad-life`.
//!
//! ```sh
//! cargo run --release --example lifecycle
//! ```
//!
//! The paper assumes the detector is retrained as access patterns evolve
//! (§2, §5.2, §6.3); this example runs that prescription end to end: a
//! commenting-application model drifts when location-service traffic
//! arrives, the drift monitor alarms, a candidate is retrained on the
//! engine's verified-normal feedback, gated on a holdout, committed to the
//! checkpoint store, and hot-swapped into the serving engine without
//! dropping a record.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use ucad::prelude::*;
use ucad_dbsim::LogRecord;
use ucad_life::{
    CheckpointStore, DriftBaseline, DriftConfig, DriftMonitor, GateConfig, LifecycleManager,
    Promotion, Retrainer, SessionJournal,
};
use ucad_trace::{generate_raw_log, ScenarioSpec, Session, SessionGenerator};

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

/// Streams `n` sessions from `spec` through the engine and closes them.
fn serve_sessions(
    engine: &mut ShardedOnlineUcad,
    spec: &ScenarioSpec,
    n: usize,
    id_base: u64,
    seed: u64,
) -> usize {
    let mut gen = SessionGenerator::new(spec.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut submitted = 0;
    for i in 0..n {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = id_base + i as u64;
        for r in records_of(&s) {
            engine.try_submit(&r).expect("submit");
            submitted += 1;
        }
        engine.close_session(s.id);
    }
    submitted
}

fn main() {
    // 1. Offline: train v0 on a clean commenting-application audit log.
    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, 400, 0.0, 42);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        epochs: 14,
        ..cfg.model
    };
    let (system, _) = Ucad::train(&raw.sessions, cfg);

    // 2. Checkpoint v0: content-hashed id, CRC-validated envelope, atomic
    //    rename-on-commit, at most 3 resident versions.
    //    The store starts empty: a version already committed by an earlier
    //    run would only be re-marked latest, with no `life.checkpoint` event.
    let dir = "target/lifecycle-checkpoints";
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::open(dir, 3).expect("open store");
    // Gate thresholds are scenario-tuned: this small demo model carries a
    // noticeable false-alarm rate, so the ceiling sits above it while the
    // regression slack still rejects a clearly worse candidate.
    let gate = GateConfig {
        max_false_alarm_rate: 0.6,
        max_rate_regression: 0.25,
        min_holdout: 4,
    };
    let mut life = LifecycleManager::new(store, gate);
    let v0 = life.checkpoint(&system.model).expect("checkpoint v0");
    println!("checkpointed v0 as {v0}");

    // 3. Drift baseline: replay the detector over a verified-normal corpus
    //    tokenized under the frozen vocabulary — the reference every live
    //    window is compared against.
    let mut gen = SessionGenerator::new(spec.clone());
    let mut rng = StdRng::seed_from_u64(1);
    let corpus: Vec<Vec<u32>> = (0..60)
        .map(|_| {
            system
                .preprocessor
                .transform(&gen.normal_session(&mut rng).session)
        })
        .collect();
    let drift_cfg = DriftConfig {
        window: 128,
        psi_threshold: 0.75,
        // This demo model carries a ~13% false-alarm rate, so a short
        // streak of alerted sessions can spike the EWMA; give the rate
        // statistic headroom so only sustained shifts alarm.
        ewma_factor: 4.0,
        ewma_margin: 0.1,
        ..DriftConfig::default()
    };
    let baseline = DriftBaseline::from_keyed_sessions(&system, &corpus, drift_cfg.rank_buckets)
        .expect("baseline");
    println!(
        "drift baseline: alert_rate {:.4} over {} sessions",
        baseline.alert_rate,
        corpus.len()
    );
    let monitor = Arc::new(DriftMonitor::new(drift_cfg, baseline).expect("monitor"));

    // 4. Online: a sharded engine with the monitor subscribed as an
    //    observer; its `ucad_life_*` cells join the engine registry.
    let serve_cfg = ServeConfig {
        shards: 2,
        cache_capacity: 256,
        ..ServeConfig::default()
    };
    let mut engine = ShardedOnlineUcad::try_new_full(
        system,
        serve_cfg,
        Some(Arc::clone(&monitor) as Arc<dyn ServeObserver>),
        None,
    )
    .expect("engine");
    monitor.register_metrics(engine.registry(), &[]);

    // 5. Calm traffic: the scenario the model was trained on. No alarm.
    let n = serve_sessions(&mut engine, &spec, 60, 1_000, 7);
    engine.flush();
    println!(
        "served {n} in-distribution records: {} drift alarm(s), epoch {}",
        monitor.alarms(),
        engine.model_epoch()
    );

    // 6. The rolling journal: seeded with the historical training corpus
    //    (tokenized under the frozen vocabulary), extended with the
    //    engine's verified-normal feedback while the workload is still
    //    healthy — this is the retraining corpus (§5.2 concept drift
    //    handling).
    let mut journal = SessionJournal::new(1024);
    journal.extend(
        raw.sessions
            .iter()
            .map(|s| engine.system().preprocessor.transform(s)),
    );
    journal.extend(engine.drain_feedback());
    println!("journal holds {} verified-normal sessions", journal.len());

    // 7. Drift: the application changes — location-service traffic hits a
    //    commenting-trained model. Unknown statements tokenize to k0, the
    //    unseen-ratio and PSI statistics breach, the monitor alarms.
    let shifted = ScenarioSpec::location_service();
    let n = serve_sessions(&mut engine, &shifted, 12, 5_000, 8);
    engine.flush();
    let snap = monitor.snapshot();
    println!(
        "served {n} shifted records: {} drift alarm(s), unseen ratio {:.3}, PSI {:.3}",
        snap.alarms, snap.last_unseen_ratio, snap.last_psi
    );

    // 8. Retrain in the background on the journal, holding every 4th
    //    session out for the shadow gate.
    let (train, holdout) = journal.split_holdout(4);
    let retrainer = Retrainer::spawn(engine.system().model.cfg, train).expect("non-empty journal");
    let candidate = retrainer.join().model;

    // 9. Promote: shadow-validate on the holdout, commit to the store,
    //    reload from the committed checkpoint, hot-swap at a flush barrier.
    match life
        .promote(&mut engine, candidate, &holdout)
        .expect("promotion protocol")
    {
        Promotion::Swapped { id, epoch, gate } => println!(
            "promoted {id}: epoch {epoch}, candidate FAR {:.4} vs serving {:.4} on {} holdout sessions",
            gate.candidate_rate, gate.serving_rate, gate.holdout_sessions
        ),
        Promotion::Rejected(gate) => println!(
            "candidate rejected: {}",
            gate.reason.unwrap_or_else(|| "gate failed".into())
        ),
    }
    println!("store now holds versions {:?}", life.store().versions());

    // 10. Post-swap serving continues on the new weights — byte-identical
    //     to a cold start on the promoted checkpoint.
    let n = serve_sessions(&mut engine, &spec, 10, 9_000, 9);
    let alerts = engine.drain_alerts();
    println!(
        "served {n} records on epoch {}: {} alert(s) pending",
        engine.model_epoch(),
        alerts.len()
    );

    // 11. Exposition: serve, cache and lifecycle metrics share one registry.
    println!("\n# --- engine + lifecycle metrics ---");
    print!("{}", engine.render_metrics());

    let report = engine.shutdown();
    println!(
        "shutdown: {} verified-normal sessions buffered for the next retrain",
        report.verified_normals.len()
    );
}
