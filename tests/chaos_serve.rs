//! Chaos wall: the serving engine must survive everything `ucad-fault` can
//! inject, without bending its determinism guarantees.
//!
//! Invariants held under seeded fault plans (worker panics, forced queue
//! saturation, scoring stalls) across shard counts, cache settings,
//! detection modes and every [`OverloadPolicy`]:
//!
//! * no accepted record is ever lost or double-processed — after healing,
//!   per-shard record counters reconcile exactly with what was submitted;
//! * under the default `Block` policy, a run with mid-stream worker crashes
//!   produces **byte-identical** drained alerts (content *and* global
//!   sequence order) and verified-normal feedback to a crash-free run;
//! * under `ShedNewest` / `Degrade`, shed and degraded counts reconcile
//!   exactly: accepted + shed + degraded == submitted, and degraded alerts
//!   are the only ones tagged `degraded: true`;
//! * submission to a dead shard with a full queue never deadlocks, and
//!   `shutdown()` never hangs — both guarded by wall-clock timeouts;
//! * a full process restart composes with the rest of the chaos menu: a
//!   durable engine abandoned mid-stream (no shutdown, no flush) and
//!   recovered under a fresh fault plan replays exactly the accepted
//!   records and keeps the accounting exact end-to-end. This wall caught a
//!   real self-deadlock: holding the shard link lock across the
//!   `supervise_shard` call in the non-blocking submit path.
//!
//! Every test holds a `ucad-fault` guard (armed or quiet) for the lifetime
//! of its engine, so plans can never leak into a neighbouring test's
//! workers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;
use ucad::{
    Alert, NgramLm, OverloadPolicy, ServeConfig, ShardedOnlineUcad, SubmitOutcome, Ucad, UcadConfig,
};
use ucad_baselines::BaselineDetector;
use ucad_dbsim::LogRecord;
use ucad_fault::FaultPlan;
use ucad_model::{DetectionMode, TransDasConfig};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

/// Trains one small Scenario-I system, shared by every test case.
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

/// The degraded-mode fallback, fitted on the serving system's own training
/// traffic (tokenized under the frozen vocabulary).
fn fallback_lm() -> NgramLm {
    static LM: OnceLock<NgramLm> = OnceLock::new();
    LM.get_or_init(|| {
        let (system, spec) = trained();
        let raw = generate_raw_log(spec, 60, 0.0, 734);
        let train: Vec<Vec<u32>> = raw
            .sessions
            .iter()
            .map(|s| system.preprocessor.vocab.tokenize_session(s))
            .collect();
        let mut lm = NgramLm::new(3, 4);
        lm.fit(&train, system.model.cfg.vocab_size);
        lm
    })
    .clone()
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

/// Holds the process-wide fault slot for the duration of a run: either an
/// armed plan or an explicit all-quiet section. Either way the run is
/// serialized against every other guard-holding section, so no plan can
/// cross test boundaries.
enum FaultGuard {
    #[allow(dead_code)] // RAII: held for its Drop, never read
    Armed(ucad_fault::Armed),
    #[allow(dead_code)]
    Quiet(ucad_fault::Quiet),
}

/// Everything one serving run produced, for reconciliation.
struct RunOutcome {
    alerts: Vec<Alert>,
    accepted: u64,
    shed_seen: u64,
    degraded_seen: u64,
    records: u64,
    shed: u64,
    degraded: u64,
    restarts: u64,
    panics: Vec<(usize, String)>,
    feedback: Vec<Vec<u32>>,
}

/// Drives one full serving run — submit, close, drain, shutdown — under an
/// optional fault plan.
fn run(
    plan: Option<FaultPlan>,
    shards: usize,
    cache_capacity: usize,
    mode: DetectionMode,
    policy: OverloadPolicy,
    stream: &[LogRecord],
    ids: &[u64],
) -> RunOutcome {
    let _guard = match plan {
        Some(plan) => FaultGuard::Armed(plan.arm()),
        None => FaultGuard::Quiet(ucad_fault::quiesce()),
    };
    let (system, _) = trained();
    let cfg = ServeConfig {
        shards,
        cache_capacity,
        mode,
        queue_capacity: 32,
        overload: policy,
        ..ServeConfig::default()
    };
    let fallback = (policy == OverloadPolicy::Degrade).then(fallback_lm);
    let mut engine = ShardedOnlineUcad::try_new_full(system.clone(), cfg, None, fallback)
        .expect("valid chaos config");
    let (mut accepted, mut shed_seen, mut degraded_seen) = (0u64, 0u64, 0u64);
    for record in stream {
        match engine.try_submit(record).expect("submit") {
            SubmitOutcome::Accepted => accepted += 1,
            SubmitOutcome::Shed => shed_seen += 1,
            SubmitOutcome::Degraded => degraded_seen += 1,
        }
    }
    for &id in ids {
        engine.close_session(id);
    }
    let stats = engine.stats();
    let report = engine.shutdown();
    RunOutcome {
        alerts: report.alerts,
        accepted,
        shed_seen,
        degraded_seen,
        records: stats.records(),
        shed: stats.records_shed,
        degraded: stats.records_degraded,
        restarts: report.worker_restarts,
        panics: report.worker_panics,
        feedback: report.verified_normals,
    }
}

/// Runs `f` on a watchdog thread; panics when it exceeds `secs` — the
/// wall's anti-deadlock / anti-hang guard.
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("timed out after {secs}s: serving deadlocked or shutdown hung")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Ok(_) => unreachable!("worker finished without sending"),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    }
}

fn sorted(mut sessions: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    sessions.sort();
    sessions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tentpole invariant: seeded worker crashes anywhere in the stream —
    /// any shard count, cache on or off, both detection modes — heal to a
    /// run byte-identical to a crash-free one: same ordered alerts (the
    /// replayed alerts keep their original global sequence numbers), same
    /// record counts, same verified-normal feedback.
    #[test]
    fn crashed_workers_heal_byte_identically(
        shards in 1usize..=4,
        cache_on in any::<bool>(),
        block_mode in any::<bool>(),
        seed in 0u64..1_000_000,
        crashes in prop::collection::vec((1u64..40, 0usize..4), 1..=2),
    ) {
        let cache = if cache_on { 256 } else { 0 };
        let mode = if block_mode { DetectionMode::Block } else { DetectionMode::Streaming };
        let (stream, ids) = interleaved_stream(seed, 5);
        let clean = run(None, shards, cache, mode, OverloadPolicy::Block, &stream, &ids);
        let mut plan = FaultPlan::new();
        for &(nth, shard) in &crashes {
            plan = plan.panic_at(nth, Some(shard % shards));
        }
        let faulted = run(Some(plan), shards, cache, mode, OverloadPolicy::Block, &stream, &ids);
        prop_assert_eq!(&faulted.alerts, &clean.alerts, "alerts diverged after healing");
        prop_assert_eq!(faulted.records, clean.records, "record accounting diverged");
        prop_assert_eq!(faulted.records, stream.len() as u64, "accepted records lost");
        prop_assert_eq!(
            sorted(faulted.feedback),
            sorted(clean.feedback),
            "verified-normal feedback diverged"
        );
        prop_assert_eq!(
            faulted.restarts,
            faulted.panics.len() as u64,
            "every captured panic must correspond to exactly one respawn"
        );
        for (_, message) in &faulted.panics {
            prop_assert!(message.contains("fault-injected worker panic"), "{}", message);
        }
        prop_assert_eq!(clean.restarts, 0);
        prop_assert!(clean.panics.is_empty());
    }

    /// Overload reconciliation: under a forced saturation window, every
    /// submission is accounted exactly once — accepted records reach the
    /// workers, shed/degraded ones are counted on their metrics, and the
    /// three buckets sum to the submission count. Only `Degrade` may tag
    /// alerts `degraded: true`.
    #[test]
    fn overload_policies_reconcile_exactly(
        shards in 1usize..=4,
        degrade in any::<bool>(),
        seed in 0u64..1_000_000,
        from in 0u64..40,
        width in 1u64..30,
    ) {
        let policy = if degrade { OverloadPolicy::Degrade } else { OverloadPolicy::ShedNewest };
        let (stream, ids) = interleaved_stream(seed, 5);
        let plan = FaultPlan::new().saturate(from, from + width, None);
        let outcome = run(
            Some(plan), shards, 64, DetectionMode::Streaming, policy, &stream, &ids,
        );
        prop_assert_eq!(outcome.accepted, outcome.records, "accepted records lost");
        prop_assert_eq!(outcome.shed_seen, outcome.shed, "shed outcome vs counter");
        prop_assert_eq!(outcome.degraded_seen, outcome.degraded, "degraded outcome vs counter");
        prop_assert_eq!(
            outcome.accepted + outcome.shed + outcome.degraded,
            stream.len() as u64,
            "submission buckets must partition the stream"
        );
        // The saturation counter ticks once per record submission, so the
        // window fires exactly when it starts inside the stream.
        let expect_hit = (from as usize) < stream.len();
        match policy {
            OverloadPolicy::ShedNewest => {
                prop_assert_eq!(outcome.shed > 0, expect_hit, "saturation window mis-fired");
                prop_assert_eq!(outcome.degraded, 0);
                prop_assert!(outcome.alerts.iter().all(|a| !a.degraded));
            }
            OverloadPolicy::Degrade => {
                prop_assert_eq!(outcome.degraded > 0, expect_hit, "saturation window mis-fired");
                prop_assert_eq!(outcome.shed, 0);
            }
            OverloadPolicy::Block => unreachable!(),
        }
    }
}

/// Satellite regression: submitting to a shard whose worker died while its
/// queue was full must fail fast into supervision, never deadlock — the
/// whole run (including shutdown) is held to a wall-clock budget.
#[test]
fn dead_shard_full_queue_submission_never_deadlocks() {
    let outcome = with_timeout(300, || {
        let (stream, ids) = interleaved_stream(5150, 4);
        // Kill the only worker on its very first record; the tiny queue
        // then fills while the shard is dead.
        let plan = FaultPlan::new().panic_at(1, Some(0));
        let _guard = plan.arm();
        let (system, _) = trained();
        let cfg = ServeConfig {
            shards: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let mut engine =
            ShardedOnlineUcad::try_new(system.clone(), cfg).expect("valid serve config");
        for record in &stream {
            assert_eq!(engine.try_submit(record), Ok(SubmitOutcome::Accepted));
        }
        for &id in &ids {
            engine.close_session(id);
        }
        let stats = engine.stats();
        let report = engine.shutdown();
        (stats.records(), stream.len() as u64, report.worker_restarts)
    });
    let (records, submitted, restarts) = outcome;
    assert_eq!(records, submitted, "records lost on the dead-shard path");
    assert!(restarts >= 1, "the dead worker was never supervised");
}

/// Combined chaos — crashes, forced saturation and scoring stalls in one
/// plan under the Degrade policy — must neither hang nor lose accounting.
#[test]
fn combined_chaos_reconciles_and_shuts_down() {
    let (outcome, submitted) = with_timeout(300, || {
        let (stream, ids) = interleaved_stream(90210, 6);
        let plan = FaultPlan::new()
            .panic_at(7, Some(0))
            .panic_at(11, Some(1))
            .saturate(20, 35, None)
            .stall_us(200);
        let outcome = run(
            Some(plan),
            2,
            128,
            DetectionMode::Streaming,
            OverloadPolicy::Degrade,
            &stream,
            &ids,
        );
        (outcome, stream.len() as u64)
    });
    assert_eq!(outcome.accepted, outcome.records, "accepted records lost");
    assert_eq!(outcome.shed, 0, "ShedNewest must not trigger under Degrade");
    assert_eq!(
        outcome.accepted + outcome.degraded,
        submitted,
        "submission buckets must partition the stream"
    );
    assert!(outcome.degraded > 0, "saturation window never hit");
    assert_eq!(outcome.restarts, outcome.panics.len() as u64);
    assert!(outcome.restarts >= 1, "no crash fired; the test is vacuous");
}

/// Anomalous traffic must actually alert inside this wall, and degraded
/// scoring must actually raise tagged alerts when saturation covers an
/// anomalous record — otherwise the equivalences above pass vacuously.
#[test]
fn chaos_wall_exercises_real_alerts() {
    with_timeout(300, || {
        let (stream, ids) = interleaved_stream(4242, 6);
        let plan = FaultPlan::new().panic_at(5, Some(0));
        let faulted = run(
            Some(plan),
            2,
            64,
            DetectionMode::Streaming,
            OverloadPolicy::Block,
            &stream,
            &ids,
        );
        assert!(
            !faulted.alerts.is_empty(),
            "no alerts under crash healing; the byte-identity checks are vacuous"
        );
        assert!(faulted.restarts >= 1);

        // Saturate everything: every record is scored by the fallback, so
        // the credential-stealing sessions must surface as degraded alerts.
        let plan = FaultPlan::new().saturate(0, u64::MAX, None);
        let degraded = run(
            Some(plan),
            2,
            64,
            DetectionMode::Streaming,
            OverloadPolicy::Degrade,
            &stream,
            &ids,
        );
        assert_eq!(degraded.records, 0, "forced saturation leaked records");
        assert_eq!(degraded.degraded, stream.len() as u64);
        assert!(
            degraded.alerts.iter().any(|a| a.degraded),
            "fully degraded run over anomalous traffic raised no degraded alert"
        );
        assert!(degraded.alerts.iter().all(|a| a.degraded));
    });
}

/// Combined chaos plus a full process restart: worker panics, forced
/// saturation and scoring stalls hit a *durable* engine, which is then
/// abandoned mid-stream (no shutdown handshake — the in-process stand-in
/// for `kill -9`; the cross-process version lives in
/// `tests/crash_recovery.rs`) and recovered under a fresh fault plan with
/// another panic. Accounting must stay exact across the restart: the
/// recovered engine replays every accepted record, sheds stay shed, and
/// the resumed half reconciles on top.
#[test]
fn combined_chaos_with_process_restart_reconciles_exactly() {
    use ucad::DurabilityConfig;

    let dir = std::env::temp_dir().join(format!("ucad-chaos-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_clone = dir.clone();
    with_timeout(300, move || {
        let (stream, ids) = interleaved_stream(31337, 6);
        let half = stream.len() / 2;
        let (system, _) = trained();
        let cfg = ServeConfig {
            shards: 2,
            cache_capacity: 64,
            queue_capacity: 32,
            overload: OverloadPolicy::ShedNewest,
            ..ServeConfig::default()
        };

        // Phase 1: panic + saturation window + stalls, first half of the
        // stream, then a hard abandon.
        let plan = FaultPlan::new()
            .panic_at(7, Some(0))
            .saturate(12, 22, None)
            .stall_us(200);
        let guard = FaultGuard::Armed(plan.arm());
        let mut engine =
            ShardedOnlineUcad::recover(system.clone(), cfg, DurabilityConfig::new(&dir_clone))
                .expect("fresh durable engine");
        let (mut accepted_1, mut shed_1) = (0u64, 0u64);
        for record in &stream[..half] {
            match engine.try_submit(record).expect("submit") {
                SubmitOutcome::Accepted => accepted_1 += 1,
                SubmitOutcome::Shed => shed_1 += 1,
                SubmitOutcome::Degraded => panic!("ShedNewest must never degrade"),
            }
        }
        let stats_1 = engine.stats();
        assert_eq!(
            stats_1.records(),
            accepted_1,
            "accepted records lost in phase 1"
        );
        assert_eq!(
            accepted_1 + shed_1,
            half as u64,
            "phase 1 buckets must partition"
        );
        assert!(
            shed_1 > 0,
            "saturation window never hit; the restart test is vacuous"
        );
        assert!(
            stats_1.worker_restarts >= 1,
            "phase 1 panic never fired; the restart test is vacuous"
        );
        engine.abandon();
        drop(guard);

        // Phase 2: recover under a fresh plan with another panic, resume
        // the second half, reconcile end-to-end.
        let plan = FaultPlan::new().panic_at(3, Some(1)).stall_us(100);
        let _guard = FaultGuard::Armed(plan.arm());
        let mut engine =
            ShardedOnlineUcad::recover(system.clone(), cfg, DurabilityConfig::new(&dir_clone))
                .expect("recovery under chaos");
        assert_eq!(
            engine.stats().records(),
            accepted_1,
            "recovery must replay exactly the accepted phase-1 records"
        );
        let (mut accepted_2, mut shed_2) = (0u64, 0u64);
        for record in &stream[half..] {
            match engine.try_submit(record).expect("submit") {
                SubmitOutcome::Accepted => accepted_2 += 1,
                SubmitOutcome::Shed => shed_2 += 1,
                SubmitOutcome::Degraded => panic!("ShedNewest must never degrade"),
            }
        }
        for &id in &ids {
            engine.close_session(id);
        }
        let stats_2 = engine.stats();
        assert_eq!(
            stats_2.records(),
            accepted_1 + accepted_2,
            "exact accounting across the restart"
        );
        assert_eq!(
            accepted_2 + shed_2,
            (stream.len() - half) as u64,
            "phase 2 buckets must partition"
        );
        let metrics = engine.render_metrics();
        assert!(metrics.contains("ucad_serve_recoveries_total 1"));
        let alerts = engine.drain_alerts();
        assert!(
            alerts.iter().all(|a| !a.degraded),
            "ShedNewest must not tag alerts"
        );
        let report = engine.shutdown();
        assert_eq!(report.worker_restarts, stats_2.worker_restarts);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
