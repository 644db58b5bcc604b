//! Serving quickstart: deploy a trained UCAD system behind the sharded,
//! memoizing online engine and stream interleaved sessions through it.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! The traffic driver is written against the transport-agnostic
//! [`Admission`] trait, so the *same* code drives the engine in-process or
//! over TCP through a `ucad-net` daemon. Environment knobs:
//!
//! * `UCAD_SERVE_NET=1` serves through a real TCP daemon (spawned in this
//!   process on a loopback port) instead of calling the engine directly —
//!   the printed alerts, accounting and `ucad_serve_*` metrics are
//!   identical either way.
//! * `UCAD_SERVE_POLICY=block|shed|degrade` selects the [`OverloadPolicy`]
//!   (default `block`).
//! * `UCAD_FAULTS="panic=40@1;stall_us=200"` arms deterministic fault
//!   injection (worker panics, scoring stalls, forced saturation — see
//!   `ucad-fault`); shard supervision heals every injected crash and the
//!   run still drains, reconciles and exits cleanly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucad::prelude::*;
use ucad_baselines::BaselineDetector;
use ucad_dbsim::LogRecord;
use ucad_net::{NetClient, NetDaemon, NetServeConfig};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, Session, SessionGenerator};

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

/// Steps 3-5 of the quickstart, written against [`Admission`] alone: stream
/// the interleaved traffic, drain the ordered alerts, reconcile the
/// overload accounting, and dump the observability surfaces. `engine` may
/// be the in-process [`ShardedOnlineUcad`] or a [`NetClient`] speaking to a
/// daemon — the output is the same.
fn drive<A: Admission>(engine: &mut A, sessions: &[Session]) -> Result<(), UcadError> {
    let queues: Vec<Vec<LogRecord>> = sessions.iter().map(records_of).collect();
    let longest = queues.iter().map(Vec::len).max().unwrap_or(0);
    let mut submitted = 0usize;
    let (mut accepted, mut shed, mut degraded) = (0usize, 0usize, 0usize);
    for i in 0..longest {
        for q in &queues {
            if let Some(r) = q.get(i) {
                match engine.try_submit(r)? {
                    SubmitOutcome::Accepted => accepted += 1,
                    SubmitOutcome::Shed => shed += 1,
                    SubmitOutcome::Degraded => degraded += 1,
                }
                submitted += 1;
            }
        }
    }
    for s in sessions {
        engine.close_session(s.id)?;
    }

    // Drain: alerts come back ordered by the arrival position of the
    // record that triggered them.
    let alerts = engine.drain_alerts()?;
    println!(
        "submitted {submitted} records across {} sessions",
        sessions.len()
    );
    for a in &alerts {
        println!(
            "[ALARM] session {} (user {}): {:?} at operation {:?}",
            a.session_id, a.user, a.reason, a.position
        );
    }

    let stats = engine.stats()?;
    println!(
        "shard load: {:?} records, cache hit-rate {}",
        stats.records_per_shard,
        stats
            .cache
            .map(|c| format!(
                "{:.1}% ({} hits / {} misses)",
                100.0 * c.hit_rate(),
                c.hits,
                c.misses
            ))
            .unwrap_or_else(|| "n/a".into())
    );
    // Fault-tolerance reconciliation: every submission is accounted for
    // exactly once, even under an armed UCAD_FAULTS plan.
    println!(
        "overload: {accepted} accepted, {shed} shed, {degraded} degraded \
         (engine counters: shed {}, degraded {})",
        stats.records_shed, stats.records_degraded
    );
    println!("worker restarts: {}", stats.worker_restarts);
    assert_eq!(
        accepted + shed + degraded,
        submitted,
        "submission outcomes do not partition the stream"
    );
    assert_eq!(stats.records_shed, shed as u64, "shed counter mismatch");
    assert_eq!(
        stats.records_degraded, degraded as u64,
        "degraded counter mismatch"
    );
    assert_eq!(
        stats.records(),
        accepted as u64,
        "accepted records must all reach a shard worker"
    );

    // Observability: the whole pipeline self-reports. The global registry
    // carries preprocess/train/model metrics; the engine registry carries
    // serve/cache metrics; the flight recorder holds per-alert context.
    // Set UCAD_OBS=1 to additionally stream structured JSON events.
    println!("\n# --- global metrics (preprocess / train / model) ---");
    print!("{}", ucad_obs::global().render_prometheus());
    println!("\n# --- engine metrics (serve / cache / flight) ---");
    print!("{}", engine.render_metrics()?);
    println!("\n# --- flight recorder (per-alert context) ---");
    println!("{}", engine.dump_flight_json()?);
    Ok(())
}

fn main() {
    // 1. Offline: train on a clean commenting-application audit log.
    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, 400, 0.0, 42);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        epochs: 14,
        ..cfg.model
    };
    let (system, _) = Ucad::train(&raw.sessions, cfg);

    // 2. Online: spin up the sharded engine — 4 worker shards, Block-batched
    //    scoring, a 512-window score memo. Alert output is byte-identical
    //    for any shard count. UCAD_SERVE_POLICY picks the overload policy;
    //    Degrade additionally needs a fitted n-gram fallback.
    let policy = match std::env::var("UCAD_SERVE_POLICY").as_deref() {
        Ok("shed") => OverloadPolicy::ShedNewest,
        Ok("degrade") => OverloadPolicy::Degrade,
        Ok("block") | Err(_) => OverloadPolicy::Block,
        Ok(other) => panic!("UCAD_SERVE_POLICY must be block|shed|degrade, got `{other}`"),
    };
    let fallback = matches!(policy, OverloadPolicy::Degrade).then(|| {
        let train: Vec<Vec<u32>> = raw
            .sessions
            .iter()
            .take(60)
            .map(|s| system.preprocessor.vocab.tokenize_session(s))
            .collect();
        let mut lm = NgramLm::new(3, 4);
        lm.fit(&train, system.model.cfg.vocab_size);
        lm
    });
    let serve_cfg = ServeConfig {
        shards: 4,
        cache_capacity: 512,
        mode: DetectionMode::Block,
        overload: policy,
        ..ServeConfig::default()
    };
    println!("overload policy: {policy:?}");

    // 3. Traffic: eight concurrent sessions, one of them carrying a
    //    credential-stealing anomaly, records interleaved round-robin as a
    //    live audit stream would arrive.
    let mut gen = SessionGenerator::new(spec.clone());
    let synth = AnomalySynthesizer::new(&spec);
    let mut rng = StdRng::seed_from_u64(7);
    let mut sessions: Vec<Session> = (0..7)
        .map(|_| gen.normal_session(&mut rng).session)
        .collect();
    let victim = gen.normal_session(&mut rng).session;
    sessions.push(
        synth
            .credential_stealing(&victim, &mut gen, &mut rng)
            .session,
    );
    for (i, s) in sessions.iter_mut().enumerate() {
        s.id = 100 + i as u64;
    }

    // 4. Serve — same driver, either transport.
    let report = if std::env::var("UCAD_SERVE_NET").as_deref() == Ok("1") {
        let net_cfg = NetServeConfig::builder()
            .addr("127.0.0.1:0")
            .serve(serve_cfg)
            .build()
            .expect("valid net serve configuration");
        let daemon = NetDaemon::bind_full(system, net_cfg, fallback).expect("bind loopback daemon");
        let (addr, _stop, join) = daemon.spawn();
        println!("serving over TCP via ucad-net daemon at {addr}");
        let mut client = NetClient::connect(addr.to_string()).expect("connect to daemon");
        drive(&mut client, &sessions).expect("serve over TCP");
        client.shutdown_daemon().expect("daemon shutdown");
        join.join()
            .expect("daemon thread")
            .expect("daemon shutdown report")
    } else {
        let mut engine = ShardedOnlineUcad::try_new_full(system, serve_cfg, None, fallback)
            .expect("valid serve configuration");
        drive(&mut engine, &sessions).expect("serve in-process");
        engine.shutdown()
    };

    // 5. Shutdown hands back the system plus the sessions verified normal,
    //    ready for the §5.2 concept-drift fine-tuning loop.
    println!(
        "shutdown: {} verified-normal sessions buffered for fine-tuning",
        report.verified_normals.len()
    );

    // With UCAD_PROF=1, dump the hierarchical self/total-time span profile
    // (collapsed-stack format) gathered across the whole run.
    ucad_obs::dump_profile_if_enabled();
}
