//! Network fault-injection walls: a live daemon and a fault-armed
//! transport, proving the self-healing layers — retry/backoff, poison +
//! reconnect, router failover, and watermark dedupe — restore exactly the
//! unfaulted behavior.
//!
//! Every test takes the [`ucad_fault::Armed`] guard at its top, which
//! serializes the whole test body against every other armed test in the
//! process: the net hooks count process-global frames, so concurrent
//! traffic would perturb the fault schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;
use ucad::{Admission, ServeConfig, ShardedOnlineUcad, SubmitOutcome, Ucad, UcadConfig};
use ucad_dbsim::LogRecord;
use ucad_model::TransDasConfig;
use ucad_net::{
    NetClient, NetClientConfig, NetDaemon, NetRouter, NetRouterConfig, NetServeConfig, RetryPolicy,
};
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

fn system() -> Ucad {
    static SYSTEM: OnceLock<Ucad> = OnceLock::new();
    SYSTEM
        .get_or_init(|| {
            let raw = generate_raw_log(&ScenarioSpec::commenting(), 40, 0.0, 4601);
            let mut cfg = UcadConfig::scenario1();
            cfg.model = TransDasConfig {
                hidden: 8,
                heads: 2,
                blocks: 1,
                window: 8,
                epochs: 2,
                ..cfg.model
            };
            Ucad::train(&raw.sessions, cfg).0
        })
        .clone()
}

/// A short interleaved stream of 6 sessions, half of them carrying an
/// unknown statement (a deterministic alert regardless of model weights).
fn script() -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
    let mut rng = StdRng::seed_from_u64(20_260_808);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..6usize {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 70_000 + i as u64;
        if i % 2 == 1 {
            let mid = s.ops.len() / 2;
            s.ops[mid].sql = format!("DELETE FROM t_shadow WHERE id={i}");
        }
        ids.push(s.id);
        queues.push(
            s.ops
                .iter()
                .map(|op| LogRecord {
                    timestamp: op.timestamp,
                    user: s.user.clone(),
                    client_ip: s.client_ip.clone(),
                    session_id: s.id,
                    sql: op.sql.clone(),
                    table: op.table.clone(),
                    op: op.kind,
                    rows: 0,
                })
                .collect(),
        );
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

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    }
}

fn spawn_daemon() -> String {
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve_cfg())
        .build()
        .expect("valid net config");
    let daemon = NetDaemon::bind(system(), cfg).expect("bind daemon");
    let (addr, _stop, _join) = daemon.spawn();
    addr.to_string()
}

fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
}

fn global_counter(name: &str) -> u64 {
    ucad_obs::global().counter(name, &[]).get()
}

#[test]
fn torn_submit_replies_heal_via_retry_and_watermark_dedupe() {
    // Tear every 4th submit reply: the engine consumes the record, the ack
    // is lost, and the client must resubmit on a fresh connection.
    let _armed = ucad_fault::FaultPlan::new().torn_frame_every(4).arm();
    let reconnects_before = global_counter("ucad_net_reconnects_total");
    let retries_before = global_counter("ucad_net_retries_total");

    let addr = spawn_daemon();
    let cfg = NetClientConfig {
        retry: RetryPolicy::standard(),
        ..NetClientConfig::default()
    };
    let mut client = NetClient::connect_with(&addr, cfg).expect("connect");
    let (stream, _ids) = script();
    let submits = 10.min(stream.len());
    for (seq, record) in stream.iter().take(submits).enumerate() {
        assert_eq!(
            client.submit_at(seq as u64, record).expect("healed submit"),
            SubmitOutcome::Accepted
        );
    }
    assert!(!client.poisoned(), "retry loop leaves a healthy connection");

    let stats = Admission::stats(&mut client).expect("stats");
    assert_eq!(
        stats.records(),
        submits as u64,
        "every record exactly once despite torn acks"
    );
    let metrics = Admission::render_metrics(&mut client).expect("metrics");
    assert!(
        metric_value(&metrics, "ucad_net_resubmitted_total") >= 1,
        "a lost ack must surface as a dup-acked resubmit"
    );
    assert!(
        global_counter("ucad_net_reconnects_total") > reconnects_before,
        "healing requires reconnects"
    );
    assert!(
        global_counter("ucad_net_retries_total") > retries_before,
        "healing requires retries"
    );
    client.shutdown_daemon().expect("shutdown");
}

#[test]
fn conn_resets_heal_via_router_failover_byte_identically() {
    let (stream, ids) = script();

    // Unfaulted in-process reference (the armed plan carries only net
    // faults, which in-process serving never consults).
    let armed = ucad_fault::FaultPlan::new().conn_reset_every(6).arm();
    let mut reference =
        ShardedOnlineUcad::try_new(system(), serve_cfg()).expect("valid serve config");
    for r in &stream {
        assert_eq!(reference.try_submit(r), Ok(SubmitOutcome::Accepted));
    }
    for &id in &ids {
        reference.close_session(id);
    }
    let expected = ShardedOnlineUcad::drain_alerts(&mut reference);
    assert!(!expected.is_empty(), "script must alert or this is vacuous");

    let retries_before = global_counter("ucad_net_retries_total");
    let addr = spawn_daemon();
    let mut router = NetRouter::connect_with(
        &[addr],
        0xDA11A5,
        NetRouterConfig {
            failover: RetryPolicy {
                attempts: 8,
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(100),
            },
            ..NetRouterConfig::default()
        },
    )
    .expect("connect router");
    for r in &stream {
        assert_eq!(
            Admission::try_submit(&mut router, r).expect("healed submit"),
            SubmitOutcome::Accepted
        );
    }
    for &id in &ids {
        Admission::close_session(&mut router, id).expect("healed close");
    }
    let got = Admission::drain_alerts(&mut router).expect("healed drain");
    assert_eq!(got, expected, "alert stream diverged under resets");
    assert!(
        global_counter("ucad_net_retries_total") > retries_before,
        "resets must actually have forced failover retries"
    );
    // Shutdown is deliberately unretried, so stop injecting before it.
    drop(armed);
    router.shutdown().expect("shutdown");
}

#[test]
fn blackhole_times_out_poisons_and_reconnect_heals() {
    // Swallow exactly the second request frame the daemon sees.
    let _armed = ucad_fault::FaultPlan::new().blackhole(1, 2).arm();
    let timeouts_before = global_counter("ucad_net_timeouts_total");

    let addr = spawn_daemon();
    let cfg = NetClientConfig {
        read_timeout: Duration::from_millis(300),
        ..NetClientConfig::default()
    };
    let mut client = NetClient::connect_with(&addr, cfg).expect("connect");
    client.health().expect("first request passes");
    let err = client.health().expect_err("blackholed request times out");
    assert!(
        err.to_string().contains("deadline"),
        "timeout is typed: {err}"
    );
    assert!(client.poisoned(), "timeout poisons the connection");
    // Subsequent calls fail cleanly instead of desyncing the stream.
    let err = client.health().expect_err("poisoned connection refuses");
    assert!(err.to_string().contains("poisoned"), "{err}");
    assert!(
        global_counter("ucad_net_timeouts_total") > timeouts_before,
        "deadline expiry is counted"
    );

    client.reconnect().expect("reconnect heals");
    assert!(!client.poisoned());
    client.health().expect("healed connection serves again");
    client.shutdown_daemon().expect("shutdown");
}
