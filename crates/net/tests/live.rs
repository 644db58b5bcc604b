//! Live daemon walls: a real `NetDaemon` on a real socket, driven by
//! `NetClient` — alert-stream fidelity vs the in-process engine, typed
//! overload accounting across the wire, and damage handling where the
//! *connection* survives recoverable payload garbage while the *daemon*
//! survives unrecoverable framing garbage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use ucad::{
    Admission, DurabilityConfig, NgramLm, OverloadPolicy, ServeConfig, ShardedOnlineUcad,
    SubmitOutcome, Ucad, UcadConfig, UcadError,
};
use ucad_baselines::BaselineDetector;
use ucad_dbsim::LogRecord;
use ucad_model::TransDasConfig;
use ucad_net::protocol::{
    decode_frame, decode_message, encode_frame, encode_message, FrameKind, Request, Response,
    HEADER_LEN,
};
use ucad_net::{NetClient, NetDaemon, NetServeConfig};
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

/// Deterministic tiny serving system — seeded training is bit-identical,
/// so every engine in this file serves the same model.
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
    let mut rng = StdRng::seed_from_u64(777);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..6usize {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 90_000 + i as u64;
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

fn spawn_daemon(serve: ServeConfig) -> (String, NetClient) {
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve)
        .build()
        .expect("valid net config");
    let daemon = NetDaemon::bind(system(), cfg).expect("bind daemon");
    let (addr, _stop, _join) = daemon.spawn();
    let addr = addr.to_string();
    let client = NetClient::connect(&addr).expect("connect");
    (addr, client)
}

#[test]
fn daemon_matches_in_process_engine_alert_for_alert() {
    let (stream, ids) = script();

    // In-process reference.
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

    // Same script through a live daemon.
    let (_addr, mut client) = spawn_daemon(serve_cfg());
    for r in &stream {
        assert_eq!(
            Admission::try_submit(&mut client, r),
            Ok(SubmitOutcome::Accepted)
        );
    }
    for &id in &ids {
        Admission::close_session(&mut client, id).expect("close");
    }
    let got = Admission::drain_alerts(&mut client).expect("drain");
    assert_eq!(got, expected, "remote alert stream diverged");

    // Identity and exposition survive the hop.
    let health = client.health().expect("health");
    assert_eq!(health.shards, 2);
    assert_eq!(health.records, stream.len() as u64);
    assert!(!health.durable);
    let stats = Admission::stats(&mut client).expect("stats");
    assert_eq!(stats.records(), stream.len() as u64);
    let metrics = Admission::render_metrics(&mut client).expect("metrics");
    for metric in [
        "ucad_serve_records_total",
        "ucad_net_connections_total",
        "ucad_net_requests_total",
        "ucad_net_bytes_read_total",
        "ucad_net_bytes_written_total",
        "ucad_net_alerts_streamed_total",
        "ucad_net_protocol_errors_total",
    ] {
        assert!(metrics.contains(metric), "exposition lost {metric}");
    }
    let flight = Admission::dump_flight_json(&mut client).expect("flight");
    assert!(flight.starts_with('['), "flight dump is a JSON array");
    let final_stats = client.shutdown_daemon().expect("shutdown");
    assert_eq!(final_stats.records(), stream.len() as u64);
}

#[test]
fn shed_accounting_travels_the_wire_exactly() {
    let cfg = ServeConfig {
        shards: 2,
        overload: OverloadPolicy::ShedNewest,
        ..ServeConfig::default()
    };
    let (_addr, mut client) = spawn_daemon(cfg);
    let (stream, ids) = script();
    // Force shard-queue saturation for a deterministic submission range;
    // the armed plan is process-global, so the daemon's connection thread
    // observes it.
    let shed_range = 4..12u64;
    let _armed = ucad_fault::FaultPlan::new()
        .saturate(shed_range.start, shed_range.end, None)
        .arm();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for r in &stream {
        match Admission::try_submit(&mut client, r).expect("submit") {
            SubmitOutcome::Accepted => accepted += 1,
            SubmitOutcome::Shed => shed += 1,
            SubmitOutcome::Degraded => panic!("no degrade under ShedNewest"),
        }
    }
    for &id in &ids {
        Admission::close_session(&mut client, id).expect("close");
    }
    assert_eq!(
        shed,
        shed_range.end - shed_range.start,
        "the armed saturation window must shed exactly its width"
    );
    let stats = Admission::stats(&mut client).expect("stats");
    assert_eq!(stats.records_shed, shed, "daemon-side shed accounting");
    assert_eq!(
        accepted + shed,
        stream.len() as u64,
        "accounting identity across the wire"
    );
    assert_eq!(stats.records(), accepted, "accepted records reach shards");
    client.shutdown_daemon().expect("shutdown");
}

/// Reads one raw frame off a plain TCP stream (test-side mirror of the
/// daemon's reader).
fn read_raw_response(stream: &mut TcpStream) -> Option<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match decode_frame(&buf) {
            Ok(Some((kind, payload, _))) => {
                assert_eq!(kind, FrameKind::Response);
                return Some(decode_message(&payload).expect("parse response"));
            }
            Ok(None) => {}
            Err(e) => panic!("daemon sent a damaged frame: {e}"),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

#[test]
fn recoverable_garbage_keeps_the_connection_fatal_garbage_only_kills_it() {
    let (addr, mut client) = spawn_daemon(serve_cfg());

    // 1) A structurally valid frame whose payload is not a Request: the
    //    daemon answers a recoverable error and the connection survives.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let garbage = encode_frame(FrameKind::Request, b"{\"not\":\"a request\"}");
    raw.write_all(&garbage).expect("send garbage payload");
    match read_raw_response(&mut raw).expect("a response") {
        Response::Error {
            recoverable,
            message,
        } => {
            assert!(recoverable, "payload garbage is recoverable: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // Same connection, next frame: still served.
    let health = encode_message(FrameKind::Request, &Request::Health);
    raw.write_all(&health).expect("send health after garbage");
    match read_raw_response(&mut raw).expect("a response") {
        Response::Health(info) => assert_eq!(info.shards, 2),
        other => panic!("expected health, got {other:?}"),
    }

    // 2) A frame whose payload CRC is wrong: framing damage, the daemon
    //    answers unrecoverable and closes this connection.
    let mut flipped = encode_message(FrameKind::Request, &Request::Flush);
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    raw.write_all(&flipped).expect("send bit-flipped frame");
    match read_raw_response(&mut raw).expect("a response") {
        Response::Error { recoverable, .. } => {
            assert!(!recoverable, "CRC damage is unrecoverable")
        }
        other => panic!("expected an error, got {other:?}"),
    }
    assert!(
        read_raw_response(&mut raw).is_none(),
        "daemon must close the damaged connection"
    );

    // 3) Bad magic on a fresh connection: rejected and closed, daemon
    //    still alive for everyone else.
    let mut evil = TcpStream::connect(&addr).expect("raw connect");
    let mut bad_magic = encode_message(FrameKind::Request, &Request::Flush);
    bad_magic[0] = b'X';
    evil.write_all(&bad_magic).expect("send bad magic");
    match read_raw_response(&mut evil) {
        Some(Response::Error { recoverable, .. }) => assert!(!recoverable),
        // The daemon may also close before the best-effort error lands.
        Some(other) => panic!("expected an error, got {other:?}"),
        None => {}
    }

    // 4) Oversized length header on a fresh connection: same fate.
    let mut huge = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = encode_message(FrameKind::Request, &Request::Flush);
    frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    huge.write_all(&frame[..HEADER_LEN]).expect("send header");
    match read_raw_response(&mut huge) {
        Some(Response::Error { recoverable, .. }) => assert!(!recoverable),
        Some(other) => panic!("expected an error, got {other:?}"),
        None => {}
    }

    // The daemon survived all of it: the original client still works.
    let health = client.health().expect("daemon still serving");
    assert_eq!(health.shards, 2);
    client.shutdown_daemon().expect("shutdown");
}

#[test]
fn resubmit_below_the_watermark_is_acked_without_reprocessing() {
    let (_addr, mut client) = spawn_daemon(serve_cfg());
    let (stream, _ids) = script();
    assert_eq!(
        client.submit_at(5, &stream[0]).expect("submit at 5"),
        SubmitOutcome::Accepted
    );
    // A sequence at or below the watermark is a replay of a settled
    // arrival position: the daemon dup-acks it without touching any shard
    // — the idempotence that makes reconnect-and-resubmit safe.
    assert_eq!(
        client.submit_at(3, &stream[1]).expect("resubmit at 3"),
        SubmitOutcome::Accepted
    );
    assert_eq!(
        client.submit_at(5, &stream[0]).expect("resubmit at 5"),
        SubmitOutcome::Accepted
    );
    assert_eq!(
        client.submit_at(6, &stream[1]).expect("submit at 6"),
        SubmitOutcome::Accepted
    );
    let stats = Admission::stats(&mut client).expect("stats");
    assert_eq!(stats.records(), 2, "dup-acks must reach no shard");
    let metrics = Admission::render_metrics(&mut client).expect("metrics");
    assert!(
        metrics.contains("ucad_net_resubmitted_total 2"),
        "both dup-acks counted: {metrics}"
    );
    client.shutdown_daemon().expect("shutdown");
}

/// A durable daemon refuses `Degrade` even with a fitted fallback: a
/// degraded alert lives only in memory, so a crash would lose it.
#[test]
fn durable_daemon_refuses_the_degrade_policy() {
    let dir = std::env::temp_dir().join(format!("ucad-net-durable-degrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(ServeConfig {
            overload: OverloadPolicy::Degrade,
            ..serve_cfg()
        })
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid net config");
    let system = system();
    let mut lm = NgramLm::new(3, 4);
    lm.fit(&[vec![1, 2, 3]], system.model.cfg.vocab_size);
    assert!(lm.is_fitted());
    match NetDaemon::bind_full(system, cfg, Some(lm)) {
        Err(UcadError::InvalidConfig {
            field: "overload", ..
        }) => {}
        Err(other) => panic!("wrong error for a durable Degrade daemon: {other}"),
        Ok(_) => panic!("a durable daemon must refuse Degrade"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_and_mid_frame_stalls_are_cut_off() {
    let serve = serve_cfg();
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve)
        .read_timeout(std::time::Duration::from_millis(200))
        .idle_timeout(std::time::Duration::from_millis(400))
        .build()
        .expect("valid net config");
    let daemon = NetDaemon::bind(system(), cfg).expect("bind daemon");
    let (addr, _stop, _join) = daemon.spawn();
    let addr = addr.to_string();

    // A connection that goes silent at a frame boundary is reaped.
    let mut idle = TcpStream::connect(&addr).expect("idle connect");
    let mut byte = [0u8; 1];
    assert_eq!(
        idle.read(&mut byte).expect("reaped connection EOFs"),
        0,
        "daemon must close the idle connection"
    );

    // A connection that stalls *mid-frame* is cut off on the (shorter)
    // read deadline with an unrecoverable error: the half-frame can never
    // resynchronise the stream.
    let mut stalled = TcpStream::connect(&addr).expect("stalled connect");
    let frame = encode_message(FrameKind::Request, &Request::Health);
    stalled
        .write_all(&frame[..HEADER_LEN / 2])
        .expect("half a header");
    match read_raw_response(&mut stalled) {
        Some(Response::Error { recoverable, .. }) => assert!(!recoverable),
        // The close may also beat the best-effort error.
        Some(other) => panic!("expected an error, got {other:?}"),
        None => {}
    }

    // The daemon survived both and counted the reap.
    let mut client = NetClient::connect(&addr).expect("connect");
    let metrics = Admission::render_metrics(&mut client).expect("metrics");
    let reaped = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ucad_net_idle_reaped_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("idle reap counter exposed");
    assert!(reaped >= 1, "idle connection counted: {metrics}");
    client.shutdown_daemon().expect("shutdown");
}
