//! Cross-process serving: one logical UCAD engine spread over real daemon
//! processes, driven through the consistent-hash [`NetRouter`].
//!
//! ```sh
//! cargo run --release --example net_cluster
//! ```
//!
//! The example re-executes itself twice as daemon children (each child
//! trains the same seeded model, binds a loopback port and serves the
//! `ucad-net` protocol), routes an interleaved anomaly-bearing stream
//! across them, and proves the headline invariant of the network layer:
//! the merged cross-process alert stream is **byte-identical** to a
//! single-process engine ingesting the whole stream, because the router
//! assigns global arrival sequences and re-merges drained alerts with the
//! engine's own seq-sorted merge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use ucad::prelude::*;
use ucad_dbsim::LogRecord;
use ucad_net::{NetDaemon, NetRouter, NetServeConfig};
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

const CHILD_ENV: &str = "UCAD_NET_CLUSTER_CHILD";
const ROUTER_SEED: u64 = 0x5EED;

/// Deterministic tiny serving system: every process that calls this trains
/// bit-identical weights, so the daemons and the in-process reference all
/// serve the same model.
fn system() -> Ucad {
    let raw = generate_raw_log(&ScenarioSpec::commenting(), 60, 0.0, 4601);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        hidden: 8,
        heads: 2,
        blocks: 1,
        window: 8,
        epochs: 3,
        ..cfg.model
    };
    Ucad::train(&raw.sessions, cfg).0
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        cache_capacity: 256,
        ..ServeConfig::default()
    }
}

/// Child mode: bind a daemon on an ephemeral loopback port, announce it on
/// stdout, serve until the router asks us to shut down.
fn run_child() {
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve_cfg())
        .build()
        .expect("valid net serve configuration");
    let daemon = NetDaemon::bind(system(), cfg).expect("bind daemon");
    // Explicit flush: a piped (non-tty) stdout is block-buffered, and the
    // parent is waiting on this line before it connects.
    println!("NETD_ADDR={}", daemon.local_addr());
    std::io::Write::flush(&mut std::io::stdout()).expect("flush address line");
    daemon.run().expect("daemon serve loop");
}

/// A spawned daemon child, killed on drop so a panicking parent never
/// leaks processes.
struct DaemonChild {
    child: Child,
    addr: String,
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon_child() -> DaemonChild {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .env(CHILD_ENV, "1")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            panic!("daemon child exited before announcing its address");
        }
        if let Some(at) = line.find("NETD_ADDR=") {
            break line[at + "NETD_ADDR=".len()..].trim().to_string();
        }
    };
    // Keep draining the child's stdout in the background so its training
    // progress lines can never fill the pipe and stall it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    DaemonChild { child, addr }
}

/// Interleaved traffic: 10 sessions, the odd ones carrying an unknown
/// statement that alerts deterministically.
fn script() -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
    let mut rng = StdRng::seed_from_u64(777);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..10usize {
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

fn main() {
    if std::env::var(CHILD_ENV).as_deref() == Ok("1") {
        run_child();
        return;
    }

    let (stream, ids) = script();

    // The single-process reference: the whole stream through one engine.
    println!("training the in-process reference engine…");
    let mut reference = ShardedOnlineUcad::try_new(system(), serve_cfg()).expect("engine");
    for r in &stream {
        reference.try_submit(r).expect("reference submit");
    }
    for &id in &ids {
        reference.close_session(id);
    }
    let expected = reference.drain_alerts();
    drop(reference.shutdown());

    // The fleet: two daemon processes behind one router.
    println!("spawning 2 daemon processes…");
    let children: Vec<DaemonChild> = (0..2).map(|_| spawn_daemon_child()).collect();
    let addrs: Vec<String> = children.iter().map(|c| c.addr.clone()).collect();
    println!("daemons ready at {}", addrs.join(" and "));
    let mut router = NetRouter::connect(&addrs, ROUTER_SEED).expect("connect router");

    for (i, health) in router.health().expect("health").iter().enumerate() {
        println!(
            "daemon {i}: {} shards, model epoch {}, durable: {}",
            health.shards, health.model_epoch, health.durable
        );
    }

    // Same stream, same order — the router assigns each record its global
    // arrival sequence and ships it to its session's daemon.
    for r in &stream {
        assert_eq!(
            router.try_submit(r).expect("routed submit"),
            SubmitOutcome::Accepted
        );
    }
    for &id in &ids {
        router.close_session(id).expect("close");
    }
    let merged = router.drain_alerts().expect("drain fleet");
    println!(
        "submitted {} records across {} sessions and {} daemons",
        stream.len(),
        ids.len(),
        router.daemons()
    );
    for a in &merged {
        println!(
            "[ALARM] session {} (user {}): {:?} at operation {:?}",
            a.session_id, a.user, a.reason, a.position
        );
    }

    assert!(!merged.is_empty(), "the script must alert");
    assert_eq!(merged, expected, "cross-process alert stream diverged");
    println!(
        "cross-process alert stream matches the in-process reference ({} alerts)",
        merged.len()
    );

    // Fleet-wide accounting and transport counters, merged by the router.
    let stats = router.stats().expect("fleet stats");
    println!(
        "fleet shard load: {:?} records, shed {}, degraded {}",
        stats.records_per_shard, stats.records_shed, stats.records_degraded
    );
    println!("\n# --- fleet metrics (per-daemon, ucad_net_* transport counters included) ---");
    print!("{}", router.render_metrics().expect("fleet metrics"));

    let finals = router.shutdown().expect("fleet shutdown");
    for (i, s) in finals.iter().enumerate() {
        println!("daemon {i} final: {} records served", s.records());
    }
}
