//! Fault-tolerant cross-process serving: a router soak through network
//! damage, a daemon kill, and durable failover.
//!
//! ```sh
//! cargo run --release --example net_failover
//! ```
//!
//! The example re-executes itself as two **durable** daemon children. The
//! victim child arms network faults from the environment
//! (`conn_reset` + `torn_frame`) and finally `crash_reply` — it dies
//! mid-stream with a submit consumed but unacknowledged. A supervisor
//! thread respawns it over the same durable directory (crash recovery
//! restores the engine *and* its arrival-sequence watermark) and repoints
//! the router's address book; the router's reconnect-and-resubmit loop
//! replays the lost-ack submit, which the recovered engine dup-acks below
//! its watermark. The replacement additionally blackholes one request to
//! force a client read-deadline expiry, and the daemons run a short idle
//! deadline so an abandoned connection demonstrates the reap.
//!
//! Despite all of it, the merged alert stream must be **byte-identical**
//! to a single-process engine serving the unfaulted stream, with exact
//! `accepted + shed + degraded == submitted` accounting — and every one of
//! the five resilience counters (`ucad_net_{retries,reconnects,timeouts,
//! resubmitted,idle_reaped}_total`) strictly positive, printed at the end
//! for CI to grep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use ucad::prelude::*;
use ucad::{splitmix64, DurabilityConfig};
use ucad_dbsim::LogRecord;
use ucad_net::{
    NetClientConfig, NetDaemon, NetRouter, NetRouterConfig, NetServeConfig, RetryPolicy,
};
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

const CHILD_ENV: &str = "UCAD_NET_FAILOVER_CHILD";
const ROUTER_SEED: u64 = 0xFA11;
const DAEMONS: usize = 2;
/// The victim aborts itself just before acking this many submit replies.
const CRASH_AT: u64 = 9;

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

/// Child mode: bind a durable daemon with a short idle deadline, announce
/// it on stdout, serve until shutdown (or until an armed `crash_reply`
/// fault aborts the process).
fn run_child() {
    let dir = std::env::var_os("UCAD_NETD_DIR").expect("durable dir env");
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve_cfg())
        .durability(DurabilityConfig::new(PathBuf::from(dir)))
        .idle_timeout(Duration::from_millis(500))
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

fn spawn_daemon_child(dir: &Path, faults: Option<&str>) -> DaemonChild {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.env(CHILD_ENV, "1")
        .env("UCAD_NETD_DIR", dir)
        .stdout(Stdio::piped());
    if let Some(faults) = faults {
        cmd.env("UCAD_FAULTS", faults);
    }
    let mut child = cmd.spawn().expect("spawn daemon child");
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
    let mut rng = StdRng::seed_from_u64(4242);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..10usize {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 80_000 + i as u64;
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

/// Sums one counter across the fleet's concatenated exposition.
fn fleet_counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix(&format!("{name} ")))
        .filter_map(|v| v.trim().parse::<u64>().ok())
        .sum()
}

fn global_counter(name: &str) -> u64 {
    ucad_obs::global().counter(name, &[]).get()
}

fn main() {
    if std::env::var(CHILD_ENV).as_deref() == Ok("1") {
        run_child();
        return;
    }

    let (stream, ids) = script();

    // The single-process, unfaulted reference.
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
    assert!(!expected.is_empty(), "the script must alert");

    // The fleet: two durable daemon processes. The victim (whichever
    // daemon serves the first session) arms resets + torn submit acks and
    // a self-kill; its eventual replacement blackholes one request to
    // force a client read-deadline expiry.
    let base =
        std::env::temp_dir().join(format!("ucad-net-failover-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let victim_idx = (splitmix64(ROUTER_SEED ^ ids[0]) % DAEMONS as u64) as usize;
    println!("spawning {DAEMONS} durable daemon processes (victim: daemon {victim_idx})…");
    let mut children: Vec<Option<DaemonChild>> = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..DAEMONS {
        let dir = base.join(format!("daemon-{i}"));
        std::fs::create_dir_all(&dir).expect("daemon state dir");
        let faults =
            (i == victim_idx).then(|| format!("conn_reset=11;torn_frame=7;crash_reply={CRASH_AT}"));
        children.push(Some(spawn_daemon_child(&dir, faults.as_deref())));
        dirs.push(dir);
    }
    let addrs: Vec<String> = children
        .iter()
        .map(|c| c.as_ref().expect("spawned").addr.clone())
        .collect();
    println!("daemons ready at {}", addrs.join(" and "));

    // The client read deadline must undercut the daemons' 500ms idle
    // deadline: a blackholed request then surfaces as a counted timeout
    // rather than being reaped into a plain EOF. The failover budget is
    // generous enough to cover respawn + retraining.
    let mut router = NetRouter::connect_with(
        &addrs,
        ROUTER_SEED,
        NetRouterConfig {
            client: NetClientConfig {
                read_timeout: Duration::from_millis(300),
                ..NetClientConfig::default()
            },
            failover: RetryPolicy {
                attempts: 120,
                backoff_base: Duration::from_millis(50),
                backoff_cap: Duration::from_secs(1),
            },
        },
    )
    .expect("connect router");
    let book = router.addr_book();

    // The supervisor: reap the victim's corpse, respawn it over the same
    // durable directory (with the blackhole armed), repoint the book.
    let victim = children[victim_idx].take().expect("victim spawned");
    let victim_dir = dirs[victim_idx].clone();
    let supervisor_book = book.clone();
    let supervisor = std::thread::spawn(move || {
        let mut victim = victim;
        let status = victim.child.wait().expect("victim exit status");
        assert!(!status.success(), "victim must die by fault injection");
        println!("victim daemon died ({status}); respawning over its durable state…");
        let replacement = spawn_daemon_child(&victim_dir, Some("blackhole=5..6"));
        println!("replacement ready at {}", replacement.addr);
        supervisor_book.set(victim_idx, replacement.addr.clone());
        replacement
    });

    // Drive the whole stream through the damage.
    for r in &stream {
        assert_eq!(
            router.try_submit(r).expect("healed submit"),
            SubmitOutcome::Accepted
        );
    }
    for &id in &ids {
        router.close_session(id).expect("healed close");
    }
    let merged = router.drain_alerts().expect("healed drain");
    let replacement = supervisor.join().expect("supervisor thread");
    children[victim_idx] = Some(replacement);

    assert_eq!(
        merged, expected,
        "alert stream diverged through kill + recovery + failover"
    );
    println!(
        "alert stream byte-identical through kill -9 + durable failover ({} alerts)",
        merged.len()
    );

    // Exact accounting: the lost-ack submit is counted exactly once.
    let stats = router.stats().expect("fleet stats");
    let submitted = stream.len() as u64;
    assert_eq!(stats.records_shed, 0);
    assert_eq!(stats.records_degraded, 0);
    assert_eq!(
        stats.records() + stats.records_shed + stats.records_degraded,
        submitted,
        "accepted + shed + degraded != submitted"
    );
    println!("exact accounting: accepted + shed + degraded == submitted == {submitted}");

    // Demonstrate the idle reap: abandon a connection past the daemons'
    // idle deadline and let the daemon close it.
    let idle = TcpStream::connect(book.get(victim_idx)).expect("idle connect");
    let mut byte = [0u8; 1];
    let mut idle_reader = idle;
    assert_eq!(
        idle_reader.read(&mut byte).expect("reaped connection EOFs"),
        0,
        "daemon must close the idle connection"
    );

    // The five resilience counters, all non-vacuous, in exposition format
    // for CI to grep.
    let metrics = router.render_metrics().expect("fleet metrics");
    let counters = [
        (
            "ucad_net_retries_total",
            global_counter("ucad_net_retries_total"),
        ),
        (
            "ucad_net_reconnects_total",
            global_counter("ucad_net_reconnects_total"),
        ),
        (
            "ucad_net_timeouts_total",
            global_counter("ucad_net_timeouts_total"),
        ),
        (
            "ucad_net_resubmitted_total",
            fleet_counter(&metrics, "ucad_net_resubmitted_total"),
        ),
        (
            "ucad_net_idle_reaped_total",
            fleet_counter(&metrics, "ucad_net_idle_reaped_total"),
        ),
    ];
    println!("\n# --- resilience counters (router-side + fleet-side) ---");
    for (name, value) in counters {
        assert!(value > 0, "{name} must be non-vacuous in the soak");
        println!("{name} {value}");
    }

    // Heal every connection (the short idle deadline may have reaped
    // some while we were waiting), then stop the fleet.
    router.health().expect("fleet health");
    let finals = router.shutdown().expect("fleet shutdown");
    for (i, s) in finals.iter().enumerate() {
        println!("daemon {i} final: {} records served", s.records());
    }
    let _ = std::fs::remove_dir_all(&base);
}
