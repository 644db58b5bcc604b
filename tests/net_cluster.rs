//! Cross-process byte-identity wall (ISSUE 8 tentpole proof): the canonical
//! interleaved stream is routed through a fleet of **real daemon child
//! processes** behind a [`NetRouter`], drained on the canonical cadence,
//! and the merged alert stream must be **byte-identical** to a
//! single-process engine serving the whole stream — for every fleet
//! topology (daemon count × cache setting).
//!
//! Two mechanisms carry the invariant across the process boundary:
//!
//! * the router assigns every record its global arrival sequence and ships
//!   it in the submit frame, so each daemon's engine tags alerts with
//!   stream-global numbers (`try_submit_at`);
//! * draining re-merges the fleet's seq-tagged alerts with the *same*
//!   `merge_seq_sorted` helper the engine uses for its own per-shard
//!   outboxes.
//!
//! The wall also reconciles fleet accounting: every submission is
//! accounted `accepted + shed + degraded == submitted` across the merged
//! [`ServeStats`], and all of it travels the wire as typed responses.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;
use ucad::{
    splitmix64, Admission, Alert, DurabilityConfig, ServeConfig, ShardedOnlineUcad, SubmitOutcome,
    Ucad, UcadConfig,
};
use ucad_dbsim::LogRecord;
use ucad_model::TransDasConfig;
use ucad_net::{NetDaemon, NetRouter, NetRouterConfig, NetServeConfig, RetryPolicy};
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

/// Drain cadence of the canonical run, in script positions. Matching the
/// reference and the fleet position-for-position matters: Block-style
/// batching aside, a drain is an observable boundary in the alert stream.
const DRAIN_EVERY: usize = 7;

const ROUTER_SEED: u64 = 0xDA11A5;

/// Builds the serving system deterministically. The parent's reference
/// engine and every daemon child train this from scratch in their own
/// process; seeded training is bit-identical, so the whole fleet serves
/// the same model.
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

fn serve_cfg(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        shards: 2,
        cache_capacity,
        ..ServeConfig::default()
    }
}

/// The canonical interleaved stream: 8 sessions, every other one carrying
/// an unknown statement mid-session (a deterministic alert regardless of
/// model weights), shuffled under a fixed seed.
fn script() -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
    let mut rng = StdRng::seed_from_u64(4603);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..8usize {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 60_000 + i as u64;
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

/// Walks the canonical script through any [`Admission`] — the in-process
/// reference engine or a router over N daemon processes — draining on the
/// canonical cadence. Returns the concatenated drained alert stream and
/// the number of records submitted (all accepted: no faults are armed).
fn run_canonical<A: Admission>(engine: &mut A) -> (Vec<Alert>, u64) {
    let (stream, ids) = script();
    let mut alerts = Vec::new();
    let mut pos = 0usize;
    for record in &stream {
        pos += 1;
        if pos.is_multiple_of(DRAIN_EVERY) {
            alerts.extend(engine.drain_alerts().expect("cadence drain"));
        }
        assert_eq!(engine.try_submit(record), Ok(SubmitOutcome::Accepted));
    }
    for &id in &ids {
        pos += 1;
        if pos.is_multiple_of(DRAIN_EVERY) {
            alerts.extend(engine.drain_alerts().expect("cadence drain"));
        }
        engine.close_session(id).expect("close session");
    }
    engine.flush().expect("final flush");
    alerts.extend(engine.drain_alerts().expect("final drain"));
    (alerts, stream.len() as u64)
}

/// One daemon child: bind on an ephemeral loopback port, announce the
/// address on stdout, serve until the router's shutdown request.
fn run_child() {
    let cache: usize = std::env::var("UCAD_NETD_CACHE")
        .expect("cache env")
        .parse()
        .expect("cache env parses");
    let mut builder = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve_cfg(cache));
    // A durable child persists (and on restart recovers) its engine state
    // under the supervisor-provided directory — the failover wall's
    // respawn path.
    if let Some(dir) = std::env::var_os("UCAD_NETD_DIR") {
        builder = builder.durability(DurabilityConfig::new(PathBuf::from(dir)));
    }
    let cfg = builder.build().expect("valid net config");
    let daemon = NetDaemon::bind(system(), cfg).expect("bind daemon");
    // Explicit flush: a piped (non-tty) stdout is block-buffered, and the
    // parent is waiting on this line before it connects.
    println!("NETD_ADDR={}", daemon.local_addr());
    std::io::Write::flush(&mut std::io::stdout()).expect("flush address line");
    daemon.run().expect("daemon serve loop");
}

/// Child entry point: inert in a normal test run, a serving daemon when
/// re-exec'ed by the wall below.
#[test]
fn child_entry() {
    if std::env::var_os("UCAD_NETD_ROLE").is_some() {
        run_child();
    }
}

/// A spawned daemon child, killed on drop so a failing wall never leaks
/// processes.
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

fn spawn_daemon_child(cache: usize) -> DaemonChild {
    spawn_daemon_child_with(cache, None, None)
}

/// [`spawn_daemon_child`] plus a durable state directory and/or a
/// `UCAD_FAULTS` spec armed inside the child only.
fn spawn_daemon_child_with(cache: usize, dir: Option<&Path>, faults: Option<&str>) -> DaemonChild {
    let exe = std::env::current_exe().expect("own test binary");
    let mut cmd = Command::new(exe);
    cmd.arg("child_entry")
        .arg("--exact")
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env("UCAD_NETD_ROLE", "daemon")
        .env("UCAD_NETD_CACHE", cache.to_string())
        .stdout(Stdio::piped());
    if let Some(dir) = dir {
        cmd.env("UCAD_NETD_DIR", dir);
    }
    if let Some(faults) = faults {
        cmd.env("UCAD_FAULTS", faults);
    }
    let mut child = cmd.spawn().expect("spawn daemon child");
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            panic!("daemon child exited before announcing its address");
        }
        // libtest prints `test child_entry ... ` without a newline before
        // the test body runs, so the marker may not start the line.
        if let Some(at) = line.find("NETD_ADDR=") {
            break line[at + "NETD_ADDR=".len()..].trim().to_string();
        }
    };
    // Keep draining the child's stdout so the libtest epilogue can never
    // fill the pipe and wedge the child.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    DaemonChild { child, addr }
}

/// Routes the canonical script across `daemons` real child processes and
/// checks the merged drained stream against `expected`, plus fleet-wide
/// accounting.
fn check_topology(daemons: usize, cache: usize, expected: &[Alert]) {
    let children: Vec<DaemonChild> = (0..daemons).map(|_| spawn_daemon_child(cache)).collect();
    let addrs: Vec<String> = children.iter().map(|c| c.addr.clone()).collect();
    let mut router = NetRouter::connect(&addrs, ROUTER_SEED).expect("connect router");
    assert_eq!(router.daemons(), daemons);

    let (got, submitted) = run_canonical(&mut router);
    assert_eq!(
        got, expected,
        "fleet {daemons}x{cache}: merged cross-process alert stream \
         diverged from the single-process reference"
    );

    // Fleet accounting: no faults armed, so every submission was accepted
    // and reached a shard worker on some daemon.
    let stats = Admission::stats(&mut router).expect("fleet stats");
    assert_eq!(stats.records_shed, 0);
    assert_eq!(stats.records_degraded, 0);
    assert_eq!(
        stats.records(),
        submitted,
        "fleet {daemons}x{cache}: accepted + shed + degraded != submitted"
    );
    assert_eq!(
        stats.records_per_shard.len(),
        daemons * 2,
        "stats merge concatenates per-daemon shards"
    );
    if cache > 0 {
        let cache_stats = stats.cache.expect("caching fleet reports cache stats");
        assert_eq!(cache_stats.capacity, cache * daemons);
    }

    // Every daemon saw the router's connection and at least one request.
    for health in router.health().expect("fleet health") {
        assert_eq!(health.shards, 2);
    }
    let metrics = Admission::render_metrics(&mut router).expect("fleet metrics");
    assert!(metrics.contains("ucad_net_requests_total"));

    for (i, stats) in router
        .shutdown()
        .expect("fleet shutdown")
        .iter()
        .enumerate()
    {
        assert!(
            daemons == 1 || stats.records() < submitted,
            "daemon {i} served the whole stream; routing is degenerate"
        );
    }
    for mut child in children {
        let status = child.child.wait().expect("child exit");
        assert!(status.success(), "daemon child exited uncleanly: {status}");
    }
}

/// The wall: a single-process reference, then every fleet topology against
/// it byte-for-byte.
#[test]
fn cross_process_alert_stream_is_byte_identical() {
    if std::env::var_os("UCAD_NETD_ROLE").is_some() {
        return; // daemon children run `child_entry` only
    }

    let mut reference =
        ShardedOnlineUcad::try_new(system(), serve_cfg(0)).expect("valid serve config");
    let (expected, submitted) = run_canonical(&mut reference);
    let ref_stats = reference.stats();
    assert_eq!(ref_stats.records(), submitted);
    drop(reference.shutdown());
    assert!(
        expected.len() >= 4,
        "the canonical script must alert ({} alerts) or the wall is vacuous",
        expected.len()
    );

    // Debug builds serve (and train, three processes per fleet) slowly;
    // sweep the full topology grid only under optimization.
    let topologies: &[(usize, usize)] = if cfg!(debug_assertions) {
        &[(2, 0)]
    } else {
        &[(1, 0), (1, 256), (2, 0), (2, 256), (3, 0), (3, 256)]
    };
    for &(daemons, cache) in topologies {
        check_topology(daemons, cache, &expected);
    }
}

/// The victim daemon aborts itself (via an armed `crash_reply` fault) just
/// before acking this many submit replies — after the engine has consumed
/// and durably logged the record, so the router's resubmit is a true
/// lost-ack replay.
const CRASH_AT: u64 = 4;

/// Sums one counter across a fleet's concatenated Prometheus exposition.
fn fleet_counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix(&format!("{name} ")))
        .filter_map(|v| v.trim().parse::<u64>().ok())
        .sum()
}

/// Routes the canonical script across durable child daemons while the
/// victim kills itself mid-stream; a supervisor thread respawns it over
/// the same durable directory and repoints the router's address book. The
/// merged stream must still match the crash-free reference byte for byte.
fn check_failover_topology(daemons: usize, cache: usize, expected: &[Alert]) {
    let base = std::env::temp_dir().join(format!(
        "ucad-net-failover-{}-{daemons}-{cache}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);

    // The victim is whichever daemon serves the canonical script's first
    // session — guaranteed traffic for any daemon count. Guard against a
    // vacuous wall: it must see enough submits to reach the crash point.
    let victim_idx = (splitmix64(ROUTER_SEED ^ 60_000) % daemons as u64) as usize;
    let (stream, _ids) = script();
    let victim_submits = stream
        .iter()
        .filter(|r| {
            (splitmix64(ROUTER_SEED ^ r.session_id) % daemons as u64) as usize == victim_idx
        })
        .count() as u64;
    assert!(
        victim_submits > CRASH_AT,
        "victim daemon would see only {victim_submits} submits; the crash never fires"
    );

    let mut children: Vec<Option<DaemonChild>> = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..daemons {
        let dir = base.join(format!("daemon-{i}"));
        std::fs::create_dir_all(&dir).expect("daemon state dir");
        let faults = (i == victim_idx).then(|| format!("crash_reply={CRASH_AT}"));
        children.push(Some(spawn_daemon_child_with(
            cache,
            Some(&dir),
            faults.as_deref(),
        )));
        dirs.push(dir);
    }
    let addrs: Vec<String> = children
        .iter()
        .map(|c| c.as_ref().expect("spawned").addr.clone())
        .collect();
    // A failover budget generous enough to cover the replacement child's
    // spawn + from-scratch training + durable recovery.
    let mut router = NetRouter::connect_with(
        &addrs,
        ROUTER_SEED,
        NetRouterConfig {
            failover: RetryPolicy {
                attempts: 120,
                backoff_base: Duration::from_millis(100),
                backoff_cap: Duration::from_secs(1),
            },
            ..NetRouterConfig::default()
        },
    )
    .expect("connect router");
    let book = router.addr_book();

    // The supervisor: reap the victim's corpse, respawn it (fault-free)
    // over its durable directory, repoint the address book.
    let victim = children[victim_idx].take().expect("victim spawned");
    let victim_dir = dirs[victim_idx].clone();
    let supervisor = std::thread::spawn(move || {
        let mut victim = victim;
        let status = victim.child.wait().expect("victim exit status");
        assert!(
            !status.success(),
            "victim must die by fault injection, not exit cleanly"
        );
        let replacement = spawn_daemon_child_with(cache, Some(&victim_dir), None);
        book.set(victim_idx, replacement.addr.clone());
        replacement
    });

    let reconnects_before = ucad_obs::global()
        .counter("ucad_net_reconnects_total", &[])
        .get();
    let (got, submitted) = run_canonical(&mut router);
    let replacement = supervisor.join().expect("supervisor thread");
    children[victim_idx] = Some(replacement);

    assert_eq!(
        got, expected,
        "failover fleet {daemons}x{cache}: alert stream diverged through \
         kill + durable recovery + failover"
    );
    let reconnects = ucad_obs::global()
        .counter("ucad_net_reconnects_total", &[])
        .get();
    assert!(
        reconnects > reconnects_before,
        "the wall is vacuous without at least one reconnect"
    );
    let metrics = Admission::render_metrics(&mut router).expect("fleet metrics");
    assert!(
        fleet_counter(&metrics, "ucad_net_resubmitted_total") > 0,
        "the wall is vacuous unless a lost-ack submit was dup-acked"
    );

    // Exact accounting survives the crash: the record whose ack died with
    // the victim is counted once — by the recovered engine.
    let stats = Admission::stats(&mut router).expect("fleet stats");
    assert_eq!(stats.records_shed, 0);
    assert_eq!(stats.records_degraded, 0);
    assert_eq!(
        stats.records(),
        submitted,
        "failover fleet {daemons}x{cache}: accepted + shed + degraded != submitted"
    );

    router.shutdown().expect("fleet shutdown");
    for child in children.into_iter().flatten() {
        let mut child = child;
        let status = child.child.wait().expect("child exit");
        assert!(status.success(), "daemon child exited uncleanly: {status}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The kill-and-failover wall (ISSUE 10 tentpole proof): a daemon killed
/// mid-stream by fault injection and respawned via durable recovery must
/// leave the router's merged alert stream byte-identical to the
/// single-process reference — with real reconnects and real dup-acked
/// resubmits along the way.
#[test]
fn kill_and_failover_alert_stream_is_byte_identical() {
    if std::env::var_os("UCAD_NETD_ROLE").is_some() {
        return; // daemon children run `child_entry` only
    }

    let mut reference =
        ShardedOnlineUcad::try_new(system(), serve_cfg(0)).expect("valid serve config");
    let (expected, _submitted) = run_canonical(&mut reference);
    drop(reference.shutdown());
    assert!(
        expected.len() >= 4,
        "the canonical script must alert ({} alerts) or the wall is vacuous",
        expected.len()
    );

    // Each topology spawns daemons+1 child processes that train from
    // scratch; sweep the full grid only under optimization.
    let topologies: &[(usize, usize)] = if cfg!(debug_assertions) {
        &[(2, 0)]
    } else {
        &[(1, 0), (1, 256), (2, 0), (2, 256), (3, 0), (3, 256)]
    };
    for &(daemons, cache) in topologies {
        check_failover_topology(daemons, cache, &expected);
    }
}

fn suffix_replay_cases() -> u32 {
    if cfg!(debug_assertions) {
        2
    } else {
        6
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suffix_replay_cases()))]

    /// Replaying *any* suffix of the submit sequence after a crash and
    /// durable recovery never duplicates or reorders alerts vs the
    /// crash-free reference — the engine-side idempotence
    /// (`try_submit_at`'s watermark dup-ack) that makes the router's
    /// reconnect-and-resubmit protocol safe for an arbitrary window of
    /// unacknowledged frames.
    #[test]
    fn replaying_any_submit_suffix_after_recovery_is_byte_identical(
        cut_frac in 0.05f64..0.95,
        replay_frac in 0.0f64..1.0,
    ) {
        let (stream, ids) = script();
        let n = stream.len();
        let cut = (((n as f64) * cut_frac) as usize).clamp(1, n - 1);
        let replay_from = (((cut as f64) * replay_frac) as usize).min(cut);

        // Crash-free reference, same seq tagging as the durable run.
        let mut reference = ShardedOnlineUcad::try_new(system(), serve_cfg(0)).expect("valid serve config");
        for (seq, record) in stream.iter().enumerate() {
            prop_assert_eq!(
                reference.try_submit_at(record, seq as u64),
                Ok(SubmitOutcome::Accepted)
            );
        }
        for &id in &ids {
            reference.close_session(id);
        }
        reference.flush();
        let expected = ShardedOnlineUcad::drain_alerts(&mut reference);
        drop(reference.shutdown());
        prop_assert!(!expected.is_empty(), "script must alert or this is vacuous");

        // Durable run: crash after `cut` submits, recover, replay from
        // `replay_from` — an arbitrary overlap with the consumed prefix.
        let dir = std::env::temp_dir().join(format!(
            "ucad-suffix-replay-{}-{cut}-{replay_from}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = ShardedOnlineUcad::recover(
            system(),
            serve_cfg(0),
            DurabilityConfig::new(&dir),
        )
        .expect("fresh durable engine");
        for (seq, record) in stream[..cut].iter().enumerate() {
            prop_assert_eq!(
                engine.try_submit_at(record, seq as u64),
                Ok(SubmitOutcome::Accepted)
            );
        }
        engine.abandon();

        let mut engine =
            ShardedOnlineUcad::recover(system(), serve_cfg(0), DurabilityConfig::new(&dir))
                .expect("durable recovery");
        prop_assert_eq!(
            engine.seq_watermark(),
            cut as u64,
            "recovery must restore the arrival-sequence watermark"
        );
        for (i, record) in stream[replay_from..].iter().enumerate() {
            let seq = (replay_from + i) as u64;
            prop_assert_eq!(
                engine.try_submit_at(record, seq),
                Ok(SubmitOutcome::Accepted)
            );
        }
        for &id in &ids {
            engine.close_session(id);
        }
        engine.flush();
        let got = ShardedOnlineUcad::drain_alerts(&mut engine);
        prop_assert_eq!(got, expected, "suffix replay duplicated or reordered alerts");
        let stats = engine.stats();
        prop_assert_eq!(
            stats.records(),
            n as u64,
            "every record exactly once across crash + replay"
        );
        drop(engine.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
