//! Crash-recovery quickstart: a durable serving engine survives `kill -9`.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```
//!
//! The binary re-executes itself as a sequence of *generations*. Every
//! generation recovers the durable engine from the same WAL directory,
//! resumes the canonical session stream past whatever is already durable,
//! and drains alerts to a shared file — while an armed
//! `UCAD_FAULTS=proc_crash=K` plan hard-aborts the process (no destructors,
//! no flushes — a simulated `kill -9`) just before its K-th WAL append. The
//! kill point shifts every generation, so crashes land on record appends,
//! control appends and drain markers alike; the generation whose kill point
//! lies past the end of the script survives and prints its metrics
//! (including `ucad_serve_recoveries_total 1` — it recovered exactly once,
//! at startup).
//!
//! The parent then replays the same stream through a plain in-memory engine
//! in-process and asserts the concatenated drained alerts of all crashed
//! generations are **identical** to the crash-free run: exactly-once alert
//! delivery across any number of crashes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use ucad::prelude::*;
use ucad_dbsim::LogRecord;
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

/// Drain cadence of the canonical run, in script positions.
const DRAIN_EVERY: usize = 7;

/// Seeded training is bit-identical across processes, so every generation
/// independently rebuilds the exact same serving model. (Models are not
/// persisted in the WAL — recovery takes the system from the caller.)
fn system() -> Ucad {
    let raw = generate_raw_log(&ScenarioSpec::commenting(), 30, 0.0, 9001);
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
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        cache_capacity: 128,
        queue_capacity: 32,
        ..ServeConfig::default()
    }
}

/// The canonical interleaved stream: six sessions, every other one carrying
/// an unknown statement mid-session (a deterministic alert regardless of
/// model weights). Returns the flattened records plus session ids.
fn script() -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
    let mut rng = StdRng::seed_from_u64(9002);
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

/// Drains the engine completely and appends every alert as one JSON line.
/// Plain `File` writes, no userspace buffer: a later `abort(2)` cannot lose
/// what was already written here.
fn drain_to(engine: &mut ShardedOnlineUcad, out: &mut std::fs::File) {
    for alert in engine.drain_alerts() {
        let line = serde_json::to_string(&alert).expect("serialize alert");
        writeln!(out, "{line}").expect("append alert line");
    }
}

/// One child generation: recover, resume the script past what is already
/// durable, drain on the canonical cadence. The armed `proc_crash` plan
/// aborts somewhere in the middle; the generation that outlives the script
/// prints its metrics and writes the done marker.
fn run_child() {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| panic!("missing env {k}"));
    let dir = PathBuf::from(var("UCAD_CRASH_DIR"));
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(var("UCAD_CRASH_ALERTS"))
        .expect("open alerts file");

    let durability = DurabilityConfig::new(&dir).snapshot_every(16);
    let mut engine =
        ShardedOnlineUcad::recover(system(), serve_cfg(), durability).expect("recover");
    let mut skip = engine.durable_ops_per_shard().expect("durable engine");
    println!("generation resumed: durable ops per shard {skip:?}");

    let (stream, ids) = script();
    let mut pos = 0usize;
    for record in &stream {
        pos += 1;
        if pos.is_multiple_of(DRAIN_EVERY) {
            drain_to(&mut engine, &mut out);
        }
        let shard = engine.shard_of(record.session_id);
        if skip[shard] > 0 {
            skip[shard] -= 1;
            continue;
        }
        assert_eq!(engine.try_submit(record), Ok(SubmitOutcome::Accepted));
    }
    for &id in &ids {
        pos += 1;
        if pos.is_multiple_of(DRAIN_EVERY) {
            drain_to(&mut engine, &mut out);
        }
        let shard = engine.shard_of(id);
        if skip[shard] > 0 {
            skip[shard] -= 1;
            continue;
        }
        engine.close_session(id);
    }
    engine.flush();
    drain_to(&mut engine, &mut out);

    println!("\n# --- surviving generation metrics ---");
    print!("{}", engine.render_metrics());
    engine.shutdown();
    std::fs::write(var("UCAD_CRASH_DONE"), b"done").expect("write done marker");
}

fn main() {
    if std::env::var_os("UCAD_CRASH_ROLE").is_some() {
        run_child();
        return;
    }

    let base = std::env::temp_dir().join(format!("ucad-crash-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create work dir");
    let state = base.join("state");
    let alerts = base.join("alerts.jsonl");
    let done = base.join("done");
    let exe = std::env::current_exe().expect("own binary path");

    let mut crashes = 0u32;
    for generation in 0u64.. {
        assert!(generation < 64, "failed to converge; WAL made no progress");
        // Shift the kill point every generation so crashes land on record
        // appends, control appends and drain markers alike.
        let kill_at = 10 + (generation % 5) * 7;
        println!("generation {generation}: arming proc_crash={kill_at}");
        let status = Command::new(&exe)
            .env("UCAD_CRASH_ROLE", "child")
            .env("UCAD_CRASH_DIR", &state)
            .env("UCAD_CRASH_ALERTS", &alerts)
            .env("UCAD_CRASH_DONE", &done)
            .env("UCAD_FAULTS", format!("proc_crash={kill_at}"))
            .status()
            .expect("spawn child generation");
        if done.exists() {
            assert!(status.success(), "surviving child exited with {status}");
            break;
        }
        println!("generation {generation}: killed ({status})");
        crashes += 1;
    }

    // Reference: the same script through a plain in-memory engine, no
    // crashes, one process. The drained alert stream must be identical.
    let mut engine = ShardedOnlineUcad::try_new(system(), serve_cfg()).expect("engine");
    let (stream, ids) = script();
    for record in &stream {
        assert_eq!(engine.try_submit(record), Ok(SubmitOutcome::Accepted));
    }
    for &id in &ids {
        engine.close_session(id);
    }
    engine.flush();
    let expected = engine.drain_alerts();
    engine.shutdown();

    let raw = std::fs::read_to_string(&alerts).expect("read drained alerts");
    let recovered: Vec<Alert> = raw
        .lines()
        .map(|line| serde_json::from_str(line).expect("parse drained alert"))
        .collect();
    assert!(!expected.is_empty(), "the canonical script must alert");
    assert_eq!(
        recovered, expected,
        "recovered alert stream diverged from the crash-free run"
    );
    println!("\ncrashed generations: {crashes}");
    println!(
        "recovered alert stream matches the crash-free run ({} alerts)",
        expected.len()
    );
    let _ = std::fs::remove_dir_all(&base);
}
