//! Golden kill-and-replay wall (ISSUE 6 tentpole proof): a child process
//! serving a canonical record stream through a durable engine is killed by
//! an armed `proc_crash=K` fault (a hard `abort(2)` just before its K-th
//! WAL append — no destructors, no flushes), restarted, and recovered —
//! over and over, at shifting append points, until a generation survives to
//! the end of the stream.
//!
//! Each generation appends whatever it manages to drain to a shared
//! `alerts.jsonl`; because every drain is a complete, sequence-ordered
//! drain past a flush barrier and the drain boundary is exactly-once
//! (delivered sequences are recorded durably before alerts are handed
//! over), the concatenation across all crashed generations must be
//! **byte-identical** to the alert stream of a single crash-free run —
//! across shard counts and cache settings. The canonical combo is
//! additionally pinned in `tests/golden/scenario1_crash.json`.
//!
//! Regenerate the fixture intentionally with:
//! `UCAD_BLESS=1 cargo test --test crash_recovery`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use ucad::{
    Alert, DurabilityConfig, ServeConfig, ShardedOnlineUcad, SubmitOutcome, Ucad, UcadConfig,
};
use ucad_dbsim::LogRecord;
use ucad_model::TransDasConfig;
use ucad_trace::{generate_raw_log, ScenarioSpec, SessionGenerator};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario1_crash.json"
);

/// Drain cadence of the canonical run, in script positions.
const DRAIN_EVERY: usize = 7;

/// Builds the serving system deterministically. Parent, baseline and every
/// crashed child generation train this from scratch in their own process;
/// seeded training is bit-identical, so they all serve the same model.
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

fn serve_cfg(shards: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        shards,
        cache_capacity,
        queue_capacity: 32,
        ..ServeConfig::default()
    }
}

/// The canonical interleaved stream: 8 sessions, every other one carrying
/// an unknown statement mid-session (a deterministic alert regardless of
/// model weights), shuffled under a fixed seed. Returns the flattened
/// records plus the session ids in close order.
fn script() -> (Vec<LogRecord>, Vec<u64>) {
    let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
    let mut rng = StdRng::seed_from_u64(4602);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut ids = Vec::new();
    for i in 0..8usize {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = 50_000 + i as u64;
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

/// Drains the engine completely (past a flush barrier) and appends every
/// alert as one JSON line. Plain `File` writes, no userspace buffer: a
/// later `abort(2)` cannot lose what was already written here.
fn drain_to(engine: &mut ShardedOnlineUcad, out: &mut std::fs::File) {
    for alert in engine.drain_alerts() {
        let line = serde_json::to_string(&alert).expect("serialize alert");
        writeln!(out, "{line}").expect("append alert line");
    }
}

/// One child generation: recover the durable engine, re-walk the canonical
/// script skipping whatever each shard already holds durably, draining on
/// the canonical cadence. An armed `proc_crash` fault aborts somewhere in
/// the middle; the generation that outlives the script writes `done`.
fn run_child() {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| panic!("missing env {k}"));
    let dir = PathBuf::from(var("UCAD_CRASH_DIR"));
    let shards: usize = var("UCAD_CRASH_SHARDS").parse().expect("shards env");
    let cache: usize = var("UCAD_CRASH_CACHE").parse().expect("cache env");
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(var("UCAD_CRASH_ALERTS"))
        .expect("open alerts file");

    let durability = DurabilityConfig::new(&dir).snapshot_every(16);
    let mut engine = ShardedOnlineUcad::recover(system(), serve_cfg(shards, cache), durability)
        .expect("recover");
    let mut skip = engine.durable_ops_per_shard().expect("durable engine");
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
    engine.shutdown();
    std::fs::write(var("UCAD_CRASH_DONE"), b"done").expect("write done marker");
}

/// Child entry point: inert in a normal test run, the whole serving loop
/// when re-exec'ed by the wall below.
#[test]
fn child_entry() {
    if std::env::var_os("UCAD_CRASH_ROLE").is_some() {
        run_child();
    }
}

/// Runs one combo to completion across as many kill -9'd generations as it
/// takes, returning the concatenated drained alert stream and the number of
/// crashed generations.
fn run_combo(shards: usize, cache: usize) -> (Vec<Alert>, u32) {
    let base = std::env::temp_dir().join(format!(
        "ucad-crash-wall-{}-{shards}-{cache}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create combo dir");
    let state = base.join("state");
    let alerts = base.join("alerts.jsonl");
    let done = base.join("done");
    let exe = std::env::current_exe().expect("own test binary");

    let mut crashes = 0u32;
    for generation in 0u64.. {
        assert!(
            generation < 64,
            "combo {shards}x{cache} failed to converge after {generation} generations"
        );
        // Shift the kill point every generation so crashes land on record
        // appends, control appends and drain markers alike.
        let kill_at = 9 + (generation % 5) * 3;
        let output = Command::new(&exe)
            .arg("child_entry")
            .arg("--exact")
            .arg("--nocapture")
            .arg("--test-threads=1")
            .env("UCAD_CRASH_ROLE", "child")
            .env("UCAD_CRASH_DIR", &state)
            .env("UCAD_CRASH_ALERTS", &alerts)
            .env("UCAD_CRASH_DONE", &done)
            .env("UCAD_CRASH_SHARDS", shards.to_string())
            .env("UCAD_CRASH_CACHE", cache.to_string())
            .env("UCAD_FAULTS", format!("proc_crash={kill_at}"))
            .output()
            .expect("spawn child generation");
        if done.exists() {
            assert!(
                output.status.success(),
                "child finished the script but exited with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            break;
        }
        assert!(
            output.status.code() != Some(101),
            "child generation {generation} failed on its own (not the injected crash):\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        crashes += 1;
    }

    let raw = std::fs::read_to_string(&alerts).expect("read drained alerts");
    let drained: Vec<Alert> = raw
        .lines()
        .map(|line| serde_json::from_str(line).expect("parse drained alert"))
        .collect();
    let _ = std::fs::remove_dir_all(&base);
    (drained, crashes)
}

/// The crash-free reference stream: one in-process, in-memory run of the
/// same script. `drain_alerts` is byte-identical across shard counts and
/// cache settings, so a single reference covers every combo.
fn crash_free_alerts() -> Vec<Alert> {
    let mut engine =
        ShardedOnlineUcad::try_new(system(), serve_cfg(2, 256)).expect("valid serve config");
    let (stream, ids) = script();
    for record in &stream {
        assert_eq!(engine.try_submit(record), Ok(SubmitOutcome::Accepted));
    }
    for &id in &ids {
        engine.close_session(id);
    }
    engine.flush();
    let alerts = engine.drain_alerts();
    assert!(
        !alerts.is_empty(),
        "the canonical script must alert, or the wall is vacuous"
    );
    alerts
}

fn check_combo(shards: usize, cache: usize, expected: &[Alert]) {
    let (drained, crashes) = run_combo(shards, cache);
    assert!(
        crashes >= 1,
        "combo {shards}x{cache}: no generation crashed; the wall is vacuous"
    );
    assert_eq!(
        drained, expected,
        "combo {shards}x{cache}: recovered alert stream diverged from the crash-free run"
    );
}

/// The wall itself: kill -9 at shifting append points, across shard counts
/// and cache settings; every recovered stream must equal the crash-free
/// one, and the canonical combo is pinned against the golden fixture.
#[test]
fn crash_wall_replays_byte_identically() {
    let expected = crash_free_alerts();

    // The canonical combo doubles as the golden fixture.
    check_combo(2, 256, &expected);
    let got = serde_json::to_string(&expected).expect("serialize fixture");
    if std::env::var_os("UCAD_BLESS").is_some() {
        std::fs::write(Path::new(FIXTURE), &got).expect("write fixture");
        eprintln!("blessed new fixture at {FIXTURE}");
    } else {
        let want = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
            panic!("missing fixture {FIXTURE} ({e}); run once with UCAD_BLESS=1 to create it")
        });
        assert_eq!(got, want, "canonical crash-recovery alert stream drifted");
    }

    // Debug builds serve slowly; sweep the full 1-4 shard x cache grid only
    // under optimization (the release suite and CI), two spot combos here.
    let combos: &[(usize, usize)] = if cfg!(debug_assertions) {
        &[(1, 0)]
    } else {
        &[(1, 0), (1, 256), (2, 0), (3, 256), (4, 0), (4, 256)]
    };
    for &(shards, cache) in combos {
        check_combo(shards, cache, &expected);
    }
}
