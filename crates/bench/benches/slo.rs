//! Tail-latency SLO replay: drives the sharded serving engine open-loop at
//! a target arrival rate across a schedule × shards × overload-policy
//! matrix, measuring coordinated-omission-safe end-to-end latency (from
//! each record's *scheduled* arrival to scoring completion). Rows land in
//! `BENCH_slo.json`; the CI `slo-smoke` job replays a small fixed-rate cell
//! and checks the ledger's invariants.
//!
//! Knobs: `UCAD_SLO_RPS` (average target rate, default 500),
//! `UCAD_SLO_RECORDS` (records per cell, default 2000), and
//! `UCAD_SLO_TENANTS` (tenants multiplexed in the fleet cell, default 2;
//! 0 skips it — single-tenant rows always carry `tenants: 1`).
//! `UCAD_SLO_TENANT_BUDGET` bounds resident models in the fleet cell
//! (default = tenant count; lower values push LRU cold loads into the
//! tail). `UCAD_PROF=1` additionally dumps the hierarchical span profile
//! at exit.

use std::time::Instant;
use ucad::{OverloadPolicy, Ucad, UcadConfig};
use ucad_baselines::{BaselineDetector, NgramLm};
use ucad_bench::slo::{
    load_slo_ledger, run_slo, run_slo_fleet, slo_ledger_path, store_slo_ledger, ArrivalSchedule,
    SloConfig, SloRow,
};
use ucad_bench::{header, measured_block};
use ucad_dbsim::{LogRecord, ZipfSampler};
use ucad_model::TransDasConfig;
use ucad_trace::{generate_raw_log, ScenarioSpec, Session, SessionGenerator};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

/// Interleaves enough generated sessions round-robin to cover `records`
/// arrivals — the concurrent-application pattern the engine serves.
fn build_stream(spec: &ScenarioSpec, records: usize, seed: u64) -> Vec<LogRecord> {
    let mut gen = SessionGenerator::new(spec.clone());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut queues: Vec<Vec<LogRecord>> = Vec::new();
    let mut total = 0usize;
    let mut next_id = 70_000u64;
    while total < records {
        let mut s = gen.normal_session(&mut rng).session;
        s.id = next_id;
        next_id += 1;
        let q = records_of(&s);
        total += q.len();
        queues.push(q);
    }
    let mut stream = Vec::with_capacity(total);
    let longest = queues.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for q in &queues {
            if i < q.len() {
                stream.push(q[i].clone());
            }
        }
    }
    stream.truncate(records);
    stream
}

fn policy_name(p: OverloadPolicy) -> &'static str {
    match p {
        OverloadPolicy::Block => "Block",
        OverloadPolicy::ShedNewest => "ShedNewest",
        OverloadPolicy::Degrade => "Degrade",
    }
}

fn main() {
    header("SLO replay: open-loop tail latency across schedules and policies");
    let target_rps = env_f64("UCAD_SLO_RPS", 500.0);
    let records = env_usize("UCAD_SLO_RECORDS", 2000);

    // A fast Scenario-I system: scoring must comfortably outrun the target
    // rate so the measured tail reflects queueing and policy behavior, not
    // a saturated model.
    let spec = ScenarioSpec::commenting();
    let raw = generate_raw_log(&spec, 150, 0.0, 20_260_808);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 12,
        epochs: 12,
        ..cfg.model
    };
    println!("training on {} raw sessions ...", raw.sessions.len());
    let t0 = Instant::now();
    let (system, _) = Ucad::train(&raw.sessions, cfg);
    println!("trained in {:.1}s", t0.elapsed().as_secs_f64());

    // Degraded-mode fallback, fitted on the serving vocabulary.
    let train: Vec<Vec<u32>> = raw
        .sessions
        .iter()
        .map(|s| system.preprocessor.vocab.tokenize_session(s))
        .collect();
    let mut lm = NgramLm::new(3, 4);
    lm.fit(&train, system.model.cfg.vocab_size);

    let stream = build_stream(&spec, records, 4242);
    println!(
        "replay stream: {} records, target {target_rps:.0} rec/s average\n",
        stream.len()
    );
    measured_block();

    let mut cells: Vec<(ArrivalSchedule, usize, OverloadPolicy)> = Vec::new();
    for shards in [1usize, 4] {
        for policy in [
            OverloadPolicy::Block,
            OverloadPolicy::ShedNewest,
            OverloadPolicy::Degrade,
        ] {
            cells.push((ArrivalSchedule::Constant, shards, policy));
        }
    }
    cells.push((ArrivalSchedule::Bursty, 4, OverloadPolicy::Block));
    cells.push((ArrivalSchedule::Diurnal, 4, OverloadPolicy::Block));

    let threads = ucad_pool::current().threads();
    let mut ledger = load_slo_ledger();
    println!(
        "{:<9} {:>6} {:<10} {:>9} {:>9} {:>9} {:>9} {:>9}  accounting",
        "schedule", "shards", "policy", "rps", "p50ms", "p99ms", "p999ms", "maxms"
    );
    for (schedule, shards, policy) in cells {
        let slo_cfg = SloConfig {
            schedule,
            target_rps,
            shards,
            policy,
            queue_capacity: 64,
            cache_capacity: 512,
        };
        let fallback = matches!(policy, OverloadPolicy::Degrade).then(|| lm.clone());
        let r = run_slo(system.clone(), fallback, &stream, &slo_cfg);
        assert_eq!(
            r.accepted + r.shed + r.degraded,
            r.submitted,
            "overload accounting must cover every submission"
        );
        assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms, "degenerate tail");
        println!(
            "{:<9} {:>6} {:<10} {:>9.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3}  acc {} shed {} degr {} restarts {} alerts {}",
            schedule.name(),
            shards,
            policy_name(policy),
            r.achieved_rps,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.max_ms,
            r.accepted,
            r.shed,
            r.degraded,
            r.worker_restarts,
            r.alerts
        );
        ledger.upsert(SloRow {
            schedule: schedule.name().to_string(),
            policy: policy_name(policy).to_string(),
            shards,
            tenants: 1,
            target_rps,
            threads,
            submitted: r.submitted,
            accepted: r.accepted,
            shed: r.shed,
            degraded: r.degraded,
            worker_restarts: r.worker_restarts,
            achieved_rps: r.achieved_rps,
            p50_ms: r.p50_ms,
            p90_ms: r.p90_ms,
            p99_ms: r.p99_ms,
            p999_ms: r.p999_ms,
            max_ms: r.max_ms,
        });
    }
    // Multi-tenant matrix point: the same stream volume split across N
    // tenants of one shard pool under a Zipf traffic skew (the Scenario-III
    // arrival pattern), measuring what multiplexing costs the tail relative
    // to the dedicated `tenants: 1` rows above.
    let n_tenants = env_usize("UCAD_SLO_TENANTS", 2);
    if n_tenants >= 2 {
        let budget = env_usize("UCAD_SLO_TENANT_BUDGET", n_tenants);
        let per_tenant = (records / n_tenants).max(1);
        let queues: Vec<(u64, Vec<LogRecord>)> = (0..n_tenants)
            .map(|t| {
                let tenant = t as u64 + 1;
                (tenant, build_stream(&spec, per_tenant, 4242 + tenant))
            })
            .collect();
        // Zipf-pick the next tenant; an exhausted tenant's picks fall
        // forward to the next with records left, preserving per-tenant
        // order (the discipline of `ucad_dbsim::interleave_zipf`).
        let total: usize = queues.iter().map(|(_, q)| q.len()).sum();
        let mut sampler = ZipfSampler::new(n_tenants, 1.0, 0x510F);
        let mut cursor = vec![0usize; n_tenants];
        let mut fleet: Vec<(u64, LogRecord)> = Vec::with_capacity(total);
        while fleet.len() < total {
            let mut pick = sampler.sample();
            while cursor[pick] >= queues[pick].1.len() {
                pick = (pick + 1) % n_tenants;
            }
            let (tenant, q) = &queues[pick];
            fleet.push((*tenant, q[cursor[pick]].clone()));
            cursor[pick] += 1;
        }
        let tenants: Vec<(u64, String, Ucad)> = (1..=n_tenants as u64)
            .map(|t| (t, format!("slo-{t}"), system.clone()))
            .collect();
        let slo_cfg = SloConfig {
            schedule: ArrivalSchedule::Constant,
            target_rps,
            shards: 4,
            policy: OverloadPolicy::Block,
            queue_capacity: 64,
            cache_capacity: 512,
        };
        let r = run_slo_fleet(tenants, budget, &fleet, &slo_cfg);
        assert_eq!(r.accepted + r.shed, r.submitted, "fleet accounting");
        println!(
            "{:<9} {:>6} {:<10} {:>9.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3}  acc {} shed {} tenants {n_tenants} budget {budget}",
            "constant",
            4,
            "Block",
            r.achieved_rps,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.max_ms,
            r.accepted,
            r.shed,
        );
        ledger.upsert(SloRow {
            schedule: "constant".to_string(),
            policy: "Block".to_string(),
            shards: 4,
            tenants: n_tenants,
            target_rps,
            threads,
            submitted: r.submitted,
            accepted: r.accepted,
            shed: r.shed,
            degraded: r.degraded,
            worker_restarts: r.worker_restarts,
            achieved_rps: r.achieved_rps,
            p50_ms: r.p50_ms,
            p90_ms: r.p90_ms,
            p99_ms: r.p99_ms,
            p999_ms: r.p999_ms,
            max_ms: r.max_ms,
        });
    }
    store_slo_ledger(&ledger);
    println!(
        "\nledger updated: {} (threads={threads})",
        slo_ledger_path().display()
    );
    ucad_obs::dump_profile_if_enabled();
}
