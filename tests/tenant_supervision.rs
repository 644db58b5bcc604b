//! Tenant supervision wall: the shared pool runs on the same supervised
//! shard core as the single-tenant engine, so a shard worker that panics
//! mid-stream must cost no tenant anything. For every pool topology (shard
//! counts 1–4, score caching on and off), under LRU churn and across a
//! mid-stream per-tenant model swap, a pool whose workers are killed by
//! seeded `ucad-fault` plans must drain, per tenant, alerts byte-identical
//! (as JSON) to a fault-free pool run — and the same verified-normal
//! feedback — with `accepted + shed == submitted` exact.
//!
//! The wall also pins the feedback path itself: a tenant's drained
//! feedback equals, as a multiset, what a dedicated single-tenant engine
//! collects for the same substream.

use std::sync::OnceLock;
use ucad::{splitmix64, Alert, ServeConfig, ShardedOnlineUcad, SubmitOutcome, Ucad, UcadConfig};
use ucad_dbsim::{
    fleet_events, tenant_serving_events, training_records, FleetEvent, TenantArchetype, TenantSpec,
};
use ucad_fault::FaultPlan;
use ucad_model::TransDasConfig;
use ucad_tenant::{TenantRegistry, TenantShardPool};
use ucad_trace::Session;

const SESSIONS_PER_TENANT: usize = 6;
const ANOMALY_RATE: f64 = 0.25;

fn trained(archetype: TenantArchetype) -> &'static Ucad {
    static SYSTEMS: OnceLock<Vec<(TenantArchetype, Ucad)>> = OnceLock::new();
    let systems = SYSTEMS.get_or_init(|| {
        TenantArchetype::all()
            .into_iter()
            .map(|a| (a, train(a, 8, 0x7EED)))
            .collect()
    });
    &systems.iter().find(|(a, _)| *a == archetype).unwrap().1
}

fn train(archetype: TenantArchetype, epochs: usize, seed: u64) -> Ucad {
    let records = training_records(archetype, 48, 0xA11 + archetype as u64);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 12,
        epochs,
        seed,
        ..cfg.model
    };
    Ucad::train(&Session::from_log_records(&records), cfg).0
}

fn specs() -> Vec<TenantSpec> {
    [
        (1, TenantArchetype::Commenting, 90),
        (2, TenantArchetype::LocationService, 91),
        (3, TenantArchetype::Syslog, 92),
        (4, TenantArchetype::Commenting, 93),
    ]
    .into_iter()
    .map(|(tenant, archetype, seed)| TenantSpec {
        tenant,
        archetype,
        seed,
    })
    .collect()
}

fn pool(tag: &str, shards: usize, cache: usize) -> TenantShardPool {
    let dir = std::env::temp_dir().join(format!(
        "ucad-tenant-supervision-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Budget 2 over 4 tenants: replay runs against evicted models too.
    let mut registry = TenantRegistry::open(&dir, 2, cache).unwrap();
    for spec in specs() {
        let name = format!("{}-{}", spec.archetype.name(), spec.tenant);
        registry
            .register(spec.tenant, &name, trained(spec.archetype))
            .unwrap();
    }
    let cfg = ServeConfig {
        shards,
        cache_capacity: cache,
        ..ServeConfig::default()
    };
    TenantShardPool::new(registry, cfg).unwrap()
}

/// The light test models alert on most sessions; the DBA confirms every
/// even session a false alarm before it closes, so feedback flows.
fn confirmed(session_id: u64) -> bool {
    session_id.is_multiple_of(2)
}

fn drive(pool: &mut TenantShardPool, fleet: &[FleetEvent]) -> u64 {
    let mut accepted = 0;
    for ev in fleet {
        match ev {
            FleetEvent::Record { tenant, record } => {
                assert_eq!(
                    pool.try_submit(*tenant, record).unwrap(),
                    SubmitOutcome::Accepted
                );
                accepted += 1;
            }
            FleetEvent::Close { tenant, session_id } => {
                if confirmed(*session_id) {
                    pool.confirm_false_alarm(*tenant, *session_id).unwrap();
                }
                pool.close_session(*tenant, *session_id).unwrap()
            }
        }
    }
    accepted
}

fn as_json(alerts: &[Alert]) -> String {
    serde_json::to_string(alerts).unwrap()
}

fn sorted(mut feedback: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    feedback.sort();
    feedback
}

/// Per tenant: drained alerts as JSON and drained feedback as a multiset.
type TenantOutput = Vec<(String, Vec<Vec<u32>>)>;

/// Drives `fleet` through a fresh pool, swapping tenant 1 to `swapped` at
/// the midpoint, and drains every tenant. With `crash = Some(shard)` two
/// workers are killed: shard 0's at its third record, and `shard`'s at its
/// first record after the swap — a fresh plan armed at the cut, so the
/// trigger does not depend on how many queued records the first crash
/// took with it. Also returns `(accepted, submitted, records scored,
/// worker restarts, crashes fired)`.
fn run(
    tag: &str,
    shards: usize,
    cache: usize,
    fleet: &[FleetEvent],
    swapped: &Ucad,
    crash: Option<usize>,
) -> (TenantOutput, [u64; 5]) {
    let mut pool = pool(tag, shards, cache);
    let mid = fleet.len() / 2;
    let early = crash.map(|_| FaultPlan::new().panic_at(3, Some(0)).arm());
    let mut accepted = drive(&mut pool, &fleet[..mid]);
    pool.swap_tenant(1, swapped).unwrap();
    let mut fired = early.map_or(0, |armed| armed.stats().panics_fired);
    let late = crash.map(|shard| FaultPlan::new().panic_at(1, Some(shard)).arm());
    accepted += drive(&mut pool, &fleet[mid..]);
    let output = specs()
        .iter()
        .map(|s| {
            let alerts = pool.drain_tenant_alerts(s.tenant).unwrap();
            let feedback = pool.drain_tenant_feedback(s.tenant).unwrap();
            (as_json(&alerts), sorted(feedback))
        })
        .collect();
    let stats = pool.stats().unwrap();
    fired += late.map_or(0, |armed| armed.stats().panics_fired);
    let counts = [
        accepted,
        pool.submitted(),
        stats.records(),
        stats.worker_restarts,
        fired,
    ];
    let _ = std::fs::remove_dir_all(pool.registry().dir());
    (output, counts)
}

#[test]
fn crashed_pool_workers_heal_byte_identically_per_tenant() {
    let fleet = fleet_events(&specs(), SESSIONS_PER_TENANT, ANOMALY_RATE, 1.0, 42);
    let swapped = train(TenantArchetype::Commenting, 5, 0xBEEF);
    let mid = fleet.len() / 2;
    for shards in 1..=4 {
        for cache in [0usize, 256] {
            let quiet = ucad_fault::quiesce();
            let tag = format!("clean-{shards}-{cache}");
            let (expected, clean) = run(&tag, shards, cache, &fleet, &swapped, None);
            drop(quiet);
            assert!(
                expected.iter().any(|(alerts, _)| alerts != "[]"),
                "wall is vacuous: no alerts"
            );
            assert_eq!(clean[3], 0, "fault-free run restarted a worker");

            // The shard of the first record after the swap.
            let seed = ServeConfig::default().seed;
            let next = fleet[mid..]
                .iter()
                .find_map(|ev| match ev {
                    FleetEvent::Record { tenant, record } => Some(
                        (splitmix64(seed ^ splitmix64(*tenant) ^ record.session_id) % shards as u64)
                            as usize,
                    ),
                    FleetEvent::Close { .. } => None,
                })
                .unwrap();
            let tag = format!("faulted-{shards}-{cache}");
            let (got, [accepted, submitted, scored, restarts, fired]) =
                run(&tag, shards, cache, &fleet, &swapped, Some(next));
            assert_eq!(
                fired, 2,
                "shards={shards} cache={cache}: a crash never fired"
            );
            for (spec, (want, have)) in specs().iter().zip(expected.iter().zip(&got)) {
                assert_eq!(
                    have.0, want.0,
                    "tenant {} alerts diverged from the fault-free pool at \
                     shards={shards} cache={cache}",
                    spec.tenant
                );
                assert_eq!(
                    have.1, want.1,
                    "tenant {} feedback diverged from the fault-free pool at \
                     shards={shards} cache={cache}",
                    spec.tenant
                );
            }
            assert!(restarts >= 1, "supervision never restarted a worker");
            assert_eq!(accepted, submitted, "accepted + shed == submitted broke");
            assert_eq!(scored, accepted, "a crash lost or duplicated records");
        }
    }
}

#[test]
fn tenant_feedback_matches_a_dedicated_engine_and_drains_once() {
    let _quiet = ucad_fault::quiesce();
    let fleet = fleet_events(&specs(), SESSIONS_PER_TENANT, ANOMALY_RATE, 1.0, 7);
    let mut pool = pool("feedback", 3, 64);
    drive(&mut pool, &fleet);
    let mut nonempty = 0;
    for spec in specs() {
        let mut engine = ShardedOnlineUcad::try_new(
            trained(spec.archetype).clone(),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for ev in tenant_serving_events(&spec, SESSIONS_PER_TENANT, ANOMALY_RATE) {
            match ev {
                FleetEvent::Record { record, .. } => {
                    engine.try_submit(&record).unwrap();
                }
                FleetEvent::Close { session_id, .. } => {
                    if confirmed(session_id) {
                        engine.confirm_false_alarm(session_id);
                    }
                    engine.close_session(session_id)
                }
            }
        }
        let want = sorted(engine.drain_feedback());
        let got = sorted(pool.drain_tenant_feedback(spec.tenant).unwrap());
        assert_eq!(got, want, "tenant {} feedback diverged", spec.tenant);
        assert!(
            pool.drain_tenant_feedback(spec.tenant).unwrap().is_empty(),
            "tenant {} feedback drained twice",
            spec.tenant
        );
        nonempty += !got.is_empty() as usize;
    }
    assert!(nonempty > 0, "wall is vacuous: no feedback");
    let _ = std::fs::remove_dir_all(pool.registry().dir());
}
