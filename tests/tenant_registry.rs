//! LRU edge cases for the tenant registry: eviction racing in-flight
//! work, structurally damaged checkpoints surfacing as typed errors (never
//! panics), and reopen idempotence over arbitrary registration orders.

use proptest::prelude::*;
use std::sync::OnceLock;
use ucad::{Alert, ServeConfig, ShardedOnlineUcad, Ucad, UcadConfig, UcadError};
use ucad_dbsim::{
    tenant_serving_events, training_records, FleetEvent, TenantArchetype, TenantSpec,
};
use ucad_life::CheckpointStore;
use ucad_model::TransDasConfig;
use ucad_tenant::{TenantRegistry, TenantShardPool};
use ucad_trace::Session;

const SESSIONS: usize = 4;
const RATE: f64 = 0.25;

fn tiny_system() -> &'static Ucad {
    static SYSTEM: OnceLock<Ucad> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let records = training_records(TenantArchetype::Commenting, 40, 0xC0FFEE);
        let sessions = Session::from_log_records(&records);
        let mut cfg = UcadConfig::scenario1();
        cfg.model = TransDasConfig {
            hidden: 8,
            heads: 2,
            blocks: 2,
            window: 12,
            epochs: 8,
            ..cfg.model
        };
        Ucad::train(&sessions, cfg).0
    })
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucad-tenant-reg-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tenant: u64, seed: u64) -> TenantSpec {
    TenantSpec {
        tenant,
        archetype: TenantArchetype::Commenting,
        seed,
    }
}

fn dedicated_alerts(s: &TenantSpec) -> Vec<Alert> {
    let mut engine =
        ShardedOnlineUcad::try_new(tiny_system().clone(), ServeConfig::default()).unwrap();
    for ev in tenant_serving_events(s, SESSIONS, RATE) {
        match ev {
            FleetEvent::Record { record, .. } => {
                engine.try_submit(&record).unwrap();
            }
            FleetEvent::Close { session_id, .. } => engine.close_session(session_id),
        }
    }
    engine.drain_alerts()
}

/// Budget 1 with two tenants interleaved record-by-record: every single
/// submission evicts the other tenant's model while that tenant still has
/// open sessions queued on the shards. Queued work carries its own model
/// handle, so output must stay byte-identical to dedicated engines.
#[test]
fn eviction_never_disturbs_in_flight_sessions() {
    let (sa, sb) = (spec(1, 50), spec(2, 51));
    let (ref_a, ref_b) = (dedicated_alerts(&sa), dedicated_alerts(&sb));
    let mut registry = TenantRegistry::open(temp_dir("inflight"), 1, 64).unwrap();
    registry
        .register(sa.tenant, "alpha", tiny_system())
        .unwrap();
    registry.register(sb.tenant, "beta", tiny_system()).unwrap();
    let mut pool = TenantShardPool::new(registry, ServeConfig::default()).unwrap();

    // Strict per-event round-robin: maximum eviction pressure.
    let ev_a = tenant_serving_events(&sa, SESSIONS, RATE);
    let ev_b = tenant_serving_events(&sb, SESSIONS, RATE);
    let (mut ia, mut ib) = (ev_a.into_iter(), ev_b.into_iter());
    loop {
        let (a, b) = (ia.next(), ib.next());
        if a.is_none() && b.is_none() {
            break;
        }
        for ev in [a, b].into_iter().flatten() {
            match ev {
                FleetEvent::Record { tenant, record } => {
                    pool.try_submit(tenant, &record).unwrap();
                }
                FleetEvent::Close { tenant, session_id } => {
                    pool.close_session(tenant, session_id).unwrap()
                }
            }
        }
    }
    let evictions = pool.registry().evictions();
    assert!(
        evictions >= 4,
        "round-robin under budget 1 must thrash ({evictions} evictions)"
    );
    assert_eq!(pool.drain_tenant_alerts(sa.tenant).unwrap(), ref_a);
    assert_eq!(pool.drain_tenant_alerts(sb.tenant).unwrap(), ref_b);
    let _ = std::fs::remove_dir_all(pool.registry().dir());
}

/// A truncated checkpoint must surface as [`UcadError::Corrupt`] on the
/// cold-load path — a typed error, not a panic — and must not impair
/// other tenants.
#[test]
fn reload_after_corrupt_checkpoint_is_a_typed_error() {
    let dir = temp_dir("corrupt");
    let mut registry = TenantRegistry::open(&dir, 1, 0).unwrap();
    registry.register(7, "victim", tiny_system()).unwrap();
    registry.register(8, "bystander", tiny_system()).unwrap();
    // Budget 1: registering tenant 8 evicted tenant 7 — its next
    // activation is a cold load from disk.
    assert!(!registry.is_resident(7));

    // Truncate tenant 7's only checkpoint mid-payload.
    let store = CheckpointStore::open(
        dir.join(format!("tenant-{:016x}", 7u64))
            .join("checkpoints"),
        2,
    )
    .unwrap();
    let path = store.path_of(&store.latest().expect("checkpoint written at register"));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

    match registry.activate(7) {
        Err(UcadError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // The failure is sticky but isolated: the bystander still activates,
    // and re-registering the victim repairs it.
    assert!(registry.activate(8).is_ok());
    registry.register(7, "victim", tiny_system()).unwrap();
    assert!(registry.activate(7).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any registration order, any resident budget: closing and reopening
    /// the registry rediscovers exactly the registered fleet, every tenant
    /// cold-loads successfully, and names survive the round trip.
    #[test]
    fn reopen_rediscovers_any_registered_fleet(
        ids in prop::collection::vec(1u64..500, 1..5),
        budget in 1usize..3,
    ) {
        let dir = temp_dir(&format!("reopen-{budget}-{}", ids.len()));
        let mut unique: Vec<u64> = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        {
            let mut registry = TenantRegistry::open(&dir, budget, 0).unwrap();
            for id in &ids {
                registry
                    .register(*id, &format!("tenant-{id}"), tiny_system())
                    .unwrap();
            }
            prop_assert_eq!(registry.known_tenants(), unique.clone());
        }
        let mut reopened = TenantRegistry::open(&dir, budget, 0).unwrap();
        prop_assert_eq!(reopened.known_tenants(), unique.clone());
        for id in &unique {
            let handle = reopened.activate(*id).unwrap();
            prop_assert_eq!(handle.name.as_ref(), format!("tenant-{id}").as_str());
        }
        prop_assert_eq!(reopened.cold_loads(), unique.len() as u64);
        prop_assert!(reopened.resident() <= budget);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One validation rule for every front: a zero-capacity shard queue is
/// refused on the same field by the engine, the tenant pool and the daemon
/// builder, never silently rounded up.
#[test]
fn zero_queue_capacity_is_refused_alike_by_engine_pool_and_daemon() {
    let cfg = ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    };
    let field_of = |e: UcadError| match e {
        UcadError::InvalidConfig { field, .. } => field,
        other => panic!("expected InvalidConfig, got {other}"),
    };
    let engine = ShardedOnlineUcad::try_new(tiny_system().clone(), cfg).err();
    assert_eq!(engine.map(field_of), Some("queue_capacity"));
    let dir = temp_dir("zero-queue");
    let registry = TenantRegistry::open(&dir, 1, 0).unwrap();
    let pool = TenantShardPool::new(registry, cfg).err();
    assert_eq!(pool.map(field_of), Some("queue_capacity"));
    let daemon = ucad_net::NetServeConfig::builder().serve(cfg).build().err();
    assert_eq!(daemon.map(field_of), Some("queue_capacity"));
    let _ = std::fs::remove_dir_all(&dir);
}
