//! Multi-tenant serving quickstart: four tenants across three application
//! archetypes multiplexed behind one shard pool, with a resident-model
//! budget smaller than the fleet so the LRU churns, per-tenant drift
//! monitors labelled by tenant, and a mid-stream hot swap that touches
//! exactly one tenant.
//!
//! ```sh
//! UCAD_TENANT_BUDGET=2 cargo run --release --example multi_tenant
//! ```
//!
//! Knobs: `UCAD_TENANT_BUDGET` (resident models, default 2),
//! `UCAD_THREADS` (shard workers, default 3),
//! `UCAD_TENANT_SESSIONS` (sessions per tenant, default 10).

use std::sync::Arc;
use ucad::{ServeConfig, Ucad, UcadConfig};
use ucad_dbsim::{fleet_events, training_records, FleetEvent, TenantArchetype, TenantSpec};
use ucad_life::{DriftBaseline, DriftConfig, DriftMonitor};
use ucad_model::TransDasConfig;
use ucad_tenant::{TenantRegistry, TenantShardPool};
use ucad_trace::Session;

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn train(archetype: TenantArchetype) -> (Ucad, Vec<Vec<u32>>) {
    let records = training_records(archetype, 60, 0xF1E7 + archetype as u64);
    let sessions = Session::from_log_records(&records);
    let mut cfg = UcadConfig::scenario1();
    cfg.model = TransDasConfig {
        hidden: 10,
        heads: 2,
        blocks: 2,
        window: 16,
        epochs: 10,
        ..cfg.model
    };
    let (system, report) = Ucad::train(&sessions, cfg);
    println!(
        "trained {:>10}: vocab {}, {} sessions kept",
        archetype.name(),
        system.model.cfg.vocab_size,
        report.purified_sessions
    );
    let corpus = sessions
        .iter()
        .map(|s| system.preprocessor.transform(s))
        .collect();
    (system, corpus)
}

fn main() {
    let budget = knob("UCAD_TENANT_BUDGET", 2);
    let shards = knob("UCAD_THREADS", 3);
    let sessions_per_tenant = knob("UCAD_TENANT_SESSIONS", 10);

    // One trained system per archetype; two tenants share the commenting
    // archetype but have fully independent traffic and serving state.
    let specs = [
        TenantSpec {
            tenant: 1,
            archetype: TenantArchetype::Commenting,
            seed: 11,
        },
        TenantSpec {
            tenant: 2,
            archetype: TenantArchetype::LocationService,
            seed: 12,
        },
        TenantSpec {
            tenant: 3,
            archetype: TenantArchetype::Syslog,
            seed: 13,
        },
        TenantSpec {
            tenant: 4,
            archetype: TenantArchetype::Commenting,
            seed: 14,
        },
    ];
    let trained: Vec<(TenantArchetype, Ucad, Vec<Vec<u32>>)> = TenantArchetype::all()
        .into_iter()
        .map(|a| {
            let (system, corpus) = train(a);
            (a, system, corpus)
        })
        .collect();
    let of = |a: TenantArchetype| trained.iter().find(|(t, _, _)| *t == a).unwrap();

    // Durable tenant catalog with an LRU resident budget below the fleet
    // size: activations of cold tenants reload checkpoints bit-exactly.
    let dir = std::env::temp_dir().join(format!("ucad-multi-tenant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut registry = TenantRegistry::open(&dir, budget, 256).expect("open registry");
    for spec in &specs {
        let name = format!("{}-{}", spec.archetype.name(), spec.tenant);
        registry
            .register(spec.tenant, &name, &of(spec.archetype).1)
            .expect("register tenant");
    }
    println!(
        "registry: {} tenants, resident budget {budget}",
        registry.known_tenants().len()
    );

    let cfg = ServeConfig {
        shards,
        cache_capacity: 256,
        ..ServeConfig::default()
    };
    let mut pool = TenantShardPool::new(registry, cfg).expect("pool");

    // Per-tenant drift monitors: same metric names, distinct `tenant`
    // label — one tenant's drift alarm names its tenant in /metrics.
    for spec in &specs {
        let (_, system, corpus) = of(spec.archetype);
        let drift_cfg = DriftConfig {
            window: 64,
            ewma_factor: 4.0,
            ewma_margin: 0.1,
            ..DriftConfig::default()
        };
        let baseline = DriftBaseline::from_keyed_sessions(system, corpus, drift_cfg.rank_buckets)
            .expect("baseline");
        let monitor = Arc::new(DriftMonitor::new(drift_cfg, baseline).expect("monitor"));
        let name = format!("{}-{}", spec.archetype.name(), spec.tenant);
        monitor.register_metrics(pool.metrics(), &[("tenant", &name)]);
        pool.set_tenant_observer(spec.tenant, monitor);
    }

    // Zipf-skewed fleet traffic: the head tenant dominates, the tail
    // tenants keep getting evicted and cold-loaded.
    let fleet = fleet_events(&specs, sessions_per_tenant, 0.15, 1.0, 0xF1EE7);
    let mid = fleet.len() / 2;
    let drive = |pool: &mut TenantShardPool, events: &[FleetEvent]| {
        for ev in events {
            match ev {
                FleetEvent::Record { tenant, record } => {
                    pool.try_submit(*tenant, record).expect("submit");
                }
                FleetEvent::Close { tenant, session_id } => {
                    pool.close_session(*tenant, *session_id).expect("close")
                }
            }
        }
    };
    drive(&mut pool, &fleet[..mid]);

    // Mid-stream hot swap of tenant 1 only: retrained weights, same
    // vocabulary. Tenant-granular epoch bump — nobody else's score cache
    // is invalidated.
    let retrain_records = training_records(TenantArchetype::Commenting, 60, 0xF1E7);
    let mut retrain_cfg = UcadConfig::scenario1();
    retrain_cfg.model = TransDasConfig {
        hidden: 10,
        heads: 2,
        blocks: 2,
        window: 16,
        epochs: 6,
        seed: 0xD1CE,
        ..retrain_cfg.model
    };
    let (v1, _) = Ucad::train(&Session::from_log_records(&retrain_records), retrain_cfg);
    pool.swap_tenant(1, &v1).expect("swap tenant 1");
    println!("hot-swapped tenant 1 mid-stream (others untouched)");
    drive(&mut pool, &fleet[mid..]);

    for spec in &specs {
        let alerts = pool.drain_tenant_alerts(spec.tenant).expect("drain");
        println!(
            "tenant {} ({}-{}): {} alerts",
            spec.tenant,
            spec.archetype.name(),
            spec.tenant,
            alerts.len()
        );
    }
    let reg = pool.registry();
    println!(
        "registry churn: {} activations, {} evictions, {} cold loads",
        reg.activations(),
        reg.evictions(),
        reg.cold_loads()
    );
    if let Some(fired) = ucad_fault::stats() {
        println!(
            "faults fired: {} fs I/O failures, {} worker panics",
            fired.fs_injected_io, fired.panics_fired
        );
    }

    println!("--- /metrics ---");
    print!("{}", pool.render_metrics());

    let (_registry, leftovers) = pool.shutdown().expect("shutdown");
    assert!(leftovers.is_empty(), "all alerts were drained per-tenant");
    let _ = std::fs::remove_dir_all(&dir);
}
