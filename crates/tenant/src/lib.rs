//! # ucad-tenant
//!
//! Multi-tenant model multiplexing behind one shard pool.
//!
//! The paper trains and serves one model per application. Run as a
//! *service*, UCAD faces a fleet: hundreds of tenants, each with its own
//! vocabulary, trained Trans-DAS model and detector configuration — far
//! more models than fit in memory, far fewer active at any instant than
//! registered. This crate multiplexes that fleet behind one pool of shard
//! workers:
//!
//! * [`TenantRegistry`] — the durable tenant catalog. Each tenant's
//!   preprocessing state and detector configuration persist as a
//!   CRC-sealed `profile.json`, its model as a content-addressed checkpoint in a
//!   per-tenant [`ucad_life::CheckpointStore`]. A bounded resident budget
//!   keeps only the most-recently-used models in memory; colder tenants
//!   are evicted and reloaded bit-exactly on demand
//!   (`ucad_tenant_{activations,evictions,cold_loads}_total`).
//! * [`TenantShardPool`] — the multi-tenant front of the shard worker core
//!   ([`ucad::serve_core`]) the single-tenant [`ucad::ShardedOnlineUcad`]
//!   runs on: N supervised workers, each hosting one
//!   [`ucad::SessionTracker`] per `(shard, tenant)` pair. Because every
//!   queued operation carries its tenant's resolved route (so eviction can
//!   never touch work in flight), each tenant's alert stream is
//!   **byte-identical** to what a dedicated single-tenant engine would
//!   produce — the isolation wall `tests/tenant_isolation.rs` holds this
//!   across shard counts, cache configurations, LRU churn and mid-stream
//!   per-tenant model swaps, and `tests/tenant_supervision.rs` holds it
//!   through injected worker crashes.
//! * [`TenantedAdmission`] — a per-tenant view of the pool implementing
//!   the transport-agnostic [`ucad::Admission`] trait, so tenant traffic
//!   drivers written against the trait run unchanged on a dedicated
//!   engine or a slice of the shared pool.
//!
//! Per-tenant observability rides the shared substrate: serve counters
//! carry a `tenant` label clamped by [`ucad_obs::LabelGuard`] (a hostile
//! tenant cannot explode metric cardinality), flight-recorder entries are
//! tagged with their tenant, and per-tenant score caches expire via
//! tenant-granular epoch bumps on hot swap — one tenant's swap never
//! invalidates another's memoized scores.

#![warn(missing_docs)]

pub mod pool;
pub mod registry;

pub use pool::{TenantShardPool, TenantedAdmission, DEFAULT_TENANT_LABEL_LIMIT};
pub use registry::{TenantHandle, TenantProfile, TenantRegistry};

/// Fleet-unique tenant identifier.
pub type TenantId = u64;
