//! The shared shard pool: one shard worker core serving every tenant.
//!
//! The pool is the multi-route front of [`ucad::serve_core::ShardCore`],
//! the same worker core [`ucad::ShardedOnlineUcad`] runs on. Workers are
//! model-free: every queued operation carries its tenant's resolved
//! [`Route`] — the `Arc<Ucad>`, the tenant's score cache, its observer and
//! its alert counter. Three consequences:
//!
//! * **Eviction can never touch in-flight work.** The registry dropping a
//!   tenant's resident model only drops *its* reference; queued operations
//!   (and replay-ring entries, until their session closes) keep the model
//!   alive.
//! * **Per-tenant state is structurally namespaced.** Each worker hosts
//!   one [`ucad::SessionTracker`] per `(shard, tenant)`, each tenant
//!   memoizes into its own [`ucad::ScoreCache`] instance, and a hot swap
//!   bumps only that tenant's cache epoch. There is no shared mutable
//!   scoring state to leak across tenants.
//! * **Byte-identity falls out.** The tracker is a pure function of each
//!   session's record sequence, sessions route by
//!   `splitmix64(seed ^ splitmix64(tenant) ^ session_id)`, and drains
//!   merge per-shard outboxes by global arrival seq — restricted to one
//!   tenant, that order is exactly the tenant's own submission order, i.e.
//!   what a dedicated engine would emit.
//!
//! The core supplies supervision (a panicked worker is healed by replaying
//! its ring, so each tenant's alerts still match a fault-free run) and the
//! `ucad-fault` hooks. What stays here is what is really per-tenant:
//! registry activation, route resolution, observer fan-out, label-guarded
//! meters, per-tenant drains and the [`TenantedAdmission`] view.
//!
//! Accounting is exact: `accepted + shed == submitted` always (the pool
//! supports [`OverloadPolicy::Block`] and [`OverloadPolicy::ShedNewest`];
//! `Degrade` needs a per-tenant fallback model and is rejected at
//! construction).

use crate::registry::{TenantHandle, TenantRegistry};
use crate::TenantId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use ucad::serve::{OverloadPolicy, ServeConfig, ServeStats, SubmitOutcome};
use ucad::serve_core::{Op, OutboxAlert, Route, RoutedOp, ShardCore, ShardSeries};
use ucad::{merge_seq_sorted, splitmix64, Admission, Alert, ServeObserver, Ucad};
use ucad_dbsim::LogRecord;
use ucad_model::UcadError;
use ucad_obs::{Counter, FlightEntry, FlightRecorder, LabelGuard, Registry};

/// Default bound on distinct `tenant` label values in the pool's metric
/// exposition; tenants beyond it aggregate under the guard's overflow
/// bucket instead of growing cardinality.
pub const DEFAULT_TENANT_LABEL_LIMIT: usize = 32;

/// Locks a mutex, recovering the guard when a panicking thread poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fans observer hooks out to the pool-global observer and the tenant's
/// own (e.g. a per-tenant drift monitor). Hooks run inline on shard
/// workers, same contract as the single-tenant engine.
struct FanoutObserver(Vec<Arc<dyn ServeObserver>>);

impl ServeObserver for FanoutObserver {
    fn on_record(&self, key: u32) {
        for o in &self.0 {
            o.on_record(key);
        }
    }

    fn on_score(&self, rank: Option<usize>, abnormal: bool) {
        for o in &self.0 {
            o.on_score(rank, abnormal);
        }
    }

    fn on_alert(&self, alert: &Alert) {
        for o in &self.0 {
            o.on_alert(alert);
        }
    }

    fn on_session_close(&self, alerted: bool) {
        for o in &self.0 {
            o.on_session_close(alerted);
        }
    }

    fn on_scored(&self, seq: u64) {
        for o in &self.0 {
            o.on_scored(seq);
        }
    }
}

/// One shard worker core multiplexing every registered tenant.
pub struct TenantShardPool {
    registry: TenantRegistry,
    cfg: ServeConfig,
    core: ShardCore,
    metrics: Registry,
    flight: Arc<FlightRecorder>,
    guard: LabelGuard,
    global_observer: Option<Arc<dyn ServeObserver>>,
    tenant_observers: HashMap<TenantId, Arc<dyn ServeObserver>>,
    /// Composed (global + tenant) observers, rebuilt on attachment.
    resolved_observers: HashMap<TenantId, Arc<dyn ServeObserver>>,
    /// Guard-clamped label + per-tenant counters, cached per tenant.
    tenant_meters: HashMap<TenantId, (Arc<str>, Counter, Counter)>,
    /// Alerts taken from the core but not yet drained, in seq order.
    pending: Vec<OutboxAlert>,
    next_seq: u64,
    submitted: Counter,
    shed: Counter,
}

impl TenantShardPool {
    /// Builds a pool over `registry` with the default tenant-label budget
    /// and no pool-global observer. Rejects `OverloadPolicy::Degrade`
    /// (degraded scoring needs a per-tenant fallback model the registry
    /// does not hold) and zero shards / zero queue capacity.
    pub fn new(registry: TenantRegistry, cfg: ServeConfig) -> Result<Self, UcadError> {
        Self::new_observed(registry, cfg, None, DEFAULT_TENANT_LABEL_LIMIT)
    }

    /// [`TenantShardPool::new`] with a pool-global [`ServeObserver`]
    /// (receives every tenant's hooks — perfbench's open loop keys
    /// completion off its `on_scored`) and an explicit bound on distinct
    /// `tenant` metric-label values.
    pub fn new_observed(
        registry: TenantRegistry,
        cfg: ServeConfig,
        observer: Option<Arc<dyn ServeObserver>>,
        label_limit: usize,
    ) -> Result<Self, UcadError> {
        cfg.validate()?;
        if cfg.overload == OverloadPolicy::Degrade {
            return Err(UcadError::invalid(
                "overload",
                "the tenant pool has no per-tenant fallback model; \
                 use Block or ShedNewest",
            ));
        }
        if label_limit == 0 {
            return Err(UcadError::invalid(
                "label_limit",
                "the tenant label budget must admit at least one value",
            ));
        }
        let metrics = Registry::new();
        let flight = Arc::new(FlightRecorder::new(cfg.flight_capacity));
        flight.register_metrics(&metrics);
        registry.register_metrics(&metrics);
        let guard = LabelGuard::new(label_limit);
        guard.register_metrics(&metrics, "ucad_tenant_label_clamped_total");
        let series = ShardSeries {
            records: "ucad_serve_shard_records_total",
            alerts: None,
        };
        let core = ShardCore::new(&cfg, &metrics, &flight, series);
        Ok(TenantShardPool {
            registry,
            cfg,
            core,
            submitted: metrics.counter("ucad_tenant_records_submitted_total", &[]),
            shed: metrics.counter("ucad_serve_records_shed_total", &[]),
            metrics,
            flight,
            guard,
            global_observer: observer,
            tenant_observers: HashMap::new(),
            resolved_observers: HashMap::new(),
            tenant_meters: HashMap::new(),
            pending: Vec::new(),
            next_seq: 0,
        })
    }

    /// The tenant catalog behind the pool.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Mutable access to the tenant catalog (registration, budget probes).
    pub fn registry_mut(&mut self) -> &mut TenantRegistry {
        &mut self.registry
    }

    /// The pool's metric registry — attach extra per-tenant series here
    /// (e.g. [`ucad_life::DriftMonitor::register_metrics`] with a
    /// `tenant` label) so they render through [`Self::render_metrics`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Attaches a per-tenant observer (e.g. a drift monitor registered
    /// with `[("tenant", name)]` metric labels). Hooks fire alongside the
    /// pool-global observer for this tenant's records only.
    pub fn set_tenant_observer(&mut self, tenant: TenantId, observer: Arc<dyn ServeObserver>) {
        self.tenant_observers.insert(tenant, observer);
        self.resolved_observers.remove(&tenant);
    }

    fn observer_for(&mut self, tenant: TenantId) -> Option<Arc<dyn ServeObserver>> {
        if let Some(o) = self.resolved_observers.get(&tenant) {
            return Some(Arc::clone(o));
        }
        let mut fan: Vec<Arc<dyn ServeObserver>> = Vec::new();
        if let Some(g) = &self.global_observer {
            fan.push(Arc::clone(g));
        }
        if let Some(t) = self.tenant_observers.get(&tenant) {
            fan.push(Arc::clone(t));
        }
        let resolved: Option<Arc<dyn ServeObserver>> = match fan.len() {
            0 => None,
            1 => Some(fan.pop().expect("len checked")),
            _ => Some(Arc::new(FanoutObserver(fan))),
        };
        if let Some(o) = &resolved {
            self.resolved_observers.insert(tenant, Arc::clone(o));
        }
        resolved
    }

    fn meters_for(
        &mut self,
        tenant: TenantId,
        handle: &TenantHandle,
    ) -> (Arc<str>, Counter, Counter) {
        if let Some(m) = self.tenant_meters.get(&tenant) {
            return m.clone();
        }
        let label: Arc<str> = Arc::from(self.guard.admit(handle.name.as_ref()).as_str());
        let records = self
            .metrics
            .counter("ucad_serve_records_total", &[("tenant", label.as_ref())]);
        let alerts = self
            .metrics
            .counter("ucad_serve_alerts_total", &[("tenant", label.as_ref())]);
        let m = (label, records, alerts);
        self.tenant_meters.insert(tenant, m.clone());
        m
    }

    /// Activates `tenant` (possibly cold loading its model) and resolves
    /// the route its operations carry, plus its accepted-records counter.
    fn route_for(&mut self, tenant: TenantId) -> Result<(Arc<Route>, Counter), UcadError> {
        let handle = self.registry.activate(tenant)?;
        let observer = self.observer_for(tenant);
        let (label, records, alerts) = self.meters_for(tenant, &handle);
        let route = Route::new(
            tenant,
            handle.system,
            handle.cache,
            observer,
            Some(alerts),
            Some(label),
        );
        Ok((route, records))
    }

    /// Routes one operation of `tenant` to its shard: the core's
    /// splitmix64 discipline salted with the tenant, so equal session ids
    /// of different tenants spread independently. Returns whether it
    /// reached the shard.
    fn submit(
        &mut self,
        tenant: TenantId,
        op: Op,
        overload: OverloadPolicy,
    ) -> Result<bool, UcadError> {
        let (route, records) = self.route_for(tenant)?;
        let shard = self.core.shard_of(splitmix64(tenant), op.session_id());
        let is_record = matches!(op, Op::Record(..));
        let sent = self.core.submit(shard, RoutedOp { route, op }, overload);
        if sent && is_record {
            records.inc();
        }
        Ok(sent)
    }

    /// Submits one record of `tenant` for scoring. Activates the tenant
    /// (possibly cold loading its model), then enqueues under the
    /// configured overload policy: `Block` applies lossless backpressure,
    /// `ShedNewest` drops the record and reports [`SubmitOutcome::Shed`].
    pub fn try_submit(
        &mut self,
        tenant: TenantId,
        record: &LogRecord,
    ) -> Result<SubmitOutcome, UcadError> {
        let op = Op::Record(Arc::new(record.clone()), self.next_seq);
        let overload = self.cfg.overload;
        let sent = self.submit(tenant, op, overload)?;
        self.submitted.inc();
        self.next_seq += 1;
        if sent {
            return Ok(SubmitOutcome::Accepted);
        }
        self.shed.inc();
        Ok(SubmitOutcome::Shed)
    }

    /// Closes one session of `tenant` (Block mode scores the pending tail,
    /// which can itself raise an alert).
    pub fn close_session(&mut self, tenant: TenantId, session_id: u64) -> Result<(), UcadError> {
        self.submit(tenant, Op::Close(session_id), OverloadPolicy::Block)
            .map(drop)
    }

    /// DBA feedback: the alert on `(tenant, session_id)` was a false alarm;
    /// the session joins the tenant's verified-normal feedback (see
    /// [`Self::drain_tenant_feedback`]).
    pub fn confirm_false_alarm(
        &mut self,
        tenant: TenantId,
        session_id: u64,
    ) -> Result<(), UcadError> {
        self.submit(tenant, Op::FalseAlarm(session_id), OverloadPolicy::Block)
            .map(drop)
    }

    /// Barrier: returns once every operation submitted so far is
    /// processed, healing dead shard workers along the way.
    pub fn flush(&self) -> Result<(), UcadError> {
        self.core.flush();
        Ok(())
    }

    /// Flushes, then folds every shard outbox into the pool's pending
    /// buffer in global-seq order.
    fn collect(&mut self) {
        self.core.flush();
        let pending = std::mem::take(&mut self.pending);
        self.pending = merge_seq_sorted([pending, self.core.take_alerts()], |a| a.seq);
    }

    /// Flushes, then returns every alert raised since the last drain
    /// across **all** tenants, ordered by global arrival seq.
    pub fn drain_alerts(&mut self) -> Result<Vec<Alert>, UcadError> {
        self.collect();
        Ok(self.pending.drain(..).map(|p| p.alert).collect())
    }

    /// Flushes, then returns (and removes) the alerts of one tenant,
    /// leaving other tenants' pending alerts undisturbed. Within the
    /// returned vector, order is the tenant's own submission order — the
    /// same order a dedicated single-tenant engine drains in.
    pub fn drain_tenant_alerts(&mut self, tenant: TenantId) -> Result<Vec<Alert>, UcadError> {
        self.collect();
        let (mine, rest): (Vec<OutboxAlert>, Vec<OutboxAlert>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.tenant == tenant);
        self.pending = rest;
        Ok(mine.into_iter().map(|p| p.alert).collect())
    }

    /// Flushes, then returns (and removes) the verified-normal feedback of
    /// one tenant — its unalerted closed and false-alarm-confirmed
    /// sessions, the §5.2 retraining corpus — leaving other tenants'
    /// feedback undisturbed.
    pub fn drain_tenant_feedback(&mut self, tenant: TenantId) -> Result<Vec<Vec<u32>>, UcadError> {
        self.core.flush();
        Ok(self.core.take_feedback(Some(tenant)))
    }

    /// Hot-swaps one tenant's system mid-stream: full flush barrier (every
    /// record submitted before the swap scores under the old model), then
    /// the registry persists + installs the new system and bumps only this
    /// tenant's cache epoch. Other tenants' serving state, caches and
    /// epochs are untouched.
    pub fn swap_tenant(&mut self, tenant: TenantId, system: &Ucad) -> Result<(), UcadError> {
        self.core.flush();
        self.registry.swap(tenant, system)
    }

    /// Flushes, then snapshots the pool's throughput, overload and
    /// supervision counters. `cache` is `None`: score memos are per-tenant
    /// (inspect a tenant's via its [`TenantHandle`]);
    /// `records_degraded` is zero because the pool rejects `Degrade`.
    pub fn stats(&mut self) -> Result<ServeStats, UcadError> {
        self.collect();
        Ok(ServeStats {
            records_per_shard: self.core.records_per_shard(),
            pending_alerts: self.pending.len(),
            cache: None,
            records_shed: self.shed.get(),
            records_degraded: 0,
            worker_restarts: self.core.worker_restarts(),
        })
    }

    /// Records ever submitted (accepted + shed).
    pub fn submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Prometheus text exposition of the pool registry (tenant-labeled
    /// serve counters, `ucad_tenant_*` lifecycle counters, flight-recorder
    /// counters, label-guard clamps, shard-core supervision series).
    pub fn render_metrics(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// The flight recorder's resident entries as a JSON array.
    pub fn dump_flight_json(&self) -> String {
        self.flight.dump_json()
    }

    /// The flight recorder's resident entries of one tenant, as a JSON
    /// array (entries are tagged with the tenant's guard-clamped label).
    pub fn dump_tenant_flight_json(&self, tenant: TenantId) -> String {
        let label = self
            .tenant_meters
            .get(&tenant)
            .map(|(l, _, _)| l.to_string());
        let body: Vec<String> = self
            .flight
            .entries()
            .iter()
            .filter(|e| e.tenant == label)
            .map(FlightEntry::to_json)
            .collect();
        format!("[{}]", body.join(","))
    }

    /// Drains every remaining alert, stops the workers and returns the
    /// catalog (for reuse or inspection). Alerts still pending are
    /// returned alongside.
    pub fn shutdown(mut self) -> Result<(TenantRegistry, Vec<Alert>), UcadError> {
        let alerts = self.drain_alerts()?;
        self.core.shutdown();
        Ok((self.registry, alerts))
    }
}

/// A per-tenant view of a shared [`TenantShardPool`], implementing the
/// transport-agnostic [`Admission`] trait: traffic drivers written against
/// the trait serve one tenant of the pool exactly as they would a
/// dedicated engine. Cheap to clone — one pool serves many views.
#[derive(Clone)]
pub struct TenantedAdmission {
    pool: Arc<Mutex<TenantShardPool>>,
    tenant: TenantId,
}

impl TenantedAdmission {
    /// A view of `tenant` over `pool`.
    pub fn new(pool: Arc<Mutex<TenantShardPool>>, tenant: TenantId) -> Self {
        TenantedAdmission { pool, tenant }
    }

    /// The tenant this view serves.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
}

impl Admission for TenantedAdmission {
    fn try_submit(&mut self, record: &LogRecord) -> Result<SubmitOutcome, UcadError> {
        lock(&self.pool).try_submit(self.tenant, record)
    }

    fn close_session(&mut self, session_id: u64) -> Result<(), UcadError> {
        lock(&self.pool).close_session(self.tenant, session_id)
    }

    fn confirm_false_alarm(&mut self, session_id: u64) -> Result<(), UcadError> {
        lock(&self.pool).confirm_false_alarm(self.tenant, session_id)
    }

    fn flush(&mut self) -> Result<(), UcadError> {
        lock(&self.pool).flush()
    }

    fn drain_alerts(&mut self) -> Result<Vec<Alert>, UcadError> {
        lock(&self.pool).drain_tenant_alerts(self.tenant)
    }

    fn stats(&mut self) -> Result<ServeStats, UcadError> {
        lock(&self.pool).stats()
    }

    fn render_metrics(&mut self) -> Result<String, UcadError> {
        Ok(lock(&self.pool).render_metrics())
    }

    fn dump_flight_json(&mut self) -> Result<String, UcadError> {
        Ok(lock(&self.pool).dump_tenant_flight_json(self.tenant))
    }
}
