//! The model-free shard worker core both serving fronts run on.
//!
//! [`crate::ShardedOnlineUcad`] (one model, durability, `Degrade`, hot
//! swap) and `ucad-tenant`'s `TenantShardPool` (many tenants behind one
//! registry) are two fronts over this one engine. The core owns the shard
//! workers, their bounded queues, the per-shard outboxes and feedback
//! buffers, the in-memory replay ring and supervision; a front owns what is
//! really its own — sequence numbers, routes, overload fallbacks, drains.
//!
//! Workers hold no model. Every queued operation carries its resolved
//! [`Route`]: tenant id, `Arc<Ucad>`, score cache, observer and alert
//! counter. A worker keeps one [`SessionTracker`] per tenant it has seen and
//! applies each operation with the route it was submitted under. Hence:
//!
//! * a hot swap is just a new route for later submissions — no swap message
//!   and no table of past models: a replay-ring entry keeps its own model
//!   alive until its session closes;
//! * registry eviction never touches queued work;
//! * supervision replays every entry under its own model. An entry whose
//!   route was superseded (its cache moved to a newer epoch) replays
//!   without the cache, so a stale score is never memoized under the
//!   current epoch.
//!
//! One function, `ShardHandles::apply`, applies an operation (record,
//! close, false alarm) to its tracker and books its effects: alert, verified-
//! normal feedback, counters, observer. The worker loop, supervision replay
//! and durable recovery all go through it.
//!
//! Sessions route by `splitmix64(seed ^ salt ^ session_id) % shards`. The
//! single-route engine uses salt 0 — the expression its durable directories
//! and the net router were written against; the pool salts with
//! `splitmix64(tenant)` so equal session ids of different tenants spread
//! independently.

use crate::admission::{merge_seq_sorted, splitmix64};
use crate::online::{Alert, RaisedAlert, ServeObserver, SessionTracker, TrackerState};
use crate::serve::{OverloadPolicy, ServeConfig};
use crate::system::Ucad;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, ScoreCache, UcadError};
use ucad_obs::{
    latency_log_bounds, Counter, FlightEntry, FlightRecorder, Gauge, Histogram, MetricKind,
    Registry,
};

/// Locks a mutex, recovering the guard when a panicking worker poisoned it
/// (the protected structures are always left in a consistent state: every
/// critical section is a push, pop or retain that cannot be observed
/// half-done).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything an operation needs to be applied, resolved by the front at
/// submit time and carried by the operation itself.
pub struct Route {
    /// Tenant the session belongs to; names its tracker on every shard
    /// (the single-route engine uses 0).
    pub tenant: u64,
    /// The system that scores the operation.
    pub system: Arc<Ucad>,
    /// The score memo the operation may use.
    pub cache: Option<Arc<ScoreCache>>,
    /// `cache`'s epoch when the route was resolved. Once a swap advances the
    /// cache past it, the route's model is superseded and it memoizes no
    /// more.
    cache_epoch: u64,
    /// Hooks for records, scores, alerts and closes of this route.
    pub observer: Option<Arc<dyn ServeObserver>>,
    /// Per-route alert counter (the pool's `tenant`-labelled series).
    pub alerts: Option<Counter>,
    /// Tenant label of flight-recorder entries (`None` on the engine).
    pub label: Option<Arc<str>>,
}

impl Route {
    /// Resolves a route, pinning the cache's current epoch.
    pub fn new(
        tenant: u64,
        system: Arc<Ucad>,
        cache: Option<Arc<ScoreCache>>,
        observer: Option<Arc<dyn ServeObserver>>,
        alerts: Option<Counter>,
        label: Option<Arc<str>>,
    ) -> Arc<Route> {
        let cache_epoch = cache.as_ref().map_or(0, |c| c.epoch());
        Arc::new(Route {
            tenant,
            system,
            cache,
            cache_epoch,
            observer,
            alerts,
            label,
        })
    }

    /// The cache, unless a swap has superseded this route's model.
    fn live_cache(&self) -> Option<&ScoreCache> {
        self.cache
            .as_deref()
            .filter(|c| c.epoch() == self.cache_epoch)
    }
}

/// A stateful operation on one session.
#[derive(Clone)]
pub enum Op {
    /// A record and its global arrival sequence number.
    Record(Arc<LogRecord>, u64),
    /// A session close.
    Close(u64),
    /// A false-alarm confirmation.
    FalseAlarm(u64),
}

/// An operation with its route: what a worker applies and what the replay
/// ring keeps.
#[derive(Clone)]
pub struct RoutedOp {
    /// The route the operation was submitted under.
    pub route: Arc<Route>,
    /// The operation.
    pub op: Op,
}

impl Op {
    /// The session the operation belongs to.
    pub fn session_id(&self) -> u64 {
        match self {
            Op::Record(record, _) => record.session_id,
            Op::Close(id) | Op::FalseAlarm(id) => *id,
        }
    }
}

impl RoutedOp {
    /// `(tenant, session id)`: the session the operation belongs to.
    fn key(&self) -> (u64, u64) {
        (self.route.tenant, self.op.session_id())
    }
}

enum Msg {
    /// An operation with the shard queue depth observed at enqueue time and
    /// the enqueue instant — its trace context. The worker derives queue
    /// wait from the instant; it never influences scoring, so tracing cannot
    /// perturb the alert stream.
    Op(RoutedOp, usize, Instant),
    /// Barrier: every message sent before this one has been processed once
    /// the acknowledgement arrives (per-shard queues are FIFO).
    Flush(SyncSender<()>),
    /// State export barrier: the worker answers with its trackers' full
    /// session state (used to build durable snapshots).
    Export(SyncSender<TrackerStates>),
    Shutdown,
    /// Test hook: makes the worker panic, exercising the supervision and
    /// shutdown panic-capture paths.
    #[cfg(test)]
    Panic,
}

/// Exported session state of one shard, one entry per tenant.
pub(crate) type TrackerStates = Vec<(u64, TrackerState)>;

/// Verified-normal sessions (key sequences), each tagged with its tenant.
pub(crate) type TaggedFeedback = Vec<(u64, Vec<u32>)>;

/// One shard's session partitions: a [`SessionTracker`] per tenant.
pub(crate) struct Trackers {
    mode: DetectionMode,
    by_tenant: HashMap<u64, SessionTracker>,
}

impl Trackers {
    pub(crate) fn new(mode: DetectionMode) -> Self {
        Trackers {
            mode,
            by_tenant: HashMap::new(),
        }
    }

    pub(crate) fn import(mode: DetectionMode, states: TrackerStates) -> Self {
        let by_tenant = states
            .into_iter()
            .map(|(tenant, state)| (tenant, SessionTracker::import_state(mode, state)))
            .collect();
        Trackers { mode, by_tenant }
    }

    /// Every tenant's state, sorted by tenant so equal state exports equal
    /// bytes.
    pub(crate) fn export(&self) -> TrackerStates {
        let mut states: TrackerStates = self
            .by_tenant
            .iter()
            .map(|(tenant, t)| (*tenant, t.export_state()))
            .collect();
        states.sort_by_key(|(tenant, _)| *tenant);
        states
    }

    fn has_session(&self, (tenant, session_id): (u64, u64)) -> bool {
        self.by_tenant
            .get(&tenant)
            .is_some_and(|t| t.has_session(session_id))
    }
}

/// One entry of a shard's replay ring.
#[derive(Clone)]
struct RingEntry {
    /// Position in the shard's processing order. Appends are contiguous
    /// and per-shard queues are FIFO, so `idx < watermark` ⟺ the worker
    /// fully processed this entry before it (last) crashed.
    idx: u64,
    key: (u64, u64),
    op: RoutedOp,
}

/// Per-shard in-memory replay ring. The core appends before every send;
/// the worker drops a session's entries once it closes (they can never be
/// needed again); supervision replays what remains.
#[derive(Default)]
struct Ring {
    entries: Vec<RingEntry>,
    /// Index the next appended entry receives; equals the count of entries
    /// ever appended (pops of never-sent entries roll it back).
    next_idx: u64,
}

/// Supervision base installed by a durable snapshot (and by recovery): the
/// state a replay starts from instead of empty trackers, so the ring can be
/// pruned below it.
#[derive(Clone)]
struct BaseState {
    /// Ring index the state covers up to (exclusive).
    idx: u64,
    /// Sessions open in `states`. Their later ring entries — including the
    /// eventual close — must survive pruning until the base advances past
    /// them, or a replay would resurrect the session.
    open: HashSet<(u64, u64)>,
    states: TrackerStates,
}

/// One undrained alert with its trace context: the global sequence of the
/// triggering record, its tenant, and the instant it was raised (for
/// drain-delay attribution; `None` for alerts restored from a durable
/// snapshot, whose raise instant belongs to a previous process life).
pub struct OutboxAlert {
    /// Global arrival sequence of the triggering record.
    pub seq: u64,
    /// Tenant of the alerting session.
    pub tenant: u64,
    /// When the alert was raised.
    pub raised_at: Option<Instant>,
    /// The alert.
    pub alert: Alert,
}

/// Names of the per-shard counter series a front exposes.
#[derive(Clone, Copy)]
pub struct ShardSeries {
    /// Records processed per shard.
    pub records: &'static str,
    /// Alerts raised per shard; `None` when the front counts alerts per
    /// route instead.
    pub alerts: Option<&'static str>,
}

/// The front-side shared state of one shard: everything that must survive
/// a worker crash, plus the shard's pre-fetched metric handles (the hot loop
/// never takes the registry mutex).
#[derive(Clone)]
pub(crate) struct ShardHandles {
    shard: usize,
    flight: Arc<FlightRecorder>,
    pub(crate) outbox: Arc<Mutex<Vec<OutboxAlert>>>,
    ring: Arc<Mutex<Ring>>,
    /// Count of operations the worker has fully processed — the replay
    /// watermark. Bumped only after an operation's complete effect has
    /// landed, so a crash mid-operation replays it exactly once.
    processed: Arc<AtomicU64>,
    /// Verified-normal feedback tagged with its tenant, exported on session
    /// close so a later crash cannot lose it.
    pub(crate) feedback: Arc<Mutex<TaggedFeedback>>,
    base: Arc<Mutex<Option<BaseState>>>,
    pub(crate) alerts: Option<Counter>,
    records: Counter,
    queue_depth: Gauge,
    score_latency: Histogram,
    /// Engine-wide queue-wait and scoring stage histograms, shared by every
    /// shard.
    queue_wait: Histogram,
    latency_score: Histogram,
}

impl ShardHandles {
    /// Applies one operation to its tenant's tracker. `live` books every
    /// effect — alert (with the given queue depth and wait as trace
    /// context), feedback, counters, observer; otherwise only tracker state
    /// is rebuilt (supervision replay below the watermark).
    pub(crate) fn apply(
        &self,
        trackers: &mut Trackers,
        op: &RoutedOp,
        live: bool,
        depth: usize,
        queue_wait_us: Option<f64>,
    ) {
        let route = &op.route;
        let mode = trackers.mode;
        let tracker = trackers
            .by_tenant
            .entry(route.tenant)
            .or_insert_with(|| SessionTracker::new(mode));
        let cache = route.live_cache();
        let observer = route.observer.as_deref().filter(|_| live);
        let raised = match &op.op {
            Op::Record(record, seq) => {
                let start = Instant::now();
                let raised = tracker.ingest(&route.system, cache, observer, record, *seq);
                if live {
                    self.records.inc();
                    let secs = start.elapsed().as_secs_f64();
                    self.score_latency.observe(secs);
                    self.latency_score.observe(secs);
                }
                raised
            }
            Op::Close(id) => tracker.close(&route.system, cache, observer, *id),
            Op::FalseAlarm(id) => {
                tracker.confirm_false_alarm(*id);
                None
            }
        };
        let normals = tracker.take_verified_normals();
        if !live {
            return;
        }
        if let Some(raised) = raised {
            self.book_alert(route, raised, depth, queue_wait_us);
        }
        if let (Op::Record(_, seq), Some(observer)) = (&op.op, observer) {
            observer.on_scored(*seq);
        }
        if !normals.is_empty() {
            let tagged = normals.into_iter().map(|keys| (route.tenant, keys));
            lock(&self.feedback).extend(tagged);
        }
    }

    /// Books a raised alert: the outbox (for deterministic draining), the
    /// alert counters, the flight recorder, the observer and — when
    /// `UCAD_OBS` is on — a structured event line.
    fn book_alert(
        &self,
        route: &Route,
        raised: RaisedAlert,
        queue_depth: usize,
        queue_wait_us: Option<f64>,
    ) {
        for counter in [&self.alerts, &route.alerts].into_iter().flatten() {
            counter.inc();
        }
        let reason = format!("{:?}", raised.alert.reason);
        self.flight.record(FlightEntry {
            seq: raised.seq,
            session_id: raised.alert.session_id,
            shard: self.shard,
            tenant: route.label.as_deref().map(str::to_string),
            reason: reason.clone(),
            position: raised.alert.position,
            rank: raised.rank,
            score: raised.score,
            cache_hit: raised.cache_hit,
            queue_depth,
            queue_wait_us,
            drain_delay_us: None,
            key_window: raised.key_window,
        });
        ucad_obs::event(
            "serve.alert",
            &[
                ("session_id", raised.alert.session_id.to_string()),
                ("shard", self.shard.to_string()),
                ("reason", reason),
                ("seq", raised.seq.to_string()),
            ],
        );
        if let Some(observer) = &route.observer {
            observer.on_alert(&raised.alert);
        }
        lock(&self.outbox).push(OutboxAlert {
            seq: raised.seq,
            tenant: route.tenant,
            raised_at: Some(Instant::now()),
            alert: raised.alert,
        });
    }

    /// Installs `states` as the supervision base covering every ring entry
    /// appended so far, and prunes those entries.
    pub(crate) fn rebase(&self, states: TrackerStates) {
        let mut ring = lock(&self.ring);
        let idx = ring.next_idx;
        let open = states
            .iter()
            .flat_map(|(tenant, s)| s.sessions.iter().map(|s| (*tenant, s.session.id)))
            .collect();
        *lock(&self.base) = Some(BaseState { idx, open, states });
        ring.entries.retain(|e| e.idx >= idx);
    }
}

/// The restartable half of a shard: the channel sender and the worker's
/// join handle, swapped out together when supervision respawns the worker.
struct ShardLink {
    tx: SyncSender<Msg>,
    handle: Option<JoinHandle<Trackers>>,
}

struct Shard {
    link: Mutex<ShardLink>,
    h: ShardHandles,
}

fn spawn_worker(h: ShardHandles, queue_capacity: usize, trackers: Trackers) -> ShardLink {
    let (tx, rx) = sync_channel(queue_capacity.max(1));
    let handle = std::thread::spawn(move || worker(rx, h, trackers));
    ShardLink {
        tx,
        handle: Some(handle),
    }
}

fn worker(rx: Receiver<Msg>, h: ShardHandles, mut trackers: Trackers) -> Trackers {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Op(op, depth, enqueued) => {
                let queue_wait_us = match op.op {
                    Op::Record(..) => {
                        // Fault hook first: an injected crash eats the
                        // record before any of its effects land, so
                        // supervision replays it exactly once.
                        ucad_fault::on_worker_record(h.shard);
                        let wait = enqueued.elapsed().as_secs_f64();
                        h.queue_wait.observe(wait);
                        Some(wait * 1e6)
                    }
                    // Close-raised alerts carry no per-record queue wait —
                    // the control message's residency is not the record's.
                    Op::Close(_) | Op::FalseAlarm(_) => None,
                };
                h.queue_depth.add(-1.0);
                h.apply(&mut trackers, &op, true, depth, queue_wait_us);
                let now = h.processed.fetch_add(1, Ordering::SeqCst) + 1;
                if !matches!(op.op, Op::Record(..)) {
                    // The session is gone; its ring entries can never be
                    // needed by a replay again. Entries at or above the
                    // watermark belong to a re-opened session with the same
                    // id — keep. Exception: the supervision base still lists
                    // the session open, so replay starts before this close —
                    // pruning its entries (this close included) would
                    // resurrect it. Keep them until the base advances.
                    let key = op.key();
                    let base_open = lock(&h.base)
                        .as_ref()
                        .is_some_and(|b| b.open.contains(&key));
                    if !base_open {
                        // Dropped after the lock is released: an entry can
                        // hold the last reference to an evicted or swapped
                        // out model, and freeing it must not stall
                        // submission.
                        let closed: Vec<RingEntry> = lock(&h.ring)
                            .entries
                            .extract_if(.., |e| e.key == key && e.idx < now)
                            .collect();
                        drop(closed);
                    }
                }
            }
            Msg::Flush(ack) => {
                let _ = ack.send(());
            }
            Msg::Export(ack) => {
                let _ = ack.send(trackers.export());
            }
            Msg::Shutdown => break,
            #[cfg(test)]
            Msg::Panic => panic!("injected worker panic"),
        }
    }
    trackers
}

/// N supervised shard workers with their queues, outboxes, feedback
/// buffers and replay rings. See the module docs.
pub struct ShardCore {
    shards: Vec<Shard>,
    mode: DetectionMode,
    seed: u64,
    queue_capacity: usize,
    worker_panics: Counter,
    worker_restarts: Counter,
    /// Panic messages captured by supervision and the final shutdown join,
    /// in capture order.
    panic_log: Mutex<Vec<(usize, String)>>,
}

impl ShardCore {
    /// Registers the core's series on `registry` and spawns `cfg.shards`
    /// workers with empty trackers.
    pub fn new(
        cfg: &ServeConfig,
        registry: &Registry,
        flight: &Arc<FlightRecorder>,
        series: ShardSeries,
    ) -> Self {
        Self::build(cfg, registry, flight, series, |_| {
            Ok(Trackers::new(cfg.mode))
        })
        .expect("empty trackers cannot fail")
    }

    /// [`ShardCore::new`] with each shard's initial trackers produced by
    /// `init`, which may first restore state into the shard's handles
    /// (durable recovery).
    pub(crate) fn build(
        cfg: &ServeConfig,
        registry: &Registry,
        flight: &Arc<FlightRecorder>,
        series: ShardSeries,
        mut init: impl FnMut(&ShardHandles) -> Result<Trackers, UcadError>,
    ) -> Result<Self, UcadError> {
        registry.describe(
            series.records,
            MetricKind::Counter,
            "Records accepted per shard",
        );
        if let Some(alerts) = series.alerts {
            registry.describe(alerts, MetricKind::Counter, "Alerts raised per shard");
        }
        for (name, kind, help) in [
            (
                "ucad_serve_queue_depth",
                MetricKind::Gauge,
                "Messages enqueued on a shard but not yet processed",
            ),
            (
                "ucad_serve_score_duration_seconds",
                MetricKind::Histogram,
                "Per-record scoring latency (policy screen + model forward)",
            ),
            (
                "ucad_latency_queue_wait_seconds",
                MetricKind::Histogram,
                "Time a record spent in its shard queue between enqueue and scoring",
            ),
            (
                "ucad_latency_score_seconds",
                MetricKind::Histogram,
                "Per-record scoring stage latency, engine-wide across shards",
            ),
            (
                "ucad_serve_worker_panics_total",
                MetricKind::Counter,
                "Worker threads that died of a panic",
            ),
            (
                "ucad_serve_worker_restarts_total",
                MetricKind::Counter,
                "Shard workers respawned by supervision after a panic",
            ),
        ] {
            registry.describe(name, kind, help);
        }
        let queue_wait =
            registry.histogram("ucad_latency_queue_wait_seconds", &[], latency_log_bounds());
        let latency_score =
            registry.histogram("ucad_latency_score_seconds", &[], latency_log_bounds());
        let mut shards = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let shard_label = shard.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard_label.as_str())];
            let h = ShardHandles {
                shard,
                flight: Arc::clone(flight),
                outbox: Arc::default(),
                ring: Arc::default(),
                processed: Arc::default(),
                feedback: Arc::default(),
                base: Arc::default(),
                alerts: series.alerts.map(|name| registry.counter(name, labels)),
                records: registry.counter(series.records, labels),
                queue_depth: registry.gauge("ucad_serve_queue_depth", labels),
                score_latency: registry.histogram(
                    "ucad_serve_score_duration_seconds",
                    labels,
                    latency_log_bounds(),
                ),
                queue_wait: queue_wait.clone(),
                latency_score: latency_score.clone(),
            };
            let trackers = init(&h)?;
            shards.push(Shard {
                link: Mutex::new(spawn_worker(h.clone(), cfg.queue_capacity, trackers)),
                h,
            });
        }
        Ok(ShardCore {
            shards,
            mode: cfg.mode,
            seed: cfg.seed,
            queue_capacity: cfg.queue_capacity,
            worker_panics: registry.counter("ucad_serve_worker_panics_total", &[]),
            worker_restarts: registry.counter("ucad_serve_worker_restarts_total", &[]),
            panic_log: Mutex::new(Vec::new()),
        })
    }

    /// The shard a session routes to under `salt`.
    pub fn shard_of(&self, salt: u64, session_id: u64) -> usize {
        (splitmix64(self.seed ^ salt ^ session_id) % self.shards.len() as u64) as usize
    }

    pub(crate) fn handles(&self, i: usize) -> &ShardHandles {
        &self.shards[i].h
    }

    /// Appends `op` to shard `i`'s replay ring and sends it. `Block` waits
    /// for queue space; any other policy refuses a saturated queue (or one
    /// an armed `ucad-fault` plan forces saturated). Returns whether the
    /// operation reached the shard — directly, or through supervision
    /// replay when the worker had died; a refused operation leaves no trace.
    pub fn submit(&self, i: usize, op: RoutedOp, overload: OverloadPolicy) -> bool {
        let h = &self.shards[i].h;
        let idx = {
            let mut ring = lock(&h.ring);
            let idx = ring.next_idx;
            ring.next_idx += 1;
            ring.entries.push(RingEntry {
                idx,
                key: op.key(),
                op: op.clone(),
            });
            idx
        };
        let depth = (h.queue_depth.add(1.0) - 1.0).max(0.0) as usize;
        let msg = Msg::Op(op, depth, Instant::now());
        // Each arm's link guard is released before `supervise` re-locks
        // the link below.
        let link = &self.shards[i].link;
        let sent = match overload {
            OverloadPolicy::Block => lock(link)
                .tx
                .send(msg)
                .map_err(|e| TrySendError::Disconnected(e.0)),
            _ if ucad_fault::on_submit_saturated(i) => Err(TrySendError::Full(msg)),
            _ => lock(link).tx.try_send(msg),
        };
        match sent {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => {
                // Dead receiver: the std channel wakes blocked senders when
                // the worker drops its end, so a crashed shard can never
                // deadlock submission. Supervision replays the appended
                // entry — do not resend.
                self.supervise(i, true);
                true
            }
            Err(TrySendError::Full(_)) => {
                // Refused: the entry must go too, or replay would
                // double-process everything behind the index gap. Only the
                // front appends and submission is serialized, so `idx` is
                // the tail.
                let mut ring = lock(&h.ring);
                debug_assert_eq!(ring.entries.last().map(|e| e.idx), Some(idx));
                ring.entries.pop();
                ring.next_idx = idx;
                h.queue_depth.add(-1.0);
                false
            }
        }
    }

    /// Captures a worker panic: the panic log, the panic counter, and an
    /// event line.
    fn record_panic(&self, shard: usize, panic: Box<dyn std::any::Any + Send>) {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        self.worker_panics.inc();
        ucad_obs::event(
            "serve.worker_panic",
            &[("shard", shard.to_string()), ("message", message.clone())],
        );
        lock(&self.panic_log).push((shard, message));
    }

    /// Checks shard `i` for a dead worker and, if found, heals it: joins
    /// the corpse (capturing the panic), replays the shard's ring into
    /// fresh trackers — entries below the processed watermark rebuild state
    /// silently, entries above it are processed for real under their own
    /// route — and respawns the worker on the rebuilt trackers. Returns
    /// whether a restart happened.
    ///
    /// `force` skips the liveness probe: a failed channel send proves the
    /// receiver is gone even while the worker thread is still unwinding,
    /// so the caller must supervise unconditionally (the join below waits
    /// out the unwind).
    fn supervise(&self, i: usize, force: bool) -> bool {
        let shard = &self.shards[i];
        let h = &shard.h;
        let mut link = lock(&shard.link);
        let dead = match &link.handle {
            Some(handle) => force || handle.is_finished(),
            None => false,
        };
        if !dead {
            return false;
        }
        // A clean exit (shutdown raced a supervision pass) has nothing to
        // heal, but the link is respawned all the same so the shard keeps
        // accepting sessions.
        if let Err(panic) = link.handle.take().expect("liveness-checked above").join() {
            self.record_panic(i, panic);
        }
        // The worker is dead and submission is serialized: ring and
        // watermark are frozen.
        let (entries, ring_top) = {
            let ring = lock(&h.ring);
            (ring.entries.clone(), ring.next_idx)
        };
        let watermark = h.processed.load(Ordering::SeqCst);
        let base = lock(&h.base).clone();
        let (base_idx, mut trackers) = match &base {
            Some(b) => (b.idx, Trackers::import(self.mode, b.states.clone())),
            None => (0, Trackers::new(self.mode)),
        };
        let (mut rebuilt, mut replayed) = (0u64, 0u64);
        for entry in entries.iter().filter(|e| e.idx >= base_idx) {
            let live = entry.idx >= watermark;
            *if live { &mut replayed } else { &mut rebuilt } += 1;
            // Queue residency died with the worker's queue — replayed
            // alerts carry no queue-wait attribution.
            h.apply(&mut trackers, &entry.op, live, 0, None);
        }
        // Everything in the ring is now processed; keep only what a future
        // replay of the still-open sessions would need (plus sessions the
        // base still lists open — their closes must stay replayable).
        h.processed.store(ring_top, Ordering::SeqCst);
        lock(&h.ring).entries.retain(|e| {
            trackers.has_session(e.key) || base.as_ref().is_some_and(|b| b.open.contains(&e.key))
        });
        // The dead worker's queue died with it; replay covered its
        // contents, so the fresh queue starts empty.
        h.queue_depth.set(0.0);
        *link = spawn_worker(h.clone(), self.queue_capacity, trackers);
        self.worker_restarts.inc();
        ucad_obs::event(
            "serve.worker_restart",
            &[
                ("shard", i.to_string()),
                ("replayed", replayed.to_string()),
                ("rebuilt", rebuilt.to_string()),
            ],
        );
        true
    }

    /// Whether shard `i`'s worker has exited.
    fn is_dead(&self, i: usize) -> bool {
        lock(&self.shards[i].link)
            .handle
            .as_ref()
            .is_none_or(|h| h.is_finished())
    }

    /// Waits for a barrier reply from shard `i`. A plain `recv()` can park
    /// forever: if the worker dies *after* the barrier was queued, its
    /// receiver drops but the core still holds the queue's sender, so the
    /// buffered barrier — and the reply sender inside it — is never
    /// destroyed. The wait therefore re-checks worker liveness on a short
    /// timeout; `None` means the worker died.
    fn await_reply<T>(&self, i: usize, rx: Receiver<T>) -> Option<T> {
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(reply) => return Some(reply),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) if self.is_dead(i) => return None,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    /// Barrier: returns once every operation submitted so far has been
    /// fully processed by its shard — healing dead workers along the way.
    /// The pass repeats until a whole round completes with no restart and
    /// no failed barrier, so a worker dying *during* the flush (e.g. an
    /// injected panic on a still-queued record) is also healed before the
    /// call returns; fault plans are finite, so the loop terminates.
    pub fn flush(&self) {
        loop {
            let mut stable = true;
            for i in 0..self.shards.len() {
                stable &= !self.supervise(i, false);
            }
            let acks: Vec<Option<Receiver<()>>> = self
                .shards
                .iter()
                .map(|shard| {
                    let (tx, rx) = sync_channel(1);
                    let sent = lock(&shard.link).tx.send(Msg::Flush(tx));
                    sent.ok().map(|()| rx)
                })
                .collect();
            for (i, ack) in acks.into_iter().enumerate() {
                stable &= ack.and_then(|rx| self.await_reply(i, rx)).is_some();
            }
            if stable {
                return;
            }
        }
    }

    /// Exports shard `i`'s session state through a queue barrier, healing
    /// the worker (whose replay rebuilds the same state) and retrying if it
    /// dies mid-export. Call after a flush so the export reflects
    /// everything submitted.
    pub(crate) fn export(&self, i: usize) -> TrackerStates {
        loop {
            let (tx, rx) = sync_channel(1);
            let sent = lock(&self.shards[i].link).tx.send(Msg::Export(tx));
            if let Some(states) = sent.ok().and_then(|()| self.await_reply(i, rx)) {
                return states;
            }
            // Dead worker: heal it and retry (fault plans are finite).
            self.supervise(i, true);
        }
    }

    /// Takes every shard's undrained alerts, merged into global arrival
    /// order through the same helper the cross-process router uses.
    pub fn take_alerts(&self) -> Vec<OutboxAlert> {
        merge_seq_sorted(
            self.shards
                .iter()
                .map(|shard| std::mem::take(&mut *lock(&shard.h.outbox))),
            |a| a.seq,
        )
    }

    /// Takes the verified-normal feedback of `tenant` (of every tenant when
    /// `None`): sessions in close order within a shard, shards in index
    /// order.
    pub fn take_feedback(&self, tenant: Option<u64>) -> Vec<Vec<u32>> {
        let mut sessions = Vec::new();
        for shard in &self.shards {
            lock(&shard.h.feedback).retain_mut(|(t, keys)| {
                let take = tenant.is_none_or(|want| want == *t);
                if take {
                    sessions.push(std::mem::take(keys));
                }
                !take
            });
        }
        sessions
    }

    /// Records processed per shard.
    pub fn records_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.h.records.get()).collect()
    }

    /// Alerts waiting in the shard outboxes.
    pub fn pending_alerts(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.h.outbox).len()).sum()
    }

    /// Shard workers supervision respawned.
    pub fn worker_restarts(&self) -> u64 {
        self.worker_restarts.get()
    }

    /// Sends a panic to a shard's worker.
    #[cfg(test)]
    pub(crate) fn inject_panic(&self, shard: usize) {
        let _ = lock(&self.shards[shard].link).tx.send(Msg::Panic);
    }

    /// Stops and joins every worker. Returns the worker panics captured
    /// over the core's lifetime — by supervision or by this join.
    pub fn shutdown(&self) -> Vec<(usize, String)> {
        for (i, shard) in self.shards.iter().enumerate() {
            let mut link = lock(&shard.link);
            let _ = link.tx.send(Msg::Shutdown);
            if let Some(Err(panic)) = link.handle.take().map(JoinHandle::join) {
                self.record_panic(i, panic);
            }
        }
        std::mem::take(&mut *lock(&self.panic_log))
    }
}

impl Drop for ShardCore {
    fn drop(&mut self) {
        // Ends each worker's recv loop; detach rather than join so a
        // panicking test does not deadlock on its own shards.
        for shard in &self.shards {
            let _ = lock(&shard.link).tx.send(Msg::Shutdown);
        }
    }
}
