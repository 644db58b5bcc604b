//! Sharded online detection service: the ROADMAP's "heavy traffic" serving
//! layer around [`OnlineUcad`]'s single-threaded deployment loop.
//!
//! [`ShardedOnlineUcad`] is the single-route front of the shard worker core
//! ([`crate::serve_core`]), which `ucad-tenant`'s pool shares. Records are
//! routed by a seeded hash of their `session_id` onto `N` shards, each a
//! worker `std::thread` owning one session partition (a [`SessionTracker`],
//! the same engine [`OnlineUcad`] runs on) behind a bounded queue. Because
//! sessions are partitioned — never split across shards — and every scoring
//! discipline is a pure function of a session's own record sequence, the
//! alert *set* is independent of the shard count and of worker timing.
//! Ordering is restored at drain time: every record carries a global arrival
//! sequence number, an alert inherits the sequence number of the record that
//! triggered it, and [`ShardedOnlineUcad::drain_alerts`] flushes all queues
//! and sorts by that number. The result: N-shard output is byte-identical to
//! the single-threaded path.
//!
//! Two levers trade latency for throughput:
//!
//! * **Batched scoring** ([`DetectionMode::Block`]): instead of one forward
//!   pass per operation, a shard defers scoring until a full model window of
//!   positions has arrived and scores the whole window in one pass (~`L`x
//!   fewer forwards); session close scores the tail. Streaming mode keeps
//!   the paper-exact per-operation rule and matches [`OnlineUcad`] alert for
//!   alert.
//! * **Score memoization** ([`ScoreCache`]): a shared LRU keyed by the exact
//!   padded key window. Production sessions draw from 1–2 workflows, so
//!   windows recur across sessions and shards; a hit skips the forward pass
//!   entirely and is bit-identical to computing it.
//!
//! # Fault tolerance
//!
//! A worker thread that panics mid-stream does **not** take its partition
//! down. Every accepted operation is first appended to a per-shard in-memory
//! replay ring on the front side of the channel, together with its route
//! (the model it was submitted under), and the worker publishes a
//! processed-operation watermark as it goes. When the engine notices a dead
//! worker — a failed channel send, or the liveness check every
//! [`ShardedOnlineUcad::flush`] performs — it *supervises* the shard: the
//! panic is captured and counted, the ring is replayed into a fresh
//! [`SessionTracker`] (entries below the watermark rebuild state silently;
//! entries above it — the operations the crash ate — are processed for real,
//! alerts, metrics and all, under the model they were submitted against),
//! and a new worker is spawned on the rebuilt tracker. The restarted shard
//! is byte-identical to one that never crashed: no accepted record is lost,
//! no record is scored twice, and drained alerts keep their global sequence
//! order. Deterministic crash and overload scenarios can be injected with
//! `ucad-fault` (the `UCAD_FAULTS` environment variable); the chaos wall in
//! `tests/chaos_serve.rs` holds these invariants under seeded fault plans.
//!
//! # Durability and crash recovery
//!
//! The in-memory protection above heals *thread* deaths; a
//! [`DurabilityConfig`] extends it to *process* deaths. Every accepted
//! operation is then also appended — before its send — to a per-shard
//! segmented on-disk log (`ucad-wal`: CRC-framed records, fsync batching,
//! rotation), and periodic snapshots of each shard's session state bound
//! replay length and drive segment truncation. After a `kill -9`,
//! [`ShardedOnlineUcad::recover`] (or [`ShardedOnlineUcad::try_new_durable`]
//! on the same directory) reopens the logs, restores the newest intact
//! snapshot, replays the durable suffix, and resumes — producing the exact
//! alert stream a crash-free run would have. Replay is at-least-once by
//! construction (an alert delivered by [`ShardedOnlineUcad::drain_alerts`]
//! just before the crash is re-raised); the drain boundary makes it
//! exactly-once by logging a durable marker naming every delivered alert
//! sequence and filtering those out forever. `tests/crash_recovery.rs`
//! holds the byte-identity guarantee under a wall of injected
//! process-crash points.
//!
//! When a shard queue saturates, [`OverloadPolicy`] picks the failure mode:
//! block the submitter (default, lossless backpressure), shed the newest
//! record (typed [`SubmitOutcome::Shed`], counted), or degrade — score the
//! record caller-side with a cheap [`NgramLm`] fallback and tag any alert it
//! raises `degraded: true` for a second look once the overload clears.
//!
//! [`OnlineUcad`]: crate::online::OnlineUcad
//! [`SessionTracker`]: crate::online::SessionTracker

use crate::online::{Alert, AlertReason, ServeObserver, TrackerState};
use crate::serve_core::{lock, Op, OutboxAlert, Route, RoutedOp, ShardCore, ShardSeries, Trackers};
use crate::system::Ucad;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use ucad_baselines::NgramLm;
use ucad_dbsim::LogRecord;
use ucad_model::{CacheStats, DetectionMode, ScoreCache, TransDas, UcadError};
use ucad_obs::{
    latency_log_bounds, Counter, FlightEntry, FlightRecorder, Gauge, Histogram, MetricKind,
    Registry,
};
use ucad_wal::{SegmentedWal, SnapshotStore, WalMetrics, WalOptions};

/// The engine's one route serves tenant 0 (routing salt 0).
const TENANT: u64 = 0;

/// What the engine does when a record arrives for a shard whose queue is
/// full (or whose saturation is forced by an armed `ucad-fault` plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the submitter until the shard catches up — lossless
    /// backpressure, the historical behavior.
    #[default]
    Block,
    /// Drop the newest record. The submitter gets [`SubmitOutcome::Shed`]
    /// and `ucad_serve_records_shed_total` counts the loss; the shed record
    /// never reaches a tracker, so its session's later context simply skips
    /// it.
    ShedNewest,
    /// Score the record caller-side with the cheap n-gram fallback instead
    /// of the full Trans-DAS path. Alerts raised this way carry
    /// `degraded: true`. Requires a fitted [`NgramLm`] at construction
    /// ([`ShardedOnlineUcad::try_new_full`]).
    Degrade,
}

/// What happened to one submitted record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitOutcome {
    /// The record reached its shard (directly, or via supervision replay
    /// when the shard's worker had died) and will be scored by the full
    /// model path.
    Accepted,
    /// The shard was saturated under [`OverloadPolicy::ShedNewest`]; the
    /// record was dropped.
    Shed,
    /// The shard was saturated under [`OverloadPolicy::Degrade`]; the
    /// record was scored by the n-gram fallback instead.
    Degraded,
}

/// Configuration of the sharded serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker shards (>= 1).
    pub shards: usize,
    /// Bound of each shard's record queue; submission blocks when the
    /// owning shard is this far behind (backpressure).
    pub queue_capacity: usize,
    /// Capacity of the shared score memo in windows; 0 disables caching.
    pub cache_capacity: usize,
    /// Scoring discipline. `Streaming` is paper-exact and alert-for-alert
    /// identical to [`crate::OnlineUcad`]; `Block` batches scoring into
    /// one forward pass per model window.
    pub mode: DetectionMode,
    /// Seed of the session-to-shard hash, so shard assignment (and with it
    /// queue interleaving) is reproducible run to run.
    pub seed: u64,
    /// Capacity of the flight recorder's alert ring buffer; 0 disables
    /// flight recording.
    pub flight_capacity: usize,
    /// What to do with a record whose shard queue is full.
    pub overload: OverloadPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            cache_capacity: 256,
            mode: DetectionMode::Streaming,
            seed: 0x5EED,
            flight_capacity: 256,
            overload: OverloadPolicy::Block,
        }
    }
}

impl ServeConfig {
    /// Fluent builder starting from [`ServeConfig::default`].
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Rejects the structurally invalid configurations every front refuses.
    pub fn validate(&self) -> Result<(), UcadError> {
        if self.shards == 0 {
            return Err(UcadError::invalid("shards", "at least one shard required"));
        }
        if self.queue_capacity == 0 {
            return Err(UcadError::invalid(
                "queue_capacity",
                "a zero-capacity queue would deadlock submission",
            ));
        }
        Ok(())
    }
}

/// Builder for [`ServeConfig`]; validates on [`ServeConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the worker shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Sets the per-shard queue bound.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.cfg.queue_capacity = queue_capacity;
        self
    }

    /// Sets the score-memo capacity (0 disables caching).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cfg.cache_capacity = cache_capacity;
        self
    }

    /// Sets the scoring discipline.
    pub fn mode(mut self, mode: DetectionMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the shard-routing hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the flight-recorder ring capacity (0 disables flight recording).
    pub fn flight_capacity(mut self, flight_capacity: usize) -> Self {
        self.cfg.flight_capacity = flight_capacity;
        self
    }

    /// Sets the overload policy for saturated shard queues.
    pub fn overload(mut self, overload: OverloadPolicy) -> Self {
        self.cfg.overload = overload;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServeConfig, UcadError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Where and how the engine persists its state. Passed to
/// [`ShardedOnlineUcad::try_new_durable`] / [`ShardedOnlineUcad::recover`];
/// engines built without one keep the historical in-memory-only fault
/// tolerance (thread supervision, no process-crash recovery).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of the durable state: `meta/` (routing config, drain
    /// markers, epoch cuts) plus `shard-N/wal/` and `shard-N/snap/` per
    /// shard.
    pub dir: PathBuf,
    /// Segment rotation threshold for the per-shard logs, in bytes.
    pub segment_max_bytes: u64,
    /// Fsync batching for the per-shard logs: sync after every N appends
    /// (1 = every record, strongest; 0 = only at barriers — drains,
    /// snapshots, shutdown). The meta log always syncs per record: drain
    /// markers are the exactly-once boundary and must never be lost.
    pub fsync_every: u64,
    /// Automatically snapshot every shard (and truncate the logs) once this
    /// many operations have been appended since the last snapshot, checked
    /// at drain time. 0 = automatic snapshots off; explicit
    /// [`ShardedOnlineUcad::snapshot`] calls and model swaps still snapshot.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default knobs: 1 MiB segments,
    /// fsync on every append, no automatic snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            fsync_every: 1,
            snapshot_every: 0,
        }
    }

    /// Sets the segment rotation threshold in bytes.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the fsync batch size for the per-shard logs.
    pub fn fsync_every(mut self, appends: u64) -> Self {
        self.fsync_every = appends;
        self
    }

    /// Sets the automatic snapshot cadence in appends (0 disables).
    pub fn snapshot_every(mut self, appends: u64) -> Self {
        self.snapshot_every = appends;
        self
    }
}

/// Counter snapshot of a running engine (or, through `ucad-net`, of a
/// remote daemon — the struct crosses the wire as JSON).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Records accepted per shard (indexed by shard id).
    pub records_per_shard: Vec<u64>,
    /// Alerts currently buffered, awaiting [`ShardedOnlineUcad::drain_alerts`].
    pub pending_alerts: usize,
    /// Score-memo counters; `None` when caching is disabled.
    pub cache: Option<CacheStats>,
    /// Records dropped under [`OverloadPolicy::ShedNewest`].
    pub records_shed: u64,
    /// Records scored by the n-gram fallback under
    /// [`OverloadPolicy::Degrade`].
    pub records_degraded: u64,
    /// Shard workers respawned by supervision after a panic.
    pub worker_restarts: u64,
}

impl ServeStats {
    /// Total records accepted across shards.
    pub fn records(&self) -> u64 {
        self.records_per_shard.iter().sum()
    }
}

/// Everything handed back when the engine shuts down.
pub struct ShutdownReport {
    /// The wrapped system (for persistence or fine-tuning).
    pub system: Ucad,
    /// Alerts raised since the last drain, in arrival order.
    pub alerts: Vec<Alert>,
    /// Verified-normal sessions accumulated by the workers' feedback
    /// buffers (grouped by shard), ready for the next fine-tuning round.
    pub verified_normals: Vec<Vec<u32>>,
    /// Worker threads that died of a panic, as `(shard id, panic message)`
    /// — captured by supervision mid-run or by the final join. A panicked
    /// shard loses nothing: supervision replays the shard's ring, so
    /// alerts, feedback and record counts match a crash-free run.
    pub worker_panics: Vec<(usize, String)>,
    /// Shard workers supervision respawned over the engine's lifetime.
    pub worker_restarts: u64,
    /// The flight recorder's resident entries (per-alert diagnostics),
    /// oldest first.
    pub flight: Vec<FlightEntry>,
}

/// One durable (on-disk) log record of a shard, JSON-encoded inside the
/// WAL's CRC frame. The disk form of an [`Op`], with two differences:
/// entries carry their model epoch inline, and a refused send cannot *pop*
/// an already-written entry — it appends a [`DurableEntry::Revoke`] instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum DurableEntry {
    /// An accepted record with its global arrival sequence number and the
    /// model epoch it was submitted under.
    Record {
        seq: u64,
        epoch: u64,
        record: LogRecord,
    },
    /// A session close.
    Close { session_id: u64, epoch: u64 },
    /// A false-alarm confirmation.
    FalseAlarm { session_id: u64, epoch: u64 },
    /// Cancels the immediately preceding entry: its send was refused (shed
    /// or degraded), so replay must not score it. Always directly follows
    /// the entry it cancels — the engine appends it in the same submission.
    Revoke,
}

/// One record of the engine-global meta log (`dir/meta`), which is never
/// truncated and always fsynced per append.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum MetaEntry {
    /// Written once when a durable directory is first initialized; recovery
    /// rejects an engine whose routing (shard count, seed) or scoring
    /// discipline differs, since shard logs would no longer line up.
    Config {
        shards: usize,
        seed: u64,
        mode: DetectionMode,
    },
    /// A completed [`ShardedOnlineUcad::drain_alerts`]: the global sequence
    /// counter at the drain and the alert seqs handed to the caller. Replay
    /// filters these out forever — the exactly-once boundary.
    Drain { next_seq: u64, delivered: Vec<u64> },
    /// A completed model hot-swap; recovery resumes at the highest epoch.
    Epoch { epoch: u64 },
}

/// A durable snapshot of one shard's full serving state, committed
/// atomically via the shard's [`SnapshotStore`]. Recovery restores the
/// newest intact snapshot and replays only the durable entries at or after
/// `wal_idx`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardSnapshot {
    /// Durable log index the snapshot covers up to (exclusive).
    wal_idx: u64,
    /// Model epoch at snapshot time.
    epoch: u64,
    /// Global sequence counter at snapshot time.
    next_seq: u64,
    /// Cumulative effective (non-revoked) durable operations folded into
    /// this snapshot — the resume watermark for a replaying driver.
    ops: u64,
    /// The shard tracker's exported session state.
    tracker: TrackerState,
    /// Alerts raised but not yet drained at snapshot time.
    outbox: Vec<(u64, Alert)>,
    /// Verified-normal feedback not yet drained at snapshot time.
    feedback: Vec<Vec<u32>>,
}

fn encode_json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("durable serve records serialize infallibly")
        .into_bytes()
}

fn decode_json<T: Deserialize>(payload: &[u8], origin: &str) -> Result<T, UcadError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| UcadError::corrupt(origin, "durable record is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| UcadError::corrupt(origin, format!("durable record does not parse: {e}")))
}

/// The durable half of one shard: its segmented log and snapshot store.
struct ShardDurable {
    wal: SegmentedWal,
    snaps: SnapshotStore,
    /// Effective (non-revoked) durable operations this shard has logged or
    /// folded into snapshots, over the directory's whole lifetime.
    ops: u64,
    /// `wal_idx` of the previous retained snapshot: segments wholly below
    /// it are unreachable even if the newest snapshot turns out damaged
    /// (the store keeps two), so they are truncated at the next snapshot.
    last_snap: u64,
}

/// Everything behind a [`DurabilityConfig`]: the meta log, the per-shard
/// logs and snapshot stores, and the delivered-alert filter.
struct DurableState {
    cfg: DurabilityConfig,
    meta: SegmentedWal,
    shards: Vec<ShardDurable>,
    /// Alert seqs already handed to a caller by a recorded drain; replayed
    /// duplicates of these are filtered at the next drain.
    delivered: HashSet<u64>,
    /// Shard-log appends since the last snapshot round, for the automatic
    /// snapshot cadence.
    appends_since_snapshot: u64,
}

/// Per-session shadow state the engine keeps under
/// [`OverloadPolicy::Degrade`], fed on every submit so the fallback model
/// has full context when saturation forces it to score.
#[derive(Default)]
struct DegradeShadow {
    keys: Vec<u32>,
    alerted: bool,
}

struct DegradeState {
    lm: NgramLm,
    sessions: HashMap<u64, DegradeShadow>,
}

/// The sharded, memoizing, self-healing serving engine. See the module docs
/// for the architecture, the determinism guarantee and the fault-tolerance
/// protocol.
///
/// Every engine owns its own metrics [`Registry`] (exposed via
/// [`ShardedOnlineUcad::registry`] / [`ShardedOnlineUcad::render_metrics`]),
/// so concurrent engines — common in tests — never pollute each other's
/// counters. [`ServeStats`] and [`CacheStats`] are views over the same
/// registry cells, so snapshots and the Prometheus exposition always agree.
pub struct ShardedOnlineUcad {
    /// The route every submission carries: the serving system, the shared
    /// score memo and the observer. A hot swap replaces it.
    route: Arc<Route>,
    core: ShardCore,
    registry: Arc<Registry>,
    flight: Arc<FlightRecorder>,
    degrade: Option<DegradeState>,
    records_shed: Counter,
    records_degraded: Counter,
    swaps: Counter,
    epoch_gauge: Gauge,
    /// Durable-WAL append stage latency (`ucad_latency_wal_append_seconds`)
    /// — observed on the submit path of durable engines only.
    wal_append_latency: Histogram,
    /// Raised-to-drained alert delay (`ucad_latency_drain_delay_seconds`),
    /// observed for every delivered alert at drain time.
    drain_delay_latency: Histogram,
    cfg: ServeConfig,
    next_seq: u64,
    /// Model epoch: 0 for the model the engine started with, +1 per
    /// completed [`ShardedOnlineUcad::swap_model`].
    epoch: u64,
    /// Durable state; `None` for in-memory-only engines.
    durable: Option<DurableState>,
}

impl ShardedOnlineUcad {
    /// Wraps a trained system and spawns the worker shards.
    ///
    /// # Panics
    /// Panics when `cfg.shards` is zero. Use
    /// [`ShardedOnlineUcad::try_new`] to handle invalid configurations
    /// without panicking.
    pub fn new(system: Ucad, cfg: ServeConfig) -> Self {
        Self::try_new(system, cfg).expect("invalid serve configuration")
    }

    /// Fallible constructor: rejects structurally invalid configurations
    /// with an [`UcadError`] instead of panicking.
    pub fn try_new(system: Ucad, cfg: ServeConfig) -> Result<Self, UcadError> {
        Self::try_new_full(system, cfg, None, None)
    }

    /// Like [`ShardedOnlineUcad::try_new`], additionally attaching a
    /// [`ServeObserver`] whose hooks run inline on the shard workers for
    /// every record, score, alert and session close — the feed a drift
    /// monitor subscribes to.
    pub fn try_new_observed(
        system: Ucad,
        cfg: ServeConfig,
        observer: Option<Arc<dyn ServeObserver>>,
    ) -> Result<Self, UcadError> {
        Self::try_new_full(system, cfg, observer, None)
    }

    /// Full constructor: observer plus the degraded-mode fallback model.
    /// [`OverloadPolicy::Degrade`] requires a *fitted* [`NgramLm`]
    /// (typically trained on the same sessions as the serving model);
    /// passing none — or an unfitted one — under that policy is rejected.
    pub fn try_new_full(
        system: Ucad,
        cfg: ServeConfig,
        observer: Option<Arc<dyn ServeObserver>>,
        fallback: Option<NgramLm>,
    ) -> Result<Self, UcadError> {
        Self::construct(system, cfg, observer, fallback, None)
    }

    /// Durable constructor: like [`ShardedOnlineUcad::try_new_full`], with
    /// every accepted operation appended to an on-disk WAL under
    /// `durability.dir` *before* it is sent to a shard (see the module's
    /// *Durability* section). On a fresh directory this starts a new
    /// durable engine; on a directory with prior state it performs full
    /// crash recovery first — same shard routing and scoring discipline
    /// required — and resumes exactly where the durable log ends.
    pub fn try_new_durable(
        system: Ucad,
        cfg: ServeConfig,
        observer: Option<Arc<dyn ServeObserver>>,
        fallback: Option<NgramLm>,
        durability: DurabilityConfig,
    ) -> Result<Self, UcadError> {
        Self::construct(system, cfg, observer, fallback, Some(durability))
    }

    /// Recovers (or freshly creates) a durable engine from
    /// `durability.dir`: restores the newest intact snapshot of every
    /// shard, replays the durable log suffix — re-raising every alert whose
    /// delivery was never recorded — and resumes accepting records. The
    /// caller provides the serving system: models are not persisted here,
    /// so train deterministically or load a `ucad-life` checkpoint.
    /// Equivalent to [`ShardedOnlineUcad::try_new_durable`] without
    /// observer or fallback.
    pub fn recover(
        system: Ucad,
        cfg: ServeConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, UcadError> {
        Self::try_new_durable(system, cfg, None, None, durability)
    }

    fn construct(
        system: Ucad,
        cfg: ServeConfig,
        observer: Option<Arc<dyn ServeObserver>>,
        fallback: Option<NgramLm>,
        durability: Option<DurabilityConfig>,
    ) -> Result<Self, UcadError> {
        if cfg.shards == 0 {
            return Err(UcadError::invalid("shards", "at least one shard required"));
        }
        let mut degrade = match (cfg.overload, fallback) {
            (OverloadPolicy::Degrade, Some(lm)) if lm.is_fitted() => Some(DegradeState {
                lm,
                sessions: HashMap::new(),
            }),
            (OverloadPolicy::Degrade, _) => {
                return Err(UcadError::invalid(
                    "overload",
                    "the Degrade policy requires a fitted NgramLm fallback",
                ));
            }
            _ => None,
        };
        let system = Arc::new(system);
        let cache = (cfg.cache_capacity > 0).then(|| Arc::new(ScoreCache::new(cfg.cache_capacity)));
        let registry = Arc::new(Registry::new());
        for (name, kind, help) in [
            (
                "ucad_latency_wal_append_seconds",
                MetricKind::Histogram,
                "Durable WAL append latency on the submit path",
            ),
            (
                "ucad_latency_drain_delay_seconds",
                MetricKind::Histogram,
                "Delay between an alert being raised and the drain that delivered it",
            ),
            (
                "ucad_serve_records_shed_total",
                MetricKind::Counter,
                "Records dropped by the ShedNewest overload policy",
            ),
            (
                "ucad_serve_records_degraded_total",
                MetricKind::Counter,
                "Records scored by the degraded-mode fallback instead of the model",
            ),
            (
                "ucad_serve_swaps_total",
                MetricKind::Counter,
                "Completed model hot-swaps",
            ),
            (
                "ucad_serve_model_epoch",
                MetricKind::Gauge,
                "Model epoch currently serving (0 = the model the engine started with)",
            ),
            (
                "ucad_wal_segments_total",
                MetricKind::Counter,
                "Durable WAL segment files opened for appending",
            ),
            (
                "ucad_wal_fsyncs_total",
                MetricKind::Counter,
                "Durable WAL fsync barriers issued",
            ),
            (
                "ucad_wal_appends_total",
                MetricKind::Counter,
                "Records appended to the durable WAL",
            ),
            (
                "ucad_wal_replayed_records_total",
                MetricKind::Counter,
                "Durable WAL records replayed during crash recovery",
            ),
            (
                "ucad_serve_recoveries_total",
                MetricKind::Counter,
                "Engine constructions that recovered prior durable state",
            ),
        ] {
            registry.describe(name, kind, help);
        }
        let flight = Arc::new(FlightRecorder::new(cfg.flight_capacity));
        flight.register_metrics(&registry);
        if let Some(cache) = &cache {
            cache.register_metrics(&registry, &[]);
        }
        let records_shed = registry.counter("ucad_serve_records_shed_total", &[]);
        let records_degraded = registry.counter("ucad_serve_records_degraded_total", &[]);
        let swaps = registry.counter("ucad_serve_swaps_total", &[]);
        let epoch_gauge = registry.gauge("ucad_serve_model_epoch", &[]);
        // Stage-latency histograms: registered unconditionally (a
        // zero-count histogram still exposes its bucket series) and
        // pre-fetched here so no hot path touches the registry mutex.
        let wal_append_latency =
            registry.histogram("ucad_latency_wal_append_seconds", &[], latency_log_bounds());
        let drain_delay_latency = registry.histogram(
            "ucad_latency_drain_delay_seconds",
            &[],
            latency_log_bounds(),
        );
        let wal_metrics = WalMetrics {
            segments: registry.counter("ucad_wal_segments_total", &[]),
            fsyncs: registry.counter("ucad_wal_fsyncs_total", &[]),
            appends: registry.counter("ucad_wal_appends_total", &[]),
        };
        let replayed_records = registry.counter("ucad_wal_replayed_records_total", &[]);
        let recoveries = registry.counter("ucad_serve_recoveries_total", &[]);

        // Durable pre-pass: open the meta log and learn what a prior engine
        // life left behind (routing config to validate, delivered-alert
        // seqs for the exactly-once filter, the epoch to resume at).
        let mut next_seq = 0u64;
        let mut recovered_epoch = 0u64;
        let mut prior_state = false;
        let mut delivered: HashSet<u64> = HashSet::new();
        let mut meta: Option<SegmentedWal> = None;
        if let Some(dcfg) = &durability {
            let meta_dir = dcfg.dir.join("meta");
            let meta_origin = meta_dir.display().to_string();
            let meta_opts = WalOptions {
                // Never truncated and tiny: one segment per directory
                // lifetime is plenty, so rotation is effectively off.
                segment_max_bytes: u64::MAX,
                fsync_every: 1,
            };
            let (mut wal, rec) = SegmentedWal::open(meta_dir, meta_opts, wal_metrics.clone())?;
            for payload in &rec.entries {
                match decode_json::<MetaEntry>(payload, &meta_origin)? {
                    MetaEntry::Config { shards, seed, mode } => {
                        prior_state = true;
                        if shards != cfg.shards || seed != cfg.seed || mode != cfg.mode {
                            return Err(UcadError::invalid(
                                "durability",
                                format!(
                                    "directory was written with shards={shards}, seed={seed}, \
                                     mode={mode:?}; recovery requires the same shard routing \
                                     and scoring discipline (got shards={}, seed={}, mode={:?})",
                                    cfg.shards, cfg.seed, cfg.mode
                                ),
                            ));
                        }
                    }
                    MetaEntry::Drain {
                        next_seq: at,
                        delivered: seqs,
                    } => {
                        next_seq = next_seq.max(at);
                        delivered.extend(seqs);
                    }
                    MetaEntry::Epoch { epoch } => recovered_epoch = recovered_epoch.max(epoch),
                }
            }
            if !prior_state {
                wal.append(&encode_json(&MetaEntry::Config {
                    shards: cfg.shards,
                    seed: cfg.seed,
                    mode: cfg.mode,
                }))?;
            }
            meta = Some(wal);
        }

        // Recovery replays with the caller's system but without cache or
        // observer: recovery is rare, a memoized score is bit-identical to
        // a computed one, and the observer's feed is per engine life.
        let recovery_route = Route::new(TENANT, Arc::clone(&system), None, None, None, None);
        let mut shard_durables: Vec<ShardDurable> = Vec::with_capacity(cfg.shards);
        let mut total_replayed = 0u64;
        let series = ShardSeries {
            records: "ucad_serve_records_total",
            alerts: Some("ucad_serve_alerts_total"),
        };
        let core = ShardCore::build(&cfg, &registry, &flight, series, |h| {
            let mut trackers = Trackers::new(cfg.mode);
            let Some(dcfg) = &durability else {
                return Ok(trackers);
            };
            // Shards are built in index order, each pushing one durable half.
            let i = shard_durables.len();
            let shard_dir = dcfg.dir.join(format!("shard-{i}"));
            let origin = shard_dir.display().to_string();
            let shard_opts = WalOptions {
                segment_max_bytes: dcfg.segment_max_bytes,
                fsync_every: dcfg.fsync_every,
            };
            let (wal, rec) =
                SegmentedWal::open(shard_dir.join("wal"), shard_opts, wal_metrics.clone())?;
            let snaps = SnapshotStore::open(shard_dir.join("snap"))?;
            let mut ops = 0u64;
            let mut from_idx = rec.first_idx;
            if let Some((snap_seq, payload)) = snaps.load_latest()? {
                let snap: ShardSnapshot = decode_json(&payload, &origin)?;
                prior_state = true;
                trackers = Trackers::import(cfg.mode, vec![(TENANT, snap.tracker)]);
                // Restored alerts lost their raise instant with the process
                // that raised them: no drain-delay attribution.
                *lock(&h.outbox) = snap
                    .outbox
                    .into_iter()
                    .map(|(seq, alert)| OutboxAlert {
                        seq,
                        tenant: TENANT,
                        raised_at: None,
                        alert,
                    })
                    .collect();
                *lock(&h.feedback) = snap.feedback.into_iter().map(|k| (TENANT, k)).collect();
                next_seq = next_seq.max(snap.next_seq);
                recovered_epoch = recovered_epoch.max(snap.epoch);
                ops = snap.ops;
                from_idx = snap_seq;
            }
            // Decode the durable suffix and drop revoked pairs. A `Revoke`
            // always directly follows the entry it cancels and never
            // straddles a snapshot cut (both are appended in one submission,
            // snapshots only between submissions), so a simple pop suffices.
            let mut effective: Vec<Op> = Vec::new();
            for (off, payload) in rec.entries.iter().enumerate() {
                if rec.first_idx + (off as u64) < from_idx {
                    continue;
                }
                match decode_json::<DurableEntry>(payload, &origin)? {
                    DurableEntry::Revoke => {
                        effective.pop();
                    }
                    DurableEntry::Record { seq, record, .. } => {
                        effective.push(Op::Record(Arc::new(record), seq))
                    }
                    DurableEntry::Close { session_id, .. } => effective.push(Op::Close(session_id)),
                    DurableEntry::FalseAlarm { session_id, .. } => {
                        effective.push(Op::FalseAlarm(session_id))
                    }
                }
            }
            prior_state |= !effective.is_empty();
            // Replay the suffix into the tracker, alerts and all.
            for op in effective {
                if let Op::Record(_, seq) = op {
                    next_seq = next_seq.max(seq + 1);
                }
                ops += 1;
                replayed_records.inc();
                total_replayed += 1;
                let op = RoutedOp {
                    route: Arc::clone(&recovery_route),
                    op,
                };
                h.apply(&mut trackers, &op, true, 0, None);
            }
            // The rebuilt state becomes the supervision base (the ring
            // restarts empty) and refeeds the degraded-mode shadows, so
            // every post-recovery path has context.
            let states = trackers.export();
            if let Some(dstate) = degrade.as_mut() {
                for s in states.iter().flat_map(|(_, state)| &state.sessions) {
                    dstate.sessions.insert(
                        s.session.id,
                        DegradeShadow {
                            keys: s.keys.clone(),
                            alerted: s.alerted,
                        },
                    );
                }
            }
            h.rebase(states);
            shard_durables.push(ShardDurable {
                wal,
                snaps,
                ops,
                last_snap: from_idx,
            });
            Ok(trackers)
        })?;
        let durable = durability.map(|dcfg| DurableState {
            cfg: dcfg,
            meta: meta.expect("meta log opened whenever durability is configured"),
            shards: shard_durables,
            delivered,
            appends_since_snapshot: 0,
        });
        epoch_gauge.set(recovered_epoch as f64);
        if prior_state {
            recoveries.inc();
            ucad_obs::event(
                "serve.recovery",
                &[
                    ("replayed", total_replayed.to_string()),
                    ("epoch", recovered_epoch.to_string()),
                    ("next_seq", next_seq.to_string()),
                ],
            );
        }
        Ok(ShardedOnlineUcad {
            route: Route::new(TENANT, system, cache, observer, None, None),
            core,
            registry,
            flight,
            degrade,
            records_shed,
            records_degraded,
            swaps,
            epoch_gauge,
            wal_append_latency,
            drain_delay_latency,
            cfg,
            next_seq,
            epoch: recovered_epoch,
            durable,
        })
    }

    /// Read access to the wrapped system.
    pub fn system(&self) -> &Ucad {
        &self.route.system
    }

    /// The shard a session routes to.
    pub fn shard_of(&self, session_id: u64) -> usize {
        self.core.shard_of(0, session_id)
    }

    /// Routes one audit record to its session's shard. What happens when
    /// that shard's queue is full depends on [`ServeConfig::overload`]:
    /// `Block` waits (lossless backpressure), `ShedNewest` drops the
    /// record, `Degrade` scores it with the n-gram fallback. A dead worker
    /// is healed in place (see the module docs); the record is then
    /// accounted through replay, never lost. Alerts surface through
    /// [`ShardedOnlineUcad::drain_alerts`], not the submission path.
    ///
    /// A failed durable append (injected I/O faults, disk errors) surfaces
    /// as `Err` and the record reaches no shard — the engine stays
    /// consistent and the caller may retry. In-memory engines never error.
    pub fn try_submit(&mut self, record: &LogRecord) -> Result<SubmitOutcome, UcadError> {
        self.try_submit_at(record, self.next_seq)
    }

    /// [`ShardedOnlineUcad::try_submit`] under a caller-assigned global
    /// arrival sequence number. This is the multi-process hook: a router
    /// that partitions one logical stream across several daemon-owned
    /// engines assigns each record its global seq and ships it with the
    /// record, so every engine tags alerts with stream-global — not
    /// engine-local — sequence numbers and the merged drain stays
    /// byte-identical to a single engine ingesting the whole stream.
    ///
    /// `seq` must normally be at least the engine's next unassigned
    /// sequence (the seqs an engine sees are a strictly increasing
    /// subsequence of the global stream). A `seq` *below* that watermark is
    /// acked as [`SubmitOutcome::Accepted`] with **no** side effect: the
    /// engine has already consumed that position, so the only legitimate
    /// sender is a router resubmitting after a lost ack — a connection died
    /// between the engine consuming the record (and, when durable, logging
    /// it) and the response reaching the client. Deduplicating here is what
    /// makes the router's reconnect-and-resubmit idempotent, and it holds
    /// across process death because recovery restores the watermark from
    /// the durable log (see [`ShardedOnlineUcad::seq_watermark`]). The
    /// sequence is consumed whatever the outcome — shed and degraded
    /// records hold their position in the global order, exactly as
    /// in-process submission does.
    pub fn try_submit_at(
        &mut self,
        record: &LogRecord,
        seq: u64,
    ) -> Result<SubmitOutcome, UcadError> {
        if seq < self.next_seq {
            // Already consumed: a resubmit of a settled position. Ack it
            // without touching any shard — processing it again would
            // duplicate the record in the WAL, the shadow feed and the
            // alert stream.
            return Ok(SubmitOutcome::Accepted);
        }
        self.next_seq = seq + 1;
        let i = self.shard_of(record.session_id);
        // Durability first: append-before-send. If the append errors the
        // record is dropped whole (no shadow feed, no ring entry).
        let wal_timer = self.durable.is_some().then(Instant::now);
        self.append_durable(
            i,
            &DurableEntry::Record {
                seq,
                epoch: self.epoch,
                record: record.clone(),
            },
        )?;
        if let Some(t) = wal_timer {
            self.wal_append_latency.observe(t.elapsed().as_secs_f64());
        }
        if let Some(state) = self.degrade.as_mut() {
            // Shadow context: the fallback needs the session's full key
            // sequence even for records the real path scored.
            let key = self.route.system.preprocessor.vocab.key_of_sql(&record.sql);
            state
                .sessions
                .entry(record.session_id)
                .or_default()
                .keys
                .push(key);
        }
        let op = Op::Record(Arc::new(record.clone()), seq);
        if self.submit(i, op, self.cfg.overload) {
            return Ok(SubmitOutcome::Accepted);
        }
        // Saturated: the record reached no shard. The durable entry cannot
        // pop; a paired Revoke marker cancels it for recovery replay.
        self.revoke_durable(i);
        Ok(match self.cfg.overload {
            OverloadPolicy::ShedNewest => {
                self.records_shed.inc();
                SubmitOutcome::Shed
            }
            OverloadPolicy::Degrade => self.degrade_score(i, record, seq),
            OverloadPolicy::Block => unreachable!("Block never refuses"),
        })
    }

    fn submit(&self, i: usize, op: Op, overload: OverloadPolicy) -> bool {
        let route = Arc::clone(&self.route);
        self.core.submit(i, RoutedOp { route, op }, overload)
    }

    /// Appends one entry to shard `i`'s durable log (a no-op for in-memory
    /// engines), maintaining the effective-operation count and the
    /// automatic-snapshot cadence.
    fn append_durable(&mut self, i: usize, entry: &DurableEntry) -> Result<(), UcadError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        d.shards[i].wal.append(&encode_json(entry))?;
        d.shards[i].ops += 1;
        d.appends_since_snapshot += 1;
        Ok(())
    }

    /// Cancels the just-appended durable entry of shard `i` after its send
    /// was refused (shed or degraded record). The on-disk log cannot pop,
    /// so a paired [`DurableEntry::Revoke`] is appended; replay drops the
    /// pair. If even the Revoke append fails (injected I/O faults only),
    /// the record stays durable and a later recovery would score a record
    /// the live run refused — surfaced as an event, never a panic.
    fn revoke_durable(&mut self, i: usize) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        match d.shards[i].wal.append(&encode_json(&DurableEntry::Revoke)) {
            Ok(_) => d.shards[i].ops = d.shards[i].ops.saturating_sub(1),
            Err(e) => ucad_obs::event(
                "serve.wal_revoke_failed",
                &[("shard", i.to_string()), ("error", e.to_string())],
            ),
        }
    }

    /// Scores a saturated-out record with the n-gram fallback, booking a
    /// `degraded: true` alert into the shard's outbox (under the record's
    /// global sequence number, so drained ordering is preserved) when the
    /// transition is abnormal and the session has not alerted degraded
    /// before. Degraded verdicts skip the flight recorder — no rank, score
    /// or key window exists for them.
    fn degrade_score(&mut self, i: usize, record: &LogRecord, seq: u64) -> SubmitOutcome {
        self.records_degraded.inc();
        let state = self.degrade.as_mut().expect("Degrade policy implies state");
        let shadow = state
            .sessions
            .get_mut(&record.session_id)
            .expect("shadow fed on every submit");
        let t = shadow.keys.len() - 1;
        let key = shadow.keys[t];
        let abnormal = !state.lm.transition_allowed(&shadow.keys[..t], key);
        let raise = abnormal && !shadow.alerted;
        let observer = self.route.observer.as_deref();
        if raise {
            shadow.alerted = true;
            let alert = Alert {
                session_id: record.session_id,
                user: record.user.clone(),
                reason: if key == 0 {
                    AlertReason::UnknownStatement
                } else {
                    AlertReason::IntentMismatch
                },
                sql: Some(record.sql.clone()),
                position: Some(t),
                degraded: true,
            };
            let h = self.core.handles(i);
            if let Some(alerts) = &h.alerts {
                alerts.inc();
            }
            ucad_obs::event(
                "serve.alert",
                &[
                    ("session_id", record.session_id.to_string()),
                    ("shard", i.to_string()),
                    ("reason", format!("{:?}", alert.reason)),
                    ("seq", seq.to_string()),
                    ("degraded", "true".to_string()),
                ],
            );
            if let Some(observer) = observer {
                observer.on_alert(&alert);
            }
            lock(&h.outbox).push(OutboxAlert {
                seq,
                tenant: TENANT,
                raised_at: Some(Instant::now()),
                alert,
            });
        }
        if let Some(observer) = observer {
            observer.on_scored(seq);
        }
        SubmitOutcome::Degraded
    }

    /// Logs a control operation durably and sends it, supervising on a
    /// dead receiver (the entry is then consumed by replay). Control
    /// operations always block — overload policies apply to records only.
    fn send_control(&mut self, session_id: u64, close: bool) {
        if let Some(state) = self.degrade.as_mut() {
            state.sessions.remove(&session_id);
        }
        let i = self.shard_of(session_id);
        let epoch = self.epoch;
        let (op, entry) = if close {
            let entry = DurableEntry::Close { session_id, epoch };
            (Op::Close(session_id), entry)
        } else {
            let entry = DurableEntry::FalseAlarm { session_id, epoch };
            (Op::FalseAlarm(session_id), entry)
        };
        if let Err(e) = self.append_durable(i, &entry) {
            // The in-memory path still applies the control, so the live run
            // stays correct; a later recovery may miss this close and
            // re-raise its alert — the drain-side delivered filter absorbs
            // the duplicate (at-least-once below the drain boundary).
            ucad_obs::event(
                "serve.wal_control_append_failed",
                &[("shard", i.to_string()), ("error", e.to_string())],
            );
        }
        self.submit(i, op, OverloadPolicy::Block);
    }

    /// Closes a session on its shard (Block mode scores the pending tail,
    /// which can itself raise an alert); unalerted sessions join the
    /// shard's verified-normal feedback buffer.
    pub fn close_session(&mut self, session_id: u64) {
        self.send_control(session_id, true);
    }

    /// DBA feedback: the alert on `session_id` was a false alarm.
    pub fn confirm_false_alarm(&mut self, session_id: u64) {
        self.send_control(session_id, false);
    }

    /// Atomically hot-swaps the serving model, returning the new model
    /// epoch. The swap happens at a global cut in the submission order:
    ///
    /// 1. a flush barrier completes every record submitted so far against
    ///    the **old** model (healing any crashed shard under that model),
    /// 2. the shared [`ScoreCache`] advances its epoch, marking every score
    ///    memoized from the old weights stale (they are dropped on their
    ///    next lookup, never served),
    /// 3. the engine's route switches to the new system, so everything
    ///    submitted afterwards carries it to its shard.
    ///
    /// Because `&mut self` serializes submission against the swap and every
    /// operation carries its route, every record is scored by exactly the
    /// model that was current when it was submitted — for any shard count,
    /// and even when a shard crashes around the cut (replay-ring entries
    /// keep their route; replay scores them with that model and keeps the
    /// superseded model's scores out of the memo). Sessions
    /// opened after the swap produce verdicts byte-identical to a freshly
    /// started engine on the new model; sessions straddling the cut finish
    /// deterministically, with positions scored under the model current at
    /// their scoring time.
    ///
    /// The candidate must share the serving vocabulary (the preprocessor's
    /// statement keys index its embedding table); a mismatched `vocab_size`
    /// is rejected with [`UcadError::InvalidConfig`] and leaves the engine
    /// untouched.
    pub fn swap_model(&mut self, model: TransDas) -> Result<u64, UcadError> {
        let serving = self.route.system.model.cfg.vocab_size;
        if model.cfg.vocab_size != serving {
            return Err(UcadError::invalid(
                "vocab_size",
                format!(
                    "candidate model indexes {} statement keys, the serving \
                     vocabulary has {serving}",
                    model.cfg.vocab_size
                ),
            ));
        }
        self.flush();
        if let Some(cache) = &self.route.cache {
            cache.advance_epoch();
        }
        let mut system = (*self.route.system).clone();
        system.model = model;
        let (cache, observer) = (self.route.cache.clone(), self.route.observer.clone());
        self.route = Route::new(TENANT, Arc::new(system), cache, observer, None, None);
        self.epoch += 1;
        self.swaps.inc();
        self.epoch_gauge.set(self.epoch as f64);
        ucad_obs::event("serve.model_swap", &[("epoch", self.epoch.to_string())]);
        if let Some(d) = self.durable.as_mut() {
            d.meta
                .append(&encode_json(&MetaEntry::Epoch { epoch: self.epoch }))?;
            // Snapshot at the cut: every durable entry behind it is folded
            // into state, so recovery — which only has the *current* model
            // to replay with — never rescores an old-epoch entry.
            self.snapshot()?;
        }
        Ok(self.epoch)
    }

    /// Flushes, exports every shard's live session state, and commits it as
    /// an atomic durable snapshot per shard; the logs are then truncated
    /// below the previous retained snapshot and the in-memory supervision
    /// base advances. Bounds both recovery replay length and disk usage.
    /// No-op for in-memory engines.
    pub fn snapshot(&mut self) -> Result<(), UcadError> {
        if self.durable.is_none() {
            return Ok(());
        }
        self.flush();
        for i in 0..self.cfg.shards {
            self.snapshot_shard(i)?;
        }
        if let Some(d) = self.durable.as_mut() {
            d.appends_since_snapshot = 0;
        }
        Ok(())
    }

    fn snapshot_shard(&mut self, i: usize) -> Result<(), UcadError> {
        let states = self.core.export(i);
        let tracker = states
            .iter()
            .find(|(tenant, _)| *tenant == TENANT)
            .map(|(_, state)| state.clone())
            .unwrap_or_default();
        let h = self.core.handles(i);
        let sd = &mut self
            .durable
            .as_mut()
            .expect("snapshot_shard requires durability")
            .shards[i];
        // Everything the snapshot claims to cover must be on disk first.
        sd.wal.sync()?;
        let wal_idx = sd.wal.next_idx();
        let snap = ShardSnapshot {
            wal_idx,
            epoch: self.epoch,
            next_seq: self.next_seq,
            ops: sd.ops,
            tracker,
            // Raise instants are process-local; the durable format keeps
            // only (seq, alert).
            outbox: lock(&h.outbox)
                .iter()
                .map(|a| (a.seq, a.alert.clone()))
                .collect(),
            feedback: lock(&h.feedback).iter().map(|(_, k)| k.clone()).collect(),
        };
        sd.snaps.save(wal_idx, &encode_json(&snap))?;
        // Segments wholly below the *previous* retained snapshot are
        // unreachable even if the one just written turns out damaged (the
        // store keeps two; recovery falls back to the older).
        sd.wal.truncate_below(sd.last_snap);
        sd.last_snap = wal_idx;
        // Advance the supervision base: ring entries below the flush
        // watermark are folded into the exported state and can be pruned.
        h.rebase(states);
        ucad_obs::event(
            "serve.snapshot",
            &[("shard", i.to_string()), ("wal_idx", wal_idx.to_string())],
        );
        Ok(())
    }

    /// The model epoch currently serving: 0 until the first
    /// [`ShardedOnlineUcad::swap_model`], +1 per swap.
    pub fn model_epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's sequence watermark: the next global arrival sequence it
    /// has not yet consumed. Every submission at a sequence **below** this
    /// is already settled — [`ShardedOnlineUcad::try_submit_at`] acks such
    /// resubmits without re-processing, which is what lets a router replay
    /// unacknowledged submits after a reconnect. Durable recovery restores
    /// the watermark from the log (replayed records and drain markers), so
    /// the dedupe discipline survives process death.
    pub fn seq_watermark(&self) -> u64 {
        self.next_seq
    }

    /// Effective durable operations per shard (records, closes and
    /// false-alarm confirmations; revoked entries excluded), over the
    /// directory's whole lifetime — `None` for in-memory engines. After a
    /// recovery, a driver replaying its deterministic submission script can
    /// skip, per shard, exactly this many of the shard's operations: what
    /// remains is the crash-free continuation.
    pub fn durable_ops_per_shard(&self) -> Option<Vec<u64>> {
        self.durable
            .as_ref()
            .map(|d| d.shards.iter().map(|s| s.ops).collect())
    }

    /// Drops the engine the way a process crash would: no shutdown
    /// message, no flush, no final fsync — worker threads and file handles
    /// are leaked outright. Exists for crash-recovery tests, where a
    /// graceful shutdown would defeat the point; pair with
    /// [`ShardedOnlineUcad::recover`] on the same directory.
    pub fn abandon(self) {
        std::mem::forget(self);
    }

    /// Flushes, then hands over (and clears) every shard's verified-normal
    /// feedback buffer — the §5.2 retraining corpus — without stopping the
    /// engine. Sessions appear in close order within a shard, shards in
    /// index order.
    pub fn drain_feedback(&mut self) -> Vec<Vec<u32>> {
        self.flush();
        self.core.take_feedback(None)
    }

    /// Barrier: returns once every message submitted so far has been fully
    /// processed by its shard — healing dead workers along the way (see
    /// [`ShardCore::flush`]).
    pub fn flush(&self) {
        self.core.flush();
    }

    /// Flushes, then returns every alert raised since the last drain,
    /// ordered by the arrival sequence of the triggering record — including
    /// alerts a supervision replay re-raised on behalf of a crashed worker,
    /// which keep the sequence number of their original trigger. Given the
    /// same submission sequence, the returned list is byte-identical for
    /// any shard count — with the default Streaming mode it equals what
    /// [`crate::OnlineUcad::alerts`] accumulates.
    /// For durable engines the drain boundary is also the exactly-once
    /// boundary: recovery replay re-raises any alert whose delivery was
    /// never recorded, and this method filters out every alert sequence a
    /// previously recorded drain already delivered, then durably records
    /// the new deliveries — so the concatenation of drained streams across
    /// crashes equals the crash-free stream exactly.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        self.drain_alerts_seq()
            .into_iter()
            .map(|(_, alert)| alert)
            .collect()
    }

    /// [`ShardedOnlineUcad::drain_alerts`] with each alert's global arrival
    /// sequence attached. This is what a network daemon ships to its
    /// router: the seqs let per-daemon drains be re-merged
    /// ([`crate::admission::merge_seq_sorted`] — the *same* helper this
    /// method merges per-shard outboxes with) into the stream a single
    /// engine would have produced.
    pub fn drain_alerts_seq(&mut self) -> Vec<(u64, Alert)> {
        self.flush();
        let mut tagged = self.core.take_alerts();
        // Drain-delay attribution: one clock read covers the whole batch
        // (the per-alert variation is the raise instant, not the drain).
        // Alerts without a raise instant (restored from a durable snapshot)
        // are skipped — their delay spans a process death.
        let now = Instant::now();
        let mut delays: HashMap<u64, f64> = HashMap::new();
        for a in &tagged {
            if let Some(raised_at) = a.raised_at {
                let secs = now.saturating_duration_since(raised_at).as_secs_f64();
                self.drain_delay_latency.observe(secs);
                delays.insert(a.seq, secs * 1e6);
            }
        }
        self.flight.annotate_drain_delays(&delays);
        let mut want_snapshot = false;
        if let Some(d) = self.durable.as_mut() {
            tagged.retain(|a| !d.delivered.contains(&a.seq));
            if !tagged.is_empty() {
                let newly: Vec<u64> = tagged.iter().map(|a| a.seq).collect();
                let marker = MetaEntry::Drain {
                    next_seq: self.next_seq,
                    delivered: newly.clone(),
                };
                match d.meta.append(&encode_json(&marker)) {
                    Ok(_) => d.delivered.extend(newly),
                    // Marker lost: these alerts stay unrecorded and a crash
                    // re-delivers them — at-least-once, never silently lost.
                    Err(e) => ucad_obs::event(
                        "serve.wal_drain_marker_failed",
                        &[("error", e.to_string())],
                    ),
                }
            }
            want_snapshot =
                d.cfg.snapshot_every > 0 && d.appends_since_snapshot >= d.cfg.snapshot_every;
        }
        if want_snapshot {
            if let Err(e) = self.snapshot() {
                ucad_obs::event("serve.snapshot_failed", &[("error", e.to_string())]);
            }
        }
        tagged.into_iter().map(|a| (a.seq, a.alert)).collect()
    }

    /// Flushes, then snapshots the throughput, overload and cache counters
    /// — a view over the same registry cells
    /// [`ShardedOnlineUcad::render_metrics`] exposes, readable through
    /// `&self` (the handles are atomics).
    pub fn stats(&self) -> ServeStats {
        self.flush();
        ServeStats {
            records_per_shard: self.core.records_per_shard(),
            pending_alerts: self.core.pending_alerts(),
            cache: self.route.cache.as_ref().map(|c| c.stats()),
            records_shed: self.records_shed.get(),
            records_degraded: self.records_degraded.get(),
            worker_restarts: self.core.worker_restarts(),
        }
    }

    /// The engine's metrics registry (serve shards, score cache, flight
    /// recorder).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prometheus text exposition of the engine registry.
    pub fn render_metrics(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The flight recorder's resident per-alert diagnostics, oldest first.
    pub fn flight_entries(&self) -> Vec<FlightEntry> {
        self.flight.entries()
    }

    /// The flight recorder's resident entries as a JSON array.
    pub fn dump_flight_json(&self) -> String {
        self.flight.dump_json()
    }

    /// Sends a panic to a shard's worker (exercises the supervision and
    /// shutdown panic-capture paths).
    #[cfg(test)]
    fn inject_worker_panic(&self, shard: usize) {
        self.core.inject_panic(shard);
    }

    /// Stops the workers and hands back the system, the remaining alerts,
    /// the accumulated verified-normal feedback, any worker panics, and the
    /// flight recorder's entries. A panicked worker is reported in
    /// [`ShutdownReport::worker_panics`] (and counted on
    /// `ucad_serve_worker_panics_total`) instead of propagating the panic;
    /// panics already healed by mid-run supervision appear there too.
    pub fn shutdown(mut self) -> ShutdownReport {
        let alerts = self.drain_alerts();
        // Graceful exit: force the batched per-shard log tails to disk so a
        // restart from this directory replays everything.
        if let Some(d) = self.durable.as_mut() {
            for sd in &mut d.shards {
                let _ = sd.wal.sync();
            }
        }
        let verified_normals = self.core.take_feedback(None);
        let worker_panics = self.core.shutdown();
        let worker_restarts = self.core.worker_restarts();
        let flight = self.flight.entries();
        // The replay rings hold route clones; drop them before unwrapping.
        let ShardedOnlineUcad { route, core, .. } = self;
        drop(core);
        let system = Arc::try_unwrap(route).map_or_else(|r| Arc::clone(&r.system), |r| r.system);
        ShutdownReport {
            system: Arc::try_unwrap(system).unwrap_or_else(|arc| (*arc).clone()),
            alerts,
            verified_normals,
            worker_panics,
            worker_restarts,
            flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::splitmix64;
    use ucad_baselines::BaselineDetector;

    #[test]
    fn splitmix_routes_uniformly_and_deterministically() {
        let counts = |seed: u64, shards: u64| {
            let mut c = vec![0usize; shards as usize];
            for id in 0..10_000u64 {
                c[(splitmix64(seed ^ id) % shards) as usize] += 1;
            }
            c
        };
        let a = counts(7, 8);
        let b = counts(7, 8);
        assert_eq!(a, b, "assignment must be a pure function of the seed");
        for (i, n) in a.iter().enumerate() {
            assert!(
                (1000..1500).contains(n),
                "shard {i} holds {n}/10000 sessions; routing is skewed"
            );
        }
        // Per-shard counts can coincide across seeds (xor by a constant is a
        // bijection), so compare the per-session assignment map instead.
        let map =
            |seed: u64| -> Vec<u64> { (0..100u64).map(|id| splitmix64(seed ^ id) % 8).collect() };
        assert_ne!(map(7), map(8), "seed must matter");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.shards >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert_eq!(cfg.mode, DetectionMode::Streaming);
        assert!(cfg.flight_capacity >= 1);
        assert_eq!(cfg.overload, OverloadPolicy::Block);
    }

    #[test]
    fn builder_roundtrips_and_rejects_degenerate_configs() {
        let cfg = ServeConfig::builder()
            .shards(2)
            .queue_capacity(64)
            .cache_capacity(0)
            .mode(DetectionMode::Block)
            .seed(7)
            .flight_capacity(0)
            .overload(OverloadPolicy::ShedNewest)
            .build()
            .expect("valid config rejected");
        assert_eq!((cfg.shards, cfg.queue_capacity), (2, 64));
        assert_eq!((cfg.cache_capacity, cfg.flight_capacity), (0, 0));
        assert_eq!(cfg.mode, DetectionMode::Block);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.overload, OverloadPolicy::ShedNewest);
        assert!(ServeConfig::builder().shards(0).build().is_err());
        assert!(ServeConfig::builder().queue_capacity(0).build().is_err());
    }

    fn tiny_system(seed: u64) -> Ucad {
        use crate::system::UcadConfig;
        use ucad_model::TransDasConfig;
        use ucad_trace::{generate_raw_log, ScenarioSpec};

        let raw = generate_raw_log(&ScenarioSpec::commenting(), 30, 0.0, seed);
        let mut cfg = UcadConfig::scenario1();
        cfg.model = TransDasConfig {
            hidden: 8,
            heads: 2,
            blocks: 1,
            window: 8,
            epochs: 1,
            ..cfg.model
        };
        Ucad::train(&raw.sessions, cfg).0
    }

    fn records_of(system: &Ucad, seed: u64, sessions: usize) -> Vec<LogRecord> {
        use rand::SeedableRng;
        use ucad_trace::{ScenarioSpec, SessionGenerator};

        let _ = system;
        let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut records = Vec::new();
        for _ in 0..sessions {
            let s = gen.normal_session(&mut rng).session;
            for op in &s.ops {
                records.push(LogRecord {
                    timestamp: op.timestamp,
                    user: s.user.clone(),
                    client_ip: s.client_ip.clone(),
                    session_id: s.id,
                    sql: op.sql.clone(),
                    table: op.table.clone(),
                    op: op.kind,
                    rows: 0,
                });
            }
        }
        records
    }

    #[test]
    fn resubmit_below_the_watermark_is_acked_without_reprocessing() {
        let system = tiny_system(11);
        let records = records_of(&system, 12, 2);
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        );
        assert_eq!(engine.seq_watermark(), 0);
        assert_eq!(
            engine.try_submit_at(&records[0], 4),
            Ok(SubmitOutcome::Accepted)
        );
        assert_eq!(engine.seq_watermark(), 5, "gaps are fine; rewinds are not");
        // A resubmit of any settled position acks as already accepted and
        // reaches no shard: the record count must not move.
        assert_eq!(
            engine.try_submit_at(&records[1], 3),
            Ok(SubmitOutcome::Accepted)
        );
        assert_eq!(
            engine.try_submit_at(&records[0], 4),
            Ok(SubmitOutcome::Accepted)
        );
        assert_eq!(engine.seq_watermark(), 5, "dup-acks must not advance");
        assert_eq!(
            engine.try_submit_at(&records[1], 5),
            Ok(SubmitOutcome::Accepted)
        );
        engine.flush();
        assert_eq!(engine.stats().records(), 2, "dup-acks reached no shard");
        drop(engine.shutdown());
    }

    #[test]
    fn shutdown_reports_worker_panics_instead_of_propagating() {
        let system = tiny_system(9);
        let engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        );
        engine.inject_worker_panic(0);
        let metrics_before = engine.render_metrics();
        assert!(metrics_before.contains("ucad_serve_worker_panics_total 0"));
        let report = engine.shutdown();
        assert_eq!(report.worker_panics.len(), 1);
        assert_eq!(report.worker_panics[0].0, 0);
        assert!(
            report.worker_panics[0].1.contains("injected worker panic"),
            "panic message lost: {:?}",
            report.worker_panics[0].1
        );
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn dead_shard_is_healed_and_keeps_accepting_without_deadlock() {
        let system = tiny_system(17);
        let records = records_of(&system, 18, 6);
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 1,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
        );
        let mid = records.len() / 2;
        for r in &records[..mid] {
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
        engine.inject_worker_panic(0);
        // Keep submitting well past the queue bound: the dead receiver must
        // fail sends fast (never deadlock), supervision must heal the shard
        // and replay everything the crash ate.
        for r in &records[mid..] {
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
        let stats = engine.stats();
        assert_eq!(stats.records(), records.len() as u64);
        assert!(stats.worker_restarts >= 1);
        let report = engine.shutdown();
        assert_eq!(report.worker_restarts, stats.worker_restarts);
        assert_eq!(report.worker_panics.len(), 1);
    }

    #[test]
    fn shed_policy_drops_under_forced_saturation_and_reconciles() {
        let system = tiny_system(21);
        let records = records_of(&system, 22, 3);
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 1,
                overload: OverloadPolicy::ShedNewest,
                ..ServeConfig::default()
            },
        );
        // Force saturation on submissions 2 and 3 (0-based) of shard 0.
        let _armed = ucad_fault::FaultPlan::new().saturate(2, 4, Some(0)).arm();
        let mut shed = 0u64;
        for r in &records {
            if engine.try_submit(r) == Ok(SubmitOutcome::Shed) {
                shed += 1;
            }
        }
        assert_eq!(shed, 2);
        let stats = engine.stats();
        assert_eq!(stats.records_shed, 2);
        assert_eq!(stats.records() + stats.records_shed, records.len() as u64);
        let metrics = engine.render_metrics();
        assert!(metrics.contains("ucad_serve_records_shed_total 2"));
    }

    #[test]
    fn degrade_policy_requires_fitted_fallback() {
        let system = tiny_system(23);
        let cfg = ServeConfig {
            overload: OverloadPolicy::Degrade,
            ..ServeConfig::default()
        };
        assert!(ShardedOnlineUcad::try_new_full(system.clone(), cfg, None, None).is_err());
        assert!(ShardedOnlineUcad::try_new_full(
            system.clone(),
            cfg,
            None,
            Some(NgramLm::new(3, 4))
        )
        .is_err());
        let mut lm = NgramLm::new(3, 4);
        lm.fit(&[vec![1, 2, 3]], system.model.cfg.vocab_size);
        assert!(ShardedOnlineUcad::try_new_full(system, cfg, None, Some(lm)).is_ok());
    }

    #[test]
    fn swap_validates_vocab_and_bumps_epoch_and_metrics() {
        let system = tiny_system(11);
        let mut bad_cfg = system.model.cfg;
        bad_cfg.vocab_size += 3;
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        );
        assert_eq!(engine.model_epoch(), 0);
        let err = engine
            .swap_model(TransDas::new(bad_cfg))
            .expect_err("vocab mismatch must be rejected");
        assert!(matches!(
            err,
            UcadError::InvalidConfig {
                field: "vocab_size",
                ..
            }
        ));
        assert_eq!(engine.model_epoch(), 0, "rejected swap must not advance");

        let candidate = engine.system().model.clone();
        assert_eq!(engine.swap_model(candidate).expect("compatible swap"), 1);
        assert_eq!(engine.model_epoch(), 1);
        let metrics = engine.render_metrics();
        assert!(metrics.contains("ucad_serve_swaps_total 1"));
        assert!(metrics.contains("ucad_serve_model_epoch 1"));
        // The shared score memo was invalidated at the cut.
        assert!(metrics.contains("ucad_cache_stale_drops_total 0"));
        engine.flush();
    }

    #[test]
    fn replay_under_a_superseded_model_never_touches_the_current_memo() {
        use ucad_trace::{generate_raw_log, ScenarioSpec};

        let system = tiny_system(43);
        // Training-log sessions pass the policy screen, so they are scored.
        let raw = generate_raw_log(&ScenarioSpec::commenting(), 30, 0.0, 43);
        let records: Vec<LogRecord> = raw.sessions[..4]
            .iter()
            .flat_map(|s| {
                s.ops.iter().map(|op| LogRecord {
                    timestamp: op.timestamp,
                    user: s.user.clone(),
                    client_ip: s.client_ip.clone(),
                    session_id: s.id,
                    sql: op.sql.clone(),
                    table: op.table.clone(),
                    op: op.kind,
                    rows: 0,
                })
            })
            .collect();
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
        );
        // The sessions stay open, so their ring entries outlive the swap.
        for r in &records {
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
        let candidate = engine.system().model.clone();
        engine.swap_model(candidate).expect("compatible swap");
        let before = engine.stats().cache.expect("cache on");
        assert!(before.misses > 0, "the sessions never reached the memo");
        // The crash forces a replay of every pre-swap entry under the old
        // route; none of it may read or write the memo's new epoch.
        engine.inject_worker_panic(0);
        let after = engine.stats();
        assert_eq!(after.worker_restarts, 1);
        assert_eq!(after.cache, Some(before));
    }

    #[test]
    fn drain_feedback_collects_unalerted_sessions_without_stopping() {
        use rand::SeedableRng;
        use ucad_trace::{ScenarioSpec, SessionGenerator};

        let system = tiny_system(13);
        let mut engine = ShardedOnlineUcad::new(
            system,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        );
        let mut gen = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut submitted = 0;
        for _ in 0..4 {
            let s = gen.normal_session(&mut rng).session;
            for op in &s.ops {
                let _ = engine.try_submit(&LogRecord {
                    timestamp: op.timestamp,
                    user: s.user.clone(),
                    client_ip: s.client_ip.clone(),
                    session_id: s.id,
                    sql: op.sql.clone(),
                    table: op.table.clone(),
                    op: op.kind,
                    rows: 0,
                });
            }
            engine.close_session(s.id);
            submitted += 1;
        }
        let alerted: std::collections::HashSet<u64> =
            engine.drain_alerts().iter().map(|a| a.session_id).collect();
        let feedback = engine.drain_feedback();
        assert_eq!(feedback.len(), submitted - alerted.len());
        assert!(
            engine.drain_feedback().is_empty(),
            "drain must clear the buffers"
        );
        // The engine keeps serving after a drain.
        engine.flush();
        let report = engine.shutdown();
        assert!(report.verified_normals.is_empty());
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucad-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Resumes `records` on a freshly recovered engine, skipping the prefix
    /// each shard already holds durably — the same protocol a restarted
    /// ingest process follows after `recover`.
    fn resume_records(engine: &mut ShardedOnlineUcad, records: &[LogRecord]) {
        let mut skip = engine.durable_ops_per_shard().expect("durable engine");
        for r in records {
            let shard = engine.shard_of(r.session_id);
            if skip[shard] > 0 {
                skip[shard] -= 1;
                continue;
            }
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
    }

    #[test]
    fn durable_abandon_recover_matches_crash_free_run() {
        let dir = tmp_dir("recover");
        let system = tiny_system(31);
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let mut records = records_of(&system, 32, 6);
        // Unknown statements alert deterministically regardless of model
        // weights; sprinkle a few so the comparison below is non-vacuous.
        let step = records.len() / 3;
        for (i, r) in records.iter_mut().enumerate() {
            if i % step == step / 2 {
                r.sql = format!("DELETE FROM t_shadow WHERE id={i}");
            }
        }
        let sessions: Vec<u64> = {
            let mut ids: Vec<u64> = records.iter().map(|r| r.session_id).collect();
            ids.dedup();
            ids
        };

        // Crash-free baseline: plain in-memory engine, identical config.
        let mut baseline = ShardedOnlineUcad::new(system.clone(), cfg);
        for r in &records {
            assert_eq!(baseline.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
        for &id in &sessions {
            baseline.close_session(id);
        }
        baseline.flush();
        let mut expected = baseline.drain_alerts();
        assert!(!expected.is_empty(), "scenario must raise alerts");

        // Durable run: snapshot a third in, "crash" (abandon skips the
        // shutdown handshake entirely) two thirds in.
        let mut engine = ShardedOnlineUcad::try_new_durable(
            system.clone(),
            cfg,
            None,
            None,
            DurabilityConfig::new(&dir),
        )
        .expect("fresh durable engine");
        let cut = 2 * records.len() / 3;
        for (i, r) in records[..cut].iter().enumerate() {
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
            if i == records.len() / 3 {
                engine.snapshot().expect("snapshot");
            }
        }
        engine.abandon();

        let mut engine =
            ShardedOnlineUcad::recover(system, cfg, DurabilityConfig::new(&dir)).expect("recovery");
        resume_records(&mut engine, &records);
        for &id in &sessions {
            engine.close_session(id);
        }
        engine.flush();
        let mut got = engine.drain_alerts();

        // A session alerts at most once, so session_id is a total order.
        expected.sort_by_key(|a| a.session_id);
        got.sort_by_key(|a| a.session_id);
        assert_eq!(
            got, expected,
            "recovered alert stream must match the crash-free run"
        );
        let metrics = engine.render_metrics();
        assert!(metrics.contains("ucad_serve_recoveries_total 1"));
        assert!(metrics.contains("ucad_wal_replayed_records_total"));
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the latent drain-boundary duplicate: recovery replay
    /// re-raises every alert it scores, including ones already handed to the
    /// operator before the crash. The drain marker plus seq dedup make the
    /// drained stream exactly-once.
    #[test]
    fn drain_boundary_is_exactly_once_across_recovery() {
        let dir = tmp_dir("drain-once");
        let system = tiny_system(37);
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let mut records = records_of(&system, 38, 4);
        // Inject unknown statements mid-session (early positions are still
        // inside the scoring window and would not be verdicted yet): one in
        // the first session, one in the last.
        let first_id = records[0].session_id;
        let early = records.iter().filter(|r| r.session_id == first_id).count() / 2;
        records[early].sql = "DELETE FROM t_shadow WHERE id=1".into();
        let last_id = records.last().expect("records").session_id;
        let last_start = records
            .iter()
            .position(|r| r.session_id == last_id)
            .expect("last session");
        let late = last_start + (records.len() - last_start) / 2;
        records[late].sql = "DELETE FROM t_shadow WHERE id=2".into();
        let cut = records.len() / 2;
        assert!(early < cut && cut <= last_start);
        assert_ne!(
            records[early].session_id, records[late].session_id,
            "the two injected anomalies must hit different sessions"
        );

        let mut engine = ShardedOnlineUcad::try_new_durable(
            system.clone(),
            cfg,
            None,
            None,
            DurabilityConfig::new(&dir),
        )
        .expect("fresh durable engine");
        for r in &records[..cut] {
            assert_eq!(engine.try_submit(r), Ok(SubmitOutcome::Accepted));
        }
        engine.flush();
        let first = engine.drain_alerts();
        assert!(
            first
                .iter()
                .any(|a| a.session_id == records[early].session_id),
            "unknown statement must alert before the crash"
        );
        engine.abandon();

        let mut engine =
            ShardedOnlineUcad::recover(system, cfg, DurabilityConfig::new(&dir)).expect("recovery");
        assert!(
            engine.drain_alerts().is_empty(),
            "alerts drained before the crash must not be re-delivered"
        );
        resume_records(&mut engine, &records);
        engine.flush();
        let second = engine.drain_alerts();
        assert!(
            second
                .iter()
                .any(|a| a.session_id == records[late].session_id),
            "post-recovery anomalies must still alert"
        );
        assert!(
            second
                .iter()
                .all(|a| a.session_id != records[early].session_id),
            "pre-crash alerts must appear exactly once across the restart"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_mismatched_routing() {
        let dir = tmp_dir("mismatch");
        let system = tiny_system(41);
        let engine = ShardedOnlineUcad::try_new_durable(
            system.clone(),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
            None,
            None,
            DurabilityConfig::new(&dir),
        )
        .expect("fresh durable engine");
        engine.shutdown();
        match ShardedOnlineUcad::recover(
            system,
            ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
            DurabilityConfig::new(&dir),
        ) {
            Err(UcadError::InvalidConfig {
                field: "durability",
                ..
            }) => {}
            Err(other) => panic!("wrong error for shard mismatch: {other}"),
            Ok(_) => panic!("shard count mismatch must be rejected"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
