//! Sharded online detection service: the ROADMAP's "heavy traffic" serving
//! layer around [`OnlineUcad`]'s single-threaded deployment loop.
//!
//! Records are routed by a seeded hash of their `session_id` onto `N`
//! shards, each a worker `std::thread` owning one session partition (a
//! [`SessionTracker`], the same engine [`OnlineUcad`] runs on) behind a
//! bounded queue. Because sessions are partitioned — never split across
//! shards — and every scoring discipline is a pure function of a session's
//! own record sequence, the alert *set* is independent of the shard count
//! and of worker timing. Ordering is restored at drain time: every record
//! carries a global arrival sequence number, an alert inherits the sequence
//! number of the record that triggered it, and [`ShardedOnlineUcad::
//! drain_alerts`] flushes all queues and sorts by that number. The result:
//! N-shard output is byte-identical to the single-threaded path.
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
//! down. Every accepted message is first appended to a per-shard
//! write-ahead snapshot ring (the *WAL*) that lives on the engine side of
//! the channel, and the worker publishes a processed-message watermark as
//! it goes. When the engine notices a dead worker — a failed channel send,
//! or the liveness check every [`ShardedOnlineUcad::flush`] performs — it
//! *supervises* the shard: the panic is captured and counted, the WAL is
//! replayed into a fresh [`SessionTracker`] (entries below the watermark
//! rebuild state silently; entries above it — the messages the crash ate —
//! are processed for real, alerts, metrics and all, under the model epoch
//! they were submitted against), and a new worker is spawned on the rebuilt
//! tracker. The restarted shard is byte-identical to one that never
//! crashed: no accepted record is lost, no record is scored twice, and
//! drained alerts keep their global sequence order. Deterministic crash and
//! overload scenarios can be injected with `ucad-fault` (the `UCAD_FAULTS`
//! environment variable); the chaos wall in `tests/chaos_serve.rs` holds
//! these invariants under seeded fault plans.
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

use crate::admission::{merge_seq_sorted, splitmix64};
use crate::online::{Alert, AlertReason, RaisedAlert, ServeObserver, SessionTracker, TrackerState};
use crate::system::Ucad;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ucad_baselines::NgramLm;
use ucad_dbsim::LogRecord;
use ucad_model::{CacheStats, DetectionMode, ScoreCache, TransDas, UcadError};
use ucad_obs::{
    latency_log_bounds, Counter, FlightEntry, FlightRecorder, Gauge, Histogram, MetricKind,
    Registry,
};
use ucad_wal::{SegmentedWal, SnapshotStore, WalMetrics, WalOptions};

/// Locks a mutex, recovering the guard when a panicking worker poisoned it
/// (the protected structures are always left in a consistent state: every
/// critical section is a push, pop or retain that cannot be observed
/// half-done).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
        if self.cfg.shards == 0 {
            return Err(UcadError::invalid("shards", "at least one shard required"));
        }
        if self.cfg.queue_capacity == 0 {
            return Err(UcadError::invalid(
                "queue_capacity",
                "a zero-capacity queue would deadlock submission",
            ));
        }
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
    /// shard loses nothing: supervision replays its write-ahead log, so
    /// alerts, feedback and record counts match a crash-free run.
    pub worker_panics: Vec<(usize, String)>,
    /// Shard workers supervision respawned over the engine's lifetime.
    pub worker_restarts: u64,
    /// The flight recorder's resident entries (per-alert diagnostics),
    /// oldest first.
    pub flight: Vec<FlightEntry>,
}

enum Msg {
    /// A routed record with its global arrival sequence number, the shard
    /// queue depth observed at enqueue time, and the enqueue instant — the
    /// record's trace context. The worker derives queue-wait latency from
    /// the instant; it never influences scoring, so tracing cannot perturb
    /// the alert stream.
    Record(Arc<LogRecord>, u64, usize, Instant),
    Close(u64, usize),
    FalseAlarm(u64),
    /// Barrier: every message sent before this one has been processed once
    /// the acknowledgement arrives (per-shard queues are FIFO).
    Flush(SyncSender<()>),
    /// Model hot-swap: the worker replaces its shared system handle. Sent
    /// after a flush barrier, so everything submitted before the swap was
    /// scored by the old model and (FIFO) everything after it by the new.
    Swap(Arc<Ucad>),
    /// State export barrier: the worker answers with its tracker's full
    /// session state (used to build durable snapshots). Like `Flush`, it
    /// carries no session state of its own and is never logged.
    Export(SyncSender<TrackerState>),
    Shutdown,
    /// Test hook: makes the worker panic, exercising the supervision and
    /// shutdown panic-capture paths.
    #[cfg(test)]
    Panic,
}

/// Payload of one write-ahead log entry — the engine-side copy of a
/// stateful message, sufficient to re-derive the worker's entire effect.
/// Flush/swap barriers are not logged: they carry no session state.
#[derive(Clone)]
enum WalMsg {
    /// A record and its global arrival sequence number.
    Record(Arc<LogRecord>, u64),
    Close(u64),
    FalseAlarm(u64),
}

/// One entry of a shard's write-ahead log.
#[derive(Clone)]
struct WalEntry {
    /// Position in the shard's processing order. Appends are contiguous
    /// and per-shard queues are FIFO, so `idx < watermark` ⟺ the worker
    /// fully processed this entry before it (last) crashed.
    idx: u64,
    /// Model epoch the entry was submitted under; replay scores it with
    /// exactly that model, so a crash straddling a hot-swap still rebuilds
    /// byte-identical state.
    epoch: u64,
    session_id: u64,
    msg: WalMsg,
}

/// Per-shard write-ahead snapshot ring. The engine appends before every
/// send; the worker truncates a session's entries once it closes (they can
/// never be needed again); supervision replays what remains.
#[derive(Default)]
struct Wal {
    entries: Vec<WalEntry>,
    /// Index the next appended entry receives; equals the count of entries
    /// ever appended (pops of never-sent entries roll it back).
    next_idx: u64,
}

impl Wal {
    fn append(&mut self, epoch: u64, session_id: u64, msg: WalMsg) -> u64 {
        let idx = self.next_idx;
        self.next_idx += 1;
        self.entries.push(WalEntry {
            idx,
            epoch,
            session_id,
            msg,
        });
        idx
    }

    /// Removes the just-appended entry `idx` after its send was refused
    /// (shed or degraded record), rolling `next_idx` back so the log stays
    /// contiguous with the worker's count-based watermark. Only the engine
    /// appends and submission is serialized, so `idx` is always the tail.
    fn pop_unsent(&mut self, idx: u64) {
        debug_assert_eq!(self.entries.last().map(|e| e.idx), Some(idx));
        self.entries.pop();
        self.next_idx = idx;
    }
}

/// One durable (on-disk) log record of a shard, JSON-encoded inside the
/// WAL's CRC frame. The disk analogue of [`WalMsg`], with two differences:
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

/// One undrained alert with its trace context: the global sequence of the
/// triggering record and the instant it was raised (for drain-delay
/// attribution; `None` for alerts restored from a durable snapshot, whose
/// raise instant belongs to a previous process life).
struct OutboxAlert {
    seq: u64,
    raised_at: Option<Instant>,
    alert: Alert,
}

#[derive(Default)]
struct Outbox {
    alerts: Vec<OutboxAlert>,
}

/// Supervision base installed by a durable snapshot (and by recovery): the
/// state an in-memory replay starts from instead of an empty tracker, so
/// the in-memory log can be pruned below it.
#[derive(Clone)]
struct BaseState {
    /// In-memory log index the state covers up to (exclusive); entries
    /// below it are folded into `state` and pruned.
    idx: u64,
    /// Session ids open in `state`. Their later log entries — including the
    /// eventual close — must survive pruning until the base advances past
    /// them, or a replay would resurrect the session.
    open: HashSet<u64>,
    state: TrackerState,
}

/// The engine-side shared state of one shard: everything that must survive
/// a worker crash, plus the shard's pre-fetched registry handles (the hot
/// loop never takes the registry mutex).
#[derive(Clone)]
struct ShardHandles {
    outbox: Arc<Mutex<Outbox>>,
    wal: Arc<Mutex<Wal>>,
    /// Count of stateful messages the worker has fully processed — the
    /// replay watermark. Bumped only after an entry's complete effect
    /// (metrics, alerts, feedback) has landed, so a crash mid-message
    /// replays it exactly once.
    processed: Arc<AtomicU64>,
    /// Verified-normal feedback, exported by the worker immediately on
    /// session close so a later crash cannot lose it.
    feedback: Arc<Mutex<Vec<Vec<u32>>>>,
    /// Supervision base; `None` until a snapshot or recovery installs one.
    base: Arc<Mutex<Option<BaseState>>>,
    records: Counter,
    alerts: Counter,
    queue_depth: Gauge,
    score_latency: Histogram,
    /// Engine-wide queue-wait stage histogram
    /// (`ucad_latency_queue_wait_seconds`) — one series shared by every
    /// shard, cloned into the handles so the hot loop stays registry-free.
    queue_wait: Histogram,
    /// Engine-wide scoring stage histogram (`ucad_latency_score_seconds`),
    /// the unlabeled cross-shard companion of `score_latency`.
    latency_score: Histogram,
}

/// The restartable half of a shard: the channel sender and the worker's
/// join handle, swapped out together when supervision respawns the worker.
struct ShardLink {
    tx: SyncSender<Msg>,
    handle: Option<JoinHandle<SessionTracker>>,
}

struct Shard {
    link: Mutex<ShardLink>,
    h: ShardHandles,
}

/// Books a raised alert: the outbox (for deterministic draining), the
/// alert counter, the flight recorder, and — when `UCAD_OBS` is on — a
/// structured event line. Shared by the worker hot loop and supervision
/// replay, so a replayed alert is booked exactly like a live one.
fn book_alert(
    h: &ShardHandles,
    shard: usize,
    flight: &FlightRecorder,
    observer: Option<&dyn ServeObserver>,
    raised: RaisedAlert,
    queue_depth: usize,
    queue_wait_us: Option<f64>,
) {
    h.alerts.inc();
    let reason = format!("{:?}", raised.alert.reason);
    flight.record(FlightEntry {
        seq: raised.seq,
        session_id: raised.alert.session_id,
        shard,
        tenant: None,
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
            ("shard", shard.to_string()),
            ("reason", reason),
            ("seq", raised.seq.to_string()),
        ],
    );
    if let Some(observer) = observer {
        observer.on_alert(&raised.alert);
    }
    lock(&h.outbox).alerts.push(OutboxAlert {
        seq: raised.seq,
        raised_at: Some(Instant::now()),
        alert: raised.alert,
    });
}

/// The immutable-per-spawn inputs of a worker thread (the system handle is
/// replaced in place by a hot-swap message).
struct WorkerSpec {
    shard: usize,
    system: Arc<Ucad>,
    cache: Option<Arc<ScoreCache>>,
    flight: Arc<FlightRecorder>,
    observer: Option<Arc<dyn ServeObserver>>,
}

fn spawn_worker(
    spec: WorkerSpec,
    h: ShardHandles,
    queue_capacity: usize,
    tracker: SessionTracker,
) -> ShardLink {
    let (tx, rx) = sync_channel(queue_capacity.max(1));
    let handle = std::thread::spawn(move || worker(rx, spec, h, tracker));
    ShardLink {
        tx,
        handle: Some(handle),
    }
}

fn worker(
    rx: Receiver<Msg>,
    mut spec: WorkerSpec,
    h: ShardHandles,
    mut tracker: SessionTracker,
) -> SessionTracker {
    let observer = spec.observer.clone();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Record(record, seq, depth, enqueued) => {
                // Fault hook first: an injected crash eats the message
                // before any of its effects land, so supervision replays
                // it exactly once.
                ucad_fault::on_worker_record(spec.shard);
                h.records.inc();
                h.queue_depth.add(-1.0);
                let queue_wait = enqueued.elapsed().as_secs_f64();
                h.queue_wait.observe(queue_wait);
                let start = Instant::now();
                let raised = tracker.ingest(
                    &spec.system,
                    spec.cache.as_deref(),
                    observer.as_deref(),
                    &record,
                    seq,
                );
                let score_secs = start.elapsed().as_secs_f64();
                h.score_latency.observe(score_secs);
                h.latency_score.observe(score_secs);
                if let Some(raised) = raised {
                    book_alert(
                        &h,
                        spec.shard,
                        &spec.flight,
                        observer.as_deref(),
                        raised,
                        depth,
                        Some(queue_wait * 1e6),
                    );
                }
                if let Some(observer) = observer.as_deref() {
                    observer.on_scored(seq);
                }
                h.processed.fetch_add(1, Ordering::SeqCst);
            }
            Msg::Close(session_id, depth) => {
                h.queue_depth.add(-1.0);
                if let Some(raised) = tracker.close(
                    &spec.system,
                    spec.cache.as_deref(),
                    observer.as_deref(),
                    session_id,
                ) {
                    // Close-raised alerts carry no per-record queue wait —
                    // the control message's residency is not the record's.
                    book_alert(
                        &h,
                        spec.shard,
                        &spec.flight,
                        observer.as_deref(),
                        raised,
                        depth,
                        None,
                    );
                }
                let mut normals = tracker.take_verified_normals();
                if !normals.is_empty() {
                    lock(&h.feedback).append(&mut normals);
                }
                let now = h.processed.fetch_add(1, Ordering::SeqCst) + 1;
                // The session is gone; its log entries can never be needed
                // by a replay again. Entries at or above the watermark
                // belong to a re-opened session with the same id — keep.
                // Exception: the supervision base still lists the session
                // open, so replay starts before this close — pruning its
                // entries (this close included) would resurrect it. Keep
                // them until the next snapshot refreshes the base.
                let base_open = lock(&h.base)
                    .as_ref()
                    .is_some_and(|b| b.open.contains(&session_id));
                if !base_open {
                    lock(&h.wal)
                        .entries
                        .retain(|e| e.session_id != session_id || e.idx >= now);
                }
            }
            Msg::FalseAlarm(session_id) => {
                h.queue_depth.add(-1.0);
                tracker.confirm_false_alarm(session_id);
                let mut normals = tracker.take_verified_normals();
                if !normals.is_empty() {
                    lock(&h.feedback).append(&mut normals);
                }
                let now = h.processed.fetch_add(1, Ordering::SeqCst) + 1;
                let base_open = lock(&h.base)
                    .as_ref()
                    .is_some_and(|b| b.open.contains(&session_id));
                if !base_open {
                    lock(&h.wal)
                        .entries
                        .retain(|e| e.session_id != session_id || e.idx >= now);
                }
            }
            Msg::Flush(ack) => {
                let _ = ack.send(());
            }
            Msg::Export(ack) => {
                let _ = ack.send(tracker.export_state());
            }
            Msg::Swap(system) => {
                spec.system = system;
            }
            Msg::Shutdown => break,
            #[cfg(test)]
            Msg::Panic => panic!("injected worker panic"),
        }
    }
    tracker
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
    system: Arc<Ucad>,
    /// Every model epoch ever served, indexed by epoch number. Supervision
    /// replay scores each write-ahead entry with the model it was
    /// originally submitted under; the list grows by one Arc per hot-swap.
    systems: Vec<Arc<Ucad>>,
    cache: Option<Arc<ScoreCache>>,
    registry: Arc<Registry>,
    flight: Arc<FlightRecorder>,
    observer: Option<Arc<dyn ServeObserver>>,
    degrade: Option<DegradeState>,
    worker_panics: Counter,
    worker_restarts: Counter,
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
    /// Panic messages captured by supervision and the final shutdown join,
    /// in capture order.
    panic_log: Mutex<Vec<(usize, String)>>,
    shards: Vec<Shard>,
    cfg: ServeConfig,
    next_seq: u64,
    /// Model epoch: 0 for the model the engine started with, +1 per
    /// completed [`ShardedOnlineUcad::swap_model`].
    epoch: u64,
    /// Epoch the engine's `systems[0]` corresponds to: 0 for a fresh
    /// engine, the recovered epoch after [`ShardedOnlineUcad::recover`]
    /// (pre-recovery models are gone; replay of an older-epoch entry clamps
    /// to the oldest model still held).
    epoch_base: u64,
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
        registry.describe(
            "ucad_serve_records_total",
            MetricKind::Counter,
            "Records accepted per shard",
        );
        registry.describe(
            "ucad_serve_alerts_total",
            MetricKind::Counter,
            "Alerts raised per shard",
        );
        registry.describe(
            "ucad_serve_queue_depth",
            MetricKind::Gauge,
            "Messages enqueued on a shard but not yet processed",
        );
        registry.describe(
            "ucad_serve_score_duration_seconds",
            MetricKind::Histogram,
            "Per-record scoring latency (policy screen + model forward)",
        );
        registry.describe(
            "ucad_latency_queue_wait_seconds",
            MetricKind::Histogram,
            "Time a record spent in its shard queue between enqueue and scoring",
        );
        registry.describe(
            "ucad_latency_score_seconds",
            MetricKind::Histogram,
            "Per-record scoring stage latency, engine-wide across shards",
        );
        registry.describe(
            "ucad_latency_wal_append_seconds",
            MetricKind::Histogram,
            "Durable WAL append latency on the submit path",
        );
        registry.describe(
            "ucad_latency_drain_delay_seconds",
            MetricKind::Histogram,
            "Delay between an alert being raised and the drain that delivered it",
        );
        registry.describe(
            "ucad_serve_worker_panics_total",
            MetricKind::Counter,
            "Worker threads that died of a panic",
        );
        registry.describe(
            "ucad_serve_worker_restarts_total",
            MetricKind::Counter,
            "Shard workers respawned by supervision after a panic",
        );
        registry.describe(
            "ucad_serve_records_shed_total",
            MetricKind::Counter,
            "Records dropped by the ShedNewest overload policy",
        );
        registry.describe(
            "ucad_serve_records_degraded_total",
            MetricKind::Counter,
            "Records scored by the degraded-mode fallback instead of the model",
        );
        registry.describe(
            "ucad_serve_swaps_total",
            MetricKind::Counter,
            "Completed model hot-swaps",
        );
        registry.describe(
            "ucad_serve_model_epoch",
            MetricKind::Gauge,
            "Model epoch currently serving (0 = the model the engine started with)",
        );
        registry.describe(
            "ucad_wal_segments_total",
            MetricKind::Counter,
            "Durable WAL segment files opened for appending",
        );
        registry.describe(
            "ucad_wal_fsyncs_total",
            MetricKind::Counter,
            "Durable WAL fsync barriers issued",
        );
        registry.describe(
            "ucad_wal_appends_total",
            MetricKind::Counter,
            "Records appended to the durable WAL",
        );
        registry.describe(
            "ucad_wal_replayed_records_total",
            MetricKind::Counter,
            "Durable WAL records replayed during crash recovery",
        );
        registry.describe(
            "ucad_serve_recoveries_total",
            MetricKind::Counter,
            "Engine constructions that recovered prior durable state",
        );
        let flight = Arc::new(FlightRecorder::new(cfg.flight_capacity));
        flight.register_metrics(&registry);
        if let Some(cache) = &cache {
            cache.register_metrics(&registry, &[]);
        }
        let worker_panics = registry.counter("ucad_serve_worker_panics_total", &[]);
        let worker_restarts = registry.counter("ucad_serve_worker_restarts_total", &[]);
        let records_shed = registry.counter("ucad_serve_records_shed_total", &[]);
        let records_degraded = registry.counter("ucad_serve_records_degraded_total", &[]);
        let swaps = registry.counter("ucad_serve_swaps_total", &[]);
        let epoch_gauge = registry.gauge("ucad_serve_model_epoch", &[]);
        // Stage-latency histograms: registered unconditionally (a
        // zero-count histogram still exposes its bucket series) and
        // pre-fetched here so no hot path touches the registry mutex.
        let queue_wait =
            registry.histogram("ucad_latency_queue_wait_seconds", &[], latency_log_bounds());
        let latency_score =
            registry.histogram("ucad_latency_score_seconds", &[], latency_log_bounds());
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

        let mut shard_durables: Vec<ShardDurable> = Vec::with_capacity(cfg.shards);
        let mut shards: Vec<Shard> = Vec::with_capacity(cfg.shards);
        let mut total_replayed = 0u64;
        for i in 0..cfg.shards {
            let shard_label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard_label.as_str())];
            let h = ShardHandles {
                outbox: Arc::new(Mutex::new(Outbox::default())),
                wal: Arc::new(Mutex::new(Wal::default())),
                processed: Arc::new(AtomicU64::new(0)),
                feedback: Arc::new(Mutex::new(Vec::new())),
                base: Arc::new(Mutex::new(None)),
                records: registry.counter("ucad_serve_records_total", labels),
                alerts: registry.counter("ucad_serve_alerts_total", labels),
                queue_depth: registry.gauge("ucad_serve_queue_depth", labels),
                score_latency: registry.histogram(
                    "ucad_serve_score_duration_seconds",
                    labels,
                    latency_log_bounds(),
                ),
                queue_wait: queue_wait.clone(),
                latency_score: latency_score.clone(),
            };
            let mut tracker = SessionTracker::new(cfg.mode);
            if let Some(dcfg) = &durability {
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
                    tracker = SessionTracker::import_state(cfg.mode, snap.tracker);
                    // Restored alerts lost their raise instant with the
                    // process that raised them: no drain-delay attribution.
                    lock(&h.outbox).alerts = snap
                        .outbox
                        .into_iter()
                        .map(|(seq, alert)| OutboxAlert {
                            seq,
                            raised_at: None,
                            alert,
                        })
                        .collect();
                    *lock(&h.feedback) = snap.feedback;
                    next_seq = next_seq.max(snap.next_seq);
                    recovered_epoch = recovered_epoch.max(snap.epoch);
                    ops = snap.ops;
                    from_idx = snap_seq;
                }
                // Decode the durable suffix and drop revoked pairs. A
                // `Revoke` always directly follows the entry it cancels and
                // never straddles a snapshot cut (both are appended in one
                // submission, snapshots only between submissions), so a
                // simple pop suffices.
                let mut effective: Vec<DurableEntry> = Vec::new();
                for (off, payload) in rec.entries.iter().enumerate() {
                    if rec.first_idx + (off as u64) < from_idx {
                        continue;
                    }
                    match decode_json::<DurableEntry>(payload, &origin)? {
                        DurableEntry::Revoke => {
                            effective.pop();
                        }
                        entry => effective.push(entry),
                    }
                }
                if !effective.is_empty() {
                    prior_state = true;
                }
                // Replay the suffix into the tracker, alerts and all. The
                // score cache is skipped: recovery is rare, and a memoized
                // score is bit-identical to a computed one, so the rebuilt
                // state (and the alert stream) cannot differ. The observer
                // is skipped too — its feed is per engine life.
                for entry in &effective {
                    ops += 1;
                    match entry {
                        DurableEntry::Record { seq, record, .. } => {
                            h.records.inc();
                            replayed_records.inc();
                            total_replayed += 1;
                            let raised = tracker.ingest(&system, None, None, record, *seq);
                            if let Some(raised) = raised {
                                book_alert(&h, i, &flight, None, raised, 0, None);
                            }
                            next_seq = next_seq.max(seq + 1);
                        }
                        DurableEntry::Close { session_id, .. } => {
                            replayed_records.inc();
                            total_replayed += 1;
                            let raised = tracker.close(&system, None, None, *session_id);
                            let mut normals = tracker.take_verified_normals();
                            if let Some(raised) = raised {
                                book_alert(&h, i, &flight, None, raised, 0, None);
                            }
                            if !normals.is_empty() {
                                lock(&h.feedback).append(&mut normals);
                            }
                        }
                        DurableEntry::FalseAlarm { session_id, .. } => {
                            replayed_records.inc();
                            total_replayed += 1;
                            tracker.confirm_false_alarm(*session_id);
                            let mut normals = tracker.take_verified_normals();
                            if !normals.is_empty() {
                                lock(&h.feedback).append(&mut normals);
                            }
                        }
                        DurableEntry::Revoke => unreachable!("revoked pairs dropped above"),
                    }
                }
                // The rebuilt state becomes the supervision base (the
                // in-memory log restarts empty) and refeeds the degraded-
                // mode shadows, so every post-recovery path has context.
                let state = tracker.export_state();
                if let Some(dstate) = degrade.as_mut() {
                    for s in &state.sessions {
                        dstate.sessions.insert(
                            s.session.id,
                            DegradeShadow {
                                keys: s.keys.clone(),
                                alerted: s.alerted,
                            },
                        );
                    }
                }
                let open: HashSet<u64> = state.sessions.iter().map(|s| s.session.id).collect();
                *lock(&h.base) = Some(BaseState {
                    idx: 0,
                    open,
                    state,
                });
                shard_durables.push(ShardDurable {
                    wal,
                    snaps,
                    ops,
                    last_snap: from_idx,
                });
            }
            let spec = WorkerSpec {
                shard: i,
                system: Arc::clone(&system),
                cache: cache.clone(),
                flight: Arc::clone(&flight),
                observer: observer.clone(),
            };
            let link = spawn_worker(spec, h.clone(), cfg.queue_capacity, tracker);
            shards.push(Shard {
                link: Mutex::new(link),
                h,
            });
        }
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
            systems: vec![Arc::clone(&system)],
            system,
            cache,
            registry,
            flight,
            observer,
            degrade,
            worker_panics,
            worker_restarts,
            records_shed,
            records_degraded,
            swaps,
            epoch_gauge,
            wal_append_latency,
            drain_delay_latency,
            panic_log: Mutex::new(Vec::new()),
            shards,
            cfg,
            next_seq,
            epoch: recovered_epoch,
            epoch_base: recovered_epoch,
            durable,
        })
    }

    /// Read access to the wrapped system.
    pub fn system(&self) -> &Ucad {
        &self.system
    }

    /// The shard a session routes to.
    pub fn shard_of(&self, session_id: u64) -> usize {
        (splitmix64(self.cfg.seed ^ session_id) % self.cfg.shards as u64) as usize
    }

    /// Captures a worker panic: the panic log (surfaced in the
    /// [`ShutdownReport`]), the panic counter, and an event line.
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
    /// the corpse (capturing the panic), replays the shard's write-ahead
    /// log into a fresh tracker — entries below the processed watermark
    /// rebuild state silently, entries above it are processed for real
    /// under their original model epoch — and respawns the worker on the
    /// rebuilt tracker. Returns whether a restart happened.
    ///
    /// `force` skips the liveness probe: a failed channel send proves the
    /// receiver is gone even while the worker thread is still unwinding,
    /// so the caller must supervise unconditionally (the join below waits
    /// out the unwind).
    fn supervise_shard(&self, i: usize, force: bool) -> bool {
        let shard = &self.shards[i];
        let mut link = lock(&shard.link);
        let dead = match &link.handle {
            Some(handle) => force || handle.is_finished(),
            None => false,
        };
        if !dead {
            return false;
        }
        let handle = link.handle.take().expect("liveness-checked above");
        match handle.join() {
            Ok(_tracker) => {
                // Clean exit (shutdown raced a supervision pass): nothing
                // to heal, but the link must be respawned all the same so
                // the engine keeps accepting this shard's sessions.
            }
            Err(panic) => self.record_panic(i, panic),
        }
        // Snapshot the log and watermark. The worker is dead and submission
        // is externally serialized, so both are frozen.
        let (entries, wal_top) = {
            let wal = lock(&shard.h.wal);
            (wal.entries.clone(), wal.next_idx)
        };
        let watermark = shard.h.processed.load(Ordering::SeqCst);
        let observer = self.observer.clone();
        // Replay starts from the supervision base (installed by a durable
        // snapshot or by recovery) when one exists; entries below its index
        // are folded into that state already.
        let base = lock(&shard.h.base).clone();
        let (base_idx, mut tracker) = match &base {
            Some(b) => (
                b.idx,
                SessionTracker::import_state(self.cfg.mode, b.state.clone()),
            ),
            None => (0, SessionTracker::new(self.cfg.mode)),
        };
        let mut rebuilt = 0u64;
        let mut replayed = 0u64;
        for entry in &entries {
            if entry.idx < base_idx {
                continue;
            }
            // Epochs are absolute; `systems` starts at `epoch_base` (0 for
            // a fresh engine). After a recovery only the current model
            // survives, so an older-epoch entry clamps to the oldest held.
            let sys_idx =
                (entry.epoch.saturating_sub(self.epoch_base) as usize).min(self.systems.len() - 1);
            let system: &Ucad = &self.systems[sys_idx];
            // Replaying an old-epoch entry must not memoize stale scores
            // into the current cache epoch.
            let cache = if entry.epoch == self.epoch {
                self.cache.as_deref()
            } else {
                None
            };
            let live = entry.idx >= watermark;
            if live {
                replayed += 1;
            } else {
                rebuilt += 1;
            }
            let entry_observer = if live { observer.as_deref() } else { None };
            match &entry.msg {
                WalMsg::Record(record, seq) => {
                    if live {
                        shard.h.records.inc();
                    }
                    let start = Instant::now();
                    let raised = tracker.ingest(system, cache, entry_observer, record, *seq);
                    if live {
                        let score_secs = start.elapsed().as_secs_f64();
                        shard.h.score_latency.observe(score_secs);
                        shard.h.latency_score.observe(score_secs);
                        // Queue residency died with the worker's queue —
                        // replayed alerts carry no queue-wait attribution.
                        if let Some(raised) = raised {
                            book_alert(&shard.h, i, &self.flight, entry_observer, raised, 0, None);
                        }
                        if let Some(observer) = entry_observer {
                            observer.on_scored(*seq);
                        }
                    }
                }
                WalMsg::Close(session_id) => {
                    let raised = tracker.close(system, cache, entry_observer, *session_id);
                    let mut normals = tracker.take_verified_normals();
                    if live {
                        if let Some(raised) = raised {
                            book_alert(&shard.h, i, &self.flight, entry_observer, raised, 0, None);
                        }
                        if !normals.is_empty() {
                            lock(&shard.h.feedback).append(&mut normals);
                        }
                    }
                }
                WalMsg::FalseAlarm(session_id) => {
                    tracker.confirm_false_alarm(*session_id);
                    let mut normals = tracker.take_verified_normals();
                    if live && !normals.is_empty() {
                        lock(&shard.h.feedback).append(&mut normals);
                    }
                }
            }
        }
        // Everything in the log is now processed; keep only what a future
        // replay of the still-open sessions would need (plus sessions the
        // base still lists open — their closes must stay replayable).
        shard.h.processed.store(wal_top, Ordering::SeqCst);
        lock(&shard.h.wal).entries.retain(|e| {
            tracker.has_session(e.session_id)
                || base
                    .as_ref()
                    .is_some_and(|b| b.open.contains(&e.session_id))
        });
        // The dead worker's queue died with it; replay covered its
        // contents, so the fresh queue starts empty.
        shard.h.queue_depth.set(0.0);
        let spec = WorkerSpec {
            shard: i,
            system: Arc::clone(&self.system),
            cache: self.cache.clone(),
            flight: Arc::clone(&self.flight),
            observer,
        };
        *link = spawn_worker(spec, shard.h.clone(), self.cfg.queue_capacity, tracker);
        self.worker_restarts.inc();
        ucad_obs::event(
            "serve.worker_restart",
            &[
                ("shard", i.to_string()),
                ("rebuilt", rebuilt.to_string()),
                ("replayed", replayed.to_string()),
            ],
        );
        true
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
        // record is dropped whole (no shadow feed, no in-memory log entry).
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
        if self.degrade.is_some() {
            // Shadow context: the fallback needs the session's full key
            // sequence even for records the real path scored.
            let key = self.system.preprocessor.vocab.key_of_sql(&record.sql);
            if let Some(state) = self.degrade.as_mut() {
                state
                    .sessions
                    .entry(record.session_id)
                    .or_default()
                    .keys
                    .push(key);
            }
        }
        let rec = Arc::new(record.clone());
        let idx = lock(&self.shards[i].h.wal).append(
            self.epoch,
            record.session_id,
            WalMsg::Record(Arc::clone(&rec), seq),
        );
        let depth = (self.shards[i].h.queue_depth.add(1.0) - 1.0).max(0.0) as usize;
        let msg = Msg::Record(rec, seq, depth, Instant::now());
        if self.cfg.overload == OverloadPolicy::Block {
            let sent = lock(&self.shards[i].link).tx.send(msg);
            if sent.is_err() {
                // Dead receiver: the std channel wakes blocked senders when
                // the worker drops its end, so a crashed shard can never
                // deadlock submission. Supervision replays the appended
                // entry — do not resend.
                self.supervise_shard(i, true);
            }
            return Ok(SubmitOutcome::Accepted);
        }
        let saturated = ucad_fault::on_submit_saturated(i);
        let refused = if saturated {
            Some(())
        } else {
            // Bind before matching: a `match lock(..).try_send(..)` scrutinee
            // would keep the link guard alive across the whole match, and the
            // Disconnected arm re-locks the link inside `supervise_shard` —
            // a self-deadlock the moment a dead worker is observed here.
            let sent = lock(&self.shards[i].link).tx.try_send(msg);
            match sent {
                Ok(()) => None,
                Err(TrySendError::Disconnected(_)) => {
                    self.supervise_shard(i, true);
                    return Ok(SubmitOutcome::Accepted);
                }
                Err(TrySendError::Full(_)) => Some(()),
            }
        };
        if refused.is_none() {
            return Ok(SubmitOutcome::Accepted);
        }
        // Saturated: the record will not reach the worker, so its log entry
        // must go too — otherwise replay would double-process everything
        // behind the resulting index gap. The durable entry cannot pop; a
        // paired Revoke marker cancels it for recovery replay instead.
        lock(&self.shards[i].h.wal).pop_unsent(idx);
        self.shards[i].h.queue_depth.add(-1.0);
        self.revoke_durable(i);
        Ok(match self.cfg.overload {
            OverloadPolicy::ShedNewest => {
                self.records_shed.inc();
                SubmitOutcome::Shed
            }
            OverloadPolicy::Degrade => self.degrade_score(i, record, seq),
            OverloadPolicy::Block => unreachable!("handled above"),
        })
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
        if raise {
            shadow.alerted = true;
        }
        if raise {
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
            self.shards[i].h.alerts.inc();
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
            if let Some(observer) = &self.observer {
                observer.on_alert(&alert);
            }
            lock(&self.shards[i].h.outbox).alerts.push(OutboxAlert {
                seq,
                raised_at: Some(Instant::now()),
                alert,
            });
        }
        if let Some(observer) = &self.observer {
            observer.on_scored(seq);
        }
        SubmitOutcome::Degraded
    }

    /// Appends a control message to the shard's log and sends it,
    /// supervising on a dead receiver (the entry is then consumed by
    /// replay). Control messages always block — overload policies apply to
    /// records only.
    fn send_control(&mut self, session_id: u64, wal_msg: WalMsg) {
        if let Some(state) = self.degrade.as_mut() {
            state.sessions.remove(&session_id);
        }
        let i = self.shard_of(session_id);
        let durable_entry = match &wal_msg {
            WalMsg::Close(id) => DurableEntry::Close {
                session_id: *id,
                epoch: self.epoch,
            },
            WalMsg::FalseAlarm(id) => DurableEntry::FalseAlarm {
                session_id: *id,
                epoch: self.epoch,
            },
            WalMsg::Record(..) => unreachable!("records go through submit"),
        };
        if let Err(e) = self.append_durable(i, &durable_entry) {
            // The in-memory path still applies the control, so the live run
            // stays correct; a later recovery may miss this close and
            // re-raise its alert — the drain-side delivered filter absorbs
            // the duplicate (at-least-once below the drain boundary).
            ucad_obs::event(
                "serve.wal_control_append_failed",
                &[("shard", i.to_string()), ("error", e.to_string())],
            );
        }
        lock(&self.shards[i].h.wal).append(self.epoch, session_id, wal_msg.clone());
        let depth = (self.shards[i].h.queue_depth.add(1.0) - 1.0).max(0.0) as usize;
        let msg = match wal_msg {
            WalMsg::Close(id) => Msg::Close(id, depth),
            WalMsg::FalseAlarm(id) => Msg::FalseAlarm(id),
            WalMsg::Record(..) => unreachable!("records go through submit"),
        };
        let sent = lock(&self.shards[i].link).tx.send(msg);
        if sent.is_err() {
            self.supervise_shard(i, true);
        }
    }

    /// Closes a session on its shard (Block mode scores the pending tail,
    /// which can itself raise an alert); unalerted sessions join the
    /// shard's verified-normal feedback buffer.
    pub fn close_session(&mut self, session_id: u64) {
        self.send_control(session_id, WalMsg::Close(session_id));
    }

    /// DBA feedback: the alert on `session_id` was a false alarm.
    pub fn confirm_false_alarm(&mut self, session_id: u64) {
        self.send_control(session_id, WalMsg::FalseAlarm(session_id));
    }

    /// Atomically hot-swaps the serving model, returning the new model
    /// epoch. The swap happens at a global cut in the submission order:
    ///
    /// 1. a flush barrier completes every record submitted so far against
    ///    the **old** model (healing any crashed shard under that model),
    /// 2. the shared [`ScoreCache`] advances its epoch, marking every score
    ///    memoized from the old weights stale (they are dropped on their
    ///    next lookup, never served),
    /// 3. each shard receives the new system on its FIFO queue, ahead of
    ///    anything submitted afterwards.
    ///
    /// Because `&mut self` serializes submission against the swap and the
    /// per-shard queues are FIFO, every record is scored by exactly the
    /// model that was current when it was submitted — for any shard count,
    /// and even when a shard crashes around the cut (write-ahead entries
    /// remember their epoch; replay scores them with that model). Sessions
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
        let serving = self.system.model.cfg.vocab_size;
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
        if let Some(cache) = &self.cache {
            cache.advance_epoch();
        }
        let mut system = (*self.system).clone();
        system.model = model;
        let system = Arc::new(system);
        self.system = Arc::clone(&system);
        self.systems.push(Arc::clone(&system));
        self.epoch += 1;
        for i in 0..self.shards.len() {
            let sent = lock(&self.shards[i].link)
                .tx
                .send(Msg::Swap(Arc::clone(&system)));
            if sent.is_err() {
                // The respawned worker picks up the already-installed new
                // system directly; no swap message needed.
                self.supervise_shard(i, true);
            }
        }
        self.swaps.inc();
        self.epoch_gauge.set(self.epoch as f64);
        ucad_obs::event("serve.model_swap", &[("epoch", self.epoch.to_string())]);
        if self.durable.is_some() {
            let marker = encode_json(&MetaEntry::Epoch { epoch: self.epoch });
            self.durable
                .as_mut()
                .expect("checked above")
                .meta
                .append(&marker)?;
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
        for i in 0..self.shards.len() {
            self.snapshot_shard(i)?;
        }
        if let Some(d) = self.durable.as_mut() {
            d.appends_since_snapshot = 0;
        }
        Ok(())
    }

    fn snapshot_shard(&mut self, i: usize) -> Result<(), UcadError> {
        let state = self.export_tracker(i);
        let epoch = self.epoch;
        let next_seq = self.next_seq;
        let h = self.shards[i].h.clone();
        let d = self
            .durable
            .as_mut()
            .expect("snapshot_shard requires durability");
        let sd = &mut d.shards[i];
        // Everything the snapshot claims to cover must be on disk first.
        sd.wal.sync()?;
        let wal_idx = sd.wal.next_idx();
        let snap = ShardSnapshot {
            wal_idx,
            epoch,
            next_seq,
            ops: sd.ops,
            tracker: state.clone(),
            // Raise instants are process-local; the durable format keeps
            // only (seq, alert), unchanged across this refactor.
            outbox: lock(&h.outbox)
                .alerts
                .iter()
                .map(|a| (a.seq, a.alert.clone()))
                .collect(),
            feedback: lock(&h.feedback).clone(),
        };
        sd.snaps.save(wal_idx, &encode_json(&snap))?;
        // Segments wholly below the *previous* retained snapshot are
        // unreachable even if the one just written turns out damaged (the
        // store keeps two; recovery falls back to the older).
        sd.wal.truncate_below(sd.last_snap);
        sd.last_snap = wal_idx;
        // Advance the supervision base: in-memory entries below the flush
        // watermark are folded into the exported state and can be pruned.
        let in_mem_idx = lock(&h.wal).next_idx;
        let open: HashSet<u64> = state.sessions.iter().map(|s| s.session.id).collect();
        *lock(&h.base) = Some(BaseState {
            idx: in_mem_idx,
            open,
            state,
        });
        lock(&h.wal).entries.retain(|e| e.idx >= in_mem_idx);
        ucad_obs::event(
            "serve.snapshot",
            &[("shard", i.to_string()), ("wal_idx", wal_idx.to_string())],
        );
        Ok(())
    }

    /// Exports shard `i`'s live session state through a queue barrier,
    /// healing the worker (whose supervision replay rebuilds the same
    /// state) and retrying if it dies mid-export. Call after a flush so
    /// the export reflects everything submitted.
    fn export_tracker(&self, i: usize) -> TrackerState {
        loop {
            let (tx, rx) = sync_channel(1);
            let sent = lock(&self.shards[i].link).tx.send(Msg::Export(tx));
            if sent.is_ok() {
                loop {
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(state) => return state,
                        Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {
                            let dead = lock(&self.shards[i].link)
                                .handle
                                .as_ref()
                                .is_none_or(|h| h.is_finished());
                            if dead {
                                break;
                            }
                        }
                    }
                }
            }
            // Dead worker: heal it and retry (fault plans are finite).
            self.supervise_shard(i, true);
        }
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
    /// are leaked outright. Exists for crash-recovery tests, where `Drop`'s
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
        let mut sessions = Vec::new();
        for shard in &self.shards {
            sessions.append(&mut lock(&shard.h.feedback));
        }
        sessions
    }

    /// Barrier: returns once every message submitted so far has been fully
    /// processed by its shard — healing dead workers along the way. The
    /// pass repeats until a whole round completes with no restart and no
    /// failed barrier, so a worker dying *during* the flush (e.g. an
    /// injected panic on a still-queued record) is also healed before the
    /// call returns; fault plans are finite, so the loop terminates.
    pub fn flush(&self) {
        loop {
            let mut stable = true;
            for i in 0..self.shards.len() {
                if self.supervise_shard(i, false) {
                    stable = false;
                }
            }
            let acks: Vec<Option<Receiver<()>>> = self
                .shards
                .iter()
                .map(|shard| {
                    let (ack_tx, ack_rx) = sync_channel(1);
                    lock(&shard.link)
                        .tx
                        .send(Msg::Flush(ack_tx))
                        .ok()
                        .map(|()| ack_rx)
                })
                .collect();
            for (i, ack) in acks.into_iter().enumerate() {
                let acked = match ack {
                    Some(rx) => self.await_ack(i, rx),
                    None => false,
                };
                if !acked {
                    stable = false;
                }
            }
            if stable {
                return;
            }
        }
    }

    /// Waits for one shard's flush ack. A plain `recv()` here can park
    /// forever: if the worker dies *after* the barrier was queued, its
    /// receiver drops but the engine still holds the queue's sender, so the
    /// buffered `Flush` message — and the ack sender inside it — is never
    /// destroyed. The wait therefore re-checks worker liveness on a short
    /// timeout; a dead worker fails the ack, and the flush loop supervises
    /// and retries.
    fn await_ack(&self, i: usize, rx: Receiver<()>) -> bool {
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(()) => return true,
                Err(RecvTimeoutError::Disconnected) => return false,
                Err(RecvTimeoutError::Timeout) => {
                    let dead = lock(&self.shards[i].link)
                        .handle
                        .as_ref()
                        .is_none_or(|h| h.is_finished());
                    if dead {
                        return false;
                    }
                }
            }
        }
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
        // Per-shard outboxes merge through the shared seq-sort helper —
        // the identical code path the cross-process router uses, so the
        // two scales cannot drift apart.
        let mut tagged: Vec<OutboxAlert> = merge_seq_sorted(
            self.shards
                .iter()
                .map(|shard| std::mem::take(&mut lock(&shard.h.outbox).alerts)),
            |a| a.seq,
        );
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
            records_per_shard: self.shards.iter().map(|s| s.h.records.get()).collect(),
            pending_alerts: self
                .shards
                .iter()
                .map(|s| lock(&s.h.outbox).alerts.len())
                .sum(),
            cache: self.cache.as_ref().map(|c| c.stats()),
            records_shed: self.records_shed.get(),
            records_degraded: self.records_degraded.get(),
            worker_restarts: self.worker_restarts.get(),
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
        let _ = lock(&self.shards[shard].link).tx.send(Msg::Panic);
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
        let mut verified_normals = Vec::new();
        for shard in &self.shards {
            verified_normals.append(&mut lock(&shard.h.feedback));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let mut link = lock(&shard.link);
            let _ = link.tx.send(Msg::Shutdown);
            if let Some(handle) = link.handle.take() {
                if let Err(panic) = handle.join() {
                    self.record_panic(i, panic);
                }
            }
        }
        let worker_panics = std::mem::take(&mut *lock(&self.panic_log));
        let worker_restarts = self.worker_restarts.get();
        let flight = self.flight.entries();
        self.cache = None;
        self.shards.clear();
        let system_arc = Arc::clone(&self.system);
        self.systems.clear();
        drop(self);
        let system = Arc::try_unwrap(system_arc).unwrap_or_else(|arc| (*arc).clone());
        ShutdownReport {
            system,
            alerts,
            verified_normals,
            worker_panics,
            worker_restarts,
            flight,
        }
    }
}

impl Drop for ShardedOnlineUcad {
    fn drop(&mut self) {
        // Dropping the senders ends each worker's recv loop; detach rather
        // than join so a panicking test does not deadlock on its own shards.
        for shard in &mut self.shards {
            let _ = lock(&shard.link).tx.send(Msg::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
