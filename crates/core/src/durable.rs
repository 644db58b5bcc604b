//! The durable half of [`ShardedOnlineUcad`](crate::ShardedOnlineUcad):
//! the on-disk record format (JSON payloads in `ucad-wal` CRC frames), the
//! meta log, the per-shard logs and snapshots, and crash recovery. The
//! engine front calls in through [`DurableState`] and names none of the
//! storage types.

use crate::online::{Alert, TrackerState};
use crate::serve::{ServeConfig, TENANT};
use crate::serve_core::{
    lock, Op, OutboxAlert, Route, RoutedOp, ShardCore, ShardHandles, Trackers,
};
use crate::system::Ucad;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use ucad_dbsim::LogRecord;
use ucad_model::{DetectionMode, UcadError};
use ucad_obs::{Counter, MetricKind, Registry};
use ucad_wal::{SegmentedWal, SnapshotStore, WalMetrics, WalOptions};

/// Where and how the engine persists its state. Passed to
/// [`ShardedOnlineUcad::recover`](crate::ShardedOnlineUcad::recover);
/// engines built without one keep the in-memory-only fault tolerance
/// (thread supervision, no process-crash recovery).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of the durable state: `meta/` (routing config, drain
    /// markers, epoch cuts) plus `shard-N/wal/` and `shard-N/snap/` per
    /// shard.
    pub dir: PathBuf,
    /// Automatically snapshot every shard (and truncate the logs) once this
    /// many operations have been appended since the last snapshot, checked
    /// at drain time. 0 = automatic snapshots off; explicit
    /// [`ShardedOnlineUcad::snapshot`](crate::ShardedOnlineUcad::snapshot)
    /// calls and model swaps still snapshot.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with no automatic snapshots. Shard logs
    /// use [`WalOptions::default`]: 1 MiB segments, fsync on every append.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 0,
        }
    }

    /// Sets the automatic snapshot cadence in appends (0 disables).
    pub fn snapshot_every(mut self, appends: u64) -> Self {
        self.snapshot_every = appends;
        self
    }
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
    /// Cancels the immediately preceding entry: its send was refused (shed),
    /// so replay must not score it. Always directly follows the entry it
    /// cancels — the engine appends it in the same submission.
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
    /// A completed drain: the global sequence counter at the drain and the
    /// alert seqs handed to the caller. Replay filters these out forever —
    /// the exactly-once boundary.
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

/// The storage counters every engine registry exposes (they stay at zero
/// on in-memory engines).
pub(crate) struct DurableMetrics {
    wal: WalMetrics,
    replayed: Counter,
    recoveries: Counter,
}

impl DurableMetrics {
    /// Describes and fetches the storage series on `registry`.
    pub(crate) fn register(registry: &Registry) -> Self {
        let counter = |name, help| {
            registry.describe(name, MetricKind::Counter, help);
            registry.counter(name, &[])
        };
        DurableMetrics {
            wal: WalMetrics {
                segments: counter(
                    "ucad_wal_segments_total",
                    "Durable WAL segment files opened for appending",
                ),
                fsyncs: counter("ucad_wal_fsyncs_total", "Durable WAL fsync barriers issued"),
                appends: counter(
                    "ucad_wal_appends_total",
                    "Records appended to the durable WAL",
                ),
            },
            replayed: counter(
                "ucad_wal_replayed_records_total",
                "Durable WAL records replayed during crash recovery",
            ),
            recoveries: counter(
                "ucad_serve_recoveries_total",
                "Engine constructions that recovered prior durable state",
            ),
        }
    }
}

/// Everything behind a [`DurabilityConfig`]: the meta log, the per-shard
/// logs and snapshot stores, and the delivered-alert filter.
pub(crate) struct DurableState {
    cfg: DurabilityConfig,
    mode: DetectionMode,
    metrics: DurableMetrics,
    meta: SegmentedWal,
    shards: Vec<ShardDurable>,
    /// Alert seqs already handed to a caller by a recorded drain; replayed
    /// duplicates of these are filtered at the next drain.
    delivered: HashSet<u64>,
    /// Shard-log appends since the last snapshot round, for the automatic
    /// snapshot cadence.
    appends_since_snapshot: u64,
    /// The global sequence counter and model epoch recovery resumes at.
    next_seq: u64,
    epoch: u64,
    /// Whether the directory held state from a prior engine life.
    prior_state: bool,
}

impl DurableState {
    /// Opens the meta log: checks a prior life's routing against `serve` (a
    /// fresh directory records it) and learns the delivered-alert seqs and
    /// the epoch to resume at. Shards follow, one `recover_shard` each.
    pub(crate) fn open(
        cfg: DurabilityConfig,
        serve: &ServeConfig,
        metrics: DurableMetrics,
    ) -> Result<Self, UcadError> {
        let meta_dir = cfg.dir.join("meta");
        let meta_origin = meta_dir.display().to_string();
        let meta_opts = WalOptions {
            // Never truncated and tiny: one segment per directory lifetime
            // is plenty, so rotation is effectively off.
            segment_max_bytes: u64::MAX,
            // Drain markers are the exactly-once boundary: sync each one.
            fsync_every: 1,
        };
        let (meta, rec) = SegmentedWal::open(meta_dir, meta_opts, metrics.wal.clone())?;
        let mut state = DurableState {
            cfg,
            mode: serve.mode,
            metrics,
            meta,
            shards: Vec::with_capacity(serve.shards),
            delivered: HashSet::new(),
            appends_since_snapshot: 0,
            next_seq: 0,
            epoch: 0,
            prior_state: false,
        };
        for payload in &rec.entries {
            match decode_json::<MetaEntry>(payload, &meta_origin)? {
                MetaEntry::Config { shards, seed, mode } => {
                    state.prior_state = true;
                    if shards != serve.shards || seed != serve.seed || mode != serve.mode {
                        return Err(UcadError::invalid(
                            "durability",
                            format!(
                                "directory was written with shards={shards}, seed={seed}, \
                                 mode={mode:?}; recovery requires the same shard routing \
                                 and scoring discipline (got shards={}, seed={}, mode={:?})",
                                serve.shards, serve.seed, serve.mode
                            ),
                        ));
                    }
                }
                MetaEntry::Drain {
                    next_seq: at,
                    delivered: seqs,
                } => {
                    state.next_seq = state.next_seq.max(at);
                    state.delivered.extend(seqs);
                }
                MetaEntry::Epoch { epoch } => state.epoch = state.epoch.max(epoch),
            }
        }
        if !state.prior_state {
            state.meta.append(&encode_json(&MetaEntry::Config {
                shards: serve.shards,
                seed: serve.seed,
                mode: serve.mode,
            }))?;
        }
        Ok(state)
    }

    /// Opens the next shard (in index order) and rebuilds its state into `h`
    /// from the newest intact snapshot plus the durable suffix, replayed
    /// under `system` — alerts and all — without cache or observer (a
    /// memoized score is bit-identical; the observer's feed is per engine
    /// life). Returns the trackers the shard's worker starts from.
    pub(crate) fn recover_shard(
        &mut self,
        h: &ShardHandles,
        system: &Arc<Ucad>,
    ) -> Result<Trackers, UcadError> {
        let shard_dir = self.cfg.dir.join(format!("shard-{}", self.shards.len()));
        let origin = shard_dir.display().to_string();
        let (wal, rec) = SegmentedWal::open(
            shard_dir.join("wal"),
            WalOptions::default(),
            self.metrics.wal.clone(),
        )?;
        let snaps = SnapshotStore::open(shard_dir.join("snap"))?;
        let mut trackers = Trackers::new(self.mode);
        let mut ops = 0u64;
        let mut from_idx = rec.first_idx;
        if let Some((snap_seq, payload)) = snaps.load_latest()? {
            let snap: ShardSnapshot = decode_json(&payload, &origin)?;
            self.prior_state = true;
            trackers = Trackers::import(self.mode, vec![(TENANT, snap.tracker)]);
            // Restored alerts lost their raise instant with the process that
            // raised them: no drain-delay attribution.
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
            self.next_seq = self.next_seq.max(snap.next_seq);
            self.epoch = self.epoch.max(snap.epoch);
            ops = snap.ops;
            from_idx = snap_seq;
        }
        // Decode the durable suffix and drop revoked pairs. A `Revoke`
        // always directly follows the entry it cancels and never straddles
        // a snapshot cut (both are appended in one submission, snapshots
        // only between submissions), so a simple pop suffices.
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
        self.prior_state |= !effective.is_empty();
        let route = Route::new(TENANT, Arc::clone(system), None, None, None, None);
        for op in effective {
            if let Op::Record(_, seq) = op {
                self.next_seq = self.next_seq.max(seq + 1);
            }
            ops += 1;
            self.metrics.replayed.inc();
            let op = RoutedOp {
                route: Arc::clone(&route),
                op,
            };
            h.apply(&mut trackers, &op, true, 0, None);
        }
        // The rebuilt state becomes the supervision base (the ring restarts
        // empty).
        h.rebase(trackers.export());
        self.shards.push(ShardDurable {
            wal,
            snaps,
            ops,
            last_snap: from_idx,
        });
        Ok(trackers)
    }

    /// Ends recovery, counting it if the directory held prior state, and
    /// returns the `(next_seq, epoch)` the engine resumes at.
    pub(crate) fn finish_recovery(&self) -> (u64, u64) {
        if self.prior_state {
            self.metrics.recoveries.inc();
            ucad_obs::event(
                "serve.recovery",
                &[
                    ("replayed", self.metrics.replayed.get().to_string()),
                    ("epoch", self.epoch.to_string()),
                    ("next_seq", self.next_seq.to_string()),
                ],
            );
        }
        (self.next_seq, self.epoch)
    }

    /// Appends `op`, submitted under model `epoch`, to shard `i`'s log.
    pub(crate) fn append(&mut self, i: usize, op: &Op, epoch: u64) -> Result<(), UcadError> {
        let entry = match *op {
            Op::Record(ref record, seq) => DurableEntry::Record {
                seq,
                epoch,
                record: LogRecord::clone(record),
            },
            Op::Close(session_id) => DurableEntry::Close { session_id, epoch },
            Op::FalseAlarm(session_id) => DurableEntry::FalseAlarm { session_id, epoch },
        };
        let sd = &mut self.shards[i];
        sd.wal.append(&encode_json(&entry))?;
        sd.ops += 1;
        self.appends_since_snapshot += 1;
        Ok(())
    }

    /// Cancels shard `i`'s just-appended entry, whose send was refused (a
    /// shed record), with a paired [`DurableEntry::Revoke`]. If even that
    /// append fails, a later recovery would score the refused record —
    /// surfaced as an event, never a panic.
    pub(crate) fn revoke(&mut self, i: usize) {
        let sd = &mut self.shards[i];
        match sd.wal.append(&encode_json(&DurableEntry::Revoke)) {
            Ok(_) => sd.ops = sd.ops.saturating_sub(1),
            Err(e) => ucad_obs::event(
                "serve.wal_revoke_failed",
                &[("shard", i.to_string()), ("error", e.to_string())],
            ),
        }
    }

    /// Durably records a completed model swap to `epoch`.
    pub(crate) fn record_epoch(&mut self, epoch: u64) -> Result<(), UcadError> {
        self.meta
            .append(&encode_json(&MetaEntry::Epoch { epoch }))?;
        Ok(())
    }

    /// Snapshots every shard of the flushed `core`, truncates the logs below
    /// the previous retained snapshot and advances the supervision bases.
    pub(crate) fn snapshot(
        &mut self,
        core: &ShardCore,
        epoch: u64,
        next_seq: u64,
    ) -> Result<(), UcadError> {
        for (i, sd) in self.shards.iter_mut().enumerate() {
            let states = core.export(i);
            let tracker = states
                .iter()
                .find(|(tenant, _)| *tenant == TENANT)
                .map(|(_, state)| state.clone())
                .unwrap_or_default();
            let h = core.handles(i);
            // Everything the snapshot claims to cover must be on disk first.
            sd.wal.sync()?;
            let wal_idx = sd.wal.next_idx();
            let snap = ShardSnapshot {
                wal_idx,
                epoch,
                next_seq,
                ops: sd.ops,
                tracker,
                // Raise instants are process-local; the durable format
                // keeps only (seq, alert).
                outbox: lock(&h.outbox)
                    .iter()
                    .map(|a| (a.seq, a.alert.clone()))
                    .collect(),
                feedback: lock(&h.feedback).iter().map(|(_, k)| k.clone()).collect(),
            };
            sd.snaps.save(wal_idx, &encode_json(&snap))?;
            // Segments wholly below the *previous* retained snapshot are
            // unreachable even if the one just written turns out damaged
            // (the store keeps two; recovery falls back to the older).
            sd.wal.truncate_below(sd.last_snap);
            sd.last_snap = wal_idx;
            // Ring entries below the flush watermark are folded into the
            // exported state: advance the supervision base past them.
            h.rebase(states);
            ucad_obs::event(
                "serve.snapshot",
                &[("shard", i.to_string()), ("wal_idx", wal_idx.to_string())],
            );
        }
        self.appends_since_snapshot = 0;
        Ok(())
    }

    /// The drain boundary: drops the alerts a recorded drain delivered and
    /// records the rest in a fsynced marker. Returns whether the automatic
    /// snapshot cadence is due.
    pub(crate) fn deliver(&mut self, drained: &mut Vec<OutboxAlert>, next_seq: u64) -> bool {
        drained.retain(|a| !self.delivered.contains(&a.seq));
        if !drained.is_empty() {
            let newly: Vec<u64> = drained.iter().map(|a| a.seq).collect();
            let marker = MetaEntry::Drain {
                next_seq,
                delivered: newly.clone(),
            };
            match self.meta.append(&encode_json(&marker)) {
                Ok(_) => self.delivered.extend(newly),
                // Marker lost: these alerts stay unrecorded and a crash
                // re-delivers them — at-least-once, never silently lost.
                Err(e) => {
                    ucad_obs::event("serve.wal_drain_marker_failed", &[("error", e.to_string())])
                }
            }
        }
        self.cfg.snapshot_every > 0 && self.appends_since_snapshot >= self.cfg.snapshot_every
    }

    /// Forces the batched shard log tails to disk (graceful shutdown).
    pub(crate) fn sync_shards(&mut self) {
        for sd in &mut self.shards {
            let _ = sd.wal.sync();
        }
    }

    /// Effective durable operations per shard, over the directory's life.
    pub(crate) fn ops_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ops).collect()
    }
}
