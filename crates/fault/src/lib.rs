//! # ucad-fault
//!
//! Deterministic, seeded fault injection for the UCAD serving stack.
//!
//! A [`FaultPlan`] describes *which* faults fire and *when* — shard-worker
//! panics at the Nth record, artificial scoring stalls, forced queue
//! saturation, and checkpoint-file I/O failures or corruption. Hook
//! functions are compiled into the serving engine, the detector scoring
//! path and the checkpoint store; every hook first checks a single relaxed
//! atomic and returns immediately when no plan is armed, so production runs
//! pay one predictable load per hook and nothing else.
//!
//! Plans are armed two ways:
//!
//! * **Environment** — set `UCAD_FAULTS` to a spec string before the first
//!   hook runs, e.g. `UCAD_FAULTS="panic=40@1;stall_us=500;fs_fail=2"`.
//!   This is how the CI chaos soak drives a release binary.
//! * **Programmatically** — build a [`FaultPlan`] and call
//!   [`FaultPlan::arm`]. The returned [`Armed`] guard serializes every
//!   plan-holding (or explicitly quiet, see [`quiesce`]) section in the
//!   process, so parallel tests can never observe each other's faults, and
//!   disarms on drop.
//!
//! ## Spec grammar
//!
//! `;`- or `,`-separated `key=value` tokens:
//!
//! | token                | fault                                                        |
//! |----------------------|--------------------------------------------------------------|
//! | `seed=S`             | seed recorded on the plan (reserved for probabilistic modes) |
//! | `panic=N`            | panic the worker processing the Nth record overall (1-based) |
//! | `panic=N@S`          | panic shard S's worker at its own Nth record (repeatable)    |
//! | `stall_us=U`         | sleep U microseconds inside each scoring forward             |
//! | `stall_every=K`      | stall only every Kth forward (default 1)                     |
//! | `stall_limit=M`      | stop stalling after M stalls (default unlimited)             |
//! | `saturate=A..B`      | submissions A..B (0-based, half-open) see a full queue       |
//! | `saturate=A..B@S`    | same, but only on shard S                                    |
//! | `fs_fail=K`          | the next K durable-file operations fail with an I/O error    |
//! | `fs_corrupt=K`       | the next K checkpoint reads return a bit-flipped payload     |
//! | `fs_scope=DIR`       | fault only fs operations on paths under DIR                  |
//! | `proc_crash=K`       | abort the whole process just before its Kth WAL append       |
//! | `conn_reset=K`       | drop every Kth daemon connection request before handling it  |
//! | `net_stall_us=U`     | sleep U microseconds inside each network I/O hook            |
//! | `net_stall_every=K`  | net-stall only every Kth I/O (default 1)                     |
//! | `net_stall_limit=M`  | stop net-stalling after M stalls (default unlimited)         |
//! | `torn_frame=K`       | half-write every Kth submit response, then kill the socket   |
//! | `blackhole=A..B`     | daemon requests A..B (0-based, half-open) get no response    |
//! | `crash_reply=K`      | abort the process just before its Kth submit response        |
//!
//! Every trigger is a pure function of deterministic counters (records
//! processed, submissions attempted, fs operations issued, frames read or
//! written), so a faulted run is exactly reproducible.

#![warn(missing_docs)]

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// One worker-panic trigger: fire (once) when the counted record reaches
/// `nth` (1-based). With `shard` set the count is that shard's own record
/// count; otherwise records are counted across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicSpec {
    /// Shard whose worker panics; `None` counts records globally.
    pub shard: Option<usize>,
    /// 1-based record count at which the panic fires.
    pub nth: u64,
}

/// Artificial scoring stall: every `every`th scoring forward sleeps for
/// `micros` microseconds, at most `limit` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// Sleep duration per stall, in microseconds.
    pub micros: u64,
    /// Stall every Kth forward (1 = every forward).
    pub every: u64,
    /// Maximum number of stalls before the trigger exhausts.
    pub limit: u64,
}

/// Forced queue saturation: submission attempts in `from..until` (0-based,
/// counted per plan) report a full queue. With `shard` set only that
/// shard's submissions are counted and saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturateSpec {
    /// Shard to saturate; `None` saturates whichever shard the counted
    /// submission routes to.
    pub shard: Option<usize>,
    /// First saturated submission attempt (inclusive).
    pub from: u64,
    /// First submission attempt past the saturated range (exclusive).
    pub until: u64,
}

/// Checkpoint filesystem faults: budgets of injected failures, consumed
/// one per matching operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsSpec {
    /// The next `fail_ops` read/write/rename operations fail with an
    /// injected I/O error.
    pub fail_ops: u64,
    /// The next `corrupt_reads` successful reads return a payload with one
    /// bit flipped.
    pub corrupt_reads: u64,
    /// When set, only operations on paths under this directory are counted
    /// and faulted. Lets a test scope its faults to its own temp dir so
    /// parallel tests routing through the same shim stay untouched.
    pub scope: Option<std::path::PathBuf>,
}

/// Network damage schedule, hooked into the `ucad-net` daemon's connection
/// handling and the client's I/O path. All triggers count deterministic
/// per-process frame counters, so a faulted soak replays exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSpec {
    /// When nonzero, every `conn_reset`th request frame a daemon reads is
    /// dropped *before* handling and its connection is closed — the wire
    /// analogue of an `ECONNRESET` racing the request. The request had no
    /// effect, so a retry is always safe.
    pub conn_reset: u64,
    /// Artificial network stall: each triggered I/O hook (daemon frame
    /// handling, client send) sleeps per the schedule.
    pub stall: Option<StallSpec>,
    /// When nonzero, every `torn_frame`th *submit* response is written only
    /// halfway and the connection is killed — the peer observes a torn
    /// frame after the engine already consumed the record, which is exactly
    /// the lost-ack window resubmit dedupe exists for.
    pub torn_frame: u64,
    /// Request frames `from..until` (0-based, half-open, counted across
    /// connections) are read and then silently ignored: no handling, no
    /// response. The client's read deadline is what gets it unstuck.
    pub blackhole: Option<(u64, u64)>,
    /// Abort the whole process — the daemon's self-inflicted `kill -9` —
    /// immediately *before* writing its Kth submit response (1-based). The
    /// triggering record is already durable by then, so recovery replays it
    /// and the router's resubmit must be acked as a duplicate.
    pub crash_reply: Option<u64>,
}

/// A deterministic fault schedule. Build one with the fluent methods, then
/// [`FaultPlan::arm`] it (tests) or export it as a `UCAD_FAULTS` spec (CI).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded on the plan; reserved for probabilistic triggers so
    /// spec strings stay forward-compatible.
    pub seed: u64,
    /// Worker-panic triggers (each fires at most once).
    pub panics: Vec<PanicSpec>,
    /// Scoring-stall schedule.
    pub stall: Option<StallSpec>,
    /// Forced queue-saturation window.
    pub saturate: Option<SaturateSpec>,
    /// Checkpoint filesystem fault budgets.
    pub fs: FsSpec,
    /// Abort the process — no unwinding, no destructors, the closest a
    /// process gets to `kill -9`-ing itself — immediately *before* its Kth
    /// WAL append (1-based, counted across every WAL in the process). The
    /// crash-recovery wall uses this to kill a child at a pinned append
    /// point and prove exactly K-1 records hit the disk.
    pub proc_crash: Option<u64>,
    /// Network damage schedule (see [`NetSpec`]).
    pub net: NetSpec,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a worker panic at the `nth` record (1-based) of `shard`, or of
    /// the whole engine when `shard` is `None`.
    pub fn panic_at(mut self, nth: u64, shard: Option<usize>) -> Self {
        self.panics.push(PanicSpec { shard, nth });
        self
    }

    /// Stalls every scoring forward by `micros` microseconds.
    pub fn stall_us(mut self, micros: u64) -> Self {
        self.stall = Some(StallSpec {
            micros,
            every: 1,
            limit: u64::MAX,
        });
        self
    }

    /// Saturates submission attempts `from..until`, optionally only on one
    /// shard.
    pub fn saturate(mut self, from: u64, until: u64, shard: Option<usize>) -> Self {
        self.saturate = Some(SaturateSpec { shard, from, until });
        self
    }

    /// Makes the next `n` checkpoint fs operations fail with an injected
    /// I/O error.
    pub fn fs_fail_ops(mut self, n: u64) -> Self {
        self.fs.fail_ops = n;
        self
    }

    /// Makes the next `n` checkpoint reads return a corrupted payload.
    pub fn fs_corrupt_reads(mut self, n: u64) -> Self {
        self.fs.corrupt_reads = n;
        self
    }

    /// Restricts fs fault injection to paths under `dir` (see
    /// [`FsSpec::scope`]).
    pub fn fs_scope(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.fs.scope = Some(dir.into());
        self
    }

    /// Aborts the process just before its `k`th WAL append (1-based). See
    /// [`FaultPlan::proc_crash`].
    pub fn proc_crash_at(mut self, k: u64) -> Self {
        self.proc_crash = Some(k);
        self
    }

    /// Drops every `k`th daemon request connection before handling (see
    /// [`NetSpec::conn_reset`]).
    pub fn conn_reset_every(mut self, k: u64) -> Self {
        self.net.conn_reset = k;
        self
    }

    /// Stalls every network I/O hook by `micros` microseconds.
    pub fn net_stall_us(mut self, micros: u64) -> Self {
        self.net.stall = Some(StallSpec {
            micros,
            every: 1,
            limit: u64::MAX,
        });
        self
    }

    /// Half-writes every `k`th submit response, then kills the connection
    /// (see [`NetSpec::torn_frame`]).
    pub fn torn_frame_every(mut self, k: u64) -> Self {
        self.net.torn_frame = k;
        self
    }

    /// Silently swallows daemon request frames `from..until` (see
    /// [`NetSpec::blackhole`]).
    pub fn blackhole(mut self, from: u64, until: u64) -> Self {
        self.net.blackhole = Some((from, until));
        self
    }

    /// Aborts the process just before its `k`th submit response (1-based).
    /// See [`NetSpec::crash_reply`].
    pub fn crash_reply_at(mut self, k: u64) -> Self {
        self.net.crash_reply = Some(k);
        self
    }

    /// Parses a `UCAD_FAULTS` spec string (see the module docs for the
    /// grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        let mut stall_us = None;
        let mut stall_every = 1u64;
        let mut stall_limit = u64::MAX;
        let mut net_stall_us = None;
        let mut net_stall_every = 1u64;
        let mut net_stall_limit = u64::MAX;
        for token in spec.split([';', ',']) {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault token `{token}` is not key=value"))?;
            let int = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("fault token `{token}`: `{v}` is not an integer"))
            };
            match key.trim() {
                "seed" => plan.seed = int(value)?,
                "panic" => {
                    let (nth, shard) = match value.split_once('@') {
                        Some((n, s)) => (int(n)?, Some(int(s)? as usize)),
                        None => (int(value)?, None),
                    };
                    if nth == 0 {
                        return Err("panic=0: records are counted from 1".into());
                    }
                    plan.panics.push(PanicSpec { shard, nth });
                }
                "stall_us" => stall_us = Some(int(value)?),
                "stall_every" => stall_every = int(value)?.max(1),
                "stall_limit" => stall_limit = int(value)?,
                "saturate" => {
                    let (range, shard) = match value.split_once('@') {
                        Some((r, s)) => (r, Some(int(s)? as usize)),
                        None => (value, None),
                    };
                    let (from, until) = range
                        .split_once("..")
                        .ok_or_else(|| format!("saturate=`{range}`: expected FROM..UNTIL"))?;
                    plan.saturate = Some(SaturateSpec {
                        shard,
                        from: int(from)?,
                        until: int(until)?,
                    });
                }
                "fs_fail" => plan.fs.fail_ops = int(value)?,
                "fs_corrupt" => plan.fs.corrupt_reads = int(value)?,
                "fs_scope" => plan.fs.scope = Some(value.trim().into()),
                "proc_crash" => {
                    let k = int(value)?;
                    if k == 0 {
                        return Err("proc_crash=0: WAL appends are counted from 1".into());
                    }
                    plan.proc_crash = Some(k);
                }
                "conn_reset" => {
                    let k = int(value)?;
                    if k == 0 {
                        return Err("conn_reset=0: request frames are counted from 1".into());
                    }
                    plan.net.conn_reset = k;
                }
                "net_stall_us" => net_stall_us = Some(int(value)?),
                "net_stall_every" => net_stall_every = int(value)?.max(1),
                "net_stall_limit" => net_stall_limit = int(value)?,
                "torn_frame" => {
                    let k = int(value)?;
                    if k == 0 {
                        return Err("torn_frame=0: submit responses are counted from 1".into());
                    }
                    plan.net.torn_frame = k;
                }
                "blackhole" => {
                    let (from, until) = value
                        .split_once("..")
                        .ok_or_else(|| format!("blackhole=`{value}`: expected FROM..UNTIL"))?;
                    plan.net.blackhole = Some((int(from)?, int(until)?));
                }
                "crash_reply" => {
                    let k = int(value)?;
                    if k == 0 {
                        return Err("crash_reply=0: submit responses are counted from 1".into());
                    }
                    plan.net.crash_reply = Some(k);
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        if let Some(micros) = stall_us {
            plan.stall = Some(StallSpec {
                micros,
                every: stall_every,
                limit: stall_limit,
            });
        }
        if let Some(micros) = net_stall_us {
            plan.net.stall = Some(StallSpec {
                micros,
                every: net_stall_every,
                limit: net_stall_limit,
            });
        }
        Ok(plan)
    }

    /// Arms the plan process-wide and returns a guard that disarms it on
    /// drop. Guards serialize: while one [`Armed`] (or [`Quiet`]) guard is
    /// alive, other `arm`/[`quiesce`] calls block — parallel tests can
    /// never leak faults into each other's runs.
    pub fn arm(self) -> Armed {
        let lock = serial_lock();
        let state = Arc::new(PlanState::new(self));
        let prev = {
            active_slot()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .replace(Arc::clone(&state))
        };
        ARMED.store(true, Ordering::Release);
        Armed {
            state,
            prev,
            _serial: lock,
        }
    }
}

/// Counters a plan accumulates while armed — what chaos tests assert
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics actually fired.
    pub panics_fired: u64,
    /// Scoring stalls actually slept.
    pub stalls: u64,
    /// Submission attempts forced to report a full queue.
    pub saturated: u64,
    /// Checkpoint fs operations attempted (reads + writes + renames).
    pub fs_ops: u64,
    /// Fs operations failed with an injected I/O error.
    pub fs_injected_io: u64,
    /// Reads returned with an injected corrupted payload.
    pub fs_injected_corrupt: u64,
    /// WAL appends observed while the plan was armed (what `proc_crash`
    /// counts against).
    pub wal_appends: u64,
    /// Daemon connections dropped by `conn_reset`.
    pub conn_resets: u64,
    /// Network I/O hooks actually stalled.
    pub net_stalls: u64,
    /// Submit responses half-written by `torn_frame`.
    pub torn_frames: u64,
    /// Daemon requests swallowed by `blackhole`.
    pub blackholed: u64,
}

/// Live state of an armed plan: the immutable schedule plus its
/// deterministic trigger counters.
#[derive(Debug)]
struct PlanState {
    plan: FaultPlan,
    panic_fired: Vec<AtomicBool>,
    global_records: AtomicU64,
    shard_records: Mutex<Vec<u64>>,
    forwards: AtomicU64,
    submissions: AtomicU64,
    wal_appends: AtomicU64,
    fs_fail_budget: AtomicU64,
    fs_corrupt_budget: AtomicU64,
    net_requests: AtomicU64,
    net_submit_replies: AtomicU64,
    net_io: AtomicU64,
    stats: StatCells,
}

#[derive(Debug, Default)]
struct StatCells {
    panics_fired: AtomicU64,
    stalls: AtomicU64,
    saturated: AtomicU64,
    fs_ops: AtomicU64,
    fs_injected_io: AtomicU64,
    fs_injected_corrupt: AtomicU64,
    wal_appends: AtomicU64,
    conn_resets: AtomicU64,
    net_stalls: AtomicU64,
    torn_frames: AtomicU64,
    blackholed: AtomicU64,
}

impl PlanState {
    fn new(plan: FaultPlan) -> Self {
        let panic_fired = plan.panics.iter().map(|_| AtomicBool::new(false)).collect();
        let fs = plan.fs.clone();
        PlanState {
            plan,
            panic_fired,
            global_records: AtomicU64::new(0),
            shard_records: Mutex::new(Vec::new()),
            forwards: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            fs_fail_budget: AtomicU64::new(fs.fail_ops),
            fs_corrupt_budget: AtomicU64::new(fs.corrupt_reads),
            net_requests: AtomicU64::new(0),
            net_submit_replies: AtomicU64::new(0),
            net_io: AtomicU64::new(0),
            stats: StatCells::default(),
        }
    }

    fn stats(&self) -> FaultStats {
        FaultStats {
            panics_fired: self.stats.panics_fired.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            saturated: self.stats.saturated.load(Ordering::Relaxed),
            fs_ops: self.stats.fs_ops.load(Ordering::Relaxed),
            fs_injected_io: self.stats.fs_injected_io.load(Ordering::Relaxed),
            fs_injected_corrupt: self.stats.fs_injected_corrupt.load(Ordering::Relaxed),
            wal_appends: self.stats.wal_appends.load(Ordering::Relaxed),
            conn_resets: self.stats.conn_resets.load(Ordering::Relaxed),
            net_stalls: self.stats.net_stalls.load(Ordering::Relaxed),
            torn_frames: self.stats.torn_frames.load(Ordering::Relaxed),
            blackholed: self.stats.blackholed.load(Ordering::Relaxed),
        }
    }
}

/// Guard holding an armed [`FaultPlan`]; dropping it disarms the plan and
/// releases the process-wide serialization lock.
pub struct Armed {
    state: Arc<PlanState>,
    prev: Option<Arc<PlanState>>,
    _serial: MutexGuard<'static, ()>,
}

impl Armed {
    /// Trigger counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.state.stats()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        let mut active = active_slot().lock().unwrap_or_else(|e| e.into_inner());
        *active = self.prev.take();
        ARMED.store(active.is_some(), Ordering::Release);
    }
}

/// Guard for a fault-free critical section: holds the same serialization
/// lock as [`FaultPlan::arm`] without arming anything, so reference
/// (fault-free) runs in one test can never observe a plan armed by a
/// parallel test.
pub struct Quiet {
    prev: Option<Arc<PlanState>>,
    _serial: MutexGuard<'static, ()>,
}

impl Drop for Quiet {
    fn drop(&mut self) {
        let mut active = active_slot().lock().unwrap_or_else(|e| e.into_inner());
        *active = self.prev.take();
        ARMED.store(active.is_some(), Ordering::Release);
    }
}

/// Enters a fault-free critical section (see [`Quiet`]). Any plan armed
/// from the environment is suspended until the guard drops.
pub fn quiesce() -> Quiet {
    let lock = serial_lock();
    let prev = {
        let mut active = active_slot().lock().unwrap_or_else(|e| e.into_inner());
        active.take()
    };
    ARMED.store(false, Ordering::Release);
    Quiet {
        prev,
        _serial: lock,
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn active_slot() -> &'static Mutex<Option<Arc<PlanState>>> {
    static ACTIVE: Mutex<Option<Arc<PlanState>>> = Mutex::new(None);
    &ACTIVE
}

fn serial_lock() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Parses and arms `UCAD_FAULTS` once per process. Called by every hook's
/// slow path and by [`armed`]; a malformed spec panics loudly rather than
/// silently running an un-faulted soak.
fn ensure_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("UCAD_FAULTS") {
            if spec.trim().is_empty() {
                return;
            }
            let plan = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("invalid UCAD_FAULTS spec `{spec}`: {e}"));
            let state = Arc::new(PlanState::new(plan));
            let mut active = active_slot().lock().unwrap_or_else(|e| e.into_inner());
            *active = Some(state);
            ARMED.store(true, Ordering::Release);
        }
    });
}

/// True when a fault plan is currently armed (programmatically or from
/// `UCAD_FAULTS`).
pub fn armed() -> bool {
    ensure_env();
    ARMED.load(Ordering::Acquire)
}

#[inline]
fn current() -> Option<Arc<PlanState>> {
    // Fast path: one relaxed load, no locks, no branches taken.
    if !ARMED.load(Ordering::Relaxed) {
        ensure_env();
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
    }
    active_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Trigger counters of the currently armed plan (`None` when disarmed).
/// Lets the CI soak print what actually fired.
pub fn stats() -> Option<FaultStats> {
    current().map(|s| s.stats())
}

/// Serving-engine hook: a shard worker is about to process an accepted
/// record. Panics — once per matching [`PanicSpec`] — when a trigger
/// count is reached. No-op when no plan is armed.
pub fn on_worker_record(shard: usize) {
    let Some(state) = current() else { return };
    if state.plan.panics.is_empty() {
        return;
    }
    let global = state.global_records.fetch_add(1, Ordering::Relaxed) + 1;
    let per_shard = {
        let mut counts = state
            .shard_records
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if counts.len() <= shard {
            counts.resize(shard + 1, 0);
        }
        counts[shard] += 1;
        counts[shard]
    };
    for (spec, fired) in state.plan.panics.iter().zip(&state.panic_fired) {
        let count = match spec.shard {
            Some(s) if s == shard => per_shard,
            Some(_) => continue,
            None => global,
        };
        if count >= spec.nth
            && fired
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            state.stats.panics_fired.fetch_add(1, Ordering::Relaxed);
            panic!("fault-injected worker panic (shard {shard}, record {count})");
        }
    }
}

/// Detector hook: a scoring forward is about to run. Sleeps per the armed
/// plan's [`StallSpec`]. No-op when no plan is armed.
pub fn on_scoring_forward() {
    let Some(state) = current() else { return };
    let Some(stall) = state.plan.stall else {
        return;
    };
    let n = state.forwards.fetch_add(1, Ordering::Relaxed) + 1;
    if n % stall.every != 0 {
        return;
    }
    if state.stats.stalls.fetch_add(1, Ordering::Relaxed) >= stall.limit {
        state.stats.stalls.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    std::thread::sleep(std::time::Duration::from_micros(stall.micros));
}

/// Submission hook: returns true when the armed plan forces this
/// submission to see a saturated queue. Always false when disarmed.
pub fn on_submit_saturated(shard: usize) -> bool {
    let Some(state) = current() else { return false };
    let Some(sat) = state.plan.saturate else {
        return false;
    };
    if sat.shard.is_some_and(|s| s != shard) {
        return false;
    }
    let n = state.submissions.fetch_add(1, Ordering::Relaxed);
    let hit = n >= sat.from && n < sat.until;
    if hit {
        state.stats.saturated.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// WAL hook: a record is about to be appended. Counts the append (the
/// deterministic clock `proc_crash` fires on), aborts the whole process at
/// the configured Kth append — *before* any bytes are written, so exactly
/// K-1 appends are durable — and otherwise may fail the append with an
/// injected I/O error from the scoped `fs_fail` budget. No-op when no plan
/// is armed.
///
/// `proc_crash` deliberately ignores `fs_scope` and counts appends across
/// every WAL in the process (shard logs and the meta log alike): the crash
/// wall needs one global, total order of append points to pin kills to.
pub fn on_wal_append(path: &Path) -> io::Result<()> {
    let Some(state) = current() else {
        return Ok(());
    };
    let n = state.wal_appends.fetch_add(1, Ordering::Relaxed) + 1;
    state.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    if state.plan.proc_crash.is_some_and(|k| n >= k) {
        // No unwinding, no destructors, no flushes — the simulated kill -9.
        std::process::abort();
    }
    if in_scope(&state, path) && consume(&state.fs_fail_budget) {
        state.stats.fs_injected_io.fetch_add(1, Ordering::Relaxed);
        return Err(injected_io("wal append", path));
    }
    Ok(())
}

/// What a daemon must do with a request frame it just read, decided by the
/// armed plan's [`NetSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetRequestFate {
    /// Handle the request normally.
    Pass,
    /// Drop the request unhandled and close the connection (simulated
    /// connection reset). The request had no effect; a retry is safe.
    Reset,
    /// Swallow the request: no handling, no response, connection stays
    /// open. The client's read deadline is its only way out.
    Blackhole,
}

/// What a daemon must do with a submit response it is about to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetReplyFate {
    /// Write the full frame.
    Send,
    /// Write only the first half of the frame, then close the connection —
    /// the peer sees a torn frame after the engine consumed the record.
    Torn,
}

/// Daemon hook: one request frame was read and is about to be handled.
/// Counts the request and returns its fate per the armed plan. Also sleeps
/// per the net-stall schedule (the daemon-side half of `net_stall_us`).
/// Always [`NetRequestFate::Pass`] when disarmed.
pub fn on_net_request() -> NetRequestFate {
    let Some(state) = current() else {
        return NetRequestFate::Pass;
    };
    net_stall(&state);
    let net = &state.plan.net;
    if net.conn_reset == 0 && net.blackhole.is_none() {
        return NetRequestFate::Pass;
    }
    let n0 = state.net_requests.fetch_add(1, Ordering::Relaxed);
    if net.conn_reset != 0 && (n0 + 1) % net.conn_reset == 0 {
        state.stats.conn_resets.fetch_add(1, Ordering::Relaxed);
        return NetRequestFate::Reset;
    }
    if let Some((from, until)) = net.blackhole {
        if n0 >= from && n0 < until {
            state.stats.blackholed.fetch_add(1, Ordering::Relaxed);
            return NetRequestFate::Blackhole;
        }
    }
    NetRequestFate::Pass
}

/// Daemon hook: a *submit* response frame is about to be written. Counts
/// it, aborts the whole process at the configured `crash_reply` point —
/// after the engine consumed the record but before the client learns so,
/// the lost-ack window — and otherwise may demand a torn write. Always
/// [`NetReplyFate::Send`] when disarmed.
///
/// Only submit responses are counted: a torn or crashed drain response
/// would lose delivered alerts for good (the engine's exactly-once drain
/// marker is already on disk), which is a durability property, not a
/// transport one — retryable requests are where transport faults belong.
pub fn on_net_submit_reply() -> NetReplyFate {
    let Some(state) = current() else {
        return NetReplyFate::Send;
    };
    let net = &state.plan.net;
    if net.torn_frame == 0 && net.crash_reply.is_none() {
        return NetReplyFate::Send;
    }
    let m = state.net_submit_replies.fetch_add(1, Ordering::Relaxed) + 1;
    if net.crash_reply.is_some_and(|k| m >= k) {
        // No unwinding, no destructors, no flushes — the simulated kill -9.
        std::process::abort();
    }
    if net.torn_frame != 0 && m % net.torn_frame == 0 {
        state.stats.torn_frames.fetch_add(1, Ordering::Relaxed);
        return NetReplyFate::Torn;
    }
    NetReplyFate::Send
}

/// Client hook: a request is about to be sent. Sleeps per the net-stall
/// schedule (the client-side half of `net_stall_us`). No-op when disarmed.
pub fn on_net_client_send() {
    let Some(state) = current() else { return };
    net_stall(&state);
}

fn net_stall(state: &PlanState) {
    let Some(stall) = state.plan.net.stall else {
        return;
    };
    let n = state.net_io.fetch_add(1, Ordering::Relaxed) + 1;
    if !n.is_multiple_of(stall.every) {
        return;
    }
    if state.stats.net_stalls.fetch_add(1, Ordering::Relaxed) >= stall.limit {
        state.stats.net_stalls.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    std::thread::sleep(std::time::Duration::from_micros(stall.micros));
}

fn injected_io(op: &str, path: &Path) -> io::Error {
    io::Error::other(format!("fault-injected {op} failure on {}", path.display()))
}

fn consume(budget: &AtomicU64) -> bool {
    // Decrement-if-positive without underflow.
    budget
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok()
}

fn in_scope(state: &PlanState, path: &Path) -> bool {
    match &state.plan.fs.scope {
        Some(dir) => path.starts_with(dir),
        None => true,
    }
}

/// Durable-file hook (checkpoints, snapshots, tenant profiles):
/// `std::fs::read` with injected failures. The armed plan may fail the read
/// outright (consuming one `fs_fail` budget unit) or flip one bit of the
/// payload (consuming one `fs_corrupt` unit).
pub fn fs_read(path: &Path) -> io::Result<Vec<u8>> {
    let Some(state) = current().filter(|s| in_scope(s, path)) else {
        return std::fs::read(path);
    };
    state.stats.fs_ops.fetch_add(1, Ordering::Relaxed);
    if consume(&state.fs_fail_budget) {
        state.stats.fs_injected_io.fetch_add(1, Ordering::Relaxed);
        return Err(injected_io("read", path));
    }
    let mut bytes = std::fs::read(path)?;
    if !bytes.is_empty() && consume(&state.fs_corrupt_budget) {
        state
            .stats
            .fs_injected_corrupt
            .fetch_add(1, Ordering::Relaxed);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
    }
    Ok(bytes)
}

/// Durable-file hook (checkpoints, snapshots, tenant profiles):
/// `std::fs::write` with injected failures.
pub fn fs_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let Some(state) = current().filter(|s| in_scope(s, path)) else {
        return std::fs::write(path, bytes);
    };
    state.stats.fs_ops.fetch_add(1, Ordering::Relaxed);
    if consume(&state.fs_fail_budget) {
        state.stats.fs_injected_io.fetch_add(1, Ordering::Relaxed);
        return Err(injected_io("write", path));
    }
    std::fs::write(path, bytes)
}

/// Durable-file hook (checkpoints, snapshots, tenant profiles):
/// `std::fs::rename` with injected failures.
pub fn fs_rename(from: &Path, to: &Path) -> io::Result<()> {
    let Some(state) = current().filter(|s| in_scope(s, from)) else {
        return std::fs::rename(from, to);
    };
    state.stats.fs_ops.fetch_add(1, Ordering::Relaxed);
    if consume(&state.fs_fail_budget) {
        state.stats.fs_injected_io.fetch_add(1, Ordering::Relaxed);
        return Err(injected_io("rename", from));
    }
    std::fs::rename(from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "seed=7; panic=25; panic=40@1, stall_us=500;stall_every=3;stall_limit=9; \
             saturate=10..20@2; fs_fail=2; fs_corrupt=1; proc_crash=6; \
             conn_reset=4; net_stall_us=250; net_stall_every=2; net_stall_limit=5; \
             torn_frame=3; blackhole=8..11; crash_reply=9",
        )
        .expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.panics,
            vec![
                PanicSpec {
                    shard: None,
                    nth: 25
                },
                PanicSpec {
                    shard: Some(1),
                    nth: 40
                }
            ]
        );
        assert_eq!(
            plan.stall,
            Some(StallSpec {
                micros: 500,
                every: 3,
                limit: 9
            })
        );
        assert_eq!(
            plan.saturate,
            Some(SaturateSpec {
                shard: Some(2),
                from: 10,
                until: 20
            })
        );
        assert_eq!(plan.fs.fail_ops, 2);
        assert_eq!(plan.fs.corrupt_reads, 1);
        assert_eq!(plan.proc_crash, Some(6));
        assert_eq!(plan.net.conn_reset, 4);
        assert_eq!(
            plan.net.stall,
            Some(StallSpec {
                micros: 250,
                every: 2,
                limit: 5
            })
        );
        assert_eq!(plan.net.torn_frame, 3);
        assert_eq!(plan.net.blackhole, Some((8, 11)));
        assert_eq!(plan.net.crash_reply, Some(9));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=zero").is_err());
        assert!(FaultPlan::parse("panic=0").is_err());
        assert!(FaultPlan::parse("saturate=5").is_err());
        assert!(FaultPlan::parse("volcano=1").is_err());
        assert!(FaultPlan::parse("proc_crash=0").is_err());
        assert!(FaultPlan::parse("proc_crash=now").is_err());
        assert!(FaultPlan::parse("conn_reset=0").is_err());
        assert!(FaultPlan::parse("torn_frame=0").is_err());
        assert!(FaultPlan::parse("blackhole=7").is_err());
        assert!(FaultPlan::parse("crash_reply=0").is_err());
        assert!(FaultPlan::parse("")
            .expect("empty is no faults")
            .panics
            .is_empty());
    }

    #[test]
    fn hooks_are_noops_when_disarmed() {
        let _quiet = quiesce();
        assert!(!armed());
        on_worker_record(0);
        on_scoring_forward();
        assert!(!on_submit_saturated(0));
        assert!(on_wal_append(Path::new("/nowhere/wal")).is_ok());
        assert_eq!(on_net_request(), NetRequestFate::Pass);
        assert_eq!(on_net_submit_reply(), NetReplyFate::Send);
        on_net_client_send();
        assert!(stats().is_none());
    }

    #[test]
    fn conn_reset_fires_every_kth_request_and_blackhole_covers_its_range() {
        let guard = FaultPlan::new().conn_reset_every(3).blackhole(3, 5).arm();
        let fates: Vec<NetRequestFate> = (0..7).map(|_| on_net_request()).collect();
        // Requests 2 and 5 (0-based) are the 3rd and 6th reads → reset;
        // requests 3 and 4 fall in the blackhole window.
        assert_eq!(
            fates,
            vec![
                NetRequestFate::Pass,
                NetRequestFate::Pass,
                NetRequestFate::Reset,
                NetRequestFate::Blackhole,
                NetRequestFate::Blackhole,
                NetRequestFate::Reset,
                NetRequestFate::Pass,
            ]
        );
        let s = guard.stats();
        assert_eq!((s.conn_resets, s.blackholed), (2, 2));
    }

    #[test]
    fn torn_frame_fires_every_kth_submit_reply() {
        let guard = FaultPlan::new().torn_frame_every(2).arm();
        let fates: Vec<NetReplyFate> = (0..5).map(|_| on_net_submit_reply()).collect();
        assert_eq!(
            fates,
            vec![
                NetReplyFate::Send,
                NetReplyFate::Torn,
                NetReplyFate::Send,
                NetReplyFate::Torn,
                NetReplyFate::Send,
            ]
        );
        assert_eq!(guard.stats().torn_frames, 2);
    }

    #[test]
    fn net_stall_sleeps_on_its_own_schedule() {
        let guard = FaultPlan::parse("net_stall_us=100;net_stall_every=2;net_stall_limit=1")
            .unwrap()
            .arm();
        let t0 = std::time::Instant::now();
        on_net_client_send(); // 1st: skipped (every=2)
        on_net_request(); // 2nd: stalls (daemon and client share the clock)
        on_net_client_send(); // 4th would stall but limit=1
        on_net_client_send();
        assert!(t0.elapsed() >= std::time::Duration::from_micros(100));
        assert_eq!(guard.stats().net_stalls, 1);
    }

    #[test]
    fn wal_appends_are_counted_and_draw_on_the_scoped_fs_budget() {
        let scoped = std::env::temp_dir().join("ucad-fault-wal-scope");
        let guard = FaultPlan::new().fs_fail_ops(1).fs_scope(&scoped).arm();
        let outside = Path::new("/somewhere/else/wal");
        assert!(
            on_wal_append(outside).is_ok(),
            "out of scope: budget untouched"
        );
        let inside = scoped.join("shard-0");
        assert!(
            on_wal_append(&inside).is_err(),
            "in scope: consumes fs_fail"
        );
        assert!(on_wal_append(&inside).is_ok(), "budget exhausted: passes");
        let s = guard.stats();
        assert_eq!(
            s.wal_appends, 3,
            "every append is counted regardless of scope"
        );
        assert_eq!(s.fs_injected_io, 1);
    }

    #[test]
    fn worker_panic_fires_once_at_the_nth_record() {
        let guard = FaultPlan::new().panic_at(3, Some(0)).arm();
        on_worker_record(0);
        on_worker_record(1); // other shard: does not advance shard 0's count
        on_worker_record(0);
        let result = std::panic::catch_unwind(|| on_worker_record(0));
        assert!(result.is_err(), "third shard-0 record must panic");
        assert_eq!(guard.stats().panics_fired, 1);
        // The trigger is consumed: later records pass.
        on_worker_record(0);
        assert_eq!(guard.stats().panics_fired, 1);
    }

    #[test]
    fn saturation_window_covers_exactly_the_configured_range() {
        let guard = FaultPlan::new().saturate(2, 4, None).arm();
        let hits: Vec<bool> = (0..6).map(|_| on_submit_saturated(0)).collect();
        assert_eq!(hits, vec![false, false, true, true, false, false]);
        assert_eq!(guard.stats().saturated, 2);
    }

    #[test]
    fn fs_faults_consume_budgets_then_pass_through() {
        let dir = std::env::temp_dir().join(format!("ucad-fault-fs-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("probe.bin");
        std::fs::write(&path, b"hello fault injection").unwrap();

        let guard = FaultPlan::new().fs_fail_ops(1).fs_corrupt_reads(1).arm();
        assert!(fs_read(&path).is_err(), "first op consumes the io budget");
        let corrupted = fs_read(&path).expect("second read succeeds");
        assert_ne!(corrupted, b"hello fault injection".to_vec());
        let clean = fs_read(&path).expect("third read is clean");
        assert_eq!(clean, b"hello fault injection".to_vec());
        let s = guard.stats();
        assert_eq!((s.fs_injected_io, s.fs_injected_corrupt), (1, 1));
        assert_eq!(s.fs_ops, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_sleeps_on_schedule() {
        let guard = FaultPlan::parse("stall_us=100;stall_every=2;stall_limit=1")
            .unwrap()
            .arm();
        let t0 = std::time::Instant::now();
        on_scoring_forward(); // 1st: skipped (every=2)
        on_scoring_forward(); // 2nd: stalls
        on_scoring_forward(); // 4th would stall but limit=1
        on_scoring_forward();
        assert!(t0.elapsed() >= std::time::Duration::from_micros(100));
        assert_eq!(guard.stats().stalls, 1);
    }
}
