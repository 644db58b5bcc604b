//! The serving phases: repeated closed-loop passes, one open-loop pass,
//! the durable daemon round trip, and the gates that tie them.

use crate::drive::{self, Completions, One, Pass, Stream, Target};
use crate::stats::{highest_supported, median, quantile_sorted};
use crate::tracing::Tracer;
use crate::Report;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucad::{
    Admission, Alert, DurabilityConfig, ServeConfig, ServeObserver, ShardedOnlineUcad, Ucad,
    UcadError,
};
use ucad_net::{NetClient, NetDaemon, NetServeConfig};
use ucad_tenant::{TenantRegistry, TenantShardPool, DEFAULT_TENANT_LABEL_LIMIT};

/// Builds a fresh serving target (optionally reporting completions to an
/// observer) and tears it down again.
pub trait Rig {
    type T: Target;
    /// Span name of a submit into this target's front layer.
    const LAYER: &'static str;
    fn start(&mut self, observer: Option<Arc<dyn ServeObserver>>) -> Result<Self::T, UcadError>;
    fn stop(&mut self, target: Self::T) -> Result<(), UcadError>;
}

/// An in-process sharded engine.
pub struct EngineRig {
    pub system: Ucad,
    pub cfg: ServeConfig,
}

impl Rig for EngineRig {
    type T = One<ShardedOnlineUcad>;
    const LAYER: &'static str = "serve.submit";
    fn start(&mut self, observer: Option<Arc<dyn ServeObserver>>) -> Result<Self::T, UcadError> {
        ShardedOnlineUcad::try_new_full(self.system.clone(), self.cfg, observer, None).map(One)
    }
    fn stop(&mut self, target: Self::T) -> Result<(), UcadError> {
        let report = target.0.shutdown();
        match report.worker_panics.is_empty() {
            true => Ok(()),
            false => Err(UcadError::protocol(format!(
                "worker panics: {:?}",
                report.worker_panics
            ))),
        }
    }
}

/// A tenant pool over an on-disk tenant catalog, reopened cold each start.
pub struct PoolRig {
    pub catalog: PathBuf,
    pub budget: usize,
    pub cache_capacity: usize,
    pub cfg: ServeConfig,
}

impl PoolRig {
    pub fn open(
        &self,
        observer: Option<Arc<dyn ServeObserver>>,
    ) -> Result<TenantShardPool, UcadError> {
        let registry = TenantRegistry::open(&self.catalog, self.budget, self.cache_capacity)?;
        TenantShardPool::new_observed(registry, self.cfg, observer, DEFAULT_TENANT_LABEL_LIMIT)
    }
}

impl Rig for PoolRig {
    type T = TenantShardPool;
    const LAYER: &'static str = "tenant.submit";
    fn start(&mut self, observer: Option<Arc<dyn ServeObserver>>) -> Result<Self::T, UcadError> {
        self.open(observer)
    }
    fn stop(&mut self, target: Self::T) -> Result<(), UcadError> {
        let (_, leftovers) = target.shutdown()?;
        match leftovers.is_empty() {
            true => Ok(()),
            false => Err(UcadError::protocol(format!(
                "{} alerts left undrained at shutdown",
                leftovers.len()
            ))),
        }
    }
}

/// Phase plan of one serving workload.
pub struct Plan<'a> {
    /// Closed-loop stream.
    pub stream: &'a Stream,
    /// Open-loop arrival rate, records per second.
    pub rate: f64,
    /// The open loop replays the stream's first whole blocks holding this
    /// many records.
    pub open_records: usize,
    /// Closed-loop time budget; at least `min_passes` passes run.
    pub closed_secs: f64,
    pub min_passes: usize,
}

/// Results of [`run`].
pub struct Served {
    pub closed: Pass,
    pub closed_secs: Vec<f64>,
    /// The open-loop pass (none in the traced run).
    pub open: Option<Pass>,
    /// Traced mode: the traced pass's duration over the untraced median,
    /// minus one.
    pub overhead_frac: Option<f64>,
}

pub fn gate(report: &mut Report, what: &str, result: Result<(), String>) {
    if let Err(e) = result {
        report.gate_failures.push(format!("{what}: {e}"));
    }
}

/// Closed-loop passes over the whole stream, each on a fresh target, until
/// the closed-loop budget is spent; after the first, one open-loop pass
/// over the stream's prefix (skipped in the traced run, which adds one
/// traced closed pass instead). Gates: identical alert bytes across closed
/// passes, the open loop drains exactly the closed loop's alerts for its
/// sessions, lossless accounting, and a completion for every open-loop
/// record.
pub fn run<R: Rig>(
    rig: &mut R,
    plan: &Plan,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Served, UcadError> {
    let mut off = Tracer::new(false);
    let budget = Duration::from_secs_f64(plan.closed_secs);
    let mut passes: Vec<Pass> = Vec::new();
    let mut open = None;
    let mut closed_time = Duration::ZERO;
    while passes.len() < plan.min_passes || (closed_time < budget && passes.len() < 100) {
        let mut t = rig.start(None)?;
        let pass = drive::closed_pass(&mut t, plan.stream, &mut off, R::LAYER)?;
        rig.stop(t)?;
        report.count(&pass.accounting);
        gate(
            report,
            "closed-loop accounting",
            pass.accounting.check(&pass.stats),
        );
        if let Some(first) = passes.first() {
            gate(
                report,
                "closed-loop passes drain identical alerts",
                same(&first.alerts, &pass.alerts),
            );
        }
        closed_time += pass.elapsed;
        passes.push(pass);
        if open.is_none() && !tracer.enabled() {
            let prefix = plan.stream.prefix(plan.open_records);
            let expected = drive::alerts_of(&passes[0].alerts, &prefix.session_ids());
            let done = Arc::new(Completions::new(prefix.records()));
            let mut t = rig.start(Some(done.clone() as Arc<dyn ServeObserver>))?;
            let pass = drive::open_pass(&mut t, &prefix, plan.rate, &done)?;
            rig.stop(t)?;
            report.count(&pass.accounting);
            gate(
                report,
                "open-loop accounting",
                pass.accounting.check(&pass.stats),
            );
            gate(
                report,
                "open loop drains the closed loop's alerts for its sessions",
                same(&expected, &pass.alerts),
            );
            open = Some(pass);
        }
    }
    let closed_secs: Vec<f64> = passes.iter().map(|p| p.elapsed.as_secs_f64()).collect();
    let mut served = Served {
        closed: passes.swap_remove(0),
        closed_secs,
        open,
        overhead_frac: None,
    };
    if tracer.enabled() {
        let mut t = rig.start(None)?;
        let pass = drive::closed_pass(&mut t, plan.stream, tracer, R::LAYER)?;
        rig.stop(t)?;
        report.count(&pass.accounting);
        gate(
            report,
            "traced-pass accounting",
            pass.accounting.check(&pass.stats),
        );
        gate(
            report,
            "traced pass drains the untraced alerts",
            same(&served.closed.alerts, &pass.alerts),
        );
        served.overhead_frac = Some(pass.elapsed.as_secs_f64() / median(&served.closed_secs) - 1.0);
    }
    Ok(served)
}

fn same(a: &[Alert], b: &[Alert]) -> Result<(), String> {
    let (x, y) = (drive::alert_bytes(a), drive::alert_bytes(b));
    if x == y {
        Ok(())
    } else {
        Err(format!(
            "{} vs {} alerts ({} vs {} bytes)",
            a.len(),
            b.len(),
            x.len(),
            y.len()
        ))
    }
}

/// End-to-end metrics shared by the serving workloads.
/// `detect_sessions_per_s` shares the closed loop's timer with
/// `records_per_s` (see README).
pub fn report_served(served: &Served, stream: &Stream, report: &mut Report) {
    let secs = median(&served.closed_secs);
    report.metric("records_per_s", stream.records() as f64 / secs, "1/s");
    report.metric(
        "detect_sessions_per_s",
        stream.sessions() as f64 / secs,
        "1/s",
    );
    report.note(format!(
        "closed loop: {} records, {} sessions, {} passes, pass seconds {:?}",
        stream.records(),
        stream.sessions(),
        served.closed_secs.len(),
        crate::stats::rounded(&served.closed_secs)
    ));
    let mut reasons = std::collections::BTreeMap::new();
    for a in &served.closed.alerts {
        let reason = match &a.reason {
            ucad::AlertReason::Policy(_) => "policy",
            ucad::AlertReason::UnknownStatement => "unknown-statement",
            ucad::AlertReason::IntentMismatch => "intent-mismatch",
        };
        *reasons.entry(reason).or_insert(0usize) += 1;
    }
    report.note(format!("alerts by reason: {reasons:?}"));
    let flagged = drive::flagged(&served.closed.alerts);
    report.metric(
        "detect_f1",
        crate::stats::f1(&stream.labels, &flagged),
        "ratio",
    );
    if let Some(open) = &served.open {
        latency_notes(&open.latency_ns, &open.lateness_ns, open.elapsed, report);
    }
}

/// Notes open-loop latency p50 / p99 with the sample count, the highest
/// percentile the phase supports, and generator lateness. Gates on the
/// phase supporting p99 (at least ten samples beyond it).
pub fn latency_notes(
    latency_ns: &[u64],
    lateness_ns: &[u64],
    elapsed: Duration,
    report: &mut Report,
) {
    let ms = |v: &[u64]| {
        let mut out: Vec<f64> = v.iter().map(|&n| n as f64 / 1e6).collect();
        out.sort_by(f64::total_cmp);
        out
    };
    let lat = ms(latency_ns);
    let late = ms(lateness_ns);
    let Some(top) =
        highest_supported(lat.len(), &[0.5, 0.9, 0.99, 0.999], 10).filter(|&q| q >= 0.99)
    else {
        report.gate_failures.push(format!(
            "open loop: {} samples cannot support p99",
            lat.len()
        ));
        return;
    };
    report.note(format!(
        "open loop latency (not gated): p50 {:.4} ms, p99 {:.4} ms; {} samples in {:.2}s, \
         highest supported percentile p{} = {:.3} ms, generator lateness p50 {:.3} ms \
         p99 {:.3} ms max {:.3} ms",
        quantile_sorted(&lat, 0.5),
        quantile_sorted(&lat, 0.99),
        lat.len(),
        elapsed.as_secs_f64(),
        top * 100.0,
        quantile_sorted(&lat, top),
        quantile_sorted(&late, 0.5),
        quantile_sorted(&late, 0.99),
        late.last().copied().unwrap_or(0.0)
    ));
}

/// What the durable daemon round trip left for the traced run's net rung:
/// submit round trips and health pings are spans named `net.submit` and
/// `net.health` in the tracer.
pub struct Durable {
    pub records: usize,
    /// The daemon's Prometheus text, read before shutdown.
    pub metrics: String,
}

fn spawn_daemon(
    system: &Ucad,
    serve: ServeConfig,
    wal: &Path,
) -> Result<
    (
        NetClient,
        std::thread::JoinHandle<Result<ucad::ShutdownReport, UcadError>>,
    ),
    UcadError,
> {
    let cfg = NetServeConfig::builder()
        .addr("127.0.0.1:0")
        .serve(serve)
        .durability(DurabilityConfig::new(wal.to_path_buf()))
        .build()?;
    let (addr, _stop, join) = NetDaemon::bind(system.clone(), cfg)?.spawn();
    Ok((NetClient::connect(addr.to_string())?, join))
}

fn stop_daemon(
    mut client: NetClient,
    join: std::thread::JoinHandle<Result<ucad::ShutdownReport, UcadError>>,
) -> Result<(), UcadError> {
    client.shutdown_daemon()?;
    let report = join
        .join()
        .map_err(|_| UcadError::protocol("daemon thread panicked".to_string()))??;
    match report.worker_panics.is_empty() {
        true => Ok(()),
        false => Err(UcadError::protocol(format!(
            "worker panics: {:?}",
            report.worker_panics
        ))),
    }
}

/// Health pings of the durable round trip.
const HEALTH_PINGS: usize = 200;

/// The durable round trip every run makes: `stream` replayed through one
/// loopback daemon that logs every record to a WAL in `wal` with the
/// `DurabilityConfig` defaults (fsync per append), drained and shut down;
/// then a daemon restarts on the same log. Gates: lossless accounting, the
/// daemon drains `expected` when given, the restarted daemon re-delivers
/// none of the drained alerts, and the log's recovered arrival watermark
/// equals the records submitted. Notes the restart time (bind → first
/// `health` reply; not gated).
pub fn durable(
    system: &Ucad,
    serve: ServeConfig,
    stream: &Stream,
    wal: &Path,
    expected: Option<&[Alert]>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Durable, UcadError> {
    let (client, join) = spawn_daemon(system, serve, wal)?;
    let mut target = One(client);
    let pass = drive::closed_pass(&mut target, stream, tracer, "net.submit")?;
    report.count(&pass.accounting);
    gate(
        report,
        "durable daemon accounting",
        pass.accounting.check(&pass.stats),
    );
    if let Some(expected) = expected {
        gate(
            report,
            "durable daemon drains the closed loop's alerts for its sessions",
            same(expected, &pass.alerts),
        );
    }
    let mut client = target.0;
    for _ in 0..HEALTH_PINGS {
        tracer.span("net.health", || client.health())?;
    }
    let metrics = client.render_metrics()?;
    stop_daemon(client, join)?;

    let t = Instant::now();
    let (mut client, join) = spawn_daemon(system, serve, wal)?;
    client.health()?;
    let restart_s = t.elapsed().as_secs_f64();
    let redelivered = client.drain_alerts()?.len();
    stop_daemon(client, join)?;
    if redelivered != 0 {
        report.gate_failures.push(format!(
            "recovered daemon re-delivered {redelivered} drained alerts"
        ));
    }
    let engine = ShardedOnlineUcad::recover(system.clone(), serve, DurabilityConfig::new(wal))?;
    let submitted = stream.records() as u64;
    if engine.seq_watermark() != submitted {
        report.gate_failures.push(format!(
            "recovered seq_watermark {} != {submitted} records submitted",
            engine.seq_watermark()
        ));
    }
    engine.shutdown();
    report.note(format!(
        "durable daemon: {submitted} records, {} alerts, restart on its log {:.4}s (not gated)",
        pass.alerts.len(),
        restart_s
    ));
    Ok(Durable {
        records: stream.records(),
        metrics,
    })
}
