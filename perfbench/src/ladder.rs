//! The layer ladder of the traced run: each layer's public API timed in
//! isolation on the workload's own inputs, inside spans, plus the
//! reconciliation of layer costs against the end-to-end per-record cost.

use crate::drive::{Event, Stream};
use crate::prom;
use crate::serving::Durable;
use crate::stats::{median, quantile_sorted};
use crate::tracing::Tracer;
use crate::Report;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use ucad::{Detector, ServeConfig, ShardedOnlineUcad, Ucad, UcadError};
use ucad_dbsim::LogRecord;
use ucad_net::protocol::{decode_frame, decode_message, encode_message};
use ucad_net::{FrameKind, Request};
use ucad_preprocess::{PreprocessConfig, Preprocessor};
use ucad_tenant::{TenantRegistry, TenantShardPool};
use ucad_trace::Session;
use ucad_wal::{SegmentedWal, WalMetrics, WalOptions};

/// Records fed through each serving rung.
const RUNG_RECORDS: usize = 3000;
/// Records appended by the WAL rung (one fsync each).
const WAL_RECORDS: usize = 1500;

/// A tenant fleet: its models, resident budget and traffic.
pub struct Fleet<'a> {
    pub tenants: &'a [(u64, &'a Ucad)],
    pub budget: usize,
    pub stream: &'a Stream,
}

pub struct LadderInput<'a> {
    pub workload: &'static str,
    pub system: &'a Ucad,
    /// Multi-tenant workloads: the fleet the tenant rung serves.
    pub tenants: Option<Fleet<'a>>,
    pub train_raw: &'a [Session],
    /// Single-model stream the single-model rungs replay.
    pub stream: &'a Stream,
    pub serve: ServeConfig,
    /// The run's durable daemon round trip, whose spans feed the net rung.
    pub durable: &'a Durable,
    /// The untraced closed-loop rate measured in this run.
    pub records_per_s: f64,
    pub overhead_frac: Option<f64>,
    pub work: &'a Path,
}

fn records(stream: &Stream, cap: usize) -> Vec<&LogRecord> {
    stream
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Record { record, .. } => Some(record),
            Event::Close { .. } => None,
        })
        .take(cap)
        .collect()
}

/// Sessions of the stream, rebuilt from its records, in first-seen order.
fn sessions(stream: &Stream, cap: usize) -> Vec<Session> {
    let recs: Vec<LogRecord> = records(stream, usize::MAX).into_iter().cloned().collect();
    let mut all = Session::from_log_records(&recs);
    all.truncate(cap);
    all
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn pct(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

pub fn run(input: &LadderInput, tracer: &mut Tracer, report: &mut Report) -> Result<(), UcadError> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    tracer.begin("ladder");
    preprocess(input, tracer, &mut m);
    model(input, tracer, &mut m);
    nn(input, tracer, &mut m);
    serve(input, tracer, &mut m)?;
    wal(input, tracer, &mut m)?;
    net(input, tracer, &mut m)?;
    tenant(input, tracer, &mut m)?;
    tracer.end();
    m.insert(
        "trace.overhead_frac",
        input
            .overhead_frac
            .unwrap_or_else(|| detect_overhead(input)),
    );
    reconcile(input, &m, report);
    for (name, value) in &m {
        report.metric(name, *value, unit_of(name));
    }
    let path = input
        .work
        .parent()
        .unwrap_or(input.work)
        .join("spans")
        .join(format!("{}.tsv", input.workload));
    tracer
        .write_tsv(&path)
        .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
    let totals = tracer.totals();
    report.note(format!(
        "spans: {} written to {}; self time by span: {}",
        tracer.spans().len(),
        path.display(),
        totals
            .iter()
            .map(|(n, t)| format!("{n}={:.1}ms/{}", t.self_ns as f64 / 1e6, t.count))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") || name.contains("_us_") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("bytes") {
        "B"
    } else if name.ends_with("ratio") || name.ends_with("frac") {
        "ratio"
    } else {
        "count"
    }
}

fn preprocess(input: &LadderInput, tracer: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let vocab = &input.system.preprocessor.vocab;
    let recs = records(input.stream, 20_000);
    let mut per_call = Vec::new();
    for chunk in recs.chunks(1000) {
        tracer.begin("preprocess.key_of_sql");
        for r in chunk {
            black_box(vocab.key_of_sql(black_box(&r.sql)));
        }
        per_call.push(us(tracer.end()) / chunk.len() as f64);
    }
    m.insert("preprocess.key_of_sql_us", median(&per_call));

    // The engine screens each session's growing prefix on every record.
    let mut calls = 0usize;
    tracer.begin("preprocess.screen");
    for s in sessions(input.stream, 40) {
        let mut prefix = Session {
            ops: Vec::new(),
            ..s.clone()
        };
        for op in &s.ops {
            prefix.ops.push(op.clone());
            black_box(input.system.preprocessor.screen(&prefix));
            calls += 1;
        }
    }
    m.insert(
        "preprocess.screen_us",
        us(tracer.end()) / calls.max(1) as f64,
    );

    let mut fits = Vec::new();
    for _ in 0..3 {
        tracer.begin("preprocess.fit");
        black_box(Preprocessor::fit(
            input.train_raw,
            PreprocessConfig::default(),
            42,
        ));
        fits.push(tracer.end() as f64 / 1e9);
    }
    m.insert("preprocess.fit_s", median(&fits));
}

fn model(input: &LadderInput, tracer: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let model = &input.system.model;
    let pre = &input.system.preprocessor;
    let sess = sessions(input.stream, 64);
    let keys: Vec<Vec<u32>> = sess.iter().map(|s| pre.transform(s)).collect();
    // One padded window per position, as the streaming rule scores them.
    let windows: Vec<Vec<u32>> = keys
        .iter()
        .flat_map(|k| (1..=k.len()).map(|t| model.pad_window(&k[..t])))
        .take(300)
        .collect();
    let single = Arc::new(ucad_pool::Pool::new(1));
    let mut per_call = Vec::new();
    ucad_pool::with_pool(single, || {
        for chunk in windows.chunks(25) {
            tracer.begin("model.forward");
            for w in chunk {
                black_box(model.position_scores(black_box(w)));
            }
            per_call.push(us(tracer.end()) / chunk.len() as f64);
        }
    });
    m.insert("model.forward_us", median(&per_call));

    let detector = Detector::new(model, input.system.detector);
    let mut batch_ms = Vec::new();
    for _ in 0..5 {
        tracer.begin("model.detect_batch");
        black_box(detector.detect_batch(&keys, None));
        batch_ms.push(tracer.end() as f64 / 1e6);
    }
    m.insert("model.detect_batch_ms", median(&batch_ms));
}

fn nn(input: &LadderInput, tracer: &mut Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let mut model = input.system.model.clone();
    let tokenized: Vec<Vec<u32>> = input
        .train_raw
        .iter()
        .map(|s| input.system.preprocessor.transform(s))
        .collect();
    let windows = model.extract_windows(&tokenized);
    let batch = &windows[..model.cfg.batch_size.min(windows.len())];
    let mut ms = Vec::new();
    for i in 0..8 {
        tracer.begin("nn.loss_and_grad");
        black_box(model.loss_and_grad(batch, i));
        ms.push(tracer.end() as f64 / 1e6);
    }
    m.insert("nn.loss_and_grad_ms", median(&ms));
}

fn serve(
    input: &LadderInput,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), UcadError> {
    let stream = input.stream.prefix(RUNG_RECORDS);
    let mut engine = ShardedOnlineUcad::try_new(input.system.clone(), input.serve)?;
    let mut submit = Vec::new();
    tracer.begin("serve.rung");
    for e in &stream.events {
        match e {
            Event::Record { record, .. } => {
                tracer.begin("serve.submit");
                engine.try_submit(record)?;
                submit.push(us(tracer.end()));
            }
            Event::Close { session_id, .. } => engine.close_session(*session_id),
        }
    }
    tracer.begin("serve.drain");
    black_box(engine.drain_alerts());
    let drain_ns = tracer.end();
    tracer.end();
    let stats = engine.stats();
    let text = engine.render_metrics();
    engine.shutdown();
    let n = stream.records() as f64;
    m.insert("serve.submit_us_p50", pct(submit.clone(), 0.5));
    m.insert("serve.submit_us_p99", pct(submit, 0.99));
    m.insert("serve.drain_ms", drain_ns as f64 / 1e6);
    for (name, hist) in [
        ("queue_wait", "ucad_latency_queue_wait_seconds"),
        ("score", "ucad_latency_score_seconds"),
    ] {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let v = prom::histogram_quantile(&text, hist, q).unwrap_or(0.0) * 1e6;
            let key: &'static str = match (name, tag) {
                ("queue_wait", "p50") => "serve.queue_wait_us_p50",
                ("queue_wait", _) => "serve.queue_wait_us_p99",
                (_, "p50") => "serve.score_us_p50",
                _ => "serve.score_us_p99",
            };
            m.insert(key, v);
        }
    }
    let (hits, misses) = stats.cache.map_or((0, 0), |c| (c.hits, c.misses));
    m.insert("model.forwards_per_record", misses as f64 / n);
    m.insert(
        "model.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}

fn wal(
    input: &LadderInput,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), UcadError> {
    let dir = input.work.join("ladder-wal");
    let metrics = WalMetrics::default();
    let (mut log, _) = SegmentedWal::open(&dir, WalOptions::default(), metrics.clone())?;
    let recs = records(input.stream, WAL_RECORDS);
    let mut append = Vec::new();
    for r in &recs {
        let payload = serde_json::to_string(r)
            .expect("records serialize")
            .into_bytes();
        tracer.begin("wal.append");
        log.append(&payload)?;
        append.push(us(tracer.end()));
    }
    log.sync()?;
    drop(log);
    let n = recs.len() as f64;
    m.insert("wal.append_us_p50", pct(append.clone(), 0.5));
    m.insert("wal.append_us_p99", pct(append, 0.99));
    m.insert("wal.fsyncs_per_record", metrics.fsyncs.get() as f64 / n);
    m.insert("wal.bytes_per_record", dir_bytes(&dir) as f64 / n);
    let mut rates = Vec::new();
    for _ in 0..3 {
        tracer.begin("wal.replay");
        let (log, recovered) =
            SegmentedWal::open(&dir, WalOptions::default(), WalMetrics::default())?;
        let secs = tracer.end() as f64 / 1e9;
        drop(log);
        rates.push(recovered.entries.len() as f64 / secs);
    }
    m.insert("wal.replay_records_per_s", median(&rates));
    Ok(())
}

fn net(
    input: &LadderInput,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), UcadError> {
    let recs = records(input.stream, 2000);
    let mut codec = Vec::new();
    for chunk in recs.chunks(200) {
        tracer.begin("net.codec");
        for r in chunk {
            let frame = encode_message(
                FrameKind::Request,
                &Request::Submit {
                    seq: None,
                    record: (*r).clone(),
                },
            );
            let (_, payload, _) = decode_frame(&frame)?.expect("a whole frame");
            black_box(decode_message::<Request>(&payload)?);
        }
        codec.push(us(tracer.end()) / chunk.len() as f64);
    }
    m.insert("net.codec_us", median(&codec));

    // Submits and health pings of the run's durable daemon round trip.
    let durations = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end_ns - s.start_ns))
            .collect()
    };
    let rtt = durations("net.submit");
    m.insert("net.submit_rtt_us_p50", pct(rtt.clone(), 0.5));
    m.insert("net.submit_rtt_us_p99", pct(rtt, 0.99));
    m.insert("net.health_rtt_us", median(&durations("net.health")));
    let text = &input.durable.metrics;
    let bytes = prom::counter(text, "ucad_net_bytes_read_total")
        + prom::counter(text, "ucad_net_bytes_written_total");
    m.insert("net.bytes_per_record", bytes / input.durable.records as f64);
    Ok(())
}

fn tenant(
    input: &LadderInput,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), UcadError> {
    // Single-model workloads: the model registered as three tenants with
    // room for two, sessions dealt round robin, so the LRU churns.
    let own: Vec<(u64, &Ucad)> = (1..=3).map(|t| (t, input.system)).collect();
    let dealt;
    let (tenants, budget, stream) = match &input.tenants {
        Some(fleet) => (fleet.tenants, fleet.budget, fleet.stream),
        None => {
            dealt = deal(input.stream, 3);
            (&own[..], 2, &dealt)
        }
    };
    let stream = stream.prefix(RUNG_RECORDS);
    let dir = input.work.join("ladder-tenants");
    let mut registry = TenantRegistry::open(&dir, budget, input.serve.cache_capacity)?;
    for (t, system) in tenants {
        registry.register(*t, &format!("tenant-{t}"), system)?;
    }
    drop(registry);
    let registry = TenantRegistry::open(&dir, budget, input.serve.cache_capacity)?;
    let mut pool = TenantShardPool::new(registry, input.serve)?;
    let (mut submit, mut cold) = (Vec::new(), Vec::new());
    for e in &stream.events {
        match e {
            Event::Record { tenant, record } => {
                let before = pool.registry().cold_loads();
                tracer.begin("tenant.submit");
                pool.try_submit(*tenant, record)?;
                let t = us(tracer.end());
                submit.push(t);
                if pool.registry().cold_loads() > before {
                    cold.push(t / 1e3);
                }
            }
            Event::Close { tenant, session_id } => pool.close_session(*tenant, *session_id)?,
        }
    }
    pool.drain_alerts()?;
    let loads = pool.registry().cold_loads();
    pool.shutdown()?;
    m.insert("tenant.submit_us_p50", pct(submit.clone(), 0.5));
    m.insert("tenant.submit_us_p99", pct(submit, 0.99));
    m.insert(
        "tenant.cold_load_ms",
        cold.iter().sum::<f64>() / cold.len().max(1) as f64,
    );
    m.insert(
        "tenant.cold_loads_per_1k",
        loads as f64 * 1000.0 / stream.records() as f64,
    );
    Ok(())
}

/// `stream` with whole sessions dealt round robin to tenants `1..=k`.
fn deal(stream: &Stream, k: u64) -> Stream {
    let tenant_of = |sid: u64| sid % k + 1;
    let mut out = stream.clone();
    for e in &mut out.events {
        match e {
            Event::Record { tenant, record } => *tenant = tenant_of(record.session_id),
            Event::Close { tenant, session_id } => *tenant = tenant_of(*session_id),
        }
    }
    out
}

/// Offline workloads have no serving pass to trace: the overhead is the
/// traced batch detection against an untraced one.
fn detect_overhead(input: &LadderInput) -> f64 {
    let keys: Vec<Vec<u32>> = sessions(input.stream, 256)
        .iter()
        .map(|s| input.system.preprocessor.transform(s))
        .collect();
    let detector = Detector::new(&input.system.model, input.system.detector);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(true);
    for _ in 0..3 {
        let t = Instant::now();
        for k in &keys {
            black_box(detector.detect_batch(std::slice::from_ref(k), None));
        }
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for k in &keys {
            tracer.span("model.detect", || {
                black_box(detector.detect_batch(std::slice::from_ref(k), None))
            });
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    median(&traced) / median(&plain) - 1.0
}

/// Prints how the isolated per-record layer costs on the workload's path
/// add up against the per-record cost implied by `records_per_s`.
fn reconcile(input: &LadderInput, m: &BTreeMap<&'static str, f64>, report: &mut Report) {
    let shards = input.serve.shards as f64;
    let implied = 1e6 / input.records_per_s;
    let mut terms: Vec<(&str, f64)> = Vec::new();
    if input.workload == "train-offline" {
        let per_record_batch = sessions(input.stream, 64)
            .iter()
            .map(|s| s.ops.len())
            .sum::<usize>()
            .max(1) as f64;
        terms.push(("model", m["model.detect_batch_ms"] * 1e3 / per_record_batch));
    } else {
        terms.push((
            "preprocess",
            (m["preprocess.key_of_sql_us"] + m["preprocess.screen_us"]) / shards,
        ));
        terms.push((
            "model",
            m["model.forward_us"] * m["model.forwards_per_record"] / shards,
        ));
        match input.workload {
            "tenant-churn" => terms.push((
                "tenant",
                m["tenant.submit_us_p50"]
                    + m["tenant.cold_load_ms"] * m["tenant.cold_loads_per_1k"],
            )),
            _ => terms.push(("serve", m["serve.submit_us_p50"])),
        }
    }
    let sum: f64 = terms.iter().map(|(_, v)| v).sum();
    report.note(format!(
        "reconciliation: per-record cost implied by records_per_s {:.2} us; layer self-times \
         {} sum {:.2} us; unexplained remainder {:.2} us ({:.0}%)",
        implied,
        terms
            .iter()
            .map(|(n, v)| format!("{n}={v:.2}us"))
            .collect::<Vec<_>>()
            .join(" + "),
        sum,
        implied - sum,
        100.0 * (implied - sum) / implied
    ));
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}
