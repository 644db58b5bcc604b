//! The three workloads. Each builds its inputs from the seed, sets up
//! (timed, several times), runs its measured phases and gates, makes the
//! durable daemon round trip, and reports the end-to-end metrics; the
//! traced run then runs the layer ladder.

use crate::drive::{Event, Stream};
use crate::ladder::{self, Fleet, LadderInput};
use crate::serving::{self, EngineRig, Plan, PoolRig, Rig};
use crate::stats::{median, rounded, upper_quartile};
use crate::tracing::Tracer;
use crate::{Report, RunCfg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};
use ucad::{
    DetectionMode, Detector, DetectorConfig, OverloadPolicy, ServeConfig, TransDas, TransDasConfig,
    Ucad, UcadConfig, UcadError,
};
use ucad_dbsim::{LogRecord, TenantArchetype, TenantSpec};
use ucad_life::CheckpointStore;
use ucad_preprocess::{abstract_statement, PreprocessConfig, Preprocessor};
use ucad_trace::{
    AnomalySynthesizer, LabeledSession, ScenarioDataset, ScenarioSpec, Session, SessionGenerator,
};

/// Timed set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Shard workers of every serving target (one per core of the reference
/// two-core machine).
const SHARDS: usize = 2;
/// Short set-ups repeat (up to three times their minimum count) until they
/// have spent this long, so their median rests on enough samples.
const MIN_SETUP_SECS: f64 = 3.0;
/// Records of the open-loop pass: enough that its p99 has at least ten
/// samples beyond it.
const OPEN_RECORDS: usize = 1500;
/// Records replayed through the durable daemon (one fsync each).
const DURABLE_RECORDS: usize = 2000;
/// Seed of every served model's training data and initialisation. Serving
/// workloads vary their traffic with `--seed` and serve the same model on
/// every run, as a deployment would.
const MODEL_SEED: u64 = 0x5EED_0DE1;
/// Sessions interleaved per stream block.
const BLOCK: usize = 4;

pub const NAMES: [&str; 3] = ["stream-novel", "tenant-churn", "train-offline"];

pub fn run(name: &str, cfg: &RunCfg, report: &mut Report) -> Result<(), UcadError> {
    match name {
        "stream-novel" => stream_novel(cfg, report),
        "tenant-churn" => tenant_churn(cfg, report),
        "train-offline" => train_offline(cfg, report),
        other => Err(UcadError::invalid(
            "workload",
            format!("unknown workload `{other}`"),
        )),
    }
}

fn serve_cfg(mode: DetectionMode) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        mode,
        overload: OverloadPolicy::Block,
        ..ServeConfig::default()
    }
}

fn records_of(session: &Session) -> Vec<LogRecord> {
    session
        .ops
        .iter()
        .map(|op| LogRecord {
            timestamp: op.timestamp,
            user: session.user.clone(),
            client_ip: session.client_ip.clone(),
            session_id: session.id,
            sql: op.sql.clone(),
            table: op.table.clone(),
            op: op.kind,
            rows: 0,
        })
        .collect()
}

/// Random interleaving: each step takes the next record of a uniformly
/// chosen session that still has records.
fn interleave(lens: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut left: Vec<usize> = lens.to_vec();
    let mut order = Vec::with_capacity(lens.iter().sum());
    let mut live: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
    while !live.is_empty() {
        let k = rng.gen_range(0..live.len());
        let s = live[k];
        order.push(s);
        left[s] -= 1;
        if left[s] == 0 {
            live.swap_remove(k);
        }
    }
    order
}

/// Blocks of `BLOCK` sessions drawn from `next` until `records` records.
fn build_stream(
    records: usize,
    rng: &mut StdRng,
    mut next: impl FnMut(&mut StdRng, u64) -> (Vec<LogRecord>, bool),
) -> Stream {
    let mut stream = Stream::default();
    let (mut have, mut id) = (0usize, 1u64);
    while have < records {
        let block: Vec<(Vec<LogRecord>, bool)> = (0..BLOCK)
            .map(|_| {
                id += 1;
                next(rng, id)
            })
            .collect();
        have += block.iter().map(|b| b.0.len()).sum::<usize>();
        let lens: Vec<usize> = block.iter().map(|b| b.0.len()).collect();
        let order = interleave(&lens, rng);
        stream.push_block(|_| 0, &block, &order);
    }
    stream
}

/// Fresh labelled sessions: three normal to one anomalous, the anomalies
/// cycling through A1 privilege abuse, A2 credential stealing and A3
/// misoperation.
fn labelled_session(
    gen: &mut SessionGenerator,
    synth: &AnomalySynthesizer,
    rng: &mut StdRng,
    k: usize,
) -> LabeledSession {
    match (k % 4, (k / 4) % 3) {
        (3, 0) => {
            let base = gen.normal_session(rng).session;
            synth.privilege_abuse(&base, gen, rng)
        }
        (3, 1) => {
            let base = gen.normal_session(rng).session;
            synth.credential_stealing(&base, gen, rng)
        }
        (3, _) => synth.misoperation(gen, rng),
        _ => LabeledSession::normal(gen.normal_session(rng).session),
    }
}

/// `n` normal sessions of `spec` from the fixed model seed.
fn normal_sessions(spec: &ScenarioSpec, n: usize) -> Vec<Session> {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut gen = SessionGenerator::new(spec.clone());
    (0..n)
        .map(|_| gen.normal_session(&mut rng).session)
        .collect()
}

fn with_id(mut labelled: LabeledSession, id: u64) -> (Vec<LogRecord>, bool) {
    labelled.session.id = id;
    (records_of(&labelled.session), labelled.label.is_some())
}

/// Per-epoch training rates, windows per second.
fn epoch_rates(report: &ucad_model::TrainReport) -> impl Iterator<Item = f64> + '_ {
    report.epoch_secs.iter().map(|s| report.windows as f64 / s)
}

/// Runs `setup` `SETUP_REPS` times, reports the median as `setup_s`, and
/// returns the last result.
fn timed_setup<S>(
    report: &mut Report,
    reps: usize,
    mut setup: impl FnMut() -> Result<S, UcadError>,
) -> Result<S, UcadError> {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < reps || (secs.len() < 3 * reps && secs.iter().sum::<f64>() < MIN_SETUP_SECS)
    {
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&secs), "s");
    report.note(format!(
        "setup: {} reps, seconds {:?}",
        secs.len(),
        rounded(&secs)
    ));
    Ok(last.expect("at least one setup rep"))
}

fn setup_reps(cfg: &RunCfg) -> usize {
    if cfg.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// Saves the model checkpoint and the preprocessing/detector profile a
/// restarted process needs.
fn save_profile(dir: &Path, system: &Ucad) -> Result<(), UcadError> {
    let mut store = CheckpointStore::open(dir.join("ckpt"), 2)?;
    store.save(&system.model)?;
    let profile = serde_json::to_string(&(&system.preprocessor, &system.detector))
        .map_err(|e| UcadError::protocol(e.to_string()))?;
    std::fs::write(dir.join("profile.json"), profile)
        .map_err(|e| UcadError::io(dir.display().to_string(), &e))
}

fn load_profile(dir: &Path) -> Result<Ucad, UcadError> {
    let store = CheckpointStore::open(dir.join("ckpt"), 2)?;
    let model = store
        .load_latest()?
        .ok_or_else(|| UcadError::protocol("no checkpoint saved".to_string()))?;
    let text = std::fs::read_to_string(dir.join("profile.json"))
        .map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
    let (preprocessor, detector): (Preprocessor, DetectorConfig) =
        serde_json::from_str(&text).map_err(|e| UcadError::protocol(e.to_string()))?;
    Ok(Ucad {
        preprocessor,
        model,
        detector,
    })
}

// ---------------------------------------------------------------- stream-novel

/// Records of the stream-novel stream, and its open-loop rate (about a
/// quarter of the closed-loop rate).
const NOVEL_RECORDS: usize = 16_000;
const NOVEL_RATE: f64 = 1200.0;
/// Top-p of the stream-novel detector: wide enough that most normal
/// sessions are scored to their end, so forward passes dominate.
const NOVEL_TOP_P: usize = 40;
/// Sessions the stream-novel preprocessor is fitted on, and the model's
/// share of them.
const NOVEL_TRAIN: usize = 1000;
const NOVEL_MODEL_TRAIN: usize = 80;

fn stream_novel(cfg: &RunCfg, report: &mut Report) -> Result<(), UcadError> {
    let spec = ScenarioSpec::location_service();
    let mut ucfg = UcadConfig::scenario2();
    ucfg.model = TransDasConfig {
        hidden: 16,
        heads: 2,
        blocks: 2,
        window: 30,
        stride: 8,
        epochs: 2,
        seed: MODEL_SEED,
        ..TransDasConfig::scenario2(0)
    };
    ucfg.detector = DetectorConfig {
        top_p: NOVEL_TOP_P,
        min_context: 2,
        mode: DetectionMode::Streaming,
    };
    let scfg = serve_cfg(DetectionMode::Streaming);
    let mut rates = Vec::new();
    let (system, raw, stream) = timed_setup(report, setup_reps(cfg), || {
        let raw = normal_sessions(&spec, NOVEL_TRAIN);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut gen = SessionGenerator::new(spec.clone());
        let synth = AnomalySynthesizer::new(&spec);
        let mut k = 0;
        let stream = build_stream(NOVEL_RECORDS, &mut rng, |rng, id| {
            k += 1;
            with_id(labelled_session(&mut gen, &synth, rng, k), id)
        });
        // The access policy and vocabulary need the wide corpus (Scenario II
        // has many users, addresses and tables); the model trains on a
        // slice of the purified sessions.
        let fit = PreprocessConfig {
            policy_min_support: 1,
            clean: false,
            ..ucfg.preprocess
        };
        let (pre, purified, _) = Preprocessor::fit(&raw, fit, ucfg.seed);
        let take = purified.len().min(NOVEL_MODEL_TRAIN);
        let (system, train) =
            Ucad::train_tokenized(pre, &purified[..take], ucfg.model, ucfg.detector);
        rates.extend(epoch_rates(&train));
        let mut rig = EngineRig {
            system: system.clone(),
            cfg: scfg,
        };
        let t = rig.start(None)?;
        rig.stop(t)?;
        Ok((system, raw, stream))
    })?;
    report.metric("train_windows_per_s", upper_quartile(&rates), "1/s");
    let mut rig = EngineRig {
        system: system.clone(),
        cfg: scfg,
    };
    let mut tracer = Tracer::new(cfg.trace);
    let plan = Plan {
        stream: &stream,
        rate: NOVEL_RATE,
        open_records: OPEN_RECORDS,
        closed_secs: cfg.closed_secs(),
        min_passes: 3,
    };
    let served = serving::run(&mut rig, &plan, &mut tracer, report)?;
    serving::report_served(&served, &stream, report);
    let prefix = stream.prefix(DURABLE_RECORDS);
    let expected = crate::drive::alerts_of(&served.closed.alerts, &prefix.session_ids());
    let durable = serving::durable(
        &system,
        scfg,
        &prefix,
        &cfg.work.join("durable"),
        Some(&expected),
        &mut tracer,
        report,
    )?;
    if cfg.trace {
        return ladder::run(
            &LadderInput {
                workload: "stream-novel",
                system: &system,
                tenants: None,
                train_raw: &raw,
                stream: &stream,
                serve: scfg,
                durable: &durable,
                records_per_s: stream.records() as f64 / median(&served.closed_secs),
                overhead_frac: served.overhead_frac,
                work: &cfg.work,
            },
            &mut tracer,
            report,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- tenant-churn

/// Records of the tenant-churn stream, and its open-loop rate (about a
/// quarter of the closed-loop rate).
const TENANT_RECORDS: usize = 16_000;
const TENANT_RATE: f64 = 2000.0;
/// Tenants in the fleet and resident-model budget (half stay cold).
const TENANTS: u64 = 6;
const BUDGET: usize = 3;
const TENANT_CACHE: usize = 256;
/// Training sessions per tenant archetype.
const TENANT_TRAIN: usize = 60;
/// Sessions per tenant per fleet round; each round is one stream block.
const ROUND_SESSIONS: usize = 4;

/// Tenant specs of round `round`: tenant k is archetype k mod 3.
fn round_specs(seed: u64, round: u64) -> Vec<TenantSpec> {
    (1..=TENANTS)
        .map(|tenant| TenantSpec {
            tenant,
            archetype: TenantArchetype::all()[(tenant as usize - 1) % 3],
            seed: seed ^ (round << 20) ^ (tenant * 0x9E37),
        })
        .collect()
}

/// Zipf fleet rounds until `records` records; session ids get the round in
/// bits 12..24 so rounds never collide. A session is labelled abnormal when
/// it holds a statement shape its tenant's training log never produced.
fn fleet_stream(seed: u64, records: usize, shapes: &[BTreeSet<String>]) -> Stream {
    let mut stream = Stream::default();
    let mut have = 0;
    let mut round = 0u64;
    while have < records {
        round += 1;
        let events = ucad_dbsim::fleet_events(
            &round_specs(seed, round),
            ROUND_SESSIONS,
            0.05,
            1.0,
            seed ^ round,
        );
        let remap = |sid: u64| sid | (round << 12);
        let mut abnormal: std::collections::BTreeMap<u64, bool> = Default::default();
        let start = stream.events.len();
        for ev in events {
            match ev {
                ucad_dbsim::FleetEvent::Record { tenant, mut record } => {
                    record.session_id = remap(record.session_id);
                    let shape = abstract_statement(&record.sql);
                    let known = shapes[(tenant as usize - 1) % 3].contains(&shape);
                    *abnormal.entry(record.session_id).or_default() |= !known;
                    stream.events.push(Event::Record { tenant, record });
                    have += 1;
                }
                ucad_dbsim::FleetEvent::Close { tenant, session_id } => {
                    let session_id = remap(session_id);
                    stream.labels.push((session_id, abnormal[&session_id]));
                    stream.events.push(Event::Close { tenant, session_id });
                }
            }
        }
        debug_assert!(stream.events.len() > start);
        stream.block_ends.push(stream.events.len());
    }
    stream
}

fn tenant_churn(cfg: &RunCfg, report: &mut Report) -> Result<(), UcadError> {
    let scfg = ServeConfig {
        cache_capacity: TENANT_CACHE,
        ..serve_cfg(DetectionMode::Streaming)
    };
    let mut ucfg = UcadConfig::scenario1();
    ucfg.model = TransDasConfig {
        hidden: 10,
        heads: 2,
        blocks: 2,
        window: 30,
        epochs: 10,
        seed: MODEL_SEED,
        ..ucfg.model
    };
    // The training traffic is clean by construction, and the clustering
    // stage would discard every short commenting session.
    ucfg.preprocess.clean = false;
    // Per-archetype epoch rates and window counts: the archetypes train at
    // different speeds, so their quartiles are taken apart and combined.
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut windows = [0usize; 3];
    let mut rep = 0;
    let (systems, raws, stream, catalog) = timed_setup(report, setup_reps(cfg), || {
        rep += 1;
        let mut systems = Vec::new();
        let mut raws = Vec::new();
        let mut shapes = Vec::new();

        for (a, archetype) in TenantArchetype::all().into_iter().enumerate() {
            // Train on the archetype's own serving-style traffic (same
            // clock band and address plan as the fleet), from a tenant id
            // and seed the fleet never uses.
            let trainer = TenantSpec {
                tenant: 100 + archetype as u64,
                archetype,
                seed: MODEL_SEED,
            };
            let recs: Vec<LogRecord> =
                ucad_dbsim::tenant_serving_events(&trainer, TENANT_TRAIN, 0.0)
                    .into_iter()
                    .filter_map(|e| match e {
                        ucad_dbsim::FleetEvent::Record { record, .. } => Some(record),
                        ucad_dbsim::FleetEvent::Close { .. } => None,
                    })
                    .collect();
            shapes.push(recs.iter().map(|r| abstract_statement(&r.sql)).collect());
            let raw = Session::from_log_records(&recs);
            let (system, train) = Ucad::train(&raw, ucfg);
            rates[a].extend(epoch_rates(&train.model));
            windows[a] = train.model.windows;
            systems.push(system);
            raws.push(raw);
        }
        let stream = fleet_stream(cfg.seed, TENANT_RECORDS, &shapes);
        let catalog = cfg.work.join(format!("catalog-{rep}"));
        let mut registry = ucad_tenant::TenantRegistry::open(&catalog, BUDGET, TENANT_CACHE)?;
        for tenant in 1..=TENANTS {
            let k = (tenant as usize - 1) % 3;
            registry.register(tenant, &format!("tenant-{tenant}"), &systems[k])?;
        }
        drop(registry);
        let mut rig = PoolRig {
            catalog: catalog.clone(),
            budget: BUDGET,
            cache_capacity: TENANT_CACHE,
            cfg: scfg,
        };
        let pool = rig.start(None)?;
        rig.stop(pool)?;
        Ok((systems, raws, stream, catalog))
    })?;
    // One epoch of each archetype, at each one's upper-quartile rate.
    let epoch_secs: f64 = (0..3)
        .map(|a| windows[a] as f64 / upper_quartile(&rates[a]))
        .sum();
    report.metric(
        "train_windows_per_s",
        windows.iter().sum::<usize>() as f64 / epoch_secs,
        "1/s",
    );
    let mut rig = PoolRig {
        catalog: catalog.clone(),
        budget: BUDGET,
        cache_capacity: TENANT_CACHE,
        cfg: scfg,
    };
    let mut tracer = Tracer::new(cfg.trace);
    let plan = Plan {
        stream: &stream,
        rate: TENANT_RATE,
        open_records: OPEN_RECORDS,
        closed_secs: cfg.closed_secs(),
        min_passes: 3,
    };
    let served = serving::run(&mut rig, &plan, &mut tracer, report)?;
    serving::report_served(&served, &stream, report);
    // Single-model phases (the durable daemon, the ladder's single-model
    // rungs) see the head tenant's own traffic and model.
    let head = single_tenant(&stream, 1);
    let durable = serving::durable(
        &systems[0],
        scfg,
        &head.prefix(DURABLE_RECORDS),
        &cfg.work.join("durable"),
        None,
        &mut tracer,
        report,
    )?;
    if cfg.trace {
        let tenants: Vec<(u64, &Ucad)> = (1..=TENANTS)
            .map(|t| (t, &systems[(t as usize - 1) % 3]))
            .collect();
        return ladder::run(
            &LadderInput {
                workload: "tenant-churn",
                system: &systems[0],
                tenants: Some(Fleet {
                    tenants: &tenants,
                    budget: BUDGET,
                    stream: &stream,
                }),
                train_raw: &raws[0],
                stream: &head,
                serve: scfg,
                durable: &durable,
                records_per_s: stream.records() as f64 / median(&served.closed_secs),
                overhead_frac: served.overhead_frac,
                work: &cfg.work,
            },
            &mut tracer,
            report,
        );
    }
    Ok(())
}

/// The events of one tenant, as a single-model stream.
fn single_tenant(stream: &Stream, tenant: u64) -> Stream {
    let mut out = Stream::default();
    for (i, e) in stream.events.iter().enumerate() {
        let t = match e {
            Event::Record { tenant, .. } | Event::Close { tenant, .. } => *tenant,
        };
        if t == tenant {
            out.events.push(e.clone());
        }
        if stream.block_ends.contains(&(i + 1)) && out.block_ends.last() != Some(&out.events.len())
        {
            out.block_ends.push(out.events.len());
        }
    }
    let ids: BTreeSet<u64> = out
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Close { session_id, .. } => Some(*session_id),
            Event::Record { .. } => None,
        })
        .collect();
    out.labels = stream
        .labels
        .iter()
        .filter(|(s, _)| ids.contains(s))
        .copied()
        .collect();
    out
}

// ---------------------------------------------------------------- train-offline

/// Open-loop rate of single-session verdicts in train-offline.
const VERDICT_RATE: f64 = 850.0;
/// Sessions the restarted detector judges again in train-offline.
const RESTART_BATCH: usize = 64;
/// Test sessions per set in the enlarged detection corpus.
const CORPUS_PER_SET: usize = 500;

struct Corpus {
    keys: Vec<Vec<u32>>,
    labels: Vec<(u64, bool)>,
    sessions: Vec<Session>,
    ops: usize,
}

fn detect_corpus(spec: &ScenarioSpec, pre: &Preprocessor, seed: u64) -> Corpus {
    let ds = ScenarioDataset::generate(spec, 4 * CORPUS_PER_SET, seed);
    let mut corpus = Corpus {
        keys: Vec::new(),
        labels: Vec::new(),
        sessions: Vec::new(),
        ops: 0,
    };
    for (_, set) in ds.test_sets() {
        for labelled in set {
            let id = corpus.sessions.len() as u64 + 1;
            let mut session = labelled.session.clone();
            session.id = id;
            corpus.ops += session.ops.len();
            corpus.keys.push(pre.transform(&session));
            corpus.labels.push((id, labelled.is_abnormal()));
            corpus.sessions.push(session);
        }
    }
    corpus
}

fn verdicts(d: &[ucad::Detection]) -> String {
    serde_json::to_string(d).expect("detections serialize")
}

fn train_offline(cfg: &RunCfg, report: &mut Report) -> Result<(), UcadError> {
    let spec = ScenarioSpec::commenting();
    let (ds, pre, purified, corpus) = timed_setup(report, setup_reps(cfg), || {
        let ds = ScenarioDataset::generate(&spec, spec.default_train_sessions, cfg.seed);
        let (pre, purified, _) = Preprocessor::fit(&ds.train, PreprocessConfig::default(), 42);
        let corpus = detect_corpus(&spec, &pre, cfg.seed ^ 0xC0A5);
        Ok((ds, pre, purified, corpus))
    })?;
    let mut model = TransDas::new(TransDasConfig {
        vocab_size: pre.vocab.key_space(),
        seed: cfg.seed,
        ..TransDasConfig::scenario1(0)
    });
    let train = model.train(&purified);
    let epoch_rates: Vec<f64> = train
        .epoch_secs
        .iter()
        .map(|s| train.windows as f64 / s)
        .collect();
    report.metric("train_windows_per_s", upper_quartile(&epoch_rates), "1/s");
    report.note(format!(
        "training: {} windows x {} epochs in {:.2}s",
        train.windows,
        train.epoch_secs.len(),
        train.epoch_secs.iter().sum::<f64>()
    ));
    report.attempted += (train.windows * train.epoch_secs.len()) as u64;
    let system = Ucad {
        preprocessor: pre,
        model,
        detector: DetectorConfig::scenario1(),
    };
    let detector = Detector::new(&system.model, system.detector);

    // Closed loop: batch detection over the whole corpus, set by set,
    // repeated until the budget is spent. Open loop, after the first pass:
    // single-session verdicts on a fixed schedule, spread over the sets.
    let mut pass_secs: Vec<f64> = Vec::new();
    let mut first: Option<Vec<ucad::Detection>> = None;
    while pass_secs.len() < 3 || pass_secs.iter().sum::<f64>() < cfg.closed_secs() {
        let t = Instant::now();
        let mut out = Vec::with_capacity(corpus.keys.len());
        for set in corpus.keys.chunks(CORPUS_PER_SET) {
            out.extend(detector.detect_batch(set, None));
        }
        pass_secs.push(t.elapsed().as_secs_f64());
        report.attempted += out.len() as u64;
        match &first {
            Some(f) if verdicts(f) != verdicts(&out) => report
                .gate_failures
                .push("batch detection passes disagree".to_string()),
            Some(_) => {}
            None if cfg.trace => first = Some(out),
            None => {
                open_verdicts(&detector, &corpus, &out, report);
                first = Some(out);
            }
        }
    }
    let closed = first.expect("at least one pass");
    let secs = median(&pass_secs);
    report.metric(
        "detect_sessions_per_s",
        corpus.keys.len() as f64 / secs,
        "1/s",
    );
    report.metric("records_per_s", corpus.ops as f64 / secs, "1/s");
    let flagged: BTreeSet<u64> = corpus
        .labels
        .iter()
        .zip(&closed)
        .filter(|(_, d)| d.abnormal)
        .map(|((id, _), _)| *id)
        .collect();
    report.metric(
        "detect_f1",
        crate::stats::f1(&corpus.labels, &flagged),
        "ratio",
    );
    report.note(format!(
        "batch detection: {} sessions ({} records), {} passes, seconds {:?}",
        corpus.keys.len(),
        corpus.ops,
        pass_secs.len(),
        rounded(&pass_secs)
    ));

    // Restart: load the saved model and profile, then judge a fixed probe
    // of sessions, which must get the trained detector's verdicts.
    let dir = cfg.work.join("restart");
    save_profile(&dir, &system)?;
    let batch = normal_sessions(&spec, RESTART_BATCH);
    let keys_of = |system: &Ucad| -> Vec<Vec<u32>> {
        batch
            .iter()
            .map(|s| system.preprocessor.transform(s))
            .collect()
    };
    let expected = detector.detect_batch(&keys_of(&system), None);
    let restarted = load_profile(&dir)?;
    let again = Detector::new(&restarted.model, restarted.detector)
        .detect_batch(&keys_of(&restarted), None);
    report.attempted += batch.len() as u64;
    if verdicts(&again) != verdicts(&expected) {
        report
            .gate_failures
            .push("restarted detector disagrees with the trained one".to_string());
    }

    let stream = corpus_stream(&corpus, cfg.seed);
    let serve = serve_cfg(DetectionMode::Block);
    let mut tracer = Tracer::new(cfg.trace);
    let durable = serving::durable(
        &system,
        serve,
        &stream.prefix(DURABLE_RECORDS),
        &cfg.work.join("durable"),
        None,
        &mut tracer,
        report,
    )?;
    if cfg.trace {
        return ladder::run(
            &LadderInput {
                workload: "train-offline",
                system: &system,
                tenants: None,
                train_raw: &ds.train,
                stream: &stream,
                serve,
                durable: &durable,
                records_per_s: corpus.ops as f64 / secs,
                overhead_frac: None,
                work: &cfg.work,
            },
            &mut tracer,
            report,
        );
    }
    Ok(())
}

/// The open loop of train-offline: single-session verdicts over a spread
/// of the corpus on a constant-rate schedule, latency from each scheduled
/// call to its verdict. Gates the verdicts against the batch pass
/// `closed`.
fn open_verdicts(
    detector: &Detector,
    corpus: &Corpus,
    closed: &[ucad::Detection],
    report: &mut Report,
) {
    let picks: Vec<usize> = (0..OPEN_RECORDS)
        .map(|i| (i * 7919) % corpus.keys.len())
        .collect();
    let due = crate::schedule::constant_rate(picks.len(), VERDICT_RATE);
    let origin = Instant::now() + Duration::from_millis(1);
    let mut finished = Vec::with_capacity(picks.len());
    let mut open = Vec::with_capacity(picks.len());
    let late = crate::schedule::run(origin, &due, |i| {
        let keys = std::slice::from_ref(&corpus.keys[picks[i]]);
        open.extend(detector.detect_batch(keys, None));
        finished.push(origin.elapsed().as_nanos() as u64);
    });
    let elapsed = origin.elapsed();
    report.attempted += picks.len() as u64;
    let expected: Vec<ucad::Detection> = picks.iter().map(|&i| closed[i].clone()).collect();
    if verdicts(&expected) != verdicts(&open) {
        report
            .gate_failures
            .push("open-loop verdicts differ from batch verdicts".to_string());
    }
    let latency: Vec<u64> = finished
        .iter()
        .zip(&due)
        .map(|(f, d)| f.saturating_sub(*d))
        .collect();
    serving::latency_notes(&latency, &late, elapsed, report);
}

/// The detection corpus as a replayable record stream, for the ladder.
fn corpus_stream(corpus: &Corpus, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut stream = Stream::default();
    for chunk in corpus
        .sessions
        .iter()
        .zip(&corpus.labels)
        .collect::<Vec<_>>()
        .chunks(BLOCK)
    {
        let block: Vec<(Vec<LogRecord>, bool)> = chunk
            .iter()
            .map(|(s, (_, l))| (records_of(s), *l))
            .collect();
        let lens: Vec<usize> = block.iter().map(|b| b.0.len()).collect();
        let order = interleave(&lens, &mut rng);
        stream.push_block(|_| 0, &block, &order);
    }
    stream
}
