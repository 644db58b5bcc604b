//! Workload-drift detection over the serving engine's detection stream.
//!
//! The paper (§2, §6.3) assumes access patterns evolve with the application
//! and prescribes periodic retraining on fresh audit logs. [`DriftMonitor`]
//! turns that prescription into a signal: it subscribes to the serving
//! engine as a [`ServeObserver`] and compares three sliding-window
//! statistics against a training-time [`DriftBaseline`]:
//!
//! * **alert-rate EWMA** — an exponentially weighted average of the
//!   per-session alert indicator, compared against the baseline session
//!   alert rate (a drifted workload alerts far more often);
//! * **unseen-key ratio** — the fraction of records whose statement
//!   tokenizes to `k0` (never seen in training: the vocabulary is frozen,
//!   so genuinely new statements can only drift upward);
//! * **PSI** — the Population Stability Index between the window's top-*p*
//!   rank histogram and the baseline rank distribution, the standard
//!   score-shift statistic for deployed models.
//!
//! Record statistics are evaluated once per `window` records; any breach
//! raises a drift alarm (counted, gauged, and emitted as a `life.drift_alarm`
//! event through [`ucad_obs`]).
//!
//! Determinism: every statistic is a pure fold over the observer call
//! sequence, so a single-shard engine produces a bit-reproducible
//! [`DriftSnapshot`] for a given record stream. With multiple shards the
//! call interleaving follows worker timing — pin drift golden tests to one
//! shard.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use ucad::{Alert, Detector, ServeObserver, Ucad};
use ucad_model::UcadError;
use ucad_obs::{Counter, Gauge, MetricKind, Registry};

/// Thresholds and window geometry of a [`DriftMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Records per evaluation window.
    pub window: u64,
    /// EWMA smoothing factor for the per-session alert indicator, in
    /// `(0, 1]` (higher = faster reaction).
    pub ewma_alpha: f64,
    /// Alarm when the alert-rate EWMA exceeds
    /// `baseline.alert_rate * ewma_factor + ewma_margin`.
    pub ewma_factor: f64,
    /// Additive slack on the alert-rate threshold, absorbing baselines
    /// near zero.
    pub ewma_margin: f64,
    /// Alarm when a window's unseen-key ratio exceeds this.
    pub unseen_threshold: f64,
    /// Alarm when a window's PSI against the baseline rank distribution
    /// exceeds this (0.25 is the conventional "significant shift" bound).
    pub psi_threshold: f64,
    /// Number of rank buckets: ranks `0..buckets-2` individually, one
    /// overflow bucket, one bucket for unranked (unknown-statement)
    /// positions. At least 2.
    pub rank_buckets: usize,
    /// Sessions that must close before the alert-rate statistic may alarm
    /// (the EWMA is meaningless over a handful of sessions).
    pub min_sessions: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 256,
            ewma_alpha: 0.2,
            ewma_factor: 3.0,
            ewma_margin: 0.05,
            unseen_threshold: 0.10,
            psi_threshold: 0.25,
            rank_buckets: 8,
            min_sessions: 5,
        }
    }
}

/// Probability floor for PSI, so empty buckets do not blow the logarithm up.
const PSI_EPSILON: f64 = 1e-4;

/// Training-time reference the live statistics are compared against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftBaseline {
    /// Fraction of training-corpus sessions the detector alerts on (its
    /// training false-alarm rate).
    pub alert_rate: f64,
    /// Distribution over rank buckets of every scored position, summing
    /// to 1.
    pub rank_dist: Vec<f64>,
}

/// Bucket index of a scored position's rank. Ranks `0..b-2` map to their
/// own bucket, larger ranks to the overflow bucket `b-2`, unranked
/// (unknown-statement) positions to the final bucket `b-1`.
fn bucket_of(rank: Option<usize>, buckets: usize) -> usize {
    match rank {
        Some(r) => r.min(buckets - 2),
        None => buckets - 1,
    }
}

/// Counts-to-probabilities with epsilon flooring (PSI convention).
fn floored_dist(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    counts
        .iter()
        .map(|&c| {
            if total == 0 {
                PSI_EPSILON
            } else {
                (c as f64 / total as f64).max(PSI_EPSILON)
            }
        })
        .collect()
}

/// Population Stability Index between a live and a baseline distribution.
fn psi(live: &[f64], base: &[f64]) -> f64 {
    live.iter()
        .zip(base)
        .map(|(&p, &q)| {
            let q = q.max(PSI_EPSILON);
            (p - q) * (p / q).ln()
        })
        .sum()
}

impl DriftBaseline {
    /// Computes the baseline by replaying the detector over tokenized
    /// sessions — typically the purified training corpus — with the same
    /// stop-on-first-abnormal walk the serving engine uses, so the baseline
    /// measures exactly what the live statistics will.
    pub fn from_keyed_sessions(
        system: &Ucad,
        sessions: &[Vec<u32>],
        rank_buckets: usize,
    ) -> Result<Self, UcadError> {
        if rank_buckets < 2 {
            return Err(UcadError::invalid(
                "rank_buckets",
                "need at least an overflow and an unranked bucket",
            ));
        }
        if sessions.is_empty() {
            return Err(UcadError::invalid(
                "sessions",
                "cannot derive a drift baseline from zero sessions",
            ));
        }
        let detector = Detector::new(&system.model, system.detector);
        let mut counts = vec![0u64; rank_buckets];
        let mut alerted = 0u64;
        for keys in sessions {
            let verdicts = detector.run_verdicts_detail(keys, 0, None);
            if verdicts.last().is_some_and(|v| v.verdict.is_abnormal()) {
                alerted += 1;
            }
            for v in &verdicts {
                counts[bucket_of(v.rank, rank_buckets)] += 1;
            }
        }
        Ok(DriftBaseline {
            alert_rate: alerted as f64 / sessions.len() as f64,
            rank_dist: floored_dist(&counts),
        })
    }
}

/// Serializable state snapshot, the payload drift golden tests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSnapshot {
    /// Records observed.
    pub records: u64,
    /// Records that tokenized to the unknown statement `k0`.
    pub unseen: u64,
    /// Positions scored.
    pub scored: u64,
    /// Sessions closed.
    pub sessions: u64,
    /// Closed sessions that had alerted.
    pub alerted_sessions: u64,
    /// Drift alarms raised.
    pub alarms: u64,
    /// Current alert-rate EWMA.
    pub alert_rate_ewma: f64,
    /// Unseen-key ratio of the last completed window.
    pub last_unseen_ratio: f64,
    /// PSI of the last completed window.
    pub last_psi: f64,
}

struct State {
    records: u64,
    unseen: u64,
    scored: u64,
    sessions: u64,
    alerted_sessions: u64,
    alarms: u64,
    ewma: f64,
    window_records: u64,
    window_unseen: u64,
    window_ranks: Vec<u64>,
    last_unseen_ratio: f64,
    last_psi: f64,
}

/// Sliding-window drift detector; implements [`ServeObserver`] so it plugs
/// straight into [`ucad::ShardedOnlineUcad::try_new_full`]'s observer slot.
pub struct DriftMonitor {
    cfg: DriftConfig,
    baseline: DriftBaseline,
    state: Mutex<State>,
    records: Counter,
    unseen: Counter,
    alarms: Counter,
    ewma_gauge: Gauge,
    unseen_gauge: Gauge,
    psi_gauge: Gauge,
}

impl DriftMonitor {
    /// Builds a monitor around a baseline; rejects degenerate
    /// configurations with [`UcadError::InvalidConfig`].
    pub fn new(cfg: DriftConfig, baseline: DriftBaseline) -> Result<Self, UcadError> {
        if cfg.window == 0 {
            return Err(UcadError::invalid(
                "window",
                "need at least one record per window",
            ));
        }
        if cfg.rank_buckets < 2 {
            return Err(UcadError::invalid(
                "rank_buckets",
                "need at least an overflow and an unranked bucket",
            ));
        }
        if !(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0) {
            return Err(UcadError::invalid("ewma_alpha", "must lie in (0, 1]"));
        }
        if baseline.rank_dist.len() != cfg.rank_buckets {
            return Err(UcadError::invalid(
                "rank_buckets",
                format!(
                    "baseline has {} buckets, config wants {}",
                    baseline.rank_dist.len(),
                    cfg.rank_buckets
                ),
            ));
        }
        let ewma_gauge = Gauge::new();
        ewma_gauge.set(baseline.alert_rate);
        Ok(DriftMonitor {
            state: Mutex::new(State {
                records: 0,
                unseen: 0,
                scored: 0,
                sessions: 0,
                alerted_sessions: 0,
                alarms: 0,
                ewma: baseline.alert_rate,
                window_records: 0,
                window_unseen: 0,
                window_ranks: vec![0; cfg.rank_buckets],
                last_unseen_ratio: 0.0,
                last_psi: 0.0,
            }),
            cfg,
            baseline,
            records: Counter::new(),
            unseen: Counter::new(),
            alarms: Counter::new(),
            ewma_gauge,
            unseen_gauge: Gauge::new(),
            psi_gauge: Gauge::new(),
        })
    }

    /// Exposes the monitor's cells on a metrics registry under
    /// `ucad_life_*`, tagged with the given labels. The registry adopts the
    /// monitor's own cells, so [`DriftMonitor::snapshot`] and the
    /// exposition always agree.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.describe(
            "ucad_life_records_total",
            MetricKind::Counter,
            "Records observed by the drift monitor",
        );
        registry.describe(
            "ucad_life_unseen_total",
            MetricKind::Counter,
            "Records whose statement was never seen in training (k0)",
        );
        registry.describe(
            "ucad_life_drift_alarms_total",
            MetricKind::Counter,
            "Drift alarms raised",
        );
        registry.describe(
            "ucad_life_alert_rate_ewma",
            MetricKind::Gauge,
            "EWMA of the per-session alert indicator",
        );
        registry.describe(
            "ucad_life_unseen_ratio",
            MetricKind::Gauge,
            "Unseen-key ratio of the last completed drift window",
        );
        registry.describe(
            "ucad_life_psi",
            MetricKind::Gauge,
            "Population Stability Index of the last completed drift window",
        );
        registry.register_counter("ucad_life_records_total", labels, &self.records);
        registry.register_counter("ucad_life_unseen_total", labels, &self.unseen);
        registry.register_counter("ucad_life_drift_alarms_total", labels, &self.alarms);
        registry.register_gauge("ucad_life_alert_rate_ewma", labels, &self.ewma_gauge);
        registry.register_gauge("ucad_life_unseen_ratio", labels, &self.unseen_gauge);
        registry.register_gauge("ucad_life_psi", labels, &self.psi_gauge);
    }

    /// Number of drift alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.state.lock().expect("drift state poisoned").alarms
    }

    /// True once any drift alarm has fired.
    pub fn drifted(&self) -> bool {
        self.alarms() > 0
    }

    /// The baseline the live statistics are compared against.
    pub fn baseline(&self) -> &DriftBaseline {
        &self.baseline
    }

    /// Snapshot of every statistic (the golden-test payload).
    pub fn snapshot(&self) -> DriftSnapshot {
        let st = self.state.lock().expect("drift state poisoned");
        DriftSnapshot {
            records: st.records,
            unseen: st.unseen,
            scored: st.scored,
            sessions: st.sessions,
            alerted_sessions: st.alerted_sessions,
            alarms: st.alarms,
            alert_rate_ewma: st.ewma,
            last_unseen_ratio: st.last_unseen_ratio,
            last_psi: st.last_psi,
        }
    }

    /// Window-boundary evaluation: computes the window statistics, updates
    /// the gauges, raises an alarm on any threshold breach, and resets the
    /// window accumulators.
    fn evaluate(&self, st: &mut State) {
        let unseen_ratio = st.window_unseen as f64 / st.window_records as f64;
        let window_psi = psi(&floored_dist(&st.window_ranks), &self.baseline.rank_dist);
        st.last_unseen_ratio = unseen_ratio;
        st.last_psi = window_psi;
        self.unseen_gauge.set(unseen_ratio);
        self.psi_gauge.set(window_psi);

        let rate_bound = self.baseline.alert_rate * self.cfg.ewma_factor + self.cfg.ewma_margin;
        let rate_breach = st.sessions >= self.cfg.min_sessions && st.ewma > rate_bound;
        let unseen_breach = unseen_ratio > self.cfg.unseen_threshold;
        let psi_breach = window_psi > self.cfg.psi_threshold;
        if rate_breach || unseen_breach || psi_breach {
            st.alarms += 1;
            self.alarms.inc();
            ucad_obs::event(
                "life.drift_alarm",
                &[
                    ("alert_rate_ewma", format!("{:.6}", st.ewma)),
                    ("unseen_ratio", format!("{unseen_ratio:.6}")),
                    ("psi", format!("{window_psi:.6}")),
                    ("rate_breach", rate_breach.to_string()),
                    ("unseen_breach", unseen_breach.to_string()),
                    ("psi_breach", psi_breach.to_string()),
                ],
            );
        }
        st.window_records = 0;
        st.window_unseen = 0;
        st.window_ranks.iter_mut().for_each(|c| *c = 0);
    }
}

impl ServeObserver for DriftMonitor {
    fn on_record(&self, key: u32) {
        let mut st = self.state.lock().expect("drift state poisoned");
        st.records += 1;
        st.window_records += 1;
        self.records.inc();
        if key == 0 {
            st.unseen += 1;
            st.window_unseen += 1;
            self.unseen.inc();
        }
        if st.window_records >= self.cfg.window {
            self.evaluate(&mut st);
        }
    }

    fn on_score(&self, rank: Option<usize>, _abnormal: bool) {
        let mut st = self.state.lock().expect("drift state poisoned");
        st.scored += 1;
        let b = bucket_of(rank, self.cfg.rank_buckets);
        st.window_ranks[b] += 1;
    }

    fn on_alert(&self, _alert: &Alert) {}

    fn on_session_close(&self, alerted: bool) {
        let mut st = self.state.lock().expect("drift state poisoned");
        st.sessions += 1;
        if alerted {
            st.alerted_sessions += 1;
        }
        let x = if alerted { 1.0 } else { 0.0 };
        st.ewma = self.cfg.ewma_alpha * x + (1.0 - self.cfg.ewma_alpha) * st.ewma;
        self.ewma_gauge.set(st.ewma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_baseline(buckets: usize, alert_rate: f64) -> DriftBaseline {
        DriftBaseline {
            alert_rate,
            rank_dist: vec![1.0 / buckets as f64; buckets],
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_monitors() {
        let b = flat_baseline(8, 0.1);
        let bad_window = DriftConfig {
            window: 0,
            ..DriftConfig::default()
        };
        assert!(DriftMonitor::new(bad_window, b.clone()).is_err());
        let bad_alpha = DriftConfig {
            ewma_alpha: 0.0,
            ..DriftConfig::default()
        };
        assert!(DriftMonitor::new(bad_alpha, b.clone()).is_err());
        let mismatched = DriftConfig {
            rank_buckets: 4,
            ..DriftConfig::default()
        };
        assert!(DriftMonitor::new(mismatched, b).is_err());
    }

    #[test]
    fn unseen_ratio_breach_alarms_at_the_window_boundary() {
        let cfg = DriftConfig {
            window: 10,
            unseen_threshold: 0.2,
            // Disable the other statistics.
            psi_threshold: f64::INFINITY,
            min_sessions: u64::MAX,
            ..DriftConfig::default()
        };
        let monitor = DriftMonitor::new(cfg, flat_baseline(8, 0.0)).unwrap();
        // First window: 1/10 unseen — under the threshold.
        for i in 0..10u32 {
            monitor.on_record(if i == 0 { 0 } else { 1 + i % 3 });
        }
        assert_eq!(monitor.alarms(), 0);
        assert!((monitor.snapshot().last_unseen_ratio - 0.1).abs() < 1e-12);
        // Second window: 5/10 unseen — breach.
        for i in 0..10u32 {
            monitor.on_record(if i % 2 == 0 { 0 } else { 2 });
        }
        assert_eq!(monitor.alarms(), 1);
        assert!((monitor.snapshot().last_unseen_ratio - 0.5).abs() < 1e-12);
        assert!(monitor.drifted());
    }

    #[test]
    fn psi_flags_a_shifted_rank_distribution() {
        let cfg = DriftConfig {
            window: 100,
            unseen_threshold: f64::INFINITY,
            psi_threshold: 0.25,
            min_sessions: u64::MAX,
            rank_buckets: 4,
            ..DriftConfig::default()
        };
        // Baseline: nearly all mass on rank 0.
        let baseline = DriftBaseline {
            alert_rate: 0.0,
            rank_dist: vec![0.97, 0.01, 0.01, 0.01],
        };
        let monitor = DriftMonitor::new(cfg, baseline.clone()).unwrap();
        // Matching window: no alarm.
        for i in 0..100u64 {
            monitor.on_score(Some(usize::from(i % 25 == 24)), false);
            monitor.on_record(1);
        }
        assert_eq!(monitor.alarms(), 0);
        let calm_psi = monitor.snapshot().last_psi;
        assert!(calm_psi < 0.25, "calm PSI too high: {calm_psi}");
        // Shifted window: mass moves to the overflow bucket.
        let monitor = DriftMonitor::new(cfg, baseline).unwrap();
        for _ in 0..100u64 {
            monitor.on_score(Some(7), false);
            monitor.on_record(1);
        }
        assert_eq!(monitor.alarms(), 1);
        assert!(monitor.snapshot().last_psi > 0.25);
    }

    #[test]
    fn alert_rate_ewma_tracks_session_closes() {
        let cfg = DriftConfig {
            window: 4,
            ewma_alpha: 0.5,
            ewma_factor: 2.0,
            ewma_margin: 0.0,
            unseen_threshold: f64::INFINITY,
            psi_threshold: f64::INFINITY,
            min_sessions: 2,
            ..DriftConfig::default()
        };
        let monitor = DriftMonitor::new(cfg, flat_baseline(8, 0.1)).unwrap();
        // EWMA starts at the baseline rate.
        assert!((monitor.snapshot().alert_rate_ewma - 0.1).abs() < 1e-12);
        monitor.on_session_close(true);
        monitor.on_session_close(true);
        // 0.5*1 + 0.5*(0.5*1 + 0.5*0.1) = 0.775 > 0.1*2.0
        let ewma = monitor.snapshot().alert_rate_ewma;
        assert!((ewma - 0.775).abs() < 1e-12, "ewma = {ewma}");
        for _ in 0..4 {
            monitor.on_record(1);
        }
        assert_eq!(
            monitor.alarms(),
            1,
            "rate breach must alarm at the boundary"
        );
    }

    #[test]
    fn registered_metrics_mirror_the_snapshot() {
        let reg = Registry::new();
        let cfg = DriftConfig {
            window: 2,
            unseen_threshold: 0.4,
            psi_threshold: f64::INFINITY,
            min_sessions: u64::MAX,
            ..DriftConfig::default()
        };
        let monitor = DriftMonitor::new(cfg, flat_baseline(8, 0.0)).unwrap();
        monitor.register_metrics(&reg, &[]);
        monitor.on_record(0);
        monitor.on_record(0);
        let text = reg.render_prometheus();
        assert!(text.contains("ucad_life_records_total 2"));
        assert!(text.contains("ucad_life_unseen_total 2"));
        assert!(text.contains("ucad_life_drift_alarms_total 1"));
        assert!(text.contains("ucad_life_unseen_ratio 1"));
    }
}
