//! Parameter sweeps: Figure 7 (sensitivity to p, L, g, h), Table 4/5
//! (training time vs h and L) and Figure 8 (robustness to contaminated
//! training data).

use crate::experiment::{run_transdas, TokenizedDataset};
use ucad_model::{DetectorConfig, TrainReport, TransDasConfig};

/// One sweep observation.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// F1 at this value.
    pub f1: f64,
    /// Mean training seconds per epoch at this value.
    pub secs_per_epoch: f64,
    /// Window positions one training epoch processes (windows × L): the
    /// machine-independent work count behind `secs_per_epoch`.
    pub positions_per_epoch: usize,
}

impl SweepPoint {
    fn new(value: f64, f1: f64, report: &TrainReport, window: usize) -> Self {
        SweepPoint {
            value,
            f1,
            secs_per_epoch: mean(&report.epoch_secs),
            positions_per_epoch: report.windows * window,
        }
    }
}

/// Sweeps the detection parameter `p` (no retraining needed conceptually,
/// but each point retrains for isolation — pass a pre-tokenized dataset).
pub fn sweep_top_p(
    data: &TokenizedDataset,
    model_cfg: TransDasConfig,
    det_cfg: DetectorConfig,
    values: &[usize],
) -> Vec<SweepPoint> {
    // p only affects detection: train once, evaluate per p.
    let cfg = TransDasConfig {
        vocab_size: data.vocab.key_space(),
        ..model_cfg
    };
    let mut model = ucad_model::TransDas::new(cfg);
    let report = model.train(&data.train);
    values
        .iter()
        .map(|&p| {
            let det = ucad_model::Detector::new(
                &model,
                DetectorConfig {
                    top_p: p,
                    ..det_cfg
                },
            );
            let confusions = data.evaluate(|keys| det.detect_session(keys).abnormal);
            let row = crate::metrics::MethodResult::from_confusions("p", &confusions);
            SweepPoint::new(p as f64, row.f1, &report, cfg.window)
        })
        .collect()
}

/// Sweeps the window size `L` (Table 5 / Figure 7b), retraining per value.
pub fn sweep_window(
    data: &TokenizedDataset,
    model_cfg: TransDasConfig,
    det_cfg: DetectorConfig,
    values: &[usize],
) -> Vec<SweepPoint> {
    values
        .iter()
        .map(|&l| {
            let cfg = TransDasConfig {
                window: l,
                ..model_cfg
            };
            let (row, report) = run_transdas(data, "L", cfg, det_cfg);
            SweepPoint::new(l as f64, row.f1, &report, l)
        })
        .collect()
}

/// Sweeps the triplet margin `g` (Figure 7c), retraining per value.
pub fn sweep_margin(
    data: &TokenizedDataset,
    model_cfg: TransDasConfig,
    det_cfg: DetectorConfig,
    values: &[f32],
) -> Vec<SweepPoint> {
    values
        .iter()
        .map(|&g| {
            let cfg = TransDasConfig {
                margin: g,
                ..model_cfg
            };
            let (row, report) = run_transdas(data, "g", cfg, det_cfg);
            SweepPoint::new(g as f64, row.f1, &report, cfg.window)
        })
        .collect()
}

/// Sweeps the hidden dimension `h` (Table 4 / Figure 7d), retraining per
/// value. `heads` is adjusted to the largest divisor of `h` not exceeding
/// the configured head count.
pub fn sweep_hidden(
    data: &TokenizedDataset,
    model_cfg: TransDasConfig,
    det_cfg: DetectorConfig,
    values: &[usize],
) -> Vec<SweepPoint> {
    values
        .iter()
        .map(|&h| {
            let heads = (1..=model_cfg.heads.min(h))
                .rev()
                .find(|m| h % m == 0)
                .unwrap_or(1);
            let cfg = TransDasConfig {
                hidden: h,
                heads,
                ..model_cfg
            };
            let (row, report) = run_transdas(data, "h", cfg, det_cfg);
            SweepPoint::new(h as f64, row.f1, &report, cfg.window)
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad_model::{DetectionMode, MaskMode};
    use ucad_trace::{ScenarioDataset, ScenarioSpec};

    fn quick() -> (TokenizedDataset, TransDasConfig, DetectorConfig) {
        let spec = ScenarioSpec::commenting();
        let ds = ScenarioDataset::generate(&spec, 40, 300);
        let data = TokenizedDataset::from_dataset(&ds);
        let model = TransDasConfig {
            hidden: 8,
            heads: 2,
            blocks: 1,
            window: 10,
            epochs: 2,
            mask: MaskMode::TransDas,
            ..TransDasConfig::scenario1(0)
        };
        let det = DetectorConfig {
            top_p: 5,
            min_context: 2,
            mode: DetectionMode::Block,
        };
        (data, model, det)
    }

    #[test]
    fn top_p_sweep_is_monotone_in_fpr_direction() {
        let (data, model, det) = quick();
        let points = sweep_top_p(&data, model, det, &[1, 5, 20]);
        assert_eq!(points.len(), 3);
        // All F1 values defined.
        assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.f1)));
    }

    #[test]
    fn window_sweep_time_grows_with_length() {
        // Sessions much longer than every window value: the window count is
        // then ~constant and per-window cost dominates, which is the Table 5
        // regime (L sweeps below the average session length). The epoch's
        // cost is asserted on its work count, not its wall-clock time, which
        // a loaded machine can invert; Table 5's bench prints the seconds.
        let (_, model, det) = quick();
        let long_sessions: Vec<Vec<u32>> = (0..12)
            .map(|i| (0..80).map(|j| 1 + ((i + j) % 6) as u32).collect())
            .collect();
        let mut data = {
            let spec = ScenarioSpec::commenting();
            let ds = ScenarioDataset::generate(&spec, 8, 301);
            TokenizedDataset::from_dataset(&ds)
        };
        data.train = long_sessions;
        let points = sweep_window(&data, model, det, &[6, 24]);
        assert!(
            points[1].positions_per_epoch > points[0].positions_per_epoch,
            "L=24 ({} positions) not more work than L=6 ({})",
            points[1].positions_per_epoch,
            points[0].positions_per_epoch
        );
    }

    #[test]
    fn hidden_sweep_adjusts_heads_to_divisors() {
        let (data, model, det) = quick();
        // h = 6 with heads template 2 -> heads 2; h = 5 -> heads 1.
        let points = sweep_hidden(&data, model, det, &[6, 5]);
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn margin_sweep_runs() {
        let (data, model, det) = quick();
        let points = sweep_margin(&data, model, det, &[0.1, 0.9]);
        assert!(points.iter().all(|p| p.f1.is_finite()));
    }
}
