//! # ucad-bench
//!
//! Shared harness utilities for the per-table / per-figure benchmark
//! targets. Each `benches/*.rs` target regenerates one table or figure of
//! the paper: it prints the paper's reported rows followed by the rows
//! measured on this machine against the synthetic trace substrate.
//!
//! Scale control: by default every harness runs a scaled-down Scenario-II
//! (the paper-scale configuration trains for ~50s/epoch on a 2017 desktop
//! CPU with an optimized stack, and far longer on our deliberately simple
//! f32 engine). Set `UCAD_FULL=1` to run paper-scale parameters end to end.

#![warn(missing_docs)]

use ucad::TokenizedDataset;
use ucad_model::{DetectionMode, DetectorConfig, TransDasConfig};
use ucad_trace::{ScenarioDataset, ScenarioSpec};

/// True when `UCAD_FULL=1` requests paper-scale runs.
pub fn full_scale() -> bool {
    std::env::var("UCAD_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the "paper reported" block label.
pub fn paper_block() {
    println!("--- paper (reported) ---");
}

/// Prints the "measured" block label.
pub fn measured_block() {
    println!("--- measured (this machine, synthetic traces) ---");
}

/// Scenario-I experiment bundle at paper scale.
pub struct Scenario1Bundle {
    /// Tokenized dataset (354 train sessions, 89 per test set).
    pub data: TokenizedDataset,
    /// Trans-DAS configuration (paper defaults).
    pub model: TransDasConfig,
    /// Detector configuration (p = 5).
    pub detector: DetectorConfig,
}

/// Builds the Scenario-I bundle (always paper scale; it is cheap).
pub fn scenario1(seed: u64) -> Scenario1Bundle {
    let spec = ScenarioSpec::commenting();
    let ds = ScenarioDataset::generate(&spec, spec.default_train_sessions, seed);
    let data = TokenizedDataset::from_dataset(&ds);
    Scenario1Bundle {
        data,
        model: TransDasConfig::scenario1(0),
        detector: DetectorConfig::scenario1(),
    }
}

/// Scenario-II experiment bundle.
pub struct Scenario2Bundle {
    /// Tokenized dataset.
    pub data: TokenizedDataset,
    /// Trans-DAS configuration (scaled unless `UCAD_FULL=1`).
    pub model: TransDasConfig,
    /// Detector configuration (p = 10).
    pub detector: DetectorConfig,
    /// Whether this bundle is paper scale.
    pub full: bool,
}

/// Builds the Scenario-II bundle. Scaled default: 400 training sessions,
/// `h=32, m=4, B=3, L=50`, stride 4 — preserves every comparison while
/// training in about a minute.
pub fn scenario2(seed: u64) -> Scenario2Bundle {
    let spec = ScenarioSpec::location_service();
    let full = full_scale();
    let train = if full {
        spec.default_train_sessions
    } else {
        400
    };
    let ds = ScenarioDataset::generate(&spec, train, seed);
    let data = TokenizedDataset::from_dataset(&ds);
    let model = if full {
        TransDasConfig::scenario2(0)
    } else {
        TransDasConfig {
            hidden: 32,
            heads: 4,
            blocks: 3,
            window: 50,
            stride: 4,
            epochs: 6,
            ..TransDasConfig::scenario2(0)
        }
    };
    let detector = DetectorConfig {
        top_p: 10,
        min_context: 2,
        mode: DetectionMode::Block,
    };
    Scenario2Bundle {
        data,
        model,
        detector,
        full,
    }
}

/// Formats a `(value, f1)` series like the paper's figures.
pub fn print_series(label: &str, points: &[(f64, f64)]) {
    print!("{label:<14}");
    for (v, f1) in points {
        print!(" ({v:.2}, {f1:.3})");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_bundle_matches_table1() {
        let b = scenario1(9);
        assert_eq!(b.data.train.len(), 354);
        assert_eq!(b.data.test_sets[0].1.len(), 89);
        assert_eq!(b.detector.top_p, 5);
    }

    #[test]
    fn scenario2_bundle_scaled_by_default() {
        // The test environment does not set UCAD_FULL.
        if !full_scale() {
            let b = scenario2(9);
            assert_eq!(b.data.train.len(), 400);
            assert_eq!(b.model.hidden, 32);
            assert_eq!(b.detector.top_p, 10);
        }
    }
}
