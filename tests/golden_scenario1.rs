//! Golden regression wall: a fully seeded Scenario-I run whose evaluation
//! metrics are pinned in `tests/golden/scenario1_metrics.json`. Every
//! metric is a ratio of integer decision counts, so a correct pipeline
//! reproduces the fixture exactly; any drift in preprocessing, training,
//! scoring or the detector rule shows up as a diff here.
//!
//! Regenerate the fixture intentionally with:
//! `UCAD_BLESS=1 cargo test --test golden_scenario1`

use ucad::{run_transdas, MethodResult, TokenizedDataset};
use ucad_model::{DetectorConfig, MaskMode, TransDasConfig};
use ucad_trace::{ScenarioDataset, ScenarioSpec};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario1_metrics.json"
);
const TOLERANCE: f64 = 1e-6;

fn golden_run() -> MethodResult {
    let spec = ScenarioSpec::commenting();
    let ds = ScenarioDataset::generate(&spec, 80, 2026);
    let data = TokenizedDataset::from_dataset(&ds);
    let model_cfg = TransDasConfig {
        vocab_size: 0, // substituted from the vocabulary by run_transdas
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 12,
        positional: false,
        mask: MaskMode::TransDas,
        triplet: true,
        margin: 0.5,
        negatives: 2,
        dropout_keep: 1.0,
        lr: 1e-2,
        weight_decay: 1e-5,
        epochs: 6,
        stride: 1,
        batch_size: 16,
        seed: 42,
    };
    let (result, _) = run_transdas(&data, "golden", model_cfg, DetectorConfig::scenario1());
    result
}

fn assert_close(name: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOLERANCE,
        "metric `{name}` drifted: got {got}, fixture has {want} (|Δ| > {TOLERANCE})"
    );
}

#[test]
fn scenario1_metrics_match_golden_fixture() {
    let got = golden_run();
    if std::env::var_os("UCAD_BLESS").is_some() {
        let json = serde_json::to_string(&got).expect("serialize metrics");
        std::fs::write(FIXTURE, json + "\n").expect("write fixture");
        eprintln!("blessed new fixture at {FIXTURE}");
        return;
    }
    let raw = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); run once with UCAD_BLESS=1 to create it")
    });
    let want: MethodResult = serde_json::from_str(&raw).expect("parse fixture");
    for i in 0..3 {
        assert_close(&format!("fpr[{i}]"), got.fpr[i], want.fpr[i]);
        assert_close(&format!("fnr[{i}]"), got.fnr[i], want.fnr[i]);
    }
    assert_close("precision", got.precision, want.precision);
    assert_close("recall", got.recall, want.recall);
    assert_close("f1", got.f1, want.f1);
    // The fixture must describe a working detector, not a degenerate one —
    // guard against blessing an all-normal or all-abnormal collapse.
    assert!(want.f1 > 0.5, "fixture F1 {} is degenerate", want.f1);
    assert!(want.recall > 0.0 && want.precision > 0.0);
}
