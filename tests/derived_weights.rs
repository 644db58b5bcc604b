//! Staleness wall for the evaluation forward's derived weights. The forward
//! reads head-packed projections and the transposed embedding built from the
//! parameter store, so every way the store's values can change must be
//! followed by scores that are bit-identical to a model rebuilt from the
//! same parameter snapshot — one that never scored before, so its derived
//! weights cannot predate the values. Each case scores first, so derived
//! weights exist when the values change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucad_model::{MaskMode, TransDas, TransDasConfig};

const VOCAB: usize = 40;
const L: usize = 8;

fn config(seed: u64) -> TransDasConfig {
    TransDasConfig {
        vocab_size: VOCAB,
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: L,
        epochs: 2,
        mask: MaskMode::TransDas,
        dropout_keep: 1.0,
        seed,
        ..TransDasConfig::scenario1(VOCAB)
    }
}

fn sessions(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12)
        .map(|_| {
            let len = rng.gen_range(3..20);
            (0..len).map(|_| rng.gen_range(1..VOCAB as u32)).collect()
        })
        .collect()
}

fn trained(seed: u64) -> TransDas {
    let mut model = TransDas::new(config(seed));
    model.train(&sessions(seed));
    model
}

/// Front-padded, exact, truncated and interior-`k0` contexts.
fn contexts() -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..=2 * L)
        .map(|len| {
            (0..len)
                .map(|i| {
                    if len % 3 == 0 && i % 3 == 1 {
                        0
                    } else {
                        rng.gen_range(1..VOCAB as u32)
                    }
                })
                .collect()
        })
        .collect()
}

/// Every score `model` gives, as bits: `next_scores` and `position_scores`
/// of each context.
fn score_bits(model: &TransDas) -> Vec<Vec<u32>> {
    let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    contexts()
        .iter()
        .flat_map(|ctx| {
            [
                bits(&model.next_scores(ctx)),
                bits(model.position_scores(ctx).data()),
            ]
        })
        .collect()
}

/// A model of the same configuration holding `model`'s current values,
/// which has never scored.
fn rebuilt(model: &TransDas) -> TransDas {
    let mut fresh = TransDas::new(model.cfg);
    fresh
        .store
        .import_values(model.store.export_values())
        .expect("same architecture");
    fresh
}

fn assert_fresh(model: &TransDas, case: &str) {
    assert!(
        score_bits(model) == score_bits(&rebuilt(model)),
        "{case}: scores differ from a model rebuilt from the same weights"
    );
}

#[test]
fn scores_follow_a_get_mut_edit() {
    let mut model = trained(1);
    let before = score_bits(&model);
    for name in ["block0.wq1", "block1.wv0", "embedding"] {
        let id = model
            .store
            .iter()
            .find(|(_, p)| p.name == name)
            .map(|(id, _)| id)
            .expect("parameter exists");
        for v in model.store.get_mut(id).value.data_mut().iter_mut().skip(1) {
            *v *= -1.5;
        }
        assert_fresh(&model, &format!("get_mut on {name}"));
    }
    assert!(score_bits(&model) != before, "the edits changed no score");
}

#[test]
fn scores_follow_fine_tuning() {
    let mut model = trained(2);
    let before = score_bits(&model);
    model.fine_tune(&sessions(20), 2);
    assert_fresh(&model, "fine_tune");
    assert!(score_bits(&model) != before, "fine-tuning changed no score");
}

#[test]
fn scores_follow_an_import_and_a_checkpoint_load() {
    let mut model = trained(3);
    let other = trained(4);
    let before = score_bits(&model);
    model
        .store
        .import_values(other.store.export_values())
        .expect("same architecture");
    assert_fresh(&model, "import_values");
    assert!(score_bits(&model) == score_bits(&other));
    assert!(score_bits(&model) != before, "the import changed no score");

    let loaded = TransDas::from_json(&trained(5).to_json()).expect("checkpoint loads");
    assert_fresh(&loaded, "from_json");
}

#[test]
fn scores_follow_a_store_assigned_from_another_model() {
    let mut model = trained(6);
    let other = trained(7);
    score_bits(&other);
    let before = score_bits(&model);
    model.store = other.store.clone();
    assert_fresh(&model, "store assignment");
    assert!(
        score_bits(&model) != before,
        "the assignment changed no score"
    );
}

#[test]
fn clones_taken_after_training_score_their_own_weights() {
    let mut model = trained(8);
    score_bits(&model);
    model.fine_tune(&sessions(80), 1);
    // Taken after training, before the original scored again: the derived
    // weights it starts with predate the training.
    let copy = model.clone();
    assert_fresh(&copy, "clone after training");
    // Taken once the original's derived weights are current: the clone
    // shares them, and training either one must leave neither on stale
    // ones.
    score_bits(&model);
    let mut copy = model.clone();
    copy.fine_tune(&sessions(81), 1);
    assert_fresh(&copy, "fine-tuned clone");
    assert_fresh(&model, "original after its clone was fine-tuned");
    assert!(score_bits(&copy) != score_bits(&model));
}
