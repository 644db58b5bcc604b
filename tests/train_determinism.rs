//! Training determinism wall: the windows of a batch run in parallel on
//! the compute pool, and the trained weights must not depend on its size.
//! Every case trains (or takes one gradient step) under pools of 1, 2 and
//! 4 threads and requires `to_bits`-equal results: final weights, epoch
//! losses, and `loss_and_grad`'s loss and gradients. The cases cover
//! dropout on and off, the triplet and cross-entropy objectives, batch
//! sizes 1, 7 and 32, and fine-tuning. One dropout-on model's weights are
//! pinned by hash to the sequential per-window loop the parallel path
//! replaced, so "the same at every pool size" also means "the same as the
//! sequential loop".

use std::sync::{Arc, OnceLock};
use ucad_model::{TransDas, TransDasConfig};
use ucad_pool::{with_pool, Pool};

/// FNV-1a 64 of the weights trained by [`pinned_case`] with the sequential
/// per-window loop (one window after another, each backward writing
/// straight into the parameter store).
const SEQUENTIAL_WEIGHTS_FNV: u64 = 0x5a4d_bbe5_0e22_a02f;

fn pools() -> &'static [Arc<Pool>] {
    static POOLS: OnceLock<Vec<Arc<Pool>>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].iter().map(|&t| Arc::new(Pool::new(t))).collect())
}

fn config(dropout_keep: f32, triplet: bool, batch_size: usize) -> TransDasConfig {
    TransDasConfig {
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 6,
        negatives: 2,
        epochs: 3,
        dropout_keep,
        triplet,
        batch_size,
        ..TransDasConfig::scenario1(10)
    }
}

/// Sessions of varying length and key set, so windows differ in padding
/// and in the keys negatives must avoid.
fn sessions() -> Vec<Vec<u32>> {
    (0..12)
        .map(|i| {
            (0..9 + i % 3)
                .map(|j| ((i * 3 + j * j) % 9) as u32 + 1)
                .collect()
        })
        .collect()
}

fn weight_bits(model: &TransDas) -> Vec<u32> {
    model
        .store
        .iter()
        .flat_map(|(_, p)| p.value.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn grad_bits(model: &TransDas) -> Vec<u32> {
    model
        .store
        .iter()
        .flat_map(|(_, p)| p.grad.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under every pool and asserts its result is equal at each.
fn same_at_every_pool<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let mut results = pools().iter().map(|pool| with_pool(Arc::clone(pool), &f));
    let reference = results.next().expect("at least one pool");
    for (result, pool) in results.zip(&pools()[1..]) {
        assert!(
            result == reference,
            "{what}: result at {} threads differs from 1 thread",
            pool.threads()
        );
    }
}

fn train(cfg: TransDasConfig) -> (Vec<u32>, Vec<u32>) {
    let mut model = TransDas::new(cfg);
    let report = model.train(&sessions());
    (weight_bits(&model), loss_bits(&report.epoch_losses))
}

#[test]
fn trained_weights_are_bit_identical_across_pool_sizes() {
    for keep in [0.9, 1.0] {
        for triplet in [true, false] {
            for batch in [1, 7, 32] {
                same_at_every_pool(
                    &format!("train keep={keep} triplet={triplet} batch={batch}"),
                    || train(config(keep, triplet, batch)),
                );
            }
        }
    }
}

#[test]
fn loss_and_grad_is_bit_identical_across_pool_sizes() {
    for keep in [0.9, 1.0] {
        for triplet in [true, false] {
            let model = TransDas::new(config(keep, triplet, 32));
            let windows = model.extract_windows(&sessions());
            assert!(windows.len() >= 32, "the corpus fills a batch");
            for (batch, seed) in [(&windows[..32], 5), (&windows[..7], 6), (&windows[..1], 7)] {
                same_at_every_pool(
                    &format!(
                        "loss_and_grad keep={keep} triplet={triplet} n={}",
                        batch.len()
                    ),
                    || {
                        let mut m = model.clone();
                        let loss = m.loss_and_grad(batch, seed);
                        (loss.to_bits(), grad_bits(&m))
                    },
                );
            }
        }
    }
}

#[test]
fn fine_tuning_is_bit_identical_across_pool_sizes() {
    let mut base = TransDas::new(config(0.9, true, 7));
    base.train(&sessions());
    let shifted: Vec<Vec<u32>> = (0..5)
        .map(|i| (0..10).map(|j| [5, 6, 7][(i + j) % 3]).collect())
        .collect();
    same_at_every_pool("fine_tune", || {
        let mut m = base.clone();
        let report = m.fine_tune(&shifted, 4);
        (weight_bits(&m), loss_bits(&report.epoch_losses))
    });
}

fn pinned_case() -> TransDasConfig {
    config(0.9, true, 7)
}

#[test]
fn dropout_training_matches_the_sequential_reference() {
    let bytes: Vec<u8> = train(pinned_case())
        .0
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .collect();
    let hash = ucad_wal::fnv1a64(&bytes);
    assert_eq!(
        hash, SEQUENTIAL_WEIGHTS_FNV,
        "weights hash {hash:#018x} differs from the sequential loop's"
    );
}
