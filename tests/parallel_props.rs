//! Property walls for the parallel compute backend and batched detection:
//! the blocked matmul kernels must be *bit-identical* to their scalar
//! references at every thread count, the window-parallel batched forward
//! must be bit-identical to per-window scoring at every chunk boundary and
//! count each window once, [`Detector::detect_batch`] must agree
//! verdict-for-verdict with sequential per-session detection, and batched
//! scoring must populate the exact [`ScoreCache`] keys streaming detection
//! looks up.
//!
//! Every test that runs a forward holds [`forward_lock`], so the
//! process-wide `ucad_model_forward_total` counter only moves under the
//! test reading it.
//!
//! [`Detector::detect_batch`]: ucad_model::Detector::detect_batch
//! [`ScoreCache`]: ucad_model::ScoreCache

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use ucad_model::model::EVAL_CHUNK;
use ucad_model::{
    DetectionMode, Detector, DetectorConfig, MaskMode, ScoreCache, TransDas, TransDasConfig,
};
use ucad_nn::Tensor;
use ucad_pool::{with_pool, Pool};

/// Serializes the tests that run forwards (see the module docs).
fn forward_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the counter it guards is still valid.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn forwards_total() -> u64 {
    ucad_obs::global()
        .counter("ucad_model_forward_total", &[])
        .get()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Shared pools at the thread counts the wall sweeps; built once so the
/// proptest cases do not spawn threads per case.
fn pools() -> &'static [Arc<Pool>] {
    static POOLS: OnceLock<Vec<Arc<Pool>>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].iter().map(|&t| Arc::new(Pool::new(t))).collect())
}

/// A tiny randomly-initialized Trans-DAS: detection is a pure function of
/// the weights, so an untrained model exercises the full scoring path.
fn tiny_model() -> &'static TransDas {
    static MODEL: OnceLock<TransDas> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = TransDasConfig {
            hidden: 4,
            heads: 2,
            blocks: 1,
            window: 6,
            ..TransDasConfig::scenario1(8)
        };
        TransDas::new(cfg)
    })
}

/// Random tensor with a ~25% zero fraction, exercising the kernels'
/// zero-skip branch (skipped terms must be skipped identically everywhere).
fn gen_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Independent scalar reference: the exact i-k-j accumulation order (with
/// the zero-skip) the production kernel partitions across rows.
fn scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, kk) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for k in 0..kk {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            let row = out.row_mut(i);
            for (j, o) in row.iter_mut().enumerate() {
                *o += av * b.get(k, j);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_matmul_bit_identical_across_thread_counts(
        dims in (1usize..=10, 1usize..=64, 1usize..=64),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen_tensor(&mut rng, m, k);
        let b = gen_tensor(&mut rng, k, n);
        let bt_rhs = gen_tensor(&mut rng, n, k);
        let at_rhs = gen_tensor(&mut rng, m, n);
        let mm_ref = scalar_matmul(&a, &b);
        let bt_ref = scalar_matmul(&a, &bt_rhs.transpose());
        let at_ref = scalar_matmul(&a.transpose(), &at_rhs);
        for pool in pools() {
            with_pool(Arc::clone(pool), || {
                prop_assert_eq!(bits(&a.matmul(&b)), bits(&mm_ref));
                prop_assert_eq!(bits(&a.matmul_bt(&bt_rhs)), bits(&bt_ref));
                prop_assert_eq!(bits(&a.matmul_at(&at_rhs)), bits(&at_ref));
            });
        }
    }

    #[test]
    fn detect_batch_matches_sequential_detection(
        sessions in prop::collection::vec(
            prop::collection::vec(0u32..8, 0usize..12),
            1usize..=50,
        ),
        top_p in 1usize..=4,
        block in any::<bool>(),
    ) {
        let _lock = forward_lock();
        let model = tiny_model();
        let mode = if block {
            DetectionMode::Block
        } else {
            DetectionMode::Streaming
        };
        let det_cfg = DetectorConfig::builder()
            .top_p(top_p)
            .mode(mode)
            .build()
            .expect("valid detector config");
        let detector = Detector::new(model, det_cfg);
        let cache = ScoreCache::new(4096);
        let batched = detector.detect_batch(&sessions, Some(&cache));
        prop_assert_eq!(batched.len(), sessions.len());
        for (keys, b) in sessions.iter().zip(&batched) {
            let seq = detector.detect_session_cached(keys, None);
            prop_assert_eq!(&seq, b);
        }
    }
}

#[test]
fn batched_scoring_populates_streaming_cache_keys() {
    let _lock = forward_lock();
    let model = tiny_model();
    let detector = Detector::new(model, DetectorConfig::scenario1());
    let mut rng = StdRng::seed_from_u64(99);
    let sessions: Vec<Vec<u32>> = (0..120)
        .map(|_| {
            let len = rng.gen_range(0..14);
            (0..len).map(|_| rng.gen_range(1u32..8)).collect()
        })
        .collect();

    let cache = ScoreCache::new(4096);
    let batched = detector.detect_batch(&sessions, Some(&cache));
    let after_batch = cache.stats();
    assert_eq!(after_batch.evictions, 0, "capacity must hold every window");
    assert!(after_batch.len <= after_batch.misses as usize);

    // A second batched pass must hit every key the first one inserted and
    // grow nothing: one entry per distinct padded window, no duplicates.
    let again = detector.detect_batch(&sessions, Some(&cache));
    let after_second = cache.stats();
    assert_eq!(batched, again);
    assert_eq!(
        after_second.misses, after_batch.misses,
        "second batched pass re-missed a window it already scored"
    );
    assert_eq!(
        after_second.len, after_batch.len,
        "second batched pass inserted duplicate keys"
    );

    // Sequential detection must hit the exact keys batching populated:
    // both paths key the memo by the same padded window.
    for keys in &sessions {
        detector.detect_session_cached(keys, Some(&cache));
    }
    let after_seq = cache.stats();
    assert_eq!(
        after_seq.misses, after_second.misses,
        "sequential lookup missed a key the batched pass should have populated"
    );
    assert_eq!(after_seq.len, after_second.len);
}

/// Random unpadded windows: 0..=10 keys from `0..8`, so windows are both
/// front-padded and truncated and some carry `k0` inside.
fn random_windows(rng: &mut StdRng, n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..=10);
            (0..len).map(|_| rng.gen_range(0u32..8)).collect()
        })
        .collect()
}

#[test]
fn batched_eval_is_bit_identical_to_per_window_at_chunk_boundaries() {
    let _lock = forward_lock();
    let model = tiny_model();
    let mut rng = StdRng::seed_from_u64(18);
    let c = EVAL_CHUNK;
    for n in [1, c - 1, c, c + 1, 3 * c + 5] {
        let windows = random_windows(&mut rng, n);
        let refs: Vec<&[u32]> = windows.iter().map(Vec::as_slice).collect();
        let want_scores: Vec<Vec<u32>> = refs
            .iter()
            .map(|w| bits(&model.position_scores(w)))
            .collect();
        let want_outputs: Vec<Vec<u32>> = refs.iter().map(|w| bits(&model.output(w))).collect();
        for pool in pools() {
            with_pool(Arc::clone(pool), || {
                let threads = pool.threads();
                let before = forwards_total();
                let scores = model.position_scores_batch(&refs);
                assert_eq!(
                    forwards_total() - before,
                    n as u64,
                    "position_scores_batch of {n} windows at {threads} threads"
                );
                let got: Vec<Vec<u32>> = scores.iter().map(bits).collect();
                assert_eq!(got, want_scores, "scores: n={n}, threads={threads}");

                let before = forwards_total();
                let outputs = model.forward_batch(&refs);
                assert_eq!(
                    forwards_total() - before,
                    n as u64,
                    "forward_batch of {n} windows at {threads} threads"
                );
                let got: Vec<Vec<u32>> = outputs.iter().map(bits).collect();
                assert_eq!(got, want_outputs, "outputs: n={n}, threads={threads}");
            });
        }
    }
}

#[test]
fn next_scores_is_the_last_row_under_every_mask_mode() {
    let _lock = forward_lock();
    let mut rng = StdRng::seed_from_u64(5);
    let contexts = random_windows(&mut rng, 24);
    for mask in [MaskMode::TransDas, MaskMode::Causal, MaskMode::Full] {
        // Two blocks, so the last-row forward narrows a block that is fed
        // by a full one.
        let model = TransDas::new(TransDasConfig {
            hidden: 4,
            heads: 2,
            blocks: 2,
            window: 6,
            mask,
            ..TransDasConfig::scenario1(8)
        });
        for pool in pools() {
            with_pool(Arc::clone(pool), || {
                for ctx in &contexts {
                    let full = model.position_scores(ctx);
                    let last: Vec<u32> = full
                        .row(full.rows() - 1)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let next: Vec<u32> =
                        model.next_scores(ctx).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(next, last, "{mask:?}, context {ctx:?}");
                }
            });
        }
    }
}
