//! Cache-equivalence wall: score memoization must be invisible. For a
//! thousand Scenario-I sessions, cached and uncached scoring must agree
//! exactly — same per-position score vectors, same top-*p* verdicts, in
//! both detection modes — and eviction at tiny capacity must never corrupt
//! a result. Streaming scoring computes only the last output row, so this
//! wall also pins that row bit-for-bit to the full score matrix, and checks
//! that one cache shared by both modes never hands a reader the other
//! mode's entry shape. Both evaluation paths are also anchored to the tape
//! forward, at one, two and four heads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use ucad::{Ucad, UcadConfig};
use ucad_model::{
    DetectionMode, Detector, DetectorConfig, MaskMode, ScoreCache, TransDas, TransDasConfig,
    VerdictDetail,
};
use ucad_nn::Tensor;
use ucad_pool::{with_pool, Pool};
use ucad_trace::{generate_raw_log, AnomalySynthesizer, ScenarioSpec, SessionGenerator};

fn trained() -> &'static (Ucad, ScenarioSpec) {
    static SYSTEM: OnceLock<(Ucad, ScenarioSpec)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let spec = ScenarioSpec::commenting();
        let raw = generate_raw_log(&spec, 80, 0.0, 811);
        let mut cfg = UcadConfig::scenario1();
        cfg.model = TransDasConfig {
            hidden: 8,
            heads: 2,
            blocks: 2,
            window: 12,
            epochs: 6,
            ..cfg.model
        };
        let (system, _) = Ucad::train(&raw.sessions, cfg);
        (system, spec)
    })
}

/// One thousand tokenized Scenario-I sessions, every fourth one anomalous.
fn thousand_sessions() -> Vec<Vec<u32>> {
    let (system, spec) = trained();
    let mut gen = SessionGenerator::new(spec.clone());
    let synth = AnomalySynthesizer::new(spec);
    let mut rng = StdRng::seed_from_u64(812);
    (0..1000)
        .map(|i| {
            let normal = gen.normal_session(&mut rng).session;
            let s = if i % 4 == 3 {
                synth
                    .credential_stealing(&normal, &mut gen, &mut rng)
                    .session
            } else {
                normal
            };
            system.preprocessor.transform(&s)
        })
        .collect()
}

#[test]
fn memoized_detection_is_exact_over_a_thousand_sessions() {
    let (system, _) = trained();
    let sessions = thousand_sessions();
    for mode in [DetectionMode::Streaming, DetectionMode::Block] {
        let det_cfg = DetectorConfig {
            mode,
            ..system.detector
        };
        let detector = Detector::new(&system.model, det_cfg);
        let cache = ScoreCache::new(512);
        let mut abnormal = 0usize;
        for keys in &sessions {
            let cached = detector.detect_session_cached(keys, Some(&cache));
            let plain = detector.detect_session(keys);
            assert_eq!(cached, plain, "memoization changed a {mode:?} verdict");
            abnormal += usize::from(plain.abnormal);
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "{mode:?}: no cache hits over 1000 sessions — the wall is vacuous"
        );
        assert!(
            abnormal > 0,
            "{mode:?}: no abnormal verdicts — the wall is vacuous"
        );
        assert!(
            abnormal < sessions.len(),
            "{mode:?}: everything flagged — the wall is vacuous"
        );
    }
}

#[test]
fn cached_score_vectors_are_bitwise_identical() {
    let (system, _) = trained();
    let sessions = thousand_sessions();
    let cache = ScoreCache::new(256);
    for keys in sessions.iter().take(50) {
        for t in 1..keys.len() {
            let scores = system
                .model
                .position_scores_cached(&keys[..t], Some(&cache));
            let cached = scores.row(scores.rows() - 1).to_vec();
            let plain = system.model.next_scores(&keys[..t]);
            assert_eq!(cached, plain, "cached scores diverged at position {t}");
            // A repeat lookup must hit and return the very same vector.
            let scores = system
                .model
                .position_scores_cached(&keys[..t], Some(&cache));
            let again = scores.row(scores.rows() - 1).to_vec();
            assert_eq!(again, plain);
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hits >= stats.misses,
        "repeat lookups should mostly hit"
    );
}

#[test]
fn eviction_at_tiny_capacity_never_corrupts_scores() {
    let (system, _) = trained();
    let sessions = thousand_sessions();
    // Capacity 2 forces constant eviction; every answer must still be exact.
    let cache = ScoreCache::new(2);
    let detector = Detector::new(&system.model, system.detector);
    for keys in sessions.iter().take(100) {
        assert_eq!(
            detector.detect_session_cached(keys, Some(&cache)),
            detector.detect_session(keys),
            "eviction churn changed a verdict"
        );
    }
    let stats = cache.stats();
    assert!(stats.len <= 2, "cache exceeded its capacity: {}", stats.len);
    assert!(stats.misses > 0);
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn last_row_scores_are_bitwise_the_full_matrix_last_row() {
    const L: usize = 8;
    const VOCAB: usize = 300;
    let mut rng = StdRng::seed_from_u64(2024);
    // Context lengths 1..=2L cover front-padded (< L), exact (= L) and
    // truncated (> L) windows; every third context carries interior `k0`
    // (unknown-statement) keys.
    let contexts: Vec<Vec<u32>> = (1..=2 * L)
        .flat_map(|len| (0..3).map(move |variant| (len, variant)))
        .map(|(len, variant)| {
            (0..len)
                .map(|i| {
                    if variant == 2 && i % 3 == 1 {
                        0
                    } else {
                        rng.gen_range(1..VOCAB as u32)
                    }
                })
                .collect()
        })
        .collect();
    assert!(contexts
        .iter()
        .any(|c| c.len() > 2 && c[1..c.len() - 1].contains(&0)));
    let mut checked = 0usize;
    for mask in [MaskMode::TransDas, MaskMode::Causal, MaskMode::Full] {
        for positional in [false, true] {
            for blocks in 1..=3 {
                // One, two and four heads: the packed projections' column
                // offsets of every head width the wall can reach.
                for heads in [1, 2, 4] {
                    let model = TransDas::new(TransDasConfig {
                        vocab_size: VOCAB,
                        hidden: 16,
                        heads,
                        blocks,
                        window: L,
                        positional,
                        mask,
                        seed: 7 + blocks as u64,
                        ..TransDasConfig::scenario1(VOCAB)
                    });
                    let m = model.store.value(model.embedding_id());
                    for threads in [1, 2] {
                        with_pool(Arc::new(Pool::new(threads)), || {
                            let cache = ScoreCache::new(contexts.len());
                            for ctx in &contexts {
                                let full = model.position_scores(ctx);
                                let want = bits(full.row(full.rows() - 1));
                                let label = format!(
                                    "{mask:?} positional={positional} blocks={blocks} \
                                     heads={heads} threads={threads} len={}",
                                    ctx.len()
                                );
                                // Both rewritten eval paths are anchored to the
                                // tape forward, not only to each other.
                                if threads == 1 {
                                    let tape = model.output_reference(ctx);
                                    let tape_last =
                                        Tensor::row_vector(tape.row(L - 1).to_vec()).matmul_bt(m);
                                    assert_eq!(bits(tape_last.row(0)), want, "tape: {label}");
                                    assert_eq!(
                                        bits(tape.matmul_bt(m).data()),
                                        bits(full.data()),
                                        "tape matrix: {label}"
                                    );
                                }
                                assert_eq!(bits(&model.next_scores(ctx)), want, "{label}");
                                for expect_hit in [false, true] {
                                    let (memo, hit) =
                                        model.next_scores_cached_flagged(ctx, Some(&cache));
                                    assert_eq!(memo.shape(), (1, VOCAB), "{label}");
                                    assert_eq!(bits(memo.row(0)), want, "{label}");
                                    assert_eq!(hit, Some(expect_hit), "{label}");
                                }
                                checked += 1;
                            }
                        });
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 3 * 3 * 2 * contexts.len());
}

/// Verdicts with their rank and score, minus the cache-hit flag (which is
/// the only field allowed to differ between cached and uncached runs).
fn verdict_key(details: &[VerdictDetail]) -> Vec<(usize, String, Option<usize>, Option<u32>)> {
    details
        .iter()
        .map(|d| {
            (
                d.position,
                format!("{:?}", d.verdict),
                d.rank,
                d.score.map(f32::to_bits),
            )
        })
        .collect()
}

#[test]
fn one_cache_shared_by_streaming_and_block_detectors_stays_exact() {
    let (system, _) = trained();
    let sessions = thousand_sessions();
    let sessions = &sessions[..150];
    let detector = |mode| {
        Detector::new(
            &system.model,
            DetectorConfig {
                mode,
                ..system.detector
            },
        )
    };
    let streaming = detector(DetectionMode::Streaming);
    let block = detector(DetectionMode::Block);
    let cache = ScoreCache::new(4096);
    let mut hits = [0usize; 2];
    let mut abnormal = 0usize;
    // Two passes, each interleaving the modes session by session over the
    // same windows: the second pass must be served from the shared memo.
    for _ in 0..2 {
        for keys in sessions {
            for (i, det) in [&streaming, &block].into_iter().enumerate() {
                let cached = det.run_verdicts_detail(keys, 0, Some(&cache));
                let plain = det.run_verdicts_detail(keys, 0, None);
                assert_eq!(
                    verdict_key(&cached),
                    verdict_key(&plain),
                    "shared cache changed a {:?} verdict",
                    det.cfg.mode
                );
                assert_eq!(
                    det.detect_session_cached(keys, Some(&cache)),
                    det.detect_session(keys)
                );
                hits[i] += cached.iter().filter(|d| d.cache_hit == Some(true)).count();
                abnormal += usize::from(cached.last().is_some_and(|d| d.verdict.is_abnormal()));
            }
        }
    }
    assert!(hits[0] > 0, "Streaming detector never hit the shared cache");
    assert!(hits[1] > 0, "Block detector never hit the shared cache");
    assert!(abnormal > 0, "no abnormal verdicts — the wall is vacuous");
    assert_eq!(cache.stats().evictions, 0, "capacity must hold every entry");
}
