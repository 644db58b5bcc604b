//! Checkpoint robustness walls:
//!
//! * **corruption** — random truncation, bit flips, or trailing garbage on
//!   a valid checkpoint envelope must make [`CheckpointStore::decode`]
//!   return [`UcadError::Corrupt`] — never panic, never load;
//! * **fidelity** — a save→load round trip reproduces the model's scores
//!   bit-for-bit, under worker pools of 1 and 4 threads;
//! * **retention** — the manifest keeps exactly the configured version
//!   count, and a reopened store agrees with the one that wrote it.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use ucad_life::CheckpointStore;
use ucad_model::{MaskMode, TransDas, TransDasConfig, UcadError};
use ucad_pool::{with_pool, Pool};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ucad-ckpt-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_model(epochs: usize) -> TransDas {
    let cfg = TransDasConfig {
        vocab_size: 8,
        hidden: 8,
        heads: 2,
        blocks: 1,
        window: 6,
        epochs,
        dropout_keep: 1.0,
        mask: MaskMode::TransDas,
        ..TransDasConfig::scenario1(8)
    };
    let mut model = TransDas::new(cfg);
    let sessions: Vec<Vec<u32>> = (0..4)
        .map(|i| (0..8).map(|j| ((i + j) % 4) as u32 + 1).collect())
        .collect();
    model.train(&sessions);
    model
}

/// One valid checkpoint envelope (raw bytes), shared by every corruption
/// case so training and disk I/O happen once.
fn envelope() -> &'static Vec<u8> {
    static ENVELOPE: OnceLock<Vec<u8>> = OnceLock::new();
    ENVELOPE.get_or_init(|| {
        let dir = tmp_dir("envelope");
        let mut store = CheckpointStore::open(&dir, 2).expect("open store");
        let id = store.save(&tiny_model(2)).expect("save");
        let bytes = std::fs::read(store.path_of(&id)).expect("read checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// Non-vacuity: the envelope the corruption cases start from is valid.
#[test]
fn pristine_envelope_decodes() {
    let model = CheckpointStore::decode(envelope(), "pristine").expect("valid envelope");
    assert_eq!(model.cfg.vocab_size, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a checkpoint fails closed as `Corrupt`
    /// (or `Io`-free: decode sees bytes, so the only legal outcome is
    /// `Corrupt`) — truncation is the crash-mid-write failure mode the
    /// tmp+rename discipline defends against.
    #[test]
    fn truncation_never_loads_never_panics(cut_frac in 0.0f64..1.0) {
        let good = envelope();
        let cut = ((good.len() as f64) * cut_frac) as usize; // strictly < len
        let result = CheckpointStore::decode(&good[..cut], "truncated");
        prop_assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "truncation to {cut}/{} bytes did not fail as Corrupt", good.len()
        );
    }

    /// Any single bit flip — header or payload — fails closed as `Corrupt`.
    #[test]
    fn bit_flips_never_load_never_panic(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let good = envelope();
        let pos = ((good.len() as f64) * pos_frac) as usize; // strictly < len
        let mut bytes = good.clone();
        bytes[pos] ^= 1 << bit;
        prop_assert_ne!(&bytes, good, "mutation was a no-op");
        let result = CheckpointStore::decode(&bytes, "bit-flipped");
        prop_assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "flipping bit {bit} of byte {pos} did not fail as Corrupt"
        );
    }

    /// Trailing garbage of any length and content fails closed: the header
    /// declares the exact payload length, so appended bytes are damage.
    #[test]
    fn trailing_garbage_never_loads(garbage in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = envelope().clone();
        bytes.extend_from_slice(&garbage);
        let result = CheckpointStore::decode(&bytes, "padded");
        prop_assert!(matches!(result, Err(UcadError::Corrupt { .. })));
    }
}

/// Fidelity wall: save→load reproduces scoring bit-for-bit, and the scores
/// themselves are bit-identical under 1-thread and 4-thread pools — the
/// in-process half of the `UCAD_THREADS` sweep (the CI lifecycle job covers
/// the engine-level half across processes).
#[test]
fn roundtrip_scores_bit_identical_across_thread_counts() {
    let original = tiny_model(3);
    let dir = tmp_dir("fidelity");
    let mut store = CheckpointStore::open(&dir, 2).expect("open store");
    let id = store.save(&original).expect("save");
    let restored = store.load(&id).expect("load");
    assert_eq!(
        restored.to_json(),
        original.to_json(),
        "weights drifted in transit"
    );

    let contexts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3, 4],
        vec![2, 3, 1],
        vec![4, 4, 4, 4, 4, 4],
        vec![1],
        vec![3, 0, 2, 1, 3],
    ];
    let windows: Vec<&[u32]> = contexts.iter().map(Vec::as_slice).collect();

    let mut per_pool: Vec<(Vec<Vec<f32>>, _)> = Vec::new();
    for threads in [1usize, 4] {
        let pool = Arc::new(Pool::new(threads));
        let (next, batch) = with_pool(Arc::clone(&pool), || {
            let next: Vec<Vec<f32>> = contexts.iter().map(|c| original.next_scores(c)).collect();
            let restored_next: Vec<Vec<f32>> =
                contexts.iter().map(|c| restored.next_scores(c)).collect();
            assert_eq!(
                restored_next, next,
                "restored next_scores diverged at {threads} thread(s)"
            );
            let batch = original.position_scores_batch(&windows);
            let restored_batch = restored.position_scores_batch(&windows);
            assert_eq!(
                restored_batch, batch,
                "restored position_scores_batch diverged at {threads} thread(s)"
            );
            (next, batch)
        });
        per_pool.push((next, batch));
    }
    // And the scores themselves are thread-count invariant.
    assert_eq!(per_pool[0], per_pool[1], "scores depend on pool width");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention wall across a reopen: the writer GCs to exactly `retention`
/// versions, the directory holds exactly that many checkpoint files, and a
/// fresh handle on the same directory sees the identical version list.
#[test]
fn gc_retention_survives_reopen() {
    let dir = tmp_dir("gc");
    let retention = 2usize;
    let mut store = CheckpointStore::open(&dir, retention).expect("open store");
    let ids: Vec<String> = (1..=5)
        .map(|epochs| store.save(&tiny_model(epochs)).expect("save"))
        .collect();
    assert_eq!(store.versions().len(), retention);
    assert_eq!(store.versions(), ids[ids.len() - retention..].to_vec());

    let on_disk = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .count();
    assert_eq!(
        on_disk, retention,
        "GC left a different number of files than the manifest"
    );

    let reopened = CheckpointStore::open(&dir, retention).expect("reopen");
    assert_eq!(reopened.versions(), store.versions());
    assert_eq!(reopened.latest(), Some(ids.last().unwrap().clone()));
    let loaded = reopened
        .load_latest()
        .expect("load latest")
        .expect("non-empty store");
    assert_eq!(loaded.to_json(), tiny_model(5).to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
