//! Checkpoint robustness walls:
//!
//! * **corruption** — random truncation, bit flips, or trailing garbage on
//!   a valid checkpoint envelope, binary (`UCADCKP2`) or JSON (`UCADCKP1`),
//!   must make [`CheckpointStore::decode`] return [`UcadError::Corrupt`] —
//!   never panic, never load;
//! * **hostile payloads** — binary payloads in an envelope with a valid
//!   CRC, whose lengths, shapes, tensor count or configuration lie, fail as
//!   `Corrupt` without allocating more than the payload's length;
//! * **fidelity** — a save→load round trip reproduces the model's scores
//!   bit-for-bit, under worker pools of 1 and 4 threads, and every weight
//!   bit-for-bit, non-finite ones included;
//! * **legacy** — a committed `UCADCKP1` checkpoint still loads, and
//!   re-saving it writes `UCADCKP2` with the same weight bits;
//! * **retention** — the manifest keeps exactly the configured version
//!   count, and a reopened store agrees with the one that wrote it.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use ucad_life::CheckpointStore;
use ucad_model::{MaskMode, TransDas, TransDasConfig, UcadError};
use ucad_pool::{with_pool, Pool};
use ucad_wal::envelope::{self, HEADER_LEN};

/// The system allocator, noting the largest single request made on a
/// thread while [`largest_allocation`] watches it.
struct PeakAlloc;

thread_local! {
    static WATCH: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = WATCH.try_with(|w| {
        if let Some(peak) = w.get() {
            w.set(Some(peak.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `PeakAlloc` upholds `GlobalAlloc`'s contract exactly as `System` does;
// `note` only reads a size and touches a thread-local `Cell` that never
// allocates (const-initialised, no destructor).
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller's guarantees are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    WATCH.with(|w| w.set(Some(0)));
    let out = f();
    let peak = WATCH.with(|w| w.replace(None)).expect("watch armed above");
    (out, peak)
}

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

/// One valid checkpoint envelope (raw bytes) as the store writes it today,
/// shared by every corruption case so training and disk I/O happen once.
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

/// A `UCADCKP1` checkpoint written by the JSON-payload store.
fn legacy_envelope() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/checkpoint_v1.ckpt"
    );
    std::fs::read(path).expect("read the legacy checkpoint fixture")
}

/// The envelope a corruption case starts from: the legacy fixture or a
/// fresh binary checkpoint.
fn pristine(legacy: bool) -> Vec<u8> {
    if legacy {
        legacy_envelope()
    } else {
        envelope().clone()
    }
}

/// Every parameter's weights as raw bits, in registration order.
fn weight_bits(model: &TransDas) -> Vec<Vec<u32>> {
    model
        .store
        .iter()
        .map(|(_, p)| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Non-vacuity: the envelopes the corruption cases start from are valid,
/// and the store writes the binary codec.
#[test]
fn pristine_envelope_decodes() {
    assert!(envelope().starts_with(b"UCADCKP2"));
    let model = CheckpointStore::decode(envelope(), "pristine").expect("valid envelope");
    assert_eq!(model.cfg.vocab_size, 8);
    assert!(legacy_envelope().starts_with(b"UCADCKP1"));
    CheckpointStore::decode(&legacy_envelope(), "legacy").expect("valid legacy envelope");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a checkpoint fails closed as `Corrupt`
    /// (or `Io`-free: decode sees bytes, so the only legal outcome is
    /// `Corrupt`) — truncation is the crash-mid-write failure mode the
    /// tmp+rename discipline defends against.
    #[test]
    fn truncation_never_loads_never_panics(cut_frac in 0.0f64..1.0, legacy in any::<bool>()) {
        let good = &pristine(legacy);
        let cut = ((good.len() as f64) * cut_frac) as usize; // strictly < len
        let result = CheckpointStore::decode(&good[..cut], "truncated");
        prop_assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "truncation to {cut}/{} bytes did not fail as Corrupt", good.len()
        );
    }

    /// Any single bit flip — header or payload — fails closed as `Corrupt`.
    #[test]
    fn bit_flips_never_load_never_panic(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        legacy in any::<bool>(),
    ) {
        let good = &pristine(legacy);
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
    fn trailing_garbage_never_loads(
        garbage in prop::collection::vec(any::<u8>(), 1..64),
        legacy in any::<bool>(),
    ) {
        let mut bytes = pristine(legacy);
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

/// Non-finite and edge-case weights survive a save→load bit-for-bit. The
/// JSON codec wrote NaN and ±inf as `null`, so such a model saved fine and
/// then never loaded again.
#[test]
fn non_finite_weights_roundtrip_bit_exactly() {
    let mut model = tiny_model(1);
    let specials = [
        f32::NAN,
        f32::from_bits(0x7fc0_1234), // a NaN with a payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::from_bits(1), // the smallest subnormal
    ];
    let param = model.store.iter_mut().nth(1).expect("a second parameter");
    param.value.data_mut()[..specials.len()].copy_from_slice(&specials);

    let dir = tmp_dir("non-finite");
    let mut store = CheckpointStore::open(&dir, 2).expect("open store");
    let id = store.save(&model).expect("save");
    let restored = store
        .load(&id)
        .expect("a model with non-finite weights loads");
    assert_eq!(weight_bits(&restored), weight_bits(&model));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `UCADCKP1` checkpoint written by the JSON-payload store decodes to the
/// snapshot it holds, and re-saving it writes a `UCADCKP2` file with the
/// same weight bits.
#[test]
fn legacy_json_checkpoint_loads_and_resaves_as_binary() {
    let legacy = legacy_envelope();
    let original = CheckpointStore::decode(&legacy, "legacy").expect("legacy checkpoint decodes");
    assert_eq!(
        original.to_json().as_bytes(),
        &legacy[HEADER_LEN..],
        "the loaded model re-serializes to the fixture's JSON byte for byte"
    );

    let dir = tmp_dir("legacy");
    let mut store = CheckpointStore::open(&dir, 2).expect("open store");
    let id = store.save(&original).expect("re-save");
    let bytes = std::fs::read(store.path_of(&id)).expect("read re-saved checkpoint");
    assert!(
        bytes.starts_with(b"UCADCKP2"),
        "re-save writes the binary codec"
    );
    let resaved = CheckpointStore::decode(&bytes, "resaved").expect("decode re-saved");
    assert_eq!(resaved.cfg, original.cfg);
    assert_eq!(weight_bits(&resaved), weight_bits(&original));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One tensor of a hand-built binary payload: its declared shape and the
/// `f32` values that follow it.
type RawTensor = (u32, u32, Vec<f32>);

/// A binary checkpoint payload built field by field, so each field can lie.
fn raw_payload(config: &str, count: u32, tensors: &[RawTensor]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(config.len() as u32).to_le_bytes());
    out.extend_from_slice(config.as_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for (rows, cols, data) in tensors {
        out.extend_from_slice(&rows.to_le_bytes());
        out.extend_from_slice(&cols.to_le_bytes());
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Binary payloads whose fields lie, each sealed in an envelope with a
/// valid CRC so only the model codec stands between them and a load. Each
/// must fail as `Corrupt`, without a panic, and without any allocation
/// larger than the payload.
#[test]
fn hostile_binary_payloads_fail_closed_without_large_allocations() {
    let model = tiny_model(1);
    let config = serde_json::to_string(&model.cfg).expect("config JSON");
    let tensors: Vec<RawTensor> = model
        .store
        .iter()
        .map(|(_, p)| {
            let (rows, cols) = p.value.shape();
            (rows as u32, cols as u32, p.value.data().to_vec())
        })
        .collect();
    let count = tensors.len() as u32;
    let good = raw_payload(&config, count, &tensors);
    assert_eq!(
        good,
        model.to_bytes(),
        "the hand-built payload is the real one"
    );

    let with_first = |rows: u32, cols: u32, data: Vec<f32>| {
        let mut t = tensors.clone();
        t[0] = (rows, cols, data);
        raw_payload(&config, count, &t)
    };
    let mut cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "rows·cols overflows",
            with_first(u32::MAX, u32::MAX, vec![]),
        ),
        (
            "rows·cols runs past the payload",
            with_first(u32::MAX, 1, vec![]),
        ),
        (
            "one tensor too many",
            raw_payload(&config, count + 1, &tensors),
        ),
        ("one tensor too few", {
            raw_payload(&config, count - 1, &tensors[..tensors.len() - 1])
        }),
        (
            "tensor count of u32::MAX",
            raw_payload(&config, u32::MAX, &tensors),
        ),
        ("config not JSON", raw_payload("{broken", count, &tensors)),
        ("config fails validation", {
            let bad = config.replacen("\"heads\":2", "\"heads\":3", 1);
            assert_ne!(bad, config);
            raw_payload(&bad, count, &tensors)
        }),
        ("config claims a 2^40-row embedding", {
            let bad = config.replacen("\"vocab_size\":8", "\"vocab_size\":1099511627776", 1);
            assert_ne!(bad, config);
            raw_payload(&bad, count, &tensors)
        }),
        ("config claims a 2^33-position window", {
            let bad = config.replacen("\"window\":6", "\"window\":8589934592", 1);
            assert_ne!(bad, config);
            raw_payload(&bad, count, &tensors)
        }),
        ("config length runs past the payload", {
            let mut bytes = good.clone();
            bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            bytes
        }),
        ("trailing bytes", {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&[0, 0, 0, 0]);
            bytes
        }),
    ];
    // A transposed row vector: the same byte count, the wrong shape.
    let (pos, (rows, cols, data)) = tensors
        .iter()
        .enumerate()
        .find(|(_, (rows, cols, _))| *rows == 1 && *cols > 1)
        .expect("a row-vector parameter");
    let mut transposed = tensors.clone();
    transposed[pos] = (*cols, *rows, data.clone());
    cases.push(("wrong shape", raw_payload(&config, count, &transposed)));

    for (what, payload) in &cases {
        let bytes = envelope::encode(b"UCADCKP2", payload);
        let (result, peak) = largest_allocation(|| CheckpointStore::decode(&bytes, what));
        assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "{what}: expected Corrupt, got {:?}",
            result.map(|_| "a model")
        );
        assert!(
            peak <= payload.len(),
            "{what}: allocated {peak} bytes at once for a {}-byte payload",
            payload.len()
        );
    }

    // Every strict prefix of a valid payload, CRC recomputed, fails closed.
    for cut in 0..good.len() {
        let bytes = envelope::encode(b"UCADCKP2", &good[..cut]);
        let result = CheckpointStore::decode(&bytes, "short payload");
        assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "a {cut}-byte prefix of a {}-byte payload loaded",
            good.len()
        );
    }
}
