//! Versioned, integrity-checked checkpoint store.
//!
//! A checkpoint is a model snapshot wrapped in a small binary envelope:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "UCADCKP2" (or "UCADCKP1", see below)
//! 8       4     payload length, u32 little-endian
//! 12      4     CRC-32 (IEEE) of the payload, u32 little-endian
//! 16      n     payload
//! ```
//!
//! The magic selects the payload codec:
//!
//! | magic      | payload                                  | written by          |
//! |------------|------------------------------------------|---------------------|
//! | `UCADCKP2` | [`TransDas::to_bytes`]: the configuration as JSON, then every tensor's shape and raw little-endian `f32`s | [`CheckpointStore::save`] |
//! | `UCADCKP1` | [`TransDas::to_json`]: the whole snapshot as JSON | older stores; still loads |
//!
//! The binary payload is four bytes per weight where JSON spends about
//! twenty, decodes without parsing a float, and round-trips every weight
//! bit-exactly, non-finite ones included (JSON writes NaN and ±inf as
//! `null`, which never loads).
//!
//! Version identifiers are **content hashes** (FNV-1a 64 of the payload), so
//! saving the same weights twice is idempotent and a checkpoint can never be
//! silently overwritten with different content. A `MANIFEST.json` in the
//! store directory indexes the versions in commit order.
//!
//! Durability discipline: both checkpoint files and the manifest are written
//! to a temporary name and atomically renamed into place, so a crash mid-save
//! leaves the store exactly as it was — the manifest never references a
//! partially written file. [`CheckpointStore::load`] re-validates the whole
//! envelope (magic, exact length, CRC) and returns
//! [`UcadError::Corrupt`] for any damage — truncation, bit flips, trailing
//! garbage, or a payload the model codec rejects — and never panics.
//! Version ids hash the payload, so the same weights saved under the two
//! codecs get two ids: re-saving a model loaded from a `UCADCKP1` file
//! commits a new `UCADCKP2` version.
//! Retention is enforced on save: the oldest versions beyond the configured
//! count are dropped from the manifest and their files deleted.
//!
//! Transient I/O resilience: every read/write/rename goes through the
//! `ucad-fault` fs shim (a pass-through to `std::fs` when no fault plan is
//! armed) and retries up to [`ucad_wal::IO_RETRIES`] times with a bounded,
//! deterministic backoff (1 ms, 2 ms, 4 ms) before surfacing
//! [`UcadError::Io`]. Corruption is *never* retried: a damaged envelope is
//! the same bytes on every read, so [`UcadError::Corrupt`] surfaces
//! immediately.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use ucad_model::{TransDas, UcadError};
use ucad_wal::{crc32::crc32, envelope, fnv1a64, retry_io, write_atomic};

/// The envelope magic [`CheckpointStore::save`] writes: a binary payload.
const MAGIC: &[u8; 8] = b"UCADCKP2";
/// The magic of older checkpoints, whose payload is the model JSON.
const MAGIC_JSON: &[u8; 8] = b"UCADCKP1";
const MANIFEST_FILE: &str = "MANIFEST.json";
const MANIFEST_VERSION: u32 = 1;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    /// Content-hash version id (`v` + 16 hex digits).
    id: String,
    /// Size of the checkpoint file in bytes.
    bytes: u64,
    /// CRC-32 of the payload, duplicated here so a reader can audit the
    /// store without opening every file.
    crc32: u32,
    /// Commit sequence number (monotonic per store).
    seq: u64,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    next_seq: u64,
    /// Versions in commit order, oldest first.
    entries: Vec<ManifestEntry>,
}

/// A directory of versioned model checkpoints with a manifest index.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retention: usize,
    manifest: Manifest,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint store at `dir`, keeping at
    /// most `retention` versions. An existing manifest is loaded and
    /// validated; a damaged one is reported as [`UcadError::Corrupt`]
    /// rather than silently reset, so no checkpoints are garbage-collected
    /// off a lie.
    pub fn open(dir: impl Into<PathBuf>, retention: usize) -> Result<Self, UcadError> {
        if retention == 0 {
            return Err(UcadError::invalid(
                "retention",
                "a store keeping zero checkpoints cannot serve reloads",
            ));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let bytes = retry_io(|| ucad_fault::fs_read(&manifest_path))
                .map_err(|e| UcadError::io(manifest_path.display().to_string(), &e))?;
            let text = String::from_utf8(bytes).map_err(|e| {
                UcadError::corrupt(
                    manifest_path.display().to_string(),
                    format!("manifest is not UTF-8: {e}"),
                )
            })?;
            let manifest: Manifest = serde_json::from_str(&text).map_err(|e| {
                UcadError::corrupt(
                    manifest_path.display().to_string(),
                    format!("manifest is not valid JSON: {e}"),
                )
            })?;
            if manifest.version != MANIFEST_VERSION {
                return Err(UcadError::corrupt(
                    manifest_path.display().to_string(),
                    format!(
                        "manifest version {} (supported: {MANIFEST_VERSION})",
                        manifest.version
                    ),
                ));
            }
            manifest
        } else {
            Manifest {
                version: MANIFEST_VERSION,
                ..Manifest::default()
            }
        };
        Ok(CheckpointStore {
            dir,
            retention,
            manifest,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Version ids in commit order, oldest first.
    pub fn versions(&self) -> Vec<String> {
        self.manifest.entries.iter().map(|e| e.id.clone()).collect()
    }

    /// The most recently committed version id, if any.
    pub fn latest(&self) -> Option<String> {
        self.manifest.entries.last().map(|e| e.id.clone())
    }

    /// Path of a version's checkpoint file.
    pub fn path_of(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// Commits a model snapshot and returns its version id.
    ///
    /// Saving weights that are already the content of a resident version is
    /// idempotent: the existing version is re-committed as latest (no file
    /// is rewritten). Otherwise the envelope is written to a temporary file
    /// and renamed into place, the manifest is updated the same way, and
    /// versions beyond the retention count are garbage-collected oldest
    /// first.
    pub fn save(&mut self, model: &TransDas) -> Result<String, UcadError> {
        let payload = model.to_bytes();
        let id = format!("v{:016x}", fnv1a64(&payload));
        let seq = self.manifest.next_seq;
        self.manifest.next_seq += 1;
        if let Some(pos) = self.manifest.entries.iter().position(|e| e.id == id) {
            // Content already committed: refresh its recency only.
            let mut entry = self.manifest.entries.remove(pos);
            entry.seq = seq;
            self.manifest.entries.push(entry);
            self.write_manifest()?;
            return Ok(id);
        }

        let bytes = envelope::encode(MAGIC, &payload);

        let final_path = self.path_of(&id);
        let tmp_path = self.dir.join(format!(".tmp-{id}"));
        write_atomic(&tmp_path, &final_path, &bytes)?;

        self.manifest.entries.push(ManifestEntry {
            id: id.clone(),
            bytes: bytes.len() as u64,
            crc32: crc32(&payload),
            seq,
        });
        while self.manifest.entries.len() > self.retention {
            let dropped = self.manifest.entries.remove(0);
            // Best-effort file removal: the version is gone from the
            // manifest either way, and an orphaned file is harmless.
            let _ = std::fs::remove_file(self.path_of(&dropped.id));
        }
        self.write_manifest()?;
        ucad_obs::event(
            "life.checkpoint",
            &[
                ("id", id.clone()),
                ("bytes", bytes.len().to_string()),
                ("resident", self.manifest.entries.len().to_string()),
            ],
        );
        Ok(id)
    }

    /// Commits the manifest with the same tmp-then-rename discipline as the
    /// checkpoint files.
    fn write_manifest(&self) -> Result<(), UcadError> {
        let path = self.dir.join(MANIFEST_FILE);
        let tmp = self.dir.join(".tmp-manifest");
        let text =
            serde_json::to_string(&self.manifest).expect("manifest serialization cannot fail");
        write_atomic(&tmp, &path, text.as_bytes())
    }

    /// Loads and fully validates a version. Every failure mode — missing
    /// file, short read, bad magic, wrong length, CRC mismatch, undecodable
    /// payload — comes back as [`UcadError::Io`] or [`UcadError::Corrupt`];
    /// this path never panics.
    pub fn load(&self, id: &str) -> Result<TransDas, UcadError> {
        let path = self.path_of(id);
        let bytes = retry_io(|| ucad_fault::fs_read(&path))
            .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        Self::decode(&bytes, &path.display().to_string())
    }

    /// Loads the latest version, or `None` on an empty store.
    pub fn load_latest(&self) -> Result<Option<TransDas>, UcadError> {
        match self.latest() {
            Some(id) => self.load(&id).map(Some),
            None => Ok(None),
        }
    }

    /// Decodes a checkpoint envelope from raw bytes, choosing the payload
    /// codec by its magic; `origin` labels the byte source in errors.
    /// Public so robustness tests (and external tooling) can validate
    /// envelopes without a store.
    pub fn decode(bytes: &[u8], origin: &str) -> Result<TransDas, UcadError> {
        let rejected =
            |e| UcadError::corrupt(origin, format!("payload rejected by model codec: {e}"));
        if bytes.starts_with(MAGIC_JSON) {
            let payload = envelope::decode(MAGIC_JSON, bytes, origin)?;
            let json = std::str::from_utf8(payload)
                .map_err(|e| UcadError::corrupt(origin, format!("payload is not UTF-8: {e}")))?;
            return TransDas::from_json(json).map_err(rejected);
        }
        let payload = envelope::decode(MAGIC, bytes, origin)?;
        TransDas::from_bytes(payload).map_err(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucad_model::{MaskMode, TransDasConfig};
    use ucad_wal::envelope::HEADER_LEN;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ucad-life-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_model(seed_epochs: usize) -> TransDas {
        let cfg = TransDasConfig {
            vocab_size: 8,
            hidden: 8,
            heads: 2,
            blocks: 1,
            window: 6,
            epochs: seed_epochs,
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

    #[test]
    fn save_load_roundtrips_and_is_content_addressed() {
        let dir = tmp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir, 4).expect("open");
        let model = tiny_model(2);
        let id = store.save(&model).expect("save");
        assert!(id.starts_with('v') && id.len() == 17);
        // Saving identical content is idempotent.
        assert_eq!(store.save(&model).expect("resave"), id);
        assert_eq!(store.versions(), vec![id.clone()]);
        let restored = store.load(&id).expect("load");
        assert_eq!(restored.to_json(), model.to_json());
        // A reopened store sees the committed version.
        let reopened = CheckpointStore::open(&dir, 4).expect("reopen");
        assert_eq!(reopened.latest(), Some(id));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_exactly_the_configured_count() {
        let dir = tmp_dir("retention");
        let mut store = CheckpointStore::open(&dir, 2).expect("open");
        let ids: Vec<String> = (1..=4)
            .map(|epochs| store.save(&tiny_model(epochs)).expect("save"))
            .collect();
        assert_eq!(store.versions(), ids[2..].to_vec());
        // GC removed the evicted files, kept the resident ones.
        assert!(!store.path_of(&ids[0]).exists());
        assert!(!store.path_of(&ids[1]).exists());
        assert!(store.path_of(&ids[2]).exists());
        assert!(store.path_of(&ids[3]).exists());
        assert!(store.load(&ids[3]).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_reported_as_corrupt_never_panics() {
        let dir = tmp_dir("damage");
        let mut store = CheckpointStore::open(&dir, 2).expect("open");
        let id = store.save(&tiny_model(1)).expect("save");
        let path = store.path_of(&id);
        let good = std::fs::read(&path).expect("read");

        // Truncation.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(store.load(&id), Err(UcadError::Corrupt { .. })));
        // Bit flip in the payload.
        let mut flipped = good.clone();
        let mid = HEADER_LEN + (flipped.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(store.load(&id), Err(UcadError::Corrupt { .. })));
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(store.load(&id), Err(UcadError::Corrupt { .. })));
        // Trailing garbage.
        let mut padded = good.clone();
        padded.extend_from_slice(b"xx");
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(store.load(&id), Err(UcadError::Corrupt { .. })));
        // Missing file.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(store.load(&id), Err(UcadError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_rejected_on_open() {
        let dir = tmp_dir("manifest");
        let mut store = CheckpointStore::open(&dir, 2).expect("open");
        store.save(&tiny_model(1)).expect("save");
        std::fs::write(dir.join(MANIFEST_FILE), b"{broken").unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir, 2),
            Err(UcadError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_retention_is_rejected() {
        assert!(matches!(
            CheckpointStore::open(tmp_dir("zero"), 0),
            Err(UcadError::InvalidConfig { .. })
        ));
    }

    /// A save whose writes fail transiently must succeed through the retry
    /// path: the first three injected failures are absorbed by the 3-retry
    /// budget of the first faulted operation.
    #[test]
    fn save_retries_through_transient_io_failures() {
        let dir = tmp_dir("flaky-save");
        let mut store = CheckpointStore::open(&dir, 4).expect("open");
        let model = tiny_model(2);
        let guard = ucad_fault::FaultPlan::new()
            .fs_fail_ops(3)
            .fs_scope(&dir)
            .arm();
        let id = store
            .save(&model)
            .expect("save must survive 3 transient failures");
        drop(guard);
        let restored = store.load(&id).expect("load after flaky save");
        assert_eq!(restored.to_json(), model.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// More consecutive failures than the retry budget must surface
    /// [`UcadError::Io`] — the store does not spin forever.
    #[test]
    fn save_surfaces_io_after_retry_budget_exhausted() {
        let dir = tmp_dir("flaky-exhausted");
        let mut store = CheckpointStore::open(&dir, 4).expect("open");
        let guard = ucad_fault::FaultPlan::new()
            .fs_fail_ops(4)
            .fs_scope(&dir)
            .arm();
        let result = store.save(&tiny_model(2));
        assert!(
            matches!(result, Err(UcadError::Io { .. })),
            "4 consecutive failures exceed the 3-retry budget: {:?}",
            result.map(|_| "unexpected Ok").err()
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A transient read failure on load is retried; a corrupted payload is
    /// not — the same bytes come back on every read, so [`UcadError::Corrupt`]
    /// surfaces after exactly one read.
    #[test]
    fn load_retries_io_but_never_retries_corruption() {
        let dir = tmp_dir("flaky-load");
        let mut store = CheckpointStore::open(&dir, 4).expect("open");
        let model = tiny_model(3);
        let id = store.save(&model).expect("save");

        let guard = ucad_fault::FaultPlan::new()
            .fs_fail_ops(2)
            .fs_scope(&dir)
            .arm();
        let restored = store
            .load(&id)
            .expect("load must retry past 2 transient failures");
        assert_eq!(restored.to_json(), model.to_json());
        assert_eq!(guard.stats().fs_injected_io, 2);
        drop(guard);

        let guard = ucad_fault::FaultPlan::new()
            .fs_corrupt_reads(1)
            .fs_scope(&dir)
            .arm();
        let result = store.load(&id);
        assert!(
            matches!(result, Err(UcadError::Corrupt { .. })),
            "bit-flipped payload must surface as Corrupt: {:?}",
            result.map(|_| "unexpected Ok").err()
        );
        let stats = guard.stats();
        assert_eq!(
            stats.fs_ops, 1,
            "corruption must not be retried: expected exactly one read, saw {}",
            stats.fs_ops
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
