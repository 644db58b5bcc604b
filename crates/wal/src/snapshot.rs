//! Periodic state snapshots that bound WAL replay length.
//!
//! A snapshot is an opaque payload (the serving engine serializes its
//! session state into one) wrapped in the shared [`envelope`](crate::envelope)
//! under magic `UCADSNP1` and written as `snap-{seq:016x}.snap`, where `seq`
//! is the WAL index the snapshot covers up to (exclusive). Commits are
//! tmp-then-rename atomic, the newest two snapshots are retained (the
//! previous one survives a crash mid-commit of its successor), and loading
//! walks newest-first, skipping damaged files — newest valid wins, and a
//! store with no intact snapshot is simply empty, never a panic.

use crate::envelope;
use crate::{retry_io, write_atomic};
use std::path::PathBuf;
use ucad_model::UcadError;

const MAGIC: &[u8; 8] = b"UCADSNP1";
const PREFIX: &str = "snap-";
const EXT: &str = "snap";

/// Number of snapshots kept on disk.
const KEEP: usize = 2;

/// A directory of envelope-framed state snapshots, newest-valid-wins.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, UcadError> {
        let dir = dir.into();
        retry_io(|| std::fs::create_dir_all(&dir))
            .map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
        Ok(SnapshotStore { dir })
    }

    fn path_of(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{PREFIX}{seq:016x}.{EXT}"))
    }

    fn parse_name(name: &str) -> Option<u64> {
        let stem = name
            .strip_prefix(PREFIX)?
            .strip_suffix(&format!(".{EXT}"))?;
        if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(stem, 16).ok()
    }

    /// Snapshot sequence numbers currently on disk, oldest first.
    fn list(&self) -> Result<Vec<u64>, UcadError> {
        let listing = retry_io(|| std::fs::read_dir(&self.dir))
            .map_err(|e| UcadError::io(self.dir.display().to_string(), &e))?;
        let mut seqs = Vec::new();
        for entry in listing {
            let entry = entry.map_err(|e| UcadError::io(self.dir.display().to_string(), &e))?;
            if let Some(seq) = entry.file_name().to_str().and_then(Self::parse_name) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Atomically commits a snapshot covering the log up to `seq`
    /// (exclusive), then drops all but the newest `KEEP` snapshots.
    pub fn save(&self, seq: u64, payload: &[u8]) -> Result<(), UcadError> {
        let bytes = envelope::encode(MAGIC, payload);
        let final_path = self.path_of(seq);
        let tmp = self.dir.join(format!(".tmp-{seq:016x}"));
        write_atomic(&tmp, &final_path, &bytes)?;
        let seqs = self.list()?;
        for &old in seqs.iter().rev().skip(KEEP) {
            let _ = std::fs::remove_file(self.path_of(old));
        }
        Ok(())
    }

    /// Loads the newest intact snapshot, returning its covering sequence
    /// number and payload. Damaged snapshots are skipped (older intact ones
    /// still win); an empty or fully damaged store is `Ok(None)`. Only real
    /// I/O failures are errors.
    pub fn load_latest(&self) -> Result<Option<(u64, Vec<u8>)>, UcadError> {
        for &seq in self.list()?.iter().rev() {
            let path = self.path_of(seq);
            let bytes = match retry_io(|| ucad_fault::fs_read(&path)) {
                Ok(b) => b,
                // Raced with retention GC or manual cleanup: treat like damage.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(UcadError::io(path.display().to_string(), &e)),
            };
            match envelope::decode(MAGIC, &bytes, &path.display().to_string()) {
                Ok(payload) => return Ok(Some((seq, payload.to_vec()))),
                Err(_) => continue,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucad-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let dir = tmp_dir("newest");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        store.save(10, b"ten").unwrap();
        store.save(25, b"twenty-five").unwrap();
        assert_eq!(
            store.load_latest().unwrap(),
            Some((25, b"twenty-five".to_vec()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_newest_falls_back_to_older_intact() {
        let dir = tmp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(10, b"older but intact").unwrap();
        store.save(25, b"newest").unwrap();
        // Flip a payload bit in the newest snapshot.
        let newest = store.path_of(25);
        let mut bytes = std::fs::read(&newest).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(
            store.load_latest().unwrap(),
            Some((10, b"older but intact".to_vec()))
        );
        // Truncate the older one too: now nothing is intact.
        std::fs::write(store.path_of(10), b"UC").unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_keeps_exactly_the_newest_two() {
        let dir = tmp_dir("retention");
        let store = SnapshotStore::open(&dir).unwrap();
        for seq in [3u64, 8, 21, 40] {
            store.save(seq, format!("state@{seq}").as_bytes()).unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![21, 40]);
        assert_eq!(
            store.load_latest().unwrap(),
            Some((40, b"state@40".to_vec()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
