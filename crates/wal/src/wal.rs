//! The segmented write-ahead log itself.

use crate::frame;
use crate::segment::{
    parse_segment_name, read_segment, segment_file_name, segment_header, SEGMENT_HEADER_LEN,
};
use crate::{retry_io, WalMetrics};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use ucad_model::UcadError;

/// Durability and rotation knobs for a [`SegmentedWal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (header included). Rotation bounds how much data a single
    /// damaged file can take down and is the unit of truncation.
    pub segment_max_bytes: u64,
    /// `fsync` after every N appends. `1` is fsync-per-record (strongest),
    /// larger values batch; `0` never fsyncs on append (the OS decides),
    /// in which case only [`SegmentedWal::sync`] barriers are durable.
    pub fsync_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_max_bytes: 1 << 20,
            fsync_every: 1,
        }
    }
}

/// What [`SegmentedWal::open`] recovered from disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Log index of the first recovered record (records below it were
    /// truncated away in a previous life).
    pub first_idx: u64,
    /// Index the next append will get; `next_idx - first_idx` equals
    /// `entries.len()`.
    pub next_idx: u64,
    /// Recovered record payloads for indices `first_idx..next_idx`.
    pub entries: Vec<Vec<u8>>,
    /// The first damage observed, if any: a torn frame, CRC mismatch,
    /// damaged header or inter-segment gap. Damage truncates the affected
    /// segment at its last valid record (a sealed torn tail from an earlier
    /// recovery does not end the log — the contiguous successor segment
    /// continues it) and is never an error and never a panic.
    pub damage: Option<String>,
}

/// An append-only, CRC-framed, segmented log in a directory.
///
/// Invariants:
/// * appends go only to a segment this process created — [`SegmentedWal::open`]
///   seals whatever it recovered and starts a fresh segment at `next_idx`,
///   so a torn tail can never be appended onto;
/// * segment files are contiguous: each starts at the index after the last
///   record of its predecessor. A gap means everything from the gap on is
///   untrusted, and such orphan files are deleted at open;
/// * damage of any kind truncates the log at the last valid record and is
///   reported in [`WalRecovery::damage`] — it never panics and never
///   surfaces as `Err`.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    opts: WalOptions,
    metrics: WalMetrics,
    /// Current append segment (always `Some` after `open`; `take`n only
    /// transiently during rotation).
    file: Option<File>,
    /// `first_idx` of every sealed (no longer appended-to) segment still on
    /// disk, in index order.
    sealed: Vec<u64>,
    /// `first_idx` of the current append segment.
    current_first: u64,
    /// Bytes written to the current append segment, header included.
    current_bytes: u64,
    next_idx: u64,
    /// Appends since the last fsync of the current segment.
    unsynced: u64,
}

impl SegmentedWal {
    /// Opens (creating if needed) the log in `dir`, replaying whatever is
    /// on disk. Returns the log, positioned to append at
    /// `recovery.next_idx`, plus everything it trusted. Fails only on real
    /// I/O errors — damaged bytes are reported via [`WalRecovery::damage`].
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
        metrics: WalMetrics,
    ) -> Result<(Self, WalRecovery), UcadError> {
        let dir = dir.into();
        retry_io(|| std::fs::create_dir_all(&dir))
            .map_err(|e| UcadError::io(dir.display().to_string(), &e))?;

        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        let listing = retry_io(|| std::fs::read_dir(&dir))
            .map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
        for entry in listing {
            let entry = entry.map_err(|e| UcadError::io(dir.display().to_string(), &e))?;
            let name = entry.file_name();
            if let Some(first_idx) = name.to_str().and_then(parse_segment_name) {
                found.push((first_idx, entry.path()));
            }
        }
        found.sort_by_key(|(first_idx, _)| *first_idx);

        let first_idx = found.first().map(|(i, _)| *i).unwrap_or(0);
        let mut next_idx = first_idx;
        let mut entries = Vec::new();
        let mut damage: Option<String> = None;
        let mut halted = false;
        let mut sealed = Vec::new();
        let mut orphans = Vec::new();
        for (seg_first, path) in found {
            // A segment continues the log only if it starts exactly at the
            // trusted prefix's end. That holds across a sealed torn tail
            // (rotate-on-open seals at precisely the trusted count), so a
            // previously recovered log reads whole; a real gap orphans
            // everything from the gap on.
            if halted || seg_first != next_idx {
                if damage.is_none() {
                    damage = Some(format!(
                        "{}: segment gap: starts at {seg_first}, log ends at {next_idx}",
                        path.display()
                    ));
                }
                halted = true;
                orphans.push(path);
                continue;
            }
            let bytes = retry_io(|| ucad_fault::fs_read(&path))
                .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
            let read = read_segment(&bytes, seg_first, &path);
            next_idx += read.payloads.len() as u64;
            entries.extend(read.payloads);
            if let Some(d) = read.damage {
                damage.get_or_insert(d);
            }
            if next_idx > seg_first {
                sealed.push(seg_first);
            } else {
                // Zero trusted records: the fresh append segment will reuse
                // this file's name and overwrite it.
                orphans.push(path);
            }
        }
        // Files past the damage point (and empty/poisoned ones) are
        // untrusted; remove them so a later append at their index can never
        // resurrect stale records.
        for path in orphans {
            let _ = std::fs::remove_file(&path);
        }

        let mut wal = SegmentedWal {
            dir,
            opts,
            metrics,
            file: None,
            sealed,
            current_first: next_idx,
            current_bytes: 0,
            next_idx,
            unsynced: 0,
        };
        wal.start_segment(next_idx)?;
        let recovery = WalRecovery {
            first_idx,
            next_idx,
            entries,
            damage,
        };
        Ok((wal, recovery))
    }

    /// Creates (truncating any name collision) the segment whose first
    /// record will be `first_idx` and makes it the append target.
    fn start_segment(&mut self, first_idx: u64) -> Result<(), UcadError> {
        let path = self.segment_path(first_idx);
        let mut file = retry_io(|| {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
        })
        .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        file.write_all(&segment_header(first_idx))
            .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        self.file = Some(file);
        self.current_first = first_idx;
        self.current_bytes = SEGMENT_HEADER_LEN as u64;
        self.unsynced = 0;
        self.metrics.segments.inc();
        // Make the new directory entry itself durable (best-effort: some
        // filesystems reject directory fsync, and a lost *empty* segment
        // only shortens the log, which recovery already tolerates).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn segment_path(&self, first_idx: u64) -> PathBuf {
        self.dir.join(segment_file_name(first_idx))
    }

    /// Appends one record, returning the log index it got. The record is
    /// on disk (modulo fsync batching) before this returns — callers rely
    /// on append-before-send. Runs the `ucad-fault` WAL hook first, so an
    /// armed `proc_crash` plan aborts *before* the frame is written.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, UcadError> {
        ucad_fault::on_wal_append(&self.dir)
            .map_err(|e| UcadError::io(self.dir.display().to_string(), &e))?;
        let buf = frame::encode(&[], payload);
        let path = self.segment_path(self.current_first);
        let file = self.file.as_mut().expect("append segment always open");
        file.write_all(&buf)
            .map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        let idx = self.next_idx;
        self.next_idx += 1;
        self.current_bytes += buf.len() as u64;
        self.unsynced += 1;
        self.metrics.appends.inc();
        if self.opts.fsync_every > 0 && self.unsynced >= self.opts.fsync_every {
            self.fsync_current(&path)?;
        }
        if self.current_bytes >= self.opts.segment_max_bytes {
            self.rotate()?;
        }
        Ok(idx)
    }

    fn fsync_current(&mut self, path: &Path) -> Result<(), UcadError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let file = self.file.as_mut().expect("append segment always open");
        retry_io(|| file.sync_data()).map_err(|e| UcadError::io(path.display().to_string(), &e))?;
        self.unsynced = 0;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Forces everything appended so far to disk, regardless of the batch
    /// setting. A durability barrier for callers (drain, snapshot commit).
    pub fn sync(&mut self) -> Result<(), UcadError> {
        let path = self.segment_path(self.current_first);
        self.fsync_current(&path)
    }

    /// Seals the current segment (fsyncing its tail) and starts a fresh one.
    fn rotate(&mut self) -> Result<(), UcadError> {
        let path = self.segment_path(self.current_first);
        self.fsync_current(&path)?;
        self.sealed.push(self.current_first);
        self.file = None;
        self.start_segment(self.next_idx)
    }

    /// Drops every *whole* segment whose records all have index `< idx`.
    /// Truncation is segment-granular: a segment straddling the watermark
    /// stays until the watermark passes its end. The current append segment
    /// is never dropped.
    pub fn truncate_below(&mut self, idx: u64) {
        while !self.sealed.is_empty() {
            // A sealed segment's records end where its successor begins.
            let end = self.sealed.get(1).copied().unwrap_or(self.current_first);
            if end > idx {
                break;
            }
            let first = self.sealed.remove(0);
            let _ = std::fs::remove_file(self.segment_path(first));
        }
    }

    /// Index the next [`SegmentedWal::append`] will return.
    pub fn next_idx(&self) -> u64 {
        self.next_idx
    }

    /// Number of segment files currently on disk (sealed + the append one).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ucad-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_max_bytes: u64, fsync_every: u64) -> WalOptions {
        WalOptions {
            segment_max_bytes,
            fsync_every,
        }
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = tmp_dir("reopen");
        let (mut wal, rec) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).expect("open fresh");
        assert_eq!(rec.next_idx, 0);
        assert!(rec.entries.is_empty());
        for i in 0..5u8 {
            assert_eq!(wal.append(&[i]).unwrap(), i as u64);
        }
        drop(wal);

        let (mut wal, rec) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).expect("reopen");
        assert_eq!(rec.first_idx, 0);
        assert_eq!(rec.next_idx, 5);
        assert_eq!(rec.entries, (0..5u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(rec.damage.is_none());
        // Appends continue exactly where the log left off, in a new segment.
        assert_eq!(wal.append(b"six").unwrap(), 5);
        drop(wal);
        let (_, rec) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).expect("reopen 2");
        assert_eq!(rec.next_idx, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_into_contiguous_segments() {
        let dir = tmp_dir("rotate");
        let metrics = WalMetrics::default();
        // Tiny segments: every record rotates.
        let (mut wal, _) = SegmentedWal::open(&dir, opts(1, 0), metrics.clone()).unwrap();
        for i in 0..4u8 {
            wal.append(&[i; 8]).unwrap();
        }
        assert_eq!(wal.segment_count(), 5);
        assert!(metrics.segments.get() >= 5);
        drop(wal);
        let (_, rec) = SegmentedWal::open(&dir, opts(1, 0), WalMetrics::default()).unwrap();
        assert_eq!(rec.next_idx, 4);
        assert_eq!(rec.entries.len(), 4);
        assert!(rec.damage.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_below_is_segment_granular_and_survives_reopen() {
        let dir = tmp_dir("truncate");
        let (mut wal, _) = SegmentedWal::open(&dir, opts(1, 1), WalMetrics::default()).unwrap();
        for i in 0..6u8 {
            wal.append(&[i]).unwrap();
        }
        // Segments: [0],[1],[2],[3],[4],[5] sealed + empty append segment.
        wal.truncate_below(3);
        assert_eq!(wal.segment_count(), 4);
        // Watermark inside a surviving segment drops nothing further.
        wal.truncate_below(3);
        assert_eq!(wal.segment_count(), 4);
        drop(wal);
        let (_, rec) = SegmentedWal::open(&dir, opts(1, 1), WalMetrics::default()).unwrap();
        assert_eq!(rec.first_idx, 3);
        assert_eq!(rec.next_idx, 6);
        assert_eq!(rec.entries, vec![vec![3u8], vec![4], vec![5]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_clean_end_of_log() {
        let dir = tmp_dir("torn");
        let (mut wal, _) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).unwrap();
        for i in 0..3u8 {
            wal.append(&[i; 32]).unwrap();
        }
        let seg = wal.segment_path(0);
        drop(wal);
        // Tear the last record in half.
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 16]).unwrap();

        let (mut wal, rec) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).unwrap();
        assert_eq!(rec.next_idx, 2, "torn record is gone, prefix intact");
        assert!(rec.damage.is_some());
        // The sealed torn file is never appended to: new records land in a
        // fresh segment and a further reopen sees a contiguous log.
        wal.append(b"after damage").unwrap();
        drop(wal);
        let (_, rec) = SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).unwrap();
        assert_eq!(rec.next_idx, 3);
        assert_eq!(rec.entries[2], b"after damage");
        assert!(
            rec.damage.is_some(),
            "the old torn tail still reads as sealed damage"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_segments_past_a_gap_are_deleted_not_replayed() {
        let dir = tmp_dir("orphan");
        let (mut wal, _) =
            SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).unwrap();
        wal.append(b"real").unwrap();
        drop(wal);
        // Forge a stale segment far past the end of the log.
        let forged = dir.join(segment_file_name(7));
        let mut bytes = segment_header(7).to_vec();
        bytes.extend_from_slice(&frame::encode(&[], b"stale ghost"));
        std::fs::write(&forged, &bytes).unwrap();

        let (_, rec) = SegmentedWal::open(&dir, opts(1 << 20, 1), WalMetrics::default()).unwrap();
        assert_eq!(rec.next_idx, 1);
        assert!(rec.damage.unwrap().contains("segment gap"));
        assert!(
            !forged.exists(),
            "orphan must be deleted so index 7 can never resurrect it"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_metrics_track_batching() {
        let dir = tmp_dir("fsync");
        let metrics = WalMetrics::default();
        let (mut wal, _) = SegmentedWal::open(&dir, opts(1 << 20, 3), metrics.clone()).unwrap();
        for i in 0..7u8 {
            wal.append(&[i]).unwrap();
        }
        assert_eq!(
            metrics.fsyncs.get(),
            2,
            "7 appends at fsync_every=3 -> 2 batch syncs"
        );
        wal.sync().unwrap();
        assert_eq!(
            metrics.fsyncs.get(),
            3,
            "explicit barrier syncs the 1-record tail"
        );
        wal.sync().unwrap();
        assert_eq!(
            metrics.fsyncs.get(),
            3,
            "no-op barrier when nothing is unsynced"
        );
        assert_eq!(metrics.appends.get(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
