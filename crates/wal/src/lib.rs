//! # ucad-wal
//!
//! Durable, segmented write-ahead logging for the UCAD serving stack — the
//! storage layer behind `ShardedOnlineUcad`'s full process crash recovery
//! (ROADMAP item 2). The crate generalizes the integrity discipline the
//! PR-4 checkpoint store introduced (magic + length + CRC-32 envelope,
//! tmp-then-rename commits, retry-with-backoff I/O) into four reusable
//! pieces:
//!
//! * [`frame`] — the checked frame (`tag | len | crc | payload`) every WAL
//!   record, file envelope and `ucad-net` wire frame uses: one encoder and
//!   one bounds-checked splitter, the only reader of length and CRC fields.
//! * [`envelope`] — the whole-file envelope (`magic | len | crc | payload`)
//!   shared with `ucad-life`'s checkpoint store, now generic over the magic
//!   so WAL snapshots and model checkpoints validate through one code path.
//! * [`SegmentedWal`] — an append-only log split into fixed-size segment
//!   files. Every record is CRC-32-framed; recovery scans segments in
//!   order and stops at the first damaged frame, so truncation, bit flips
//!   and trailing garbage surface as a clean end-of-log, never a panic.
//!   Durability is tuned with [`WalOptions::fsync_every`] (fsync batching)
//!   and space is reclaimed with watermark-driven whole-segment truncation
//!   ([`SegmentedWal::truncate_below`]).
//! * [`SnapshotStore`] — periodic session-state snapshots (envelope-framed,
//!   atomically committed, newest-valid-wins) that bound replay length:
//!   recovery restores the newest intact snapshot and replays only the WAL
//!   suffix past it.
//!
//! The log never appends to a recovered segment: a possibly-torn tail is
//! sealed as-is and appends continue in a fresh segment, so a crash during
//! recovery cannot compound damage.
//!
//! Fault injection: every append runs the `ucad-fault` WAL hook (injected
//! I/O failures, and the `proc_crash=K` fault that aborts the process at
//! the K-th append — the kill switch behind the crash-recovery test wall).

#![warn(missing_docs)]

pub mod crc32;
pub mod envelope;
pub mod frame;
mod segment;
mod snapshot;
mod wal;

pub use snapshot::SnapshotStore;
pub use wal::{SegmentedWal, WalOptions, WalRecovery};

use std::path::Path;
use ucad_model::UcadError;
use ucad_obs::Counter;

/// Maximum retries after a failed fs operation (so up to `IO_RETRIES + 1`
/// attempts total), with 1 ms/2 ms/4 ms deterministic backoff between them.
pub const IO_RETRIES: u32 = 3;

/// Runs `op`, retrying transient I/O failures per the durability layer's
/// retry policy. `NotFound` is not transient (a missing file stays missing)
/// and surfaces immediately. Shared by the WAL, the snapshot store, the
/// `ucad-life` checkpoint store and the `ucad-tenant` profiles.
pub fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut backoff_ms = 1u64;
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
            Err(e) if attempt >= IO_RETRIES => return Err(e),
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                backoff_ms *= 2;
                attempt += 1;
            }
        }
    }
}

/// Commits `bytes` to `path` atomically — write `tmp` (same filesystem),
/// then rename it over `path`, both through [`retry_io`] and the
/// `ucad-fault` fs hooks — so a process crash never leaves a torn `path`.
/// Nothing is fsynced.
pub fn write_atomic(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), UcadError> {
    retry_io(|| ucad_fault::fs_write(tmp, bytes))
        .map_err(|e| UcadError::io(tmp.display().to_string(), &e))?;
    retry_io(|| ucad_fault::fs_rename(tmp, path))
        .map_err(|e| UcadError::io(path.display().to_string(), &e))
}

/// FNV-1a 64-bit — the content hash behind checkpoint version identifiers
/// (re-exported here so `ucad-life` shares one implementation).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Counter handles a [`SegmentedWal`] reports into — pre-fetched by the
/// owner from its metrics registry so the append hot path never takes a
/// registry lock. All counters are monotone.
#[derive(Clone, Default)]
pub struct WalMetrics {
    /// Segment files ever opened for appending.
    pub segments: Counter,
    /// `fsync` calls issued (batched per [`WalOptions::fsync_every`]).
    pub fsyncs: Counter,
    /// Records appended.
    pub appends: Counter,
}

impl std::fmt::Debug for WalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalMetrics")
            .field("segments", &self.segments.get())
            .field("fsyncs", &self.fsyncs.get())
            .field("appends", &self.appends.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_io_passes_through_success_and_not_found() {
        assert_eq!(retry_io(|| Ok(7)).unwrap(), 7);
        let mut calls = 0;
        let err = retry_io::<()>(|| {
            calls += 1;
            Err(std::io::Error::from(std::io::ErrorKind::NotFound))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert_eq!(calls, 1, "NotFound must not be retried");
    }

    #[test]
    fn retry_io_retries_transient_failures_then_gives_up() {
        let mut calls = 0;
        let result = retry_io(|| {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::other("transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);

        let mut calls = 0;
        let result = retry_io::<()>(|| {
            calls += 1;
            Err(std::io::Error::other("permanent"))
        });
        assert!(result.is_err());
        assert_eq!(calls, (IO_RETRIES + 1) as usize);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
