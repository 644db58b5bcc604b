//! Segment files: the on-disk unit of the WAL.
//!
//! A segment named `{first_idx:016x}.wseg` holds the records starting at
//! log index `first_idx`:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "UCADWAL1"
//! 8       8     first_idx, u64 little-endian (must match the file name)
//! 16      …     frames (see `frame`), one per record, in index order
//! ```
//!
//! The header is written once when the segment is created; a damaged or
//! mismatched header poisons the whole segment (zero trusted records),
//! which recovery treats as the end of the log.

use crate::frame::scan_frames;
use std::path::Path;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"UCADWAL1";

/// Bytes of segment header before the first frame.
pub(crate) const SEGMENT_HEADER_LEN: usize = 16;

/// File extension of segment files.
pub(crate) const SEGMENT_EXT: &str = "wseg";

/// Name of the segment whose first record has log index `first_idx`.
pub(crate) fn segment_file_name(first_idx: u64) -> String {
    format!("{first_idx:016x}.{SEGMENT_EXT}")
}

/// Parses a `{first_idx:016x}.wseg` file name back to its first index.
/// Anything else in the directory (temp files, foreign files) is ignored
/// by returning `None`.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// The header bytes of a fresh segment starting at `first_idx`.
pub(crate) fn segment_header(first_idx: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&first_idx.to_le_bytes());
    header
}

/// One segment as recovered from disk.
pub(crate) struct SegmentRead {
    /// Record payloads that passed every integrity check, in index order.
    pub payloads: Vec<Vec<u8>>,
    /// Why the scan stopped early, if it did. `Some` means the segment tail
    /// (or the whole segment, when the header itself was damaged) was
    /// discarded and the log effectively ends here.
    pub damage: Option<String>,
}

/// Validates the header of `bytes` (read from `path`, expected to start at
/// `expected_first_idx`) and scans its frames. I/O has already happened;
/// this function never fails — damage is data, not an error.
pub(crate) fn read_segment(bytes: &[u8], expected_first_idx: u64, path: &Path) -> SegmentRead {
    let origin = path.display();
    if bytes.len() < SEGMENT_HEADER_LEN {
        return SegmentRead {
            payloads: Vec::new(),
            damage: Some(format!(
                "{origin}: truncated segment header: {} bytes",
                bytes.len()
            )),
        };
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return SegmentRead {
            payloads: Vec::new(),
            damage: Some(format!("{origin}: bad segment magic")),
        };
    }
    let header_idx = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    if header_idx != expected_first_idx {
        return SegmentRead {
            payloads: Vec::new(),
            damage: Some(format!(
                "{origin}: header first_idx {header_idx} disagrees with file name ({expected_first_idx})"
            )),
        };
    }
    let (payloads, frame_damage) = scan_frames(&bytes[SEGMENT_HEADER_LEN..]);
    SegmentRead {
        payloads,
        damage: frame_damage.map(|d| format!("{origin}: {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use std::path::PathBuf;

    #[test]
    fn names_round_trip_and_sort_in_index_order() {
        for idx in [0u64, 1, 0xFF, u64::MAX] {
            assert_eq!(parse_segment_name(&segment_file_name(idx)), Some(idx));
        }
        let mut names: Vec<String> = [300u64, 2, 100_000].map(segment_file_name).to_vec();
        names.sort();
        assert_eq!(
            names
                .iter()
                .map(|n| parse_segment_name(n).unwrap())
                .collect::<Vec<_>>(),
            vec![2, 300, 100_000],
            "lexicographic file order must equal index order"
        );
    }

    #[test]
    fn foreign_names_are_ignored() {
        for name in [
            "MANIFEST.json",
            "x.wseg",
            "0000000000000000.tmp",
            "000000000000000g.wseg",
        ] {
            assert_eq!(parse_segment_name(name), None, "{name}");
        }
    }

    #[test]
    fn header_damage_poisons_the_segment() {
        let path = PathBuf::from("seg");
        let mut bytes = segment_header(5).to_vec();
        bytes.extend_from_slice(&frame::encode(&[], b"record"));

        let good = read_segment(&bytes, 5, &path);
        assert_eq!(good.payloads, vec![b"record".to_vec()]);
        assert!(good.damage.is_none());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        let read = read_segment(&bad_magic, 5, &path);
        assert!(read.payloads.is_empty());
        assert!(read.damage.unwrap().contains("bad segment magic"));

        let read = read_segment(&bytes, 6, &path);
        assert!(read.payloads.is_empty());
        assert!(read.damage.unwrap().contains("disagrees"));

        let read = read_segment(&bytes[..10], 5, &path);
        assert!(read.payloads.is_empty());
        assert!(read.damage.unwrap().contains("truncated segment header"));
    }
}
