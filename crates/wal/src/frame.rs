//! The checked frame: the one layout every length-prefixed, CRC-checked
//! byte sequence UCAD writes uses, on disk and on the wire.
//!
//! ```text
//! offset  size  field
//! 0       t     tag (t = 0 for a WAL record, 8 for an envelope or net frame)
//! t       4     payload length, u32 little-endian
//! t+4     4     CRC-32 (IEEE) of the payload, u32 little-endian
//! t+8     n     payload
//! ```
//!
//! The tag is the caller's: a WAL record has none, a file envelope's is its
//! 8-byte magic ([`crate::envelope`]), a network frame's is `"UNET"` plus
//! a `u16` version and a `u16` kind (`ucad_net::protocol`). [`encode`]
//! writes the layout; [`split`] is the only reader of the length and CRC
//! fields. It checks the declared length against a caller-given maximum
//! before it slices anything, so a bit flip in the length cannot make a
//! reader attempt a multi-gigabyte slice or allocation.
//!
//! Inside a WAL segment, records are scanned strictly in order. The first
//! frame that fails any check — a truncated header, a length pointing past
//! the end of the file, a CRC mismatch — ends the scan: everything before
//! it is trusted, everything at and after it is discarded as a torn tail.
//! That rule is what makes a crash mid-append (or any trailing garbage)
//! indistinguishable from a clean end-of-log.

use crate::crc32::crc32;

/// Bytes of the length and CRC fields that follow the tag.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single WAL record payload. Anything larger in a length
/// field is treated as corruption.
const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Frames `payload` under `tag`.
pub fn encode(tag: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(tag.len() + HEADER_LEN + payload.len());
    buf.extend_from_slice(tag);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// What [`split`] found at the start of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split<'a> {
    /// An intact payload; the frame spans `HEADER_LEN + payload.len()` bytes.
    Whole(&'a [u8]),
    /// The frame has not fully arrived: `None` while the length and CRC
    /// fields are incomplete, else the declared payload length.
    Short(Option<usize>),
    /// The declared payload length exceeds the caller's maximum.
    TooLong(usize),
    /// The payload does not match its CRC.
    BadCrc {
        /// Declared payload length.
        len: usize,
        /// CRC the header records.
        stored: u32,
        /// CRC of the bytes that arrived.
        computed: u32,
    },
}

/// Reads the frame at the start of `bytes` (the tag already stripped),
/// checking the declared length against `max` before the payload and its
/// CRC. Never panics, whatever the input.
pub fn split(bytes: &[u8], max: usize) -> Split<'_> {
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Split::Short(None);
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > max {
        return Split::TooLong(len);
    }
    let Some(payload) = rest.get(..len) else {
        return Split::Short(Some(len));
    };
    let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let computed = crc32(payload);
    if stored != computed {
        return Split::BadCrc {
            len,
            stored,
            computed,
        };
    }
    Split::Whole(payload)
}

/// Scans `bytes` for consecutive valid untagged frames. Returns the
/// payloads that passed every check plus, when the scan stopped early, a
/// description of the damage that ended it (`None` means the segment ended
/// exactly on a frame boundary).
pub(crate) fn scan_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<String>) {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = bytes.len() - at;
        let damage = match split(&bytes[at..], MAX_FRAME_LEN) {
            Split::Whole(payload) => {
                payloads.push(payload.to_vec());
                at += HEADER_LEN + payload.len();
                continue;
            }
            Split::Short(None) => {
                format!("torn frame header at offset {at}: {rest} trailing bytes")
            }
            Split::TooLong(len) => format!("implausible frame length {len} at offset {at}"),
            Split::Short(Some(len)) => format!(
                "torn frame at offset {at}: length {len} exceeds {} remaining bytes",
                rest - HEADER_LEN
            ),
            Split::BadCrc {
                stored, computed, ..
            } => format!(
                "frame CRC mismatch at offset {at}: stored {stored:#010x}, computed {computed:#010x}"
            ),
        };
        return (payloads, Some(damage));
    }
    (payloads, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append(buf: &mut Vec<u8>, payload: &[u8]) {
        buf.extend_from_slice(&encode(&[], payload));
    }

    #[test]
    fn round_trips_multiple_frames() {
        let mut buf = Vec::new();
        let records: &[&[u8]] = &[b"first", b"", b"third record"];
        for r in records {
            append(&mut buf, r);
        }
        let (payloads, damage) = scan_frames(&buf);
        assert_eq!(payloads, records);
        assert!(damage.is_none());
    }

    #[test]
    fn truncation_yields_prefix_and_damage_note() {
        let mut buf = Vec::new();
        append(&mut buf, b"kept");
        append(&mut buf, b"lost to the torn tail");
        for cut in buf.len() - 10..buf.len() {
            let (payloads, damage) = scan_frames(&buf[..cut]);
            assert_eq!(payloads, vec![b"kept".to_vec()]);
            assert!(damage.is_some(), "cut at {cut} must report damage");
        }
    }

    #[test]
    fn implausible_length_is_damage_not_allocation() {
        let mut buf = Vec::new();
        append(&mut buf, b"ok");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let (payloads, damage) = scan_frames(&buf);
        assert_eq!(payloads, vec![b"ok".to_vec()]);
        assert!(damage.unwrap().contains("implausible frame length"));
    }

    #[test]
    fn crc_mismatch_stops_the_scan() {
        let mut buf = Vec::new();
        append(&mut buf, b"good");
        let flip_at = buf.len() - 1;
        append(&mut buf, b"tail");
        buf[flip_at] ^= 0x01;
        let (payloads, damage) = scan_frames(&buf);
        assert!(payloads.is_empty());
        assert!(damage.unwrap().contains("CRC mismatch"));
    }

    /// Every damage class of the splitter, for an untagged frame and for
    /// the same frame behind an 8-byte tag (which the caller strips).
    #[test]
    fn split_classifies_every_damage_class_tagged_and_untagged() {
        for tag in [&b""[..], b"UCADTST1"] {
            let frame = encode(tag, b"payload bytes");
            let body = &frame[tag.len()..];
            assert_eq!(&frame[..tag.len()], tag);
            assert_eq!(split(body, 64), Split::Whole(b"payload bytes"));
            // Trailing bytes belong to the next frame.
            let mut longer = body.to_vec();
            longer.extend_from_slice(b"next");
            assert_eq!(split(&longer, 64), Split::Whole(b"payload bytes"));
            for cut in 0..HEADER_LEN {
                assert_eq!(split(&body[..cut], 64), Split::Short(None), "cut {cut}");
            }
            for cut in HEADER_LEN..body.len() {
                assert_eq!(split(&body[..cut], 64), Split::Short(Some(13)), "cut {cut}");
            }
            // The maximum is checked from the header alone.
            assert_eq!(split(&body[..HEADER_LEN], 12), Split::TooLong(13));
            assert_eq!(split(body, 13), Split::Whole(b"payload bytes"));
            let mut flipped = body.to_vec();
            *flipped.last_mut().unwrap() ^= 0x80;
            assert!(matches!(
                split(&flipped, 64),
                Split::BadCrc { len: 13, stored, computed } if stored != computed
            ));
        }
    }
}
