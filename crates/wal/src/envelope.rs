//! The whole-file integrity envelope shared by UCAD's durable snapshots:
//! a [`crate::frame`] under an 8-byte magic tag.
//!
//! ```text
//! offset  size  field
//! 0       8     magic (8 ASCII bytes, e.g. "UCADCKP2")
//! 8       4     payload length, u32 little-endian
//! 12      4     CRC-32 (IEEE) of the payload, u32 little-endian
//! 16      n     payload
//! ```
//!
//! The magic names the artifact, so every durable file validates through
//! one code path:
//!
//! | magic      | artifact                                           |
//! |------------|----------------------------------------------------|
//! | `UCADCKP2` | model checkpoint, binary payload (`ucad-life`)     |
//! | `UCADCKP1` | model checkpoint, JSON payload (read only)         |
//! | `UCADSNP1` | session-state snapshot                             |
//! | `UCADPRF1` | tenant profile, JSON payload (`ucad-tenant`)       |
//!
//! WAL segments (`UCADWAL1`) are not enveloped: their header is checked by
//! `segment`, and their records are untagged frames. A network frame
//! (`ucad_net::protocol`) is the same layout under the tag `"UNET"` + `u16`
//! version + `u16` kind.
//!
//! [`decode`] checks, in order: header length, magic, declared-vs-actual
//! payload length, CRC — and reports any damage as [`UcadError::Corrupt`]
//! with the failed check spelled out. It never panics on hostile bytes.

use crate::frame::{self, Split};
use ucad_model::UcadError;

/// Bytes of envelope metadata before the payload.
pub const HEADER_LEN: usize = 8 + frame::HEADER_LEN;

/// Wraps `payload` in an envelope under `magic`.
pub fn encode(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    frame::encode(magic, payload)
}

/// Validates the envelope on `bytes` and returns the payload slice.
/// `origin` names the byte source (a path, usually) in error reports.
pub fn decode<'a>(magic: &[u8; 8], bytes: &'a [u8], origin: &str) -> Result<&'a [u8], UcadError> {
    let corrupt = |detail: String| Err(UcadError::corrupt(origin, detail));
    if bytes.len() < HEADER_LEN {
        return corrupt(format!(
            "truncated header: {} bytes, envelope header is {HEADER_LEN}",
            bytes.len()
        ));
    }
    if &bytes[..8] != magic {
        return corrupt(format!(
            "bad magic (expected {:?})",
            String::from_utf8_lossy(magic)
        ));
    }
    // The file holds exactly one frame, so its size caps the declared length.
    let actual = bytes.len() - HEADER_LEN;
    let declared = match frame::split(&bytes[8..], actual) {
        Split::Whole(payload) if payload.len() == actual => return Ok(payload),
        Split::BadCrc {
            len,
            stored,
            computed,
        } if len == actual => {
            return corrupt(format!(
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ))
        }
        Split::Whole(payload) => payload.len(),
        Split::BadCrc { len, .. } | Split::TooLong(len) => len,
        Split::Short(_) => unreachable!("a whole header declaring at most `actual` bytes"),
    };
    corrupt(format!(
        "payload length mismatch: header declares {declared}, file holds {actual}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"UCADTST1";

    #[test]
    fn round_trips_payloads() {
        for payload in [&b""[..], b"x", b"a longer payload with bytes \x00\xff"] {
            let encoded = encode(MAGIC, payload);
            assert_eq!(decode(MAGIC, &encoded, "mem").unwrap(), payload);
        }
    }

    #[test]
    fn rejects_every_damage_class() {
        let good = encode(MAGIC, b"payload bytes");

        // Truncated header.
        let err = decode(MAGIC, &good[..HEADER_LEN - 1], "mem").unwrap_err();
        assert!(matches!(err, UcadError::Corrupt { .. }), "{err:?}");

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0x20;
        assert!(decode(MAGIC, &bad, "mem").is_err());

        // Truncated payload (declared length no longer matches).
        assert!(decode(MAGIC, &good[..good.len() - 1], "mem").is_err());

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0xAB);
        assert!(decode(MAGIC, &bad, "mem").is_err());

        // Bit flip in the payload (CRC catches it).
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        let err = decode(MAGIC, &bad, "mem").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("CRC mismatch"), "{msg}");
    }
}
