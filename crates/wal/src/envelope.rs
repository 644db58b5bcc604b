//! The whole-file integrity envelope shared by UCAD's durable snapshots.
//!
//! ```text
//! offset  size  field
//! 0       8     magic (8 ASCII bytes, e.g. "UCADCKP2")
//! 8       4     payload length, u32 little-endian
//! 12      4     CRC-32 (IEEE) of the payload, u32 little-endian
//! 16      n     payload
//! ```
//!
//! The format is the checkpoint envelope, generalized over the magic so
//! model checkpoints and session-state snapshots validate through one code
//! path:
//!
//! | magic      | artifact                                           |
//! |------------|----------------------------------------------------|
//! | `UCADCKP2` | model checkpoint, binary payload (`ucad-life`)     |
//! | `UCADCKP1` | model checkpoint, JSON payload (read only)         |
//! | `UCADSNP1` | session-state snapshot                             |
//!
//! WAL segments (`UCADWAL1`) are not enveloped: their header and per-record
//! frames are checked by `segment` and `frame`.
//!
//! [`decode`] checks, in order: header length, magic, declared-vs-actual
//! payload length, CRC — and reports any damage as [`UcadError::Corrupt`]
//! with the failed check spelled out. It never panics on hostile bytes.

use crate::crc32::crc32;
use ucad_model::UcadError;

/// Bytes of envelope metadata before the payload.
pub const HEADER_LEN: usize = 16;

/// Wraps `payload` in an envelope under `magic`.
pub fn encode(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload CRC-32 an envelope's header records. `bytes` must hold at
/// least [`HEADER_LEN`] bytes, as [`encode`]'s output always does.
pub fn stored_crc(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]])
}

/// Validates the envelope on `bytes` and returns the payload slice.
/// `origin` names the byte source (a path, usually) in error reports.
pub fn decode<'a>(magic: &[u8; 8], bytes: &'a [u8], origin: &str) -> Result<&'a [u8], UcadError> {
    if bytes.len() < HEADER_LEN {
        return Err(UcadError::corrupt(
            origin,
            format!(
                "truncated header: {} bytes, envelope header is {HEADER_LEN}",
                bytes.len()
            ),
        ));
    }
    if &bytes[..8] != magic {
        return Err(UcadError::corrupt(
            origin,
            format!("bad magic (expected {:?})", String::from_utf8_lossy(magic)),
        ));
    }
    let declared = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let actual = bytes.len() - HEADER_LEN;
    if declared != actual {
        return Err(UcadError::corrupt(
            origin,
            format!("payload length mismatch: header declares {declared}, file holds {actual}"),
        ));
    }
    let stored_crc = stored_crc(bytes);
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(UcadError::corrupt(
            origin,
            format!("CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"),
        ));
    }
    Ok(payload)
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
