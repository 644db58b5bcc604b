//! Wire-protocol robustness walls (the `ucad-net` half of the WAL's damage
//! story, `tests/wal_props.rs`):
//!
//! * **round trip** — any payload survives encode/decode bit-exactly, with
//!   trailing bytes left untouched for the next frame;
//! * **damage** — truncation, single-bit flips, oversized length fields and
//!   trailing garbage must never panic: they decode to `Ok(None)` (need
//!   more bytes) or a typed `UcadError`, and single-bit payload damage is
//!   *always* caught by the CRC;
//! * **streams** — a [`FrameBuffer`] over a concatenation of frames yields
//!   exactly those frames in order; a torn stream yields a clean prefix and
//!   is then left mid-frame, never an invented frame;
//! * **layout** — the wire frame, the file envelope and a WAL record are
//!   one byte layout (tag, LE length, LE CRC-32, payload).

use proptest::prelude::*;
use ucad_net::protocol::{
    decode_frame, decode_message, encode_frame, encode_message, FrameBuffer, FrameKind, Request,
    HEADER_LEN, MAX_PAYLOAD_LEN,
};
use ucad_wal::{envelope, SegmentedWal, WalMetrics, WalOptions};

/// Bytes of a WAL segment header ("UCADWAL1" magic + first record index).
const SEGMENT_HEADER_LEN: usize = 16;

/// Bitwise CRC-32 (IEEE, reflected, polynomial 0xEDB88320): a reference
/// independent of the table-driven `ucad_wal::crc32`.
fn crc32_ref(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// The documented layout: `tag`, payload length (u32 LE), CRC-32 (u32 LE),
/// payload.
fn layout(tag: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = tag.to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32_ref(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The bytes one `SegmentedWal::append` of `payload` puts after the
/// segment header of a fresh log.
fn wal_record_bytes(payload: &[u8]) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "ucad-net-props-layout-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = SegmentedWal::open(&dir, WalOptions::default(), WalMetrics::default())
        .expect("open a fresh log");
    wal.append(payload).expect("append");
    drop(wal);
    let segment = std::fs::read_dir(&dir)
        .expect("list the log")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "wseg"))
        .expect("one segment");
    let bytes = std::fs::read(segment).expect("read the segment");
    let _ = std::fs::remove_dir_all(&dir);
    bytes[SEGMENT_HEADER_LEN..].to_vec()
}

fn kind_of(raw: bool) -> FrameKind {
    if raw {
        FrameKind::Request
    } else {
        FrameKind::Response
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload round-trips bit-exactly, and the decoder reports the
    /// exact frame length so trailing bytes belong to the next frame.
    #[test]
    fn frames_round_trip(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        req in any::<bool>(),
        trailing in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let kind = kind_of(req);
        let mut wire = encode_frame(kind, &payload);
        let frame_len = wire.len();
        prop_assert_eq!(frame_len, HEADER_LEN + payload.len());
        wire.extend_from_slice(&trailing);
        let (got_kind, got_payload, consumed) = decode_frame(&wire)
            .expect("valid frame decodes")
            .expect("complete frame decodes");
        prop_assert_eq!(got_kind, kind);
        prop_assert_eq!(got_payload, payload);
        prop_assert_eq!(consumed, frame_len);
    }

    /// Every strict prefix of a valid frame decodes to `Ok(None)` — the
    /// header validates incrementally (magic, version) without ever
    /// rejecting a frame that is merely still in flight.
    #[test]
    fn prefixes_of_a_valid_frame_ask_for_more_bytes(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        req in any::<bool>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = encode_frame(kind_of(req), &payload);
        let cut = ((wire.len() as f64) * cut_frac) as usize; // strictly < len
        prop_assert_eq!(decode_frame(&wire[..cut]).expect("prefix never errors"), None);
    }

    /// Flipping any single bit anywhere in a frame never panics. A flip in
    /// the payload region is *guaranteed* caught by the CRC; a flip in the
    /// header yields a typed error or an incomplete-frame verdict, never a
    /// successful decode of different bytes.
    #[test]
    fn single_bit_flips_never_panic_and_payload_flips_always_fail(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        req in any::<bool>(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let kind = kind_of(req);
        let mut wire = encode_frame(kind, &payload);
        let pos = ((wire.len() as f64) * pos_frac) as usize;
        wire[pos] ^= 1 << bit;
        match decode_frame(&wire) {
            Err(_) => {}                 // typed rejection — the common case
            Ok(None) => {
                // Only a length-field flip can legitimately leave the frame
                // "incomplete": it must have grown the advertised length.
                prop_assert!((8..12).contains(&pos), "only a longer length field may stall");
            }
            Ok(Some((got_kind, got_payload, _))) => {
                // CRC32 detects every single-bit error in its input, so a
                // successful decode means the flip touched neither the
                // payload nor the framing that frames it.
                prop_assert!(pos < HEADER_LEN, "payload flips must be caught");
                prop_assert_eq!(got_kind, kind);
                prop_assert_eq!(got_payload, payload.clone());
            }
        }
    }

    /// An oversized length field is rejected as a typed error before any
    /// allocation of that size is attempted.
    #[test]
    fn oversized_length_is_a_typed_error(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        req in any::<bool>(),
        extra in 1u64..=u32::MAX as u64,
    ) {
        let len = (MAX_PAYLOAD_LEN as u64 + extra).min(u32::MAX as u64) as u32;
        let mut wire = encode_frame(kind_of(req), &payload);
        wire[8..12].copy_from_slice(&len.to_le_bytes());
        prop_assert!(decode_frame(&wire).is_err());
        // The header alone is enough to reject it.
        prop_assert!(decode_frame(&wire[..HEADER_LEN]).is_err());
    }

    /// A frame buffer over k concatenated frames yields exactly those
    /// frames in order, then nothing, on a frame boundary.
    #[test]
    fn stream_reader_yields_every_frame_then_eof(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..8),
    ) {
        let mut reader = FrameBuffer::new();
        for (i, p) in payloads.iter().enumerate() {
            reader.push(&encode_frame(kind_of(i % 2 == 0), p));
        }
        for (i, p) in payloads.iter().enumerate() {
            let (kind, payload) = reader
                .pop()
                .expect("valid stream")
                .expect("frame present");
            prop_assert_eq!(kind, kind_of(i % 2 == 0));
            prop_assert_eq!(&payload, p);
        }
        prop_assert_eq!(reader.pop().expect("clean EOF"), None);
        prop_assert!(!reader.is_mid_frame(), "an EOF here is a clean hangup");
    }

    /// Cutting a stream of frames at any byte yields a clean prefix of the
    /// frames, then either a clean EOF (cut on a frame boundary) or a
    /// buffer left mid-frame, which the client and the daemon report as a
    /// torn frame — never a panic, never an invented frame.
    #[test]
    fn torn_streams_yield_a_clean_prefix_then_a_typed_error(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&encode_frame(kind_of(i % 2 == 0), p));
            boundaries.push(wire.len());
        }
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let mut reader = FrameBuffer::new();
        reader.push(&wire[..cut]);
        for p in payloads.iter().take(whole) {
            let (_, payload) = reader
                .pop()
                .expect("intact frames read back")
                .expect("frame present");
            prop_assert_eq!(&payload, p);
        }
        prop_assert_eq!(reader.pop().expect("a prefix is never damage"), None);
        prop_assert_eq!(
            reader.is_mid_frame(),
            !boundaries.contains(&cut),
            "mid-frame exactly when the cut tore a frame"
        );
    }

    /// The wire frame, the file envelope and a WAL record all write the
    /// documented layout, for every frame kind: `encode_frame(kind, p)` is
    /// the envelope of `p` under the tag "UNET" + version + kind, and a
    /// WAL record is the same layout with no tag.
    #[test]
    fn wire_envelope_and_wal_share_one_frame_layout(
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        for (kind, raw) in [(FrameKind::Request, 1u16), (FrameKind::Response, 2)] {
            let mut tag = b"UNET".to_vec();
            tag.extend_from_slice(&1u16.to_le_bytes());
            tag.extend_from_slice(&raw.to_le_bytes());
            let wire = encode_frame(kind, &payload);
            prop_assert_eq!(&wire, &layout(&tag, &payload));
            let tag: [u8; 8] = tag.try_into().expect("an 8-byte tag");
            prop_assert_eq!(&envelope::encode(&tag, &payload), &wire);
        }
        prop_assert_eq!(
            envelope::encode(b"UCADTST1", &payload),
            layout(b"UCADTST1", &payload)
        );
        prop_assert_eq!(wal_record_bytes(&payload), layout(&[], &payload));
    }

    /// Typed requests survive the full message path — serialize, frame,
    /// unframe, deserialize — including arbitrary (unicode) field content.
    #[test]
    fn messages_round_trip_through_frames(
        session_id in any::<u64>(),
        sql in "[a-zA-Z0-9 _%;=<>'\"èλ✓]{0,64}",
        user in "[a-zA-Z0-9_]{0,16}",
        has_seq in any::<bool>(),
        seq_val in any::<u64>(),
    ) {
        let request = Request::Submit {
            seq: has_seq.then_some(seq_val),
            record: ucad_dbsim::LogRecord {
                timestamp: 7,
                user,
                client_ip: "10.0.0.1".into(),
                session_id,
                sql,
                table: "t".into(),
                op: ucad_dbsim::OpKind::Select,
                rows: 3,
            },
        };
        let wire = encode_message(FrameKind::Request, &request);
        let (kind, payload, consumed) = decode_frame(&wire)
            .expect("valid frame")
            .expect("complete frame");
        prop_assert_eq!(kind, FrameKind::Request);
        prop_assert_eq!(consumed, wire.len());
        let back: Request = decode_message(&payload).expect("parse request");
        prop_assert_eq!(back, request);
    }
}
