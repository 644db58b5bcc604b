//! The UCAD wire protocol: compact length-prefixed binary frames.
//!
//! Every message travels as one self-delimiting frame: `ucad-wal`'s checked
//! frame (`ucad_wal::frame`, the layout of WAL records and file envelopes)
//! under an 8-byte network tag:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, the ASCII bytes "UNET"
//! 4       2     protocol version, u16 little-endian (currently 1)
//! 6       2     frame kind, u16 little-endian (1 = request, 2 = response)
//! 8       4     payload length, u32 little-endian
//! 12      4     CRC-32 (IEEE) of the payload, u32 little-endian
//! 16      n     payload: one JSON-encoded [`Request`] or [`Response`]
//! ```
//!
//! So `encode_frame(kind, p)` is byte for byte an envelope of `p` under
//! that tag, and [`decode_frame`] reads length and CRC through the same
//! splitter the WAL scan and the envelope decoder use. Decoding never
//! panics: every check failure — wrong magic, unknown version or kind, an
//! implausible length, a CRC mismatch — surfaces as
//! [`UcadError::Protocol`]. A frame that merely hasn't fully arrived yet is
//! `Ok(None)`, so a streaming reader ([`FrameBuffer`]) can distinguish
//! "wait for more bytes" from "this connection is speaking garbage".
//!
//! Damage recovery follows the WAL's rule adapted to a stream: framing
//! damage is unrecoverable (the byte stream has lost its self-delimiting
//! property — the daemon answers best-effort and closes the connection),
//! while a *valid* frame whose payload fails semantic checks (wrong kind,
//! unparseable JSON) is recoverable — the frame's length is still trusted,
//! so the daemon skips exactly that frame, answers a typed
//! [`Response::Error`], and the connection lives on.

use serde::{Deserialize, Serialize};
use ucad::{Alert, ServeStats, SubmitOutcome};
use ucad_dbsim::LogRecord;
use ucad_model::UcadError;
use ucad_wal::frame::{self, Split};

/// Frame preamble: the ASCII bytes `"UNET"`.
pub const MAGIC: [u8; 4] = *b"UNET";

/// Current protocol version.
pub const VERSION: u16 = 1;

/// Bytes of the frame tag: magic, version and kind.
const TAG_LEN: usize = 8;

/// Bytes of frame metadata before each payload.
pub const HEADER_LEN: usize = TAG_LEN + frame::HEADER_LEN;

/// Upper bound on a single payload. Anything larger in a length field is
/// treated as protocol damage, so a bit flip cannot make a reader attempt
/// a multi-gigabyte allocation.
pub const MAX_PAYLOAD_LEN: usize = 16 * 1024 * 1024;

/// Which direction a frame travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → daemon.
    Request,
    /// Daemon → client.
    Response,
}

impl FrameKind {
    fn to_u16(self) -> u16 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_u16(raw: u16) -> Result<Self, UcadError> {
        match raw {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            other => Err(UcadError::protocol(format!("unknown frame kind {other}"))),
        }
    }
}

/// One client → daemon message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one audit record. `seq` is the caller-assigned global arrival
    /// sequence (a router partitioning one stream across daemons sets it);
    /// `None` lets the daemon's engine assign its own — correct only when
    /// this daemon sees the entire stream.
    Submit {
        /// Caller-assigned global arrival sequence, if any.
        seq: Option<u64>,
        /// The audit record to score.
        record: LogRecord,
    },
    /// Close a session (Block mode scores the pending tail).
    Close {
        /// The session to close.
        session_id: u64,
    },
    /// DBA feedback: the alert on this session was a false alarm.
    FalseAlarm {
        /// The session whose alert was a false alarm.
        session_id: u64,
    },
    /// Barrier: ack once everything submitted so far is fully processed.
    Flush,
    /// Drain the seq-tagged alert stream raised since the last drain.
    Drain,
    /// Snapshot the serving counters.
    Stats,
    /// Prometheus text exposition of the daemon's registry.
    Metrics,
    /// The flight recorder's resident entries as JSON.
    Flight,
    /// Liveness / identity probe.
    Health,
    /// Admin: drain nothing, stop accepting connections, shut the engine
    /// down. The daemon answers [`Response::Bye`] and exits its serve loop.
    Shutdown,
}

/// Daemon identity and liveness, answered to [`Request::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Worker shards inside the daemon's engine.
    pub shards: usize,
    /// Model epoch currently serving.
    pub model_epoch: u64,
    /// Records accepted so far.
    pub records: u64,
    /// Alerts buffered awaiting a drain.
    pub pending_alerts: usize,
    /// Whether the engine runs with an on-disk WAL.
    pub durable: bool,
}

/// One daemon → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Outcome of a [`Request::Submit`] — overload (`Shed` / `Degraded`)
    /// travels the wire as data, with the daemon's accounting already
    /// updated, never as an error.
    Submitted(SubmitOutcome),
    /// Acknowledges a control request (`Close`, `FalseAlarm`, `Flush`).
    Done,
    /// The drained alerts, each tagged with the global arrival sequence of
    /// its triggering record — the tags a router needs to re-merge streams
    /// from several daemons into the single-process order.
    Alerts(Vec<(u64, Alert)>),
    /// Counter snapshot, answered to [`Request::Stats`].
    Stats(ServeStats),
    /// Text payload (metrics exposition, flight-recorder JSON).
    Text(String),
    /// Liveness / identity probe result.
    Health(HealthInfo),
    /// A request failed. `recoverable: true` means the connection survives
    /// (the offending frame was skipped cleanly); `false` means the byte
    /// stream is damaged and the daemon closes the connection after this.
    Error {
        /// Whether the connection remains usable.
        recoverable: bool,
        /// What went wrong.
        message: String,
    },
    /// Acknowledges [`Request::Shutdown`] with the engine's final counters.
    Bye(ServeStats),
}

/// Encodes one framed message.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD_LEN,
        "payload of {} bytes exceeds MAX_PAYLOAD_LEN",
        payload.len()
    );
    let [v0, v1] = VERSION.to_le_bytes();
    let [k0, k1] = kind.to_u16().to_le_bytes();
    let [m0, m1, m2, m3] = MAGIC;
    frame::encode(&[m0, m1, m2, m3, v0, v1, k0, k1], payload)
}

/// Decodes the first frame of `bytes`, without consuming them.
///
/// * `Ok(Some((kind, payload, consumed)))` — a complete, intact frame;
///   `consumed` is its total length including the header.
/// * `Ok(None)` — the bytes so far are a plausible frame prefix; read more.
/// * `Err` — the bytes cannot be (the start of) a valid frame: wrong
///   magic, unknown version or kind, implausible length, or CRC mismatch.
///
/// Decoding never panics, whatever the input.
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(FrameKind, Vec<u8>, usize)>, UcadError> {
    // Validate the tag on however much of it has arrived: garbage is
    // reported as soon as it is provable, not after a full header trickles
    // in.
    let magic_got = &bytes[..bytes.len().min(4)];
    if magic_got != &MAGIC[..magic_got.len()] {
        return Err(UcadError::protocol(format!(
            "bad magic {magic_got:02x?}, want {MAGIC:02x?}"
        )));
    }
    if bytes.len() >= 6 {
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(UcadError::protocol(format!(
                "unsupported protocol version {version}, want {VERSION}"
            )));
        }
    }
    if bytes.len() < TAG_LEN {
        return Ok(None);
    }
    let kind = FrameKind::from_u16(u16::from_le_bytes([bytes[6], bytes[7]]))?;
    match frame::split(&bytes[TAG_LEN..], MAX_PAYLOAD_LEN) {
        Split::Whole(payload) => Ok(Some((kind, payload.to_vec(), HEADER_LEN + payload.len()))),
        Split::Short(_) => Ok(None),
        Split::TooLong(len) => Err(UcadError::protocol(format!(
            "implausible payload length {len} (max {MAX_PAYLOAD_LEN})"
        ))),
        Split::BadCrc {
            stored, computed, ..
        } => Err(UcadError::protocol(format!(
            "payload CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ))),
    }
}

/// An incremental frame reader: feed it raw bytes as they arrive, pop
/// complete frames as they become available. The client and the daemon
/// both read through it: a socket read timeout can fire
/// *between* chunks of one frame, and the buffer keeps the partial frame
/// intact across the timeout so the caller can distinguish "idle at a
/// frame boundary" ([`FrameBuffer::is_mid_frame`] false: reap or keep
/// waiting) from "the peer stalled mid-frame" (true: the connection is
/// broken, close it).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when the buffer holds a partial frame — an EOF or persistent
    /// stall now means a torn frame, not a clean hangup.
    pub fn is_mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are needed.
    /// Damage verdicts are [`decode_frame`]'s, surfaced as early as they
    /// are provable.
    pub fn pop(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, UcadError> {
        match decode_frame(&self.buf)? {
            Some((kind, payload, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some((kind, payload)))
            }
            None => Ok(None),
        }
    }
}

/// True when an I/O error is a read/write deadline expiring — the two
/// kinds portably used for socket timeouts (`WouldBlock` on Unix,
/// `TimedOut` on Windows).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serializes a message into frame bytes.
pub fn encode_message<T: Serialize>(kind: FrameKind, message: &T) -> Vec<u8> {
    let payload = serde_json::to_string(message)
        .expect("protocol messages serialize infallibly")
        .into_bytes();
    encode_frame(kind, &payload)
}

/// Parses a frame payload into a message. A failure here is *recoverable*
/// protocol damage: the frame itself was intact (length and CRC passed),
/// so the stream's framing survives and only this message is rejected.
pub fn decode_message<T: Deserialize>(payload: &[u8]) -> Result<T, UcadError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| UcadError::protocol("frame payload is not UTF-8".to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| UcadError::protocol(format!("frame payload does not parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_request() {
        let req = Request::Submit {
            seq: Some(7),
            record: LogRecord {
                timestamp: 15,
                user: "alice".into(),
                client_ip: "10.0.0.1".into(),
                session_id: 42,
                sql: "SELECT * FROM t".into(),
                table: "t".into(),
                op: ucad_dbsim::OpKind::Select,
                rows: 0,
            },
        };
        let frame = encode_message(FrameKind::Request, &req);
        let (kind, payload, consumed) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(consumed, frame.len());
        let back: Request = decode_message(&payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        let frame = encode_message(FrameKind::Response, &Response::Done);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not damaged"
            );
        }
    }

    #[test]
    fn bad_magic_is_typed_damage() {
        let mut frame = encode_message(FrameKind::Request, &Request::Flush);
        frame[0] = b'X';
        let err = decode_frame(&frame).unwrap_err();
        assert!(matches!(err, UcadError::Protocol { .. }), "{err}");
        // Provable from the very first byte.
        let err = decode_frame(&frame[..1]).unwrap_err();
        assert!(matches!(err, UcadError::Protocol { .. }), "{err}");
    }

    #[test]
    fn unknown_kind_is_typed_damage_from_the_tag_alone() {
        let mut frame = encode_message(FrameKind::Request, &Request::Flush);
        frame[6] = 9;
        let err = decode_frame(&frame[..TAG_LEN]).unwrap_err();
        assert!(err.to_string().contains("unknown frame kind"), "{err}");
    }

    #[test]
    fn oversized_length_is_typed_damage() {
        let mut frame = encode_message(FrameKind::Request, &Request::Flush);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&frame).unwrap_err();
        assert!(err.to_string().contains("implausible payload length"));
    }

    #[test]
    fn payload_bit_flip_fails_the_crc() {
        let mut frame = encode_message(FrameKind::Request, &Request::Drain);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let err = decode_frame(&frame).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn frame_buffer_round_trips_and_ends_on_a_frame_boundary() {
        let mut fb = FrameBuffer::new();
        fb.push(&encode_frame(FrameKind::Request, b"\"Flush\""));
        fb.push(&encode_frame(FrameKind::Request, b"\"Drain\""));
        let (_, p1) = fb.pop().unwrap().unwrap();
        let (_, p2) = fb.pop().unwrap().unwrap();
        assert_eq!(p1, b"\"Flush\"");
        assert_eq!(p2, b"\"Drain\"");
        assert_eq!(fb.pop().unwrap(), None);
        assert!(!fb.is_mid_frame(), "an EOF here is a clean hangup");
    }

    #[test]
    fn frame_buffer_reassembles_split_and_pipelined_frames() {
        let a = encode_message(FrameKind::Request, &Request::Flush);
        let b = encode_message(FrameKind::Request, &Request::Drain);
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        let mut fb = FrameBuffer::new();
        assert!(!fb.is_mid_frame());
        // Trickle the two frames in 5-byte chunks: pops must appear exactly
        // when each frame completes, and mid-frame state must track.
        let mut popped = Vec::new();
        for chunk in wire.chunks(5) {
            fb.push(chunk);
            while let Some((kind, payload)) = fb.pop().expect("intact stream") {
                assert_eq!(kind, FrameKind::Request);
                popped.push(payload);
            }
        }
        assert_eq!(popped.len(), 2);
        assert!(!fb.is_mid_frame(), "both frames fully consumed");
        fb.push(&a[..HEADER_LEN + 2]);
        assert_eq!(fb.pop().expect("prefix is plausible"), None);
        assert!(fb.is_mid_frame(), "a partial frame is buffered");
    }

    #[test]
    fn frame_buffer_reports_damage_as_early_as_provable() {
        let mut fb = FrameBuffer::new();
        fb.push(b"XUNK");
        assert!(fb.pop().is_err(), "bad magic is provable from byte 0");
    }

    #[test]
    fn torn_stream_is_left_mid_frame() {
        let frame = encode_frame(FrameKind::Request, b"\"Flush\"");
        let mut fb = FrameBuffer::new();
        fb.push(&frame[..frame.len() - 3]);
        assert_eq!(fb.pop().unwrap(), None);
        assert!(fb.is_mid_frame(), "an EOF here is a torn frame");
    }
}
