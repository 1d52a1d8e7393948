//! The framed wire format: a 4-byte length prefix, a 10-byte envelope
//! (version, frame kind, request id) and a kind-specific JSON payload.
//!
//! Every frame on the wire looks like this (all integers big-endian):
//!
//! ```text
//! offset  size      field
//! 0       4         block length N = 10 + payload length
//! 4       1         protocol version (0x01)
//! 5       1         frame kind
//! 6       8         request id (echoed verbatim in the response)
//! 14      N - 10    payload (UTF-8 JSON; empty for Ping/Pong/Metrics)
//! ```
//!
//! The exact byte layout — including a hex-annotated example frame — is
//! specified in `docs/PROTOCOL.md`; the `ping_frame_bytes_are_pinned` test in
//! this module keeps the document and the code from drifting apart.

use std::fmt;
use std::io::{self, Read};

/// The wire protocol version this crate speaks (the envelope's first byte).
pub const PROTOCOL_VERSION: u8 = 1;

/// Envelope bytes counted by the length prefix before the payload starts:
/// version (1) + kind (1) + request id (8).
pub const ENVELOPE_LEN: u32 = 10;

/// Default upper bound on the length-prefix value a peer will accept
/// (1 MiB). A frame declaring more is rejected *before* any payload byte is
/// read — see [`FrameError::TooLarge`].
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// The kind byte of a frame. Client-initiated kinds live below `0x80`,
/// server responses at `0x80 |` the request kind, and `0x7F` is the error
/// response any request kind can receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: one `Request` (JSON payload).
    Query,
    /// Client → server: a `Vec<GraphDelta>` batch for the transactor.
    Update,
    /// Client → server: counters request (empty payload).
    Metrics,
    /// Client → server: liveness probe (empty payload).
    Ping,
    /// Server → client: the `Response` to a `Query` (JSON payload).
    QueryOk,
    /// Server → client: the `UpdateReport` of an applied `Update`.
    UpdateOk,
    /// Server → client: a `MetricsSnapshot` (JSON payload).
    MetricsOk,
    /// Server → client: answer to `Ping` (empty payload).
    Pong,
    /// Server → client: a [`WireError`] payload; sent for malformed frames,
    /// invalid requests/updates and admission rejections.
    Error,
}

impl FrameKind {
    /// The kind's wire byte.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Query => 0x01,
            FrameKind::Update => 0x02,
            FrameKind::Metrics => 0x03,
            FrameKind::Ping => 0x04,
            FrameKind::QueryOk => 0x81,
            FrameKind::UpdateOk => 0x82,
            FrameKind::MetricsOk => 0x83,
            FrameKind::Pong => 0x84,
            FrameKind::Error => 0x7F,
        }
    }

    /// Parses a wire byte back into a kind.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0x01 => FrameKind::Query,
            0x02 => FrameKind::Update,
            0x03 => FrameKind::Metrics,
            0x04 => FrameKind::Ping,
            0x81 => FrameKind::QueryOk,
            0x82 => FrameKind::UpdateOk,
            0x83 => FrameKind::MetricsOk,
            0x84 => FrameKind::Pong,
            0x7F => FrameKind::Error,
            _ => return None,
        })
    }
}

/// One decoded frame: the envelope fields plus the raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Caller-chosen correlation id, echoed verbatim in responses.
    pub request_id: u64,
    /// Kind-specific JSON payload (may be empty).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a payload.
    pub fn new(kind: FrameKind, request_id: u64, payload: Vec<u8>) -> Self {
        Self { kind, request_id, payload }
    }

    /// A payload-less frame (`Ping`, `Pong`, `Metrics`).
    pub fn control(kind: FrameKind, request_id: u64) -> Self {
        Self { kind, request_id, payload: Vec::new() }
    }
}

/// The structured payload of an [`FrameKind::Error`] frame.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// Machine-readable error class — one of the `codes` constants.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// For transient rejections (`backpressure`, `shutting-down`,
    /// `deadline-exceeded`): how long the client should wait before
    /// retrying, in milliseconds. `None`/`null` on terminal errors.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Builds an error payload from a code constant and a message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        Self { code: code.to_string(), message: message.into(), retry_after_ms: None }
    }

    /// Attaches a machine-readable retry hint.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Serialises a [`WireError`] (retry hint included) into an error-frame
/// payload. Serialisation of this small struct cannot fail in practice; if
/// it ever does, a hand-assembled payload carrying the same code is sent
/// instead of panicking inside a server thread.
fn wire_error_payload(error: &WireError) -> Vec<u8> {
    let code = &error.code;
    serde_json::to_string(error).map(String::into_bytes).unwrap_or_else(|_| {
        format!(
            "{{\"code\":\"{code}\",\"message\":\"error serialisation failed\",\
             \"retry_after_ms\":null}}"
        )
        .into_bytes()
    })
}

/// An [`FrameKind::Error`] frame carrying `code` and `message`.
pub fn error_frame(request_id: u64, code: &str, message: impl Into<String>) -> Frame {
    Frame::new(FrameKind::Error, request_id, wire_error_payload(&WireError::new(code, message)))
}

/// An [`FrameKind::Error`] frame with a `retry_after_ms` hint — the shape of
/// every backpressure-class rejection.
pub(crate) fn retry_error_frame(
    request_id: u64,
    code: &str,
    message: impl Into<String>,
    retry_after_ms: u64,
) -> Frame {
    let error = WireError::new(code, message).with_retry_after(retry_after_ms);
    Frame::new(FrameKind::Error, request_id, wire_error_payload(&error))
}

/// The `code` values an error frame may carry (see `docs/PROTOCOL.md`).
pub mod codes {
    /// The frame's JSON payload did not decode into the expected shape.
    /// Framing is intact: the connection survives.
    pub const MALFORMED_PAYLOAD: &str = "malformed-payload";
    /// The length prefix exceeded the server's frame-size bound. The payload
    /// was never read, so framing is lost: the server closes the connection
    /// after sending this error.
    pub const OVERSIZE_FRAME: &str = "oversize-frame";
    /// The length prefix was smaller than the 10-byte envelope. Framing is
    /// untrustworthy: the server closes the connection.
    pub const MALFORMED_FRAME: &str = "malformed-frame";
    /// The envelope's version byte is not one this server speaks; the server
    /// closes the connection after sending this error.
    pub const UNSUPPORTED_VERSION: &str = "unsupported-version";
    /// The envelope's kind byte is not a known request kind. The payload was
    /// consumed, so the connection survives.
    pub const UNKNOWN_KIND: &str = "unknown-kind";
    /// The `Request` failed validation (`QueryError`); connection survives.
    pub const INVALID_QUERY: &str = "invalid-query";
    /// The delta batch failed validation (`GraphError`); nothing was applied.
    pub const INVALID_UPDATE: &str = "invalid-update";
    /// On a durable server, the delta log could not persist the batch
    /// (append or fsync failed). Nothing was applied or acknowledged; the
    /// batch may be retried once the storage recovers.
    pub const DURABILITY: &str = "durability-error";
    /// Admission control rejected the query: the per-connection queue or the
    /// global in-flight bound is full. Back off and retry.
    pub const BACKPRESSURE: &str = "backpressure";
    /// The server is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request's `deadline_ms` budget expired before the server got to
    /// it; the work was shed without touching the engine. Nothing was
    /// applied — an update may be retried with the same token.
    pub const DEADLINE_EXCEEDED: &str = "deadline-exceeded";

    /// Whether `code` names a transient condition a client may retry
    /// automatically (honouring the error's `retry_after_ms` hint, if any).
    /// Every other code is terminal for the request that drew it.
    pub fn is_retryable(code: &str) -> bool {
        matches!(code, BACKPRESSURE | SHUTTING_DOWN | DEADLINE_EXCEEDED)
    }
}

/// The object form of an `Update` payload: the idempotency token
/// (`client_id` + `write_seq`), an optional deadline budget, and the delta
/// batch. The bare-array form (`Vec<GraphDelta>` directly) remains accepted
/// for tokenless updates — the two shapes are self-describing, exactly as in
/// the delta log's record payloads.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UpdateEnvelope {
    /// The submitting client's stable identity (half of the token).
    pub client_id: u64,
    /// The client's sequence number for this logical write (the other half).
    /// Retries of one logical write reuse it; distinct writes increase it.
    pub write_seq: u64,
    /// Milliseconds the client is willing to wait; queued work whose budget
    /// expired is shed with `deadline-exceeded` instead of applied.
    pub deadline_ms: Option<u64>,
    /// The delta batch to apply.
    pub deltas: Vec<acq_graph::GraphDelta>,
}

/// The object form of a `Query` payload: the request plus an optional
/// deadline budget. The bare `Request` object remains accepted; the two
/// shapes are told apart by their required fields.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryEnvelope {
    /// The query to execute.
    pub request: acq_core::Request,
    /// Milliseconds the client is willing to wait; queued queries whose
    /// budget expired are shed with `deadline-exceeded` instead of executed.
    pub deadline_ms: Option<u64>,
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The length prefix declared more than the configured bound. The payload
    /// was **not** consumed — framing is lost and the connection must close.
    TooLarge {
        /// The declared block length.
        declared: u32,
        /// The configured bound it exceeded.
        max: u32,
    },
    /// The length prefix declared less than the 10-byte envelope — framing is
    /// untrustworthy and the connection must close.
    TooShort {
        /// The declared block length.
        declared: u32,
    },
    /// The envelope's version byte is unknown. The block was consumed, but
    /// its semantics are unknowable — the connection should close.
    UnsupportedVersion(u8),
    /// The envelope's kind byte is unknown. The block was fully consumed, so
    /// the connection can keep going; `request_id` lets the receiver answer.
    UnknownKind {
        /// The unknown kind byte.
        code: u8,
        /// The frame's request id (usable in an error reply).
        request_id: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame declares {declared} bytes, over the {max}-byte bound")
            }
            FrameError::TooShort { declared } => {
                write!(f, "frame declares {declared} bytes, below the {ENVELOPE_LEN}-byte envelope")
            }
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind { code, .. } => write!(f, "unknown frame kind {code:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Whether the connection's framing is still trustworthy after this error —
/// i.e. the offending block was consumed whole and the stream position is at
/// a frame boundary.
impl FrameError {
    /// `true` when the receiver may keep reading frames from the connection.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, FrameError::UnknownKind { .. })
    }
}

/// Appends a frame's wire bytes (length prefix + envelope + payload) to
/// `out`. This is the one encoder: a sender that has several frames to put
/// on the wire appends them all to one buffer and writes it once, so a
/// pipelined burst (or the answers to one) leaves as one segment instead of
/// one small write per frame.
pub fn encode_into(out: &mut Vec<u8>, frame: &Frame) {
    let block_len = ENVELOPE_LEN + frame.payload.len() as u32;
    out.reserve(4 + block_len as usize);
    out.extend_from_slice(&block_len.to_be_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(frame.kind.code());
    out.extend_from_slice(&frame.request_id.to_be_bytes());
    out.extend_from_slice(&frame.payload);
}

/// A single frame's wire bytes in a buffer of their own.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, frame);
    out
}

/// Whether `buffered` — bytes already received but not yet decoded — starts
/// with a whole block, so that the next [`read_frame`] returns (a frame, or
/// its verdict on the block) without waiting for the peer.
pub(crate) fn starts_with_whole_frame(buffered: &[u8]) -> bool {
    match buffered.first_chunk::<4>() {
        Some(prefix) => (buffered.len() - 4) as u64 >= u64::from(u32::from_be_bytes(*prefix)),
        None => false,
    }
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames); EOF anywhere *inside* a frame is
/// [`FrameError::Truncated`]. `max_len` bounds the accepted length prefix.
pub fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> Result<Option<Frame>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(reader, &mut len_buf)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
        ReadOutcome::Partial => return Err(FrameError::Truncated),
    }
    let declared = u32::from_be_bytes(len_buf);
    if declared < ENVELOPE_LEN {
        return Err(FrameError::TooShort { declared });
    }
    if declared > max_len {
        return Err(FrameError::TooLarge { declared, max: max_len });
    }
    // The envelope goes to the stack and the payload straight into the
    // allocation the frame keeps. The whole block is consumed before the
    // envelope is judged, so a recoverable error leaves the stream at a
    // frame boundary.
    let mut envelope = [0u8; ENVELOPE_LEN as usize];
    let mut payload = vec![0u8; (declared - ENVELOPE_LEN) as usize];
    for part in [&mut envelope[..], &mut payload[..]] {
        reader.read_exact(part).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                FrameError::Truncated
            } else {
                FrameError::Io(e)
            }
        })?;
    }
    let [version, kind_code, id @ ..] = envelope;
    let request_id = u64::from_be_bytes(id);
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let Some(kind) = FrameKind::from_code(kind_code) else {
        return Err(FrameError::UnknownKind { code: kind_code, request_id });
    };
    Ok(Some(Frame { kind, request_id, payload }))
}

enum ReadOutcome {
    Filled,
    CleanEof,
    Partial,
}

/// `read_exact`, but distinguishing "EOF before the first byte" (a clean
/// close between frames) from "EOF after some bytes" (a truncated frame).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => return Ok(ReadOutcome::Partial),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode(frame);
        let mut cursor = bytes.as_slice();
        read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().expect("one frame")
    }

    #[test]
    fn ping_frame_bytes_are_pinned() {
        // This exact byte sequence is the hex-annotated example frame in
        // docs/PROTOCOL.md — keep the two in sync.
        let bytes = encode(&Frame::control(FrameKind::Ping, 1));
        assert_eq!(
            bytes,
            [
                0x00, 0x00, 0x00, 0x0A, // block length 10
                0x01, // version 1
                0x04, // kind: Ping
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // request id 1
            ]
        );
    }

    #[test]
    fn error_payload_json_is_pinned() {
        // These exact JSON bodies appear in docs/PROTOCOL.md — keep in sync.
        let frame =
            retry_error_frame(2, codes::BACKPRESSURE, "per-connection queue full; retry", 50);
        assert_eq!(frame.kind, FrameKind::Error);
        assert_eq!(
            std::str::from_utf8(&frame.payload).unwrap(),
            r#"{"code":"backpressure","message":"per-connection queue full; retry","retry_after_ms":50}"#
        );
        // A terminal error carries an explicit null hint.
        assert_eq!(
            std::str::from_utf8(
                &error_frame(0, codes::INVALID_QUERY, "vertex 99 does not exist").payload
            )
            .unwrap(),
            r#"{"code":"invalid-query","message":"vertex 99 does not exist","retry_after_ms":null}"#
        );
    }

    #[test]
    fn retryable_codes_are_exactly_the_transient_ones() {
        for code in [codes::BACKPRESSURE, codes::SHUTTING_DOWN, codes::DEADLINE_EXCEEDED] {
            assert!(codes::is_retryable(code), "{code} must be retryable");
        }
        for code in [
            codes::MALFORMED_PAYLOAD,
            codes::OVERSIZE_FRAME,
            codes::MALFORMED_FRAME,
            codes::UNSUPPORTED_VERSION,
            codes::UNKNOWN_KIND,
            codes::INVALID_QUERY,
            codes::INVALID_UPDATE,
            codes::DURABILITY,
        ] {
            assert!(!codes::is_retryable(code), "{code} must be terminal");
        }
    }

    #[test]
    fn update_envelope_payload_is_pinned_and_unambiguous() {
        use acq_graph::{GraphDelta, VertexId};
        let envelope = UpdateEnvelope {
            client_id: 7,
            write_seq: 1,
            deadline_ms: Some(250),
            deltas: vec![GraphDelta::insert_edge(VertexId(0), VertexId(1))],
        };
        let json = serde_json::to_string(&envelope).unwrap();
        // This exact body appears in docs/PROTOCOL.md — keep in sync.
        assert_eq!(
            json,
            r#"{"client_id":7,"write_seq":1,"deadline_ms":250,"deltas":[{"InsertEdge":{"u":0,"v":1}}]}"#
        );
        let back: UpdateEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
        // The two payload shapes never shadow each other: a bare batch is
        // not an envelope, and an envelope is not a bare batch.
        assert!(serde_json::from_str::<UpdateEnvelope>("[]").is_err());
        assert!(serde_json::from_str::<Vec<GraphDelta>>(&json).is_err());
    }

    #[test]
    fn query_envelope_roundtrips_and_stays_distinct_from_a_bare_request() {
        use acq_core::Request;
        use acq_graph::VertexId;
        let envelope =
            QueryEnvelope { request: Request::community(VertexId(3)).k(2), deadline_ms: None };
        let json = serde_json::to_string(&envelope).unwrap();
        let back: QueryEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
        // A bare Request misses `request`; an envelope misses `vertex`.
        let bare = serde_json::to_string(&envelope.request).unwrap();
        assert!(serde_json::from_str::<QueryEnvelope>(&bare).is_err());
        assert!(serde_json::from_str::<Request>(&json).is_err());
    }

    #[test]
    fn frames_roundtrip() {
        for frame in [
            Frame::control(FrameKind::Ping, 0),
            Frame::control(FrameKind::Metrics, u64::MAX),
            Frame::new(FrameKind::Query, 7, br#"{"vertex":0}"#.to_vec()),
            Frame::new(FrameKind::Error, 9, b"{}".to_vec()),
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut bytes = encode(&Frame::control(FrameKind::Ping, 1));
        encode_into(&mut bytes, &Frame::new(FrameKind::Query, 2, b"xy".to_vec()));
        let mut cursor = bytes.as_slice();
        let first = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        let second = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::Ping);
        assert_eq!(second.request_id, 2);
        assert_eq!(second.payload, b"xy");
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn a_whole_buffered_frame_is_told_from_a_partial_one() {
        let mut bytes = encode(&Frame::new(FrameKind::Query, 1, b"abc".to_vec()));
        let whole = bytes.len();
        encode_into(&mut bytes, &Frame::control(FrameKind::Ping, 2));
        for cut in 0..whole {
            assert!(!starts_with_whole_frame(&bytes[..cut]), "{cut} of {whole} bytes");
        }
        // Whole with nothing behind it, and whole with part of the next.
        for cut in whole..bytes.len() {
            assert!(starts_with_whole_frame(&bytes[..cut]));
        }
        assert!(starts_with_whole_frame(&bytes[whole..]), "the ping behind it");
    }

    #[test]
    fn oversize_declaration_is_rejected_before_reading_the_payload() {
        let mut bytes = encode(&Frame::new(FrameKind::Query, 1, vec![0u8; 100]));
        let err = read_frame(&mut bytes.as_slice(), 50).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { declared: 110, max: 50 }));
        assert!(!err.is_recoverable());
        // Below the envelope size is malformed, not just small.
        bytes[..4].copy_from_slice(&5u32.to_be_bytes());
        let err = read_frame(&mut bytes.as_slice(), 50).unwrap_err();
        assert!(matches!(err, FrameError::TooShort { declared: 5 }));
    }

    #[test]
    fn truncation_and_unknown_envelope_fields_are_detected() {
        let bytes = encode(&Frame::new(FrameKind::Query, 3, b"abcdef".to_vec()));
        let cut = &bytes[..bytes.len() - 2];
        assert!(matches!(read_frame(&mut &cut[..], 1024).unwrap_err(), FrameError::Truncated));
        let cut = &bytes[..2];
        assert!(matches!(read_frame(&mut &cut[..], 1024).unwrap_err(), FrameError::Truncated));

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice(), 1024).unwrap_err(),
            FrameError::UnsupportedVersion(9)
        ));

        let mut bad_kind = bytes;
        bad_kind[5] = 0x55;
        let err = read_frame(&mut bad_kind.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, FrameError::UnknownKind { code: 0x55, request_id: 3 }));
        assert!(err.is_recoverable(), "the block was consumed whole");
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            FrameKind::Query,
            FrameKind::Update,
            FrameKind::Metrics,
            FrameKind::Ping,
            FrameKind::QueryOk,
            FrameKind::UpdateOk,
            FrameKind::MetricsOk,
            FrameKind::Pong,
            FrameKind::Error,
        ] {
            assert_eq!(FrameKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FrameKind::from_code(0x00), None);
    }
}
