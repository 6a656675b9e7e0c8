//! Wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian length followed by that many
//! bytes of UTF-8 JSON. Requests carry a client-chosen `id` echoed in
//! the response, so a session can pipeline requests and match answers
//! out of order:
//!
//! ```json
//! {"id": 1, "cmd": "query", "video": "german", "text": "RETRIEVE HIGHLIGHTS",
//!  "deadline_ms": 2000, "fuel": 5000000}
//! {"id": 1, "ok": true, "result": {"kind": "segments", "segments": [...]}}
//! {"id": 2, "ok": false, "error": {"kind": "overloaded", "message": "..."}}
//! ```
//!
//! Commands: `query`, `stats` (registry snapshot), `videos`, `ping`,
//! and — only when the server runs with `debug` — `sleep`, a budgeted
//! busy-wait the overload and deadline tests use as a deterministic
//! slow query.

use std::io::{Read, Write};

use f1_cobra::Stamp;
use serde_json::{json, Value};

/// Frames larger than this are a protocol error: the answer to a §5.6
/// retrieval is small, so an over-long frame means a confused or
/// hostile peer, and reading it would let one connection balloon
/// server memory.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// A protocol-level failure while reading or writing frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes clean EOF).
    Io(std::io::Error),
    /// The peer announced a frame longer than [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The payload was not valid JSON.
    Json(serde_json::ParseError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Json(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: length prefix plus serialized JSON.
pub fn write_frame(w: &mut impl Write, v: &Value) -> Result<(), FrameError> {
    let payload = v.to_string();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(bytes.len()));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Serializes one frame (length prefix plus JSON) into an owned buffer,
/// for writers that queue bytes instead of owning a socket — the
/// reactor's per-connection write buffers.
pub fn encode_frame(v: &Value) -> Result<Vec<u8>, FrameError> {
    let payload = v.to_string();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(bytes.len()));
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(out)
}

/// Incremental frame decoder over a byte stream that arrives in
/// arbitrary chunks — the read-side state machine of the reactor's
/// nonblocking connections.
///
/// Feed bytes with [`extend`](Self::extend) as the socket produces
/// them, then drain complete frames with [`next_frame`](Self::next_frame):
///
/// * a frame split across reads stays buffered until its length prefix
///   is satisfied (`Ok(None)` = need more bytes);
/// * several frames coalesced into one read decode one by one;
/// * a length prefix beyond [`MAX_FRAME_LEN`] is a fatal
///   [`FrameError::Oversized`] — nothing is consumed and the
///   connection is beyond resync;
/// * a complete frame whose payload is not valid JSON is a
///   *recoverable* [`FrameError::Json`]: the broken frame is consumed
///   (the length prefix marks its exact end) and decoding resumes at
///   the next frame boundary.
///
/// The decoder never panics and never buffers more than one maximal
/// frame plus one read's worth of spillover.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaims consumed prefix space once it dominates the buffer, so
    /// a long-lived connection does not grow its buffer forever.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Decodes the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Value>, FrameError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([
            self.buf[self.pos],
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
        ]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = &self.buf[self.pos + 4..self.pos + 4 + len];
        let parsed = serde_json::from_slice(payload).map_err(FrameError::Json);
        // Consume the frame even when the payload was garbage: the
        // length prefix marks the boundary, so the stream resyncs.
        self.pos += 4 + len;
        self.compact();
        parsed.map(Some)
    }
}

/// Reads one frame. An `Err(FrameError::Io)` with kind `UnexpectedEof`
/// before any prefix byte means the peer closed cleanly.
pub fn read_frame(r: &mut impl Read) -> Result<Value, FrameError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    serde_json::from_slice(&payload).map_err(FrameError::Json)
}

/// Typed error categories of the wire protocol. The client surfaces
/// these verbatim, so overload and deadline handling are part of the
/// contract, not string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control rejected the request: the worker queue is full.
    Overloaded,
    /// The request's deadline passed before the query finished.
    Deadline,
    /// The request was cancelled (client disconnect, server shutdown
    /// mid-query).
    Cancelled,
    /// The request's fuel allowance ran out.
    BudgetExhausted,
    /// The server is shutting down and admits no new work.
    ShuttingDown,
    /// The retrieval text failed to parse.
    Parse,
    /// The named video is not in the catalog.
    UnknownVideo,
    /// The request frame was structurally invalid.
    BadRequest,
    /// The shard that owns the requested data is unreachable (worker
    /// death the router could not mask by re-dispatching), or a
    /// forwarded frame addressed a shard epoch the worker has moved
    /// past (it rebooted since the router last spoke to it).
    ShardUnavailable,
    /// A subscriber's push queue overflowed: the client drained result
    /// frames slower than the ingest side produced them, so the server
    /// disconnected it rather than buffer without bound.
    SlowConsumer,
    /// Anything else that went wrong server-side.
    Internal,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::BudgetExhausted => "budget_exhausted",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Parse => "parse",
            ErrorKind::UnknownVideo => "unknown_video",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::ShardUnavailable => "shard_unavailable",
            ErrorKind::SlowConsumer => "slow_consumer",
            ErrorKind::Internal => "internal",
        }
    }

    /// Inverse of [`as_str`](Self::as_str); unknown names decode as
    /// `Internal` so an old client still classifies a new server error.
    pub fn parse(s: &str) -> ErrorKind {
        match s {
            "overloaded" => ErrorKind::Overloaded,
            "deadline" => ErrorKind::Deadline,
            "cancelled" => ErrorKind::Cancelled,
            "budget_exhausted" => ErrorKind::BudgetExhausted,
            "shutting_down" => ErrorKind::ShuttingDown,
            "parse" => ErrorKind::Parse,
            "unknown_video" => ErrorKind::UnknownVideo,
            "bad_request" => ErrorKind::BadRequest,
            "shard_unavailable" => ErrorKind::ShardUnavailable,
            "slow_consumer" => ErrorKind::SlowConsumer,
            _ => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Builds a success response for request `id`.
pub fn ok_response(id: u64, result: Value) -> Value {
    json!({
        "id": (id as f64),
        "ok": true,
        "result": (result),
    })
}

/// Builds an error response for request `id`.
pub fn err_response(id: u64, kind: ErrorKind, message: impl Into<String>) -> Value {
    json!({
        "id": (id as f64),
        "ok": false,
        "error": {
            "kind": (kind.as_str()),
            "message": (message.into()),
        },
    })
}

/// The wire form of a [`Stamp`]: the `epoch` and `data_version` fields
/// the protocol has always carried, as one object.
pub fn stamp_to_json(stamp: Stamp) -> Value {
    json!({"epoch": (stamp.epoch as f64), "data_version": (stamp.seq as f64)})
}

/// Reads the `epoch`/`data_version` pair out of `object` — a `version`
/// answer, a `subscribed` answer, a stamp push, or the `stamp` a worker
/// attaches to a routed reply.
pub fn stamp_from_json(object: &Value) -> Option<Stamp> {
    Some(Stamp {
        epoch: object.get("epoch")?.as_u64()?,
        seq: object.get("data_version")?.as_u64()?,
    })
}

/// Maps a query-layer error onto the wire's typed categories.
pub fn classify(err: &f1_cobra::CobraError) -> ErrorKind {
    use f1_cobra::CobraError;
    use f1_monet::MonetError;
    match err {
        CobraError::Parse(_) => ErrorKind::Parse,
        CobraError::UnknownVideo(_) => ErrorKind::UnknownVideo,
        CobraError::Kernel(MonetError::Deadline) => ErrorKind::Deadline,
        CobraError::Kernel(MonetError::Interrupted) => ErrorKind::Cancelled,
        CobraError::Kernel(MonetError::BudgetExhausted { .. }) => ErrorKind::BudgetExhausted,
        _ => ErrorKind::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = json!({"id": 7, "cmd": "query", "text": "RETRIEVE HIGHLIGHTS"});
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn clean_eof_is_io() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn error_kinds_round_trip_their_wire_names() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::Deadline,
            ErrorKind::Cancelled,
            ErrorKind::BudgetExhausted,
            ErrorKind::ShuttingDown,
            ErrorKind::Parse,
            ErrorKind::UnknownVideo,
            ErrorKind::BadRequest,
            ErrorKind::ShardUnavailable,
            ErrorKind::SlowConsumer,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()), kind);
        }
        assert_eq!(ErrorKind::parse("future_kind"), ErrorKind::Internal);
    }
}
