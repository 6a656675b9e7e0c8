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
//! `version` (epoch, data version, videos), `checkpoint`, `subscribe` /
//! `unsubscribe` (standing queries, [`crate::stream`]), and — only when
//! the server runs with `debug` — `sleep`, a budgeted busy-wait the
//! overload and deadline tests use as a deterministic slow query, and
//! `write_event`, a one-record event append.
//!
//! **Routed frames.** A router stamps each frame it forwards with a
//! `shard` object: `req`, the client's request id; `epoch`, the
//! incarnation it handshook with (a worker of another refuses the frame
//! with `shard_unavailable`); and, while it mirrors the worker's guards,
//! `since`, the seq its mirror covers. A routed query's reply and a
//! routed `write_event`'s ack carry, beside `result`, the catalog's
//! `stamp` and, when `since` came, `touched`: what the commits after
//! `since` touched, up to that stamp ([`Marked`]), a whole layer with
//! the kinds it then has unnamed rows of. A direct client's replies
//! carry neither. The router's feed is a bare `"*"` watcher; the
//! `subscribed` answer that starts it also names, per video, the kinds
//! with unnamed rows at its stamp (`unnamed`, [`unnamed_to_json`]).
//!
//! **Frames are bytes, built once.** Whoever produces a frame encodes it
//! ([`frame`] and what is built on it: [`encode_frame`] for a [`Value`],
//! [`ok_frame`] around a `result` body written straight into it), and
//! from there it is only copied: onto a reactor's queue, into a socket
//! buffer, through a router. The receiving side reads a payload with
//! [`read_envelope`], which parses the envelope and leaves `result` to
//! its caller — decoded straight into the structure it describes, taken
//! as a tree, or validated and kept as the raw text a router forwards
//! and caches (`f1_cobra::json::Part`). Nothing is accepted on any of
//! these paths that [`serde_json::from_slice`] would refuse.
//!
//! **Byte identity.** A reply's bytes do not depend on the path that
//! built it: a `result` body written from the answer
//! (`f1_cobra::json::write_query_output`, or `write_answered` from the
//! result cache's entries) is what its tree would render,
//! and the envelope's members are in the sorted order a tree renders
//! them, so a cached, coalesced, forwarded or spliced reply is the reply
//! a single server sends.
//!
//! **The 4 MiB cap** ([`MAX_FRAME_LEN`]) is checked on both ends: a
//! decoder refuses a longer prefix before buffering toward it, and a
//! producer whose frame came out longer sends the typed `internal` error
//! under the request's own id instead ([`or_oversize`]) — it is the one
//! that knows the id, so the request never dangles.

use std::io::{Read, Write};

use f1_cobra::guard::{Touched, Unnamed};
use f1_cobra::Stamp;
use serde_json::{json, ParseError, Reader, Value, Writer};

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

/// Builds one frame around the payload `fill` writes, in a buffer sized
/// for `len` payload bytes (an estimate: a longer payload still fits):
/// the length prefix is patched in once the length is known, and a
/// payload over [`MAX_FRAME_LEN`] is refused.
pub fn frame(len: usize, fill: impl FnOnce(&mut Writer<'_>)) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(4 + len.min(MAX_FRAME_LEN));
    out.extend_from_slice(&[0; 4]);
    fill(&mut Writer::new(&mut out));
    let len = out.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(out)
}

/// Serializes one frame (length prefix plus JSON) into an owned buffer,
/// for writers that queue bytes instead of owning a socket.
pub fn encode_frame(v: &Value) -> Result<Vec<u8>, FrameError> {
    frame(0, |w| w.value(v))
}

/// Writes one frame: length prefix plus serialized JSON, in one write.
pub fn write_frame(w: &mut impl Write, v: &Value) -> Result<(), FrameError> {
    w.write_all(&encode_frame(v)?)?;
    w.flush()?;
    Ok(())
}

/// The success frame for request `id` around the `result` that `body`
/// writes straight into it:
/// `{"id":…,"ok":true,"result":BODY[,"stamp":…[,"touched":…]]}` — byte
/// for byte what [`ok_response`] (and a [`Marked`] stamp and report
/// inserted into it) would encode to. `body_len` estimates the body's
/// bytes, so that the frame is allocated once.
pub fn ok_frame(
    id: u64,
    marked: Option<&Marked>,
    body_len: usize,
    body: impl FnOnce(&mut Writer<'_>),
) -> Result<Vec<u8>, FrameError> {
    // The envelope around the body, a stamp's included.
    const ENVELOPE: usize = 128;
    frame(body_len + ENVELOPE, |w| {
        w.object(|w| {
            w.key("id");
            w.u64(id);
            w.key("ok");
            w.bool(true);
            w.key("result");
            body(w);
            if let Some(marked) = marked {
                w.key("stamp");
                w.object(|w| {
                    w.key("data_version");
                    w.u64(marked.stamp.seq);
                    w.key("epoch");
                    w.u64(marked.stamp.epoch);
                });
                if let Some(touched) = &marked.touched {
                    w.key("touched");
                    w.value(&touched_to_json(touched));
                }
            }
        })
    })
}

/// What the producer of request `id`'s reply sends: the frame it built,
/// or — when that came out over the cap and cannot be shipped — the
/// typed `internal` error under the same id, so the request does not
/// dangle.
pub fn or_oversize(id: u64, built: Result<Vec<u8>, FrameError>) -> Vec<u8> {
    built
        .or_else(|_| {
            encode_frame(&err_response(
                id,
                ErrorKind::Internal,
                "response exceeded the frame size cap",
            ))
        })
        .unwrap_or_default()
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
    /// Received bytes up to `filled`; the initialised tail beyond it is
    /// kept for the next read to land in, so a read zero-fills nothing
    /// it did not grow.
    buf: Vec<u8>,
    /// End of the received bytes.
    filled: usize,
    /// Start of the bytes not yet decoded.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        let end = self.room(bytes.len());
        self.buf[self.filled..end].copy_from_slice(bytes);
        self.filled = end;
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.filled - self.pos
    }

    /// Makes `n` initialised bytes of room after the received ones and
    /// returns where they end. Consumed prefix space is reclaimed first,
    /// once it dominates the buffer, so a long-lived connection does not
    /// grow its buffer forever.
    fn room(&mut self, n: usize) -> usize {
        if self.pos == self.filled {
            self.filled = 0;
            self.pos = 0;
        } else if self.pos >= 4096 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
        let end = self.filled + n;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        end
    }

    /// Reads once from `r` onto the end of the buffer and returns what
    /// `read` returned. A blocking peer's receive loop: whatever part of
    /// a frame has arrived stays buffered across a timed-out read, so
    /// the next call resumes where this one stopped.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        const READ_CHUNK: usize = 16 * 1024;
        let end = self.room(READ_CHUNK);
        let got = r.read(&mut self.buf[self.filled..end])?;
        self.filled += got;
        Ok(got)
    }

    /// Payload length of the frame at the head of the buffer, once it
    /// has arrived whole.
    fn head(&self) -> Result<Option<usize>, FrameError> {
        let Some(prefix) = self.buf[self.pos..self.filled].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        Ok((self.buffered() >= 4 + len).then_some(len))
    }

    /// Whether a complete frame is buffered (or an oversized one
    /// announced).
    pub fn frame_ready(&self) -> Result<bool, FrameError> {
        Ok(self.head()?.is_some())
    }

    /// The payload of the next complete frame, if one is buffered —
    /// consumed, and not yet looked at: the caller decides how to read
    /// it.
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(len) = self.head()? else {
            return Ok(None);
        };
        // The space is reclaimed by the next call that needs it, once
        // the borrow of the payload has ended.
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Decodes the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Value>, FrameError> {
        // The frame is consumed even when the payload is garbage: the
        // length prefix marks the boundary, so the stream resyncs.
        match self.next_payload()? {
            Some(payload) => Ok(Some(
                serde_json::from_slice(payload).map_err(FrameError::Json)?,
            )),
            None => Ok(None),
        }
    }
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

/// What marks a reply to a routed frame (one carrying the router's
/// `shard` object), beside its `result`: the catalog's stamp and, when
/// the frame's `shard` named a `since` seq, what the commits after it
/// touched, up to that stamp. The router keeps its mirror of the shard's
/// guards from these ([`f1_cobra::guard::Mirror`]); direct clients never
/// see either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marked {
    /// The catalog's stamp.
    pub stamp: Stamp,
    /// What commits after the frame's `since` touched, up to `stamp`.
    pub touched: Option<Touched>,
}

/// The wire form of a [`Touched`] report: `{"since":…}`, plus the
/// `"layers"` and `"pairs"` (`[video, kind, driver]`) it names, each
/// only when there is one. A layer is `[video, kind…]`, the kinds it has
/// unnamed rows of, or the bare video name where those are unknown.
pub fn touched_to_json(touched: &Touched) -> Value {
    let mut report = json!({"since": (touched.since as f64)});
    if let Value::Object(map) = &mut report {
        if !touched.layers.is_empty() {
            let layers = touched.layers.iter().map(|(video, unnamed)| match unnamed {
                Some(unnamed) => kinds_to_json(video, unnamed),
                None => json!(video.as_str()),
            });
            map.insert("layers".into(), Value::Array(layers.collect()));
        }
        if !touched.pairs.is_empty() {
            let pairs = touched
                .pairs
                .iter()
                .map(|(v, k, d)| json!([(v.as_str()), (k.as_str()), (d.as_str())]));
            map.insert("pairs".into(), Value::Array(pairs.collect()));
        }
    }
    report
}

/// Reads a [`touched_to_json`] report; anything else is no report, which
/// leaves the router's mirror where it was.
pub fn touched_from_json(report: &Value) -> Option<Touched> {
    // A list member; an absent one is empty.
    let list = |name: &str| match report.get(name) {
        None => Some(&[][..]),
        Some(list) => list.as_array().map(Vec::as_slice),
    };
    let pair = |v: &Value| match v.as_array()?.as_slice() {
        [v, k, d] => Some((text(v)?, text(k)?, text(d)?)),
        _ => None,
    };
    let layer = |v: &Value| match text(v) {
        Some(video) => Some((video, None)),
        None => kinds_from_json(v).map(|(video, unnamed)| (video, Some(unnamed))),
    };
    Some(Touched {
        since: report.get("since")?.as_u64()?,
        layers: list("layers")?.iter().map(layer).collect::<Option<_>>()?,
        pairs: list("pairs")?.iter().map(pair).collect::<Option<_>>()?,
    })
}

/// The `unnamed` member of a feed handshake: `[[video, kind…], …]`, per
/// video whose kinds the shard knows, the kinds with unnamed rows.
pub fn unnamed_to_json(unnamed: &[(String, Unnamed)]) -> Value {
    let videos = unnamed
        .iter()
        .map(|(video, kinds)| kinds_to_json(video, kinds));
    Value::Array(videos.collect())
}

/// Reads an [`unnamed_to_json`] list; anything else is `None`, which
/// leaves every video's kinds unknown.
pub fn unnamed_from_json(unnamed: &Value) -> Option<Vec<(String, Unnamed)>> {
    unnamed.as_array()?.iter().map(kinds_from_json).collect()
}

fn text(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

/// `[video, kind…]`.
fn kinds_to_json(video: &str, unnamed: &Unnamed) -> Value {
    let members = std::iter::once(video).chain(unnamed.iter().map(String::as_str));
    Value::Array(members.map(|s| json!(s)).collect())
}

fn kinds_from_json(v: &Value) -> Option<(String, Unnamed)> {
    let (video, kinds) = v.as_array()?.split_first()?;
    Some((text(video)?, kinds.iter().map(text).collect::<Option<_>>()?))
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

/// The envelope of one response frame. `T` is whatever the reader made
/// of the `result` member.
#[derive(Debug)]
pub struct Envelope<T> {
    /// The request id the frame answers (a push: its subscription's).
    pub id: Option<u64>,
    /// Success or typed error; a frame without it is malformed.
    pub ok: Option<bool>,
    /// Whether this is a subscription push rather than a response.
    pub push: bool,
    /// The `result` member, as read.
    pub result: Option<T>,
    /// The stamp a worker attaches to a routed reply.
    pub stamp: Option<Stamp>,
    /// The report beside that stamp ([`Marked`]).
    pub touched: Option<Touched>,
    /// The `error` member: its kind (unknown names are `Internal`) and
    /// message.
    pub error: Option<(ErrorKind, String)>,
}

impl From<Value> for Envelope<Value> {
    /// The envelope of a frame already decoded as a tree.
    fn from(mut response: Value) -> Self {
        let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("").to_string();
        Envelope {
            id: response.get("id").and_then(Value::as_u64),
            ok: response.get("ok").and_then(Value::as_bool),
            push: response.get("push").and_then(Value::as_bool) == Some(true),
            stamp: response.get("stamp").and_then(stamp_from_json),
            touched: response.get("touched").and_then(touched_from_json),
            error: response.get("error").map(|e| {
                let kind = ErrorKind::parse(&text(e.get("kind")));
                (kind, text(e.get("message")))
            }),
            result: match &mut response {
                Value::Object(map) => map.remove("result"),
                _ => None,
            },
        }
    }
}

/// Reads one frame payload: the envelope is parsed, `result` is handed
/// to `read_result` — which must read exactly that value and may decode
/// it, take it as a tree ([`Reader::value`]) or keep the validated raw
/// slice ([`Reader::skip`]) — and everything else is validated and
/// dropped. Accepts exactly the payloads [`serde_json::from_slice`]
/// accepts; a repeated member counts as its last occurrence, as in a
/// tree.
pub fn read_envelope<'a, T>(
    payload: &'a [u8],
    mut read_result: impl FnMut(&mut Reader<'a>) -> Result<T, ParseError>,
) -> Result<Envelope<T>, ParseError> {
    let mut envelope = Envelope {
        id: None,
        ok: None,
        push: false,
        result: None,
        stamp: None,
        touched: None,
        error: None,
    };
    let mut reader = Reader::from_slice(payload)?;
    reader.object(|key, r| {
        match key.as_ref() {
            "id" => envelope.id = r.u64()?,
            "ok" => envelope.ok = r.bool()?,
            "push" => envelope.push = r.bool()? == Some(true),
            "result" => envelope.result = Some(read_result(r)?),
            "stamp" => {
                let (mut epoch, mut seq) = (None, None);
                r.object(|key, r| {
                    match key.as_ref() {
                        "epoch" => epoch = r.u64()?,
                        "data_version" => seq = r.u64()?,
                        _ => {}
                    }
                    Ok(())
                })?;
                envelope.stamp = epoch.zip(seq).map(|(epoch, seq)| Stamp { epoch, seq });
            }
            "touched" => envelope.touched = touched_from_json(&r.value()?),
            "error" => {
                let (mut kind, mut message) = (None, None);
                r.object(|key, r| {
                    match key.as_ref() {
                        "kind" => kind = r.string()?,
                        "message" => message = r.string()?,
                        _ => {}
                    }
                    Ok(())
                })?;
                envelope.error = Some((
                    ErrorKind::parse(kind.as_deref().unwrap_or("")),
                    message.map_or_else(String::new, |m| m.into_owned()),
                ));
            }
            _ => {}
        }
        Ok(())
    })?;
    reader.end()?;
    Ok(envelope)
}

/// Encodes a response (or push) built as a tree; over the cap, the
/// substitute goes out under the id the tree carries.
pub fn encode_reply(response: &Value) -> Vec<u8> {
    let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
    or_oversize(id, encode_frame(response))
}

/// Maps a query-layer error onto the wire's typed categories.
pub fn classify(err: &f1_cobra::CobraError) -> ErrorKind {
    use f1_cobra::CobraError;
    use f1_monet::MonetError;
    match err {
        CobraError::Parse(_) => ErrorKind::Parse,
        CobraError::UnknownVideo(_) => ErrorKind::UnknownVideo,
        CobraError::InvalidEvent { .. } => ErrorKind::BadRequest,
        CobraError::Kernel(MonetError::Deadline) => ErrorKind::Deadline,
        CobraError::Kernel(MonetError::Interrupted) => ErrorKind::Cancelled,
        CobraError::Kernel(MonetError::BudgetExhausted { .. }) => ErrorKind::BudgetExhausted,
        _ => ErrorKind::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A blocking reader's frame: read off a stream into a decoder.
    fn read_frame(r: &mut impl Read) -> Result<Option<Value>, FrameError> {
        let mut decoder = FrameDecoder::new();
        while decoder.read_from(r)? > 0 {}
        decoder.next_frame()
    }

    #[test]
    fn frames_round_trip() {
        let v = json!({"id": 7, "cmd": "query", "text": "RETRIEVE HIGHLIGHTS"});
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, Some(v));
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
        // A peer that closes before any prefix byte: the session's
        // receive reports the transport, not a frame.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = crate::client::Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        assert!(matches!(
            client.recv(),
            Err(crate::client::ClientError::Transport(FrameError::Io(e)))
                if e.kind() == std::io::ErrorKind::UnexpectedEof
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

    fn payload(frame: &[u8]) -> &[u8] {
        assert_eq!(frame[..4], ((frame.len() - 4) as u32).to_be_bytes());
        &frame[4..]
    }

    #[test]
    fn a_frame_around_an_encoded_body_is_the_frame_of_its_tree() {
        let result = json!({
            "kind": "segments",
            "segments": [{"start": 1, "end": 2, "label": "a\"b", "driver": null}],
        });
        let body = result.to_string();
        let stamp = Stamp { epoch: 3, seq: 41 };
        let touched = Touched {
            since: 40,
            layers: vec![
                ("w".into(), None),
                ("x".into(), Some(Unnamed::new())),
                (
                    "y".into(),
                    Some(["excited".into(), "highlight".into()].into()),
                ),
            ],
            pairs: vec![("v".into(), "caption:pit_stop".into(), "".into())],
        };
        for marked in [
            None,
            Some(Marked {
                stamp,
                touched: None,
            }),
            Some(Marked {
                stamp,
                touched: Some(Touched::default()),
            }),
            Some(Marked {
                stamp,
                touched: Some(touched),
            }),
        ] {
            let mut tree = ok_response(7, result.clone());
            if let (Value::Object(map), Some(marked)) = (&mut tree, &marked) {
                map.insert("stamp".into(), stamp_to_json(marked.stamp));
                if let Some(touched) = &marked.touched {
                    map.insert("touched".into(), touched_to_json(touched));
                    assert_eq!(touched_from_json(&map["touched"]).as_ref(), Some(touched));
                }
            }
            let frame = ok_frame(7, marked.as_ref(), body.len(), |w| w.raw(body.as_bytes()));
            assert_eq!(frame.unwrap(), encode_frame(&tree).unwrap());
        }
        let unnamed = vec![
            ("v".to_string(), Unnamed::new()),
            ("w".to_string(), ["highlight".to_string()].into()),
        ];
        let handshake = unnamed_to_json(&unnamed);
        assert_eq!(handshake.to_string(), r#"[["v"],["w","highlight"]]"#);
        assert_eq!(unnamed_from_json(&handshake), Some(unnamed));
    }

    #[test]
    fn an_oversized_reply_becomes_a_typed_error_under_its_own_id() {
        let body = format!("\"{}\"", "x".repeat(MAX_FRAME_LEN));
        let built = ok_frame(42, None, body.len(), |w| w.raw(body.as_bytes()));
        assert!(matches!(built, Err(FrameError::Oversized(n)) if n > MAX_FRAME_LEN));
        let substitute = or_oversize(42, built);
        let envelope = Envelope::from(serde_json::from_slice(payload(&substitute)).unwrap());
        assert_eq!(envelope.id, Some(42), "the waiting request's id, not 0");
        assert_eq!(envelope.ok, Some(false));
        assert_eq!(
            envelope.error.map(|(kind, _)| kind),
            Some(ErrorKind::Internal)
        );
        // Just under the cap passes through untouched.
        let body = format!("\"{}\"", "x".repeat(MAX_FRAME_LEN - 64));
        let fits = or_oversize(
            42,
            ok_frame(42, None, body.len(), |w| w.raw(body.as_bytes())),
        );
        assert_eq!(
            payload(&fits).len(),
            body.len() + r#"{"id":42,"ok":true,"result":}"#.len()
        );
    }

    /// Reading a payload by its envelope and taking the envelope out of
    /// its tree are the same function, on frames of every kind and on
    /// malformed ones.
    #[test]
    fn an_envelope_reads_the_same_from_bytes_and_from_a_tree() {
        let stamp = stamp_to_json(Stamp { epoch: 2, seq: 9 });
        let result = json!({"kind": "segments", "segments": []});
        for text in [
            ok_response(1, result.clone()).to_string(),
            err_response(2, ErrorKind::Overloaded, "queue full").to_string(),
            json!({"id": 3, "ok": true, "push": true, "result": {"kind": "stamp"}}).to_string(),
            json!({"id": 4, "ok": true, "result": (result.clone()), "stamp": (stamp.clone())}).to_string(),
            json!({"id": 4, "ok": true, "result": 1, "stamp": (stamp), "touched": {"since": 3, "pairs": [["v", "k", ""]]}}).to_string(),
            r#"{"id":4,"ok":true,"touched":{"since":3,"pairs":[["v","k"]]}}"#.into(),
            // Shapes a well-behaved server never sends.
            r#"{"id":-1,"ok":"yes","push":1,"stamp":{"epoch":1},"error":"flat"}"#.into(),
            r#"{"id":1,"id":2,"ok":false,"ok":true,"result":1,"result":[2],"error":{"kind":"future_kind"}}"#.into(),
            r#"{"stamp":{"epoch":1,"data_version":2},"stamp":7,"error":{"kind":5,"message":6}}"#.into(),
            r#" { "id" : 5 , "ok" : true , "result" : { "a" : [ 1 , 2 ] } } "#.into(),
            "[]".into(),
            "7".into(),
            // Not JSON at all, or not to the end.
            r#"{"id":1,"ok":true,"result":{"a":01}}"#.into(),
            r#"{"id":1,"ok":true,"result":[1,2}"#.into(),
            r#"{"id":1,"ok":true,"result":null} trailing"#.into(),
            r#"{"id":1,"ok":true,"other":"\ud800"}"#.into(),
            "".into(),
        ] {
            let from_bytes = read_envelope(text.as_bytes(), |r| r.value());
            let skipped = read_envelope(text.as_bytes(), |r| r.skip().map(str::to_owned));
            match serde_json::from_str(&text) {
                Ok(tree) => {
                    let from_tree = format!("{:?}", Envelope::from(tree));
                    assert_eq!(format!("{:?}", from_bytes.unwrap()), from_tree, "{text}");
                    // Skipping the result validates it just the same and
                    // keeps the raw slice.
                    let skipped = skipped.unwrap();
                    let reparsed = skipped
                        .result
                        .as_deref()
                        .map(|raw| serde_json::from_str(raw).expect("a skipped slice is valid"));
                    let reread = Envelope {
                        result: reparsed,
                        id: skipped.id,
                        ok: skipped.ok,
                        push: skipped.push,
                        stamp: skipped.stamp,
                        touched: skipped.touched,
                        error: skipped.error,
                    };
                    assert_eq!(format!("{reread:?}"), from_tree, "{text}");
                }
                Err(e) => {
                    assert_eq!(from_bytes.unwrap_err(), e, "{text}");
                    assert_eq!(skipped.unwrap_err(), e, "{text}");
                }
            }
        }
    }

    #[test]
    fn a_decoder_fed_by_reads_keeps_partial_frames() {
        let frame = encode_frame(&json!({"id": 1, "ok": true})).unwrap();
        let mut decoder = FrameDecoder::new();
        let (head, tail) = frame.split_at(3);
        assert_eq!(decoder.read_from(&mut &head[..]).unwrap(), 3);
        assert!(!decoder.frame_ready().unwrap());
        assert!(decoder.next_payload().unwrap().is_none());
        assert_eq!(decoder.read_from(&mut &tail[..]).unwrap(), tail.len());
        assert!(decoder.frame_ready().unwrap());
        assert_eq!(decoder.next_payload().unwrap(), Some(&frame[4..]));
        assert_eq!(decoder.buffered(), 0);
        assert_eq!(
            decoder.read_from(&mut &[][..]).unwrap(),
            0,
            "EOF reads nothing"
        );
    }
}
