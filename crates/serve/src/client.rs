//! Blocking client for the cobra-serve protocol.
//!
//! One [`Client`] wraps one TCP session. Requests are sent with
//! monotonically increasing ids and answers are matched by id, so a
//! caller can interleave commands freely; this client keeps at most one
//! request outstanding per call, while the raw
//! [`send`](Client::send)/[`recv`](Client::recv) pair is exposed for
//! tests (and load generators) that want pipelining or mid-request
//! disconnects.
//!
//! Received bytes collect in the session's
//! [`FrameDecoder`](crate::protocol::FrameDecoder), so a read that times
//! out ([`set_timeout`](Client::set_timeout)) in the middle of a frame
//! loses nothing: the next receive resumes where it stopped. A response
//! is read by its envelope
//! ([`read_envelope`](crate::protocol::read_envelope)) with `result`
//! decoded as the call wants it — [`query`](Client::query) straight into
//! a [`QueryReply`] (`f1_cobra::json::read_query_output`), the control
//! commands as a tree they then own, the router's forwards as the raw
//! slice — while interleaved push frames are buffered for
//! [`next_push`](Client::next_push) and stale ids are skipped, whichever
//! way the result is read.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cobra_obs::SpanNode;
use f1_cobra::RetrievedSegment;
use serde_json::{json, ParseError, Reader, Value};

use crate::protocol::{read_envelope, write_frame, Envelope, ErrorKind, FrameDecoder, FrameError};

/// What went wrong client-side.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or the frame was malformed.
    Transport(FrameError),
    /// The server answered, but not in the shape this client expects.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// The typed category ([`ErrorKind::Overloaded`], …).
        kind: ErrorKind,
        /// The server's human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Server { kind, message } => write!(f, "server [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Transport(e)
    }
}

impl ClientError {
    /// The typed server error category, when this is a server error.
    pub fn server_kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// Per-request execution limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOpts {
    /// Wall-clock deadline; the server cancels the query when it lapses
    /// (queue wait included) and answers `deadline`.
    pub deadline_ms: Option<u64>,
    /// Fuel (kernel step) allowance; exhaustion answers `budget_exhausted`.
    pub fuel: Option<u64>,
}

/// A decoded query answer.
#[derive(Debug, Clone)]
pub enum QueryReply {
    /// Plain `RETRIEVE` segments.
    Segments(Vec<RetrievedSegment>),
    /// `PROFILE RETRIEVE`: segments plus the measured span tree.
    Profile {
        /// The retrieved segments.
        segments: Vec<RetrievedSegment>,
        /// Where time went.
        span: SpanNode,
    },
    /// `EXPLAIN RETRIEVE`: the plan shape.
    Plan(SpanNode),
    /// Cross-video `RETRIEVE` (`video = "*"`): one segment group per
    /// catalogued video, sorted by video name.
    Multi(Vec<f1_cobra::VideoSegments>),
}

/// One delta frame pushed by a standing `SUBSCRIBE` query.
#[derive(Debug, Clone)]
pub struct PushFrame {
    /// The subscription the delta belongs to.
    pub subscription: u64,
    /// The video whose answer changed.
    pub video: String,
    /// Segments that entered the answer since the last frame.
    pub added: Vec<RetrievedSegment>,
    /// Number of segments that left the answer.
    pub removed: u64,
    /// Size of the full answer after this delta.
    pub total: u64,
    /// The server's catalog `data_version` when the delta was computed.
    pub data_version: u64,
}

/// True when `frame` is a subscription push rather than a response.
fn is_push(frame: &Value) -> bool {
    frame.get("push").and_then(Value::as_bool) == Some(true)
}

/// A blocking protocol session.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Bytes received and not yet consumed — part of a frame, after a
    /// read timed out in the middle of it.
    inbox: FrameDecoder,
    /// Push frames that arrived while waiting for a response; drained
    /// by [`next_push`](Client::next_push) in arrival order.
    pushes: VecDeque<Value>,
}

/// Blocks until `inbox` holds a complete frame and returns its payload.
/// A timeout (or any other transport error) leaves what has arrived in
/// `inbox`; calling again resumes.
fn recv_payload<'a>(
    mut stream: &TcpStream,
    inbox: &'a mut FrameDecoder,
) -> Result<&'a [u8], FrameError> {
    while !inbox.frame_ready()? {
        match inbox.read_from(&mut stream) {
            Ok(0) => return Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(inbox.next_payload()?.unwrap_or_default())
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 0,
            inbox: FrameDecoder::new(),
            pushes: VecDeque::new(),
        })
    }

    /// Bounds how long [`recv`](Self::recv) blocks; `None` blocks
    /// indefinitely. A receive that times out returns the transport
    /// error and may simply be retried: a partly received frame is kept.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends a raw request object, assigning and returning its id.
    pub fn send(&mut self, mut request: Value) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        if let Value::Object(map) = &mut request {
            map.insert("id".into(), Value::Number(id as f64));
        }
        write_frame(&mut self.stream, &request)?;
        Ok(id)
    }

    /// Receives the next response frame, whatever its id.
    pub fn recv(&mut self) -> Result<Value, ClientError> {
        let payload = recv_payload(&self.stream, &mut self.inbox)?;
        Ok(serde_json::from_slice(payload).map_err(FrameError::Json)?)
    }

    /// Sends `request` and blocks for its response:
    /// [`send`](Self::send), then [`await_reply`](Self::await_reply).
    pub(crate) fn exchange<T>(
        &mut self,
        request: Value,
        read_result: impl FnMut(&mut Reader<'_>) -> Result<T, ParseError>,
    ) -> Result<Envelope<T>, ClientError> {
        let id = self.send(request)?;
        self.await_reply(id, read_result)
    }

    /// Blocks for the response to the request sent as `id`, returned as
    /// its envelope with `result` read by `read_result`. Responses are
    /// matched by id; push frames that interleave (they reuse their
    /// subscription's id) are buffered for
    /// [`next_push`](Self::next_push) rather than mistaken for answers,
    /// and stale answers from abandoned requests are skipped.
    pub(crate) fn await_reply<T>(
        &mut self,
        id: u64,
        mut read_result: impl FnMut(&mut Reader<'_>) -> Result<T, ParseError>,
    ) -> Result<Envelope<T>, ClientError> {
        loop {
            let payload = recv_payload(&self.stream, &mut self.inbox)?;
            let envelope = read_envelope(payload, &mut read_result).map_err(FrameError::Json)?;
            if envelope.push {
                let push = serde_json::from_slice(payload).map_err(FrameError::Json)?;
                self.pushes.push_back(push);
            } else if envelope.id == Some(id) {
                return Ok(envelope);
            }
        }
    }

    /// Sends `request` and blocks for its answer, unwrapping the typed
    /// error envelope.
    fn call(&mut self, request: Value) -> Result<Value, ClientError> {
        unwrap_envelope(self.exchange(request, |r| r.value())?)
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(json!({"cmd": "ping"})).map(|_| ())
    }

    /// Names of the videos in the server's catalog.
    pub fn videos(&mut self) -> Result<Vec<String>, ClientError> {
        let result = self.call(json!({"cmd": "videos"}))?;
        let names = result
            .get("videos")
            .and_then(Value::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'videos' array".into()))?;
        names
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ClientError::Protocol("non-string video name".into()))
            })
            .collect()
    }

    /// The server's metrics registry snapshot, as JSON.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        match self.call(json!({"cmd": "stats"}))? {
            Value::Object(mut result) => result.remove("snapshot"),
            _ => None,
        }
        .ok_or_else(|| ClientError::Protocol("missing 'snapshot'".into()))
    }

    /// Forces a storage checkpoint on the server. Returns the server's
    /// checkpoint summary (`durable: false` on a memory-only server).
    pub fn checkpoint(&mut self) -> Result<Value, ClientError> {
        self.call(json!({"cmd": "checkpoint"}))
    }

    /// Runs a retrieval statement with no limits.
    pub fn query(&mut self, video: &str, text: &str) -> Result<QueryReply, ClientError> {
        self.query_opts(video, text, RequestOpts::default())
    }

    /// Runs a retrieval statement under per-request limits.
    pub fn query_opts(
        &mut self,
        video: &str,
        text: &str,
        opts: RequestOpts,
    ) -> Result<QueryReply, ClientError> {
        let mut request = json!({"cmd": "query", "video": (video), "text": (text)});
        if let Value::Object(map) = &mut request {
            if let Some(ms) = opts.deadline_ms {
                map.insert("deadline_ms".into(), Value::Number(ms as f64));
            }
            if let Some(fuel) = opts.fuel {
                map.insert("fuel".into(), Value::Number(fuel as f64));
            }
        }
        let reply = self.exchange(request, f1_cobra::json::read_query_output)?;
        let output = unwrap_envelope(reply)?
            .ok_or_else(|| ClientError::Protocol("unexpected query result".into()))?;
        Ok(match output {
            f1_cobra::QueryOutput::Segments(segments) => QueryReply::Segments(segments),
            f1_cobra::QueryOutput::Profile(p) => QueryReply::Profile {
                segments: p.segments,
                span: p.span,
            },
            f1_cobra::QueryOutput::Plan(span) => QueryReply::Plan(span),
            f1_cobra::QueryOutput::Multi(groups) => QueryReply::Multi(groups),
        })
    }

    /// The peer's shard-version summary. A worker answers
    /// `{kind: "version", epoch, data_version, videos}`;
    /// a router answers `{kind: "version", shards: [...]}` with one
    /// such entry per shard.
    pub fn version(&mut self) -> Result<Value, ClientError> {
        self.call(json!({"cmd": "version"}))
    }

    /// Debug command (server must run with `debug`): append one event
    /// record to `video`'s event layer. Routers forward this to the
    /// owning shard, which is what the cross-shard cache-invalidation
    /// tests lean on.
    pub fn write_event(
        &mut self,
        video: &str,
        kind: &str,
        start: u64,
        end: u64,
        driver: Option<&str>,
    ) -> Result<Value, ClientError> {
        let mut request = json!({
            "cmd": "write_event",
            "video": (video),
            "kind": (kind),
            "start": (start as f64),
            "end": (end as f64),
        });
        if let (Value::Object(map), Some(d)) = (&mut request, driver) {
            map.insert("driver".into(), Value::String(d.to_string()));
        }
        self.call(request)
    }

    /// Registers a standing query. Returns the subscription id plus the
    /// initial answer (`{kind: "subscribed", videos: [...]}`); deltas
    /// then arrive via [`next_push`](Self::next_push). `video` may be
    /// `"*"` to watch every catalogued video.
    pub fn subscribe(&mut self, video: &str, text: &str) -> Result<(u64, Value), ClientError> {
        let result = self.call(json!({"cmd": "subscribe", "video": (video), "text": (text)}))?;
        let sub = result
            .get("subscription")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("subscribed without 'subscription'".into()))?;
        Ok((sub, result))
    }

    /// Retires a standing query.
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<(), ClientError> {
        self.call(json!({"cmd": "unsubscribe", "subscription": (subscription as f64)}))
            .map(|_| ())
    }

    /// Blocks (subject to [`set_timeout`](Self::set_timeout)) for the
    /// next subscription delta. A typed server error arriving instead —
    /// `slow_consumer` when this client fell behind, `shard_unavailable`
    /// when a shard died under the subscription — surfaces as
    /// [`ClientError::Server`]; stale responses to abandoned requests
    /// are skipped.
    pub fn next_push(&mut self) -> Result<PushFrame, ClientError> {
        let frame = match self.pushes.pop_front() {
            Some(f) => f,
            None => loop {
                let f = self.recv()?;
                if is_push(&f) {
                    break f;
                }
                // Not a push: either a typed error aimed at this
                // subscriber (surface it) or a stale success response
                // (skip it).
                unwrap_response(f)?;
            },
        };
        decode_push(&frame)
    }

    /// Debug command (server must run with `debug`): occupy a worker
    /// for `ms` milliseconds under the request's budget.
    pub fn sleep_ms(&mut self, ms: u64, opts: RequestOpts) -> Result<(), ClientError> {
        let mut request = json!({"cmd": "sleep", "ms": (ms as f64)});
        if let Value::Object(map) = &mut request {
            if let Some(d) = opts.deadline_ms {
                map.insert("deadline_ms".into(), Value::Number(d as f64));
            }
            if let Some(fuel) = opts.fuel {
                map.insert("fuel".into(), Value::Number(fuel as f64));
            }
        }
        self.call(request).map(|_| ())
    }
}

/// Splits the `{ok, result | error}` envelope into `Ok(result)` or a
/// typed [`ClientError::Server`].
pub(crate) fn unwrap_envelope<T>(envelope: Envelope<T>) -> Result<T, ClientError> {
    match envelope.ok {
        Some(true) => envelope
            .result
            .ok_or_else(|| ClientError::Protocol("ok response without 'result'".into())),
        Some(false) => {
            let (kind, message) = envelope
                .error
                .ok_or_else(|| ClientError::Protocol("error response without 'error'".into()))?;
            Err(ClientError::Server { kind, message })
        }
        None => Err(ClientError::Protocol("response without 'ok'".into())),
    }
}

/// [`unwrap_envelope`] for a frame received as a tree
/// ([`Client::recv`]), which it takes apart rather than copies.
pub fn unwrap_response(response: Value) -> Result<Value, ClientError> {
    unwrap_envelope(Envelope::from(response))
}

/// Decodes a push frame into a [`PushFrame`].
fn decode_push(frame: &Value) -> Result<PushFrame, ClientError> {
    let shape_err = || ClientError::Protocol(format!("unexpected push frame: {frame}"));
    let result = frame.get("result").ok_or_else(shape_err)?;
    let added = result
        .get("added")
        .and_then(Value::as_array)
        .ok_or_else(shape_err)?
        .iter()
        .map(|v| f1_cobra::json::segment_from_json(v).ok_or_else(shape_err))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PushFrame {
        subscription: result
            .get("subscription")
            .and_then(Value::as_u64)
            .ok_or_else(shape_err)?,
        video: result
            .get("video")
            .and_then(Value::as_str)
            .ok_or_else(shape_err)?
            .to_string(),
        added,
        removed: result.get("removed").and_then(Value::as_u64).unwrap_or(0),
        total: result.get("total").and_then(Value::as_u64).unwrap_or(0),
        data_version: result
            .get("data_version")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}
