//! The reactor's one wake rule and its one deadline, from outside.
//!
//! What the reactor thread answers itself — a `ping`, a router `query`
//! whose every part is cached — is queued before its loop drains the op
//! queue, so it costs the reactor no wakeup (`reactor.wakeups`). And a
//! connection silent for the idle timeout is evicted within a tick of it
//! (`serve.idle_closed`), while one that keeps talking is not.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cobra_obs::Registry;
use cobra_serve::protocol::{encode_frame, FrameDecoder, MAX_FRAME_LEN};
use cobra_serve::router::{self, RouterConfig};
use cobra_serve::server::{self, ServerConfig};
use cobra_serve::{Client, QueryReply};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{RetrievedSegment, Vdbms};
use serde_json::{json, Value};

/// The no-hang bound of every wait.
const PATIENCE: Duration = Duration::from_secs(15);

const VIDEO: &str = "german";

/// A catalog holding one small video with a few highlights.
fn vdbms() -> Arc<Vdbms> {
    let vdbms = Vdbms::new();
    let info = VideoInfo {
        name: VIDEO.into(),
        n_clips: 400,
        n_frames: 1000,
    };
    vdbms.catalog.register_video(info).expect("register");
    let highlight = |start: usize, driver: Option<&str>| EventRecord {
        kind: "highlight".into(),
        start,
        end: start + 20,
        driver: driver.map(str::to_owned),
    };
    let rows = [highlight(10, None), highlight(100, Some("MONTOYA"))];
    vdbms.catalog.store_events(VIDEO, &rows).expect("store");
    Arc::new(vdbms)
}

fn registry_of(vdbms: &Vdbms) -> Arc<Registry> {
    Arc::clone(vdbms.kernel().metrics().registry())
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(PATIENCE))
        .expect("the no-hang bound");
    client
}

fn segments(reply: QueryReply) -> Vec<RetrievedSegment> {
    match reply {
        QueryReply::Segments(segments) => segments,
        other => panic!("a plain retrieval answered {other:?}"),
    }
}

fn wakeups(registry: &Registry) -> u64 {
    registry.snapshot().counter("reactor.wakeups", &[])
}

/// Waits until `check` holds, failing the test after [`PATIENCE`].
fn await_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !check() {
        assert!(Instant::now() < deadline, "gave up waiting until {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn what_the_reactor_answers_itself_never_wakes_it() {
    let vdbms = vdbms();
    let registry = registry_of(&vdbms);
    let server = server::start(vdbms, ServerConfig::default()).expect("the server starts");
    let mut client = connect(server.addr());
    client.ping().expect("ping");
    let before = wakeups(&registry);
    for _ in 0..1_000 {
        client.ping().expect("ping");
    }
    assert_eq!(
        wakeups(&registry) - before,
        0,
        "1,000 pings woke the server"
    );

    let config = RouterConfig {
        shards: vec![server.addr().to_string()],
        ..RouterConfig::default()
    };
    let router = router::start(config).expect("the router starts");
    let routed = router.registry();
    let mut client = connect(router.addr());
    client.videos().expect("a first request starts the feed");
    await_until("the feed is up", || {
        routed.snapshot().gauge("router.feeds_up", &[]) == 1
    });
    let text = "RETRIEVE HIGHLIGHTS";
    let first = segments(client.query(VIDEO, text).expect("a cold routed query"));
    assert_eq!(first.len(), 2, "{first:?}");
    // The cold query's pooled reply wrote a wake byte; a round trip on the
    // reactor consumes it before the count starts.
    client.ping().expect("ping");
    let hits = || {
        routed
            .snapshot()
            .counter("cache.result", &[("result", "hit")])
    };
    let (before, hits_before) = (wakeups(&routed), hits());
    for _ in 0..1_000 {
        let cached = client.query(VIDEO, text).expect("a cached routed query");
        assert_eq!(segments(cached), first);
    }
    assert_eq!(
        hits() - hits_before,
        1_000,
        "every read was a router-cache hit"
    );
    assert_eq!(
        wakeups(&routed) - before,
        0,
        "1,000 cached reads woke the router"
    );
    drop(client);
    router.shutdown();
    server.shutdown();
}

#[test]
fn a_silent_connection_is_evicted_within_a_tick_of_its_timeout() {
    let vdbms = vdbms();
    let registry = registry_of(&vdbms);
    let timeout = Duration::from_millis(100);
    let config = ServerConfig {
        idle_timeout: Some(timeout),
        ..ServerConfig::default()
    };
    let server = server::start(vdbms, config).expect("the server starts");
    let addr = server.addr();

    let talker = thread::spawn(move || {
        let mut client = connect(addr);
        let start = Instant::now();
        let mut next = start;
        while next < start + Duration::from_millis(500) {
            client.ping().expect("a client pinging every 30 ms stays");
            next += Duration::from_millis(30);
            thread::sleep(next.saturating_duration_since(Instant::now()));
        }
        client
    });

    // Taken before the connect, so no later than the server's accept.
    let start = Instant::now();
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent.set_read_timeout(Some(PATIENCE)).expect("timeout");
    let mut byte = [0u8; 1];
    let read = silent.read(&mut byte).expect("EOF, not a timeout");
    let evicted_after = start.elapsed();
    assert_eq!(read, 0, "the server closed the silent connection");
    assert!(evicted_after >= timeout, "evicted early: {evicted_after:?}");
    assert!(
        evicted_after < Duration::from_secs(1),
        "evicted late: {evicted_after:?}"
    );

    let talker = talker.join().expect("the talker survived");
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("serve.idle_closed", &[]), 1);
    assert_eq!(snapshot.gauge("serve.connections", &[]), 1, "the talker");
    drop(talker);
    await_until("every connection is gone", || {
        registry.snapshot().gauge("serve.connections", &[]) == 0
    });
    server.shutdown();
}

/// Pipelines `pings` pings on a new connection and, once the server has
/// read every ping it has been sent (`counted` in all), a length prefix
/// past the frame cap: the server answers it with a typed error and
/// closes the connection for cause, the replies the peer has not read
/// still queued. Returns the peer and when the prefix was sent.
fn close_for_cause(
    addr: SocketAddr,
    registry: &Registry,
    pings: u64,
    counted: u64,
) -> (TcpStream, Instant) {
    let mut burst = Vec::new();
    for id in 1..=pings {
        let ping = json!({"id": id, "cmd": "ping"});
        burst.extend(encode_frame(&ping).expect("a ping frame"));
    }
    let mut peer = TcpStream::connect(addr).expect("connect");
    peer.set_read_timeout(Some(PATIENCE))
        .expect("the no-hang bound");
    peer.write_all(&burst).expect("send the pings");
    await_until("the server read every ping", || {
        registry
            .snapshot()
            .counter("serve.requests", &[("cmd", "ping")])
            == counted
    });
    let sent = Instant::now();
    let oversized = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    peer.write_all(&oversized)
        .expect("send the oversized prefix");
    (peer, sent)
}

/// The whole frames a peer reads until the server closes.
fn frames_until_eof(peer: &mut TcpStream) -> Vec<Value> {
    let mut bytes = Vec::new();
    peer.read_to_end(&mut bytes).expect("EOF, not a timeout");
    let mut decoder = FrameDecoder::new();
    decoder.extend(&bytes);
    std::iter::from_fn(|| decoder.next_frame().expect("a frame")).collect()
}

#[test]
fn a_connection_closed_for_cause_keeps_its_close_window() {
    let vdbms = vdbms();
    let registry = registry_of(&vdbms);
    let config = ServerConfig {
        sndbuf: Some(4096),
        ..ServerConfig::default()
    };
    let server = server::start(vdbms, config).expect("the server starts");
    let connections = || registry.snapshot().gauge("serve.connections", &[]);
    let pings = 4_000;

    // A peer that reads within the window gets every reply, then the
    // typed error, then EOF.
    let (mut reader, _) = close_for_cause(server.addr(), &registry, pings, pings);
    thread::sleep(Duration::from_millis(300));
    let frames = frames_until_eof(&mut reader);
    assert_eq!(frames.len() as u64, pings + 1, "every reply and the error");
    let kind = |frame: &Value, field: &str| {
        let kind = frame.get(field).and_then(|f| f.get("kind"));
        kind.and_then(Value::as_str).map(str::to_owned)
    };
    let pongs = frames
        .iter()
        .filter(|f| kind(f, "result").as_deref() == Some("pong"));
    assert_eq!(pongs.count() as u64, pings);
    let last = &frames[frames.len() - 1];
    assert_eq!(
        kind(last, "error").as_deref(),
        Some("bad_request"),
        "{last}"
    );
    await_until("the reader's connection is gone", || connections() == 0);

    // A peer that never reads is dropped when the window ends, within a
    // tick (a quarter of the window, without an idle timeout).
    let (mut stalled, sent) = close_for_cause(server.addr(), &registry, pings, 2 * pings);
    await_until("the stalled connection is gone", || connections() == 0);
    let lived = sent.elapsed();
    assert!(lived >= Duration::from_secs(2), "dropped early: {lived:?}");
    assert!(lived < Duration::from_secs(3), "dropped late: {lived:?}");
    let frames = frames_until_eof(&mut stalled);
    assert!(
        (frames.len() as u64) < pings,
        "the kernel's buffers took all {} frames, so nothing waited for the window",
        frames.len()
    );
    server.shutdown();
}
