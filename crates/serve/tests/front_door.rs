//! The one front door, from outside. The server and the router answer
//! what the front end owns — `ping`, malformed frames, `serve.requests`,
//! subscriptions, shutdown — the same way, so one test body runs against
//! both; and both share one rule for which queries may share an answer.

mod common;

use std::io::ErrorKind as IoErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_obs::Registry;
use cobra_serve::client::{Client, RequestOpts};
use cobra_serve::router::{self, RouterConfig};
use cobra_serve::server::{start, ServerConfig, ServerHandle};
use serde_json::{json, Value};

use common::{fixture_vdbms, RawSession, VIDEO};

/// The no-hang bound of everything a test waits for.
const PATIENCE: Duration = Duration::from_secs(15);

/// The in-process worker a door stands in front of, and its registry:
/// one pool thread, so a debug `sleep` holds it.
fn worker() -> (ServerHandle, Arc<Registry>) {
    let vdbms = fixture_vdbms();
    let registry = Arc::clone(vdbms.kernel().metrics().registry());
    let config = ServerConfig {
        workers: 1,
        debug: true,
        ..ServerConfig::default()
    };
    (start(vdbms, config).expect("the worker starts"), registry)
}

fn error_kind(response: &Value) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
}

/// Waits until `check` holds, failing the test after [`PATIENCE`].
fn await_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !check() {
        assert!(Instant::now() < deadline, "gave up waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn gauge(registry: &Registry, name: &str) -> i64 {
    registry.snapshot().gauge(name, &[])
}

/// The contract of one door: `door` is the address under test and
/// `counted` the registry it counts requests in; `worker` is the
/// in-process server behind it (the door itself, for the server) and its
/// registry; `feeds` is the door's `router.feeds_up` once a subscription
/// has started its shard feeds (0 for the server, which has none);
/// `shutdown` stops the door.
fn holds_the_contract(
    door: SocketAddr,
    counted: &Registry,
    (worker, worker_registry): (SocketAddr, &Registry),
    feeds: i64,
    shutdown: impl FnOnce() + Send + 'static,
) {
    let mut client = Client::connect(door).expect("connect");
    client
        .set_timeout(Some(PATIENCE))
        .expect("the no-hang bound");

    client.ping().expect("ping is answered");
    for request in [json!({}), json!({"cmd": "nope"})] {
        let id = client.send(request).expect("send");
        let response = client.recv().expect("a malformed frame is answered");
        assert_eq!(response.get("id").and_then(Value::as_u64), Some(id));
        assert_eq!(error_kind(&response), Some("bad_request"), "{response}");
    }
    let requests = |cmd: &str| {
        counted
            .snapshot()
            .counter("serve.requests", &[("cmd", cmd)])
    };
    assert_eq!((requests("ping"), requests("nope")), (1, 1));

    let (sub, subscribed) = client
        .subscribe(VIDEO, "RETRIEVE HIGHLIGHTS")
        .expect("subscribe");
    let videos = subscribed.get("videos").and_then(Value::as_array);
    assert_eq!(videos.map(Vec::len), Some(1), "{subscribed}");
    client.unsubscribe(sub).expect("unsubscribe");
    let again = client.unsubscribe(sub).expect_err("already retired");
    assert!(
        again.to_string().contains("unknown subscription"),
        "{again}"
    );
    assert_eq!((requests("subscribe"), requests("unsubscribe")), (1, 2));
    // A feed's handshake is a pool job at the worker: it must be done
    // before the worker is held, or it queues beside the query below.
    await_until("the shard feeds are up", || {
        gauge(counted, "router.feeds_up") == feeds
    });

    // Hold the worker, so that a query sent now is admitted and waits.
    let mut holder = Client::connect(worker).expect("connect to the worker");
    holder
        .send(json!({"cmd": "sleep", "ms": 600}))
        .expect("hold the worker");
    await_until("the worker sleeps", || {
        gauge(worker_registry, "serve.running") == 1
    });
    let query = |text: &str| json!({"cmd": "query", "video": (VIDEO), "text": (text)});
    let admitted = client.send(query("RETRIEVE PITSTOPS")).expect("send");
    await_until("the query waits at the worker", || {
        gauge(worker_registry, "serve.queue_depth") == 1
    });

    let stopping = std::thread::spawn(shutdown);
    await_until("the listener closes", || Client::connect(door).is_err());
    // Shutdown stops the pool admitting in the step after it closes the
    // listener; nothing outside shows that step, so allow it a moment.
    std::thread::sleep(Duration::from_millis(20));
    let later = client.send(query("RETRIEVE WINNER")).expect("send");
    let mut answers = Vec::new();
    for _ in 0..2 {
        let response = client.recv().expect("both requests are answered");
        answers.push((response.get("id").and_then(Value::as_u64), response));
    }
    common::assert_pool_at_rest(counted);
    common::assert_pool_at_rest(worker_registry);
    answers.sort_by_key(|(id, _)| *id);
    let [(Some(first), answered), (Some(second), refused)] = &answers[..] else {
        panic!("two answers with ids, got {answers:?}");
    };
    assert_eq!((*first, *second), (admitted, later));
    assert_eq!(
        answered.get("ok").and_then(Value::as_bool),
        Some(true),
        "{answered}"
    );
    assert_eq!(error_kind(refused), Some("shutting_down"), "{refused}");
    stopping.join().expect("shutdown returns");
    assert!(Client::connect(door).is_err(), "listening after shutdown");
}

#[test]
fn the_server_holds_the_front_door_contract() {
    let (server, registry) = worker();
    let addr = server.addr();
    holds_the_contract(addr, &registry, (addr, &registry), 0, move || {
        server.shutdown()
    });
}

#[test]
fn the_router_holds_the_front_door_contract() {
    let (worker, worker_registry) = worker();
    let router = router::start(RouterConfig {
        shards: vec![worker.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("the router starts");
    let (addr, registry) = (router.addr(), router.registry());
    let behind = (worker.addr(), &*worker_registry);
    holds_the_contract(addr, &registry, behind, 1, move || router.shutdown());
    worker.shutdown();
}

/// A frame the router cannot answer is refused on its reactor: it takes
/// no pool slot and dials no shard.
#[test]
fn the_router_refuses_a_malformed_frame_without_dialing_a_shard() {
    let shard = TcpListener::bind("127.0.0.1:0").expect("bind the shard's port");
    shard.set_nonblocking(true).expect("nonblocking accept");
    let addr = shard.local_addr().expect("the shard's address");
    let router = router::start(RouterConfig {
        shards: vec![addr.to_string()],
        ..RouterConfig::default()
    })
    .expect("the router starts");
    let mut session = RawSession::connect(router.addr());
    for (id, request) in [(1, json!({"id": 1})), (2, json!({"id": 2, "cmd": "nope"}))] {
        session.send(&request);
        let response: Value = serde_json::from_slice(&session.recv()).expect("JSON");
        assert_eq!(response.get("id").and_then(Value::as_u64), Some(id));
        assert_eq!(error_kind(&response), Some("bad_request"), "{response}");
    }
    // A feed the router started would have connected by now.
    std::thread::sleep(Duration::from_millis(200));
    match shard.accept() {
        Err(e) if e.kind() == IoErrorKind::WouldBlock => {}
        other => panic!("the router dialed the shard: {other:?}"),
    }
    router.shutdown();
}

/// A query carrying its own deadline runs alone: the server does not
/// coalesce it onto an identical one in flight, and the router does not
/// answer it from its cache. The same statements without a deadline do
/// share.
#[test]
fn a_request_with_its_own_deadline_is_neither_coalesced_nor_cached() {
    let (worker, registry) = worker();
    let counter = |name: &str, labels: &[(&str, &str)]| registry.snapshot().counter(name, labels);

    // Server: the only worker sleeps, so four queries wait in its queue.
    let mut session = RawSession::connect(worker.addr());
    session.send(&json!({"id": 1, "cmd": "sleep", "ms": 300}));
    await_until("the worker sleeps", || {
        gauge(&registry, "serve.running") == 1
    });
    for (id, deadline) in [(10, true), (11, true), (12, false), (13, false)] {
        let mut query =
            json!({"id": id, "cmd": "query", "video": (VIDEO), "text": "RETRIEVE PITSTOPS"});
        if let (Value::Object(map), true) = (&mut query, deadline) {
            map.insert("deadline_ms".into(), Value::Number(10_000.0));
        }
        session.send(&query);
    }
    for _ in 0..5 {
        let response: Value = serde_json::from_slice(&session.recv()).expect("JSON");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{response}"
        );
    }
    assert_eq!(counter("cache.coalesced", &[]), 1, "only 13 follows 12");

    // Router: twice with a deadline is two forwards; twice without is one.
    let router = router::start(RouterConfig {
        shards: vec![worker.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("the router starts");
    let mut client = Client::connect(router.addr()).expect("connect");
    client
        .set_timeout(Some(PATIENCE))
        .expect("the no-hang bound");
    let forwarded = || counter("serve.requests", &[("cmd", "query")]);
    let limited = RequestOpts {
        deadline_ms: Some(10_000),
        fuel: None,
    };
    let before = forwarded();
    for _ in 0..2 {
        client
            .query_opts(VIDEO, "RETRIEVE WINNER", limited)
            .expect("query");
    }
    assert_eq!(
        forwarded() - before,
        2,
        "a deadline query was answered from the cache"
    );
    // A cached part hits only while its shard's feed is up.
    let router_registry = router.registry();
    await_until("the feed is up", || {
        gauge(&router_registry, "router.feeds_up") == 1
    });
    let before = forwarded();
    for _ in 0..2 {
        client.query(VIDEO, "RETRIEVE WINNER").expect("query");
    }
    assert_eq!(forwarded() - before, 1, "the plain repeat is a cache hit");
    router.shutdown();
    worker.shutdown();
}

/// A query whose every part the router holds is answered on its reactor:
/// with the shard's only worker asleep and every router worker parked on
/// a forward to it, a cached `RETRIEVE` and a cached sweep still come
/// back at once, while all sixteen stay parked.
#[test]
fn a_cached_answer_waits_for_no_router_worker() {
    const ROUTER_WORKERS: i64 = 16;
    const SLEEP: Duration = Duration::from_secs(3);
    let (worker, worker_registry) = worker();
    let router = router::start(RouterConfig {
        shards: vec![worker.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("the router starts");
    let registry = router.registry();
    let mut client = Client::connect(router.addr()).expect("connect");
    client
        .set_timeout(Some(PATIENCE))
        .expect("the no-hang bound");
    // A part hits only while its shard's feed is up; the first request
    // that needs a shard starts the feed.
    client.videos().expect("videos");
    await_until("the feed is up", || {
        gauge(&registry, "router.feeds_up") == 1
    });
    let cached = [(VIDEO, "RETRIEVE WINNER"), ("*", "RETRIEVE HIGHLIGHTS")];
    let answers: Vec<_> = cached
        .iter()
        .map(|&(video, text)| format!("{:?}", client.query(video, text).expect("query")))
        .collect();
    let hits = || {
        registry
            .snapshot()
            .counter("cache.result", &[("result", "hit")])
    };
    let before = hits();
    for &(video, text) in &cached {
        client.query(video, text).expect("query");
    }
    assert_eq!(hits() - before, 2, "both statements are cached");

    // Hold the shard's only worker, then park every router worker on a
    // forward to it: a query with its own deadline is never a hit.
    let mut holder = Client::connect(worker.addr()).expect("connect to the worker");
    holder
        .send(json!({"cmd": "sleep", "ms": (SLEEP.as_millis() as f64)}))
        .expect("hold the worker");
    let held_at = Instant::now();
    await_until("the worker sleeps", || {
        gauge(&worker_registry, "serve.running") == 1
    });
    let mut parker = Client::connect(router.addr()).expect("connect");
    parker
        .set_timeout(Some(PATIENCE))
        .expect("the no-hang bound");
    for _ in 0..ROUTER_WORKERS {
        let forwarded = json!({
            "cmd": "query", "video": (VIDEO), "text": "RETRIEVE PITSTOPS", "deadline_ms": 10_000,
        });
        parker.send(forwarded).expect("send");
    }
    await_until("every router worker is parked", || {
        gauge(&registry, "serve.running") == ROUTER_WORKERS
    });

    for (&(video, text), answer) in cached.iter().zip(&answers) {
        let again = client.query(video, text).expect("a cached answer");
        assert_eq!(&format!("{again:?}"), answer, "{video} {text}");
    }
    assert!(
        held_at.elapsed() < SLEEP,
        "a cached answer waited for the shard"
    );
    assert_eq!(
        gauge(&registry, "serve.running"),
        ROUTER_WORKERS,
        "a cached answer took a router worker"
    );

    for _ in 0..ROUTER_WORKERS {
        let response = parker.recv().expect("every parked query is answered");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{response}"
        );
    }
    holder.recv().expect("the worker wakes");
    common::assert_pool_at_rest(&registry);
    router.shutdown();
    worker.shutdown();
}
