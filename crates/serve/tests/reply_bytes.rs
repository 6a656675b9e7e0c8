//! Replies as bytes, end to end against live servers: the frame cap on
//! the producer's side, and one body under many ids.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_serve::client::{Client, QueryReply};
use cobra_serve::protocol::{ErrorKind, MAX_FRAME_LEN};
use cobra_serve::ring::{Ring, DEFAULT_SEED};
use cobra_serve::router::{self, RouterConfig};
use cobra_serve::server::{start, ServerConfig};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::Vdbms;
use serde_json::{json, Value};

use common::{fixture_vdbms, RawSession, VIDEO};

/// Registers `video` with `rows` events of `kind`.
fn seed(vdbms: &Vdbms, video: &str, kind: &str, rows: usize) {
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: video.into(),
            n_clips: 2 * rows + 10,
            n_frames: 5 * rows + 25,
        })
        .expect("register");
    let events: Vec<EventRecord> = (0..rows)
        .map(|i| EventRecord {
            kind: kind.into(),
            start: 2 * i,
            end: 2 * i + 1,
            driver: None,
        })
        .collect();
    vdbms.catalog.store_events(video, &events).expect("store");
}

fn rows(reply: QueryReply) -> usize {
    match reply {
        QueryReply::Segments(segments) => segments.len(),
        QueryReply::Multi(groups) => groups.iter().map(|g| g.segments.len()).sum(),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// An answer over the 4 MiB frame cap used to be replaced, on the
/// reactor, by an error under id 0 — which the waiting client skipped as
/// somebody else's, and waited on. The producer knows the id: the typed
/// `internal` error arrives under it, promptly, from a server, through
/// the router, and for a cross-video answer whose *parts* fit and whose
/// splice does not; and the connections keep serving.
#[test]
fn an_answer_over_the_frame_cap_is_a_prompt_typed_error_under_its_own_id() {
    // Two videos on provably different shards of a 2-shard ring.
    let ring = Ring::new(2, DEFAULT_SEED);
    let on_shard = |shard: u32| {
        (0..64)
            .map(|i| format!("race-{i}"))
            .find(|name| ring.owner(name) == shard)
            .expect("a video per shard")
    };
    let (half_a, half_b) = (on_shard(0), on_shard(1));
    let big = (0..64)
        .map(|i| format!("big-{i}"))
        .find(|name| ring.owner(name) == 0)
        .expect("a shard-0 name");

    let shards: Vec<Arc<Vdbms>> = (0..2)
        .map(|_| Arc::new(Vdbms::try_new().expect("vdbms")))
        .collect();
    // ≈ 59 bytes a row: 75,000 rows are ≈ 4.4 MB, over the cap alone;
    // 40,000 are ≈ 2.4 MB, under it alone and over it twice.
    seed(&shards[0], &big, "highlight", 75_000);
    seed(&shards[0], &half_a, "caption:pit_stop", 40_000);
    seed(&shards[1], &half_b, "caption:pit_stop", 40_000);

    let servers: Vec<_> = shards
        .iter()
        .map(|vdbms| start(Arc::clone(vdbms), ServerConfig::default()).expect("server"))
        .collect();
    let router = router::start(RouterConfig {
        shards: servers.iter().map(|s| s.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("router");

    let refused_promptly = |client: &mut Client, video: &str, text: &str| {
        let t = Instant::now();
        let err = client.query(video, text).expect_err("over the cap");
        assert_eq!(err.server_kind(), Some(ErrorKind::Internal), "{err}");
        assert!(err.to_string().contains("frame size cap"), "{err}");
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "the refusal took {:?}: the request dangled",
            t.elapsed()
        );
    };

    // Direct: the shard itself refuses, and keeps serving.
    let mut direct = Client::connect(servers[0].addr()).expect("connect");
    direct
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("the no-hang bound");
    refused_promptly(&mut direct, &big, "RETRIEVE HIGHLIGHTS");
    direct.ping().expect("the connection keeps serving");
    let half = direct.query(&half_a, "RETRIEVE PITSTOPS").expect("fits");
    assert_eq!(rows(half), 40_000);

    // Routed: the shard's refusal passes through typed…
    let mut routed = Client::connect(router.addr()).expect("connect");
    routed
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("the no-hang bound");
    refused_promptly(&mut routed, &big, "RETRIEVE HIGHLIGHTS");
    routed.ping().expect("the connection keeps serving");
    // …each half fits on its own, through the router too…
    for half in [&half_a, &half_b] {
        let reply = routed.query(half, "RETRIEVE PITSTOPS").expect("fits");
        assert_eq!(rows(reply), 40_000);
    }
    // …and the router applies the same cap to what it splices, cold and
    // again (an answer that cannot be sent must not be cached either).
    for _ in 0..2 {
        refused_promptly(&mut routed, "*", "RETRIEVE PITSTOPS");
    }
    // A sweep that fits still splices.
    let sweep = routed.query("*", "RETRIEVE HIGHLIGHTS WITH DRIVER \"X\"");
    assert_eq!(rows(sweep.expect("an empty sweep fits")), 0);
    // The sizes are what the comments above say they are.
    let mut raw = RawSession::connect(servers[1].addr());
    raw.send(&json!({"id": 1, "cmd": "query", "video": (half_b), "text": "RETRIEVE PITSTOPS"}));
    let half_len = raw.recv().len();
    assert!(half_len < MAX_FRAME_LEN && 2 * half_len > MAX_FRAME_LEN + 1024);

    router.shutdown();
    for server in servers {
        server.shutdown();
    }
}

/// A follower coalesced onto an identical query in flight gets the
/// leader's body — encoded once — under its own id, and is admitted
/// with the server full: identical traffic cannot be shed.
#[test]
fn a_coalesced_follower_and_its_leader_get_the_same_body_under_their_own_ids() {
    let vdbms = fixture_vdbms();
    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut session = RawSession::connect(handle.addr());

    // Hold the only worker, so that the leader waits in the queue while
    // the follower arrives (the reactor handles frames in order). The
    // leader takes the only queue slot: the server is at its admission
    // limit of 2, and a follower that needed a slot would come back
    // `overloaded` instead of with the leader's body.
    session.send(&json!({"id": 1, "cmd": "sleep", "ms": 300}));
    let registry = vdbms.kernel().metrics().registry();
    let picked_up = Instant::now() + Duration::from_secs(10);
    while registry.snapshot().gauge("serve.running", &[]) != 1 {
        assert!(Instant::now() < picked_up, "the worker never ran the sleep");
        std::thread::yield_now();
    }
    let query =
        |id: u64| json!({"id": id, "cmd": "query", "video": (VIDEO), "text": "RETRIEVE  pitstops"});
    session.send(&query(20));
    session.send(&query(21));
    let mut payloads = Vec::new();
    for _ in 0..3 {
        payloads.push(String::from_utf8(session.recv()).expect("UTF-8"));
    }
    let coalesced = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .counter("cache.coalesced", &[]);
    assert_eq!(coalesced, 1, "the second query must have been a follower");

    // The same frame but for the id, and the body is the one a fresh
    // execution sends.
    session.send(&query(22));
    payloads.push(String::from_utf8(session.recv()).expect("UTF-8"));
    let body_of = |id: u64| {
        let prefix = format!("{{\"id\":{id},\"ok\":true,\"result\":");
        let frame = payloads
            .iter()
            .find(|p| p.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no reply under id {id} in {payloads:?}"));
        frame[prefix.len()..].to_string()
    };
    assert_eq!(body_of(20), body_of(21));
    assert_eq!(body_of(20), body_of(22));
    let leader: Value = serde_json::from_str(
        payloads
            .iter()
            .find(|p| p.starts_with("{\"id\":20,"))
            .expect("leader"),
    )
    .expect("frames are JSON");
    let result = leader.get("result").expect("result");
    assert_eq!(result.get("kind").and_then(Value::as_str), Some("segments"));
    assert_eq!(
        result
            .get("segments")
            .and_then(Value::as_array)
            .map(Vec::len),
        Some(1)
    );
    handle.shutdown();
}
