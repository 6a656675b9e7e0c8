//! Protocol round trips against a live server: every command, typed
//! errors, and pipelined out-of-order correlation.

mod common;

use cobra_serve::client::{Client, QueryReply};
use cobra_serve::protocol::ErrorKind;
use cobra_serve::server::{start, ServerConfig};
use serde_json::{json, Value};

use common::{fixture_vdbms, VIDEO};

#[test]
fn full_command_surface_round_trips() {
    let vdbms = fixture_vdbms();
    let handle = start(vdbms, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");
    assert_eq!(client.videos().expect("videos"), vec![VIDEO.to_string()]);

    // A plain retrieval, answered through the real Moa→MIL→kernel path.
    match client.query(VIDEO, "RETRIEVE PITSTOPS").expect("query") {
        QueryReply::Segments(segments) => {
            assert_eq!(segments.len(), 1);
            assert_eq!(segments[0].start, 20);
            assert_eq!(segments[0].end, 35);
            assert_eq!(segments[0].driver.as_deref(), Some("MONTOYA"));
        }
        other => panic!("expected segments, got {other:?}"),
    }

    // PROFILE carries the measured span tree across the wire.
    match client
        .query(VIDEO, "PROFILE RETRIEVE HIGHLIGHTS")
        .expect("profile")
    {
        QueryReply::Profile { segments, span } => {
            assert_eq!(segments.len(), 1);
            assert_eq!(span.name, "query");
            assert!(
                span.find("conceptual:select_events").is_some(),
                "span tree lost its conceptual stage:\n{}",
                span.shape()
            );
        }
        other => panic!("expected profile, got {other:?}"),
    }

    // EXPLAIN ships the zero-timing plan shape.
    match client
        .query(VIDEO, "EXPLAIN RETRIEVE HIGHLIGHTS")
        .expect("explain")
    {
        QueryReply::Plan(span) => {
            assert_eq!(span.elapsed_ns, 0);
            assert!(span.find("moa:compile").is_some());
        }
        other => panic!("expected plan, got {other:?}"),
    }

    // STATS returns the registry snapshot, request counters included.
    let stats = client.stats().expect("stats");
    let counters = stats.get("counters").expect("counters object");
    let query_count = counters
        .as_object()
        .expect("counters is an object")
        .iter()
        .filter(|(name, _)| name.starts_with("serve.requests"))
        .count();
    assert!(query_count > 0, "no serve.requests counters in {stats}");

    handle.shutdown();
}

#[test]
fn typed_errors_reach_the_client() {
    let vdbms = fixture_vdbms();
    let handle = start(vdbms, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let err = client.query("nope", "RETRIEVE HIGHLIGHTS").unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::UnknownVideo));

    let err = client.query(VIDEO, "FETCH ME EVERYTHING").unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Parse));

    // Structurally invalid requests get bad_request, not a dropped
    // connection — and the session keeps serving afterwards.
    client.send(json!({"cmd": "warp"})).expect("send");
    let response = client.recv().expect("recv");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("bad_request")
    );
    client.ping().expect("session survives a bad request");

    // The debug 'sleep' command is refused when debug mode is off.
    client.send(json!({"cmd": "sleep", "ms": 1})).expect("send");
    let response = client.recv().expect("recv");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("bad_request"),
        "sleep must not exist outside debug mode"
    );

    handle.shutdown();
}

/// A row that ends before it starts is refused at the write, typed, so
/// the video keeps answering the retrievals that read that kind.
#[test]
fn a_row_that_ends_before_it_starts_is_refused_and_the_video_keeps_answering() {
    let vdbms = fixture_vdbms();
    let registry = std::sync::Arc::clone(vdbms.kernel().metrics().registry());
    let config = ServerConfig {
        debug: true,
        ..ServerConfig::default()
    };
    let handle = start(vdbms, config).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(std::time::Duration::from_secs(15)))
        .expect("the no-hang bound");

    let err = client
        .write_event(VIDEO, "caption:pit_stop", 15, 5, None)
        .unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::BadRequest), "{err}");
    match client
        .query(VIDEO, "RETRIEVE HIGHLIGHTS AT PITLANE")
        .expect("the video still answers")
    {
        QueryReply::Segments(segments) => assert_eq!(segments.len(), 1),
        other => panic!("expected segments, got {other:?}"),
    }
    let panics = registry.snapshot().counter("serve.worker_panics", &[]);
    assert_eq!(panics, 0);
    common::assert_pool_at_rest(&registry);

    handle.shutdown();
}

#[test]
fn pipelined_requests_correlate_by_id() {
    let vdbms = fixture_vdbms();
    let handle = start(vdbms, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let id_a = client
        .send(json!({"cmd": "query", "video": (VIDEO), "text": "RETRIEVE PITSTOPS"}))
        .expect("send a");
    let id_b = client
        .send(json!({"cmd": "query", "video": (VIDEO), "text": "RETRIEVE WINNER"}))
        .expect("send b");
    assert_ne!(id_a, id_b);

    let mut seen = std::collections::HashMap::new();
    for _ in 0..2 {
        let response = client.recv().expect("recv");
        let id = response.get("id").and_then(Value::as_u64).expect("id");
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        seen.insert(id, response);
    }
    assert!(seen.contains_key(&id_a) && seen.contains_key(&id_b));

    handle.shutdown();
}

#[test]
fn concurrent_sessions_get_consistent_answers() {
    let vdbms = fixture_vdbms();
    let handle = start(vdbms, ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..10 {
                    match client.query(VIDEO, "RETRIEVE PITSTOPS").expect("query") {
                        QueryReply::Segments(segments) => {
                            assert_eq!(segments.len(), 1);
                            assert_eq!(segments[0].start, 20);
                        }
                        other => panic!("expected segments, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    handle.shutdown();
}
