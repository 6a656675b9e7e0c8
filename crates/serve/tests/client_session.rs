//! The client's receive side against a scripted peer: what `Client`
//! does with frames that arrive in pieces, out of turn, or not for it.
//!
//! The peer is a plain socket driven by the test, so every interleaving
//! here is forced, not hoped for.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use cobra_serve::client::{Client, ClientError, QueryReply};
use cobra_serve::protocol::{
    encode_frame, err_response, ok_response, ErrorKind, FrameDecoder, FrameError,
};
use serde_json::{json, Value};

/// Accepts one connection and hands it to `script`.
fn scripted_peer(script: impl FnOnce(TcpStream) + Send + 'static) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        script(stream);
    });
    (addr, peer)
}

/// Blocks until the client's next request arrives and returns its id.
fn next_request_id(stream: &mut TcpStream, inbox: &mut FrameDecoder) -> u64 {
    loop {
        if let Some(request) = inbox.next_frame().expect("client frames decode") {
            return request.get("id").and_then(Value::as_u64).expect("id");
        }
        assert!(inbox.read_from(stream).expect("read") > 0, "client left");
    }
}

fn timed_out(e: &ClientError) -> bool {
    matches!(e, ClientError::Transport(FrameError::Io(e))
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
}

/// A read timeout in the middle of a frame — after part of the prefix,
/// or part of the payload — costs nothing: the timed-out `recv` reports
/// the timeout, and the next one returns the intact frame. (Two
/// `read_exact`s on the socket used to drop the consumed part, and the
/// next "prefix" was payload bytes.)
#[test]
fn a_recv_that_times_out_mid_frame_resumes_where_it_stopped() {
    let frames = [
        ok_response(1, json!({"kind": "stamp", "epoch": 3, "data_version": 41})),
        ok_response(2, json!({"kind": "stamp", "epoch": 3, "data_version": 42})),
    ];
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| encode_frame(f).expect("encodes"))
        .collect();
    // First frame cut inside the length prefix, second inside the payload.
    let cuts = [2, wire[1].len() / 2];

    let (go_tx, go_rx) = mpsc::channel::<()>();
    let script_wire = wire.clone();
    let (addr, peer) = scripted_peer(move |mut stream| {
        for (frame, cut) in script_wire.iter().zip(cuts) {
            stream.write_all(&frame[..cut]).expect("first part");
            // The rest only once the client has seen its timeout.
            go_rx.recv().expect("client timed out");
            stream.write_all(&frame[cut..]).expect("second part");
        }
        let _ = go_rx.recv(); // hold the socket open until the test is done
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    for expected in &frames {
        let err = client.recv().expect_err("only part of the frame is here");
        assert!(timed_out(&err), "expected a timeout, got {err}");
        go_tx.send(()).expect("peer alive");
        // Generous: the rest is on its way, this must not time out.
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        assert_eq!(&client.recv().expect("the frame, intact"), expected);
        client
            .set_timeout(Some(Duration::from_millis(100)))
            .expect("timeout");
    }
    drop(go_tx);
    peer.join().expect("peer");
}

/// While `query` waits for its reply, a push frame, a stale answer to an
/// abandoned request and a typed error for someone else's id may all
/// arrive first. The reply still decodes, the push is still delivered by
/// `next_push`, and the rest is skipped.
#[test]
fn a_push_between_a_query_and_its_reply_is_kept_for_next_push() {
    let segment = json!({"start": 30, "end": 31, "label": "pit_stop", "driver": "É\"😀"});
    let push = json!({
        "id": 7, "ok": true, "push": true,
        "result": {
            "kind": "delta", "subscription": 7, "video": "v",
            "added": [(segment.clone())], "removed": 0, "total": 3, "data_version": 12,
        },
    });
    let answer = json!({"kind": "segments", "segments": [(segment.clone())]});
    let (addr, peer) = scripted_peer(move |mut stream| {
        let mut inbox = FrameDecoder::new();
        let id = next_request_id(&mut stream, &mut inbox);
        let mut wire = Vec::new();
        for frame in [
            ok_response(id + 100, json!({"kind": "pong"})), // stale
            push.clone(),
            err_response(id + 101, ErrorKind::Deadline, "someone else's"),
            ok_response(id, answer.clone()),
        ] {
            wire.extend(encode_frame(&frame).expect("encodes"));
        }
        stream.write_all(&wire).expect("one burst");

        // Second exchange: the query is answered with a typed error.
        let id = next_request_id(&mut stream, &mut inbox);
        let refusal = err_response(id, ErrorKind::UnknownVideo, "no such video");
        stream
            .write_all(&encode_frame(&refusal).expect("encodes"))
            .expect("refusal");

        // Third: a result of the wrong shape is a protocol error.
        let id = next_request_id(&mut stream, &mut inbox);
        let odd = ok_response(id, json!({"kind": "segments", "segments": 5}));
        stream
            .write_all(&encode_frame(&odd).expect("encodes"))
            .expect("odd");

        // Fourth: bytes that are not JSON are a transport error.
        let _ = next_request_id(&mut stream, &mut inbox);
        stream
            .write_all(&[0, 0, 0, 5, b'{', b'"', b'i', b'd', b'"'])
            .expect("garbage");
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match client.query("v", "RETRIEVE PITSTOPS").expect("the reply") {
        QueryReply::Segments(segments) => {
            assert_eq!(segments.len(), 1);
            assert_eq!(segments[0].start, 30);
            assert_eq!(segments[0].driver.as_deref(), Some("É\"😀"));
        }
        other => panic!("expected segments, got {other:?}"),
    }
    let delta = client.next_push().expect("the buffered push");
    assert_eq!(delta.subscription, 7);
    assert_eq!(delta.video, "v");
    assert_eq!(delta.added.len(), 1);
    assert_eq!(delta.added[0].driver.as_deref(), Some("É\"😀"));
    assert_eq!((delta.removed, delta.total, delta.data_version), (0, 3, 12));

    let err = client.query("nope", "RETRIEVE PITSTOPS").unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::UnknownVideo));
    let err = client.query("v", "RETRIEVE PITSTOPS").unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    let err = client.query("v", "RETRIEVE PITSTOPS").unwrap_err();
    assert!(
        matches!(err, ClientError::Transport(FrameError::Json(_))),
        "{err}"
    );
    peer.join().expect("peer");
}
