//! The spawn-free gather, driven directly over fake in-process shards.
//!
//! A fake shard is a listener thread speaking just enough of the
//! protocol: it answers the `version` handshake, and every other frame
//! with `{"shard": k, "req": r}` — `r` being the request id the router
//! stamped into the frame — under a stamp. The request itself scripts
//! the shard: with `"reverse": true` shard `k` holds its reply until
//! shard `k + 1` has sent its own for the same request, so replies
//! *arrive* in reverse shard order whatever the scheduler does (a router
//! that asked one shard after the other would get shard 0's typed
//! `internal` error once its patience ran out); with `"fail_on": k` shard
//! `k` answers a typed error.

use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::sync::Condvar;

use cobra_faults::{FaultHandle, FaultPlan, Trigger};

use super::*;
use crate::protocol::{write_frame, FrameDecoder};

/// The no-hang bound of everything a test waits for.
const PATIENCE: Duration = Duration::from_secs(10);

/// What the fake shards of one cluster share: which `(shard, req)`
/// replies have been written.
#[derive(Default)]
struct Replied {
    set: Mutex<HashSet<(u64, u64)>>,
    moved: Condvar,
}

/// Serves one router connection until the router hangs up.
fn serve_connection(mut stream: TcpStream, shard: u64, replied: &Replied) {
    let mut inbox = FrameDecoder::new();
    loop {
        let frame = loop {
            match inbox.next_frame() {
                Ok(Some(frame)) => break frame,
                Ok(None) => {}
                Err(_) => return,
            }
            if !matches!(inbox.read_from(&mut stream), Ok(n) if n > 0) {
                return;
            }
        };
        let id = frame.get("id").and_then(Value::as_u64).unwrap_or(0);
        let field = |name: &str| frame.get(name).and_then(Value::as_u64);
        let response = if frame.get("cmd").and_then(Value::as_str) == Some("version") {
            ok_response(
                id,
                json!({"kind": "version", "epoch": 1, "data_version": 1, "videos": []}),
            )
        } else if field("fail_on") == Some(shard) {
            err_response(id, ErrorKind::BadRequest, "scripted failure")
        } else {
            let req = frame
                .get("shard")
                .and_then(|s| s.get("req"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let reverse = frame.get("reverse").and_then(Value::as_bool) == Some(true);
            let next_shard_pending = |set: &mut HashSet<(u64, u64)>| {
                let has_next = field("shards").is_some_and(|n| shard + 1 < n);
                reverse && has_next && !set.contains(&(shard + 1, req))
            };
            let (mut set, wait) = replied
                .moved
                .wait_timeout_while(recover(&replied.set), PATIENCE / 2, next_shard_pending)
                .unwrap_or_else(|p| p.into_inner());
            if wait.timed_out() {
                err_response(id, ErrorKind::Internal, "the next shard never replied")
            } else {
                set.insert((shard, req));
                replied.moved.notify_all();
                let result = json!({"shard": (shard as f64), "req": (req as f64)});
                let mut response = ok_response(id, result);
                if let Value::Object(map) = &mut response {
                    map.insert("stamp".into(), json!({"epoch": 1, "data_version": 1}));
                }
                response
            }
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// A router over fake shards (none is dialed before a test forwards),
/// with a checked-out connection set to forward on.
struct Cluster {
    router: RouterHandle,
    conns: Vec<ShardConn>,
    faults: FaultHandle,
    /// The fake shards' addresses and listener threads, and what stops them.
    shards: Vec<(String, JoinHandle<()>)>,
    stop: Arc<AtomicBool>,
}

fn cluster(shards: u64) -> Cluster {
    let replied = Arc::new(Replied::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shards: Vec<(String, JoinHandle<()>)> = (0..shards)
        .map(|shard| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a fake shard");
            let addr = listener.local_addr().expect("fake shard address");
            let (replied, stop) = (Arc::clone(&replied), Arc::clone(&stop));
            let thread = std::thread::spawn(move || {
                let mut sessions = Vec::new();
                for stream in listener.incoming().flatten() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let replied = Arc::clone(&replied);
                    sessions.push(std::thread::spawn(move || {
                        serve_connection(stream, shard, &replied)
                    }));
                }
                for session in sessions {
                    session.join().expect("a fake shard session panicked");
                }
            });
            (addr.to_string(), thread)
        })
        .collect();
    let mut cluster = over(shards.iter().map(|(addr, _)| addr.clone()).collect());
    (cluster.shards, cluster.stop) = (shards, stop);
    cluster
}

/// A router over whatever listens — or does not — at `addrs`.
fn over(addrs: Vec<String>) -> Cluster {
    let faults = FaultHandle::default();
    let router = start(RouterConfig {
        shards: addrs,
        retry: RetryPolicy {
            max_retries: 2,
            backoff_ms: 1,
        },
        faults: faults.clone(),
        ..RouterConfig::default()
    })
    .expect("start the router");
    let conns = router.shared.checkout();
    Cluster {
        router,
        conns,
        faults,
        shards: Vec::new(),
        stop: Arc::default(),
    }
}

impl Cluster {
    /// One gather of `body` over every shard, as request `req`, bounded
    /// by a deadline so a broken gather fails instead of hanging.
    fn gather(&mut self, body: Value, req: u64) -> Vec<Result<Value, Fail>> {
        let shared = &self.router.shared;
        let every = shared.scopes("*");
        let deadline = Some(Instant::now() + PATIENCE);
        scatter(shared, &mut self.conns, &every, body, req, deadline)
            .map(|reply| Ok(serde_json::from_str(&reply?.result).expect("a JSON result")))
            .collect()
    }

    /// Shuts the router down, hangs up on the fake shards and joins them.
    fn finish(self) {
        self.router.shutdown();
        drop(self.conns);
        self.stop.store(true, Ordering::SeqCst);
        for (addr, thread) in self.shards {
            // Wakes the listener, which then sees `stop`.
            let _ = TcpStream::connect(addr);
            thread.join().expect("a fake shard panicked");
        }
    }

    fn forwards(&self, result: &str) -> u64 {
        let snapshot = self.router.shared.registry.snapshot();
        snapshot.counter("router.forward", &[("result", result)])
    }
}

/// The `(shard, req)` pairs of a gather that answered everywhere.
fn answered(replies: Vec<Result<Value, Fail>>) -> Vec<(u64, u64)> {
    let field = |v: &Value, name: &str| v.get(name).and_then(Value::as_u64).expect("a field");
    replies
        .into_iter()
        .map(|reply| reply.expect("the shard answered"))
        .map(|v| (field(&v, "shard"), field(&v, "req")))
        .collect()
}

#[test]
fn replies_arriving_in_reverse_shard_order_come_back_in_shard_order() {
    let mut cluster = cluster(3);
    let replies = cluster.gather(json!({"cmd": "echo", "reverse": true, "shards": 3}), 41);
    assert_eq!(answered(replies), [(0, 41), (1, 41), (2, 41)]);
    assert_eq!(cluster.forwards("ok"), 3);
    assert_eq!(cluster.forwards("retried"), 0);
    cluster.finish();
}

#[test]
fn one_lost_first_attempt_of_a_gather_is_masked_by_exactly_one_retry() {
    let mut cluster = cluster(3);
    let faults = cluster.faults.clone();
    let (replies, report) = faults.scope(
        FaultPlan::new(7).fail_transient("router.forward", Trigger::Times(1)),
        || cluster.gather(json!({"cmd": "echo"}), 5),
    );
    assert_eq!(answered(replies), [(0, 5), (1, 5), (2, 5)]);
    assert_eq!(report.count("router.forward"), 1);
    assert_eq!(cluster.forwards("retried"), 1);
    assert_eq!(cluster.forwards("ok"), 3);
    assert_eq!(cluster.forwards("failed"), 0);
    cluster.finish();
}

#[test]
fn a_reply_abandoned_by_a_strict_caller_is_skipped_by_id() {
    let mut cluster = cluster(3);
    // A strict caller stops at shard 0's typed error; what shards 1 and
    // 2 answered to request 1 stays unread on their connections.
    let shared = &cluster.router.shared;
    let body = json!({"cmd": "echo", "fail_on": 0});
    let strict: Result<Vec<Reply>, Fail> =
        scatter(shared, &mut cluster.conns, &[0, 1, 2], body, 1, None).collect();
    assert_eq!(strict.err().map(|fail| fail.0), Some(ErrorKind::BadRequest));
    // The next user of the same connections gets its own replies.
    let replies = cluster.gather(json!({"cmd": "echo"}), 2);
    assert_eq!(answered(replies), [(0, 2), (1, 2), (2, 2)]);
    assert_eq!(cluster.forwards("retried"), 0);
    cluster.finish();
}

#[test]
fn a_strict_caller_spends_one_retry_budget_and_a_degrading_one_each_shards() {
    // Two addresses nobody listens on.
    let dead = || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("address").to_string()
    };
    let mut cluster = over(vec![dead(), dead()]);
    let shared = &cluster.router.shared;
    let strict: Result<Vec<Reply>, Fail> = scatter(
        shared,
        &mut cluster.conns,
        &[0, 1],
        json!({"cmd": "echo"}),
        1,
        None,
    )
    .collect();
    let (kind, message) = strict.err().expect("no shard is up");
    assert_eq!(kind, ErrorKind::ShardUnavailable);
    assert!(
        message.contains("shard 0 unavailable after 3 attempts"),
        "{message}"
    );
    // The lowest failed shard decided; shard 1 was not retried.
    assert_eq!(cluster.forwards("failed"), 1);
    assert_eq!(cluster.forwards("retried"), 2);

    let degraded = cluster.gather(json!({"cmd": "echo"}), 2);
    assert!(degraded.iter().all(Result::is_err));
    assert_eq!(cluster.forwards("failed"), 3);
    assert_eq!(cluster.forwards("retried"), 6);
    cluster.finish();
}
