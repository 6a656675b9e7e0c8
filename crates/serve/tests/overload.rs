//! Overload, deadline, disconnect and shutdown behavior — the serving
//! layer's guard rails under adversarial timing. The server mostly runs
//! in debug mode so the `sleep` command provides deterministic slow
//! queries (a budget-guarded busy-wait holding a real worker); the
//! admission regimes drive real all-cold queries from many clients.

mod common;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cobra_faults::{FaultPlan, Trigger};
use cobra_serve::client::{Client, RequestOpts};
use cobra_serve::protocol::ErrorKind;
use cobra_serve::server::{start, ServerConfig};
use serde_json::{json, Value};

use common::{fixture_vdbms, VIDEO};

/// One worker, one queue slot: admission limit 2, easy to saturate.
fn tiny_debug_server() -> (
    cobra_serve::server::ServerHandle,
    std::sync::Arc<f1_cobra::Vdbms>,
) {
    let vdbms = fixture_vdbms();
    let handle = start(
        std::sync::Arc::clone(&vdbms),
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (handle, vdbms)
}

fn registry(vdbms: &f1_cobra::Vdbms) -> &std::sync::Arc<cobra_obs::Registry> {
    vdbms.kernel().metrics().registry()
}

fn error_kind(response: &Value) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
}

#[test]
fn queue_full_rejects_promptly_without_hanging() {
    let (handle, vdbms) = tiny_debug_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Occupy the worker, give the pool a beat to pick the job up, then
    // fill the single queue slot.
    let id_running = client
        .send(json!({"cmd": "sleep", "ms": 600}))
        .expect("send running");
    std::thread::sleep(Duration::from_millis(150));
    let id_queued = client
        .send(json!({"cmd": "sleep", "ms": 10}))
        .expect("send queued");
    std::thread::sleep(Duration::from_millis(50));

    // The third request must be rejected immediately — not block until
    // a slot frees, not hang the session.
    let t = Instant::now();
    let id_rejected = client
        .send(json!({"cmd": "sleep", "ms": 10}))
        .expect("send rejected");
    let response = client.recv().expect("rejection arrives");
    assert!(
        t.elapsed() < Duration::from_millis(400),
        "overload answer took {:?}; admission control must not wait for capacity",
        t.elapsed()
    );
    assert_eq!(
        response.get("id").and_then(Value::as_u64),
        Some(id_rejected)
    );
    assert_eq!(error_kind(&response), Some("overloaded"));

    // The admitted requests still complete, in pool order.
    let mut ok_ids = Vec::new();
    for _ in 0..2 {
        let response = client.recv().expect("admitted answers arrive");
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        ok_ids.push(response.get("id").and_then(Value::as_u64).unwrap());
    }
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, vec![id_running, id_queued]);
    common::assert_pool_at_rest(registry(&vdbms));

    handle.shutdown();
}

#[test]
fn deadline_cancels_server_side_and_frees_the_worker() {
    let (handle, vdbms) = tiny_debug_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A 10-second job under a 100 ms deadline: the budget interrupts it
    // mid-run, long before it finishes on its own.
    let t = Instant::now();
    let err = client
        .sleep_ms(
            10_000,
            RequestOpts {
                deadline_ms: Some(100),
                fuel: None,
            },
        )
        .unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Deadline), "{err}");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "deadline response took {:?}; cancellation is not working",
        t.elapsed()
    );

    // The worker is free again: a short job completes promptly and the
    // session keeps serving.
    let t = Instant::now();
    client
        .sleep_ms(20, RequestOpts::default())
        .expect("worker must be free after a deadline cancellation");
    assert!(t.elapsed() < Duration::from_secs(5));
    common::assert_pool_at_rest(registry(&vdbms));

    handle.shutdown();
}

#[test]
fn deadline_lapsing_in_the_queue_fails_without_running() {
    let (handle, vdbms) = tiny_debug_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Worker busy for 700 ms; the queued request's 50 ms deadline lapses
    // while it waits, so it must fail at dequeue without occupying the
    // worker for its full 5 s body.
    client
        .send(json!({"cmd": "sleep", "ms": 700}))
        .expect("send blocker");
    std::thread::sleep(Duration::from_millis(100));
    let id_doomed = client
        .send(json!({"cmd": "sleep", "ms": 5000, "deadline_ms": 50}))
        .expect("send doomed");

    let t = Instant::now();
    let mut saw_deadline = false;
    for _ in 0..2 {
        let response = client.recv().expect("responses arrive");
        if response.get("id").and_then(Value::as_u64) == Some(id_doomed) {
            assert_eq!(error_kind(&response), Some("deadline"));
            saw_deadline = true;
        }
    }
    assert!(saw_deadline, "queued request never got its deadline answer");
    common::assert_pool_at_rest(registry(&vdbms));
    assert!(
        t.elapsed() < Duration::from_secs(3),
        "queue-lapsed deadline took {:?}; it must not run the 5s body",
        t.elapsed()
    );

    handle.shutdown();
}

#[test]
fn client_disconnect_cancels_in_flight_work() {
    let (handle, vdbms) = tiny_debug_server();

    // A doomed client starts a 10-second job and vanishes.
    {
        let mut doomed = Client::connect(handle.addr()).expect("connect doomed");
        doomed
            .send(json!({"cmd": "sleep", "ms": 10_000}))
            .expect("send");
        std::thread::sleep(Duration::from_millis(150)); // job reaches the worker
    } // drop = TCP close

    // Disconnect cancellation must free the lone worker far sooner than
    // the job's own duration.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let t = Instant::now();
    client
        .sleep_ms(20, RequestOpts::default())
        .expect("worker must be freed by disconnect cancellation");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "follow-up took {:?}; the orphaned job still holds the worker",
        t.elapsed()
    );

    let cancelled = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .counter("serve.cancelled_disconnect", &[]);
    assert_eq!(cancelled, 1, "disconnect cancellation not recorded");
    common::assert_pool_at_rest(registry(&vdbms));

    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_queries_under_fault_injection() {
    let vdbms = fixture_vdbms();
    let handle = start(
        std::sync::Arc::clone(&vdbms),
        ServerConfig {
            workers: 2,
            queue_cap: 8,
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Kernel faults firing while the server drains: shutdown must still
    // complete and every admitted request must get a typed answer.
    let plan = FaultPlan::new(7).fail("bat.select", Trigger::Times(2));
    let ((), _report) = vdbms.faults().scope(plan, || {
        let mut expected = Vec::new();
        for _ in 0..3 {
            expected.push(
                client
                    .send(json!({
                        "cmd": "query", "video": (VIDEO),
                        "text": "RETRIEVE PITSTOPS",
                    }))
                    .expect("send"),
            );
        }
        expected.push(
            client
                .send(json!({"cmd": "sleep", "ms": 300}))
                .expect("send sleep"),
        );

        // Collect every answer first — responses prove the requests were
        // admitted, so the shutdown below must drain nothing-or-answered
        // work, never strand it.
        let mut answered = Vec::new();
        for _ in 0..expected.len() {
            let response = client.recv().expect("every admitted request answers");
            // Injected faults may surface as typed internal errors; a
            // hang or a dropped connection is the only failure mode.
            answered.push(response.get("id").and_then(Value::as_u64).unwrap());
        }
        answered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(answered, expected);
        common::assert_pool_at_rest(registry(&vdbms));
    });

    let addr = handle.addr();
    let t = Instant::now();
    handle.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "shutdown hung for {:?}",
        t.elapsed()
    );

    // Shutdown returned ⇒ the accept thread joined and the listener
    // socket is closed, so the drained server refuses new connections.
    assert!(
        Client::connect(addr).is_err(),
        "listener still accepting after shutdown"
    );
}

/// `clients` threads each open one session and send 50 queries back to
/// back, so at most `clients` requests are ever in flight. Every text is
/// distinct (a `WITH DRIVER` suffix per client and request), so neither
/// the result cache nor single-flight coalescing absorbs any. Returns
/// how many were answered, shed as `overloaded`, and failed otherwise.
fn closed_loop(addr: SocketAddr, clients: usize) -> [usize; 3] {
    const BASES: [&str; 4] = [
        "RETRIEVE HIGHLIGHTS",
        "RETRIEVE EXCITED",
        "RETRIEVE PITSTOPS",
        "PROFILE RETRIEVE HIGHLIGHTS",
    ];
    let threads: Vec<_> = (0..clients)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("arm the no-hang bound");
                let mut tally = [0; 3];
                for r in k * 50..(k + 1) * 50 {
                    let text = format!("{} WITH DRIVER \"Z{r}\"", BASES[r % BASES.len()]);
                    tally[match client.query(VIDEO, &text) {
                        Ok(_) => 0,
                        Err(e) if e.server_kind() == Some(ErrorKind::Overloaded) => 1,
                        Err(_) => 2,
                    }] += 1;
                }
                tally
            })
        })
        .collect();
    threads.into_iter().fold([0; 3], |sum, t| {
        let tally = t.join().expect("client thread");
        [0, 1, 2].map(|i| sum[i] + tally[i])
    })
}

#[test]
fn admission_sheds_only_what_exceeds_the_limit_and_types_it() {
    const WORKERS: usize = 8;
    const QUEUE_CAP: usize = 32;

    let config = ServerConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        debug: true,
        ..ServerConfig::default()
    };
    let vdbms = fixture_vdbms();
    let registry = std::sync::Arc::clone(registry(&vdbms));
    let handle = start(vdbms, config).expect("server starts");
    let limit = handle.admission_limit();
    assert_eq!(limit, WORKERS + QUEUE_CAP);

    // 32 clients never fill 32 queue slots: nothing may be shed.
    let tally = closed_loop(handle.addr(), 32);
    assert_eq!(tally, [32 * 50, 0, 0], "below the admission limit");

    // Twice the limit: the excess is shed as typed `overloaded` answers,
    // the rest is answered. A 2 s `sleep` on every worker keeps all 80
    // first queries waiting at once, so 32 are queued and the other 48
    // are shed however fast the host runs the cold queries.
    let mut holder = Client::connect(handle.addr()).expect("connect");
    for _ in 0..WORKERS {
        holder
            .send(json!({"cmd": "sleep", "ms": 2000}))
            .expect("send sleep");
    }
    std::thread::sleep(Duration::from_millis(100));
    let [ok, shed, failed] = closed_loop(handle.addr(), 2 * limit);
    assert!(
        shed >= 2 * limit - QUEUE_CAP && failed == 0 && ok > 0,
        "at twice the limit: {ok} ok, {shed} overloaded, {failed} failed"
    );
    for _ in 0..WORKERS {
        let response = holder.recv().expect("sleep answer arrives");
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }
    common::assert_pool_at_rest(&registry);

    handle.shutdown();
}
