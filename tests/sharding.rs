//! Sharded serving integration tests: real worker processes, a real
//! scatter-gather router, deterministic answers, and death without
//! hangs.
//!
//! Every test boots a [`ShardCluster`] — genuine `cobra-serve` children
//! over seeded per-shard data dirs, fronted by an in-process router —
//! and drives it through the public wire protocol only. The tests
//! share one process-wide gate: the clusters spawn real processes, so
//! running them serially keeps every observation attributable.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cobra_faults::{FaultPlan, Trigger};
use cobra_obs::Registry;
use cobra_serve::client::{unwrap_response, Client, ClientError, QueryReply};
use cobra_serve::ring::{Ring, DEFAULT_SEED};
use cobra_serve::ErrorKind;
use common::shard::{event, seed_video, RawSession, SeedVideo, ShardCluster};
use serde_json::{json, Value};

static GATE: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Six videos with distinct, deterministic event layers.
fn fixture_videos() -> Vec<SeedVideo> {
    (0..6)
        .map(|i| {
            seed_video(
                &format!("race-{i}"),
                400,
                vec![
                    event("highlight", 10 + i * 3, 30 + i * 3, None),
                    event("highlight", 100 + i * 5, 120 + i * 5, Some("MONTOYA")),
                    event("pit_stop", 200, 202, None),
                ],
            )
        })
        .collect()
}

/// Sends a query over the raw protocol and returns the undecoded
/// `result` object — for byte-identical comparisons.
fn raw_query(client: &mut Client, video: &str, text: &str) -> Result<Value, ClientError> {
    raw_request(
        client,
        json!({"cmd": "query", "video": (video), "text": (text)}),
    )
}

/// [`raw_query`] with a deadline of its own, which keeps the query out
/// of the router's result cache (`front::shareable`): the router
/// forwards it to every shard it reads and merges the replies afresh.
fn uncached_query(client: &mut Client, video: &str, text: &str) -> Result<Value, ClientError> {
    raw_request(
        client,
        json!({"cmd": "query", "video": (video), "text": (text), "deadline_ms": 60_000}),
    )
}

fn raw_request(client: &mut Client, request: Value) -> Result<Value, ClientError> {
    let id = client.send(request)?;
    loop {
        let response = client.recv()?;
        if response.get("id").and_then(Value::as_u64) != Some(id) {
            continue;
        }
        return unwrap_response(response);
    }
}

#[test]
fn queries_route_to_the_owning_shard() {
    let _gate = serialize();
    let videos = fixture_videos();
    let cluster = ShardCluster::start(3, &videos);
    let mut router = cluster.client();

    // The catalog is the union of the shards, sorted.
    let names: Vec<String> = videos.iter().map(|v| v.name.clone()).collect();
    assert_eq!(router.videos().expect("videos over the router"), names);

    for video in &videos {
        let owner = cluster.owner(&video.name);
        let via_router =
            raw_query(&mut router, &video.name, "RETRIEVE HIGHLIGHTS").expect("routed query");
        let mut owner_client = cluster.worker_client(owner);
        let direct = raw_query(&mut owner_client, &video.name, "RETRIEVE HIGHLIGHTS")
            .expect("direct query on the owner");
        assert_eq!(
            via_router, direct,
            "router answer for {} must be the owner shard's answer",
            video.name
        );

        // Partitioning is real: every other shard does not know the video.
        for other in 0..cluster.ring().shards() {
            if other == owner {
                continue;
            }
            let mut other_client = cluster.worker_client(other);
            let err = raw_query(&mut other_client, &video.name, "RETRIEVE HIGHLIGHTS")
                .expect_err("non-owner shard must not hold the video");
            assert_eq!(err.server_kind(), Some(ErrorKind::UnknownVideo));
        }
    }
    cluster.assert_router_at_rest();
}

#[test]
fn cross_video_answers_merge_deterministically() {
    let _gate = serialize();
    let videos = fixture_videos();
    // Past the router cache: both sweeps must *execute* and still
    // agree — the merge order itself is deterministic, not just memoized.
    let cluster = ShardCluster::start(3, &videos);
    let mut router = cluster.client();

    let first = uncached_query(&mut router, "*", "RETRIEVE HIGHLIGHTS").expect("first sweep");
    let second = uncached_query(&mut router, "*", "RETRIEVE HIGHLIGHTS").expect("second sweep");
    assert_eq!(first, second, "identical sweeps must answer identically");

    assert_eq!(first.get("kind").and_then(Value::as_str), Some("multi"));
    let groups = first
        .get("videos")
        .and_then(Value::as_array)
        .expect("segment groups");
    let group_names: Vec<&str> = groups
        .iter()
        .filter_map(|g| g.get("video").and_then(Value::as_str))
        .collect();
    let mut sorted = group_names.clone();
    sorted.sort_unstable();
    assert_eq!(group_names, sorted, "groups must come back in name order");
    assert_eq!(
        group_names,
        videos.iter().map(|v| v.name.as_str()).collect::<Vec<_>>(),
        "the sweep must cover every video exactly once"
    );

    // The sweep equals the union of single-video answers.
    for group in groups {
        let name = group.get("video").and_then(Value::as_str).expect("name");
        let single =
            uncached_query(&mut router, name, "RETRIEVE HIGHLIGHTS").expect("single query");
        assert_eq!(
            group.get("segments"),
            single.get("segments"),
            "sweep group for {name} must equal the single-video answer"
        );
    }
    cluster.assert_router_at_rest();
}

/// The single node: `videos` in one in-process server, and its metrics.
fn single_node(videos: &[SeedVideo]) -> (cobra_serve::server::ServerHandle, Arc<Registry>) {
    let vdbms = f1_cobra::Vdbms::try_new().expect("vdbms");
    for video in videos {
        vdbms
            .catalog
            .register_video(f1_cobra::catalog::VideoInfo {
                name: video.name.clone(),
                n_clips: video.n_clips,
                n_frames: video.n_clips * 25 / 10,
            })
            .expect("register");
        vdbms
            .catalog
            .store_events(&video.name, &video.events)
            .expect("store");
    }
    let registry = Arc::clone(vdbms.kernel().metrics().registry());
    let server = cobra_serve::server::start(
        Arc::new(vdbms),
        cobra_serve::server::ServerConfig {
            debug: true,
            ..Default::default()
        },
    )
    .expect("single node");
    (server, registry)
}

/// ROADMAP aim 3, literally: whichever path an answer takes — forwarded
/// by the router, spliced from several shards, served from the router's
/// cache, re-executed after a write voided it — the reply is, byte for
/// byte, the frame one server holding every video sends for the same
/// request, whether that server executed it or spliced it from the
/// segment lists its own cache stored. Covers every statement shape this
/// suite sends.
#[test]
fn every_path_returns_the_same_bytes_as_a_single_node() {
    let _gate = serialize();
    let videos = fixture_videos();
    let cluster = ShardCluster::start(3, &videos);
    let registry = cluster.registry();

    let (single, single_registry) = single_node(&videos);

    let mut routed = RawSession::connect(cluster.router_addr());
    let mut direct = RawSession::connect(single.addr());
    let mut id = 0u64;
    let mut both = |mut request: Value| {
        id += 1;
        if let Value::Object(map) = &mut request {
            map.insert("id".into(), Value::Number(id as f64));
        }
        (routed.call(&request), direct.call(&request))
    };
    let query = |video: &str, text: &str| json!({"cmd": "query", "video": (video), "text": (text)});

    // Plain retrievals the router caches, then shapes it only forwards:
    // an unknown video, a statement that does not parse.
    let cacheable = [
        ("race-0", "RETRIEVE HIGHLIGHTS"),
        ("race-3", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\""),
        ("*", "RETRIEVE HIGHLIGHTS"),
        ("*", "RETRIEVE PITSTOPS"),
    ];
    let forwarded = [
        ("nope", "RETRIEVE HIGHLIGHTS"),
        ("race-2", "FETCH ME EVERYTHING"),
    ];
    let rounds = [
        "cold",
        "from the router cache",
        "after a write voided it",
        "from both caches",
    ];
    for round in rounds {
        let (snap, single_snap) = (registry.snapshot(), single_registry.snapshot());
        if round == "after a write voided it" {
            let write = json!({
                "cmd": "write_event", "video": "race-0", "kind": "highlight",
                "start": 300, "end": 310, "driver": "É \"quoted\" \\ 😀",
            });
            let (via_router, on_single) = both(write);
            assert!(via_router.contains("\"ok\":true"), "{via_router}");
            assert!(on_single.contains("\"ok\":true"), "{on_single}");
        }
        for (video, text) in &cacheable {
            let (via_router, on_single) = both(query(video, text));
            assert_eq!(via_router, on_single, "{round}: {video}: {text}");
        }
        // The single node's own cache, one lookup per video an answer
        // reads: two single-video answers and two sweeps of six.
        let single_d = single_registry.snapshot().delta(&single_snap);
        let (single_hits, single_misses) = match round {
            // The sweep of highlights finds race-0's answer just stored.
            "cold" => (1, 13),
            // The highlight write voided race-0's highlight answer
            // only: the pit-stop sweep's group of race-0 reads no
            // highlight and still hits, and the highlight sweep finds
            // race-0's answer stored again by the single-video query
            // before it.
            "after a write voided it" => (13, 1),
            // Every sweep is spliced from stored lists.
            _ => (14, 0),
        };
        let counted = |result| single_d.counter("cache.result", &[("result", result)]);
        assert_eq!(
            (counted("hit"), counted("miss")),
            (single_hits, single_misses),
            "{round}"
        );
        for (video, text) in &forwarded {
            let (via_router, on_single) = both(query(video, text));
            assert_eq!(via_router, on_single, "{round}: {video}: {text}");
        }
        // The rounds took the paths they are named after. The cache
        // counts what one shard answered: a sweep is a part per shard.
        let d = registry.snapshot().delta(&snap);
        let (hits, voided) = match round {
            "cold" => (0, 0),
            // Two single-video answers, two sweeps of three parts.
            "from the router cache" | "from both caches" => (2 + 2 * 3, 0),
            // The highlight write on race-0 voids what reads its rows:
            // race-0's answer and race-0's shard's part of the highlight
            // sweep. Race-3's answer reads another driver, and the
            // pit-stop sweep another kind, so they hit wherever they
            // live, as do the highlight sweep's other two parts.
            _ => (1 + 2 + 3, 2),
        };
        assert_eq!(
            d.counter("cache.result", &[("result", "hit")]),
            hits,
            "{round}"
        );
        assert_eq!(
            d.counter("cache.result", &[("result", "invalidated")]),
            voided,
            "{round}"
        );
    }
    let (sweep, _) = both(query("*", "RETRIEVE HIGHLIGHTS"));
    assert!(
        sweep.contains(r#""driver":"É \"quoted\" \\ 😀""#),
        "{sweep}"
    );

    // A profile carries timings, which differ from run to run; the rows
    // and the shape of the span tree may not.
    let (via_router, on_single) = both(query("race-4", "PROFILE RETRIEVE HIGHLIGHTS"));
    let profile = |payload: &str| {
        let frame: Value = serde_json::from_str(payload).expect("a frame");
        let result = frame.get("result").cloned().expect("result");
        let span = result.get("span").and_then(cobra_obs::SpanNode::from_json);
        (
            result.get("segments").cloned().expect("segments"),
            span.expect("a span tree").shape(),
        )
    };
    assert_eq!(profile(&via_router), profile(&on_single));

    // A plan quotes the costs its own process measured, so the node to
    // compare with is the shard that owns the video: the router forwards
    // its frame as it is.
    let mut owner = RawSession::connect(cluster.worker_addr(cluster.owner("race-1")));
    let explain = json!({
        "id": 77, "cmd": "query", "video": "race-1", "text": "EXPLAIN RETRIEVE HIGHLIGHTS",
    });
    assert_eq!(routed.call(&explain), owner.call(&explain));

    cluster.assert_router_at_rest();
    single.shutdown();
}

#[test]
fn worker_death_mid_scatter_is_typed_and_never_hangs() {
    let _gate = serialize();
    let videos = fixture_videos();
    let mut cluster = ShardCluster::start(3, &videos);
    let mut router = cluster.client();

    let baseline = raw_query(&mut router, "*", "RETRIEVE HIGHLIGHTS").expect("baseline sweep");
    let victim = cluster.owner("race-0");
    let pre_kill_epoch = cluster
        .worker_client(victim)
        .version()
        .expect("victim version")
        .get("epoch")
        .and_then(Value::as_u64)
        .expect("victim epoch");

    // A background client hammers cross-video sweeps while the worker
    // dies. Every outcome must be a full answer or the typed shard
    // error, within the harness timeout — nothing in between, and no
    // hang (the client read timeout turns one into a loud failure).
    let stop = Arc::new(AtomicBool::new(false));
    let sweeper = {
        let stop = Arc::clone(&stop);
        let mut client = cluster.client();
        std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            while !stop.load(Ordering::Acquire) {
                outcomes.push(raw_query(&mut client, "*", "RETRIEVE HIGHLIGHTS"));
            }
            outcomes
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    cluster.kill(victim);
    std::thread::sleep(std::time::Duration::from_millis(300));

    // With the shard down, a sweep fails *typed*; videos on surviving
    // shards keep answering.
    let err = raw_query(&mut router, "*", "RETRIEVE HIGHLIGHTS")
        .expect_err("sweep with a dead shard must fail");
    assert_eq!(err.server_kind(), Some(ErrorKind::ShardUnavailable));
    let survivor = videos
        .iter()
        .find(|v| cluster.owner(&v.name) != victim)
        .expect("a video on a surviving shard");
    raw_query(&mut router, &survivor.name, "RETRIEVE HIGHLIGHTS")
        .expect("surviving shards keep serving");

    stop.store(true, Ordering::Release);
    let outcomes = sweeper.join().expect("sweeper never hangs or panics");
    assert!(!outcomes.is_empty());
    for outcome in &outcomes {
        match outcome {
            Ok(_) => {}
            Err(e) => assert_eq!(
                e.server_kind(),
                Some(ErrorKind::ShardUnavailable),
                "mid-kill sweeps may only fail with the typed shard error, got: {e}"
            ),
        }
    }

    // Restart over the same data dir: WAL recovery brings the slice
    // back, the epoch moves past the dead incarnation, the router is
    // re-pointed, and the sweep answers byte-identically again.
    cluster.restart(victim);
    let post_restart_epoch = cluster
        .worker_client(victim)
        .version()
        .expect("restarted version")
        .get("epoch")
        .and_then(Value::as_u64)
        .expect("restarted epoch");
    assert!(
        post_restart_epoch > pre_kill_epoch,
        "restart must advance the shard epoch ({pre_kill_epoch} -> {post_restart_epoch})"
    );
    let recovered = raw_query(&mut router, "*", "RETRIEVE HIGHLIGHTS").expect("recovered sweep");
    assert_eq!(
        recovered, baseline,
        "the recovered sweep must be byte-identical to the pre-kill answer"
    );
}

#[test]
fn injected_forward_faults_are_retried_then_typed() {
    let _gate = serialize();
    let videos = fixture_videos();
    // Past the router cache, so each request is exactly one forward (no
    // version probes consuming armed fault invocations).
    let cluster = ShardCluster::start(2, &videos);
    let registry = cluster.registry();
    let mut router = cluster.client();
    uncached_query(&mut router, "race-0", "RETRIEVE HIGHLIGHTS").expect("warm-up query");

    // One transient transport fault: masked by a re-dispatch.
    let snap = registry.snapshot();
    let (result, report) = cluster.faults().scope(
        FaultPlan::new(7).fail_transient("router.forward", Trigger::Times(1)),
        || uncached_query(&mut router, "race-0", "RETRIEVE HIGHLIGHTS"),
    );
    result.expect("one transport blip must be masked by re-dispatch");
    assert_eq!(report.count("router.forward"), 1);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("router.forward", &[("result", "retried")]), 1);
    assert_eq!(d.counter("router.forward", &[("result", "ok")]), 1);

    // A permanently failing transport: retries exhaust into the typed
    // error instead of hanging or lying.
    let snap = registry.snapshot();
    let (result, report) = cluster.faults().scope(
        FaultPlan::new(7).fail_transient("router.forward", Trigger::Always),
        || uncached_query(&mut router, "race-0", "RETRIEVE HIGHLIGHTS"),
    );
    let err = result.expect_err("a dead transport must surface");
    assert_eq!(err.server_kind(), Some(ErrorKind::ShardUnavailable));
    assert_eq!(report.count("router.forward"), 3, "1 try + 2 retries");
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("router.forward", &[("result", "failed")]), 1);

    // Faults disarmed: the same session keeps working (the simulated
    // failure never corrupted the real connection).
    uncached_query(&mut router, "race-0", "RETRIEVE HIGHLIGHTS").expect("recovery after faults");
}

/// Two videos on provably different shards of a 2-shard ring: the
/// first on shard 0 with two highlights, the second on shard 1 with one.
fn one_video_per_shard() -> Vec<SeedVideo> {
    let ring = Ring::new(2, DEFAULT_SEED);
    let on = |shard: u32| {
        (0..32)
            .map(|i| format!("race-{i}"))
            .find(|name| ring.owner(name) == shard)
            .expect("a video on the shard")
    };
    vec![
        seed_video(
            &on(0),
            400,
            vec![
                event("highlight", 10, 30, None),
                event("highlight", 100, 120, None),
            ],
        ),
        seed_video(&on(1), 400, vec![event("highlight", 50, 70, None)]),
    ]
}

#[test]
fn cross_shard_writes_invalidate_only_dependent_cached_answers() {
    let _gate = serialize();
    let videos = one_video_per_shard();
    let (video_a, video_b) = (videos[0].name.clone(), videos[1].name.clone());
    let cluster = ShardCluster::start(2, &videos);
    let registry = cluster.registry();
    let mut router = cluster.client();

    let count = |client: &mut Client, video: &str| -> usize {
        match client.query(video, "RETRIEVE HIGHLIGHTS") {
            Ok(QueryReply::Segments(segments)) => segments.len(),
            other => panic!("expected segments for {video}, got {other:?}"),
        }
    };
    let sweep_count = |client: &mut Client, video: &str| -> usize {
        match client.query("*", "RETRIEVE HIGHLIGHTS") {
            Ok(QueryReply::Multi(groups)) => groups
                .iter()
                .find(|g| g.video == video)
                .map(|g| g.segments.len())
                .expect("sweep group"),
            other => panic!("expected a multi reply, got {other:?}"),
        }
    };

    // Populate, then prove all three answers hit: the two videos' and
    // the sweep's part from each shard.
    assert_eq!(count(&mut router, &video_a), 2);
    assert_eq!(count(&mut router, &video_b), 1);
    assert_eq!(sweep_count(&mut router, &video_a), 2);
    let snap = registry.snapshot();
    count(&mut router, &video_a);
    count(&mut router, &video_b);
    sweep_count(&mut router, &video_a);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 4);
    assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 0);

    // Write through the router onto video A's shard.
    router
        .write_event(&video_a, "highlight", 300, 310, None)
        .expect("routed write");

    // Video B's cached answer read only shard 1 — still a hit.
    let snap = registry.snapshot();
    assert_eq!(count(&mut router, &video_b), 1);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 0);

    // Video A's answer and the sweep's shard-0 part read shard 0:
    // exactly those two are invalidated, and both see the new event.
    // The sweep's shard-1 part is still a hit.
    let snap = registry.snapshot();
    assert_eq!(count(&mut router, &video_a), 3);
    assert_eq!(sweep_count(&mut router, &video_a), 3);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 2);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);

    // And the re-executed answers are themselves cached again.
    let snap = registry.snapshot();
    assert_eq!(count(&mut router, &video_a), 3);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);
    cluster.assert_router_at_rest();
}

/// The shard is the unit of a cached sweep: a write on shard 0 sends the
/// next sweep to shard 0 alone, shard 1's part coming from the cache —
/// and a part is never served once its shard's stamp is unknown.
#[test]
fn a_write_on_one_shard_reasks_only_that_shard_for_a_sweep() {
    let _gate = serialize();
    let videos = one_video_per_shard();
    let mut cluster = ShardCluster::start(2, &videos);
    let registry = cluster.registry();
    let (single, _) = single_node(&videos);
    let mut routed = RawSession::connect(cluster.router_addr());
    let mut direct = RawSession::connect(single.addr());
    let sweep = json!({"id": 9, "cmd": "query", "video": "*", "text": "RETRIEVE HIGHLIGHTS"});
    assert_eq!(routed.call(&sweep), direct.call(&sweep), "cold");

    let write = json!({
        "id": 10, "cmd": "write_event", "video": (videos[0].name.as_str()),
        "kind": "highlight", "start": 300, "end": 310,
    });
    assert!(routed.call(&write).contains("\"ok\":true"));
    assert!(direct.call(&write).contains("\"ok\":true"));

    let asked = |cluster: &ShardCluster| [0, 1].map(|s| worker_requests(cluster, s, "query"));
    let (before, snap) = (asked(&cluster), registry.snapshot());
    assert_eq!(routed.call(&sweep), direct.call(&sweep), "after the write");
    let (after, d) = (asked(&cluster), registry.snapshot().delta(&snap));
    assert_eq!(after[0] - before[0], 1, "the written shard is asked again");
    assert_eq!(after[1] - before[1], 0, "the other shard's part is cached");
    assert_eq!(d.counter("router.forward", &[("result", "ok")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);

    // A write made on shard 1 itself voids that shard's part when its
    // stamp arrives by the feed; shard 0 is not asked again.
    for addr in [
        cluster.worker_addr(1).to_string(),
        single.addr().to_string(),
    ] {
        Client::connect(addr)
            .expect("connect")
            .write_event(&videos[1].name, "highlight", 320, 330, None)
            .expect("direct write");
    }
    let want = direct.call(&sweep);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while routed.call(&sweep) != want {
        assert!(
            std::time::Instant::now() < deadline,
            "a direct shard write must reach routed sweeps within 1 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(worker_requests(&cluster, 0, "query"), after[0]);

    // Shard 1 dies: its feed drops, its stamp is unknown, its part
    // misses — the sweep is the typed error from the moment the router
    // notices, never an answer spliced from what shard 1 said before.
    cluster.kill(1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let unavailable = loop {
        let reply = routed.call(&sweep);
        if reply.contains("\"ok\":false") {
            break reply;
        }
        // The router has not seen the feed drop yet.
        assert_eq!(reply, direct.call(&sweep));
        assert!(
            std::time::Instant::now() < deadline,
            "a dead shard's cached part must stop being served"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert!(unavailable.contains("shard_unavailable"), "{unavailable}");
    for _ in 0..3 {
        assert!(routed.call(&sweep).contains("shard_unavailable"));
    }
    // Rebooted under a new epoch, it is asked again: same bytes.
    cluster.restart(1);
    assert_eq!(routed.call(&sweep), want, "after the reboot");
    single.shutdown();
}

/// Each part a routed statement reads is looked up in the router cache
/// exactly once, whether a shard is asked for it or the router answers
/// from the cache: `cache.result` hits plus misses move by the number of
/// shards the statement reads, one for a single video and every shard
/// for `"*"`, so `router.cache_hit_ratio` counts parts.
#[test]
fn each_part_is_looked_up_exactly_once() {
    let _gate = serialize();
    let videos = one_video_per_shard();
    let cluster = ShardCluster::start(2, &videos);
    let registry = cluster.registry();
    let mut routed = RawSession::connect(cluster.router_addr());
    let text = "RETRIEVE HIGHLIGHTS";
    let query = |video: &str| json!({"id": 1, "cmd": "query", "video": (video), "text": (text)});
    let (single, sweep) = (query(&videos[0].name), query("*"));
    // Asks `request` and checks how many parts it looked up, hit and
    // forwarded.
    let mut step = |what: &str, request: &Value, [reads, hits, forwards]: [u64; 3]| {
        let snap = registry.snapshot();
        let reply = routed.call(request);
        assert!(reply.contains("\"ok\":true"), "{what}: {reply}");
        let d = registry.snapshot().delta(&snap);
        let looked = |result| d.counter("cache.result", &[("result", result)]);
        assert_eq!(looked("hit") + looked("miss"), reads, "{what}: lookups");
        assert_eq!(looked("hit"), hits, "{what}: hits");
        let forwarded = d.counter("router.forward", &[("result", "ok")]);
        assert_eq!(forwarded, forwards, "{what}: forwards");
    };
    step("a single video, cold", &single, [1, 0, 1]);
    step("a single video, cached", &single, [1, 1, 0]);
    step("a sweep, cold", &sweep, [2, 0, 2]);
    step("a sweep, cached", &sweep, [2, 2, 0]);
    // A write on shard 1 voids that shard's part of the sweep alone.
    let write = json!({
        "id": 2, "cmd": "write_event", "video": (videos[1].name.as_str()),
        "kind": "highlight", "start": 300, "end": 310,
    });
    let ack = RawSession::connect(cluster.router_addr()).call(&write);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    step("a sweep after a write on shard 1", &sweep, [2, 1, 1]);
}

#[test]
fn topology_commands_report_every_shard() {
    let _gate = serialize();
    let videos = fixture_videos();
    let cluster = ShardCluster::start(3, &videos);
    let mut router = cluster.client();

    // `version` aggregates one entry per shard, in shard order, and
    // places every video on exactly the shard the ring assigns.
    let version = router.version().expect("router version");
    let shards = version
        .get("shards")
        .and_then(Value::as_array)
        .expect("per-shard entries");
    assert_eq!(shards.len(), 3);
    for (shard, entry) in shards.iter().enumerate() {
        assert_eq!(
            entry.get("shard").and_then(Value::as_u64),
            Some(shard as u64)
        );
        let held: Vec<&str> = entry
            .get("videos")
            .and_then(Value::as_array)
            .expect("shard videos")
            .iter()
            .filter_map(Value::as_str)
            .collect();
        for video in &videos {
            let owned_here = cluster.owner(&video.name) == shard as u32;
            assert_eq!(
                held.contains(&video.name.as_str()),
                owned_here,
                "video {} on shard {shard}",
                video.name
            );
        }
    }

    // `stats` answers with the router's own snapshot plus per-shard
    // snapshots; `checkpoint` fans out and reports durability.
    let stats = router.stats().expect("router stats");
    assert!(stats.get("counters").is_some());
    let checkpoint = router.checkpoint().expect("router checkpoint");
    assert_eq!(
        checkpoint.get("durable").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        checkpoint
            .get("shards")
            .and_then(Value::as_array)
            .map(Vec::len),
        Some(3)
    );
    cluster.assert_router_at_rest();
}

/// Reads one worker's `serve.requests{cmd=…}` counter over the wire.
fn worker_requests(cluster: &ShardCluster, shard: u32, cmd: &str) -> u64 {
    let snapshot = cluster.worker_client(shard).stats().expect("worker stats");
    snapshot
        .get("counters")
        .and_then(|c| c.get(&format!("serve.requests{{cmd={cmd}}}")))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// The router learns of shard commits by push, not by asking: a write
/// made *directly* on a shard (bypassing the router, so no ack passes
/// through it) shows up in routed reads without a single `version`
/// probe reaching that shard. And a shard's cached answers die with its
/// feed: once the shard is killed, the router answers the typed error —
/// it never falls back to what it had cached.
#[test]
fn out_of_band_writes_arrive_by_push_and_a_dead_shard_is_never_served_from_cache() {
    let _gate = serialize();
    let videos = fixture_videos();
    let mut cluster = ShardCluster::start(2, &videos);
    let registry = cluster.registry();
    let mut router = cluster.client();
    let video = "race-0";
    let owner = cluster.owner(video);
    let count = |router: &mut Client| -> Result<usize, ClientError> {
        match router.query(video, "RETRIEVE HIGHLIGHTS")? {
            QueryReply::Segments(segments) => Ok(segments.len()),
            other => panic!("expected segments, got {other:?}"),
        }
    };

    // Populate the router cache and prove the repeat is served from it.
    assert_eq!(count(&mut router).expect("first read"), 2);
    let snap = registry.snapshot();
    assert_eq!(count(&mut router).expect("cached read"), 2);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);

    // Write on the shard itself. The router sees no ack; only the
    // shard's stamp push can tell it.
    let probes = worker_requests(&cluster, owner, "version");
    cluster
        .worker_client(owner)
        .write_event(video, "highlight", 300, 310, None)
        .expect("direct write on the shard");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while count(&mut router).expect("routed read") != 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "a direct shard write must reach routed reads within 1 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        worker_requests(&cluster, owner, "version"),
        probes,
        "the router must learn of the write by push, not by probing"
    );

    // The fresh answer is cached again…
    let snap = registry.snapshot();
    assert_eq!(count(&mut router).expect("re-cached read"), 3);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);

    // …until its shard dies. The feed drops with the process; from the
    // moment the router notices, the cached answer is unreachable.
    cluster.kill(owner);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match count(&mut router) {
            // The router has not seen the feed drop yet.
            Ok(n) => assert_eq!(n, 3),
            Err(e) => {
                assert_eq!(e.server_kind(), Some(ErrorKind::ShardUnavailable), "{e}");
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a dead shard's cached answer must stop being served"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for _ in 0..3 {
        let err = count(&mut router).expect_err("the dead shard stays unavailable");
        assert_eq!(err.server_kind(), Some(ErrorKind::ShardUnavailable));
    }
}

/// Eight videos of 1,200 clips, each with 600 events and drivers
/// `Z0`…`Z63`: enough work per part that shards have something to
/// split.
fn sweep_videos() -> Vec<SeedVideo> {
    const CLIPS: usize = 1200;
    (0..8)
        .map(|v| {
            let events = (0..CLIPS / 2)
                .map(|i| {
                    let kind = ["highlight", "excited", "caption:pit_stop"][i % 3];
                    let driver = (i % 4 == 0).then(|| format!("Z{}", i % 64));
                    event(kind, i * 2, i * 2 + 1, driver.as_deref())
                })
                .collect();
            seed_video(&format!("race-{v}"), CLIPS, events)
        })
        .collect()
}

/// Closed-loop all-cold sweeps through 1, 2 and 4 shards, router cache
/// off: every sweep is answered and asks each shard exactly once, with
/// no retry (the router's own `router.forward` counters show a hidden
/// retry or a shard asked twice on any host). The scaling bounds need
/// an optimised build and four cores to scale onto.
#[test]
fn every_sweep_asks_each_shard_once_at_every_width() {
    const CLIENTS: usize = 8;
    const SWEEPS_PER_CLIENT: usize = 60;
    const BASES: [&str; 3] = [
        "RETRIEVE HIGHLIGHTS",
        "RETRIEVE EXCITED",
        "RETRIEVE PITSTOPS",
    ];
    let _gate = serialize();
    let videos = sweep_videos();
    let sweeps = CLIENTS * SWEEPS_PER_CLIENT;
    let mut rps = Vec::new();
    for shards in [1u32, 2, 4] {
        let cluster = ShardCluster::start(shards, &videos);
        let registry = cluster.registry();
        let before = registry.snapshot();
        let started = std::time::Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let mut client = cluster.client();
                std::thread::spawn(move || {
                    // A driver per client and sweep: nothing repeats, so
                    // no worker answers from its result cache either.
                    (0..SWEEPS_PER_CLIENT)
                        .filter_map(|i| {
                            let r = k * SWEEPS_PER_CLIENT + i;
                            let text = format!("{} WITH DRIVER \"Z{r}\"", BASES[r % BASES.len()]);
                            client.query("*", &text).err().map(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let failed: Vec<String> = clients
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect();
        rps.push(sweeps as f64 / started.elapsed().as_secs_f64());
        assert!(failed.is_empty(), "{shards} shard(s): {failed:?}");
        let d = registry.snapshot().delta(&before);
        assert_eq!(
            d.counter("router.forward", &[("result", "ok")]),
            sweeps as u64 * u64::from(shards),
            "{shards} shard(s): every shard asked once per sweep"
        );
        assert_eq!(d.counter("router.forward", &[("result", "retried")]), 0);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !cfg!(debug_assertions) && cores >= 4 {
        for (shards, got, want) in [(2, rps[1], 1.1), (4, rps[2], 1.5)] {
            assert!(
                got / rps[0] >= want,
                "{shards} shards run {:.2}x one shard on {cores} cores (want >= {want}x)",
                got / rps[0]
            );
        }
    }
}
