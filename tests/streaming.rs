//! cobra-stream integration: standing `SUBSCRIBE` queries must deliver
//! exactly the post-write deltas — a push after every write that
//! changes the answer, and provably *no* traffic otherwise.
//!
//! The single-server tests drive an in-process server over the wire
//! protocol and counter-prove silence with the `stream.*` metrics (a
//! sleep proves nothing; an unmoved push counter plus a moved skip
//! counter proves the notifier looked and stayed quiet). The sharded
//! tests boot real worker processes behind a router and pin the
//! scoping contract: a write on shard A pushes to shard-A subscribers
//! only, and a SIGKILLed shard surfaces as a typed `shard_unavailable`
//! frame — never a hang — with the subscription resuming after the
//! shard reboots from its durable state.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cobra_obs::Registry;
use cobra_serve::client::ClientError;
use cobra_serve::server::{start, ServerConfig};
use cobra_serve::ErrorKind;
use common::shard::{event, seed_video, SeedVideo, ShardCluster};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
use serde_json::Value;

/// Spawning real worker processes and binding ports is process-global
/// state; the cluster tests take this gate so their observations stay
/// attributable.
static GATE: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn ev(kind: &str, start: usize, end: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    }
}

fn fixture(events: &[EventRecord]) -> Arc<Vdbms> {
    let vdbms = Vdbms::try_new().expect("vdbms boots");
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips: 400,
            n_frames: 400 * 25 / 10,
        })
        .expect("register test video");
    vdbms
        .catalog
        .store_events("v", events)
        .expect("seed events");
    Arc::new(vdbms)
}

/// Reads a counter out of the `stream.*` family on the in-process
/// registry.
fn stream_counter(vdbms: &Vdbms, name: &str) -> u64 {
    vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .counter(name, &[])
}

/// A served test's quiescent end, right after its last reply, read
/// once without waiting: `open` standing queries in the hub, and the
/// pool at rest.
fn assert_at_rest(registry: &Registry, open: i64) {
    let snapshot = registry.snapshot();
    let gauges =
        ["stream.active", "serve.running", "serve.queue_depth"].map(|g| snapshot.gauge(g, &[]));
    assert_eq!(
        gauges,
        [open, 0, 0],
        "stream.active, serve.running and serve.queue_depth at rest"
    );
}

/// The acceptance criterion verbatim: a write that changes the answer
/// pushes exactly its delta; a write the query does not read pushes
/// nothing; no write pushes nothing — all three proven by counters,
/// not sleeps.
#[test]
fn subscribe_delivers_exactly_the_post_write_deltas() {
    let vdbms = fixture(&[
        ev("highlight", 10, 40, None),
        ev("highlight", 90, 120, Some("MONTOYA")),
    ]);
    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("arm timeout");

    let (sub, initial) = client
        .subscribe("v", "RETRIEVE HIGHLIGHTS")
        .expect("subscribe");
    let initial_segments = initial
        .get("videos")
        .and_then(Value::as_array)
        .and_then(|groups| groups.first())
        .and_then(|g| g.get("segments"))
        .and_then(Value::as_array)
        .map_or(0, Vec::len);
    assert_eq!(
        initial_segments, 2,
        "initial answer carries the seed events"
    );

    // A write the standing query reads: exactly one delta, exactly the
    // new segment.
    client
        .write_event("v", "highlight", 200, 230, Some("SCHUMACHER"))
        .expect("write highlight");
    let push = client.next_push().expect("delta after the write");
    assert_eq!(push.subscription, sub);
    assert_eq!(push.video, "v");
    assert_eq!(push.added.len(), 1, "delta carries only the new segment");
    assert_eq!(push.added[0].start, 200);
    assert_eq!(push.added[0].end, 230);
    assert_eq!(push.total, 3);
    assert_eq!(push.removed, 0);

    // A write the query does *not* read: the statement's guard stays
    // where it was, so the notifier skips it without evaluating —
    // silence, proven by the skip-counter moving while the unchanged-
    // and push-counters do not.
    let pushes_before = stream_counter(&vdbms, "stream.pushes");
    let unchanged_before = stream_counter(&vdbms, "stream.unchanged");
    let version_before = vdbms.catalog.data_version();
    client
        .write_event("v", "caption:pit_stop", 300, 305, None)
        .expect("write unrelated event");
    assert!(vdbms.catalog.data_version() > version_before, "committed");
    // Two sweeps: the second began after the write was acknowledged.
    let skipped_before = stream_counter(&vdbms, "stream.skipped");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stream_counter(&vdbms, "stream.skipped") < skipped_before + 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "notifier must look again after the unrelated write"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        stream_counter(&vdbms, "stream.unchanged"),
        unchanged_before,
        "a write outside what the statement reads is never evaluated"
    );
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        pushes_before,
        "a write outside the answer must not push"
    );

    // No write at all: the next sweeps skip on the unchanged vector
    // without evaluating, and still nothing is pushed.
    let skipped_before = stream_counter(&vdbms, "stream.skipped");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stream_counter(&vdbms, "stream.skipped") == skipped_before {
        assert!(
            std::time::Instant::now() < deadline,
            "idle sweeps must keep running"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        pushes_before,
        "no write, no push"
    );

    // And the client-side view agrees: no frame is waiting.
    client
        .set_timeout(Some(Duration::from_millis(200)))
        .expect("shorten timeout");
    assert!(
        matches!(client.next_push(), Err(ClientError::Transport(_))),
        "no push frame may be in flight"
    );
    assert_at_rest(vdbms.kernel().metrics().registry(), 1);

    handle.shutdown();
}

/// A standing query over every video (`"*"`) is guarded like one over
/// a single video: by the largest guard of what it reads over the
/// catalog's videos. A write outside that — another kind, or a feature
/// store — moves `stream.skipped` and pushes nothing; a write it reads
/// pushes its delta.
#[test]
fn a_sweep_subscription_skips_writes_outside_what_it_reads() {
    let vdbms = fixture(&[ev("highlight", 10, 40, Some("MONTOYA"))]);
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "w".into(),
            n_clips: 400,
            n_frames: 400 * 25 / 10,
        })
        .expect("register a second video");
    vdbms
        .catalog
        .store_events("w", &[ev("excited", 0, 5, None)])
        .expect("seed the second video");
    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("arm timeout");
    let text = "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"";
    let (sub, _) = client.subscribe("*", text).expect("subscribe");

    let pushes_before = stream_counter(&vdbms, "stream.pushes");
    let unchanged_before = stream_counter(&vdbms, "stream.unchanged");
    for video in ["v", "w"] {
        client
            .write_event(video, "caption:pit_stop", 300, 305, Some("BARRICHELLO"))
            .expect("write another kind and driver");
    }
    vdbms
        .catalog
        .store_features("w", &vec![vec![0.5]; 4])
        .expect("store features");
    // Two sweeps: the second began after the writes were acknowledged.
    let skipped_before = stream_counter(&vdbms, "stream.skipped");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stream_counter(&vdbms, "stream.skipped") < skipped_before + 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "notifier must look again after the writes"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        stream_counter(&vdbms, "stream.unchanged"),
        unchanged_before,
        "writes outside what the statement reads are never evaluated"
    );
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        pushes_before,
        "writes outside the answer must not push"
    );

    client
        .write_event("w", "highlight", 200, 230, Some("MONTOYA"))
        .expect("write a row it reads");
    let push = client.next_push().expect("delta after the write");
    assert_eq!(push.subscription, sub);
    assert_eq!(push.video, "w");
    assert_eq!(push.added.len(), 1);
    assert_eq!(push.added[0].start, 200);
    assert_at_rest(vdbms.kernel().metrics().registry(), 1);
    handle.shutdown();
}

/// Waits until the notifier has swept twice more, the second sweep
/// begun after the write before this call was acknowledged.
fn two_sweeps(vdbms: &Vdbms) {
    let skipped_before = stream_counter(vdbms, "stream.skipped");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stream_counter(vdbms, "stream.skipped") < skipped_before + 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "notifier must look again after the write"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The overlap rule at the hub: a driver-named standing query reads
/// where the driver is visible only while its kind has unnamed rows. On
/// a video whose highlights all name someone, a write naming the driver
/// is skipped without evaluation; an unnamed highlight in the driver's
/// view pushes its delta, and from then on a write naming the driver is
/// evaluated again.
#[test]
fn a_driver_named_subscription_reads_the_drivers_rows_only_while_its_kind_has_unnamed_rows() {
    let vdbms = fixture(&[
        ev("highlight", 100, 130, Some("A")),
        ev("highlight", 200, 230, Some("B")),
    ]);
    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("arm timeout");
    let (sub, _) = client
        .subscribe("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"A\"")
        .expect("subscribe");

    // Every highlight names someone: where A is visible cannot matter.
    let pushes_before = stream_counter(&vdbms, "stream.pushes");
    let unchanged_before = stream_counter(&vdbms, "stream.unchanged");
    client
        .write_event("v", "caption:pit_stop", 300, 305, Some("A"))
        .expect("write a caption naming A");
    two_sweeps(&vdbms);
    assert_eq!(
        stream_counter(&vdbms, "stream.unchanged"),
        unchanged_before,
        "a write naming A is not evaluated while no highlight is unnamed"
    );
    assert_eq!(stream_counter(&vdbms, "stream.pushes"), pushes_before);

    // An unnamed highlight where A is visible (50 clips around a row
    // naming A) joins the answer.
    client
        .write_event("v", "highlight", 140, 150, None)
        .expect("write an unnamed highlight");
    let push = client.next_push().expect("delta after the write");
    assert_eq!(push.subscription, sub);
    assert_eq!(push.added.len(), 1);
    assert_eq!((push.added[0].start, push.total), (140, 2));

    // Now a write naming A can move the answer, so it is evaluated,
    // though this one, far from the unnamed highlight, does not.
    client
        .write_event("v", "caption:pit_stop", 380, 385, Some("A"))
        .expect("write another caption naming A");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stream_counter(&vdbms, "stream.unchanged") == unchanged_before {
        assert!(
            std::time::Instant::now() < deadline,
            "a write naming A is evaluated once a highlight is unnamed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client
        .set_timeout(Some(Duration::from_millis(200)))
        .expect("shorten timeout");
    assert!(
        matches!(client.next_push(), Err(ClientError::Transport(_))),
        "an unchanged answer pushes nothing"
    );
    assert_at_rest(vdbms.kernel().metrics().registry(), 1);
    handle.shutdown();
}

#[test]
fn unsubscribe_stops_the_stream() {
    let vdbms = fixture(&[ev("highlight", 10, 40, None)]);
    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            debug: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("arm timeout");

    let (sub, _) = client
        .subscribe("v", "RETRIEVE HIGHLIGHTS")
        .expect("subscribe");
    client
        .write_event("v", "highlight", 60, 80, None)
        .expect("write");
    let push = client.next_push().expect("delta while subscribed");
    assert_eq!(push.total, 2);

    client.unsubscribe(sub).expect("unsubscribe");
    let pushes_before = stream_counter(&vdbms, "stream.pushes");
    client
        .write_event("v", "highlight", 200, 220, None)
        .expect("write after unsubscribe");
    // The write must be durable and queryable — just not pushed.
    let answer = client
        .query("v", "RETRIEVE HIGHLIGHTS")
        .expect("query still works");
    match answer {
        cobra_serve::client::QueryReply::Segments(segments) => assert_eq!(segments.len(), 3),
        other => panic!("unexpected reply {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        pushes_before,
        "a retired subscription must not push"
    );
    // No standing query may remain registered.
    assert_at_rest(vdbms.kernel().metrics().registry(), 0);
    handle.shutdown();
}

/// The live-race loop end to end inside one process: a subscriber
/// armed *before* any data exists watches the answer grow as the
/// broadcast arrives chunk by chunk through the incremental ingest
/// path; every chunk is accounted for as one delta or as silence, and
/// the deltas add up to the direct-query answer.
#[test]
fn chunked_ingest_streams_deltas_to_a_live_subscriber() {
    let vdbms = Arc::new(Vdbms::try_new().expect("vdbms boots"));
    let handle = start(Arc::clone(&vdbms), ServerConfig::default()).expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("arm timeout");

    // Subscribe before the video exists: the subscription arms over
    // the empty answer and delivers once the race starts.
    let (_, initial) = client
        .subscribe("german", "RETRIEVE PITSTOPS")
        .expect("subscribe");
    let empty_start = initial
        .get("videos")
        .and_then(Value::as_array)
        .and_then(|groups| groups.first())
        .and_then(|g| g.get("segments"))
        .and_then(Value::as_array)
        .map_or(0, Vec::len);
    assert_eq!(empty_start, 0, "nothing is ingested yet");

    // Chunk by chunk: a committed chunk that moves the direct-query
    // answer owes the subscriber exactly one delta, landing on the new
    // total; one that does not owes silence. A lost delta runs into the
    // client timeout, a spurious one is counted.
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 120));
    let mut answer = Vec::new();
    let mut streamed = Vec::new();
    let (mut frames, mut moved, mut unchanged) = (0u64, 0u64, 0u64);
    for chunk in scenario.chunks(10) {
        vdbms
            .ingest_chunk("german", &scenario, &chunk)
            .expect("chunk ingests");
        let truth = vdbms
            .query("german", "RETRIEVE PITSTOPS")
            .expect("direct answer");
        if truth == answer {
            unchanged += 1;
            continue;
        }
        moved += 1;
        answer = truth;
        loop {
            let push = client.next_push().expect("delta while the race streams in");
            assert_eq!(push.video, "german");
            assert_eq!(push.removed, 0, "pit stops only accumulate");
            frames += 1;
            streamed.extend(push.added);
            if push.total as usize == answer.len() {
                break;
            }
        }
    }
    assert!(
        moved > 0 && unchanged > 0,
        "a 120s German broadcast has chunks with and without pit stops: {moved} / {unchanged}"
    );
    assert_eq!(
        frames, moved,
        "one delta per chunk that moved the answer, none for the other {unchanged}"
    );
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        frames,
        "the hub pushed nothing the subscriber did not read"
    );
    // The drained stream is the direct-query answer: no segment was
    // lost on the way, none sent twice.
    assert_eq!(streamed, answer);
    assert_at_rest(vdbms.kernel().metrics().registry(), 1);
    handle.shutdown();
}

/// Annotation in front of a standing query: the first annotation of a
/// video owes a `RETRIEVE HIGHLIGHTS` subscriber one delta carrying
/// every highlight, a re-annotation that derives the same rows owes
/// silence — the hub re-evaluates once and finds the answer unchanged —
/// and no delta ever passes through an emptied layer (`removed` stays 0,
/// no total falls short of the answer).
#[test]
fn a_reannotation_is_at_most_one_delta_and_never_an_empty_answer() {
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 90));
    let vdbms = Arc::new(Vdbms::try_new().expect("vdbms boots"));
    vdbms.ingest("german", &scenario).expect("ingest");
    let windows = f1_cobra::training_windows(scenario.n_clips);
    vdbms
        .train_highlight_net("german", &scenario, &windows, true)
        .expect("train");
    let handle = start(Arc::clone(&vdbms), ServerConfig::default()).expect("server starts");
    let mut client = cobra_serve::Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("arm timeout");
    client
        .subscribe("german", "RETRIEVE HIGHLIGHTS")
        .expect("subscribe");

    vdbms.annotate("german", "av").expect("annotate");
    let highlights = vdbms
        .query("german", "RETRIEVE HIGHLIGHTS")
        .expect("direct answer");
    assert!(!highlights.is_empty());
    let push = client.next_push().expect("the first annotation's delta");
    assert_eq!(push.added, highlights, "one delta, the whole answer");
    assert_eq!((push.removed, push.total as usize), (0, highlights.len()));

    for _ in 0..3 {
        let unchanged = stream_counter(&vdbms, "stream.unchanged");
        vdbms.annotate("german", "av").expect("re-annotate");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stream_counter(&vdbms, "stream.unchanged") == unchanged {
            assert!(
                std::time::Instant::now() < deadline,
                "the hub must re-evaluate after the re-annotation"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert_eq!(
        stream_counter(&vdbms, "stream.pushes"),
        1,
        "a re-annotation deriving the same rows pushes nothing"
    );
    client
        .set_timeout(Some(Duration::from_millis(200)))
        .expect("shorten timeout");
    assert!(
        matches!(client.next_push(), Err(ClientError::Transport(_))),
        "no push frame may be in flight"
    );
    assert_at_rest(vdbms.kernel().metrics().registry(), 1);
    handle.shutdown();
}

/// Six videos spread across three shards, same layout as the sharding
/// suite.
fn cluster_videos() -> Vec<SeedVideo> {
    (0..6)
        .map(|i| {
            seed_video(
                &format!("race-{i}"),
                400,
                vec![
                    event("highlight", 10 + i * 3, 30 + i * 3, None),
                    event("pit_stop", 200, 202, None),
                ],
            )
        })
        .collect()
}

/// Two videos owned by different shards.
fn videos_on_distinct_shards(cluster: &ShardCluster, videos: &[SeedVideo]) -> (String, String) {
    let first = videos[0].name.clone();
    let owner = cluster.owner(&first);
    let other = videos
        .iter()
        .map(|v| v.name.clone())
        .find(|name| cluster.owner(name) != owner)
        .expect("fixture spans more than one shard");
    (first, other)
}

/// Reads one worker's `serve.requests{cmd=query}` counter over the
/// wire — the proof that a write on shard A never costs shard B a
/// query.
fn worker_query_count(cluster: &ShardCluster, shard: u32) -> u64 {
    let snapshot = cluster.worker_client(shard).stats().expect("worker stats");
    snapshot
        .get("counters")
        .and_then(|c| c.get("serve.requests{cmd=query}"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn sharded_write_notifies_only_the_owning_shards_subscribers() {
    let _gate = serialize();
    let videos = cluster_videos();
    let cluster = ShardCluster::start(3, &videos);
    let (video_a, video_b) = videos_on_distinct_shards(&cluster, &videos);
    let shard_b = cluster.owner(&video_b);

    let mut watcher_a = cluster.client();
    let mut watcher_b = cluster.client();
    let (sub_a, _) = watcher_a
        .subscribe(&video_a, "RETRIEVE HIGHLIGHTS")
        .expect("subscribe on shard A's video");
    watcher_b
        .subscribe(&video_b, "RETRIEVE HIGHLIGHTS")
        .expect("subscribe on shard B's video");

    // Let both notifiers finish their first poll cycles before
    // snapshotting shard B's query counter.
    std::thread::sleep(Duration::from_millis(300));
    let shard_b_queries = worker_query_count(&cluster, shard_b);

    let mut writer = cluster.client();
    writer
        .write_event(&video_a, "highlight", 250, 270, Some("MONTOYA"))
        .expect("write through the router");

    let push = watcher_a
        .next_push()
        .expect("shard A's subscriber sees the write");
    assert_eq!(push.subscription, sub_a);
    assert_eq!(push.video, video_a);
    assert_eq!(push.added.len(), 1);
    assert_eq!(push.added[0].start, 250);

    // Several poll cycles later, shard B has answered version probes
    // but not a single query — the bump was scoped to shard A.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        worker_query_count(&cluster, shard_b),
        shard_b_queries,
        "a write on shard A must not re-evaluate against shard B"
    );
    watcher_b
        .set_timeout(Some(Duration::from_millis(300)))
        .expect("shorten timeout");
    assert!(
        matches!(watcher_b.next_push(), Err(ClientError::Transport(_))),
        "shard B's subscriber must see no push"
    );
    cluster.assert_router_at_rest();
    assert_at_rest(&cluster.registry(), 2);
}

#[test]
fn dead_shard_surfaces_typed_error_and_subscription_resumes_after_reboot() {
    let _gate = serialize();
    let videos = cluster_videos();
    let mut cluster = ShardCluster::start(3, &videos);
    let (video, _) = videos_on_distinct_shards(&cluster, &videos);
    let owner = cluster.owner(&video);

    let mut watcher = cluster.client();
    let (sub, _) = watcher
        .subscribe(&video, "RETRIEVE HIGHLIGHTS")
        .expect("subscribe through the router");

    // SIGKILL the owning shard: the next frame must be the typed
    // error, inside the harness timeout — never a hang.
    cluster.kill(owner);
    match watcher.next_push() {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::ShardUnavailable, "got: {message}");
        }
        other => panic!("expected shard_unavailable, got {other:?}"),
    }

    // Reboot over the same durable dir; the fresh epoch re-arms the
    // subscription, and the next write flows again.
    cluster.restart(owner);
    let mut writer = cluster.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match writer.write_event(&video, "highlight", 300, 320, None) {
            Ok(_) => break,
            Err(e) => assert!(
                std::time::Instant::now() < deadline,
                "rebooted shard must accept writes: {e}"
            ),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let push = watcher.next_push().expect("delta after the shard rebooted");
    assert_eq!(push.subscription, sub);
    assert_eq!(push.video, video);
    assert!(
        push.added.iter().any(|s| s.start == 300),
        "the post-reboot write must arrive as a delta"
    );
    cluster.assert_router_at_rest();
    assert_at_rest(&cluster.registry(), 1);
}
