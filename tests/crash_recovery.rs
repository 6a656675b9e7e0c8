//! Crash-recovery matrix for the durable storage engine.
//!
//! Every test boots a [`Vdbms`] against a throwaway data directory,
//! mutates the catalog, simulates a crash (dropping the handle without
//! any flush/checkpoint, optionally with a `store.*` fault injected at a
//! protocol-critical instant) and reboots from the same directory. The
//! invariant under test is the WAL contract:
//!
//! * every *acknowledged* mutation survives the crash, exactly;
//! * a mutation that failed before acknowledgement is either absent or
//!   replayed whole — never torn;
//! * recovery never panics, whatever the tail of the log looks like;
//! * a post-crash process can never serve a pre-crash cached result
//!   (boot epochs make version vectors from different incarnations
//!   disjoint).

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_faults::{FaultPlan, Trigger};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{CobraError, FsyncPolicy, StoreConfig, Vdbms};

/// A self-deleting scratch data directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cobra-crash-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale dir from a previous (killed) run must not leak state in.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Durable config with the background checkpointer disabled, so every
/// checkpoint in these tests happens exactly where the test says.
fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::new(dir)
    }
}

fn boot(dir: &Path) -> Vdbms {
    Vdbms::open(&config(dir)).expect("durable boot")
}

fn register(vdbms: &Vdbms, video: &str) {
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: video.into(),
            n_clips: 120,
            n_frames: 300,
        })
        .expect("register video");
}

fn event(kind: &str, start: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end: start + 10,
        driver: driver.map(str::to_string),
    }
}

#[test]
fn acknowledged_mutations_survive_reboot() {
    let dir = TempDir::new("plain");
    // One row per registered clip; row 1 carries a NaN to prove bit-exact f64 round-tripping.
    let mut features: Vec<Vec<f64>> = (0..120)
        .map(|t| vec![t as f64 * 0.25, -(t as f64)])
        .collect();
    features[1][0] = f64::NAN;
    {
        let vdbms = boot(&dir.path().join("data"));
        assert_eq!(vdbms.store_stats().epoch, 1, "fresh dir boots at epoch 1");
        register(&vdbms, "german");
        vdbms
            .catalog
            .store_features("german", &features)
            .expect("store features");
        vdbms
            .catalog
            .store_events(
                "german",
                &[
                    event("highlight", 10, None),
                    event("fly_out", 40, Some("SCHUMACHER")),
                ],
            )
            .expect("store events");
        // Crash: drop without flush or checkpoint.
    }

    let vdbms = boot(&dir.path().join("data"));
    let rec = vdbms.recovery_report().expect("durable boot reports");
    assert_eq!(rec.epoch, 2);
    assert!(rec.replayed >= 3, "register + features + events: {rec:?}");
    assert!(!rec.torn_tail);
    assert_eq!(vdbms.catalog.videos(), vec!["german".to_string()]);
    let info = vdbms.catalog.video("german").expect("video info");
    assert_eq!((info.n_clips, info.n_frames), (120, 300));
    let loaded = vdbms
        .catalog
        .load_features("german", 2)
        .expect("features back");
    assert_eq!(loaded.len(), 120);
    assert_eq!(loaded[2], vec![0.5, -2.0]);
    assert!(loaded[1][0].is_nan(), "NaN survives the WAL byte-exactly");
    let events = vdbms.catalog.events("german", None).expect("events back");
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].driver.as_deref(), Some("SCHUMACHER"));
}

#[test]
fn streamed_feature_appends_survive_reboot() {
    let dir = TempDir::new("append");
    // Chunked ingest: appends straddle a checkpoint, so recovery must
    // extend the snapshotted columns with the replayed tail — exactly
    // the crash-mid-stream case.
    {
        let vdbms = boot(&dir.path().join("data"));
        register(&vdbms, "german");
        vdbms
            .catalog
            .append_features("german", &[vec![0.1, 1.0], vec![0.2, 2.0]])
            .expect("append chunk 1");
        vdbms
            .catalog
            .checkpoint()
            .expect("checkpoint")
            .expect("durable backend checkpoints");
        vdbms
            .catalog
            .append_features("german", &[vec![0.3, 3.0]])
            .expect("append chunk 2");
        // Crash: chunk 2 lives only in the WAL tail.
    }

    let vdbms = boot(&dir.path().join("data"));
    let rec = vdbms.recovery_report().expect("durable boot reports");
    assert!(!rec.torn_tail);
    for (k, want) in [(1, vec![0.1, 0.2, 0.3]), (2, vec![1.0, 2.0, 3.0])] {
        let handle = vdbms
            .catalog
            .kernel()
            .bat(&format!("german.f{k}"))
            .expect("feature column recovered");
        let bat = handle.read();
        let got: Vec<f64> = (0..bat.len())
            .map(|t| bat.tail_at(t).unwrap().as_dbl().unwrap())
            .collect();
        assert_eq!(got, want, "column f{k}");
    }
}

/// Streams `chunks` into `vdbms`; on every chunk after the first the
/// second WAL append of the window fails, and the chunk is sent again.
/// Returns how many chunks needed that.
fn stream_failing_second_append(
    vdbms: &Vdbms,
    scenario: &f1_media::synth::scenario::RaceScenario,
    chunks: &[f1_media::synth::stream::Chunk],
) -> usize {
    let mut retried = 0;
    for chunk in chunks {
        let plan = FaultPlan::new(1).fail(
            "store.wal.append",
            Trigger::Nth {
                skip: if chunk.index == 0 { u32::MAX } else { 1 },
                times: 1,
            },
        );
        let (first, faults) = vdbms
            .faults()
            .scope(plan, || vdbms.ingest_chunk("german", scenario, chunk));
        if faults.count("store.wal.append") == 0 {
            first.expect("no fault fired");
            continue;
        }
        assert!(
            matches!(first, Err(CobraError::Store(_))),
            "chunk {}: {first:?}",
            chunk.index
        );
        vdbms
            .ingest_chunk("german", scenario, chunk)
            .expect("the failed chunk can be sent again");
        retried += 1;
    }
    retried
}

/// A streamed window is two commits, caption events and feature rows.
/// When the second one fails, the chunk can be sent again: it must land
/// exactly once — no feature row twice (every later clip's features
/// would be misaligned), no caption twice — live and after a reboot.
#[test]
fn retried_stream_chunk_lands_exactly_once() {
    let scenario = common::german_scenario(120);
    let chunks: Vec<_> = scenario.chunks(30).collect();
    assert_eq!(chunks.len(), 4);

    // The reference: the same stream with no faults (on a second core).
    let clean_dir = TempDir::new("stream-clean");
    let clean = boot(clean_dir.path());
    let dir = TempDir::new("stream-retry");
    let vdbms = boot(dir.path());
    let retried = std::thread::scope(|s| {
        s.spawn(|| {
            for chunk in &chunks {
                clean
                    .ingest_chunk("german", &scenario, chunk)
                    .expect("unfaulted chunk");
            }
        });
        stream_failing_second_append(&vdbms, &scenario, &chunks)
    });
    assert_eq!(
        retried, 3,
        "every chunk after the first has captions to commit"
    );

    let check = |vdbms: &Vdbms, when: &str| {
        let rows = vdbms.kernel().bat("german.f1").unwrap().read().len();
        assert_eq!(rows, scenario.n_clips, "{when}: one feature row per clip");
        assert_eq!(
            vdbms.catalog.load_features("german", 17).unwrap(),
            clean.catalog.load_features("german", 17).unwrap(),
            "{when}: features differ from the unfaulted stream"
        );
        assert_eq!(
            vdbms.catalog.events("german", None).unwrap(),
            clean.catalog.events("german", None).unwrap(),
            "{when}: events differ from the unfaulted stream"
        );
    };
    check(&vdbms, "live");
    drop(vdbms);
    check(&boot(dir.path()), "recovered");
}

/// A stream whose process dies mid-broadcast is not a dead end: the
/// process that recovers the data directory can send the next chunk, or
/// start the stream over at clip 0, or ingest the recording in one go —
/// and each leaves one feature row per clip and no caption twice.
#[test]
fn an_unfinished_stream_survives_its_process() {
    let scenario = common::german_scenario(60);
    let chunks: Vec<_> = scenario.chunks(20).collect();
    assert_eq!(chunks.len(), 3);
    // Streams the opening chunk, crashes, reboots, and lets `then`
    // carry on.
    let crash_then = |label: &str, then: &dyn Fn(&Vdbms)| {
        let dir = TempDir::new(label);
        let vdbms = boot(dir.path());
        vdbms.ingest_chunk("german", &scenario, &chunks[0]).unwrap();
        drop(vdbms);
        let vdbms = boot(dir.path());
        assert_eq!(vdbms.catalog.feature_rows("german"), chunks[0].clips.end);
        then(&vdbms);
        let rows = vdbms.kernel().bat("german.f1").unwrap().read().len();
        assert_eq!(rows, scenario.n_clips, "{label}: one feature row per clip");
        (
            vdbms.catalog.load_features("german", 17).unwrap(),
            vdbms.catalog.events("german", None).unwrap(),
        )
    };
    let stream = |vdbms: &Vdbms, chunks: &[f1_media::synth::stream::Chunk]| {
        for chunk in chunks {
            vdbms.ingest_chunk("german", &scenario, chunk).unwrap();
        }
    };
    let (clean, resumed, restarted, replaced) = std::thread::scope(|s| {
        let clean = s.spawn(|| {
            let vdbms = Vdbms::new();
            stream(&vdbms, &chunks);
            (
                vdbms.catalog.load_features("german", 17).unwrap(),
                vdbms.catalog.events("german", None).unwrap(),
            )
        });
        let resumed = s.spawn(|| crash_then("stream-resume", &|v| stream(v, &chunks[1..])));
        let restarted = s.spawn(|| crash_then("stream-restart", &|v| stream(v, &chunks)));
        let replaced = crash_then("stream-batch", &|v| {
            v.ingest("german", &scenario).unwrap();
        });
        (
            clean.join().unwrap(),
            resumed.join().unwrap(),
            restarted.join().unwrap(),
            replaced,
        )
    });
    assert!(!clean.1.is_empty(), "the broadcast shows captions");
    assert!(resumed == clean, "resumed at the next chunk");
    assert!(restarted == clean, "started over at clip 0");
    // The one-window ingest keeps the opening chunk's captions and adds
    // what they lack — none of them twice.
    for (i, e) in replaced.1.iter().enumerate() {
        assert!(!replaced.1[..i].contains(e), "{e:?} stored twice");
    }
}

#[test]
fn checkpoint_then_reboot_replays_nothing() {
    let dir = TempDir::new("ckpt");
    {
        let vdbms = boot(dir.path());
        register(&vdbms, "german");
        vdbms
            .catalog
            .store_events("german", &[event("highlight", 10, None)])
            .expect("store events");
        let outcome = vdbms
            .checkpoint()
            .expect("checkpoint")
            .expect("durable backend checkpoints");
        assert!(outcome.bats_written > 0 && outcome.bytes_written > 0);
        assert!(outcome.wal_files_retired > 0, "the cut WAL file retires");
    }

    let vdbms = boot(dir.path());
    let rec = vdbms.recovery_report().expect("report");
    assert_eq!(rec.replayed, 0, "everything came from the snapshot");
    assert!(rec.bats_loaded > 0);
    assert_eq!(rec.videos, 1);
    let events = vdbms.catalog.events("german", None).expect("events back");
    assert_eq!(events.len(), 1);

    // And mutations *after* the snapshot replay over it on the next boot.
    vdbms
        .catalog
        .store_events("german", &[event("passing", 60, Some("MONTOYA"))])
        .expect("post-snapshot event");
    drop(vdbms);
    let vdbms = boot(dir.path());
    let events = vdbms.catalog.events("german", None).expect("events back");
    assert_eq!(events.len(), 2, "snapshot + WAL tail compose");
}

/// The kill-point matrix around a single unacknowledged mutation: after
/// recovery the acknowledged batch is intact and the failed batch is
/// either wholly absent or wholly present — decided by where the kill
/// landed relative to the WAL append.
#[test]
fn wal_fault_matrix_restores_exactly_acknowledged_state() {
    // (site, may_replay): whether the failed mutation's record reached
    // the log before the simulated kill.
    let matrix = [
        ("store.wal.append", false), // killed before the record was written
        ("store.wal.torn", false),   // killed mid-write: half a frame on disk
        ("store.wal.ack", true),     // killed after fsync, before the ack
    ];
    for (site, may_replay) in matrix {
        let dir = TempDir::new(site.rsplit('.').next().unwrap_or("site"));
        {
            let vdbms = boot(dir.path());
            register(&vdbms, "german");
            vdbms
                .catalog
                .store_events("german", &[event("highlight", 10, None)])
                .expect("acknowledged batch");
            let (result, faults) =
                vdbms
                    .faults()
                    .scope(FaultPlan::new(17).fail(site, Trigger::Always), || {
                        vdbms
                            .catalog
                            .store_events("german", &[event("fly_out", 40, Some("SCHUMACHER"))])
                    });
            assert_eq!(faults.count(site), 1, "{site} fired");
            match result {
                Err(CobraError::Store(_)) => {}
                other => panic!("{site}: expected a store error, got {other:?}"),
            }
            // The failed mutation was never applied in-process.
            let events = vdbms.catalog.events("german", None).expect("events");
            assert_eq!(events.len(), 1, "{site}: unacknowledged batch not applied");
        }

        let vdbms = boot(dir.path());
        let rec = vdbms.recovery_report().expect("report").clone();
        assert_eq!(
            rec.torn_tail,
            site == "store.wal.torn",
            "{site}: torn-tail detection"
        );
        let events = vdbms.catalog.events("german", None).expect("events");
        // The acknowledged batch, exactly.
        assert_eq!(events[0].kind, "highlight");
        assert_eq!(events[0].start, 10);
        if may_replay {
            // Logged-but-unacknowledged: replayed whole (at-least-once).
            assert_eq!(events.len(), 2, "{site}: durable record replays");
            assert_eq!(events[1].kind, "fly_out");
            assert_eq!(events[1].driver.as_deref(), Some("SCHUMACHER"));
        } else {
            assert_eq!(events.len(), 1, "{site}: lost record stays lost");
        }
    }
}

/// A re-annotation is one WAL record: when its append fails, the event
/// layer — recognized captions included — is what it was before the
/// call, live and after a reboot; when it lands, the reboot replays it
/// to the live rows. (As three records — clear, re-store the kept rows,
/// store the derived ones — failing the second or third left the video
/// with no events, or no derived events, for good.)
#[test]
fn a_failed_annotate_commit_leaves_the_event_layer_as_it_was() {
    let scenario = common::german_scenario(90);
    let dir = TempDir::new("annotate");
    let mut vdbms = boot(dir.path());
    vdbms.ingest("german", &scenario).expect("ingest");
    vdbms
        .train_highlight_net(
            "german",
            &scenario,
            &f1_cobra::training_windows(scenario.n_clips),
            true,
        )
        .expect("train");
    let net = vdbms.net("av").expect("just trained");
    let layer = |vdbms: &Vdbms| vdbms.catalog.events("german", None).expect("events");
    let captions = layer(&vdbms);
    assert!(!captions.is_empty(), "ingest recognized captions");
    vdbms.annotate("german", "av").expect("annotate");
    let annotated = layer(&vdbms);
    assert_eq!(annotated[..captions.len()], captions[..]);
    assert!(
        annotated.len() > captions.len(),
        "annotation derived events"
    );

    let mut failed = 0;
    for skip in 0..3 {
        let before = layer(&vdbms);
        let plan = FaultPlan::new(5).fail("store.wal.append", Trigger::Nth { skip, times: 1 });
        let (result, faults) = vdbms
            .faults()
            .scope(plan, || vdbms.annotate("german", "av"));
        if faults.count("store.wal.append") == 0 {
            result.expect("no fault fired");
        } else {
            assert!(
                matches!(result, Err(CobraError::Store(_))),
                "skip {skip}: {result:?}"
            );
            failed += 1;
        }
        assert_eq!(layer(&vdbms), before, "skip {skip}: live");
        drop(vdbms);
        vdbms = boot(dir.path());
        assert_eq!(layer(&vdbms), before, "skip {skip}: recovered");
        vdbms.install_net("av", net.clone());
    }
    assert_eq!(failed, 1, "one append per annotate: only skip 0 meets it");
    assert_eq!(layer(&vdbms), annotated);
}

/// A torn tail must not poison *later* incarnations: recovery truncates
/// the tear away, so a second crash after post-tear ingests still
/// replays every acknowledged record and keeps epochs strictly
/// increasing. (Without the truncation, boot 3 would stop its scan at
/// the still-torn old file, drop the boot-2 WAL file entirely, and
/// hand out epoch 2 twice.)
#[test]
fn torn_tail_survives_a_second_crash_cycle() {
    let dir = TempDir::new("torn-twice");
    {
        let vdbms = boot(dir.path());
        register(&vdbms, "german");
        vdbms
            .catalog
            .store_events("german", &[event("highlight", 10, None)])
            .expect("acknowledged before the tear");
        let (result, faults) = vdbms.faults().scope(
            FaultPlan::new(17).fail("store.wal.torn", Trigger::Always),
            || {
                vdbms
                    .catalog
                    .store_events("german", &[event("fly_out", 40, None)])
            },
        );
        assert_eq!(faults.count("store.wal.torn"), 1);
        assert!(result.is_err(), "torn write is never acknowledged");
        // Crash with half a frame on disk.
    }

    {
        let vdbms = boot(dir.path());
        let rec = vdbms.recovery_report().expect("report").clone();
        assert!(rec.torn_tail, "boot 2 sees (and truncates) the tear");
        assert_eq!(vdbms.store_stats().epoch, 2);
        vdbms
            .catalog
            .store_events("german", &[event("passing", 60, Some("MONTOYA"))])
            .expect("acknowledged after the torn boot");
        // Crash again, no flush, no checkpoint.
    }

    let vdbms = boot(dir.path());
    let rec = vdbms.recovery_report().expect("report").clone();
    assert!(
        !rec.torn_tail,
        "boot 2 truncated the tear; boot 3 scans cleanly past it"
    );
    assert_eq!(vdbms.store_stats().epoch, 3, "epochs never repeat");
    let events = vdbms.catalog.events("german", None).expect("events");
    assert_eq!(
        events.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
        vec!["highlight", "passing"],
        "acknowledged records from both incarnations survive, the torn one stays lost"
    );
    assert_eq!(events[1].driver.as_deref(), Some("MONTOYA"));
}

/// A crash at any point of the checkpoint protocol leaves a bootable
/// directory with exactly the acknowledged state: the WAL stays
/// authoritative until the manifest rename commits, and retired-file
/// deletion is idempotent afterwards.
#[test]
fn checkpoint_fault_matrix_keeps_directory_bootable() {
    for site in [
        "store.checkpoint.write",
        "store.checkpoint.rename",
        "store.checkpoint.truncate",
    ] {
        let dir = TempDir::new(site.rsplit('.').next().unwrap_or("site"));
        {
            let vdbms = boot(dir.path());
            register(&vdbms, "german");
            vdbms
                .catalog
                .store_events(
                    "german",
                    &[event("highlight", 10, None), event("excited", 70, None)],
                )
                .expect("events");
            let (result, faults) = vdbms
                .faults()
                .scope(FaultPlan::new(23).fail(site, Trigger::Always), || {
                    vdbms.checkpoint()
                });
            assert_eq!(faults.count(site), 1, "{site} fired");
            assert!(result.is_err(), "{site}: checkpoint reports the fault");
        }

        let vdbms = boot(dir.path());
        let events = vdbms.catalog.events("german", None).expect("events");
        assert_eq!(events.len(), 2, "{site}: no loss, no duplication");
        assert_eq!(vdbms.catalog.videos().len(), 1);

        // The next checkpoint (faults disarmed) completes and the state
        // still reboots cleanly from the snapshot.
        vdbms
            .checkpoint()
            .expect("clean checkpoint after faulted one")
            .expect("durable");
        drop(vdbms);
        let vdbms = boot(dir.path());
        assert_eq!(
            vdbms.recovery_report().expect("report").replayed,
            0,
            "{site}: post-fault checkpoint fully covers the log"
        );
        let events = vdbms.catalog.events("german", None).expect("events");
        assert_eq!(events.len(), 2);
    }
}

#[test]
fn epochs_keep_pre_crash_version_vectors_disjoint() {
    let dir = TempDir::new("epoch");
    {
        let vdbms = boot(dir.path());
        register(&vdbms, "german");
        vdbms
            .catalog
            .store_events("german", &[event("highlight", 10, None)])
            .expect("events");
        // Warm the result cache pre-crash.
        let pre = vdbms.query("german", "RETRIEVE HIGHLIGHTS").expect("query");
        assert_eq!(pre.len(), 1);
        assert_eq!(vdbms.store_stats().epoch, 1);
    }

    // Reboot: a strictly newer epoch, so any vector captured pre-crash
    // (however BAT ids and generations collide) can never match.
    let vdbms = boot(dir.path());
    assert_eq!(vdbms.store_stats().epoch, 2);

    // Repeating the pre-crash query returns the *recovered* state…
    let post = vdbms.query("german", "RETRIEVE HIGHLIGHTS").expect("query");
    assert_eq!(post.len(), 1);
    // …and keeps tracking mutations made after recovery.
    vdbms
        .catalog
        .replace_events(
            "german",
            &["highlight"],
            &[event("highlight", 20, None), event("highlight", 50, None)],
        )
        .expect("replace");
    let fresh = vdbms.query("german", "RETRIEVE HIGHLIGHTS").expect("query");
    assert_eq!(fresh.len(), 2, "post-recovery cache invalidates on write");

    drop(vdbms);
    let vdbms = boot(dir.path());
    assert_eq!(
        vdbms.store_stats().epoch,
        3,
        "epochs are strictly increasing"
    );
    let survived = vdbms.query("german", "RETRIEVE HIGHLIGHTS").expect("query");
    assert_eq!(survived.len(), 2, "the replace replays whole");
}

#[test]
fn store_stats_expose_wal_and_checkpoint_counters() {
    let dir = TempDir::new("stats");
    let vdbms = boot(dir.path());
    let boot_stats = vdbms.store_stats();
    assert!(boot_stats.durable);
    assert_eq!(boot_stats.checkpoints, 0);
    register(&vdbms, "german");
    vdbms
        .catalog
        .store_events("german", &[event("highlight", 10, None)])
        .expect("events");
    let stats = vdbms.store_stats();
    assert!(
        stats.wal_records >= boot_stats.wal_records + 2,
        "register + events logged: {stats:?}"
    );
    assert!(stats.wal_bytes > boot_stats.wal_bytes);
    assert!(stats.pending_records >= 2);
    vdbms.checkpoint().expect("checkpoint").expect("durable");
    let stats = vdbms.store_stats();
    assert_eq!(stats.checkpoints, 1);
    assert_eq!(
        stats.pending_records, 0,
        "checkpoint drains the pending count"
    );

    // The fsync policy decides when the log is synced, never what is
    // logged: one mutation stream writes identical bytes under `Always`
    // and `EveryN(32)`, with strictly more syncs under `Always` — and an
    // in-memory catalog logs nothing at all.
    let mutate = |vdbms: &Vdbms| {
        register(vdbms, "german");
        for i in 0..40 {
            vdbms
                .catalog
                .store_events("german", &[event("highlight", i, None)])
                .expect("events");
        }
        vdbms.store_stats()
    };
    let durable = |tag: &str, fsync: FsyncPolicy| {
        let dir = TempDir::new(tag);
        let config = StoreConfig {
            fsync,
            ..config(dir.path())
        };
        mutate(&Vdbms::open(&config).expect("durable boot"))
    };
    let memory = mutate(&Vdbms::try_new().expect("in-memory boot"));
    assert!(!memory.durable);
    assert_eq!((memory.wal_bytes, memory.wal_fsyncs), (0, 0));
    let always = durable("always", FsyncPolicy::Always);
    let batched = durable("batched", FsyncPolicy::EveryN(32));
    assert!(always.wal_bytes > 0);
    assert_eq!(always.wal_bytes, batched.wal_bytes);
    assert!(
        always.wal_fsyncs > batched.wal_fsyncs && batched.wal_fsyncs > 0,
        "always {always:?} vs batched {batched:?}"
    );
}
