//! Result-cache invalidation correctness: a cached answer may only be
//! served while the event layer it was computed from is unchanged.
//!
//! The cache keys results by (video, normalized query) and guards them
//! with a version vector over the catalog generation and the four
//! event BATs, captured *before* execution. These tests pin the three
//! ways that contract can break: a write between two identical
//! queries, writers racing readers across threads, and a failed
//! execution getting cached as if it were an answer.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cobra_faults::{FaultPlan, Trigger};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

fn event(kind: &str, start: usize, end: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    }
}

fn fixture(n_clips: usize, events: &[EventRecord]) -> Arc<Vdbms> {
    let vdbms = Vdbms::try_new().unwrap();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips,
            n_frames: n_clips * 25 / 10,
        })
        .expect("register test video");
    vdbms.catalog.store_events("v", events).unwrap();
    Arc::new(vdbms)
}

/// The acceptance criterion verbatim: query, write, repeat the same
/// query — the repeat must re-execute (counted as an invalidation, not
/// a hit) and observe the write, and the fresh answer is re-cached.
#[test]
fn write_between_identical_queries_invalidates_the_cached_result() {
    let vdbms = fixture(
        200,
        &[
            event("highlight", 10, 40, None),
            event("highlight", 90, 120, Some("MONTOYA")),
        ],
    );
    let registry = Arc::clone(vdbms.kernel().metrics().registry());

    let first = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    assert!(!first.is_empty());

    // Unchanged data: the repeat is a hit with the identical answer.
    let snap = registry.snapshot();
    let repeat = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    assert_eq!(first, repeat);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "miss")]), 0);

    // The write moves the event-layer versions; the cached entry must
    // be dropped, not served.
    vdbms
        .catalog
        .store_events("v", &[event("highlight", 160, 170, None)])
        .unwrap();
    let snap = registry.snapshot();
    let after = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 0);
    // Only the answer is void: the re-execution reuses the compiled
    // plan, which depends on the statement, not on the rows.
    assert_eq!(d.counter("cache.plan", &[("result", "hit")]), 1);
    assert_eq!(d.counter("cache.plan", &[("result", "miss")]), 0);
    assert!(
        after.len() > first.len(),
        "the appended highlight must be visible: {} -> {}",
        first.len(),
        after.len()
    );

    // And the re-executed answer is itself cached again.
    let snap = registry.snapshot();
    assert_eq!(vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap(), after);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);
}

/// A re-annotation is one commit: the commit seq advances by exactly
/// one, the video's stamp lands on it, a cached answer is voided once —
/// and an answer over the caption rows, which a re-annotation keeps, is
/// the same before and after.
#[test]
fn a_reannotation_is_one_commit_that_keeps_the_caption_answers() {
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 120));
    let vdbms = Vdbms::try_new().unwrap();
    vdbms.ingest("german", &scenario).unwrap();
    let windows = f1_cobra::training_windows(scenario.n_clips);
    vdbms
        .train_highlight_net("german", &scenario, &windows, true)
        .unwrap();
    let registry = Arc::clone(vdbms.kernel().metrics().registry());
    for round in 0..2 {
        let pits = vdbms.query("german", "RETRIEVE PITSTOPS").unwrap();
        assert!(!pits.is_empty(), "the broadcast captions a pit stop");
        let before = vdbms.catalog.data_version();
        vdbms.annotate("german", "av").unwrap();
        assert_eq!(vdbms.catalog.data_version(), before + 1, "round {round}");
        assert_eq!(vdbms.catalog.video_stamp("german").seq, before + 1);

        let snap = registry.snapshot();
        assert_eq!(vdbms.query("german", "RETRIEVE PITSTOPS").unwrap(), pits);
        let d = registry.snapshot().delta(&snap);
        assert_eq!(d.counter("cache.result", &[("result", "invalidated")]), 1);
        assert!(!vdbms
            .query("german", "RETRIEVE HIGHLIGHTS")
            .unwrap()
            .is_empty());
    }
}

/// Threaded writer vs cached readers (the concurrency.rs harness shape
/// with a mutating writer): once a write has completed, no later read
/// may return the pre-write answer — cached or not. Readers also check
/// per-thread monotonicity: the event layer is append-only, so the
/// number of retrieved highlights can never shrink.
#[test]
fn concurrent_writes_never_yield_stale_cached_reads() {
    const WRITES: usize = 16;

    // One highlight per write, well separated so segments stay 1:1
    // with events. Start from a single seed event.
    let vdbms = fixture(2_000, &[event("highlight", 0, 2, None)]);
    let completed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let vdbms = Arc::clone(&vdbms);
        let completed = Arc::clone(&completed);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for n in 1..=WRITES {
                vdbms
                    .catalog
                    .store_events("v", &[event("highlight", n * 40, n * 40 + 2, None)])
                    .unwrap();
                completed.store(n, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|k| {
            let vdbms = Arc::clone(&vdbms);
            let completed = Arc::clone(&completed);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    // Loaded before the query: every write counted here
                    // happened before this read started.
                    let floor = completed.load(Ordering::Acquire);
                    let got = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
                    assert!(
                        got.len() > floor,
                        "reader {k}: stale read — {} segments after {floor} completed \
                         writes (+1 seed event)",
                        got.len()
                    );
                    assert!(
                        got.len() >= last_len,
                        "reader {k}: retrieved highlights shrank {last_len} -> {}",
                        got.len()
                    );
                    last_len = got.len();
                    if finished {
                        break;
                    }
                }
                // The final read ran after the writer finished: the
                // full event layer must be visible.
                assert_eq!(last_len, WRITES + 1);
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for r in readers {
        r.join().expect("reader panicked");
    }
}

/// A failed execution must not populate the cache: after the fault is
/// disarmed, the same query re-executes and answers correctly, and
/// only successful answers ever become hits.
#[test]
fn failed_queries_are_not_cached() {
    let vdbms = fixture(
        200,
        &[
            event("highlight", 10, 40, None),
            event("highlight", 90, 120, None),
        ],
    );
    let registry = Arc::clone(vdbms.kernel().metrics().registry());

    let snap = registry.snapshot();
    let (result, faults) = vdbms.faults().scope(
        FaultPlan::new(13).fail("bat.select", Trigger::Times(1)),
        || vdbms.query("v", "RETRIEVE HIGHLIGHTS"),
    );
    assert!(result.is_err(), "the injected select fault must surface");
    assert_eq!(faults.count("bat.select"), 1);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "miss")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 0);

    // Faults disarmed: the retry is another miss (nothing was cached),
    // executes fully, and answers with the real segments.
    let snap = registry.snapshot();
    let got = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    assert!(!got.is_empty());
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "miss")]), 1);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 0);

    // Only now does the repeat hit, with the successful answer.
    let snap = registry.snapshot();
    assert_eq!(vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap(), got);
    let d = registry.snapshot().delta(&snap);
    assert_eq!(d.counter("cache.result", &[("result", "hit")]), 1);
}
