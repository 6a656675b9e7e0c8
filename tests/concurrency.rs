//! Multi-threaded `Vdbms` regression: the serving layer shares one
//! instance behind an `Arc` across worker threads, so concurrent
//! `run`/`query` calls must return exactly the single-threaded answers
//! — no torn reads from the catalog's locks, no index-cache races in
//! the kernel — and a reader racing event-layer commits must see each
//! commit whole or not at all. (The compile-time `Send + Sync`
//! assertion lives next to the `Vdbms` struct; this exercises the claim
//! at runtime.) Debug builds barely interleave: CI also runs this file
//! with `--release`.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use cobra_faults::Recover;
use common::assert_results_at_rest;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{QueryOutput, Vdbms};

fn ev(kind: &str, start: usize, end: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    }
}

fn register(vdbms: &Vdbms, name: &str) {
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: name.into(),
            n_clips: 200,
            n_frames: 200 * 25 / 10,
        })
        .expect("register test video");
}

fn fixture() -> Arc<Vdbms> {
    let vdbms = Vdbms::try_new().unwrap();
    register(&vdbms, "v");
    vdbms
        .catalog
        .store_events(
            "v",
            &[
                ev("highlight", 10, 40, None),
                ev("highlight", 90, 120, Some("MONTOYA")),
                ev("fly_out", 15, 25, Some("SCHUMACHER")),
                ev("excited", 12, 30, None),
                ev("caption:pit_stop", 20, 35, Some("MONTOYA")),
                ev("caption:winner", 180, 190, Some("SCHUMACHER")),
                ev("caption:classification", 0, 10, Some("SCHUMACHER")),
            ],
        )
        .unwrap();
    Arc::new(vdbms)
}

const QUERIES: &[&str] = &[
    "RETRIEVE HIGHLIGHTS",
    "RETRIEVE EVENTS FLY_OUT",
    "RETRIEVE EXCITED",
    "RETRIEVE PITSTOPS",
    "RETRIEVE WINNER",
    "RETRIEVE LEADER",
    "RETRIEVE HIGHLIGHTS AT PITLANE",
    "RETRIEVE SEGMENTS WITH DRIVER \"SCHUMACHER\"",
];

#[test]
fn concurrent_runs_match_single_threaded_answers() {
    let vdbms = fixture();

    // Ground truth, computed before any concurrency.
    let expected: Vec<_> = QUERIES
        .iter()
        .map(|q| vdbms.query("v", q).unwrap())
        .collect();

    let threads: Vec<_> = (0..8)
        .map(|k| {
            let vdbms = Arc::clone(&vdbms);
            let expected = expected.clone();
            std::thread::spawn(move || {
                // Each thread starts on a different query so the mix of
                // in-flight statements varies over the run.
                for i in 0..25 {
                    let idx = (k + i) % QUERIES.len();
                    let got = vdbms.query("v", QUERIES[idx]).unwrap();
                    assert_eq!(
                        got, expected[idx],
                        "thread {k} iteration {i}: '{}' diverged under concurrency",
                        QUERIES[idx]
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread panicked");
    }
    assert_results_at_rest(&vdbms);
}

#[test]
fn concurrent_profile_and_plain_runs_coexist() {
    let vdbms = fixture();
    let plain = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();

    // PROFILE takes registry snapshots around evaluation while other
    // threads mutate the same metrics — answers must be unaffected.
    let threads: Vec<_> = (0..4)
        .map(|k| {
            let vdbms = Arc::clone(&vdbms);
            let plain = plain.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let statement = if k % 2 == 0 {
                        "PROFILE RETRIEVE HIGHLIGHTS"
                    } else {
                        "RETRIEVE HIGHLIGHTS"
                    };
                    match vdbms.run("v", statement).unwrap() {
                        QueryOutput::Segments(segments) => assert_eq!(segments, plain),
                        QueryOutput::Profile(p) => {
                            assert_eq!(p.segments, plain);
                            assert_eq!(p.span.name, "query");
                        }
                        QueryOutput::Plan(_) | QueryOutput::Multi(_) => {
                            unreachable!("no EXPLAIN or '*' issued")
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker thread panicked");
    }
}

/// The statements the stress readers send, on `"v"` or on every video.
const STRESS: &[(&str, &str)] = &[
    ("v", "RETRIEVE HIGHLIGHTS"),
    ("v", "RETRIEVE PITSTOPS"),
    ("v", "RETRIEVE EXCITED"),
    ("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\""),
    ("v", "RETRIEVE SEGMENTS WITH DRIVER \"MONTOYA\""),
    ("*", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\""),
];

/// What `(video, text)` answers, comparable across instances.
fn answer(vdbms: &Vdbms, video: &str, text: &str) -> String {
    match vdbms.run(video, text).expect("every read answers") {
        QueryOutput::Segments(segments) => format!("{segments:?}"),
        QueryOutput::Multi(groups) => format!("{groups:?}"),
        other => unreachable!("a plain RETRIEVE answered {other:?}"),
    }
}

/// One of the two re-annotations the replacer alternates between. Each
/// has highlights, so no committed layer lacks them, and their kinds sit
/// at different positions, so a selection made on one and read on the
/// other answers neither.
fn derived(round: usize) -> Vec<EventRecord> {
    if round.is_multiple_of(2) {
        vec![
            ev("highlight", 10, 40, None),
            ev("highlight", 90, 120, Some("MONTOYA")),
            ev("excited", 12, 30, None),
        ]
    } else {
        vec![
            ev("excited", 14, 31, None),
            ev("highlight", 60, 75, None),
            ev("highlight", 95, 125, Some("MONTOYA")),
            ev("highlight", 130, 140, None),
        ]
    }
}

/// Readers see an event-layer commit or nothing. Appends and
/// re-annotations commit on two threads while three readers send
/// `RETRIEVE`, `SEGMENTS` and `"*"` statements. No read may fail, and
/// every answer must be what some committed layer answers — recomputed
/// afterwards, layer by layer, on a fresh instance — which rules out
/// both torn columns and the empty middle of a re-annotation. The
/// readers' selections answer from the kernel's value indexes, which
/// the commits keep releasing, so the race covers the index path.
#[test]
fn readers_see_a_committed_event_layer_or_nothing() {
    const APPENDS: usize = 200;
    const REPLACES: usize = 100;
    const READERS: usize = 3;
    let vdbms = fixture();
    register(&vdbms, "w");
    let w_events = [
        ev("highlight", 50, 70, None),
        ev("caption:pit_stop", 55, 60, Some("MONTOYA")),
    ];
    vdbms.catalog.store_events("w", &w_events).unwrap();
    // Every layer `v` is committed at, in commit order: each writer
    // commits and records under this lock.
    let committed = Arc::new(Mutex::new(vec![vdbms.catalog.events("v", None).unwrap()]));
    let index_hits = || vdbms.kernel().metrics().index_hits.get();
    let hits_before = index_hits();
    let writing = Arc::new(AtomicBool::new(true));
    let start = Arc::new(Barrier::new(2 + READERS));

    let writer = |replaces: bool| {
        let (vdbms, committed, start) = (
            Arc::clone(&vdbms),
            Arc::clone(&committed),
            Arc::clone(&start),
        );
        std::thread::spawn(move || {
            start.wait();
            for i in 0..if replaces { REPLACES } else { APPENDS } {
                let mut layers = committed.lock().unwrap();
                if replaces {
                    vdbms
                        .catalog
                        .replace_events("v", &["highlight", "excited"], &derived(i))
                } else {
                    let pit = ev("caption:pit_stop", 2 * i, 2 * i + 1, Some("MONTOYA"));
                    vdbms.catalog.store_events("v", &[pit])
                }
                .expect("commit");
                layers.push(vdbms.catalog.events("v", None).unwrap());
            }
        })
    };
    let writers = [writer(false), writer(true)];
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (vdbms, writing, start) =
                (Arc::clone(&vdbms), Arc::clone(&writing), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut seen = Vec::new();
                let mut i = r;
                while writing.load(Ordering::Relaxed) || seen.len() < STRESS.len() {
                    let (video, text) = STRESS[i % STRESS.len()];
                    seen.push((i % STRESS.len(), answer(&vdbms, video, text)));
                    i += 1;
                }
                seen
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer panicked");
    }
    writing.store(false, Ordering::Relaxed);
    let seen: Vec<(usize, String)> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader panicked"))
        .collect();
    assert!(index_hits() > hits_before, "no read probed a cached index");
    assert_results_at_rest(&vdbms);

    // What each committed layer answers, on an instance nothing races.
    let layers = committed.lock().unwrap();
    assert_eq!(layers.len(), 1 + APPENDS + REPLACES);
    let mut allowed: Vec<HashSet<String>> = vec![HashSet::new(); STRESS.len()];
    for layer in layers.iter() {
        let quiet = Vdbms::try_new().unwrap();
        for (name, events) in [("v", &layer[..]), ("w", &w_events[..])] {
            register(&quiet, name);
            quiet.catalog.store_events(name, events).unwrap();
        }
        for (q, (video, text)) in STRESS.iter().enumerate() {
            allowed[q].insert(answer(&quiet, video, text));
        }
    }
    for (q, got) in &seen {
        assert!(
            allowed[*q].contains(got),
            "{:?} answered what no committed layer answers: {got}",
            STRESS[*q]
        );
    }
}

/// An append to a layer no reader holds grows it in place, keeping the
/// driver column's identity; the value index the read before cached is
/// extended by the commit, so the read after is an index hit that sees
/// the new row.
#[test]
fn an_indexed_read_after_an_in_place_append_sees_the_new_row() {
    let vdbms = fixture();
    let read = || {
        vdbms
            .query("v", "RETRIEVE SEGMENTS WITH DRIVER \"SCHUMACHER\"")
            .unwrap()
    };
    let column = || {
        vdbms
            .kernel()
            .bat("v.ev.driver")
            .unwrap()
            .read()
            .recover()
            .id()
    };
    let before = read();
    let (id, cached) = (column(), vdbms.kernel().cached_indexes());
    assert!(cached > 0, "the read cached the driver column's index");

    let fly_out = ev("fly_out", 150, 160, Some("SCHUMACHER"));
    vdbms.catalog.store_events("v", &[fly_out]).unwrap();
    assert_eq!(column(), id, "the append grew the column in place");

    let metrics = vdbms.kernel().metrics();
    let (hits, builds) = (metrics.index_hits.get(), metrics.index_misses.get());
    let after = read();
    assert_eq!(metrics.index_misses.get(), builds, "no rebuild");
    assert_eq!(metrics.index_hits.get(), hits + 1);
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.iter().any(|s| (s.start..s.end).contains(&155)));
}
