//! A cached answer is guarded by the event rows its stages read, not by
//! the whole video: an append of other kinds and drivers leaves it
//! cached. This differential test holds that narrower guard to the
//! answers themselves. It interleaves random appends (every kind, named
//! and unnamed drivers), re-annotations (`replace_events`) and
//! re-registrations with read sweeps of every statement shape over two
//! videos, and requires each answer the live system gives — cached or
//! not — to equal the one a fresh system, replaying the same commits,
//! computes on its first and only evaluation. It also requires that a
//! statement whose guard did not move kept its answer, which is what
//! lets a standing query skip such a write.
//!
//! A driver-named selection reads the driver's other rows only while its
//! kind has rows naming no driver (the overlap rule). A scripted case
//! walks that set through appends, a replace and reopens of a durable
//! catalog from checkpoint and WAL, and requires both halves: the guard
//! holds where the answer cannot change, and moves where it can.

mod common;

use std::path::Path;

use common::assert_results_at_rest;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{parse_query, FsyncPolicy, Result, RetrievedSegment, StoreConfig, Vdbms};
use proptest::prelude::*;

const VIDEOS: [&str; 2] = ["v", "w"];

/// Every kind a statement selects, and one none does.
const KINDS: [&str; 7] = [
    "highlight",
    "excited",
    "caption:pit_stop",
    "caption:classification",
    "caption:winner",
    "fly_out",
    "passing",
];

const DRIVERS: [Option<&str>; 4] = [None, Some("A"), Some("B"), Some("C")];

/// Every target, each bare, with a driver, at the pit lane, and both.
fn statements() -> Vec<String> {
    let targets = [
        "HIGHLIGHTS",
        "EXCITED",
        "PITSTOPS",
        "WINNER",
        "LEADER",
        "EVENTS FLY_OUT",
        "SEGMENTS",
    ];
    let clauses = [
        "",
        " WITH DRIVER \"A\"",
        " WITH DRIVER \"B\"",
        " AT PITLANE",
        " AT PITLANE WITH DRIVER \"A\"",
    ];
    targets
        .iter()
        .flat_map(|t| clauses.iter().map(move |c| format!("RETRIEVE {t}{c}")))
        .collect()
}

/// One acknowledged commit, as the fresh system replays it.
#[derive(Debug)]
enum Commit {
    Register(usize, usize),
    Append(usize, Vec<EventRecord>),
    Replace(usize, Vec<&'static str>, Vec<EventRecord>),
}

fn apply(vdbms: &Vdbms, commit: &Commit) -> Result<()> {
    let catalog = &vdbms.catalog;
    match commit {
        Commit::Register(v, n_clips) => catalog.register_video(VideoInfo {
            name: VIDEOS[*v].into(),
            n_clips: *n_clips,
            n_frames: n_clips * 25 / 10,
        }),
        Commit::Append(v, rows) => catalog.store_events(VIDEOS[*v], rows),
        Commit::Replace(v, drop, rows) => catalog.replace_events(VIDEOS[*v], drop, rows),
    }
}

/// Draws from one op's seed.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn rows(&mut self) -> Vec<EventRecord> {
        (0..1 + self.below(3))
            .map(|_| {
                let start = self.below(240);
                EventRecord {
                    kind: KINDS[self.below(KINDS.len())].into(),
                    start,
                    end: start + 1 + self.below(20),
                    driver: DRIVERS[self.below(DRIVERS.len())].map(str::to_string),
                }
            })
            .collect()
    }
}

type Answers = Vec<std::result::Result<Vec<RetrievedSegment>, String>>;

/// Every statement over every video, in one order.
fn sweep(vdbms: &Vdbms, statements: &[String]) -> Answers {
    VIDEOS
        .iter()
        .flat_map(|video| {
            statements
                .iter()
                .map(move |text| vdbms.query(video, text).map_err(|e| e.to_string()))
        })
        .collect()
}

fn guards(vdbms: &Vdbms, statements: &[String]) -> Vec<f1_cobra::Stamp> {
    VIDEOS
        .iter()
        .flat_map(|video| {
            statements
                .iter()
                .map(move |text| vdbms.guard(video, &parse_query(text).unwrap()))
        })
        .collect()
}

fn result_hits(vdbms: &Vdbms) -> u64 {
    let registry = vdbms.kernel().metrics().registry();
    registry
        .snapshot()
        .counter("cache.result", &[("result", "hit")])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_answers_equal_a_cacheless_evaluation_of_the_same_commits(
        seeds in proptest::collection::vec(0u64..u64::MAX, 4..28),
    ) {
        let statements = statements();
        let live = Vdbms::try_new().unwrap();
        let mut log = vec![Commit::Register(0, 240), Commit::Register(1, 200)];
        for commit in &log {
            apply(&live, commit).unwrap();
        }
        let mut last: Option<(Vec<f1_cobra::Stamp>, Answers)> = None;
        // The seeds, then two sweeps in a row: the second is all hits.
        for (step, seed) in seeds.iter().chain([&0, &0]).enumerate() {
            let mut draws = Draws(*seed);
            let finale = step >= seeds.len();
            let commit = match draws.below(10) {
                _ if finale => None,
                0..=5 => Some(Commit::Append(draws.below(2), draws.rows())),
                6 => {
                    let drop = KINDS.iter().copied().filter(|_| draws.below(3) == 0).collect();
                    Some(Commit::Replace(draws.below(2), drop, draws.rows()))
                }
                7 => Some(Commit::Register(draws.below(2), 200 + draws.below(80))),
                _ => None,
            };
            if let Some(commit) = commit {
                apply(&live, &commit).unwrap();
                log.push(commit);
                continue;
            }
            let hits = result_hits(&live);
            let stamps = guards(&live, &statements);
            let answers = sweep(&live, &statements);
            let fresh = Vdbms::try_new().unwrap();
            for commit in &log {
                apply(&fresh, commit).unwrap();
            }
            let expected = sweep(&fresh, &statements);
            for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
                let (video, text) = (VIDEOS[i / statements.len()], &statements[i % statements.len()]);
                prop_assert_eq!(got, want, "{} on {} after {:?}", text, video, log);
                if let Some((old_stamps, old_answers)) = &last {
                    if old_stamps[i] == stamps[i] {
                        prop_assert_eq!(&old_answers[i], got, "{} on {}: guard held, answer moved", text, video);
                    }
                }
            }
            if step == seeds.len() + 1 {
                let answered = answers.iter().filter(|a| a.is_ok()).count() as u64;
                prop_assert_eq!(result_hits(&live) - hits, answered, "a sweep after a sweep hits");
            }
            last = Some((stamps, answers));
        }
        // Every answer voided, then swept by racing readers: two that
        // miss the same statement both store it, the second replacing
        // the first's entry.
        for v in 0..VIDEOS.len() {
            let commit = Commit::Register(v, 240);
            apply(&live, &commit).unwrap();
            log.push(commit);
        }
        let fresh = Vdbms::try_new().unwrap();
        for commit in &log {
            apply(&fresh, commit).unwrap();
        }
        let expected = sweep(&fresh, &statements);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4).map(|_| s.spawn(|| sweep(&live, &statements))).collect();
            for reader in readers {
                assert_eq!(reader.join().unwrap(), expected, "a racing sweep");
            }
        });
        assert_results_at_rest(&live);
    }
}

fn durable(dir: &Path) -> Vdbms {
    let config = StoreConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..StoreConfig::new(dir)
    };
    Vdbms::open(&config).unwrap()
}

fn row(kind: &str, start: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end: start + 10,
        driver: driver.map(str::to_string),
    }
}

/// One step of the scripted case.
enum Step {
    Write(Commit),
    Checkpoint,
    /// The catalog reopened from its checkpoint and WAL.
    Reopen,
}

/// `RETRIEVE HIGHLIGHTS WITH DRIVER "A"` reads A's other rows — where A
/// is visible — only while highlights have unnamed rows: a write naming
/// A leaves its guard, and its cached answer, where they were until an
/// unnamed highlight appears, moves them while there is one, and leaves
/// them again once a replace took the unnamed highlights away. The set
/// holds across reopens from checkpoint and WAL. Every answer equals a
/// fresh system's over the same commits, so a guard that holds where it
/// should move serves a stale answer and fails.
#[test]
fn a_driver_named_answer_reads_the_drivers_rows_only_while_its_kind_has_unnamed_rows() {
    use Step::*;
    let named_a = |kind: &str, start| Write(Commit::Append(0, vec![row(kind, start, Some("A"))]));
    let unnamed = |kind: &str, start| Write(Commit::Append(0, vec![row(kind, start, None)]));
    // Each step, and whether the guard moves with it. A is visible
    // within 50 clips of a row naming A.
    let script = [
        (named_a("caption:pit_stop", 200), false),
        (unnamed("excited", 20), false),
        (unnamed("highlight", 112), true),
        (named_a("caption:pit_stop", 300), true),
        (unnamed("highlight", 305), true),
        (
            Write(Commit::Replace(
                0,
                vec!["highlight"],
                vec![row("highlight", 120, Some("A"))],
            )),
            true,
        ),
        (named_a("caption:pit_stop", 20), false),
        (Checkpoint, false),
        (unnamed("caption:winner", 0), false),
        (Reopen, false),
        (named_a("caption:pit_stop", 40), false),
        // Out of A's view: the answer does not hold it…
        (unnamed("highlight", 480), true),
        (Checkpoint, false),
        (Reopen, false),
        // …until a row naming A puts it in view.
        (named_a("caption:pit_stop", 470), true),
        (Reopen, false),
        (named_a("fly_out", 232), true),
    ];
    let dir = std::env::temp_dir().join(format!("cobra-read-guards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = "RETRIEVE HIGHLIGHTS WITH DRIVER \"A\"";
    let q = parse_query(text).unwrap();
    let mut live = durable(&dir);
    let mut log = vec![
        Commit::Register(0, 600),
        Commit::Append(0, vec![row("highlight", 100, Some("A"))]),
    ];
    for commit in &log {
        apply(&live, commit).unwrap();
    }
    let answer = |live: &Vdbms, log: &[Commit], step: usize| {
        let fresh = Vdbms::try_new().unwrap();
        for commit in log {
            apply(&fresh, commit).unwrap();
        }
        let want = fresh.query("v", text).unwrap();
        assert_eq!(live.query("v", text).unwrap(), want, "step {step}");
    };
    answer(&live, &log, 0);
    for (i, (step, moves)) in script.into_iter().enumerate() {
        let before = live.guard("v", &q);
        match step {
            Write(commit) => {
                apply(&live, &commit).unwrap();
                log.push(commit);
            }
            Checkpoint => {
                live.checkpoint().unwrap();
            }
            Reopen => {
                drop(live);
                live = durable(&dir);
                answer(&live, &log, i + 1);
                continue;
            }
        }
        assert_eq!(live.guard("v", &q) != before, moves, "step {}", i + 1);
        answer(&live, &log, i + 1);
    }
    let held = live.query("v", text).unwrap();
    assert!(held.iter().any(|s| s.start == 480), "in view at last");
    assert_results_at_rest(&live);
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}
