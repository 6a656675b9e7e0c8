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

use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{parse_query, Result, RetrievedSegment, Vdbms};
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
    }
}
