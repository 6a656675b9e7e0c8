//! Byte-level fuzzing of the query language, the text every client
//! sends: arbitrary bytes, and statements drawn from the grammar —
//! `PROFILE`/`EXPLAIN` prefixes, every target, `AT PITLANE`, drivers
//! that are empty, outside ASCII or `"*"` — then mutated byte by byte,
//! go through `parse_statement` and through `Vdbms::answer` on a small
//! annotated video, on the sweep `"*"`, and on a video nobody
//! registered. Nothing may unwind (checked with `catch_unwind`): every
//! call returns `Ok` or a typed `CobraError`, a parse failure is
//! `CobraError::Parse`, and no kernel worker panicked underneath.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{parse_statement, CobraError, Vdbms};
use f1_monet::{ExecBudget, MonetError};
use proptest::prelude::*;

const PREFIXES: [&str; 5] = ["", "PROFILE ", "EXPLAIN ", "profile ", "Explain "];

const TARGETS: [&str; 12] = [
    "HIGHLIGHTS",
    "EVENTS FLY_OUT",
    "EVENTS start",
    "EVENTS",
    "PITSTOPS",
    "SEGMENTS",
    "WINNER",
    "FINALLAP",
    "LEADER",
    "EXCITED",
    "highlights",
    "*",
];

/// `None` leaves the clause out; the rest are quoted as given.
const DRIVERS: [Option<&str>; 9] = [
    None,
    Some(""),
    Some("MONTOYA"),
    Some("Schumacher"),
    Some("RÄIKKÖNEN"),
    Some("ı"),
    Some("🏎 日本"),
    Some("*"),
    Some("A\\B);"),
];

const VIDEOS: [&str; 3] = ["v", "*", "ghost"];

fn ev(kind: &str, start: usize, end: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    }
}

/// One small annotated video, shared by every case: later cases also
/// reach the result and plan caches the earlier ones filled.
fn vdbms() -> &'static Vdbms {
    static VDBMS: OnceLock<Vdbms> = OnceLock::new();
    VDBMS.get_or_init(|| {
        let vdbms = Vdbms::try_new().expect("an in-memory system");
        vdbms
            .catalog
            .register_video(VideoInfo {
                name: "v".into(),
                n_clips: 200,
                n_frames: 200 * 25 / 10,
            })
            .expect("register the fixture video");
        vdbms
            .catalog
            .store_events(
                "v",
                &[
                    ev("highlight", 10, 40, None),
                    ev("highlight", 90, 120, Some("MONTOYA")),
                    ev("fly_out", 15, 25, Some("SCHUMACHER")),
                    ev("start", 0, 5, None),
                    ev("excited", 12, 30, None),
                    ev("caption:pit_stop", 20, 35, Some("MONTOYA")),
                    ev("caption:winner", 180, 190, Some("RÄIKKÖNEN")),
                    ev("caption:classification", 0, 10, Some("SCHUMACHER")),
                ],
            )
            .expect("store the fixture events");
        vdbms
    })
}

/// A statement the grammar draws: prefix, target, pit-lane clause and
/// driver clause, in that order.
fn statement(prefix: usize, target: usize, pitlane: bool, driver: usize) -> String {
    let mut text = format!("{}RETRIEVE {}", PREFIXES[prefix], TARGETS[target]);
    if pitlane {
        text.push_str(" AT PITLANE");
    }
    if let Some(name) = DRIVERS[driver] {
        text.push_str(&format!(" WITH DRIVER \"{name}\""));
    }
    text
}

/// Applies `edits` to `text`'s bytes: `0` overwrites, `1` inserts and
/// `2` deletes the byte at a position taken modulo one past the length.
fn mutate(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Why `outcome` is not a typed answer, if it is not one.
fn untyped<T>(outcome: &Result<T, CobraError>) -> Option<String> {
    match outcome {
        Err(e @ CobraError::Kernel(MonetError::WorkerPanic(_))) => Some(e.to_string()),
        _ => None,
    }
}

/// Sends `text` through the parser and through every video of
/// [`VIDEOS`], under `catch_unwind`.
fn run(text: &str) -> Result<(), String> {
    let parsed = catch_unwind(|| parse_statement(text))
        .map_err(|_| format!("parse_statement unwound on {text:?}"))?;
    if let Err(e) = &parsed {
        if !matches!(e, CobraError::Parse(_)) {
            return Err(format!("{text:?} failed to parse with {e:?}"));
        }
    }
    let budget = ExecBudget::unlimited();
    for video in VIDEOS {
        let answered = catch_unwind(AssertUnwindSafe(|| vdbms().answer(video, text, &budget)))
            .map_err(|_| format!("answer unwound on {video:?}, {text:?}"))?;
        if let Some(why) = untyped(&answered) {
            return Err(format!("{video:?}, {text:?}: {why}"));
        }
        if parsed.is_err() && !matches!(answered, Err(CobraError::Parse(_))) {
            return Err(format!("{video:?}, {text:?}: answered what does not parse"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    #[test]
    fn arbitrary_bytes_return_typed_answers(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let outcome = run(&text);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }

    #[test]
    fn mutated_statements_return_typed_answers(
        prefix in 0..PREFIXES.len(),
        target in 0..TARGETS.len(),
        pitlane in 0usize..2,
        driver in 0..DRIVERS.len(),
        edits in proptest::collection::vec((0u8..3, 0usize..256, 0u8..=255), 0..4),
    ) {
        let text = mutate(&statement(prefix, target, pitlane == 1, driver), &edits);
        let outcome = run(&text);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

/// Unmutated, the grammar's statements over the annotated video answer
/// unless the grammar itself rejects them.
#[test]
fn drawn_statements_answer_or_fail_to_parse() {
    let budget = ExecBudget::unlimited();
    for prefix in 0..PREFIXES.len() {
        for (target, &drawn_target) in TARGETS.iter().enumerate() {
            for (driver, &drawn_driver) in DRIVERS.iter().enumerate() {
                for pitlane in [false, true] {
                    let text = statement(prefix, target, pitlane, driver);
                    assert_eq!(run(&text), Ok(()));
                    let answered = vdbms().answer("v", &text, &budget);
                    // A bare `EVENTS` takes the next word as its kind,
                    // so no clause may follow it either; `SEGMENTS` are
                    // a driver's.
                    let rejected = ["*", "EVENTS"].contains(&drawn_target)
                        || drawn_driver == Some("")
                        || drawn_target == "SEGMENTS" && drawn_driver.is_none();
                    match answered {
                        Ok(_) => assert!(!rejected, "{text:?} answered"),
                        Err(CobraError::Parse(_)) if rejected => {}
                        Err(e) => panic!("{text:?}: {e}"),
                    }
                }
            }
        }
    }
}
