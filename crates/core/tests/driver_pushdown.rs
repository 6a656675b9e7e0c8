//! The driver predicate, pushed into the Moa plan, against the rule it
//! replaced.
//!
//! Before the push-down a driver-filtered retrieval selected every
//! event of the kind and filtered the answer outside the kernel; that
//! rule survives here, a few lines long, as the reference every
//! statement shape is compared with — on random event layers, cold and
//! again after an append.

use std::collections::HashSet;
use std::sync::Arc;

use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{CobraError, QueryOutput, RetrievedSegment, Vdbms};
use proptest::prelude::*;

/// `(statement target, event kind)`.
const TARGETS: [(&str, &str); 4] = [
    ("HIGHLIGHTS", "highlight"),
    ("PITSTOPS", "caption:pit_stop"),
    ("EXCITED", "excited"),
    ("EVENTS FLY_OUT", "fly_out"),
];

/// Stored names (already upper-cased, as `parse_query` upper-cases the
/// name it is given), with everything in them a MIL string literal has
/// to carry: a backslash, a closing parenthesis, a semicolon, a single
/// quote and letters outside ASCII.
const DRIVERS: [&str; 6] = ["MONTOYA", "O'BRIEN", "A\\B", "X);Y", "ÉCLAIR", "RÄIKKÖNEN"];

/// A name no event carries, hostile characters included.
const ABSENT: &str = "N\\O;B)O'DY Ü";

fn vdbms() -> Vdbms {
    let vdbms = Vdbms::try_new().expect("boot");
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips: 400,
            n_frames: 1000,
        })
        .expect("register");
    vdbms
}

/// Events on a ten-clip grid, so intervals touch, coincide and are
/// empty often, many of them starting inside the first fifty clips.
fn events() -> impl Strategy<Value = Vec<EventRecord>> {
    proptest::collection::vec((0usize..4, 0usize..30, 0usize..5, 0usize..9), 0..200).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(kind, start, len, driver)| EventRecord {
                    kind: TARGETS[kind].1.into(),
                    start: start * 10,
                    end: (start + len) * 10,
                    // Two draws in nine name no one.
                    driver: DRIVERS.get(driver).map(|name| name.to_string()),
                })
                .collect()
        },
    )
}

/// Every event of `kind`, as the segment it is retrieved as.
fn of_kind(events: &[EventRecord], kind: &str) -> Vec<RetrievedSegment> {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| RetrievedSegment {
            start: e.start,
            end: e.end,
            label: kind.trim_start_matches("caption:").into(),
            driver: e.driver.as_deref().map(Into::into),
        })
        .collect()
}

/// The rule the plan replaced: keep what names `driver`, or names no
/// one and overlaps five seconds around any event naming `driver`; what
/// is kept names `driver`.
fn with_driver(
    mut segments: Vec<RetrievedSegment>,
    events: &[EventRecord],
    driver: &str,
) -> Vec<RetrievedSegment> {
    let visible: Vec<(usize, usize)> = events
        .iter()
        .filter(|e| e.driver.as_deref() == Some(driver))
        .map(|e| (e.start.saturating_sub(50), e.end + 50))
        .collect();
    segments.retain(|seg| match &seg.driver {
        Some(named) => &**named == driver,
        None => visible.iter().any(|&(s, e)| s < seg.end && seg.start < e),
    });
    for seg in &mut segments {
        seg.driver = Some(driver.into());
    }
    segments
}

fn query(vdbms: &Vdbms, text: &str) -> Result<Vec<RetrievedSegment>, String> {
    // Any error here is a failure: in particular no name may break the
    // MIL text it is bound into.
    vdbms.query("v", text).map_err(|e| format!("{text}: {e}"))
}

/// Every event-kind target × pit lane on/off × driver present/absent
/// against the reference over `events`.
fn check_every_statement(vdbms: &Vdbms, events: &[EventRecord]) -> Result<(), String> {
    for (target, kind) in TARGETS {
        let all = query(vdbms, &format!("RETRIEVE {target}"))?;
        if all != of_kind(events, kind) {
            return Err(format!("RETRIEVE {target}: {all:?}"));
        }
        // The pit-lane join is not what changed: its driverless answer
        // is the input the old driver filter ran over.
        let at_pitlane = query(vdbms, &format!("RETRIEVE {target} AT PITLANE"))?;
        for driver in DRIVERS.iter().copied().chain([ABSENT]) {
            for (clause, unfiltered) in [("", &all), (" AT PITLANE", &at_pitlane)] {
                let text = format!("RETRIEVE {target}{clause} WITH DRIVER \"{driver}\"");
                let got = query(vdbms, &text)?;
                let expected = with_driver(unfiltered.clone(), events, driver);
                if got != expected {
                    return Err(format!(
                        "{text}\n  got      {got:?}\n  expected {expected:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pushed_down_plan_answers_like_the_rule_it_replaced(
        stored in events(),
        appended in events(),
    ) {
        let vdbms = vdbms();
        // Nothing stored: the video has no event layer at all.
        if !stored.is_empty() {
            vdbms.catalog.store_events("v", &stored).expect("store");
        }
        if let Err(wrong) = check_every_statement(&vdbms, &stored) {
            prop_assert!(false, "cold: {wrong}");
        }
        // Every answer above is cached now; an append must void them.
        let appended: Vec<EventRecord> = appended.into_iter().take(5).collect();
        prop_assume!(!appended.is_empty());
        vdbms.catalog.store_events("v", &appended).expect("append");
        let all: Vec<EventRecord> = stored.into_iter().chain(appended).collect();
        if let Err(wrong) = check_every_statement(&vdbms, &all) {
            prop_assert!(false, "after an append: {wrong}");
        }
    }
}

fn layered() -> Vdbms {
    let vdbms = vdbms();
    let event = |kind: &str, start, end, driver: Option<&str>| EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    };
    vdbms
        .catalog
        .store_events(
            "v",
            &[
                event("highlight", 10, 40, None),
                event("highlight", 60, 80, Some("MONTOYA")),
                event("caption:pit_stop", 20, 35, Some("MONTOYA")),
            ],
        )
        .expect("store");
    vdbms
}

/// Events that name no one are stored under the empty name, so an empty
/// driver name must never reach the selection: it is refused where the
/// statement is parsed, the same way whatever the statement's prefix.
#[test]
fn an_empty_driver_name_is_one_parse_error_for_every_statement_form() {
    let vdbms = layered();
    for target in ["HIGHLIGHTS", "SEGMENTS", "LEADER", "PITSTOPS AT PITLANE"] {
        let refused: Vec<String> = ["", "PROFILE ", "EXPLAIN "]
            .iter()
            .map(|prefix| {
                let text = format!("{prefix}RETRIEVE {target} WITH DRIVER \"\"");
                match vdbms.run("v", &text) {
                    Err(e @ CobraError::Parse(_)) => e.to_string(),
                    other => panic!("{text}: expected a parse error, got {other:?}"),
                }
            })
            .collect();
        assert!(refused[0].contains("must not be empty"), "{}", refused[0]);
        assert!(refused.iter().all(|e| *e == refused[0]), "{refused:?}");
    }
}

/// A driver no event names and a video without an event layer are empty
/// answers, not kernel errors — fused, residual and visibility alike.
#[test]
fn unknown_drivers_and_missing_event_layers_answer_nothing() {
    let statements = [
        "RETRIEVE HIGHLIGHTS WITH DRIVER \"NOBODY\"",
        "RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER \"NOBODY\"",
        "RETRIEVE SEGMENTS WITH DRIVER \"NOBODY\"",
        "RETRIEVE LEADER WITH DRIVER \"NOBODY\"",
    ];
    for vdbms in [layered(), vdbms()] {
        for text in statements {
            assert_eq!(vdbms.query("v", text).expect(text), [], "{text}");
            let profiled = vdbms.run("v", &format!("PROFILE {text}")).expect(text);
            let QueryOutput::Profile(profile) = profiled else {
                panic!("{text}: PROFILE must return a profile");
            };
            assert_eq!(profile.segments, [], "{text}");
            vdbms.run("v", &format!("EXPLAIN {text}")).expect(text);
        }
    }
    // The driver who is there is found by all three.
    let vdbms = layered();
    let hl = vdbms
        .query("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"")
        .unwrap();
    assert_eq!(hl.len(), 2, "one names him, one overlaps his pit stop");
    assert!(hl.iter().all(|s| s.driver.as_deref() == Some("MONTOYA")));
}

/// The distinct allocations among `strings`, told apart by address.
fn allocations<'a>(strings: impl IntoIterator<Item = &'a Arc<str>>) -> usize {
    let addresses: HashSet<*const str> = strings.into_iter().map(Arc::as_ptr).collect();
    addresses.len()
}

/// How many distinct names `rows` carry.
fn names(rows: &[RetrievedSegment]) -> usize {
    let names: HashSet<&str> = rows.iter().flat_map(|s| s.driver.as_deref()).collect();
    names.len()
}

/// A cold answer's rows share their strings: one label, and one driver
/// when the statement names one, whether a row names the driver or the
/// overlap rule kept it; otherwise a row's driver is the event layer's
/// own string, one per name — the leaders' and the pit stops' too.
#[test]
fn the_rows_of_a_cold_answer_share_their_strings() {
    let vdbms = vdbms();
    let row = |kind: &str, i: usize, driver: Option<&str>| EventRecord {
        kind: kind.into(),
        start: i * 5,
        end: i * 5 + 3,
        driver: driver.map(str::to_owned),
    };
    let highlights: Vec<EventRecord> = (0..60)
        .map(|i| row("highlight", i, (i % 4 > 0).then(|| DRIVERS[i % 4 - 1])))
        .collect();
    // A leader every 35 clips, cycling through three names and no one,
    // and a pit stop under the same name 10 clips later; one more pit
    // stop, naming no one, under the unnamed highlight at clip 20.
    let captions = (0..8).flat_map(|i| {
        let driver = (i % 4 > 0).then(|| DRIVERS[i % 4 - 1]);
        let leader = row("caption:classification", i * 7, driver);
        [leader, row("caption:pit_stop", i * 7 + 2, driver)]
    });
    let unnamed_pit = row("caption:pit_stop", 4, None);
    let events: Vec<EventRecord> = highlights
        .iter()
        .cloned()
        .chain(captions)
        .chain([unnamed_pit])
        .collect();
    vdbms.catalog.store_events("v", &events).expect("store");

    let named = query(&vdbms, "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"").unwrap();
    assert!(
        named.iter().any(|s| s.start % 20 == 0),
        "the overlap rule kept none"
    );
    assert!(named.len() > 15, "{named:?}");
    assert_eq!(allocations(named.iter().map(|s| &s.label)), 1);
    assert_eq!(allocations(named.iter().flat_map(|s| &s.driver)), 1);

    let all = query(&vdbms, "RETRIEVE HIGHLIGHTS").unwrap();
    assert_eq!(all.len(), highlights.len());
    assert_eq!(allocations(all.iter().map(|s| &s.label)), 1);
    assert_eq!(allocations(all.iter().flat_map(|s| &s.driver)), 3);

    let shared = |text: &str| {
        let rows = query(&vdbms, text).unwrap();
        assert_eq!(allocations(rows.iter().map(|s| &s.label)), 1, "{text}");
        let drivers = allocations(rows.iter().flat_map(|s| &s.driver));
        assert_eq!(drivers, names(&rows), "{text}: {rows:?}");
        rows
    };
    assert_eq!(names(&shared("RETRIEVE LEADER")), 3);
    // The unnamed highlight at clip 80 takes its pit stop's driver.
    let pitlane = shared("RETRIEVE HIGHLIGHTS AT PITLANE");
    let at_80 = pitlane.iter().find(|s| s.start == 80);
    assert_eq!(at_80.and_then(|s| s.driver.as_deref()), Some(DRIVERS[1]));
    // The one at clip 20 has an unnamed pit stop and is kept by the
    // overlap rule.
    let montoya = shared("RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER \"MONTOYA\"");
    assert!(montoya.iter().any(|s| s.start == 20), "{montoya:?}");
    assert_eq!(names(&montoya), 1);
}
