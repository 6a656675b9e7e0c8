//! Observability surface: `EXPLAIN`/`PROFILE` span trees (golden-file
//! shapes across every retrieval target) and the metrics the query path
//! records while answering, and annotation while deriving events.
//!
//! The fixture stores events (and, to annotate, feature rows) straight
//! into the catalog — no media pipeline — so these tests stay fast and
//! the span shapes deterministic.

use f1_bayes::paper::audio_visual_dbn;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::extensions::StoredNet;
use f1_cobra::{QueryOutput, Vdbms};

/// A catalog-only fixture with one event of every retrievable kind.
fn fixture() -> Vdbms {
    let vdbms = Vdbms::try_new().unwrap();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips: 200,
            n_frames: 200 * 25 / 10,
        })
        .expect("register test video");
    let ev = |kind: &str, start: usize, end: usize, driver: Option<&str>| EventRecord {
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
                ev("highlight", 10, 40, None),
                ev("fly_out", 15, 25, Some("SCHUMACHER")),
                ev("excited", 12, 30, None),
                ev("caption:pit_stop", 20, 35, Some("MONTOYA")),
                ev("caption:winner", 180, 190, Some("SCHUMACHER")),
                ev("caption:final_lap", 170, 180, None),
                ev("caption:classification", 0, 10, Some("SCHUMACHER")),
            ],
        )
        .unwrap();
    vdbms
}

/// One query per target variant, plus one exercising both filters.
const QUERIES: &[&str] = &[
    "RETRIEVE HIGHLIGHTS",
    "RETRIEVE EVENTS FLY_OUT",
    "RETRIEVE EXCITED",
    "RETRIEVE PITSTOPS",
    "RETRIEVE WINNER",
    "RETRIEVE FINALLAP",
    "RETRIEVE LEADER",
    "RETRIEVE SEGMENTS WITH DRIVER \"SCHUMACHER\"",
    "RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER \"MONTOYA\"",
    "RETRIEVE SEGMENTS AT PITLANE WITH DRIVER \"SCHUMACHER\"",
    "RETRIEVE LEADER AT PITLANE",
    "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"",
    "RETRIEVE PITSTOPS WITH DRIVER \"MONTOYA\"",
];

fn shapes(vdbms: &Vdbms, prefix: &str) -> String {
    let mut out = String::new();
    for q in QUERIES {
        let span = match vdbms.run("v", &format!("{prefix} {q}")).unwrap() {
            QueryOutput::Plan(span) => span,
            QueryOutput::Profile(p) => p.span,
            QueryOutput::Segments(_) | QueryOutput::Multi(_) => {
                panic!("{prefix} {q} returned bare segments")
            }
        };
        out.push_str(&format!("== {q}\n{}", span.shape()));
    }
    out
}

#[test]
fn explain_shapes_match_golden() {
    let got = shapes(&fixture(), "EXPLAIN");
    assert_eq!(
        got,
        include_str!("golden/explain_shapes.txt"),
        "EXPLAIN plan shapes drifted; actual output:\n{got}"
    );
}

#[test]
fn profile_shapes_match_golden() {
    let got = shapes(&fixture(), "PROFILE");
    assert_eq!(
        got,
        include_str!("golden/profile_shapes.txt"),
        "PROFILE span shapes drifted; actual output:\n{got}"
    );
}

/// `span` without the children only an execution has (`kernel:*` under
/// `mil:eval`) or only a plan has (`plan:*` under `moa:compile`).
fn common_shape(span: &cobra_obs::SpanNode) -> cobra_obs::SpanNode {
    let mut node = cobra_obs::SpanNode::new(&span.name);
    node.children = span
        .children
        .iter()
        .filter(|c| !c.name.starts_with("kernel:") && !c.name.starts_with("plan:"))
        .map(common_shape)
        .collect();
    node
}

/// `EXPLAIN` and `PROFILE` walk one stage list, so they cannot disagree
/// about which stages a statement has — whatever its clauses.
#[test]
fn explain_and_profile_agree_on_every_statement_shape() {
    let vdbms = fixture();
    let targets = [
        "SEGMENTS",
        "HIGHLIGHTS",
        "EVENTS FLY_OUT",
        "PITSTOPS",
        "WINNER",
        "FINALLAP",
        "LEADER",
        "EXCITED",
    ];
    for target in targets {
        for pitlane in ["", " AT PITLANE"] {
            for driver in ["", " WITH DRIVER \"SCHUMACHER\""] {
                let q = format!("RETRIEVE {target}{pitlane}{driver}");
                let explain = vdbms.run("v", &format!("EXPLAIN {q}"));
                let profile = vdbms.run("v", &format!("PROFILE {q}"));
                if target == "SEGMENTS" && driver.is_empty() {
                    let (explain, profile) = (explain.unwrap_err(), profile.unwrap_err());
                    assert!(matches!(explain, f1_cobra::CobraError::Parse(_)), "{q}");
                    assert_eq!(explain.to_string(), profile.to_string(), "{q}");
                    continue;
                }
                let (Ok(QueryOutput::Plan(plan)), Ok(QueryOutput::Profile(profile))) =
                    (explain, profile)
                else {
                    panic!("{q}: expected a plan and a profile");
                };
                assert_eq!(
                    common_shape(&plan).shape(),
                    common_shape(&profile.span).shape(),
                    "EXPLAIN and PROFILE disagree on {q}"
                );
            }
        }
    }
}

#[test]
fn profile_measures_every_level_with_nonzero_timings() {
    let vdbms = fixture();
    // The statement whose plan uses all three operators: the selection
    // on one field, mirrored, joined by position against the other.
    let QueryOutput::Profile(profile) = vdbms
        .run("v", "PROFILE RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"")
        .unwrap()
    else {
        panic!("PROFILE must return a profile");
    };
    assert!(!profile.segments.is_empty(), "fixture stores a highlight");
    let span = &profile.span;
    assert!(span.elapsed_ns > 0, "root span unmeasured");
    for stage in [
        "conceptual:select_events",
        "mil:eval",
        "kernel:select",
        "kernel:mirror",
        "kernel:join",
    ] {
        let node = span
            .find(stage)
            .unwrap_or_else(|| panic!("missing {stage}"));
        assert!(node.elapsed_ns > 0, "{stage} recorded no time");
    }
    // moa:compile exists; sub-tick compilations may legitimately round
    // to zero, so only presence is asserted.
    assert!(span.find("moa:compile").is_some());
}

/// `PROFILE` says how each selection found its rows: from a value index
/// built for it, from the cached one, or by a scan (of a temporary).
#[test]
fn profile_says_how_each_selection_ran() {
    let vdbms = fixture();
    let selections = |q: &str| {
        let QueryOutput::Profile(profile) = vdbms.run("v", &format!("PROFILE {q}")).unwrap() else {
            panic!("PROFILE must return a profile");
        };
        let node = profile.span.find("kernel:select").expect("a selection ran");
        let meta = |key: &str| {
            let value = node
                .meta
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone());
            value.unwrap_or_else(|| panic!("kernel:select missing '{key}'"))
        };
        let uses: Vec<String> = meta("index").split(',').map(str::to_string).collect();
        assert_eq!(uses.len().to_string(), meta("calls"), "{q}");
        uses
    };
    // Kind-only reads select on the kind column: the first builds its
    // index, the next probes it.
    assert_eq!(selections("RETRIEVE HIGHLIGHTS"), ["built"]);
    assert_eq!(selections("RETRIEVE EXCITED"), ["hit"]);
    // A driver read selects on a catalog column, then on what it fetched
    // — twice, as the driver's and the unnamed events' evaluations.
    let uses = selections("RETRIEVE PITSTOPS WITH DRIVER \"MONTOYA\"");
    let count = |word: &str| uses.iter().filter(|u| *u == word).count();
    assert_eq!(
        (count("built") + count("hit"), count("scan")),
        (2, 2),
        "{uses:?}"
    );
}

#[test]
fn explain_does_not_execute_and_carries_no_timings() {
    let vdbms = Vdbms::try_new().unwrap();
    // No video registered: EXPLAIN still answers (it plans, never runs)…
    let QueryOutput::Plan(plan) = vdbms.run("ghost", "EXPLAIN RETRIEVE HIGHLIGHTS").unwrap() else {
        panic!("EXPLAIN must return a plan");
    };
    assert_eq!(plan.zeroed(), plan, "EXPLAIN plans must be timing-free");
    // …while PROFILE actually executes and surfaces the error.
    assert!(vdbms.run("ghost", "PROFILE RETRIEVE HIGHLIGHTS").is_err());
}

#[test]
fn profile_returns_the_same_answer_as_retrieve() {
    let vdbms = fixture();
    for q in QUERIES {
        let plain = vdbms.query("v", q).unwrap();
        let QueryOutput::Profile(p) = vdbms.run("v", &format!("PROFILE {q}")).unwrap() else {
            panic!("expected a profile for {q}");
        };
        assert_eq!(plain, p.segments, "PROFILE changed the answer of {q}");
        let QueryOutput::Segments(run) = vdbms.run("v", q).unwrap() else {
            panic!("expected segments for {q}");
        };
        assert_eq!(plain, run, "run() changed the answer of {q}");
    }
}

#[test]
fn query_execution_feeds_the_kernel_metrics() {
    let vdbms = fixture();
    let before = vdbms.kernel().metrics().registry().snapshot();
    vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    let delta = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .delta(&before);
    assert_eq!(delta.counter("mil.evals", &[]), 1, "one eval per miss");
    assert!(delta.counter("mil.ticks", &[]) > 0);
    let select = delta
        .histogram("mil.op_ns", &[("op", "select")])
        .expect("select ops recorded");
    assert!(select.count() >= 1 && select.sum() > 0);
    let eval = delta.histogram("mil.eval_ns", &[]).expect("eval timed");
    assert_eq!(eval.count(), 1, "one timing per evaluation");

    // A driver clause adds the mirror and the positional join to the
    // plan; each operator the interpreter runs feeds its own series.
    vdbms
        .query("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"")
        .unwrap();
    let delta = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .delta(&before);
    for op in ["mirror", "join"] {
        let series = delta.histogram("mil.op_ns", &[("op", op)]);
        assert!(series.is_some_and(|h| h.count() >= 1), "{op} unrecorded");
    }

    // Annotation feeds the same registry: one run, each of its two
    // stages (stepping the filter; segmenting plus the commit) once.
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|t| {
            (0..17)
                .map(|k| ((t * 7 + k * 3) % 10) as f64 / 10.0)
                .collect()
        })
        .collect();
    vdbms.catalog.store_features("v", &rows).unwrap();
    let (net, nodes) = audio_visual_dbn(false).unwrap();
    let queries = vec![("HL".into(), nodes.highlight), ("EA".into(), nodes.excited)];
    let thresholds = Default::default();
    vdbms.install_net(
        "av",
        StoredNet {
            net,
            queries,
            thresholds,
        },
    );
    let before = vdbms.kernel().metrics().registry().snapshot();
    vdbms.annotate("v", "av").unwrap();
    let registry = vdbms.kernel().metrics().registry();
    let delta = registry.snapshot().delta(&before);
    assert_eq!(delta.counter("annotate.runs", &[]), 1);
    for stage in ["inference", "segmentation"] {
        let series = delta.histogram("annotate.stage_ns", &[("stage", stage)]);
        assert!(
            series.is_some_and(|h| h.count() == 1 && h.sum() > 0),
            "{stage}"
        );
    }
}

#[test]
fn retrieval_still_reads_catalog_truth_through_the_kernel_path() {
    let vdbms = fixture();
    let pits = vdbms.query("v", "RETRIEVE PITSTOPS").unwrap();
    assert_eq!(pits.len(), 1);
    assert_eq!(pits[0].start, 20);
    assert_eq!(pits[0].end, 35);
    assert_eq!(&*pits[0].label, "pit_stop");
    assert_eq!(pits[0].driver.as_deref(), Some("MONTOYA"));
    // Driverless events come back with `None`, not an empty string.
    let hl = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    assert_eq!(hl[0].driver, None);
    // Every clause of a statement narrows its answer, SEGMENTS included:
    // of the driver's three visibility spans only the two around the
    // pit stop at clips 20–35 are at the pit lane.
    let seen = vdbms
        .query("v", "RETRIEVE SEGMENTS WITH DRIVER \"SCHUMACHER\"")
        .unwrap();
    let at_pit = vdbms
        .query(
            "v",
            "RETRIEVE SEGMENTS AT PITLANE WITH DRIVER \"SCHUMACHER\"",
        )
        .unwrap();
    assert_eq!(seen.len(), 3);
    assert_eq!(at_pit.len(), 2);
    assert!(at_pit.iter().all(|s| s.start < 35 && 20 < s.end));
    // Unknown kinds are empty answers, unknown videos are errors.
    assert!(vdbms.query("v", "RETRIEVE EVENTS NOPE").unwrap().is_empty());
    assert!(vdbms.query("ghost", "RETRIEVE HIGHLIGHTS").is_err());
}
