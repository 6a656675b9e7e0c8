//! Cross-crate integration tests: the full ingest → train → annotate →
//! retrieve pipeline and its determinism.

mod common;

use cobra_f1::bayes::dbn::Dbn;
use cobra_f1::bayes::metrics::{precision_recall, Segment};
use cobra_f1::bayes::paper::audio_visual_dbn;
use cobra_f1::cobra::catalog::{EventRecord, VideoInfo};
use cobra_f1::cobra::extensions::StoredNet;
use cobra_f1::cobra::{derive_events, query_truth, training_windows, CobraError, Vdbms};
use cobra_f1::media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig, Span};

fn scenario() -> RaceScenario {
    common::german_scenario(150)
}

fn windows(sc: &RaceScenario) -> Vec<Span> {
    common::training_windows(sc, 5, 30)
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let sc = scenario();
    let run = || {
        let vdbms = Vdbms::new();
        let report = vdbms.ingest("race", &sc).unwrap();
        vdbms
            .train_highlight_net("race", &sc, &windows(&sc), false)
            .unwrap();
        let ann = vdbms.annotate("race", "av").unwrap();
        let highlights = vdbms.query("race", "RETRIEVE HIGHLIGHTS").unwrap();
        (report, ann, highlights)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "ingest reports differ");
    assert_eq!(a.1, b.1, "annotation reports differ");
    assert_eq!(a.2, b.2, "retrieved highlights differ");
}

#[test]
fn retrieval_grounds_in_scenario_truth() {
    let sc = scenario();
    let vdbms = Vdbms::new();
    vdbms.ingest("race", &sc).unwrap();
    vdbms
        .train_highlight_net("race", &sc, &windows(&sc), false)
        .unwrap();
    vdbms.annotate("race", "av").unwrap();

    // Recognized pit stops name real pit drivers.
    let pits = vdbms.query("race", "RETRIEVE PITSTOPS").unwrap();
    for p in &pits {
        let driver = p.driver.as_deref().expect("pit caption names a driver");
        let truth = sc.events.iter().any(|e| {
            e.kind == cobra_f1::media::synth::scenario::EventKind::PitStop
                && e.driver
                    .map(|d| cobra_f1::media::synth::scenario::DRIVERS[d])
                    == Some(driver)
        });
        assert!(truth, "query returned pit stop for {driver}, not in truth");
    }

    // The winner query returns the caption of the true winner.
    let winner = vdbms.query("race", "RETRIEVE WINNER").unwrap();
    if let Some(w) = winner.first() {
        let true_winner =
            cobra_f1::media::synth::scenario::DRIVERS[sc.standings_at(sc.n_clips - 1)[0]];
        assert_eq!(w.driver.as_deref(), Some(true_winner));
    }
}

#[test]
fn catalog_metadata_lives_in_kernel_bats() {
    let sc = scenario();
    let vdbms = Vdbms::new();
    vdbms.ingest("race", &sc).unwrap();
    // The feature layer is stored as real BATs queryable through MIL.
    let count = vdbms
        .kernel()
        .eval_mil(r#"RETURN bat("race.f1").count;"#)
        .unwrap();
    assert_eq!(
        count,
        cobra_f1::monet::MilValue::Atom(cobra_f1::monet::Atom::Int(sc.n_clips as i64))
    );
    // And Moa expressions compile down onto them.
    let expr =
        cobra_f1::moa::MoaExpr::collection("race.f3").aggregate(cobra_f1::moa::Aggregate::Max);
    let max = cobra_f1::moa::execute(vdbms.kernel(), expr).unwrap();
    let cobra_f1::monet::MilValue::Atom(cobra_f1::monet::Atom::Dbl(v)) = max else {
        panic!("expected a dbl");
    };
    assert!((0.0..=1.0).contains(&v));
}

#[test]
fn user_defined_compound_events_extend_the_event_layer() {
    use cobra_f1::rules::{
        AllenRelation, Condition, Interval, IntervalSpec, Rule, TemporalConstraint, Term,
    };
    let sc = scenario();
    let vdbms = Vdbms::new();
    vdbms.ingest("race", &sc).unwrap();
    vdbms
        .train_highlight_net("race", &sc, &windows(&sc), false)
        .unwrap();
    vdbms.annotate("race", "av").unwrap();

    // "Excited commentary during a highlight" as a user-defined compound
    // event, exactly the §5.6 UI workflow.
    let rule = Rule {
        name: "hot_highlight".into(),
        conditions: vec![
            Condition::new("highlight", vec![Term::var("d")]),
            Condition::new("excited", vec![Term::var("e")]),
        ],
        temporal: vec![TemporalConstraint {
            a: 0,
            b: 1,
            relations: vec![
                AllenRelation::Overlaps,
                AllenRelation::OverlappedBy,
                AllenRelation::During,
                AllenRelation::Contains,
                AllenRelation::Starts,
                AllenRelation::StartedBy,
                AllenRelation::Finishes,
                AllenRelation::FinishedBy,
                AllenRelation::Equal,
            ],
        }],
        head: "hot_highlight".into(),
        head_args: vec![Term::var("d")],
        interval: IntervalSpec::Of(0),
    };
    let added = vdbms.define_compound_event("race", rule).unwrap();
    // The derived events are retrievable like any built-in kind.
    let results = vdbms
        .query("race", "RETRIEVE EVENTS HOT_HIGHLIGHT")
        .unwrap();
    assert_eq!(results.len(), added);
    // Every compound event coincides with a stored highlight.
    let highlights = vdbms.query("race", "RETRIEVE HIGHLIGHTS").unwrap();
    for r in &results {
        assert!(
            highlights
                .iter()
                .any(|h| h.start == r.start && h.end == r.end),
            "compound event {:?} not aligned with a highlight",
            (r.start, r.end)
        );
    }
    let _ = Interval::new(0, 1);
}

/// FNV-1a over the bits of every CPT entry, prior then transition, in
/// node order.
fn cpt_digest(dbn: &Dbn) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for node in 0..dbn.slice().len() {
        for cpt in [dbn.prior_cpt(node), dbn.trans_cpt(node)] {
            for p in (0..cpt.n_configs()).flat_map(|cfg| cpt.row(cfg)) {
                for byte in p.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// The events of the derived kinds, as annotation stored them.
fn derived_layer(vdbms: &Vdbms, video: &str) -> Vec<EventRecord> {
    let mut events = vdbms.catalog.events(video, None).unwrap();
    events.retain(|e| !e.kind.starts_with("caption:"));
    events
}

/// The paper's tables are `RETRIEVE` answers: for the audio-visual net
/// without and with the passing sub-network, precision/recall of what the
/// query language returns equals precision/recall of `derive_events` over
/// the raw `infer` traces. Along the way, the generic `train_net` must
/// leave `train_highlight_net` the CPTs it trained before it existed
/// (digests taken at the commit before).
#[test]
fn retrieved_answers_score_like_the_raw_traces_of_the_pinned_nets() {
    let sc = common::german_scenario(120);
    let vdbms = Vdbms::new();
    vdbms.ingest("race", &sc).unwrap();
    let pins = [
        (false, 0xab9e_2551_d6c3_e7ec_u64),
        (true, 0x5fdd_01cd_d1b2_ce9a),
    ];
    for (with_passing, digest) in pins {
        vdbms
            .train_highlight_net("race", &sc, &training_windows(sc.n_clips), with_passing)
            .unwrap();
        let stored = vdbms.net("av").unwrap();
        assert_eq!(
            cpt_digest(&stored.net.dbn),
            digest,
            "passing: {with_passing}"
        );
        assert_eq!(stored.queries.len(), 4 + with_passing as usize);

        let ann = vdbms.annotate("race", "av").unwrap();
        assert!(ann.n_highlights > 0 && ann.n_sub_events > 0);
        let traces = vdbms.infer("race", "av").unwrap();
        assert_eq!(traces.len(), stored.queries.len());
        let raw = derive_events(&traces, &stored.thresholds);
        for (statement, kind, query) in [
            ("RETRIEVE HIGHLIGHTS", "highlight", "HL"),
            ("RETRIEVE EVENTS START", "start", "ST"),
            ("RETRIEVE EVENTS FLY_OUT", "fly_out", "FO"),
            ("RETRIEVE EVENTS PASSING", "passing", "PS"),
        ] {
            let retrieved: Vec<Segment> = (vdbms.query("race", statement).unwrap().iter())
                .map(|seg| Segment::new(seg.start, seg.end))
                .collect();
            let from_traces: Vec<Segment> = (raw.iter())
                .filter(|e| e.kind == kind)
                .map(|e| Segment::new(e.start, e.end))
                .collect();
            assert_eq!(
                retrieved, from_traces,
                "{statement}, passing: {with_passing}"
            );
            let truth = query_truth(&sc, query);
            assert_eq!(
                precision_recall(&retrieved, &truth),
                precision_recall(&from_traces, &truth),
                "{statement}, passing: {with_passing}"
            );
        }
        let n_passing = vdbms
            .query("race", "RETRIEVE EVENTS PASSING")
            .unwrap()
            .len();
        assert_eq!(
            n_passing > 0,
            with_passing,
            "only a net with the node attributes it"
        );
    }
}

/// A decision level is fit where the net is trained and nowhere else:
/// annotating another video leaves the stored levels bit-identical, and
/// what it derives there depends on that video's features alone — the
/// same rows under a name no scenario, hence no ground truth, ever came
/// with yield the same events.
#[test]
fn annotating_another_video_reads_no_truth_and_refits_nothing() {
    let home = common::german_scenario(90);
    let away = RaceScenario::generate(ScenarioConfig::new(RaceProfile::Belgian, 60));
    let vdbms = Vdbms::new();
    vdbms.ingest("home", &home).unwrap();
    vdbms
        .train_highlight_net("home", &home, &training_windows(home.n_clips), true)
        .unwrap();
    let levels = |vdbms: &Vdbms| {
        let mut levels: Vec<(String, u64)> = (vdbms.net("av").unwrap().thresholds.iter())
            .map(|(query, level)| (query.clone(), level.to_bits()))
            .collect();
        levels.sort();
        levels
    };
    let fitted = levels(&vdbms);
    assert_eq!(fitted.len(), 2, "HL and EA carry a level: {fitted:?}");

    vdbms.ingest("away", &away).unwrap();
    vdbms.annotate("away", "av").unwrap();
    assert_eq!(levels(&vdbms), fitted);
    let seen = derived_layer(&vdbms, "away");
    assert!(!seen.is_empty(), "the away race yields derived events");

    let rows = vdbms.catalog.load_features("away", 17).unwrap();
    let info = VideoInfo {
        name: "blind".into(),
        n_clips: away.n_clips,
        n_frames: away.n_frames(),
    };
    vdbms.catalog.register_video(info).unwrap();
    vdbms.catalog.store_features("blind", &rows).unwrap();
    vdbms.annotate("blind", "av").unwrap();
    assert_eq!(derived_layer(&vdbms, "blind"), seen);
    assert_eq!(levels(&vdbms), fitted);
}

/// Inference reads the rows a stream has committed, not the clips the
/// broadcast was registered with: halfway through a live race the traces
/// are half a race long. A feature column that is not there at all is
/// still the typed missing-metadata error.
#[test]
fn inference_over_a_half_streamed_video_covers_the_committed_rows() {
    let sc = common::german_scenario(40);
    let vdbms = Vdbms::new();
    let chunks: Vec<_> = sc.chunks(10).collect();
    for chunk in &chunks[..chunks.len() / 2] {
        vdbms.ingest_chunk("race", &sc, chunk).unwrap();
    }
    let committed = vdbms.catalog.feature_rows("race");
    assert_eq!(committed, sc.n_clips / 2);
    assert_eq!(vdbms.catalog.video("race").unwrap().n_clips, sc.n_clips);

    let (net, nodes) = audio_visual_dbn(false).unwrap();
    let stored = StoredNet {
        net,
        queries: vec![("HL".into(), nodes.highlight), ("EA".into(), nodes.excited)],
        thresholds: Default::default(),
    };
    vdbms.install_net("untrained", stored);
    let traces = vdbms.infer("race", "untrained").unwrap();
    assert_eq!(traces.len(), 2);
    assert!(traces.values().all(|trace| trace.len() == committed));
    assert_eq!(
        vdbms.catalog.load_features("race", 17).unwrap().len(),
        committed
    );
    vdbms.annotate("race", "untrained").unwrap();

    vdbms.kernel().drop_bat("race.f17").unwrap();
    for result in [
        vdbms.infer("race", "untrained").map(drop),
        vdbms.annotate("race", "untrained").map(drop),
    ] {
        assert!(
            matches!(&result, Err(CobraError::MissingMetadata { what, .. }) if what == "feature column 17"),
            "got {result:?}"
        );
    }
}
