//! Fault-tolerant ingestion: the pre-processor's retry/fallback path.
//!
//! These tests drive the real ingest pipeline with the `cobra-faults`
//! harness armed, knocking out extraction methods at their named fault
//! sites (`extract.full`, `extract.fast`) and checking that ingestion
//! degrades — visibly, through `IngestReport::attempts` — instead of
//! failing outright.

mod common;

use cobra_faults::{FaultPlan, Trigger};
use f1_cobra::{CobraError, Vdbms};
use f1_media::synth::scenario::RaceScenario;

fn scenario() -> RaceScenario {
    // Short broadcast: these tests exercise control flow, not accuracy.
    common::german_scenario(45)
}

#[test]
fn primary_extraction_fault_falls_back_to_fast_method() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let (report, faults) = vdbms.faults().scope(
        FaultPlan::new(7).fail("extract.full", Trigger::Always),
        || vdbms.ingest("german", &sc),
    );
    let report = report.unwrap();
    assert_eq!(report.extraction_method, "fast");
    assert!(report.degraded, "fallback must be reported as degraded");
    // The attempt history shows the failed primary and the succeeding
    // fallback, in order.
    assert_eq!(report.attempts.len(), 2);
    assert_eq!(report.attempts[0].method, "full");
    assert!(report.attempts[0].error.is_some());
    assert_eq!(report.attempts[1].method, "fast");
    assert_eq!(report.attempts[1].error, None);
    assert_eq!(faults.count("extract.full"), 1);
    // The degraded features are real: they landed in the catalog.
    assert_eq!(report.n_clips, sc.n_clips);
    assert!(vdbms.kernel().has_bat("german.f1"));
}

#[test]
fn transient_fault_is_retried_without_degrading() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    // The "full" profile allows one retry; a single transient fault
    // should be absorbed in place.
    let (report, faults) = vdbms.faults().scope(
        FaultPlan::new(3).fail_transient("extract.full", Trigger::Times(1)),
        || vdbms.ingest("german", &sc),
    );
    let report = report.unwrap();
    assert_eq!(report.extraction_method, "full");
    assert!(!report.degraded);
    assert_eq!(report.attempts.len(), 1);
    assert_eq!(report.attempts[0].tries, 2);
    assert_eq!(report.attempts[0].error, None);
    assert_eq!(faults.count("extract.full"), 1);
}

#[test]
fn exhausting_every_method_surfaces_a_typed_error() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let (result, faults) = vdbms.faults().scope(
        FaultPlan::new(11).fail("extract.*", Trigger::Always),
        || vdbms.ingest("german", &sc),
    );
    match result {
        Err(CobraError::ExtractionFailed { video, source }) => {
            assert_eq!(video, "german");
            // The cause chain stays walkable down to the injected fault.
            let cause = std::error::Error::source(source.as_ref())
                .expect("extraction failure keeps its cause");
            assert!(cause.to_string().contains("extract.fast"), "{cause}");
        }
        other => panic!("expected ExtractionFailed, got {other:?}"),
    }
    // Both methods were attempted before giving up.
    assert_eq!(faults.count("extract.full"), 1);
    assert_eq!(faults.count("extract.fast"), 1);
}

#[test]
fn measured_slowdown_reranks_extraction_methods() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = common::german_scenario(30);

    // Clean baseline: the static ranking holds and the cost model
    // records the primary's healthy pace.
    let t0 = std::time::Instant::now();
    let report = vdbms.ingest("german", &sc).unwrap();
    let baseline_ms = t0.elapsed().as_millis() as u64;
    assert_eq!(report.extraction_method, "full");
    assert!(!report.reranked);
    assert_eq!(report.ranking[0].method, "full");

    // A degraded dependency slows "full" far past its demonstrated best
    // (4x the whole baseline ingest bounds the slowdown ratio well above
    // the quality penalty that protects the primary's rank).
    let delay_ms = (baseline_ms * 4).max(1_000);
    let (slowed, faults) = vdbms.faults().scope(
        FaultPlan::new(5).slow("extract.full", Trigger::Always, delay_ms),
        || vdbms.ingest("german-slow", &sc),
    );
    let slowed = slowed.unwrap();
    assert_eq!(slowed.extraction_method, "full", "slow is not failing");
    assert_eq!(faults.count_slowed("extract.full"), 1);

    // Re-ingest with the faults gone: the measured cost model now
    // prefers the fast fallback, and the report says why.
    let report = vdbms.ingest("german2", &sc).unwrap();
    assert!(report.reranked, "ranking: {:?}", report.ranking);
    assert_eq!(report.extraction_method, "fast");
    assert_eq!(report.ranking[0].method, "fast");
    assert!(
        report
            .ranking
            .iter()
            .any(|r| r.method == "full" && r.measured),
        "the demoted primary must carry its measurement: {:?}",
        report.ranking
    );
    assert!(
        report.rationale.contains("full") && report.rationale.contains("fast"),
        "rationale must name both methods: {}",
        report.rationale
    );
    // "fast" was the first choice this time, not a fallback.
    assert!(!report.degraded);
    assert_eq!(report.attempts.len(), 1);

    // Ingest stages were measured along the way.
    let snap = vdbms.kernel().metrics().registry().snapshot();
    for stage in [
        "register",
        "keyword_spotting",
        "feature_extraction",
        "caption_recognition",
    ] {
        let h = snap
            .histogram("ingest.stage_ns", &[("stage", stage)])
            .unwrap_or_else(|| panic!("missing ingest stage histogram {stage}"));
        assert!(h.count() >= 3, "{stage} not recorded per ingest");
    }
    assert_eq!(snap.counter("ingest.runs", &[]), 3);
}

#[test]
fn unfaulted_ingest_reports_a_clean_primary_run() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let report = vdbms.ingest("german", &sc).unwrap();
    assert_eq!(report.extraction_method, "full");
    assert!(!report.degraded);
    assert_eq!(report.attempts.len(), 1);
    assert_eq!(report.attempts[0].tries, 1);
    assert_eq!(report.attempts[0].error, None);
}

/// The streaming path runs the same pre-processor: its opening window
/// walks the ranking, and what served it is pinned for the stream.
#[test]
fn streamed_ingest_falls_back_on_its_first_window_and_pins_the_method() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let chunks: Vec<_> = sc.chunks(15).collect();
    assert_eq!(chunks.len(), 3);
    let (result, faults) = vdbms.faults().scope(
        FaultPlan::new(7).fail("extract.full", Trigger::Always),
        || {
            chunks
                .iter()
                .try_for_each(|c| vdbms.ingest_chunk("german", &sc, c).map(drop))
        },
    );
    result.expect("the stream completes on the fallback method");
    // Only the opening window tried "full"; later windows went straight
    // to the pinned "fast".
    assert_eq!(faults.count("extract.full"), 1);
    let snap = vdbms.kernel().metrics().registry().snapshot();
    assert_eq!(snap.counter("ingest.degraded", &[]), 1);
    assert_eq!(snap.counter("ingest.runs", &[]), 1);
    assert_eq!(snap.counter("ingest.chunks", &[]), 3);
    assert_eq!(vdbms.catalog.feature_rows("german"), sc.n_clips);
}

#[test]
fn streamed_ingest_retries_a_transient_fault_on_its_first_window() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let (result, faults) = vdbms.faults().scope(
        FaultPlan::new(3).fail_transient("extract.full", Trigger::Times(1)),
        || {
            sc.chunks(15)
                .try_for_each(|c| vdbms.ingest_chunk("german", &sc, &c).map(drop))
        },
    );
    result.expect("the retry absorbs the fault");
    assert_eq!(faults.count("extract.full"), 1);
    let snap = vdbms.kernel().metrics().registry().snapshot();
    assert_eq!(snap.counter("ingest.degraded", &[]), 0, "still on \"full\"");
    assert_eq!(
        snap.counter("faults.failures", &[("site", "extract.full")]),
        1
    );
    assert_eq!(vdbms.catalog.feature_rows("german"), sc.n_clips);
}
