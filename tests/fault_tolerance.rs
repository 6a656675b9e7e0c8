//! Fault-tolerant ingestion: one extractor, run once per window.
//!
//! These tests drive the real ingest pipeline with the `cobra-faults`
//! harness armed at the extractor's own fault site,
//! `media.vector.extract`. A failed window returns the extractor's
//! typed error and changes nothing; sending it again is the retry, and
//! it lands exactly once.

mod common;

use cobra_faults::{FaultPlan, Trigger};
use f1_cobra::{CobraError, Vdbms};
use f1_media::features::vector::N_FEATURES;
use f1_media::synth::scenario::RaceScenario;
use f1_media::MediaError;

const SITE: &str = "media.vector.extract";

fn scenario() -> RaceScenario {
    // Short broadcast: these tests exercise control flow, not accuracy.
    common::german_scenario(45)
}

/// The injected fault, as ingestion returns it.
fn is_the_fault(err: &CobraError) -> bool {
    matches!(
        err,
        CobraError::Media(MediaError::Fault { site, transient: false }) if site == SITE
    )
}

/// There is one extraction method: when it fails on the opening window,
/// ingestion returns its typed error after one attempt.
#[test]
fn exhausting_every_method_surfaces_a_typed_error() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let chunks: Vec<_> = sc.chunks(15).collect();
    let (result, faults) = vdbms
        .faults()
        .scope(FaultPlan::new(11).fail(SITE, Trigger::Always), || {
            vdbms.ingest_chunk("german", &sc, &chunks[0])
        });
    let err = result.expect_err("the extractor is down");
    assert!(is_the_fault(&err), "{err:?}");
    // The cause chain stays walkable down to the injected fault.
    let cause = std::error::Error::source(&err).expect("the media error is the cause");
    assert!(cause.to_string().contains(SITE), "{cause}");
    assert_eq!(faults.count(SITE), 1, "one extraction, no retry");
    assert_eq!(vdbms.catalog.feature_rows("german"), 0);
}

/// A clean ingest stores every clip and measures each of its stages.
#[test]
fn unfaulted_ingest_reports_a_clean_primary_run() {
    let vdbms = Vdbms::try_new().unwrap();
    let sc = scenario();
    let report = vdbms.ingest("german", &sc).unwrap();
    assert_eq!(report.n_clips, sc.n_clips);
    assert_eq!(vdbms.catalog.feature_rows("german"), sc.n_clips);
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
        assert_eq!(h.count(), 1, "{stage} is recorded once per ingest");
    }
    assert_eq!(snap.counter("ingest.runs", &[]), 1);
}

/// A mid-stream window whose extraction fails returns the typed error
/// and leaves the catalog as it was; sent again once the fault clears,
/// it lands once, and the stream stores what an unfaulted one stores.
#[test]
fn a_failed_window_changes_nothing_and_lands_once_when_sent_again() {
    let sc = scenario();
    let chunks: Vec<_> = sc.chunks(15).collect();
    assert_eq!(chunks.len(), 3);
    let vdbms = Vdbms::try_new().unwrap();
    vdbms.ingest_chunk("german", &sc, &chunks[0]).unwrap();
    let stored = || {
        let rows = vdbms.catalog.feature_rows("german");
        (vdbms.catalog.data_version(), rows)
    };
    let before = stored();
    let (result, faults) = vdbms
        .faults()
        .scope(FaultPlan::new(7).fail(SITE, Trigger::Always), || {
            vdbms.ingest_chunk("german", &sc, &chunks[1])
        });
    let err = result.expect_err("the extractor is down");
    assert!(is_the_fault(&err), "{err:?}");
    assert_eq!(faults.count(SITE), 1);
    assert_eq!(stored(), before, "a failed window changes nothing");

    for chunk in &chunks[1..] {
        vdbms.ingest_chunk("german", &sc, chunk).unwrap();
    }
    let clean = Vdbms::try_new().unwrap();
    for chunk in &chunks {
        clean.ingest_chunk("german", &sc, chunk).unwrap();
    }
    let bits = |v: &Vdbms| -> Vec<Vec<u64>> {
        let rows = v.catalog.load_features("german", N_FEATURES).unwrap();
        let bits = rows.iter().map(|row| row.iter().map(|x| x.to_bits()));
        bits.map(Iterator::collect).collect()
    };
    assert_eq!(bits(&vdbms).len(), sc.n_clips);
    assert_eq!(bits(&vdbms), bits(&clean), "feature rows");
    assert_eq!(
        vdbms.catalog.events("german", None).unwrap(),
        clean.catalog.events("german", None).unwrap(),
        "events"
    );
    let chunks_counted = |v: &Vdbms| {
        let snap = v.kernel().metrics().registry().snapshot();
        (
            snap.counter("ingest.runs", &[]),
            snap.counter("ingest.chunks", &[]),
        )
    };
    assert_eq!(
        chunks_counted(&vdbms),
        (1, 4),
        "three windows, one sent twice"
    );
}
