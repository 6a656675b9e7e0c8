//! Differential test: the streaming `Annotator` must derive exactly the
//! events the whole-video `derive_events` in `oracle/mod.rs` derives from
//! the `infer` traces, kind by kind and record for record, however the
//! committed rows are chunked: one chunk, one row per push, or random
//! chunk sizes. The rows are a German GP's, the nets the trained
//! audio-visual one without and with the passing sub-network, at their
//! stored levels and at random ones (the stored `HL` level cuts this
//! race into one highlight; others cut short ones and long ones with a
//! tail). And `Vdbms::annotate` (one push, one `finish`, one commit)
//! stores the oracle's records in the oracle's order.

mod common;
mod oracle;

use std::collections::HashMap;
use std::sync::OnceLock;

use f1_cobra::catalog::EventRecord;
use f1_cobra::extensions::StoredNet;
use f1_cobra::{training_windows, Annotator, Vdbms};
use proptest::prelude::*;

/// A trained net, the rows it annotates and its `infer` traces there.
struct Case {
    stored: StoredNet,
    rows: Vec<Vec<f64>>,
    traces: HashMap<String, Vec<f64>>,
}

impl Case {
    /// The net at the `HL` and `EA` levels given, the stored ones where
    /// `None`.
    fn at(&self, levels: [Option<f64>; 2]) -> StoredNet {
        let mut stored = self.stored.clone();
        for (query, level) in ["HL", "EA"].into_iter().zip(levels) {
            if let Some(level) = level {
                stored.thresholds.insert(query.to_string(), level);
            }
        }
        stored
    }
}

/// The German GP and the `av` net without (`[0]`) and with (`[1]`)
/// passing; each net's `Vdbms::annotate` is checked once here.
fn cases() -> &'static [Case; 2] {
    static CASES: OnceLock<[Case; 2]> = OnceLock::new();
    CASES.get_or_init(|| {
        let sc = common::german_scenario(120);
        let vdbms = Vdbms::new();
        vdbms.ingest("race", &sc).unwrap();
        [false, true].map(|with_passing| {
            let windows = training_windows(sc.n_clips);
            vdbms
                .train_highlight_net("race", &sc, &windows, with_passing)
                .unwrap();
            let stored = vdbms.net("av").unwrap();
            let traces = vdbms.infer("race", "av").unwrap();
            vdbms.annotate("race", "av").unwrap();
            let mut layer = vdbms.catalog.events("race", None).unwrap();
            layer.retain(|e| !e.kind.starts_with("caption:"));
            let expected = oracle::derive_events(&traces, &stored.thresholds);
            assert_eq!(layer, expected, "passing: {with_passing}");
            let rows = vdbms.catalog.load_features("race", 17).unwrap();
            Case {
                stored,
                rows,
                traces,
            }
        })
    })
}

/// `stored`'s events over `rows` pushed in chunks of `sizes` (the last
/// size repeating), then `finish`.
fn annotate_in_chunks(stored: &StoredNet, rows: &[Vec<f64>], sizes: &[usize]) -> Vec<EventRecord> {
    let mut annotator = Annotator::new(stored).unwrap();
    let mut events = Vec::new();
    let mut rest = rows;
    for &n in sizes
        .iter()
        .chain(std::iter::repeat(&sizes[sizes.len() - 1]))
    {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        events.extend(annotator.push(chunk).unwrap());
        rest = tail;
    }
    events.extend(annotator.finish().unwrap());
    events
}

fn of_kind<'a>(events: &'a [EventRecord], kind: &str) -> Vec<&'a EventRecord> {
    events.iter().filter(|e| e.kind == kind).collect()
}

/// The annotator in chunks of `sizes` equals the oracle over the whole
/// traces, kind by kind, record for record.
fn check(case: &Case, levels: [Option<f64>; 2], sizes: &[usize]) -> Vec<EventRecord> {
    let stored = case.at(levels);
    let expected = oracle::derive_events(&case.traces, &stored.thresholds);
    let got = annotate_in_chunks(&stored, &case.rows, sizes);
    assert_eq!(
        got.len(),
        expected.len(),
        "levels {levels:?}, chunks {sizes:?}"
    );
    for kind in ["highlight", "start", "fly_out", "passing", "excited"] {
        let (got, expected) = (of_kind(&got, kind), of_kind(&expected, kind));
        assert_eq!(got, expected, "{kind}, levels {levels:?}, chunks {sizes:?}");
    }
    expected
}

#[test]
fn one_chunk_and_one_row_per_push_equal_the_whole_video_rule() {
    let all = cases()[0].rows.len();
    let mut lengths = Vec::new();
    for case in cases() {
        for levels in [[None, None], [Some(0.5), Some(0.3)], [Some(0.7), None]] {
            let events = check(case, levels, &[all]);
            check(case, levels, &[1]);
            let highlights = of_kind(&events, "highlight");
            lengths.extend(highlights.iter().map(|h| h.end - h.start));
        }
    }
    // Both attribution branches ran: one 5 s window per short highlight,
    // a run of them (and a tail) on a long one.
    assert!(lengths.iter().any(|&n| n <= 150), "{lengths:?}");
    assert!(
        lengths.iter().any(|&n| n > 150 && n % 50 != 0),
        "{lengths:?}"
    );
}

/// Candidates tied at the peak go to the last in `ST`, `FO`, `PS` order,
/// as the oracle's `max_by` picks them: with `FO` read off `ST`'s node,
/// every window either would win is a fly-out.
#[test]
fn tied_peaks_go_to_the_last_candidate() {
    let case = &cases()[0];
    let mut stored = case.stored.clone();
    let st = stored.queries.iter().find(|(q, _)| q == "ST").unwrap().1;
    for (query, node) in &mut stored.queries {
        if query == "FO" {
            *node = st;
        }
    }
    let mut traces = case.traces.clone();
    traces.insert("FO".into(), traces["ST"].clone());
    let rows = case.rows.clone();
    let tied = Case {
        stored,
        rows,
        traces,
    };
    let events = check(&tied, [None, None], &[97]);
    assert!(of_kind(&events, "start").is_empty());
    assert!(!of_kind(&events, "fly_out").is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_chunkings_equal_the_whole_video_rule(
        sizes in proptest::collection::vec(1usize..400, 1..12),
        with_passing in 0usize..2,
        hl in 0usize..20,
        ea in 0usize..20,
    ) {
        // Level 0 keeps the stored one; otherwise k / 20.
        let level = |k: usize| (k > 0).then(|| k as f64 / 20.0);
        check(&cases()[with_passing], [level(hl), level(ea)], &sizes);
    }
}
