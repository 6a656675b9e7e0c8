//! Whole-video annotation as it was before the streaming `Annotator`:
//! `derive_events` and its highlight rule, kept verbatim (imports only)
//! as the differential oracle of `annotator_differential.rs` and of the
//! pinned-net retrieval test in `pipeline.rs`. The segmentation rules it
//! calls are the verbatim ones under `crates/bayes/tests/oracle/`.
#![allow(dead_code)]

#[path = "../../crates/bayes/tests/oracle/mod.rs"]
mod segments;

use std::collections::HashMap;

use f1_bayes::metrics::Segment;
use f1_cobra::catalog::EventRecord;
use segments::{accumulate, threshold_segments};

/// Highlight segments of an `HL` posterior at level `theta`: a 1 s
/// trailing mean bridges sub-second dips, runs up to 3 s apart merge,
/// 6 s minimum duration as in Table 3.
fn highlight_segments(hl: &[f64], theta: f64) -> Vec<Segment> {
    threshold_segments(&accumulate(hl, 10), theta, 60, 30)
}

/// The event layer a network's posteriors imply: the one segmentation
/// and attribution every annotated video gets. `traces` are whole-video
/// posteriors by query name, `thresholds` the levels stored with the
/// network (0.5 where it stores none).
///
/// Highlights are the `HL` segments. Sub-events are the most probable of
/// `ST` / `FO` / `PS` by peak posterior inside each highlight, when the
/// peak clears 0.3 — re-evaluated every 5 s in highlights over 15 s
/// (§5.5). Excited speech is `EA` above a precision-weighted level,
/// 4 s minimum (retrieval prefers clean answers over exhaustive ones).
pub fn derive_events(
    traces: &HashMap<String, Vec<f64>>,
    thresholds: &HashMap<String, f64>,
) -> Vec<EventRecord> {
    let theta = |query| thresholds.get(query).copied().unwrap_or(0.5);
    let trace = |query| traces.get(query).map_or(&[][..], Vec::as_slice);
    let derived = |kind: &str, s: &Segment| EventRecord {
        kind: kind.to_string(),
        start: s.start,
        end: s.end,
        driver: None,
    };
    let highlights = highlight_segments(trace("HL"), theta("HL"));
    let mut records: Vec<EventRecord> =
        highlights.iter().map(|h| derived("highlight", h)).collect();
    let candidates = [("start", "ST"), ("fly_out", "FO"), ("passing", "PS")];
    for seg in &highlights {
        let windows: Vec<Segment> = if seg.len() > 150 {
            (seg.start..=seg.end - 50)
                .step_by(50)
                .map(|s| Segment::new(s, s + 50))
                .collect()
        } else {
            vec![*seg]
        };
        for w in &windows {
            let best = candidates
                .iter()
                .filter_map(|&(kind, query)| {
                    let tr = traces.get(query)?;
                    let peak = tr[w.start..w.end].iter().cloned().fold(f64::MIN, f64::max);
                    Some((kind, peak))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((kind, _)) = best.filter(|&(_, peak)| peak > 0.3) {
                records.push(derived(kind, w));
            }
        }
    }
    let excited = threshold_segments(trace("EA"), (theta("EA") + 0.15).min(0.9), 40, 20);
    records.extend(excited.iter().map(|x| derived("excited", x)));
    records
}
