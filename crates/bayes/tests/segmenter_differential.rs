//! Differential test: `metrics::Segmenter`, fed one clip per push, must
//! cut exactly the segments the whole-trace rules in `oracle/mod.rs` cut
//! — `threshold_segments(accumulate(trace, window))`, or the trace
//! unsmoothed without a window — segment for segment, on random blocky
//! traces at random levels, minimum lengths, merge gaps and windows
//! (none, or 2–20 clips). Each segment must come back exactly at the push
//! of clip `end + merge_gap`, or from `finish` when the trace ends first.
//! `accumulate` and `threshold_segments`, now folds over the segmenter,
//! must match their oracles too, every `f64` by its bits.

mod oracle;

use f1_bayes::metrics::{accumulate, threshold_segments, Segment, Segmenter};
use proptest::prelude::*;

/// Runs of random values with a little noise: long enough to form,
/// merge and drop segments at every length.
fn blocky(blocks: &[(f64, usize)], noise: &[f64]) -> Vec<f64> {
    let values = blocks.iter().flat_map(|&(p, n)| std::iter::repeat_n(p, n));
    let noise = noise.iter().cycle();
    values
        .zip(noise)
        .map(|(p, e)| (p + e).clamp(0.0, 1.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_segments_equal_the_whole_trace_rule(
        blocks in proptest::collection::vec((0.0f64..1.0, 1usize..40), 0..24),
        noise in proptest::collection::vec(-0.1f64..0.1, 1..8),
        level in 0.05f64..0.95,
        level_at in 0usize..200,
        min_len in 1usize..50,
        merge_gap in 0usize..30,
        window in 1usize..=20,
    ) {
        let trace = blocky(&blocks, &noise);
        // Now and then the level is a value of the trace itself.
        let level = trace.get(level_at).copied().unwrap_or(level);
        let window = (window > 1).then_some(window);
        let smooth = match window {
            Some(w) => {
                let (ours, theirs) = (accumulate(&trace, w), oracle::accumulate(&trace, w));
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&ours), bits(&theirs), "accumulate, window {}", w);
                theirs
            }
            None => trace.clone(),
        };
        let expected = oracle::threshold_segments(&smooth, level, min_len, merge_gap);
        prop_assert_eq!(
            threshold_segments(&smooth, level, min_len, merge_gap),
            expected.clone()
        );

        let mut segmenter = Segmenter::new(level, min_len, merge_gap, window);
        let mut got: Vec<Segment> = Vec::new();
        for (clip, &p) in trace.iter().enumerate() {
            if let Some(seg) = segmenter.push(p) {
                prop_assert_eq!(clip, seg.end + merge_gap, "{:?} returned late or early", seg);
                got.push(seg);
            }
            prop_assert!(segmenter.open_start() <= clip + 1);
        }
        if let Some(seg) = segmenter.finish() {
            prop_assert!(seg.end + merge_gap >= trace.len(), "{:?} was final before the end", seg);
            got.push(seg);
        }
        prop_assert_eq!(segmenter.finish(), None, "finish closes the tail once");
        prop_assert_eq!(got, expected);
    }
}
