//! The whole-trace segmentation rules as they were before
//! `metrics::Segmenter` made them one online rule, kept verbatim (imports
//! only) as the differential oracle of `segmenter_differential.rs` and,
//! through `tests/oracle/mod.rs`, of the annotator's.
#![allow(dead_code)]

use f1_bayes::metrics::Segment;

/// Thresholds a probability trace into segments: clips with `p >= theta`
/// are positive; runs separated by gaps of at most `merge_gap` clips are
/// merged; runs shorter than `min_len` clips are dropped.
///
/// The paper's audio-visual configuration is `theta = 0.5`, `min_len = 60`
/// (6 s of 0.1 s clips).
pub fn threshold_segments(
    trace: &[f64],
    theta: f64,
    min_len: usize,
    merge_gap: usize,
) -> Vec<Segment> {
    let mut raw: Vec<Segment> = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &p) in trace.iter().enumerate() {
        if p >= theta {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            raw.push(Segment::new(s, i));
        }
    }
    if let Some(s) = start {
        raw.push(Segment::new(s, trace.len()));
    }
    // Merge across small gaps.
    let mut merged: Vec<Segment> = Vec::new();
    for seg in raw {
        match merged.last_mut() {
            Some(last) if seg.start <= last.end + merge_gap => {
                last.end = last.end.max(seg.end);
            }
            _ => merged.push(seg),
        }
    }
    merged.into_iter().filter(|s| s.len() >= min_len).collect()
}

/// The accumulation the paper applies to noisy static-BN outputs before
/// thresholding: a trailing moving average over `window` clips.
pub fn accumulate(trace: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(trace.len());
    let mut sum = 0.0;
    for i in 0..trace.len() {
        sum += trace[i];
        if i >= window {
            sum -= trace[i - window];
        }
        let n = (i + 1).min(window);
        out.push(sum / n as f64);
    }
    out
}
