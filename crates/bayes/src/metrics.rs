//! Detection metrics: segments, precision/recall, trace statistics.
//!
//! The paper evaluates excited-speech and highlight detection with
//! precision and recall over *segments*. DBN query traces are smooth and
//! are thresholded directly (with a minimum duration of 6 s in Table 3);
//! static BN traces are noisy and must first be *accumulated over time*
//! (§5.5, Fig. 9a). This module implements both post-processing paths and
//! the interval-overlap precision/recall computation.

/// A half-open clip interval `[start, end)` on the 0.1 s clip grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First clip index.
    pub start: usize,
    /// One past the last clip index.
    pub end: usize,
}

impl Segment {
    /// Creates a segment (panics if `end < start`).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "segment end before start");
        Segment { start, end }
    }

    /// Length in clips.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the segment covers no clips.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// True when the two segments share at least one clip.
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Number of shared clips.
    pub fn overlap_len(&self, other: &Segment) -> usize {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        hi.saturating_sub(lo)
    }
}

/// A trailing moving average over the last `window` values. The running
/// sum is carried from push to push, never recomputed from the window:
/// its rounding depends on the whole history.
#[derive(Debug, Clone)]
struct TrailingMean {
    recent: Vec<f64>,
    sum: f64,
    seen: usize,
}

impl TrailingMean {
    fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        TrailingMean {
            recent: vec![0.0; window],
            sum: 0.0,
            seen: 0,
        }
    }

    fn push(&mut self, p: f64) -> f64 {
        let window = self.recent.len();
        let oldest = std::mem::replace(&mut self.recent[self.seen % window], p);
        self.sum += p;
        if self.seen >= window {
            self.sum -= oldest;
        }
        self.seen += 1;
        self.sum / self.seen.min(window) as f64
    }
}

/// The one thresholding rule, fed one clip at a time: clips with
/// `p >= level` are positive; runs separated by gaps of at most
/// `merge_gap` clips are merged; runs shorter than `min_len` clips are
/// dropped. With a window, each `p` is first replaced by its trailing
/// mean over that many clips ([`accumulate`]); without one it is used as
/// is (a window of 1 would still round).
///
/// A segment is final once no later clip can merge into it, so
/// [`push`](Self::push) returns it at the push of clip `end + merge_gap`
/// (when that clip is negative) and never retracts it.
#[derive(Debug, Clone)]
pub struct Segmenter {
    level: f64,
    min_len: usize,
    merge_gap: usize,
    mean: Option<TrailingMean>,
    clips: usize,
    open: Option<Segment>,
}

impl Segmenter {
    /// A segmenter before its first clip (panics on a window of 0).
    pub fn new(level: f64, min_len: usize, merge_gap: usize, window: Option<usize>) -> Self {
        Segmenter {
            level,
            min_len,
            merge_gap,
            mean: window.map(TrailingMean::new),
            clips: 0,
            open: None,
        }
    }

    /// Absorbs the next clip's `p`; returns the segment this clip made
    /// final, if any.
    pub fn push(&mut self, p: f64) -> Option<Segment> {
        let p = self.mean.as_mut().map_or(p, |mean| mean.push(p));
        let clip = self.clips;
        self.clips += 1;
        if p >= self.level {
            let start = self.open.map_or(clip, |s| s.start);
            self.open = Some(Segment::new(start, clip + 1));
        } else if self.open.is_some_and(|s| clip >= s.end + self.merge_gap) {
            return self.finish();
        }
        None
    }

    /// The earliest clip a segment not yet returned can start at.
    pub fn open_start(&self) -> usize {
        self.open.map_or(self.clips, |s| s.start)
    }

    /// Closes the open tail: the segment still open, if long enough.
    pub fn finish(&mut self) -> Option<Segment> {
        self.open.take().filter(|s| s.len() >= self.min_len)
    }

    /// Every segment of a whole trace.
    pub fn segments(mut self, trace: &[f64]) -> Vec<Segment> {
        let mut segments: Vec<Segment> = trace.iter().filter_map(|&p| self.push(p)).collect();
        segments.extend(self.finish());
        segments
    }
}

/// Thresholds a probability trace into segments by the [`Segmenter`]
/// rule, without smoothing.
///
/// The paper's audio-visual configuration is `theta = 0.5`, `min_len = 60`
/// (6 s of 0.1 s clips).
pub fn threshold_segments(
    trace: &[f64],
    theta: f64,
    min_len: usize,
    merge_gap: usize,
) -> Vec<Segment> {
    Segmenter::new(theta, min_len, merge_gap, None).segments(trace)
}

/// The accumulation the paper applies to noisy static-BN outputs before
/// thresholding: a trailing moving average over `window` clips.
pub fn accumulate(trace: &[f64], window: usize) -> Vec<f64> {
    let mut mean = TrailingMean::new(window);
    trace.iter().map(|&p| mean.push(p)).collect()
}

/// The decision level on the grid 0.05, 0.10, … 0.95 that `score` rates
/// highest (the lowest such level on a tie) — the one grid search behind
/// every calibrated threshold.
pub fn best_threshold(score: impl Fn(f64) -> f64) -> f64 {
    let mut best = (0.5, -1.0);
    for i in 1..20 {
        let theta = i as f64 / 20.0;
        let s = score(theta);
        if s > best.1 {
            best = (theta, s);
        }
    }
    best.0
}

/// Mean absolute first difference of a trace — the quantitative version of
/// the paper's Fig. 9 observation that DBN outputs are "much smoother"
/// than BN outputs.
pub fn roughness(trace: &[f64]) -> f64 {
    if trace.len() < 2 {
        return 0.0;
    }
    trace.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (trace.len() - 1) as f64
}

/// Precision and recall of detected segments against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of detected segments that overlap some true segment.
    pub precision: f64,
    /// Fraction of true segments overlapped by some detection.
    pub recall: f64,
    /// Detected segments overlapping truth.
    pub true_positives: usize,
    /// Detected segments overlapping nothing.
    pub false_positives: usize,
    /// True segments with no overlapping detection.
    pub false_negatives: usize,
}

impl PrecisionRecall {
    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision, self.recall);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Segment-level precision/recall by interval overlap (the evaluation
/// style of the paper's tables: a detection counts if it hits an
/// interesting segment; an interesting segment is recalled if some
/// detection hits it).
pub fn precision_recall(detected: &[Segment], truth: &[Segment]) -> PrecisionRecall {
    let tp = detected
        .iter()
        .filter(|d| truth.iter().any(|t| d.overlaps(t)))
        .count();
    let fp = detected.len() - tp;
    let found = truth
        .iter()
        .filter(|t| detected.iter().any(|d| d.overlaps(t)))
        .count();
    let fn_ = truth.len() - found;
    PrecisionRecall {
        precision: if detected.is_empty() {
            0.0
        } else {
            tp as f64 / detected.len() as f64
        },
        recall: if truth.is_empty() {
            0.0
        } else {
            found as f64 / truth.len() as f64
        },
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

/// Segment-level precision/recall with a minimum-overlap criterion: a
/// detection counts only when at least `min_frac` of it lies inside one
/// true segment, and a true segment is recalled only when detections
/// cover at least `min_frac` of it. This penalizes sloppy, over-wide
/// detections that any-overlap scoring would accept.
pub fn precision_recall_strict(
    detected: &[Segment],
    truth: &[Segment],
    min_frac: f64,
) -> PrecisionRecall {
    let tp = detected
        .iter()
        .filter(|d| {
            let best = truth.iter().map(|t| d.overlap_len(t)).max().unwrap_or(0);
            !d.is_empty() && best as f64 / d.len() as f64 >= min_frac
        })
        .count();
    let fp = detected.len() - tp;
    let found = truth
        .iter()
        .filter(|t| {
            let covered: usize = detected.iter().map(|d| d.overlap_len(t)).sum();
            !t.is_empty() && covered as f64 / t.len() as f64 >= min_frac
        })
        .count();
    let fn_ = truth.len() - found;
    PrecisionRecall {
        precision: if detected.is_empty() {
            0.0
        } else {
            tp as f64 / detected.len() as f64
        },
        recall: if truth.is_empty() {
            0.0
        } else {
            found as f64 / truth.len() as f64
        },
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

/// Per-clip (frame-level) precision/recall — a stricter measure used in
/// the endpoint-detection experiment.
pub fn clipwise_precision_recall(detected: &[bool], truth: &[bool]) -> PrecisionRecall {
    assert_eq!(detected.len(), truth.len(), "length mismatch");
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&d, &t) in detected.iter().zip(truth) {
        match (d, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    PrecisionRecall {
        precision: if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        },
        recall: if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        },
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_overlap_logic() {
        let a = Segment::new(10, 20);
        assert!(a.overlaps(&Segment::new(15, 30)));
        assert!(a.overlaps(&Segment::new(0, 11)));
        assert!(!a.overlaps(&Segment::new(20, 25))); // half-open
        assert_eq!(a.overlap_len(&Segment::new(15, 30)), 5);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn thresholding_extracts_runs() {
        let trace = [0.1, 0.9, 0.9, 0.2, 0.8, 0.8, 0.8, 0.1];
        let segs = threshold_segments(&trace, 0.5, 1, 0);
        assert_eq!(segs, vec![Segment::new(1, 3), Segment::new(4, 7)]);
    }

    #[test]
    fn min_duration_drops_short_runs() {
        let trace = [0.9, 0.1, 0.9, 0.9, 0.9, 0.1];
        let segs = threshold_segments(&trace, 0.5, 3, 0);
        assert_eq!(segs, vec![Segment::new(2, 5)]);
    }

    #[test]
    fn merge_gap_joins_nearby_runs() {
        let trace = [0.9, 0.9, 0.1, 0.9, 0.9, 0.0, 0.0, 0.9];
        let segs = threshold_segments(&trace, 0.5, 1, 1);
        assert_eq!(segs, vec![Segment::new(0, 5), Segment::new(7, 8)]);
    }

    #[test]
    fn run_reaching_end_is_closed() {
        let trace = [0.1, 0.9, 0.9];
        assert_eq!(
            threshold_segments(&trace, 0.5, 1, 0),
            vec![Segment::new(1, 3)]
        );
    }

    #[test]
    fn accumulate_is_trailing_mean() {
        let out = accumulate(&[1.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(out, vec![1.0, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn accumulation_smooths_noise() {
        let noisy: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        let smooth = accumulate(&noisy, 10);
        assert!(roughness(&smooth) < roughness(&noisy) / 4.0);
    }

    #[test]
    fn best_threshold_takes_the_lowest_best_grid_level() {
        // A plateau from 0.30 to 0.50: the first level reaching it wins.
        let theta = best_threshold(|t| if (0.3..=0.5).contains(&t) { 1.0 } else { 0.0 });
        assert!((theta - 0.3).abs() < 1e-12);
        // Nothing scores above the floor: the first grid level.
        assert!((best_threshold(|_| 0.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn roughness_of_constant_is_zero() {
        assert_eq!(roughness(&[0.5; 10]), 0.0);
        assert_eq!(roughness(&[0.5]), 0.0);
        assert!((roughness(&[0.0, 1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_counts_overlaps() {
        let truth = [
            Segment::new(0, 10),
            Segment::new(50, 60),
            Segment::new(90, 95),
        ];
        let detected = [
            Segment::new(5, 12),  // hits truth 0
            Segment::new(20, 30), // false positive
            Segment::new(52, 58), // hits truth 1
        ];
        let pr = precision_recall(&detected, &truth);
        assert!((pr.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((pr.recall - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pr.true_positives, 2);
        assert_eq!(pr.false_positives, 1);
        assert_eq!(pr.false_negatives, 1);
        assert!((pr.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_zero_metrics() {
        let pr = precision_recall(&[], &[Segment::new(0, 1)]);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
        let pr = precision_recall(&[Segment::new(0, 1)], &[]);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.f1(), 0.0);
    }

    #[test]
    fn clipwise_metrics() {
        let detected = [true, true, false, false, true];
        let truth = [true, false, true, false, true];
        let pr = clipwise_precision_recall(&detected, &truth);
        assert!((pr.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((pr.recall - 2.0 / 3.0).abs() < 1e-12);
    }
}
