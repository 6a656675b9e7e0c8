//! The end-to-end §5.4 text pipeline over a broadcast.
//!
//! "As the number of frames in a typical Formula 1 video is large,
//! processing each frame for text recognition is not computationally
//! feasible" — the pipeline samples frames at a stride for detection,
//! then runs refinement and recognition only on detected caption runs.

use f1_media::features::video::FrameSource;
use f1_media::frame::Frame;

use crate::detect::{detect_text_runs, DetectConfig, ScannedFrames};
use crate::recognize::Vocabulary;
use crate::refine::{magnify, min_filter, GrayRegion, MAGNIFY};
use crate::segment;
use crate::semantics::{parse_caption, ParsedCaption};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Caption-box detector settings.
    pub detect: DetectConfig,
    /// Frame stride of the detection scan.
    pub scan_stride: usize,
    /// Number of consecutive full-rate frames for the min filter.
    pub min_filter_span: usize,
    /// Binarization threshold on the refined luma.
    pub binarize_threshold: u8,
    /// Word-grouping gap in *unmagnified* pixels.
    pub word_gap: usize,
    /// Similarity threshold for word matching.
    pub match_threshold: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            detect: DetectConfig::default(),
            scan_stride: 5,
            min_filter_span: 3,
            binarize_threshold: 180,
            word_gap: 5,
            match_threshold: 0.82,
        }
    }
}

/// One recognized caption occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct TextDetection {
    /// First broadcast frame of the caption run.
    pub start_frame: usize,
    /// One past the last broadcast frame.
    pub end_frame: usize,
    /// Recognized words, left to right.
    pub words: Vec<String>,
    /// Semantic interpretation, when the word sequence parses.
    pub parsed: Option<ParsedCaption>,
}

/// Columns of the caption band occupied by the shaded box (majority-dark
/// columns); recognition is restricted to this range.
fn box_columns(frame: &Frame, cfg: &DetectConfig) -> Option<(usize, usize)> {
    let mut first = None;
    let mut last = None;
    for x in 0..frame.width() {
        let mut dark = 0usize;
        for y in cfg.band_y..(cfg.band_y + cfg.band_h).min(frame.height()) {
            let [r, g, b] = frame.get(x, y);
            let l = (299 * r as u32 + 587 * g as u32 + 114 * b as u32) / 1000;
            if (l as u8) < cfg.dark_luma || l > 200 {
                dark += 1;
            }
        }
        if dark * 2 >= cfg.band_h {
            if first.is_none() {
                first = Some(x);
            }
            last = Some(x + 1);
        }
    }
    match (first, last) {
        (Some(a), Some(b)) if b > a + 8 => Some((a, b)),
        _ => None,
    }
}

/// Recognizes the words on a refined caption region.
pub fn recognize_region(
    region: &GrayRegion,
    vocab: &Vocabulary,
    cfg: &PipelineConfig,
) -> Vec<String> {
    let big = magnify(region);
    let bitmap = segment::binarize(&big, cfg.binarize_threshold);
    let chars = segment::extract_characters(&bitmap);
    let words = segment::group_words(&chars, cfg.word_gap * MAGNIFY);
    words
        .iter()
        .filter_map(|w| {
            let cropped = segment::crop(&bitmap, w);
            vocab
                .recognize(&cropped, w.n_chars, cfg.match_threshold)
                .map(|(text, _)| text)
        })
        .collect()
}

/// Every `stride`-th frame of `lo..hi`, decoded from `source` on demand.
struct Sampled<'a> {
    source: &'a dyn FrameSource,
    lo: usize,
    hi: usize,
    stride: usize,
}

impl Sampled<'_> {
    /// Broadcast frame index of scanned frame `idx`.
    fn broadcast_frame(&self, idx: usize) -> usize {
        self.lo + idx * self.stride
    }
}

impl ScannedFrames for Sampled<'_> {
    fn n_frames(&self) -> usize {
        (self.hi - self.lo).div_ceil(self.stride)
    }
    fn frame(&self, idx: usize) -> Frame {
        self.source.frame(self.broadcast_frame(idx))
    }
}

/// Runs detection + refinement + recognition over broadcast frames
/// `lo..hi`, returning the recognized captions in time order.
///
/// The scan holds one decoded frame at a time (plus the
/// `min_filter_span` frames of the run being refined), whatever the
/// length of `lo..hi`: the detector keeps a flag per sampled frame, not
/// the frame.
pub fn scan_broadcast(
    source: &dyn FrameSource,
    lo: usize,
    hi: usize,
    vocab: &Vocabulary,
    cfg: &PipelineConfig,
) -> Vec<TextDetection> {
    let hi = hi.min(source.n_frames());
    if hi <= lo {
        return Vec::new();
    }
    let sampled = Sampled {
        source,
        lo,
        hi,
        stride: cfg.scan_stride.max(1),
    };
    detect_text_runs(&sampled, &cfg.detect)
        .into_iter()
        .filter_map(|run| recognize_run(&sampled, run, vocab, cfg))
        .collect()
}

/// Refines and recognizes the caption of a detected run of scanned
/// frames; `None` when no word is recognized.
fn recognize_run(
    sampled: &Sampled,
    (s, e): (usize, usize),
    vocab: &Vocabulary,
    cfg: &PipelineConfig,
) -> Option<TextDetection> {
    let start_frame = sampled.broadcast_frame(s);
    let end_frame = sampled.broadcast_frame(e - 1) + sampled.stride;
    // Refinement on consecutive full-rate frames at the run's middle.
    let mid = (start_frame + end_frame) / 2;
    let span = cfg.min_filter_span.max(1);
    let frames: Vec<Frame> = (mid..mid + span)
        .map(|i| sampled.source.frame(i.min(sampled.hi - 1)))
        .collect();
    let (x0, x1) = box_columns(&frames[0], &cfg.detect)?;
    let full = min_filter(&frames, cfg.detect.band_y, cfg.detect.band_h);
    // Crop to the box columns.
    let region = GrayRegion {
        width: x1 - x0,
        height: full.height,
        data: (0..full.height)
            .flat_map(|y| (x0..x1).map(move |x| (x, y)))
            .map(|(x, y)| full.get(x, y))
            .collect(),
    };
    let words = recognize_region(&region, vocab, cfg);
    if words.is_empty() {
        return None;
    }
    let parsed = parse_caption(&words);
    Some(TextDetection {
        start_frame,
        end_frame,
        words,
        parsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::synth::scenario::{CaptionKind, RaceProfile, RaceScenario, ScenarioConfig};
    use f1_media::synth::video::VideoSynth;

    fn scan(profile: RaceProfile, secs: usize) -> (RaceScenario, Vec<TextDetection>) {
        let sc = RaceScenario::generate(ScenarioConfig::new(profile, secs));
        let video = VideoSynth::new(&sc);
        let vocab = Vocabulary::formula1();
        let found = scan_broadcast(&video, 0, sc.n_frames(), &vocab, &PipelineConfig::default());
        (sc, found)
    }

    #[test]
    fn recognizes_rendered_captions_end_to_end() {
        let (sc, found) = scan(RaceProfile::German, 300);
        assert!(!found.is_empty(), "no captions detected");
        // Every ground-truth caption overlapping the scan should be found
        // with its exact semantics.
        let mut matched = 0usize;
        for truth in &sc.captions {
            let hit = found
                .iter()
                .find(|d| d.start_frame < truth.end_frame && truth.start_frame < d.end_frame);
            if let Some(hit) = hit {
                let parsed = hit.parsed.as_ref().expect("caption parses");
                assert_eq!(
                    parsed.kind, truth.kind,
                    "kind mismatch for {:?}",
                    truth.text
                );
                if truth.kind != CaptionKind::FinalLap {
                    assert_eq!(
                        parsed.driver, truth.driver,
                        "driver mismatch for {:?}",
                        truth.text
                    );
                }
                matched += 1;
            }
        }
        assert!(
            matched * 10 >= sc.captions.len() * 8,
            "matched {matched}/{}",
            sc.captions.len()
        );
        // Precision: every detection overlaps some true caption.
        for d in &found {
            assert!(
                sc.captions
                    .iter()
                    .any(|c| d.start_frame < c.end_frame && c.start_frame < d.end_frame),
                "spurious detection {:?}",
                d.words
            );
        }
    }

    /// A frame source that counts the frames it is asked for.
    struct Counting<'a> {
        video: VideoSynth<'a>,
        asked: std::cell::Cell<usize>,
    }

    impl FrameSource for Counting<'_> {
        fn frame(&self, idx: usize) -> Frame {
            self.asked.set(self.asked.get() + 1);
            self.video.frame(idx)
        }
        fn n_frames(&self) -> usize {
            self.video.n_frames()
        }
    }

    #[test]
    fn streamed_scan_matches_detection_over_held_frames() {
        let vocab = Vocabulary::formula1();
        let cfg = PipelineConfig::default();
        // Each profile shows its first classification caption in here.
        let (lo, hi) = (1000, 1300);
        for profile in [RaceProfile::German, RaceProfile::Belgian, RaceProfile::Usa] {
            let sc = RaceScenario::generate(ScenarioConfig::new(profile, 70));
            let source = Counting {
                video: VideoSynth::new(&sc),
                asked: std::cell::Cell::new(0),
            };
            let streamed = scan_broadcast(&source, lo, hi, &vocab, &cfg);
            let asked = source.asked.get();

            // The scan as it was: every sampled frame decoded and held,
            // detection over the slice.
            let sampled = Sampled {
                source: &source,
                lo,
                hi,
                stride: cfg.scan_stride,
            };
            let held: Vec<Frame> = (0..sampled.n_frames()).map(|i| sampled.frame(i)).collect();
            let runs = detect_text_runs(&held, &cfg.detect);
            let expected: Vec<TextDetection> = runs
                .iter()
                .filter_map(|&run| recognize_run(&sampled, run, &vocab, &cfg))
                .collect();
            assert!(!expected.is_empty(), "{profile:?}: no caption in range");
            assert_eq!(streamed, expected, "{profile:?}");
            // One decode per sampled frame, then per run one for the
            // bright-pixel check and `min_filter_span` for refinement
            // (every run in range passes the check).
            assert_eq!(
                asked,
                held.len() + runs.len() * (1 + cfg.min_filter_span),
                "{profile:?}"
            );
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 30));
        let video = VideoSynth::new(&sc);
        let vocab = Vocabulary::formula1();
        assert!(scan_broadcast(&video, 10, 10, &vocab, &PipelineConfig::default()).is_empty());
    }
}
