//! Step 1 — text detection (§5.4, first pass and second pass).
//!
//! The paper exploits three domain properties: the superimposed text sits
//! at the *bottom* of the picture, on a *shaded* background box, drawn in
//! high contrast. Detection first checks each frame for the shaded region,
//! skips runs that fail a duration criterion, then validates candidate
//! runs by the number and variance of bright pixels in the shaded region.

use f1_media::frame::Frame;

/// Geometry and thresholds of the caption-box detector.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Top row of the scanned bottom band.
    pub band_y: usize,
    /// Height of the scanned band.
    pub band_h: usize,
    /// Luma below which a pixel counts as "shaded".
    pub dark_luma: u8,
    /// Minimum fraction of shaded pixels in the band for a hit.
    pub min_dark_fraction: f64,
    /// Luma above which a pixel counts as a bright character pixel.
    pub bright_luma: u8,
    /// Minimum number of bright pixels inside the shaded region.
    pub min_bright: usize,
    /// Minimum column variance of bright pixels (characters spread out;
    /// a single bright blob does not).
    pub min_bright_col_variance: f64,
    /// Minimum run length in scanned frames (duration criterion).
    pub min_run: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            band_y: f1_media::synth::video::CAPTION_Y,
            band_h: f1_media::synth::video::CAPTION_H,
            dark_luma: 70,
            min_dark_fraction: 0.10,
            bright_luma: 180,
            min_bright: 40,
            min_bright_col_variance: 50.0,
            min_run: 3,
        }
    }
}

/// First pass: does this frame show a shaded caption region?
pub fn has_shaded_region(frame: &Frame, cfg: &DetectConfig) -> bool {
    let dark = frame.fraction_matching(0, cfg.band_y, frame.width(), cfg.band_h, |px| {
        luma(px) < cfg.dark_luma
    });
    dark >= cfg.min_dark_fraction
}

/// Second pass: statistics of bright pixels inside the shaded band.
/// Returns `(count, column variance)`.
pub fn bright_statistics(frame: &Frame, cfg: &DetectConfig) -> (usize, f64) {
    let mut count = 0usize;
    let mut xs: Vec<f64> = Vec::new();
    for y in cfg.band_y..(cfg.band_y + cfg.band_h).min(frame.height()) {
        for x in 0..frame.width() {
            if luma(frame.get(x, y)) > cfg.bright_luma {
                count += 1;
                xs.push(x as f64);
            }
        }
    }
    if xs.len() < 2 {
        return (count, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (count, var)
}

/// The scanned frames of a broadcast, each decoded when it is asked
/// for. Detection reads one boolean off every frame and looks at one
/// frame per candidate run again, so whoever implements this never has
/// to keep a window of decoded frames alive.
pub trait ScannedFrames {
    /// Number of scanned frames.
    fn n_frames(&self) -> usize;
    /// Decodes scanned frame `idx`.
    fn frame(&self, idx: usize) -> Frame;
}

/// Tests hand detection frames they hold in memory; nothing else may.
#[cfg(test)]
impl ScannedFrames for Vec<Frame> {
    fn n_frames(&self) -> usize {
        self.len()
    }
    fn frame(&self, idx: usize) -> Frame {
        self[idx].clone()
    }
}

/// Full §5.4 detection over a scanned frame sequence: returns runs of
/// frame *indices into `frames`* that pass the shaded-region, duration and
/// bright-pixel criteria. Every frame is asked for once; the middle
/// frame of each run that meets the duration criterion once more.
pub fn detect_text_runs(frames: &dyn ScannedFrames, cfg: &DetectConfig) -> Vec<(usize, usize)> {
    // First pass: shaded-region flags, one decoded frame at a time.
    let n = frames.n_frames();
    let flags: Vec<bool> = (0..n)
        .map(|i| has_shaded_region(&frames.frame(i), cfg))
        .collect();
    // Runs satisfying the duration criterion.
    let mut runs = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &on) in flags.iter().enumerate() {
        match (on, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                if i - s >= cfg.min_run {
                    runs.push((s, i));
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        if flags.len() - s >= cfg.min_run {
            runs.push((s, flags.len()));
        }
    }
    // Second pass: bright pixel count and variance.
    runs.into_iter()
        .filter(|&(s, e)| {
            let mid = frames.frame((s + e) / 2);
            let (count, var) = bright_statistics(&mid, cfg);
            count >= cfg.min_bright && var >= cfg.min_bright_col_variance
        })
        .collect()
}

fn luma(px: [u8; 3]) -> u8 {
    ((299 * px[0] as u32 + 587 * px[1] as u32 + 114 * px[2] as u32) / 1000) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::font;
    use f1_media::frame::{FrameBuf, HEIGHT, WIDTH};

    fn plain_frame() -> Frame {
        FrameBuf::filled(WIDTH, HEIGHT, [120, 120, 130]).freeze()
    }

    fn caption_frame(text: &str) -> Frame {
        let mut fb = FrameBuf::filled(WIDTH, HEIGHT, [120, 120, 130]);
        let cfg = DetectConfig::default();
        fb.blend_rect(60, cfg.band_y, 260, cfg.band_h, [10, 10, 30], 220);
        font::draw_text(&mut fb, 70, cfg.band_y + 8, 2, [250, 240, 120], text);
        fb.freeze()
    }

    #[test]
    fn shaded_region_flags_caption_frames() {
        let cfg = DetectConfig::default();
        assert!(!has_shaded_region(&plain_frame(), &cfg));
        assert!(has_shaded_region(&caption_frame("PIT STOP"), &cfg));
    }

    #[test]
    fn bright_statistics_require_characters() {
        let cfg = DetectConfig::default();
        let (count, var) = bright_statistics(&caption_frame("PIT STOP HAKKINEN"), &cfg);
        assert!(count >= cfg.min_bright, "bright count {count}");
        assert!(var >= cfg.min_bright_col_variance, "variance {var}");
        // A shaded box without text fails the second pass.
        let mut fb = FrameBuf::filled(WIDTH, HEIGHT, [120, 120, 130]);
        fb.blend_rect(60, cfg.band_y, 260, cfg.band_h, [10, 10, 30], 220);
        let (count, _) = bright_statistics(&fb.freeze(), &cfg);
        assert!(count < cfg.min_bright);
    }

    #[test]
    fn duration_criterion_drops_short_runs() {
        let cfg = DetectConfig::default();
        let cap = caption_frame("FINAL LAP");
        let plain = plain_frame();
        // Two caption frames only: below min_run of 3.
        let frames = vec![plain.clone(), cap.clone(), cap.clone(), plain.clone()];
        assert!(detect_text_runs(&frames, &cfg).is_empty());
        // Five caption frames: detected with correct bounds.
        let frames = vec![
            plain.clone(),
            cap.clone(),
            cap.clone(),
            cap.clone(),
            cap.clone(),
            cap.clone(),
            plain.clone(),
        ];
        assert_eq!(detect_text_runs(&frames, &cfg), vec![(1, 6)]);
    }

    #[test]
    fn run_reaching_the_end_is_closed() {
        let cfg = DetectConfig::default();
        let cap = caption_frame("WINNER SCHUMACHER");
        let frames = vec![cap.clone(), cap.clone(), cap.clone(), cap.clone()];
        assert_eq!(detect_text_runs(&frames, &cfg), vec![(0, 4)]);
    }

    #[test]
    fn textless_shaded_runs_are_rejected_by_second_pass() {
        let cfg = DetectConfig::default();
        let mut fb = FrameBuf::filled(WIDTH, HEIGHT, [120, 120, 130]);
        fb.blend_rect(60, cfg.band_y, 260, cfg.band_h, [10, 10, 30], 220);
        let empty_box = fb.freeze();
        let frames = vec![
            empty_box.clone(),
            empty_box.clone(),
            empty_box.clone(),
            empty_box,
        ];
        assert!(detect_text_runs(&frames, &cfg).is_empty());
    }
}
