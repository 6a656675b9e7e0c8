//! Visual features (§5.3): shot detection, motion, semaphore, dust/sand,
//! passing cues and replay/DVE detection.

use crate::frame::{Frame, LumaPlane, HEIGHT, WIDTH};

/// Anything that can hand out broadcast frames by index (implemented by
/// the synthetic renderer; a decoder would implement it for real tapes).
pub trait FrameSource {
    /// Frame at index `idx`.
    fn frame(&self, idx: usize) -> Frame;
    /// Total number of frames.
    fn n_frames(&self) -> usize;
}

impl FrameSource for crate::synth::video::VideoSynth<'_> {
    fn frame(&self, idx: usize) -> Frame {
        crate::synth::video::VideoSynth::frame(self, idx)
    }
    fn n_frames(&self) -> usize {
        crate::synth::video::VideoSynth::n_frames(self)
    }
}

/// L1 distance between two frame histograms, computed over the top ¾ of
/// the picture: the caption band at the bottom (§5.4) pops in and out and
/// must not masquerade as a shot boundary.
pub fn histogram_difference(a: &Frame, b: &Frame, bins: usize) -> f64 {
    let cut = a.height() * 3 / 4;
    let ha = a.histogram_rows(bins, 0, cut);
    let hb = b.histogram_rows(bins, 0, cut);
    ha.iter().zip(&hb).map(|(x, y)| (x - y).abs()).sum::<f64>() / 3.0
}

/// Shot-boundary detector configuration.
#[derive(Debug, Clone)]
pub struct ShotConfig {
    /// Histogram bins per channel.
    pub bins: usize,
    /// Absolute histogram-difference floor for a cut.
    pub threshold: f64,
    /// A cut must exceed the local average difference by this factor
    /// (the "several consecutive frames" comparison of §5.3).
    pub ratio: f64,
    /// Number of surrounding frame pairs forming the local average.
    pub context: usize,
    /// Frame stride at which candidate pairs are evaluated (1 = every
    /// frame; 2 halves the work for 25 fps broadcasts).
    pub stride: usize,
}

impl Default for ShotConfig {
    fn default() -> Self {
        ShotConfig {
            bins: 8,
            threshold: 0.10,
            ratio: 2.0,
            context: 3,
            stride: 1,
        }
    }
}

/// Detects shot boundaries over `lo..hi` (frame indices). Returns the
/// frame indices at which a new shot begins.
///
/// The §5.3 algorithm is a histogram method "modified in the sense that we
/// calculate the histogram difference among several consecutive frames":
/// a boundary must stand out against the local pan/jitter level, not just
/// exceed a global threshold.
pub fn detect_shots(
    source: &dyn FrameSource,
    lo: usize,
    hi: usize,
    cfg: &ShotConfig,
) -> Vec<usize> {
    let hi = hi.min(source.n_frames());
    if hi <= lo + 1 {
        return Vec::new();
    }
    let stride = cfg.stride.max(1);
    // Pair differences at the configured stride.
    let idxs: Vec<usize> = (lo + 1..hi).step_by(stride).collect();
    let mut diffs = Vec::with_capacity(idxs.len());
    let mut prev = source.frame(idxs[0] - 1);
    for &i in &idxs {
        let cur = source.frame(i);
        // Re-fetch prev when strides skip frames.
        if stride > 1 {
            prev = source.frame(i - 1);
        }
        diffs.push(histogram_difference(&prev, &cur, cfg.bins));
        prev = cur;
    }
    let mut cuts = Vec::new();
    for (k, &d) in diffs.iter().enumerate() {
        if d < cfg.threshold {
            continue;
        }
        let lo_k = k.saturating_sub(cfg.context);
        let hi_k = (k + cfg.context + 1).min(diffs.len());
        let neighbours: Vec<f64> = diffs[lo_k..hi_k]
            .iter()
            .enumerate()
            .filter(|(j, _)| lo_k + j != k)
            .map(|(_, &v)| v)
            .collect();
        let local = neighbours.iter().sum::<f64>() / neighbours.len().max(1) as f64;
        if d > cfg.ratio * local.max(1e-6) {
            // Suppress double detections on adjacent pairs.
            if cuts.last().is_none_or(|&c: &usize| idxs[k] > c + stride) {
                cuts.push(idxs[k]);
            }
        }
    }
    cuts
}

/// Temporal baseline (in frames) over which the passing cue measures
/// motion — the paper computes "the movement properties of several
/// consecutive pictures".
pub const MOTION_BASELINE: usize = 4;

/// Block-matching motion analysis between two frames (typically
/// [`MOTION_BASELINE`] apart): horizontal displacement per block, by
/// exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionField {
    /// Horizontal displacement per block, in pixels.
    pub dx: Vec<i32>,
}

/// Block edge of the motion grid, in pixels.
const BLOCK: usize = 16;
/// Samples per block row and column: blocks are subsampled 2×.
const SAMPLES: usize = BLOCK / 2;
/// Search radius of the block matcher, in pixels.
const SEARCH: i32 = 16;
/// Luma variance floor below which a block's displacement is
/// unobservable.
const MIN_TEXTURE: f64 = 100.0;
/// Per-sample SAD above which the best match is rejected.
const MAX_RESIDUAL: i64 = 6;
/// SAD charged for a sample whose displaced position is out of frame.
const OUT_OF_FRAME: i64 = 128;

/// Centre-out scan order `0, 1, -1, 2, -2, …`: on SAD ties (exact
/// pattern repeats under the search window) the smallest displacement
/// wins, which is the conservative hypothesis.
const SEARCH_ORDER: [i32; 2 * SEARCH as usize + 1] = {
    let mut order = [0; 2 * SEARCH as usize + 1];
    let mut d = 1;
    while d <= SEARCH {
        order[2 * d as usize - 1] = d;
        order[2 * d as usize] = -d;
        d += 1;
    }
    order
};

/// Estimates the horizontal motion field on a grid of 16 px blocks with
/// ±16 px search, subsampled 2× for speed. Textureless blocks (uniform
/// sky, plain asphalt) are skipped — their displacement is unobservable
/// and would only add noise to the histogram.
pub fn motion_field(prev: &Frame, cur: &Frame) -> MotionField {
    motion_between(&LumaPlane::of(prev), &LumaPlane::of(cur))
}

/// [`motion_field`] over luma planes computed once per frame.
pub(crate) fn motion_between(prev: &LumaPlane, cur: &LumaPlane) -> MotionField {
    let mut dx = Vec::new();
    for y0 in (0..HEIGHT / BLOCK * BLOCK).step_by(BLOCK) {
        for x0 in (0..WIDTH / BLOCK * BLOCK).step_by(BLOCK) {
            // The block's samples: every second pixel of every second row.
            let mut block = [[0u8; SAMPLES]; SAMPLES];
            for (r, samples) in block.iter_mut().enumerate() {
                let row = &cur.row(y0 + 2 * r)[x0..x0 + BLOCK];
                for (sample, &l) in samples.iter_mut().zip(row.iter().step_by(2)) {
                    *sample = l;
                }
            }
            // Texture check: horizontal displacement is only observable
            // when the block has *horizontal* structure. A block holding
            // nothing but a horizontal band edge matches every shift
            // equally and would report garbage, so measure the variance of
            // per-column means.
            let cols: [f64; SAMPLES] = std::array::from_fn(|c| {
                let sum: u32 = block.iter().map(|samples| samples[c] as u32).sum();
                sum as f64 / SAMPLES as f64
            });
            let mean = cols.iter().sum::<f64>() / cols.len() as f64;
            let var = cols.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / cols.len() as f64;
            if var < MIN_TEXTURE {
                continue;
            }
            let mut best = i64::MAX;
            let mut best_dx = 0i32;
            let mut best_samples = 1i64;
            for d in SEARCH_ORDER {
                // Sample `k` of a block row lands on column `left + 2k` of
                // `prev`; `inside` are the `k` that land in the frame.
                let left = x0 as i32 + d;
                let first_at = |col: i32| ((col - left).max(0) as usize).div_ceil(2).min(SAMPLES);
                let inside = first_at(0)..first_at(WIDTH as i32);
                let mut sad = ((SAMPLES - inside.len()) * SAMPLES) as i64 * OUT_OF_FRAME;
                // Every term is non-negative and only `sad < best` is
                // accepted, so a displacement is settled as soon as its
                // partial sum reaches the best so far.
                for (r, samples) in block.iter().enumerate() {
                    if sad >= best {
                        break;
                    }
                    let first = (left + 2 * inside.start as i32) as usize;
                    let shifted = prev.row(y0 + 2 * r)[first..].iter().step_by(2);
                    let row_sad: u32 = samples[inside.clone()]
                        .iter()
                        .zip(shifted)
                        .map(|(&a, &b)| a.abs_diff(b) as u32)
                        .sum();
                    sad += row_sad as i64;
                }
                if sad < best {
                    best = sad;
                    best_dx = d;
                    best_samples = ((inside.len() * SAMPLES) as i64).max(1);
                }
            }
            // Match-quality gate: blocks straddling an object boundary
            // (half car, half background) match nothing well and would
            // contribute arbitrary displacements.
            if best / best_samples > MAX_RESIDUAL {
                continue;
            }
            dx.push(best_dx);
        }
    }
    MotionField { dx }
}

impl MotionField {
    /// Mean absolute displacement, normalized by the search radius — the
    /// "amount of motion" cue.
    pub fn magnitude(&self) -> f64 {
        if self.dx.is_empty() {
            return 0.0;
        }
        let mean: f64 = self.dx.iter().map(|&d| d.abs() as f64).sum::<f64>() / self.dx.len() as f64;
        (mean / 8.0).min(1.0)
    }

    /// Spread of block displacements (standard deviation / search radius).
    pub fn spread(&self) -> f64 {
        if self.dx.len() < 2 {
            return 0.0;
        }
        let n = self.dx.len() as f64;
        let mean: f64 = self.dx.iter().map(|&d| d as f64).sum::<f64>() / n;
        let var: f64 = self
            .dx
            .iter()
            .map(|&d| {
                let e = d as f64 - mean;
                e * e
            })
            .sum::<f64>()
            / n;
        (var.sqrt() / 8.0).min(1.0)
    }

    /// The motion-histogram *passing* cue: after compensating the dominant
    /// (camera) motion, measure the velocity contrast among the remaining
    /// moving objects. Two cars travelling at different screen velocities —
    /// one passing the other — produce a high contrast; a single tracked
    /// pack produces none.
    pub fn object_motion_contrast(&self) -> f64 {
        if self.dx.len() < 4 {
            return 0.0;
        }
        let mut sorted = self.dx.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let mut objects: Vec<i32> = self
            .dx
            .iter()
            .copied()
            .filter(|&d| (d - median).abs() >= 3)
            .collect();
        objects.sort_unstable();
        // Cluster deviating blocks into velocity groups (gap ≤ 1 px);
        // groups need ≥ 2 supporting blocks — a lone block is noise, a
        // real car covers several.
        let mut clusters: Vec<(f64, usize)> = Vec::new(); // (mean, count)
        let mut i = 0;
        while i < objects.len() {
            let mut j = i + 1;
            while j < objects.len() && objects[j] - objects[j - 1] <= 1 {
                j += 1;
            }
            let count = j - i;
            let mean = objects[i..j].iter().map(|&v| v as f64).sum::<f64>() / count as f64;
            if count >= 2 {
                clusters.push((mean, count));
            }
            i = j;
        }
        // The passing signature: an object moving relative to *both* the
        // background (median ≈ camera motion) and the tracked pack
        // (velocity ≈ 0). The score is the fastest such object's velocity.
        clusters
            .iter()
            .map(|&(v, _)| {
                let rel = (v - median as f64).abs().min(v.abs());
                (rel / 8.0).min(1.0)
            })
            .fold(0.0, f64::max)
    }
}

/// Semaphore score of a frame: density of saturated red inside the most
/// red-dense rectangle of the top band (§5.3 detects the start lights by
/// "filtering the red component … a rectangular shape").
pub fn semaphore_score(frame: &Frame) -> f64 {
    // Column histogram of red pixels over the top band.
    let band_h = 60.min(frame.height());
    let mut col_red = vec![0usize; frame.width()];
    for y in 0..band_h {
        for (col, px) in col_red.iter_mut().zip(frame.row(y).chunks_exact(3)) {
            if px[0] > 170 && px[1] < 90 && px[2] < 90 {
                *col += 1;
            }
        }
    }
    // Densest contiguous run of red columns.
    let mut best = 0usize;
    let mut run_len = 0usize;
    let mut run_sum = 0usize;
    for &c in &col_red {
        if c > 2 {
            run_len += 1;
            run_sum += c;
            best = best.max(run_sum.min(run_len * band_h));
        } else {
            run_len = 0;
            run_sum = 0;
        }
    }
    // Normalize by a plausible full-semaphore size.
    (best as f64 / (70.0 * 18.0)).min(1.0)
}

/// Fractions of dust-colored (desaturated bright) and of sand-colored
/// pixels in the track region, from one pass over its rows.
pub(crate) fn dust_and_sand(frame: &Frame) -> (f64, f64) {
    // The region is clipped to the frame; an empty one scores zero.
    let x1 = WIDTH.min(frame.width());
    let (y0, y1) = (HEIGHT / 4, (HEIGHT / 4 + HEIGHT / 2).min(frame.height()));
    if x1 == 0 || y0 >= y1 {
        return (0.0, 0.0);
    }
    let (mut dust, mut sand) = (0usize, 0usize);
    for y in y0..y1 {
        for px in frame.row(y)[..x1 * 3].chunks_exact(3) {
            let (r, g, b) = (px[0], px[1], px[2]);
            // Both colours have red above 140 (dust's maximum is its red,
            // sand's red is above 180): one compare settles most pixels.
            if r <= 140 {
                continue;
            }
            let max = r.max(g).max(b) as i32;
            let min = r.min(g).min(b) as i32;
            dust += usize::from(max > 140 && max - min < 40 && r >= g && g >= b);
            sand += usize::from(r > 180 && (140..=210).contains(&g) && b < 160 && r > b);
        }
    }
    let pixels = (x1 * (y1 - y0)) as f64;
    (dust as f64 / pixels, sand as f64 / pixels)
}

/// Fraction of sand-colored pixels in the track region.
pub fn sand_score(frame: &Frame) -> f64 {
    dust_and_sand(frame).1
}

/// Fraction of dust-colored (desaturated bright) pixels in the track
/// region.
pub fn dust_score(frame: &Frame) -> f64 {
    dust_and_sand(frame).0
}

/// Wipe (DVE) evidence in a single frame: DVE generators draw a bright
/// full-height border bar at the moving transition edge; the detector
/// scores the best candidate bar (a narrow contiguous band of columns
/// that are near-white over almost their full height).
pub fn wipe_score(frame: &Frame) -> f64 {
    wipe_in(&LumaPlane::of(frame))
}

/// [`wipe_score`] over a luma plane computed once per frame.
pub(crate) fn wipe_in(plane: &LumaPlane) -> f64 {
    let (w, h) = plane.frame_size();
    // Near-white samples per column, over every fourth row.
    let mut hits = vec![0u32; w];
    for y in (0..h).step_by(4) {
        for (n, &l) in hits.iter_mut().zip(plane.row(y)) {
            *n += u32::from(l > 245);
        }
    }
    let rows = h.div_ceil(4);
    // Longest contiguous run of full-height white columns.
    let mut best_run = 0usize;
    let mut run = 0usize;
    for &n in &hits {
        if n as f64 / rows as f64 > 0.9 {
            run += 1;
            best_run = best_run.max(run);
        } else {
            run = 0;
        }
    }
    // The bar is 5 px wide; accept 2..=12 to tolerate sampling.
    if (2..=12).contains(&best_run) {
        1.0
    } else {
        0.0
    }
}

/// Pairs wipe detections into replay spans: a wipe opens a replay, the
/// next wipe within `min_len..max_len` frames closes it.
pub fn replay_spans_from_wipes(
    wipe_frames: &[usize],
    min_len: usize,
    max_len: usize,
) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < wipe_frames.len() {
        let open = wipe_frames[i];
        // Skip detections belonging to the same wipe.
        let mut j = i + 1;
        while j < wipe_frames.len() && wipe_frames[j] - open < min_len {
            j += 1;
        }
        if j < wipe_frames.len() && wipe_frames[j] - open <= max_len {
            spans.push((open, wipe_frames[j]));
            // Consume all detections of the closing wipe.
            let close = wipe_frames[j];
            while j < wipe_frames.len() && wipe_frames[j] - close < min_len {
                j += 1;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuf;
    use crate::synth::scenario::{EventKind, RaceProfile, RaceScenario, ScenarioConfig};
    use crate::synth::video::VideoSynth;
    use crate::time::{clips_per_second, VIDEO_FPS};

    fn scenario(profile: RaceProfile, secs: usize) -> RaceScenario {
        RaceScenario::generate(ScenarioConfig::new(profile, secs))
    }

    fn frame_of_clip(clip: usize) -> usize {
        clip * VIDEO_FPS / clips_per_second()
    }

    #[test]
    fn histogram_difference_is_zero_for_identical_frames() {
        let f = FrameBuf::filled(32, 32, [100, 50, 25]).freeze();
        assert_eq!(histogram_difference(&f, &f, 8), 0.0);
        let g = FrameBuf::filled(32, 32, [200, 150, 125]).freeze();
        assert!(histogram_difference(&f, &g, 8) > 1.0);
    }

    #[test]
    fn shot_detector_finds_cuts_with_high_accuracy() {
        let sc = scenario(RaceProfile::German, 90);
        let v = VideoSynth::new(&sc);
        let hi = v.n_frames().min(frame_of_clip(sc.n_clips));
        let detected = detect_shots(&v, 0, hi, &ShotConfig::default());
        // Cuts that fall inside a replay are invisible on the broadcast
        // (the replay shows the *source* footage's cuts instead).
        let truth: Vec<usize> = sc
            .shot_cuts
            .iter()
            .copied()
            .filter(|&c| {
                let clip = c * clips_per_second() / VIDEO_FPS;
                c < hi && !sc.is_replay(clip) && !sc.is_replay(clip.saturating_sub(1))
            })
            .collect();
        assert!(!truth.is_empty());
        // Recall within ±2 frames.
        let found = truth
            .iter()
            .filter(|&&t| detected.iter().any(|&d| d.abs_diff(t) <= 2))
            .count();
        let recall = found as f64 / truth.len() as f64;
        // Precision: detections near a cut or near a wipe edge are fine;
        // count hard false positives only.
        let hard_fp = detected
            .iter()
            .filter(|&&d| {
                let near_cut = truth.iter().any(|&t| d.abs_diff(t) <= 2);
                let clip = d * clips_per_second() / VIDEO_FPS;
                let near_replay = sc.is_replay(clip)
                    || sc.is_replay(clip.saturating_sub(1))
                    || sc.is_replay(clip + 1);
                !near_cut && !near_replay
            })
            .count();
        let precision = 1.0 - hard_fp as f64 / detected.len().max(1) as f64;
        assert!(recall > 0.9, "shot recall {recall} (paper reports >90%)");
        assert!(precision > 0.9, "shot precision {precision}");
    }

    #[test]
    fn motion_field_detects_uniform_pan() {
        let sc = scenario(RaceProfile::German, 60);
        let v = VideoSynth::new(&sc);
        // Find a calm live clip (no event, no replay) and a cut-free pair.
        let clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let f = frame_of_clip(clip);
        let field = motion_field(&v.frame(f), &v.frame(f + MOTION_BASELINE));
        // The camera pans: nonzero magnitude, no object-motion contrast
        // (one tracked pack, one background layer).
        assert!(field.magnitude() > 0.0);
        assert!(field.object_motion_contrast() < 0.3);
    }

    #[test]
    fn passing_raises_motion_spread_on_the_german_profile() {
        let sc = scenario(RaceProfile::German, 240);
        let v = VideoSynth::new(&sc);
        let passing = sc
            .events
            .iter()
            .find(|e| e.kind == EventKind::Passing)
            .expect("german race has passings");
        let mid_clip = passing.span.start + passing.span.len() / 2;
        let fp = frame_of_clip(mid_clip);
        let during =
            motion_field(&v.frame(fp), &v.frame(fp + MOTION_BASELINE)).object_motion_contrast();
        let calm_clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let fc = frame_of_clip(calm_clip);
        let calm =
            motion_field(&v.frame(fc), &v.frame(fc + MOTION_BASELINE)).object_motion_contrast();
        assert!(
            during > calm,
            "passing contrast {during} should exceed calm {calm}"
        );
    }

    #[test]
    fn semaphore_score_fires_during_start_only() {
        let sc = scenario(RaceProfile::German, 90);
        let v = VideoSynth::new(&sc);
        let start = &sc.events[0];
        let f_on = frame_of_clip(start.span.start + start.span.len() / 2);
        let calm_clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let f_off = frame_of_clip(calm_clip);
        let on = semaphore_score(&v.frame(f_on));
        let off = semaphore_score(&v.frame(f_off));
        assert!(on > 0.2, "semaphore on-score {on}");
        assert!(off < on / 3.0, "semaphore off-score {off} vs on {on}");
    }

    #[test]
    fn sand_and_dust_fire_during_fly_outs() {
        let sc = scenario(RaceProfile::German, 240);
        let v = VideoSynth::new(&sc);
        let fly = sc
            .events
            .iter()
            .find(|e| e.kind == EventKind::FlyOut)
            .expect("german race has fly-outs");
        let f_on = frame_of_clip(fly.span.start + fly.span.len() / 2);
        let calm_clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let f_off = frame_of_clip(calm_clip);
        assert!(sand_score(&v.frame(f_on)) > sand_score(&v.frame(f_off)) + 0.1);
        assert!(dust_score(&v.frame(f_on)) > dust_score(&v.frame(f_off)));
    }

    #[test]
    fn wipes_bound_replays_and_pair_into_spans() {
        let sc = scenario(RaceProfile::German, 240);
        let v = VideoSynth::new(&sc);
        let r = sc.replays.first().expect("replays exist");
        let open = frame_of_clip(r.span.start);
        // Scan around the replay start for a wipe.
        let mut best = 0.0f64;
        for f in open..open + crate::synth::video::WIPE_FRAMES + 2 {
            best = best.max(wipe_score(&v.frame(f)));
        }
        assert!(best > 0.5, "wipe score near replay open: {best}");
        // A calm frame scores zero.
        let calm_clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let fc = frame_of_clip(calm_clip);
        assert!(wipe_score(&v.frame(fc)) < 0.3);
    }

    #[test]
    fn replay_span_pairing_logic() {
        // Wipes at 100 (open, 3 detections) and 180 (close, 2 detections).
        let wipes = [100, 101, 102, 180, 181];
        let spans = replay_spans_from_wipes(&wipes, 30, 300);
        assert_eq!(spans, vec![(100, 180)]);
        // Unpaired wipe yields nothing.
        assert!(replay_spans_from_wipes(&[50], 30, 300).is_empty());
        // Too-distant wipes do not pair.
        assert!(replay_spans_from_wipes(&[50, 600], 30, 300).is_empty());
    }
}
