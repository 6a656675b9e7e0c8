//! Assembly of the f1…f17 evidence matrix (§5.5).
//!
//! "Feature values, extracted from the audio and video signal, are
//! represented as probabilistic values in range from zero to one. Since
//! the parameters are calculated for each 0.1s, the length of feature
//! vectors is ten times longer than the duration of the video measured in
//! seconds." This module turns the raw synthetic broadcast into exactly
//! that matrix, in the paper's feature order:
//!
//! | idx | feature | source |
//! |----:|---------|--------|
//! | 0 | f1 keywords | keyword-spotter scores (injected by the caller) |
//! | 1 | f2 pause rate | audio |
//! | 2–4 | f3–f5 STE avg / dyn / max (882–2205 Hz) | audio |
//! | 5–7 | f6–f8 pitch avg / dyn / max | audio |
//! | 8–9 | f9–f10 MFCC avg / max | audio |
//! | 10 | f11 part of race | production metadata (scenario) |
//! | 11 | f12 replay | DVE wipe detector |
//! | 12 | f13 color difference | consecutive-frame pixel difference |
//! | 13 | f14 semaphore | red-rectangle detector |
//! | 14 | f15 dust | color filter |
//! | 15 | f16 sand | color filter |
//! | 16 | f17 motion | motion-histogram spread |

use crate::features::audio::{AudioAnalyzer, AudioConfig};
use crate::features::endpoint::EndpointConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::features::video::{
    dust_and_sand, motion_between, replay_spans_from_wipes, semaphore_score, wipe_in,
    MOTION_BASELINE,
};
use crate::frame::{Frame, LumaPlane};
use crate::synth::audio::AudioSynth;
use crate::synth::scenario::RaceScenario;
use crate::synth::video::VideoSynth;
use crate::time::{clip_of_video_frame, video_frame_of_clip, VIDEO_FPS};
use crate::Result;

/// Number of features in the paper's vector.
pub const N_FEATURES: usize = 17;

/// Frame stride of the wipe scan.
const WIPE_STRIDE: usize = 3;

/// Normalization constants mapping raw feature values into `[0, 1]`.
#[derive(Debug, Clone)]
pub struct VectorConfig {
    /// Audio analysis configuration.
    pub audio: AudioConfig,
    /// Endpoint detector gating the emphasized-speech features.
    pub endpoint: EndpointConfig,
    /// Exponential squash scale for mid-band STE.
    pub ste_mid_scale: f64,
    /// Pitch normalization range in Hz.
    pub pitch_range: (f64, f64),
    /// Exponential squash scale for the MFCC statistic.
    pub mfcc_scale: f64,
    /// Scale for the color-difference motion cue.
    pub color_diff_scale: f64,
    /// Scale factors for dust and sand coverage.
    pub dust_scale: f64,
    /// Minimum / maximum replay length in frames for wipe pairing.
    pub replay_len_frames: (usize, usize),
}

impl Default for VectorConfig {
    fn default() -> Self {
        VectorConfig {
            audio: AudioConfig::default(),
            endpoint: EndpointConfig::calibrated(),
            ste_mid_scale: 1.5e-3,
            pitch_range: (90.0, 350.0),
            mfcc_scale: 0.6,
            color_diff_scale: 12.0,
            dust_scale: 3.0,
            replay_len_frames: (2 * VIDEO_FPS, 20 * VIDEO_FPS),
        }
    }
}

fn squash(x: f64, scale: f64) -> f64 {
    1.0 - (-x / scale).exp()
}

fn norm_range(x: f64, lo: f64, hi: f64) -> f64 {
    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// The stages [`FeatureExtractor::stage_ns`] splits extraction into:
/// rendering frames, planes and audio clips; the audio analysis; the
/// wipe, motion and colour cues.
const STAGES: [&str; 3] = ["decode", "audio_features", "video_features"];
const DECODE: usize = 0;
const AUDIO_FEATURES: usize = 1;
const VIDEO_FEATURES: usize = 2;

/// Runs `f`, adding the nanoseconds it took to `ns`.
fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// A decoded frame and the luma plane the motion and wipe kernels read.
struct Decoded {
    idx: usize,
    frame: Frame,
    plane: LumaPlane,
}

/// The decoded frames extraction holds while it walks a clip range.
///
/// A clip at frame `f` looks at `f`, `f+1`, `f+3`, `f+4` and `f+7`, and
/// consecutive clips start 2–3 frames apart, so neighbouring clips share
/// most of what they look at. The window decodes a frame the first time
/// it is asked for and keeps it until the clip index has passed it:
/// every frame is decoded once, and at most eight are alive.
struct DecodeWindow<'v> {
    video: &'v VideoSynth<'v>,
    held: Vec<Decoded>,
    decoded: u64,
    /// Nanoseconds spent rendering frames and computing their planes.
    decode_ns: u64,
}

impl<'v> DecodeWindow<'v> {
    fn new(video: &'v VideoSynth<'v>) -> Self {
        DecodeWindow {
            video,
            held: Vec::new(),
            decoded: 0,
            decode_ns: 0,
        }
    }

    /// Drops every frame before `idx`.
    fn release_before(&mut self, idx: usize) {
        self.held.retain(|d| d.idx >= idx);
    }

    /// Decodes frame `idx` unless the window holds it.
    fn load(&mut self, idx: usize) {
        if self.held.iter().all(|d| d.idx != idx) {
            let (frame, plane) = timed(&mut self.decode_ns, || {
                let frame = self.video.frame(idx);
                let plane = LumaPlane::of(&frame);
                (frame, plane)
            });
            self.held.push(Decoded { idx, frame, plane });
            self.decoded += 1;
        }
    }

    /// A frame [`load`](Self::load) put in the window.
    fn get(&self, idx: usize) -> &Decoded {
        self.held
            .iter()
            .find(|d| d.idx == idx)
            .expect("frame is loaded before it is read")
    }
}

/// The per-clip feature extractor for one broadcast.
pub struct FeatureExtractor<'a> {
    scenario: &'a RaceScenario,
    audio: AudioSynth,
    video: VideoSynth<'a>,
    analyzer: AudioAnalyzer,
    cfg: VectorConfig,
    faults: cobra_faults::FaultHandle,
    frames_decoded: AtomicU64,
    stage_ns: [AtomicU64; 3],
}

impl<'a> FeatureExtractor<'a> {
    /// Builds an extractor over a scenario with default calibration.
    pub fn new(scenario: &'a RaceScenario) -> Result<Self> {
        let cfg = VectorConfig::default();
        Ok(FeatureExtractor {
            scenario,
            audio: AudioSynth::new(scenario),
            video: VideoSynth::new(scenario),
            analyzer: AudioAnalyzer::new(cfg.audio.clone())?,
            cfg,
            faults: cobra_faults::FaultHandle::default(),
            frames_decoded: AtomicU64::new(0),
            stage_ns: Default::default(),
        })
    }

    /// Puts the caller's fault injector behind the
    /// `media.vector.extract` site.
    pub fn with_faults(mut self, faults: cobra_faults::FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Video frames this extractor has decoded, over all its
    /// [`extract`](Self::extract) calls.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded.load(Ordering::Relaxed)
    }

    /// Nanoseconds this extractor has spent per stage, over all its
    /// [`extract`](Self::extract) calls: `decode` (video frames, their
    /// luma planes, audio clips), `audio_features` (the clip analysis)
    /// and `video_features` (wipe, motion and colour cues).
    pub fn stage_ns(&self) -> [(&'static str, u64); 3] {
        std::array::from_fn(|i| (STAGES[i], self.stage_ns[i].load(Ordering::Relaxed)))
    }

    /// Extracts the `[hi_clip - lo_clip] × 17` feature matrix.
    ///
    /// `keyword_scores` are the normalized keyword-spotter outputs per
    /// clip of the *whole* broadcast (indexed absolutely); pass an empty
    /// slice to zero the keyword feature.
    ///
    /// One pass in clip order through a [`DecodeWindow`]: a frame is
    /// decoded once, its luma plane is computed once, and its wipe
    /// evidence is taken when the pass reaches it if it lies on the
    /// `WIPE_STRIDE` grid. The replay feature needs the wipes of the
    /// whole range, so it is filled in after the pass.
    pub fn extract(
        &self,
        keyword_scores: &[f64],
        lo_clip: usize,
        hi_clip: usize,
    ) -> Result<Vec<Vec<f64>>> {
        let hi_clip = hi_clip.min(self.scenario.n_clips);
        // Fault site `media.vector.extract`: lets tests fail extraction
        // below the pre-processor, where a real decoder would die.
        self.faults.fire("media.vector.extract")?;
        let last = self.video.n_frames().saturating_sub(1);
        // The wipe scan covers the range's own frames, short of the
        // broadcast's last one.
        let wipe_end = video_frame_of_clip(hi_clip).min(last);
        let mut next_wipe = video_frame_of_clip(lo_clip);
        let mut wipes = Vec::new();
        let mut window = DecodeWindow::new(&self.video);
        let mut ns = [0u64; 3];
        let mut rows = Vec::with_capacity(hi_clip.saturating_sub(lo_clip));
        for clip in lo_clip..hi_clip {
            let samples = timed(&mut ns[DECODE], || self.audio.clip(clip));
            let a = timed(&mut ns[AUDIO_FEATURES], || {
                self.analyzer.analyze_clip(&samples)
            })?;
            let speech = self.cfg.endpoint.is_speech(&a);
            // §5.2: the emphasized-speech features are "only performed on
            // speech segments obtained by the speech endpoint detection".
            let gate = if speech { 1.0 } else { 0.0 };
            let (plo, phi) = self.cfg.pitch_range;

            let f_idx = video_frame_of_clip(clip);
            window.release_before(f_idx);
            while next_wipe < video_frame_of_clip(clip + 1).min(wipe_end) {
                window.load(next_wipe);
                let plane = &window.get(next_wipe).plane;
                if timed(&mut ns[VIDEO_FEATURES], || wipe_in(plane)) > 0.5 {
                    wipes.push(next_wipe);
                }
                next_wipe += WIPE_STRIDE;
            }
            // A second motion sample half a clip later makes the passing
            // cue robust to cuts and momentary occlusion.
            let half = MOTION_BASELINE / 2 + 1;
            let looked_at = [0, 1, MOTION_BASELINE, half, half + MOTION_BASELINE]
                .map(|ahead| (f_idx + ahead).min(last));
            for idx in looked_at {
                window.load(idx);
            }
            let [cur, next, far, mid, far2] = looked_at.map(|idx| window.get(idx));
            let (motion, color_diff, semaphore, (dust, sand)) =
                timed(&mut ns[VIDEO_FEATURES], || {
                    let field = motion_between(&cur.plane, &far.plane);
                    let field2 = motion_between(&mid.plane, &far2.plane);
                    (
                        field
                            .object_motion_contrast()
                            .max(field2.object_motion_contrast()),
                        cur.frame.mean_abs_diff(&next.frame),
                        semaphore_score(&cur.frame),
                        dust_and_sand(&cur.frame),
                    )
                });

            let mut row = vec![0.0; N_FEATURES];
            row[0] = keyword_scores.get(clip).copied().unwrap_or(0.0);
            row[1] = a.pause_rate;
            row[2] = gate * squash(a.ste_mid.avg, self.cfg.ste_mid_scale);
            row[3] = gate * squash(a.ste_mid.dyn_range, self.cfg.ste_mid_scale);
            row[4] = gate * squash(a.ste_mid.max, self.cfg.ste_mid_scale * 2.0);
            row[5] = gate * norm_range(a.pitch.avg, plo, phi);
            row[6] = gate * norm_range(a.pitch.dyn_range, 0.0, phi - plo);
            row[7] = gate * norm_range(a.pitch.max, plo, phi);
            row[8] = gate * squash(a.mfcc3.avg, self.cfg.mfcc_scale);
            row[9] = gate * squash(a.mfcc3.max, self.cfg.mfcc_scale * 1.5);
            row[10] = if self.scenario.is_live(clip) {
                0.95
            } else {
                0.05
            };
            row[12] = (color_diff * self.cfg.color_diff_scale).min(1.0);
            row[13] = semaphore;
            row[14] = (dust * self.cfg.dust_scale).min(1.0);
            row[15] = (sand * self.cfg.dust_scale).min(1.0);
            row[16] = motion;
            rows.push(row);
        }
        self.frames_decoded
            .fetch_add(window.decoded, Ordering::Relaxed);
        ns[DECODE] += window.decode_ns;
        for (total, ns) in self.stage_ns.iter().zip(ns) {
            total.fetch_add(ns, Ordering::Relaxed);
        }

        // f12: a wipe opens a replay, the next one in range closes it.
        let (min_len, max_len) = self.cfg.replay_len_frames;
        let mut replay = vec![false; rows.len()];
        for (open, close) in replay_spans_from_wipes(&wipes, min_len, max_len) {
            let c0 = clip_of_video_frame(open).max(lo_clip);
            let c1 = (clip_of_video_frame(close) + 1).min(hi_clip);
            for c in c0..c1 {
                replay[c - lo_clip] = true;
            }
        }
        for (row, replay) in rows.iter_mut().zip(replay) {
            row[11] = if replay { 0.9 } else { 0.1 };
        }
        Ok(rows)
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &RaceScenario {
        self.scenario
    }

    /// The audio renderer (for keyword spotting and diagnostics).
    pub fn audio(&self) -> &AudioSynth {
        &self.audio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::scenario::{EventKind, RaceProfile, ScenarioConfig};
    use crate::MediaError;

    fn matrix(profile: RaceProfile, secs: usize) -> (RaceScenario, Vec<Vec<f64>>) {
        let sc = RaceScenario::generate(ScenarioConfig::new(profile, secs));
        let fx = FeatureExtractor::new(&sc).unwrap();
        let m = fx.extract(&[], 0, sc.n_clips).unwrap();
        (sc, m)
    }

    #[test]
    fn injected_extract_fault_is_a_typed_error() {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 10));
        let faults = cobra_faults::FaultHandle::default();
        let fx = FeatureExtractor::new(&sc)
            .unwrap()
            .with_faults(faults.clone());
        let (result, report) = faults.scope(
            cobra_faults::FaultPlan::new(5)
                .fail_transient("media.vector.extract", cobra_faults::Trigger::Times(1)),
            || fx.extract(&[], 0, sc.n_clips),
        );
        assert_eq!(
            result.unwrap_err(),
            MediaError::Fault {
                site: "media.vector.extract".into(),
                transient: true,
            }
        );
        assert_eq!(report.count("media.vector.extract"), 1);
        // Disarmed, the same extractor works.
        assert_eq!(fx.extract(&[], 0, sc.n_clips).unwrap().len(), sc.n_clips);
    }

    /// Digest of the bit patterns of a matrix, row by row.
    fn digest(rows: &[Vec<f64>]) -> u64 {
        crate::test_support::fnv1a(rows.iter().flatten().map(|v| v.to_bits()))
    }

    /// Pins the f1…f17 matrix of one broadcast bit for bit: whole, in
    /// 50-clip arrival windows, and over a window that starts on an odd
    /// clip and ends at the last one (`pinned[split]`). The digests were
    /// recorded at the commit before the extractor's kernels were
    /// rewritten over planes and rows — per-pixel `Frame::get`, five
    /// decodes per clip, a separate wipe pre-pass.
    fn assert_matrices_pinned(profile: RaceProfile, secs: usize, pinned: [u64; 3]) {
        let sc = RaceScenario::generate(ScenarioConfig::new(profile, secs));
        let n = sc.n_clips;
        let fx = FeatureExtractor::new(&sc).unwrap();
        let whole = fx.extract(&[], 0, n).unwrap();
        let windows: Vec<Vec<f64>> = (0..n)
            .step_by(50)
            .flat_map(|lo| fx.extract(&[], lo, lo + 50).unwrap())
            .collect();
        let tail = fx.extract(&[], n - 175, n).unwrap();
        assert_eq!(
            [digest(&whole), digest(&windows), digest(&tail)],
            pinned,
            "{profile:?}"
        );
    }

    #[test]
    fn german_matrices_are_bit_identical_to_the_per_pixel_extractor() {
        assert_matrices_pinned(
            RaceProfile::German,
            90,
            [0x3c7ebc2483fe5d8c, 0x805ff1b8323b689f, 0x477a2db4d37d1c50],
        );
    }

    #[test]
    fn belgian_matrices_are_bit_identical_to_the_per_pixel_extractor() {
        assert_matrices_pinned(
            RaceProfile::Belgian,
            60,
            [0xe56e7781425ff0d3, 0xc459c3970b5a0d0e, 0xe1c8490c1eabf53c],
        );
    }

    #[test]
    fn usa_matrices_are_bit_identical_to_the_per_pixel_extractor() {
        assert_matrices_pinned(
            RaceProfile::Usa,
            70,
            [0x61b9765c40a2d78b, 0xfa2a41fdd2afed38, 0x08d2d182c520ea64],
        );
    }

    #[test]
    fn every_frame_is_decoded_once() {
        // The benchmark's broadcast: 100 clips in two arrival windows.
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 10));
        let fx = FeatureExtractor::new(&sc).unwrap();
        fx.extract(&[], 0, 50).unwrap();
        // Clips 0..50 start at frames 0..=122 and look seven frames
        // ahead: frames 0..=129 less the one no clip of the window reads.
        assert_eq!(fx.frames_decoded(), 129);
        fx.extract(&[], 50, 100).unwrap();
        // The second window starts over at frame 125 and stops at the
        // broadcast's last frame, 249. Five decodes per clip and a wipe
        // pre-pass made this 584.
        assert_eq!(fx.frames_decoded(), 129 + 125);
    }

    #[test]
    fn matrix_shape_and_range() {
        let (sc, m) = matrix(RaceProfile::German, 30);
        assert_eq!(m.len(), sc.n_clips);
        for row in &m {
            assert_eq!(row.len(), N_FEATURES);
            for (k, &v) in row.iter().enumerate() {
                assert!((0.0..=1.0).contains(&v), "feature {k} out of range: {v}");
            }
        }
    }

    #[test]
    fn excited_clips_raise_the_audio_features() {
        let (sc, m) = matrix(RaceProfile::German, 120);
        let mean_feature = |clips: &[usize], k: usize| -> f64 {
            clips.iter().map(|&c| m[c][k]).sum::<f64>() / clips.len().max(1) as f64
        };
        let excited: Vec<usize> = (0..sc.n_clips).filter(|&c| sc.is_excited(c)).collect();
        let idle: Vec<usize> = (0..sc.n_clips)
            .filter(|&c| !sc.is_excited(c) && !sc.is_speech(c))
            .collect();
        assert!(excited.len() > 20 && idle.len() > 20);
        // STE mid avg (f3), pitch avg (f6), MFCC avg (f9) all higher.
        for k in [2usize, 5, 8] {
            let e = mean_feature(&excited, k);
            let i = mean_feature(&idle, k);
            assert!(e > i + 0.2, "feature {k}: excited {e} vs idle {i}");
        }
        // Pause rate (f2) lower when excited.
        assert!(mean_feature(&excited, 1) < mean_feature(&idle, 1) - 0.2);
    }

    #[test]
    fn semaphore_feature_fires_at_the_start() {
        let (sc, m) = matrix(RaceProfile::German, 60);
        let start = &sc.events[0];
        let mid = start.span.start + start.span.len() / 2;
        let calm = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        assert!(m[mid][13] > m[calm][13] + 0.15);
    }

    #[test]
    fn dust_and_sand_fire_at_fly_outs() {
        let (sc, m) = matrix(RaceProfile::German, 240);
        let fly = sc
            .events
            .iter()
            .find(|e| e.kind == EventKind::FlyOut)
            .unwrap();
        let mid = fly.span.start + fly.span.len() / 2;
        let calm = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        assert!(m[mid][14] > m[calm][14]);
        assert!(m[mid][15] > m[calm][15] + 0.2);
    }

    #[test]
    fn replay_flag_overlaps_true_replays() {
        let (sc, m) = matrix(RaceProfile::German, 240);
        let r = sc.replays.first().unwrap();
        // At least part of the replay is flagged.
        let flagged = (r.span.start..r.span.end)
            .filter(|&c| m[c][11] > 0.5)
            .count();
        assert!(
            flagged * 2 > r.span.len(),
            "only {flagged}/{} replay clips flagged",
            r.span.len()
        );
        // Most non-replay clips are unflagged.
        let fp = (0..sc.n_clips)
            .filter(|&c| !sc.is_replay(c) && m[c][11] > 0.5)
            .count();
        assert!(fp * 10 < sc.n_clips, "{fp} false replay clips");
    }

    #[test]
    fn part_of_race_follows_the_live_span() {
        let (sc, m) = matrix(RaceProfile::German, 60);
        assert!(m[0][10] < 0.5); // pre-race
        let mid = (sc.live.start + sc.live.end) / 2;
        assert!(m[mid][10] > 0.5);
    }

    #[test]
    fn keyword_scores_pass_through() {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 20));
        let fx = FeatureExtractor::new(&sc).unwrap();
        let scores: Vec<f64> = (0..sc.n_clips).map(|c| (c % 10) as f64 / 10.0).collect();
        let m = fx.extract(&scores, 5, 15).unwrap();
        assert_eq!(m[0][0], scores[5]);
        assert_eq!(m[9][0], scores[14]);
    }

    #[test]
    fn passing_motion_cue_is_stronger_on_german_than_belgian_passings() {
        let (g_sc, g_m) = matrix(RaceProfile::German, 240);
        let mean_spread = |sc: &RaceScenario, m: &[Vec<f64>]| -> (f64, f64) {
            let passing: Vec<usize> = (0..sc.n_clips)
                .filter(|&c| matches!(sc.event_at(c).map(|e| e.kind), Some(EventKind::Passing)))
                .collect();
            let calm: Vec<usize> = (0..sc.n_clips)
                .filter(|&c| sc.is_live(c) && sc.event_at(c).is_none() && !sc.is_replay(c))
                .collect();
            let avg =
                |v: &[usize]| v.iter().map(|&c| m[c][16]).sum::<f64>() / v.len().max(1) as f64;
            (avg(&passing), avg(&calm))
        };
        let (g_pass, g_calm) = mean_spread(&g_sc, &g_m);
        assert!(
            g_pass > g_calm + 0.05,
            "german passing spread {g_pass} vs calm {g_calm}"
        );
        // On the Belgian profile the cue separates far less (jittery
        // camera): the *contrast* must be weaker.
        let (b_sc, b_m) = matrix(RaceProfile::Belgian, 240);
        let (b_pass, b_calm) = mean_spread(&b_sc, &b_m);
        assert!(
            (g_pass - g_calm) > (b_pass - b_calm),
            "german contrast {} vs belgian {}",
            g_pass - g_calm,
            b_pass - b_calm
        );
    }
}
