//! Audio features: STE, pitch, MFCC, pause rate and clip aggregates.
//!
//! §5.2 of the paper: short-time energy over filtered sub-bands (Hamming
//! window), autocorrelation pitch below 1 kHz, mel-frequency cepstral
//! coefficients (first 3 of 12 indicative for speech), and the pause rate
//! of an audio clip. Frame-level values are aggregated per 0.1 s clip into
//! averages, maxima and dynamic ranges.

use crate::signal::{goertzel_coefficient, goertzel_powers, FirFilter};
use crate::time::{CLIP_SAMPLES, FRAME_SAMPLES, SAMPLE_RATE};
use crate::window::Window;
use crate::{MediaError, Result};

/// Clip-level aggregate of a frame-level feature (§5.2 computes "average
/// values and dynamic range, and maximum values").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClipStats {
    /// Mean over the clip's frames.
    pub avg: f64,
    /// Maximum over the clip's frames.
    pub max: f64,
    /// Max − min over the clip's frames.
    pub dyn_range: f64,
}

impl ClipStats {
    /// Aggregates frame values (empty input gives zeros).
    pub fn from_frames(values: &[f64]) -> Self {
        if values.is_empty() {
            return ClipStats::default();
        }
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        ClipStats {
            avg: sum / values.len() as f64,
            max,
            dyn_range: max - min,
        }
    }
}

/// Short-time energy of one frame under an analysis window: the mean of
/// squared windowed samples.
pub fn short_time_energy(frame: &[f64], window: Window) -> f64 {
    windowed_energy(frame, &window.coefficients(frame.len()))
}

/// [`short_time_energy`] under window coefficients computed beforehand.
fn windowed_energy(frame: &[f64], coeffs: &[f64]) -> f64 {
    if frame.is_empty() {
        return 0.0;
    }
    frame
        .iter()
        .zip(coeffs)
        .map(|(x, w)| {
            let v = x * w;
            v * v
        })
        .sum::<f64>()
        / frame.len() as f64
}

/// Autocorrelation pitch estimate over a buffer (use ≥ 2 frames so lags
/// for low fundamentals fit). Returns `None` for unvoiced/silent input.
///
/// The search is limited to `min_hz..=max_hz` (the paper restricts pitch
/// to below 1 kHz, where human speech lives).
pub fn pitch_autocorrelation(
    buf: &[f64],
    min_hz: f64,
    max_hz: f64,
    voicing_threshold: f64,
) -> Option<f64> {
    if buf.len() < 8 || min_hz <= 0.0 || max_hz <= min_hz {
        return None;
    }
    let r0: f64 = buf.iter().map(|x| x * x).sum();
    if r0 < 1e-9 {
        return None;
    }
    let min_lag = (SAMPLE_RATE as f64 / max_hz).floor().max(2.0) as usize;
    let max_lag = ((SAMPLE_RATE as f64 / min_hz).ceil() as usize).min(buf.len() - 1);
    if min_lag >= max_lag {
        return None;
    }
    // Raw autocorrelation, LANES lags per pass over the buffer. The last
    // group ends at `max_lag`, so it may recompute lags of the one before
    // (or below `min_lag`), to the same numbers; a range too short for
    // one group goes a lag at a time.
    const LANES: usize = 16;
    let mut scores = vec![0.0; max_lag - min_lag + 1];
    if max_lag + 1 < LANES {
        for (r, lag) in scores.iter_mut().zip(min_lag..) {
            [*r] = autocorrelations::<1>(buf, lag);
        }
    } else {
        for group in (min_lag..=max_lag).step_by(LANES) {
            let first = group.min(max_lag + 1 - LANES);
            for (r, lag) in autocorrelations::<LANES>(buf, first)
                .into_iter()
                .zip(first..)
            {
                if lag >= min_lag {
                    scores[lag - min_lag] = r;
                }
            }
        }
    }
    let mut best = f64::MIN;
    for (r, lag) in scores.iter_mut().zip(min_lag..) {
        // Normalize for the shrinking overlap.
        *r = *r / (buf.len() - lag) as f64 / (r0 / buf.len() as f64);
        best = best.max(*r);
    }
    if best < voicing_threshold {
        return None;
    }
    // Octave-error guard: among *local maxima*, take the smallest lag
    // scoring within 90% of the global best — integer multiples of the
    // true period peak almost identically for periodic signals.
    let cutoff = voicing_threshold.max(0.9 * best);
    let mut lag = None;
    for i in 0..scores.len() {
        let is_peak = (i == 0 || scores[i] >= scores[i - 1])
            && (i + 1 == scores.len() || scores[i] >= scores[i + 1]);
        if is_peak && scores[i] >= cutoff {
            lag = Some(i + min_lag);
            break;
        }
    }
    let lag = lag?;
    Some(SAMPLE_RATE as f64 / lag as f64)
}

/// The raw autocorrelation of `buf` at lags `first..first + N`, the last
/// of which must be below `buf.len()`. The N lags advance together over
/// one pass of the buffer, so their independent sums overlap in the
/// pipeline; each still runs over its own overlap in ascending order, as
/// it would alone.
fn autocorrelations<const N: usize>(buf: &[f64], first: usize) -> [f64; N] {
    // The longest lag has the shortest overlap.
    let shared = buf.len() - (first + N - 1);
    let mut r = [0.0; N];
    for (&x, lagged) in buf[..shared].iter().zip(buf[first..].windows(N)) {
        for (r, &y) in r.iter_mut().zip(lagged) {
            *r += x * y;
        }
    }
    for (r, lag) in r.iter_mut().zip(first..) {
        for (&x, &y) in buf[shared..].iter().zip(&buf[shared + lag..]) {
            *r += x * y;
        }
    }
    r
}

/// Mel scale conversion.
fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// The tables behind [`mfcc`] for one choice of its parameters: the
/// Goertzel coefficients of the mel-spaced probe frequencies and the
/// DCT-II cosines.
struct MelBank {
    /// One Goertzel coefficient per mel filter.
    probes: Vec<f64>,
    /// `n_coeffs` rows of `n_filters` cosines.
    dct: Vec<f64>,
}

impl MelBank {
    fn new(n_coeffs: usize, n_filters: usize, fmax_hz: f64) -> Self {
        let mel_max = hz_to_mel(fmax_hz);
        let mel_min = hz_to_mel(60.0);
        let probes = (0..n_filters)
            .map(|k| {
                let mel =
                    mel_min + (mel_max - mel_min) * (k as f64 + 1.0) / (n_filters as f64 + 1.0);
                goertzel_coefficient(mel_to_hz(mel), SAMPLE_RATE)
            })
            .collect();
        let dct = (1..=n_coeffs)
            .flat_map(|c| {
                (0..n_filters).map(move |k| {
                    (std::f64::consts::PI * c as f64 * (k as f64 + 0.5) / n_filters as f64).cos()
                })
            })
            .collect();
        MelBank { probes, dct }
    }

    /// The `n_coeffs` coefficients (c1…cn, excluding c0) of a non-empty
    /// frame.
    fn mfcc(&self, frame: &[f64]) -> Vec<f64> {
        let n_filters = self.probes.len();
        let mut energies = goertzel_powers(frame, &self.probes);
        for e in &mut energies {
            *e = (*e + 1e-12).ln();
        }
        // DCT-II over the log filterbank energies.
        self.dct
            .chunks_exact(n_filters)
            .map(|cosines| {
                energies
                    .iter()
                    .zip(cosines)
                    .map(|(&e, &cos)| e * cos)
                    .sum::<f64>()
                    / n_filters as f64
            })
            .collect()
    }
}

/// Mel-frequency cepstral coefficients of a frame.
///
/// The mel filterbank energies are probed with Goertzel filters at the
/// mel-spaced centre frequencies (an FFT-free approximation of the
/// triangular filterbank; the cosine transform and the mel warping are
/// exactly the standard construction). Returns `n_coeffs` coefficients
/// (c1…cn, excluding c0).
pub fn mfcc(frame: &[f64], n_coeffs: usize, n_filters: usize, fmax_hz: f64) -> Vec<f64> {
    if frame.is_empty() || n_filters == 0 {
        return vec![0.0; n_coeffs];
    }
    MelBank::new(n_coeffs, n_filters, fmax_hz).mfcc(frame)
}

/// Configuration of the clip-level audio analysis.
#[derive(Debug, Clone)]
pub struct AudioConfig {
    /// STE analysis window (the paper selects Hamming).
    pub window: Window,
    /// FIR length for the sub-band filters.
    pub taps: usize,
    /// Voicing threshold for pitch tracking.
    pub voicing_threshold: f64,
    /// Frame STE below this (in the 0–2.5 kHz band) counts as a pause.
    pub silence_threshold: f64,
}

impl Default for AudioConfig {
    fn default() -> Self {
        AudioConfig {
            window: Window::Hamming,
            taps: 51,
            voicing_threshold: 0.35,
            silence_threshold: 2.0e-3,
        }
    }
}

/// Frame-level and clip-level audio features of one 0.1 s clip.
#[derive(Debug, Clone, PartialEq)]
pub struct AudioClipFeatures {
    /// STE stats in the 0–882 Hz band (speech endpoint detection).
    pub ste_low: ClipStats,
    /// STE stats in the 882–2205 Hz band (emphasized speech).
    pub ste_mid: ClipStats,
    /// Pitch stats in Hz over voiced frames (0 when fully unvoiced).
    pub pitch: ClipStats,
    /// Sum of the first three MFCCs, per frame, aggregated.
    pub mfcc3: ClipStats,
    /// Fraction of silent frames in the clip.
    pub pause_rate: f64,
    /// Fraction of voiced frames.
    pub voiced_rate: f64,
}

/// The clip-level audio analyzer (owns the designed filters and the
/// per-frame tables: a clip's ten frames share one window and one mel
/// bank).
pub struct AudioAnalyzer {
    cfg: AudioConfig,
    low: FirFilter,  // 0–882 Hz
    mid: FirFilter,  // 882–2205 Hz
    wide: FirFilter, // 0–2500 Hz (speech characterization band)
    window: Vec<f64>,
    mel: MelBank,
}

impl AudioAnalyzer {
    /// Designs the paper's three sub-band filters.
    pub fn new(cfg: AudioConfig) -> Result<Self> {
        if cfg.taps < 3 || cfg.taps.is_multiple_of(2) {
            return Err(MediaError::BadParameter("taps must be odd ≥ 3".into()));
        }
        Ok(AudioAnalyzer {
            low: FirFilter::band_pass(0.0, 882.0, cfg.taps, SAMPLE_RATE)?,
            mid: FirFilter::band_pass(882.0, 2205.0, cfg.taps, SAMPLE_RATE)?,
            wide: FirFilter::band_pass(0.0, 2500.0, cfg.taps, SAMPLE_RATE)?,
            window: cfg.window.coefficients(FRAME_SAMPLES),
            mel: MelBank::new(3, 16, 2500.0),
            cfg,
        })
    }

    /// Analyzer with default configuration.
    pub fn standard() -> Self {
        AudioAnalyzer::new(AudioConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> &AudioConfig {
        &self.cfg
    }

    /// Analyzes one clip of `CLIP_SAMPLES` samples.
    pub fn analyze_clip(&self, samples: &[f64]) -> Result<AudioClipFeatures> {
        if samples.len() != CLIP_SAMPLES {
            return Err(MediaError::Shape(format!(
                "clip must have {CLIP_SAMPLES} samples, got {}",
                samples.len()
            )));
        }
        let low = self.low.apply(samples);
        let mid = self.mid.apply(samples);
        let wide = self.wide.apply(samples);

        let n_frames = CLIP_SAMPLES / FRAME_SAMPLES;
        let mut ste_low = Vec::with_capacity(n_frames);
        let mut ste_mid = Vec::with_capacity(n_frames);
        let mut mfcc3 = Vec::with_capacity(n_frames);
        let mut silent = 0usize;
        for f in 0..n_frames {
            let lo = f * FRAME_SAMPLES;
            let hi = lo + FRAME_SAMPLES;
            ste_low.push(windowed_energy(&low[lo..hi], &self.window));
            ste_mid.push(windowed_energy(&mid[lo..hi], &self.window));
            let coeffs = self.mel.mfcc(&low[lo..hi]);
            mfcc3.push(coeffs.iter().map(|c| c.abs()).sum());
            let wide_e = windowed_energy(&wide[lo..hi], &self.window);
            if wide_e < self.cfg.silence_threshold {
                silent += 1;
            }
        }

        // Pitch over 2-frame (20 ms) windows of the low band, stepping two
        // frames — five windows per clip, none overlapping: lags down to
        // ≈ 90 Hz fit in 440 samples.
        let mut pitches = Vec::new();
        let mut voiced = 0usize;
        let mut windows = 0usize;
        let wlen = 2 * FRAME_SAMPLES;
        let mut s = 0;
        while s + wlen <= CLIP_SAMPLES {
            windows += 1;
            if let Some(p) =
                pitch_autocorrelation(&low[s..s + wlen], 90.0, 400.0, self.cfg.voicing_threshold)
            {
                pitches.push(p);
                voiced += 1;
            }
            s += FRAME_SAMPLES * 2;
        }

        Ok(AudioClipFeatures {
            ste_low: ClipStats::from_frames(&ste_low),
            ste_mid: ClipStats::from_frames(&ste_mid),
            pitch: ClipStats::from_frames(&pitches),
            mfcc3: ClipStats::from_frames(&mfcc3),
            pause_rate: silent as f64 / n_frames as f64,
            voiced_rate: if windows == 0 {
                0.0
            } else {
                voiced as f64 / windows as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::sine;
    use crate::synth::audio::AudioSynth;
    use crate::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

    #[test]
    fn clip_stats_aggregate_correctly() {
        let s = ClipStats::from_frames(&[1.0, 3.0, 2.0]);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        assert!((s.dyn_range - 2.0).abs() < 1e-12);
        assert_eq!(ClipStats::from_frames(&[]), ClipStats::default());
    }

    #[test]
    fn ste_scales_with_amplitude_squared() {
        let quiet = sine(300.0, 0.1, FRAME_SAMPLES, SAMPLE_RATE);
        let loud = sine(300.0, 0.4, FRAME_SAMPLES, SAMPLE_RATE);
        let eq = short_time_energy(&quiet, Window::Hamming);
        let el = short_time_energy(&loud, Window::Hamming);
        assert!((el / eq - 16.0).abs() < 0.5, "ratio {}", el / eq);
        assert_eq!(short_time_energy(&[], Window::Hamming), 0.0);
    }

    #[test]
    fn hamming_ste_differs_from_rectangular() {
        let tone = sine(300.0, 0.3, FRAME_SAMPLES, SAMPLE_RATE);
        let h = short_time_energy(&tone, Window::Hamming);
        let r = short_time_energy(&tone, Window::Rectangular);
        assert!(h < r); // window mass < 1
        assert!(h > 0.0);
    }

    #[test]
    fn pitch_tracks_pure_tones() {
        for f0 in [110.0, 180.0, 250.0, 320.0] {
            let tone = sine(f0, 0.5, 2 * FRAME_SAMPLES, SAMPLE_RATE);
            let p = pitch_autocorrelation(&tone, 90.0, 400.0, 0.3)
                .unwrap_or_else(|| panic!("no pitch at {f0}"));
            assert!((p - f0).abs() / f0 < 0.06, "estimated {p} for true {f0}");
        }
    }

    #[test]
    fn pitch_rejects_noise_and_silence() {
        let silence = vec![0.0; 2 * FRAME_SAMPLES];
        assert_eq!(pitch_autocorrelation(&silence, 90.0, 400.0, 0.3), None);
        // Deterministic pseudo-noise (proper avalanche mixing — a bare
        // multiply leaves periodic structure the estimator would find).
        let noise: Vec<f64> = (0..2 * FRAME_SAMPLES)
            .map(|n| {
                let mut z = (n as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        // White noise has a flat autocorrelation: voicing check fails.
        assert_eq!(pitch_autocorrelation(&noise, 90.0, 400.0, 0.5), None);
    }

    #[test]
    fn harmonic_stack_pitch_is_the_fundamental() {
        let mut buf = vec![0.0; 2 * FRAME_SAMPLES];
        for k in 1..=4 {
            let tone = sine(140.0 * k as f64, 0.3 / k as f64, buf.len(), SAMPLE_RATE);
            for (b, t) in buf.iter_mut().zip(tone) {
                *b += t;
            }
        }
        let p = pitch_autocorrelation(&buf, 90.0, 400.0, 0.3).unwrap();
        assert!((p - 140.0).abs() < 10.0, "estimated {p}");
    }

    #[test]
    fn mfcc_distinguishes_spectral_shapes() {
        let low_tone = sine(200.0, 0.4, FRAME_SAMPLES, SAMPLE_RATE);
        let high_tone = sine(2000.0, 0.4, FRAME_SAMPLES, SAMPLE_RATE);
        let a = mfcc(&low_tone, 3, 16, 2500.0);
        let b = mfcc(&high_tone, 3, 16, 2500.0);
        assert_eq!(a.len(), 3);
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(dist > 0.1, "MFCCs too similar: {a:?} vs {b:?}");
        assert_eq!(mfcc(&[], 3, 16, 2500.0), vec![0.0; 3]);
    }

    #[test]
    fn analyzer_rejects_wrong_clip_length() {
        let a = AudioAnalyzer::standard();
        assert!(a.analyze_clip(&vec![0.0; 100]).is_err());
    }

    #[test]
    fn excited_clips_score_higher_on_the_papers_cues() {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 90));
        let audio = AudioSynth::new(&sc);
        let analyzer = AudioAnalyzer::standard();
        let mut excited = Vec::new();
        let mut calm = Vec::new();
        for clip in 0..sc.n_clips {
            let is_exc = sc.is_excited(clip);
            let is_speech = sc.is_speech(clip);
            if is_exc && excited.len() < 30 {
                excited.push(analyzer.analyze_clip(&audio.clip(clip)).unwrap());
            } else if is_speech && !is_exc && calm.len() < 30 {
                calm.push(analyzer.analyze_clip(&audio.clip(clip)).unwrap());
            }
        }
        assert!(excited.len() >= 10 && calm.len() >= 10);
        let mean = |v: &[AudioClipFeatures], f: fn(&AudioClipFeatures) -> f64| {
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        // Mid-band STE (the paper's emphasized-speech band) rises.
        let e_mid = mean(&excited, |f| f.ste_mid.avg);
        let c_mid = mean(&calm, |f| f.ste_mid.avg);
        assert!(e_mid > c_mid * 1.5, "ste_mid {e_mid} vs {c_mid}");
        // Pitch rises (excited f0 ≈ 250 Hz vs ≈ 120 Hz).
        let e_pitch = mean(&excited, |f| f.pitch.avg);
        let c_pitch = mean(&calm, |f| f.pitch.avg);
        assert!(e_pitch > c_pitch + 40.0, "pitch {e_pitch} vs {c_pitch}");
        // Pause rate falls.
        let e_pause = mean(&excited, |f| f.pause_rate);
        let c_pause = mean(&calm, |f| f.pause_rate);
        assert!(e_pause < c_pause, "pause {e_pause} vs {c_pause}");
    }
}
