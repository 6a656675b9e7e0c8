//! PCM rendering of the broadcast audio.
//!
//! §5.2 describes the Formula 1 audio as "human speech, car noise, and
//! various background noises". [`AudioSynth`] renders exactly that mix at
//! 22 kHz from a [`RaceScenario`]:
//!
//! * an **engine bed** — a low sawtooth stack, louder while the race is
//!   live,
//! * **crowd noise** — hashed white noise, slightly raised during events,
//! * **commentary** — a harmonic glottal source chopped into syllables;
//!   when the announcer is excited the fundamental rises from ≈ 120 Hz to
//!   ≈ 250 Hz, the amplitude roughly doubles and the inter-syllable pauses
//!   shrink (the exact cues the paper's STE/pitch/pause-rate features
//!   pick up).
//!
//! Rendering is *random access*: [`AudioSynth::clip`] produces any 0.1 s
//! clip deterministically without rendering the rest of the race, so a
//! 90-minute broadcast never needs to exist in memory at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::scenario::RaceScenario;
use crate::time::{CLIP_SAMPLES, SAMPLE_RATE};

/// A syllable of commentary: a voiced harmonic burst.
#[derive(Debug, Clone, Copy)]
struct Syllable {
    start_sample: usize,
    len: usize,
    f0: f64,
    amp: f64,
}

/// A close engine pass: several seconds of screaming car drowning the
/// commentary — the broadcast noise that makes §5.2's features hard.
#[derive(Debug, Clone, Copy)]
struct EnginePass {
    start_sample: usize,
    len: usize,
    /// Braking/downshift rumble fundamental (lands in the speech band).
    rumble_hz: f64,
}

/// Deterministic random-access audio renderer for one scenario.
pub struct AudioSynth {
    syllables: Vec<Syllable>,
    /// Sorted syllable start samples for binary search.
    starts: Vec<usize>,
    passes: Vec<EnginePass>,
    live_start: usize,
    live_end: usize,
    event_clips: Vec<(usize, usize)>,
    noise_seed: u64,
    n_samples: usize,
}

/// SplitMix64 — a tiny stateless hash giving deterministic per-sample
/// noise with random access.
fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples from one grandstand swell window to the next (45 s).
const SWELL_PERIOD: usize = 45 * SAMPLE_RATE;
const _: () = assert!(SWELL_PERIOD.is_multiple_of(CLIP_SAMPLES));

fn noise(seed: u64, n: u64) -> f64 {
    // Uniform in [-1, 1).
    (hash64(seed ^ n) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

impl AudioSynth {
    /// Prepares the renderer (precomputes the syllable plan; no PCM yet).
    pub fn new(scenario: &RaceScenario) -> Self {
        let mut rng = StdRng::seed_from_u64(scenario.config.seed ^ 0xA0D10);
        let mut syllables = Vec::new();
        for span in &scenario.speech {
            let mut s = span.start * CLIP_SAMPLES;
            let span_end = span.end * CLIP_SAMPLES;
            while s < span_end {
                let clip = s / CLIP_SAMPLES;
                let excited = scenario.is_excited(clip);
                // Excitement intensity varies per span: a big crash gets a
                // screaming announcer, a minor overtake only a mild lift —
                // the mild ones are the genuinely hard recall cases.
                let intensity = scenario
                    .excited
                    .iter()
                    .find(|sp| sp.contains(clip))
                    .map(|sp| {
                        0.55 + 0.45
                            * ((hash64(scenario.config.seed ^ sp.start as u64) >> 11) as f64
                                / (1u64 << 53) as f64)
                    })
                    .unwrap_or(1.0);
                // Excited speech: higher pitch, louder, denser — but real
                // commentary is ambiguous clip to clip: calm speech has
                // emphasis syllables that sound excited, and excited
                // stretches contain breaths and calmer words. This overlap
                // is what makes per-clip (static BN) classification noisy
                // while temporal integration (DBN) survives.
                let confound = rng.gen_bool(0.15);
                let (f0, amp, len_ms, gap_ms) = match (excited, confound) {
                    (true, false) => {
                        let f0_hi = rng.gen_range(210.0..290.0);
                        let amp_hi = rng.gen_range(0.45..0.65);
                        let f0_lo = rng.gen_range(120.0..170.0);
                        let amp_lo = rng.gen_range(0.22..0.34);
                        (
                            f0_lo + (f0_hi - f0_lo) * intensity,
                            amp_lo + (amp_hi - amp_lo) * intensity,
                            rng.gen_range(120..200),
                            (20.0 + (1.0 - intensity) * 120.0) as usize + rng.gen_range(0..50),
                        )
                    }
                    (true, true) => (
                        // a breath or calmer word inside excitement
                        rng.gen_range(140.0..200.0),
                        rng.gen_range(0.25..0.40),
                        rng.gen_range(120..200),
                        rng.gen_range(60..160),
                    ),
                    (false, false) => (
                        rng.gen_range(100.0..150.0),
                        rng.gen_range(0.18..0.30),
                        rng.gen_range(120..220),
                        rng.gen_range(80..220),
                    ),
                    (false, true) => (
                        // an emphasis syllable in calm commentary
                        rng.gen_range(180.0..250.0),
                        rng.gen_range(0.38..0.55),
                        rng.gen_range(120..200),
                        rng.gen_range(60..160),
                    ),
                };
                let len = len_ms * SAMPLE_RATE / 1000;
                syllables.push(Syllable {
                    start_sample: s,
                    len: len.min(span_end.saturating_sub(s)),
                    f0,
                    amp,
                });
                s += len + gap_ms * SAMPLE_RATE / 1000;
            }
        }
        syllables.sort_by_key(|sy| sy.start_sample);
        let starts = syllables.iter().map(|sy| sy.start_sample).collect();

        // Close engine passes while the race is live: 2–8 s of screaming
        // car with a braking rumble whose fundamental sits inside the
        // 0–882 Hz speech band. These are the "complex mixtures of
        // frequencies" §5.2 complains about.
        let mut passes = Vec::new();
        let mut t = scenario.live.start * CLIP_SAMPLES + rng.gen_range(0..10 * SAMPLE_RATE);
        let live_end_sample = scenario.live.end * CLIP_SAMPLES;
        while t < live_end_sample {
            let len = rng.gen_range(2 * SAMPLE_RATE..8 * SAMPLE_RATE);
            passes.push(EnginePass {
                start_sample: t,
                len,
                rumble_hz: rng.gen_range(180.0..340.0),
            });
            t += len + rng.gen_range(15 * SAMPLE_RATE..40 * SAMPLE_RATE);
        }
        let event_clips = scenario
            .events
            .iter()
            .map(|e| (e.span.start, e.span.end))
            .collect();
        AudioSynth {
            syllables,
            starts,
            passes,
            live_start: scenario.live.start * CLIP_SAMPLES,
            live_end: scenario.live.end * CLIP_SAMPLES,
            event_clips,
            noise_seed: scenario.config.seed ^ 0xC0FFEE,
            n_samples: scenario.n_clips * CLIP_SAMPLES,
        }
    }

    /// Total number of samples in the broadcast.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Renders samples `start..start + len`, a clip's share at a time:
    /// whether an event is on, the crowd swell, and the engine passes that
    /// reach into the clip are looked up once per clip, the syllables
    /// under way are followed from sample to sample, and each sample is
    /// [`sample`](Self::sample).
    fn render(&self, start: usize, len: usize) -> Vec<f64> {
        let end = start + len;
        let mut out = Vec::with_capacity(len);
        let mut lo = start;
        // Syllables starting at or before the sample being rendered.
        let mut begun = self.starts.partition_point(|&s| s <= start);
        while lo < end {
            let clip = lo / CLIP_SAMPLES;
            let hi = ((clip + 1) * CLIP_SAMPLES).min(end);
            let busy = self.event_clips.iter().any(|&(s, e)| clip >= s && clip < e);
            // A swell window is a whole number of clips.
            let wave = lo / SWELL_PERIOD;
            let wave_on = hash64(self.noise_seed ^ 0xC0DD ^ wave as u64).is_multiple_of(3);
            // Passes are in time order and disjoint, so those overlapping
            // the clip are a run of them.
            let first = self
                .passes
                .partition_point(|p| p.start_sample + p.len <= lo);
            let last = self.passes.partition_point(|p| p.start_sample < hi);
            let passes = &self.passes[first..last];
            for n in lo..hi {
                while self.starts.get(begun).is_some_and(|&s| s <= n) {
                    begun += 1;
                }
                out.push(self.sample(n, busy, wave_on, passes, &self.syllables[..begun]));
            }
            lo = hi;
        }
        out
    }

    /// Sample `n`, given whether an event is on in its clip (`busy`),
    /// whether its crowd swell window is on, the engine passes that reach
    /// into its clip, and the syllables begun by it.
    fn sample(
        &self,
        n: usize,
        busy: bool,
        wave_on: bool,
        passes: &[EnginePass],
        begun: &[Syllable],
    ) -> f64 {
        let t = n as f64 / SAMPLE_RATE as f64;
        let mut x = 0.0;

        // Engine bed: high-revving partials well above the speech band —
        // the paper picks the 0–882 Hz band for speech analysis precisely
        // "because this bandwidth diminishes car noises".
        let live = n >= self.live_start && n < self.live_end;
        let engine_amp = if live { 0.06 } else { 0.02 };
        let saw = |f: f64| 2.0 * ((t * f).fract()) - 1.0;
        x += engine_amp * (0.55 * saw(1430.0) + 0.45 * saw(3090.0));

        // Crowd noise, raised around events, plus grandstand swells that
        // come and go on their own (hash-scheduled ~8 s waves every ~45 s).
        // Broadband noise like this is what defeats zero-crossing-rate and
        // entropy speech detectors while the band-limited STE survives.
        let mut crowd_amp: f64 = if busy { 0.12 } else { 0.02 };
        if wave_on {
            let off = (n % SWELL_PERIOD) as f64 / (8 * SAMPLE_RATE) as f64;
            if off < 1.0 {
                crowd_amp = crowd_amp.max(0.15 * (std::f64::consts::PI * off).sin());
            }
        }
        x += crowd_amp * noise(self.noise_seed, n as u64);

        // Close engine passes: a loud scream plus a braking rumble inside
        // the speech band. The rumble is *machine-steady* — constant pitch
        // and energy — which is exactly what separates it from syllabic
        // speech for the dynamic-range features.
        for p in passes {
            if n >= p.start_sample && n < p.start_sample + p.len {
                let off = (n - p.start_sample) as f64 / p.len as f64;
                let env = (std::f64::consts::PI * off).sin(); // swell in/out
                x += env * 0.16 * saw(p.rumble_hz);
                x += env * 0.22 * (0.6 * saw(1640.0) + 0.4 * saw(3320.0));
                break;
            }
        }

        // Commentary: the latest syllables that could still cover n.
        for sy in begun.iter().rev().take(2) {
            let off = n - sy.start_sample;
            if off >= sy.len {
                continue;
            }
            // Hann envelope over the syllable.
            let env = 0.5 - 0.5 * (std::f64::consts::TAU * off as f64 / sy.len.max(2) as f64).cos();
            let tt = off as f64 / SAMPLE_RATE as f64;
            let mut v = 0.0;
            for k in 1..=6u32 {
                v += (std::f64::consts::TAU * sy.f0 * k as f64 * tt).sin() / k as f64;
            }
            x += sy.amp * env * v * 0.5;
        }

        x.clamp(-1.0, 1.0)
    }

    /// Renders one 0.1 s clip (2 200 samples).
    pub fn clip(&self, clip_idx: usize) -> Vec<f64> {
        self.render(clip_idx * CLIP_SAMPLES, CLIP_SAMPLES)
    }

    /// Renders an arbitrary sample range (for cross-clip analyses).
    pub fn range(&self, start: usize, len: usize) -> Vec<f64> {
        self.render(start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::rms;
    use crate::synth::scenario::{RaceProfile, ScenarioConfig};

    fn synth() -> (RaceScenario, AudioSynth) {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 120));
        let audio = AudioSynth::new(&sc);
        (sc, audio)
    }

    use crate::synth::scenario::RaceScenario;

    #[test]
    fn clips_are_deterministic_and_sized() {
        let (_, a) = synth();
        let c1 = a.clip(42);
        let c2 = a.clip(42);
        assert_eq!(c1.len(), CLIP_SAMPLES);
        assert_eq!(c1, c2);
        // range() agrees with clip(), also across clip boundaries.
        let r = a.range(42 * CLIP_SAMPLES, CLIP_SAMPLES);
        assert_eq!(c1, r);
        let clips: Vec<f64> = (42..46).flat_map(|c| a.clip(c)).collect();
        let r = a.range(42 * CLIP_SAMPLES + 700, 3 * CLIP_SAMPLES);
        assert_eq!(r, clips[700..700 + 3 * CLIP_SAMPLES]);
    }

    #[test]
    fn samples_stay_in_range() {
        let (_, a) = synth();
        for idx in [0, 10, 100, 500] {
            assert!(a.clip(idx).iter().all(|&x| (-1.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn speech_clips_are_louder_than_silent_ones() {
        let (sc, a) = synth();
        let speech_clip = (0..sc.n_clips).find(|&c| sc.is_speech(c)).unwrap();
        let silent_clip = (0..sc.n_clips)
            .find(|&c| !sc.is_speech(c) && !sc.is_live(c))
            .unwrap();
        // Average several clips to smooth syllable gaps.
        let avg =
            |start: usize| -> f64 { (0..5).map(|k| rms(&a.clip(start + k))).sum::<f64>() / 5.0 };
        assert!(
            avg(speech_clip) > avg(silent_clip) * 1.2,
            "speech {} vs silence {}",
            avg(speech_clip),
            avg(silent_clip)
        );
    }

    #[test]
    fn excited_speech_is_louder_than_calm_speech() {
        let (sc, a) = synth();
        let excited: Vec<usize> = (0..sc.n_clips).filter(|&c| sc.is_excited(c)).collect();
        let calm: Vec<usize> = (0..sc.n_clips)
            .filter(|&c| sc.is_speech(c) && !sc.is_excited(c))
            .collect();
        assert!(!excited.is_empty() && !calm.is_empty());
        let mean_rms = |clips: &[usize]| -> f64 {
            clips.iter().map(|&c| rms(&a.clip(c))).sum::<f64>() / clips.len() as f64
        };
        assert!(
            mean_rms(&excited) > mean_rms(&calm) * 1.3,
            "excited {} vs calm {}",
            mean_rms(&excited),
            mean_rms(&calm)
        );
    }

    #[test]
    fn live_race_has_more_engine_noise_than_pre_race() {
        let (sc, a) = synth();
        // Find silent (no speech) clips pre-race and mid-race.
        let pre = (0..sc.live.start).find(|&c| !sc.is_speech(c));
        let mid = (sc.live.start..sc.live.end).find(|&c| !sc.is_speech(c));
        if let (Some(pre), Some(mid)) = (pre, mid) {
            assert!(rms(&a.clip(mid)) > rms(&a.clip(pre)));
        }
    }

    #[test]
    fn hash_noise_is_deterministic_and_bounded() {
        for n in 0..1000u64 {
            let v = noise(7, n);
            assert!((-1.0..1.0).contains(&v));
            assert_eq!(v, noise(7, n));
        }
        assert_ne!(noise(7, 3), noise(8, 3));
    }
}
