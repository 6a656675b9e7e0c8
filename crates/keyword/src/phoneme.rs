//! The synthetic phoneme stream of the commentary.
//!
//! Letters stand in for phones: each keyword utterance spells its letters
//! into consecutive phoneme slots, surrounded by babble (the announcer's
//! other words) and silence. Each slot also carries the broadcast noise
//! level at that moment — high while engines scream — which is what
//! degrades a fragile acoustic model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use f1_media::synth::scenario::RaceScenario;

/// Phoneme slots per 0.1 s clip.
pub const SLOTS_PER_CLIP: usize = 5;

/// The commentary as a phoneme stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PhonemeStream {
    /// One entry per slot: the true phone, `None` during silence.
    pub slots: Vec<Option<char>>,
    /// Broadcast noise level per slot in `[0, 1]`.
    pub noise: Vec<f64>,
}

impl PhonemeStream {
    /// Generates the stream for a scenario's commentary.
    pub fn from_scenario(scenario: &RaceScenario) -> Self {
        let n_slots = scenario.n_clips * SLOTS_PER_CLIP;
        let mut rng = StdRng::seed_from_u64(scenario.config.seed ^ 0x0F0E);
        let mut slots: Vec<Option<char>> = vec![None; n_slots];
        let mut noise = vec![0.0f64; n_slots];

        // Babble during speech spans.
        for span in &scenario.speech {
            for clip in span.start..span.end {
                for k in 0..SLOTS_PER_CLIP {
                    let slot = clip * SLOTS_PER_CLIP + k;
                    if slot < n_slots && rng.gen_bool(0.8) {
                        slots[slot] = Some((b'A' + rng.gen_range(0..26)) as char);
                    }
                }
            }
        }
        // Keywords spell their letters from their hit clip onwards. Two
        // utterances cannot overlap in time, so a hit whose slots are
        // already claimed by an earlier keyword is skipped.
        let mut claimed: Vec<(usize, usize)> = Vec::new();
        for hit in &scenario.keywords {
            let start = hit.clip * SLOTS_PER_CLIP;
            let end = start + hit.word.chars().count();
            if claimed.iter().any(|&(s, e)| s < end && start < e) {
                continue;
            }
            claimed.push((start, end));
            for (i, c) in hit.word.chars().enumerate() {
                let slot = start + i;
                if slot < n_slots {
                    slots[slot] = Some(c.to_ascii_uppercase());
                }
            }
        }
        // Noise: engines while the race is live, extra around events.
        for clip in 0..scenario.n_clips {
            let mut level: f64 = if scenario.is_live(clip) { 0.65 } else { 0.15 };
            if scenario.event_at(clip).is_some() {
                level += 0.2;
            }
            for k in 0..SLOTS_PER_CLIP {
                let slot = clip * SLOTS_PER_CLIP + k;
                if slot < n_slots {
                    noise[slot] = (level + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
                }
            }
        }
        PhonemeStream { slots, noise }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Clip index of a slot.
    pub fn clip_of(&self, slot: usize) -> usize {
        slot / SLOTS_PER_CLIP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::synth::scenario::{RaceProfile, ScenarioConfig};

    fn stream() -> (RaceScenario, PhonemeStream) {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 120));
        let ps = PhonemeStream::from_scenario(&sc);
        (sc, ps)
    }

    #[test]
    fn stream_covers_the_broadcast() {
        let (sc, ps) = stream();
        assert_eq!(ps.len(), sc.n_clips * SLOTS_PER_CLIP);
        assert_eq!(ps.noise.len(), ps.len());
        assert_eq!(ps.clip_of(SLOTS_PER_CLIP * 7 + 3), 7);
    }

    #[test]
    fn keywords_are_spelled_at_their_clips() {
        let (sc, ps) = stream();
        let mut spelled = 0usize;
        for hit in &sc.keywords {
            let start = hit.clip * SLOTS_PER_CLIP;
            let ok = hit
                .word
                .chars()
                .enumerate()
                .all(|(i, c)| start + i >= ps.len() || ps.slots[start + i] == Some(c));
            if ok {
                spelled += 1;
            }
        }
        // Overlapping utterances are skipped; the vast majority spell.
        assert!(
            spelled * 10 >= sc.keywords.len() * 8,
            "{spelled}/{} keywords spelled",
            sc.keywords.len()
        );
    }

    #[test]
    fn silence_outside_speech() {
        let (sc, ps) = stream();
        let silent_clip = (0..sc.n_clips).find(|&c| !sc.is_speech(c)).unwrap();
        for k in 0..SLOTS_PER_CLIP {
            assert_eq!(ps.slots[silent_clip * SLOTS_PER_CLIP + k], None);
        }
    }

    #[test]
    fn noise_is_higher_while_live() {
        let (sc, ps) = stream();
        let live = sc.live.start + 10;
        let pre = 0;
        assert!(ps.noise[live * SLOTS_PER_CLIP] > ps.noise[pre * SLOTS_PER_CLIP] + 0.2);
        assert!(ps.noise.iter().all(|&n| (0.0..=1.0).contains(&n)));
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = stream();
        let (_, b) = stream();
        assert_eq!(a, b);
    }
}
