//! Shared helpers for the crate's unit tests.

use crate::synth::audio::AudioSynth;
use crate::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

/// A short German-profile broadcast with its audio renderer.
pub fn german_broadcast(seconds: usize) -> (RaceScenario, AudioSynth) {
    let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, seconds));
    let audio = AudioSynth::new(&sc);
    (sc, audio)
}

/// FNV-1a folded over 64-bit words: the digest behind the tests that pin
/// extracted matrices and rendered frames bit for bit.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
