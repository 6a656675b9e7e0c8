//! Shared fixtures for the integration suites.
//!
//! Every suite drives the same synthetic German-profile broadcast; only
//! the duration differs (control-flow suites keep it short, accuracy
//! suites need a full race). Each test binary compiles its own copy, so
//! unused helpers are expected.
#![allow(dead_code)]

pub mod shard;

use f1_cobra::Vdbms;

use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig, Span};
use f1_media::time::clips_per_second;

/// A German-profile broadcast of `seconds` seconds.
pub fn german_scenario(seconds: usize) -> RaceScenario {
    RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, seconds))
}

/// `count` evenly spaced training windows of `window_secs` seconds, as
/// in §5.5, clipped to the broadcast.
pub fn training_windows(sc: &RaceScenario, count: usize, window_secs: usize) -> Vec<Span> {
    let cps = clips_per_second();
    (0..count)
        .map(|k| {
            let start = k * sc.n_clips / (count + 1);
            Span::new(start, (start + window_secs * cps).min(sc.n_clips))
        })
        .filter(|w| !w.is_empty())
        .collect()
}

/// The result cache's gauges equal what its resident entries count
/// (`cache.result.entries` and `cache.result.bytes`), read once, without
/// waiting, at a quiescent end: when every thread that used `vdbms` has
/// joined.
pub fn assert_results_at_rest(vdbms: &Vdbms) {
    let snapshot = vdbms.kernel().metrics().registry().snapshot();
    for (gauge, resident) in vdbms.results_at_rest() {
        assert_eq!(snapshot.gauge(gauge, &[]), resident, "{gauge} at rest");
    }
}
