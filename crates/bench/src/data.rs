//! The races under evaluation: one shared VDBMS, each race ingested once.

use std::time::Instant;

use f1_bayes::metrics::Segment;
use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

/// Default broadcast duration for experiments, in seconds.
pub const DEFAULT_DURATION_S: usize = 600;

/// The VDBMS every paper table reads from, and the ground truth of each
/// race it ingested. The truth is for trainers (of the race trained on)
/// and scorers; nothing that produces a detection reads it.
pub struct Races {
    /// The shared system: races are videos named by their profile
    /// (`"german"`, `"belgian"`, `"usa"`), networks are installed nets.
    pub vdbms: Vdbms,
    scenarios: Vec<(&'static str, RaceScenario)>,
}

impl Races {
    /// Ingests a `duration_s` broadcast of each profile: keyword
    /// spotting, the f1…f17 feature layer, recognized captions.
    pub fn ingest(profiles: &[RaceProfile], duration_s: usize) -> Races {
        let vdbms = Vdbms::new();
        let scenarios = profiles
            .iter()
            .map(|&profile| {
                let t = Instant::now();
                let scenario = RaceScenario::generate(ScenarioConfig::new(profile, duration_s));
                vdbms
                    .ingest(profile.name(), &scenario)
                    .expect("ingesting a generated broadcast succeeds");
                eprintln!(
                    "ingested {} ({} clips) in {:.1}s",
                    profile.name(),
                    scenario.n_clips,
                    t.elapsed().as_secs_f64()
                );
                (profile.name(), scenario)
            })
            .collect();
        Races { vdbms, scenarios }
    }

    /// Ground truth of an ingested race.
    pub fn scenario(&self, video: &str) -> &RaceScenario {
        match self.scenarios.iter().find(|(name, _)| *name == video) {
            Some((_, scenario)) => scenario,
            None => panic!("race '{video}' was not ingested for this run"),
        }
    }

    /// The answer to a retrieval statement, as metric segments.
    pub fn retrieve(&self, video: &str, statement: &str) -> Vec<Segment> {
        let answer = self.vdbms.query(video, statement).expect("query runs");
        answer
            .iter()
            .map(|seg| Segment::new(seg.start, seg.end))
            .collect()
    }
}
