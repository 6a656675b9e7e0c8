//! The keyword spotter: FSA alignment over the observed phone stream.
//!
//! For every keyword and start position the word's acceptor is aligned
//! 1:1 against the observed phones; the spot score is the fraction of
//! matching phones. The spotter reports, per the paper, "the
//! non-normalized probability for each word … the starting time when the
//! word is recognized, as well as the duration of the recognized word",
//! and a normalization step turns spots into the f1 evidence column.

use crate::acoustic::AcousticModel;
use crate::grammar::Grammar;
use crate::phoneme::{PhonemeStream, SLOTS_PER_CLIP};

/// Spotter parameters.
#[derive(Debug, Clone)]
pub struct SpotterConfig {
    /// Minimum fraction of matching phones for a spot.
    pub min_score: f64,
    /// Suppression window: only the best spot per word within this many
    /// slots survives.
    pub suppress_slots: usize,
}

impl Default for SpotterConfig {
    fn default() -> Self {
        SpotterConfig {
            min_score: 0.75,
            suppress_slots: 2 * SLOTS_PER_CLIP,
        }
    }
}

/// One spotted keyword occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Spot {
    /// The keyword.
    pub word: String,
    /// Clip at which the word starts.
    pub clip: usize,
    /// Duration in clips (rounded up).
    pub duration_clips: usize,
    /// Non-normalized score: the number of matching phones.
    pub raw_score: f64,
    /// Normalized score in `[0, 1]` (fraction of matching phones).
    pub score: f64,
}

/// Runs the spotter: decodes the stream with `model`, aligns every
/// keyword at every start, keeps local maxima above the threshold.
pub fn spot(
    stream: &PhonemeStream,
    grammar: &Grammar,
    model: AcousticModel,
    cfg: &SpotterConfig,
) -> Vec<Spot> {
    let observed = model.decode(stream);
    let n = observed.len();
    let mut spots: Vec<Spot> = Vec::new();
    for fsa in grammar.words() {
        let len = fsa.phones.len();
        if len == 0 || len > n {
            continue;
        }
        let mut word_spots: Vec<(usize, f64)> = Vec::new();
        for start in 0..=n - len {
            let mut matches = 0usize;
            for (k, &p) in fsa.phones.iter().enumerate() {
                if observed[start + k] == Some(p) {
                    matches += 1;
                }
            }
            let score = matches as f64 / len as f64;
            if score >= cfg.min_score {
                word_spots.push((start, score));
            }
        }
        // Non-maximum suppression per word.
        word_spots.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut kept: Vec<(usize, f64)> = Vec::new();
        for (start, score) in word_spots {
            if kept
                .iter()
                .all(|&(s, _)| s.abs_diff(start) > cfg.suppress_slots)
            {
                kept.push((start, score));
            }
        }
        for (start, score) in kept {
            spots.push(Spot {
                word: fsa.word.clone(),
                clip: start / SLOTS_PER_CLIP,
                duration_clips: len.div_ceil(SLOTS_PER_CLIP),
                raw_score: score * len as f64,
                score,
            });
        }
    }
    spots.sort_by_key(|s| s.clip);
    spots
}

/// Normalization step: turns spots into the per-clip f1 evidence column.
/// Each spot spreads its score over its duration plus a one-clip halo.
pub fn keyword_feature(spots: &[Spot], n_clips: usize) -> Vec<f64> {
    let mut out = vec![0.05f64; n_clips];
    for s in spots {
        let lo = s.clip.saturating_sub(1);
        let hi = (s.clip + s.duration_clips + 1).min(n_clips);
        for v in out.iter_mut().take(hi).skip(lo) {
            *v = v.max(s.score);
        }
    }
    out
}

/// Spot-level precision/recall against ground-truth keyword hits: a spot
/// is correct when the same word was truly uttered within `tolerance`
/// clips.
pub fn evaluate(
    spots: &[Spot],
    truth: &[f1_media::synth::scenario::KeywordHit],
    tolerance: usize,
) -> (f64, f64) {
    if spots.is_empty() || truth.is_empty() {
        return (0.0, 0.0);
    }
    let correct = spots
        .iter()
        .filter(|s| {
            truth
                .iter()
                .any(|t| t.word == s.word && t.clip.abs_diff(s.clip) <= tolerance)
        })
        .count();
    let found = truth
        .iter()
        .filter(|t| {
            spots
                .iter()
                .any(|s| s.word == t.word && s.clip.abs_diff(t.clip) <= tolerance)
        })
        .count();
    (
        correct as f64 / spots.len() as f64,
        found as f64 / truth.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

    fn harness() -> (RaceScenario, PhonemeStream, Grammar) {
        let sc = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 300));
        let ps = PhonemeStream::from_scenario(&sc);
        (sc, ps, Grammar::formula1())
    }

    #[test]
    fn clean_stream_spots_exactly() {
        // A hand-built noiseless stream with one keyword.
        let mut slots = vec![None; 100];
        for (i, c) in "CRASH".chars().enumerate() {
            slots[40 + i] = Some(c);
        }
        let stream = PhonemeStream {
            noise: vec![0.0; slots.len()],
            slots,
        };
        let g = Grammar::new(&["CRASH", "LEADER"]).unwrap();
        let spots = spot(
            &stream,
            &g,
            AcousticModel::TvNews,
            &SpotterConfig::default(),
        );
        assert_eq!(spots.len(), 1);
        assert_eq!(spots[0].word, "CRASH");
        assert_eq!(spots[0].clip, 8); // slot 40 / 5
        assert_eq!(spots[0].duration_clips, 1);
        assert!(spots[0].score >= 0.75);
        assert!((spots[0].raw_score - spots[0].score * 5.0).abs() < 1e-12);
    }

    #[test]
    fn tv_news_model_beats_clean_speech_in_broadcast_noise() {
        let (sc, ps, g) = harness();
        let cfg = SpotterConfig::default();
        let tv = spot(&ps, &g, AcousticModel::TvNews, &cfg);
        let clean = spot(&ps, &g, AcousticModel::CleanSpeech, &cfg);
        let (tv_p, tv_r) = evaluate(&tv, &sc.keywords, 2);
        let (cl_p, cl_r) = evaluate(&clean, &sc.keywords, 2);
        // The paper: "the latter [TV news] showed better results".
        assert!(
            tv_r > cl_r,
            "tv recall {tv_r} should beat clean recall {cl_r}"
        );
        assert!(tv_r > 0.6, "tv recall {tv_r}");
        assert!(tv_p > 0.6, "tv precision {tv_p} (clean was {cl_p})");
    }

    #[test]
    fn suppression_keeps_one_spot_per_utterance() {
        // Repeated letters around the keyword cause near-duplicate hits;
        // suppression keeps the best.
        let mut slots = vec![Some('X'); 60];
        for (i, c) in "ATTACK".chars().enumerate() {
            slots[20 + i] = Some(c);
        }
        let stream = PhonemeStream {
            noise: vec![0.0; slots.len()],
            slots,
        };
        let g = Grammar::new(&["ATTACK"]).unwrap();
        let spots = spot(
            &stream,
            &g,
            AcousticModel::TvNews,
            &SpotterConfig::default(),
        );
        assert_eq!(spots.len(), 1);
    }

    #[test]
    fn keyword_feature_spreads_scores() {
        let spots = vec![Spot {
            word: "CRASH".into(),
            clip: 10,
            duration_clips: 1,
            raw_score: 5.0,
            score: 1.0,
        }];
        let f = keyword_feature(&spots, 20);
        assert_eq!(f.len(), 20);
        assert_eq!(f[9], 1.0);
        assert_eq!(f[10], 1.0);
        assert_eq!(f[11], 1.0);
        assert_eq!(f[5], 0.05);
        assert!(keyword_feature(&[], 5).iter().all(|&v| v == 0.05));
    }

    #[test]
    fn evaluate_handles_empty_inputs() {
        assert_eq!(evaluate(&[], &[], 2), (0.0, 0.0));
    }
}
