//! Excited-speech detection with the audio networks: the training
//! regime and the scoring shared by Table 1, Table 2, Fig. 9 and the
//! temporal/clustering experiments. Training, calibration and inference
//! themselves are the VDBMS's (`train_net`, `infer`).

use f1_bayes::em::EmConfig;
use f1_bayes::metrics::{precision_recall_strict, PrecisionRecall, Segment, Segmenter};
use f1_bayes::paper::{audio_bn, audio_dbn, BnStructure, TemporalVariant};
use f1_cobra::extensions::StoredNet;
use f1_cobra::{query_truth, TrainQuery};
use f1_media::synth::scenario::{RaceScenario, Span};

use crate::data::Races;

/// The paper's training regime: 300 s of audio evidence, split into
/// 12 × 25 s segments for DBNs.
pub const TRAIN_CLIPS: usize = 3000;
/// DBN training segment length (25 s).
pub const SEGMENT_CLIPS: usize = 250;

/// Post-processing parameters for excited-speech segment extraction.
const THETA: f64 = 0.5;
const MIN_LEN: usize = 30; // 3 s
const MERGE: usize = 10;
/// Minimum overlap fraction for the strict segment metric.
const OVERLAP_FRAC: f64 = 0.5;
/// The accumulation window applied to noisy static-BN traces (§5.5).
pub const BN_ACCUMULATE_WINDOW: usize = 15;

/// Excited-speech segments of an `EA` trace at level `theta`: a static
/// BN's noisy output is accumulated first, per the paper; a DBN's is
/// thresholded directly.
fn segments(trace: &[f64], is_static: bool, theta: f64) -> Vec<Segment> {
    let window = is_static.then_some(BN_ACCUMULATE_WINDOW);
    Segmenter::new(theta, MIN_LEN, MERGE, window).segments(trace)
}

/// Trains an audio network on the first 300 s of the German GP (EM with
/// `EA` clamped, mid-level nodes hidden; a DBN on 12 × 25 s segments)
/// and installs it as `name`. The paper accumulates BN outputs "to make
/// a conclusion" without fixing a threshold; the level stored with the
/// net is the strict-metric F1-best one on that training prefix.
pub fn train_audio(
    races: &Races,
    name: &str,
    structure: BnStructure,
    variant: Option<TemporalVariant>,
) {
    let scenario = races.scenario("german");
    let n = TRAIN_CLIPS.min(scenario.n_clips);
    let (net, spans) = match variant {
        None => (audio_bn(structure), vec![Span::new(0, n)]),
        Some(variant) => (
            audio_dbn(structure, variant),
            (0..n / SEGMENT_CLIPS)
                .map(|k| Span::new(k * SEGMENT_CLIPS, (k + 1) * SEGMENT_CLIPS))
                .collect(),
        ),
    };
    let net = net.expect("paper structures build");
    let mut truth = query_truth(scenario, "EA");
    truth.retain(|s| s.start < n);
    let score = |trace: &[f64], theta: f64| {
        let segs = segments(&trace[..n], variant.is_none(), theta);
        precision_recall_strict(&segs, &truth, OVERLAP_FRAC).f1()
    };
    let query = TrainQuery::new(scenario, "EA", net.query, Some(&score));
    let em = EmConfig {
        max_iters: 8,
        tol: 1e-3,
        pseudocount: 0.1,
    };
    (races.vdbms)
        .train_net(name, "german", net, &[query], &spans, &em)
        .expect("EM on extracted evidence succeeds");
}

/// Strict precision/recall of an `EA` trace against a race's excited
/// speech, at the level stored with the network that produced it.
pub fn precision_recall(
    trace: &[f64],
    stored: &StoredNet,
    scenario: &RaceScenario,
) -> PrecisionRecall {
    let segs = segments(trace, stored.net.dbn.is_static(), stored.thresholds["EA"]);
    precision_recall_strict(&segs, &query_truth(scenario, "EA"), OVERLAP_FRAC)
}

/// [`precision_recall`] of an installed network's inferred `EA` trace
/// over a race.
pub fn evaluate(races: &Races, video: &str, net: &str) -> PrecisionRecall {
    let stored = races.vdbms.net(net).expect("network was trained");
    let traces = races.vdbms.infer(video, net).expect("inference runs");
    precision_recall(&traces["EA"], &stored, races.scenario(video))
}

/// Clip-level classification errors of a thresholded trace against the
/// excited ground truth — the "misclassified sequences" statistic of the
/// clustering experiment.
pub fn clip_errors(trace: &[f64], scenario: &RaceScenario) -> usize {
    trace
        .iter()
        .enumerate()
        .filter(|(t, &p)| (p >= THETA) != scenario.is_excited(*t))
        .count()
}
