//! Annotation: features in, events out.
//!
//! The DBN extension turns the feature layer into the event layer, by
//! one protocol: train a network on labelled spans of a video and fit
//! its decision levels there ([`Vdbms::train_net`]), filter it over any
//! video, segment the posteriors and attribute sub-events
//! ([`derive_events`]), store what was found ([`Vdbms::annotate`]). The
//! rule extension derives user-defined compound events from events
//! already there (§5.5, §5.6).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use f1_bayes::em::{train_with_faults, EmConfig};
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::metrics::{
    accumulate, best_threshold, clipwise_precision_recall, precision_recall, threshold_segments,
    Segment,
};
use f1_bayes::paper::{audio_visual_dbn, PaperNet};
use f1_bayes::slice::NodeId;
use f1_media::synth::scenario::{EventKind, RaceScenario, Span};
use f1_rules::{Engine as RuleEngine, Fact, Interval, Rule, Value};

use crate::catalog::EventRecord;
use crate::extensions::{posterior, StoredNet};
use crate::session::Vdbms;
use crate::{CobraError, Result};

/// What annotation derived.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnnotateReport {
    /// Highlight segments stored.
    pub n_highlights: usize,
    /// Sub-events classified (start/fly-out/passing).
    pub n_sub_events: usize,
    /// Excited-speech segments stored.
    pub n_excited: usize,
}

/// §5.5's training regime: six sequences of 50 s each, spaced a seventh
/// of the broadcast apart so they cover the start, some events and quiet
/// stretches, and clipped to the broadcast.
pub fn training_windows(n_clips: usize) -> Vec<Span> {
    let window = 50 * f1_media::time::clips_per_second();
    (0..6)
        .map(|k| k * n_clips / 7)
        .map(|start| Span::new(start, (start + window).min(n_clips)))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Ground truth of a query node over a whole broadcast, by the node's
/// name in the paper's networks: highlights, excited announcer, start,
/// fly-out, passing. The one place a node name meets the scenario — the
/// EM clamp, the calibration labels and every scorer read it.
pub fn query_truth(scenario: &RaceScenario, query: &str) -> Vec<Segment> {
    let spans = match query {
        "HL" => scenario.highlights(),
        "EA" => scenario.excited.clone(),
        "ST" => scenario.events_of(EventKind::Start),
        "FO" => scenario.events_of(EventKind::FlyOut),
        "PS" => scenario.events_of(EventKind::Passing),
        _ => Vec::new(),
    };
    spans.iter().map(|s| Segment::new(s.start, s.end)).collect()
}

/// Rates a decision level (second argument) for a query node's posterior
/// over the whole training video (first argument); higher is better.
pub type LevelScore<'a> = &'a dyn Fn(&[f64], f64) -> f64;

/// One query node of a network under training.
pub struct TrainQuery<'a> {
    /// The name the node is stored and queried under.
    pub name: &'a str,
    /// The node.
    pub node: NodeId,
    /// Its truth on the training video; EM runs with the node clamped
    /// to it (partially supervised, mid-level semantics hidden).
    pub truth: Vec<Segment>,
    /// The best-rated level on the grid is stored with the network;
    /// `None` stores no level.
    pub score: Option<LevelScore<'a>>,
}

impl<'a> TrainQuery<'a> {
    /// The node named `name`, with its [`query_truth`] on the training
    /// video's scenario.
    pub fn new(
        scenario: &RaceScenario,
        name: &'a str,
        node: NodeId,
        score: Option<LevelScore<'a>>,
    ) -> Self {
        TrainQuery {
            name,
            node,
            truth: query_truth(scenario, name),
            score,
        }
    }
}

/// Highlight segments of an `HL` posterior at level `theta`: a 1 s
/// trailing mean bridges sub-second dips, runs up to 3 s apart merge,
/// 6 s minimum duration as in Table 3.
fn highlight_segments(hl: &[f64], theta: f64) -> Vec<Segment> {
    threshold_segments(&accumulate(hl, 10), theta, 60, 30)
}

/// The segments that reach into one of `windows`.
fn within(mut segments: Vec<Segment>, windows: &[Span]) -> Vec<Segment> {
    segments.retain(|s| windows.iter().any(|w| s.start < w.end && w.start < s.end));
    segments
}

/// The event layer a network's posteriors imply: the one segmentation
/// and attribution every annotated video gets. `traces` are whole-video
/// posteriors by query name, `thresholds` the levels stored with the
/// network (0.5 where it stores none).
///
/// Highlights are the `HL` segments. Sub-events are the most probable of
/// `ST` / `FO` / `PS` by peak posterior inside each highlight, when the
/// peak clears 0.3 — re-evaluated every 5 s in highlights over 15 s
/// (§5.5). Excited speech is `EA` above a precision-weighted level,
/// 4 s minimum (retrieval prefers clean answers over exhaustive ones).
pub fn derive_events(
    traces: &HashMap<String, Vec<f64>>,
    thresholds: &HashMap<String, f64>,
) -> Vec<EventRecord> {
    let theta = |query| thresholds.get(query).copied().unwrap_or(0.5);
    let trace = |query| traces.get(query).map_or(&[][..], Vec::as_slice);
    let derived = |kind: &str, s: &Segment| EventRecord {
        kind: kind.to_string(),
        start: s.start,
        end: s.end,
        driver: None,
    };
    let highlights = highlight_segments(trace("HL"), theta("HL"));
    let mut records: Vec<EventRecord> =
        highlights.iter().map(|h| derived("highlight", h)).collect();
    let candidates = [("start", "ST"), ("fly_out", "FO"), ("passing", "PS")];
    for seg in &highlights {
        let windows: Vec<Segment> = if seg.len() > 150 {
            (seg.start..=seg.end - 50)
                .step_by(50)
                .map(|s| Segment::new(s, s + 50))
                .collect()
        } else {
            vec![*seg]
        };
        for w in &windows {
            let best = candidates
                .iter()
                .filter_map(|&(kind, query)| {
                    let tr = traces.get(query)?;
                    let peak = tr[w.start..w.end].iter().cloned().fold(f64::MIN, f64::max);
                    Some((kind, peak))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((kind, _)) = best.filter(|&(_, peak)| peak > 0.3) {
                records.push(derived(kind, w));
            }
        }
    }
    let excited = threshold_segments(trace("EA"), (theta("EA") + 0.15).min(0.9), 40, 20);
    records.extend(excited.iter().map(|x| derived("excited", x)));
    records
}

impl Vdbms {
    /// Trains `net` on labelled `spans` of an ingested video — EM with
    /// the query nodes clamped to their truth — and fits each scored
    /// query's decision level once, here: on the trained network
    /// filtered over the whole training video, as [`annotate`] filters
    /// any video. Installs the result as `name`.
    ///
    /// [`annotate`]: Vdbms::annotate
    pub fn train_net(
        &self,
        name: &str,
        video: &str,
        mut net: PaperNet,
        queries: &[TrainQuery<'_>],
        spans: &[Span],
        em: &EmConfig,
    ) -> Result<()> {
        let matrix = self.catalog.load_features(video, net.feature_nodes.len())?;
        let sequences: Vec<EvidenceSeq> = spans
            .iter()
            .map(|w| {
                let hi = w.end.min(matrix.len());
                let lo = w.start.min(hi);
                let mut seq = EvidenceSeq::from_matrix(&net.feature_nodes, &matrix[lo..hi]);
                for (t, clip) in (lo..hi).enumerate() {
                    for q in queries {
                        let holds = q.truth.iter().any(|s| s.start <= clip && clip < s.end);
                        seq.set(t, q.node, Obs::Hard(holds as usize));
                    }
                }
                seq
            })
            .collect();
        train_with_faults(&mut net.dbn, &sequences, em, self.faults())?;
        let post = posterior(&self.kernel, video, &net)?;
        let mut thresholds = HashMap::new();
        for q in queries {
            if let Some(score) = q.score {
                let trace = post.trace(q.node, 1)?;
                let level = best_threshold(|theta| score(&trace, theta));
                thresholds.insert(q.name.to_string(), level);
            }
        }
        let queries = queries
            .iter()
            .map(|q| (q.name.to_string(), q.node))
            .collect();
        self.install_net(
            name,
            StoredNet {
                net,
                queries,
                thresholds,
            },
        );
        Ok(())
    }

    /// Trains the audio-visual highlight DBN (§5.5: EM, four iterations)
    /// on labelled windows of an ingested video and installs it as
    /// `"av"`. The highlight level is the F1-best one for exactly the
    /// segments [`derive_events`] will cut, the excited-announcer level
    /// the clip-level F1-best one — both scored inside the training
    /// windows only.
    pub fn train_highlight_net(
        &self,
        video: &str,
        scenario: &RaceScenario,
        windows: &[Span],
        with_passing: bool,
    ) -> Result<()> {
        let (net, nodes) = audio_visual_dbn(with_passing)?;
        let hl_truth = within(query_truth(scenario, "HL"), windows);
        let hl_score = |trace: &[f64], theta: f64| {
            precision_recall(
                &within(highlight_segments(trace, theta), windows),
                &hl_truth,
            )
            .f1()
        };
        let ea_score = |trace: &[f64], theta: f64| {
            let (detected, truth): (Vec<bool>, Vec<bool>) = (0..trace.len())
                .filter(|&clip| windows.iter().any(|w| w.contains(clip)))
                .map(|clip| (trace[clip] >= theta, scenario.is_excited(clip)))
                .unzip();
            clipwise_precision_recall(&detected, &truth).f1()
        };
        let mut queries = vec![
            TrainQuery::new(scenario, "HL", nodes.highlight, Some(&hl_score)),
            TrainQuery::new(scenario, "EA", nodes.excited, Some(&ea_score)),
            TrainQuery::new(scenario, "ST", nodes.start, None),
            TrainQuery::new(scenario, "FO", nodes.fly_out, None),
        ];
        queries.extend(
            nodes
                .passing
                .map(|ps| TrainQuery::new(scenario, "PS", ps, None)),
        );
        let em = EmConfig {
            max_iters: 4,
            tol: 1e-3,
            pseudocount: 0.2,
        };
        self.train_net("av", video, net, &queries, windows, &em)
    }

    /// Installs an externally trained network under a name.
    pub fn install_net(&self, name: &str, stored: StoredNet) {
        self.nets.write().insert(name.to_string(), stored);
    }

    /// The network installed under `name`, with its stored levels.
    pub fn net(&self, name: &str) -> Option<StoredNet> {
        self.nets.read().get(name).cloned()
    }

    /// Every stored query's posterior under the installed `net` over
    /// the committed rows of a video, by query name: one [`posterior`]
    /// pass, the same one the kernel's `dbnInfer` picks a trace from.
    pub fn infer(&self, video: &str, net: &str) -> Result<HashMap<String, Vec<f64>>> {
        self.trained(video, net)?.infer(&self.kernel, video)
    }

    fn trained(&self, video: &str, net: &str) -> Result<StoredNet> {
        self.net(net).ok_or_else(|| CobraError::MissingMetadata {
            video: video.to_string(),
            what: format!("no trained network '{net}'"),
        })
    }

    /// Runs DBN annotation with the network installed as `net`: one
    /// filter pass for every query node's posterior, [`derive_events`],
    /// and one event-layer commit that replaces the video's previously
    /// derived events and keeps the rest (caption metadata).
    pub fn annotate(&self, video: &str, net: &str) -> Result<AnnotateReport> {
        let registry = Arc::clone(self.kernel.metrics().registry());
        registry.counter("annotate.runs", &[]).inc();
        let t = Instant::now();
        let stored = self.trained(video, net)?;
        let traces = stored.infer(&self.kernel, video)?;
        registry
            .histogram("annotate.stage_ns", &[("stage", "inference")])
            .record(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        const DERIVED: [&str; 5] = ["highlight", "start", "fly_out", "passing", "excited"];
        let records = derive_events(&traces, &stored.thresholds);
        self.catalog.replace_events(video, &DERIVED, &records)?;
        registry
            .histogram("annotate.stage_ns", &[("stage", "segmentation")])
            .record(t.elapsed().as_nanos() as u64);
        let count = |kinds: &[&str]| {
            records
                .iter()
                .filter(|r| kinds.contains(&r.kind.as_str()))
                .count()
        };
        Ok(AnnotateReport {
            n_highlights: count(&["highlight"]),
            n_sub_events: count(&["start", "fly_out", "passing"]),
            n_excited: count(&["excited"]),
        })
    }

    /// §5.6: "a user can define new compound events by specifying
    /// different temporal relationships among already defined events. He
    /// can also update meta-data through the interface by adding a newly
    /// defined event, which will speed up the future retrieval of this
    /// event." Runs `rule` over the video's event layer; derived facts
    /// are stored back as events under the rule's head predicate (query
    /// them with `RETRIEVE EVENTS <head>`). Returns how many events were
    /// added.
    ///
    /// Rule conditions match event kinds as predicates with one variable
    /// or constant argument: the driver (events without a driver bind the
    /// empty string).
    pub fn define_compound_event(&self, video: &str, rule: Rule) -> Result<usize> {
        let head = rule.head.clone();
        let mut engine = RuleEngine::new();
        engine.add_rule(rule)?;
        let facts: Vec<Fact> = self
            .catalog
            .events(video, None)?
            .into_iter()
            .map(|e| {
                Fact::new(
                    e.kind.trim_start_matches("caption:"),
                    vec![Value::str(e.driver.unwrap_or_default())],
                    Interval::new(e.start, e.end),
                )
            })
            .collect();
        let derived = engine.run(facts)?;
        let records: Vec<EventRecord> = derived
            .iter()
            .filter(|f| f.predicate == head)
            .map(|f| {
                let driver = f.args.first().and_then(|v| match v {
                    Value::Str(s) if !s.is_empty() => Some(s.clone()),
                    _ => None,
                });
                EventRecord {
                    kind: head.clone(),
                    start: f.interval.start,
                    end: f.interval.end,
                    driver,
                }
            })
            .collect();
        self.catalog.store_events(video, &records)?;
        Ok(records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_windows_cover_six_50s_sequences() {
        let w = training_windows(6000);
        assert_eq!(w.len(), 6);
        for span in &w {
            assert_eq!(span.len(), 500);
            assert!(span.end <= 6000);
        }
        // Ordered, a seventh of the race apart.
        for pair in w.windows(2) {
            assert!(pair[0].start < pair[1].start);
            assert!(pair[0].end <= pair[1].start + 500);
        }
    }

    #[test]
    fn training_windows_clamp_to_short_races() {
        let w = training_windows(900);
        assert!(!w.is_empty());
        for span in &w {
            assert!(span.start < span.end && span.end <= 900);
        }
    }
}
