//! Annotation: features in, events out.
//!
//! The DBN extension turns the feature layer into the event layer, by
//! one protocol: train a network on labelled spans of a video and fit
//! its decision levels there ([`Vdbms::train_net`]), filter it over any
//! video, segment the posteriors and attribute sub-events as the rows
//! arrive ([`Annotator`]), store what was found ([`Vdbms::annotate`]).
//! The rule extension derives user-defined compound events from events
//! already there (§5.5, §5.6).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use cobra_faults::Recover;
use f1_bayes::em::{train_with_faults, EmConfig};
use f1_bayes::engine::{BkState, Engine};
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::metrics::{
    best_threshold, clipwise_precision_recall, precision_recall, Segment, Segmenter,
};
use f1_bayes::paper::{audio_visual_dbn, PaperNet};
use f1_bayes::slice::NodeId;
use f1_bayes::BayesError;
use f1_media::synth::scenario::{EventKind, RaceScenario, Span};
use f1_rules::{Engine as RuleEngine, Fact, Interval, Rule, Value};

use crate::catalog::{load_feature_rows, EventRecord};
use crate::extensions::{query_traces, step_rows, StoredNet};
use crate::session::Vdbms;
use crate::{CobraError, Result};

/// What annotation derived.
#[derive(Debug, Clone, PartialEq)]
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

/// The segments that reach into one of `windows`.
fn within(mut segments: Vec<Segment>, windows: &[Span]) -> Vec<Segment> {
    segments.retain(|s| windows.iter().any(|w| s.start < w.end && w.start < s.end));
    segments
}

/// The query nodes annotation reads, in [`Annotator`] slot order.
const QUERIES: [&str; 5] = ["HL", "EA", "ST", "FO", "PS"];
/// The sub-event kinds of the `ST` / `FO` / `PS` slots.
const SUB_EVENTS: [&str; 3] = ["start", "fly_out", "passing"];

fn derived(kind: &str, s: Segment) -> EventRecord {
    EventRecord {
        kind: kind.to_string(),
        start: s.start,
        end: s.end,
        driver: None,
    }
}

/// The event layer a network's posteriors imply, derived as feature rows
/// arrive: the one segmentation and attribution every annotated video
/// gets, whether its rows come in one push or a chunk at a time. Owns its
/// filter, segmenters and recent posteriors; borrows nothing.
///
/// - Highlights are the `HL` segments: a 1 s trailing mean, runs up to
///   3 s apart merged, 6 s minimum.
/// - A highlight longer than 150 clips (15 s) is split into 50-clip (5 s)
///   windows from its start; a tail shorter than 5 s after the last full
///   window is never examined. A shorter highlight is one window. Each
///   window is attributed to the most probable of `ST` / `FO` / `PS` by
///   peak posterior over the window, when the peak exceeds 0.3; of
///   candidates tied at the peak the last in that order wins (§5.5).
/// - Excited speech is `EA` at the stored level + 0.15 (at most 0.9),
///   4 s minimum, 2 s merge gap: retrieval prefers clean answers over
///   exhaustive ones.
///
/// Levels are the ones stored with the network, 0.5 where it stores none.
/// A query the network lacks yields no events of its kind.
pub struct Annotator {
    state: BkState,
    features: Vec<NodeId>,
    /// The node of each [`QUERIES`] slot; its posterior reads NaN, which
    /// no level admits, where the net lacks the query.
    nodes: [Option<NodeId>; 5],
    highlights: Segmenter,
    excited: Segmenter,
    /// `ST` / `FO` / `PS` posteriors from clip `first` on: since the
    /// earliest clip an open highlight can start at.
    recent: VecDeque<[f64; 3]>,
    first: usize,
    /// Nanoseconds spent so far stepping the filter (`[0]`) and feeding
    /// the segmenters (`[1]`): `annotate.stage_ns`' two stages.
    pub(crate) stage_ns: [u64; 2],
}

impl Annotator {
    /// The `HL` cut at level `theta`: a 1 s trailing mean bridges
    /// sub-second dips, runs up to 3 s apart merge, 6 s minimum duration
    /// as in Table 3.
    pub(crate) fn highlights(theta: f64) -> Segmenter {
        Segmenter::new(theta, 60, 30, Some(10))
    }

    /// An annotator for `stored` before its first row.
    pub fn new(stored: &StoredNet) -> Result<Self> {
        let theta = |query| stored.thresholds.get(query).copied().unwrap_or(0.5);
        let node = |query: &str| stored.queries.iter().find(|(q, _)| q == query);
        Ok(Annotator {
            state: Engine::new(&stored.net.dbn)?.stepper(None)?,
            features: stored.net.feature_nodes.clone(),
            nodes: QUERIES.map(|query| node(query).map(|&(_, n)| n)),
            highlights: Annotator::highlights(theta("HL")),
            excited: Segmenter::new((theta("EA") + 0.15).min(0.9), 40, 20, None),
            recent: VecDeque::new(),
            first: 0,
            stage_ns: [0; 2],
        })
    }

    /// Absorbs the next feature rows of the video, in order, and returns
    /// the events whose segment closed in them: each kind in start order.
    pub fn push(&mut self, rows: &[Vec<f64>]) -> Result<Vec<EventRecord>> {
        let t = Instant::now();
        let mut clips: Vec<[f64; 5]> = Vec::with_capacity(rows.len());
        step_rows(&mut self.state, &self.features, &self.nodes, rows, |p| {
            clips.push(std::array::from_fn(|slot| p[slot]))
        })?;
        self.stage_ns[0] += t.elapsed().as_nanos() as u64;
        let (t, mut events) = (Instant::now(), Vec::new());
        for &[hl, ea, st, fo, ps] in &clips {
            self.recent.push_back([st, fo, ps]);
            if let Some(seg) = self.highlights.push(hl) {
                self.attribute(seg, &mut events);
            }
            events.extend(self.excited.push(ea).map(|s| derived("excited", s)));
            let keep = self.highlights.open_start();
            self.recent.drain(..keep - self.first);
            self.first = keep;
        }
        self.stage_ns[1] += t.elapsed().as_nanos() as u64;
        Ok(events)
    }

    /// Closes the open tails: the last events of the video. Errs with
    /// [`BayesError::EmptySequence`] when no row was pushed, so that
    /// nothing is committed for a video without features.
    pub fn finish(mut self) -> Result<Vec<EventRecord>> {
        if self.state.slices() == 0 {
            return Err(BayesError::EmptySequence.into());
        }
        let mut events = Vec::new();
        if let Some(seg) = self.highlights.finish() {
            self.attribute(seg, &mut events);
        }
        events.extend(self.excited.finish().map(|s| derived("excited", s)));
        Ok(events)
    }

    /// The highlight `seg` and its sub-events.
    fn attribute(&self, seg: Segment, events: &mut Vec<EventRecord>) {
        events.push(derived("highlight", seg));
        let windows: Vec<Segment> = if seg.len() > 150 {
            (seg.start..=seg.end - 50)
                .step_by(50)
                .map(|s| Segment::new(s, s + 50))
                .collect()
        } else {
            vec![seg]
        };
        for w in windows {
            let clips = self.recent.range(w.start - self.first..w.end - self.first);
            let best = (0..3)
                .filter(|&k| self.nodes[2 + k].is_some())
                .map(|k| (k, clips.clone().map(|c| c[k]).fold(f64::MIN, f64::max)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((k, _)) = best.filter(|&(_, peak)| peak > 0.3) {
                events.push(derived(SUB_EVENTS[k], w));
            }
        }
    }
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
        let scored: Vec<_> = queries.iter().filter_map(|q| Some((q, q.score?))).collect();
        let nodes: Vec<NodeId> = scored.iter().map(|(q, _)| q.node).collect();
        let traces = query_traces(&self.kernel, video, &net, &nodes)?;
        let thresholds = (scored.iter().zip(&traces))
            .map(|((q, score), trace)| {
                let level = best_threshold(|theta| score(trace, theta));
                (q.name.to_string(), level)
            })
            .collect();
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
    /// segments `Annotator::highlights` will cut, the excited-announcer
    /// level the clip-level F1-best one — both scored inside the training
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
            let cut = Annotator::highlights(theta).segments(trace);
            precision_recall(&within(cut, windows), &hl_truth).f1()
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
        self.nets.write().recover().insert(name.to_string(), stored);
    }

    /// The network installed under `name`, with its stored levels.
    pub fn net(&self, name: &str) -> Option<StoredNet> {
        self.nets.read().recover().get(name).cloned()
    }

    /// Every stored query's posterior under the installed `net` over
    /// the committed rows of a video, by query name: one
    /// `query_traces` pass, as the kernel's `dbnInfer` takes one
    /// query's.
    pub fn infer(&self, video: &str, net: &str) -> Result<HashMap<String, Vec<f64>>> {
        let stored = self.trained(video, net)?;
        let nodes: Vec<NodeId> = stored.queries.iter().map(|&(_, node)| node).collect();
        let traces = query_traces(&self.kernel, video, &stored.net, &nodes)?;
        let names = stored.queries.into_iter().map(|(query, _)| query);
        Ok(names.zip(traces).collect())
    }

    fn trained(&self, video: &str, net: &str) -> Result<StoredNet> {
        self.net(net).ok_or_else(|| CobraError::MissingMetadata {
            video: video.to_string(),
            what: format!("no trained network '{net}'"),
        })
    }

    /// Runs DBN annotation with the network installed as `net`: every
    /// committed feature row in one [`Annotator`] push, its `finish`,
    /// and one event-layer commit that replaces the video's previously
    /// derived events and keeps the rest (caption metadata). The rows
    /// are committed highlights first, then sub-events, then excited
    /// speech, each in start order.
    pub fn annotate(&self, video: &str, net: &str) -> Result<AnnotateReport> {
        let registry = Arc::clone(self.kernel.metrics().registry());
        registry.counter("annotate.runs", &[]).inc();
        let t = Instant::now();
        let stored = self.trained(video, net)?;
        let rows = load_feature_rows(&self.kernel, video, stored.net.feature_nodes.len())?;
        let mut annotator = Annotator::new(&stored)?;
        let load_ns = t.elapsed().as_nanos() as u64;
        let mut records = annotator.push(&rows)?;
        let [inference, segmentation] = annotator.stage_ns;
        let t = Instant::now();
        records.extend(annotator.finish()?);
        records.sort_by_key(|r| (r.kind != "highlight") as u8 + (r.kind == "excited") as u8);
        const DERIVED: [&str; 5] = ["highlight", "start", "fly_out", "passing", "excited"];
        self.catalog.replace_events(video, &DERIVED, &records)?;
        let stage = |stage, ns| {
            let labels = [("stage", stage)];
            registry.histogram("annotate.stage_ns", &labels).record(ns);
        };
        stage("inference", load_ns + inference);
        stage("segmentation", segmentation + t.elapsed().as_nanos() as u64);
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
                Ok(Fact::new(
                    e.kind.trim_start_matches("caption:"),
                    vec![Value::str(e.driver.unwrap_or_default())],
                    Interval::try_new(e.start, e.end)?,
                ))
            })
            .collect::<Result<_>>()?;
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
