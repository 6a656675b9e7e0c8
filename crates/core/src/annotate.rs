//! Annotation: features in, events out.
//!
//! The DBN extension turns the feature layer into the event layer —
//! train the audio-visual highlight network, run it over a video, and
//! store what it found — and the rule extension derives user-defined
//! compound events from events already there (§5.5, §5.6).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use f1_bayes::em::{train_with_faults, EmConfig};
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::metrics::threshold_segments;
use f1_bayes::paper::{audio_visual_dbn, AvNodes};
use f1_media::features::vector::N_FEATURES;
use f1_media::synth::scenario::{EventKind, RaceScenario, Span};
use f1_rules::{Engine as RuleEngine, Fact, Interval, Rule, Value};

use crate::catalog::EventRecord;
use crate::extensions::StoredNet;
use crate::session::Vdbms;
use crate::Result;

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

impl Vdbms {
    /// Trains the audio-visual highlight DBN on labelled windows of an
    /// ingested video (EM with the query nodes clamped to ground truth,
    /// mid-level semantics hidden), and stores it for annotation.
    pub fn train_highlight_net(
        &self,
        video: &str,
        scenario: &RaceScenario,
        windows: &[Span],
        with_passing: bool,
    ) -> Result<()> {
        let (net, nodes) = audio_visual_dbn(with_passing)?;
        let matrix = self.catalog.load_features(video, N_FEATURES)?;
        let mut dbn = net.dbn.clone();
        let sequences: Vec<EvidenceSeq> = windows
            .iter()
            .map(|w| {
                let rows = &matrix[w.start..w.end.min(matrix.len())];
                let mut seq = EvidenceSeq::from_matrix(&net.feature_nodes, rows);
                for (t, clip) in (w.start..w.end.min(matrix.len())).enumerate() {
                    clamp_av_truth(&mut seq, t, clip, scenario, &nodes);
                }
                seq
            })
            .collect();
        train_with_faults(
            &mut dbn,
            &sequences,
            &EmConfig {
                max_iters: 4,
                tol: 1e-3,
                pseudocount: 0.2,
            },
            self.faults(),
        )?;
        let mut queries = vec![
            ("HL".to_string(), nodes.highlight),
            ("EA".to_string(), nodes.excited),
            ("ST".to_string(), nodes.start),
            ("FO".to_string(), nodes.fly_out),
        ];
        if let Some(ps) = nodes.passing {
            queries.push(("PS".to_string(), ps));
        }
        // Calibrate decision thresholds on the training windows: run the
        // trained net over each window (unclamped) and grid-search the
        // clip-level F1-best level per query node.
        let trained = f1_bayes::paper::PaperNet { dbn, ..net };
        let engine = f1_bayes::engine::Engine::new(&trained.dbn)?;
        let mut hl_trace = Vec::new();
        let mut ea_trace = Vec::new();
        let mut hl_truth = Vec::new();
        let mut ea_truth = Vec::new();
        let hl_spans = scenario.highlights();
        for w in windows {
            let hi = w.end.min(matrix.len());
            let seq = EvidenceSeq::from_matrix(&trained.feature_nodes, &matrix[w.start..hi]);
            let post = engine.filter(&seq, None)?;
            hl_trace.extend(post.trace(nodes.highlight, 1)?);
            ea_trace.extend(post.trace(nodes.excited, 1)?);
            for clip in w.start..hi {
                hl_truth.push(hl_spans.iter().any(|h| h.contains(clip)));
                ea_truth.push(scenario.is_excited(clip));
            }
        }
        let thresholds = HashMap::from([
            (
                "HL".to_string(),
                calibrate_clip_threshold(&hl_trace, &hl_truth),
            ),
            (
                "EA".to_string(),
                calibrate_clip_threshold(&ea_trace, &ea_truth),
            ),
        ]);
        self.nets.write().insert(
            "av".to_string(),
            StoredNet {
                net: trained,
                queries,
                thresholds,
            },
        );
        Ok(())
    }

    /// Installs an externally trained network under a name.
    pub fn install_net(&self, name: &str, stored: StoredNet) {
        self.nets.write().insert(name.to_string(), stored);
    }

    fn trace(&self, video: &str, net: &str, query: &str) -> Result<Vec<f64>> {
        let out = self.kernel.eval_mil(&format!(
            "RETURN dbnInfer(\"{video}\", \"{net}\", \"{query}\");"
        ))?;
        let bat = out.as_bat()?;
        let bat = bat.read();
        let mut trace = Vec::with_capacity(bat.len());
        for i in 0..bat.len() {
            trace.push(bat.tail_at(i)?.as_dbl()?);
        }
        Ok(trace)
    }

    /// Runs DBN annotation: highlight segments (threshold 0.5, minimum
    /// duration 6 s as in Table 3), sub-event classification per segment
    /// (most probable candidate, re-evaluated every 5 s for segments over
    /// 15 s), and excited-speech segments.
    pub fn annotate(&self, video: &str) -> Result<AnnotateReport> {
        let registry = Arc::clone(self.kernel.metrics().registry());
        registry.counter("annotate.runs", &[]).inc();
        let t = Instant::now();
        let (has_passing, hl_theta, ea_theta) = {
            let nets = self.nets.read();
            let stored = nets.get("av");
            let theta = |query| stored.and_then(|s| s.thresholds.get(query).copied());
            (
                stored.is_some_and(|s| s.queries.iter().any(|(n, _)| n == "PS")),
                theta("HL").unwrap_or(0.5),
                theta("EA").unwrap_or(0.5),
            )
        };
        let hl = self.trace(video, "av", "HL")?;
        let ea = self.trace(video, "av", "EA")?;
        let st = self.trace(video, "av", "ST")?;
        let fo = self.trace(video, "av", "FO")?;
        let ps = if has_passing {
            Some(self.trace(video, "av", "PS")?)
        } else {
            None
        };
        registry
            .histogram("annotate.stage_ns", &[("stage", "inference")])
            .record(t.elapsed().as_nanos() as u64);
        let t = Instant::now();

        // Replace previously derived events, keeping caption metadata.
        const DERIVED: [&str; 5] = ["highlight", "start", "fly_out", "passing", "excited"];
        let kept: Vec<EventRecord> = self
            .catalog
            .events(video, None)?
            .into_iter()
            .filter(|e| !DERIVED.contains(&e.kind.as_str()))
            .collect();
        self.catalog.clear_events(video)?;
        self.catalog.store_events(video, &kept)?;
        let derived = |kind: &str, start, end| EventRecord {
            kind: kind.to_string(),
            start,
            end,
            driver: None,
        };
        let mut records = Vec::new();

        // Bridge sub-second posterior dips before thresholding (6 s
        // minimum duration as in Table 3).
        let hl_smooth = f1_bayes::metrics::accumulate(&hl, 10);
        let highlights = threshold_segments(&hl_smooth, hl_theta, 60, 30);
        records.extend(
            highlights
                .iter()
                .map(|h| derived("highlight", h.start, h.end)),
        );
        // Sub-event classification: every 5 s window for long segments.
        let mut n_sub = 0usize;
        for seg in &highlights {
            let mut windows = Vec::new();
            if seg.len() > 150 {
                let mut s = seg.start;
                while s + 50 <= seg.end {
                    windows.push((s, s + 50));
                    s += 50;
                }
            } else {
                windows.push((seg.start, seg.end));
            }
            for (s, e) in windows {
                // Most probable candidate by peak posterior (§5.5).
                let peak =
                    |tr: &[f64]| -> f64 { tr[s..e].iter().cloned().fold(f64::MIN, f64::max) };
                let mut candidates: Vec<(&str, f64)> =
                    vec![("start", peak(&st)), ("fly_out", peak(&fo))];
                if let Some(ps) = &ps {
                    candidates.push(("passing", peak(ps)));
                }
                if let Some((kind, score)) = candidates
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .copied()
                {
                    if score > 0.3 {
                        records.push(derived(kind, s, e));
                        n_sub += 1;
                    }
                }
            }
        }
        // Excited speech from the EA node: precision-weighted threshold,
        // 4 s minimum (the retrieval layer prefers clean answers over
        // exhaustive ones).
        let excited = threshold_segments(&ea, (ea_theta + 0.15).min(0.9), 40, 20);
        records.extend(excited.iter().map(|x| derived("excited", x.start, x.end)));
        self.catalog.store_events(video, &records)?;
        registry
            .histogram("annotate.stage_ns", &[("stage", "segmentation")])
            .record(t.elapsed().as_nanos() as u64);
        Ok(AnnotateReport {
            n_highlights: highlights.len(),
            n_sub_events: n_sub,
            n_excited: excited.len(),
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

/// Grid-searches the clip-level F1-best threshold of a posterior trace.
fn calibrate_clip_threshold(trace: &[f64], truth: &[bool]) -> f64 {
    let mut best = (0.5, -1.0);
    for i in 1..20 {
        let theta = i as f64 / 20.0;
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for (p, &t) in trace.iter().zip(truth) {
            match (*p >= theta, t) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        let f1 = if tp == 0 {
            0.0
        } else {
            2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fn_ as f64)
        };
        if f1 > best.1 {
            best = (theta, f1);
        }
    }
    best.0
}

/// Clamps the audio-visual net's query nodes to scenario ground truth at
/// one slice (partially supervised EM).
fn clamp_av_truth(
    seq: &mut EvidenceSeq,
    t: usize,
    clip: usize,
    scenario: &RaceScenario,
    nodes: &AvNodes,
) {
    let kind = scenario.event_at(clip).map(|e| e.kind);
    let truth = [
        (
            Some(nodes.highlight),
            scenario.highlights().iter().any(|h| h.contains(clip)),
        ),
        (Some(nodes.excited), scenario.is_excited(clip)),
        (Some(nodes.start), kind == Some(EventKind::Start)),
        (Some(nodes.fly_out), kind == Some(EventKind::FlyOut)),
        (nodes.passing, kind == Some(EventKind::Passing)),
    ];
    for (node, holds) in truth {
        if let Some(node) = node {
            seq.set(t, node, Obs::Hard(holds as usize));
        }
    }
}
