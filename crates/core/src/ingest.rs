//! Ingestion: raw video in, feature and caption metadata out.
//!
//! There is one path. A live broadcast arrives as arrival-order windows
//! ([`Vdbms::ingest_chunk`]); a recorded one is the stream of a single
//! window covering the whole broadcast ([`Vdbms::ingest`]). Either way a
//! window goes through the paper's query pre-processor: rank the
//! registry's extraction methods by the measured cost model, retry
//! transient failures per the method's policy, fall through to the next
//! method on anything else.

use std::time::{Duration, Instant};

use f1_keyword::{keyword_feature, spot, AcousticModel, Grammar, PhonemeStream, SpotterConfig};
use f1_media::features::vector::{FeatureExtractor, VectorConfig};
use f1_media::synth::scenario::{CaptionKind, RaceScenario, Span};
use f1_media::synth::stream::Chunk;
use f1_media::synth::video::VideoSynth;
use f1_text::{scan_broadcast, Vocabulary};

use crate::catalog::{EventRecord, VideoInfo};
use crate::extensions::{CostModel, MethodProfile};
use crate::session::Vdbms;
use crate::{CobraError, Result};

/// One extraction method the pre-processor ran (or re-ran) during
/// ingestion, in the order attempted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MethodAttempt {
    /// The method's name in the registry.
    pub method: String,
    /// How many times it ran (> 1 when transient failures were retried).
    pub tries: u32,
    /// The final error, rendered; `None` when this attempt succeeded.
    pub error: Option<String>,
}

/// One row of the pre-processor's extraction ranking at ingest time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MethodRank {
    /// The method's name in the registry.
    pub method: String,
    /// Its [`CostModel`] score at ranking time (lower ranks first).
    pub score: f64,
    /// True when the score reflects recorded measurements rather than
    /// the static table alone.
    pub measured: bool,
    /// Failures the cost model has recorded against the method.
    pub failures: u64,
}

/// What ingestion extracted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngestReport {
    /// Clips processed.
    pub n_clips: usize,
    /// Keyword spots found.
    pub n_keyword_spots: usize,
    /// Captions recognized.
    pub n_captions: usize,
    /// Feature-extraction method that ultimately produced the features.
    pub extraction_method: String,
    /// Every extraction method attempted, failures included, in order.
    /// The last entry is the one that succeeded.
    pub attempts: Vec<MethodAttempt>,
    /// True when the succeeding method was not the pre-processor's first
    /// choice — the features are usable but of lower declared quality.
    pub degraded: bool,
    /// The pre-processor's extraction ranking at ingest time, best
    /// first, with the score behind each position.
    pub ranking: Vec<MethodRank>,
    /// True when measured costs changed the order the static
    /// cost/quality table would have produced.
    pub reranked: bool,
    /// Why the ranking looked the way it did.
    pub rationale: String,
}

/// What one streamed ingest window stored.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChunkReport {
    /// Arrival index of the window.
    pub index: usize,
    /// Clips appended by this window.
    pub n_clips: usize,
    /// Captions recognized inside this window.
    pub n_captions: usize,
    /// Catalog `data_version` once the window's captions committed (for
    /// a window without captions, the version it found): the value the
    /// change feed published for them, so a caller can correlate this
    /// chunk with subscriber notifications. The window's feature rows,
    /// which no retrieval reads, commit after it.
    pub data_version: u64,
    /// True for the final window; the stream's session state is
    /// released once it is ingested.
    pub is_last: bool,
}

/// What an open stream keeps between windows. *Where* the stream stands
/// is not here: that is the catalog's committed feature-row count.
///
/// Keyword spotting runs once when the stream opens (the phoneme
/// stream is a broadcast-wide signal), producing a per-clip score
/// vector indexed absolutely by clip, so each window extracts
/// `fx.extract(&kw, lo, hi)` without re-reading earlier audio. The
/// extraction method that served the opening window is pinned, so a
/// mid-race re-rank cannot mix feature qualities within one video.
pub(crate) struct StreamState {
    kw: Vec<f64>,
    method: String,
}

/// Recognizes superimposed text over `[frame_lo, frame_hi)` and maps
/// the parsed captions onto clip-grid [`EventRecord`]s.
fn scan_captions(scenario: &RaceScenario, frame_lo: usize, frame_hi: usize) -> Vec<EventRecord> {
    let video = VideoSynth::new(scenario);
    let vocab = Vocabulary::formula1();
    let captions = scan_broadcast(
        &video,
        frame_lo,
        frame_hi,
        &vocab,
        &f1_text::pipeline::PipelineConfig::default(),
    );
    let cps = f1_media::time::clips_per_second();
    let fps = f1_media::time::VIDEO_FPS;
    captions
        .iter()
        .filter_map(|c| {
            let parsed = c.parsed.as_ref()?;
            let kind = match parsed.kind {
                CaptionKind::PitStop => "caption:pit_stop",
                CaptionKind::Classification => "caption:classification",
                CaptionKind::FastestLap => "caption:fastest_lap",
                CaptionKind::FinalLap => "caption:final_lap",
                CaptionKind::Winner => "caption:winner",
            };
            Some(EventRecord {
                kind: kind.to_string(),
                start: c.start_frame * cps / fps,
                end: (c.end_frame * cps / fps).max(c.start_frame * cps / fps + 1),
                driver: parsed
                    .driver
                    .map(|d| f1_media::synth::scenario::DRIVERS[d].to_string()),
            })
        })
        .collect()
}

/// Compares the live extraction ranking against the static (unmeasured)
/// order and explains any difference the measurements made.
fn rank_rationale(
    ranking: &[MethodProfile],
    model: &CostModel,
    min_quality: f64,
) -> (bool, String) {
    let unmeasured = CostModel::new();
    let mut static_order: Vec<&MethodProfile> = ranking.iter().collect();
    static_order.sort_by(|a, b| {
        unmeasured
            .score(a, min_quality)
            .total_cmp(&unmeasured.score(b, min_quality))
            .then_with(|| a.name.cmp(&b.name))
    });
    let reranked = static_order
        .iter()
        .map(|m| m.name.as_str())
        .ne(ranking.iter().map(|m| m.name.as_str()));
    if !reranked {
        return (false, "static cost/quality ranking".into());
    }
    let demoted = &static_order[0].name;
    let stat = model.stat(demoted).unwrap_or_default();
    (
        true,
        format!(
            "measured cost model demoted '{demoted}' (running {:.1}x its best pace, \
             {} recorded failure(s)); preferring '{}'",
            stat.slowdown(),
            stat.failures,
            ranking[0].name,
        ),
    )
}

impl Vdbms {
    /// Ingests a recorded broadcast: the stream of one window covering
    /// all of it, replacing whatever feature layer an earlier ingest of
    /// `name` — finished or not — left behind. The report keeps the
    /// pre-processor's whole attempt history plus the ranking and its
    /// rationale, so a degraded or reranked ingest stays visible.
    pub fn ingest(&self, name: &str, scenario: &RaceScenario) -> Result<IngestReport> {
        let whole = Chunk {
            index: 0,
            clips: Span::new(0, scenario.n_clips),
            frame_lo: 0,
            frame_hi: scenario.n_frames(),
            is_last: true,
        };
        Ok(self.ingest_window(name, scenario, &whole)?.0)
    }

    /// Ingests one arrival-order window of a live broadcast.
    ///
    /// A chunk at clip 0 opens the stream, replacing whatever an earlier
    /// ingest of the name left (so a stream that died with its process
    /// can be started over): it registers the video, runs keyword
    /// spotting over the broadcast audio, and walks the pre-processor's
    /// extraction ranking; the method that serves it stays pinned while
    /// this process holds the stream. Every chunk recognizes captions
    /// inside its frame window and extracts features for exactly its
    /// clip window; both commit through the log-before-apply path and
    /// bump `data_version`, which the
    /// [`ChangeFeed`](crate::catalog::ChangeFeed) broadcasts to
    /// subscribers. The final chunk releases the stream's state.
    ///
    /// Later chunks must start at the video's committed feature-row
    /// count. An early chunk, or a replay of one that landed (the
    /// opening chunk of a stream still open here included), fails with
    /// [`CobraError::StreamOrder`] and changes nothing. The feature rows
    /// are a window's commit point: they are written last, and of the
    /// captions before them only those the event layer lacks are
    /// stored. So a chunk that failed part-way can be sent again — to
    /// this process, or to the one that recovers its data directory and
    /// spots keywords and ranks the methods afresh — and lands exactly
    /// once. A caption straddling a window boundary is recognized per
    /// window, so it may surface as two adjacent events where a
    /// one-window ingest stores one.
    pub fn ingest_chunk(
        &self,
        name: &str,
        scenario: &RaceScenario,
        chunk: &Chunk,
    ) -> Result<ChunkReport> {
        let registry = self.kernel.metrics().registry();
        registry.counter("ingest.chunks", &[]).inc();
        let t = Instant::now();
        let (report, data_version) = self.ingest_window(name, scenario, chunk)?;
        registry
            .histogram("ingest.stage_ns", &[("stage", "chunk")])
            .record(t.elapsed().as_nanos() as u64);
        Ok(ChunkReport {
            index: chunk.index,
            n_clips: report.n_clips,
            n_captions: report.n_captions,
            data_version,
            is_last: chunk.is_last,
        })
    }

    /// The one ingest path: what `chunk` extracted, and the catalog's
    /// `data_version` once its captions committed.
    fn ingest_window(
        &self,
        name: &str,
        scenario: &RaceScenario,
        chunk: &Chunk,
    ) -> Result<(IngestReport, u64)> {
        let registry = self.kernel.metrics().registry();
        let stage = |stage: &str, took: Duration| {
            registry
                .histogram("ingest.stage_ns", &[("stage", stage)])
                .record(took.as_nanos() as u64);
        };
        let clips = chunk.clips;

        // Held for the whole window: chunks are arrival-ordered, so
        // there is nothing to parallelize, and the lock makes the order
        // check and the commits atomic against a racing duplicate.
        let mut streams = self.streams.lock();
        if clips.start == 0 && (chunk.is_last || !streams.contains_key(name)) {
            // A new stream, whatever state an earlier one was left in.
            streams.remove(name);
        } else {
            let rows = self.catalog.feature_rows(name);
            let expected = match self.catalog.video(name) {
                Ok(info) if rows < info.n_clips => rows,
                _ => 0,
            };
            if clips.start != expected {
                return Err(CobraError::StreamOrder {
                    video: name.to_string(),
                    expected,
                    got: clips.start,
                });
            }
        }

        // Opening the stream or, after a reboot, picking it up again.
        let mut n_keyword_spots = 0;
        let mut opened_kw = Vec::new();
        if !streams.contains_key(name) {
            if clips.start == 0 {
                registry.counter("ingest.runs", &[]).inc();
                let t = Instant::now();
                self.catalog.register_video(VideoInfo {
                    name: name.to_string(),
                    n_clips: scenario.n_clips,
                    n_frames: scenario.n_frames(),
                })?;
                stage("register", t.elapsed());
            }
            // Keyword spotting feeds the f1 evidence column.
            let t = Instant::now();
            let spots = spot(
                &PhonemeStream::from_scenario(scenario),
                &Grammar::formula1(),
                AcousticModel::TvNews,
                &SpotterConfig::default(),
            );
            n_keyword_spots = spots.len();
            opened_kw = keyword_feature(&spots, scenario.n_clips);
            stage("keyword_spotting", t.elapsed());
        }
        let (kw, pinned) = match streams.get(name) {
            Some(open) => (&open.kw[..], Some(open.method.as_str())),
            None => (&opened_kw[..], None),
        };

        // Audio-visual feature extraction by the pre-processor: the
        // whole ranking while nothing is pinned, the pinned method after.
        let t = Instant::now();
        let cost_model = self.methods.cost_model();
        let ranking: Vec<MethodProfile> = self
            .methods
            .ranked("feature_extraction", 0.9)
            .into_iter()
            .filter(|m| pinned.is_none_or(|p| p == m.name))
            .cloned()
            .collect();
        let ranks = ranking
            .iter()
            .map(|m| {
                let stat = cost_model.stat(&m.name).unwrap_or_default();
                MethodRank {
                    method: m.name.clone(),
                    score: cost_model.score(m, 0.9),
                    measured: stat.samples > 0,
                    failures: stat.failures,
                }
            })
            .collect();
        let (reranked, rationale) = rank_rationale(&ranking, cost_model, 0.9);
        let (method, matrix, attempts) =
            self.extract_ranked(name, scenario, kw, clips, &ranking)?;
        let extracting = t.elapsed();
        let degraded = ranking[0].name != method;
        if degraded {
            registry.counter("ingest.degraded", &[]).inc();
        }

        // Superimposed text: recognize captions, store as events — only
        // those the event layer lacks, so a window sent again after a
        // failure below (or a broadcast ingested again) does not store
        // its captions twice.
        let t = Instant::now();
        let captions = scan_captions(scenario, chunk.frame_lo, chunk.frame_hi);
        if !captions.is_empty() {
            let mut stored = self.catalog.events(name, None)?;
            stored.retain(|e| e.start >= clips.start);
            let new: Vec<EventRecord> = captions
                .iter()
                .filter(|c| !stored.contains(c))
                .cloned()
                .collect();
            if !new.is_empty() {
                self.catalog.store_events(name, &new)?;
            }
        }
        stage("caption_recognition", t.elapsed());
        let data_version = self.catalog.data_version();

        // The window's commit point. A window at clip 0 *is* the layer
        // so far and replaces whatever an earlier ingest left.
        let t = Instant::now();
        if clips.start == 0 {
            self.catalog.store_features(name, &matrix)?;
        } else {
            self.catalog.append_features(name, &matrix)?;
        }
        stage("feature_extraction", extracting + t.elapsed());

        if chunk.is_last {
            streams.remove(name);
        } else if pinned.is_none() {
            let open = StreamState {
                kw: opened_kw,
                method: method.clone(),
            };
            streams.insert(name.to_string(), open);
        }
        let report = IngestReport {
            n_clips: clips.len(),
            n_keyword_spots,
            n_captions: captions.len(),
            extraction_method: method,
            attempts,
            degraded,
            ranking: ranks,
            reranked,
            rationale,
        };
        Ok((report, data_version))
    }

    /// Walks `ranking` until a method extracts `clips`: transient
    /// failures retry per the method's policy, anything else falls
    /// through to the next method. Returns the method that succeeded,
    /// its feature matrix, and the attempt history; when every method
    /// fails, the last one's error wrapped in
    /// [`CobraError::ExtractionFailed`].
    fn extract_ranked(
        &self,
        video: &str,
        scenario: &RaceScenario,
        kw: &[f64],
        clips: Span,
        ranking: &[MethodProfile],
    ) -> Result<(String, Vec<Vec<f64>>, Vec<MethodAttempt>)> {
        let registry = self.kernel.metrics().registry();
        let cost_model = self.methods.cost_model();
        let mut attempts = Vec::new();
        let mut last_err = CobraError::MissingMetadata {
            video: video.to_string(),
            what: "no feature_extraction methods registered".into(),
        };
        for profile in ranking {
            let mut tries = 0u32;
            let outcome = loop {
                tries += 1;
                let attempt = Instant::now();
                let e = match self.extract(&profile.name, scenario, kw, clips) {
                    Ok(matrix) => {
                        let ms = attempt.elapsed().as_secs_f64() * 1e3;
                        cost_model.observe(&profile.name, ms / clips.len().max(1) as f64);
                        break Ok(matrix);
                    }
                    Err(e) => e,
                };
                cost_model.observe_failure(&profile.name);
                let site = format!("extract.{}", profile.name);
                registry
                    .counter("faults.failures", &[("site", &site)])
                    .inc();
                let transient = matches!(
                    &e,
                    CobraError::Kernel(f1_monet::MonetError::Fault {
                        transient: true,
                        ..
                    }) | CobraError::Media(f1_media::MediaError::Fault {
                        transient: true,
                        ..
                    })
                );
                if !transient || tries > profile.retry.max_retries {
                    break Err(e);
                }
                std::thread::sleep(Duration::from_millis(profile.retry.backoff_ms));
            };
            attempts.push(MethodAttempt {
                method: profile.name.clone(),
                tries,
                error: outcome.as_ref().err().map(|e| e.to_string()),
            });
            match outcome {
                Ok(matrix) => return Ok((profile.name.clone(), matrix, attempts)),
                Err(e) => last_err = e,
            }
        }
        Err(CobraError::ExtractionFailed {
            video: video.to_string(),
            source: Box::new(last_err),
        })
    }

    /// Runs one extraction method over `clips`. The keyword vector is
    /// indexed absolutely by clip, so one broadcast-wide vector serves
    /// every window. The fault site `extract.{method}` lets tests knock
    /// out a specific method. The video frames a successful run decoded
    /// are added to the `ingest.frames_decoded` counter.
    fn extract(
        &self,
        method: &str,
        scenario: &RaceScenario,
        kw: &[f64],
        clips: Span,
    ) -> Result<Vec<Vec<f64>>> {
        if self.faults().is_armed() {
            self.faults()
                .fire(&format!("extract.{method}"))
                .map_err(f1_monet::MonetError::from)?;
        }
        let fx = match method {
            // The degraded profile: coarser wipe detection, same
            // 17-dimensional output shape.
            "fast" => FeatureExtractor::with_config(
                scenario,
                VectorConfig {
                    wipe_stride: VectorConfig::default().wipe_stride * 2,
                    ..VectorConfig::default()
                },
            )?,
            _ => FeatureExtractor::new(scenario)?,
        }
        .with_faults(self.faults().clone());
        let matrix = fx.extract(kw, clips.start, clips.end)?;
        // What "each frame is decoded once" comes to, as a count.
        self.kernel
            .metrics()
            .registry()
            .counter("ingest.frames_decoded", &[])
            .add(fx.frames_decoded());
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::features::vector::N_FEATURES;
    use f1_media::synth::scenario::{RaceProfile, ScenarioConfig};

    #[test]
    fn chunked_ingest_reproduces_batch_ingest() {
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 180));
        let batch = Vdbms::new();
        batch.ingest("german", &scenario).unwrap();

        let streamed = Vdbms::new();
        let mut reports = Vec::new();
        for chunk in scenario.chunks(30) {
            reports.push(streamed.ingest_chunk("german", &scenario, &chunk).unwrap());
        }
        assert!(reports.len() > 2, "want a genuinely multi-window stream");
        assert!(reports.last().unwrap().is_last);
        assert_eq!(
            reports.iter().map(|r| r.n_clips).sum::<usize>(),
            scenario.n_clips
        );
        // Every window's commit is visible to the change feed.
        for w in reports.windows(2) {
            assert!(w[0].data_version < w[1].data_version);
        }

        // Features: per-clip columns are byte-identical with batch
        // ingest; the replay flag (column 11) is detected from wipes
        // inside each window, so it may disagree near window
        // boundaries — but only there.
        let a = batch.catalog.load_features("german", N_FEATURES).unwrap();
        let b = streamed
            .catalog
            .load_features("german", N_FEATURES)
            .unwrap();
        assert_eq!(a.len(), b.len());
        for (clip, (ra, rb)) in a.iter().zip(&b).enumerate() {
            for (k, (va, vb)) in ra.iter().zip(rb).enumerate() {
                if k != 11 {
                    assert_eq!(va, vb, "clip {clip} feature {k} differs from batch");
                }
            }
        }
        let agree = a.iter().zip(&b).filter(|(ra, rb)| ra[11] == rb[11]).count();
        assert!(
            agree * 10 >= a.len() * 9,
            "replay flag agrees on only {agree}/{} clips",
            a.len()
        );

        // Captions: chunked recognition sees the same superimposed
        // text (a window boundary can split a caption, so compare by
        // coverage of the batch events, not exact equality).
        assert!(reports.iter().map(|r| r.n_captions).sum::<usize>() > 0);
        let batch_events = batch.catalog.events("german", None).unwrap();
        let stream_events = streamed.catalog.events("german", None).unwrap();
        let covered = batch_events
            .iter()
            .filter(|e| {
                stream_events
                    .iter()
                    .any(|s| s.kind == e.kind && s.start < e.end && e.start < s.end)
            })
            .count();
        assert!(
            covered * 2 > batch_events.len(),
            "only {covered}/{} batch captions covered by the stream",
            batch_events.len()
        );
    }

    #[test]
    fn frames_decoded_counts_each_frame_of_a_window_once() {
        // The benchmark's set-up: a 10 s broadcast in two 5 s windows.
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 10));
        let vdbms = Vdbms::new();
        for chunk in scenario.chunks(5) {
            vdbms.ingest_chunk("german", &scenario, &chunk).unwrap();
        }
        let decoded = vdbms
            .kernel
            .metrics()
            .registry()
            .snapshot()
            .counter("ingest.frames_decoded", &[]);
        // 250 frames, the windows overlapping by the four the first one
        // looks ahead into the second; 584 with five decodes per clip
        // and a separate wipe pass.
        assert_eq!(decoded, 254);
    }

    #[test]
    fn a_one_window_ingest_replaces_an_unfinished_stream() {
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 60));
        let chunks: Vec<_> = scenario.chunks(20).collect();
        let vdbms = Vdbms::new();
        vdbms.ingest_chunk("german", &scenario, &chunks[0]).unwrap();
        // The stream is open: its opening chunk cannot be sent again …
        let err = vdbms
            .ingest_chunk("german", &scenario, &chunks[0])
            .unwrap_err();
        assert!(matches!(err, CobraError::StreamOrder { .. }), "{err}");
        // … but the whole recording can, and it ends the stream.
        vdbms.ingest("german", &scenario).unwrap();
        assert_eq!(vdbms.catalog.feature_rows("german"), scenario.n_clips);
        let err = vdbms
            .ingest_chunk("german", &scenario, &chunks[1])
            .unwrap_err();
        assert!(
            matches!(err, CobraError::StreamOrder { expected: 0, .. }),
            "{err}"
        );
        // Ingesting it again stores no caption twice.
        let events = vdbms.catalog.events("german", None).unwrap();
        vdbms.ingest("german", &scenario).unwrap();
        assert_eq!(vdbms.catalog.events("german", None).unwrap(), events);
        // A failed opening window leaves nothing a new stream trips on.
        let (failed, _) = vdbms.faults().scope(
            cobra_faults::FaultPlan::new(1)
                .fail("extract.full", cobra_faults::Trigger::Always)
                .fail("extract.fast", cobra_faults::Trigger::Always),
            || vdbms.ingest_chunk("other", &scenario, &chunks[0]),
        );
        assert!(matches!(failed, Err(CobraError::ExtractionFailed { .. })));
        for chunk in &chunks {
            vdbms.ingest_chunk("other", &scenario, chunk).unwrap();
        }
        assert_eq!(vdbms.catalog.feature_rows("other"), scenario.n_clips);
    }

    #[test]
    fn chunked_ingest_enforces_arrival_order_and_releases_state() {
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 60));
        let vdbms = Vdbms::new();
        let chunks: Vec<_> = scenario.chunks(20).collect();
        assert!(chunks.len() >= 2);

        // A stream must open at clip 0.
        let err = vdbms
            .ingest_chunk("german", &scenario, &chunks[1])
            .unwrap_err();
        assert!(
            matches!(err, crate::CobraError::StreamOrder { expected: 0, .. }),
            "unexpected error: {err}"
        );

        vdbms.ingest_chunk("german", &scenario, &chunks[0]).unwrap();
        // Replaying the same chunk is rejected and changes nothing.
        let before = vdbms.catalog.data_version();
        let err = vdbms
            .ingest_chunk("german", &scenario, &chunks[0])
            .unwrap_err();
        assert!(matches!(err, crate::CobraError::StreamOrder { .. }));
        assert_eq!(vdbms.catalog.data_version(), before);

        for chunk in &chunks[1..] {
            vdbms.ingest_chunk("german", &scenario, chunk).unwrap();
        }
        // The final chunk released the stream state: a fresh stream of
        // the same name can open again at clip 0.
        let err = vdbms
            .ingest_chunk("german", &scenario, &chunks[1])
            .unwrap_err();
        assert!(matches!(
            err,
            crate::CobraError::StreamOrder { expected: 0, .. }
        ));
    }
}
