//! Ingestion: raw video in, feature and caption metadata out.
//!
//! There is one path. A live broadcast arrives as arrival-order windows
//! ([`Vdbms::ingest_chunk`]); a recorded one is the stream of a single
//! window covering the whole broadcast ([`Vdbms::ingest`]). Either way a
//! window runs the one feature extractor once. Its error goes back to
//! the caller typed, and sending the window again is the retry.

use std::time::{Duration, Instant};

use cobra_faults::Recover;
use f1_keyword::{keyword_feature, spot, AcousticModel, Grammar, PhonemeStream, SpotterConfig};
use f1_media::features::vector::FeatureExtractor;
use f1_media::synth::scenario::{CaptionKind, RaceScenario, Span};
use f1_media::synth::stream::Chunk;
use f1_media::synth::video::VideoSynth;
use f1_text::{scan_broadcast, Vocabulary};

use crate::catalog::{EventRecord, VideoInfo};
use crate::session::Vdbms;
use crate::{CobraError, Result};

/// What ingestion extracted.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Clips processed.
    pub n_clips: usize,
    /// Keyword spots found.
    pub n_keyword_spots: usize,
    /// Captions recognized.
    pub n_captions: usize,
}

/// What one streamed ingest window stored.
#[derive(Debug, Clone, PartialEq)]
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
/// `fx.extract(&kw, lo, hi)` without re-reading earlier audio.
pub(crate) struct StreamState {
    kw: Vec<f64>,
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

impl Vdbms {
    /// Ingests a recorded broadcast: the stream of one window covering
    /// all of it, replacing whatever feature layer an earlier ingest of
    /// `name` — finished or not — left behind.
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
    /// spotting over the broadcast audio. Every chunk recognizes captions
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
    /// spots keywords afresh — and lands exactly once. A caption straddling a window boundary is recognized per
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
        let mut streams = self.streams.lock().recover();
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
        let opening = !streams.contains_key(name);
        if opening {
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
        let kw = match streams.get(name) {
            Some(open) => &open.kw[..],
            None => &opened_kw[..],
        };

        // Audio-visual feature extraction.
        let t = Instant::now();
        let matrix = self.extract(scenario, kw, clips)?;
        let extracting = t.elapsed();

        // Superimposed text: recognize captions, store as events — only
        // those the event layer lacks, so a window sent again after a
        // failure below (or a broadcast ingested again) does not store
        // its captions twice.
        let t = Instant::now();
        let captions = scan_captions(scenario, chunk.frame_lo, chunk.frame_hi);
        if !captions.is_empty() {
            let new: Vec<EventRecord> = match self.catalog.event_layer(name, [])?.1 {
                Some(layer) => layer.read(|stored| {
                    // Held: a row at or past the window's first clip has
                    // the caption's kind, span and driver.
                    let held = |c: &EventRecord| {
                        c.start >= clips.start
                            && stored.rows_of(&c.kind).any(|row| {
                                stored.span(row).is_ok_and(|span| span == (c.start, c.end))
                                    && stored.driver(row).as_deref() == c.driver.as_deref()
                            })
                    };
                    Ok(captions.iter().filter(|c| !held(c)).cloned().collect())
                })?,
                None => captions.clone(),
            };
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
        } else if opening {
            streams.insert(name.to_string(), StreamState { kw: opened_kw });
        }
        let report = IngestReport {
            n_clips: clips.len(),
            n_keyword_spots,
            n_captions: captions.len(),
        };
        Ok((report, data_version))
    }

    /// Extracts the feature rows of `clips`. The keyword vector is
    /// indexed absolutely by clip, so one broadcast-wide vector serves
    /// every window. The extractor fires the `media.vector.extract`
    /// fault site on this instance's [`FaultHandle`](cobra_faults::FaultHandle).
    /// The video frames a successful run decoded are added to the
    /// `ingest.frames_decoded` counter, and its time in each part of
    /// extraction (`decode`, `audio_features`, `video_features`) to
    /// `ingest.stage_ns{stage=…}`, beside the whole that `ingest_window`
    /// records as `feature_extraction`.
    fn extract(&self, scenario: &RaceScenario, kw: &[f64], clips: Span) -> Result<Vec<Vec<f64>>> {
        let fx = FeatureExtractor::new(scenario)?.with_faults(self.faults().clone());
        let matrix = fx.extract(kw, clips.start, clips.end)?;
        // What "each frame is decoded once" comes to, as a count.
        let registry = self.kernel.metrics().registry();
        registry
            .counter("ingest.frames_decoded", &[])
            .add(fx.frames_decoded());
        for (stage, ns) in fx.stage_ns() {
            registry
                .histogram("ingest.stage_ns", &[("stage", stage)])
                .record(ns);
        }
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
        let snap = vdbms.kernel.metrics().registry().snapshot();
        // 250 frames, the windows overlapping by the four the first one
        // looks ahead into the second; 584 with five decodes per clip
        // and a separate wipe pass.
        assert_eq!(snap.counter("ingest.frames_decoded", &[]), 254);
        // Extraction's sub-stages are each measured, and are parts of
        // the whole.
        let total_ns = |stage: &str| {
            snap.histogram("ingest.stage_ns", &[("stage", stage)])
                .map_or(0, |h| h.sum())
        };
        let parts = ["decode", "audio_features", "video_features"].map(total_ns);
        assert!(parts.iter().all(|&ns| ns > 0), "{parts:?}");
        assert!(parts.iter().sum::<u64>() <= total_ns("feature_extraction"));
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
                .fail("media.vector.extract", cobra_faults::Trigger::Always),
            || vdbms.ingest_chunk("other", &scenario, &chunks[0]),
        );
        assert!(matches!(failed, Err(CobraError::Media(_))), "{failed:?}");
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
