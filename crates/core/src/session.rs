//! The VDBMS session: ingest → extract → train → annotate → retrieve.
//!
//! This is the workflow of the paper's Fig. 1: raw video enters, the
//! feature/semantic extraction engines populate the metadata, the DBN
//! extension turns features into events, and the query layer combines
//! Bayesian fusion with recognized text.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_obs::{SpanNode, SpanTimer};
use cobra_store::backend::StorageBackend;
use cobra_store::{CheckpointOutcome, FileBackend, MemBackend, StoreConfig, StoreStats};
use parking_lot::RwLock;

use f1_bayes::em::{train_with_faults, EmConfig};
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::metrics::threshold_segments;
use f1_bayes::paper::{audio_visual_dbn, AvNodes};
use f1_keyword::{keyword_feature, spot, AcousticModel, Grammar, PhonemeStream, SpotterConfig};
use f1_media::features::vector::{FeatureExtractor, VectorConfig, N_FEATURES};
use f1_media::synth::scenario::{CaptionKind, EventKind, RaceScenario, Span};
use f1_media::synth::stream::Chunk;
use f1_media::synth::video::VideoSynth;
use f1_monet::{ExecBudget, Kernel};
use f1_rules::{
    AllenRelation, Condition, Engine as RuleEngine, Fact, Interval, IntervalSpec, Rule,
    TemporalConstraint, Term, Value,
};
use f1_text::{scan_broadcast, Vocabulary};

use crate::cache::{CompiledPlan, PlanCache, ResultCache};
use crate::catalog::{Catalog, EventRecord, VideoInfo};
use crate::extensions::{CostModel, DbnModule, MethodProfile, MethodRegistry, NetStore, StoredNet};
use crate::query::{parse_query, parse_statement, Query, RetrievedSegment, Statement, Target};
use crate::Result;

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
    /// Catalog `data_version` after the window's writes committed —
    /// the value the change feed published, so a caller can correlate
    /// this chunk with subscriber notifications.
    pub data_version: u64,
    /// True for the final window; the stream's session state is
    /// released once it is ingested.
    pub is_last: bool,
}

/// Per-video state held across [`Vdbms::ingest_chunk`] calls.
///
/// Keyword spotting runs once when the stream opens (the phoneme
/// stream is a broadcast-wide signal), producing a per-clip score
/// vector indexed absolutely by clip — which is what lets each window
/// extract `fx.extract(&kw, lo, hi)` without re-reading earlier audio.
/// The extraction method is also pinned at stream open so a mid-race
/// re-rank cannot mix feature qualities within one video.
struct StreamState {
    kw: Vec<f64>,
    method: String,
    next_clip: usize,
}

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

/// A profiled query: the answer plus the span tree of where time went.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The retrieved segments.
    pub segments: Vec<RetrievedSegment>,
    /// Measured spans, rooted at the whole query.
    pub span: SpanNode,
}

/// One video's contribution to a cross-video answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoSegments {
    /// Catalog name of the video the segments came from.
    pub video: String,
    /// The segments retrieved from that video.
    pub segments: Vec<RetrievedSegment>,
}

/// What [`Vdbms::run`] produced for a statement.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// A plain `RETRIEVE` answer.
    Segments(Vec<RetrievedSegment>),
    /// A `PROFILE RETRIEVE` answer with its span tree.
    Profile(QueryProfile),
    /// An `EXPLAIN RETRIEVE` plan (not executed, timings zero).
    Plan(SpanNode),
    /// A cross-video `RETRIEVE` answer (`video = "*"`): one group per
    /// catalog video, sorted by name so the answer is deterministic and
    /// scatter-gather merges from disjoint shards are order-stable.
    Multi(Vec<VideoSegments>),
}

/// The event-layer kind an event-backed target selects, `None` for the
/// targets that derive their answer from other catalog metadata.
fn event_kind(target: &Target) -> Option<&str> {
    match target {
        Target::Highlights => Some("highlight"),
        Target::Events(kind) => Some(kind),
        Target::Excited => Some("excited"),
        Target::PitStops => Some("caption:pit_stop"),
        Target::Winner => Some("caption:winner"),
        Target::FinalLap => Some("caption:final_lap"),
        Target::Leader | Target::Segments => None,
    }
}

/// Recognizes superimposed text over `[frame_lo, frame_hi)` and maps
/// the parsed captions onto clip-grid [`EventRecord`]s. Both the batch
/// and the streamed ingest path store captions through here, so chunked
/// ingest reproduces batch caption events window by window.
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

/// What recovery-on-boot did (all zeros for a memory-only or fresh
/// durable boot).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryReport {
    /// The boot epoch assigned to this process.
    pub epoch: u64,
    /// WAL tail records replayed over the latest snapshot.
    pub replayed: u64,
    /// BATs loaded from snapshot files.
    pub bats_loaded: u64,
    /// Videos restored from the manifest (before replay).
    pub videos: u64,
    /// True when a torn/corrupt WAL tail was discarded.
    pub torn_tail: bool,
    /// WAL files scanned at boot.
    pub wal_files: u64,
    /// Valid WAL bytes scanned at boot.
    pub wal_bytes: u64,
}

/// The Cobra VDBMS facade.
pub struct Vdbms {
    kernel: Arc<Kernel>,
    /// The metadata catalog (shared with the background checkpointer).
    pub catalog: Arc<Catalog>,
    nets: NetStore,
    methods: MethodRegistry,
    /// Compiled-plan and stamp-guarded result caches (§"never recompute
    /// what the system already knows"), shared by every retrieval entry
    /// point.
    plans: PlanCache,
    results: ResultCache<Vec<RetrievedSegment>>,
    /// `mil.evals` reading at the last cost-model refresh; the plan
    /// cache's generation advances once the kernel has observed roughly
    /// twice as many evaluations as when plans were last costed.
    plan_cost_evals: AtomicU64,
    /// What recovery-on-boot replayed; `None` for memory-only boots.
    recovery: Option<RecoveryReport>,
    /// Open streaming-ingest sessions, one per video being streamed.
    streams: parking_lot::Mutex<HashMap<String, StreamState>>,
    /// Background checkpointer shutdown flag + thread.
    ckpt_stop: Arc<AtomicBool>,
    ckpt_handle: Option<std::thread::JoinHandle<()>>,
}

// The serving layer shares one `Vdbms` across worker threads behind an
// `Arc`; losing `Send + Sync` (say, by adding an `Rc` or `RefCell`
// field) must fail compilation here, not deadlock in production.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Vdbms>();
};

impl Default for Vdbms {
    fn default() -> Self {
        Vdbms::new()
    }
}

impl Vdbms {
    /// Boots the system: a fresh kernel with the HMM and DBN extension
    /// modules loaded. Panics only if module loading fails, which a
    /// fresh kernel cannot do; fallible callers (servers, tests that
    /// inject faults into boot) should use [`Vdbms::try_new`].
    pub fn new() -> Self {
        match Vdbms::try_new() {
            Ok(v) => v,
            Err(e) => panic!("booting the VDBMS on a fresh kernel failed: {e}"),
        }
    }

    /// Boots the system, surfacing module-load failures as errors
    /// instead of panicking. Memory-only: nothing survives the process.
    pub fn try_new() -> Result<Self> {
        Self::boot(None)
    }

    /// Boots the system against a durable data directory: replays the
    /// latest snapshot plus the WAL tail (recovery-on-boot), then logs
    /// every catalog mutation before acknowledging it. The recovery
    /// outcome is available via [`recovery_report`](Self::recovery_report).
    pub fn open(config: &StoreConfig) -> Result<Self> {
        Self::boot(Some(config))
    }

    fn boot(config: Option<&StoreConfig>) -> Result<Self> {
        let kernel = Arc::new(Kernel::new());
        let nets: NetStore = Arc::new(RwLock::new(HashMap::new()));
        kernel.load_module(Arc::new(DbnModule::new(Arc::clone(&nets))))?;
        kernel.load_module(Arc::new(f1_hmm::mel::HmmModule::new(
            f1_hmm::HmmBank::new(),
            4,
        )))?;
        let plans = PlanCache::new(kernel.metrics().registry());
        let results = ResultCache::new(kernel.metrics().registry());
        let store: Arc<dyn StorageBackend> = match config {
            Some(c) => Arc::new(FileBackend::open(
                c,
                kernel.metrics().registry(),
                kernel.faults().clone(),
            )?),
            None => Arc::new(MemBackend::new()),
        };
        let catalog = Arc::new(Catalog::with_store(Arc::clone(&kernel), Arc::clone(&store)));
        let recovery = match store.take_recovery() {
            Some(rec) => {
                let report = RecoveryReport {
                    epoch: rec.epoch,
                    replayed: rec.replayed,
                    bats_loaded: rec.bats.len() as u64,
                    videos: rec.videos.len() as u64,
                    torn_tail: rec.torn_tail,
                    wal_files: rec.wal_files,
                    wal_bytes: rec.wal_bytes,
                };
                catalog.install_recovery(rec)?;
                Some(report)
            }
            None => None,
        };

        // The background checkpointer: polls the backend's pending-record
        // count and snapshots dirty BATs once it crosses the configured
        // threshold, truncating (retiring) covered WAL files.
        let ckpt_stop = Arc::new(AtomicBool::new(false));
        let ckpt_handle = match config {
            Some(c) if store.is_durable() && c.checkpoint_every > 0 => {
                let stop = Arc::clone(&ckpt_stop);
                let catalog = Arc::clone(&catalog);
                let every = c.checkpoint_every;
                let interval = Duration::from_millis(c.checkpoint_interval_ms.max(10));
                let errors = kernel
                    .metrics()
                    .registry()
                    .counter("store.checkpoint.errors", &[]);
                let handle = std::thread::Builder::new()
                    .name("cobra-checkpointer".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::park_timeout(interval);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            if catalog.store().pending_records() >= every
                                && catalog.checkpoint().is_err()
                            {
                                // Injected faults and transient I/O errors
                                // surface here; the WAL remains authoritative,
                                // so a failed checkpoint only defers log
                                // truncation to the next attempt.
                                errors.inc();
                            }
                        }
                    })
                    .map_err(|e| {
                        crate::CobraError::Store(cobra_store::StoreError::Io {
                            op: "spawn checkpointer",
                            path: String::new(),
                            source: e,
                        })
                    })?;
                Some(handle)
            }
            _ => None,
        };

        Ok(Vdbms {
            catalog,
            kernel,
            nets,
            methods: MethodRegistry::formula1(),
            plans,
            results,
            plan_cost_evals: AtomicU64::new(0),
            recovery,
            streams: parking_lot::Mutex::new(HashMap::new()),
            ckpt_stop,
            ckpt_handle,
        })
    }

    /// What recovery-on-boot did; `None` for memory-only boots.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Forces a checkpoint now (the `CHECKPOINT` command). Returns
    /// `None` when storage is memory-only.
    pub fn checkpoint(&self) -> Result<Option<CheckpointOutcome>> {
        self.catalog.checkpoint()
    }

    /// Forces buffered WAL records to disk (used on server drain).
    pub fn flush(&self) -> Result<()> {
        Ok(self.catalog.store().flush()?)
    }

    /// Storage-layer statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.catalog.store().stats()
    }

    /// The shared kernel (for MIL access).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// This system's fault injector: the kernel's handle, shared with
    /// the storage backend, the extractors and EM training, so
    /// `vdbms.faults().scope(plan, || …)` scripts failures anywhere in
    /// this instance — and in no other.
    pub fn faults(&self) -> &cobra_faults::FaultHandle {
        self.kernel.faults()
    }

    /// Ingests a broadcast: registers the raw layer, runs keyword
    /// spotting, feature extraction and text recognition, and stores the
    /// feature and caption metadata.
    pub fn ingest(&self, name: &str, scenario: &RaceScenario) -> Result<IngestReport> {
        let registry = Arc::clone(self.kernel.metrics().registry());
        let stage = |stage: &str, start: Instant| {
            registry
                .histogram("ingest.stage_ns", &[("stage", stage)])
                .record(start.elapsed().as_nanos() as u64);
        };
        registry.counter("ingest.runs", &[]).inc();

        let t = Instant::now();
        self.catalog.register_video(VideoInfo {
            name: name.to_string(),
            n_clips: scenario.n_clips,
            n_frames: scenario.n_frames(),
        })?;
        stage("register", t);

        // Keyword spotting feeds the f1 evidence column.
        let t = Instant::now();
        let stream = PhonemeStream::from_scenario(scenario);
        let grammar = Grammar::formula1();
        let spots = spot(
            &stream,
            &grammar,
            AcousticModel::TvNews,
            &SpotterConfig::default(),
        );
        let kw = keyword_feature(&spots, scenario.n_clips);
        stage("keyword_spotting", t);

        // Audio-visual feature extraction. The pre-processor ranks the
        // registry's methods by the measured cost model (static
        // cost/quality scores until measurements accumulate) and walks
        // down the ranking: transient failures retry per the method's
        // policy, anything else falls through to the next method. The
        // report keeps the whole attempt history plus the ranking and
        // its rationale, so a degraded or reranked ingest stays visible.
        let t = Instant::now();
        let cost_model = Arc::clone(self.methods.cost_model());
        let ranking: Vec<_> = self
            .methods
            .ranked("feature_extraction", 0.9)
            .into_iter()
            .cloned()
            .collect();
        let ranking_report: Vec<MethodRank> = ranking
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
        let (reranked, rationale) = rank_rationale(&ranking, &cost_model, 0.9);
        let mut attempts: Vec<MethodAttempt> = Vec::new();
        let mut extracted: Option<(String, Vec<Vec<f64>>)> = None;
        let mut last_err = crate::CobraError::MissingMetadata {
            video: name.to_string(),
            what: "no feature_extraction methods registered".into(),
        };
        for profile in &ranking {
            let mut tries = 0u32;
            loop {
                tries += 1;
                let attempt = Instant::now();
                match self.run_extraction(&profile.name, scenario, &kw) {
                    Ok(matrix) => {
                        let ms = attempt.elapsed().as_secs_f64() * 1e3;
                        cost_model.observe(&profile.name, ms / scenario.n_clips.max(1) as f64);
                        attempts.push(MethodAttempt {
                            method: profile.name.clone(),
                            tries,
                            error: None,
                        });
                        extracted = Some((profile.name.clone(), matrix));
                        break;
                    }
                    Err(e) => {
                        cost_model.observe_failure(&profile.name);
                        let site = format!("extract.{}", profile.name);
                        registry
                            .counter("faults.failures", &[("site", &site)])
                            .inc();
                        let transient = matches!(
                            &e,
                            crate::CobraError::Kernel(f1_monet::MonetError::Fault {
                                transient: true,
                                ..
                            }) | crate::CobraError::Media(f1_media::MediaError::Fault {
                                transient: true,
                                ..
                            })
                        );
                        if transient && tries <= profile.retry.max_retries {
                            if profile.retry.backoff_ms > 0 {
                                std::thread::sleep(std::time::Duration::from_millis(
                                    profile.retry.backoff_ms,
                                ));
                            }
                            continue;
                        }
                        attempts.push(MethodAttempt {
                            method: profile.name.clone(),
                            tries,
                            error: Some(e.to_string()),
                        });
                        last_err = e;
                        break;
                    }
                }
            }
            if extracted.is_some() {
                break;
            }
        }
        let Some((method, matrix)) = extracted else {
            return Err(crate::CobraError::ExtractionFailed {
                video: name.to_string(),
                source: Box::new(last_err),
            });
        };
        let degraded = ranking
            .first()
            .is_some_and(|primary| primary.name != method);
        if degraded {
            registry.counter("ingest.degraded", &[]).inc();
        }
        self.catalog.store_features(name, &matrix)?;
        stage("feature_extraction", t);

        // Superimposed text: recognize captions, store as events.
        let t = Instant::now();
        let records = scan_captions(scenario, 0, scenario.n_frames());
        self.catalog.store_events(name, &records)?;
        stage("caption_recognition", t);

        Ok(IngestReport {
            n_clips: scenario.n_clips,
            n_keyword_spots: spots.len(),
            n_captions: records.len(),
            extraction_method: method,
            attempts,
            degraded,
            ranking: ranking_report,
            reranked,
            rationale,
        })
    }

    /// Ingests one arrival-order window of a live broadcast.
    ///
    /// The first chunk (clip 0) opens the stream: it registers the
    /// video, runs keyword spotting over the broadcast audio, and pins
    /// the best-ranked extraction method for the stream's lifetime.
    /// Every chunk then extracts features for exactly its clip window
    /// (appended through the WAL via [`Catalog::append_features`]) and
    /// recognizes captions inside its frame window (appended as
    /// events), so each window commits through the same log-before-
    /// apply path as batch ingest and bumps `data_version` — which the
    /// [`ChangeFeed`](crate::catalog::ChangeFeed) broadcasts to
    /// subscribers.
    ///
    /// Chunks must arrive in order; an out-of-order chunk fails with
    /// [`CobraError::StreamOrder`](crate::CobraError::StreamOrder) and
    /// leaves the catalog unchanged, so the expected chunk (or a retry
    /// of a failed one) can still be sent. The final chunk releases the
    /// stream's session state. A caption straddling a window boundary
    /// is recognized per window, so it may surface as two adjacent
    /// events where batch ingest stores one — the price of not reading
    /// footage that has not arrived yet.
    pub fn ingest_chunk(
        &self,
        name: &str,
        scenario: &RaceScenario,
        chunk: &Chunk,
    ) -> Result<ChunkReport> {
        let registry = Arc::clone(self.kernel.metrics().registry());
        registry.counter("ingest.chunks", &[]).inc();
        let t = Instant::now();

        // One streaming session per video. The map lock is held for the
        // whole window: chunks are arrival-ordered, so within one video
        // there is nothing to parallelize, and the lock is what makes
        // the order check and the append atomic against a racing
        // duplicate of the same chunk.
        let mut streams = self.streams.lock();
        let state = match streams.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                if chunk.clips.start != 0 {
                    return Err(crate::CobraError::StreamOrder {
                        video: name.to_string(),
                        expected: 0,
                        got: chunk.clips.start,
                    });
                }
                self.catalog.register_video(VideoInfo {
                    name: name.to_string(),
                    n_clips: scenario.n_clips,
                    n_frames: scenario.n_frames(),
                })?;
                let stream = PhonemeStream::from_scenario(scenario);
                let spots = spot(
                    &stream,
                    &Grammar::formula1(),
                    AcousticModel::TvNews,
                    &SpotterConfig::default(),
                );
                // The keyword vector is indexed absolutely by clip, so
                // one broadcast-wide vector serves every window.
                let kw = keyword_feature(&spots, scenario.n_clips);
                let method = self
                    .methods
                    .ranked("feature_extraction", 0.9)
                    .first()
                    .map(|m| m.name.clone())
                    .ok_or_else(|| crate::CobraError::MissingMetadata {
                        video: name.to_string(),
                        what: "no feature_extraction methods registered".into(),
                    })?;
                e.insert(StreamState {
                    kw,
                    method,
                    next_clip: 0,
                })
            }
        };
        if chunk.clips.start != state.next_clip {
            return Err(crate::CobraError::StreamOrder {
                video: name.to_string(),
                expected: state.next_clip,
                got: chunk.clips.start,
            });
        }

        // Features for exactly this window, appended through the WAL.
        let attempt = Instant::now();
        let cost_model = Arc::clone(self.methods.cost_model());
        let matrix = match self.run_extraction_window(
            &state.method,
            scenario,
            &state.kw,
            chunk.clips.start,
            chunk.clips.end,
        ) {
            Ok(m) => m,
            Err(e) => {
                cost_model.observe_failure(&state.method);
                return Err(e);
            }
        };
        let ms = attempt.elapsed().as_secs_f64() * 1e3;
        cost_model.observe(&state.method, ms / chunk.len().max(1) as f64);
        self.catalog.append_features(name, &matrix)?;

        // Captions inside this window, appended as events.
        let records = scan_captions(scenario, chunk.frame_lo, chunk.frame_hi);
        if !records.is_empty() {
            self.catalog.store_events(name, &records)?;
        }

        state.next_clip = chunk.clips.end;
        let data_version = self.catalog.data_version();
        if chunk.is_last {
            streams.remove(name);
        }
        registry
            .histogram("ingest.stage_ns", &[("stage", "chunk")])
            .record(t.elapsed().as_nanos() as u64);
        Ok(ChunkReport {
            index: chunk.index,
            n_clips: chunk.len(),
            n_captions: records.len(),
            data_version,
            is_last: chunk.is_last,
        })
    }

    /// Runs one extraction method over the scenario. The fault site
    /// `extract.{method}` lets tests knock out a specific method.
    fn run_extraction(
        &self,
        method: &str,
        scenario: &RaceScenario,
        kw: &[f64],
    ) -> Result<Vec<Vec<f64>>> {
        self.run_extraction_window(method, scenario, kw, 0, scenario.n_clips)
    }

    /// Runs one extraction method over `[lo_clip, hi_clip)`. The
    /// keyword vector is indexed absolutely by clip, so the same
    /// broadcast-wide vector serves both batch and windowed calls.
    fn run_extraction_window(
        &self,
        method: &str,
        scenario: &RaceScenario,
        kw: &[f64],
        lo_clip: usize,
        hi_clip: usize,
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
        Ok(fx.extract(kw, lo_clip, hi_clip)?)
    }

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
        let mut thresholds = HashMap::new();
        thresholds.insert(
            "HL".to_string(),
            calibrate_clip_threshold(&hl_trace, &hl_truth),
        );
        thresholds.insert(
            "EA".to_string(),
            calibrate_clip_threshold(&ea_trace, &ea_truth),
        );
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
            (
                stored
                    .map(|s| s.queries.iter().any(|(n, _)| n == "PS"))
                    .unwrap_or(false),
                stored
                    .and_then(|s| s.thresholds.get("HL").copied())
                    .unwrap_or(0.5),
                stored
                    .and_then(|s| s.thresholds.get("EA").copied())
                    .unwrap_or(0.5),
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
        let mut records = Vec::new();

        // Bridge sub-second posterior dips before thresholding (6 s
        // minimum duration as in Table 3).
        let hl_smooth = f1_bayes::metrics::accumulate(&hl, 10);
        let highlights = threshold_segments(&hl_smooth, hl_theta, 60, 30);
        for seg in &highlights {
            records.push(EventRecord {
                kind: "highlight".into(),
                start: seg.start,
                end: seg.end,
                driver: None,
            });
        }
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
                        records.push(EventRecord {
                            kind: kind.to_string(),
                            start: s,
                            end: e,
                            driver: None,
                        });
                        n_sub += 1;
                    }
                }
            }
        }
        // Excited speech from the EA node.
        // Excited speech: precision-weighted threshold, 4 s minimum (the
        // retrieval layer prefers clean answers over exhaustive ones).
        let excited = threshold_segments(&ea, (ea_theta + 0.15).min(0.9), 40, 20);
        for seg in &excited {
            records.push(EventRecord {
                kind: "excited".into(),
                start: seg.start,
                end: seg.end,
                driver: None,
            });
        }
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

    /// Spans where a driver is visibly involved: captions naming the
    /// driver, padded by five seconds on each side.
    fn driver_visible(&self, video: &str, driver: &str) -> Result<Vec<(usize, usize)>> {
        let pad = 50usize;
        Ok(self
            .catalog
            .events(video, None)?
            .into_iter()
            .filter(|e| e.driver.as_deref() == Some(driver))
            .map(|e| (e.start.saturating_sub(pad), e.end + pad))
            .collect())
    }

    /// Answers a §5.6 retrieval query over an annotated video.
    pub fn query(&self, video: &str, text: &str) -> Result<Vec<RetrievedSegment>> {
        let q = parse_query(text)?;
        self.execute_cached(video, &q, &ExecBudget::unlimited())
    }

    /// Runs a full statement: `RETRIEVE …` answers, `PROFILE RETRIEVE …`
    /// answers with a measured span tree, `EXPLAIN RETRIEVE …` returns
    /// the plan shape without executing.
    pub fn run(&self, video: &str, text: &str) -> Result<QueryOutput> {
        self.run_with_budget(video, text, &ExecBudget::unlimited())
    }

    /// [`run`](Self::run) under an execution budget: the kernel checks
    /// `budget`'s fuel, deadline and cancellation token at MIL loop
    /// back-edges, so a request-layer deadline actually interrupts a
    /// slow query instead of merely being reported late. This is the
    /// entry point the serving layer uses.
    pub fn run_with_budget(
        &self,
        video: &str,
        text: &str,
        budget: &ExecBudget,
    ) -> Result<QueryOutput> {
        match parse_statement(text)? {
            Statement::Retrieve(q) => Ok(QueryOutput::Segments(
                self.execute_cached(video, &q, budget)?,
            )),
            Statement::Profile(q) => Ok(QueryOutput::Profile(
                self.profile_cached(video, &q, budget)?,
            )),
            Statement::Explain(q) => Ok(QueryOutput::Plan(self.explain(video, &q))),
        }
    }

    /// Runs a plain `RETRIEVE` against *every* catalog video (the
    /// `video = "*"` form the scatter-gather router fans out per shard)
    /// and returns the answers grouped by video, sorted by name. All
    /// per-video executions share `budget`, so a deadline bounds the
    /// whole sweep, not each video. `PROFILE`/`EXPLAIN` are per-video
    /// diagnostics and are rejected here with a parse error.
    pub fn run_multi_with_budget(&self, text: &str, budget: &ExecBudget) -> Result<QueryOutput> {
        let q = match parse_statement(text)? {
            Statement::Retrieve(q) => q,
            Statement::Profile(_) | Statement::Explain(_) => {
                return Err(crate::CobraError::Parse(
                    "PROFILE/EXPLAIN cannot target all videos ('*'); name one video".into(),
                ))
            }
        };
        let mut groups = Vec::new();
        for video in self.catalog.videos() {
            let segments = self.execute_cached(&video, &q, budget)?;
            groups.push(VideoSegments { video, segments });
        }
        Ok(QueryOutput::Multi(groups))
    }

    /// The one path through the result cache: capture the video's
    /// stamp, serve a stored answer when the stamp proves the event
    /// layer unchanged, otherwise `execute` and (on success only) store
    /// the answer under the pre-execution stamp. The stamp is captured
    /// *before* execution reads any event data — a write racing the
    /// execution then commits past the captured stamp, so the (possibly
    /// torn) answer can never be served after the write is
    /// acknowledged. Failed queries are never cached.
    fn through_result_cache(
        &self,
        video: &str,
        q: &Query,
        execute: impl FnOnce() -> Result<Vec<RetrievedSegment>>,
    ) -> Result<Vec<RetrievedSegment>> {
        let normalized = q.normalized();
        let stamp = self.catalog.video_stamp(video);
        let current = std::slice::from_ref(&stamp);
        if let Some(hit) = self.results.lookup(video, &normalized, Some(current)) {
            return Ok(hit.value.clone());
        }
        let segments = execute()?;
        let bytes: usize = segments
            .iter()
            .map(|s| {
                std::mem::size_of::<RetrievedSegment>()
                    + s.label.len()
                    + s.driver.as_deref().map_or(0, str::len)
            })
            .sum();
        self.results
            .store(video, &normalized, segments.clone(), vec![stamp], bytes);
        Ok(segments)
    }

    /// [`execute_traced`](Self::execute_traced) behind the result cache.
    fn execute_cached(
        &self,
        video: &str,
        q: &Query,
        budget: &ExecBudget,
    ) -> Result<Vec<RetrievedSegment>> {
        self.through_result_cache(video, q, || self.execute_traced(video, q, None, budget))
    }

    /// Executes `q` and returns the answer together with the span tree
    /// of where time went: conceptual target mapping, Moa compilation,
    /// MIL evaluation, and the kernel operators underneath.
    pub fn profile(&self, video: &str, q: &Query) -> Result<QueryProfile> {
        self.profile_with(video, q, &ExecBudget::unlimited())
    }

    /// [`profile_with`](Self::profile_with) behind the result cache. A
    /// hit returns the cached answer under a span tree whose only child
    /// is a `cache:result` leaf (the probe cost *is* where the time
    /// went); a miss profiles normally — identical tree to the uncached
    /// path — and stores the answer for subsequent statements sharing
    /// the normalized query text, `RETRIEVE` or `PROFILE` alike.
    fn profile_cached(&self, video: &str, q: &Query, budget: &ExecBudget) -> Result<QueryProfile> {
        let mut timer = SpanTimer::start("query");
        let probe = Instant::now();
        let mut executed = None;
        let segments = self.through_result_cache(video, q, || {
            let profile = self.profile_with(video, q, budget)?;
            executed = Some(profile.span);
            Ok(profile.segments)
        })?;
        let span = executed.unwrap_or_else(|| {
            timer.meta("target", format!("{:?}", q.target));
            timer.meta("video", video);
            timer.child(
                SpanNode::leaf("cache:result", probe.elapsed().as_nanos() as u64)
                    .with_meta("result", "hit")
                    .with_meta("rows", segments.len().to_string()),
            );
            timer.finish()
        });
        Ok(QueryProfile { segments, span })
    }

    fn profile_with(&self, video: &str, q: &Query, budget: &ExecBudget) -> Result<QueryProfile> {
        let mut timer = SpanTimer::start("query");
        timer.meta("target", format!("{:?}", q.target));
        timer.meta("video", video);
        let mut children = Vec::new();
        let segments = self.execute_traced(video, q, Some(&mut children), budget)?;
        for c in children {
            timer.child(c);
        }
        Ok(QueryProfile {
            segments,
            span: timer.finish(),
        })
    }

    /// The plan of `q`: the span-tree shape [`profile`](Self::profile)
    /// would produce, with no execution and all timings zero. For
    /// event-kind targets the `moa:compile` node carries the cost-based
    /// planner's before/after view — the rule-based plan next to the
    /// chosen one, each with per-node cardinality and cost estimates —
    /// plus the plan-cache state at the current cost-model generation.
    /// Read-only: it never executes, stores, or skews cache counters.
    pub fn explain(&self, video: &str, q: &Query) -> SpanNode {
        let conceptual = match event_kind(&q.target) {
            Some(kind) => {
                let choice = self.plan_event_selection(video, kind);
                let cache = if self.plans.peek(video, kind).is_some() {
                    "hit"
                } else {
                    "miss"
                };
                let compile_node = SpanNode::new("moa:compile")
                    .with_meta("mil", choice.mil())
                    .with_meta("cache", cache)
                    .with_meta("generation", self.plans.cost_generation().to_string())
                    .with_child(
                        SpanNode::new("plan:rule_based")
                            .with_meta("est_cost_ns", format!("{:.0}", choice.baseline_cost))
                            .with_meta(
                                "nodes",
                                f1_moa::PlanChoice::render_nodes(&choice.baseline_nodes),
                            ),
                    )
                    .with_child(
                        SpanNode::new("plan:chosen")
                            .with_meta("est_cost_ns", format!("{:.0}", choice.chosen_cost))
                            .with_meta("threads", choice.threads.to_string())
                            .with_meta("rationale", choice.rationale.as_str())
                            .with_meta(
                                "nodes",
                                f1_moa::PlanChoice::render_nodes(&choice.chosen_nodes),
                            ),
                    );
                SpanNode::new("conceptual:select_events")
                    .with_meta("kind", kind)
                    .with_child(compile_node)
                    .with_child(SpanNode::new("mil:eval"))
                    .with_child(SpanNode::new("fetch:results"))
            }
            None => match &q.target {
                Target::Leader => SpanNode::new("conceptual:leader_segments"),
                _ => SpanNode::new("conceptual:driver_visible"),
            },
        };
        let mut root = SpanNode::new("query")
            .with_meta("target", format!("{:?}", q.target))
            .with_child(conceptual);
        if q.at_pitlane {
            root = root.with_child(SpanNode::new("filter:pitlane"));
        }
        if q.driver.is_some() && q.target != Target::Segments {
            root = root.with_child(SpanNode::new("filter:driver"));
        }
        root
    }

    fn execute_traced(
        &self,
        video: &str,
        q: &Query,
        mut spans: Option<&mut Vec<SpanNode>>,
        budget: &ExecBudget,
    ) -> Result<Vec<RetrievedSegment>> {
        let mut out: Vec<RetrievedSegment> = if let Some(kind) = event_kind(&q.target) {
            self.select_events(video, kind, spans.as_deref_mut(), budget)?
        } else {
            match &q.target {
                Target::Leader => {
                    let t = Instant::now();
                    let segs = self.leader_segments(video)?;
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.push(SpanNode::leaf(
                            "conceptual:leader_segments",
                            t.elapsed().as_nanos() as u64,
                        ));
                    }
                    segs
                }
                _ => {
                    let driver = q.driver.as_deref().ok_or_else(|| {
                        crate::CobraError::Parse("RETRIEVE SEGMENTS requires WITH DRIVER".into())
                    })?;
                    let t = Instant::now();
                    let segs: Vec<RetrievedSegment> = self
                        .driver_visible(video, driver)?
                        .into_iter()
                        .map(|(start, end)| RetrievedSegment {
                            start,
                            end,
                            label: "segment".into(),
                            driver: Some(driver.to_string()),
                        })
                        .collect();
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.push(SpanNode::leaf(
                            "conceptual:driver_visible",
                            t.elapsed().as_nanos() as u64,
                        ));
                    }
                    return Ok(segs);
                }
            }
        };

        // Pit-lane restriction via the rule extension: join the target
        // with overlapping pit-stop captions.
        if q.at_pitlane {
            let t = Instant::now();
            out = self.join_with_pitlane(video, out)?;
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(
                    SpanNode::leaf("filter:pitlane", t.elapsed().as_nanos() as u64)
                        .with_meta("kept", out.len().to_string()),
                );
            }
        }

        // Driver restriction: direct attribute when present, otherwise
        // overlap with the driver's visibility spans (the combination of
        // Bayesian fusion and text recognition the paper advertises).
        if let Some(driver) = &q.driver {
            let t = Instant::now();
            let visible = self.driver_visible(video, driver)?;
            out.retain(|seg| {
                seg.driver.as_deref() == Some(driver.as_str())
                    || (seg.driver.is_none()
                        && visible.iter().any(|&(s, e)| s < seg.end && seg.start < e))
            });
            for seg in &mut out {
                seg.driver.get_or_insert_with(|| driver.clone());
            }
            if let Some(spans) = spans {
                spans.push(
                    SpanNode::leaf("filter:driver", t.elapsed().as_nanos() as u64)
                        .with_meta("kept", out.len().to_string()),
                );
            }
        }
        Ok(out)
    }

    /// Plans the event-kind selection with the cost-based planner
    /// against the kernel's current measured statistics (per-opcode
    /// ns/row, index hit rate, morsel throughput, tail sketches).
    fn plan_event_selection(&self, video: &str, kind: &str) -> f1_moa::PlanChoice {
        let kind_bat = format!("{video}.ev.kind");
        let expr = f1_moa::MoaExpr::collection(&kind_bat)
            .select(f1_moa::Predicate::Eq(f1_monet::Atom::str(kind)));
        let stats = self.kernel.plan_stats(&[kind_bat.as_str()]);
        let cfg = f1_moa::PlannerConfig {
            max_threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8),
        };
        f1_moa::plan(expr, &stats, &cfg)
    }

    /// Compiles the planner's chosen event selection to the three
    /// column-join MIL programs, carrying the `threadcnt` prefix when
    /// the planner chose parallelism.
    fn compile_event_plan(&self, video: &str, kind: &str) -> Arc<CompiledPlan> {
        let choice = self.plan_event_selection(video, kind);
        let sel_mil = choice.mil();
        let prefix = choice.mil_prefix();
        let column_programs = ["start", "end", "driver"].map(|col| {
            format!("{prefix}RETURN (({sel_mil}).mirror).join(bat(\"{video}.ev.{col}\"));")
        });
        Arc::new(CompiledPlan {
            sel_mil,
            column_programs,
            threads: choice.threads,
            generation: self.plans.cost_generation(),
            baseline_cost: choice.baseline_cost,
            chosen_cost: choice.chosen_cost,
        })
    }

    /// Advances the cost-model generation once the kernel has observed
    /// roughly twice as many MIL evaluations as at the previous refresh
    /// (with a small floor so a barely-warm system doesn't churn).
    /// Cached plans from the old generation become unreachable and
    /// every lookup replans against the fresher measurements.
    fn maybe_refresh_plan_costs(&self) {
        const PLAN_REFRESH_MIN_EVALS: u64 = 32;
        let evals = self.kernel.metrics().mil_evals.get();
        let last = self.plan_cost_evals.load(Ordering::Acquire);
        if evals >= PLAN_REFRESH_MIN_EVALS.max(last.saturating_mul(2))
            && self
                .plan_cost_evals
                .compare_exchange(last, evals, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.plans.advance_cost_generation();
        }
    }

    /// Forces a cost-model refresh (the doubling policy's manual lever,
    /// used by benchmarks and tests): advances the plan-cache generation
    /// so every subsequent lookup replans against current statistics.
    /// Returns the new generation.
    pub fn refresh_plan_costs(&self) -> u64 {
        self.plan_cost_evals
            .store(self.kernel.metrics().mil_evals.get(), Ordering::Release);
        self.plans.advance_cost_generation()
    }

    /// Answers an event-kind retrieval through all three levels: a Moa
    /// selection over the event layer's kind column is compiled to MIL,
    /// and the MIL program position-joins the matching rows against the
    /// parallel start/end/driver columns on the kernel's vectorized
    /// operators. When profiling, `spans` receives the per-level tree,
    /// with kernel operator timings taken from the metrics registry
    /// delta around the evaluation.
    fn select_events(
        &self,
        video: &str,
        kind: &str,
        spans: Option<&mut Vec<SpanNode>>,
        budget: &ExecBudget,
    ) -> Result<Vec<RetrievedSegment>> {
        self.catalog.video(video)?;
        let mut node = SpanTimer::start("conceptual:select_events");
        node.meta("kind", kind);
        let kind_bat = format!("{video}.ev.kind");
        if !self.kernel.has_bat(&kind_bat) {
            if let Some(spans) = spans {
                spans.push(node.finish());
            }
            return Ok(Vec::new());
        }

        // Conceptual → logical: a Moa selection over the kind column,
        // through the cost-based planner. The plan depends only on
        // (video, kind, cost-model generation), so a cached compilation
        // is reused verbatim until the generation advances; the
        // execution budget below still applies.
        self.maybe_refresh_plan_costs();
        let t = Instant::now();
        let (plan, compile_cached) = match self.plans.get(video, kind) {
            Some(plan) => (plan, "hit"),
            None => {
                let plan = self.compile_event_plan(video, kind);
                self.plans.store(video, kind, Arc::clone(&plan));
                (plan, "miss")
            }
        };
        node.child(
            SpanNode::leaf("moa:compile", t.elapsed().as_nanos() as u64)
                .with_meta("mil", plan.sel_mil.as_str())
                .with_meta("cache", compile_cached)
                .with_meta("generation", plan.generation.to_string())
                .with_meta("threads", plan.threads.to_string()),
        );

        // Logical → physical: mirror the matching oids and join them
        // against each event column.
        let before = self.kernel.metrics().registry().snapshot();
        let t = Instant::now();
        let mut columns = Vec::new();
        for program in &plan.column_programs {
            columns.push(self.kernel.eval_mil_guarded(program, budget)?);
        }
        let mil_ns = t.elapsed().as_nanos() as u64;
        let delta = self.kernel.metrics().registry().snapshot().delta(&before);
        // Estimated (planner) next to measured (wall clock), so PROFILE
        // exposes how far the cost model is off.
        let mut mil_node = SpanNode::leaf("mil:eval", mil_ns)
            .with_meta("plan_est_ns", format!("{:.0}", plan.chosen_cost));
        for (key, h) in delta.histograms_named("mil.op_ns") {
            if h.count() == 0 {
                continue;
            }
            mil_node = mil_node.with_child(
                SpanNode::leaf(
                    &format!("kernel:{}", key.label("op").unwrap_or("op")),
                    h.sum(),
                )
                .with_meta("calls", h.count().to_string()),
            );
        }
        node.child(mil_node);

        // Materialize the answer from the joined columns.
        let t = Instant::now();
        let label = kind.trim_start_matches("caption:").to_string();
        let starts = columns[0].as_bat()?;
        let ends = columns[1].as_bat()?;
        let drivers = columns[2].as_bat()?;
        let (starts, ends, drivers) = (starts.read(), ends.read(), drivers.read());
        let mut out = Vec::with_capacity(starts.len());
        for i in 0..starts.len() {
            let driver = drivers.tail_at(i)?.as_str()?.to_string();
            out.push(RetrievedSegment {
                start: starts.tail_at(i)?.as_int()?.max(0) as usize,
                end: ends.tail_at(i)?.as_int()?.max(0) as usize,
                label: label.clone(),
                driver: (!driver.is_empty()).then_some(driver),
            });
        }
        node.child(
            SpanNode::leaf("fetch:results", t.elapsed().as_nanos() as u64)
                .with_meta("rows", out.len().to_string()),
        );
        if let Some(spans) = spans {
            spans.push(node.finish());
        }
        Ok(out)
    }

    /// Leading spans from classification captions: the shown leader holds
    /// the lead until the next classification caption.
    fn leader_segments(&self, video: &str) -> Result<Vec<RetrievedSegment>> {
        let mut caps = self.catalog.events(video, Some("caption:classification"))?;
        caps.sort_by_key(|e| e.start);
        let info = self.catalog.video(video)?;
        let mut out = Vec::new();
        for (i, c) in caps.iter().enumerate() {
            let end = caps.get(i + 1).map(|n| n.start).unwrap_or(info.n_clips);
            out.push(RetrievedSegment {
                start: c.start,
                end,
                label: "leading".into(),
                driver: c.driver.clone(),
            });
        }
        Ok(out)
    }

    /// The rule-extension join: keep segments overlapping a pit-stop
    /// caption, carrying over the pit driver.
    fn join_with_pitlane(
        &self,
        video: &str,
        segments: Vec<RetrievedSegment>,
    ) -> Result<Vec<RetrievedSegment>> {
        let mut engine = RuleEngine::new();
        engine.add_rule(Rule {
            name: "at_pitlane".into(),
            conditions: vec![
                Condition::new("candidate", vec![Term::var("i")]),
                Condition::new("pit_stop", vec![Term::var("d")]),
            ],
            temporal: vec![TemporalConstraint {
                a: 0,
                b: 1,
                relations: vec![
                    AllenRelation::Overlaps,
                    AllenRelation::OverlappedBy,
                    AllenRelation::During,
                    AllenRelation::Contains,
                    AllenRelation::Starts,
                    AllenRelation::StartedBy,
                    AllenRelation::Finishes,
                    AllenRelation::FinishedBy,
                    AllenRelation::Equal,
                ],
            }],
            head: "at_pitlane".into(),
            head_args: vec![Term::var("i"), Term::var("d")],
            interval: IntervalSpec::Of(0),
        })?;
        let mut facts = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            facts.push(Fact::new(
                "candidate",
                vec![Value::Int(i as i64)],
                Interval::new(seg.start, seg.end),
            ));
        }
        for pit in self.catalog.events(video, Some("caption:pit_stop"))? {
            facts.push(Fact::new(
                "pit_stop",
                vec![Value::str(pit.driver.unwrap_or_default())],
                Interval::new(pit.start, pit.end),
            ));
        }
        let derived = engine.run(facts)?;
        let mut out = Vec::new();
        for f in derived.iter().filter(|f| f.predicate == "at_pitlane") {
            let Value::Int(i) = &f.args[0] else { continue };
            let mut seg = segments[*i as usize].clone();
            if let Value::Str(d) = &f.args[1] {
                if !d.is_empty() && seg.driver.is_none() {
                    seg.driver = Some(d.clone());
                }
            }
            if !out.contains(&seg) {
                out.push(seg);
            }
        }
        out.sort_by_key(|s: &RetrievedSegment| s.start);
        Ok(out)
    }
}

impl Drop for Vdbms {
    /// Stops the background checkpointer. Deliberately does *not* flush
    /// or checkpoint: acknowledged mutations are already durable in the
    /// WAL, and drop must behave no better than a crash so the recovery
    /// path stays honest. Graceful shutdowns that want a clean manifest
    /// call [`checkpoint`](Self::checkpoint)/[`flush`](Self::flush)
    /// explicitly (as `cobra-serve` does on drain).
    fn drop(&mut self) {
        self.ckpt_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.ckpt_handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
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
    let highlight = scenario.highlights().iter().any(|h| h.contains(clip));
    seq.set(t, nodes.highlight, Obs::Hard(highlight as usize));
    seq.set(
        t,
        nodes.excited,
        Obs::Hard(scenario.is_excited(clip) as usize),
    );
    let kind = scenario.event_at(clip).map(|e| e.kind);
    seq.set(
        t,
        nodes.start,
        Obs::Hard(matches!(kind, Some(EventKind::Start)) as usize),
    );
    seq.set(
        t,
        nodes.fly_out,
        Obs::Hard(matches!(kind, Some(EventKind::FlyOut)) as usize),
    );
    if let Some(ps) = nodes.passing {
        seq.set(
            t,
            ps,
            Obs::Hard(matches!(kind, Some(EventKind::Passing)) as usize),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::synth::scenario::{RaceProfile, ScenarioConfig};

    /// End-to-end harness on a short German-profile race. Shared by the
    /// tests below; kept small so the suite stays fast.
    fn system() -> (Vdbms, RaceScenario) {
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 180));
        let vdbms = Vdbms::new();
        vdbms.ingest("german", &scenario).unwrap();
        (vdbms, scenario)
    }

    fn training_windows(scenario: &RaceScenario) -> Vec<Span> {
        // 6 windows of 50 s as in §5.5, clipped to the broadcast.
        let cps = f1_media::time::clips_per_second();
        (0..6)
            .map(|k| {
                let start = k * 25 * cps;
                Span::new(start, (start + 50 * cps).min(scenario.n_clips))
            })
            .filter(|w| !w.is_empty())
            .collect()
    }

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

    #[test]
    fn full_pipeline_ingest_train_annotate_query() {
        let (vdbms, scenario) = system();
        let report = vdbms.ingest("german2", &scenario).unwrap();
        assert_eq!(report.n_clips, scenario.n_clips);
        assert!(report.n_captions > 0, "captions should be recognized");
        assert!(report.n_keyword_spots > 0);
        assert_eq!(report.extraction_method, "full");

        vdbms
            .train_highlight_net("german", &scenario, &training_windows(&scenario), true)
            .unwrap();
        let ann = vdbms.annotate("german").unwrap();
        assert!(ann.n_highlights > 0, "no highlights detected");
        assert!(ann.n_excited > 0, "no excited speech detected");

        // Detected highlights overlap ground truth far better than chance.
        let truth = scenario.highlights();
        let hits = vdbms
            .query("german", "RETRIEVE HIGHLIGHTS")
            .unwrap()
            .into_iter()
            .filter(|seg| truth.iter().any(|t| t.start < seg.end && seg.start < t.end))
            .count();
        let total = vdbms.query("german", "RETRIEVE HIGHLIGHTS").unwrap().len();
        assert!(
            hits * 2 > total,
            "only {hits}/{total} highlight detections overlap truth"
        );

        // Caption-backed queries answer from recognized text.
        let pits = vdbms.query("german", "RETRIEVE PITSTOPS").unwrap();
        assert!(!pits.is_empty());
        assert!(pits.iter().all(|p| p.driver.is_some()));

        // Driver filter narrows pit stops to the right driver.
        let driver = pits[0].driver.clone().unwrap();
        let filtered = vdbms
            .query(
                "german",
                &format!("RETRIEVE PITSTOPS WITH DRIVER \"{driver}\""),
            )
            .unwrap();
        assert!(!filtered.is_empty());
        assert!(filtered
            .iter()
            .all(|p| p.driver.as_deref() == Some(driver.as_str())));

        // One leading span per recognized classification caption, each
        // carrying its driver. (The synthetic schedule is not guaranteed
        // to include classification captions, so assert the mapping
        // rather than non-emptiness.)
        let n_class = vdbms
            .catalog
            .events("german", Some("caption:classification"))
            .unwrap()
            .len();
        let leaders = vdbms.query("german", "RETRIEVE LEADER").unwrap();
        assert_eq!(leaders.len(), n_class);
        assert!(leaders.iter().all(|l| l.driver.is_some()));

        // Winner query returns the winner caption span.
        let winner = vdbms.query("german", "RETRIEVE WINNER").unwrap();
        assert_eq!(winner.len(), 1);
    }

    #[test]
    fn pitlane_join_uses_the_rule_extension() {
        let (vdbms, scenario) = system();
        vdbms
            .train_highlight_net("german", &scenario, &training_windows(&scenario), false)
            .unwrap();
        vdbms.annotate("german").unwrap();
        let all = vdbms.query("german", "RETRIEVE EXCITED").unwrap();
        let at_pit = vdbms
            .query("german", "RETRIEVE EXCITED AT PITLANE")
            .unwrap();
        assert!(at_pit.len() <= all.len());
        // Every pit-lane-restricted segment overlaps a pit caption.
        let pits = vdbms
            .catalog
            .events("german", Some("caption:pit_stop"))
            .unwrap();
        for seg in &at_pit {
            assert!(pits.iter().any(|p| p.start < seg.end && seg.start < p.end));
        }
    }

    #[test]
    fn segments_query_requires_driver() {
        let (vdbms, _) = system();
        assert!(vdbms.query("german", "RETRIEVE SEGMENTS").is_err());
        let segs = vdbms
            .query("german", "RETRIEVE SEGMENTS WITH DRIVER \"SCHUMACHER\"")
            .unwrap();
        // Driver visibility derives from captions; may be empty only if
        // no caption mentions the driver.
        for s in &segs {
            assert_eq!(s.driver.as_deref(), Some("SCHUMACHER"));
            assert!(s.end > s.start);
        }
    }

    #[test]
    fn annotation_requires_a_trained_net() {
        let (vdbms, _) = system();
        assert!(vdbms.annotate("german").is_err());
    }

    #[test]
    fn queries_against_unknown_videos_fail() {
        let vdbms = Vdbms::new();
        assert!(vdbms.query("ghost", "RETRIEVE HIGHLIGHTS").is_err());
    }
}
