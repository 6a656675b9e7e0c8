//! The VDBMS session: ingest → extract → train → annotate → retrieve.
//!
//! This is the workflow of the paper's Fig. 1: raw video enters, the
//! feature/semantic extraction engines populate the metadata, the DBN
//! extension turns features into events, and the query layer combines
//! Bayesian fusion with recognized text.
//!
//! [`Vdbms`] is the facade over that workflow. This module boots it and
//! owns its state; the workflow's steps are `impl Vdbms` blocks in the
//! `ingest`, `annotate` and `retrieve` modules, whose report types are
//! re-exported here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cobra_store::backend::StorageBackend;
use cobra_store::{CheckpointOutcome, FileBackend, MemBackend, StoreConfig, StoreStats};
use parking_lot::{Mutex, RwLock};

use f1_monet::Kernel;

use crate::cache::{PlanCache, ResultCache};
use crate::catalog::Catalog;
use crate::extensions::{DbnModule, MethodRegistry, NetStore};
use crate::ingest::StreamState;
use crate::query::RetrievedSegment;
use crate::Result;

pub use crate::annotate::AnnotateReport;
pub use crate::ingest::{ChunkReport, IngestReport, MethodAttempt, MethodRank};
pub use crate::retrieve::{QueryOutput, QueryProfile, VideoSegments};

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
    pub(crate) kernel: Arc<Kernel>,
    /// The metadata catalog (shared with the background checkpointer).
    pub catalog: Arc<Catalog>,
    pub(crate) nets: NetStore,
    pub(crate) methods: MethodRegistry,
    /// Compiled-plan and stamp-guarded result caches (§"never recompute
    /// what the system already knows"), shared by every retrieval entry
    /// point.
    pub(crate) plans: PlanCache,
    pub(crate) results: ResultCache<Vec<RetrievedSegment>>,
    /// `mil.evals` reading at the last cost-model refresh; the plan
    /// cache's generation advances once the kernel has observed roughly
    /// twice as many evaluations as when plans were last costed.
    pub(crate) plan_cost_evals: AtomicU64,
    /// What recovery-on-boot replayed; `None` for memory-only boots.
    recovery: Option<RecoveryReport>,
    /// The streams this process has open, by video. A window holds the
    /// lock for its whole duration.
    pub(crate) streams: Mutex<HashMap<String, StreamState>>,
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
            streams: Mutex::new(HashMap::new()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

    /// End-to-end harness on a short German-profile race. Shared by the
    /// tests below; kept small so the suite stays fast.
    fn system() -> (Vdbms, RaceScenario) {
        let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 180));
        let vdbms = Vdbms::new();
        vdbms.ingest("german", &scenario).unwrap();
        (vdbms, scenario)
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
            .train_highlight_net(
                "german",
                &scenario,
                &crate::training_windows(scenario.n_clips),
                true,
            )
            .unwrap();
        let ann = vdbms.annotate("german", "av").unwrap();
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
            .train_highlight_net(
                "german",
                &scenario,
                &crate::training_windows(scenario.n_clips),
                false,
            )
            .unwrap();
        vdbms.annotate("german", "av").unwrap();
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
        assert!(vdbms.annotate("german", "av").is_err());
    }

    #[test]
    fn queries_against_unknown_videos_fail() {
        let vdbms = Vdbms::new();
        assert!(vdbms.query("ghost", "RETRIEVE HIGHLIGHTS").is_err());
    }
}
