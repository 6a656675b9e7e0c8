//! The [`StorageBackend`] trait and its two implementations.
//!
//! The engine core talks to storage through `Arc<dyn StorageBackend>`:
//! [`MemBackend`] keeps every call a no-op (the pre-durability
//! behaviour, zero overhead), while [`FileBackend`] implements the
//! log/checkpoint/recover protocol described at the crate root.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cobra_obs::{Counter, Gauge, Registry};
use f1_monet::bat::Bat;
use parking_lot::Mutex;

use crate::snapshot::{
    encode_bat, encode_manifest, read_bat_file, read_manifest_file, write_atomic, Manifest,
    ManifestBat, ManifestVideo,
};
use crate::wal::{read_wal_file, FsyncPolicy, WalOp, WalWriter};
use crate::{StoreConfig, StoreError, StoreResult};

const MANIFEST_NAME: &str = "MANIFEST";

/// A live BAT handed to the backend for checkpointing: a clone of the
/// kernel's column data plus the *source* identity `(src_id,
/// src_version)` of the live BAT it was cloned from, which is what the
/// dirty-tracking baseline compares against.
#[derive(Debug)]
pub struct NamedBat {
    /// Kernel BAT name.
    pub name: String,
    /// A clone of the live BAT (clones get fresh ids; that is fine, the
    /// snapshot only needs the column data).
    pub bat: Bat,
    /// `id()` of the live kernel BAT.
    pub src_id: u64,
    /// `version()` of the live kernel BAT.
    pub src_version: u64,
}

/// Everything a checkpoint persists, collected under the commit lock.
#[derive(Debug, Default)]
pub struct SnapshotState {
    /// Catalog generation at the cut.
    pub catalog_gen: u64,
    /// The video registry.
    pub videos: Vec<ManifestVideo>,
    /// Every catalog-owned BAT.
    pub bats: Vec<NamedBat>,
}

/// What recovery found at open.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The boot epoch of this process (strictly greater than any prior
    /// boot against the same data dir; 1 for a fresh dir, 0 for
    /// [`MemBackend`]).
    pub epoch: u64,
    /// Catalog generation recorded by the manifest (replay advances it
    /// further).
    pub catalog_gen: u64,
    /// Videos from the manifest.
    pub videos: Vec<ManifestVideo>,
    /// BATs loaded from snapshot files, ready to install in the kernel.
    pub bats: Vec<(String, Bat)>,
    /// WAL tail operations to replay, in log order.
    pub replay: Vec<WalOp>,
    /// Number of replayed (non-boot) records.
    pub replayed: u64,
    /// True when the WAL tail was torn and trailing bytes were dropped.
    pub torn_tail: bool,
    /// WAL files scanned.
    pub wal_files: u64,
    /// Valid WAL bytes scanned.
    pub wal_bytes: u64,
}

/// What one checkpoint did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOutcome {
    /// BAT files written (dirty since the previous checkpoint).
    pub bats_written: u64,
    /// BATs whose `(id, version)` was unchanged — their existing file
    /// was re-referenced without rewriting.
    pub bats_skipped: u64,
    /// Snapshot bytes written (BAT files + manifest).
    pub bytes_written: u64,
    /// Pre-cut WAL files deleted.
    pub wal_files_retired: u64,
    /// The WAL sequence number the snapshot now covers.
    pub wal_seq: u64,
}

/// A point-in-time summary of the storage layer, for `stats` and
/// benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// True for [`FileBackend`].
    pub durable: bool,
    /// Boot epoch.
    pub epoch: u64,
    /// WAL records appended this process.
    pub wal_records: u64,
    /// WAL bytes appended this process.
    pub wal_bytes: u64,
    /// `fdatasync` calls issued by the WAL.
    pub wal_fsyncs: u64,
    /// Records appended since the last checkpoint cut.
    pub pending_records: u64,
    /// Checkpoints completed this process.
    pub checkpoints: u64,
    /// Records replayed by recovery at boot.
    pub recovery_replayed: u64,
    /// BATs loaded from snapshot files at boot.
    pub recovery_bats_loaded: u64,
    /// True when boot recovery discarded a torn WAL tail.
    pub recovery_torn_tail: bool,
}

/// The storage engine as the core sees it.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// True when this backend persists state across restarts.
    fn is_durable(&self) -> bool;

    /// The boot epoch (0 for memory-only backends).
    fn epoch(&self) -> u64;

    /// Takes the recovery state captured at open, if any. Called once by
    /// the engine during boot; later calls return `None`.
    fn take_recovery(&self) -> Option<Recovery>;

    /// Appends one operation to the log and makes it durable per policy.
    /// Must be called *before* applying the mutation in memory; a
    /// returned error means the mutation must not be applied or
    /// acknowledged.
    fn log(&self, op: &WalOp) -> StoreResult<()>;

    /// Records appended since the last checkpoint cut (the automatic
    /// checkpoint trigger watches this).
    fn pending_records(&self) -> u64;

    /// Starts a checkpoint: rotates the WAL and remembers the cut.
    /// Must run under the caller's commit lock (no concurrent [`log`]
    /// between the rotation and the state collection). Returns `false`
    /// when this backend has nothing to checkpoint.
    ///
    /// [`log`]: StorageBackend::log
    fn begin_checkpoint(&self) -> StoreResult<bool>;

    /// Completes a checkpoint begun by
    /// [`begin_checkpoint`](StorageBackend::begin_checkpoint), off-lock:
    /// writes dirty BATs, commits the manifest, retires pre-cut WAL
    /// files.
    fn complete_checkpoint(&self, state: SnapshotState) -> StoreResult<CheckpointOutcome>;

    /// Forces buffered WAL records to disk regardless of fsync policy.
    fn flush(&self) -> StoreResult<()>;

    /// A point-in-time stats summary.
    fn stats(&self) -> StoreStats;
}

// ---------------------------------------------------------------------------
// MemBackend

/// The no-op backend: Cobra's original pure main-memory behaviour.
#[derive(Debug, Default)]
pub struct MemBackend;

impl MemBackend {
    /// A memory-only backend.
    pub fn new() -> Self {
        MemBackend
    }
}

impl StorageBackend for MemBackend {
    fn is_durable(&self) -> bool {
        false
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn take_recovery(&self) -> Option<Recovery> {
        None
    }

    fn log(&self, _op: &WalOp) -> StoreResult<()> {
        Ok(())
    }

    fn pending_records(&self) -> u64 {
        0
    }

    fn begin_checkpoint(&self) -> StoreResult<bool> {
        Ok(false)
    }

    fn complete_checkpoint(&self, _state: SnapshotState) -> StoreResult<CheckpointOutcome> {
        Ok(CheckpointOutcome::default())
    }

    fn flush(&self) -> StoreResult<()> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

// ---------------------------------------------------------------------------
// FileBackend

/// `store.*` metrics registered against the kernel's [`Registry`].
#[derive(Debug)]
struct StoreMetrics {
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    checkpoints: Arc<Counter>,
    ckpt_bats_written: Arc<Counter>,
    ckpt_bats_skipped: Arc<Counter>,
    recovery_replayed: Arc<Gauge>,
    recovery_bats_loaded: Arc<Gauge>,
    epoch: Arc<Gauge>,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            wal_records: registry.counter("store.wal.records", &[]),
            wal_bytes: registry.counter("store.wal.bytes", &[]),
            wal_fsyncs: registry.counter("store.wal.fsyncs", &[]),
            checkpoints: registry.counter("store.checkpoints", &[]),
            ckpt_bats_written: registry.counter("store.checkpoint.bats", &[("result", "written")]),
            ckpt_bats_skipped: registry.counter("store.checkpoint.bats", &[("result", "skipped")]),
            recovery_replayed: registry.gauge("store.recovery.replayed", &[]),
            recovery_bats_loaded: registry.gauge("store.recovery.bats_loaded", &[]),
            epoch: registry.gauge("store.epoch", &[]),
        }
    }
}

/// The previous checkpoint's identity for one BAT name.
#[derive(Debug, Clone)]
struct BaselineEntry {
    src_id: u64,
    src_version: u64,
    file: String,
}

/// The cut recorded by `begin_checkpoint`, consumed by
/// `complete_checkpoint`.
#[derive(Debug)]
struct CutState {
    wal_seq: u64,
    pending_at_cut: u64,
    /// Indices of pre-cut WAL files to delete once the manifest commits.
    retired: Vec<u64>,
}

/// The durable backend: WAL + snapshots in one data directory.
pub struct FileBackend {
    dir: PathBuf,
    epoch: u64,
    policy: FsyncPolicy,
    wal: Mutex<WalWriter>,
    wal_index: AtomicU64,
    /// Indices of WAL files currently on disk (ascending). Checkpoints
    /// retire from this list instead of probing every index ever used.
    live_wal: Mutex<Vec<u64>>,
    pending: AtomicU64,
    ckpt_counter: AtomicU64,
    recovery: Mutex<Option<Recovery>>,
    recovery_stats: (u64, u64, bool),
    baseline: Mutex<HashMap<String, BaselineEntry>>,
    cut: Mutex<Option<CutState>>,
    manifest: Mutex<Manifest>,
    metrics: StoreMetrics,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    /// Injector behind every `store.*` site of this data directory
    /// (shared with the WAL writers it opens).
    faults: cobra_faults::FaultHandle,
}

impl fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

fn wal_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

fn parse_wal_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Cuts a torn WAL file back to its last intact record and fsyncs, so
/// every subsequent recovery scan reads straight past it.
fn truncate_torn(path: &Path, valid_bytes: u64) -> StoreResult<()> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io("open torn wal", path, e))?;
    f.set_len(valid_bytes)
        .map_err(|e| StoreError::io("truncate torn wal", path, e))?;
    f.sync_data()
        .map_err(|e| StoreError::io("sync torn wal", path, e))?;
    Ok(())
}

impl FileBackend {
    /// Opens (and if necessary creates) the data directory, scans the
    /// manifest and WAL, computes the boot epoch, and readies a fresh
    /// WAL file. The recovery state is retrieved once via
    /// [`take_recovery`](StorageBackend::take_recovery).
    ///
    /// `faults` is the injector of the system this backend belongs to;
    /// pass `FaultHandle::default()` for a backend nobody scripts.
    pub fn open(
        config: &StoreConfig,
        registry: &Registry,
        faults: cobra_faults::FaultHandle,
    ) -> StoreResult<FileBackend> {
        let dir = &config.data_dir;
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create data dir", dir, e))?;

        // Leftover temp files from a crash mid-checkpoint are garbage.
        for entry in fs::read_dir(dir).map_err(|e| StoreError::io("scan data dir", dir, e))? {
            let entry = entry.map_err(|e| StoreError::io("scan data dir", dir, e))?;
            if entry.path().extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }

        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = if manifest_path.exists() {
            read_manifest_file(&manifest_path)?
        } else {
            Manifest::default()
        };

        // Scan every WAL file in index order. A file with a torn tail is
        // truncated back to its last intact record *now* (and fsynced):
        // a boot after a tear appends acknowledged records to a fresh
        // higher-index file, so leaving the tear in place would make the
        // next recovery stop at it and silently drop those later files.
        // With the tear cut off, continuing into later files is safe —
        // sequence numbers still arrive in order.
        let mut wal_indices: Vec<u64> = fs::read_dir(dir)
            .map_err(|e| StoreError::io("scan data dir", dir, e))?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_wal_index(&e.file_name().to_string_lossy()))
            .collect();
        wal_indices.sort_unstable();

        let mut replay = Vec::new();
        let mut max_boot_epoch = manifest.epoch;
        // Highest sequence number any scanned record occupies — Boot
        // records included, so a reboot never re-issues their seqs.
        let mut max_seq = manifest.wal_seq;
        let mut torn_tail = false;
        let mut wal_bytes = 0u64;
        let wal_files = wal_indices.len() as u64;
        for &idx in &wal_indices {
            let path = wal_path(dir, idx);
            let scan = read_wal_file(&path)?;
            wal_bytes += scan.valid_bytes;
            for (seq, op) in scan.records {
                max_seq = max_seq.max(seq);
                if let WalOp::Boot { epoch } = op {
                    max_boot_epoch = max_boot_epoch.max(epoch);
                } else if seq > manifest.wal_seq {
                    replay.push((seq, op));
                }
            }
            if scan.torn {
                torn_tail = true;
                truncate_torn(&path, scan.valid_bytes)?;
            }
        }
        // Scan order already yields ascending seqs; the stable sort is a
        // belt against WALs written by older (seq-reusing) builds.
        replay.sort_by_key(|(seq, _)| *seq);
        let epoch = max_boot_epoch + 1;
        let next_seq = max_seq + 1;

        // Load snapshot BATs and seed the dirty-tracking baseline with
        // their freshly assigned identities (the same `Bat` values are
        // handed to the engine, so the ids stay comparable).
        let mut bats = Vec::with_capacity(manifest.bats.len());
        let mut baseline = HashMap::with_capacity(manifest.bats.len());
        for mb in &manifest.bats {
            let bat = read_bat_file(&dir.join(&mb.file))?;
            baseline.insert(
                mb.name.clone(),
                BaselineEntry {
                    src_id: bat.id(),
                    src_version: bat.version(),
                    file: mb.file.clone(),
                },
            );
            bats.push((mb.name.clone(), bat));
        }

        // Always start a fresh WAL file: appending after a torn tail
        // would hide new records behind garbage.
        let next_index = wal_indices.last().copied().unwrap_or(0) + 1;
        let mut writer = WalWriter::open(&wal_path(dir, next_index), next_seq, config.fsync)?
            .with_faults(faults.clone());
        let boot = writer.append(&WalOp::Boot { epoch })?;
        writer.flush()?;
        let mut live_wal = wal_indices;
        live_wal.push(next_index);

        let replayed = replay.len() as u64;
        let recovery = Recovery {
            epoch,
            catalog_gen: manifest.catalog_gen,
            videos: manifest.videos.clone(),
            bats,
            replay: replay.into_iter().map(|(_, op)| op).collect(),
            replayed,
            torn_tail,
            wal_files,
            wal_bytes,
        };

        let metrics = StoreMetrics::new(registry);
        metrics.epoch.set(epoch as i64);
        metrics.recovery_replayed.set(replayed as i64);
        metrics.recovery_bats_loaded.set(recovery.bats.len() as i64);
        metrics.wal_records.inc();
        metrics.wal_bytes.add(boot.bytes);
        metrics.wal_fsyncs.inc();

        Ok(FileBackend {
            dir: dir.clone(),
            epoch,
            policy: config.fsync,
            wal: Mutex::new(writer),
            wal_index: AtomicU64::new(next_index),
            live_wal: Mutex::new(live_wal),
            pending: AtomicU64::new(replayed),
            ckpt_counter: AtomicU64::new(0),
            recovery_stats: (replayed, recovery.bats.len() as u64, torn_tail),
            recovery: Mutex::new(Some(recovery)),
            baseline: Mutex::new(baseline),
            cut: Mutex::new(None),
            manifest: Mutex::new(manifest),
            metrics,
            records: AtomicU64::new(1),
            bytes: AtomicU64::new(boot.bytes),
            fsyncs: AtomicU64::new(1),
            checkpoints: AtomicU64::new(0),
            faults,
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_bat_file(&self, path: &Path, bytes: &[u8]) -> StoreResult<()> {
        let mut f = fs::File::create(path).map_err(|e| StoreError::io("create bat", path, e))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("write bat", path, e))?;
        f.sync_data()
            .map_err(|e| StoreError::io("sync bat", path, e))?;
        Ok(())
    }

    /// Deletes snapshot files not referenced by `keep` (best-effort; a
    /// leaked file wastes space but never corrupts recovery, since only
    /// the manifest gives files meaning).
    fn gc_unreferenced(&self, keep: &Manifest) {
        let referenced: std::collections::HashSet<&str> =
            keep.bats.iter().map(|b| b.file.as_str()).collect();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".bat") && !referenced.contains(name.as_str()) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

impl StorageBackend for FileBackend {
    fn is_durable(&self) -> bool {
        true
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn take_recovery(&self) -> Option<Recovery> {
        self.recovery.lock().take()
    }

    fn log(&self, op: &WalOp) -> StoreResult<()> {
        let mut wal = self.wal.lock();
        let appended = wal.append(op)?;
        drop(wal);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(appended.bytes, Ordering::Relaxed);
        self.metrics.wal_records.inc();
        self.metrics.wal_bytes.add(appended.bytes);
        if appended.synced {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.metrics.wal_fsyncs.inc();
        }
        self.pending.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn pending_records(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    fn begin_checkpoint(&self) -> StoreResult<bool> {
        let mut cut = self.cut.lock();
        if cut.is_some() {
            return Err(StoreError::Protocol("checkpoint already in progress"));
        }
        let mut wal = self.wal.lock();
        wal.flush()?;
        let cut_seq = wal.last_seq();
        let old_index = self.wal_index.load(Ordering::Relaxed);
        let new_index = old_index + 1;
        let new_writer =
            WalWriter::open(&wal_path(&self.dir, new_index), cut_seq + 1, self.policy)?
                .with_faults(self.faults.clone());
        let _old = std::mem::replace(&mut *wal, new_writer);
        self.wal_index.store(new_index, Ordering::Relaxed);
        drop(wal);

        let retired: Vec<u64> = {
            let mut live = self.live_wal.lock();
            let retired = live.clone();
            live.push(new_index);
            retired
        };
        *cut = Some(CutState {
            wal_seq: cut_seq,
            pending_at_cut: self.pending.load(Ordering::Relaxed),
            retired,
        });
        Ok(true)
    }

    fn complete_checkpoint(&self, state: SnapshotState) -> StoreResult<CheckpointOutcome> {
        let cut = self
            .cut
            .lock()
            .take()
            .ok_or(StoreError::Protocol("complete_checkpoint without begin"))?;
        self.faults.fire("store.checkpoint.write")?;

        let ckpt_n = self.ckpt_counter.fetch_add(1, Ordering::Relaxed);
        let mut outcome = CheckpointOutcome {
            wal_seq: cut.wal_seq,
            ..CheckpointOutcome::default()
        };
        let mut new_entries: Vec<(String, BaselineEntry)> = Vec::with_capacity(state.bats.len());
        let mut manifest_bats = Vec::with_capacity(state.bats.len());
        {
            let baseline = self.baseline.lock();
            for (i, nb) in state.bats.iter().enumerate() {
                let unchanged = baseline
                    .get(&nb.name)
                    .filter(|e| e.src_id == nb.src_id && e.src_version == nb.src_version);
                let file = match unchanged {
                    Some(entry) => {
                        outcome.bats_skipped += 1;
                        self.metrics.ckpt_bats_skipped.inc();
                        entry.file.clone()
                    }
                    None => {
                        let file = format!("ck{}-{}-{}.bat", self.epoch, ckpt_n, i);
                        let bytes = encode_bat(&nb.bat);
                        self.write_bat_file(&self.dir.join(&file), &bytes)?;
                        outcome.bats_written += 1;
                        outcome.bytes_written += bytes.len() as u64;
                        self.metrics.ckpt_bats_written.inc();
                        file
                    }
                };
                manifest_bats.push(ManifestBat {
                    name: nb.name.clone(),
                    file: file.clone(),
                });
                new_entries.push((
                    nb.name.clone(),
                    BaselineEntry {
                        src_id: nb.src_id,
                        src_version: nb.src_version,
                        file,
                    },
                ));
            }
        }

        let manifest = Manifest {
            epoch: self.epoch,
            catalog_gen: state.catalog_gen,
            wal_seq: cut.wal_seq,
            videos: state.videos,
            bats: manifest_bats,
        };
        let bytes = encode_manifest(&manifest);
        // The commit point: crash before this rename keeps the old
        // checkpoint, crash after keeps the new one.
        write_atomic(&self.dir.join(MANIFEST_NAME), &bytes, &self.faults)?;
        outcome.bytes_written += bytes.len() as u64;

        *self.baseline.lock() = new_entries.into_iter().collect();
        *self.manifest.lock() = manifest.clone();
        self.pending.fetch_sub(
            cut.pending_at_cut.min(self.pending.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.metrics.checkpoints.inc();

        self.faults.fire("store.checkpoint.truncate")?;
        {
            let mut live = self.live_wal.lock();
            for &idx in &cut.retired {
                let path = wal_path(&self.dir, idx);
                if fs::remove_file(&path).is_ok() {
                    outcome.wal_files_retired += 1;
                }
                if !path.exists() {
                    live.retain(|&i| i != idx);
                }
            }
        }
        self.gc_unreferenced(&manifest);
        Ok(outcome)
    }

    fn flush(&self) -> StoreResult<()> {
        self.wal.lock().flush()
    }

    fn stats(&self) -> StoreStats {
        let (recovery_replayed, recovery_bats_loaded, recovery_torn_tail) = self.recovery_stats;
        StoreStats {
            durable: true,
            epoch: self.epoch,
            wal_records: self.records.load(Ordering::Relaxed),
            wal_bytes: self.bytes.load(Ordering::Relaxed),
            wal_fsyncs: self.fsyncs.load(Ordering::Relaxed),
            pending_records: self.pending.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recovery_replayed,
            recovery_bats_loaded,
            recovery_torn_tail,
        }
    }
}
