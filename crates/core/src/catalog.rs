//! The metadata catalog: Cobra's four content layers on Monet BATs.
//!
//! "The content abstractions, which are stored as metadata, are used to
//! organize, index and retrieve the video source" (§2). The catalog keeps,
//! per registered video:
//!
//! * **raw layer** — a descriptor (clip and frame counts),
//! * **feature layer** — one `[void,dbl]` BAT per feature column
//!   (`<video>.f1` … `<video>.f17`), the 0.1 s evidence values,
//! * **event layer** — detected events in four parallel BATs
//!   (`<video>.ev.kind/start/end/driver`),
//! * **object layer** — drivers referenced by events and captions.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use cobra_store::backend::{NamedBat, SnapshotState, StorageBackend};
use cobra_store::{CheckpointOutcome, ManifestVideo, MemBackend, Recovery, WalEvent, WalOp};
use f1_monet::prelude::*;

use crate::cache::Stamp;
use crate::{CobraError, Result};

/// Raw-layer descriptor of a registered video.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VideoInfo {
    /// Catalog name.
    pub name: String,
    /// Clips in the broadcast (0.1 s grid).
    pub n_clips: usize,
    /// Video frames (25 fps).
    pub n_frames: usize,
}

/// An event-layer entry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventRecord {
    /// Event kind ("highlight", "start", "fly_out", "passing",
    /// "pit_stop", "caption:…", "excited", …).
    pub kind: String,
    /// First clip.
    pub start: usize,
    /// One past the last clip.
    pub end: usize,
    /// Driver name, when known.
    pub driver: Option<String>,
}

impl From<&EventRecord> for WalEvent {
    fn from(e: &EventRecord) -> Self {
        WalEvent {
            kind: e.kind.clone(),
            start: e.start as u64,
            end: e.end as u64,
            driver: e.driver.clone(),
        }
    }
}

impl From<WalEvent> for EventRecord {
    fn from(e: WalEvent) -> Self {
        EventRecord {
            kind: e.kind,
            start: e.start as usize,
            end: e.end as usize,
            driver: e.driver,
        }
    }
}

/// A condvar-backed broadcast of a monotone counter. The catalog's feed
/// carries its commit seq ([`data_version`](Catalog::data_version)):
/// every acknowledged mutation publishes the new seq, and subscribers
/// block in [`wait_past`](ChangeFeed::wait_past) until the counter
/// moves beyond what they have already seen (or a timeout elapses).
/// This is the wakeup source for `SUBSCRIBE` standing queries — the
/// same scalar the stamps are made of, reused as a signal instead of a
/// poll loop. (The router reuses the type to wake its hub when a
/// shard's stamp moves; there the counter is just a tick.)
///
/// The guarded value is one integer, valid at every step, so a
/// poisoned lock is recovered rather than propagated.
#[derive(Default)]
pub struct ChangeFeed {
    seq: std::sync::Mutex<u64>,
    cond: std::sync::Condvar,
}

impl ChangeFeed {
    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {
        self.seq.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Advances the counter by one and wakes every waiter.
    pub fn bump(&self) {
        *self.lock() += 1;
        self.cond.notify_all();
    }

    /// The latest published value.
    pub fn current(&self) -> u64 {
        *self.lock()
    }

    /// Blocks until the published version exceeds `seen`, returning the
    /// new version, or `None` when `timeout` elapses first. Spurious
    /// wakeups are absorbed; a version already past `seen` returns
    /// immediately without blocking.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        let mut seq = self.lock();
        loop {
            if *seq > seen {
                return Some(*seq);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, timed_out) = self
                .cond
                .wait_timeout(seq, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            seq = guard;
            if timed_out.timed_out() && *seq <= seen {
                return None;
            }
        }
    }
}

/// The catalog, backed by a shared Monet kernel and (optionally) a
/// durable storage backend.
///
/// Every mutation follows **log-before-apply**: the typed WAL record is
/// appended (and made durable per the backend's fsync policy) *before*
/// the in-memory state changes, under a catalog-wide commit lock that
/// keeps log order identical to apply order. A mutation that fails to
/// log is neither applied nor acknowledged, so recovery replaying the
/// log reconstructs exactly the acknowledged state.
pub struct Catalog {
    kernel: std::sync::Arc<Kernel>,
    videos: RwLock<HashMap<String, VideoInfo>>,
    /// Per video: the commit seq at which its event layer or
    /// registration last changed (absent = never, seq 0). What a cached
    /// answer over that video is guarded by.
    changed: RwLock<HashMap<String, u64>>,
    /// The durability backend ([`MemBackend`] keeps the old pure
    /// main-memory behaviour at zero overhead).
    store: Arc<dyn StorageBackend>,
    /// Serializes (WAL append, memory apply) pairs, and the checkpoint
    /// cut against in-flight mutations.
    commit: Mutex<()>,
    /// Serializes whole checkpoints (the background checkpointer versus
    /// an explicit `CHECKPOINT`).
    ckpt: Mutex<()>,
    /// Holds and broadcasts the commit seq (`data_version`): bumped on
    /// *every* catalog mutation (registration, feature store, event
    /// append/replace), live or replayed, after it is applied. Paired
    /// with the boot [`epoch`](Self::epoch) it is this catalog's
    /// [`Stamp`] — the one staleness currency the result caches, the
    /// standing queries and the router all compare.
    feed: ChangeFeed,
}

impl Catalog {
    /// Creates a memory-only catalog over a kernel (the pre-durability
    /// behaviour).
    pub fn new(kernel: std::sync::Arc<Kernel>) -> Self {
        Catalog::with_store(kernel, Arc::new(MemBackend::new()))
    }

    /// Creates a catalog whose mutations are logged to `store`.
    pub fn with_store(kernel: std::sync::Arc<Kernel>, store: Arc<dyn StorageBackend>) -> Self {
        Catalog {
            kernel,
            videos: RwLock::new(HashMap::new()),
            changed: RwLock::new(HashMap::new()),
            store,
            commit: Mutex::new(()),
            ckpt: Mutex::new(()),
            feed: ChangeFeed::default(),
        }
    }

    /// The change feed broadcasting every commit seq.
    pub fn change_feed(&self) -> &ChangeFeed {
        &self.feed
    }

    /// Numbers the mutation just applied: advances the commit seq,
    /// records it against `answers_of` when the mutation changed what a
    /// query over that video can answer (its event layer or
    /// registration), and publishes it on the change feed. Called by
    /// every apply path, live or replayed, *after* the apply and under
    /// the commit lock — a reader that captured its stamp before this
    /// point stored its answer under a stamp that no longer matches.
    fn commit_seq(&self, answers_of: Option<&str>) {
        if let Some(video) = answers_of {
            // The commit lock makes this the only writer of the seq.
            let seq = self.feed.current() + 1;
            self.changed.write().insert(video.to_string(), seq);
        }
        self.feed.bump();
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The storage backend.
    pub fn store(&self) -> &Arc<dyn StorageBackend> {
        &self.store
    }

    /// The boot epoch of the storage backend (0 when memory-only). Part
    /// of every [`Stamp`], so a recovered process can never serve cached
    /// results from a previous incarnation.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The catalog's stamp: boot epoch plus latest commit seq. Equal
    /// stamps across two observations prove nothing was committed in
    /// between.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch(),
            seq: self.data_version(),
        }
    }

    /// `video`'s stamp: boot epoch plus the commit seq at which its
    /// event layer or registration last changed. Capture it *before*
    /// executing a query over the video and guard the answer with it.
    pub fn video_stamp(&self, video: &str) -> Stamp {
        Stamp {
            epoch: self.epoch(),
            seq: self.changed.read().get(video).copied().unwrap_or(0),
        }
    }

    /// Registers a video's raw-layer descriptor (logged, then applied).
    pub fn register_video(&self, info: VideoInfo) -> Result<()> {
        let op = WalOp::RegisterVideo {
            name: info.name,
            n_clips: info.n_clips as u64,
            n_frames: info.n_frames as u64,
        };
        let _commit = self.commit.lock();
        if self.store.is_durable() {
            self.store.log(&op)?;
        }
        self.apply_op(op)
    }

    /// The commit seq: strictly increases on every acknowledged
    /// mutation within one boot epoch.
    pub fn data_version(&self) -> u64 {
        self.feed.current()
    }

    /// Raw-layer info for a video.
    pub fn video(&self, name: &str) -> Result<VideoInfo> {
        self.videos
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CobraError::UnknownVideo(name.to_string()))
    }

    /// Registered video names, sorted.
    pub fn videos(&self) -> Vec<String> {
        let mut names: Vec<String> = self.videos.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The common width of `rows` (0 for none), or the typed error a
    /// ragged `what` ("matrix", "chunk") is.
    fn feature_width_of(video: &str, rows: &[Vec<f64>], what: &str) -> Result<usize> {
        let n_features = rows.first().map_or(0, Vec::len);
        match rows.iter().position(|row| row.len() != n_features) {
            None => Ok(n_features),
            Some(t) => Err(CobraError::MissingMetadata {
                video: video.to_string(),
                what: format!(
                    "ragged feature {what}: row {t} has {} features, expected {n_features}",
                    rows[t].len()
                ),
            }),
        }
    }

    /// Stores the feature layer: `matrix[t][k]` is feature k at clip t.
    /// Validated first, then logged, then applied.
    pub fn store_features(&self, video: &str, matrix: &[Vec<f64>]) -> Result<()> {
        self.video(video)?;
        let n_features = Self::feature_width_of(video, matrix, "matrix")?;
        let _commit = self.commit.lock();
        if self.store.is_durable() {
            self.store.log(&WalOp::StoreFeatures {
                video: video.to_string(),
                n_features: n_features as u64,
                values: matrix.iter().flatten().copied().collect(),
            })?;
        }
        self.apply_feature_layer(video, n_features, matrix.iter().map(Vec::as_slice))
    }

    /// Binds a fresh feature layer, one column per feature. Shared by
    /// the live store and WAL replay.
    fn apply_feature_layer<'r>(
        &self,
        video: &str,
        n_features: usize,
        rows: impl Iterator<Item = &'r [f64]> + Clone,
    ) -> Result<()> {
        for k in 0..n_features {
            let bat = Bat::from_tail(AtomType::Dbl, rows.clone().map(|row| Atom::Dbl(row[k])))?;
            self.kernel.set_bat(&feature_bat_name(video, k), bat);
        }
        self.commit_seq(None);
        Ok(())
    }

    /// Appends feature rows to the tail of the feature layer (streaming
    /// ingest: one call per arrival window). Creates the columns on
    /// first use; later appends must match the existing column count.
    /// Validated first, then logged, then applied — the same
    /// log-before-apply path as every other mutation, so a crash
    /// mid-stream replays to exactly the acknowledged prefix.
    pub fn append_features(&self, video: &str, rows: &[Vec<f64>]) -> Result<()> {
        self.video(video)?;
        let n_features = Self::feature_width_of(video, rows, "chunk")?;
        let existing = self.feature_width(video);
        if existing > 0 && n_features != existing {
            return Err(CobraError::MissingMetadata {
                video: video.to_string(),
                what: format!(
                    "feature chunk width {n_features} does not match existing layer width {existing}"
                ),
            });
        }
        let _commit = self.commit.lock();
        if self.store.is_durable() {
            self.store.log(&WalOp::AppendFeatures {
                video: video.to_string(),
                n_features: n_features as u64,
                values: rows.iter().flatten().copied().collect(),
            })?;
        }
        self.apply_feature_rows(video, n_features, rows.iter().map(|r| r.as_slice()))
    }

    /// Number of feature columns currently stored for `video` (0 when
    /// the layer is absent).
    fn feature_width(&self, video: &str) -> usize {
        let mut k = 0;
        while self.kernel.has_bat(&feature_bat_name(video, k)) {
            k += 1;
        }
        k
    }

    /// Appends rows to the feature columns, creating empty `[void,dbl]`
    /// BATs on first use. Shared by the live append and WAL replay.
    fn apply_feature_rows<'r>(
        &self,
        video: &str,
        n_features: usize,
        rows: impl Iterator<Item = &'r [f64]>,
    ) -> Result<()> {
        let columns: Vec<_> = (0..n_features)
            .map(|k| feature_bat_name(video, k))
            .map(|name| self.bat_or_empty(&name, AtomType::Dbl))
            .collect();
        for row in rows {
            for (column, &v) in columns.iter().zip(row) {
                column.write().append_void(Atom::Dbl(v))?;
            }
        }
        self.commit_seq(None);
        Ok(())
    }

    /// The BAT bound to `name`, bound to an empty `[void,ty]` one first
    /// when there is none.
    fn bat_or_empty(&self, name: &str, ty: AtomType) -> f1_monet::kernel::BatHandle {
        let empty = || self.kernel.set_bat(name, Bat::new(AtomType::Void, ty));
        self.kernel.bat(name).unwrap_or_else(|_| empty())
    }

    /// Feature rows committed for `video`, 0 when the layer is absent —
    /// the availability check of the query pre-processor, and how far a
    /// streamed ingest has come.
    pub fn feature_rows(&self, video: &str) -> usize {
        self.kernel
            .bat(&feature_bat_name(video, 0))
            .map_or(0, |bat| bat.read().len())
    }

    /// [`load_feature_rows`] of a registered video.
    pub fn load_features(&self, video: &str, n_features: usize) -> Result<Vec<Vec<f64>>> {
        self.video(video)?;
        load_feature_rows(&self.kernel, video, n_features)
    }

    /// Appends event-layer records (creating the BATs on first use).
    /// Logged, then applied.
    pub fn store_events(&self, video: &str, events: &[EventRecord]) -> Result<()> {
        self.video(video)?;
        let _commit = self.commit.lock();
        if self.store.is_durable() {
            self.store.log(&WalOp::StoreEvents {
                video: video.to_string(),
                events: events.iter().map(WalEvent::from).collect(),
            })?;
        }
        self.apply_events(video, events)
    }

    fn apply_events(&self, video: &str, events: &[EventRecord]) -> Result<()> {
        let columns =
            EVENT_FIELDS.map(|(field, ty)| self.bat_or_empty(&format!("{video}.ev.{field}"), ty));
        // Row by row, field by field, each append under its own lock:
        // resolving the handles once changes no order a reader can see.
        for e in events {
            for (column, atom) in columns.iter().zip(event_atoms(e)) {
                column.write().append_void(atom)?;
            }
        }
        self.commit_seq(Some(video));
        Ok(())
    }

    /// One event-layer transaction, a re-annotation's: the rows of
    /// `drop_kinds` go, the others stay in order, `rows` follow them.
    /// One WAL record and one commit seq: a failed append or a crash
    /// leaves the layer as it was. Logged, then applied.
    pub fn replace_events(
        &self,
        video: &str,
        drop_kinds: &[&str],
        rows: &[EventRecord],
    ) -> Result<()> {
        self.video(video)?;
        let op = WalOp::ReplaceEvents {
            video: video.to_string(),
            drop_kinds: drop_kinds.iter().map(|k| k.to_string()).collect(),
            events: rows.iter().map(WalEvent::from).collect(),
        };
        let _commit = self.commit.lock();
        if self.store.is_durable() {
            self.store.log(&op)?;
        }
        self.apply_op(op)
    }

    /// Under the commit lock, so the rows kept are the rows committed.
    /// The four columns are built aside, then rebound by name.
    fn apply_replace_events(
        &self,
        video: &str,
        drop_kinds: &[String],
        rows: Vec<EventRecord>,
    ) -> Result<()> {
        let mut layer = self.events(video, None)?;
        layer.retain(|e| !drop_kinds.contains(&e.kind));
        layer.extend(rows);
        let mut columns = EVENT_FIELDS.map(|(_, ty)| Bat::new(AtomType::Void, ty));
        for e in &layer {
            for (column, atom) in columns.iter_mut().zip(event_atoms(e)) {
                column.append_void(atom)?;
            }
        }
        for ((field, _), column) in EVENT_FIELDS.into_iter().zip(columns) {
            self.kernel.set_bat(&format!("{video}.ev.{field}"), column);
        }
        self.commit_seq(Some(video));
        Ok(())
    }

    /// Loads the event layer, optionally filtered by kind.
    pub fn events(&self, video: &str, kind: Option<&str>) -> Result<Vec<EventRecord>> {
        self.video(video)?;
        let name = format!("{video}.ev.kind");
        if !self.kernel.has_bat(&name) {
            return Ok(Vec::new());
        }
        let [kinds, starts, ends, drivers] =
            EVENT_FIELDS.map(|(field, _)| self.kernel.bat(&format!("{video}.ev.{field}")));
        let (kinds, starts, ends, drivers) = (kinds?, starts?, ends?, drivers?);
        let (kinds, starts, ends, drivers) =
            (kinds.read(), starts.read(), ends.read(), drivers.read());
        let kind_column = kinds
            .tail()
            .strs()
            .ok_or_else(|| MonetError::TypeMismatch {
                expected: "a str kind field".into(),
                found: kinds.tail().atom_type().name().into(),
            })?;
        // A kind filter compares dictionary codes: one lookup resolves
        // it, and a kind the layer has never stored matches no row.
        let wanted = match kind.map(|filter| kind_column.code_of(filter)) {
            Some(None) => return Ok(Vec::new()),
            Some(code) => code,
            None => None,
        };
        let codes = kind_column.codes();
        let mut out = Vec::new();
        for i in (0..codes.len()).filter(|&i| wanted.is_none_or(|code| codes[i] == code)) {
            let d = drivers.tail_at(i)?.as_str()?.to_string();
            out.push(EventRecord {
                kind: kind_column.value(i).to_string(),
                start: starts.tail_at(i)?.as_int()? as usize,
                end: ends.tail_at(i)?.as_int()? as usize,
                driver: if d.is_empty() { None } else { Some(d) },
            });
        }
        Ok(out)
    }

    /// Installs the state recovery found at boot: the manifest's videos
    /// and snapshot BATs, then the WAL tail replayed through the same
    /// apply paths live mutations use. Runs before any concurrency.
    pub fn install_recovery(&self, recovery: Recovery) -> Result<()> {
        {
            let mut videos = self.videos.write();
            for v in &recovery.videos {
                videos.insert(
                    v.name.clone(),
                    VideoInfo {
                        name: v.name.clone(),
                        n_clips: v.n_clips as usize,
                        n_frames: v.n_frames as usize,
                    },
                );
            }
        }
        for (name, bat) in recovery.bats {
            self.kernel.set_bat(&name, bat);
        }
        for op in recovery.replay {
            self.apply_op(op)?;
        }
        Ok(())
    }

    /// Applies one replayed WAL operation.
    fn apply_op(&self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Boot { .. } => Ok(()),
            WalOp::RegisterVideo {
                name,
                n_clips,
                n_frames,
            } => {
                let info = VideoInfo {
                    name: name.clone(),
                    n_clips: n_clips as usize,
                    n_frames: n_frames as usize,
                };
                self.videos.write().insert(name.clone(), info);
                self.commit_seq(Some(&name));
                Ok(())
            }
            WalOp::StoreFeatures {
                video,
                n_features,
                values,
            } => {
                let n_features = n_features as usize;
                self.apply_feature_layer(&video, n_features, values.chunks_exact(n_features.max(1)))
            }
            WalOp::StoreEvents { video, events } => {
                let records: Vec<EventRecord> = events.into_iter().map(Into::into).collect();
                self.apply_events(&video, &records)
            }
            WalOp::ReplaceEvents {
                video,
                drop_kinds,
                events,
            } => {
                let rows = events.into_iter().map(Into::into).collect();
                self.apply_replace_events(&video, &drop_kinds, rows)
            }
            // Written before `ReplaceEvents` existed, only replayed now.
            WalOp::ClearEvents { video } => {
                for (field, _) in EVENT_FIELDS {
                    let _ = self.kernel.drop_bat(&format!("{video}.ev.{field}"));
                }
                self.commit_seq(Some(&video));
                Ok(())
            }
            WalOp::AppendFeatures {
                video,
                n_features,
                values,
            } => {
                let n_features = n_features as usize;
                self.apply_feature_rows(&video, n_features, values.chunks_exact(n_features.max(1)))
            }
        }
    }

    /// True when `name` is a catalog-owned BAT of `video` (a feature
    /// column `{video}.f<k>` or an event column `{video}.ev.*`).
    fn owns_bat(video: &str, name: &str) -> bool {
        name.strip_prefix(video).is_some_and(|rest| {
            rest.strip_prefix(".ev.")
                .is_some_and(|s| matches!(s, "kind" | "start" | "end" | "driver"))
                || rest
                    .strip_prefix(".f")
                    .is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
        })
    }

    /// Runs one checkpoint against the backend: under the commit lock,
    /// rotate the WAL and clone the catalog state; off-lock, write dirty
    /// BATs, commit the new manifest, and retire covered WAL files.
    /// Returns `None` when the backend is memory-only.
    pub fn checkpoint(&self) -> Result<Option<CheckpointOutcome>> {
        let _serial = self.ckpt.lock();
        let state = {
            let _commit = self.commit.lock();
            if !self.store.begin_checkpoint()? {
                return Ok(None);
            }
            self.collect_state()
        };
        Ok(Some(self.store.complete_checkpoint(state)?))
    }

    /// Clones the catalog's durable state. Caller holds the commit lock.
    fn collect_state(&self) -> SnapshotState {
        let videos_guard = self.videos.read();
        let mut videos: Vec<ManifestVideo> = videos_guard
            .values()
            .map(|v| ManifestVideo {
                name: v.name.clone(),
                n_clips: v.n_clips as u64,
                n_frames: v.n_frames as u64,
            })
            .collect();
        videos.sort_by(|a, b| a.name.cmp(&b.name));
        let mut bats = Vec::new();
        for name in self.kernel.bat_names() {
            if !videos_guard.keys().any(|v| Self::owns_bat(v, &name)) {
                continue;
            }
            if let Ok(handle) = self.kernel.bat(&name) {
                let bat = handle.read();
                bats.push(NamedBat {
                    name: name.clone(),
                    src_id: bat.id(),
                    src_version: bat.version(),
                    bat: bat.clone(),
                });
            }
        }
        SnapshotState {
            // The manifest's byte format predates the commit stamp: the
            // field keeps being written (now from the commit seq) so old
            // and new directories stay mutually readable, and is ignored
            // on load — stamps never cross a boot epoch, so nothing needs
            // the previous incarnation's counter.
            catalog_gen: self.data_version(),
            videos,
            bats,
        }
    }
}

/// The event layer's four parallel columns, `{video}.ev.<field>`.
const EVENT_FIELDS: [(&str, AtomType); 4] = [
    ("kind", AtomType::Str),
    ("start", AtomType::Int),
    ("end", AtomType::Int),
    ("driver", AtomType::Str),
];

/// One row's values, in [`EVENT_FIELDS`] order (no driver is `""`).
fn event_atoms(e: &EventRecord) -> [Atom; 4] {
    [
        Atom::str(&e.kind),
        Atom::Int(e.start as i64),
        Atom::Int(e.end as i64),
        Atom::str(e.driver.as_deref().unwrap_or("")),
    ]
}

fn feature_bat_name(video: &str, feature: usize) -> String {
    format!("{video}.f{}", feature + 1)
}

/// The first `n_features` feature columns of `video` as a clip-major
/// matrix (`matrix[t][k]`), copied off the typed column slices and sized
/// by the rows committed, not the clips registered. The one reader of the
/// layer: training, every filter pass, and `dbnInfer` on a bare kernel.
pub fn load_feature_rows(kernel: &Kernel, video: &str, n_features: usize) -> Result<Vec<Vec<f64>>> {
    let mut matrix = Vec::new();
    for k in 0..n_features {
        let missing = || CobraError::MissingMetadata {
            video: video.to_string(),
            what: format!("feature column {}", k + 1),
        };
        let handle = kernel.bat(&feature_bat_name(video, k));
        let handle = handle.map_err(|_| missing())?;
        let bat = handle.read();
        let column = bat.tail().dbls().ok_or_else(missing)?;
        if k == 0 {
            matrix = vec![vec![0.0; n_features]; column.len()];
        }
        // A window being appended has reached the first column first.
        matrix.truncate(column.len());
        for (row, &v) in matrix.iter_mut().zip(column) {
            row[k] = v;
        }
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let c = Catalog::new(Arc::new(Kernel::new()));
        c.register_video(VideoInfo {
            name: "german".into(),
            n_clips: 4,
            n_frames: 10,
        })
        .unwrap();
        c
    }

    #[test]
    fn video_registration_round_trips() {
        let c = catalog();
        assert_eq!(c.video("german").unwrap().n_clips, 4);
        assert!(matches!(c.video("monza"), Err(CobraError::UnknownVideo(_))));
        assert_eq!(c.videos(), vec!["german".to_string()]);
    }

    #[test]
    fn feature_layer_round_trips_through_bats() {
        let c = catalog();
        let matrix = vec![
            vec![0.1, 0.9],
            vec![0.2, 0.8],
            vec![0.3, 0.7],
            vec![0.4, 0.6],
        ];
        assert_eq!(c.feature_rows("german"), 0);
        c.store_features("german", &matrix).unwrap();
        assert_eq!(c.feature_rows("german"), 4);
        // Stored as real kernel BATs with the naming scheme.
        assert!(c.kernel().has_bat("german.f1"));
        assert!(c.kernel().has_bat("german.f2"));
        let loaded = c.load_features("german", 2).unwrap();
        assert_eq!(loaded, matrix);
    }

    #[test]
    fn ragged_feature_matrix_is_a_typed_error() {
        let c = catalog();
        let ragged = vec![vec![0.5, 0.6], vec![0.7]];
        let err = c.store_features("german", &ragged).unwrap_err();
        assert!(
            matches!(&err, CobraError::MissingMetadata { what, .. } if what.contains("ragged")),
            "got {err}"
        );
    }

    #[test]
    fn missing_feature_column_is_reported() {
        let c = catalog();
        c.store_features("german", &vec![vec![0.5]; 4]).unwrap();
        assert!(matches!(
            c.load_features("german", 3),
            Err(CobraError::MissingMetadata { .. })
        ));
    }

    #[test]
    fn event_layer_stores_and_filters() {
        let c = catalog();
        c.store_events(
            "german",
            &[
                EventRecord {
                    kind: "highlight".into(),
                    start: 10,
                    end: 80,
                    driver: None,
                },
                EventRecord {
                    kind: "pit_stop".into(),
                    start: 100,
                    end: 150,
                    driver: Some("HAKKINEN".into()),
                },
            ],
        )
        .unwrap();
        assert_eq!(c.events("german", None).unwrap().len(), 2);
        let pits = c.events("german", Some("pit_stop")).unwrap();
        assert_eq!(pits.len(), 1);
        assert_eq!(pits[0].driver.as_deref(), Some("HAKKINEN"));
        // A kind the layer never stored is an empty answer.
        assert!(c.events("german", Some("fly_out")).unwrap().is_empty());
        // A replace drops the kinds it names, keeps the others in order
        // and appends its rows after them.
        let excited = EventRecord {
            kind: "excited".into(),
            start: 20,
            end: 60,
            driver: None,
        };
        c.replace_events(
            "german",
            &["highlight", "excited"],
            std::slice::from_ref(&excited),
        )
        .unwrap();
        let layer = c.events("german", None).unwrap();
        assert_eq!(layer, [pits[0].clone(), excited]);
        c.replace_events("german", &["pit_stop", "excited"], &[])
            .unwrap();
        assert!(c.events("german", None).unwrap().is_empty());
    }

    #[test]
    fn data_version_bumps_on_every_mutation() {
        let c = Catalog::new(Arc::new(Kernel::new()));
        let v0 = c.data_version();
        c.register_video(VideoInfo {
            name: "german".into(),
            n_clips: 4,
            n_frames: 10,
        })
        .unwrap();
        let v1 = c.data_version();
        assert!(v1 > v0, "registration must advance the data version");
        c.store_features("german", &vec![vec![0.5]; 4]).unwrap();
        let v2 = c.data_version();
        assert!(v2 > v1, "feature store must advance the data version");
        c.store_events(
            "german",
            &[EventRecord {
                kind: "highlight".into(),
                start: 0,
                end: 2,
                driver: None,
            }],
        )
        .unwrap();
        let v3 = c.data_version();
        assert!(v3 > v2, "event append must advance the data version");
        c.replace_events("german", &["highlight"], &[]).unwrap();
        assert_eq!(c.data_version(), v3 + 1, "an event replace is one commit");
        // Reads leave it alone.
        let quiesced = c.data_version();
        let _ = c.events("german", None);
        let _ = c.videos();
        assert_eq!(c.data_version(), quiesced);
    }

    #[test]
    fn video_stamp_moves_with_that_videos_events_and_registration_only() {
        let c = catalog();
        let info = |name: &str| VideoInfo {
            name: name.into(),
            n_clips: 4,
            n_frames: 10,
        };
        let highlight = EventRecord {
            kind: "highlight".into(),
            start: 0,
            end: 2,
            driver: None,
        };
        assert_eq!(c.video_stamp("usa").seq, 0, "never changed");
        let registered = c.video_stamp("german");
        assert_eq!(registered, c.stamp(), "registration was the last commit");

        // Another video's registration and events leave it alone.
        c.register_video(info("usa")).unwrap();
        c.store_events("usa", std::slice::from_ref(&highlight))
            .unwrap();
        assert_eq!(c.video_stamp("german"), registered);
        assert_eq!(c.video_stamp("usa"), c.stamp());

        // So does its own feature layer: no retrieval reads it.
        c.store_features("german", &vec![vec![0.5]; 4]).unwrap();
        c.append_features("german", &[vec![0.5]]).unwrap();
        assert_eq!(c.video_stamp("german"), registered);
        assert!(
            c.stamp() > c.video_stamp("usa"),
            "the catalog stamp saw them"
        );

        // Its event layer and its re-registration move it, to the
        // commit seq of that very write.
        c.store_events("german", &[highlight]).unwrap();
        let appended = c.video_stamp("german");
        assert!(appended > registered);
        assert_eq!(appended, c.stamp());
        c.replace_events("german", &["highlight"], &[]).unwrap();
        let cleared = c.video_stamp("german");
        assert!(cleared > appended);
        c.register_video(info("german")).unwrap();
        assert!(c.video_stamp("german") > cleared);
    }

    #[test]
    fn append_features_builds_the_layer_incrementally() {
        let c = catalog();
        c.append_features("german", &[vec![0.1, 0.9], vec![0.2, 0.8]])
            .unwrap();
        c.append_features("german", &[vec![0.3, 0.7], vec![0.4, 0.6]])
            .unwrap();
        let loaded = c.load_features("german", 2).unwrap();
        assert_eq!(
            loaded,
            vec![
                vec![0.1, 0.9],
                vec![0.2, 0.8],
                vec![0.3, 0.7],
                vec![0.4, 0.6],
            ]
        );
    }

    #[test]
    fn append_features_appends_to_a_batch_stored_layer() {
        let c = catalog();
        c.store_features("german", &[vec![0.1], vec![0.2], vec![0.3]])
            .unwrap();
        c.append_features("german", &[vec![0.4]]).unwrap();
        let loaded = c.load_features("german", 1).unwrap();
        assert_eq!(loaded, vec![vec![0.1], vec![0.2], vec![0.3], vec![0.4]]);
    }

    #[test]
    fn append_features_rejects_width_mismatch_and_ragged_chunks() {
        let c = catalog();
        c.append_features("german", &[vec![0.1, 0.9]]).unwrap();
        let err = c.append_features("german", &[vec![0.5]]).unwrap_err();
        assert!(
            matches!(&err, CobraError::MissingMetadata { what, .. } if what.contains("width")),
            "got {err}"
        );
        let err = c
            .append_features("german", &[vec![0.5, 0.5], vec![0.5]])
            .unwrap_err();
        assert!(
            matches!(&err, CobraError::MissingMetadata { what, .. } if what.contains("ragged")),
            "got {err}"
        );
        // The failed appends left the layer untouched.
        assert_eq!(c.kernel().bat("german.f1").unwrap().read().len(), 1);
        assert_eq!(c.kernel().bat("german.f2").unwrap().read().len(), 1);
    }

    #[test]
    fn append_features_bumps_versions_like_any_mutation() {
        let c = catalog();
        let v0 = c.data_version();
        c.append_features("german", &[vec![0.5]]).unwrap();
        assert!(c.data_version() > v0);
    }

    #[test]
    fn change_feed_publishes_every_mutation() {
        let c = catalog();
        let seen = c.change_feed().current();
        assert_eq!(seen, c.data_version());
        // No mutation: the wait times out.
        assert_eq!(
            c.change_feed().wait_past(seen, Duration::from_millis(10)),
            None
        );
        c.store_events(
            "german",
            &[EventRecord {
                kind: "highlight".into(),
                start: 0,
                end: 1,
                driver: None,
            }],
        )
        .unwrap();
        // Already-published version returns without blocking.
        let v = c
            .change_feed()
            .wait_past(seen, Duration::from_millis(10))
            .expect("mutation must wake the feed");
        assert_eq!(v, c.data_version());
    }

    #[test]
    fn change_feed_wakes_a_blocked_waiter() {
        let c = Arc::new(catalog());
        let seen = c.change_feed().current();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.change_feed().wait_past(seen, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        c.append_features("german", &[vec![0.5]]).unwrap();
        let got = waiter.join().unwrap();
        assert_eq!(got, Some(c.data_version()));
    }

    /// `ClearEvents` is no longer written, but a data directory from
    /// before `replace_events` holds such records: they still replay.
    #[test]
    fn a_log_holding_an_old_clear_events_record_recovers() {
        let dir = std::env::temp_dir().join(format!("cobra-oldclear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = cobra_store::StoreConfig::new(&dir);
        let row = |start| EventRecord {
            kind: "highlight".into(),
            start,
            end: start + 10,
            driver: None,
        };
        {
            let old = crate::Vdbms::open(&config).unwrap();
            let info = catalog().video("german").unwrap();
            old.catalog.register_video(info).unwrap();
            old.catalog.store_events("german", &[row(0)]).unwrap();
            let clear = WalOp::ClearEvents {
                video: "german".into(),
            };
            old.catalog.store().log(&clear).unwrap();
            old.catalog.store_events("german", &[row(50)]).unwrap();
        }
        let recovered = crate::Vdbms::open(&config).unwrap();
        assert_eq!(recovered.catalog.events("german", None).unwrap(), [row(50)]);
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_for_unregistered_video_error() {
        let c = catalog();
        assert!(c.events("usa", None).is_err());
        assert!(c
            .store_events(
                "usa",
                &[EventRecord {
                    kind: "x".into(),
                    start: 0,
                    end: 1,
                    driver: None
                }]
            )
            .is_err());
    }
}
