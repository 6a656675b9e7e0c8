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
//!   (`<video>.ev.kind/start/end/driver`), committed and read as one
//!   ([`Catalog::event_layer`]),
//! * **object layer** — drivers referenced by events and captions.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

use cobra_faults::Recover;
use cobra_store::backend::{NamedBat, SnapshotState, StorageBackend};
use cobra_store::{CheckpointOutcome, ManifestVideo, MemBackend, Recovery, WalEvent, WalOp};
use f1_monet::kernel::BatHandle;
use f1_monet::prelude::*;

use crate::cache::Stamp;
use crate::guard::{guard_in, Change, Changes, Read, Touched, Unnamed};
use crate::{CobraError, Result};

/// Raw-layer descriptor of a registered video.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoInfo {
    /// Catalog name.
    pub name: String,
    /// Clips in the broadcast (0.1 s grid).
    pub n_clips: usize,
    /// Video frames (25 fps).
    pub n_frames: usize,
}

/// An event-layer entry.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Default)]
pub struct ChangeFeed {
    seq: Mutex<u64>,
    cond: Condvar,
}

impl ChangeFeed {
    /// Advances the counter by one and wakes every waiter.
    pub fn bump(&self) {
        *self.seq.lock().recover() += 1;
        self.cond.notify_all();
    }

    /// The latest published value.
    pub fn current(&self) -> u64 {
        *self.seq.lock().recover()
    }

    /// Blocks until the published version exceeds `seen`, returning the
    /// new version, or `None` when `timeout` elapses first. Spurious
    /// wakeups are absorbed; a version already past `seen` returns
    /// immediately without blocking.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        let mut seq = self.seq.lock().recover();
        loop {
            if *seq > seen {
                return Some(*seq);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, timed_out) = self.cond.wait_timeout(seq, remaining).recover();
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
    /// Per video: the commit seqs its answers are guarded by (absent =
    /// never changed, seq 0) — the last whole-layer change, and since it
    /// the last append touching each kind, each driver and each (kind,
    /// driver) pair ([`Changes`]). A retrieval is guarded by the largest
    /// of those its stages read ([`guard`](Self::guard)), so a write
    /// voids only the answers it can change. An event-layer commit
    /// publishes its columns under the write side, and a reader captures
    /// them with their guard under the read side
    /// ([`event_layer`](Self::event_layer)).
    changed: RwLock<HashMap<String, Changes>>,
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
    /// records it against the video whose whole event layer it changed
    /// (its registration, or a replayed clear of its events), with the
    /// kinds that layer has unnamed rows of, and publishes it on the
    /// change feed. Called by every apply path, live or replayed,
    /// *after* the apply and under the commit lock — a reader that
    /// captured its guard before this point stored its answer under a
    /// guard that no longer matches.
    fn commit_seq(&self, relayered: Option<(&str, Option<Unnamed>)>) {
        match relayered {
            Some((video, unnamed)) => {
                let stamps = self.changed.write().recover();
                self.stamp_video(stamps, video, Change::Layer(unnamed))
            }
            None => self.feed.bump(),
        }
    }

    /// [`commit_seq`](Self::commit_seq) of a mutation that made `change`
    /// to what queries over `video` answer, applied under `stamps`, the
    /// write guard of the per-video seqs.
    fn stamp_video(
        &self,
        mut stamps: RwLockWriteGuard<'_, HashMap<String, Changes>>,
        video: &str,
        change: Change<'_>,
    ) {
        // The commit lock makes this the only writer of the seq.
        let seq = self.feed.current() + 1;
        stamps
            .entry(video.to_string())
            .or_default()
            .record(seq, change);
        drop(stamps);
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
    /// event layer or registration last changed. It moves on every
    /// write to the video; a retrieval is guarded by the narrower
    /// [`guard`](Self::guard) of what it reads.
    pub fn video_stamp(&self, video: &str) -> Stamp {
        let stamps = self.changed.read().recover();
        self.stamp_of(stamps.get(video).map_or(0, |changes| changes.last))
    }

    /// The guard of `reads` over `video`: boot epoch plus the last commit
    /// that changed the video's whole layer or appended a row one of
    /// `reads` covers (`"*"`: the largest over every video). Equal guards
    /// across two observations prove that no commit in between changed a
    /// row `reads` select.
    pub(crate) fn guard<'r>(
        &self,
        video: &str,
        reads: impl IntoIterator<Item = Read<'r>> + Clone,
    ) -> Stamp {
        let stamps = self.changed.read().recover();
        self.stamp_of(guard_in(&stamps, video, 0, reads))
    }

    /// What the commits after seq `since` touched, and the catalog's stamp
    /// the report reaches, read together under one read of the per-video
    /// seqs ([`Touched`]). A router keeps its copy of those seqs from such
    /// reports ([`crate::guard::Mirror`]), starting from
    /// [`unnamed_kinds`](Self::unnamed_kinds).
    pub fn touched_since(&self, since: u64) -> (Stamp, Touched) {
        let stamps = self.changed.read().recover();
        // Every event-layer commit records its seq before publishing it,
        // so the report holds every commit the stamp counts (and perhaps
        // one it does not count yet, whose keys then move twice).
        let stamp = self.stamp();
        (stamp, Touched::of(&stamps, since))
    }

    /// Per video whose kinds it knows, the kinds with unnamed rows, and
    /// the catalog's stamp, read together like
    /// [`touched_since`](Self::touched_since): where a router's mirror of
    /// the per-video seqs starts.
    pub fn unnamed_kinds(&self) -> (Stamp, Vec<(String, Unnamed)>) {
        let stamps = self.changed.read().recover();
        let stamp = self.stamp();
        let known = stamps
            .iter()
            .filter_map(|(video, changes)| Some((video.clone(), changes.unnamed.clone()?)));
        (stamp, known.collect())
    }

    /// The kinds of `video`'s current event layer with unnamed rows (none
    /// without a layer; `None` for a layer no commit leaves), in one pass
    /// over its kind and driver columns.
    fn unnamed_in(&self, video: &str) -> Option<Unnamed> {
        let names = event_names(video);
        let found = self.kernel.bats(names.each_ref().map(String::as_str));
        let Some(columns) = layer_of(video, found).ok()? else {
            return Some(Unnamed::new());
        };
        let guards = columns.each_ref().map(|column| column.read().recover());
        let layer = EventColumns::of(guards.each_ref().map(|bat| &**bat)).ok()?;
        Some(unnamed_of(&layer))
    }

    fn stamp_of(&self, seq: u64) -> Stamp {
        Stamp {
            epoch: self.epoch(),
            seq,
        }
    }

    /// Registers a video's raw-layer descriptor (logged, then applied).
    pub fn register_video(&self, info: VideoInfo) -> Result<()> {
        let op = WalOp::RegisterVideo {
            name: info.name,
            n_clips: info.n_clips as u64,
            n_frames: info.n_frames as u64,
        };
        let _commit = self.commit.lock().recover();
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
            .recover()
            .get(name)
            .cloned()
            .ok_or_else(|| CobraError::UnknownVideo(name.to_string()))
    }

    /// Registered video names, sorted.
    pub fn videos(&self) -> Vec<String> {
        let mut names: Vec<String> = self.videos.read().recover().keys().cloned().collect();
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
        let _commit = self.commit.lock().recover();
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
            let column = ColumnData::Dbl(rows.clone().map(|row| row[k]).collect());
            self.kernel
                .set_bat(&feature_bat_name(video, k), Bat::from_tail_data(column));
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
        let _commit = self.commit.lock().recover();
        if self.store.is_durable() {
            self.store.log(&WalOp::AppendFeatures {
                video: video.to_string(),
                n_features: n_features as u64,
                values: rows.iter().flatten().copied().collect(),
            })?;
        }
        self.apply_feature_rows(video, n_features, rows.iter().map(Vec::as_slice))
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
    /// BATs on first use: each column is extended once, by the whole
    /// chunk. Shared by the live append and WAL replay.
    fn apply_feature_rows<'r>(
        &self,
        video: &str,
        n_features: usize,
        rows: impl Iterator<Item = &'r [f64]> + Clone,
    ) -> Result<()> {
        for k in 0..n_features {
            let name = feature_bat_name(video, k);
            let empty = || {
                self.kernel
                    .set_bat(&name, Bat::new(AtomType::Void, AtomType::Dbl))
            };
            let column = self.kernel.bat(&name).unwrap_or_else(|_| empty());
            column
                .write()
                .recover()
                .extend_dbls(rows.clone().map(|row| row[k]))?;
        }
        self.commit_seq(None);
        Ok(())
    }

    /// Feature rows committed for `video`, 0 when the layer is absent —
    /// the availability check of the query pre-processor, and how far a
    /// streamed ingest has come.
    pub fn feature_rows(&self, video: &str) -> usize {
        self.kernel
            .bat(&feature_bat_name(video, 0))
            .map_or(0, |bat| bat.read().recover().len())
    }

    /// [`load_feature_rows`] of a registered video.
    pub fn load_features(&self, video: &str, n_features: usize) -> Result<Vec<Vec<f64>>> {
        self.video(video)?;
        load_feature_rows(&self.kernel, video, n_features)
    }

    /// Appends event-layer records (creating the BATs on first use).
    /// Logged, then applied; a row that ends before it starts refuses
    /// the whole write ([`CobraError::InvalidEvent`]) before it is logged.
    pub fn store_events(&self, video: &str, events: &[EventRecord]) -> Result<()> {
        self.video(video)?;
        check_rows(video, events)?;
        let _commit = self.commit.lock().recover();
        if self.store.is_durable() {
            self.store.log(&WalOp::StoreEvents {
                video: video.to_string(),
                events: events.iter().map(WalEvent::from).collect(),
            })?;
        }
        self.commit_events(video, NO_KINDS, events)
    }

    /// One event-layer transaction, a re-annotation's: the rows of
    /// `drop_kinds` go, the others stay in order, `rows` follow them.
    /// One WAL record and one commit seq: a failed append or a crash
    /// leaves the layer as it was. Logged, then applied, and refused
    /// like [`store_events`](Self::store_events) for a row that ends
    /// before it starts.
    pub fn replace_events(
        &self,
        video: &str,
        drop_kinds: &[&str],
        rows: &[EventRecord],
    ) -> Result<()> {
        self.video(video)?;
        check_rows(video, rows)?;
        let _commit = self.commit.lock().recover();
        if self.store.is_durable() {
            self.store.log(&WalOp::ReplaceEvents {
                video: video.to_string(),
                drop_kinds: drop_kinds.iter().map(|k| k.to_string()).collect(),
                events: rows.iter().map(WalEvent::from).collect(),
            })?;
        }
        self.commit_events(video, drop_kinds, rows)
    }

    /// The one event-layer commit, live or replayed: the rows of
    /// `drop_kinds` go, the others stay in order, `rows` follow them (an
    /// append drops nothing). Readers capture a layer's four columns and
    /// their guard together ([`event_layer`](Self::event_layer)), under
    /// the stamp lock this publishes under, so they see the layer before
    /// the commit or after it, never between. An append to an existing
    /// layer moves the seqs of its rows' kinds and drivers; any other
    /// commit moves the whole layer's, and says which kinds the layer it
    /// leaves has unnamed rows of. Caller holds the commit lock, so the
    /// rows kept are the rows committed.
    fn commit_events<K: AsRef<str>>(
        &self,
        video: &str,
        drop_kinds: &[K],
        rows: &[EventRecord],
    ) -> Result<()> {
        let names = event_names(video);
        let names = names.each_ref().map(String::as_str);
        let mut stamps = self.changed.write().recover();
        // An append to a layer no reader holds grows it where it lies…
        let grown = drop_kinds
            .is_empty()
            .then(|| {
                self.kernel
                    .update_unshared(names, |layer| append_rows(layer, rows))
            })
            .flatten();
        let change = match grown {
            Some(appended) => appended.map(|()| Change::Append(rows))?,
            // …any other commit builds the layer aside, off the stamp
            // lock, and rebinds its four names at once.
            None => {
                let known = stamps
                    .get(video)
                    .and_then(|changes| changes.unnamed.clone());
                drop(stamps);
                let current = layer_of(video, self.kernel.bats(names))?;
                let layer = build_layer(current.as_ref(), drop_kinds, rows)?;
                let change = match current {
                    Some(_) if drop_kinds.is_empty() => Change::Append(rows),
                    // The rows are the whole layer…
                    None => Change::Layer(Some(unnamed_rows(rows))),
                    // …or the kinds dropped lose their unnamed rows, and
                    // the rows add theirs.
                    Some(_) => Change::Layer(known.map(|mut unnamed| {
                        for kind in drop_kinds {
                            unnamed.remove(kind.as_ref());
                        }
                        unnamed.extend(unnamed_rows(rows));
                        unnamed
                    })),
                };
                stamps = self.changed.write().recover();
                self.kernel.set_bats(names.into_iter().zip(layer));
                change
            }
        };
        self.stamp_video(stamps, video, change);
        Ok(())
    }

    /// `video`'s event layer as the last commit left it, and the
    /// [`guard`](Self::guard) of `reads` at that commit, captured in one
    /// critical section (`None` when the video has no event layer).
    /// Commits never change a layer a reader holds, so everything read
    /// through it — every MIL evaluation of a retrieval, its positional
    /// reads — reads that one commit, and an answer computed from the
    /// rows `reads` cover is exactly what the guard guards.
    pub(crate) fn event_layer<'r>(
        &self,
        video: &str,
        reads: impl IntoIterator<Item = Read<'r>> + Clone,
    ) -> Result<(Stamp, Option<EventLayer>)> {
        let names = event_names(video);
        let stamps = self.changed.read().recover();
        let columns = self.kernel.bats(names.each_ref().map(String::as_str));
        let seq = guard_in(&stamps, video, 0, reads);
        drop(stamps);
        let layer = layer_of(video, columns)?.map(|columns| EventLayer { names, columns });
        Ok((self.stamp_of(seq), layer))
    }

    /// Loads the event layer, optionally filtered by kind, in one pass
    /// over the typed columns.
    pub fn events(&self, video: &str, kind: Option<&str>) -> Result<Vec<EventRecord>> {
        self.video(video)?;
        let Some(layer) = self.event_layer(video, [])?.1 else {
            return Ok(Vec::new());
        };
        layer.read(|layer| {
            let record = |i: usize| EventRecord {
                kind: layer.kinds.value(i).to_string(),
                start: layer.starts[i] as usize,
                end: layer.ends[i] as usize,
                driver: layer.driver(i).as_deref().map(str::to_owned),
            };
            Ok(match kind {
                Some(kind) => layer.rows_of(kind).map(record).collect(),
                None => (0..layer.len()).map(record).collect(),
            })
        })
    }

    /// Installs the state recovery found at boot: the manifest's videos
    /// and snapshot BATs, then the WAL tail replayed through the same
    /// apply paths live mutations use. Runs before any concurrency.
    pub fn install_recovery(&self, recovery: Recovery) -> Result<()> {
        {
            let mut videos = self.videos.write().recover();
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
        // A snapshot's layers were never committed here: their unnamed
        // kinds come from one pass over each.
        {
            let mut stamps = self.changed.write().recover();
            for v in &recovery.videos {
                stamps.entry(v.name.clone()).or_default().unnamed = self.unnamed_in(&v.name);
            }
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
                self.videos.write().recover().insert(name.clone(), info);
                // A registration keeps the rows a layer has.
                self.commit_seq(Some((&name, self.unnamed_in(&name))));
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
                let rows = self.replayed_rows(events);
                self.commit_events(&video, NO_KINDS, &rows)
            }
            WalOp::ReplaceEvents {
                video,
                drop_kinds,
                events,
            } => {
                let rows = self.replayed_rows(events);
                self.commit_events(&video, &drop_kinds, &rows)
            }
            // Written before `ReplaceEvents` existed, only replayed now.
            WalOp::ClearEvents { video } => {
                for name in event_names(&video) {
                    let _ = self.kernel.drop_bat(&name);
                }
                self.commit_seq(Some((&video, Some(Unnamed::new()))));
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

    /// A replayed record's rows. A store written before writes were
    /// checked ([`check_rows`]) may hold rows that end before they start:
    /// they are dropped, counted in `store.recovery.dropped_rows`, so the
    /// store still boots and its video still answers.
    fn replayed_rows(&self, events: Vec<WalEvent>) -> Vec<EventRecord> {
        let mut rows: Vec<EventRecord> = events.into_iter().map(Into::into).collect();
        let logged = rows.len();
        rows.retain(|row| !ends_before_start(row));
        let dropped = (logged - rows.len()) as u64;
        if dropped > 0 {
            let registry = self.kernel.metrics().registry();
            registry
                .counter("store.recovery.dropped_rows", &[])
                .add(dropped);
        }
        rows
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
        let _serial = self.ckpt.lock().recover();
        let state = {
            let _commit = self.commit.lock().recover();
            if !self.store.begin_checkpoint()? {
                return Ok(None);
            }
            self.collect_state()
        };
        Ok(Some(self.store.complete_checkpoint(state)?))
    }

    /// Clones the catalog's durable state. Caller holds the commit lock.
    fn collect_state(&self) -> SnapshotState {
        let videos_guard = self.videos.read().recover();
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
                let bat = handle.read().recover();
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
const EVENT_FIELDS: [&str; 4] = ["kind", "start", "end", "driver"];

/// The kinds an append drops.
const NO_KINDS: &[&str] = &[];

/// The names of `video`'s four event columns, in [`EVENT_FIELDS`] order.
fn event_names(video: &str) -> [String; 4] {
    EVENT_FIELDS.map(|field| format!("{video}.ev.{field}"))
}

/// One committed version of a video's event layer: its four column
/// handles, fetched together ([`Catalog::event_layer`]).
pub(crate) struct EventLayer {
    names: [String; 4],
    columns: [BatHandle; 4],
}

impl EventLayer {
    /// What a MIL evaluation over this layer reads its four
    /// `{video}.ev.*` names as ([`Kernel::eval_prepared`]).
    pub(crate) fn bindings(&self) -> [(&str, &BatHandle); 4] {
        std::array::from_fn(|i| (self.names[i].as_str(), &self.columns[i]))
    }

    /// Runs `read` over the layer's typed columns.
    pub(crate) fn read<T>(&self, read: impl FnOnce(EventColumns<'_>) -> Result<T>) -> Result<T> {
        let guards = self
            .columns
            .each_ref()
            .map(|column| column.read().recover());
        read(EventColumns::of(guards.each_ref().map(|bat| &**bat))?)
    }
}

/// The typed columns of one event layer, all of one length.
pub(crate) struct EventColumns<'a> {
    /// Event kinds.
    pub(crate) kinds: &'a StrColumn,
    /// First clips.
    pub(crate) starts: &'a [i64],
    /// Clips one past the last.
    pub(crate) ends: &'a [i64],
    /// Driver names, `""` for none.
    pub(crate) drivers: &'a StrColumn,
}

impl<'a> EventColumns<'a> {
    /// Reads `[kind, start, end, driver]` as typed columns. Each must be
    /// a `[void,…]` BAT of its field's type and all of one length;
    /// anything else — a layer only a hand-made binding can leave — is
    /// a typed error.
    fn of(bats: [&'a Bat; 4]) -> Result<Self> {
        fn tail<'b, T: ?Sized>(
            bat: &'b Bat,
            field: &str,
            typed: impl FnOnce(&'b Column) -> Option<&'b T>,
        ) -> Result<&'b T> {
            let found = || MonetError::TypeMismatch {
                expected: format!("a [void,…] {field} field"),
                found: format!(
                    "[{},{}]",
                    bat.head().atom_type().name(),
                    bat.tail().atom_type().name()
                ),
            };
            match bat.head().void_run() {
                Some((0, _)) => typed(bat.tail()).ok_or_else(found),
                _ => Err(found()),
            }
            .map_err(CobraError::from)
        }
        let lens = bats.map(Bat::len);
        let short = lens.into_iter().min().unwrap_or(0);
        if lens.into_iter().any(|len| len != short) {
            // The shortest field lacks the row at its own length.
            let ragged = MonetError::OutOfRange {
                index: short,
                len: short,
            };
            return Err(ragged.into());
        }
        let [kinds, starts, ends, drivers] = bats;
        Ok(EventColumns {
            kinds: tail(kinds, "kind", Column::strs)?,
            starts: tail(starts, "start", Column::ints)?,
            ends: tail(ends, "end", Column::ints)?,
            drivers: tail(drivers, "driver", Column::strs)?,
        })
    }

    /// Number of events.
    fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The rows of `kind`, in layer order. They compare dictionary
    /// codes: one lookup resolves the kind, and a kind the layer never
    /// stored matches no row.
    pub(crate) fn rows_of(&self, kind: &str) -> impl Iterator<Item = usize> + '_ {
        let code = self.kinds.code_of(kind);
        let codes = self.kinds.codes().iter();
        codes
            .enumerate()
            .filter_map(move |(row, &c)| (Some(c) == code).then_some(row))
    }

    /// `[start, end)` of the event at `row`; a row past the layer's end
    /// is a typed error.
    pub(crate) fn span(&self, row: usize) -> Result<(usize, usize)> {
        match (self.starts.get(row), self.ends.get(row)) {
            (Some(&start), Some(&end)) => Ok((start.max(0) as usize, end.max(0) as usize)),
            _ => Err(MonetError::OutOfRange {
                index: row,
                len: self.len(),
            }
            .into()),
        }
    }

    /// The driver the event at `row` names, if it names one: the
    /// dictionary's own string, so no row allocates one.
    pub(crate) fn driver(&self, row: usize) -> Option<Arc<str>> {
        let name = self.drivers.value(row);
        (!name.is_empty()).then(|| Arc::clone(name))
    }
}

/// The four handles [`Kernel::bats`] found for an event layer: all or
/// none, anything between being a layer no commit leaves.
fn layer_of(video: &str, found: [Option<BatHandle>; 4]) -> Result<Option<[BatHandle; 4]>> {
    match found {
        [Some(kinds), Some(starts), Some(ends), Some(drivers)] => {
            Ok(Some([kinds, starts, ends, drivers]))
        }
        [None, None, None, None] => Ok(None),
        _ => Err(MonetError::NotFound(format!("a field of video '{video}'s event layer")).into()),
    }
}

/// The layer a commit publishes, built aside: `current`'s rows less
/// those of `drop_kinds`, then `rows`. An append copies the columns and
/// shares their dictionaries; a replace keeps the strings the kept rows
/// use, in the order they first use them — the dictionary pushing the
/// rows one by one would build.
fn build_layer<K: AsRef<str>>(
    current: Option<&[BatHandle; 4]>,
    drop_kinds: &[K],
    rows: &[EventRecord],
) -> Result<[Bat; 4]> {
    let mut layer = match current {
        None => [AtomType::Str, AtomType::Int, AtomType::Int, AtomType::Str]
            .map(|ty| Bat::new(AtomType::Void, ty)),
        Some(current) => {
            let guards = current.each_ref().map(|column| column.read().recover());
            let bats = guards.each_ref().map(|bat| &**bat);
            let old = EventColumns::of(bats)?;
            if drop_kinds.is_empty() {
                bats.map(Bat::clone)
            } else {
                let dropped: Vec<u32> = drop_kinds
                    .iter()
                    .filter_map(|kind| old.kinds.code_of(kind.as_ref()))
                    .collect();
                let kept: Vec<u32> = (0..old.len() as u32)
                    .filter(|&i| !dropped.contains(&old.kinds.codes()[i as usize]))
                    .collect();
                let ints = |column: &[i64]| kept.iter().map(|&i| column[i as usize]).collect();
                [
                    ColumnData::Str(old.kinds.gather_compact(&kept)),
                    ColumnData::Int(ints(old.starts)),
                    ColumnData::Int(ints(old.ends)),
                    ColumnData::Str(old.drivers.gather_compact(&kept)),
                ]
                .map(Bat::from_tail_data)
            }
        }
    };
    append_rows(layer.each_mut(), rows)?;
    Ok(layer)
}

/// Appends `rows` to an event layer's four columns, each extended once:
/// strings interned against the column's dictionary, each new one
/// allocated once. The layer is checked first, so a malformed one is a
/// typed error with nothing appended.
/// Whether `row` ends before it starts — the one event row the catalog
/// refuses, since every reader builds an interval from a row's clips.
/// A row past the video's registered `n_clips` is kept: readers clamp
/// it, and where a live video ends is still open while it grows.
fn ends_before_start(row: &EventRecord) -> bool {
    row.end < row.start
}

/// Refuses a write holding a row that [`ends_before_start`], before it
/// is logged: the catalog stays unchanged.
fn check_rows(video: &str, rows: &[EventRecord]) -> Result<()> {
    match rows.iter().find(|row| ends_before_start(row)) {
        Some(row) => Err(CobraError::InvalidEvent {
            video: video.to_string(),
            kind: row.kind.clone(),
            start: row.start,
            end: row.end,
        }),
        None => Ok(()),
    }
}

fn append_rows([kinds, starts, ends, drivers]: [&mut Bat; 4], rows: &[EventRecord]) -> Result<()> {
    EventColumns::of([&*kinds, &*starts, &*ends, &*drivers])?;
    kinds.extend_strs(rows.iter().map(|e| e.kind.as_str()))?;
    starts.extend_ints(rows.iter().map(|e| e.start as i64))?;
    ends.extend_ints(rows.iter().map(|e| e.end as i64))?;
    drivers.extend_strs(rows.iter().map(|e| e.driver.as_deref().unwrap_or("")))?;
    Ok(())
}

/// The kinds of `rows` with a row naming no driver.
fn unnamed_rows(rows: &[EventRecord]) -> Unnamed {
    let unnamed = rows
        .iter()
        .filter(|row| row.driver.as_deref().unwrap_or("").is_empty());
    unnamed.map(|row| row.kind.clone()).collect()
}

/// The kinds of `layer` with a row naming no driver, in one pass over
/// its kind and driver codes.
fn unnamed_of(layer: &EventColumns<'_>) -> Unnamed {
    let Some(none) = layer.drivers.code_of("") else {
        return Unnamed::new();
    };
    let mut unnamed = vec![false; layer.kinds.dict_len()];
    for (&kind, &driver) in layer.kinds.codes().iter().zip(layer.drivers.codes()) {
        unnamed[kind as usize] |= driver == none;
    }
    let kinds = layer.kinds.dict().iter().zip(unnamed);
    kinds
        .filter(|(_, unnamed)| *unnamed)
        .map(|(kind, _)| kind.to_string())
        .collect()
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
        let bat = handle.read().recover();
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
        assert_eq!(
            c.kernel().bat("german.f1").unwrap().read().recover().len(),
            1
        );
        assert_eq!(
            c.kernel().bat("german.f2").unwrap().read().recover().len(),
            1
        );
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

    /// A row that ends before it starts is refused before it is logged,
    /// so the video keeps answering retrievals that build intervals from
    /// its rows; a log that already holds one (written before the check)
    /// still boots, the row dropped and counted.
    #[test]
    fn a_row_that_ends_before_it_starts_is_refused_and_dropped_on_replay() {
        let row = |kind: &str, start, end| EventRecord {
            kind: kind.into(),
            start,
            end,
            driver: None,
        };
        let (highlight, pit_stop) = (row("highlight", 10, 40), row("caption:pit_stop", 20, 35));
        let bad = row("caption:pit_stop", 15, 5);

        let vdbms = crate::Vdbms::try_new().unwrap();
        let c = &vdbms.catalog;
        c.register_video(catalog().video("german").unwrap())
            .unwrap();
        c.store_events("german", &[highlight.clone(), pit_stop.clone()])
            .unwrap();
        let version = c.data_version();
        let refused = c.store_events("german", &[highlight.clone(), bad.clone()]);
        assert!(matches!(
            refused,
            Err(CobraError::InvalidEvent {
                start: 15,
                end: 5,
                ..
            })
        ));
        let refused = c.replace_events("german", &["highlight"], std::slice::from_ref(&bad));
        assert!(matches!(refused, Err(CobraError::InvalidEvent { .. })));
        assert_eq!(c.data_version(), version, "a refused write changes nothing");
        let answer = vdbms.run("german", "RETRIEVE HIGHLIGHTS AT PITLANE");
        assert!(matches!(answer, Ok(crate::QueryOutput::Segments(s)) if s.len() == 1));

        let dir = std::env::temp_dir().join(format!("cobra-badrow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = cobra_store::StoreConfig::new(&dir);
        {
            let old = crate::Vdbms::open(&config).unwrap();
            old.catalog
                .register_video(catalog().video("german").unwrap())
                .unwrap();
            let logged = WalOp::StoreEvents {
                video: "german".into(),
                events: [&bad, &highlight, &pit_stop].map(WalEvent::from).into(),
            };
            old.catalog.store().log(&logged).unwrap();
        }
        let recovered = crate::Vdbms::open(&config).unwrap();
        let rows = recovered.catalog.events("german", None).unwrap();
        assert_eq!(rows, [highlight, pit_stop]);
        let registry = recovered.kernel().metrics().registry();
        let dropped = registry
            .snapshot()
            .counter("store.recovery.dropped_rows", &[]);
        assert_eq!(dropped, 1);
        let answer = recovered.run("german", "RETRIEVE HIGHLIGHTS AT PITLANE");
        assert!(matches!(answer, Ok(crate::QueryOutput::Segments(s)) if s.len() == 1));
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

    fn row(kind: &str, start: usize, driver: Option<&str>) -> EventRecord {
        EventRecord {
            kind: kind.into(),
            start,
            end: start + 5,
            driver: driver.map(str::to_string),
        }
    }

    /// A guard moves with a whole-layer change and with an append of a
    /// row it covers, to that commit's seq, and with nothing else; a
    /// whole-layer change forgets the per-key seqs it covers.
    #[test]
    fn a_guard_moves_only_with_the_rows_it_reads() {
        let c = catalog();
        let reads = [
            Read::Kind("highlight"),
            Read::Driver("A"),
            Read::KindDriver("excited", ""),
        ];
        let guard = || c.guard("german", reads);
        c.store_events("german", &[row("passing", 0, Some("B"))])
            .unwrap();
        assert_eq!(guard(), c.stamp(), "the first store is the whole layer");
        let held = guard();
        for unread in [
            row("excited", 5, Some("B")),
            row("passing", 10, None),
            row("fly_out", 15, Some("C")),
        ] {
            c.store_events("german", &[unread]).unwrap();
            assert_eq!(guard(), held, "an append it does not read");
        }
        assert!(c.video_stamp("german") > held, "the video's stamp moved");
        for read in [
            row("highlight", 20, Some("B")),
            row("start", 25, Some("A")),
            row("excited", 30, None),
        ] {
            c.store_events("german", &[read]).unwrap();
            assert_eq!(guard(), c.stamp(), "an append it reads");
        }
        let changes = |f: fn(&Changes) -> usize| f(&c.changed.read().recover()["german"]);
        assert_eq!(changes(|ch| ch.kinds.len()), 5);
        assert_eq!(changes(|ch| ch.drivers.len()), 4);
        c.replace_events("german", &["passing"], &[]).unwrap();
        assert_eq!(guard(), c.stamp(), "a replace is the whole layer");
        assert_eq!(changes(|ch| ch.kinds.len() + ch.drivers.len()), 0);
        c.store_events("german", &[row("fly_out", 35, None)])
            .unwrap();
        c.store_features("german", &vec![vec![0.5]; 4]).unwrap();
        assert!(guard() < c.stamp());
        c.register_video(VideoInfo {
            name: "german".into(),
            n_clips: 8,
            n_frames: 20,
        })
        .unwrap();
        assert_eq!(guard(), c.stamp(), "so is a registration");
        assert_eq!(c.guard("usa", reads).seq, 0, "never changed");
    }

    #[test]
    fn events_read_back_what_was_stored_with_unnamed_drivers_and_a_kind_filter() {
        let c = catalog();
        let stored = [
            row("highlight", 10, None),
            row("caption:pit_stop", 20, Some("MONTOYA")),
            row("highlight", 30, Some("SCHUMACHER")),
            row("excited", 40, None),
        ];
        c.store_events("german", &stored[..2]).unwrap();
        c.store_events("german", &stored[2..]).unwrap();
        assert_eq!(c.events("german", None).unwrap(), stored);
        let of_kind = |kind: &str| -> Vec<EventRecord> {
            stored.iter().filter(|e| e.kind == kind).cloned().collect()
        };
        for kind in ["highlight", "caption:pit_stop", "excited", "fly_out"] {
            assert_eq!(
                c.events("german", Some(kind)).unwrap(),
                of_kind(kind),
                "{kind}"
            );
        }
        // A replace keeps the other kinds, unnamed drivers included.
        let fresh = row("highlight", 50, None);
        c.replace_events("german", &["highlight"], std::slice::from_ref(&fresh))
            .unwrap();
        let kept = [stored[1].clone(), stored[3].clone(), fresh.clone()];
        assert_eq!(c.events("german", None).unwrap(), kept);
        assert_eq!(c.events("german", Some("highlight")).unwrap(), [fresh]);
    }

    /// A replace keeps only the strings its rows use, in first-use order:
    /// the dictionary (and so the planner's distinct count) a layer
    /// pushed row by row from empty would have.
    #[test]
    fn a_replace_keeps_the_dictionary_its_rows_use() {
        let c = catalog();
        let stored = [
            row("highlight", 0, Some("A")),
            row("excited", 10, Some("B")),
            row("passing", 20, Some("C")),
        ];
        c.store_events("german", &stored).unwrap();
        c.replace_events("german", &["highlight"], &[row("start", 30, Some("A"))])
            .unwrap();
        let dict = |field: &str| {
            let bat = c.kernel().bat(&format!("german.ev.{field}")).unwrap();
            let bat = bat.read().recover();
            let names = bat.tail().strs().unwrap().dict().to_vec();
            names.iter().map(|s| s.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(dict("kind"), ["excited", "passing", "start"]);
        assert_eq!(dict("driver"), ["B", "C", "A"]);
    }

    /// An append grows a layer no reader holds where it lies, and copies
    /// one a reader holds: the reader keeps reading the version it took.
    #[test]
    fn an_append_never_changes_a_layer_a_reader_holds() {
        let c = catalog();
        c.store_events("german", &[row("highlight", 0, None)])
            .unwrap();
        let bat_id = || {
            c.kernel()
                .bat("german.ev.start")
                .unwrap()
                .read()
                .recover()
                .id()
        };
        let unshared = bat_id();
        c.store_events("german", &[row("highlight", 10, None)])
            .unwrap();
        assert_eq!(bat_id(), unshared, "grown where it lies");

        let excited = [Read::Kind("excited")];
        let (stamp, held) = c.event_layer("german", excited).unwrap();
        let held = held.unwrap();
        c.store_events("german", &[row("excited", 20, Some("MONTOYA"))])
            .unwrap();
        assert_ne!(bat_id(), unshared, "copied");
        assert_eq!(held.read(|events| Ok(events.len())).unwrap(), 2);
        assert_eq!(c.events("german", None).unwrap().len(), 3);
        assert!(c.video_stamp("german") > stamp);
        drop(held);
        let (now, layer) = c.event_layer("german", excited).unwrap();
        assert_eq!(now, c.video_stamp("german"), "the append it reads");
        let excited = |events: EventColumns<'_>| Ok(events.rows_of("excited").count());
        assert_eq!(layer.unwrap().read(excited).unwrap(), 1);
    }

    /// Commits are atomic, so only a binding made by hand leaves the four
    /// columns of different lengths: reading them is a typed error, and
    /// a commit onto them fails before it changes anything.
    #[test]
    fn a_ragged_layer_bound_by_hand_is_a_typed_error() {
        let c = catalog();
        c.store_events(
            "german",
            &[row("highlight", 0, None), row("excited", 9, None)],
        )
        .unwrap();
        let short = Bat::from_tail_data(ColumnData::Int(vec![0]));
        c.kernel().set_bat("german.ev.end", short);
        let ragged = |err| {
            matches!(
                err,
                CobraError::Kernel(MonetError::OutOfRange { index: 1, len: 1 })
            )
        };
        assert!(ragged(c.events("german", None).unwrap_err()));
        assert!(ragged(
            c.store_events("german", &[row("passing", 20, None)])
                .unwrap_err()
        ));
        assert!(ragged(
            c.replace_events("german", &["excited"], &[]).unwrap_err()
        ));
        assert_eq!(
            c.kernel()
                .bat("german.ev.kind")
                .unwrap()
                .read()
                .recover()
                .len(),
            2
        );
        // A missing field is typed too.
        c.kernel().drop_bat("german.ev.end").unwrap();
        assert!(matches!(
            c.events("german", None),
            Err(CobraError::Kernel(MonetError::NotFound(_)))
        ));
    }
}
