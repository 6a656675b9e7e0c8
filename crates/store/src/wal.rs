//! The write-ahead log: typed catalog mutations in an append-only,
//! length-prefixed, CRC-guarded record stream.
//!
//! ## Record format
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload]
//! payload = [u64 seq][u8 op tag][op body]
//! ```
//!
//! `len` counts payload bytes only. Sequence numbers are assigned by the
//! writer, strictly increasing across file rotations, and never reused —
//! recovery uses them to skip records a snapshot already covers.
//!
//! ## Torn-tail tolerance
//!
//! A crash can leave the final record truncated (partial write) or
//! corrupt (the length prefix landed, the payload did not). The reader
//! stops at the first record whose length prefix is incomplete, whose
//! declared length exceeds the remaining bytes or the frame bound, or
//! whose CRC disagrees — everything before that point is intact by CRC,
//! everything after is discarded. This is the standard ARIES-style
//! contract: an acknowledged (synced) record is never behind a torn one.
//!
//! ## Fault sites
//!
//! * `store.wal.append` — fails *before* any byte is written: the op is
//!   neither durable nor acknowledged.
//! * `store.wal.torn` — writes only a prefix of the frame and fails:
//!   models a crash mid-write (the tail is torn on disk).
//! * `store.wal.ack` — fails *after* write + sync: the op is durable but
//!   the caller never sees the acknowledgement.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::codec::{CodecError, Dec, Enc};
use crate::crc::crc32;
use crate::{StoreError, StoreResult};

/// Upper bound on one record's payload, enforced on both paths: the
/// writer rejects a larger record before any byte lands (so it is never
/// acknowledged), and the reader treats a larger length prefix as a torn
/// tail rather than an allocation request. Writer enforcement is what
/// makes reader rejection safe — every frame the writer can produce is
/// replayable.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// One event-layer row as logged (mirrors the catalog's `EventRecord`
/// without depending on the core crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEvent {
    /// Event kind ("highlight", "caption:pit_stop", …).
    pub kind: String,
    /// First clip.
    pub start: u64,
    /// One past the last clip.
    pub end: u64,
    /// Driver name, when known.
    pub driver: Option<String>,
}

/// A typed, replayable catalog mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A process (re)opened the store at this boot epoch. Not a catalog
    /// mutation; persists the epoch even before the first checkpoint.
    Boot {
        /// The strictly increasing boot counter.
        epoch: u64,
    },
    /// Raw-layer registration of a video.
    RegisterVideo {
        /// Catalog name.
        name: String,
        /// Clips in the broadcast.
        n_clips: u64,
        /// Video frames.
        n_frames: u64,
    },
    /// The feature layer of a video, row-major (`values[t * n_features + k]`).
    StoreFeatures {
        /// The video.
        video: String,
        /// Features per clip.
        n_features: u64,
        /// Row-major feature values (`n_clips * n_features` entries).
        values: Vec<f64>,
    },
    /// Appended event-layer rows.
    StoreEvents {
        /// The video.
        video: String,
        /// The appended rows, in order.
        events: Vec<WalEvent>,
    },
    /// The event layer of a video was dropped. No longer written (a
    /// re-annotation is one [`ReplaceEvents`](WalOp::ReplaceEvents));
    /// still decoded and replayed so logs from before that recover.
    ClearEvents {
        /// The video.
        video: String,
    },
    /// Feature rows appended to the tail of a video's feature layer
    /// (streaming ingest), row-major like `StoreFeatures`. Replay
    /// extends the existing columns instead of replacing them.
    AppendFeatures {
        /// The video.
        video: String,
        /// Features per clip (must match the existing layer, if any).
        n_features: u64,
        /// Row-major appended values (`n_new_clips * n_features`).
        values: Vec<f64>,
    },
    /// One event-layer transaction: the rows of `drop_kinds` go, the
    /// other rows stay in order, `events` are appended after them.
    ReplaceEvents {
        /// The video.
        video: String,
        /// The kinds whose rows are dropped.
        drop_kinds: Vec<String>,
        /// The appended rows, in order.
        events: Vec<WalEvent>,
    },
}

const TAG_BOOT: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_FEATURES: u8 = 3;
const TAG_EVENTS: u8 = 4;
const TAG_CLEAR: u8 = 5;
const TAG_APPEND_FEATURES: u8 = 6;
const TAG_REPLACE_EVENTS: u8 = 7;

fn encode_events(e: &mut Enc, events: &[WalEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        e.str(&ev.kind);
        e.u64(ev.start);
        e.u64(ev.end);
        match &ev.driver {
            Some(d) => {
                e.u8(1);
                e.str(d);
            }
            None => e.u8(0),
        }
    }
}

fn decode_events(d: &mut Dec<'_>) -> Result<Vec<WalEvent>, CodecError> {
    let n = d.count(17, "event rows")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = d.str("event kind")?;
        let start = d.u64("event start")?;
        let end = d.u64("event end")?;
        let driver = match d.u8("driver flag")? {
            0 => None,
            1 => Some(d.str("event driver")?),
            other => {
                return Err(CodecError::new(format!("driver flag {other}")));
            }
        };
        events.push(WalEvent {
            kind,
            start,
            end,
            driver,
        });
    }
    Ok(events)
}

impl WalOp {
    /// Encodes the op body (tag included) into `e`.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            WalOp::Boot { epoch } => {
                e.u8(TAG_BOOT);
                e.u64(*epoch);
            }
            WalOp::RegisterVideo {
                name,
                n_clips,
                n_frames,
            } => {
                e.u8(TAG_REGISTER);
                e.str(name);
                e.u64(*n_clips);
                e.u64(*n_frames);
            }
            WalOp::StoreFeatures {
                video,
                n_features,
                values,
            } => {
                e.u8(TAG_FEATURES);
                e.str(video);
                e.u64(*n_features);
                e.u32(values.len() as u32);
                for v in values {
                    e.f64(*v);
                }
            }
            WalOp::StoreEvents { video, events } => {
                e.u8(TAG_EVENTS);
                e.str(video);
                encode_events(e, events);
            }
            WalOp::ClearEvents { video } => {
                e.u8(TAG_CLEAR);
                e.str(video);
            }
            WalOp::AppendFeatures {
                video,
                n_features,
                values,
            } => {
                e.u8(TAG_APPEND_FEATURES);
                e.str(video);
                e.u64(*n_features);
                e.u32(values.len() as u32);
                for v in values {
                    e.f64(*v);
                }
            }
            WalOp::ReplaceEvents {
                video,
                drop_kinds,
                events,
            } => {
                e.u8(TAG_REPLACE_EVENTS);
                e.str(video);
                e.u32(drop_kinds.len() as u32);
                for kind in drop_kinds {
                    e.str(kind);
                }
                encode_events(e, events);
            }
        }
    }

    /// Decodes one op (tag first) from `d`.
    pub fn decode(d: &mut Dec<'_>) -> Result<WalOp, CodecError> {
        match d.u8("op tag")? {
            TAG_BOOT => Ok(WalOp::Boot {
                epoch: d.u64("boot epoch")?,
            }),
            TAG_REGISTER => Ok(WalOp::RegisterVideo {
                name: d.str("video name")?,
                n_clips: d.u64("n_clips")?,
                n_frames: d.u64("n_frames")?,
            }),
            TAG_FEATURES => {
                let video = d.str("video name")?;
                let n_features = d.u64("n_features")?;
                let n = d.count(8, "feature values")?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(d.f64("feature value")?);
                }
                if n_features > 0 && !(n as u64).is_multiple_of(n_features) {
                    return Err(CodecError::new(format!(
                        "feature matrix: {n} values not divisible by {n_features} columns"
                    )));
                }
                Ok(WalOp::StoreFeatures {
                    video,
                    n_features,
                    values,
                })
            }
            TAG_EVENTS => Ok(WalOp::StoreEvents {
                video: d.str("video name")?,
                events: decode_events(d)?,
            }),
            TAG_CLEAR => Ok(WalOp::ClearEvents {
                video: d.str("video name")?,
            }),
            TAG_APPEND_FEATURES => {
                let video = d.str("video name")?;
                let n_features = d.u64("n_features")?;
                let n = d.count(8, "appended feature values")?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(d.f64("feature value")?);
                }
                if n_features > 0 && !(n as u64).is_multiple_of(n_features) {
                    return Err(CodecError::new(format!(
                        "appended features: {n} values not divisible by {n_features} columns"
                    )));
                }
                Ok(WalOp::AppendFeatures {
                    video,
                    n_features,
                    values,
                })
            }
            TAG_REPLACE_EVENTS => {
                let video = d.str("video name")?;
                let n = d.count(4, "dropped kinds")?;
                let mut drop_kinds = Vec::with_capacity(n);
                for _ in 0..n {
                    drop_kinds.push(d.str("dropped kind")?);
                }
                Ok(WalOp::ReplaceEvents {
                    video,
                    drop_kinds,
                    events: decode_events(d)?,
                })
            }
            other => Err(CodecError::new(format!("unknown op tag {other}"))),
        }
    }
}

/// Builds the on-disk frame for `(seq, op)`.
pub fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Enc::new();
    payload.u64(seq);
    op.encode(&mut payload);
    let payload = payload.into_bytes();
    let mut frame = Enc::new();
    frame.u32(payload.len() as u32);
    frame.u32(crc32(&payload));
    let mut bytes = frame.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

/// How aggressively the WAL reaches the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record — an acknowledged op survives
    /// `kill -9` and power loss. The default.
    Always,
    /// `fdatasync` every `n` records (and on flush/rotate): group
    /// commit. A crash can lose up to the last `n - 1` acknowledged
    /// records, never tear the survivors.
    EveryN(u32),
    /// Never sync explicitly; the OS page cache decides. Survives
    /// process kill (the data is in kernel memory), not power loss.
    Never,
}

/// What one WAL file scan found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalScan {
    /// Decoded `(seq, op)` records, in file order.
    pub records: Vec<(u64, WalOp)>,
    /// Bytes consumed by intact records.
    pub valid_bytes: u64,
    /// True when trailing bytes were discarded (torn or corrupt tail).
    pub torn: bool,
}

/// Reads every intact record of one WAL file, stopping cleanly at the
/// first truncated or CRC-corrupt frame.
pub fn read_wal_file(path: &Path) -> StoreResult<WalScan> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io("read wal", path, e))?;
    let mut scan = WalScan::default();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_RECORD_LEN || bytes.len() - pos - 8 < len {
            scan.torn = true;
            return Ok(scan);
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            scan.torn = true;
            return Ok(scan);
        }
        let mut d = Dec::new(payload);
        let seq = match d.u64("record seq") {
            Ok(s) => s,
            Err(_) => {
                scan.torn = true;
                return Ok(scan);
            }
        };
        match WalOp::decode(&mut d) {
            Ok(op) => scan.records.push((seq, op)),
            Err(_) => {
                // The CRC matched but the body does not parse: treat as
                // corruption and stop (a matching CRC over garbage means
                // the garbage was written as-is; nothing later is safe).
                scan.torn = true;
                return Ok(scan);
            }
        }
        pos += 8 + len;
        scan.valid_bytes = pos as u64;
    }
    if pos < bytes.len() {
        scan.torn = true; // trailing partial length prefix
    }
    Ok(scan)
}

/// The append half of the log: one open file, the next sequence number,
/// and the fsync batching state.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    offset: u64,
    next_seq: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    /// Set when an undo (truncate-back after a failed write) itself
    /// failed: the tail is in an unknown state, further appends would
    /// sit behind garbage and be lost to recovery.
    poisoned: bool,
    /// Injector behind the `store.wal.*` sites.
    faults: cobra_faults::FaultHandle,
}

/// What a successful append did.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// The record's sequence number.
    pub seq: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// True when this append ran `fdatasync`.
    pub synced: bool,
}

impl WalWriter {
    /// Opens (creating or appending to) the WAL file at `path`; the
    /// first record will be numbered `next_seq`.
    pub fn open(path: &Path, next_seq: u64, policy: FsyncPolicy) -> StoreResult<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io("open wal", path, e))?;
        let offset = file
            .metadata()
            .map_err(|e| StoreError::io("stat wal", path, e))?
            .len();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            offset,
            next_seq,
            policy,
            unsynced: 0,
            poisoned: false,
            faults: cobra_faults::FaultHandle::default(),
        })
    }

    /// Puts the owning backend's fault injector behind the
    /// `store.wal.{append,torn,ack}` sites.
    pub fn with_faults(mut self, faults: cobra_faults::FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// The sequence number of the last appended record (`next - 1`).
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, honoring the fsync policy, and acknowledges
    /// it. Any failure leaves the file logically unchanged (a partial
    /// write is truncated back) — except under the `store.wal.torn`
    /// fault site, which deliberately leaves a torn tail to model a
    /// crash mid-write.
    pub fn append(&mut self, op: &WalOp) -> StoreResult<Appended> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        self.faults.fire("store.wal.append")?;
        let seq = self.next_seq;
        let frame = encode_record(seq, op);
        // A frame the reader would refuse must never be written: recovery
        // treats len > MAX_RECORD_LEN as a torn tail and would silently
        // drop this record and everything after it in the file.
        let payload_len = frame.len() - 8;
        if payload_len > MAX_RECORD_LEN {
            return Err(StoreError::RecordTooLarge {
                len: payload_len as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }

        if self.faults.fire("store.wal.torn").is_err() {
            // Crash mid-write: half the frame lands, the writer "dies".
            let half = &frame[..frame.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(StoreError::Fault {
                site: "store.wal.torn".into(),
            });
        }

        if let Err(e) = self.file.write_all(&frame) {
            // Undo the partial frame so later appends stay readable.
            if self.file.set_len(self.offset).is_err() {
                self.poisoned = true;
            }
            return Err(StoreError::io("append wal", &self.path, e));
        }
        let synced = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced + 1 >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if synced {
            if let Err(e) = self.file.sync_data() {
                // The frame is on disk but was never acknowledged: truncate
                // it back (like the write-failure path) so its sequence
                // number stays genuinely unused.
                if self.file.set_len(self.offset).is_err() {
                    self.poisoned = true;
                }
                return Err(StoreError::io("sync wal", &self.path, e));
            }
            self.unsynced = 0;
        } else {
            self.unsynced += 1;
        }
        self.offset += frame.len() as u64;
        self.next_seq += 1;
        self.faults.fire("store.wal.ack")?;
        Ok(Appended {
            seq,
            bytes: frame.len() as u64,
            synced,
        })
    }

    /// Forces buffered records to disk regardless of policy.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync wal", &self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cobra-wal-test-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-000001.log")
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Boot { epoch: 3 },
            WalOp::RegisterVideo {
                name: "german".into(),
                n_clips: 1800,
                n_frames: 4500,
            },
            WalOp::StoreFeatures {
                video: "german".into(),
                n_features: 2,
                values: vec![0.25, f64::NAN, -0.0, 1.0],
            },
            WalOp::StoreEvents {
                video: "german".into(),
                events: vec![
                    WalEvent {
                        kind: "highlight".into(),
                        start: 10,
                        end: 80,
                        driver: None,
                    },
                    WalEvent {
                        kind: "caption:pit_stop".into(),
                        start: 100,
                        end: 140,
                        driver: Some("HAKKINEN".into()),
                    },
                ],
            },
            WalOp::ClearEvents {
                video: "german".into(),
            },
            WalOp::AppendFeatures {
                video: "german".into(),
                n_features: 2,
                values: vec![0.5, 0.75],
            },
            WalOp::ReplaceEvents {
                video: "german".into(),
                drop_kinds: vec!["highlight".into(), "excited".into()],
                events: vec![WalEvent {
                    kind: "highlight".into(),
                    start: 12,
                    end: 90,
                    driver: None,
                }],
            },
        ]
    }

    #[test]
    fn append_and_scan_round_trip() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::open(&path, 1, FsyncPolicy::Always).unwrap();
        for op in sample_ops() {
            w.append(&op).unwrap();
        }
        let scan = read_wal_file(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 7);
        assert_eq!(
            scan.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6, 7]
        );
        let decoded: Vec<WalOp> = scan.records.into_iter().map(|(_, op)| op).collect();
        // NaN != NaN under PartialEq for f64; compare via bit patterns.
        match (&decoded[2], &sample_ops()[2]) {
            (WalOp::StoreFeatures { values: a, .. }, WalOp::StoreFeatures { values: b, .. }) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => panic!("wrong op"),
        }
        assert_eq!(decoded[0], sample_ops()[0]);
        assert_eq!(decoded[3], sample_ops()[3]);
        assert_eq!(decoded[4], sample_ops()[4]);
        assert_eq!(decoded[5], sample_ops()[5]);
        assert_eq!(decoded[6], sample_ops()[6]);
    }

    #[test]
    fn truncated_tail_stops_cleanly() {
        let path = tmp("trunc");
        let mut w = WalWriter::open(&path, 1, FsyncPolicy::Always).unwrap();
        for op in sample_ops() {
            w.append(&op).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in [full.len() - 1, full.len() - 7, full.len() / 2, 3, 0] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_wal_file(&path).unwrap();
            assert!(scan.records.len() < sample_ops().len());
            for (i, (seq, _)) in scan.records.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1, "prefix property violated");
            }
        }
    }

    #[test]
    fn crc_flip_stops_at_the_bad_record() {
        let path = tmp("flip");
        let mut w = WalWriter::open(&path, 1, FsyncPolicy::Always).unwrap();
        for op in sample_ops() {
            w.append(&op).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal_file(&path).unwrap();
        assert!(scan.torn);
        assert!(scan.records.len() < sample_ops().len());
    }

    #[test]
    fn oversized_record_is_rejected_before_any_byte_lands() {
        let path = tmp("oversize");
        let mut w = WalWriter::open(&path, 1, FsyncPolicy::Never).unwrap();
        // ~68 MB of feature values: payload > MAX_RECORD_LEN (64 MiB).
        let huge = WalOp::StoreFeatures {
            video: "german".into(),
            n_features: 2,
            values: vec![0.5; 8_500_000],
        };
        match w.append(&huge) {
            Err(StoreError::RecordTooLarge { len, max }) => {
                assert!(len > max);
                assert_eq!(max, MAX_RECORD_LEN as u64);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "nothing written"
        );
        // The rejected op consumed no sequence number; the log stays
        // fully replayable.
        let appended = w.append(&WalOp::Boot { epoch: 1 }).unwrap();
        assert_eq!(appended.seq, 1);
        w.flush().unwrap();
        let scan = read_wal_file(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let path = tmp("batch");
        let mut w = WalWriter::open(&path, 1, FsyncPolicy::EveryN(3)).unwrap();
        let mut synced = 0;
        for _ in 0..7 {
            if w.append(&WalOp::Boot { epoch: 0 }).unwrap().synced {
                synced += 1;
            }
        }
        assert_eq!(synced, 2); // records 3 and 6
    }
}
