//! Checksummed snapshot files: per-BAT column dumps plus the manifest
//! that binds them into one consistent checkpoint.
//!
//! Every snapshot artifact shares a framing:
//!
//! ```text
//! [u32 magic][u32 format version][u32 payload len][u32 crc32(payload)][payload]
//! ```
//!
//! A reader rejects the file (rather than trusting partial contents) on
//! any magic/version/length/CRC mismatch — a half-written BAT file or a
//! manifest torn mid-rename is indistinguishable from garbage, and
//! recovery falls back to the previous manifest generation.
//!
//! The manifest is the *commit point* of a checkpoint: BAT files are
//! written first under fresh names, then the manifest is written to a
//! temp file, fsynced, and atomically renamed over `MANIFEST`. A crash
//! before the rename leaves the old manifest (and the old, still-present
//! BAT files) in force; a crash after it leaves the new one. There is no
//! intermediate state.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use f1_monet::bat::{Bat, Column, ColumnData, StrColumn};

use crate::codec::{CodecError, Dec, Enc};
use crate::crc::crc32;
use crate::{StoreError, StoreResult};

const BAT_MAGIC: u32 = 0x5442_4243; // "CBBT" little-endian spirit: Cobra BAT
const MANIFEST_MAGIC: u32 = 0x4E4D_4243; // Cobra ManifestN
const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Framing

/// Frames `payload` with magic + format version + length + CRC.
fn frame(magic: u32, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(magic);
    e.u32(FORMAT_VERSION);
    e.u32(payload.len() as u32);
    e.u32(crc32(payload));
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Validates the framing of `bytes` and returns the payload slice.
fn unframe(magic: u32, bytes: &[u8]) -> Result<&[u8], CodecError> {
    let mut d = Dec::new(bytes);
    let got_magic = d.u32("file magic")?;
    if got_magic != magic {
        return Err(CodecError::new(format!(
            "file magic {got_magic:#010x}, expected {magic:#010x}"
        )));
    }
    let version = d.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::new(format!("format version {version}")));
    }
    let len = d.u32("payload length")? as usize;
    let crc = d.u32("payload crc")?;
    if d.remaining() != len {
        return Err(CodecError::new(format!(
            "payload length {len} != {} bytes on disk",
            d.remaining()
        )));
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Err(CodecError::new("payload crc mismatch"));
    }
    Ok(payload)
}

/// Writes `bytes` to `path` via a temp file + fsync + atomic rename, then
/// fsyncs the parent directory so the rename itself is durable.
/// `faults` is the owning backend's injector (`store.checkpoint.rename`).
pub fn write_atomic(
    path: &Path,
    bytes: &[u8],
    faults: &cobra_faults::FaultHandle,
) -> StoreResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| StoreError::io("create tmp", &tmp, e))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("write tmp", &tmp, e))?;
        f.sync_data()
            .map_err(|e| StoreError::io("sync tmp", &tmp, e))?;
    }
    faults.fire("store.checkpoint.rename")?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io("rename tmp", path, e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn read_all(path: &Path) -> StoreResult<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io("read", path, e))?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Column / Bat encoding

const COL_VOID: u8 = 0;
const COL_OID: u8 = 1;
const COL_INT: u8 = 2;
const COL_DBL: u8 = 3;
const COL_STR: u8 = 4;
const COL_BIT: u8 = 5;

fn encode_column(e: &mut Enc, col: &Column) {
    match col {
        Column::Void { seqbase, len } => {
            e.u8(COL_VOID);
            e.u64(*seqbase);
            e.u64(*len as u64);
        }
        Column::Data(ColumnData::Oid(v)) => {
            e.u8(COL_OID);
            e.u32(v.len() as u32);
            for &x in v {
                e.u64(x);
            }
        }
        Column::Data(ColumnData::Int(v)) => {
            e.u8(COL_INT);
            e.u32(v.len() as u32);
            for &x in v {
                e.i64(x);
            }
        }
        Column::Data(ColumnData::Dbl(v)) => {
            e.u8(COL_DBL);
            e.u32(v.len() as u32);
            for &x in v {
                e.f64(x);
            }
        }
        Column::Data(ColumnData::Str(s)) => {
            e.u8(COL_STR);
            e.u32(s.dict().len() as u32);
            for d in s.dict() {
                e.str(d);
            }
            e.u32(s.codes().len() as u32);
            for &c in s.codes() {
                e.u32(c);
            }
        }
        Column::Data(ColumnData::Bit(v)) => {
            e.u8(COL_BIT);
            e.u32(v.len() as u32);
            for &x in v {
                e.u8(x as u8);
            }
        }
    }
}

fn decode_column(d: &mut Dec<'_>) -> Result<Column, CodecError> {
    match d.u8("column tag")? {
        COL_VOID => {
            let seqbase = d.u64("void seqbase")?;
            let len = d.u64("void len")?;
            Ok(Column::Void {
                seqbase,
                len: len as usize,
            })
        }
        COL_OID => {
            let n = d.count(8, "oid column")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.u64("oid")?);
            }
            Ok(Column::Data(ColumnData::Oid(v)))
        }
        COL_INT => {
            let n = d.count(8, "int column")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.i64("int")?);
            }
            Ok(Column::Data(ColumnData::Int(v)))
        }
        COL_DBL => {
            let n = d.count(8, "dbl column")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.f64("dbl")?);
            }
            Ok(Column::Data(ColumnData::Dbl(v)))
        }
        COL_STR => {
            let nd = d.count(4, "str dictionary")?;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(nd);
            for _ in 0..nd {
                dict.push(d.arc_str("dict entry")?);
            }
            let nc = d.count(4, "str codes")?;
            let mut codes = Vec::with_capacity(nc);
            for _ in 0..nc {
                codes.push(d.u32("str code")?);
            }
            let col = StrColumn::from_parts(dict, codes)
                .map_err(|e| CodecError::new(format!("str column: {e}")))?;
            Ok(Column::Data(ColumnData::Str(col)))
        }
        COL_BIT => {
            let n = d.count(1, "bit column")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.u8("bit")? != 0);
            }
            Ok(Column::Data(ColumnData::Bit(v)))
        }
        other => Err(CodecError::new(format!("unknown column tag {other}"))),
    }
}

/// Serializes one BAT into a framed, checksummed byte buffer.
pub fn encode_bat(bat: &Bat) -> Vec<u8> {
    let mut e = Enc::new();
    encode_column(&mut e, bat.head());
    encode_column(&mut e, bat.tail());
    frame(BAT_MAGIC, &e.into_bytes())
}

/// Decodes a framed BAT buffer. The rebuilt BAT has a fresh process-local
/// identity (ids are never persisted; the backend re-baselines them).
pub fn decode_bat(bytes: &[u8]) -> Result<Bat, CodecError> {
    let payload = unframe(BAT_MAGIC, bytes)?;
    let mut d = Dec::new(payload);
    let head = decode_column(&mut d)?;
    let tail = decode_column(&mut d)?;
    if !d.is_done() {
        return Err(CodecError::new(format!(
            "bat file: {} trailing bytes",
            d.remaining()
        )));
    }
    Bat::from_columns(head, tail).map_err(|e| CodecError::new(format!("bat columns: {e}")))
}

/// Reads and decodes the BAT file at `path`.
pub fn read_bat_file(path: &Path) -> StoreResult<Bat> {
    let bytes = read_all(path)?;
    decode_bat(&bytes).map_err(|e| StoreError::Corrupt {
        path: path.display().to_string(),
        what: e.what,
    })
}

// ---------------------------------------------------------------------------
// Manifest

/// A video registration as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestVideo {
    /// Catalog name.
    pub name: String,
    /// Clips in the broadcast.
    pub n_clips: u64,
    /// Video frames.
    pub n_frames: u64,
}

/// One snapshotted BAT: catalog name → snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestBat {
    /// Kernel BAT name (`"german.f1"`, `"german.ev.kind"`, …).
    pub name: String,
    /// Snapshot file name inside the data dir.
    pub file: String,
}

/// The checkpoint commit record: which WAL prefix the snapshot covers and
/// which files realize it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Boot epoch at the time of the checkpoint.
    pub epoch: u64,
    /// Catalog generation at the time of the checkpoint.
    pub catalog_gen: u64,
    /// Highest WAL sequence number folded into this snapshot; recovery
    /// replays only records with larger sequence numbers.
    pub wal_seq: u64,
    /// Persisted video registry.
    pub videos: Vec<ManifestVideo>,
    /// Persisted BATs.
    pub bats: Vec<ManifestBat>,
}

/// Serializes a manifest into a framed, checksummed byte buffer.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(m.epoch);
    e.u64(m.catalog_gen);
    e.u64(m.wal_seq);
    e.u32(m.videos.len() as u32);
    for v in &m.videos {
        e.str(&v.name);
        e.u64(v.n_clips);
        e.u64(v.n_frames);
    }
    e.u32(m.bats.len() as u32);
    for b in &m.bats {
        e.str(&b.name);
        e.str(&b.file);
    }
    frame(MANIFEST_MAGIC, &e.into_bytes())
}

/// Decodes a framed manifest buffer.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, CodecError> {
    let payload = unframe(MANIFEST_MAGIC, bytes)?;
    let mut d = Dec::new(payload);
    let epoch = d.u64("epoch")?;
    let catalog_gen = d.u64("catalog generation")?;
    let wal_seq = d.u64("wal seq")?;
    let nv = d.count(20, "videos")?;
    let mut videos = Vec::with_capacity(nv);
    for _ in 0..nv {
        videos.push(ManifestVideo {
            name: d.str("video name")?,
            n_clips: d.u64("n_clips")?,
            n_frames: d.u64("n_frames")?,
        });
    }
    let nb = d.count(8, "bats")?;
    let mut bats = Vec::with_capacity(nb);
    for _ in 0..nb {
        bats.push(ManifestBat {
            name: d.str("bat name")?,
            file: d.str("bat file")?,
        });
    }
    if !d.is_done() {
        return Err(CodecError::new(format!(
            "manifest: {} trailing bytes",
            d.remaining()
        )));
    }
    Ok(Manifest {
        epoch,
        catalog_gen,
        wal_seq,
        videos,
        bats,
    })
}

/// Reads and decodes the manifest at `path`.
pub fn read_manifest_file(path: &Path) -> StoreResult<Manifest> {
    let bytes = read_all(path)?;
    decode_manifest(&bytes).map_err(|e| StoreError::Corrupt {
        path: path.display().to_string(),
        what: e.what,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_monet::value::{Atom, AtomType};

    fn sample_bats() -> Vec<Bat> {
        vec![
            Bat::from_tail(AtomType::Dbl, [0.5, f64::NAN, -0.0].map(Atom::Dbl)).unwrap(),
            Bat::from_tail(
                AtomType::Str,
                ["pit", "lap", "pit"].into_iter().map(Atom::str),
            )
            .unwrap(),
            Bat::from_tail(AtomType::Int, (0..5).map(Atom::Int)).unwrap(),
            Bat::from_tail(AtomType::Bit, [true, false, true].map(Atom::Bit)).unwrap(),
            Bat::from_pairs(AtomType::Oid, AtomType::Oid, [(Atom::Oid(7), Atom::Oid(9))]).unwrap(),
            Bat::new(AtomType::Void, AtomType::Dbl),
        ]
    }

    #[test]
    fn bat_round_trip_preserves_logical_contents() {
        for bat in sample_bats() {
            let bytes = encode_bat(&bat);
            let back = decode_bat(&bytes).unwrap();
            assert_eq!(back, bat);
        }
    }

    #[test]
    fn str_column_round_trip_keeps_dictionary_shape() {
        let bat = &sample_bats()[1];
        let back = decode_bat(&encode_bat(bat)).unwrap();
        let s = back.tail().strs().unwrap();
        assert_eq!(s.dict_len(), 2);
        assert_eq!(s.codes(), bat.tail().strs().unwrap().codes());
        assert_eq!(s.code_of("pit"), Some(0));
    }

    #[test]
    fn gathered_str_column_round_trips_with_the_dictionary_it_shares() {
        // A gathered column carries its source's whole dictionary, the
        // entries none of its rows use included; the format writes it as
        // it is, and the bytes of the source are what they always were.
        let source = &sample_bats()[1];
        let gathered = source.gather(&[2, 0]);
        let back = decode_bat(&encode_bat(&gathered)).unwrap();
        assert_eq!(back, gathered);
        let s = back.tail().strs().unwrap();
        assert_eq!(s.dict_len(), 2);
        assert_eq!(s.codes(), &[0, 0]);
        assert_eq!(s.code_of("lap"), Some(1));
        assert_eq!(encode_bat(source), encode_bat(&sample_bats()[1]));
    }

    #[test]
    fn corrupt_bat_bytes_are_rejected() {
        let bytes = encode_bat(&sample_bats()[0]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_bat(&bad).is_err(), "flip at byte {i} accepted");
        }
        assert!(decode_bat(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_bat(&[]).is_err());
    }

    #[test]
    fn manifest_round_trip() {
        let m = Manifest {
            epoch: 4,
            catalog_gen: 17,
            wal_seq: 321,
            videos: vec![ManifestVideo {
                name: "german".into(),
                n_clips: 1800,
                n_frames: 4500,
            }],
            bats: vec![
                ManifestBat {
                    name: "german.f1".into(),
                    file: "ck3-0.bat".into(),
                },
                ManifestBat {
                    name: "german.ev.kind".into(),
                    file: "ck3-1.bat".into(),
                },
            ],
        };
        let back = decode_manifest(&encode_manifest(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_rejects_wrong_magic() {
        let m = Manifest::default();
        let bytes = encode_manifest(&m);
        assert!(decode_bat(&bytes).is_err());
        assert!(decode_manifest(&encode_bat(&sample_bats()[0])).is_err());
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("cobra-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        write_atomic(&path, b"first", &Default::default()).unwrap();
        write_atomic(&path, b"second", &Default::default()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists());
    }
}
