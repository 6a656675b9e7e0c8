//! Property tests for WAL recovery under arbitrary corruption.
//!
//! The recovery contract: whatever happened to the tail of the log —
//! a torn write, a truncated file, a flipped bit — `read_wal_file`
//! returns the longest intact *prefix* of records, flags the damage,
//! and never panics. These tests build real WAL files with the real
//! writer, then mangle the bytes at proptest-chosen offsets.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_store::wal::{encode_record, read_wal_file, WalWriter};
use cobra_store::{FsyncPolicy, WalEvent, WalOp};
use proptest::prelude::*;

/// A unique scratch WAL path per case, removed on drop.
struct ScratchWal(PathBuf);

impl ScratchWal {
    fn new() -> ScratchWal {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        ScratchWal(std::env::temp_dir().join(format!(
            "cobra-walprop-{}-{}.log",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for ScratchWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Arbitrary catalog mutations, including `f64::from_bits` feature
/// values (NaNs and all), so byte-exactness is part of the property.
fn arb_op() -> impl Strategy<Value = WalOp> {
    (
        0u8..6,
        1u64..1_000,
        collection::vec(proptest::char::range('a', 'z'), 1..9),
        collection::vec(0u64..u64::MAX, 0..6),
    )
        .prop_map(|(kind, n, name_chars, bits)| {
            let name: String = name_chars.into_iter().collect();
            let events = |name: &String| -> Vec<WalEvent> {
                bits.iter()
                    .map(|&b| WalEvent {
                        kind: if b % 2 == 0 {
                            "highlight".to_string()
                        } else {
                            format!("caption:{name}")
                        },
                        start: b % 500,
                        end: b % 500 + 10,
                        driver: (b % 3 == 0).then(|| name.clone()),
                    })
                    .collect()
            };
            match kind {
                0 => WalOp::Boot { epoch: n },
                1 => WalOp::RegisterVideo {
                    name,
                    n_clips: n,
                    n_frames: n * 25,
                },
                // Two values per row keeps the decoder's divisibility
                // check (`values % n_features == 0`) satisfied.
                2 => WalOp::StoreFeatures {
                    video: name,
                    n_features: 2,
                    values: bits
                        .iter()
                        .flat_map(|&b| [f64::from_bits(b), f64::from_bits(!b)])
                        .collect(),
                },
                3 => WalOp::StoreEvents {
                    events: events(&name),
                    video: name,
                },
                4 => WalOp::ReplaceEvents {
                    drop_kinds: (bits.iter())
                        .map(|&b| if b % 2 == 0 { "highlight" } else { "excited" }.to_string())
                        .collect(),
                    events: events(&name),
                    video: name,
                },
                _ => WalOp::ClearEvents { video: name },
            }
        })
}

/// Writes `ops` through the real writer and returns the file bytes plus
/// each record's exclusive end offset (frame boundaries).
fn write_wal(path: &std::path::Path, ops: &[WalOp]) -> (Vec<u8>, Vec<usize>) {
    let mut writer = WalWriter::open(path, 1, FsyncPolicy::Never).expect("open wal");
    let mut boundaries = Vec::with_capacity(ops.len());
    let mut end = 0usize;
    for op in ops {
        let appended = writer.append(op).expect("append");
        end += appended.bytes as usize;
        boundaries.push(end);
    }
    writer.flush().expect("flush");
    (std::fs::read(path).expect("read back"), boundaries)
}

/// Frame-byte comparison: `WalOp` contains `f64`s, so `==` would reject
/// NaN round-trips that are in fact bit-exact.
fn frames(records: &[(u64, WalOp)]) -> Vec<Vec<u8>> {
    records
        .iter()
        .map(|(seq, op)| encode_record(*seq, op))
        .collect()
}

fn expected_frames(ops: &[WalOp], count: usize) -> Vec<Vec<u8>> {
    ops.iter()
        .take(count)
        .enumerate()
        .map(|(i, op)| encode_record(i as u64 + 1, op))
        .collect()
}

proptest! {
    #[test]
    fn intact_log_round_trips(ops in collection::vec(arb_op(), 1..12)) {
        let scratch = ScratchWal::new();
        let (bytes, _) = write_wal(&scratch.0, &ops);
        let scan = read_wal_file(&scratch.0).expect("scan");
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.valid_bytes, bytes.len() as u64);
        prop_assert_eq!(frames(&scan.records), expected_frames(&ops, ops.len()));
    }

    #[test]
    fn truncation_keeps_longest_whole_prefix(
        ops in collection::vec(arb_op(), 1..10),
        cut in 0.0f64..1.0,
    ) {
        let scratch = ScratchWal::new();
        let (bytes, boundaries) = write_wal(&scratch.0, &ops);
        let cut = (bytes.len() as f64 * cut) as usize;
        std::fs::write(&scratch.0, &bytes[..cut]).expect("truncate");

        let scan = read_wal_file(&scratch.0).expect("scan never errors on truncation");
        let survivors = boundaries.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(frames(&scan.records), expected_frames(&ops, survivors));
        // Torn iff the cut landed inside a frame.
        let clean_cut = cut == survivors.checked_sub(1).map_or(0, |i| boundaries[i]);
        prop_assert_eq!(scan.torn, !clean_cut);
    }

    #[test]
    fn bit_flip_stops_cleanly_at_the_damage(
        ops in collection::vec(arb_op(), 1..10),
        byte_pick in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let scratch = ScratchWal::new();
        let (mut bytes, boundaries) = write_wal(&scratch.0, &ops);
        let flip_at = (byte_pick % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        std::fs::write(&scratch.0, &bytes).expect("corrupt");

        let scan = read_wal_file(&scratch.0).expect("scan never errors on corruption");
        // Every record before the damaged frame survives; the damaged
        // frame and everything after it is discarded and flagged.
        let survivors = boundaries.iter().filter(|&&end| end <= flip_at).count();
        prop_assert_eq!(frames(&scan.records), expected_frames(&ops, survivors));
        prop_assert!(scan.torn, "a flipped bit is always detected");
    }
}
