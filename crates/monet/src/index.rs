//! Hash indexes over BAT columns.
//!
//! Monet builds hash tables on demand to accelerate joins and point
//! selections. [`ColumnIndex`] is a typed index keyed by the column's
//! native representation (`u64`, `i64`, f64 bit patterns, interned
//! strings, bools), built once per `(bat, version)` and cached by the
//! kernel. The atom-keyed `HashIndex` it replaced survives only as part
//! of the naive reference the vectorized operators are differentially
//! tested against (`tests/naive/mod.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use crate::bat::{Column, ColumnData};
use crate::value::Atom;

/// Largest magnitude below which `i64 -> f64` conversion is injective, so
/// an integral double identifies at most one `i64` key.
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A typed hash index over one materialized BAT column.
///
/// Keys use the column's native representation; `Dbl` keys are IEEE-754
/// bit patterns, which coincides exactly with [`Atom`] equality
/// (`total_cmp`): NaNs with equal payloads match, `0.0` and `-0.0` don't.
#[derive(Debug, Clone)]
pub enum ColumnIndex {
    /// Index over an `oid` column.
    U64(HashMap<u64, Vec<u32>>),
    /// Index over an `int` column.
    I64(HashMap<i64, Vec<u32>>),
    /// Index keyed by f64 bit patterns — built over a `dbl` column, or as
    /// a widened view over an `int` column for mixed-numeric joins.
    F64(HashMap<u64, Vec<u32>>),
    /// Index over a `str` column (keys share the column's intern pool).
    Str(HashMap<Arc<str>, Vec<u32>>),
    /// Index over a `bit` column: positions of `false` and `true`.
    Bit([Vec<u32>; 2]),
}

static NO_POSITIONS: &[u32] = &[];

impl ColumnIndex {
    /// Builds the natural typed index for `column`. Void columns return
    /// `None` — they answer lookups in O(1) arithmetic without any index.
    pub fn build(column: &Column) -> Option<ColumnIndex> {
        let data = column.data()?;
        Some(match data {
            ColumnData::Oid(v) => {
                let mut m: HashMap<u64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &x) in v.iter().enumerate() {
                    m.entry(x).or_default().push(i as u32);
                }
                ColumnIndex::U64(m)
            }
            ColumnData::Int(v) => {
                let mut m: HashMap<i64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &x) in v.iter().enumerate() {
                    m.entry(x).or_default().push(i as u32);
                }
                ColumnIndex::I64(m)
            }
            ColumnData::Dbl(v) => {
                let mut m: HashMap<u64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &x) in v.iter().enumerate() {
                    m.entry(x.to_bits()).or_default().push(i as u32);
                }
                ColumnIndex::F64(m)
            }
            ColumnData::Str(s) => {
                // Group positions per dictionary code first, then key the
                // buckets by the interned string.
                let mut per_code: HashMap<u32, Vec<u32>> = HashMap::with_capacity(s.dict_len());
                for (i, &c) in s.codes().iter().enumerate() {
                    per_code.entry(c).or_default().push(i as u32);
                }
                let mut m: HashMap<Arc<str>, Vec<u32>> = HashMap::with_capacity(per_code.len());
                for (c, positions) in per_code {
                    m.insert(Arc::clone(&s.dict()[c as usize]), positions);
                }
                ColumnIndex::Str(m)
            }
            ColumnData::Bit(v) => {
                let mut buckets = [Vec::new(), Vec::new()];
                for (i, &b) in v.iter().enumerate() {
                    buckets[usize::from(b)].push(i as u32);
                }
                ColumnIndex::Bit(buckets)
            }
        })
    }

    /// Builds a *widened* f64-bits index over a numeric column. Needed for
    /// mixed int/dbl joins: `Atom::Int(a) == Atom::Dbl(b)` holds by widened
    /// value, and above 2^53 several ints widen to the same double, so a
    /// plain `i64` index cannot answer double probes exactly.
    pub fn build_widened(column: &Column) -> Option<ColumnIndex> {
        match column.data()? {
            ColumnData::Int(v) => {
                let mut m: HashMap<u64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &x) in v.iter().enumerate() {
                    m.entry((x as f64).to_bits()).or_default().push(i as u32);
                }
                Some(ColumnIndex::F64(m))
            }
            ColumnData::Dbl(_) => ColumnIndex::build(column),
            _ => None,
        }
    }

    /// Positions holding `key` in an oid index.
    pub fn lookup_u64(&self, key: u64) -> &[u32] {
        match self {
            ColumnIndex::U64(m) => m.get(&key).map(Vec::as_slice).unwrap_or(NO_POSITIONS),
            _ => NO_POSITIONS,
        }
    }

    /// Positions holding `key` in an int index.
    pub fn lookup_i64(&self, key: i64) -> &[u32] {
        match self {
            ColumnIndex::I64(m) => m.get(&key).map(Vec::as_slice).unwrap_or(NO_POSITIONS),
            _ => NO_POSITIONS,
        }
    }

    /// Positions holding the double with bit pattern `bits`.
    pub fn lookup_f64_bits(&self, bits: u64) -> &[u32] {
        match self {
            ColumnIndex::F64(m) => m.get(&bits).map(Vec::as_slice).unwrap_or(NO_POSITIONS),
            _ => NO_POSITIONS,
        }
    }

    /// Positions holding `key` in a string index.
    pub fn lookup_str(&self, key: &str) -> &[u32] {
        match self {
            ColumnIndex::Str(m) => m.get(key).map(Vec::as_slice).unwrap_or(NO_POSITIONS),
            _ => NO_POSITIONS,
        }
    }

    /// Positions holding `key` in a bit index.
    pub fn lookup_bit(&self, key: bool) -> &[u32] {
        match self {
            ColumnIndex::Bit(b) => &b[usize::from(key)],
            _ => NO_POSITIONS,
        }
    }

    /// Positions whose value equals `key` under full [`Atom`] equality.
    ///
    /// Returns `None` when this index cannot answer the probe exactly —
    /// currently only a double probing an `i64` index beyond ±2^53, where
    /// several int keys widen to the same double; callers fall back to a
    /// widened index (see [`ColumnIndex::build_widened`]).
    pub fn lookup_atom(&self, key: &Atom) -> Option<&[u32]> {
        Some(match (self, key) {
            (ColumnIndex::U64(_), Atom::Oid(o)) => self.lookup_u64(*o),
            (ColumnIndex::I64(_), Atom::Int(i)) => self.lookup_i64(*i),
            (ColumnIndex::I64(_), Atom::Dbl(d)) => {
                // -0.0 != 0.0 under total_cmp, so -0.0 matches no int.
                if d.to_bits() == (-0.0f64).to_bits() {
                    NO_POSITIONS
                } else if d.fract() == 0.0 && d.abs() < EXACT_F64_INT {
                    // Strictly below 2^53 every integral double has exactly
                    // one widening i64 preimage; at 2^53 collisions begin.
                    self.lookup_i64(*d as i64)
                } else if d.is_finite() && d.fract() == 0.0 {
                    return None; // inexact beyond 2^53
                } else {
                    NO_POSITIONS // fractional, infinite or NaN: no int equals it
                }
            }
            (ColumnIndex::F64(_), Atom::Dbl(d)) => self.lookup_f64_bits(d.to_bits()),
            (ColumnIndex::F64(_), Atom::Int(i)) => self.lookup_f64_bits((*i as f64).to_bits()),
            (ColumnIndex::Str(_), Atom::Str(s)) => self.lookup_str(s),
            (ColumnIndex::Bit(_), Atom::Bit(b)) => self.lookup_bit(*b),
            // Cross-type atom equality is always false.
            _ => NO_POSITIONS,
        })
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        match self {
            ColumnIndex::U64(m) => m.len(),
            ColumnIndex::I64(m) => m.len(),
            ColumnIndex::F64(m) => m.len(),
            ColumnIndex::Str(m) => m.len(),
            ColumnIndex::Bit(b) => b.iter().filter(|v| !v.is_empty()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::value::AtomType;

    #[test]
    fn typed_index_matches_atom_index_per_type() {
        let ints = Bat::from_tail(AtomType::Int, [3, 1, 3, 2].map(Atom::Int)).unwrap();
        let idx = ColumnIndex::build(ints.tail()).unwrap();
        assert_eq!(idx.lookup_i64(3), &[0, 2]);
        assert_eq!(idx.lookup_i64(9), NO_POSITIONS);
        assert_eq!(idx.distinct(), 3);

        let strs =
            Bat::from_tail(AtomType::Str, ["x", "y", "x"].into_iter().map(Atom::str)).unwrap();
        let sidx = ColumnIndex::build(strs.tail()).unwrap();
        assert_eq!(sidx.lookup_str("x"), &[0, 2]);
        assert_eq!(sidx.lookup_str("nope"), NO_POSITIONS);

        let bits = Bat::from_tail(AtomType::Bit, [true, false, true].map(Atom::Bit)).unwrap();
        let bidx = ColumnIndex::build(bits.tail()).unwrap();
        assert_eq!(bidx.lookup_bit(true), &[0, 2]);
        assert_eq!(bidx.lookup_bit(false), &[1]);
    }

    #[test]
    fn void_columns_have_no_index() {
        let b = Bat::from_tail(AtomType::Int, (0..4).map(Atom::Int)).unwrap();
        assert!(ColumnIndex::build(b.head()).is_none());
    }

    #[test]
    fn atom_lookup_honours_total_order_equality() {
        let d = Bat::from_tail(AtomType::Dbl, [0.0, -0.0, f64::NAN, 2.0].map(Atom::Dbl)).unwrap();
        let idx = ColumnIndex::build(d.tail()).unwrap();
        assert_eq!(idx.lookup_atom(&Atom::Dbl(0.0)).unwrap(), &[0]);
        assert_eq!(idx.lookup_atom(&Atom::Dbl(-0.0)).unwrap(), &[1]);
        assert_eq!(idx.lookup_atom(&Atom::Dbl(f64::NAN)).unwrap(), &[2]);
        // Mixed numeric equality: Int(2) == Dbl(2.0).
        assert_eq!(idx.lookup_atom(&Atom::Int(2)).unwrap(), &[3]);
        // Cross-type equality is false.
        assert_eq!(idx.lookup_atom(&Atom::str("2")).unwrap(), NO_POSITIONS);
    }

    #[test]
    fn int_index_answers_small_double_probes() {
        let b = Bat::from_tail(AtomType::Int, [4, 7].map(Atom::Int)).unwrap();
        let idx = ColumnIndex::build(b.tail()).unwrap();
        assert_eq!(idx.lookup_atom(&Atom::Dbl(4.0)).unwrap(), &[0]);
        assert_eq!(idx.lookup_atom(&Atom::Dbl(4.5)).unwrap(), NO_POSITIONS);
        assert_eq!(idx.lookup_atom(&Atom::Dbl(-0.0)).unwrap(), NO_POSITIONS);
        assert_eq!(idx.lookup_atom(&Atom::Dbl(f64::NAN)).unwrap(), NO_POSITIONS);
    }

    #[test]
    fn widened_index_handles_large_int_collisions() {
        // Both ints widen to the same double.
        let big = 9_007_199_254_740_992i64; // 2^53
        let b = Bat::from_tail(AtomType::Int, [big, big + 1].map(Atom::Int)).unwrap();
        let idx = ColumnIndex::build(b.tail()).unwrap();
        // The natural i64 index cannot answer this probe exactly.
        assert!(idx.lookup_atom(&Atom::Dbl(big as f64)).is_none());
        let widened = ColumnIndex::build_widened(b.tail()).unwrap();
        let hits = widened.lookup_atom(&Atom::Dbl(big as f64)).unwrap();
        assert_eq!(hits, &[0, 1]);
    }
}
