//! Value indexes over BAT columns.
//!
//! Monet builds indexes on demand to accelerate joins and point
//! selections. [`ColumnIndex`] is keyed by the column's native
//! representation: `oid`, `int` and `dbl` values (the latter by IEEE-754
//! bit pattern) hash to the positions holding them, and a `bit` column
//! splits into its two position lists. A dictionary-coded `str` column
//! is indexed *by code*, with no hashing: one offsets array over the
//! dictionary and one positions array over the rows, 4 B per row plus
//! 4 B per dictionary entry, filled by a counting pass and a placing
//! pass. A string key resolves to its code through the indexed column's
//! own dictionary, so a key the dictionary lacks matches no row.
//!
//! Two users:
//!
//! * **Equality selections on catalog columns.** In MIL,
//!   `bat(name).select(v)` — a bound event-layer column of
//!   [`Kernel::eval_mil_bound`](crate::kernel::Kernel::eval_mil_bound) or
//!   a name looked up in the catalog — gathers the positions the index
//!   lists for `v` instead of scanning. The kernel keeps one index per
//!   catalog name, valid for exactly the (BAT id, version) it was built
//!   at, built by the first selection of that version, released when
//!   the name is rebound or dropped, and [extended](ColumnIndex::extend)
//!   by the rows an in-place append adds. Selections on temporaries and
//!   range selections scan.
//! * **Joins** build one over the build side's head for the call and
//!   drop it (a void head is probed by position, with no index).
//!
//! The atom-keyed `HashIndex` this replaced survives only as part of the
//! naive reference the vectorized operators are differentially tested
//! against (`tests/naive/mod.rs`).

use std::collections::HashMap;

use crate::bat::{Column, ColumnData};
use crate::value::Atom;

/// Largest magnitude below which `i64 -> f64` conversion is injective, so
/// an integral double identifies at most one `i64` key.
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A typed value index over one materialized BAT column.
///
/// Numeric keys use the column's native representation; `Dbl` keys are
/// IEEE-754 bit patterns, which coincides exactly with [`Atom`] equality
/// (`total_cmp`): NaNs with equal payloads match, `0.0` and `-0.0` don't.
/// Every position list is ascending.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnIndex {
    /// Index over an `oid` column.
    U64(HashMap<u64, Vec<u32>>),
    /// Index over an `int` column.
    I64(HashMap<i64, Vec<u32>>),
    /// Index keyed by f64 bit patterns — built over a `dbl` column, or as
    /// a widened view over an `int` column for mixed-numeric joins.
    F64(HashMap<u64, Vec<u32>>),
    /// Index over a dictionary-coded `str` column, by code: the rows
    /// holding code `c` are `positions[offsets[c]..offsets[c + 1]]`.
    Str {
        /// Start of each code's rows in `positions`, plus the row count.
        offsets: Vec<u32>,
        /// Row positions grouped by code.
        positions: Vec<u32>,
    },
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
                // Count each code's rows in its slot, then turn the counts
                // into running totals: each slot holds its bucket's end.
                // Placing rows from the last one back moves every end
                // down to its bucket's start and leaves buckets ascending.
                let codes = s.codes();
                let mut offsets = vec![0u32; s.dict_len() + 1];
                for &c in codes {
                    offsets[c as usize] += 1;
                }
                let mut total = 0;
                for slot in &mut offsets {
                    total += *slot;
                    *slot = total;
                }
                let mut positions = vec![0u32; codes.len()];
                for (i, &c) in codes.iter().enumerate().rev() {
                    let slot = &mut offsets[c as usize];
                    *slot -= 1;
                    positions[*slot as usize] = i as u32;
                }
                ColumnIndex::Str { offsets, positions }
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

    /// Extends an index over the first `from` rows of `column` by the
    /// rows after them, to the index [`build`](Self::build) (or, for a
    /// widened one, [`build_widened`](Self::build_widened)) makes of the
    /// whole column. `false`, with nothing changed, when the index is not
    /// of the column's type or the column is shorter than `from`.
    pub fn extend(&mut self, column: &Column, from: usize) -> bool {
        fn push<K: std::hash::Hash + Eq>(
            index: &mut HashMap<K, Vec<u32>>,
            from: usize,
            keys: impl Iterator<Item = K>,
        ) {
            for (i, key) in keys.enumerate() {
                index.entry(key).or_default().push((from + i) as u32);
            }
        }
        let Some(data) = column.data().filter(|data| data.len() >= from) else {
            return false;
        };
        match (self, data) {
            (ColumnIndex::U64(m), ColumnData::Oid(v)) => push(m, from, v[from..].iter().copied()),
            (ColumnIndex::I64(m), ColumnData::Int(v)) => push(m, from, v[from..].iter().copied()),
            (ColumnIndex::F64(m), ColumnData::Dbl(v)) => {
                push(m, from, v[from..].iter().map(|x| x.to_bits()))
            }
            (ColumnIndex::F64(m), ColumnData::Int(v)) => {
                push(m, from, v[from..].iter().map(|&x| (x as f64).to_bits()))
            }
            (ColumnIndex::Bit(buckets), ColumnData::Bit(v)) => {
                for (i, &b) in v[from..].iter().enumerate() {
                    buckets[usize::from(b)].push((from + i) as u32);
                }
            }
            (ColumnIndex::Str { offsets, positions }, ColumnData::Str(s)) => {
                let (old, codes) = (offsets.len() - 1, &s.codes()[from..]);
                if s.dict_len() < old || positions.len() != from {
                    return false;
                }
                // Each code's bucket is its old rows, then its new ones:
                // count the new rows per code, copy the old buckets to
                // their new places leaving room behind each, then place
                // the new rows in order.
                let mut next = vec![0u32; s.dict_len()];
                for &c in codes {
                    next[c as usize] += 1;
                }
                let mut grown_offsets = Vec::with_capacity(next.len() + 1);
                let mut grown = vec![0u32; from + codes.len()];
                let mut at = 0;
                for (c, slot) in next.iter_mut().enumerate() {
                    grown_offsets.push(at as u32);
                    if c < old {
                        let bucket = &positions[offsets[c] as usize..offsets[c + 1] as usize];
                        grown[at..at + bucket.len()].copy_from_slice(bucket);
                        at += bucket.len();
                    }
                    let added = *slot as usize;
                    *slot = at as u32;
                    at += added;
                }
                grown_offsets.push(at as u32);
                for (i, &c) in codes.iter().enumerate() {
                    let slot = &mut next[c as usize];
                    grown[*slot as usize] = (from + i) as u32;
                    *slot += 1;
                }
                *offsets = grown_offsets;
                *positions = grown;
            }
            _ => return false,
        }
        true
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

    /// Positions holding dictionary code `code` in a string index.
    pub fn lookup_code(&self, code: u32) -> &[u32] {
        let code = code as usize;
        match self {
            ColumnIndex::Str { offsets, positions } => match offsets.get(code..code + 2) {
                Some(&[start, end]) => positions
                    .get(start as usize..end as usize)
                    .unwrap_or(NO_POSITIONS),
                _ => NO_POSITIONS,
            },
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

    /// Positions of `column` — the column this index was built over —
    /// whose value equals `key` under full [`Atom`] equality.
    ///
    /// Returns `None` when this index cannot answer the probe exactly —
    /// only a double probing an `i64` index beyond ±2^53, where several
    /// int keys widen to the same double; callers scan instead, or probe
    /// a widened index (see [`ColumnIndex::build_widened`]).
    pub fn positions(&self, column: &Column, key: &Atom) -> Option<&[u32]> {
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
            // The column's dictionary names the code; a string it never
            // interned is on no row.
            (ColumnIndex::Str { .. }, Atom::Str(s)) => {
                match column.strs().and_then(|dict| dict.code_of(s)) {
                    Some(code) => self.lookup_code(code),
                    None => NO_POSITIONS,
                }
            }
            (ColumnIndex::Bit(_), Atom::Bit(b)) => self.lookup_bit(*b),
            // Cross-type atom equality is always false.
            _ => NO_POSITIONS,
        })
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

        let strs =
            Bat::from_tail(AtomType::Str, ["x", "y", "x"].into_iter().map(Atom::str)).unwrap();
        let sidx = ColumnIndex::build(strs.tail()).unwrap();
        assert_eq!(
            sidx.positions(strs.tail(), &Atom::str("x")).unwrap(),
            &[0, 2]
        );
        assert_eq!(
            sidx.positions(strs.tail(), &Atom::str("nope")).unwrap(),
            NO_POSITIONS
        );

        let bits = Bat::from_tail(AtomType::Bit, [true, false, true].map(Atom::Bit)).unwrap();
        let bidx = ColumnIndex::build(bits.tail()).unwrap();
        assert_eq!(bidx.lookup_bit(true), &[0, 2]);
        assert_eq!(bidx.lookup_bit(false), &[1]);
    }

    #[test]
    fn str_index_is_two_arrays_by_code() {
        // Codes: a=0, b=1, c=2; the gathered column keeps "c" unused.
        let full =
            Bat::from_tail(AtomType::Str, ["a", "b", "c"].into_iter().map(Atom::str)).unwrap();
        let col = full.gather(&[1, 0, 1, 1, 0]);
        let idx = ColumnIndex::build(col.tail()).unwrap();
        let ColumnIndex::Str { offsets, positions } = &idx else {
            panic!("str column indexed as {idx:?}");
        };
        assert_eq!(offsets, &[0, 2, 5, 5]);
        assert_eq!(positions, &[1, 4, 0, 2, 3]);
        assert_eq!(idx.lookup_code(1), &[0, 2, 3]);
        assert_eq!(idx.lookup_code(2), NO_POSITIONS);
        assert_eq!(idx.lookup_code(3), NO_POSITIONS);
    }

    /// Extending an index over a prefix by the rows appended after it
    /// gives the index of the whole column, at every split, for every
    /// index type — strings first seen after the split included.
    #[test]
    fn an_extended_index_is_the_index_of_the_grown_column() {
        let columns: [(AtomType, Vec<Atom>); 5] = [
            (AtomType::Int, [3, 1, 3, 2, 9, 1].map(Atom::Int).to_vec()),
            (AtomType::Oid, [5, 5, 0, 7, 5, 0].map(Atom::Oid).to_vec()),
            (
                AtomType::Dbl,
                [0.5, -0.0, 0.0, f64::NAN, 0.5, 2.0].map(Atom::Dbl).to_vec(),
            ),
            (
                AtomType::Str,
                ["b", "a", "b", "c", "", "a", "d"].map(Atom::str).to_vec(),
            ),
            (
                AtomType::Bit,
                [true, false, false, true, true].map(Atom::Bit).to_vec(),
            ),
        ];
        for (ty, values) in columns {
            for split in 0..=values.len() {
                let mut bat = Bat::from_tail(ty, values[..split].iter().cloned()).unwrap();
                let built = ColumnIndex::build(bat.tail());
                let widened = ColumnIndex::build_widened(bat.tail());
                for v in &values[split..] {
                    bat.append_void(v.clone()).unwrap();
                }
                for (index, whole) in [
                    (built, ColumnIndex::build(bat.tail())),
                    (widened, ColumnIndex::build_widened(bat.tail())),
                ] {
                    let Some(mut index) = index else {
                        assert!(whole.is_none());
                        continue;
                    };
                    assert!(index.extend(bat.tail(), split), "{ty:?} at {split}");
                    assert_eq!(Some(index), whole, "{ty:?} at {split}");
                }
            }
        }
        // An index of another type, or over more rows than the column
        // holds, is left as it was.
        let ints = Bat::from_tail(AtomType::Int, [1, 2].map(Atom::Int)).unwrap();
        let strs = Bat::from_tail(AtomType::Str, ["x"].map(Atom::str)).unwrap();
        let mut index = ColumnIndex::build(strs.tail()).unwrap();
        assert!(!index.extend(ints.tail(), 1));
        assert!(!index.extend(strs.tail(), 2));
        assert_eq!(Some(index), ColumnIndex::build(strs.tail()));
    }

    #[test]
    fn void_columns_have_no_index() {
        let b = Bat::from_tail(AtomType::Int, (0..4).map(Atom::Int)).unwrap();
        assert!(ColumnIndex::build(b.head()).is_none());
    }

    #[test]
    fn atom_lookup_honours_total_order_equality() {
        let d = Bat::from_tail(AtomType::Dbl, [0.0, -0.0, f64::NAN, 2.0].map(Atom::Dbl)).unwrap();
        let col = d.tail();
        let idx = ColumnIndex::build(col).unwrap();
        assert_eq!(idx.positions(col, &Atom::Dbl(0.0)).unwrap(), &[0]);
        assert_eq!(idx.positions(col, &Atom::Dbl(-0.0)).unwrap(), &[1]);
        assert_eq!(idx.positions(col, &Atom::Dbl(f64::NAN)).unwrap(), &[2]);
        // Mixed numeric equality: Int(2) == Dbl(2.0).
        assert_eq!(idx.positions(col, &Atom::Int(2)).unwrap(), &[3]);
        // Cross-type equality is false.
        assert_eq!(idx.positions(col, &Atom::str("2")).unwrap(), NO_POSITIONS);
    }

    #[test]
    fn int_index_answers_small_double_probes() {
        let b = Bat::from_tail(AtomType::Int, [4, 7].map(Atom::Int)).unwrap();
        let col = b.tail();
        let idx = ColumnIndex::build(col).unwrap();
        assert_eq!(idx.positions(col, &Atom::Dbl(4.0)).unwrap(), &[0]);
        assert_eq!(idx.positions(col, &Atom::Dbl(4.5)).unwrap(), NO_POSITIONS);
        assert_eq!(idx.positions(col, &Atom::Dbl(-0.0)).unwrap(), NO_POSITIONS);
        assert_eq!(
            idx.positions(col, &Atom::Dbl(f64::NAN)).unwrap(),
            NO_POSITIONS
        );
    }

    #[test]
    fn widened_index_handles_large_int_collisions() {
        // Both ints widen to the same double.
        let big = 9_007_199_254_740_992i64; // 2^53
        let b = Bat::from_tail(AtomType::Int, [big, big + 1].map(Atom::Int)).unwrap();
        let col = b.tail();
        let idx = ColumnIndex::build(col).unwrap();
        // The natural i64 index cannot answer this probe exactly.
        assert!(idx.positions(col, &Atom::Dbl(big as f64)).is_none());
        let widened = ColumnIndex::build_widened(col).unwrap();
        let hits = widened.positions(col, &Atom::Dbl(big as f64)).unwrap();
        assert_eq!(hits, &[0, 1]);
    }
}
