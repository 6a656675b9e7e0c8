//! Binary Association Tables.
//!
//! A [`Bat`] is a two-column table of (head, tail) atom pairs — Monet's only
//! collection type. Either column may be *void*: a dense run of object
//! identifiers `seqbase, seqbase+1, …` that is never materialized, which is
//! how Monet stores positional columns for free.
//!
//! Storage is **columnar and typed**: a materialized column holds one
//! specialized vector per atom type ([`ColumnData`]) instead of a
//! `Vec<Atom>` of tagged enums. String columns are dictionary-encoded
//! against an `Arc<str>` intern pool ([`StrColumn`]), so equal strings are
//! stored once and row storage is a `u32` code. The [`Atom`]-level API
//! (`at`, `push`, `iter`) survives as a compatibility shim; hot operator
//! paths use the typed-slice accessors (`oids`, `ints`, `dbls`, `bits`,
//! `strs`, `void_run`) and the positional [`Column::gather`] primitive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{MonetError, Result};
use crate::value::{Atom, AtomType};

/// The dictionary of a string column together with its intern map.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
struct StrPool {
    /// code -> string.
    dict: Vec<Arc<str>>,
    /// string -> code (always consistent with `dict`).
    interned: HashMap<Arc<str>, u32>,
}

impl StrPool {
    /// The code of `s`, interning it when new.
    fn intern(pool: &mut Arc<StrPool>, s: Arc<str>) -> u32 {
        if let Some(&code) = pool.interned.get(s.as_ref()) {
            return code;
        }
        // Copy-on-write: a pool other columns still read is cloned
        // before it grows, so their codes keep their meaning.
        let pool = Arc::make_mut(pool);
        let code = pool.dict.len() as u32;
        pool.dict.push(Arc::clone(&s));
        pool.interned.insert(s, code);
        code
    }
}

/// A dictionary-encoded string column: row storage is a `u32` code into
/// an `Arc<str>` intern pool. The pool is shared, not copied, with every
/// column gathered from this one, so an operator's output costs its own
/// rows whatever the dictionary's size; interning a *new* string into a
/// shared pool copies it first.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct StrColumn {
    pool: Arc<StrPool>,
    /// row -> code.
    codes: Vec<u32>,
}

impl StrColumn {
    /// An empty string column.
    pub fn new() -> Self {
        StrColumn::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct strings in the dictionary.
    pub fn dict_len(&self) -> usize {
        self.pool.dict.len()
    }

    /// The per-row dictionary codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary, indexed by code. A gathered column carries its
    /// source's whole dictionary, so it may hold entries no row uses.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.pool.dict
    }

    /// The dictionary code of `s`, if interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.pool.interned.get(s).copied()
    }

    /// Rebuilds a column from a dictionary and per-row codes (the snapshot
    /// wire format). Every code must index into `dict`; the intern map is
    /// reconstructed, keeping later duplicates consistent with
    /// [`push`](Self::push) (first occurrence wins).
    pub fn from_parts(dict: Vec<Arc<str>>, codes: Vec<u32>) -> Result<Self> {
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict.len()) {
            return Err(MonetError::OutOfRange {
                index: bad as usize,
                len: dict.len(),
            });
        }
        let mut interned = HashMap::with_capacity(dict.len());
        for (i, s) in dict.iter().enumerate() {
            interned.entry(Arc::clone(s)).or_insert(i as u32);
        }
        Ok(StrColumn {
            pool: Arc::new(StrPool { dict, interned }),
            codes,
        })
    }

    /// The string at row `i` (panics when out of range; callers bound-check).
    pub fn value(&self, i: usize) -> &Arc<str> {
        &self.pool.dict[self.codes[i] as usize]
    }

    /// Interns `s` (if new) and appends its code as a row.
    pub fn push(&mut self, s: Arc<str>) {
        let code = StrPool::intern(&mut self.pool, s);
        self.codes.push(code);
    }

    /// Overwrites row `i` with `s`, interning as needed.
    fn set(&mut self, i: usize, s: Arc<str>) {
        self.codes[i] = StrPool::intern(&mut self.pool, s);
    }

    /// Rows at the given positions, sharing this column's dictionary.
    pub fn gather(&self, idx: &[u32]) -> StrColumn {
        StrColumn {
            pool: Arc::clone(&self.pool),
            codes: idx.iter().map(|&i| self.codes[i as usize]).collect(),
        }
    }

    /// Ranks of each dictionary code under lexicographic string order, so
    /// rows can be compared by `rank[code]` without touching the strings.
    pub fn dict_ranks(&self) -> Vec<u32> {
        let dict = self.dict();
        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
        order.sort_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
        let mut ranks = vec![0u32; dict.len()];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }
}

impl PartialEq for StrColumn {
    /// Row-wise logical equality; dictionaries may differ in layout.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.dict(), other.dict());
        self.codes.len() == other.codes.len()
            && self
                .codes
                .iter()
                .zip(&other.codes)
                .all(|(&x, &y)| a[x as usize] == b[y as usize])
    }
}

/// Typed storage for one materialized column.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ColumnData {
    /// Object identifiers.
    Oid(Vec<u64>),
    /// Integers.
    Int(Vec<i64>),
    /// Doubles.
    Dbl(Vec<f64>),
    /// Dictionary-encoded strings.
    Str(StrColumn),
    /// Booleans.
    Bit(Vec<bool>),
}

impl ColumnData {
    /// An empty typed vector for `ty` (which must not be `Void`).
    fn empty(ty: AtomType) -> Self {
        match ty {
            AtomType::Oid => ColumnData::Oid(Vec::new()),
            AtomType::Int => ColumnData::Int(Vec::new()),
            AtomType::Dbl => ColumnData::Dbl(Vec::new()),
            AtomType::Str => ColumnData::Str(StrColumn::new()),
            AtomType::Bit => ColumnData::Bit(Vec::new()),
            AtomType::Void => unreachable!("void columns are not materialized"),
        }
    }

    /// Element type.
    pub fn atom_type(&self) -> AtomType {
        match self {
            ColumnData::Oid(_) => AtomType::Oid,
            ColumnData::Int(_) => AtomType::Int,
            ColumnData::Dbl(_) => AtomType::Dbl,
            ColumnData::Str(_) => AtomType::Str,
            ColumnData::Bit(_) => AtomType::Bit,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Oid(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Dbl(v) => v.len(),
            ColumnData::Str(s) => s.len(),
            ColumnData::Bit(v) => v.len(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn at(&self, i: usize) -> Option<Atom> {
        match self {
            ColumnData::Oid(v) => v.get(i).map(|&x| Atom::Oid(x)),
            ColumnData::Int(v) => v.get(i).map(|&x| Atom::Int(x)),
            ColumnData::Dbl(v) => v.get(i).map(|&x| Atom::Dbl(x)),
            ColumnData::Str(s) => (i < s.len()).then(|| Atom::Str(Arc::clone(s.value(i)))),
            ColumnData::Bit(v) => v.get(i).map(|&x| Atom::Bit(x)),
        }
    }

    fn pop(&mut self) {
        match self {
            ColumnData::Oid(v) => {
                v.pop();
            }
            ColumnData::Int(v) => {
                v.pop();
            }
            ColumnData::Dbl(v) => {
                v.pop();
            }
            ColumnData::Str(s) => {
                s.codes.pop();
            }
            ColumnData::Bit(v) => {
                v.pop();
            }
        }
    }

    /// Appends `value`, widening ints into dbl columns; any other type
    /// mismatch is a typed error.
    fn push(&mut self, value: Atom) -> Result<()> {
        match (self, value) {
            (ColumnData::Oid(v), Atom::Oid(x)) => v.push(x),
            (ColumnData::Int(v), Atom::Int(x)) => v.push(x),
            (ColumnData::Dbl(v), Atom::Dbl(x)) => v.push(x),
            // Numeric widening: an int appended to a dbl column is stored
            // as dbl so the column stays homogeneous.
            (ColumnData::Dbl(v), Atom::Int(x)) => v.push(x as f64),
            (ColumnData::Str(s), Atom::Str(x)) => s.push(x),
            (ColumnData::Bit(v), Atom::Bit(x)) => v.push(x),
            (data, value) => {
                return Err(MonetError::TypeMismatch {
                    expected: data.atom_type().name().into(),
                    found: format!("{} ({value})", value.atom_type()),
                })
            }
        }
        Ok(())
    }

    /// Overwrites row `i`, with the same coercion rules as [`push`](Self::push).
    fn set(&mut self, i: usize, value: Atom) -> Result<()> {
        match (self, value) {
            (ColumnData::Oid(v), Atom::Oid(x)) => v[i] = x,
            (ColumnData::Int(v), Atom::Int(x)) => v[i] = x,
            (ColumnData::Dbl(v), Atom::Dbl(x)) => v[i] = x,
            (ColumnData::Dbl(v), Atom::Int(x)) => v[i] = x as f64,
            (ColumnData::Str(s), Atom::Str(x)) => s.set(i, x),
            (ColumnData::Bit(v), Atom::Bit(x)) => v[i] = x,
            (data, value) => {
                return Err(MonetError::TypeMismatch {
                    expected: data.atom_type().name().into(),
                    found: value.to_string(),
                })
            }
        }
        Ok(())
    }

    /// Rows at the given positions, as a fresh typed vector.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        match self {
            ColumnData::Oid(v) => ColumnData::Oid(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Dbl(v) => ColumnData::Dbl(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(s) => ColumnData::Str(s.gather(idx)),
            ColumnData::Bit(v) => ColumnData::Bit(idx.iter().map(|&i| v[i as usize]).collect()),
        }
    }
}

/// One column of a BAT: either a dense void run or typed materialized data.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Column {
    /// Dense object identifiers `seqbase .. seqbase + len`, not stored.
    Void {
        /// First oid of the dense run.
        seqbase: u64,
        /// Number of (virtual) entries.
        len: usize,
    },
    /// Materialized typed data.
    Data(ColumnData),
}

impl Column {
    /// An empty column of the given type (`Void` columns start at seqbase 0).
    pub fn empty(ty: AtomType) -> Self {
        match ty {
            AtomType::Void => Column::Void { seqbase: 0, len: 0 },
            other => Column::Data(ColumnData::empty(other)),
        }
    }

    /// Wraps typed data as a column.
    pub fn from_data(data: ColumnData) -> Self {
        Column::Data(data)
    }

    /// Number of entries (virtual for void columns).
    pub fn len(&self) -> usize {
        match self {
            Column::Void { len, .. } => *len,
            Column::Data(d) => d.len(),
        }
    }

    /// True when the column holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared element type.
    pub fn atom_type(&self) -> AtomType {
        match self {
            Column::Void { .. } => AtomType::Void,
            Column::Data(d) => d.atom_type(),
        }
    }

    /// The dense run `(seqbase, len)` of a void column.
    pub fn void_run(&self) -> Option<(u64, usize)> {
        match self {
            Column::Void { seqbase, len } => Some((*seqbase, *len)),
            Column::Data(_) => None,
        }
    }

    /// The typed data of a materialized column.
    pub fn data(&self) -> Option<&ColumnData> {
        match self {
            Column::Void { .. } => None,
            Column::Data(d) => Some(d),
        }
    }

    /// Typed slice accessor: materialized oids.
    pub fn oids(&self) -> Option<&[u64]> {
        match self {
            Column::Data(ColumnData::Oid(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed slice accessor: ints.
    pub fn ints(&self) -> Option<&[i64]> {
        match self {
            Column::Data(ColumnData::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed slice accessor: dbls.
    pub fn dbls(&self) -> Option<&[f64]> {
        match self {
            Column::Data(ColumnData::Dbl(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed slice accessor: bits.
    pub fn bits(&self) -> Option<&[bool]> {
        match self {
            Column::Data(ColumnData::Bit(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed accessor: the dictionary-encoded string column.
    pub fn strs(&self) -> Option<&StrColumn> {
        match self {
            Column::Data(ColumnData::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Value at position `i`; void columns materialize `Oid(seqbase + i)`.
    pub fn at(&self, i: usize) -> Result<Atom> {
        match self {
            Column::Void { seqbase, len } => {
                if i < *len {
                    Ok(Atom::Oid(seqbase + i as u64))
                } else {
                    Err(MonetError::OutOfRange {
                        index: i,
                        len: *len,
                    })
                }
            }
            Column::Data(d) => d.at(i).ok_or(MonetError::OutOfRange {
                index: i,
                len: d.len(),
            }),
        }
    }

    /// Appends a value. On a void column only the *next* dense oid (or no
    /// value at all, see [`Bat::append_void`]) is accepted.
    pub fn push(&mut self, value: Atom) -> Result<()> {
        match self {
            Column::Void { seqbase, len } => {
                let expected = *seqbase + *len as u64;
                match value {
                    Atom::Oid(o) if o == expected => {
                        *len += 1;
                        Ok(())
                    }
                    other => Err(MonetError::TypeMismatch {
                        expected: format!("dense oid {expected}@0"),
                        found: other.to_string(),
                    }),
                }
            }
            Column::Data(d) => d.push(value),
        }
    }

    /// Extends a void column by one virtual entry.
    fn push_void(&mut self) -> Result<()> {
        match self {
            Column::Void { len, .. } => {
                *len += 1;
                Ok(())
            }
            Column::Data(d) => Err(MonetError::TypeMismatch {
                expected: "void".into(),
                found: d.atom_type().name().into(),
            }),
        }
    }

    /// Iterates the column's (possibly virtual) values.
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter { col: self, pos: 0 }
    }

    /// Materializes the column into a plain atom vector.
    pub fn to_vec(&self) -> Vec<Atom> {
        self.iter().collect()
    }

    /// Rows at the given positions. Void columns materialize into oid data
    /// (re-arranged rows lose density); positions must be in range.
    pub fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Void { seqbase, .. } => Column::Data(ColumnData::Oid(
                idx.iter().map(|&i| seqbase + i as u64).collect(),
            )),
            Column::Data(d) => Column::Data(d.gather(idx)),
        }
    }

    /// A materialized copy: void runs become explicit oid vectors, typed
    /// data is cloned as-is.
    pub fn materialize(&self) -> Column {
        match self {
            Column::Void { seqbase, len } => Column::Data(ColumnData::Oid(
                (0..*len as u64).map(|i| seqbase + i).collect(),
            )),
            data => data.clone(),
        }
    }
}

impl PartialEq for Column {
    /// Logical equality: same declared type and row-wise equal values.
    /// `Dbl` rows compare by bit pattern (matching [`Atom`]'s total order),
    /// so NaN equals itself and `0.0 != -0.0`.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::Void { seqbase: a, len: m }, Column::Void { seqbase: b, len: n }) => {
                m == n && (a == b || *m == 0)
            }
            (Column::Data(a), Column::Data(b)) => match (a, b) {
                (ColumnData::Dbl(x), ColumnData::Dbl(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                }
                (a, b) => a == b,
            },
            _ => false,
        }
    }
}

/// Iterator over a [`Column`]'s values.
pub struct ColumnIter<'a> {
    col: &'a Column,
    pos: usize,
}

impl Iterator for ColumnIter<'_> {
    type Item = Atom;

    fn next(&mut self) -> Option<Atom> {
        if self.pos < self.col.len() {
            let v = self.col.at(self.pos).ok()?;
            self.pos += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.col.len() - self.pos;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

/// BAT identities for the kernel's index cache; never reused.
static NEXT_BAT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_bat_id() -> u64 {
    NEXT_BAT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A Binary Association Table: the pair of a head and a tail column of
/// equal length.
///
/// Every BAT carries a process-unique `id` and a `version` counter bumped
/// on each mutation; together they key the kernel's hash-index cache (an
/// index built for `(id, version)` is valid exactly until the next append
/// or replace).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct Bat {
    head: Column,
    tail: Column,
    id: u64,
    version: u64,
}

impl Clone for Bat {
    /// Clones the columns under a *fresh* identity: the clone may diverge
    /// from the original, so it must not share cached indexes.
    fn clone(&self) -> Self {
        Bat {
            head: self.head.clone(),
            tail: self.tail.clone(),
            id: fresh_bat_id(),
            version: 0,
        }
    }
}

impl PartialEq for Bat {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.tail == other.tail
    }
}

impl Bat {
    /// Creates an empty BAT with the given column types.
    pub fn new(head: AtomType, tail: AtomType) -> Self {
        Bat::from_columns_unchecked(Column::empty(head), Column::empty(tail))
    }

    /// Builds a BAT directly from two equal-length columns.
    pub fn from_columns(head: Column, tail: Column) -> Result<Self> {
        if head.len() != tail.len() {
            return Err(MonetError::TypeMismatch {
                expected: format!("columns of equal length ({})", head.len()),
                found: format!("tail of length {}", tail.len()),
            });
        }
        Ok(Bat::from_columns_unchecked(head, tail))
    }

    /// Crate-internal constructor for operators that produce equal-length
    /// columns by construction.
    pub(crate) fn from_columns_unchecked(head: Column, tail: Column) -> Self {
        Bat {
            head,
            tail,
            id: fresh_bat_id(),
            version: 0,
        }
    }

    /// Builds a void-headed BAT from tail values (the common Monet layout).
    pub fn from_tail(ty: AtomType, values: impl IntoIterator<Item = Atom>) -> Result<Self> {
        let mut bat = Bat::new(AtomType::Void, ty);
        for v in values {
            bat.append_void(v)?;
        }
        Ok(bat)
    }

    /// Builds a BAT from (head, tail) pairs, inferring nothing: the declared
    /// types are explicit.
    pub fn from_pairs(
        head_ty: AtomType,
        tail_ty: AtomType,
        pairs: impl IntoIterator<Item = (Atom, Atom)>,
    ) -> Result<Self> {
        let mut bat = Bat::new(head_ty, tail_ty);
        for (h, t) in pairs {
            bat.append(h, t)?;
        }
        Ok(bat)
    }

    /// Head column.
    pub fn head(&self) -> &Column {
        &self.head
    }

    /// Tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Process-unique identity of this BAT instance (fresh per clone).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutation counter; bumped by `append`, `append_void` and `replace`.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of pairs (`count` in MIL).
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// True when the BAT holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared (head, tail) types.
    pub fn types(&self) -> (AtomType, AtomType) {
        (self.head.atom_type(), self.tail.atom_type())
    }

    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Appends an explicit (head, tail) pair (`insert` in MIL).
    pub fn append(&mut self, head: Atom, tail: Atom) -> Result<()> {
        self.head.push(head)?;
        // Keep columns equal length even if the tail push fails.
        if let Err(e) = self.tail.push(tail) {
            self.pop_head();
            return Err(e);
        }
        self.touch();
        Ok(())
    }

    /// Appends a tail value under a dense void head.
    pub fn append_void(&mut self, tail: Atom) -> Result<()> {
        self.head.push_void()?;
        if let Err(e) = self.tail.push(tail) {
            self.pop_head();
            return Err(e);
        }
        self.touch();
        Ok(())
    }

    fn pop_head(&mut self) {
        match &mut self.head {
            Column::Void { len, .. } => *len -= 1,
            Column::Data(d) => d.pop(),
        }
    }

    /// Head value at position `i`.
    pub fn head_at(&self, i: usize) -> Result<Atom> {
        self.head.at(i)
    }

    /// Tail value at position `i`.
    pub fn tail_at(&self, i: usize) -> Result<Atom> {
        self.tail.at(i)
    }

    /// Iterates (head, tail) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, Atom)> + '_ {
        self.head.iter().zip(self.tail.iter())
    }

    /// `reverse`: swaps head and tail columns in O(1) (columns are moved,
    /// not copied, when called on an owned BAT; here we clone).
    pub fn reverse(&self) -> Bat {
        Bat::from_columns_unchecked(self.tail.clone(), self.head.clone())
    }

    /// `mirror`: pairs every head value with itself.
    pub fn mirror(&self) -> Bat {
        Bat::from_columns_unchecked(self.head.clone(), self.head.clone())
    }

    /// `mark`: pairs every head value with a dense oid run starting at
    /// `seqbase` — Monet's way of (re)numbering rows.
    pub fn mark(&self, seqbase: u64) -> Bat {
        Bat::from_columns_unchecked(
            self.head.clone(),
            Column::Void {
                seqbase,
                len: self.len(),
            },
        )
    }

    /// `find`: tail value of the first pair whose head equals `key`.
    pub fn find(&self, key: &Atom) -> Option<Atom> {
        // Void heads permit O(1) positional lookup.
        if let Column::Void { seqbase, len } = &self.head {
            if let Atom::Oid(o) = key {
                if *o >= *seqbase && ((*o - *seqbase) as usize) < *len {
                    return self.tail.at((*o - *seqbase) as usize).ok();
                }
            }
            return None;
        }
        self.iter().find(|(h, _)| h == key).map(|(_, t)| t)
    }

    /// Positions `lo..hi` (clamped), as gatherable row indices.
    fn clamped_range(&self, lo: usize, hi: usize) -> Vec<u32> {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        (lo as u32..hi as u32).collect()
    }

    /// `slice`: pairs at positions `lo..hi` (clamped). Void columns
    /// materialize (slicing breaks density).
    pub fn slice(&self, lo: usize, hi: usize) -> Bat {
        self.gather(&self.clamped_range(lo, hi))
    }

    /// Pairs at the given row positions, via typed columnar gather. Void
    /// columns materialize into oid data. Positions must be in range.
    pub fn gather(&self, idx: &[u32]) -> Bat {
        Bat::from_columns_unchecked(self.head.gather(idx), self.tail.gather(idx))
    }

    /// Replaces the tail of the first pair whose head equals `key`, or
    /// appends the pair when absent (`replace` in MIL).
    pub fn replace(&mut self, key: Atom, tail: Atom) -> Result<()> {
        let pos = self.iter().position(|(h, _)| h == key);
        match pos {
            Some(i) => match &mut self.tail {
                Column::Data(d) => {
                    d.set(i, tail)?;
                    self.touch();
                    Ok(())
                }
                Column::Void { .. } => Err(MonetError::TypeMismatch {
                    expected: "materialized tail".into(),
                    found: "void".into(),
                }),
            },
            None => self.append(key, tail),
        }
    }
}

impl Default for Bat {
    /// A void-headed oid-tailed BAT (an empty pairing).
    fn default() -> Self {
        Bat::new(AtomType::Void, AtomType::Oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbl_bat(values: &[f64]) -> Bat {
        Bat::from_tail(AtomType::Dbl, values.iter().map(|v| Atom::Dbl(*v))).unwrap()
    }

    #[test]
    fn void_head_is_dense_and_virtual() {
        let b = dbl_bat(&[1.0, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.head_at(0).unwrap(), Atom::Oid(0));
        assert_eq!(b.head_at(2).unwrap(), Atom::Oid(2));
        assert!(b.head_at(3).is_err());
    }

    #[test]
    fn append_rejects_wrong_tail_type_and_keeps_columns_aligned() {
        let mut b = Bat::new(AtomType::Void, AtomType::Dbl);
        b.append_void(Atom::Dbl(1.0)).unwrap();
        assert!(b.append_void(Atom::str("oops")).is_err());
        assert_eq!(b.len(), 1);
        b.append_void(Atom::Dbl(2.0)).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn int_widens_into_dbl_column() {
        let mut b = Bat::new(AtomType::Void, AtomType::Dbl);
        b.append_void(Atom::Int(4)).unwrap();
        assert_eq!(b.tail_at(0).unwrap(), Atom::Dbl(4.0));
    }

    #[test]
    fn dbl_into_int_column_is_rejected() {
        let mut b = Bat::new(AtomType::Void, AtomType::Int);
        assert!(b.append_void(Atom::Dbl(1.5)).is_err());
    }

    #[test]
    fn reverse_swaps_columns() {
        let b = dbl_bat(&[5.0, 6.0]);
        let r = b.reverse();
        assert_eq!(r.head_at(0).unwrap(), Atom::Dbl(5.0));
        assert_eq!(r.tail_at(0).unwrap(), Atom::Oid(0));
        assert_eq!(r.reverse(), b);
    }

    #[test]
    fn mirror_pairs_head_with_itself() {
        let b = Bat::from_pairs(
            AtomType::Str,
            AtomType::Int,
            [(Atom::str("a"), Atom::Int(1))],
        )
        .unwrap();
        let m = b.mirror();
        assert_eq!(m.tail_at(0).unwrap(), Atom::str("a"));
    }

    #[test]
    fn mark_renumbers_with_dense_oids() {
        let b = dbl_bat(&[1.0, 2.0]);
        let m = b.reverse().mark(100);
        assert_eq!(m.tail_at(0).unwrap(), Atom::Oid(100));
        assert_eq!(m.tail_at(1).unwrap(), Atom::Oid(101));
    }

    #[test]
    fn find_on_void_head_is_positional() {
        let b = dbl_bat(&[9.0, 8.0, 7.0]);
        assert_eq!(b.find(&Atom::Oid(1)), Some(Atom::Dbl(8.0)));
        assert_eq!(b.find(&Atom::Oid(5)), None);
        assert_eq!(b.find(&Atom::Int(1)), None);
    }

    #[test]
    fn find_on_materialized_head_scans() {
        let b = Bat::from_pairs(
            AtomType::Str,
            AtomType::Int,
            [
                (Atom::str("schumacher"), Atom::Int(1)),
                (Atom::str("hakkinen"), Atom::Int(2)),
            ],
        )
        .unwrap();
        assert_eq!(b.find(&Atom::str("hakkinen")), Some(Atom::Int(2)));
        assert_eq!(b.find(&Atom::str("montoya")), None);
    }

    #[test]
    fn slice_clamps_and_materializes_voids() {
        let b = dbl_bat(&[1.0, 2.0, 3.0, 4.0]);
        let s = b.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.head_at(0).unwrap(), Atom::Oid(1));
        assert_eq!(s.tail_at(1).unwrap(), Atom::Dbl(3.0));
        assert_eq!(b.slice(3, 100).len(), 1);
        assert_eq!(b.slice(10, 2).len(), 0);
    }

    #[test]
    fn replace_updates_or_appends() {
        let mut b = Bat::from_pairs(
            AtomType::Str,
            AtomType::Dbl,
            [(Atom::str("Service"), Atom::Dbl(0.1))],
        )
        .unwrap();
        b.replace(Atom::str("Service"), Atom::Dbl(0.9)).unwrap();
        assert_eq!(b.find(&Atom::str("Service")), Some(Atom::Dbl(0.9)));
        b.replace(Atom::str("Smash"), Atom::Dbl(0.3)).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn replace_rejects_wrong_type_in_int_tail() {
        let mut b = Bat::from_pairs(
            AtomType::Str,
            AtomType::Int,
            [(Atom::str("k"), Atom::Int(1))],
        )
        .unwrap();
        assert!(b.replace(Atom::str("k"), Atom::Dbl(2.5)).is_err());
        assert_eq!(b.find(&Atom::str("k")), Some(Atom::Int(1)));
    }

    #[test]
    fn iterator_yields_pairs_in_order() {
        let b = dbl_bat(&[1.0, 2.0]);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (Atom::Oid(0), Atom::Dbl(1.0)),
                (Atom::Oid(1), Atom::Dbl(2.0)),
            ]
        );
    }

    #[test]
    fn string_columns_are_dictionary_encoded() {
        let b = Bat::from_tail(
            AtomType::Str,
            ["pit", "lap", "pit", "pit"].into_iter().map(Atom::str),
        )
        .unwrap();
        let s = b.tail().strs().expect("str column");
        assert_eq!(s.len(), 4);
        assert_eq!(s.dict_len(), 2);
        assert_eq!(s.codes(), &[0, 1, 0, 0]);
        assert_eq!(s.code_of("lap"), Some(1));
        assert_eq!(s.code_of("nope"), None);
        // Interning shares one allocation across equal rows.
        assert!(Arc::ptr_eq(s.value(0), s.value(2)));
    }

    #[test]
    fn typed_accessors_expose_slices() {
        let b = Bat::from_tail(AtomType::Int, (0..4).map(Atom::Int)).unwrap();
        assert_eq!(b.tail().ints(), Some(&[0i64, 1, 2, 3][..]));
        assert_eq!(b.tail().dbls(), None);
        assert_eq!(b.head().void_run(), Some((0, 4)));
    }

    #[test]
    fn gather_materializes_and_reorders() {
        let b = dbl_bat(&[1.0, 2.0, 3.0, 4.0]);
        let g = b.gather(&[3, 0, 0]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.head_at(0).unwrap(), Atom::Oid(3));
        assert_eq!(g.tail_at(1).unwrap(), Atom::Dbl(1.0));
        assert_eq!(g.tail_at(2).unwrap(), Atom::Dbl(1.0));
        assert_eq!(g.types(), (AtomType::Oid, AtomType::Dbl));
    }

    #[test]
    fn version_bumps_on_mutation_and_clone_gets_fresh_id() {
        let mut b = Bat::new(AtomType::Void, AtomType::Int);
        let v0 = b.version();
        b.append_void(Atom::Int(1)).unwrap();
        assert!(b.version() > v0);
        let c = b.clone();
        assert_ne!(b.id(), c.id());
        assert_eq!(b, c);
    }

    #[test]
    fn column_equality_is_logical_for_doubles() {
        let a = dbl_bat(&[f64::NAN, 0.0]);
        let b = dbl_bat(&[f64::NAN, 0.0]);
        let c = dbl_bat(&[f64::NAN, -0.0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
