//! Naive reference implementations of the relational operators — the
//! differential ground truth of `vectorized_differential.rs`.
//!
//! These are the pre-vectorization operator bodies, kept verbatim as the
//! semantic ground truth: they iterate [`Atom`]s one at a time and rebuild
//! an atom-keyed [`HashIndex`] on every call. The vectorized operators in
//! `f1_monet::ops` are tested against them on random BATs. They live
//! under `tests/` (a module directory, not a test target of its own) so
//! that no build of the kernel ships them; they use only the crate's
//! public API.

use std::collections::HashMap;

use f1_monet::ops::Aggregate;
use f1_monet::prelude::*;

/// The original atom-keyed hash index over one BAT column: each distinct
/// [`Atom`] maps to the positions holding it. The kernel's typed
/// `ColumnIndex` replaced it.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    buckets: HashMap<Atom, Vec<usize>>,
}

impl HashIndex {
    /// Builds an index over every value of `column`.
    pub fn build(column: &Column) -> Self {
        let mut buckets: HashMap<Atom, Vec<usize>> = HashMap::with_capacity(column.len());
        for (pos, atom) in column.iter().enumerate() {
            buckets.entry(atom).or_default().push(pos);
        }
        HashIndex { buckets }
    }

    /// Positions whose value equals `key` (empty slice when absent).
    pub fn lookup(&self, key: &Atom) -> &[usize] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.buckets.len()
    }

    /// Total number of indexed positions.
    pub fn entries(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// True when `key` occurs in the indexed column.
    pub fn contains(&self, key: &Atom) -> bool {
        self.buckets.contains_key(key)
    }
}

/// Operators that re-arrange rows lose void density.
fn out_type(t: AtomType) -> AtomType {
    if t == AtomType::Void {
        AtomType::Oid
    } else {
        t
    }
}

/// `select(b, v)`: pairs whose tail equals `v`.
pub fn select_eq(b: &Bat, v: &Atom) -> Bat {
    let (ht, tt) = b.types();
    let mut out = Bat::new(out_type(ht), out_type(tt));
    for (h, t) in b.iter().filter(|(_, t)| t == v) {
        out.append(h, t).expect("type preserved");
    }
    out
}

/// `select(b, lo, hi)`: pairs whose tail lies in the inclusive range.
pub fn select_range(b: &Bat, lo: &Atom, hi: &Atom) -> Bat {
    let (ht, tt) = b.types();
    let mut out = Bat::new(out_type(ht), out_type(tt));
    for (h, t) in b.iter().filter(|(_, t)| t >= lo && t <= hi) {
        out.append(h, t).expect("type preserved");
    }
    out
}

/// `join(l, r)`: Monet's positional join — matches `l.tail` against
/// `r.head` and yields `(l.head, r.tail)` for every match.
pub fn join(l: &Bat, r: &Bat) -> Bat {
    let (lh, _) = l.types();
    let (_, rt) = r.types();
    let mut out = Bat::new(out_type(lh), out_type(rt));
    let idx = HashIndex::build(r.head());
    for (h, t) in l.iter() {
        for &pos in idx.lookup(&t) {
            out.append(h.clone(), r.tail_at(pos).expect("indexed position"))
                .expect("type preserved");
        }
    }
    out
}

/// `semijoin(l, r)`: pairs of `l` whose head occurs among `r`'s heads.
pub fn semijoin(l: &Bat, r: &Bat) -> Bat {
    let (lh, lt) = l.types();
    let mut out = Bat::new(out_type(lh), out_type(lt));
    let idx = HashIndex::build(r.head());
    for (h, t) in l.iter() {
        if idx.contains(&h) {
            out.append(h, t).expect("type preserved");
        }
    }
    out
}

/// `diff(l, r)`: pairs of `l` whose head does **not** occur among `r`'s heads.
pub fn antijoin(l: &Bat, r: &Bat) -> Bat {
    let (lh, lt) = l.types();
    let mut out = Bat::new(out_type(lh), out_type(lt));
    let idx = HashIndex::build(r.head());
    for (h, t) in l.iter() {
        if !idx.contains(&h) {
            out.append(h, t).expect("type preserved");
        }
    }
    out
}

/// `unique(b)`: first occurrence of every distinct tail value.
pub fn unique_tail(b: &Bat) -> Bat {
    let (ht, tt) = b.types();
    let mut seen: HashMap<Atom, ()> = HashMap::new();
    let mut out = Bat::new(out_type(ht), out_type(tt));
    for (h, t) in b.iter() {
        if seen.insert(t.clone(), ()).is_none() {
            out.append(h, t).expect("type preserved");
        }
    }
    out
}

/// `histogram(b)`: (tail value, occurrence count) pairs.
pub fn histogram(b: &Bat) -> Bat {
    let (_, tt) = b.types();
    let mut counts: HashMap<Atom, i64> = HashMap::new();
    let mut order: Vec<Atom> = Vec::new();
    for (_, t) in b.iter() {
        let e = counts.entry(t.clone()).or_insert(0);
        if *e == 0 {
            order.push(t);
        }
        *e += 1;
    }
    let mut out = Bat::new(out_type(tt), AtomType::Int);
    for key in order {
        let n = counts[&key];
        out.append(key, Atom::Int(n)).expect("type preserved");
    }
    out
}

/// `group(b)`: maps every head to a group id shared by equal tail values.
pub fn group(b: &Bat) -> Bat {
    let (ht, _) = b.types();
    let mut ids: HashMap<Atom, u64> = HashMap::new();
    let mut next = 0u64;
    let mut out = Bat::new(out_type(ht), AtomType::Oid);
    for (h, t) in b.iter() {
        let id = *ids.entry(t).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        out.append(h, Atom::Oid(id)).expect("type preserved");
    }
    out
}

/// `sort(b)`: pairs ordered by tail value (stable).
pub fn sort_by_tail(b: &Bat) -> Bat {
    let (ht, tt) = b.types();
    let mut pairs: Vec<(Atom, Atom)> = b.iter().collect();
    pairs.sort_by(|a, c| a.1.cmp(&c.1));
    let mut out = Bat::new(out_type(ht), out_type(tt));
    for (h, t) in pairs {
        out.append(h, t).expect("type preserved");
    }
    out
}

/// Computes a numeric aggregate over the tail column.
pub fn aggregate(b: &Bat, kind: Aggregate) -> Result<Atom> {
    if kind == Aggregate::Count {
        return Ok(Atom::Int(b.len() as i64));
    }
    if b.is_empty() {
        return Err(MonetError::EmptyBat(format!("{kind:?}").to_lowercase()));
    }
    match kind {
        Aggregate::Min => b
            .tail()
            .iter()
            .min()
            .ok_or_else(|| MonetError::EmptyBat("min".into())),
        Aggregate::Max => b
            .tail()
            .iter()
            .max()
            .ok_or_else(|| MonetError::EmptyBat("max".into())),
        Aggregate::Sum | Aggregate::Avg => {
            let mut sum = 0.0f64;
            let mut all_int = true;
            let mut isum = 0i64;
            for t in b.tail().iter() {
                match &t {
                    Atom::Int(v) => {
                        isum = isum.wrapping_add(*v);
                        sum += *v as f64;
                    }
                    Atom::Dbl(v) => {
                        all_int = false;
                        sum += v;
                    }
                    other => {
                        return Err(MonetError::TypeMismatch {
                            expected: "numeric tail".into(),
                            found: other.to_string(),
                        })
                    }
                }
            }
            if kind == Aggregate::Sum {
                Ok(if all_int {
                    Atom::Int(isum)
                } else {
                    Atom::Dbl(sum)
                })
            } else {
                Ok(Atom::Dbl(sum / b.len() as f64))
            }
        }
        Aggregate::Count => unreachable!("handled above"),
    }
}

/// Grouped aggregation: `grouped(values, groups, kind)` where `groups`
/// assigns a group id to every head of `values`. Returns (group id, agg).
///
/// Heads of `values` absent from `groups` are silently dropped — the
/// historical semantics the vectorized operator replaces with a typed
/// [`MonetError::GroupMismatch`].
pub fn grouped_aggregate(values: &Bat, groups: &Bat, kind: Aggregate) -> Result<Bat> {
    let gidx = HashIndex::build(groups.head());
    let mut buckets: HashMap<Atom, Vec<Atom>> = HashMap::new();
    let mut order: Vec<Atom> = Vec::new();
    for (h, t) in values.iter() {
        let positions = gidx.lookup(&h);
        let gid = match positions.first() {
            Some(&p) => groups.tail_at(p)?,
            None => continue, // head absent from grouping — dropped
        };
        let bucket = buckets.entry(gid.clone()).or_insert_with(|| {
            order.push(gid.clone());
            Vec::new()
        });
        bucket.push(t);
    }
    let out_ty = if kind == Aggregate::Count {
        AtomType::Int
    } else {
        AtomType::Dbl
    };
    let mut out = Bat::new(out_type(groups.tail().atom_type()), out_ty);
    for gid in order {
        let vals = &buckets[&gid];
        let tmp = Bat::from_tail(
            vals.first().map(|a| a.atom_type()).unwrap_or(AtomType::Dbl),
            vals.iter().cloned(),
        )?;
        let mut agg = aggregate(&tmp, kind)?;
        if out_ty == AtomType::Dbl {
            agg = Atom::Dbl(agg.as_dbl()?);
        }
        out.append(gid, agg)?;
    }
    Ok(out)
}

#[test]
fn index_finds_all_positions_of_duplicates() {
    let b = Bat::from_tail(
        AtomType::Str,
        ["a", "b", "a", "c", "a"].into_iter().map(Atom::str),
    )
    .unwrap();
    let idx = HashIndex::build(b.tail());
    assert_eq!(idx.lookup(&Atom::str("a")), &[0, 2, 4]);
    assert_eq!(idx.lookup(&Atom::str("c")), &[3]);
    assert!(idx.lookup(&Atom::str("zz")).is_empty());
    assert_eq!(idx.distinct(), 3);
    assert_eq!(idx.entries(), 5);
}

#[test]
fn index_over_void_column_is_positional() {
    let b = Bat::from_tail(AtomType::Int, (0..4).map(Atom::Int)).unwrap();
    let idx = HashIndex::build(b.head());
    assert_eq!(idx.lookup(&Atom::Oid(2)), &[2]);
    assert!(idx.contains(&Atom::Oid(0)));
    assert!(!idx.contains(&Atom::Oid(9)));
}
