//! Differential tests for the value-index path: `bat(name).select(v)`
//! on a catalog BAT answers from the kernel's cached value index, and
//! must produce exactly the BAT — head and tail, doubles by bit pattern —
//! that the scanning `ops::select_eq` produces. Covered: every atom type,
//! NaN payloads and both zeros, cross-type and widened probes, keys no
//! dictionary holds, empty BATs, gathered columns whose dictionary keeps
//! entries no row uses, and the BAT after in-place growth
//! (`Kernel::update_unshared`, which extends the cached index: every
//! selection after it is a hit) and after a rebind (`Kernel::set_bats`),
//! where a stale index would show. String joins probe the by-code index
//! and are held to the hash index keyed by interned string it replaced.

use std::collections::HashMap;
use std::sync::Arc;

use f1_monet::ops::{self, OpCtx};
use f1_monet::prelude::*;
use proptest::prelude::*;

/// What the scanning `ops::select_eq` keeps of `b` for `key`.
fn scan(b: &Bat, key: &Atom) -> Bat {
    ops::select_eq(b, key, &OpCtx::default()).expect("no guard to trip")
}

const TYPES: [AtomType; 5] = [
    AtomType::Oid,
    AtomType::Int,
    AtomType::Dbl,
    AtomType::Str,
    AtomType::Bit,
];

/// 2^53: from here on several ints widen to one double.
const WIDE: i64 = 1 << 53;

/// Doubles by bit pattern: four NaN payloads, both zeros, infinities,
/// halves, small integers (equal to ints by widened value) and 2^53.
fn dbl(i: u64) -> f64 {
    match i % 14 {
        0 => f64::from_bits(0x7ff8_0000_0000_0000),
        1 => f64::from_bits(0x7ff8_0000_0000_0001),
        2 => f64::from_bits(0xfff8_0000_0000_0000),
        3 => f64::from_bits(0x7ff0_0000_0000_0001),
        4 => 0.0,
        5 => -0.0,
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8 => 1.5,
        9 => -2.0,
        10 => 3.0,
        11 => WIDE as f64,
        12 => (WIDE + 2) as f64,
        _ => -0.5,
    }
}

/// A string of the shared pool, or — from 8 up — one no column holds.
fn word(i: u64) -> Atom {
    let pool = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    match pool.get(i as usize) {
        Some(w) => Atom::str(*w),
        None => Atom::str(format!("absent-{i}")),
    }
}

/// The `i`-th value of a small pool of type `ty`, so probes hit.
fn value(ty: AtomType, i: u64) -> Atom {
    match ty {
        AtomType::Oid | AtomType::Void => Atom::Oid(i % 6),
        AtomType::Int => match i % 9 {
            7 => Atom::Int(WIDE),
            8 => Atom::Int(WIDE + 1),
            k => Atom::Int(k as i64 - 3),
        },
        AtomType::Dbl => Atom::Dbl(dbl(i)),
        AtomType::Str => word(i % 8),
        AtomType::Bit => Atom::Bit(i.is_multiple_of(2)),
    }
}

/// A probe of type `ty`: like [`value`], but strings reach past the pool.
fn probe(ty: AtomType, i: u64) -> Atom {
    match ty {
        AtomType::Str => word(i % 12),
        ty => value(ty, i),
    }
}

/// A BAT of `ty` tails over `draws`: void-headed, or int-headed, or
/// gathered at `picks` from such a BAT (an oid head, and for strings a
/// dictionary with entries no row uses).
fn column(ty: AtomType, draws: &[u64], shape: u64, picks: &[u64]) -> Bat {
    let tails = draws.iter().map(|&i| value(ty, i));
    let full = if shape % 3 == 1 {
        let pairs = tails.enumerate().map(|(h, t)| (Atom::Int(h as i64 * 7), t));
        Bat::from_pairs(AtomType::Int, ty, pairs).expect("typed pairs")
    } else {
        Bat::from_tail(ty, tails).expect("typed tail")
    };
    if shape % 3 == 2 && !full.is_empty() {
        let rows: Vec<u32> = picks
            .iter()
            .map(|&p| (p % full.len() as u64) as u32)
            .collect();
        full.gather(&rows)
    } else {
        full
    }
}

/// Appends `extra` values of the tail's type, with heads of the head's.
fn grow(bat: &mut Bat, extra: &[u64]) -> Result<()> {
    let ty = bat.tail().atom_type();
    for (k, &i) in extra.iter().enumerate() {
        let head = (bat.len() + k) as u64;
        match bat.head().atom_type() {
            AtomType::Void => bat.append_void(value(ty, i))?,
            AtomType::Oid => bat.append(Atom::Oid(head), value(ty, i))?,
            _ => bat.append(Atom::Int(head as i64), value(ty, i))?,
        }
    }
    Ok(())
}

const SELECT: &str = r#"RETURN bat("b").select(bat("k").max);"#;

/// `b.select(key)` through MIL, with `b` and a one-row BAT holding `key`
/// in `kernel`'s catalog.
fn select_by_name(kernel: &Kernel, key: &Atom) -> Bat {
    kernel.set_bat("k", Bat::from_tail(key.atom_type(), [key.clone()]).unwrap());
    kernel.eval_mil(SELECT).unwrap().bat_snapshot().unwrap()
}

/// (cache hits, builds) so far.
fn index_uses(kernel: &Kernel) -> (u64, u64) {
    let m = kernel.metrics();
    (m.index_hits.get(), m.index_misses.get())
}

/// True when a value index over `b`'s tail answers `key` exactly.
fn indexable(b: &Bat, key: &Atom) -> bool {
    ColumnIndex::build(b.tail()).is_some_and(|idx| idx.positions(b.tail(), key).is_some())
}

/// The string index `ColumnIndex::Str` was before it went by code:
/// positions keyed by interned string.
fn hashed_str_index(column: &StrColumn) -> HashMap<Arc<str>, Vec<u32>> {
    let mut index: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
    for i in 0..column.len() {
        index
            .entry(Arc::clone(column.value(i)))
            .or_default()
            .push(i as u32);
    }
    index
}

/// `join(l, r)` of a str tail against a str head through the hashed
/// index, pair by pair.
fn hashed_join(l: &Bat, r: &Bat) -> Bat {
    let index = hashed_str_index(r.head().strs().expect("str head"));
    let probes = l.tail().strs().expect("str tail");
    let mut pairs = Vec::new();
    for i in 0..l.len() {
        for &pos in index.get(probes.value(i)).map(Vec::as_slice).unwrap_or(&[]) {
            pairs.push((l.head_at(i).unwrap(), r.tail_at(pos as usize).unwrap()));
        }
    }
    // Re-arranged rows lose void density.
    let dense = |ty| match ty {
        AtomType::Void => AtomType::Oid,
        ty => ty,
    };
    let types = (dense(l.head().atom_type()), dense(r.tail().atom_type()));
    Bat::from_pairs(types.0, types.1, pairs).unwrap()
}

proptest! {
    #[test]
    fn indexed_select_matches_the_scan(
        ty in 0usize..5,
        draws in proptest::collection::vec(0u64..40, 0..40),
        shape in 0u64..3,
        picks in proptest::collection::vec(0u64..64, 0..24),
        probes in proptest::collection::vec((0usize..5, 0u64..40), 1..6),
        extra in proptest::collection::vec(0u64..40, 1..6),
        other in proptest::collection::vec(0u64..40, 0..24),
    ) {
        let ty = TYPES[ty];
        let b = column(ty, &draws, shape, &picks);
        let kernel = Kernel::new();
        kernel.set_bat("b", b.clone());
        // Mostly probes of the column's own type; cross-type ones too.
        let keys: Vec<Atom> = probes
            .iter()
            .map(|&(t, i)| probe(if t < 3 { ty } else { TYPES[(t + i as usize) % 5] }, i))
            .collect();

        // Each key twice. The first selection builds the index and every
        // later one probes it; a key the index cannot answer exactly (a
        // double at 2^53 against ints) is scanned and counts neither.
        for (k, key) in keys.iter().enumerate() {
            for round in 0..2 {
                let before = index_uses(&kernel);
                prop_assert_eq!(select_by_name(&kernel, key), scan(&b, key), "{key:?}");
                let (hits, built) = index_uses(&kernel);
                let used = (hits - before.0, built - before.1);
                let expected = match (indexable(&b, key), k + round) {
                    (false, _) => (0, 0),
                    (true, 0) => (0, 1),
                    (true, _) => (1, 0),
                };
                prop_assert_eq!(used, expected, "{key:?} round {round}");
            }
        }

        // Grown in place: the cached index is extended by the rows
        // appended, so every selection after is a hit that sees them.
        let grown = kernel.update_unshared(["b"], |[bat]| grow(bat, &extra));
        prop_assert!(matches!(grown, Some(Ok(()))), "no reader holds b");
        let mut after = b.clone();
        grow(&mut after, &extra).unwrap();
        for key in &keys {
            let before = index_uses(&kernel);
            prop_assert_eq!(select_by_name(&kernel, key), scan(&after, key), "grown, {key:?}");
            let (hits, built) = index_uses(&kernel);
            let expected = if indexable(&after, key) { (1, 0) } else { (0, 0) };
            prop_assert_eq!((hits - before.0, built - before.1), expected, "grown, {key:?}");
        }

        // Rebound: the new BAT answers; the old one, bound by its
        // handle, still answers as itself.
        let held = kernel.bat("b").unwrap();
        let rebound = column(ty, &other, shape, &draws);
        kernel.set_bats([("b", rebound.clone())]);
        for key in &keys {
            prop_assert_eq!(select_by_name(&kernel, key), scan(&rebound, key), "rebound, {key:?}");
            let old = kernel
                .eval_mil_bound(SELECT, &ExecBudget::unlimited(), &[("b", &held)])
                .unwrap()
                .bat_snapshot()
                .unwrap();
            prop_assert_eq!(old, scan(&after, key), "held, {key:?}");
        }
    }

    #[test]
    fn str_joins_through_the_code_index_match_the_hashed_index(
        l_draws in proptest::collection::vec(0u64..12, 0..32),
        r_draws in proptest::collection::vec(0u64..12, 0..32),
        picks in proptest::collection::vec(0u64..64, 0..16),
        gather in 0u64..4,
    ) {
        let strs = |draws: &[u64]| {
            Bat::from_tail(AtomType::Str, draws.iter().map(|&i| word(i))).unwrap()
        };
        let (mut l, mut r) = (strs(&l_draws), strs(&r_draws));
        // Gathered sides share their source's dictionary, unused entries
        // included.
        let gathered = |b: &Bat| {
            let rows: Vec<u32> = picks.iter().map(|&p| (p % b.len() as u64) as u32).collect();
            b.gather(&rows)
        };
        if gather & 1 == 1 && !l.is_empty() {
            l = gathered(&l);
        }
        if gather & 2 == 2 && !r.is_empty() {
            r = gathered(&r);
        }
        let build = r.reverse(); // str head, void tail

        // Every probe-side string finds the rows the hashed index lists.
        let by_code = ColumnIndex::build(build.head()).unwrap();
        let hashed = hashed_str_index(build.head().strs().unwrap());
        for s in l.tail().strs().unwrap().dict() {
            let key = Atom::Str(Arc::clone(s));
            let want = hashed.get(s).map(Vec::as_slice).unwrap_or(&[]);
            prop_assert_eq!(by_code.positions(build.head(), &key).unwrap(), want, "{s}");
        }

        let want = hashed_join(&l, &build);
        for threads in [1usize, 2] {
            let ctx = OpCtx::with_threads(threads);
            prop_assert_eq!(ops::join(&l, &build, &ctx).unwrap(), want.clone());
        }
        // Membership: rows of l whose string the build side holds.
        let lk = l.reverse();
        let kept: Vec<u32> = (0..lk.len() as u32)
            .filter(|&i| hashed.contains_key(lk.head().strs().unwrap().value(i as usize)))
            .collect();
        let dropped: Vec<u32> = (0..lk.len() as u32).filter(|i| !kept.contains(i)).collect();
        let seq = OpCtx::default();
        prop_assert_eq!(ops::semijoin(&lk, &build, &seq).unwrap(), lk.gather(&kept));
        prop_assert_eq!(ops::antijoin(&lk, &build, &seq).unwrap(), lk.gather(&dropped));
    }
}
