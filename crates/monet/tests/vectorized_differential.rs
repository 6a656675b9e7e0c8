//! Differential tests: the vectorized operators must be *result-identical*
//! to the naive atom-at-a-time reference implementations in `naive/mod.rs`,
//! on random BATs covering every column representation — void heads,
//! materialized oid/int/dbl/str columns, dictionary-encoded strings, and
//! doubles with the awkward values (NaN, -0.0) whose total-order semantics
//! the typed kernels must preserve bit-for-bit.
//!
//! The `*_ctx` variants are additionally checked at 1, 2 and 4 threads:
//! morsel results are concatenated in range order, so row order (and, for
//! integer aggregations, every value) is independent of the thread count.

mod naive;

use f1_monet::ops::{self, Aggregate, OpCtx};
use f1_monet::prelude::*;
use proptest::prelude::*;

fn keyed_int_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec((0i64..16, -50i64..50), 0..48).prop_map(|pairs| {
        Bat::from_pairs(
            AtomType::Int,
            AtomType::Int,
            pairs.into_iter().map(|(k, v)| (Atom::Int(k), Atom::Int(v))),
        )
        .expect("homogeneous ints")
    })
}

fn void_int_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec(-50i64..50, 0..48)
        .prop_map(|v| Bat::from_tail(AtomType::Int, v.into_iter().map(Atom::Int)).expect("ints"))
}

/// Doubles drawn from a pool that includes NaN, both zeros and halves.
fn tricky_dbl(i: i64) -> f64 {
    match i {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => (i - 12) as f64 * 0.5,
    }
}

fn dbl_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec(0i64..20, 0..48).prop_map(|v| {
        Bat::from_tail(
            AtomType::Dbl,
            v.into_iter().map(|i| Atom::Dbl(tricky_dbl(i))),
        )
        .expect("doubles")
    })
}

fn word(i: i64) -> Atom {
    let pool = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    Atom::str(pool[(i.unsigned_abs() as usize) % pool.len()])
}

fn str_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec(0i64..8, 0..48)
        .prop_map(|v| Bat::from_tail(AtomType::Str, v.into_iter().map(word)).expect("strings"))
}

/// (int head, oid tail) pairs — probes a void-headed build side.
fn oid_tail_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec((-50i64..50, 0u64..64), 0..48).prop_map(|pairs| {
        Bat::from_pairs(
            AtomType::Int,
            AtomType::Oid,
            pairs.into_iter().map(|(h, t)| (Atom::Int(h), Atom::Oid(t))),
        )
        .expect("oids")
    })
}

proptest! {
    #[test]
    fn select_eq_matches_naive(b in keyed_int_bat(), probe in -60i64..60) {
        prop_assert_eq!(ops::select_eq(&b, &Atom::Int(probe)), naive::select_eq(&b, &Atom::Int(probe)));
        // A widened dbl probe must hit the same int rows.
        let d = Atom::Dbl(probe as f64);
        prop_assert_eq!(ops::select_eq(&b, &d), naive::select_eq(&b, &d));
    }

    #[test]
    fn select_eq_on_doubles_matches_naive(b in dbl_bat(), probe in 0i64..20) {
        let v = Atom::Dbl(tricky_dbl(probe));
        prop_assert_eq!(ops::select_eq(&b, &v), naive::select_eq(&b, &v));
    }

    #[test]
    fn select_range_matches_naive(b in keyed_int_bat(), lo in -60i64..60, hi in -60i64..60) {
        let (lo, hi) = (Atom::Int(lo), Atom::Int(hi));
        prop_assert_eq!(ops::select_range(&b, &lo, &hi), naive::select_range(&b, &lo, &hi));
        // Mixed-type bounds: dbl lo against the int column.
        let dlo = Atom::Dbl(lo.as_dbl().unwrap() + 0.5);
        prop_assert_eq!(ops::select_range(&b, &dlo, &hi), naive::select_range(&b, &dlo, &hi));
    }

    #[test]
    fn select_range_on_doubles_matches_naive(b in dbl_bat(), lo in 0i64..20, hi in 0i64..20) {
        let (lo, hi) = (Atom::Dbl(tricky_dbl(lo)), Atom::Dbl(tricky_dbl(hi)));
        prop_assert_eq!(ops::select_range(&b, &lo, &hi), naive::select_range(&b, &lo, &hi));
    }

    #[test]
    fn select_range_on_strings_matches_naive(b in str_bat(), lo in 0i64..8, hi in 0i64..8) {
        let (lo, hi) = (word(lo), word(hi));
        prop_assert_eq!(ops::select_range(&b, &lo, &hi), naive::select_range(&b, &lo, &hi));
        // Cross-type bounds collapse to constants in both implementations.
        prop_assert_eq!(
            ops::select_range(&b, &Atom::Int(0), &hi),
            naive::select_range(&b, &Atom::Int(0), &hi)
        );
    }

    #[test]
    fn select_range_on_void_tail_matches_naive(n in 0usize..48, lo in 0u64..64, hi in 0u64..64) {
        let b = Bat::from_tail(AtomType::Int, (0..n as i64).map(Atom::Int)).unwrap().reverse();
        let (lo, hi) = (Atom::Oid(lo), Atom::Oid(hi));
        prop_assert_eq!(ops::select_range(&b, &lo, &hi), naive::select_range(&b, &lo, &hi));
    }

    #[test]
    fn join_matches_naive(l in keyed_int_bat(), r in keyed_int_bat()) {
        prop_assert_eq!(ops::join(&l, &r), naive::join(&l, &r));
        prop_assert_eq!(ops::semijoin(&l, &r), naive::semijoin(&l, &r));
        prop_assert_eq!(ops::antijoin(&l, &r), naive::antijoin(&l, &r));
    }

    #[test]
    fn join_against_void_build_matches_naive(l in oid_tail_bat(), n in 0usize..48) {
        // r's head is a void run 0..n — the vectorized join uses pure
        // oid arithmetic where the naive one builds a positional index.
        let r = Bat::from_tail(AtomType::Int, (0..n as i64).map(Atom::Int)).unwrap();
        prop_assert_eq!(ops::join(&l, &r), naive::join(&l, &r));
    }

    #[test]
    fn join_with_mixed_numeric_keys_matches_naive(l in dbl_bat(), r in keyed_int_bat()) {
        // Dbl probes into an int build side force the widened index.
        prop_assert_eq!(ops::join(&l.reverse(), &r), naive::join(&l.reverse(), &r));
    }

    #[test]
    fn join_on_strings_matches_naive(l in str_bat(), r in str_bat()) {
        let rk = r.reverse(); // str head, void tail
        prop_assert_eq!(ops::join(&l, &rk), naive::join(&l, &rk));
        let lk = l.reverse();
        prop_assert_eq!(ops::semijoin(&lk, &rk), naive::semijoin(&lk, &rk));
        prop_assert_eq!(ops::antijoin(&lk, &rk), naive::antijoin(&lk, &rk));
    }

    #[test]
    fn grouping_ops_match_naive(b in keyed_int_bat()) {
        prop_assert_eq!(ops::unique_tail(&b), naive::unique_tail(&b));
        prop_assert_eq!(ops::histogram(&b), naive::histogram(&b));
        prop_assert_eq!(ops::group(&b), naive::group(&b));
        prop_assert_eq!(ops::sort_by_tail(&b), naive::sort_by_tail(&b));
    }

    #[test]
    fn grouping_ops_match_naive_on_doubles_and_strings(d in dbl_bat(), s in str_bat()) {
        for b in [&d, &s] {
            prop_assert_eq!(ops::unique_tail(b), naive::unique_tail(b));
            prop_assert_eq!(ops::histogram(b), naive::histogram(b));
            prop_assert_eq!(ops::group(b), naive::group(b));
            prop_assert_eq!(ops::sort_by_tail(b), naive::sort_by_tail(b));
        }
    }

    #[test]
    fn aggregates_match_naive(b in void_int_bat(), d in dbl_bat()) {
        for bat in [&b, &d] {
            for kind in [Aggregate::Sum, Aggregate::Avg, Aggregate::Min, Aggregate::Max, Aggregate::Count] {
                prop_assert_eq!(ops::aggregate(bat, kind), naive::aggregate(bat, kind));
            }
        }
    }

    #[test]
    fn grouped_aggregate_matches_naive(vals in proptest::collection::vec(-50i64..50, 1..48), g in 1u64..6) {
        let values = Bat::from_tail(AtomType::Int, vals.iter().copied().map(Atom::Int)).unwrap();
        // Cover every head: oid i -> group i % g, so nothing is dropped
        // by the naive path and nothing errors in the vectorized one.
        let groups = Bat::from_pairs(
            AtomType::Oid,
            AtomType::Oid,
            (0..values.len() as u64).map(|i| (Atom::Oid(i), Atom::Oid(i % g))),
        )
        .unwrap();
        for kind in [Aggregate::Sum, Aggregate::Avg, Aggregate::Min, Aggregate::Max, Aggregate::Count] {
            prop_assert_eq!(
                ops::grouped_aggregate(&values, &groups, kind),
                naive::grouped_aggregate(&values, &groups, kind)
            );
        }
    }

    #[test]
    fn ctx_variants_are_thread_count_invariant(l in keyed_int_bat(), r in keyed_int_bat(), probe in -60i64..60) {
        for threads in [1usize, 2, 4] {
            let ctx = OpCtx::with_threads(threads);
            prop_assert_eq!(ops::select_eq_ctx(&l, &Atom::Int(probe), &ctx).unwrap(), ops::select_eq(&l, &Atom::Int(probe)));
            prop_assert_eq!(
                ops::select_range_ctx(&l, &Atom::Int(-10), &Atom::Int(probe), &ctx).unwrap(),
                ops::select_range(&l, &Atom::Int(-10), &Atom::Int(probe))
            );
            prop_assert_eq!(ops::join_ctx(&l, &r, None, &ctx).unwrap(), ops::join(&l, &r));
            prop_assert_eq!(ops::semijoin_ctx(&l, &r, None, &ctx).unwrap(), ops::semijoin(&l, &r));
            prop_assert_eq!(ops::antijoin_ctx(&l, &r, None, &ctx).unwrap(), ops::antijoin(&l, &r));
        }
    }

    #[test]
    fn grouped_aggregate_ctx_is_exact_on_ints_at_any_thread_count(vals in proptest::collection::vec(-50i64..50, 1..48), g in 1u64..6) {
        let values = Bat::from_tail(AtomType::Int, vals.iter().copied().map(Atom::Int)).unwrap();
        let groups = Bat::from_pairs(
            AtomType::Oid,
            AtomType::Oid,
            (0..values.len() as u64).map(|i| (Atom::Oid(i), Atom::Oid(i % g))),
        )
        .unwrap();
        let baseline = ops::grouped_aggregate(&values, &groups, Aggregate::Sum).unwrap();
        for threads in [2usize, 4] {
            let ctx = OpCtx::with_threads(threads);
            // Integer sums accumulate in wrapping i64 per morsel and merge
            // exactly — the thread count must not change a single bit.
            prop_assert_eq!(
                ops::grouped_aggregate_ctx(&values, &groups, Aggregate::Sum, &ctx).unwrap(),
                baseline.clone()
            );
            prop_assert_eq!(
                ops::grouped_aggregate_ctx(&values, &groups, Aggregate::Count, &ctx).unwrap(),
                ops::grouped_aggregate(&values, &groups, Aggregate::Count).unwrap()
            );
        }
    }

    #[test]
    fn cached_index_never_changes_join_results(l in keyed_int_bat(), r in keyed_int_bat()) {
        let ctx = OpCtx::default();
        if let Some(idx) = ColumnIndex::build(r.head()) {
            prop_assert_eq!(ops::join_ctx(&l, &r, Some(&idx), &ctx).unwrap(), ops::join(&l, &r));
            prop_assert_eq!(ops::semijoin_ctx(&l, &r, Some(&idx), &ctx).unwrap(), ops::semijoin(&l, &r));
            prop_assert_eq!(ops::antijoin_ctx(&l, &r, Some(&idx), &ctx).unwrap(), ops::antijoin(&l, &r));
        }
    }
}

/// A word of the shared pool, or — from 8 up — one no generated BAT holds.
fn word_or_new(i: i64) -> Atom {
    if i < 8 {
        word(i)
    } else {
        Atom::str(format!("new-{i}"))
    }
}

proptest! {
    /// Outputs over a string column share its dictionary instead of
    /// copying it. They must still read like the naive, atom-at-a-time
    /// results — and keep reading so whichever side grows afterwards.
    #[test]
    fn shared_dictionary_outputs_match_naive_and_copy_on_write(
        b in str_bat(),
        picks in proptest::collection::vec(0usize..48, 0..16),
        probe in 0i64..8,
        oids in oid_tail_bat(),
        extra in proptest::collection::vec(0i64..12, 1..6),
    ) {
        let idx: Vec<u32> = picks.into_iter().filter(|&i| i < b.len()).map(|i| i as u32).collect();
        let gathered = b.gather(&idx);
        let by_atom = Bat::from_pairs(
            AtomType::Oid,
            AtomType::Str,
            idx.iter().map(|&i| (b.head_at(i as usize).unwrap(), b.tail_at(i as usize).unwrap())),
        )
        .expect("typed pairs");
        prop_assert_eq!(&gathered, &by_atom);
        let selected = ops::select_eq(&b, &word(probe));
        prop_assert_eq!(&selected, &naive::select_eq(&b, &word(probe)));
        // Oids into the void head: the positional fetch of a string field.
        let fetched = ops::join(&oids, &b);
        prop_assert_eq!(&fetched, &naive::join(&oids, &b));

        // Shared, not copied; and what the snapshot format writes —
        // dictionary and codes — rebuilds the same column.
        let source = b.tail().strs().expect("str tail");
        for out in [&gathered, &selected, &fetched] {
            let col = out.tail().strs().expect("str tail");
            prop_assert!(std::ptr::eq(col.dict().as_ptr(), source.dict().as_ptr()));
            let rebuilt = StrColumn::from_parts(col.dict().to_vec(), col.codes().to_vec()).unwrap();
            prop_assert_eq!(&rebuilt, col);
        }

        // Growing an output leaves the source as it was…
        let before = b.tail().to_vec();
        let mut grown_output = gathered.gather(&(0..gathered.len() as u32).collect::<Vec<_>>());
        for &i in &extra {
            grown_output.append(Atom::Oid(0), word_or_new(i)).unwrap();
        }
        prop_assert_eq!(b.tail().to_vec(), before);
        prop_assert_eq!(grown_output.tail_at(gathered.len()).unwrap(), word_or_new(extra[0]));
        // …and growing the source leaves every output as it was.
        let outputs = [gathered.tail().to_vec(), selected.tail().to_vec(), fetched.tail().to_vec()];
        let (mut grown, len) = (b, before.len());
        for &i in &extra {
            grown.append_void(word_or_new(i)).unwrap();
        }
        prop_assert_eq!(gathered.tail().to_vec(), outputs[0].clone());
        prop_assert_eq!(selected.tail().to_vec(), outputs[1].clone());
        prop_assert_eq!(fetched.tail().to_vec(), outputs[2].clone());
        prop_assert_eq!(&grown.tail().to_vec()[..len], &before[..]);
        for (k, &i) in extra.iter().enumerate() {
            prop_assert_eq!(grown.tail_at(len + k).unwrap(), word_or_new(i));
        }
    }
}
