//! Property-based tests for the BAT kernel invariants.

use f1_monet::ops::{self, Aggregate, OpCtx};
use f1_monet::prelude::*;
use proptest::prelude::*;

fn arb_atom_int() -> impl Strategy<Value = Atom> {
    (-100i64..100).prop_map(Atom::Int)
}

fn arb_int_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec(arb_atom_int(), 0..64)
        .prop_map(|v| Bat::from_tail(AtomType::Int, v).expect("homogeneous ints"))
}

fn arb_keyed_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec((0i64..20, -50i64..50), 0..64).prop_map(|pairs| {
        Bat::from_pairs(
            AtomType::Int,
            AtomType::Int,
            pairs.into_iter().map(|(k, v)| (Atom::Int(k), Atom::Int(v))),
        )
        .expect("homogeneous ints")
    })
}

proptest! {
    #[test]
    fn reverse_is_an_involution(b in arb_int_bat()) {
        prop_assert_eq!(b.reverse().reverse(), b);
    }

    #[test]
    fn mirror_head_equals_tail(b in arb_int_bat()) {
        let m = b.mirror();
        for i in 0..m.len() {
            prop_assert_eq!(m.head_at(i).unwrap(), m.tail_at(i).unwrap());
        }
    }

    #[test]
    fn slice_never_exceeds_bounds(b in arb_int_bat(), lo in 0usize..80, hi in 0usize..80) {
        let s = b.slice(lo, hi);
        prop_assert!(s.len() <= b.len());
        prop_assert!(s.len() <= hi.saturating_sub(lo));
    }

    #[test]
    fn select_range_returns_only_in_range(b in arb_keyed_bat(), lo in -50i64..50, hi in -50i64..50) {
        let s = ops::select_range(&b, &Atom::Int(lo), &Atom::Int(hi), &OpCtx::default()).unwrap();
        for (_, t) in s.iter() {
            let v = t.as_int().unwrap();
            prop_assert!(v >= lo && v <= hi);
        }
        // Completeness: every qualifying pair survives.
        let expected = b.iter().filter(|(_, t)| {
            let v = t.as_int().unwrap();
            v >= lo && v <= hi
        }).count();
        prop_assert_eq!(s.len(), expected);
    }

    #[test]
    fn semijoin_antijoin_partition_input(l in arb_keyed_bat(), r in arb_keyed_bat()) {
        let semi = ops::semijoin(&l, &r, &OpCtx::default()).unwrap();
        let anti = ops::antijoin(&l, &r, &OpCtx::default()).unwrap();
        prop_assert_eq!(semi.len() + anti.len(), l.len());
    }

    #[test]
    fn join_size_matches_key_multiplicity(l in arb_keyed_bat(), r in arb_keyed_bat()) {
        let j = ops::join(&l, &r, &OpCtx::default()).unwrap();
        let expected: usize = l.iter().map(|(_, t)| {
            r.iter().filter(|(h, _)| *h == t).count()
        }).sum();
        prop_assert_eq!(j.len(), expected);
    }

    #[test]
    fn sort_is_ordered_and_permutation(b in arb_int_bat()) {
        let s = ops::sort_by_tail(&b);
        prop_assert_eq!(s.len(), b.len());
        let tails: Vec<Atom> = s.tail().iter().collect();
        for w in tails.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut orig: Vec<Atom> = b.tail().iter().collect();
        let mut sorted = tails.clone();
        orig.sort();
        sorted.sort();
        prop_assert_eq!(orig, sorted);
    }

    #[test]
    fn histogram_counts_sum_to_len(b in arb_int_bat()) {
        let h = ops::histogram(&b);
        let total: i64 = h.tail().iter().map(|a| a.as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, b.len());
    }

    #[test]
    fn unique_has_no_duplicate_tails(b in arb_int_bat()) {
        let u = ops::unique_tail(&b);
        let mut seen = std::collections::HashSet::new();
        for (_, t) in u.iter() {
            prop_assert!(seen.insert(t));
        }
    }

    #[test]
    fn sum_matches_iterator_sum(b in arb_int_bat()) {
        prop_assume!(!b.is_empty());
        let s = ops::aggregate(&b, Aggregate::Sum).unwrap().as_int().unwrap();
        let expected: i64 = b.tail().iter().map(|a| a.as_int().unwrap()).sum();
        prop_assert_eq!(s, expected);
    }

    #[test]
    fn min_max_bound_every_element(b in arb_int_bat()) {
        prop_assume!(!b.is_empty());
        let mn = ops::aggregate(&b, Aggregate::Min).unwrap();
        let mx = ops::aggregate(&b, Aggregate::Max).unwrap();
        for (_, t) in b.iter() {
            prop_assert!(t >= mn && t <= mx);
        }
    }

    #[test]
    fn mil_arithmetic_matches_rust(a in -1000i64..1000, c in -1000i64..1000) {
        let k = Kernel::new();
        let v = k.eval_mil(&format!("RETURN ({a}) + ({c}) * 2;")).unwrap();
        prop_assert_eq!(v, MilValue::Atom(Atom::Int(a + c * 2)));
    }

    #[test]
    fn mil_bat_roundtrip_preserves_values(values in proptest::collection::vec(-100i64..100, 1..32)) {
        let k = Kernel::new();
        let inserts: String = values.iter().map(|v| format!("b.insert({v});")).collect();
        let script = format!("VAR b := new(void, int); {inserts} RETURN b.sum;");
        let v = k.eval_mil(&script).unwrap();
        let expected: i64 = values.iter().sum();
        prop_assert_eq!(v, MilValue::Atom(Atom::Int(expected)));
    }

    #[test]
    fn parallel_insert_count_is_deterministic(n in 1usize..12, threads in 1i64..8) {
        let k = Kernel::new();
        let stmts: String = (0..n).map(|i| format!("p.insert(\"m{i}\", {i}.0);")).collect();
        let script = format!(
            "threadcnt({threads}); VAR p := new(str, dbl); PARALLEL {{ {stmts} }} RETURN p.count;"
        );
        let v = k.eval_mil(&script).unwrap();
        prop_assert_eq!(v, MilValue::Atom(Atom::Int(n as i64)));
    }
}
