//! Differential tests: every plan the cost-based planner chooses must be
//! *result-identical* to the fixed-rewrite plan, on random BATs and
//! random query shapes — select stacks, left- and right-deep join
//! chains, semijoins, aggregates — and independent of the `threadcnt`
//! the planner (or the caller) picks. The planner scores term orders of
//! a conjunction only, and none of these shapes is one: each is planned
//! as its fixed rewrite, written association kept, so what varies here
//! is thread sizing. A divergence is a bug in the rewrite, the compiler
//! or the morsel executor. Conjunction orders have their own proptest,
//! `every_conjunction_variant_selects_the_same_rows` in `plan.rs`.

use f1_moa::{compile, optimize, plan, Aggregate, MoaExpr, PlannerConfig, Predicate};
use f1_monet::prelude::*;
use f1_monet::PlanStats;
use proptest::prelude::*;

/// Keyed int BATs whose heads and tails share the 0..16 key space, so
/// join chains actually match rows.
fn bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec((0i64..16, 0i64..16), 0..40).prop_map(|pairs| {
        Bat::from_pairs(
            AtomType::Int,
            AtomType::Int,
            pairs.into_iter().map(|(k, v)| (Atom::Int(k), Atom::Int(v))),
        )
        .expect("homogeneous ints")
    })
}

fn pred() -> impl Strategy<Value = Predicate> {
    (0usize..2, -2i64..18, 0i64..20).prop_map(|(kind, lo, width)| {
        if kind == 0 {
            Predicate::Eq(Atom::Int(lo))
        } else {
            Predicate::Range(Atom::Int(lo), Atom::Int(lo + width))
        }
    })
}

fn stack(base: MoaExpr, preds: Vec<Predicate>) -> MoaExpr {
    preds.into_iter().fold(base, |e, p| e.select(p))
}

/// Random query shapes over the registered collections: leaves are
/// collections wrapped in 0..3 selections, combined into join chains
/// (both associations, each planned as written), semijoins and
/// aggregates, with optional outer selections on top.
fn expr() -> impl Strategy<Value = MoaExpr> {
    (
        0usize..7,
        (
            proptest::collection::vec(pred(), 0..3),
            proptest::collection::vec(pred(), 0..3),
            proptest::collection::vec(pred(), 0..3),
        ),
        proptest::collection::vec(pred(), 0..2),
        0usize..2,
    )
        .prop_map(|(shape, (pa, pb, pc), outer, agg)| {
            let a = stack(MoaExpr::collection("a"), pa);
            let b = stack(MoaExpr::collection("b"), pb);
            let c = stack(MoaExpr::collection("c"), pc);
            let kind = if agg == 0 {
                Aggregate::Count
            } else {
                Aggregate::Sum
            };
            match shape {
                0 => a,
                1 => stack(a.join(b), outer),
                2 => stack(a.join(b).join(c), outer),
                3 => a.join(b.join(c)),
                4 => a.semijoin(b),
                5 => a.join(b).aggregate(kind),
                _ => a.aggregate(kind),
            }
        })
}

/// Statistics warm enough to make the coster actually move things:
/// real sketches from the kernel plus fabricated op costs and a
/// measured parallel win.
fn warm_stats(kernel: &Kernel) -> PlanStats {
    let mut stats = kernel.plan_stats(&["a", "b", "c"]);
    stats.op_ns_per_row.insert("join".into(), 25.0);
    stats.op_ns_per_row.insert("semijoin".into(), 18.0);
    stats.op_ns_per_row.insert("select".into(), 1.5);
    stats.seq_ns_per_row = Some(2.0);
    stats.par_ns_per_row = Some(1.0);
    stats
}

fn eval(kernel: &Kernel, program: &str) -> std::result::Result<MilValue, String> {
    kernel.eval_mil(program).map_err(|e| e.to_string())
}

proptest! {
    /// The planner's chosen plan returns byte-identical results to the
    /// fixed rewrite, under cold and warm statistics alike, and at
    /// every thread count.
    #[test]
    fn chosen_plans_match_fixed_rewrite_results(
        a in bat(),
        b in bat(),
        c in bat(),
        e in expr(),
        warm in 0usize..2,
    ) {
        let kernel = Kernel::new();
        kernel.register_bat("a", a).expect("register a");
        kernel.register_bat("b", b).expect("register b");
        kernel.register_bat("c", c).expect("register c");
        let stats = if warm == 1 { warm_stats(&kernel) } else { PlanStats::default() };
        let choice = plan(e.clone(), &stats, &PlannerConfig::default());

        let baseline = eval(&kernel, &format!("RETURN {};", compile(&optimize(e))));
        let chosen = eval(
            &kernel,
            &format!("{}RETURN {};", choice.mil_prefix(), choice.mil()),
        );
        prop_assert_eq!(&baseline, &chosen, "plan: {}", choice.rationale);

        // Byte-identical under threadcnt variance, whatever the planner
        // decided: morsel results concatenate in range order.
        for t in [1usize, 2, 4] {
            let forced = eval(
                &kernel,
                &format!("threadcnt({t}); RETURN {};", choice.mil()),
            );
            prop_assert_eq!(&baseline, &forced, "threadcnt({}): {}", t, choice.rationale);
        }
    }

    /// Planning is deterministic: the same expression and statistics
    /// always produce the same chosen plan and thread count.
    #[test]
    fn planning_is_deterministic(e in expr(), warm in 0usize..2) {
        let kernel = Kernel::new();
        for name in ["a", "b", "c"] {
            let mut b = Bat::new(AtomType::Int, AtomType::Int);
            for i in 0..8 {
                b.append(Atom::Int(i), Atom::Int(i % 4)).expect("append");
            }
            kernel.register_bat(name, b).expect("register");
        }
        let stats = if warm == 1 { warm_stats(&kernel) } else { PlanStats::default() };
        let first = plan(e.clone(), &stats, &PlannerConfig::default());
        let second = plan(e, &stats, &PlannerConfig::default());
        prop_assert_eq!(first.chosen, second.chosen);
        prop_assert_eq!(first.threads, second.threads);
        prop_assert_eq!(first.chosen_cost, second.chosen_cost);
    }
}
