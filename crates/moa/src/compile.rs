//! Moa → MIL compilation and execution.
//!
//! "For each Moa operation, there is a program written using an interface
//! language understood by the physical layer. In our system, a Moa query
//! is rewritten into Monet Interface Language (MIL)" (§3). The compiler
//! below is that rewriter, including the logical optimization the paper
//! attributes to the extra level of data independence (selection
//! pushdown through joins).

use f1_monet::guard::ExecBudget;
use f1_monet::{Atom, Kernel, MilValue};

use crate::expr::{Aggregate, MoaExpr, Predicate};
use crate::Result;

/// Renders an atom as a MIL literal.
fn literal(atom: &Atom) -> String {
    match atom {
        Atom::Int(v) => format!("{v}"),
        Atom::Dbl(v) => {
            // Guarantee a decimal form so MIL lexes a dbl, not an int.
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Atom::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Atom::Bit(b) => {
            if *b {
                "(1 == 1)".to_string()
            } else {
                "(1 == 0)".to_string()
            }
        }
        Atom::Oid(o) => format!("{o}"),
    }
}

/// Logical optimization: pushes selections through joins and semijoins
/// (predicates apply to tail values, which a join takes from its right
/// input and a semijoin preserves from its left).
pub fn optimize(expr: MoaExpr) -> MoaExpr {
    match expr {
        MoaExpr::Select { input, pred } => {
            let input = optimize(*input);
            match input {
                MoaExpr::Join { left, right } => MoaExpr::Join {
                    left,
                    right: Box::new(optimize(MoaExpr::Select { input: right, pred })),
                },
                MoaExpr::Semijoin { left, right } => MoaExpr::Semijoin {
                    left: Box::new(optimize(MoaExpr::Select { input: left, pred })),
                    right,
                },
                other => MoaExpr::Select {
                    input: Box::new(other),
                    pred,
                },
            }
        }
        MoaExpr::Join { left, right } => MoaExpr::Join {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        MoaExpr::Semijoin { left, right } => MoaExpr::Semijoin {
            left: Box::new(optimize(*left)),
            right: Box::new(optimize(*right)),
        },
        MoaExpr::Mirror { input } => MoaExpr::Mirror {
            input: Box::new(optimize(*input)),
        },
        MoaExpr::Aggregate { input, kind } => MoaExpr::Aggregate {
            input: Box::new(optimize(*input)),
            kind,
        },
        MoaExpr::ExtensionCall { name, args } => MoaExpr::ExtensionCall {
            name,
            args: args.into_iter().map(optimize).collect(),
        },
        leaf => leaf,
    }
}

/// The fixed rewrite of a conjunction over aligned field collections:
/// select on the first term's field, then for every further term fetch
/// its field at the surviving oids — a positional join against a void
/// head, no index — and select on the fetched values.
pub(crate) fn fetch_chain(terms: &[(String, Predicate)]) -> MoaExpr {
    let mut terms = terms.iter();
    let Some((first, pred)) = terms.next() else {
        // Without a term there is no field to take the oids from:
        // planning stays total, evaluation reports the malformed plan.
        let message = Atom::str("conjunction without terms");
        return MoaExpr::call("error", vec![MoaExpr::Literal(message)]);
    };
    terms
        .fold(
            MoaExpr::collection(first).select(pred.clone()),
            |kept, (field, pred)| {
                kept.mirror()
                    .join(MoaExpr::collection(field))
                    .select(pred.clone())
            },
        )
        .mirror()
}

/// Compiles a logical expression into a MIL expression string. An
/// equality on parameter `k` compiles to a selection on `$k`.
pub fn compile(expr: &MoaExpr) -> String {
    compile_bound(expr, &[])
}

/// Like [`compile`], with parameter `k` spelled as the literal
/// `params[k]` (one beyond `params` stays `$k`): the runnable text of
/// one binding, for display.
pub(crate) fn compile_bound(expr: &MoaExpr, params: &[Atom]) -> String {
    let compile = |expr| compile_bound(expr, params);
    match expr {
        MoaExpr::Collection(name) => format!("bat(\"{name}\")"),
        MoaExpr::Literal(atom) => literal(atom),
        MoaExpr::Select { input, pred } => {
            let inner = compile(input);
            match pred {
                Predicate::Eq(a) => format!("({inner}).select({})", literal(a)),
                Predicate::EqParam(k) => match params.get(*k) {
                    Some(a) => format!("({inner}).select({})", literal(a)),
                    None => format!("({inner}).select(${k})"),
                },
                Predicate::Range(lo, hi) => {
                    format!("({inner}).select({}, {})", literal(lo), literal(hi))
                }
            }
        }
        MoaExpr::Join { left, right } => {
            format!("({}).join({})", compile(left), compile(right))
        }
        MoaExpr::Semijoin { left, right } => {
            format!("({}).semijoin({})", compile(left), compile(right))
        }
        MoaExpr::Mirror { input } => format!("({}).mirror", compile(input)),
        MoaExpr::Conjunction { terms } => compile(&fetch_chain(terms)),
        MoaExpr::Aggregate { input, kind } => {
            let method = match kind {
                Aggregate::Sum => "sum",
                Aggregate::Avg => "avg",
                Aggregate::Min => "min",
                Aggregate::Max => "max",
                Aggregate::Count => "count",
            };
            format!("({}).{method}", compile(input))
        }
        MoaExpr::ExtensionCall { name, args } => {
            let args: Vec<String> = args.iter().map(compile).collect();
            format!("{name}({})", args.join(", "))
        }
    }
}

/// Optimizes, compiles, and evaluates an expression on the kernel with
/// no execution limits.
pub fn execute(kernel: &Kernel, expr: MoaExpr) -> Result<MilValue> {
    execute_with(kernel, expr, &ExecBudget::unlimited())
}

/// Like [`execute`], but the compiled MIL program runs under `budget`,
/// so a misbehaving plan (or a wedged extension procedure loop) comes
/// back as a budget error instead of hanging the session.
pub fn execute_with(kernel: &Kernel, expr: MoaExpr, budget: &ExecBudget) -> Result<MilValue> {
    let metrics = kernel.metrics();
    metrics.registry().counter("moa.executions", &[]).inc();
    let start = std::time::Instant::now();
    let optimized = optimize(expr);
    let program = format!("RETURN {};", compile(&optimized));
    let out = kernel.eval_mil_guarded(&program, budget);
    metrics
        .registry()
        .histogram("moa.execute_ns", &[])
        .record(start.elapsed().as_nanos() as u64);
    Ok(out?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_monet::prelude::*;

    fn kernel() -> Kernel {
        let k = Kernel::new();
        // positions: oid -> lap position, drivers: position -> name
        k.set_bat(
            "points",
            Bat::from_tail(AtomType::Int, [10, 8, 6, 8].map(Atom::Int)).unwrap(),
        );
        k.set_bat(
            "names",
            Bat::from_pairs(
                AtomType::Int,
                AtomType::Str,
                [
                    (Atom::Int(10), Atom::str("schumacher")),
                    (Atom::Int(8), Atom::str("hakkinen")),
                    (Atom::Int(6), Atom::str("montoya")),
                ],
            )
            .unwrap(),
        );
        k
    }

    #[test]
    fn literals_render_as_valid_mil() {
        assert_eq!(literal(&Atom::Int(-3)), "-3");
        assert_eq!(literal(&Atom::Dbl(2.0)), "2.0");
        assert_eq!(literal(&Atom::Dbl(0.25)), "0.25");
        assert_eq!(literal(&Atom::str("pit \"x\"")), "\"pit \\\"x\\\"\"");
    }

    #[test]
    fn compile_renders_pipeline() {
        let e = MoaExpr::collection("points")
            .select(Predicate::Range(Atom::Int(7), Atom::Int(10)))
            .aggregate(Aggregate::Count);
        assert_eq!(compile(&e), "((bat(\"points\")).select(7, 10)).count");
    }

    #[test]
    fn execute_runs_on_the_kernel() {
        let k = kernel();
        let e = MoaExpr::collection("points")
            .select(Predicate::Eq(Atom::Int(8)))
            .aggregate(Aggregate::Count);
        assert_eq!(execute(&k, e).unwrap(), MilValue::Atom(Atom::Int(2)));
        let e = MoaExpr::collection("points").aggregate(Aggregate::Avg);
        assert_eq!(execute(&k, e).unwrap(), MilValue::Atom(Atom::Dbl(8.0)));
    }

    #[test]
    fn join_executes_and_selection_pushes_down() {
        let k = kernel();
        // join points (oid -> pts) with names (pts -> name), then select…
        // selection on the join's tail (names) cannot be expressed as a
        // tail predicate pre-join on points, so push into the right side.
        let e = MoaExpr::collection("points")
            .join(MoaExpr::collection("names"))
            .select(Predicate::Eq(Atom::str("hakkinen")));
        let optimized = optimize(e.clone());
        match &optimized {
            MoaExpr::Join { right, .. } => {
                assert!(matches!(**right, MoaExpr::Select { .. }), "{optimized:?}");
            }
            other => panic!("expected join at top, got {other:?}"),
        }
        // Semantics preserved: both versions count 2 hakkinen rows.
        let direct = execute(&k, e.aggregate(Aggregate::Count)).unwrap();
        let pushed = execute(&k, optimized.aggregate(Aggregate::Count)).unwrap();
        assert_eq!(direct, MilValue::Atom(Atom::Int(2)));
        assert_eq!(direct, pushed);
    }

    #[test]
    fn semijoin_pushdown_goes_left() {
        let e = MoaExpr::collection("a")
            .semijoin(MoaExpr::collection("b"))
            .select(Predicate::Eq(Atom::Int(1)));
        match optimize(e) {
            MoaExpr::Semijoin { left, .. } => {
                assert!(matches!(*left, MoaExpr::Select { .. }));
            }
            other => panic!("expected semijoin, got {other:?}"),
        }
    }

    #[test]
    fn unknown_collection_surfaces_physical_error() {
        let k = Kernel::new();
        let e = MoaExpr::collection("ghost").aggregate(Aggregate::Count);
        assert!(matches!(execute(&k, e), Err(crate::MoaError::Physical(_))));
    }

    #[test]
    fn execute_with_budget_bounds_plan_evaluation() {
        let k = kernel();
        let e = MoaExpr::collection("points").aggregate(Aggregate::Count);
        // A generous budget leaves results unchanged…
        let budget = f1_monet::guard::ExecBudget::unlimited().with_fuel(1_000);
        assert_eq!(
            execute_with(&k, e.clone(), &budget).unwrap(),
            MilValue::Atom(Atom::Int(4))
        );
        // …while a starved one surfaces as a physical-layer error.
        let starved = f1_monet::guard::ExecBudget::unlimited().with_fuel(1);
        assert!(matches!(
            execute_with(&k, e, &starved),
            Err(crate::MoaError::Physical(
                MonetError::BudgetExhausted { .. }
            ))
        ));
    }

    #[test]
    fn a_parameter_compiles_to_its_slot_or_its_binding() {
        let e = MoaExpr::conjunction(vec![
            ("k".into(), Predicate::Eq(Atom::str("highlight"))),
            ("d".into(), Predicate::EqParam(0)),
        ]);
        let slot =
            "(((((bat(\"k\")).select(\"highlight\")).mirror).join(bat(\"d\"))).select($0)).mirror";
        assert_eq!(compile(&e), slot);
        assert_eq!(compile_bound(&e, &[]), slot);
        assert_eq!(
            compile_bound(&e, &[Atom::str("a\"b")]),
            slot.replace("$0", "\"a\\\"b\"")
        );
    }

    #[test]
    fn extension_call_compiles_to_bare_procedure() {
        let e = MoaExpr::call(
            "hmmClassify",
            vec![MoaExpr::collection("obs"), MoaExpr::Literal(Atom::Int(4))],
        );
        assert_eq!(compile(&e), "hmmClassify(bat(\"obs\"), 4)");
    }
}
