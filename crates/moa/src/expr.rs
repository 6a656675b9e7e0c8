//! Logical algebra expressions.

use f1_monet::Atom;

/// Selection predicates on a collection's tail values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Predicate {
    /// Tail equals the atom.
    Eq(Atom),
    /// Tail within the inclusive range.
    Range(Atom, Atom),
}

/// Aggregate kinds at the logical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Aggregate {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Element count.
    Count,
}

/// A Moa logical expression over named collections.
///
/// Extension calls are the paper's mechanism for surfacing the
/// video-processing / HMM / DBN / rule extensions inside the algebra —
/// they compile to the MEL procedures the kernel's modules register.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MoaExpr {
    /// A base collection (a catalog BAT).
    Collection(String),
    /// A literal atom argument (for extension calls).
    Literal(Atom),
    /// Selection by tail predicate.
    Select {
        /// Input expression.
        input: Box<MoaExpr>,
        /// Predicate on tail values.
        pred: Predicate,
    },
    /// Positional join: `left.tail = right.head`.
    Join {
        /// Left input.
        left: Box<MoaExpr>,
        /// Right input.
        right: Box<MoaExpr>,
    },
    /// Semijoin: left rows whose head occurs among right heads.
    Semijoin {
        /// Left input.
        left: Box<MoaExpr>,
        /// Right input.
        right: Box<MoaExpr>,
    },
    /// Mirror: every head paired with itself, which turns the heads a
    /// selection kept into the probe side of a positional join.
    Mirror {
        /// Input expression.
        input: Box<MoaExpr>,
    },
    /// Conjunctive selection over the fields of one tuple set. Moa
    /// stores a `SET<TUPLE<…>>` as one void-headed BAT per field, all
    /// aligned on the same dense oids; every term names a field's
    /// collection and a predicate on its values. The result pairs each
    /// oid at which *all* terms hold with itself, in oid order.
    Conjunction {
        /// `(field collection, predicate)` terms, in written order.
        terms: Vec<(String, Predicate)>,
    },
    /// Aggregation to a scalar.
    Aggregate {
        /// Input expression.
        input: Box<MoaExpr>,
        /// Aggregate kind.
        kind: Aggregate,
    },
    /// A call into an extension procedure (MEL module).
    ExtensionCall {
        /// Procedure name (e.g. `hmmClassify`, `dbnInfer`).
        name: String,
        /// Arguments (collections, literals or sub-expressions).
        args: Vec<MoaExpr>,
    },
}

impl MoaExpr {
    /// A base collection reference.
    pub fn collection(name: &str) -> Self {
        MoaExpr::Collection(name.to_string())
    }

    /// Selection builder.
    pub fn select(self, pred: Predicate) -> Self {
        MoaExpr::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// Join builder.
    pub fn join(self, right: MoaExpr) -> Self {
        MoaExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Semijoin builder.
    pub fn semijoin(self, right: MoaExpr) -> Self {
        MoaExpr::Semijoin {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Mirror builder.
    pub fn mirror(self) -> Self {
        MoaExpr::Mirror {
            input: Box::new(self),
        }
    }

    /// Conjunctive selection over the aligned field collections of one
    /// tuple set.
    pub fn conjunction(terms: Vec<(String, Predicate)>) -> Self {
        MoaExpr::Conjunction { terms }
    }

    /// Aggregate builder.
    pub fn aggregate(self, kind: Aggregate) -> Self {
        MoaExpr::Aggregate {
            input: Box::new(self),
            kind,
        }
    }

    /// Extension-call builder.
    pub fn call(name: &str, args: Vec<MoaExpr>) -> Self {
        MoaExpr::ExtensionCall {
            name: name.to_string(),
            args,
        }
    }

    /// Collections referenced by the expression.
    pub fn collections(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            MoaExpr::Collection(name) => out.push(name.as_str()),
            MoaExpr::Conjunction { terms } => out.extend(terms.iter().map(|(c, _)| c.as_str())),
            _ => {}
        });
        out
    }

    /// The collection whose tail flows to this expression's output tail
    /// (selection predicates apply to tail values, so that collection's
    /// sketch drives their selectivity).
    pub fn tail_origin(&self) -> Option<&str> {
        match self {
            MoaExpr::Collection(name) => Some(name),
            MoaExpr::Select { input, .. } => input.tail_origin(),
            MoaExpr::Join { right, .. } => right.tail_origin(),
            MoaExpr::Semijoin { left, .. } => left.tail_origin(),
            _ => None,
        }
    }

    /// The same plan with every equality selection on `collection`'s
    /// values comparing against `atom` instead. This is how a plan
    /// chosen for one literal serves the next: the coster estimates an
    /// equality by the column's distinct count, never by the literal,
    /// so the choice does not depend on it.
    pub fn with_eq_literal(&self, collection: &str, atom: &Atom) -> MoaExpr {
        let mut bound = self.clone();
        bound.rebind_eq(collection, atom);
        bound
    }

    fn rebind_eq(&mut self, collection: &str, atom: &Atom) {
        let rebind = |pred: &mut Predicate| {
            if let Predicate::Eq(literal) = pred {
                *literal = atom.clone();
            }
        };
        match self {
            MoaExpr::Collection(_) | MoaExpr::Literal(_) => {}
            MoaExpr::Select { input, pred } => {
                if input.tail_origin() == Some(collection) {
                    rebind(pred);
                }
                input.rebind_eq(collection, atom);
            }
            MoaExpr::Mirror { input } | MoaExpr::Aggregate { input, .. } => {
                input.rebind_eq(collection, atom);
            }
            MoaExpr::Join { left, right } | MoaExpr::Semijoin { left, right } => {
                left.rebind_eq(collection, atom);
                right.rebind_eq(collection, atom);
            }
            MoaExpr::Conjunction { terms } => {
                for (_, pred) in terms.iter_mut().filter(|(field, _)| field == collection) {
                    rebind(pred);
                }
            }
            MoaExpr::ExtensionCall { args, .. } => {
                for arg in args {
                    arg.rebind_eq(collection, atom);
                }
            }
        }
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a MoaExpr)) {
        f(self);
        match self {
            MoaExpr::Collection(_) | MoaExpr::Literal(_) | MoaExpr::Conjunction { .. } => {}
            MoaExpr::Select { input, .. }
            | MoaExpr::Aggregate { input, .. }
            | MoaExpr::Mirror { input } => {
                input.walk(f);
            }
            MoaExpr::Join { left, right } | MoaExpr::Semijoin { left, right } => {
                left.walk(f);
                right.walk(f);
            }
            MoaExpr::ExtensionCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = MoaExpr::collection("positions")
            .select(Predicate::Eq(Atom::Int(1)))
            .join(MoaExpr::collection("drivers"))
            .aggregate(Aggregate::Count);
        match &e {
            MoaExpr::Aggregate { kind, .. } => assert_eq!(*kind, Aggregate::Count),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.collections(), vec!["positions", "drivers"]);
    }

    #[test]
    fn rebinding_a_literal_touches_only_that_collections_equalities() {
        let on_driver = |d: &str| {
            MoaExpr::collection("ev.driver")
                .select(Predicate::Eq(Atom::str(d)))
                .mirror()
                .join(MoaExpr::collection("ev.kind"))
                .select(Predicate::Eq(Atom::str("highlight")))
        };
        assert_eq!(
            on_driver("A").with_eq_literal("ev.driver", &Atom::str("B")),
            on_driver("B")
        );
        let conj = |d: &str| {
            MoaExpr::conjunction(vec![
                ("ev.kind".into(), Predicate::Eq(Atom::str("highlight"))),
                (
                    "ev.start".into(),
                    Predicate::Range(Atom::Int(0), Atom::Int(9)),
                ),
                ("ev.driver".into(), Predicate::Eq(Atom::str(d))),
            ])
        };
        assert_eq!(
            conj("A").with_eq_literal("ev.driver", &Atom::str("B")),
            conj("B")
        );
        assert_eq!(
            conj("A").collections(),
            vec!["ev.kind", "ev.start", "ev.driver"]
        );
    }

    #[test]
    fn extension_calls_carry_args() {
        let e = MoaExpr::call(
            "hmmClassify",
            vec![MoaExpr::collection("obs"), MoaExpr::Literal(Atom::Int(4))],
        );
        assert_eq!(e.collections(), vec!["obs"]);
    }
}
