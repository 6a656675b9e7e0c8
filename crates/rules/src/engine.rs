//! The forward-chaining rule engine.
//!
//! A rule matches a conjunction of fact patterns (with shared variables),
//! checks Allen-relation constraints between the matched facts' intervals
//! — the "spatio-temporal reasoning" of the paper's rule extension — and
//! produces a new fact. Evaluation runs to a fixpoint, so compound events
//! can build on other compound events.

use std::collections::{HashMap, HashSet};

use crate::fact::{Fact, Value};
use crate::interval::{relation, AllenRelation, Interval};
use crate::{Result, RuleError};

/// A term in a condition or production: variable or constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, bound on first match.
    Var(String),
    /// A constant that must match exactly.
    Const(Value),
}

impl Term {
    /// Variable constructor.
    pub fn var(name: &str) -> Self {
        Term::Var(name.to_string())
    }
}

/// One fact pattern in a rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Predicate to match.
    pub predicate: String,
    /// Argument patterns (arity must match the fact's).
    pub args: Vec<Term>,
}

impl Condition {
    /// Creates a condition.
    pub fn new(predicate: &str, args: Vec<Term>) -> Self {
        Condition {
            predicate: predicate.to_string(),
            args,
        }
    }
}

/// An Allen-relation constraint between two matched conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalConstraint {
    /// Index of the left condition.
    pub a: usize,
    /// Index of the right condition.
    pub b: usize,
    /// Accepted relations (`interval(a) REL interval(b)`).
    pub relations: Vec<AllenRelation>,
}

/// How the produced fact's interval derives from the match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalSpec {
    /// Hull over every matched condition's interval.
    Hull,
    /// The interval of one matched condition.
    Of(usize),
}

/// A compound-event rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (for diagnostics).
    pub name: String,
    /// Body: all conditions must match.
    pub conditions: Vec<Condition>,
    /// Temporal constraints between matched conditions.
    pub temporal: Vec<TemporalConstraint>,
    /// Head predicate.
    pub head: String,
    /// Head arguments (variables must be bound by the body).
    pub head_args: Vec<Term>,
    /// Head interval derivation.
    pub interval: IntervalSpec,
}

/// The forward-chaining engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    rules: Vec<Rule>,
}

type Bindings = HashMap<String, Value>;

impl Engine {
    /// An engine with no rules.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Adds a rule, validating its head variables and temporal indices.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        let bound: HashSet<&String> = rule
            .conditions
            .iter()
            .flat_map(|c| c.args.iter())
            .filter_map(|t| match t {
                Term::Var(v) => Some(v),
                Term::Const(_) => None,
            })
            .collect();
        for t in &rule.head_args {
            if let Term::Var(v) = t {
                if !bound.contains(v) {
                    return Err(RuleError::UnboundVariable(v.clone()));
                }
            }
        }
        for tc in &rule.temporal {
            if tc.a >= rule.conditions.len() || tc.b >= rule.conditions.len() {
                return Err(RuleError::BadConditionIndex(tc.a.max(tc.b)));
            }
        }
        if let IntervalSpec::Of(i) = rule.interval {
            if i >= rule.conditions.len() {
                return Err(RuleError::BadConditionIndex(i));
            }
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Forward-chains the rules over `facts` until no new facts derive.
    /// Returns the full fact set (input plus derived).
    pub fn run(&self, facts: Vec<Fact>) -> Result<Vec<Fact>> {
        let mut all: Vec<Fact> = Vec::new();
        let mut seen: HashSet<Fact> = HashSet::new();
        for f in facts {
            if seen.insert(f.clone()) {
                all.push(f);
            }
        }
        const MAX_ROUNDS: usize = 64;
        for _ in 0..MAX_ROUNDS {
            let mut derived = Vec::new();
            for rule in &self.rules {
                self.match_rule(rule, &all, &mut derived);
            }
            let mut grew = false;
            for f in derived {
                if seen.insert(f.clone()) {
                    all.push(f);
                    grew = true;
                }
            }
            if !grew {
                return Ok(all);
            }
        }
        Err(RuleError::NoFixpoint)
    }

    fn match_rule(&self, rule: &Rule, facts: &[Fact], out: &mut Vec<Fact>) {
        let mut chosen: Vec<usize> = Vec::with_capacity(rule.conditions.len());
        let mut bindings: Bindings = HashMap::new();
        self.match_conditions(rule, facts, 0, &mut chosen, &mut bindings, out);
    }

    fn match_conditions(
        &self,
        rule: &Rule,
        facts: &[Fact],
        depth: usize,
        chosen: &mut Vec<usize>,
        bindings: &mut Bindings,
        out: &mut Vec<Fact>,
    ) {
        if depth == rule.conditions.len() {
            // Check temporal constraints.
            for tc in &rule.temporal {
                let ia = facts[chosen[tc.a]].interval;
                let ib = facts[chosen[tc.b]].interval;
                if ia.is_empty() || ib.is_empty() {
                    return;
                }
                if !tc.relations.contains(&relation(&ia, &ib)) {
                    return;
                }
            }
            // Produce.
            let args: Vec<Value> = rule
                .head_args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(v) => bindings[v].clone(),
                })
                .collect();
            let interval = match rule.interval {
                IntervalSpec::Of(i) => facts[chosen[i]].interval,
                IntervalSpec::Hull => {
                    let mut hull: Option<Interval> = None;
                    for &i in chosen.iter() {
                        let iv = facts[i].interval;
                        hull = Some(match hull {
                            Some(h) => h.hull(&iv),
                            None => iv,
                        });
                    }
                    hull.expect("rules have at least one condition")
                }
            };
            out.push(Fact::new(&rule.head, args, interval));
            return;
        }
        let cond = &rule.conditions[depth];
        for (fi, fact) in facts.iter().enumerate() {
            if fact.predicate != cond.predicate || fact.args.len() != cond.args.len() {
                continue;
            }
            // Try binding.
            let mut new_binds: Vec<String> = Vec::new();
            let mut ok = true;
            for (t, v) in cond.args.iter().zip(&fact.args) {
                match t {
                    Term::Const(c) => {
                        if c != v {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(name) => match bindings.get(name) {
                        Some(bound) => {
                            if bound != v {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            bindings.insert(name.clone(), v.clone());
                            new_binds.push(name.clone());
                        }
                    },
                }
            }
            if ok {
                chosen.push(fi);
                self.match_conditions(rule, facts, depth + 1, chosen, bindings, out);
                chosen.pop();
            }
            for name in new_binds {
                bindings.remove(&name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AllenRelation::*;

    fn iv(s: usize, e: usize) -> Interval {
        Interval::new(s, e)
    }

    /// The paper's running example: "retrieve all highlights at the pit
    /// line involving <driver>" becomes a rule joining a highlight with an
    /// overlapping pit-stop caption of the same driver.
    fn pit_highlight_rule() -> Rule {
        Rule {
            name: "pit_highlight".into(),
            conditions: vec![
                Condition::new("highlight", vec![]),
                Condition::new("pit_stop", vec![Term::var("driver")]),
            ],
            temporal: vec![TemporalConstraint {
                a: 0,
                b: 1,
                relations: vec![
                    Overlaps,
                    OverlappedBy,
                    During,
                    Contains,
                    Starts,
                    StartedBy,
                    Finishes,
                    FinishedBy,
                    Equal,
                ],
            }],
            head: "pit_highlight".into(),
            head_args: vec![Term::var("driver")],
            interval: IntervalSpec::Hull,
        }
    }

    #[test]
    fn joins_facts_with_temporal_overlap() {
        let mut engine = Engine::new();
        engine.add_rule(pit_highlight_rule()).unwrap();
        let facts = vec![
            Fact::new("highlight", vec![], iv(100, 160)),
            Fact::new("pit_stop", vec![Value::str("HAKKINEN")], iv(150, 200)),
            Fact::new("pit_stop", vec![Value::str("TRULLI")], iv(400, 440)), // no overlap
        ];
        let all = engine.run(facts).unwrap();
        let derived: Vec<&Fact> = all
            .iter()
            .filter(|f| f.predicate == "pit_highlight")
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].args, vec![Value::str("HAKKINEN")]);
        assert_eq!(derived[0].interval, iv(100, 200)); // hull
    }

    #[test]
    fn variable_join_requires_consistent_binding() {
        // leader(d) ∧ pit_stop(d) with same driver variable.
        let mut engine = Engine::new();
        engine
            .add_rule(Rule {
                name: "leader_pits".into(),
                conditions: vec![
                    Condition::new("leader", vec![Term::var("d")]),
                    Condition::new("pit_stop", vec![Term::var("d")]),
                ],
                temporal: vec![],
                head: "leader_pits".into(),
                head_args: vec![Term::var("d")],
                interval: IntervalSpec::Of(1),
            })
            .unwrap();
        let facts = vec![
            Fact::new("leader", vec![Value::str("SCHUMACHER")], iv(0, 1000)),
            Fact::new("pit_stop", vec![Value::str("SCHUMACHER")], iv(300, 350)),
            Fact::new("pit_stop", vec![Value::str("HAKKINEN")], iv(400, 450)),
        ];
        let all = engine.run(facts).unwrap();
        let derived: Vec<&Fact> = all
            .iter()
            .filter(|f| f.predicate == "leader_pits")
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].args, vec![Value::str("SCHUMACHER")]);
        assert_eq!(derived[0].interval, iv(300, 350)); // Of(1)
    }

    #[test]
    fn chained_rules_reach_fixpoint() {
        // a -> b, b -> c: two rounds of chaining.
        let mut engine = Engine::new();
        for (from, to) in [("a", "b"), ("b", "c")] {
            engine
                .add_rule(Rule {
                    name: format!("{from}_to_{to}"),
                    conditions: vec![Condition::new(from, vec![Term::var("x")])],
                    temporal: vec![],
                    head: to.into(),
                    head_args: vec![Term::var("x")],
                    interval: IntervalSpec::Of(0),
                })
                .unwrap();
        }
        let all = engine
            .run(vec![Fact::new("a", vec![Value::Int(1)], iv(0, 10))])
            .unwrap();
        assert!(all.iter().any(|f| f.predicate == "b"));
        assert!(all.iter().any(|f| f.predicate == "c"));
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn temporal_sequence_constraint() {
        // fly_out BEFORE replay within the rule set of accepted relations.
        let mut engine = Engine::new();
        engine
            .add_rule(Rule {
                name: "replayed_fly_out".into(),
                conditions: vec![
                    Condition::new("fly_out", vec![Term::var("d")]),
                    Condition::new("replay", vec![]),
                ],
                temporal: vec![TemporalConstraint {
                    a: 0,
                    b: 1,
                    relations: vec![Before, Meets],
                }],
                head: "replayed_fly_out".into(),
                head_args: vec![Term::var("d")],
                interval: IntervalSpec::Hull,
            })
            .unwrap();
        let facts = vec![
            Fact::new("fly_out", vec![Value::str("VILLENEUVE")], iv(100, 150)),
            Fact::new("replay", vec![], iv(180, 230)),
            Fact::new("replay", vec![], iv(90, 120)), // overlaps: rejected
        ];
        let all = engine.run(facts).unwrap();
        let derived: Vec<&Fact> = all
            .iter()
            .filter(|f| f.predicate == "replayed_fly_out")
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].interval, iv(100, 230));
    }

    #[test]
    fn validation_rejects_malformed_rules() {
        let mut engine = Engine::new();
        // Unbound head variable.
        assert_eq!(
            engine.add_rule(Rule {
                name: "bad".into(),
                conditions: vec![Condition::new("a", vec![])],
                temporal: vec![],
                head: "b".into(),
                head_args: vec![Term::var("ghost")],
                interval: IntervalSpec::Hull,
            }),
            Err(RuleError::UnboundVariable("ghost".into()))
        );
        // Temporal index out of range.
        assert!(matches!(
            engine.add_rule(Rule {
                name: "bad2".into(),
                conditions: vec![Condition::new("a", vec![])],
                temporal: vec![TemporalConstraint {
                    a: 0,
                    b: 3,
                    relations: vec![Before]
                }],
                head: "b".into(),
                head_args: vec![],
                interval: IntervalSpec::Hull,
            }),
            Err(RuleError::BadConditionIndex(3))
        ));
        // Interval index out of range.
        assert!(matches!(
            engine.add_rule(Rule {
                name: "bad3".into(),
                conditions: vec![Condition::new("a", vec![])],
                temporal: vec![],
                head: "b".into(),
                head_args: vec![],
                interval: IntervalSpec::Of(5),
            }),
            Err(RuleError::BadConditionIndex(5))
        ));
        assert!(engine.is_empty());
    }

    #[test]
    fn derived_facts_are_deduplicated() {
        let mut engine = Engine::new();
        engine
            .add_rule(Rule {
                name: "dup".into(),
                conditions: vec![Condition::new("a", vec![])],
                temporal: vec![],
                head: "b".into(),
                head_args: vec![],
                interval: IntervalSpec::Of(0),
            })
            .unwrap();
        let all = engine
            .run(vec![
                Fact::new("a", vec![], iv(0, 5)),
                Fact::new("a", vec![], iv(0, 5)), // duplicate input
            ])
            .unwrap();
        assert_eq!(all.len(), 2); // one a, one b
    }
}
