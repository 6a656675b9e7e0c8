//! # f1-rules — the rule-based extension
//!
//! The Cobra system's rule-based extension "is implemented within the
//! query engine. It is aimed at formalizing the descriptions of high-level
//! concepts, as well as their extraction based on features and
//! spatio-temporal reasoning" (§3). The paper's UI also lets a user
//! "define new compound events by specifying different temporal
//! relationships among already defined events" (§5.6).
//!
//! This crate provides both pieces:
//!
//! * [`interval`] — Allen's interval algebra over clip spans (the thirteen
//!   basic relations and coarse groupings useful in queries),
//! * [`fact`] — typed facts with a validity interval (event-layer
//!   entities),
//! * [`engine`] — rule definitions with variable binding, attribute
//!   predicates and temporal constraints, evaluated by forward chaining
//!   to a fixpoint; derived facts are the user's compound events.

pub mod engine;
pub mod fact;
pub mod interval;

pub use engine::{Condition, Engine, IntervalSpec, Rule, TemporalConstraint, Term};
pub use fact::{Fact, Value};
pub use interval::{relation, AllenRelation, Interval};

/// Errors raised by the rule engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// A rule references an unbound variable in its production.
    UnboundVariable(String),
    /// A temporal constraint references a condition index out of range.
    BadConditionIndex(usize),
    /// Iteration limit reached before the fixpoint (runaway rule set).
    NoFixpoint,
    /// An interval read from data ends before it starts
    /// ([`Interval::try_new`]).
    EndBeforeStart {
        /// First clip.
        start: usize,
        /// One past the last clip.
        end: usize,
    },
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::UnboundVariable(v) => write!(f, "unbound variable '?{v}' in production"),
            RuleError::BadConditionIndex(i) => {
                write!(f, "temporal constraint on condition {i} out of range")
            }
            RuleError::NoFixpoint => write!(f, "rule evaluation did not reach a fixpoint"),
            RuleError::EndBeforeStart { start, end } => {
                write!(f, "interval [{start}, {end}) ends before it starts")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RuleError>;
