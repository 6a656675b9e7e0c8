//! Facts: event-layer entities with a validity interval.

use std::fmt;

use crate::interval::Interval;

/// An attribute value of a fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A string (driver names, caption classes, …).
    Str(String),
    /// An integer (positions, laps, …).
    Int(i64),
}

impl Value {
    /// String constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(s.as_ref().to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// A fact: `predicate(args…) @ interval`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fact {
    /// Predicate name ("highlight", "pit_stop", …).
    pub predicate: String,
    /// Arguments in positional order.
    pub args: Vec<Value>,
    /// Validity interval on the clip grid.
    pub interval: Interval,
}

impl Fact {
    /// Creates a fact.
    pub fn new(predicate: &str, args: Vec<Value>, interval: Interval) -> Self {
        Fact {
            predicate: predicate.to_string(),
            args,
            interval,
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")@[{}, {})", self.interval.start, self.interval.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_facts() {
        let f = Fact::new(
            "pit_stop",
            vec![Value::str("SCHUMACHER"), Value::Int(2)],
            Interval::new(100, 160),
        );
        assert_eq!(f.to_string(), "pit_stop(SCHUMACHER, 2)@[100, 160)");
    }

    #[test]
    fn values_convert_and_compare() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_ne!(Value::str("3"), Value::Int(3));
    }
}
