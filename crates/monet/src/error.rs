//! Error type shared by every kernel component.

use std::fmt;

/// Result alias used throughout the kernel.
pub type Result<T> = std::result::Result<T, MonetError>;

/// Errors raised by the BAT kernel, the relational operators and the MIL
/// interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum MonetError {
    /// An operation received an atom of the wrong type.
    TypeMismatch {
        /// What the operation required.
        expected: String,
        /// What it actually got.
        found: String,
    },
    /// A named BAT, variable, procedure or module does not exist.
    NotFound(String),
    /// A name is already taken in the catalog.
    AlreadyExists(String),
    /// A positional access was out of range.
    OutOfRange {
        /// Requested position.
        index: usize,
        /// Length of the addressed container.
        len: usize,
    },
    /// The MIL source failed to lex or parse.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A MIL runtime error (wrong arity, bad operand, division by zero...).
    Eval(String),
    /// An extension-module procedure failed.
    Module {
        /// Module that raised the error.
        module: String,
        /// Underlying description.
        message: String,
    },
    /// An operation that requires a non-empty BAT was applied to an empty one.
    EmptyBat(String),
    /// The evaluation was cancelled through its [`CancellationToken`]
    /// (see [`crate::guard`]).
    ///
    /// [`CancellationToken`]: crate::guard::CancellationToken
    Interrupted,
    /// The evaluation ran out of its step budget (see
    /// [`crate::guard::ExecBudget::with_fuel`]).
    BudgetExhausted {
        /// The fuel budget the evaluation started with.
        fuel: u64,
    },
    /// The evaluation exceeded its wall-clock deadline (see
    /// [`crate::guard::ExecBudget::with_deadline`]).
    Deadline,
    /// A fault-injection site fired (testing only; see `cobra-faults`).
    Fault {
        /// The injection site that failed (e.g. `"bat.insert"`).
        site: String,
        /// Whether the injected fault models a transient condition.
        transient: bool,
    },
    /// A worker thread of the parallel executor panicked; the panic is
    /// captured and surfaced as an error instead of aborting the caller.
    WorkerPanic(String),
}

impl fmt::Display for MonetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonetError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            MonetError::NotFound(name) => write!(f, "not found: {name}"),
            MonetError::AlreadyExists(name) => write!(f, "already exists: {name}"),
            MonetError::OutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            MonetError::Parse { line, message } => {
                write!(f, "MIL parse error at line {line}: {message}")
            }
            MonetError::Eval(msg) => write!(f, "MIL evaluation error: {msg}"),
            MonetError::Module { module, message } => {
                write!(f, "extension module '{module}' failed: {message}")
            }
            MonetError::EmptyBat(op) => write!(f, "operation '{op}' requires a non-empty BAT"),
            MonetError::Interrupted => write!(f, "evaluation interrupted by cancellation"),
            MonetError::BudgetExhausted { fuel } => {
                write!(f, "evaluation exhausted its step budget of {fuel}")
            }
            MonetError::Deadline => write!(f, "evaluation exceeded its deadline"),
            MonetError::Fault { site, transient } => {
                write!(
                    f,
                    "injected {} fault at site '{site}'",
                    if *transient { "transient" } else { "permanent" }
                )
            }
            MonetError::WorkerPanic(msg) => {
                write!(f, "parallel worker panicked: {msg}")
            }
        }
    }
}

impl From<cobra_faults::FaultError> for MonetError {
    fn from(e: cobra_faults::FaultError) -> Self {
        MonetError::Fault {
            site: e.site,
            transient: e.transient,
        }
    }
}

impl std::error::Error for MonetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_every_variant() {
        let cases: Vec<(MonetError, &str)> = vec![
            (
                MonetError::TypeMismatch {
                    expected: "int".into(),
                    found: "str".into(),
                },
                "type mismatch: expected int, found str",
            ),
            (MonetError::NotFound("x".into()), "not found: x"),
            (MonetError::AlreadyExists("x".into()), "already exists: x"),
            (
                MonetError::OutOfRange { index: 5, len: 3 },
                "index 5 out of range for length 3",
            ),
            (
                MonetError::Parse {
                    line: 2,
                    message: "bad token".into(),
                },
                "MIL parse error at line 2: bad token",
            ),
            (
                MonetError::Eval("boom".into()),
                "MIL evaluation error: boom",
            ),
            (
                MonetError::Module {
                    module: "hmm".into(),
                    message: "no model".into(),
                },
                "extension module 'hmm' failed: no model",
            ),
            (
                MonetError::EmptyBat("max".into()),
                "operation 'max' requires a non-empty BAT",
            ),
            (
                MonetError::Interrupted,
                "evaluation interrupted by cancellation",
            ),
            (
                MonetError::BudgetExhausted { fuel: 100 },
                "evaluation exhausted its step budget of 100",
            ),
            (MonetError::Deadline, "evaluation exceeded its deadline"),
            (
                MonetError::Fault {
                    site: "bat.insert".into(),
                    transient: true,
                },
                "injected transient fault at site 'bat.insert'",
            ),
            (
                MonetError::WorkerPanic("boom".into()),
                "parallel worker panicked: boom",
            ),
        ];
        for (err, expect) in cases {
            assert_eq!(err.to_string(), expect);
        }
    }
}
