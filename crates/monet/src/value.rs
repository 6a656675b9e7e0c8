//! Atom values — the scalar types stored in BAT columns.
//!
//! Monet's binary relational model stores pairs of *atoms*. We support the
//! atom types the paper's MIL fragments use (`oid`, `int`, `dbl`, `str`,
//! `bit`) plus the *void* pseudo-type for dense, materialization-free object
//! identifier columns.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{MonetError, Result};

/// The type tag of an [`Atom`] (or of a virtual void column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomType {
    /// Dense object identifiers that are never materialized; only valid as a
    /// column type, there is no `Atom::Void` value.
    Void,
    /// Object identifier.
    Oid,
    /// 64-bit signed integer (`int` in MIL).
    Int,
    /// 64-bit float (`dbl` in MIL).
    Dbl,
    /// String (`str` in MIL).
    Str,
    /// Boolean (`bit` in MIL).
    Bit,
}

impl AtomType {
    /// Parses a MIL type name (`void`, `oid`, `int`, `dbl`, `str`, `bit`).
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "void" => Ok(AtomType::Void),
            "oid" => Ok(AtomType::Oid),
            "int" => Ok(AtomType::Int),
            "dbl" | "flt" => Ok(AtomType::Dbl),
            "str" => Ok(AtomType::Str),
            "bit" => Ok(AtomType::Bit),
            other => Err(MonetError::Parse {
                line: 0,
                message: format!("unknown atom type '{other}'"),
            }),
        }
    }

    /// MIL spelling of the type.
    pub fn name(self) -> &'static str {
        match self {
            AtomType::Void => "void",
            AtomType::Oid => "oid",
            AtomType::Int => "int",
            AtomType::Dbl => "dbl",
            AtomType::Str => "str",
            AtomType::Bit => "bit",
        }
    }
}

impl fmt::Display for AtomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value stored in a BAT cell.
///
/// `Dbl` atoms are compared and hashed through their IEEE-754 bit pattern
/// (`total_cmp` / `to_bits`), so atoms form a proper `Eq + Ord + Hash`
/// universe and can key hash joins. NaNs are therefore *equal to
/// themselves*, which is exactly what a database needs for grouping.
#[derive(Debug, Clone)]
pub enum Atom {
    /// Object identifier.
    Oid(u64),
    /// Integer.
    Int(i64),
    /// Double-precision float.
    Dbl(f64),
    /// String (cheaply clonable).
    Str(Arc<str>),
    /// Boolean.
    Bit(bool),
}

impl Atom {
    /// Convenience constructor for string atoms.
    pub fn str(s: impl AsRef<str>) -> Self {
        Atom::Str(Arc::from(s.as_ref()))
    }

    /// The type tag of this atom.
    pub fn atom_type(&self) -> AtomType {
        match self {
            Atom::Oid(_) => AtomType::Oid,
            Atom::Int(_) => AtomType::Int,
            Atom::Dbl(_) => AtomType::Dbl,
            Atom::Str(_) => AtomType::Str,
            Atom::Bit(_) => AtomType::Bit,
        }
    }

    /// Extracts an `int`, failing with a typed error otherwise.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Atom::Int(v) => Ok(*v),
            other => Err(type_err("int", other)),
        }
    }

    /// Extracts a `dbl`; integers are widened for convenience, mirroring
    /// MIL's implicit numeric coercion.
    pub fn as_dbl(&self) -> Result<f64> {
        match self {
            Atom::Dbl(v) => Ok(*v),
            Atom::Int(v) => Ok(*v as f64),
            other => Err(type_err("dbl", other)),
        }
    }

    /// Extracts a `str`, failing with a typed error otherwise.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Atom::Str(v) => Ok(v),
            other => Err(type_err("str", other)),
        }
    }

    /// Extracts a `bit`, failing with a typed error otherwise.
    pub fn as_bit(&self) -> Result<bool> {
        match self {
            Atom::Bit(v) => Ok(*v),
            other => Err(type_err("bit", other)),
        }
    }
}

fn type_err(expected: &str, found: &Atom) -> MonetError {
    MonetError::TypeMismatch {
        expected: expected.to_string(),
        found: format!("{} ({})", found.atom_type(), found),
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        use Atom::*;
        match (self, other) {
            (Oid(a), Oid(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Dbl(a), Dbl(b)) => a.total_cmp(b),
            // Mixed numerics compare by value so MIL arithmetic stays sane.
            (Int(a), Dbl(b)) => (*a as f64).total_cmp(b),
            (Dbl(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bit(a), Bit(b)) => a.cmp(b),
            // Cross-type ordering falls back to the type-tag order; it only
            // matters for deterministic sorting of heterogeneous columns,
            // which well-typed BATs never produce.
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn rank(a: &Atom) -> u8 {
    match a {
        Atom::Oid(_) => 0,
        Atom::Int(_) => 1,
        Atom::Dbl(_) => 2,
        Atom::Str(_) => 3,
        Atom::Bit(_) => 4,
    }
}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Atom::Oid(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            // Int and Dbl that compare equal must hash equally: hash the
            // f64 bit pattern of the numeric value for both.
            Atom::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Atom::Dbl(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Atom::Str(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            Atom::Bit(v) => {
                4u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Oid(v) => write!(f, "{v}@0"),
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Dbl(v) => write!(f, "{v}"),
            Atom::Str(v) => write!(f, "\"{v}\""),
            Atom::Bit(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for Atom {
    fn from(v: u64) -> Self {
        Atom::Oid(v)
    }
}
impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}
impl From<f64> for Atom {
    fn from(v: f64) -> Self {
        Atom::Dbl(v)
    }
}
impl From<&str> for Atom {
    fn from(v: &str) -> Self {
        Atom::str(v)
    }
}
impl From<bool> for Atom {
    fn from(v: bool) -> Self {
        Atom::Bit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(a: &Atom) -> u64 {
        let mut h = DefaultHasher::new();
        a.hash(&mut h);
        h.finish()
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Atom::Int(3).as_int().unwrap(), 3);
        assert!(Atom::Int(3).as_str().is_err());
        assert_eq!(Atom::Int(3).as_dbl().unwrap(), 3.0);
        assert_eq!(Atom::Dbl(2.5).as_dbl().unwrap(), 2.5);
        assert!(Atom::str("x").as_bit().is_err());
        assert!(Atom::Bit(true).as_bit().unwrap());
    }

    #[test]
    fn mixed_numeric_equality_is_consistent_with_hash() {
        let a = Atom::Int(4);
        let b = Atom::Dbl(4.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_equals_itself_for_grouping() {
        let nan = Atom::Dbl(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn total_order_on_doubles() {
        let mut v = vec![Atom::Dbl(1.0), Atom::Dbl(-1.0), Atom::Dbl(0.0)];
        v.sort();
        assert_eq!(v, vec![Atom::Dbl(-1.0), Atom::Dbl(0.0), Atom::Dbl(1.0)]);
    }

    #[test]
    fn type_parsing_round_trips() {
        for t in [
            AtomType::Void,
            AtomType::Oid,
            AtomType::Int,
            AtomType::Dbl,
            AtomType::Str,
            AtomType::Bit,
        ] {
            assert_eq!(AtomType::parse(t.name()).unwrap(), t);
        }
        assert!(AtomType::parse("blob").is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Atom::Oid(3).to_string(), "3@0");
        assert_eq!(Atom::str("pit").to_string(), "\"pit\"");
        assert_eq!(Atom::Int(-2).to_string(), "-2");
    }
}
