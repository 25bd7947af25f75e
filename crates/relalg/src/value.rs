//! Typed scalar values.
//!
//! The Wisconsin benchmark relations used by the paper only need 64-bit
//! integers and fixed-width strings, so the value lattice is intentionally
//! small. Values are totally ordered (ints before strings) so relations can
//! be canonically sorted for multiset comparison in tests.

use std::fmt;

use crate::error::{RelalgError, Result};
use crate::schema::DataType;

/// A scalar value stored in a tuple.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer (all Wisconsin numeric attributes).
    Int(i64),
    /// Variable-length string (Wisconsin `stringu1`/`stringu2`/`string4`).
    Str(Box<str>),
}

impl Value {
    /// Creates a string value from anything string-like.
    pub fn str(s: impl Into<Box<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Returns the integer payload, or a type error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Str(_) => Err(RelalgError::TypeMismatch {
                expected: "Int",
                found: "Str",
            }),
        }
    }

    /// Returns the string payload, or a type error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Int(_) => Err(RelalgError::TypeMismatch {
                expected: "Str",
                found: "Int",
            }),
        }
    }

    /// Approximate in-memory footprint in bytes, used by the memory
    /// accounting in the engine and the RD-vs-FP memory ablation.
    pub fn est_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            // Box<str> payload + the fat pointer.
            Value::Str(s) => s.len() + 16,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::Int(7).as_str().is_err());
        assert_eq!(Value::str("abc").as_str().unwrap(), "abc");
        assert!(Value::str("abc").as_int().is_err());
    }

    #[test]
    fn ordering_is_total_and_ints_sort_before_strings() {
        let mut vs = vec![
            Value::str("b"),
            Value::Int(2),
            Value::str("a"),
            Value::Int(1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("xy").to_string(), "'xy'");
    }

    #[test]
    fn size_estimates() {
        assert_eq!(Value::Int(0).est_bytes(), 8);
        assert_eq!(Value::str("abcd").est_bytes(), 20);
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::str("s").data_type(), DataType::Str);
    }
}
