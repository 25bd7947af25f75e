//! Schemas: ordered lists of named, typed attributes.

use std::fmt;
use std::sync::Arc;

use crate::error::{RelalgError, Result};
use crate::tuple::Tuple;

/// The type of an attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Variable-length string.
    Str,
    /// A packed row reference `(fragment_id << 32) | row_idx` used by
    /// late-materialized plans: the column carries *where* a payload row
    /// lives instead of the payload itself, and a final gather resolves it.
    /// At row ([`Tuple`]) boundaries a ref travels bit-cast inside a
    /// [`Value::Int`](crate::Value::Int), so ref-carrying intermediates can
    /// be materialized and rescanned like any relation.
    Ref,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Str => write!(f, "str"),
            DataType::Ref => write!(f, "ref"),
        }
    }
}

/// A named, typed attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name. Names need not be unique within a schema (as in the
    /// intermediate results of a join); positional access is primary.
    pub name: String,
    /// Attribute type.
    pub ty: DataType,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }

    /// Shorthand for an integer attribute.
    pub fn int(name: impl Into<String>) -> Self {
        Attribute::new(name, DataType::Int)
    }

    /// Shorthand for a string attribute.
    pub fn str(name: impl Into<String>) -> Self {
        Attribute::new(name, DataType::Str)
    }

    /// Shorthand for a packed row-reference attribute (late
    /// materialization).
    pub fn rowref(name: impl Into<String>) -> Self {
        Attribute::new(name, DataType::Ref)
    }
}

/// An ordered list of attributes describing the layout of tuples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from attributes.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Schema { attrs }
    }

    /// Schema with no attributes (used by aggregates over everything).
    pub fn empty() -> Self {
        Schema { attrs: Vec::new() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// True if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attributes in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The attribute at position `i`.
    pub fn attr(&self, i: usize) -> Result<&Attribute> {
        self.attrs.get(i).ok_or(RelalgError::IndexOutOfBounds {
            index: i,
            arity: self.attrs.len(),
        })
    }

    /// Resolves a name to the index of the *first* attribute with that name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| RelalgError::UnknownAttribute(name.to_string()))
    }

    /// Concatenation of two schemas (the schema of a joined tuple).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut attrs = Vec::with_capacity(self.arity() + other.arity());
        attrs.extend(self.attrs.iter().cloned());
        attrs.extend(other.attrs.iter().cloned());
        Schema { attrs }
    }

    /// Schema resulting from projecting onto `cols` (indices into `self`).
    pub fn project(&self, cols: &[usize]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(cols.len());
        for &c in cols {
            attrs.push(self.attr(c)?.clone());
        }
        Ok(Schema { attrs })
    }

    /// Checks that a tuple conforms to this schema (arity and types).
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(RelalgError::SchemaMismatch(format!(
                "tuple arity {} != schema arity {}",
                tuple.arity(),
                self.arity()
            )));
        }
        for (i, attr) in self.attrs.iter().enumerate() {
            let v = tuple.get(i)?;
            // Refs travel bit-cast inside `Value::Int` at row boundaries, so
            // a ref attribute accepts integer values.
            if attr.ty == DataType::Ref && v.data_type() == DataType::Int {
                continue;
            }
            if v.data_type() != attr.ty {
                return Err(RelalgError::SchemaMismatch(format!(
                    "attribute {i} (`{}`): expected {}, found {}",
                    attr.name,
                    attr.ty,
                    v.data_type()
                )));
            }
        }
        Ok(())
    }

    /// Wraps the schema in an [`Arc`] for cheap sharing across fragments.
    pub fn shared(self) -> Arc<Schema> {
        Arc::new(self)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ab_schema() -> Schema {
        Schema::new(vec![Attribute::int("a"), Attribute::str("b")])
    }

    #[test]
    fn index_of_resolves_first_match() {
        let s = Schema::new(vec![Attribute::int("x"), Attribute::int("x")]);
        assert_eq!(s.index_of("x").unwrap(), 0);
        assert!(s.index_of("y").is_err());
    }

    #[test]
    fn concat_appends() {
        let s = ab_schema().concat(&ab_schema());
        assert_eq!(s.arity(), 4);
        assert_eq!(s.attr(2).unwrap().name, "a");
    }

    #[test]
    fn project_selects_and_reorders() {
        let s = ab_schema().project(&[1, 0]).unwrap();
        assert_eq!(s.attr(0).unwrap().name, "b");
        assert_eq!(s.attr(1).unwrap().name, "a");
        assert!(ab_schema().project(&[7]).is_err());
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let s = ab_schema();
        let ok = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert!(s.validate(&ok).is_ok());
        let bad_arity = Tuple::new(vec![Value::Int(1)]);
        assert!(s.validate(&bad_arity).is_err());
        let bad_type = Tuple::new(vec![Value::str("x"), Value::str("y")]);
        assert!(s.validate(&bad_type).is_err());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(ab_schema().to_string(), "(a: int, b: str)");
    }
}
