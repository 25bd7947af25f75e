//! Projections: column selections applied after scans and joins.
//!
//! The paper's regular Wisconsin query projects every join result back to a
//! Wisconsin-shaped relation ("after each join they are projected to the
//! second integer attributes and the remaining attributes of one of the
//! operands", §4.1); [`Projection`] is the vehicle for that re-keying.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A projection onto a list of column indices of the input schema (for a
/// join: indices into the concatenation `left ++ right`). Columns may be
/// repeated or reordered.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Projection {
    cols: Vec<usize>,
}

impl Projection {
    /// Creates a projection on the given columns.
    pub fn new(cols: Vec<usize>) -> Self {
        Projection { cols }
    }

    /// The identity projection for an input of the given arity.
    pub fn identity(arity: usize) -> Self {
        Projection {
            cols: (0..arity).collect(),
        }
    }

    /// The projected column indices.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Applies the projection to a single tuple.
    pub fn apply(&self, tuple: &Tuple) -> Result<Tuple> {
        tuple.project(&self.cols)
    }

    /// Applies the projection to the virtual concatenation of two tuples
    /// (the oracle's nested-loop join).
    pub fn apply_concat(&self, left: &Tuple, right: &Tuple) -> Result<Tuple> {
        Tuple::project_concat(left, right, &self.cols)
    }

    /// Computes the output schema for the given input schema.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        input.project(&self.cols)
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π[")?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "#{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    #[test]
    fn identity_round_trips() {
        let t = Tuple::from_ints(&[1, 2, 3]);
        let p = Projection::identity(3);
        assert_eq!(p.apply(&t).unwrap(), t);
    }

    #[test]
    fn reorder_and_repeat() {
        let t = Tuple::from_ints(&[1, 2]);
        let p = Projection::new(vec![1, 1, 0]);
        assert_eq!(p.apply(&t).unwrap(), Tuple::from_ints(&[2, 2, 1]));
        assert_eq!(p.arity(), 3);
    }

    #[test]
    fn output_schema_follows_columns() {
        let s = Schema::new(vec![Attribute::int("a"), Attribute::int("b")]);
        let p = Projection::new(vec![1]);
        let out = p.output_schema(&s).unwrap();
        assert_eq!(out.arity(), 1);
        assert_eq!(out.attr(0).unwrap().name, "b");
        assert!(Projection::new(vec![4]).output_schema(&s).is_err());
    }

    #[test]
    fn apply_concat_equals_concat_apply() {
        let a = Tuple::from_ints(&[1, 2]);
        let b = Tuple::from_ints(&[3, 4]);
        let p = Projection::new(vec![0, 3]);
        assert_eq!(
            p.apply_concat(&a, &b).unwrap(),
            p.apply(&a.concat(&b)).unwrap()
        );
    }

    #[test]
    fn display() {
        assert_eq!(Projection::new(vec![0, 2]).to_string(), "π[#0,#2]");
    }
}
