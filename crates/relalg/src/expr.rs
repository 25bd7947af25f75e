//! Scalar expressions over a single tuple.
//!
//! The paper's workload only needs attribute references and literals: its
//! predicates are equi-join conditions and constant comparisons. A
//! prepared statement adds placeholders, bound to literals at execute time.

use std::fmt;

use crate::error::{RelalgError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

/// A scalar expression evaluated against one tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Reference to the attribute at the given index.
    Attr(usize),
    /// A literal value.
    Lit(Value),
    /// A 1-based prepared-statement placeholder (`?N`). Plans containing
    /// params are templates: evaluating one is an error until the
    /// prepared-statement layer substitutes each occurrence with a
    /// [`Expr::Lit`] at execute time.
    Param(u32),
}

impl Expr {
    /// Shorthand for an attribute reference.
    pub fn attr(i: usize) -> Expr {
        Expr::Attr(i)
    }

    /// Shorthand for an integer literal.
    pub fn lit_int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Evaluates the expression against `tuple`.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Attr(i) => Ok(tuple.get(*i)?.clone()),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Param(n) => Err(RelalgError::InvalidPlan(format!(
                "unbound parameter ?{n} (prepared plans must bind args before execution)"
            ))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Param(n) => write!(f, "?{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_and_lit() {
        let t = Tuple::from_ints(&[10, 20]);
        assert_eq!(Expr::attr(1).eval(&t).unwrap(), Value::Int(20));
        assert_eq!(Expr::lit_int(5).eval(&t).unwrap(), Value::Int(5));
        assert!(Expr::attr(5).eval(&t).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Expr::attr(0).to_string(), "#0");
        assert_eq!(Expr::lit_int(-1).to_string(), "-1");
        assert_eq!(Expr::Lit(Value::str("x")).to_string(), "'x'");
    }

    #[test]
    fn unbound_param_errors() {
        let t = Tuple::from_ints(&[1]);
        let e = Expr::Param(3);
        let err = e.eval(&t).unwrap_err();
        assert!(err.to_string().contains("unbound parameter ?3"), "{err}");
        assert_eq!(e.to_string(), "?3");
    }
}
