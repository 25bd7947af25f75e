//! Boolean predicates over a single tuple (selection conditions and join
//! conditions evaluated on the concatenated tuple).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

use crate::error::{RelalgError, Result};
use crate::expr::Expr;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over one tuple.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Always true (scan without selection).
    True,
    /// Comparison between two scalar expressions of the same type.
    Cmp {
        /// Left-hand expression.
        left: Expr,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand expression.
        right: Expr,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr(i) op lit` — the common selection shape.
    pub fn cmp_int(i: usize, op: CmpOp, lit: i64) -> Predicate {
        Predicate::Cmp {
            left: Expr::Attr(i),
            op,
            right: Expr::Lit(Value::Int(lit)),
        }
    }

    /// `attr(i) = attr(j)` — the equi-join shape on a concatenated tuple.
    pub fn attr_eq(i: usize, j: usize) -> Predicate {
        Predicate::Cmp {
            left: Expr::Attr(i),
            op: CmpOp::Eq,
            right: Expr::Attr(j),
        }
    }

    /// Invokes `f` on every attribute index the predicate references
    /// (duplicates included, in syntactic order) — the shared traversal
    /// behind validation and column-collection passes.
    pub fn for_each_attr(&self, f: &mut impl FnMut(usize)) {
        fn walk_expr(e: &Expr, f: &mut impl FnMut(usize)) {
            match e {
                Expr::Attr(i) => f(*i),
                Expr::Lit(_) | Expr::Param(_) => {}
                Expr::Arith(l, _, r) => {
                    walk_expr(l, f);
                    walk_expr(r, f);
                }
            }
        }
        match self {
            Predicate::True => {}
            Predicate::Cmp { left, right, .. } => {
                walk_expr(left, f);
                walk_expr(right, f);
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.for_each_attr(f);
                b.for_each_attr(f);
            }
            Predicate::Not(p) => p.for_each_attr(f),
        }
    }

    /// Rebuilds the predicate with every leaf expression passed through
    /// `map` — used by the prepared-statement layer to substitute [`Expr::Param`] leaves with
    /// literals at execute time. Interior [`Expr::Arith`] nodes are
    /// rebuilt from mapped children; only leaves reach `map`.
    pub fn map_exprs(&self, map: &impl Fn(&Expr) -> Result<Expr>) -> Result<Predicate> {
        fn map_expr(e: &Expr, map: &impl Fn(&Expr) -> Result<Expr>) -> Result<Expr> {
            Ok(match e {
                Expr::Arith(l, op, r) => Expr::Arith(
                    Box::new(map_expr(l, map)?),
                    *op,
                    Box::new(map_expr(r, map)?),
                ),
                leaf => map(leaf)?,
            })
        }
        Ok(match self {
            Predicate::True => Predicate::True,
            Predicate::Cmp { left, op, right } => Predicate::Cmp {
                left: map_expr(left, map)?,
                op: *op,
                right: map_expr(right, map)?,
            },
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.map_exprs(map)?), Box::new(b.map_exprs(map)?))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.map_exprs(map)?), Box::new(b.map_exprs(map)?))
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.map_exprs(map)?)),
        })
    }

    /// Evaluates the predicate against `tuple`.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { left, op, right } => {
                let l = left.eval(tuple)?;
                let r = right.eval(tuple)?;
                let ord = match (&l, &r) {
                    (Value::Int(a), Value::Int(b)) => a.cmp(b),
                    (Value::Str(a), Value::Str(b)) => a.cmp(b),
                    _ => {
                        return Err(RelalgError::TypeMismatch {
                            expected: "operands of the same type",
                            found: "mixed Int/Str comparison",
                        })
                    }
                };
                Ok(op.test(ord))
            }
            Predicate::And(a, b) => Ok(a.eval(tuple)? && b.eval(tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(tuple)? || b.eval(tuple)?),
            Predicate::Not(p) => Ok(!p.eval(tuple)?),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        let t = Tuple::from_ints(&[5, 7]);
        assert!(Predicate::cmp_int(0, CmpOp::Lt, 6).eval(&t).unwrap());
        assert!(!Predicate::cmp_int(0, CmpOp::Gt, 6).eval(&t).unwrap());
        assert!(Predicate::cmp_int(1, CmpOp::Ge, 7).eval(&t).unwrap());
        assert!(Predicate::cmp_int(1, CmpOp::Ne, 5).eval(&t).unwrap());
        assert!(Predicate::attr_eq(0, 0).eval(&t).unwrap());
        assert!(!Predicate::attr_eq(0, 1).eval(&t).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let t = Tuple::from_ints(&[5]);
        let lt = Predicate::cmp_int(0, CmpOp::Lt, 10);
        let gt = Predicate::cmp_int(0, CmpOp::Gt, 10);
        assert!(Predicate::And(Box::new(lt.clone()), Box::new(lt.clone()))
            .eval(&t)
            .unwrap());
        assert!(!Predicate::And(Box::new(lt.clone()), Box::new(gt.clone()))
            .eval(&t)
            .unwrap());
        assert!(Predicate::Or(Box::new(gt.clone()), Box::new(lt.clone()))
            .eval(&t)
            .unwrap());
        assert!(Predicate::Not(Box::new(gt)).eval(&t).unwrap());
        assert!(Predicate::True.eval(&t).unwrap());
    }

    #[test]
    fn string_comparison() {
        let t = Tuple::new(vec![Value::str("abc"), Value::str("abd")]);
        let p = Predicate::Cmp {
            left: Expr::Attr(0),
            op: CmpOp::Lt,
            right: Expr::Attr(1),
        };
        assert!(p.eval(&t).unwrap());
    }

    #[test]
    fn mixed_types_error() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("a")]);
        let p = Predicate::attr_eq(0, 1);
        assert!(p.eval(&t).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Predicate::cmp_int(0, CmpOp::Le, 3).to_string(), "#0 <= 3");
    }

    #[test]
    fn map_exprs_substitutes_params() {
        let p = Predicate::And(
            Box::new(Predicate::Cmp {
                left: Expr::Attr(0),
                op: CmpOp::Lt,
                right: Expr::Param(1),
            }),
            Box::new(Predicate::Cmp {
                left: Expr::Arith(
                    Box::new(Expr::Attr(1)),
                    crate::expr::ArithOp::Add,
                    Box::new(Expr::Param(2)),
                ),
                op: CmpOp::Eq,
                right: Expr::Lit(Value::Int(9)),
            }),
        );
        // Unbound params fail at eval time.
        assert!(p.eval(&Tuple::from_ints(&[1, 2])).is_err());
        let bound = p
            .map_exprs(&|e| {
                Ok(match e {
                    Expr::Param(n) => Expr::Lit(Value::Int(*n as i64 + 4)),
                    other => other.clone(),
                })
            })
            .unwrap();
        // ?1 -> 5, ?2 -> 6: `#0 < 5 AND (#1 + 6) = 9`.
        assert!(bound.eval(&Tuple::from_ints(&[4, 3])).unwrap());
        assert!(!bound.eval(&Tuple::from_ints(&[5, 3])).unwrap());
        assert_eq!(bound.to_string(), "(#0 < 5 AND (#1 + 6) = 9)");
    }
}
