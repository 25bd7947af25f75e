//! Boolean predicates over a single tuple (selection conditions and join
//! conditions evaluated on the concatenated tuple).

use std::cmp::Ordering;
use std::fmt;

use crate::error::{RelalgError, Result};
use crate::expr::Expr;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// The mirrored comparison: `a op b` holds exactly when
    /// `b op.flip() a` does (`5 < x` is `x > 5`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

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
#[derive(Clone, Debug, PartialEq)]
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
        match self {
            Predicate::True => {}
            Predicate::Cmp { left, right, .. } => {
                for e in [left, right] {
                    if let Expr::Attr(i) = e {
                        f(*i);
                    }
                }
            }
            Predicate::And(a, b) => {
                a.for_each_attr(f);
                b.for_each_attr(f);
            }
        }
    }

    /// Rebuilds the predicate with both sides of every comparison passed
    /// through `map`: the prepared-statement layer substitutes
    /// [`Expr::Param`]s with literals at execute time.
    pub fn map_exprs(&self, map: &impl Fn(&Expr) -> Result<Expr>) -> Result<Predicate> {
        Ok(match self {
            Predicate::True => Predicate::True,
            Predicate::Cmp { left, op, right } => Predicate::Cmp {
                left: map(left)?,
                op: *op,
                right: map(right)?,
            },
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.map_exprs(map)?), Box::new(b.map_exprs(map)?))
            }
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
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
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
    fn flip_mirrors_every_operator() {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for op in ops {
            assert_eq!(op.flip().flip(), op, "{op}");
            for a in -1..=1 {
                for b in -1..=1 {
                    let t = Tuple::from_ints(&[a, b]);
                    let cmp = |op, l, r| {
                        Predicate::Cmp {
                            left: Expr::Attr(l),
                            op,
                            right: Expr::Attr(r),
                        }
                        .eval(&t)
                        .unwrap()
                    };
                    assert_eq!(cmp(op, 0, 1), cmp(op.flip(), 1, 0), "{a} {op} {b}");
                }
            }
        }
    }

    #[test]
    fn boolean_combinators() {
        let t = Tuple::from_ints(&[5]);
        let lt = Predicate::cmp_int(0, CmpOp::Lt, 10);
        let gt = Predicate::cmp_int(0, CmpOp::Gt, 10);
        assert!(Predicate::And(Box::new(lt.clone()), Box::new(lt.clone()))
            .eval(&t)
            .unwrap());
        assert!(!Predicate::And(Box::new(lt), Box::new(gt)).eval(&t).unwrap());
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
                left: Expr::Attr(1),
                op: CmpOp::Eq,
                right: Expr::Param(2),
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
        // ?1 -> 5, ?2 -> 6: `#0 < 5 AND #1 = 6`.
        assert!(bound.eval(&Tuple::from_ints(&[4, 6])).unwrap());
        assert!(!bound.eval(&Tuple::from_ints(&[5, 6])).unwrap());
        assert!(!bound.eval(&Tuple::from_ints(&[4, 3])).unwrap());
        assert_eq!(bound.to_string(), "(#0 < 5 AND #1 = 6)");
    }
}
