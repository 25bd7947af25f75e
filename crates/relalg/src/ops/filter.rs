//! Selection (σ).

use crate::error::Result;
use crate::predicate::Predicate;
use crate::relation::Relation;

/// Returns the tuples of `input` satisfying `predicate`.
pub fn filter(input: &Relation, predicate: &Predicate) -> Result<Relation> {
    let mut out = Vec::new();
    for t in input {
        if predicate.eval(t)? {
            out.push(t.clone());
        }
    }
    Ok(Relation::new_unchecked(input.schema().clone(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::{Attribute, Schema};
    use crate::tuple::Tuple;

    fn rel(rows: &[i64]) -> Relation {
        let schema = Schema::new(vec![Attribute::int("a")]).shared();
        Relation::new(
            schema,
            rows.iter().map(|&v| Tuple::from_ints(&[v])).collect(),
        )
        .unwrap()
    }

    #[test]
    fn keeps_matching_tuples() {
        let r = rel(&[1, 5, 3, 8]);
        let out = filter(&r, &Predicate::cmp_int(0, CmpOp::Gt, 3)).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.int(0).unwrap() > 3));
    }

    #[test]
    fn true_predicate_keeps_everything() {
        let r = rel(&[1, 2]);
        assert_eq!(filter(&r, &Predicate::True).unwrap().len(), 2);
    }

    #[test]
    fn errors_propagate() {
        let r = rel(&[1]);
        // Attribute 5 does not exist.
        assert!(filter(&r, &Predicate::cmp_int(5, CmpOp::Eq, 0)).is_err());
    }
}
