//! Nested-loop equi-join: the quadratic, obviously-correct reference that
//! the sort-merge join's property test checks the oracle's join against
//! ([`super::sort_merge`]). The oracle itself no longer runs it.

use std::sync::Arc;

use crate::error::Result;
use crate::relation::Relation;
use crate::xra::EquiJoin;

/// Joins `left` and `right` with the given equi-join spec by exhaustive
/// pairing. O(|L|·|R|) — a test reference only.
pub fn nested_loop_join(left: &Relation, right: &Relation, join: &EquiJoin) -> Result<Relation> {
    let out_schema = Arc::new(
        join.projection
            .output_schema(&left.schema().concat(right.schema()))?,
    );
    let mut out = Vec::new();
    for l in left {
        let lk = l.get(join.left_key)?;
        for r in right {
            if lk == r.get(join.right_key)? {
                out.push(join.projection.apply_concat(l, r)?);
            }
        }
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::Projection;
    use crate::schema::{Attribute, Schema};
    use crate::tuple::Tuple;

    fn rel(name: &str, rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![
            Attribute::int(format!("{name}_k")),
            Attribute::int(format!("{name}_v")),
        ])
        .shared();
        Relation::new(schema, rows.iter().map(|r| Tuple::from_ints(r)).collect()).unwrap()
    }

    #[test]
    fn joins_matching_keys() {
        let l = rel("l", &[[1, 10], [2, 20], [3, 30]]);
        let r = rel("r", &[[2, 200], [3, 300], [4, 400]]);
        let join = EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]));
        let out = nested_loop_join(&l, &r, &join).unwrap();
        assert_eq!(out.len(), 2);
        let mut got: Vec<(i64, i64, i64)> = out
            .iter()
            .map(|t| (t.int(0).unwrap(), t.int(1).unwrap(), t.int(2).unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 20, 200), (3, 30, 300)]);
    }

    #[test]
    fn duplicates_multiply() {
        let l = rel("l", &[[1, 10], [1, 11]]);
        let r = rel("r", &[[1, 100], [1, 101], [1, 102]]);
        let join = EquiJoin::new(0, 0, Projection::new(vec![1, 3]));
        let out = nested_loop_join(&l, &r, &join).unwrap();
        assert_eq!(out.len(), 6, "2 x 3 matching pairs");
    }

    #[test]
    fn empty_side_gives_empty_result() {
        let l = rel("l", &[]);
        let r = rel("r", &[[1, 1]]);
        let join = EquiJoin::new(0, 0, Projection::new(vec![0]));
        assert!(nested_loop_join(&l, &r, &join).unwrap().is_empty());
    }
}
