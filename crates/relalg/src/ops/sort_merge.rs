//! Sort-merge equi-join: the oracle's join. Each side's rows are sorted by
//! key with [`Value`]'s `Ord`, then every run of equal keys emits its cross
//! product. O((|L| + |R|) log + |out|), and it shares no hashing with the
//! engine's joins (`relalg::hash`, `mj-join`) that it checks.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::Result;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::xra::EquiJoin;

/// Joins `left` and `right` with the given equi-join spec by sorting both
/// sides on their key and merging equal runs.
pub fn sort_merge_join(left: &Relation, right: &Relation, join: &EquiJoin) -> Result<Relation> {
    let out_schema = Arc::new(
        join.projection
            .output_schema(&left.schema().concat(right.schema()))?,
    );
    let (l, r) = (by_key(left, join.left_key)?, by_key(right, join.right_key)?);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match l[i].0.cmp(r[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let key = l[i].0;
                let i_end = i + l[i..].iter().take_while(|(k, _)| *k == key).count();
                let j_end = j + r[j..].iter().take_while(|(k, _)| *k == key).count();
                for (_, lt) in &l[i..i_end] {
                    for (_, rt) in &r[j..j_end] {
                        out.push(join.projection.apply_concat(lt, rt)?);
                    }
                }
                (i, j) = (i_end, j_end);
            }
        }
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

/// `relation`'s rows paired with their `key` column, sorted by it.
fn by_key(relation: &Relation, key: usize) -> Result<Vec<(&Value, &Tuple)>> {
    let mut rows = relation
        .iter()
        .map(|t| Ok((t.get(key)?, t)))
        .collect::<Result<Vec<_>>>()?;
    rows.sort_by(|a, b| a.0.cmp(b.0));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    //! The property: on generated inputs, case by case, the sort-merge join
    //! returns exactly the multiset the nested-loop reference returns.

    use super::*;
    use crate::ops::nested_loop_join;
    use crate::projection::Projection;
    use crate::schema::{Attribute, Schema};

    /// A seeded LCG, so a failing case replays by its number.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            (self.0 >> 33) % n
        }
    }

    /// A `(k, v)` relation of up to 40 rows, each key drawn by `key`.
    fn relation(rng: &mut Rng, key: impl Fn(&mut Rng) -> Value) -> Relation {
        let keys: Vec<Value> = (0..rng.below(40)).map(|_| key(rng)).collect();
        let k = match keys.first() {
            Some(Value::Str(_)) => Attribute::str("k"),
            _ => Attribute::int("k"),
        };
        let schema = Schema::new(vec![k, Attribute::int("v")]).shared();
        let rows = keys.into_iter().enumerate();
        let rows = rows.map(|(i, k)| Tuple::new(vec![k, Value::Int(i as i64)]));
        Relation::new(schema, rows.collect()).unwrap()
    }

    fn agree(l: &Relation, r: &Relation, cols: &[usize], ctx: &str) {
        let join = EquiJoin::new(0, 0, Projection::new(cols.to_vec()));
        let want = nested_loop_join(l, r, &join).unwrap();
        let got = sort_merge_join(l, r, &join).unwrap();
        assert_eq!(got.schema(), want.schema(), "{ctx}");
        assert!(
            got.multiset_eq(&want),
            "{ctx}: {} rows, not {}",
            got.len(),
            want.len()
        );
    }

    #[test]
    fn sort_merge_matches_the_nested_loop_reference() {
        const EXTREMES: [i64; 5] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX];
        const STRINGS: [&str; 5] = ["", "a", "ab", "b", "ba"];
        let none =
            Relation::empty(Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared());
        for case in 0..64 {
            let rng = &mut Rng(case);
            let domain = 1 + rng.below(12);
            let small = |rng: &mut Rng| Value::Int(rng.below(domain) as i64);
            let hot = |rng: &mut Rng| match rng.below(10) {
                0..=7 => Value::Int(7),
                _ => Value::Int(rng.below(30) as i64),
            };
            let extreme = |rng: &mut Rng| Value::Int(EXTREMES[rng.below(5) as usize]);
            let string = |rng: &mut Rng| Value::str(STRINGS[rng.below(5) as usize]);
            let ctx = |what: &str| format!("case {case}, {what}");
            // Duplicate keys on both sides, then empty sides; a projection
            // of every column, and one that drops and reorders them.
            let (l, r) = (relation(rng, small), relation(rng, small));
            agree(&l, &r, &[0, 1, 2, 3], &ctx("duplicates"));
            agree(&l, &r, &[3, 0], &ctx("projection"));
            agree(&none, &r, &[1, 3], &ctx("empty left"));
            agree(&l, &none, &[1, 3], &ctx("empty right"));
            agree(&none, &none, &[0], &ctx("both empty"));
            let (l, r) = (relation(rng, hot), relation(rng, hot));
            agree(&l, &r, &[2, 1, 0], &ctx("one hot key"));
            let (l, r) = (relation(rng, extreme), relation(rng, extreme));
            agree(&l, &r, &[0, 1, 2, 3], &ctx("extreme keys"));
            let (l, r) = (relation(rng, string), relation(rng, string));
            agree(&l, &r, &[1, 2, 3], &ctx("string keys"));
        }
    }
}
