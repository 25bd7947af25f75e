//! Columnar scans and partitioning.
//!
//! Below the plan the engine has one physical representation, the
//! [`ColumnBatch`]. A base relation enters it once through
//! [`scan_columns`], when the [`Catalog`](crate::Catalog) registers it;
//! from there fragmentation ([`fragment_columns`]) hashes the whole key
//! column and gathers each fragment's rows column-wise instead of testing
//! tuples one at a time. It splits base relations for their catalog
//! entries and a materialized intermediate, once, at its producer.

use std::sync::Arc;

use mj_relalg::column::{bucket_keys, ColumnBatch};
use mj_relalg::{RelalgError, Relation, Result};

/// The per-instance fragments of one operand, in instance order; length 1
/// when a single instance reads the whole batch.
pub type Fragments = Arc<[Arc<ColumnBatch>]>;

/// Scans a stored relation into columns (one typed buffer per attribute).
pub fn scan_columns(fragment: &Relation) -> Result<ColumnBatch> {
    ColumnBatch::from_relation(fragment)
}

/// For each of `parts` buckets, the ascending row indices of `cols` whose
/// `key_col` hashes to it ([`bucket_keys`], the canonical hash).
fn bucket_selections(cols: &ColumnBatch, key_col: usize, parts: usize) -> Result<Vec<Vec<u32>>> {
    if parts == 0 {
        return Err(RelalgError::InvalidPartitioning(
            "partition count must be positive".into(),
        ));
    }
    if cols.rows() > u32::MAX as usize {
        return Err(RelalgError::InvalidPartitioning(format!(
            "batch of {} rows exceeds the u32 row-index cap ({})",
            cols.rows(),
            u32::MAX
        )));
    }
    let mut dests = Vec::new();
    bucket_keys(cols.int_col(key_col)?, parts, &mut dests);
    // Counting pass sizes every selection exactly.
    let mut counts = vec![0usize; parts];
    for &d in &dests {
        counts[d as usize] += 1;
    }
    let mut sels: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (row, &d) in dests.iter().enumerate() {
        sels[d as usize].push(row as u32);
    }
    Ok(sels)
}

/// Hash-partitions `cols` into `parts` fragments on integer column
/// `key_col`: fragment `i` holds, in input order, the rows whose key has
/// `bucket_of(key, parts) == i` — the "ideal fragmentation" of §4.1 in
/// columnar form, aligned with the redistribution router by construction.
/// A single part shares `cols` instead of hashing every key to gather an
/// identical copy.
pub fn fragment_columns(
    cols: &Arc<ColumnBatch>,
    key_col: usize,
    parts: usize,
) -> Result<Fragments> {
    if parts == 1 {
        return Ok(Arc::from([cols.clone()]));
    }
    bucket_selections(cols, key_col, parts)?
        .iter()
        .map(|sel| cols.gather(sel).map(Arc::new))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::{Attribute, Schema, Tuple};

    fn rel(n: i64) -> Relation {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        Relation::new(
            schema,
            (0..n).map(|k| Tuple::from_ints(&[k, k * 10])).collect(),
        )
        .unwrap()
    }

    fn cols(n: i64) -> Arc<ColumnBatch> {
        Arc::new(scan_columns(&rel(n)).unwrap())
    }

    #[test]
    fn scan_emits_all_rows_as_columns() {
        let r = rel(10);
        let cols = scan_columns(&r).unwrap();
        assert_eq!(cols.rows(), 10);
        assert_eq!(cols.int_col(1).unwrap()[3], 30);
    }

    #[test]
    fn fragments_hold_exactly_their_buckets() {
        let r = cols(100);
        let of = 4;
        let mut total = 0;
        for (bucket, part) in fragment_columns(&r, 0, of).unwrap().iter().enumerate() {
            let keys = part.int_col(0).unwrap();
            assert!(keys.iter().all(|&k| bucket_of(k, of) == bucket));
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "input order");
            total += part.rows();
        }
        assert_eq!(total, 100, "buckets partition the batch exactly");
    }

    #[test]
    fn fragments_are_roughly_balanced_on_dense_keys() {
        // Expected 1250 rows per fragment; allow generous slack.
        for part in fragment_columns(&cols(10_000), 0, 8).unwrap().iter() {
            assert!((1000..1500).contains(&part.rows()), "got {}", part.rows());
        }
    }

    #[test]
    fn partitioning_validates_its_arguments() {
        let r = cols(10);
        assert!(fragment_columns(&r, 0, 0).is_err(), "zero parts");
        assert!(fragment_columns(&r, 7, 2).is_err(), "no such column");
        let empty = fragment_columns(&cols(0), 0, 3).unwrap();
        assert_eq!(empty.len(), 3);
        assert!(empty.iter().all(|p| p.rows() == 0 && p.arity() == 2));
        let whole = fragment_columns(&r, 7, 1).unwrap();
        assert!(Arc::ptr_eq(&whole[0], &r), "one part shares the batch");
    }

    #[test]
    fn splitting_each_producer_equals_splitting_their_concatenation() {
        // A consumer instance reads piece `j` of every producer in turn:
        // that must be bucket `j` of all their rows, in producer order.
        let (head, tail) = (cols(50), cols(30));
        let mut all = (*head).clone();
        all.append_rows(&tail, 0..tail.rows()).unwrap();
        let of = 3;
        let whole = fragment_columns(&Arc::new(all), 0, of).unwrap();
        let (h, t) = (
            fragment_columns(&head, 0, of).unwrap(),
            fragment_columns(&tail, 0, of).unwrap(),
        );
        for j in 0..of {
            let mut pieces = (*h[j]).clone();
            pieces.append_rows(&t[j], 0..t[j].rows()).unwrap();
            assert_eq!(pieces, *whole[j], "bucket {j}");
        }
    }
}
