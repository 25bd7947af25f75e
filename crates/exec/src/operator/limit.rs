//! The LIMIT operator: early-out row capping — the first operator that
//! *stops* a running pipeline.
//!
//! Every other operator consumes its inputs to exhaustion; `LimitOp`
//! declares [`Absorb::Satisfied`] the moment its quota fills. The driver
//! then raises the query's early-stop token
//! ([`QueryCtrl::stop_early`](crate::handle::QueryCtrl::stop_early)):
//! every upstream task of the query observes the token on its next
//! scheduling step and winds down *successfully* — reporting its stats
//! exactly once through the normal completion protocol, so the engine
//! quiesces (fragments reclaimed, pool reusable) exactly as it does for a
//! completed query, not through the error path. `LimitOp` always runs at
//! degree 1: a partitioned limit would need a second coordination round to
//! agree on who emits how many rows. On the columnar path the cap is a
//! range truncation: the operator forwards a prefix of each arriving batch
//! with one column-wise append and never inspects individual rows.

use std::ops::Range;

use mj_relalg::column::ColumnBatch;
use mj_relalg::Result;

use crate::operator::op::{Absorb, PhysicalOp};

/// Passes through at most `k` rows, then stops the pipeline.
pub struct LimitOp {
    remaining: u64,
}

impl LimitOp {
    /// Creates the operator with a quota of `k` rows.
    pub fn new(k: u64) -> Self {
        LimitOp { remaining: k }
    }

    /// Rows still accepted.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl PhysicalOp for LimitOp {
    fn absorb_batch(
        &mut self,
        _side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb> {
        if self.remaining == 0 {
            // LIMIT 0, or stragglers after satisfaction: drop them.
            return Ok(Absorb::Satisfied);
        }
        let take = (self.remaining.min(range.len() as u64)) as usize;
        out.append_rows(cols, range.start..range.start + take)?;
        self.remaining -= take as u64;
        Ok(if self.remaining == 0 {
            Absorb::Satisfied
        } else {
            Absorb::Continue
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    fn batch(keys: &[i64]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(1), keys.len());
        for &k in keys {
            b.push_tuple(&Tuple::from_ints(&[k])).unwrap();
        }
        b
    }

    #[test]
    fn caps_and_satisfies() {
        let mut op = LimitOp::new(2);
        let mut out = ColumnBatch::shapeless();
        let input = batch(&[1, 2, 3]);
        // The whole batch arrives at once: only the quota prefix passes.
        assert_eq!(
            op.absorb_batch(0, &input, 0..3, &mut out).unwrap(),
            Absorb::Satisfied
        );
        assert_eq!(out.int_col(0).unwrap(), &[1, 2]);
        // Stragglers are dropped, not errors.
        assert_eq!(
            op.absorb_batch(0, &batch(&[4]), 0..1, &mut out).unwrap(),
            Absorb::Satisfied
        );
        assert_eq!(out.rows(), 2);
        assert_eq!(op.remaining(), 0);
    }

    #[test]
    fn continues_until_quota_fills() {
        let mut op = LimitOp::new(5);
        let mut out = ColumnBatch::shapeless();
        assert_eq!(
            op.absorb_batch(0, &batch(&[1, 2]), 0..2, &mut out).unwrap(),
            Absorb::Continue
        );
        assert_eq!(op.remaining(), 3);
        assert_eq!(
            op.absorb_batch(0, &batch(&[3, 4, 5]), 0..3, &mut out)
                .unwrap(),
            Absorb::Satisfied
        );
        assert_eq!(out.rows(), 5);
    }

    #[test]
    fn limit_zero_is_satisfied_immediately() {
        let mut op = LimitOp::new(0);
        let mut out = ColumnBatch::shapeless();
        assert_eq!(
            op.absorb_batch(0, &batch(&[1]), 0..1, &mut out).unwrap(),
            Absorb::Satisfied
        );
        assert!(out.is_empty());
    }
}
