//! The selection operator: a predicate over the stream, with an optional
//! output projection.
//!
//! Filters pushed below the joins never reach this operator — the engine
//! evaluates them during setup as a selection over each resident base
//! fragment ([`select`](mj_relalg::column::select)), so the joins see
//! fewer rows. [`FilterOp`] is the *residual* form: predicates the planner
//! kept above the joins (pushdown disabled, or benchmark comparisons) run
//! here over the root join's output stream. Each batch is evaluated by the branch-free columnar
//! kernels in [`mj_relalg::column`]: whole key columns compare into a
//! selection vector, and the survivors are gathered column-wise —
//! optionally through the projection that drops the predicate's carrier
//! columns — without touching rejected rows.

use std::ops::Range;

use mj_relalg::column::{self, ColumnBatch};
use mj_relalg::{Predicate, Projection, Result};

use crate::operator::op::{Absorb, OpKind, PhysicalOp};

/// A streaming selection: keep rows satisfying `predicate`, then apply
/// the optional projection. Operates on selection vectors — surviving
/// rows are gathered column-wise, never copied one by one.
pub struct FilterOp {
    predicate: Predicate,
    projection: Option<Projection>,
    /// Selection-vector scratch, reused across batches.
    sel: Vec<u32>,
}

impl FilterOp {
    /// Creates the operator. `projection` (applied *after* the predicate)
    /// lets a residual filter drop columns that were only carried for its
    /// own evaluation.
    pub fn new(predicate: Predicate, projection: Option<Projection>) -> Self {
        FilterOp {
            predicate,
            projection,
            sel: Vec::new(),
        }
    }
}

impl PhysicalOp for FilterOp {
    fn kind(&self) -> OpKind {
        OpKind::Filter
    }

    fn absorb_batch(
        &mut self,
        _side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb> {
        self.sel.clear();
        column::select(&self.predicate, cols, range, &mut self.sel)?;
        match &self.projection {
            Some(p) => out.append_project_gather(cols, p.cols(), &self.sel)?,
            None => out.append_gather(cols, &self.sel)?,
        }
        Ok(Absorb::Continue)
    }

    fn est_bytes(&self) -> usize {
        // The selection-vector scratch is this operator's only held state;
        // report its real allocation so the memory guardrail sees it.
        self.sel.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::{CmpOp, Tuple};

    fn batch(rows: &[[i64; 2]]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        b
    }

    #[test]
    fn filters_and_projects() {
        let mut op = FilterOp::new(
            Predicate::cmp_int(0, CmpOp::Lt, 5),
            Some(Projection::new(vec![1])),
        );
        let input = batch(&[[3, 30], [7, 70], [4, 40]]);
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(0, &input, 0..input.rows(), &mut out)
            .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.int_col(0).unwrap(), &[30, 40]);
        assert_eq!(op.kind(), OpKind::Filter);
        let mut drained = ColumnBatch::shapeless();
        op.finish(&mut drained).unwrap();
        assert!(drained.is_empty(), "filters hold no state");
    }

    #[test]
    fn subranges_respect_offsets() {
        let mut op = FilterOp::new(Predicate::cmp_int(0, CmpOp::Ge, 5), None);
        let input = batch(&[[9, 90], [1, 10], [6, 60], [8, 80]]);
        let mut out = ColumnBatch::shapeless();
        // Skip row 0 entirely: only rows 1..4 are considered.
        op.absorb_batch(0, &input, 1..4, &mut out).unwrap();
        assert_eq!(out.int_col(0).unwrap(), &[6, 8]);
    }

    #[test]
    fn est_bytes_reports_selection_vector_allocation() {
        // Regression: the selection scratch used to be invisible to the
        // budget charge site (`OpTask::sync_budget` reads `est_bytes`).
        let mut op = FilterOp::new(Predicate::cmp_int(0, CmpOp::Ge, 0), None);
        assert_eq!(op.est_bytes(), 0, "no scratch before the first batch");
        let rows: Vec<[i64; 2]> = (0..100).map(|k| [k, k]).collect();
        let input = batch(&rows);
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(0, &input, 0..input.rows(), &mut out)
            .unwrap();
        assert!(
            op.est_bytes() >= 100 * std::mem::size_of::<u32>(),
            "selection vector capacity must be charged, got {}",
            op.est_bytes()
        );
    }

    #[test]
    fn predicate_errors_propagate() {
        let mut op = FilterOp::new(Predicate::cmp_int(9, CmpOp::Eq, 0), None);
        let input = batch(&[[1, 2]]);
        let mut out = ColumnBatch::shapeless();
        assert!(op.absorb_batch(0, &input, 0..1, &mut out).is_err());
    }
}
