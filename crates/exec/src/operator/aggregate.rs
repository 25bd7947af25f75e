//! The hash GROUP BY operator: partitioned aggregation over the join
//! pipeline's output.
//!
//! Like a join's build side, the aggregate's hash table is partitioned
//! across processors: the engine routes the input stream by hashing the
//! first (integer) grouping column, so every group lands wholly in one
//! instance and the per-instance tables shrink with the degree. Each
//! instance accumulates [`AggState`]s per group key and drains them in
//! [`finish`](PhysicalOp::finish) — aggregation is the one operator whose
//! output exists only after its input is exhausted. A global aggregate
//! (no GROUP BY) runs at degree 1 and emits exactly one row, even over an
//! empty input (COUNT = 0; MIN/MAX error, matching the sequential oracle).
//!
//! The update loop is columnar: the aggregate input columns are resolved
//! to `i64` slices once per batch, the group key is assembled in a reused
//! scratch buffer, and the steady state (key already present) performs no
//! allocation — only a hash lookup plus per-column state updates.

use std::collections::HashMap;
use std::ops::Range;

use mj_relalg::column::ColumnBatch;
use mj_relalg::ops::{AggFunc, AggSpec, AggState};
use mj_relalg::{Projection, Result, Tuple, Value};

use crate::operator::op::{Absorb, PhysicalOp};

/// Rough per-group bookkeeping overhead (hash-map entry + key vec), for
/// the memory metrics.
const GROUP_OVERHEAD_BYTES: usize = 48;

/// A streaming hash GROUP BY: accumulates per-group aggregate state,
/// emitting `[group columns..., aggregates...]` rows on finish, optionally
/// reordered by `projection` (the SELECT list's order).
pub struct AggregateOp {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    projection: Option<Projection>,
    groups: HashMap<Vec<Value>, Vec<AggState>>,
    /// Group-key scratch, reused across rows (steady state allocates only
    /// when a new group appears).
    key_scratch: Vec<Value>,
    /// Bytes estimate, refreshed after every absorbed batch so the memory
    /// guardrail sees the table grow.
    bytes: usize,
}

impl AggregateOp {
    /// Creates the operator. `group_cols` and the aggregate input columns
    /// index the input schema; `projection` indexes the
    /// `[group..., aggs...]` output layout.
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>, projection: Option<Projection>) -> Self {
        AggregateOp {
            group_cols,
            aggs,
            projection,
            groups: HashMap::new(),
            key_scratch: Vec::new(),
            bytes: 0,
        }
    }

    /// Groups currently held (tests).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn refresh_bytes(&mut self) {
        self.bytes = self.groups.len()
            * (GROUP_OVERHEAD_BYTES
                + self.aggs.len() * std::mem::size_of::<AggState>()
                + self.group_cols.len() * std::mem::size_of::<Value>());
    }
}

impl PhysicalOp for AggregateOp {
    fn absorb_batch(
        &mut self,
        _side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb> {
        let _ = out; // aggregation emits only on finish
                     // Resolve each aggregate's input column to an `i64` slice once per
                     // batch (COUNT reads no input). Non-integer aggregate inputs error
                     // exactly like the sequential oracle.
        let mut agg_inputs: Vec<Option<&[i64]>> = Vec::with_capacity(self.aggs.len());
        for spec in &self.aggs {
            agg_inputs.push(if spec.func == AggFunc::Count {
                None
            } else {
                Some(cols.int_col(spec.col)?)
            });
        }
        // Global aggregate: no key assembly at all — fold each input
        // column's whole range through the SIMD slice kernels.
        if self.group_cols.is_empty() {
            let states = self
                .groups
                .entry(Vec::new())
                .or_insert_with(|| vec![AggState::new(); self.aggs.len()]);
            for (input, state) in agg_inputs.iter().zip(states.iter_mut()) {
                match input {
                    Some(col) => state.update_slice(&col[range.clone()]),
                    None => state.update_repeat(0, range.len()),
                }
            }
            self.refresh_bytes();
            return Ok(Absorb::Continue);
        }
        for r in range {
            self.key_scratch.clear();
            for &c in &self.group_cols {
                self.key_scratch.push(cols.value_at(c, r)?);
            }
            // Steady state (key already present): one hash lookup, no
            // allocation. Only a new group clones the key out of scratch.
            if let Some(states) = self.groups.get_mut(&self.key_scratch) {
                for (input, state) in agg_inputs.iter().zip(states.iter_mut()) {
                    state.update(input.map_or(0, |col| col[r]));
                }
            } else {
                let mut states = vec![AggState::new(); self.aggs.len()];
                for (input, state) in agg_inputs.iter().zip(states.iter_mut()) {
                    state.update(input.map_or(0, |col| col[r]));
                }
                self.groups.insert(self.key_scratch.clone(), states);
            }
        }
        self.refresh_bytes();
        Ok(Absorb::Continue)
    }

    fn finish(&mut self, out: &mut ColumnBatch) -> Result<()> {
        // A global aggregate emits its one row even over an empty input.
        if self.group_cols.is_empty() && self.groups.is_empty() {
            self.groups
                .insert(Vec::new(), vec![AggState::new(); self.aggs.len()]);
        }
        self.refresh_bytes();
        for (key, states) in self.groups.drain() {
            let mut values = key;
            values.reserve(states.len());
            for (spec, state) in self.aggs.iter().zip(states.iter()) {
                values.push(Value::Int(state.finish(spec.func)?));
            }
            let row = Tuple::new(values);
            out.push_tuple(&match &self.projection {
                Some(p) => p.apply(&row)?,
                None => row,
            })?;
        }
        Ok(())
    }

    fn est_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;

    fn batch(rows: &[[i64; 2]]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        b
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 0, "n"),
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 1, "hi"),
        ]
    }

    fn sorted_rows(out: &ColumnBatch) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = (0..out.rows()).map(|r| out.row(r).unwrap()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn grouped_matches_sequential_oracle() {
        let input = batch(&[[1, 10], [2, 5], [1, 20], [2, 7]]);
        let mut op = AggregateOp::new(vec![0], specs(), None);
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(0, &input, 0..input.rows(), &mut out)
            .unwrap();
        assert!(out.is_empty(), "no output before finish");
        assert_eq!(op.group_count(), 2);
        assert!(op.est_bytes() > 0, "table growth visible before finish");
        op.finish(&mut out).unwrap();
        assert_eq!(
            sorted_rows(&out),
            vec![
                Tuple::from_ints(&[1, 2, 30, 10, 20]),
                Tuple::from_ints(&[2, 2, 12, 5, 7]),
            ]
        );
    }

    #[test]
    fn global_aggregate_emits_one_row_even_when_empty() {
        let mut op = AggregateOp::new(vec![], vec![AggSpec::new(AggFunc::Count, 0, "n")], None);
        let mut out = ColumnBatch::shapeless();
        op.finish(&mut out).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0).unwrap(), Tuple::from_ints(&[0]));
        // MIN over nothing errors like the oracle.
        let mut op = AggregateOp::new(vec![], vec![AggSpec::new(AggFunc::Min, 0, "m")], None);
        assert!(op.finish(&mut ColumnBatch::shapeless()).is_err());
    }

    #[test]
    fn projection_reorders_output() {
        // Layout [g, count] projected to [count, g].
        let mut op = AggregateOp::new(
            vec![0],
            vec![AggSpec::new(AggFunc::Count, 0, "n")],
            Some(Projection::new(vec![1, 0])),
        );
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(0, &batch(&[[7, 1]]), 0..1, &mut out)
            .unwrap();
        op.finish(&mut out).unwrap();
        assert_eq!(out.row(0).unwrap(), Tuple::from_ints(&[1, 7]));
    }

    #[test]
    fn subranges_only_touch_their_rows() {
        let input = batch(&[[1, 100], [1, 1], [1, 2]]);
        let mut op = AggregateOp::new(vec![0], vec![AggSpec::new(AggFunc::Sum, 1, "s")], None);
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(0, &input, 1..3, &mut out).unwrap();
        op.finish(&mut out).unwrap();
        assert_eq!(out.row(0).unwrap(), Tuple::from_ints(&[1, 3]));
    }
}
