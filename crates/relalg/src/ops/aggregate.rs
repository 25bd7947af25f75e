//! Grouped aggregation, used by the example applications (the paper's XRA
//! includes grouping primitives; the reproduction's examples aggregate join
//! results).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{RelalgError, Result};
use crate::relation::Relation;
use crate::schema::{Attribute, DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Aggregate functions over an integer column (COUNT ignores the column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of an integer column.
    Sum,
    /// Minimum of an integer column.
    Min,
    /// Maximum of an integer column.
    Max,
}

/// One aggregate to compute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggSpec {
    /// The function to apply.
    pub func: AggFunc,
    /// The input column (ignored for COUNT; use 0).
    pub col: usize,
    /// Output attribute name.
    pub name: String,
}

impl AggSpec {
    /// Creates an aggregate spec.
    pub fn new(func: AggFunc, col: usize, name: impl Into<String>) -> Self {
        AggSpec {
            func,
            col,
            name: name.into(),
        }
    }
}

/// Incremental accumulator behind one aggregate of one group. Public so
/// the parallel aggregation operator in `mj-exec` shares the exact
/// semantics (wrapping sums, empty-group MIN/MAX errors) of the sequential
/// oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggState {
    count: i64,
    sum: i64,
    min: Option<i64>,
    max: Option<i64>,
}

impl AggState {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        AggState {
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Folds one input value in (COUNT callers pass any value).
    pub fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Folds a whole slice in — equivalent to [`update`](Self::update) per
    /// element (including wrapping-sum semantics) but runs the SIMD slice
    /// kernels ([`sum_i64`](crate::simd::sum_i64) and friends). The bulk
    /// path of the global-aggregate operator in `mj-exec`.
    pub fn update_slice(&mut self, vs: &[i64]) {
        if vs.is_empty() {
            return;
        }
        self.count += vs.len() as i64;
        self.sum = self.sum.wrapping_add(crate::simd::sum_i64(vs));
        if let Some(lo) = crate::simd::min_i64(vs) {
            self.min = Some(self.min.map_or(lo, |m| m.min(lo)));
        }
        if let Some(hi) = crate::simd::max_i64(vs) {
            self.max = Some(self.max.map_or(hi, |m| m.max(hi)));
        }
    }

    /// Folds the value `v` in `n` times without materializing a slice —
    /// equivalent to `n` calls to [`update`](Self::update). COUNT's bulk
    /// path (`v = 0`).
    pub fn update_repeat(&mut self, v: i64, n: usize) {
        if n == 0 {
            return;
        }
        self.count += n as i64;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n as i64));
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// The final value under `func`. MIN/MAX over an empty accumulator is
    /// an error (there is no value to return), matching the oracle.
    pub fn finish(&self, func: AggFunc) -> Result<i64> {
        match func {
            AggFunc::Count => Ok(self.count),
            AggFunc::Sum => Ok(self.sum),
            AggFunc::Min => self
                .min
                .ok_or_else(|| RelalgError::InvalidPlan("MIN over empty group".into())),
            AggFunc::Max => self
                .max
                .ok_or_else(|| RelalgError::InvalidPlan("MAX over empty group".into())),
        }
    }
}

/// Groups `input` by `group_cols` and computes `aggs` per group. Output
/// schema is the group columns followed by one integer column per aggregate.
/// With empty `group_cols`, produces exactly one output row (global
/// aggregate), even for empty input (COUNT = 0; MIN/MAX error).
pub fn aggregate(input: &Relation, group_cols: &[usize], aggs: &[AggSpec]) -> Result<Relation> {
    let in_schema = input.schema();
    let mut attrs = Vec::with_capacity(group_cols.len() + aggs.len());
    for &c in group_cols {
        attrs.push(in_schema.attr(c)?.clone());
    }
    for a in aggs {
        attrs.push(Attribute::new(a.name.clone(), DataType::Int));
    }
    let out_schema = Arc::new(Schema::new(attrs));

    // BTreeMap gives deterministic group order, which keeps test output and
    // examples stable across runs.
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    if group_cols.is_empty() {
        groups.insert(Vec::new(), aggs.iter().map(|_| AggState::new()).collect());
    }
    for t in input {
        let mut key = Vec::with_capacity(group_cols.len());
        for &c in group_cols {
            key.push(t.get(c)?.clone());
        }
        let states = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|_| AggState::new()).collect());
        for (spec, state) in aggs.iter().zip(states.iter_mut()) {
            let v = if spec.func == AggFunc::Count {
                0
            } else {
                t.int(spec.col)?
            };
            state.update(v);
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut values = key;
        for (spec, state) in aggs.iter().zip(states.iter()) {
            values.push(Value::Int(state.finish(spec.func)?));
        }
        out.push(Tuple::new(values));
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[[i64; 2]]) -> Relation {
        let schema = Schema::new(vec![Attribute::int("g"), Attribute::int("v")]).shared();
        Relation::new(schema, rows.iter().map(|r| Tuple::from_ints(r)).collect()).unwrap()
    }

    #[test]
    fn grouped_aggregates() {
        let r = rel(&[[1, 10], [2, 5], [1, 20], [2, 7]]);
        let out = aggregate(
            &r,
            &[0],
            &[
                AggSpec::new(AggFunc::Count, 0, "n"),
                AggSpec::new(AggFunc::Sum, 1, "s"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
                AggSpec::new(AggFunc::Max, 1, "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuples()[0], Tuple::from_ints(&[1, 2, 30, 10, 20]));
        assert_eq!(out.tuples()[1], Tuple::from_ints(&[2, 2, 12, 5, 7]));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let r = rel(&[]);
        let out = aggregate(&r, &[], &[AggSpec::new(AggFunc::Count, 0, "n")]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], Tuple::from_ints(&[0]));
        assert!(aggregate(&r, &[], &[AggSpec::new(AggFunc::Min, 1, "m")]).is_err());
    }

    #[test]
    fn output_schema_names() {
        let r = rel(&[[1, 2]]);
        let out = aggregate(&r, &[0], &[AggSpec::new(AggFunc::Sum, 1, "total")]).unwrap();
        assert_eq!(out.schema().attr(0).unwrap().name, "g");
        assert_eq!(out.schema().attr(1).unwrap().name, "total");
    }
}
