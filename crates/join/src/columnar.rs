//! A columnar hash-join table: build rows stored column-wise, probes run
//! over whole key slices.
//!
//! The build side is kept as a [`ColumnBatch`] plus a dense `keys` column,
//! indexed by a bucket-head/next-chain structure (`u32` links, power-of-two
//! buckets, 7/8 load factor). Probing takes a whole probe-side key slice and
//! collects `(build_row, probe_row)` match pairs; output assembly is then one
//! column-wise gather through the join's projection
//! ([`ColumnBatch::append_concat_gather`]) instead of per-tuple
//! concatenation — the vectorized hot path of `SimpleJoinOp` and
//! `PipeliningJoinOp`.

use std::sync::atomic::{AtomicU64, Ordering};

use mj_relalg::column::ColumnBatch;
use mj_relalg::hash::mix_key;
use mj_relalg::Result;

/// Process-wide count of join output rows materialized by gather emission
/// ([`ColumnarTable::emit_matches`]) — the observable cost late
/// materialization shrinks.
static GATHER_ROWS: AtomicU64 = AtomicU64::new(0);

/// Join output rows gathered (build+probe payload materialization) since
/// process start.
pub fn gather_rows() -> u64 {
    GATHER_ROWS.load(Ordering::Relaxed)
}

const EMPTY: u32 = u32::MAX;
/// Grow when entries exceed buckets * LOAD_NUM / LOAD_DEN.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// A multimap from `i64` join keys to build rows stored as columns.
pub struct ColumnarTable {
    /// Build rows, column-wise. Starts shapeless; adopts the layout of the
    /// first inserted batch.
    rows: ColumnBatch,
    /// The join key of each stored row (densely, probe loops scan this).
    keys: Vec<i64>,
    /// Head row index per bucket (`EMPTY` when vacant).
    buckets: Vec<u32>,
    /// Chain link per stored row (`next[i]` is the previous head of `i`'s
    /// bucket).
    next: Vec<u32>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
}

impl ColumnarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates a table sized for about `n` build rows.
    pub fn with_capacity(n: usize) -> Self {
        let buckets = (n * LOAD_DEN / LOAD_NUM).next_power_of_two().max(16);
        ColumnarTable {
            rows: ColumnBatch::shapeless(),
            keys: Vec::with_capacity(n),
            buckets: vec![EMPTY; buckets],
            next: Vec::with_capacity(n),
            mask: (buckets - 1) as u64,
        }
    }

    /// Number of stored build rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The stored build rows, column-wise (gather source for output
    /// assembly).
    pub fn rows(&self) -> &ColumnBatch {
        &self.rows
    }

    fn ensure_load(&mut self, adding: usize) {
        while self.keys.len() + adding > self.buckets.len() * LOAD_NUM / LOAD_DEN {
            let new_len = self.buckets.len() * 2;
            self.buckets.clear();
            self.buckets.resize(new_len, EMPTY);
            self.mask = (new_len - 1) as u64;
            for (i, &k) in self.keys.iter().enumerate() {
                let b = (mix_key(k) & self.mask) as usize;
                self.next[i] = self.buckets[b];
                self.buckets[b] = i as u32;
            }
        }
    }

    fn link_from(&mut self, first_new: usize) {
        for i in first_new..self.keys.len() {
            let b = (mix_key(self.keys[i]) & self.mask) as usize;
            self.next.push(self.buckets[b]);
            self.buckets[b] = i as u32;
        }
    }

    /// Bulk-inserts rows `range` of `batch`, keyed by its `key_col` column:
    /// the rows are appended column-wise, the key slice copied densely, and
    /// the chains linked in one pass — the vectorized build loop.
    pub fn insert_batch(
        &mut self,
        batch: &ColumnBatch,
        key_col: usize,
        range: std::ops::Range<usize>,
    ) -> Result<()> {
        let keys = batch.int_col(key_col)?;
        self.ensure_load(range.len());
        let first_new = self.keys.len();
        self.rows.append_rows(batch, range.clone())?;
        self.keys.extend_from_slice(&keys[range]);
        self.link_from(first_new);
        Ok(())
    }

    /// Probes the table with rows `range` of the `probe_keys` slice,
    /// appending every `(build_row, probe_row)` match to `pairs`. The
    /// caller turns the pairs into output rows with one
    /// [`ColumnBatch::append_concat_gather`].
    pub fn probe_into(
        &self,
        probe_keys: &[i64],
        range: std::ops::Range<usize>,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        for r in range {
            let key = probe_keys[r];
            let mut idx = self.buckets[(mix_key(key) & self.mask) as usize];
            while idx != EMPTY {
                let i = idx as usize;
                if self.keys[i] == key {
                    pairs.push((idx, r as u32));
                }
                idx = self.next[i];
            }
        }
    }

    /// Emits the matched join rows: for every pair, the projected
    /// concatenation of a stored build row and a `probe` row, gathered
    /// column-at-a-time. This is the **single** gather-emission point of
    /// the join operators (CI greps forbid direct
    /// [`ColumnBatch::append_concat_gather`] calls in operator internals),
    /// so the process-wide [`gather_rows`] counter sees every materialized
    /// join row.
    ///
    /// `build_left` states which operand of the projection's virtual
    /// concatenation the build side is; `pairs` must already be in
    /// `(left_row, right_row)` orientation (callers probing a *right*
    /// build table swap the `(build, probe)` pairs first).
    pub fn emit_matches(
        &self,
        probe: &ColumnBatch,
        cols: &[usize],
        pairs: &[(u32, u32)],
        build_left: bool,
        out: &mut ColumnBatch,
    ) -> Result<()> {
        GATHER_ROWS.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        if build_left {
            out.append_concat_gather(&self.rows, probe, cols, pairs)
        } else {
            out.append_concat_gather(probe, &self.rows, cols, pairs)
        }
    }

    /// Approximate resident bytes: the columnar build rows plus the dense
    /// key column and the bucket/chain index.
    pub fn est_bytes(&self) -> usize {
        self.rows.est_bytes() as usize
            + self.keys.len() * std::mem::size_of::<i64>()
            + (self.buckets.len() + self.next.len()) * std::mem::size_of::<u32>()
    }
}

impl Default for ColumnarTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    fn batch(rows: &[[i64; 2]]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        b
    }

    #[test]
    fn bulk_insert_and_probe_match_row_table() {
        let build = batch(&[[1, 10], [2, 20], [1, 11], [3, 30]]);
        let mut table = ColumnarTable::new();
        table.insert_batch(&build, 0, 0..build.rows()).unwrap();
        assert_eq!(table.len(), 4);

        let probe_keys = [1i64, 3, 9];
        let mut pairs = Vec::new();
        table.probe_into(&probe_keys, 0..probe_keys.len(), &mut pairs);
        let mut hits: Vec<(i64, i64)> = pairs
            .iter()
            .map(|&(b, p)| {
                (
                    table.rows().int_col(1).unwrap()[b as usize],
                    probe_keys[p as usize],
                )
            })
            .collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![(10, 1), (11, 1), (30, 3)]);
    }

    #[test]
    fn growth_preserves_chains() {
        let mut table = ColumnarTable::with_capacity(4);
        let mut all = Vec::new();
        for k in 0..10_000i64 {
            all.push([k % 100, k]);
        }
        let b = batch(&all.iter().map(|r| [r[0], r[1]]).collect::<Vec<_>>());
        table.insert_batch(&b, 0, 0..b.rows()).unwrap();
        let keys: Vec<i64> = (0..100).collect();
        let mut pairs = Vec::new();
        table.probe_into(&keys, 0..keys.len(), &mut pairs);
        assert_eq!(pairs.len(), 10_000, "every build row matches once");
    }

    #[test]
    fn negative_and_extreme_keys() {
        let keys = [i64::MIN, -1, 0, 1, i64::MAX];
        let rows: Vec<[i64; 2]> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| [k, i as i64])
            .collect();
        let b = batch(&rows);
        let mut table = ColumnarTable::new();
        table.insert_batch(&b, 0, 0..b.rows()).unwrap();
        for (i, k) in keys.into_iter().enumerate() {
            let mut pairs = Vec::new();
            table.probe_into(&[k], 0..1, &mut pairs);
            assert_eq!(pairs, vec![(i as u32, 0)], "key {k}");
        }
        assert!(table.est_bytes() > 0);
    }

    #[test]
    fn empty_table_probes_nothing() {
        let table = ColumnarTable::new();
        let mut pairs = Vec::new();
        table.probe_into(&[1, 2, 3], 0..3, &mut pairs);
        assert!(pairs.is_empty());
    }
}
