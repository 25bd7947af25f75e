//! A columnar hash-join table: a bucket-head/next-chain index over build
//! rows stored column-wise, probed with whole key slices.
//!
//! The build rows are one [`ColumnBatch`] behind an `Arc` plus the position
//! of its key column; probes read the key slice straight from it (`u32`
//! links, power-of-two buckets, 7/8 load factor). There are two ways in:
//!
//! * [`ColumnarTable::index`] — the simple join's build. Its operand is an
//!   immutable, already shared chunk, so the table adopts the chunk where
//!   it lies, sizes the index once for all of its rows, and links a range
//!   of them per call. No row or key is copied and nothing rehashes. A
//!   table indexed whole this way over a base fragment never changes, so
//!   the relation's catalog entry keeps it resident and shares it.
//! * [`ColumnarTable::insert_batch`] — the pipelining join's tables, which
//!   grow batch by batch. Rows are appended through `Arc::make_mut` (free
//!   for a table nobody shares) and the index rehashes as it grows.
//!
//! [`ColumnarTable::probe_into`] walks the chains of a block of probe keys
//! in lockstep: every key of the block loads its bucket head, then each
//! round advances every key still on a chain by one link, so the
//! independent cache misses of a round overlap and the loop has no
//! data-dependent branch. A table small enough to stay in cache has no
//! misses to overlap, and there a plain walk, one key's chain after
//! another, is cheaper than the lockstep's bookkeeping. Either way the
//! probe collects `(build_row, probe_row)` match pairs; output assembly is
//! then one column-wise gather through the join's projection
//! ([`ColumnarTable::emit_matches`]) instead of per-tuple concatenation —
//! the vectorized hot path of `SimpleJoinOp` and `PipeliningJoinOp`.
//!
//! A table buckets a key by the high half of [`mix_key`]: rows reach a
//! join instance by `mix_key(k) % d` (the router and the fragmentation),
//! so at a power-of-two degree the low bits of every key an instance holds
//! agree, and bucketing by them would use one bucket in `d`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mj_relalg::column::ColumnBatch;
use mj_relalg::hash::mix_key;
use mj_relalg::{RelalgError, Result};

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
/// Buckets are at most LOAD_NUM / LOAD_DEN full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;
/// Probe keys whose chains are walked in lockstep (the task quantum).
const BLOCK: usize = 512;
/// Linked rows from which a probe walks chains in lockstep. Below it the
/// index and keys (about 20 bytes a row) fit in a core's L2 with room to
/// spare, and walking one chain at a time measured up to 2x faster per
/// key (50-row tables: 3.5 against 6–10 ns; 40 K rows: 16 against 6 ns).
const LOCKSTEP_ROWS: usize = 4096;

/// The rows of a table that holds none yet.
static NO_ROWS: ColumnBatch = ColumnBatch::shapeless();

/// A multimap from `i64` join keys to build rows stored as columns.
#[derive(Debug, Default)]
pub struct ColumnarTable {
    /// Build rows, column-wise: a chunk indexed where it lies (shared with
    /// the operand that holds it), or the rows `insert_batch` appended.
    /// `None` until the first rows arrive.
    rows: Option<Arc<ColumnBatch>>,
    /// The join key column of `rows`.
    key_col: usize,
    /// Head row index per bucket (`EMPTY` when vacant).
    buckets: Vec<u32>,
    /// Chain link per linked row (`next[i]` is the previous head of `i`'s
    /// bucket). Rows `0..next.len()` of `rows` are linked.
    next: Vec<u32>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
}

impl ColumnarTable {
    /// Creates an empty table; it allocates nothing until rows arrive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table sized for about `n` build rows.
    pub fn with_capacity(n: usize) -> Self {
        let mut table = Self::new();
        table.reset(n);
        table
    }

    /// Number of stored build rows.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The stored build rows, column-wise (gather source for output
    /// assembly). An adopted chunk is returned whole.
    pub fn rows(&self) -> &ColumnBatch {
        self.rows.as_deref().unwrap_or(&NO_ROWS)
    }

    /// The column of [`rows`](Self::rows) the table is keyed on.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Empties the index and sizes it for `n` rows: the smallest
    /// power-of-two bucket count (at least 16) within the load factor.
    fn reset(&mut self, n: usize) {
        let buckets = (n * LOAD_DEN).div_ceil(LOAD_NUM).next_power_of_two();
        self.buckets.clear();
        self.buckets.resize(buckets.max(16), EMPTY);
        self.mask = (self.buckets.len() - 1) as u64;
        self.next.clear();
        self.next.reserve_exact(n);
    }

    /// The bucket of `key`: the high half of its hash, since the low half
    /// is what partitioned the rows among instances.
    fn bucket(&self, key: i64) -> usize {
        (mix_key(key).rotate_right(32) & self.mask) as usize
    }

    /// Links the next `keys.len()` rows: row `len() + i` has key `keys[i]`.
    fn link(&mut self, keys: &[i64]) {
        for &key in keys {
            let b = self.bucket(key);
            self.next.push(self.buckets[b]);
            self.buckets[b] = (self.next.len() - 1) as u32;
        }
    }

    /// Indexes rows `range` of `chunk`, keyed by its `key_col` column,
    /// where they lie. The first call on an empty table adopts the chunk
    /// (sharing it) and sizes the index once for all of its rows; each
    /// call then links the next consecutive range of it, so nothing is
    /// copied and nothing rehashes. Rows of any other chunk, or out of
    /// order, are appended as by [`insert_batch`](Self::insert_batch),
    /// which copies the adopted chunk once.
    pub fn index(
        &mut self,
        chunk: &Arc<ColumnBatch>,
        key_col: usize,
        range: Range<usize>,
    ) -> Result<()> {
        if self.is_empty() {
            self.reset(chunk.rows());
            self.rows = Some(chunk.clone());
            self.key_col = key_col;
        }
        let in_place = self.rows.as_ref().is_some_and(|r| Arc::ptr_eq(r, chunk))
            && key_col == self.key_col
            && range.start == self.len();
        if !in_place {
            return self.insert_batch(chunk, key_col, range);
        }
        self.link(&chunk.int_col(key_col)?[range]);
        Ok(())
    }

    /// Bulk-inserts rows `range` of `batch`, keyed by its `key_col` column:
    /// the rows are appended column-wise and the chains linked in one pass.
    /// When the new rows would overload the buckets, the index is resized
    /// and every row relinked.
    pub fn insert_batch(
        &mut self,
        batch: &ColumnBatch,
        key_col: usize,
        range: Range<usize>,
    ) -> Result<()> {
        let keys = &batch.int_col(key_col)?[range.clone()];
        if self.is_empty() {
            self.key_col = key_col;
        } else if key_col != self.key_col {
            return Err(RelalgError::SchemaMismatch(format!(
                "a table keyed on column {} cannot take rows keyed on column {key_col}",
                self.key_col
            )));
        }
        let linked = self.len();
        let rows = self.rows.get_or_insert_with(Default::default);
        if rows.rows() > linked {
            // An adopted chunk linked only in part: keep its linked rows.
            let mut prefix = ColumnBatch::shapeless();
            prefix.append_rows(rows, 0..linked)?;
            *rows = Arc::new(prefix);
        }
        // Copies a shared chunk once; free for a table nobody shares.
        Arc::make_mut(rows).append_rows(batch, range)?;
        if (linked + keys.len()) * LOAD_DEN > self.buckets.len() * LOAD_NUM {
            let rows = rows.clone();
            self.reset(rows.rows());
            self.link(rows.int_col(key_col)?);
        } else {
            self.link(keys);
        }
        Ok(())
    }

    /// Probes the table with rows `range` of the `probe_keys` slice,
    /// appending every `(build_row, probe_row)` match to `pairs`, which
    /// grows by matches only. A table of at least `LOCKSTEP_ROWS` rows
    /// walks its chains in lockstep, block by block: each round visits
    /// every key of the block that is still on a chain once, records the
    /// candidate row, counts it only if its key is equal, and steps to the
    /// next link, so pairs come round by round (ascending probe row within
    /// a round). A smaller one walks each key's chain in turn. The caller
    /// turns the pairs into output rows with one
    /// [`ColumnBatch::append_concat_gather`].
    pub fn probe_into(&self, probe_keys: &[i64], range: Range<usize>, pairs: &mut Vec<(u32, u32)>) {
        if self.is_empty() {
            return;
        }
        let keys = self.rows().int_col(self.key_col);
        let keys = keys.expect("linked rows have an integer key column");
        if self.len() < LOCKSTEP_ROWS {
            for (r, &key) in (range.start as u32..).zip(&probe_keys[range]) {
                let mut row = self.buckets[self.bucket(key)];
                while row != EMPTY {
                    if keys[row as usize] == key {
                        pairs.push((row, r));
                    }
                    row = self.next[row as usize];
                }
            }
            return;
        }
        // `live[..alive]`: `(candidate row, key index)` of every key of the
        // block still on a chain, in block order.
        let mut live = [(0u32, 0u32); BLOCK];
        let mut hits = [(0u32, 0u32); BLOCK];
        let mut first = range.start as u32;
        for block in probe_keys[range].chunks(BLOCK) {
            let mut alive = 0;
            for (j, &key) in (0..).zip(block) {
                let head = self.buckets[self.bucket(key)];
                live[alive] = (head, j);
                alive += usize::from(head != EMPTY);
            }
            while alive > 0 {
                let (mut matched, mut kept) = (0, 0);
                for t in 0..alive {
                    let (row, j) = live[t];
                    hits[matched] = (row, first + j);
                    matched += usize::from(keys[row as usize] == block[j as usize]);
                    let next = self.next[row as usize];
                    live[kept] = (next, j);
                    kept += usize::from(next != EMPTY);
                }
                pairs.extend_from_slice(&hits[..matched]);
                alive = kept;
            }
            first += block.len() as u32;
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
            out.append_concat_gather(self.rows(), probe, cols, pairs)
        } else {
            out.append_concat_gather(probe, self.rows(), cols, pairs)
        }
    }

    /// Approximate resident bytes: the build rows, shared or owned, plus
    /// the bucket/chain index.
    pub fn est_bytes(&self) -> usize {
        self.rows().est_bytes() as usize + self.index_bytes()
    }

    /// Bytes of the bucket/chain index alone: 4 per bucket plus 4 per
    /// linked row.
    pub fn index_bytes(&self) -> usize {
        (self.buckets.len() + self.next.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::Tuple;

    fn batch(rows: &[[i64; 2]]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        b
    }

    /// `[key, row number]` rows.
    fn keyed(keys: &[i64]) -> Arc<ColumnBatch> {
        let rows: Vec<[i64; 2]> = (0..).zip(keys).map(|(i, &k)| [k, i]).collect();
        Arc::new(batch(&rows))
    }

    /// Indexes all of `chunk` on column 0 in `quantum`-row calls.
    fn indexed(chunk: &Arc<ColumnBatch>, quantum: usize) -> ColumnarTable {
        let mut table = ColumnarTable::new();
        for start in (0..chunk.rows()).step_by(quantum) {
            let end = (start + quantum).min(chunk.rows());
            table.index(chunk, 0, start..end).unwrap();
        }
        table
    }

    /// The probe one key at a time: hash, walk the chain, next key.
    fn scalar_probe(table: &ColumnarTable, probe: &[i64], range: Range<usize>) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        if table.is_empty() {
            return pairs;
        }
        for r in range {
            let mut idx = table.buckets[table.bucket(probe[r])];
            while idx != EMPTY {
                if table.rows().int_col(table.key_col).unwrap()[idx as usize] == probe[r] {
                    pairs.push((idx, r as u32));
                }
                idx = table.next[idx as usize];
            }
        }
        pairs
    }

    /// Every `(build_row, probe_row)` with equal keys, by brute force.
    fn nested_loop(build: &[i64], probe: &[i64], range: Range<usize>) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for r in range {
            for (b, &k) in build.iter().enumerate() {
                if k == probe[r] {
                    pairs.push((b as u32, r as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The probe matches the scalar walk and the brute-force join as
    /// multisets.
    fn assert_probe_matches(
        table: &ColumnarTable,
        build: &[i64],
        probe: &[i64],
        range: Range<usize>,
    ) {
        let mut probed = Vec::new();
        table.probe_into(probe, range.clone(), &mut probed);
        probed.sort_unstable();
        let mut scalar = scalar_probe(table, probe, range.clone());
        scalar.sort_unstable();
        assert_eq!(probed, scalar, "{range:?}");
        assert_eq!(
            probed,
            nested_loop(build, probe, range.clone()),
            "{range:?}"
        );
    }

    /// `keys` followed by distinct keys from `pad_from` up to the size at
    /// which a table probes in lockstep.
    fn lockstep_sized(mut keys: Vec<i64>, pad_from: i64) -> Vec<i64> {
        let pad = LOCKSTEP_ROWS.saturating_sub(keys.len()) as i64;
        keys.extend(pad_from..pad_from + pad);
        keys
    }

    /// Bucket heads in use.
    fn heads(table: &ColumnarTable) -> usize {
        table.buckets.iter().filter(|&&b| b != EMPTY).count()
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
        let all: Vec<[i64; 2]> = (0..10_000i64).map(|k| [k % 100, k]).collect();
        let b = batch(&all);
        for start in (0..b.rows()).step_by(300) {
            table
                .insert_batch(&b, 0, start..(start + 300).min(b.rows()))
                .unwrap();
        }
        let keys: Vec<i64> = (0..100).collect();
        let mut pairs = Vec::new();
        table.probe_into(&keys, 0..keys.len(), &mut pairs);
        assert_eq!(pairs.len(), 10_000, "every build row matches once");
    }

    #[test]
    fn grouped_probe_equals_the_scalar_walk_on_odd_and_offset_ranges() {
        let build: Vec<i64> = (0..1000).map(|i| i * 7 % 600).collect();
        let table = indexed(&keyed(&build), 512);
        let probe: Vec<i64> = (0..777).map(|i| i * 5 % 700 - 50).collect();
        for range in [
            0..777,
            0..1,
            0..15,
            0..16,
            0..17,
            3..3,
            5..21,
            13..45,
            100..611,
            761..777,
        ] {
            assert_probe_matches(&table, &build, &probe, range);
        }
    }

    #[test]
    fn lockstep_probe_equals_the_scalar_walk_across_block_boundaries() {
        let build: Vec<i64> = (0..LOCKSTEP_ROWS as i64 + 900)
            .map(|i| i * 11 % 2900)
            .collect();
        let table = indexed(&keyed(&build), 512);
        let probe: Vec<i64> = (0..2400).map(|i| i * 3 % 3100 - 40).collect();
        for len in [511, 512, 513, 1100] {
            for start in [0, 37, 1000] {
                assert_probe_matches(&table, &build, &probe, start..start + len);
            }
        }
    }

    #[test]
    fn lockstep_probe_walks_a_thousand_deep_chain() {
        let build = lockstep_sized(std::iter::repeat_n(7, 1000).collect(), 100);
        let table = indexed(&keyed(&build), 512);
        let probe = [7, 8, 7, 7];
        assert_probe_matches(&table, &build, &probe, 0..4);
        let mut pairs = Vec::new();
        table.probe_into(&probe, 1..3, &mut pairs);
        assert_eq!(pairs.len(), 1000);
        assert!(pairs.iter().all(|&(_, r)| r == 2), "only probe row 2 is 7");
    }

    #[test]
    fn lockstep_probe_walks_chains_of_other_keys_to_no_match() {
        let build = lockstep_sized(Vec::new(), 0);
        let table = indexed(&keyed(&build), 512);
        // Absent keys whose buckets hold rows: every chain is walked to its
        // end, and no entry on it matches.
        let probe: Vec<i64> = (10_000..100_000)
            .filter(|&k| table.buckets[table.bucket(k)] != EMPTY)
            .take(700)
            .collect();
        assert_eq!(probe.len(), 700);
        assert_probe_matches(&table, &build, &probe, 0..700);
        let mut pairs = Vec::new();
        table.probe_into(&probe, 0..700, &mut pairs);
        assert!(pairs.is_empty());
    }

    #[test]
    fn one_bucket_of_a_split_spreads_over_the_whole_table() {
        // The rows one instance of an 8-way join holds all share the
        // router's bucket, `mix_key(k) % 8`; the table must not bucket them
        // by those bits.
        let split: Vec<i64> = (0..160_000)
            .filter(|&k| bucket_of(k, 8) == 0)
            .take(20_000)
            .collect();
        let unsplit: Vec<i64> = (0..20_000).collect();
        let (split, unsplit) = (indexed(&keyed(&split), 512), indexed(&keyed(&unsplit), 512));
        assert_eq!(split.buckets.len(), unsplit.buckets.len());
        let (a, b) = (heads(&split), heads(&unsplit));
        assert!(a * 10 >= b * 9 && b * 10 >= a * 9, "{a} vs {b} heads");
    }

    #[test]
    fn grouped_probe_equals_the_scalar_walk_on_a_skewed_build() {
        // One key a thousand times over, then 500 unique keys.
        let build: Vec<i64> = std::iter::repeat_n(42, 1000).chain(1000..1500).collect();
        let table = indexed(&keyed(&build), 512);
        let probe: Vec<i64> = (0..100)
            .map(|i| if i % 3 == 0 { 42 } else { 990 + i })
            .collect();
        assert_probe_matches(&table, &build, &probe, 0..100);
        assert_probe_matches(&table, &build, &probe, 7..61);
    }

    #[test]
    fn negative_and_extreme_keys() {
        let keys = [i64::MIN, -1, 0, 1, i64::MAX, -7_000_000_000];
        let table = indexed(&keyed(&keys), 2);
        for (i, k) in keys.into_iter().enumerate() {
            let mut pairs = Vec::new();
            table.probe_into(&[k], 0..1, &mut pairs);
            assert_eq!(pairs, vec![(i as u32, 0)], "key {k}");
        }
        let probe: Vec<i64> = keys
            .iter()
            .rev()
            .chain(&[i64::MIN + 1, 2])
            .copied()
            .collect();
        assert_probe_matches(&table, &keys, &probe, 0..probe.len());
        assert!(table.est_bytes() > 0);
    }

    #[test]
    fn empty_table_probes_nothing() {
        let mut pairs = Vec::new();
        ColumnarTable::new().probe_into(&[1, 2, 3], 0..3, &mut pairs);
        ColumnarTable::with_capacity(100).probe_into(&[1, 2, 3], 0..3, &mut pairs);
        // A chunk of no rows indexes into an empty table, too.
        let empty = keyed(&[]);
        let table = indexed(&empty, 512);
        table.probe_into(&[1, 2, 3], 0..3, &mut pairs);
        assert!(pairs.is_empty());
        assert_eq!(table.rows().rows(), 0);
    }

    #[test]
    fn indexing_shares_the_chunk() {
        let build: Vec<i64> = (0..2000).map(|i| i % 300).collect();
        let chunk = keyed(&build);
        let before = Arc::strong_count(&chunk);
        let table = indexed(&chunk, 512);
        assert!(std::ptr::eq(table.rows(), &*chunk), "no copy of the rows");
        assert_eq!(Arc::strong_count(&chunk), before + 1);
        assert_eq!(table.len(), 2000);
        // The index was sized once: 2000 rows at 7/8 load need 4096 buckets.
        assert_eq!(table.buckets.len(), 4096);
        let probe: Vec<i64> = (-5..320).collect();
        assert_probe_matches(&table, &build, &probe, 0..probe.len());
        drop(table);
        assert_eq!(Arc::strong_count(&chunk), before);
    }

    #[test]
    fn a_second_chunk_copies_the_first_once() {
        let (first, second): (Vec<i64>, Vec<i64>) = ((0..700).collect(), (350..1200).collect());
        let (a, b) = (keyed(&first), keyed(&second));
        let mut table = indexed(&a, 512);
        for start in (0..b.rows()).step_by(512) {
            table
                .index(&b, 0, start..(start + 512).min(b.rows()))
                .unwrap();
        }
        assert!(
            !std::ptr::eq(table.rows(), &*a),
            "the shared chunk was copied"
        );
        assert_eq!(Arc::strong_count(&a), 1, "and the copy let go of it");
        assert_eq!(table.len(), 1550);
        assert_eq!(table.rows().rows(), 1550, "each row stored once");
        let build: Vec<i64> = first.iter().chain(&second).copied().collect();
        let probe: Vec<i64> = (300..1300).collect();
        assert_probe_matches(&table, &build, &probe, 0..probe.len());
    }

    #[test]
    fn a_chunk_left_half_linked_keeps_only_its_linked_rows() {
        let (a, b) = (keyed(&[1, 2, 3, 4]), keyed(&[3, 5]));
        let mut table = ColumnarTable::new();
        table.index(&a, 0, 0..2).unwrap();
        table.index(&b, 0, 0..2).unwrap();
        assert_eq!((table.len(), table.rows().rows()), (4, 4));
        assert_probe_matches(&table, &[1, 2, 3, 5], &[1, 2, 3, 4, 5], 0..5);
    }
}
