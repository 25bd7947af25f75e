//! The physical-operator abstraction: what an operation process *computes*,
//! separated from how it is scheduled.
//!
//! Since the columnar refactor the interface is batch-oriented: the driver
//! ([`OpTask`](crate::operator::task::OpTask)) hands each operator row
//! *ranges* of columnar chunks ([`ColumnBatch`]) and the operator appends
//! its results column-wise to a shared output batch. There is no per-tuple
//! entry point — vectorized kernels (selection vectors, bulk hash-table
//! inserts, gather-based output assembly) are the only path, and rows are
//! materialized only at the client boundary.
//!
//! Both hash-join algorithms are expressed here over the columnar join
//! table ([`ColumnarTable`]): `SimpleJoinOp` is the classical two-phase
//! build–probe join (\[ScD89\]), `PipeliningJoinOp` the symmetric
//! one-phase join of \[WiA91\] that tables *both* operands and emits
//! matches as early as possible. `aggregate` and `limit` (the first
//! operator that *stops* a running pipeline early) live in their sibling
//! modules.

use std::ops::Range;
use std::sync::Arc;

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;
use mj_relalg::{EquiJoin, JoinAlgorithm, RelalgError, Result};

use crate::operator::scratch::JoinScratch;

/// How the driver should feed an operator's input sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputMode {
    /// Drain side `build` completely (via [`PhysicalOp::build_batch`],
    /// producing no output) before feeding the remaining side — the simple
    /// hash join's two-phase discipline. The build side must be immediate.
    BuildThenProbe {
        /// Which side (0 or 1) is the build input.
        build: usize,
    },
    /// Feed whichever side has rows available, alternating for fairness —
    /// pipelining joins and every single-input operator.
    Interleaved,
}

/// The operator's verdict after absorbing a batch of rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Absorb {
    /// Keep feeding.
    Continue,
    /// The operator's output is already complete (a satisfied LIMIT): the
    /// driver stops feeding, finishes the output port, and raises the
    /// query's early-stop token so upstream operators wind down.
    Satisfied,
}

/// One physical operator: the pure vectorized computation an
/// operation-process instance performs, driven by the scheduling skeleton
/// in [`task`](crate::operator::task).
///
/// Contract:
/// * [`absorb_batch`](Self::absorb_batch) is called with consecutive,
///   non-overlapping row ranges of each input chunk (per side for
///   two-input operators) and may append any number of result rows to
///   `out`; the driver flushes `out` through the output port between
///   quanta.
/// * For [`InputMode::BuildThenProbe`], [`build_batch`](Self::build_batch)
///   receives every build-side row first, then
///   [`finish_build`](Self::finish_build) is called exactly once before
///   the first `absorb_batch`.
/// * [`finish`](Self::finish) is called exactly once after every input is
///   exhausted (or the operator reported [`Absorb::Satisfied`]); operators
///   with held state (aggregation) emit it there.
pub trait PhysicalOp: Send {
    /// How the driver should feed the inputs.
    fn input_mode(&self) -> InputMode {
        InputMode::Interleaved
    }

    /// Absorbs build-side rows `range` of `cols`
    /// ([`InputMode::BuildThenProbe`] only). The build operand is
    /// immediate, so `cols` is its shared chunk itself, and an operator may
    /// keep the `Arc` and index the rows where they lie instead of copying
    /// them. Successive calls pass consecutive ranges of a chunk. There is
    /// one chunk per operand, except that a one-instance read of several
    /// materialized producer fragments passes them one after another.
    fn build_batch(&mut self, cols: &Arc<ColumnBatch>, range: Range<usize>) -> Result<()> {
        let _ = (cols, range);
        Err(RelalgError::InvalidPlan(
            "this operator has no build phase".into(),
        ))
    }

    /// Takes `table`, complete, as the build side
    /// ([`InputMode::BuildThenProbe`] only): a resident table over a base
    /// operand ([`Source::Table`](crate::source::Source::Table)), called
    /// instead of [`build_batch`](Self::build_batch).
    fn adopt_table(&mut self, table: Arc<ColumnarTable>) -> Result<()> {
        let _ = table;
        Err(RelalgError::InvalidPlan(
            "this operator cannot adopt a build table".into(),
        ))
    }

    /// The build side is exhausted ([`InputMode::BuildThenProbe`] only).
    fn finish_build(&mut self) {}

    /// Absorbs rows `range` of `cols` arriving on input `side`, appending
    /// result rows to `out` column-wise.
    fn absorb_batch(
        &mut self,
        side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb>;

    /// Every input is exhausted: emit any held state into `out`.
    fn finish(&mut self, out: &mut ColumnBatch) -> Result<()> {
        let _ = out;
        Ok(())
    }

    /// Estimated bytes of operator-held state (hash tables), for the
    /// memory metrics.
    fn est_bytes(&self) -> usize {
        0
    }

    /// The buffers the operator works in that its task may lend it: the
    /// task swaps the ones its statement kept in before the operator's
    /// first row, and swaps them out again when the operator is done
    /// ([`JoinScratch`]). `None`: the operator keeps its own.
    fn scratch(&mut self) -> Option<&mut JoinScratch> {
        None
    }
}

/// The simple (two-phase build–probe) hash join as a [`PhysicalOp`]
/// (§2.3.2): side 0 builds, side 1 probes. The build operand's chunk is
/// indexed in place ([`ColumnarTable::index`]): the table shares it, sizes
/// its index once, and links one quantum of rows per call, copying
/// nothing. An unfiltered base operand needs not even that: its table is
/// resident with its fragment, and the join adopts it
/// ([`adopt_table`](PhysicalOp::adopt_table)) in no quanta at all. Each
/// probe batch hashes its key column a group at a time, collects
/// `(build_row, probe_row)` match pairs, and assembles the output with one
/// column-wise gather. The table it indexes and the pairs vector are its
/// [`JoinScratch`], which its task may lend it.
pub struct SimpleJoinOp {
    /// Shared by every instance of the operation.
    spec: Arc<EquiJoin>,
    /// Its own build table and the match-pair scratch, reused across probe
    /// batches.
    scratch: JoinScratch,
    /// A resident build table adopted whole, probed instead of its own.
    resident: Option<Arc<ColumnarTable>>,
}

impl SimpleJoinOp {
    /// Creates the operator for one join spec.
    pub fn new(spec: impl Into<Arc<EquiJoin>>) -> Self {
        SimpleJoinOp {
            spec: spec.into(),
            scratch: JoinScratch::default(),
            resident: None,
        }
    }

    /// The table it probes: the adopted one, or its own.
    fn table(&self) -> &ColumnarTable {
        self.resident.as_deref().unwrap_or(&self.scratch.table)
    }

    /// Build rows tabled so far (tests).
    pub fn build_len(&self) -> usize {
        self.table().len()
    }
}

impl PhysicalOp for SimpleJoinOp {
    fn input_mode(&self) -> InputMode {
        InputMode::BuildThenProbe { build: 0 }
    }

    fn build_batch(&mut self, cols: &Arc<ColumnBatch>, range: Range<usize>) -> Result<()> {
        if self.resident.is_some() {
            return Err(RelalgError::InvalidPlan(
                "an adopted build table takes no more rows".into(),
            ));
        }
        self.scratch.table.index(cols, self.spec.left_key, range)
    }

    fn adopt_table(&mut self, table: Arc<ColumnarTable>) -> Result<()> {
        if table.key_col() != self.spec.left_key {
            return Err(RelalgError::InvalidPlan(format!(
                "a table on column {} is no build side of a join on column {}",
                table.key_col(),
                self.spec.left_key
            )));
        }
        self.resident = Some(table);
        Ok(())
    }

    fn absorb_batch(
        &mut self,
        side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb> {
        debug_assert_eq!(side, 1, "simple join absorbs only its probe side");
        let keys = cols.int_col(self.spec.right_key)?;
        let JoinScratch { pairs, table } = &mut self.scratch;
        let table = self.resident.as_deref().unwrap_or(&*table);
        pairs.clear();
        table.probe_into(keys, range, pairs);
        table.emit_matches(cols, self.spec.projection.cols(), pairs, true, out)?;
        Ok(Absorb::Continue)
    }

    fn est_bytes(&self) -> usize {
        self.table().est_bytes()
    }

    fn scratch(&mut self) -> Option<&mut JoinScratch> {
        Some(&mut self.scratch)
    }
}

/// The symmetric pipelining hash join as a [`PhysicalOp`] (\[WiA91\]):
/// either side may arrive first; both sides build and both probe. Each
/// arriving batch first probes the *other* operand's partial table
/// (emitting matches) and is then bulk-inserted into its own.
pub struct PipeliningJoinOp {
    /// Shared by every instance of the operation.
    spec: Arc<EquiJoin>,
    left: ColumnarTable,
    right: ColumnarTable,
    /// Match-pair scratch, reused across batches.
    pairs: Vec<(u32, u32)>,
}

impl PipeliningJoinOp {
    /// Creates the operator for one join spec.
    pub fn new(spec: impl Into<Arc<EquiJoin>>) -> Self {
        PipeliningJoinOp {
            spec: spec.into(),
            left: ColumnarTable::new(),
            right: ColumnarTable::new(),
            pairs: Vec::new(),
        }
    }

    /// Rows tabled so far on (left, right) (tests).
    pub fn table_lens(&self) -> (usize, usize) {
        (self.left.len(), self.right.len())
    }
}

impl PhysicalOp for PipeliningJoinOp {
    fn absorb_batch(
        &mut self,
        side: usize,
        cols: &ColumnBatch,
        range: Range<usize>,
        out: &mut ColumnBatch,
    ) -> Result<Absorb> {
        let proj = self.spec.projection.cols();
        self.pairs.clear();
        if side == 0 {
            // Probe the right table with our keys. `probe_into` yields
            // (tabled_row, arriving_row); the arriving rows are the *left*
            // source of the concatenation, so swap each pair.
            let keys = cols.int_col(self.spec.left_key)?;
            self.right.probe_into(keys, range.clone(), &mut self.pairs);
            for p in &mut self.pairs {
                *p = (p.1, p.0);
            }
            self.right
                .emit_matches(cols, proj, &self.pairs, false, out)?;
            self.left.insert_batch(cols, self.spec.left_key, range)?;
        } else {
            let keys = cols.int_col(self.spec.right_key)?;
            self.left.probe_into(keys, range.clone(), &mut self.pairs);
            self.left.emit_matches(cols, proj, &self.pairs, true, out)?;
            self.right.insert_batch(cols, self.spec.right_key, range)?;
        }
        Ok(Absorb::Continue)
    }

    fn est_bytes(&self) -> usize {
        self.left.est_bytes() + self.right.est_bytes()
    }
}

/// Builds the join operator for `algorithm` over `spec` — the single
/// construction point of the engine's joins. The instances of one
/// operation share its spec.
pub fn join_op(algorithm: JoinAlgorithm, spec: impl Into<Arc<EquiJoin>>) -> Box<dyn PhysicalOp> {
    match algorithm {
        JoinAlgorithm::Simple => Box::new(SimpleJoinOp::new(spec)),
        JoinAlgorithm::Pipelining => Box::new(PipeliningJoinOp::new(spec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::{Projection, Tuple};

    fn batch(rows: &[[i64; 2]]) -> Arc<ColumnBatch> {
        let mut b = ColumnBatch::with_capacity(&ColumnLayout::ints(2), rows.len());
        for r in rows {
            b.push_tuple(&Tuple::from_ints(r)).unwrap();
        }
        Arc::new(b)
    }

    fn spec() -> EquiJoin {
        // R(a, k) ⋈ S(k, b) on R.k = S.k, keeping [a, k, b].
        EquiJoin::new(1, 0, Projection::new(vec![0, 1, 3]))
    }

    fn sorted_rows(out: &ColumnBatch) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = (0..out.rows()).map(|r| out.row(r).unwrap()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn simple_join_builds_then_probes() {
        let mut op = SimpleJoinOp::new(spec());
        assert_eq!(op.input_mode(), InputMode::BuildThenProbe { build: 0 });
        let build = batch(&[[10, 1], [20, 2], [11, 1]]);
        op.build_batch(&build, 0..build.rows()).unwrap();
        op.finish_build();
        assert_eq!(op.build_len(), 3);
        assert!(op.est_bytes() > 0);

        let probe = batch(&[[1, 100], [3, 300], [2, 200]]);
        let mut out = ColumnBatch::shapeless();
        assert_eq!(
            op.absorb_batch(1, &probe, 0..probe.rows(), &mut out)
                .unwrap(),
            Absorb::Continue
        );
        assert_eq!(
            sorted_rows(&out),
            vec![
                Tuple::from_ints(&[10, 1, 100]),
                Tuple::from_ints(&[11, 1, 100]),
                Tuple::from_ints(&[20, 2, 200]),
            ]
        );
    }

    #[test]
    fn simple_join_adopts_a_resident_table_and_probes_it_alike() {
        let build = batch(&[[10, 1], [20, 2], [11, 1]]);
        let mut resident = ColumnarTable::new();
        resident.index(&build, 1, 0..build.rows()).unwrap();
        let resident = Arc::new(resident);

        let mut op = SimpleJoinOp::new(spec());
        op.adopt_table(resident.clone()).unwrap();
        op.finish_build();
        assert_eq!(op.build_len(), 3);
        assert_eq!(op.est_bytes(), resident.est_bytes(), "priced as if built");
        assert!(op.build_batch(&build, 0..1).is_err(), "nothing to add to");
        let probe = batch(&[[1, 100], [3, 300], [2, 200]]);
        let mut out = ColumnBatch::shapeless();
        op.absorb_batch(1, &probe, 0..probe.rows(), &mut out)
            .unwrap();
        assert_eq!(
            sorted_rows(&out),
            vec![
                Tuple::from_ints(&[10, 1, 100]),
                Tuple::from_ints(&[11, 1, 100]),
                Tuple::from_ints(&[20, 2, 200]),
            ]
        );

        // A table on another column is no build side of this join, and the
        // pipelining join builds its own tables.
        let mut other = ColumnarTable::new();
        other.index(&build, 0, 0..build.rows()).unwrap();
        let mut fresh = SimpleJoinOp::new(spec());
        assert!(fresh.adopt_table(Arc::new(other)).is_err());
        assert!(PipeliningJoinOp::new(spec()).adopt_table(resident).is_err());
    }

    #[test]
    fn pipelining_join_emits_early_from_both_sides() {
        let mut op = PipeliningJoinOp::new(spec());
        assert_eq!(op.input_mode(), InputMode::Interleaved);
        let mut out = ColumnBatch::shapeless();

        let l1 = batch(&[[10, 1], [20, 2]]);
        op.absorb_batch(0, &l1, 0..2, &mut out).unwrap();
        assert_eq!(out.rows(), 0, "no right rows tabled yet");

        let r1 = batch(&[[1, 100]]);
        op.absorb_batch(1, &r1, 0..1, &mut out).unwrap();
        assert_eq!(sorted_rows(&out), vec![Tuple::from_ints(&[10, 1, 100])]);

        // A later left arrival matches the already-tabled right row.
        let l2 = batch(&[[11, 1]]);
        op.absorb_batch(0, &l2, 0..1, &mut out).unwrap();
        assert_eq!(op.table_lens(), (3, 1));
        assert_eq!(
            sorted_rows(&out),
            vec![
                Tuple::from_ints(&[10, 1, 100]),
                Tuple::from_ints(&[11, 1, 100])
            ]
        );
        assert!(op.est_bytes() > 0);
    }

    #[test]
    fn pipelining_matches_simple_on_same_input() {
        let left = batch(&[[1, 5], [2, 5], [3, 7], [4, 9]]);
        let right = batch(&[[5, 50], [7, 70], [5, 51]]);

        let mut simple = SimpleJoinOp::new(spec());
        simple.build_batch(&left, 0..left.rows()).unwrap();
        simple.finish_build();
        let mut s_out = ColumnBatch::shapeless();
        simple
            .absorb_batch(1, &right, 0..right.rows(), &mut s_out)
            .unwrap();

        let mut pipe = PipeliningJoinOp::new(spec());
        let mut p_out = ColumnBatch::shapeless();
        pipe.absorb_batch(0, &left, 0..left.rows(), &mut p_out)
            .unwrap();
        pipe.absorb_batch(1, &right, 0..right.rows(), &mut p_out)
            .unwrap();

        assert_eq!(sorted_rows(&s_out), sorted_rows(&p_out));
        // Keys 5×(5,5) and 7×7 match: 2·2 + 1 = 5 result rows.
        assert_eq!(s_out.rows(), 5);
    }

    #[test]
    fn pipelining_costs_more_memory() {
        // §2.3.2: the pipelining join produces output earlier "at the cost
        // of using more memory" — it tables both operands, the simple join
        // only its build side. Two 1-1 permutation operands of 500 rows.
        let left = batch(&(0..500).map(|i| [i, i * 101 % 500]).collect::<Vec<_>>());
        let right = batch(&(0..500).map(|i| [i * 103 % 500, i]).collect::<Vec<_>>());

        let mut simple = SimpleJoinOp::new(spec());
        simple.build_batch(&left, 0..left.rows()).unwrap();
        simple.finish_build();
        let mut s_out = ColumnBatch::shapeless();
        let mut pipe = PipeliningJoinOp::new(spec());
        let mut p_out = ColumnBatch::shapeless();
        for start in (0..500).step_by(64) {
            let range = start..(start + 64).min(500);
            simple
                .absorb_batch(1, &right, range.clone(), &mut s_out)
                .unwrap();
            pipe.absorb_batch(0, &left, range.clone(), &mut p_out)
                .unwrap();
            pipe.absorb_batch(1, &right, range, &mut p_out).unwrap();
        }
        assert_eq!((s_out.rows(), p_out.rows()), (500, 500));
        assert!(
            pipe.est_bytes() > simple.est_bytes(),
            "pipelining {} B vs simple {} B",
            pipe.est_bytes(),
            simple.est_bytes()
        );
    }

    #[test]
    fn factory_picks_algorithm() {
        let op = join_op(JoinAlgorithm::Simple, spec());
        assert_eq!(op.input_mode(), InputMode::BuildThenProbe { build: 0 });
        let mut op = join_op(JoinAlgorithm::Pipelining, spec());
        assert_eq!(op.input_mode(), InputMode::Interleaved);
        // Interleaved operators reject the build phase.
        assert!(op.build_batch(&Arc::default(), 0..0).is_err());
    }
}
