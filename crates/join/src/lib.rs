//! The hash-join table behind the paper's two join algorithms (§2.3.2).
//!
//! Both algorithms run on the execution engine as operators over one
//! [`ColumnarTable`] per hashed operand (`SimpleJoinOp` / `PipeliningJoinOp`
//! in `mj_exec::operator::op`):
//!
//! * the **simple hash-join** (\[ScD89\]) builds one table on its build
//!   operand and probes it with the other; no output can be produced before
//!   the entire build operand has been consumed;
//! * the **pipelining hash-join** (\[WiA91\]) is symmetric: it builds a table
//!   on *both* operands, and each arriving batch first probes the other
//!   operand's partial table and is then inserted into its own. Output is
//!   produced as early as possible, at the price of a second table.
//!
//! The table is a bucket-head/next-chain index over build rows stored
//! column-wise: one shared [`ColumnBatch`] plus the position of its key
//! column, so probes read the key slice where it lies. The simple join
//! indexes its build operand's chunk in place ([`ColumnarTable::index`]: no
//! copy, no rehash) — or, over an unfiltered base relation, adopts the
//! table its `mj_storage` catalog entry built once and keeps resident beside
//! the fragment it indexes; the pipelining join appends to tables that grow
//! ([`ColumnarTable::insert_batch`]). A probe takes a whole key slice,
//! walks the chains of a block of keys in lockstep (one link per key per
//! round, matches counted without a branch; a table small enough to stay
//! in cache walks one chain after another instead), and collects
//! `(build_row, probe_row)` match pairs; output assembly is one
//! column-wise gather ([`ColumnarTable::emit_matches`]).
//! [`ColumnarTable::est_bytes`] is the byte accounting behind the paper's
//! RD-vs-FP memory discussion (§5) and the engine's memory budget.
//!
//! [`ColumnBatch`]: mj_relalg::column::ColumnBatch

#![warn(missing_docs)]

pub mod columnar;

pub use columnar::{gather_rows, ColumnarTable};
