//! Reproduction harness support.
//!
//! The `repro` binary regenerates every figure and table of the paper's
//! evaluation on the `mj_sim` simulator (its module doc lists the
//! experiments); this library holds the shared sweep drivers, ASCII table
//! rendering, and CSV output used by the binary and the Criterion benches.

#![warn(missing_docs)]

pub mod ascii;
pub mod csvout;
pub mod grid;

pub use ascii::format_table;
pub use csvout::write_csv;
pub use grid::{paper_processor_counts, simulate_tree, sweep, SweepPoint, PAPER_SIZES};
