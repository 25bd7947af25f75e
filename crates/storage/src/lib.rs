//! Main-memory storage substrate.
//!
//! Models the storage side of PRISMA/DB: a Wisconsin benchmark data
//! generator (the paper's test data, §4.1), the columnar hash partitioner
//! ([`fragment_columns`]) that gives base relations their ideal
//! fragmentation — and materialized intermediates their pieces — with the
//! same hash the engine's redistribution routes on, and a catalog storing
//! each base relation once, as a columnar image with the statistics the
//! phase-1 optimizer consumes and the fragments and join tables built on
//! it ([`cache`]).
//! PRISMA/DB kept fragments in each node's own memory because its nodes
//! shared nothing; here every query runs in one address space, so a
//! materialized intermediate never leaves the query that made it.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod columnar;
pub mod generator;
pub mod registry;
pub mod skew;
pub mod wisconsin;

pub use cache::{Held, ResidentStats, Tables, MAX_VARIANTS_PER_RELATION};
pub use catalog::{Catalog, TableStats};
pub use columnar::{fragment_columns, scan_columns, Fragments};
pub use generator::{PayloadMode, WisconsinGenerator};
pub use registry::{pack_ref, ref_leaf, ref_row, FragmentRegistry};
