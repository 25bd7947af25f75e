//! Main-memory storage substrate.
//!
//! Models the storage side of PRISMA/DB: a shared-nothing collection of node
//! memories holding relation *fragments* ([`FragmentStore`]), a Wisconsin
//! benchmark data generator (the paper's test data, §4.1), the columnar
//! hash partitioner ([`fragment_columns`]) that gives base relations their
//! ideal fragmentation with the same hash the engine's redistribution
//! routes on, the resident [`FragmentCache`] of those fragments and of the
//! join tables over them, and a
//! catalog with the statistics the phase-1 optimizer consumes.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod columnar;
pub mod generator;
pub mod registry;
pub mod skew;
pub mod store;
pub mod wisconsin;

pub use cache::{FragmentCache, FragmentCacheStats, Held, Tables, MAX_VARIANTS_PER_RELATION};
pub use catalog::{Catalog, TableStats};
pub use columnar::{fragment_columns, scan_columns, Fragments};
pub use generator::{PayloadMode, WisconsinGenerator};
pub use registry::{pack_ref, ref_leaf, ref_row, FragmentRegistry};
pub use store::FragmentStore;
