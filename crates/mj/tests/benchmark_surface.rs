//! `benchmark/` is a workspace of its own that tier-1 never compiles, and a
//! PR that claims a gain may not edit it — so a rename here would break
//! the benchmark silently. This target imports every item `benchmark/src`
//! imports from the engine's crates, under the same paths, and pins the
//! signatures of the free functions it calls on storage-layer data.

#![allow(unused_imports)]

use multijoin::core::Strategy;
use multijoin::exec::stream::Batch;
use multijoin::exec::{
    generate_family, Database, DbConfig, LateMode, PreparedStatement, QueryFamily, QueryOptions,
};
use multijoin::join::ColumnarTable;
use multijoin::relalg::column::ColumnBatch;
use multijoin::relalg::{
    simd, CmpOp, JoinAlgorithm, Relation, RelationProvider, Result, Tuple, Value,
};
use multijoin::server::protocol::{
    batch_frame_bin_into, batch_frame_into, decode_bin_payload, parse_request,
};
use multijoin::server::{Client, Prepared, Request, Server, ServerConfig, WireColumn};
use multijoin::storage::scan_columns;

#[test]
fn the_kernels_pass_still_reads_a_catalog_relation_through_scan_columns() {
    // `layers.rs::kernels`: catalog relation -> columns -> table build,
    // probe, select and gather on the dense slices.
    let scan: fn(&Relation) -> Result<ColumnBatch> = scan_columns;
    let instance = generate_family(QueryFamily::Chain, 2, 64, 1).unwrap();
    let right = scan(&instance.catalog.relation("R1").unwrap()).unwrap();
    let left = scan(&instance.catalog.relation("R0").unwrap()).unwrap();
    let n = right.rows();
    let mut table = ColumnarTable::with_capacity(n);
    table.insert_batch(&right, 0, 0..n).unwrap();
    let mut pairs = Vec::new();
    table.probe_into(left.int_col(1).unwrap(), 0..n, &mut pairs);
    let mut selection = Vec::new();
    simd::select_cmp(right.int_col(2).unwrap(), CmpOp::Lt, 32, &mut selection);
    let mut gathered = Vec::new();
    simd::gather_i64(right.int_col(0).unwrap(), &selection, &mut gathered);
    assert_eq!((table.len(), selection.len(), gathered.len()), (n, 32, 32));
}
