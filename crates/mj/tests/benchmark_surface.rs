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

#[test]
fn the_replay_still_submits_a_planned_query_and_reads_its_counters() {
    // `layers.rs::replay` / `probe` and `knobs.rs`, call for call: an
    // ad-hoc plan handed to the engine as `(&plan, &binding)`, a prepared
    // statement bound and executed, the oracle, and the per-query counters
    // the traced pass reports (`engine.processes`, `engine.streams`,
    // `sched.steps_per_query`, `sched.blocked_share`).
    let instance = generate_family(QueryFamily::Chain, 3, 64, 1).unwrap();
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    config.exec.late = LateMode::Auto;
    config.planner.strategy = Some(Strategy::ALL[2]);
    assert_eq!(Strategy::ALL.map(|s| s.label()).len(), 4);
    let db = Database::open(config).unwrap();
    for name in instance.catalog.names() {
        db.register(name.clone(), instance.catalog.relation(&name).unwrap())
            .unwrap();
    }
    db.analyze().unwrap();
    let text = "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a WHERE R1.id < 7";
    let planned = db.plan(text).unwrap();
    let mut handle = db
        .engine()
        .submit_with(&planned.plan, &planned.binding, QueryOptions::default())
        .unwrap();
    let batches: Vec<Batch> = handle.stream().collect();
    let outcome = handle.outcome().unwrap();
    let metrics = &outcome.metrics;
    let counters: (usize, usize, u64, u64) = (
        metrics.processes,
        metrics.streams,
        metrics.sched_steps,
        metrics.sched_blocked,
    );
    assert!(counters.0 >= 1 && counters.2 >= 1 && counters.3 <= counters.2);
    assert!(metrics.max_q_error() >= 1.0);
    assert!(outcome.elapsed.as_nanos() > 0 && outcome.time_to_first_batch.is_some());
    let rows: usize = batches.iter().map(Batch::len).sum();

    let stmt: std::sync::Arc<PreparedStatement> = db
        .prepare("SELECT * FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ON R1.b = R2.a WHERE R1.id < ?1")
        .unwrap();
    let bound = stmt.planned().bind_params(&[7]).unwrap();
    let oracle = bound
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap();
    let executed = db.execute_prepared(&stmt, &[7]).unwrap().collect().unwrap();
    assert!(executed.multiset_eq(&oracle));
    assert_eq!(rows, oracle.len());
}
