//! Helpers shared by the integration tests. Each suite compiles its own
//! copy of this module and calls only some of them.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use multijoin::exec::{Database, MemoryBudget, Metrics, PreparedStatement, QueryHandle};
use multijoin::relalg::{JoinAlgorithm, RelalgError, Relation, RelationProvider, Value};

/// A result as rows of values, sorted: multisets compare with `==`.
pub type Rows = Vec<Vec<Value>>;

pub fn sorted(mut rows: Rows) -> Rows {
    rows.sort();
    rows
}

/// `relation`'s rows, sorted.
pub fn rows(relation: &Relation) -> Rows {
    sorted(relation.iter().map(|t| t.values().to_vec()).collect())
}

/// The sequential XRA oracle's answer to `text` over `relations`, planned
/// on `db` (a plan's logical query does not depend on the data). A LIMIT
/// is not applied.
pub fn oracle_over(db: &Database, text: &str, relations: &dyn RelationProvider) -> Relation {
    db.plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(relations)
        .unwrap()
}

/// The oracle's answer to `text` over `db`'s catalog.
pub fn oracle(db: &Database, text: &str) -> Relation {
    oracle_over(db, text, db.catalog().as_ref())
}

/// The oracle's answer to `text` over `db`'s catalog, sorted.
pub fn oracle_rows(db: &Database, text: &str) -> Rows {
    rows(&oracle(db, text))
}

/// The bytes `budget` still holds once its query is fully gone. A query's
/// outcome is published by the task that concludes it, which drops its
/// edge buffers (crediting them back) a moment later, so this waits up to
/// ten seconds for the count to reach zero.
pub fn settled(budget: &MemoryBudget) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while budget.used() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    budget.used()
}

/// Waits until `db`'s pool has no task queued or parked, as after every
/// query: nothing of it is left behind.
pub fn quiescent(db: &Database, ctx: &str) {
    let pool = db.engine().pool();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (pool.queued() > 0 || pool.parked() > 0) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        (pool.queued(), pool.parked()),
        (0, 0),
        "{ctx}: pool not quiescent"
    );
}

/// Drains `handle`: its sorted rows and metrics, or its error, once its
/// budget settled at 0 and the pool is quiescent.
pub fn finish(
    db: &Database,
    mut handle: QueryHandle,
    ctx: &str,
) -> Result<(Rows, Metrics), RelalgError> {
    let result = handle.stream().collect_relation();
    conclude(db, handle, &result, ctx)
}

/// [`finish`] for a `handle` whose stream was drained into `result`.
pub fn conclude(
    db: &Database,
    handle: QueryHandle,
    result: &Relation,
    ctx: &str,
) -> Result<(Rows, Metrics), RelalgError> {
    let budget = handle.budget().clone();
    let outcome = handle.outcome();
    assert_eq!(settled(&budget), 0, "{ctx}: bytes leaked");
    quiescent(db, ctx);
    outcome.map(|outcome| (rows(result), outcome.metrics))
}

/// Every slot of `stmt`'s run template holds its scratch set again.
pub fn scratch_back(stmt: &PreparedStatement, ctx: &str) {
    let (held, slots) = stmt.template().expect("executed").scratch_held();
    assert!(slots > 0, "{ctx}");
    assert_eq!(held, slots, "{ctx}: a slot's scratch set is missing");
}
