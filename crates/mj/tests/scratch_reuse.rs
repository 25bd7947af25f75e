//! Reuse safety of the buffers a prepared statement's run template lends
//! its executes: a fused member's output batch, its match pairs and the
//! arrays of its build table come back emptied after every execute and are
//! written again by the next, so nothing one execute leaves in them may
//! reach another. Checked against the sequential XRA oracle on the
//! benchmark's short query (the 14 x 50 chain, one fused process):
//!
//! * one statement executed with a shrinking, then growing, argument:
//!   a smaller result never carries rows of the larger one before it;
//! * the statement executed from two threads at once, each execute
//!   working in its own set;
//! * an execute aborted mid-group — canceled, past its deadline, over its
//!   budget, failed at a fused member — then a normal execute.
//!
//! Every case also waits for the query's memory budget to settle at 0:
//! the lent sets are charged while lent and credited when given back.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use multijoin::core::plan_ir::OperandSource;
use multijoin::exec::{
    generate_family, Database, DbConfig, FaultKind, FaultPlan, FaultPoint, PreparedStatement,
    QueryFamily, QueryOptions,
};
use multijoin::relalg::{JoinAlgorithm, RelalgError, RelationProvider, Value};

mod common;
use common::settled;

type Rows = Vec<Vec<Value>>;

const RELATIONS: usize = 14;

/// The benchmark's short query on its pinned-shape data, two workers:
/// `(db, statement text with ?1)`.
fn chain_db() -> (Database, String) {
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    let db = Database::open(config).unwrap();
    let family = generate_family(QueryFamily::Chain, RELATIONS, 50, 1995).unwrap();
    let mut sql = String::from("SELECT * FROM S0");
    for i in 0..RELATIONS {
        let relation = family.catalog.relation(&format!("R{i}")).unwrap();
        db.register(format!("S{i}"), relation).unwrap();
        if i > 0 {
            sql.push_str(&format!(" JOIN S{i} ON S{}.b = S{i}.a", i - 1));
        }
    }
    sql.push_str(" WHERE S1.id < ?1");
    db.analyze().unwrap();
    (db, sql)
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort();
    rows
}

/// The oracle's rows for the statement with `?1` bound to `arg`.
fn oracle(db: &Database, text: &str, arg: i64) -> Rows {
    let text = text.replace("?1", &arg.to_string());
    let relation = db
        .plan(&text)
        .unwrap()
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap();
    sorted(relation.iter().map(|t| t.values().to_vec()).collect())
}

/// One execute with `opts`: its rows, or its error, once its budget has
/// settled at 0.
fn execute(
    db: &Database,
    stmt: &Arc<PreparedStatement>,
    arg: i64,
    opts: QueryOptions,
) -> Result<Rows, RelalgError> {
    let handle = db.execute_prepared_with(stmt, &[arg], opts).unwrap();
    let budget = handle.budget().clone();
    let rows = handle
        .collect()
        .map(|relation| sorted(relation.iter().map(|t| t.values().to_vec()).collect()));
    assert_eq!(settled(&budget), 0, "?1 = {arg}: the budget settles");
    rows
}

#[test]
fn a_shrinking_result_never_carries_rows_of_the_execute_before() {
    let (db, text) = chain_db();
    let stmt = db.prepare(&text).unwrap();
    let mut handle = db.execute_prepared(&stmt, &[49]).unwrap();
    let _ = handle.stream().count();
    let metrics = handle.outcome().unwrap().metrics;
    assert!(metrics.fused_ops > 0, "the members share one process");
    for arg in [49, 0, 25, 0, 49] {
        let rows = execute(&db, &stmt, arg, QueryOptions::new()).unwrap();
        assert_eq!(rows, oracle(&db, &text, arg), "?1 = {arg}");
    }
    assert!(oracle(&db, &text, 0).is_empty() && !oracle(&db, &text, 49).is_empty());
}

#[test]
fn two_threads_executing_one_statement_each_work_in_their_own_set() {
    let (db, text) = chain_db();
    let stmt = db.prepare(&text).unwrap();
    let expected: Vec<Rows> = (0..50).map(|arg| oracle(&db, &text, arg)).collect();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for args in [[49i64, 3, 30], [0, 47, 12]] {
            let (db, stmt, expected, start) = (&db, &stmt, &expected, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..20 {
                    for arg in args {
                        let rows = execute(db, stmt, arg, QueryOptions::new()).unwrap();
                        assert_eq!(rows, expected[arg as usize], "round {round}, ?1 = {arg}");
                    }
                }
            });
        }
    });
}

#[test]
fn an_execute_aborted_mid_group_leaves_its_set_fit_for_the_next() {
    let (db, text) = chain_db();
    let stmt = db.prepare(&text).unwrap();
    let expected = oracle(&db, &text, 49);
    assert_eq!(
        execute(&db, &stmt, 49, QueryOptions::new()).unwrap(),
        expected
    );
    // A member in the middle of the fused group: the members before it
    // have handed it their results when it fails or stalls.
    let plan = &stmt.planned().plan;
    let mut fused: Vec<usize> = plan
        .ops
        .iter()
        .flat_map(|op| [&op.left, &op.right])
        .filter_map(|operand| match operand {
            OperandSource::Fused { from } => Some(*from),
            _ => None,
        })
        .collect();
    fused.sort_unstable();
    assert!(fused.len() >= 4, "a fused chain: {fused:?}");
    let middle = fused[fused.len() / 2];
    let at_middle = |kind| {
        let point = FaultPoint::new("join", 1, kind).at_op(middle);
        QueryOptions::new().with_faults(FaultPlan::new().with_point(point))
    };

    // Canceled while parked in the middle of the group.
    let handle = db
        .execute_prepared_with(&stmt, &[49], at_middle(FaultKind::Stall))
        .unwrap();
    let budget = handle.budget().clone();
    handle.cancel();
    let err = handle.collect().expect_err("canceled");
    assert!(matches!(err, RelalgError::Canceled), "{err}");
    assert_eq!(settled(&budget), 0, "cancel: the budget settles");
    assert_eq!(
        execute(&db, &stmt, 49, QueryOptions::new()).unwrap(),
        expected
    );

    let deadline = at_middle(FaultKind::Stall).with_deadline(Duration::from_millis(20));
    let budget = QueryOptions::new().with_memory_budget(1);
    let failed = at_middle(FaultKind::Error);
    for (ctx, opts) in [
        ("deadline", deadline),
        ("budget", budget),
        ("fault", failed),
    ] {
        let err = execute(&db, &stmt, 49, opts).expect_err(ctx);
        let typed = match ctx {
            "deadline" => matches!(err, RelalgError::DeadlineExceeded),
            "budget" => matches!(err, RelalgError::ResourceExhausted { budget: 1, .. }),
            _ => matches!(&err, RelalgError::InvalidPlan(m) if m.contains("injected failure")),
        };
        assert!(typed, "{ctx}: {err}");
        for arg in [49, 0, 25] {
            let rows = execute(&db, &stmt, arg, QueryOptions::new()).unwrap();
            assert_eq!(rows, oracle(&db, &text, arg), "after {ctx}: ?1 = {arg}");
        }
    }
    let pool = db.engine().pool();
    assert_eq!(
        (pool.queued(), pool.parked()),
        (0, 0),
        "nothing left running"
    );
}
