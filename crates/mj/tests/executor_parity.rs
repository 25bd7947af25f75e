//! Same plans, same counters. How the executor wires and spawns a query —
//! joins, post-join stages, the result edge — is its own business; what
//! runs and what is counted is not. For the benchmark's query shapes, and
//! one query whose WHERE runs as a scan filter and whose GROUP BY and
//! LIMIT run as post-join stages, the per-query metrics are pinned:
//! operation processes, tuple streams, fused operations, and per operation
//! its kind, instances and estimated rows. They must come out the same through the session front
//! door and through `run_plan` (a transient engine). The database plans as
//! the benchmark's does: one logical processor per worker, two workers.

use multijoin::exec::{generate_family, run_plan, Database, DbConfig, Metrics, QueryFamily};
use multijoin::relalg::RelationProvider;

/// Seed of the benchmark's pinned-shape chain instances.
const SHAPE_SEED: u64 = 1995;

/// `processes`, `streams`, `fused_ops`, and per op `(kind, instances, est_out)`.
type Counters = (usize, usize, usize, Vec<(&'static str, usize, u64)>);

fn counters(metrics: &Metrics) -> Counters {
    let ops = metrics
        .ops
        .iter()
        .map(|op| (op.kind.label(), op.instances, op.est_out))
        .collect();
    (metrics.processes, metrics.streams, metrics.fused_ops, ops)
}

/// A two-worker session (the benchmark's) holding a chain instance of `k`
/// relations of `n` tuples under the names `{prefix}0..`.
fn database(sets: &[(&str, usize, usize)]) -> Database {
    let mut config = DbConfig::default();
    config.exec.workers = 2;
    let db = Database::open(config).unwrap();
    for &(prefix, k, n) in sets {
        let family = generate_family(QueryFamily::Chain, k, n, SHAPE_SEED).unwrap();
        for i in 0..k {
            let relation = family.catalog.relation(&format!("R{i}")).unwrap();
            db.register(format!("{prefix}{i}"), relation).unwrap();
        }
    }
    db.analyze().unwrap();
    db
}

/// `SELECT {list}` over the `k`-chain named `{prefix}0..`, then `tail`.
fn chain_sql(list: &str, prefix: &str, k: usize, tail: &str) -> String {
    let mut q = format!("SELECT {list} FROM {prefix}0");
    for i in 1..k {
        q.push_str(&format!(
            " JOIN {prefix}{i} ON {prefix}{}.b = {prefix}{i}.a",
            i - 1
        ));
    }
    q.push_str(tail);
    q
}

/// One pinned query: its text, its `?1` argument if it is run as a
/// prepared statement, and the counters it must report.
struct Pin {
    name: &'static str,
    text: String,
    arg: Option<i64>,
    expect: Counters,
}

/// Runs `pin` through the front door and through `run_plan`; both must
/// report the pinned counters.
fn check(db: &Database, pin: &Pin) {
    let (mut handle, planned) = match pin.arg {
        Some(arg) => {
            let stmt = db.prepare(&pin.text).unwrap();
            let planned = stmt.planned().bind_params(&[arg]).unwrap();
            (db.execute_prepared(&stmt, &[arg]).unwrap(), planned)
        }
        None => (db.query(&pin.text).unwrap(), db.plan(&pin.text).unwrap()),
    };
    let rows = handle.stream().collect_relation().len();
    let front_door = counters(&handle.outcome().unwrap().metrics);
    assert_eq!(
        front_door, pin.expect,
        "{}: Database counters moved",
        pin.name
    );
    let provider = db.catalog().clone();
    let outcome = run_plan(
        &planned.plan,
        &planned.binding,
        provider,
        db.engine().config(),
    )
    .unwrap();
    assert_eq!(outcome.relation.len(), rows, "{}: run_plan rows", pin.name);
    assert_eq!(
        counters(&outcome.metrics),
        pin.expect,
        "{}: run_plan counters moved",
        pin.name
    );
}

fn join(instances: usize, est_out: u64) -> (&'static str, usize, u64) {
    ("join", instances, est_out)
}

#[test]
fn benchmark_shapes_keep_their_processes_streams_and_operations() {
    let db = database(&[("S", 14, 50), ("H", 6, 40_000), ("W", 2, 30_000)]);
    let short = |arg: &str| chain_sql("*", "S", 14, &format!(" WHERE S1.id < {arg}"));
    let short_ops: Vec<_> = [25, 39, 57, 93, 69, 112, 314, 78, 126, 76, 118, 452, 4_307]
        .map(|est| join(1, est))
        .to_vec();
    let pins = [
        Pin {
            name: "short_prepared",
            text: short("?1"),
            arg: Some(25),
            expect: (1, 0, 12, short_ops.clone()),
        },
        Pin {
            name: "short_adhoc",
            text: short("25"),
            arg: None,
            expect: (1, 0, 12, short_ops.clone()),
        },
        Pin {
            name: "join_heavy",
            text: chain_sql("COUNT(*)", "H", 6, ""),
            arg: None,
            // Each right-deep segment is one segment group of two
            // instances, one per worker: each instance probes half of the
            // segment's bottom relation through every join, over tables it
            // shares with the other, so no tuple is routed or streamed
            // inside a segment. What streams is the first segment's output
            // into the one table the second shares (one piece per
            // instance, 2) and the root into the aggregate (2 x 1).
            expect: (
                5,
                4,
                3,
                vec![
                    join(2, 63_111),
                    join(2, 99_769),
                    join(2, 63_082),
                    join(2, 99_753),
                    join(2, 393_247),
                    ("aggregate", 1, 1),
                ],
            ),
        },
        Pin {
            name: "wide_result",
            text: chain_sql("*", "W", 2, ""),
            arg: None,
            expect: (2, 0, 0, vec![join(2, 47_413)]),
        },
        Pin {
            // `mixed_paced`'s light stream, on a database that also holds
            // the heavy relations, with an argument that selects nothing.
            name: "mixed_paced",
            text: short("?1"),
            arg: Some(0),
            expect: (1, 0, 12, short_ops),
        },
    ];
    for pin in &pins {
        check(&db, pin);
    }
}

#[test]
fn pushed_filter_group_by_and_limit_run_as_pinned_stages() {
    // The WHERE clause runs as a scan filter where W0 is read, so its
    // selectivity shows in the join's estimate and no stage selects;
    // GROUP BY is an aggregate stage and LIMIT a limit stage.
    let db = database(&[("W", 2, 30_000)]);
    let pin = Pin {
        name: "stages",
        text: chain_sql(
            "W0.a, COUNT(*)",
            "W",
            2,
            " WHERE W0.id >= 100 GROUP BY W0.a LIMIT 1000000",
        ),
        arg: None,
        // 2 x 2 + 2 x 1 streams from the root join through the two
        // stages; the result edge is not counted.
        expect: (
            5,
            6,
            0,
            vec![
                join(2, 15_804),
                ("aggregate", 2, 15_804),
                ("limit", 1, 15_804),
            ],
        ),
    };
    check(&db, &pin);
}
