//! Differential coverage of segment groups: an RD right-deep segment run as
//! one process group of `d` instances, each probing its range of the
//! segment's bottom relation through every join of the segment, over build
//! tables all instances share. Checked against the sequential XRA oracle
//! (multiset equality) on the chain, star and skewed families × 1, 2 and 4
//! workers × ad-hoc (also with the late rewrite forced) and prepared, with:
//!
//! * a global `COUNT(*)`, whose carrier column is one of the root join's
//!   keys;
//! * a scan filter on the range-split relation, and one on a shared build
//!   relation;
//! * a `LIMIT` the root's first rows satisfy, so the early stop reaches the
//!   groups while they run;
//! * a cancel, a deadline and a 1-byte budget at a random step.
//!
//! After every query the budget settles at 0, the pool is quiescent, and
//! every slot of a prepared statement's run template holds its scratch set
//! again. The plans name four logical processors, so a group has instances
//! to split over on one worker too, and use the paper's machine model,
//! whose small grain gives these thousand-tuple relations groups of
//! several instances.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use multijoin::core::{OperandSource, ParallelPlan, ScheduleModel};
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, LateMode,
    PreparedStatement, QueryFamily, QueryHandle, QueryOptions,
};
use multijoin::relalg::{JoinAlgorithm, RelalgError, RelationProvider, Value};

mod common;
use common::settled;

type Rows = Vec<Vec<Value>>;

const RELATIONS: usize = 5;
/// Enough rows that every instance takes several scheduling steps, so an
/// abort finds the groups running.
const TUPLES: usize = 1200;
const SEED: u64 = 46;

/// A database over `family`'s instance on `workers` pool threads, and the
/// text joining it end to end (`SELECT * FROM ...`).
fn open(family: QueryFamily, workers: usize, late: LateMode) -> (Database, String) {
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    config.exec.late = late;
    config.planner.processors = 4;
    config.planner.schedule_model = ScheduleModel::prisma();
    let db = Database::open(config).unwrap();
    let instance = generate_family(family, RELATIONS, TUPLES, SEED).unwrap();
    instance.load(&db).unwrap();
    let text = match family {
        QueryFamily::Star => star_query_sql(RELATIONS),
        QueryFamily::Chain | QueryFamily::Skewed => chain_query_sql(RELATIONS),
    };
    (db, text)
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort();
    rows
}

fn rows(relation: &multijoin::relalg::Relation) -> Rows {
    sorted(relation.iter().map(|t| t.values().to_vec()).collect())
}

/// The oracle's rows for `text` (a LIMIT is not applied).
fn oracle(db: &Database, text: &str) -> Rows {
    let planned = db
        .plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)));
    let relation = planned.oracle_xra(JoinAlgorithm::Simple).unwrap();
    rows(&relation.eval(db.catalog().as_ref()).unwrap())
}

/// The relation a segment group of `plan` splits by range, and those it
/// shares as build sides.
fn roles(plan: &ParallelPlan) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut range, mut shared) = (BTreeSet::new(), BTreeSet::new());
    for group in plan.segment_groups() {
        for &id in &group {
            let op = &plan.ops[id];
            if let OperandSource::Base { relation } = &op.left {
                shared.insert(relation.clone());
            }
            if let OperandSource::Base { relation } = &op.right {
                range.insert(relation.clone());
            }
        }
    }
    (range, shared)
}

/// A filter on `relation` that keeps about half its rows: its last
/// column below the middle of that column's values.
fn half_filter(db: &Database, relation: &str, value: &str) -> String {
    let schema = db.catalog().schema(relation).unwrap();
    let column = schema.attrs().last().unwrap().name.clone();
    format!("{relation}.{column} < {value}")
}

fn middle(db: &Database, relation: &str) -> i64 {
    let relation = db.catalog().relation(relation).unwrap();
    let last = relation.schema().arity() - 1;
    let mut values: Vec<i64> = relation
        .iter()
        .map(|t| match &t.values()[last] {
            Value::Int(v) => *v,
            other => panic!("{other:?}"),
        })
        .collect();
    values.sort_unstable();
    values[values.len() / 2]
}

/// Waits until `db`'s pool has no task queued or parked, as after every
/// query: nothing of it is left behind.
fn quiescent(db: &Database, ctx: &str) {
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

/// Drains `handle`: its rows or error, once its budget settled at 0 and
/// the pool is quiescent.
fn finish(db: &Database, mut handle: QueryHandle, ctx: &str) -> Result<Rows, RelalgError> {
    let budget = handle.budget().clone();
    let result = handle.stream().collect_relation();
    let outcome = handle.outcome();
    assert_eq!(settled(&budget), 0, "{ctx}: bytes leaked");
    quiescent(db, ctx);
    outcome.map(|_| rows(&result))
}

/// Every slot of `stmt`'s run template holds a scratch set again.
fn scratch_back(stmt: &PreparedStatement, ctx: &str) {
    let (held, slots) = stmt.template().expect("executed").scratch_held();
    assert!(slots > 0, "{ctx}");
    assert_eq!(held, slots, "{ctx}: a slot's scratch set is missing");
}

/// `got` is what `expected` is, or, under a LIMIT of `limit`, that many of
/// its rows.
fn check(got: &Rows, expected: &Rows, limit: Option<usize>, ctx: &str) {
    let Some(limit) = limit else {
        assert!(
            got == expected,
            "{ctx}: {} rows, oracle {}",
            got.len(),
            expected.len()
        );
        return;
    };
    assert_eq!(got.len(), limit.min(expected.len()), "{ctx}");
    let mut left = expected.clone();
    for row in got {
        let at = left.iter().position(|r| r == row);
        left.swap_remove(at.unwrap_or_else(|| panic!("{ctx}: {row:?} is no answer")));
    }
}

/// A small deterministic generator for the abort points.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

#[test]
fn segment_groups_match_the_oracle_and_leave_nothing_behind() {
    let mut rng = Lcg(SEED);
    // Coverage: which of the interesting plans the sweep actually ran.
    let mut seen = BTreeSet::new();
    // The oracle's answer per family and text: the same for every pool.
    let mut answers: HashMap<(QueryFamily, String), Rows> = HashMap::new();
    for family in QueryFamily::ALL {
        for workers in [1, 2, 4] {
            let (db, text) = open(family, workers, LateMode::Auto);
            // The late rewrite splits and shares narrowed relations.
            let (late, _) = open(family, workers, LateMode::Always);
            let from = &text["SELECT * ".len()..];
            let base = db.plan(&text).unwrap();
            let (range, shared) = roles(&base.plan);
            assert!(
                !range.is_empty(),
                "{family}: no segment group\n{}",
                base.explain()
            );
            let range_rel = range.iter().next().unwrap().clone();
            // A relation a group shares, or else one any join builds on.
            let builds = base.plan.ops.iter().filter_map(|op| match &op.left {
                OperandSource::Base { relation } => Some(relation.clone()),
                _ => None,
            });
            let shared_rel = shared.iter().next().cloned().or_else(|| builds.min());
            let shared_rel = shared_rel.expect("some join builds on a base relation");

            // (label, text with `?1` where a prepared execute binds its
            // argument, that argument, LIMIT).
            let on_range = half_filter(&db, &range_rel, "?1");
            let on_shared = half_filter(&db, &shared_rel, "?1");
            let cases: Vec<(&str, String, Option<i64>, Option<usize>)> = vec![
                ("count", format!("SELECT COUNT(*) {from}"), None, None),
                (
                    "filter on the range-split relation",
                    format!("{text} WHERE {on_range}"),
                    Some(middle(&db, &range_rel)),
                    None,
                ),
                (
                    "filter on a shared build relation",
                    format!("{text} WHERE {on_shared}"),
                    Some(middle(&db, &shared_rel)),
                    None,
                ),
                ("limit", format!("{text} LIMIT 7"), None, Some(7)),
            ];
            for (label, template, arg, limit) in &cases {
                let adhoc = match arg {
                    Some(arg) => template.replace("?1", &arg.to_string()),
                    None => template.clone(),
                };
                let ctx = format!("{family} / {workers} workers / {label}");
                let planned = db.plan(&adhoc).unwrap();
                let (range, shared) = roles(&planned.plan);
                if !range.is_empty() {
                    seen.insert("group");
                }
                if label.contains("range-split") && range.contains(&range_rel) {
                    seen.insert("filtered range-split relation");
                }
                if label.contains("shared") && shared.contains(&shared_rel) {
                    seen.insert("filtered shared relation");
                }
                if *label == "count" {
                    seen.insert("count");
                }
                let expected = answers
                    .entry((family, adhoc.clone()))
                    .or_insert_with(|| oracle(&db, &adhoc))
                    .clone();

                for (db, how) in [(&db, "ad hoc"), (&late, "ad hoc, late")] {
                    let ctx = format!("{ctx} ({how})");
                    let got = finish(db, db.query(&adhoc).unwrap(), &ctx).unwrap();
                    check(&got, &expected, *limit, &ctx);
                }

                let stmt = db.prepare(template).unwrap();
                let args: Vec<i64> = arg.iter().copied().collect();
                for round in 0..2 {
                    let ctx = format!("{ctx} (prepared, execute {round})");
                    let handle = db.execute_prepared(&stmt, &args).unwrap();
                    let got = finish(&db, handle, &ctx).unwrap();
                    check(&got, &expected, *limit, &ctx);
                    scratch_back(&stmt, &ctx);
                }
                if limit.is_some() {
                    continue;
                }

                // Aborted at a random step: the typed error or, if the
                // query won the race, the whole answer.
                let steps = db.engine().pool().steps();
                let wait = rng.below(60);
                let handle = db.execute_prepared(&stmt, &args).unwrap();
                while db.engine().pool().steps() < steps + wait
                    && handle.status() == multijoin::exec::QueryStatus::Running
                {
                    std::thread::yield_now();
                }
                handle.cancel();
                let ctx_cancel = format!("{ctx} (canceled after {wait} steps)");
                match finish(&db, handle, &ctx_cancel) {
                    Ok(got) => check(&got, &expected, None, &ctx_cancel),
                    Err(e) => assert!(matches!(e, RelalgError::Canceled), "{ctx_cancel}: {e}"),
                }
                scratch_back(&stmt, &ctx_cancel);

                let micros = rng.below(3000);
                let opts = QueryOptions::new().with_deadline(Duration::from_micros(micros));
                let handle = db.execute_prepared_with(&stmt, &args, opts).unwrap();
                let ctx_deadline = format!("{ctx} (deadline {micros} us)");
                match finish(&db, handle, &ctx_deadline) {
                    Ok(got) => check(&got, &expected, None, &ctx_deadline),
                    Err(e) => assert!(
                        matches!(e, RelalgError::DeadlineExceeded),
                        "{ctx_deadline}: {e}"
                    ),
                }
                scratch_back(&stmt, &ctx_deadline);

                let opts = QueryOptions::new().with_memory_budget(1);
                let handle = db.execute_prepared_with(&stmt, &args, opts).unwrap();
                let ctx_budget = format!("{ctx} (1-byte budget)");
                let Err(err) = finish(&db, handle, &ctx_budget) else {
                    panic!("{ctx_budget}: finished within its budget");
                };
                assert!(
                    matches!(err, RelalgError::ResourceExhausted { .. }),
                    "{ctx_budget}: {err}"
                );
                scratch_back(&stmt, &ctx_budget);

                // And the statement still answers in full.
                let handle = db.execute_prepared(&stmt, &args).unwrap();
                let got = finish(&db, handle, &format!("{ctx} (after the aborts)")).unwrap();
                check(&got, &expected, None, &ctx);
            }
        }
    }
    let want = [
        "count",
        "filtered range-split relation",
        "filtered shared relation",
        "group",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), want);
}
