//! Differential tests for *mixed-degree* plans: the grain rule gives a
//! 50-tuple join one process and a 56 000-tuple join eight, so adjacent
//! operations differ in degree — 1→8 and 8→1 stream edges, materialized
//! intermediates written by one degree and bucket-scanned by another,
//! single-instance operands that share the base relation instead of
//! partitioning it. Every plan is checked against the sequential XRA
//! oracle, under the default (measured) schedule model, on chain, star and
//! skewed fixtures × all four strategies × 1/2/4 workers × batch sizes on
//! both sides of the chunk boundary, with exact fragment reclaim and pool
//! quiescence after each run. Every query runs twice on its database —
//! cold, then warm from the resident fragment cache — and the warm run must
//! build nothing and return the same multiset.

use std::collections::BTreeSet;
use std::sync::Arc;

use multijoin::core::{OperandSource, ParallelPlan, Strategy};
use multijoin::exec::{Database, DbConfig, PlannedQuery};
use multijoin::relalg::{Attribute, JoinAlgorithm, Relation, Schema, Tuple};

const SMALL: i64 = 50;
/// Large enough that a join scanning it holds eight grains of work.
const BIG: i64 = 56_000;

fn relation(cols: &[&str], rows: i64, row: impl Fn(i64) -> Vec<i64>) -> Arc<Relation> {
    let schema = Arc::new(Schema::new(
        cols.iter().map(|c| Attribute::int(*c)).collect(),
    ));
    let tuples = (0..rows).map(|i| Tuple::from_ints(&row(i))).collect();
    Arc::new(Relation::new(schema, tuples).unwrap())
}

/// A data set and the queries run on it. Big relations are never adjacent
/// and every join into one is selective, so the nested-loop oracle stays
/// at `SMALL x BIG` comparisons per join.
struct Fixture {
    name: &'static str,
    relations: Vec<(&'static str, Arc<Relation>)>,
    queries: Vec<String>,
}

/// `S0 - B1 - S2 - B3`: small and big relations alternate; big ones have
/// unique `a`, so each small row finds at most one partner.
fn chain() -> Fixture {
    let abc = ["a", "b", "id"];
    let joins = "FROM S0 JOIN B1 ON S0.b = B1.a JOIN S2 ON B1.b = S2.a JOIN B3 ON S2.b = B3.a";
    Fixture {
        name: "chain",
        relations: vec![
            ("S0", relation(&abc, SMALL, |i| vec![i, (i * 7) % 64, i])),
            ("B1", relation(&abc, BIG, |i| vec![i, i % SMALL, i])),
            ("S2", relation(&abc, SMALL, |i| vec![i, (i * 11) % 60, i])),
            ("B3", relation(&abc, BIG, |i| vec![i, i % 97, i])),
        ],
        queries: vec![
            format!("SELECT * {joins}"),
            format!("SELECT S2.a, COUNT(*), SUM(B3.id) {joins} WHERE S0.id < 40 GROUP BY S2.a"),
        ],
    }
}

/// The same alternation with duplicate and skewed keys: two big rows per
/// key, small relations that repeat a few hot values, so streams into and
/// out of the single-instance joins carry uneven buckets.
fn skewed() -> Fixture {
    let abc = ["a", "b", "id"];
    let joins = "FROM S0 JOIN B1 ON S0.b = B1.a JOIN S2 ON B1.b = S2.a \
                 JOIN B3 ON S2.b = B3.a JOIN S4 ON B3.b = S4.a";
    Fixture {
        name: "skewed",
        relations: vec![
            ("S0", relation(&abc, SMALL, |i| vec![i, (i * i) % 13, i])),
            (
                "B1",
                relation(&abc, BIG, |i| vec![i % (BIG / 2), (i * i) % 7, i]),
            ),
            ("S2", relation(&abc, SMALL, |i| vec![i % 10, i % 5, i])),
            ("B3", relation(&abc, BIG, |i| vec![i % (BIG / 2), i % 3, i])),
            ("S4", relation(&abc, SMALL, |i| vec![i % 4, i, i])),
        ],
        queries: vec![
            format!("SELECT S0.id, B1.id, S2.id, B3.id, S4.id {joins} WHERE S0.id < 6"),
            format!("SELECT COUNT(*), MAX(B3.id) {joins} WHERE S0.id < 6"),
        ],
    }
}

/// A big fact cut to ~100 rows by an equality filter, two small
/// dimensions and one big one: the big dimension's join runs wide, the
/// rest on one process each.
fn star() -> Fixture {
    let joins = "FROM D0 JOIN F ON D0.k = F.fk0 JOIN D1 ON D1.k = F.fk1 \
                 JOIN D2 ON D2.k = F.fk2 WHERE F.m = 7";
    Fixture {
        name: "star",
        relations: vec![
            ("D0", relation(&["k", "p"], SMALL, |i| vec![i, i * 3])),
            ("D1", relation(&["k", "p"], SMALL, |i| vec![i, i % 9])),
            ("D2", relation(&["k", "p"], BIG, |i| vec![i, i % 1000])),
            (
                "F",
                relation(&["fk0", "fk1", "fk2", "m"], BIG, |i| {
                    vec![i % SMALL, (i * 3) % 40, (i * 17) % BIG, i % 500]
                }),
            ),
        ],
        queries: vec![
            format!("SELECT * {joins}"),
            format!("SELECT D1.p, COUNT(*), MIN(D2.p) {joins} GROUP BY D1.p"),
        ],
    }
}

fn open(fixture: &Fixture, configure: impl FnOnce(&mut DbConfig)) -> Database {
    let mut config = DbConfig::default();
    configure(&mut config);
    let db = Database::open(config).unwrap();
    for (name, relation) in &fixture.relations {
        db.register(*name, relation.clone()).unwrap();
    }
    db.analyze().unwrap();
    db
}

/// The kinds of degree-changing edges in `plan` (and into its stages):
/// `stream`/`mat` x `up` (fewer producers than consumers) / `down`.
fn edge_kinds(planned: &PlannedQuery, seen: &mut BTreeSet<&'static str>) {
    let plan: &ParallelPlan = &planned.plan;
    for op in &plan.ops {
        for operand in [&op.left, &op.right] {
            let (from, live) = match operand {
                OperandSource::Stream { from } => (*from, true),
                OperandSource::Materialized { from } => (*from, false),
                OperandSource::Base { .. } => continue,
            };
            let (p, c) = (plan.ops[from].degree(), op.degree());
            match (live, p.cmp(&c)) {
                (true, std::cmp::Ordering::Less) => seen.insert("stream up"),
                (true, std::cmp::Ordering::Greater) => seen.insert("stream down"),
                (false, std::cmp::Ordering::Less) => seen.insert("mat up"),
                (false, std::cmp::Ordering::Greater) => seen.insert("mat down"),
                (_, std::cmp::Ordering::Equal) => false,
            };
        }
    }
    let mut prev = plan.sink().degree();
    for stage in planned.binding.stages() {
        if stage.degree < prev {
            seen.insert("stage down");
        }
        prev = stage.degree;
    }
}

#[test]
fn mixed_degree_plans_match_the_oracle_under_every_strategy_pool_and_batch_size() {
    let mut seen = BTreeSet::new();
    let mut widest = 0;
    for fixture in [chain(), skewed(), star()] {
        // The oracle is a property of the query, not of the plan: one
        // sequential evaluation per query serves every configuration.
        let reference = open(&fixture, |_| {});
        let expected: Vec<Relation> = fixture
            .queries
            .iter()
            .map(|text| {
                reference
                    .plan(text)
                    .unwrap_or_else(|e| panic!("{}", e.render(text)))
                    .oracle_xra(JoinAlgorithm::Simple)
                    .unwrap()
                    .eval(reference.catalog().as_ref())
                    .unwrap()
            })
            .collect();
        assert!(expected.iter().all(|r| !r.is_empty()), "{}", fixture.name);

        for strategy in Strategy::ALL {
            // 256 is the default batch and half a scheduling quantum; 255
            // and 257 put every chunk boundary one row to either side.
            for (workers, batch_size) in [(1, 256), (2, 255), (2, 257), (4, 256), (4, 64)] {
                let db = open(&fixture, |c| {
                    c.planner.strategy = Some(strategy);
                    c.exec.workers = workers;
                    c.exec.batch_size = batch_size;
                });
                for (text, expected) in fixture.queries.iter().zip(&expected) {
                    let ctx = format!(
                        "{} / {strategy} / {workers} workers / batch {batch_size}: {text}",
                        fixture.name
                    );
                    let planned = db.plan(text).unwrap();
                    let degrees: Vec<usize> =
                        planned.plan.ops.iter().map(|op| op.degree()).collect();
                    assert!(
                        degrees.contains(&1) && degrees.iter().any(|&d| d > 1),
                        "{ctx}: degrees {degrees:?} are not mixed\n{}",
                        planned.explain()
                    );
                    edge_kinds(&planned, &mut seen);
                    widest = widest.max(degrees.into_iter().max().unwrap_or(0));

                    let engine = db.engine();
                    let run = |temperature: &str| {
                        let mut handle = db.query(text).unwrap();
                        let result = handle.stream().collect_relation();
                        let metrics = handle.outcome().unwrap().metrics;
                        assert!(
                            result.multiset_eq(expected),
                            "{ctx} ({temperature}): engine returned {} rows, oracle {}\n{}",
                            result.len(),
                            expected.len(),
                            planned.explain()
                        );
                        assert_eq!(
                            engine.store().total_bytes(),
                            0,
                            "{ctx} ({temperature}): fragments leaked"
                        );
                        metrics
                    };
                    run("cold");
                    let resident = engine.fragment_cache().stats();
                    let warm = run("warm");
                    assert_eq!(warm.fragment_cache_built, 0, "{ctx}: warm run built");
                    assert!(
                        warm.fragment_cache_hits > 0,
                        "{ctx}: warm run looked nothing up"
                    );
                    let after = engine.fragment_cache().stats();
                    assert_eq!(after.misses, resident.misses, "{ctx}: warm run missed");
                    assert_eq!(after.bytes, resident.bytes, "{ctx}: cache grew warm");
                    assert_eq!(engine.pool().queued(), 0, "{ctx}: zombie tasks queued");
                    assert_eq!(engine.pool().threads(), workers, "{ctx}: pool changed");
                }
            }
        }
    }
    // Between them the fixtures crossed every kind of degree change, up to
    // the full 1 <-> 8.
    assert_eq!(widest, 8);
    let all = [
        "mat down",
        "mat up",
        "stage down",
        "stream down",
        "stream up",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}

#[test]
fn planner_pick_on_mixed_sizes_widens_only_the_big_joins() {
    // `auto` on the chain: the two joins that scan a 56 000-tuple relation
    // get all eight processors or their strategy's share of them; the join
    // of two 50-row inputs between them gets one.
    let fixture = chain();
    let db = open(&fixture, |c| c.exec.workers = 2);
    let planned = db.plan(&fixture.queries[0]).unwrap();
    for op in &planned.plan.ops {
        let scans_big = [&op.left, &op.right]
            .into_iter()
            .any(|o| matches!(o, OperandSource::Base { relation } if relation.starts_with('B')));
        if scans_big {
            assert!(op.degree() >= 2, "{}", planned.explain());
            assert!(
                !op.grain_capped() || op.degree() == 8,
                "{}",
                planned.explain()
            );
        } else {
            assert_eq!(op.degree(), 1, "{}", planned.explain());
        }
    }
}
