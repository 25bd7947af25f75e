//! Differential tests for *mixed-degree* plans: the grain rule gives a
//! 50-tuple join one process and a 56 000-tuple join eight, so adjacent
//! operations differ in degree — 1→8 and 8→1 stream edges, materialized
//! intermediates written by one degree and bucket-scanned by another,
//! single-instance operands that share the base relation instead of
//! partitioning it. Every plan is checked against the sequential XRA
//! oracle, under the default (measured) schedule model, on chain, star and
//! skewed fixtures × all four strategies × 1/2/4 workers × batch sizes on
//! both sides of the chunk boundary, with every budget charge credited
//! back and the pool quiescent after each run. Every query runs twice on its database —
//! cold, then warm from the resident fragments — and the warm run must
//! build nothing and return the same multiset. These plans name eight
//! logical processors explicitly; left to the default, one per worker, no
//! operation or stage runs wider than the pool, which is checked too.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use multijoin::core::{OperandSource, ParallelPlan, Strategy};
use multijoin::exec::{Database, DbConfig, LateMode, MemoryBudget, PlannedQuery, QueryOptions};
use multijoin::relalg::{Attribute, JoinAlgorithm, RelalgError, Relation, Schema, Tuple};
use multijoin::storage::TableStats;

mod common;
use common::settled;

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

/// A database over `fixture` planned on eight logical processors, set
/// explicitly whatever the pool, then as `configure` leaves it: the grain
/// rule alone decides how wide a join runs, so 1→8 and 8→1 edges appear on
/// every worker count.
fn open(fixture: &Fixture, configure: impl FnOnce(&mut DbConfig)) -> Database {
    let mut config = DbConfig::default();
    config.planner.processors = 8;
    configure(&mut config);
    load(fixture, config)
}

fn load(fixture: &Fixture, config: DbConfig) -> Database {
    let db = Database::open(config).unwrap();
    for (name, relation) in &fixture.relations {
        db.register(*name, relation.clone()).unwrap();
    }
    db.analyze().unwrap();
    db
}

/// The sequential XRA oracle's (non-empty) answer to each query of
/// `fixture` — a property of the query, not of the plan: one evaluation
/// serves every configuration.
fn oracle_results(fixture: &Fixture) -> Vec<Relation> {
    let reference = open(fixture, |_| {});
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
    expected
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
                OperandSource::Base { .. } | OperandSource::Fused { .. } => continue,
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
        let expected = oracle_results(&fixture);

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
                    // A segment group runs its small joins at the degree of
                    // the big one it shares a segment with (RD's picks).
                    let grouped = planned.plan.stats().segment_groups > 0;
                    assert!(
                        grouped || (degrees.contains(&1) && degrees.iter().any(|&d| d > 1)),
                        "{ctx}: degrees {degrees:?} are not mixed\n{}",
                        planned.explain()
                    );
                    edge_kinds(&planned, &mut seen);
                    widest = widest.max(degrees.into_iter().max().unwrap_or(0));

                    let engine = db.engine();
                    let run = |temperature: &str| {
                        let mut handle = db.query(text).unwrap();
                        let budget = handle.budget().clone();
                        let result = handle.stream().collect_relation();
                        let metrics = handle.outcome().unwrap().metrics;
                        assert!(
                            result.multiset_eq(expected),
                            "{ctx} ({temperature}): engine returned {} rows, oracle {}\n{}",
                            result.len(),
                            expected.len(),
                            planned.explain()
                        );
                        let leaked = settled(&budget);
                        assert_eq!(leaked, 0, "{ctx} ({temperature}): bytes leaked");
                        metrics
                    };
                    run("cold");
                    let resident = engine.catalog().resident_stats();
                    let warm = run("warm");
                    assert_eq!(warm.fragment_cache_built, 0, "{ctx}: warm run built");
                    assert!(
                        warm.fragment_cache_hits > 0,
                        "{ctx}: warm run looked nothing up"
                    );
                    let after = engine.catalog().resident_stats();
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

/// `S0 - S1 - S2 - B3`, the small end filtered: the three-relation prefix
/// is two sub-grain joins — one process — whose result goes *up* into the
/// partitioned join with the big relation.
fn group_below_wide() -> Fixture {
    let abc = ["a", "b", "id"];
    let joins = "FROM S0 JOIN S1 ON S0.b = S1.a JOIN S2 ON S1.b = S2.a JOIN B3 ON S2.b = B3.a";
    Fixture {
        name: "group below wide",
        relations: vec![
            ("S0", relation(&abc, SMALL, |i| vec![i, (i * 7) % SMALL, i])),
            ("S1", relation(&abc, SMALL, |i| vec![i, (i * 3) % SMALL, i])),
            ("S2", relation(&abc, SMALL, |i| vec![i, (i * 11) % 60, i])),
            ("B3", relation(&abc, BIG, |i| vec![i, i % 97, i])),
        ],
        queries: vec![
            format!("SELECT * {joins} WHERE S0.id < 20"),
            format!("SELECT S1.a, COUNT(*), SUM(B3.id) {joins} WHERE S0.id < 20 GROUP BY S1.a"),
        ],
    }
}

/// `B0 - S1 - S2 - S3` with mildly expanding small joins: joining the big
/// relation first is cheapest, so its partitioned join sits at the bottom
/// and the sub-grain joins above it — one process — read its output.
fn group_above_wide() -> Fixture {
    let abc = ["a", "b", "id"];
    let joins = "FROM B0 JOIN S1 ON B0.b = S1.a JOIN S2 ON S1.b = S2.a JOIN S3 ON S2.b = S3.a";
    Fixture {
        name: "group above wide",
        relations: vec![
            ("B0", relation(&abc, BIG, |i| vec![i, i, i])),
            ("S1", relation(&abc, SMALL, |i| vec![i, i % 25, i])),
            ("S2", relation(&abc, SMALL, |i| vec![i % 25, i % 25, i])),
            ("S3", relation(&abc, SMALL, |i| vec![i % 25, i, i])),
        ],
        queries: vec![
            format!("SELECT * {joins}"),
            format!("SELECT S3.id, COUNT(*), MIN(B0.id) {joins} GROUP BY S3.id"),
        ],
    }
}

/// The kinds of edges between a process group (fused sub-grain joins) and
/// a partitioned operation in `plan`: the group's root feeding a wider
/// consumer (`group up`), a group member reading a wider producer
/// (`group down`), each over a stream or a materialized intermediate.
fn group_edge_kinds(plan: &ParallelPlan, seen: &mut BTreeSet<&'static str>) {
    let roots = plan.process_roots();
    let grouped =
        |op: usize| roots[op] != op || roots.iter().enumerate().any(|(o, &r)| o != op && r == op);
    for op in &plan.ops {
        for operand in [&op.left, &op.right] {
            let (from, live) = match operand {
                OperandSource::Stream { from } => (*from, true),
                OperandSource::Materialized { from } => (*from, false),
                OperandSource::Base { .. } | OperandSource::Fused { .. } => continue,
            };
            let (p, c) = (plan.ops[from].degree(), op.degree());
            match (grouped(from) && c > 1, grouped(op.id) && p > 1, live) {
                (true, _, true) => seen.insert("group up, stream"),
                (true, _, false) => seen.insert("group up, mat"),
                (_, true, true) => seen.insert("group down, stream"),
                (_, true, false) => seen.insert("group down, mat"),
                _ => false,
            };
        }
    }
}

#[test]
fn process_groups_beside_partitioned_operations_match_the_oracle() {
    // The shipped model fuses the sub-grain joins of these fixtures into
    // one process next to a join spread over up to eight: a group's root
    // streaming through a router into a wider consumer, a group member
    // reading a wider producer's stream or stored fragments. Every
    // strategy, eager and late-materialized (narrow specs inside the group,
    // the resolver on its root member), cold then warm.
    let mut seen = BTreeSet::new();
    for fixture in [group_below_wide(), group_above_wide()] {
        let expected = oracle_results(&fixture);

        for strategy in Strategy::ALL {
            for late in [LateMode::Auto, LateMode::Always] {
                for (workers, batch_size) in [(1, 256), (2, 255), (4, 64)] {
                    let db = open(&fixture, |c| {
                        c.planner.strategy = Some(strategy);
                        c.exec.workers = workers;
                        c.exec.batch_size = batch_size;
                        c.exec.late = late;
                    });
                    for (text, expected) in fixture.queries.iter().zip(&expected) {
                        let ctx = format!(
                            "{} / {strategy} / {late:?} / {workers} workers / batch \
                             {batch_size}: {text}",
                            fixture.name
                        );
                        let planned = db.plan(text).unwrap();
                        let stats = planned.plan.stats();
                        assert!(
                            stats.fused_ops > 0
                                && planned.plan.ops.iter().any(|op| op.degree() > 1),
                            "{ctx}: no group beside a partitioned operation\n{}",
                            planned.explain()
                        );
                        group_edge_kinds(&planned.plan, &mut seen);

                        let engine = db.engine();
                        let run = |temperature: &str| {
                            let mut handle = db.query(text).unwrap();
                            let budget = handle.budget().clone();
                            let result = handle.stream().collect_relation();
                            let metrics = handle.outcome().unwrap().metrics;
                            assert!(
                                result.multiset_eq(expected),
                                "{ctx} ({temperature}): engine returned {} rows, oracle {}\n{}",
                                result.len(),
                                expected.len(),
                                planned.explain()
                            );
                            assert_eq!(settled(&budget), 0, "{ctx}: leaked");
                            metrics
                        };
                        let cold = run("cold");
                        let warm = run("warm");
                        assert_eq!(warm.fragment_cache_built, 0, "{ctx}: warm run built");
                        // One row per join whatever shares a process, and
                        // the counts the plan promised.
                        let stages: usize = planned.binding.stages().iter().map(|s| s.degree).sum();
                        for m in [&cold, &warm] {
                            assert_eq!(m.fused_ops, stats.fused_ops, "{ctx}");
                            assert_eq!(m.processes, stats.operation_processes + stages, "{ctx}");
                            assert_eq!(
                                m.ops.len(),
                                planned.plan.ops.len() + planned.binding.stages().len()
                            );
                            assert!(m.ops.iter().all(|op| op.instances > 0), "{ctx}");
                        }
                        assert_eq!(engine.pool().queued(), 0, "{ctx}: zombie tasks queued");
                    }
                }
            }
        }
    }
    let all = [
        "group down, mat",
        "group down, stream",
        "group up, mat",
        "group up, stream",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}

#[test]
fn a_group_is_never_ordered_after_the_producer_of_a_stream_it_reads() {
    // (R0 ⋈ (R1 ⋈ R2)) ⋈ R3 over 20 000-tuple relations, R1 and R2
    // estimated at 50 000 and everything else — join results included — at
    // 10. Under RD the bottom join (seven processes) streams into R0's join
    // and the root's starts a wave later, after both. Fusing R0's join into
    // the root's process would order that process after the bottom join
    // while its first member reads the bottom join's stream: 20 000 real
    // rows against a 16-message channel, so the producer never finishes and
    // the process never starts. The generator must leave that edge alone —
    // whatever it fuses, every strategy returns the oracle's rows.
    use multijoin::plan::query::to_xra;
    use multijoin::prelude::*;
    const N: usize = 20_000;
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(N, 19).generate_named("R", 4) {
        catalog.register(name, rel);
    }
    let mut t = JoinTree::builder();
    let leaves: Vec<_> = (0..4).map(|i| t.leaf(format!("R{i}"))).collect();
    let bottom = t.join(leaves[1], leaves[2]);
    let mid = t.join(leaves[0], bottom);
    let root = t.join(mid, leaves[3]);
    let tree = t.build(root).unwrap();
    let mut cards = vec![10u64; tree.nodes().len()];
    cards[leaves[1]] = 50_000;
    cards[leaves[2]] = 50_000;
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let oracle = to_xra(&tree, 3, JoinAlgorithm::Simple)
        .eval(catalog.as_ref())
        .unwrap();
    assert_eq!(oracle.len(), N);

    let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
    // A regression fails with `query stalled` instead of hanging the suite.
    let config = ExecConfig {
        stall_timeout: Some(Duration::from_secs(10)),
        ..ExecConfig::default()
    };
    for strategy in Strategy::ALL {
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 8);
        input.allow_oversubscribe = true;
        input.grain = ScheduleModel::default().process_grain();
        let plan = generate(strategy, &input).unwrap();
        validate_plan(&plan).unwrap();
        let bottom_op = plan.op_for_join(bottom).unwrap();
        assert!(bottom_op.degree() > 1, "{strategy}:\n{plan}");
        let got = run_plan(&plan, &binding, catalog.clone(), &config)
            .unwrap_or_else(|e| panic!("{strategy}: {e}\n{plan}"));
        assert!(
            got.relation.multiset_eq(&oracle),
            "{strategy}: {} rows, oracle {N}\n{plan}",
            got.relation.len()
        );
    }
}

/// A session whose statistics lie: `H` holds 50 000 rows on ten hot keys
/// but is registered as 50 rows with 50 distinct values, so a join into it
/// is estimated at ten rows — under a grain, fused — and produces five
/// thousand times that. `A`, `D` and `E` are as small as they claim.
fn misestimated() -> Database {
    let abc = ["a", "b", "id"];
    let db = Database::open(DbConfig::default()).unwrap();
    let catalog = db.catalog();
    let lie = TableStats {
        cardinality: 50,
        distinct_keys: 50,
    };
    catalog.register("A", relation(&abc, 10, |i| vec![i, i, i]));
    catalog.register_with_stats("H", relation(&abc, 50_000, |i| vec![i % 10, i % 7, i]), lie);
    catalog.register("D", relation(&abc, SMALL, |i| vec![i, i, i]));
    catalog.register("E", relation(&abc, SMALL, |i| vec![i, i, i]));
    db
}

#[test]
fn a_process_group_with_estimates_off_a_thousandfold_honours_every_guardrail() {
    let db = misestimated();
    let engine = db.engine();
    let quiescent = |ctx: &str, budget: &MemoryBudget| {
        assert_eq!(settled(budget), 0, "{ctx}: bytes leaked");
        assert_eq!(engine.pool().queued(), 0, "{ctx}: zombie tasks queued");
    };

    // The exploding join as the group's root: build on ten rows, probe
    // 50 000 — 98 quanta — and emit 50 000 rows through the output port.
    let root_explodes = "SELECT * FROM A JOIN D ON A.a = D.a JOIN H ON A.b = H.a";
    let planned = db.plan(root_explodes).unwrap();
    let stats = planned.plan.stats();
    assert_eq!(
        (stats.operation_processes, stats.fused_ops),
        (1, 1),
        "{}",
        planned.explain()
    );
    let root = planned.plan.sink();
    assert!(
        [&root.left, &root.right].contains(&&OperandSource::Base {
            relation: "H".into()
        }),
        "{}",
        planned.explain()
    );
    assert!(root.est_out <= 50, "{}", planned.explain());
    let mut handle = db.query(root_explodes).unwrap();
    let budget = handle.budget().clone();
    let result = handle.stream().collect_relation();
    let metrics = handle.outcome().unwrap().metrics;
    let oracle = planned
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap();
    assert!(result.multiset_eq(&oracle));
    assert_eq!(result.len(), 50_000);
    assert!(metrics.max_q_error() >= 1000.0, "{}", metrics.max_q_error());
    // One process, and it went back to the scheduler every quantum.
    assert_eq!(metrics.processes, 1);
    assert!(
        metrics.sched_steps >= 50_000 / 512,
        "{}",
        metrics.sched_steps
    );
    quiescent("full run", &budget);

    // LIMIT stops the probe long before H is exhausted, successfully.
    let mut handle = db.query(&format!("{root_explodes} LIMIT 5")).unwrap();
    let budget = handle.budget().clone();
    let result = handle.stream().collect_relation();
    let metrics = handle.outcome().unwrap().metrics;
    assert_eq!(result.len(), 5);
    let probed: u64 = metrics.ops[root.id].tuples_in.iter().sum();
    assert!(probed < 25_000, "early stop came after {probed} rows");
    quiescent("limit", &budget);

    // The exploding join as an inner member: its 50 000-row result piles
    // up inside the task before the next member reads it.
    let member_explodes = "SELECT * FROM A JOIN H ON A.b = H.a JOIN D ON A.a = D.a \
                           JOIN E ON D.b = E.a";
    let planned = db.plan(member_explodes).unwrap();
    let stats = planned.plan.stats();
    assert_eq!((stats.operation_processes, stats.fused_ops), (1, 2));
    let roots = planned.plan.process_roots();
    let inner = planned
        .plan
        .ops
        .iter()
        .find(|op| {
            [&op.left, &op.right].contains(&&OperandSource::Base {
                relation: "H".into(),
            })
        })
        .unwrap();
    assert_ne!(roots[inner.id], inner.id, "{}", planned.explain());

    // A budget far below the intermediate: typed abort, nothing left over.
    let handle = db.query_with(
        member_explodes,
        QueryOptions::new().with_memory_budget(64 << 10),
    );
    let handle = handle.unwrap();
    let budget = handle.budget().clone();
    let err = handle
        .collect()
        .expect_err("a 64 KiB budget cannot hold a 50 000-row intermediate");
    assert!(
        matches!(err, RelalgError::ResourceExhausted { budget, .. } if budget == 64 << 10),
        "{err}"
    );
    quiescent("budget", &budget);

    // A deadline in the past: observed on the first step, whichever member.
    let handle = db.query_with(
        member_explodes,
        QueryOptions::new().with_deadline(Duration::from_nanos(1)),
    );
    let handle = handle.unwrap();
    let budget = handle.budget().clone();
    let err = handle.collect().expect_err("expired deadline");
    assert!(matches!(err, RelalgError::DeadlineExceeded), "{err}");
    quiescent("deadline", &budget);

    // Cancel a few quanta into the exploding member: observed at the next
    // one, reported once per member.
    let steps = engine.pool().steps();
    let handle = db.query(member_explodes).unwrap();
    while engine.pool().steps() < steps + 4 {
        std::thread::yield_now();
    }
    handle.cancel();
    let budget = handle.budget().clone();
    let err = handle.outcome().expect_err("cancelled");
    assert!(matches!(err, RelalgError::Canceled), "{err}");
    quiescent("cancel", &budget);

    // And the engine still answers, with the full result.
    let result = db.query(member_explodes).unwrap().collect().unwrap();
    assert_eq!(result.len(), 50_000);
    let stats = db.stats();
    assert_eq!(
        (
            stats.budget_aborts,
            stats.queries_timed_out,
            stats.queries_canceled
        ),
        (1, 1, 1)
    );
    assert_eq!(stats.queries_completed, 3);
}

#[test]
fn planner_pick_on_mixed_sizes_widens_only_the_big_joins() {
    // `auto` on the chain: the two joins that scan a 56 000-tuple relation
    // get all eight processors or their strategy's share of them; the join
    // of two 50-row inputs between them gets one — unless it is a member of
    // a segment group, whose instances each probe a range of a big relation
    // through every join of the segment.
    let fixture = chain();
    let db = open(&fixture, |c| c.exec.workers = 2);
    let planned = db.plan(&fixture.queries[0]).unwrap();
    let grouped: Vec<usize> = planned.plan.segment_groups().concat();
    for group in planned.plan.segment_groups() {
        let bottom = &planned.plan.ops[group[0]];
        assert!(bottom.degree() >= 2, "{}", planned.explain());
        assert!(
            matches!(&bottom.right, OperandSource::Base { relation } if relation.starts_with('B')),
            "{}",
            planned.explain()
        );
    }
    for op in planned
        .plan
        .ops
        .iter()
        .filter(|op| !grouped.contains(&op.id))
    {
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

/// `chain()` plus a GROUP BY wide enough for a partitioned aggregate:
/// every B1 row meets one S0 row, so ~56 000 rows reach ~56 000 groups.
fn chain_with_wide_group_by() -> Fixture {
    let mut fixture = chain();
    fixture
        .queries
        .push("SELECT B1.id, COUNT(*) FROM S0 JOIN B1 ON S0.a = B1.b GROUP BY B1.id".into());
    fixture
}

#[test]
fn default_plans_run_no_operation_or_stage_wider_than_the_pool() {
    // Left to the default, a database plans over one logical processor per
    // worker: where eight would split the big joins and the wide aggregate
    // eight ways, no join and no post-join stage runs as more processes
    // than the pool has threads, and every answer is still the oracle's.
    for fixture in [chain_with_wide_group_by(), skewed(), star()] {
        let expected = oracle_results(&fixture);
        for workers in [1, 2, 4] {
            let mut config = DbConfig::default();
            config.exec.workers = workers;
            let db = load(&fixture, config);
            assert_eq!(db.planner_options().processors, workers);
            let shown = format!("{db:?}");
            let plans_with = format!("{workers} workers, {workers} planner processors");
            assert!(shown.contains(&plans_with), "{shown}");
            let engine = db.engine();
            for (text, expected) in fixture.queries.iter().zip(&expected) {
                let ctx = format!("{} / {workers} workers: {text}", fixture.name);
                let mut handle = db.query(text).unwrap();
                let budget = handle.budget().clone();
                let result = handle.stream().collect_relation();
                let metrics = handle.outcome().unwrap().metrics;
                let explain = || db.plan(text).unwrap().explain();
                assert!(
                    result.multiset_eq(expected),
                    "{ctx}: engine returned {} rows, oracle {}\n{}",
                    result.len(),
                    expected.len(),
                    explain()
                );
                let instances: Vec<usize> = metrics.ops.iter().map(|op| op.instances).collect();
                assert!(
                    instances.iter().all(|&n| n <= workers),
                    "{ctx}: processes per operation {instances:?}\n{}",
                    explain()
                );
                assert_eq!(settled(&budget), 0, "{ctx}: bytes leaked");
                assert_eq!(engine.pool().queued(), 0, "{ctx}: zombie tasks queued");
                assert_eq!(engine.pool().parked(), 0, "{ctx}: tasks left parked");
            }
        }
    }
}

#[test]
fn an_explicit_processor_count_still_plans_past_the_pool() {
    // Eight logical processors named on two workers: the chain's big joins
    // are split past the pool, as the multiplexing tests need, and the
    // session reports the count it plans with.
    let fixture = chain();
    let expected = oracle_results(&fixture);
    let db = open(&fixture, |c| c.exec.workers = 2);
    assert_eq!(db.planner_options().processors, 8);
    let shown = format!("{db:?}");
    assert!(shown.contains("2 workers, 8 planner processors"), "{shown}");
    let planned = db.plan(&fixture.queries[0]).unwrap();
    let widest = planned.plan.ops.iter().map(|op| op.degree()).max();
    assert!(widest > Some(2), "{}", planned.explain());
    let result = db.query(&fixture.queries[0]).unwrap().collect().unwrap();
    assert!(result.multiset_eq(&expected[0]));
}
