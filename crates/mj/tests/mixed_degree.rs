//! Targeted tests of *mixed-degree* plans, where the grain rule gives a
//! 50-tuple join one process and a 56 000-tuple join eight: a fused group
//! must never wait for the producer of a stream it reads, a group whose
//! estimates are off a thousandfold honours every guardrail, the planner's
//! pick widens only the big joins, and an explicit processor count plans
//! past the pool. The oracle matrix over strategies, pools, batch caps and
//! degree-changing edges is `differential.rs`.

use std::sync::Arc;
use std::time::Duration;

use multijoin::core::OperandSource;
use multijoin::exec::{Database, DbConfig, MemoryBudget, QueryOptions};
use multijoin::relalg::{Attribute, RelalgError, Relation, Schema, Tuple};
use multijoin::storage::TableStats;

mod common;
use common::{oracle, settled};

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

/// `S0 - B1 - S2 - B3`: small and big relations alternate; big ones have
/// unique `a`, so each small row finds at most one partner.
const CHAIN: &str =
    "SELECT * FROM S0 JOIN B1 ON S0.b = B1.a JOIN S2 ON B1.b = S2.a JOIN B3 ON S2.b = B3.a";

/// A database over [`CHAIN`]'s relations on two workers, planned on eight
/// logical processors: the grain rule alone decides how wide a join runs.
fn chain_db() -> Database {
    let mut config = DbConfig::default();
    config.planner.processors = 8;
    config.exec.workers = 2;
    let db = Database::open(config).unwrap();
    let abc = ["a", "b", "id"];
    for (name, relation) in [
        ("S0", relation(&abc, SMALL, |i| vec![i, (i * 7) % 64, i])),
        ("B1", relation(&abc, BIG, |i| vec![i, i % SMALL, i])),
        ("S2", relation(&abc, SMALL, |i| vec![i, (i * 11) % 60, i])),
        ("B3", relation(&abc, BIG, |i| vec![i, i % 97, i])),
    ] {
        db.register(name, relation).unwrap();
    }
    db.analyze().unwrap();
    db
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
/// (beside forty cold keys of one row each, so its key column counts 50
/// distinct values) but is registered as 50 rows, so a join into it is
/// estimated at ten rows — under a grain, fused — and produces five
/// thousand times that. `A`, `D` and `E` are as small as they claim.
fn misestimated() -> Database {
    let abc = ["a", "b", "id"];
    let db = Database::open(DbConfig::default()).unwrap();
    let catalog = db.catalog();
    let lie = TableStats { cardinality: 50 };
    // Rows 0..40 hold the cold keys 10..50, the other 50 000 the hot 0..10.
    let h = |i| vec![if i < 40 { 10 + i } else { i % 10 }, i % 7, i];
    catalog.register("A", relation(&abc, 10, |i| vec![i, i, i]));
    catalog.register_with_stats("H", relation(&abc, 50_040, h), lie);
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
    assert!(result.multiset_eq(&oracle(&db, root_explodes)));
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
    let db = chain_db();
    let planned = db.plan(CHAIN).unwrap();
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

#[test]
fn an_explicit_processor_count_still_plans_past_the_pool() {
    // Eight logical processors named on two workers: the chain's big joins
    // are split past the pool, as the multiplexing tests need, and the
    // session reports the count it plans with.
    let db = chain_db();
    assert_eq!(db.planner_options().processors, 8);
    let shown = format!("{db:?}");
    assert!(shown.contains("2 workers, 8 planner processors"), "{shown}");
    let planned = db.plan(CHAIN).unwrap();
    let widest = planned.plan.ops.iter().map(|op| op.degree()).max();
    assert!(widest > Some(2), "{}", planned.explain());
    let expected = oracle(&db, CHAIN);
    assert!(!expected.is_empty());
    let result = db.query(CHAIN).unwrap().collect().unwrap();
    assert!(result.multiset_eq(&expected));
}
