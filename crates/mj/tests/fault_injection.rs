//! Deterministic fault-injection sweep over the query-lifecycle guardrails.
//!
//! Drives the `faults` harness of `mj-exec` end to end through the session
//! facade: a seeded [`FaultPlan`] forces a panic, an allocation spike, a
//! stall, or an operator error at a chosen step of every named operator of
//! a realistic pipeline (joins reading a scan-filtered base relation,
//! partitioned aggregate, limit), and each
//! injection must surface as the *correct typed* [`MjError`] — never a
//! process abort — with every byte charged to the query's budget credited
//! back, the engine reusable, and concurrently running sibling queries
//! unaffected.

use std::sync::Once;

use multijoin::core::ScheduleModel;
use multijoin::exec::{
    generate_family, Database, DbConfig, FaultKind, FaultPlan, FaultPoint, MjError, QueryFamily,
    QueryOptions,
};
use multijoin::relalg::{Relation, RelationProvider};

mod common;
use common::settled;

/// Silences the default panic hook for injected panics only, so the sweep
/// does not spray backtraces while still reporting real test failures.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.contains("injected panic"))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected panic"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// A session whose plans exercise every operator label the fault harness
/// can target: the WHERE clause runs as a scan filter where the first join
/// reads R0, GROUP BY adds an `aggregate` stage, and a huge LIMIT adds a
/// `limit` stage without early-stopping the pipeline. A task only
/// goes back through the run queue after a quantum of rows (512) or when
/// it is blocked, so the relations are large enough that every join
/// instance takes several steps and mid-lifecycle injection points exist.
fn guardrail_db() -> Database {
    let instance = generate_family(QueryFamily::Chain, 4, 8192, 0xFA17).expect("family");
    let mut config = DbConfig::default();
    // The paper's machine model spreads every join over all processors,
    // which keeps sibling instances for a fault to strand.
    config.planner.schedule_model = ScheduleModel::prisma();
    config.exec.batch_size = 16;
    config.exec.stall_timeout = Some(std::time::Duration::from_millis(150));
    let db = Database::open(config).expect("open");
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).expect("relation"))
            .expect("register");
    }
    db.analyze().expect("analyze");
    db
}

/// Joins + WHERE + GROUP BY + LIMIT: every fault label has an operation,
/// and the WHERE keeps every row, so the joins take as many steps as
/// unfiltered ones.
fn pipeline_sql() -> String {
    "SELECT R0.a, COUNT(*) FROM R0 \
     JOIN R1 ON R0.b = R1.a \
     JOIN R2 ON R1.b = R2.a \
     JOIN R3 ON R2.b = R3.a \
     WHERE R0.id >= 0 GROUP BY R0.a LIMIT 1000000"
        .to_string()
}

/// Runs `text` to its end, and checks that every byte the query charged to
/// its budget was credited back, however it ended.
fn collect_with(db: &Database, text: &str, opts: QueryOptions) -> Result<Relation, MjError> {
    let handle = db.query_with(text, opts)?;
    let budget = handle.budget().clone();
    let result = handle.collect().map_err(MjError::from);
    assert_eq!(settled(&budget), 0, "budget left charged: {result:?}");
    result
}

#[test]
fn fault_sweep_every_operator_and_kind_fails_clean() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");
    assert!(!baseline.is_empty(), "pipeline produces rows");

    let kinds = [
        FaultKind::Panic,
        FaultKind::AllocSpike { bytes: 1 << 40 },
        FaultKind::Stall,
        FaultKind::Error,
    ];
    let labels = ["join", "aggregate", "limit"];
    let steps = [1u64, 3];
    for label in labels {
        for kind in kinds {
            for at_step in steps {
                let ctx = format!("{label}/{kind:?}/step{at_step}");
                let plan =
                    FaultPlan::seeded(0xC0FFEE).with_point(FaultPoint::new(label, at_step, kind));
                // A generous budget the workload never reaches by itself,
                // so only the injected spike can trip it.
                let opts = QueryOptions::new()
                    .with_memory_budget(1 << 30)
                    .with_faults(plan);
                let err = collect_with(&db, &text, opts)
                    .expect_err(&format!("{ctx}: injected fault must surface"));
                match kind {
                    FaultKind::Panic => assert!(
                        matches!(err, MjError::Internal(_)),
                        "{ctx}: expected Internal, got {err}"
                    ),
                    FaultKind::AllocSpike { .. } => assert!(
                        matches!(err, MjError::ResourceExhausted { .. }),
                        "{ctx}: expected ResourceExhausted, got {err}"
                    ),
                    FaultKind::Stall => assert!(
                        matches!(err, MjError::Stalled(_)),
                        "{ctx}: expected Stalled, got {err}"
                    ),
                    FaultKind::Error => assert!(
                        err.to_string().contains("injected failure"),
                        "{ctx}: expected the injected error, got {err}"
                    ),
                }
                // The engine still answers the same query correctly.
                let after = collect_with(&db, &text, QueryOptions::default())
                    .unwrap_or_else(|e| panic!("{ctx}: engine unusable after fault: {e}"));
                assert!(
                    after.multiset_eq(&baseline),
                    "{ctx}: post-fault result diverged"
                );
            }
        }
    }
    // Every injection of a kind is counted.
    let injections = (labels.len() * steps.len()) as u64;
    let stats = db.stats();
    assert!(stats.panics_contained >= injections, "panic sweep counted");
    assert!(stats.budget_aborts >= injections, "spike sweep counted");
    assert!(stats.queries_stalled >= injections, "stall sweep counted");
}

#[test]
fn an_injected_limit_error_wins_over_the_hang_ups_it_causes() {
    // The failing limit drops its input edge, so the aggregate feeding it
    // fails with "consumer hung up" too, and that report can arrive first.
    // The query must still name the injected error, every time.
    let db = guardrail_db();
    let text = pipeline_sql();
    for run in 0..100 {
        let plan =
            FaultPlan::seeded(0xC0FFEE).with_point(FaultPoint::new("limit", 3, FaultKind::Error));
        let err = collect_with(&db, &text, QueryOptions::new().with_faults(plan))
            .expect_err("injected fault must surface");
        assert!(
            err.to_string().contains("injected failure"),
            "run {run}: expected the injected error, got {err}"
        );
    }
}

#[test]
fn a_fault_on_any_member_of_a_process_group_fails_clean() {
    // Under the shipped model a chain of five 60-tuple relations is one
    // operation process of four members. A panic, an allocation spike, a
    // stall or an error armed on any one member's op id — the first, one in
    // the middle, the root — must end the whole query with the typed error,
    // every member accounted for, nothing left charged or on the pool.
    quiet_injected_panics();
    let instance = generate_family(QueryFamily::Chain, 5, 60, 0xF05E).expect("family");
    let mut config = DbConfig::default();
    config.exec.stall_timeout = Some(std::time::Duration::from_millis(150));
    let db = Database::open(config).expect("open");
    for name in instance.catalog.names() {
        db.register(&name, instance.catalog.relation(&name).expect("relation"))
            .expect("register");
    }
    db.analyze().expect("analyze");
    let text = multijoin::exec::chain_query_sql(5);
    let planned = db.plan(&text).expect("plan");
    let stats = planned.plan.stats();
    assert_eq!((stats.operation_processes, stats.fused_ops), (1, 3));
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");

    for member in 0..planned.plan.ops.len() {
        for kind in [
            FaultKind::Panic,
            FaultKind::AllocSpike { bytes: 1 << 40 },
            FaultKind::Stall,
            FaultKind::Error,
        ] {
            let ctx = format!("op{member}/{kind:?}");
            let plan = FaultPlan::seeded(0xF05E)
                .with_point(FaultPoint::new("join", 1, kind).at_op(member));
            let opts = QueryOptions::new()
                .with_memory_budget(1 << 30)
                .with_faults(plan);
            let err = collect_with(&db, &text, opts)
                .expect_err(&format!("{ctx}: injected fault must surface"));
            match (kind, &err) {
                (FaultKind::Panic, MjError::Internal(message)) => {
                    assert!(
                        message.contains(&format!("op {member} ")),
                        "{ctx}: {message}"
                    )
                }
                (FaultKind::AllocSpike { .. }, MjError::ResourceExhausted { .. }) => {}
                (FaultKind::Error, MjError::Exec(e)) => {
                    let message = e.to_string();
                    assert!(
                        message.contains(&format!("op {member} ")),
                        "{ctx}: {message}"
                    )
                }
                (FaultKind::Stall, MjError::Stalled(dump)) => {
                    // Earlier members finished and said so; the stalled one
                    // and everything after it did not.
                    for op in 0..planned.plan.ops.len() {
                        let line = format!("op{op}[join] {}/1", usize::from(op < member));
                        assert!(dump.contains(&line), "{ctx}: {dump}");
                    }
                }
                _ => panic!("{ctx}: wrong error {err}"),
            }
            assert_eq!(db.engine().pool().queued(), 0, "{ctx}: zombie tasks");
            let after = collect_with(&db, &text, QueryOptions::default())
                .unwrap_or_else(|e| panic!("{ctx}: engine unusable after fault: {e}"));
            assert!(after.multiset_eq(&baseline), "{ctx}: post-fault diverged");
        }
    }
    let stats = db.stats();
    assert_eq!(
        (
            stats.panics_contained,
            stats.budget_aborts,
            stats.queries_stalled
        ),
        (4, 4, 4)
    );
}

#[test]
fn faulted_query_leaves_concurrent_sibling_intact() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");

    std::thread::scope(|scope| {
        // Sibling: clean query racing the faulted one on the same pool.
        let sibling = scope.spawn(|| collect_with(&db, &text, QueryOptions::default()));
        let plan = FaultPlan::seeded(7).with_point(FaultPoint::new("join", 2, FaultKind::Panic));
        let err = collect_with(&db, &text, QueryOptions::new().with_faults(plan))
            .expect_err("injected panic must surface");
        assert!(matches!(err, MjError::Internal(_)), "got {err}");
        let sibling = sibling
            .join()
            .expect("sibling thread")
            .expect("sibling query");
        assert!(
            sibling.multiset_eq(&baseline),
            "sibling query was disturbed by a contained panic"
        );
    });
}

#[test]
fn cancel_parked_at_every_pipeline_stage_is_exactly_once() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");

    // A stall parks the pipeline at the named stage; cancelling then must
    // win over the stall (exactly-once `Canceled`, fragments reclaimed,
    // engine reusable). `join@1` parks during scan/build, `join@3` during
    // probe/feed (join instances here finish within ~5 steps, so later
    // steps would never fire); the stage labels park the post-join
    // pipeline at aggregate and limit.
    let park_points = [("join", 1u64), ("join", 3), ("aggregate", 2), ("limit", 2)];
    for (label, at_step) in park_points {
        let ctx = format!("cancel parked at {label}@{at_step}");
        let plan =
            FaultPlan::seeded(11).with_point(FaultPoint::new(label, at_step, FaultKind::Stall));
        let handle = db
            .query_with(&text, QueryOptions::new().with_faults(plan))
            .expect("submit");
        // Let the pipeline run into the stall, then cancel.
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.cancel();
        let budget = handle.budget().clone();
        let err = handle.outcome().expect_err("cancelled query must error");
        assert!(
            matches!(MjError::from(err.clone()), MjError::Canceled),
            "{ctx}: expected Canceled, got {err}"
        );
        assert_eq!(settled(&budget), 0, "{ctx}: leaked");
        let after = collect_with(&db, &text, QueryOptions::default()).expect("engine reusable");
        assert!(after.multiset_eq(&baseline), "{ctx}: post-cancel diverged");
    }
}

#[test]
fn a_stalled_aggregate_stage_is_named_in_the_stall_dump() {
    // Three joins (op0..op2), then the stages: aggregate op3, limit op4.
    // Stalled at the aggregate, the query reports `Stalled` with a dump
    // whose line for op3 names its kind and shows no instance done — and
    // the limit behind it still waiting.
    let db = guardrail_db();
    let plan = FaultPlan::seeded(5).with_point(FaultPoint::new("aggregate", 1, FaultKind::Stall));
    let err = collect_with(&db, &pipeline_sql(), QueryOptions::new().with_faults(plan))
        .expect_err("a stalled stage must surface");
    let MjError::Stalled(dump) = err else {
        panic!("expected Stalled, got {err}");
    };
    assert!(dump.contains("op3[aggregate] 0/"), "{dump}");
    assert!(dump.contains("op4[limit] 0/1"), "{dump}");
}

#[test]
fn empty_fault_plan_matches_the_oracle_on_all_families() {
    // Differential guard: compiling the harness in and passing an *empty*
    // plan must not perturb results on any seeded family.
    for (family, seed) in [
        (QueryFamily::Chain, 21u64),
        (QueryFamily::Star, 22),
        (QueryFamily::Skewed, 23),
    ] {
        let k = 5;
        let instance = generate_family(family, k, 80, seed).expect("family");
        let db = Database::open(DbConfig::default()).expect("open");
        let mut names = instance.catalog.names();
        names.sort();
        for name in &names {
            db.register(name, instance.catalog.relation(name).expect("relation"))
                .expect("register");
        }
        db.analyze().expect("analyze");
        let text = match family {
            QueryFamily::Star => multijoin::exec::star_query_sql(k),
            _ => multijoin::exec::chain_query_sql(k),
        };
        // Oracle: sequential XRA evaluation of the planner's own lowering.
        let planned = db.plan(&text).expect("plan");
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, multijoin::relalg::JoinAlgorithm::Simple)
            .expect("oracle plan")
            .eval(db.catalog().as_ref())
            .expect("oracle eval");
        let empty = QueryOptions::new().with_faults(FaultPlan::new());
        let result = collect_with(&db, &text, empty).expect("query");
        assert!(
            result.multiset_eq(&oracle),
            "{family}: empty fault plan changed the result \
             ({} vs {} tuples)",
            result.len(),
            oracle.len()
        );
    }
}
