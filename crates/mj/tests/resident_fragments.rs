//! Resident base fragments through the front door.
//!
//! Base relations are converted to columns when registered, fragmented
//! once, and stay resident in their catalog entries
//! (`mj_storage::Catalog`); these tests pin what that must never change
//! and what it must guarantee, by *count* and against the sequential XRA
//! oracle rather than by time:
//!
//! * a second identical query builds nothing — no partitioning miss, no
//!   join table over a base relation: a simple join's unfiltered base
//!   build side adopts the table resident with its fragment;
//! * a pushed-down scan filter evaluated over the *cached* fragments
//!   returns exactly the oracle's rows — predicates on the partitioning
//!   key and on other columns, no survivors at all, and one prepared
//!   statement executed with different `?1` back to back and concurrently
//!   (filtered survivors are private to an execution, never cached), and a
//!   filtered build side indexes its survivors privately instead of
//!   adopting the resident table;
//! * a relation replaced under its name while queries run is never served
//!   from the old fragments or the old tables: every reply is the oracle's
//!   answer on the old *or* the new relation, never a mix, and the first
//!   query submitted after the swap sees the new one;
//! * a prepared statement's run template holds its base operands only
//!   weakly: a variant the catalog evicted is resolved again, never
//!   served, even while something else keeps it alive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use multijoin::core::plan_ir::{OperandSource, Split};
use multijoin::core::{ScheduleModel, Strategy};
use multijoin::exec::{
    chain_query_sql, generate_family, Database, DbConfig, FamilyInstance, LateMode, Metrics,
    PlannedQuery, QueryFamily, QueryHandle,
};
use multijoin::relalg::{JoinAlgorithm, Relation};
use multijoin::storage::MAX_VARIANTS_PER_RELATION;

mod common;
use common::oracle_over;

const RELATIONS: usize = 4;
const ROWS: usize = 400;

/// The `seed`-th generated chain instance.
fn generated(seed: u64) -> FamilyInstance {
    generate_family(QueryFamily::Chain, RELATIONS, ROWS, seed).unwrap()
}

/// A database holding `instance`, planned with the paper's machine model on
/// eight logical processors so these few-hundred-tuple relations are
/// really partitioned (the measured default would run them at degree 1),
/// and with the late rewrite off so scan filters run over the cached
/// fragments themselves.
fn open(instance: &FamilyInstance) -> Database {
    open_with(instance, |_| {})
}

/// [`open`] with `tweak` applied to its configuration.
fn open_with(instance: &FamilyInstance, tweak: impl Fn(&mut DbConfig)) -> Database {
    let mut config = DbConfig::default();
    config.planner.processors = 8;
    config.planner.schedule_model = ScheduleModel::prisma();
    config.exec.late = LateMode::Never;
    tweak(&mut config);
    let db = Database::open(config).unwrap();
    instance.load(&db).unwrap();
    db
}

fn drain(mut handle: QueryHandle) -> (Relation, Metrics) {
    let result = handle.stream().collect_relation();
    (result, handle.outcome().unwrap().metrics)
}

/// The base relations `planned` builds a simple join's table on, one entry
/// per such join.
fn base_builds(planned: &PlannedQuery) -> Vec<&str> {
    let ops = planned.plan.ops.iter();
    let simple = ops.filter(|op| op.algorithm == JoinAlgorithm::Simple);
    simple
        .filter_map(|op| match &op.left {
            OperandSource::Base { relation } => Some(relation.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn second_identical_query_builds_nothing() {
    let instance = generated(3);
    let db = open(&instance);
    let catalog = db.catalog();
    let text = chain_query_sql(RELATIONS);
    let planned = db.plan(&text).unwrap();
    assert!(
        planned.plan.ops.iter().any(|op| op.degree() > 1),
        "fixture must partition something\n{}",
        planned.explain()
    );
    assert_eq!(
        catalog.resident_stats().misses,
        0,
        "registration leaves every image resident; nothing partitioned yet"
    );

    let (cold_rows, cold) = drain(db.query(&text).unwrap());
    assert!(cold.fragment_cache_built > 0, "first query partitions");
    let resident = catalog.resident_stats();
    assert!(
        resident.tables_built > 0,
        "first query indexes its base build sides\n{}",
        planned.explain()
    );

    let (warm_rows, warm) = drain(db.query(&text).unwrap());
    assert_eq!(warm.fragment_cache_built, 0);
    assert_eq!(
        warm.fragment_cache_hits,
        cold.fragment_cache_hits + cold.fragment_cache_built,
        "one lookup per base operand, all resident"
    );
    let after = catalog.resident_stats();
    assert_eq!(after.misses, resident.misses, "no partitioning miss");
    assert_eq!(after.tables_built, resident.tables_built, "no table built");
    assert_eq!(after.bytes, resident.bytes);
    assert!(warm_rows.multiset_eq(&cold_rows));
    assert!(warm_rows.multiset_eq(&oracle_over(&db, &text, &instance.catalog)));

    // The counters are what an operator sees on /metrics.
    let exported = db.stats();
    assert_eq!(exported.fragment_cache_misses, after.misses);
    assert_eq!(exported.fragment_cache_hits, after.hits);
    assert_eq!(exported.fragment_cache_bytes, after.bytes);
    let text = mj_exec::metrics::to_prometheus(&exported);
    for line in [
        format!("mj_fragment_cache_misses_total {}\n", after.misses),
        format!("mj_fragment_cache_hits_total {}\n", after.hits),
        format!("mj_fragment_cache_bytes {}\n", after.bytes),
    ] {
        assert!(text.contains(&line), "{line}");
    }
}

#[test]
fn scan_filters_over_cached_fragments_match_the_oracle() {
    let instance = generated(5);
    let db = open(&instance);
    let catalog = db.catalog();
    let joins = chain_query_sql(RELATIONS);
    // Warm every variant the plan reads, so the filters below provably
    // run over cached fragments.
    drain(db.query(&joins).unwrap());

    for filter in [
        "R1.a < 40",                   // on the column R1 is partitioned by
        "R1.id < 37",                  // on a payload column
        "R1.b >= 100 AND R2.id < 300", // two relations at once
        "R0.id < 0",                   // no survivors in any fragment
        "R3.id >= 0",                  // every row survives: fragments shared
    ] {
        let text = format!("{joins} WHERE {filter}");
        let planned = db.plan(&text).unwrap();
        assert!(
            !planned.binding.scan_filters().is_empty(),
            "{filter}: not pushed down\n{}",
            planned.explain()
        );
        let (rows, _) = drain(db.query(&text).unwrap());
        let expected = oracle_over(&db, &text, &instance.catalog);
        assert!(
            rows.multiset_eq(&expected),
            "{filter}: engine {} rows, oracle {}",
            rows.len(),
            expected.len()
        );
    }

    // One prepared statement, different `?1`: survivors are per execution.
    let stmt = db.prepare(&format!("{joins} WHERE R1.id < ?1")).unwrap();
    let expect = |arg: i64| {
        oracle_over(
            &db,
            &format!("{joins} WHERE R1.id < {arg}"),
            &instance.catalog,
        )
    };
    drain(db.execute_prepared(&stmt, &[1]).unwrap());
    let resident = catalog.resident_stats();
    let args = [0i64, 250, 3, 400, 3];
    for arg in args {
        let (rows, metrics) = drain(db.execute_prepared(&stmt, &[arg]).unwrap());
        assert!(rows.multiset_eq(&expect(arg)), "?1 = {arg} back to back");
        assert_eq!(metrics.fragment_cache_built, 0, "?1 = {arg}");
    }
    let barrier = Barrier::new(args.len());
    std::thread::scope(|scope| {
        for arg in args {
            let (db, stmt, barrier, expect) = (&db, &stmt, &barrier, &expect);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..3 {
                    let (rows, _) = drain(db.execute_prepared(stmt, &[arg]).unwrap());
                    assert!(rows.multiset_eq(&expect(arg)), "?1 = {arg} concurrently");
                }
            });
        }
    });
    let after = catalog.resident_stats();
    assert_eq!(after.misses, resident.misses, "every execution ran warm");
    assert_eq!(
        after.bytes, resident.bytes,
        "filtered survivors are never cached"
    );
}

#[test]
fn a_filtered_build_side_is_indexed_privately() {
    let instance = generated(7);
    let db = open(&instance);
    let catalog = db.catalog();
    let joins = chain_query_sql(RELATIONS);
    // A relation the filtered plan still builds a simple join's table on.
    let (name, stmt) = (0..RELATIONS)
        .map(|i| format!("R{i}"))
        .find_map(|name| {
            let stmt = db
                .prepare(&format!("{joins} WHERE {name}.id < ?1"))
                .unwrap();
            base_builds(stmt.planned())
                .contains(&name.as_str())
                .then_some((name, stmt))
        })
        .expect("some filtered relation is a simple join's build side");
    // A chain reads each relation once: a cold execution builds one table
    // set per unfiltered build side.
    let builds = base_builds(stmt.planned());
    let unfiltered = builds.iter().filter(|&&r| r != name).count();

    let expect = |arg: i64| {
        let text = format!("{joins} WHERE {name}.id < {arg}");
        oracle_over(&db, &text, &instance.catalog)
    };
    let (rows, _) = drain(db.execute_prepared(&stmt, &[200]).unwrap());
    assert!(rows.multiset_eq(&expect(200)));
    let built = catalog.resident_stats().tables_built;
    assert_eq!(
        built,
        unfiltered as u64,
        "{name}: only the unfiltered build sides are resident\n{}",
        stmt.planned().explain()
    );
    for arg in [0i64, 37, 399, 400, 5] {
        let (rows, metrics) = drain(db.execute_prepared(&stmt, &[arg]).unwrap());
        assert!(rows.multiset_eq(&expect(arg)), "{name}.id < {arg}");
        assert_eq!(metrics.fragment_cache_built, 0, "{name}.id < {arg}");
    }
    assert_eq!(
        catalog.resident_stats().tables_built,
        built,
        "no table over survivors"
    );
}

#[test]
fn replacing_a_relation_while_querying_never_serves_stale_or_mixed_fragments() {
    // Version v of the data set differs from version 0 only in R3, which
    // is swapped under its live name; the other relations stay cached. R3
    // is a simple join's unfiltered build side in both plans, so it is
    // served as a resident table.
    const VERSIONS: usize = 6;
    let base = generated(17);
    let versions: Vec<HashMap<String, Arc<Relation>>> = (0..VERSIONS)
        .map(|v| {
            let mut relations = base.catalog.clone();
            if v > 0 {
                let donor = generated(100 + v as u64).catalog;
                relations.insert("R3".into(), donor["R3"].clone());
            }
            relations
        })
        .collect();
    let db = open(&base);
    let joins = chain_query_sql(RELATIONS);
    let prepared_sql = format!("{joins} WHERE R2.id < ?1");
    let adhoc_sql = format!("{joins} WHERE R0.id >= 10");
    const ARG: i64 = 350;
    let bound_sql = format!("{joins} WHERE R2.id < {ARG}");
    let expected: Vec<[Relation; 2]> = versions
        .iter()
        .map(|relations| {
            [
                oracle_over(&db, &bound_sql, relations),
                oracle_over(&db, &adhoc_sql, relations),
            ]
        })
        .collect();
    for v in 1..VERSIONS {
        for w in 0..v {
            assert!(
                !expected[v][0].multiset_eq(&expected[w][0])
                    && !expected[v][1].multiset_eq(&expected[w][1]),
                "versions {w} and {v} must be told apart by their answers"
            );
        }
    }
    // A replaced relation's distinct counts go with it and are counted
    // afresh from the new image: the plans keep building on R3.
    let swap_to = |v: usize| db.catalog().register("R3", versions[v]["R3"].clone());
    let stmt = db.prepare(&prepared_sql).unwrap();
    let adhoc = db.plan(&adhoc_sql).unwrap();
    assert!(
        [base_builds(stmt.planned()), base_builds(&adhoc)]
            .iter()
            .all(|builds| builds.contains(&"R3")),
        "both plans build a simple join's table on R3\n{}\n{}",
        stmt.planned().explain(),
        adhoc.explain()
    );
    let tables = || db.catalog().resident_stats().tables_built;
    let run = |which: usize| -> Relation {
        let handle = if which == 0 {
            db.execute_prepared(&stmt, &[ARG]).unwrap()
        } else {
            db.query(&adhoc_sql).unwrap()
        };
        drain(handle).0
    };

    // Between executes: the first query after each swap sees the new R3.
    for which in [0, 1] {
        assert!(run(which).multiset_eq(&expected[0][which]));
    }
    for (v, expected) in expected.iter().enumerate().skip(1) {
        swap_to(v);
        let which = v % 2;
        let built = tables();
        assert!(
            run(which).multiset_eq(&expected[which]),
            "first query after swap {v} served an older R3"
        );
        assert!(tables() > built, "swap {v}: R3's table was rebuilt");
        assert!(run(1 - which).multiset_eq(&expected[1 - which]));
    }
    let evicted = db.catalog().resident_stats().evictions;
    assert!(
        evicted >= VERSIONS as u64 - 1,
        "every swap evicted R3's entry"
    );

    // During executes: three clients query without pause while the main
    // thread walks R3 through the versions again. `current` moves only
    // after its swap is visible, so a query that read `lo` before
    // submitting and `hi` after completing ran against some version in
    // `lo..=hi + 1` — and must equal that version's oracle exactly.
    swap_to(0);
    let current = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let completed: [AtomicUsize; 3] = Default::default();
    // Collected, not asserted in place: a client that stopped counting
    // would leave the swapping thread waiting for its next round.
    let wrong = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, done) in completed.iter().enumerate() {
            let (run, current, stop, expected, wrong) = (&run, &current, &stop, &expected, &wrong);
            scope.spawn(move || {
                let which = client % 2;
                while !stop.load(Ordering::SeqCst) {
                    let lo = current.load(Ordering::SeqCst);
                    let rows = run(which);
                    let hi = (current.load(Ordering::SeqCst) + 1).min(VERSIONS - 1);
                    if !(lo..=hi).any(|v| rows.multiset_eq(&expected[v][which])) {
                        wrong.lock().unwrap().push(format!(
                            "client {client}: {} rows match no version in {lo}..={hi}",
                            rows.len()
                        ));
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Each version stays live until every client finished two more
        // queries, so swaps land both between and during executions.
        let wait_for_round = || {
            let seen: Vec<usize> = completed.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            while completed
                .iter()
                .zip(&seen)
                .any(|(c, &s)| c.load(Ordering::SeqCst) < s + 2)
            {
                std::thread::yield_now();
            }
        };
        for v in 1..VERSIONS {
            wait_for_round();
            swap_to(v);
            current.store(v, Ordering::SeqCst);
        }
        wait_for_round();
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(wrong.into_inner().unwrap(), Vec::<String>::new());
    assert!(run(0).multiset_eq(&expected[VERSIONS - 1][0]));
}

#[test]
fn an_evicted_variant_is_resolved_again_never_served() {
    let instance = generated(19);
    // SP hash-partitions every join; RD's picks read these relations whole,
    // as segment groups.
    let db = open_with(&instance, |c| c.planner.strategy = Some(Strategy::SP));
    let catalog = db.catalog();
    let joins = chain_query_sql(RELATIONS);
    let text = format!("{joins} WHERE R1.id < ?1");
    let stmt = db.prepare(&text).unwrap();
    let expect = |arg: i64| {
        oracle_over(
            &db,
            &format!("{joins} WHERE R1.id < {arg}"),
            &instance.catalog,
        )
    };
    // A hash-partitioned base operand of the plan: its relation, key
    // column and degree name the resident variant it reads (a range-split
    // or shared one reads the image, which is never evicted).
    let planned = stmt.planned();
    let (name, key_col, degree) = planned
        .plan
        .ops
        .iter()
        .filter(|op| op.degree() > 1)
        .find_map(|op| {
            let spec = planned.binding.spec(op.join).unwrap();
            [(&op.left, spec.left_key), (&op.right, spec.right_key)]
                .into_iter()
                .zip(op.split)
                .find_map(|((operand, key), split)| match operand {
                    OperandSource::Base { relation } if split == Split::Hash => {
                        Some((relation.clone(), key, op.degree()))
                    }
                    _ => None,
                })
        })
        .unwrap_or_else(|| panic!("no partitioned base operand\n{}", planned.explain()));
    let (rows, _) = drain(db.execute_prepared(&stmt, &[200]).unwrap());
    assert!(rows.multiset_eq(&expect(200)));
    let (_, warm) = drain(db.execute_prepared(&stmt, &[201]).unwrap());
    assert_eq!(
        warm.fragment_cache_built, 0,
        "the template's operands are resident"
    );

    // Evict that variant with four newer ones of the same relation, while
    // the test itself keeps it alive: alive is not resident, and the
    // template must not serve it.
    let (kept, hit) = catalog.fragments(&name, key_col, degree).unwrap();
    assert!(hit);
    let evictions = catalog.resident_stats().evictions;
    for d in (degree + 1..).take(MAX_VARIANTS_PER_RELATION) {
        catalog.fragments(&name, key_col, d).unwrap();
    }
    assert!(catalog.resident_stats().evictions > evictions);

    let misses = catalog.resident_stats().misses;
    let (rows, cold) = drain(db.execute_prepared(&stmt, &[37]).unwrap());
    assert!(
        rows.multiset_eq(&expect(37)),
        "answered from a fresh variant"
    );
    assert!(
        cold.fragment_cache_built > 0,
        "the evicted variant was resolved again"
    );
    assert!(catalog.resident_stats().misses > misses);
    let (rows, warm) = drain(db.execute_prepared(&stmt, &[38]).unwrap());
    assert!(rows.multiset_eq(&expect(38)));
    assert_eq!(warm.fragment_cache_built, 0, "and is held again");
    drop(kept);
}
