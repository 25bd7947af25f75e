//! Property-based tests over the core invariants of the reproduction.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties run on a small seeded-PRNG harness: every case is
//! generated from a deterministic [`StdRng`] stream, so failures are
//! reproducible by seed. The two join properties drive the engine's
//! columnar join operators (`join_op`), the only hash joins there are.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use multijoin::core::allocation::discretization_error;
use multijoin::core::strategy::Strategy;
use multijoin::exec::operator::join_op;
use multijoin::exec::InputMode;
use multijoin::plan::cardinality::node_cards;
use multijoin::plan::query::to_xra;
use multijoin::plan::segment::segments;
use multijoin::plan::shapes::build;
use multijoin::prelude::*;
use multijoin::relalg::column::ColumnBatch;
use multijoin::relalg::hash::bucket_of;
use multijoin::relalg::ops::nested_loop_join;
use multijoin::storage::{fragment_columns, scan_columns};

const CASES: usize = 64;

/// Runs `body` for `CASES` deterministic seeds, labelling failures.
fn for_cases(name: &str, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (case as u64) << 8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("property `{name}` failed at case {case}: {e:?}");
        }
    }
}

// ---- random generators (the former proptest strategies) ----

fn arb_string(rng: &mut StdRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.gen_range(min..max + 1);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

fn arb_keys(rng: &mut StdRng, lo: i64, hi: i64, max_len: usize) -> Vec<i64> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn int_relation(keys: &[i64]) -> Relation {
    let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
    let tuples = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple::from_ints(&[k, i as i64]))
        .collect();
    Relation::new_unchecked(schema, tuples)
}

fn join_spec() -> EquiJoin {
    EquiJoin::new(0, 0, Projection::new(vec![0, 1, 3]))
}

// ---- properties ----

/// Runs the engine's join operator for `algorithm` over `l ⋈ r` the way
/// its task drives it, each side cut into random batch ranges: the simple
/// join builds every left range before probing with the right ones, the
/// pipelining join takes the two sides' ranges in a random interleaving.
/// Returns the result rows.
fn columnar_join(
    rng: &mut StdRng,
    algorithm: JoinAlgorithm,
    l: &Arc<ColumnBatch>,
    r: &Arc<ColumnBatch>,
    spec: &EquiJoin,
) -> Vec<Tuple> {
    fn splits(rng: &mut StdRng, rows: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::new();
        let mut pos = 0;
        while pos < rows {
            let end = (pos + rng.gen_range(1..40usize)).min(rows);
            ranges.push(pos..end);
            pos = end;
        }
        ranges
    }
    let mut op = join_op(algorithm, spec.clone());
    let mut out = ColumnBatch::shapeless();
    let (mut left, mut right) = (splits(rng, l.rows()), splits(rng, r.rows()));
    match op.input_mode() {
        InputMode::BuildThenProbe { build: 0 } => {
            for range in left {
                op.build_batch(l, range).unwrap();
            }
            op.finish_build();
            for range in right {
                op.absorb_batch(1, r, range, &mut out).unwrap();
            }
        }
        _ => {
            left.reverse();
            right.reverse();
            while !left.is_empty() || !right.is_empty() {
                let side = if right.is_empty() || (!left.is_empty() && rng.gen::<bool>()) {
                    0
                } else {
                    1
                };
                let (cols, range) = match side {
                    0 => (l, left.pop().unwrap()),
                    _ => (r, right.pop().unwrap()),
                };
                op.absorb_batch(side, cols, range, &mut out).unwrap();
            }
        }
    }
    op.finish(&mut out).unwrap();
    (0..out.rows()).map(|i| out.row(i).unwrap()).collect()
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

/// Both join operators agree with the nested-loop oracle on arbitrary
/// multisets of keys — duplicates, negatives, empty operands — whatever
/// batch ranges (and, pipelining, interleaving) the operands arrive in.
#[test]
fn hash_joins_match_oracle() {
    for_cases("hash_joins_match_oracle", |rng| {
        let l = int_relation(&arb_keys(rng, -20, 20, 120));
        let r = int_relation(&arb_keys(rng, -20, 20, 120));
        let spec = join_spec();
        let oracle = sorted(
            nested_loop_join(&l, &r, &spec)
                .unwrap()
                .iter()
                .cloned()
                .collect(),
        );
        let (lc, rc) = (
            Arc::new(scan_columns(&l).unwrap()),
            Arc::new(scan_columns(&r).unwrap()),
        );
        for algorithm in [JoinAlgorithm::Simple, JoinAlgorithm::Pipelining] {
            let got = sorted(columnar_join(rng, algorithm, &lc, &rc, &spec));
            assert_eq!(got, oracle, "{algorithm}");
        }
    });
}

/// Hash-partitioned joins are partition-count invariant: joining bucket
/// `i` of both operands' fragmentations (`fragment_columns`, degree 1–5)
/// and taking the union gives the unpartitioned join.
#[test]
fn partitioned_join_is_partition_invariant() {
    for_cases("partitioned_join_is_partition_invariant", |rng| {
        let l = Arc::new(scan_columns(&int_relation(&arb_keys(rng, 0, 50, 150))).unwrap());
        let r = Arc::new(scan_columns(&int_relation(&arb_keys(rng, 0, 50, 150))).unwrap());
        let parts = rng.gen_range(1..6usize);
        let algorithm =
            [JoinAlgorithm::Simple, JoinAlgorithm::Pipelining][rng.gen_range(0..2usize)];
        let spec = join_spec();
        let whole = sorted(columnar_join(rng, algorithm, &l, &r, &spec));
        let (lf, rf) = (
            fragment_columns(&l, 0, parts).unwrap(),
            fragment_columns(&r, 0, parts).unwrap(),
        );
        assert_eq!((lf.len(), rf.len()), (parts, parts));
        let mut union = Vec::new();
        for (lp, rp) in lf.iter().zip(rf.iter()) {
            union.extend(columnar_join(rng, algorithm, lp, rp, &spec));
        }
        assert_eq!(sorted(union), whole, "{parts} parts, {algorithm}");
    });
}

/// `project_concat_into` with a reused scratch buffer matches the naive
/// `concat().project()` on arbitrary tuples and column lists — including
/// error cases (out-of-range columns must fail identically and leave the
/// scratch usable).
#[test]
fn project_concat_scratch_matches_naive() {
    for_cases("project_concat_scratch_matches_naive", |rng| {
        let mut scratch = Vec::new();
        // Many rows per case so one scratch buffer is genuinely reused.
        for _ in 0..16 {
            let arb_tuple = |rng: &mut StdRng| {
                let arity = rng.gen_range(0..6usize);
                Tuple::new(
                    (0..arity)
                        .map(|_| {
                            if rng.gen_range(0..4) == 0 {
                                Value::str(arb_string(rng, b"xyz", 0, 6))
                            } else {
                                Value::Int(rng.gen_range(-99..100))
                            }
                        })
                        .collect(),
                )
            };
            let a = arb_tuple(rng);
            let b = arb_tuple(rng);
            let total = a.arity() + b.arity();
            // Bias towards valid columns but keep some out-of-range.
            let cols: Vec<usize> = (0..rng.gen_range(0..6usize))
                .map(|_| rng.gen_range(0..total + 2))
                .collect();
            let naive = a.concat(&b).project(&cols);
            let fused = Tuple::project_concat(&a, &b, &cols);
            let scratched = Tuple::project_concat_into(&a, &b, &cols, &mut scratch);
            match naive {
                Ok(expected) => {
                    assert_eq!(fused.unwrap(), expected);
                    assert_eq!(scratched.unwrap(), expected);
                }
                Err(_) => {
                    assert!(fused.is_err());
                    assert!(scratched.is_err());
                }
            }
        }
    });
}

/// Proportional allocation: sums to total, floor of one, and the
/// discretization error shrinks (weakly) when processors scale up 8x.
#[test]
fn allocation_invariants() {
    for_cases("allocation_invariants", |rng| {
        let n = rng.gen_range(1..12usize);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01f64..100.0)).collect();
        let total = weights.len() + rng.gen_range(0..40usize);
        let counts = proportional_counts(&weights, total).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), total);
        assert!(counts.iter().all(|&c| c >= 1));
        let big = proportional_counts(&weights, total * 8).unwrap();
        let e_small = discretization_error(&weights, &counts);
        let e_big = discretization_error(&weights, &big);
        assert!(e_big <= e_small + 1e-9, "error grew: {e_small} -> {e_big}");
    });
}

/// Every (shape, strategy, processors) combination yields a valid plan
/// whose ops cover each join exactly once.
#[test]
fn generated_plans_always_validate() {
    for_cases("generated_plans_always_validate", |rng| {
        let shape = Shape::ALL[rng.gen_range(0..5usize)];
        let strategy = Strategy::ALL[rng.gen_range(0..4usize)];
        let k = rng.gen_range(2..11usize);
        let procs = rng.gen_range(10..81usize);
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 1000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, procs);
        let plan = generate(strategy, &input).unwrap();
        validate_plan(&plan).unwrap();
        assert_eq!(plan.ops.len(), k - 1);
    });
}

/// Process fusion over random bushy trees with mixed cardinalities (5 next
/// to 50 000), any strategy, any grain: the plan validates — one processor
/// per group, no process waiting for a stream it feeds — never runs more
/// processes than its operations would apart, and simulates to completion.
#[test]
fn fused_plans_validate_and_never_add_processes() {
    for_cases("fused_plans_validate_and_never_add_processes", |rng| {
        let k = rng.gen_range(2..15usize);
        let mut b = JoinTree::builder();
        let mut roots: Vec<_> = (0..k).map(|i| b.leaf(format!("R{i}"))).collect();
        while roots.len() > 1 {
            let l = roots.swap_remove(rng.gen_range(0..roots.len()));
            let r = roots.swap_remove(rng.gen_range(0..roots.len()));
            roots.push(b.join(l, r));
        }
        let tree = b.build(roots[0]).unwrap();
        let mut cards = vec![0u64; tree.nodes().len()];
        for id in 0..cards.len() {
            cards[id] = match tree.children(id) {
                None => [5, 50, 500, 5_000, 50_000][rng.gen_range(0..5usize)],
                Some((l, r)) => (cards[l].min(cards[r]) * rng.gen_range(1..5u64) / 2).max(1),
            };
        }
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let strategy = Strategy::ALL[rng.gen_range(0..4usize)];
        let mut input = GeneratorInput::new(&tree, &cards, &costs, rng.gen_range(1..33usize));
        input.allow_oversubscribe = true;
        let apart = generate(strategy, &input).unwrap();
        input.grain = [93.0, 1000.0, 6630.0, 1e9][rng.gen_range(0..4usize)];
        let plan = generate(strategy, &input).unwrap();
        validate_plan(&plan).unwrap_or_else(|e| panic!("{e}\n{plan}"));
        let stats = plan.stats();
        let degrees: usize = plan.ops.iter().map(|op| op.degree()).sum();
        assert_eq!(plan.ops.len(), apart.ops.len());
        assert!(stats.operation_processes <= degrees - stats.fused_ops);
        assert!(stats.operation_processes <= apart.stats().operation_processes);
        assert!(stats.tuple_streams <= apart.stats().tuple_streams);
        let roots = plan.process_roots();
        for op in &plan.ops {
            assert_eq!(op.procs, plan.ops[roots[op.id]].procs, "{plan}");
        }
        let sim = simulate(&plan, &SimParams::default()).unwrap();
        assert!(sim.response_time.is_finite() && sim.response_time > 0.0);
    });
}

/// The simulator is total and deterministic over the paper grid.
#[test]
fn simulation_is_deterministic() {
    for_cases("simulation_is_deterministic", |rng| {
        let scenario = Scenario::paper(
            Shape::ALL[rng.gen_range(0..5usize)],
            Strategy::ALL[rng.gen_range(0..4usize)],
            rng.gen_range(100u64..5000),
            rng.gen_range(9..40usize),
        );
        let params = SimParams::default();
        let a = run_scenario(&scenario, &params).unwrap().response_time;
        let b = run_scenario(&scenario, &params).unwrap().response_time;
        assert!(a > 0.0 && a == b);
    });
}

/// Segmentation partitions the joins of any shape.
#[test]
fn segmentation_partitions_joins() {
    for_cases("segmentation_partitions_joins", |rng| {
        let shape = Shape::ALL[rng.gen_range(0..5usize)];
        let k = rng.gen_range(2..12usize);
        let tree = build(shape, k).unwrap();
        let seg = segments(&tree);
        let covered: usize = seg.segments.iter().map(|s| s.len()).sum();
        assert_eq!(covered, k - 1);
        // Waves are a topological grouping: every dependency is in an
        // earlier wave.
        let waves = seg.waves();
        let mut wave_of = vec![usize::MAX; seg.segments.len()];
        for (w, segs) in waves.iter().enumerate() {
            for &s in segs {
                wave_of[s] = w;
            }
        }
        for (s, deps) in seg.deps.iter().enumerate() {
            for &d in deps {
                assert!(wave_of[d] < wave_of[s]);
            }
        }
    });
}

/// The regular query evaluates to exactly n tuples on every shape
/// (sequential oracle), and the result keys are a permutation.
#[test]
fn regular_query_invariant() {
    for_cases("regular_query_invariant", |rng| {
        let shape = Shape::ALL[rng.gen_range(0..5usize)];
        let n = rng.gen_range(1..80usize);
        let catalog = Arc::new(Catalog::new());
        for (name, rel) in WisconsinGenerator::new(n, 3).generate_named("R", 5) {
            catalog.register(name, rel);
        }
        let tree = build(shape, 5).unwrap();
        let out = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        assert_eq!(out.len(), n);
        let mut keys: Vec<i64> = out.iter().map(|t| t.int(0).unwrap()).collect();
        keys.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).collect();
        assert_eq!(keys, expected);
    });
}

/// The paper's cost function: shape-invariant total for the regular
/// query, (5k-6)·N for k relations.
#[test]
fn cost_invariance() {
    for_cases("cost_invariance", |rng| {
        let shape = Shape::ALL[rng.gen_range(0..5usize)];
        let k = rng.gen_range(2..13usize);
        let n = rng.gen_range(1u64..100_000);
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let expected = (5 * k - 6) as f64 * n as f64;
        assert!((costs.total - expected).abs() < 1e-6);
    });
}

/// Hash fragmentation (`fragment_columns`, what the engine partitions base
/// relations with): a true partition, each fragment the bucket a consumer
/// instance reads of a materialized operand, and key-consistent across
/// relations — a key lands in the same fragment on both sides of a join.
#[test]
fn partitioning_is_consistent() {
    for_cases("partitioning_is_consistent", |rng| {
        let keys = arb_keys(rng, -1000, 1000, 300);
        let parts = rng.gen_range(1..10usize);
        let cols = Arc::new(scan_columns(&int_relation(&keys)).unwrap());
        let frags = fragment_columns(&cols, 0, parts).unwrap();
        assert_eq!(frags.len(), parts);
        let total: usize = frags.iter().map(|f| f.rows()).sum();
        assert_eq!(total, keys.len());
        let mut seen: HashMap<i64, usize> = HashMap::new();
        for (p, frag) in frags.iter().enumerate() {
            for &k in frag.int_col(0).unwrap() {
                assert_eq!(bucket_of(k, parts), p, "key {k} outside its bucket");
                if let Some(prev) = seen.insert(k, p) {
                    assert_eq!(prev, p, "key {k} in two fragments");
                }
            }
        }
        let other: Vec<i64> = keys.iter().rev().copied().collect();
        let other = Arc::new(scan_columns(&int_relation(&other)).unwrap());
        for (p, frag) in fragment_columns(&other, 0, parts)
            .unwrap()
            .iter()
            .enumerate()
        {
            for k in frag.int_col(0).unwrap() {
                assert_eq!(seen[k], p, "key {k} lands apart on the other side");
            }
        }
    });
}
