//! Criterion bench: phase-1 optimizers over chain queries ("two-phase
//! optimization seems a reasonable way to cut down on the optimization
//! time", §1.2 — this quantifies phase 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mj_plan::cost::CostModel;
use mj_plan::{
    greedy_tree, iterative_improvement, optimize_bushy, optimize_linear, simulated_annealing,
    AnnealingOptions, IterativeOptions, QueryGraph,
};

fn bench_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase1_optimizer");
    for k in [6usize, 10, 14] {
        let graph = QueryGraph::regular_chain(k, 5_000).unwrap();
        group.bench_with_input(BenchmarkId::new("bushy_dp", k), &graph, |b, g| {
            b.iter(|| optimize_bushy(g, &CostModel::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("linear_dp", k), &graph, |b, g| {
            b.iter(|| optimize_linear(g, &CostModel::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("greedy", k), &graph, |b, g| {
            b.iter(|| greedy_tree(g, &CostModel::default()).unwrap())
        });
    }
    // Chains the subset-walking DP could not run at all (k = 20 took
    // seconds, k = 28 needs a 2^28-entry table): microseconds now, so a
    // return to exponential behaviour is visible here. What gates it is the
    // pair-count pin in `mj-plan`'s `phase1_differential` test.
    for k in [20usize, 28] {
        let graph = QueryGraph::regular_chain(k, 5_000).unwrap();
        group.bench_with_input(BenchmarkId::new("bushy_dp", k), &graph, |b, g| {
            b.iter(|| optimize_bushy(g, &CostModel::default()).unwrap())
        });
    }
    // What `PAIR_BUDGET` is sized from: the densest graph it still plans
    // exactly (12-clique, 261 625 pairs) and the cost of giving up on one
    // it does not (16-clique: stops after 2^18 pairs).
    for k in [12usize, 16] {
        let mut graph = QueryGraph::new();
        for i in 0..k {
            graph
                .add_relation(format!("R{i}"), 100 * (i as u64 + 1))
                .unwrap();
        }
        for a in 0..k {
            for b in a + 1..k {
                graph.add_edge(a, b, 0.01).unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("bushy_dp_clique", k), &graph, |b, g| {
            b.iter(|| optimize_bushy(g, &CostModel::default()).is_ok())
        });
    }
    group.finish();
}

fn bench_local_search(c: &mut Criterion) {
    // Smaller budgets than the defaults: benches measure cost-per-probe of
    // the search machinery, not solution quality.
    let ii_opts = IterativeOptions {
        restarts: 1,
        patience: 64,
        ..IterativeOptions::default()
    };
    let sa_opts = AnnealingOptions {
        stage_iters: 32,
        frozen_stages: 2,
        ..AnnealingOptions::default()
    };
    let mut group = c.benchmark_group("phase1_local_search");
    for k in [10usize, 20, 30] {
        let graph = QueryGraph::regular_chain(k, 5_000).unwrap();
        group.bench_with_input(
            BenchmarkId::new("iterative_improvement", k),
            &graph,
            |b, g| b.iter(|| iterative_improvement(g, &CostModel::default(), ii_opts).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("simulated_annealing", k),
            &graph,
            |b, g| b.iter(|| simulated_annealing(g, &CostModel::default(), sa_opts).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_optimizers, bench_local_search);
criterion_main!(benches);
