//! Criterion bench: the four strategies end-to-end on the real threaded
//! engine (host scale: 4 logical processors, 6 relations).
//!
//! Not a reproduction of the paper's figures (that is the simulator's
//! job) — this checks that all four strategies are runnable dataflows and
//! tracks their relative host-scale behaviour over time.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mj_core::generator::{generate, GeneratorInput};
use mj_core::strategy::Strategy;
use mj_exec::{run_plan, ExecConfig, QueryBinding};
use mj_plan::cardinality::{node_cards, UniformOneToOne};
use mj_plan::cost::{tree_costs, CostModel};
use mj_plan::shapes::{build, Shape};
use mj_storage::{Catalog, WisconsinGenerator};

fn bench_strategies(c: &mut Criterion) {
    let k = 6usize;
    let n = 5_000usize;
    let procs = 4usize;
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 3).generate_named("R", k) {
        catalog.register(name, rel);
    }

    let mut group = c.benchmark_group("real_engine");
    group.sample_size(10);
    for shape in [Shape::WideBushy, Shape::RightLinear] {
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        for strategy in Strategy::ALL {
            let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
            input.allow_oversubscribe = true;
            let plan = generate(strategy, &input).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{shape}"), strategy.label()),
                &plan,
                |b, plan| {
                    b.iter(|| {
                        let out = run_plan(plan, &binding, catalog.clone(), &ExecConfig::default())
                            .unwrap();
                        assert_eq!(out.relation.len(), n);
                        out
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
