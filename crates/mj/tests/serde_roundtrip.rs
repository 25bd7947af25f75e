//! Serialization round-trips: parallel plans, simulation results, and
//! parameters all survive JSON — the contract that lets plans be shipped
//! to schedulers and results archived next to the CSV series.

use multijoin::core::strategy::Strategy;
use multijoin::plan::cardinality::node_cards;
use multijoin::plan::shapes::build;
use multijoin::prelude::*;

fn plan_for(shape: Shape, strategy: Strategy) -> ParallelPlan {
    let tree = build(shape, 10).unwrap();
    let cards = node_cards(&tree, &UniformOneToOne { n: 5_000 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let input = GeneratorInput::new(&tree, &cards, &costs, 40);
    generate(strategy, &input).unwrap()
}

#[test]
fn parallel_plans_roundtrip_json() {
    for shape in Shape::ALL {
        for strategy in Strategy::ALL {
            let plan = plan_for(shape, strategy);
            let json = serde_json::to_string(&plan).unwrap();
            let back: ParallelPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan, "{shape}/{strategy}");
            // The deserialized plan is still executable by the validator
            // and the simulator.
            validate_plan(&back).unwrap();
            let sim = simulate(&back, &SimParams::default()).unwrap();
            assert!(sim.response_time > 0.0);
        }
    }
}

#[test]
fn sim_params_roundtrip_json() {
    for params in [SimParams::default(), SimParams::idealized()] {
        let json = serde_json::to_string(&params).unwrap();
        let back: SimParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, params);
    }
}

#[test]
fn sim_results_roundtrip_json() {
    let plan = plan_for(Shape::RightBushy, Strategy::RD);
    let sim = simulate(&plan, &SimParams::default()).unwrap();
    let json = serde_json::to_string(&sim).unwrap();
    let back: multijoin::sim::SimResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.response_time, sim.response_time);
    assert_eq!(back.spans.len(), sim.spans.len());
    for (a, b) in back.spans.iter().zip(&sim.spans) {
        assert_eq!(a.op, b.op);
        assert_eq!(a.busy, b.busy);
    }
}

#[test]
fn xra_plans_roundtrip_json() {
    use multijoin::plan::query::to_xra;

    let tree = build(Shape::WideBushy, 8).unwrap();
    let plan = to_xra(&tree, 3, JoinAlgorithm::Pipelining);
    let json = serde_json::to_string(&plan).unwrap();
    let from_json: XraNode = serde_json::from_str(&json).unwrap();
    assert_eq!(from_json, plan);
}
