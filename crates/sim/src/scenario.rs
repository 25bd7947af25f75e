//! End-to-end experiment scenarios: the paper's §4 setup as one call.
//!
//! A [`Scenario`] is one cell of the experiment grid: (query shape,
//! strategy, relation size, processor count) for the regular 10-relation
//! Wisconsin query. [`run_scenario`] performs phase-1 costing, phase-2
//! plan generation, and simulation.

use mj_core::generator::{generate, GeneratorInput};
use mj_core::plan_ir::{ParallelPlan, PlanStats};
use mj_core::strategy::Strategy;
use mj_plan::cardinality::{node_cards, UniformOneToOne};
use mj_plan::cost::{tree_costs, CostModel};
use mj_plan::shapes::{self, Shape};
use mj_relalg::Result;

use crate::engine::simulate;
use crate::params::SimParams;
use crate::report::SimResult;

/// One experiment cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Query-tree shape (Fig. 8).
    pub shape: Shape,
    /// Parallelization strategy.
    pub strategy: Strategy,
    /// Number of relations in the chain (the paper uses 10).
    pub relations: usize,
    /// Tuples per relation (5 000 or 40 000 in the paper).
    pub tuples: u64,
    /// Processors (20–80 in the paper).
    pub processors: usize,
}

impl Scenario {
    /// The paper's configuration: 10 relations.
    pub fn paper(shape: Shape, strategy: Strategy, tuples: u64, processors: usize) -> Self {
        Scenario {
            shape,
            strategy,
            relations: 10,
            tuples,
            processors,
        }
    }
}

/// Everything produced by one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Simulated response time in seconds.
    pub response_time: f64,
    /// The generated plan's overhead statistics.
    pub plan_stats: PlanStats,
    /// The generated plan (for inspection / Gantt rendering).
    pub plan: ParallelPlan,
    /// Raw simulation output.
    pub sim: SimResult,
}

/// Builds the plan for a scenario without simulating it.
pub fn build_plan(scenario: &Scenario) -> Result<ParallelPlan> {
    let tree = shapes::build(scenario.shape, scenario.relations)?;
    let cards = node_cards(&tree, &UniformOneToOne { n: scenario.tuples });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let input = GeneratorInput::new(&tree, &cards, &costs, scenario.processors);
    generate(scenario.strategy, &input)
}

/// Runs one scenario under the given machine parameters.
pub fn run_scenario(scenario: &Scenario, params: &SimParams) -> Result<ScenarioResult> {
    let plan = build_plan(scenario)?;
    let sim = simulate(&plan, params)?;
    Ok(ScenarioResult {
        scenario: *scenario,
        response_time: sim.response_time,
        plan_stats: plan.stats(),
        plan,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_runs() {
        let s = Scenario::paper(Shape::WideBushy, Strategy::SE, 5000, 40);
        let r = run_scenario(&s, &SimParams::default()).unwrap();
        assert!(r.response_time > 0.0);
        assert_eq!(r.plan.ops.len(), 9);
        assert_eq!(r.sim.spans.len(), 9);
    }

    #[test]
    fn plan_stats_surface_overhead_drivers() {
        let sp = Scenario::paper(Shape::LeftLinear, Strategy::SP, 5000, 80);
        let fp = Scenario::paper(Shape::LeftLinear, Strategy::FP, 5000, 80);
        let rp = run_scenario(&sp, &SimParams::default()).unwrap();
        let rf = run_scenario(&fp, &SimParams::default()).unwrap();
        // §3.5: "the startup overhead is large for SP and small for FP".
        assert!(rp.plan_stats.operation_processes > 5 * rf.plan_stats.operation_processes);
        // "Because SP uses the most processors per operation, SP suffers
        // most from coordination overhead."
        assert!(rp.plan_stats.tuple_streams > rf.plan_stats.tuple_streams);
    }

    #[test]
    fn invalid_scenarios_error() {
        let s = Scenario {
            shape: Shape::WideBushy,
            strategy: Strategy::FP,
            relations: 1,
            tuples: 10,
            processors: 4,
        };
        assert!(run_scenario(&s, &SimParams::default()).is_err());
        let s = Scenario::paper(Shape::WideBushy, Strategy::FP, 10, 0);
        assert!(run_scenario(&s, &SimParams::default()).is_err());
    }
}
