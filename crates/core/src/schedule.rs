//! Analytic schedule costing: estimated parallel response time of a
//! [`ParallelPlan`], in the §4.3 cost unit ("one action on one tuple").
//!
//! Phase 1 minimizes *total* work, which cannot rank parallelizations —
//! every regular-query tree costs 44N. What distinguishes the four
//! strategies is the *schedule*: how per-operation work divides over
//! processors, how pipelines overlap, and the two §3.5 overheads (serial
//! process startup, per-stream handshakes). This module estimates a
//! makespan for any plan from exactly those ingredients, so a planner can
//! cost all four strategies and pick the cheapest — without running the
//! discrete-event simulator (which lives downstream in `mj-sim` and would
//! invert the crate layering). Both read their costs from one
//! [`Machine`]; this module converts them to tuple actions.
//!
//! The model is deliberately as crude as the paper's cost function: per-op
//! time is `work / degree`, a live pipeline lets a consumer finish one
//! *tail* after its slowest producer, process initializations are strictly
//! serial (§2.2), and every point-to-point stream costs one handshake at
//! each endpoint. "Parallelization itself perturbs true costs, so
//! precision would be illusory."
//!
//! Operations fused into one process ([`OperandSource::Fused`]) are priced
//! as that one process: one startup, the members' work in series, nothing
//! for the hand-over between them. A *segment group* — the same members
//! run by `d` instances over a range-split probe and shared build sides
//! ([`Split`]) — costs `d` starts, the segment's work ÷ `d`, and, before
//! its instances start, the serial build of each shared table that is not
//! resident: a materialized build side is read and indexed once, at the
//! re-scan price per tuple, instead of re-scanned by every instance. It
//! opens no stream and so pays no handshake; the pieces its build sides'
//! producers cut ride their completion reports.
//!
//! Two terms describe this repo's engine rather than PRISMA's machine
//! (both vanish under [`ScheduleModel::prisma`]): a materialized
//! intermediate is written once and then re-scanned *in full* by every
//! consumer instance, and the logical processors of a plan share a fixed
//! pool of physical workers, so no schedule finishes before the summed
//! busy time divided by that pool ([`ScheduleEstimate::bounded_by`]).

use mj_relalg::JoinAlgorithm;

use crate::machine::Machine;
use crate::plan_ir::{OperandSource, ParallelPlan, PlanOp, Split};
use mj_plan::cost::TreeCosts;

/// The analytic schedule model: a [`Machine`] and the one rule that is
/// not a machine cost, the pipeline tail. It counts in §4.3 cost units
/// (one action on one tuple): each cost is the machine's seconds divided by
/// its [`action_s`](Machine::action_s).
///
/// [`Default`] is the model **measured on this repo's engine**
/// ([`Machine::measured`], which records the calibration);
/// [`prisma`](Self::prisma) keeps the paper's machine for the simulator
/// comparisons and figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleModel {
    /// The machine whose costs the model reads.
    pub machine: Machine,
    /// Fraction of a consumer's own work that trails its slowest live
    /// producer: a pipelined consumer cannot finish before the last input
    /// tuple arrives, plus the time to process the final batch.
    pub pipeline_tail: f64,
}

impl Default for ScheduleModel {
    fn default() -> Self {
        Self::on(Machine::measured())
    }
}

impl ScheduleModel {
    /// The model of `machine` with the structural pipeline tail, 0.1.
    fn on(machine: Machine) -> Self {
        ScheduleModel {
            machine,
            pipeline_tail: 0.1,
        }
    }

    /// The paper's machine ([`Machine::prisma`]), so analytic estimates and
    /// simulated times agree in shape.
    pub fn prisma() -> Self {
        Self::on(Machine::prisma())
    }

    /// A model with zero overheads: pure `work / degree` with pipeline
    /// overlap — the idealized diagrams of Figs. 3–7.
    pub fn idealized() -> Self {
        ScheduleModel {
            machine: Machine::idealized(),
            pipeline_tail: 0.0,
        }
    }

    /// Cost to initialize one operation process, serial in the scheduler.
    pub fn startup_per_process(&self) -> f64 {
        self.machine.t_init / self.machine.action_s
    }

    /// Handshake per point-to-point tuple stream, charged to each endpoint
    /// instance.
    pub fn handshake_per_stream(&self) -> f64 {
        self.machine.t_handshake / self.machine.action_s
    }

    /// Per-tuple cost of a materialized edge ([`Machine::t_rescan`]).
    pub fn rescan_per_tuple(&self) -> f64 {
        self.machine.t_rescan / self.machine.action_s
    }

    /// The least work that pays for one more operation process: its own
    /// start plus one stream end in and one out. The generator gives an
    /// operation no more processes than its estimated work holds grains
    /// ([`max_useful_degree`](crate::allocation::max_useful_degree)) — the
    /// linear form of the paper's `w/p + s·p` trade-off (§3.5): below one
    /// grain per process, starting the process costs more than the work it
    /// takes over.
    pub fn process_grain(&self) -> f64 {
        self.startup_per_process() + 2.0 * self.handshake_per_stream()
    }
}

/// The estimated schedule of one plan.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleEstimate {
    /// Estimated response time in cost units (the planner's objective).
    pub makespan: f64,
    /// Serial startup spent initializing operation processes.
    pub startup: f64,
    /// Total handshake cost over all tuple streams (coordination driver).
    pub coordination: f64,
    /// Sum of per-join work (phase 1's objective, for reference).
    pub total_work: f64,
    /// Estimated finish time per op (indexed by op id).
    pub per_op_finish: Vec<f64>,
    /// Summed busy time of every operation process plus all startups: the
    /// work the physical machine must get through whatever the schedule.
    pub busy: f64,
}

impl ScheduleEstimate {
    /// The estimate on a machine of `workers` physical workers: no
    /// schedule finishes before its summed busy time divided by them. A
    /// plan's logical processors beyond that count only multiplex.
    pub fn bounded_by(mut self, workers: usize) -> Self {
        self.makespan = self.makespan.max(self.busy / workers.max(1) as f64);
        self
    }
}

/// Estimated extra makespan of one post-join pipeline stage (partitioned
/// aggregation, limit) fed by a live stream from `producers` instances:
/// the stage's own per-instance work trails the producer's finish by the
/// pipeline-tail fraction, plus its serial process startups and
/// per-stream handshakes — the same ingredients the
/// join schedule is costed from, so the scan filters' selectivities,
/// folded into `input_card`, flow straight into the planner's objective.
pub fn stage_tail_cost(
    input_card: f64,
    degree: usize,
    producers: usize,
    model: &ScheduleModel,
) -> f64 {
    let degree = degree.max(1) as f64;
    let per_instance_work = input_card.max(0.0) / degree;
    let streams_per_instance = producers as f64;
    model.pipeline_tail * per_instance_work
        + streams_per_instance * model.handshake_per_stream()
        + degree * model.startup_per_process()
}

/// Summed busy time of the same stage (its counterpart in
/// [`ScheduleEstimate::busy`]): all of its work, every process start and
/// every stream end.
pub fn stage_busy(input_card: f64, degree: usize, producers: usize, model: &ScheduleModel) -> f64 {
    let degree = degree.max(1) as f64;
    input_card.max(0.0)
        + degree * (model.startup_per_process() + producers as f64 * model.handshake_per_stream())
}

/// Estimates the makespan of `plan` given the per-join work in `costs`
/// (from [`mj_plan::cost::tree_costs`] over the same tree).
pub fn estimate_schedule(
    plan: &ParallelPlan,
    costs: &TreeCosts,
    model: &ScheduleModel,
) -> ScheduleEstimate {
    let startup_per_process = model.startup_per_process();
    let handshake_per_stream = model.handshake_per_stream();
    let rescan_per_tuple = model.rescan_per_tuple();
    let n = plan.ops.len();
    let mut finish = vec![0.0f64; n];
    // The scheduler initializes processes one at a time (§2.2): op i's
    // instances may not start before every earlier-submitted op's
    // instances (plus its own) have been initialized.
    let mut init_done = 0.0f64;
    let mut coordination = 0.0f64;

    // Who consumes each op's output over the interconnect, and how (for
    // handshake accounting). A fused edge is neither stream nor fragment:
    // the result changes hands inside one process.
    // A shared build side is neither: its producer's pieces are indexed
    // once, into the one table every consumer instance adopts.
    let remote = |op: &PlanOp, side: usize| {
        let operand = [&op.left, &op.right][side];
        operand
            .producer()
            .filter(|_| operand.is_remote() && op.split[side] != Split::Shared)
    };
    let roots = plan.process_roots();
    let mut consumer_degree = vec![0usize; n];
    let mut materializes = vec![false; n];
    // Per process group, under its root: the serial builds of its shared
    // tables that are not resident, done before its instances start.
    let mut shared_builds = vec![0.0f64; n];
    for op in &plan.ops {
        for side in 0..2 {
            if let Some(from) = remote(op, side) {
                consumer_degree[from] = op.degree();
            }
        }
        for (operand, card) in [(&op.left, op.est_left), (&op.right, op.est_right)] {
            if let OperandSource::Materialized { from } = operand {
                materializes[*from] = true;
                if op.split[0] == Split::Shared && operand == &op.left {
                    shared_builds[roots[op.id]] += card as f64 * rescan_per_tuple;
                }
            }
        }
    }
    let mut busy = 0.0f64;
    // A process group is one process: started once, when its first member
    // is reached, and evaluating its members one after another. Indexed by
    // the group's root: when the member evaluated last finished.
    let mut process_clock: Vec<Option<f64>> = vec![None; n];

    for op in &plan.ops {
        let degree = op.degree().max(1) as f64;
        let running = process_clock[roots[op.id]];
        if running.is_none() {
            init_done += op.degree() as f64 * startup_per_process;
        }

        let algo_factor = match op.algorithm {
            JoinAlgorithm::Pipelining => model.machine.pipelining_work_factor,
            JoinAlgorithm::Simple => 1.0,
        };
        // Per-instance handshakes: one per stream this instance touches
        // (degree-of-peer streams per remote operand, plus its output fan).
        let mut streams_per_instance = consumer_degree[op.id] as f64;
        for side in 0..2 {
            if let Some(from) = remote(op, side) {
                streams_per_instance += plan.ops[from].degree() as f64;
            }
        }
        coordination += streams_per_instance * degree * handshake_per_stream;

        // A materialized edge: the producer writes its share once, every
        // consumer instance re-scans the whole operand.
        let mut moved = 0.0f64;
        if materializes[op.id] {
            moved += op.est_out as f64 / degree;
        }
        for side in 0..2 {
            let (operand, card) = [(&op.left, op.est_left), (&op.right, op.est_right)][side];
            let shared = op.split[side] == Split::Shared;
            if matches!(operand, OperandSource::Materialized { .. }) && !shared {
                moved += card as f64;
            }
        }

        let t_op = costs.per_join[op.join] / degree * algo_factor
            + streams_per_instance * handshake_per_stream
            + moved * rescan_per_tuple;
        busy += degree * t_op;

        // Earliest start: scheduler init — or, inside a running process,
        // the previous member's finish — plus completed dependencies.
        let mut start = running.unwrap_or(init_done);
        for &d in &op.start_after {
            start = start.max(finish[d]);
        }
        if running.is_none() {
            start += shared_builds[roots[op.id]];
            busy += shared_builds[roots[op.id]];
        }
        let mut t_finish = start + t_op;
        // A live pipeline: the consumer trails its slowest producer.
        for operand in [&op.left, &op.right] {
            if let OperandSource::Stream { from } = operand {
                t_finish = t_finish.max(finish[*from] + model.pipeline_tail * t_op);
            }
        }
        finish[op.id] = t_finish;
        process_clock[roots[op.id]] = Some(t_finish);
    }

    ScheduleEstimate {
        makespan: finish.iter().fold(0.0f64, |a, &b| a.max(b)),
        startup: init_done,
        coordination,
        total_work: costs.total,
        per_op_finish: finish,
        busy: busy + init_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorInput};
    use crate::strategy::Strategy;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::shapes::{build, Shape};

    fn estimate(shape: Shape, strategy: Strategy, n: u64, procs: usize) -> ScheduleEstimate {
        let tree = build(shape, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, procs);
        let plan = generate(strategy, &input).unwrap();
        estimate_schedule(&plan, &costs, &ScheduleModel::prisma())
    }

    #[test]
    fn idealized_sp_is_work_over_processors() {
        let tree = build(Shape::WideBushy, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 1000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, 20);
        let plan = generate(Strategy::SP, &input).unwrap();
        let est = estimate_schedule(&plan, &costs, &ScheduleModel::idealized());
        // SP runs joins one after another on all processors: the idealized
        // makespan is exactly total work / processors.
        assert!((est.makespan - costs.total / 20.0).abs() < 1e-6);
        assert_eq!(est.startup, 0.0);
        assert_eq!(est.coordination, 0.0);
    }

    #[test]
    fn sp_startup_overhead_bites_at_scale() {
        // The paper's central SP finding: startup (serial process inits,
        // 10 joins x 80 processors = 800 of them) overwhelms the shrinking
        // per-join work, so more processors eventually *hurt*.
        let at_20 = estimate(Shape::WideBushy, Strategy::SP, 5000, 20).makespan;
        let at_80 = estimate(Shape::WideBushy, Strategy::SP, 5000, 80).makespan;
        assert!(
            at_80 > at_20,
            "SP must degrade 20 -> 80 procs at 5K: {at_20} vs {at_80}"
        );
    }

    #[test]
    fn fp_beats_sp_on_bushy_trees_at_scale() {
        let sp = estimate(Shape::WideBushy, Strategy::SP, 40_000, 80).makespan;
        let fp = estimate(Shape::WideBushy, Strategy::FP, 40_000, 80).makespan;
        assert!(fp < sp, "FP {fp} must beat SP {sp} on a wide bushy tree");
    }

    #[test]
    fn pipelined_consumer_trails_its_producer() {
        let tree = build(Shape::RightLinear, 3).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 1000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, 4);
        let plan = generate(Strategy::FP, &input).unwrap();
        let est = estimate_schedule(&plan, &costs, &ScheduleModel::idealized());
        // Ops are topologically ordered: op 1 consumes op 0's stream.
        assert!(est.per_op_finish[1] > est.per_op_finish[0]);
        assert_eq!(est.total_work, costs.total);
    }

    #[test]
    fn prisma_model_reproduces_the_pre_calibration_estimates_bit_for_bit() {
        // Bit patterns of (makespan, startup, coordination) printed by the
        // commit before the measured model became the default, 10-relation
        // trees of 5000-tuple relations on 40 processors. The simulator
        // comparisons mean what they meant only while these hold.
        let pinned: [(Shape, Strategy, [u64; 3]); 8] = [
            (
                Shape::WideBushy,
                Strategy::SP,
                [0x40db3f0000000000, 0x40c2c00000000000, 0x412a0aaaaaaaaaaa],
            ),
            (
                Shape::WideBushy,
                Strategy::SE,
                [0x40c9bd71c71c71c8, 0x40afaaaaaaaaaaaa, 0x410cd75555555556],
            ),
            (
                Shape::WideBushy,
                Strategy::RD,
                [0x40c7d40000000001, 0x40b0aaaaaaaaaaaa, 0x4105824000000000],
            ),
            (
                Shape::WideBushy,
                Strategy::FP,
                [0x40c60b5555555556, 0x4090aaaaaaaaaaab, 0x40c6c95555555555],
            ),
            (
                Shape::RightLinear,
                Strategy::SP,
                [0x40db3f0000000001, 0x40c2c00000000000, 0x412a0aaaaaaaaaab],
            ),
            (
                Shape::RightLinear,
                Strategy::SE,
                [0x40db3f0000000001, 0x40c2c00000000000, 0x412a0aaaaaaaaaab],
            ),
            (
                Shape::RightLinear,
                Strategy::RD,
                [0x40c3865555555555, 0x4090aaaaaaaaaaab, 0x40c5395555555555],
            ),
            (
                Shape::RightLinear,
                Strategy::FP,
                [0x40caf25555555556, 0x4090aaaaaaaaaaab, 0x40c5395555555555],
            ),
        ];
        for (shape, strategy, bits) in pinned {
            let est = estimate(shape, strategy, 5000, 40);
            assert_eq!(
                [est.makespan, est.startup, est.coordination].map(f64::to_bits),
                bits,
                "{shape} {strategy}"
            );
        }
        let stage = stage_tail_cost(12345.0, 4, 8, &ScheduleModel::prisma());
        assert_eq!(stage.to_bits(), 0x40854faaaaaaaaab);
    }

    #[test]
    fn materialized_edges_pay_a_write_and_a_full_rescan_per_consumer_instance() {
        // SP on a left-linear tree of 1000-tuple relations, 4 processors:
        // 8 of the 9 joins read a materialized 1000-tuple left operand on 4
        // instances (4 x 1000 re-scanned) that its producer's 4 instances
        // wrote once (4 x 250).
        let tree = build(Shape::LeftLinear, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 1000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let plan = generate(Strategy::SP, &GeneratorInput::new(&tree, &cards, &costs, 4)).unwrap();
        let free = ScheduleModel::idealized();
        let priced = ScheduleModel {
            machine: Machine {
                t_rescan: 1.5 * free.machine.action_s,
                ..free.machine
            },
            ..free
        };
        let without = estimate_schedule(&plan, &costs, &free);
        let with = estimate_schedule(&plan, &costs, &priced);
        assert!((with.busy - without.busy - 1.5 * 8.0 * 5000.0).abs() < 1e-6);
        // Per instance: 250 written by each producer, 1000 read by each
        // consumer, on the critical path of a strict chain.
        assert!((with.makespan - without.makespan - 1.5 * 8.0 * 1250.0).abs() < 1e-6);
        // FP never materializes: the term does not touch it.
        let fp = generate(Strategy::FP, &GeneratorInput::new(&tree, &cards, &costs, 9)).unwrap();
        assert_eq!(
            estimate_schedule(&fp, &costs, &free),
            estimate_schedule(&fp, &costs, &priced)
        );
    }

    #[test]
    fn no_schedule_beats_its_busy_time_over_the_physical_workers() {
        let est = estimate(Shape::WideBushy, Strategy::FP, 40_000, 80);
        // Busy time covers at least all the work and every startup.
        assert!(est.busy >= est.total_work + est.startup);
        // 80 real processors: the critical path stands.
        assert_eq!(est.clone().bounded_by(80).makespan, est.makespan);
        // 2 workers under 80 logical processors: throughput-bound.
        assert_eq!(est.clone().bounded_by(2).makespan, est.busy / 2.0);
    }

    #[test]
    fn a_measured_start_dwarfs_prismas_and_a_stream_is_nearly_free() {
        let m = ScheduleModel::default();
        // A process start costs two orders of magnitude more tuple actions
        // here than on PRISMA; a stream two orders less than a start.
        assert!(m.startup_per_process() > 100.0 * ScheduleModel::prisma().startup_per_process());
        assert!(m.handshake_per_stream() * 100.0 < m.startup_per_process());
        assert_eq!(ScheduleModel::idealized().process_grain(), 0.0);
    }

    #[test]
    fn makespan_is_finite_and_positive_for_all_strategies() {
        for strategy in Strategy::ALL {
            for shape in Shape::ALL {
                let est = estimate(shape, strategy, 1000, 10);
                assert!(est.makespan.is_finite() && est.makespan > 0.0, "{strategy}");
            }
        }
    }

    #[test]
    fn a_process_group_is_one_startup_and_its_members_in_series() {
        // 14 relations of 50 tuples: every join is under a grain, so the
        // whole query is one process whatever the strategy — one startup,
        // no stream inside it, the joins one after another.
        let model = ScheduleModel::default();
        let tree = build(Shape::RightBushy, 14).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 50 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        for strategy in Strategy::ALL {
            let mut input = GeneratorInput::new(&tree, &cards, &costs, 8);
            input.allow_oversubscribe = true;
            let unfused = generate(strategy, &input).unwrap();
            input.grain = model.process_grain();
            let plan = generate(strategy, &input).unwrap();
            assert_eq!(plan.stats().operation_processes, 1, "{strategy}");
            let est = estimate_schedule(&plan, &costs, &model);
            assert_eq!(est.startup, model.startup_per_process(), "{strategy}");
            assert_eq!(est.coordination, 0.0, "{strategy}");
            let series = model.startup_per_process() + costs.total;
            assert!((est.makespan - series).abs() < 1e-6, "{strategy}");
            assert!((est.busy - series).abs() < 1e-6, "{strategy}");
            let before = estimate_schedule(&unfused, &costs, &model);
            assert_eq!(
                before.startup,
                unfused.stats().operation_processes as f64 * model.startup_per_process()
            );
            assert!(est.makespan < before.makespan, "{strategy}");
        }
    }
}
