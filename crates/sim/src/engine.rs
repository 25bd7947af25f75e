//! The discrete-event engine.
//!
//! Operations are simulated at *batch* granularity under a fluid-tuple
//! model: the workload is uniform (§4.1) and hash partitioning spreads
//! tuples evenly, so the instances of one operation are statistically
//! identical and an operation behaves as one server of capacity
//! `degree / per-tuple-cost`. Event types:
//!
//! * `Ready`   — dependencies satisfied; the op queues at the (serial)
//!   scheduler for initialization of its `degree` operation processes (an
//!   op fused into an already running process — `OperandSource::Fused` —
//!   skips the scheduler and simply runs next in that process);
//! * `Start`   — initialization and stream handshakes done; local (base /
//!   materialized) operands become readable;
//! * `Arrive`  — a batch of tuples lands on one input;
//! * `BatchDone` — the op finishes a processing quantum, emitting results
//!   downstream.
//!
//! Emission follows the product form `out · (a/A) · (b/B)` (an exact
//! differential, so the total is independent of consumption interleaving):
//! a simple hash join emits nothing while building (a < A ⇒ its probe side
//! b = 0) and linearly while probing; the pipelining join emits as soon as
//! both sides have progress — reproducing §2.3.2/§2.3.3 timing behaviour.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mj_core::plan_ir::{OperandSource, ParallelPlan};
use mj_core::validate::validate_plan;
use mj_relalg::{JoinAlgorithm, RelalgError, Result};

use crate::params::SimParams;
use crate::report::{OpSpan, SimResult};

const EPS: f64 = 1e-6;

#[derive(Clone, Copy, Debug)]
enum EventKind {
    Ready,
    Start,
    Arrive { side: usize, count: f64 },
    BatchDone { side: usize, count: f64, emit: f64 },
}

struct Event {
    time: f64,
    seq: u64,
    op: usize,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct OpState {
    degree: f64,
    algorithm: JoinAlgorithm,
    expected: [f64; 2],
    consume_cost: [f64; 2],
    emit_cost: f64,
    est_out: f64,

    deps_remaining: usize,
    /// False for a member of a process group that an earlier member
    /// already started: it needs no initialization of its own.
    starts_process: bool,
    started: bool,
    ready_time: f64,
    start_time: f64,
    arrived: [f64; 2],
    consumed: [f64; 2],
    emitted: f64,
    delivered: f64,
    busy: bool,
    completed: bool,
    complete_time: f64,

    /// Ops waiting on this op via `start_after`.
    dependents: Vec<usize>,
    /// `(consumer, side, live)`: live=true streams batches as produced;
    /// live=false (materialized) delivers wholesale at the consumer's
    /// start.
    out_edges: Vec<(usize, usize, bool)>,
    busy_intervals: Vec<(f64, f64)>,
}

struct Sim<'a> {
    params: &'a SimParams,
    ops: Vec<OpState>,
    heap: BinaryHeap<Event>,
    seq: u64,
    scheduler_free: f64,
    /// Extra start delay per op from stream handshakes.
    handshake_delay: Vec<f64>,
}

impl<'a> Sim<'a> {
    fn push(&mut self, time: f64, op: usize, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            op,
            kind,
        });
    }

    fn try_work(&mut self, id: usize, t: f64) {
        let op = &self.ops[id];
        if !op.started || op.busy || op.completed {
            return;
        }
        let Some(side) = self.choose_side(id) else {
            return;
        };
        let op = &self.ops[id];
        let available = op.arrived[side] - op.consumed[side];
        let quantum = self.params.batch * op.degree;
        let q = available
            .min(quantum)
            .min(op.expected[side] - op.consumed[side]);
        if q <= EPS {
            return;
        }
        let frac_other = {
            let other = 1 - side;
            if op.expected[other] <= EPS {
                1.0
            } else {
                (op.consumed[other] / op.expected[other]).min(1.0)
            }
        };
        let emit = if op.expected[side] <= EPS {
            0.0
        } else {
            op.est_out * (q / op.expected[side]) * frac_other
        };
        let dur = (q * op.consume_cost[side] + emit * op.emit_cost) / op.degree;
        let op = &mut self.ops[id];
        op.busy = true;
        op.busy_intervals.push((t, t + dur));
        self.push(
            t + dur,
            id,
            EventKind::BatchDone {
                side,
                count: q,
                emit,
            },
        );
    }

    fn choose_side(&self, id: usize) -> Option<usize> {
        let op = &self.ops[id];
        let avail = |s: usize| {
            op.consumed[s] < op.expected[s] - EPS && op.arrived[s] - op.consumed[s] > EPS
        };
        match op.algorithm {
            JoinAlgorithm::Simple => {
                // Build (left) strictly before probe (right).
                if op.consumed[0] < op.expected[0] - EPS {
                    if avail(0) {
                        Some(0)
                    } else {
                        None
                    }
                } else if avail(1) {
                    Some(1)
                } else {
                    None
                }
            }
            JoinAlgorithm::Pipelining => {
                // Consume the side that is furthest behind (balances the
                // two-sided pipeline).
                match (avail(0), avail(1)) {
                    (false, false) => None,
                    (true, false) => Some(0),
                    (false, true) => Some(1),
                    (true, true) => {
                        let f0 = op.consumed[0] / op.expected[0].max(EPS);
                        let f1 = op.consumed[1] / op.expected[1].max(EPS);
                        Some(if f0 <= f1 { 0 } else { 1 })
                    }
                }
            }
        }
    }

    fn deliver(&mut self, from: usize, amount: f64, t: f64) {
        if amount <= EPS {
            return;
        }
        self.ops[from].delivered += amount;
        let edges = self.ops[from].out_edges.clone();
        for (consumer, side, live) in edges {
            if live {
                self.push(
                    t + self.params.net_latency,
                    consumer,
                    EventKind::Arrive {
                        side,
                        count: amount,
                    },
                );
            }
            // Materialized edges deliver at the consumer's Start instead.
        }
    }

    fn complete(&mut self, id: usize, t: f64) {
        let remainder = self.ops[id].est_out - self.ops[id].delivered;
        self.deliver(id, remainder, t);
        let op = &mut self.ops[id];
        op.completed = true;
        op.complete_time = t;
        op.emitted = op.est_out;
        let dependents = op.dependents.clone();
        for d in dependents {
            self.ops[d].deps_remaining -= 1;
            if self.ops[d].deps_remaining == 0 {
                self.push(t, d, EventKind::Ready);
            }
        }
    }
}

/// Simulates `plan` under `params`, returning the response time and
/// per-operation spans. The plan is validated first. Assumes the paper's
/// non-skewed partitioning premise (§3.5); see [`simulate_skewed`] to
/// drop it.
pub fn simulate(plan: &ParallelPlan, params: &SimParams) -> Result<SimResult> {
    simulate_skewed(plan, params, &crate::skew::SkewModel::uniform())
}

/// Simulates `plan` with hash-partition load imbalance from `skew`.
///
/// Every operation is slowed by the max-over-average fragment ratio of
/// hashing Zipf(θ) keys into `degree` buckets — the barrier semantics of
/// a parallel join (it finishes when its most loaded instance does).
/// With [`SkewModel::uniform`](crate::skew::SkewModel::uniform) this is
/// exactly [`simulate`].
pub fn simulate_skewed(
    plan: &ParallelPlan,
    params: &SimParams,
    skew: &crate::skew::SkewModel,
) -> Result<SimResult> {
    params.validate().map_err(RelalgError::InvalidPlan)?;
    validate_plan(plan)?;
    let mut balance = crate::skew::BalanceCache::new(skew);

    let n = plan.ops.len();
    let roots = plan.process_roots();
    // Whether an op's output is consumed as a live stream (pipelined) or
    // as a bulk fragment transfer (materialized / final result): live
    // streams pay the per-tuple messaging premium at both endpoints.
    let mut out_live = vec![false; n];
    for op in &plan.ops {
        for operand in [&op.left, &op.right] {
            if let OperandSource::Stream { from } = operand {
                out_live[*from] = true;
            }
        }
    }
    let m = &params.machine;
    let mut ops = Vec::with_capacity(n);
    let mut handshake_delay = vec![0.0f64; n];
    for op in &plan.ops {
        // The symmetric pipelining join hashes *and* probes every incoming
        // tuple (§2.3.2): earliness costs work as well as memory. The
        // simple join performs one action per tuple (insert while building,
        // probe while probing); the pipelining join pays
        // `pipelining_work_factor` actions (its extra probe hits a
        // partially built table).
        let per_tuple = match op.algorithm {
            JoinAlgorithm::Simple => m.action_s,
            JoinAlgorithm::Pipelining => m.pipelining_work_factor * m.action_s,
        };
        let consume_cost = [&op.left, &op.right].map(|operand| {
            per_tuple
                + match operand {
                    OperandSource::Stream { .. } => m.t_stream,
                    OperandSource::Materialized { .. } => m.t_bulk,
                    // A fused operand is handed over inside the process.
                    OperandSource::Base { .. } | OperandSource::Fused { .. } => 0.0,
                }
        });
        let send = if out_live[op.id] {
            m.t_stream
        } else if roots[op.id] != op.id {
            0.0
        } else {
            m.t_bulk
        };
        // Handshakes: the consumer shakes hands with every producer
        // instance of each remote operand; a live producer additionally
        // shakes hands with every consumer instance of its output stream
        // (charged at the producer's start, below).
        for operand in [&op.left, &op.right] {
            let extra = match operand {
                OperandSource::Stream { from } => plan.ops[*from].degree() as f64,
                // Materialized re-senders are gone; their side of the
                // handshake is charged to the consumer as well.
                OperandSource::Materialized { from } => {
                    plan.ops[*from].degree() as f64 + op.degree() as f64
                }
                OperandSource::Base { .. } | OperandSource::Fused { .. } => continue,
            };
            handshake_delay[op.id] += extra * m.t_handshake;
        }
        ops.push(OpState {
            // Effective capacity under load imbalance: the op finishes
            // when its most loaded instance does, i.e. it behaves like a
            // balanced op with degree / (max fragment / avg fragment).
            degree: op.degree() as f64 / balance.factor(op.degree()),
            algorithm: op.algorithm,
            expected: [op.est_left as f64, op.est_right as f64],
            consume_cost,
            emit_cost: m.t_result + send,
            est_out: op.est_out as f64,
            deps_remaining: op.start_after.len(),
            starts_process: true,
            started: false,
            ready_time: f64::NAN,
            start_time: f64::NAN,
            arrived: [0.0; 2],
            consumed: [0.0; 2],
            emitted: 0.0,
            delivered: 0.0,
            busy: false,
            completed: false,
            complete_time: f64::NAN,
            dependents: Vec::new(),
            out_edges: Vec::new(),
            busy_intervals: Vec::new(),
        });
    }
    // Wire dependents and output edges; add producer-side handshakes.
    // The members of a process group run one after another in op order:
    // each waits for the member before it (which covers its fused
    // producers) and only the first is initialized.
    let mut last_member: Vec<Option<usize>> = vec![None; n];
    for op in &plan.ops {
        for &d in &op.start_after {
            ops[d].dependents.push(op.id);
        }
        if let Some(prev) = last_member[roots[op.id]].replace(op.id) {
            ops[prev].dependents.push(op.id);
            ops[op.id].deps_remaining += 1;
            ops[op.id].starts_process = false;
        }
        for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
            if let Some(p) = operand.producer() {
                let live = matches!(operand, OperandSource::Stream { .. });
                ops[p].out_edges.push((op.id, side, live));
                if live {
                    handshake_delay[p] += op.degree() as f64 * m.t_handshake;
                }
            }
        }
    }

    let mut sim = Sim {
        params,
        ops,
        heap: BinaryHeap::new(),
        seq: 0,
        scheduler_free: 0.0,
        handshake_delay,
    };

    for id in 0..n {
        if sim.ops[id].deps_remaining == 0 {
            sim.push(0.0, id, EventKind::Ready);
        }
    }

    let mut guard = 0u64;
    let guard_limit = 200_000_000u64;
    while let Some(Event {
        time: t,
        op: id,
        kind,
        ..
    }) = sim.heap.pop()
    {
        guard += 1;
        if guard > guard_limit {
            return Err(RelalgError::InvalidPlan(
                "simulation exceeded event budget".into(),
            ));
        }
        match kind {
            EventKind::Ready => {
                sim.ops[id].ready_time = t;
                // Serial scheduler initializes this op's processes.
                let init_end = if sim.ops[id].starts_process {
                    let init_start = sim.scheduler_free.max(t);
                    let init_end = init_start + sim.ops[id].degree * sim.params.machine.t_init;
                    sim.scheduler_free = init_end;
                    init_end
                } else {
                    t
                };
                let start = init_end + sim.handshake_delay[id];
                sim.push(start, id, EventKind::Start);
            }
            EventKind::Start => {
                sim.ops[id].started = true;
                sim.ops[id].start_time = t;
                // Local operands (base fragments, materialized
                // intermediates, results of fused members) are fully
                // readable at start.
                let (left, right) = (plan.ops[id].left.clone(), plan.ops[id].right.clone());
                for (side, operand) in [(0usize, &left), (1usize, &right)] {
                    match operand {
                        OperandSource::Base { .. }
                        | OperandSource::Materialized { .. }
                        | OperandSource::Fused { .. } => {
                            sim.ops[id].arrived[side] = sim.ops[id].expected[side];
                        }
                        OperandSource::Stream { .. } => {}
                    }
                }
                sim.try_work(id, t);
            }
            EventKind::Arrive { side, count } => {
                let op = &mut sim.ops[id];
                op.arrived[side] = (op.arrived[side] + count).min(op.expected[side]);
                sim.try_work(id, t);
            }
            EventKind::BatchDone { side, count, emit } => {
                {
                    let op = &mut sim.ops[id];
                    op.consumed[side] += count;
                    op.emitted += emit;
                    op.busy = false;
                }
                sim.deliver(id, emit, t);
                let op = &sim.ops[id];
                if op.consumed[0] >= op.expected[0] - EPS && op.consumed[1] >= op.expected[1] - EPS
                {
                    sim.complete(id, t);
                } else {
                    sim.try_work(id, t);
                }
            }
        }
    }

    // Every op must have completed; anything else is a wiring bug.
    if let Some(stuck) = sim.ops.iter().position(|o| !o.completed) {
        return Err(RelalgError::InvalidPlan(format!(
            "simulation deadlock: op {stuck} incomplete (arrived {:?}, consumed {:?}, expected {:?})",
            sim.ops[stuck].arrived, sim.ops[stuck].consumed, sim.ops[stuck].expected
        )));
    }

    let response_time = sim
        .ops
        .iter()
        .map(|o| o.complete_time)
        .fold(0.0f64, f64::max);
    let spans = sim
        .ops
        .iter()
        .enumerate()
        .map(|(id, o)| OpSpan {
            op: id,
            join: plan.ops[id].join,
            procs: plan.ops[id].procs.clone(),
            ready: o.ready_time,
            start: o.start_time,
            complete: o.complete_time,
            busy: o.busy_intervals.clone(),
        })
        .collect();
    Ok(SimResult {
        response_time,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_core::generator::{generate, GeneratorInput};
    use mj_core::strategy::Strategy;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::shapes::{build, Shape};

    fn simulate_case(
        shape: Shape,
        strategy: Strategy,
        n: u64,
        procs: usize,
        params: &SimParams,
    ) -> SimResult {
        let tree = build(shape, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, procs);
        let plan = generate(strategy, &input).unwrap();
        simulate(&plan, params).unwrap()
    }

    #[test]
    fn all_strategies_and_shapes_complete() {
        let params = SimParams::default();
        for shape in Shape::ALL {
            for strategy in Strategy::ALL {
                let r = simulate_case(shape, strategy, 1000, 20, &params);
                assert!(r.response_time.is_finite() && r.response_time > 0.0);
                assert_eq!(r.spans.len(), 9);
                for s in &r.spans {
                    assert!(s.complete >= s.start && s.start >= s.ready);
                }
            }
        }
    }

    #[test]
    fn sp_degrades_with_many_processors_on_small_problems() {
        // Fig. 9 (5K): SP gets *slower* from 20 to 80 processors because
        // startup + coordination dominate.
        let params = SimParams::default();
        let at20 = simulate_case(Shape::LeftLinear, Strategy::SP, 5000, 20, &params);
        let at80 = simulate_case(Shape::LeftLinear, Strategy::SP, 5000, 80, &params);
        assert!(
            at80.response_time > at20.response_time,
            "SP should degrade: 20p={} 80p={}",
            at20.response_time,
            at80.response_time
        );
    }

    #[test]
    fn fp_beats_sp_at_scale_on_linear_trees() {
        // Fig. 9: FP wins at high processor counts.
        let params = SimParams::default();
        let sp = simulate_case(Shape::LeftLinear, Strategy::SP, 5000, 80, &params);
        let fp = simulate_case(Shape::LeftLinear, Strategy::FP, 5000, 80, &params);
        assert!(fp.response_time < sp.response_time);
    }

    #[test]
    fn more_processors_help_fp() {
        let params = SimParams::default();
        let few = simulate_case(Shape::WideBushy, Strategy::FP, 40_000, 30, &params);
        let many = simulate_case(Shape::WideBushy, Strategy::FP, 40_000, 80, &params);
        assert!(many.response_time < few.response_time);
    }

    #[test]
    fn bigger_problems_take_longer() {
        let params = SimParams::default();
        let small = simulate_case(Shape::WideBushy, Strategy::FP, 5000, 40, &params);
        let large = simulate_case(Shape::WideBushy, Strategy::FP, 40_000, 40, &params);
        assert!(large.response_time > 3.0 * small.response_time);
    }

    #[test]
    fn rd_equals_fp_shape_on_right_linear() {
        // Fig. 13: RD coincides with FP for right-linear trees (same
        // dataflow; only the join algorithm differs, which the fluid model
        // prices identically for 1-1 joins).
        let params = SimParams::default();
        let rd = simulate_case(Shape::RightLinear, Strategy::RD, 5000, 40, &params);
        let fp = simulate_case(Shape::RightLinear, Strategy::FP, 5000, 40, &params);
        let ratio = rd.response_time / fp.response_time;
        assert!((0.7..1.3).contains(&ratio), "RD/FP = {ratio}");
    }

    #[test]
    fn se_equals_sp_on_linear_trees() {
        let params = SimParams::default();
        let se = simulate_case(Shape::LeftLinear, Strategy::SE, 5000, 40, &params);
        let sp = simulate_case(Shape::LeftLinear, Strategy::SP, 5000, 40, &params);
        let ratio = se.response_time / sp.response_time;
        assert!((0.99..1.01).contains(&ratio), "SE/SP = {ratio}");
    }

    #[test]
    fn zero_overhead_sim_is_pure_compute() {
        // With idealized params, SP response time equals total work spread
        // over all processors (perfect load balance, §3.1).
        let params = SimParams::idealized();
        let r = simulate_case(Shape::LeftLinear, Strategy::SP, 1000, 10, &params);
        // Work: every tuple consumed costs one 1 ms action; operands
        // are 2 x 1000 tuples per join, 9 joins, over 10 processors.
        let expected = 9.0 * 2.0 * 1000.0 * 1e-3 / 10.0;
        let rel = (r.response_time - expected).abs() / expected;
        assert!(rel < 0.05, "got {}, expected ~{expected}", r.response_time);
    }

    #[test]
    fn deterministic() {
        let params = SimParams::default();
        let a = simulate_case(Shape::RightBushy, Strategy::RD, 5000, 40, &params);
        let b = simulate_case(Shape::RightBushy, Strategy::RD, 5000, 40, &params);
        assert_eq!(a.response_time, b.response_time);
    }

    fn simulate_skewed_case(
        strategy: Strategy,
        procs: usize,
        theta: f64,
        params: &SimParams,
    ) -> f64 {
        let tree = build(Shape::WideBushy, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 40_000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let input = GeneratorInput::new(&tree, &cards, &costs, procs);
        let plan = generate(strategy, &input).unwrap();
        let skew = crate::skew::SkewModel::zipf(theta, 40_000);
        simulate_skewed(&plan, params, &skew).unwrap().response_time
    }

    #[test]
    fn uniform_skew_equals_plain_simulation() {
        let params = SimParams::default();
        let tree = build(Shape::RightBushy, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 5_000 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let plan = generate(
            Strategy::FP,
            &GeneratorInput::new(&tree, &cards, &costs, 40),
        )
        .unwrap();
        let plain = simulate(&plan, &params).unwrap();
        let skewed = simulate_skewed(&plan, &params, &crate::skew::SkewModel::uniform()).unwrap();
        assert_eq!(plain.response_time, skewed.response_time);
    }

    #[test]
    fn skew_never_speeds_a_query_up() {
        let params = SimParams::default();
        for strategy in Strategy::ALL {
            let base = simulate_skewed_case(strategy, 80, 0.0, &params);
            let skewed = simulate_skewed_case(strategy, 80, 0.9, &params);
            assert!(
                skewed >= base - 1e-9,
                "{strategy}: skew sped things up ({base} -> {skewed})"
            );
        }
    }

    #[test]
    fn skew_slowdown_grows_with_theta() {
        let params = SimParams::default();
        let mild = simulate_skewed_case(Strategy::SP, 80, 0.3, &params);
        let heavy = simulate_skewed_case(Strategy::SP, 80, 1.2, &params);
        assert!(heavy > mild, "theta 1.2 ({heavy}) should beat 0.3 ({mild})");
    }

    #[test]
    fn sp_suffers_more_from_skew_than_fp() {
        // SP hashes every operand over all 80 processors; FP over ~9 per
        // join. Fewer, larger buckets are relatively better balanced, so
        // FP's slowdown factor must be smaller — the §3.5 premise matters
        // most for the strategies with the widest partitioning.
        let params = SimParams::default();
        let sp = simulate_skewed_case(Strategy::SP, 80, 0.9, &params)
            / simulate_skewed_case(Strategy::SP, 80, 0.0, &params);
        let fp = simulate_skewed_case(Strategy::FP, 80, 0.9, &params)
            / simulate_skewed_case(Strategy::FP, 80, 0.0, &params);
        assert!(
            sp > fp,
            "SP slowdown {sp:.3} should exceed FP slowdown {fp:.3}"
        );
    }

    #[test]
    fn a_fused_plan_is_one_initialization_and_a_free_hand_off() {
        // Ten 20-tuple relations: under a grain no join reaches, the
        // generator runs the whole query as one process. It costs one
        // t_init where the unfused plan pays nine and no handshake at all.
        let params = SimParams::default();
        let tree = build(Shape::RightLinear, 10).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: 20 });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 9);
        let apart = simulate(&generate(Strategy::FP, &input).unwrap(), &params).unwrap();
        input.grain = 1e6;
        let plan = generate(Strategy::FP, &input).unwrap();
        assert_eq!(plan.stats().operation_processes, 1);
        let fused = simulate(&plan, &params).unwrap();
        assert!(fused.response_time < apart.response_time);
        let first = &fused.spans[0];
        assert!(
            (first.start - params.machine.t_init).abs() < 1e-9,
            "one init, no handshake"
        );
        for pair in fused.spans.windows(2) {
            assert!(
                (pair[1].start - pair[0].complete).abs() < 1e-9,
                "members run back to back"
            );
        }
    }
}
