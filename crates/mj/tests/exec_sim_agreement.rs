//! Cross-backend integration: the threaded engine and the simulator
//! interpret the same plans; their structural accounting must agree, and
//! the simulator must reproduce the paper's qualitative findings.

use std::sync::Arc;

use multijoin::plan::cardinality::node_cards;
use multijoin::plan::shapes::build;
use multijoin::prelude::*;

#[test]
fn engine_metrics_match_plan_stats() {
    let k = 6;
    let n = 200usize;
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 8).generate_named("R", k) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::WideBushy, k).unwrap();
    let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    for strategy in Strategy::ALL {
        let input = GeneratorInput::new(&tree, &cards, &costs, 5);
        let plan = generate(strategy, &input).unwrap();
        let stats = plan.stats();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let out = run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default()).unwrap();
        assert_eq!(
            out.metrics.processes, stats.operation_processes,
            "{strategy}: engine spawned a different number of operation processes"
        );
        assert_eq!(out.metrics.streams, stats.tuple_streams, "{strategy}");
        // And the same plan must simulate cleanly.
        let sim = simulate(&plan, &SimParams::default()).unwrap();
        assert!(sim.response_time > 0.0);
        assert_eq!(sim.spans.len(), plan.ops.len());
    }
}

#[test]
fn simulator_reproduces_headline_findings() {
    let params = SimParams::default();
    let run = |shape, strategy, tuples, procs| {
        run_scenario(&Scenario::paper(shape, strategy, tuples, procs), &params)
            .unwrap()
            .response_time
    };

    // 1. SP=SE=RD on left-linear trees (Fig. 9).
    let sp = run(Shape::LeftLinear, Strategy::SP, 5_000, 40);
    let se = run(Shape::LeftLinear, Strategy::SE, 5_000, 40);
    let rd = run(Shape::LeftLinear, Strategy::RD, 5_000, 40);
    assert!((se / sp - 1.0).abs() < 0.02 && (rd / sp - 1.0).abs() < 0.02);

    // 2. SP degrades with processors on small problems; less on large.
    let degradation_5k = run(Shape::LeftLinear, Strategy::SP, 5_000, 80)
        / run(Shape::LeftLinear, Strategy::SP, 5_000, 20);
    let degradation_40k = run(Shape::LeftLinear, Strategy::SP, 40_000, 80)
        / run(Shape::LeftLinear, Strategy::SP, 40_000, 30);
    assert!(
        degradation_5k > 1.5,
        "5K SP should degrade: {degradation_5k}"
    );
    assert!(
        degradation_40k < degradation_5k,
        "40K degrades less than 5K"
    );

    // 3. FP wins at scale on every shape at 5K (Fig. 14's 5K column is
    //    dominated by FP/RD at high processor counts).
    for shape in Shape::ALL {
        let fp = run(shape, Strategy::FP, 5_000, 80);
        let sp80 = run(shape, Strategy::SP, 5_000, 80);
        assert!(fp < sp80, "{shape}: FP {fp} !< SP {sp80}");
    }

    // 4. SE wins the wide bushy 40K experiment (Fig. 11).
    let se40 = run(Shape::WideBushy, Strategy::SE, 40_000, 80);
    let fp40 = run(Shape::WideBushy, Strategy::FP, 40_000, 80);
    let sp40 = run(Shape::WideBushy, Strategy::SP, 40_000, 80);
    assert!(se40 < fp40 && se40 < sp40, "SE80 wins wide bushy 40K");
    // "FP80 gets very close to SE80".
    assert!(fp40 / se40 < 1.35, "FP stays close: {}", fp40 / se40);

    // 5. RD wins the right bushy 40K experiment (Fig. 12).
    let rd40 = run(Shape::RightBushy, Strategy::RD, 40_000, 80);
    for other in [Strategy::SP, Strategy::SE, Strategy::FP] {
        let t = run(Shape::RightBushy, other, 40_000, 80);
        assert!(rd40 < t, "RD beats {other} on right bushy 40K");
    }

    // 6. RD coincides with FP on right-linear trees (Fig. 13); SE with SP.
    let rd_rl = run(Shape::RightLinear, Strategy::RD, 40_000, 60);
    let fp_rl = run(Shape::RightLinear, Strategy::FP, 40_000, 60);
    assert!(
        (rd_rl / fp_rl - 1.0).abs() < 0.25,
        "RD~FP: {rd_rl} vs {fp_rl}"
    );
    let se_rl = run(Shape::RightLinear, Strategy::SE, 40_000, 60);
    let sp_rl = run(Shape::RightLinear, Strategy::SP, 40_000, 60);
    assert!((se_rl / sp_rl - 1.0).abs() < 0.02);

    // 7. Bushy trees give the best minima (Fig. 14 discussion).
    let best = |shape: Shape, tuples: u64| -> f64 {
        let mut best = f64::INFINITY;
        for strategy in Strategy::ALL {
            for procs in [20usize, 40, 60, 80] {
                if tuples > 5_000 && procs < 30 {
                    continue;
                }
                best = best.min(run(shape, strategy, tuples, procs));
            }
        }
        best
    };
    let bushy_best = best(Shape::WideBushy, 40_000);
    let linear_best = best(Shape::LeftLinear, 40_000);
    assert!(
        bushy_best < linear_best,
        "bushy {bushy_best} < linear {linear_best}"
    );
}

#[test]
fn oversubscribed_plans_agree_between_backends() {
    // Host-scale plans (2 processors, 5 joins) run on both backends.
    let k = 6;
    let n = 150usize;
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 21).generate_named("R", k) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::RightBushy, k).unwrap();
    let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let mut input = GeneratorInput::new(&tree, &cards, &costs, 2);
    input.allow_oversubscribe = true;
    for strategy in Strategy::ALL {
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let out = run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default()).unwrap();
        assert_eq!(out.relation.len(), n, "{strategy}");
        let sim = simulate(&plan, &SimParams::default()).unwrap();
        assert!(sim.response_time > 0.0, "{strategy}");
    }
}

/// How far the analytic schedule model and the simulator agree on one
/// machine over the paper's grid: 5 shapes x {5K, 40K} tuples x {20, 40,
/// 60, 80} processors, 40 cells of four strategies each. Prints every
/// cell whose ranking differs.
struct Agreement {
    /// Smallest and largest estimated / simulated response time.
    ratio: (f64, f64),
    /// Cells where both pick the same fastest strategy.
    same_winner: usize,
    /// Cells where both order all four strategies alike.
    same_ranking: usize,
}

fn agreement(model: &ScheduleModel, params: &SimParams) -> Agreement {
    assert_eq!(model.machine, params.machine, "one machine for both");
    let rank = |times: &[f64]| {
        let mut order: Vec<(f64, Strategy)> = times.iter().copied().zip(Strategy::ALL).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        order.into_iter().map(|(_, s)| s).collect::<Vec<_>>()
    };
    let mut out = Agreement {
        ratio: (f64::INFINITY, 0.0),
        same_winner: 0,
        same_ranking: 0,
    };
    for shape in Shape::ALL {
        for tuples in [5_000u64, 40_000] {
            let tree = build(shape, 10).unwrap();
            let cards = node_cards(&tree, &UniformOneToOne { n: tuples });
            let costs = tree_costs(&tree, &cards, &CostModel::default());
            for procs in [20usize, 40, 60, 80] {
                let (mut est, mut sim) = (Vec::new(), Vec::new());
                for strategy in Strategy::ALL {
                    let input = GeneratorInput::new(&tree, &cards, &costs, procs);
                    let plan = generate(strategy, &input).unwrap();
                    let e = estimate_schedule(&plan, &costs, model).makespan;
                    est.push(e * model.machine.action_s);
                    sim.push(simulate(&plan, params).unwrap().response_time);
                }
                for (e, s) in est.iter().zip(&sim) {
                    out.ratio = (out.ratio.0.min(e / s), out.ratio.1.max(e / s));
                }
                let (by_est, by_sim) = (rank(&est), rank(&sim));
                out.same_winner += usize::from(by_est[0] == by_sim[0]);
                out.same_ranking += usize::from(by_est == by_sim);
                if by_est != by_sim {
                    println!(
                        "{shape} {tuples} x{procs}: model {by_est:?} {est:.2?}, \
                         simulator {by_sim:?} {sim:.2?}"
                    );
                }
            }
        }
    }
    println!(
        "ratio {:.2}..{:.2}, same winner {}/40, same ranking {}/40",
        out.ratio.0, out.ratio.1, out.same_winner, out.same_ranking
    );
    out
}

#[test]
fn the_schedule_model_tracks_the_simulator_on_prisma() {
    let a = agreement(&ScheduleModel::prisma(), &SimParams::default());
    assert!(0.4 <= a.ratio.0 && a.ratio.1 <= 1.3, "{:?}", a.ratio);
    assert!(a.same_winner >= 30, "{}", a.same_winner);
    assert!(a.same_ranking >= 24, "{}", a.same_ranking);
}

/// Without overheads the two differ by a constant in the work they charge:
/// the §4.3 cost function charges 44 N per 10-relation tree, the idealized
/// simulator consumes 2 N per join (18 N) and creates results for free, so
/// an estimate sits near 44/18 = 2.44 times the simulated time — exactly
/// SP's ratio, which runs one join at a time on every processor.
#[test]
fn the_schedule_model_tracks_the_simulator_without_overheads() {
    let a = agreement(&ScheduleModel::idealized(), &SimParams::idealized());
    assert!(1.6 <= a.ratio.0 && a.ratio.1 <= 2.6, "{:?}", a.ratio);
    assert_eq!(a.same_winner, 40);
    assert!(a.same_ranking >= 16, "{}", a.same_ranking);
}
