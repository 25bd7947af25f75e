//! Knob evidence, behind the off-by-default `knob-evidence` feature so that
//! removing a knob never breaks the default benchmark build: what does
//! each user-settable choice buy on the workload it is meant for?
//!
//! - `PlannerOptions.strategy`: forced SP/SE/RD/FP against the planner's
//!   own pick, on `join_heavy`'s query.
//! - `ExecConfig.late`: `LateMode::Auto` against `Never`, on
//!   `join_heavy`'s and `wide_result`'s queries.
//!
//! In-process and serial: the number is the engine's response time
//! (`QueryOutcome.elapsed`), the paper's metric, not a wire latency.

use mj_core::Strategy;
use mj_exec::{Database, DbConfig, LateMode};

use crate::result::Metric;
use crate::stats;
use crate::workloads::{parallelism, Data, Res};

const WARM_UP: usize = 3;
const REPEATS: usize = 30;

/// `data` in a database opened with the default configuration as changed
/// by `configure`.
fn open(data: Data, seed: u64, configure: impl FnOnce(&mut DbConfig)) -> Res<Database> {
    let mut config = DbConfig::default();
    config.exec.workers = parallelism();
    configure(&mut config);
    let db = Database::open(config)?;
    for (i, relation) in data.generate(seed)?.into_iter().enumerate() {
        db.register(format!("{}{i}", data.prefix()), relation)?;
    }
    db.analyze()?;
    Ok(db)
}

/// Median response time of `data`'s query on each database, the runs
/// taken in turn (a, b, c, a, b, c, …) so that a drift of the machine
/// lands on every side alike.
fn response_ms(data: Data, dbs: &[Database]) -> Res<Vec<f64>> {
    let text = data.adhoc_sql(0);
    let mut samples = vec![Vec::new(); dbs.len()];
    for _ in 0..WARM_UP + REPEATS {
        for (db, samples) in dbs.iter().zip(&mut samples) {
            let outcome = db.query(&text)?.outcome()?;
            samples.push(outcome.elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(samples
        .iter()
        .map(|s| stats::median(&s[WARM_UP..]))
        .collect())
}

pub fn run(args: &[String]) -> Res<()> {
    let seed = match args {
        [] => 11,
        [flag, value] if flag == "--seed" => value.parse()?,
        _ => return Err("usage: mj-benchmark knobs [--seed N]".into()),
    };
    let n = REPEATS as u64;
    let mut metrics = Vec::new();

    let mut dbs = vec![open(Data::Heavy, seed, |_| {})?];
    for strategy in Strategy::ALL {
        dbs.push(open(Data::Heavy, seed, |c| {
            c.planner.strategy = Some(strategy)
        })?);
    }
    let response = response_ms(Data::Heavy, &dbs)?;
    let labels = ["auto"]
        .into_iter()
        .chain(Strategy::ALL.iter().map(Strategy::label));
    for (label, &ms) in labels.zip(&response) {
        metrics.push(Metric::new(
            &format!("strategy.response_ms.{label}"),
            "ms",
            ms,
            n,
        ));
    }
    let best = response[1..].iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push(Metric::new(
        "strategy.auto_vs_best",
        "ratio",
        response[0] / best,
        n,
    ));

    for (data, workload) in [(Data::Heavy, "join_heavy"), (Data::Wide, "wide_result")] {
        let dbs = [
            open(data, seed, |c| c.exec.late = LateMode::Auto)?,
            open(data, seed, |c| c.exec.late = LateMode::Never)?,
        ];
        let response = response_ms(data, &dbs)?;
        let name = format!("late.auto_vs_never.{workload}");
        metrics.push(Metric::new(&name, "ratio", response[0] / response[1], n));
    }

    println!(
        "== knob evidence, seed {seed}: median of {REPEATS} in-process runs each, taken in turn"
    );
    for m in &metrics {
        println!(
            "{:<44} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    Ok(())
}
