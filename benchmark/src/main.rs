//! The repo's one benchmark. `run` drives five workloads through the real
//! front door (an in-process `mj_server::Server`, `mj_server::Client`
//! connections), checks every reply, and prints every metric by name;
//! `compare` judges two sets of runs against the bounds in
//! `BENCHMARK.json`. See `README.md` beside this package.

mod compare;
#[cfg(feature = "knob-evidence")]
mod knobs;
mod layers;
mod procstat;
mod result;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use result::{Metric, PassResult, ResultFile, END_TO_END, SCHEMA};
use workloads::{drive, Fixture, Res, SetupTimes, StreamOutcome, Window, Workload, WORKLOADS};

/// Set-ups per pass, `setup_s` being their median: at least the first
/// number, and more (up to the second) while they are cheap enough to fit
/// in the time budget, because a 10 ms set-up is noisy to time.
const SETUP_REPEATS: (usize, usize) = (5, 25);
const SETUP_BUDGET: Duration = Duration::from_millis(600);

const USAGE: &str = "\
usage: mj-benchmark run [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
                        [--smoke] [--repeat N] [--out-dir DIR]
       mj-benchmark compare A B      (result files, or directories of them)
       mj-benchmark knobs [--seed N] (only with --features knob-evidence)

run: without --workload every workload runs; without --trace both passes run
(0: end-to-end metrics, tracing off; 1: per-layer metrics). --seconds is the
measured window (default 10; --smoke: 1). Results go to DIR/result.json
(result-<k>.json with --repeat), spans to DIR/trace-<workload>.json; DIR
defaults to benchmark/out under the current directory.";

struct RunOptions {
    workloads: Vec<&'static Workload>,
    passes: Vec<bool>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workloads: WORKLOADS.iter().collect(),
        passes: vec![false, true],
        seed: 11,
        seconds: 10.0,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.seconds = 1.0;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let workload = workloads::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?;
                options.workloads = vec![workload];
            }
            "--trace" => {
                options.passes = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(bad()),
                }
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--repeat" => options.repeat = value.parse().map_err(|_| bad())?,
            "--out-dir" => options.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

/// The end-to-end numbers of one untraced window.
fn window_metrics(streams: &[StreamOutcome], setups: &[SetupTimes]) -> (Vec<Metric>, Vec<Metric>) {
    let (first, last) = (&streams[0], &streams[streams.len() - 1]);
    let latency = stats::sorted(first.latency_ms.clone());
    let n = latency.len() as u64;
    let setup: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let values = [
        (stats::median_sorted(&latency), n),
        (last.completed() as f64 / last.elapsed_s, last.completed()),
        (stats::median(&setup), setup.len() as u64),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric::new(m.name, m.unit, value, samples))
        .collect();

    let attempted: u64 = streams.iter().map(|s| s.attempted).sum();
    let failed: u64 = streams.iter().map(|s| s.failed).sum();
    let mut reported = Vec::new();
    if let Some((label, value)) = stats::tail(&latency) {
        reported.push(Metric::new(&format!("latency_{label}_ms"), "ms", value, n));
    }
    reported.push(Metric::new(
        "failed_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    ));
    reported.push(Metric::new(
        "rows_per_s",
        "1/s",
        last.rows as f64 / last.elapsed_s,
        last.rows,
    ));
    if !first.lateness_ms.is_empty() {
        let lateness = stats::sorted(first.lateness_ms.clone());
        let late = lateness.len() as u64;
        reported.push(Metric::new(
            "generator_lateness_p50_ms",
            "ms",
            stats::median_sorted(&lateness),
            late,
        ));
        reported.push(Metric::new(
            "generator_lateness_max_ms",
            "ms",
            lateness[lateness.len() - 1],
            late,
        ));
    }
    if streams.len() > 1 {
        // The throughput stream's own latency, and the latency stream's
        // own rate, so neither stream hides behind the other's metric.
        reported.push(Metric::new(
            "throughput_stream_latency_p50_ms",
            "ms",
            stats::median(&last.latency_ms),
            last.completed(),
        ));
        reported.push(Metric::new(
            "latency_stream_qps",
            "1/s",
            first.completed() as f64 / first.elapsed_s,
            first.completed(),
        ));
    }
    (metrics, reported)
}

/// One pass of one workload: set up (several times), verify, measure.
fn run_pass(
    workload: &'static Workload,
    traced: bool,
    options: &RunOptions,
) -> Res<(PassResult, Option<trace::TraceFile>)> {
    let (mut fixture, times) = Fixture::setup(workload, options.seed)?;
    let mut setups = vec![times];
    let started = Instant::now();
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1 && started.elapsed() < SETUP_BUDGET)
    {
        fixture.shutdown();
        let (next, times) = Fixture::setup(workload, options.seed)?;
        setups.push(times);
        fixture = next;
    }

    let verifying = Instant::now();
    let (expected, verified) = workloads::verify(&mut fixture)?;
    let verify_s = verifying.elapsed().as_secs_f64();

    let (metrics, reported, attempted, failed, trace) = if traced {
        let outcome = layers::traced_pass(
            &mut fixture,
            workload,
            &expected,
            &setups,
            options.seed,
            options.seconds,
        )?;
        (
            outcome.metrics,
            outcome.reported,
            outcome.attempted,
            outcome.failed,
            Some(outcome.trace),
        )
    } else {
        let warm_up = Duration::from_secs_f64((options.seconds / 10.0).clamp(0.5, 2.0));
        let measure_from = Instant::now() + warm_up;
        let window = Window {
            measure_from,
            until: measure_from + Duration::from_secs_f64(options.seconds),
        };
        let never = AtomicBool::new(false);
        let streams = drive(&mut fixture.conns, &expected, options.seed, window, &never);
        let (metrics, reported) = window_metrics(&streams, &setups);
        let attempted = streams.iter().map(|s| s.attempted).sum();
        let failed = streams.iter().map(|s| s.failed).sum();
        (metrics, reported, attempted, failed, None)
    };
    fixture.shutdown();

    let pass = PassResult {
        workload: workload.name.to_string(),
        traced,
        seed: options.seed,
        seconds: options.seconds,
        correct: verified && failed == 0 && attempted > 0,
        attempted,
        failed,
        verify_s,
        metrics,
        reported,
    };
    Ok((pass, trace))
}

fn print_pass(pass: &PassResult, why: &str) {
    println!("-- {}: {why}", pass.workload);
    println!(
        "== {} ({}) seed {} window {} s: {} attempted, {} failed, verification {} in {:.3} s",
        pass.workload,
        if pass.traced {
            "traced pass"
        } else {
            "tracing off"
        },
        pass.seed,
        pass.seconds,
        pass.attempted,
        pass.failed,
        if pass.correct { "passed" } else { "FAILED" },
        pass.verify_s,
    );
    for (metrics, note) in [(&pass.metrics, ""), (&pass.reported, "  (reported only)")] {
        for m in metrics {
            println!(
                "{:<44} {:>16.6} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

fn write(path: &Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    Ok(std::fs::write(path, text)?)
}

fn run(args: &[String]) -> Res<ExitCode> {
    let options = parse_run(args)?;
    let mut last = None;
    for repeat in 1..=options.repeat {
        let mut passes = Vec::new();
        for &workload in &options.workloads {
            for &traced in &options.passes {
                let (pass, trace) = run_pass(workload, traced, &options)?;
                print_pass(&pass, workload.why);
                if let Some(trace) = trace {
                    let path = options
                        .out_dir
                        .join(format!("trace-{}.json", workload.name));
                    let text = serde_json::to_string(&trace)?.replace("{\"id\"", "\n{\"id\"");
                    write(&path, &text)?;
                }
                passes.push(pass);
            }
        }
        let file = ResultFile {
            schema: SCHEMA,
            seed: options.seed,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            passes,
        };
        let name = if options.repeat == 1 {
            "result.json".to_string()
        } else {
            format!("result-{repeat}.json")
        };
        write(&options.out_dir.join(name), &file.to_json())?;
        last = file.passes.last().cloned();
    }
    // One workload, one pass: the driver's form. Its result object is the
    // last line of standard output.
    let single = options.workloads.len() * options.passes.len() * options.repeat == 1;
    if let Some(pass) = last.filter(|_| single) {
        println!("{}", pass.contract_line());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
                .map(|ok| {
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                })
                .map_err(Into::into)
        }
        #[cfg(feature = "knob-evidence")]
        Some("knobs") => knobs::run(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use result::PER_LAYER;

    /// The whole path once, tiny windows: both passes of a workload run,
    /// verify, and report exactly the registry's metrics in its order.
    #[test]
    fn passes_report_exactly_the_registry_metrics() {
        let workload = workloads::workload("short_prepared").unwrap();
        let options = RunOptions {
            workloads: vec![workload],
            passes: vec![false, true],
            seed: 3,
            seconds: 0.4,
            repeat: 1,
            out_dir: PathBuf::from("unused"),
        };
        let (untraced, trace) = run_pass(workload, false, &options).unwrap();
        assert!(trace.is_none());
        assert!(untraced.correct && untraced.attempted > 0 && untraced.failed == 0);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0));

        let (traced, trace) = run_pass(workload, true, &options).unwrap();
        assert!(traced.correct);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            PER_LAYER.iter().map(|(name, _)| *name).collect::<Vec<_>>()
        );
        // One root span of each kind per traced request.
        let trace = trace.unwrap();
        let roots = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert!(roots("wire.roundtrip") > 0);
        assert!(roots("replay") > 0 && roots("replay") <= roots("wire.roundtrip"));
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn run_flags_parse_into_the_drivers_form() {
        let args: Vec<String> = "--workload join_heavy --seed 42 --seconds 8 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let options = parse_run(&args).unwrap();
        assert_eq!(options.workloads.len(), 1);
        assert_eq!(options.workloads[0].name, "join_heavy");
        assert_eq!(
            (options.seed, options.seconds, options.passes),
            (42, 8.0, vec![true])
        );
        assert_eq!(parse_run(&["--smoke".to_string()]).unwrap().seconds, 1.0);
        assert!(parse_run(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_run(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_run(&["--seed".to_string()]).is_err());
    }
}
