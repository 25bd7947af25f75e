//! The `mj` binary end to end: `mj sql` against the sequential XRA oracle,
//! `--explain`, and the arguments and verbs it must refuse.
//!
//! Every run that opens a database passes a small `--workers`: each
//! worker is an OS thread.

use std::process::{Command, Output};

use multijoin::exec::{chain_query_sql, generate_family, QueryFamily};
use multijoin::prelude::*;
use multijoin::relalg::Value;

/// Runs the `mj` binary with `args` and returns its output.
fn mj(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mj"))
        .args(args)
        .output()
        .expect("the mj binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

const PAPER_VERBS: [&str; 6] = ["shapes", "plan", "simulate", "sweep", "run", "optimize"];

/// The verbs the usage synopsis lists (its `  mj VERB` lines up to the
/// first blank line), after checking no paper verb is named anywhere.
fn usage_verbs(text: &str) -> Vec<String> {
    for verb in PAPER_VERBS {
        assert!(
            !text.contains(&format!("mj {verb}")),
            "usage names `{verb}`"
        );
    }
    text.lines()
        .skip_while(|l| *l != "usage:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.strip_prefix("  mj "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn sql_csv_equals_the_oracle_on_the_chain_family() {
    let (k, n, seed) = (4, 500, 42);
    let text = chain_query_sql(k);
    let out = mj(&[
        "sql",
        "--format",
        "csv",
        "--limit",
        "0",
        "--query",
        "chain",
        "--relations",
        "4",
        "--tuples",
        "500",
        "--seed",
        "42",
        "--workers",
        "2",
        &text,
    ]);
    assert!(out.status.success(), "mj sql failed: {}", stderr(&out));

    // The oracle: the planner's lowering of the same text, evaluated
    // sequentially over the same generated instance.
    let instance = generate_family(QueryFamily::Chain, k, n, seed).expect("family");
    let db = Database::open(DbConfig::default()).expect("open");
    instance.load(&db).expect("load");
    let planned = db.plan(&text).expect("plan");
    let oracle = planned
        .lowered
        .to_xra(&planned.tree, JoinAlgorithm::Simple)
        .expect("oracle plan")
        .eval(&instance.catalog)
        .expect("oracle eval");

    let printed = stdout(&out);
    let mut lines = printed.lines();
    let header: Vec<&str> = lines.next().expect("a header line").split(',').collect();
    let columns: Vec<&str> = oracle
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(header, columns);
    let mut rows: Vec<String> = lines.map(str::to_string).collect();
    let mut expected: Vec<String> = oracle
        .iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => s.to_string(),
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert!(!expected.is_empty(), "the chain query returns rows");
    rows.sort();
    expected.sort();
    assert_eq!(rows, expected, "mj sql and the oracle differ as multisets");
}

#[test]
fn explain_prints_the_winner_and_the_placement_and_no_rows() {
    let out = mj(&[
        "sql",
        "--explain",
        "--relations",
        "4",
        "--tuples",
        "500",
        "--workers",
        "2",
        &chain_query_sql(4),
    ]);
    assert!(
        out.status.success(),
        "mj sql --explain failed: {}",
        stderr(&out)
    );
    let printed = stdout(&out);
    let winner = printed
        .lines()
        .find(|l| l.starts_with("winner: "))
        .unwrap_or_else(|| panic!("no winner line in:\n{printed}"));
    assert!(winner.contains("total work"), "{winner}");
    assert!(
        printed
            .lines()
            .any(|l| l.contains(" plan on 2 processors (3 ops)")),
        "no plan header in:\n{printed}"
    );
    let placements = printed
        .lines()
        .filter(|l| l.starts_with("  op") && l.contains(" procs "))
        .count();
    assert_eq!(placements, 3, "one placement line per join in:\n{printed}");
    // Nothing executed: no column header, no row, no timing line.
    assert!(!printed.contains("a | b | id"), "{printed}");
    assert!(
        !stderr(&out).contains(" tuples; first batch"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_paper_verbs_are_gone_and_usage_names_only_sql_and_serve() {
    for verb in PAPER_VERBS {
        let out = mj(&[verb]);
        assert!(!out.status.success(), "`mj {verb}` exited 0");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown command `{verb}`")), "{err}");
        assert_eq!(usage_verbs(&err), ["sql", "serve"], "{err}");
    }
    let help = mj(&["help"]);
    assert!(help.status.success());
    assert_eq!(usage_verbs(&stdout(&help)), ["sql", "serve"]);
}

#[test]
fn arguments_it_would_ignore_are_rejected_by_name() {
    let query = "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a";
    let cases: [(&[&str], &str); 5] = [
        (
            &["sql", "--tupels", "100", "--strategy", "sp", query],
            "--tupels",
        ),
        (
            &["sql", "--tuples", "100", "--strategy", "sp", query],
            "--strategy",
        ),
        (&["sql", "--workers", "2", query, "--limit"], "--limit"),
        (
            &["sql", "--workers", "2", query, "SELECT * FROM R1"],
            "SELECT * FROM R1",
        ),
        (
            &["serve", "--workers", "2", "--shape", "wide-bushy"],
            "--shape",
        ),
    ];
    for (args, named) in cases {
        let out = mj(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let err = stderr(&out);
        assert!(err.contains(&format!("`{named}`")), "{args:?}: {err}");
        assert_eq!(usage_verbs(&err), ["sql", "serve"], "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

#[test]
fn counts_past_the_bounds_are_refused_before_anything_is_built() {
    let query = "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a";
    let small = ["sql", "--relations", "2", "--tuples", "100", "--explain"];
    let cases: [(&[&str], &str); 2] = [
        (
            &["--workers", "2", "--procs", "100000000"],
            "processors must be at most 1024, got 100000000",
        ),
        (
            &["--workers", "5000"],
            "workers must be at most 1024, got 5000",
        ),
    ];
    for (counts, named) in cases {
        let args: Vec<&str> = small
            .iter()
            .chain(counts)
            .chain([&query])
            .copied()
            .collect();
        let out = mj(&args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let err = stderr(&out);
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

#[test]
fn the_configuration_is_refused_before_the_family_is_generated() {
    // Three tuples is too few for a family, but the zero workers are what
    // gets named: the database opens, and refuses, first.
    let out = mj(&[
        "sql",
        "--tuples",
        "3",
        "--workers",
        "0",
        "SELECT * FROM R0 JOIN R1 ON R0.b = R1.a",
    ]);
    assert!(!out.status.success(), "exited 0");
    let err = stderr(&out);
    assert!(err.contains("workers"), "{err}");
    assert!(stdout(&out).is_empty(), "ran: {}", stdout(&out));
}

#[test]
fn a_parse_error_exits_nonzero_with_its_caret_line() {
    let out = mj(&[
        "sql",
        "--relations",
        "2",
        "--tuples",
        "100",
        "--workers",
        "2",
        "SELECT * FRM R0",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("expected keyword `FROM`"), "{err}");
    let query_line = err
        .lines()
        .position(|l| l.trim() == "SELECT * FRM R0")
        .unwrap_or_else(|| panic!("the query is not echoed in:\n{err}"));
    let caret = err.lines().nth(query_line + 1).unwrap_or("");
    assert_eq!(caret.trim(), "^^^", "{err}");
    let column = |l: &str| l.len() - l.trim_start().len();
    let echoed = err.lines().nth(query_line).unwrap();
    assert_eq!(
        column(caret),
        column(echoed) + "SELECT * ".len(),
        "the caret points at `FRM`:\n{err}"
    );
}
