//! The reproduction does not move: `repro all` prints exactly
//! `testdata/repro.txt`. Every experiment is deterministic, so one added
//! later is pinned as soon as `all` runs it. After a change that is meant
//! to move a figure, regenerate the file with
//!
//! ```text
//! cargo run --release -p mj-bench --bin repro -- all > crates/bench/testdata/repro.txt
//! ```

use std::process::{Command, Output};

/// Runs `repro` with `args`. It writes its CSV series under `results/` of
/// its working directory; keep them out of the source tree.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run repro")
}

#[test]
fn repro_prints_the_pinned_figures() {
    let out = repro(&["all"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let want = include_str!("../testdata/repro.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs", i + 1);
    }
    assert_eq!(got, want);
}

#[test]
fn an_unknown_experiment_exits_nonzero_before_anything_runs() {
    let out = repro(&["fig3", "no-such-figure"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "fig3 ran before the name check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment `no-such-figure`"),
        "{stderr}"
    );
    assert!(!stderr.contains("done in"), "{stderr}");
}
