//! The reproduction does not move: `repro`'s deterministic experiments
//! print exactly `testdata/repro.txt`. Every figure and ablation but
//! `ablation-optimizers` (which prints wall-clock microseconds) is covered.
//! After a change that is meant to move a figure, regenerate the file with
//!
//! ```text
//! cargo run --release -p mj-bench --bin repro -- fig3 fig4 fig5 fig6 fig7 \
//!     fig8 fig9 fig10 fig11 fig12 fig13 fig14 costfn ablation-twophase \
//!     ablation-mirror ablation-memory ablation-skew ablation-pipeline \
//!     > crates/bench/testdata/repro.txt
//! ```

use std::process::Command;

const VERBS: [&str; 18] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "costfn",
    "ablation-twophase",
    "ablation-mirror",
    "ablation-memory",
    "ablation-skew",
    "ablation-pipeline",
];

#[test]
fn repro_prints_the_pinned_figures() {
    // `repro` writes its CSV series under `results/` of its working
    // directory; keep them out of the source tree.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(VERBS)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run repro");
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
