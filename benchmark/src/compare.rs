//! `compare A B`: two sets of runs, one row per workload x end-to-end
//! metric, judged against the bounds `BENCHMARK.json` fixes.

use std::path::Path;

use crate::result::{EndToEnd, ResultFile, END_TO_END};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's run-to-run spread exceeds the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's values of one metric on one workload, one per run.
fn values(files: &[ResultFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| &f.passes)
        .filter(|p| p.workload == workload && !p.traced)
        .filter_map(|p| p.metric(metric).map(|m| m.value))
        .collect()
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let noisy = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worsening(stats::median(a), stats::median(b), higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Loads one side: a result file, or every `result*.json` of a directory
/// (what `run --repeat N --out-dir DIR` leaves).
fn load(path: &Path) -> Result<Vec<ResultFile>, String> {
    let read = |p: &Path| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        ResultFile::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    if !path.is_dir() {
        return Ok(vec![read(path)?]);
    }
    let mut paths: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no result*.json files", path.display()));
    }
    paths.iter().map(|p| read(p)).collect()
}

fn failed_share(files: &[ResultFile], workload: &str) -> f64 {
    let (failed, attempted) = files
        .iter()
        .flat_map(|f| &f.passes)
        .filter(|p| p.workload == workload && !p.traced)
        .fold((0u64, 0u64), |(f, a), p| (f + p.failed, a + p.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Prints the table; `Ok(true)` when nothing is `worse` and no workload's
/// `failed_share` rose.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for pass in a.iter().flat_map(|f| &f.passes).filter(|p| !p.traced) {
        if !workloads.contains(&pass.workload.as_str()) {
            workloads.push(&pass.workload);
        }
    }
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>4} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "A median", "B median", "B/A", "spreadA", "spreadB", "bound"
    );
    for workload in workloads {
        for &EndToEnd {
            name: metric,
            higher_is_better: higher,
            bound,
            ..
        } in END_TO_END
        {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, higher, bound);
            ok &= verdict != Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread =
                |v: &[f64]| stats::spread(v).map_or("-".to_string(), |s| format!("{s:.3}"));
            println!(
                "{workload:<16} {metric:<16} {:>4} {ma:>12.4} {mb:>12.4} {:>9.3} {:>8} {:>8} {bound:>6.2}  {}",
                format!("{}/{}", va.len(), vb.len()),
                mb / ma,
                spread(&va),
                spread(&vb),
                verdict.label()
            );
        }
        let (fa, fb) = (failed_share(&a, workload), failed_share(&b, workload));
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "{workload:<16} {:<16} {:>4} {fa:>12.6} {fb:>12.6} {:>9} {:>8} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "",
            "",
            "any",
            if rose { "worse" } else { "within" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // 5% slower at a 10% bound: within. 20% slower: worse.
        assert_eq!(
            judge(&steady, &[10.5, 10.6, 10.4, 10.5], false, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], false, 0.10),
            Verdict::Worse
        );
        // Faster is never worse; for throughput the direction flips.
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], false, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], true, 0.10),
            Verdict::Worse
        );
        // A side whose own quartiles sit further apart than the bound
        // cannot resolve a difference of that size.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0, 14.0], &steady, false, 0.10),
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(judge(&[10.0], &[10.5], false, 0.10), Verdict::Within);
    }
}
