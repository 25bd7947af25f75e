//! Proportional processor allocation with integer discretization.
//!
//! SE, RD and FP all "distribute the available processors over the
//! operations proportionally to the amount of work in each operation"
//! (§3.2–3.4). Processors are discrete, so the distribution is never exact:
//! the paper's candy-and-kids example (§3.5). This module implements the
//! largest-remainder method with a floor of one processor per operation,
//! and exposes the resulting *discretization error* for the ablation
//! benches.

use mj_relalg::{RelalgError, Result};

use crate::plan_ir::ProcId;

/// Splits `total` processors over operations with the given non-negative
/// `weights`, proportionally, every operation receiving at least one
/// processor. Returns counts summing to exactly `total`.
///
/// Errors if `total < weights.len()` (a processor may not work on two
/// concurrent operations, §3) or if weights are empty/negative.
pub fn proportional_counts(weights: &[f64], total: usize) -> Result<Vec<usize>> {
    if weights.is_empty() {
        return Err(RelalgError::InvalidPlan("no operations to allocate".into()));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(RelalgError::InvalidPlan(
            "weights must be finite and non-negative".into(),
        ));
    }
    let n = weights.len();
    if total < n {
        return Err(RelalgError::InvalidPlan(format!(
            "{n} concurrent operations need at least {n} processors, got {total}"
        )));
    }
    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 {
        // Degenerate: equal split.
        return Ok(equal_counts(n, total));
    }

    // Largest-remainder (Hamilton) apportionment of all `total` processors.
    let mut counts: Vec<usize> = vec![0; n];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let ideal = w / weight_sum * total as f64;
        let fl = ideal.floor() as usize;
        counts[i] = fl;
        assigned += fl;
        remainders.push((i, ideal - fl as f64));
    }
    // Hand the leftover processors to the largest remainders; break ties by
    // larger weight, then by index for determinism.
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then_with(|| weights[b.0].partial_cmp(&weights[a.0]).unwrap())
            .then_with(|| a.0.cmp(&b.0))
    });
    for k in 0..(total - assigned) {
        counts[remainders[k].0] += 1;
    }
    // Enforce the floor of one processor per operation by taking from the
    // most-provisioned operations (possible because total >= n).
    while let Some(zero) = counts.iter().position(|&c| c == 0) {
        let donor = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("non-empty");
        debug_assert!(counts[donor] > 1);
        counts[donor] -= 1;
        counts[zero] += 1;
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), total);
    Ok(counts)
}

/// The most processes an operation of estimated `work` can keep busy when
/// each must have at least `grain` work to pay for its own start
/// ([`ScheduleModel::process_grain`](crate::schedule::ScheduleModel::process_grain)):
/// `⌊work / grain⌋`, never less than one. A non-positive `grain` bounds
/// nothing.
pub fn max_useful_degree(work: f64, grain: f64) -> usize {
    if grain <= 0.0 {
        return usize::MAX;
    }
    // Float-to-int `as` saturates, and NaN work maps to 0, hence the floor.
    ((work / grain) as usize).max(1)
}

fn equal_counts(n: usize, total: usize) -> Vec<usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Carves a pool of processor ids into consecutive disjoint groups of the
/// given sizes. Panics if the pool is too small (callers size pools via
/// [`proportional_counts`]).
pub fn carve(counts: &[usize], pool: &[ProcId]) -> Vec<Vec<ProcId>> {
    let needed: usize = counts.iter().sum();
    assert!(
        pool.len() >= needed,
        "pool {} < needed {needed}",
        pool.len()
    );
    let mut out = Vec::with_capacity(counts.len());
    let mut cursor = 0usize;
    for &c in counts {
        out.push(pool[cursor..cursor + c].to_vec());
        cursor += c;
    }
    out
}

/// The discretization error of an allocation: the maximum relative
/// deviation between an operation's processor share and its work share.
/// Zero means perfectly fair; grows when few processors are spread over
/// many differently-sized operations (§3.5).
pub fn discretization_error(weights: &[f64], counts: &[usize]) -> f64 {
    let weight_sum: f64 = weights.iter().sum();
    let total: usize = counts.iter().sum();
    if weight_sum <= 0.0 || total == 0 {
        return 0.0;
    }
    weights
        .iter()
        .zip(counts)
        .map(|(&w, &c)| {
            let work_share = w / weight_sum;
            let proc_share = c as f64 / total as f64;
            if work_share > 0.0 {
                (proc_share / work_share - 1.0).abs()
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_total_and_respect_floor() {
        let counts = proportional_counts(&[1.0, 5.0, 3.0, 4.0], 10).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c >= 1));
        // Weight 5 gets the most, weight 1 the least.
        assert!(counts[1] >= counts[3] && counts[3] >= counts[2] && counts[2] >= counts[0]);
    }

    #[test]
    fn example_tree_allocation_matches_figure_7() {
        // Fig. 2 weights (J1=1, J5=5, J3=3, J4=4) over 10 processors: the
        // idealized FP allocation of Fig. 7: 1, 4, 2, 3.
        let counts = proportional_counts(&[1.0, 5.0, 3.0, 4.0], 10).unwrap();
        assert_eq!(counts, vec![1, 4, 2, 3]);
    }

    #[test]
    fn candy_example_from_the_paper() {
        // "4 pieces of candy over 3 kids: one gets 2, the others 1."
        let counts = proportional_counts(&[1.0, 1.0, 1.0], 4).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 4);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2]);
    }

    #[test]
    fn useful_degree_is_whole_grains_of_work_and_at_least_one() {
        assert_eq!(max_useful_degree(250.0, 2712.0), 1);
        assert_eq!(max_useful_degree(5423.0, 2712.0), 1);
        assert_eq!(max_useful_degree(5424.0, 2712.0), 2);
        assert_eq!(max_useful_degree(120_000.0, 2712.0), 44);
        assert_eq!(max_useful_degree(0.0, 2712.0), 1);
        assert_eq!(max_useful_degree(f64::NAN, 2712.0), 1);
        assert_eq!(max_useful_degree(1.0, 0.0), usize::MAX);
    }

    #[test]
    fn too_few_processors_is_an_error() {
        assert!(proportional_counts(&[1.0, 1.0, 1.0], 2).is_err());
        assert!(proportional_counts(&[], 5).is_err());
        assert!(proportional_counts(&[1.0, f64::NAN], 5).is_err());
        assert!(proportional_counts(&[1.0, -1.0], 5).is_err());
    }

    #[test]
    fn zero_weights_split_equally() {
        let counts = proportional_counts(&[0.0, 0.0, 0.0], 7).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert_eq!(counts, vec![3, 2, 2]);
    }

    #[test]
    fn exactly_one_each() {
        let counts = proportional_counts(&[9.0, 1.0, 1.0], 3).unwrap();
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn carve_produces_disjoint_consecutive_groups() {
        let pool: Vec<ProcId> = (10..20).collect();
        let groups = carve(&[3, 5, 2], &pool);
        assert_eq!(groups[0], vec![10, 11, 12]);
        assert_eq!(groups[1], vec![13, 14, 15, 16, 17]);
        assert_eq!(groups[2], vec![18, 19]);
    }

    #[test]
    fn discretization_error_shrinks_with_more_processors() {
        let weights = [1.0, 5.0, 3.0, 4.0];
        let few = proportional_counts(&weights, 8).unwrap();
        let many = proportional_counts(&weights, 80).unwrap();
        let e_few = discretization_error(&weights, &few);
        let e_many = discretization_error(&weights, &many);
        assert!(e_many < e_few, "{e_many} !< {e_few}");
    }

    #[test]
    fn perfectly_divisible_has_zero_error() {
        let weights = [1.0, 1.0, 2.0];
        let counts = proportional_counts(&weights, 8).unwrap();
        assert_eq!(counts, vec![2, 2, 4]);
        assert!(discretization_error(&weights, &counts) < 1e-12);
    }

    #[test]
    fn determinism_under_ties() {
        let a = proportional_counts(&[1.0, 1.0, 1.0, 1.0], 6).unwrap();
        let b = proportional_counts(&[1.0, 1.0, 1.0, 1.0], 6).unwrap();
        assert_eq!(a, b);
    }
}
