//! Randomized phase-1 search: iterative improvement and simulated
//! annealing over bushy join trees.
//!
//! §1.2 of the paper cites \[SWG88\] ("Optimization of large join queries")
//! for partially heuristic algorithms that bound the time spent searching
//! the tree space. These are the two classics from that line of work:
//! random-restart hill climbing (II) and simulated annealing (SA), both
//! walking the bushy-tree space with the standard move set — commute,
//! associate, and exchange — restricted to trees without cartesian
//! products. They handle graphs too dense for the exhaustive DP's
//! [`PAIR_BUDGET`], and give the benches a realistic baseline for
//! optimizer-quality comparisons.
//!
//! [`PAIR_BUDGET`]: super::PAIR_BUDGET

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mj_relalg::{RelalgError, Result};

use crate::cost::CostModel;
use crate::tree::JoinTree;

use super::{OptimizedPlan, QueryGraph};

/// A join expression over relation indices; the search's working
/// representation (node ids only materialize on conversion to
/// [`JoinTree`]).
#[derive(Clone, Debug)]
enum Expr {
    Leaf(usize),
    Join(Box<Expr>, Box<Expr>),
}

/// Evaluation of a (sub)expression.
struct Eval {
    mask: u32,
    card: f64,
    cost: f64,
}

impl Expr {
    fn is_leaf(&self) -> bool {
        matches!(self, Expr::Leaf(_))
    }

    /// Total cost under the paper's model, or `None` if some join in the
    /// expression is a cartesian product.
    fn eval(&self, graph: &QueryGraph, cm: &CostModel) -> Option<Eval> {
        match self {
            Expr::Leaf(i) => Some(Eval {
                mask: 1 << i,
                card: graph.cards()[*i] as f64,
                cost: 0.0,
            }),
            Expr::Join(l, r) => {
                let le = l.eval(graph, cm)?;
                let re = r.eval(graph, cm)?;
                if !graph.connects(le.mask, re.mask) {
                    return None;
                }
                let mask = le.mask | re.mask;
                let card = graph.subset_card(mask);
                let cost = le.cost
                    + re.cost
                    + cm.join_cost(
                        le.card as u64,
                        l.is_leaf(),
                        re.card as u64,
                        r.is_leaf(),
                        card as u64,
                    );
                Some(Eval { mask, card, cost })
            }
        }
    }

    /// Paths (sequences of left=false/right=true steps) to every internal
    /// node, in preorder.
    fn join_paths(&self) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        fn walk(e: &Expr, path: &mut Vec<bool>, out: &mut Vec<Vec<bool>>) {
            if let Expr::Join(l, r) = e {
                out.push(path.clone());
                path.push(false);
                walk(l, path, out);
                path.pop();
                path.push(true);
                walk(r, path, out);
                path.pop();
            }
        }
        walk(self, &mut Vec::new(), &mut out);
        out
    }

    /// Rebuilds the expression with `f` applied to the subtree at `path`.
    fn replace_at(&self, path: &[bool], f: &dyn Fn(&Expr) -> Option<Expr>) -> Option<Expr> {
        match path.split_first() {
            None => f(self),
            Some((step, rest)) => match self {
                Expr::Leaf(_) => None,
                Expr::Join(l, r) => {
                    if *step {
                        let nr = r.replace_at(rest, f)?;
                        Some(Expr::Join(l.clone(), Box::new(nr)))
                    } else {
                        let nl = l.replace_at(rest, f)?;
                        Some(Expr::Join(Box::new(nl), r.clone()))
                    }
                }
            },
        }
    }
}

/// The Ioannidis–Kang move set over bushy trees.
#[derive(Clone, Copy, Debug)]
enum Move {
    /// `X ⋈ Y → Y ⋈ X`
    Commute,
    /// `(X ⋈ Y) ⋈ Z → X ⋈ (Y ⋈ Z)`
    AssociateRight,
    /// `X ⋈ (Y ⋈ Z) → (X ⋈ Y) ⋈ Z`
    AssociateLeft,
    /// `(X ⋈ Y) ⋈ Z → (X ⋈ Z) ⋈ Y`
    Exchange,
}

const MOVES: [Move; 4] = [
    Move::Commute,
    Move::AssociateRight,
    Move::AssociateLeft,
    Move::Exchange,
];

fn apply_move(e: &Expr, m: Move) -> Option<Expr> {
    match (m, e) {
        (Move::Commute, Expr::Join(l, r)) => Some(Expr::Join(r.clone(), l.clone())),
        (Move::AssociateRight, Expr::Join(lr, z)) => match lr.as_ref() {
            Expr::Join(x, y) => Some(Expr::Join(
                x.clone(),
                Box::new(Expr::Join(y.clone(), z.clone())),
            )),
            _ => None,
        },
        (Move::AssociateLeft, Expr::Join(x, rr)) => match rr.as_ref() {
            Expr::Join(y, z) => Some(Expr::Join(
                Box::new(Expr::Join(x.clone(), y.clone())),
                z.clone(),
            )),
            _ => None,
        },
        (Move::Exchange, Expr::Join(lr, z)) => match lr.as_ref() {
            Expr::Join(x, y) => Some(Expr::Join(
                Box::new(Expr::Join(x.clone(), z.clone())),
                y.clone(),
            )),
            _ => None,
        },
        _ => None,
    }
}

/// Proposes one random valid neighbour, or `None` if the sampled move is
/// inapplicable or creates a cartesian product (callers retry).
fn random_neighbour(
    e: &Expr,
    graph: &QueryGraph,
    cm: &CostModel,
    rng: &mut StdRng,
) -> Option<(Expr, f64)> {
    let paths = e.join_paths();
    let path = &paths[rng.gen_range(0..paths.len())];
    let mv = MOVES[rng.gen_range(0..MOVES.len())];
    let candidate = e.replace_at(path, &|sub| apply_move(sub, mv))?;
    let eval = candidate.eval(graph, cm)?;
    Some((candidate, eval.cost))
}

/// Builds a uniformly random valid bushy tree by repeatedly merging a
/// random connected pair of components.
fn random_expr(graph: &QueryGraph, rng: &mut StdRng) -> Expr {
    let mut comps: Vec<(u32, Expr)> = (0..graph.len())
        .map(|i| (1u32 << i, Expr::Leaf(i)))
        .collect();
    while comps.len() > 1 {
        let mut pairs = Vec::new();
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                if graph.connects(comps[i].0, comps[j].0) {
                    pairs.push((i, j));
                }
            }
        }
        let (i, j) = pairs[rng.gen_range(0..pairs.len())];
        let (mj, ej) = comps.swap_remove(j);
        let (mi, ei) = comps.swap_remove(i);
        comps.push((mi | mj, Expr::Join(Box::new(ei), Box::new(ej))));
    }
    comps.pop().expect("at least one relation").1
}

fn to_plan(e: &Expr, graph: &QueryGraph, cm: &CostModel) -> Result<OptimizedPlan> {
    let total = e
        .eval(graph, cm)
        .ok_or_else(|| RelalgError::InvalidPlan("search produced a cartesian product".into()))?
        .cost;
    let mut builder = JoinTree::builder();
    let mut node_cards = Vec::new();
    fn build(
        e: &Expr,
        graph: &QueryGraph,
        b: &mut crate::tree::JoinTreeBuilder,
        cards: &mut Vec<u64>,
    ) -> (u32, usize) {
        match e {
            Expr::Leaf(i) => {
                let id = b.leaf(graph.names()[*i].clone());
                debug_assert_eq!(id, cards.len());
                cards.push(graph.cards()[*i]);
                (1 << i, id)
            }
            Expr::Join(l, r) => {
                let (lm, lid) = build(l, graph, b, cards);
                let (rm, rid) = build(r, graph, b, cards);
                let id = b.join(lid, rid);
                debug_assert_eq!(id, cards.len());
                cards.push(graph.subset_card(lm | rm) as u64);
                (lm | rm, id)
            }
        }
    }
    let (_, root) = build(e, graph, &mut builder, &mut node_cards);
    let tree = builder.build(root)?;
    Ok(OptimizedPlan {
        tree,
        total_cost: total,
        node_cards,
        connected_subsets: 0,
        pairs_costed: 0,
    })
}

/// Options for [`iterative_improvement`].
#[derive(Clone, Copy, Debug)]
pub struct IterativeOptions {
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
    /// Independent random restarts.
    pub restarts: usize,
    /// Consecutive non-improving proposals before a restart is declared a
    /// local minimum.
    pub patience: usize,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            seed: 0xB05E,
            restarts: 8,
            patience: 256,
        }
    }
}

/// Random-restart iterative improvement (hill climbing) over bushy trees.
///
/// Each restart walks from a random valid tree, accepting only
/// cost-reducing neighbours, until `patience` consecutive proposals fail
/// to improve; the best tree over all restarts wins.
pub fn iterative_improvement(
    graph: &QueryGraph,
    cost: &CostModel,
    opts: IterativeOptions,
) -> Result<OptimizedPlan> {
    check_searchable(graph, opts.restarts.max(1))?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut best: Option<(Expr, f64)> = None;
    for _ in 0..opts.restarts.max(1) {
        let mut cur = random_expr(graph, &mut rng);
        let mut cur_cost = cur
            .eval(graph, cost)
            .expect("random_expr only merges connected components")
            .cost;
        let mut stale = 0usize;
        while stale < opts.patience {
            match random_neighbour(&cur, graph, cost, &mut rng) {
                Some((cand, c)) if c < cur_cost - 1e-9 => {
                    cur = cand;
                    cur_cost = c;
                    stale = 0;
                }
                _ => stale += 1,
            }
        }
        if best.as_ref().map(|(_, b)| cur_cost < *b).unwrap_or(true) {
            best = Some((cur, cur_cost));
        }
    }
    let (expr, _) = best.expect("at least one restart");
    to_plan(&expr, graph, cost)
}

/// Options for [`simulated_annealing`].
#[derive(Clone, Copy, Debug)]
pub struct AnnealingOptions {
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
    /// Starting temperature as a fraction of the initial tree's cost.
    pub initial_temp: f64,
    /// Geometric cooling rate per stage, in `(0, 1)`.
    pub cooling: f64,
    /// Proposals per temperature stage.
    pub stage_iters: usize,
    /// Consecutive stages without any acceptance before the system is
    /// considered frozen.
    pub frozen_stages: usize,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            seed: 0x5A5A,
            initial_temp: 0.1,
            cooling: 0.9,
            stage_iters: 128,
            frozen_stages: 4,
        }
    }
}

/// Simulated annealing over bushy trees: accepts uphill moves with
/// probability `exp(-Δ/T)` under geometric cooling, returning the best
/// tree visited.
pub fn simulated_annealing(
    graph: &QueryGraph,
    cost: &CostModel,
    opts: AnnealingOptions,
) -> Result<OptimizedPlan> {
    check_searchable(graph, 1)?;
    if !(opts.cooling > 0.0 && opts.cooling < 1.0) {
        return Err(RelalgError::InvalidPlan(format!(
            "cooling rate {} outside (0, 1)",
            opts.cooling
        )));
    }
    if opts.initial_temp.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(RelalgError::InvalidPlan(
            "initial_temp must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cur = random_expr(graph, &mut rng);
    let mut cur_cost = cur
        .eval(graph, cost)
        .expect("random_expr only merges connected components")
        .cost;
    let (mut best, mut best_cost) = (cur.clone(), cur_cost);
    let mut temp = opts.initial_temp * cur_cost.max(1.0);
    let mut frozen = 0usize;
    while frozen < opts.frozen_stages && temp > 1e-9 {
        let mut accepted = false;
        for _ in 0..opts.stage_iters {
            let Some((cand, c)) = random_neighbour(&cur, graph, cost, &mut rng) else {
                continue;
            };
            let delta = c - cur_cost;
            if delta < 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                cur = cand;
                cur_cost = c;
                accepted = true;
                if cur_cost < best_cost {
                    best = cur.clone();
                    best_cost = cur_cost;
                }
            }
        }
        frozen = if accepted { 0 } else { frozen + 1 };
        temp *= opts.cooling;
    }
    to_plan(&best, graph, cost)
}

/// A uniformly random valid bushy tree — the baseline the searches start
/// from, exposed for optimizer-quality benchmarks.
pub fn random_tree(graph: &QueryGraph, cost: &CostModel, seed: u64) -> Result<OptimizedPlan> {
    check_searchable(graph, 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let expr = random_expr(graph, &mut rng);
    to_plan(&expr, graph, cost)
}

fn check_searchable(graph: &QueryGraph, _restarts: usize) -> Result<()> {
    if graph.len() < 2 {
        return Err(RelalgError::InvalidPlan(
            "optimizer needs >= 2 relations".into(),
        ));
    }
    if graph.len() > 32 {
        return Err(RelalgError::InvalidPlan(
            "local search supports <= 32 relations".into(),
        ));
    }
    if !graph.is_connected() {
        return Err(RelalgError::InvalidPlan(
            "query graph is disconnected (cartesian products are not enumerated)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{greedy_tree, optimize_bushy};

    /// A chain with exponentially growing cardinalities: join order
    /// genuinely matters, so the searches have something to find.
    fn skewed_chain(k: usize) -> QueryGraph {
        let mut g = QueryGraph::new();
        for i in 0..k {
            g.add_relation(format!("R{i}"), 10u64.pow(1 + (i % 4) as u32))
                .unwrap();
        }
        for i in 0..k - 1 {
            g.add_edge(i, i + 1, 1e-2).unwrap();
        }
        g
    }

    /// A star: fact table joined to small dimensions.
    fn star(dims: usize) -> QueryGraph {
        let mut g = QueryGraph::new();
        let fact = g.add_relation("fact", 1_000_000).unwrap();
        for d in 0..dims {
            let dim = g.add_relation(format!("dim{d}"), 100 + d as u64).unwrap();
            g.add_edge(fact, dim, 1e-3).unwrap();
        }
        g
    }

    #[test]
    fn ii_finds_the_dp_optimum_on_small_graphs() {
        let cm = CostModel::default();
        for graph in [skewed_chain(7), star(5)] {
            let dp = optimize_bushy(&graph, &cm).unwrap();
            let ii = iterative_improvement(&graph, &cm, IterativeOptions::default()).unwrap();
            assert!(
                (ii.total_cost - dp.total_cost).abs() / dp.total_cost < 1e-9,
                "II {} vs DP {}",
                ii.total_cost,
                dp.total_cost
            );
            ii.tree.validate().unwrap();
        }
    }

    #[test]
    fn sa_finds_the_dp_optimum_on_small_graphs() {
        let cm = CostModel::default();
        for graph in [skewed_chain(7), star(5)] {
            let dp = optimize_bushy(&graph, &cm).unwrap();
            let sa = simulated_annealing(&graph, &cm, AnnealingOptions::default()).unwrap();
            assert!(
                (sa.total_cost - dp.total_cost).abs() / dp.total_cost < 1e-9,
                "SA {} vs DP {}",
                sa.total_cost,
                dp.total_cost
            );
            sa.tree.validate().unwrap();
        }
    }

    #[test]
    fn searches_never_beat_the_exhaustive_lower_bound() {
        let cm = CostModel::default();
        let graph = skewed_chain(9);
        let dp = optimize_bushy(&graph, &cm).unwrap();
        for seed in 0..5u64 {
            let ii = iterative_improvement(
                &graph,
                &cm,
                IterativeOptions {
                    seed,
                    restarts: 2,
                    patience: 64,
                },
            )
            .unwrap();
            assert!(ii.total_cost >= dp.total_cost - 1e-6);
            let sa = simulated_annealing(
                &graph,
                &cm,
                AnnealingOptions {
                    seed,
                    ..AnnealingOptions::default()
                },
            )
            .unwrap();
            assert!(sa.total_cost >= dp.total_cost - 1e-6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cm = CostModel::default();
        let graph = skewed_chain(8);
        let a = iterative_improvement(&graph, &cm, IterativeOptions::default()).unwrap();
        let b = iterative_improvement(&graph, &cm, IterativeOptions::default()).unwrap();
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.tree.leaves_in_order(), b.tree.leaves_in_order());
        let a = simulated_annealing(&graph, &cm, AnnealingOptions::default()).unwrap();
        let b = simulated_annealing(&graph, &cm, AnnealingOptions::default()).unwrap();
        assert_eq!(a.total_cost, b.total_cost);
    }

    #[test]
    fn searches_scale_past_the_dp_limit() {
        // 24 relations: 2^24 DP states would be unaffordable in a unit
        // test; the local searches handle it in milliseconds and at least
        // match greedy on this easy chain.
        let cm = CostModel::default();
        let graph = skewed_chain(24);
        let greedy = greedy_tree(&graph, &cm).unwrap();
        let ii = iterative_improvement(
            &graph,
            &cm,
            IterativeOptions {
                restarts: 4,
                ..IterativeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ii.tree.leaf_count(), 24);
        ii.tree.validate().unwrap();
        assert!(
            ii.total_cost <= greedy.total_cost * 1.5,
            "II wildly worse than greedy"
        );
    }

    #[test]
    fn random_tree_is_valid_and_costed() {
        let cm = CostModel::default();
        let graph = star(6);
        let r = random_tree(&graph, &cm, 7).unwrap();
        r.tree.validate().unwrap();
        assert_eq!(r.tree.leaf_count(), 7);
        assert!(r.total_cost > 0.0);
        // No cartesian products: every internal node joins connected sets,
        // which random_expr guarantees by construction.
        let dp = optimize_bushy(&graph, &cm).unwrap();
        assert!(r.total_cost >= dp.total_cost - 1e-6);
    }

    #[test]
    fn invalid_options_error() {
        let cm = CostModel::default();
        let graph = skewed_chain(4);
        assert!(simulated_annealing(
            &graph,
            &cm,
            AnnealingOptions {
                cooling: 1.5,
                ..AnnealingOptions::default()
            }
        )
        .is_err());
        assert!(simulated_annealing(
            &graph,
            &cm,
            AnnealingOptions {
                initial_temp: 0.0,
                ..AnnealingOptions::default()
            }
        )
        .is_err());
        let mut g = QueryGraph::new();
        g.add_relation("lonely", 10).unwrap();
        assert!(iterative_improvement(&g, &cm, IterativeOptions::default()).is_err());
    }
}
