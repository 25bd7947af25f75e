//! The end-to-end cost-based planner: [`JoinQuery`] → join tree →
//! strategy + processor allocation → executable [`ParallelPlan`] +
//! [`QueryBinding`].
//!
//! This is the piece the paper leaves to "the optimizer": it picks the
//! tree, the strategy and the allocation that the paper's experiments fix
//! by hand. The planner wires the whole pipeline:
//!
//! 1. **Tree** (phase 1): exhaustive bushy DP over the join graph's
//!    connected subgraph / complement pairs, greedy when a dense graph
//!    holds more of them than [`PAIR_BUDGET`](mj_plan::optimize::PAIR_BUDGET)
//!    — minimal *total* cost, parallelism-blind (§1.2).
//! 2. **Strategy + allocation** (phase 2): generate an SP/SE/RD/FP plan
//!    for the tree *and* its free right-oriented mirror (§5), each with
//!    proportional processor allocation, and cost every candidate with the
//!    analytic schedule model ([`mj_core::schedule`]). Cheapest wins.
//! 3. **Lowering**: the winner's tree is lowered to per-join [`EquiJoin`]
//!    specs and derived schemas ([`mj_plan::query::lower`]) and bound into
//!    a [`QueryBinding`] the engine executes directly.
//!
//! Estimated per-op cardinalities travel through the plan into
//! [`Metrics`](crate::metrics::Metrics), so every run reports
//! estimated-vs-actual plan quality.
//!
//! [`EquiJoin`]: mj_relalg::EquiJoin

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use mj_core::schedule::{
    estimate_schedule, stage_busy, stage_tail_cost, ScheduleEstimate, ScheduleModel,
};
use mj_core::{
    generate, max_useful_degree, GeneratorInput, OperandSource, ParallelPlan, PlanStats, Split,
    Strategy, ValidPlan,
};
use mj_plan::cost::{tree_costs, CostModel};
use mj_plan::optimize::{greedy_tree, optimize_bushy};
use mj_plan::query::{
    inject_scan_filters, lower, JoinQuery, LoweredQuery, SelectItemSpec, SelectSpec,
};
use mj_plan::transform::right_orient;
use mj_plan::tree::JoinTree;
use mj_relalg::ops::AggSpec;
use mj_relalg::{
    Attribute, DataType, JoinAlgorithm, Predicate, Projection, RelalgError, Result, Schema, XraNode,
};

use crate::binding::{PipelineStage, QueryBinding, StageKind};

/// Planner knobs. [`PlannerOptions::new`] gives the defaults: all four
/// strategies considered. Each strategy is always costed on the phase-1
/// tree and on its right-oriented mirror, with the paper's cost model
/// (§4.3), and concurrent operations share processors when a strategy
/// needs more than there are.
#[derive(Clone, Copy, Debug)]
pub struct PlannerOptions {
    /// Logical processors the plan may use: the most partitions (operation
    /// processes) any one operation is hash-split into, and the pool the
    /// strategies divide among concurrent operations. Purely a placement —
    /// it spawns no threads; the processes are multiplexed onto
    /// [`ExecConfig::workers`](crate::config::ExecConfig::workers) pool
    /// threads. What a partition costs — one process start and its stream
    /// ends — is priced by `schedule_model`, which is why an operation
    /// whose estimated work does not pay for them gets fewer (down to
    /// one) whatever this number says.
    ///
    /// [`ONE_PER_WORKER`](Self::ONE_PER_WORKER), the
    /// [`DbConfig`](crate::session::DbConfig) default, plans over exactly
    /// as many processors as the pool has workers: partitions past the
    /// workers run on no extra core. On two workers the benchmark's
    /// `join_heavy` chain runs each of its two right-deep segments as one
    /// segment group of two instances — each probing half of the segment's
    /// bottom relation over tables both share — so with the aggregate it
    /// is 5 processes and 4 streams, and no tuple is routed inside a
    /// segment. (Before segment groups, it was 6 processes and 5 streams,
    /// every join its own process at degree 1; with 8 processors, 17 and
    /// 57, at a 21 % higher median latency, because partitions past the
    /// workers hash-route every intermediate tuple.) Any other value is
    /// taken as given: the paper's grid and tests of multiplexing more
    /// processes than workers set it.
    pub processors: usize,
    /// Schedule model for phase-2 candidate costing and for the grain
    /// that bounds every operation's degree
    /// ([`ScheduleModel::process_grain`]). The default is the model
    /// measured on this engine.
    pub schedule_model: ScheduleModel,
    /// Forces a single strategy instead of costing all four; the tree and
    /// the allocation are still the planner's.
    pub strategy: Option<Strategy>,
}

impl PlannerOptions {
    /// The [`processors`](Self::processors) value that plans over one
    /// logical processor per pool worker:
    /// [`Planner::with_workers`] replaces it with the worker count.
    pub const ONE_PER_WORKER: usize = usize::MAX;

    /// The most logical processors a plan may use. A plan lists its
    /// processors, so an unbounded count is an unbounded allocation; the
    /// paper's grid stops at 80.
    pub const MAX_PROCESSORS: usize = 1024;

    /// Default options for a machine of `processors` logical processors.
    pub fn new(processors: usize) -> Self {
        PlannerOptions {
            processors,
            schedule_model: ScheduleModel::default(),
            strategy: None,
        }
    }
}

/// One costed (strategy, tree-variant) candidate.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The strategy of this candidate.
    pub strategy: Strategy,
    /// True if the candidate runs on the right-oriented mirror.
    pub right_oriented: bool,
    /// Estimated schedule (the planner's objective is `.makespan`).
    pub estimate: ScheduleEstimate,
    /// Startup/coordination drivers of the candidate plan.
    pub stats: PlanStats,
    /// True if concurrent ops share processors in this candidate.
    pub oversubscribed: bool,
}

/// The planner's output: an executable plan plus everything needed to run,
/// verify, and explain it. Everything but the [`binding`](Self::binding)
/// is independent of parameter values and held once ([`PlanDetails`],
/// reached by dereferencing), so copying a planned query — which
/// [`bind_params`](Self::bind_params) does — copies a pointer and the
/// binding's predicates. (Executing a prepared statement binds its
/// arguments in its [`RunTemplate`](crate::RunTemplate) instead, into the
/// predicates that hold placeholders only.)
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    details: Arc<PlanDetails>,
    /// Join specs and schemas, ready for the engine.
    pub binding: QueryBinding,
}

impl Deref for PlannedQuery {
    type Target = PlanDetails;

    fn deref(&self) -> &PlanDetails {
        &self.details
    }
}

/// The parameter-independent part of a [`PlannedQuery`]: tree, parallel
/// plan, lowering, estimates and the costed alternatives.
#[derive(Debug)]
pub struct PlanDetails {
    /// The chosen join tree (possibly the right-oriented mirror).
    pub tree: JoinTree,
    /// The winning parallel plan, fully allocated — validated here, once,
    /// and shared with every execution ([`Engine::submit_planned`]), its
    /// scheduling waves and process groups derived with it.
    ///
    /// [`Engine::submit_planned`]: crate::engine::Engine::submit_planned
    pub plan: ValidPlan,
    /// The generalized lowering (per-node schemas, specs, estimates) —
    /// `lowered.to_xra(&tree, ..)` is the sequential oracle.
    pub lowered: LoweredQuery,
    /// The winner's schedule estimate.
    pub estimate: ScheduleEstimate,
    /// Every costed candidate, cheapest first (winner is `choices[0]`).
    pub choices: Vec<PlanChoice>,
    /// The schedule model every candidate was costed (and every degree
    /// bounded) with.
    pub schedule_model: ScheduleModel,
    /// Physical workers the estimates assumed
    /// ([`ScheduleEstimate::bounded_by`]).
    pub workers: usize,
    /// Connected relation subsets phase 1 held a DP entry for.
    pub connected_subsets: usize,
    /// Csg-cmp pairs phase 1 costed; 0 means the join graph blew the pair
    /// budget and the tree is [`greedy_tree`]'s.
    pub pairs_costed: usize,
}

impl PlannedQuery {
    /// The winning strategy.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// Rebuilds the planned query with every `?N` placeholder in its
    /// predicates bound to the corresponding literal from `args`
    /// (1-based: `?1` reads `args[0]`) — the execute-time half of a
    /// prepared statement. Only the binding's predicates are rewritten
    /// ([`QueryBinding::bind_params`]); the join tree, parallel plan,
    /// allocation, and cost estimates are reused untouched, which is the
    /// whole point: literal *values* never influenced them (selectivity
    /// estimation is value-independent for literal comparisons), so
    /// substituting params cannot invalidate the plan.
    pub fn bind_params(&self, args: &[i64]) -> Result<PlannedQuery> {
        Ok(PlannedQuery {
            binding: self.binding.bind_params(args)?,
            ..self.clone()
        })
    }

    /// Human-readable comparison of every costed alternative — what
    /// `mj sql --explain` prints.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>12} {:>10} {:>10}\n",
            "candidate", "est cost", "busy", "startup", "streams", "processes"
        ));
        for (i, c) in self.choices.iter().enumerate() {
            out.push_str(&format!(
                "{:<10} {:>14.0} {:>14.0} {:>12.0} {:>10} {:>10}  {}\n",
                format!(
                    "{}{}",
                    c.strategy,
                    if c.right_oriented { "+mirror" } else { "" }
                ),
                c.estimate.makespan,
                c.estimate.busy,
                c.estimate.startup,
                c.stats.tuple_streams,
                c.stats.operation_processes,
                if i == 0 { "<- chosen" } else { "" },
            ));
        }
        let relations = self.tree.leaf_count();
        out.push_str(&if self.pairs_costed == 0 {
            format!("phase 1: greedy (pair budget exceeded), {relations} relations\n")
        } else {
            format!(
                "phase 1: dpccp, {relations} relations, {} connected subsets, \
                 {} csg-cmp pairs costed\n",
                self.connected_subsets, self.pairs_costed
            )
        });
        let m = &self.schedule_model;
        out.push_str(&format!(
            "estimated for {} workers, {} logical processors; model (tuple actions): \
             startup/process {}, handshake/stream {}, pipelining x{}, tail {}, rescan/tuple {}; \
             grain {} per process\n",
            self.workers,
            self.plan.processors,
            m.startup_per_process(),
            m.handshake_per_stream(),
            m.machine.pipelining_work_factor,
            m.pipeline_tail,
            m.rescan_per_tuple(),
            m.process_grain(),
        ));
        let stats = self.plan.stats();
        let plural =
            |n: usize, one: &str, many: &str| format!("{n} {}", if n == 1 { one } else { many });
        out.push_str(&format!(
            "chosen plan: {}, {}, {} of {} operations fused into their consumer's process{}\n",
            plural(
                stats.operation_processes,
                "operation process",
                "operation processes"
            ),
            plural(stats.tuple_streams, "stream", "streams"),
            stats.fused_ops,
            self.plan.ops.len(),
            match stats.segment_groups {
                0 => String::new(),
                n => format!(", {}", plural(n, "segment group", "segment groups")),
            },
        ));
        out.push_str(&format!("{} operations:\n", self.plan.strategy));
        let roots = self.plan.process_roots();
        let groups = self.plan.segment_groups();
        let capped = |op: &mj_core::PlanOp| {
            if op.grain_capped() {
                format!(", grain-capped from x{}", op.allocated)
            } else {
                String::new()
            }
        };
        for op in &self.plan.ops {
            // A segment group is one line, under its root: its members, its
            // degree, the operand split by range and the shared build sides.
            if let Some(group) = groups.iter().find(|g| g.contains(&op.id)) {
                if roots[op.id] != op.id {
                    continue;
                }
                let ops = self.plan.ops.iter().filter(|o| group.contains(&o.id));
                let (range, shared): (Vec<_>, Vec<_>) = ops
                    .flat_map(|o| [(&o.left, o.split[0]), (&o.right, o.split[1])])
                    .filter(|(operand, _)| !matches!(operand, OperandSource::Fused { .. }))
                    .partition(|(_, split)| *split == Split::Range);
                let list = |operands: Vec<(&OperandSource, Split)>| {
                    let names: Vec<String> = operands.iter().map(|(o, _)| o.to_string()).collect();
                    names.join(", ")
                };
                out.push_str(&format!(
                    "  op{}-op{} segment group [x{}{}]: range-split {}, shared {}; est {} rows\n",
                    group[0],
                    op.id,
                    op.degree(),
                    capped(op),
                    list(range),
                    list(shared),
                    op.est_out,
                ));
                continue;
            }
            out.push_str(&format!(
                "  op{} {} ⋈ {} [x{}{}] est {} rows{}\n",
                op.id,
                op.left,
                op.right,
                op.degree(),
                capped(op),
                op.est_out,
                if roots[op.id] == op.id {
                    String::new()
                } else {
                    format!(" fused→op{}", roots[op.id])
                },
            ));
        }
        let filters = self.binding.scan_filters();
        if !filters.is_empty() {
            let mut names: Vec<&String> = filters.keys().collect();
            names.sort();
            out.push_str("pushed scan filters:\n");
            for name in names {
                out.push_str(&format!("  σ {name}: {}\n", filters[name]));
            }
        }
        if !self.binding.stages().is_empty() {
            out.push_str("post-join pipeline:\n");
            for stage in self.binding.stages() {
                out.push_str(&format!(
                    "  -> {} [x{}] est {} rows (~{} B columnar)\n",
                    stage.label,
                    stage.degree,
                    stage.est_out,
                    stage.est_bytes()
                ));
            }
        }
        out
    }

    /// The sequential oracle for this plan: the lowered join tree with the
    /// pushed scan filters injected beneath the scans and the pipeline
    /// stages (aggregation, final projection) replayed on top. A LIMIT
    /// stage is *not* represented — the oracle returns the full result,
    /// and limit tests check the subset/count properties instead (which k
    /// rows survive is nondeterministic).
    pub fn oracle_xra(&self, algorithm: JoinAlgorithm) -> Result<XraNode> {
        let mut node = self.lowered.to_xra(&self.tree, algorithm)?;
        node = inject_scan_filters(node, self.binding.scan_filters());
        for stage in self.binding.stages() {
            node = match &stage.kind {
                StageKind::Aggregate {
                    group,
                    aggs,
                    projection,
                } => {
                    let agg = XraNode::Aggregate {
                        input: Box::new(node),
                        group: group.clone(),
                        aggs: aggs.clone(),
                    };
                    match projection {
                        Some(p) => XraNode::Project {
                            input: Box::new(agg),
                            projection: p.clone(),
                        },
                        None => agg,
                    }
                }
                StageKind::Limit { .. } => node,
            };
        }
        Ok(node)
    }

    /// True if this plan contains a LIMIT stage (whose row cap the oracle
    /// from [`oracle_xra`](Self::oracle_xra) does not apply).
    pub fn has_limit(&self) -> bool {
        self.binding
            .stages()
            .iter()
            .any(|s| matches!(s.kind, StageKind::Limit { .. }))
    }
}

impl fmt::Display for PlannedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// The cost-based planner. Stateless apart from its options; cheap to
/// build per query.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    options: PlannerOptions,
    workers: usize,
}

impl Planner {
    /// Creates a planner for a machine with one physical worker per
    /// logical processor (the paper's).
    pub fn new(options: PlannerOptions) -> Self {
        Planner {
            options,
            workers: options.processors,
        }
    }

    /// The same planner costing for an engine of `workers` pool threads:
    /// no candidate is estimated to finish before its summed busy time
    /// divided by them, and [`PlannerOptions::ONE_PER_WORKER`] becomes
    /// `workers` logical processors.
    /// [`Database::open`](crate::session::Database::open) passes
    /// [`ExecConfig::workers`](crate::config::ExecConfig::workers).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        if self.options.processors == PlannerOptions::ONE_PER_WORKER {
            self.options.processors = workers;
        }
        self
    }

    /// The planner's options.
    pub fn options(&self) -> &PlannerOptions {
        &self.options
    }

    /// Plans `query` end to end: phase-1 tree, phase-2 strategy and
    /// processor allocation by cheapest estimated schedule, generalized
    /// lowering, binding. Keeps every column of every relation in
    /// tree-independent `(relation, column)` order.
    pub fn plan(&self, query: &JoinQuery) -> Result<PlannedQuery> {
        self.plan_with_output(query, None)
    }

    /// [`plan`](Self::plan) with an explicit output column list: the final
    /// result contains exactly the `(relation, column)` pairs of `output`,
    /// in order (a plain-column `SELECT` list). `None` keeps every column.
    pub fn plan_with_output(
        &self,
        query: &JoinQuery,
        output: Option<&[(usize, usize)]>,
    ) -> Result<PlannedQuery> {
        let spec = SelectSpec::columns(match output {
            Some(cols) => cols.to_vec(),
            None => query.all_columns(),
        });
        self.plan_select(query, &spec)
    }

    /// The full planning entry point: joins from `query` (with any
    /// attached WHERE filters), projection/grouping/aggregation/limit from
    /// `spec`. Every filter names one relation and becomes a scan predicate
    /// on it, and its selectivity folds into every phase-1 estimate and
    /// schedule cost. Aggregation runs partitioned across the root's
    /// processors (hash on the first integer grouping column), and a LIMIT
    /// becomes the degree-1 early-terminating stage.
    pub fn plan_select(&self, query: &JoinQuery, spec: &SelectSpec) -> Result<PlannedQuery> {
        if self.options.processors == PlannerOptions::ONE_PER_WORKER {
            return Err(RelalgError::InvalidPlan(
                "one processor per worker needs a worker count (`Planner::with_workers`)".into(),
            ));
        }
        if !(1..=PlannerOptions::MAX_PROCESSORS).contains(&self.options.processors) {
            return Err(RelalgError::InvalidPlan(format!(
                "planner needs at least 1 processor and at most {}, got {}",
                PlannerOptions::MAX_PROCESSORS,
                self.options.processors
            )));
        }
        if query.len() < 2 {
            return Err(RelalgError::InvalidPlan(
                "planner needs at least 2 relations".into(),
            ));
        }
        spec.validate(query)?;
        // Every estimate downstream — phase-1 tree choice, System-R
        // intermediates, schedule costs — sees the post-selection
        // cardinalities.
        let effective;
        let planning_query: &JoinQuery = if query.filters().is_empty() {
            query
        } else {
            effective = query.with_filtered_cards();
            &effective
        };

        // Phase 1: minimal-total-cost tree.
        let cost_model = CostModel::default();
        let phase1 = match optimize_bushy(planning_query.graph(), &cost_model) {
            Err(RelalgError::PairBudgetExceeded { .. }) => {
                greedy_tree(planning_query.graph(), &cost_model)?
            }
            exact => exact?,
        };

        // The columns the root join must output: the SELECT columns
        // directly when nothing runs above the root, otherwise the ordered
        // dedup of everything the aggregate stage consumes (group columns,
        // aggregate inputs).
        let root_cols: Vec<(usize, usize)> = if spec.needs_aggregate() {
            let mut cols = Vec::new();
            for &rc in spec
                .group_by
                .iter()
                .chain(spec.items.iter().filter_map(|i| match i {
                    SelectItemSpec::Aggregate { input, .. } => input.as_ref(),
                    SelectItemSpec::Column(..) => None,
                }))
            {
                if !cols.contains(&rc) {
                    cols.push(rc);
                }
            }
            if cols.is_empty() {
                // A global COUNT(*) with nothing else referenced still
                // needs one carrier column through the join pipeline: a
                // key of the root join, which every join below it carries
                // anyway.
                cols.push(root_key(&phase1.tree, query)?);
            }
            cols
        } else {
            spec.items
                .iter()
                .filter_map(|i| match i {
                    SelectItemSpec::Column(r, c) => Some((*r, *c)),
                    SelectItemSpec::Aggregate { .. } => None,
                })
                .collect()
        };

        // Whether the aggregate stage can actually run partitioned: it
        // needs an integer grouping column, or it falls back to degree 1 —
        // and must be *costed* at the degree `build_stages` will really
        // emit (identical inputs for every candidate; the degree the
        // candidate's root runs at is not).
        let agg_partitionable = spec.group_by.iter().any(|&(r, c)| {
            matches!(
                query.schema(r).and_then(|s| s.attr(c)),
                Ok(a) if a.ty == DataType::Int
            )
        });
        let model = &self.options.schedule_model;
        let grain = model.process_grain();
        // (makespan tail, busy time) the post-join pipeline adds.
        let stage_extra = |root_degree: usize, root_est: f64| -> (f64, f64) {
            let (mut tail, mut busy) = (0.0, 0.0);
            let mut add = |card: f64, degree: usize, prev: usize| {
                tail += stage_tail_cost(card, degree, prev, model);
                busy += stage_busy(card, degree, prev, model);
            };
            let mut card = root_est;
            let mut prev = root_degree;
            if spec.needs_aggregate() {
                let degree = stage_degree(agg_partitionable, root_degree, card, grain);
                add(card, degree, prev);
                card = estimate_groups(spec, card);
                prev = degree;
            }
            if let Some(k) = spec.limit {
                add(card.min(k as f64), 1, prev);
            }
            (tail, busy)
        };

        // Tree variants: the phase-1 tree and its right-oriented mirror
        // ("possible without cost penalty", §5).
        let mut variants: Vec<(JoinTree, bool)> = vec![(phase1.tree.clone(), false)];
        let oriented = right_orient(&phase1.tree);
        if oriented != phase1.tree {
            variants.push((oriented, true));
        }
        let strategies: Vec<Strategy> = match self.options.strategy {
            Some(s) => vec![s],
            None => Strategy::ALL.to_vec(),
        };

        // (variant index, plan) per candidate, parallel to `all_choices`;
        // the winner is materialized once after the sweep.
        let mut candidates: Vec<(usize, ParallelPlan)> = Vec::new();
        let mut all_choices: Vec<PlanChoice> = Vec::new();
        let mut lowered_variants = Vec::with_capacity(variants.len());

        for (v, (tree, mirrored)) in variants.iter().enumerate() {
            let lowered = lower(tree, planning_query, Some(&root_cols))?;
            let cards = lowered.est_cards().to_vec();
            let root_est = cards[tree.root()] as f64;
            let costs = tree_costs(tree, &cards, &cost_model);
            for &strategy in &strategies {
                let mut input = GeneratorInput::new(tree, &cards, &costs, self.options.processors);
                // The generators only share processors when an allocation
                // pool runs short (which RD/SE segment-local splits can
                // hit even with processors >= join_count); allowed, no
                // strategy is infeasible on any processor count.
                input.allow_oversubscribe = true;
                input.grain = grain;
                let plan = generate(strategy, &input)?;
                let mut estimate = estimate_schedule(&plan, &costs, model);
                // Fold the post-join pipeline into the objective: its work
                // scales with this candidate's root degree (`sink()` — the
                // generator always emits the root op).
                let (tail, busy) = stage_extra(plan.sink().degree(), root_est);
                estimate.makespan += tail;
                estimate.busy += busy;
                let estimate = estimate.bounded_by(self.workers);
                all_choices.push(PlanChoice {
                    strategy,
                    right_oriented: *mirrored,
                    estimate,
                    stats: plan.stats(),
                    oversubscribed: plan.oversubscribed,
                });
                candidates.push((v, plan));
            }
            lowered_variants.push(lowered);
        }

        // First minimal candidate wins ties, matching the stable sort
        // below (so the winner is always `choices[0]`). Every strategy
        // yields a candidate, so there is at least one.
        let winner = (1..all_choices.len()).fold(0, |w, i| {
            if all_choices[i].estimate.makespan < all_choices[w].estimate.makespan {
                i
            } else {
                w
            }
        });
        let (variant, plan) = candidates.swap_remove(winner);
        let estimate = all_choices[winner].estimate.clone();
        let tree = variants[variant].0.clone();
        let lowered = lowered_variants.swap_remove(variant);

        // Assemble the binding: join specs from the lowering, plus scan
        // filters and the post-join pipeline stages.
        let root_degree = plan.sink().degree();
        let root_est = lowered.est_cards()[tree.root()];
        let scan_filters: HashMap<String, Predicate> = (0..query.len())
            .filter_map(|rel| {
                query
                    .combined_filter(rel)
                    .map(|p| (query.graph().names()[rel].clone(), p))
            })
            .collect();
        let stages = build_stages(
            spec,
            &root_cols,
            lowered.schemas()[tree.root()].clone(),
            root_est,
            root_degree,
            grain,
        )?;
        let binding = QueryBinding::from_lowered(&tree, &lowered)?
            .with_scan_filters(scan_filters)
            .with_stages(stages)?;
        all_choices.sort_by(|a, b| {
            // NaN-tolerant: a cost model returning NaN sorts last instead
            // of panicking the planning thread.
            a.estimate
                .makespan
                .partial_cmp(&b.estimate.makespan)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(PlannedQuery {
            details: Arc::new(PlanDetails {
                tree,
                plan: ValidPlan::new(plan)?,
                lowered,
                estimate,
                choices: all_choices,
                schedule_model: *model,
                workers: self.workers,
                connected_subsets: phase1.connected_subsets,
                pairs_costed: phase1.pairs_costed,
            }),
            binding,
        })
    }
}

/// The root join's key column on its left side, as `(relation, column)`.
/// Every join of the left subtree keeps it for the root, and the
/// right-oriented mirror has the same root join, so carrying it adds no
/// column to any join of either tree.
fn root_key(tree: &JoinTree, query: &JoinQuery) -> Result<(usize, usize)> {
    let no_key = || RelalgError::InvalidPlan("the root join has no key to carry".into());
    let (left, _) = tree.children(tree.root()).ok_or_else(no_key)?;
    let mut mask = 0u64;
    tree.postorder_from(left, &mut |id| {
        if let mj_plan::tree::TreeNode::Leaf { relation } = &tree.nodes()[id] {
            mask |= query.relation_index(relation).map_or(0, |i| 1 << i);
        }
    });
    let mut edges = query.graph().edges().iter().zip(query.edge_cols());
    edges
        .find_map(|(&(a, b, _), &(col_a, col_b))| {
            let (a_left, b_left) = (mask >> a & 1 == 1, mask >> b & 1 == 1);
            (a_left != b_left).then_some(if a_left { (a, col_a) } else { (b, col_b) })
        })
        .ok_or_else(no_key)
}

/// Estimated distinct-group count for the aggregate stage.
fn estimate_groups(spec: &SelectSpec, input_est: f64) -> f64 {
    if spec.group_by.is_empty() {
        return 1.0;
    }
    let cap = input_est.max(1.0);
    match spec.group_distinct_hint {
        Some(d) => (d as f64).clamp(1.0, cap),
        // Square-root heuristic when no statistics are available.
        None => cap.sqrt().ceil().clamp(1.0, cap),
    }
}

/// Degree of a post-join stage over `input_card` estimated rows: the root
/// join's when the stage has an integer column to route on, bounded — like
/// every join — by the processes its work pays for; otherwise one.
fn stage_degree(partitionable: bool, root_degree: usize, input_card: f64, grain: f64) -> usize {
    if partitionable {
        root_degree.min(max_useful_degree(input_card, grain))
    } else {
        1
    }
}

/// The `explain` marker of a stage the grain bound narrowed.
fn capped_note(partitionable: bool, root_degree: usize, degree: usize) -> String {
    if partitionable && degree < root_degree {
        format!(" (grain-capped from x{root_degree})")
    } else {
        String::new()
    }
}

/// Builds the post-join pipeline stages for the winning plan.
fn build_stages(
    spec: &SelectSpec,
    root_cols: &[(usize, usize)],
    root_schema: Arc<Schema>,
    root_est: u64,
    root_degree: usize,
    grain: f64,
) -> Result<Vec<PipelineStage>> {
    let pos = |rel: usize, col: usize| -> Result<usize> {
        root_cols
            .iter()
            .position(|&rc| rc == (rel, col))
            .ok_or_else(|| {
                RelalgError::InvalidPlan(format!(
                    "column {rel}.{col} was pruned below the root but a stage needs it"
                ))
            })
    };

    let mut stages: Vec<PipelineStage> = Vec::new();
    let mut in_schema = root_schema;
    let mut in_est = root_est as f64;

    if spec.needs_aggregate() {
        let group: Vec<usize> = spec
            .group_by
            .iter()
            .map(|&(r, c)| pos(r, c))
            .collect::<Result<_>>()?;
        let mut aggs: Vec<AggSpec> = Vec::new();
        for item in &spec.items {
            if let SelectItemSpec::Aggregate { func, input, name } = item {
                let col = match input {
                    Some((r, c)) => pos(*r, *c)?,
                    None => 0,
                };
                aggs.push(AggSpec::new(*func, col, name.clone()));
            }
        }
        // Output layout is [group..., aggs...]; the projection restores
        // the SELECT list's order.
        let mut layout_attrs: Vec<Attribute> = Vec::with_capacity(group.len() + aggs.len());
        for &g in &group {
            layout_attrs.push(in_schema.attr(g)?.clone());
        }
        for a in &aggs {
            layout_attrs.push(Attribute::int(a.name.clone()));
        }
        let layout = Schema::new(layout_attrs);
        let mut proj_cols = Vec::with_capacity(spec.items.len());
        let mut agg_seen = 0usize;
        for item in &spec.items {
            match item {
                SelectItemSpec::Column(r, c) => {
                    let p = pos(*r, *c)?;
                    let gi = group.iter().position(|&g| g == p).expect("validated");
                    proj_cols.push(gi);
                }
                SelectItemSpec::Aggregate { .. } => {
                    proj_cols.push(group.len() + agg_seen);
                    agg_seen += 1;
                }
            }
        }
        let identity =
            proj_cols.len() == layout.arity() && proj_cols.iter().copied().eq(0..proj_cols.len());
        let projection = if identity {
            None
        } else {
            Some(Projection::new(proj_cols))
        };
        let schema = Arc::new(match &projection {
            Some(p) => p.output_schema(&layout)?,
            None => layout,
        });
        // Partition by the first integer grouping column; a global
        // aggregate (or all-string keys) runs at degree 1.
        let partition = group
            .iter()
            .copied()
            .find(|&g| matches!(in_schema.attr(g), Ok(a) if a.ty == DataType::Int));
        let degree = stage_degree(partition.is_some(), root_degree, in_est, grain);
        let capped = capped_note(partition.is_some(), root_degree, degree);
        in_est = estimate_groups(spec, in_est);
        let label = format!(
            "aggregate group={group:?} aggs=[{}]{capped}",
            aggs.iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        stages.push(PipelineStage {
            kind: StageKind::Aggregate {
                group,
                aggs,
                projection,
            },
            degree,
            partition_col: partition.unwrap_or(0),
            schema: schema.clone(),
            est_out: in_est.round().max(1.0) as u64,
            label,
        });
        in_schema = schema;
    }

    if let Some(k) = spec.limit {
        stages.push(PipelineStage {
            kind: StageKind::Limit { k },
            degree: 1,
            partition_col: 0,
            schema: in_schema.clone(),
            est_out: (in_est.round().max(0.0) as u64).min(k),
            label: format!("limit {k}"),
        });
    }

    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::engine::run_plan;
    use crate::families::{chain_query_sql, star_query_sql, QueryFamily};
    use crate::session::{Database, DbConfig};
    use mj_relalg::{Attribute, JoinAlgorithm, Relation, Schema, Tuple};
    use mj_storage::{Catalog, WisconsinGenerator};
    use std::sync::Arc;

    fn wisconsin_chain(k: usize, n: usize) -> (Arc<Catalog>, JoinQuery) {
        let db = Database::open(DbConfig::default()).unwrap();
        for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", k) {
            db.register(name, rel).unwrap();
        }
        // Regular chain on unique1 (a permutation of 0..n).
        let mut text = String::from("SELECT * FROM R0");
        for i in 1..k {
            text.push_str(&format!(" JOIN R{i} ON R{}.unique1 = R{i}.unique1", i - 1));
        }
        let (query, _) = db.bind(&text).unwrap();
        (db.catalog().clone(), query)
    }

    #[test]
    fn planner_produces_an_executable_winning_plan() {
        let (catalog, query) = wisconsin_chain(5, 200);
        let planned = Planner::new(PlannerOptions::new(8)).plan(&query).unwrap();
        assert!(!planned.choices.is_empty());
        assert_eq!(planned.choices[0].strategy, planned.strategy());
        // Choices are sorted and the winner is cheapest.
        for pair in planned.choices.windows(2) {
            assert!(pair[0].estimate.makespan <= pair[1].estimate.makespan);
        }
        // The plan runs on the real engine and matches the lowered oracle.
        let outcome = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.clone(),
            &ExecConfig::default(),
        )
        .unwrap();
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, JoinAlgorithm::Simple)
            .unwrap()
            .eval(catalog.as_ref())
            .unwrap();
        assert_eq!(outcome.relation.len(), 200);
        assert!(outcome.relation.multiset_eq(&oracle));
        // Estimated cardinalities flowed into the metrics.
        assert!(outcome.metrics.ops.iter().all(|o| o.est_out > 0));
        // Perfect key joins: every estimate within 2x of actual.
        assert!(outcome.metrics.max_q_error() < 2.0);
    }

    #[test]
    fn strategy_override_is_respected() {
        let (_, query) = wisconsin_chain(4, 100);
        let mut options = PlannerOptions::new(6);
        options.strategy = Some(Strategy::SE);
        let planned = Planner::new(options).plan(&query).unwrap();
        assert_eq!(planned.strategy(), Strategy::SE);
        assert!(planned.choices.iter().all(|c| c.strategy == Strategy::SE));
    }

    #[test]
    fn every_strategy_plans_on_fewer_processors_than_joins() {
        let (_, query) = wisconsin_chain(6, 100);
        // 2 processors, 5 joins: FP's five concurrent joins share them,
        // and every strategy is still costed.
        let planned = Planner::new(PlannerOptions::new(2)).plan(&query).unwrap();
        for strategy in Strategy::ALL {
            assert!(planned.choices.iter().any(|c| c.strategy == strategy));
        }
        assert!(planned
            .choices
            .iter()
            .any(|c| c.strategy == Strategy::FP && c.oversubscribed));
        assert!(planned.explain().contains("chosen"));
    }

    #[test]
    fn too_few_relations_is_an_error() {
        let q = JoinQuery::new();
        assert!(Planner::new(PlannerOptions::new(4)).plan(&q).is_err());
    }

    #[test]
    fn zero_processors_is_an_error_not_a_panic() {
        let (_, query) = wisconsin_chain(3, 50);
        let err = Planner::new(PlannerOptions::new(0))
            .plan(&query)
            .unwrap_err();
        assert!(err.to_string().contains("at least 1 processor"), "{err}");
    }

    #[test]
    fn too_many_processors_is_an_error_not_an_allocation() {
        let (_, query) = wisconsin_chain(3, 50);
        let max = PlannerOptions::MAX_PROCESSORS;
        assert!(Planner::new(PlannerOptions::new(max)).plan(&query).is_ok());
        let err = Planner::new(PlannerOptions::new(100_000_000))
            .plan(&query)
            .unwrap_err();
        assert!(
            err.to_string().contains("at most 1024, got 100000000"),
            "{err}"
        );
    }

    #[test]
    fn one_per_worker_plans_over_the_pool_it_is_given() {
        let (_, query) = wisconsin_chain(3, 50);
        let per_worker = PlannerOptions::new(PlannerOptions::ONE_PER_WORKER);
        let err = Planner::new(per_worker).plan(&query).unwrap_err();
        assert!(err.to_string().contains("needs a worker count"), "{err}");
        let planned = Planner::new(per_worker)
            .with_workers(3)
            .plan(&query)
            .unwrap();
        assert_eq!((planned.plan.processors, planned.workers), (3, 3));
        // An explicit count is kept whatever the pool.
        let planner = Planner::new(PlannerOptions::new(8)).with_workers(2);
        assert_eq!(planner.options().processors, 8);
    }

    #[test]
    fn output_columns_shape_the_plan_result() {
        let (catalog, query) = wisconsin_chain(3, 100);
        // Keep only unique2 of the first and last relation.
        let output = vec![(0usize, 1usize), (2usize, 1usize)];
        let planned = Planner::new(PlannerOptions::new(4))
            .plan_with_output(&query, Some(&output))
            .unwrap();
        let outcome = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.clone(),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.relation.len(), 100);
        assert_eq!(outcome.relation.schema().arity(), 2);
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, JoinAlgorithm::Simple)
            .unwrap()
            .eval(catalog.as_ref())
            .unwrap();
        assert!(outcome.relation.multiset_eq(&oracle));
    }

    /// A session over the benchmark's chain instance (`SHAPE_SEED` 1995):
    /// two pool workers, and eight logical processors set explicitly, so
    /// the degree rule has room to split an operation past the pool (the
    /// default, one processor per worker, is pinned in
    /// `tests/executor_parity.rs`).
    fn benchmark_chain(k: usize, n: usize) -> crate::session::Database {
        let instance =
            crate::families::generate_family(crate::families::QueryFamily::Chain, k, n, 1995)
                .unwrap();
        let mut config = crate::session::DbConfig::default();
        config.exec.workers = 2;
        config.planner.processors = 8;
        let db = crate::session::Database::open(config).unwrap();
        instance.load(&db).unwrap();
        db
    }

    #[test]
    fn tiny_chain_runs_as_one_process() {
        // `short_prepared`'s query: 13 joins of 50-tuple relations. No join
        // holds a grain of work, so none is split and none pays for a
        // process of its own, whatever the strategy — where the
        // PRISMA-priced planner spread it over 36 processes and the
        // grain-capped one still started 13 over 12 streams.
        let db = benchmark_chain(14, 50);
        let chain = crate::families::chain_query_sql(14);
        for strategy in [None].into_iter().chain(Strategy::ALL.map(Some)) {
            let mut options = *db.planner_options();
            options.strategy = strategy;
            let (query, spec) = db.bind(&format!("{chain} WHERE R1.id < 25")).unwrap();
            let planned = Planner::new(options)
                .with_workers(2)
                .plan_select(&query, &spec)
                .unwrap();
            assert!(planned.plan.ops.iter().all(|op| op.degree() == 1));
            assert!(planned.binding.stages().iter().all(|s| s.degree == 1));
            let stats = planned.plan.stats();
            assert_eq!(stats.operation_processes, 1, "{strategy:?}");
            assert_eq!(stats.tuple_streams, 0, "{strategy:?}");
            assert_eq!(stats.fused_ops, 12, "{strategy:?}");
        }
        // The benchmark's prepared statement, executed: the count gate.
        let stmt = db.prepare(&format!("{chain} WHERE R1.id < ?1")).unwrap();
        for k in [0, 1, 25, 49] {
            let mut handle = db.execute_prepared(&stmt, &[k]).unwrap();
            let result = handle.stream().collect_relation();
            let metrics = handle.outcome().unwrap().metrics;
            assert!(metrics.processes <= 2, "k={k}: {}", metrics.processes);
            assert_eq!(metrics.streams, 0, "k={k}");
            assert_eq!(metrics.fused_ops, 12, "k={k}");
            // One row per join all the same, each reporting for itself.
            assert_eq!(metrics.ops.len(), 13);
            assert!(metrics.ops.iter().all(|op| op.instances == 1));
            assert_eq!(metrics.ops[12].tuples_out, result.len() as u64);
            assert_eq!(metrics.ops[0].tuples_in, [50, k as u64]);
            let oracle = stmt
                .planned()
                .bind_params(&[k])
                .unwrap()
                .oracle_xra(JoinAlgorithm::Simple)
                .unwrap()
                .eval(db.catalog().as_ref())
                .unwrap();
            assert!(result.multiset_eq(&oracle), "k={k}");
        }
    }

    #[test]
    fn heavy_chain_keeps_its_degrees_and_avoids_materializing_strategies() {
        // `join_heavy`'s query: every 40 000-tuple join holds 24+ grains,
        // so with 8 processors the bound changes no allocation; and with
        // re-scans priced and two workers to share, SE and SP lose.
        let db = benchmark_chain(6, 40_000);
        let text = format!(
            "SELECT COUNT(*) {}",
            &crate::families::chain_query_sql(6)["SELECT * ".len()..]
        );
        for strategy in Strategy::ALL {
            let mut options = *db.planner_options();
            options.strategy = Some(strategy);
            let (query, spec) = db.bind(&text).unwrap();
            let planned = Planner::new(options).plan_select(&query, &spec).unwrap();
            assert!(
                planned.plan.ops.iter().all(|op| !op.grain_capped()),
                "{strategy}: {}",
                planned.plan
            );
        }
        let planned = db.plan(&text).unwrap();
        assert!(
            matches!(planned.strategy(), Strategy::RD | Strategy::FP),
            "{}",
            planned.explain()
        );
        assert_eq!(planned.workers, 2);
    }

    #[test]
    fn single_join_keeps_the_simple_hash_join_at_full_degree() {
        // `wide_result`'s query: all four strategies place one join alike;
        // only FP would swap in the (measured slower) pipelining join.
        let db = benchmark_chain(2, 30_000);
        let planned = db.plan(&crate::families::chain_query_sql(2)).unwrap();
        let op = planned.plan.sink();
        assert_eq!(op.algorithm, JoinAlgorithm::Simple);
        assert_eq!((op.degree(), op.grain_capped()), (8, false));
    }

    #[test]
    fn benchmark_shapes_plan_exactly_as_before_dpccp() {
        // `testdata/explain_before_dpccp.txt` is `explain()` for the three
        // benchmark shapes on eight logical processors, captured from the
        // build whose phase 1 was the subset-walking DP. Same tree, same
        // candidates, same operations: all that may differ is the phase-1
        // line that build did not print. (The benchmark itself now plans
        // over one processor per worker; `tests/executor_parity.rs` pins
        // what that runs. This file pins that an explicit count plans
        // exactly as it always did.)
        //
        // Since process fusion the file differs from that capture in the
        // four 14x50 sections, and only there: 13 sub-grain degree-1 joins
        // are one process under every strategy (`fused(opN)` operands,
        // `fused→op12` marks, 1 process and 0 streams per candidate, one
        // startup in every estimate). Nothing in the other two shapes is
        // sub-grain, so their sections are the capture's byte for byte.
        // The summary line `explain()` gained is checked here instead.
        //
        // Since segment groups the 6x40000 section differs too: each of
        // RD's two segments is one group of 8 instances over a range-split
        // probe and shared build sides (one line each), so the RD candidate
        // opens 8 streams instead of 52 and is estimated at 1 547 160
        // instead of 1 807 317. The other candidates are unchanged.
        let mut got = String::new();
        let mut pin = |name: &str, planned: PlannedQuery, summary: &str| {
            let explain = planned.explain();
            let unpinned = |l: &&str| l.starts_with("phase 1: ") || l.starts_with("chosen plan: ");
            assert_eq!(explain.lines().filter(unpinned).count(), 2, "{explain}");
            assert!(explain.contains(summary), "{explain}");
            got.push_str(&format!("== {name} ==\n"));
            for line in explain.lines().filter(|l| !unpinned(l)) {
                got.push_str(line);
                got.push('\n');
            }
        };
        let short = benchmark_chain(14, 50);
        for k in [0, 1, 25, 49] {
            let text = format!("{} WHERE R1.id < {k}", chain_query_sql(14));
            pin(
                &format!("14x50 k={k}"),
                short.plan(&text).unwrap(),
                "chosen plan: 1 operation process, 0 streams, 12 of 13 operations fused",
            );
        }
        let count = format!(
            "SELECT COUNT(*) {}",
            &chain_query_sql(6)["SELECT * ".len()..]
        );
        let heavy = benchmark_chain(6, 40_000).plan(&count).unwrap();
        pin(
            "6x40000 count",
            heavy,
            "chosen plan: 16 operation processes, 8 streams, 3 of 5 operations fused \
             into their consumer's process, 2 segment groups",
        );
        let wide = benchmark_chain(2, 30_000).plan(&chain_query_sql(2));
        pin(
            "2x30000 star",
            wide.unwrap(),
            "chosen plan: 8 operation processes, 0 streams, 0 of 1 operations fused",
        );
        assert_eq!(got, include_str!("../testdata/explain_before_dpccp.txt"));
    }

    #[test]
    fn every_benchmark_plan_meets_at_one_instance_on_any_processor_count() {
        // The ninth rule of `validate_plan` (hash-partitioned on the key at
        // one degree, or a shared build side) holds for every plan the
        // planner emits for the three benchmark shapes — its own pick and
        // each strategy forced — on 1, 2, 4 and 8 processors.
        let count = format!(
            "SELECT COUNT(*) {}",
            &chain_query_sql(6)["SELECT * ".len()..]
        );
        let shapes = [
            (14, 50, format!("{} WHERE R1.id < 25", chain_query_sql(14))),
            (6, 40_000, count),
            (2, 30_000, chain_query_sql(2)),
        ];
        for (k, n, text) in shapes {
            let db = benchmark_chain(k, n);
            let (query, spec) = db.bind(&text).unwrap();
            for processors in [1, 2, 4, 8] {
                for strategy in [None].into_iter().chain(Strategy::ALL.map(Some)) {
                    let mut options = *db.planner_options();
                    options.processors = processors;
                    options.strategy = strategy;
                    let planned = Planner::new(options)
                        .with_workers(2)
                        .plan_select(&query, &spec)
                        .unwrap();
                    mj_core::validate_plan(&planned.plan)
                        .unwrap_or_else(|e| panic!("{k}x{n} on {processors}: {e}"));
                }
            }
        }
    }

    #[test]
    fn a_global_count_carries_a_key_of_the_root_join() {
        // Nothing but the root's key crosses into the root from either side
        // of a chain, so that is all either side outputs: the count's
        // carrier adds no column anywhere.
        let db = benchmark_chain(6, 400);
        let text = format!(
            "SELECT COUNT(*) {}",
            &chain_query_sql(6)["SELECT * ".len()..]
        );
        let planned = db.plan(&text).unwrap();
        let (left, right) = planned.tree.children(planned.tree.root()).unwrap();
        let schemas = planned.lowered.schemas();
        assert_eq!((schemas[left].arity(), schemas[right].arity()), (1, 1));
        let count = db.query(&text).unwrap().collect().unwrap();
        let oracle = planned.oracle_xra(JoinAlgorithm::Simple).unwrap();
        let oracle = oracle.eval(db.catalog().as_ref()).unwrap();
        assert!(count.multiset_eq(&oracle));
    }

    #[test]
    fn explain_reports_what_phase_one_did() {
        let short = benchmark_chain(14, 50);
        let planned = short.plan(&chain_query_sql(14)).unwrap();
        assert_eq!(
            (planned.connected_subsets, planned.pairs_costed),
            (105, 455)
        );
        assert!(planned.explain().contains(
            "phase 1: dpccp, 14 relations, 105 connected subsets, 455 csg-cmp pairs costed\n"
        ));
    }

    #[test]
    fn a_graph_past_the_pair_budget_gets_a_valid_greedy_plan() {
        // A 24-relation star (23 * 2^22 csg-cmp pairs): `optimize_bushy`
        // gives up after the budget and the planner falls back, where a
        // 24-relation chain — 2300 pairs — is planned exactly.
        let instance = crate::families::generate_family(QueryFamily::Star, 24, 20, 7).unwrap();
        let db = Database::open(DbConfig::default()).unwrap();
        instance.load(&db).unwrap();
        let catalog = db.catalog();
        let (query, _) = db.bind(&star_query_sql(24)).unwrap();
        let planned = Planner::new(PlannerOptions::new(8)).plan(&query).unwrap();
        assert_eq!((planned.connected_subsets, planned.pairs_costed), (0, 0));
        assert!(planned
            .explain()
            .contains("phase 1: greedy (pair budget exceeded), 24 relations\n"));
        assert_eq!(planned.tree.leaf_count(), 24);
        assert!(planned.tree.validate().is_ok());
        let outcome = run_plan(
            &planned.plan,
            &planned.binding,
            catalog.clone(),
            &ExecConfig::default(),
        )
        .unwrap();
        let oracle = planned
            .oracle_xra(JoinAlgorithm::Simple)
            .unwrap()
            .eval(catalog.as_ref())
            .unwrap();
        assert!(outcome.relation.multiset_eq(&oracle));

        let (_, chain) = wisconsin_chain(24, 20);
        let exact = Planner::new(PlannerOptions::new(8)).plan(&chain).unwrap();
        assert_eq!((exact.connected_subsets, exact.pairs_costed), (300, 2300));
    }

    #[test]
    fn post_join_stages_are_grain_bounded_like_joins() {
        // Two 30 000-tuple relations grouped into ~30 000 groups: the
        // aggregate's input pays for 4 processes, not the root's 8; a
        // 50-tuple instance of the same query runs it on one.
        let text = "SELECT R0.a, COUNT(*) FROM R0 JOIN R1 ON R0.b = R1.a GROUP BY R0.a";
        let big = benchmark_chain(2, 30_000).plan(text).unwrap();
        let stage = &big.binding.stages()[0];
        let root = big.plan.sink();
        assert_eq!(root.degree(), 8);
        assert_eq!(
            stage.degree,
            max_useful_degree(root.est_out as f64, big.schedule_model.process_grain())
        );
        assert!((2..8).contains(&stage.degree), "{}", big.explain());
        assert!(big.explain().contains("grain-capped from x8"));
        let small = benchmark_chain(2, 50).plan(text).unwrap();
        assert_eq!(small.binding.stages()[0].degree, 1);
    }

    #[test]
    fn explain_names_degrees_workers_and_model() {
        let db = benchmark_chain(3, 50);
        let text = db
            .plan(&crate::families::chain_query_sql(3))
            .unwrap()
            .explain();
        assert!(text.contains("estimated for 2 workers, 8 logical processors"));
        assert!(text.contains("startup/process 6600"), "{text}");
        assert!(text.contains("[x1, grain-capped from x"), "{text}");
    }

    #[test]
    fn catalog_selectivity_uses_column_distincts() {
        let db = Database::open(DbConfig::default()).unwrap();
        let schema = Schema::new(vec![Attribute::int("id"), Attribute::int("k")]).shared();
        for (name, keys) in [("R0", 20), ("R1", 10)] {
            let tuples = (0..100).map(|i| Tuple::from_ints(&[i, i % keys])).collect();
            let relation = Relation::new(schema.clone(), tuples).unwrap();
            db.register(name, Arc::new(relation)).unwrap();
        }
        let (q, _) = db.bind("SELECT * FROM R0 JOIN R1 ON R0.k = R1.k").unwrap();
        // sel = 1 / max(20, 10).
        assert!((q.graph().edges()[0].2 - 0.05).abs() < 1e-12);
    }
}
