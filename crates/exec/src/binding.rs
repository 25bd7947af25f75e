//! Query bindings: the logical join specs, schemas, scan filters, and
//! post-join pipeline stages a plan needs to actually execute.
//!
//! The [`mj_core::plan_ir::ParallelPlan`] is purely structural (which join
//! runs where); the *binding* supplies what the query computes: each
//! join's [`EquiJoin`] spec and node schema, plus the two extensions the
//! operator framework added — predicates pushed down to base-relation
//! scans ([`QueryBinding::scan_filter`]) and the chain of
//! [`PipelineStage`]s (partitioned GROUP BY, LIMIT) the engine appends
//! after the root join.

use std::collections::HashMap;
use std::sync::Arc;

use mj_plan::query::{regular_join_spec, LoweredQuery};
use mj_plan::tree::{JoinTree, NodeId, TreeNode};
use mj_relalg::expr::Expr;
use mj_relalg::ops::AggSpec;
use mj_relalg::{
    columnar_row_bytes, EquiJoin, Predicate, Projection, RelalgError, RelationProvider, Result,
    Schema, Value,
};

use crate::late::{late_shape, LateShape};
use crate::metrics::OpMetricsKind;
use crate::operator::{AggregateOp, LimitOp, PhysicalOp};

/// What a post-join pipeline stage computes.
#[derive(Clone, Debug)]
pub enum StageKind {
    /// Partitioned hash GROUP BY.
    Aggregate {
        /// Grouping columns of the input schema.
        group: Vec<usize>,
        /// Aggregates to compute (input columns of the input schema).
        aggs: Vec<AggSpec>,
        /// Projection over the `[group..., aggs...]` layout into the
        /// SELECT list's order.
        projection: Option<Projection>,
    },
    /// Early-terminating row cap (always degree 1).
    Limit {
        /// Maximum rows.
        k: u64,
    },
}

impl StageKind {
    /// The metrics classification of this stage — the single source the
    /// explain label ([`name`](Self::name)) and the per-op metrics rows
    /// both read, so a new operator kind is added in one place.
    pub fn metrics_kind(&self) -> OpMetricsKind {
        match self {
            StageKind::Aggregate { .. } => OpMetricsKind::Aggregate,
            StageKind::Limit { .. } => OpMetricsKind::Limit,
        }
    }

    /// Short lower-case name (metrics, explain).
    pub fn name(&self) -> &'static str {
        self.metrics_kind().label()
    }

    /// A fresh physical operator computing this stage, for one instance.
    pub(crate) fn operator(&self) -> Box<dyn PhysicalOp> {
        match self {
            StageKind::Aggregate {
                group,
                aggs,
                projection,
            } => Box::new(AggregateOp::new(
                group.clone(),
                aggs.clone(),
                projection.clone(),
            )),
            StageKind::Limit { k } => Box::new(LimitOp::new(*k)),
        }
    }
}

/// `pred` with every [`Expr::Param`] placeholder replaced by the
/// corresponding literal from `args` (1-based: `?1` reads `args[0]`).
/// Errors if a placeholder's index exceeds `args` (the session layer
/// validates arity first, so this is a backstop).
pub(crate) fn bind_predicate(pred: &Predicate, args: &[i64]) -> Result<Predicate> {
    pred.map_exprs(&|e: &Expr| -> Result<Expr> {
        Ok(match e {
            Expr::Param(n) => {
                let v = (*n as usize)
                    .checked_sub(1)
                    .and_then(|i| args.get(i))
                    .ok_or_else(|| {
                        RelalgError::InvalidPlan(format!(
                            "parameter ?{n} out of range for {} argument(s)",
                            args.len()
                        ))
                    })?;
                Expr::Lit(Value::Int(*v))
            }
            other => other.clone(),
        })
    })
}

/// Whether `pred` holds a `?N` placeholder.
pub(crate) fn has_params(pred: &Predicate) -> bool {
    let found = std::cell::Cell::new(false);
    let _ = pred.map_exprs(&|e: &Expr| {
        found.set(found.get() || matches!(e, Expr::Param(_)));
        Ok(e.clone())
    });
    found.get()
}

/// One post-join pipeline stage: the operator, its parallelism, how its
/// input redistribution is routed, and its derived output schema.
#[derive(Clone, Debug)]
pub struct PipelineStage {
    /// What the stage computes.
    pub kind: StageKind,
    /// Instance count. LIMIT and global aggregates run at 1.
    pub degree: usize,
    /// Input column the producer-side routers hash on (ignored for
    /// degree 1).
    pub partition_col: usize,
    /// Output schema of the stage.
    pub schema: Arc<Schema>,
    /// Planner-estimated output cardinality (rides into the metrics).
    pub est_out: u64,
    /// Human-readable description for `explain()`.
    pub label: String,
}

impl PipelineStage {
    /// Planner-estimated output size in bytes under the columnar batch
    /// layout: `est_out` rows times the per-row cost of this stage's
    /// schema ([`columnar_row_bytes`]) — 8 bytes per dense `i64` column,
    /// a boxed [`Value`] slot otherwise. This is the
    /// same accounting [`BatchPool`](crate::stream::BatchPool) charges
    /// against the memory budget at runtime, so explain output and
    /// observed `peak_bytes` are directly comparable.
    pub fn est_bytes(&self) -> u64 {
        self.est_out * columnar_row_bytes(&self.schema) as u64
    }
}

/// Join specs, node schemas, scan filters, and pipeline stages for one
/// query tree.
#[derive(Clone, Debug)]
pub struct QueryBinding {
    /// What no parameter value can change, shared by every copy of the
    /// binding: cloning one, or binding a prepared statement's arguments,
    /// copies a pointer to it.
    joins: Arc<JoinBinding>,
    /// Predicates pushed down to base-relation scans, by relation name.
    scan_filters: Arc<HashMap<String, Predicate>>,
    /// Post-join stages, in dataflow order (the last stage feeds the
    /// client).
    stages: Arc<[PipelineStage]>,
}

/// The parameter-free part of a [`QueryBinding`].
#[derive(Debug)]
struct JoinBinding {
    specs: HashMap<NodeId, EquiJoin>,
    schemas: Vec<Arc<Schema>>,
    /// The late-materialization shape of this binding over its tree, if a
    /// rewrite is possible — derived once here, so executing (and
    /// re-executing a prepared statement) never re-derives it. Depends
    /// only on specs and schemas: filters, stages and bound parameters
    /// leave it valid.
    late: Option<Arc<LateShape>>,
}

impl QueryBinding {
    /// Builds a binding by assigning each join node the spec returned by
    /// `spec_for`, validating keys and projections bottom-up.
    pub fn new(
        tree: &JoinTree,
        provider: &dyn RelationProvider,
        mut spec_for: impl FnMut(NodeId, &Schema, &Schema) -> EquiJoin,
    ) -> Result<Self> {
        let mut specs = HashMap::new();
        let mut schemas: Vec<Option<Arc<Schema>>> = vec![None; tree.nodes().len()];
        for (id, node) in tree.nodes().iter().enumerate() {
            match node {
                TreeNode::Leaf { relation } => {
                    schemas[id] = Some(provider.schema(relation)?);
                }
                TreeNode::Join { left, right } => {
                    let ls = schemas[*left].clone().expect("children before parents");
                    let rs = schemas[*right].clone().expect("children before parents");
                    let spec = spec_for(id, &ls, &rs);
                    spec.validate(&ls, &rs)?;
                    schemas[id] = Some(Arc::new(spec.output_schema(&ls, &rs)?));
                    specs.insert(id, spec);
                }
            }
        }
        QueryBinding::bare(
            specs,
            schemas
                .into_iter()
                .map(|s| s.expect("all filled"))
                .collect(),
        )
        .with_late_shape(tree)
    }

    /// The binding for the paper's regular Wisconsin query: every join on
    /// `unique1`, re-keying projection (§4.1). Requires all relations to
    /// share one arity.
    pub fn regular(tree: &JoinTree, provider: &dyn RelationProvider) -> Result<Self> {
        // Determine the common arity from the first leaf.
        let first = tree
            .leaves_in_order()
            .first()
            .map(|n| n.to_string())
            .ok_or_else(|| RelalgError::InvalidPlan("tree has no leaves".into()))?;
        let arity = provider.schema(&first)?.arity();
        Self::new(tree, provider, |_, _, _| regular_join_spec(arity))
    }

    /// Builds a binding from a [`LoweredQuery`] (the planner's generalized
    /// lowering): specs and schemas are taken as derived — no relation
    /// provider needed, since the lowering already validated every spec
    /// against the query's declared schemas. The provider the plan later
    /// runs against must serve relations with those schemas; mismatches
    /// surface as partitioning/validation errors at execution time.
    pub fn from_lowered(tree: &JoinTree, lowered: &LoweredQuery) -> Result<Self> {
        if lowered.schemas().len() != tree.nodes().len() {
            return Err(RelalgError::InvalidPlan(format!(
                "lowering covers {} nodes, tree has {}",
                lowered.schemas().len(),
                tree.nodes().len()
            )));
        }
        for join in tree.joins_bottom_up() {
            lowered.spec(join)?;
        }
        QueryBinding::bare(lowered.specs().clone(), lowered.schemas().to_vec())
            .with_late_shape(tree)
    }

    fn with_late_shape(mut self, tree: &JoinTree) -> Result<Self> {
        let late = late_shape(tree, &self)?.map(Arc::new);
        Arc::get_mut(&mut self.joins)
            .expect("a binding under construction is not shared yet")
            .late = late;
        Ok(self)
    }

    /// The late-materialization shape derived when this binding was built.
    pub(crate) fn late_shape(&self) -> Option<&Arc<LateShape>> {
        self.joins.late.as_ref()
    }

    /// The join spec of a join node.
    pub fn spec(&self, join: NodeId) -> Result<&EquiJoin> {
        self.joins
            .specs
            .get(&join)
            .ok_or_else(|| RelalgError::InvalidPlan(format!("no spec for join {join}")))
    }

    /// The output schema of any tree node.
    pub fn schema(&self, node: NodeId) -> Result<&Arc<Schema>> {
        let schemas = &self.joins.schemas;
        schemas.get(node).ok_or(RelalgError::IndexOutOfBounds {
            index: node,
            arity: schemas.len(),
        })
    }

    /// Attaches predicates pushed down to base-relation scans: the engine
    /// filters each named relation (zero-copy index gather) before
    /// fragmenting it.
    pub fn with_scan_filters(mut self, filters: HashMap<String, Predicate>) -> Self {
        self.scan_filters = Arc::new(filters);
        self
    }

    /// Appends the post-join pipeline stages, in dataflow order. Each
    /// stage's input schema is the previous stage's output (the root
    /// join's schema for the first); stage degrees must be positive and a
    /// LIMIT stage must run at degree 1.
    pub fn with_stages(mut self, stages: Vec<PipelineStage>) -> Result<Self> {
        for stage in &stages {
            if stage.degree == 0 {
                return Err(RelalgError::InvalidPlan(format!(
                    "{} stage has degree 0",
                    stage.kind.name()
                )));
            }
            if matches!(stage.kind, StageKind::Limit { .. }) && stage.degree != 1 {
                return Err(RelalgError::InvalidPlan(
                    "a LIMIT stage must run at degree 1".into(),
                ));
            }
        }
        self.stages = stages.into();
        Ok(self)
    }

    /// A bare binding over the given join specs and node schemas — what the
    /// late-materialization narrowing wires the join operators from. No
    /// scan filters (the rewrite applies them while narrowing the leaves),
    /// no stages (they run over the *resolved* root output, from the
    /// original binding), and no further rewrite of its own.
    pub(crate) fn bare(specs: HashMap<NodeId, EquiJoin>, schemas: Vec<Arc<Schema>>) -> Self {
        QueryBinding {
            joins: Arc::new(JoinBinding {
                specs,
                schemas,
                late: None,
            }),
            scan_filters: Arc::default(),
            stages: Vec::new().into(),
        }
    }

    /// Rebuilds the binding with every [`Expr::Param`] placeholder in its
    /// predicates replaced by the corresponding literal from `args`
    /// (1-based: `?1` reads `args[0]`). Scan filters are the only places a
    /// lowered plan holds predicates, so this covers the whole plan; join
    /// specs, schemas, the late shape and the stages are shared. Errors if
    /// a placeholder's index exceeds `args` (the session layer validates
    /// arity first, so this is a backstop).
    pub fn bind_params(&self, args: &[i64]) -> Result<Self> {
        let scan_filters = self
            .scan_filters
            .iter()
            .map(|(rel, p)| Ok((rel.clone(), bind_predicate(p, args)?)))
            .collect::<Result<HashMap<_, _>>>()
            .map(Arc::new)?;
        Ok(QueryBinding {
            joins: self.joins.clone(),
            scan_filters,
            stages: self.stages.clone(),
        })
    }

    /// The predicate pushed to the scan of `relation`, if any.
    pub fn scan_filter(&self, relation: &str) -> Option<&Predicate> {
        self.scan_filters.get(relation)
    }

    /// All pushed scan filters by relation name.
    pub fn scan_filters(&self) -> &HashMap<String, Predicate> {
        &self.scan_filters
    }

    /// The post-join pipeline stages, in dataflow order.
    pub fn stages(&self) -> &[PipelineStage] {
        &self.stages
    }

    /// The schema of the query's client-visible result: the last stage's
    /// output, or the root join's schema when no stages are attached.
    pub fn result_schema(&self, root: NodeId) -> Result<&Arc<Schema>> {
        match self.stages.last() {
            Some(stage) => Ok(&stage.schema),
            None => self.schema(root),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_plan::shapes::{build, Shape};
    use mj_relalg::{Attribute, Relation, Tuple};
    use std::collections::HashMap as Map;

    fn provider(k: usize) -> Map<String, Arc<Relation>> {
        let schema = Schema::new(vec![
            Attribute::int("unique1"),
            Attribute::int("unique2"),
            Attribute::int("filler"),
        ])
        .shared();
        let mut m = Map::new();
        for i in 0..k {
            let tuples = (0..10).map(|v| Tuple::from_ints(&[v, v, v])).collect();
            m.insert(
                format!("R{i}"),
                Arc::new(Relation::new_unchecked(schema.clone(), tuples)),
            );
        }
        m
    }

    #[test]
    fn regular_binding_covers_all_joins() {
        let tree = build(Shape::WideBushy, 6).unwrap();
        let p = provider(6);
        let b = QueryBinding::regular(&tree, &p).unwrap();
        for j in tree.joins_bottom_up() {
            assert!(b.spec(j).is_ok());
            assert_eq!(
                b.schema(j).unwrap().arity(),
                3,
                "regular query preserves arity"
            );
        }
        for id in 0..tree.nodes().len() {
            assert!(b.schema(id).is_ok());
        }
    }

    #[test]
    fn missing_relation_errors() {
        let tree = build(Shape::LeftLinear, 4).unwrap();
        let p = provider(2); // R2, R3 missing
        assert!(QueryBinding::regular(&tree, &p).is_err());
    }

    #[test]
    fn invalid_spec_rejected() {
        let tree = build(Shape::LeftLinear, 3).unwrap();
        let p = provider(3);
        let out = QueryBinding::new(&tree, &p, |_, _, _| {
            EquiJoin::new(99, 0, mj_relalg::Projection::new(vec![0]))
        });
        assert!(out.is_err());
    }

    #[test]
    fn unknown_ids_error() {
        let tree = build(Shape::LeftLinear, 3).unwrap();
        let p = provider(3);
        let b = QueryBinding::regular(&tree, &p).unwrap();
        assert!(b.spec(0).is_err(), "leaves have no spec");
        assert!(b.schema(999).is_err());
    }

    #[test]
    fn stage_est_bytes_uses_columnar_row_cost() {
        let schema = Schema::new(vec![
            mj_relalg::Attribute::int("a"),
            mj_relalg::Attribute::int("b"),
        ])
        .shared();
        let stage = PipelineStage {
            kind: StageKind::Limit { k: 10 },
            degree: 1,
            partition_col: 0,
            schema: schema.clone(),
            est_out: 100,
            label: "limit 10".into(),
        };
        assert_eq!(
            stage.est_bytes(),
            100 * columnar_row_bytes(&schema) as u64,
            "sizing follows the columnar layout, not Tuple overhead"
        );
    }
}
