//! Lowering join trees to executable logical plans.
//!
//! Two lowerings live here. [`regular_join_spec`]/[`to_xra`] encode the
//! paper's regular Wisconsin query (§4.1): every join on `unique1`, with
//! the re-keying projection that keeps every intermediate a Wisconsin
//! relation. [`JoinQuery`]/[`lower`] generalize to *arbitrary* equi-join
//! queries: per-relation schemas, per-edge join columns, derived output
//! schemas and column pruning at every level — the front half of the
//! cost-based planner (`mj-exec`'s `planner`), which was previously
//! impossible because only the hard-coded regular spec existed.
//!
//! The regular query joins Wisconsin-shaped relations on their current
//! `unique1` attributes and projects every result back into a
//! Wisconsin-shaped relation: the new `unique1` is the left operand's
//! `unique2`, the new `unique2` is the right operand's `unique2`, and the
//! payload columns come from the left operand. Because `unique1`/`unique2`
//! are independent permutations of `0..N` in every base relation, this
//! invariant holds at every level of any tree shape — which is what makes
//! all shapes cost-equal.

use std::collections::HashMap;
use std::sync::Arc;

use mj_relalg::ops::AggFunc;
use mj_relalg::{
    EquiJoin, JoinAlgorithm, Predicate, Projection, RelalgError, Result, Schema, XraNode,
};

use crate::optimize::QueryGraph;
use crate::tree::{JoinTree, NodeId, TreeNode};

/// The equi-join spec of one regular-query join for operands of `arity`
/// columns. Keys are both column 0 (`unique1`); the projection re-keys the
/// result: `[left.u2, right.u2, left.payload...]`, preserving arity.
pub fn regular_join_spec(arity: usize) -> EquiJoin {
    assert!(
        arity >= 2,
        "Wisconsin-shaped tuples have at least (unique1, unique2)"
    );
    let mut cols = Vec::with_capacity(arity);
    cols.push(1); // new unique1 := left.unique2
    cols.push(arity + 1); // new unique2 := right.unique2
    cols.extend(2..arity); // payload from the left operand
    EquiJoin::new(0, 0, Projection::new(cols))
}

/// Lowers `tree` to a logical XRA plan for the regular query, tagging every
/// join with `algorithm`.
pub fn to_xra(tree: &JoinTree, arity: usize, algorithm: JoinAlgorithm) -> XraNode {
    build_node(tree, tree.root(), arity, algorithm)
}

fn build_node(tree: &JoinTree, id: NodeId, arity: usize, algorithm: JoinAlgorithm) -> XraNode {
    match &tree.nodes()[id] {
        TreeNode::Leaf { relation } => XraNode::scan(relation.clone()),
        TreeNode::Join { left, right } => XraNode::join(
            build_node(tree, *left, arity, algorithm),
            build_node(tree, *right, arity, algorithm),
            regular_join_spec(arity),
            algorithm,
        ),
    }
}

/// A single-relation selection predicate attached to a [`JoinQuery`]:
/// the bound form of one WHERE conjunct, ready for pushdown below the
/// joins. The predicate's attribute indices refer to the relation's own
/// schema.
#[derive(Clone, Debug)]
pub struct RelFilter {
    /// The relation the predicate selects on.
    pub rel: usize,
    /// The predicate over that relation's tuples.
    pub predicate: Predicate,
    /// Estimated fraction of tuples surviving, in `(0, 1]`.
    pub selectivity: f64,
}

/// An arbitrary equi-join query: a [`QueryGraph`] (cardinalities and
/// selectivities for the phase-1 optimizers) enriched with per-relation
/// schemas, per-edge join columns, and per-relation selection filters, so
/// a chosen tree can be lowered to executable join specs instead of the
/// fixed [`regular_join_spec`].
#[derive(Clone, Debug)]
pub struct JoinQuery {
    graph: QueryGraph,
    schemas: Vec<Arc<Schema>>,
    /// Join columns per graph edge, aligned with `graph.edges()` (whose
    /// endpoints are normalized to `a < b`): `(col in a, col in b)`.
    edge_cols: Vec<(usize, usize)>,
    /// Single-relation selection conjuncts (WHERE clauses after binding).
    filters: Vec<RelFilter>,
}

impl JoinQuery {
    /// Creates an empty query.
    pub fn new() -> Self {
        JoinQuery {
            graph: QueryGraph::new(),
            schemas: Vec::new(),
            edge_cols: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Adds a relation with its schema and estimated cardinality,
    /// returning its index. Names must be unique — the lowering maps tree
    /// leaves back to relations by name.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        card: u64,
        schema: Arc<Schema>,
    ) -> Result<usize> {
        let name = name.into();
        if self.graph.names().contains(&name) {
            return Err(RelalgError::InvalidPlan(format!(
                "duplicate relation `{name}` in join query"
            )));
        }
        let idx = self.graph.add_relation(name, card)?;
        self.schemas.push(schema);
        Ok(idx)
    }

    /// Adds an equi-join predicate `a.col_a = b.col_b` with the given
    /// estimated selectivity in `(0, 1]`. Columns are validated against
    /// the relation schemas, including type compatibility.
    pub fn add_join(
        &mut self,
        a: usize,
        b: usize,
        col_a: usize,
        col_b: usize,
        selectivity: f64,
    ) -> Result<()> {
        if a >= self.len() || b >= self.len() {
            return Err(RelalgError::InvalidPlan(format!("bad edge ({a}, {b})")));
        }
        let ta = self.schemas[a].attr(col_a)?.ty;
        let tb = self.schemas[b].attr(col_b)?.ty;
        if ta != tb {
            return Err(RelalgError::InvalidPlan(format!(
                "join column types differ: {}.{col_a} is {ta}, {}.{col_b} is {tb}",
                self.graph.names()[a],
                self.graph.names()[b]
            )));
        }
        self.graph.add_edge(a, b, selectivity)?;
        // `add_edge` normalizes endpoints to (min, max); mirror that here.
        self.edge_cols.push(if a < b {
            (col_a, col_b)
        } else {
            (col_b, col_a)
        });
        Ok(())
    }

    /// The underlying query graph (for the phase-1 optimizers).
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True if the query has no relations.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Schema of relation `i`.
    pub fn schema(&self, i: usize) -> Result<&Arc<Schema>> {
        self.schemas.get(i).ok_or(RelalgError::IndexOutOfBounds {
            index: i,
            arity: self.schemas.len(),
        })
    }

    /// Join columns per edge, aligned with `graph().edges()`.
    pub fn edge_cols(&self) -> &[(usize, usize)] {
        &self.edge_cols
    }

    /// Index of the relation named `name`.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.graph.names().iter().position(|n| n == name)
    }

    /// Every column of every relation in `(relation, column)` order — the
    /// default output of [`lower`]. Using a tree-independent order means
    /// every join tree of the same query produces an identical result
    /// schema, so plans are directly comparable.
    pub fn all_columns(&self) -> Vec<(usize, usize)> {
        let mut cols = Vec::new();
        for (r, schema) in self.schemas.iter().enumerate() {
            for c in 0..schema.arity() {
                cols.push((r, c));
            }
        }
        cols
    }

    /// Attaches a selection conjunct to relation `rel` with the given
    /// estimated `selectivity` in `(0, 1]`. The predicate's attribute
    /// indices are validated against the relation's schema; several
    /// conjuncts on one relation compose as a conjunction.
    pub fn add_filter(&mut self, rel: usize, predicate: Predicate, selectivity: f64) -> Result<()> {
        let schema = self.schema(rel)?.clone();
        validate_predicate_attrs(&predicate, &schema)?;
        if !(selectivity > 0.0 && selectivity <= 1.0) {
            return Err(RelalgError::InvalidPlan(format!(
                "filter selectivity {selectivity} outside (0, 1]"
            )));
        }
        self.filters.push(RelFilter {
            rel,
            predicate,
            selectivity,
        });
        Ok(())
    }

    /// All attached filters, in insertion order.
    pub fn filters(&self) -> &[RelFilter] {
        &self.filters
    }

    /// The conjunction of every filter on relation `rel`, or `None` if the
    /// relation is unfiltered.
    pub fn combined_filter(&self, rel: usize) -> Option<Predicate> {
        let mut out: Option<Predicate> = None;
        for f in self.filters.iter().filter(|f| f.rel == rel) {
            out = Some(match out {
                None => f.predicate.clone(),
                Some(p) => Predicate::And(Box::new(p), Box::new(f.predicate.clone())),
            });
        }
        out
    }

    /// The combined estimated selectivity of every filter on relation
    /// `rel` (1.0 when unfiltered) — independence assumed, System-R style.
    pub fn filter_selectivity(&self, rel: usize) -> f64 {
        self.filters
            .iter()
            .filter(|f| f.rel == rel)
            .map(|f| f.selectivity)
            .product()
    }

    /// A copy of this query whose graph cardinalities have the attached
    /// filter selectivities folded in — what the planner optimizes and
    /// costs when it pushes the filters below the joins: every phase-1
    /// tree choice, System-R intermediate estimate, and schedule cost then
    /// sees the post-selection sizes.
    pub fn with_filtered_cards(&self) -> JoinQuery {
        let mut out = self.clone();
        for rel in 0..out.len() {
            let sel = out.filter_selectivity(rel);
            if sel < 1.0 {
                let card = (out.graph.cards()[rel] as f64 * sel).round() as u64;
                out.graph
                    .set_card(rel, card.max(1))
                    .expect("relation index in range");
            }
        }
        out
    }
}

/// Validates that every attribute reference of `predicate` is inside
/// `schema`.
fn validate_predicate_attrs(predicate: &Predicate, schema: &Schema) -> Result<()> {
    let mut out_of_range: Option<usize> = None;
    predicate.for_each_attr(&mut |i| {
        if i >= schema.arity() && out_of_range.is_none() {
            out_of_range = Some(i);
        }
    });
    match out_of_range {
        Some(i) => schema.attr(i).map(|_| ()),
        None => Ok(()),
    }
}

/// One output item of a [`SelectSpec`]: a plain column or an aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectItemSpec {
    /// `(relation, column)` of the query.
    Column(usize, usize),
    /// An aggregate over the (joined, filtered) rows.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Input `(relation, column)`; `None` is `COUNT(*)`.
        input: Option<(usize, usize)>,
        /// Output attribute name.
        name: String,
    },
}

/// The bound SELECT clause of a query beyond its joins: the ordered output
/// items, grouping columns, and row limit. [`SelectSpec::validate`] checks
/// it against a [`JoinQuery`]; the planner turns it into post-join
/// pipeline stages (filter residue, partitioned aggregation, limit).
#[derive(Clone, Debug, Default)]
pub struct SelectSpec {
    /// Ordered output items.
    pub items: Vec<SelectItemSpec>,
    /// GROUP BY columns as `(relation, column)` pairs (empty = no
    /// grouping; with aggregates present that means one global group).
    pub group_by: Vec<(usize, usize)>,
    /// `LIMIT n`, if any.
    pub limit: Option<u64>,
    /// Estimated number of distinct groups (from catalog statistics), used
    /// to size the aggregate stage estimate. `None` falls back to a
    /// heuristic.
    pub group_distinct_hint: Option<u64>,
}

impl SelectSpec {
    /// A plain column projection (no aggregates, grouping, or limit).
    pub fn columns(cols: Vec<(usize, usize)>) -> Self {
        SelectSpec {
            items: cols
                .into_iter()
                .map(|(r, c)| SelectItemSpec::Column(r, c))
                .collect(),
            ..SelectSpec::default()
        }
    }

    /// True if any item is an aggregate call.
    pub fn has_aggregates(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, SelectItemSpec::Aggregate { .. }))
    }

    /// True if the query needs an aggregation stage (aggregates or
    /// grouped-distinct output).
    pub fn needs_aggregate(&self) -> bool {
        self.has_aggregates() || !self.group_by.is_empty()
    }

    /// Validates items, grouping, and aggregate inputs against `query`:
    /// every referenced column must exist, SUM/MIN/MAX inputs must be
    /// integers, and with grouping (or aggregates) present every plain
    /// column item must be one of the GROUP BY columns.
    pub fn validate(&self, query: &JoinQuery) -> Result<()> {
        if self.items.is_empty() {
            return Err(RelalgError::InvalidPlan("empty select list".into()));
        }
        for &(r, c) in &self.group_by {
            query.schema(r)?.attr(c)?;
        }
        for item in &self.items {
            match item {
                SelectItemSpec::Column(r, c) => {
                    query.schema(*r)?.attr(*c)?;
                    if self.needs_aggregate() && !self.group_by.contains(&(*r, *c)) {
                        return Err(RelalgError::InvalidPlan(format!(
                            "column {}.{c} must appear in GROUP BY to be selected \
                             alongside aggregates",
                            query.graph().names()[*r]
                        )));
                    }
                }
                SelectItemSpec::Aggregate { func, input, .. } => {
                    if let Some((r, c)) = input {
                        let attr = query.schema(*r)?.attr(*c)?;
                        if *func != AggFunc::Count && attr.ty != mj_relalg::DataType::Int {
                            return Err(RelalgError::InvalidPlan(format!(
                                "{func:?} needs an integer column, {}.{} is {}",
                                query.graph().names()[*r],
                                attr.name,
                                attr.ty
                            )));
                        }
                    } else if *func != AggFunc::Count {
                        return Err(RelalgError::InvalidPlan(
                            "only COUNT may omit its input column".into(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rewrites an XRA plan so every `Scan` of a relation in `filters` runs
/// beneath a `Select` with that predicate — how the sequential oracle
/// mirrors the engine's filter pushdown to scans.
pub fn inject_scan_filters(node: XraNode, filters: &HashMap<String, Predicate>) -> XraNode {
    match node {
        XraNode::Scan { relation } => match filters.get(&relation) {
            Some(p) => XraNode::Select {
                input: Box::new(XraNode::Scan { relation }),
                predicate: p.clone(),
            },
            None => XraNode::Scan { relation },
        },
        XraNode::Select { input, predicate } => XraNode::Select {
            input: Box::new(inject_scan_filters(*input, filters)),
            predicate,
        },
        XraNode::Project { input, projection } => XraNode::Project {
            input: Box::new(inject_scan_filters(*input, filters)),
            projection,
        },
        XraNode::HashJoin {
            left,
            right,
            join,
            algorithm,
        } => XraNode::HashJoin {
            left: Box::new(inject_scan_filters(*left, filters)),
            right: Box::new(inject_scan_filters(*right, filters)),
            join,
            algorithm,
        },
        XraNode::Aggregate { input, group, aggs } => XraNode::Aggregate {
            input: Box::new(inject_scan_filters(*input, filters)),
            group,
            aggs,
        },
    }
}

impl Default for JoinQuery {
    fn default() -> Self {
        Self::new()
    }
}

/// A join tree lowered against a [`JoinQuery`]: per-join [`EquiJoin`]
/// specs, derived per-node schemas, and per-node cardinality estimates.
/// This is what a `QueryBinding` and the plan generator consume.
#[derive(Clone, Debug)]
pub struct LoweredQuery {
    specs: HashMap<NodeId, EquiJoin>,
    schemas: Vec<Arc<Schema>>,
    /// Relation bitmask covered by each node.
    masks: Vec<u32>,
    /// Estimated cardinality per node (graph selectivity model).
    est_cards: Vec<u64>,
}

impl LoweredQuery {
    /// The join spec of a join node.
    pub fn spec(&self, join: NodeId) -> Result<&EquiJoin> {
        self.specs
            .get(&join)
            .ok_or_else(|| RelalgError::InvalidPlan(format!("no spec for join {join}")))
    }

    /// All join specs by node id.
    pub fn specs(&self) -> &HashMap<NodeId, EquiJoin> {
        &self.specs
    }

    /// The output schema of each tree node, indexed by [`NodeId`].
    pub fn schemas(&self) -> &[Arc<Schema>] {
        &self.schemas
    }

    /// Relation bitmask covered by each node.
    pub fn masks(&self) -> &[u32] {
        &self.masks
    }

    /// Estimated cardinality per tree node, indexed by [`NodeId`].
    pub fn est_cards(&self) -> &[u64] {
        &self.est_cards
    }

    /// Lowers the tree to a logical XRA plan (the sequential oracle for
    /// the parallel backends), tagging every join with `algorithm`.
    pub fn to_xra(&self, tree: &JoinTree, algorithm: JoinAlgorithm) -> Result<XraNode> {
        self.xra_node(tree, tree.root(), algorithm)
    }

    fn xra_node(&self, tree: &JoinTree, id: NodeId, algorithm: JoinAlgorithm) -> Result<XraNode> {
        match tree.node(id)? {
            TreeNode::Leaf { relation } => Ok(XraNode::scan(relation.clone())),
            TreeNode::Join { left, right } => Ok(XraNode::join(
                self.xra_node(tree, *left, algorithm)?,
                self.xra_node(tree, *right, algorithm)?,
                self.spec(id)?.clone(),
                algorithm,
            )),
        }
    }
}

/// Lowers `tree` against `query`, deriving an [`EquiJoin`] spec and output
/// schema for every node. `output` lists the `(relation, column)` pairs the
/// final result must contain, in order; `None` keeps every column of every
/// relation in tree-independent `(relation, column)` order.
///
/// Intermediate projections prune every column that no ancestor join or
/// output column needs. Joins whose subtrees are linked by more than one
/// graph edge (cyclic queries) are rejected — the streaming operators apply
/// exactly one key equality and no residual predicate.
pub fn lower(
    tree: &JoinTree,
    query: &JoinQuery,
    output: Option<&[(usize, usize)]>,
) -> Result<LoweredQuery> {
    tree.validate()?;
    if tree.join_count() == 0 {
        // A single-leaf tree has no join to hang the output projection on,
        // so the requested output could not be honored — reject instead of
        // silently returning the full relation schema.
        return Err(RelalgError::InvalidPlan(
            "tree has no joins to lower".into(),
        ));
    }
    let default_out;
    let out_cols: &[(usize, usize)] = match output {
        Some(cols) => cols,
        None => {
            default_out = query.all_columns();
            &default_out
        }
    };
    for &(r, c) in out_cols {
        query.schema(r)?.attr(c)?;
    }

    let n_nodes = tree.nodes().len();
    let mut masks = vec![0u32; n_nodes];
    let mut est_cards = vec![0u64; n_nodes];
    let mut schemas: Vec<Option<Arc<Schema>>> = vec![None; n_nodes];
    // Provenance of each node's output columns: (relation, column) pairs.
    let mut provenance: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_nodes];
    let mut specs = HashMap::new();
    let mut seen_relations = 0u32;

    // A column survives a node's projection if some edge crossing out of
    // the node's mask (a join an ancestor will perform) or the final
    // output references it.
    let needed_above = |mask: u32, rel: usize, col: usize| -> bool {
        if out_cols.contains(&(rel, col)) {
            return true;
        }
        query
            .graph()
            .edges()
            .iter()
            .zip(query.edge_cols())
            .any(|(&(a, b, _), &(ca, cb))| {
                let a_in = mask & (1 << a) != 0;
                let b_in = mask & (1 << b) != 0;
                a_in != b_in && ((a_in && a == rel && ca == col) || (b_in && b == rel && cb == col))
            })
    };

    // Node ids are a bottom-up order (children before parents).
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { relation } => {
                let rel = query.relation_index(relation).ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("tree leaf `{relation}` is not in the query"))
                })?;
                if seen_relations & (1 << rel) != 0 {
                    return Err(RelalgError::InvalidPlan(format!(
                        "relation `{relation}` appears twice in the tree"
                    )));
                }
                seen_relations |= 1 << rel;
                masks[id] = 1 << rel;
                est_cards[id] = query.graph().cards()[rel];
                schemas[id] = Some(query.schema(rel)?.clone());
                provenance[id] = (0..query.schema(rel)?.arity()).map(|c| (rel, c)).collect();
            }
            TreeNode::Join { left, right } => {
                let (l, r) = (*left, *right);
                let mask = masks[l] | masks[r];
                masks[id] = mask;
                est_cards[id] = query.graph().subset_card(mask).round() as u64;

                // The single edge this join consumes.
                let crossing: Vec<usize> = query
                    .graph()
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(_, &(a, b, _))| {
                        let a_side = masks[l] & (1 << a) != 0;
                        let b_side = masks[l] & (1 << b) != 0;
                        (masks[id] & (1 << a) != 0 && masks[id] & (1 << b) != 0) && a_side != b_side
                    })
                    .map(|(i, _)| i)
                    .collect();
                match crossing.len() {
                    0 => {
                        return Err(RelalgError::InvalidPlan(format!(
                            "join node {id} has no connecting predicate (cartesian product)"
                        )))
                    }
                    1 => {}
                    n => {
                        return Err(RelalgError::InvalidPlan(format!(
                            "join node {id} is linked by {n} predicates; cyclic queries are \
                             not lowerable (one key equality per join)"
                        )))
                    }
                }
                let e = crossing[0];
                let (a, b, _) = query.graph().edges()[e];
                let (ca, cb) = query.edge_cols()[e];
                // Orient the edge: which endpoint lives in the left subtree.
                let ((lrel, lcol), (rrel, rcol)) = if masks[l] & (1 << a) != 0 {
                    ((a, ca), (b, cb))
                } else {
                    ((b, cb), (a, ca))
                };
                let left_key = position_of(&provenance[l], lrel, lcol, id)?;
                let right_key = position_of(&provenance[r], rrel, rcol, id)?;

                // Projection over concat(left, right): keep what ancestors
                // or the output need; the root projects to output order.
                let concat: Vec<(usize, usize)> = provenance[l]
                    .iter()
                    .chain(provenance[r].iter())
                    .copied()
                    .collect();
                let (cols, prov): (Vec<usize>, Vec<(usize, usize)>) = if id == tree.root() {
                    let mut cols = Vec::with_capacity(out_cols.len());
                    for &(rel, col) in out_cols {
                        cols.push(position_of(&concat, rel, col, id)?);
                    }
                    (cols, out_cols.to_vec())
                } else {
                    concat
                        .iter()
                        .enumerate()
                        .filter(|(_, &(rel, col))| needed_above(mask, rel, col))
                        .map(|(i, &rc)| (i, rc))
                        .unzip()
                };
                let spec = EquiJoin::new(left_key, right_key, Projection::new(cols));
                let ls = schemas[l].as_ref().expect("children before parents");
                let rs = schemas[r].as_ref().expect("children before parents");
                spec.validate(ls, rs)?;
                schemas[id] = Some(Arc::new(spec.output_schema(ls, rs)?));
                provenance[id] = prov;
                specs.insert(id, spec);
            }
        }
    }

    if (seen_relations.count_ones() as usize) < query.len() {
        return Err(RelalgError::InvalidPlan(format!(
            "tree covers {} of {} query relations",
            seen_relations.count_ones(),
            query.len()
        )));
    }

    Ok(LoweredQuery {
        specs,
        schemas: schemas
            .into_iter()
            .map(|s| s.expect("all filled"))
            .collect(),
        masks,
        est_cards,
    })
}

fn position_of(prov: &[(usize, usize)], rel: usize, col: usize, node: NodeId) -> Result<usize> {
    prov.iter().position(|&rc| rc == (rel, col)).ok_or_else(|| {
        RelalgError::InvalidPlan(format!(
            "column {col} of relation {rel} was pruned below join {node} but is needed there"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{build, Shape};
    use mj_relalg::Relation;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Tiny deterministic "Wisconsin" relations: u1/u2 are permutations of
    /// 0..n generated by coprime strides.
    fn provider(k: usize, n: i64) -> HashMap<String, Arc<Relation>> {
        let schema = Arc::new(mj_relalg::Schema::new(vec![
            mj_relalg::Attribute::int("unique1"),
            mj_relalg::Attribute::int("unique2"),
            mj_relalg::Attribute::int("filler"),
        ]));
        let mut m = HashMap::new();
        // Strides coprime with n=10: 3, 7, 9, 11...
        let strides = [3i64, 7, 9, 11, 13, 17, 19, 21, 23, 27];
        for r in 0..k {
            let s1 = strides[r % strides.len()];
            let s2 = strides[(r + 3) % strides.len()];
            let tuples = (0..n)
                .map(|i| mj_relalg::Tuple::from_ints(&[(i * s1) % n, (i * s2) % n, i]))
                .collect();
            m.insert(
                format!("R{r}"),
                Arc::new(Relation::new_unchecked(schema.clone(), tuples)),
            );
        }
        m
    }

    #[test]
    fn regular_spec_preserves_arity() {
        for arity in [2usize, 3, 16] {
            let spec = regular_join_spec(arity);
            assert_eq!(spec.projection.arity(), arity);
            assert_eq!(spec.left_key, 0);
            assert_eq!(spec.right_key, 0);
        }
    }

    #[test]
    fn every_shape_evaluates_to_n_tuples() {
        let n = 10i64;
        let p = provider(5, n);
        for shape in Shape::ALL {
            let tree = build(shape, 5).unwrap();
            let plan = to_xra(&tree, 3, JoinAlgorithm::Simple);
            let out = plan.eval(&p).unwrap();
            assert_eq!(out.len(), n as usize, "{shape}");
            assert_eq!(out.schema().arity(), 3, "{shape}");
            // Result keys are again a permutation of 0..n.
            let mut keys: Vec<i64> = out.iter().map(|t| t.int(0).unwrap()).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..n).collect::<Vec<_>>(), "{shape}");
        }
    }

    #[test]
    fn join_count_matches_tree() {
        let tree = build(Shape::WideBushy, 10).unwrap();
        let plan = to_xra(&tree, 3, JoinAlgorithm::Pipelining);
        assert_eq!(plan.join_count(), 9);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn arity_below_two_panics() {
        regular_join_spec(1);
    }

    // --- JoinQuery / generalized lowering ---

    fn int_schema(names: &[&str]) -> Arc<mj_relalg::Schema> {
        Arc::new(mj_relalg::Schema::new(
            names
                .iter()
                .map(|n| mj_relalg::Attribute::int(*n))
                .collect(),
        ))
    }

    /// Chain R0 -(b=a)- R1 -(b=a)- R2, each with columns (a, b, id).
    fn chain_query(k: usize, n: u64) -> JoinQuery {
        let mut q = JoinQuery::new();
        for i in 0..k {
            q.add_relation(format!("R{i}"), n, int_schema(&["a", "b", "id"]))
                .unwrap();
        }
        for i in 0..k - 1 {
            q.add_join(i, i + 1, 1, 0, 1.0 / n as f64).unwrap();
        }
        q
    }

    #[test]
    fn join_query_validates_relations_and_columns() {
        let mut q = JoinQuery::new();
        let a = q.add_relation("A", 10, int_schema(&["x"])).unwrap();
        assert!(q.add_relation("A", 10, int_schema(&["x"])).is_err());
        let b = q
            .add_relation(
                "B",
                10,
                Arc::new(mj_relalg::Schema::new(vec![
                    mj_relalg::Attribute::int("k"),
                    mj_relalg::Attribute::str("s"),
                ])),
            )
            .unwrap();
        assert!(q.add_join(a, b, 5, 0, 0.5).is_err(), "bad column index");
        assert!(q.add_join(a, b, 0, 1, 0.5).is_err(), "int vs str");
        assert!(q.add_join(a, b, 0, 0, 0.0).is_err(), "bad selectivity");
        q.add_join(a, b, 0, 0, 0.1).unwrap();
        assert_eq!(q.edge_cols(), &[(0, 0)]);
        assert_eq!(q.relation_index("B"), Some(b));
        assert_eq!(q.relation_index("C"), None);
    }

    #[test]
    fn edge_cols_follow_endpoint_normalization() {
        // add_join(2, 0, ...) must store cols in (min, max) endpoint order.
        let mut q = JoinQuery::new();
        for i in 0..3 {
            q.add_relation(format!("R{i}"), 10, int_schema(&["a", "b"]))
                .unwrap();
        }
        q.add_join(2, 0, 1, 0, 0.5).unwrap();
        assert_eq!(q.graph().edges()[0].0, 0);
        assert_eq!(q.graph().edges()[0].1, 2);
        assert_eq!(q.edge_cols()[0], (0, 1), "cols swapped with endpoints");
    }

    #[test]
    fn lowering_derives_specs_and_prunes_columns() {
        let q = chain_query(3, 100);
        let tree = build(Shape::RightLinear, 3).unwrap();
        // Output: just the id column of each relation.
        let out = vec![(0, 2), (1, 2), (2, 2)];
        let lowered = lower(&tree, &q, Some(&out)).unwrap();
        let root = tree.root();
        assert_eq!(lowered.schemas()[root].arity(), 3);
        // The bottom join (R1 x R2) keeps R1.a (needed by the root join
        // against R0.b) and both ids, pruning the rest.
        let (_, bottom) = tree.children(root).unwrap();
        let bs = &lowered.schemas()[bottom];
        assert_eq!(bs.arity(), 3, "{bs}");
        // Root spec joins R0.b against the surviving R1.a position.
        let spec = lowered.spec(root).unwrap();
        assert_eq!(spec.left_key, 1);
        // Estimated cards: perfect chain keeps every level at n.
        assert_eq!(lowered.est_cards()[root], 100);
        assert_eq!(lowered.est_cards()[bottom], 100);
    }

    #[test]
    fn lowered_chain_evaluates_like_hand_built_oracle() {
        // Data where join values are permutations: R{i}.b = R{i+1}.a
        // matches exactly once per tuple.
        let n = 12i64;
        let q = chain_query(3, n as u64);
        let mut provider: HashMap<String, Arc<Relation>> = HashMap::new();
        for r in 0..3i64 {
            let schema = int_schema(&["a", "b", "id"]);
            let tuples = (0..n)
                .map(|i| mj_relalg::Tuple::from_ints(&[(i * 5 + r) % n, (i * 7 + r + 1) % n, i]))
                .collect();
            provider.insert(
                format!("R{r}"),
                Arc::new(Relation::new_unchecked(schema, tuples)),
            );
        }
        let mut results = Vec::new();
        for shape in [Shape::LeftLinear, Shape::RightLinear] {
            let tree = build(shape, 3).unwrap();
            let lowered = lower(&tree, &q, None).unwrap();
            let xra = lowered.to_xra(&tree, JoinAlgorithm::Simple).unwrap();
            let out = xra.eval(&provider).unwrap();
            assert_eq!(out.schema().arity(), 9, "all columns kept by default");
            let mut tuples: Vec<_> = out.iter().cloned().collect();
            tuples.sort_unstable();
            results.push(tuples);
        }
        // Tree-independent output order makes shapes directly comparable.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].len(), n as usize);
    }

    #[test]
    fn lowering_rejects_cartesian_and_cyclic_joins() {
        // Star query: fact joined to two dims. A bushy tree pairing the
        // two dims has no connecting predicate.
        let mut q = JoinQuery::new();
        let f = q
            .add_relation("R0", 100, int_schema(&["d0", "d1"]))
            .unwrap();
        let d0 = q.add_relation("R1", 10, int_schema(&["k"])).unwrap();
        let d1 = q.add_relation("R2", 10, int_schema(&["k"])).unwrap();
        q.add_join(f, d0, 0, 0, 0.1).unwrap();
        q.add_join(f, d1, 1, 0, 0.1).unwrap();
        let bushy = build(Shape::WideBushy, 3).unwrap();
        // WideBushy(3) pairs two relations then joins the third; depending
        // on leaf order this may or may not hit the dim-dim pair, so
        // check the explicit bad tree instead.
        let _ = bushy;
        let mut b = JoinTree::builder();
        let l0 = b.leaf("R1");
        let l1 = b.leaf("R2");
        let j = b.join(l0, l1);
        let l2 = b.leaf("R0");
        let root = b.join(j, l2);
        let bad = b.build(root).unwrap();
        let err = lower(&bad, &q, None).unwrap_err();
        assert!(err.to_string().contains("cartesian"), "{err}");

        // A cycle makes some join consume two predicates.
        let mut cyc = chain_query(3, 10);
        cyc.add_join(0, 2, 0, 1, 0.5).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let err = lower(&tree, &cyc, None).unwrap_err();
        assert!(err.to_string().contains("predicates"), "{err}");
    }

    #[test]
    fn lowering_rejects_incomplete_or_foreign_trees() {
        let q = chain_query(4, 10);
        let tree3 = build(Shape::RightLinear, 3).unwrap();
        assert!(lower(&tree3, &q, None).is_err(), "covers 3 of 4");
        let mut b = JoinTree::builder();
        let x = b.leaf("X0");
        let r = b.leaf("R1");
        let root = b.join(x, r);
        let foreign = b.build(root).unwrap();
        assert!(lower(&foreign, &q, None).is_err(), "unknown leaf");
        let q3 = chain_query(3, 10);
        assert!(
            lower(&tree3, &q3, Some(&[(0, 99)])).is_err(),
            "bad output column"
        );
    }

    // --- Filters and SelectSpec ---

    use mj_relalg::CmpOp;

    #[test]
    fn filters_validate_and_fold_into_cards() {
        let mut q = chain_query(3, 100);
        // Bad attr index, bad selectivity.
        assert!(q
            .add_filter(0, Predicate::cmp_int(9, CmpOp::Lt, 5), 0.5)
            .is_err());
        assert!(q
            .add_filter(0, Predicate::cmp_int(0, CmpOp::Lt, 5), 0.0)
            .is_err());
        assert!(q.add_filter(3, Predicate::True, 0.5).is_err(), "bad rel");
        q.add_filter(1, Predicate::cmp_int(0, CmpOp::Lt, 5), 0.25)
            .unwrap();
        q.add_filter(1, Predicate::cmp_int(2, CmpOp::Ge, 0), 0.5)
            .unwrap();
        assert_eq!(q.filters().len(), 2);
        assert!((q.filter_selectivity(1) - 0.125).abs() < 1e-12);
        assert!((q.filter_selectivity(0) - 1.0).abs() < 1e-12);
        assert!(q.combined_filter(0).is_none());
        let both = q.combined_filter(1).unwrap();
        assert!(matches!(both, Predicate::And(_, _)));
        // Folded cards: R1 shrinks to 100 * 0.125 = 13 (rounded), floor 1.
        let folded = q.with_filtered_cards();
        assert_eq!(folded.graph().cards(), &[100, 13, 100]);
        // The original is untouched.
        assert_eq!(q.graph().cards(), &[100, 100, 100]);
    }

    #[test]
    fn filtered_cards_never_reach_zero() {
        let mut q = chain_query(2, 10);
        q.add_filter(0, Predicate::cmp_int(0, CmpOp::Eq, 1), 0.001)
            .unwrap();
        assert_eq!(q.with_filtered_cards().graph().cards()[0], 1);
    }

    #[test]
    fn select_spec_validates_grouping_rules() {
        let q = chain_query(3, 50);
        // Plain columns, no grouping: fine.
        SelectSpec::columns(vec![(0, 0), (2, 2)])
            .validate(&q)
            .unwrap();
        // Unknown column.
        assert!(SelectSpec::columns(vec![(0, 9)]).validate(&q).is_err());
        // Aggregate + plain column not in GROUP BY: rejected.
        let mut spec = SelectSpec {
            items: vec![
                SelectItemSpec::Column(0, 0),
                SelectItemSpec::Aggregate {
                    func: AggFunc::Count,
                    input: None,
                    name: "n".into(),
                },
            ],
            ..SelectSpec::default()
        };
        assert!(spec.validate(&q).is_err());
        // With the column in GROUP BY: accepted.
        spec.group_by = vec![(0, 0)];
        spec.validate(&q).unwrap();
        assert!(spec.has_aggregates());
        assert!(spec.needs_aggregate());
        // SUM over a string column: rejected.
        let mut q2 = JoinQuery::new();
        q2.add_relation(
            "S",
            10,
            Arc::new(mj_relalg::Schema::new(vec![
                mj_relalg::Attribute::int("k"),
                mj_relalg::Attribute::str("s"),
            ])),
        )
        .unwrap();
        q2.add_relation("T", 10, int_schema(&["k"])).unwrap();
        q2.add_join(0, 1, 0, 0, 0.1).unwrap();
        let bad = SelectSpec {
            items: vec![SelectItemSpec::Aggregate {
                func: AggFunc::Sum,
                input: Some((0, 1)),
                name: "s".into(),
            }],
            ..SelectSpec::default()
        };
        assert!(bad.validate(&q2).is_err());
        // SUM without an input column: rejected; COUNT(*) fine.
        let bad = SelectSpec {
            items: vec![SelectItemSpec::Aggregate {
                func: AggFunc::Sum,
                input: None,
                name: "s".into(),
            }],
            ..SelectSpec::default()
        };
        assert!(bad.validate(&q).is_err());
        // Empty select list: rejected.
        assert!(SelectSpec::default().validate(&q).is_err());
    }

    #[test]
    fn inject_scan_filters_wraps_only_named_scans() {
        let plan = XraNode::join(
            XraNode::scan("r"),
            XraNode::scan("s"),
            EquiJoin::new(0, 0, Projection::new(vec![0])),
            JoinAlgorithm::Simple,
        );
        let mut filters = HashMap::new();
        filters.insert("r".to_string(), Predicate::cmp_int(0, CmpOp::Lt, 5));
        let wrapped = inject_scan_filters(plan, &filters);
        let XraNode::HashJoin { left, right, .. } = &wrapped else {
            panic!("join preserved");
        };
        assert!(matches!(**left, XraNode::Select { .. }));
        assert!(matches!(**right, XraNode::Scan { .. }));
    }

    use crate::tree::JoinTree;
}
