//! Late materialization: join on narrow ref-carrying relations, gather
//! payloads once at the root.
//!
//! An eager plan copies every payload column of every matching row through
//! the whole join chain — each of *k* joins re-gathers the full row width,
//! so a payload byte crosses the pipeline O(k) times. The late plan
//! rewrites every base relation to its **narrow** form: the join-key
//! columns (kept dense, so probing is unchanged) plus one packed row
//! reference per leaf ([`pack_ref`]: `(source, row)` in a `u64`). Joins
//! then move only keys and refs; the full-width payload batches stay
//! pinned in a per-query [`FragmentRegistry`], and a single column-wise
//! gather at the pipeline root resolves the *surviving* refs — each
//! payload byte is touched exactly once, and only for rows that made it
//! through every join.
//!
//! The rewrite has two halves. The **shape** ([`LateShape`]) is a pure
//! function of the join tree and the binding's specs and schemas: column
//! provenance, the dense (join-key) column set of every leaf, the narrow
//! [`QueryBinding`] (same tree, same operators, identity projections over
//! the narrow concatenations), the resolver's column plan, and whether the
//! `Auto` policy would take it. It is derived once, when the binding is
//! built, and carried with it through `bind_params` — a declined rewrite
//! costs an execution nothing. The **materialize** half ([`plan_late`])
//! runs per execution and is columnar: a leaf's narrow image is the dense
//! columns of the relation's *resident* image (its [`Catalog`] entry)
//! plus an iota ref column; a scan filter is a
//! [`select`] over that image whose survivors are gathered, so refs always
//! index the **unfiltered** resident image, which the registry pins by
//! refcount instead of copying. The engine swaps the narrow binding in for
//! operator wiring, attaches the [`Resolver`] to the root join's tasks, and
//! leaves everything downstream of the root (pipeline stages, client
//! channel) on the original schema — late materialization is invisible
//! outside the join pipeline.
//!
//! Eligibility is governed by [`LateMode`](crate::config::LateMode):
//! `Auto` demands at least two joins *and* a narrow root row at most 0.8×
//! the original row width (single joins and key-only schemas gain
//! nothing); `Always` rewrites whenever at least one payload column can be
//! stripped; `Never` disables the rewrite.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use mj_plan::tree::{JoinTree, NodeId, TreeNode};
use mj_relalg::column::{columnar_row_bytes, select, Column, ColumnBatch, ColumnLayout};
use mj_relalg::{Attribute, EquiJoin, Projection, RelalgError, Result, Schema};
use mj_storage::{pack_ref, ref_row, Catalog, FragmentRegistry};

use crate::binding::QueryBinding;
use crate::config::LateMode;
use crate::metrics::Metrics;

/// One column of the resolver's materialization plan: how original root
/// output column `j` is produced from the narrow root output.
#[derive(Clone, Debug)]
enum MatCol {
    /// Copied from narrow root output column `pos` (a join key, still
    /// dense in the narrow plan).
    Dense(usize),
    /// Gathered from the pinned image of source `sid`, column `leaf_col`,
    /// at the row indices carried by ref slot `slot`.
    Gather {
        /// Index into [`LateShape::ref_cols`] naming the ref column whose
        /// row indices drive this gather.
        slot: usize,
        /// Registry slot of the pinned image.
        sid: usize,
        /// Column within the pinned image.
        leaf_col: usize,
    },
}

/// The shape-only half of the rewrite (see the module docs): everything
/// that does not depend on the data, the scan filters' literals, or the
/// engine's [`LateMode`].
#[derive(Debug)]
pub(crate) struct LateShape {
    /// Source relations by registry slot; duplicate leaves of one relation
    /// share a slot, hence one pinned image.
    names: Vec<String>,
    /// Per source: the leaf columns joins probe on, ascending — the dense
    /// prefix of the narrow leaf.
    dense: Vec<Vec<usize>>,
    /// Per source: whether some root output column must be gathered from
    /// its payload (the narrow leaf then ends in a ref column).
    needs_ref: Vec<bool>,
    /// Per source: column layout of the narrow leaf.
    layouts: Vec<ColumnLayout>,
    /// Narrow join specs and node schemas; no scan filters (applied while
    /// narrowing the leaves) and no stages (they run on the resolved
    /// output, from the original binding).
    pub narrow: QueryBinding,
    /// How each original root output column is resolved.
    plan: Vec<MatCol>,
    /// Narrow-root positions of the distinct ref columns the plan uses;
    /// `MatCol::Gather::slot` indexes this list.
    ref_cols: Vec<usize>,
    /// Column layout of the resolved (original root schema) output.
    layout: ColumnLayout,
    /// Whether `LateMode::Auto` takes this rewrite.
    auto: bool,
}

/// Resolves narrow (ref-carrying) root output batches into the original
/// root schema: dense columns are copied, payload columns are gathered
/// from the pinned images. Built once per execution by [`plan_late`];
/// shared read-only by all root-op instances.
pub(crate) struct Resolver {
    shape: Arc<LateShape>,
    registry: FragmentRegistry,
}

impl Resolver {
    /// Layout of the resolved output (the original root schema).
    pub(crate) fn layout(&self) -> &ColumnLayout {
        &self.shape.layout
    }

    /// Number of ref-index scratch buffers [`resolve_into`](Self::resolve_into)
    /// needs.
    pub(crate) fn scratch_slots(&self) -> usize {
        self.shape.ref_cols.len()
    }

    /// Appends the resolution of every row of `src` (narrow root schema)
    /// to `dst` (original root schema). `scratch` holds the per-ref-column
    /// row-index buffers, reused across calls.
    pub(crate) fn resolve_into(
        &self,
        src: &ColumnBatch,
        scratch: &mut [Vec<u32>],
        dst: &mut ColumnBatch,
    ) -> Result<()> {
        let n = src.rows();
        if n == 0 {
            return Ok(());
        }
        // Unpack each used ref column's row indices once per batch; every
        // gather over the same source reuses the same index vector.
        for (slot, &pos) in self.shape.ref_cols.iter().enumerate() {
            let refs = src.column(pos)?.as_refs().ok_or_else(|| {
                RelalgError::InvalidPlan(format!("late plan: column {pos} is not a ref column"))
            })?;
            let idx = &mut scratch[slot];
            idx.clear();
            idx.extend(refs.iter().map(|&r| ref_row(r)));
        }
        dst.append_with(n, |j, col| match &self.shape.plan[j] {
            MatCol::Dense(pos) => col.append_range(src.column(*pos)?, 0..n),
            MatCol::Gather {
                slot,
                sid,
                leaf_col,
            } => col.append_gather(self.registry.get(*sid)?.column(*leaf_col)?, &scratch[*slot]),
        })
    }
}

/// Everything the engine needs to run one execution late-materialized.
pub(crate) struct LateRewrite {
    /// Narrow base relations by catalog name (scan filters pre-applied;
    /// a row's ref indexes the unfiltered pinned image).
    pub relations: HashMap<String, Arc<ColumnBatch>>,
    /// The root-side resolver over the pinned images.
    pub resolver: Arc<Resolver>,
    /// Logical bytes of the images the registry pins — charged to the
    /// query's memory budget for the query's lifetime.
    pub pinned_bytes: u64,
}

/// Per-leaf narrow output column: a still-dense original leaf column or
/// the leaf's packed row reference.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NKind {
    Dense(usize),
    Ref,
}

/// One column of a narrow node's output, with the leaf it came from.
#[derive(Clone, Copy)]
struct NCol {
    leaf: NodeId,
    kind: NKind,
}

/// Derives the late-materialization shape of `binding` over `tree`, or
/// `None` when there is no join or no payload column to strip.
pub(crate) fn late_shape(tree: &JoinTree, binding: &QueryBinding) -> Result<Option<LateShape>> {
    let n_nodes = tree.nodes().len();
    let joins = tree
        .nodes()
        .iter()
        .filter(|n| matches!(n, TreeNode::Join { .. }))
        .count();
    if joins == 0 {
        return Ok(None);
    }

    // --- Provenance: trace every node output column to (leaf, leaf col).
    // Sources (registry slots) are keyed by relation *name*, so duplicate
    // leaves of the same relation share one pinned image.
    let mut sid_of_name: HashMap<&str, usize> = HashMap::new();
    let mut names: Vec<&str> = Vec::new();
    let mut leaf_sid: HashMap<NodeId, usize> = HashMap::new();
    let mut prov: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n_nodes];
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { relation } => {
                let sid = *sid_of_name.entry(relation.as_str()).or_insert_with(|| {
                    names.push(relation.as_str());
                    names.len() - 1
                });
                leaf_sid.insert(id, sid);
                let arity = binding.schema(id)?.arity();
                prov[id] = (0..arity).map(|c| (id, c)).collect();
            }
            TreeNode::Join { left, right } => {
                let spec = binding.spec(id)?;
                let l_arity = prov[*left].len();
                prov[id] = spec
                    .projection
                    .cols()
                    .iter()
                    .map(|&c| {
                        if c < l_arity {
                            prov[*left][c]
                        } else {
                            prov[*right][c - l_arity]
                        }
                    })
                    .collect();
            }
        }
    }

    // --- Dense sets: the leaf columns joins actually probe on. Everything
    // else becomes payload, reachable only through the ref column.
    let mut dense: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); names.len()];
    for (id, node) in tree.nodes().iter().enumerate() {
        if let TreeNode::Join { left, right } = node {
            let spec = binding.spec(id)?;
            for (child, key) in [(*left, spec.left_key), (*right, spec.right_key)] {
                let (leaf, col) = prov[child][key];
                dense[leaf_sid[&leaf]].insert(col);
            }
        }
    }

    // A leaf needs its ref column only if some original root output column
    // must be gathered from its payload.
    let root = tree.root();
    let mut needs_ref = vec![false; names.len()];
    for &(leaf, col) in &prov[root] {
        let sid = leaf_sid[&leaf];
        if !dense[sid].contains(&col) {
            needs_ref[sid] = true;
        }
    }

    // --- Narrow leaf schemas; bail if nothing is stripped anywhere.
    let mut narrow_leaf_schemas: Vec<Option<Arc<Schema>>> = vec![None; names.len()];
    let mut stripped_any = false;
    for (sid, name) in names.iter().enumerate() {
        // Any leaf of this relation serves: schemas are per-name.
        let leaf = *leaf_sid
            .iter()
            .find(|(_, s)| **s == sid)
            .map(|(l, _)| l)
            .ok_or_else(|| RelalgError::InvalidPlan("late plan: unmapped source".into()))?;
        let orig = binding.schema(leaf)?;
        let mut attrs: Vec<Attribute> = dense[sid]
            .iter()
            .map(|&c| orig.attr(c).cloned())
            .collect::<Result<_>>()?;
        if needs_ref[sid] {
            attrs.push(Attribute::rowref(format!("{name}#ref")));
        }
        if attrs.len() < orig.arity() {
            stripped_any = true;
        }
        narrow_leaf_schemas[sid] = Some(Schema::new(attrs).shared());
    }
    if !stripped_any {
        return Ok(None);
    }

    // --- Narrow node outputs: leaves emit [dense cols..., ref?]; joins
    // emit the identity over the concatenation, so every leaf's columns
    // survive to the root (the resolver needs them there).
    let mut ncols: Vec<Vec<NCol>> = vec![Vec::new(); n_nodes];
    let mut narrow_schemas: Vec<Option<Arc<Schema>>> = vec![None; n_nodes];
    let mut narrow_specs: HashMap<NodeId, EquiJoin> = HashMap::new();
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { .. } => {
                let sid = leaf_sid[&id];
                let mut cols: Vec<NCol> = dense[sid]
                    .iter()
                    .map(|&c| NCol {
                        leaf: id,
                        kind: NKind::Dense(c),
                    })
                    .collect();
                if needs_ref[sid] {
                    cols.push(NCol {
                        leaf: id,
                        kind: NKind::Ref,
                    });
                }
                ncols[id] = cols;
                narrow_schemas[id] = narrow_leaf_schemas[sid].clone();
            }
            TreeNode::Join { left, right } => {
                let spec = binding.spec(id)?;
                let key_pos = |child: NodeId, key: usize| -> Result<usize> {
                    let (leaf, col) = prov[child][key];
                    ncols[child]
                        .iter()
                        .position(|nc| nc.leaf == leaf && nc.kind == NKind::Dense(col))
                        .ok_or_else(|| {
                            RelalgError::InvalidPlan("late plan: join key not dense".into())
                        })
                };
                let left_key = key_pos(*left, spec.left_key)?;
                let right_key = key_pos(*right, spec.right_key)?;
                let (l, r) = (ncols[*left].clone(), ncols[*right].clone());
                let arity = l.len() + r.len();
                ncols[id] = l.into_iter().chain(r).collect();
                let ls = narrow_schemas[*left]
                    .as_ref()
                    .ok_or_else(|| RelalgError::InvalidPlan("late plan: schema order".into()))?;
                let rs = narrow_schemas[*right]
                    .as_ref()
                    .ok_or_else(|| RelalgError::InvalidPlan("late plan: schema order".into()))?;
                narrow_schemas[id] = Some(ls.concat(rs).shared());
                narrow_specs.insert(
                    id,
                    EquiJoin::new(left_key, right_key, Projection::new((0..arity).collect())),
                );
            }
        }
    }

    // --- Eligibility: under Auto the narrow root row must be materially
    // narrower than the original (0.8×), or the ref traffic and the final
    // gather cost more than they save.
    let orig_root = binding.schema(root)?;
    let narrow_root = narrow_schemas[root]
        .as_ref()
        .ok_or_else(|| RelalgError::InvalidPlan("late plan: no root schema".into()))?;
    let auto =
        joins >= 2 && 10 * columnar_row_bytes(narrow_root) <= 8 * columnar_row_bytes(orig_root);

    // --- Materialization plan for the resolver: map every original root
    // output column to a dense copy or a registry gather.
    let mut ref_cols: Vec<usize> = Vec::new();
    let mut plan: Vec<MatCol> = Vec::with_capacity(prov[root].len());
    for &(leaf, col) in &prov[root] {
        let sid = leaf_sid[&leaf];
        if dense[sid].contains(&col) {
            let pos = ncols[root]
                .iter()
                .position(|nc| nc.leaf == leaf && nc.kind == NKind::Dense(col))
                .ok_or_else(|| RelalgError::InvalidPlan("late plan: lost dense column".into()))?;
            plan.push(MatCol::Dense(pos));
        } else {
            let ref_pos = ncols[root]
                .iter()
                .position(|nc| nc.leaf == leaf && nc.kind == NKind::Ref)
                .ok_or_else(|| RelalgError::InvalidPlan("late plan: lost ref column".into()))?;
            let slot = match ref_cols.iter().position(|&p| p == ref_pos) {
                Some(s) => s,
                None => {
                    ref_cols.push(ref_pos);
                    ref_cols.len() - 1
                }
            };
            plan.push(MatCol::Gather {
                slot,
                sid,
                leaf_col: col,
            });
        }
    }

    let layout = ColumnLayout::of(orig_root);
    let layouts = narrow_leaf_schemas
        .iter()
        .map(|s| s.as_deref().map(ColumnLayout::of))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| RelalgError::InvalidPlan("late plan: no leaf schema".into()))?;
    let schemas: Vec<Arc<Schema>> = narrow_schemas
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| RelalgError::InvalidPlan("late plan: incomplete schemas".into()))?;
    Ok(Some(LateShape {
        names: names.iter().map(|n| n.to_string()).collect(),
        dense: dense.into_iter().map(|d| d.into_iter().collect()).collect(),
        needs_ref,
        layouts,
        narrow: QueryBinding::bare(narrow_specs, schemas),
        plan,
        ref_cols,
        layout,
        auto,
    }))
}

/// The shape `mode` takes for `binding`, if any: `None` when the rewrite
/// is disabled, impossible, or (under `Auto`) not estimated to pay. A
/// pure function of the binding's shape, so a run template decides it
/// once ([`RunTemplate`](crate::RunTemplate)).
pub(crate) fn taken(binding: &QueryBinding, mode: LateMode) -> Option<&Arc<LateShape>> {
    let shape = binding.late_shape()?;
    let declined = mode == LateMode::Never || (mode == LateMode::Auto && !shape.auto);
    (!declined).then_some(shape)
}

/// The per-execution half of the rewrite along `shape` (what [`taken`]
/// returned for `binding`): narrows every source relation from its
/// resident image, applying `binding`'s scan filters, and pins the images
/// the resolver gathers from.
pub(crate) fn plan_late(
    shape: &Arc<LateShape>,
    binding: &QueryBinding,
    catalog: &Catalog,
    metrics: &mut Metrics,
) -> Result<LateRewrite> {
    let mut registry = FragmentRegistry::new(shape.names.len());
    let mut relations: HashMap<String, Arc<ColumnBatch>> = HashMap::new();
    for (sid, name) in shape.names.iter().enumerate() {
        let image = catalog.image(name)?;
        if image.rows() > u32::MAX as usize {
            return Err(RelalgError::InvalidPlan(format!(
                "late plan: `{name}` has more rows than a packed ref indexes"
            )));
        }
        metrics.note_fragment_lookup(true);
        // Surviving rows, in original image coordinates.
        let survivors = match binding.scan_filter(name) {
            Some(pred) => {
                let mut sel = Vec::new();
                select(pred, &image, 0..image.rows(), &mut sel)?;
                Some(sel)
            }
            None => None,
        };
        let rows = survivors.as_ref().map_or(image.rows(), Vec::len);
        let dense = &shape.dense[sid];
        let mut narrow = ColumnBatch::with_capacity(&shape.layouts[sid], rows);
        narrow.append_with(rows, |j, col| match (dense.get(j), &survivors) {
            (Some(&c), Some(sel)) => col.append_gather(image.column(c)?, sel),
            (Some(&c), None) => col.append_range(image.column(c)?, 0..rows),
            (None, survivors) => {
                let Column::Ref(refs) = col else {
                    return Err(RelalgError::InvalidPlan(
                        "late plan: narrow leaf does not end in a ref column".into(),
                    ));
                };
                let pack = |row: u32| pack_ref(sid as u32, row);
                match survivors {
                    Some(sel) => refs.extend(sel.iter().copied().map(pack)),
                    None => refs.extend((0..rows as u32).map(pack)),
                }
                Ok(())
            }
        })?;
        relations.insert(name.clone(), Arc::new(narrow));
        if shape.needs_ref[sid] {
            registry.set(sid, image);
        }
    }
    let pinned_bytes = registry.est_bytes();
    Ok(LateRewrite {
        relations,
        resolver: Arc::new(Resolver {
            shape: shape.clone(),
            registry,
        }),
        pinned_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Database, DbConfig};
    use mj_relalg::{DataType, Relation, Tuple, Value};

    fn rel(cols: &[&str], rows: usize) -> Arc<Relation> {
        let schema = Schema::new(cols.iter().map(|c| Attribute::int(*c)).collect()).shared();
        let arity = cols.len();
        let tuples = (0..rows as i64)
            .map(|i| Tuple::from_ints(&vec![i % 8; arity]))
            .collect();
        Arc::new(Relation::new_unchecked(schema, tuples))
    }

    /// Three wide relations (three payload columns each) chained on `k`.
    fn wide_db() -> Database {
        let db = Database::open(DbConfig::default()).unwrap();
        db.register("a", rel(&["k", "p1", "p2", "p3"], 24)).unwrap();
        db.register("b", rel(&["k", "q1", "q2", "q3"], 24)).unwrap();
        db.register("c", rel(&["k", "r1", "r2", "r3"], 24)).unwrap();
        db.analyze().unwrap();
        db
    }

    fn late(db: &Database, binding: &QueryBinding, mode: LateMode) -> Option<LateRewrite> {
        let shape = taken(binding, mode)?;
        let rewrite = plan_late(shape, binding, db.catalog(), &mut Metrics::new(0));
        Some(rewrite.unwrap())
    }

    const CHAIN: &str = "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k";

    #[test]
    fn auto_rewrites_wide_chains_and_narrows_every_leaf() {
        let db = wide_db();
        let planned = db.plan(CHAIN).unwrap();
        let late = late(&db, &planned.binding, LateMode::Auto)
            .expect("two joins over 4-int rows must rewrite under Auto");
        // Every leaf keeps only its key plus the ref column.
        for name in ["a", "b", "c"] {
            let narrow = late.relations.get(name).expect("narrow relation");
            assert_eq!(
                narrow.layout().types(),
                [DataType::Int, DataType::Ref],
                "{name}: key, then ref"
            );
            assert_eq!(narrow.rows(), 24);
        }
        // What is pinned is the resident image itself, not a copy.
        let resident = db.catalog().resident_stats();
        assert_eq!(
            late.pinned_bytes, resident.bytes,
            "three images, no variants"
        );
        // The narrow root output is keys + refs; the original is 12 ints.
        let root = planned.plan.tree.root();
        assert_eq!(planned.binding.schema(root).unwrap().arity(), 12);
        let shape = planned.binding.late_shape().unwrap();
        assert_eq!(shape.narrow.schema(root).unwrap().arity(), 6);
        // Narrow bindings carry no scan filters (already applied).
        assert!(shape.narrow.scan_filters().is_empty());
    }

    #[test]
    fn a_scan_filter_narrows_the_leaf_but_refs_index_the_unfiltered_image() {
        let db = wide_db();
        let planned = db.plan(&format!("{CHAIN} WHERE b.q1 >= 6")).unwrap();
        let late = late(&db, &planned.binding, LateMode::Always).expect("rewrites");
        let narrow = late.relations.get("b").unwrap();
        // Rows 6, 7, 14, 15, 22, 23 of `b` carry q1 in {6, 7}.
        let rows: Vec<u32> = narrow
            .column(1)
            .unwrap()
            .as_refs()
            .unwrap()
            .iter()
            .map(|&r| ref_row(r))
            .collect();
        assert_eq!(rows, [6, 7, 14, 15, 22, 23]);
        assert_eq!(narrow.int_col(0).unwrap(), &[6, 7, 6, 7, 6, 7]);
        assert_eq!(
            late.relations.get("a").unwrap().rows(),
            24,
            "unfiltered leaf"
        );
    }

    #[test]
    fn the_shape_is_carried_by_the_binding_and_the_mode_only_gates_it() {
        let db = wide_db();
        let planned = db.plan(CHAIN).unwrap();
        let shape = planned.binding.late_shape().expect("derived at plan time");
        assert!(shape.auto);
        // Binding parameters (or anything else that clones the binding)
        // shares the shape instead of re-deriving it.
        let bound = planned.binding.bind_params(&[]).unwrap();
        assert!(Arc::ptr_eq(shape, bound.late_shape().unwrap()));
        assert!(
            late(&db, &planned.binding, LateMode::Never).is_none(),
            "Never disables the rewrite"
        );
        let single = db.plan("SELECT * FROM a JOIN b ON a.k = b.k").unwrap();
        assert!(!single.binding.late_shape().unwrap().auto);
        assert!(
            late(&db, &single.binding, LateMode::Auto).is_none(),
            "Auto demands at least two joins"
        );
        assert!(
            late(&db, &single.binding, LateMode::Always).is_some(),
            "Always rewrites a single join when payloads can be stripped"
        );
    }

    #[test]
    fn auto_declines_key_only_schemas() {
        // Narrow rows (key + ref per leaf) would be as wide as the
        // originals: the 0.8x policy must decline.
        let db = Database::open(DbConfig::default()).unwrap();
        db.register("x", rel(&["k", "v"], 16)).unwrap();
        db.register("y", rel(&["k", "v"], 16)).unwrap();
        db.register("z", rel(&["k", "v"], 16)).unwrap();
        db.analyze().unwrap();
        let planned = db
            .plan("SELECT * FROM x JOIN y ON x.k = y.k JOIN z ON y.k = z.k")
            .unwrap();
        assert!(
            late(&db, &planned.binding, LateMode::Auto).is_none(),
            "2-col rows gain nothing from a ref rewrite"
        );
    }

    #[test]
    fn resolver_round_trips_rows_through_refs() {
        // Resolve a hand-built narrow batch against a pinned image and
        // check rows land in original-schema order.
        let payload_schema = Schema::new(vec![
            Attribute::int("k"),
            Attribute::int("p"),
            Attribute::int("q"),
        ])
        .shared();
        let payload = Relation::new_unchecked(
            payload_schema.clone(),
            (0..6)
                .map(|i| Tuple::from_ints(&[i, 10 * i, 100 * i]))
                .collect(),
        );
        let mut registry = FragmentRegistry::new(1);
        registry.set(0, Arc::new(ColumnBatch::from_relation(&payload).unwrap()));
        let narrow_schema =
            Schema::new(vec![Attribute::int("k"), Attribute::rowref("payload#ref")]);
        let shape = LateShape {
            names: vec!["payload".into()],
            dense: vec![vec![0]],
            needs_ref: vec![true],
            layouts: vec![ColumnLayout::of(&narrow_schema)],
            narrow: QueryBinding::bare(HashMap::new(), Vec::new()),
            plan: vec![
                MatCol::Dense(0),
                MatCol::Gather {
                    slot: 0,
                    sid: 0,
                    leaf_col: 1,
                },
                MatCol::Gather {
                    slot: 0,
                    sid: 0,
                    leaf_col: 2,
                },
            ],
            ref_cols: vec![1],
            layout: ColumnLayout::of(&payload_schema),
            auto: true,
        };
        let resolver = Resolver {
            shape: Arc::new(shape),
            registry,
        };
        // Narrow batch: [k, ref] rows pointing at payload rows 5, 2, 2.
        let mut narrow = ColumnBatch::for_schema(&narrow_schema);
        for row in [5u32, 2, 2] {
            narrow
                .push_tuple(&Tuple::new(vec![
                    Value::Int(row as i64),
                    Value::Int(pack_ref(0, row) as i64),
                ]))
                .unwrap();
        }
        let mut scratch = vec![Vec::new(); resolver.scratch_slots()];
        let mut out = ColumnBatch::with_capacity(resolver.layout(), 4);
        resolver
            .resolve_into(&narrow, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0).unwrap(), Tuple::from_ints(&[5, 50, 500]));
        assert_eq!(out.row(1).unwrap(), Tuple::from_ints(&[2, 20, 200]));
        assert_eq!(out.row(2).unwrap(), Tuple::from_ints(&[2, 20, 200]));
        // Resolution appends: a second batch lands after the first.
        resolver
            .resolve_into(&narrow, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 6);
    }
}
