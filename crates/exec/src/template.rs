//! The run template: the part of setting a query up that no execution
//! changes, derived once per planned query.
//!
//! The paper measures how much of a short query is spent initialising
//! its operation processes (§2.2), and its strategies differ largely in
//! how much of that they pay. For a prepared statement most of this
//! engine's version of it is the same on every execute: which operations
//! there are and what each evaluates, in which wave, grouped into which
//! processes, wired by which streams, over which resident base fragments.
//! A [`RunTemplate`] holds exactly that; an execution instantiates it with
//! its arguments, fresh stream edges, its own control block and budget,
//! and keeps its own materialized pieces.
//!
//! What the template also keeps is the operation processes themselves.
//! An execute *builds* only what is its own: the result edge and the
//! other stream edges, the control block — which carries its budget and,
//! while it runs, its coordination — its bound scan filters, and one box
//! per task for the pool. It *re-arms* what an earlier execute gave back
//! ([`scratch`](crate::operator::scratch)): each task's members, with
//! their join operators and the buffers those gathered, matched and
//! indexed in, and its port's router — it wires each member's operands
//! for this execute (the resident parts, this execute's filter, edge or
//! pieces), resets cursors and counts, and attaches the port to the new
//! edge. The first execute, or one that finds every kept task lent, arms
//! new ones through the same code. Each edge keeps one message's worth of
//! spare batch buffers the same way. So an execute allocates little beyond
//! the rows it returns, and its set-up costs what arming costs.
//!
//! A template also fixes how each operand reaches an operation's
//! instances ([`Split`]): hash fragments of a base relation, one per
//! instance; windows on its resident image for a segment group's
//! range-split probe; or one table every instance adopts for a shared
//! build side — the resident one over a base relation, or one the
//! execution indexes once over a materialized or filtered operand before
//! it spawns the group.
//!
//! An ad-hoc query builds its template and instantiates it once, so there
//! is one submission path
//! ([`Engine::submit_template`](crate::Engine::submit_template)). A
//! prepared statement keeps its template in the plan-cache entry it shares
//! across connections, so a catalog change, which makes the statement
//! stale, also retires the template.

use std::sync::{Arc, Mutex, Weak};

use mj_core::plan_ir::{OperandSource, Split};
use mj_core::validate::ValidPlan;
use mj_join::ColumnarTable;
use mj_relalg::column::{ColumnBatch, ColumnLayout};
use mj_relalg::{EquiJoin, JoinAlgorithm, Predicate, RelalgError, Result, Schema};
use mj_storage::{fragment_columns, Catalog, Held};

use crate::binding::{bind_predicate, has_params, QueryBinding};
use crate::config::LateMode;
use crate::late::{LateRewrite, LateShape};
use crate::metrics::Metrics;
use crate::operator::scratch::{Home, KeptTasks, TaskBody};
use crate::operator::task::TaskMember;
use crate::operator::{join_op, PhysicalOp};
use crate::sched::lock;
use crate::source::Source;
use crate::stream::Spares;

/// Everything about running one planned query that no execution changes:
/// its operations with their shared join specs, waves, degrees and output
/// schemas, the stream and materialized edges between them, the process
/// groups and what each waits for, the result edge's shape, the
/// pre-sized [`Metrics`] rows, whether the late rewrite is taken, and
/// which resident base fragments (or join tables) each base operand reads.
///
/// It holds no per-query state — no edges, budgets or pieces — so one
/// template serves any number of concurrent executions:
/// [`Engine::submit_template`](crate::Engine::submit_template) gives each
/// its own stream edges, control block, budget and materialized pieces,
/// and binds its `?N` arguments into the only predicates that hold them,
/// the scan filters. Between executions it keeps their tasks — per task
/// slot, free lists of them ([`scratch`](crate::operator::scratch)):
/// each execution re-arms one, or a new one if every kept one is lent,
/// and gives it back readied when it ends (unless a panic broke it).
///
/// The base operands are held *weakly*, so the template never pins what
/// the [`Catalog`] evicted; a kept task lets go of every operand as its
/// member finishes, so it pins nothing either. Before an execution's clock
/// starts, the catalog [`touch`](Catalog::touch)es the sets they came
/// from, which counts each as a hit and a use of its variant exactly as a
/// lookup would; each operation process then takes its parts as it is
/// armed.
/// If a set was evicted, or its relation replaced, since, the execution
/// resolves every base operand afresh and the template holds the new sets
/// for the next. A template is built for one engine
/// ([`Engine::template`](crate::Engine::template)).
pub struct RunTemplate {
    /// The query as planned: a prepared statement's `?N` placeholders are
    /// still unbound here.
    query: QueryBinding,
    /// The late rewrite's shape, when the engine's [`LateMode`] takes it:
    /// the joins are then wired from its narrow binding, and the base
    /// operands are narrowed per execution.
    late: Option<Arc<LateShape>>,
    /// Every operation: the plan's joins (ids `0..n_ops`), then the
    /// post-join stages.
    ops: Vec<Operation>,
    /// The root join's op id; its tasks carry a late plan's resolver.
    root: usize,
    /// The stream edges between operations, then the result edge (last).
    edges: Vec<Edge>,
    /// The result schema the client sees.
    result_schema: Arc<Schema>,
    /// Per producer op whose consumer reads it materialized: that
    /// consumer's key column and degree, which its output is split on.
    out_materialized: Vec<Option<(usize, usize)>>,
    /// The base operands, in wiring order.
    bases: Vec<Base>,
    /// What the base operands last resolved to, held weakly; empty until
    /// the first execution resolves them, and for a late plan.
    resident: Mutex<Resident>,
    /// Per process group, under its root op's id: the ops it evaluates, in
    /// op order (the root last); empty under every other id.
    groups: Vec<Vec<usize>>,
    /// Per op read through a fused edge: its reader and the reader's side.
    feeds: Vec<Option<(usize, usize)>>,
    /// Per group root: completions of ops in other processes it waits for.
    deps: Vec<usize>,
    /// Per op: the roots of the groups waiting for it.
    dependents: Vec<Vec<usize>>,
    /// Metrics rows as every execution starts them: estimates, stage kinds,
    /// streams and fused ops.
    metrics: Metrics,
    /// Per group root: its first task slot, one slot per instance.
    slots: Vec<usize>,
    /// Per task slot, the tasks its executions ran and gave back, readied
    /// for the next ([`lend`](Self::lend)).
    kept: Arc<KeptTasks>,
}

/// One operation of a query as the executor wires and spawns it: the
/// plan's join of the same id (ids `0..n_ops`) or, after them, a post-join
/// stage.
pub(crate) struct Operation {
    /// What each instance evaluates.
    pub body: Body,
    /// Instances: one operation process each, unless the op is fused.
    pub degree: usize,
    /// Scheduling priority: the op's right-deep segment wave (§4 order);
    /// stages run after the root, in later waves still.
    pub priority: usize,
    /// Where its operands come from, side 0 first.
    pub operands: Vec<Wiring>,
    /// The rows it emits: a stage's own, the query's for the root join (a
    /// late plan resolves its refs there), the execution binding's for any
    /// other join.
    pub schema: Arc<Schema>,
    /// The edge it streams its output into, if it streams.
    pub out_edge: Option<usize>,
}

/// What an [`Operation`]'s instances evaluate.
pub(crate) enum Body {
    /// A join, its spec shared by every instance of every execution.
    Join {
        algorithm: JoinAlgorithm,
        spec: Arc<EquiJoin>,
    },
    /// The query's stage `index`.
    Stage { index: usize },
}

/// Where one operand of an [`Operation`] comes from.
pub(crate) enum Wiring {
    /// Base operand `i` of the template: each instance reads its own part
    /// ([`RunTemplate::base_source`]).
    Base(usize),
    /// One table every instance adopts, keyed on `key_col`, over what
    /// `over` wires — a base operand, or an earlier op's materialized
    /// output: the resident table, or one the execution indexes once
    /// before it spawns the operation's instances.
    Shared { over: Box<Wiring>, key_col: usize },
    /// Receiver `instance` of edge `edge`, from `producers` instances.
    Stream { edge: usize, producers: usize },
    /// This instance's pieces of op `from`'s materialized output.
    Materialized { from: usize },
    /// Handed over in memory by the member evaluating its producer.
    Fused,
}

/// One stream edge: `producers` × `consumers` channels routed on
/// `key_col`, carrying rows of the layout its `spares` hold buffers of —
/// the buffers its executions' batches were in, kept for the next.
pub(crate) struct Edge {
    pub producers: usize,
    pub consumers: usize,
    pub key_col: usize,
    pub spares: Arc<Spares>,
}

/// One base operand of an operation of `degree` instances: relation
/// `relation`, hash-fragmented on `key_col` into one fragment per instance,
/// or — split by range or shared — read through its whole image.
struct Base {
    relation: String,
    key_col: usize,
    degree: usize,
    split: Split,
    kind: BaseKind,
    /// Where its parts start in an execution's flat list.
    first: usize,
}

impl Base {
    /// The catalog parts it reads: its hash fragments, or the one image (a
    /// range split's windows and a shared table are over that).
    fn parts(&self) -> usize {
        if self.split == Split::Hash {
            self.degree
        } else {
            1
        }
    }
}

enum BaseKind {
    /// A simple join's unfiltered build side: the resident join tables.
    Tables,
    /// The resident fragments as they are.
    Fragments,
    /// The resident fragments, filtered per execution by `predicate`
    /// (bound to the execution's arguments first when `params`).
    Filtered {
        predicate: Arc<Predicate>,
        params: bool,
    },
}

/// What the base operands last resolved to, held weakly, so that it pins
/// nothing: per base, the set of fragments (or join tables over them) it
/// came from, which names it for [`Catalog::touch`]; per base and
/// instance, the part that instance reads.
#[derive(Default)]
struct Resident {
    sets: Vec<ResidentSet>,
    parts: Vec<ResidentPart>,
}

enum ResidentSet {
    Fragments(Weak<[Arc<ColumnBatch>]>),
    Tables(Weak<[Arc<ColumnarTable>]>),
}

enum ResidentPart {
    Fragment(Weak<ColumnBatch>),
    Table(Weak<ColumnarTable>),
}

impl ResidentSet {
    fn held(&self) -> Held<'_> {
        match self {
            ResidentSet::Fragments(f) => Held::Fragments(f),
            ResidentSet::Tables(t) => Held::Tables(t),
        }
    }
}

impl ResidentPart {
    fn upgrade(&self) -> Option<Option<Source>> {
        Some(Some(match self {
            ResidentPart::Fragment(f) => Source::Local(f.upgrade()?),
            ResidentPart::Table(t) => Source::Table(t.upgrade()?),
        }))
    }
}

impl RunTemplate {
    /// Derives the template of `plan` bound by `query` for an engine whose
    /// late-materialization policy is `late`.
    pub(crate) fn new(plan: ValidPlan, query: QueryBinding, late: LateMode) -> Result<Self> {
        let n_ops = plan.ops.len();
        let stages = query.stages();
        let n = n_ops + stages.len();
        let late = crate::late::taken(&query, late).cloned();
        let exec_binding = late.as_ref().map_or(&query, |shape| &shape.narrow);
        let root = plan.op_for_join(plan.tree.root()).ok_or_else(no_root)?.id;
        let mut metrics = Metrics::new(n);

        // The operations: the plan's joins, then each stage reading a
        // stream from the operation before it, the first from the root.
        // Producers come before their consumers, so each operand's edge is
        // wired as its consumer is listed.
        let mut ops: Vec<Operation> = Vec::with_capacity(n);
        let mut edges = Vec::new();
        let mut out_materialized = vec![None; n];
        let mut bases = Vec::new();
        for op in &plan.ops {
            let spec = exec_binding.spec(op.join)?;
            let degree = op.degree();
            let mut operands = Vec::with_capacity(2);
            for (side, operand, key_col) in
                [(0, &op.left, spec.left_key), (1, &op.right, spec.right_key)]
            {
                let split = op.split[side];
                let wiring = match operand {
                    OperandSource::Base { relation } => {
                        let filter = query.scan_filter(relation).filter(|_| late.is_none());
                        let kind = match filter {
                            Some(pred) => BaseKind::Filtered {
                                predicate: Arc::new(pred.clone()),
                                params: has_params(pred),
                            },
                            // The simple join builds on side 0.
                            None if side == 0 && op.algorithm == JoinAlgorithm::Simple => {
                                BaseKind::Tables
                            }
                            None => BaseKind::Fragments,
                        };
                        let first = bases.last().map_or(0, |b: &Base| b.first + b.parts());
                        bases.push(Base {
                            relation: relation.clone(),
                            key_col,
                            degree,
                            split,
                            kind,
                            first,
                        });
                        Wiring::Base(bases.len() - 1)
                    }
                    OperandSource::Stream { from } => {
                        metrics.streams += ops[*from].degree * degree;
                        stream(&mut ops, &mut edges, *from, degree, key_col)?
                    }
                    // One piece per producer instance, into one table.
                    OperandSource::Materialized { from } if split == Split::Shared => {
                        metrics.streams += ops[*from].degree;
                        out_materialized[*from] = Some((key_col, 1));
                        Wiring::Materialized { from: *from }
                    }
                    OperandSource::Materialized { from } => {
                        metrics.streams += ops[*from].degree * degree;
                        out_materialized[*from] = Some((key_col, degree));
                        Wiring::Materialized { from: *from }
                    }
                    OperandSource::Fused { .. } => Wiring::Fused,
                };
                operands.push(if split == Split::Shared {
                    Wiring::Shared {
                        over: Box::new(wiring),
                        key_col,
                    }
                } else {
                    wiring
                });
            }
            let schema = if op.id == root {
                query.schema(op.join)?
            } else {
                exec_binding.schema(op.join)?
            };
            ops.push(Operation {
                body: Body::Join {
                    algorithm: op.algorithm,
                    spec: Arc::new(spec.clone()),
                },
                degree,
                priority: plan.waves()[op.id],
                operands,
                schema: schema.clone(),
                out_edge: None,
            });
            metrics.ops[op.id].est_out = op.est_out;
        }
        let first_stage_wave = ops.iter().map(|op| op.priority).max().unwrap_or(0) + 1;
        for (index, stage) in stages.iter().enumerate() {
            let id = ops.len();
            let (from, key_col) = (id - 1, stage.partition_col);
            metrics.streams += ops[from].degree * stage.degree;
            let input = stream(&mut ops, &mut edges, from, stage.degree, key_col)?;
            ops.push(Operation {
                body: Body::Stage { index },
                degree: stage.degree,
                priority: first_stage_wave + index,
                operands: vec![input],
                schema: stage.schema.clone(),
                out_edge: None,
            });
            metrics.ops[id].est_out = stage.est_out;
            metrics.ops[id].kind = stage.kind.metrics_kind();
        }
        // The last operation — the last stage, or the root join — streams
        // to the client, over one destination: its router never reads the
        // key column.
        let sink = if stages.is_empty() { root } else { n - 1 };
        stream(&mut ops, &mut edges, sink, 1, 0)?;
        let result_schema = query.result_schema(plan.tree.root())?.clone();

        // Process groups: a process starts once every op any of its members
        // waits for — in another process — has completed. A stage is a
        // group of one that waits for nothing: it is submitted with the
        // first wave and idles until its stream produces.
        let roots = plan.process_roots();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut feeds = vec![None; n];
        let mut deps = vec![0; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for op in &plan.ops {
            let group = roots[op.id];
            groups[group].push(op.id);
            if group != op.id {
                metrics.fused_ops += 1;
            }
            for &d in &op.start_after {
                if roots[d] != group {
                    deps[group] += 1;
                    dependents[d].push(group);
                }
            }
            for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                if let OperandSource::Fused { from } = operand {
                    feeds[*from] = Some((op.id, side));
                }
            }
        }
        for (stage, group) in groups.iter_mut().enumerate().skip(n_ops) {
            group.push(stage);
        }
        let mut slots = vec![0; n];
        let mut tasks = 0;
        for (root, group) in groups.iter().enumerate() {
            if !group.is_empty() {
                slots[root] = tasks;
                tasks += ops[root].degree;
            }
        }

        Ok(RunTemplate {
            query,
            late,
            ops,
            root,
            edges,
            result_schema,
            out_materialized,
            bases,
            resident: Mutex::default(),
            groups,
            feeds,
            deps,
            dependents,
            metrics,
            slots,
            kept: KeptTasks::new(tasks),
        })
    }

    pub(crate) fn ops(&self) -> &[Operation] {
        &self.ops
    }

    pub(crate) fn root(&self) -> usize {
        self.root
    }

    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub(crate) fn result_schema(&self) -> &Arc<Schema> {
        &self.result_schema
    }

    pub(crate) fn out_materialized(&self, op: usize) -> Option<(usize, usize)> {
        self.out_materialized[op]
    }

    pub(crate) fn group(&self, root: usize) -> &[usize] {
        &self.groups[root]
    }

    pub(crate) fn deps(&self) -> &[usize] {
        &self.deps
    }

    pub(crate) fn dependents(&self, op: usize) -> &[usize] {
        &self.dependents[op]
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The task instance `instance` of the process group rooted at op
    /// `root` runs as, unarmed, and where it goes back: the one an earlier
    /// execute gave back, or — on the first execute, or while every kept
    /// one is lent — a new one, each member with a fresh operator.
    pub(crate) fn lend(&self, root: usize, instance: usize) -> (TaskBody, Home) {
        let slot = self.slots[root] + instance;
        let body = self.kept.take(slot).unwrap_or_else(|| {
            let members = self.groups[root].iter().map(|&m| {
                let member = TaskMember::unarmed(self.operator(m), m);
                match self.feeds[m] {
                    Some((reader, side)) => member.feeding(reader, side),
                    None => member,
                }
            });
            TaskBody {
                members: members.collect(),
                reports: Vec::with_capacity(self.groups[root].len()),
                router: None,
            }
        });
        (body, (self.kept.clone(), slot))
    }

    /// How many of its task slots — one per operation process instance —
    /// hold a task that no execute has borrowed, with its buffers, and how
    /// many slots there are: all of them between executes, once every
    /// process has run at least once.
    pub fn scratch_held(&self) -> (usize, usize) {
        self.kept.held()
    }

    /// How many tasks it keeps for its next executes, over every slot: one
    /// per slot after executes one at a time, more once executes of it
    /// overlapped — each ran a task of its own.
    pub fn tasks_kept(&self) -> usize {
        self.kept.kept()
    }

    /// The free lists of kept tasks (tests).
    #[cfg(test)]
    pub(crate) fn kept(&self) -> &Arc<KeptTasks> {
        &self.kept
    }

    /// A fresh operator for one instance of operation `id`.
    pub(crate) fn operator(&self, id: usize) -> Box<dyn PhysicalOp> {
        match &self.ops[id].body {
            Body::Join { algorithm, spec } => join_op(*algorithm, spec.clone()),
            Body::Stage { index } => self.query.stages()[*index].kind.operator(),
        }
    }

    /// The late rewrite of one execution, if the template takes it: the
    /// narrow leaves under `args`' scan filters, and the pinned images.
    pub(crate) fn late(
        &self,
        args: &[i64],
        catalog: &Catalog,
        metrics: &mut Metrics,
    ) -> Result<Option<LateRewrite>> {
        let Some(shape) = &self.late else {
            return Ok(None);
        };
        let bound;
        let query = if args.is_empty() {
            &self.query
        } else {
            bound = self.query.bind_params(args)?;
            &bound
        };
        crate::late::plan_late(shape, query, catalog, metrics).map(Some)
    }

    /// What instance `instance` of base operand `base` reads, from one
    /// execution's [`base_parts`](Self::base_parts): its own hash fragment,
    /// taken, or its window of the range-split image; a shared base's one
    /// part, taken, for whoever builds or adopts its table.
    pub(crate) fn base_source(
        &self,
        base: usize,
        instance: usize,
        parts: &mut [Option<Source>],
    ) -> Option<Source> {
        let base = &self.bases[base];
        match base.split {
            Split::Hash => parts[base.first + instance].take(),
            Split::Range => parts[base.first].as_ref()?.window(instance, base.degree),
            Split::Shared => parts[base.first].take(),
        }
    }

    /// Resolves the base operands of one execution, before its clock
    /// starts: `None` if the sets the template holds are all still
    /// resident ([`Catalog::touch`] counts a hit each, and the
    /// execution takes their parts with [`base_parts`](Self::base_parts)),
    /// otherwise every part, resolved afresh (and held for the next),
    /// counting each lookup in `metrics`. A late execution's narrow leaves
    /// are its own, partitioned privately.
    pub(crate) fn resolve_bases(
        &self,
        late: Option<&LateRewrite>,
        catalog: &Catalog,
        metrics: &mut Metrics,
    ) -> Result<Option<Vec<Option<Source>>>> {
        if let Some(late) = late {
            let mut parts = Vec::new();
            for base in &self.bases {
                let narrow = late.relations.get(&base.relation).ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("late plan lost relation {}", base.relation))
                })?;
                let fragments = fragment_columns(narrow, base.key_col, base.parts())?;
                parts.extend(fragments.iter().map(|f| Some(Source::Local(f.clone()))));
            }
            return Ok(Some(parts));
        }
        {
            let resident = lock(&self.resident);
            let names = self.bases.iter().map(|base| base.relation.as_str());
            let sets = resident.sets.iter().map(ResidentSet::held);
            if resident.sets.len() == self.bases.len() && catalog.touch(names.zip(sets)) {
                metrics.fragment_cache_hits += self.bases.len() as u64;
                return Ok(None);
            }
        }
        self.resolve(catalog, metrics).map(Some)
    }

    /// Every base operand of one execution as its instances read it — one
    /// part per base and instance, each taken by exactly one task: the
    /// parts [`resolve_bases`](Self::resolve_bases) returned, or else the
    /// template's own, taken now. (Should a set be evicted *and* dropped in
    /// between, they are resolved afresh here, and counted twice.) A
    /// filtered operand reads its fragments through its predicate, bound to
    /// `args`: its instances select their survivors when they first read
    /// it.
    pub(crate) fn base_parts(
        &self,
        resolved: Option<Vec<Option<Source>>>,
        args: &[i64],
        catalog: &Catalog,
        metrics: &mut Metrics,
    ) -> Result<Vec<Option<Source>>> {
        let held = || -> Option<Vec<Option<Source>>> {
            let resident = lock(&self.resident);
            resident.parts.iter().map(ResidentPart::upgrade).collect()
        };
        let mut parts = match resolved.or_else(held) {
            Some(parts) => parts,
            None => self.resolve(catalog, metrics)?,
        };
        if self.late.is_some() {
            return Ok(parts);
        }
        for base in &self.bases {
            let BaseKind::Filtered { predicate, params } = &base.kind else {
                continue;
            };
            let predicate = if *params {
                Arc::new(bind_predicate(predicate, args)?)
            } else {
                predicate.clone()
            };
            for part in &mut parts[base.first..base.first + base.parts()] {
                if let Some(Source::Local(fragment)) = part.take() {
                    *part = Some(Source::Filtered {
                        rows: 0..fragment.rows(),
                        fragment,
                        predicate: predicate.clone(),
                    });
                }
            }
        }
        Ok(parts)
    }

    /// Resolves every base operand to the catalog's fragments (or, for a
    /// simple join's unfiltered build side, its join tables) of the
    /// relation registered now, and holds them weakly.
    fn resolve(&self, catalog: &Catalog, metrics: &mut Metrics) -> Result<Vec<Option<Source>>> {
        let mut sets = Vec::with_capacity(self.bases.len());
        let mut parts = Vec::new();
        for base in &self.bases {
            let (name, key_col, degree) = (base.relation.as_str(), base.key_col, base.parts());
            let hit = match base.kind {
                BaseKind::Tables => {
                    let (tables, hit) = catalog.tables(name, key_col, degree)?;
                    parts.extend(tables.iter().map(|t| Some(Source::Table(t.clone()))));
                    sets.push(ResidentSet::Tables(Arc::downgrade(&tables)));
                    hit
                }
                BaseKind::Fragments | BaseKind::Filtered { .. } => {
                    let (fragments, hit) = catalog.fragments(name, key_col, degree)?;
                    parts.extend(fragments.iter().map(|f| Some(Source::Local(f.clone()))));
                    sets.push(ResidentSet::Fragments(Arc::downgrade(&fragments)));
                    hit
                }
            };
            metrics.note_fragment_lookup(hit);
        }
        let held = parts.iter().flatten().map(|part| match part {
            Source::Table(table) => ResidentPart::Table(Arc::downgrade(table)),
            Source::Local(fragment) => ResidentPart::Fragment(Arc::downgrade(fragment)),
            _ => unreachable!("a resolved base part is a fragment or a table"),
        });
        *lock(&self.resident) = Resident {
            sets,
            parts: held.collect(),
        };
        Ok(parts)
    }
}

/// Opens the stream edge from operation `from` to `consumers` consumer
/// instances, routed on `key_col`, and returns the consumer's wiring. An
/// operation streams to one consumer at most.
fn stream(
    ops: &mut [Operation],
    edges: &mut Vec<Edge>,
    from: usize,
    consumers: usize,
    key_col: usize,
) -> Result<Wiring> {
    let producer = &mut ops[from];
    if producer.out_edge.is_some() {
        return Err(RelalgError::InvalidPlan(format!(
            "op {from} has multiple stream consumers"
        )));
    }
    producer.out_edge = Some(edges.len());
    edges.push(Edge {
        producers: producer.degree,
        consumers,
        key_col,
        // The edge's buffer pool is typed with the rows it carries, so
        // its budget accounting charges real columnar bytes.
        spares: Spares::new(ColumnLayout::of(&producer.schema)),
    });
    Ok(Wiring::Stream {
        edge: edges.len() - 1,
        producers: producer.degree,
    })
}

/// The error of a plan without an operation for its root join.
pub(crate) fn no_root() -> RelalgError {
    RelalgError::InvalidPlan("plan has no root operation".into())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mj_relalg::RelationProvider;

    use crate::families::{chain_query_sql, generate_family, QueryFamily};
    use crate::session::{Database, DbConfig};

    #[test]
    fn a_statement_keeps_its_scratch_until_a_catalog_change_retires_it() {
        // Its tasks, with their buffers, and through them nothing of the
        // relations they read once the statement is gone.
        let instance = generate_family(QueryFamily::Chain, 4, 50, 1995).unwrap();
        let donor = generate_family(QueryFamily::Chain, 4, 50, 7).unwrap();
        let db = Database::open(DbConfig::default()).unwrap();
        instance.load(&db).unwrap();
        let text = format!("{} WHERE R1.id < ?1", chain_query_sql(4));
        let stmt = db.prepare(&text).unwrap();
        let run = |stmt: &Arc<_>| {
            let handle = db.execute_prepared(stmt, &[40]).unwrap();
            handle.collect().unwrap().len()
        };
        let rows = run(&stmt);
        let template = stmt.template().expect("built by the execute").clone();
        let lists = Arc::downgrade(template.kept());
        // Every task gives itself back before its last report goes out,
        // so by the outcome each slot holds one; later executes re-arm it.
        let slots = template.slots.iter().zip(&template.groups);
        let tasks: usize = slots
            .filter(|(_, group)| !group.is_empty())
            .map(|(_, group)| template.ops[*group.last().unwrap()].degree)
            .sum();
        assert!(tasks > 0);
        assert_eq!(template.kept().kept(), tasks);
        for _ in 0..3 {
            assert_eq!(run(&stmt), rows);
            assert_eq!(template.kept().kept(), tasks, "reused, not added");
        }
        drop(template);
        let old = Arc::downgrade(&db.catalog().fragments("R2", 0, 1).unwrap().0);

        // A register replaces R2: the statement re-prepares, and once its
        // stale handle is gone nothing holds the old template's scratch.
        let replacement = donor.catalog.relation("R2").unwrap();
        db.catalog().register("R2", replacement);
        run(&stmt);
        assert!(lists.upgrade().is_some(), "the stale statement holds it");
        drop(stmt);
        assert!(lists.upgrade().is_none(), "freed with its template");
        assert!(old.upgrade().is_none(), "nothing holds the old R2");
        let current = db.prepare(&text).unwrap();
        let template = current.template().expect("the re-prepared template");
        assert_eq!(template.kept().kept(), tasks, "which has its own");
    }
}
