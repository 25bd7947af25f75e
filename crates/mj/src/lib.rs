//! # multijoin — parallel evaluation of multi-join queries
//!
//! A from-scratch Rust reproduction of **Wilschut, Flokstra & Apers,
//! "Parallel Evaluation of Multi-Join Queries", SIGMOD 1995**: four
//! strategies for parallelizing a multi-join query plan (SP, SE, RD, FP),
//! evaluated on a PRISMA/DB-style shared-nothing main-memory system.
//!
//! The workspace is layered; this facade re-exports every crate under one
//! name:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`relalg`] | `mj-relalg` | schemas, tuples, relations, predicates, XRA logical plans, sequential oracle |
//! | [`storage`] | `mj-storage` | Wisconsin generator, fragmentation, catalog of resident columnar relations |
//! | [`join`] | `mj-join` | the columnar hash-join table behind the engine's simple and pipelining joins |
//! | [`plan`] | `mj-plan` | join trees, Fig. 8 shapes, the paper's cost model, phase-1 bushy DP and greedy fallback, right-deep segmentation, text query parser |
//! | [`core`] | `mj-core` | the four strategies, proportional allocation, parallel plan IR, plan generator |
//! | [`exec`] | `mj-exec` | execution engine: fixed worker pool, generic [`PhysicalOp`](exec::PhysicalOp) operator framework (joins, aggregate, limit), tuple streams, [`Database`](exec::Database) session facade, streaming [`QueryHandle`](exec::QueryHandle)s, cost-based [`Planner`](exec::Planner) that runs every WHERE predicate as a scan filter |
//! | [`sim`] | `mj-sim` | discrete-event simulator reproducing the 20–80-processor experiments |
//! | [`server`] | `mj-server` | query server: line-delimited JSON protocol over TCP, listener and connections as tasks on the engine's worker pool, metrics exposition (`mj serve`) |
//!
//! ## Quickstart
//!
//! The session facade is the whole public API: open a
//! [`Database`](exec::Database), register relations, and issue text
//! queries — selections, grouped aggregates, and limits around the
//! parallel join pipeline. The system parses, binds, plans (tree shape,
//! strategy, processor allocation, filter pushdown — §3–§4 of the paper),
//! and streams the result back:
//!
//! ```
//! use multijoin::prelude::*;
//!
//! let db = Database::open(DbConfig::default()).unwrap();
//! for (name, rel) in WisconsinGenerator::new(1000, 7).generate_named("R", 3) {
//!     db.register(name, rel).unwrap();
//! }
//! db.analyze().unwrap();
//!
//! // A plain multi-join: every row survives (unique1 is a key).
//! let result = db
//!     .query("SELECT * FROM R0 JOIN R1 ON R0.unique1 = R1.unique1 \
//!             JOIN R2 ON R1.unique1 = R2.unique1")
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! assert_eq!(result.len(), 1000);
//!
//! // WHERE pushes below the joins (scan-side filtering), GROUP BY runs
//! // as a partitioned hash aggregate above them:
//! let grouped = db
//!     .query("SELECT R0.unique2, COUNT(*), MAX(R2.unique2) \
//!             FROM R0 JOIN R1 ON R0.unique1 = R1.unique1 \
//!             JOIN R2 ON R1.unique1 = R2.unique1 \
//!             WHERE R0.unique2 < 5 GROUP BY R0.unique2")
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! assert_eq!(grouped.len(), 5, "unique2 values 0..5 survive the filter");
//! assert_eq!(grouped.schema().attr(1).unwrap().name, "count");
//! assert!(grouped.iter().all(|t| t.int(1).unwrap() == 1), "unique2 is a key");
//! ```
//!
//! Results stream: take the handle's [`ResultStream`](exec::ResultStream)
//! instead of `collect()` to consume batches while the query runs, poll
//! [`status()`](exec::QueryHandle::status), or
//! [`cancel()`](exec::QueryHandle::cancel) mid-flight — the engine
//! quiesces (every task reports, fragments reclaimed) and stays reusable.
//! A `LIMIT` ends the whole pipeline early through the same machinery:
//! the satisfied limit operator raises the query's early-stop token and
//! every upstream task winds down successfully.
//!
//! ## Advanced: the low-level pipeline
//!
//! Every stage the facade drives is public, for experiments that need to
//! hold the pieces (phase-1 tree choice, strategy costing, manual
//! bindings):
//!
//! ```
//! use multijoin::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Data: five Wisconsin relations of 1 000 tuples.
//! let catalog = Arc::new(Catalog::new());
//! for (name, rel) in WisconsinGenerator::new(1000, 7).generate_named("R", 5) {
//!     catalog.register(name, rel);
//! }
//!
//! // 2. Phase 1: the minimal-total-cost join tree.
//! let graph = QueryGraph::regular_chain(5, 1000).unwrap();
//! let plan1 = optimize_bushy(&graph, &CostModel::default()).unwrap();
//!
//! // 3. Phase 2: parallelize with Full Parallel on 4 processors.
//! let costs = tree_costs(&plan1.tree, &plan1.node_cards, &CostModel::default());
//! let input = GeneratorInput::new(&plan1.tree, &plan1.node_cards, &costs, 4);
//! let plan2 = generate(Strategy::FP, &input).unwrap();
//!
//! // 4. Execute on real threads: `run_plan` is `Engine::run` on an engine
//! //    made for the call (hold an `Engine` to run many queries).
//! let binding = QueryBinding::regular(&plan1.tree, catalog.as_ref()).unwrap();
//! let outcome = run_plan(&plan2, &binding, catalog.clone(), &ExecConfig::default()).unwrap();
//! assert_eq!(outcome.relation.len(), 1000);
//! ```

#![warn(missing_docs)]

pub use mj_core as core;
pub use mj_exec as exec;
pub use mj_join as join;
pub use mj_plan as plan;
pub use mj_relalg as relalg;
pub use mj_server as server;
pub use mj_sim as sim;
pub use mj_storage as storage;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mj_core::{
        estimate_schedule, generate, proportional_counts, validate_plan, GeneratorInput,
        OperandSource, ParallelPlan, PlanOp, ScheduleModel, Strategy,
    };
    pub use mj_exec::{
        generate_family, query_from_catalog, run_plan, Database, DbConfig, Engine, ExecConfig,
        MjError, MjResult, PhysicalOp, PipelineStage, PlannedQuery, Planner, PlannerOptions,
        QueryBinding, QueryFamily, QueryHandle, QueryOutcome, QueryStatus, ResultStream, StageKind,
        WorkerPool,
    };
    pub use mj_plan::cost::tree_costs;
    pub use mj_plan::{
        greedy_tree, lower, optimize_bushy, parse_query, segments, CostModel, JoinQuery, JoinTree,
        ParseError, QueryAst, QueryGraph, Shape, Span, UniformOneToOne,
    };
    pub use mj_relalg::{
        Attribute, DataType, EquiJoin, JoinAlgorithm, Predicate, Projection, Relation,
        RelationProvider, Schema, Tuple, Value, XraNode,
    };
    pub use mj_sim::{run_scenario, simulate, Scenario, SimParams};
    pub use mj_storage::{Catalog, PayloadMode, WisconsinGenerator};
}
