//! The real parallel execution engine — a PRISMA/DB query-execution-engine
//! analogue on host threads.
//!
//! The engine interprets the same [`mj_core::plan_ir::ParallelPlan`] the
//! simulator consumes, but physically: every operation process is a
//! cooperative task multiplexed onto a **fixed worker pool**
//! ([`sched::WorkerPool`], the paper's §4 processor set) shared by all
//! in-flight queries, tuple streams are bounded edges ([`stream`]; n×m
//! per redistribution, exactly as §3.5 counts them), base relations are
//! pre-fragmented "ideally" per §4.1, and a materialized intermediate goes
//! from its producer instances to its consumer instances inside the
//! query's run, one piece per consumer instance, and dies with the run.
//!
//! A task that would block on a stream registers its waker on that edge and
//! leaves the run queue instead of parking a thread; the edge's next event
//! puts it back. So the pool runs any number of concurrent queries on
//! `ExecConfig::workers` OS threads total, and no thread polls. The
//! [`Engine`] facade is the concurrent entry point: build it once over a
//! shared catalog, call [`Engine::run`] from as many threads as you like.
//!
//! On a laptop-class host this engine cannot demonstrate 80-way speedups —
//! its purpose is (a) to prove the four strategies are real, runnable
//! dataflows, (b) to validate that every strategy returns exactly the
//! sequential evaluator's result, and (c) to cross-check the simulator's
//! relative orderings at small processor counts.
//!
//! The [`planner`] module closes the loop upstream: it takes an arbitrary
//! equi-join [`mj_plan::query::JoinQuery`], picks the join tree in phase 1
//! (bushy DP, greedy past the pair budget), costs all four strategies
//! (with processor allocation) under the analytic schedule model, and
//! lowers the winner into a `ParallelPlan` + [`QueryBinding`] ready for
//! [`Engine::run`].
//!
//! The [`session`] module is the public front door over all of it:
//! [`Database::open`](session::Database::open) +
//! [`register`](session::Database::register) +
//! [`query`](session::Database::query) parse a text query, bind it against
//! the catalog, plan it, and return a cancellable [`QueryHandle`] whose
//! [`ResultStream`] delivers batches while the query runs — no
//! `QueryGraph`/`generate`/`QueryBinding` assembly in user code.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod binding;
pub mod budget;
pub mod config;
pub mod engine;
pub mod families;
#[cfg(feature = "faults")]
pub mod faults;
pub mod handle;
mod late;
pub mod metrics;
pub mod operator;
pub mod planner;
mod poll;
pub mod sched;
pub mod session;
pub mod source;
pub mod stream;
mod template;

pub use binding::{PipelineStage, QueryBinding, StageKind};
pub use budget::MemoryBudget;
pub use config::{ExecConfig, LateMode, QueryOptions};
pub use engine::{run_plan, Engine, ExecOutcome};
pub use families::{chain_query_sql, generate_family, star_query_sql, FamilyInstance, QueryFamily};
#[cfg(feature = "faults")]
pub use faults::{FaultKind, FaultPlan, FaultPoint};
pub use handle::{BatchPoll, QueryHandle, QueryOutcome, QueryStatus, ResultStream};
pub use metrics::{
    EngineStats, LatencyHistogram, MetricDef, MetricKind, Metrics, OpMetrics, OpMetricsKind,
    Sample, LATENCY_BUCKET_BOUNDS_MS, METRICS_ACCEPT_LIST,
};
pub use operator::{
    AggregateOp, InputMode, LimitOp, OpTask, PhysicalOp, PipeliningJoinOp, SimpleJoinOp,
};
pub use planner::{PlanChoice, PlannedQuery, Planner, PlannerOptions};
pub use sched::WorkerPool;
pub use session::{Database, DbConfig, MjError, MjResult, PreparedStatement, PLAN_CACHE_CAPACITY};
pub use template::RunTemplate;
