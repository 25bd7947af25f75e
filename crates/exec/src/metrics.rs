//! Execution metrics: per-operation aggregates, engine-lifetime counters,
//! and the accept-listed metrics registry the query server exports.
//!
//! Three layers, coarsest last:
//!
//! * [`OpMetrics`] / [`Metrics`] — one query's per-operator aggregates
//!   (tuples, bytes, scheduler steps), attached to its outcome.
//! * [`EngineStats`] — engine-lifetime counters (completions, rejections,
//!   guardrail aborts) plus fixed-bucket latency histograms, snapshotted
//!   **atomically consistently**: the backing `counters::EngineCounters`
//!   keeps every per-query-grain counter under one mutex, so a snapshot
//!   taken while N threads hammer queries always satisfies
//!   `completed + failed + canceled + rejected <= submitted`.
//! * [`MetricsSnapshot`] — the accept-listed export surface
//!   ([`METRICS_ACCEPT_LIST`]): only vetted counters/gauges/histograms
//!   leave the process, rendered as Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`]) or JSON (serde), following the
//!   accept-list registry design of production query engines.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// What kind of operator a metrics row describes. The join DAG's ops are
/// [`Join`](OpMetricsKind::Join); the post-join pipeline stages carry
/// their own kinds so `explain()` and the cardinality report name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpMetricsKind {
    /// A hash equi-join of the plan tree.
    Join,
    /// A residual selection stage.
    Filter,
    /// A partitioned GROUP BY stage.
    Aggregate,
    /// A LIMIT stage.
    Limit,
}

impl OpMetricsKind {
    /// Short lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            OpMetricsKind::Join => "join",
            OpMetricsKind::Filter => "filter",
            OpMetricsKind::Aggregate => "aggregate",
            OpMetricsKind::Limit => "limit",
        }
    }
}

// Not `#[derive(Default)]`: the offline serde shim's derive cannot parse
// a `#[default]` attribute inside the enum body.
#[allow(clippy::derivable_impls)]
impl Default for OpMetricsKind {
    fn default() -> Self {
        OpMetricsKind::Join
    }
}

/// Per-operation aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpMetrics {
    /// What kind of operator this row describes.
    pub kind: OpMetricsKind,
    /// Operation processes spawned (= plan degree).
    pub instances: usize,
    /// Tuples consumed on the (left, right) operand across instances.
    pub tuples_in: [u64; 2],
    /// Result tuples produced across instances.
    pub tuples_out: u64,
    /// Peak hash-table bytes summed across instances.
    pub table_bytes: u64,
    /// The planner's estimated result cardinality for this op (copied from
    /// the plan), so estimated-vs-actual plan quality is observable next
    /// to `tuples_out`.
    pub est_out: u64,
}

impl OpMetrics {
    /// The q-error of the planner's cardinality estimate for this op:
    /// `max(est, actual) / min(est, actual)`, the standard symmetric
    /// plan-quality metric (1.0 = perfect). Zero-vs-nonzero counts as the
    /// worst case (`f64::INFINITY`); 0 vs 0 is perfect.
    pub fn q_error(&self) -> f64 {
        let (est, act) = (self.est_out as f64, self.tuples_out as f64);
        let (lo, hi) = if est <= act { (est, act) } else { (act, est) };
        if hi == 0.0 {
            1.0
        } else if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

/// Whole-query metrics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Indexed by op id.
    pub ops: Vec<OpMetrics>,
    /// Total operation processes spawned — the startup driver (§3.5).
    pub processes: usize,
    /// Total point-to-point streams opened — the coordination driver.
    pub streams: usize,
    /// Operations that ran inside another operation's process (fused by
    /// the plan): they are not in `processes`, opened no stream, and keep
    /// their own row in `ops`.
    pub fused_ops: usize,
    /// Scheduler steps taken by this query's tasks on the worker pool.
    pub sched_steps: u64,
    /// Steps that could not progress (channel empty/full) and yielded the
    /// worker instead of parking a thread.
    pub sched_blocked: u64,
    /// Peak bytes charged against this query's memory budget (hash-build
    /// state, pooled batch buffers, materialized fragments).
    pub peak_bytes: u64,
    /// Operator-task panics contained (converted into a query-scoped typed
    /// error) while this query ran.
    pub panics_contained: u64,
    /// Base-operand fragment sets this query found resident in the
    /// engine's fragment cache.
    pub fragment_cache_hits: u64,
    /// Base-operand fragment sets this query had to build (and left in the
    /// cache): zero means the query ran warm.
    pub fragment_cache_built: u64,
}

impl Metrics {
    /// Creates zeroed metrics for `ops` operations.
    pub fn new(ops: usize) -> Self {
        Metrics {
            ops: vec![OpMetrics::default(); ops],
            ..Metrics::default()
        }
    }

    /// Counts one fragment-cache lookup made while setting this query up.
    pub(crate) fn note_fragment_lookup(&mut self, hit: bool) {
        if hit {
            self.fragment_cache_hits += 1;
        } else {
            self.fragment_cache_built += 1;
        }
    }

    /// Total tuples produced by all ops.
    pub fn total_tuples_out(&self) -> u64 {
        self.ops.iter().map(|o| o.tuples_out).sum()
    }

    /// Worst per-op cardinality q-error across the plan (1.0 = every
    /// estimate exact). The single number to watch for planner quality.
    pub fn max_q_error(&self) -> f64 {
        self.ops.iter().map(|o| o.q_error()).fold(1.0, f64::max)
    }

    /// Estimated-vs-actual result cardinality per op: `(op id, estimated,
    /// actual)` rows, ready for display.
    pub fn cardinality_report(&self) -> Vec<(usize, u64, u64)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(id, o)| (id, o.est_out, o.tuples_out))
            .collect()
    }
}

/// What one instance reports back on completion.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstanceStats {
    /// Tuples consumed per side.
    pub tuples_in: [u64; 2],
    /// Result tuples produced.
    pub tuples_out: u64,
    /// Peak hash-table bytes of this instance.
    pub table_bytes: u64,
    /// Scheduler steps this instance ran for.
    pub steps: u64,
    /// Steps that ended blocked (yielded the worker without progress).
    pub blocked: u64,
}

/// Upper bounds, in milliseconds, of the fixed latency histogram buckets.
/// An observation lands in the first bucket whose bound it does not
/// exceed; anything above the last bound lands in the overflow (`+Inf`)
/// bucket, so [`LatencyHistogram`] has `LATENCY_BUCKETS` = 12 buckets
/// total. The bounds are fixed at compile time — Prometheus histograms
/// require stable buckets across scrapes.
pub const LATENCY_BUCKET_BOUNDS_MS: [u64; 11] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000];

/// Number of buckets in a [`LatencyHistogram`]: the bounded buckets of
/// [`LATENCY_BUCKET_BOUNDS_MS`] plus the overflow (`+Inf`) bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_MS.len() + 1;

/// A fixed-bucket latency histogram (`Copy`, no allocation): per-bucket
/// observation counts plus the running sum, exactly the data a Prometheus
/// histogram exposition needs. Buckets are **non-cumulative** here;
/// [`MetricsSnapshot::to_prometheus`] accumulates them into the `le`
/// form at render time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Observations per bucket (index `i` < the bound
    /// `LATENCY_BUCKET_BOUNDS_MS[i]`; the last index is overflow).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all observations, in microseconds (integral so the
    /// histogram stays `Eq` and exactly mergeable).
    pub sum_us: u64,
    /// Total observations; always equals `buckets.iter().sum()`.
    pub count: u64,
}

impl LatencyHistogram {
    /// The bucket index a duration of `us` microseconds falls into.
    fn bucket_index(us: u64) -> usize {
        let ms = us.div_ceil(1000);
        LATENCY_BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_index(us)] += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.count += 1;
    }

    /// Sum of all observations in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_us as f64 / 1000.0
    }

    /// Mean observation in milliseconds (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms() / self.count as f64
        }
    }
}

/// Engine-lifetime robustness counters, snapshotted by `Engine::stats()` /
/// `Database::stats()`. Every count is cumulative since the engine opened.
///
/// The snapshot is **atomically consistent**: all per-query-grain fields
/// are read under one lock, so the sum of the terminal-outcome counters
/// (`queries_completed`, `queries_failed`, `queries_canceled`,
/// `queries_timed_out`, `queries_stalled`, `budget_aborts`,
/// `queries_rejected`) never exceeds `queries_submitted` in any snapshot,
/// even one taken mid-hammer from another thread. (The process-global
/// batch pool / SIMD tallies are independent relaxed counters and carry
/// no such cross-field invariant.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Queries ever submitted, **including** ones admission control
    /// rejected — so the terminal-outcome counters below always sum to at
    /// most this.
    pub queries_submitted: u64,
    /// Queries admitted and currently running (gauge, not cumulative).
    pub queries_active: u64,
    /// Queries that completed successfully.
    pub queries_completed: u64,
    /// Queries that ended in client cancellation.
    pub queries_canceled: u64,
    /// Queries that failed with an execution error not counted elsewhere.
    pub queries_failed: u64,
    /// Queries rejected by admission control (`Overloaded`).
    pub queries_rejected: u64,
    /// Queries aborted for exceeding their deadline (`DeadlineExceeded`).
    pub queries_timed_out: u64,
    /// Queries aborted by their stall check (`Stalled`).
    pub queries_stalled: u64,
    /// Queries aborted for exceeding their memory budget
    /// (`ResourceExhausted`).
    pub budget_aborts: u64,
    /// Operator-task panics contained across all queries.
    pub panics_contained: u64,
    /// Operation processes started by the queries in `queries_completed`
    /// (a process group of fused operations counts once): over that
    /// counter, the processes a query costs.
    pub operation_processes: u64,
    /// Largest per-query peak of budget-charged bytes observed.
    pub peak_bytes: u64,
    /// Wall-clock duration of every query that reached a terminal state
    /// (success or typed failure), submission to conclusion. The
    /// bucket counts sum to `queries_total()` exactly.
    pub query_duration: LatencyHistogram,
    /// End-to-end time from submission to the *client* pulling the first
    /// result batch off the stream — the latency a caller actually feels,
    /// recorded client-side in `ResultStream`. Queries whose stream never
    /// delivered a batch (empty result, error before output) are absent.
    pub time_to_first_batch: LatencyHistogram,
    /// Worker threads currently executing a task step (gauge; filled by
    /// `Engine::stats()` from the pool, zero in bare counter snapshots).
    pub workers_busy: u64,
    /// Worker threads in the engine's fixed pool.
    pub workers_total: u64,
    /// Batch-pool buffer takes across every redistribution edge (process
    /// lifetime; pair with `batch_pool_misses` for the pool hit rate).
    pub batch_pool_takes: u64,
    /// Batch-pool takes that had to allocate because the pool was empty.
    pub batch_pool_misses: u64,
    /// Join output rows materialized by gather emission. Late
    /// materialization exists to shrink this: ref-carrying joins gather
    /// key+ref rows instead of full payloads.
    pub gather_rows: u64,
    /// Hot-path kernel calls dispatched to an explicit SIMD body (scalar
    /// fallbacks are not counted).
    pub simd_kernel_dispatches: u64,
    /// Prepared-statement plan-cache lookups served from the cache
    /// (process lifetime; pair with `plan_cache_misses` for the hit rate).
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to re-plan: cold entries, capacity
    /// evictions, and catalog-generation invalidations all land here.
    pub plan_cache_misses: u64,
    /// Plan-cache entries evicted (LRU capacity pressure or staleness
    /// replacement after a catalog mutation).
    pub plan_cache_evictions: u64,
    /// Duration of every cost-based planning run (`Database::plan`, ad-hoc
    /// queries, `prepare` on a cache miss) — bind excluded, cache hits
    /// absent. Filled by `Database::stats()`; empty in engine-only
    /// snapshots, which plan nothing.
    pub plan_duration: LatencyHistogram,
    /// Base-operand lookups the engine's fragment cache served resident
    /// (filled, like the three below, by `Engine::stats()` from the cache;
    /// zero in bare counter snapshots).
    pub fragment_cache_hits: u64,
    /// Fragment-cache lookups that had to build: cold keys, evicted
    /// variants, and relations replaced under their name.
    pub fragment_cache_misses: u64,
    /// Cached fragment sets dropped (variant cap or replaced relation).
    pub fragment_cache_evictions: u64,
    /// Logical bytes resident in the fragment cache (gauge).
    pub fragment_cache_bytes: u64,
}

impl EngineStats {
    /// Queries that reached a terminal state: completed, canceled, failed,
    /// timed out, stalled, or budget-aborted. Rejected submissions never
    /// ran and are not included. This is the `mj_queries_total` metric,
    /// and `query_duration.count` equals it exactly.
    pub fn queries_total(&self) -> u64 {
        self.queries_completed
            + self.queries_canceled
            + self.queries_failed
            + self.queries_timed_out
            + self.queries_stalled
            + self.budget_aborts
    }

    /// Batch-pool hit rate in `[0, 1]` (1.0 when no takes yet).
    pub fn batch_pool_hit_rate(&self) -> f64 {
        if self.batch_pool_takes == 0 {
            1.0
        } else {
            1.0 - self.batch_pool_misses as f64 / self.batch_pool_takes as f64
        }
    }
}

/// The type of an accept-listed metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
    /// Fixed-bucket distribution ([`LatencyHistogram`]).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prometheus_type(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One entry of the metrics accept list: name, type, help text.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Exported metric name (Prometheus conventions: `mj_` prefix,
    /// `_total` suffix on counters).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line help text (`# HELP`).
    pub help: &'static str,
}

/// The metrics accept list: **only** these series are exported, in this
/// order. New telemetry must be added here deliberately — nothing else
/// leaves the process, which is what keeps the export surface reviewable
/// (the accept-list registry pattern of production query engines).
pub const METRICS_ACCEPT_LIST: &[MetricDef] = &[
    MetricDef {
        name: "mj_queries_total",
        kind: MetricKind::Counter,
        help: "Queries that reached a terminal state (any outcome)",
    },
    MetricDef {
        name: "mj_queries_submitted_total",
        kind: MetricKind::Counter,
        help: "Queries ever submitted, including admission rejections",
    },
    MetricDef {
        name: "mj_queries_active",
        kind: MetricKind::Gauge,
        help: "Queries admitted and currently running",
    },
    MetricDef {
        name: "mj_queries_completed_total",
        kind: MetricKind::Counter,
        help: "Queries that completed successfully",
    },
    MetricDef {
        name: "mj_operation_processes_total",
        kind: MetricKind::Counter,
        help: "Operation processes started by completed queries (fused operations share one)",
    },
    MetricDef {
        name: "mj_queries_canceled_total",
        kind: MetricKind::Counter,
        help: "Queries canceled by the client",
    },
    MetricDef {
        name: "mj_queries_failed_total",
        kind: MetricKind::Counter,
        help: "Queries that failed with an execution error",
    },
    MetricDef {
        name: "mj_queries_timed_out_total",
        kind: MetricKind::Counter,
        help: "Queries aborted past their deadline",
    },
    MetricDef {
        name: "mj_queries_stalled_total",
        kind: MetricKind::Counter,
        help: "Queries aborted by their stall check",
    },
    MetricDef {
        name: "mj_budget_aborts_total",
        kind: MetricKind::Counter,
        help: "Queries aborted for exceeding their memory budget",
    },
    MetricDef {
        name: "mj_admission_rejected_total",
        kind: MetricKind::Counter,
        help: "Submissions rejected by admission control (Overloaded)",
    },
    MetricDef {
        name: "mj_query_duration_ms",
        kind: MetricKind::Histogram,
        help: "Per-query wall-clock duration, submission to terminal state",
    },
    MetricDef {
        name: "mj_time_to_first_batch_ms",
        kind: MetricKind::Histogram,
        help: "Submission to the client pulling the first result batch",
    },
    MetricDef {
        name: "mj_worker_busy",
        kind: MetricKind::Gauge,
        help: "Worker threads currently executing a task step",
    },
    MetricDef {
        name: "mj_worker_idle",
        kind: MetricKind::Gauge,
        help: "Worker threads not currently executing a task step",
    },
    MetricDef {
        name: "mj_batch_pool_hit_rate",
        kind: MetricKind::Gauge,
        help: "Fraction of batch-pool takes served without allocating",
    },
    MetricDef {
        name: "mj_batch_pool_takes_total",
        kind: MetricKind::Counter,
        help: "Batch-pool buffer takes (process lifetime)",
    },
    MetricDef {
        name: "mj_batch_pool_misses_total",
        kind: MetricKind::Counter,
        help: "Batch-pool takes that had to allocate",
    },
    MetricDef {
        name: "mj_gather_rows_total",
        kind: MetricKind::Counter,
        help: "Join output rows materialized by gather emission",
    },
    MetricDef {
        name: "mj_simd_kernel_dispatches_total",
        kind: MetricKind::Counter,
        help: "Hot-path kernel calls dispatched to a SIMD body",
    },
    MetricDef {
        name: "mj_plan_cache_hits_total",
        kind: MetricKind::Counter,
        help: "Prepared-statement plan-cache lookups served from cache",
    },
    MetricDef {
        name: "mj_plan_cache_misses_total",
        kind: MetricKind::Counter,
        help: "Plan-cache lookups that re-planned (cold, evicted, or stale)",
    },
    MetricDef {
        name: "mj_plan_cache_evictions_total",
        kind: MetricKind::Counter,
        help: "Plan-cache entries evicted (LRU capacity or staleness)",
    },
    MetricDef {
        name: "mj_plan_duration_seconds",
        kind: MetricKind::Histogram,
        help: "Cost-based planning time per plan built (cache hits plan nothing)",
    },
    MetricDef {
        name: "mj_fragment_cache_hits_total",
        kind: MetricKind::Counter,
        help: "Base-operand fragment lookups served resident",
    },
    MetricDef {
        name: "mj_fragment_cache_misses_total",
        kind: MetricKind::Counter,
        help: "Fragment lookups that built (cold, evicted, or relation replaced)",
    },
    MetricDef {
        name: "mj_fragment_cache_evictions_total",
        kind: MetricKind::Counter,
        help: "Cached fragment sets dropped (variant cap or replaced relation)",
    },
    MetricDef {
        name: "mj_fragment_cache_bytes",
        kind: MetricKind::Gauge,
        help: "Logical bytes of resident columnar base fragments",
    },
    MetricDef {
        name: "mj_panics_contained_total",
        kind: MetricKind::Counter,
        help: "Operator-task panics contained across all queries",
    },
    MetricDef {
        name: "mj_peak_bytes",
        kind: MetricKind::Gauge,
        help: "Largest per-query peak of budget-charged bytes",
    },
];

/// A rendered histogram in the metrics export: finite bucket bounds (ms),
/// per-bucket counts (one longer than the bounds — the last entry is the
/// overflow bucket; JSON has no `+Inf`), sum and count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds in milliseconds.
    pub bounds_ms: Vec<u64>,
    /// Non-cumulative per-bucket counts; `counts.len() == bounds_ms.len()
    /// + 1`, the extra entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations in milliseconds.
    pub sum_ms: f64,
    /// Total observations.
    pub count: u64,
}

impl From<&LatencyHistogram> for HistogramSnapshot {
    fn from(h: &LatencyHistogram) -> Self {
        HistogramSnapshot {
            bounds_ms: LATENCY_BUCKET_BOUNDS_MS.to_vec(),
            counts: h.buckets.to_vec(),
            sum_ms: h.sum_ms(),
            count: h.count,
        }
    }
}

/// The accept-listed metrics export, built from one consistent
/// [`EngineStats`] snapshot by `Engine::metrics_snapshot()` /
/// `Database::metrics_snapshot()`. Serializes to JSON via serde; renders
/// Prometheus text via [`to_prometheus`](Self::to_prometheus). The field
/// set mirrors [`METRICS_ACCEPT_LIST`] exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `mj_queries_total`.
    pub queries_total: u64,
    /// `mj_queries_submitted_total`.
    pub queries_submitted: u64,
    /// `mj_queries_active`.
    pub queries_active: u64,
    /// `mj_queries_completed_total`.
    pub queries_completed: u64,
    /// `mj_operation_processes_total`.
    pub operation_processes: u64,
    /// `mj_queries_canceled_total`.
    pub queries_canceled: u64,
    /// `mj_queries_failed_total`.
    pub queries_failed: u64,
    /// `mj_queries_timed_out_total`.
    pub queries_timed_out: u64,
    /// `mj_queries_stalled_total`.
    pub queries_stalled: u64,
    /// `mj_budget_aborts_total`.
    pub budget_aborts: u64,
    /// `mj_admission_rejected_total`.
    pub admission_rejected: u64,
    /// `mj_query_duration_ms`.
    pub query_duration_ms: HistogramSnapshot,
    /// `mj_time_to_first_batch_ms`.
    pub time_to_first_batch_ms: HistogramSnapshot,
    /// `mj_worker_busy`.
    pub worker_busy: u64,
    /// `mj_worker_idle`.
    pub worker_idle: u64,
    /// `mj_batch_pool_hit_rate`.
    pub batch_pool_hit_rate: f64,
    /// `mj_batch_pool_takes_total`.
    pub batch_pool_takes: u64,
    /// `mj_batch_pool_misses_total`.
    pub batch_pool_misses: u64,
    /// `mj_gather_rows_total`.
    pub gather_rows: u64,
    /// `mj_simd_kernel_dispatches_total`.
    pub simd_kernel_dispatches: u64,
    /// `mj_plan_cache_hits_total`.
    pub plan_cache_hits: u64,
    /// `mj_plan_cache_misses_total`.
    pub plan_cache_misses: u64,
    /// `mj_plan_cache_evictions_total`.
    pub plan_cache_evictions: u64,
    /// `mj_plan_duration_seconds` (the snapshot itself is in milliseconds,
    /// like every [`HistogramSnapshot`]; the Prometheus rendering converts).
    pub plan_duration_seconds: HistogramSnapshot,
    /// `mj_fragment_cache_hits_total`.
    pub fragment_cache_hits: u64,
    /// `mj_fragment_cache_misses_total`.
    pub fragment_cache_misses: u64,
    /// `mj_fragment_cache_evictions_total`.
    pub fragment_cache_evictions: u64,
    /// `mj_fragment_cache_bytes`.
    pub fragment_cache_bytes: u64,
    /// `mj_panics_contained_total`.
    pub panics_contained: u64,
    /// `mj_peak_bytes`.
    pub peak_bytes: u64,
}

impl MetricsSnapshot {
    /// Builds the accept-listed export from one consistent stats snapshot.
    pub fn from_stats(stats: &EngineStats) -> Self {
        MetricsSnapshot {
            queries_total: stats.queries_total(),
            queries_submitted: stats.queries_submitted,
            queries_active: stats.queries_active,
            queries_completed: stats.queries_completed,
            queries_canceled: stats.queries_canceled,
            queries_failed: stats.queries_failed,
            queries_timed_out: stats.queries_timed_out,
            queries_stalled: stats.queries_stalled,
            budget_aborts: stats.budget_aborts,
            admission_rejected: stats.queries_rejected,
            query_duration_ms: HistogramSnapshot::from(&stats.query_duration),
            time_to_first_batch_ms: HistogramSnapshot::from(&stats.time_to_first_batch),
            worker_busy: stats.workers_busy,
            worker_idle: stats.workers_total.saturating_sub(stats.workers_busy),
            batch_pool_hit_rate: stats.batch_pool_hit_rate(),
            batch_pool_takes: stats.batch_pool_takes,
            batch_pool_misses: stats.batch_pool_misses,
            operation_processes: stats.operation_processes,
            gather_rows: stats.gather_rows,
            simd_kernel_dispatches: stats.simd_kernel_dispatches,
            plan_cache_hits: stats.plan_cache_hits,
            plan_cache_misses: stats.plan_cache_misses,
            plan_cache_evictions: stats.plan_cache_evictions,
            plan_duration_seconds: HistogramSnapshot::from(&stats.plan_duration),
            fragment_cache_hits: stats.fragment_cache_hits,
            fragment_cache_misses: stats.fragment_cache_misses,
            fragment_cache_evictions: stats.fragment_cache_evictions,
            fragment_cache_bytes: stats.fragment_cache_bytes,
            panics_contained: stats.panics_contained,
            peak_bytes: stats.peak_bytes,
        }
    }

    /// The value of one scalar (counter/gauge) accept-list metric by
    /// exported name; `None` for histograms and unknown names.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        Some(match name {
            "mj_queries_total" => self.queries_total as f64,
            "mj_queries_submitted_total" => self.queries_submitted as f64,
            "mj_queries_active" => self.queries_active as f64,
            "mj_queries_completed_total" => self.queries_completed as f64,
            "mj_queries_canceled_total" => self.queries_canceled as f64,
            "mj_queries_failed_total" => self.queries_failed as f64,
            "mj_queries_timed_out_total" => self.queries_timed_out as f64,
            "mj_queries_stalled_total" => self.queries_stalled as f64,
            "mj_budget_aborts_total" => self.budget_aborts as f64,
            "mj_admission_rejected_total" => self.admission_rejected as f64,
            "mj_worker_busy" => self.worker_busy as f64,
            "mj_worker_idle" => self.worker_idle as f64,
            "mj_batch_pool_hit_rate" => self.batch_pool_hit_rate,
            "mj_batch_pool_takes_total" => self.batch_pool_takes as f64,
            "mj_batch_pool_misses_total" => self.batch_pool_misses as f64,
            "mj_operation_processes_total" => self.operation_processes as f64,
            "mj_gather_rows_total" => self.gather_rows as f64,
            "mj_simd_kernel_dispatches_total" => self.simd_kernel_dispatches as f64,
            "mj_plan_cache_hits_total" => self.plan_cache_hits as f64,
            "mj_plan_cache_misses_total" => self.plan_cache_misses as f64,
            "mj_plan_cache_evictions_total" => self.plan_cache_evictions as f64,
            "mj_fragment_cache_hits_total" => self.fragment_cache_hits as f64,
            "mj_fragment_cache_misses_total" => self.fragment_cache_misses as f64,
            "mj_fragment_cache_evictions_total" => self.fragment_cache_evictions as f64,
            "mj_fragment_cache_bytes" => self.fragment_cache_bytes as f64,
            "mj_panics_contained_total" => self.panics_contained as f64,
            "mj_peak_bytes" => self.peak_bytes as f64,
            _ => return None,
        })
    }

    /// The histogram behind an accept-list histogram metric name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match name {
            "mj_query_duration_ms" => Some(&self.query_duration_ms),
            "mj_time_to_first_batch_ms" => Some(&self.time_to_first_batch_ms),
            "mj_plan_duration_seconds" => Some(&self.plan_duration_seconds),
            _ => None,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` per series, cumulative `_bucket{le=...}` lines
    /// (including `+Inf`) plus `_sum` / `_count` for histograms — in the
    /// unit the series name ends in (`_ms` or `_seconds`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for def in METRICS_ACCEPT_LIST {
            out.push_str(&format!("# HELP {} {}\n", def.name, def.help));
            out.push_str(&format!(
                "# TYPE {} {}\n",
                def.name,
                def.kind.prometheus_type()
            ));
            match def.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    let v = self
                        .scalar(def.name)
                        .expect("accept-list scalar metric must resolve");
                    out.push_str(&format!("{} {}\n", def.name, fmt_value(v)));
                }
                MetricKind::Histogram => {
                    let h = self
                        .histogram(def.name)
                        .expect("accept-list histogram metric must resolve");
                    let per_unit = if def.name.ends_with("_seconds") {
                        1000.0
                    } else {
                        1.0
                    };
                    let mut cum = 0u64;
                    for (i, &bound) in h.bounds_ms.iter().enumerate() {
                        cum += h.counts[i];
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            def.name,
                            fmt_value(bound as f64 / per_unit),
                            cum
                        ));
                    }
                    cum += h.counts.last().copied().unwrap_or(0);
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", def.name, cum));
                    // Whole microseconds, divided once: `0.000636`, not
                    // the `0.0006360000000000001` of `sum_ms / 1000`.
                    let sum = fmt_value((h.sum_ms * 1e3).round() / (1e3 * per_unit));
                    out.push_str(&format!("{}_sum {sum}\n", def.name));
                    out.push_str(&format!("{}_count {}\n", def.name, h.count));
                }
            }
        }
        out
    }
}

/// Prometheus sample formatting: integral values render without a
/// fractional part, everything else as plain decimal.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub(crate) mod counters {
    //! Consistent backing store for [`EngineStats`](super::EngineStats).
    //!
    //! One mutex guards every per-query-grain counter, so `snapshot()`
    //! returns an atomically consistent view (the invariant the stats
    //! hammer test checks). Updates happen once per query lifecycle event
    //! — submission, rejection, first batch, terminal record — so the lock
    //! is uncontended relative to tuple work; per-tuple tallies (batch
    //! pool, SIMD dispatches) remain process-global relaxed atomics and
    //! are folded in at snapshot time.

    use super::{EngineStats, LatencyHistogram};
    use crate::handle::QueryOutcome;
    use mj_relalg::{RelalgError, Result};
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    /// The mutex-guarded counter cells.
    #[derive(Debug, Default)]
    struct Cells {
        submitted: u64,
        active: u64,
        completed: u64,
        canceled: u64,
        failed: u64,
        rejected: u64,
        timed_out: u64,
        stalled: u64,
        budget_aborts: u64,
        panics_contained: u64,
        operation_processes: u64,
        peak_bytes: u64,
        query_duration: LatencyHistogram,
        time_to_first_batch: LatencyHistogram,
    }

    /// Shared counters owned by the engine; the submission path and each
    /// query's conclusion record into them.
    #[derive(Debug, Default)]
    pub struct EngineCounters {
        cells: Mutex<Cells>,
    }

    impl EngineCounters {
        fn lock(&self) -> std::sync::MutexGuard<'_, Cells> {
            self.cells.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Counts one submission attempt (before admission control, so
        /// rejected submissions are included in `queries_submitted`).
        pub fn note_submitted(&self) {
            self.lock().submitted += 1;
        }

        /// Counts one admission rejection (`Overloaded`).
        pub fn note_rejected(&self) {
            self.lock().rejected += 1;
        }

        /// Counts one admitted query entering execution (raises the
        /// `queries_active` gauge; `record` lowers it).
        pub fn note_started(&self) {
            self.lock().active += 1;
        }

        /// Records the client pulling the first result batch `ttfb` after
        /// submission.
        pub fn note_first_batch(&self, ttfb: Duration) {
            self.lock().time_to_first_batch.observe(ttfb);
        }

        /// Classifies one finished query's result into the counters and
        /// observes its wall-clock duration.
        pub fn record(
            &self,
            result: &Result<QueryOutcome>,
            panics: u64,
            peak: u64,
            took: Duration,
        ) {
            let mut c = self.lock();
            c.active = c.active.saturating_sub(1);
            c.panics_contained += panics;
            c.peak_bytes = c.peak_bytes.max(peak);
            c.query_duration.observe(took);
            match result {
                Ok(outcome) => {
                    c.completed += 1;
                    c.operation_processes += outcome.metrics.processes as u64;
                }
                Err(RelalgError::Canceled) => c.canceled += 1,
                Err(RelalgError::DeadlineExceeded) => c.timed_out += 1,
                Err(RelalgError::Stalled(_)) => c.stalled += 1,
                Err(RelalgError::ResourceExhausted { .. }) => c.budget_aborts += 1,
                Err(_) => c.failed += 1,
            }
        }

        /// One atomically consistent snapshot: every per-query counter is
        /// read under the same lock acquisition.
        pub fn snapshot(&self) -> EngineStats {
            let c = self.lock();
            EngineStats {
                queries_submitted: c.submitted,
                queries_active: c.active,
                queries_completed: c.completed,
                queries_canceled: c.canceled,
                queries_failed: c.failed,
                queries_rejected: c.rejected,
                queries_timed_out: c.timed_out,
                queries_stalled: c.stalled,
                budget_aborts: c.budget_aborts,
                panics_contained: c.panics_contained,
                operation_processes: c.operation_processes,
                peak_bytes: c.peak_bytes,
                query_duration: c.query_duration,
                time_to_first_batch: c.time_to_first_batch,
                // The engine overlays live pool gauges; a bare counter
                // snapshot has no pool to ask.
                workers_busy: 0,
                workers_total: 0,
                batch_pool_takes: crate::stream::pool_takes(),
                batch_pool_misses: crate::stream::pool_misses(),
                gather_rows: mj_join::gather_rows(),
                simd_kernel_dispatches: mj_relalg::simd::kernel_dispatches(),
                plan_cache_hits: crate::session::plan_cache_hits(),
                plan_cache_misses: crate::session::plan_cache_misses(),
                plan_cache_evictions: crate::session::plan_cache_evictions(),
                // Planning happens in the session layer, which overlays it.
                plan_duration: LatencyHistogram::default(),
                // The engine overlays its fragment cache's counters.
                fragment_cache_hits: 0,
                fragment_cache_misses: 0,
                fragment_cache_evictions: 0,
                fragment_cache_bytes: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_helpers() {
        let mut m = Metrics::new(2);
        m.ops[0].tuples_out = 5;
        m.ops[1].tuples_out = 7;
        assert_eq!(m.total_tuples_out(), 12);
        assert_eq!(m.ops.len(), 2);
    }

    #[test]
    fn q_error_is_symmetric_and_handles_zero() {
        let mut o = OpMetrics {
            est_out: 100,
            tuples_out: 50,
            ..OpMetrics::default()
        };
        assert_eq!(o.q_error(), 2.0);
        o.est_out = 25;
        assert_eq!(o.q_error(), 2.0);
        o.est_out = 0;
        assert_eq!(o.q_error(), f64::INFINITY);
        o.tuples_out = 0;
        assert_eq!(o.q_error(), 1.0);
    }

    #[test]
    fn cardinality_report_pairs_est_and_actual() {
        let mut m = Metrics::new(2);
        m.ops[0].est_out = 10;
        m.ops[0].tuples_out = 12;
        m.ops[1].est_out = 5;
        m.ops[1].tuples_out = 5;
        assert_eq!(m.cardinality_report(), vec![(0, 10, 12), (1, 5, 5)]);
        assert!((m.max_q_error() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let mut h = LatencyHistogram::default();
        h.observe(Duration::from_micros(300)); // <= 1ms bucket
        h.observe(Duration::from_millis(1)); // <= 1ms bucket
        h.observe(Duration::from_millis(3)); // <= 5ms bucket
        h.observe(Duration::from_millis(600)); // <= 1000ms bucket
        h.observe(Duration::from_secs(60)); // overflow
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 1);
        assert!((h.sum_ms() - (0.3 + 1.0 + 3.0 + 600.0 + 60_000.0)).abs() < 1e-6);
    }

    #[test]
    fn prometheus_rendering_covers_the_accept_list() {
        let mut stats = EngineStats {
            queries_submitted: 7,
            queries_completed: 5,
            queries_rejected: 2,
            workers_total: 4,
            workers_busy: 1,
            ..EngineStats::default()
        };
        stats.query_duration.observe(Duration::from_millis(4));
        stats.plan_duration.observe(Duration::from_micros(250));
        stats.plan_duration.observe(Duration::from_millis(7));
        let snap = MetricsSnapshot::from_stats(&stats);
        let text = snap.to_prometheus();
        for def in METRICS_ACCEPT_LIST {
            assert!(
                text.contains(&format!("# TYPE {} ", def.name)),
                "missing TYPE line for {}",
                def.name
            );
        }
        assert!(text.contains("mj_queries_completed_total 5"));
        assert!(text.contains("mj_worker_idle 3"));
        assert!(text.contains("mj_query_duration_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mj_query_duration_ms_count 1"));
        // A `_seconds` series renders bounds and sum in seconds.
        assert!(text.contains("mj_plan_duration_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("mj_plan_duration_seconds_bucket{le=\"0.005\"} 1\n"));
        assert!(text.contains("mj_plan_duration_seconds_bucket{le=\"0.01\"} 2\n"));
        assert!(text.contains("mj_plan_duration_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("mj_plan_duration_seconds_sum 0.00725\n"));
        assert!(text.contains("mj_plan_duration_seconds_count 2\n"));
        // Cumulative le buckets are monotone.
        let cum: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("mj_query_duration_ms_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut stats = EngineStats {
            queries_submitted: 3,
            queries_completed: 3,
            ..EngineStats::default()
        };
        stats.query_duration.observe(Duration::from_millis(12));
        let snap = MetricsSnapshot::from_stats(&stats);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.queries_total, 3);
        assert_eq!(back.query_duration_ms.count, 1);
        assert_eq!(back.query_duration_ms.counts, snap.query_duration_ms.counts);
        assert_eq!(back.plan_duration_seconds, snap.plan_duration_seconds);
    }
}
