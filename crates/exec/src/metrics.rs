//! Execution metrics: per-operation aggregates, engine-lifetime counters,
//! and the accept-listed metrics registry the query server exports.
//!
//! * [`OpMetrics`] / [`Metrics`] — one query's per-operator aggregates
//!   (tuples, bytes, scheduler steps), attached to its outcome.
//! * [`EngineStats`] — engine-lifetime counters (completions, guardrail
//!   aborts) plus fixed-bucket latency histograms, snapshotted
//!   **atomically consistently**: the engine keeps one `EngineStats`
//!   under one mutex, so a snapshot taken while N threads hammer queries
//!   always satisfies `queries_total() + active == submitted`.
//!
//! What leaves the process is one table over `EngineStats`:
//! [`METRICS_ACCEPT_LIST`]. Each row names a series, gives its kind and
//! help text, and reads its [`Sample`] from a snapshot; [`to_prometheus`]
//! and [`to_json`] render a snapshot by walking the table, so both
//! formats speak the same series names. Exporting a new series is one
//! `EngineStats` field and one row.

use std::fmt::Write as _;
use std::time::Duration;

use serde::{JsonValue, Serialize};

/// What kind of operator a metrics row describes. The join DAG's ops are
/// [`Join`](OpMetricsKind::Join); the post-join pipeline stages carry
/// their own kinds so `explain()` and the cardinality report name them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpMetricsKind {
    /// A hash equi-join of the plan tree.
    #[default]
    Join,
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
            OpMetricsKind::Aggregate => "aggregate",
            OpMetricsKind::Limit => "limit",
        }
    }
}

/// Per-operation aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, Default)]
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
    /// Base operands this query found resident in their catalog entries:
    /// their fragment sets, and for a simple join's unfiltered build side
    /// the join tables over them too.
    pub fragment_cache_hits: u64,
    /// Base operands whose fragment set or join tables this query had to
    /// build (and left resident): zero means the query ran warm.
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

    /// Counts one resident-fragment lookup made while setting this query
    /// up.
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
/// [`to_prometheus`] accumulates them into the `le` form at render time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
}

/// Engine-lifetime robustness counters, snapshotted by `Engine::stats()` /
/// `Database::stats()`. Every count is cumulative since the engine opened.
///
/// The snapshot is **atomically consistent**: all per-query-grain fields
/// are read under one lock, so the sum of the terminal-outcome counters
/// (`queries_completed`, `queries_failed`, `queries_canceled`,
/// `queries_timed_out`, `queries_stalled`, `budget_aborts`) plus
/// `queries_active` equals `queries_submitted` in every snapshot,
/// even one taken mid-hammer from another thread. The batch-pool,
/// gather-row and SIMD tallies are process-global relaxed counters
/// shared by every engine in the process, and carry no such cross-field
/// invariant; the plan-cache counts belong to one `Database`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries ever submitted: the terminal-outcome counters below sum to
    /// this less `queries_active`.
    pub queries_submitted: u64,
    /// Queries submitted and not yet concluded (gauge, not cumulative).
    pub queries_active: u64,
    /// Queries that completed successfully.
    pub queries_completed: u64,
    /// Queries that ended in client cancellation.
    pub queries_canceled: u64,
    /// Queries that failed with an execution error not counted elsewhere.
    pub queries_failed: u64,
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
    /// Batch-pool buffer takes across every stream edge of the queries
    /// that concluded (pair with `batch_pool_misses` for the pool hit
    /// rate).
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
    /// Prepared-statement lookups served from this database's plan cache
    /// (pair with `plan_cache_misses` for the hit rate). Filled, like the
    /// two below, by `Database::stats()`; zero in engine-only snapshots.
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
    /// Base-operand lookups served resident (filled, like the three below,
    /// by `Engine::stats()` from the catalog's resident state; zero in bare
    /// counter snapshots).
    pub fragment_cache_hits: u64,
    /// Fragment lookups that had to partition: cold keys and evicted
    /// variants. A relation's image is resident from its registration on,
    /// so converting it is never a miss.
    pub fragment_cache_misses: u64,
    /// Resident fragment sets dropped (variant cap or replaced relation).
    pub fragment_cache_evictions: u64,
    /// Logical bytes resident: every registered relation's image, its
    /// variants, and the index of every resident join table (gauge).
    pub fragment_cache_bytes: u64,
}

impl EngineStats {
    /// Queries that reached a terminal state: completed, canceled, failed,
    /// timed out, stalled, or budget-aborted. Rejected submissions never
    /// ran and are not included. The accept list's first series, and
    /// `query_duration.count` equals it exactly.
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// One series read from an [`EngineStats`] snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sample<'a> {
    /// A counter or gauge reading.
    Value(f64),
    /// A histogram's buckets, sum and count (in milliseconds; a
    /// `_seconds` series converts at render time).
    Histogram(&'a LatencyHistogram),
}

/// One entry of the metrics accept list: name, type, help text, and how
/// to read the series from a stats snapshot.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Exported metric name (Prometheus conventions: `mj_` prefix,
    /// `_total` suffix on counters, `_ms` or `_seconds` on histograms).
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line help text (`# HELP`).
    pub help: &'static str,
    /// Reads the series: a [`Sample::Value`] for counters and gauges, a
    /// [`Sample::Histogram`] for histograms.
    pub read: fn(&EngineStats) -> Sample<'_>,
}

/// The metrics accept list: **only** these series are exported, in this
/// order, and this table is the only place a series is named. New
/// telemetry must be added here deliberately — nothing else leaves the
/// process, which is what keeps the export surface reviewable (the
/// accept-list registry pattern of production query engines).
pub const METRICS_ACCEPT_LIST: &[MetricDef] = &[
    MetricDef {
        name: "mj_queries_total",
        kind: MetricKind::Counter,
        help: "Queries that reached a terminal state (any outcome)",
        read: |s| Sample::Value(s.queries_total() as f64),
    },
    MetricDef {
        name: "mj_queries_submitted_total",
        kind: MetricKind::Counter,
        help: "Queries ever submitted",
        read: |s| Sample::Value(s.queries_submitted as f64),
    },
    MetricDef {
        name: "mj_queries_active",
        kind: MetricKind::Gauge,
        help: "Queries submitted and not yet concluded",
        read: |s| Sample::Value(s.queries_active as f64),
    },
    MetricDef {
        name: "mj_queries_completed_total",
        kind: MetricKind::Counter,
        help: "Queries that completed successfully",
        read: |s| Sample::Value(s.queries_completed as f64),
    },
    MetricDef {
        name: "mj_operation_processes_total",
        kind: MetricKind::Counter,
        help: "Operation processes started by completed queries (fused operations share one)",
        read: |s| Sample::Value(s.operation_processes as f64),
    },
    MetricDef {
        name: "mj_queries_canceled_total",
        kind: MetricKind::Counter,
        help: "Queries canceled by the client",
        read: |s| Sample::Value(s.queries_canceled as f64),
    },
    MetricDef {
        name: "mj_queries_failed_total",
        kind: MetricKind::Counter,
        help: "Queries that failed with an execution error",
        read: |s| Sample::Value(s.queries_failed as f64),
    },
    MetricDef {
        name: "mj_queries_timed_out_total",
        kind: MetricKind::Counter,
        help: "Queries aborted past their deadline",
        read: |s| Sample::Value(s.queries_timed_out as f64),
    },
    MetricDef {
        name: "mj_queries_stalled_total",
        kind: MetricKind::Counter,
        help: "Queries aborted by their stall check",
        read: |s| Sample::Value(s.queries_stalled as f64),
    },
    MetricDef {
        name: "mj_budget_aborts_total",
        kind: MetricKind::Counter,
        help: "Queries aborted for exceeding their memory budget",
        read: |s| Sample::Value(s.budget_aborts as f64),
    },
    MetricDef {
        name: "mj_query_duration_ms",
        kind: MetricKind::Histogram,
        help: "Per-query wall-clock duration, submission to terminal state",
        read: |s| Sample::Histogram(&s.query_duration),
    },
    MetricDef {
        name: "mj_time_to_first_batch_ms",
        kind: MetricKind::Histogram,
        help: "Submission to the client pulling the first result batch",
        read: |s| Sample::Histogram(&s.time_to_first_batch),
    },
    MetricDef {
        name: "mj_worker_busy",
        kind: MetricKind::Gauge,
        help: "Worker threads currently executing a task step",
        read: |s| Sample::Value(s.workers_busy as f64),
    },
    MetricDef {
        name: "mj_worker_idle",
        kind: MetricKind::Gauge,
        help: "Worker threads not currently executing a task step",
        read: |s| Sample::Value(s.workers_total.saturating_sub(s.workers_busy) as f64),
    },
    MetricDef {
        name: "mj_batch_pool_hit_rate",
        kind: MetricKind::Gauge,
        help: "Fraction of batch-pool takes served without allocating",
        read: |s| Sample::Value(s.batch_pool_hit_rate()),
    },
    MetricDef {
        name: "mj_batch_pool_takes_total",
        kind: MetricKind::Counter,
        help: "Batch-pool buffer takes",
        read: |s| Sample::Value(s.batch_pool_takes as f64),
    },
    MetricDef {
        name: "mj_batch_pool_misses_total",
        kind: MetricKind::Counter,
        help: "Batch-pool takes that had to allocate",
        read: |s| Sample::Value(s.batch_pool_misses as f64),
    },
    MetricDef {
        name: "mj_gather_rows_total",
        kind: MetricKind::Counter,
        help: "Join output rows materialized by gather emission",
        read: |s| Sample::Value(s.gather_rows as f64),
    },
    MetricDef {
        name: "mj_simd_kernel_dispatches_total",
        kind: MetricKind::Counter,
        help: "Hot-path kernel calls dispatched to a SIMD body",
        read: |s| Sample::Value(s.simd_kernel_dispatches as f64),
    },
    MetricDef {
        name: "mj_plan_cache_hits_total",
        kind: MetricKind::Counter,
        help: "Prepared-statement plan-cache lookups served from cache",
        read: |s| Sample::Value(s.plan_cache_hits as f64),
    },
    MetricDef {
        name: "mj_plan_cache_misses_total",
        kind: MetricKind::Counter,
        help: "Plan-cache lookups that re-planned (cold, evicted, or stale)",
        read: |s| Sample::Value(s.plan_cache_misses as f64),
    },
    MetricDef {
        name: "mj_plan_cache_evictions_total",
        kind: MetricKind::Counter,
        help: "Plan-cache entries evicted (LRU capacity or staleness)",
        read: |s| Sample::Value(s.plan_cache_evictions as f64),
    },
    MetricDef {
        name: "mj_plan_duration_seconds",
        kind: MetricKind::Histogram,
        help: "Cost-based planning time per plan built (cache hits plan nothing)",
        read: |s| Sample::Histogram(&s.plan_duration),
    },
    MetricDef {
        name: "mj_fragment_cache_hits_total",
        kind: MetricKind::Counter,
        help: "Base-operand fragment lookups served resident",
        read: |s| Sample::Value(s.fragment_cache_hits as f64),
    },
    MetricDef {
        name: "mj_fragment_cache_misses_total",
        kind: MetricKind::Counter,
        help: "Fragment lookups that partitioned (cold or evicted variant)",
        read: |s| Sample::Value(s.fragment_cache_misses as f64),
    },
    MetricDef {
        name: "mj_fragment_cache_evictions_total",
        kind: MetricKind::Counter,
        help: "Cached fragment sets dropped (variant cap or replaced relation)",
        read: |s| Sample::Value(s.fragment_cache_evictions as f64),
    },
    MetricDef {
        name: "mj_fragment_cache_bytes",
        kind: MetricKind::Gauge,
        help: "Logical bytes of resident columnar base fragments",
        read: |s| Sample::Value(s.fragment_cache_bytes as f64),
    },
    MetricDef {
        name: "mj_panics_contained_total",
        kind: MetricKind::Counter,
        help: "Operator-task panics contained across all queries",
        read: |s| Sample::Value(s.panics_contained as f64),
    },
    MetricDef {
        name: "mj_peak_bytes",
        kind: MetricKind::Gauge,
        help: "Largest per-query peak of budget-charged bytes",
        read: |s| Sample::Value(s.peak_bytes as f64),
    },
];

/// Renders `stats` in the Prometheus text exposition format, one
/// `# HELP` / `# TYPE` block per [`METRICS_ACCEPT_LIST`] row: the value
/// of a counter or gauge; cumulative `_bucket{le=...}` lines (including
/// `+Inf`) plus `_sum` / `_count` for a histogram, in the unit its name
/// ends in (`_ms` or `_seconds`).
pub fn to_prometheus(stats: &EngineStats) -> String {
    let mut out = String::new();
    for def in METRICS_ACCEPT_LIST {
        let name = def.name;
        let _ = writeln!(out, "# HELP {name} {}", def.help);
        let _ = writeln!(out, "# TYPE {name} {}", def.kind.prometheus_type());
        let h = match (def.read)(stats) {
            Sample::Value(v) => {
                let _ = writeln!(out, "{name} {}", fmt_value(v));
                continue;
            }
            Sample::Histogram(h) => h,
        };
        let per_unit = if name.ends_with("_seconds") { 1e3 } else { 1.0 };
        let mut cum = 0;
        for (bound, n) in LATENCY_BUCKET_BOUNDS_MS.iter().zip(&h.buckets) {
            cum += n;
            let le = fmt_value(*bound as f64 / per_unit);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        cum += h.buckets[LATENCY_BUCKETS - 1];
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        // Whole microseconds, divided once: `0.000636`, not the
        // `0.0006360000000000001` of `sum_ms / 1000`.
        let sum = fmt_value(h.sum_us as f64 / (1e3 * per_unit));
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// Renders `stats` as one JSON object keyed by [`METRICS_ACCEPT_LIST`]
/// series name, in table order: a number per counter or gauge, and
/// `{"bounds_ms", "counts", "sum_ms", "count"}` per histogram (`counts`
/// is non-cumulative and one longer than `bounds_ms`, the last entry
/// being the overflow bucket: JSON has no `+Inf`).
pub fn to_json(stats: &EngineStats) -> JsonValue {
    let series = METRICS_ACCEPT_LIST.iter().map(|def| {
        let value = match (def.read)(stats) {
            Sample::Value(v) => integral(v).map_or(JsonValue::Float(v), JsonValue::Int),
            Sample::Histogram(h) => JsonValue::Obj(vec![
                ("bounds_ms".to_string(), LATENCY_BUCKET_BOUNDS_MS.to_json()),
                ("counts".to_string(), h.buckets.to_json()),
                ("sum_ms".to_string(), JsonValue::Float(h.sum_ms())),
                ("count".to_string(), h.count.to_json()),
            ]),
        };
        (def.name.to_string(), value)
    });
    JsonValue::Obj(series.collect())
}

/// `v` as an integer when it is one (and small enough to print exactly).
fn integral(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.abs() < 1e15).then_some(v as i64)
}

/// Prometheus sample formatting: integral values render without a
/// fractional part, everything else as plain decimal.
fn fmt_value(v: f64) -> String {
    integral(v).map_or_else(|| format!("{v}"), |i| i.to_string())
}

pub(crate) mod counters {
    //! Consistent backing store for [`EngineStats`](super::EngineStats).
    //!
    //! One mutex guards the engine's `EngineStats`, so `snapshot()`
    //! returns an atomically consistent view (the invariant the stats
    //! hammer test checks). Updates happen once per query lifecycle event
    //! — submission, first batch, terminal record — so the lock
    //! is uncontended relative to tuple work. A query's batch-pool takes
    //! and misses are counted by its edges' own pools and added at its
    //! terminal record; the other per-tuple tallies (gather rows, SIMD
    //! dispatches) remain process-global relaxed atomics and are folded in
    //! at snapshot time.

    use super::EngineStats;
    use crate::handle::QueryOutcome;
    use crate::sched::lock;
    use mj_relalg::{RelalgError, Result};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Shared counters owned by the engine; the submission path and each
    /// query's conclusion record into them.
    #[derive(Debug, Default)]
    pub struct EngineCounters {
        stats: Mutex<EngineStats>,
    }

    impl EngineCounters {
        /// Counts one submission and raises the `queries_active` gauge
        /// (`record` lowers it).
        pub fn note_submitted(&self) {
            let mut s = lock(&self.stats);
            s.queries_submitted += 1;
            s.queries_active += 1;
        }

        /// Records the client pulling the first result batch `ttfb` after
        /// submission.
        pub fn note_first_batch(&self, ttfb: Duration) {
            lock(&self.stats).time_to_first_batch.observe(ttfb);
        }

        /// Classifies one finished query's result into the counters,
        /// observes its wall-clock duration and adds its edges' batch-pool
        /// takes and misses (`pools`).
        pub fn record(
            &self,
            result: &Result<QueryOutcome>,
            panics: u64,
            peak: u64,
            took: Duration,
            (takes, misses): (u64, u64),
        ) {
            let mut s = lock(&self.stats);
            s.batch_pool_takes += takes;
            s.batch_pool_misses += misses;
            s.queries_active = s.queries_active.saturating_sub(1);
            s.panics_contained += panics;
            s.peak_bytes = s.peak_bytes.max(peak);
            s.query_duration.observe(took);
            match result {
                Ok(outcome) => {
                    s.queries_completed += 1;
                    s.operation_processes += outcome.metrics.processes as u64;
                }
                Err(RelalgError::Canceled) => s.queries_canceled += 1,
                Err(RelalgError::DeadlineExceeded) => s.queries_timed_out += 1,
                Err(RelalgError::Stalled(_)) => s.queries_stalled += 1,
                Err(RelalgError::ResourceExhausted { .. }) => s.budget_aborts += 1,
                Err(_) => s.queries_failed += 1,
            }
        }

        /// One atomically consistent snapshot of every per-query counter
        /// (one lock acquisition), with the process-global tallies folded
        /// in. The engine overlays its pool and fragment-cache gauges, and
        /// the session its plan-cache counts and planning histogram.
        pub fn snapshot(&self) -> EngineStats {
            EngineStats {
                gather_rows: mj_join::gather_rows(),
                simd_kernel_dispatches: mj_relalg::simd::kernel_dispatches(),
                ..*lock(&self.stats)
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

    /// Every field a distinct value, a few observations in each histogram:
    /// the stats behind `testdata/metrics.prom`.
    fn golden_stats() -> EngineStats {
        let mut s = EngineStats {
            queries_submitted: 101,
            queries_active: 2,
            queries_completed: 83,
            queries_canceled: 3,
            queries_failed: 4,
            queries_timed_out: 6,
            queries_stalled: 7,
            budget_aborts: 8,
            panics_contained: 9,
            operation_processes: 211,
            peak_bytes: 1_048_577,
            workers_busy: 3,
            workers_total: 8,
            batch_pool_takes: 4000,
            batch_pool_misses: 17,
            gather_rows: 123_456,
            simd_kernel_dispatches: 789,
            plan_cache_hits: 41,
            plan_cache_misses: 12,
            plan_cache_evictions: 2,
            fragment_cache_hits: 55,
            fragment_cache_misses: 13,
            fragment_cache_evictions: 1,
            fragment_cache_bytes: 65_536,
            ..EngineStats::default()
        };
        for us in [300, 1_000, 4_200, 73_000, 6_000_000] {
            s.query_duration.observe(Duration::from_micros(us));
        }
        for us in [800, 2_500, 11_000] {
            s.time_to_first_batch.observe(Duration::from_micros(us));
        }
        for us in [250, 636, 7_000, 1_200_000] {
            s.plan_duration.observe(Duration::from_micros(us));
        }
        s
    }

    /// `testdata/metrics.prom` pins the exposition of [`golden_stats`]
    /// byte for byte: series, order, help text, cumulative `le` buckets
    /// and the `_seconds` conversion. Scrapers depend on all of it, so
    /// regenerate the file only when moving the exposition is the point.
    #[test]
    fn prometheus_exposition_matches_the_golden_file() {
        let golden = include_str!("../testdata/metrics.prom");
        assert_eq!(to_prometheus(&golden_stats()), golden);
    }

    #[test]
    fn accept_list_rows_are_well_formed_and_json_has_one_key_each() {
        let stats = golden_stats();
        let mut seen = std::collections::HashSet::new();
        for def in METRICS_ACCEPT_LIST {
            let name = def.name;
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.starts_with("mj_"), "{name}");
            let sample = (def.read)(&stats);
            match def.kind {
                MetricKind::Counter => {
                    assert!(name.ends_with("_total"), "{name}");
                    assert!(matches!(sample, Sample::Value(_)), "{name}");
                }
                MetricKind::Gauge => assert!(matches!(sample, Sample::Value(_)), "{name}"),
                MetricKind::Histogram => {
                    assert!(
                        name.ends_with("_ms") || name.ends_with("_seconds"),
                        "{name}"
                    );
                    assert!(matches!(sample, Sample::Histogram(_)), "{name}");
                }
            }
        }

        let text = serde_json::to_string(&to_json(&stats)).unwrap();
        let json: JsonValue = serde_json::from_str(&text).unwrap();
        let JsonValue::Obj(pairs) = &json else {
            panic!("not an object: {text}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let rows: Vec<&str> = METRICS_ACCEPT_LIST.iter().map(|d| d.name).collect();
        assert_eq!(keys, rows);
        assert_eq!(json.get("mj_queries_total"), Some(&JsonValue::Int(111)));
        assert_eq!(json.get("mj_worker_idle"), Some(&JsonValue::Int(5)));
        assert_eq!(
            json.get("mj_batch_pool_hit_rate"),
            Some(&JsonValue::Float(0.99575))
        );
        let plan = json.get("mj_plan_duration_seconds").unwrap();
        let bounds = LATENCY_BUCKET_BOUNDS_MS.map(|b| JsonValue::Int(b as i64));
        assert_eq!(
            plan.get("bounds_ms"),
            Some(&JsonValue::Arr(bounds.to_vec()))
        );
        let counts = [2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0].map(JsonValue::Int);
        assert_eq!(plan.get("counts"), Some(&JsonValue::Arr(counts.to_vec())));
        assert_eq!(plan.get("sum_ms"), Some(&JsonValue::Float(1207.886)));
        assert_eq!(plan.get("count"), Some(&JsonValue::Int(4)));
    }
}
