//! Engine configuration.

use std::time::Duration;

/// Default tuples per channel message. The single source of truth for
/// batching — the engine, benches, and tests all read it from here.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Default channel capacity in batches (bounds per-edge memory and
/// provides backpressure).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 16;

/// Default worker threads in the shared scheduler pool — the paper's
/// "fixed pool of processors" (§4) that all operation processes of all
/// in-flight queries are multiplexed onto.
pub const DEFAULT_WORKERS: usize = 4;

/// When a query runs with late materialization: base payload columns are
/// replaced by one packed row-reference column per leaf, joins move only
/// join keys plus refs, and the full-width rows are gathered once at the
/// pipeline root (see the `late` module).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LateMode {
    /// Use late materialization when it is estimated to pay: the plan has
    /// at least two joins and the narrowed root row is at most 80% the
    /// width of the original root row. The default.
    #[default]
    Auto,
    /// Always rewrite eligible plans (at least one payload column to
    /// strip), regardless of estimated benefit. Differential tests use
    /// this to force ref-carrying pipelines.
    Always,
    /// Never rewrite: every join materializes its full output eagerly.
    Never,
}

/// Tunables of the threaded engine.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Worker threads in the shared scheduler pool. This bounds *physical*
    /// parallelism for every query run through one engine; a plan's
    /// `processors` stays a purely logical placement, which a `Database`
    /// sets to this count unless its planner options name another. More
    /// concurrent queries never spawn more threads.
    pub workers: usize,
    /// Tuples per channel message (amortizes channel overhead).
    pub batch_size: usize,
    /// Channel capacity in *batches*; bounds memory and provides the
    /// backpressure a real pipeline has.
    pub channel_capacity: usize,
    /// Default wall-clock deadline for every query; `None` means no limit.
    /// Overridable per query via [`QueryOptions::with_deadline`]. Exceeding
    /// it aborts the query with a typed `DeadlineExceeded` error through
    /// the normal cancel/quiesce path.
    pub deadline: Option<Duration>,
    /// Stall window: if no operator task of a query makes progress for
    /// this long, the query is aborted with a typed `Stalled` error
    /// carrying a per-op progress dump. `None` disables stall detection.
    /// The check runs on the worker pool every window, not on a tick, so a
    /// stall is reported between one and two windows after the last
    /// progress. Note that a query whose client stops
    /// draining its result stream is indistinguishable from a stalled
    /// pipeline, so only enable this for promptly-drained workloads.
    pub stall_timeout: Option<Duration>,
    /// Default per-query memory budget in bytes (hash-build state, pooled
    /// batch buffers and materialized fragments all charge against it);
    /// `None` means unlimited. Overridable per query via
    /// [`QueryOptions::with_memory_budget`]. Exceeding it aborts that query
    /// with a typed `ResourceExhausted` error.
    pub memory_budget: Option<u64>,
    /// Admission control: maximum queries running concurrently; `None`
    /// disables admission control entirely.
    pub max_concurrent: Option<usize>,
    /// Bounded FIFO wait queue in front of admission control: submissions
    /// beyond `max_concurrent` wait here (in order) for a slot, and
    /// submissions beyond the queue bound are rejected with a typed
    /// `Overloaded` error. Ignored unless `max_concurrent` is set.
    pub admission_queue: usize,
    /// Late-materialization policy for join pipelines (see [`LateMode`]).
    pub late: LateMode,
}

/// Default [`ExecConfig::admission_queue`] depth.
pub const DEFAULT_ADMISSION_QUEUE: usize = 32;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: DEFAULT_WORKERS,
            batch_size: DEFAULT_BATCH_SIZE,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            deadline: None,
            stall_timeout: None,
            memory_budget: None,
            max_concurrent: None,
            admission_queue: DEFAULT_ADMISSION_QUEUE,
            late: LateMode::Auto,
        }
    }
}

impl ExecConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.channel_capacity == 0 {
            return Err("channel_capacity must be positive".into());
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err("deadline must be positive".into());
        }
        if self.stall_timeout == Some(Duration::ZERO) {
            return Err("stall_timeout must be positive".into());
        }
        if self.memory_budget == Some(0) {
            return Err("memory_budget must be positive".into());
        }
        if self.max_concurrent == Some(0) {
            return Err("max_concurrent must be positive".into());
        }
        Ok(())
    }
}

/// Per-query overrides for the guardrail layer, passed to
/// `Engine::submit_with` / `Database::query_with`. The default carries no
/// overrides (engine-level [`ExecConfig`] defaults apply).
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    pub(crate) deadline: Option<Duration>,
    pub(crate) memory_budget: Option<u64>,
    #[cfg(feature = "faults")]
    pub(crate) faults: Option<crate::faults::FaultPlan>,
}

impl QueryOptions {
    /// Options with no overrides.
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Caps this query's wall-clock runtime at `deadline`, overriding
    /// [`ExecConfig::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps this query's memory at `bytes`, overriding
    /// [`ExecConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// This query's deadline override, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// This query's memory-budget override, if any.
    pub fn memory_budget(&self) -> Option<u64> {
        self.memory_budget
    }

    /// Attaches a deterministic fault-injection plan (test harness; only
    /// available with the `faults` cargo feature).
    #[cfg(feature = "faults")]
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    #[cfg(feature = "faults")]
    pub(crate) fn fault_plan(&self) -> Option<&crate::faults::FaultPlan> {
        self.faults.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = ExecConfig::default();
        c.validate().unwrap();
        assert_eq!(c.batch_size, DEFAULT_BATCH_SIZE);
        assert_eq!(c.channel_capacity, DEFAULT_CHANNEL_CAPACITY);
    }

    #[test]
    fn rejects_zero_sizes() {
        let c = ExecConfig {
            batch_size: 0,
            ..ExecConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ExecConfig {
            channel_capacity: 0,
            ..ExecConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ExecConfig {
            workers: 0,
            ..ExecConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_guardrails() {
        for c in [
            ExecConfig {
                deadline: Some(Duration::ZERO),
                ..ExecConfig::default()
            },
            ExecConfig {
                stall_timeout: Some(Duration::ZERO),
                ..ExecConfig::default()
            },
            ExecConfig {
                memory_budget: Some(0),
                ..ExecConfig::default()
            },
            ExecConfig {
                max_concurrent: Some(0),
                ..ExecConfig::default()
            },
        ] {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
        let c = ExecConfig {
            deadline: Some(Duration::from_secs(1)),
            stall_timeout: Some(Duration::from_millis(100)),
            memory_budget: Some(1 << 20),
            max_concurrent: Some(2),
            admission_queue: 0, // queue-less admission is valid (pure reject)
            ..ExecConfig::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn query_options_builder() {
        let o = QueryOptions::new();
        assert_eq!(o.deadline(), None);
        assert_eq!(o.memory_budget(), None);
        let o = QueryOptions::new()
            .with_deadline(Duration::from_secs(2))
            .with_memory_budget(4096);
        assert_eq!(o.deadline(), Some(Duration::from_secs(2)));
        assert_eq!(o.memory_budget(), Some(4096));
    }
}
