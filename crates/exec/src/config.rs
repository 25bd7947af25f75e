//! Engine configuration.

use std::time::Duration;

/// Target bytes per stream message. Every message costs the same fixed
/// work whatever it holds (a pool take and put, a send and a receive, a
/// wake and a step of the consumer), so an edge ships as many rows as fit
/// in this many bytes of its column layout: a one-key edge 8192 rows a
/// message, a 42-column result edge 195 (see
/// [`rows_per_message`](crate::stream::rows_per_message)).
pub const MESSAGE_BYTES: usize = 64 * 1024;

/// Default channel capacity in batches (bounds per-edge memory and
/// provides backpressure).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 16;

/// Default worker threads in the shared scheduler pool — the paper's
/// "fixed pool of processors" (§4) that all operation processes of all
/// in-flight queries are multiplexed onto.
pub const DEFAULT_WORKERS: usize = 4;

/// The most worker threads a pool may have: each is an OS thread, and the
/// paper's grid stops at 80 processors.
pub const MAX_WORKERS: usize = 1024;

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
    /// A cap on rows per stream message. A message is sized in bytes
    /// ([`MESSAGE_BYTES`] of the edge's column layout); the default,
    /// `usize::MAX`, caps nothing. Tests set a small cap to force many
    /// messages per stream.
    pub batch_size: usize,
    /// Channel capacity in *batches*; bounds memory and provides the
    /// backpressure a real pipeline has.
    pub channel_capacity: usize,
    /// Stall window: if no operator task of a query makes progress for
    /// this long, the query is aborted with a typed `Stalled` error
    /// carrying a per-op progress dump. `None` disables stall detection.
    /// The check runs on the worker pool every window, not on a tick, so a
    /// stall is reported between one and two windows after the last
    /// progress. Note that a query whose client stops
    /// draining its result stream is indistinguishable from a stalled
    /// pipeline, so only enable this for promptly-drained workloads.
    pub stall_timeout: Option<Duration>,
    /// Late-materialization policy for join pipelines (see [`LateMode`]).
    pub late: LateMode,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: DEFAULT_WORKERS,
            batch_size: usize::MAX,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            stall_timeout: None,
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
        if self.workers > MAX_WORKERS {
            return Err(format!(
                "workers must be at most {MAX_WORKERS}, got {}",
                self.workers
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.channel_capacity == 0 {
            return Err("channel_capacity must be positive".into());
        }
        if self.stall_timeout == Some(Duration::ZERO) {
            return Err("stall_timeout must be positive".into());
        }
        Ok(())
    }
}

/// Per-query limits for the guardrail layer, passed to
/// `Engine::submit_with` / `Database::query_with`. The default sets none:
/// no deadline, no memory budget.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    pub(crate) deadline: Option<Duration>,
    pub(crate) memory_budget: Option<u64>,
    #[cfg(feature = "faults")]
    pub(crate) faults: Option<crate::faults::FaultPlan>,
}

impl QueryOptions {
    /// Options with no limits.
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Caps this query's wall-clock runtime at `deadline`. Exceeding it
    /// aborts the query with a typed `DeadlineExceeded` error through the
    /// normal cancel/quiesce path.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps this query's memory at `bytes` (hash-build state, pooled batch
    /// buffers and materialized pieces all charge against it). Exceeding it
    /// aborts the query with a typed `ResourceExhausted` error.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// This query's deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// This query's memory budget, if any.
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
        assert_eq!(c.batch_size, usize::MAX, "the default caps nothing");
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
        let c = ExecConfig {
            stall_timeout: Some(Duration::ZERO),
            ..ExecConfig::default()
        };
        assert!(c.validate().is_err(), "{c:?} should be invalid");
        let c = ExecConfig {
            stall_timeout: Some(Duration::from_millis(100)),
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
