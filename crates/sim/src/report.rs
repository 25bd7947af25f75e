//! Simulation results and derived metrics.

use mj_core::plan_ir::ProcId;
use mj_plan::tree::NodeId;

/// Timing of one operation across the simulation.
#[derive(Clone, Debug)]
pub struct OpSpan {
    /// Op id within the plan.
    pub op: usize,
    /// Join node the op evaluates.
    pub join: NodeId,
    /// Processors the op ran on.
    pub procs: Vec<ProcId>,
    /// When dependencies were satisfied (scheduler queue entry).
    pub ready: f64,
    /// When the op began processing (after init + handshakes).
    pub start: f64,
    /// When the op finished.
    pub complete: f64,
    /// Busy intervals (processing quanta).
    pub busy: Vec<(f64, f64)>,
}

impl OpSpan {
    /// Total busy seconds.
    pub fn busy_time(&self) -> f64 {
        self.busy.iter().map(|(a, b)| b - a).sum()
    }

    /// When the op first did useful work — `start` plus any initial wait
    /// for input. The difference `first_busy() - start` is the pipeline
    /// *fill delay* at this op (§2.3.3).
    pub fn first_busy(&self) -> f64 {
        self.busy.first().map(|(a, _)| *a).unwrap_or(self.complete)
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Elapsed time from scheduling start to the last op's completion —
    /// the paper's response-time metric (§4.4).
    pub response_time: f64,
    /// Per-op spans.
    pub spans: Vec<OpSpan>,
}

impl SimResult {
    /// Machine utilization: busy processor-seconds over
    /// `processors × response_time`.
    pub fn utilization(&self, processors: usize) -> f64 {
        if self.response_time <= 0.0 || processors == 0 {
            return 0.0;
        }
        let busy_proc_seconds: f64 = self
            .spans
            .iter()
            .map(|s| s.busy_time() * s.procs.len() as f64)
            .sum();
        busy_proc_seconds / (processors as f64 * self.response_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(busy: Vec<(f64, f64)>, start: f64, complete: f64) -> OpSpan {
        OpSpan {
            op: 0,
            join: 0,
            procs: vec![0, 1],
            ready: 0.0,
            start,
            complete,
            busy,
        }
    }

    #[test]
    fn busy_metrics() {
        let s = span(vec![(0.0, 1.0), (2.0, 3.0)], 0.0, 4.0);
        assert_eq!(s.busy_time(), 2.0);
    }

    #[test]
    fn utilization_accounts_for_degree() {
        let r = SimResult {
            response_time: 2.0,
            spans: vec![span(vec![(0.0, 2.0)], 0.0, 2.0)],
        };
        // 2 procs busy 2s out of 4 procs x 2s.
        assert_eq!(r.utilization(4), 0.5);
        assert_eq!(r.utilization(0), 0.0);
    }
}
