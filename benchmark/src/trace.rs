//! In-memory spans recorded by the harness around its calls into each
//! layer, written out once when the traced pass ends.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::stats;

/// One timed call (or group of calls). `id` is the span's index in the
/// recorder; spans of one request share `request`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name roll-up of a trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    pub name: String,
    pub count: u64,
    pub p50_us: f64,
    pub self_p50_us: f64,
}

/// The span file of one workload (`trace-<workload>.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    pub workload: String,
    pub seed: u64,
    pub summary: Vec<SpanSummary>,
    pub spans: Vec<Span>,
}

/// Records spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its id for [`close`](Self::close) and
    /// for children to name as their parent.
    pub fn open(&mut self, name: &str, parent: Option<u64>, request: u64) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span now; returns its duration in milliseconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e6
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once, and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        let Some(slot) = span.parent.map(|p| p as usize) else {
            continue;
        };
        if let Some(parent) = spans.get(slot) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[slot].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Rolls a trace up by span name, in first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let selfs = self_times_ns(spans);
    let mut names: Vec<&str> = Vec::new();
    let mut total: Vec<Vec<f64>> = Vec::new();
    let mut own: Vec<Vec<f64>> = Vec::new();
    for (span, &self_ns) in spans.iter().zip(&selfs) {
        let slot = match names.iter().position(|n| *n == span.name) {
            Some(slot) => slot,
            None => {
                names.push(&span.name);
                total.push(Vec::new());
                own.push(Vec::new());
                names.len() - 1
            }
        };
        total[slot].push(span.duration_ns() as f64 / 1e3);
        own[slot].push(self_ns as f64 / 1e3);
    }
    names
        .iter()
        .zip(total.iter().zip(&own))
        .map(|(name, (total, own))| SpanSummary {
            name: name.to_string(),
            count: total.len() as u64,
            p50_us: stats::median(total),
            self_p50_us: stats::median(own),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "a", 10, 40),
            // Overlaps `a` by 10 ns: the union covers 10..60, not 30 + 30.
            span(2, Some(0), "b", 30, 60),
            // Runs past its parent: only 90..100 counts against it.
            span(3, Some(0), "c", 90, 120),
            span(4, Some(1), "a.inner", 15, 25),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn summary_groups_by_name_with_medians() {
        let spans = vec![
            span(0, None, "request", 0, 10_000),
            span(1, Some(0), "phase", 0, 4_000),
            span(2, None, "request", 20_000, 40_000),
            span(3, Some(2), "phase", 20_000, 26_000),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "request");
        assert_eq!(summary[0].count, 2);
        assert_eq!(summary[0].p50_us, 15.0);
        assert_eq!(summary[0].self_p50_us, (6.0 + 14.0) / 2.0);
        assert_eq!(summary[1].p50_us, 5.0);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let mut tracer = Tracer::new();
        let root = tracer.open("request", None, 7);
        let child = tracer.open("phase", Some(root), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ms = tracer.close(child);
        let root_ms = tracer.close(root);
        assert!(child_ms >= 2.0 && root_ms >= child_ms);
        let spans = tracer.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
