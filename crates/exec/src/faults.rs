//! Deterministic fault injection for the guardrail layer.
//!
//! Compiled only with the `faults` cargo feature — release builds carry
//! zero harness code. A [`FaultPlan`] attached to a query via
//! [`QueryOptions::with_faults`](crate::QueryOptions::with_faults) forces a
//! panic, an allocation spike, a stall or a typed error at the i-th
//! scheduling step of a named operator (for an operator fused into
//! another's process: the i-th step it is the running member of, starting
//! with the one it begins in). The sweep tests drive every injection point
//! and assert the guardrail invariant: a clean typed error, zero leaked
//! fragments, a reusable engine, and unaffected sibling queries.
//!
//! Injection is matched at task-spawn time (operator kind label, optional
//! op id / instance) and fired inside the task's own `try_step`, so a
//! `Panic` fault exercises the real `catch_unwind` containment path, an
//! `AllocSpike` exercises the real [`MemoryBudget`](crate::MemoryBudget)
//! trip, a `Stall` parks the task in `Blocked` until the query's stall
//! check notices that progress has stopped, and an `Error` fails the
//! task the way a broken operator does, so its peers must unwind through
//! dropped channels.

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the operator's scheduling step; must surface as a
    /// contained `RelalgError::Internal`, never a worker-thread death.
    Panic,
    /// Charge `bytes` against the query's memory budget in one step; with
    /// a budget configured this must surface as `ResourceExhausted`.
    AllocSpike {
        /// Bytes charged when the fault fires.
        bytes: u64,
    },
    /// Return `Blocked` on every subsequent step: the pipeline stops making
    /// progress and the query's stall check must raise `Stalled`.
    Stall,
    /// Fail the step with a typed error (`InvalidPlan("injected failure
    /// …")`), as a broken operator would; at step 1 the instance fails
    /// before reading a row. Its peers must unwind through their channels.
    Error,
}

/// One injection point: fire `kind` at the `at_step`-th scheduling step of
/// every operator instance matching the selector.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Operator kind label to match: `"join"`, `"aggregate"` or
    /// `"limit"`. A WHERE predicate is no operator: it runs inside the join
    /// that reads its relation, so a `"join"` point covers it.
    pub op: String,
    /// Restrict to a single operator id (`None` matches any op of the
    /// kind).
    pub op_id: Option<usize>,
    /// Restrict to a single parallel instance (`None` matches all).
    pub instance: Option<usize>,
    /// 1-based scheduling step at which the fault fires. `0` derives a
    /// small pseudo-random step from the plan seed and the task identity,
    /// so a seeded sweep perturbs *where* in the lifecycle faults land
    /// while staying reproducible.
    pub at_step: u64,
    /// What happens at the step.
    pub kind: FaultKind,
}

impl FaultPoint {
    /// A point firing `kind` at step `at_step` of every instance of every
    /// operator with kind label `op`.
    pub fn new(op: impl Into<String>, at_step: u64, kind: FaultKind) -> Self {
        FaultPoint {
            op: op.into(),
            op_id: None,
            instance: None,
            at_step,
            kind,
        }
    }

    /// Restricts the point to operator `op_id`.
    pub fn at_op(mut self, op_id: usize) -> Self {
        self.op_id = Some(op_id);
        self
    }

    /// Restricts the point to parallel instance `instance`.
    pub fn at_instance(mut self, instance: usize) -> Self {
        self.instance = Some(instance);
        self
    }
}

/// A seeded, deterministic set of fault points for one query.
///
/// The default plan is empty and injects nothing; results with an empty
/// plan are identical to a run without the harness.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying `seed`, used to derive firing steps for
    /// points with `at_step == 0`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            points: Vec::new(),
            seed,
        }
    }

    /// Adds an injection point.
    pub fn with_point(mut self, point: FaultPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves the plan against one task identity at spawn time. The
    /// first matching point arms; `None` leaves the task fault-free.
    pub(crate) fn arm(&self, label: &str, op_id: usize, instance: usize) -> Option<ArmedFault> {
        let p = self.points.iter().find(|p| {
            p.op == label
                && p.op_id.is_none_or(|id| id == op_id)
                && p.instance.is_none_or(|i| i == instance)
        })?;
        let at_step = if p.at_step == 0 {
            // splitmix64-style mix of seed and task identity: deterministic
            // for a given (seed, op, instance), varied across them.
            let mut z = self
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((op_id as u64) << 32)
                .wrapping_add(instance as u64);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            1 + ((z ^ (z >> 31)) % 8)
        } else {
            p.at_step
        };
        Some(ArmedFault {
            at_step,
            kind: p.kind,
            polls: 0,
            fired: false,
        })
    }
}

/// A fault resolved onto one concrete operator task.
#[derive(Clone, Debug)]
pub struct ArmedFault {
    at_step: u64,
    kind: FaultKind,
    /// Scheduling steps the operator has been polled in so far.
    polls: u64,
    fired: bool,
}

impl ArmedFault {
    /// Called once per scheduling step the operator runs in; returns the
    /// fault kind exactly once, at the firing step.
    pub(crate) fn fire(&mut self) -> Option<FaultKind> {
        self.polls += 1;
        if !self.fired && self.polls >= self.at_step {
            self.fired = true;
            Some(self.kind)
        } else {
            None
        }
    }

    /// Whether this is a stall fault that has fired (the task must keep
    /// reporting `Blocked`).
    pub(crate) fn stalling(&self) -> bool {
        self.fired && self.kind == FaultKind::Stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_arms_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.arm("join", 0, 0).is_none());
    }

    #[test]
    fn selectors_match_kind_op_and_instance() {
        let plan = FaultPlan::new().with_point(
            FaultPoint::new("join", 3, FaultKind::Panic)
                .at_op(1)
                .at_instance(2),
        );
        assert!(plan.arm("join", 1, 2).is_some());
        assert!(plan.arm("join", 1, 0).is_none());
        assert!(plan.arm("join", 0, 2).is_none());
        assert!(plan.arm("aggregate", 1, 2).is_none());
    }

    #[test]
    fn fires_exactly_once_at_step() {
        let plan = FaultPlan::new().with_point(FaultPoint::new("limit", 3, FaultKind::Panic));
        let mut armed = plan.arm("limit", 5, 0).expect("point matches any limit op");
        assert_eq!(armed.fire(), None);
        assert_eq!(armed.fire(), None);
        assert_eq!(armed.fire(), Some(FaultKind::Panic));
        assert_eq!(armed.fire(), None, "a fault fires once");
    }

    #[test]
    fn stall_keeps_stalling_after_firing() {
        let plan = FaultPlan::new().with_point(FaultPoint::new("join", 1, FaultKind::Stall));
        let mut armed = plan.arm("join", 0, 0).expect("matches");
        assert!(!armed.stalling());
        assert_eq!(armed.fire(), Some(FaultKind::Stall));
        assert!(armed.stalling());
        assert_eq!(armed.fire(), None);
        assert!(armed.stalling());
    }

    #[test]
    fn seeded_step_is_deterministic_and_spread() {
        let plan = FaultPlan::seeded(42).with_point(FaultPoint::new("join", 0, FaultKind::Stall));
        let a = plan.arm("join", 0, 0).expect("matches");
        let b = plan.arm("join", 0, 0).expect("matches");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same identity, same step"
        );
        let c = plan.arm("join", 0, 1).expect("matches");
        // Different instances may land on different steps; all are >= 1.
        assert!(format!("{c:?}").contains("at_step"));
    }
}
