//! The paper's contribution: phase-2 parallelization of a multi-join tree.
//!
//! Given the minimal-total-cost join tree from phase 1 (`mj-plan`), this
//! crate generates a **parallel execution plan** with one of the four
//! strategies the paper compares (§3):
//!
//! | Strategy | Inter-op parallelism | Pipelining | Join algorithm |
//! |----------|---------------------|------------|----------------|
//! | [`Strategy::SP`] Sequential Parallel | none | none | simple |
//! | [`Strategy::SE`] Synchronous Execution \[CYW92\] | independent subtrees | none | simple |
//! | [`Strategy::RD`] Segmented Right-Deep \[CLY92\] | independent segments | within segments | simple |
//! | [`Strategy::FP`] Full Parallel \[WiA91\] | all joins | both operands | pipelining |
//!
//! The output ([`plan_ir::ParallelPlan`]) is a backend-neutral physical IR
//! — the analogue of the XRA execution plans PRISMA's generator emitted
//! (§4.3) — consumed by both the real threaded engine (`mj-exec`) and the
//! discrete-event simulator (`mj-sim`). Processor allocation follows the
//! paper: proportional to the estimated work of each join under the §4.3
//! cost function, subject to integer *discretization* — one of the four
//! overhead sources the experiments quantify. A caller that prices a
//! process start ([`ScheduleModel::process_grain`]) may additionally bound
//! every operation to the degree its work pays for
//! ([`GeneratorInput::grain`]), and run an operation that does not pay for
//! even one start inside its consumer's process
//! ([`OperandSource::Fused`]); both are applied here, so both backends and
//! every plan printout see the final degrees and processes.

#![warn(missing_docs)]

pub mod allocation;
mod bits;
pub mod example;
pub mod generator;
pub mod machine;
pub mod plan_ir;
pub mod schedule;
pub mod strategy;
pub mod validate;

pub use allocation::{carve, max_useful_degree, proportional_counts};
pub use example::{example_tree, example_weights};
pub use generator::{generate, GeneratorInput};
pub use machine::Machine;
pub use plan_ir::{OpId, OperandSource, ParallelPlan, PlanOp, PlanStats, ProcId, Split};
pub use schedule::{
    estimate_schedule, stage_busy, stage_tail_cost, ScheduleEstimate, ScheduleModel,
};
pub use strategy::Strategy;
pub use validate::{validate_plan, ValidPlan};
