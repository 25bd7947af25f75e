//! Discrete-event simulator of a PRISMA/DB-style shared-nothing
//! main-memory multiprocessor.
//!
//! The paper ran on a 100-node 68020 machine; this crate substitutes a
//! calibrated simulator so the 20–80-processor experiments (Figs. 9–14)
//! can be regenerated anywhere. The simulator models *exactly* the four
//! overhead sources the paper analyses (§3.5) and nothing else:
//!
//! 1. **startup** — a single scheduler initializes every operation process
//!    serially ([`mj_core::Machine::t_init`] each);
//! 2. **coordination** — each redistribution opens `n×m` tuple streams,
//!    each requiring a handshake ([`mj_core::Machine::t_handshake`]);
//! 3. **discretization** — integer processor allocation comes straight
//!    from the plan (`mj-core`), so load imbalance emerges naturally;
//! 4. **pipeline delay** — tuples flow in batches with per-tuple
//!    processing costs and per-batch latency; the pipelining join's
//!    early-emission behaviour follows the product form
//!    `emitted = out · (left_consumed/left) · (right_consumed/right)`,
//!    which reproduces the constant per-step delay of linear pipelines and
//!    the operand-proportional delay of bushy pipelines (\[WiA93\], §2.3.3).
//!
//! Every per-action cost comes from one [`mj_core::Machine`], the same one
//! the analytic schedule model in `mj-core` reads; [`SimParams`] adds only
//! the simulation's own batch, per-hop latency and tuple size. Absolute
//! times are calibrated to PRISMA-era magnitudes
//! ([`mj_core::Machine::prisma`]: 0.45 ms per tuple action, a few thousand
//! tuple-operations per second per 68020 processor); the reproduction
//! claims curve *shapes*, not absolute seconds.

#![warn(missing_docs)]

pub mod engine;
pub mod gantt;
pub mod memory;
pub mod params;
pub mod report;
pub mod scenario;
pub mod skew;

pub use engine::{simulate, simulate_skewed};
pub use gantt::render_gantt;
pub use memory::peak_bytes_per_processor;
pub use params::SimParams;
pub use report::SimResult;
pub use scenario::{run_scenario, Scenario, ScenarioResult};
pub use skew::SkewModel;
