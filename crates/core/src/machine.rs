//! The machine a plan runs on, as the cost of each action it performs.
//!
//! The paper's strategies differ only in how they spend a few machine
//! costs: the serial start of an operation process (§2.2), one handshake
//! per tuple stream (§3.5), and the work of one action on one tuple
//! (§4.3). A [`Machine`] holds each of those once. The analytic schedule
//! model ([`ScheduleModel`](crate::schedule::ScheduleModel)) and the
//! discrete-event simulator (`mj_sim::SimParams`) both read it, so the two
//! can only disagree in how they schedule, never in what an action costs.

/// Per-action costs of one machine, all in seconds (per tuple, per stream
/// or per process, as noted) except the dimensionless pipelining factor.
///
/// The analytic model counts in tuple actions: it divides a cost by
/// [`action_s`](Self::action_s). The simulator reads the seconds as they
/// are.
///
/// Tuple *transport* is priced by how it moves. A **live stream** between
/// concurrently running operations pays per-tuple message passing and flow
/// control at both endpoints (PRISMA shipped pipelined tuples in small
/// flow-controlled packets; \[WiA93\] measured the resulting per-step
/// pipeline costs). A **bulk transfer** of a materialized intermediate
/// (between sequentially scheduled operations, as in SP/SE and between RD
/// segments) moves whole fragments and is several times cheaper per
/// tuple. This asymmetry is what makes deep probe pipelines pay for their
/// earliness — the RD/FP versus SE trade-off of §3.5 and §4.4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Machine {
    /// One tuple action, §4.3's cost unit: hash and insert one tuple into
    /// a join table, or probe the other operand's table with one.
    pub action_s: f64,
    /// Construct one result tuple.
    pub t_result: f64,
    /// Send or receive one tuple on a live (pipelined) stream, charged at
    /// each endpoint.
    pub t_stream: f64,
    /// Send or receive one tuple of a bulk (materialized) fragment
    /// transfer, charged at each endpoint.
    pub t_bulk: f64,
    /// Scheduler time to initialize one operation process. Initializations
    /// are strictly serial — the scheduler is a single process (§2.2), the
    /// root cause of SP's startup overhead at scale.
    pub t_init: f64,
    /// Handshake per point-to-point tuple stream ("for each tuple stream
    /// the sender and receiver have to shake hands", §3.5), charged to
    /// each endpoint instance per stream it participates in.
    pub t_handshake: f64,
    /// Per-tuple cost of a materialized edge in the analytic model, paid
    /// once per tuple by the producer instance that writes it and once per
    /// tuple *of the whole operand* by every consumer instance: the model
    /// has each bucket-scan all fragments and keep its share, so an n-way
    /// consumer reads the operand n times where a stream routes it once.
    /// The executor no longer does that (a producer splits its output once,
    /// at its consumer's degree), so this over-prices a materialized edge
    /// until it is re-measured; it is kept because it steers the planner.
    pub t_rescan: f64,
    /// Per-tuple work of the symmetric pipelining hash-join relative to
    /// the simple hash-join's single action per tuple. The pipelining join
    /// inserts *and* probes every incoming tuple (§2.3.2), but the probe
    /// hits a partially built table, so the factor sits between 1 (insert
    /// only) and 2 (insert plus full-table probe).
    pub pipelining_work_factor: f64,
}

impl Machine {
    /// The paper's machine, calibrated so simulated response times land in
    /// its 2–80 s range for the 5K/40K experiments: one action costs
    /// 0.45 ms — about 2 200 tuple actions per second per processor, a
    /// PRISMA-era (68020, interpreted XRA) figure. Materialized operands
    /// are redistributed like streams there, so they carry no re-scan.
    pub fn prisma() -> Self {
        const ACTION_S: f64 = 0.45e-3;
        Machine {
            action_s: ACTION_S,
            t_result: ACTION_S,
            t_stream: 1.2e-3,
            t_bulk: 0.5e-3,
            t_init: 12.0e-3,
            t_handshake: 15.0e-3,
            t_rescan: 0.0,
            pipelining_work_factor: 1.4,
        }
    }

    /// This repo's engine, measured.
    ///
    /// # Calibration
    ///
    /// From the traced pass and the knob evidence of the repo's benchmark
    /// (`benchmark/DIAGNOSIS.md`, 2026-09-25; forced-strategy sweeps repeated
    /// 2026-09-26), all on one two-vCPU Firecracker VM (Xeon 2.1 GHz) with 2
    /// engine workers and 8 logical processors:
    ///
    /// * **The unit.** One tuple action is the mean of `join.build_ns_per_tuple`
    ///   (7.7 ns) and `join.probe_ns_per_tuple` (5.9 ns) on `short_prepared`'s
    ///   columns: **6.8 ns**. Those operands are cache-resident, which is
    ///   where a process start is weighed against tuples at all; on
    ///   `join_heavy`'s 40 000-tuple relations a probe misses cache (28.5 ns)
    ///   and a start is negligible either way. Cross-check: forced RD on
    ///   `join_heavy` responds in 18.3 ms on 2 workers for 3.6 M estimated
    ///   actions of busy time, 10 ns each.
    /// * **`t_init`.** `engine.us_per_process` on `short_prepared`
    ///   (13 joins of 50-tuple relations: kernels are nothing, per-process
    ///   fixed cost is everything) read 52 µs in a noisy stretch and 41 µs in
    ///   a quiet one; 45 µs / 6.8 ns ≈ **6600** actions. PRISMA's 12 ms /
    ///   0.45 ms was 27.
    /// * **`t_handshake`.** Forced SP on the same chain at 8, 16 and
    ///   32 logical processors runs 13·p processes over 12·p² streams, which
    ///   separates the two: going from 208 processes / 3072 streams to 416 /
    ///   12288 cost 5.45 ms, of which ~25 µs per process leaves ≤ 0.1 µs per
    ///   stream (all streams into one consumer share one channel; a stream is
    ///   one end-of-stream message). 0.1 µs / 6.8 ns ≈ **15**.
    /// * **`t_rescan`** and **`pipelining_work_factor`.**
    ///   `mj-benchmark knobs` on `join_heavy` (6 × 40 000 chain, response-time
    ///   medians of 30): RD 18.3 ms, FP 21.4, SE 30.1, SP 33.5 (18.5 / 20.7 /
    ///   32.3 / 34.3 the day before). SE, SP and RD run the same simple joins
    ///   and differ in the tuples that cross materialized edges — 2.47 M, 2.98 M
    ///   and 0.64 M by the plans' estimates, over 2.66 M actions of join work —
    ///   so SE/RD = 1.65–1.75 and SP/RD = 1.83–1.85 give 1.2–1.5 actions per
    ///   tuple written or re-scanned: **1.3**. With that, FP/RD = 1.12–1.17
    ///   gives a pipelining factor of **1.5**, which is also what the cost
    ///   function says of a symmetric join that inserts *and* probes both
    ///   operands (4n becomes 6n on a regular join).
    /// * **`ScheduleModel::pipeline_tail`** is structural, not a machine
    ///   constant: 0.1.
    ///
    /// A result tuple is one action, as on PRISMA and as §4.3 prices
    /// "create". Nothing measured a per-tuple transport cost: a batch
    /// changes hands by pointer, so streams and bulk transfers charge none
    /// here, and a materialized edge costs its write and re-scans
    /// (`t_rescan`).
    pub fn measured() -> Self {
        const ACTION_S: f64 = 6.8e-9;
        Machine {
            action_s: ACTION_S,
            t_result: ACTION_S,
            t_stream: 0.0,
            t_bulk: 0.0,
            t_init: 6600.0 * ACTION_S,
            t_handshake: 15.0 * ACTION_S,
            t_rescan: 1.3 * ACTION_S,
            pipelining_work_factor: 1.5,
        }
    }

    /// All overheads zeroed: only per-tuple work remains, with uniform
    /// costs so an operation's duration is proportional to its weight
    /// over its degree — the paper's *idealized* utilization diagrams
    /// (Figs. 3, 4, 6, 7), which "do not take into account overhead
    /// incurred by the parallel execution".
    pub fn idealized() -> Self {
        Machine {
            action_s: 1e-3,
            t_result: 0.0,
            t_stream: 0.0,
            t_bulk: 0.0,
            t_init: 0.0,
            t_handshake: 0.0,
            t_rescan: 0.0,
            pipelining_work_factor: 1.0,
        }
    }

    /// Validates that every cost is finite and non-negative, the action
    /// (the unit) positive and the pipelining factor at least 1.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("t_result", self.t_result),
            ("t_stream", self.t_stream),
            ("t_bulk", self.t_bulk),
            ("t_init", self.t_init),
            ("t_handshake", self.t_handshake),
            ("t_rescan", self.t_rescan),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if !(self.action_s.is_finite() && self.action_s > 0.0) {
            return Err(format!(
                "action_s must be finite and positive, got {}",
                self.action_s
            ));
        }
        if !(self.pipelining_work_factor.is_finite() && self.pipelining_work_factor >= 1.0) {
            return Err(format!(
                "pipelining_work_factor must be >= 1, got {}",
                self.pipelining_work_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for m in [Machine::prisma(), Machine::measured(), Machine::idealized()] {
            m.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_values() {
        for bad in [
            Machine {
                t_init: -1.0,
                ..Machine::prisma()
            },
            Machine {
                action_s: 0.0,
                ..Machine::prisma()
            },
            Machine {
                t_stream: f64::NAN,
                ..Machine::prisma()
            },
            Machine {
                pipelining_work_factor: 0.5,
                ..Machine::prisma()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
