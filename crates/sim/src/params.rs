//! Simulation parameters: a [`Machine`] plus what only a discrete-event
//! simulation needs.

use mj_core::Machine;

/// The simulated machine and the simulation's own granularity.
///
/// [`Default`] is PRISMA ([`Machine::prisma`]): simulated response times
/// land in the paper's 2–80 s range for the 5K/40K experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimParams {
    /// Per-action costs, in seconds — the same ones the analytic schedule
    /// model reads.
    pub machine: Machine,
    /// Network latency per batch hop, in seconds — the constant part of
    /// the per-step pipeline delay of \[WiA93\] (packet forming, flow
    /// control, communication-processor turnaround).
    pub net_latency: f64,
    /// Tuples one operation process consumes per scheduling quantum; the
    /// event granularity of the simulation (smaller = finer pipelining).
    pub batch: f64,
    /// Nominal tuple size for memory accounting (the Wisconsin 208 bytes).
    pub bytes_per_tuple: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            machine: Machine::prisma(),
            net_latency: 0.5,
            batch: 16.0,
            bytes_per_tuple: 208.0,
        }
    }
}

impl SimParams {
    /// All overheads zeroed ([`Machine::idealized`]): the paper's
    /// *idealized* processor utilization diagrams (Figs. 3, 4, 6, 7).
    pub fn idealized() -> Self {
        SimParams {
            machine: Machine::idealized(),
            net_latency: 0.0,
            batch: 4.0,
            bytes_per_tuple: 208.0,
        }
    }

    /// Validates the machine ([`Machine::validate`]), that the latency and
    /// tuple size are finite and non-negative, and that the batch is at
    /// least one tuple.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        for (name, v) in [
            ("net_latency", self.net_latency),
            ("bytes_per_tuple", self.bytes_per_tuple),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if !(self.batch.is_finite() && self.batch >= 1.0) {
            return Err(format!("batch must be >= 1, got {}", self.batch));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimParams::default().validate().unwrap();
        SimParams::idealized().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        let p = SimParams {
            machine: Machine {
                t_init: -1.0,
                ..Machine::prisma()
            },
            ..SimParams::default()
        };
        assert!(p.validate().is_err());
        let p = SimParams {
            batch: 0.0,
            ..SimParams::default()
        };
        assert!(p.validate().is_err());
        let p = SimParams {
            net_latency: f64::NAN,
            ..SimParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn idealized_has_no_overheads() {
        let p = SimParams::idealized();
        assert_eq!(p.machine.t_init, 0.0);
        assert_eq!(p.machine.t_handshake, 0.0);
        assert_eq!(p.net_latency, 0.0);
    }

    #[test]
    fn streams_cost_more_than_bulk_by_default() {
        // The live-stream premium over bulk transfer is the modeled
        // mechanism behind the SE-vs-pipelining trade-off; losing it would
        // silently flatten Figs. 11-13.
        let m = SimParams::default().machine;
        assert!(m.t_stream > m.t_bulk);
    }
}
