//! The result schema (`out/result*.json`), the registry of metric names,
//! and the one-line contract object the driver reads.

use serde::{Deserialize, JsonValue, Serialize};

/// An end-to-end metric as `BENCHMARK.json` lists it (a unit test holds
/// the two equal). An untraced pass reports exactly these.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The share of the baseline's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them. A traced pass reports exactly these, each on the workload's own
/// data and query.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.wire_overhead_ms", "ms"),
    ("protocol.parse_request_us", "us"),
    ("protocol.encode_bin_ns_per_row", "ns"),
    ("protocol.encode_json_ns_per_row", "ns"),
    ("protocol.decode_bin_ns_per_row", "ns"),
    ("session.bind_us", "us"),
    ("planner.plan_ms", "ms"),
    ("session.prepare_hit_us", "us"),
    ("planner.bind_params_us", "us"),
    ("session.plan_cache_hit_ratio", "ratio"),
    ("engine.wall_ms", "ms"),
    ("engine.response_ms", "ms"),
    ("engine.submit_overhead_ms", "ms"),
    ("engine.processes", "count"),
    ("engine.streams", "count"),
    ("engine.us_per_process", "us"),
    ("exec.ttfb_ms", "ms"),
    ("sched.steps_per_query", "count"),
    ("sched.blocked_share", "ratio"),
    ("join.build_ns_per_tuple", "ns"),
    ("join.probe_ns_per_tuple", "ns"),
    ("relalg.select_ns_per_row", "ns"),
    ("relalg.gather_ns_per_row", "ns"),
    ("planner.max_q_error", "ratio"),
    ("storage.generate_s", "s"),
    ("storage.register_analyze_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("proc.cpu_ms_per_query", "ms"),
    ("proc.threads_peak", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("proc.idle_cpu_share", "ratio"),
];

/// One measured number. `samples` is how many observations the value
/// summarizes (requests for a percentile, repeats for `setup_s`, calls
/// for a kernel).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            // JSON has no NaN or infinity; a metric with nothing to
            // measure reads 0 with 0 samples.
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        }
    }
}

/// One pass (untraced or traced) of one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PassResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    /// Length of the measured window, s.
    pub seconds: f64,
    /// Every distinct query matched the reference before timing, and no
    /// timed request failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle/reference verification time, outside `setup_s`.
    pub verify_s: f64,
    /// The registry metrics of this pass: [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Reported, not gated: the latency tail, row rates, generator
    /// lateness, `failed_share`, span self times.
    pub reported: Vec<Metric>,
}

impl PassResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The contract's result object: `correct`, `attempted`, `failed` and
    /// the registry metrics by name.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), JsonValue::Float(m.value)),
                    ("unit".to_string(), JsonValue::Str(m.unit.clone())),
                ];
                (m.name.clone(), JsonValue::Obj(body))
            })
            .collect();
        let line = JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct)),
            ("attempted".to_string(), JsonValue::UInt(self.attempted)),
            ("failed".to_string(), JsonValue::UInt(self.failed)),
            ("metrics".to_string(), JsonValue::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("serialization is total")
    }
}

/// One result file: every pass of one `run`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: u32,
    pub seed: u64,
    /// `std::thread::available_parallelism` of the machine that ran it.
    pub cores: u64,
    pub passes: Vec<PassResult>,
}

pub const SCHEMA: u32 = 1;

impl ResultFile {
    pub fn to_json(&self) -> String {
        // One pass per line keeps the file diffable without a pretty-printer.
        serde_json::to_string(self)
            .expect("serialization is total")
            .replace("{\"workload\"", "\n{\"workload\"")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let file: ResultFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.schema != SCHEMA {
            return Err(format!("result schema {} (want {SCHEMA})", file.schema));
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn sample_pass() -> PassResult {
        PassResult {
            workload: "short_prepared".into(),
            traced: false,
            seed: 11,
            seconds: 10.0,
            correct: true,
            attempted: 1234,
            failed: 0,
            verify_s: 0.25,
            metrics: vec![
                Metric::new("latency_p50_ms", "ms", 1.2034, 1234),
                Metric::new("throughput_qps", "1/s", 123.4, 1234),
                Metric::new("setup_s", "s", 0.0813, 5),
            ],
            reported: vec![Metric::new("latency_p99_ms", "ms", 4.5, 1234)],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            schema: SCHEMA,
            seed: 11,
            cores: 2,
            passes: vec![sample_pass(), sample_pass()],
        };
        let text = file.to_json();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert_eq!(ResultFile::from_json(&text).unwrap(), file);
        assert!(ResultFile::from_json(&text.replace("\"schema\":1", "\"schema\":9")).is_err());
        assert!(ResultFile::from_json("{}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line: JsonValue = serde_json::from_str(&sample_pass().contract_line()).unwrap();
        let JsonValue::Obj(pairs) = &line else {
            panic!("not an object: {line:?}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted"), Some(&JsonValue::Int(1234)));
        let p50 = line.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(p50.get("value"), Some(&JsonValue::Float(1.2034)));
        assert_eq!(p50.get("unit"), Some(&JsonValue::Str("ms".into())));
        // Reported-only numbers stay out of the contract object.
        assert!(line.get("metrics").unwrap().get("latency_p99_ms").is_none());
    }

    #[test]
    fn non_finite_values_read_zero() {
        assert_eq!(Metric::new("x", "ms", f64::NAN, 0).value, 0.0);
        assert_eq!(Metric::new("x", "ms", f64::INFINITY, 0).value, 0.0);
    }

    /// `BENCHMARK.json` is written by hand; the registry here and the
    /// workload table are what the program emits. They must agree.
    #[test]
    fn benchmark_json_agrees_with_the_registry() {
        let manifest: JsonValue =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let items = |section: &str| -> &[JsonValue] {
            match manifest.get(section) {
                Some(JsonValue::Arr(items)) => items,
                _ => panic!("BENCHMARK.json has no `{section}` array"),
            }
        };
        let text = |v: &JsonValue, key: &str| match v.get(key) {
            Some(JsonValue::Str(s)) => s.clone(),
            other => panic!("entry without string `{key}`: {other:?}"),
        };
        let listed = |section: &str, second: &str| -> Vec<(String, String)> {
            items(section)
                .iter()
                .map(|v| (text(v, "name"), text(v, second)))
                .collect()
        };
        let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        let end_to_end: Vec<_> = items("end_to_end")
            .iter()
            .map(|v| {
                let bound = match v.get("bound") {
                    Some(JsonValue::Float(bound)) => *bound,
                    other => panic!("end_to_end entry without a bound: {other:?}"),
                };
                (text(v, "name"), text(v, "unit"), text(v, "better"), bound)
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert!(m.bound > 0.0 && m.bound <= 0.25);
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better.to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);
        assert_eq!(listed("per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed("workloads", "why"), owned(&workloads));
        for (_, why) in workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
