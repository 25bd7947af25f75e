//! The traced pass: per-layer numbers taken from outside, by timing calls
//! into public functions. One serial connection sends a seeded sequence of
//! requests over the wire; the same requests are then replayed in-process
//! phase by phase, and probed function by function. Each segment runs
//! back to back, because the server's idle back-off would otherwise charge
//! the gaps a replay leaves to the next wire request. Kernels and process
//! gauges follow. End-to-end metrics are never taken from this pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mj_exec::stream::Batch;
use mj_exec::{Database, PreparedStatement, QueryOptions};
use mj_join::ColumnarTable;
use mj_relalg::{simd, CmpOp, RelationProvider};
use mj_server::protocol::{
    batch_frame_bin_into, batch_frame_into, decode_bin_payload, parse_request,
};
use mj_storage::scan_columns;
use serde::JsonValue;

use crate::procstat::{self, ThreadSampler};
use crate::result::{Metric, PER_LAYER};
use crate::stats;
use crate::trace::{self, TraceFile, Tracer};
use crate::workloads::{
    drive, Conn, Expected, Fixture, Res, Rng, SetupTimes, StreamOutcome, StreamSpec, Window,
    Workload,
};

pub struct TracedOutcome {
    pub metrics: Vec<Metric>,
    pub reported: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub trace: TraceFile,
}

/// Named sample vectors; a missing name reads as an empty sample.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn p50(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    fn count(&self, name: &str) -> u64 {
        self.get(name).len() as u64
    }
}

/// The request line the client sends for this stream (`Client` renders the
/// same JSON), for timing `parse_request` on real input.
fn request_line(spec: &StreamSpec, stmt_id: u64, text: &str, arg: i64) -> String {
    let mut frame = if spec.prepared {
        let mut body = vec![("id".to_string(), JsonValue::UInt(stmt_id))];
        if spec.data.params() == 1 {
            body.push((
                "args".to_string(),
                JsonValue::Arr(vec![JsonValue::Int(arg)]),
            ));
        }
        vec![("execute".to_string(), JsonValue::Obj(body))]
    } else {
        vec![("query".to_string(), JsonValue::Str(text.to_string()))]
    };
    if spec.bin {
        frame.push(("format".to_string(), JsonValue::Str("bin".to_string())));
    }
    serde_json::to_string(&JsonValue::Obj(frame)).expect("serialization is total")
}

/// Replays one request in-process, phase by phase, recording spans.
struct Replayer<'a> {
    db: &'a Database,
    spec: StreamSpec,
    stmt: Arc<PreparedStatement>,
    prepared_sql: String,
    json_scratch: String,
    bin_scratch: Vec<u8>,
    /// The encoded reply of the current request, as the socket would carry it.
    frames: Vec<u8>,
}

impl Replayer<'_> {
    /// What the server and client do for this request, minus the socket.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        request: u64,
        arg: i64,
    ) -> Res<()> {
        let data = self.spec.data;
        let text = data.adhoc_sql(arg);
        let args = data.args(&arg);
        let line = request_line(&self.spec, 1, &text, arg);
        let replay = tracer.open("replay", None, request);

        let span = tracer.open("protocol.parse_request", Some(replay), request);
        black_box(parse_request(black_box(line.as_bytes())).map_err(|e| e.message)?);
        samples.push("parse_ms", tracer.close(span));

        // An ad-hoc request is planned first (`Database::query` does the
        // same two steps); a prepared one binds its arguments inside
        // `execute_prepared`.
        let mut plan_ms = 0.0;
        let planned = if self.spec.prepared {
            None
        } else {
            let span = tracer.open("session.plan", Some(replay), request);
            let planned = self.db.plan(&text)?;
            plan_ms = tracer.close(span);
            Some(planned)
        };
        let execute = tracer.open("engine.execute", Some(replay), request);
        let span = tracer.open("engine.submit", Some(execute), request);
        let mut handle = match &planned {
            None => self.db.execute_prepared(&self.stmt, args)?,
            Some(planned) => self.db.engine().submit_with(
                &planned.plan,
                &planned.binding,
                QueryOptions::default(),
            )?,
        };
        tracer.close(span);
        let streaming = tracer.open("engine.stream", Some(execute), request);
        let mut stream = handle.stream();
        self.frames.clear();
        let mut encode_ms = 0.0;
        while let Some(batch) = stream.next_batch() {
            let span = tracer.open("protocol.encode", Some(streaming), request);
            if self.spec.bin {
                batch_frame_bin_into(&batch, &mut self.bin_scratch).map_err(|e| e.message)?;
                self.frames.extend_from_slice(&self.bin_scratch);
            } else {
                batch_frame_into(&batch, &mut self.json_scratch).map_err(|e| e.message)?;
                self.frames.extend_from_slice(self.json_scratch.as_bytes());
                self.frames.push(b'\n');
            }
            encode_ms += tracer.close(span);
        }
        drop(stream); // fully drained: dropping does not cancel
        tracer.close(streaming);
        let span = tracer.open("engine.join", Some(execute), request);
        let outcome = handle.outcome()?;
        tracer.close(span);
        let execute_ms = tracer.close(execute);

        let span = tracer.open("client.decode", Some(replay), request);
        if self.spec.bin {
            let mut rest = &self.frames[..];
            while rest.len() >= 5 {
                let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
                black_box(decode_bin_payload(&rest[5..5 + len]).map_err(|e| e.message)?);
                rest = &rest[5 + len..];
            }
        } else {
            for frame in self.frames.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                let frame = std::str::from_utf8(frame)?;
                black_box(serde_json::from_str::<JsonValue>(frame)?);
            }
        }
        tracer.close(span);
        samples.push("replay_ms", tracer.close(replay));

        // The engine's share, as `execute(..).collect()` in-process would
        // time it: the encode spans are the server's work, not the engine's.
        let wall_ms = execute_ms - encode_ms;
        let response_ms = outcome.elapsed.as_secs_f64() * 1e3;
        let metrics = &outcome.metrics;
        samples.push("engine_wall_ms", wall_ms);
        // What `Database::query`/`execute_prepared(..).collect()` costs
        // in-process: the server adds the wire to exactly this.
        samples.push("session_ms", plan_ms + wall_ms);
        samples.push("engine_response_ms", response_ms);
        samples.push("engine_submit_overhead_ms", wall_ms - response_ms);
        samples.push("processes", metrics.processes as f64);
        samples.push("streams", metrics.streams as f64);
        samples.push("sched_steps", metrics.sched_steps as f64);
        if metrics.sched_steps > 0 {
            let blocked = metrics.sched_blocked as f64 / metrics.sched_steps as f64;
            samples.push("sched_blocked_share", blocked);
        }
        if let Some(ttfb) = outcome.time_to_first_batch {
            samples.push("ttfb_ms", ttfb.as_secs_f64() * 1e3);
        }
        let q_error = metrics.max_q_error();
        samples.push("q_error", if q_error.is_finite() { q_error } else { 1e9 });
        Ok(())
    }

    /// Single public functions on this request's text, to split what the
    /// replay cannot see into. Not part of the replay sum.
    fn probe(
        &mut self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        request: u64,
        arg: i64,
    ) -> Res<()> {
        let text = self.spec.data.adhoc_sql(arg);
        let args = self.spec.data.args(&arg);
        let probe = tracer.open("probe", None, request);
        let span = tracer.open("probe.bind", Some(probe), request);
        black_box(self.db.bind(&text)?);
        samples.push("bind_ms", tracer.close(span));
        let span = tracer.open("probe.plan", Some(probe), request);
        black_box(self.db.plan(&text)?);
        samples.push("plan_ms", tracer.close(span));
        let span = tracer.open("probe.prepare_hit", Some(probe), request);
        black_box(self.db.prepare(&self.prepared_sql)?);
        samples.push("prepare_hit_ms", tracer.close(span));
        let span = tracer.open("probe.bind_params", Some(probe), request);
        black_box(self.stmt.planned().bind_params(args)?);
        samples.push("bind_params_ms", tracer.close(span));
        tracer.close(probe);
        Ok(())
    }
}

/// Median ns per unit of a kernel: timed in blocks of at least 200 µs
/// (so the clock's own cost vanishes) until `budget` is spent.
fn time_kernel(budget: Duration, units: usize, mut kernel: impl FnMut()) -> (f64, u64) {
    let once = Instant::now();
    kernel();
    let once = once.elapsed().max(Duration::from_nanos(50));
    let per_block = (Duration::from_micros(200).as_nanos() / once.as_nanos()).max(1) as u64;
    let mut blocks = Vec::new();
    let started = Instant::now();
    while blocks.len() < 5 || (started.elapsed() < budget && blocks.len() < 400) {
        let at = Instant::now();
        for _ in 0..per_block {
            kernel();
        }
        let ns = at.elapsed().as_nanos() as f64;
        blocks.push(ns / (per_block as f64 * units.max(1) as f64));
    }
    (stats::median(&blocks), blocks.len() as u64 * per_block)
}

/// The kernels the workload's query leans on, run on its own columns.
fn kernels(db: &Database, spec: &StreamSpec, budget: Duration, out: &mut Vec<Metric>) -> Res<()> {
    let data = spec.data;
    let columns = |i: usize| -> Res<_> {
        let relation = db.catalog().relation(&format!("{}{i}", data.prefix()))?;
        Ok(scan_columns(&relation)?)
    };
    let (left, right) = (columns(0)?, columns(1)?);
    let n = data.tuples();

    // The first join of the chain: build on R1.a, probe with R0.b.
    let (build, calls) = time_kernel(budget, n, || {
        let mut table = ColumnarTable::with_capacity(n);
        table.insert_batch(&right, 0, 0..n).expect("int key column");
        black_box(table.len());
    });
    out.push(Metric::new("join.build_ns_per_tuple", "ns", build, calls));
    let mut table = ColumnarTable::with_capacity(n);
    table.insert_batch(&right, 0, 0..n)?;
    let probe_keys = left.int_col(1)?;
    let mut pairs = Vec::new();
    let (probe, calls) = time_kernel(budget, n, || {
        pairs.clear();
        table.probe_into(black_box(probe_keys), 0..n, &mut pairs);
        black_box(pairs.len());
    });
    out.push(Metric::new("join.probe_ns_per_tuple", "ns", probe, calls));

    // The filter column and a payload column of R1.
    let ids = right.int_col(2)?;
    let payload = right.int_col(0)?;
    let mut selection = Vec::new();
    let (select, calls) = time_kernel(budget, n, || {
        selection.clear();
        simd::select_cmp(black_box(ids), CmpOp::Lt, (n / 2) as i64, &mut selection);
        black_box(selection.len());
    });
    out.push(Metric::new("relalg.select_ns_per_row", "ns", select, calls));
    let mut gathered = Vec::new();
    let (gather, calls) = time_kernel(budget, selection.len(), || {
        gathered.clear();
        simd::gather_i64(black_box(payload), &selection, &mut gathered);
        black_box(gathered.len());
    });
    out.push(Metric::new("relalg.gather_ns_per_row", "ns", gather, calls));

    // Both encoders and the binary decoder over the batches of the
    // workload's fullest reply. JSON is the protocol's default format and
    // is kept visible here instead of as a sixth workload.
    let fullest = data.arg_values() as i64 - 1;
    let mut handle = db.query(&data.adhoc_sql(fullest))?;
    let batches: Vec<Batch> = handle.stream().collect();
    handle.outcome()?;
    let rows: usize = batches.iter().map(Batch::len).sum();
    let mut bin = Vec::new();
    let mut frames = Vec::new();
    let (encode_bin, calls) = time_kernel(budget, rows, || {
        for batch in &batches {
            batch_frame_bin_into(batch, &mut bin).expect("well-formed batch");
            black_box(bin.len());
        }
    });
    out.push(Metric::new(
        "protocol.encode_bin_ns_per_row",
        "ns",
        encode_bin,
        calls,
    ));
    let mut json = String::new();
    let (encode_json, calls) = time_kernel(budget, rows, || {
        for batch in &batches {
            batch_frame_into(batch, &mut json).expect("well-formed batch");
            black_box(json.len());
        }
    });
    out.push(Metric::new(
        "protocol.encode_json_ns_per_row",
        "ns",
        encode_json,
        calls,
    ));
    for batch in &batches {
        batch_frame_bin_into(batch, &mut bin).map_err(|e| e.message)?;
        frames.push(bin[5..].to_vec());
    }
    let (decode_bin, calls) = time_kernel(budget, rows, || {
        for payload in &frames {
            black_box(decode_bin_payload(black_box(payload)).expect("own encoding decodes"));
        }
    });
    out.push(Metric::new(
        "protocol.decode_bin_ns_per_row",
        "ns",
        decode_bin,
        calls,
    ));
    Ok(())
}

/// One over-wire request on the traced connection; `None` on a failure.
fn wire_request(conn: &mut Conn, expected: &[Expected], arg: i64) -> Option<f64> {
    let sent = Instant::now();
    let ok =
        matches!(conn.request(arg, false), Ok(reply) if reply.matches(&expected[arg as usize]));
    ok.then(|| sent.elapsed().as_secs_f64() * 1e3)
}

pub fn traced_pass(
    fixture: &mut Fixture,
    workload: &Workload,
    expected: &[Vec<Expected>],
    setups: &[SetupTimes],
    seed: u64,
    seconds: f64,
) -> Res<TracedOutcome> {
    let spec = workload.streams[0];
    let data = spec.data;
    let values = data.arg_values();
    let mut rng = Rng::new(seed ^ 0x7ACE);
    let cache_before = fixture.db.stats();
    let mut traced_conn = fixture.connect(&spec)?;
    let Fixture { db, conns, .. } = fixture;
    let db: &Database = db;

    let mut samples = Samples::default();
    let mut tracer = Tracer::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let stop = AtomicBool::new(false);
    let forever = Window {
        measure_from: Instant::now(),
        until: Instant::now() + Duration::from_secs(3600),
    };
    let segment = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);

    let (cpu_per_query_ms, cache_after, threads_peak, background) =
        std::thread::scope(|scope| -> Res<_> {
            // The other streams of the workload keep running beside the
            // traced connection: contention is what `mixed_paced` is.
            let background =
                scope.spawn(|| drive(&mut conns[1..], &expected[1..], seed, forever, &stop));
            let sampler = ThreadSampler::start();
            let result = (|| -> Res<_> {
                let until = segment(0.05);
                while Instant::now() < until {
                    wire_request(&mut traced_conn, &expected[0], rng.below(values));
                }
                // Untraced wire segment: the baseline the traced segment's
                // latency is compared with, and the window the process's
                // CPU cost per query is read over.
                let cpu_before = procstat::cpu_seconds();
                let until = segment(0.2);
                while Instant::now() < until {
                    attempted += 1;
                    match wire_request(&mut traced_conn, &expected[0], rng.below(values)) {
                        Some(ms) => samples.push("wire_untraced_ms", ms),
                        None => failed += 1,
                    }
                }
                let cpu_s = procstat::cpu_seconds()
                    .zip(cpu_before)
                    .map_or(0.0, |(after, before)| after - before);
                let cpu_per_query_ms =
                    cpu_s * 1e3 / samples.count("wire_untraced_ms").max(1) as f64;
                // Every plan-cache lookup the wire path made: the traced
                // connection's `prepare`, and whatever `execute` looks up.
                let cache_after = db.stats();

                // Traced wire segment.
                let mut sent = Vec::new();
                let until = segment(0.2);
                while Instant::now() < until {
                    let arg = rng.below(values);
                    let request = sent.len() as u64;
                    let span = tracer.open("wire.roundtrip", None, request);
                    attempted += 1;
                    let wire = wire_request(&mut traced_conn, &expected[0], arg);
                    tracer.close(span);
                    match wire {
                        Some(ms) => samples.push("wire_ms", ms),
                        None => failed += 1,
                    }
                    sent.push(arg);
                }

                // The same requests again, in-process: replayed, then probed.
                let mut replayer = Replayer {
                    db,
                    spec,
                    stmt: db.prepare(&data.prepared_sql())?,
                    prepared_sql: data.prepared_sql(),
                    json_scratch: String::new(),
                    bin_scratch: Vec::new(),
                    frames: Vec::new(),
                };
                let until = segment(0.25);
                for (request, &arg) in sent.iter().enumerate() {
                    if Instant::now() >= until {
                        break;
                    }
                    replayer.replay(&mut tracer, &mut samples, request as u64, arg)?;
                }
                let until = segment(0.1);
                for (request, &arg) in sent.iter().enumerate() {
                    if Instant::now() >= until {
                        break;
                    }
                    replayer.probe(&mut tracer, &mut samples, request as u64, arg)?;
                }
                Ok((cpu_per_query_ms, cache_after))
            })();
            let threads_peak = sampler.finish();
            stop.store(true, Ordering::Relaxed);
            let background = background.join().expect("background stream panicked");
            let (cpu_per_query_ms, cache_after) = result?;
            Ok((cpu_per_query_ms, cache_after, threads_peak, background))
        })?;
    for stream in &background {
        attempted += stream.attempted;
        failed += stream.failed;
    }

    let mut metrics = Vec::new();
    let kernel_budget = Duration::from_secs_f64(seconds * 0.015);
    kernels(db, &spec, kernel_budget, &mut metrics)?;

    // Idle window: connections open, nothing in flight.
    let idle = Duration::from_secs_f64((seconds * 0.2).min(2.0));
    let cpu_before = procstat::cpu_seconds();
    std::thread::sleep(idle);
    let idle_cpu_share = procstat::cpu_seconds()
        .zip(cpu_before)
        .map_or(0.0, |(after, before)| (after - before) / idle.as_secs_f64());
    drop(traced_conn);

    let n = samples.count("replay_ms");
    let probes = samples.count("plan_ms");
    let cpu_queries = samples.count("wire_untraced_ms");
    let wire = samples.p50("wire_ms");
    let wire_untraced = samples.p50("wire_untraced_ms");
    let wall = samples.p50("engine_wall_ms");
    let processes = samples.p50("processes");
    let hits = cache_after.plan_cache_hits - cache_before.plan_cache_hits;
    let lookups = hits + cache_after.plan_cache_misses - cache_before.plan_cache_misses;
    let median_of =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut push = |name: &str, unit: &str, value: f64, count: u64| {
        metrics.push(Metric::new(name, unit, value, count));
    };
    push(
        "server.wire_overhead_ms",
        "ms",
        wire - samples.p50("session_ms"),
        n,
    );
    push(
        "protocol.parse_request_us",
        "us",
        samples.p50("parse_ms") * 1e3,
        n,
    );
    push(
        "session.bind_us",
        "us",
        samples.p50("bind_ms") * 1e3,
        probes,
    );
    push(
        "planner.plan_ms",
        "ms",
        samples.p50("plan_ms") - samples.p50("bind_ms"),
        probes,
    );
    push(
        "session.prepare_hit_us",
        "us",
        samples.p50("prepare_hit_ms") * 1e3,
        probes,
    );
    push(
        "planner.bind_params_us",
        "us",
        samples.p50("bind_params_ms") * 1e3,
        probes,
    );
    push(
        "session.plan_cache_hit_ratio",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    push("engine.wall_ms", "ms", wall, n);
    push(
        "engine.response_ms",
        "ms",
        samples.p50("engine_response_ms"),
        n,
    );
    push(
        "engine.submit_overhead_ms",
        "ms",
        samples.p50("engine_submit_overhead_ms"),
        n,
    );
    push("engine.processes", "count", processes, n);
    push("engine.streams", "count", samples.p50("streams"), n);
    push(
        "engine.us_per_process",
        "us",
        wall * 1e3 / processes.max(1.0),
        n,
    );
    push(
        "exec.ttfb_ms",
        "ms",
        samples.p50("ttfb_ms"),
        samples.count("ttfb_ms"),
    );
    push(
        "sched.steps_per_query",
        "count",
        samples.p50("sched_steps"),
        n,
    );
    push(
        "sched.blocked_share",
        "ratio",
        samples.p50("sched_blocked_share"),
        n,
    );
    push("planner.max_q_error", "ratio", samples.p50("q_error"), n);
    push(
        "storage.generate_s",
        "s",
        median_of(|t| t.generate_s),
        setups.len() as u64,
    );
    push(
        "storage.register_analyze_s",
        "s",
        median_of(|t| t.register_analyze_s),
        setups.len() as u64,
    );
    push(
        "trace.unattributed_share",
        "ratio",
        (wire - samples.p50("replay_ms")) / wire,
        n,
    );
    push(
        "trace.overhead_share",
        "ratio",
        (wire - wire_untraced) / wire_untraced,
        cpu_queries,
    );
    push("proc.cpu_ms_per_query", "ms", cpu_per_query_ms, cpu_queries);
    push("proc.threads_peak", "count", threads_peak as f64, 1);
    push(
        "proc.peak_rss_mb",
        "MiB",
        procstat::peak_rss_mb().unwrap_or(0.0),
        1,
    );
    push("proc.idle_cpu_share", "ratio", idle_cpu_share, 1);
    // Registry order, so every traced pass prints the same table.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|(name, _)| *name == m.name));

    let spans = tracer.into_spans();
    let summary = trace::summarize(&spans);
    let mut reported = vec![
        Metric::new("wire.latency_p50_ms", "ms", wire, samples.count("wire_ms")),
        Metric::new(
            "wire.untraced_latency_p50_ms",
            "ms",
            wire_untraced,
            cpu_queries,
        ),
        Metric::new("replay.total_p50_ms", "ms", samples.p50("replay_ms"), n),
    ];
    for s in &summary {
        let name = format!("span.{}.self_p50_us", s.name);
        reported.push(Metric::new(&name, "us", s.self_p50_us, s.count));
    }
    reported.extend(background_metrics(&background));
    Ok(TracedOutcome {
        metrics,
        reported,
        attempted,
        failed,
        trace: TraceFile {
            workload: workload.name.to_string(),
            seed,
            summary,
            spans,
        },
    })
}

/// What the background streams of a traced pass did meanwhile.
fn background_metrics(background: &[StreamOutcome]) -> Vec<Metric> {
    background
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            Metric::new(
                &format!("background.{}.latency_p50_ms", i + 1),
                "ms",
                stats::median(&stream.latency_ms),
                stream.latency_ms.len() as u64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Data;
    use mj_server::Request;

    #[test]
    fn request_lines_parse_as_the_requests_they_stand_for() {
        let spec = |prepared, bin| StreamSpec {
            data: Data::Short,
            prepared,
            bin,
            connections: 1,
            pace_hz: None,
        };
        let line = request_line(&spec(true, true), 3, "", 7);
        assert_eq!(line, r#"{"execute":{"id":3,"args":[7]},"format":"bin"}"#);
        assert!(matches!(
            parse_request(line.as_bytes()),
            Ok(Request::Execute { id: 3, args, .. }) if args == [7]
        ));
        let line = request_line(&spec(false, false), 0, "SELECT * FROM S0", 7);
        assert!(matches!(
            parse_request(line.as_bytes()),
            Ok(Request::Query { query, .. }) if query == "SELECT * FROM S0"
        ));
    }

    #[test]
    fn kernel_timer_reports_per_unit_medians() {
        let mut calls = 0u64;
        let (ns, counted) = time_kernel(Duration::from_millis(5), 10, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(300));
        });
        // One calibration call, then the counted ones.
        assert_eq!(calls, counted + 1);
        // >= 300 µs per call over 10 units.
        assert!(ns >= 30_000.0, "{ns}");
    }
}
