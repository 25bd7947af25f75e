//! The wire protocol: line-delimited JSON frames, both directions.
//!
//! Requests (client → server), one JSON object per line:
//!
//! ```text
//! {"query": "SELECT * FROM R0 JOIN R1 ON R0.id = R1.id"}
//! {"query": "...", "options": {"deadline_ms": 5000, "memory_budget_bytes": 1048576}}
//! {"query": "...", "format": "bin"}
//! {"prepare": {"query": "SELECT * FROM R0 WHERE R0.id < ?1"}}
//! {"execute": {"id": 1, "args": [42], "options": {"deadline_ms": 5000}}}
//! {"execute": {"id": 1, "args": [42]}, "format": "bin"}
//! {"close": {"id": 1}}
//! {"metrics": "json"}
//! {"metrics": "prometheus"}
//! ```
//!
//! Responses (server → client), one JSON object per line:
//!
//! ```text
//! {"batch": [[1, 10], [2, 20]]}                     // zero or more, streamed
//! {"done": {"rows": 2, "elapsed_ms": 3.4, "time_to_first_batch_ms": 1.1}}
//! {"prepared": {"id": 1, "params": 1, "columns": ["a", "b"]}}
//! {"closed": {"id": 1}}
//! {"error": {"code": "parse", "message": "...", "span": {"start": 7, "end": 9}}}
//! {"error": {"code": "overloaded", "message": "...", "span": null, "queue_depth": 16}}
//! {"metrics": {"<series>": 7, ...}}                 // answer to {"metrics":"json"}
//! {"metrics_text": "# HELP <series> ..."}          // answer to {"metrics":"prometheus"}
//! ```
//!
//! The `metrics` object is keyed by series name, one key per row of
//! [`mj_exec::METRICS_ACCEPT_LIST`] in table order: the names the
//! Prometheus text uses. A counter or gauge is a number, a histogram
//! `{"bounds_ms": [...], "counts": [...], "sum_ms": ..., "count": ...}`.
//!
//! Every request gets exactly one terminal frame (`done`, `error`,
//! `prepared`, `closed`, `metrics`, or `metrics_text`); responses to
//! pipelined requests arrive strictly in request order. A malformed
//! request frame produces a typed `error` frame with code `protocol` and
//! the connection **survives** — only a client disconnect (or server
//! shutdown) closes it.
//!
//! # Binary result batches
//!
//! A `query` or `execute` request carrying `"format": "bin"` receives its
//! result **batches** as length-prefixed binary frames serialized straight
//! from the engine's columnar buffers — no per-row JSON pivot. All other
//! frames (`done`, `error`, `prepared`, ...) stay JSON lines, so a client
//! discriminates by the first byte: `{` opens a JSON line, the magic byte
//! [`BIN_FRAME_MAGIC`] (`0xB1`, never valid UTF-8 text) opens a binary
//! frame. The frame layout, all integers little-endian:
//!
//! ```text
//! 0xB1  u32 payload_len  payload
//! payload := u32 rows  u16 cols  column*
//! column  := 0x00 rows×i64            // dense integer column
//!          | 0x01 value*              // mixed column, one tagged value per row
//! value   := 0x00 i64                 // integer
//!          | 0x01 u32 len  UTF-8 bytes // string
//! ```
//!
//! As a convenience for scrapers, a line starting with `GET /metrics`
//! (an HTTP/1.x request line) switches the connection to one-shot HTTP:
//! the server answers with a minimal `200 OK` carrying the Prometheus
//! text exposition (or the JSON snapshot for `GET /metrics.json`) and
//! closes. See [`http_metrics_request`].

use std::fmt::Write as _;
use std::time::Duration;

use mj_exec::stream::Batch;
use mj_exec::{metrics, EngineStats, MjError, QueryOptions};
use mj_plan::parse::Span;
use mj_relalg::{Column, Value};
use serde::JsonValue;

/// Hard cap on one request line (bytes, newline included). Longer lines
/// are rejected with an `oversized_frame` error; the connection survives
/// by discarding input until the next newline.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// First byte of a binary batch frame. `0xB1` is never the first byte of
/// a UTF-8 JSON line (which always opens with `{`), so a client peeking
/// one byte can discriminate frame kinds without lookahead.
pub const BIN_FRAME_MAGIC: u8 = 0xB1;

/// Column tag: dense little-endian `i64` run.
pub const BIN_COL_INT: u8 = 0x00;
/// Column tag: per-row tagged values.
pub const BIN_COL_VAL: u8 = 0x01;
/// Value tag inside a [`BIN_COL_VAL`] column: little-endian `i64`.
pub const BIN_VAL_INT: u8 = 0x00;
/// Value tag inside a [`BIN_COL_VAL`] column: `u32` length + UTF-8 bytes.
pub const BIN_VAL_STR: u8 = 0x01;

/// How the client wants the metrics snapshot rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The accept-listed series as a JSON object keyed by series name
    /// (`{"metrics": {...}}`).
    Json,
    /// Prometheus text exposition, JSON-escaped (`{"metrics_text": "..."}`).
    Prometheus,
}

/// How result batches travel back to the client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResultFormat {
    /// Row-pivoted JSON `batch` lines (the default).
    #[default]
    Json,
    /// Length-prefixed binary columnar frames (see the module docs).
    Bin,
}

/// One parsed request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// Execute a query and stream its result batches back.
    Query {
        /// The query text (the SQL subset `mj_plan::parse` accepts).
        query: String,
        /// Per-query limits (deadline, memory budget).
        options: QueryOptions,
        /// Batch encoding for the reply stream.
        format: ResultFormat,
    },
    /// Plan a parameterized query once; answer with a `prepared` frame
    /// carrying the statement id.
    Prepare {
        /// The query text, with `?N` placeholders.
        query: String,
    },
    /// Run a previously prepared statement with bound arguments.
    Execute {
        /// Statement id from the `prepared` frame.
        id: u64,
        /// One integer per `?N` placeholder, in placeholder order.
        args: Vec<i64>,
        /// Per-query limits (deadline, memory budget).
        options: QueryOptions,
        /// Batch encoding for the reply stream.
        format: ResultFormat,
    },
    /// Discard a prepared statement; answer with a `closed` frame.
    Close {
        /// Statement id to drop.
        id: u64,
    },
    /// Report the engine's accept-listed metrics snapshot.
    Metrics(MetricsFormat),
}

/// A typed wire-level error, rendered as an `error` frame. Every
/// [`MjError`] variant maps onto a stable `code` string; protocol-level
/// rejections (malformed JSON, oversized lines, unknown fields, bad
/// UTF-8) use the `protocol` / `oversized_frame` codes.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Source span for parse/bind diagnostics.
    pub span: Option<Span>,
    /// Queue depth, present only for `overloaded` so clients can back off
    /// proportionally: the open connections when the connection cap turned
    /// this one away, or the requests queued ahead of one that arrived
    /// during a drain.
    pub queue_depth: Option<u64>,
}

impl WireError {
    /// A protocol-level rejection (malformed frame, unknown field, ...).
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError {
            code: "protocol",
            message: message.into(),
            span: None,
            queue_depth: None,
        }
    }

    /// The rejection for a request line longer than [`MAX_LINE_BYTES`].
    pub fn oversized() -> Self {
        WireError {
            code: "oversized_frame",
            message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            span: None,
            queue_depth: None,
        }
    }

    /// The rejection for new work during graceful shutdown or above the
    /// connection cap.
    pub fn overloaded(message: impl Into<String>, queue_depth: u64) -> Self {
        WireError {
            code: "overloaded",
            message: message.into(),
            span: None,
            queue_depth: Some(queue_depth),
        }
    }

    /// Maps a session error onto its wire code. Total over [`MjError`]:
    /// adding a variant upstream breaks this match at compile time.
    pub fn from_mj(e: &MjError) -> Self {
        let (code, span) = match e {
            MjError::Parse(p) => ("parse", Some(p.span)),
            MjError::Bind { span, .. } => ("bind", Some(*span)),
            MjError::DuplicateRelation(_) => ("duplicate_relation", None),
            MjError::Config(_) => ("config", None),
            MjError::Plan(_) => ("plan", None),
            MjError::Params(_) => ("params", None),
            MjError::Exec(_) => ("exec", None),
            MjError::Canceled => ("canceled", None),
            MjError::DeadlineExceeded => ("deadline_exceeded", None),
            MjError::ResourceExhausted { .. } => ("resource_exhausted", None),
            MjError::Stalled(_) => ("stalled", None),
            MjError::Internal(_) => ("internal", None),
        };
        WireError {
            code,
            message: e.to_string(),
            span,
            queue_depth: None,
        }
    }

    /// Renders the `error` frame (no trailing newline).
    pub fn to_frame(&self) -> String {
        let mut obj = vec![
            ("code".to_string(), JsonValue::Str(self.code.to_string())),
            ("message".to_string(), JsonValue::Str(self.message.clone())),
            (
                "span".to_string(),
                match self.span {
                    Some(s) => JsonValue::Obj(vec![
                        ("start".to_string(), JsonValue::UInt(s.start as u64)),
                        ("end".to_string(), JsonValue::UInt(s.end as u64)),
                    ]),
                    None => JsonValue::Null,
                },
            ),
        ];
        if let Some(depth) = self.queue_depth {
            obj.push(("queue_depth".to_string(), JsonValue::Int(depth as i64)));
        }
        let frame = JsonValue::Obj(vec![("error".to_string(), JsonValue::Obj(obj))]);
        to_line(&frame)
    }
}

/// Serializes a frame value to its wire line (without the newline; the
/// connection layer appends it).
fn to_line(v: &JsonValue) -> String {
    serde_json::to_string(v).expect("frame serialization is infallible")
}

/// Parses one request line (arbitrary bytes between newlines). Rejects
/// bad UTF-8, non-object frames, unknown fields, and ill-typed options —
/// each with a typed [`WireError`] the caller turns into an `error` frame.
pub fn parse_request(line: &[u8]) -> Result<Request, WireError> {
    let text = std::str::from_utf8(line)
        .map_err(|e| WireError::protocol(format!("request is not valid UTF-8: {e}")))?;
    let value: JsonValue = serde_json::from_str(text)
        .map_err(|e| WireError::protocol(format!("malformed JSON frame: {e}")))?;
    let pairs = match &value {
        JsonValue::Obj(pairs) => pairs,
        other => {
            return Err(WireError::protocol(format!(
                "request frame must be a JSON object, found {}",
                kind_name(other)
            )))
        }
    };
    for (key, _) in pairs {
        if !matches!(
            key.as_str(),
            "query" | "options" | "metrics" | "prepare" | "execute" | "close" | "format"
        ) {
            return Err(WireError::protocol(format!(
                "unknown request field `{key}`"
            )));
        }
    }
    const VERBS: [&str; 5] = ["query", "metrics", "prepare", "execute", "close"];
    let present: Vec<&str> = VERBS
        .into_iter()
        .filter(|v| value.get(v).is_some())
        .collect();
    if present.len() > 1 {
        return Err(WireError::protocol(format!(
            "request cannot carry both `{}` and `{}`",
            present[0], present[1]
        )));
    }
    let Some(&verb) = present.first() else {
        return Err(WireError::protocol(
            "request must carry `query`, `prepare`, `execute`, `close`, or `metrics`",
        ));
    };
    let body = value.get(verb).expect("verb key is present");
    if verb != "query" && value.get("options").is_some() {
        return Err(WireError::protocol(if verb == "execute" {
            "for `execute`, pass `options` inside the `execute` object"
        } else {
            "`options` applies to `query` requests only"
        }));
    }
    if !matches!(verb, "query" | "execute") && value.get("format").is_some() {
        return Err(WireError::protocol(
            "`format` applies to `query` and `execute` requests only",
        ));
    }
    match verb {
        "query" => {
            let query = as_str(body, "`query`")?;
            let options = match value.get("options") {
                None | Some(JsonValue::Null) => QueryOptions::new(),
                Some(o) => parse_options(o)?,
            };
            Ok(Request::Query {
                query,
                options,
                format: parse_format(&value)?,
            })
        }
        "prepare" => {
            let pairs = as_obj(body, "`prepare`")?;
            for (key, _) in pairs {
                if key != "query" {
                    return Err(WireError::protocol(format!(
                        "unknown `prepare` field `{key}`"
                    )));
                }
            }
            let q = body
                .get("query")
                .ok_or_else(|| WireError::protocol("`prepare` must carry a `query` string"))?;
            Ok(Request::Prepare {
                query: as_str(q, "`prepare.query`")?,
            })
        }
        "execute" => {
            let pairs = as_obj(body, "`execute`")?;
            for (key, _) in pairs {
                if !matches!(key.as_str(), "id" | "args" | "options") {
                    return Err(WireError::protocol(format!(
                        "unknown `execute` field `{key}`"
                    )));
                }
            }
            let id = parse_id(body, "`execute`")?;
            let args = match body.get("args") {
                None | Some(JsonValue::Null) => Vec::new(),
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        as_i64(v).ok_or_else(|| {
                            WireError::protocol(format!(
                                "`execute.args` entries must be integers, found {}",
                                kind_name(v)
                            ))
                        })
                    })
                    .collect::<Result<Vec<i64>, WireError>>()?,
                Some(other) => {
                    return Err(WireError::protocol(format!(
                        "`execute.args` must be an array, found {}",
                        kind_name(other)
                    )))
                }
            };
            let options = match body.get("options") {
                None | Some(JsonValue::Null) => QueryOptions::new(),
                Some(o) => parse_options(o)?,
            };
            Ok(Request::Execute {
                id,
                args,
                options,
                format: parse_format(&value)?,
            })
        }
        "close" => {
            let pairs = as_obj(body, "`close`")?;
            for (key, _) in pairs {
                if key != "id" {
                    return Err(WireError::protocol(format!(
                        "unknown `close` field `{key}`"
                    )));
                }
            }
            Ok(Request::Close {
                id: parse_id(body, "`close`")?,
            })
        }
        "metrics" => match body {
            JsonValue::Str(s) if s == "json" => Ok(Request::Metrics(MetricsFormat::Json)),
            JsonValue::Str(s) if s == "prometheus" => {
                Ok(Request::Metrics(MetricsFormat::Prometheus))
            }
            other => Err(WireError::protocol(format!(
                "`metrics` must be \"json\" or \"prometheus\", found {}",
                render_short(other)
            ))),
        },
        _ => unreachable!("verb list is exhaustive"),
    }
}

fn as_str(v: &JsonValue, what: &str) -> Result<String, WireError> {
    match v {
        JsonValue::Str(s) => Ok(s.clone()),
        other => Err(WireError::protocol(format!(
            "{what} must be a string, found {}",
            kind_name(other)
        ))),
    }
}

fn as_obj<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [(String, JsonValue)], WireError> {
    match v {
        JsonValue::Obj(pairs) => Ok(pairs),
        other => Err(WireError::protocol(format!(
            "{what} must be an object, found {}",
            kind_name(other)
        ))),
    }
}

/// The statement `id` of an `execute`/`close` body: a non-negative integer.
fn parse_id(body: &JsonValue, what: &str) -> Result<u64, WireError> {
    let id = body
        .get("id")
        .ok_or_else(|| WireError::protocol(format!("{what} must carry a statement `id`")))?;
    as_u64(id).ok_or_else(|| {
        WireError::protocol(format!(
            "{what}.id must be a non-negative integer, found {}",
            render_short(id)
        ))
    })
}

/// The top-level `format` field of a `query`/`execute` request.
fn parse_format(value: &JsonValue) -> Result<ResultFormat, WireError> {
    match value.get("format") {
        None | Some(JsonValue::Null) => Ok(ResultFormat::Json),
        Some(JsonValue::Str(s)) if s == "json" => Ok(ResultFormat::Json),
        Some(JsonValue::Str(s)) if s == "bin" => Ok(ResultFormat::Bin),
        Some(other) => Err(WireError::protocol(format!(
            "`format` must be \"json\" or \"bin\", found {}",
            render_short(other)
        ))),
    }
}

/// Parses the `options` object of a query request.
fn parse_options(v: &JsonValue) -> Result<QueryOptions, WireError> {
    let pairs = match v {
        JsonValue::Obj(pairs) => pairs,
        other => {
            return Err(WireError::protocol(format!(
                "`options` must be an object, found {}",
                kind_name(other)
            )))
        }
    };
    let mut opts = QueryOptions::new();
    for (key, val) in pairs {
        match key.as_str() {
            "deadline_ms" => {
                let ms = as_u64(val).ok_or_else(|| {
                    WireError::protocol("`deadline_ms` must be a non-negative integer")
                })?;
                opts = opts.with_deadline(Duration::from_millis(ms));
            }
            "memory_budget_bytes" => {
                let bytes = as_u64(val).ok_or_else(|| {
                    WireError::protocol("`memory_budget_bytes` must be a non-negative integer")
                })?;
                opts = opts.with_memory_budget(bytes);
            }
            other => {
                return Err(WireError::protocol(format!(
                    "unknown option field `{other}`"
                )))
            }
        }
    }
    Ok(opts)
}

fn as_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
        JsonValue::UInt(u) => Some(*u),
        _ => None,
    }
}

fn as_i64(v: &JsonValue) -> Option<i64> {
    match v {
        JsonValue::Int(i) => Some(*i),
        JsonValue::UInt(u) => i64::try_from(*u).ok(),
        _ => None,
    }
}

fn kind_name(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Int(_) | JsonValue::UInt(_) | JsonValue::Float(_) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    }
}

fn render_short(v: &JsonValue) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unrenderable>".to_string())
}

/// Renders a `batch` frame from result rows (no trailing newline).
pub fn batch_frame<'a>(rows: impl Iterator<Item = &'a [Value]>) -> String {
    let rows: Vec<JsonValue> = rows
        .map(|row| JsonValue::Arr(row.iter().map(value_to_json).collect()))
        .collect();
    to_line(&JsonValue::Obj(vec![(
        "batch".to_string(),
        JsonValue::Arr(rows),
    )]))
}

/// One result value as a JSON value: an integer or a string.
pub fn value_to_json(v: &Value) -> JsonValue {
    match v {
        Value::Int(i) => JsonValue::Int(*i),
        Value::Str(s) => JsonValue::Str(s.to_string()),
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An "internal" wire error for conditions the protocol cannot produce
/// (e.g. a ragged batch) — kept typed so encoders stay panic-free.
fn wire_internal(e: impl std::fmt::Display) -> WireError {
    WireError {
        code: "internal",
        message: e.to_string(),
        span: None,
        queue_depth: None,
    }
}

/// Renders a `batch` frame straight from the engine's columnar buffers
/// into a reusable `String` — no `Tuple` materialization, no per-frame
/// allocation once `out` has grown to the high-water frame size. The
/// JSON produced is byte-compatible with [`batch_frame`].
pub fn batch_frame_into(batch: &Batch, out: &mut String) -> Result<(), WireError> {
    out.clear();
    out.push_str("{\"batch\":[");
    let cols = batch.columns();
    let arity = cols.arity();
    for r in 0..batch.len() {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for c in 0..arity {
            if c > 0 {
                out.push(',');
            }
            match cols.column(c).map_err(wire_internal)? {
                Column::Int(v) => {
                    let _ = write!(out, "{}", v[r]);
                }
                // Row refs bit-cast through `i64`, mirroring
                // `ColumnBatch::row`.
                Column::Ref(v) => {
                    let _ = write!(out, "{}", v[r] as i64);
                }
                Column::Val(vals) => match &vals[r] {
                    Value::Int(i) => {
                        let _ = write!(out, "{i}");
                    }
                    Value::Str(s) => write_json_str(out, s),
                },
            }
        }
        out.push(']');
    }
    out.push_str("]}");
    Ok(())
}

/// Serializes a result batch as a binary columnar frame (module docs:
/// "Binary result batches") into a reusable byte buffer. Dense integer
/// and row-ref columns are copied as little-endian `i64` runs straight
/// from the column buffers; value columns fall back to per-row tags.
pub fn batch_frame_bin_into(batch: &Batch, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    out.push(BIN_FRAME_MAGIC);
    out.extend_from_slice(&[0u8; 4]); // payload length, back-patched below
    let rows = batch.len();
    let cols = batch.columns();
    let arity = cols.arity();
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    for c in 0..arity {
        match cols.column(c).map_err(wire_internal)? {
            Column::Int(v) => {
                out.push(BIN_COL_INT);
                for x in &v[..rows] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Ref(v) => {
                out.push(BIN_COL_INT);
                for x in &v[..rows] {
                    out.extend_from_slice(&(*x as i64).to_le_bytes());
                }
            }
            Column::Val(vals) => {
                out.push(BIN_COL_VAL);
                for v in &vals[..rows] {
                    match v {
                        Value::Int(i) => {
                            out.push(BIN_VAL_INT);
                            out.extend_from_slice(&i.to_le_bytes());
                        }
                        Value::Str(s) => {
                            out.push(BIN_VAL_STR);
                            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                            out.extend_from_slice(s.as_bytes());
                        }
                    }
                }
            }
        }
    }
    let payload = (out.len() - 5) as u32;
    out[1..5].copy_from_slice(&payload.to_le_bytes());
    Ok(())
}

/// One decoded column of a binary batch frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WireColumn {
    /// Dense integer column (tag [`BIN_COL_INT`]).
    Int(Vec<i64>),
    /// Mixed value column (tag [`BIN_COL_VAL`]).
    Val(Vec<Value>),
}

/// A decoded binary batch frame: typed columns plus the row count.
#[derive(Clone, Debug, PartialEq)]
pub struct WireBatch {
    /// Number of rows in the batch.
    pub row_count: usize,
    /// One decoded column per result attribute.
    pub columns: Vec<WireColumn>,
}

impl WireBatch {
    /// Pivots the columns into row-major values (the JSON batch shape) —
    /// for differential tests and row-oriented consumers.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.row_count)
            .map(|r| {
                self.columns
                    .iter()
                    .map(|col| match col {
                        WireColumn::Int(v) => Value::Int(v[r]),
                        WireColumn::Val(v) => v[r].clone(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Decodes the payload of a binary batch frame (everything after the
/// magic byte and the `u32` length prefix). Rejects truncated or
/// trailing-garbage payloads with a typed `protocol` error.
pub fn decode_bin_payload(payload: &[u8]) -> Result<WireBatch, WireError> {
    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl<'a> Cursor<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
            let end = end.ok_or_else(|| WireError::protocol("truncated binary batch payload"))?;
            let slice = &self.buf[self.pos..end];
            self.pos = end;
            Ok(slice)
        }
        fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }
        fn u32(&mut self) -> Result<u32, WireError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        fn i64(&mut self) -> Result<i64, WireError> {
            let b = self.take(8)?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(b);
            Ok(i64::from_le_bytes(raw))
        }
    }
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let rows = cur.u32()? as usize;
    let col_header = cur.take(2)?;
    let arity = u16::from_le_bytes([col_header[0], col_header[1]]) as usize;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        match cur.u8()? {
            BIN_COL_INT => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(cur.i64()?);
                }
                columns.push(WireColumn::Int(v));
            }
            BIN_COL_VAL => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    match cur.u8()? {
                        BIN_VAL_INT => v.push(Value::Int(cur.i64()?)),
                        BIN_VAL_STR => {
                            let len = cur.u32()? as usize;
                            let bytes = cur.take(len)?;
                            let s = std::str::from_utf8(bytes).map_err(|e| {
                                WireError::protocol(format!(
                                    "binary batch string is not UTF-8: {e}"
                                ))
                            })?;
                            v.push(Value::str(s));
                        }
                        other => {
                            return Err(WireError::protocol(format!(
                                "unknown binary value tag {other:#04x}"
                            )))
                        }
                    }
                }
                columns.push(WireColumn::Val(v));
            }
            other => {
                return Err(WireError::protocol(format!(
                    "unknown binary column tag {other:#04x}"
                )))
            }
        }
    }
    if cur.pos != payload.len() {
        return Err(WireError::protocol(
            "trailing bytes after binary batch payload",
        ));
    }
    Ok(WireBatch {
        row_count: rows,
        columns,
    })
}

/// Renders the `prepared` reply frame of a `prepare` request.
pub fn prepared_frame(id: u64, params: u32, columns: &[String]) -> String {
    let obj = vec![
        ("id".to_string(), JsonValue::Int(id as i64)),
        ("params".to_string(), JsonValue::Int(params as i64)),
        (
            "columns".to_string(),
            JsonValue::Arr(columns.iter().map(|c| JsonValue::Str(c.clone())).collect()),
        ),
    ];
    to_line(&JsonValue::Obj(vec![(
        "prepared".to_string(),
        JsonValue::Obj(obj),
    )]))
}

/// Renders the `closed` reply frame of a `close` request.
pub fn closed_frame(id: u64) -> String {
    to_line(&JsonValue::Obj(vec![(
        "closed".to_string(),
        JsonValue::Obj(vec![("id".to_string(), JsonValue::Int(id as i64))]),
    )]))
}

/// Renders the terminal `done` frame of a successful query.
pub fn done_frame(rows: u64, elapsed: Duration, time_to_first_batch: Option<Duration>) -> String {
    let obj = vec![
        ("rows".to_string(), JsonValue::Int(rows as i64)),
        (
            "elapsed_ms".to_string(),
            JsonValue::Float(elapsed.as_secs_f64() * 1e3),
        ),
        (
            "time_to_first_batch_ms".to_string(),
            match time_to_first_batch {
                Some(d) => JsonValue::Float(d.as_secs_f64() * 1e3),
                None => JsonValue::Null,
            },
        ),
    ];
    to_line(&JsonValue::Obj(vec![(
        "done".to_string(),
        JsonValue::Obj(obj),
    )]))
}

/// Renders the `metrics` / `metrics_text` reply frame of one stats
/// snapshot (`Database::stats()`).
pub fn metrics_frame(stats: &EngineStats, format: MetricsFormat) -> String {
    let (key, value) = match format {
        MetricsFormat::Json => ("metrics", metrics::to_json(stats)),
        MetricsFormat::Prometheus => (
            "metrics_text",
            JsonValue::Str(metrics::to_prometheus(stats)),
        ),
    };
    to_line(&JsonValue::Obj(vec![(key.to_string(), value)]))
}

/// Detects an HTTP `GET /metrics` request line; returns the format the
/// scraper asked for. `GET /metrics` serves Prometheus text, and
/// `GET /metrics.json` the JSON snapshot — both as one-shot HTTP
/// responses after which the connection closes.
pub fn http_metrics_request(line: &[u8]) -> Option<MetricsFormat> {
    let text = std::str::from_utf8(line).ok()?;
    let mut parts = text.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    match parts.next()? {
        "/metrics" => Some(MetricsFormat::Prometheus),
        "/metrics.json" => Some(MetricsFormat::Json),
        _ => None,
    }
}

/// Renders a minimal HTTP/1.0 response carrying the metrics exposition
/// of one stats snapshot (`Database::stats()`).
pub fn http_metrics_response(stats: &EngineStats, format: MetricsFormat) -> String {
    let (content_type, body) = match format {
        MetricsFormat::Prometheus => ("text/plain; version=0.0.4", metrics::to_prometheus(stats)),
        MetricsFormat::Json => ("application/json", to_line(&metrics::to_json(stats))),
    };
    format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_query() {
        let req = parse_request(br#"{"query": "SELECT * FROM t"}"#).unwrap();
        match req {
            Request::Query {
                query,
                options,
                format,
            } => {
                assert_eq!(query, "SELECT * FROM t");
                assert!(options.deadline().is_none());
                assert!(options.memory_budget().is_none());
                assert_eq!(format, ResultFormat::Json);
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_prepare_execute_close() {
        match parse_request(br#"{"prepare": {"query": "SELECT * FROM t WHERE t.a < ?1"}}"#) {
            Ok(Request::Prepare { query }) => {
                assert_eq!(query, "SELECT * FROM t WHERE t.a < ?1")
            }
            other => panic!("expected prepare, got {other:?}"),
        }
        match parse_request(
            br#"{"execute": {"id": 3, "args": [7, -2], "options": {"deadline_ms": 10}}}"#,
        ) {
            Ok(Request::Execute {
                id,
                args,
                options,
                format,
            }) => {
                assert_eq!(id, 3);
                assert_eq!(args, vec![7, -2]);
                assert_eq!(options.deadline(), Some(Duration::from_millis(10)));
                assert_eq!(format, ResultFormat::Json);
            }
            other => panic!("expected execute, got {other:?}"),
        }
        // `args` is optional for zero-parameter statements.
        match parse_request(br#"{"execute": {"id": 1}, "format": "bin"}"#) {
            Ok(Request::Execute {
                id, args, format, ..
            }) => {
                assert_eq!(id, 1);
                assert!(args.is_empty());
                assert_eq!(format, ResultFormat::Bin);
            }
            other => panic!("expected execute, got {other:?}"),
        }
        match parse_request(br#"{"close": {"id": 3}}"#) {
            Ok(Request::Close { id }) => assert_eq!(id, 3),
            other => panic!("expected close, got {other:?}"),
        }
    }

    #[test]
    fn parses_query_format() {
        for (line, want) in [
            (
                &br#"{"query": "q", "format": "bin"}"#[..],
                ResultFormat::Bin,
            ),
            (br#"{"query": "q", "format": "json"}"#, ResultFormat::Json),
        ] {
            match parse_request(line) {
                Ok(Request::Query { format, .. }) => assert_eq!(format, want),
                other => panic!("expected query, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_query_options() {
        let req = parse_request(
            br#"{"query": "q", "options": {"deadline_ms": 250, "memory_budget_bytes": 4096}}"#,
        )
        .unwrap();
        match req {
            Request::Query { options, .. } => {
                assert_eq!(options.deadline(), Some(Duration::from_millis(250)));
                assert_eq!(options.memory_budget(), Some(4096));
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_requests() {
        assert!(matches!(
            parse_request(br#"{"metrics": "json"}"#),
            Ok(Request::Metrics(MetricsFormat::Json))
        ));
        assert!(matches!(
            parse_request(br#"{"metrics": "prometheus"}"#),
            Ok(Request::Metrics(MetricsFormat::Prometheus))
        ));
    }

    #[test]
    fn rejects_malformed_frames_with_typed_errors() {
        // The accept/reject table of the wire protocol: every rejected
        // frame gets a `protocol` error (the connection layer keeps the
        // socket open).
        let reject = [
            &br#"{"query": "q""#[..],                                // truncated JSON
            br#"{"query": 42}"#,                                     // ill-typed query
            br#"{"q": "SELECT"}"#,                                   // unknown field
            br#"{"query": "q", "qquery": "r"}"#,                     // unknown extra field
            br#"{"query": "q", "options": {"deadlin": 1}}"#,         // unknown option
            br#"{"query": "q", "options": {"deadline_ms": -5}}"#,    // negative
            br#"{"query": "q", "options": 7}"#,                      // ill-typed options
            br#"{"metrics": "xml"}"#,                                // unknown format
            br#"{"metrics": "json", "options": {}}"#,                // options on metrics
            br#"{"query": "q", "metrics": "json"}"#,                 // both
            br#"[1, 2]"#,                                            // non-object
            br#""#,                                                  // empty line
            b"\xff\xfe{}",                                           // bad UTF-8
            br#"{"query": "q", "format": "csv"}"#,                   // unknown result format
            br#"{"metrics": "json", "format": "bin"}"#,              // format on metrics
            br#"{"prepare": {"query": "q"}, "format": "bin"}"#,      // format on prepare
            br#"{"prepare": "q"}"#,                                  // non-object prepare
            br#"{"prepare": {"query": "q", "id": 1}}"#,              // unknown prepare field
            br#"{"prepare": {}}"#,                                   // prepare without query
            br#"{"prepare": {"query": 9}}"#,                         // ill-typed prepare query
            br#"{"execute": {"args": []}}"#,                         // execute without id
            br#"{"execute": {"id": -1}}"#,                           // negative id
            br#"{"execute": {"id": "x"}}"#,                          // ill-typed id
            br#"{"execute": {"id": 1, "args": [1.5]}}"#,             // non-integer arg
            br#"{"execute": {"id": 1, "args": 7}}"#,                 // ill-typed args
            br#"{"execute": {"id": 1, "extra": 0}}"#,                // unknown execute field
            br#"{"execute": {"id": 1}, "options": {}}"#,             // options outside execute
            br#"{"execute": {"id": 1}, "prepare": {"query": "q"}}"#, // two verbs
            br#"{"close": {}}"#,                                     // close without id
            br#"{"close": {"id": 1, "x": 2}}"#,                      // unknown close field
            br#"{"close": 1}"#,                                      // non-object close
        ];
        for line in reject {
            let err = parse_request(line)
                .expect_err(&format!("must reject {:?}", String::from_utf8_lossy(line)));
            assert_eq!(err.code, "protocol");
            // Every rejection renders as a parseable error frame.
            let frame = err.to_frame();
            let v: JsonValue = serde_json::from_str(&frame).unwrap();
            assert!(v.get("error").is_some());
        }
    }

    #[test]
    fn error_frames_carry_span_and_queue_depth() {
        let parse_err = WireError {
            code: "parse",
            message: "expected FROM".to_string(),
            span: Some(Span::new(7, 11)),
            queue_depth: None,
        };
        let frame = parse_err.to_frame();
        let v: JsonValue = serde_json::from_str(&frame).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code"), Some(&JsonValue::Str("parse".into())));
        assert_eq!(
            err.get("span").unwrap().get("start"),
            Some(&JsonValue::Int(7))
        );
        assert_eq!(
            frame,
            r#"{"error":{"code":"parse","message":"expected FROM","span":{"start":7,"end":11}}}"#
        );

        let over = WireError::overloaded("busy", 16);
        let v: JsonValue = serde_json::from_str(&over.to_frame()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("queue_depth"),
            Some(&JsonValue::Int(16))
        );
    }

    #[test]
    fn every_mj_error_variant_maps_to_a_distinct_code() {
        use mj_plan::parse::ParseError;
        let errors: Vec<MjError> = vec![
            MjError::Parse(ParseError {
                message: "x".into(),
                span: Span::new(0, 1),
            }),
            MjError::bind("x", Span::new(0, 1)),
            MjError::DuplicateRelation("r".into()),
            MjError::Config("c".into()),
            MjError::Plan(mj_relalg::RelalgError::InvalidPlan("p".into())),
            MjError::Params("wrong arity".into()),
            MjError::Exec(mj_relalg::RelalgError::InvalidPlan("e".into())),
            MjError::Canceled,
            MjError::DeadlineExceeded,
            MjError::ResourceExhausted { used: 1, budget: 2 },
            MjError::Stalled("s".into()),
            MjError::Internal("i".into()),
        ];
        let codes: Vec<&str> = errors.iter().map(|e| WireError::from_mj(e).code).collect();
        let mut unique = codes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            codes.len(),
            "codes must be distinct: {codes:?}"
        );
    }

    #[test]
    fn batch_and_done_frames_render() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
        ];
        let frame = batch_frame(rows.iter().map(|r| r.as_slice()));
        let v: JsonValue = serde_json::from_str(&frame).unwrap();
        match v.get("batch").unwrap() {
            JsonValue::Arr(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        let done = done_frame(2, Duration::from_millis(3), Some(Duration::from_millis(1)));
        let v: JsonValue = serde_json::from_str(&done).unwrap();
        assert_eq!(v.get("done").unwrap().get("rows"), Some(&JsonValue::Int(2)));
    }

    fn mixed_batch() -> Batch {
        use mj_relalg::Tuple;
        let tuples: Vec<Tuple> = vec![
            Tuple::new(vec![Value::Int(1), Value::str("a\"b\\c\n")]),
            Tuple::new(vec![Value::Int(-2), Value::str("plain")]),
            Tuple::new(vec![Value::Int(i64::MAX), Value::str("")]),
        ];
        Batch::from_tuples(&tuples).unwrap()
    }

    #[test]
    fn columnar_json_frame_matches_row_pivot() {
        let batch = mixed_batch();
        let mut scratch = String::new();
        batch_frame_into(&batch, &mut scratch).unwrap();
        // Same logical content as the row-pivoted encoder (parse both:
        // the columnar writer is allowed to differ in whitespace).
        let a: JsonValue = serde_json::from_str(&scratch).unwrap();
        let tuples: Vec<mj_relalg::Tuple> =
            (0..batch.len()).map(|r| batch.row(r).unwrap()).collect();
        let rows: Vec<&[Value]> = tuples.iter().map(|t| t.values()).collect();
        let b: JsonValue = serde_json::from_str(&batch_frame(rows.into_iter())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn json_scratch_buffer_reaches_steady_state() {
        let batch = mixed_batch();
        let mut scratch = String::new();
        batch_frame_into(&batch, &mut scratch).unwrap();
        let high_water = scratch.capacity();
        for _ in 0..32 {
            batch_frame_into(&batch, &mut scratch).unwrap();
            assert_eq!(
                scratch.capacity(),
                high_water,
                "steady-state frames must reuse the scratch allocation"
            );
        }
    }

    #[test]
    fn binary_frame_roundtrips() {
        let batch = mixed_batch();
        let mut buf = Vec::new();
        batch_frame_bin_into(&batch, &mut buf).unwrap();
        assert_eq!(buf[0], BIN_FRAME_MAGIC);
        let payload_len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        assert_eq!(payload_len, buf.len() - 5, "length prefix covers payload");
        let decoded = decode_bin_payload(&buf[5..]).unwrap();
        assert_eq!(decoded.row_count, 3);
        assert_eq!(decoded.columns.len(), 2);
        assert_eq!(
            decoded.columns[0],
            WireColumn::Int(vec![1, -2, i64::MAX]),
            "int column travels as a dense i64 run"
        );
        let want: Vec<Vec<Value>> = (0..batch.len())
            .map(|r| batch.row(r).unwrap().values().to_vec())
            .collect();
        assert_eq!(decoded.to_rows(), want);

        // Binary buffer reuse reaches steady state too.
        let high_water = buf.capacity();
        for _ in 0..32 {
            batch_frame_bin_into(&batch, &mut buf).unwrap();
            assert_eq!(buf.capacity(), high_water);
        }
    }

    #[test]
    fn binary_decode_rejects_corrupt_payloads() {
        let batch = mixed_batch();
        let mut buf = Vec::new();
        batch_frame_bin_into(&batch, &mut buf).unwrap();
        let payload = &buf[5..];
        // Truncation at every boundary is a typed protocol error.
        for cut in [0, 1, 4, 6, payload.len() - 1] {
            let err = decode_bin_payload(&payload[..cut]).unwrap_err();
            assert_eq!(err.code, "protocol", "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut noisy = payload.to_vec();
        noisy.push(0);
        assert_eq!(decode_bin_payload(&noisy).unwrap_err().code, "protocol");
        // An unknown column tag is rejected.
        let mut bad_tag = payload.to_vec();
        bad_tag[6] = 0x7f;
        assert_eq!(decode_bin_payload(&bad_tag).unwrap_err().code, "protocol");
    }

    #[test]
    fn prepared_and_closed_frames_render() {
        let frame = prepared_frame(7, 2, &["a".to_string(), "b".to_string()]);
        let v: JsonValue = serde_json::from_str(&frame).unwrap();
        let p = v.get("prepared").unwrap();
        assert_eq!(p.get("id"), Some(&JsonValue::Int(7)));
        assert_eq!(p.get("params"), Some(&JsonValue::Int(2)));
        match p.get("columns").unwrap() {
            JsonValue::Arr(cols) => assert_eq!(cols.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        let v: JsonValue = serde_json::from_str(&closed_frame(7)).unwrap();
        assert_eq!(v.get("closed").unwrap().get("id"), Some(&JsonValue::Int(7)));
    }

    #[test]
    fn http_metrics_detection() {
        assert_eq!(
            http_metrics_request(b"GET /metrics HTTP/1.1"),
            Some(MetricsFormat::Prometheus)
        );
        assert_eq!(
            http_metrics_request(b"GET /metrics.json HTTP/1.1"),
            Some(MetricsFormat::Json)
        );
        assert_eq!(http_metrics_request(b"GET /other HTTP/1.1"), None);
        assert_eq!(http_metrics_request(br#"{"query": "q"}"#), None);
    }
}
