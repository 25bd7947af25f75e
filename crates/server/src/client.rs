//! A small blocking client for the wire protocol — what the tests, the
//! differential oracle harness, and the `benchmark/` driver speak through.
//! It is deliberately dumb: blocking socket, line-at-a-time reads, no
//! connection pooling. A query or execute reads frames until its `done`;
//! `prepare`, `close` and `metrics` are one request and one reply each,
//! through one exchange that turns an `error` reply into
//! [`ClientError::Server`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mj_relalg::Value;
use serde::JsonValue;

use crate::protocol::{decode_bin_payload, MetricsFormat, WireBatch, BIN_FRAME_MAGIC};

/// A typed `error` frame received from the server.
#[derive(Clone, Debug)]
pub struct ServerError {
    /// Machine-readable code (`parse`, `exec`, `overloaded`, ...).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Queue depth; present only with code `overloaded` (see
    /// [`WireError::queue_depth`](crate::WireError::queue_depth)).
    pub queue_depth: Option<u64>,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// Client-side failure: transport trouble, an unparseable frame, or a
/// typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, premature EOF).
    Io(std::io::Error),
    /// The server sent a line that is not a valid response frame.
    BadFrame(String),
    /// The server answered with a typed `error` frame.
    Server(ServerError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::BadFrame(s) => write!(f, "bad frame: {s}"),
            ClientError::Server(e) => write!(f, "server error {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The fully collected result of one query.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Result rows in arrival order.
    pub rows: Vec<Vec<Value>>,
    /// Server-side wall-clock duration (submission to quiescence).
    pub elapsed_ms: f64,
    /// End-to-end time to the first delivered batch, if any batch was
    /// delivered.
    pub time_to_first_batch_ms: Option<f64>,
}

/// The server's answer to a `prepare` request: a statement handle to
/// pass to [`Client::execute`] / [`Client::close`].
#[derive(Clone, Debug)]
pub struct Prepared {
    /// Statement id, scoped to this connection.
    pub id: u64,
    /// Number of `?N` placeholders the statement expects.
    pub params: u32,
    /// Result column names.
    pub columns: Vec<String>,
}

/// The fully collected result of a `format: "bin"` query: decoded
/// columnar batches, never row-pivoted by the transport.
#[derive(Clone, Debug)]
pub struct ColumnarReply {
    /// Decoded binary batches in arrival order.
    pub batches: Vec<WireBatch>,
    /// Total row count reported by the terminal `done` frame.
    pub rows: u64,
    /// Server-side wall-clock duration (submission to quiescence).
    pub elapsed_ms: f64,
    /// End-to-end time to the first delivered batch, if any.
    pub time_to_first_batch_ms: Option<f64>,
}

impl ColumnarReply {
    /// Pivots all batches into row-major values — for differential
    /// comparison against the JSON path.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.batches.iter().flat_map(|b| b.to_rows()).collect()
    }
}

/// One blocking protocol connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// [`connect`](Self::connect) with a connect timeout (useful when
    /// hammering a server with hundreds of concurrent clients).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw request line (newline appended). Public so tests
    /// can send malformed frames on purpose. A request and its newline
    /// leave in one write: on a `TCP_NODELAY` socket two writes are two
    /// segments, and the server may wake for half a line.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        Ok(())
    }

    /// Sends one request frame, in one write as [`send_line`](Self::send_line) does.
    fn send_frame(&mut self, frame: &JsonValue) -> Result<(), ClientError> {
        let mut line = serde_json::to_string(frame).expect("frame renders");
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Sends a query request without waiting for its reply — the
    /// pipelining half; pair with [`collect_reply`](Self::collect_reply).
    pub fn send_query(&mut self, query: &str) -> Result<(), ClientError> {
        let frame = JsonValue::Obj(vec![(
            "query".to_string(),
            JsonValue::Str(query.to_string()),
        )]);
        self.send_frame(&frame)
    }

    /// Sends a query with wire options (`deadline_ms`,
    /// `memory_budget_bytes`).
    pub fn send_query_with(
        &mut self,
        query: &str,
        deadline_ms: Option<u64>,
        memory_budget_bytes: Option<u64>,
    ) -> Result<(), ClientError> {
        let mut options = Vec::new();
        if let Some(ms) = deadline_ms {
            options.push(("deadline_ms".to_string(), JsonValue::UInt(ms)));
        }
        if let Some(bytes) = memory_budget_bytes {
            options.push(("memory_budget_bytes".to_string(), JsonValue::UInt(bytes)));
        }
        let mut obj = vec![("query".to_string(), JsonValue::Str(query.to_string()))];
        if !options.is_empty() {
            obj.push(("options".to_string(), JsonValue::Obj(options)));
        }
        self.send_frame(&JsonValue::Obj(obj))
    }

    /// Reads one response frame. `Ok(None)` on clean EOF.
    pub fn read_frame(&mut self) -> Result<Option<JsonValue>, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        serde_json::from_str(trimmed)
            .map(Some)
            .map_err(|e| ClientError::BadFrame(format!("{e}: {trimmed}")))
    }

    /// Reads the next response frame, which must come: EOF here is
    /// [`ClientError::BadFrame`].
    fn read_reply(&mut self) -> Result<JsonValue, ClientError> {
        self.read_frame()?
            .ok_or_else(|| ClientError::BadFrame("connection closed mid-reply".into()))
    }

    /// Reads frames until the terminal one for a single query: batches
    /// accumulate into rows, `done` resolves to a [`QueryReply`], and
    /// `error` resolves to [`ClientError::Server`].
    pub fn collect_reply(&mut self) -> Result<QueryReply, ClientError> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        loop {
            let frame = self.read_reply()?;
            if let Some(batch) = frame.get("batch") {
                rows.extend(parse_batch(batch)?);
            } else if let Some(done) = frame.get("done") {
                return Ok(QueryReply {
                    rows,
                    elapsed_ms: as_f64(done.get("elapsed_ms")).unwrap_or(0.0),
                    time_to_first_batch_ms: as_f64(done.get("time_to_first_batch_ms")),
                });
            } else if let Some(err) = frame.get("error") {
                return Err(ClientError::Server(parse_error(err)));
            } else {
                return Err(ClientError::BadFrame(format!(
                    "unexpected frame: {frame:?}"
                )));
            }
        }
    }

    /// Sends a query and collects its full reply (the non-pipelined
    /// convenience path).
    pub fn query(&mut self, query: &str) -> Result<QueryReply, ClientError> {
        self.send_query(query)?;
        self.collect_reply()
    }

    /// Sends a `format: "bin"` query request without waiting for its
    /// reply; pair with [`collect_reply_bin`](Self::collect_reply_bin).
    pub fn send_query_bin(&mut self, query: &str) -> Result<(), ClientError> {
        let frame = JsonValue::Obj(vec![
            ("query".to_string(), JsonValue::Str(query.to_string())),
            ("format".to_string(), JsonValue::Str("bin".to_string())),
        ]);
        self.send_frame(&frame)
    }

    /// Sends a query requesting binary batches and collects the decoded
    /// columnar reply.
    pub fn query_bin(&mut self, query: &str) -> Result<ColumnarReply, ClientError> {
        self.send_query_bin(query)?;
        self.collect_reply_bin()
    }

    /// Prepares a parameterized query; the returned [`Prepared`] id feeds
    /// [`execute`](Self::execute) and [`close`](Self::close).
    pub fn prepare(&mut self, query: &str) -> Result<Prepared, ClientError> {
        let frame = JsonValue::Obj(vec![(
            "prepare".to_string(),
            JsonValue::Obj(vec![(
                "query".to_string(),
                JsonValue::Str(query.to_string()),
            )]),
        )]);
        let p = self.exchange(&frame, "prepared")?;
        let id = as_u64_field(p.get("id"))
            .ok_or_else(|| ClientError::BadFrame("prepared frame without id".into()))?;
        let params = as_u64_field(p.get("params")).unwrap_or(0) as u32;
        let columns = match p.get("columns") {
            Some(JsonValue::Arr(cols)) => cols
                .iter()
                .filter_map(|c| match c {
                    JsonValue::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(Prepared {
            id,
            params,
            columns,
        })
    }

    /// Sends an `execute` request without waiting for its reply.
    pub fn send_execute(&mut self, id: u64, args: &[i64], bin: bool) -> Result<(), ClientError> {
        let mut body = vec![("id".to_string(), JsonValue::UInt(id))];
        if !args.is_empty() {
            body.push((
                "args".to_string(),
                JsonValue::Arr(args.iter().map(|&a| JsonValue::Int(a)).collect()),
            ));
        }
        let mut obj = vec![("execute".to_string(), JsonValue::Obj(body))];
        if bin {
            obj.push(("format".to_string(), JsonValue::Str("bin".to_string())));
        }
        self.send_frame(&JsonValue::Obj(obj))
    }

    /// Runs a prepared statement with the given arguments and collects
    /// the (JSON-encoded) reply.
    pub fn execute(&mut self, id: u64, args: &[i64]) -> Result<QueryReply, ClientError> {
        self.send_execute(id, args, false)?;
        self.collect_reply()
    }

    /// Runs a prepared statement requesting binary batches.
    pub fn execute_bin(&mut self, id: u64, args: &[i64]) -> Result<ColumnarReply, ClientError> {
        self.send_execute(id, args, true)?;
        self.collect_reply_bin()
    }

    /// Closes a prepared statement; the id is invalid afterwards.
    pub fn close(&mut self, id: u64) -> Result<(), ClientError> {
        let frame = JsonValue::Obj(vec![(
            "close".to_string(),
            JsonValue::Obj(vec![("id".to_string(), JsonValue::UInt(id))]),
        )]);
        self.exchange(&frame, "closed").map(drop)
    }

    /// Reads frames until the terminal one for a binary-format query.
    /// Binary batch frames (first byte [`BIN_FRAME_MAGIC`]) decode into
    /// typed columns; `done`/`error` stay JSON lines.
    pub fn collect_reply_bin(&mut self) -> Result<ColumnarReply, ClientError> {
        use std::io::Read as _;
        let mut batches: Vec<WireBatch> = Vec::new();
        loop {
            let head = self.reader.fill_buf()?;
            if head.is_empty() {
                return Err(ClientError::BadFrame("connection closed mid-reply".into()));
            }
            if head[0] == BIN_FRAME_MAGIC {
                let mut header = [0u8; 5];
                self.reader.read_exact(&mut header)?;
                let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                let batch =
                    decode_bin_payload(&payload).map_err(|e| ClientError::BadFrame(e.message))?;
                batches.push(batch);
                continue;
            }
            let frame = self.read_reply()?;
            if let Some(done) = frame.get("done") {
                return Ok(ColumnarReply {
                    batches,
                    rows: as_u64_field(done.get("rows")).unwrap_or(0),
                    elapsed_ms: as_f64(done.get("elapsed_ms")).unwrap_or(0.0),
                    time_to_first_batch_ms: as_f64(done.get("time_to_first_batch_ms")),
                });
            } else if let Some(err) = frame.get("error") {
                return Err(ClientError::Server(parse_error(err)));
            }
            return Err(ClientError::BadFrame(format!(
                "unexpected frame: {frame:?}"
            )));
        }
    }

    /// Requests the metrics snapshot. Returns the `metrics` object for
    /// [`MetricsFormat::Json`], or a `Str` with the Prometheus text for
    /// [`MetricsFormat::Prometheus`].
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<JsonValue, ClientError> {
        let which = match format {
            MetricsFormat::Json => "json",
            MetricsFormat::Prometheus => "prometheus",
        };
        let frame = JsonValue::Obj(vec![(
            "metrics".to_string(),
            JsonValue::Str(which.to_string()),
        )]);
        let key = match format {
            MetricsFormat::Json => "metrics",
            MetricsFormat::Prometheus => "metrics_text",
        };
        self.exchange(&frame, key)
    }

    /// One request, one reply: sends `frame` and returns the `key` member
    /// of the frame that answers it. An `error` reply is
    /// [`ClientError::Server`]; a reply without `key` is
    /// [`ClientError::BadFrame`].
    fn exchange(&mut self, frame: &JsonValue, key: &str) -> Result<JsonValue, ClientError> {
        self.send_frame(frame)?;
        let reply = self.read_reply()?;
        if let Some(err) = reply.get("error") {
            return Err(ClientError::Server(parse_error(err)));
        }
        reply
            .get(key)
            .cloned()
            .ok_or_else(|| ClientError::BadFrame(format!("unexpected frame: {reply:?}")))
    }
}

fn parse_batch(batch: &JsonValue) -> Result<Vec<Vec<Value>>, ClientError> {
    let rows = match batch {
        JsonValue::Arr(rows) => rows,
        other => {
            return Err(ClientError::BadFrame(format!(
                "batch not an array: {other:?}"
            )))
        }
    };
    rows.iter()
        .map(|row| {
            let cells = match row {
                JsonValue::Arr(cells) => cells,
                other => {
                    return Err(ClientError::BadFrame(format!(
                        "row not an array: {other:?}"
                    )))
                }
            };
            cells
                .iter()
                .map(|cell| match cell {
                    JsonValue::Int(i) => Ok(Value::Int(*i)),
                    JsonValue::UInt(u) => Ok(Value::Int(*u as i64)),
                    JsonValue::Str(s) => Ok(Value::str(s.as_str())),
                    other => Err(ClientError::BadFrame(format!("bad cell: {other:?}"))),
                })
                .collect()
        })
        .collect()
}

fn parse_error(err: &JsonValue) -> ServerError {
    ServerError {
        code: match err.get("code") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => "unknown".to_string(),
        },
        message: match err.get("message") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => String::new(),
        },
        queue_depth: as_u64_field(err.get("queue_depth")),
    }
}

fn as_u64_field(v: Option<&JsonValue>) -> Option<u64> {
    match v? {
        JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
        JsonValue::UInt(u) => Some(*u),
        _ => None,
    }
}

fn as_f64(v: Option<&JsonValue>) -> Option<f64> {
    match v? {
        JsonValue::Float(f) => Some(*f),
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::UInt(u) => Some(*u as f64),
        _ => None,
    }
}
