//! `mj_server` — the query server subsystem.
//!
//! Exposes a shared [`mj_exec::Database`] over TCP with a line-delimited
//! JSON protocol: clients send `{"query": "...", "options": {...}}`
//! lines and receive streamed `{"batch": [...]}` frames followed by one
//! terminal `{"done": ...}` or typed `{"error": ...}` frame. Queries with
//! `?N` placeholders are planned once via `{"prepare": ...}` and re-run
//! with `{"execute": ...}` against the database's shared plan cache; a
//! `"format": "bin"` request switches result batches to length-prefixed
//! binary columnar frames serialized straight from the engine's column
//! buffers. Metrics are served both in-protocol
//! (`{"metrics": "json"|"prometheus"}`) and to plain HTTP scrapers
//! (`GET /metrics`).
//!
//! Three layers:
//!
//! - [`protocol`] — frame grammar (JSON lines and binary batch frames),
//!   request parsing with strict unknown-field rejection, and the total
//!   [`MjError`] → [`protocol::WireError`] code mapping; the server's own
//!   `overloaded` rejections carry a queue depth onto the wire.
//! - `conn` (private) + [`server`] — each connection is one cooperative
//!   task on the engine's worker pool: its steps read, parse, start
//!   queries, poll them with [`mj_exec::ResultStream::poll_next_batch`],
//!   encode and write, and it parks on its socket, result stream, query
//!   conclusion or a pool timer. The listener is a task on the same pool
//!   that submits each accepted socket as a connection task. Every socket
//!   sits in the pool's readiness set, where an idle worker waits, so a
//!   request wakes the worker that serves it. The server starts no thread
//!   and runs no async runtime; disconnecting a client cancels its query.
//!   Each connection owns a prepared statement id table and reusable
//!   batch-serialization scratch buffers.
//! - [`client`] — a deliberately simple blocking client used by the
//!   integration tests, the oracle differential harness, and the
//!   `benchmark/` driver — including a typed columnar decode of binary
//!   batch frames.
//!
//! [`MjError`]: mj_exec::MjError

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ColumnarReply, Prepared, QueryReply, ServerError};
pub use protocol::{
    MetricsFormat, Request, ResultFormat, WireBatch, WireColumn, WireError, BIN_FRAME_MAGIC,
    MAX_LINE_BYTES,
};
pub use server::{Server, ServerConfig};
