//! `fannr-serve`: a std-only TCP query server for FANN_R queries.
//!
//! The paper's algorithms answer one query at a time; this crate turns the
//! [`fann_core::engine::Engine`] into a network service with the load
//! discipline a shared road-network index needs:
//!
//! - **Bounded admission** — each connection's reader answers a miss on
//!   one of `workers` search sessions, and at most `queue_depth` misses
//!   wait for one; beyond that, overload sheds immediately
//!   (`status:"shed"`) instead of waiting without bound ([`server`]). A
//!   query the answer cache holds is answered at admission and never
//!   takes a session. Replies on one connection come in request order.
//! - **Per-request deadlines** — each query carries `deadline_ms`
//!   (measured from admission, so the wait for a session counts) enforced by
//!   cooperative cancellation: the search kernels poll a
//!   [`roadnet::CancelToken`] and return `cancelled` — never a partial or
//!   wrong answer.
//! - **Graceful drain** — SIGINT/SIGTERM, the wire `shutdown` op, or a
//!   [`ShutdownHandle`] stop the acceptor, finish every admitted query,
//!   and flush the final stats.
//! - **Observability inline** — `health` and `metrics` requests are
//!   answered by the reader thread without a session, so they work even
//!   when queries are being shed.
//! - **Bounded lines** — a request line longer than [`MAX_LINE_BYTES`]
//!   is dropped as it arrives and answered with an `error`.
//!
//! The wire format is line-delimited JSON ([`protocol`]) with a hand-rolled
//! streaming codec (`json.rs`) that reads and writes typed requests and
//! replies directly — no value tree, no external dependencies anywhere in
//! the crate. The same [`protocol::Response`] serializer backs
//! `fannr query --json`, so CLI output and the wire protocol cannot drift.

pub mod client;
mod json;
pub mod line;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientReader, ClientWriter};
pub use json::JsonError;
pub use line::{Line, LineReader, MAX_LINE_BYTES};
pub use protocol::{Body, HealthInfo, MetricsInfo, Op, QuerySpec, Request, Response};
pub use server::{ServeConfig, ServeSummary, Server, ShardRole, ShutdownHandle};
