//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order per
//! connection (clients may pipeline; the optional `id` is echoed back so
//! responses can be matched). Grammar:
//!
//! ```text
//! request  = query | update | update_stream | health | metrics | shutdown
//! query    = {"op":"query", "p":[nodeid...], "q":[nodeid...],
//!             "phi":number, "agg":"sum"|"max",
//!             "deadline_ms":number?, "id":string?}
//! update   = {"op":"update",
//!             "updates":[{"u":nodeid,"v":nodeid,"w":weight}...],
//!             "id":string?}
//! update_stream = {"op":"update_stream", "seq":number,
//!             "updates":[{"u":nodeid,"v":nodeid,"w":weight}...],
//!             "id":string?}
//! health   = {"op":"health", "id":string?}
//! metrics  = {"op":"metrics", "id":string?}
//! shutdown = {"op":"shutdown", "id":string?}
//!
//! response = {"status":"ok", "id"?, "p_star":nodeid, "dist":number,
//!             "subset":[nodeid...], "strategy":string, "micros":number}
//!          | {"status":"empty", "id"?}          ; no p reaches k of Q
//!          | {"status":"cancelled", "id"?}      ; deadline exceeded
//!          | {"status":"shed", "id"?}           ; queue full, retry later
//!          | {"status":"updated", "id"?, "epoch":number, "applied":number}
//!          | {"status":"stream_ack", "id"?, "seq":number,
//!             "epoch":number, "applied":number} ; cumulative ack
//!          | {"status":"stream_error", "id"?, "kind":"gap"|"overflow",
//!             "expected":number, "got":number}
//!          | {"status":"error", "id"?, "error":string}
//!          | {"status":"upstream", "id"?, "shard":number, "error":string}
//!          | {"status":"health", "id"?, ...}
//!          | {"status":"metrics", "id"?, ...}
//!          | {"status":"bye", "id"?}            ; shutdown acknowledged
//! ```
//!
//! An `update` atomically sets the weights of the listed undirected edges
//! and publishes the next graph epoch without draining the server:
//! in-flight queries finish on the epoch they pinned, later queries see
//! the new weights. Validation (edge exists, weight at or above the
//! Euclidean admissibility floor) is all-or-nothing — on error nothing is
//! published.
//!
//! # The update stream
//!
//! `update_stream` is the long-lived counterpart of `update`: a
//! connection carries numbered segments (`seq` starts at 1, strictly
//! sequential per connection) and each accepted segment is answered with
//! a *cumulative* `stream_ack` whose `seq` is the highest contiguous
//! segment applied on this connection. A duplicate segment (`seq` at or
//! below the acked high-water mark) is re-acked idempotently with
//! `applied:0`; a segment arriving past the expected number gets a typed
//! `stream_error` with `kind:"gap"` (nothing is applied, the expected
//! number is returned so the client can rewind); a segment larger than
//! [`MAX_STREAM_SEGMENT`] edges gets `kind:"overflow"`. Senders keep at
//! most [`STREAM_WINDOW`] segments in flight (pipelined past the last
//! ack) so a stall never buffers unboundedly. A failed apply
//! (validation) answers `error` *without* advancing the stream, so the
//! client may repair and resend the same `seq`.
//!
//! The same serializer backs `fannr query --json`, so the CLI's output and
//! the server's cannot drift.

use crate::json::Json;
use fann_core::metrics::{LatencyHistogram, SearchStats};
use fann_core::{Aggregate, FannAnswer};
use roadnet::{Dist, NodeId, Weight, WeightUpdate};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    pub op: Op,
}

/// Most edges one `update_stream` segment may carry; larger segments are
/// rejected with a typed `stream_error` of kind `overflow`.
pub const MAX_STREAM_SEGMENT: usize = 4096;

/// Most unacked segments an `update_stream` sender keeps in flight
/// (client-side flow control; the per-connection reader processes
/// segments in order, so acks come back in sequence).
pub const STREAM_WINDOW: u64 = 32;

/// The request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query(QuerySpec),
    /// Set the weights of the listed edges, publishing the next epoch.
    Update(Vec<WeightUpdate>),
    /// One numbered segment of a long-lived update stream (see the
    /// [module docs](self) for the sequencing/ack contract).
    UpdateStream {
        seq: u64,
        updates: Vec<WeightUpdate>,
    },
    Health,
    Metrics,
    Shutdown,
}

/// The payload of a `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub p: Vec<NodeId>,
    pub q: Vec<NodeId>,
    pub phi: f64,
    pub agg: Aggregate,
    /// Per-request deadline, measured from the moment the server admits
    /// the request (queue wait counts). `None` uses the server default.
    pub deadline_ms: Option<u64>,
}

fn update_list(v: &Json) -> Result<Vec<WeightUpdate>, String> {
    let arr = v
        .get("updates")
        .and_then(Json::as_arr)
        .ok_or_else(|| "'updates' must be an array".to_string())?;
    if arr.is_empty() {
        return Err("'updates' must not be empty".to_string());
    }
    arr.iter()
        .map(|e| {
            let node = |key: &'static str| {
                e.get(key)
                    .and_then(Json::as_u64)
                    .and_then(|n| NodeId::try_from(n).ok())
                    .ok_or_else(|| format!("update '{key}' must be a node id"))
            };
            let w = e
                .get("w")
                .and_then(Json::as_u64)
                .and_then(|n| Weight::try_from(n).ok())
                .ok_or_else(|| "update 'w' must be a positive weight".to_string())?;
            Ok(WeightUpdate {
                u: node("u")?,
                v: node("v")?,
                w,
            })
        })
        .collect()
}

fn node_list(v: &Json, key: &'static str) -> Result<Vec<NodeId>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("'{key}' must be an array of node ids"))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| NodeId::try_from(n).ok())
                .ok_or_else(|| format!("'{key}' contains a non-node-id value"))
        })
        .collect()
}

impl Request {
    /// Parse one request line. The error string is safe to echo back in an
    /// `error` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_str()
                    .ok_or_else(|| "'id' must be a string".to_string())?
                    .to_string(),
            ),
        };
        let op = match v.get("op").and_then(Json::as_str) {
            Some("query") => {
                let phi = v
                    .get("phi")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| "'phi' must be a number".to_string())?;
                let agg = match v.get("agg").and_then(Json::as_str) {
                    Some("sum") => Aggregate::Sum,
                    Some("max") => Aggregate::Max,
                    _ => return Err("'agg' must be \"sum\" or \"max\"".to_string()),
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_u64().ok_or_else(|| {
                        "'deadline_ms' must be a non-negative integer".to_string()
                    })?),
                };
                Op::Query(QuerySpec {
                    p: node_list(&v, "p")?,
                    q: node_list(&v, "q")?,
                    phi,
                    agg,
                    deadline_ms,
                })
            }
            Some("update") => Op::Update(update_list(&v)?),
            Some("update_stream") => {
                let seq = v
                    .get("seq")
                    .and_then(Json::as_u64)
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| "'seq' must be a positive integer".to_string())?;
                Op::UpdateStream {
                    seq,
                    updates: update_list(&v)?,
                }
            }
            Some("health") => Op::Health,
            Some("metrics") => Op::Metrics,
            Some("shutdown") => Op::Shutdown,
            Some(other) => return Err(format!("unknown op '{other}'")),
            None => return Err("'op' must be a string".to_string()),
        };
        Ok(Request { id, op })
    }

    /// Serialize to one request line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Json)> = Vec::new();
        let op = match &self.op {
            Op::Query(_) => "query",
            Op::Update(_) => "update",
            Op::UpdateStream { .. } => "update_stream",
            Op::Health => "health",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        };
        members.push(("op".into(), Json::from(op)));
        if let Op::Query(spec) = &self.op {
            members.push(("p".into(), ids_json(&spec.p)));
            members.push(("q".into(), ids_json(&spec.q)));
            members.push(("phi".into(), Json::Num(spec.phi)));
            members.push(("agg".into(), Json::from(spec.agg.to_string().as_str())));
            if let Some(ms) = spec.deadline_ms {
                members.push(("deadline_ms".into(), Json::from(ms)));
            }
        }
        if let Op::UpdateStream { seq, .. } = &self.op {
            members.push(("seq".into(), Json::from(*seq)));
        }
        if let Op::Update(updates) | Op::UpdateStream { updates, .. } = &self.op {
            members.push((
                "updates".into(),
                Json::Arr(
                    updates
                        .iter()
                        .map(|up| {
                            Json::Obj(vec![
                                ("u".into(), Json::from(up.u as u64)),
                                ("v".into(), Json::from(up.v as u64)),
                                ("w".into(), Json::from(up.w as u64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(id) = &self.id {
            members.push(("id".into(), Json::from(id.as_str())));
        }
        Json::Obj(members).to_json()
    }
}

fn ids_json(ids: &[NodeId]) -> Json {
    Json::Arr(ids.iter().map(|&v| Json::from(v as u64)).collect())
}

fn region_json(r: &[f64; 4]) -> Json {
    Json::Arr(r.iter().map(|&x| Json::Num(x)).collect())
}

fn region_from(v: &Json) -> Option<[f64; 4]> {
    let arr = v.get("region").and_then(Json::as_arr)?;
    if arr.len() != 4 {
        return None;
    }
    let mut r = [0.0f64; 4];
    for (slot, x) in r.iter_mut().zip(arr) {
        *slot = x.as_f64()?;
    }
    Some(r)
}

/// Point-in-time server health, served inline even under overload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthInfo {
    pub uptime_ms: u64,
    /// Queries currently executing on workers.
    pub inflight: u64,
    /// Queries admitted but not yet picked up.
    pub queued: u64,
    pub workers: u64,
    /// True once shutdown began (accepting no new connections).
    pub draining: bool,
    /// The currently published graph epoch (bumped by every `update`).
    pub epoch: u64,
    /// Hub labels lag the current graph (answers stay exact; affected
    /// pairs fall back to exact search until the background repair lands).
    pub stale: bool,
    /// Shard id when serving in `--shard` mode (absent otherwise).
    pub shard: Option<u32>,
    /// Nodes owned by this shard (0 outside shard mode).
    pub owned_nodes: u64,
    /// Region MBR `[min_x, min_y, max_x, max_y]` in shard mode.
    pub region: Option<[f64; 4]>,
    /// Hub roots replayed by the last scoped repair (equals
    /// `labels_total` for a full rebuild; 0 before any repair).
    pub labels_repaired: u64,
    /// Hub roots a full rebuild would run.
    pub labels_total: u64,
    /// The last label build or repair published no labels (a network
    /// distance outgrew the label entry width): queries are answered
    /// index-free — exactly, but slower.
    pub labels_dropped: bool,
    /// Wall time of the last repair pass, milliseconds.
    pub last_repair_ms: u64,
}

impl HealthInfo {
    /// Fold one shard's health into a deployment view: the newest epoch,
    /// stale if any shard is, repair footprints summed (each shard repairs
    /// its own labels) and the slowest shard's repair wall time.
    pub fn merge_shard(&mut self, shard: &HealthInfo) {
        self.epoch = self.epoch.max(shard.epoch);
        self.stale |= shard.stale;
        self.labels_repaired += shard.labels_repaired;
        self.labels_total += shard.labels_total;
        self.labels_dropped |= shard.labels_dropped;
        self.last_repair_ms = self.last_repair_ms.max(shard.last_repair_ms);
    }
}

/// Aggregate serving counters for a `metrics` response.
#[derive(Debug, Clone, Default)]
pub struct MetricsInfo {
    /// Requests admitted to the queue (sheds excluded).
    pub requests: u64,
    pub ok: u64,
    pub empty: u64,
    pub cancelled: u64,
    pub shed: u64,
    pub errors: u64,
    /// Successfully applied `update` batches.
    pub updates: u64,
    /// The currently published graph epoch.
    pub epoch: u64,
    /// Answer-cache lookups served from the cache (0 when no cache is
    /// configured; see `fann_core::locality`).
    pub cache_hits: u64,
    /// Answer-cache lookups that had to compute.
    pub cache_misses: u64,
    /// Answers inserted into the cache.
    pub cache_insertions: u64,
    /// Cache entries dropped by weight-update batches.
    pub cache_invalidated: u64,
    /// Cache entries carried across an epoch bump by the region proof.
    pub cache_retained: u64,
    /// Cache entries dropped wholesale on capacity overflow.
    pub cache_evicted: u64,
    /// In-place cache-table compactions that reclaimed tombstones.
    pub cache_rebuilds: u64,
    /// Co-located batch windows executed (0 without batching).
    pub batches: u64,
    /// Queries answered through those batch windows.
    pub batch_queries: u64,
    /// Shard id when serving in `--shard` mode (absent otherwise).
    pub shard: Option<u32>,
    /// Nodes owned by this shard (0 outside shard mode).
    pub owned_nodes: u64,
    /// Region MBR `[min_x, min_y, max_x, max_y]` in shard mode.
    pub region: Option<[f64; 4]>,
    /// Router only: shards skipped by the `φM·mdist` bound before contact.
    pub shards_pruned: u64,
    /// Router only: shard requests actually sent.
    pub shards_contacted: u64,
    /// Router only: requests failed with a typed `upstream` error.
    pub upstream_errors: u64,
    /// `update_stream` segments accepted (acked with their own seq).
    pub stream_segments: u64,
    /// Edges applied through accepted stream segments.
    pub stream_updates: u64,
    /// Hub roots replayed by the last scoped repair (router: summed over
    /// shards).
    pub labels_repaired: u64,
    /// Hub roots a full rebuild would run (router: summed over shards).
    pub labels_total: u64,
    /// Wall time of the last repair pass, milliseconds (router: max over
    /// shards).
    pub last_repair_ms: u64,
    pub latency: LatencyHistogram,
    pub search: SearchStats,
}

// The histogram has no equality of its own; compare what the wire format
// carries (counts + quantiles), which is also what tests assert on.
impl PartialEq for MetricsInfo {
    fn eq(&self, other: &Self) -> bool {
        self.requests == other.requests
            && self.ok == other.ok
            && self.empty == other.empty
            && self.cancelled == other.cancelled
            && self.shed == other.shed
            && self.errors == other.errors
            && self.updates == other.updates
            && self.epoch == other.epoch
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.cache_insertions == other.cache_insertions
            && self.cache_invalidated == other.cache_invalidated
            && self.cache_retained == other.cache_retained
            && self.cache_evicted == other.cache_evicted
            && self.cache_rebuilds == other.cache_rebuilds
            && self.batches == other.batches
            && self.batch_queries == other.batch_queries
            && self.shard == other.shard
            && self.owned_nodes == other.owned_nodes
            && self.region == other.region
            && self.shards_pruned == other.shards_pruned
            && self.shards_contacted == other.shards_contacted
            && self.upstream_errors == other.upstream_errors
            && self.stream_segments == other.stream_segments
            && self.stream_updates == other.stream_updates
            && self.labels_repaired == other.labels_repaired
            && self.labels_total == other.labels_total
            && self.last_repair_ms == other.last_repair_ms
            && self.search == other.search
            && self.latency.count() == other.latency.count()
            && self.latency.p50_ns() == other.latency.p50_ns()
            && self.latency.p90_ns() == other.latency.p90_ns()
            && self.latency.p99_ns() == other.latency.p99_ns()
            && self.latency.max_ns() == other.latency.max_ns()
    }
}

/// Why an `update_stream` segment was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamErrorKind {
    /// The segment number skipped ahead of the next expected one.
    Gap,
    /// The segment carried more than [`MAX_STREAM_SEGMENT`] edges.
    Overflow,
}

impl StreamErrorKind {
    pub fn name(&self) -> &'static str {
        match self {
            StreamErrorKind::Gap => "gap",
            StreamErrorKind::Overflow => "overflow",
        }
    }
}

/// One response line, matched to its request by the echoed `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub id: Option<String>,
    pub body: Body,
}

/// The response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// The answer plus which strategy produced it and the service time.
    Ok {
        p_star: NodeId,
        dist: Dist,
        subset: Vec<NodeId>,
        strategy: String,
        micros: u64,
    },
    /// Valid query, but no data point reaches `ceil(phi |Q|)` query points.
    Empty,
    /// The deadline passed before an answer was established.
    Cancelled,
    /// Load shed at admission: the queue was full. The query never ran.
    Shed,
    /// Weight updates applied and published; `epoch` is the new epoch,
    /// `applied` the number of edges changed.
    Updated {
        epoch: u64,
        applied: u64,
    },
    /// Cumulative stream acknowledgement: `seq` is the highest contiguous
    /// segment applied on this connection, `epoch` the published epoch
    /// after it, `applied` the edges applied by the segment that
    /// triggered this ack (0 on an idempotent duplicate re-ack).
    StreamAck {
        seq: u64,
        epoch: u64,
        applied: u64,
    },
    /// Typed stream-sequencing failure; nothing was applied. For `Gap`,
    /// `expected`/`got` are segment numbers; for `Overflow`, the segment
    /// cap and the offered segment size.
    StreamError {
        kind: StreamErrorKind,
        expected: u64,
        got: u64,
    },
    Error {
        error: String,
    },
    /// A shard (or its connection) failed while it was still needed for a
    /// correct answer: the request degrades with a typed error naming the
    /// shard instead of a generic disconnect or a wrong merged answer.
    Upstream {
        shard: u32,
        error: String,
    },
    Health(HealthInfo),
    Metrics(Box<MetricsInfo>),
    /// Shutdown acknowledged; the server is draining.
    Bye,
}

impl Response {
    /// The `status` field value for this body.
    pub fn status(&self) -> &'static str {
        match &self.body {
            Body::Ok { .. } => "ok",
            Body::Empty => "empty",
            Body::Cancelled => "cancelled",
            Body::Shed => "shed",
            Body::Updated { .. } => "updated",
            Body::StreamAck { .. } => "stream_ack",
            Body::StreamError { .. } => "stream_error",
            Body::Error { .. } => "error",
            Body::Upstream { .. } => "upstream",
            Body::Health(_) => "health",
            Body::Metrics(_) => "metrics",
            Body::Bye => "bye",
        }
    }

    /// Serialize to one response line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Json)> = vec![("status".into(), Json::from(self.status()))];
        if let Some(id) = &self.id {
            members.push(("id".into(), Json::from(id.as_str())));
        }
        match &self.body {
            Body::Ok {
                p_star,
                dist,
                subset,
                strategy,
                micros,
            } => {
                members.push(("p_star".into(), Json::from(*p_star as u64)));
                members.push(("dist".into(), Json::from(*dist)));
                members.push(("subset".into(), ids_json(subset)));
                members.push(("strategy".into(), Json::from(strategy.as_str())));
                members.push(("micros".into(), Json::from(*micros)));
            }
            Body::Empty | Body::Cancelled | Body::Shed | Body::Bye => {}
            Body::Updated { epoch, applied } => {
                members.push(("epoch".into(), Json::from(*epoch)));
                members.push(("applied".into(), Json::from(*applied)));
            }
            Body::StreamAck {
                seq,
                epoch,
                applied,
            } => {
                members.push(("seq".into(), Json::from(*seq)));
                members.push(("epoch".into(), Json::from(*epoch)));
                members.push(("applied".into(), Json::from(*applied)));
            }
            Body::StreamError {
                kind,
                expected,
                got,
            } => {
                members.push(("kind".into(), Json::from(kind.name())));
                members.push(("expected".into(), Json::from(*expected)));
                members.push(("got".into(), Json::from(*got)));
            }
            Body::Error { error } => {
                members.push(("error".into(), Json::from(error.as_str())));
            }
            Body::Upstream { shard, error } => {
                members.push(("shard".into(), Json::from(*shard as u64)));
                members.push(("error".into(), Json::from(error.as_str())));
            }
            Body::Health(h) => {
                members.push(("uptime_ms".into(), Json::from(h.uptime_ms)));
                members.push(("inflight".into(), Json::from(h.inflight)));
                members.push(("queued".into(), Json::from(h.queued)));
                members.push(("workers".into(), Json::from(h.workers)));
                members.push(("draining".into(), Json::Bool(h.draining)));
                members.push(("epoch".into(), Json::from(h.epoch)));
                members.push(("stale".into(), Json::Bool(h.stale)));
                if let Some(s) = h.shard {
                    members.push(("shard".into(), Json::from(s as u64)));
                    members.push(("owned_nodes".into(), Json::from(h.owned_nodes)));
                }
                if let Some(r) = h.region {
                    members.push(("region".into(), region_json(&r)));
                }
                members.push(("labels_repaired".into(), Json::from(h.labels_repaired)));
                members.push(("labels_total".into(), Json::from(h.labels_total)));
                if h.labels_dropped {
                    members.push(("labels_dropped".into(), Json::Bool(true)));
                }
                members.push(("last_repair_ms".into(), Json::from(h.last_repair_ms)));
            }
            Body::Metrics(m) => {
                members.push(("requests".into(), Json::from(m.requests)));
                members.push(("ok".into(), Json::from(m.ok)));
                members.push(("empty".into(), Json::from(m.empty)));
                members.push(("cancelled".into(), Json::from(m.cancelled)));
                members.push(("shed".into(), Json::from(m.shed)));
                members.push(("errors".into(), Json::from(m.errors)));
                members.push(("updates".into(), Json::from(m.updates)));
                members.push(("epoch".into(), Json::from(m.epoch)));
                members.push(("cache_hits".into(), Json::from(m.cache_hits)));
                members.push(("cache_misses".into(), Json::from(m.cache_misses)));
                members.push(("cache_insertions".into(), Json::from(m.cache_insertions)));
                members.push(("cache_invalidated".into(), Json::from(m.cache_invalidated)));
                members.push(("cache_retained".into(), Json::from(m.cache_retained)));
                members.push(("cache_evicted".into(), Json::from(m.cache_evicted)));
                members.push(("cache_rebuilds".into(), Json::from(m.cache_rebuilds)));
                members.push(("batches".into(), Json::from(m.batches)));
                members.push(("batch_queries".into(), Json::from(m.batch_queries)));
                if let Some(s) = m.shard {
                    members.push(("shard".into(), Json::from(s as u64)));
                    members.push(("owned_nodes".into(), Json::from(m.owned_nodes)));
                }
                if let Some(r) = m.region {
                    members.push(("region".into(), region_json(&r)));
                }
                members.push(("shards_pruned".into(), Json::from(m.shards_pruned)));
                members.push(("shards_contacted".into(), Json::from(m.shards_contacted)));
                members.push(("upstream_errors".into(), Json::from(m.upstream_errors)));
                members.push(("stream_segments".into(), Json::from(m.stream_segments)));
                members.push(("stream_updates".into(), Json::from(m.stream_updates)));
                members.push(("labels_repaired".into(), Json::from(m.labels_repaired)));
                members.push(("labels_total".into(), Json::from(m.labels_total)));
                members.push(("last_repair_ms".into(), Json::from(m.last_repair_ms)));
                members.push(("p50_us".into(), Json::from(m.latency.p50_ns() / 1_000)));
                members.push(("p90_us".into(), Json::from(m.latency.p90_ns() / 1_000)));
                members.push(("p99_us".into(), Json::from(m.latency.p99_ns() / 1_000)));
                members.push(("max_us".into(), Json::from(m.latency.max_ns() / 1_000)));
                let s = &m.search;
                members.push((
                    "search".into(),
                    Json::Obj(vec![
                        ("nodes_settled".into(), Json::from(s.nodes_settled)),
                        ("heap_pushes".into(), Json::from(s.heap_pushes)),
                        ("heap_pops".into(), Json::from(s.heap_pops)),
                        ("edges_relaxed".into(), Json::from(s.edges_relaxed)),
                        ("gphi_evals".into(), Json::from(s.gphi_evals)),
                        ("oracle_calls".into(), Json::from(s.oracle_calls)),
                        ("label_lookups".into(), Json::from(s.label_lookups)),
                        ("rtree_nodes".into(), Json::from(s.rtree_nodes)),
                        ("candidates_pruned".into(), Json::from(s.candidates_pruned)),
                    ]),
                ));
            }
        }
        Json::Obj(members).to_json()
    }

    /// Parse one response line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_str()
                    .ok_or_else(|| "'id' must be a string".to_string())?
                    .to_string(),
            ),
        };
        let u64_field = |key: &'static str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
        };
        let body = match v.get("status").and_then(Json::as_str) {
            Some("ok") => Body::Ok {
                p_star: u64_field("p_star")? as NodeId,
                dist: u64_field("dist")?,
                subset: node_list(&v, "subset")?,
                strategy: v
                    .get("strategy")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                micros: u64_field("micros")?,
            },
            Some("empty") => Body::Empty,
            Some("cancelled") => Body::Cancelled,
            Some("shed") => Body::Shed,
            Some("updated") => Body::Updated {
                epoch: u64_field("epoch")?,
                applied: u64_field("applied")?,
            },
            Some("stream_ack") => Body::StreamAck {
                seq: u64_field("seq")?,
                epoch: u64_field("epoch")?,
                applied: u64_field("applied")?,
            },
            Some("stream_error") => Body::StreamError {
                kind: match v.get("kind").and_then(Json::as_str) {
                    Some("gap") => StreamErrorKind::Gap,
                    Some("overflow") => StreamErrorKind::Overflow,
                    _ => return Err("'kind' must be \"gap\" or \"overflow\"".to_string()),
                },
                expected: u64_field("expected")?,
                got: u64_field("got")?,
            },
            Some("error") => Body::Error {
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            Some("upstream") => Body::Upstream {
                shard: u64_field("shard")? as u32,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            Some("health") => Body::Health(HealthInfo {
                uptime_ms: u64_field("uptime_ms")?,
                inflight: u64_field("inflight")?,
                queued: u64_field("queued")?,
                workers: u64_field("workers")?,
                draining: v
                    .get("draining")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| "'draining' must be a bool".to_string())?,
                epoch: u64_field("epoch")?,
                stale: v
                    .get("stale")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| "'stale' must be a bool".to_string())?,
                // Shard fields arrived with the partitioned serving tier;
                // tolerate their absence for non-shard servers.
                shard: v.get("shard").and_then(Json::as_u64).map(|s| s as u32),
                owned_nodes: v.get("owned_nodes").and_then(Json::as_u64).unwrap_or(0),
                region: region_from(&v),
                // Repair-footprint fields arrived with incremental
                // maintenance; tolerate their absence for older peers.
                labels_repaired: v.get("labels_repaired").and_then(Json::as_u64).unwrap_or(0),
                labels_total: v.get("labels_total").and_then(Json::as_u64).unwrap_or(0),
                labels_dropped: v.get("labels_dropped").and_then(Json::as_bool) == Some(true),
                last_repair_ms: v.get("last_repair_ms").and_then(Json::as_u64).unwrap_or(0),
            }),
            Some("metrics") => {
                let mut m = MetricsInfo {
                    requests: u64_field("requests")?,
                    ok: u64_field("ok")?,
                    empty: u64_field("empty")?,
                    cancelled: u64_field("cancelled")?,
                    shed: u64_field("shed")?,
                    errors: u64_field("errors")?,
                    updates: u64_field("updates")?,
                    epoch: u64_field("epoch")?,
                    ..Default::default()
                };
                // Cache/batch counters arrived with the query-locality
                // layer; tolerate their absence for older peers.
                let opt = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
                m.cache_hits = opt("cache_hits");
                m.cache_misses = opt("cache_misses");
                m.cache_insertions = opt("cache_insertions");
                m.cache_invalidated = opt("cache_invalidated");
                m.cache_retained = opt("cache_retained");
                m.cache_evicted = opt("cache_evicted");
                m.cache_rebuilds = opt("cache_rebuilds");
                m.batches = opt("batches");
                m.batch_queries = opt("batch_queries");
                m.shard = v.get("shard").and_then(Json::as_u64).map(|s| s as u32);
                m.owned_nodes = opt("owned_nodes");
                m.region = region_from(&v);
                m.shards_pruned = opt("shards_pruned");
                m.shards_contacted = opt("shards_contacted");
                m.upstream_errors = opt("upstream_errors");
                m.stream_segments = opt("stream_segments");
                m.stream_updates = opt("stream_updates");
                m.labels_repaired = opt("labels_repaired");
                m.labels_total = opt("labels_total");
                m.last_repair_ms = opt("last_repair_ms");
                // The histogram itself does not round-trip; carry the
                // quantiles through as single samples so the client can
                // still display them.
                for key in ["p50_us", "p90_us", "p99_us"] {
                    if let Some(us) = v.get(key).and_then(Json::as_u64) {
                        m.latency.record_ns(us.saturating_mul(1_000));
                    }
                }
                if let Some(s) = v.get("search") {
                    let f = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
                    m.search = SearchStats {
                        nodes_settled: f("nodes_settled"),
                        heap_pushes: f("heap_pushes"),
                        heap_pops: f("heap_pops"),
                        edges_relaxed: f("edges_relaxed"),
                        gphi_evals: f("gphi_evals"),
                        oracle_calls: f("oracle_calls"),
                        label_lookups: f("label_lookups"),
                        rtree_nodes: f("rtree_nodes"),
                        candidates_pruned: f("candidates_pruned"),
                    };
                }
                Body::Metrics(Box::new(m))
            }
            Some("bye") => Body::Bye,
            Some(other) => return Err(format!("unknown status '{other}'")),
            None => return Err("'status' must be a string".to_string()),
        };
        Ok(Response { id, body })
    }

    /// Build the response body for an answered query — the single
    /// serializer shared by the server and `fannr query --json`.
    pub fn for_answer(
        id: Option<String>,
        answer: Option<&FannAnswer>,
        strategy: &str,
        micros: u64,
    ) -> Response {
        let body = match answer {
            Some(a) => Body::Ok {
                p_star: a.p_star,
                dist: a.dist,
                subset: a.subset.clone(),
                strategy: strategy.to_string(),
                micros,
            },
            None => Body::Empty,
        };
        Response { id, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_roundtrips() {
        let req = Request {
            id: Some("r-1".into()),
            op: Op::Query(QuerySpec {
                p: vec![1, 2, 3],
                q: vec![9, 10],
                phi: 0.5,
                agg: Aggregate::Max,
                deadline_ms: Some(50),
            }),
        };
        let line = req.to_json();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn control_requests_roundtrip() {
        for op in [Op::Health, Op::Metrics, Op::Shutdown] {
            let req = Request { id: None, op };
            assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
        }
    }

    #[test]
    fn update_request_roundtrips() {
        let req = Request {
            id: Some("u-1".into()),
            op: Op::Update(vec![
                WeightUpdate { u: 1, v: 2, w: 30 },
                WeightUpdate { u: 4, v: 5, w: 6 },
            ]),
        };
        let line = req.to_json();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn update_request_rejects_malformed_batches() {
        for bad in [
            r#"{"op":"update"}"#,
            r#"{"op":"update","updates":[]}"#,
            r#"{"op":"update","updates":[{"u":1,"v":2}]}"#,
            r#"{"op":"update","updates":[{"u":1,"v":2,"w":-3}]}"#,
            r#"{"op":"update","updates":[{"u":-1,"v":2,"w":3}]}"#,
            r#"{"op":"update","updates":[{"u":1,"v":2,"w":4294967296}]}"#,
            r#"{"op":"update","updates":"yes"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn update_stream_request_roundtrips() {
        let req = Request {
            id: Some("s-4".into()),
            op: Op::UpdateStream {
                seq: 17,
                updates: vec![WeightUpdate { u: 3, v: 9, w: 41 }],
            },
        };
        let line = req.to_json();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn update_stream_request_rejects_bad_seq() {
        for bad in [
            r#"{"op":"update_stream","updates":[{"u":1,"v":2,"w":3}]}"#,
            r#"{"op":"update_stream","seq":0,"updates":[{"u":1,"v":2,"w":3}]}"#,
            r#"{"op":"update_stream","seq":-1,"updates":[{"u":1,"v":2,"w":3}]}"#,
            r#"{"op":"update_stream","seq":"x","updates":[{"u":1,"v":2,"w":3}]}"#,
            r#"{"op":"update_stream","seq":1,"updates":[]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn stream_ack_and_error_roundtrip() {
        let ack = Response {
            id: Some("s-4".into()),
            body: Body::StreamAck {
                seq: 17,
                epoch: 9,
                applied: 3,
            },
        };
        let line = ack.to_json();
        assert!(line.starts_with(r#"{"status":"stream_ack""#), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), ack);
        for kind in [StreamErrorKind::Gap, StreamErrorKind::Overflow] {
            let err = Response {
                id: None,
                body: Body::StreamError {
                    kind,
                    expected: 5,
                    got: 9,
                },
            };
            assert_eq!(Response::parse(&err.to_json()).unwrap(), err);
        }
    }

    #[test]
    fn health_and_metrics_carry_repair_footprint() {
        let resp = Response {
            id: None,
            body: Body::Health(HealthInfo {
                labels_repaired: 12,
                labels_total: 50_000,
                labels_dropped: true,
                last_repair_ms: 7,
                ..Default::default()
            }),
        };
        assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);
        let m = MetricsInfo {
            stream_segments: 40,
            stream_updates: 160,
            labels_repaired: 12,
            labels_total: 50_000,
            last_repair_ms: 7,
            ..Default::default()
        };
        let resp = Response {
            id: None,
            body: Body::Metrics(Box::new(m)),
        };
        match Response::parse(&resp.to_json()).unwrap().body {
            Body::Metrics(parsed) => {
                assert_eq!(parsed.stream_segments, 40);
                assert_eq!(parsed.stream_updates, 160);
                assert_eq!(parsed.labels_repaired, 12);
                assert_eq!(parsed.labels_total, 50_000);
                assert_eq!(parsed.last_repair_ms, 7);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    /// `health` as servers that still maintained a G-tree wrote it.
    const OLD_HEALTH: &str = concat!(
        r#"{"status":"health","uptime_ms":5,"inflight":0,"queued":0,"workers":2,"#,
        r#""draining":false,"epoch":3,"stale":true,"shard":1,"owned_nodes":40,"#,
        r#""labels_repaired":12,"labels_total":50000,"repair_scoped_leaves":2,"#,
        r#""gtree_entries_repaired":96,"gtree_entries_total":18432,"last_repair_ms":7}"#
    );

    fn parse_health(line: &str) -> HealthInfo {
        match Response::parse(line).unwrap().body {
            Body::Health(h) => h,
            other => panic!("expected health, got {other:?}"),
        }
    }

    #[test]
    fn older_peers_g_tree_fields_are_ignored() {
        let old = parse_health(OLD_HEALTH);
        let want = HealthInfo {
            uptime_ms: 5,
            workers: 2,
            epoch: 3,
            stale: true,
            shard: Some(1),
            owned_nodes: 40,
            labels_repaired: 12,
            labels_total: 50_000,
            last_repair_ms: 7,
            ..Default::default()
        };
        assert_eq!(old, want);
        // What this version writes for the same state drops the keys.
        let line = Response {
            id: None,
            body: Body::Health(want),
        }
        .to_json();
        assert!(
            !line.contains("gtree") && !line.contains("scoped_leaves"),
            "{line}"
        );
        assert_eq!(parse_health(&line), want);

        let old_metrics = concat!(
            r#"{"status":"metrics","requests":9,"ok":8,"empty":1,"cancelled":0,"#,
            r#""shed":0,"errors":0,"updates":2,"epoch":3,"labels_repaired":12,"#,
            r#""labels_total":50000,"repair_scoped_leaves":2,"last_repair_ms":7}"#
        );
        match Response::parse(old_metrics).unwrap().body {
            Body::Metrics(m) => {
                assert_eq!((m.requests, m.ok, m.empty, m.updates), (9, 8, 1, 2));
                assert_eq!((m.labels_repaired, m.labels_total), (12, 50_000));
                assert_eq!(m.last_repair_ms, 7);
                let line = Response {
                    id: None,
                    body: Body::Metrics(m),
                }
                .to_json();
                assert!(!line.contains("scoped_leaves"), "{line}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn router_view_of_mixed_version_shards_matches() {
        // A rolling upgrade: one shard still writes the G-tree keys, the
        // other does not. The deployment view must not depend on which.
        let old = parse_health(OLD_HEALTH);
        let new = parse_health(
            &Response {
                id: None,
                body: Body::Health(HealthInfo {
                    epoch: 4,
                    labels_repaired: 3,
                    labels_total: 48_000,
                    last_repair_ms: 11,
                    ..Default::default()
                }),
            }
            .to_json(),
        );
        let upgraded_line = OLD_HEALTH.replace(
            r#""repair_scoped_leaves":2,"gtree_entries_repaired":96,"gtree_entries_total":18432,"#,
            "",
        );
        assert_ne!(upgraded_line, OLD_HEALTH);
        let upgraded = parse_health(&upgraded_line);
        let view = |shards: [&HealthInfo; 2]| {
            let mut v = HealthInfo::default();
            for h in shards {
                v.merge_shard(h);
            }
            v
        };
        let mixed = view([&old, &new]);
        assert_eq!(mixed, view([&upgraded, &new]));
        assert_eq!((mixed.epoch, mixed.stale), (4, true));
        assert_eq!((mixed.labels_repaired, mixed.labels_total), (15, 98_000));
        assert_eq!(mixed.last_repair_ms, 11);
    }

    #[test]
    fn updated_response_roundtrips() {
        let resp = Response {
            id: Some("u-1".into()),
            body: Body::Updated {
                epoch: 7,
                applied: 3,
            },
        };
        let line = resp.to_json();
        assert!(line.starts_with(r#"{"status":"updated""#), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), resp);
    }

    #[test]
    fn parse_rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"op":"query","p":[1],"q":[2],"phi":"x","agg":"max"}"#,
            r#"{"op":"query","p":[1],"q":[2],"phi":0.5,"agg":"median"}"#,
            r#"{"op":"query","p":[-1],"q":[2],"phi":0.5,"agg":"max"}"#,
            r#"{"op":"query","p":[1],"q":[2],"phi":0.5,"agg":"max","deadline_ms":-5}"#,
            r#"{"op":"health","id":7}"#,
            r#"{"phi":0.5}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn ok_response_roundtrips() {
        let resp = Response::for_answer(
            Some("q7".into()),
            Some(&FannAnswer {
                p_star: 42,
                subset: vec![1, 5],
                dist: 1234,
            }),
            "Exact-max",
            87,
        );
        let line = resp.to_json();
        assert!(line.starts_with(r#"{"status":"ok","id":"q7""#), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), resp);
    }

    #[test]
    fn empty_and_terminal_responses_roundtrip() {
        for body in [Body::Empty, Body::Cancelled, Body::Shed, Body::Bye] {
            let resp = Response {
                id: Some("x".into()),
                body,
            };
            assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn health_roundtrips() {
        let resp = Response {
            id: None,
            body: Body::Health(HealthInfo {
                uptime_ms: 12,
                inflight: 2,
                queued: 5,
                workers: 4,
                draining: true,
                epoch: 9,
                stale: true,
                ..Default::default()
            }),
        };
        assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);
    }

    #[test]
    fn metrics_serializes_counters_and_quantiles() {
        let mut m = MetricsInfo {
            requests: 10,
            ok: 8,
            cancelled: 1,
            shed: 1,
            ..Default::default()
        };
        for _ in 0..10 {
            m.latency.record_ns(2_000_000);
        }
        m.search.nodes_settled = 999;
        let resp = Response {
            id: None,
            body: Body::Metrics(Box::new(m)),
        };
        let line = resp.to_json();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(10));
        assert!(v.get("p50_us").and_then(Json::as_u64).unwrap() >= 1_000);
        assert_eq!(
            v.get("search")
                .unwrap()
                .get("nodes_settled")
                .and_then(Json::as_u64),
            Some(999)
        );
    }

    #[test]
    fn upstream_response_roundtrips() {
        let resp = Response {
            id: Some("q9".into()),
            body: Body::Upstream {
                shard: 1,
                error: "connection refused".into(),
            },
        };
        let line = resp.to_json();
        assert!(line.starts_with(r#"{"status":"upstream""#), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), resp);
    }

    #[test]
    fn shard_health_and_metrics_roundtrip() {
        let resp = Response {
            id: None,
            body: Body::Health(HealthInfo {
                uptime_ms: 3,
                workers: 2,
                epoch: 1,
                shard: Some(1),
                owned_nodes: 512,
                region: Some([-1.25, 0.0, 37.5, 99.0]),
                ..Default::default()
            }),
        };
        assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);

        let m = MetricsInfo {
            requests: 4,
            shard: Some(0),
            owned_nodes: 256,
            region: Some([0.5, 0.5, 8.0, 8.0]),
            shards_pruned: 7,
            shards_contacted: 9,
            upstream_errors: 1,
            ..Default::default()
        };
        let resp = Response {
            id: None,
            body: Body::Metrics(Box::new(m)),
        };
        // The histogram does not round-trip count-for-count (quantiles come
        // back as samples); assert on the parsed shard fields directly.
        match Response::parse(&resp.to_json()).unwrap().body {
            Body::Metrics(parsed) => {
                assert_eq!(parsed.shard, Some(0));
                assert_eq!(parsed.owned_nodes, 256);
                assert_eq!(parsed.region, Some([0.5, 0.5, 8.0, 8.0]));
                assert_eq!(parsed.shards_pruned, 7);
                assert_eq!(parsed.shards_contacted, 9);
                assert_eq!(parsed.upstream_errors, 1);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn non_shard_health_omits_shard_fields() {
        let resp = Response {
            id: None,
            body: Body::Health(HealthInfo::default()),
        };
        let line = resp.to_json();
        assert!(!line.contains("shard"), "{line}");
        assert!(!line.contains("region"), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), resp);
    }

    #[test]
    fn error_response_escapes_payload() {
        let resp = Response {
            id: None,
            body: Body::Error {
                error: "bad \"quote\"\nline".into(),
            },
        };
        let parsed = Response::parse(&resp.to_json()).unwrap();
        assert_eq!(parsed, resp);
    }
}
