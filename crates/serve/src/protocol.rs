//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order per
//! connection (clients may pipeline; the optional `id` is echoed back so
//! responses can be matched). Grammar:
//!
//! ```text
//! request  = query | update | health | metrics | shutdown
//! query    = {"op":"query", "p":[nodeid...], "q":[nodeid...],
//!             "phi":number, "agg":"sum"|"max",
//!             "deadline_ms":number?, "id":string?}
//! update   = {"op":"update",
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
//! The same serializer backs `fannr query --json`, so the CLI's output and
//! the server's cannot drift.

use crate::json::{Ids, JsonError, Reader, Scalar, Writer};
use fann_core::metrics::{LatencyHistogram, SearchStats};
use fann_core::{Aggregate, FannAnswer};
use roadnet::{Dist, NodeId, Weight, WeightUpdate};
use std::borrow::Cow;

#[cfg(test)]
mod reference;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    pub op: Op,
}

/// The request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query(QuerySpec),
    /// Set the weights of the listed edges, publishing the next epoch.
    Update(Vec<WeightUpdate>),
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

/// An object's members read as [`Scalar`]s, in line order. A lookup
/// takes the first occurrence of its key, so a later duplicate is
/// validated but never read; a line carries few keys, so a linear scan
/// is as fast as an index.
#[derive(Default)]
struct Fields<'a>(Vec<(Cow<'a, str>, Scalar<'a>)>);

impl<'a> Fields<'a> {
    /// Read the value of `key`, with the reader on it.
    fn read(&mut self, r: &mut Reader<'a>, key: Cow<'a, str>) -> Result<(), JsonError> {
        let value = r.scalar()?;
        self.0.push((key, value));
        Ok(())
    }

    /// An object's members into these fields; any other value adds none.
    fn read_object(&mut self, r: &mut Reader<'a>) -> Result<(), JsonError> {
        r.object(|r, key| self.read(r, key)).map(drop)
    }

    fn get(&self, key: &str) -> Option<&Scalar<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Scalar::as_u64)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Scalar::as_str)
    }

    fn bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Scalar::as_bool)
    }

    /// A required non-negative integer.
    fn required(&self, key: &'static str) -> Result<u64, String> {
        self.u64(key)
            .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
    }

    /// The optional string `id`; `null` counts as absent.
    fn id(&self) -> Result<Option<String>, String> {
        match self.get("id") {
            None | Some(Scalar::Null) => Ok(None),
            Some(Scalar::Str(s)) => Ok(Some(s.to_string())),
            Some(_) => Err("'id' must be a string".to_string()),
        }
    }
}

/// Read a value only at its key's first occurrence; skip it after that.
fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<(), JsonError> {
    if slot.is_some() {
        r.skip()
    } else {
        *slot = Some(read(r)?);
        Ok(())
    }
}

/// An `updates` array, checked element by element in order; `Err` holds
/// the first failure (the array is still read to its end).
fn read_updates(r: &mut Reader) -> Result<Result<Vec<WeightUpdate>, String>, JsonError> {
    let mut list = Ok(Vec::new());
    let mut elements = 0usize;
    let mut e = Fields::default();
    let is_array = r.array(|r| {
        elements += 1;
        e.0.clear();
        e.read_object(r)?;
        if let Ok(items) = &mut list {
            match update_from(&e) {
                Ok(up) => items.push(up),
                Err(error) => list = Err(error),
            }
        }
        Ok(())
    })?;
    Ok(match (is_array, elements) {
        (false, _) => Err("'updates' must be an array".to_string()),
        (true, 0) => Err("'updates' must not be empty".to_string()),
        _ => list,
    })
}

fn update_from(e: &Fields) -> Result<WeightUpdate, String> {
    let node = |key: &'static str| {
        e.u64(key)
            .and_then(|n| NodeId::try_from(n).ok())
            .ok_or_else(|| format!("update '{key}' must be a node id"))
    };
    let w = e
        .u64("w")
        .and_then(|n| Weight::try_from(n).ok())
        .ok_or_else(|| "update 'w' must be a positive weight".to_string())?;
    Ok(WeightUpdate {
        u: node("u")?,
        v: node("v")?,
        w,
    })
}

fn node_list(ids: Option<Ids>, key: &'static str) -> Result<Vec<NodeId>, String> {
    match ids {
        Some(Ids::Valid(ids)) => Ok(ids),
        Some(Ids::Invalid) => Err(format!("'{key}' contains a non-node-id value")),
        Some(Ids::NotArray) | None => Err(format!("'{key}' must be an array of node ids")),
    }
}

impl Request {
    /// Parse one request line. The error string is safe to echo back in an
    /// `error` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut f = Fields::default();
        let (mut p, mut q, mut updates) = (None, None, None);
        let mut r = Reader::new(line);
        r.object(|r, key| match &*key {
            "p" => first(&mut p, r, Reader::node_ids),
            "q" => first(&mut q, r, Reader::node_ids),
            "updates" => first(&mut updates, r, read_updates),
            _ => f.read(r, key),
        })
        .and_then(|_| r.finish())
        .map_err(|e| e.to_string())?;
        let id = f.id()?;
        let op = match f.str("op") {
            Some("query") => {
                let phi = f
                    .get("phi")
                    .and_then(Scalar::as_f64)
                    .ok_or_else(|| "'phi' must be a number".to_string())?;
                let agg = match f.str("agg") {
                    Some("sum") => Aggregate::Sum,
                    Some("max") => Aggregate::Max,
                    _ => return Err("'agg' must be \"sum\" or \"max\"".to_string()),
                };
                let deadline_ms = match f.get("deadline_ms") {
                    None | Some(Scalar::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "'deadline_ms' must be a non-negative integer".to_string()
                    })?),
                };
                Op::Query(QuerySpec {
                    p: node_list(p, "p")?,
                    q: node_list(q, "q")?,
                    phi,
                    agg,
                    deadline_ms,
                })
            }
            Some("update") => Op::Update(
                updates.unwrap_or_else(|| Err("'updates' must be an array".to_string()))?,
            ),
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
        let mut w = Writer::new();
        let op = match &self.op {
            Op::Query(_) => "query",
            Op::Update(_) => "update",
            Op::Health => "health",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        };
        w.str("op", op);
        if let Op::Query(spec) = &self.op {
            w.ids("p", &spec.p);
            w.ids("q", &spec.q);
            w.f64("phi", spec.phi);
            w.str(
                "agg",
                match spec.agg {
                    Aggregate::Sum => "sum",
                    Aggregate::Max => "max",
                },
            );
            if let Some(ms) = spec.deadline_ms {
                w.u64("deadline_ms", ms);
            }
        }
        if let Op::Update(updates) = &self.op {
            w.objects("updates", updates, |w, up| {
                w.u64("u", u64::from(up.u));
                w.u64("v", u64::from(up.v));
                w.u64("w", u64::from(up.w));
            });
        }
        if let Some(id) = &self.id {
            w.str("id", id);
        }
        w.finish()
    }
}

/// A `region` array: exactly four numbers, else `None`.
fn read_region(r: &mut Reader) -> Result<Option<[f64; 4]>, JsonError> {
    let mut region = [0.0f64; 4];
    let mut len = 0usize;
    let mut numbers = true;
    let is_array = r.array(|r| {
        match (r.scalar()?.as_f64(), region.get_mut(len)) {
            (Some(x), Some(slot)) => *slot = x,
            (Some(_), None) => {}
            (None, _) => numbers = false,
        }
        len += 1;
        Ok(())
    })?;
    Ok((is_array && numbers && len == 4).then_some(region))
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
            && self.shard == other.shard
            && self.owned_nodes == other.owned_nodes
            && self.region == other.region
            && self.shards_pruned == other.shards_pruned
            && self.shards_contacted == other.shards_contacted
            && self.upstream_errors == other.upstream_errors
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
            Body::Error { .. } => "error",
            Body::Upstream { .. } => "upstream",
            Body::Health(_) => "health",
            Body::Metrics(_) => "metrics",
            Body::Bye => "bye",
        }
    }

    /// Serialize to one response line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.str("status", self.status());
        if let Some(id) = &self.id {
            w.str("id", id);
        }
        match &self.body {
            Body::Ok {
                p_star,
                dist,
                subset,
                strategy,
                micros,
            } => {
                w.u64("p_star", u64::from(*p_star));
                w.u64("dist", *dist);
                w.ids("subset", subset);
                w.str("strategy", strategy);
                w.u64("micros", *micros);
            }
            Body::Empty | Body::Cancelled | Body::Shed | Body::Bye => {}
            Body::Updated { epoch, applied } => {
                w.u64("epoch", *epoch);
                w.u64("applied", *applied);
            }
            Body::Error { error } => w.str("error", error),
            Body::Upstream { shard, error } => {
                w.u64("shard", u64::from(*shard));
                w.str("error", error);
            }
            Body::Health(h) => {
                w.u64("uptime_ms", h.uptime_ms);
                w.u64("inflight", h.inflight);
                w.u64("queued", h.queued);
                w.u64("workers", h.workers);
                w.bool("draining", h.draining);
                w.u64("epoch", h.epoch);
                w.bool("stale", h.stale);
                if let Some(s) = h.shard {
                    w.u64("shard", u64::from(s));
                    w.u64("owned_nodes", h.owned_nodes);
                }
                if let Some(r) = &h.region {
                    w.f64s("region", r);
                }
                w.u64("labels_repaired", h.labels_repaired);
                w.u64("labels_total", h.labels_total);
                if h.labels_dropped {
                    w.bool("labels_dropped", true);
                }
                w.u64("last_repair_ms", h.last_repair_ms);
            }
            Body::Metrics(m) => {
                w.u64("requests", m.requests);
                w.u64("ok", m.ok);
                w.u64("empty", m.empty);
                w.u64("cancelled", m.cancelled);
                w.u64("shed", m.shed);
                w.u64("errors", m.errors);
                w.u64("updates", m.updates);
                w.u64("epoch", m.epoch);
                w.u64("cache_hits", m.cache_hits);
                w.u64("cache_misses", m.cache_misses);
                w.u64("cache_insertions", m.cache_insertions);
                w.u64("cache_invalidated", m.cache_invalidated);
                w.u64("cache_retained", m.cache_retained);
                w.u64("cache_evicted", m.cache_evicted);
                w.u64("cache_rebuilds", m.cache_rebuilds);
                if let Some(s) = m.shard {
                    w.u64("shard", u64::from(s));
                    w.u64("owned_nodes", m.owned_nodes);
                }
                if let Some(r) = &m.region {
                    w.f64s("region", r);
                }
                w.u64("shards_pruned", m.shards_pruned);
                w.u64("shards_contacted", m.shards_contacted);
                w.u64("upstream_errors", m.upstream_errors);
                w.u64("labels_repaired", m.labels_repaired);
                w.u64("labels_total", m.labels_total);
                w.u64("last_repair_ms", m.last_repair_ms);
                w.u64("p50_us", m.latency.p50_ns() / 1_000);
                w.u64("p90_us", m.latency.p90_ns() / 1_000);
                w.u64("p99_us", m.latency.p99_ns() / 1_000);
                w.u64("max_us", m.latency.max_ns() / 1_000);
                let s = &m.search;
                w.object("search", |w| {
                    w.u64("nodes_settled", s.nodes_settled);
                    w.u64("heap_pushes", s.heap_pushes);
                    w.u64("heap_pops", s.heap_pops);
                    w.u64("edges_relaxed", s.edges_relaxed);
                    w.u64("gphi_evals", s.gphi_evals);
                    w.u64("oracle_calls", s.oracle_calls);
                    w.u64("label_lookups", s.label_lookups);
                    w.u64("rtree_nodes", s.rtree_nodes);
                    w.u64("candidates_pruned", s.candidates_pruned);
                });
            }
        }
        w.finish()
    }

    /// Parse one response line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut f = Fields::default();
        let (mut subset, mut region, mut search) = (None, None, None);
        let mut r = Reader::new(line);
        r.object(|r, key| match &*key {
            "subset" => first(&mut subset, r, Reader::node_ids),
            "region" => first(&mut region, r, read_region),
            "search" => first(&mut search, r, |r| {
                let mut s = Fields::default();
                s.read_object(r).map(|()| s)
            }),
            _ => f.read(r, key),
        })
        .and_then(|_| r.finish())
        .map_err(|e| e.to_string())?;
        let id = f.id()?;
        let region = region.flatten();
        let body = match f.str("status") {
            Some("ok") => Body::Ok {
                p_star: f.required("p_star")? as NodeId,
                dist: f.required("dist")?,
                subset: node_list(subset, "subset")?,
                strategy: f.str("strategy").unwrap_or_default().to_string(),
                micros: f.required("micros")?,
            },
            Some("empty") => Body::Empty,
            Some("cancelled") => Body::Cancelled,
            Some("shed") => Body::Shed,
            Some("updated") => Body::Updated {
                epoch: f.required("epoch")?,
                applied: f.required("applied")?,
            },
            Some("error") => Body::Error {
                error: f.str("error").unwrap_or_default().to_string(),
            },
            Some("upstream") => Body::Upstream {
                shard: f.required("shard")? as u32,
                error: f.str("error").unwrap_or_default().to_string(),
            },
            Some("health") => Body::Health(HealthInfo {
                uptime_ms: f.required("uptime_ms")?,
                inflight: f.required("inflight")?,
                queued: f.required("queued")?,
                workers: f.required("workers")?,
                draining: f
                    .bool("draining")
                    .ok_or_else(|| "'draining' must be a bool".to_string())?,
                epoch: f.required("epoch")?,
                stale: f
                    .bool("stale")
                    .ok_or_else(|| "'stale' must be a bool".to_string())?,
                // Shard fields arrived with the partitioned serving tier;
                // tolerate their absence for non-shard servers.
                shard: f.u64("shard").map(|s| s as u32),
                owned_nodes: f.u64("owned_nodes").unwrap_or(0),
                region,
                // Repair-footprint fields arrived with incremental
                // maintenance; tolerate their absence for older peers.
                labels_repaired: f.u64("labels_repaired").unwrap_or(0),
                labels_total: f.u64("labels_total").unwrap_or(0),
                labels_dropped: f.bool("labels_dropped") == Some(true),
                last_repair_ms: f.u64("last_repair_ms").unwrap_or(0),
            }),
            Some("metrics") => {
                let mut m = MetricsInfo {
                    requests: f.required("requests")?,
                    ok: f.required("ok")?,
                    empty: f.required("empty")?,
                    cancelled: f.required("cancelled")?,
                    shed: f.required("shed")?,
                    errors: f.required("errors")?,
                    updates: f.required("updates")?,
                    epoch: f.required("epoch")?,
                    ..Default::default()
                };
                // Cache counters arrived with the query-locality
                // layer; tolerate their absence for older peers.
                let opt = |key: &str| f.u64(key).unwrap_or(0);
                m.cache_hits = opt("cache_hits");
                m.cache_misses = opt("cache_misses");
                m.cache_insertions = opt("cache_insertions");
                m.cache_invalidated = opt("cache_invalidated");
                m.cache_retained = opt("cache_retained");
                m.cache_evicted = opt("cache_evicted");
                m.cache_rebuilds = opt("cache_rebuilds");
                m.shard = f.u64("shard").map(|s| s as u32);
                m.owned_nodes = opt("owned_nodes");
                m.region = region;
                m.shards_pruned = opt("shards_pruned");
                m.shards_contacted = opt("shards_contacted");
                m.upstream_errors = opt("upstream_errors");
                m.labels_repaired = opt("labels_repaired");
                m.labels_total = opt("labels_total");
                m.last_repair_ms = opt("last_repair_ms");
                // The histogram itself does not round-trip; carry the
                // quantiles through as single samples so the client can
                // still display them.
                for key in ["p50_us", "p90_us", "p99_us"] {
                    if let Some(us) = f.u64(key) {
                        m.latency.record_ns(us.saturating_mul(1_000));
                    }
                }
                if let Some(s) = search {
                    let g = |key: &str| s.u64(key).unwrap_or(0);
                    m.search = SearchStats {
                        nodes_settled: g("nodes_settled"),
                        heap_pushes: g("heap_pushes"),
                        heap_pops: g("heap_pops"),
                        edges_relaxed: g("edges_relaxed"),
                        gphi_evals: g("gphi_evals"),
                        oracle_calls: g("oracle_calls"),
                        label_lookups: g("label_lookups"),
                        rtree_nodes: g("rtree_nodes"),
                        candidates_pruned: g("candidates_pruned"),
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
    use crate::json::tree::Json;
    use proptest::prelude::*;
    use proptest::Rng64;

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

        // Older servers also counted the retired `update_stream` op.
        let old_metrics = concat!(
            r#"{"status":"metrics","requests":9,"ok":8,"empty":1,"cancelled":0,"#,
            r#""shed":0,"errors":0,"updates":2,"epoch":3,"labels_repaired":12,"#,
            r#""labels_total":50000,"repair_scoped_leaves":2,"stream_segments":40,"#,
            r#""stream_updates":160,"last_repair_ms":7}"#
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
                assert!(
                    !line.contains("scoped_leaves") && !line.contains("\"stream_"),
                    "{line}"
                );
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
            &"[".repeat(100_000),
            &format!(
                r#"{{"op":"query","p":[1],"q":[2],"phi":0.5,"agg":"max","x":{}1,]{}}}"#,
                "[".repeat(100_000),
                "]".repeat(99_999)
            ),
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad}");
        }
    }

    /// An unknown key may hold a value of any depth: it is validated and
    /// skipped without recursion, and the request still parses.
    #[test]
    fn deep_unknown_values_are_skipped() {
        let depth = 100_000;
        let line = format!(
            r#"{{"x":{}{},"op":"query","p":[1],"q":[2],"phi":0.5,"agg":"max"}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let req = Request::parse(&line).unwrap();
        assert!(matches!(req.op, Op::Query(ref s) if s.p == [1] && s.q == [2]));
        let line = format!(
            r#"{{"status":"bye","x":{}0{}}}"#,
            "{\"k\":".repeat(depth),
            "}".repeat(depth)
        );
        assert_eq!(Response::parse(&line).unwrap().body, Body::Bye);
    }

    /// The number spellings the wire has always accepted, and the first
    /// occurrence of a duplicated key winning.
    #[test]
    fn number_spellings_and_first_key_wins() {
        let line = r#"{"op":"query","p":[5.0,5e0,05,-0],"q":[2],"phi":5e-1,"agg":"max","deadline_ms":7.0,"p":"x"}"#;
        match Request::parse(line).unwrap().op {
            Op::Query(s) => {
                assert_eq!(s.p, [5, 5, 5, 0]);
                assert_eq!((s.phi, s.deadline_ms), (0.5, Some(7)));
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            r#"{"op":"query","p":[1e400],"q":[2],"phi":0.5,"agg":"max"}"#,
            r#"{"op":"query","p":[9007199254740993],"q":[2],"phi":0.5,"agg":"max"}"#,
            r#"{"op":"query","p":"x","q":[2],"phi":0.5,"agg":"max","p":[1]}"#,
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

    // ---- Differential check of the codec against the reference tree ----

    fn below(rng: &mut Rng64, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn pick<T: Copy>(rng: &mut Rng64, xs: &[T]) -> T {
        xs[below(rng, xs.len())]
    }

    /// Strings with everything the escaper and the escape decoder handle.
    fn gen_string(rng: &mut Rng64) -> String {
        const PIECES: [&str; 10] = [
            "q7",
            "",
            "quote\"d",
            "back\\slash",
            "line\nfeed\r\t",
            "\u{1}\u{1f}",
            "é",
            "😀 pair",
            "a/b",
            "\u{7f}",
        ];
        (0..below(rng, 4)).map(|_| pick(rng, &PIECES)).collect()
    }

    fn gen_id(rng: &mut Rng64) -> Option<String> {
        (below(rng, 4) != 0).then(|| gen_string(rng))
    }

    fn gen_u64(rng: &mut Rng64) -> u64 {
        let random = rng.next_u64() % 1_000_000;
        pick(
            rng,
            &[
                0,
                1,
                7,
                1234,
                (1 << 53) - 1,
                1 << 53,
                (1 << 53) + 1,
                u64::MAX,
                random,
            ],
        )
    }

    fn gen_node(rng: &mut Rng64) -> NodeId {
        let random = (rng.next_u64() % 5000) as NodeId;
        pick(rng, &[0, 1, 42, 65_535, NodeId::MAX, random])
    }

    fn gen_nodes(rng: &mut Rng64) -> Vec<NodeId> {
        (0..below(rng, 6)).map(|_| gen_node(rng)).collect()
    }

    fn gen_f64(rng: &mut Rng64) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        pick(
            rng,
            &[0.0, 0.5, 1.0, 1.0 / 3.0, -1.25, 37.5, 1e-9, 1e300, unit],
        )
    }

    fn gen_updates(rng: &mut Rng64) -> Vec<WeightUpdate> {
        (0..below(rng, 4))
            .map(|_| WeightUpdate {
                u: gen_node(rng),
                v: gen_node(rng),
                w: gen_node(rng),
            })
            .collect()
    }

    fn gen_request(rng: &mut Rng64) -> Request {
        let op = match below(rng, 5) {
            0 => Op::Query(QuerySpec {
                p: gen_nodes(rng),
                q: gen_nodes(rng),
                phi: gen_f64(rng),
                agg: pick(rng, &[Aggregate::Sum, Aggregate::Max]),
                deadline_ms: (below(rng, 2) == 0).then(|| gen_u64(rng)),
            }),
            1 => Op::Update(gen_updates(rng)),
            2 => Op::Health,
            3 => Op::Metrics,
            _ => Op::Shutdown,
        };
        Request {
            id: gen_id(rng),
            op,
        }
    }

    fn gen_region(rng: &mut Rng64) -> Option<[f64; 4]> {
        (below(rng, 2) == 0).then(|| std::array::from_fn(|_| gen_f64(rng)))
    }

    fn gen_response(rng: &mut Rng64) -> Response {
        let body = match below(rng, 10) {
            0 => Body::Ok {
                p_star: gen_node(rng),
                dist: gen_u64(rng),
                subset: gen_nodes(rng),
                strategy: gen_string(rng),
                micros: gen_u64(rng),
            },
            1 => Body::Empty,
            2 => Body::Cancelled,
            3 => Body::Shed,
            4 => Body::Updated {
                epoch: gen_u64(rng),
                applied: gen_u64(rng),
            },
            5 => Body::Error {
                error: gen_string(rng),
            },
            6 => Body::Upstream {
                shard: gen_node(rng),
                error: gen_string(rng),
            },
            7 => Body::Health(HealthInfo {
                uptime_ms: gen_u64(rng),
                inflight: gen_u64(rng),
                queued: gen_u64(rng),
                workers: gen_u64(rng),
                draining: below(rng, 2) == 0,
                epoch: gen_u64(rng),
                stale: below(rng, 2) == 0,
                shard: (below(rng, 2) == 0).then(|| gen_node(rng)),
                owned_nodes: gen_u64(rng),
                region: gen_region(rng),
                labels_repaired: gen_u64(rng),
                labels_total: gen_u64(rng),
                labels_dropped: below(rng, 2) == 0,
                last_repair_ms: gen_u64(rng),
            }),
            8 => {
                let mut m = MetricsInfo {
                    requests: gen_u64(rng),
                    ok: gen_u64(rng),
                    empty: gen_u64(rng),
                    cancelled: gen_u64(rng),
                    shed: gen_u64(rng),
                    errors: gen_u64(rng),
                    updates: gen_u64(rng),
                    epoch: gen_u64(rng),
                    cache_hits: gen_u64(rng),
                    cache_retained: gen_u64(rng),
                    shard: (below(rng, 2) == 0).then(|| gen_node(rng)),
                    owned_nodes: gen_u64(rng),
                    region: gen_region(rng),
                    shards_pruned: gen_u64(rng),
                    last_repair_ms: gen_u64(rng),
                    ..Default::default()
                };
                for _ in 0..below(rng, 4) {
                    m.latency.record_ns(rng.next_u64() % 5_000_000_000);
                }
                m.search.nodes_settled = gen_u64(rng);
                m.search.gphi_evals = gen_u64(rng);
                m.search.candidates_pruned = gen_u64(rng);
                Body::Metrics(Box::new(m))
            }
            _ => Body::Bye,
        };
        Response {
            id: gen_id(rng),
            body,
        }
    }

    /// Whitespace between tokens, sometimes.
    fn ws(rng: &mut Rng64, out: &mut String) {
        if below(rng, 4) == 0 {
            out.push_str(pick(rng, &[" ", "\t", "\n", "\r", "  \r\n"]));
        }
    }

    /// `text` as a JSON string with random escape spellings: `\uXXXX` in
    /// either case (surrogate pairs above the BMP) and `\/`.
    fn respell_str(text: &str, rng: &mut Rng64, out: &mut String) {
        out.push('"');
        for c in text.chars() {
            match below(rng, 3) {
                0 => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if below(rng, 2) == 0 {
                            out.push_str(&format!("\\u{unit:04x}"));
                        } else {
                            out.push_str(&format!("\\u{unit:04X}"));
                        }
                    }
                }
                1 if c == '/' => out.push_str("\\/"),
                _ => {
                    let quoted = Json::Str(c.to_string()).to_json();
                    out.push_str(&quoted[1..quoted.len() - 1]);
                }
            }
        }
        out.push('"');
    }

    /// Serialize like the tree, but with random whitespace, escape
    /// spellings, and number spellings (`5.0`, `5e0`, `05`, `-0`, and
    /// now and then a value swapped for `1e400`, 2^53 + 1 or `0.5`).
    fn respell(v: &Json, rng: &mut Rng64, out: &mut String) {
        ws(rng, out);
        match v {
            Json::Num(_) if below(rng, 12) == 0 => {
                out.push_str(pick(rng, &["1e400", "9007199254740993", "0.5", "-1"]));
            }
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 1e15 => {
                let d = *n as u64;
                let spelled = match below(rng, 7) {
                    0 => format!("{d}.0"),
                    1 => format!("{d}e0"),
                    2 => format!("0{d}"),
                    3 => format!("{d}.00E+0"),
                    4 if d == 0 => "-0".to_string(),
                    _ => d.to_string(),
                };
                out.push_str(&spelled);
            }
            Json::Str(text) => respell_str(text, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    respell(item, rng, out);
                }
                ws(rng, out);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, item)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    respell_str(key, rng, out);
                    ws(rng, out);
                    out.push(':');
                    respell(item, rng, out);
                }
                ws(rng, out);
                out.push('}');
            }
            other => out.push_str(&other.to_json()),
        }
        ws(rng, out);
    }

    /// A value of the wrong type for any protocol field.
    fn wrong_value(rng: &mut Rng64) -> Json {
        match below(rng, 7) {
            0 => Json::Str("x".into()),
            1 => Json::Num(-1.0),
            2 => Json::Num(0.5),
            3 => Json::Null,
            4 => Json::Bool(true),
            5 => Json::Arr(vec![Json::Num(1.5), Json::Arr(vec![])]),
            _ => Json::Obj(vec![("u".into(), Json::Obj(vec![]))]),
        }
    }

    /// `line` and mutants of it: reordered keys, a duplicated key with a
    /// wrong-typed value, respelled numbers and strings, added whitespace,
    /// truncations, flipped bytes and inserted tokens.
    fn mutants(line: &str, rng: &mut Rng64) -> Vec<String> {
        let mut out = vec![line.to_string()];
        let Ok(Json::Obj(members)) = Json::parse(line) else {
            return out;
        };
        for _ in 0..4 {
            let mut members = members.clone();
            for i in (1..members.len()).rev() {
                members.swap(i, below(rng, i + 1));
            }
            if below(rng, 2) == 0 && !members.is_empty() {
                let key = members[below(rng, members.len())].0.clone();
                let at = below(rng, members.len() + 1);
                members.insert(at, (key, wrong_value(rng)));
            }
            if below(rng, 4) == 0 {
                let nested = (0..below(rng, 40)).fold(Json::Num(1.0), |v, _| Json::Arr(vec![v]));
                members.insert(below(rng, members.len() + 1), ("zz".into(), nested));
            }
            let mut spelled = String::new();
            respell(&Json::Obj(members), rng, &mut spelled);
            out.push(spelled);
        }
        for i in 0..out.len() {
            let base = out[i].clone();
            let cuts: Vec<usize> = base.char_indices().map(|(at, _)| at).collect();
            let cut = cuts[below(rng, cuts.len())];
            out.push(base[..cut].to_string());
            let mut bytes = base.clone().into_bytes();
            let at = below(rng, bytes.len());
            if bytes[at].is_ascii() {
                bytes[at] = pick(rng, b"{}[],:\"\\ 019-.eEtrufalsnx\x01");
                out.push(String::from_utf8(bytes).expect("ASCII for ASCII"));
            }
            let token = pick(
                rng,
                &[
                    "[",
                    "]",
                    "{",
                    "}",
                    ",",
                    ":",
                    "\"",
                    "\\u",
                    "null",
                    "-",
                    "1e",
                    "\\",
                    "\\ud83d",
                    "\\ud83d\\u0041",
                    "\\ud83d\\n",
                    "\\udc00",
                    "\\u+04a",
                ],
            );
            out.push(format!("{}{token}{}", &base[..cut], &base[cut..]));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The codec against the tree it replaced: the same bytes out for
        /// every generated request and reply, and for every line and
        /// mutant, the same accept/reject decision, the same error text
        /// and the same parsed value — and never a panic.
        #[test]
        fn codec_matches_the_reference_tree(seed in any::<u64>()) {
            let mut rng = Rng64::new(seed);
            let req = gen_request(&mut rng);
            let resp = gen_response(&mut rng);
            let req_line = req.to_json();
            let resp_line = resp.to_json();
            prop_assert_eq!(&req_line, &reference::request_to_json(&req));
            prop_assert_eq!(&resp_line, &reference::response_to_json(&resp));
            let mut lines = mutants(&req_line, &mut rng);
            lines.extend(mutants(&resp_line, &mut rng));
            for line in &lines {
                prop_assert_eq!(
                    Request::parse(line),
                    reference::parse_request(line),
                    "request {:?}",
                    line
                );
                prop_assert_eq!(
                    Response::parse(line),
                    reference::parse_response(line),
                    "response {:?}",
                    line
                );
            }
        }
    }
}
