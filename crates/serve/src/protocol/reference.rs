//! The protocol as the JSON value tree spelled it before the streaming
//! codec: parse to a [`Json`] tree, then pick fields out of it; build a
//! tree, then serialize it. Test-only, the oracle the codec is checked
//! against byte for byte and value for value.

use super::{Body, HealthInfo, MetricsInfo, Op, QuerySpec, Request, Response};
use crate::json::tree::Json;
use fann_core::metrics::SearchStats;
use fann_core::Aggregate;
use roadnet::{NodeId, Weight, WeightUpdate};

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

pub fn parse_request(line: &str) -> Result<Request, String> {
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
            let deadline_ms =
                match v.get("deadline_ms") {
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
        Some("health") => Op::Health,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(format!("unknown op '{other}'")),
        None => return Err("'op' must be a string".to_string()),
    };
    Ok(Request { id, op })
}

pub fn request_to_json(req: &Request) -> String {
    let mut members: Vec<(String, Json)> = Vec::new();
    let op = match &req.op {
        Op::Query(_) => "query",
        Op::Update(_) => "update",
        Op::Health => "health",
        Op::Metrics => "metrics",
        Op::Shutdown => "shutdown",
    };
    members.push(("op".into(), Json::from(op)));
    if let Op::Query(spec) = &req.op {
        members.push(("p".into(), ids_json(&spec.p)));
        members.push(("q".into(), ids_json(&spec.q)));
        members.push(("phi".into(), Json::Num(spec.phi)));
        members.push(("agg".into(), Json::from(spec.agg.to_string().as_str())));
        if let Some(ms) = spec.deadline_ms {
            members.push(("deadline_ms".into(), Json::from(ms)));
        }
    }
    if let Op::Update(updates) = &req.op {
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
    if let Some(id) = &req.id {
        members.push(("id".into(), Json::from(id.as_str())));
    }
    Json::Obj(members).to_json()
}

pub fn response_to_json(resp: &Response) -> String {
    let mut members: Vec<(String, Json)> = vec![("status".into(), Json::from(resp.status()))];
    if let Some(id) = &resp.id {
        members.push(("id".into(), Json::from(id.as_str())));
    }
    match &resp.body {
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

pub fn parse_response(line: &str) -> Result<Response, String> {
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
            // Cache counters arrived with the query-locality
            // layer; tolerate their absence for older peers.
            let opt = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
            m.cache_hits = opt("cache_hits");
            m.cache_misses = opt("cache_misses");
            m.cache_insertions = opt("cache_insertions");
            m.cache_invalidated = opt("cache_invalidated");
            m.cache_retained = opt("cache_retained");
            m.cache_evicted = opt("cache_evicted");
            m.cache_rebuilds = opt("cache_rebuilds");
            m.shard = v.get("shard").and_then(Json::as_u64).map(|s| s as u32);
            m.owned_nodes = opt("owned_nodes");
            m.region = region_from(&v);
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
