//! `fannr-router`: the thin routing tier in front of shard servers.
//!
//! A deployment partitions the road network into `N` shards
//! (`fannr partition` → `FANNSM2\0` shard map), runs one `serve --shard`
//! process per shard against the shared `graph.v2`, and puts this router
//! in front. The router speaks the *same* line protocol as a single
//! server, so clients cannot tell the difference — except that a degraded
//! shard degrades only its region.
//!
//! Per query the router:
//!
//! 1. computes `b_Q` (the MBR of the query points) and splits the
//!    candidate set `P` by shard ownership;
//! 2. prices every shard with the paper's pruning bound lifted to whole
//!    regions: `bound(S) = flex_k(φ,|Q|) · scale · mdist(b_Q, region(S))`
//!    for SUM, `scale · mdist` for MAX (see `roadnet::ShardMap` and
//!    DESIGN.md §12) — a shard whose bound exceeds the best merged
//!    aggregate cannot hold the optimum;
//! 3. contacts the lowest-bound shard first over a pooled persistent
//!    connection, then fans out concurrently to every other shard whose
//!    bound does not already exceed that first answer, each with the
//!    remaining request deadline;
//! 4. merges per-shard answers by minimum `(dist, p_star)` — the same tie
//!    contract the in-process strategies use — and propagates
//!    `shed`/`cancelled`/`upstream` only when the failing shard's bound
//!    means it could still have improved the merged answer.
//!
//! Weight updates are routed to owning shards only (the owner of an edge
//! is the owner of its smaller endpoint); acks merge as `max(epoch)` /
//! `sum(applied)`. Connection failures surface as a typed `upstream`
//! error naming the shard, after one reconnect retry.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fann_core::{flex_k, FannQuery};
use fannr_serve::{
    Body, Client, HealthInfo, Line, LineReader, MetricsInfo, Op, QuerySpec, Request, Response,
    MAX_LINE_BYTES,
};
use roadnet::{Dist, Graph, NodeId, ShardMap};

/// How the router behaves.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (port 0 picks a free port).
    pub addr: String,
    /// One upstream address per shard, indexed by shard id. Must match
    /// the shard map's `num_shards`.
    pub shard_addrs: Vec<String>,
    /// The shard map every upstream was launched with.
    pub map: Arc<ShardMap>,
    /// The shared graph (for query-point coordinates and validation).
    pub graph: Graph,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Ceiling on how long the router waits for one upstream response
    /// beyond the request deadline (protects against a hung shard).
    pub upstream_timeout: Duration,
}

impl RouterConfig {
    /// A config with the standard knobs (10s upstream timeout); the
    /// caller provides the topology.
    pub fn new(
        addr: impl Into<String>,
        shard_addrs: Vec<String>,
        map: Arc<ShardMap>,
        graph: Graph,
    ) -> RouterConfig {
        RouterConfig {
            addr: addr.into(),
            shard_addrs,
            map,
            graph,
            default_deadline: None,
            upstream_timeout: Duration::from_secs(10),
        }
    }
}

/// Final report returned by [`Router::run`].
#[derive(Debug, Clone)]
pub struct RouterSummary {
    pub uptime: Duration,
    pub connections: u64,
    pub metrics: MetricsInfo,
}

/// Clonable remote control mirroring the serve layer's handle.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A pool of persistent connections to one shard. Checked-in connections
/// are reused; a transport failure burns the connection and the caller
/// retries once on a fresh one.
struct Pool {
    shard: u32,
    addr: String,
    idle: Mutex<Vec<Client>>,
}

/// Errors that mean "the connection is dead, a fresh one may work" — the
/// only errors worth the one reconnect retry. A timeout is not one of
/// them: retrying a slow shard doubles the load exactly when it hurts.
fn is_connection_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::AddrNotAvailable
    )
}

impl Pool {
    fn new(shard: u32, addr: String) -> Pool {
        Pool {
            shard,
            addr,
            idle: Mutex::new(Vec::new()),
        }
    }

    fn checkout(&self) -> io::Result<Client> {
        if let Some(c) = self.idle.lock().unwrap().pop() {
            return Ok(c);
        }
        Client::connect(&self.addr)
    }

    fn checkin(&self, c: Client) {
        self.idle.lock().unwrap().push(c);
    }

    /// One request/response over a pooled connection, with one reconnect
    /// retry on connection failure. On success the connection goes back
    /// to the pool; on any failure it is dropped.
    fn call(&self, req: &Request, timeout: Duration) -> Result<Response, io::Error> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..2 {
            let conn = if attempt == 0 {
                self.checkout()
            } else {
                // Retry path: never reuse pooled state after a failure.
                Client::connect(&self.addr)
            };
            let mut c = match conn {
                Ok(c) => c,
                Err(e) => {
                    let retry = attempt == 0 && is_connection_error(&e);
                    last = Some(e);
                    if retry {
                        continue;
                    }
                    break;
                }
            };
            let _ = c.set_read_timeout(Some(timeout));
            match c.call(req) {
                Ok(resp) => {
                    self.checkin(c);
                    return Ok(resp);
                }
                Err(e) => {
                    let retry = attempt == 0 && is_connection_error(&e);
                    last = Some(e);
                    if !retry {
                        break;
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("upstream call failed")))
    }
}

/// Counters shared across connection threads.
#[derive(Default)]
struct Shared {
    metrics: Mutex<MetricsInfo>,
    shards_pruned: AtomicU64,
    shards_contacted: AtomicU64,
    upstream_errors: AtomicU64,
    inflight: AtomicU64,
    connections: AtomicU64,
}

/// A bound router, not yet serving. Call [`Router::run`] to serve.
pub struct Router {
    listener: TcpListener,
    config: RouterConfig,
    stop: Arc<AtomicBool>,
}

/// What one shard contributed to a query.
enum ShardOutcome {
    Answer {
        p_star: NodeId,
        dist: Dist,
        subset: Vec<NodeId>,
        strategy: String,
    },
    Empty,
    Cancelled,
    Shed,
    Error(String),
    Transport(String),
}

impl Router {
    /// Bind the listening socket. Verifies the shard map and the address
    /// list agree on the shard count.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.shard_addrs.len() != config.map.num_shards() as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard map has {} shards but {} addresses were given",
                    config.map.num_shards(),
                    config.shard_addrs.len()
                ),
            ));
        }
        if config.map.num_nodes() as usize != config.graph.num_nodes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard map and graph disagree on the node count",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Router {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn num_shards(&self) -> u32 {
        self.config.map.num_shards()
    }

    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    /// Serve until shutdown; every connection thread is joined before this
    /// returns.
    pub fn run(self) -> io::Result<RouterSummary> {
        let started = Instant::now();
        let shared = Shared::default();
        let pools: Vec<Pool> = self
            .config
            .shard_addrs
            .iter()
            .enumerate()
            .map(|(s, a)| Pool::new(s as u32, a.clone()))
            .collect();
        let stop = &self.stop;
        let config = &self.config;
        self.listener.set_nonblocking(true)?;

        std::thread::scope(|scope| -> io::Result<()> {
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let shared = &shared;
                        let pools = &pools;
                        let stop = Arc::clone(stop);
                        scope.spawn(move || {
                            connection_loop(stream, config, pools, shared, &stop, started);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            stop.store(true, Ordering::SeqCst);
            Ok(())
        })?;

        let mut metrics = shared.metrics.lock().unwrap().clone();
        metrics.shards_pruned = shared.shards_pruned.load(Ordering::Relaxed);
        metrics.shards_contacted = shared.shards_contacted.load(Ordering::Relaxed);
        metrics.upstream_errors = shared.upstream_errors.load(Ordering::Relaxed);
        Ok(RouterSummary {
            uptime: started.elapsed(),
            connections: shared.connections.load(Ordering::Relaxed),
            metrics,
        })
    }
}

/// Per-connection loop: requests are handled inline (routing work is
/// network-bound fan-out, not CPU), one response line per request line.
fn connection_loop(
    stream: TcpStream,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
    stop: &AtomicBool,
    started: Instant,
) {
    stream.set_nodelay(true).ok();
    if stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut lines = LineReader::new(stream, MAX_LINE_BYTES);
    loop {
        let resp = match lines.next_line() {
            Ok(Line::Closed) => break,
            Ok(Line::Request(line)) => match line.trim() {
                "" => continue,
                trimmed => handle_line(trimmed, config, pools, shared, stop, started),
            },
            Ok(Line::Rejected(error)) => rejected(shared, error),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let mut out = resp.to_json();
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        let _ = writer.flush();
    }
}

/// The `error` reply to a line that is not a request.
fn rejected(shared: &Shared, error: String) -> Response {
    shared.metrics.lock().unwrap().errors += 1;
    Response {
        id: None,
        body: Body::Error { error },
    }
}

fn handle_line(
    trimmed: &str,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
    stop: &AtomicBool,
    started: Instant,
) -> Response {
    let req = match Request::parse(trimmed) {
        Ok(r) => r,
        Err(error) => return rejected(shared, error),
    };
    match req.op {
        Op::Query(spec) => {
            shared.inflight.fetch_add(1, Ordering::Relaxed);
            let resp = handle_query(req.id, spec, config, pools, shared);
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            resp
        }
        Op::Update(updates) => handle_update(req.id, updates, config, pools, shared),
        Op::Health => handle_health(req.id, config, pools, shared, stop, started),
        Op::Metrics => handle_metrics(req.id, config, pools, shared),
        Op::Shutdown => {
            // One wire shutdown drains the whole deployment: every shard
            // first, then the router itself.
            for pool in pools {
                let _ = pool.call(
                    &Request {
                        id: None,
                        op: Op::Shutdown,
                    },
                    config.upstream_timeout,
                );
            }
            stop.store(true, Ordering::SeqCst);
            Response {
                id: req.id,
                body: Body::Bye,
            }
        }
    }
}

/// The per-shard query plan: candidate slice + pruning bound.
struct ShardPlan {
    shard: u32,
    p: Vec<NodeId>,
    bound: Dist,
}

fn handle_query(
    id: Option<String>,
    spec: QuerySpec,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
) -> Response {
    let admitted = Instant::now();
    shared.metrics.lock().unwrap().requests += 1;
    // Validate exactly like a single-process engine would, so invalid
    // queries get the same typed error without touching any shard.
    if let Err(e) = FannQuery::checked(&spec.p, &spec.q, spec.phi, spec.agg, &config.graph) {
        shared.metrics.lock().unwrap().errors += 1;
        return Response {
            id,
            body: Body::Error {
                error: e.to_string(),
            },
        };
    }
    let deadline = spec
        .deadline_ms
        .map(Duration::from_millis)
        .or(config.default_deadline);
    let expired = |now: Instant| deadline.is_some_and(|d| now.duration_since(admitted) >= d);
    if deadline.is_some_and(|d| d.is_zero()) {
        shared.metrics.lock().unwrap().cancelled += 1;
        return Response {
            id,
            body: Body::Cancelled,
        };
    }

    // b_Q and the per-shard φM·mdist bound. |Q| for flex_k is the deduped
    // count — the same canonicalization the engine applies.
    let map = &config.map;
    let mut rect = [
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    ];
    for &q in &spec.q {
        let c = config.graph.coord(q);
        rect[0] = rect[0].min(c.x);
        rect[1] = rect[1].min(c.y);
        rect[2] = rect[2].max(c.x);
        rect[3] = rect[3].max(c.y);
    }
    let mut q_dedup = spec.q.clone();
    q_dedup.sort_unstable();
    q_dedup.dedup();
    let k = flex_k(spec.phi, q_dedup.len()) as u64;

    let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); map.num_shards() as usize];
    for &p in &spec.p {
        parts[map.owner(p) as usize].push(p);
    }
    let mut plans: Vec<ShardPlan> = parts
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(s, p)| {
            let per_term = map.mindist_lower_bound(s as u32, rect);
            let bound = match spec.agg {
                fann_core::Aggregate::Max => per_term,
                fann_core::Aggregate::Sum => per_term.saturating_mul(k),
            };
            ShardPlan {
                shard: s as u32,
                p,
                bound,
            }
        })
        .collect();
    plans.sort_by_key(|pl| (pl.bound, pl.shard));

    let call_shard = |plan: &ShardPlan| -> ShardOutcome {
        let now = Instant::now();
        if expired(now) {
            return ShardOutcome::Cancelled;
        }
        let remaining = deadline.map(|d| d.saturating_sub(now.duration_since(admitted)));
        let timeout = remaining
            .map(|r| r + config.upstream_timeout)
            .unwrap_or(config.upstream_timeout);
        let req = Request {
            id: None,
            op: Op::Query(QuerySpec {
                p: plan.p.clone(),
                q: spec.q.clone(),
                phi: spec.phi,
                agg: spec.agg,
                deadline_ms: remaining.map(|r| r.as_millis() as u64),
            }),
        };
        shared.shards_contacted.fetch_add(1, Ordering::Relaxed);
        match pools[plan.shard as usize].call(&req, timeout) {
            Ok(resp) => match resp.body {
                Body::Ok {
                    p_star,
                    dist,
                    subset,
                    strategy,
                    ..
                } => ShardOutcome::Answer {
                    p_star,
                    dist,
                    subset,
                    strategy,
                },
                Body::Empty => ShardOutcome::Empty,
                Body::Cancelled => ShardOutcome::Cancelled,
                Body::Shed => ShardOutcome::Shed,
                Body::Error { error } => ShardOutcome::Error(error),
                Body::Upstream { error, .. } => ShardOutcome::Transport(error),
                other => ShardOutcome::Transport(format!(
                    "unexpected '{}' response to a query",
                    Response {
                        id: None,
                        body: other
                    }
                    .status()
                )),
            },
            Err(e) => ShardOutcome::Transport(e.to_string()),
        }
    };

    // Phase 1: the lowest-bound shard (b_Q usually overlaps its region,
    // bound 0) answers first and seeds the merge front.
    let mut outcomes: Vec<(u32, Dist, ShardOutcome)> = Vec::with_capacity(plans.len());
    let mut best: Option<(Dist, NodeId)> = None;
    if let Some(first) = plans.first() {
        let out = call_shard(first);
        if let ShardOutcome::Answer { p_star, dist, .. } = &out {
            best = Some((*dist, *p_star));
        }
        outcomes.push((first.shard, first.bound, out));
    }

    // Phase 2: prune what the first answer already dominates, fan out to
    // the rest concurrently, each with the remaining deadline.
    let rest = if plans.is_empty() {
        &[][..]
    } else {
        &plans[1..]
    };
    let mut live: Vec<&ShardPlan> = Vec::with_capacity(rest.len());
    for plan in rest {
        // A shard is prunable when its bound says it cannot *beat* the
        // best answer: ties keep the smaller (dist, p_star), and the bound
        // is a floor on dist alone, so only a strictly greater bound is
        // safe to skip.
        if best.is_some_and(|(d, _)| plan.bound > d) {
            shared.shards_pruned.fetch_add(1, Ordering::Relaxed);
        } else {
            live.push(plan);
        }
    }
    // The first live shard runs on this thread and the rest on scoped
    // threads, so a wave of one spawns nothing. Results keep plan order.
    let wave: Vec<(u32, Dist, ShardOutcome)> = std::thread::scope(|scope| {
        let call_shard = &call_shard;
        let handles: Vec<_> = live
            .iter()
            .skip(1)
            .map(|plan| scope.spawn(move || (plan.shard, plan.bound, call_shard(plan))))
            .collect();
        let here = live
            .first()
            .map(|plan| (plan.shard, plan.bound, call_shard(plan)));
        here.into_iter()
            .chain(handles.into_iter().map(|h| h.join().unwrap()))
            .collect()
    });
    outcomes.extend(wave);

    // Merge by minimum (dist, p_star) — the strategies' own tie contract.
    let mut winner: Option<(Dist, NodeId, Vec<NodeId>, String)> = None;
    for (_, _, out) in &outcomes {
        if let ShardOutcome::Answer {
            p_star,
            dist,
            subset,
            strategy,
        } = out
        {
            let better = match &winner {
                None => true,
                Some((bd, bp, _, _)) => (*dist, *p_star) < (*bd, *bp),
            };
            if better {
                winner = Some((*dist, *p_star, subset.clone(), strategy.clone()));
            }
        }
    }
    let best_dist = winner.as_ref().map(|(d, _, _, _)| *d);

    // Degradation: a failed shard only matters when its bound left it able
    // to improve (or tie) the merged answer.
    let material = |bound: Dist| best_dist.is_none_or(|d| bound <= d);
    let mut failure: Option<Body> = None;
    let rank = |b: &Body| match b {
        Body::Upstream { .. } => 0u8,
        Body::Cancelled => 1,
        Body::Shed => 2,
        Body::Error { .. } => 3,
        _ => 4,
    };
    for (shard, bound, out) in &outcomes {
        let body = match out {
            ShardOutcome::Transport(error) => Body::Upstream {
                shard: *shard,
                error: error.clone(),
            },
            ShardOutcome::Cancelled => Body::Cancelled,
            ShardOutcome::Shed => Body::Shed,
            ShardOutcome::Error(error) => Body::Error {
                error: error.clone(),
            },
            ShardOutcome::Answer { .. } | ShardOutcome::Empty => continue,
        };
        if material(*bound) {
            match &failure {
                Some(f) if rank(f) <= rank(&body) => {}
                _ => failure = Some(body),
            }
        }
    }

    let elapsed = admitted.elapsed();
    let mut m = shared.metrics.lock().unwrap();
    if let Some(body) = failure {
        match &body {
            Body::Upstream { .. } => {
                shared.upstream_errors.fetch_add(1, Ordering::Relaxed);
                m.errors += 1;
            }
            Body::Cancelled => m.cancelled += 1,
            Body::Shed => m.shed += 1,
            _ => m.errors += 1,
        }
        return Response { id, body };
    }
    if expired(Instant::now()) {
        m.cancelled += 1;
        return Response {
            id,
            body: Body::Cancelled,
        };
    }
    m.latency.record(elapsed);
    match winner {
        Some((dist, p_star, subset, strategy)) => {
            m.ok += 1;
            Response {
                id,
                body: Body::Ok {
                    p_star,
                    dist,
                    subset,
                    strategy,
                    micros: elapsed.as_micros() as u64,
                },
            }
        }
        None => {
            m.empty += 1;
            Response {
                id,
                body: Body::Empty,
            }
        }
    }
}

fn handle_update(
    id: Option<String>,
    updates: Vec<roadnet::WeightUpdate>,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
) -> Response {
    let map = &config.map;
    let n = map.num_nodes();
    let mut batches: Vec<Vec<roadnet::WeightUpdate>> = vec![Vec::new(); map.num_shards() as usize];
    for e in updates {
        // Edges naming unknown nodes go to shard 0, whose engine rejects
        // them with the same typed error a single server would produce.
        let s = if e.u < n && e.v < n {
            map.edge_owner(e.u, e.v)
        } else {
            0
        };
        batches[s as usize].push(e);
    }
    let mut epoch = 0u64;
    let mut applied = 0u64;
    for (s, batch) in batches.into_iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let req = Request {
            id: None,
            op: Op::Update(batch),
        };
        match pools[s].call(&req, config.upstream_timeout) {
            Ok(resp) => match resp.body {
                Body::Updated {
                    epoch: e,
                    applied: a,
                } => {
                    epoch = epoch.max(e);
                    applied += a;
                }
                Body::Error { error } => {
                    shared.metrics.lock().unwrap().errors += 1;
                    return Response {
                        id,
                        body: Body::Error { error },
                    };
                }
                other => {
                    return upstream_failure(
                        id,
                        s as u32,
                        format!(
                            "unexpected '{}' response to an update",
                            Response {
                                id: None,
                                body: other
                            }
                            .status()
                        ),
                        shared,
                    );
                }
            },
            Err(e) => return upstream_failure(id, s as u32, e.to_string(), shared),
        }
    }
    shared.metrics.lock().unwrap().updates += 1;
    Response {
        id,
        body: Body::Updated { epoch, applied },
    }
}

fn upstream_failure(id: Option<String>, shard: u32, error: String, shared: &Shared) -> Response {
    shared.upstream_errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.lock().unwrap().errors += 1;
    Response {
        id,
        body: Body::Upstream { shard, error },
    }
}

/// Router health: its own gauges plus the deployment view — the maximum
/// shard epoch and whether any shard is label-stale. A dead shard fails
/// health with a typed `upstream` error (health is how you notice).
fn handle_health(
    id: Option<String>,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
    stop: &AtomicBool,
    started: Instant,
) -> Response {
    let mut view = HealthInfo::default();
    for pool in pools {
        let req = Request {
            id: None,
            op: Op::Health,
        };
        match pool.call(&req, config.upstream_timeout) {
            Ok(Response {
                body: Body::Health(h),
                ..
            }) => view.merge_shard(&h),
            Ok(_) => {
                return upstream_failure(
                    id,
                    pool.shard,
                    "unexpected response to a health probe".to_string(),
                    shared,
                )
            }
            Err(e) => return upstream_failure(id, pool.shard, e.to_string(), shared),
        }
    }
    Response {
        id,
        body: Body::Health(HealthInfo {
            uptime_ms: started.elapsed().as_millis() as u64,
            inflight: shared.inflight.load(Ordering::Relaxed),
            queued: 0,
            workers: pools.len() as u64,
            draining: stop.load(Ordering::SeqCst),
            ..view
        }),
    }
}

/// Router metrics: client-visible outcome counters and latency are the
/// router's own; search/cache work aggregates across shards (that is
/// where the compute happened); `shards_pruned`/`shards_contacted` count
/// routing decisions.
fn handle_metrics(
    id: Option<String>,
    config: &RouterConfig,
    pools: &[Pool],
    shared: &Shared,
) -> Response {
    let mut m = shared.metrics.lock().unwrap().clone();
    m.shards_pruned = shared.shards_pruned.load(Ordering::Relaxed);
    m.shards_contacted = shared.shards_contacted.load(Ordering::Relaxed);
    m.upstream_errors = shared.upstream_errors.load(Ordering::Relaxed);
    for pool in pools {
        let req = Request {
            id: None,
            op: Op::Metrics,
        };
        match pool.call(&req, config.upstream_timeout) {
            Ok(Response {
                body: Body::Metrics(sm),
                ..
            }) => {
                m.epoch = m.epoch.max(sm.epoch);
                m.cache_hits += sm.cache_hits;
                m.cache_misses += sm.cache_misses;
                m.cache_insertions += sm.cache_insertions;
                m.cache_invalidated += sm.cache_invalidated;
                m.cache_retained += sm.cache_retained;
                m.cache_evicted += sm.cache_evicted;
                m.cache_rebuilds += sm.cache_rebuilds;
                // Repair footprint sums across shards (each repairs its own
                // indexes); wall time takes the slowest shard.
                m.labels_repaired += sm.labels_repaired;
                m.labels_total += sm.labels_total;
                m.last_repair_ms = m.last_repair_ms.max(sm.last_repair_ms);
                m.search.add(&sm.search);
            }
            Ok(_) => {
                return upstream_failure(
                    id,
                    pool.shard,
                    "unexpected response to a metrics probe".to_string(),
                    shared,
                )
            }
            Err(e) => return upstream_failure(id, pool.shard, e.to_string(), shared),
        }
    }
    Response {
        id,
        body: Body::Metrics(Box::new(m)),
    }
}
