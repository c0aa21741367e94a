//! The serving loop: bounded admission, deadline enforcement, graceful drain.
//!
//! Thread layout (all scoped, all joined before [`Server::run`] returns):
//!
//! ```text
//! acceptor (run's own thread, nonblocking accept + shutdown poll)
//!   └─ reader thread per connection
//!        ├─ health / metrics / shutdown answered inline (never queued,
//!        │  so observability survives overload)
//!        ├─ query the answer cache holds: answered inline too (a probe,
//!        │  never queued, never shed)
//!        └─ query  ──try_send──▶ bounded queue ──▶ worker threads, each:
//!                     │                           recv one query, arm its
//!                     └─ Full ⇒ "shed" response   CancelToken from the
//!                        (admission control: the  deadline, answer it with
//!                        queue never grows        its one QuerySession,
//!                        unbounded)               write the reply
//! ```
//!
//! A request's deadline is measured from *admission* (queue wait counts):
//! an overloaded server cancels stale work instead of burning CPU on
//! answers nobody is waiting for, and a search that outlives its deadline
//! stops within one settled node. Every miss takes that one path; a cache
//! hit is written back by the reader at admission, so it never waits
//! behind a busy worker. Shutdown —
//! wire `shutdown` op, SIGINT / SIGTERM, or [`ShutdownHandle`] — stops
//! the acceptor, lets readers close, drains every admitted query, then
//! returns the final stats.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use fann_core::engine::{Engine, QuerySession, Strategy};
use fann_core::metrics::SearchStats;
use fann_core::{FannAnswer, QueryError};
use roadnet::{CancelToken, ShardMap};

use crate::line::{Line, LineReader, MAX_LINE_BYTES};
use crate::protocol::{Body, HealthInfo, MetricsInfo, Op, QuerySpec, Request, Response};

/// Shard-mode role: this server owns the nodes `v` with
/// `map.owner(v) == id`. Queries keep only owned candidates, update
/// batches keep only owned edges, and `health`/`metrics` report the
/// shard id, its region MBR, and the owned-node count.
#[derive(Debug, Clone)]
pub struct ShardRole {
    pub id: u32,
    pub map: Arc<ShardMap>,
}

/// How the server behaves; see field docs for the knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:7878`. Port 0 picks a free port
    /// (read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Query worker threads. Each holds its own [`CancelToken`].
    pub workers: usize,
    /// Bounded queue depth shared by all workers. A query arriving while
    /// the queue is full is shed immediately with `status:"shed"`.
    pub queue_depth: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    /// `None` means such requests run to completion.
    pub default_deadline: Option<Duration>,
    /// Install SIGINT/SIGTERM handlers that trigger graceful drain.
    /// Leave off in tests (handlers are process-global).
    pub handle_signals: bool,
    /// Answer-cache capacity (entries). `0` disables the cache; otherwise
    /// the engine gets an epoch-keyed answer cache attached
    /// (`fann_core::locality`), the reader answers a hit at admission and
    /// only a miss is queued.
    pub cache_capacity: usize,
    /// Serve as one shard of a partitioned deployment: restrict candidate
    /// sets and update batches to the owned node set and advertise the
    /// shard in `health`/`metrics`. `None` serves the whole graph.
    pub shard: Option<ShardRole>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_depth: 64,
            default_deadline: None,
            handle_signals: false,
            cache_capacity: 0,
            shard: None,
        }
    }
}

/// The `(shard, owned_nodes, region)` triple advertised by `health` and
/// `metrics` (all absent outside shard mode).
fn shard_fields(config: &ServeConfig) -> (Option<u32>, u64, Option<[f64; 4]>) {
    match &config.shard {
        Some(role) => (
            Some(role.id),
            role.map.owned_nodes(role.id),
            Some(role.map.region(role.id)),
        ),
        None => (None, 0, None),
    }
}

/// Final report returned by [`Server::run`] after the drain completes.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    pub uptime: Duration,
    pub connections: u64,
    pub metrics: MetricsInfo,
}

/// Clonable remote control: trips the same flag as SIGTERM / the wire
/// `shutdown` op.
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

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // async-signal-safe: a single atomic store.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn signalled() -> bool {
        false
    }
}

/// One admitted query travelling from a reader to a worker.
struct Job {
    id: Option<String>,
    spec: QuerySpec,
    admitted: Instant,
    deadline: Option<Duration>,
    writer: Arc<Mutex<TcpStream>>,
}

/// Counters shared by readers and workers. The histogram and search
/// stats sit behind one mutex (touched once per finished query); the
/// queue/inflight gauges are lock-free so `health` stays cheap.
#[derive(Default)]
struct Shared {
    metrics: Mutex<MetricsInfo>,
    queued: AtomicU64,
    inflight: AtomicU64,
    connections: AtomicU64,
}

/// A bound TCP server, not yet serving. Call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listening socket (so the port is known before serving).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    /// Serve until shutdown, then drain and return the final stats.
    /// Blocks the calling thread; every spawned thread is joined before
    /// this returns.
    pub fn run(self, engine: &Engine) -> io::Result<ServeSummary> {
        if self.config.handle_signals {
            sig::install();
        }
        if self.config.cache_capacity > 0 {
            // Clones share the engine's state, so attaching through a
            // clone installs the cache for the caller's handle too.
            let _ = engine.clone().with_answer_cache(self.config.cache_capacity);
        }
        let started = Instant::now();
        let shared = Shared::default();
        let stop = &self.stop;
        let config = &self.config;
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        // std's Receiver is single-consumer; workers share it via a mutex
        // (held only for the blocking recv handoff, not while querying).
        let rx = Mutex::new(rx);

        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..config.workers.max(1) {
                scope.spawn(|| worker_loop(engine, &rx, &shared));
            }

            loop {
                if stop.load(Ordering::SeqCst) || sig::signalled() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let tx = tx.clone();
                        let shared = &shared;
                        let stop = Arc::clone(stop);
                        scope.spawn(move || {
                            connection_loop(stream, tx, engine, shared, &stop, config, started);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }

            // Drain: stop is visible to every reader (they exit within one
            // read-timeout tick and drop their queue senders); dropping ours
            // closes the queue once the last reader is gone, and workers
            // finish whatever was admitted before exiting.
            stop.store(true, Ordering::SeqCst);
            drop(tx);
            Ok(())
        })?;

        let mut metrics = shared.metrics.lock().unwrap().clone();
        metrics.epoch = engine.epoch();
        if let Some(cs) = engine.cache_stats() {
            metrics.cache_hits = cs.hits;
            metrics.cache_misses = cs.misses;
            metrics.cache_insertions = cs.insertions;
            metrics.cache_invalidated = cs.invalidated;
            metrics.cache_retained = cs.retained;
            metrics.cache_evicted = cs.evicted;
            metrics.cache_rebuilds = cs.rebuilds;
        }
        Ok(ServeSummary {
            uptime: started.elapsed(),
            connections: shared.connections.load(Ordering::Relaxed),
            metrics,
        })
    }
}

/// Per-connection reader: parses request lines, answers control ops
/// inline, admits queries onto the bounded queue (or sheds).
fn connection_loop(
    stream: TcpStream,
    tx: SyncSender<Job>,
    engine: &Engine,
    shared: &Shared,
    stop: &AtomicBool,
    config: &ServeConfig,
    started: Instant,
) {
    // Pipelined clients see responses as many small writes; without
    // TCP_NODELAY, Nagle + delayed ACK turns each flush into a ~40ms
    // stall that dwarfs any compute saved by the answer cache.
    stream.set_nodelay(true).ok();
    // The read timeout doubles as the shutdown poll interval.
    if stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut lines = LineReader::new(stream, MAX_LINE_BYTES);
    loop {
        match lines.next_line() {
            Ok(Line::Closed) => break,
            Ok(Line::Request(line)) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_line(trimmed, &tx, &writer, engine, shared, stop, config, started);
                }
            }
            Ok(Line::Rejected(error)) => reply_error(&writer, shared, error),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // A partial line stays buffered; just poll shutdown.
                if stop.load(Ordering::SeqCst) || sig::signalled() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Drop the edges a shard does not own (owner of the smaller endpoint);
/// foreign edges are the owning shard's job. Edges naming out-of-range
/// nodes stay in so validation rejects the batch exactly like a
/// non-shard server would.
fn owned_updates(
    updates: Vec<roadnet::WeightUpdate>,
    config: &ServeConfig,
) -> Vec<roadnet::WeightUpdate> {
    match &config.shard {
        Some(role) => {
            let n = role.map.num_nodes();
            updates
                .into_iter()
                .filter(|e| e.u >= n || e.v >= n || role.map.edge_owner(e.u, e.v) == role.id)
                .collect()
        }
        None => updates,
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_line(
    trimmed: &str,
    tx: &SyncSender<Job>,
    writer: &Arc<Mutex<TcpStream>>,
    engine: &Engine,
    shared: &Shared,
    stop: &AtomicBool,
    config: &ServeConfig,
    started: Instant,
) {
    let req = match Request::parse(trimmed) {
        Ok(r) => r,
        Err(error) => return reply_error(writer, shared, error),
    };
    match req.op {
        Op::Health => {
            let snap = engine.snapshot();
            let (shard, owned_nodes, region) = shard_fields(config);
            let report = engine.last_repair_report().unwrap_or_default();
            let body = Body::Health(HealthInfo {
                uptime_ms: started.elapsed().as_millis() as u64,
                inflight: shared.inflight.load(Ordering::Relaxed),
                queued: shared.queued.load(Ordering::Relaxed),
                workers: config.workers.max(1) as u64,
                draining: stop.load(Ordering::SeqCst) || sig::signalled(),
                epoch: snap.epoch(),
                stale: snap.is_stale(),
                shard,
                owned_nodes,
                region,
                labels_repaired: report.labels_repaired,
                labels_total: report.labels_total,
                labels_dropped: report.labels_dropped.is_some(),
                last_repair_ms: report.label_wall_ms,
            });
            write_response(writer, &Response { id: req.id, body });
        }
        Op::Metrics => {
            let mut m = shared.metrics.lock().unwrap().clone();
            m.epoch = engine.epoch();
            (m.shard, m.owned_nodes, m.region) = shard_fields(config);
            // Cache counters live on the engine (shared by all workers and
            // the updater), not in the per-request metrics.
            if let Some(cs) = engine.cache_stats() {
                m.cache_hits = cs.hits;
                m.cache_misses = cs.misses;
                m.cache_insertions = cs.insertions;
                m.cache_invalidated = cs.invalidated;
                m.cache_retained = cs.retained;
                m.cache_evicted = cs.evicted;
                m.cache_rebuilds = cs.rebuilds;
            }
            if let Some(report) = engine.last_repair_report() {
                m.labels_repaired = report.labels_repaired;
                m.labels_total = report.labels_total;
                m.last_repair_ms = report.label_wall_ms;
            }
            write_response(
                writer,
                &Response {
                    id: req.id,
                    body: Body::Metrics(Box::new(m)),
                },
            );
        }
        Op::Update(updates) => {
            let updates = owned_updates(updates, config);
            if updates.is_empty() {
                // Nothing owned here: acknowledge without bumping the epoch.
                write_response(
                    writer,
                    &Response {
                        id: req.id,
                        body: Body::Updated {
                            epoch: engine.epoch(),
                            applied: 0,
                        },
                    },
                );
                return;
            }
            // Applied inline on the reader thread: the swap is lock-free
            // for readers, so in-flight queries are never blocked — they
            // keep their pinned snapshot; later queries see the new epoch.
            let applied = updates.len() as u64;
            match engine.apply_updates(&updates) {
                Ok(epoch) => {
                    // Labels (if any) are now stale: queries stay exact via
                    // the guarded fallback while a background rebuild runs.
                    engine.repair_in_background();
                    shared.metrics.lock().unwrap().updates += 1;
                    write_response(
                        writer,
                        &Response {
                            id: req.id,
                            body: Body::Updated { epoch, applied },
                        },
                    );
                }
                Err(e) => {
                    shared.metrics.lock().unwrap().errors += 1;
                    write_response(
                        writer,
                        &Response {
                            id: req.id,
                            body: Body::Error {
                                error: e.to_string(),
                            },
                        },
                    );
                }
            }
        }
        Op::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            write_response(
                writer,
                &Response {
                    id: req.id,
                    body: Body::Bye,
                },
            );
        }
        Op::Query(mut spec) => {
            if let Some(role) = &config.shard {
                // Serve the owned slice of the candidate set. Out-of-range
                // ids pass through so the engine rejects them like a
                // non-shard server. An empty owned slice is a valid "no
                // candidate reaches k of Q here" answer.
                let n = role.map.num_nodes();
                if spec.p.iter().all(|&v| v < n) {
                    spec.p.retain(|&v| role.map.owner(v) == role.id);
                    if spec.p.is_empty() {
                        let mut m = shared.metrics.lock().unwrap();
                        m.requests += 1;
                        m.empty += 1;
                        drop(m);
                        write_response(
                            writer,
                            &Response {
                                id: req.id,
                                body: Body::Empty,
                            },
                        );
                        return;
                    }
                }
            }
            if stop.load(Ordering::SeqCst) || sig::signalled() {
                shared.metrics.lock().unwrap().shed += 1;
                write_response(
                    writer,
                    &Response {
                        id: req.id,
                        body: Body::Shed,
                    },
                );
                return;
            }
            let admitted = Instant::now();
            let deadline = spec
                .deadline_ms
                .map(Duration::from_millis)
                .or(config.default_deadline);
            // A hit is answered here, at admission. A miss, an invalid
            // query and a zero deadline go on to a worker, whose own probe
            // counts the miss (and which reports the error or cancels).
            if deadline.is_none_or(|d| !d.is_zero()) {
                if let Some((answer, strategy)) =
                    engine.cached(&spec.p, &spec.q, spec.phi, spec.agg)
                {
                    shared.metrics.lock().unwrap().requests += 1;
                    let resp = answered(
                        shared,
                        req.id,
                        answer.as_ref(),
                        strategy,
                        admitted.elapsed(),
                        None,
                    );
                    write_response(writer, &resp);
                    return;
                }
            }
            let job = Job {
                id: req.id,
                spec,
                admitted,
                deadline,
                writer: Arc::clone(writer),
            };
            // Count the job as queued before a worker can see it: the
            // worker's decrement must never run ahead of this increment.
            shared.queued.fetch_add(1, Ordering::Relaxed);
            match tx.try_send(job) {
                Ok(()) => {
                    shared.metrics.lock().unwrap().requests += 1;
                }
                Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    shared.metrics.lock().unwrap().shed += 1;
                    write_response(
                        &job.writer,
                        &Response {
                            id: job.id,
                            body: Body::Shed,
                        },
                    );
                }
            }
        }
    }
}

/// Query worker: owns one re-armable token and one [`QuerySession`] whose
/// search buffers are reused across every request it answers; drains the
/// queue to empty even after shutdown begins (admitted requests are never
/// dropped).
fn worker_loop(engine: &Engine, rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    let token = CancelToken::new();
    let mut session = engine.session(&token);
    loop {
        let job = match rx.lock().unwrap().recv() {
            Ok(j) => j,
            Err(_) => return, // queue closed and empty: drain complete.
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        let resp = execute(&token, &mut session, &job, shared);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        write_response(&job.writer, &resp);
    }
}

fn execute(
    token: &CancelToken,
    session: &mut QuerySession<'_>,
    job: &Job,
    shared: &Shared,
) -> Response {
    let id = job.id.clone();
    // The deadline clock started at admission: a query that sat in the
    // queue past its deadline is cancelled without running.
    let remaining = match job.deadline {
        Some(d) => match d.checked_sub(job.admitted.elapsed()) {
            Some(r) if !r.is_zero() => Some(Some(r)),
            _ => None,
        },
        None => Some(None),
    };
    let Some(budget) = remaining else {
        shared.metrics.lock().unwrap().cancelled += 1;
        return Response {
            id,
            body: Body::Cancelled,
        };
    };
    token.arm(budget);
    let spec = &job.spec;
    match session.query(&spec.p, &spec.q, spec.phi, spec.agg) {
        // `strategy` is the pinned snapshot's: a reply computed index-free
        // during a cold start stays labelled so even if the background
        // build has swapped labels in since.
        Ok((answer, stats, _cache, _epoch, strategy)) => answered(
            shared,
            id,
            answer.as_ref(),
            strategy,
            job.admitted.elapsed(),
            Some(&stats),
        ),
        Err(QueryError::Cancelled) => {
            shared.metrics.lock().unwrap().cancelled += 1;
            Response {
                id,
                body: Body::Cancelled,
            }
        }
        Err(e) => {
            shared.metrics.lock().unwrap().errors += 1;
            Response {
                id,
                body: Body::Error {
                    error: e.to_string(),
                },
            }
        }
    }
}

/// Account for one answered query and build its reply; every answer is
/// recorded here, whoever produced it (a worker's search or the reader's
/// cache probe): its latency since admission, `ok` or `empty`, and the
/// search work when it ran one.
fn answered(
    shared: &Shared,
    id: Option<String>,
    answer: Option<&FannAnswer>,
    strategy: Strategy,
    elapsed: Duration,
    search: Option<&SearchStats>,
) -> Response {
    let mut m = shared.metrics.lock().unwrap();
    m.latency.record(elapsed);
    if let Some(stats) = search {
        m.search.add(stats);
    }
    match answer {
        Some(_) => m.ok += 1,
        None => m.empty += 1,
    }
    drop(m);
    Response::for_answer(id, answer, strategy.name(), elapsed.as_micros() as u64)
}

/// Reply to a line that is not a request (unparsable, or not a line the
/// reader would buffer) with a typed `error`; the connection stays open.
fn reply_error(writer: &Mutex<TcpStream>, shared: &Shared, error: String) {
    shared.metrics.lock().unwrap().errors += 1;
    write_response(
        writer,
        &Response {
            id: None,
            body: Body::Error { error },
        },
    );
}

/// Serialize + write one response line. Write errors mean the client is
/// gone; the query result is simply dropped.
fn write_response(writer: &Mutex<TcpStream>, resp: &Response) {
    let mut line = resp.to_json();
    line.push('\n');
    if let Ok(mut w) = writer.lock() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}
