//! `loadgen` — verified smoke and feature legs for `fannr serve`.
//!
//! Regenerates the same synthetic network as the server (`--nodes`,
//! `--seed` must match the `fannr serve` invocation) so it can produce
//! valid query workloads and check every answer against a local engine.
//! One mode per run:
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 --nodes 2000 --seed 7 --smoke
//! loadgen --addr 127.0.0.1:7878 --nodes 2000 --seed 7 --smoke \
//!         --update-rate 20 --bench-out results/BENCH_5.json
//! ```
//!
//! `--smoke` is the CI mode: sequential queries cross-validated against a
//! local [`Engine`], a forced-cancellation probe, a metrics check, and a
//! clean wire shutdown. Exit code 0 means ≥1 success, 0 wrong answers,
//! and an orderly drain.
//!
//! `--update-rate R` adds a live-mutation leg: a dedicated connection
//! toggles one edge's weight at `R` updates/second (between its seed
//! value and double it — always admissible) while queries keep flowing.
//! In smoke mode the final update restores the seed weight, the client
//! waits for the server's background label repair to converge, and then
//! re-cross-validates against the local engine — so a wrong answer in the
//! staleness window fails the run. `--bench-out FILE` writes a small JSON
//! summary (qps, updates, latency quantiles) for CI artifacts.
//!
//! `--skew` swaps the workload for the skewed clustered-Q profile (a hot
//! set of repeated queries with spatially clustered `Q`, re-spelled per
//! request), and `--compare-addr ADDR2` runs the query-locality
//! comparison: the same skewed workload through a cache-off server
//! (`--addr`) and a cache-on server (`ADDR2`), every answer from both
//! cross-validated against a local engine, reporting the client-observed
//! throughput ratio (`--min-speedup X` turns it into a pass/fail gate):
//!
//! ```text
//! loadgen --addr 127.0.0.1:7880 --compare-addr 127.0.0.1:7881 \
//!         --nodes 2000 --seed 7 --skew --smoke --queries 256 \
//!         --min-speedup 5 --shutdown --bench-out results/BENCH_6.json
//! ```
//!
//! `--update-stream` swaps queries for a sustained `update_stream` leg:
//! one long-lived sequenced stream (segments of `--segment` edges paced
//! to `--rate` updates/second, a bounded in-flight window), checkpointed
//! reads cross-validated bit-for-bit against a local mirror engine, and a
//! final single-edge probe that reads the server's scoped-repair counters
//! (`--min-updates-per-s` and `--min-repair-ratio` turn both into
//! pass/fail gates; `--converge-s` stretches the per-checkpoint repair
//! deadline for continental graphs whose merged scopes repair for
//! minutes):
//!
//! ```text
//! loadgen --addr 127.0.0.1:7893 --update-stream --nodes 2000 --seed 7 \
//!         --rate 2000 --duration-s 4 --segment 64 --min-updates-per-s 1000 \
//!         --min-repair-ratio 10 --shutdown --bench-out results/BENCH_10.json
//! ```

use std::collections::{HashMap, VecDeque};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fann_core::engine::Engine;
use fann_core::metrics::LatencyHistogram;
use fann_core::Aggregate;
use fannr_serve::{Body, Client, Op, QuerySpec, Request, MAX_STREAM_SEGMENT, STREAM_WINDOW};
use roadnet::{Graph, WeightUpdate};

fn parse_opts(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), val);
        }
    }
    map
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A fixed pool of valid (P, Q, phi, agg) workloads, cycled round-robin.
struct QueryPool {
    specs: Vec<QuerySpec>,
}

impl QueryPool {
    fn generate(graph: &Graph, seed: u64, size: usize, deadline_ms: Option<u64>) -> QueryPool {
        let mut rng = workload::rng(seed.wrapping_add(0x10adc0de));
        let specs = (0..size)
            .map(|i| {
                let p = workload::points::uniform_data_points(graph, 0.01, &mut rng);
                let q = workload::points::uniform_query_points(graph, 4 + i % 8, 0.5, &mut rng);
                QuerySpec {
                    p,
                    q,
                    phi: [0.25, 0.5, 0.75, 1.0][i % 4],
                    agg: if i % 2 == 0 {
                        Aggregate::Max
                    } else {
                        Aggregate::Sum
                    },
                    deadline_ms,
                }
            })
            .collect();
        QueryPool { specs }
    }

    /// The skewed clustered-Q profile (`--skew`): a small hot set of
    /// distinct queries with spatially clustered `Q`, repeated zipf-ishly
    /// and re-spelled (rotated member order) per slot — the shape of
    /// commute-corridor traffic. Canonical cache keys must land every
    /// spelling of a hot query on one entry.
    fn generate_skewed(
        graph: &Graph,
        seed: u64,
        size: usize,
        deadline_ms: Option<u64>,
    ) -> QueryPool {
        let mut rng = workload::rng(seed.wrapping_add(0x5be3d));
        let hot: Vec<QuerySpec> = (0..SKEW_HOT_SET)
            .map(|i| {
                let p = workload::points::uniform_data_points(graph, 0.01, &mut rng);
                let q =
                    workload::points::clustered_query_points(graph, 6 + 2 * i, 0.2, 2, &mut rng);
                QuerySpec {
                    p,
                    q,
                    phi: [0.25, 0.5, 1.0][i % 3],
                    agg: if i % 2 == 0 {
                        Aggregate::Max
                    } else {
                        Aggregate::Sum
                    },
                    deadline_ms,
                }
            })
            .collect();
        let specs = (0..size)
            .map(|s| {
                // Skewed pick: half the slots hit hot[0], a quarter hot[1],
                // the tail spreads over the rest.
                let j = match s % 16 {
                    0..=7 => 0,
                    8..=11 => 1,
                    12 | 13 => 2,
                    _ => 3 + s % (SKEW_HOT_SET - 3),
                };
                let mut spec = hot[j].clone();
                // A different spelling of the same set per slot.
                let len = spec.q.len().max(1);
                spec.q.rotate_left(s % len);
                spec
            })
            .collect();
        QueryPool { specs }
    }

    fn spec(&self, i: usize) -> &QuerySpec {
        &self.specs[i % self.specs.len()]
    }
}

/// Distinct hot queries in the `--skew` profile.
const SKEW_HOT_SET: usize = 6;

/// Connect with retries so loadgen can be launched alongside the server.
fn connect_with_retry(addr: &str, budget: Duration) -> Result<Client, String> {
    let start = Instant::now();
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if start.elapsed() < budget => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// The edge the updater leg toggles: the first edge of node 0. Doubling a
/// weight is always admissible (weights may only move *up* from the
/// Euclidean floor), and restoring the seed value leaves the network
/// identical to what a fresh `Engine::new(graph)` sees.
fn mutation_edge(graph: &Graph) -> Result<(u32, u32, u32), String> {
    graph
        .neighbors(0)
        .next()
        .map(|(v, w)| (0, v, w))
        .ok_or_else(|| "node 0 has no edges; cannot run the update leg".to_string())
}

/// Updater leg: its own connection, one single-edge `update` per tick,
/// toggling between `2*w0` and `w0`. Always finishes on a restore of `w0`
/// (if it sent anything at all) and returns `(updates_sent, last_epoch)`.
fn updater_loop(
    addr: &str,
    (u, v, w0): (u32, u32, u32),
    rate: f64,
    stop: &AtomicBool,
) -> Result<(u64, u64), String> {
    let mut client = connect_with_retry(addr, Duration::from_secs(20))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let mut send = |seq: u64, w: u32| -> Result<u64, String> {
        let resp = client
            .call(&Request {
                id: Some(format!("u{seq}")),
                op: Op::Update(vec![WeightUpdate { u, v, w }]),
            })
            .map_err(|e| format!("update {seq}: {e}"))?;
        match resp.body {
            Body::Updated { epoch, .. } => Ok(epoch),
            other => Err(format!("update {seq} rejected: {other:?}")),
        }
    };
    let mut seq = 0u64;
    let mut epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let w = if seq.is_multiple_of(2) {
            w0.saturating_mul(2)
        } else {
            w0
        };
        epoch = send(seq, w)?;
        seq += 1;
        std::thread::sleep(interval);
    }
    if seq % 2 == 1 {
        // The last applied weight was the doubled one; restore the seed.
        epoch = send(seq, w0)?;
        seq += 1;
    }
    Ok((seq, epoch))
}

fn main() -> ExitCode {
    let opts = parse_opts(std::env::args().skip(1));
    let addr: String = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let nodes: usize = get(&opts, "nodes", 10_000);
    let seed: u64 = get(&opts, "seed", 7);
    let deadline_ms: Option<u64> = opts.get("deadline-ms").and_then(|v| v.parse().ok());

    eprintln!("loadgen: regenerating network ({nodes} nodes, seed {seed})");
    let graph = workload::synth::road_network(nodes, &mut workload::rng(seed));
    let pool = if opts.contains_key("skew") {
        QueryPool::generate_skewed(&graph, seed, 64, deadline_ms)
    } else {
        QueryPool::generate(&graph, seed, 32, deadline_ms)
    };

    let update_rate: f64 = get(&opts, "update-rate", 0.0);
    let bench_out = opts.get("bench-out").cloned();

    let result = if opts.contains_key("update-stream") {
        stream_leg(
            &addr,
            &graph,
            &pool,
            StreamOpts {
                rate: get(&opts, "rate", 2_000.0),
                seconds: get(&opts, "duration-s", 5.0),
                segment: get(&opts, "segment", 64usize),
                checkpoints: get(&opts, "checkpoints", 4usize),
                min_updates_per_s: get(&opts, "min-updates-per-s", 0.0),
                min_repair_ratio: get(&opts, "min-repair-ratio", 0.0),
                converge_s: get(&opts, "converge-s", 60u64),
                shutdown: opts.contains_key("shutdown"),
            },
            bench_out.as_deref(),
        )
    } else if let Some(cached_addr) = opts.get("compare-addr") {
        compare(
            &addr,
            cached_addr,
            &graph,
            &pool,
            get(&opts, "queries", 256usize),
            get(&opts, "pipeline", 32usize),
            get(&opts, "min-speedup", 0.0),
            opts.contains_key("shutdown"),
            bench_out.as_deref(),
        )
    } else if opts.contains_key("smoke") {
        smoke(&addr, &graph, &pool, update_rate, bench_out.as_deref())
    } else {
        Err("no mode: pass --smoke, --compare-addr ADDR2 or --update-stream".to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

/// CI smoke: bounded, deterministic, verifies answers against a local
/// engine and finishes with a clean wire shutdown. With `update_rate > 0`
/// a live-mutation leg runs between two cross-validated phases.
fn smoke(
    addr: &str,
    graph: &Graph,
    pool: &QueryPool,
    update_rate: f64,
    bench_out: Option<&str>,
) -> Result<(), String> {
    let engine = Engine::new(graph);
    let mut client = connect_with_retry(addr, Duration::from_secs(20))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;

    // The server must be alive and not draining.
    let resp = client
        .call(&Request {
            id: Some("h".into()),
            op: Op::Health,
        })
        .map_err(|e| format!("health: {e}"))?;
    match resp.body {
        Body::Health(h) if !h.draining => {}
        other => return Err(format!("unhealthy server: {other:?}")),
    }

    // Sequential queries, each cross-validated against the local engine.
    let (mut ok, mut empty) = cross_validate(&mut client, &engine, pool, 16, "s")?;
    if ok == 0 {
        return Err("no query succeeded".to_string());
    }

    // Live-mutation leg: an updater connection toggles one edge while this
    // connection keeps querying. Mid-flight answers can't be compared to
    // the static local engine (the weights are moving), so here we only
    // require that every query is *answered* — zero shed, zero cancelled,
    // zero errors attributable to the swap — and validate exactness after
    // the final restore below.
    let mut mixed = MixedStats::default();
    if update_rate > 0.0 {
        let edge = mutation_edge(graph)?;
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let (sent_updates, last_epoch) = std::thread::scope(|scope| {
            let updater = scope.spawn(|| updater_loop(addr, edge, update_rate, &stop));
            let run = (|| -> Result<(), String> {
                for i in 0..MIXED_QUERIES {
                    let spec = pool.spec(i).clone();
                    let req = Request {
                        id: Some(format!("m{i}")),
                        op: Op::Query(QuerySpec {
                            deadline_ms: None,
                            ..spec
                        }),
                    };
                    let sent = Instant::now();
                    let resp = client
                        .call(&req)
                        .map_err(|e| format!("mixed query {i}: {e}"))?;
                    match resp.body {
                        Body::Ok { .. } => mixed.ok += 1,
                        Body::Empty => mixed.empty += 1,
                        other => {
                            return Err(format!(
                                "mixed query {i} not answered (got {other:?}); \
                                 updates must never shed or fail reads"
                            ))
                        }
                    }
                    mixed.latency.record(sent.elapsed());
                }
                Ok(())
            })();
            stop.store(true, Ordering::Relaxed);
            let upd = updater.join().expect("updater thread");
            run.and(upd)
        })?;
        mixed.elapsed = t0.elapsed();
        mixed.updates = sent_updates;
        mixed.epoch = last_epoch;
        if sent_updates == 0 {
            return Err("update leg sent no updates (rate too low for the run)".to_string());
        }
        eprintln!(
            "loadgen: mixed leg: {} queries with {} live updates ({} epochs), all answered",
            mixed.ok + mixed.empty,
            sent_updates,
            last_epoch
        );

        // The final update restored the seed weight, so once the server's
        // background repair converges the local engine is authoritative
        // again. `stale` only clears for label-backed servers, but answers
        // are exact either way — the wait just exercises the repair path.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let resp = client
                .call(&Request {
                    id: Some("h2".into()),
                    op: Op::Health,
                })
                .map_err(|e| format!("health during repair: {e}"))?;
            match resp.body {
                Body::Health(h) if h.epoch == last_epoch && !h.stale => break,
                Body::Health(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => return Err(format!("label repair never converged: {other:?}")),
            }
        }
        let (ok2, empty2) = cross_validate(&mut client, &engine, pool, 8, "r")?;
        if ok2 == 0 {
            return Err("no post-update query succeeded".to_string());
        }
        ok += ok2;
        empty += empty2;
    }

    // A pre-expired deadline must cancel, never answer wrongly.
    let spec = pool.spec(0).clone();
    let resp = client
        .call(&Request {
            id: Some("doomed".into()),
            op: Op::Query(QuerySpec {
                deadline_ms: Some(0),
                ..spec
            }),
        })
        .map_err(|e| format!("deadline probe: {e}"))?;
    if resp.body != Body::Cancelled {
        return Err(format!("expected cancelled for 0ms deadline, got {resp:?}"));
    }

    // Metrics must reflect the traffic we just generated.
    let resp = client
        .call(&Request {
            id: None,
            op: Op::Metrics,
        })
        .map_err(|e| format!("metrics: {e}"))?;
    match resp.body {
        Body::Metrics(m) if m.ok >= ok && m.cancelled >= 1 && m.updates >= mixed.updates => {
            eprintln!(
                "loadgen: server metrics: {} admitted, {} ok, {} cancelled, {} shed, \
                 {} updates (epoch {})",
                m.requests, m.ok, m.cancelled, m.shed, m.updates, m.epoch
            );
        }
        other => return Err(format!("inconsistent metrics: {other:?}")),
    }

    if let Some(path) = bench_out {
        write_bench_json(path, &mixed)?;
    }

    // Clean drain over the wire.
    let resp = client
        .call(&Request {
            id: Some("bye".into()),
            op: Op::Shutdown,
        })
        .map_err(|e| format!("shutdown: {e}"))?;
    if resp.body != Body::Bye {
        return Err(format!("expected bye, got {resp:?}"));
    }

    println!(
        "SMOKE PASS: {ok} ok, {empty} empty, {} live updates, 0 wrong answers, clean drain",
        mixed.updates
    );
    Ok(())
}

/// One answered wire query, reduced to the bits that must match:
/// `None` for `empty`, else `(p_star, dist, subset)`.
type WireAnswer = Option<(u32, u64, Vec<u32>)>;

/// The query-locality bench/smoke (`--compare-addr`): drive the *same*
/// workload through a cache-off server (`--addr`) and a cache-on server
/// (`--compare-addr`), in pipelined chunks (so the batching window sees
/// co-located company), cross-validate every answer from both servers
/// against a local [`Engine`], and report the client-observed throughput
/// ratio. Zero mismatches are mandatory; `--min-speedup X` makes the run
/// fail below `X`. `--bench-out FILE` records the comparison
/// (`results/BENCH_6.json` in CI).
#[allow(clippy::too_many_arguments)]
fn compare(
    base_addr: &str,
    cached_addr: &str,
    graph: &Graph,
    pool: &QueryPool,
    queries: usize,
    chunk: usize,
    min_speedup: f64,
    send_shutdown: bool,
    bench_out: Option<&str>,
) -> Result<(), String> {
    let engine = Engine::new(graph);
    let chunk = chunk.max(1);

    // One pipelined, chunked leg against one server.
    let run_leg =
        |addr: &str, tag: &str| -> Result<(Vec<WireAnswer>, Duration, LatencyHistogram), String> {
            let mut client = connect_with_retry(addr, Duration::from_secs(20))?;
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            let resp = client
                .call(&Request {
                    id: Some(format!("{tag}-h")),
                    op: Op::Health,
                })
                .map_err(|e| format!("health {addr}: {e}"))?;
            match resp.body {
                Body::Health(h) if !h.draining => {}
                other => return Err(format!("unhealthy server {addr}: {other:?}")),
            }
            let mut answers: Vec<WireAnswer> = vec![None; queries];
            let mut got: Vec<bool> = vec![false; queries];
            let mut hist = LatencyHistogram::default();
            let started = Instant::now();
            let mut next = 0usize;
            while next < queries {
                let end = (next + chunk).min(queries);
                let chunk_sent = Instant::now();
                for i in next..end {
                    client
                        .send(&Request {
                            id: Some(format!("{tag}{i}")),
                            op: Op::Query(pool.spec(i).clone()),
                        })
                        .map_err(|e| format!("send {tag}{i}: {e}"))?;
                }
                for _ in next..end {
                    let resp = client.recv().map_err(|e| format!("recv {tag}: {e}"))?;
                    let Some(i) = resp
                        .id
                        .as_deref()
                        .and_then(|id| id.strip_prefix(tag))
                        .and_then(|n| n.parse::<usize>().ok())
                    else {
                        return Err(format!("unmatched response id {:?}", resp.id));
                    };
                    match resp.body {
                        Body::Ok {
                            p_star,
                            dist,
                            subset,
                            ..
                        } => answers[i] = Some((p_star, dist, subset)),
                        Body::Empty => answers[i] = None,
                        other => {
                            return Err(format!(
                                "{tag}{i} not answered (got {other:?}); the compare leg \
                             must see every query through"
                            ))
                        }
                    }
                    got[i] = true;
                    hist.record(chunk_sent.elapsed());
                }
                next = end;
            }
            if !got.iter().all(|&g| g) {
                return Err("responses missing after drain".to_string());
            }
            Ok((answers, started.elapsed(), hist))
        };

    let (base_answers, base_elapsed, base_hist) = run_leg(base_addr, "b")?;
    let (cached_answers, cached_elapsed, cached_hist) = run_leg(cached_addr, "c")?;

    // Both servers, bit-for-bit, against the local engine.
    let mut mismatches = 0usize;
    for i in 0..queries {
        let spec = pool.spec(i);
        let want: WireAnswer = engine
            .query(&spec.p, &spec.q, spec.phi, spec.agg)
            .map_err(|e| format!("local engine rejected query {i}: {e}"))?
            .map(|a| (a.p_star, a.dist, a.subset));
        for (leg, got) in [
            ("uncached", &base_answers[i]),
            ("cached", &cached_answers[i]),
        ] {
            if *got != want {
                mismatches += 1;
                eprintln!("loadgen: MISMATCH on query {i} ({leg}): got {got:?}, expected {want:?}");
            }
        }
    }

    let base_qps = queries as f64 / base_elapsed.as_secs_f64().max(1e-9);
    let cached_qps = queries as f64 / cached_elapsed.as_secs_f64().max(1e-9);
    let speedup = cached_qps / base_qps.max(1e-9);
    println!(
        "compare: {queries} skewed queries | uncached {base_qps:.0} qps | \
         cached {cached_qps:.0} qps | speedup {speedup:.1}x | {mismatches} mismatches"
    );

    // The cached server's own accounting, for the record.
    let mut cached_client = connect_with_retry(cached_addr, Duration::from_secs(5))?;
    let resp = cached_client
        .call(&Request {
            id: None,
            op: Op::Metrics,
        })
        .map_err(|e| format!("metrics {cached_addr}: {e}"))?;
    let m = match resp.body {
        Body::Metrics(m) => *m,
        other => return Err(format!("expected metrics, got {other:?}")),
    };
    eprintln!(
        "loadgen: cached server: {} hits, {} misses, {} insertions, {} batches ({} batched queries)",
        m.cache_hits, m.cache_misses, m.cache_insertions, m.batches, m.batch_queries
    );

    if let Some(path) = bench_out {
        let json = format!(
            "{{\n  \"profile\": \"skewed-clustered-q\",\n  \"queries\": {queries},\n  \
             \"distinct_hot\": {SKEW_HOT_SET},\n  \"uncached_qps\": {base_qps:.1},\n  \
             \"cached_qps\": {cached_qps:.1},\n  \"speedup\": {speedup:.1},\n  \
             \"mismatches\": {mismatches},\n  \"uncached_p50_us\": {},\n  \
             \"cached_p50_us\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"batches\": {},\n  \"batch_queries\": {}\n}}\n",
            base_hist.p50_ns() / 1_000,
            cached_hist.p50_ns() / 1_000,
            m.cache_hits,
            m.cache_misses,
            m.batches,
            m.batch_queries,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loadgen: wrote {path}");
    }

    if send_shutdown {
        for addr in [base_addr, cached_addr] {
            let mut client = connect_with_retry(addr, Duration::from_secs(5))?;
            client
                .call(&Request {
                    id: None,
                    op: Op::Shutdown,
                })
                .map_err(|e| format!("shutdown {addr}: {e}"))?;
        }
    }

    if mismatches > 0 {
        return Err(format!("{mismatches} answer mismatches"));
    }
    if speedup < min_speedup {
        return Err(format!(
            "speedup {speedup:.1}x below required {min_speedup:.1}x"
        ));
    }
    println!(
        "COMPARE PASS: {queries} queries, 0 mismatches, {speedup:.1}x client-observed speedup"
    );
    Ok(())
}

/// Knobs for the sustained update-stream leg (`--update-stream`).
struct StreamOpts {
    /// Target updates/second (segments are paced to hit this).
    rate: f64,
    /// How long the sustained phase streams for.
    seconds: f64,
    /// Edges per segment.
    segment: usize,
    /// How many times the stream pauses for a checkpointed read phase.
    checkpoints: usize,
    /// Fail below this achieved updates/second (0 = no gate).
    min_updates_per_s: f64,
    /// Fail unless the final single-edge repair touched at least this
    /// many times fewer label roots than a full rebuild (0 = no gate).
    min_repair_ratio: f64,
    /// Per-checkpoint repair-convergence deadline, seconds. The default
    /// (60) fits CI-sized graphs; continental runs merging many touched
    /// edges into one scope legitimately repair for minutes.
    converge_s: u64,
    shutdown: bool,
}

/// The sustained update-stream leg (`--update-stream`): one long-lived
/// `update_stream` over a single connection, segments of `--segment`
/// edges paced to `--rate` updates/second with up to [`STREAM_WINDOW`]
/// segments in flight. Every ack is applied to a local mirror engine;
/// the stream periodically drains, waits for the server's background
/// repair to converge, and cross-validates reads bit-for-bit against the
/// mirror (the checkpoint pattern — mid-flight answers race the stream,
/// checkpointed ones must be exact). A final single-edge segment probes
/// the scoped-repair footprint: the server's last-repair counters then
/// show how many label roots one edge actually costs versus a full
/// rebuild. `--bench-out` records everything
/// (`results/BENCH_10.json` in CI).
fn stream_leg(
    addr: &str,
    graph: &Graph,
    pool: &QueryPool,
    opts: StreamOpts,
    bench_out: Option<&str>,
) -> Result<(), String> {
    let mirror = Engine::new(graph);
    let segment = opts.segment.clamp(1, MAX_STREAM_SEGMENT);
    let window = STREAM_WINDOW.max(1);

    // The mutated edge set: `segment` edges spread evenly over the
    // network, each toggled between its seed weight and double it (always
    // admissible — weights only move up from the Euclidean floor).
    let all: Vec<(u32, u32, u32)> = graph.edges().collect();
    if all.is_empty() {
        return Err("graph has no edges to stream updates for".to_string());
    }
    let step = (all.len() / segment).max(1);
    let edges: Vec<(u32, u32, u32)> = all.iter().copied().step_by(step).take(segment).collect();
    let batch = |doubled: bool| -> Vec<WeightUpdate> {
        edges
            .iter()
            .map(|&(u, v, w)| WeightUpdate {
                u,
                v,
                w: if doubled { w.saturating_mul(2) } else { w },
            })
            .collect()
    };

    let mut client = connect_with_retry(addr, Duration::from_secs(20))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut query_client = connect_with_retry(addr, Duration::from_secs(20))?;
    query_client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;

    let mut next_seq: u64 = 1;
    let mut last_epoch: u64 = 0;
    let mut updates_acked: u64 = 0;
    let mut ack_hist = LatencyHistogram::default();
    let mut pending: VecDeque<(u64, Instant, Vec<WeightUpdate>)> = VecDeque::new();

    // One ack off the wire: strictly ordered, applied to the mirror the
    // moment the server confirms it.
    let recv_ack = |client: &mut Client,
                    pending: &mut VecDeque<(u64, Instant, Vec<WeightUpdate>)>,
                    ack_hist: &mut LatencyHistogram,
                    last_epoch: &mut u64,
                    updates_acked: &mut u64|
     -> Result<(), String> {
        let (seq, sent_at, updates) = pending.pop_front().expect("recv with nothing in flight");
        let resp = client.recv().map_err(|e| format!("ack {seq}: {e}"))?;
        match resp.body {
            Body::StreamAck {
                seq: acked,
                epoch,
                applied,
            } => {
                if acked != seq {
                    return Err(format!("ack out of order: expected {seq}, got {acked}"));
                }
                ack_hist.record(sent_at.elapsed());
                *last_epoch = epoch;
                *updates_acked += applied;
                mirror
                    .apply_updates(&updates)
                    .map_err(|e| format!("mirror diverged on segment {seq}: {e}"))?;
                Ok(())
            }
            other => Err(format!("segment {seq} rejected: {other:?}")),
        }
    };
    let send_segment = |client: &mut Client,
                        pending: &mut VecDeque<(u64, Instant, Vec<WeightUpdate>)>,
                        next_seq: &mut u64,
                        updates: Vec<WeightUpdate>|
     -> Result<(), String> {
        let seq = *next_seq;
        client
            .send(&Request {
                id: Some(format!("seg{seq}")),
                op: Op::UpdateStream {
                    seq,
                    updates: updates.clone(),
                },
            })
            .map_err(|e| format!("send segment {seq}: {e}"))?;
        pending.push_back((seq, Instant::now(), updates));
        *next_seq = seq + 1;
        Ok(())
    };

    // Wait for the server's background repair to converge on the acked
    // epoch, returning how long it took (the staleness window a reader
    // would have observed).
    let converge = |client: &mut Client, epoch: u64| -> Result<Duration, String> {
        let started = Instant::now();
        let deadline = started + Duration::from_secs(opts.converge_s);
        loop {
            let resp = client
                .call(&Request {
                    id: Some("cvg".into()),
                    op: Op::Health,
                })
                .map_err(|e| format!("health during convergence: {e}"))?;
            match resp.body {
                Body::Health(h) if h.epoch == epoch && !h.stale => return Ok(started.elapsed()),
                Body::Health(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => return Err(format!("repair never converged: {other:?}")),
            }
        }
    };

    // Sustained phase: paced segments, a bounded in-flight window, and
    // `checkpoints` pauses that each drain + converge + cross-validate.
    let total_segments =
        (((opts.rate * opts.seconds) / segment as f64).ceil() as usize).max(opts.checkpoints + 1);
    let interval = Duration::from_secs_f64(segment as f64 / opts.rate.max(1.0));
    let per_phase = total_segments.div_ceil(opts.checkpoints.max(1));
    let mut staleness = LatencyHistogram::default();
    let mut sent_segments = 0usize;
    let mut checkpoint_queries = 0u64;
    let mut streaming = Duration::ZERO;
    while sent_segments < total_segments {
        let phase_end = (sent_segments + per_phase).min(total_segments);
        let t0 = Instant::now();
        while sent_segments < phase_end {
            let tick = interval.mul_f64((sent_segments % per_phase) as f64);
            if let Some(sleep) = tick.checked_sub(t0.elapsed()) {
                std::thread::sleep(sleep);
            }
            while pending.len() >= window as usize {
                recv_ack(
                    &mut client,
                    &mut pending,
                    &mut ack_hist,
                    &mut last_epoch,
                    &mut updates_acked,
                )?;
            }
            // Odd seq doubles the weights, even seq restores them, so the
            // stream always ends on seed weights after an even count.
            let doubled = next_seq % 2 == 1;
            send_segment(&mut client, &mut pending, &mut next_seq, batch(doubled))?;
            sent_segments += 1;
        }
        while !pending.is_empty() {
            recv_ack(
                &mut client,
                &mut pending,
                &mut ack_hist,
                &mut last_epoch,
                &mut updates_acked,
            )?;
        }
        streaming += t0.elapsed();
        // Checkpoint: the stream is drained, so once the repair converges
        // the mirror is authoritative and reads must match bit-for-bit.
        staleness.record(converge(&mut query_client, last_epoch)?);
        let (ok, empty) = cross_validate(&mut query_client, &mirror, pool, 4, "ck")?;
        checkpoint_queries += ok + empty;
    }

    // Restore every toggled edge (a no-op segment if the count was even),
    // so the network ends exactly where it started.
    send_segment(&mut client, &mut pending, &mut next_seq, batch(false))?;
    while !pending.is_empty() {
        recv_ack(
            &mut client,
            &mut pending,
            &mut ack_hist,
            &mut last_epoch,
            &mut updates_acked,
        )?;
    }
    converge(&mut query_client, last_epoch)?;

    let achieved = updates_acked as f64 / streaming.as_secs_f64().max(1e-9);
    eprintln!(
        "loadgen: stream: {sent_segments} segments ({updates_acked} updates) at {achieved:.0} \
         updates/s, {checkpoint_queries} checkpointed reads exact, ack p99 {}us",
        ack_hist.p99_ns() / 1_000
    );

    // Scoped-repair probe: single-edge segments spread across the
    // network, so the last repair on *every* shard (through a router the
    // health counters aggregate per-shard last repairs) is a single-edge
    // batch — that is what the counters then measure. Probe edges are
    // pendant (degree-1) edges where they exist: a leaf-local update whose
    // shortest-path footprint is structurally tiny, which is exactly the
    // "single-leaf batch" the scoped-repair machinery is built for —
    // toggling a high-betweenness edge instead would honestly invalidate
    // half the label roots and measure edge centrality, not repair
    // scoping. Each probe toggles and restores, leaving the network
    // untouched.
    let mut probe_edges: Vec<(u32, u32, u32)> = (0..graph.num_nodes() as u32)
        .filter(|&v| graph.degree(v) == 1)
        .filter_map(|v| graph.neighbors(v).next().map(|(nbr, w)| (v, nbr, w)))
        .collect();
    if probe_edges.is_empty() {
        probe_edges = edges.clone();
    }
    probe_edges.sort_by(|a, b| {
        let (ca, cb) = (graph.coord(a.0), graph.coord(b.0));
        (ca.x, ca.y)
            .partial_cmp(&(cb.x, cb.y))
            .expect("finite coords")
    });
    let probes = 8.min(probe_edges.len());
    for i in 0..probes {
        let (pu, pv, pw) = probe_edges[i * probe_edges.len() / probes];
        for w in [pw.saturating_mul(2), pw] {
            send_segment(
                &mut client,
                &mut pending,
                &mut next_seq,
                vec![WeightUpdate { u: pu, v: pv, w }],
            )?;
            while !pending.is_empty() {
                recv_ack(
                    &mut client,
                    &mut pending,
                    &mut ack_hist,
                    &mut last_epoch,
                    &mut updates_acked,
                )?;
            }
            converge(&mut query_client, last_epoch)?;
        }
    }
    let (ok, _) = cross_validate(&mut query_client, &mirror, pool, 8, "fin")?;
    if ok == 0 {
        return Err("no post-stream query succeeded".to_string());
    }

    // The repair footprint of that single-edge batch, via the server's
    // (or router's aggregated) health counters.
    let resp = query_client
        .call(&Request {
            id: Some("hf".into()),
            op: Op::Health,
        })
        .map_err(|e| format!("final health: {e}"))?;
    let h = match resp.body {
        Body::Health(h) => h,
        other => return Err(format!("expected health, got {other:?}")),
    };
    let repair_ratio = if h.labels_repaired > 0 {
        h.labels_total as f64 / h.labels_repaired as f64
    } else {
        0.0
    };
    eprintln!(
        "loadgen: single-edge repair: {}/{} label roots ({}x fewer), {}ms",
        h.labels_repaired, h.labels_total, repair_ratio as u64, h.last_repair_ms
    );

    if let Some(path) = bench_out {
        let json = format!(
            "{{\n  \"bench\": \"update_stream\",\n  \"segments\": {sent_segments},\n  \
             \"segment_edges\": {segment},\n  \"updates\": {updates_acked},\n  \
             \"sustained_updates_per_s\": {achieved:.1},\n  \"ack_p50_us\": {},\n  \
             \"ack_p99_us\": {},\n  \"staleness_p50_ms\": {},\n  \"staleness_p99_ms\": {},\n  \
             \"checkpoint_reads\": {checkpoint_queries},\n  \"mismatches\": 0,\n  \
             \"labels_repaired\": {},\n  \"labels_total\": {},\n  \
             \"last_repair_ms\": {},\n  \
             \"repair_ratio\": {repair_ratio:.1}\n}}\n",
            ack_hist.p50_ns() / 1_000,
            ack_hist.p99_ns() / 1_000,
            staleness.p50_ns() / 1_000_000,
            staleness.p99_ns() / 1_000_000,
            h.labels_repaired,
            h.labels_total,
            h.last_repair_ms,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loadgen: wrote {path}");
    }

    if opts.shutdown {
        query_client
            .call(&Request {
                id: None,
                op: Op::Shutdown,
            })
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    if achieved < opts.min_updates_per_s {
        return Err(format!(
            "sustained {achieved:.0} updates/s below required {:.0}",
            opts.min_updates_per_s
        ));
    }
    if opts.min_repair_ratio > 0.0 {
        if h.labels_repaired == 0 {
            return Err("no scoped repair was recorded (are labels enabled?)".to_string());
        }
        if repair_ratio < opts.min_repair_ratio {
            return Err(format!(
                "single-edge repair touched {}/{} label roots ({repair_ratio:.1}x), \
                 required at least {:.1}x fewer than a full rebuild",
                h.labels_repaired, h.labels_total, opts.min_repair_ratio
            ));
        }
    }
    println!(
        "STREAM PASS: {updates_acked} updates at {achieved:.0}/s, {checkpoint_queries} \
         checkpointed reads exact, single-edge repair {}/{} roots",
        h.labels_repaired, h.labels_total
    );
    Ok(())
}

/// Queries issued during the mixed read/update leg of `--smoke`.
const MIXED_QUERIES: usize = 48;

#[derive(Default)]
struct MixedStats {
    ok: u64,
    empty: u64,
    updates: u64,
    epoch: u64,
    elapsed: Duration,
    latency: LatencyHistogram,
}

/// `count` sequential queries, each checked bit-for-bit against the local
/// engine. Only valid while the served network equals `engine`'s graph.
fn cross_validate(
    client: &mut Client,
    engine: &Engine,
    pool: &QueryPool,
    count: usize,
    tag: &str,
) -> Result<(u64, u64), String> {
    let mut ok = 0u64;
    let mut empty = 0u64;
    for i in 0..count {
        let spec = pool.spec(i).clone();
        let expected = engine
            .query(&spec.p, &spec.q, spec.phi, spec.agg)
            .map_err(|e| format!("local engine rejected smoke query {tag}{i}: {e}"))?;
        let req = Request {
            id: Some(format!("{tag}{i}")),
            op: Op::Query(QuerySpec {
                deadline_ms: None,
                ..spec
            }),
        };
        let resp = client
            .call(&req)
            .map_err(|e| format!("query {tag}{i}: {e}"))?;
        match (&resp.body, &expected) {
            (
                Body::Ok {
                    p_star,
                    dist,
                    subset,
                    ..
                },
                Some(want),
            ) => {
                if *p_star != want.p_star || *dist != want.dist || *subset != want.subset {
                    return Err(format!(
                        "WRONG ANSWER on query {tag}{i}: got (p*={p_star}, d*={dist}), \
                         expected (p*={}, d*={})",
                        want.p_star, want.dist
                    ));
                }
                ok += 1;
            }
            (Body::Empty, None) => empty += 1,
            (body, want) => {
                return Err(format!(
                    "WRONG ANSWER on query {tag}{i}: got {body:?}, expected {want:?}"
                ))
            }
        }
    }
    Ok((ok, empty))
}

/// Tiny hand-rolled JSON artifact for CI (no serde anywhere in the tree).
fn write_bench_json(path: &str, mixed: &MixedStats) -> Result<(), String> {
    let answered = mixed.ok + mixed.empty;
    let qps = answered as f64 / mixed.elapsed.as_secs_f64().max(1e-9);
    let json = format!(
        "{{\n  \"mixed_queries\": {answered},\n  \"updates\": {},\n  \"final_epoch\": {},\n  \
         \"qps\": {:.1},\n  \"p50_us\": {},\n  \"p90_us\": {},\n  \"p99_us\": {}\n}}\n",
        mixed.updates,
        mixed.epoch,
        qps,
        mixed.latency.p50_ns() / 1_000,
        mixed.latency.p90_ns() / 1_000,
        mixed.latency.p99_ns() / 1_000,
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("loadgen: wrote {path}");
    Ok(())
}
