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

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fann_core::engine::Engine;
use fann_core::metrics::LatencyHistogram;
use fann_core::Aggregate;
use fannr_serve::{Body, Client, Op, QuerySpec, Request};
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

    let result = if let Some(cached_addr) = opts.get("compare-addr") {
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
        Err("no mode: pass --smoke or --compare-addr ADDR2".to_string())
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
