//! End-to-end server tests over a real TCP socket: round-trip answers
//! cross-validated against the in-process engine, overload shedding,
//! deadline cancellation, inline observability, and graceful drain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use fann_core::engine::Engine;
use fann_core::Aggregate;
use fannr_serve::{
    Body, Client, Op, QuerySpec, Request, Response, ServeConfig, Server, MAX_LINE_BYTES,
};
use roadnet::Graph;

fn test_graph(seed: u64, nodes: usize) -> Graph {
    let mut rng = workload::rng(seed);
    workload::synth::road_network(nodes, &mut rng)
}

fn pq(graph: &Graph, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = workload::rng(seed);
    let p = workload::points::uniform_data_points(graph, 0.1, &mut rng);
    let q = workload::points::uniform_query_points(graph, 4, 0.5, &mut rng);
    (p, q)
}

fn query_req(id: &str, p: &[u32], q: &[u32], phi: f64, agg: Aggregate) -> Request {
    Request {
        id: Some(id.to_string()),
        op: Op::Query(QuerySpec {
            p: p.to_vec(),
            q: q.to_vec(),
            phi,
            agg,
            deadline_ms: None,
        }),
    }
}

/// Trips shutdown on drop so a panicking test body cannot leave the
/// server thread running (which would deadlock `thread::scope`).
struct ShutdownGuard(fannr_serve::ShutdownHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Run `f` against a freshly served engine, then shut down and return the
/// summary alongside `f`'s result.
fn with_server<T>(
    config: ServeConfig,
    graph: &Graph,
    f: impl FnOnce(std::net::SocketAddr) -> T,
) -> (T, fannr_serve::ServeSummary) {
    let engine = Engine::new(graph);
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let (out, summary) = thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine).expect("serve"));
        let guard = ShutdownGuard(handle);
        let out = f(addr);
        drop(guard);
        (out, serving.join().expect("server thread"))
    });
    (out, summary)
}

fn free_port_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Answers over the wire are bit-identical to in-process `Engine::query`,
/// for both aggregates, and responses match requests by id even when
/// pipelined.
#[test]
fn round_trip_matches_in_process_engine() {
    let graph = test_graph(7, 300);
    let (p, q) = pq(&graph, 8);
    let engine = Engine::new(&graph);

    let cases: Vec<(String, f64, Aggregate)> = vec![
        ("sum-half".into(), 0.5, Aggregate::Sum),
        ("max-half".into(), 0.5, Aggregate::Max),
        ("sum-all".into(), 1.0, Aggregate::Sum),
        ("max-quarter".into(), 0.25, Aggregate::Max),
    ];

    let ((), _summary) = with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // Pipeline all requests before reading any response; workers may
        // finish out of order, so match responses back up by id.
        for (id, phi, agg) in &cases {
            client
                .send(&query_req(id, &p, &q, *phi, *agg))
                .expect("send");
        }
        let mut by_id = std::collections::HashMap::new();
        for _ in &cases {
            let resp = client.recv().expect("recv");
            let id = resp.id.clone().expect("response id");
            assert!(by_id.insert(id, resp).is_none(), "duplicate response id");
        }
        for (id, phi, agg) in &cases {
            let resp = &by_id[id.as_str()];
            let expected = engine.query(&p, &q, *phi, *agg).expect("valid query");
            match (&resp.body, expected) {
                (
                    Body::Ok {
                        p_star,
                        dist,
                        subset,
                        strategy,
                        ..
                    },
                    Some(ans),
                ) => {
                    assert_eq!(*p_star, ans.p_star, "{id}");
                    assert_eq!(*dist, ans.dist, "{id}");
                    assert_eq!(*subset, ans.subset, "{id}");
                    assert_eq!(strategy, engine.strategy_for(*agg).name());
                }
                (Body::Empty, None) => {}
                (body, expected) => panic!("{id}: got {body:?}, expected {expected:?}"),
            }
        }
    });
}

/// Malformed lines and invalid queries produce `error` responses without
/// killing the connection.
#[test]
fn errors_are_reported_and_connection_survives() {
    let graph = test_graph(9, 120);
    let (p, q) = pq(&graph, 10);

    with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");

        // Garbage, and the retired `update_stream` op an older client may
        // still send.
        for line in [
            "this is not json",
            r#"{"op":"update_stream","seq":1,"updates":[{"u":0,"v":1,"w":5}]}"#,
        ] {
            client.send_raw(line).expect("send");
            let resp = client.recv().expect("recv");
            assert!(matches!(resp.body, Body::Error { .. }), "{line}: {resp:?}");
        }

        // Invalid phi (0 is out of range) — a protocol-level valid request
        // that the engine rejects.
        client
            .send(&query_req("bad-phi", &p, &q, 0.0, Aggregate::Max))
            .expect("send");
        let resp = client.recv().expect("recv");
        assert!(matches!(resp.body, Body::Error { .. }), "{resp:?}");

        // The connection still answers real queries afterwards.
        client
            .send(&query_req("ok", &p, &q, 0.5, Aggregate::Max))
            .expect("send");
        let resp = client.recv().expect("recv");
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");
    });
}

/// Hostile wire bytes get a typed error, never a dead process: a line of
/// 100 000 `[` is answered with `error` (the reader skips nesting with an
/// explicit stack, not recursion), and the server still answers `health`
/// on a new connection.
#[test]
fn deeply_nested_line_gets_an_error_and_the_server_keeps_serving() {
    let graph = test_graph(9, 120);
    with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(&"[".repeat(100_000)).expect("send");
        let resp = client.recv().expect("recv");
        assert!(matches!(resp.body, Body::Error { .. }), "{resp:?}");

        let mut fresh = Client::connect(addr).expect("reconnect");
        let resp = fresh
            .call(&Request {
                id: Some("h".into()),
                op: Op::Health,
            })
            .expect("health");
        assert!(matches!(resp.body, Body::Health(_)), "{resp:?}");
    });
}

/// A request line one byte over [`MAX_LINE_BYTES`] is dropped as it
/// arrives and answered with an `error` naming the limit; the same
/// connection then answers a query.
#[test]
fn overlong_line_gets_an_error_and_the_connection_keeps_serving() {
    let graph = test_graph(9, 120);
    let (p, q) = pq(&graph, 10);
    with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        client
            .send_raw(&"x".repeat(MAX_LINE_BYTES + 1))
            .expect("send");
        let resp = client.recv().expect("recv");
        match &resp.body {
            Body::Error { error } => {
                assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}")
            }
            other => panic!("expected an error, got {other:?}"),
        }

        let resp = client
            .call(&query_req("after", &p, &q, 0.5, Aggregate::Max))
            .expect("query");
        assert_eq!(resp.id.as_deref(), Some("after"));
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");
    });
}

/// A pre-expired deadline yields `cancelled` — never a wrong answer — and
/// the cancelled counter shows up in `metrics`.
#[test]
fn expired_deadline_cancels() {
    let graph = test_graph(11, 200);
    let (p, q) = pq(&graph, 12);

    with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let req = Request {
            id: Some("doomed".into()),
            op: Op::Query(QuerySpec {
                p: p.clone(),
                q: q.clone(),
                phi: 0.5,
                agg: Aggregate::Sum,
                deadline_ms: Some(0),
            }),
        };
        let resp = client.call(&req).expect("call");
        assert_eq!(resp.body, Body::Cancelled, "{resp:?}");

        let resp = client
            .call(&Request {
                id: None,
                op: Op::Metrics,
            })
            .expect("metrics");
        match resp.body {
            Body::Metrics(m) => assert!(m.cancelled >= 1, "{m:?}"),
            other => panic!("expected metrics, got {other:?}"),
        }
    });
}

/// With one slow worker and a depth-1 queue, a burst of pipelined queries
/// must shed some requests rather than buffer unboundedly — and every
/// request still gets exactly one response.
#[test]
fn overload_sheds_instead_of_buffering() {
    let graph = test_graph(13, 400);
    let (p, q) = pq(&graph, 14);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };

    const BURST: usize = 24;
    let shed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);

    let ((), summary) = with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for i in 0..BURST {
            client
                .send(&query_req(&format!("b{i}"), &p, &q, 0.5, Aggregate::Sum))
                .expect("send");
        }
        for _ in 0..BURST {
            let resp = client.recv().expect("recv");
            match resp.body {
                Body::Shed => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Body::Ok { .. } | Body::Empty => {
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    });

    let shed = shed.load(Ordering::Relaxed);
    let answered = answered.load(Ordering::Relaxed);
    assert_eq!(shed + answered, BURST);
    assert!(
        shed > 0,
        "burst of {BURST} through a depth-1 queue never shed"
    );
    assert!(answered > 0, "everything shed; nothing served");
    assert_eq!(summary.metrics.shed, shed as u64);
    assert_eq!(summary.metrics.ok + summary.metrics.empty, answered as u64);
}

/// `health` and `metrics` are answered inline, and the wire `shutdown` op
/// drains the server: the run loop exits and in-flight work completes.
#[test]
fn health_metrics_and_wire_shutdown() {
    let graph = test_graph(15, 150);
    let (p, q) = pq(&graph, 16);
    let engine = Engine::new(&graph);
    let server = Server::bind(free_port_config()).expect("bind");
    let addr = server.local_addr().expect("addr");

    let handle = server.shutdown_handle();
    let summary = thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine).expect("serve"));
        let _guard = ShutdownGuard(handle);

        let mut client = Client::connect(addr).expect("connect");
        let resp = client
            .call(&Request {
                id: Some("h".into()),
                op: Op::Health,
            })
            .expect("health");
        match resp.body {
            Body::Health(h) => {
                assert!(!h.draining);
                assert!(h.workers >= 1);
            }
            other => panic!("expected health, got {other:?}"),
        }

        let resp = client
            .call(&query_req("warm", &p, &q, 0.5, Aggregate::Max))
            .expect("query");
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");

        let resp = client
            .call(&Request {
                id: None,
                op: Op::Metrics,
            })
            .expect("metrics");
        match resp.body {
            Body::Metrics(m) => {
                assert_eq!(m.requests, 1);
                assert_eq!(m.ok, 1);
                assert!(m.search.nodes_settled > 0, "search stats not aggregated");
                // Client-side, the histogram is reconstructed from the
                // wire quantiles — only presence is meaningful.
                assert!(m.latency.count() > 0);
            }
            other => panic!("expected metrics, got {other:?}"),
        }

        let resp = client
            .call(&Request {
                id: Some("bye".into()),
                op: Op::Shutdown,
            })
            .expect("shutdown");
        assert_eq!(resp.body, Body::Bye);

        serving.join().expect("server thread")
    });

    assert_eq!(summary.metrics.ok, 1);
    assert_eq!(summary.connections, 1);
}

/// Queries admitted before shutdown are answered during the drain, not
/// dropped: pipeline a batch, immediately request shutdown, and count
/// exactly one response per request with no shed-after-admission.
#[test]
fn drain_completes_admitted_work() {
    let graph = test_graph(17, 200);
    let (p, q) = pq(&graph, 18);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    };
    let engine = Engine::new(&graph);
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");

    const N: usize = 8;
    let handle = server.shutdown_handle();
    let summary = thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine).expect("serve"));
        let _guard = ShutdownGuard(handle);

        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for i in 0..N {
            client
                .send(&query_req(&format!("d{i}"), &p, &q, 0.5, Aggregate::Sum))
                .expect("send");
        }
        client
            .send(&Request {
                id: Some("stop".into()),
                op: Op::Shutdown,
            })
            .expect("send shutdown");

        let mut answered = 0;
        let mut saw_bye = false;
        for _ in 0..=N {
            match client.recv() {
                Ok(Response {
                    body: Body::Bye, ..
                }) => saw_bye = true,
                Ok(Response {
                    body: Body::Ok { .. } | Body::Empty | Body::Shed,
                    ..
                }) => answered += 1,
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => panic!("lost responses during drain: {e}"),
            }
        }
        assert!(saw_bye, "no bye response");
        assert_eq!(answered, N);

        serving.join().expect("server thread")
    });

    // Everything admitted was answered (some tail requests may have been
    // shed if shutdown won the race, but nothing may be silently dropped).
    assert_eq!(
        summary.metrics.ok + summary.metrics.empty + summary.metrics.shed,
        N as u64
    );
}

/// With an answer cache attached, `metrics` accounts for a scripted
/// sequence *exactly*: misses on first sight, hits on repeats (including
/// permuted spellings of the same Q), and invalidation when an update
/// batch lands inside a cached query's region.
#[test]
fn metrics_account_for_cache_hits_misses_and_invalidations() {
    let graph = test_graph(19, 250);
    let (p, q1) = pq(&graph, 20);
    let (_, q2) = pq(&graph, 21);
    assert_ne!(q1, q2, "script needs two distinct Q sets");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    // An edge incident to q1[0]: its endpoint lies inside q1's bounding
    // region, so the update below must invalidate (never retain) the q1
    // entry.
    let (v, w) = graph.neighbors(q1[0]).next().expect("connected graph");

    let metrics = |client: &mut Client| -> fannr_serve::MetricsInfo {
        let resp = client
            .call(&Request {
                id: None,
                op: Op::Metrics,
            })
            .expect("metrics");
        match resp.body {
            Body::Metrics(m) => *m,
            other => panic!("expected metrics, got {other:?}"),
        }
    };

    let ((), summary) = with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let ask = |client: &mut Client, id: &str, q: &[u32]| {
            let resp = client
                .call(&query_req(id, &p, q, 0.5, Aggregate::Max))
                .expect("call");
            assert!(
                matches!(resp.body, Body::Ok { .. } | Body::Empty),
                "{resp:?}"
            );
        };

        // Script: q1 (miss) -> q1 (hit) -> permuted q1 (hit) -> q2 (miss).
        ask(&mut client, "m1", &q1);
        ask(&mut client, "h1", &q1);
        let mut q1_permuted = q1.clone();
        q1_permuted.reverse();
        q1_permuted.push(q1[0]); // duplicate member, same canonical set
        ask(&mut client, "h2", &q1_permuted);
        ask(&mut client, "m2", &q2);

        let m = metrics(&mut client);
        assert_eq!(m.cache_hits, 2, "{m:?}");
        assert_eq!(m.cache_misses, 2, "{m:?}");
        assert_eq!(m.cache_insertions, 2, "{m:?}");
        assert_eq!(m.cache_invalidated, 0, "{m:?}");

        // Update an edge whose endpoint sits inside q1's region: epoch
        // bumps, every cached entry is either invalidated or carried by
        // the region proof — and the q1 entry cannot be carried.
        let resp = client
            .call(&Request {
                id: Some("u".into()),
                op: Op::Update(vec![roadnet::WeightUpdate {
                    u: q1[0],
                    v,
                    w: w.saturating_mul(3),
                }]),
            })
            .expect("update");
        assert!(matches!(resp.body, Body::Updated { .. }), "{resp:?}");

        let m = metrics(&mut client);
        assert_eq!(
            m.cache_invalidated + m.cache_retained,
            2,
            "every live entry must be adjudicated: {m:?}"
        );
        assert!(m.cache_invalidated >= 1, "q1's entry must drop: {m:?}");

        // q1 again: the new epoch forces recomputation.
        ask(&mut client, "m3", &q1);
        let m = metrics(&mut client);
        assert_eq!(m.cache_hits, 2, "{m:?}");
        assert_eq!(m.cache_misses, 3, "{m:?}");
        assert_eq!(m.cache_insertions, 3, "{m:?}");
    });

    // The drain summary carries the same final accounting.
    let m = &summary.metrics;
    assert_eq!(m.cache_hits, 2);
    assert_eq!(m.cache_misses, 3);
    assert_eq!(m.cache_insertions, 3);
    assert!(m.cache_invalidated >= 1);
}

/// A search that runs for a long time index-free: `R-List` sum over all
/// 64 query points spread across the whole network, with dense `P`, so
/// every evaluated candidate expands most of the graph (about a second in
/// a debug build, tens of milliseconds optimised).
fn slow_query(graph: &Graph) -> (Vec<u32>, Vec<u32>) {
    let mut rng = workload::rng(42);
    let p = workload::points::uniform_data_points(graph, 0.2, &mut rng);
    let q = workload::points::uniform_query_points(graph, 64, 1.0, &mut rng);
    (p, q)
}

fn slow_req(id: &str, graph: &Graph) -> Request {
    let (p, q) = slow_query(graph);
    query_req(id, &p, &q, 1.0, Aggregate::Sum)
}

/// While the lone worker is busy with a slow miss, `health` is still
/// answered inline: its reply overtakes the miss queued before it, and
/// the miss then completes.
#[test]
fn health_is_inline_while_the_lone_worker_is_busy() {
    let graph = test_graph(41, 2000);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_capacity: 16,
        ..ServeConfig::default()
    };

    let ((), summary) = with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        client.send(&slow_req("slow", &graph)).expect("send");
        client
            .send(&Request {
                id: Some("h".into()),
                op: Op::Health,
            })
            .expect("send health");

        // Health overtakes the busy worker: the reader answers it.
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id.as_deref(), Some("h"), "health must answer first");
        match resp.body {
            Body::Health(h) => assert_eq!(h.inflight + h.queued, 1, "{h:?}"),
            other => panic!("expected health, got {other:?}"),
        }

        let resp = client.recv().expect("recv");
        assert_eq!(resp.id.as_deref(), Some("slow"));
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");
    });

    let m = &summary.metrics;
    assert_eq!((m.requests, m.ok, m.cache_misses), (1, 1, 1), "{m:?}");
}

/// A burst of queries with one `Q`, eight different `P` and both
/// aggregates, written in one go and pipelined through one worker: each
/// reply is bit-identical to `Engine::query`.
#[test]
fn batched_burst_answers_match_the_engine() {
    const BURST: usize = 8;
    let graph = test_graph(29, 300);
    let engine = Engine::new(&graph);
    let (_, q) = pq(&graph, 30);
    let mut rng = workload::rng(31);
    let queries: Vec<(Vec<u32>, Aggregate)> = (0..BURST)
        .map(|i| {
            let p = workload::points::uniform_data_points(&graph, 0.1, &mut rng);
            (p, [Aggregate::Max, Aggregate::Sum][i % 2])
        })
        .collect();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: BURST,
        ..ServeConfig::default()
    };

    let ((), summary) = with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let burst: Vec<String> = queries
            .iter()
            .enumerate()
            .map(|(i, (p, agg))| query_req(&i.to_string(), p, &q, 0.5, *agg).to_json())
            .collect();
        client.send_raw(&burst.join("\n")).expect("send burst");
        for _ in 0..BURST {
            let resp = client.recv().expect("recv");
            let i: usize = resp.id.as_deref().expect("id").parse().expect("index");
            let (p, agg) = &queries[i];
            let want = engine
                .query(p, &q, 0.5, *agg)
                .expect("valid query")
                .map(|a| (a.p_star, a.dist, a.subset));
            let got = match resp.body {
                Body::Ok {
                    p_star,
                    dist,
                    subset,
                    ..
                } => Some((p_star, dist, subset)),
                other => panic!("query {i}: expected an answer, got {other:?}"),
            };
            assert_eq!(got, want, "query {i} ({agg})");
        }
    });
    assert_eq!(summary.metrics.ok, BURST as u64);
}

/// A cache hit is answered by the reader at admission: it overtakes a
/// worker parked on a slow miss, and it is not shed while the queue is
/// full. One worker, a depth-1 queue:
/// 1. warm query A;
/// 2. pipeline the slow miss B and A again: A's reply comes first,
///    bit-identical;
/// 3. pipeline a burst — a slow miss, then distinct fast misses — and A
///    a third time: the burst outruns
///    the lone worker and some of it is shed, A is not, and A's reply
///    overtakes the slow miss.
///
/// Every query that was not shed is counted once by the cache.
#[test]
fn a_hit_overtakes_a_parked_worker_and_is_never_shed() {
    let graph = test_graph(41, 2000);
    let (p, q) = pq(&graph, 26);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        cache_capacity: 256,
        ..ServeConfig::default()
    };
    const BURST: u64 = 40;
    let a = |id: &str| query_req(id, &p, &q, 0.5, Aggregate::Max);
    // A reply's answer and strategy, without its timing.
    let answer = |resp: &Response| match &resp.body {
        Body::Ok {
            p_star,
            dist,
            subset,
            strategy,
            ..
        } => (*p_star, *dist, subset.clone(), strategy.clone()),
        other => panic!("expected an answer, got {other:?}"),
    };

    let (shed, summary) = with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let warm = answer(&client.call(&a("a1")).expect("warm"));

        client.send(&slow_req("b", &graph)).expect("send b");
        client.send(&a("a2")).expect("send a2");
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id.as_deref(), Some("a2"), "the hit must answer first");
        assert_eq!(answer(&resp), warm, "a hit replays the computed answer");
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id.as_deref(), Some("b"));
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");

        // One write, so the reader meets the whole burst at once. It
        // leads with the slow query at another `phi`: a miss that keeps
        // the worker busy.
        let (sp, sq) = slow_query(&graph);
        let mut burst = vec![query_req("c0", &sp, &sq, 0.5, Aggregate::Sum).to_json()];
        burst.extend((1..BURST).map(|i| {
            let (pc, qc) = pq(&graph, 100 + i);
            query_req(&format!("c{i}"), &pc, &qc, 0.5, Aggregate::Sum).to_json()
        }));
        burst.push(a("a3").to_json());
        client.send_raw(&burst.join("\n")).expect("send burst");
        let (mut shed, mut a3_seen) = (0, false);
        for _ in 0..=BURST {
            let resp = client.recv().expect("recv");
            match resp.id.as_deref() {
                Some("a3") => {
                    assert_eq!(answer(&resp), warm, "a hit replays the computed answer");
                    a3_seen = true;
                    continue;
                }
                Some("c0") => assert!(a3_seen, "the hit must overtake the slow miss"),
                _ => {}
            }
            match resp.body {
                Body::Shed => shed += 1,
                Body::Ok { .. } | Body::Empty => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(shed > 0, "a burst of {BURST} through one worker never shed");
        shed
    });

    let m = &summary.metrics;
    assert_eq!(m.shed, shed, "{m:?}");
    assert_eq!(m.cache_hits, 2, "{m:?}");
    let queries = 3 + 1 + BURST;
    assert_eq!(m.cache_hits + m.cache_misses, queries - m.shed, "{m:?}");
    assert_eq!(m.requests, queries - m.shed, "{m:?}");
    assert_eq!(m.ok + m.empty, queries - m.shed, "{m:?}");
}

/// A deadline that lapses mid-search stops the search: the slow miss,
/// given a tenth of its measured uncancelled time as `deadline_ms`, is
/// answered `cancelled` in well under half that time, and `metrics`
/// counts exactly one more cancellation.
#[test]
fn a_deadline_cancels_a_running_search() {
    let graph = test_graph(41, 2000);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let cancelled = |client: &mut Client| match client
        .call(&Request {
            id: None,
            op: Op::Metrics,
        })
        .expect("metrics")
        .body
    {
        Body::Metrics(m) => m.cancelled,
        other => panic!("expected metrics, got {other:?}"),
    };

    with_server(config, &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let started = std::time::Instant::now();
        let resp = client.call(&slow_req("free", &graph)).expect("call");
        let full = started.elapsed();
        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");
        let before = cancelled(&mut client);

        let mut req = slow_req("bounded", &graph);
        let deadline_ms = (full.as_millis() as u64 / 10).max(1);
        if let Op::Query(spec) = &mut req.op {
            spec.deadline_ms = Some(deadline_ms);
        }
        let started = std::time::Instant::now();
        let resp = client.call(&req).expect("call");
        let bounded = started.elapsed();
        assert_eq!(resp.body, Body::Cancelled, "{resp:?}");
        assert!(
            bounded < full / 2,
            "cancelled after {bounded:?} with a {deadline_ms} ms deadline; \
             the search runs {full:?} uncancelled"
        );
        assert_eq!(cancelled(&mut client), before + 1);
    });
}

/// Update lines pipelined on one connection apply in line order: the
/// acks come back in order with consecutive epochs, and answers are
/// bit-identical to a local engine fed the same batches.
#[test]
fn pipelined_updates_ack_in_order_and_stay_exact() {
    let graph = test_graph(31, 200);
    let (p, q) = pq(&graph, 32);
    let mirror = Engine::new(&graph);

    // Two disjoint single-edge batches, each tripling an edge weight.
    let mut edges = graph.edges();
    let (u1, v1, w1) = edges.next().expect("edge");
    let (u2, v2, w2) = edges
        .find(|&(a, b, _)| a != u1 && a != v1 && b != u1 && b != v1)
        .expect("second edge");
    let batches = [(u1, v1, w1), (u2, v2, w2)].map(|(u, v, w)| {
        vec![roadnet::WeightUpdate {
            u,
            v,
            w: w.saturating_mul(3),
        }]
    });

    let ((), _summary) = with_server(free_port_config(), &graph, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for (i, batch) in batches.iter().enumerate() {
            client
                .send(&Request {
                    id: Some(format!("u{i}")),
                    op: Op::Update(batch.clone()),
                })
                .expect("send");
        }
        for (i, want_epoch) in [(0, 1), (1, 2)] {
            let resp = client.recv().expect("recv");
            assert_eq!(resp.id, Some(format!("u{i}")), "acks in line order");
            match resp.body {
                Body::Updated { epoch, applied } => {
                    assert_eq!((epoch, applied), (want_epoch, 1), "u{i}");
                }
                other => panic!("expected an update ack, got {other:?}"),
            }
        }

        for batch in &batches {
            mirror.apply_updates(batch).expect("mirror");
        }
        for (id, agg) in [("q-sum", Aggregate::Sum), ("q-max", Aggregate::Max)] {
            let resp = client
                .call(&query_req(id, &p, &q, 0.5, agg))
                .expect("query");
            let expected = mirror.query(&p, &q, 0.5, agg).expect("valid query");
            match (&resp.body, expected) {
                (
                    Body::Ok {
                        p_star,
                        dist,
                        subset,
                        ..
                    },
                    Some(ans),
                ) => {
                    assert_eq!(*p_star, ans.p_star, "{id}");
                    assert_eq!(*dist, ans.dist, "{id}");
                    assert_eq!(*subset, ans.subset, "{id}");
                }
                (Body::Empty, None) => {}
                (body, expected) => panic!("{id}: got {body:?}, expected {expected:?}"),
            }
        }
    });
}

/// `health.queued` is a gauge of jobs in (or entering) the admission
/// queue, so it can never exceed the queue depth — in particular a
/// worker's decrement must not overtake the reader's increment and wrap
/// the counter to ~2^64. Poll `health` from a second connection while two
/// closed loops keep the queue turning over.
#[test]
fn health_queued_stays_within_queue_depth_under_load() {
    let graph = test_graph(27, 150);
    let (p, q) = pq(&graph, 28);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        // No cache: a hit would be answered at admission and never touch
        // the queue; each request here is a short index-free search.
        ..ServeConfig::default()
    };
    let depth = config.queue_depth as u64;
    const PER_LOOP: usize = 4_000;

    with_server(config, &graph, |addr| {
        let running = AtomicUsize::new(2);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..PER_LOOP {
                        let resp = client
                            .call(&query_req(&i.to_string(), &p, &q, 0.5, Aggregate::Max))
                            .expect("query");
                        assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            let mut poller = Client::connect(addr).expect("connect");
            let mut samples = 0u64;
            while running.load(Ordering::SeqCst) > 0 {
                let resp = poller
                    .call(&Request {
                        id: None,
                        op: Op::Health,
                    })
                    .expect("health reply must parse (a wrapped `queued` does not)");
                match resp.body {
                    Body::Health(h) => assert!(
                        h.queued <= depth,
                        "queued = {} with a {depth}-deep queue (sample {samples})",
                        h.queued
                    ),
                    other => panic!("expected health, got {other:?}"),
                }
                samples += 1;
            }
            assert!(samples > 0, "the loops finished before a single poll");
        });
    });
}

/// The `strategy` in a reply is the one that computed it. Labels are
/// swapped in (as the cold-start background build does) while an
/// index-free query is in flight; that reply must still say it ran
/// index-free, and the server's label-lookup counter — which only IER-kNN
/// moves — must agree with every reply's label.
#[test]
fn reply_names_the_strategy_that_ran_across_a_label_swap() {
    let graph = test_graph(29, 1_500);
    let mut rng = workload::rng(30);
    let p = workload::points::uniform_data_points(&graph, 0.5, &mut rng);
    let q = workload::points::uniform_query_points(&graph, 48, 0.9, &mut rng);
    let labels = hublabel::HubLabels::build(&graph).unwrap();
    let engine = Engine::new(&graph);
    let server = Server::bind(ServeConfig {
        workers: 1,
        ..free_port_config()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();

    thread::scope(|scope| {
        scope.spawn(|| server.run(&engine).expect("serve"));
        let _guard = ShutdownGuard(handle);
        let mut client = Client::connect(addr).expect("connect");
        let mut control = Client::connect(addr).expect("connect");
        let mut lookups_before = 0;
        let mut check = |client: &mut Client, control: &mut Client, id: &str| {
            let resp = client.recv().expect("recv");
            assert_eq!(resp.id.as_deref(), Some(id));
            let Body::Ok { strategy, .. } = &resp.body else {
                panic!("{id}: expected an answer, got {resp:?}");
            };
            let metrics = control
                .call(&Request {
                    id: None,
                    op: Op::Metrics,
                })
                .expect("metrics");
            let Body::Metrics(m) = metrics.body else {
                panic!("expected metrics, got {metrics:?}");
            };
            let used_labels = m.search.label_lookups > lookups_before;
            lookups_before = m.search.label_lookups;
            assert_eq!(
                strategy == "IER-kNN/PHL",
                used_labels,
                "{id}: labelled {strategy}, label lookups moved: {used_labels}"
            );
            strategy.clone()
        };

        // A slow index-free query; swap the labels in once it is running.
        client
            .send(&query_req("cold", &p, &q, 1.0, Aggregate::Sum))
            .expect("send");
        // (Should the query ever finish before a poll sees it, stop
        // waiting: the check below holds for any interleaving.)
        let give_up = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < give_up {
            let health = control
                .call(&Request {
                    id: None,
                    op: Op::Health,
                })
                .expect("health");
            match health.body {
                Body::Health(h) if h.inflight == 1 => break,
                Body::Health(_) => thread::yield_now(),
                other => panic!("expected health, got {other:?}"),
            }
        }
        let _ = engine.clone().with_prebuilt_labels(labels);
        check(&mut client, &mut control, "cold");

        // From here on the labels answer, and the replies say so.
        client
            .send(&query_req("warm", &p, &q, 1.0, Aggregate::Sum))
            .expect("send");
        assert_eq!(check(&mut client, &mut control, "warm"), "IER-kNN/PHL");
    });
}
