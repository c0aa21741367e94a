//! End-to-end tests for the partitioned serving tier: a real shard
//! deployment (N `Server`s in shard mode + one `Router`) over real TCP
//! sockets, checked bit-for-bit against a single in-process [`Engine`].
//!
//! The contract under test (DESIGN.md §12): the router is
//! indistinguishable from one server — same wire protocol, same answers,
//! same tie-breaking — except that a degraded shard degrades only queries
//! its region could still influence, surfaced as the typed `upstream`
//! error.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fannr::fann::engine::Engine;
use fannr::fann::{flex_k, Aggregate};
use fannr::roadnet::dijkstra::dijkstra_all;
use fannr::roadnet::flat::FlatError;
use fannr::roadnet::{Graph, GraphBuilder, Point, ShardMap, WeightUpdate, INF};
use fannr::router::{Router, RouterConfig};
use fannr::serve::{
    Body, Client, Op, QuerySpec, Request, ServeConfig, Server, ShardRole, MAX_LINE_BYTES,
};
use proptest::prelude::*;

fn test_graph(seed: u64, nodes: usize) -> Graph {
    let mut rng = workload::rng(seed);
    workload::synth::road_network(nodes, &mut rng)
}

/// Deduplicated P and Q drawn from the workload generators, so
/// `phi = 1/|Q|` is well-defined on the wire and in the engine alike.
fn pq(graph: &Graph, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = workload::rng(seed);
    let p = workload::points::uniform_data_points(graph, 0.05, &mut rng);
    let mut q = workload::points::uniform_query_points(graph, 6, 0.5, &mut rng);
    q.sort_unstable();
    q.dedup();
    (p, q)
}

/// Trips a shutdown handle on drop so a panicking test body cannot leave
/// a server or router thread spinning inside `thread::scope`.
struct Guard<F: Fn()>(F);

impl<F: Fn()> Drop for Guard<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Launch one shard server per part plus the router, run `f` against the
/// deployment, then drain everything. `mk_engine` builds each shard's
/// engine, so every strategy configuration (labels, approx-sum) can be
/// deployed. `f` gets the router's address, the shards' addresses and the
/// threads running every shard and the router; each thread panics if its
/// `run` returns an error, which fails the test when the scope ends.
fn with_deployment<T>(
    graph: &Graph,
    parts: &[Vec<u32>],
    mk_engine: impl Fn() -> Engine,
    f: impl FnOnce(SocketAddr, &[SocketAddr], &[thread::ScopedJoinHandle<'_, ()>]) -> T,
) -> T {
    let map = Arc::new(ShardMap::build(graph, parts));
    thread::scope(|scope| {
        let mut shard_addrs = Vec::new();
        let mut handles = Vec::new();
        let mut running = Vec::new();
        for s in 0..parts.len() as u32 {
            let engine = mk_engine();
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                shard: Some(ShardRole {
                    id: s,
                    map: Arc::clone(&map),
                }),
                ..ServeConfig::default()
            })
            .expect("bind shard");
            shard_addrs.push(server.local_addr().expect("shard addr"));
            handles.push(server.shutdown_handle());
            running.push(scope.spawn(move || {
                server.run(&engine).expect("shard run");
            }));
        }
        let router = Router::bind(RouterConfig::new(
            "127.0.0.1:0",
            shard_addrs.iter().map(|a| a.to_string()).collect(),
            Arc::clone(&map),
            graph.clone(),
        ))
        .expect("bind router");
        let router_addr = router.local_addr().expect("router addr");
        let router_handle = router.shutdown_handle();
        running.push(scope.spawn(move || {
            router.run().expect("router run");
        }));
        let guard = Guard(move || {
            router_handle.shutdown();
            for h in &handles {
                h.shutdown();
            }
        });
        let out = f(router_addr, &shard_addrs, &running);
        drop(guard);
        out
    })
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

/// The wire answer reduced to what must match the engine bit-for-bit.
fn wire_answer(body: &Body) -> Option<(u32, u64, Vec<u32>, String)> {
    match body {
        Body::Ok {
            p_star,
            dist,
            subset,
            strategy,
            ..
        } => Some((*p_star, *dist, subset.clone(), strategy.clone())),
        Body::Empty => None,
        other => panic!("expected ok/empty, got {other:?}"),
    }
}

/// The FANN_R aggregate of `p` over the `k` nearest query points, straight
/// from the paper's definition — an independent oracle for tie detection.
fn flex_aggregate(g: &Graph, p: u32, q: &[u32], k: usize, agg: Aggregate) -> Option<u64> {
    let dist = dijkstra_all(g, p);
    let mut ds: Vec<u64> = q
        .iter()
        .map(|&qv| dist[qv as usize])
        .filter(|&d| d != INF)
        .collect();
    if ds.len() < k {
        return None;
    }
    ds.sort_unstable();
    match agg {
        Aggregate::Max => Some(ds[k - 1]),
        Aggregate::Sum => Some(ds[..k].iter().sum()),
    }
}

/// Whether the optimum is achieved by exactly one candidate. The scan-order
/// strategies (R-List, IER-kNN) only promise bit-identical `p_star` across
/// different P orderings — which is what sharding induces — when the
/// optimum is unique; on ties the merged answer still has the optimal
/// distance, just possibly a different witness.
fn optimum_is_unique(g: &Graph, p: &[u32], q: &[u32], k: usize, agg: Aggregate) -> bool {
    let best = p
        .iter()
        .filter_map(|&c| flex_aggregate(g, c, q, k, agg))
        .min();
    match best {
        Some(b) => {
            p.iter()
                .filter(|&&c| flex_aggregate(g, c, q, k, agg) == Some(b))
                .count()
                == 1
        }
        None => true,
    }
}

/// The full strategy matrix, deterministically: every served strategy
/// (Exact-max, R-List/INE, IER-kNN/PHL, APX-sum/INE) × both aggregates ×
/// phi ∈ {1/|Q|, 0.5, 1}, each answer through a 2- and a 3-shard
/// deployment, bit-identical to the single engine — including the
/// strategy name, proving the shards actually ran that strategy.
#[test]
fn matrix_bit_identical_to_single_engine() {
    let g = test_graph(7, 300);
    let (p, q) = pq(&g, 8);
    let phis = [1.0 / q.len() as f64, 0.5, 1.0];

    // (engine builder, aggregates it serves exactly)
    type Mk<'a> = Box<dyn Fn() -> Engine + 'a>;
    let configs: Vec<(&str, Mk, Vec<Aggregate>)> = vec![
        (
            "index-free",
            Box::new(|| Engine::new(&g)),
            vec![Aggregate::Max, Aggregate::Sum],
        ),
        (
            "labels",
            Box::new(|| Engine::new(&g).with_labels()),
            vec![Aggregate::Max, Aggregate::Sum],
        ),
    ];
    for shards in [2usize, 3] {
        let parts = fannr::gtree::top_level_cut(&g, shards);
        for (tag, mk, aggs) in &configs {
            let single = mk();
            with_deployment(&g, &parts, mk, |router_addr, _, _| {
                let mut client = Client::connect(router_addr).expect("connect");
                for &agg in aggs {
                    for (pi, &phi) in phis.iter().enumerate() {
                        let id = format!("{tag}-{shards}-{agg}-{pi}");
                        let resp = client
                            .call(&query_req(&id, &p, &q, phi, agg))
                            .expect("query");
                        let got = wire_answer(&resp.body);
                        let want = single.query(&p, &q, phi, agg).expect("valid query");
                        let want = want.map(|a| {
                            (
                                a.p_star,
                                a.dist,
                                a.subset,
                                single.strategy_for(agg).name().to_string(),
                            )
                        });
                        assert_eq!(got, want, "divergence on {id}");
                    }
                }
            });
        }
    }
}

/// With P colocated in one shard, the index-free sum (`R-List`) answers
/// through the router bit-identically to a plain engine, and the second
/// shard, which owns a single node outside P, is never contacted.
#[test]
fn r_list_bit_identical_when_p_colocated() {
    let g = test_graph(11, 300);
    let (p, q) = pq(&g, 12);
    let outsider = (0..g.num_nodes() as u32)
        .find(|v| !p.contains(v))
        .expect("a node outside P");
    let parts = vec![
        (0..g.num_nodes() as u32)
            .filter(|&v| v != outsider)
            .collect::<Vec<_>>(),
        vec![outsider],
    ];
    let mk = || Engine::new(&g);
    let single = mk();
    with_deployment(&g, &parts, mk, |router_addr, shard_addrs, _| {
        let mut client = Client::connect(router_addr).expect("connect");
        for (i, phi) in [1.0 / q.len() as f64, 0.5, 1.0].into_iter().enumerate() {
            let id = format!("rlist-{i}");
            let resp = client
                .call(&query_req(&id, &p, &q, phi, Aggregate::Sum))
                .expect("query");
            let got = wire_answer(&resp.body);
            let want = single
                .query(&p, &q, phi, Aggregate::Sum)
                .expect("valid query")
                .map(|a| {
                    (
                        a.p_star,
                        a.dist,
                        a.subset,
                        single.strategy_for(Aggregate::Sum).name().to_string(),
                    )
                });
            assert_eq!(got, want, "divergence on {id}");
        }
        // The colocated deployment never touches the empty shard.
        let mut s1 = Client::connect(shard_addrs[1]).expect("connect shard 1");
        let resp = s1
            .call(&Request {
                id: None,
                op: Op::Metrics,
            })
            .expect("metrics");
        match resp.body {
            Body::Metrics(m) => assert_eq!(m.requests, 0, "empty shard was queried"),
            other => panic!("expected metrics, got {other:?}"),
        }
    });
}

/// Three shards and a Q whose bounding box is the whole network: every
/// shard's bound is 0, so none is pruned and the second wave has two live
/// shards, one called on the router's thread and one on a scoped thread.
/// The merged answer is the single engine's, and the router counts all
/// three shards contacted.
#[test]
fn three_shard_wave_contacts_every_shard() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 3);
    assert_eq!(parts.len(), 3);
    // Q = the extreme node on each side, so b_Q is the network's box.
    let extreme = |key: fn(Point) -> f64| {
        let cmp = |a: &u32, b: &u32| key(g.coord(*a)).total_cmp(&key(g.coord(*b)));
        let nodes = 0..g.num_nodes() as u32;
        [
            nodes.clone().min_by(cmp).unwrap(),
            nodes.max_by(cmp).unwrap(),
        ]
    };
    let mut q = [extreme(|c| c.x), extreme(|c| c.y)].concat();
    q.sort_unstable();
    q.dedup();
    let p: Vec<u32> = parts
        .iter()
        .flat_map(|part| part.iter().take(4).copied())
        .collect();
    let single = Engine::new(&g);
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, _, _| {
            let mut client = Client::connect(router_addr).expect("connect");
            for agg in [Aggregate::Max, Aggregate::Sum] {
                let resp = client
                    .call(&query_req("wave", &p, &q, 0.5, agg))
                    .expect("query");
                let got = wire_answer(&resp.body).map(|(ps, d, s, _)| (ps, d, s));
                let want = single
                    .query(&p, &q, 0.5, agg)
                    .expect("valid query")
                    .map(|a| (a.p_star, a.dist, a.subset));
                assert_eq!(got, want, "divergence ({agg})");
            }
            let resp = client
                .call(&Request {
                    id: None,
                    op: Op::Metrics,
                })
                .expect("metrics");
            match resp.body {
                Body::Metrics(m) => {
                    assert_eq!(m.shards_contacted, 6, "{m:?}");
                    assert_eq!(m.shards_pruned, 0, "{m:?}");
                }
                other => panic!("expected metrics, got {other:?}"),
            }
        },
    );
}

/// Weight updates route only to the shard owning the edge; the ack carries
/// that shard's new epoch, the other shard stays at its old epoch, and the
/// router's health reports the deployment maximum. A second batch spanning
/// both shards is applied once by each owner under one merged ack
/// (`applied` summed, `epoch` the maximum). Shard health also carries the
/// shard observability fields, and answers afterwards match a local engine
/// fed the same batches.
#[test]
fn update_routes_to_owning_shard_only() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 2);
    let map = ShardMap::build(&g, &parts);
    // An edge owned by each shard, disjoint endpoints; weights only move
    // up, so every update is admissible.
    let edge_owned_by = |s: u32, skip: Option<(u32, u32)>| {
        (0..g.num_nodes() as u32)
            .flat_map(|a| g.neighbors(a).map(move |(b, w)| (a, b, w)))
            .find(|&(a, b, _)| {
                map.edge_owner(a, b) == s
                    && skip.is_none_or(|(x, y)| a != x && a != y && b != x && b != y)
            })
            .unwrap_or_else(|| panic!("an edge owned by shard {s}"))
    };
    let (u, v, w) = edge_owned_by(1, None);
    let (u0, v0, w0) = edge_owned_by(0, Some((u, v)));
    let first = vec![WeightUpdate { u, v, w: w * 2 }];
    let spanning = vec![
        WeightUpdate {
            u: u0,
            v: v0,
            w: w0 * 2,
        },
        WeightUpdate { u, v, w: w * 3 },
    ];
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, shard_addrs, _| {
            let mut client = Client::connect(router_addr).expect("connect");
            let mut update = |id: &str, batch: &[WeightUpdate]| -> (u64, u64) {
                let resp = client
                    .call(&Request {
                        id: Some(id.into()),
                        op: Op::Update(batch.to_vec()),
                    })
                    .expect("update");
                match resp.body {
                    Body::Updated { epoch, applied } => (epoch, applied),
                    other => panic!("expected updated ack, got {other:?}"),
                }
            };
            assert_eq!(update("up", &first), (1, 1));
            let health = |addr: SocketAddr| -> fannr::serve::HealthInfo {
                let mut c = Client::connect(addr).expect("connect");
                match c
                    .call(&Request {
                        id: None,
                        op: Op::Health,
                    })
                    .expect("health")
                    .body
                {
                    Body::Health(h) => h,
                    other => panic!("expected health, got {other:?}"),
                }
            };
            let h0 = health(shard_addrs[0]);
            let h1 = health(shard_addrs[1]);
            assert_eq!(h0.epoch, 0, "non-owning shard must not apply the edge");
            assert_eq!(h1.epoch, 1, "owning shard must apply the edge");
            assert_eq!(h0.shard, Some(0));
            assert_eq!(h1.shard, Some(1));
            assert_eq!(h0.owned_nodes, parts[0].len() as u64);
            assert_eq!(h1.owned_nodes, parts[1].len() as u64);
            assert!(h0.region.is_some() && h1.region.is_some());
            // The router's deployment view is the maximum shard epoch.
            assert_eq!(health(router_addr).epoch, 1);

            // The spanning batch: each owner applies its one edge, the
            // merged ack sums them and carries the newest shard epoch.
            assert_eq!(update("span", &spanning), (2, 2));
            assert_eq!(health(shard_addrs[0]).epoch, 1, "shard 0 applied once");
            assert_eq!(health(shard_addrs[1]).epoch, 2, "shard 1 applied twice");
            assert_eq!(health(router_addr).epoch, 2);

            // Queries afterwards still match a local engine that applied
            // the same batches in the same order.
            let engine = Engine::new(&g);
            let (p, q) = pq(&g, 21);
            for batch in [&first, &spanning] {
                engine.apply_updates(batch).expect("local update");
            }
            for agg in [Aggregate::Max, Aggregate::Sum] {
                let resp = client
                    .call(&query_req("post", &p, &q, 0.5, agg))
                    .expect("query");
                let got = wire_answer(&resp.body).map(|(ps, d, s, _)| (ps, d, s));
                let want = engine
                    .query(&p, &q, 0.5, agg)
                    .expect("valid")
                    .map(|a| (a.p_star, a.dist, a.subset));
                assert_eq!(got, want, "post-update divergence ({agg})");
            }
        },
    );
}

/// A line one byte over the shared line cap gets a typed `error` naming
/// the limit from the router itself, and the same connection still
/// answers `health`.
#[test]
fn overlong_line_gets_an_error_from_the_router() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 2);
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, _, _| {
            let mut client = Client::connect(router_addr).expect("connect");
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
                .call(&Request {
                    id: Some("h".into()),
                    op: Op::Health,
                })
                .expect("health");
            assert!(matches!(resp.body, Body::Health(_)), "{resp:?}");
        },
    );
}

/// The router parses every line itself before any fan-out: a line of
/// 100 000 `[`, or the retired `update_stream` op an older client may
/// still send, gets a typed `error` from the router, and the deployment
/// still answers `health` on the same connection and on a new one.
#[test]
fn deeply_nested_line_gets_an_error_from_the_router() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 2);
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, _, _| {
            let mut client = Client::connect(router_addr).expect("connect");
            for line in [
                "[".repeat(100_000),
                r#"{"op":"update_stream","seq":1,"updates":[{"u":0,"v":1,"w":5}]}"#.to_string(),
            ] {
                client.send_raw(&line).expect("send");
                let resp = client.recv().expect("recv");
                assert!(matches!(resp.body, Body::Error { .. }), "{resp:?}");
            }
            let health = Request {
                id: Some("h".into()),
                op: Op::Health,
            };
            let resp = client.call(&health).expect("health");
            assert!(matches!(resp.body, Body::Health(_)), "{resp:?}");

            let mut fresh = Client::connect(router_addr).expect("reconnect");
            let resp = fresh.call(&health).expect("health");
            assert!(matches!(resp.body, Body::Health(_)), "{resp:?}");
        },
    );
}

/// A dead shard degrades only its region: queries whose candidates span it
/// fail with the typed `upstream` error naming the shard, queries entirely
/// inside live shards still answer exactly, and the router's metrics count
/// the upstream failure.
#[test]
fn one_shard_down_degrades_only_its_region() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 2);
    let (p, q) = pq(&g, 8);
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, shard_addrs, _| {
            let mut client = Client::connect(router_addr).expect("connect");
            // Warm both pools so the dead-connection retry path is exercised.
            let warm = client
                .call(&query_req("warm", &p, &q, 0.5, Aggregate::Max))
                .expect("warm query");
            assert!(matches!(warm.body, Body::Ok { .. }));

            // Drain shard 1 directly (not through the router).
            let mut s1 = Client::connect(shard_addrs[1]).expect("connect shard 1");
            let resp = s1
                .call(&Request {
                    id: None,
                    op: Op::Shutdown,
                })
                .expect("shutdown shard 1");
            assert_eq!(resp.body, Body::Bye);
            std::thread::sleep(std::time::Duration::from_millis(100));

            // Q spans the network, so neither shard's region is prunable and
            // the dead shard is material: typed upstream error naming it.
            let resp = client
                .call(&query_req("span", &p, &q, 0.5, Aggregate::Max))
                .expect("spanning query");
            match resp.body {
                Body::Upstream { shard, .. } => assert_eq!(shard, 1),
                other => panic!("expected upstream error, got {other:?}"),
            }

            // Candidates wholly inside the live shard still answer, exactly.
            let engine = Engine::new(&g);
            let p0: Vec<u32> = p
                .iter()
                .copied()
                .filter(|&v| parts[0].binary_search(&v).is_ok())
                .collect();
            assert!(!p0.is_empty(), "workload P misses shard 0 entirely");
            let resp = client
                .call(&query_req("live", &p0, &q, 0.5, Aggregate::Max))
                .expect("live-shard query");
            let got = wire_answer(&resp.body).map(|(ps, d, s, _)| (ps, d, s));
            let want = engine
                .query(&p0, &q, 0.5, Aggregate::Max)
                .expect("valid")
                .map(|a| (a.p_star, a.dist, a.subset));
            assert_eq!(got, want, "live shard must still answer exactly");

            // Deployment-wide observability fans to every shard, so a dead
            // shard turns health and metrics into the same typed error —
            // that is how an operator notices which shard is down.
            for op in [Op::Health, Op::Metrics] {
                let resp = client.call(&Request { id: None, op }).expect("probe");
                match resp.body {
                    Body::Upstream { shard, .. } => assert_eq!(shard, 1),
                    other => panic!("expected upstream error from probe, got {other:?}"),
                }
            }
        },
    );
}

/// One wire `shutdown` sent to the router drains the whole deployment:
/// the router answers `bye` and forwards the shutdown, so the router's
/// and both shards' `run` calls return on their own (`with_deployment`
/// trips the shutdown handles only after the body has checked that).
/// Before that, the router itself answers a 0 ms deadline `cancelled`
/// and counts it in its metrics.
#[test]
fn wire_shutdown_to_the_router_drains_every_shard() {
    let g = test_graph(7, 300);
    let parts = fannr::gtree::top_level_cut(&g, 2);
    let (p, q) = pq(&g, 8);
    with_deployment(
        &g,
        &parts,
        || Engine::new(&g),
        |router_addr, _, running| {
            let mut client = Client::connect(router_addr).expect("connect");
            let resp = client
                .call(&query_req("ok", &p, &q, 0.5, Aggregate::Max))
                .expect("query");
            assert!(matches!(resp.body, Body::Ok { .. }), "{resp:?}");

            let mut doomed = query_req("doomed", &p, &q, 0.5, Aggregate::Sum);
            if let Op::Query(spec) = &mut doomed.op {
                spec.deadline_ms = Some(0);
            }
            let resp = client.call(&doomed).expect("doomed query");
            assert_eq!(resp.body, Body::Cancelled, "{resp:?}");

            let resp = client
                .call(&Request {
                    id: None,
                    op: Op::Metrics,
                })
                .expect("metrics");
            match resp.body {
                Body::Metrics(m) => {
                    assert_eq!((m.ok, m.cancelled), (1, 1), "{m:?}");
                    assert_eq!(m.requests, m.ok + m.empty + m.cancelled + m.errors, "{m:?}");
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
            let deadline = Instant::now() + Duration::from_secs(5);
            while !running.iter().all(|t| t.is_finished()) {
                assert!(
                    Instant::now() < deadline,
                    "the deployment was still running 5 s after a wire shutdown"
                );
                thread::sleep(Duration::from_millis(20));
            }
        },
    );
}

/// The seed 7 and seed 8 networks at 2000 nodes have the same node count,
/// so a node-count check cannot tell their shard maps apart: seed 8's map
/// is refused against seed 7's graph with a typed error naming the shard
/// map, and seed 7's own map loads. (`tests/cli.rs` runs the same swap
/// through `fannr serve --shard-map` and `fannr route`.)
#[test]
fn swapped_shard_map_is_refused_by_the_graph_fingerprint() {
    let (g7, g8) = (test_graph(7, 2000), test_graph(8, 2000));
    assert_eq!(g7.num_nodes(), g8.num_nodes());
    let path = std::env::temp_dir().join(format!("fannr-swapmap-{}", std::process::id()));
    ShardMap::build(&g8, &fannr::gtree::top_level_cut(&g8, 2))
        .write_flat(&path)
        .expect("write map");
    match ShardMap::read_flat_for(&path, &g7) {
        Err(FlatError::GraphMismatch {
            artifact,
            built_for,
            graph,
        }) => {
            assert_eq!(artifact, "shard map");
            assert_eq!(built_for, g8.fingerprint());
            assert_eq!(graph, g7.fingerprint());
        }
        other => panic!("swapped shard map: got {:?}", other.err()),
    }
    ShardMap::build(&g7, &fannr::gtree::top_level_cut(&g7, 2))
        .write_flat(&path)
        .expect("write map");
    let map = ShardMap::read_flat_for(&path, &g7).expect("the graph's own map");
    assert_eq!(map.graph_fingerprint(), g7.fingerprint());
    std::fs::remove_file(&path).ok();
}

/// A random connected graph: spanning tree + extra random edges, weights
/// dominating the Euclidean floor (the same shape `tests/properties.rs`
/// uses, so the pruning scale is honest).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..24, 0usize..16, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node((next() % 1000) as f64, (next() % 1000) as f64);
        }
        let euclid = |b: &GraphBuilder, u: u32, v: u32| {
            let (ux, uy) = b.coord_of(u);
            let (vx, vy) = b.coord_of(v);
            ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
        };
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            let w = euclid(&b, u, v).ceil() as u32 + (next() % 50) as u32;
            b.add_edge(u, v, w.max(1));
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                let w = euclid(&b, u, v).ceil() as u32 + (next() % 50) as u32;
                b.add_edge(u, v, w.max(1));
            }
        }
        b.build()
    })
}

/// Graph, deduped P and Q, phi, and a *random* partition into 2–4 shards
/// (possibly unbalanced, possibly with empty shards) — nothing about the
/// router may depend on the partition being geometric or balanced.
type PartitionedInstance = (Graph, Vec<u32>, Vec<u32>, f64, Vec<Vec<u32>>);

fn arb_partitioned_instance() -> impl Strategy<Value = PartitionedInstance> {
    (arb_graph(), any::<u64>(), 1usize..101, 2usize..5).prop_map(|(g, seed, phi_pct, shards)| {
        let n = g.num_nodes();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pick = |count: usize| -> Vec<u32> {
            let mut v: Vec<u32> = (0..count).map(|_| (next() % n as u64) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let p = pick(1 + (seed % 7) as usize);
        let q = pick(1 + (seed / 7 % 7) as usize);
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for v in 0..n as u32 {
            parts[(next() % shards as u64) as usize].push(v);
        }
        (g, p, q, (phi_pct as f64) / 100.0, parts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random graphs and random (even adversarial) partitions, the
    /// routed answer matches the single engine: bit-for-bit when the
    /// optimum is unique, and on the optimal distance always (ties may
    /// legitimately pick a different witness across P scan orders).
    #[test]
    fn random_partition_matches_single_engine(
        (g, p, q, phi, parts) in arb_partitioned_instance()
    ) {
        let single = Engine::new(&g);
        let outcome = with_deployment(&g, &parts, || Engine::new(&g), |router_addr, _, _| {
            let mut client = Client::connect(router_addr).expect("connect");
            let mut checks = Vec::new();
            for agg in [Aggregate::Max, Aggregate::Sum] {
                let resp = client
                    .call(&query_req("pp", &p, &q, phi, agg))
                    .expect("query");
                checks.push((agg, wire_answer(&resp.body)));
            }
            checks
        });
        let k = flex_k(phi, q.len());
        for (agg, got) in outcome {
            let want = single.query(&p, &q, phi, agg).expect("valid query");
            let got = got.map(|(ps, d, s, _)| (ps, d, s));
            let want = want.map(|a| (a.p_star, a.dist, a.subset));
            if optimum_is_unique(&g, &p, &q, k, agg) {
                prop_assert_eq!(got, want, "unique-optimum divergence ({})", agg);
            } else {
                prop_assert_eq!(
                    got.as_ref().map(|(_, d, _)| *d),
                    want.as_ref().map(|(_, d, _)| *d),
                    "optimal distance divergence on a tie ({})",
                    agg
                );
            }
        }
    }

    /// Pruning soundness: for every shard with candidates, the router's
    /// bound `flex_k(phi,|Q|)·scale·mdist(b_Q, region)` (per-term for MAX)
    /// never exceeds the true optimum restricted to that shard — so a
    /// pruned shard can never hold the winner. Pure map + engine, no
    /// sockets.
    #[test]
    fn shard_bound_never_exceeds_shard_optimum(
        (g, p, q, phi, parts) in arb_partitioned_instance()
    ) {
        let map = ShardMap::build(&g, &parts);
        let engine = Engine::new(&g);
        let mut rect = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
        for &qv in &q {
            let c = g.coord(qv);
            rect[0] = rect[0].min(c.x);
            rect[1] = rect[1].min(c.y);
            rect[2] = rect[2].max(c.x);
            rect[3] = rect[3].max(c.y);
        }
        let k = flex_k(phi, q.len()) as u64;
        for s in 0..map.num_shards() {
            let p_s: Vec<u32> = p.iter().copied().filter(|&v| map.owner(v) == s).collect();
            if p_s.is_empty() {
                continue;
            }
            let per_term = map.mindist_lower_bound(s, rect);
            if let Some(ans) = engine.query(&p_s, &q, phi, Aggregate::Max).expect("valid") {
                prop_assert!(
                    per_term <= ans.dist,
                    "MAX bound {} exceeds shard optimum {}", per_term, ans.dist
                );
            }
            let sum_bound = per_term.saturating_mul(k);
            if let Some(ans) = engine.query(&p_s, &q, phi, Aggregate::Sum).expect("valid") {
                prop_assert!(
                    sum_bound <= ans.dist,
                    "SUM bound {} exceeds shard optimum {}", sum_bound, ans.dist
                );
            }
        }
    }
}
