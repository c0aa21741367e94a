//! `fannr` — command-line front end for FANN_R queries.
//!
//! ```text
//! fannr datasets
//! fannr gen   --nodes 10000 --seed 7 --out network.txt
//! fannr index --graph network.txt --out labels.v2
//! fannr query --graph network.txt [--labels labels.v2] \
//!             --algo ier-knn --agg max --phi 0.5 \
//!             --p-density 0.01 --q-size 32 --coverage 0.2 [--k 5] [--routes]
//! ```
//!
//! `query` generates `P`/`Q` with the §VI-A generators (deterministic per
//! `--seed`) and prints the answer; `--routes` additionally materializes
//! the winning shortest paths.

use fannr::fann::algo::ier::build_p_rtree;
use fannr::fann::algo::topk::{exact_max_topk, gd_topk, ier_topk, rlist_topk};
use fannr::fann::algo::{
    apx_sum, apx_sum_traced, exact_max, exact_max_traced, gd, ier_knn, ier_knn_traced, r_list,
    r_list_traced, IerBound,
};
use fannr::fann::engine::{Engine, IndexDirOptions};
use fannr::fann::gphi::ier2::IerPhi;
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::gphi::oracle::GuardedLabelOracle;
use fannr::fann::gphi::GPhi;
use fannr::fann::metrics::{SearchStats, StatsSink};
use fannr::fann::{Aggregate, FannAnswer, FannQuery};
use fannr::hublabel::HubLabels;
use fannr::roadnet::io::{read_compact, write_compact};
use fannr::roadnet::{shortest_path, Graph, ScratchPool, ShardMap};
use fannr::roadnet::{LoadMode, WeightUpdate};
use fannr::router::{Router, RouterConfig};
use fannr::serve::{Body, Client, Op, Request, Response, ServeConfig, Server, ShardRole};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = parse_opts(args);
    let result = match cmd.as_str() {
        "datasets" => cmd_datasets(),
        "gen" => cmd_gen(&opts),
        "index" => cmd_index(&opts),
        "query" => cmd_query(&opts),
        "explain" => cmd_explain(&opts),
        "render" => cmd_render(&opts),
        "stats" => cmd_stats(&opts),
        "serve" => cmd_serve(&opts),
        "partition" => cmd_partition(&opts),
        "route" => cmd_route(&opts),
        "update" => cmd_update(&opts),
        "build-index" => cmd_build_index(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: fannr <command> [--key value ...]
commands:
  datasets   list the Table III dataset registry
  gen        generate a synthetic road network   (--nodes, --seed, --out)
  index      build + persist hub labels as a     (--graph, --out)
             flat labels.v2 container
  query      run an FANN_R query                 (--graph, --algo, --agg,
             --phi, --p-density, --q-size, --coverage, --clusters, --seed,
             --labels, --k, --routes, --json)
  explain    run one query through every applicable strategy and print a
             per-strategy work breakdown         (query options; builds
             hub labels in-process unless --labels is given)
  render     draw a query answer as SVG          (query options + --out)
  stats      describe a network                  (--graph)
  serve      serve queries over TCP              (--index DIR | --graph |
             --nodes --seed, --addr, --workers, --queue-depth,
             --deadline-ms, --labels, --cache-capacity,
             --batch-window-ms, --batch-max, --no-mmap,
             --shard-id N --shard-map FILE for one shard of a
             partitioned deployment);
             with --index, graph.v2 alone suffices: a missing labels.v2
             is built in the background and hot-swapped in
  partition  cut a network into shards and write (--graph | --nodes --seed,
             the FANNSM2 shard map                --shards K, --out FILE)
  route      front a set of shard servers with   (--graph | --nodes --seed,
             the phi*M*mdist pruning router       --shard-map FILE,
                                                  --shard-addrs a:p,b:p[,...],
                                                  --addr, --deadline-ms,
                                                  --upstream-timeout-ms)
  update     push live weight updates to a       (--addr, --edges u:v:w[,...])
             running server without a restart
  build-index  build the flat v2 index directory (--graph | --nodes --seed,
             --out DIR, --workers); writes graph.v2 +
             labels.v2 for `serve --index`
algorithms:  gd | r-list | ier-knn | exact-max | apx-sum";

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

fn require(opts: &HashMap<String, String>, key: &str) -> Result<String, String> {
    opts.get(key)
        .cloned()
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<5} {:<14} {:>12} {:>14} {:>6}",
        "name", "description", "paper nodes", "scaled target", "tau"
    );
    for d in &fannr::workload::datasets::DATASETS {
        println!(
            "{:<5} {:<14} {:>12} {:>14} {:>6}",
            d.name, d.description, d.paper_nodes, d.target_nodes, d.gtree_leaf_cap
        );
    }
    println!("\nset ROADNET_DATA_DIR to load the real DIMACS files instead");
    Ok(())
}

fn cmd_gen(opts: &HashMap<String, String>) -> Result<(), String> {
    let nodes: usize = get(opts, "nodes", 10_000);
    let seed: u64 = get(opts, "seed", 7);
    let out = require(opts, "out")?;
    let g = fannr::workload::synth::road_network(nodes, &mut fannr::workload::rng(seed));
    std::fs::write(&out, write_compact(&g)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn load_graph(opts: &HashMap<String, String>) -> Result<Graph, String> {
    let path = require(opts, "graph")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    read_compact(&text).map_err(|e| format!("{path}: {e}"))
}

/// A persisted label index (`fannr index` / `build-index` output).
fn load_labels(path: &str) -> Result<HubLabels, String> {
    HubLabels::read_flat(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_index(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(opts)?;
    let out = require(opts, "out")?;
    let t0 = std::time::Instant::now();
    let labels = HubLabels::build(&g).map_err(|e| e.to_string())?;
    labels
        .write_flat(Path::new(&out))
        .map_err(|e| format!("{out}: {e}"))?;
    println!(
        "built hub labels in {:.1}s: {} entries (avg {:.1}/node), {} bytes -> {}",
        t0.elapsed().as_secs_f64(),
        labels.total_label_entries(),
        labels.avg_label_size(),
        file_kib(Path::new(&out)),
        out
    );
    Ok(())
}

fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(opts)?;
    let algo = opts.get("algo").map(String::as_str).unwrap_or("ier-knn");
    let agg = match opts.get("agg").map(String::as_str).unwrap_or("max") {
        "max" => Aggregate::Max,
        "sum" => Aggregate::Sum,
        other => return Err(format!("unknown aggregate '{other}' (max|sum)")),
    };
    let phi: f64 = get(opts, "phi", 0.5);
    let seed: u64 = get(opts, "seed", 1);
    let d: f64 = get(opts, "p-density", 0.01);
    let m: usize = get(opts, "q-size", 32);
    let a: f64 = get(opts, "coverage", 0.2);
    let c: usize = get(opts, "clusters", 1);
    let k: usize = get(opts, "k", 1);

    let mut rng = fannr::workload::rng(seed);
    let p = fannr::workload::points::uniform_data_points(&g, d, &mut rng);
    let q = if c <= 1 {
        fannr::workload::points::uniform_query_points(&g, m, a, &mut rng)
    } else {
        fannr::workload::points::clustered_query_points(&g, m, a, c, &mut rng)
    };
    // --json prints exactly one protocol line on stdout (the same
    // `Response` serializer the server uses), so commentary goes to stderr.
    let json = opts.contains_key("json");
    if json && k > 1 {
        return Err("--json has no top-k form (the wire protocol is single-answer)".to_string());
    }
    let query = FannQuery::checked(&p, &q, phi, agg, &g).map_err(|e| e.to_string())?;
    let info = format!(
        "graph: {} nodes | |P| = {} | |Q| = {} | phi = {phi} ({}) | g = {agg}",
        g.num_nodes(),
        p.len(),
        q.len(),
        query.subset_size()
    );
    if json {
        eprintln!("{info}");
    } else {
        println!("{info}");
    }

    // Backend: persisted labels if provided, else index-free INE.
    let labels = opts.get("labels").map(|p| load_labels(p)).transpose()?;
    let gphi: Box<dyn GPhi> = match &labels {
        Some(l) => Box::new(IerPhi::new(&g, GuardedLabelOracle::new(l), &q)),
        None => Box::new(InePhi::new(&g, &q)),
    };
    if json {
        eprintln!("backend: {}", gphi.name());
    } else {
        println!("backend: {}", gphi.name());
    }

    let t0 = std::time::Instant::now();
    if k > 1 {
        let rtree = build_p_rtree(&g, &p);
        let answers = match algo {
            "gd" => gd_topk(&query, gphi.as_ref(), k),
            "r-list" => rlist_topk(&g, &query, gphi.as_ref(), k),
            "ier-knn" => ier_topk(&g, &query, &rtree, gphi.as_ref(), k),
            "exact-max" => exact_max_topk(&g, &query, k),
            other => return Err(format!("'{other}' has no k-FANN variant")),
        };
        println!("top-{k} in {:?}:", t0.elapsed());
        for (rank, (node, dist)) in answers.iter().enumerate() {
            println!("  #{:<2} node {:<8} d = {}", rank + 1, node, dist);
        }
        return Ok(());
    }
    let answer: Option<FannAnswer> = match algo {
        "gd" => gd(&query, gphi.as_ref()),
        "r-list" => r_list(&g, &query, gphi.as_ref()),
        "ier-knn" => {
            let rtree = build_p_rtree(&g, &p);
            ier_knn(&g, &query, &rtree, gphi.as_ref())
        }
        "exact-max" => exact_max(&g, &query),
        "apx-sum" => apx_sum(&g, &query, gphi.as_ref()),
        other => return Err(format!("unknown algorithm '{other}'\n{USAGE}")),
    };
    let elapsed = t0.elapsed();
    if json {
        let resp = Response::for_answer(None, answer.as_ref(), algo, elapsed.as_micros() as u64);
        println!("{}", resp.to_json());
        return Ok(());
    }
    let Some(ans) = answer else {
        println!(
            "no answer: no data point reaches {} query points",
            query.subset_size()
        );
        return Ok(());
    };
    println!(
        "answer in {elapsed:?}: p* = node {}, d* = {}, Q*_phi = {:?}",
        ans.p_star, ans.dist, ans.subset
    );
    if opts.contains_key("routes") {
        for &qn in &ans.subset {
            if let Some((dist, path)) = shortest_path(&g, ans.p_star, qn) {
                println!("  route to {qn} ({dist}): {path:?}");
            }
        }
    }
    Ok(())
}

/// Run the same query through every strategy applicable to its aggregate,
/// with a live recorder, and print one work-breakdown row per strategy.
fn cmd_explain(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(opts)?;
    let agg = match opts.get("agg").map(String::as_str).unwrap_or("max") {
        "max" => Aggregate::Max,
        "sum" => Aggregate::Sum,
        other => return Err(format!("unknown aggregate '{other}' (max|sum)")),
    };
    let phi: f64 = get(opts, "phi", 0.5);
    let seed: u64 = get(opts, "seed", 1);
    let mut rng = fannr::workload::rng(seed);
    let p =
        fannr::workload::points::uniform_data_points(&g, get(opts, "p-density", 0.01), &mut rng);
    let q = fannr::workload::points::uniform_query_points(
        &g,
        get(opts, "q-size", 32),
        get(opts, "coverage", 0.2),
        &mut rng,
    );
    let query = FannQuery::checked(&p, &q, phi, agg, &g).map_err(|e| e.to_string())?;
    println!(
        "graph: {} nodes | |P| = {} | |Q| = {} | phi = {phi} (k = {}) | g = {agg}",
        g.num_nodes(),
        p.len(),
        q.len(),
        query.subset_size()
    );

    // The indexed strategy needs labels; load them if given, else build.
    let labels = match opts.get("labels") {
        Some(path) => load_labels(path)?,
        None => {
            let t0 = std::time::Instant::now();
            let l = HubLabels::build(&g).map_err(|e| e.to_string())?;
            println!(
                "(built hub labels in {:.1}s; pass --labels to reuse a persisted index)",
                t0.elapsed().as_secs_f64()
            );
            l
        }
    };
    let rtree = build_p_rtree(&g, &p);

    let strategies: &[&str] = match agg {
        Aggregate::Max => &["Exact-max", "R-List/INE", "IER-kNN/PHL"],
        Aggregate::Sum => &["R-List/INE", "APX-sum/INE", "IER-kNN/PHL"],
    };
    let mut rows: Vec<(&str, std::time::Duration, Option<FannAnswer>, SearchStats)> = Vec::new();
    for &name in strategies {
        let sink = StatsSink::new();
        let t0 = std::time::Instant::now();
        let ans = match name {
            "Exact-max" => exact_max_traced(&g, &query, &mut ScratchPool::new(), &sink),
            "R-List/INE" => {
                let gphi = InePhi::with_recorder(&g, &q, &sink);
                r_list_traced(&g, &query, &gphi, &mut ScratchPool::new(), &sink)
            }
            "APX-sum/INE" => {
                let gphi = InePhi::with_recorder(&g, &q, &sink);
                apx_sum_traced(&g, &query, &gphi, &sink)
            }
            "IER-kNN/PHL" => {
                let gphi = IerPhi::with_recorder(&g, GuardedLabelOracle::new(&labels), &q, &sink);
                ier_knn_traced(&g, &query, &rtree, &gphi, IerBound::Flexible, &sink)
            }
            _ => unreachable!("strategy list is fixed above"),
        };
        rows.push((name, t0.elapsed(), ans, sink.snapshot()));
    }

    println!(
        "\n{:<12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>6} {:>7}",
        "strategy",
        "time",
        "d*",
        "settled",
        "pushes",
        "pops",
        "edges",
        "g_phi",
        "oracle",
        "labels",
        "rtree",
        "pruned"
    );
    for (name, elapsed, ans, s) in &rows {
        let dist = ans.as_ref().map_or("-".to_string(), |a| a.dist.to_string());
        println!(
            "{:<12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>6} {:>7}",
            name,
            format!("{:.1?}", elapsed),
            dist,
            s.nodes_settled,
            s.heap_pushes,
            s.heap_pops,
            s.edges_relaxed,
            s.gphi_evals,
            s.oracle_calls,
            s.label_lookups,
            s.rtree_nodes,
            s.candidates_pruned,
        );
    }
    // Exact strategies must agree; APX-sum may legitimately differ.
    let exact_dists: Vec<_> = rows
        .iter()
        .filter(|(name, ..)| *name != "APX-sum/INE")
        .filter_map(|(_, _, ans, _)| ans.as_ref().map(|a| a.dist))
        .collect();
    if exact_dists.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "exact strategies disagree on d*: {exact_dists:?} (this is a bug)"
        ));
    }
    Ok(())
}

fn cmd_render(opts: &HashMap<String, String>) -> Result<(), String> {
    use fannr::roadnet::svg::SvgScene;
    let g = load_graph(opts)?;
    let out = require(opts, "out")?;
    let agg = match opts.get("agg").map(String::as_str).unwrap_or("max") {
        "max" => Aggregate::Max,
        "sum" => Aggregate::Sum,
        other => return Err(format!("unknown aggregate '{other}' (max|sum)")),
    };
    let phi: f64 = get(opts, "phi", 0.5);
    let seed: u64 = get(opts, "seed", 1);
    let mut rng = fannr::workload::rng(seed);
    let p =
        fannr::workload::points::uniform_data_points(&g, get(opts, "p-density", 0.01), &mut rng);
    let q = fannr::workload::points::uniform_query_points(
        &g,
        get(opts, "q-size", 16),
        get(opts, "coverage", 0.3),
        &mut rng,
    );
    let query = FannQuery::checked(&p, &q, phi, agg, &g).map_err(|e| e.to_string())?;
    let answer = match agg {
        Aggregate::Max => exact_max(&g, &query),
        Aggregate::Sum => r_list(&g, &query, &InePhi::new(&g, &q)),
    };
    let mut scene = SvgScene::new(&g).data_points(&p).query_points(&q);
    if let Some(a) = &answer {
        scene = scene.answer(a.p_star, &a.subset);
        println!("answer: p* = node {}, d* = {}", a.p_star, a.dist);
    } else {
        println!("no answer (insufficient reachability); rendering sets only");
    }
    std::fs::write(&out, scene.render()).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph(opts)?;
    println!("{}", fannr::roadnet::stats::graph_stats(&g));
    Ok(())
}

/// Serve FANN_R queries over TCP until SIGINT/SIGTERM or a wire
/// `shutdown` op, then print the drain summary.
fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    // `--index DIR` cold-starts from a flat v2 index directory: graph.v2
    // (required) and labels.v2 both load zero-copy, mmap-backed unless
    // `--no-mmap`. A directory holding only graph.v2 is enough — the
    // missing labels build on a background thread with the parallel
    // builder and publish through the snapshot swap, while
    // queries answer exactly via the index-free strategies. Otherwise the
    // graph comes from `--graph`/`--nodes` and labels optionally from a
    // `--labels` file (`fannr index` output).
    let (g, engine) = if let Some(dir) = opts.get("index") {
        let index_opts = IndexDirOptions {
            load_mode: if opts.contains_key("no-mmap") {
                LoadMode::Read
            } else {
                LoadMode::Auto
            },
            background_build: true,
            // `--workers` sizes the serve pool; the background index
            // build always uses every core (workers: 0).
            ..IndexDirOptions::default()
        };
        let engine = Engine::from_index_dir_with(Path::new(dir), &index_opts)
            .map_err(|e| format!("{dir}: {e}"))?;
        if !engine.has_labels() {
            println!("index dir has no labels.v2: serving index-free while labels build in the background");
        }
        let g = engine.snapshot().graph().clone();
        (g, engine)
    } else {
        let g = if opts.contains_key("graph") {
            load_graph(opts)?
        } else {
            let nodes: usize = get(opts, "nodes", 10_000);
            let seed: u64 = get(opts, "seed", 7);
            fannr::workload::synth::road_network(nodes, &mut fannr::workload::rng(seed))
        };
        let mut engine = Engine::new(&g);
        if let Some(path) = opts.get("labels") {
            engine = engine.with_prebuilt_labels(load_labels(path)?);
        }
        (g, engine)
    };
    // `--shard-id N --shard-map FILE` makes this server one shard of a
    // partitioned deployment: it answers only for its owned slice of P,
    // applies only its owned edges, and reports its region in health.
    let shard = match (opts.get("shard-id"), opts.get("shard-map")) {
        (Some(ids), Some(path)) => {
            let id: u32 = ids.parse().map_err(|_| format!("bad --shard-id '{ids}'"))?;
            let map = ShardMap::read_flat(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            if id >= map.num_shards() {
                return Err(format!(
                    "--shard-id {id} out of range (map has {} shards)",
                    map.num_shards()
                ));
            }
            if map.num_nodes() as usize != g.num_nodes() {
                return Err(format!(
                    "shard map covers {} nodes but the graph has {}",
                    map.num_nodes(),
                    g.num_nodes()
                ));
            }
            Some(ShardRole {
                id,
                map: Arc::new(map),
            })
        }
        (None, None) => None,
        _ => return Err("--shard-id and --shard-map must be given together".to_string()),
    };
    let shard_banner = match &shard {
        Some(role) => format!(
            ", shard {}/{} ({} owned nodes)",
            role.id,
            role.map.num_shards(),
            role.map.owned_nodes(role.id)
        ),
        None => String::new(),
    };
    let config = ServeConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: get(opts, "workers", 2usize),
        queue_depth: get(opts, "queue-depth", 64usize),
        default_deadline: opts
            .get("deadline-ms")
            .and_then(|v| v.parse().ok())
            .map(std::time::Duration::from_millis),
        cache_capacity: get(opts, "cache-capacity", 0usize),
        batch_window: opts
            .get("batch-window-ms")
            .and_then(|v| v.parse().ok())
            .map(std::time::Duration::from_millis),
        batch_max: get(opts, "batch-max", 16usize),
        handle_signals: true,
        shard,
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} nodes on {addr} ({} workers, queue depth {}, labels: {}, cache: {}, batch window: {}{shard_banner})",
        g.num_nodes(),
        get::<usize>(opts, "workers", 2),
        get::<usize>(opts, "queue-depth", 64),
        if engine.has_labels() { "yes" } else { "no" },
        match get::<usize>(opts, "cache-capacity", 0) {
            0 => "off".to_string(),
            n => format!("{n} entries"),
        },
        match opts.get("batch-window-ms") {
            Some(w) => format!("{w}ms"),
            None => "off".to_string(),
        },
    );
    let summary = server.run(&engine).map_err(|e| e.to_string())?;
    let m = &summary.metrics;
    println!(
        "drained after {:.1}s: {} conns | {} admitted ({} ok, {} empty, {} cancelled, {} errors) | {} shed | p50 {}us p90 {}us p99 {}us",
        summary.uptime.as_secs_f64(),
        summary.connections,
        m.requests,
        m.ok,
        m.empty,
        m.cancelled,
        m.errors,
        m.shed,
        m.latency.p50_ns() / 1_000,
        m.latency.p90_ns() / 1_000,
        m.latency.p99_ns() / 1_000,
    );
    if !m.search.is_empty() {
        println!("search totals: {}", m.search);
    }
    Ok(())
}

/// The graph every partitioned-deployment command shares: `--graph FILE`
/// or the deterministic synthetic network (`--nodes`, `--seed`). Shards,
/// router, and `partition` must all be launched with the same choice.
fn load_graph_or_synth(opts: &HashMap<String, String>) -> Result<Graph, String> {
    if opts.contains_key("graph") {
        load_graph(opts)
    } else {
        let nodes: usize = get(opts, "nodes", 10_000);
        let seed: u64 = get(opts, "seed", 7);
        Ok(fannr::workload::synth::road_network(
            nodes,
            &mut fannr::workload::rng(seed),
        ))
    }
}

/// Cut the network into `--shards` parts along the G-tree's top-level
/// partitioner and persist the shard map (ownership, regions, borders,
/// and the frozen pruning scale) as a flat v2 `FANNSM2` container.
fn cmd_partition(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph_or_synth(opts)?;
    let shards: usize = get(opts, "shards", 2);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    if shards > g.num_nodes() {
        return Err(format!(
            "--shards {shards} exceeds the node count {}",
            g.num_nodes()
        ));
    }
    let out = require(opts, "out")?;
    let t0 = Instant::now();
    let cut = fannr::gtree::top_level_cut(&g, shards);
    let map = ShardMap::build(&g, &cut);
    map.write_flat(Path::new(&out)).map_err(|e| e.to_string())?;
    println!(
        "partitioned {} nodes into {} shards in {:.2}s (scale {:.6}) -> {}",
        g.num_nodes(),
        map.num_shards(),
        t0.elapsed().as_secs_f64(),
        map.scale(),
        out
    );
    for s in 0..map.num_shards() {
        let r = map.region(s);
        println!(
            "  shard {s}: {:>8} nodes, {:>6} borders, region [{:.1}, {:.1}] x [{:.1}, {:.1}]",
            map.owned_nodes(s),
            map.border_nodes(s).len(),
            r[0],
            r[2],
            r[1],
            r[3],
        );
    }
    Ok(())
}

/// Run the shard router: same wire protocol as `serve`, but each query
/// fans out only to the shards the phi*M*mdist bound cannot prune.
fn cmd_route(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = load_graph_or_synth(opts)?;
    let map_path = require(opts, "shard-map")?;
    let map = ShardMap::read_flat(Path::new(&map_path)).map_err(|e| format!("{map_path}: {e}"))?;
    let addrs: Vec<String> = require(opts, "shard-addrs")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    let mut config = RouterConfig::new(
        opts.get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7979".to_string()),
        addrs,
        Arc::new(map),
        g,
    );
    config.default_deadline = opts
        .get("deadline-ms")
        .and_then(|v| v.parse().ok())
        .map(std::time::Duration::from_millis);
    if let Some(ms) = opts.get("upstream-timeout-ms").and_then(|v| v.parse().ok()) {
        config.upstream_timeout = std::time::Duration::from_millis(ms);
    }
    let router = Router::bind(config).map_err(|e| e.to_string())?;
    let addr = router.local_addr().map_err(|e| e.to_string())?;
    println!(
        "routing {} shards on {addr} (a wire shutdown drains the whole deployment)",
        router.num_shards(),
    );
    let summary = router.run().map_err(|e| e.to_string())?;
    let m = &summary.metrics;
    println!(
        "drained after {:.1}s: {} conns | {} queries ({} ok, {} empty, {} cancelled, {} errors, {} shed) | {} shards contacted, {} pruned | {} upstream errors",
        summary.uptime.as_secs_f64(),
        summary.connections,
        m.requests,
        m.ok,
        m.empty,
        m.cancelled,
        m.errors,
        m.shed,
        m.shards_contacted,
        m.shards_pruned,
        m.upstream_errors,
    );
    Ok(())
}

/// Push a batch of live weight updates to a running server. The batch is
/// atomic server-side: either every edge is applied (one new epoch) or
/// the whole request is rejected and no epoch is published.
fn cmd_update(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let spec = require(opts, "edges")?;
    let mut updates = Vec::new();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.trim().split(':').collect();
        let [u, v, w] = fields.as_slice() else {
            return Err(format!("bad edge '{part}' (expected u:v:w)"));
        };
        updates.push(WeightUpdate {
            u: u.parse().map_err(|_| format!("bad node id '{u}'"))?,
            v: v.parse().map_err(|_| format!("bad node id '{v}'"))?,
            w: w.parse().map_err(|_| format!("bad weight '{w}'"))?,
        });
    }
    let sent = updates.len();
    let mut client = Client::connect(
        addr.parse::<std::net::SocketAddr>()
            .map_err(|e| format!("{addr}: {e}"))?,
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let resp = client
        .call(&Request {
            id: Some("update".to_string()),
            op: Op::Update(updates),
        })
        .map_err(|e| e.to_string())?;
    match resp.body {
        Body::Updated { epoch, applied } => {
            println!("applied {applied}/{sent} updates; server now at epoch {epoch}");
            Ok(())
        }
        Body::Error { error } => Err(format!("server rejected the batch: {error}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn file_kib(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Build the flat v2 index directory: `graph.v2` + `labels.v2`, each
/// written in the zero-copy container so `serve --index` /
/// `Engine::from_index_dir` cold-start without deserialization.
/// `--workers 0` uses every core for the parallel label build.
fn cmd_build_index(opts: &HashMap<String, String>) -> Result<(), String> {
    let g = if opts.contains_key("graph") {
        load_graph(opts)?
    } else {
        let nodes: usize = get(opts, "nodes", 10_000);
        let seed: u64 = get(opts, "seed", 7);
        fannr::workload::synth::road_network(nodes, &mut fannr::workload::rng(seed))
    };
    let out = require(opts, "out")?;
    let workers: usize = get(opts, "workers", 0);
    let dir = Path::new(&out);
    std::fs::create_dir_all(dir).map_err(|e| format!("{out}: {e}"))?;

    let t0 = Instant::now();
    g.write_flat(&dir.join("graph.v2"))
        .map_err(|e| e.to_string())?;
    println!(
        "graph.v2   {:>12} bytes  written in {:.2}s  ({} nodes, {} edges)",
        file_kib(&dir.join("graph.v2")),
        t0.elapsed().as_secs_f64(),
        g.num_nodes(),
        g.num_edges()
    );

    let t0 = Instant::now();
    let labels = HubLabels::build_parallel(&g, workers).map_err(|e| e.to_string())?;
    labels
        .write_flat(&dir.join("labels.v2"))
        .map_err(|e| e.to_string())?;
    println!(
        "labels.v2  {:>12} bytes  built+written in {:.2}s  ({} entries, avg {:.1}/node)",
        file_kib(&dir.join("labels.v2")),
        t0.elapsed().as_secs_f64(),
        labels.total_label_entries(),
        labels.avg_label_size()
    );

    println!("index directory ready: {out}");
    Ok(())
}
