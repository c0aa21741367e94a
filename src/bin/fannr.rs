//! `fannr` — command-line front end for FANN_R queries.
//!
//! ```text
//! fannr datasets
//! fannr gen   --nodes 10000 --seed 7 --out network.txt
//! fannr query --graph network.txt \
//!             --algo ier-knn --agg max --phi 0.5 \
//!             --p-density 0.01 --q-size 32 --coverage 0.2 [--k 5] [--routes]
//! fannr build-index --graph network.txt --out idx
//! fannr serve --index idx
//! ```
//!
//! `query` generates `P`/`Q` with the §VI-A generators (deterministic per
//! `--seed`) and prints the answer; `--routes` additionally materializes
//! the winning shortest paths. Hub labels persist only inside an index
//! directory (`build-index`), which `serve --index` loads.

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
    let result = parse_opts(&cmd, args).and_then(|opts| match cmd.as_str() {
        "datasets" => cmd_datasets(),
        "gen" => cmd_gen(&opts),
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
        other => unreachable!("parse_opts accepts only listed commands, not '{other}'"),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: fannr <command> [--key value ...]
each command takes only the options listed with it; anything else, or a
value that does not parse, exits non-zero naming the option
commands:
  datasets   list the Table III dataset registry
  gen        generate a synthetic road network   (--nodes, --seed, --out)
  query      run an FANN_R query                 (--graph, --algo, --agg,
             --phi, --p-density, --q-size, --coverage, --clusters, --seed,
             --k, --routes, --json)
  explain    run one query through every applicable strategy and print a
             per-strategy work breakdown         (--graph, --agg, --phi,
             --p-density, --q-size, --coverage, --seed; builds hub
             labels in-process)
  render     draw a query answer as SVG          (the explain options
                                                  + --out)
  stats      describe a network                  (--graph)
  serve      serve queries over TCP              (--index DIR | --graph |
             --nodes --seed, --addr, --workers, --queue-depth,
             --deadline-ms, --cache-capacity, --no-mmap,
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

/// Every command and the options it takes, space-separated. A name in
/// [`FLAGS`] stands alone; every other option takes exactly one value.
const OPTIONS: &[(&str, &str)] = &[
    ("datasets", ""),
    ("gen", "nodes seed out"),
    (
        "query",
        "graph algo agg phi p-density q-size coverage clusters seed k routes json",
    ),
    ("explain", "graph agg phi p-density q-size coverage seed"),
    ("render", "graph agg phi p-density q-size coverage seed out"),
    ("stats", "graph"),
    (
        "serve",
        "index no-mmap graph nodes seed addr workers queue-depth deadline-ms \
         cache-capacity shard-id shard-map",
    ),
    ("partition", "graph nodes seed shards out"),
    (
        "route",
        "graph nodes seed shard-map shard-addrs addr deadline-ms upstream-timeout-ms",
    ),
    ("update", "addr edges"),
    ("build-index", "graph nodes seed out workers"),
    ("help", ""),
    ("--help", ""),
    ("-h", ""),
];

/// Options that take no value.
const FLAGS: &[&str] = &["routes", "json", "no-mmap"];

type Opts = HashMap<String, String>;

/// Parse `cmd`'s `--key value` pairs and flags, refusing an unknown
/// command, an option `cmd` does not take, a missing value, a repeated
/// option and a stray argument.
fn parse_opts(cmd: &str, mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let Some(&(_, accepted)) = OPTIONS.iter().find(|(name, _)| *name == cmd) else {
        return Err(format!("unknown command '{cmd}'\n{USAGE}"));
    };
    let mut map = HashMap::new();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        if !accepted.split_whitespace().any(|name| name == key) {
            return Err(format!("`{cmd}` has no option --{key}"));
        }
        let value = if FLAGS.contains(&key) {
            String::new()
        } else {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{key} needs a value"))?
        };
        if map.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(map)
}

/// The value of `--key`, or `default` when it is absent; a value that
/// does not parse is an error naming the option.
fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    Ok(get_opt(opts, key)?.unwrap_or(default))
}

/// The value of `--key` if given; a value that does not parse is an
/// error naming the option.
fn get_opt<T: std::str::FromStr>(opts: &Opts, key: &str) -> Result<Option<T>, String> {
    opts.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value '{v}' for --{key}"))
        })
        .transpose()
}

fn require(opts: &Opts, key: &str) -> Result<String, String> {
    opts.get(key)
        .cloned()
        .ok_or_else(|| format!("missing required option --{key}"))
}

/// `--agg`: `max` (the default) or `sum`.
fn agg(opts: &Opts) -> Result<Aggregate, String> {
    match opts.get("agg").map_or("max", String::as_str) {
        "max" => Ok(Aggregate::Max),
        "sum" => Ok(Aggregate::Sum),
        other => Err(format!("bad value '{other}' for --agg (max|sum)")),
    }
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

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let nodes: usize = get(opts, "nodes", 10_000)?;
    let seed: u64 = get(opts, "seed", 7)?;
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

fn load_graph(opts: &Opts) -> Result<Graph, String> {
    let path = require(opts, "graph")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    read_compact(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    let algo = opts.get("algo").map(String::as_str).unwrap_or("ier-knn");
    let agg = agg(opts)?;
    let phi: f64 = get(opts, "phi", 0.5)?;
    let seed: u64 = get(opts, "seed", 1)?;
    let d: f64 = get(opts, "p-density", 0.01)?;
    let m: usize = get(opts, "q-size", 32)?;
    let a: f64 = get(opts, "coverage", 0.2)?;
    let c: usize = get(opts, "clusters", 1)?;
    let k: usize = get(opts, "k", 1)?;

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

    // Backend: index-free INE.
    let gphi = InePhi::new(&g, &q);
    if json {
        eprintln!("backend: {}", gphi.name());
    } else {
        println!("backend: {}", gphi.name());
    }

    let t0 = std::time::Instant::now();
    if k > 1 {
        let rtree = build_p_rtree(&g, &p);
        let answers = match algo {
            "gd" => gd_topk(&query, &gphi, k),
            "r-list" => rlist_topk(&g, &query, &gphi, k),
            "ier-knn" => ier_topk(&g, &query, &rtree, &gphi, k),
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
        "gd" => gd(&query, &gphi),
        "r-list" => r_list(&g, &query, &gphi),
        "ier-knn" => {
            let rtree = build_p_rtree(&g, &p);
            ier_knn(&g, &query, &rtree, &gphi)
        }
        "exact-max" => exact_max(&g, &query),
        "apx-sum" => apx_sum(&g, &query, &gphi),
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
fn cmd_explain(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    let agg = agg(opts)?;
    let phi: f64 = get(opts, "phi", 0.5)?;
    let seed: u64 = get(opts, "seed", 1)?;
    let mut rng = fannr::workload::rng(seed);
    let p =
        fannr::workload::points::uniform_data_points(&g, get(opts, "p-density", 0.01)?, &mut rng);
    let q = fannr::workload::points::uniform_query_points(
        &g,
        get(opts, "q-size", 32)?,
        get(opts, "coverage", 0.2)?,
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

    // The indexed strategy needs labels: build them in-process.
    let t0 = std::time::Instant::now();
    let labels = HubLabels::build(&g).map_err(|e| e.to_string())?;
    println!("(built hub labels in {:.1}s)", t0.elapsed().as_secs_f64());
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

fn cmd_render(opts: &Opts) -> Result<(), String> {
    use fannr::roadnet::svg::SvgScene;
    let g = load_graph(opts)?;
    let out = require(opts, "out")?;
    let agg = agg(opts)?;
    let phi: f64 = get(opts, "phi", 0.5)?;
    let seed: u64 = get(opts, "seed", 1)?;
    let mut rng = fannr::workload::rng(seed);
    let p =
        fannr::workload::points::uniform_data_points(&g, get(opts, "p-density", 0.01)?, &mut rng);
    let q = fannr::workload::points::uniform_query_points(
        &g,
        get(opts, "q-size", 16)?,
        get(opts, "coverage", 0.3)?,
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

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    println!("{}", fannr::roadnet::stats::graph_stats(&g));
    Ok(())
}

/// Serve FANN_R queries over TCP until SIGINT/SIGTERM or a wire
/// `shutdown` op, then print the drain summary.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    // Every value is parsed before any graph is built or loaded.
    check_graph_source(opts)?;
    let workers = get(opts, "workers", 2usize)?;
    let queue_depth = get(opts, "queue-depth", 64usize)?;
    let default_deadline = get_opt(opts, "deadline-ms")?.map(std::time::Duration::from_millis);
    let cache_capacity = get(opts, "cache-capacity", 0usize)?;
    let shard_id: Option<u32> = get_opt(opts, "shard-id")?;
    // `--index DIR` cold-starts from a flat v2 index directory: graph.v2
    // (required) and labels.v2 both load zero-copy, mmap-backed unless
    // `--no-mmap`. A directory holding only graph.v2 is enough — the
    // missing labels build on a background thread with the parallel
    // builder and publish through the snapshot swap, while
    // queries answer exactly via the index-free strategies. Otherwise the
    // graph comes from `--graph`/`--nodes` and the engine is index-free.
    let (g, engine) = if let Some(dir) = opts.get("index") {
        let index_opts = IndexDirOptions {
            load_mode: if opts.contains_key("no-mmap") {
                LoadMode::Read
            } else {
                LoadMode::Auto
            },
            // `--workers` sizes the serve pool; the background index
            // build always uses every core.
            background_build: true,
        };
        let engine = Engine::from_index_dir_with(Path::new(dir), &index_opts)
            .map_err(|e| format!("{dir}: {e}"))?;
        if !engine.has_labels() {
            println!("index dir has no labels.v2: serving index-free while labels build in the background");
        }
        let g = engine.snapshot().graph().clone();
        (g, engine)
    } else {
        let g = load_graph_or_synth(opts)?;
        let engine = Engine::new(&g);
        (g, engine)
    };
    // `--shard-id N --shard-map FILE` makes this server one shard of a
    // partitioned deployment: it answers only for its owned slice of P,
    // applies only its owned edges, and reports its region in health.
    let shard = match (shard_id, opts.get("shard-map")) {
        (Some(id), Some(path)) => {
            // A map cut from another graph is refused by fingerprint.
            let map =
                ShardMap::read_flat_for(Path::new(path), &g).map_err(|e| format!("{path}: {e}"))?;
            if id >= map.num_shards() {
                return Err(format!(
                    "--shard-id {id} out of range (map has {} shards)",
                    map.num_shards()
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
        workers,
        queue_depth,
        default_deadline,
        cache_capacity,
        handle_signals: true,
        shard,
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} nodes on {addr} ({} workers, queue depth {}, labels: {}, cache: {}{shard_banner})",
        g.num_nodes(),
        workers,
        queue_depth,
        if engine.has_labels() { "yes" } else { "no" },
        match cache_capacity {
            0 => "off".to_string(),
            n => format!("{n} entries"),
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

/// Refuse graph-source options that would otherwise be silently ignored:
/// `--index` beside `--graph`, `--nodes` or `--seed`; `--graph` beside
/// `--nodes` or `--seed`; and `--no-mmap` without `--index`.
fn check_graph_source(opts: &Opts) -> Result<(), String> {
    let sources: [(&str, &[&str]); 2] = [
        ("index", &["graph", "nodes", "seed"]),
        ("graph", &["nodes", "seed"]),
    ];
    for (source, others) in sources.into_iter().filter(|(s, _)| opts.contains_key(*s)) {
        if let Some(other) = others.iter().find(|o| opts.contains_key(**o)) {
            return Err(format!(
                "--{source} and --{other} both choose the graph; give one"
            ));
        }
    }
    if opts.contains_key("no-mmap") && !opts.contains_key("index") {
        return Err("--no-mmap applies only to --index".to_string());
    }
    Ok(())
}

/// The graph every partitioned-deployment command shares: `--graph FILE`
/// or the deterministic synthetic network (`--nodes`, `--seed`). Shards,
/// router, and `partition` must all be launched with the same choice.
fn load_graph_or_synth(opts: &Opts) -> Result<Graph, String> {
    check_graph_source(opts)?;
    if opts.contains_key("graph") {
        load_graph(opts)
    } else {
        let nodes: usize = get(opts, "nodes", 10_000)?;
        let seed: u64 = get(opts, "seed", 7)?;
        Ok(fannr::workload::synth::road_network(
            nodes,
            &mut fannr::workload::rng(seed),
        ))
    }
}

/// Cut the network into `--shards` parts along the G-tree's top-level
/// partitioner and persist the shard map (ownership, regions, borders,
/// and the frozen pruning scale) as a flat v2 `FANNSM2` container.
fn cmd_partition(opts: &Opts) -> Result<(), String> {
    let g = load_graph_or_synth(opts)?;
    let shards: usize = get(opts, "shards", 2)?;
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
fn cmd_route(opts: &Opts) -> Result<(), String> {
    let g = load_graph_or_synth(opts)?;
    let map_path = require(opts, "shard-map")?;
    let map = ShardMap::read_flat_for(Path::new(&map_path), &g)
        .map_err(|e| format!("{map_path}: {e}"))?;
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
    config.default_deadline = get_opt(opts, "deadline-ms")?.map(std::time::Duration::from_millis);
    if let Some(ms) = get_opt(opts, "upstream-timeout-ms")? {
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
fn cmd_update(opts: &Opts) -> Result<(), String> {
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
fn cmd_build_index(opts: &Opts) -> Result<(), String> {
    let out = require(opts, "out")?;
    let workers: usize = get(opts, "workers", 0)?;
    let g = load_graph_or_synth(opts)?;
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
