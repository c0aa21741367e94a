//! The in-process half of the traced run: a fixed slice of the workload
//! replayed against the layers' public functions, with a span around
//! every call. Only the public surface listed in the README is used.

use crate::spans::Recorder;
use fann_core::algo::ier::build_p_rtree;
use fann_core::algo::{apx_sum, exact_max, ier_knn, r_list};
use fann_core::engine::Engine;
use fann_core::gphi::ier2::IerPhi;
use fann_core::gphi::ine::InePhi;
use fann_core::gphi::oracle::DistanceOracle;
use fann_core::metrics::SearchStats;
use fann_core::{Aggregate, FannQuery};
use fannr_bench::inputs::{Inputs, Rng64};
use fannr_bench::stats;
use fannr_bench::wire::{self, Agg};
use fannr_serve::{Request, Response};
use roadnet::{ShardMap, WeightUpdate};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Requests replayed in process.
pub const SLICE: usize = 256;
/// Point-to-point distances timed against the label oracle.
const ORACLE_PAIRS: usize = 100_000;
/// Queries timed before and after a repair.
const STALE_SLICE: usize = 64;

/// Metric name → value; names not set stay 0 in the report.
pub type Values = Vec<(&'static str, f64)>;

fn aggregate(agg: Agg) -> Aggregate {
    match agg {
        Agg::Max => Aggregate::Max,
        Agg::Sum => Aggregate::Sum,
    }
}

fn p50(v: &[f64]) -> f64 {
    stats::median(v)
}

/// The slice: the first [`SLICE`] scheduled requests, as
/// `(request line, query index)`.
fn slice(inputs: &Inputs) -> Vec<(String, usize)> {
    let mut line = String::new();
    (0..SLICE.min(inputs.schedule.len()))
        .map(|pos| {
            let request = &inputs.requests[inputs.schedule[pos] as usize];
            wire::finish_request(&mut line, &request.prefix, pos as u64);
            (line.trim_end().to_string(), request.query)
        })
        .collect()
}

/// Replay the slice through parse → query → serialize, one root span per
/// request, then once more through `query_traced` for the counters.
pub fn replay(engine: &Engine, inputs: &Inputs, rec: &mut Recorder, out: &mut Values) {
    let requests = slice(inputs);
    let mut request_bytes = 0usize;
    let mut response_bytes = 0usize;
    for (i, (line, qi)) in requests.iter().enumerate() {
        let query = &inputs.queries[*qi];
        let p = &inputs.p_sets[query.p_set];
        let root = rec.begin("replay.request", 0, i as u64);

        let s = rec.begin("serve.parse", root, i as u64);
        let parsed = Request::parse(black_box(line));
        rec.end(s);
        black_box(&parsed)
            .as_ref()
            .expect("own request lines parse");

        let s = rec.begin("core.query", root, i as u64);
        let answer = engine.query(p, &query.q, query.phi, aggregate(query.agg));
        rec.end(s);
        let answer = answer.expect("generated queries are valid");

        let s = rec.begin("serve.serialize", root, i as u64);
        let reply =
            Response::for_answer(Some(i.to_string()), answer.as_ref(), "replay", 0).to_json();
        rec.end(s);
        rec.end(root);
        request_bytes += line.len() + 1;
        response_bytes += black_box(reply).len() + 1;
    }
    let n = requests.len().max(1) as f64;
    let query_us = stats::sorted(rec.durations_us("core.query"));
    out.push(("serve.parse_us", p50(&rec.durations_us("serve.parse"))));
    out.push((
        "serve.serialize_us",
        p50(&rec.durations_us("serve.serialize")),
    ));
    out.push(("serve.request_bytes", request_bytes as f64 / n));
    out.push(("serve.response_bytes", response_bytes as f64 / n));
    out.push(("core.query_p50_us", stats::quantile_sorted(&query_us, 0.5)));
    out.push(("core.query_p95_us", stats::quantile_sorted(&query_us, 0.95)));

    // Counters: exact and the same for a fixed seed.
    let mut total = SearchStats::default();
    for (_, qi) in &requests {
        let query = &inputs.queries[*qi];
        let p = &inputs.p_sets[query.p_set];
        let (_, stats) = engine
            .query_traced(p, &query.q, query.phi, aggregate(query.agg))
            .expect("generated queries are valid");
        total.add(&stats);
    }
    let per = |x: u64| x as f64 / n;
    out.push(("core.gphi_evals", per(total.gphi_evals)));
    out.push(("core.candidates_pruned", per(total.candidates_pruned)));
    let decided = total.candidates_pruned + total.gphi_evals;
    out.push((
        "core.pruned_ratio",
        if decided == 0 {
            0.0
        } else {
            total.candidates_pruned as f64 / decided as f64
        },
    ));
    out.push(("rtree.nodes", per(total.rtree_nodes)));
    out.push(("hublabel.oracle_calls", per(total.oracle_calls)));
    out.push(("hublabel.lookups", per(total.label_lookups)));
    out.push(("roadnet.settled", per(total.nodes_settled)));
    out.push(("roadnet.edges_relaxed", per(total.edges_relaxed)));
    out.push(("roadnet.heap_pushes", per(total.heap_pushes)));
    let query_ns: f64 = query_us.iter().sum::<f64>() * 1e3;
    out.push((
        "roadnet.ns_per_settled",
        if total.nodes_settled == 0 {
            0.0
        } else {
            query_ns / total.nodes_settled as f64
        },
    ));
}

/// The strategies called directly on the slice: IER-kNN (with its
/// per-query R-tree build) where labels exist, the index-free algorithms
/// where they do not.
pub fn direct_algorithms(engine: &Engine, inputs: &Inputs, rec: &mut Recorder, out: &mut Values) {
    let snap = engine.snapshot();
    let graph = &inputs.graph;
    for (i, (_, qi)) in slice(inputs).iter().enumerate() {
        let query = &inputs.queries[*qi];
        let p = &inputs.p_sets[query.p_set];
        let mut q = query.q.clone();
        q.sort_unstable();
        let fq = FannQuery::new(p, &q, query.phi, aggregate(query.agg));
        let i = i as u64;
        if let Some(oracle) = snap.oracle() {
            let root = rec.begin("direct.ier", 0, i);
            let s = rec.begin("rtree.build", root, i);
            let rtree = build_p_rtree(graph, p);
            rec.end(s);
            let gphi = IerPhi::new(graph, oracle, &q);
            let s = rec.begin("core.ier_knn", root, i);
            black_box(ier_knn(graph, &fq, &rtree, &gphi));
            rec.end(s);
            rec.end(root);
        } else if query.agg == Agg::Max {
            let s = rec.begin("core.exact_max", 0, i);
            black_box(exact_max(graph, &fq));
            rec.end(s);
        } else {
            let gphi = InePhi::new(graph, &q);
            let s = rec.begin("core.rlist", 0, i);
            black_box(r_list(graph, &fq, &gphi));
            rec.end(s);
            let gphi = InePhi::new(graph, &q);
            let s = rec.begin("core.apx_sum", 0, i);
            black_box(apx_sum(graph, &fq, &gphi));
            rec.end(s);
        }
    }
    out.push(("rtree.build_us", p50(&rec.durations_us("rtree.build"))));
    out.push(("core.ier_knn_us", p50(&rec.durations_us("core.ier_knn"))));
    out.push((
        "core.exact_max_us",
        p50(&rec.durations_us("core.exact_max")),
    ));
    out.push(("core.rlist_us", p50(&rec.durations_us("core.rlist"))));
    out.push(("core.apx_sum_us", p50(&rec.durations_us("core.apx_sum"))));
}

/// Point-to-point label distance over seeded pairs.
pub fn oracle_distance(engine: &Engine, inputs: &Inputs, seed: u64, out: &mut Values) {
    let snap = engine.snapshot();
    let Some(oracle) = snap.oracle() else { return };
    let n = inputs.graph.num_nodes();
    let mut rng = Rng64::new(seed ^ 0x6f72_6163);
    let pairs: Vec<(u32, u32)> = (0..ORACLE_PAIRS)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect();
    let t0 = Instant::now();
    let mut sum = 0u64;
    for &(s, t) in &pairs {
        sum = sum.wrapping_add(oracle.dist(black_box(s), black_box(t)).unwrap_or(0));
    }
    black_box(sum);
    out.push((
        "hublabel.distance_ns",
        t0.elapsed().as_nanos() as f64 / ORACLE_PAIRS as f64,
    ));
}

/// Label build from scratch, the label file, and the cold-start load.
pub fn index_costs(inputs: &Inputs, index_dir: &Path, out: &mut Values) -> Engine {
    let t0 = Instant::now();
    drop(black_box(Engine::new(&inputs.graph).with_labels()));
    out.push(("hublabel.build_s", t0.elapsed().as_secs_f64()));
    let bytes = std::fs::metadata(index_dir.join("labels.v2")).map_or(0, |m| m.len());
    out.push(("hublabel.bytes", bytes as f64));
    out.push((
        "hublabel.bytes_per_node",
        bytes as f64 / inputs.graph.num_nodes() as f64,
    ));
    let t0 = Instant::now();
    let engine = Engine::from_index_dir(index_dir).expect("the index the tier was launched from");
    out.push(("roadnet.flat_load_ms", t0.elapsed().as_secs_f64() * 1e3));
    engine
}

/// One update batch applied in process: the cost of the apply, of
/// queries while the labels are stale, of the repair, and of the same
/// queries once it landed.
pub fn update_cycle(engine: &Engine, inputs: &Inputs, rec: &mut Recorder, out: &mut Values) {
    // Batch 1 both doubles and restores, like every timed batch.
    let to_updates = |edges: Vec<(u32, u32, u32)>| -> Vec<WeightUpdate> {
        edges
            .into_iter()
            .map(|(u, v, w)| WeightUpdate { u, v, w })
            .collect()
    };
    engine
        .apply_updates(&to_updates(inputs.update_batch(0)))
        .expect("seeded updates are admissible");
    engine.repair_indexes();

    let s = rec.begin("roadnet.apply_update", 0, 0);
    engine
        .apply_updates(&to_updates(inputs.update_batch(1)))
        .expect("seeded updates are admissible");
    rec.end(s);
    let timed_queries = |rec: &mut Recorder, name: &'static str| {
        for (i, (_, qi)) in slice(inputs).iter().take(STALE_SLICE).enumerate() {
            let query = &inputs.queries[*qi];
            let p = &inputs.p_sets[query.p_set];
            let s = rec.begin(name, 0, i as u64);
            black_box(engine.query(p, &query.q, query.phi, aggregate(query.agg))).ok();
            rec.end(s);
        }
    };
    timed_queries(rec, "core.stale_query");
    let s = rec.begin("hublabel.repair", 0, 0);
    engine.repair_indexes();
    rec.end(s);
    timed_queries(rec, "core.fresh_query");

    out.push((
        "roadnet.apply_update_us",
        p50(&rec.durations_us("roadnet.apply_update")),
    ));
    out.push((
        "core.stale_query_us",
        p50(&rec.durations_us("core.stale_query")),
    ));
    out.push((
        "core.fresh_query_us",
        p50(&rec.durations_us("core.fresh_query")),
    ));
    out.push((
        "hublabel.repair_ms",
        p50(&rec.durations_us("hublabel.repair")) / 1e3,
    ));
    if let Some(report) = engine.last_repair_report() {
        out.push((
            "hublabel.repaired_ratio",
            report.labels_repaired as f64 / report.labels_total.max(1) as f64,
        ));
    }
}

/// What `fannr partition` computes.
pub fn partition_costs(inputs: &Inputs, shards: usize, rec: &mut Recorder, out: &mut Values) {
    let s = rec.begin("gtree.cut", 0, 0);
    let cut = gtree::top_level_cut(&inputs.graph, shards);
    rec.end(s);
    let s = rec.begin("roadnet.shardmap_build", 0, 0);
    black_box(ShardMap::build(&inputs.graph, &cut));
    rec.end(s);
    out.push(("gtree.cut_ms", p50(&rec.durations_us("gtree.cut")) / 1e3));
    out.push((
        "roadnet.shardmap_build_ms",
        p50(&rec.durations_us("roadnet.shardmap_build")) / 1e3,
    ));
}
