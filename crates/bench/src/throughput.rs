//! Batch/throughput harness: recycled search state vs per-query
//! construction.
//!
//! Measures a stream of localized FANN_R queries three ways:
//!
//! 1. **Backend level** (INE and A\*): `GD` with a backend constructed
//!    fresh per query vs one long-lived backend rebound per query
//!    ([`fann_core::gphi::ReusableGPhi`] / a persistent oracle scratch).
//!    This isolates the cost the batch layer removes — the `O(|V|)`
//!    membership mask and distance-array setup that per-query
//!    construction pays on every single query.
//! 2. **Engine level**: sequential [`Engine::query`] vs
//!    [`Engine::query_batch`] with 1 and N workers, over a mixed
//!    sum/max stream.
//!
//! Reported per mode: queries/sec, p50/p99 latency (sequential modes),
//! and allocations/query — the latter via [`CountingAlloc`], which the
//! calling binary installs as `#[global_allocator]` (counts read 0 → "n/a"
//! when it is not installed).

use crate::print_table;
use fann_core::algo::gd;
use fann_core::engine::{BatchQuery, BatchReport, Engine};
use fann_core::gphi::ine::InePhi;
use fann_core::gphi::oracle::AStarOracle;
use fann_core::gphi::scan::ScanPhi;
use fann_core::gphi::ReusableGPhi;
use fann_core::{Aggregate, FannQuery};
use rand::seq::SliceRandom;
use rand::Rng;
use roadnet::{DijkstraIter, Graph, LowerBound, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation-counting wrapper around the system allocator. Install in a
/// binary with `#[global_allocator]` to make [`allocation_count`] live.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all allocation to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations since process start (0 unless [`CountingAlloc`] is the
/// global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Knobs for [`run_throughput`].
pub struct ThroughputOpts {
    /// Nodes of the synthetic road network.
    pub nodes: usize,
    /// Queries in the stream.
    pub queries: usize,
    /// Candidate data points per query (`|P|`).
    pub p_size: usize,
    /// Query points per query (`|Q|`).
    pub q_size: usize,
    /// Flexibility.
    pub phi: f64,
    /// Workers for the parallel batch run (0 = available parallelism).
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ThroughputOpts {
    fn default() -> Self {
        ThroughputOpts {
            nodes: 200_000,
            queries: 300,
            p_size: 6,
            q_size: 4,
            phi: 0.5,
            workers: 0,
            seed: 0xBA7C4,
        }
    }
}

/// One measured mode.
#[derive(Debug, Clone)]
pub struct ModeStats {
    pub label: String,
    pub qps: f64,
    /// Per-query latency percentiles in microseconds; `NaN` for parallel
    /// modes (individual latencies are not observable from outside).
    pub p50_us: f64,
    pub p99_us: f64,
    /// `NaN` when the counting allocator is not installed.
    pub allocs_per_query: f64,
}

/// Everything [`run_throughput`] measured, for shape checks.
pub struct ThroughputReport {
    pub ine_fresh: ModeStats,
    pub ine_reused: ModeStats,
    pub astar_fresh: ModeStats,
    pub astar_reused: ModeStats,
    pub engine_seq: ModeStats,
    pub engine_batch1: ModeStats,
    pub engine_batch_n: ModeStats,
    /// The instrumented pass ([`Engine::query_batch_traced`], one worker),
    /// so the table shows what tracing costs relative to `engine_batch1`.
    pub engine_traced: ModeStats,
    /// Per-strategy work counters + latency histograms from the traced
    /// pass; answers are asserted identical to the untraced batch.
    pub traced: BatchReport,
    pub batch_workers: usize,
}

/// Draw a stream of *localized* queries: each query picks a random center
/// and samples `P` and `Q` from the ~`ball` network-nearest nodes — the
/// realistic FANN_R shape (nearby facilities, nearby users) under which
/// per-query `O(|V|)` setup dominates the actual search work.
pub fn make_stream(g: &Graph, opts: &ThroughputOpts) -> Vec<BatchQuery> {
    let mut rng = workload::rng(opts.seed);
    let ball = 12 * (opts.p_size + opts.q_size);
    (0..opts.queries)
        .map(|i| {
            // Resample the center if it lands in a pocket too small to
            // host both point sets (synthetic networks can drop edges).
            let mut near: Vec<NodeId> = Vec::new();
            while near.len() < opts.p_size + opts.q_size {
                let center = rng.gen_range(0..g.num_nodes() as u32);
                near = DijkstraIter::new(g, center)
                    .take(ball)
                    .map(|(v, _)| v)
                    .collect();
            }
            near.shuffle(&mut rng);
            let p: Vec<NodeId> = near.iter().copied().take(opts.p_size).collect();
            let q: Vec<NodeId> = near
                .iter()
                .copied()
                .skip(opts.p_size)
                .take(opts.q_size)
                .collect();
            let agg = if i % 2 == 0 {
                Aggregate::Max
            } else {
                Aggregate::Sum
            };
            BatchQuery::new(p, q, opts.phi, agg)
        })
        .collect()
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// Time `one(i)` for every query index, collecting per-query latency.
fn measure_sequential(label: &str, n: usize, mut one: impl FnMut(usize)) -> ModeStats {
    let allocs0 = allocation_count();
    let mut lat_us = Vec::with_capacity(n);
    let t0 = Instant::now();
    for i in 0..n {
        let q0 = Instant::now();
        one(i);
        lat_us.push(q0.elapsed().as_secs_f64() * 1e6);
    }
    let total = t0.elapsed().as_secs_f64();
    let allocs = allocation_count() - allocs0;
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ModeStats {
        label: label.to_string(),
        qps: n as f64 / total,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        allocs_per_query: if allocation_count() == 0 {
            f64::NAN
        } else {
            allocs as f64 / n as f64
        },
    }
}

/// Time one opaque run covering all `n` queries (parallel modes).
fn measure_bulk(label: &str, n: usize, run: impl FnOnce()) -> ModeStats {
    let allocs0 = allocation_count();
    let t0 = Instant::now();
    run();
    let total = t0.elapsed().as_secs_f64();
    let allocs = allocation_count() - allocs0;
    ModeStats {
        label: label.to_string(),
        qps: n as f64 / total,
        p50_us: f64::NAN,
        p99_us: f64::NAN,
        allocs_per_query: if allocation_count() == 0 {
            f64::NAN
        } else {
            allocs as f64 / n as f64
        },
    }
}

fn fann_query(bq: &BatchQuery) -> FannQuery<'_> {
    FannQuery {
        p: &bq.p,
        q: &bq.q,
        phi: bq.phi,
        agg: bq.agg,
    }
}

fn fmt_stat(s: &ModeStats) -> Vec<String> {
    let us = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.1}us")
        }
    };
    vec![
        s.label.clone(),
        format!("{:.0}", s.qps),
        us(s.p50_us),
        us(s.p99_us),
        if s.allocs_per_query.is_nan() {
            "n/a".to_string()
        } else {
            format!("{:.1}", s.allocs_per_query)
        },
    ]
}

/// Run the full throughput comparison, print the table, return the numbers.
///
/// # Panics
/// If `opts.queries == 0` or `opts.nodes < 4` (nothing to measure).
pub fn run_throughput(opts: &ThroughputOpts) -> ThroughputReport {
    assert!(opts.queries > 0, "need at least one query to measure");
    assert!(opts.nodes >= 4, "need at least 4 nodes, got {}", opts.nodes);
    let graph = workload::synth::road_network(opts.nodes, &mut workload::rng(opts.seed ^ 0x51ED));
    eprintln!(
        "[throughput] graph: {} nodes, {} edges; {} queries, |P|={}, |Q|={}, phi={}",
        graph.num_nodes(),
        graph.num_edges(),
        opts.queries,
        opts.p_size,
        opts.q_size,
        opts.phi,
    );
    let stream = make_stream(&graph, opts);
    let n = stream.len();
    let lb = LowerBound::for_graph(&graph);

    // -- Backend level: GD with INE --------------------------------------
    let ine_fresh = measure_sequential("GD/INE fresh backend", n, |i| {
        let bq = &stream[i];
        let backend = InePhi::new(&graph, &bq.q);
        gd(&fann_query(bq), &backend);
    });
    let mut ine = InePhi::new(&graph, &stream[0].q);
    let ine_reused = measure_sequential("GD/INE reused backend", n, |i| {
        let bq = &stream[i];
        ine.rebind(&bq.q);
        gd(&fann_query(bq), &ine);
    });

    // -- Backend level: GD with A* ---------------------------------------
    let astar_fresh = measure_sequential("GD/A* fresh backend", n, |i| {
        let bq = &stream[i];
        let backend = ScanPhi::new(AStarOracle::with_lb(&graph, lb), &bq.q);
        gd(&fann_query(bq), &backend);
    });
    let oracle = AStarOracle::with_lb(&graph, lb);
    let astar_reused = measure_sequential("GD/A* reused backend", n, |i| {
        let bq = &stream[i];
        let backend = ScanPhi::new(&oracle, &bq.q);
        gd(&fann_query(bq), &backend);
    });

    // -- Engine level ----------------------------------------------------
    let engine = Engine::new(&graph);
    let engine_seq = measure_sequential("Engine::query sequential", n, |i| {
        let bq = &stream[i];
        engine
            .query(&bq.p, &bq.q, bq.phi, bq.agg)
            .expect("stream queries are valid");
    });
    let engine_batch1 = measure_bulk("Engine::query_batch w=1", n, || {
        engine.query_batch(&stream, 1);
    });
    let batch_workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    };
    let engine_batch_n = measure_bulk(&format!("Engine::query_batch w={batch_workers}"), n, || {
        engine.query_batch(&stream, opts.workers);
    });

    // -- Instrumented pass: identical answers + per-strategy counters -----
    let mut traced_results = Vec::new();
    let mut traced = BatchReport::default();
    let engine_traced = measure_bulk("Engine::query_batch_traced w=1", n, || {
        let (r, b) = engine.query_batch_traced(&stream, 1);
        traced_results = r;
        traced = b;
    });
    let plain = engine.query_batch(&stream, 1);
    for (i, (a, b)) in plain.iter().zip(traced_results.iter()).enumerate() {
        let a = a.as_ref().expect("stream queries are valid");
        let b = b.as_ref().expect("stream queries are valid");
        assert_eq!(
            a.as_ref().map(|x| (x.p_star, x.dist)),
            b.as_ref().map(|x| (x.p_star, x.dist)),
            "traced answer diverged from untraced at query {i}"
        );
    }

    let report = ThroughputReport {
        ine_fresh,
        ine_reused,
        astar_fresh,
        astar_reused,
        engine_seq,
        engine_batch1,
        engine_batch_n,
        engine_traced,
        traced,
        batch_workers,
    };
    let header: Vec<String> = ["mode", "q/s", "p50", "p99", "allocs/query"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = [
        &report.ine_fresh,
        &report.ine_reused,
        &report.astar_fresh,
        &report.astar_reused,
        &report.engine_seq,
        &report.engine_batch1,
        &report.engine_batch_n,
        &report.engine_traced,
    ]
    .iter()
    .map(|s| fmt_stat(s))
    .collect();
    print_table(
        "batch throughput: recycled scratch vs per-query setup",
        &header,
        &rows,
    );
    println!(
        "speedup (reused/fresh): INE {:.2}x, A* {:.2}x; batch w={} vs sequential {:.2}x",
        report.ine_reused.qps / report.ine_fresh.qps,
        report.astar_reused.qps / report.astar_fresh.qps,
        report.batch_workers,
        report.engine_batch_n.qps / report.engine_seq.qps,
    );
    println!("per-strategy work (traced pass, answers verified against untraced):");
    for (s, r) in report.traced.active() {
        println!("  {:<12} n={:<4} {}", s.name(), r.queries, r.stats);
        println!("  {:<12} {}", "", r.latency);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_valid_and_deterministic() {
        let opts = ThroughputOpts {
            nodes: 600,
            queries: 10,
            ..Default::default()
        };
        let g = workload::synth::road_network(opts.nodes, &mut workload::rng(opts.seed ^ 0x51ED));
        let a = make_stream(&g, &opts);
        let b = make_stream(&g, &opts);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.p, y.p);
            assert_eq!(x.q, y.q);
            assert!(!x.p.is_empty() && !x.q.is_empty());
        }
    }

    #[test]
    fn percentile_picks_ends() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
