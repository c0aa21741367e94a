//! Exact search-cost counts: the gate for "same work, proven".
//!
//! Wall clock on a shared box drifts by tens of percent; the work counters
//! of [`SearchStats`] are exact and seed-deterministic. This file replays a
//! fixed, seeded slice of queries — both aggregates, three `phi`, `|Q|`
//! from 2 to 12 — on an index-free engine, through `APX-sum` directly and
//! on a hub-labelled engine over one synthetic road network, and asserts
//! every counter of every query equals the committed [`BASELINE`].
//!
//! The baseline was generated by running [`traced_rows`] — the body of
//! [`query_traced_reproduces_the_baseline`] — at the commit *before* the
//! engine's query paths were collapsed onto one dispatch. A change that
//! claims "same work" must pass with the table untouched; a change that
//! claims "less work" edits the table in the same diff (a mismatch prints
//! the measured table in source form).
//!
//! Every way of running a query must do that same work: the throw-away
//! state of `Engine::query_traced`, a `QuerySession` on its 2nd+ query
//! (recycled state), and two sessions on two threads sharing one engine.

use fannr::fann::algo::apx_sum_traced;
use fannr::fann::engine::{BatchQuery, Engine};
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::metrics::{SearchStats, StatsSink};
use fannr::fann::{Aggregate, FannQuery};
use fannr::roadnet::{CancelToken, Graph, NodeId};
use std::sync::OnceLock;

const NODES: usize = 600;
const QUERIES: usize = 32;

/// One query's counters: `[gphi_evals, label_lookups, oracle_calls,
/// nodes_settled, edges_relaxed, heap_pushes, heap_pops, rtree_nodes,
/// candidates_pruned]`.
type Row = [u64; 9];

fn row(s: &SearchStats) -> Row {
    [
        s.gphi_evals,
        s.label_lookups,
        s.oracle_calls,
        s.nodes_settled,
        s.edges_relaxed,
        s.heap_pushes,
        s.heap_pops,
        s.rtree_nodes,
        s.candidates_pruned,
    ]
}

/// The [`BASELINE`] configurations, in table order.
const CONFIGS: [&str; 3] = ["index-free", "apx-sum", "labelled"];
const APX_SUM: usize = 1;

/// One graph, its seeded slice, and the two engine configurations that
/// replay the whole slice, each with its [`BASELINE`] index (covering all
/// three engine strategies). `APX-sum` replays only the sum queries.
struct Fixture {
    graph: Graph,
    slice: Vec<BatchQuery>,
    engines: [(usize, Engine); 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = fannr::workload::rng(20181);
        let g: Graph = fannr::workload::synth::road_network(NODES, &mut rng);
        let slice: Vec<BatchQuery> = (0..QUERIES)
            .map(|i| {
                let density = [0.02, 0.05, 0.15][i % 3];
                let p = fannr::workload::points::uniform_data_points(&g, density, &mut rng);
                let q_size = 2 + (i * 5) % 11;
                let coverage = [0.1, 0.3, 0.6][(i / 3) % 3];
                let q =
                    fannr::workload::points::uniform_query_points(&g, q_size, coverage, &mut rng);
                let phi = [0.25, 0.5, 1.0][(i / 2) % 3];
                let agg = [Aggregate::Max, Aggregate::Sum][i % 2];
                BatchQuery::new(p, q, phi, agg)
            })
            .collect();
        Fixture {
            engines: [(0, Engine::new(&g)), (2, Engine::new(&g).with_labels())],
            graph: g,
            slice,
        }
    })
}

/// What `Engine::query_traced` counts for each query of `slice`.
fn traced_rows(engine: &Engine, slice: &[BatchQuery]) -> Vec<Row> {
    slice
        .iter()
        .map(|bq| {
            let (_, stats) = engine
                .query_traced(&bq.p, &bq.q, bq.phi, bq.agg)
                .expect("valid query");
            row(&stats)
        })
        .collect()
}

/// What one session counts for each query of `slice`, in order.
fn session_rows<'a>(engine: &Engine, slice: impl Iterator<Item = &'a BatchQuery>) -> Vec<Row> {
    let token = CancelToken::new();
    let mut session = engine.session(&token);
    slice
        .map(|bq| {
            let (_, stats, ..) = session
                .query(&bq.p, &bq.q, bq.phi, bq.agg)
                .expect("valid query");
            row(&stats)
        })
        .collect()
}

fn assert_baseline(what: &str, config: usize, got: &[Row]) {
    assert!(
        got == BASELINE[config],
        "{what} on the {} configuration diverged from the committed baseline; measured:\n{}",
        CONFIGS[config],
        got.iter()
            .map(|r| format!("        {r:?},\n"))
            .collect::<String>()
    );
}

/// `ids` as the set the engine canonicalises it to: sorted, no duplicates.
fn canonical(ids: &[NodeId]) -> Vec<NodeId> {
    let mut set = ids.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

#[test]
fn query_traced_reproduces_the_baseline() {
    let f = fixture();
    for (config, engine) in &f.engines {
        assert_baseline("query_traced", *config, &traced_rows(engine, &f.slice));
    }
}

/// `APX-sum` is not an engine strategy; its row replays the slice's sum
/// queries through the algorithm itself, on `P`/`Q` canonicalised as the
/// engine would, with the INE backend counting into the same sink.
#[test]
fn apx_sum_traced_reproduces_the_baseline() {
    let f = fixture();
    let got: Vec<Row> = f
        .slice
        .iter()
        .filter(|bq| bq.agg == Aggregate::Sum)
        .map(|bq| {
            let (p, q) = (canonical(&bq.p), canonical(&bq.q));
            let query = FannQuery::new(&p, &q, bq.phi, bq.agg);
            let sink = StatsSink::new();
            let gphi = InePhi::with_recorder(&f.graph, &q, &sink);
            apx_sum_traced(&f.graph, &query, &gphi, &sink);
            row(&sink.snapshot())
        })
        .collect();
    assert_baseline("apx_sum_traced", APX_SUM, &got);
}

/// One session answers the whole slice, so every query after the first
/// runs on state left behind by a query with another `|Q|` and aggregate.
#[test]
fn recycled_session_reproduces_the_baseline() {
    let f = fixture();
    for (config, engine) in &f.engines {
        let got = session_rows(engine, f.slice.iter());
        assert_baseline("a recycled session", *config, &got);
    }
}

/// Two sessions on two threads share one engine, each answering every
/// other query of the slice: per-thread state stays per-thread, so every
/// query still does exactly its baseline work.
#[test]
fn two_threads_of_recycled_sessions_reproduce_the_baseline() {
    let f = fixture();
    for (config, engine) in &f.engines {
        let [even, odd] = std::thread::scope(|scope| {
            [0, 1]
                .map(|t| {
                    scope.spawn(move || session_rows(engine, f.slice.iter().skip(t).step_by(2)))
                })
                .map(|h| h.join().expect("session thread panicked"))
        });
        let mut got = Vec::with_capacity(f.slice.len());
        for i in 0..f.slice.len() {
            got.push(if i % 2 == 0 { even[i / 2] } else { odd[i / 2] });
        }
        assert_baseline("two threads of sessions", *config, &got);
    }
}

/// Per engine configuration (index-free, `APX-sum`, labelled), one [`Row`]
/// per query of its slice.
const BASELINE: [&[Row]; 3] = [
    // index-free
    &[
        [0, 0, 0, 16, 63, 37, 16, 0, 11],
        [2, 0, 0, 173, 610, 308, 187, 0, 28],
        [0, 0, 0, 171, 698, 364, 178, 0, 84],
        [2, 0, 0, 282, 1070, 458, 318, 0, 10],
        [0, 0, 0, 2037, 7517, 2599, 2275, 0, 17],
        [16, 0, 0, 3392, 12682, 4592, 3841, 0, 75],
        [0, 0, 0, 1037, 3901, 1454, 1160, 0, 4],
        [1, 0, 0, 139, 541, 242, 152, 0, 29],
        [0, 0, 0, 995, 3769, 1444, 1113, 0, 19],
        [1, 0, 0, 337, 1241, 473, 380, 0, 11],
        [0, 0, 0, 283, 988, 438, 303, 0, 27],
        [3, 0, 0, 102, 377, 186, 113, 0, 88],
        [0, 0, 0, 456, 1764, 710, 505, 0, 9],
        [4, 0, 0, 516, 1998, 919, 560, 0, 26],
        [0, 0, 0, 120, 464, 234, 125, 0, 81],
        [8, 0, 0, 3794, 14280, 5010, 4319, 0, 4],
        [0, 0, 0, 1140, 4272, 1479, 1308, 0, 8],
        [70, 0, 0, 37210, 138363, 45065, 43017, 0, 21],
        [0, 0, 0, 300, 1153, 466, 348, 0, 11],
        [1, 0, 0, 139, 534, 293, 145, 0, 29],
        [0, 0, 0, 69, 254, 118, 74, 0, 86],
        [1, 0, 0, 399, 1526, 648, 432, 0, 11],
        [0, 0, 0, 240, 932, 357, 279, 0, 23],
        [28, 0, 0, 8641, 32748, 11243, 9945, 0, 63],
        [0, 0, 0, 1862, 7056, 2582, 2142, 0, 2],
        [7, 0, 0, 1211, 4574, 1721, 1348, 0, 23],
        [0, 0, 0, 995, 3746, 1444, 1116, 0, 29],
        [1, 0, 0, 173, 671, 307, 185, 0, 11],
        [0, 0, 0, 375, 1455, 634, 414, 0, 27],
        [3, 0, 0, 149, 565, 272, 159, 0, 88],
        [0, 0, 0, 517, 1905, 783, 580, 0, 9],
        [1, 0, 0, 67, 254, 127, 68, 0, 29],
    ],
    // apx-sum
    &[
        [3, 0, 0, 181, 658, 330, 194, 0, 27],
        [4, 0, 0, 424, 1622, 672, 485, 0, 8],
        [4, 0, 0, 692, 2594, 968, 777, 0, 87],
        [4, 0, 0, 221, 849, 370, 243, 0, 26],
        [1, 0, 0, 156, 573, 247, 167, 0, 11],
        [2, 0, 0, 58, 212, 104, 63, 0, 89],
        [4, 0, 0, 410, 1596, 758, 443, 0, 26],
        [5, 0, 0, 2049, 7709, 2798, 2331, 0, 7],
        [10, 0, 0, 4920, 18346, 6039, 5676, 0, 81],
        [2, 0, 0, 156, 589, 322, 166, 0, 28],
        [3, 0, 0, 443, 1661, 712, 476, 0, 9],
        [7, 0, 0, 2229, 8439, 2916, 2548, 0, 84],
        [6, 0, 0, 777, 2921, 1143, 858, 0, 24],
        [2, 0, 0, 239, 935, 402, 251, 0, 10],
        [2, 0, 0, 112, 422, 195, 121, 0, 89],
        [2, 0, 0, 68, 260, 132, 69, 0, 28],
    ],
    // labelled
    &[
        [1, 2, 2, 0, 0, 0, 0, 3, 11],
        [1, 2, 2, 0, 0, 0, 0, 8, 29],
        [1, 9, 9, 0, 0, 0, 0, 11, 90],
        [1, 4, 4, 0, 0, 0, 0, 6, 11],
        [5, 55, 55, 0, 0, 0, 0, 31, 25],
        [8, 40, 40, 0, 0, 0, 0, 35, 83],
        [4, 25, 25, 0, 0, 0, 0, 19, 8],
        [4, 6, 6, 0, 0, 0, 0, 10, 26],
        [14, 93, 93, 0, 0, 0, 0, 75, 77],
        [1, 3, 3, 0, 0, 0, 0, 4, 11],
        [1, 8, 8, 0, 0, 0, 0, 7, 29],
        [3, 6, 6, 0, 0, 0, 0, 7, 88],
        [2, 4, 4, 0, 0, 0, 0, 9, 10],
        [3, 14, 14, 0, 0, 0, 0, 20, 27],
        [2, 6, 6, 0, 0, 0, 0, 13, 89],
        [3, 30, 30, 0, 0, 0, 0, 20, 9],
        [2, 10, 10, 0, 0, 0, 0, 12, 28],
        [21, 210, 210, 0, 0, 0, 0, 122, 70],
        [1, 4, 4, 0, 0, 0, 0, 3, 11],
        [1, 5, 5, 0, 0, 0, 0, 8, 29],
        [3, 9, 9, 0, 0, 0, 0, 9, 88],
        [2, 9, 9, 0, 0, 0, 0, 9, 10],
        [4, 8, 8, 0, 0, 0, 0, 11, 26],
        [9, 63, 63, 0, 0, 0, 0, 42, 82],
        [8, 31, 31, 0, 0, 0, 0, 34, 4],
        [6, 14, 14, 0, 0, 0, 0, 26, 24],
        [14, 109, 109, 0, 0, 0, 0, 69, 77],
        [1, 4, 4, 0, 0, 0, 0, 6, 11],
        [1, 10, 10, 0, 0, 0, 0, 8, 29],
        [2, 8, 8, 0, 0, 0, 0, 9, 89],
        [3, 9, 9, 0, 0, 0, 0, 12, 9],
        [2, 3, 3, 0, 0, 0, 0, 7, 28],
    ],
];
