//! Exact search-cost counts: the gate for "same work, proven".
//!
//! Wall clock on a shared box drifts by tens of percent; the work counters
//! of [`SearchStats`] are exact and seed-deterministic. This file replays a
//! fixed, seeded slice of queries — both aggregates, three `phi`, `|Q|`
//! from 2 to 12 — on an index-free engine, through `APX-sum` directly and
//! on a hub-labelled engine over one synthetic road network, and asserts
//! every counter of every query equals the committed [`BASELINE`].
//!
//! A second, smaller table, [`CLUSTERED_BASELINE`], replays the shapes
//! the benchmark's clustered workloads send — `|Q|` = 64 grown around one
//! or two centres — on the index-free and labelled engines.
//! [`WIDE_BASELINE`] does the same for `|Q|` = 128, and
//! [`LARGE_BASELINE`] holds one max and one sum query on a 5k-node graph
//! through the index-free engine, where `Exact-max` and `R-List` settle
//! thousands of nodes per stream.
//!
//! The baseline was generated by running [`traced_rows`] — the body of
//! [`query_traced_reproduces_the_baseline`] — at the commit *before* the
//! engine's query paths were collapsed onto one dispatch; the clustered
//! table at the commit before it was added; the wide and large tables at
//! the commit before the stream drivers lost their generic stream
//! interface. A change that
//! claims "same work" must pass with the table untouched; a change that
//! claims "less work" edits the table in the same diff (a mismatch prints
//! the measured table in source form).
//!
//! Every way of running a query must do that same work: the throw-away
//! state of `Engine::query_traced`, a `QuerySession` on its 2nd+ query
//! (recycled state), and two sessions on two threads sharing one engine.
//!
//! [`WIRE_BYTES`] pins the byte lengths of the canonical wire forms — a
//! query request and each kind of server reply — built from the first
//! query of the slice, so a change to the serving tier that claims to
//! move no wire bytes passes with it untouched.

use fannr::fann::algo::apx_sum_traced;
use fannr::fann::engine::Engine;
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::metrics::{SearchStats, StatsSink};
use fannr::fann::{Aggregate, FannQuery};
use fannr::roadnet::{CancelToken, Graph, NodeId};
use fannr::serve::{Body, HealthInfo, MetricsInfo, Op, QuerySpec, Request, Response};
use std::sync::OnceLock;
use std::time::Duration;

const NODES: usize = 600;
const QUERIES: usize = 32;
const CLUSTERED_QUERIES: usize = 16;
const LARGE_NODES: usize = 5_000;

/// One query of a replayed slice.
struct Case {
    p: Vec<NodeId>,
    q: Vec<NodeId>,
    phi: f64,
    agg: Aggregate,
}

fn case(p: Vec<NodeId>, q: Vec<NodeId>, phi: f64, agg: Aggregate) -> Case {
    Case { p, q, phi, agg }
}

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

/// One graph, its two seeded slices, and the two engine configurations
/// that replay them, each with its [`BASELINE`] index (covering all three
/// engine strategies). `APX-sum` replays only the sum queries of `slice`.
struct Fixture {
    graph: Graph,
    slice: Vec<Case>,
    /// Clustered `Q`, one row per query in [`CLUSTERED_BASELINE`].
    clustered: Vec<Case>,
    /// `|Q|` = 128, one row per query in [`WIDE_BASELINE`].
    wide: Vec<Case>,
    engines: [(usize, Engine); 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = fannr::workload::rng(20181);
        let g: Graph = fannr::workload::synth::road_network(NODES, &mut rng);
        let slice: Vec<Case> = (0..QUERIES)
            .map(|i| {
                let density = [0.02, 0.05, 0.15][i % 3];
                let p = fannr::workload::points::uniform_data_points(&g, density, &mut rng);
                let q_size = 2 + (i * 5) % 11;
                let coverage = [0.1, 0.3, 0.6][(i / 3) % 3];
                let q =
                    fannr::workload::points::uniform_query_points(&g, q_size, coverage, &mut rng);
                let phi = [0.25, 0.5, 1.0][(i / 2) % 3];
                let agg = [Aggregate::Max, Aggregate::Sum][i % 2];
                case(p, q, phi, agg)
            })
            .collect();
        // Every combination of the benchmark's two clustered shapes — one
        // centre in 5 % of the radius (`routed_clustered`), two in 10 %
        // (`hot_cached`) — with both aggregates and four `phi`.
        let mut rng = fannr::workload::rng(20182);
        let clustered: Vec<Case> = (0..CLUSTERED_QUERIES)
            .map(|i| {
                let p = fannr::workload::points::uniform_data_points(&g, 0.05, &mut rng);
                let (clusters, coverage) = [(1, 0.05), (2, 0.10)][i % 2];
                let q = fannr::workload::points::clustered_query_points(
                    &g, 64, coverage, clusters, &mut rng,
                );
                let agg = [Aggregate::Max, Aggregate::Sum][(i / 2) % 2];
                let phi = [0.25, 0.5, 0.75, 1.0][i / 4];
                case(p, q, phi, agg)
            })
            .collect();
        // Both aggregates at two `phi` over 128 query points spread across
        // most of the network.
        let mut rng = fannr::workload::rng(20184);
        let wide: Vec<Case> = (0..4)
            .map(|i| {
                let p = fannr::workload::points::uniform_data_points(&g, 0.15, &mut rng);
                let q = fannr::workload::points::uniform_query_points(&g, 128, 0.6, &mut rng);
                let agg = [Aggregate::Max, Aggregate::Sum][i % 2];
                case(p, q, [0.25, 1.0][i / 2], agg)
            })
            .collect();
        Fixture {
            engines: [(0, Engine::new(&g)), (2, Engine::new(&g).with_labels())],
            graph: g,
            slice,
            clustered,
            wide,
        }
    })
}

/// The index-free engine on a 5k-node graph and its [`LARGE_BASELINE`]
/// slice: one max and one sum query.
fn large() -> &'static (Engine, Vec<Case>) {
    static LARGE: OnceLock<(Engine, Vec<Case>)> = OnceLock::new();
    LARGE.get_or_init(|| {
        let mut rng = fannr::workload::rng(20185);
        let g: Graph = fannr::workload::synth::road_network(LARGE_NODES, &mut rng);
        assert!(g.num_nodes() >= LARGE_NODES);
        let cases = [Aggregate::Max, Aggregate::Sum]
            .into_iter()
            .map(|agg| {
                let p = fannr::workload::points::uniform_data_points(&g, 0.01, &mut rng);
                let q = fannr::workload::points::uniform_query_points(&g, 16, 0.3, &mut rng);
                case(p, q, 0.5, agg)
            })
            .collect();
        (Engine::new(&g), cases)
    })
}

/// What `Engine::query_traced` counts for each query of `slice`.
fn traced_rows(engine: &Engine, slice: &[Case]) -> Vec<Row> {
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
fn session_rows<'a>(engine: &Engine, slice: impl Iterator<Item = &'a Case>) -> Vec<Row> {
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

fn assert_baseline(what: &str, config: usize, want: &[Row], got: &[Row]) {
    assert!(
        got == want,
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
    for (i, (config, engine)) in f.engines.iter().enumerate() {
        let got = traced_rows(engine, &f.slice);
        assert_baseline("query_traced", *config, BASELINE[*config], &got);
        let got = traced_rows(engine, &f.clustered);
        let want = CLUSTERED_BASELINE[i];
        assert_baseline("query_traced on clustered Q", *config, want, &got);
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
    assert_baseline("apx_sum_traced", APX_SUM, BASELINE[APX_SUM], &got);
}

/// One session answers the whole slice, so every query after the first
/// runs on state left behind by a query with another `|Q|` and aggregate.
#[test]
fn recycled_session_reproduces_the_baseline() {
    let f = fixture();
    for (i, (config, engine)) in f.engines.iter().enumerate() {
        let got = session_rows(engine, f.slice.iter());
        assert_baseline("a recycled session", *config, BASELINE[*config], &got);
        let got = session_rows(engine, f.clustered.iter());
        let want = CLUSTERED_BASELINE[i];
        assert_baseline("a recycled session on clustered Q", *config, want, &got);
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
        assert_baseline("two threads of sessions", *config, BASELINE[*config], &got);
    }
}

/// `|Q|` = 128 on both engines, and the 5k-node graph's max and sum
/// queries on the index-free one, through `query_traced` and through a
/// recycled session.
#[test]
fn wide_q_and_a_large_graph_reproduce_the_baseline() {
    let f = fixture();
    for (i, (config, engine)) in f.engines.iter().enumerate() {
        let want = WIDE_BASELINE[i];
        let got = traced_rows(engine, &f.wide);
        assert_baseline("query_traced on |Q| = 128", *config, want, &got);
        let got = session_rows(engine, f.wide.iter());
        assert_baseline("a recycled session on |Q| = 128", *config, want, &got);
    }
    let (engine, cases) = large();
    let got = traced_rows(engine, cases);
    assert_baseline("query_traced on 5k nodes", 0, LARGE_BASELINE, &got);
    let got = session_rows(engine, cases.iter());
    assert_baseline("a recycled session on 5k nodes", 0, LARGE_BASELINE, &got);
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

/// Per engine configuration (index-free, labelled), one [`Row`] per query
/// of the clustered slice.
const CLUSTERED_BASELINE: [&[Row]; 2] = [
    // index-free
    &[
        [0, 0, 0, 1791, 6701, 3009, 1966, 0, 25],
        [0, 0, 0, 2160, 8371, 3774, 2307, 0, 23],
        [6, 0, 0, 1367, 5119, 2474, 1467, 0, 24],
        [3, 0, 0, 1715, 6488, 3020, 1883, 0, 27],
        [0, 0, 0, 3609, 13749, 5674, 3916, 0, 22],
        [0, 0, 0, 3712, 13610, 5604, 4095, 0, 21],
        [2, 0, 0, 2354, 9073, 3951, 2535, 0, 28],
        [3, 0, 0, 1872, 6811, 3145, 2033, 0, 27],
        [0, 0, 0, 4519, 17417, 6992, 5069, 0, 21],
        [0, 0, 0, 4437, 16767, 6756, 4975, 0, 17],
        [9, 0, 0, 4102, 16041, 6574, 4536, 0, 21],
        [6, 0, 0, 3803, 14666, 5892, 4213, 0, 24],
        [0, 0, 0, 9194, 33476, 12091, 10497, 0, 21],
        [0, 0, 0, 9225, 34121, 12281, 10575, 0, 20],
        [10, 0, 0, 5700, 21510, 8478, 6324, 0, 20],
        [7, 0, 0, 3707, 13613, 5617, 4058, 0, 23],
    ],
    // labelled
    &[
        [3, 81, 81, 0, 0, 0, 0, 48, 27],
        [4, 114, 114, 0, 0, 0, 0, 64, 26],
        [3, 69, 69, 0, 0, 0, 0, 41, 27],
        [2, 48, 48, 0, 0, 0, 0, 35, 28],
        [4, 203, 203, 0, 0, 0, 0, 89, 26],
        [1, 44, 44, 0, 0, 0, 0, 23, 29],
        [1, 46, 46, 0, 0, 0, 0, 26, 29],
        [2, 98, 98, 0, 0, 0, 0, 44, 28],
        [3, 190, 190, 0, 0, 0, 0, 67, 27],
        [4, 253, 253, 0, 0, 0, 0, 89, 26],
        [5, 315, 315, 0, 0, 0, 0, 113, 25],
        [3, 187, 187, 0, 0, 0, 0, 70, 27],
        [4, 256, 256, 0, 0, 0, 0, 89, 26],
        [4, 256, 256, 0, 0, 0, 0, 88, 26],
        [3, 192, 192, 0, 0, 0, 0, 70, 27],
        [5, 320, 320, 0, 0, 0, 0, 110, 25],
    ],
];

/// Per engine configuration (index-free, labelled), one [`Row`] per query
/// of the `|Q|` = 128 slice.
const WIDE_BASELINE: [&[Row]; 2] = [
    // index-free
    &[
        [0, 0, 0, 10047, 38198, 14994, 11280, 0, 9],
        [71, 0, 0, 13784, 51959, 20466, 15368, 0, 20],
        [0, 0, 0, 52660, 196018, 64870, 60698, 0, 0],
        [91, 0, 0, 72701, 269776, 89519, 83704, 0, 0],
    ],
    // labelled
    &[
        [37, 1944, 1944, 0, 0, 0, 0, 1067, 54],
        [36, 1867, 1867, 0, 0, 0, 0, 1039, 55],
        [27, 3456, 3456, 0, 0, 0, 0, 1316, 64],
        [37, 4736, 4736, 0, 0, 0, 0, 1802, 54],
    ],
];

/// The index-free engine on the 5k-node graph: the max query, then the
/// sum query.
const LARGE_BASELINE: &[Row] = &[
    [0, 0, 0, 7240, 27044, 9354, 8284, 0, 29],
    [5, 0, 0, 6339, 23767, 8549, 7259, 0, 45],
];

/// The canonical wire forms, one per line kind, built from the slice's
/// first query on the labelled engine: `(what, its JSON line)`, newline
/// excluded.
fn wire_forms() -> Vec<(&'static str, String)> {
    let f = fixture();
    let bq = &f.slice[0];
    let engine = &f.engines[1].1;
    let id = || Some("q-1".to_string());
    let reply = |body| Response { id: id(), body }.to_json();
    let request = Request {
        id: id(),
        op: Op::Query(QuerySpec {
            p: bq.p.clone(),
            q: bq.q.clone(),
            phi: bq.phi,
            agg: bq.agg,
            deadline_ms: Some(250),
        }),
    };
    let (answer, stats) = engine
        .query_traced(&bq.p, &bq.q, bq.phi, bq.agg)
        .expect("valid query");
    let strategy = engine.strategy_for(bq.agg).name();
    let error = engine
        .query(&bq.p, &bq.q, 0.0, bq.agg)
        .expect_err("phi 0 is out of range")
        .to_string();
    let health = HealthInfo {
        uptime_ms: 61_000,
        inflight: 1,
        queued: 0,
        workers: 2,
        epoch: 3,
        labels_total: NODES as u64,
        ..HealthInfo::default()
    };
    let mut metrics = MetricsInfo {
        requests: 12,
        ok: 9,
        empty: 1,
        cancelled: 1,
        shed: 2,
        errors: 1,
        updates: 3,
        epoch: 3,
        cache_hits: 4,
        cache_misses: 8,
        cache_insertions: 8,
        search: stats,
        ..MetricsInfo::default()
    };
    for us in [12, 48, 48, 95, 310, 1_520] {
        metrics.latency.record(Duration::from_micros(us));
    }
    vec![
        ("query request", request.to_json()),
        (
            "ok",
            Response::for_answer(id(), answer.as_ref(), strategy, 1_521).to_json(),
        ),
        ("empty", reply(Body::Empty)),
        ("shed", reply(Body::Shed)),
        ("cancelled", reply(Body::Cancelled)),
        ("error", reply(Body::Error { error })),
        (
            "updated",
            reply(Body::Updated {
                epoch: 3,
                applied: 8,
            }),
        ),
        ("health", reply(Body::Health(health))),
        ("metrics", reply(Body::Metrics(Box::new(metrics)))),
    ]
}

/// Each canonical wire form is exactly as long as when the pins were
/// taken: serving changes that claim to move no wire bytes must pass with
/// [`WIRE_BYTES`] untouched.
#[test]
fn wire_forms_keep_their_byte_lengths() {
    let got: Vec<(&str, usize)> = wire_forms()
        .iter()
        .map(|(what, line)| (*what, line.len()))
        .collect();
    assert!(
        got == WIRE_BYTES,
        "the wire forms' byte lengths diverged from the committed pins; measured:\n{}",
        got.iter()
            .map(|(what, len)| format!("    ({what:?}, {len}),\n"))
            .collect::<String>()
    );
}

/// Byte lengths of [`wire_forms`], newline excluded, taken at the commit
/// before misses moved from worker threads onto the connection's reader.
const WIRE_BYTES: &[(&str, usize)] = &[
    ("query request", 132),
    ("ok", 104),
    ("empty", 29),
    ("shed", 28),
    ("cancelled", 33),
    ("error", 62),
    ("updated", 53),
    ("health", 183),
    ("metrics", 584),
];
