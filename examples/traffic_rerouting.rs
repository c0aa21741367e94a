//! Live traffic and the case for index-free FANN_R (paper §IV).
//!
//! A dispatch service keeps choosing the best depot (`P`) to serve a set
//! of delivery stops (`Q`, any 70% per run). When traffic changes, the
//! indexed pipeline must rebuild its labels (seconds to minutes, Fig. 9b)
//! while the index-free `Exact-max` answers on a fresh snapshot
//! immediately — this example measures both sides of that trade-off.
//!
//! Run with: `cargo run --release --example traffic_rerouting`

use fannr::fann::algo::exact_max;
use fannr::fann::{Aggregate, FannQuery};
use fannr::hublabel::HubLabels;
use fannr::roadnet::DynamicNetwork;

fn main() {
    let mut rng = fannr::workload::rng(66);
    let base = fannr::workload::synth::road_network(6000, &mut rng);
    let depots = fannr::workload::points::uniform_data_points(
        &base,
        30.0 / base.num_nodes() as f64,
        &mut rng,
    );
    let stops = fannr::workload::points::uniform_query_points(&base, 20, 0.4, &mut rng);
    println!(
        "network: {} nodes | {} depots | {} stops (serve any 70%)",
        base.num_nodes(),
        depots.len(),
        stops.len()
    );

    let mut live = DynamicNetwork::from_graph(&base);
    let query = |g: &fannr::roadnet::Graph| {
        let q = FannQuery::new(&depots, &stops, 0.7, Aggregate::Max);
        exact_max(g, &q).expect("reachable")
    };

    // Morning: free-flowing traffic.
    let t0 = std::time::Instant::now();
    let morning = query(&live.snapshot());
    println!(
        "\n08:00 — depot {} (worst leg {}), answered in {:?} with zero index",
        morning.p_star,
        morning.dist,
        t0.elapsed()
    );

    // Rush hour: congest every road around the chosen depot 6x.
    let snapshot = live.snapshot();
    let mut jammed = 0;
    for (u, v, _) in snapshot.edges() {
        let close = snapshot
            .euclid(u, morning.p_star)
            .min(snapshot.euclid(v, morning.p_star));
        if close < 800.0 {
            live.scale_weight(u, v, 6.0).expect("edge exists");
            jammed += 1;
        }
    }
    println!(
        "\n17:30 — rush hour: {jammed} road segments around depot {} now 6x slower",
        morning.p_star
    );

    let t0 = std::time::Instant::now();
    let evening = query(&live.snapshot());
    let index_free = t0.elapsed();
    println!(
        "new answer: depot {} (worst leg {}), answered in {index_free:?}",
        evening.p_star, evening.dist
    );

    // What the indexed pipeline would pay first: a label rebuild.
    let t0 = std::time::Instant::now();
    let _labels = HubLabels::build(&live.snapshot()).unwrap();
    let rebuild = t0.elapsed();
    println!(
        "\nindexed alternative: rebuild hub labels first = {rebuild:?} \
         ({}x the index-free answer)",
        (rebuild.as_secs_f64() / index_free.as_secs_f64()) as u64
    );
    assert_ne!(
        (morning.p_star, morning.dist),
        (evening.p_star, evening.dist),
        "the jam should move or worsen the optimum"
    );
}
