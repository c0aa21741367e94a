//! Ablation bench (DESIGN.md §7): point-to-point oracle comparison —
//! Dijkstra vs A* vs hub labels vs G-tree.
//! The spread here is what drives the Fig. 3 backend spread.

use criterion::{criterion_group, criterion_main, Criterion};
use fann_core::gphi::oracle::{
    AStarOracle, DijkstraOracle, DistanceOracle, GTreeOracle, GuardedLabelOracle,
};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let g = workload::synth::road_network(3000, &mut workload::rng(0xD15));
    let hl = hublabel::HubLabels::build(&g).unwrap();
    let gt = gtree::GTree::build_with_params(
        &g,
        gtree::GTreeParams {
            fanout: 4,
            leaf_cap: 64,
        },
    );
    let oracles: Vec<Box<dyn DistanceOracle>> = vec![
        Box::new(DijkstraOracle::new(&g)),
        Box::new(AStarOracle::new(&g)),
        Box::new(GuardedLabelOracle::new(&hl)),
        Box::new(GTreeOracle {
            tree: &gt,
            graph: &g,
        }),
    ];
    // A fixed set of medium/long pairs.
    let n = g.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..32u32)
        .map(|i| ((i * 97) % n, (i * 53 + n / 2) % n))
        .collect();

    let mut group = c.benchmark_group("oracles/point-to-point");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for o in &oracles {
        group.bench_function(o.name(), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(s, t) in &pairs {
                    acc = acc.wrapping_add(o.dist(s, t).unwrap_or(0));
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
