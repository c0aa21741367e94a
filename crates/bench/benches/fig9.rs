//! Criterion bench for Fig. 9: index construction time of G-tree vs the
//! hub-label oracle on the two smallest (scaled) datasets.

use criterion::{criterion_group, criterion_main, Criterion};
use gtree::{GTree, GTreeParams};
use hublabel::HubLabels;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/index-build");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    for spec in workload::datasets::DATASETS.iter().take(2) {
        let g = spec.synthesize_scaled(0.5);
        group.bench_function(format!("gtree/{}", spec.name), |b| {
            b.iter(|| {
                GTree::build_with_params(
                    &g,
                    GTreeParams {
                        fanout: 4,
                        leaf_cap: spec.gtree_leaf_cap,
                    },
                )
            });
        });
        group.bench_function(format!("labels/{}", spec.name), |b| {
            b.iter(|| HubLabels::build(&g).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
