//! The five workloads: what each sends, to which deployment, and why it
//! is in the set. The README carries the same table with the metrics
//! each one is expected to move.

use crate::inputs::{InputSpec, Mix, QShape, Repeat};
use crate::tier::Deployment;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    pub input: InputSpec,
    /// Open-phase request rate `R`, requests per second over all
    /// connections. Frozen: it never adapts at run time. The README says
    /// how each was derived.
    pub open_rate: f64,
    /// One connection reads while the other sends an update batch every
    /// so many seconds throughout the closed phase; `None` means both
    /// connections read. The open phase follows once the updater has
    /// stopped, on repaired labels.
    pub update_period_s: Option<f64>,
}

const UNIFORM: QShape = QShape::Uniform { coverage: 0.10 };

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "uniform_indexed",
        why: "2048 distinct uniform-Q queries cycled through a 1024-entry cache, so every lookup misses: IER-kNN over hub labels does the work",
        deployment: Deployment::Indexed,
        input: InputSpec {
            nodes: 8000,
            distinct: 2048,
            q_shape: UNIFORM,
            mix: Mix::Cycled,
            repeat: Repeat::Cycle,
        },
        open_rate: 2000.0,
        update_period_s: None,
    },
    Workload {
        name: "hot_cached",
        why: "64 hot clustered-Q queries, Zipf-repeated and re-spelled: all cache hits, so wire parse, admission, cache and serialize are the whole cost",
        deployment: Deployment::Indexed,
        input: InputSpec {
            nodes: 8000,
            distinct: 64,
            q_shape: QShape::Clustered {
                coverage: 0.10,
                clusters: 2,
            },
            mix: Mix::Cycled,
            repeat: Repeat::Zipf,
        },
        open_rate: 8000.0,
        update_period_s: None,
    },
    Workload {
        name: "index_free",
        why: "20k-node graph served with no index (the default and cold-start path): Exact-max and R-List over multi-source expansion do the work",
        deployment: Deployment::IndexFree,
        input: InputSpec {
            nodes: 20000,
            distinct: 2048,
            q_shape: UNIFORM,
            mix: Mix::Cycled,
            repeat: Repeat::Cycle,
        },
        open_rate: 260.0,
        update_period_s: None,
    },
    Workload {
        name: "mixed_updates",
        why: "one reader beside an updater sending an 8-edge batch every second: stale-label fallback and background repair compete with reads for a core",
        deployment: Deployment::Indexed,
        input: InputSpec {
            nodes: 4000,
            distinct: 2048,
            q_shape: UNIFORM,
            mix: Mix::Fixed { m: 64, phi: 0.5 },
            repeat: Repeat::Cycle,
        },
        open_rate: 1100.0,
        update_period_s: Some(1.0),
    },
    Workload {
        name: "routed_clustered",
        why: "512 local clustered-Q queries through the 2-shard router: the only workload where pricing, fan-out and merge run and the prune bound can bite",
        deployment: Deployment::Routed,
        input: InputSpec {
            nodes: 8000,
            distinct: 512,
            q_shape: QShape::Clustered {
                coverage: 0.05,
                clusters: 1,
            },
            mix: Mix::Cycled,
            repeat: Repeat::Cycle,
        },
        open_rate: 980.0,
        update_period_s: None,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: the same workload on a 2k-node graph with
    /// a quarter of the distinct queries.
    pub fn smoke(&self) -> Workload {
        let mut w = *self;
        w.input.nodes = 2000;
        w.input.distinct = (w.input.distinct / 4).max(64);
        w.open_rate = self.open_rate.min(400.0);
        w.update_period_s = self.update_period_s.map(|_| 0.4);
        w
    }
}
