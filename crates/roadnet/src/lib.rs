//! Road-network substrate for FANN_R queries.
//!
//! A road network is modeled as an undirected weighted graph `G = (V, E, W)`
//! with positive integer edge weights and planar node coordinates
//! (paper §II-A). This crate provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation with
//!   node coordinates, built through [`GraphBuilder`].
//! * Exact shortest-path search: [`dijkstra`] (single-source, point-to-point,
//!   bounded) and [`astar`] with an admissible Euclidean lower bound
//!   ([`LowerBound`]).
//! * [`expansion::DijkstraIter`] — an *incremental network expansion* (INE)
//!   iterator that settles nodes from-near-to-far and can be paused/resumed,
//!   the "switchable" primitive behind the paper's `R-List` and `Exact-max`
//!   algorithms (§IV-A implementation details).
//! * [`multisource::ObjectStreams`] — one from-near-to-far data-object queue
//!   per query point, advanced alternately (the *list of queues* of §III-B).
//! * [`io`] — DIMACS challenge-9 `.gr`/`.co` parsing and a compact text
//!   format used by tests and examples.
//! * [`components`] — extraction of the largest connected component
//!   (the paper cleans unconnected components and self-loops in
//!   preprocessing, §VI-A).

pub mod astar;
pub mod cancel;
pub mod components;
pub mod dijkstra;
pub mod dynamic;
pub mod embed;
pub mod expansion;
pub mod flat;
pub mod graph;
pub mod io;
pub mod lowerbound;
pub mod multisource;
pub mod par;
pub mod path;
pub mod recorder;
pub mod scratch;
pub mod shardmap;
pub mod snapshot;
pub mod stats;
pub mod svg;

pub use astar::{astar_pair, astar_pair_cancellable, astar_pair_recorded, astar_pair_with};
pub use cancel::{CancelCheck, CancelToken, Cancelled};
pub use components::largest_connected_component;
pub use dijkstra::{
    dijkstra_all, dijkstra_bounded, dijkstra_pair, dijkstra_pair_cancellable,
    dijkstra_pair_recorded, dijkstra_pair_with,
};
pub use dynamic::{DynamicNetwork, UpdateError};
pub use embed::{embed_edge_points, snap_to_vertex, EdgePoint};
pub use expansion::DijkstraIter;
pub use flat::{FlatError, FlatFile, FlatStreamWriter, FlatVec, FlatWriter, LoadMode};
pub use graph::{Csr, Graph, GraphBuilder, NodeId, Point, Weight};
pub use lowerbound::LowerBound;
pub use multisource::ObjectStreams;
pub use par::{default_workers, par_map_indexed};
pub use path::shortest_path;
pub use recorder::SearchRecorder;
pub use scratch::{QueryScratch, ScratchPool};
pub use shardmap::{ShardMap, SHARD_MAP_MAGIC, SHARD_MAP_VERSION};
pub use snapshot::{AppliedUpdate, NetworkSnapshot, RepairScope, SnapshotCell, WeightUpdate};

/// A network (shortest-path) distance. `u64` so that sums of many `u32`
/// edge weights cannot overflow.
pub type Dist = u64;

/// Sentinel for "unreachable".
pub const INF: Dist = u64::MAX;
