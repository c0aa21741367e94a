//! G-tree: a hierarchical road-network index for distance and kNN queries.
//!
//! Reimplementation of the G-tree index of Zhong et al. \[11\], \[21\], used by
//! the paper as one of the state-of-the-art `g_phi` backends (Table I):
//! the graph is recursively partitioned (fanout `f`, leaf capacity `tau`),
//! each tree node materializes a distance matrix over its (children's)
//! borders, and queries assemble distances through those matrices. The
//! occurrence-list (`Occ`) kNN search of the original paper is provided by
//! [`Occurrence`] + [`GTree::knn`].
//!
//! Differences from the original are documented in DESIGN.md: METIS is
//! replaced by geometric recursive bisection with greedy cut refinement,
//! and matrices are lifted to global distances by a top-down refinement
//! pass, which keeps queries simple and provably exact.
//!
//! The tree is built in memory for the paper's figures (Table I's `GTree`
//! and `IER-GTree` backends, Fig. 9's index cost) and has no on-disk
//! format: the serving tier answers from hub labels and never reads it.
//! The partitioner also serves the router: [`top_level_cut`] splits a
//! network into shards.

pub mod knn;
pub mod partition;
pub mod query;
pub mod tree;

pub use knn::Occurrence;
pub use partition::top_level_cut;
pub use tree::{GTree, GTreeParams};
