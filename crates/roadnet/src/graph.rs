//! Compact CSR graph with planar coordinates.

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

use crate::flat::{ensure, FlatError, FlatFile, FlatStreamWriter, FlatVec, FlatWriter, LoadMode};

/// Node identifier: dense index in `0..graph.num_nodes()`.
pub type NodeId = u32;

/// Edge weight ("length" in the paper's terms). Positive.
pub type Weight = u32;

/// Planar coordinate of a node, in the same length unit as edge weights so
/// that `euclid(u, v) <= network_distance(u, v)` can hold (A* admissibility).
///
/// `repr(C)`: two `f64`s with no padding, so coordinate arrays can live in
/// flat v2 index sections and be viewed zero-copy (see [`crate::flat`]).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An undirected weighted road network in CSR form.
///
/// Each undirected edge `{u, v}` is stored twice (as `u -> v` and `v -> u`).
/// Construction goes through [`GraphBuilder`], which removes self-loops and
/// collapses parallel edges to the minimum weight — the same cleanup the
/// paper applies to the raw DIMACS data (§VI-A).
///
/// The CSR arrays live behind shared [`FlatVec`] handles, so `Graph::clone`
/// is O(1) and a graph value acts as a shared handle: every layer (engines,
/// backends, snapshot cells) can own its copy without lifetimes, and
/// [`Graph::with_patched_weights`] produces a sibling graph that shares the
/// topology and coordinates, copying only the weight array. A graph loaded
/// from a v2 flat file ([`Graph::read_flat`]) serves all four arrays
/// directly out of the single load buffer.
///
/// Every constructor also settles the graph's admissibility scale once
/// (see [`crate::LowerBound::for_graph`]), so no query walks the edges
/// to find it.
///
/// Artifacts built from a graph (hub labels, shard maps) record its
/// [`Graph::fingerprint`], and loading one against another graph is
/// refused ([`FlatError::GraphMismatch`]).
#[derive(Clone)]
pub struct Graph {
    offsets: FlatVec<u32>,
    targets: FlatVec<NodeId>,
    weights: FlatVec<Weight>,
    coords: FlatVec<Point>,
    /// `min_e w(e) / euclid(e)` over edges of positive Euclidean length,
    /// `INFINITY` if there are none. Derived from the four arrays.
    lb_scale: f64,
    /// [`Graph::fingerprint`], computed on first use — or read from the
    /// `graph.v2` header, so a loaded graph never rehashes its arrays.
    fingerprint: OnceLock<u64>,
}

/// Magic for the flat v2 graph container.
pub const GRAPH_MAGIC: [u8; 8] = *b"FANNGR2\0";
/// Version 3 added the fingerprint section; version 2 files are refused.
const GRAPH_VERSION: u32 = 3;

/// A graph's 64-bit fingerprint: `n`, then the CSR offsets, arc targets,
/// arc weights and coordinate bits, one word at a time. Each step
/// (`xor`, multiply by an odd constant, xor-shift) is a bijection of the
/// running state, so two inputs that differ in a single word always
/// fingerprint differently.
fn fingerprint_of(
    offsets: &[u32],
    targets: &[NodeId],
    weights: &[Weight],
    coords: &[Point],
) -> u64 {
    fn fold(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
    let mut h = fold(0, coords.len() as u64);
    for words in [offsets, targets, weights] {
        h = words.iter().fold(h, |h, &w| fold(h, w as u64));
    }
    coords
        .iter()
        .fold(h, |h, p| fold(fold(h, p.x.to_bits()), p.y.to_bits()))
}

/// `min_e w(e) / euclid(e)` over the undirected edges of positive
/// Euclidean length, `INFINITY` if there are none: one pass over the CSR.
fn admissibility_scale(
    offsets: &[u32],
    targets: &[NodeId],
    weights: &[Weight],
    coords: &[Point],
) -> f64 {
    let mut scale = f64::INFINITY;
    for (u, arcs) in offsets.windows(2).enumerate() {
        let (lo, hi) = (arcs[0] as usize, arcs[1] as usize);
        for (&v, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
            if (u as NodeId) < v {
                let e = coords[u].dist(&coords[v as usize]);
                if e > 0.0 {
                    scale = scale.min(w as f64 / e);
                }
            }
        }
    }
    scale
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
            && self.coords == other.coords
    }
}

impl Graph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of *undirected* edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs (twice [`Self::num_edges`]).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Outgoing arcs of `v` as `(neighbor, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.csr().neighbors(v)
    }

    /// The adjacency arrays as plain slices. A search resolves them once
    /// and reads every settled node's arcs through the [`Csr`], instead of
    /// dereferencing the shared array handles per node as
    /// [`Graph::neighbors`] does.
    #[inline]
    pub fn csr(&self) -> Csr<'_> {
        Csr {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Coordinate of `v`.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Point {
        self.coords[v as usize]
    }

    /// All coordinates, indexed by node id.
    #[inline]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Euclidean distance between two nodes (`δ^ε` in the paper).
    #[inline]
    pub fn euclid(&self, u: NodeId, v: NodeId) -> f64 {
        self.coords[u as usize].dist(&self.coords[v as usize])
    }

    /// Weight of the arc `u -> v`, if the edge exists.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    /// Iterate over every undirected edge once as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Rough in-memory size of the CSR arrays plus coordinates, in bytes.
    /// Used by the index-cost experiments (Fig. 9) as the substrate cost.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.targets.len() * 4
            + self.weights.len() * 4
            + self.coords.len() * std::mem::size_of::<Point>()
    }

    /// Index of the directed arc `u -> v` into the target/weight arrays.
    fn arc_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        // Adjacency lists are sorted by target (builder inserts edges in
        // sorted order), so binary search is exact.
        self.targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|slot| lo + slot)
    }

    /// A sibling graph with the given undirected edges' weights replaced,
    /// sharing this graph's topology and coordinates (copy-on-write: only
    /// the weight array is duplicated). `None` if any referenced edge does
    /// not exist; later patches to the same edge win.
    pub fn with_patched_weights(&self, patches: &[(NodeId, NodeId, Weight)]) -> Option<Graph> {
        let mut weights: Vec<Weight> = self.weights.to_vec();
        for &(u, v, w) in patches {
            if (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
                return None;
            }
            let uv = self.arc_index(u, v)?;
            let vu = self.arc_index(v, u)?;
            weights[uv] = w;
            weights[vu] = w;
        }
        // Every unpatched edge still bounds the scale from above, so it can
        // only move through the patched edges: fold in their new ratios. An
        // edge that attained the old minimum and got heavier can raise it;
        // only then take the minimum afresh over the whole graph.
        let mut lb_scale = self.lb_scale;
        for &(u, v, _) in patches {
            let (a, b) = (u.min(v), u.max(v));
            let e = self.euclid(a, b);
            if e <= 0.0 {
                continue;
            }
            let arc = self.arc_index(a, b).expect("patched edge exists");
            let (old, new) = (self.weights[arc], weights[arc]);
            if new > old && old as f64 / e == self.lb_scale {
                lb_scale =
                    admissibility_scale(&self.offsets, &self.targets, &weights, &self.coords);
                break;
            }
            lb_scale = lb_scale.min(new as f64 / e);
        }
        Some(Graph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: weights.into(),
            coords: self.coords.clone(),
            lb_scale,
            fingerprint: OnceLock::new(),
        })
    }

    /// Whether two graphs share the same underlying CSR topology allocation
    /// (i.e. one was derived from the other via
    /// [`Graph::with_patched_weights`] or `clone`).
    pub fn shares_topology_with(&self, other: &Graph) -> bool {
        self.offsets.ptr_eq(&other.offsets) && self.targets.ptr_eq(&other.targets)
    }

    /// Assemble a built or loaded graph from its arrays, computing its
    /// admissibility scale in one pass.
    fn from_parts(
        offsets: FlatVec<u32>,
        targets: FlatVec<NodeId>,
        weights: FlatVec<Weight>,
        coords: FlatVec<Point>,
    ) -> Graph {
        let lb_scale = admissibility_scale(&offsets, &targets, &weights, &coords);
        Graph {
            offsets,
            targets,
            weights,
            coords,
            lb_scale,
            fingerprint: OnceLock::new(),
        }
    }

    /// The graph's 64-bit fingerprint over `n`, the CSR arrays and the
    /// coordinate bits: what a hub-label index or a shard map records as
    /// the graph it was built for. O(n + m) on first call for a built or
    /// patched graph, then cached; O(1) for a graph read from `graph.v2`,
    /// which stores it.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            fingerprint_of(&self.offsets, &self.targets, &self.weights, &self.coords)
        })
    }

    /// Accept an artifact that records `built_for` as its graph's
    /// fingerprint only if that is this graph: otherwise
    /// [`FlatError::GraphMismatch`] naming `artifact`.
    pub fn check_built_for(&self, artifact: &'static str, built_for: u64) -> Result<(), FlatError> {
        let graph = self.fingerprint();
        if built_for == graph {
            Ok(())
        } else {
            Err(FlatError::GraphMismatch {
                artifact,
                built_for,
                graph,
            })
        }
    }

    /// The raw admissibility scale computed at construction (un-nudged;
    /// `INFINITY` for a graph with no edge of positive length).
    #[inline]
    pub(crate) fn lb_scale(&self) -> f64 {
        self.lb_scale
    }

    /// Serialize into the flat v2 container (DESIGN.md §11). Sections:
    /// `0` CSR offsets, `1` arc targets, `2` arc weights, `3` coordinates,
    /// `4` the [`Graph::fingerprint`] (one `u64`).
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        let mut w = FlatWriter::new(GRAPH_MAGIC, GRAPH_VERSION);
        w.section(&self.offsets);
        w.section(&self.targets);
        w.section(&self.weights);
        w.section(&self.coords);
        w.section(&[self.fingerprint()]);
        w.finish()
    }

    /// Write the flat v2 container to `path`, streaming each CSR array
    /// straight to the file ([`FlatStreamWriter`]) — no assembled
    /// in-memory copy of the container.
    pub fn write_flat(&self, path: &Path) -> std::io::Result<()> {
        let mut w = FlatStreamWriter::create(path, GRAPH_MAGIC, GRAPH_VERSION, 5)?;
        w.section(&self.offsets)?;
        w.section(&self.targets)?;
        w.section(&self.weights)?;
        w.section(&self.coords)?;
        w.section(&[self.fingerprint()])?;
        w.finish()
    }

    /// Zero-copy load of a flat v2 graph: the file is brought behind one
    /// aligned buffer (mapped when possible, see [`LoadMode::Auto`]) and
    /// all four CSR arrays are served directly from it. The validation
    /// pass below only *scans* (no per-node allocation).
    pub fn read_flat(path: &Path) -> Result<Graph, FlatError> {
        Self::read_flat_with(path, LoadMode::Auto)
    }

    /// [`Graph::read_flat`] with an explicit backing [`LoadMode`].
    pub fn read_flat_with(path: &Path, mode: LoadMode) -> Result<Graph, FlatError> {
        Self::from_flat(FlatFile::open(path, GRAPH_MAGIC, GRAPH_VERSION, mode)?)
    }

    /// Parse a flat v2 graph from in-memory bytes (copies once into an
    /// aligned buffer; [`Graph::read_flat`] is the zero-copy path).
    pub fn from_flat_bytes(bytes: &[u8]) -> Result<Graph, FlatError> {
        Self::from_flat(FlatFile::parse(bytes, GRAPH_MAGIC, GRAPH_VERSION)?)
    }

    fn from_flat(f: FlatFile) -> Result<Graph, FlatError> {
        ensure(f.section_count() == 5, "graph section count")?;
        let offsets: FlatVec<u32> = f.section(0)?;
        let targets: FlatVec<NodeId> = f.section(1)?;
        let weights: FlatVec<Weight> = f.section(2)?;
        let coords: FlatVec<Point> = f.section(3)?;
        ensure(!offsets.is_empty(), "graph offsets empty")?;
        let n = offsets.len() - 1;
        ensure(coords.len() == n, "graph coords length")?;
        ensure(targets.len() == weights.len(), "graph arc arrays length")?;
        ensure(offsets[0] == 0, "graph offsets origin")?;
        ensure(
            offsets[n] as usize == targets.len(),
            "graph offsets terminal",
        )?;
        ensure(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "graph offsets monotone",
        )?;
        ensure(
            targets.iter().all(|&t| (t as usize) < n),
            "graph target range",
        )?;
        let fingerprint = f.word(4, "graph fingerprint length")?;
        let g = Graph::from_parts(offsets, targets, weights, coords);
        g.fingerprint.set(fingerprint).expect("a fresh graph");
        Ok(g)
    }
}

/// The CSR adjacency of a [`Graph`] resolved to slices (from
/// [`Graph::csr`]): what a search's settle loop reads.
#[derive(Clone, Copy)]
pub struct Csr<'g> {
    offsets: &'g [u32],
    targets: &'g [NodeId],
    weights: &'g [Weight],
}

impl<'g> Csr<'g> {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        self.offsets.len() - 1
    }

    /// Outgoing arcs of `v` as `(neighbor, weight)` pairs.
    #[inline]
    pub fn neighbors(self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + 'g {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Nodes are added with coordinates; undirected edges reference existing
/// nodes. `build` sorts adjacency lists, drops self-loops and keeps the
/// minimum weight among parallel edges.
#[derive(Default, Clone)]
pub struct GraphBuilder {
    coords: Vec<Point>,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate for `n` nodes and `m` undirected edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            coords: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
        }
    }

    /// Add a node at `(x, y)`; returns its id.
    pub fn add_node(&mut self, x: f64, y: f64) -> NodeId {
        let id = self.coords.len() as NodeId;
        self.coords.push(Point::new(x, y));
        id
    }

    /// Add an undirected edge. Zero weights are clamped to 1 to keep the
    /// weight function positive (`W: E -> R+`, §II-A).
    ///
    /// # Panics
    /// If an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(
            (u as usize) < self.coords.len() && (v as usize) < self.coords.len(),
            "edge ({u}, {v}) references a node that was not added"
        );
        self.edges.push((u, v, w.max(1)));
    }

    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate of an already-added node as `(x, y)`.
    ///
    /// # Panics
    /// If `v` has not been added.
    pub fn coord_of(&self, v: NodeId) -> (f64, f64) {
        let p = self.coords[v as usize];
        (p.x, p.y)
    }

    /// Finalize into a CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        let n = self.coords.len();
        // Normalize: drop self-loops, direct u < v, dedupe keeping min weight.
        self.edges.retain(|&(u, v, _)| u != v);
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut deg = vec![0u32; n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; acc as usize];
        let mut weights = vec![0 as Weight; acc as usize];
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        Graph::from_parts(
            offsets.into(),
            targets.into(),
            weights.into(),
            self.coords.into(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(3.0, 0.0);
        let d = b.add_node(0.0, 4.0);
        b.add_edge(a, c, 3);
        b.add_edge(a, d, 4);
        b.add_edge(c, d, 5);
        b.build()
    }

    #[test]
    fn builds_csr_with_both_directions() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        let mut nbrs: Vec<_> = g.neighbors(0).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(1, 3), (2, 4)]);
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, a, 7);
        b.add_edge(a, c, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn parallel_edges_keep_min_weight() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, 9);
        b.add_edge(c, a, 2);
        b.add_edge(a, c, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(a, c), Some(2));
        assert_eq!(g.edge_weight(c, a), Some(2));
    }

    #[test]
    fn zero_weight_is_clamped_to_one() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, 0);
        let g = b.build();
        assert_eq!(g.edge_weight(a, c), Some(1));
    }

    #[test]
    fn euclid_matches_geometry() {
        let g = triangle();
        assert!((g.euclid(1, 2) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 3);
        assert!(es.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn edge_weight_absent_for_missing_edge() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_node(2.0, 0.0);
        b.add_edge(a, c, 1);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "references a node")]
    fn edge_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        b.add_edge(a, 5, 1);
    }

    #[test]
    fn patched_weights_update_both_directions_and_share_topology() {
        let g = triangle();
        let patched = g.with_patched_weights(&[(0, 1, 30), (2, 1, 50)]).unwrap();
        assert_eq!(patched.edge_weight(0, 1), Some(30));
        assert_eq!(patched.edge_weight(1, 0), Some(30));
        assert_eq!(patched.edge_weight(1, 2), Some(50));
        assert_eq!(patched.edge_weight(2, 1), Some(50));
        assert_eq!(patched.edge_weight(0, 2), Some(4)); // untouched
        assert!(patched.shares_topology_with(&g));
        // The source graph is unchanged (copy-on-write).
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn patching_missing_edge_is_none() {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert!(g.with_patched_weights(&[(0, 2, 5)]).is_none());
        assert!(g.with_patched_weights(&[(0, 9, 5)]).is_none());
    }

    #[test]
    fn later_patches_to_the_same_edge_win() {
        let g = triangle();
        let patched = g.with_patched_weights(&[(0, 1, 30), (1, 0, 7)]).unwrap();
        assert_eq!(patched.edge_weight(0, 1), Some(7));
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let g = triangle();
        let h = g.clone();
        assert!(h.shares_topology_with(&g));
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    fn flat_round_trip_preserves_graph() {
        let g = triangle();
        let bytes = g.to_flat_bytes();
        let h = Graph::from_flat_bytes(&bytes).unwrap();
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        assert_eq!(h.coords(), g.coords());
        // Distinct buffers: a loaded graph is its own topology family.
        assert!(!h.shares_topology_with(&g));
        assert!(h.clone().shares_topology_with(&h));
    }

    #[test]
    fn flat_rejects_out_of_range_target() {
        let g = triangle();
        let mut bytes = g.to_flat_bytes();
        // Section 1 (targets) starts right after section 0 (4 offsets,
        // padded to 16 bytes) which begins at header + 5 table entries.
        let targets_at = 24 + 5 * 16 + 16;
        bytes[targets_at..targets_at + 4].copy_from_slice(&99u32.to_ne_bytes());
        assert!(matches!(
            Graph::from_flat_bytes(&bytes),
            Err(crate::flat::FlatError::Corrupt("graph target range"))
        ));
    }

    #[test]
    fn flat_rejects_nonmonotone_offsets() {
        let g = triangle();
        let mut bytes = g.to_flat_bytes();
        let offsets_at = 24 + 5 * 16;
        bytes[offsets_at + 4..offsets_at + 8].copy_from_slice(&60u32.to_ne_bytes());
        assert!(Graph::from_flat_bytes(&bytes).is_err());
    }
}
