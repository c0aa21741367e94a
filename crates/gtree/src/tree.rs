//! G-tree construction: hierarchy, borders, and distance matrices.
//!
//! Matrices are built in two phases:
//!
//! 1. **Bottom-up assembly** — leaf matrices come from Dijkstra restricted
//!    to the leaf subgraph; each internal node's matrix is all-pairs over a
//!    small *assembly graph* whose vertices are its children's borders and
//!    whose edges are child matrix entries plus the original cut edges
//!    between children. After this phase every matrix holds shortest-path
//!    distances *within the node's subgraph*.
//! 2. **Top-down refinement** — the root's subgraph is the whole network,
//!    so its matrix is already global; walking down, each matrix entry is
//!    improved with detours that leave the subgraph through its borders
//!    (`d_g(u,v) = min(d_X(u,v), min_{a,b in borders(X)} d_X(u,a) +
//!    d_g(a,b) + d_X(b,v))`). After this phase every matrix holds **global**
//!    shortest-path distances, which makes the query-time assembly
//!    (`crate::query`) and kNN (`crate::knn`) simple and exact.
//!
//! Both phases parallelize level-synchronously (leaf matrices are mutually
//! independent; nodes of equal depth depend only on deeper/shallower
//! levels), so [`GTree::build_with_params_parallel`] fans each level across
//! a worker pool and produces a bit-identical tree for any worker count.
//!
//! The built tree lives in flat CSR-style arrays (per-node runs addressed
//! by offset arrays).

use crate::partition::{partition_graph, PartitionNode};
use roadnet::par::par_map_indexed;
use roadnet::{Dist, Graph, NodeId, INF};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Saturating distance addition: `INF + x = INF`.
#[inline]
pub(crate) fn dadd(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b)
}

/// Build parameters. The paper sets `fanout = 4` and `leaf_cap` (`tau`)
/// from 64 to 512 depending on the dataset (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GTreeParams {
    pub fanout: usize,
    pub leaf_cap: usize,
}

impl Default for GTreeParams {
    fn default() -> Self {
        GTreeParams {
            fanout: 4,
            leaf_cap: 64,
        }
    }
}

/// Sentinel for "no parent" in the flat parent array.
const NO_PARENT: u32 = u32::MAX;

/// Build-time node representation; flattened into the CSR arrays of
/// [`GTree`] once construction finishes.
struct GNode {
    pub parent: Option<u32>,
    pub children: Vec<u32>,
    pub depth: u32,
    /// Border vertices: members of this subgraph with an edge leaving it.
    pub borders: Vec<NodeId>,
    /// Matrix vertex set, sorted ascending. Internal nodes: union of
    /// children's borders. Leaves: every vertex of the leaf.
    pub verts: Vec<NodeId>,
    /// Positions of `borders[i]` within `verts`.
    pub border_pos: Vec<u32>,
    /// Internal: `|verts| x |verts|`, row-major.
    /// Leaf: `|borders| x |verts|`, row-major.
    pub matrix: Vec<Dist>,
}

impl GNode {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    #[inline]
    fn mat(&self, i: u32, j: u32) -> Dist {
        self.matrix[i as usize * self.verts.len() + j as usize]
    }

    #[inline]
    fn lmat(&self, border_idx: usize, col: u32) -> Dist {
        self.matrix[border_idx * self.verts.len() + col as usize]
    }
}

/// Position of `v` in a sorted vertex run (matrix column / row index).
#[inline]
pub(crate) fn pos_in(verts: &[NodeId], v: NodeId) -> u32 {
    verts
        .binary_search(&v)
        .expect("vertex belongs to this node") as u32
}

#[inline]
fn try_pos_in(verts: &[NodeId], v: NodeId) -> Option<u32> {
    verts.binary_search(&v).ok().map(|i| i as u32)
}

/// The built G-tree index, stored as flat per-tree arrays: scalar columns
/// (`parent`, `depth`) plus CSR runs (`*_off[x]..*_off[x+1]` addresses node
/// `x`'s children / borders / matrix vertices / matrix entries).
#[derive(Clone, PartialEq)]
pub struct GTree {
    params: GTreeParams,
    /// Vertex -> arena index of its leaf node.
    pub(crate) leaf_of: Vec<u32>,
    pub(crate) parent: Vec<u32>,
    pub(crate) depth: Vec<u32>,
    pub(crate) children_off: Vec<u32>,
    pub(crate) children: Vec<u32>,
    pub(crate) borders_off: Vec<u32>,
    pub(crate) borders: Vec<NodeId>,
    /// Parallel to `borders` (shares `borders_off`).
    pub(crate) border_pos: Vec<u32>,
    pub(crate) verts_off: Vec<u32>,
    pub(crate) verts: Vec<NodeId>,
    pub(crate) matrix_off: Vec<u64>,
    pub(crate) matrix: Vec<Dist>,
}

/// Borrowed view of one tree node's runs — the accessor layer every query
/// path goes through.
#[derive(Clone, Copy)]
pub(crate) struct NodeView<'t> {
    pub children: &'t [u32],
    pub borders: &'t [NodeId],
    pub border_pos: &'t [u32],
    pub verts: &'t [NodeId],
    matrix: &'t [Dist],
}

impl NodeView<'_> {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Internal-node matrix lookup by `verts` positions.
    #[inline]
    pub fn mat(&self, i: u32, j: u32) -> Dist {
        self.matrix[i as usize * self.verts.len() + j as usize]
    }

    /// Leaf matrix lookup: row = border index, column = `verts` position.
    #[inline]
    pub fn lmat(&self, border_idx: usize, col: u32) -> Dist {
        self.matrix[border_idx * self.verts.len() + col as usize]
    }

    /// Position of `v` within this node's matrix vertex set.
    #[inline]
    pub fn vert_pos(&self, v: NodeId) -> u32 {
        pos_in(self.verts, v)
    }

    #[cfg(test)]
    pub fn try_vert_pos(&self, v: NodeId) -> Option<u32> {
        try_pos_in(self.verts, v)
    }
}

/// Root node arena index (build order guarantees 0).
#[cfg(test)]
pub(crate) const ROOT: u32 = 0;

impl GTree {
    /// Build a G-tree over `g` with default parameters.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_params(g, GTreeParams::default())
    }

    /// Build a G-tree over `g`.
    pub fn build_with_params(g: &Graph, params: GTreeParams) -> Self {
        Self::build_with_params_parallel(g, params, 1)
    }

    /// Build a G-tree over `g`, fanning per-node matrix construction and
    /// refinement across `workers` threads (`0` = one per core). Each level
    /// of the hierarchy is a set of independent per-node computations, so
    /// the result is bit-identical to the sequential build.
    pub fn build_with_params_parallel(g: &Graph, params: GTreeParams, workers: usize) -> Self {
        let workers = if workers == 0 {
            roadnet::par::default_workers()
        } else {
            workers
        };
        let hierarchy = partition_graph(g, params.fanout, params.leaf_cap);
        let mut b = Builder {
            nodes: Vec::new(),
            leaf_of: vec![u32::MAX; g.num_nodes()],
            workers,
        };
        b.instantiate(&hierarchy, None, 0);
        b.assemble_bottom_up(g);
        b.refine_top_down();
        Self::from_parts(b.nodes, b.leaf_of, params)
    }

    /// Number of tree nodes.
    pub fn num_tree_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Tree height (1 for a single-leaf tree).
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize + 1
    }

    /// Flatten build nodes into the CSR arrays.
    fn from_parts(nodes: Vec<GNode>, leaf_of: Vec<u32>, params: GTreeParams) -> Self {
        let t = nodes.len();
        let mut parent = Vec::with_capacity(t);
        let mut depth = Vec::with_capacity(t);
        let mut children_off = Vec::with_capacity(t + 1);
        let mut children = Vec::new();
        let mut borders_off = Vec::with_capacity(t + 1);
        let mut borders = Vec::new();
        let mut border_pos = Vec::new();
        let mut verts_off = Vec::with_capacity(t + 1);
        let mut verts = Vec::new();
        let mut matrix_off = Vec::with_capacity(t + 1);
        let mut matrix = Vec::new();
        children_off.push(0u32);
        borders_off.push(0u32);
        verts_off.push(0u32);
        matrix_off.push(0u64);
        for n in &nodes {
            parent.push(n.parent.unwrap_or(NO_PARENT));
            depth.push(n.depth);
            children.extend_from_slice(&n.children);
            children_off.push(children.len() as u32);
            borders.extend_from_slice(&n.borders);
            border_pos.extend_from_slice(&n.border_pos);
            borders_off.push(borders.len() as u32);
            verts.extend_from_slice(&n.verts);
            verts_off.push(verts.len() as u32);
            matrix.extend_from_slice(&n.matrix);
            matrix_off.push(matrix.len() as u64);
        }
        GTree {
            params,
            leaf_of,
            parent,
            depth,
            children_off,
            children,
            borders_off,
            borders,
            border_pos,
            verts_off,
            verts,
            matrix_off,
            matrix,
        }
    }

    /// Accessor view of node `x`.
    #[inline]
    pub(crate) fn node(&self, x: u32) -> NodeView<'_> {
        let xi = x as usize;
        let (c0, c1) = (
            self.children_off[xi] as usize,
            self.children_off[xi + 1] as usize,
        );
        let (b0, b1) = (
            self.borders_off[xi] as usize,
            self.borders_off[xi + 1] as usize,
        );
        let (v0, v1) = (self.verts_off[xi] as usize, self.verts_off[xi + 1] as usize);
        let (m0, m1) = (
            self.matrix_off[xi] as usize,
            self.matrix_off[xi + 1] as usize,
        );
        NodeView {
            children: &self.children[c0..c1],
            borders: &self.borders[b0..b1],
            border_pos: &self.border_pos[b0..b1],
            verts: &self.verts[v0..v1],
            matrix: &self.matrix[m0..m1],
        }
    }

    #[inline]
    pub(crate) fn depth_of(&self, x: u32) -> u32 {
        self.depth[x as usize]
    }

    /// Arena index of the leaf containing `v`.
    pub(crate) fn leaf(&self, v: NodeId) -> u32 {
        self.leaf_of[v as usize]
    }

    pub(crate) fn parent_of(&self, x: u32) -> Option<u32> {
        let p = self.parent[x as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// True when `v` belongs to the subtree rooted at arena node `x`.
    /// Uses leaf -> ancestors walk; depth is small (O(log n)).
    #[cfg(test)]
    pub(crate) fn contains(&self, x: u32, v: NodeId) -> bool {
        let mut cur = self.leaf_of[v as usize];
        loop {
            if cur == x {
                return true;
            }
            match self.parent_of(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Approximate in-memory size of borders + matrices (Fig. 9a analogue).
    pub fn memory_bytes(&self) -> usize {
        self.matrix.len() * std::mem::size_of::<Dist>()
            + self.verts.len() * 4
            + self.borders.len() * 8
            + self.leaf_of.len() * 4
            + self.parent.len() * 8
    }
}

impl std::fmt::Debug for GTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GTree")
            .field("params", &self.params)
            .field("graph_nodes", &self.leaf_of.len())
            .field("tree_nodes", &self.num_tree_nodes())
            .field("matrix_entries", &self.matrix.len())
            .finish()
    }
}

/// Construction state: per-node owned vectors, flattened on completion.
struct Builder {
    nodes: Vec<GNode>,
    leaf_of: Vec<u32>,
    workers: usize,
}

impl Builder {
    /// Recursively instantiate arena nodes from the partition hierarchy.
    /// Returns the arena index of the created node.
    fn instantiate(&mut self, part: &PartitionNode, parent: Option<u32>, depth: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(GNode {
            parent,
            children: Vec::new(),
            depth,
            borders: Vec::new(),
            verts: Vec::new(),
            border_pos: Vec::new(),
            matrix: Vec::new(),
        });
        if part.is_leaf() {
            for &v in &part.vertices {
                self.leaf_of[v as usize] = idx;
            }
            // Leaf verts = its vertices, sorted (determinism + binary-search
            // position lookups).
            let mut vs = part.vertices.clone();
            vs.sort_unstable();
            self.nodes[idx as usize].verts = vs;
        } else {
            let mut children = Vec::with_capacity(part.children.len());
            for c in &part.children {
                let cid = self.instantiate(c, Some(idx), depth + 1);
                children.push(cid);
            }
            self.nodes[idx as usize].children = children;
        }
        idx
    }

    /// True when `v` belongs to the subtree rooted at arena node `x`.
    fn contains(&self, x: u32, v: NodeId) -> bool {
        let mut cur = self.leaf_of[v as usize];
        loop {
            if cur == x {
                return true;
            }
            match self.nodes[cur as usize].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Arena indices grouped by depth, deepest level first.
    fn levels_deepest_first(&self) -> Vec<Vec<u32>> {
        let max_depth = self.nodes.iter().map(|n| n.depth).max().unwrap_or(0) as usize;
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); max_depth + 1];
        for (i, n) in self.nodes.iter().enumerate() {
            levels[max_depth - n.depth as usize].push(i as u32);
        }
        levels
    }

    /// Compute borders for every node and fill leaf/internal matrices
    /// bottom-up (within-subgraph distances). Matrices of one level are
    /// mutually independent, so each level fans across the worker pool.
    fn assemble_bottom_up(&mut self, g: &Graph) {
        let levels = self.levels_deepest_first();

        // Borders: v is a border of node x iff some neighbor of v lies
        // outside x's subtree. Subtree vertex lists are collected leaf-up.
        let mut subtree_verts: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for level in &levels {
            for &x in level {
                let xi = x as usize;
                if self.nodes[xi].is_leaf() {
                    subtree_verts[xi] = self.nodes[xi].verts.clone();
                } else {
                    let mut all = Vec::new();
                    for &c in &self.nodes[xi].children {
                        all.extend_from_slice(&subtree_verts[c as usize]);
                    }
                    subtree_verts[xi] = all;
                }
                let borders: Vec<NodeId> = subtree_verts[xi]
                    .iter()
                    .copied()
                    .filter(|&v| g.neighbors(v).any(|(nb, _)| !self.contains(x, nb)))
                    .collect();
                self.nodes[xi].borders = borders;
            }
        }

        // Matrices, level-synchronous bottom-up: leaves (and any node of
        // the level) depend only on already-finished deeper levels.
        for level in &levels {
            let results = par_map_indexed(level.len(), self.workers, |i| {
                let x = level[i];
                if self.nodes[x as usize].is_leaf() {
                    let (matrix, border_pos) = self.leaf_matrix(g, x);
                    (Vec::new(), border_pos, matrix)
                } else {
                    self.internal_matrix(g, x, &subtree_verts)
                }
            });
            for (&x, (verts, border_pos, matrix)) in level.iter().zip(results) {
                let n = &mut self.nodes[x as usize];
                if !n.is_leaf() {
                    n.verts = verts;
                }
                n.border_pos = border_pos;
                n.matrix = matrix;
            }
        }
    }

    /// Leaf matrix: Dijkstra restricted to the leaf from each border.
    fn leaf_matrix(&self, g: &Graph, x: u32) -> (Vec<Dist>, Vec<u32>) {
        let n = &self.nodes[x as usize];
        let matrix = leaf_assembly(g, &n.borders, &n.verts);
        let border_pos = n.borders.iter().map(|&b| pos_in(&n.verts, b)).collect();
        (matrix, border_pos)
    }

    /// Internal matrix: all-pairs over the assembly graph of child borders.
    /// Returns `(verts, border_pos, matrix)`.
    fn internal_matrix(
        &self,
        g: &Graph,
        x: u32,
        subtree_verts: &[Vec<NodeId>],
    ) -> (Vec<NodeId>, Vec<u32>, Vec<Dist>) {
        let node = &self.nodes[x as usize];

        // Matrix vertex set: union of children borders (sorted, deduped).
        let mut verts: Vec<NodeId> = node
            .children
            .iter()
            .flat_map(|&c| self.nodes[c as usize].borders.iter().copied())
            .collect();
        verts.sort_unstable();
        verts.dedup();
        let nv = verts.len();

        // Assembly adjacency: child matrix entries + cut edges between
        // children of x.
        let mut adj: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); nv];
        for &c in &node.children {
            let cn = &self.nodes[c as usize];
            for (i, &bi) in cn.borders.iter().enumerate() {
                let pi = pos_in(&verts, bi);
                for (j, &bj) in cn.borders.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let d = if cn.is_leaf() {
                        cn.lmat(i, pos_in(&cn.verts, bj))
                    } else {
                        cn.mat(pos_in(&cn.verts, bi), pos_in(&cn.verts, bj))
                    };
                    if d != INF {
                        adj[pi as usize].push((pos_in(&verts, bj), d));
                    }
                }
            }
        }
        // Cut edges: map each subtree vertex to its child, then scan borders'
        // original edges for endpoints in different children of x.
        let mut child_of: HashMap<NodeId, u32> = HashMap::new();
        for &c in &node.children {
            for &v in &subtree_verts[c as usize] {
                child_of.insert(v, c);
            }
        }
        for &u in &verts {
            let cu = child_of[&u];
            for (v, w) in g.neighbors(u) {
                if let Some(&cv) = child_of.get(&v) {
                    if cv != cu {
                        // Both endpoints are borders of their children,
                        // hence in `verts`.
                        adj[pos_in(&verts, u) as usize].push((pos_in(&verts, v), w as Dist));
                    }
                }
            }
        }

        let matrix = assembly_all_pairs(&adj);
        let border_pos = node.borders.iter().map(|&b| pos_in(&verts, b)).collect();
        (verts, border_pos, matrix)
    }

    /// Top-down refinement: lift within-subgraph matrices to global ones.
    /// Nodes of equal depth read only their (already refined) parents, so
    /// each level fans across the worker pool.
    fn refine_top_down(&mut self) {
        let mut levels = self.levels_deepest_first();
        levels.reverse(); // shallowest first; parents refined before children
        for level in &levels {
            // Root level needs no refinement (its matrix is already global).
            let work: Vec<u32> = level
                .iter()
                .copied()
                .filter(|&x| self.nodes[x as usize].parent.is_some())
                .collect();
            if work.is_empty() {
                continue;
            }
            let results =
                par_map_indexed(work.len(), self.workers, |i| self.refined_matrix(work[i]));
            for (&x, m) in work.iter().zip(results) {
                if let Some(matrix) = m {
                    self.nodes[x as usize].matrix = matrix;
                }
            }
        }
    }

    /// The refined (global) matrix of non-root node `x`, or `None` when the
    /// node has no borders (isolated subgraph: nothing can leave it).
    fn refined_matrix(&self, x: u32) -> Option<Vec<Dist>> {
        let n = &self.nodes[x as usize];
        let parent = &self.nodes[n.parent.expect("non-root has parent") as usize];
        let nb = n.borders.len();
        if nb == 0 {
            return None;
        }
        // Global border-to-border distances from the (already refined)
        // parent matrix.
        let pborder: Vec<u32> = n
            .borders
            .iter()
            .map(|&b| pos_in(&parent.verts, b))
            .collect();
        let mut gbb = vec![INF; nb * nb];
        for a in 0..nb {
            for b in 0..nb {
                gbb[a * nb + b] = parent.mat(pborder[a], pborder[b]);
            }
        }
        Some(refine_with_gbb(
            n.is_leaf(),
            n.verts.len(),
            &n.border_pos,
            &n.matrix,
            &gbb,
        ))
    }
}

/// Leaf assembly matrix (`|borders| x |verts|`, row-major): Dijkstra
/// restricted to the leaf subgraph from each border.
fn leaf_assembly(g: &Graph, borders: &[NodeId], verts: &[NodeId]) -> Vec<Dist> {
    let ncols = verts.len();
    let mut matrix = vec![INF; borders.len() * ncols];
    for (bi, &b) in borders.iter().enumerate() {
        let dists = restricted_dijkstra(g, b, verts);
        matrix[bi * ncols..(bi + 1) * ncols].copy_from_slice(&dists);
    }
    matrix
}

/// All-pairs shortest paths over an assembly adjacency (`adj.len()` small
/// vertices).
fn assembly_all_pairs(adj: &[Vec<(u32, Dist)>]) -> Vec<Dist> {
    let nv = adj.len();
    let mut matrix = vec![INF; nv * nv];
    let mut heap: BinaryHeap<(Reverse<Dist>, u32)> = BinaryHeap::new();
    for s in 0..nv as u32 {
        let row = &mut matrix[s as usize * nv..(s as usize + 1) * nv];
        row[s as usize] = 0;
        heap.push((Reverse(0), s));
        while let Some((Reverse(d), v)) = heap.pop() {
            if d > row[v as usize] {
                continue;
            }
            for &(t, w) in &adj[v as usize] {
                let nd = dadd(d, w);
                if nd < row[t as usize] {
                    row[t as usize] = nd;
                    heap.push((Reverse(nd), t));
                }
            }
        }
        heap.clear();
    }
    matrix
}

/// Lift a node's within-subgraph matrix `own` to global distances given
/// the global border-to-border matrix `gbb` (`nb x nb`, `nb =
/// border_pos.len()`).
fn refine_with_gbb(
    is_leaf: bool,
    verts_len: usize,
    border_pos: &[u32],
    own: &[Dist],
    gbb: &[Dist],
) -> Vec<Dist> {
    let nb = border_pos.len();
    if is_leaf {
        // Leaf: `d_g(b, v) = min(d_L(b, v), min_c g(b, c) + d_L(c, v))`.
        let ncols = verts_len;
        let mut matrix = vec![INF; own.len()];
        for b in 0..nb {
            for v in 0..ncols {
                let mut best = own[b * ncols + v];
                for c in 0..nb {
                    best = best.min(dadd(gbb[b * nb + c], own[c * ncols + v]));
                }
                matrix[b * ncols + v] = best;
            }
        }
        matrix
    } else {
        // Internal: `d_g(u, v) = min(d_X(u, v), min_{a,b} d_X(u, a) +
        // g(a, b) + d_X(b, v))`, factored through
        // `h(u, b) = min_a d_X(u, a) + g(a, b)`.
        let nv = verts_len;
        let bp: Vec<usize> = border_pos.iter().map(|&p| p as usize).collect();
        let mut h = vec![INF; nv * nb];
        for u in 0..nv {
            for b in 0..nb {
                let mut best = INF;
                for a in 0..nb {
                    best = best.min(dadd(own[u * nv + bp[a]], gbb[a * nb + b]));
                }
                h[u * nb + b] = best;
            }
        }
        let mut matrix = vec![INF; own.len()];
        for u in 0..nv {
            for v in 0..nv {
                let mut best = own[u * nv + v];
                for b in 0..nb {
                    best = best.min(dadd(h[u * nb + b], own[bp[b] * nv + v]));
                }
                matrix[u * nv + v] = best;
            }
        }
        matrix
    }
}

/// Dijkstra from `src` restricted to the sorted vertex set `verts`
/// (a leaf's vertex set); returns distances aligned with `verts` positions.
pub(crate) fn restricted_dijkstra(g: &Graph, src: NodeId, verts: &[NodeId]) -> Vec<Dist> {
    let mut dist = vec![INF; verts.len()];
    let mut heap: BinaryHeap<(Reverse<Dist>, NodeId)> = BinaryHeap::new();
    dist[pos_in(verts, src) as usize] = 0;
    heap.push((Reverse(0), src));
    while let Some((Reverse(d), v)) = heap.pop() {
        if d > dist[pos_in(verts, v) as usize] {
            continue;
        }
        for (t, w) in g.neighbors(v) {
            if let Some(tp) = try_pos_in(verts, t) {
                let nd = dadd(d, w as Dist);
                if nd < dist[tp as usize] {
                    dist[tp as usize] = nd;
                    heap.push((Reverse(nd), t));
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64, y as f64);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1 + (x + y) % 3);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + x % 2);
                }
            }
        }
        b.build()
    }

    #[test]
    fn single_leaf_tree_for_tiny_graph() {
        let g = grid(3, 3);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 4,
                leaf_cap: 16,
            },
        );
        assert_eq!(t.num_tree_nodes(), 1);
        assert_eq!(t.height(), 1);
        assert!(t.node(0).borders.is_empty()); // nothing leaves the root
    }

    #[test]
    fn every_vertex_assigned_to_a_leaf() {
        let g = grid(8, 8);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 4,
                leaf_cap: 8,
            },
        );
        for v in 0..g.num_nodes() {
            let leaf = t.leaf(v as u32);
            assert_ne!(leaf, u32::MAX);
            assert!(t.node(leaf).is_leaf());
            assert!(t.node(leaf).try_vert_pos(v as u32).is_some());
        }
    }

    #[test]
    fn root_has_no_borders_on_connected_graph() {
        let g = grid(6, 6);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 2,
                leaf_cap: 6,
            },
        );
        assert!(t.node(ROOT).borders.is_empty());
    }

    #[test]
    fn borders_have_outside_edges() {
        let g = grid(6, 6);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 4,
                leaf_cap: 6,
            },
        );
        for x in 0..t.num_tree_nodes() as u32 {
            for &b in t.node(x).borders {
                assert!(
                    g.neighbors(b).any(|(nb, _)| !t.contains(x, nb)),
                    "border {b} of node {x} has no outside edge"
                );
            }
        }
    }

    #[test]
    fn child_borders_are_matrix_verts() {
        let g = grid(8, 8);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 4,
                leaf_cap: 8,
            },
        );
        for x in 0..t.num_tree_nodes() as u32 {
            let n = t.node(x);
            if n.is_leaf() {
                continue;
            }
            for &c in n.children {
                for &b in t.node(c).borders {
                    assert!(n.try_vert_pos(b).is_some());
                }
            }
        }
    }

    #[test]
    fn matrix_diagonal_is_zero() {
        let g = grid(8, 8);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 4,
                leaf_cap: 8,
            },
        );
        for x in 0..t.num_tree_nodes() as u32 {
            let n = t.node(x);
            if n.is_leaf() {
                for (bi, &b) in n.borders.iter().enumerate() {
                    assert_eq!(n.lmat(bi, n.vert_pos(b)), 0);
                }
            } else {
                for i in 0..n.verts.len() as u32 {
                    assert_eq!(n.mat(i, i), 0);
                }
            }
        }
    }

    #[test]
    fn refined_matrices_are_global_distances() {
        use roadnet::dijkstra::dijkstra_all;
        let g = grid(7, 5);
        let t = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 2,
                leaf_cap: 6,
            },
        );
        for x in 0..t.num_tree_nodes() as u32 {
            let n = t.node(x);
            if n.is_leaf() {
                for (bi, &b) in n.borders.iter().enumerate() {
                    let truth = dijkstra_all(&g, b);
                    for (vp, &v) in n.verts.iter().enumerate() {
                        assert_eq!(
                            n.lmat(bi, vp as u32),
                            truth[v as usize],
                            "leaf matrix wrong for {b}->{v}"
                        );
                    }
                }
            } else {
                for (i, &u) in n.verts.iter().enumerate() {
                    let truth = dijkstra_all(&g, u);
                    for (j, &v) in n.verts.iter().enumerate() {
                        assert_eq!(
                            n.mat(i as u32, j as u32),
                            truth[v as usize],
                            "matrix wrong for {u}->{v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let g = grid(9, 8);
        let params = GTreeParams {
            fanout: 4,
            leaf_cap: 7,
        };
        let seq = GTree::build_with_params(&g, params);
        for workers in [2, 4, 16] {
            let par = GTree::build_with_params_parallel(&g, params, workers);
            assert!(par == seq, "tree differs with {workers} workers");
        }
    }

    #[test]
    fn memory_reporting_positive() {
        let g = grid(8, 8);
        let t = GTree::build(&g);
        assert!(t.memory_bytes() > 0);
    }
}
