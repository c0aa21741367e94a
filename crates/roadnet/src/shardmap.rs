//! Shard map for the partitioned serving tier (`FANNSM2\0` flat container).
//!
//! A shard map assigns every node of a graph to exactly one *shard* (a
//! serve process owning a region of the network) and records, per shard,
//! the summary the router needs to prune shards before contacting them:
//!
//! * the shard's **region MBR** — the bounding rectangle of its owned node
//!   coordinates, so `mdist(b_Q, shard)` is computable from eight floats;
//! * its **border set** — owned nodes with at least one edge into another
//!   shard (the cut summary; diagnostics and future boundary-aware work);
//! * the graph's **admissibility scale** `s` with
//!   `w(u,v) >= s * euclid(u,v)` for every edge, frozen at partition time
//!   so every shard and the router price distances identically.
//!
//! The pruning contract mirrors the paper's `φM·mdist` R-tree bound
//! (DESIGN.md §12): for any data object `p` owned by shard `S` and any
//! query point `q` inside the query rectangle `b_Q`,
//! `delta(q, p) >= s · euclid(q, p) >= s · mdist(b_Q, region(S))`, so
//! `flex_k(φ,|Q|) · s · mdist(b_Q, region(S))` lower-bounds the SUM
//! aggregate of any candidate in `S` (and the plain `s · mdist` bound the
//! MAX aggregate). A shard whose bound exceeds the best merged answer
//! cannot hold the optimum.
//!
//! On-disk layout (v2 container, magic `FANNSM2\0`): sections
//! `[meta: u32 x2 (num_shards, num_nodes)] [owner: u32 per node]`
//! `[regions: f64 x4 per shard (min_x, min_y, max_x, max_y)]`
//! `[border_off: u32 x (num_shards+1)] [borders: u32] [scale: f64 x1]`
//! `[graph: u64 x1]`, the last the [`Graph::fingerprint`] of the graph
//! the map was cut from: [`ShardMap::read_flat_for`] refuses the map
//! against any other graph.

use std::path::Path;

use crate::flat::{ensure, FlatError, FlatFile, FlatVec, FlatWriter, LoadMode};
use crate::graph::{Graph, NodeId};
use crate::lowerbound::LowerBound;
use crate::Dist;

/// Magic bytes of the shard-map container.
pub const SHARD_MAP_MAGIC: [u8; 8] = *b"FANNSM2\0";

/// Current shard-map format version. Version 2 added the graph
/// fingerprint section; version 1 maps are refused.
pub const SHARD_MAP_VERSION: u32 = 2;

const SECTIONS: usize = 7;

/// Per-node shard ownership plus per-shard region summaries. Clones are
/// O(1) handle copies (the arrays are [`FlatVec`]s).
#[derive(Debug, Clone)]
pub struct ShardMap {
    num_shards: u32,
    owner: FlatVec<u32>,
    regions: FlatVec<f64>,
    border_off: FlatVec<u32>,
    borders: FlatVec<u32>,
    scale: f64,
    owned: Vec<u64>,
    /// Fingerprint of the graph the map was built from.
    graph: u64,
}

impl ShardMap {
    /// Build a shard map from an explicit partition of `g`'s nodes. The
    /// parts must be non-overlapping and cover every node; each part
    /// becomes the shard with its index as id.
    ///
    /// # Panics
    ///
    /// Panics if the parts are not a partition of `0..g.num_nodes()`.
    pub fn build(g: &Graph, parts: &[Vec<NodeId>]) -> ShardMap {
        let n: usize = g.num_nodes();
        let shards = parts.len();
        assert!(shards > 0, "shard map needs at least one shard");
        assert!(shards <= u32::MAX as usize, "too many shards");
        let mut owner = vec![u32::MAX; n];
        for (s, part) in parts.iter().enumerate() {
            for &v in part {
                assert!(
                    (v as usize) < n,
                    "partition names node {v} outside the graph"
                );
                assert!(
                    owner[v as usize] == u32::MAX,
                    "node {v} assigned to two shards"
                );
                owner[v as usize] = s as u32;
            }
        }
        assert!(
            owner.iter().all(|&s| s != u32::MAX),
            "partition does not cover every node"
        );

        // Region MBRs from owned coordinates. An empty shard keeps the
        // inverted rectangle (min > max): its mindist is +inf, so it is
        // always pruned.
        let mut regions = vec![0.0f64; shards * 4];
        for s in 0..shards {
            regions[s * 4] = f64::INFINITY;
            regions[s * 4 + 1] = f64::INFINITY;
            regions[s * 4 + 2] = f64::NEG_INFINITY;
            regions[s * 4 + 3] = f64::NEG_INFINITY;
        }
        for (v, &s) in owner.iter().enumerate() {
            let c = g.coord(v as NodeId);
            let r = &mut regions[s as usize * 4..s as usize * 4 + 4];
            r[0] = r[0].min(c.x);
            r[1] = r[1].min(c.y);
            r[2] = r[2].max(c.x);
            r[3] = r[3].max(c.y);
        }

        // Border summary: owned nodes with an edge into another shard,
        // grouped per shard in CSR form.
        let mut border_off = vec![0u32; shards + 1];
        let mut borders: Vec<u32> = Vec::new();
        for s in 0..shards as u32 {
            for v in 0..n as NodeId {
                if owner[v as usize] == s && g.neighbors(v).any(|(u, _)| owner[u as usize] != s) {
                    borders.push(v);
                }
            }
            border_off[s as usize + 1] = borders.len() as u32;
        }

        let mut owned = vec![0u64; shards];
        for &s in &owner {
            owned[s as usize] += 1;
        }

        ShardMap {
            num_shards: shards as u32,
            owner: owner.into(),
            regions: regions.into(),
            border_off: border_off.into(),
            borders: borders.into(),
            scale: LowerBound::for_graph(g).scale(),
            owned,
            graph: g.fingerprint(),
        }
    }

    /// [`Graph::fingerprint`] of the graph this map was built from.
    #[inline]
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph
    }

    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    #[inline]
    pub fn num_nodes(&self) -> NodeId {
        self.owner.len() as NodeId
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> u32 {
        self.owner[v as usize]
    }

    /// The shard owning edge `{u, v}`: the owner of the smaller endpoint.
    /// This is the routing rule for weight updates — exactly one shard
    /// applies each edge update.
    #[inline]
    pub fn edge_owner(&self, u: NodeId, v: NodeId) -> u32 {
        self.owner(u.min(v))
    }

    /// The shard's region MBR as `[min_x, min_y, max_x, max_y]`.
    #[inline]
    pub fn region(&self, s: u32) -> [f64; 4] {
        let r = &self.regions[s as usize * 4..s as usize * 4 + 4];
        [r[0], r[1], r[2], r[3]]
    }

    /// The shard's border nodes (owned nodes with an edge to another shard).
    pub fn border_nodes(&self, s: u32) -> &[u32] {
        &self.borders
            [self.border_off[s as usize] as usize..self.border_off[s as usize + 1] as usize]
    }

    /// Number of nodes owned by shard `s`.
    #[inline]
    pub fn owned_nodes(&self, s: u32) -> u64 {
        self.owned[s as usize]
    }

    /// The admissibility scale frozen at partition time.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Geometric `mdist` between the query rectangle and the shard region
    /// (0 when they overlap, +inf for an empty shard).
    pub fn mindist_rect(&self, s: u32, rect: [f64; 4]) -> f64 {
        let r = self.region(s);
        let dx = (r[0] - rect[2]).max(rect[0] - r[2]).max(0.0);
        let dy = (r[1] - rect[3]).max(rect[1] - r[3]).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Admissible lower bound on the network distance from any query point
    /// inside `rect` (the MBR of Q, `b_Q`) to any node owned by shard `s`:
    /// `floor(scale · mdist(rect, region(s)))`. Multiply by `flex_k(φ,|Q|)`
    /// for the SUM aggregate (the `φM·mdist` bound).
    pub fn mindist_lower_bound(&self, s: u32, rect: [f64; 4]) -> Dist {
        let d = self.scale * self.mindist_rect(s, rect);
        if !d.is_finite() {
            return crate::INF;
        }
        d.floor().max(0.0) as Dist
    }

    /// Serialize to the `FANNSM2\0` container.
    pub fn write_flat(&self, path: &Path) -> std::io::Result<()> {
        let mut w = FlatWriter::new(SHARD_MAP_MAGIC, SHARD_MAP_VERSION);
        w.section::<u32>(&[self.num_shards, self.owner.len() as u32]);
        w.section::<u32>(&self.owner);
        w.section::<f64>(&self.regions);
        w.section::<u32>(&self.border_off);
        w.section::<u32>(&self.borders);
        w.section::<f64>(&[self.scale]);
        w.section::<u64>(&[self.graph]);
        w.write_to(path)
    }

    /// Load a shard map with the default backing mode.
    pub fn read_flat(path: &Path) -> Result<ShardMap, FlatError> {
        Self::read_flat_with(path, LoadMode::Auto)
    }

    /// [`ShardMap::read_flat`] for serving `graph`: a map cut from any
    /// other graph is refused with [`FlatError::GraphMismatch`].
    pub fn read_flat_for(path: &Path, graph: &Graph) -> Result<ShardMap, FlatError> {
        let map = Self::read_flat(path)?;
        graph.check_built_for("shard map", map.graph)?;
        Ok(map)
    }

    /// Load a shard map with an explicit [`LoadMode`], validating every
    /// structural invariant (ownership range, region shape, border CSR).
    pub fn read_flat_with(path: &Path, mode: LoadMode) -> Result<ShardMap, FlatError> {
        let f = FlatFile::open(path, SHARD_MAP_MAGIC, SHARD_MAP_VERSION, mode)?;
        ensure(f.section_count() == SECTIONS, "shard map section count")?;
        let meta: FlatVec<u32> = f.section(0)?;
        ensure(meta.len() == 2, "shard map meta length")?;
        let num_shards = meta[0];
        let num_nodes = meta[1] as usize;
        ensure(num_shards > 0, "shard map has zero shards")?;
        let owner: FlatVec<u32> = f.section(1)?;
        ensure(owner.len() == num_nodes, "owner length")?;
        ensure(owner.iter().all(|&s| s < num_shards), "owner out of range")?;
        let regions: FlatVec<f64> = f.section(2)?;
        ensure(regions.len() == num_shards as usize * 4, "regions length")?;
        let border_off: FlatVec<u32> = f.section(3)?;
        ensure(
            border_off.len() == num_shards as usize + 1,
            "border offsets length",
        )?;
        ensure(border_off[0] == 0, "border offsets start")?;
        ensure(
            border_off.windows(2).all(|w| w[0] <= w[1]),
            "border offsets monotone",
        )?;
        let borders: FlatVec<u32> = f.section(4)?;
        ensure(
            *border_off.last().unwrap() as usize == borders.len(),
            "border offsets end",
        )?;
        ensure(
            borders.iter().all(|&v| (v as usize) < num_nodes),
            "border node out of range",
        )?;
        let scale_sec: FlatVec<f64> = f.section(5)?;
        ensure(scale_sec.len() == 1, "scale length")?;
        let scale = scale_sec[0];
        ensure(scale.is_finite() && scale >= 0.0, "scale value")?;
        let graph = f.word(6, "graph fingerprint length")?;
        let mut owned = vec![0u64; num_shards as usize];
        for &s in owner.iter() {
            owned[s as usize] += 1;
        }
        Ok(ShardMap {
            num_shards,
            owner,
            regions,
            border_off,
            borders,
            scale,
            owned,
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 2x3 grid: nodes 0..3 on the left column pair, 3..6 on the right.
    fn grid() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node((i / 2) as f64 * 10.0, (i % 2) as f64 * 10.0);
        }
        for i in 0..4u32 {
            b.add_edge(i, i + 2, 10);
        }
        b.add_edge(0, 1, 10);
        b.add_edge(2, 3, 10);
        b.add_edge(4, 5, 10);
        b.build()
    }

    fn two_shards(g: &Graph) -> ShardMap {
        ShardMap::build(g, &[vec![0, 1, 2, 3], vec![4, 5]])
    }

    #[test]
    fn build_records_owner_regions_borders() {
        let g = grid();
        let m = two_shards(&g);
        assert_eq!(m.num_shards(), 2);
        assert_eq!(m.num_nodes(), 6);
        assert_eq!(m.owner(0), 0);
        assert_eq!(m.owner(5), 1);
        assert_eq!(m.edge_owner(5, 2), 0, "edge owner is the smaller endpoint");
        assert_eq!(m.region(0), [0.0, 0.0, 10.0, 10.0]);
        assert_eq!(m.region(1), [20.0, 0.0, 20.0, 10.0]);
        assert_eq!(m.border_nodes(0), &[2, 3]);
        assert_eq!(m.border_nodes(1), &[4, 5]);
        assert_eq!(m.owned_nodes(0), 4);
        assert_eq!(m.owned_nodes(1), 2);
        assert!((m.scale() - 1.0).abs() < 1e-9, "grid edges have ratio 1");
    }

    #[test]
    fn mindist_zero_on_overlap_positive_when_apart() {
        let g = grid();
        let m = two_shards(&g);
        // Rect covering shard 0's region overlaps it, misses shard 1 by 10.
        let rect = [0.0, 0.0, 5.0, 5.0];
        assert_eq!(m.mindist_rect(0, rect), 0.0);
        assert!((m.mindist_rect(1, rect) - 15.0).abs() < 1e-9);
        assert_eq!(m.mindist_lower_bound(0, rect), 0);
        assert_eq!(m.mindist_lower_bound(1, rect), 14); // scale nudged below 1
    }

    #[test]
    fn bound_is_admissible_per_shard() {
        let g = grid();
        let m = two_shards(&g);
        // For every (q, p) pair, the shard bound from q's degenerate rect
        // must not exceed the true network distance.
        for q in 0..6u32 {
            let c = g.coord(q);
            let rect = [c.x, c.y, c.x, c.y];
            let d = crate::dijkstra::dijkstra_all(&g, q);
            for p in 0..6u32 {
                let s = m.owner(p);
                assert!(
                    m.mindist_lower_bound(s, rect) <= d[p as usize],
                    "bound for shard {s} exceeds delta({q},{p})"
                );
            }
        }
    }

    #[test]
    fn round_trips_through_flat_container() {
        let g = grid();
        let m = two_shards(&g);
        let path = std::env::temp_dir().join(format!("fannr-shardmap-{}", std::process::id()));
        m.write_flat(&path).unwrap();
        let r = ShardMap::read_flat(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(r.num_shards(), m.num_shards());
        assert_eq!(r.num_nodes(), m.num_nodes());
        for v in 0..6 {
            assert_eq!(r.owner(v), m.owner(v));
        }
        for s in 0..2 {
            assert_eq!(r.region(s), m.region(s));
            assert_eq!(r.border_nodes(s), m.border_nodes(s));
            assert_eq!(r.owned_nodes(s), m.owned_nodes(s));
        }
        assert_eq!(r.scale(), m.scale());
        assert_eq!(r.graph_fingerprint(), g.fingerprint());
    }

    #[test]
    fn load_rejects_out_of_range_owner() {
        let g = grid();
        let m = two_shards(&g);
        let path = std::env::temp_dir().join(format!("fannr-shardmap-bad-{}", std::process::id()));
        // Rewrite with a one-shard meta so owner value 1 is out of range.
        let mut w = FlatWriter::new(SHARD_MAP_MAGIC, SHARD_MAP_VERSION);
        w.section::<u32>(&[1, 6]);
        let owner: Vec<u32> = (0..6).map(|v| m.owner(v)).collect();
        w.section::<u32>(&owner);
        w.section::<f64>(&[0.0, 0.0, 10.0, 10.0]);
        w.section::<u32>(&[0, 0]);
        w.section::<u32>(&[]);
        w.section::<f64>(&[1.0]);
        w.section::<u64>(&[g.fingerprint()]);
        w.write_to(&path).unwrap();
        let err = ShardMap::read_flat(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, FlatError::Corrupt("owner out of range")));
    }

    #[test]
    #[should_panic(expected = "partition does not cover every node")]
    fn build_rejects_partial_partition() {
        let g = grid();
        ShardMap::build(&g, &[vec![0, 1], vec![4, 5]]);
    }

    #[test]
    fn empty_shard_is_always_pruned() {
        let g = grid();
        let m = ShardMap::build(&g, &[(0..6).collect(), vec![]]);
        assert_eq!(
            m.mindist_lower_bound(1, [0.0, 0.0, 100.0, 100.0]),
            crate::INF
        );
    }
}
