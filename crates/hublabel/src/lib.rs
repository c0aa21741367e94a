//! Pruned 2-hop hub labeling — an exact, labeling-based distance oracle.
//!
//! The paper's fastest `g_phi` backend is **PHL** (pruned highway labeling,
//! Akiba et al. \[16\]): after heavy preprocessing, every vertex stores a
//! label (a set of `(hub, distance)` pairs) such that the shortest-path
//! distance of any pair is the minimum over common hubs. This crate
//! implements the same contract via *pruned landmark labeling* (the
//! vertex-hub sibling of PHL): identical query algorithm, identical role in
//! every FANN_R algorithm, and the same memory behaviour the paper reports
//! in Fig. 9 (largest index of all, growing super-linearly with the graph).
//! See DESIGN.md §5 for the substitution rationale.
//!
//! # Algorithm
//!
//! Vertices are ranked by [`default_order`], a geometric nested-dissection
//! (separator) order: the vertices that cut the network in half rank
//! first, then the separators of each half, recursively. The order is
//! stored in the index, so a repair always runs against the ranks the
//! labels were built with. For each vertex `v` in rank order, a *pruned
//! Dijkstra* from `v` visits node `u` at distance `d`; if the labels built
//! so far already certify `dist(v, u) <= d`, the search is pruned at `u`;
//! otherwise `(v, d)` is appended to `u`'s label. The result is a *2-hop
//! cover*: for every pair `(s, t)` some vertex on a shortest `s`-`t` path
//! is in both labels.
//!
//! A query is `min over common hubs h of L_s(h) + L_t(h)`. A lone pair is
//! a sorted-list merge ([`HubLabels::distance`]). Many pairs that share a
//! source go through a [`SourceTable`]: `L_s` is scattered once into a
//! rank-indexed array, and each `d(s, t)` is a gather over `L_t` alone
//! ([`HubLabels::distance_from`]). The build's pruning test is the same
//! scatter/gather, with the hub being searched from as the source.
//!
//! Label distances are stored as `u32` (edge weights are `u32`, and a
//! road network's diameter fits with room to spare); a distance that does
//! not fit is a typed [`BuildError::DistanceOverflow`], never a wrapped
//! value, and [`HubLabels::distance`] adds in `u64`.

pub mod persist;

use roadnet::flat::FlatVec;
use roadnet::{Dist, Graph, NodeId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Why a label build or repair produced no index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The total label count passed the caller's `max_entries` — the moral
    /// equivalent of the paper's PHL running out of memory (Fig. 9).
    BudgetExceeded { max_entries: usize },
    /// `dist(hub, node)` does not fit the `u32` a label entry stores.
    DistanceOverflow {
        hub: NodeId,
        node: NodeId,
        dist: Dist,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::BudgetExceeded { max_entries } => {
                write!(f, "label budget of {max_entries} entries exceeded")
            }
            BuildError::DistanceOverflow { hub, node, dist } => write!(
                f,
                "label distance overflow: dist({hub}, {node}) = {dist} does not fit in u32"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The hub order every build path uses (most important first): a
/// deterministic geometric nested dissection. The node set is bisected at
/// the median of its wider coordinate axis; the left half's vertices with
/// an edge across the cut form the separator and are removed; both halves
/// recurse. Shallower separators rank first (every shortest path between
/// the two halves passes through one), ties by descending degree, then id.
/// Coordinates are compared with `f64::total_cmp`, so NaN or all-equal
/// coordinates only degrade the order's quality, never its validity.
pub fn default_order(g: &Graph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
    // Recursion depth at which each vertex left the node set.
    let mut depth = vec![0u32; n];
    // `right_of[v] == cut` marks `v` as in the right half of cut number `cut`.
    let mut right_of = vec![0u32; n];
    let mut cut = 0u32;
    let mut pending = vec![(0usize, n, 0u32)];
    while let Some((lo, hi, level)) = pending.pop() {
        let part = &mut nodes[lo..hi];
        if part.len() <= 1 {
            part.iter().for_each(|&v| depth[v as usize] = level);
            continue;
        }
        let coord = |v: NodeId, by_y: bool| {
            let c = g.coord(v);
            [c.x, c.y][by_y as usize]
        };
        let span = |by_y: bool| {
            let (min, max) = part
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |m, &v| {
                    (m.0.min(coord(v, by_y)), m.1.max(coord(v, by_y)))
                });
            max - min
        };
        let by_y = span(true) > span(false);
        let mid = part.len() / 2;
        part.select_nth_unstable_by(mid, |&a, &b| {
            coord(a, by_y).total_cmp(&coord(b, by_y)).then(a.cmp(&b))
        });
        cut += 1;
        for &v in &part[mid..] {
            right_of[v as usize] = cut;
        }
        // Separator vertices leave the set; the rest of the left half is
        // compacted to the front of its slice.
        let mut keep = 0;
        for i in 0..mid {
            let v = part[i];
            if g.neighbors(v).any(|(t, _)| right_of[t as usize] == cut) {
                depth[v as usize] = level;
            } else {
                part.swap(keep, i);
                keep += 1;
            }
        }
        pending.push((lo, lo + keep, level + 1));
        pending.push((lo + mid, hi, level + 1));
    }
    nodes.sort_unstable_by_key(|&v| (depth[v as usize], Reverse(g.degree(v)), v));
    nodes
}

/// Turn an importance score per vertex into an explicit hub order
/// (most important first) for [`HubLabels::build_with_order`] — e.g.
/// contraction-hierarchy ranks, the comparator in
/// `crates/bench/src/bin/ablation_label_order.rs`.
pub fn order_by_importance(scores: &[u64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..scores.len() as NodeId).collect();
    order.sort_by_key(|&v| (Reverse(scores[v as usize]), v));
    order
}

/// Whether `order` lists every node of `0..n` exactly once.
pub(crate) fn is_permutation(order: &[NodeId], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .iter()
            .all(|&v| (v as usize) < n && !std::mem::replace(&mut seen[v as usize], true))
}

/// One node's label under construction: `(hub rank, distance)`, rank-sorted.
type Label = Vec<(u32, u32)>;

/// The one place a label entry is written — sequential build, batch build
/// and repair all insert through it, so a distance that does not fit the
/// stored `u32` is always a typed error, never a wrapped value.
fn push_entry(
    labels: &mut [Label],
    (hub, rank): (NodeId, u32),
    node: NodeId,
    dist: Dist,
) -> Result<(), BuildError> {
    let narrow =
        u32::try_from(dist).map_err(|_| BuildError::DistanceOverflow { hub, node, dist })?;
    labels[node as usize].push((rank, narrow));
    Ok(())
}

/// The entries of a rank-sorted label with `rank >= base`.
fn tail_from(label: &[(u32, u32)], base: u32) -> &[(u32, u32)] {
    let start = label.iter().rposition(|&(r, _)| r < base);
    &label[start.map_or(0, |p| p + 1)..]
}

/// A built hub-label index.
///
/// Labels live in three flat CSR-style arrays (`offsets[v]..offsets[v+1]`
/// indexes node `v`'s `(hub_rank, dist)` pairs, sorted by rank) plus the
/// hub order they were built with, all behind shared [`FlatVec`] handles,
/// so the in-memory layout coincides with the flat on-disk sections and a
/// loaded index serves queries directly from the file buffer (see
/// [`persist`]).
pub struct HubLabels {
    /// `n + 1` entry offsets into `ranks`/`dists`.
    offsets: FlatVec<u64>,
    /// Hub ranks, per-node runs sorted ascending.
    ranks: FlatVec<u32>,
    /// Hub distances, parallel to `ranks`.
    dists: FlatVec<u32>,
    /// `order[rank]` is the hub with that rank: a permutation of `0..n`.
    order: FlatVec<NodeId>,
    /// [`Graph::fingerprint`] of the graph the labels were built (or
    /// repaired) for. Not part of the index's value.
    graph: u64,
    /// Process-unique identity, so a [`SourceTable`] never serves one
    /// index's scatter to another. Not part of the index's value.
    id: u64,
}

/// A fresh identity for every index built or loaded.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl HubLabels {
    /// Build labels with the [`default_order`].
    pub fn build(g: &Graph) -> Result<Self, BuildError> {
        Self::build_sequential(g, &default_order(g), None)
    }

    /// [`HubLabels::build`], giving up with [`BuildError::BudgetExceeded`]
    /// once the total label count passes `max_entries`: label size is the
    /// dominant cost and grows super-linearly with the graph (Fig. 9).
    pub fn build_with_limit(g: &Graph, max_entries: usize) -> Result<Self, BuildError> {
        Self::build_sequential(g, &default_order(g), Some(max_entries))
    }

    /// Build labels with a custom hub order (most important first), which
    /// must be a permutation of `0..g.num_nodes()`.
    pub fn build_with_order(g: &Graph, order: &[NodeId]) -> Result<Self, BuildError> {
        Self::build_sequential(g, order, None)
    }

    fn build_sequential(
        g: &Graph,
        order: &[NodeId],
        max_entries: Option<usize>,
    ) -> Result<Self, BuildError> {
        let n = g.num_nodes();
        assert!(is_permutation(order, n), "order must cover every node");
        let mut labels: Vec<Label> = vec![Vec::new(); n];
        let mut scratch = SearchScratch::new(n);
        let mut total_entries = 0usize;
        for (rank, &hub) in order.iter().enumerate() {
            let found = scratch.pruned_dijkstra(g, hub, &labels);
            total_entries += found.len();
            if let Some(max_entries) = max_entries.filter(|&cap| total_entries > cap) {
                return Err(BuildError::BudgetExceeded { max_entries });
            }
            for (u, d) in found {
                push_entry(&mut labels, (hub, rank as u32), u, d)?;
            }
        }
        Ok(Self::from_labels(labels, order, g))
    }

    /// Build labels with the [`default_order`] across `workers` threads
    /// (`0` = one per core). Bit-identical to [`HubLabels::build`].
    pub fn build_parallel(g: &Graph, workers: usize) -> Result<Self, BuildError> {
        Self::build_with_order_parallel(g, &default_order(g), workers)
    }

    /// Parallel pruned-labeling build with an explicit hub order.
    ///
    /// Hubs are processed in fixed-size rank batches: within a batch every
    /// hub's pruned Dijkstra runs concurrently against the labels installed
    /// by *earlier batches* (weaker pruning, so each search yields a
    /// candidate superset with valid distances), then candidates are
    /// re-pruned sequentially in rank order. The re-prune tests only the
    /// **in-batch** part of the certificate — the entries with
    /// `rank >= base`, contiguous at the end of each rank-sorted label —
    /// because the pre-batch part is exactly what the search computed and
    /// found `> d` when it kept the candidate, and labels of earlier
    /// batches never change again. The minimum over both parts is the full
    /// insert test of the sequential build, so the output is bit-identical
    /// to [`HubLabels::build_with_order`]. The batch size is a constant —
    /// never derived from `workers` — so the same graph and order produce
    /// the same index on any machine and any worker count.
    pub fn build_with_order_parallel(
        g: &Graph,
        order: &[NodeId],
        workers: usize,
    ) -> Result<Self, BuildError> {
        // Fixed batch width: part of the algorithm, not a tuning knob.
        const BATCH: usize = 64;
        let n = g.num_nodes();
        assert!(is_permutation(order, n), "order must cover every node");
        let workers = match workers {
            0 => roadnet::par::default_workers(),
            w => w,
        };
        let mut labels: Vec<Label> = vec![Vec::new(); n];
        let mut hub_dist = SourceTable::new();
        for (b, batch) in order.chunks(BATCH).enumerate() {
            let base = (b * BATCH) as u32;
            let candidates = Self::batch_searches(g, batch, &labels, workers);
            for (i, (&hub, cands)) in batch.iter().zip(candidates).enumerate() {
                // Distance from this hub to each earlier hub of the batch.
                hub_dist.scatter(n, tail_from(&labels[hub as usize], base).iter().copied());
                for (u, d) in cands {
                    let certified =
                        hub_dist.gather(tail_from(&labels[u as usize], base).iter().copied());
                    if certified > d {
                        push_entry(&mut labels, (hub, base + i as u32), u, d)?;
                    }
                }
            }
        }
        Ok(Self::from_labels(labels, order, g))
    }

    /// Run one pruned Dijkstra per batch hub against the pre-batch labels,
    /// returning each hub's `(node, dist)` candidates in settle order.
    /// Workers own their scratch and pull hubs from a shared cursor; results
    /// are merged by batch index, so scheduling never affects the output.
    fn batch_searches(
        g: &Graph,
        batch: &[NodeId],
        labels: &[Label],
        workers: usize,
    ) -> Vec<Vec<(NodeId, Dist)>> {
        type Shard = Vec<(usize, Vec<(NodeId, Dist)>)>;
        let n = g.num_nodes();
        let workers = workers.clamp(1, batch.len().max(1));
        if workers <= 1 {
            let mut scratch = SearchScratch::new(n);
            return batch
                .iter()
                .map(|&h| scratch.pruned_dijkstra(g, h, labels))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let shards: Vec<Shard> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut scratch = SearchScratch::new(n);
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= batch.len() {
                                break;
                            }
                            local.push((i, scratch.pruned_dijkstra(g, batch[i], labels)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("label build worker panicked"))
                .collect()
        });
        let mut out: Vec<Option<Vec<(NodeId, Dist)>>> = (0..batch.len()).map(|_| None).collect();
        for (i, c) in shards.into_iter().flatten() {
            out[i] = Some(c);
        }
        out.into_iter().map(|c| c.expect("batch covered")).collect()
    }

    /// Reassemble from per-node label lists, each sorted by hub rank, as
    /// the labels of `g`.
    fn from_labels(labels: Vec<Label>, order: &[NodeId], g: &Graph) -> Self {
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(labels.len() + 1);
        let mut ranks = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0u64);
        for label in &labels {
            for &(r, d) in label {
                ranks.push(r);
                dists.push(d);
            }
            offsets.push(ranks.len() as u64);
        }
        HubLabels {
            offsets: offsets.into(),
            ranks: ranks.into(),
            dists: dists.into(),
            order: order.to_vec().into(),
            graph: g.fingerprint(),
            id: next_id(),
        }
    }

    /// Node `v`'s label as parallel `(hub ranks, distances)` slices, sorted
    /// by rank.
    #[inline]
    pub fn label(&self, v: NodeId) -> (&[u32], &[u32]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.ranks[lo..hi], &self.dists[lo..hi])
    }

    /// The hub order the labels were built with: `order()[rank]` is the
    /// hub a label entry's rank refers to.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Exact shortest-path distance; `None` when `s` and `t` are in
    /// different components (no common hub).
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        if s == t {
            return Some(0);
        }
        let (sr, sd) = self.label(s);
        let (tr, td) = self.label(t);
        let (mut i, mut j) = (0, 0);
        let mut best = INF;
        // Branch-free merge: which list advances is data, not control
        // flow, so the loop has no unpredictable branch.
        while i < sr.len() && j < tr.len() {
            let (a, b) = (sr[i], tr[j]);
            let sum = sd[i] as Dist + td[j] as Dist;
            best = best.min(if a == b { sum } else { INF });
            i += (a <= b) as usize;
            j += (b <= a) as usize;
        }
        (best != INF).then_some(best)
    }

    /// [`HubLabels::distance`] through `table`: scatter `L(s)` into it
    /// unless it already holds `s` for this index, then gather over
    /// `L(t)`. Bit-identical to `distance(s, t)`; a run of targets for one
    /// source pays for `L(s)` once instead of once per merge.
    pub fn distance_from(&self, table: &mut SourceTable, s: NodeId, t: NodeId) -> Option<Dist> {
        if s == t {
            return Some(0);
        }
        if table.source != Some((self.id, s)) {
            let (sr, sd) = self.label(s);
            table.scatter(self.num_nodes(), sr.iter().copied().zip(sd.iter().copied()));
            table.source = Some((self.id, s));
        }
        let (tr, td) = self.label(t);
        let best = table.gather(tr.iter().copied().zip(td.iter().copied()));
        (best != INF).then_some(best)
    }

    /// [`Graph::fingerprint`] of the graph these labels were built for:
    /// what `labels.v2` records, and what a load compares against the
    /// graph it serves ([`Graph::check_built_for`]).
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph
    }

    /// Number of labeled vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of `(hub, dist)` entries across all labels.
    pub fn total_label_entries(&self) -> usize {
        self.ranks.len()
    }

    /// Mean label size — the labeling-oracle quality metric.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.total_label_entries() as f64 / self.num_nodes() as f64
        }
    }

    /// Approximate in-memory size (Fig. 9a analogue).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + (self.ranks.len() + self.dists.len() + self.order.len()) * 4
    }

    /// Scoped repair after a batch of edge-weight changes, against the hub
    /// order stored in the index. `g` is the *patched* graph; `touched`
    /// lists the edges whose weights differ from the graph the labels were
    /// built on (a superset is safe). Returns labels **bit-identical** to
    /// `build_with_order(g, self.order())` plus repair-cost counters.
    ///
    /// Why a per-hub certificate exists: the build's pruned Dijkstra
    /// relaxes the neighbors of a node only when the node is settled
    /// *unpruned*, i.e. exactly when it receives a label entry. So if hub
    /// `h`'s search traversed edge `(a, b)`, then `rank(h)` appears in the
    /// old label of `a` or `b` (every node also labels itself, covering
    /// `h ∈ {a, b}`). Replaying hubs in rank order, an unflagged hub's
    /// search reads only inputs — edge weights, its own label, and the
    /// labels (restricted to earlier ranks) of nodes it settles — that are
    /// unchanged, hence reproduces its old output verbatim and can be
    /// copied instead of searched. When a re-run hub's output differs at
    /// node `u`, every later hub whose old search could have read
    /// `label(u)` — `u`'s own rank, plus ranks in the old labels of `u`'s
    /// neighbors (the only way a search settles `u`) — is flagged too.
    /// This holds for weight increases and decreases alike.
    pub fn repair_scoped(
        &self,
        g: &Graph,
        touched: &[(NodeId, NodeId)],
    ) -> Result<(HubLabels, LabelRepairStats), BuildError> {
        let n = g.num_nodes();
        assert_eq!(self.num_nodes(), n, "labels must match the graph");
        let order = self.order();

        let mut rank_of = vec![0u32; n];
        for (rank, &hub) in order.iter().enumerate() {
            rank_of[hub as usize] = rank as u32;
        }
        // Old entries inverted by hub rank: by_rank[r] = (node, dist) in
        // ascending node order (built by scanning nodes in id order).
        let mut by_rank: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n];
        for v in 0..n as NodeId {
            let (ranks, dists) = self.label(v);
            for (&r, &d) in ranks.iter().zip(dists) {
                by_rank[r as usize].push((v, d));
            }
        }

        // Seed: hubs whose old search may have traversed a touched edge.
        let mut affected = vec![false; n];
        for &(a, b) in touched {
            for v in [a, b] {
                let (ranks, _) = self.label(v);
                for &r in ranks {
                    affected[r as usize] = true;
                }
            }
        }

        let mut labels: Vec<Label> = vec![Vec::new(); n];
        let mut scratch = SearchScratch::new(n);
        let mut roots_searched = 0usize;
        for (rank, &hub) in order.iter().enumerate() {
            let old = &by_rank[rank];
            if !affected[rank] {
                for &(v, d) in old {
                    labels[v as usize].push((rank as u32, d));
                }
                continue;
            }
            roots_searched += 1;
            let mut out = scratch.pruned_dijkstra(g, hub, &labels);
            out.sort_unstable_by_key(|&(v, _)| v);
            for &(v, d) in &out {
                push_entry(&mut labels, (hub, rank as u32), v, d)?;
            }
            // Diff against the old entries (both sorted by node id); any
            // node whose entry at this rank changed invalidates later
            // hubs that could have observed it.
            let (mut i, mut j) = (0, 0);
            let dirty = |u: NodeId, affected: &mut Vec<bool>| {
                let ru = rank_of[u as usize] as usize;
                if ru > rank {
                    affected[ru] = true;
                }
                for (x, _) in g.neighbors(u) {
                    let (ranks, _) = self.label(x);
                    for &r2 in ranks {
                        if (r2 as usize) > rank {
                            affected[r2 as usize] = true;
                        }
                    }
                }
            };
            while i < old.len() || j < out.len() {
                let changed = if i == old.len() {
                    Some(out[j].0)
                } else if j == out.len() {
                    Some(old[i].0)
                } else {
                    match old[i].0.cmp(&out[j].0) {
                        std::cmp::Ordering::Less => Some(old[i].0),
                        std::cmp::Ordering::Greater => Some(out[j].0),
                        std::cmp::Ordering::Equal => {
                            (old[i].1 as Dist != out[j].1).then_some(old[i].0)
                        }
                    }
                };
                if let Some(u) = changed {
                    dirty(u, &mut affected)
                }
                if i < old.len() && (j == out.len() || old[i].0 <= out[j].0) {
                    let adv_j = j < out.len() && old[i].0 == out[j].0;
                    i += 1;
                    if adv_j {
                        j += 1;
                    }
                } else {
                    j += 1;
                }
            }
        }
        Ok((
            HubLabels::from_labels(labels, order, g),
            LabelRepairStats {
                roots_searched,
                roots_total: n,
            },
        ))
    }
}

/// Repair-cost counters from [`HubLabels::repair_scoped`]: how many hub
/// searches actually re-ran versus the full-rebuild count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelRepairStats {
    /// Hubs whose pruned search was re-run.
    pub roots_searched: usize,
    /// Hubs a from-scratch rebuild would run (one per vertex).
    pub roots_total: usize,
}

impl PartialEq for HubLabels {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.ranks == other.ranks
            && self.dists == other.dists
            && self.order == other.order
    }
}

/// One source's label scattered by hub rank, for
/// [`HubLabels::distance_from`]: `INF` at every rank the source's label
/// lacks. A new source clears only the ranks the previous one wrote, so a
/// switch costs `O(|L(s)|)`, never `O(n)`. The array grows to the index's
/// node count on first use; a table may be reused across queries,
/// sources and indexes.
///
/// The merge it replaces is latency-bound: which list advances depends
/// on the previous comparison, so each step waits for the last. A gather
/// over `L(t)`'s ranks is independent loads in ascending address order.
#[derive(Default)]
pub struct SourceTable {
    /// `by_rank[r]` = `dist(source, hub of rank r)`, or `INF`.
    by_rank: Vec<Dist>,
    /// The ranks the current source wrote: exactly what the next clear
    /// resets.
    written: Vec<u32>,
    /// `(index id, source)` the table holds, if it holds a label of an
    /// index at all.
    source: Option<(u64, NodeId)>,
}

impl SourceTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the table's contents with `entries` (`(rank, dist)`, ranks
    /// `< n`), clearing the previous source's ranks first.
    fn scatter(&mut self, n: usize, entries: impl Iterator<Item = (u32, u32)>) {
        for r in self.written.drain(..) {
            self.by_rank[r as usize] = INF;
        }
        if self.by_rank.len() < n {
            self.by_rank.resize(n, INF);
        }
        self.source = None;
        for (r, d) in entries {
            self.by_rank[r as usize] = d as Dist;
            self.written.push(r);
        }
    }

    /// `min over entries (r, d) of table[r] + d`, `INF` when no rank of
    /// `entries` is in the table. An absent rank saturates to `INF`, so
    /// the loop has no branch on it.
    #[inline]
    fn gather(&self, entries: impl Iterator<Item = (u32, u32)>) -> Dist {
        entries.fold(INF, |best, (r, d)| {
            best.min(self.by_rank[r as usize].saturating_add(d as Dist))
        })
    }
}

/// Reusable per-worker state for one pruned Dijkstra.
struct SearchScratch {
    dist: Vec<Dist>,
    hub: SourceTable,
    touched: Vec<NodeId>,
    heap: BinaryHeap<(Reverse<Dist>, NodeId)>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![INF; n],
            hub: SourceTable::new(),
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Pruned Dijkstra from `hub` against a fixed label snapshot. Returns
    /// `(node, dist)` for every settled, unpruned node in settle order.
    fn pruned_dijkstra(&mut self, g: &Graph, hub: NodeId, labels: &[Label]) -> Vec<(NodeId, Dist)> {
        let mut out = Vec::new();
        self.hub
            .scatter(labels.len(), labels[hub as usize].iter().copied());
        self.dist[hub as usize] = 0;
        self.touched.push(hub);
        self.heap.push((Reverse(0), hub));
        while let Some((Reverse(d), u)) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            // Pruning test: is (hub -> u) already certified by earlier hubs?
            let certified = self.hub.gather(labels[u as usize].iter().copied());
            if certified <= d {
                continue;
            }
            out.push((u, d));
            for (t, w) in g.neighbors(u) {
                let nd = d + w as Dist;
                if nd < self.dist[t as usize] {
                    self.dist[t as usize] = nd;
                    self.touched.push(t);
                    self.heap.push((Reverse(nd), t));
                }
            }
        }
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        self.heap.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::dijkstra::dijkstra_all;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> Graph {
        grid_at(w, h, |x, y| (x as f64, y as f64))
    }

    /// The `grid` topology and weights with caller-chosen coordinates.
    fn grid_at(w: u32, h: u32, at: impl Fn(u32, u32) -> (f64, f64)) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                let (cx, cy) = at(x, y);
                b.add_node(cx, cy);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1 + (x + y) % 3);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x * y) % 2);
                }
            }
        }
        b.build()
    }

    /// A path `0 - 1 - ... - (n-1)` with every edge weighing `w`.
    fn path(n: u32, w: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(i as f64, 0.0);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, w);
        }
        b.build()
    }

    /// Both kernels against Dijkstra on every pair; one table serves the
    /// whole sweep, so it switches source `n` times.
    fn assert_exact(g: &Graph, hl: &HubLabels) {
        let mut table = SourceTable::new();
        for s in 0..g.num_nodes() as NodeId {
            let truth = dijkstra_all(g, s);
            for t in 0..g.num_nodes() as NodeId {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(hl.distance(s, t), expect, "pair {s}->{t}");
                assert_eq!(hl.distance_from(&mut table, s, t), expect, "table {s}->{t}");
            }
        }
    }

    #[test]
    fn exact_on_grid() {
        let g = grid(5, 4);
        let hl = HubLabels::build(&g).unwrap();
        assert_exact(&g, &hl);
    }

    #[test]
    fn exact_with_input_ordering() {
        let g = grid(4, 4);
        let input: Vec<NodeId> = (0..16).collect();
        let hl = HubLabels::build_with_order(&g, &input).unwrap();
        assert_exact(&g, &hl);
        assert_eq!(hl.order(), input);
    }

    #[test]
    fn default_order_is_a_deterministic_permutation_led_by_a_separator() {
        let g = grid(8, 6);
        let order = default_order(&g);
        assert!(is_permutation(&order, g.num_nodes()));
        assert_eq!(order, default_order(&g));
        assert_eq!(HubLabels::build(&g).unwrap().order(), order);
        // The wider axis is x (8 columns): the first cut is between
        // columns 3 and 4, and column 3 — the left half's vertices with an
        // edge across — outranks everything else.
        let mut first: Vec<NodeId> = order[..6].to_vec();
        first.sort_unstable();
        assert_eq!(first, [3, 11, 19, 27, 35, 43]);
        // That is what makes it a good hub order: fewer entries than the
        // degree heuristic it replaced.
        let mut by_degree: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        by_degree.sort_by_key(|&v| (Reverse(g.degree(v)), v));
        let degree = HubLabels::build_with_order(&g, &by_degree).unwrap();
        let separator = HubLabels::build_with_order(&g, &order).unwrap();
        assert!(separator.total_label_entries() < degree.total_label_entries());
    }

    #[test]
    fn degenerate_coordinates_degrade_the_order_not_the_answers() {
        // All-equal and NaN coordinates: the bisection falls back to ids,
        // and every build path must stay exact and bit-identical.
        let nan = |x: u32, y: u32| {
            (
                if (x + y).is_multiple_of(2) {
                    f64::NAN
                } else {
                    1.0
                },
                f64::NAN,
            )
        };
        for g in [
            grid(7, 5),
            grid_at(7, 5, |_, _| (2.5, 2.5)),
            grid_at(7, 5, nan),
        ] {
            assert!(is_permutation(&default_order(&g), g.num_nodes()));
            let seq = HubLabels::build(&g).unwrap();
            assert_exact(&g, &seq);
            for workers in [1, 2, 4] {
                assert!(
                    HubLabels::build_parallel(&g, workers).unwrap() == seq,
                    "batch build differs from sequential with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let hl = HubLabels::build(&g).unwrap();
        let mut table = SourceTable::new();
        for (s, t, want) in [
            (0, 1, Some(2)),
            (0, 2, None),
            (2, 3, Some(5)),
            (2, 0, None),
            (1, 3, None),
            (1, 0, Some(2)),
        ] {
            assert_eq!(hl.distance(s, t), want, "{s}->{t}");
            assert_eq!(hl.distance_from(&mut table, s, t), want, "table {s}->{t}");
        }
    }

    #[test]
    fn self_distance_zero() {
        let g = grid(3, 3);
        let hl = HubLabels::build(&g).unwrap();
        let mut table = SourceTable::new();
        for v in 0..9 {
            assert_eq!(hl.distance(v, v), Some(0));
            // Pinned on another source, and pinned on `v` itself.
            assert_eq!(hl.distance_from(&mut table, v, v), Some(0));
            assert_eq!(
                hl.distance_from(&mut table, v, (v + 1) % 9),
                hl.distance(v, (v + 1) % 9)
            );
            assert_eq!(hl.distance_from(&mut table, v, v), Some(0));
        }
    }

    #[test]
    fn one_table_serves_many_indexes() {
        // Same node count, different weights: a table pinned on source 0
        // of one index must not answer for source 0 of the other, whether
        // the second is built, loaded, or a repair of the first.
        let a = grid(5, 4);
        let b = patched(&a, &[(0, 1, 9), (0, 5, 9)]);
        let la = HubLabels::build(&a).unwrap();
        let lb = HubLabels::build(&b).unwrap();
        let loaded = HubLabels::from_flat_bytes(&lb.to_flat_bytes()).unwrap();
        let (repaired, _) = la.repair_scoped(&b, &[(0, 1), (0, 5)]).unwrap();
        let mut table = SourceTable::new();
        for t in 1..20 {
            for hl in [&la, &lb, &loaded, &repaired, &la] {
                assert_eq!(
                    hl.distance_from(&mut table, 0, t),
                    hl.distance(0, t),
                    "0->{t}"
                );
            }
        }
        assert_ne!(la.distance(0, 1), lb.distance(0, 1));
    }

    #[test]
    fn labels_sorted_by_rank() {
        let g = grid(5, 5);
        let hl = HubLabels::build(&g).unwrap();
        for v in 0..hl.num_nodes() as NodeId {
            let (ranks, _) = hl.label(v);
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parallel_build_is_exact_and_worker_count_invariant() {
        // 12 x 11 = 132 nodes: three rank batches, so the in-batch
        // re-prune runs against labels earlier batches installed.
        let g = grid(12, 11);
        let canonical = HubLabels::build_parallel(&g, 1).unwrap();
        assert_exact(&g, &canonical);
        assert!(canonical == HubLabels::build(&g).unwrap());
        for workers in [2, 3, 8] {
            let hl = HubLabels::build_parallel(&g, workers).unwrap();
            assert!(
                hl == canonical,
                "labels differ with {workers} workers (batch result must not depend on scheduling)"
            );
        }
    }

    #[test]
    fn parallel_build_matches_sequential_answers() {
        let g = grid(7, 4);
        let seq = HubLabels::build(&g).unwrap();
        let par = HubLabels::build_parallel(&g, 4).unwrap();
        for s in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(par.distance(s, t), seq.distance(s, t), "pair {s}->{t}");
            }
        }
    }

    #[test]
    fn parallel_build_with_custom_order_is_exact() {
        let g = grid(14, 10);
        let order: Vec<NodeId> = (0..140).rev().collect();
        let hl = HubLabels::build_with_order_parallel(&g, &order, 3).unwrap();
        assert_exact(&g, &hl);
        assert!(hl == HubLabels::build_with_order(&g, &order).unwrap());
    }

    #[test]
    fn stats_are_consistent() {
        let g = grid(4, 3);
        let hl = HubLabels::build(&g).unwrap();
        assert_eq!(hl.num_nodes(), 12);
        assert!(hl.total_label_entries() >= 12); // every node labels itself
        assert!(hl.avg_label_size() >= 1.0);
        assert_eq!(
            hl.memory_bytes(),
            13 * 8 + hl.total_label_entries() * 8 + 12 * 4
        );
    }

    #[test]
    fn limit_aborts_large_builds_but_allows_small() {
        let g = grid(6, 6);
        assert_eq!(
            HubLabels::build_with_limit(&g, 5).err(),
            Some(BuildError::BudgetExceeded { max_entries: 5 })
        );
        let hl = HubLabels::build_with_limit(&g, 1_000_000).unwrap();
        assert_exact(&g, &hl);
    }

    #[test]
    fn custom_order_stays_exact() {
        let g = grid(5, 5);
        // Reverse-id order: terrible, but must remain exact.
        let order: Vec<NodeId> = (0..25).rev().collect();
        let hl = HubLabels::build_with_order(&g, &order).unwrap();
        assert_exact(&g, &hl);
        // order_by_importance sorts descending by score.
        let scores: Vec<u64> = (0..25).map(|v| v as u64 * 7 % 13).collect();
        let order = order_by_importance(&scores);
        let hl = HubLabels::build_with_order(&g, &order).unwrap();
        assert_exact(&g, &hl);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn custom_order_must_cover() {
        let g = grid(3, 3);
        let _ = HubLabels::build_with_order(&g, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn custom_order_must_not_repeat() {
        let g = grid(2, 2);
        let _ = HubLabels::build_with_order_parallel(&g, &[0, 1, 1, 3], 1);
    }

    #[test]
    fn distances_past_u32_are_a_typed_error_on_every_write_path() {
        // Five nodes, four edges of u32::MAX: whichever hub goes first
        // sees a node two hops (> u32::MAX) away.
        let heavy = path(5, u32::MAX);
        let overflow = |r: Result<HubLabels, BuildError>| match r.err() {
            Some(BuildError::DistanceOverflow { dist, .. }) => dist,
            other => panic!("expected DistanceOverflow, got {other:?}"),
        };
        let d = overflow(HubLabels::build(&heavy));
        assert!(d > u32::MAX as Dist && d % u32::MAX as Dist == 0, "{d}");
        assert_eq!(overflow(HubLabels::build_parallel(&heavy, 2)), d);
        let input: Vec<NodeId> = (0..5).collect();
        assert_eq!(
            HubLabels::build_with_order(&heavy, &input).err(),
            Some(BuildError::DistanceOverflow {
                hub: 0,
                node: 2,
                dist: 2 * u32::MAX as Dist
            })
        );
        // A repair that a weight increase drives over the edge.
        let light = path(5, 7);
        let hl = HubLabels::build(&light).unwrap();
        assert_exact(&light, &hl);
        let touched: Vec<(NodeId, NodeId)> = (1..5).map(|i| (i - 1, i)).collect();
        let patches: Vec<_> = touched.iter().map(|&(u, v)| (u, v, u32::MAX)).collect();
        let heavy = light.with_patched_weights(&patches).unwrap();
        assert_eq!(overflow(hl.repair_scoped(&heavy, &touched).map(|r| r.0)), d);
        // u32::MAX itself still fits, and `distance` sums past it in u64.
        let edge = path(3, u32::MAX);
        let hl = HubLabels::build_with_order(&edge, &[1, 0, 2]).unwrap();
        assert_exact(&edge, &hl);
        assert_eq!(hl.distance(0, 2), Some(2 * u32::MAX as Dist));
        let mut table = SourceTable::new();
        assert_eq!(
            hl.distance_from(&mut table, 0, 2),
            Some(2 * u32::MAX as Dist)
        );
        assert_eq!(
            hl.distance_from(&mut table, 2, 0),
            Some(2 * u32::MAX as Dist)
        );
        assert_eq!(hl.distance_from(&mut table, 2, 1), Some(u32::MAX as Dist));
    }

    fn patched(g: &Graph, patches: &[(NodeId, NodeId, u32)]) -> Graph {
        g.with_patched_weights(patches).unwrap()
    }

    #[test]
    fn repair_scoped_is_bit_identical_to_rebuild() {
        let g = grid(6, 5);
        let hl = HubLabels::build(&g).unwrap();
        // Increase, decrease, and a mixed batch — each must reproduce the
        // from-scratch index exactly.
        for patch in [
            vec![(7u32, 8u32, 9u32)],
            vec![(12, 18, 1)],
            vec![(0, 1, 5), (14, 15, 1), (22, 28, 7)],
        ] {
            let g2 = patched(&g, &patch);
            let touched: Vec<(NodeId, NodeId)> = patch.iter().map(|&(u, v, _)| (u, v)).collect();
            let (repaired, stats) = hl.repair_scoped(&g2, &touched).unwrap();
            let rebuilt = HubLabels::build(&g2).unwrap();
            assert!(repaired == rebuilt, "repair diverged for patch {patch:?}");
            assert_eq!(stats.roots_total, g.num_nodes());
            assert!(stats.roots_searched <= stats.roots_total);
        }
    }

    #[test]
    fn repair_scoped_handles_repeated_batches() {
        // Chain repairs: each repair feeds the next, staying identical to
        // a rebuild at every step (including a weight round-trip).
        let g0 = grid(5, 5);
        let mut hl = HubLabels::build(&g0).unwrap();
        let mut g = g0.clone();
        for patch in [(6u32, 7u32, 9u32), (6, 7, 1), (17, 22, 4), (6, 7, 2)] {
            g = patched(&g, &[patch]);
            let (next, _) = hl.repair_scoped(&g, &[(patch.0, patch.1)]).unwrap();
            assert!(
                next == HubLabels::build(&g).unwrap(),
                "diverged at patch {patch:?}"
            );
            hl = next;
        }
    }

    #[test]
    fn repair_scoped_empty_scope_is_a_clone() {
        let g = grid(4, 4);
        let hl = HubLabels::build(&g).unwrap();
        let (same, stats) = hl.repair_scoped(&g, &[]).unwrap();
        assert!(same == hl);
        assert_eq!(stats.roots_searched, 0);
    }

    #[test]
    fn repair_scoped_repairs_parallel_built_labels() {
        // The batched parallel build is bit-identical to the sequential
        // one, so its output is a valid repair starting point too.
        let g = grid(6, 4);
        let hl = HubLabels::build_parallel(&g, 4).unwrap();
        let g2 = patched(&g, &[(5, 11, 8), (13, 14, 1)]);
        let (repaired, stats) = hl.repair_scoped(&g2, &[(5, 11), (13, 14)]).unwrap();
        assert!(repaired == HubLabels::build(&g2).unwrap());
        assert!(
            stats.roots_searched < stats.roots_total,
            "a two-edge patch should not invalidate every hub"
        );
    }

    #[test]
    fn repair_scoped_uses_the_order_the_index_carries() {
        // Labels built with an order nothing could re-derive: the repair
        // must reproduce a rebuild with *that* order, not the default.
        let g = grid(5, 4);
        let order: Vec<NodeId> = (0..20).map(|v| (v * 7 + 3) % 20).collect();
        let hl = HubLabels::build_with_order(&g, &order).unwrap();
        let g2 = patched(&g, &[(6, 7, 9), (11, 16, 1)]);
        let (repaired, _) = hl.repair_scoped(&g2, &[(6, 7), (11, 16)]).unwrap();
        assert_eq!(repaired.order(), order);
        assert!(repaired == HubLabels::build_with_order(&g2, &order).unwrap());
        assert!(repaired != HubLabels::build(&g2).unwrap());
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        let g = b.build();
        let hl = HubLabels::build(&g).unwrap();
        assert_eq!(hl.distance(0, 0), Some(0));
    }
}
