//! Point-to-point shortest-path distance oracles.
//!
//! Every `g_phi` backend that is not expansion-based reduces to repeated
//! point-to-point distance queries; this module collects the oracles used
//! by the paper (Dijkstra \[12\], A\* \[13\], PHL \[16\] → hub labels, G-tree
//! \[11\]) behind one trait so [`super::scan::ScanPhi`] and
//! [`super::ier2::IerPhi`] are generic over them.

use crate::metrics::Recorder;
use gtree::GTree;
use hublabel::{HubLabels, SourceTable};
use roadnet::{
    astar_pair_recorded, astar_pair_with, dijkstra_pair_recorded, AppliedUpdate, Dist, Graph,
    LowerBound, NodeId, QueryScratch,
};
use std::cell::RefCell;

/// An exact point-to-point network distance oracle.
pub trait DistanceOracle {
    /// Exact `delta(s, t)`; `None` when disconnected.
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist>;

    /// Name as used in figure legends.
    fn name(&self) -> &'static str;
}

/// A reference to an oracle is an oracle: lets a long-lived oracle (with
/// its recycled scratch) back many short-lived [`super::scan::ScanPhi`]s
/// across a query stream.
impl<O: DistanceOracle + ?Sized> DistanceOracle for &O {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        (**self).dist(s, t)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Plain Dijkstra with early termination. Holds a recycled
/// [`QueryScratch`], so repeated `dist` calls on one oracle are
/// allocation-free after the first. The `R` parameter is a [`Recorder`]
/// instrumentation hook; the default `()` records nothing and costs
/// nothing.
pub struct DijkstraOracle<'g, R: Recorder = ()> {
    graph: &'g Graph,
    scratch: RefCell<QueryScratch>,
    rec: R,
}

impl<'g> DijkstraOracle<'g> {
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_recorder(graph, ())
    }
}

impl<'g, R: Recorder> DijkstraOracle<'g, R> {
    /// [`DijkstraOracle::new`] with a live [`Recorder`] observing every
    /// settle/push/pop of each point-to-point search.
    pub fn with_recorder(graph: &'g Graph, rec: R) -> Self {
        DijkstraOracle {
            graph,
            scratch: RefCell::new(QueryScratch::new()),
            rec,
        }
    }
}

impl<R: Recorder> DistanceOracle for DijkstraOracle<'_, R> {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        dijkstra_pair_recorded(self.graph, s, t, &mut self.scratch.borrow_mut(), self.rec)
    }
    fn name(&self) -> &'static str {
        "Dijkstra"
    }
}

/// A\* with an admissible Euclidean lower bound. Like [`DijkstraOracle`],
/// carries its own recycled [`QueryScratch`] and an optional [`Recorder`].
pub struct AStarOracle<'g, R: Recorder = ()> {
    graph: &'g Graph,
    lb: LowerBound,
    scratch: RefCell<QueryScratch>,
    rec: R,
}

impl<'g> AStarOracle<'g> {
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_lb(graph, LowerBound::for_graph(graph))
    }

    /// Reuse a precomputed lower bound (workload environments build it once).
    pub fn with_lb(graph: &'g Graph, lb: LowerBound) -> Self {
        Self::with_recorder(graph, lb, ())
    }
}

impl<'g, R: Recorder> AStarOracle<'g, R> {
    /// [`AStarOracle::with_lb`] with a live [`Recorder`] observing every
    /// settle/push/pop of each point-to-point search.
    pub fn with_recorder(graph: &'g Graph, lb: LowerBound, rec: R) -> Self {
        AStarOracle {
            graph,
            lb,
            scratch: RefCell::new(QueryScratch::new()),
            rec,
        }
    }
}

impl<R: Recorder> DistanceOracle for AStarOracle<'_, R> {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        astar_pair_recorded(
            self.graph,
            &self.lb,
            s,
            t,
            &mut self.scratch.borrow_mut(),
            self.rec,
        )
    }
    fn name(&self) -> &'static str {
        "A*"
    }
}

/// Hub-label oracle — the paper's "PHL" role (DESIGN.md §5) — guarded by
/// a set of weight updates the labels have not yet absorbed: the
/// staleness contract of the snapshot engine.
///
/// * No pending updates ([`GuardedLabelOracle::new`]): plain label
///   lookups.
/// * Increase-only updates: the old label distance is trusted unless some
///   updated edge was *tight* on an old shortest path between the pair
///   (`d_old(s,u) + w_old + d_old(v,t) == d_old(s,t)` in either
///   orientation). Increases cannot create shorter paths, so an
///   unaffected pair's old shortest path survives with unchanged length;
///   affected pairs fall back to exact A\* on the current graph.
/// * Any decrease pending: always fall back to A\*. Decrease certificates
///   do not compose across multiple changed edges, so the oracle is
///   conservative — stale answers are *never* wrong, only slower.
///
/// Every label distance from the query's source `s` — the fresh lookup,
/// `d_old(s,t)` and each `d_old(s,u)` — resolves through one
/// [`SourceTable`] ([`HubLabels::distance_from`]), so IER's run of `|Q|`
/// lookups per candidate scatters the candidate's label once.
///
/// The A\* fallback uses the snapshot lineage's lower bound, which stays
/// admissible across epochs because every published update is validated
/// against it.
pub struct GuardedLabelOracle<'s> {
    labels: &'s HubLabels,
    /// Updates the labels have not absorbed; `None` when they are fresh.
    stale: Option<Stale<'s>>,
    table: RefCell<SourceTable>,
}

/// What [`GuardedLabelOracle`] needs to stay exact past the labels' epoch.
struct Stale<'s> {
    graph: &'s Graph,
    updates: &'s [AppliedUpdate],
    increase_only: bool,
    lb: LowerBound,
    scratch: RefCell<QueryScratch>,
}

impl<'s> GuardedLabelOracle<'s> {
    /// Labels that match the graph they answer on: no updates to guard.
    pub fn new(labels: &'s HubLabels) -> Self {
        GuardedLabelOracle {
            labels,
            stale: None,
            table: RefCell::default(),
        }
    }

    /// Labels built before `updates` were applied to `graph`.
    pub fn guarded(
        labels: &'s HubLabels,
        graph: &'s Graph,
        updates: &'s [AppliedUpdate],
        increase_only: bool,
        lb: LowerBound,
    ) -> Self {
        GuardedLabelOracle {
            stale: (!updates.is_empty()).then(|| Stale {
                graph,
                updates,
                increase_only,
                lb,
                scratch: RefCell::new(QueryScratch::new()),
            }),
            ..Self::new(labels)
        }
    }

    /// Answer through `table` (a recycled one, typically) instead of an
    /// empty one.
    pub fn with_table(self, table: SourceTable) -> Self {
        self.table.replace(table);
        self
    }

    /// Give the table back for the next oracle.
    pub fn into_table(self) -> SourceTable {
        self.table.into_inner()
    }
}

impl DistanceOracle for GuardedLabelOracle<'_> {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        let from_s = |t| {
            self.labels
                .distance_from(&mut self.table.borrow_mut(), s, t)
        };
        let Some(stale) = &self.stale else {
            return from_s(t);
        };
        if stale.increase_only {
            // Weight increases never change connectivity, so a `None`
            // here is a genuine disconnection in every epoch.
            let d_old = from_s(t)?;
            let tight =
                |a: NodeId, b: NodeId, w_old: Dist| match (from_s(a), self.labels.distance(b, t)) {
                    (Some(da), Some(db)) => da.saturating_add(w_old).saturating_add(db) == d_old,
                    _ => false,
                };
            let affected = stale.updates.iter().any(|up| {
                tight(up.u, up.v, up.w_old as Dist) || tight(up.v, up.u, up.w_old as Dist)
            });
            if !affected {
                return Some(d_old);
            }
        }
        astar_pair_with(
            stale.graph,
            &stale.lb,
            s,
            t,
            &mut stale.scratch.borrow_mut(),
        )
    }

    // One name whatever the staleness: the fallback is an internal
    // freshness detail, not a different method.
    fn name(&self) -> &'static str {
        "PHL"
    }
}

/// G-tree assembly-based shortest-path distance oracle.
pub struct GTreeOracle<'t, 'g> {
    pub tree: &'t GTree,
    pub graph: &'g Graph,
}

impl DistanceOracle for GTreeOracle<'_, '_> {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.tree.dist(self.graph, s, t)
    }
    fn name(&self) -> &'static str {
        "GTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{dijkstra_pair, GraphBuilder};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(1.0, 0.0);
        b.add_node(0.0, 1.0);
        b.add_node(1.0, 1.0);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 2);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn all_oracles_agree() {
        let g = diamond();
        let hl = HubLabels::build(&g).unwrap();
        let gt = GTree::build(&g);
        let oracles: Vec<Box<dyn DistanceOracle + '_>> = vec![
            Box::new(DijkstraOracle::new(&g)),
            Box::new(AStarOracle::new(&g)),
            Box::new(GuardedLabelOracle::new(&hl)),
            Box::new(GTreeOracle {
                tree: &gt,
                graph: &g,
            }),
        ];
        for s in 0..4 {
            for t in 0..4 {
                let expect = dijkstra_pair(&g, s, t);
                for o in &oracles {
                    assert_eq!(o.dist(s, t), expect, "{} wrong for {s}->{t}", o.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let g = diamond();
        let hl = HubLabels::build(&g).unwrap();
        let gt = GTree::build(&g);
        let names = [
            DijkstraOracle::new(&g).name(),
            AStarOracle::new(&g).name(),
            GuardedLabelOracle::new(&hl).name(),
            GTreeOracle {
                tree: &gt,
                graph: &g,
            }
            .name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn guarded_oracle_is_exact_across_the_staleness_window() {
        let g = diamond();
        let hl = HubLabels::build(&g).unwrap();
        // No pending updates: identical to plain label lookups.
        let fresh = GuardedLabelOracle::guarded(&hl, &g, &[], true, LowerBound::for_graph(&g));
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(fresh.dist(s, t), dijkstra_pair(&g, s, t));
            }
        }
        // An increase the labels have not absorbed: affected pairs fall
        // back, unaffected pairs reuse labels — all answers exact on the
        // *patched* graph.
        let patched = g.with_patched_weights(&[(0, 1, 5)]).unwrap();
        let ups = [AppliedUpdate {
            u: 0,
            v: 1,
            w_old: 1,
            w_new: 5,
        }];
        let inc = GuardedLabelOracle::guarded(&hl, &patched, &ups, true, LowerBound::for_graph(&g));
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(inc.dist(s, t), dijkstra_pair(&patched, s, t), "{s}->{t}");
            }
        }
        // A decrease: certificates are off, everything falls back to A*,
        // still exact.
        let patched = g.with_patched_weights(&[(1, 3, 1)]).unwrap();
        let ups = [AppliedUpdate {
            u: 1,
            v: 3,
            w_old: 2,
            w_new: 1,
        }];
        let dec =
            GuardedLabelOracle::guarded(&hl, &patched, &ups, false, LowerBound::for_graph(&g));
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(dec.dist(s, t), dijkstra_pair(&patched, s, t), "{s}->{t}");
            }
        }
    }
}
