//! `g_phi` via Incremental Euclidean Restriction over an R-tree on `Q`.
//!
//! The `IER²` rows of Table I (`IER-A*`, `IER-GTree`, `IER-PHL` *as
//! `g_phi` methods*): query points are pulled from an R-tree on `Q` in
//! increasing Euclidean distance from `p`; each is resolved to its exact
//! network distance by a [`DistanceOracle`]; the scan stops when the scaled
//! Euclidean bound of the next candidate cannot beat the current k-th best
//! network distance. Exact, because the scaled Euclidean distance never
//! exceeds the network distance ([`LowerBound`]).

use super::oracle::DistanceOracle;
use super::{GPhi, GPhiResult};
use crate::metrics::Recorder;
use crate::Aggregate;
use roadnet::{Dist, Graph, LowerBound, NodeId, INF};
use spatial_rtree::{Pt, RTree};
use std::collections::BinaryHeap;

/// IER backend over a fixed query set, generic in the distance oracle.
/// The `R` parameter is a [`Recorder`] instrumentation hook; the default
/// `()` records nothing and costs nothing.
pub struct IerPhi<'g, O, R: Recorder = ()> {
    oracle: O,
    graph: &'g Graph,
    rtree: RTree<NodeId>,
    lb: LowerBound,
    num_query: usize,
    name: &'static str,
    rec: R,
    is_label: bool,
}

impl<'g, O: DistanceOracle> IerPhi<'g, O> {
    pub fn new(graph: &'g Graph, oracle: O, q: &[NodeId]) -> Self {
        Self::with_recorder(graph, oracle, q, ())
    }
}

impl<'g, O: DistanceOracle, R: Recorder> IerPhi<'g, O, R> {
    /// [`IerPhi::new`] with a live [`Recorder`] observing every R-tree node
    /// access, oracle probe, and `g_phi` evaluation.
    pub fn with_recorder(graph: &'g Graph, oracle: O, q: &[NodeId], rec: R) -> Self {
        let items: Vec<(Pt, NodeId)> = q
            .iter()
            .map(|&v| {
                let c = graph.coord(v);
                (Pt::new(c.x, c.y), v)
            })
            .collect();
        let name: &'static str = match oracle.name() {
            "A*" => "IER-A*",
            "PHL" => "IER-PHL",
            "GTree" => "IER-GTree",
            "Dijkstra" => "IER-Dijkstra",
            _ => "IER-?",
        };
        let is_label = oracle.name() == "PHL";
        IerPhi {
            oracle,
            graph,
            rtree: RTree::bulk_load(items),
            lb: LowerBound::for_graph(graph),
            num_query: q.len(),
            name,
            rec,
            is_label,
        }
    }
}

impl<O: DistanceOracle, R: Recorder> GPhi for IerPhi<'_, O, R> {
    fn eval(&self, p: NodeId, k: usize, agg: Aggregate) -> Option<GPhiResult> {
        assert!(k >= 1 && k <= self.num_query, "invalid subset size {k}");
        self.rec.gphi_eval();
        let c = self.graph.coord(p);
        let mut best: BinaryHeap<(Dist, NodeId)> = BinaryHeap::new();
        let mut it = self.rtree.nearest_iter(Pt::new(c.x, c.y));
        // `while let` (not `for`) keeps `it` borrowable after the early
        // break so the node-access count can be read out.
        #[allow(clippy::while_let_on_iterator)]
        while let Some((euclid, &qnode)) = it.next() {
            let bound = self.lb.bound_euclid(euclid);
            if best.len() == k {
                let worst = best.peek().expect("heap full").0;
                if bound >= worst {
                    break; // no later candidate can improve the k-th best
                }
            }
            self.rec.oracle_call();
            if self.is_label {
                self.rec.label_lookup();
            }
            let d = self.oracle.dist(p, qnode).unwrap_or(INF);
            if d == INF {
                continue;
            }
            if best.len() < k {
                best.push((d, qnode));
            } else if let Some(&(worst, _)) = best.peek() {
                if d < worst {
                    best.pop();
                    best.push((d, qnode));
                }
            }
        }
        self.rec.rtree_nodes(it.nodes_visited());
        if best.len() < k {
            return None;
        }
        let mut knn: Vec<(NodeId, Dist)> = best.into_iter().map(|(d, n)| (n, d)).collect();
        knn.sort_by_key(|&(n, d)| (d, n));
        Some(GPhiResult::from_knn(knn, agg))
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gphi::ine::InePhi;
    use crate::gphi::oracle::{AStarOracle, DijkstraOracle, GTreeOracle, GuardedLabelOracle};
    use gtree::{GTree, GTreeParams};
    use hublabel::HubLabels;
    use roadnet::GraphBuilder;

    /// Grid where edge weights equal Euclidean lengths (scale = 1).
    fn metric_grid(w: u32, h: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64 * 10.0, y as f64 * 10.0);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 10 + (x + y) % 4);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 10 + (x * y) % 3);
                }
            }
        }
        b.build()
    }

    #[test]
    fn ier_matches_ine_for_all_oracles() {
        let g = metric_grid(6, 5);
        let q: Vec<u32> = vec![0, 7, 14, 21, 28, 4, 25];
        let hl = HubLabels::build(&g).unwrap();
        let gt = GTree::build_with_params(
            &g,
            GTreeParams {
                fanout: 2,
                leaf_cap: 5,
            },
        );
        let ine = InePhi::new(&g, &q);
        let backends: Vec<Box<dyn GPhi + '_>> = vec![
            Box::new(IerPhi::new(&g, DijkstraOracle::new(&g), &q)),
            Box::new(IerPhi::new(&g, AStarOracle::new(&g), &q)),
            Box::new(IerPhi::new(&g, GuardedLabelOracle::new(&hl), &q)),
            Box::new(IerPhi::new(
                &g,
                GTreeOracle {
                    tree: &gt,
                    graph: &g,
                },
                &q,
            )),
        ];
        for p in 0..30u32 {
            for k in [1usize, 4, 7] {
                for agg in [Aggregate::Sum, Aggregate::Max] {
                    let want = ine.eval(p, k, agg).unwrap().dist;
                    for b in &backends {
                        assert_eq!(
                            b.eval(p, k, agg).unwrap().dist,
                            want,
                            "{} wrong at p={p} k={k} {agg}",
                            b.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_reflect_oracle() {
        let g = metric_grid(2, 2);
        let q = [0u32];
        assert_eq!(IerPhi::new(&g, AStarOracle::new(&g), &q).name(), "IER-A*");
        assert_eq!(
            IerPhi::new(&g, DijkstraOracle::new(&g), &q).name(),
            "IER-Dijkstra"
        );
    }

    #[test]
    fn disconnected_insufficient_is_none() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64 * 10.0, 0.0);
        }
        b.add_edge(0, 1, 10);
        b.add_edge(2, 3, 10);
        let g = b.build();
        let q = [1u32, 3];
        let ier = IerPhi::new(&g, DijkstraOracle::new(&g), &q);
        assert!(ier.eval(0, 2, Aggregate::Sum).is_none());
        assert_eq!(ier.eval(0, 1, Aggregate::Sum).unwrap().dist, 10);
    }
}
