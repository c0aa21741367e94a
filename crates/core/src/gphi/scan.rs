//! `g_phi` by scanning `Q` with a point-to-point oracle.
//!
//! The "A\*" and "PHL" rows of Table I: compute `delta(p, q)` for every
//! `q in Q` with the oracle and keep the `k` smallest. Cheap per-distance
//! oracles (hub labels) make this the fastest backend; expensive ones (A\*)
//! make it the slowest — exactly the spread Fig. 3 shows.

use super::oracle::DistanceOracle;
use super::{select_k_smallest, GPhi, GPhiResult};
use crate::metrics::Recorder;
use crate::Aggregate;
use roadnet::{NodeId, INF};

/// Oracle-scanning backend over a fixed query set. The `R` parameter is a
/// [`Recorder`] instrumentation hook; the default `()` records nothing and
/// costs nothing.
pub struct ScanPhi<'q, O, R: Recorder = ()> {
    oracle: O,
    q: &'q [NodeId],
    rec: R,
    /// Whether the oracle is the hub-label ("PHL") backend, so oracle
    /// calls also count as label lookups.
    is_label: bool,
}

impl<'q, O: DistanceOracle> ScanPhi<'q, O> {
    pub fn new(oracle: O, q: &'q [NodeId]) -> Self {
        Self::with_recorder(oracle, q, ())
    }
}

impl<'q, O: DistanceOracle, R: Recorder> ScanPhi<'q, O, R> {
    /// [`ScanPhi::new`] with a live [`Recorder`] observing every oracle
    /// probe and `g_phi` evaluation.
    pub fn with_recorder(oracle: O, q: &'q [NodeId], rec: R) -> Self {
        let is_label = oracle.name() == "PHL";
        ScanPhi {
            oracle,
            q,
            rec,
            is_label,
        }
    }
}

impl<O: DistanceOracle, R: Recorder> GPhi for ScanPhi<'_, O, R> {
    fn eval(&self, p: NodeId, k: usize, agg: Aggregate) -> Option<GPhiResult> {
        assert!(k >= 1 && k <= self.q.len(), "invalid subset size {k}");
        self.rec.gphi_eval();
        let dists = self.q.iter().map(|&q| {
            self.rec.oracle_call();
            if self.is_label {
                self.rec.label_lookup();
            }
            (q, self.oracle.dist(p, q).unwrap_or(INF))
        });
        let knn = select_k_smallest(dists, k)?;
        Some(GPhiResult::from_knn(knn, agg))
    }

    fn name(&self) -> &'static str {
        self.oracle.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gphi::ine::InePhi;
    use crate::gphi::oracle::{AStarOracle, DijkstraOracle, GuardedLabelOracle};
    use hublabel::HubLabels;
    use roadnet::{Graph, GraphBuilder};

    fn grid(w: u32, h: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64 * 3.0, y as f64 * 3.0);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 3 + (x + y) % 2);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 3 + x % 3);
                }
            }
        }
        b.build()
    }

    #[test]
    fn scan_matches_ine_for_all_backends() {
        let g = grid(5, 5);
        let q: Vec<u32> = vec![0, 6, 12, 18, 24, 3, 21];
        let hl = HubLabels::build(&g).unwrap();
        let ine = InePhi::new(&g, &q);
        let scan_dij = ScanPhi::new(DijkstraOracle::new(&g), &q);
        let scan_astar = ScanPhi::new(AStarOracle::new(&g), &q);
        let scan_label = ScanPhi::new(GuardedLabelOracle::new(&hl), &q);
        for p in 0..25u32 {
            for k in [1usize, 3, 7] {
                for agg in [Aggregate::Sum, Aggregate::Max] {
                    let want = ine.eval(p, k, agg).unwrap().dist;
                    assert_eq!(scan_dij.eval(p, k, agg).unwrap().dist, want);
                    assert_eq!(scan_astar.eval(p, k, agg).unwrap().dist, want);
                    assert_eq!(scan_label.eval(p, k, agg).unwrap().dist, want);
                }
            }
        }
    }

    #[test]
    fn insufficient_reachable_is_none() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let q = [1u32, 3];
        let scan = ScanPhi::new(DijkstraOracle::new(&g), &q);
        assert!(scan.eval(0, 2, Aggregate::Sum).is_none());
        assert_eq!(scan.eval(0, 1, Aggregate::Sum).unwrap().dist, 1);
    }

    #[test]
    fn name_comes_from_oracle() {
        let g = grid(2, 2);
        let q = [0u32];
        let scan = ScanPhi::new(DijkstraOracle::new(&g), &q);
        assert_eq!(scan.name(), "Dijkstra");
    }
}
