//! `GD`: the (generalized) Dijkstra-based algorithm (§III-A).
//!
//! Enumerate every `p in P`, evaluate `g_phi(p, Q)` with the supplied
//! backend, and keep the minimum. With the INE backend this is the paper's
//! `Baseline`; with other backends it is the `GD` family of Fig. 3(a).
//! Much better than the naive `C(|Q|, phi|Q|)` enumeration discussed in
//! §II-C — it fixes `p` first and derives the optimal subset, instead of
//! fixing the subset first.

use crate::gphi::GPhi;
use crate::{FannAnswer, FannQuery};

/// Exact FANN_R by enumerating `P`. `None` when no data point reaches
/// `ceil(phi |Q|)` query points.
///
/// Ties on `d*` resolve to the smallest node id, so the reported `p*` is
/// deterministic regardless of the order of `P`.
pub fn gd(query: &FannQuery, gphi: &dyn GPhi) -> Option<FannAnswer> {
    let k = query.subset_size();
    let mut best: Option<FannAnswer> = None;
    for &p in query.p {
        let Some(r) = gphi.eval(p, k, query.agg) else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|b| (r.dist, p) < (b.dist, b.p_star))
        {
            best = Some(FannAnswer {
                p_star: p,
                subset: r.subset_nodes(),
                dist: r.dist,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute::brute_force;
    use crate::gphi::ine::InePhi;
    use crate::Aggregate;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> roadnet::Graph {
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
                    b.add_edge(v, v + 1, 1 + (3 * x + y) % 5);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x + 2 * y) % 3);
                }
            }
        }
        b.build()
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let g = grid(6, 6);
        let p: Vec<u32> = (0..36).step_by(3).collect();
        let q: Vec<u32> = vec![1, 8, 22, 31, 35];
        for phi in [0.2, 0.5, 0.8, 1.0] {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let query = FannQuery::new(&p, &q, phi, agg);
                let ine = InePhi::new(&g, &q);
                let got = gd(&query, &ine).unwrap();
                let want = brute_force(&g, &query).unwrap();
                assert_eq!(got.dist, want.dist, "phi={phi} {agg}");
                assert_eq!(got.subset.len(), query.subset_size());
            }
        }
    }

    #[test]
    fn answer_is_verifiable() {
        use crate::algo::brute::brute_force_point;
        let g = grid(5, 5);
        let p: Vec<u32> = vec![0, 6, 12, 18, 24];
        let q: Vec<u32> = vec![2, 10, 22];
        let query = FannQuery::new(&p, &q, 0.67, Aggregate::Sum);
        let ine = InePhi::new(&g, &q);
        let a = gd(&query, &ine).unwrap();
        // The reported distance equals the recomputed one for p_star, and
        // no other candidate beats it.
        assert_eq!(brute_force_point(&g, &query, a.p_star), Some(a.dist));
        for &c in &p {
            assert!(brute_force_point(&g, &query, c).unwrap() >= a.dist);
        }
    }

    #[test]
    fn none_when_disconnected() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let p = [0u32];
        let q = [2u32, 3];
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Max);
        let ine = InePhi::new(&g, &q);
        assert!(gd(&query, &ine).is_none());
    }
}
