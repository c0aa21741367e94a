//! `APX-sum` (Algorithm 3, §IV-B): constant-factor approximate sum-FANN_R.
//!
//! Candidates are the network nearest neighbors in `P` of each query point
//! (at most `|Q|` of them, found by incremental expansion — index-free);
//! the exact FANN_R routine then runs over that tiny candidate set.
//! Theorem 1 guarantees `d_alpha <= 3 d*`; Theorem 2 tightens it to
//! `2 d*` when `Q ⊆ P`. Both bounds are enforced by property tests; in
//! practice the ratio stays below 1.2 (Fig. 11).

use crate::algo::gd::gd;
use crate::gphi::GPhi;
use crate::metrics::Recorder;
use crate::{Aggregate, FannAnswer, FannQuery};
use roadnet::multisource::membership;
use roadnet::{DijkstraIter, Graph, NodeId, QueryScratch};

/// Nearest member of `P` (given as a mask) to `q`, by network expansion
/// over the recycled `scratch`.
fn nearest_data_point<R: Recorder>(
    g: &Graph,
    is_data: &[bool],
    q: NodeId,
    scratch: &mut QueryScratch,
    rec: R,
) -> Option<NodeId> {
    let mut it = DijkstraIter::recorded(g, q, std::mem::take(scratch), rec);
    let nearest = it.find(|&(v, _)| is_data[v as usize]).map(|(v, _)| v);
    *scratch = it.into_scratch();
    nearest
}

/// The candidate set of Algorithm 3 (deduplicated, sorted). The `|Q|`
/// searches run one after another, so they share one scratch.
fn candidates<R: Recorder>(g: &Graph, query: &FannQuery, rec: R) -> Vec<NodeId> {
    let is_data = membership(g.num_nodes(), query.p);
    let mut scratch = QueryScratch::new();
    let mut cand: Vec<NodeId> = query
        .q
        .iter()
        .filter_map(|&q| nearest_data_point(g, &is_data, q, &mut scratch, rec))
        .collect();
    cand.sort_unstable();
    cand.dedup();
    cand
}

/// Approximate sum-FANN_R with a guaranteed factor-3 bound (factor 2 when
/// `Q ⊆ P`). Returns `None` when no candidate reaches `ceil(phi |Q|)`
/// query points.
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Sum`] — the proof of
/// Theorem 1 is specific to `sum`.
pub fn apx_sum(g: &Graph, query: &FannQuery, gphi: &dyn GPhi) -> Option<FannAnswer> {
    apx_sum_traced(g, query, gphi, ())
}

/// [`apx_sum`] with a live [`Recorder`]: the candidate-finding expansions
/// report their work, and data points excluded from the candidate set are
/// reported as pruned. Pass a backend built `with_recorder` to also count
/// the `g_phi` side. The `()` recorder makes this identical to the
/// untraced path.
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Sum`].
pub fn apx_sum_traced<R: Recorder>(
    g: &Graph,
    query: &FannQuery,
    gphi: &dyn GPhi,
    rec: R,
) -> Option<FannAnswer> {
    assert_eq!(
        query.agg,
        Aggregate::Sum,
        "APX-sum answers sum-FANN_R only (Theorem 1)"
    );
    let cand = candidates(g, query, rec);
    // Candidate reduction is the whole point of Algorithm 3: everything
    // outside the candidate set is pruned (duplicate-free P).
    rec.pruned(query.p.len().saturating_sub(cand.len()) as u64);
    if cand.is_empty() {
        return None;
    }
    let reduced = FannQuery {
        p: &cand,
        q: query.q,
        phi: query.phi,
        agg: Aggregate::Sum,
    };
    gd(&reduced, gphi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute::brute_force;
    use crate::gphi::ine::InePhi;
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
                    b.add_edge(v, v + 1, 1 + (x * 5 + y) % 7);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x + y * 4) % 6);
                }
            }
        }
        b.build()
    }

    #[test]
    fn ratio_within_three() {
        let g = grid(8, 8);
        let p: Vec<u32> = (0..64).step_by(3).collect();
        let q: Vec<u32> = vec![1, 14, 29, 44, 62];
        for phi in [0.2, 0.4, 0.8, 1.0] {
            let query = FannQuery::new(&p, &q, phi, Aggregate::Sum);
            let ine = InePhi::new(&g, &q);
            let approx = apx_sum(&g, &query, &ine).unwrap();
            let exact = brute_force(&g, &query).unwrap();
            assert!(
                approx.dist <= 3 * exact.dist,
                "ratio violated: {} vs {}",
                approx.dist,
                exact.dist
            );
            assert!(approx.dist >= exact.dist, "approx beat the optimum?!");
        }
    }

    #[test]
    fn ratio_within_two_when_q_subset_of_p() {
        let g = grid(8, 8);
        let p: Vec<u32> = (0..64).collect();
        let q: Vec<u32> = vec![3, 18, 33, 48, 60];
        for phi in [0.2, 0.6, 1.0] {
            let query = FannQuery::new(&p, &q, phi, Aggregate::Sum);
            let ine = InePhi::new(&g, &q);
            let approx = apx_sum(&g, &query, &ine).unwrap();
            let exact = brute_force(&g, &query).unwrap();
            assert!(
                approx.dist <= 2 * exact.dist,
                "Theorem 2 violated: {} vs {}",
                approx.dist,
                exact.dist
            );
        }
    }

    #[test]
    fn figure1_example_is_exact() {
        // §IV-B running example: candidates are {p3, p4, p5} and the true
        // optimum p3 is among them, so APX-sum returns the exact answer.
        let (g, p, q) = crate::algo::brute::tests::figure1();
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Sum);
        let cand = candidates(&g, &query, ());
        assert_eq!(cand, vec![2, 3, 4]); // p3, p4, p5
        let ine = InePhi::new(&g, &q);
        let a = apx_sum(&g, &query, &ine).unwrap();
        assert_eq!((a.p_star, a.dist), (2, 4));
    }

    #[test]
    fn candidates_bounded_by_q() {
        let g = grid(6, 6);
        let p: Vec<u32> = (0..36).step_by(2).collect();
        let q: Vec<u32> = vec![0, 1, 2, 3]; // clustered: NNs likely shared
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Sum);
        let cand = candidates(&g, &query, ());
        assert!(!cand.is_empty());
        assert!(cand.len() <= q.len());
        for c in &cand {
            assert!(p.contains(c));
        }
    }

    #[test]
    #[should_panic(expected = "sum-FANN_R only")]
    fn rejects_max() {
        let g = grid(3, 3);
        let p = [0u32];
        let q = [8u32];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Max);
        let ine = InePhi::new(&g, &q);
        let _ = apx_sum(&g, &query, &ine);
    }

    #[test]
    fn none_when_p_unreachable() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let p = [0u32, 1];
        let q = [2u32, 3];
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Sum);
        let ine = InePhi::new(&g, &q);
        assert!(apx_sum(&g, &query, &ine).is_none());
    }
}
