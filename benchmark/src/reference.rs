//! The naive reference the benchmark verifies answers against: one
//! binary-heap Dijkstra from every `q ∈ Q` over `Graph::neighbors`, then
//! for each `p` the `⌈φ|Q|⌉` smallest distances aggregated. It shares no
//! code with `fann-core::algo` and is kept as plain as possible.

use crate::wire::Agg;
use roadnet::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const UNREACHED: u64 = u64::MAX;

/// Distance from `source` to every node.
fn dijkstra(g: &Graph, source: u32) -> Vec<u64> {
    let mut dist = vec![UNREACHED; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (to, w) in g.neighbors(v) {
            let nd = d + u64::from(w);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                heap.push(Reverse((nd, to)));
            }
        }
    }
    dist
}

/// `⌈φ·m⌉` as the smallest `k ≥ 1` with `k / m ≥ φ`.
pub fn subset_size(phi: f64, m: usize) -> usize {
    (1..=m).find(|&k| k as f64 / m as f64 >= phi).unwrap_or(m)
}

/// The flexible aggregate distance of every `p ∈ P` (`None`: `p` reaches
/// fewer than `⌈φ|Q|⌉` members of `Q`), in the order of `p`.
pub fn flexible_aggregates(
    g: &Graph,
    p: &[u32],
    q: &[u32],
    phi: f64,
    agg: Agg,
) -> Vec<Option<u64>> {
    let mut members: Vec<u32> = q.to_vec();
    members.sort_unstable();
    members.dedup();
    let k = subset_size(phi, members.len());
    let from_q: Vec<Vec<u64>> = members.iter().map(|&s| dijkstra(g, s)).collect();
    p.iter()
        .map(|&cand| {
            let mut d: Vec<u64> = from_q
                .iter()
                .map(|row| row[cand as usize])
                .filter(|&x| x != UNREACHED)
                .collect();
            if d.len() < k {
                return None;
            }
            d.sort_unstable();
            Some(match agg {
                Agg::Max => d[k - 1],
                Agg::Sum => d[..k].iter().sum(),
            })
        })
        .collect()
}

/// What is wrong with an answer, if anything: `dist` must equal the
/// optimum and `p_star` must be a member of `P` that attains it.
pub fn check_answer(
    g: &Graph,
    p: &[u32],
    q: &[u32],
    phi: f64,
    agg: Agg,
    answer: Option<(u64, u32)>,
) -> Result<(), String> {
    let values = flexible_aggregates(g, p, q, phi, agg);
    let best = values.iter().flatten().min().copied();
    match (answer, best) {
        (None, None) => Ok(()),
        (None, Some(b)) => Err(format!("server said empty, reference optimum is {b}")),
        (Some((dist, _)), None) => Err(format!("server said {dist}, reference has no answer")),
        (Some((dist, p_star)), Some(b)) => {
            if dist != b {
                return Err(format!("dist {dist} != reference optimum {b}"));
            }
            match p.iter().position(|&c| c == p_star) {
                None => Err(format!("p_star {p_star} is not in P")),
                Some(i) if values[i] != Some(b) => Err(format!(
                    "p_star {p_star} has aggregate {:?}, not the optimum {b}",
                    values[i]
                )),
                Some(_) => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    /// The paper's Figure 1: p1..p9 are ids 0..8, q1 = 9, q2 = 10,
    /// q3 = p4 (3), q4 = p5 (4).
    fn figure1() -> (Graph, Vec<u32>, Vec<u32>) {
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            b.add_node(i as f64, 0.0);
        }
        b.add_node(2.5, 0.0);
        b.add_node(3.5, 0.0);
        for (u, v, w) in [
            (1, 9, 10),
            (9, 2, 2),
            (2, 10, 2),
            (10, 5, 9),
            (1, 3, 12),
            (1, 4, 16),
            (0, 1, 30),
            (5, 6, 25),
            (6, 7, 25),
            (7, 8, 25),
        ] {
            b.add_edge(u, v, w);
        }
        (b.build(), (0..9).collect(), vec![9, 10, 3, 4])
    }

    #[test]
    fn figure1_optima() {
        let (g, p, q) = figure1();
        // ANN (phi = 1): p2 with max 16 and sum 52. FANN (phi = 0.5): p3
        // with max 2 and sum 4.
        for (phi, agg, p_star, dist) in [
            (1.0, Agg::Max, 1u32, 16u64),
            (1.0, Agg::Sum, 1, 52),
            (0.5, Agg::Max, 2, 2),
            (0.5, Agg::Sum, 2, 4),
        ] {
            assert_eq!(
                check_answer(&g, &p, &q, phi, agg, Some((dist, p_star))),
                Ok(())
            );
            assert!(check_answer(&g, &p, &q, phi, agg, Some((dist + 1, p_star))).is_err());
            assert!(check_answer(&g, &p, &q, phi, agg, Some((dist, 8))).is_err());
            assert!(check_answer(&g, &p, &q, phi, agg, None).is_err());
        }
    }

    #[test]
    fn duplicate_query_points_count_once() {
        let (g, p, _) = figure1();
        let a = flexible_aggregates(&g, &p, &[9, 10, 9, 10], 1.0, Agg::Sum);
        let b = flexible_aggregates(&g, &p, &[10, 9], 1.0, Agg::Sum);
        assert_eq!(a, b);
    }

    #[test]
    fn subset_size_is_the_ceiling() {
        assert_eq!(subset_size(0.25, 16), 4);
        assert_eq!(subset_size(0.5, 3), 2);
        assert_eq!(subset_size(1.0, 128), 128);
        assert_eq!(subset_size(0.3, 10), 3);
        assert_eq!(subset_size(0.001, 4), 1);
    }
}
