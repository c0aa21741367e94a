//! Property test: the admissibility scale a [`Graph`] carries from
//! construction is the one a full edge scan gives.
//!
//! `LowerBound::for_graph` reads a scale computed once when the graph value
//! was built, weight-patched or loaded. Every such graph must report, bit
//! for bit, the scale recomputed here from `g.edges()`: the minimum of
//! `w / euclid` over edges of positive length, nudged down by `1 − 1e-12`,
//! or `0` when no edge has positive length.

use proptest::prelude::*;
use roadnet::{Graph, GraphBuilder, LowerBound, NodeId, Weight};

/// The scale by the definition, from a full pass over the edges.
fn reference_scale(g: &Graph) -> f64 {
    let mut scale = f64::INFINITY;
    for (u, v, w) in g.edges() {
        let e = g.euclid(u, v);
        if e > 0.0 {
            scale = scale.min(w as f64 / e);
        }
    }
    if scale.is_finite() {
        scale * (1.0 - 1e-12)
    } else {
        0.0
    }
}

fn assert_scale_matches(g: &Graph) {
    let got = LowerBound::for_graph(g).scale();
    let want = reference_scale(g);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "cached {got} vs scanned {want}"
    );
}

/// A random graph on `n` nodes with `m` random edges. Coordinates come
/// from a small grid, so some nodes coincide and some edges have zero
/// Euclidean length (they must not constrain the scale).
fn graph(n: usize, m: usize, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node((next() % 6) as f64 * 1.5, (next() % 6) as f64 * 0.7);
    }
    for _ in 0..m {
        let u = (next() % n as u64) as NodeId;
        let v = (next() % n as u64) as NodeId;
        b.add_edge(u, v, (next() % 30) as Weight);
    }
    b.build()
}

/// The ratio `w / euclid` of every edge of positive length.
fn ratios(g: &Graph) -> Vec<(NodeId, NodeId, Weight, f64)> {
    g.edges()
        .filter_map(|(u, v, w)| {
            let e = g.euclid(u, v);
            (e > 0.0).then(|| (u, v, w, w as f64 / e))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_scale_matches_an_edge_scan(
        n in 2usize..40,
        m in 0usize..80,
        seed in any::<u64>(),
    ) {
        let g = graph(n, m, seed);
        assert_scale_matches(&g);

        // Round trips through the flat container, in memory and on disk.
        let h = Graph::from_flat_bytes(&g.to_flat_bytes()).unwrap();
        assert_scale_matches(&h);
        let path = std::env::temp_dir()
            .join(format!("fannr-lb-scale-{}-{seed:x}", std::process::id()));
        g.write_flat(&path).unwrap();
        let loaded = Graph::read_flat(&path);
        std::fs::remove_file(&path).ok();
        let loaded = loaded.unwrap();
        assert_scale_matches(&loaded);
        assert_eq!(
            LowerBound::for_graph(&loaded).scale().to_bits(),
            LowerBound::for_graph(&g).scale().to_bits()
        );

        let rs = ratios(&g);
        prop_assume!(!rs.is_empty());
        let min = rs.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);

        // Raising every arg-min edge must raise the scale.
        let raise: Vec<_> = rs
            .iter()
            .filter(|r| r.3 == min)
            .map(|&(u, v, w, _)| (u, v, 4 * w + 1))
            .collect();
        let raised = g.with_patched_weights(&raise).unwrap();
        assert_scale_matches(&raised);
        prop_assert!(
            LowerBound::for_graph(&raised).scale() > LowerBound::for_graph(&g).scale()
        );

        // Raising an edge that is not an arg-min edge leaves it unchanged.
        if let Some(&(u, v, w, _)) = rs.iter().find(|r| r.3 > min) {
            let other = g.with_patched_weights(&[(v, u, 2 * w)]).unwrap();
            assert_scale_matches(&other);
            prop_assert_eq!(
                LowerBound::for_graph(&other).scale().to_bits(),
                LowerBound::for_graph(&g).scale().to_bits()
            );
        }

        // Lowering an edge to the weight floor can only keep or lower it.
        let (u, v, _, _) = rs[(seed % rs.len() as u64) as usize];
        let lowered = g.with_patched_weights(&[(u, v, 1)]).unwrap();
        assert_scale_matches(&lowered);
        prop_assert!(
            LowerBound::for_graph(&lowered).scale() <= LowerBound::for_graph(&g).scale()
        );

        // Both patches at once, applied to a patched sibling.
        let both = raised.with_patched_weights(&[(u, v, 1)]).unwrap();
        assert_scale_matches(&both);
    }
}
