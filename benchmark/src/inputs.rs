//! Seeded workload inputs. The graph is the dataset (always graph seed
//! 7, the one the servers are launched with); the workload seed drives
//! only the P sets, the query points, φ, the aggregate, the repetition
//! pattern and the updated edges. The program under test sees nothing
//! but the request lines made here.
//!
//! Query shape follows the paper's §VI-A scaled to the graph: density
//! `d = 0.01` drawn as 8 fixed P sets (POI categories: P is shared by
//! many queries in practice, and the wire re-sends it every time), `M`
//! cycling {16, 64, 128}, `φ` cycling {0.25, 0.5, 0.75, 1.0}, aggregate
//! alternating max/sum.

use crate::wire::{self, Agg};
use roadnet::Graph;
use workload::points::{clustered_query_points, uniform_data_points, QueryRegion};

/// The dataset seed every `fannr` child is launched with.
pub const GRAPH_SEED: u64 = 7;
pub const P_DENSITY: f64 = 0.01;
pub const P_SETS: usize = 8;
pub const M_CYCLE: [usize; 3] = [16, 64, 128];
pub const PHI_CYCLE: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// Spellings (member orders) kept per hot query.
pub const SPELLINGS: usize = 8;
/// Edges doubled, and edges restored, by one update batch.
pub const UPDATE_GROUP: usize = 4;
const UPDATE_GROUPS: usize = 64;
/// Queries drawn from one coverage region of the uniform generator: the
/// region costs two full Dijkstras, a draw from it costs a shuffle.
const QUERIES_PER_REGION: usize = 16;

/// SplitMix64: the benchmark's own generator, so its choices do not move
/// when the repository's `rand` stand-in does.
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Move `k` uniformly chosen elements to the front of `v`.
    pub fn choose_front<T>(&mut self, v: &mut [T], k: usize) {
        for i in 0..k.min(v.len()) {
            let j = i + self.below(v.len() - i);
            v.swap(i, j);
        }
    }
}

/// How `Q` is placed (paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QShape {
    /// `M` nodes sampled from a region covering `coverage` of the radius.
    Uniform { coverage: f64 },
    /// `clusters` centres in such a region, `M / clusters` nodes grown
    /// around each.
    Clustered { coverage: f64, clusters: usize },
}

/// How requests repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repeat {
    /// Every distinct query in turn, then again.
    Cycle,
    /// Zipf-like picks from the distinct queries, each request a fresh
    /// spelling (member order) of the same sets.
    Zipf,
}

/// Which `(M, φ)` the queries take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `M` cycles [`M_CYCLE`], `φ` cycles [`PHI_CYCLE`]: every
    /// combination equally often.
    Cycled,
    /// Every query the same size. Where a workload's tail is set by one
    /// slow mode (queries answered on stale labels), a mix of sizes makes
    /// that mode so wide that the p99 wanders through it from run to run.
    Fixed { m: usize, phi: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub nodes: usize,
    pub distinct: usize,
    pub q_shape: QShape,
    pub mix: Mix,
    pub repeat: Repeat,
}

pub struct Query {
    pub p_set: usize,
    pub q: Vec<u32>,
    pub phi: f64,
    pub agg: Agg,
}

/// One encoded request, ready but for its id.
pub struct Request {
    pub query: usize,
    pub prefix: String,
}

pub struct Inputs {
    pub graph: Graph,
    pub p_sets: Vec<Vec<u32>>,
    pub queries: Vec<Query>,
    pub requests: Vec<Request>,
    /// Indexes into `requests`; connection `c` of `C` sends positions
    /// `c, c + C, c + 2C, …`, wrapping around.
    pub schedule: Vec<u32>,
    /// Disjoint groups of `(u, v, seed weight)` edges for update batches.
    pub update_groups: Vec<Vec<(u32, u32, u32)>>,
}

pub fn dataset(nodes: usize) -> Graph {
    workload::synth::road_network(nodes, &mut workload::rng(GRAPH_SEED))
}

pub fn generate(spec: &InputSpec, seed: u64) -> Inputs {
    let graph = dataset(spec.nodes);
    // Independent streams, so one generator's draw count never shifts
    // another's choices.
    let mut p_rng = workload::rng(seed ^ 0x50_5345_5453);
    let mut q_rng = workload::rng(seed ^ 0x51_5345_5453);
    let mut own = Rng64::new(seed ^ 0x4f_574e);

    let p_sets: Vec<Vec<u32>> = (0..P_SETS)
        .map(|_| uniform_data_points(&graph, P_DENSITY, &mut p_rng))
        .collect();

    // (M, φ, g) cycle over a shuffled shape index, so that no connection,
    // P set or region sees only one shape.
    let mut shapes: Vec<usize> = (0..spec.distinct).collect();
    own.choose_front(&mut shapes, spec.distinct);
    let mut queries = Vec::with_capacity(spec.distinct);
    let mut region: Option<QueryRegion> = None;
    for (i, &shape) in shapes.iter().enumerate() {
        let (m, phi) = match spec.mix {
            Mix::Cycled => (
                M_CYCLE[shape % M_CYCLE.len()],
                PHI_CYCLE[(shape / M_CYCLE.len()) % PHI_CYCLE.len()],
            ),
            Mix::Fixed { m, phi } => (m, phi),
        };
        let q = match spec.q_shape {
            QShape::Uniform { coverage } => {
                if i % QUERIES_PER_REGION == 0 {
                    region = Some(QueryRegion::new(&graph, coverage, &mut q_rng));
                }
                let region = region.as_ref().expect("set on the first query");
                let mut pool: Vec<u32> = region.candidates(m).iter().map(|&(v, _)| v).collect();
                own.choose_front(&mut pool, m);
                pool.truncate(m);
                pool
            }
            QShape::Clustered { coverage, clusters } => {
                clustered_query_points(&graph, m, coverage, clusters, &mut q_rng)
            }
        };
        queries.push(Query {
            p_set: i % P_SETS,
            q,
            phi,
            agg: if (shape / (M_CYCLE.len() * PHI_CYCLE.len())).is_multiple_of(2) {
                Agg::Max
            } else {
                Agg::Sum
            },
        });
    }

    let encode = |query: &Query, q: &[u32]| {
        wire::query_prefix(&p_sets[query.p_set], q, query.phi, query.agg)
    };
    let (requests, schedule) = match spec.repeat {
        Repeat::Cycle => {
            let requests: Vec<Request> = queries
                .iter()
                .enumerate()
                .map(|(i, query)| Request {
                    query: i,
                    prefix: encode(query, &query.q),
                })
                .collect();
            let schedule = (0..requests.len() as u32).collect();
            (requests, schedule)
        }
        Repeat::Zipf => {
            let mut requests = Vec::with_capacity(queries.len() * SPELLINGS);
            for (i, query) in queries.iter().enumerate() {
                for s in 0..SPELLINGS {
                    let mut q = query.q.clone();
                    let by = s * q.len() / SPELLINGS;
                    q.rotate_left(by);
                    requests.push(Request {
                        query: i,
                        prefix: encode(query, &q),
                    });
                }
            }
            // Rank r is picked with weight 1 / (r + 1).
            let weights: Vec<f64> = (0..queries.len()).map(|r| 1.0 / (r + 1) as f64).collect();
            let total: f64 = weights.iter().sum();
            let schedule = (0..8192)
                .map(|pos| {
                    let mut x = own.unit() * total;
                    let mut rank = 0;
                    while rank + 1 < weights.len() && x >= weights[rank] {
                        x -= weights[rank];
                        rank += 1;
                    }
                    (rank * SPELLINGS + pos % SPELLINGS) as u32
                })
                .collect();
            (requests, schedule)
        }
    };

    let mut edges: Vec<(u32, u32, u32)> = graph.edges().collect();
    let wanted = (UPDATE_GROUPS * UPDATE_GROUP).min(edges.len());
    own.choose_front(&mut edges, wanted);
    let update_groups = edges[..wanted]
        .chunks_exact(UPDATE_GROUP)
        .map(<[_]>::to_vec)
        .collect();

    Inputs {
        graph,
        p_sets,
        queries,
        requests,
        schedule,
        update_groups,
    }
}

impl Inputs {
    /// Update batch `k`: double group `k`, restore group `k - 1` (the
    /// first batch only doubles). Every later batch therefore carries
    /// both increases and decreases, so every staleness cycle after the
    /// first is of one kind.
    pub fn update_batch(&self, k: usize) -> Vec<(u32, u32, u32)> {
        let groups = &self.update_groups;
        let mut batch: Vec<(u32, u32, u32)> = groups[k % groups.len()]
            .iter()
            .map(|&(u, v, w)| (u, v, w * 2))
            .collect();
        if k > 0 {
            batch.extend_from_slice(&groups[(k - 1) % groups.len()]);
        }
        batch
    }

    /// The batch that undoes what is left after batch `k` was the last.
    pub fn restore_batch(&self, k: usize) -> Vec<(u32, u32, u32)> {
        self.update_groups[k % self.update_groups.len()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(repeat: Repeat) -> InputSpec {
        InputSpec {
            nodes: 600,
            distinct: 24,
            q_shape: QShape::Uniform { coverage: 0.3 },
            mix: Mix::Cycled,
            repeat,
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(&spec(Repeat::Cycle), 1);
        let b = generate(&spec(Repeat::Cycle), 1);
        let c = generate(&spec(Repeat::Cycle), 2);
        let lines = |x: &Inputs| {
            x.requests
                .iter()
                .map(|r| r.prefix.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert_eq!(a.update_groups, b.update_groups);
    }

    #[test]
    fn queries_have_the_stated_shape() {
        let x = generate(&spec(Repeat::Cycle), 3);
        assert_eq!(x.p_sets.len(), P_SETS);
        assert_eq!(
            x.p_sets[0].len(),
            (x.graph.num_nodes() as f64 * P_DENSITY).round() as usize
        );
        for m in M_CYCLE {
            assert_eq!(x.queries.iter().filter(|q| q.q.len() == m).count(), 8);
        }
        for q in &x.queries {
            let mut d = q.q.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), q.q.len(), "Q has duplicates");
        }
        assert_eq!(x.queries.iter().filter(|q| q.agg == Agg::Max).count(), 12);
    }

    #[test]
    fn zipf_respells_and_repeats() {
        let x = generate(&spec(Repeat::Zipf), 4);
        assert_eq!(x.requests.len(), 24 * SPELLINGS);
        // Spellings of one query differ as text but name the same set.
        assert_ne!(x.requests[0].prefix, x.requests[1].prefix);
        assert_eq!(x.requests[0].query, x.requests[1].query);
        let top = x
            .schedule
            .iter()
            .filter(|&&r| x.requests[r as usize].query == 0)
            .count();
        let last = x
            .schedule
            .iter()
            .filter(|&&r| x.requests[r as usize].query == 23)
            .count();
        assert!(top > 4 * last, "rank 0 picked {top}, rank 23 picked {last}");
    }

    #[test]
    fn update_batches_double_then_restore() {
        let x = generate(&spec(Repeat::Cycle), 5);
        let first = x.update_batch(0);
        assert_eq!(first.len(), UPDATE_GROUP);
        let second = x.update_batch(1);
        assert_eq!(second.len(), 2 * UPDATE_GROUP);
        for (&(u, v, w2), &(su, sv, sw)) in first.iter().zip(&x.update_groups[0]) {
            assert_eq!((u, v, w2), (su, sv, 2 * sw));
            assert_eq!(x.graph.edge_weight(u, v), Some(sw));
        }
        assert_eq!(&second[UPDATE_GROUP..], &x.update_groups[0][..]);
        assert_eq!(x.restore_batch(1), x.update_groups[1]);
    }
}
