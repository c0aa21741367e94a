//! Query observability: machine-independent work counters and latency
//! histograms.
//!
//! The paper's §VI compares methods by *how much work* they do, not just by
//! wall clock; related road-network kNN work (COL-Trees, "Simpler is More")
//! reports node/matrix accesses for the same reason. This module provides:
//!
//! * [`SearchStats`] — a plain counter snapshot (nodes settled, heap
//!   pushes/pops, edges relaxed, `g_phi` evaluations, distance-oracle
//!   calls, label lookups, R-tree node accesses, candidates pruned).
//! * [`StatsSink`] — the live recording handle. `&StatsSink` implements
//!   [`roadnet::SearchRecorder`] and [`Recorder`], so one sink per query
//!   can be threaded by value through every layer of a search.
//! * [`Recorder`] — extends the roadnet hook set with the query-layer
//!   events (`g_phi` evals, oracle calls, pruning). The unit recorder `()`
//!   is a no-op for every hook, so untraced paths monomorphize to exactly
//!   the uninstrumented code.
//! * [`LatencyHistogram`] — fixed log2-bucket latency histogram with
//!   approximate p50/p90/p99, mergeable across serving workers.

use roadnet::SearchRecorder;
use std::cell::Cell;
use std::fmt;

/// Query-layer instrumentation hooks, on top of the search-layer hooks of
/// [`SearchRecorder`]. Every method defaults to an empty inlined body; the
/// unit type `()` implements both traits as a full no-op.
pub trait Recorder: SearchRecorder {
    /// One `g_phi(p, Q)` evaluation was performed.
    #[inline(always)]
    fn gphi_eval(self) {}

    /// One point-to-point distance-oracle call was made.
    #[inline(always)]
    fn oracle_call(self) {}

    /// One hub-label (PHL) lookup was made.
    #[inline(always)]
    fn label_lookup(self) {}

    /// `n` R-tree nodes were accessed during best-first traversal.
    #[inline(always)]
    fn rtree_nodes(self, _n: u64) {}

    /// `n` candidate data points were pruned without a `g_phi` evaluation
    /// (Lemma-1 Euclidean bound, R-List threshold, APX-sum candidate set).
    #[inline(always)]
    fn pruned(self, _n: u64) {}
}

/// The no-op recorder: compiles to nothing.
impl Recorder for () {}

/// A snapshot of per-query (or per-batch) search work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled across all graph expansions (Dijkstra/A*/INE).
    pub nodes_settled: u64,
    /// Priority-queue pushes across all graph expansions.
    pub heap_pushes: u64,
    /// Priority-queue pops (settled or stale) across all graph expansions.
    pub heap_pops: u64,
    /// Outgoing edges examined during relaxation.
    pub edges_relaxed: u64,
    /// `g_phi(p, Q)` evaluations.
    pub gphi_evals: u64,
    /// Point-to-point distance-oracle calls.
    pub oracle_calls: u64,
    /// Hub-label (PHL) lookups.
    pub label_lookups: u64,
    /// R-tree nodes accessed during best-first traversal.
    pub rtree_nodes: u64,
    /// Candidates pruned without a `g_phi` evaluation.
    pub candidates_pruned: u64,
}

impl SearchStats {
    /// Accumulate another snapshot into this one (saturating).
    pub fn add(&mut self, other: &SearchStats) {
        self.nodes_settled = self.nodes_settled.saturating_add(other.nodes_settled);
        self.heap_pushes = self.heap_pushes.saturating_add(other.heap_pushes);
        self.heap_pops = self.heap_pops.saturating_add(other.heap_pops);
        self.edges_relaxed = self.edges_relaxed.saturating_add(other.edges_relaxed);
        self.gphi_evals = self.gphi_evals.saturating_add(other.gphi_evals);
        self.oracle_calls = self.oracle_calls.saturating_add(other.oracle_calls);
        self.label_lookups = self.label_lookups.saturating_add(other.label_lookups);
        self.rtree_nodes = self.rtree_nodes.saturating_add(other.rtree_nodes);
        self.candidates_pruned = self
            .candidates_pruned
            .saturating_add(other.candidates_pruned);
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == SearchStats::default()
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "settled {} | pushes {} | pops {} | edges {} | g_phi {} | oracle {} | labels {} | rtree {} | pruned {}",
            self.nodes_settled,
            self.heap_pushes,
            self.heap_pops,
            self.edges_relaxed,
            self.gphi_evals,
            self.oracle_calls,
            self.label_lookups,
            self.rtree_nodes,
            self.candidates_pruned,
        )
    }
}

/// A live counter sink for one worker/query. Record through `&StatsSink`
/// (which is `Copy` and implements [`SearchRecorder`] + [`Recorder`]);
/// read the totals out with [`StatsSink::snapshot`].
///
/// Uses `Cell` fields rather than atomics: a sink is owned by one worker,
/// and the whole point of the design is that tracing costs a handful of
/// register bumps, not synchronized memory traffic.
#[derive(Debug, Default)]
pub struct StatsSink {
    nodes_settled: Cell<u64>,
    heap_pushes: Cell<u64>,
    heap_pops: Cell<u64>,
    edges_relaxed: Cell<u64>,
    gphi_evals: Cell<u64>,
    oracle_calls: Cell<u64>,
    label_lookups: Cell<u64>,
    rtree_nodes: Cell<u64>,
    candidates_pruned: Cell<u64>,
}

impl StatsSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counter totals.
    pub fn snapshot(&self) -> SearchStats {
        SearchStats {
            nodes_settled: self.nodes_settled.get(),
            heap_pushes: self.heap_pushes.get(),
            heap_pops: self.heap_pops.get(),
            edges_relaxed: self.edges_relaxed.get(),
            gphi_evals: self.gphi_evals.get(),
            oracle_calls: self.oracle_calls.get(),
            label_lookups: self.label_lookups.get(),
            rtree_nodes: self.rtree_nodes.get(),
            candidates_pruned: self.candidates_pruned.get(),
        }
    }

    /// Zero all counters (e.g. between queries when reusing one sink).
    pub fn reset(&self) {
        self.nodes_settled.set(0);
        self.heap_pushes.set(0);
        self.heap_pops.set(0);
        self.edges_relaxed.set(0);
        self.gphi_evals.set(0);
        self.oracle_calls.set(0);
        self.label_lookups.set(0);
        self.rtree_nodes.set(0);
        self.candidates_pruned.set(0);
    }
}

#[inline(always)]
fn bump(c: &Cell<u64>) {
    c.set(c.get().wrapping_add(1));
}

impl SearchRecorder for &StatsSink {
    #[inline]
    fn node_settled(self) {
        bump(&self.nodes_settled);
    }
    #[inline]
    fn heap_push(self) {
        bump(&self.heap_pushes);
    }
    #[inline]
    fn heap_pop(self) {
        bump(&self.heap_pops);
    }
    #[inline]
    fn edge_relaxed(self) {
        bump(&self.edges_relaxed);
    }
}

impl Recorder for &StatsSink {
    #[inline]
    fn gphi_eval(self) {
        bump(&self.gphi_evals);
    }
    #[inline]
    fn oracle_call(self) {
        bump(&self.oracle_calls);
    }
    #[inline]
    fn label_lookup(self) {
        bump(&self.label_lookups);
    }
    #[inline]
    fn rtree_nodes(self, n: u64) {
        self.rtree_nodes.set(self.rtree_nodes.get().wrapping_add(n));
    }
    #[inline]
    fn pruned(self, n: u64) {
        self.candidates_pruned
            .set(self.candidates_pruned.get().wrapping_add(n));
    }
}

/// Number of log2 latency buckets: bucket `i` holds samples in
/// `[2^i, 2^{i+1})` nanoseconds, with the last bucket open-ended.
/// 40 buckets cover up to ~18 minutes per query.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket (log2 of nanoseconds) latency histogram.
///
/// Constant-size, allocation-free to record into, and mergeable across
/// batch workers; quantiles are approximate (bucket upper bound), which is
/// the right trade for "is p99 10x p50?" observability questions.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        // floor(log2(ns)) for ns >= 1; 0ns shares bucket 0 with 1ns.
        let b = 63 - ns.max(1).leading_zeros() as usize;
        b.min(LATENCY_BUCKETS - 1)
    }

    /// Record one sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Record one sample from a `std::time::Duration`.
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram into this one (for merging worker-local
    /// histograms after a batch).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.total).unwrap_or(0)
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate quantile in nanoseconds: the upper bound of the bucket
    /// containing the `q`-quantile sample (capped at the observed max).
    /// Returns 0 when empty; `q` is clamped to `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n {} | mean {:.1}us | p50 {:.1}us | p90 {:.1}us | p99 {:.1}us | max {:.1}us",
            self.total,
            self.mean_ns() as f64 / 1e3,
            self.p50_ns() as f64 / 1e3,
            self.p90_ns() as f64 / 1e3,
            self.p99_ns() as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_all_counters() {
        let sink = StatsSink::new();
        let r = &sink;
        r.node_settled();
        r.node_settled();
        r.heap_push();
        r.heap_pop();
        r.edge_relaxed();
        r.gphi_eval();
        r.oracle_call();
        r.label_lookup();
        r.rtree_nodes(3);
        r.pruned(5);
        let s = sink.snapshot();
        assert_eq!(s.nodes_settled, 2);
        assert_eq!(s.heap_pushes, 1);
        assert_eq!(s.heap_pops, 1);
        assert_eq!(s.edges_relaxed, 1);
        assert_eq!(s.gphi_evals, 1);
        assert_eq!(s.oracle_calls, 1);
        assert_eq!(s.label_lookups, 1);
        assert_eq!(s.rtree_nodes, 3);
        assert_eq!(s.candidates_pruned, 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn stats_add_accumulates() {
        let mut a = SearchStats {
            nodes_settled: 1,
            gphi_evals: 2,
            ..Default::default()
        };
        let b = SearchStats {
            nodes_settled: 10,
            candidates_pruned: 4,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.nodes_settled, 11);
        assert_eq!(a.gphi_evals, 2);
        assert_eq!(a.candidates_pruned, 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record_ns(1_000); // bucket [512, 1024)... log2(1000)=9
        }
        h.record_ns(1_000_000);
        h.record_ns(2_000_000);
        assert_eq!(h.count(), 100);
        // p50 falls in the 1000ns bucket: upper bound 1024.
        assert_eq!(h.p50_ns(), 1024);
        assert!(h.p99_ns() >= 1_000_000, "p99 = {}", h.p99_ns());
        assert_eq!(h.max_ns(), 2_000_000);
        assert!(h.mean_ns() > 1_000 && h.mean_ns() < 100_000);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..50u64 {
            a.record_ns(i * 100);
            both.record_ns(i * 100);
        }
        for i in 0..50u64 {
            b.record_ns(i * 10_000);
            both.record_ns(i * 10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.p50_ns(), both.p50_ns());
        assert_eq!(a.p99_ns(), both.p99_ns());
        assert_eq!(a.max_ns(), both.max_ns());
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn histogram_extreme_samples_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.p99_ns() > 0);
    }
}
