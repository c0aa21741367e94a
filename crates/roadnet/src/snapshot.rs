//! Epoch-versioned immutable network snapshots and a lock-free hot-swap
//! cell.
//!
//! The serving story for "road networks change frequently" (paper §IV):
//! readers never block and never observe a half-applied update. A
//! [`NetworkSnapshot`] is an immutable CSR graph plus an epoch and the
//! admissibility scale captured at creation; applying a batch of
//! [`WeightUpdate`]s produces a *new* snapshot copy-on-write (topology and
//! coordinates are structurally shared, only the weight array is copied)
//! with the epoch bumped. A [`SnapshotCell`] publishes snapshots to
//! concurrent readers with a single atomic pointer swap: readers pin the
//! current snapshot for a query's lifetime; writers publish a new epoch
//! without ever blocking the read path.
//!
//! Correctness contract: every update is validated against the snapshot's
//! admissibility scale (`w >= scale * euclid(u, v)`), so any
//! [`crate::LowerBound`] built with that scale stays admissible across
//! every epoch — A\*/IER answers on a patched graph remain exact.

use crate::dynamic::{check_admissible, UpdateError};
use crate::graph::{Graph, NodeId, Weight};
use crate::lowerbound::LowerBound;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One requested weight change: set the undirected edge `{u, v}` to `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightUpdate {
    pub u: NodeId,
    pub v: NodeId,
    pub w: Weight,
}

/// One validated, applied weight change, with the weight the edge carried
/// in the snapshot the batch was applied to. Index-repair logic uses
/// `w_old` to decide whether cached label distances can still be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedUpdate {
    pub u: NodeId,
    pub v: NodeId,
    pub w_old: Weight,
    pub w_new: Weight,
}

impl AppliedUpdate {
    /// Whether this change can only lengthen shortest paths.
    pub fn is_increase(&self) -> bool {
        self.w_new >= self.w_old
    }
}

/// The merged footprint of one or more applied update batches: the set of
/// touched edges (canonicalised across both orientations and repeat
/// updates), ready to be handed to the scoped label repair
/// (`HubLabels::repair_scoped`).
///
/// Merge semantics match index-staleness tracking: an edge keeps the
/// `w_old` of the *first* batch that touched it (the weight the indexes
/// were built against) and the `w_new` of the *latest*. An edge whose
/// weight round-trips back to its original value is deliberately kept —
/// scoped repair recomputes its neighbourhood, finds nothing changed, and
/// republishes fresh, which is cheaper than proving the round-trip safe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairScope {
    edges: Vec<AppliedUpdate>,
    increase_only: bool,
}

impl RepairScope {
    /// An empty scope (repairing it is a no-op).
    pub fn new() -> Self {
        RepairScope {
            edges: Vec::new(),
            increase_only: true,
        }
    }

    /// The scope of a single applied batch.
    pub fn from_applied(applied: &[AppliedUpdate]) -> Self {
        let mut s = Self::new();
        s.absorb(applied);
        s
    }

    /// Fold another applied batch into this scope (first `w_old` wins,
    /// latest `w_new` wins, either orientation matches).
    pub fn absorb(&mut self, applied: &[AppliedUpdate]) {
        for a in applied {
            match self
                .edges
                .iter_mut()
                .find(|e| (e.u, e.v) == (a.u, a.v) || (e.u, e.v) == (a.v, a.u))
            {
                Some(e) => e.w_new = a.w_new,
                None => self.edges.push(*a),
            }
        }
        self.increase_only = self.edges.iter().all(AppliedUpdate::is_increase);
    }

    /// No edges touched since the last repair.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of distinct touched edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// The merged per-edge old/new weights.
    pub fn edges(&self) -> &[AppliedUpdate] {
        &self.edges
    }

    /// Whether every merged change can only lengthen shortest paths
    /// (certified label distances then stay valid as upper bounds).
    pub fn increase_only(&self) -> bool {
        self.increase_only
    }

    /// The touched edges as `(u, v)` pairs, one per distinct edge.
    pub fn touched_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().map(|e| (e.u, e.v))
    }

    /// Every endpoint of a touched edge, sorted and deduplicated.
    pub fn endpoints(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.edges.iter().flat_map(|e| [e.u, e.v]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// An immutable, epoch-versioned road network: the unit of publication in
/// the serving stack. Cheap to clone (the graph is a shared handle).
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    graph: Graph,
    epoch: u64,
    /// Admissibility scale captured when the lineage started; invariant
    /// across epochs because [`NetworkSnapshot::apply`] validates against
    /// it, so lower bounds built once stay admissible forever.
    scale: f64,
    /// The validated updates that produced this epoch from its
    /// predecessor (delta encoding of the epoch). Empty for epoch 0 and
    /// for republications; shared so clones stay cheap.
    delta: Arc<[AppliedUpdate]>,
}

impl NetworkSnapshot {
    /// Epoch 0 of a fresh lineage; pins the graph's admissibility scale
    /// (an O(1) read of the value [`LowerBound::for_graph`] returns, which
    /// the graph computed when it was constructed) as the lineage's scale.
    pub fn new(graph: Graph) -> Self {
        let scale = LowerBound::for_graph(&graph).scale();
        NetworkSnapshot {
            graph,
            epoch: 0,
            scale,
            delta: Arc::from([]),
        }
    }

    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Publication counter: bumped by every [`NetworkSnapshot::apply`] and
    /// every republication ([`NetworkSnapshot::next_epoch`]).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lineage's admissibility scale (see [`LowerBound::with_scale`]).
    #[inline]
    pub fn admissibility_scale(&self) -> f64 {
        self.scale
    }

    /// An admissible lower bound valid for *every* epoch of this lineage.
    pub fn lower_bound(&self) -> LowerBound {
        LowerBound::with_scale(self.scale)
    }

    /// The validated updates that produced this epoch from its
    /// predecessor. Empty for epoch 0 and for `next_epoch`
    /// republications.
    #[inline]
    pub fn delta(&self) -> &[AppliedUpdate] {
        &self.delta
    }

    /// This epoch's delta as a ready-to-merge [`RepairScope`].
    pub fn repair_scope(&self) -> RepairScope {
        RepairScope::from_applied(&self.delta)
    }

    /// The same graph republished under the next epoch (used when
    /// swapping in repaired indexes: answers are unchanged, but readers
    /// can observe that a new snapshot was published).
    pub fn next_epoch(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            graph: self.graph.clone(),
            epoch: self.epoch + 1,
            scale: self.scale,
            delta: Arc::from([]),
        }
    }

    /// Copy-on-write batch update: validates every change (edge exists, no
    /// self-loops, weight at or above the admissible floor), then produces
    /// the next-epoch snapshot sharing this one's topology and coordinates.
    /// Nothing is published on error; later updates to the same edge win.
    ///
    /// Returns the new snapshot plus the per-edge old/new weights (for
    /// index staleness tracking). Weights are clamped to `>= 1` like every
    /// other construction path.
    pub fn apply(
        &self,
        updates: &[WeightUpdate],
    ) -> Result<(NetworkSnapshot, Vec<AppliedUpdate>), UpdateError> {
        let g = &self.graph;
        let n = g.num_nodes();
        let mut applied = Vec::with_capacity(updates.len());
        let mut patches = Vec::with_capacity(updates.len());
        for &WeightUpdate { u, v, w } in updates {
            if (u as usize) >= n {
                return Err(UpdateError::NoSuchNode(u));
            }
            if (v as usize) >= n {
                return Err(UpdateError::NoSuchNode(v));
            }
            if u == v {
                return Err(UpdateError::SelfLoop(u));
            }
            let w_old = g.edge_weight(u, v).ok_or(UpdateError::NoSuchEdge(u, v))?;
            let w = w.max(1);
            check_admissible(self.scale, g.euclid(u, v), u, v, w)?;
            applied.push(AppliedUpdate {
                u,
                v,
                w_old,
                w_new: w,
            });
            patches.push((u, v, w));
        }
        let graph = g
            .with_patched_weights(&patches)
            .expect("all edges validated to exist");
        Ok((
            NetworkSnapshot {
                graph,
                epoch: self.epoch + 1,
                scale: self.scale,
                delta: applied.clone().into(),
            },
            applied,
        ))
    }
}

/// A lock-free publication point for `Arc<T>` snapshots (hand-rolled,
/// std-only).
///
/// * [`SnapshotCell::load`] — readers pin the current snapshot: a counter
///   increment, one atomic pointer load, an `Arc` clone, a counter
///   decrement. Never blocks, never takes a lock.
/// * [`SnapshotCell::store`] — writers swap the pointer and retire the old
///   allocation; retired allocations are reclaimed only once the reader
///   counter has been observed at zero *after* the swap, so a reader
///   mid-`load` can never touch freed memory.
///
/// The SeqCst reasoning: a reader increments `readers` before loading the
/// pointer. If its load returned the old pointer, that load precedes the
/// writer's swap in the total order, hence so does the increment; the
/// writer's post-swap `readers` check therefore either sees the reader
/// (and defers reclamation to a later store or drop) or the reader has
/// already finished cloning and decremented. Either way no retired box is
/// freed while a reader may still dereference it.
pub struct SnapshotCell<T> {
    /// Current snapshot: a leaked `Box<Arc<T>>`, swapped atomically.
    ptr: AtomicPtr<Arc<T>>,
    /// Readers currently between the increment and decrement in `load`.
    readers: AtomicUsize,
    /// Swapped-out boxes awaiting quiescence.
    retired: Mutex<Vec<*mut Arc<T>>>,
}

// The raw pointers are owned Box allocations managed under the mutex /
// atomic protocol above; T itself crosses threads only inside Arc.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    pub fn new(value: Arc<T>) -> Self {
        SnapshotCell {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            readers: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Pin the current snapshot. Wait-free for readers; the returned `Arc`
    /// keeps the snapshot alive for as long as the caller holds it — the
    /// "pin for a query's lifetime" primitive.
    pub fn load(&self) -> Arc<T> {
        self.readers.fetch_add(1, Ordering::SeqCst);
        let p = self.ptr.load(Ordering::SeqCst);
        // Safety: `p` came from Box::into_raw and cannot have been freed:
        // reclamation requires observing `readers == 0` after the swap
        // that retired it, and this reader registered before the load.
        let pinned = unsafe { (*p).clone() };
        self.readers.fetch_sub(1, Ordering::SeqCst);
        pinned
    }

    /// Publish a new snapshot. Readers that already pinned the previous
    /// one keep it (their `Arc` holds the value alive); subsequent loads
    /// see the new one. Never blocks readers; concurrent writers serialize
    /// only on the short retire-list mutex.
    pub fn store(&self, value: Arc<T>) {
        let fresh = Box::into_raw(Box::new(value));
        let old = self.ptr.swap(fresh, Ordering::SeqCst);
        let mut retired = self.retired.lock().unwrap();
        retired.push(old);
        if self.readers.load(Ordering::SeqCst) == 0 {
            for p in retired.drain(..) {
                // Safety: no reader can still dereference a retired box
                // (see the type-level comment); each box is freed once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no readers or writers can exist anymore.
        let current = *self.ptr.get_mut();
        drop(unsafe { Box::from_raw(current) });
        for p in self.retired.get_mut().unwrap().drain(..) {
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_pair;
    use crate::graph::GraphBuilder;

    fn line(n: u32, w: Weight) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(i as f64, 0.0);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, w);
        }
        b.build()
    }

    #[test]
    fn apply_bumps_epoch_and_shares_topology() {
        let snap = NetworkSnapshot::new(line(4, 5));
        assert_eq!(snap.epoch(), 0);
        let (next, applied) = snap.apply(&[WeightUpdate { u: 1, v: 2, w: 9 }]).unwrap();
        assert_eq!(next.epoch(), 1);
        assert!(next.graph().shares_topology_with(snap.graph()));
        assert_eq!(applied.len(), 1);
        assert_eq!((applied[0].w_old, applied[0].w_new), (5, 9));
        assert!(applied[0].is_increase());
        // Old snapshot untouched; new one answers on the patched weights.
        assert_eq!(dijkstra_pair(snap.graph(), 0, 3), Some(15));
        assert_eq!(dijkstra_pair(next.graph(), 0, 3), Some(19));
    }

    #[test]
    fn apply_validates_and_publishes_nothing_on_error() {
        let snap = NetworkSnapshot::new(line(3, 5));
        for (updates, want) in [
            (
                vec![WeightUpdate { u: 0, v: 2, w: 9 }],
                UpdateError::NoSuchEdge(0, 2),
            ),
            (
                vec![WeightUpdate { u: 9, v: 1, w: 9 }],
                UpdateError::NoSuchNode(9),
            ),
            (
                vec![WeightUpdate { u: 1, v: 1, w: 9 }],
                UpdateError::SelfLoop(1),
            ),
        ] {
            assert_eq!(snap.apply(&updates).unwrap_err(), want);
        }
        // A valid prefix before the bad update is also discarded.
        let err = snap
            .apply(&[
                WeightUpdate { u: 0, v: 1, w: 50 },
                WeightUpdate { u: 0, v: 2, w: 1 },
            ])
            .unwrap_err();
        assert_eq!(err, UpdateError::NoSuchEdge(0, 2));
        assert_eq!(snap.graph().edge_weight(0, 1), Some(5));
    }

    #[test]
    fn apply_rejects_weights_below_the_admissible_floor() {
        // Unit spacing, weight 5 edges: scale = 5 (every weight is 5x its
        // Euclidean length). Dropping an edge to 4 would break bounds
        // built with that scale.
        let snap = NetworkSnapshot::new(line(4, 5));
        assert!((snap.admissibility_scale() - 5.0).abs() < 1e-6);
        match snap.apply(&[WeightUpdate { u: 1, v: 2, w: 4 }]) {
            Err(UpdateError::Inadmissible { min, .. }) => assert_eq!(min, 5),
            other => panic!("expected Inadmissible, got {other:?}"),
        }
        // At the floor is fine; the scale survives into the next epoch.
        let (next, _) = snap.apply(&[WeightUpdate { u: 1, v: 2, w: 5 }]).unwrap();
        assert_eq!(next.admissibility_scale(), snap.admissibility_scale());
    }

    #[test]
    fn later_updates_to_the_same_edge_win_and_record_the_snapshot_old() {
        let snap = NetworkSnapshot::new(line(3, 5));
        let (next, applied) = snap
            .apply(&[
                WeightUpdate { u: 0, v: 1, w: 30 },
                WeightUpdate { u: 1, v: 0, w: 40 },
            ])
            .unwrap();
        assert_eq!(next.graph().edge_weight(0, 1), Some(40));
        // Both entries report the pre-batch weight as old.
        assert!(applied.iter().all(|a| a.w_old == 5));
    }

    #[test]
    fn apply_records_the_epoch_delta() {
        let snap = NetworkSnapshot::new(line(4, 5));
        assert!(snap.delta().is_empty());
        let (next, applied) = snap
            .apply(&[
                WeightUpdate { u: 1, v: 2, w: 9 },
                WeightUpdate { u: 2, v: 3, w: 7 },
            ])
            .unwrap();
        assert_eq!(next.delta(), &applied[..]);
        assert!(next.next_epoch().delta().is_empty());
        let scope = next.repair_scope();
        assert_eq!(scope.len(), 2);
        assert_eq!(scope.endpoints(), vec![1, 2, 3]);
    }

    #[test]
    fn repair_scope_merges_like_staleness_tracking() {
        let mut scope = RepairScope::new();
        assert!(scope.is_empty() && scope.increase_only());
        scope.absorb(&[AppliedUpdate {
            u: 1,
            v: 2,
            w_old: 5,
            w_new: 9,
        }]);
        // Opposite orientation merges into the same entry; first w_old
        // is kept, latest w_new wins.
        scope.absorb(&[AppliedUpdate {
            u: 2,
            v: 1,
            w_old: 9,
            w_new: 3,
        }]);
        assert_eq!(scope.len(), 1);
        assert_eq!((scope.edges()[0].w_old, scope.edges()[0].w_new), (5, 3));
        assert!(!scope.increase_only());
        // A round-trip back to the original weight is kept, not dropped.
        scope.absorb(&[AppliedUpdate {
            u: 1,
            v: 2,
            w_old: 3,
            w_new: 5,
        }]);
        assert_eq!(scope.len(), 1);
        assert_eq!((scope.edges()[0].w_old, scope.edges()[0].w_new), (5, 5));
        assert!(scope.increase_only());
        scope.absorb(&[AppliedUpdate {
            u: 0,
            v: 1,
            w_old: 5,
            w_new: 6,
        }]);
        assert_eq!(
            scope.touched_pairs().collect::<Vec<_>>(),
            vec![(1, 2), (0, 1)]
        );
    }

    #[test]
    fn next_epoch_republishes_the_same_graph() {
        let snap = NetworkSnapshot::new(line(3, 2));
        let re = snap.next_epoch();
        assert_eq!(re.epoch(), 1);
        assert!(re.graph().shares_topology_with(snap.graph()));
        assert_eq!(
            dijkstra_pair(re.graph(), 0, 2),
            dijkstra_pair(snap.graph(), 0, 2)
        );
    }

    #[test]
    fn cell_load_store_roundtrip() {
        let cell = SnapshotCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        // A pinned snapshot survives the swap-out.
        let pinned = cell.load();
        cell.store(Arc::new(3));
        assert_eq!(*pinned, 2);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn cell_swaps_are_never_torn_under_contention() {
        // Each snapshot is (epoch, 31 * epoch): readers verify the pair is
        // internally consistent and that epochs never go backwards.
        let cell = Arc::new(SnapshotCell::new(Arc::new((0u64, 0u64))));
        let writers = 3;
        let readers = 5;
        let epochs_per_writer = 400u64;
        let published = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let cell = Arc::clone(&cell);
                let published = Arc::clone(&published);
                scope.spawn(move || {
                    for _ in 0..epochs_per_writer {
                        let e = published.fetch_add(1, Ordering::SeqCst) as u64 + 1;
                        cell.store(Arc::new((e, 31 * e)));
                    }
                });
            }
            for _ in 0..readers {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2_000 {
                        let snap = cell.load();
                        let (e, check) = *snap;
                        assert_eq!(check, 31 * e, "torn snapshot");
                        assert!(e >= last || e == 0, "epoch went backwards");
                        last = last.max(e);
                    }
                });
            }
        });
    }
}
