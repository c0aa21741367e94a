//! High-level engine: one handle over a network and its indexes.
//!
//! The paper's conclusion (§VII) is a decision rule: use the universal
//! indexed methods (IER-kNN over PHL-class oracles) when indexes exist,
//! and the specific index-free methods (`Exact-max`, `R-List`) when they
//! don't. [`Engine`] packages that rule behind a single `query` call so
//! downstream users don't need to know the taxonomy:
//!
//! ```
//! use fann_core::engine::Engine;
//! use fann_core::Aggregate;
//! # use roadnet::GraphBuilder;
//! # let mut b = GraphBuilder::new();
//! # for i in 0..6 { b.add_node(i as f64, 0.0); }
//! # for i in 0..5 { b.add_edge(i, i + 1, 10); }
//! # let graph = b.build();
//! let engine = Engine::new(&graph).with_labels(); // build once
//! let answer = engine
//!     .query(&[0, 2, 4], &[1, 5], 0.5, Aggregate::Max)
//!     .expect("valid query")
//!     .expect("reachable");
//! assert_eq!(answer.dist, 10);
//! ```
//!
//! # Snapshots, epochs, and live updates
//!
//! The engine is *snapshot-centric* ("road networks change frequently",
//! §IV): its state is an immutable [`EngineSnapshot`] — an epoch-versioned
//! [`NetworkSnapshot`] plus the indexes built for it — published through a
//! lock-free [`SnapshotCell`]. Every query pins exactly one snapshot for
//! its whole lifetime, so concurrent [`Engine::apply_updates`] calls never
//! tear an in-flight answer: each answer is consistent with exactly one
//! epoch. Updates are copy-on-write (only the weight array is copied) and
//! mark hub labels *stale* rather than rebuilding them inline; stale
//! labels degrade to exact A\* for affected pairs (never a wrong answer)
//! until [`Engine::repair_indexes`] — usually via
//! [`Engine::repair_in_background`] — rebuilds them. `Engine` is `Clone +
//! Send + Sync + 'static`: handles share state, so a server can hand one
//! to every connection thread and another to an updater.

use crate::algo::ier::build_p_rtree;
use crate::algo::{exact_max_cancellable, ier_knn_cancellable, r_list_cancellable, IerBound};
use crate::gphi::ier2::IerPhi;
use crate::gphi::ine::IneBuffers;
use crate::gphi::oracle::GuardedLabelOracle;
use crate::locality::{AnswerCache, CacheKey, CacheStats, NO_REACH};
use crate::metrics::{Recorder, SearchStats, StatsSink};
use crate::{flex_k, Aggregate, FannAnswer, FannQuery, QueryError};
use hublabel::{HubLabels, SourceTable};
use roadnet::cancel::{CancelCheck, CancelToken, Cancelled};
use roadnet::{
    Dist, Graph, NetworkSnapshot, NodeId, RepairScope, ScratchPool, SnapshotCell, UpdateError,
    WeightUpdate,
};
use spatial_rtree::{Mbr, Pt};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which strategy [`Engine::query`] selected (observable for logging and
/// for the engine tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Indexed: IER-kNN over an R-tree on `P` with an IER-PHL backend.
    IerKnnLabels,
    /// Index-free exact max: `Exact-max`.
    ExactMax,
    /// Index-free exact sum: `R-List` with INE.
    RListIne,
}

impl Strategy {
    /// Name as used in reports and figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::IerKnnLabels => "IER-kNN/PHL",
            Strategy::ExactMax => "Exact-max",
            Strategy::RListIne => "R-List/INE",
        }
    }

    /// Dense index of the strategy: the answer cache key's strategy byte.
    pub fn index(&self) -> usize {
        match self {
            Strategy::IerKnnLabels => 0,
            Strategy::ExactMax => 1,
            Strategy::RListIne => 2,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `ids` as a canonical (sorted, duplicate-free) set, borrowed when it
/// already is one. `P` and `Q` are sets (see [`FannQuery`]); the engine
/// canonicalizes both before dispatch so every strategy sees the same
/// effective query, any permutation of the same set produces the
/// bit-identical answer (making the answer cache's canonical keys sound,
/// see [`crate::locality`]) — and the common already-canonical case stays
/// allocation-free.
fn canonical(ids: &[NodeId]) -> Cow<'_, [NodeId]> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(ids);
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    Cow::Owned(sorted)
}

/// How the answer cache took part in a query (observable for the serving
/// metrics and the coherence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the answer cache at the pinned epoch.
    Hit,
    /// Computed and inserted into the cache.
    Miss,
    /// No cache attached; computed directly.
    Bypass,
}

/// One query after the shared prepare step ([`Engine::prepare`]): `P` and
/// `Q` canonical, the quadruple validated against the pinned graph, the
/// strategy picked. Dispatch, cache key and cache store all read this and
/// nothing else, so each of those steps happens once per query.
struct Prepared<'a> {
    p: Cow<'a, [NodeId]>,
    q: Cow<'a, [NodeId]>,
    phi: f64,
    agg: Aggregate,
    strategy: Strategy,
}

impl Prepared<'_> {
    fn query(&self) -> FannQuery<'_> {
        FannQuery {
            p: &self.p,
            q: &self.q,
            phi: self.phi,
            agg: self.agg,
        }
    }

    /// The cache key for this query on the pinned snapshot.
    fn key(&self) -> CacheKey<'_> {
        CacheKey {
            p: &self.p,
            q: &self.q,
            phi: self.phi,
            agg: match self.agg {
                Aggregate::Sum => 0,
                Aggregate::Max => 1,
            },
            strategy: self.strategy.index() as u8,
        }
    }
}

/// Store a freshly computed answer: derive the entry's `b_Q` rectangle,
/// its admissible `phi·M`-scaled lower bound on `d*`, and the strategy's
/// certified dependence radius used for cross-epoch promotion
/// (see DESIGN.md §9 for the per-strategy proofs).
fn cache_store(
    cache: &AnswerCache,
    snap: &EngineSnapshot,
    prep: &Prepared<'_>,
    answer: Option<&FannAnswer>,
) {
    let graph = snap.graph();
    let mut mbr = Mbr::empty();
    for &v in prep.q.iter() {
        let c = graph.coord(v);
        mbr.extend(Pt::new(c.x, c.y));
    }
    let scale = snap.network().admissibility_scale();
    let (bound, reach) = match answer {
        None => (0, NO_REACH),
        Some(a) => {
            // phi·M·mdist-style bound: each of the k = ceil(phi·|Q|)
            // subset members q satisfies d(p*, q) >= scale·euclid(p*, q)
            // >= scale·mdist(b_Q, p*).
            let c = graph.coord(a.p_star);
            let per_term = scale * mbr.mindist_point(Pt::new(c.x, c.y));
            let bound_f = match prep.agg {
                Aggregate::Max => per_term,
                Aggregate::Sum => per_term * flex_k(prep.phi, prep.q.len()) as f64,
            };
            let bound = if bound_f.is_finite() {
                (bound_f.max(0.0).floor() as Dist).min(a.dist)
            } else {
                0
            };
            // Dependence radius: how far from Q the answering run could
            // have looked. Exact-max and IER-kNN are bounded by d*;
            // R-List's random-access evals reach up to 2·d*.
            let reach = match prep.strategy {
                Strategy::ExactMax | Strategy::IerKnnLabels => a.dist,
                Strategy::RListIne => a.dist.saturating_mul(2),
            };
            (bound, reach)
        }
    };
    cache.insert(&prep.key(), snap.epoch(), answer, bound, mbr, reach);
}

/// One pinned, immutable view of the engine: a [`NetworkSnapshot`] plus
/// the indexes (and their staleness ledger) that answer on it. Obtained
/// from [`Engine::snapshot`]; holding the `Arc` keeps this exact epoch
/// alive regardless of concurrent updates.
pub struct EngineSnapshot {
    net: NetworkSnapshot,
    labels: Option<Arc<HubLabels>>,
    /// Weight updates applied since the labels were built, merged per
    /// edge: the labels' staleness ledger, and exactly the touched edges a
    /// scoped repair must cover. Empty ⇔ the labels are exact for the
    /// current graph.
    stale: RepairScope,
}

impl EngineSnapshot {
    pub fn network(&self) -> &NetworkSnapshot {
        &self.net
    }

    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    pub fn epoch(&self) -> u64 {
        self.net.epoch()
    }

    pub fn has_labels(&self) -> bool {
        self.labels.is_some()
    }

    /// The labels' staleness ledger (empty when no labels are attached or
    /// they are fresh).
    pub fn stale(&self) -> &RepairScope {
        &self.stale
    }

    /// Labels exist but have not absorbed every published update.
    pub fn is_stale(&self) -> bool {
        self.labels.is_some() && !self.stale.is_empty()
    }

    /// The attached hub labels, if any (e.g. for persisting a repaired
    /// labeling or comparing it against a from-scratch build).
    pub fn hub_labels(&self) -> Option<&Arc<HubLabels>> {
        self.labels.as_ref()
    }

    /// The point-to-point oracle for this snapshot: hub labels guarded by
    /// the staleness ledger (exact even mid-repair), or `None` when the
    /// snapshot is index-free.
    pub fn oracle(&self) -> Option<GuardedLabelOracle<'_>> {
        let labels = self.labels.as_deref()?;
        Some(GuardedLabelOracle::guarded(
            labels,
            self.net.graph(),
            self.stale.edges(),
            self.stale.increase_only(),
            self.net.lower_bound(),
        ))
    }
}

/// Footprint and cost of the most recent hub-label build or repair.
/// A full label rebuild reports `labels_repaired == labels_total`; a
/// scoped repair reports the (usually far smaller) replayed-hub count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Epoch the repaired labels match.
    pub epoch: u64,
    /// Hub roots whose pruned search was re-run.
    pub labels_repaired: u64,
    /// Hub roots a from-scratch rebuild would run.
    pub labels_total: u64,
    /// Why the pass published the snapshot **without** labels — a network
    /// distance no longer fits a label entry — leaving the index-free
    /// strategies to answer (exactly). `None` when labels were published.
    pub labels_dropped: Option<hublabel::BuildError>,
    /// Wall time of the label repair, milliseconds.
    pub label_wall_ms: u64,
}

/// Shared mutable state behind every clone of one [`Engine`].
struct EngineShared {
    cell: SnapshotCell<EngineSnapshot>,
    /// Serializes publication (updates, label installs); readers never
    /// take it.
    writer: Mutex<()>,
    /// A background repair thread is running (see
    /// [`Engine::repair_in_background`]).
    repairing: AtomicBool,
    /// Bumped by every published update batch. The background repair
    /// loop compares it across a repair pass to close the orphaned-
    /// repair window: a batch landing anywhere inside the pass is
    /// detected even if its staleness was already absorbed.
    update_gen: AtomicU64,
    /// The last repair's footprint, for the serving metrics.
    report: Mutex<Option<RepairReport>>,
    /// The epoch-keyed answer cache, when attached
    /// ([`Engine::with_answer_cache`]). Shared by every clone so the
    /// serving workers and the updater see one coherent cache.
    cache: OnceLock<Arc<AnswerCache>>,
}

/// Options for [`Engine::from_index_dir_with`].
#[derive(Debug, Clone)]
pub struct IndexDirOptions {
    /// Backing for the flat-container loads. Defaults to
    /// [`roadnet::LoadMode::Auto`]: mmap with one-read fallback.
    pub load_mode: roadnet::LoadMode,
    /// When `labels.v2` is missing, build hub labels on a background
    /// thread and publish them through the snapshot swap; until then
    /// queries answer exactly via the index-free strategies. The build
    /// uses every core and writes `labels.v2` back into the directory, so
    /// the next cold start finds a complete index. Off by default.
    pub background_build: bool,
}

impl Default for IndexDirOptions {
    fn default() -> Self {
        IndexDirOptions {
            load_mode: roadnet::LoadMode::Auto,
            background_build: false,
        }
    }
}

/// Write an index artifact atomically: build it as `<name>.tmp` in the
/// same directory, then rename over the final name, so a reader never
/// opens a half-written file.
fn persist_atomic(
    dir: &std::path::Path,
    name: &str,
    write: impl FnOnce(&std::path::Path) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    write(&tmp)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// A road network plus optional indexes, with automatic algorithm choice
/// and lock-free live updates (see the [module docs](self) for the
/// snapshot/epoch model).
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Engine {
    /// An index-free engine (the "road networks change frequently"
    /// scenario of §IV). Cheap: the graph handle is cloned, not the CSR
    /// arrays.
    pub fn new(graph: &Graph) -> Self {
        Engine {
            shared: Arc::new(EngineShared {
                cell: SnapshotCell::new(Arc::new(EngineSnapshot {
                    net: NetworkSnapshot::new(graph.clone()),
                    labels: None,
                    stale: RepairScope::new(),
                })),
                writer: Mutex::new(()),
                repairing: AtomicBool::new(false),
                update_gen: AtomicU64::new(0),
                report: Mutex::new(None),
                cache: OnceLock::new(),
            }),
        }
    }

    /// Build and attach the hub-label oracle (expensive; do it once).
    pub fn with_labels(self) -> Self {
        self.publish_labels(false);
        self
    }

    /// Attach previously built labels (e.g. from
    /// [`HubLabels::read_flat`]). Labels built for another graph than the
    /// engine's *current* one are refused with
    /// [`roadnet::flat::FlatError::GraphMismatch`], never attached.
    pub fn with_prebuilt_labels(self, labels: HubLabels) -> Result<Self, roadnet::flat::FlatError> {
        {
            let _guard = self.shared.writer.lock().unwrap();
            let cur = self.shared.cell.load();
            cur.graph()
                .check_built_for("labels", labels.graph_fingerprint())?;
            self.shared.cell.store(Arc::new(EngineSnapshot {
                net: cur.net.clone(),
                labels: Some(Arc::new(labels)),
                stale: RepairScope::new(),
            }));
        }
        Ok(self)
    }

    /// Cold-start an engine from a flat index directory written by
    /// `fannr build-index`: `graph.v2` (required) plus `labels.v2`
    /// (attached when present). Both load zero-copy behind one aligned
    /// buffer — mapped read-only when possible so a continental index
    /// pages in lazily, one `read` otherwise — with typed views over it
    /// and allocations O(sections), so start-up cost is I/O-bound rather
    /// than deserialization-bound.
    pub fn from_index_dir(dir: &std::path::Path) -> Result<Self, roadnet::flat::FlatError> {
        Self::from_index_dir_with(dir, &IndexDirOptions::default())
    }

    /// [`Engine::from_index_dir`] with explicit [`IndexDirOptions`]. With
    /// `background_build` set, a directory holding only `graph.v2` is
    /// enough: the engine starts serving immediately (exactly, via the
    /// index-free strategies) while hub labels build on a background
    /// thread and publish through the snapshot swap. A `labels.v2` built
    /// for another graph is refused with
    /// [`roadnet::flat::FlatError::GraphMismatch`], never attached.
    pub fn from_index_dir_with(
        dir: &std::path::Path,
        opts: &IndexDirOptions,
    ) -> Result<Self, roadnet::flat::FlatError> {
        let graph = Graph::read_flat_with(&dir.join("graph.v2"), opts.load_mode)?;
        let mut engine = Engine::new(&graph);
        let labels_path = dir.join("labels.v2");
        let have_labels = labels_path.exists();
        if have_labels {
            let labels = HubLabels::read_flat_with(&labels_path, opts.load_mode)?;
            // Both fingerprints sit in the file headers: an O(1) check.
            graph.check_built_for("labels.v2", labels.graph_fingerprint())?;
            engine = engine.with_prebuilt_labels(labels)?;
        }
        if opts.background_build && !have_labels {
            engine.complete_index_in_background(dir);
        }
        Ok(engine)
    }

    /// Build the hub labels the index directory is missing, on one
    /// background thread with the parallel builder, and publish them
    /// through the same snapshot swap as [`Engine::repair_indexes`] —
    /// queries keep answering exactly via the index-free strategies until
    /// the swap lands. Labels are built on every core against the snapshot
    /// pinned at call time (for a freshly cold-started engine, exactly the
    /// `graph.v2` on disk) and written back atomically via temp + rename,
    /// so a concurrent cold start never sees a torn file. Returns `false`
    /// when a build or repair thread is already running.
    pub fn complete_index_in_background(&self, dir: &std::path::Path) -> bool {
        if self.shared.repairing.swap(true, Ordering::SeqCst) {
            return false;
        }
        let engine = self.clone();
        let dir = dir.to_path_buf();
        let disk = self.snapshot();
        std::thread::spawn(move || {
            // A build that fails (a distance past the label width) skips
            // straight to the `publish_labels` below, which records why.
            let built = if disk.has_labels() {
                None
            } else {
                HubLabels::build_parallel(disk.graph(), 0).ok()
            };
            if let Some(labels) = built.map(Arc::new) {
                let _ = persist_atomic(&dir, "labels.v2", |p| labels.write_flat(p));
                // Publish only while the live epoch still matches the
                // build snapshot: after an update batch these labels no
                // longer describe the live weights (the persisted copy
                // stays valid — it matches graph.v2, not the live graph).
                let guard = engine.shared.writer.lock().unwrap();
                let cur = engine.shared.cell.load();
                if cur.epoch() == disk.epoch() && !cur.has_labels() {
                    engine.shared.cell.store(Arc::new(EngineSnapshot {
                        net: cur.net.clone(),
                        labels: Some(labels),
                        stale: RepairScope::new(),
                    }));
                }
                drop(guard);
            }
            engine.shared.repairing.store(false, Ordering::SeqCst);
            if engine.is_stale() {
                // Updates that landed mid-build saw `repairing` set and
                // skipped their own repair kick; pick them up.
                engine.repair_in_background();
            } else if !engine.has_labels() {
                // The epoch moved before the swap: the disk-graph labels
                // were persisted but never published. Build labels for
                // the live graph (restarting on further moves).
                engine.publish_labels(false);
            }
        });
        true
    }

    /// Attach an epoch-keyed answer cache holding up to `capacity`
    /// answers (see [`crate::locality`] for the coherence contract).
    /// Cached answers are bit-identical to recomputation by construction;
    /// [`Engine::apply_updates`] invalidates affected entries and
    /// promotes provably-unaffected ones. Shared by all clones of this
    /// engine; the first attachment wins.
    pub fn with_answer_cache(self, capacity: usize) -> Self {
        let _ = self.shared.cache.set(Arc::new(AnswerCache::new(capacity)));
        self
    }

    /// Counter snapshot of the attached answer cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.get().map(|c| c.stats())
    }

    /// Pin the current snapshot. Wait-free; the returned `Arc` keeps that
    /// exact epoch (graph + indexes + staleness) alive for as long as the
    /// caller holds it. Every `query*` method pins exactly once, so each
    /// answer is consistent with exactly one epoch.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.cell.load()
    }

    /// The currently published epoch (0 for a fresh engine; +1 per
    /// [`Engine::apply_updates`] batch).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Whether the current labels lag the current graph (queries stay
    /// exact either way; see [`GuardedLabelOracle`]).
    pub fn is_stale(&self) -> bool {
        self.snapshot().is_stale()
    }

    pub fn has_labels(&self) -> bool {
        self.snapshot().has_labels()
    }

    /// Apply a batch of weight updates and publish the next epoch without
    /// blocking readers: in-flight queries finish on the snapshot they
    /// pinned; subsequent queries see the new weights immediately (hub
    /// labels go stale and fall back to exact search for affected pairs
    /// until repaired). All-or-nothing: on any validation error
    /// ([`UpdateError`]) nothing is published.
    ///
    /// Returns the new epoch. Concurrent callers serialize on a writer
    /// lock; call [`Engine::repair_in_background`] afterwards to restore
    /// full label speed.
    pub fn apply_updates(&self, updates: &[WeightUpdate]) -> Result<u64, UpdateError> {
        let _guard = self.shared.writer.lock().unwrap();
        let cur = self.shared.cell.load();
        let prev_epoch = cur.epoch();
        let (net, applied) = cur.net.apply(updates)?;
        let epoch = net.epoch();
        let scale = net.admissibility_scale();
        let mut stale = cur.stale.clone();
        if cur.labels.is_some() {
            stale.absorb(&applied);
        }
        self.shared.update_gen.fetch_add(1, Ordering::SeqCst);
        self.shared.cell.store(Arc::new(EngineSnapshot {
            net,
            labels: cur.labels.clone(),
            stale,
        }));
        if let Some(cache) = self.shared.cache.get() {
            // Region-based cache maintenance, still under the writer lock
            // so batches reach the cache in publication order: entries
            // whose dependence region provably avoids every touched edge
            // endpoint carry over to the new epoch, the rest drop
            // (coordinates are epoch-invariant, so `cur`'s graph serves).
            let graph = cur.graph();
            let touched: Vec<Pt> = applied
                .iter()
                .flat_map(|a| {
                    let cu = graph.coord(a.u);
                    let cv = graph.coord(a.v);
                    [Pt::new(cu.x, cu.y), Pt::new(cv.x, cv.y)]
                })
                .collect();
            cache.on_update(prev_epoch, epoch, &touched, scale);
        }
        Ok(epoch)
    }

    /// Repair stale hub labels on the current graph and publish,
    /// synchronously: scoped label repair replays only the hubs whose
    /// certificates cross a touched edge. Queries keep running (and stay
    /// exact) throughout; if updates land while repairing, the repair
    /// restarts on the newer graph. No-op when the labels are already
    /// fresh. Returns the epoch whose labels are fresh on return.
    pub fn repair_indexes(&self) -> u64 {
        self.publish_labels(true)
    }

    /// [`Engine::repair_indexes`] on a background thread. Returns `false`
    /// if a repair thread is already running (the running thread will
    /// pick up any newer updates before exiting). Fire-and-forget: the
    /// serving layer calls this after each update batch.
    pub fn repair_in_background(&self) -> bool {
        if self.shared.repairing.swap(true, Ordering::SeqCst) {
            return false;
        }
        let engine = self.clone();
        std::thread::spawn(move || loop {
            let gen = engine.shared.update_gen.load(Ordering::SeqCst);
            engine.repair_indexes();
            engine.shared.repairing.store(false, Ordering::SeqCst);
            // Close the orphaned-repair window: any batch published
            // inside this pass saw `repairing` set and skipped its own
            // kick, so re-check after clearing the flag. The generation
            // counter catches even batches whose staleness the pass
            // already absorbed (e.g. one landing between the staleness
            // check and the publish); a batch landing after this check
            // sees the cleared flag and kicks its own repair.
            let missed =
                engine.shared.update_gen.load(Ordering::SeqCst) != gen || engine.is_stale();
            if missed && !engine.shared.repairing.swap(true, Ordering::SeqCst) {
                continue;
            }
            break;
        });
        true
    }

    /// The footprint of the most recent index repair (scoped or full),
    /// or `None` if no repair has run yet.
    pub fn last_repair_report(&self) -> Option<RepairReport> {
        *self.shared.report.lock().unwrap()
    }

    /// Build labels for the current graph and publish them fresh,
    /// restarting if the graph moves mid-build. With `only_if_stale`,
    /// exit early when there is nothing to repair. A snapshot that
    /// already carries labels plus a non-empty staleness ledger takes
    /// the scoped-repair path: only hubs whose tight-edge certificates
    /// cross a touched edge are replayed, bit-identical to a rebuild.
    /// A build or repair that fails publishes the snapshot *without*
    /// labels — index-free, still exact — and the report says why.
    fn publish_labels(&self, only_if_stale: bool) -> u64 {
        loop {
            let pinned = self.snapshot();
            if only_if_stale && !pinned.is_stale() {
                return pinned.epoch();
            }
            let t0 = Instant::now();
            let total = pinned.graph().num_nodes() as u64;
            let built = match &pinned.labels {
                Some(old) if !pinned.stale.is_empty() => {
                    let touched: Vec<(NodeId, NodeId)> = pinned.stale.touched_pairs().collect();
                    old.repair_scoped(pinned.graph(), &touched)
                        .map(|(next, stats)| (next, stats.roots_searched as u64))
                }
                _ => HubLabels::build(pinned.graph()).map(|labels| (labels, total)),
            };
            let (labels, repaired, dropped) = match built {
                Ok((labels, repaired)) => (Some(Arc::new(labels)), repaired, None),
                Err(why) => (None, 0, Some(why)),
            };
            let guard = self.shared.writer.lock().unwrap();
            let cur = self.shared.cell.load();
            if cur.epoch() == pinned.epoch() {
                self.shared.cell.store(Arc::new(EngineSnapshot {
                    net: cur.net.clone(),
                    labels,
                    stale: RepairScope::new(),
                }));
                drop(guard);
                let mut report = self.shared.report.lock().unwrap();
                let r = report.get_or_insert_with(RepairReport::default);
                r.epoch = pinned.epoch();
                r.labels_repaired = repaired;
                r.labels_total = total;
                r.labels_dropped = dropped;
                r.label_wall_ms = t0.elapsed().as_millis() as u64;
                return pinned.epoch();
            }
            drop(guard); // weights moved while building; rebuild on the newer graph
        }
    }

    /// The strategy `query` would use for this aggregate (on the current
    /// snapshot).
    pub fn strategy_for(&self, agg: Aggregate) -> Strategy {
        Self::strategy_on(&self.snapshot(), agg)
    }

    fn strategy_on(snap: &EngineSnapshot, agg: Aggregate) -> Strategy {
        match (snap.has_labels(), agg) {
            (true, _) => Strategy::IerKnnLabels,
            (false, Aggregate::Max) => Strategy::ExactMax,
            (false, Aggregate::Sum) => Strategy::RListIne,
        }
    }

    /// The prepare step every query path shares: canonicalize `P` and `Q`
    /// (duplicates dropped, so every strategy sees the same duplicate-free
    /// query), validate against the pinned graph, and pick the strategy
    /// with the §VII decision rule.
    fn prepare<'a>(
        &self,
        snap: &EngineSnapshot,
        p: &'a [NodeId],
        q: &'a [NodeId],
        phi: f64,
        agg: Aggregate,
    ) -> Result<Prepared<'a>, QueryError> {
        let (p, q) = (canonical(p), canonical(q));
        FannQuery::checked(&p, &q, phi, agg, snap.graph())?;
        Ok(Prepared {
            p,
            q,
            phi,
            agg,
            strategy: Self::strategy_on(snap, agg),
        })
    }

    /// The one dispatch: run a prepared query's strategy on the pinned
    /// snapshot with the caller's recycled `state`. `R` and `C` are type
    /// parameters, so the `()`/`()` instantiation behind [`Engine::query`]
    /// carries no instrumentation and no polling. A fired `cancel` yields
    /// [`QueryError::Cancelled`], never a partial answer.
    fn answer<R: Recorder, C: CancelCheck>(
        snap: &EngineSnapshot,
        prep: &Prepared<'_>,
        state: &mut SearchState,
        rec: R,
        cancel: C,
    ) -> Result<Option<FannAnswer>, QueryError> {
        let graph = snap.graph();
        let query = prep.query();
        let answer = match prep.strategy {
            Strategy::IerKnnLabels => {
                let oracle = snap.oracle().expect("strategy implies labels");
                let oracle = oracle.with_table(std::mem::take(&mut state.labels));
                let rtree = build_p_rtree(graph, query.p);
                // Each IerPhi eval is a bounded |Q|-label scan, so polling
                // between evals (inside ier_knn_cancellable) is enough.
                let gphi = IerPhi::with_recorder(graph, &oracle, query.q, rec);
                let answer = ier_knn_cancellable(
                    graph,
                    &query,
                    &rtree,
                    &gphi,
                    IerBound::Flexible,
                    rec,
                    cancel,
                );
                drop(gphi);
                state.labels = oracle.into_table();
                answer
            }
            Strategy::ExactMax => {
                exact_max_cancellable(graph, &query, &mut state.pool, rec, cancel)
            }
            Strategy::RListIne => state.ine.with(graph, query.q, rec, cancel, |gphi| {
                r_list_cancellable(graph, &query, gphi, &mut state.pool, rec, cancel)
            }),
        };
        answer.map_err(|Cancelled| QueryError::Cancelled)
    }

    /// Answer an FANN_R query with the §VII decision rule. `Ok(None)`
    /// when no data point reaches `ceil(phi |Q|)` query points.
    ///
    /// `P` and `Q` are treated as sets: duplicate ids are dropped before
    /// validation and dispatch, so every strategy sees the same
    /// duplicate-free query.
    pub fn query(
        &self,
        p: &[NodeId],
        q: &[NodeId],
        phi: f64,
        agg: Aggregate,
    ) -> Result<Option<FannAnswer>, QueryError> {
        let snap = self.snapshot();
        let prep = self.prepare(&snap, p, q, phi, agg)?;
        Self::answer(&snap, &prep, &mut SearchState::default(), (), ())
    }

    /// [`Engine::query`] with live instrumentation: returns the identical
    /// answer plus a [`SearchStats`] snapshot of the work performed
    /// (graph-expansion effort, `g_phi`/oracle/label activity, R-tree node
    /// accesses, pruned candidates).
    ///
    /// The untraced [`Engine::query`] path pays nothing for this: tracing
    /// is a separate monomorphization over `&StatsSink`.
    pub fn query_traced(
        &self,
        p: &[NodeId],
        q: &[NodeId],
        phi: f64,
        agg: Aggregate,
    ) -> Result<(Option<FannAnswer>, SearchStats), QueryError> {
        let snap = self.snapshot();
        let prep = self.prepare(&snap, p, q, phi, agg)?;
        let sink = StatsSink::new();
        let answer = Self::answer(&snap, &prep, &mut SearchState::default(), &sink, ())?;
        Ok((answer, sink.snapshot()))
    }

    /// The answer cache's answer to this query on the current snapshot,
    /// with the strategy that computed it — or `None`, having done no
    /// work, when no cache is attached. A miss or an invalid query is also
    /// `None` and is not counted: the caller is expected to send it on to
    /// [`QuerySession::query`], whose probe counts it (and reports the
    /// error), so each query adds one to `hits + misses` either way.
    /// A hit is bit-identical to [`Engine::query`] (see [`crate::locality`]).
    pub fn cached(
        &self,
        p: &[NodeId],
        q: &[NodeId],
        phi: f64,
        agg: Aggregate,
    ) -> Option<(Option<FannAnswer>, Strategy)> {
        let cache = self.shared.cache.get()?;
        let snap = self.snapshot();
        let prep = self.prepare(&snap, p, q, phi, agg).ok()?;
        let hit = cache.probe(&prep.key(), snap.epoch())?;
        Some((hit.answer, prep.strategy))
    }

    /// Open a [`QuerySession`] — the handle `fannr serve` answers the wire
    /// through — whose searches poll `token`.
    pub fn session<'t>(&self, token: &'t CancelToken) -> QuerySession<'t> {
        QuerySession {
            engine: self.clone(),
            token,
            state: SearchState::default(),
        }
    }
}

/// The one recycled search container of a [`QuerySession`]: a scratch pool for the
/// `|Q|`-expansion algorithms, the graph-free buffers of the INE `g_phi` backend, and the label oracle's
/// [`SourceTable`]. It holds no graph and no `(R, C)` instantiation, so
/// one state serves every strategy, traced or not, across epoch swaps (the
/// table knows which labels it holds); a throw-away one
/// ([`Engine::query`]) answers like a warm one, only slower.
#[derive(Default)]
struct SearchState {
    pool: ScratchPool,
    ine: IneBuffers,
    labels: SourceTable,
}

/// What a [`QuerySession`] query resolved to, as the serving tier reports
/// it: `(answer, stats, cache, epoch, strategy)` — the answer, the search
/// work it cost (empty for a cache hit), how the answer cache took part,
/// and the epoch and strategy of the snapshot the query pinned: the ones
/// that produced the answer, whatever has been published since.
pub type Answered = (Option<FannAnswer>, SearchStats, CacheOutcome, u64, Strategy);

/// The recycled query handle (obtained from [`Engine::session`]): one
/// recycled search state (a scratch pool, the INE buffers and the label
/// oracle's source table) plus a borrowed [`CancelToken`]. This is how
/// `fannr serve` answers the wire: it opens `--workers` sessions at
/// start-up, and a connection's reader takes one for each miss, re-arms
/// its token ([`CancelToken::arm`]) and sends the query through
/// [`QuerySession::query`], so search
/// buffers are allocated while the session warms up and reused from then
/// on. They hold no graph, so a session follows epoch swaps mid-stream
/// without keeping a retired snapshot alive. Every search polls the token
/// and a fired token resolves the whole query to
/// [`QueryError::Cancelled`] — never an answer from a truncated search.
pub struct QuerySession<'t> {
    engine: Engine,
    token: &'t CancelToken,
    state: SearchState,
}

impl QuerySession<'_> {
    /// Answer one query on the then-current snapshot, through the answer
    /// cache when one is attached: probe, compute on a miss, store. With a
    /// live token the answer is bit-identical to [`Engine::query`] (a hit
    /// replays an answer computed at the same epoch, see
    /// [`crate::locality`]); a cancelled computation stores nothing.
    pub fn query(
        &mut self,
        p: &[NodeId],
        q: &[NodeId],
        phi: f64,
        agg: Aggregate,
    ) -> Result<Answered, QueryError> {
        let snap = self.engine.snapshot();
        let prep = self.engine.prepare(&snap, p, q, phi, agg)?;
        let cache = self.engine.shared.cache.get();
        let sink = StatsSink::new();
        let (answer, outcome) = match cache.and_then(|c| c.lookup(&prep.key(), snap.epoch())) {
            Some(hit) => (hit.answer, CacheOutcome::Hit),
            None => {
                let answer = Engine::answer(&snap, &prep, &mut self.state, &sink, self.token)?;
                match cache {
                    Some(c) => {
                        cache_store(c, &snap, &prep, answer.as_ref());
                        (answer, CacheOutcome::Miss)
                    }
                    None => (answer, CacheOutcome::Bypass),
                }
            }
        };
        Ok((
            answer,
            sink.snapshot(),
            outcome,
            snap.epoch(),
            prep.strategy,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute::brute_force;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> Graph {
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
                    b.add_edge(v, v + 1, 10 + (x + y) % 5);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 10 + (x * 2 + y) % 4);
                }
            }
        }
        b.build()
    }

    #[test]
    fn indexed_and_index_free_agree_with_truth() {
        let g = grid(7, 7);
        let p: Vec<u32> = (0..49).step_by(3).collect();
        let q: Vec<u32> = vec![4, 18, 30, 44];
        let bare = Engine::new(&g);
        let indexed = Engine::new(&g).with_labels();
        for phi in [0.25, 0.5, 1.0] {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let query = FannQuery::new(&p, &q, phi, agg);
                let truth = brute_force(&g, &query).unwrap();
                let a = bare.query(&p, &q, phi, agg).unwrap().unwrap();
                let b = indexed.query(&p, &q, phi, agg).unwrap().unwrap();
                assert_eq!(a.dist, truth.dist, "bare phi={phi} {agg}");
                assert_eq!(b.dist, truth.dist, "indexed phi={phi} {agg}");
            }
        }
    }

    #[test]
    fn strategies_selected_as_documented() {
        let g = grid(3, 3);
        let bare = Engine::new(&g);
        assert_eq!(bare.strategy_for(Aggregate::Max), Strategy::ExactMax);
        assert_eq!(bare.strategy_for(Aggregate::Sum), Strategy::RListIne);
        let indexed = Engine::new(&g).with_labels();
        assert!(indexed.has_labels());
        assert_eq!(indexed.strategy_for(Aggregate::Max), Strategy::IerKnnLabels);
    }

    #[test]
    fn validation_errors_propagate() {
        let g = grid(2, 2);
        let engine = Engine::new(&g);
        assert!(matches!(
            engine.query(&[99], &[0], 0.5, Aggregate::Max),
            Err(QueryError::NodeOutOfRange(99))
        ));
        assert!(matches!(
            engine.query(&[], &[0], 0.5, Aggregate::Max),
            Err(QueryError::EmptyP)
        ));
    }

    #[test]
    fn query_rejects_zero_and_nan_phi() {
        let g = grid(3, 3);
        let engine = Engine::new(&g);
        for phi in [0.0, -0.5, f64::NAN, 1.5] {
            assert!(matches!(
                engine.query(&[0, 4], &[8], phi, Aggregate::Max),
                Err(QueryError::PhiOutOfRange)
            ));
        }
        assert!(matches!(
            engine.query(&[0, 4], &[], 0.5, Aggregate::Max),
            Err(QueryError::EmptyQ)
        ));
    }

    #[test]
    fn duplicates_in_p_and_q_answer_like_the_deduped_query() {
        let g = grid(6, 6);
        let p = vec![0u32, 7, 14, 7, 21, 0, 28];
        let q = vec![3u32, 33, 3, 18];
        let p_set = vec![0u32, 7, 14, 21, 28];
        let q_set = vec![3u32, 33, 18];
        for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                // phi interacts with |Q|: dup-laden Q must use the deduped
                // cardinality, or k differs.
                for phi in [0.34, 0.67, 1.0] {
                    let got = engine.query(&p, &q, phi, agg).unwrap().unwrap();
                    let want = engine.query(&p_set, &q_set, phi, agg).unwrap().unwrap();
                    assert_eq!(got.dist, want.dist, "{agg} phi={phi}");
                    assert_eq!(got.p_star, want.p_star, "{agg} phi={phi}");
                    assert_eq!(got.subset.len(), want.subset.len(), "{agg} phi={phi}");
                }
            }
        }
    }

    #[test]
    fn sum_with_unreachable_query_point_saturates_instead_of_wrapping() {
        // One isolated query node keeps its expansion head at INF, so the
        // R-List threshold is a *saturated* sum. An unsaturated sum would
        // wrap around to a tiny threshold and terminate the scan with a
        // bogus answer (or return Some for an infeasible query).
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 7);
        b.add_edge(1, 2, 9);
        // Node 4 is isolated.
        let g = b.build();
        let engine = Engine::new(&g);
        // phi = 1 requires all of Q; q = 4 is unreachable -> no answer.
        assert_eq!(
            engine.query(&[0, 2], &[1, 4], 1.0, Aggregate::Sum).unwrap(),
            None
        );
        // phi = 0.5 needs k = 1: the reachable query point answers.
        let a = engine
            .query(&[0, 2], &[1, 4], 0.5, Aggregate::Sum)
            .unwrap()
            .unwrap();
        assert_eq!((a.p_star, a.dist), (0, 7));
    }

    #[test]
    fn sum_of_near_max_weights_stays_exact() {
        // Three maximum-weight edges: the sum exceeds u32 but fits u64
        // exactly — no saturation, no wrap.
        const W: u32 = u32::MAX;
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, W);
        b.add_edge(0, 2, W);
        b.add_edge(0, 3, W);
        let g = b.build();
        let engine = Engine::new(&g);
        let a = engine
            .query(&[0], &[1, 2, 3], 1.0, Aggregate::Sum)
            .unwrap()
            .unwrap();
        assert_eq!(a.dist, 3 * W as u64);
    }

    #[test]
    fn traced_matches_untraced_and_counts_work() {
        let g = grid(7, 7);
        let p: Vec<u32> = (0..49).step_by(3).collect();
        let q: Vec<u32> = vec![4, 18, 30, 44];
        let engines = [Engine::new(&g), Engine::new(&g).with_labels()];
        for engine in &engines {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let want = engine.query(&p, &q, 0.5, agg).unwrap().unwrap();
                let (got, stats) = engine.query_traced(&p, &q, 0.5, agg).unwrap();
                let got = got.unwrap();
                assert_eq!(got.dist, want.dist, "{}", engine.strategy_for(agg));
                assert_eq!(got.p_star, want.p_star, "{}", engine.strategy_for(agg));
                assert!(
                    !stats.is_empty(),
                    "{} recorded no work",
                    engine.strategy_for(agg)
                );
            }
        }
    }

    #[test]
    fn engine_is_clone_send_sync_and_static() {
        fn assert_traits<T: Clone + Send + Sync + 'static>() {}
        assert_traits::<Engine>();
        assert_traits::<Arc<EngineSnapshot>>();
    }

    #[test]
    fn apply_updates_bumps_epoch_and_reroutes_queries() {
        let g = grid(5, 5);
        let engine = Engine::new(&g);
        assert_eq!(engine.epoch(), 0);
        let before = engine.snapshot();
        let p: Vec<u32> = (0..25).step_by(3).collect();
        let q = vec![2u32, 22];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Sum);
        let a0 = engine.query(&p, &q, 1.0, Aggregate::Sum).unwrap().unwrap();
        engine
            .apply_updates(&[
                WeightUpdate { u: 2, v: 7, w: 90 },
                WeightUpdate { u: 7, v: 12, w: 80 },
            ])
            .unwrap();
        assert_eq!(engine.epoch(), 1);
        assert!(!engine.is_stale(), "no labels to go stale");
        let snap = engine.snapshot();
        let truth = brute_force(snap.graph(), &query).unwrap();
        let a1 = engine.query(&p, &q, 1.0, Aggregate::Sum).unwrap().unwrap();
        assert_eq!(a1.dist, truth.dist);
        // The pre-update answer matches the pinned pre-update snapshot.
        let old_truth = brute_force(before.graph(), &query).unwrap();
        assert_eq!(a0.dist, old_truth.dist);
        assert_ne!(a1.dist, a0.dist, "update should have rerouted the query");
        // Rejected batches publish nothing.
        assert!(engine
            .apply_updates(&[WeightUpdate { u: 0, v: 9, w: 50 }])
            .is_err());
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn stale_labels_fall_back_to_exact_answers() {
        let g = grid(6, 6);
        let engine = Engine::new(&g).with_labels();
        let p: Vec<u32> = (0..36).step_by(2).collect();
        let q: Vec<u32> = vec![3, 17, 33];
        let exact_everywhere = |snap: &EngineSnapshot| {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                for phi in [0.34, 0.67, 1.0] {
                    let query = FannQuery::new(&p, &q, phi, agg);
                    let truth = brute_force(snap.graph(), &query).unwrap();
                    let got = engine.query(&p, &q, phi, agg).unwrap().unwrap();
                    assert_eq!(got.dist, truth.dist, "{agg} phi={phi}");
                }
            }
        };
        // Increase-only window: per-pair certificates active.
        engine
            .apply_updates(&[
                WeightUpdate { u: 0, v: 1, w: 80 },
                WeightUpdate {
                    u: 14,
                    v: 15,
                    w: 44,
                },
            ])
            .unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.is_stale());
        assert!(snap.stale().increase_only());
        exact_everywhere(&snap);
        // A decrease joins the set: certificates off, full A* fallback.
        engine
            .apply_updates(&[WeightUpdate { u: 2, v: 3, w: 11 }])
            .unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert!(snap.is_stale());
        assert!(!snap.stale().increase_only());
        exact_everywhere(&snap);
        // Repair restores fresh labels at the same epoch; still exact.
        assert_eq!(engine.repair_indexes(), 2);
        assert!(!engine.is_stale());
        exact_everywhere(&engine.snapshot());
    }

    #[test]
    fn stale_set_merges_repeated_updates_per_edge() {
        let g = grid(4, 4);
        let engine = Engine::new(&g).with_labels();
        engine
            .apply_updates(&[WeightUpdate { u: 0, v: 1, w: 50 }])
            .unwrap();
        engine
            .apply_updates(&[WeightUpdate { u: 1, v: 0, w: 70 }])
            .unwrap();
        let snap = engine.snapshot();
        let ups = snap.stale().edges();
        assert_eq!(ups.len(), 1, "same edge merged, not appended");
        // First w_old (the labels' weight) is kept; latest w_new wins.
        assert_eq!((ups[0].w_old, ups[0].w_new), (10, 70));
        assert!(snap.stale().increase_only());
        // Bare engines never track staleness.
        let bare = Engine::new(&g);
        bare.apply_updates(&[WeightUpdate { u: 0, v: 1, w: 50 }])
            .unwrap();
        assert!(!bare.is_stale());
        assert!(bare.snapshot().stale().is_empty());
    }

    #[test]
    fn background_repair_converges_to_fresh_labels() {
        let g = grid(5, 5);
        let engine = Engine::new(&g).with_labels();
        engine
            .apply_updates(&[WeightUpdate { u: 0, v: 1, w: 60 }])
            .unwrap();
        assert!(engine.is_stale());
        assert!(engine.repair_in_background());
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while engine.is_stale() {
            assert!(Instant::now() < deadline, "background repair never landed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let p: Vec<u32> = (0..25).step_by(2).collect();
        let q = vec![0u32, 12, 24];
        let query = FannQuery::new(&p, &q, 0.67, Aggregate::Max);
        let snap = engine.snapshot();
        let truth = brute_force(snap.graph(), &query).unwrap();
        let a = engine.query(&p, &q, 0.67, Aggregate::Max).unwrap().unwrap();
        assert_eq!(a.dist, truth.dist);
    }

    #[test]
    fn scoped_repair_publishes_labels_identical_to_rebuild() {
        let g = grid(6, 6);
        let engine = Engine::new(&g).with_labels();
        engine
            .apply_updates(&[
                WeightUpdate { u: 7, v: 8, w: 90 },
                WeightUpdate {
                    u: 20,
                    v: 26,
                    w: 10,
                },
            ])
            .unwrap();
        assert_eq!(engine.repair_indexes(), 1);
        assert!(!engine.is_stale());
        let repaired = engine.snapshot().hub_labels().unwrap().clone();
        let fresh = HubLabels::build(engine.snapshot().graph()).unwrap();
        assert!(*repaired == fresh, "scoped repair must be bit-identical");
        let report = engine.last_repair_report().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.labels_total, 36);
        assert!(report.labels_repaired >= 1);
        assert_eq!(report.labels_dropped, None);
    }

    #[test]
    fn a_repair_past_the_label_width_drops_the_labels_not_the_exactness() {
        // A five-node path: once every edge weighs u32::MAX, some hub is
        // two hops (> u32::MAX) from a node it must label.
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(i as f64, 0.0);
        }
        for i in 1..5 {
            b.add_edge(i - 1, i, 3);
        }
        let engine = Engine::new(&b.build()).with_labels();
        assert!(engine.has_labels());
        let heavy: Vec<WeightUpdate> = (1..5)
            .map(|v| WeightUpdate {
                u: v - 1,
                v,
                w: u32::MAX,
            })
            .collect();
        engine.apply_updates(&heavy).unwrap();
        assert_eq!(engine.repair_indexes(), 1);
        assert!(!engine.has_labels() && !engine.is_stale());
        let report = engine.last_repair_report().unwrap();
        assert!(matches!(
            report.labels_dropped,
            Some(hublabel::BuildError::DistanceOverflow { dist, .. }) if dist > u32::MAX as u64
        ));
        assert_eq!((report.epoch, report.labels_repaired), (1, 0));
        // Index-free from here on, and exact: 0 -> 4 is four such edges.
        for agg in [Aggregate::Max, Aggregate::Sum] {
            assert_ne!(engine.strategy_for(agg), Strategy::IerKnnLabels);
            let a = engine.query(&[0, 2], &[4], 1.0, agg).unwrap().unwrap();
            assert_eq!((a.p_star, a.dist), (2, 2 * u32::MAX as u64));
        }
        // So is an engine asked to build labels on that graph directly.
        let direct = Engine::new(engine.snapshot().graph()).with_labels();
        assert!(!direct.has_labels());
        assert!(direct
            .last_repair_report()
            .unwrap()
            .labels_dropped
            .is_some());
    }

    /// Fires on the `n`-th poll and stays fired: a deterministic cancel
    /// point inside a search.
    #[derive(Clone, Copy)]
    struct CancelAfter<'a>(&'a std::cell::Cell<u32>);

    impl CancelCheck for CancelAfter<'_> {
        fn poll_cancelled(self) -> bool {
            self.0.set(self.0.get().saturating_sub(1));
            self.0.get() == 0
        }
        fn cancelled_now(self) -> bool {
            self.0.get() == 0
        }
    }

    #[test]
    fn a_session_cancelled_mid_ier_answers_next_like_a_fresh_one() {
        // Cancel the session's IER-kNN at every poll in turn, so some
        // cancels land with the label table pinned on a candidate; the
        // session's next answers and work counts must not notice.
        let g = grid(9, 9);
        let engine = Engine::new(&g).with_labels();
        let token = CancelToken::new();
        let snap = engine.snapshot();
        let p: Vec<u32> = (0..81).step_by(2).collect();
        let q = vec![3u32, 17, 40, 62, 77, 8];
        let other_q = vec![0u32, 44, 80];
        let mut cancelled = 0;
        for polls in 1..48 {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let mut session = engine.session(&token);
                let prep = engine.prepare(&snap, &p, &q, 0.5, agg).unwrap();
                assert_eq!(prep.strategy, Strategy::IerKnnLabels);
                let left = std::cell::Cell::new(polls);
                let cut = Engine::answer(&snap, &prep, &mut session.state, (), CancelAfter(&left));
                match cut {
                    Err(QueryError::Cancelled) => cancelled += 1,
                    other => assert_eq!(other, engine.query(&p, &q, 0.5, agg)),
                }
                for qq in [&q, &other_q] {
                    let warm = session.query(&p, qq, 0.5, agg).unwrap();
                    let fresh = engine.session(&token).query(&p, qq, 0.5, agg).unwrap();
                    assert_eq!((warm.0, warm.1), (fresh.0, fresh.1), "polls {polls} {agg}");
                }
            }
        }
        assert!(cancelled > 2, "no cancel landed mid-search");
    }

    #[test]
    fn a_session_stays_exact_across_label_republication() {
        // One session through fresh labels, stale labels guarding an
        // increase or a decrease, and labels a repair republished.
        let g = grid(6, 6);
        let engine = Engine::new(&g).with_labels();
        let token = CancelToken::new();
        let mut session = engine.session(&token);
        // A lone candidate leaves the table pinned on it, and the next
        // stage starts from that same source: 7, an end of the edge
        // that changes.
        let many: Vec<u32> = (0..36).step_by(3).collect();
        let q = vec![1u32, 14, 22, 35, 8];
        let check = |session: &mut QuerySession<'_>, stage: &str| {
            for p in [&[7][..], &many, &[7]] {
                for agg in [Aggregate::Sum, Aggregate::Max] {
                    let query = FannQuery::new(p, &q, 0.6, agg);
                    let truth = brute_force(engine.snapshot().graph(), &query).unwrap();
                    let (got, ..) = session.query(p, &q, 0.6, agg).unwrap();
                    assert_eq!(got.as_ref().unwrap().dist, truth.dist, "{stage} {agg}");
                    let fresh = engine.session(&token).query(p, &q, 0.6, agg).unwrap();
                    assert_eq!(got, fresh.0, "{stage} {agg}");
                }
            }
        };
        check(&mut session, "built");
        for w in [60, 10, 25] {
            let before = engine.snapshot().hub_labels().unwrap().clone();
            engine
                .apply_updates(&[WeightUpdate { u: 7, v: 8, w }])
                .unwrap();
            assert!(engine.is_stale());
            check(&mut session, &format!("stale w={w}"));
            engine.repair_indexes();
            assert!(!engine.is_stale());
            let after = engine.snapshot().hub_labels().unwrap().clone();
            assert!(!Arc::ptr_eq(&before, &after));
            check(&mut session, &format!("repaired w={w}"));
        }
    }

    #[test]
    fn session_follows_epoch_swaps_mid_stream() {
        let g = grid(5, 5);
        let token = CancelToken::new();
        for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
            let mut session = engine.session(&token);
            let p: Vec<u32> = (0..25).step_by(2).collect();
            let q = vec![1u32, 23];
            for round in 0..3 {
                for agg in [Aggregate::Sum, Aggregate::Max] {
                    let query = FannQuery::new(&p, &q, 1.0, agg);
                    let truth = brute_force(engine.snapshot().graph(), &query).unwrap();
                    let (got, ..) = session.query(&p, &q, 1.0, agg).unwrap();
                    let got = got.unwrap();
                    assert_eq!(got.dist, truth.dist, "round {round} {agg}");
                }
                engine
                    .apply_updates(&[WeightUpdate {
                        u: 1,
                        v: 2,
                        w: 40 + round,
                    }])
                    .unwrap();
            }
        }
    }

    #[test]
    fn cached_answers_only_hits_and_counts_only_them() {
        let g = grid(5, 5);
        let p: Vec<u32> = (0..25).step_by(2).collect();
        let q = vec![23u32, 1, 1];
        assert_eq!(Engine::new(&g).cached(&p, &q, 0.5, Aggregate::Sum), None);

        let engine = Engine::new(&g).with_answer_cache(8);
        assert_eq!(engine.cached(&p, &q, 0.5, Aggregate::Sum), None, "cold");
        assert_eq!(engine.cached(&p, &q, 0.0, Aggregate::Sum), None, "invalid");
        let token = CancelToken::new();
        let (computed, _, outcome, _, strategy) = engine
            .session(&token)
            .query(&p, &q, 0.5, Aggregate::Sum)
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let hit = engine.cached(&p, &[1, 23], 0.5, Aggregate::Sum);
        assert_eq!(hit, Some((computed, strategy)));
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
