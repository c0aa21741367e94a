//! Query-locality layer: the epoch-keyed answer cache.
//!
//! Production FANN traffic is skewed — commute corridors and event venues
//! produce many near-identical `(Q, phi, g)` queries — so the engine keeps
//! a small cache of finished answers, keyed by the *canonical* query
//! signature (sorted, duplicate-free `P` and `Q`, plus `phi`, the
//! aggregate, and the strategy that answered). Canonical keys make
//! permuted or duplicated `P`/`Q` requests hit the same entry.
//!
//! ## Layout ("Simpler is More")
//!
//! One flat open-addressed slot table (linear probing, power-of-two size)
//! plus one shared append-only id arena holding every entry's canonical
//! key and answer subset. No per-entry allocation: a slot is a fixed-size
//! record of offsets into the arena. When the table or arena fills up the
//! whole cache is reset wholesale — no eviction lists, no LRU chains.
//!
//! Invalidation tombstones a slot (`Dead`) rather than emptying it, so
//! probe chains through it stay intact. Linear probing only terminates on
//! `Empty`, so tombstones are counted and the table is compacted in place
//! (live slots re-homed, dead ones dropped) whenever `live + dead`
//! crosses the load threshold — an empty slot therefore always terminates
//! a probe, and both probe loops are additionally hard-bounded at one
//! full table scan. Same-key refreshes reuse the entry's old subset span
//! in the arena when the new subset fits, so a hot key re-inserted every
//! epoch does not grow the arena.
//!
//! ## Coherence contract (see DESIGN.md §9)
//!
//! Every entry is stamped with the graph epoch its answer was computed on,
//! and a lookup hits **only** when the entry's stamp equals the querying
//! snapshot's epoch — so a hit is bit-identical to recomputing on that
//! snapshot, by construction, and an epoch bump implicitly invalidates the
//! whole cache.
//!
//! What makes the cache useful across epochs is *promotion*: when an
//! update batch publishes epoch `e+1`, entries stamped `e` whose answer
//! provably cannot depend on any touched edge are re-stamped `e+1`
//! ([`AnswerCache::on_update`]). The proof obligation is geometric: an
//! entry records the bounding rectangle `b_Q` of its query points and a
//! certified *dependence radius* `reach` (how far from `Q` the answering
//! run could possibly have looked — see `Engine`'s per-strategy choice);
//! with admissible weights (`w(u,v) >= scale * euclid(u, v)`), any path
//! from `Q` through a touched endpoint `x` is longer than
//! `scale * mdist(b_Q, x)`, so if that lower bound exceeds `reach` for
//! every touched endpoint, the network distances the answer was derived
//! from are unchanged and the entry is promoted. Everything else is
//! invalidated. Entries whose run cannot be bounded (approximate answers,
//! `None` answers) record [`NO_REACH`] and are never promoted.

use crate::FannAnswer;
use roadnet::{Dist, NodeId};
use spatial_rtree::{Mbr, Pt};
use std::sync::Mutex;

/// Sentinel dependence radius: the entry is never promoted across an
/// epoch bump (used for approximate answers and `None` answers, whose
/// exploration cannot be bounded by a finite certified radius).
pub const NO_REACH: Dist = Dist::MAX;

/// Monotone counters describing everything the cache has done; readable
/// at any time via [`AnswerCache::stats`] (the serve layer reports them
/// under `metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (entry present at the looked-up
    /// epoch).
    pub hits: u64,
    /// Lookups that found nothing usable (absent, or stamped with a
    /// different epoch).
    pub misses: u64,
    /// Entries written (first writes and overwrites).
    pub insertions: u64,
    /// Entries dropped by an update batch because their region
    /// intersected the batch's dependence region (or their epoch had
    /// already lapsed).
    pub invalidated: u64,
    /// Entries carried across an epoch bump by the region proof.
    pub retained: u64,
    /// Entries dropped wholesale because the table or arena filled up.
    pub evicted: u64,
    /// In-place table compactions that reclaimed tombstoned slots.
    pub rebuilds: u64,
}

/// A canonical cache key: `p` and `q` must be sorted and duplicate-free
/// (the engine canonicalizes before probing), `agg`/`strategy` are the
/// engine's discriminants for the aggregate and answering strategy.
#[derive(Debug, Clone, Copy)]
pub struct CacheKey<'a> {
    pub p: &'a [NodeId],
    pub q: &'a [NodeId],
    pub phi: f64,
    pub agg: u8,
    pub strategy: u8,
}

impl CacheKey<'_> {
    fn fingerprint(&self) -> u64 {
        // FNV-1a over the full key; the table stores the fingerprint for
        // cheap probe rejection, then compares the key exactly.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.p.len() as u64);
        for &v in self.p {
            eat(v as u64);
        }
        eat(self.q.len() as u64);
        for &v in self.q {
            eat(v as u64);
        }
        eat(self.phi.to_bits());
        eat(u64::from(self.agg) << 8 | u64::from(self.strategy));
        // Never return 0: slots use fp 0 as "empty".
        h | 1
    }
}

/// A successful lookup: the cached answer (bit-identical to what the
/// engine computed when it inserted the entry) plus the entry's
/// `phi·M·mdist(b_Q, p*)`-style lower bound on `d*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHit {
    pub answer: Option<FannAnswer>,
    /// Certified lower bound on the answer distance (0 for `None`
    /// answers); `answer.dist >= bound` always holds.
    pub bound: Dist,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    Live,
    Dead,
}

#[derive(Clone, Copy)]
struct Slot {
    state: SlotState,
    fp: u64,
    epoch: u64,
    // Key (ids live in the arena).
    phi_bits: u64,
    agg: u8,
    strategy: u8,
    key_off: u32,
    p_len: u32,
    q_len: u32,
    // Value (subset ids live in the arena).
    found: bool,
    p_star: NodeId,
    dist: Dist,
    sub_off: u32,
    sub_len: u32,
    bound: Dist,
    // Promotion metadata.
    mbr: Mbr,
    reach: Dist,
}

const EMPTY_SLOT: Slot = Slot {
    state: SlotState::Empty,
    fp: 0,
    epoch: 0,
    phi_bits: 0,
    agg: 0,
    strategy: 0,
    key_off: 0,
    p_len: 0,
    q_len: 0,
    found: false,
    p_star: 0,
    dist: 0,
    sub_off: 0,
    sub_len: 0,
    bound: 0,
    mbr: Mbr {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 0.0,
        max_y: 0.0,
    },
    reach: 0,
};

struct Table {
    slots: Vec<Slot>,
    arena: Vec<NodeId>,
    live: usize,
    /// Tombstoned slots ([`SlotState::Dead`]) not yet reclaimed; the
    /// compaction trigger is `live + dead` crossing the load threshold.
    dead: usize,
    stats: CacheStats,
}

/// The flat epoch-keyed answer cache (see the [module docs](self) for the
/// layout and the coherence contract). Shared by every engine clone;
/// internally synchronized, so lookups/inserts/promotions may race freely
/// — a lost insert is a future miss, never a wrong answer.
pub struct AnswerCache {
    table: Mutex<Table>,
    max_live: usize,
    arena_limit: usize,
}

impl AnswerCache {
    /// A cache holding up to `capacity` answers (minimum 1). The slot
    /// table is sized at twice the capacity (next power of two) so probe
    /// chains stay short; the id arena is budgeted proportionally.
    pub fn new(capacity: usize) -> Self {
        let max_live = capacity.max(1);
        let slots = (max_live * 2).next_power_of_two();
        AnswerCache {
            table: Mutex::new(Table {
                slots: vec![EMPTY_SLOT; slots],
                arena: Vec::new(),
                live: 0,
                dead: 0,
                stats: CacheStats::default(),
            }),
            max_live,
            // Generous per-entry id budget (canonical P + Q + subset);
            // blowing it resets the cache wholesale rather than tracking
            // per-entry frees.
            arena_limit: max_live.saturating_mul(4096).min(1 << 24),
        }
    }

    /// Maximum number of live entries.
    pub fn capacity(&self) -> usize {
        self.max_live
    }

    /// Live entries right now.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap().live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.table.lock().unwrap().stats
    }

    /// Slot occupancy `(live, dead, slots)`. `live + dead <= slots`
    /// always holds, and compaction keeps `live + dead` below the load
    /// threshold across inserts (exposed for the coherence tests).
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let t = self.table.lock().unwrap();
        (t.live, t.dead, t.slots.len())
    }

    /// Probe for `key` at `epoch` (the querying snapshot's epoch). An
    /// entry stamped with any other epoch is a miss — stale answers are
    /// unreachable by construction.
    pub fn lookup(&self, key: &CacheKey<'_>, epoch: u64) -> Option<CacheHit> {
        self.get(key, epoch, true)
    }

    /// [`AnswerCache::lookup`] that counts a hit but not a miss: for a
    /// caller whose miss goes on to a counting `lookup` of the same key
    /// (the serving tier's admission probe), so each query still adds
    /// exactly one to `hits + misses`.
    pub fn probe(&self, key: &CacheKey<'_>, epoch: u64) -> Option<CacheHit> {
        self.get(key, epoch, false)
    }

    fn get(&self, key: &CacheKey<'_>, epoch: u64, count_miss: bool) -> Option<CacheHit> {
        let fp = key.fingerprint();
        let mut t = self.table.lock().unwrap();
        let Some(idx) = find(&t, key, fp).filter(|&i| t.slots[i].epoch == epoch) else {
            if count_miss {
                t.stats.misses += 1;
            }
            return None;
        };
        let s = t.slots[idx];
        t.stats.hits += 1;
        let answer = s.found.then(|| FannAnswer {
            p_star: s.p_star,
            dist: s.dist,
            subset: t.arena[s.sub_off as usize..(s.sub_off + s.sub_len) as usize].to_vec(),
        });
        Some(CacheHit {
            answer,
            bound: s.bound,
        })
    }

    /// Store the answer computed for `key` on the snapshot at `epoch`.
    /// `bound` is the certified lower bound on the answer distance,
    /// `q_mbr` the bounding rectangle of the (canonical) query points, and
    /// `reach` the strategy's certified dependence radius ([`NO_REACH`]
    /// to forbid promotion). Overwrites any previous entry for the key.
    pub fn insert(
        &self,
        key: &CacheKey<'_>,
        epoch: u64,
        answer: Option<&FannAnswer>,
        bound: Dist,
        q_mbr: Mbr,
        reach: Dist,
    ) {
        let fp = key.fingerprint();
        let mut t = self.table.lock().unwrap();
        let subset: &[NodeId] = answer.map_or(&[], |a| &a.subset);
        let need = key.p.len() + key.q.len() + subset.len();
        if t.arena.len() + need > self.arena_limit {
            reset(&mut t);
        }
        let (idx, key_off, old_span) = match find(&t, key, fp) {
            // Same key: reuse its arena copy, just refresh the value.
            Some(idx) => {
                let s = t.slots[idx];
                (idx, s.key_off, Some((s.sub_off, s.sub_len)))
            }
            None => {
                if t.live >= self.max_live {
                    // Full: wholesale reset (flat cache, no LRU chains).
                    reset(&mut t);
                } else if t.live + t.dead >= t.slots.len() / 2 {
                    // Tombstones crowd the probe chains: compact in place
                    // so an empty slot always terminates a probe.
                    rebuild(&mut t);
                }
                let idx = match find_insert_slot(&t, fp) {
                    Some(idx) => idx,
                    // Unreachable after the occupancy maintenance above;
                    // backstop so a counter bug degrades to an eviction,
                    // never an unbounded probe.
                    None => {
                        reset(&mut t);
                        find_insert_slot(&t, fp).expect("empty table has a free slot")
                    }
                };
                if t.slots[idx].state == SlotState::Dead {
                    t.dead -= 1;
                }
                let key_off = t.arena.len() as u32;
                t.arena.extend_from_slice(key.p);
                t.arena.extend_from_slice(key.q);
                t.live += 1;
                (idx, key_off, None)
            }
        };
        // A same-key refresh overwrites the old subset span when the new
        // subset fits (a hot key re-inserted every epoch no longer grows
        // the arena until a wholesale reset); otherwise append.
        let sub_off = match old_span {
            Some((old_off, old_len)) if subset.len() <= old_len as usize => {
                let off = old_off as usize;
                t.arena[off..off + subset.len()].copy_from_slice(subset);
                old_off
            }
            _ => {
                let off = t.arena.len() as u32;
                t.arena.extend_from_slice(subset);
                off
            }
        };
        t.slots[idx] = Slot {
            state: SlotState::Live,
            fp,
            epoch,
            phi_bits: key.phi.to_bits(),
            agg: key.agg,
            strategy: key.strategy,
            key_off,
            p_len: key.p.len() as u32,
            q_len: key.q.len() as u32,
            found: answer.is_some(),
            p_star: answer.map_or(0, |a| a.p_star),
            dist: answer.map_or(0, |a| a.dist),
            sub_off,
            sub_len: subset.len() as u32,
            bound,
            mbr: q_mbr,
            reach,
        };
        t.stats.insertions += 1;
    }

    /// An update batch published `new_epoch`, replacing `prev_epoch`, and
    /// touched the edge endpoints in `touched` (both endpoints of every
    /// re-weighted edge). Entries stamped `prev_epoch` are promoted to
    /// `new_epoch` when the admissibility bound proves every touched
    /// endpoint lies strictly beyond their dependence radius:
    /// `scale * mdist(b_Q, x) > reach` for all `x`. Everything else from
    /// `prev_epoch` — and any older stragglers — is invalidated.
    ///
    /// The engine calls this under its writer lock, so batches apply in
    /// publication order and a promoted entry has survived every batch
    /// between its birth epoch and `new_epoch`.
    pub fn on_update(&self, prev_epoch: u64, new_epoch: u64, touched: &[Pt], scale: f64) {
        let mut t = self.table.lock().unwrap();
        for i in 0..t.slots.len() {
            let s = &t.slots[i];
            if s.state != SlotState::Live || s.epoch == new_epoch {
                // Entries already at the new epoch were computed on the
                // new snapshot by a racing reader; leave them.
                continue;
            }
            let promote = s.epoch == prev_epoch
                && s.reach != NO_REACH
                && touched
                    .iter()
                    .all(|&x| scale * s.mbr.mindist_point(x) > s.reach as f64);
            if promote {
                t.slots[i].epoch = new_epoch;
                t.stats.retained += 1;
            } else {
                t.slots[i].state = SlotState::Dead;
                t.live -= 1;
                t.dead += 1;
                t.stats.invalidated += 1;
            }
        }
    }

    /// Drop every entry (counted as invalidated).
    pub fn invalidate_all(&self) {
        let mut t = self.table.lock().unwrap();
        let live = t.live as u64;
        t.stats.invalidated += live;
        t.slots.fill(EMPTY_SLOT);
        t.arena.clear();
        t.live = 0;
        t.dead = 0;
    }
}

/// Linear-probe for the slot holding `key`, if any. Probes at most one
/// full table scan: compaction keeps an empty slot on every chain, but
/// the bound is the hard backstop against a table with no `Empty` slot
/// (tombstone saturation used to spin here forever).
fn find(t: &Table, key: &CacheKey<'_>, fp: u64) -> Option<usize> {
    let mask = t.slots.len() - 1;
    let mut idx = (fp as usize) & mask;
    for _ in 0..t.slots.len() {
        let s = &t.slots[idx];
        match s.state {
            SlotState::Empty => return None,
            SlotState::Live if s.fp == fp && key_matches(t, s, key) => return Some(idx),
            _ => idx = (idx + 1) & mask,
        }
    }
    None
}

fn key_matches(t: &Table, s: &Slot, key: &CacheKey<'_>) -> bool {
    if s.phi_bits != key.phi.to_bits()
        || s.agg != key.agg
        || s.strategy != key.strategy
        || s.p_len as usize != key.p.len()
        || s.q_len as usize != key.q.len()
    {
        return false;
    }
    let off = s.key_off as usize;
    let p_end = off + s.p_len as usize;
    let q_end = p_end + s.q_len as usize;
    t.arena[off..p_end] == *key.p && t.arena[p_end..q_end] == *key.q
}

/// First empty or dead slot on `fp`'s probe chain, bounded at one full
/// table scan (`None` only if every slot is live, which occupancy
/// maintenance prevents).
fn find_insert_slot(t: &Table, fp: u64) -> Option<usize> {
    let mask = t.slots.len() - 1;
    let mut idx = (fp as usize) & mask;
    for _ in 0..t.slots.len() {
        match t.slots[idx].state {
            SlotState::Empty | SlotState::Dead => return Some(idx),
            SlotState::Live => idx = (idx + 1) & mask,
        }
    }
    None
}

/// Re-home every live slot into a tombstone-free table of the same size.
/// Linear probing only terminates on `Empty`, so tombstones must be
/// reclaimed before they saturate every probe chain; the arena is left
/// as-is (its growth is bounded separately by `arena_limit`).
fn rebuild(t: &mut Table) {
    let fresh = vec![EMPTY_SLOT; t.slots.len()];
    let old = std::mem::replace(&mut t.slots, fresh);
    t.dead = 0;
    for s in old {
        if s.state == SlotState::Live {
            let idx = find_insert_slot(t, s.fp).expect("live slots fit after dropping tombstones");
            t.slots[idx] = s;
        }
    }
    t.stats.rebuilds += 1;
}

fn reset(t: &mut Table) {
    t.stats.evicted += t.live as u64;
    t.slots.fill(EMPTY_SLOT);
    t.arena.clear();
    t.live = 0;
    t.dead = 0;
}

/// Bounding rectangle of a set of graph coordinates — the cached `b_Q`.
pub fn mbr_of(coords: impl IntoIterator<Item = (f64, f64)>) -> Mbr {
    let mut mbr = Mbr::empty();
    for (x, y) in coords {
        mbr.extend(Pt::new(x, y));
    }
    mbr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key<'a>(p: &'a [NodeId], q: &'a [NodeId], phi: f64) -> CacheKey<'a> {
        CacheKey {
            p,
            q,
            phi,
            agg: 0,
            strategy: 1,
        }
    }

    fn answer(p_star: NodeId, dist: Dist) -> FannAnswer {
        FannAnswer {
            p_star,
            subset: vec![7, 9],
            dist,
        }
    }

    fn unit_mbr() -> Mbr {
        Mbr {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 1.0,
            max_y: 1.0,
        }
    }

    #[test]
    fn miss_then_hit_roundtrips_answer() {
        let cache = AnswerCache::new(8);
        let k = key(&[1, 2, 3], &[4, 5], 0.5);
        assert!(cache.lookup(&k, 0).is_none());
        let a = answer(2, 42);
        cache.insert(&k, 0, Some(&a), 40, unit_mbr(), 42);
        let hit = cache.lookup(&k, 0).expect("hit");
        assert_eq!(hit.answer.as_ref(), Some(&a));
        assert_eq!(hit.bound, 40);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn probe_counts_hits_but_not_misses() {
        let cache = AnswerCache::new(8);
        let k = key(&[1, 2, 3], &[4, 5], 0.5);
        assert!(cache.probe(&k, 0).is_none(), "absent");
        let a = answer(2, 42);
        cache.insert(&k, 0, Some(&a), 40, unit_mbr(), 42);
        assert!(cache.probe(&k, 1).is_none(), "other epoch");
        assert_eq!(cache.probe(&k, 0), cache.lookup(&k, 0));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 0));
    }

    #[test]
    fn epoch_mismatch_is_a_miss() {
        let cache = AnswerCache::new(8);
        let k = key(&[1], &[2], 1.0);
        cache.insert(&k, 3, Some(&answer(1, 9)), 0, unit_mbr(), 9);
        assert!(cache.lookup(&k, 4).is_none(), "future epoch");
        assert!(cache.lookup(&k, 2).is_none(), "past epoch");
        assert!(cache.lookup(&k, 3).is_some());
    }

    #[test]
    fn none_answers_are_cacheable() {
        let cache = AnswerCache::new(8);
        let k = key(&[1], &[2], 1.0);
        cache.insert(&k, 0, None, 0, unit_mbr(), NO_REACH);
        let hit = cache.lookup(&k, 0).expect("hit");
        assert_eq!(hit.answer, None);
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = AnswerCache::new(8);
        let a = answer(1, 10);
        cache.insert(&key(&[1, 2], &[3], 0.5), 0, Some(&a), 0, unit_mbr(), 10);
        assert!(cache.lookup(&key(&[1, 2], &[4], 0.5), 0).is_none());
        assert!(cache.lookup(&key(&[1], &[3], 0.5), 0).is_none());
        assert!(cache.lookup(&key(&[1, 2], &[3], 0.75), 0).is_none());
        let mut k2 = key(&[1, 2], &[3], 0.5);
        k2.agg = 1;
        assert!(cache.lookup(&k2, 0).is_none());
        let mut k3 = key(&[1, 2], &[3], 0.5);
        k3.strategy = 2;
        assert!(cache.lookup(&k3, 0).is_none());
        assert!(cache.lookup(&key(&[1, 2], &[3], 0.5), 0).is_some());
    }

    #[test]
    fn promotion_carries_far_entries_and_drops_near_ones() {
        let cache = AnswerCache::new(8);
        // Entry around the origin with dependence radius 10.
        let near = key(&[1], &[2], 1.0);
        cache.insert(&near, 0, Some(&answer(1, 10)), 0, unit_mbr(), 10);
        // Entry with reach NO_REACH: never promoted.
        let pinned = key(&[1], &[3], 1.0);
        cache.insert(&pinned, 0, None, 0, unit_mbr(), NO_REACH);
        // Touched endpoint at x = 100: scale 1.0 * mdist(~99) > 10 —
        // promote the first entry; the second is invalidated.
        cache.on_update(0, 1, &[Pt::new(100.0, 0.0)], 1.0);
        assert!(cache.lookup(&near, 1).is_some(), "promoted");
        assert!(cache.lookup(&pinned, 1).is_none(), "not promotable");
        let s = cache.stats();
        assert_eq!((s.retained, s.invalidated), (1, 1));
        // A touched endpoint inside the radius invalidates.
        cache.on_update(1, 2, &[Pt::new(5.0, 0.0)], 1.0);
        assert!(cache.lookup(&near, 2).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn promotion_requires_strict_clearance() {
        let cache = AnswerCache::new(8);
        let k = key(&[1], &[2], 1.0);
        cache.insert(&k, 0, Some(&answer(1, 10)), 0, unit_mbr(), 10);
        // mdist from the unit box to x=11 is exactly 10: not strictly
        // beyond reach 10 — must invalidate.
        cache.on_update(0, 1, &[Pt::new(11.0, 0.0)], 1.0);
        assert!(cache.lookup(&k, 1).is_none());
    }

    #[test]
    fn lapsed_epochs_are_invalidated_not_promoted() {
        let cache = AnswerCache::new(8);
        let k = key(&[1], &[2], 1.0);
        // Stamped epoch 0, but the current bump replaces epoch 5: the
        // entry missed intermediate batches (stale-stamped insert) and
        // must not be promoted no matter how far the touched region is.
        cache.insert(&k, 0, Some(&answer(1, 1)), 0, unit_mbr(), 1);
        cache.on_update(5, 6, &[Pt::new(1e9, 0.0)], 1.0);
        assert!(cache.lookup(&k, 6).is_none());
    }

    #[test]
    fn overwrite_same_key_updates_value() {
        let cache = AnswerCache::new(8);
        let k = key(&[1, 2], &[3, 4], 0.5);
        cache.insert(&k, 0, Some(&answer(1, 10)), 0, unit_mbr(), 10);
        cache.insert(&k, 1, Some(&answer(2, 20)), 0, unit_mbr(), 20);
        assert!(cache.lookup(&k, 0).is_none(), "old epoch gone");
        let hit = cache.lookup(&k, 1).expect("hit");
        assert_eq!(hit.answer.unwrap().p_star, 2);
        assert_eq!(cache.len(), 1, "overwrite, not a second entry");
    }

    #[test]
    fn capacity_overflow_resets_wholesale() {
        let cache = AnswerCache::new(2);
        let a = answer(1, 1);
        let qs: Vec<[NodeId; 1]> = (0..3).map(|i| [i as NodeId]).collect();
        for q in &qs {
            cache.insert(&key(&[1], q, 1.0), 0, Some(&a), 0, unit_mbr(), 1);
        }
        // Third insert reset the table first: only the newest survives.
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(&[1], &qs[2], 1.0), 0).is_some());
        assert!(cache.stats().evicted >= 2);
    }

    #[test]
    fn tombstone_churn_never_saturates_the_table() {
        // Epoch churn invalidates every entry each round; the dead slots
        // must be compacted away so absent-key probes keep terminating on
        // an Empty slot (this pattern used to saturate the table and spin
        // `find` forever).
        let cache = AnswerCache::new(4); // slots = 8
        let mut id: NodeId = 0;
        for round in 0..100 {
            for _ in 0..3 {
                id += 1;
                let q = [id];
                cache.insert(&key(&[0], &q, 1.0), round, None, 0, unit_mbr(), NO_REACH);
            }
            cache.on_update(round, round + 1, &[Pt::new(0.0, 0.0)], 1.0);
            let (live, dead, slots) = cache.occupancy();
            assert!(live + dead <= slots, "{live} + {dead} > {slots}");
        }
        assert!(cache.lookup(&key(&[0], &[u32::MAX], 1.0), 100).is_none());
        let s = cache.stats();
        assert!(s.rebuilds > 0, "compaction never ran");
        assert_eq!(s.evicted, 0, "capacity was never exceeded");
    }

    #[test]
    fn same_key_refresh_does_not_grow_arena() {
        // capacity 1 => arena_limit 4096 ids. Refreshing one hot key many
        // times used to append a fresh subset span per insert and force
        // periodic wholesale resets once the arena filled.
        let cache = AnswerCache::new(1);
        let k = key(&[1, 2], &[3, 4], 0.5);
        for epoch in 0..10_000 {
            cache.insert(&k, epoch, Some(&answer(1, 7)), 0, unit_mbr(), 7);
        }
        assert_eq!(cache.stats().evicted, 0, "arena leak forced a reset");
        let hit = cache.lookup(&k, 9_999).expect("hit");
        assert_eq!(hit.answer.unwrap().subset, vec![7, 9]);
    }

    #[test]
    fn refresh_with_shorter_subset_reuses_span() {
        let cache = AnswerCache::new(4);
        let k = key(&[1, 2, 3], &[4], 1.0);
        let long = FannAnswer {
            p_star: 1,
            subset: vec![1, 2, 3],
            dist: 5,
        };
        let short = FannAnswer {
            p_star: 2,
            subset: vec![9],
            dist: 3,
        };
        cache.insert(&k, 0, Some(&long), 0, unit_mbr(), 5);
        cache.insert(&k, 1, Some(&short), 0, unit_mbr(), 3);
        let hit = cache.lookup(&k, 1).expect("hit");
        assert_eq!(hit.answer.unwrap().subset, vec![9]);
    }

    #[test]
    fn invalidate_all_clears() {
        let cache = AnswerCache::new(8);
        let k = key(&[1], &[2], 1.0);
        cache.insert(&k, 0, Some(&answer(1, 1)), 0, unit_mbr(), 1);
        cache.invalidate_all();
        assert!(cache.lookup(&k, 0).is_none());
        assert_eq!(cache.len(), 0);
    }
}
