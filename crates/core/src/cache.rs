//! The selectivity-aware plan cache behind `Engine::prepare` / `Engine::bind`.
//!
//! Entries are keyed by the optimizer choice and a canonical query
//! fingerprint (normalized spec, assembled by the engine) and store the
//! optimized plan **together with the selectivity envelope it was optimized
//! for**: one `(name, lo, hi)` band per relation. A bind whose re-estimated
//! per-relation selectivities stay inside the envelope is served the cached
//! plan without touching the optimizer; a bind that leaves the envelope — the
//! regime where the paper shows join order and bitvector placements flip
//! (Ding et al., SIGMOD 2020, §5–6; the extended version's robustness
//! analysis, arXiv:2005.03328) — transparently re-optimizes and replaces the
//! entry.
//!
//! One cache serves one engine: it lives in the engine's shared state, so
//! the engine's clones, sessions and `Server` dispatchers all resolve
//! through it, and it is read through [`PlanCache::cache_stats`]. The
//! entries, the counters and the LRU clock sit behind one mutex, whose
//! critical section covers the map access and the envelope check, never the
//! optimizer run — racing misses on the same key both optimize and the last
//! insert wins, which is harmless because optimization is deterministic.

use bqo_plan::{JoinGraph, PhysicalPlan, RelId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Multiplicative tolerance of the stored selectivity envelope: a cached plan
/// keeps serving binds whose per-relation local selectivities stay within
/// `[s/4, 4s]` of the selectivities it was optimized for.
pub(crate) const DEFAULT_ENVELOPE_RATIO: f64 = 4.0;

/// Default [`CacheStats::capacity`]: the maximum number of cached plans before
/// least-recently-used entries are evicted. Parameterized templates share one
/// entry per template, so this comfortably covers a serving workload's
/// distinct statement shapes while bounding memory for ad-hoc literal
/// traffic.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// How a `PreparedStatement` was obtained from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No entry existed — the optimizer ran and the plan was inserted.
    Miss,
    /// A cached plan covered the bind's selectivities — the optimizer was
    /// skipped entirely.
    Hit,
    /// An entry existed but the bind's selectivities left its envelope — the
    /// optimizer re-ran and the entry was replaced.
    Reoptimized,
    /// The cache was not consulted: the statement wraps a hand-built plan
    /// (`Engine::prepare_plan`).
    Bypassed,
}

#[derive(Debug)]
struct CachedPlan {
    plan: Arc<PhysicalPlan>,
    /// One `(name, lo, hi)` per relation, in the `RelId` order of the graph
    /// the plan was optimized against, with `[lo, hi]` the band
    /// `[s/ratio, min(s·ratio, 1)]` around the relation's local selectivity
    /// `s` then. The list is both the envelope and the renumbering map:
    /// physical plans reference relations positionally while fingerprints
    /// are order-invariant, so a bind that lists the same tables in another
    /// order is served the plan renumbered to its ids.
    relations: Vec<(Arc<str>, f64, f64)>,
    /// Logical timestamp of the entry's last lookup (hit or replacement);
    /// the LRU eviction key.
    last_used: u64,
}

impl CachedPlan {
    /// `graph`'s id for each of the plan's relations, or `None` — an exit —
    /// if `graph` has other relations or one of their local selectivities
    /// left its band.
    fn renumbering(&self, graph: &JoinGraph) -> Option<Vec<RelId>> {
        if self.relations.len() != graph.num_relations() {
            return None;
        }
        let ids = self.relations.iter().map(|(name, lo, hi)| {
            let id = graph.relation_by_name(name)?;
            let s = graph.relation(id).local_selectivity();
            (*lo <= s && s <= *hi).then_some(id)
        });
        ids.collect()
    }
}

/// Everything the cache's one lock guards.
#[derive(Debug, Default)]
struct State {
    entries: HashMap<String, CachedPlan>,
    hits: u64,
    misses: u64,
    reoptimizations: u64,
    evictions: u64,
    /// Logical clock stamping entry usage (one tick per lookup or insert).
    clock: u64,
}

impl State {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A consistent snapshot of a [`PlanCache`]'s counters and occupancy, as
/// returned by [`PlanCache::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache without running the optimizer.
    pub hits: u64,
    /// Lookups that found no entry and ran the optimizer.
    pub misses: u64,
    /// Lookups that found an entry but re-optimized (envelope exit).
    pub reoptimizations: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Number of currently cached plans.
    pub len: usize,
    /// Maximum number of cached plans before LRU eviction kicks in.
    pub capacity: usize,
}

/// An engine's thread-safe cache of optimized plans with per-entry
/// selectivity envelopes, reached through `Engine::plan_cache`.
///
/// The cache is bounded: at most 256 plans are retained, and inserting
/// beyond that evicts the least-recently-used entry
/// ([`CacheStats::evictions`] records how often). High-cardinality literal values should still be expressed as
/// parameterized templates (all binds of one template share a single entry)
/// rather than as per-value literal specs — eviction bounds memory, but an
/// evicted plan costs a fresh optimizer run on its next use.
#[derive(Debug)]
pub struct PlanCache {
    state: Mutex<State>,
    capacity: usize,
}

impl PlanCache {
    /// An empty cache with the default capacity of 256 plans.
    pub(crate) fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An empty cache with an explicit capacity bound (clamped to at least 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            state: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: an update of the entries, counters or LRU clock panicked elsewhere; serving stale-or-torn plans or stats is worse than aborting"
    )]
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("plan cache poisoned")
    }

    /// A snapshot of counters and occupancy, taken under the cache's lock:
    /// every field describes the same moment.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            reoptimizations: state.reoptimizations,
            evictions: state.evictions,
            len: state.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every cached plan. Counters are preserved (they describe
    /// lifetime traffic, not current contents).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// Resolves `key` for a bind whose re-estimated statistics are `graph`:
    /// serves the cached plan on an envelope-covered hit (renumbered to the
    /// bind's relation ids when the spec listed its tables in a different
    /// order), otherwise runs `optimize` and (re-)inserts the plan with a
    /// fresh envelope around the bind's selectivities.
    ///
    /// The lock is *not* held while `optimize` runs; concurrent misses on
    /// one key may optimize redundantly, but optimization is deterministic so
    /// whichever insert lands last leaves the same plan.
    pub(crate) fn resolve(
        &self,
        key: &str,
        graph: &JoinGraph,
        optimize: impl FnOnce() -> PhysicalPlan,
    ) -> (Arc<PhysicalPlan>, CacheStatus) {
        let status = {
            let mut guard = self.lock();
            let state = &mut *guard;
            // Touch on every lookup (hit or replacement): an entry the
            // traffic keeps asking about is not the one to evict.
            let now = state.tick();
            match state.entries.get_mut(key) {
                None => CacheStatus::Miss,
                Some(entry) => {
                    entry.last_used = now;
                    if let Some(map) = entry.renumbering(graph) {
                        state.hits += 1;
                        let plan = entry.plan.clone();
                        drop(guard);
                        return (renumbered(plan, &map), CacheStatus::Hit);
                    }
                    CacheStatus::Reoptimized
                }
            }
        };
        let plan = Arc::new(optimize());
        let relations = graph.relations().iter().map(|r| {
            let s = r.local_selectivity();
            let hi = (s * DEFAULT_ENVELOPE_RATIO).min(1.0);
            (r.name.clone(), s / DEFAULT_ENVELOPE_RATIO, hi)
        });
        let relations = relations.collect();
        let mut guard = self.lock();
        let state = &mut *guard;
        // Stamp the insertion with a *fresh* tick: the lookup's stamp
        // predates the (potentially slow) optimizer run, and concurrent
        // traffic may have touched every other entry since — reusing it
        // would make the just-optimized entry the LRU victim of its own
        // insertion.
        let entry = CachedPlan {
            plan: plan.clone(),
            relations,
            last_used: state.tick(),
        };
        state.entries.insert(key.to_string(), entry);
        // LRU eviction: drop least-recently-used entries until the capacity
        // bound holds again. The just-inserted entry carries the newest
        // stamp, so it always survives its own insertion.
        while state.entries.len() > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "invariant: the eviction loop only runs while `len > capacity`, and a non-empty map has a minimum"
            )]
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("cache over capacity implies a victim");
            state.entries.remove(&victim);
            state.evictions += 1;
        }
        match status {
            CacheStatus::Reoptimized => state.reoptimizations += 1,
            _ => state.misses += 1,
        }
        (plan, status)
    }
}

/// `plan` with relation `i` renumbered to `map[i]`: the shared allocation
/// itself when the numbering already agrees.
fn renumbered(plan: Arc<PhysicalPlan>, map: &[RelId]) -> Arc<PhysicalPlan> {
    if map.iter().enumerate().all(|(i, r)| r.index() == i) {
        plan
    } else {
        Arc::new(plan.remap_relations(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::{JoinEdge, RelationInfo};

    fn star(dim_filtered: f64) -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1000.0, 1000.0));
        let d = g.add_relation(RelationInfo::new("d", 100.0, dim_filtered));
        g.add_edge(JoinEdge::pkfk(fact, "d_sk", d, "sk", 100.0));
        g
    }

    fn dummy_plan() -> PhysicalPlan {
        PhysicalPlan::new()
    }

    /// `(len, evictions)` of one snapshot.
    fn occupancy(cache: &PlanCache) -> (usize, u64) {
        let stats = cache.cache_stats();
        (stats.len, stats.evictions)
    }

    #[test]
    fn miss_then_hit_then_envelope_exit() {
        let cache = PlanCache::new();
        let g = star(5.0);
        let (_, status) = cache.resolve("k", &g, dummy_plan);
        assert_eq!(status, CacheStatus::Miss);
        // Same selectivity: hit, optimizer closure must not run.
        let (_, status) = cache.resolve("k", &g, || unreachable!("hit must skip optimization"));
        assert_eq!(status, CacheStatus::Hit);
        // Nearby selectivity (5% -> 10%, within ratio 4): still a hit.
        let (_, status) = cache.resolve("k", &star(10.0), || {
            unreachable!("in-envelope bind must skip optimization")
        });
        assert_eq!(status, CacheStatus::Hit);
        // Far selectivity (5% -> 90%): envelope exit, re-optimize.
        let (_, status) = cache.resolve("k", &star(90.0), dummy_plan);
        assert_eq!(status, CacheStatus::Reoptimized);
        // The entry was replaced: the new envelope covers 90%, not 5%.
        let (_, status) = cache.resolve("k", &star(90.0), || unreachable!());
        assert_eq!(status, CacheStatus::Hit);
        let (_, status) = cache.resolve("k", &star(5.0), dummy_plan);
        assert_eq!(status, CacheStatus::Reoptimized);

        let stats = cache.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.reoptimizations), (3, 1, 2));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn hit_under_permuted_relation_order_renumbers_the_plan() {
        use bqo_plan::{PhysicalNode, RelId};
        let cache = PlanCache::new();
        let g = star(5.0); // fact = R0, d = R1
        let mut plan = PhysicalPlan::new();
        let scan = plan.add_node(PhysicalNode::Scan { relation: RelId(0) });
        plan.set_root(scan);
        assert_eq!(cache.resolve("k", &g, move || plan).1, CacheStatus::Miss);

        // The same relations and selectivities, numbered in reverse (as a
        // spec listing `d` before `fact` would resolve them).
        let mut permuted = JoinGraph::new();
        let d = permuted.add_relation(RelationInfo::new("d", 100.0, 5.0));
        let fact = permuted.add_relation(RelationInfo::new("fact", 1000.0, 1000.0));
        permuted.add_edge(JoinEdge::pkfk(fact, "d_sk", d, "sk", 100.0));
        let (served, status) = cache.resolve("k", &permuted, || unreachable!("hit"));
        assert_eq!(status, CacheStatus::Hit);
        // The served plan's fact scan now uses the permuted graph's id.
        assert_eq!(
            served.node(served.root()),
            &PhysicalNode::Scan { relation: fact }
        );
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = PlanCache::new();
        let g = star(5.0);
        assert_eq!(cache.resolve("a", &g, dummy_plan).1, CacheStatus::Miss);
        assert_eq!(cache.resolve("b", &g, dummy_plan).1, CacheStatus::Miss);
        assert_eq!(cache.cache_stats().len, 2);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new();
        let g = star(5.0);
        cache.resolve("k", &g, dummy_plan);
        cache.resolve("k", &g, dummy_plan);
        let counters = |c: &PlanCache| (c.cache_stats().hits, c.cache_stats().misses);
        assert_eq!(counters(&cache), (1, 1));
        cache.clear();
        assert_eq!(cache.cache_stats().len, 0);
        assert_eq!(counters(&cache), (1, 1));
        // Re-resolving after clear is a miss again.
        assert_eq!(cache.resolve("k", &g, dummy_plan).1, CacheStatus::Miss);
    }

    #[test]
    fn capacity_is_clamped_and_defaults_apply() {
        let capacity = |cache: PlanCache| cache.cache_stats().capacity;
        assert_eq!(capacity(PlanCache::new()), DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(capacity(PlanCache::with_capacity(0)), 1);
        assert_eq!(capacity(PlanCache::with_capacity(8)), 8);
    }

    #[test]
    fn lru_eviction_bounds_the_cache_and_counts() {
        let cache = PlanCache::with_capacity(2);
        let g = star(5.0);
        cache.resolve("a", &g, dummy_plan);
        cache.resolve("b", &g, dummy_plan);
        assert_eq!(occupancy(&cache), (2, 0));
        // Touch "a" so "b" becomes the least recently used entry...
        assert_eq!(
            cache.resolve("a", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
        // ...then overflow: "b" is evicted, "a" survives.
        cache.resolve("c", &g, dummy_plan);
        assert_eq!(occupancy(&cache), (2, 1));
        assert_eq!(
            cache.resolve("a", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
        assert_eq!(cache.resolve("b", &g, dummy_plan).1, CacheStatus::Miss);
        // Re-resolving "b" overflowed again: "c" (least recent) was evicted.
        assert_eq!(occupancy(&cache), (2, 2));
        assert_eq!(cache.resolve("c", &g, dummy_plan).1, CacheStatus::Miss);

        let stats = cache.cache_stats();
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        assert_eq!((stats.hits, stats.misses), (2, 5));
    }

    #[test]
    fn slow_optimization_does_not_evict_its_own_insertion() {
        // Regression: the insertion stamp must be taken *after* the optimizer
        // ran. Traffic that touches every other entry while a new key
        // optimizes (simulated by re-entrant resolves inside the optimize
        // closure — the map lock is not held there) must not make the new
        // entry the LRU victim of its own insertion.
        let cache = PlanCache::with_capacity(2);
        let g = star(5.0);
        cache.resolve("a", &g, dummy_plan);
        cache.resolve("b", &g, dummy_plan);
        let (_, status) = cache.resolve("c", &g, || {
            assert_eq!(
                cache.resolve("a", &g, || unreachable!()).1,
                CacheStatus::Hit
            );
            assert_eq!(
                cache.resolve("b", &g, || unreachable!()).1,
                CacheStatus::Hit
            );
            dummy_plan()
        });
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(
            cache.resolve("c", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
        assert_eq!(occupancy(&cache), (2, 1));
    }

    #[test]
    fn capacity_one_keeps_the_newest_entry() {
        let cache = PlanCache::with_capacity(1);
        let g = star(5.0);
        cache.resolve("a", &g, dummy_plan);
        cache.resolve("b", &g, dummy_plan);
        assert_eq!(occupancy(&cache), (1, 1));
        assert_eq!(
            cache.resolve("b", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
    }

    /// fact(1M rows) with dims d1 (100 rows, 10 after filter),
    /// d2 (1000 rows, unfiltered), d3 (10 rows, 2 after filter).
    fn star3() -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for (name, rows, filtered) in [
            ("d1", 100.0, 10.0),
            ("d2", 1000.0, 1000.0),
            ("d3", 10.0, 2.0),
        ] {
            let d = g.add_relation(RelationInfo::new(name, rows, filtered));
            g.add_edge(JoinEdge::pkfk(fact, format!("{name}_sk"), d, "sk", rows));
        }
        g
    }

    /// `star3` with `name`'s filtered rows set to `filtered`.
    fn star3_with(name: &str, filtered: f64) -> JoinGraph {
        let mut g = star3();
        let id = g.relation_by_name(name).unwrap();
        g.relation_mut(id).filtered_rows = filtered;
        g
    }

    #[test]
    fn envelope_covers_nearby_selectivities_only() {
        let cache = PlanCache::new();
        assert_eq!(
            cache.resolve("k", &star3(), dummy_plan).1,
            CacheStatus::Miss
        );
        let hit = |g: &JoinGraph| cache.resolve("k", g, dummy_plan).1 == CacheStatus::Hit;
        assert!(hit(&star3()));
        // Nudge d1 within the band (0.1 -> 0.2): still covered.
        assert!(hit(&star3_with("d1", 20.0)));
        // Push d1 far outside (0.1 -> 0.9): envelope exit.
        assert!(!hit(&star3_with("d1", 90.0)));
    }

    #[test]
    fn envelope_rejects_structural_mismatch() {
        let cache = PlanCache::new();
        let status = |g: &JoinGraph| cache.resolve("k", g, dummy_plan).1;
        assert_eq!(status(&star3()), CacheStatus::Miss);
        let mut other = JoinGraph::new();
        other.add_relation(RelationInfo::new("fact", 10.0, 10.0));
        assert_eq!(status(&other), CacheStatus::Reoptimized);
        assert_eq!(status(&star3()), CacheStatus::Reoptimized);
        // Same relation count, different names.
        let mut renamed = star3();
        let d1 = renamed.relation_by_name("d1").unwrap();
        renamed.relation_mut(d1).name = "other".into();
        assert_eq!(status(&renamed), CacheStatus::Reoptimized);
    }

    #[test]
    fn envelope_bands_are_clamped_to_one() {
        let cache = PlanCache::new();
        let status = |g: &JoinGraph| cache.resolve("k", g, dummy_plan).1;
        assert_eq!(status(&star3()), CacheStatus::Miss);
        // Both ends of a band are inclusive: d3 (s = 0.2) covers 0.05..=0.8.
        assert_eq!(status(&star3_with("d3", 8.0)), CacheStatus::Hit);
        assert_eq!(status(&star3_with("d3", 0.5)), CacheStatus::Hit);
        // An unfiltered relation (s = 1.0, band clamped to 1) still
        // tolerates shrinking to exactly 1/4, and no further.
        assert_eq!(status(&star3_with("fact", 250_000.0)), CacheStatus::Hit);
        assert_eq!(
            status(&star3_with("fact", 249_000.0)),
            CacheStatus::Reoptimized
        );
    }

    #[test]
    fn concurrent_snapshots_are_consistent() {
        // Every insert counts a miss or a re-optimization under the same
        // lock that grows the map or evicts, so no snapshot may show more
        // entries (present or evicted) than inserts.
        const THREADS: u64 = 4;
        const LOOKUPS: u64 = 400;
        let cache = PlanCache::with_capacity(2);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..LOOKUPS {
                        let key = ["a", "b", "c"][((i + t) % 3) as usize];
                        let g = star(if (i / 3 + t) % 4 == 0 { 90.0 } else { 5.0 });
                        cache.resolve(key, &g, dummy_plan);
                        let s = cache.cache_stats();
                        assert!(
                            s.len as u64 + s.evictions <= s.misses + s.reoptimizations,
                            "{s:?}"
                        );
                    }
                });
            }
        });
        let s = cache.cache_stats();
        assert_eq!(s.hits + s.misses + s.reoptimizations, THREADS * LOOKUPS);
        assert!(s.len as u64 + s.evictions <= s.misses + s.reoptimizations);
    }
}
