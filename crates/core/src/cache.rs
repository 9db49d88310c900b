//! The selectivity-aware plan cache behind `Engine::prepare` / `Engine::bind`.
//!
//! Entries are keyed by a canonical query fingerprint (normalized spec +
//! optimizer choice + catalog version, assembled by the engine) and store the
//! optimized plan **together with the selectivity envelope it was optimized
//! for** ([`bqo_plan::SelectivityEnvelope`]). A bind whose re-estimated
//! per-relation selectivities stay inside the envelope is served the cached
//! plan without touching the optimizer; a bind that leaves the envelope — the
//! regime where the paper shows join order and bitvector placements flip
//! (Ding et al., SIGMOD 2020, §5–6) — transparently re-optimizes and replaces
//! the entry.
//!
//! The cache is internally `Arc`-shared: clones observe the same entries and
//! counters, so one cache can serve many engines/sessions concurrently (the
//! per-lookup critical section only covers the map access, never the
//! optimizer run — racing misses on the same key both optimize and the last
//! insert wins, which is harmless because optimization is deterministic).

use bqo_plan::{JoinGraph, PhysicalPlan, SelectivityEnvelope};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Multiplicative tolerance of the stored selectivity envelope: a cached plan
/// keeps serving binds whose per-relation local selectivities stay within
/// `[s/4, 4s]` of the selectivities it was optimized for.
pub const DEFAULT_ENVELOPE_RATIO: f64 = 4.0;

/// Default [`PlanCache::capacity`]: the maximum number of cached plans before
/// least-recently-used entries are evicted. Parameterized templates share one
/// entry per template, so this comfortably covers a serving workload's
/// distinct statement shapes while bounding memory for ad-hoc literal
/// traffic.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

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
    /// (`Engine::prepare_plan`, or a `Server` plan request).
    Bypassed,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    plan: Arc<PhysicalPlan>,
    envelope: SelectivityEnvelope,
    /// Relation names in the `RelId` order of the graph the plan was
    /// optimized against. Physical plans reference relations positionally,
    /// and fingerprints are order-invariant — so a hit under a spec that
    /// lists the same tables in a different order must renumber the plan to
    /// the new graph's ids before it can be executed.
    relation_names: Vec<String>,
    /// Logical timestamp of the entry's last lookup (hit or replacement);
    /// the LRU eviction key.
    last_used: u64,
}

impl CachedPlan {
    /// The cached plan renumbered to `graph`'s relation ids, or `None` if a
    /// stored relation name is missing from the graph (a structural mismatch
    /// the caller must treat as a cache exit). Returns the shared allocation
    /// untouched when the numbering already agrees.
    fn plan_for(&self, graph: &JoinGraph) -> Option<Arc<PhysicalPlan>> {
        let map: Vec<bqo_plan::RelId> = self
            .relation_names
            .iter()
            .map(|name| graph.relation_by_name(name))
            .collect::<Option<_>>()?;
        if map.iter().enumerate().all(|(i, r)| r.index() == i) {
            Some(self.plan.clone())
        } else {
            Some(Arc::new(self.plan.remap_relations(&map)))
        }
    }
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    entries: Mutex<HashMap<String, CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    reoptimizations: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock stamping entry usage (monotonic per lookup).
    clock: AtomicU64,
    capacity: usize,
}

/// A point-in-time snapshot of a [`PlanCache`]'s counters and occupancy, as
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

/// A shared, thread-safe cache of optimized plans with per-entry selectivity
/// envelopes. Cloning is cheap and shares entries and counters.
///
/// The cache is bounded: at most [`PlanCache::capacity`] plans are retained
/// (default [`DEFAULT_PLAN_CACHE_CAPACITY`]), and inserting beyond that
/// evicts the least-recently-used entry (the [`PlanCache::evictions`] counter
/// records how often). High-cardinality literal values should still be
/// expressed as parameterized templates (all binds of one template share a
/// single entry) rather than as per-value literal specs — eviction bounds
/// memory, but an evicted plan costs a fresh optimizer run on its next use.
#[derive(Debug, Clone)]
pub struct PlanCache {
    inner: Arc<PlanCacheInner>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache with the default capacity
    /// ([`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An empty cache with an explicit capacity bound (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Arc::new(PlanCacheInner {
                capacity: capacity.max(1),
                ..Default::default()
            }),
        }
    }

    /// Maximum number of cached plans before LRU eviction kicks in.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of lookups served from the cache without running the optimizer.
    pub fn hits(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics counter; readers want
        // a recent value, not a synchronized snapshot.
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that found no entry and ran the optimizer.
    pub fn misses(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics counter; readers want
        // a recent value, not a synchronized snapshot.
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of lookups that found an entry but re-optimized because the
    /// bind's selectivities left the stored envelope.
    pub fn reoptimizations(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics counter; readers want
        // a recent value, not a synchronized snapshot.
        self.inner.reoptimizations.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to keep the cache within its capacity.
    pub fn evictions(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistics counter; readers want
        // a recent value, not a synchronized snapshot.
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of counters and occupancy. Each field is
    /// read independently (the counters are relaxed atomics), so under
    /// concurrent traffic the fields may be mutually off by the handful of
    /// lookups in flight — fine for monitoring, not a transactional view.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            reoptimizations: self.reoptimizations(),
            evictions: self.evictions(),
            len: self.len(),
            capacity: self.capacity(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner
            .entries
            .lock()
            .expect("plan cache poisoned")
            .len()
    }

    /// True if the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan. Counters are preserved (they describe
    /// lifetime traffic, not current contents).
    pub fn clear(&self) {
        self.inner
            .entries
            .lock()
            .expect("plan cache poisoned")
            .clear();
    }

    /// Resolves `key` for a bind whose re-estimated statistics are `graph`:
    /// serves the cached plan on an envelope-covered hit (renumbered to the
    /// bind's relation ids when the spec listed its tables in a different
    /// order), otherwise runs `optimize` and (re-)inserts the plan with a
    /// fresh envelope around the bind's selectivities.
    ///
    /// The map lock is *not* held while `optimize` runs; concurrent misses on
    /// one key may optimize redundantly, but optimization is deterministic so
    /// whichever insert lands last leaves the same plan.
    pub(crate) fn resolve(
        &self,
        key: &str,
        graph: &JoinGraph,
        optimize: impl FnOnce() -> PhysicalPlan,
    ) -> (Arc<PhysicalPlan>, CacheStatus) {
        let existing = {
            let mut entries = self.inner.entries.lock().expect("plan cache poisoned");
            entries.get_mut(key).map(|entry| {
                // Touch on every lookup (hit or replacement): an entry the
                // traffic keeps asking about is not the one to evict. The
                // stamp is drawn *inside* the lock — a stamp taken earlier
                // could move `last_used` backwards past concurrent touches
                // and turn a hot entry into the LRU victim.
                // ORDERING: Relaxed — the clock only needs unique, roughly
                // increasing stamps; `last_used` itself is written under the
                // entries lock, which orders it.
                entry.last_used = self.inner.clock.fetch_add(1, Ordering::Relaxed);
                entry.clone()
            })
        };
        let status = match &existing {
            Some(entry) if entry.envelope.contains(graph) => {
                // `plan_for` only fails on a structural mismatch (a stored
                // relation name the graph lacks) — fall through and
                // re-optimize rather than serving an inapplicable plan.
                if let Some(plan) = entry.plan_for(graph) {
                    // ORDERING: Relaxed — statistics counter.
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    return (plan, CacheStatus::Hit);
                }
                CacheStatus::Reoptimized
            }
            Some(_) => CacheStatus::Reoptimized,
            None => CacheStatus::Miss,
        };
        let plan = Arc::new(optimize());
        let envelope = SelectivityEnvelope::around(graph, DEFAULT_ENVELOPE_RATIO);
        let relation_names = graph.relations().iter().map(|r| r.name.clone()).collect();
        {
            let mut entries = self.inner.entries.lock().expect("plan cache poisoned");
            // Stamp the insertion with a *fresh* clock value: the lookup
            // stamp `now` predates the (potentially slow) optimizer run, and
            // concurrent traffic may have touched every other entry since —
            // reusing it would make the just-optimized entry the LRU victim
            // of its own insertion.
            entries.insert(
                key.to_string(),
                CachedPlan {
                    plan: plan.clone(),
                    envelope,
                    relation_names,
                    // ORDERING: Relaxed — unique stamp; entry publication
                    // happens under the entries lock.
                    last_used: self.inner.clock.fetch_add(1, Ordering::Relaxed),
                },
            );
            // LRU eviction: drop least-recently-used entries until the
            // capacity bound holds again. The just-inserted entry carries the
            // newest stamp, so it always survives its own insertion.
            while entries.len() > self.inner.capacity {
                let victim = entries
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(key, _)| key.clone())
                    .expect("cache over capacity implies a victim");
                entries.remove(&victim);
                // ORDERING: Relaxed — statistics counter.
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Account the lookup before releasing the lock so a snapshot
            // never observes this insertion's eviction without its
            // miss/re-optimization.
            // ORDERING: Relaxed — statistics counters (the comment above
            // explains why they are bumped while still holding the lock).
            match status {
                CacheStatus::Reoptimized => {
                    self.inner.reoptimizations.fetch_add(1, Ordering::Relaxed) // ORDERING: see above
                }
                _ => self.inner.misses.fetch_add(1, Ordering::Relaxed), // ORDERING: see above
            };
        }
        (plan, status)
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

        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.reoptimizations(), 2);
        assert_eq!(cache.len(), 1);
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
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new();
        let g = star(5.0);
        cache.resolve("k", &g, dummy_plan);
        cache.resolve("k", &g, dummy_plan);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Re-resolving after clear is a miss again.
        assert_eq!(cache.resolve("k", &g, dummy_plan).1, CacheStatus::Miss);
    }

    #[test]
    fn clones_share_entries_and_counters() {
        let cache = PlanCache::new();
        let clone = cache.clone();
        let g = star(5.0);
        cache.resolve("k", &g, dummy_plan);
        assert_eq!(clone.resolve("k", &g, dummy_plan).1, CacheStatus::Hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(clone.hits(), 1);
    }

    #[test]
    fn capacity_is_clamped_and_defaults_apply() {
        assert_eq!(PlanCache::new().capacity(), DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(PlanCache::with_capacity(0).capacity(), 1);
        assert_eq!(PlanCache::with_capacity(8).capacity(), 8);
    }

    #[test]
    fn lru_eviction_bounds_the_cache_and_counts() {
        let cache = PlanCache::with_capacity(2);
        let g = star(5.0);
        cache.resolve("a", &g, dummy_plan);
        cache.resolve("b", &g, dummy_plan);
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Touch "a" so "b" becomes the least recently used entry...
        assert_eq!(
            cache.resolve("a", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
        // ...then overflow: "b" is evicted, "a" survives.
        cache.resolve("c", &g, dummy_plan);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        assert_eq!(
            cache.resolve("a", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
        assert_eq!(cache.resolve("b", &g, dummy_plan).1, CacheStatus::Miss);
        // Re-resolving "b" overflowed again: "c" (least recent) was evicted.
        assert_eq!((cache.len(), cache.evictions()), (2, 2));
        assert_eq!(cache.resolve("c", &g, dummy_plan).1, CacheStatus::Miss);

        let stats = cache.cache_stats();
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.hits, cache.hits());
        assert_eq!(stats.misses, cache.misses());
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
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
    }

    #[test]
    fn capacity_one_keeps_the_newest_entry() {
        let cache = PlanCache::with_capacity(1);
        let g = star(5.0);
        cache.resolve("a", &g, dummy_plan);
        cache.resolve("b", &g, dummy_plan);
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert_eq!(
            cache.resolve("b", &g, || unreachable!()).1,
            CacheStatus::Hit
        );
    }
}
