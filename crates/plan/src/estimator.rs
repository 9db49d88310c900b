//! Cardinality estimation over the join graph.
//!
//! The estimator provides two primitives:
//!
//! * [`CardinalityEstimator::join_card`] — the estimated cardinality of
//!   joining a set of relations (local predicates applied), using the classic
//!   System-R style formula `∏ |R_filtered| · ∏ 1/max(d_l, d_r)` over the
//!   edges inside the set.
//! * [`CardinalityEstimator::semi_reduced_card`] — the estimated cardinality
//!   of a core relation set after applying bitvector (semi-join) reductions
//!   from an external set of relations, assuming filters with no false
//!   positives. Each external relation contributes a multiplicative factor
//!   capped at 1, added in a canonical order so the result is a pure function
//!   of the two sets (this is what makes the paper's "equal cost" lemmas hold
//!   exactly under the estimator).
//!
//! For PKFK joins these formulas reproduce the paper's absorption rule
//! (Lemma 1/3): semi-joining a fact table with all its (filtered) dimensions
//! yields exactly the cardinality of the full join.

use crate::graph::{JoinGraph, RelId};
use crate::relset::RelSet;
use std::cell::RefCell;
use std::collections::HashMap;

/// Statistics-based cardinality estimator bound to one join graph.
///
/// It remembers every [`join_card`](CardinalityEstimator::join_card) of two
/// or more relations it has computed: the candidate plans of one optimizer
/// call differ in one branch position, so they ask for the same relation sets
/// over and over. The memo hashes with the standard library's SipHash, since
/// its keys derive from user queries. The estimator borrows the graph, so the
/// statistics cannot change under the memo; a new estimator starts empty.
#[derive(Debug, Clone)]
pub struct CardinalityEstimator<'a> {
    graph: &'a JoinGraph,
    join_cards: RefCell<HashMap<RelSet, f64>>,
}

impl<'a> CardinalityEstimator<'a> {
    /// Creates an estimator for a join graph.
    pub fn new(graph: &'a JoinGraph) -> Self {
        CardinalityEstimator {
            graph,
            join_cards: RefCell::default(),
        }
    }

    /// Cardinality of a single relation after its local predicates.
    pub fn base_card(&self, rel: RelId) -> f64 {
        self.graph.relation(rel).filtered_rows
    }

    /// Estimated cardinality of joining all relations in `set`.
    ///
    /// Uses independence between predicates and the containment assumption
    /// for join columns. A disconnected set is estimated as a cross product
    /// (callers that enumerate plans without cross products never ask for
    /// one).
    pub fn join_card(&self, set: RelSet) -> f64 {
        if set.len() <= 1 {
            // One cardinality times no edge: nothing worth remembering.
            return set.first().map_or(0.0, |r| self.base_card(r));
        }
        *self
            .join_cards
            .borrow_mut()
            .entry(set)
            .or_insert_with(|| self.join_card_uncached(set))
    }

    /// [`join_card`](CardinalityEstimator::join_card), bit for bit, computed
    /// without the memo: for a caller that keeps its own table of the sets it
    /// asks for, as the DP optimizer does.
    pub fn join_card_uncached(&self, set: RelSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        let mut card: f64 = set.iter().map(|r| self.base_card(r)).product();
        for edge in self.graph.edges() {
            if set.contains(edge.left) && set.contains(edge.right) {
                card *= edge.selectivity();
            }
        }
        card
    }

    /// Estimated cardinality of the join of `core` after semi-join reduction
    /// by bitvector filters whose (transitive) sources are the relations in
    /// `external`.
    ///
    /// Relations of `external` that also appear in `core` are ignored. The
    /// reduction factor is `min(1, join_card(core ∪ external) / join_card(core))`:
    /// under PKFK joins this reproduces the absorption rule exactly (the
    /// semi-joined fact table shrinks to the full join's cardinality), while
    /// the cap at 1 reflects that a semi-join can never *grow* its input —
    /// e.g. a small dimension semi-joined by a huge fact table keeps
    /// (essentially) all of its rows. Being a pure function of the two sets,
    /// the estimate is independent of the order filters are applied in, which
    /// is what makes the paper's equal-cost lemmas hold exactly under this
    /// estimator.
    pub(crate) fn semi_reduced_card(&self, core: RelSet, external: RelSet) -> f64 {
        if core.is_empty() {
            return 0.0;
        }
        let core_card = self.join_card(core);
        if external.is_subset(core) || core_card <= 0.0 {
            return core_card;
        }
        semi_reduce(core_card, self.join_card(core | external))
    }

    /// Estimated fraction of `target`'s rows kept by a bitvector filter whose
    /// source is the (already reduced) set `source`. This is the paper's λ
    /// complement: `1 - λ` where λ is the eliminated fraction.
    pub fn semijoin_keep_fraction(&self, target: RelId, source: RelSet) -> f64 {
        let base = self.base_card(target);
        if base <= 0.0 {
            return 1.0;
        }
        (self.semi_reduced_card(RelSet::single(target), source) / base).clamp(0.0, 1.0)
    }
}

/// The last step of [`CardinalityEstimator::semi_reduced_card`], once both
/// join cardinalities are known and the core's is positive.
pub(crate) fn semi_reduce(core_card: f64, full_card: f64) -> f64 {
    core_card * (full_card / core_card).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, JoinGraph, RelationInfo};

    /// fact(1M rows) with dims d1 (100 rows, 10 after filter),
    /// d2 (1000 rows, unfiltered), d3 (10 rows, 2 after filter).
    fn star() -> (JoinGraph, RelId, Vec<RelId>) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 1000.0));
        let d3 = g.add_relation(RelationInfo::new("d3", 10.0, 2.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d3_sk", d3, "sk", 10.0));
        (g, fact, vec![d1, d2, d3])
    }

    /// Chain fact -> r1 -> r2 with filters on r2.
    fn chain() -> (JoinGraph, Vec<RelId>) {
        let mut g = JoinGraph::new();
        let r0 = g.add_relation(RelationInfo::new("r0", 100_000.0, 100_000.0));
        let r1 = g.add_relation(RelationInfo::new("r1", 1000.0, 1000.0));
        let r2 = g.add_relation(RelationInfo::new("r2", 100.0, 5.0));
        g.add_edge(JoinEdge::pkfk(r0, "r1_sk", r1, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(r1, "r2_sk", r2, "sk", 100.0));
        (g, vec![r0, r1, r2])
    }

    fn set(ids: &[RelId]) -> RelSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn base_card_is_filtered_rows() {
        let (g, _, dims) = star();
        let est = CardinalityEstimator::new(&g);
        assert_eq!(est.base_card(dims[0]), 10.0);
        assert_eq!(est.base_card(dims[1]), 1000.0);
    }

    #[test]
    fn pkfk_two_way_join_card() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        // |fact ⋈ d1| = |fact| * |d1_filtered| / |d1_base| = 1M * 10/100.
        let card = est.join_card(set(&[fact, dims[0]]));
        assert!((card - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn star_full_join_card_multiplies_selectivities() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        let card = est.join_card(set(&[fact, dims[0], dims[1], dims[2]]));
        // 1M * (10/100) * (1000/1000) * (2/10) = 20000
        assert!((card - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn chain_join_card() {
        let (g, r) = chain();
        let est = CardinalityEstimator::new(&g);
        // |r1 ⋈ r2| = 1000 * 5/100 = 50
        assert!((est.join_card(set(&[r[1], r[2]])) - 50.0).abs() < 1e-6);
        // |r0 ⋈ r1 ⋈ r2| = 100000 * (1000/1000) * (5/100) = 5000
        assert!((est.join_card(set(&[r[0], r[1], r[2]])) - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_set_has_zero_card() {
        let (g, _, _) = star();
        let est = CardinalityEstimator::new(&g);
        assert_eq!(est.join_card(RelSet::default()), 0.0);
        assert_eq!(
            est.semi_reduced_card(RelSet::default(), RelSet::default()),
            0.0
        );
    }

    #[test]
    fn absorption_semi_reduction_equals_full_join_for_star() {
        // The paper's Lemma 3: |R0 / (R1..Rn)| = |R0 ⋈ R1 ⋈ ... ⋈ Rn|.
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        let reduced = est.semi_reduced_card(set(&[fact]), set(&dims));
        let full = est.join_card(set(&[fact, dims[0], dims[1], dims[2]]));
        assert!((reduced - full).abs() < 1e-6);
    }

    #[test]
    fn semi_reduction_never_increases_cardinality() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        // Dimension semi-joined by the huge fact table stays at its own size.
        let reduced = est.semi_reduced_card(set(&[dims[1]]), set(&[fact]));
        assert!(reduced <= est.base_card(dims[1]) + 1e-9);
    }

    #[test]
    fn semi_reduction_ignores_overlapping_relations() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        let core = set(&[fact, dims[0]]);
        let with_overlap = est.semi_reduced_card(core, set(&[dims[0], dims[2]]));
        let without = est.semi_reduced_card(core, set(&[dims[2]]));
        assert!((with_overlap - without).abs() < 1e-9);
    }

    #[test]
    fn semi_reduction_is_order_independent() {
        // Same external set passed in different "conceptual" orders must give
        // the same answer because the estimator sorts internally.
        let (g, r) = chain();
        let est = CardinalityEstimator::new(&g);
        let a = est.semi_reduced_card(set(&[r[0]]), set(&[r[1], r[2]]));
        let b = est.semi_reduced_card(set(&[r[0]]), set(&[r[2], r[1]]));
        assert_eq!(a, b);
    }

    #[test]
    fn chain_semi_reduction_matches_full_join() {
        let (g, r) = chain();
        let est = CardinalityEstimator::new(&g);
        let reduced = est.semi_reduced_card(set(&[r[0]]), set(&[r[1], r[2]]));
        let full = est.join_card(set(&[r[0], r[1], r[2]]));
        assert!((reduced - full).abs() < 1e-6);
    }

    #[test]
    fn keep_fraction_for_selective_dimension() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        // d3 keeps 2 of 10 keys, so the fact keeps ~20% of its rows.
        let keep = est.semijoin_keep_fraction(fact, set(&[dims[2]]));
        assert!((keep - 0.2).abs() < 1e-9);
        // An unfiltered dimension eliminates nothing.
        let keep_all = est.semijoin_keep_fraction(fact, set(&[dims[1]]));
        assert!((keep_all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn keep_fraction_is_clamped() {
        let (g, fact, dims) = star();
        let est = CardinalityEstimator::new(&g);
        // Semi-joining a tiny dimension with the huge fact cannot exceed 1.
        let keep = est.semijoin_keep_fraction(dims[1], set(&[fact]));
        assert!(keep <= 1.0);
        assert!(keep > 0.0);
    }
}
