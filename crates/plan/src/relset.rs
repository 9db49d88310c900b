//! [`RelSet`]: the one representation of "a set of relations of one join
//! graph" — a `Copy` bitset over [`RelId`]s.
//!
//! Bit `i` is set exactly when `RelId(i)` is a member, so union, intersection,
//! difference, subset and overlap tests are single word operations, iteration
//! is ascending by id (the order the estimator multiplies cardinalities in),
//! and the dynamic-programming optimizer enumerates subsets directly on
//! the bits.

use crate::graph::RelId;
use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

/// A set of [`RelId`]s with ids below [`RelSet::CAPACITY`].
///
/// The field is the membership mask itself; every `u128` is a valid set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RelSet(pub u128);

impl RelSet {
    /// Largest number of relations a join graph can hold: ids `0..CAPACITY`.
    pub const CAPACITY: usize = 128;

    /// The set `{rel}`.
    ///
    /// # Panics
    /// Panics if `rel` is not below [`RelSet::CAPACITY`].
    pub fn single(rel: RelId) -> Self {
        assert!(
            rel.0 < Self::CAPACITY,
            "{rel} exceeds the {}-relation capacity of a RelSet",
            Self::CAPACITY
        );
        RelSet(1 << rel.0)
    }

    /// The set `{R0, ..., R(n-1)}`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`RelSet::CAPACITY`].
    pub fn first_n(n: usize) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "{n} relations exceed the {}-relation capacity of a RelSet",
            Self::CAPACITY
        );
        match n {
            0 => RelSet(0),
            _ => RelSet(u128::MAX >> (Self::CAPACITY - n)),
        }
    }

    /// Adds `rel`; true if it was not a member before.
    ///
    /// # Panics
    /// Panics if `rel` is not below [`RelSet::CAPACITY`].
    pub fn insert(&mut self, rel: RelId) -> bool {
        let added = !self.contains(rel);
        *self = *self | RelSet::single(rel);
        added
    }

    /// Removes `rel`; true if it was a member.
    pub fn remove(&mut self, rel: RelId) -> bool {
        let removed = self.contains(rel);
        if removed {
            self.0 &= !(1 << rel.0);
        }
        removed
    }

    /// True if `rel` is a member (ids beyond the capacity never are).
    pub fn contains(self, rel: RelId) -> bool {
        rel.0 < Self::CAPACITY && self.0 & (1 << rel.0) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if every member of `self` is a member of `other`.
    pub fn is_subset(self, other: RelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the two sets share a member.
    pub fn intersects(self, other: RelSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The member with the smallest id.
    pub fn first(self) -> Option<RelId> {
        (!self.is_empty()).then(|| RelId(self.0.trailing_zeros() as usize))
    }

    /// The members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = RelId> {
        let mut rest = self;
        std::iter::from_fn(move || {
            let next = rest.first()?;
            rest.0 &= rest.0 - 1;
            Some(next)
        })
    }
}

impl BitOr for RelSet {
    type Output = RelSet;
    /// Union.
    fn bitor(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }
}

impl BitAnd for RelSet {
    type Output = RelSet;
    /// Intersection.
    fn bitand(self, other: RelSet) -> RelSet {
        RelSet(self.0 & other.0)
    }
}

impl Sub for RelSet {
    type Output = RelSet;
    /// Difference: the members of `self` that are not in `other`.
    fn sub(self, other: RelSet) -> RelSet {
        RelSet(self.0 & !other.0)
    }
}

impl FromIterator<RelId> for RelSet {
    /// # Panics
    /// Panics if an id is not below [`RelSet::CAPACITY`].
    fn from_iter<I: IntoIterator<Item = RelId>>(iter: I) -> Self {
        iter.into_iter()
            .fold(RelSet::default(), |set, rel| set | RelSet::single(rel))
    }
}

impl fmt::Debug for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ids() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0usize..RelSet::CAPACITY, 0..40)
    }

    /// The reference model: the ordered set of ids `RelSet` replaced.
    type Model = BTreeSet<RelId>;

    fn both(ids: &[usize]) -> (RelSet, Model) {
        let model: Model = ids.iter().copied().map(RelId).collect();
        (model.iter().copied().collect(), model)
    }

    fn members(set: RelSet) -> Vec<RelId> {
        set.iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation agrees with the ordered set it replaced.
        #[test]
        fn behaves_like_a_btreeset(a in ids(), b in ids(), removed in ids()) {
            let mut set = RelSet::default();
            let mut model = Model::new();
            for &id in &a {
                prop_assert_eq!(set.insert(RelId(id)), model.insert(RelId(id)));
            }
            for &id in &removed {
                prop_assert_eq!(set.remove(RelId(id)), model.remove(&RelId(id)));
            }
            prop_assert_eq!(members(set), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.first(), model.iter().next().copied());
            for id in 0..RelSet::CAPACITY {
                prop_assert_eq!(set.contains(RelId(id)), model.contains(&RelId(id)));
            }

            let (other, other_model) = both(&b);
            prop_assert_eq!(
                members(set | other),
                model.union(&other_model).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                members(set & other),
                model.intersection(&other_model).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                members(set - other),
                model.difference(&other_model).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(set.is_subset(other), model.is_subset(&other_model));
            prop_assert!((set & other).is_subset(set));
            prop_assert_eq!(set.intersects(other), !model.is_disjoint(&other_model));
            prop_assert_eq!(set == other, model == other_model);
        }
    }

    #[test]
    fn the_last_id_is_a_member_like_any_other() {
        let last = RelId(RelSet::CAPACITY - 1);
        let mut set = RelSet::single(last);
        assert!(set.contains(last));
        assert_eq!(set.first(), Some(last));
        assert_eq!(members(set), vec![last]);
        assert!(set.insert(RelId(0)));
        assert_eq!(members(set), vec![RelId(0), last]);
        assert!(set.remove(last));
        assert!(!set.remove(last));
        assert_eq!(set, RelSet::single(RelId(0)));
    }

    #[test]
    fn first_n_covers_zero_to_capacity() {
        assert!(RelSet::first_n(0).is_empty());
        assert_eq!(RelSet::first_n(0), RelSet::default());
        assert_eq!(
            members(RelSet::first_n(3)),
            vec![RelId(0), RelId(1), RelId(2)]
        );
        let full = RelSet::first_n(RelSet::CAPACITY);
        assert_eq!(full.len(), RelSet::CAPACITY);
        assert!(full.contains(RelId(0)) && full.contains(RelId(127)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn single_beyond_the_capacity_panics() {
        RelSet::single(RelId(RelSet::CAPACITY));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn first_n_beyond_the_capacity_panics() {
        RelSet::first_n(RelSet::CAPACITY + 1);
    }

    #[test]
    fn ids_beyond_the_capacity_are_never_members() {
        let mut full = RelSet::first_n(RelSet::CAPACITY);
        assert!(!full.contains(RelId(500)));
        assert!(!full.remove(RelId(500)));
        assert_eq!(full.len(), RelSet::CAPACITY);
    }

    #[test]
    fn debug_prints_like_a_set() {
        let set: RelSet = [RelId(3), RelId(0)].into_iter().collect();
        assert_eq!(format!("{set:?}"), "{RelId(0), RelId(3)}");
        assert_eq!(format!("{:?}", RelSet::default()), "{}");
    }
}
