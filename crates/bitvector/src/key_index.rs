//! The one sparse key structure: an open-addressing `i64 -> slot` index.
//!
//! A hash join whose build keys are too sparse for direct addressing needs
//! a key → slot map for its join table, and the bitvector filter it
//! publishes needs a key set over the *same* keys. [`KeyIndex`] can be both:
//! the executor's join table holds it for slot lookups, and when the keys
//! are too sparse for the filter's bitmap as well (wider than 2^20 bits),
//! [`crate::RangeBitmapFilter::Sparse`] holds the same allocation (through
//! an `Arc`) and probes it for membership only — at most one index per
//! join.
//!
//! Linear probing over `(key, slot)` entries, load factor at most 1/2,
//! slots numbered in first-seen order; the home position of a key is the
//! top bits of its multiplicative (Fibonacci) hash.

/// Marks an unoccupied entry. Never a real slot: slots number distinct
/// keys from 0, and [`KeyIndex::build`] admits at most `u32::MAX` keys.
const EMPTY: u32 = u32::MAX;

/// An immutable open-addressing index over a set of `i64` keys, assigning
/// every distinct key a dense slot number.
#[derive(Debug)]
pub struct KeyIndex {
    /// Power-of-two many `(key, slot)` entries.
    entries: Vec<(i64, u32)>,
    /// `64 - log2(entries.len())`: a key's home is the top bits of its hash.
    shift: u32,
    num_keys: u32,
}

/// Fibonacci hashing: the top `64 - shift` bits of `key * 2^64 / phi`.
#[inline]
fn home(key: i64, shift: u32) -> usize {
    let hash = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15); // CAST-OK: two's-complement bit reinterpret; hashing is bit-uniform
    (hash >> shift) as usize // CAST-OK: at most `64 - shift` bits, the table's index width
}

impl KeyIndex {
    /// Indexes `keys` in one sequential find-or-insert pass, returning the
    /// index and the slot of every key (`slots[i]` is the slot of
    /// `keys[i]`; duplicates share the slot of their first occurrence).
    ///
    /// # Panics
    /// Panics for more than `u32::MAX` keys — slots are `u32`s.
    pub fn build(keys: &[i64]) -> (KeyIndex, Vec<u32>) {
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "a key index holds at most u32::MAX keys"
        );
        // Load factor <= 1/2, at least two entries so `shift` stays < 64.
        let capacity = keys.len().saturating_mul(2).next_power_of_two().max(2);
        let shift = 64 - capacity.trailing_zeros();
        let mut entries = vec![(0i64, EMPTY); capacity];
        let mut num_keys = 0u32;
        let mut slots = Vec::with_capacity(keys.len());
        for &key in keys {
            let mut at = home(key, shift);
            let slot = loop {
                let entry = &mut entries[at];
                if entry.1 == EMPTY {
                    *entry = (key, num_keys);
                    num_keys += 1;
                    break entry.1;
                }
                if entry.0 == key {
                    break entry.1;
                }
                at = (at + 1) & (capacity - 1);
            };
            slots.push(slot);
        }
        let index = KeyIndex {
            entries,
            shift,
            num_keys,
        };
        (index, slots)
    }

    /// The slot of `key`, if it was indexed.
    #[inline]
    pub fn slot(&self, key: i64) -> Option<usize> {
        let mut at = home(key, self.shift);
        loop {
            let (stored, slot) = self.entries[at];
            if slot == EMPTY {
                return None;
            }
            if stored == key {
                return Some(slot as usize); // CAST-OK: u32 widens losslessly into usize on supported targets
            }
            at = (at + 1) & (self.entries.len() - 1);
        }
    }

    /// Whether `key` was indexed.
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        self.slot(key).is_some()
    }

    /// Number of distinct keys, which is also the number of slots.
    pub fn num_keys(&self) -> usize {
        self.num_keys as usize // CAST-OK: u32 widens losslessly into usize on supported targets
    }

    /// The distinct keys, in table order.
    pub fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        let occupied = self.entries.iter().filter(|entry| entry.1 != EMPTY);
        occupied.map(|entry| entry.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_keys_share_the_slot_of_their_first_occurrence() {
        let (index, slots) = KeyIndex::build(&[7, -3, 7, 1 << 40, -3, 7]);
        assert_eq!(slots, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(index.num_keys(), 3);
        assert_eq!(index.slot(7), Some(0));
        assert_eq!(index.slot(1 << 40), Some(2));
        assert_eq!(index.slot(8), None);
        assert!(index.contains(-3) && !index.contains(3));
        let mut keys: Vec<i64> = index.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![-3, 7, 1 << 40]);
    }

    #[test]
    fn extreme_and_colliding_keys_are_found_and_nothing_else() {
        // Multiples of 2^32 share their low hash bits; MIN/MAX/0 sit at the
        // edges of the key domain.
        let mut keys: Vec<i64> = (0..200).map(|i| i << 32).collect();
        keys.extend([i64::MIN, i64::MAX, -1]);
        let (index, slots) = KeyIndex::build(&keys);
        assert_eq!(index.num_keys(), keys.len());
        for (&key, &slot) in keys.iter().zip(&slots) {
            assert_eq!(index.slot(key), Some(slot as usize), "key {key}");
        }
        for miss in [1, i64::MIN + 1, i64::MAX - 1, 200 << 32, 5 << 31] {
            assert!(!index.contains(miss), "key {miss}");
        }
    }

    #[test]
    fn empty_index_misses_everything() {
        let (index, slots) = KeyIndex::build(&[]);
        assert!(slots.is_empty());
        assert_eq!(index.num_keys(), 0);
        assert!(!index.contains(0) && !index.contains(i64::MIN));
        assert_eq!(index.keys().count(), 0);
    }
}
