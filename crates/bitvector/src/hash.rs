//! Hashing helpers shared by the filters and the hash-join executor: the
//! Bloom variants' key digest and the fold that collapses composite join
//! keys into one 64-bit value.

/// Hashes a single 64-bit key to a well-mixed 64-bit digest
/// (SplitMix64 finalizer).
#[inline]
pub(crate) fn hash_key(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e3779b97f4a7c15); // CAST-OK: two's-complement bit reinterpret; hashing is bit-uniform
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Combines an accumulated hash with the next column's key, used to collapse
/// composite join keys into a single 64-bit value.
#[inline]
fn hash_pair(acc: u64, key: i64) -> u64 {
    // boost::hash_combine-style mixing on 64 bits.
    acc ^ (hash_key(key)
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add(acc << 6)
        .wrapping_add(acc >> 2))
}

/// Collapses a composite key (one value per key column) into a single i64
/// suitable for filter insertion and hash-table lookup.
#[inline]
pub fn combine_key(parts: &[i64]) -> i64 {
    match parts {
        [single] => *single,
        _ => {
            let mut acc = 0u64;
            for &p in parts {
                acc = hash_pair(acc, p);
            }
            acc as i64 // CAST-OK: two's-complement reinterpret of a digest; keys are opaque bits here
        }
    }
}

/// Chunked composite-key hashing: folds one key column's parts into the
/// per-row accumulators, element-wise (`acc[i] = hash_pair(acc[i],
/// parts[i])`). Calling this once per key column over accumulators that
/// start at zero and then casting to `i64` reproduces [`combine_key`]'s
/// multi-part fold exactly, column-at-a-time instead of row-at-a-time.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn fold_parts(acc: &mut [u64], parts: &[i64]) {
    assert_eq!(
        acc.len(),
        parts.len(),
        "accumulator / parts length mismatch"
    );
    for (a, &p) in acc.iter_mut().zip(parts) {
        *a = hash_pair(*a, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_key_is_deterministic_and_spreads() {
        assert_eq!(hash_key(42), hash_key(42));
        let distinct: HashSet<u64> = (0..10_000).map(hash_key).collect();
        assert_eq!(
            distinct.len(),
            10_000,
            "no collisions expected on small sets"
        );
    }

    #[test]
    fn hash_pair_depends_on_order() {
        assert_ne!(hash_pair(hash_key(1), 2), hash_pair(hash_key(2), 1));
    }

    #[test]
    fn combine_key_single_is_identity() {
        assert_eq!(combine_key(&[77]), 77);
    }

    #[test]
    fn combine_key_composite_distinguishes_permutations() {
        assert_ne!(combine_key(&[1, 2]), combine_key(&[2, 1]));
        assert_ne!(combine_key(&[1, 2]), combine_key(&[1, 3]));
        assert_eq!(combine_key(&[5, 9]), combine_key(&[5, 9]));
    }

    #[test]
    fn fold_parts_matches_combine_key() {
        let cols = [
            vec![1i64, -2, 3, i64::MAX],
            vec![9i64, 0, i64::MIN, -1],
            vec![7i64, 7, 7, 7],
        ];
        let mut acc = vec![0u64; 4];
        for col in &cols {
            fold_parts(&mut acc, col);
        }
        for i in 0..4 {
            assert_eq!(
                acc[i] as i64,
                combine_key(&[cols[0][i], cols[1][i], cols[2][i]])
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_parts_rejects_length_mismatch() {
        let mut acc = vec![0u64; 2];
        fold_parts(&mut acc, &[1]);
    }
}
