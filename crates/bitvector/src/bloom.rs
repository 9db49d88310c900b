//! Classic Bloom filter.

use crate::hash::hash_key;
use crate::BitvectorFilter;

/// A standard Bloom filter over 64-bit keys.
///
/// The filter is sized to the next power of two so probe positions are
/// computed with a bit mask instead of a modulo, and the number of hash
/// functions is capped at four: a probe must stay much cheaper than the hash
/// join probe it short-circuits, which is the whole premise of bitvector
/// filtering (Section 6.3 of the paper derives the break-even from exactly
/// this cost ratio). Two independent digests are derived from the key and
/// combined with the Kirsch–Mitzenmacher double-hashing scheme, so only one
/// expensive mix per probe is needed.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// `num_bits - 1`; `num_bits` is always a power of two.
    bit_mask: u64,
    num_hashes: u32,
}

impl BloomFilter {
    /// Builds a filter over `keys` at `bits_per_key` bits per key.
    pub fn from_keys(keys: &[i64], bits_per_key: usize) -> Self {
        let mut filter = BloomFilter::with_capacity(keys.len(), bits_per_key);
        for &key in keys {
            filter.insert(key);
        }
        filter
    }

    /// An empty filter sized for `expected_keys` keys at `bits_per_key` bits
    /// per key (rounded up to a power of two). Both values are clamped to
    /// sane minima so tiny builds still work.
    fn with_capacity(expected_keys: usize, bits_per_key: usize) -> Self {
        let bits_per_key = bits_per_key.max(1);
        let requested = ((expected_keys.max(1) * bits_per_key) as u64).max(64); // CAST-OK: usize widens losslessly into u64 on supported targets
        let num_bits = requested.next_power_of_two();
        let num_words = (num_bits / 64) as usize; // CAST-OK: bit count is bounded by the filter's in-memory size
        let num_hashes =
            ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 4); // CAST-OK: small positive count; rounded then clamped to 1..=4
        BloomFilter {
            bits: vec![0u64; num_words],
            bit_mask: num_bits - 1,
            num_hashes,
        }
    }

    fn insert(&mut self, key: i64) {
        let positions: Vec<u64> = self.probes(key).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1u64 << (pos % 64); // CAST-OK: word index; bounded by the range/mask check
        }
    }

    #[inline]
    fn probes(&self, key: i64) -> impl Iterator<Item = u64> + '_ {
        let h = hash_key(key);
        let h1 = h & 0xffff_ffff;
        let h2 = (h >> 32) | 1; // force odd so the stride visits all positions
        let mask = self.bit_mask;
        // CAST-OK: u32 widens losslessly into u64
        (0..self.num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & mask)
    }
}

impl BitvectorFilter for BloomFilter {
    fn maybe_contains(&self, key: i64) -> bool {
        self.probes(key)
            // CAST-OK: word index; bounded by the range/mask check
            .all(|pos| self.bits[(pos / 64) as usize] & (1u64 << (pos % 64)) != 0)
    }

    // Word-level probe: hoists the mask / hash-count loads out of the loop
    // and inlines the double-hashing scheme, computing one survivor mask for
    // up to 64 keys. Bit-identical to `maybe_contains` per key.
    fn probe_word(&self, keys: &[i64]) -> u64 {
        debug_assert!(keys.len() <= 64, "probe_word takes at most 64 keys");
        let bit_mask = self.bit_mask;
        let num_hashes = self.num_hashes as u64; // CAST-OK: u32 widens losslessly into u64
        let bits = self.bits.as_slice();
        let mut mask = 0u64;
        for (i, &k) in keys.iter().enumerate() {
            let h = hash_key(k);
            let h1 = h & 0xffff_ffff;
            let h2 = (h >> 32) | 1;
            let mut hit = true;
            for j in 0..num_hashes {
                let pos = h1.wrapping_add(j.wrapping_mul(h2)) & bit_mask;
                // CAST-OK: word index; bounded by the range/mask check
                if bits[(pos / 64) as usize] & (1u64 << (pos % 64)) == 0 {
                    hit = false;
                    break;
                }
            }
            mask |= u64::from(hit) << i;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(5000, 8);
        for i in 0..5000i64 {
            f.insert(i * 13);
        }
        for i in 0..5000i64 {
            assert!(f.maybe_contains(i * 13));
        }
    }

    #[test]
    fn fpr_decreases_with_more_bits() {
        let keys: Vec<i64> = (0..20_000).collect();
        let measure = |bits_per_key: usize| {
            let mut f = BloomFilter::with_capacity(keys.len(), bits_per_key);
            for &k in &keys {
                f.insert(k);
            }
            (1_000_000..1_050_000)
                .filter(|&k| f.maybe_contains(k))
                .count() as f64
                / 50_000.0
        };
        let fpr4 = measure(4);
        let fpr12 = measure(12);
        assert!(fpr12 < fpr4, "12 bits/key ({fpr12}) should beat 4 ({fpr4})");
        assert!(fpr12 < 0.01);
    }

    #[test]
    fn tiny_filter_does_not_panic() {
        let mut f = BloomFilter::with_capacity(0, 0);
        f.insert(5);
        assert!(f.maybe_contains(5));
        assert!(f.bits.len() * 64 >= 64);
        assert!(f.num_hashes >= 1);
    }

    #[test]
    fn load_factor_reasonable() {
        let f = BloomFilter::from_keys(&(0..1000).collect::<Vec<i64>>(), 8);
        let ones: u32 = f.bits.iter().map(|w| w.count_ones()).sum();
        let load = f64::from(ones) / (f.bits.len() * 64) as f64;
        // At optimal k the load is about 50%.
        assert!(load > 0.3 && load < 0.7, "load = {load}");
    }

    #[test]
    fn empty_filter_rejects_everything_probabilistically() {
        let f = BloomFilter::with_capacity(100, 8);
        assert!(!f.maybe_contains(1));
        assert!(!f.maybe_contains(42));
    }
}
