//! Cache-line blocked Bloom filter.

use crate::hash::hash_key;
use crate::BitvectorFilter;

/// Bits per block: one 512-bit cache line.
const BLOCK_BITS: u64 = 512;
const BLOCK_WORDS: usize = (BLOCK_BITS / 64) as usize; // CAST-OK: constant 512 / 64 = 8

/// A blocked Bloom filter: every key touches a single 64-byte block, so a
/// probe costs at most one cache miss. This mirrors the
/// "performance-optimal" filters cited by the paper (\[24\] Lang et al.) and is
/// used as an ablation against the classic [`crate::BloomFilter`].
#[derive(Debug, Clone)]
pub struct BlockedBloomFilter {
    words: Vec<u64>,
    num_blocks: u64,
    hashes_per_key: u32,
}

impl BlockedBloomFilter {
    /// Builds a filter over `keys` at roughly `bits_per_key` bits per key.
    pub fn from_keys(keys: &[i64], bits_per_key: usize) -> Self {
        let mut filter = BlockedBloomFilter::with_capacity(keys.len(), bits_per_key);
        for &key in keys {
            filter.insert(key);
        }
        filter
    }

    /// An empty filter sized for `expected_keys` at roughly `bits_per_key`
    /// bits per key, rounded up to a power-of-two number of blocks so the
    /// block index is a bit mask rather than a modulo.
    fn with_capacity(expected_keys: usize, bits_per_key: usize) -> Self {
        let bits_per_key = bits_per_key.max(1);
        let total_bits = ((expected_keys.max(1) * bits_per_key) as u64).max(BLOCK_BITS); // CAST-OK: usize widens losslessly into u64 on supported targets
        let num_blocks = total_bits.div_ceil(BLOCK_BITS).next_power_of_two();
        let hashes_per_key =
            ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 8); // CAST-OK: small positive count; rounded then clamped to 1..=8
        BlockedBloomFilter {
            words: vec![0u64; (num_blocks as usize) * BLOCK_WORDS], // CAST-OK: block count is bounded by the filter's in-memory size
            num_blocks,
            hashes_per_key,
        }
    }

    fn insert(&mut self, key: i64) {
        let (block, positions) = self.block_and_bits(key);
        let base = block * BLOCK_WORDS;
        // CAST-OK: hashes_per_key is clamped to 1..=8 at construction
        for &pos in positions.iter().take(self.hashes_per_key as usize) {
            self.words[base + (pos / 64) as usize] |= 1u64 << (pos % 64); // CAST-OK: word index; bounded by the range/mask check
        }
    }

    #[inline]
    fn block_and_bits(&self, key: i64) -> (usize, [u16; 8]) {
        let h = hash_key(key);
        let block = (h & (self.num_blocks - 1)) as usize; // CAST-OK: masked to num_blocks - 1, which fits usize
                                                          // Derive up to 8 intra-block bit positions from the upper bits.
        let mut positions = [0u16; 8];
        let mut x = h.rotate_left(21) ^ h.wrapping_mul(0x9E3779B97F4A7C15);
        for p in positions.iter_mut() {
            *p = (x % BLOCK_BITS) as u16; // CAST-OK: value < BLOCK_BITS (512) after the modulo
            x = x.rotate_left(9).wrapping_mul(0xD1B54A32D192ED03);
        }
        (block, positions)
    }
}

impl BitvectorFilter for BlockedBloomFilter {
    fn maybe_contains(&self, key: i64) -> bool {
        let (block, positions) = self.block_and_bits(key);
        let base = block * BLOCK_WORDS;
        positions
            .iter()
            .take(self.hashes_per_key as usize) // CAST-OK: hashes_per_key is clamped to 1..=8 at construction
            // CAST-OK: word index; bounded by the range/mask check
            .all(|&pos| self.words[base + (pos / 64) as usize] & (1u64 << (pos % 64)) != 0)
    }

    // Word-level probe over the cache-line blocked layout: every key still
    // touches exactly one block, but the hash-count load and word slice are
    // hoisted and the per-key early-exit loop is inlined. Bit-identical to
    // `maybe_contains` per key.
    fn probe_word(&self, keys: &[i64]) -> u64 {
        debug_assert!(keys.len() <= 64, "probe_word takes at most 64 keys");
        let hashes = self.hashes_per_key as usize; // CAST-OK: hashes_per_key is clamped to 1..=8 at construction
        let words = self.words.as_slice();
        let mut mask = 0u64;
        for (i, &k) in keys.iter().enumerate() {
            let (block, positions) = self.block_and_bits(k);
            let base = block * BLOCK_WORDS;
            let mut hit = true;
            for &pos in positions.iter().take(hashes) {
                // CAST-OK: word index; bounded by the range/mask check
                if words[base + (pos / 64) as usize] & (1u64 << (pos % 64)) == 0 {
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
        let mut f = BlockedBloomFilter::with_capacity(10_000, 10);
        for i in 0..10_000i64 {
            f.insert(i * 31 + 7);
        }
        for i in 0..10_000i64 {
            assert!(f.maybe_contains(i * 31 + 7));
        }
    }

    #[test]
    fn bounded_false_positives() {
        let mut f = BlockedBloomFilter::with_capacity(20_000, 12);
        for i in 0..20_000i64 {
            f.insert(i);
        }
        let fp = (5_000_000..5_050_000)
            .filter(|&k| f.maybe_contains(k))
            .count() as f64
            / 50_000.0;
        assert!(fp < 0.05, "blocked bloom fpr {fp}");
    }

    #[test]
    fn single_block_filter_works() {
        let mut f = BlockedBloomFilter::with_capacity(1, 8);
        f.insert(99);
        assert!(f.maybe_contains(99));
        assert_eq!(f.words.len(), BLOCK_WORDS);
    }
}
