//! Bitvector filter implementations for the BQO reproduction.
//!
//! The paper uses "bitvector filter" as an umbrella term for bitmap/hash
//! filters, Bloom filters and their variants (Section 1 and 8). The analysis
//! in Sections 3–5 assumes filters with *no false positives* (Property 4);
//! the execution experiments use real Bloom filters that trade space for a
//! small false-positive rate.
//!
//! This crate provides:
//! * [`RangeBitmapFilter`] — a dense bitmap over the observed key range
//!   whenever that bitmap is at most 64 slots per key or at most 2^20 bits
//!   (128 KiB), and membership in a hashed [`KeyIndex`] only for wider key
//!   ranges: the classic "bitmap or hash filter" on surrogate keys, no false
//!   positives, the cheapest probe, and the executor's default. A hash join
//!   does not build it separately: the filter it publishes is a view of its
//!   join table (the same keys; a bitmap for any span within the bound,
//!   else the table's own `Arc<KeyIndex>`).
//! * [`KeyIndex`] — the open-addressing `i64 -> slot` index that the
//!   executor's join table holds for sparse keys, shared with the filter
//!   when the keys are too wide for its bitmap.
//! * [`BloomFilter`] — a classic Bloom filter with configurable bits per key.
//! * [`BlockedBloomFilter`] — a cache-line blocked variant that mirrors the
//!   register-blocked filters used by modern engines.
//! * [`FilterKind`] / [`AnyFilter`] — a small runtime-dispatch wrapper so the
//!   executor can be configured with any of the above;
//!   [`AnyFilter::from_keys`] is the one way to build a filter from keys.
//!
//! All filters operate on 64-bit keys. Multi-column join keys are combined
//! into one 64-bit hash by the executor before reaching the filter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod blocked;
mod bloom;
mod hash;
mod key_index;
mod stats;

pub use bitmap::{dense_span, RangeBitmapFilter};
pub use blocked::BlockedBloomFilter;
pub use bloom::BloomFilter;
pub use hash::{combine_key, fold_parts};
pub use key_index::KeyIndex;
pub use stats::FilterStats;

/// Common behaviour of all bitvector filter implementations: filters are
/// built whole from their keys ([`AnyFilter::from_keys`]) and then only
/// probed.
pub trait BitvectorFilter: Send + Sync {
    /// Tests a key; `false` means the key is definitely absent, `true` means
    /// it is present (exact filter) or probably present (Bloom variants).
    fn maybe_contains(&self, key: i64) -> bool;

    /// Probes up to 64 keys at once, returning a survivor mask: bit `i` is
    /// set iff `maybe_contains(keys[i])` would return true. Bits at
    /// positions `>= keys.len()` are always zero.
    ///
    /// The default delegates to the scalar probe; implementations override
    /// it with loops that hoist representation dispatch and field loads out
    /// of the per-key work. Overrides must stay bit-identical to the scalar
    /// probe — the kernel differential suite pins this.
    ///
    /// # Panics
    /// Debug-asserts `keys.len() <= 64`.
    fn probe_word(&self, keys: &[i64]) -> u64 {
        debug_assert!(keys.len() <= 64, "probe_word takes at most 64 keys");
        let mut mask = 0u64;
        for (i, &k) in keys.iter().enumerate() {
            mask |= (self.maybe_contains(k) as u64) << i;
        }
        mask
    }

    /// Probes an arbitrary number of keys, appending one survivor word per
    /// 64-key chunk to `out` (which is cleared first). Bit `i` of word `w`
    /// corresponds to `keys[w * 64 + i]`; unused high bits of a tail word
    /// are zero.
    fn probe_words(&self, keys: &[i64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len().div_ceil(64));
        for chunk in keys.chunks(64) {
            out.push(self.probe_word(chunk));
        }
    }

    /// Returns `true` only when the filter can prove that **every** key in
    /// the inclusive range `[lo, hi]` is definitely absent — i.e.
    /// `maybe_contains(k)` would return `false` for all `lo <= k <= hi`.
    /// Returning `false` carries no information ("cannot prove emptiness"),
    /// so any implementation may fall back to `false` and stay sound.
    ///
    /// This is the zone-map pruning hook: a scan over chunked storage asks
    /// whether a chunk's `[min, max]` key range can survive a pushed-down
    /// filter, and skips reading the chunk when it provably cannot. The
    /// default sweeps `maybe_contains` over narrow ranges (so even
    /// false-positive-prone Bloom variants answer exactly for small zones)
    /// and gives up on wide ones.
    fn probe_range_empty(&self, lo: i64, hi: i64) -> bool {
        if lo > hi {
            return true;
        }
        // Sweeping an unbounded range would turn one pruning decision into
        // billions of probes; beyond this width the default just declines.
        const MAX_SWEEP: i128 = 1024;
        if (hi as i128) - (lo as i128) + 1 > MAX_SWEEP {
            return false;
        }
        (lo..=hi).all(|k| !self.maybe_contains(k))
    }
}

/// Which filter implementation the executor should build at hash joins.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FilterKind {
    /// Range bitmap over the key range (a hashed key index for ranges wider
    /// than 2^20 bits and 64 slots per key): no false positives, cheapest
    /// probe. This is what the
    /// paper's "bitmap or hash filter" amounts to on warehouse schemas and
    /// is the executor's default.
    #[default]
    Bitmap,
    /// Always the hashed key index, whatever the key range: no false
    /// positives (the analysis assumption) at a hash probe's cost — the
    /// "perfect filter" ablation.
    Exact,
    /// Classic Bloom filter with the given bits per key.
    Bloom {
        /// Filter bits allocated per expected key.
        bits_per_key: usize,
    },
    /// Cache-line blocked Bloom filter with the given bits per key.
    BlockedBloom {
        /// Filter bits allocated per expected key.
        bits_per_key: usize,
    },
}

/// Runtime-dispatched filter built from a [`FilterKind`].
#[derive(Debug, Clone)]
pub enum AnyFilter {
    /// Range bitmap or hashed key index — no false positives.
    Bitmap(RangeBitmapFilter),
    /// Classic Bloom filter.
    Bloom(BloomFilter),
    /// Cache-line blocked Bloom filter.
    BlockedBloom(BlockedBloomFilter),
}

impl AnyFilter {
    /// Builds a filter of the requested kind from a slice of keys.
    pub fn from_keys(kind: FilterKind, keys: &[i64]) -> Self {
        match kind {
            FilterKind::Bitmap => AnyFilter::Bitmap(RangeBitmapFilter::from_keys(keys)),
            FilterKind::Exact => AnyFilter::Bitmap(RangeBitmapFilter::hashed(keys)),
            FilterKind::Bloom { bits_per_key } => {
                AnyFilter::Bloom(BloomFilter::from_keys(keys, bits_per_key))
            }
            FilterKind::BlockedBloom { bits_per_key } => {
                AnyFilter::BlockedBloom(BlockedBloomFilter::from_keys(keys, bits_per_key))
            }
        }
    }
}

impl BitvectorFilter for AnyFilter {
    fn maybe_contains(&self, key: i64) -> bool {
        match self {
            AnyFilter::Bitmap(f) => f.maybe_contains(key),
            AnyFilter::Bloom(f) => f.maybe_contains(key),
            AnyFilter::BlockedBloom(f) => f.maybe_contains(key),
        }
    }

    fn probe_word(&self, keys: &[i64]) -> u64 {
        match self {
            AnyFilter::Bitmap(f) => f.probe_word(keys),
            AnyFilter::Bloom(f) => f.probe_word(keys),
            AnyFilter::BlockedBloom(f) => f.probe_word(keys),
        }
    }

    // Dispatch once per key slice instead of once per 64-key word.
    fn probe_words(&self, keys: &[i64], out: &mut Vec<u64>) {
        match self {
            AnyFilter::Bitmap(f) => f.probe_words(keys, out),
            AnyFilter::Bloom(f) => f.probe_words(keys, out),
            AnyFilter::BlockedBloom(f) => f.probe_words(keys, out),
        }
    }

    fn probe_range_empty(&self, lo: i64, hi: i64) -> bool {
        match self {
            AnyFilter::Bitmap(f) => f.probe_range_empty(lo, hi),
            AnyFilter::Bloom(f) => f.probe_range_empty(lo, hi),
            AnyFilter::BlockedBloom(f) => f.probe_range_empty(lo, hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: FilterKind) {
        let keys: Vec<i64> = (0..1000).map(|i| i * 7 + 3).collect();
        let f = AnyFilter::from_keys(kind, &keys);
        for &k in &keys {
            assert!(f.maybe_contains(k), "inserted key must be found ({kind:?})");
        }
    }

    #[test]
    fn all_kinds_have_no_false_negatives() {
        exercise(FilterKind::Bitmap);
        exercise(FilterKind::Exact);
        exercise(FilterKind::Bloom { bits_per_key: 8 });
        exercise(FilterKind::BlockedBloom { bits_per_key: 8 });
    }

    #[test]
    fn exact_has_no_false_positives() {
        let keys: Vec<i64> = (0..1000).collect();
        let f = AnyFilter::from_keys(FilterKind::Exact, &keys);
        for k in 1000..2000 {
            assert!(!f.maybe_contains(k));
        }
        // Dense keys, but the exact kind never takes the bitmap.
        assert!(matches!(f, AnyFilter::Bitmap(ref f) if !f.is_dense()));
    }

    #[test]
    fn bloom_false_positive_rate_is_bounded() {
        let keys: Vec<i64> = (0..10_000).collect();
        let f = AnyFilter::from_keys(FilterKind::Bloom { bits_per_key: 10 }, &keys);
        let false_positives = (100_000..200_000).filter(|&k| f.maybe_contains(k)).count();
        let fpr = false_positives as f64 / 100_000.0;
        assert!(fpr < 0.05, "observed fpr {fpr} too high for 10 bits/key");
    }

    #[test]
    fn default_kind_is_bitmap() {
        assert_eq!(FilterKind::default(), FilterKind::Bitmap);
    }

    #[test]
    fn probe_words_match_scalar_probes_for_all_kinds() {
        let kinds = [
            FilterKind::Bitmap,
            FilterKind::Exact,
            FilterKind::Bloom { bits_per_key: 8 },
            FilterKind::BlockedBloom { bits_per_key: 8 },
        ];
        for kind in kinds {
            let keys: Vec<i64> = (0..300).map(|i| i * 3).collect();
            let f = AnyFilter::from_keys(kind, &keys);
            // 210 probes: non-word-aligned tail, mix of hits and misses,
            // negative keys.
            let probes: Vec<i64> = (-10..200).collect();
            let mut words = Vec::new();
            f.probe_words(&probes, &mut words);
            assert_eq!(words.len(), probes.len().div_ceil(64));
            for (i, &p) in probes.iter().enumerate() {
                let bit = (words[i / 64] >> (i % 64)) & 1 == 1;
                assert_eq!(bit, f.maybe_contains(p), "{kind:?} key {p}");
            }
            // Tail word's unused high bits stay zero.
            let tail = probes.len() % 64;
            assert_eq!(*words.last().unwrap() >> tail, 0);
            // Empty probe slice produces no words.
            f.probe_words(&[], &mut words);
            assert!(words.is_empty());
        }
    }

    #[test]
    fn probe_word_covers_sparse_bitmap_fallback() {
        let keys: Vec<i64> = (0..100).map(|i| i * 1_000_000_000).collect();
        let f = AnyFilter::from_keys(FilterKind::Bitmap, &keys);
        let probes: Vec<i64> = vec![0, 1, 1_000_000_000, 5, 2_000_000_000];
        let mask = f.probe_word(&probes);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!((mask >> i) & 1 == 1, f.maybe_contains(p));
        }
    }

    #[test]
    fn probe_range_empty_is_sound_for_all_kinds() {
        // Soundness contract: whenever probe_range_empty says `true`, every
        // scalar probe in the range must be `false`. Exactness (saying
        // `true` whenever it holds) is only required of the exact kinds.
        let kinds = [
            FilterKind::Bitmap,
            FilterKind::Exact,
            FilterKind::Bloom { bits_per_key: 8 },
            FilterKind::BlockedBloom { bits_per_key: 8 },
        ];
        let keys: Vec<i64> = (100..200).map(|i| i * 3).collect();
        for kind in kinds {
            let f = AnyFilter::from_keys(kind, &keys);
            for (lo, hi) in [
                (-50i64, 50i64),
                (0, 299),
                (300, 600),
                (299, 301),
                (601, 10_000),
                (i64::MIN, 0),
                (598, i64::MAX),
                (5, 4), // empty range is trivially empty
            ] {
                if f.probe_range_empty(lo, hi) {
                    // Sweep a bounded window of the claim (the full range
                    // may be astronomically wide; the keys all lie in
                    // [300, 597] so checking near the key span suffices).
                    let sweep_lo = lo.max(250);
                    let sweep_hi = hi.min(650);
                    for k in sweep_lo..=sweep_hi {
                        assert!(
                            !f.maybe_contains(k),
                            "{kind:?} claimed [{lo},{hi}] empty but contains {k}"
                        );
                    }
                }
            }
            // Exact kinds must also be complete on ranges that do hit keys.
            if matches!(kind, FilterKind::Bitmap | FilterKind::Exact) {
                assert!(!f.probe_range_empty(300, 300));
                assert!(!f.probe_range_empty(0, i64::MAX));
                assert!(f.probe_range_empty(301, 302));
                assert!(f.probe_range_empty(i64::MIN, 299));
                assert!(f.probe_range_empty(598, i64::MAX));
            }
        }
    }

    #[test]
    fn bitmap_kind_has_no_false_positives() {
        let keys: Vec<i64> = (0..500).map(|i| i * 2).collect();
        let f = AnyFilter::from_keys(FilterKind::Bitmap, &keys);
        for k in 0..1000 {
            assert_eq!(f.maybe_contains(k), k % 2 == 0 && k < 1000);
        }
    }
}
