//! Range bitmap filter.
//!
//! Decision-support schemas join on dense surrogate keys, and the classic
//! "bitvector filter" of the paper's title (bitmap / hash filter, \[18\]) is in
//! that case literally a bitmap indexed by key value: one shift and one AND
//! per probe, no hashing, no false positives. This is the cheapest possible
//! filter probe and the implementation the executor uses by default; the
//! Bloom variants remain available for the ablation experiments.
//!
//! The representation is priced in bits: a selective build (a handful of
//! dates or customers out of a wide key range) still gets the bitmap as
//! long as the bitmap stays cache-sized, and only a key range too wide for
//! that falls back to the hashed [`KeyIndex`].

use crate::key_index::KeyIndex;
use crate::BitvectorFilter;
use std::sync::Arc;

/// How much larger than the number of inserted keys the key range may be
/// before direct addressing is considered too sparse: the executor's join
/// table spends 4 bytes per slot, so it addresses directly only within this
/// bound.
const MAX_RANGE_EXPANSION: u64 = 64;

/// The widest bitmap a filter takes whatever its number of keys: 2^20 bits,
/// a 128 KiB bitmap that stays cache-resident while a scan probes it. A
/// bitmap probe (one shift and one AND) beats a hashed [`KeyIndex`] lookup
/// at every width up to 2^24 bits, by 2x or more; what grows with the width
/// is the bitmap's build, zeroing `span / 8` bytes. At 2^20 bits that takes
/// about as long as indexing a thousand keys; at 2^24 it is ten times
/// longer, and 2 MiB per filter.
const MAX_BITMAP_BITS: u64 = 1 << 20;

/// The smallest key and the number of slots (`max - min + 1`) of `keys`, if
/// that span is at most `max(keys.len() * MAX_RANGE_EXPANSION, min_budget)`
/// and addressable at all; `None` for no keys. Computed overflow-free — a
/// span wider than `i64::MAX` (any composite or string key digest) is
/// sparse, never a wrapped small number.
fn span_within(keys: &[i64], min_budget: u64) -> Option<(i64, usize)> {
    let (min, max) = keys
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let span = max.checked_sub(min)?.unsigned_abs().checked_add(1)?;
    let budget = u64::try_from(keys.len())
        .ok()?
        .saturating_mul(MAX_RANGE_EXPANSION)
        .max(min_budget);
    if span > budget || span > i64::MAX.unsigned_abs() - 64 {
        return None;
    }
    Some((min, usize::try_from(span).ok()?))
}

/// The smallest key `min` and the number of slots (`max - min + 1`) a
/// structure addressed directly by `key - min` needs for `keys`, or `None`
/// when there are no keys or their span is too sparse to be worth it: wider
/// than `MAX_RANGE_EXPANSION` (64) slots per key, or not addressable at all.
/// This is the executor's join-table layout rule, priced in its 4-byte
/// slots; the bitmap filter, priced in bits, is dense on a wider rule
/// (see [`RangeBitmapFilter::from_keys`]) that includes this one.
pub fn dense_span(keys: &[i64]) -> Option<(i64, usize)> {
    span_within(keys, 0)
}

/// The bitmap filter's representation rule: the `(min, span)` of a dense
/// bitmap over `keys` when their span is at most 64 slots per key (the
/// [`dense_span`] rule) or at most `MAX_BITMAP_BITS` (2^20) bits, otherwise
/// `None` — the hashed key index.
fn bitmap_span(keys: &[i64]) -> Option<(i64, usize)> {
    span_within(keys, MAX_BITMAP_BITS)
}

/// A no-false-positive filter: a dense bitmap over the observed key range
/// when that range is at most 64 slots per key or at most 2^20 bits (128
/// KiB), and a hashed key index otherwise.
#[derive(Debug, Clone)]
pub enum RangeBitmapFilter {
    /// Dense representation: bit `key - min` is set for every key.
    Bitmap {
        /// Smallest key the bitmap can represent (bit 0).
        min: i64,
        /// The bit words; bit `key - min` is set for member keys.
        words: Vec<u64>,
    },
    /// Sparse representation: membership in an open-addressing key index —
    /// shared with the join table that was built over the same keys when the
    /// filter is that table's view.
    Sparse(Arc<KeyIndex>),
}

impl RangeBitmapFilter {
    /// Builds a filter from a slice of keys: the dense bitmap when the keys'
    /// span is at most 64 slots per key (the [`dense_span`] rule) or at most
    /// 2^20 bits, otherwise a freshly built hashed key index. No keys give
    /// the empty bitmap.
    pub fn from_keys(keys: &[i64]) -> Self {
        match bitmap_span(keys) {
            Some((min, span)) => RangeBitmapFilter::dense(min, span, keys),
            None if keys.is_empty() => RangeBitmapFilter::dense(0, 0, keys),
            None => RangeBitmapFilter::hashed(keys),
        }
    }

    /// The filter over `keys` when `index` already indexes exactly them, as
    /// a hashed join table's index does: the bitmap
    /// [`RangeBitmapFilter::from_keys`] would build when the same rule
    /// allows one, otherwise `index` itself, shared rather than rebuilt.
    pub fn over_index(keys: &[i64], index: &Arc<KeyIndex>) -> Self {
        match bitmap_span(keys) {
            Some((min, span)) => RangeBitmapFilter::dense(min, span, keys),
            None => RangeBitmapFilter::Sparse(Arc::clone(index)),
        }
    }

    /// The dense representation over `span` slots starting at `min`, for
    /// `keys` that all lie in `[min, min + span)` — the caller applied the
    /// representation rule to them or, like the join table, already
    /// addresses them this way.
    pub fn dense(min: i64, span: usize, keys: &[i64]) -> Self {
        let mut words = vec![0u64; span.div_ceil(64)];
        for &k in keys {
            let offset = (k - min) as usize; // CAST-OK: k - min in [0, span) by the caller's contract
            words[offset / 64] |= 1u64 << (offset % 64);
        }
        RangeBitmapFilter::Bitmap { min, words }
    }

    /// The sparse representation over a freshly built index of `keys`.
    pub(crate) fn hashed(keys: &[i64]) -> Self {
        RangeBitmapFilter::Sparse(Arc::new(KeyIndex::build(keys).0))
    }

    /// True when the dense bitmap representation is in use.
    pub fn is_dense(&self) -> bool {
        matches!(self, RangeBitmapFilter::Bitmap { .. })
    }
}

/// Branchless dense probe of up to 64 keys: out-of-range offsets are clamped
/// to 0 (so the word load stays in bounds without a data-dependent branch)
/// and the loaded bit is ANDed with the range check. `words` must be
/// non-empty for the clamp to be valid; the empty bitmap rejects everything.
#[inline]
fn dense_probe_word(min: i64, words: &[u64], keys: &[i64]) -> u64 {
    if words.is_empty() {
        return 0;
    }
    let limit = (words.len() * 64) as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    let mut mask = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        let offset = k.wrapping_sub(min) as u64; // CAST-OK: two's-complement reinterpret; out-of-range keys fail the limit test
        let in_range = u64::from(offset < limit);
        let safe = if offset < limit { offset } else { 0 };
        let bit = (words[(safe / 64) as usize] >> (safe % 64)) & 1; // CAST-OK: word index; bounded by the range/mask check
        mask |= (bit & in_range) << i;
    }
    mask
}

/// Sparse probe of up to 64 keys: one index lookup per key.
#[inline]
fn sparse_probe_word(index: &KeyIndex, keys: &[i64]) -> u64 {
    let mut mask = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        mask |= u64::from(index.contains(k)) << i;
    }
    mask
}

impl BitvectorFilter for RangeBitmapFilter {
    #[inline]
    fn maybe_contains(&self, key: i64) -> bool {
        match self {
            RangeBitmapFilter::Bitmap { min, words } => {
                let offset = key.wrapping_sub(*min);
                // CAST-OK: short-circuit: only evaluated when offset >= 0
                if offset < 0 || offset as usize >= words.len() * 64 {
                    return false;
                }
                let offset = offset as usize; // CAST-OK: offset checked non-negative and in bounds above
                words[offset / 64] & (1u64 << (offset % 64)) != 0
            }
            RangeBitmapFilter::Sparse(index) => index.contains(key),
        }
    }

    // Word-level probe: the representation dispatch, `min` and the bit-count
    // limit are hoisted out of the per-key loop, and the dense inner loop is
    // branchless — a negative offset wraps to a huge unsigned value, so a
    // single unsigned compare performs both range checks (bit-identical to
    // the scalar probe above: `words.len() * 64 <= i64::MAX - 1 < 2^63`,
    // while any negative offset reinterprets to `>= 2^63`). Out-of-range
    // offsets are clamped to 0 before the word load and the loaded bit is
    // masked by the range check, so the loop has no data-dependent branch to
    // mispredict (the scalar probe's early return costs ~1 mispredict per
    // probe on mixed hit/miss streams).
    fn probe_word(&self, keys: &[i64]) -> u64 {
        debug_assert!(keys.len() <= 64, "probe_word takes at most 64 keys");
        match self {
            RangeBitmapFilter::Bitmap { min, words } => dense_probe_word(*min, words, keys),
            RangeBitmapFilter::Sparse(index) => sparse_probe_word(index, keys),
        }
    }

    // Whole-slice override: one representation dispatch for the entire key
    // slice instead of one per 64-key chunk.
    fn probe_words(&self, keys: &[i64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len().div_ceil(64));
        match self {
            RangeBitmapFilter::Bitmap { min, words } => {
                for chunk in keys.chunks(64) {
                    out.push(dense_probe_word(*min, words, chunk));
                }
            }
            RangeBitmapFilter::Sparse(index) => {
                for chunk in keys.chunks(64) {
                    out.push(sparse_probe_word(index, chunk));
                }
            }
        }
    }

    // Exact range-emptiness in both representations: the dense bitmap scans
    // the words overlapping the (clamped) offset window, the sparse index
    // iterates whichever of {stored keys, probe range} is smaller. Arithmetic
    // goes through i128 so extreme `[lo, hi]` bounds cannot overflow.
    fn probe_range_empty(&self, lo: i64, hi: i64) -> bool {
        if lo > hi {
            return true;
        }
        match self {
            RangeBitmapFilter::Bitmap { min, words } => {
                let limit = (words.len() as i128) * 64; // CAST-OK: widening; i128 holds any value involved
                let lo_off = (i128::from(lo) - i128::from(*min)).max(0);
                let hi_off = (i128::from(hi) - i128::from(*min)).min(limit - 1);
                if lo_off > hi_off {
                    return true;
                }
                let (lo_off, hi_off) = (lo_off as usize, hi_off as usize); // CAST-OK: both clamped to [0, words.len() * 64) above
                let (lo_word, hi_word) = (lo_off / 64, hi_off / 64);
                for (w, &stored) in words.iter().enumerate().take(hi_word + 1).skip(lo_word) {
                    let mut word = stored;
                    if w == lo_word {
                        word &= u64::MAX << (lo_off % 64);
                    }
                    if w == hi_word && hi_off % 64 != 63 {
                        word &= (1u64 << (hi_off % 64 + 1)) - 1;
                    }
                    if word != 0 {
                        return false;
                    }
                }
                true
            }
            RangeBitmapFilter::Sparse(index) => {
                let width = i128::from(hi) - i128::from(lo) + 1;
                // CAST-OK: widening; i128 holds any value involved
                if width <= index.num_keys() as i128 {
                    (lo..=hi).all(|k| !index.contains(k))
                } else {
                    index.keys().all(|k| k < lo || k > hi)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_keys_use_bitmap() {
        let keys: Vec<i64> = (100..1100).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(f.is_dense());
        for k in 100..1100 {
            assert!(f.maybe_contains(k));
        }
        assert!(!f.maybe_contains(99));
        assert!(!f.maybe_contains(1100));
        assert!(!f.maybe_contains(-5));
    }

    #[test]
    fn sparse_keys_fall_back_to_hash_set() {
        let keys: Vec<i64> = (0..100).map(|i| i * 1_000_000_000).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(!f.is_dense());
        for &k in &keys {
            assert!(f.maybe_contains(k));
        }
        assert!(!f.maybe_contains(12345));
    }

    #[test]
    fn subset_of_dense_range_has_no_false_positives() {
        let keys: Vec<i64> = (0..1000).filter(|k| k % 3 == 0).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(f.is_dense());
        for k in 0..1000 {
            assert_eq!(f.maybe_contains(k), k % 3 == 0);
        }
    }

    #[test]
    fn span_wider_than_i64_is_sparse_not_a_wrapped_allocation() {
        // `max - min` overflows i64 here; it used to wrap negative, pass the
        // density check and abort allocating ~2^61 words.
        let keys = [i64::MIN + 5, 0, i64::MAX - 5];
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(!f.is_dense());
        for &k in &keys {
            assert!(f.maybe_contains(k));
        }
        assert!(!f.maybe_contains(1));
        assert!(!RangeBitmapFilter::from_keys(&[i64::MIN, i64::MAX]).is_dense());
    }

    #[test]
    fn dense_span_threshold_and_extremes() {
        assert_eq!(dense_span(&[10]), Some((10, 1)));
        assert_eq!(dense_span(&[124, -3]), Some((-3, 128)));
        assert_eq!(dense_span(&[-3, 125]), None);
        assert_eq!(dense_span(&[0, 127]), Some((0, 128)));
        assert_eq!(dense_span(&[0, 5, 127, 5]), Some((0, 128)));
        assert_eq!(dense_span(&[i64::MIN, i64::MAX]), None);
        assert_eq!(dense_span(&[i64::MIN, -1]), None);
        assert_eq!(
            dense_span(&[i64::MAX - 3, i64::MAX]),
            Some((i64::MAX - 3, 4))
        );
        assert_eq!(dense_span(&[]), None);
    }

    /// `from_keys` and `over_index` (the join table's filter view) agree on
    /// the representation of `keys`; returns whether it is the bitmap.
    fn rule_takes_bitmap(keys: &[i64]) -> bool {
        let index = Arc::new(KeyIndex::build(keys).0);
        let over_index = RangeBitmapFilter::over_index(keys, &index).is_dense();
        let from_keys = RangeBitmapFilter::from_keys(keys).is_dense();
        assert_eq!(from_keys, over_index, "{} keys", keys.len());
        from_keys
    }

    #[test]
    fn bitmap_rule_takes_spans_up_to_two_to_the_twenty_bits() {
        let bits: i64 = 1 << 20;
        // Two keys, far beyond 64 slots per key: the bit bound decides.
        assert!(rule_takes_bitmap(&[0, bits - 1]));
        assert!(!rule_takes_bitmap(&[0, bits]));
        assert!(rule_takes_bitmap(&[-bits / 2, bits / 2 - 1]));
        assert!(!rule_takes_bitmap(&[-bits / 2, bits / 2]));
        // At the `i64` extremes.
        assert!(rule_takes_bitmap(&[i64::MAX - (bits - 1), i64::MAX]));
        assert!(!rule_takes_bitmap(&[i64::MAX - bits, i64::MAX]));
        assert!(rule_takes_bitmap(&[i64::MIN, i64::MIN + (bits - 1)]));
        assert!(!rule_takes_bitmap(&[i64::MIN, i64::MIN + bits]));
        assert!(!rule_takes_bitmap(&[i64::MIN, i64::MAX]));
        // One slot past the bound is still a bitmap when the keys are 64
        // slots apart or closer: 2^14 + 1 keys at stride 64 span 2^20 + 1.
        let per_key: Vec<i64> = (0..=bits / 64).map(|k| k * 64).collect();
        assert_eq!(span_within(&per_key, 0), Some((0, (bits + 1) as usize)));
        assert!(rule_takes_bitmap(&per_key));
        // Without the last-but-one key the same span is 64 slots per key
        // plus one, and the index takes it.
        let mut short = per_key.clone();
        short.remove(per_key.len() - 2);
        assert!(!rule_takes_bitmap(&short));
        // The join table's own rule does not widen.
        assert_eq!(dense_span(&[0, bits - 1]), None);
    }

    #[test]
    fn bitmap_and_key_index_agree_on_keys_straddling_the_bound() {
        let bits: i64 = 1 << 20;
        let spread = |base: i64, top: i64| -> Vec<i64> {
            let mut keys: Vec<i64> = (0..40).map(|i| base + i * 7_919).collect();
            keys.extend([base, base + top, base + top / 2, base + 3]);
            keys
        };
        let key_sets = [
            spread(0, bits - 1),
            spread(0, bits),
            spread(-bits / 3, bits - 1),
            spread(-bits / 3, bits + 1),
            spread(i64::MAX - (bits - 1), bits - 1),
            spread(i64::MIN, bits - 1),
            spread(i64::MIN, bits),
        ];
        for keys in &key_sets {
            let bitmap_or_index = RangeBitmapFilter::from_keys(keys);
            let index = RangeBitmapFilter::hashed(keys);
            let (min, max) = (keys.iter().min().unwrap(), keys.iter().max().unwrap());
            let span = i128::from(*max) - i128::from(*min) + 1;
            assert_eq!(
                bitmap_or_index.is_dense(),
                span <= i128::from(bits),
                "span {span}"
            );
            let mut probes: Vec<i64> = Vec::new();
            for &k in keys {
                probes.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
            }
            probes.extend([
                i64::MIN,
                i64::MAX,
                0,
                -1,
                min.wrapping_sub(64),
                max.wrapping_add(64),
            ]);
            probes.extend((0..200).map(|i| min.wrapping_add(i * 5_243)));
            for &p in &probes {
                assert_eq!(
                    bitmap_or_index.maybe_contains(p),
                    index.maybe_contains(p),
                    "{p}"
                );
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            bitmap_or_index.probe_words(&probes, &mut got);
            index.probe_words(&probes, &mut want);
            assert_eq!(got, want);
            let mut bounds = vec![i64::MIN, i64::MAX, 0, -1, *min, *max];
            bounds.extend(
                keys.iter()
                    .take(8)
                    .flat_map(|&k| [k.wrapping_sub(1), k, k.wrapping_add(1)]),
            );
            for &lo in &bounds {
                for &hi in &bounds {
                    assert_eq!(
                        bitmap_or_index.probe_range_empty(lo, hi),
                        index.probe_range_empty(lo, hi),
                        "[{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = RangeBitmapFilter::from_keys(&[]);
        assert!(f.is_dense());
        assert!(!f.maybe_contains(0));
        assert!(f.probe_range_empty(i64::MIN, i64::MAX));
    }

    #[test]
    fn probe_range_empty_dense_matches_scalar_sweep() {
        let keys: Vec<i64> = (0..500).filter(|k| k % 7 == 0).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(f.is_dense());
        for lo in (-20..520).step_by(13) {
            for width in [0i64, 1, 5, 63, 64, 65, 200] {
                let hi = lo + width;
                let expected = (lo..=hi).all(|k| !f.maybe_contains(k));
                assert_eq!(f.probe_range_empty(lo, hi), expected, "[{lo},{hi}]");
            }
        }
        assert!(f.probe_range_empty(i64::MIN, -1));
        assert!(f.probe_range_empty(498, i64::MAX));
        assert!(!f.probe_range_empty(i64::MIN, i64::MAX));
    }

    #[test]
    fn probe_range_empty_sparse_matches_scalar_sweep() {
        let keys: Vec<i64> = (0..50).map(|i| i * 1_000_000_000).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(!f.is_dense());
        // Narrow range: iterates the range.
        assert!(f.probe_range_empty(1, 999_999_999));
        assert!(!f.probe_range_empty(999_999_999, 1_000_000_001));
        // Wide range: iterates the set.
        assert!(!f.probe_range_empty(i64::MIN, i64::MAX));
        assert!(f.probe_range_empty(49_000_000_001, i64::MAX));
        assert!(f.probe_range_empty(i64::MIN, -1));
    }

    #[test]
    fn negative_key_ranges_work() {
        let keys: Vec<i64> = (-500..-100).collect();
        let f = RangeBitmapFilter::from_keys(&keys);
        assert!(f.is_dense());
        assert!(f.maybe_contains(-300));
        assert!(!f.maybe_contains(0));
    }
}
