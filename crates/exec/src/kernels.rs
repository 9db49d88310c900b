//! Probe kernels, and the one place [`KernelMode`] is dispatched.
//!
//! The hot loops of the scan (per morsel) and join (per batch) operators —
//! bitvector membership tests over candidate rows, join-key extraction, the
//! join-table probe — are implemented here in two interchangeable shapes
//! selected by [`crate::KernelMode`]:
//!
//! * the **scalar** shape works one row at a time — one
//!   [`BitvectorFilter::maybe_contains`], [`crate::batch::row_key`] or
//!   [`JoinTable::get`] per row (the original loops, kept as the
//!   differential-testing oracle), and
//! * the **vectorized** shape gathers the candidate rows' join keys
//!   column-at-a-time ([`crate::batch::gather_keys`]), probes them 64 keys
//!   per survivor word ([`BitvectorFilter::probe_words`]), compacts the
//!   survivors in place from the word masks, and probes the join table a
//!   batch at a time (`JoinTable::probe`). A predicate-free scan's first
//!   filter over one `Int64` key column skips the candidate list: it probes
//!   the morsel's contiguous key slice and reads the survivors off the word
//!   mask.
//!
//! Local predicates are not part of the mode split: both shapes run them
//! through [`ColumnPredicate::select`] and [`ColumnPredicate::retain`], which
//! resolve the column type and the operator once per call and select the
//! morsel's survivors in one pass — no per-predicate mask.
//!
//! Both shapes run over the same row-id [`Batch`]es and the same
//! [`JoinTable`] and produce identical surviving rows **in the same order**
//! and identical [`FilterStats`] (probed = candidates before the filter,
//! eliminated = rejected), so every downstream merge, batch boundary and
//! counter is bit-identical — the `kernel_oracle` suite property-tests this
//! over word-aligned and ragged lengths.
//!
//! Operators never look at the mode. They call the config-taking functions
//! below ([`scan_morsel`], [`batch_keys`], [`probe_range`], [`join_probe`]),
//! and every `Scalar`/`Vectorized` `match` lives in this file.

use crate::batch::{gather_keys, row_key, Batch};
use crate::executor::{ExecConfig, KernelMode};
use crate::join_table::JoinTable;
use bqo_bitvector::{AnyFilter, BitvectorFilter, FilterStats};
use bqo_plan::{ColumnPredicate, ColumnRef};
use bqo_storage::Column;
use std::ops::Range;
use std::sync::Arc;

/// One pushed-down bitvector filter as a scan morsel sees it: the published
/// filter and the indices of the columns its probe key is read from. The
/// filter is `None` when its source join published nothing — possible only
/// for malformed plans — which skips the slot.
pub(crate) type ScanFilter<'a> = (Option<&'a AnyFilter>, &'a [usize]);

/// The scan's per-morsel kernel: the physical `rows` of `columns` that pass
/// every local predicate (paired with the index of the column it reads) —
/// the first selects from `rows`, each further one retains its survivors —
/// and then every pushed-down filter in placement order; a row eliminated
/// by one predicate or filter is never tested by the next. Survivors come
/// back ascending; `stats` (one slot per filter) stays morsel-local, so the
/// kernel shares no mutable state. Both kernel modes produce identical
/// survivors, order and counters.
pub(crate) fn scan_morsel(
    config: &ExecConfig,
    columns: &[Arc<Column>],
    rows: Range<usize>,
    predicates: &[(&ColumnPredicate, usize)],
    filters: &[ScanFilter<'_>],
    stats: &mut [FilterStats],
) -> Vec<usize> {
    // Slots whose source join published nothing are skipped.
    let mut filters = filters
        .iter()
        .zip(stats)
        .filter_map(|(&(filter, key_columns), stats)| {
            let filter = filter?;
            let key_columns: Vec<&Column> = key_columns.iter().map(|&i| &*columns[i]).collect();
            Some((filter, key_columns, stats))
        });
    let mut scratch = ProbeScratch::default();
    let mut survivors: Vec<usize> = match predicates.split_first() {
        // The first predicate selects from the row range, the rest retain.
        Some((&(first, column), rest)) => {
            let mut survivors = first.select(&columns[column], rows);
            for &(predicate, column) in rest {
                predicate.retain(&columns[column], &mut survivors);
            }
            survivors
        }
        // A scan without local predicates (every fact-table scan) starts from
        // the row range itself, and its first filter probes the range
        // without listing it.
        None => match filters.next() {
            Some((filter, key_columns, stats)) => {
                probe_range(config, filter, &key_columns, rows, stats, &mut scratch)
            }
            None => rows.collect(),
        },
    };
    for (filter, key_columns, stats) in filters {
        retain(
            config,
            filter,
            &key_columns,
            &mut survivors,
            stats,
            &mut scratch,
        );
    }
    survivors
}

/// Keeps the `rows` (physical indices into `columns`) whose key passes
/// `filter`, in order, counting every candidate as probed — one
/// `maybe_contains` per row, or gathered keys probed 64 rows per survivor
/// word and compacted in place.
fn retain(
    config: &ExecConfig,
    filter: &AnyFilter,
    columns: &[&Column],
    rows: &mut Vec<usize>,
    stats: &mut FilterStats,
    scratch: &mut ProbeScratch,
) {
    match config.kernel_mode {
        KernelMode::Scalar => retain_scalar(filter, columns, rows, stats),
        KernelMode::Vectorized => probe_retain(filter, columns, rows, stats, scratch),
    }
}

/// `retain` over every row of `rows`, without listing them first when it
/// can: one `Int64` key column (a residual filter's gathered keys, too) is
/// probed straight from its values, and survivors are read off the word mask.
pub fn probe_range(
    config: &ExecConfig,
    filter: &AnyFilter,
    columns: &[&Column],
    rows: Range<usize>,
    stats: &mut FilterStats,
    scratch: &mut ProbeScratch,
) -> Vec<usize> {
    match (config.kernel_mode, columns) {
        (KernelMode::Vectorized, [Column::Int64(values)]) if rows.len() >= VECTOR_MIN_ROWS => {
            let (start, probed) = (rows.start, rows.len());
            filter.probe_words(&values[rows], &mut scratch.words);
            let kept: usize = scratch.words.iter().map(|w| w.count_ones() as usize).sum(); // CAST-OK: popcount <= 64 fits usize
            let mut survivors = Vec::with_capacity(kept);
            for_each_set_bit(&scratch.words, |i| survivors.push(start + i));
            stats.probed += probed as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
            stats.eliminated += (probed - survivors.len()) as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
            survivors
        }
        _ => {
            let mut survivors = rows.collect();
            retain(config, filter, columns, &mut survivors, stats, scratch);
            survivors
        }
    }
}

/// The batch a scan emits for the physical `rows` of `columns`: zero-copy,
/// sharing the columns and marking `rows` in the batch's row-id vector.
/// (Columns longer than `u32` row ids address are gathered dense instead.)
pub(crate) fn scan_batch(
    schema: &Arc<[ColumnRef]>,
    columns: &[Arc<Column>],
    rows: impl Iterator<Item = usize>,
) -> Batch {
    let physical_rows = columns.first().map_or(0, |c| c.len());
    if u32::try_from(physical_rows).is_ok() {
        let selection = rows.map(|r| r as u32).collect(); // CAST-OK: r < physical_rows, which the guard proved fits u32
        Batch::with_schema(Arc::clone(schema), columns.to_vec()).with_selection(selection)
    } else {
        let rows: Vec<usize> = rows.collect();
        let columns = columns.iter().map(|c| Arc::new(c.take(&rows))).collect();
        Batch::with_schema(Arc::clone(schema), columns)
    }
}

/// Collapsed join keys of every logical row of `batch`; both shapes produce
/// identical keys (the kernel differential suite pins this).
pub(crate) fn batch_keys(config: &ExecConfig, batch: &Batch, columns: &[ColumnRef]) -> Vec<i64> {
    match config.kernel_mode {
        KernelMode::Scalar => batch.key_values(columns),
        KernelMode::Vectorized => batch.key_values_vectorized(columns),
    }
}

/// The hash join's probe kernel over `keys`: every `(build row, probe row)`
/// match pair as two parallel lists, probe rows in order and each key's
/// build rows ascending. A probe row's id is its position in `keys`, whose
/// length the caller has checked fits `u32` (`join_table::row_id`).
pub fn join_probe(config: &ExecConfig, table: &JoinTable, keys: &[i64]) -> (Vec<u32>, Vec<u32>) {
    let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
    match config.kernel_mode {
        KernelMode::Scalar => {
            for (&key, probe_row) in keys.iter().zip(0u32..) {
                for &build_row in table.get(key) {
                    build_rows.push(build_row);
                    probe_rows.push(probe_row);
                }
            }
        }
        KernelMode::Vectorized => table.probe(keys, &mut build_rows, &mut probe_rows),
    }
    (build_rows, probe_rows)
}

/// The scalar oracle's retain loop: one `maybe_contains` per candidate row.
fn retain_scalar<F: BitvectorFilter + ?Sized>(
    filter: &F,
    columns: &[&Column],
    rows: &mut Vec<usize>,
    stats: &mut FilterStats,
) {
    rows.retain(|&row| {
        let keep = filter.maybe_contains(row_key(columns, row));
        stats.record(!keep);
        keep
    });
}

/// Minimum candidate count before the word-level path engages; below it the
/// scalar loop runs (identical results, no gather/mask setup cost).
pub(crate) const VECTOR_MIN_ROWS: usize = 16;

/// Reusable scratch buffers for the gather → probe → compact pipeline, so a
/// morsel kernel probing several filters allocates at most once.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    keys: Vec<i64>,
    words: Vec<u64>,
}

/// Vectorized in-place refinement: keeps only the `rows` (physical indices
/// into `columns`) whose join key passes `filter`, preserving order, and
/// counts every candidate as probed and every rejected one as eliminated —
/// exactly like the scalar loop
/// `rows.retain(|&r| { let keep = filter.maybe_contains(row_key(columns, r)); stats.record(!keep); keep })`,
/// which it falls back to below `VECTOR_MIN_ROWS` (16) rows.
pub fn probe_retain<F: BitvectorFilter + ?Sized>(
    filter: &F,
    columns: &[&Column],
    rows: &mut Vec<usize>,
    stats: &mut FilterStats,
    scratch: &mut ProbeScratch,
) {
    let before = rows.len();
    if before < VECTOR_MIN_ROWS {
        return retain_scalar(filter, columns, rows, stats);
    }
    gather_keys(columns, rows, &mut scratch.keys);
    filter.probe_words(&scratch.keys, &mut scratch.words);
    let kept = compact_by_mask(rows, &scratch.words);
    stats.probed += before as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    stats.eliminated += (before - kept) as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
}

/// Compacts `rows` in place keeping index `i` iff bit `i % 64` of word
/// `i / 64` is set; returns the surviving count. Order is preserved.
fn compact_by_mask(rows: &mut Vec<usize>, words: &[u64]) -> usize {
    let mut kept = 0usize;
    for_each_set_bit(words, |i| {
        rows[kept] = rows[i];
        kept += 1;
    });
    rows.truncate(kept);
    kept
}

/// Calls `visit` with the index of every set bit of `words`, ascending: one
/// step per survivor, not one test per row (`probe_words` clears tail bits).
fn for_each_set_bit(words: &[u64], mut visit: impl FnMut(usize)) {
    for (word, &bits) in words.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            visit(word * 64 + bits.trailing_zeros() as usize); // CAST-OK: a bit position < 64 fits usize
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_bitvector::FilterKind;

    #[test]
    fn probe_retain_matches_scalar_loop() {
        let values: Vec<i64> = (0..500).map(|i| i * 3 % 101).collect();
        let col = Column::Int64(values);
        let cols = [&col];
        let filter = AnyFilter::from_keys(FilterKind::Bitmap, &(0..50).collect::<Vec<i64>>());
        // Lengths straddling the word-size and gate boundaries: contiguous
        // candidates, the same range off the column's start, and lists with
        // a duplicate and a gap.
        let shapes = [0usize, 1, 15, 16, 63, 64, 65, 128, 500]
            .into_iter()
            .flat_map(|len| {
                let gapped = (0..len).map(|i| if i == len / 2 { 0 } else { i });
                let shifted = (0..len).map(move |i| i + (500 - len));
                [
                    (0..len).collect::<Vec<usize>>(),
                    shifted.collect(),
                    gapped.collect(),
                ]
            });
        for candidates in shapes {
            let len = candidates.len();
            let mut scalar_rows = candidates.clone();
            let mut scalar_stats = FilterStats::new();
            retain_scalar(&filter, &cols, &mut scalar_rows, &mut scalar_stats);

            let mut vec_rows = candidates;
            let mut vec_stats = FilterStats::new();
            let mut scratch = ProbeScratch::default();
            probe_retain(&filter, &cols, &mut vec_rows, &mut vec_stats, &mut scratch);

            assert_eq!(vec_rows, scalar_rows, "len {len}");
            assert_eq!(vec_stats, scalar_stats, "len {len}");
        }
    }

    #[test]
    fn scan_morsel_without_predicates_starts_from_the_row_range() {
        let columns = [Arc::new(Column::Int64((0..300).map(|i| i % 9).collect()))];
        let filter = AnyFilter::from_keys(FilterKind::Bitmap, &[1, 4]);
        let filters: [ScanFilter<'_>; 2] = [(Some(&filter), &[0]), (None, &[0])];
        let predicate = ColumnPredicate::new("v", bqo_plan::CompareOp::Ge, 0i64);
        // Ranges on both sides of VECTOR_MIN_ROWS, word-aligned and ragged,
        // starting on and off a word boundary.
        for rows in [0..0, 7..8, 5..20, 3..67, 64..128, 1..300, 40..300] {
            let mut expected = None;
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let config = ExecConfig::default().with_kernel_mode(mode);
                // An always-true predicate takes the selection path to the
                // same answer.
                for predicates in [&[][..], &[(&predicate, 0)][..]] {
                    let mut stats = [FilterStats::new(); 2];
                    let survivors = scan_morsel(
                        &config,
                        &columns,
                        rows.clone(),
                        predicates,
                        &filters,
                        &mut stats,
                    );
                    assert!(survivors.iter().all(|&r| matches!(r % 9, 1 | 4)));
                    assert_eq!(stats[0].probed, rows.len() as u64);
                    let got = (survivors, stats);
                    assert_eq!(
                        expected.get_or_insert(got.clone()),
                        &got,
                        "{mode:?} {rows:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_retain_all_pass_and_all_fail() {
        let col = Column::Int64((0..100).collect());
        let cols = [&col];
        let everything = AnyFilter::from_keys(FilterKind::Bitmap, &(0..100).collect::<Vec<i64>>());
        let nothing = AnyFilter::from_keys(FilterKind::Bitmap, &[]);
        let mut scratch = ProbeScratch::default();

        let mut rows: Vec<usize> = (0..100).collect();
        let mut stats = FilterStats::new();
        probe_retain(&everything, &cols, &mut rows, &mut stats, &mut scratch);
        assert_eq!(rows.len(), 100);
        assert_eq!(stats.probed, 100);
        assert_eq!(stats.eliminated, 0);

        let mut stats = FilterStats::new();
        probe_retain(&nothing, &cols, &mut rows, &mut stats, &mut scratch);
        assert!(rows.is_empty());
        assert_eq!(stats.probed, 100);
        assert_eq!(stats.eliminated, 100);
    }

    #[test]
    fn probe_range_over_gathered_keys_matches_scalar_loop() {
        // A residual filter's keys: gathered into one `Int64` column and
        // probed over all of its rows.
        let keys: Vec<i64> = (0..300).map(|i| i % 7).collect();
        let filter = AnyFilter::from_keys(FilterKind::Bitmap, &[0, 2, 4]);
        let mut scratch = ProbeScratch::default();
        for len in [0usize, 1, 15, 16, 63, 64, 65, 300] {
            let column = Column::Int64(keys[..len].to_vec());
            let mut expected_stats = FilterStats::new();
            let expected: Vec<usize> = (0..len)
                .filter(|&row| {
                    let keep = filter.maybe_contains(keys[row]);
                    expected_stats.record(!keep);
                    keep
                })
                .collect();
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let config = ExecConfig::default().with_kernel_mode(mode);
                let mut stats = FilterStats::new();
                let kept = probe_range(
                    &config,
                    &filter,
                    &[&column],
                    0..len,
                    &mut stats,
                    &mut scratch,
                );
                assert_eq!(kept, expected, "{mode:?} len {len}");
                assert_eq!(stats, expected_stats, "{mode:?} len {len}");
            }
        }
    }

    #[test]
    fn compact_preserves_order() {
        let mut rows = vec![10usize, 20, 30, 40, 50];
        // Keep bits 0, 2, 4.
        let kept = compact_by_mask(&mut rows, &[0b10101]);
        assert_eq!(kept, 3);
        assert_eq!(rows, vec![10, 30, 50]);
    }
}
