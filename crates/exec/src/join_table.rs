//! The hash join's build-side table: one flat CSR layout.
//!
//! A [`JoinTable`] maps a collapsed join key to the build rows carrying it
//! through exactly two arrays: `rows` holds every build row id grouped by
//! key, and `offsets[slot]..offsets[slot + 1]` delimits the group of the
//! key that owns `slot`. There is no per-key allocation, nothing to free
//! row by row, and match lists come back as `&[u32]` slices.
//!
//! A key finds its slot in one of two ways, chosen from the build keys alone
//! by the rule the range bitmap filter uses ([`bqo_bitvector::dense_span`]):
//!
//! * **direct** — when the keys' span is dense (surrogate-key dimensions,
//!   the paper's star/snowflake case) the slot *is* `key - min`: one
//!   subtraction and one bounds check, no hashing;
//! * **hashed** — otherwise one open-addressing [`KeyIndex`] (it lives in
//!   `bqo-bitvector`), slots numbered in first-seen order.
//!
//! The bitvector filter the join publishes is a view of this table
//! ([`JoinTable::filter`]): built from the same gathered keys with the
//! table's own `min` and slot count when direct, the very same
//! `Arc<KeyIndex>` probed for membership only when hashed — one key gather
//! and one key index per join.
//!
//! The arrays are built by count-then-scatter. Each worker owns a contiguous
//! *slot range* — hence a contiguous range of `rows` — counts the build rows
//! falling into it, prefix-sums, and scatters them in ascending row order;
//! the per-range pieces are then concatenated, so every key's row list is
//! ascending and identical for every worker count (the determinism contract
//! `parallel_properties` pins) with no re-hash merge. Slot assignment of the
//! hashed shape is the index's one sequential find-or-insert pass.

use crate::morsel::chunk_morsels;
use crate::pipeline::ExecContext;
use bqo_bitvector::{dense_span, KeyIndex, RangeBitmapFilter};
use bqo_storage::StorageError;
use std::sync::Arc;

/// `row` as a `u32` row id, or [`StorageError::RowIdOverflow`] when it does
/// not fit — the one checked conversion every build side and probe batch
/// passes its row count through before row ids are narrowed.
pub(crate) fn row_id(row: usize) -> Result<u32, StorageError> {
    u32::try_from(row).map_err(|_| StorageError::RowIdOverflow { rows: row })
}

/// How a key finds its slot.
#[derive(Debug, Clone)]
enum SlotIndex {
    /// Slot `key - min`, valid below `offsets.len() - 1`.
    Direct { min: i64 },
    /// The slot the shared key index assigned.
    Hashed(Arc<KeyIndex>),
}

/// The direct-addressed slot of `key`: `key - min` when below `limit`. A key
/// below `min` wraps to a huge unsigned value, so one unsigned compare is
/// both range checks.
#[inline]
fn direct_slot(min: i64, limit: usize, key: i64) -> Option<usize> {
    let offset = key.wrapping_sub(min) as u64; // CAST-OK: two's-complement reinterpret; out-of-range keys fail the limit test
    let in_range = offset < limit as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    in_range.then_some(offset as usize) // CAST-OK: offset < limit, which is a usize
}

/// A flat key → build-rows table (see the module docs).
#[derive(Debug, Clone)]
pub struct JoinTable {
    index: SlotIndex,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Default for JoinTable {
    /// The table of an empty build side: every lookup misses.
    fn default() -> Self {
        JoinTable {
            index: SlotIndex::Direct { min: 0 },
            offsets: vec![0],
            rows: Vec::new(),
        }
    }
}

impl JoinTable {
    /// Builds the table over `keys`, where `keys[row]` is the collapsed join
    /// key of build row `row`. Fans the count-then-scatter out over the
    /// context's workers; fails with [`StorageError::RowIdOverflow`] for more
    /// rows than `u32` row ids address, or `Cancelled`.
    pub fn build(ctx: &ExecContext, keys: &[i64]) -> Result<JoinTable, StorageError> {
        row_id(keys.len())?;
        if keys.is_empty() {
            return Ok(JoinTable::default());
        }
        if let Some((min, span)) = dense_span(keys) {
            let slot_of = |row: usize| (keys[row] - min) as usize; // CAST-OK: keys[row] - min in [0, span), and span fits usize
            let (offsets, rows) = scatter(ctx, keys.len(), span, slot_of)?;
            return Ok(JoinTable {
                index: SlotIndex::Direct { min },
                offsets,
                rows,
            });
        }

        let (index, slots) = KeyIndex::build(keys);
        let slot_of = |row: usize| slots[row] as usize; // CAST-OK: u32 widens losslessly into usize on supported targets
        let (offsets, rows) = scatter(ctx, keys.len(), index.num_keys(), slot_of)?;
        Ok(JoinTable {
            index: SlotIndex::Hashed(Arc::new(index)),
            offsets,
            rows,
        })
    }

    /// The default ([`bqo_bitvector::FilterKind::Bitmap`]) bitvector filter
    /// over `keys`, the keys this table was built from, as a view of the
    /// table: a direct table already knows the bitmap's `min` and span, a
    /// hashed table shares its key index.
    pub fn filter(&self, keys: &[i64]) -> RangeBitmapFilter {
        match &self.index {
            SlotIndex::Direct { min } => {
                RangeBitmapFilter::dense(*min, self.offsets.len() - 1, keys)
            }
            SlotIndex::Hashed(index) => RangeBitmapFilter::Sparse(Arc::clone(index)),
        }
    }

    /// The slot owning `key`, if any build row carries it.
    #[inline]
    fn slot(&self, key: i64) -> Option<usize> {
        match &self.index {
            SlotIndex::Direct { min } => direct_slot(*min, self.offsets.len() - 1, key),
            SlotIndex::Hashed(index) => index.slot(key),
        }
    }

    /// The build rows owned by `slot`, ascending.
    #[inline]
    fn slot_rows(&self, slot: usize) -> &[u32] {
        let (start, end) = (self.offsets[slot], self.offsets[slot + 1]);
        &self.rows[start as usize..end as usize] // CAST-OK: u32 widens losslessly into usize on supported targets
    }

    /// The build rows carrying `key`, ascending; empty on a miss.
    #[inline]
    pub fn get(&self, key: i64) -> &[u32] {
        self.slot(key).map_or(&[], |slot| self.slot_rows(slot))
    }

    /// Appends the matches of `keys` to the two match lists: for every key,
    /// in order, each build row carrying it (ascending) paired with the
    /// key's probe row id `first_row + position` — what calling
    /// [`JoinTable::get`] per key produces, with the index dispatch hoisted
    /// out of the loop. The caller guarantees `first_row + keys.len()` fits
    /// `u32` (see `row_id`).
    pub(crate) fn probe(
        &self,
        keys: &[i64],
        first_row: u32,
        build_rows: &mut Vec<u32>,
        probe_rows: &mut Vec<u32>,
    ) {
        let probe_rows_of = keys.iter().zip(first_row..);
        match &self.index {
            SlotIndex::Direct { min } => {
                let limit = self.offsets.len() - 1;
                let slots = probe_rows_of.map(|(&key, row)| (direct_slot(*min, limit, key), row));
                self.emit(slots, build_rows, probe_rows)
            }
            SlotIndex::Hashed(index) => {
                let slots = probe_rows_of.map(|(&key, row)| (index.slot(key), row));
                self.emit(slots, build_rows, probe_rows)
            }
        }
    }

    /// Expands `(slot, probe row)` pairs into the two match lists.
    #[inline]
    fn emit(
        &self,
        slots: impl Iterator<Item = (Option<usize>, u32)>,
        build_rows: &mut Vec<u32>,
        probe_rows: &mut Vec<u32>,
    ) {
        for (slot, probe_row) in slots {
            for &build_row in slot.map_or(&[][..], |slot| self.slot_rows(slot)) {
                build_rows.push(build_row);
                probe_rows.push(probe_row);
            }
        }
    }

    /// Number of build rows in the table.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether slots are addressed directly by `key - min` (dense key span)
    /// rather than through the hashed index.
    pub fn is_direct(&self) -> bool {
        matches!(self.index, SlotIndex::Direct { .. })
    }
}

/// Count-then-scatter of `num_rows` rows into `num_slots` slots, where row
/// `row` belongs to slot `slot_of(row)`: returns the CSR `(offsets, rows)`
/// with each slot's rows ascending. One morsel per worker, each covering a
/// contiguous slot range (see the module docs).
fn scatter<F>(
    ctx: &ExecContext,
    num_rows: usize,
    num_slots: usize,
    slot_of: F,
) -> Result<(Vec<u32>, Vec<u32>), StorageError>
where
    F: Fn(usize) -> usize + Sync,
{
    let workers = ctx.config.workers_for(num_rows);
    let ranges = chunk_morsels(num_slots, workers);
    let parts = ctx.run_morsels(workers, &ranges, |range| {
        let local = |row: usize| {
            let slot = slot_of(row);
            (range.start..range.end)
                .contains(&slot)
                .then(|| slot - range.start)
        };
        // Count into `offsets[slot]`, then turn the counts into each slot's
        // start by an exclusive prefix sum.
        let mut offsets = vec![0u32; range.len() + 1];
        for slot in (0..num_rows).filter_map(&local) {
            offsets[slot] += 1;
        }
        let mut total = 0u32;
        for offset in &mut offsets {
            total += std::mem::replace(offset, total);
        }
        // Scatter in ascending row order, using each slot's start as its
        // write cursor: afterwards `offsets[slot]` is the slot's *end*, so
        // rotating right by one (and zeroing the wrapped-around total) turns
        // the ends back into starts with the total last.
        let mut rows = vec![0u32; total as usize]; // CAST-OK: u32 widens losslessly into usize on supported targets
        for row in 0..num_rows {
            if let Some(slot) = local(row) {
                rows[offsets[slot] as usize] = row as u32; // CAST-OK: cursor widens losslessly; row < num_rows, which `row_id` proved fits u32
                offsets[slot] += 1;
            }
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        (offsets, rows)
    })?;

    // Concatenate the per-range pieces, rebasing each piece's offsets on
    // the rows before it; a piece's leading 0 replaces its predecessor's
    // trailing total (the same number once rebased).
    let mut parts = parts.into_iter();
    let (mut offsets, mut rows) = parts.next().unwrap_or_else(|| (vec![0], Vec::new()));
    for (piece_offsets, piece_rows) in parts {
        let base = rows.len() as u32; // CAST-OK: rows.len() <= num_rows, which `row_id` proved fits u32
        offsets.pop();
        offsets.extend(piece_offsets.iter().map(|offset| offset + base));
        rows.extend(piece_rows);
    }
    Ok((offsets, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecConfig;
    use crate::pool::WorkerPool;

    fn serial() -> ExecContext {
        ExecContext::new(ExecConfig::default())
    }

    /// `key -> ascending rows`, the slow way.
    fn reference(keys: &[i64], key: i64) -> Vec<u32> {
        let rows = keys.iter().enumerate().filter(|&(_, &k)| k == key);
        rows.map(|(row, _)| row as u32).collect()
    }

    fn assert_matches_reference(table: &JoinTable, keys: &[i64], probes: &[i64]) {
        assert_eq!(table.num_rows(), keys.len());
        for &key in keys.iter().chain(probes) {
            assert_eq!(table.get(key), reference(keys, key), "key {key}");
        }
    }

    #[test]
    fn row_id_is_checked_not_truncated() {
        assert_eq!(row_id(0), Ok(0));
        assert_eq!(row_id(u32::MAX as usize), Ok(u32::MAX));
        let too_many = u32::MAX as usize + 1;
        assert_eq!(
            row_id(too_many),
            Err(StorageError::RowIdOverflow { rows: too_many })
        );
        // `as u32` would have turned this into row 5.
        assert!(row_id((1usize << 32) + 5).is_err());
    }

    #[test]
    fn empty_build_side_misses_everything() {
        let table = JoinTable::build(&serial(), &[]).unwrap();
        assert_eq!(table.num_rows(), 0);
        assert!(table.get(0).is_empty());
        assert!(table.get(i64::MIN).is_empty());
    }

    #[test]
    fn dense_keys_are_addressed_directly() {
        let keys = [7, 3, 7, 5, 3, 7, -2];
        let table = JoinTable::build(&serial(), &keys).unwrap();
        assert!(table.is_direct());
        assert_matches_reference(&table, &keys, &[-3, 4, 8, i64::MIN, i64::MAX]);
        assert_eq!(table.get(7), &[0, 2, 5]);
    }

    #[test]
    fn sparse_and_extreme_keys_are_hashed() {
        let keys = [i64::MAX, i64::MIN, 0, i64::MAX, 1 << 40, i64::MIN + 1, 0];
        let table = JoinTable::build(&serial(), &keys).unwrap();
        assert!(!table.is_direct());
        assert_matches_reference(&table, &keys, &[1, -1, i64::MAX - 1, 1 << 41]);
    }

    #[test]
    fn density_threshold_decides_the_index() {
        // Span 64 per key is the last dense span; 65 is sparse.
        assert!(JoinTable::build(&serial(), &[0, 127]).unwrap().is_direct());
        assert!(!JoinTable::build(&serial(), &[0, 128]).unwrap().is_direct());
        for keys in [[0i64, 127], [0, 128]] {
            let table = JoinTable::build(&serial(), &keys).unwrap();
            assert_matches_reference(&table, &keys, &[-1, 1, 126, 129]);
        }
    }

    #[test]
    fn probe_pairs_every_match_in_probe_then_build_order() {
        let table = JoinTable::build(&serial(), &[5, 6, 5]).unwrap();
        let (mut build, mut probe) = (Vec::new(), Vec::new());
        table.probe(&[6, 9, 5, 5], 10, &mut build, &mut probe);
        assert_eq!(build, vec![1, 0, 2, 0, 2]);
        assert_eq!(probe, vec![10, 12, 12, 13, 13]);
    }

    #[test]
    fn worker_count_does_not_change_the_table() {
        let dense: Vec<i64> = (0..5000).map(|i| (i * 7919) % 613).collect();
        let sparse: Vec<i64> = dense.iter().map(|k| k * 1_000_003_i64.pow(2)).collect();
        for keys in [dense, sparse] {
            let expected = JoinTable::build(&serial(), &keys).unwrap();
            for workers in [2usize, 4, 8] {
                let config = ExecConfig::default()
                    .with_num_threads(workers)
                    .with_parallel_threshold(1);
                let ctx = ExecContext::with_pool(config, Some(WorkerPool::new(3)));
                let table = JoinTable::build(&ctx, &keys).unwrap();
                assert_eq!(table.offsets, expected.offsets, "{workers} workers");
                assert_eq!(table.rows, expected.rows, "{workers} workers");
            }
        }
    }
}
