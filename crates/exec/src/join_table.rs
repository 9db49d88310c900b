//! The hash join's build-side table: three flat layouts, chosen from the
//! build keys alone.
//!
//! A [`JoinTable`] maps a collapsed join key to the build rows carrying it.
//! There is no per-key allocation, nothing to free row by row, and match
//! lists come back as `&[u32]` slices. The layout is picked by the
//! direct-addressing rule ([`bqo_bitvector::dense_span`]: at most 64 slots
//! per key) plus one uniqueness pass:
//!
//! * **unique** — the keys' span is dense *and* every key is distinct (the
//!   primary-key side of a PK–FK join, the paper's star/snowflake case): one
//!   `row_of` array of `span` entries holds, at `key - min`, the one build
//!   row carrying the key (`u32::MAX` when none does). A lookup is one
//!   subtraction, one bounds check and one load. It is filled in a single
//!   pass that gives up at the first duplicate;
//! * **direct** — a dense span with duplicates: a CSR (`rows` holds every
//!   build row id grouped by key, `offsets[slot]..offsets[slot + 1]`
//!   delimits a key's group) whose slot *is* `key - min`;
//! * **hashed** — otherwise the same CSR, its slots assigned in first-seen
//!   order by one open-addressing [`KeyIndex`] (it lives in `bqo-bitvector`).
//!
//! The bitvector filter the join publishes is a view of this table
//! ([`JoinTable::filter`]): built from the same gathered keys with the
//! table's own `min` and span when direct-addressed. A hashed table's keys
//! still get a bitmap when its span is at most 2^20 bits — the filter's own
//! rule is priced in bits, the table's in 4-byte slots — and only wider
//! spans publish the very same `Arc<KeyIndex>`, probed for membership only:
//! one key gather and at most one key index per join.
//!
//! The CSR arrays are built by one count-then-scatter over the build rows in
//! ascending order, so every key's row list is ascending (the determinism
//! contract `parallel_properties` pins). The whole build — the unique pass,
//! the hashed shape's slot assignment (the index's find-or-insert pass) and
//! the scatter — sees only the keys: it runs on the thread that opens the
//! join, which checks for cancellation first, and never sees a worker count.

use bqo_bitvector::{dense_span, KeyIndex, RangeBitmapFilter};
use bqo_storage::StorageError;
use std::sync::Arc;

/// `row` as a `u32` row id, or [`StorageError::RowIdOverflow`] when it does
/// not fit — the one checked conversion every build side and probe batch
/// passes its row count through before row ids are narrowed.
pub(crate) fn row_id(row: usize) -> Result<u32, StorageError> {
    u32::try_from(row).map_err(|_| StorageError::RowIdOverflow { rows: row })
}

/// Marks an empty slot of the unique layout. Never a build row: `row_id`
/// admits at most `u32::MAX` rows, numbered below it.
const NO_ROW: u32 = u32::MAX;

/// The direct-addressed slot of `key`: `key - min` when below `limit`. A key
/// below `min` wraps to a huge unsigned value, so one unsigned compare is
/// both range checks.
#[inline]
fn direct_slot(min: i64, limit: usize, key: i64) -> Option<usize> {
    let offset = key.wrapping_sub(min) as u64; // CAST-OK: two's-complement reinterpret; out-of-range keys fail the limit test
    let in_range = offset < limit as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
    in_range.then_some(offset as usize) // CAST-OK: offset < limit, which is a usize
}

/// Build rows grouped by slot: slot `s` owns `rows[offsets[s]..offsets[s + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Csr {
    /// Number of slots.
    fn num_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The build rows owned by `slot`, ascending.
    #[inline]
    fn group(&self, slot: usize) -> &[u32] {
        let (start, end) = (self.offsets[slot], self.offsets[slot + 1]);
        &self.rows[start as usize..end as usize] // CAST-OK: u32 widens losslessly into usize on supported targets
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
            for &build_row in slot.map_or(&[][..], |slot| self.group(slot)) {
                build_rows.push(build_row);
                probe_rows.push(probe_row);
            }
        }
    }
}

/// The three layouts (see the module docs).
#[derive(Debug, Clone)]
enum Layout {
    /// Dense, distinct keys: `row_of[key - min]`, [`NO_ROW`] when empty.
    Unique { min: i64, row_of: Vec<u32> },
    /// Dense keys with duplicates: slot `key - min`.
    Direct { min: i64, csr: Csr },
    /// Sparse keys: the slot the shared key index assigned.
    Hashed { index: Arc<KeyIndex>, csr: Csr },
}

/// A flat key → build-rows table (see the module docs).
#[derive(Debug, Clone)]
pub struct JoinTable {
    layout: Layout,
}

impl Default for JoinTable {
    /// The table of an empty build side: every lookup misses.
    fn default() -> Self {
        JoinTable {
            layout: Layout::Unique {
                min: 0,
                row_of: Vec::new(),
            },
        }
    }
}

impl JoinTable {
    /// Builds the table over `keys`, where `keys[row]` is the collapsed join
    /// key of build row `row`, on the calling thread; fails with
    /// [`StorageError::RowIdOverflow`] for more rows than `u32` row ids
    /// address.
    pub fn build(keys: &[i64]) -> Result<JoinTable, StorageError> {
        row_id(keys.len())?;
        if keys.is_empty() {
            return Ok(JoinTable::default());
        }
        let layout = match dense_span(keys) {
            Some((min, span)) => match unique_rows(min, span, keys) {
                Some(row_of) => Layout::Unique { min, row_of },
                None => {
                    let slot_of = |row: usize| (keys[row] - min) as usize; // CAST-OK: keys[row] - min in [0, span), and span fits usize
                    let csr = scatter(keys.len(), span, slot_of);
                    Layout::Direct { min, csr }
                }
            },
            None => {
                let (index, slots) = KeyIndex::build(keys);
                let slot_of = |row: usize| slots[row] as usize; // CAST-OK: u32 widens losslessly into usize on supported targets
                let csr = scatter(keys.len(), index.num_keys(), slot_of);
                let index = Arc::new(index);
                Layout::Hashed { index, csr }
            }
        };
        Ok(JoinTable { layout })
    }

    /// The default ([`bqo_bitvector::FilterKind::Bitmap`]) bitvector filter
    /// over `keys`, the keys this table was built from, as a view of the
    /// table — the filter [`RangeBitmapFilter::from_keys`] builds, without a
    /// second key index: a direct-addressed table already knows the
    /// bitmap's `min` and span; a hashed table gets its own bitmap when the
    /// filter's wider rule (at most 2^20 bits) allows one, and otherwise
    /// shares its key index.
    pub fn filter(&self, keys: &[i64]) -> RangeBitmapFilter {
        match &self.layout {
            Layout::Unique { min, row_of } => RangeBitmapFilter::dense(*min, row_of.len(), keys),
            Layout::Direct { min, csr } => RangeBitmapFilter::dense(*min, csr.num_slots(), keys),
            Layout::Hashed { index, .. } => RangeBitmapFilter::over_index(keys, index),
        }
    }

    /// The build rows carrying `key`, ascending; empty on a miss.
    #[inline]
    pub fn get(&self, key: i64) -> &[u32] {
        match &self.layout {
            Layout::Unique { min, row_of } => match direct_slot(*min, row_of.len(), key) {
                Some(slot) if row_of[slot] != NO_ROW => std::slice::from_ref(&row_of[slot]),
                _ => &[],
            },
            Layout::Direct { min, csr } => {
                let slot = direct_slot(*min, csr.num_slots(), key);
                slot.map_or(&[], |slot| csr.group(slot))
            }
            Layout::Hashed { index, csr } => index.slot(key).map_or(&[], |slot| csr.group(slot)),
        }
    }

    /// Appends the matches of `keys` to the two match lists: for every key,
    /// in order, each build row carrying it (ascending) paired with the
    /// key's probe row id, its position in `keys` — what calling
    /// [`JoinTable::get`] per key produces, with the layout dispatch hoisted
    /// out of the loop. The caller guarantees `keys.len()` fits `u32` (see
    /// `row_id`).
    pub(crate) fn probe(&self, keys: &[i64], build_rows: &mut Vec<u32>, probe_rows: &mut Vec<u32>) {
        let probe_rows_of = keys.iter().zip(0u32..);
        match &self.layout {
            Layout::Unique { min, row_of } => {
                // At most one match per key: one load each, no reallocation.
                build_rows.reserve(keys.len());
                probe_rows.reserve(keys.len());
                for (&key, probe_row) in probe_rows_of {
                    let slot = direct_slot(*min, row_of.len(), key);
                    let build_row = slot.map_or(NO_ROW, |slot| row_of[slot]);
                    if build_row != NO_ROW {
                        build_rows.push(build_row);
                        probe_rows.push(probe_row);
                    }
                }
            }
            Layout::Direct { min, csr } => {
                let limit = csr.num_slots();
                let slots = probe_rows_of.map(|(&key, row)| (direct_slot(*min, limit, key), row));
                csr.emit(slots, build_rows, probe_rows)
            }
            Layout::Hashed { index, csr } => {
                let slots = probe_rows_of.map(|(&key, row)| (index.slot(key), row));
                csr.emit(slots, build_rows, probe_rows)
            }
        }
    }

    /// Number of build rows in the table.
    pub fn num_rows(&self) -> usize {
        match &self.layout {
            Layout::Unique { row_of, .. } => row_of.iter().filter(|&&row| row != NO_ROW).count(),
            Layout::Direct { csr, .. } | Layout::Hashed { csr, .. } => csr.rows.len(),
        }
    }

    /// Whether slots are addressed directly by `key - min` (dense key span)
    /// rather than through the hashed index.
    pub fn is_direct(&self) -> bool {
        !matches!(self.layout, Layout::Hashed { .. })
    }

    /// Whether the table has the unique layout: every build key distinct, so
    /// a probe key matches at most one build row.
    pub fn is_unique(&self) -> bool {
        matches!(self.layout, Layout::Unique { .. })
    }
}

/// The unique layout's `row_of` over `span` slots from `min`, filled in one
/// pass, or `None` at the first duplicate key.
fn unique_rows(min: i64, span: usize, keys: &[i64]) -> Option<Vec<u32>> {
    let mut row_of = vec![NO_ROW; span];
    // `row_id` proved keys.len() fits u32, so the counter never wraps.
    for (&key, row) in keys.iter().zip(0u32..) {
        let slot = &mut row_of[(key - min) as usize]; // CAST-OK: key - min in [0, span), and span fits usize
        if *slot != NO_ROW {
            return None;
        }
        *slot = row;
    }
    Some(row_of)
}

/// Count-then-scatter of `num_rows` rows into `num_slots` slots, where row
/// `row` belongs to slot `slot_of(row)`: returns the CSR with each slot's
/// rows ascending.
fn scatter(num_rows: usize, num_slots: usize, slot_of: impl Fn(usize) -> usize) -> Csr {
    // Count into `offsets[slot]`, then turn the counts into each slot's
    // start by an exclusive prefix sum.
    let mut offsets = vec![0u32; num_slots + 1];
    for row in 0..num_rows {
        offsets[slot_of(row)] += 1;
    }
    let mut total = 0u32;
    for offset in &mut offsets {
        total += std::mem::replace(offset, total);
    }
    // Scatter in ascending row order, using each slot's start as its write
    // cursor: afterwards `offsets[slot]` is the slot's *end*, so rotating
    // right by one (and zeroing the wrapped-around total) turns the ends
    // back into starts with the total last.
    let mut rows = vec![0u32; num_rows];
    for row in 0..num_rows {
        let cursor = &mut offsets[slot_of(row)];
        rows[*cursor as usize] = row as u32; // CAST-OK: cursor widens losslessly; row < num_rows, which `row_id` proved fits u32
        *cursor += 1;
    }
    offsets.rotate_right(1);
    offsets[0] = 0;
    Csr { offsets, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecConfig, KernelMode};
    use crate::kernels::join_probe;
    use bqo_bitvector::BitvectorFilter;
    use std::collections::HashMap;

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
        let table = JoinTable::build(&[]).unwrap();
        assert_eq!(table.num_rows(), 0);
        assert!(table.get(0).is_empty());
        assert!(table.get(i64::MIN).is_empty());
    }

    #[test]
    fn dense_keys_are_addressed_directly() {
        let keys = [7, 3, 7, 5, 3, 7, -2];
        let table = JoinTable::build(&keys).unwrap();
        assert!(table.is_direct() && !table.is_unique());
        assert_matches_reference(&table, &keys, &[-3, 4, 8, i64::MIN, i64::MAX]);
        assert_eq!(table.get(7), &[0, 2, 5]);
    }

    #[test]
    fn sparse_and_extreme_keys_are_hashed() {
        let keys = [i64::MAX, i64::MIN, 0, i64::MAX, 1 << 40, i64::MIN + 1, 0];
        let table = JoinTable::build(&keys).unwrap();
        assert!(!table.is_direct());
        assert_matches_reference(&table, &keys, &[1, -1, i64::MAX - 1, 1 << 41]);
    }

    #[test]
    fn density_threshold_decides_the_index() {
        // Span 64 per key is the last dense span; 65 is sparse.
        assert!(JoinTable::build(&[0, 127]).unwrap().is_direct());
        assert!(!JoinTable::build(&[0, 128]).unwrap().is_direct());
        for keys in [[0i64, 127], [0, 128]] {
            let table = JoinTable::build(&keys).unwrap();
            assert_matches_reference(&table, &keys, &[-1, 1, 126, 129]);
        }
    }

    #[test]
    fn a_hashed_table_publishes_a_bitmap_within_two_to_the_twenty_bits() {
        let filter_of = |keys: &[i64]| {
            let table = JoinTable::build(keys).unwrap();
            assert!(!table.is_direct(), "{keys:?}");
            table.filter(keys)
        };
        let within = [3, 1 << 19, (1 << 20) + 2, 1 << 19];
        assert!(filter_of(&within).is_dense());
        let wider = [3, 1 << 19, (1 << 20) + 3, 1 << 19];
        assert!(!filter_of(&wider).is_dense());
        for (keys, filter) in [(within, filter_of(&within)), (wider, filter_of(&wider))] {
            for key in keys.iter().flat_map(|&k| [k - 1, k, k + 1]) {
                assert_eq!(filter.maybe_contains(key), keys.contains(&key), "{key}");
            }
        }
    }

    #[test]
    fn probe_pairs_every_match_in_probe_then_build_order() {
        let table = JoinTable::build(&[5, 6, 5]).unwrap();
        let (mut build, mut probe) = (Vec::new(), Vec::new());
        table.probe(&[6, 9, 5, 5], &mut build, &mut probe);
        assert_eq!(build, vec![1, 0, 2, 0, 2]);
        assert_eq!(probe, vec![0, 2, 2, 3, 3]);

        let unique = JoinTable::build(&[5, 6, 4]).unwrap();
        let (mut build, mut probe) = (Vec::new(), Vec::new());
        unique.probe(&[6, 9, 5, 3, 4], &mut build, &mut probe);
        assert_eq!(build, vec![1, 0, 2]);
        assert_eq!(probe, vec![0, 2, 4]);
    }

    /// The name of the table's layout.
    fn layout_of(table: &JoinTable) -> &'static str {
        match table.layout {
            Layout::Unique { .. } => "unique",
            Layout::Direct { .. } => "direct",
            Layout::Hashed { .. } => "hashed",
        }
    }

    /// The key multisets of the layout property: unique dense, a duplicate
    /// first / in the middle / last, just-sparse (span = 64 × keys + 1),
    /// the extremes of `i64`, and empty — each with the layout it must take.
    fn layout_cases() -> Vec<(&'static str, Vec<i64>, &'static str)> {
        let distinct: Vec<i64> = (0..200).map(|i| (i * 37) % 211 - 50).collect();
        let with_duplicate_at = |at: usize| {
            let mut keys = distinct.clone();
            keys[at] = keys[(at + 100) % keys.len()];
            keys
        };
        let just_sparse: Vec<i64> = (0..50).chain([51 * 64]).collect();
        vec![
            ("unique dense", distinct.clone(), "unique"),
            ("duplicate first", with_duplicate_at(0), "direct"),
            ("duplicate middle", with_duplicate_at(100), "direct"),
            ("duplicate last", with_duplicate_at(199), "direct"),
            ("just sparse", just_sparse, "hashed"),
            (
                "i64 extremes",
                vec![i64::MIN, i64::MAX, 0, -1, i64::MIN],
                "hashed",
            ),
            (
                "dense at i64::MAX",
                vec![i64::MAX, i64::MAX - 2, i64::MAX - 1],
                "unique",
            ),
            ("dense at i64::MIN", vec![i64::MIN + 1, i64::MIN], "unique"),
            ("empty", Vec::new(), "unique"),
        ]
    }

    /// `get`, the vectorized `probe`, the scalar `join_probe` loop and
    /// `filter()` against a `HashMap<i64, Vec<u32>>` reference, for every
    /// layout case; unique dense keys take the unique layout and any
    /// duplicate takes a CSR.
    #[test]
    fn every_layout_matches_a_hash_map_reference() {
        for (name, keys, layout) in layout_cases() {
            let mut expected: HashMap<i64, Vec<u32>> = HashMap::new();
            for (row, &key) in keys.iter().enumerate() {
                expected.entry(key).or_default().push(row as u32);
            }
            let mut probes: Vec<i64> = (-80..180).collect();
            probes.extend([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
            probes.extend(
                keys.iter()
                    .flat_map(|&k| [k.wrapping_sub(1), k, k.wrapping_add(1)]),
            );
            let matches = |key: &i64| expected.get(key).map_or(&[][..], |rows| &rows[..]);
            let (mut want_build, mut want_probe) = (Vec::new(), Vec::new());
            for (&key, probe_row) in probes.iter().zip(0u32..) {
                want_build.extend_from_slice(matches(&key));
                want_probe.extend(matches(&key).iter().map(|_| probe_row));
            }
            let want = (want_build, want_probe);
            let table = JoinTable::build(&keys).unwrap();
            assert_eq!(layout_of(&table), layout, "{name}");
            assert_eq!(table.num_rows(), keys.len(), "{name}");
            for key in &probes {
                assert_eq!(table.get(*key), matches(key), "{name}: key {key}");
            }
            let (mut build, mut probe) = (Vec::new(), Vec::new());
            table.probe(&probes, &mut build, &mut probe);
            assert_eq!((build, probe), want, "{name}: probe");
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let config = ExecConfig::default().with_kernel_mode(mode);
                let got = join_probe(&config, &table, &probes);
                assert_eq!(got, want, "{name}: {mode:?} join_probe");
            }
            let filter = table.filter(&keys);
            for key in &probes {
                let member = expected.contains_key(key);
                assert_eq!(filter.maybe_contains(*key), member, "{name}: filter {key}");
            }
        }
    }
}
