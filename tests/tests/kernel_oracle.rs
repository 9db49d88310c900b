//! Kernel-level differential harness: every vectorized probe kernel against
//! its scalar oracle.
//!
//! The selection-vector/word-probe rewrite (ISSUE 8) replaced the hottest
//! correctness-critical loops in the executor. This suite pins each
//! vectorized kernel to the row-at-a-time scalar reference it replaced:
//!
//! * word-level bitvector probes (`probe_word`/`probe_words`) for every
//!   filter kind — dense bitmap (over near and medium-spread keys), sparse
//!   (hashed-index) bitmap, exact, Bloom, blocked Bloom, and the filter
//!   views of a direct-addressed and of a hashed `JoinTable` (bitmap and
//!   shared-index views) — against a `maybe_contains` loop,
//! * the filter view a hash join publishes (`JoinTable::filter`) against the
//!   independently built `AnyFilter::from_keys(FilterKind::Bitmap, ..)`,
//! * chunked composite-key hashing (`fold_parts` / `gather_keys` /
//!   `Batch::key_values_vectorized`) against `combine_key` / `row_key` /
//!   `Batch::key_values`,
//! * row-id narrowing (`Batch::keep_rows`, twice over) against a dense
//!   `Batch::new` of the kept cells,
//! * the one gather (`Batch::concat` over multi-source row-id batches, with
//!   and without equality pairs) against densifying each batch and
//!   appending cell by cell,
//! * the join table's three layouts (unique, direct and hashed): `get`,
//!   the vectorized and scalar probes and the filter view against a
//!   `HashMap` reference, and
//! * the executor-facing kernels (`probe_retain`, and `probe_range` over
//!   gathered keys as a residual filter runs it) against the scalar
//!   `maybe_contains` loops, including their `FilterStats` accounting,
//!
//! over word-aligned and ragged lengths (0, 1, 63/64/65, non-word-aligned
//! tails), all-pass and all-fail selections, and randomized inputs. An
//! end-to-end differential at `BQO_TEST_THREADS` closes the loop at the
//! engine level. CI runs this file at 1 and 4 threads and additionally with
//! `-C overflow-checks=on` and `debug_assertions` so wrap-prone word/tail
//! index arithmetic cannot pass silently.

use bqo_core::bitvector::{combine_key, fold_parts};
use bqo_core::bitvector::{AnyFilter, BitvectorFilter, FilterKind, FilterStats};

use bqo_core::exec::{
    gather_keys, join_probe, probe_range, probe_retain, row_key, Batch, ExecConfig, JoinTable,
    KernelMode, ProbeScratch,
};
use bqo_core::storage::DataGenerator;
use bqo_core::storage::{Catalog, Column, Value};
use bqo_core::{ColumnPredicate, CompareOp, Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_integration_tests::env_threads;
use bqo_plan::{ColumnRef, RelId};
use proptest::prelude::*;
use std::sync::Arc;

/// The filter shapes under test. Shapes 4 and 6 spread the keys so far
/// apart (×1 000 003) that `RangeBitmapFilter` takes its sparse
/// hashed-index arm — the word probe must agree with the scalar probe in
/// both representations. Shapes 7 and 8 spread them by `MEDIUM_STRIDE`:
/// more than 64 slots per key, so the join table hashes them, but within
/// 2^20 bits, so the filter is still a bitmap. Shapes 5, 6 and 8 are what a
/// hash join publishes: the filter view of the `JoinTable` built over the
/// keys (direct-addressed, hashed, and hashed with a bitmap view).
const NUM_FILTER_SHAPES: usize = 9;

/// The medium spread: every key set and probe range of this suite (keys
/// within `[-100, 1 300)`) spans under 2^20 slots after scaling, and any two
/// distinct keys are more than 64 slots apart.
const MEDIUM_STRIDE: i64 = 509;

/// The filter view of the join table built over `keys`.
fn table_view(keys: &[i64]) -> AnyFilter {
    let table = JoinTable::build(keys).expect("join table");
    AnyFilter::Bitmap(table.filter(keys))
}

fn build_filter(shape: usize, members: &[i64]) -> AnyFilter {
    // Spread keys to defeat the dense range representation, or only the
    // join table's direct addressing.
    let scaled = |keys: &[i64]| -> Vec<i64> { keys.iter().map(|&k| probe_key(shape, k)).collect() };
    match shape {
        0 => AnyFilter::from_keys(FilterKind::Bitmap, members),
        1 => AnyFilter::from_keys(FilterKind::Exact, members),
        2 => AnyFilter::from_keys(FilterKind::Bloom { bits_per_key: 8 }, members),
        3 => AnyFilter::from_keys(FilterKind::BlockedBloom { bits_per_key: 10 }, members),
        4 | 7 => AnyFilter::from_keys(FilterKind::Bitmap, &scaled(members)),
        _ => table_view(&scaled(members)),
    }
}

/// Maps probe keys into the same domain the filter of `shape` was built on.
fn probe_key(shape: usize, key: i64) -> i64 {
    match shape {
        4 | 6 => key.wrapping_mul(1_000_003),
        7 | 8 => key.wrapping_mul(MEDIUM_STRIDE),
        _ => key,
    }
}

/// Whether the filter is the range bitmap's dense arm.
fn is_dense(filter: &AnyFilter) -> bool {
    matches!(filter, AnyFilter::Bitmap(f) if f.is_dense())
}

/// The spread shapes take the representation they exist for: ×1 000 003
/// keys the hashed index, medium-spread keys a bitmap — also as the view
/// of a join table that itself hashes them.
#[test]
fn spread_shapes_take_the_representation_they_test() {
    let members: Vec<i64> = (0..40).collect();
    for shape in [4, 6] {
        assert!(!is_dense(&build_filter(shape, &members)), "shape {shape}");
    }
    for shape in [7, 8] {
        assert!(is_dense(&build_filter(shape, &members)), "shape {shape}");
    }
    let medium: Vec<i64> = members.iter().map(|&k| probe_key(8, k)).collect();
    let table = JoinTable::build(&medium).expect("join table");
    assert!(!table.is_direct());
}

/// The scalar oracle for a word probe: one `maybe_contains` per key.
fn scalar_mask(filter: &AnyFilter, keys: &[i64]) -> Vec<bool> {
    keys.iter().map(|&k| filter.maybe_contains(k)).collect()
}

fn mask_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

#[test]
fn word_probes_cover_boundary_lengths_for_all_filter_shapes() {
    // Word-size and gate boundaries: empty, single, one-off-word, exact
    // words, ragged tails, all far larger than VECTOR_MIN_ROWS.
    let lengths = [0usize, 1, 2, 15, 16, 63, 64, 65, 66, 127, 128, 129, 200];
    for shape in 0..NUM_FILTER_SHAPES {
        let filter = build_filter(shape, &(0..40).collect::<Vec<i64>>());
        for len in lengths {
            // Mixed hit/miss keys, plus all-pass and all-fail batteries.
            let batteries: [Vec<i64>; 3] = [
                (0..len as i64).map(|k| probe_key(shape, k - 10)).collect(),
                (0..len as i64).map(|k| probe_key(shape, k % 40)).collect(),
                (0..len as i64)
                    .map(|k| probe_key(shape, k + 1_000))
                    .collect(),
            ];
            for keys in &batteries {
                let oracle = scalar_mask(&filter, keys);
                let mut words = Vec::new();
                filter.probe_words(keys, &mut words);
                assert_eq!(
                    words.len(),
                    keys.len().div_ceil(64),
                    "shape {shape} len {len}"
                );
                for (i, &expect) in oracle.iter().enumerate() {
                    assert_eq!(
                        mask_bit(&words, i),
                        expect,
                        "shape {shape} len {len} key index {i}"
                    );
                }
                // Tail bits beyond the last key must be zero so popcount-based
                // survivor counting cannot overcount.
                if let Some(last) = words.last() {
                    let used = keys.len() - (words.len() - 1) * 64;
                    if used < 64 {
                        assert_eq!(last >> used, 0, "shape {shape} len {len} tail bits set");
                    }
                }
            }
        }
    }
}

/// `JoinTable::filter` — the filter a hash join publishes — must be
/// indistinguishable from the independently built default filter over the
/// same keys: same representation, same scalar and word probes over `probes`,
/// same range-emptiness over every pair of `bounds`.
fn assert_view_matches_from_keys(keys: &[i64], probes: &[i64], bounds: &[i64]) {
    let view = table_view(keys);
    let built = AnyFilter::from_keys(FilterKind::Bitmap, keys);
    assert_eq!(is_dense(&view), is_dense(&built), "keys {keys:?}");
    assert_eq!(scalar_mask(&view, probes), scalar_mask(&built, probes));
    let (mut view_words, mut built_words) = (Vec::new(), Vec::new());
    view.probe_words(probes, &mut view_words);
    built.probe_words(probes, &mut built_words);
    assert_eq!(view_words, built_words, "keys {keys:?}");
    for &lo in bounds {
        for &hi in bounds {
            assert_eq!(
                view.probe_range_empty(lo, hi),
                built.probe_range_empty(lo, hi),
                "keys {keys:?} range [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn join_table_filter_view_matches_from_keys_on_corner_key_sets() {
    let key_sets: [Vec<i64>; 10] = [
        vec![],
        vec![5; 70],
        vec![3, 3, 9, 3, 9, 9, 3, 4],
        (-90..-20).rev().collect(),
        vec![i64::MIN, i64::MAX, 0, i64::MIN, -1],
        vec![i64::MAX - 3, i64::MAX, i64::MAX - 1],
        (0..300).map(|k| k * 3 % 200).collect(),
        (0..100).map(|k| k * 1_000_000_007).collect(),
        vec![i64::MIN, i64::MIN + 100, i64::MIN + 7],
        (-20..80).map(|k| k * MEDIUM_STRIDE).collect(),
    ];
    // Both sides of the 64x threshold: `[0, 127]` is direct-addressed,
    // `[0, 128]` hashed; and both sides of the filter's 2^20-bit bound.
    let threshold = [
        vec![0, 127],
        vec![0, 128],
        vec![-5, (1 << 20) - 6],
        vec![-5, (1 << 20) - 5],
    ];
    for keys in key_sets.iter().chain(&threshold) {
        let mut probes: Vec<i64> = (-140..140).collect();
        probes.extend([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
        for &key in keys {
            probes.extend([key.wrapping_sub(1), key, key.wrapping_add(1)]);
        }
        let mut bounds = vec![i64::MIN, -91, -20, -1, 0, 1, 4, 127, 128, 129, i64::MAX];
        bounds.extend(keys.iter().take(6));
        assert_view_matches_from_keys(keys, &probes, &bounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random key sets, near and spread: the join table's filter view agrees
    /// with `AnyFilter::from_keys(FilterKind::Bitmap, ..)` everywhere.
    #[test]
    fn join_table_filter_view_matches_from_keys(
        keys in prop::collection::vec(-60i64..200, 0..80),
        stride in 0usize..4,
        probes in prop::collection::vec(-100i64..260, 0..150),
        bounds in prop::collection::vec(-100i64..260, 2..6),
    ) {
        let stride = [1i64, 3, MEDIUM_STRIDE, 1_000_003][stride];
        let scale = |k: &i64| k.wrapping_mul(stride);
        let keys: Vec<i64> = keys.iter().map(scale).collect();
        let probes: Vec<i64> = probes.iter().map(scale).collect();
        let bounds: Vec<i64> = bounds.iter().map(scale).collect();
        assert_view_matches_from_keys(&keys, &probes, &bounds);
    }

    /// Random keys and member sets: `probe_words` agrees bit-for-bit with
    /// the scalar `maybe_contains` loop for every filter shape.
    #[test]
    fn word_probe_matches_scalar_reference(
        shape in 0usize..NUM_FILTER_SHAPES,
        members in prop::collection::vec(0i64..120, 1..60),
        keys in prop::collection::vec(-40i64..160, 0..200),
    ) {
        let filter = build_filter(shape, &members);
        let keys: Vec<i64> = keys.iter().map(|&k| probe_key(shape, k)).collect();
        let oracle = scalar_mask(&filter, &keys);
        let mut words = Vec::new();
        filter.probe_words(&keys, &mut words);
        for (i, &expect) in oracle.iter().enumerate() {
            prop_assert_eq!(mask_bit(&words, i), expect);
        }
        if let Some(last) = words.last() {
            let used = keys.len() - (words.len() - 1) * 64;
            if used < 64 {
                prop_assert_eq!(last >> used, 0);
            }
        }
    }

    /// Chunked composite-key hashing reproduces the row-at-a-time fold:
    /// `fold_parts` column-by-column == `combine_key` row-by-row, and
    /// `gather_keys` == `row_key` over arbitrary row subsets.
    #[test]
    fn chunked_hash_matches_row_at_a_time(
        rows in prop::collection::vec((-1000i64..1000, -1000i64..1000, 0i64..50), 0..150),
        num_cols in 1usize..4,
    ) {
        let len = rows.len();
        let cols: Vec<Vec<i64>> = (0..num_cols)
            .map(|c| {
                rows.iter()
                    .map(|&(a, b, d)| match c { 0 => a, 1 => b, _ => d })
                    .collect()
            })
            .collect();
        // fold_parts vs combine_key.
        let mut acc = vec![0u64; len];
        for col in &cols {
            fold_parts(&mut acc, col);
        }
        for r in 0..len {
            let parts: Vec<i64> = cols.iter().map(|c| c[r]).collect();
            if num_cols > 1 {
                prop_assert_eq!(acc[r] as i64, combine_key(&parts));
            }
        }
        // gather_keys vs row_key over a strided subset (and the full range).
        let columns: Vec<Column> = cols.iter().map(|c| Column::Int64(c.clone())).collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let subsets: [Vec<usize>; 2] = [
            (0..len).collect(),
            (0..len).step_by(3).collect(),
        ];
        for subset in &subsets {
            let mut gathered = Vec::new();
            gather_keys(&refs, subset, &mut gathered);
            let oracle: Vec<i64> = subset.iter().map(|&r| row_key(&refs, r)).collect();
            prop_assert_eq!(&gathered, &oracle);
        }
    }

    /// Row-id narrowing is invisible: `keep_rows`, over two rounds, equals
    /// a dense batch built directly from the kept cells — and densifies to
    /// it — and the vectorized key extraction agrees on the kept rows.
    #[test]
    fn selection_filter_and_keys_match_dense_reference(
        cells in prop::collection::vec((-50i64..50, 0u8..2, 0u8..2), 0..130),
    ) {
        let schema = vec![ColumnRef::new(RelId(0), "k"), ColumnRef::new(RelId(0), "f")];
        let dense_of = |cells: &[(i64, u8, u8)]| {
            let ints = cells.iter().map(|&(v, _, _)| v).collect();
            let floats = cells.iter().map(|&(v, _, _)| v as f64 * 0.5).collect();
            Batch::new(schema.clone(), vec![Column::Int64(ints), Column::Float64(floats)])
        };
        // The positions whose flag is set, and the cells at them.
        let keep = |cells: &[(i64, u8, u8)], flag: fn(&(i64, u8, u8)) -> bool| {
            let rows: Vec<usize> = (0..cells.len()).filter(|&r| flag(&cells[r])).collect();
            let kept: Vec<(i64, u8, u8)> = rows.iter().map(|&r| cells[r]).collect();
            (rows, kept)
        };

        let (rows_once, kept_once) = keep(&cells, |c| c.1 == 1);
        let selected_once = dense_of(&cells).keep_rows(&rows_once);
        let dense_once = dense_of(&kept_once);
        prop_assert_eq!(&selected_once, &dense_once);
        prop_assert_eq!(&selected_once.clone().into_dense(), &dense_once);

        // Second round over the survivors: refining existing row ids must
        // equal the dense batch of the cells kept by both rounds.
        let (rows_twice, kept_twice) = keep(&kept_once, |c| c.2 == 1);
        let selected_twice = selected_once.keep_rows(&rows_twice);
        let dense_twice = dense_of(&kept_twice);
        prop_assert_eq!(&selected_twice, &dense_twice);
        prop_assert_eq!(&selected_twice.clone().into_dense(), &dense_twice);

        // Key extraction on the selected survivor batch: vectorized ==
        // scalar == keys of the dense equivalent.
        let key_cols = [schema[0].clone()];
        prop_assert_eq!(
            selected_twice.key_values_vectorized(&key_cols),
            dense_twice.key_values(&key_cols)
        );
        prop_assert_eq!(
            selected_twice.key_values(&key_cols),
            dense_twice.key_values(&key_cols)
        );
    }

    /// `Batch::concat` is the pipeline's one gather: over random
    /// two-relation row-id batches — empty ones, duplicated and reordered
    /// row ids, a filtered one, a dense one mixed in, batches over
    /// *different* column `Arc`s, some recording equality pairs — it equals
    /// densifying each part and appending cell by cell, every output column
    /// holds exactly the summed logical rows, and two output columns share
    /// one `Arc` exactly when every part records them as equal.
    #[test]
    fn concat_matches_densify_and_append(
        parts in prop::collection::vec(
            (0u8..8, prop::collection::vec((0u32..6, 0u32..4, 0u8..2), 0..24)),
            0..7,
        ),
    ) {
        // Two relations, in two separately allocated (and differently
        // valued) copies. Each relation's third column is a separately
        // allocated copy of its first; parts of kind 4 and up record the
        // pair.
        let side = |salt: i64| {
            let keys: Vec<i64> = (0..6).map(|i| i * 10 + salt).collect();
            let left = Batch::new(
                vec![
                    ColumnRef::new(RelId(0), "k"),
                    ColumnRef::new(RelId(0), "name"),
                    ColumnRef::new(RelId(0), "k2"),
                ],
                vec![
                    Column::Int64(keys.clone()),
                    Column::Utf8((0..6).map(|i| format!("n{i}-{salt}")).collect()),
                    Column::Int64(keys),
                ],
            );
            let xs: Vec<f64> = (0..4).map(|i| i as f64 * 0.5 - salt as f64).collect();
            let right = Batch::new(
                vec![
                    ColumnRef::new(RelId(1), "x"),
                    ColumnRef::new(RelId(1), "b"),
                    ColumnRef::new(RelId(1), "x2"),
                ],
                vec![
                    Column::Float64(xs.clone()),
                    Column::Bool((0..4).map(|i| (i + salt) % 2 == 0).collect()),
                    Column::Float64(xs),
                ],
            );
            (left, right)
        };
        let sides = [side(0), side(7)];
        let schema: Arc<[ColumnRef]> = {
            let (left, right) = &sides[0];
            left.schema().iter().chain(right.schema()).cloned().collect()
        };
        let batches: Vec<Batch> = parts
            .iter()
            .map(|(kind, pairs)| {
                let (mut left, mut right) = sides[usize::from(kind % 2)].clone();
                if *kind >= 4 {
                    left = left.with_equal_columns(0, 2);
                    right = right.with_equal_columns(0, 2);
                }
                let build: Vec<u32> = pairs.iter().map(|p| p.0).collect();
                let probe: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                let joined = Batch::join(&schema, &left, &build, right, Some(&probe));
                match kind % 4 {
                    // A residual filter refined every relation's row ids.
                    2 => {
                        let kept = pairs.iter().enumerate().filter(|(_, p)| p.2 == 1);
                        joined.keep_rows(&kept.map(|(row, _)| row).collect::<Vec<_>>())
                    }
                    // A dense batch over columns nobody else holds.
                    3 => joined.into_dense(),
                    _ => joined,
                }
            })
            .collect();

        let total: usize = batches.iter().map(Batch::num_rows).sum();
        let mut expected: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
        for (batch, (kind, _)) in batches.iter().zip(&parts) {
            let dense = batch.clone().into_dense();
            let columns = dense.columns();
            prop_assert_eq!(Arc::ptr_eq(&columns[0], &columns[2]), *kind >= 4);
            prop_assert_eq!(Arc::ptr_eq(&columns[3], &columns[5]), *kind >= 4);
            for (cells, column) in expected.iter_mut().zip(dense.columns()) {
                cells.extend((0..dense.num_rows()).map(|row| column.value(row)));
            }
        }
        let gathered = Batch::concat(batches.clone());
        prop_assert!(gathered.is_dense());
        prop_assert_eq!(gathered.num_rows(), total);
        if batches.is_empty() {
            prop_assert_eq!(gathered.num_columns(), 0);
        } else {
            prop_assert_eq!(gathered.schema(), &schema[..]);
            for (cells, column) in expected.iter().zip(gathered.columns()) {
                prop_assert_eq!(column.len(), total);
                let got: Vec<Value> = (0..total).map(|row| column.value(row)).collect();
                prop_assert_eq!(&got, cells);
            }
            // `k`/`k2` and `x`/`x2` (columns 0/2 and 3/5) are gathered once
            // when every part records them; nothing else is ever shared.
            let paired = parts.iter().all(|(kind, _)| *kind >= 4);
            let columns = gathered.columns();
            for i in 0..columns.len() {
                for j in i + 1..columns.len() {
                    let share = paired && matches!((i, j), (0, 2) | (3, 5));
                    prop_assert_eq!(Arc::ptr_eq(&columns[i], &columns[j]), share);
                }
            }
        }
        // One batch is the degenerate case callers read root batches by.
        if let Some(first) = batches.first() {
            prop_assert_eq!(&Batch::concat(vec![first.clone()]), first);
        }
    }

    /// Every join-table layout against a `HashMap<i64, Vec<u32>>`: random
    /// distinct dense keys (the unique layout), the same with one duplicate
    /// planted anywhere (a direct CSR), and spread keys (hashed) — `get`,
    /// the vectorized and scalar `join_probe` and the filter view all agree
    /// with the reference.
    #[test]
    fn join_table_layouts_match_a_hash_map(
        order in prop::collection::vec(0u32..1000, 0..120),
        gaps in 0i64..3,
        duplicate in 0usize..2,
        from in 0usize..120,
        to in 0usize..120,
        spread in 0usize..2,
        probes in prop::collection::vec(-20i64..400, 0..200),
    ) {
        // Distinct keys in a random order: the ranks of `order`, stepped by
        // 1..=3 (a dense span either way).
        let mut ranked: Vec<(u32, usize)> = order.iter().copied().zip(0..).collect();
        ranked.sort_unstable();
        let mut keys = vec![0i64; ranked.len()];
        for (rank, &(_, at)) in ranked.iter().enumerate() {
            keys[at] = rank as i64 * (gaps + 1) - 7;
        }
        if duplicate == 1 && !keys.is_empty() {
            let len = keys.len();
            keys[to % len] = keys[from % len];
        }
        let scale = |k: i64| if spread == 1 { k.wrapping_mul(1_000_000_007) } else { k };
        let keys: Vec<i64> = keys.into_iter().map(scale).collect();
        let probes: Vec<i64> = probes.into_iter().map(scale).collect();

        let mut expected: std::collections::HashMap<i64, Vec<u32>> = Default::default();
        for (row, &key) in keys.iter().enumerate() {
            expected.entry(key).or_default().push(row as u32);
        }
        let table = JoinTable::build(&keys).expect("join table");
        let distinct = expected.len() == keys.len();
        prop_assert_eq!(table.is_unique(), distinct && (spread == 0 || keys.len() <= 1));
        prop_assert_eq!(table.num_rows(), keys.len());

        let matches = |key: &i64| expected.get(key).map_or(&[][..], |rows| &rows[..]);
        let (mut want_build, mut want_probe) = (Vec::new(), Vec::new());
        for (probe_row, key) in (0u32..).zip(probes.iter().chain(&keys)) {
            prop_assert_eq!(table.get(*key), matches(key));
            want_build.extend_from_slice(matches(key));
            want_probe.extend(matches(key).iter().map(|_| probe_row));
        }
        let all: Vec<i64> = probes.iter().chain(&keys).copied().collect();
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let config = ExecConfig::default().with_kernel_mode(mode);
            let got = join_probe(&config, &table, &all);
            prop_assert_eq!(&got.0, &want_build);
            prop_assert_eq!(&got.1, &want_probe);
        }
        let filter = table.filter(&keys);
        for key in &all {
            prop_assert_eq!(filter.maybe_contains(*key), expected.contains_key(key));
        }
    }

    /// The executor-facing kernels: `probe_retain`, and `probe_range` over
    /// gathered keys (how a hash join probes a residual filter) in both
    /// kernel modes, reproduce the scalar `maybe_contains` loops — same
    /// survivors, same order, same `FilterStats` — over random candidate
    /// sets and filters.
    #[test]
    fn retain_and_mask_kernels_match_scalar_loops(
        shape in 0usize..NUM_FILTER_SHAPES,
        members in prop::collection::vec(0i64..80, 1..50),
        values in prop::collection::vec(0i64..100, 0..180),
        stride in 1usize..4,
    ) {
        let filter = build_filter(shape, &members);
        let mapped: Vec<i64> = values.iter().map(|&v| probe_key(shape, v)).collect();
        let column = Column::Int64(mapped.clone());
        let cols = [&column];
        let candidates: Vec<usize> = (0..values.len()).step_by(stride).collect();

        let mut scalar_rows = candidates.clone();
        let mut scalar_stats = FilterStats::new();
        scalar_rows.retain(|&row| {
            let keep = filter.maybe_contains(row_key(&cols, row));
            scalar_stats.record(!keep);
            keep
        });

        let mut vec_rows = candidates;
        let mut vec_stats = FilterStats::new();
        let mut scratch = ProbeScratch::default();
        probe_retain(&filter, &cols, &mut vec_rows, &mut vec_stats, &mut scratch);
        prop_assert_eq!(&vec_rows, &scalar_rows);
        prop_assert_eq!(vec_stats, scalar_stats);

        // A residual filter's kernel: a sub-range's keys, gathered into one
        // `Int64` column and probed over all of its rows.
        let rows: Vec<usize> = (values.len() / 3..values.len()).collect();
        let mut keys = Vec::new();
        gather_keys(&cols, &rows, &mut keys);
        let mut scalar_stats = FilterStats::new();
        let scalar_kept: Vec<usize> = (0..keys.len())
            .filter(|&i| {
                let keep = filter.maybe_contains(keys[i]);
                scalar_stats.record(!keep);
                keep
            })
            .collect();
        let gathered = Column::Int64(keys);
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let config = ExecConfig::default().with_kernel_mode(mode);
            let (mut stats, rows) = (FilterStats::new(), 0..gathered.len());
            let kept = probe_range(&config, &filter, &[&gathered], rows, &mut stats, &mut scratch);
            prop_assert_eq!((mode, &kept), (mode, &scalar_kept));
            prop_assert_eq!((mode, stats), (mode, scalar_stats));
        }
    }
}

/// End-to-end closure: a generated star query executed with vectorized and
/// scalar kernels (serial and at `BQO_TEST_THREADS`, across batch sizes)
/// produces bit-identical rows, operator counters and `FilterStats`.
#[test]
fn kernel_modes_agree_end_to_end() {
    let gen = DataGenerator::new(8);
    let mut catalog = Catalog::new();
    catalog.register_table(gen.dimension_table("d0", 40, 5));
    catalog.register_table(gen.dimension_table("d1", 70, 7));
    catalog.declare_primary_key("d0", "d0_sk").unwrap();
    catalog.declare_primary_key("d1", "d1_sk").unwrap();
    catalog.register_table(gen.fact_table(
        "fact",
        3000,
        &[("d0".into(), 40, 0.3), ("d1".into(), 70, 0.0)],
    ));
    let engine = Engine::from_catalog(catalog);
    let spec = QuerySpec::new("kernel_oracle_star")
        .table("fact")
        .table("d0")
        .table("d1")
        .join("fact", "d0_sk", "d0", "d0_sk")
        .join("fact", "d1_sk", "d1", "d1_sk")
        .predicate("d0", ColumnPredicate::new("d0_category", CompareOp::Lt, 2))
        .predicate("d1", ColumnPredicate::new("d1_category", CompareOp::Lt, 3));
    let session = engine.session();
    let prepared = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();

    let run = |mode: KernelMode, threads: usize, batch_size: usize| {
        let config = ExecConfig::default()
            .with_kernel_mode(mode)
            .with_num_threads(threads)
            .with_batch_size(batch_size);
        session
            .execute(
                &prepared,
                RunOptions::new().with_exec_config(config).collecting_rows(),
            )
            .unwrap()
    };

    let oracle = run(KernelMode::Scalar, 1, usize::MAX);
    let oracle_rows = oracle.rows.unwrap();
    for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
        for threads in [1, env_threads().max(2)] {
            for batch_size in [1usize, 61, 1024] {
                let out = run(mode, threads, batch_size);
                let label = format!("{mode:?} threads={threads} batch={batch_size}");
                assert_eq!(out.result.output_rows, oracle.result.output_rows, "{label}");
                assert_eq!(
                    out.result.metrics.operators, oracle.result.metrics.operators,
                    "{label}"
                );
                assert_eq!(
                    out.result.metrics.filter_stats, oracle.result.metrics.filter_stats,
                    "{label}"
                );
                assert_eq!(out.rows.unwrap(), oracle_rows, "{label}");
            }
        }
    }
}
