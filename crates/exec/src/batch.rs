//! Intermediate results as row ids over shared columns.
//!
//! A [`Batch`] never owns the values flowing through a pipeline: it holds
//! `Arc` handles to its source relations' columns plus, per source relation,
//! one `u32` *row-id vector* saying which physical row of that relation each
//! logical row reads. A scan's output is the one-relation case (its
//! selection vector); a hash join's output lists its build side's relations
//! and then its probe side's, each gathered through the join's match lists —
//! so a join level costs one `u32` gather per relation below it, filters
//! (predicates, bitvector probes, residuals) refine the row ids in place,
//! and a build side is stacked as row ids (`Batch::stack`). The root join
//! hands out the same row-id batches every other join does: values are
//! gathered once, by [`Batch::concat`], when rows are collected — each into
//! its final place in an exactly-sized column — and never when the caller
//! only counts. Two batches compare equal iff their *logical* content
//! matches, whatever their layouts.
//!
//! A join whose probe side matches each row at most once and every row
//! exactly once (a unique-key table, nothing missed) is an *identity* probe:
//! the output adopts the probe batch's row-id vectors as they are instead of
//! gathering them through `0..n`.
//!
//! A batch also records **equality pairs**: two columns holding the same
//! value in every logical row ([`Batch::with_equal_columns`]). A hash join
//! records its key columns as one — but only for a single `Int64` key on
//! both sides, the one key shape the join table matches on the raw value.
//! Composite, `Utf8`, `Float64` and `Bool` keys match on a 64-bit digest
//! (`row_key`), so two matched rows may carry different key values, and a
//! `Float64` key compares by bit pattern; none of them is recorded. Pairs
//! survive [`Batch::join`], [`Batch::keep_rows`], `Batch::stack` and
//! [`Batch::into_dense`], and the gathers ([`Batch::concat`],
//! `into_dense`) copy one column per equality class and share its `Arc`
//! with the rest of the class — a PK–FK answer holds its key values once.

use crate::join_table::row_id;
use bqo_bitvector::{combine_key, fold_parts};
use bqo_plan::ColumnRef;
use bqo_storage::{Column, StorageError};
use std::convert::Infallible;
use std::sync::Arc;

/// A run of adjacent columns read through one row-id vector: the columns of
/// one source relation (or of one earlier materialization).
#[derive(Debug, Clone)]
struct Source {
    /// One past the run's last column (it starts at the previous `end`).
    end: usize,
    /// The physical row behind each logical row; `None` is the identity
    /// (dense: logical row `i` is physical row `i`).
    rows: Option<Vec<u32>>,
}

impl Source {
    /// This source inside a join output: restricted to (and reordered by)
    /// the logical rows `keep`, its columns `shift` places further right.
    fn joined(&self, keep: &[u32], shift: usize) -> Source {
        let rows = match &self.rows {
            None => keep.to_vec(),
            Some(rows) => keep.iter().map(|&i| rows[i as usize]).collect(),
        };
        Source {
            end: self.end + shift,
            rows: Some(rows),
        }
    }
}

/// An intermediate result: columns tagged with the base relation and column
/// name they originated from, read through one row-id vector per source
/// relation (see the module docs).
///
/// `PartialEq` compares schema and *logical* cell values exactly — the
/// differential-testing harness uses it to assert bit-identical output rows
/// across execution configurations, whatever the layouts.
#[derive(Debug, Clone)]
pub struct Batch {
    /// One allocation per operator, shared by every batch it emits.
    schema: Arc<[ColumnRef]>,
    columns: Vec<Arc<Column>>,
    /// In column order, never empty; together they cover every column.
    sources: Vec<Source>,
    num_rows: usize,
    /// Pairs of column indices holding equal values in every logical row.
    equal: Vec<(usize, usize)>,
}

impl Batch {
    /// Creates a dense batch from matching schema and columns.
    ///
    /// # Panics
    /// Panics if lengths are inconsistent.
    pub fn new(schema: Vec<ColumnRef>, columns: Vec<Column>) -> Self {
        Batch::with_schema(schema.into(), columns.into_iter().map(Arc::new).collect())
    }

    /// Creates a dense batch over shared column handles — refcount bumps,
    /// nothing is copied — under a schema the caller already shares: how an
    /// operator stamps its one schema on every batch it emits.
    ///
    /// # Panics
    /// Panics if lengths are inconsistent.
    pub(crate) fn with_schema(schema: Arc<[ColumnRef]>, columns: Vec<Arc<Column>>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema / column count mismatch"
        );
        let physical_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in &columns {
            assert_eq!(
                c.len(),
                physical_rows,
                "all columns must have the same length"
            );
        }
        let dense = Source {
            end: columns.len(),
            rows: None,
        };
        Batch {
            schema,
            columns,
            sources: vec![dense],
            num_rows: physical_rows,
            equal: Vec::new(),
        }
    }

    /// Records that columns `a` and `b` hold the same value in every logical
    /// row, so a gather copies one of them and shares it (see the module
    /// docs). The caller vouches for the equality; debug builds check it.
    ///
    /// # Panics
    /// Panics if either index is out of range or the columns' types differ.
    pub fn with_equal_columns(mut self, a: usize, b: usize) -> Batch {
        let (col_a, col_b) = (&self.columns[a], &self.columns[b]);
        assert!(
            col_a.data_type() == col_b.data_type(),
            "equal columns must share a type"
        );
        debug_assert!(
            (0..self.num_rows).all(|row| {
                let value = |col: &Column, index| col.value(physical(self.rows_of(index), row));
                value(col_a, a) == value(col_b, b)
            }),
            "columns {a} and {b} differ"
        );
        self.equal.push((a, b));
        self
    }

    /// Creates an empty batch (no columns, no rows).
    pub fn empty() -> Self {
        Batch::with_schema(Arc::new([]), Vec::new())
    }

    /// The one row-id vector of a single-relation batch (`None`: dense).
    ///
    /// # Panics
    /// Panics on a multi-relation row-id batch, which has no single
    /// selection: a join's batches are read through [`Batch::concat`].
    pub fn selection(&self) -> Option<&[u32]> {
        assert!(
            self.sources.len() == 1,
            "multi-relation row-id batch: concat it first"
        );
        self.sources[0].rows.as_deref()
    }

    /// Restricts this single-relation batch to the given physical row
    /// indices, replacing any existing selection (use [`Batch::keep_rows`]
    /// to refine logically).
    ///
    /// # Panics
    /// Panics on a multi-relation batch; debug-asserts that every index is
    /// in bounds.
    pub fn with_selection(mut self, selection: Vec<u32>) -> Self {
        assert!(self.sources.len() == 1, "multi-relation row-id batch");
        let physical_rows = self.columns.first().map_or(0, |c| c.len());
        debug_assert!(
            selection.iter().all(|&p| (p as usize) < physical_rows),
            "selection index out of bounds"
        );
        self.num_rows = selection.len();
        self.sources[0].rows = Some(selection);
        self
    }

    /// Number of logical rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether every physical row is logically alive, in order (no row ids).
    pub fn is_dense(&self) -> bool {
        self.sources.iter().all(|s| s.rows.is_none())
    }

    /// Number of source relations the batch reads row ids through.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The physical row behind a logical row of this single-relation batch.
    pub fn physical_row(&self, logical: usize) -> usize {
        self.selection()
            .map_or(logical, |sel| sel[logical] as usize)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The qualified schema.
    pub fn schema(&self) -> &[ColumnRef] {
        &self.schema
    }

    /// All physical columns as shared handles.
    ///
    /// When the batch carries row ids, these are the *physical* columns —
    /// index them via [`Batch::physical_row`].
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Index of a column by qualified reference.
    pub fn index_of(&self, column: &ColumnRef) -> Option<usize> {
        self.schema.iter().position(|c| c == column)
    }

    /// The row ids column `index` is read through (`None`: identity).
    fn rows_of(&self, index: usize) -> Option<&[u32]> {
        let source = self.sources.iter().find(|s| index < s.end);
        source.and_then(|s| s.rows.as_deref())
    }

    /// Keeps only the logical rows `keep`, in that order, *without copying
    /// any column data*: every source's row ids are refined as a join
    /// refines them — how a hash join applies a residual filter.
    ///
    /// # Panics
    /// Panics if the batch has more logical rows than `u32` row ids address;
    /// debug-asserts that every kept row is one of them.
    pub fn keep_rows(mut self, keep: &[usize]) -> Batch {
        assert!(row_id(self.num_rows).is_ok(), "rows outgrow u32 row ids");
        debug_assert!(keep.iter().all(|&row| row < self.num_rows));
        let keep: Vec<u32> = keep.iter().map(|&row| row as u32).collect(); // CAST-OK: row < num_rows, which the assert above proved fits u32
        for source in &mut self.sources {
            *source = source.joined(&keep, 0);
        }
        self.num_rows = keep.len();
        self
    }

    /// Compacts this batch to a dense layout, gathering every column through
    /// its source's row ids — once per equality class. A no-op for batches
    /// that are already dense. Pipelines never call this ([`Batch::concat`]
    /// is their one gather); it is the per-batch reference the differential
    /// suites compare against.
    pub fn into_dense(self) -> Batch {
        if self.is_dense() {
            return self;
        }
        let class = classes(self.columns.len(), &self.equal);
        let mut columns: Vec<Arc<Column>> = Vec::with_capacity(self.columns.len());
        for (i, &head) in class.iter().enumerate() {
            let column = match self.rows_of(i) {
                _ if head < i => Arc::clone(&columns[head]),
                None => Arc::clone(&self.columns[i]),
                Some(rows) => {
                    let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect(); // CAST-OK: u32 widens losslessly into usize on supported targets
                    Arc::new(self.columns[i].take(&rows))
                }
            };
            columns.push(column);
        }
        let mut dense = Batch::with_schema(self.schema, columns);
        dense.equal = self.equal;
        dense
    }

    /// Concatenates schema-identical batches row-wise into a dense batch —
    /// the one place a pipeline's values are copied: every output column is
    /// allocated once at the summed logical row count and filled through
    /// each batch's own row ids, source column straight to final place. A
    /// pair of columns every batch records as equal is gathered once and
    /// shared; the output keeps those pairs.
    ///
    /// # Panics
    /// Panics if the batches disagree on schema or column types.
    pub fn concat(batches: Vec<Batch>) -> Batch {
        Batch::try_concat(batches, || Ok::<(), Infallible>(()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`Batch::concat`] calling `check` before each batch is gathered: the
    /// first error drops the partial columns and is returned — how an
    /// executor keeps the gather cancellable.
    pub(crate) fn try_concat<E>(
        batches: Vec<Batch>,
        mut check: impl FnMut() -> Result<(), E>,
    ) -> Result<Batch, E> {
        let Some(first) = batches.first() else {
            return Ok(Batch::empty());
        };
        let num_rows = batches.iter().map(Batch::num_rows).sum();
        let equal = common_pairs(&batches);
        let class = classes(first.columns.len(), &equal);
        // Only the first column of each equality class is gathered.
        let mut columns: Vec<Option<Column>> = (first.columns.iter().zip(&class).enumerate())
            .map(|(i, (c, &head))| {
                (head == i).then(|| Column::with_capacity(c.data_type(), num_rows))
            })
            .collect();
        for batch in &batches {
            check()?;
            assert!(
                same_schema(&first.schema, &batch.schema),
                "schema mismatch in concat"
            );
            for (i, (dst, src)) in columns.iter_mut().zip(&batch.columns).enumerate() {
                if let Some(dst) = dst {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: the schema equality assert above guarantees column-wise type equality"
                    )]
                    dst.extend_rows(src, batch.rows_of(i))
                        .expect("column type mismatch in concat");
                }
            }
        }
        let mut shared: Vec<Arc<Column>> = Vec::with_capacity(columns.len());
        for (column, &head) in columns.into_iter().zip(&class) {
            let column = column.map_or_else(|| Arc::clone(&shared[head]), Arc::new);
            shared.push(column);
        }
        let mut out = Batch::with_schema(Arc::clone(&first.schema), shared);
        out.equal = equal;
        Ok(out)
    }

    /// Stacks a hash join's drained build side row-wise *as row ids*: when
    /// every batch reads the same shared columns (batches of one scan or one
    /// join always do) the row-id vectors are concatenated and no value is
    /// copied; batches over different columns fall back to
    /// [`Batch::concat`]. Fails with [`StorageError::RowIdOverflow`] when the
    /// stacked rows outgrow `u32` row ids.
    pub(crate) fn stack(mut batches: Vec<Batch>) -> Result<Batch, StorageError> {
        if batches.len() <= 1 {
            return Ok(batches.pop().unwrap_or_else(Batch::empty));
        }
        let num_rows = batches.iter().map(Batch::num_rows).sum();
        row_id(num_rows)?;
        let first = &batches[0];
        let shared = batches.iter().all(|b| {
            let ends = b.sources.iter().map(|s| s.end);
            let columns = b.columns.iter().zip(&first.columns);
            same_schema(&b.schema, &first.schema)
                && ends.eq(first.sources.iter().map(|s| s.end))
                && columns.into_iter().all(|(x, y)| Arc::ptr_eq(x, y))
        });
        if !shared {
            return Ok(Batch::concat(batches));
        }
        let mut stacked: Vec<Vec<u32>> = first
            .sources
            .iter()
            .map(|_| Vec::with_capacity(num_rows))
            .collect();
        for batch in &batches {
            for (acc, source) in stacked.iter_mut().zip(&batch.sources) {
                match &source.rows {
                    Some(rows) => acc.extend_from_slice(rows),
                    // Dense rows are their own ids; `num_rows` fits `u32`.
                    None => acc.extend(0..batch.num_rows as u32),
                }
            }
        }
        let equal = common_pairs(&batches);
        let mut out = batches.swap_remove(0);
        for (source, rows) in out.sources.iter_mut().zip(stacked) {
            source.rows = Some(rows);
        }
        out.num_rows = num_rows;
        out.equal = equal;
        Ok(out)
    }

    /// A hash join's output for the matched pairs `(build_rows[i],
    /// probe_rows[i])` of logical rows: `build`'s columns then `probe`'s,
    /// every source relation of either side gathered through the match list
    /// — `u32` row ids only, no value is touched. `probe_rows` of `None` is
    /// the identity probe — logical row `i` pairs with probe row `i`, every
    /// probe row once — and the output adopts `probe`'s row-id vectors as
    /// they are. `schema` is the join's one output schema: `build`'s column
    /// references, then `probe`'s. Both sides' equality pairs carry over.
    ///
    /// # Panics
    /// Panics if the match lists differ in length, or an identity probe's
    /// `build_rows` does not pair every probe row.
    pub fn join(
        schema: &Arc<[ColumnRef]>,
        build: &Batch,
        build_rows: &[u32],
        probe: Batch,
        probe_rows: Option<&[u32]>,
    ) -> Batch {
        let paired = probe_rows.map_or(probe.num_rows, <[u32]>::len);
        assert_eq!(build_rows.len(), paired, "match lists must pair up");
        debug_assert!(schema.iter().eq(build.schema.iter().chain(&*probe.schema)));
        let shift = build.columns.len();
        let build_sources = build.sources.iter().map(|s| s.joined(build_rows, 0));
        let probe_sources: Vec<Source> = match probe_rows {
            Some(rows) => probe
                .sources
                .iter()
                .map(|s| s.joined(rows, shift))
                .collect(),
            None => (probe.sources.into_iter())
                .map(|s| Source {
                    end: s.end + shift,
                    ..s
                })
                .collect(),
        };
        let probe_equal = probe.equal.iter().map(|&(a, b)| (a + shift, b + shift));
        let columns = build.columns.iter().cloned().chain(probe.columns);
        Batch {
            schema: Arc::clone(schema),
            columns: columns.collect(),
            sources: build_sources.chain(probe_sources).collect(),
            num_rows: build_rows.len(),
            equal: build.equal.iter().copied().chain(probe_equal).collect(),
        }
    }

    /// The key columns paired with the row ids each is read through.
    fn key_cols(&self, key_columns: &[ColumnRef]) -> Vec<(&Column, Option<&[u32]>)> {
        key_columns
            .iter()
            .map(|c| {
                #[expect(clippy::panic, reason = "internal contract: key columns come from the bound plan, which resolved them against this schema")]
                let index = self
                    .index_of(c)
                    .unwrap_or_else(|| panic!("key column {c:?} not found in batch"));
                (&*self.columns[index], self.rows_of(index))
            })
            .collect()
    }

    /// Extracts the join-key values for every logical row, collapsing
    /// composite keys into a single `i64` via hashing (see [`row_key`]).
    /// Scalar row-at-a-time reference implementation.
    pub fn key_values(&self, key_columns: &[ColumnRef]) -> Vec<i64> {
        let cols = self.key_cols(key_columns);
        let part = |&(col, rows): &(&Column, Option<&[u32]>), logical| {
            part_at(col, physical(rows, logical))
        };
        (0..self.num_rows)
            .map(|logical| match cols.as_slice() {
                [col] => part(col, logical),
                cols => combine_key(&cols.iter().map(|c| part(c, logical)).collect::<Vec<_>>()),
            })
            .collect()
    }

    /// Column-at-a-time equivalent of [`Batch::key_values`]: the per-column
    /// type dispatch is hoisted out of the row loop and composite keys are
    /// folded one key column at a time over the whole batch. Bit-identical
    /// to the scalar path (the kernel differential suite pins this).
    pub fn key_values_vectorized(&self, key_columns: &[ColumnRef]) -> Vec<i64> {
        let cols = self.key_cols(key_columns);
        let mut out = Vec::new();
        let parts_of = |i: usize, parts: &mut Vec<i64>| match cols[i] {
            (col, None) => gather_parts(col, 0..self.num_rows, parts),
            (col, Some(rows)) => gather_parts(col, rows.iter().map(|&p| p as usize), parts),
        };
        fold_keys(cols.len(), self.num_rows, parts_of, &mut out);
        out
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        if !same_schema(&self.schema, &other.schema) || self.num_rows() != other.num_rows() {
            return false;
        }
        if self.is_dense() && other.is_dense() {
            return self.columns == other.columns;
        }
        (0..self.columns.len()).all(|i| {
            let (a, b) = (&self.columns[i], &other.columns[i]);
            let (rows_a, rows_b) = (self.rows_of(i), other.rows_of(i));
            a.data_type() == b.data_type()
                && (0..self.num_rows)
                    .all(|r| a.value(physical(rows_a, r)) == b.value(physical(rows_b, r)))
        })
    }
}

/// Schema equality: one operator's batches share an `Arc`, no name compared.
fn same_schema(a: &Arc<[ColumnRef]>, b: &Arc<[ColumnRef]>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// The equality pairs every one of `batches` records: what still holds for
/// their rows stacked together.
fn common_pairs(batches: &[Batch]) -> Vec<(usize, usize)> {
    let mut equal = batches.first().map_or_else(Vec::new, |b| b.equal.clone());
    equal.retain(|pair| batches.iter().all(|b| b.equal.contains(pair)));
    equal
}

/// For each of `num_columns` columns, the lowest column index of its
/// equality class under `pairs` (itself when it is paired with nothing
/// lower): a union–find whose roots are always the class minimum.
fn classes(num_columns: usize, pairs: &[(usize, usize)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..num_columns).collect();
    let root = |parent: &[usize], mut i: usize| {
        while parent[i] != i {
            i = parent[i];
        }
        i
    };
    for &(a, b) in pairs {
        let (a, b) = (root(&parent, a), root(&parent, b));
        parent[a.max(b)] = a.min(b);
    }
    (0..num_columns).map(|i| root(&parent, i)).collect()
}

/// The physical row behind logical row `logical` of row ids `rows`.
#[inline]
fn physical(rows: Option<&[u32]>, logical: usize) -> usize {
    rows.map_or(logical, |rows| rows[logical] as usize)
}

/// The join-key value of one row over a set of key columns: a single `Int64`
/// column yields the raw value, composite or non-integer keys are hashed into
/// one `i64` (non-integer values hash their representation; the generated
/// workloads only join on integer surrogate keys). Scans and joins share this
/// so a filter built from build-side keys probes identically everywhere.
pub fn row_key(cols: &[&Column], row: usize) -> i64 {
    match cols {
        [col] => part_at(col, row),
        _ => combine_key(&cols.iter().map(|c| part_at(c, row)).collect::<Vec<_>>()),
    }
}

/// One column's contribution to a composite key for one physical row.
/// Shared by the scalar [`row_key`] and the columnar gather so the two key
/// extraction paths are the same conversion by construction.
#[inline]
fn part_at(col: &Column, row: usize) -> i64 {
    match col {
        Column::Int64(v) => v[row],
        Column::Bool(v) => v[row] as i64,
        Column::Float64(v) => v[row].to_bits() as i64,
        Column::Utf8(v) => fnv1a(&v[row]),
    }
}

#[inline]
fn fnv1a(s: &str) -> i64 {
    let mut h: i64 = 1469598103934665603;
    for b in s.as_bytes() {
        h ^= *b as i64;
        h = h.wrapping_mul(1099511628211);
    }
    h
}

/// Gathers one column's key parts for a set of physical rows with the type
/// dispatch hoisted out of the loop.
fn gather_parts<I: Iterator<Item = usize>>(col: &Column, rows: I, out: &mut Vec<i64>) {
    out.clear();
    match col {
        Column::Int64(v) => out.extend(rows.map(|r| v[r])),
        Column::Bool(v) => out.extend(rows.map(|r| v[r] as i64)),
        Column::Float64(v) => out.extend(rows.map(|r| v[r].to_bits() as i64)),
        Column::Utf8(v) => out.extend(rows.map(|r| fnv1a(&v[r]))),
    }
}

/// Folds `num_cols` key columns into one collapsed key per row: `parts_of`
/// gathers column `i`'s parts for all `len` rows. `combine_key` of a single
/// part is the identity, so a lone key column's parts are the keys.
fn fold_keys(
    num_cols: usize,
    len: usize,
    mut parts_of: impl FnMut(usize, &mut Vec<i64>),
    out: &mut Vec<i64>,
) {
    if num_cols == 1 {
        return parts_of(0, out);
    }
    let mut acc = vec![0u64; len];
    let mut parts = Vec::with_capacity(len);
    for col in 0..num_cols {
        parts_of(col, &mut parts);
        fold_parts(&mut acc, &parts);
    }
    out.clear();
    out.extend(acc.into_iter().map(|a| a as i64));
}

/// Gathers the collapsed join keys for `rows` (physical indices) over the
/// given key columns, column-at-a-time. Bit-identical to calling [`row_key`]
/// per row; the scan's vectorized probe kernel uses this to feed word-level
/// bitvector probes.
pub fn gather_keys(cols: &[&Column], rows: &[usize], out: &mut Vec<i64>) {
    let parts_of =
        |i: usize, parts: &mut Vec<i64>| gather_parts(cols[i], rows.iter().copied(), parts);
    fold_keys(cols.len(), rows.len(), parts_of, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::RelId;
    use bqo_storage::{Table, TableBuilder};

    impl Batch {
        /// A column by qualified reference (physical rows).
        pub(crate) fn column(&self, column: &ColumnRef) -> Option<&Column> {
            self.index_of(column).map(|i| &*self.columns[i])
        }
    }

    /// A base table as a batch sharing its columns, every column qualified
    /// with `relation`.
    fn from_table(relation: RelId, table: &Table) -> Batch {
        let fields = table.schema().fields().iter();
        let schema = fields.map(|f| ColumnRef::new(relation, f.name.clone()));
        Batch::with_schema(schema.collect(), table.columns().to_vec())
    }

    fn sample() -> Batch {
        let t = TableBuilder::new("t")
            .with_i64("id", vec![1, 2, 3, 4])
            .with_utf8("name", vec!["a".into(), "b".into(), "c".into(), "d".into()])
            .build()
            .unwrap();
        from_table(RelId(0), &t)
    }

    #[test]
    fn from_table_qualifies_columns() {
        let b = sample();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.num_columns(), 2);
        assert!(b.column(&ColumnRef::new(RelId(0), "id")).is_some());
        assert!(b.column(&ColumnRef::new(RelId(1), "id")).is_none());
    }

    #[test]
    fn filter_materializes_the_survivors() {
        let b = sample();
        let filtered = b.keep_rows(&[0, 2]).into_dense();
        assert!(filtered.is_dense());
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(
            filtered
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[1, 3]
        );
    }

    #[test]
    fn keep_rows_selects_without_copying() {
        let b = sample();
        let lazy = b.clone().keep_rows(&[0, 2]);
        assert!(!lazy.is_dense());
        assert!(Arc::ptr_eq(&lazy.columns()[0], &b.columns()[0]));
        assert_eq!(lazy.num_rows(), 2);
        assert_eq!(lazy.selection(), Some(&[0u32, 2][..]));
        let dense = Batch::new(
            b.schema().to_vec(),
            vec![
                Column::Int64(vec![1, 3]),
                Column::Utf8(vec!["a".into(), "c".into()]),
            ],
        );
        assert_eq!(lazy, dense);
        assert_eq!(lazy.into_dense(), dense);
        // Rows come back in the order they are listed.
        assert_eq!(b.keep_rows(&[3, 0]).selection(), Some(&[3u32, 0][..]));
    }

    #[test]
    fn keep_rows_refines_existing_selection() {
        let b = sample().keep_rows(&[0, 1, 3]); // rows 1,2,4
        let refined = b.keep_rows(&[1, 2]); // rows 2,4
        assert_eq!(refined.selection(), Some(&[1u32, 3][..]));
        assert_eq!(refined, sample().with_selection(vec![1, 3]));
    }

    #[test]
    fn filter_on_selected_batch_compacts() {
        let b = sample().keep_rows(&[0, 1, 3]); // rows 1,2,4
        let dense = b.keep_rows(&[1, 2]).into_dense(); // rows 2,4
        assert!(dense.is_dense());
        assert_eq!(
            dense
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[2, 4]
        );
    }

    #[test]
    fn selected_batch_equals_dense_equivalent() {
        let b = sample();
        // Fully selected == dense.
        let full = b.clone().with_selection(vec![0, 1, 2, 3]);
        assert_eq!(full, b);
        assert_eq!(b, full);
        // Zero survivors == empty dense batch with the same schema.
        let none = b.clone().with_selection(Vec::new());
        let empty_dense = b.clone().keep_rows(&[]).into_dense();
        assert_eq!(none, empty_dense);
        assert_eq!(empty_dense, none);
        // Different logical content != equal.
        let some = b.clone().with_selection(vec![1]);
        assert_ne!(some, b);
        assert_ne!(some, none);
    }

    /// `u(x)`: a second relation to join `sample()` with.
    fn other() -> Batch {
        let t = TableBuilder::new("u")
            .with_f64("x", vec![0.5, 1.5, 2.5])
            .build()
            .unwrap();
        from_table(RelId(1), &t)
    }

    /// `Batch::join` under the schema a join operator would stamp on it.
    fn join(build: &Batch, build_rows: &[u32], probe: &Batch, probe_rows: &[u32]) -> Batch {
        let schema = build.schema().iter().chain(probe.schema()).cloned();
        let probe = probe.clone();
        Batch::join(
            &schema.collect(),
            build,
            build_rows,
            probe,
            Some(probe_rows),
        )
    }

    /// The dense batch holding `sample()` rows `left` beside `other()` rows
    /// `right`.
    fn dense_pairs(left: &[i64], right: &[f64]) -> Batch {
        let names = ["a", "b", "c", "d"];
        let mut schema = sample().schema().to_vec();
        schema.extend_from_slice(other().schema());
        let columns = vec![
            Column::Int64(left.to_vec()),
            Column::Utf8(
                left.iter()
                    .map(|&id| names[id as usize - 1].into())
                    .collect(),
            ),
            Column::Float64(right.to_vec()),
        ];
        Batch::new(schema, columns)
    }

    #[test]
    fn multi_relation_row_id_batch_equals_its_dense_equivalent() {
        // Build side: a selection; probe side: dense. Duplicates and
        // reordering on both sides.
        let build = sample().keep_rows(&[1, 2, 3]); // ids 2,3,4
        let joined = join(&build, &[2, 0, 0], &other(), &[1, 1, 2]);
        assert_eq!(joined.num_sources(), 2);
        assert_eq!(joined.num_rows(), 3);
        assert_eq!(joined.num_columns(), 3);
        // No value was copied: the columns are the inputs' columns.
        assert!(Arc::ptr_eq(&joined.columns()[0], &build.columns()[0]));
        let dense = dense_pairs(&[4, 2, 2], &[1.5, 1.5, 2.5]);
        assert_eq!(joined, dense);
        assert_eq!(dense, joined);
        assert_ne!(joined, dense_pairs(&[4, 2, 2], &[1.5, 1.5, 0.5]));
        assert_ne!(joined, dense_pairs(&[4, 2, 3], &[1.5, 1.5, 2.5]));

        // Keys read through each column's own row ids, in both shapes.
        let refs = [
            ColumnRef::new(RelId(0), "id"),
            ColumnRef::new(RelId(1), "x"),
        ];
        assert_eq!(joined.key_values(&refs), dense.key_values(&refs));
        assert_eq!(joined.key_values_vectorized(&refs), dense.key_values(&refs));
        assert_eq!(joined.key_values_vectorized(&refs[..1]), vec![4, 2, 2]);

        // Filtering refines every relation's row ids together.
        let filtered = joined.clone().keep_rows(&[0, 2]);
        assert_eq!(filtered.num_sources(), 2);
        assert_eq!(filtered, dense_pairs(&[4, 2], &[1.5, 2.5]));
        assert_eq!(filtered.clone().into_dense(), filtered);

        // A join output is itself a valid join input (three relations).
        let again = join(&other(), &[0, 0], &joined, &[2, 0]);
        assert_eq!(again.num_sources(), 3);
        assert_eq!(
            again.key_values(&[ColumnRef::new(RelId(0), "id")]),
            vec![2, 4]
        );
    }

    #[test]
    fn concat_gathers_a_join_roots_row_id_batches() {
        // A scan root's batches: one selection, readable as is.
        let selected = sample().keep_rows(&[0, 2]);
        assert_eq!(selected.num_sources(), 1);
        assert_eq!(selected.selection(), Some(&[0u32, 2][..]));
        assert_eq!(selected.physical_row(1), 2);

        // A join root's batches are row ids over the inputs' columns; concat
        // gathers them — duplicates, reorderings, an empty batch — into owned
        // dense columns of exactly the summed length, inputs untouched.
        let (s, o) = (sample(), other());
        let parts = vec![
            join(&s, &[3, 1], &o, &[0, 2]),
            join(&s, &[], &o, &[]),
            join(&s, &[1, 1, 0], &o, &[2, 1, 1]),
        ];
        assert!(parts.iter().all(|p| !p.is_dense()));
        assert!(Arc::ptr_eq(&parts[0].columns()[0], &s.columns()[0]));
        let root = Batch::concat(parts.clone());
        assert!(root.is_dense());
        assert_eq!(root.num_sources(), 1);
        assert!(root.columns().iter().all(|c| c.len() == 5));
        assert_eq!(root.physical_row(4), 4);
        assert_eq!(
            root,
            dense_pairs(&[4, 2, 2, 2, 1], &[0.5, 2.5, 2.5, 1.5, 1.5])
        );
        assert_eq!(root.columns()[0].as_i64().unwrap(), &[4, 2, 2, 2, 1]);
        assert_eq!(Batch::concat(vec![parts[0].clone()]), parts[0]);
        assert_eq!(s, sample());
        // A zero-row join output still materializes its schema.
        let none = Batch::concat(vec![join(&s, &[], &o, &[])]);
        assert!(none.is_dense());
        assert_eq!((none.num_rows(), none.num_columns()), (0, 3));
        assert_eq!(none.into_dense().schema(), parts[0].schema());
    }

    #[test]
    fn try_concat_stops_at_the_first_failed_check() {
        let (s, o) = (sample(), other());
        let parts: Vec<Batch> = (0..4u32).map(|i| join(&s, &[i, 0], &o, &[1, 2])).collect();
        let whole = Batch::concat(parts.clone());
        // A check failing at the k-th batch is returned for every k, after
        // exactly k calls; a check that never fails changes nothing.
        for k in 1..=parts.len() {
            let mut calls = 0;
            let check = || {
                calls += 1;
                if calls == k {
                    return Err(StorageError::Cancelled);
                }
                Ok(())
            };
            let stopped = Batch::try_concat(parts.clone(), check);
            assert_eq!(stopped.unwrap_err(), StorageError::Cancelled, "k = {k}");
            assert_eq!(calls, k);
        }
        let mut calls = 0;
        let counted = Batch::try_concat(parts.clone(), || {
            calls += 1;
            Ok::<(), StorageError>(())
        });
        assert_eq!(counted.unwrap(), whole);
        assert_eq!(calls, parts.len());
        // Nothing to gather: nothing to check.
        let failing = || Err::<(), _>(StorageError::Cancelled);
        assert_eq!(
            Batch::try_concat(Vec::new(), failing).unwrap().num_rows(),
            0
        );
    }

    #[test]
    fn identity_probe_adopts_the_probe_row_ids_and_equals_the_gathered_join() {
        let (s, o) = (sample(), other());
        // Probe sides: dense, a selection, and a two-relation join output.
        let probes = [
            o.clone(),
            o.clone().with_selection(vec![2, 0, 0, 1]),
            join(&s, &[3, 1, 1], &o, &[0, 2, 2]),
        ];
        for probe in probes {
            let n = probe.num_rows() as u32;
            let build_rows: Vec<u32> = (0..n).map(|i| (i * 3) % 4).collect();
            let identity: Vec<u32> = (0..n).collect();
            let gathered = join(&s, &build_rows, &probe, &identity);
            let schema: Arc<[ColumnRef]> = gathered.schema().into();
            let ids = |batch: &Batch, column| batch.rows_of(column).map(<[u32]>::as_ptr);
            let own: Vec<_> = (0..probe.num_columns()).map(|c| ids(&probe, c)).collect();
            let adopted = Batch::join(&schema, &s, &build_rows, probe, None);
            assert_eq!(adopted, gathered);
            assert_eq!(adopted.num_sources(), gathered.num_sources());
            for column in 0..adopted.num_columns() {
                let rows = |batch: &Batch| {
                    let ids = batch.rows_of(column);
                    (0..n as usize)
                        .map(|row| physical(ids, row))
                        .collect::<Vec<_>>()
                };
                assert_eq!(rows(&adopted), rows(&gathered));
            }
            // The probe side's row ids were moved, not copied through 0..n.
            let shift = s.num_columns();
            for (column, own) in own.into_iter().enumerate() {
                assert_eq!(ids(&adopted, shift + column), own);
            }
        }
    }

    #[test]
    #[should_panic(expected = "match lists must pair up")]
    fn identity_probe_must_pair_every_probe_row() {
        let (s, o) = (sample(), other());
        let schema = s.schema().iter().chain(o.schema()).cloned().collect();
        Batch::join(&schema, &s, &[0, 1], o, None);
    }

    /// `(k, label)` and `(fk, x)`, joined on `k = fk` with the key pair
    /// recorded; every logical row has `k == fk`.
    fn keyed_join() -> Batch {
        let dim = TableBuilder::new("dim")
            .with_i64("k", vec![10, 11, 12])
            .with_utf8("label", vec!["a".into(), "b".into(), "c".into()])
            .build()
            .unwrap();
        let fact = TableBuilder::new("fact")
            .with_i64("fk", vec![12, 10, 12, 11, 10])
            .with_f64("x", vec![0.5, 1.5, 2.5, 3.5, 4.5])
            .build()
            .unwrap();
        let (dim, fact) = (from_table(RelId(0), &dim), from_table(RelId(1), &fact));
        join(&dim, &[2, 0, 2, 1, 0], &fact, &[0, 1, 2, 3, 4]).with_equal_columns(0, 2)
    }

    #[test]
    fn equal_key_columns_are_gathered_once_and_shared() {
        let joined = keyed_join();
        let plain = join(&sample(), &[], &other(), &[]);
        assert_eq!(joined.equal, vec![(0, 2)]);
        assert!(plain.equal.is_empty());

        // The gathers copy the class once and share it; values are unchanged.
        let whole = Batch::concat(vec![joined.clone(), joined.clone()]);
        assert!(Arc::ptr_eq(&whole.columns()[0], &whole.columns()[2]));
        assert!(!Arc::ptr_eq(&whole.columns()[0], &whole.columns()[1]));
        assert_eq!(
            whole.columns()[2].as_i64().unwrap(),
            &[12, 10, 12, 11, 10, 12, 10, 12, 11, 10]
        );
        assert_eq!(whole.equal, vec![(0, 2)]);
        let dense = joined.clone().into_dense();
        assert!(Arc::ptr_eq(&dense.columns()[0], &dense.columns()[2]));
        assert_eq!(dense, joined);
        assert_eq!(dense.equal, vec![(0, 2)]);

        // Row refinement and stacking keep the pair; a later join shifts it.
        let filtered = joined.clone().keep_rows(&[0, 2, 3]);
        assert_eq!(filtered.equal, vec![(0, 2)]);
        let stacked = Batch::stack(vec![joined.clone(), filtered.clone()]).unwrap();
        assert_eq!(stacked.equal, vec![(0, 2)]);
        let again = join(&sample(), &[0, 0], &filtered, &[2, 0]);
        assert_eq!(again.equal, vec![(2, 4)]);
        let root = Batch::concat(vec![again.clone()]);
        assert!(Arc::ptr_eq(&root.columns()[2], &root.columns()[4]));
        assert_eq!(root, again);

        // A pair only some batches record does not hold for all of them.
        let unpaired = Batch {
            equal: Vec::new(),
            ..joined.clone()
        };
        let mixed = Batch::concat(vec![joined.clone(), unpaired.clone()]);
        assert!(!Arc::ptr_eq(&mixed.columns()[0], &mixed.columns()[2]));
        assert!(mixed.equal.is_empty());
        assert_eq!(
            mixed,
            Batch::concat(vec![unpaired.clone(), unpaired.clone()])
        );
        let stacked = Batch::stack(vec![joined, unpaired]).unwrap();
        assert!(stacked.equal.is_empty());
    }

    #[test]
    fn equality_classes_are_transitive_and_rooted_at_their_lowest_column() {
        assert_eq!(classes(5, &[]), vec![0, 1, 2, 3, 4]);
        assert_eq!(classes(5, &[(3, 1), (4, 3)]), vec![0, 1, 2, 1, 1]);
        assert_eq!(classes(5, &[(4, 2), (1, 3), (3, 4)]), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "equal columns must share a type")]
    fn equal_columns_must_share_a_type() {
        keyed_join().with_equal_columns(0, 3);
    }

    #[test]
    #[should_panic(expected = "multi-relation row-id batch")]
    fn single_relation_accessors_reject_multi_relation_batches() {
        join(&sample(), &[0], &other(), &[0]).physical_row(0);
    }

    #[test]
    #[should_panic(expected = "match lists must pair up")]
    fn join_rejects_mismatched_match_lists() {
        join(&sample(), &[0, 1], &other(), &[0]);
    }

    #[test]
    fn stack_concatenates_row_ids_without_copying_values() {
        let b = sample();
        let stacked = Batch::stack(vec![
            b.clone().keep_rows(&[2]),               // id 3
            b.clone().with_selection(Vec::new()),    // nothing
            b.clone().with_selection(vec![1, 1, 0]), // ids 2,2,1
            b.clone(),                               // dense: 1,2,3,4
        ])
        .unwrap();
        assert!(Arc::ptr_eq(&stacked.columns()[0], &b.columns()[0]));
        assert_eq!(stacked.selection(), Some(&[2u32, 1, 1, 0, 0, 1, 2, 3][..]));
        let ids = [ColumnRef::new(RelId(0), "id")];
        assert_eq!(stacked.key_values(&ids), vec![3, 2, 2, 1, 1, 2, 3, 4]);

        // Multi-relation batches stack relation by relation.
        let u = other();
        let pairs = |build: &[u32], probe: &[u32]| join(&b, build, &u, probe);
        let stacked = Batch::stack(vec![pairs(&[0], &[2]), pairs(&[3, 1], &[0, 0])]).unwrap();
        assert_eq!(stacked.num_sources(), 2);
        assert_eq!(stacked, dense_pairs(&[1, 4, 2], &[2.5, 0.5, 0.5]));

        // One batch (or none) is returned as is.
        assert_eq!(Batch::stack(vec![b.clone()]).unwrap(), b);
        assert_eq!(Batch::stack(Vec::new()).unwrap().num_columns(), 0);
    }

    #[test]
    fn stack_falls_back_to_values_for_batches_over_different_columns() {
        // Equal contents, separately allocated columns.
        let stacked = Batch::stack(vec![sample(), sample()]).unwrap();
        assert!(stacked.is_dense());
        let ids = [ColumnRef::new(RelId(0), "id")];
        assert_eq!(stacked.key_values(&ids), vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn single_int_key_fast_path() {
        let b = sample();
        let keys = b.key_values(&[ColumnRef::new(RelId(0), "id")]);
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn key_values_respect_selection() {
        let b = sample().keep_rows(&[1, 3]);
        let refs = [ColumnRef::new(RelId(0), "id")];
        assert_eq!(b.key_values(&refs), vec![2, 4]);
        assert_eq!(b.key_values_vectorized(&refs), vec![2, 4]);
    }

    #[test]
    fn vectorized_keys_match_scalar() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2, -9, i64::MAX])
            .with_i64("b", vec![1, 2, 1, 0, i64::MIN])
            .with_utf8(
                "s",
                vec!["".into(), "x".into(), "yy".into(), "zzz".into(), "w".into()],
            )
            .with_f64("f", vec![0.0, -0.0, f64::NAN, 1.5, -2.5])
            .with_bool("q", vec![true, false, true, false, true])
            .build()
            .unwrap();
        let b = from_table(RelId(0), &t);
        let combos: Vec<Vec<ColumnRef>> = vec![
            vec![ColumnRef::new(RelId(0), "a")],
            vec![ColumnRef::new(RelId(0), "s")],
            vec![ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")],
            vec![
                ColumnRef::new(RelId(0), "a"),
                ColumnRef::new(RelId(0), "s"),
                ColumnRef::new(RelId(0), "f"),
                ColumnRef::new(RelId(0), "q"),
            ],
        ];
        for refs in &combos {
            assert_eq!(b.key_values(refs), b.key_values_vectorized(refs));
        }
        // And with a selection applied.
        let sel = b.clone().with_selection(vec![4, 0, 2, 2]);
        for refs in &combos {
            assert_eq!(sel.key_values(refs), sel.key_values_vectorized(refs));
        }
    }

    #[test]
    fn gather_keys_matches_row_key() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![5, 6, 7, 8])
            .with_i64("b", vec![1, 2, 3, 4])
            .build()
            .unwrap();
        let b = from_table(RelId(0), &t);
        let refs = [ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")];
        let cols: Vec<&Column> = refs.iter().map(|c| b.column(c).unwrap()).collect();
        let rows = [3usize, 0, 0, 2];
        let mut out = Vec::new();
        gather_keys(&cols, &rows, &mut out);
        let expected: Vec<i64> = rows.iter().map(|&r| row_key(&cols, r)).collect();
        assert_eq!(out, expected);
        // Single-column fast path.
        let one = [cols[0]];
        gather_keys(&one, &rows, &mut out);
        assert_eq!(out, vec![8, 5, 5, 7]);
    }

    #[test]
    fn composite_keys_are_stable_and_distinct() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2])
            .with_i64("b", vec![1, 2, 1])
            .build()
            .unwrap();
        let b = from_table(RelId(0), &t);
        let keys = b.key_values(&[ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")]);
        assert_eq!(keys.len(), 3);
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // Deterministic.
        assert_eq!(
            keys,
            b.key_values(&[ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b"),])
        );
    }

    #[test]
    fn concat_stacks_batches_row_wise() {
        let b = sample();
        let part = |rows: Vec<u32>| b.clone().with_selection(rows);
        let stacked = Batch::concat(vec![part(vec![0, 1]), part(vec![2]), part(vec![3])]);
        assert_eq!(stacked.num_rows(), 4);
        assert_eq!(
            stacked
                .column(&ColumnRef::new(RelId(0), "id"))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[1, 2, 3, 4]
        );
        assert_eq!(Batch::concat(Vec::new()).num_rows(), 0);
    }

    #[test]
    fn concat_is_selection_aware() {
        let b = sample();
        // Selected batches contribute exactly their logical rows, and
        // zero-survivor batches contribute nothing — regression test for the
        // selection-aware concat bugfix.
        let stacked = Batch::concat(vec![
            b.clone().keep_rows(&[0]),            // row 1
            b.clone().with_selection(Vec::new()), // nothing
            b.clone().keep_rows(&[1, 2, 3]),      // rows 2,3,4
        ]);
        assert!(stacked.is_dense());
        assert_eq!(stacked, b);
        // A lone selected batch compacts too.
        let single = Batch::concat(vec![b.clone().keep_rows(&[1])]);
        assert!(single.is_dense());
        assert_eq!(single.num_rows(), 1);
        // Leading zero-survivor batch followed by dense rows.
        let led = Batch::concat(vec![b.clone().with_selection(Vec::new()), b.clone()]);
        assert_eq!(led, b);
    }

    #[test]
    fn concat_copies_each_value_once_into_exactly_sized_columns() {
        // Batches over different, separately owned columns and a shared one:
        // every value is copied (no input buffer is adopted), each output
        // column is allocated once at the summed row count.
        let owned = |name: &str| {
            let schema = vec![ColumnRef::new(RelId(0), "name")];
            Batch::new(schema, vec![Column::Utf8(vec![name.repeat(40)])])
        };
        let (first, second) = (owned("a"), owned("b"));
        let stacked = Batch::concat(vec![first.clone(), second.clone(), first.clone()]);
        let names = stacked.columns()[0].as_utf8().unwrap();
        assert_eq!(names, &["a".repeat(40), "b".repeat(40), "a".repeat(40)]);
        let Column::Utf8(values) = &*stacked.columns()[0] else {
            panic!("a Utf8 column");
        };
        assert_eq!(values.capacity(), 3);
        assert_eq!(second.columns()[0].as_utf8().unwrap(), &["b".repeat(40)]);

        let b = sample();
        let stacked = Batch::concat(vec![b.clone(), b.clone()]);
        assert_eq!(stacked.num_rows(), 8);
        assert_eq!(b.num_rows(), 4);
        assert!(stacked.is_dense());
    }

    #[test]
    fn concat_does_not_mutate_shared_table_columns() {
        let t = TableBuilder::new("t")
            .with_i64("id", vec![1, 2])
            .build()
            .unwrap();
        let a = from_table(RelId(0), &t);
        let b = from_table(RelId(0), &t);
        let stacked = Batch::concat(vec![a, b]);
        assert_eq!(stacked.num_rows(), 4);
        // The original table still has its own rows.
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column("id").unwrap().as_i64().unwrap(), &[1, 2]);
    }

    #[test]
    fn row_key_matches_key_values() {
        let t = TableBuilder::new("t")
            .with_i64("a", vec![1, 1, 2])
            .with_i64("b", vec![1, 2, 1])
            .build()
            .unwrap();
        let b = from_table(RelId(0), &t);
        let refs = [ColumnRef::new(RelId(0), "a"), ColumnRef::new(RelId(0), "b")];
        let keys = b.key_values(&refs);
        let cols: Vec<&Column> = refs.iter().map(|c| b.column(c).unwrap()).collect();
        for (row, &key) in keys.iter().enumerate() {
            assert_eq!(key, row_key(&cols, row));
        }
        // Single-int fast path returns raw values.
        let a_col = [b.column(&refs[0]).unwrap()];
        assert_eq!(row_key(&a_col, 2), 2);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::empty();
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.num_columns(), 0);
    }

    #[test]
    #[should_panic(expected = "key column")]
    fn missing_key_column_panics() {
        sample().key_values(&[ColumnRef::new(RelId(9), "id")]);
    }
}
