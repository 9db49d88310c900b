//! Pull-based physical operators.
//!
//! [`PhysicalOperator`] is the batch-at-a-time (Volcano-with-batches)
//! interface of the executor:
//!
//! * [`PhysicalOperator::open`] prepares operator state. A hash join, in
//!   this order: (1) drains its entire build side as row ids, (2) gathers
//!   the build keys once, (3) indexes them in one flat [`JoinTable`],
//!   (4) publishes the bitvector filter sourced at the join — a view of that
//!   table — to the [`ExecContext`], and only then (5) opens its probe side,
//!   which guarantees every filter is available before any probe-side scan
//!   produces its first batch (the same ordering the paper's Algorithm 1
//!   relies on). A table build that fails (`RowIdOverflow`, `Cancelled`)
//!   publishes nothing and leaves `filters_created` untouched.
//! * [`PhysicalOperator::next_batch`] pulls the next batch of at most
//!   [`crate::ExecConfig::batch_size`] rows, or `None` once exhausted. A
//!   scan's local predicates and pushed-down bitvector probes run at `open`
//!   as shared-state-free per-morsel kernels (see [`crate::morsel`]) so
//!   eliminated tuples never reach the joins above; with
//!   [`crate::ExecConfig::num_threads`] > 1 a scan of several morsels fans
//!   out across a worker pool — the executor's one parallel section. A hash
//!   join builds its table, probes each batch and applies its residual
//!   filters on the thread that pulls the batch.
//! * [`PhysicalOperator::close`] tears the operator down and flushes its
//!   accumulated per-operator counters into the context's
//!   [`crate::ExecutionMetrics`].
//!
//! What flows between operators is row ids, not values (see
//! [`crate::batch`]): a scan emits zero-copy selection batches over its
//! source's columns, a join pairs its build side's and its probe batch's
//! row ids per source relation, and no operator copies a column — the root
//! join included, which hands out the same row-id batches every other join
//! does. Values are gathered once, by [`Batch::concat`], when rows are
//! collected; a caller that only counts copies nothing.
//!
//! Contract: between `open` and the first `None`, an operator yields at least
//! one batch (possibly empty) so downstream operators always observe its
//! output schema. Neither batching granularity nor parallelism changes
//! results or counters: every `(batch_size, num_threads)` combination
//! produces identical rows, `output_rows`, filter probe/eliminate statistics
//! and per-operator tuple counts, because a scan's morsels partition
//! contiguous row ranges and per-morsel outputs merge in morsel order.

use crate::batch::Batch;
use crate::join_table::{row_id, JoinTable};
use crate::kernels::{
    batch_keys, join_probe, probe_range, scan_batch, scan_morsel, ProbeScratch, ScanFilter,
};
use crate::metrics::OperatorKind;
use crate::morsel::{morsels, Morsel};
use crate::pipeline::ExecContext;
use bqo_bitvector::{AnyFilter, BitvectorFilter, FilterKind, FilterStats};
use bqo_plan::{BitvectorPlacement, ColumnPredicate, ColumnRef, NodeId, RelId, RelationInfo};
use bqo_storage::{ChunkSource, Column, DataType, StorageError, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pull-based physical operator producing batches of rows.
pub trait PhysicalOperator {
    /// Prepares the operator (and its children) for execution.
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError>;

    /// Pulls the next batch, or `None` once the operator is exhausted.
    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError>;

    /// Releases resources and records the operator's accumulated metrics.
    fn close(&mut self, ctx: &mut ExecContext);
}

/// Why a pruned-by-filter chunk's counters are exact: pruning runs only
/// when the scan has no local predicates and only against the *first*
/// placement, so on the in-memory path every row of the chunk would be
/// probed by (and, since `probe_range_empty` proved the whole key range
/// empty, eliminated at) that placement — and would never reach any later
/// placement. Crediting `chunk_rows` probed + eliminated to slot 0 and
/// nothing to later slots reproduces those counters without reading a byte.
enum ChunkDecision {
    /// Read and scan the chunk.
    Scan,
    /// A local predicate can match no row in the chunk's value ranges.
    /// Predicate evaluation keeps no counters, so skipping is free.
    PrunedByPredicate,
    /// The first pushed-down bitvector filter has no surviving build key in
    /// the chunk's join-key range; counters are credited as above.
    PrunedByFilter,
}

/// Per-morsel output of a scan's filter pass.
struct MorselScan {
    /// Surviving rows as global row ids (ascending).
    rows: Vec<usize>,
    /// Fetched sources only: the survivors' values, dense, one column per
    /// schema field.
    columns: Vec<Column>,
    /// Morsel-local bitvector counters, one per placement slot.
    stats: Vec<FilterStats>,
}

/// Scan of one base relation through its [`ChunkSource`]: local predicates
/// plus any bitvector filters Algorithm 1 pushed down to this scan, evaluated
/// morsel by morsel (in parallel when configured) before the surviving rows
/// are emitted as batches.
///
/// Where a morsel's columns come from is the source's choice, never the
/// configuration's:
///
/// * A source with [`ChunkSource::resident_columns`] (an in-memory table)
///   shares those columns across `batch_size`-row morsels and
///   emits zero-copy batches over them. Nothing is fetched, so the storage
///   counters stay 0.
/// * Any other source (an on-disk columnar file) is scanned with
///   chunk-aligned morsels — one morsel per chunk — so a worker fetches,
///   filters and compacts one chunk end to end and at most `num_threads`
///   chunks are in memory at once. Before fetching, each chunk's zone maps
///   are tested against the scan's local predicates *and* against the first
///   pushed-down bitvector filter's surviving key range
///   ([`BitvectorFilter::probe_range_empty`]); a chunk that provably
///   contributes nothing is skipped entirely.
///
/// Rows, batch boundaries, `FilterStats` and operator counters are
/// bit-identical between the two, for every `(num_threads, batch_size,
/// kernel mode)` combination.
pub(crate) struct ScanOp<'p> {
    node: NodeId,
    info: &'p RelationInfo,
    source: Arc<dyn ChunkSource>,
    /// Stamped on every batch the scan emits.
    schema: Arc<[ColumnRef]>,
    /// Bitvector placements targeting this scan, keyed by placement index.
    placements: Vec<(usize, &'p BitvectorPlacement)>,
    /// Global row ids surviving the local predicates and every pushed-down
    /// bitvector filter, ascending (computed at open, morsel-parallel).
    survivors: Vec<usize>,
    /// The columns batches are emitted from: the source's resident columns
    /// (indexed by global row id), or else the survivors' values compacted
    /// in survivor order (indexed by position in `survivors`).
    columns: Vec<Arc<Column>>,
    /// Position inside `survivors` of the first row not yet emitted.
    pos: usize,
    cursor: usize,
    emitted_any: bool,
    output_rows: u64,
}

impl std::fmt::Debug for ScanOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanOp")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'p> ScanOp<'p> {
    /// Creates a scan of `relation` over `source`.
    pub(crate) fn new(
        node: NodeId,
        relation: RelId,
        info: &'p RelationInfo,
        source: Arc<dyn ChunkSource>,
        placements: Vec<(usize, &'p BitvectorPlacement)>,
    ) -> Self {
        let schema = source
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnRef::new(relation, f.name.clone()))
            .collect();
        ScanOp {
            node,
            info,
            source,
            schema,
            placements,
            survivors: Vec::new(),
            columns: Vec::new(),
            pos: 0,
            cursor: 0,
            emitted_any: false,
            output_rows: 0,
        }
    }

    /// Resolves `column` to its schema index.
    fn column_index(&self, column: &str) -> Result<usize, StorageError> {
        self.source
            .schema()
            .index_of(column)
            .ok_or_else(|| StorageError::ColumnNotFound {
                table: self.info.name.to_string(),
                column: column.to_string(),
            })
    }
}

/// The pruning decision for one chunk of a fetched source, from its zone
/// maps alone — no chunk data is touched here.
fn chunk_decision(
    source: &dyn ChunkSource,
    chunk: usize,
    predicates: &[(&ColumnPredicate, usize)],
    filters: &[ScanFilter<'_>],
) -> ChunkDecision {
    for &(p, ci) in predicates {
        if let Some((min, max)) = source.zone_map(chunk, ci) {
            if !p.range_may_pass(&min, &max) {
                return ChunkDecision::PrunedByPredicate;
            }
        }
    }
    // Bitvector-range pruning is counter-exact only with no local
    // predicates, only for the first placement, and only for a
    // single-column integer join key.
    if let ([], Some(&(Some(filter), &[ci]))) = (predicates, filters.first()) {
        if let Some((Value::Int64(lo), Value::Int64(hi))) = source.zone_map(chunk, ci) {
            if filter.probe_range_empty(lo, hi) {
                return ChunkDecision::PrunedByFilter;
            }
        }
    }
    ChunkDecision::Scan
}

impl PhysicalOperator for ScanOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError> {
        // Resolve predicate and placement columns once; missing columns fail
        // here, before any I/O or kernel runs.
        let predicates: Vec<(&ColumnPredicate, usize)> = self
            .info
            .predicates
            .iter()
            .map(|p| Ok((p, self.column_index(&p.column)?)))
            .collect::<Result<_, StorageError>>()?;
        let placement_cols: Vec<Vec<usize>> = self
            .placements
            .iter()
            .map(|(_, placement)| {
                placement
                    .probe_columns
                    .iter()
                    .map(|c| self.column_index(&c.column))
                    .collect()
            })
            .collect::<Result<_, _>>()?;

        // Resident columns are shared by `batch_size`-row morsels. A fetched
        // source gets one morsel per chunk: fetch granularity, work
        // granularity and cancellation granularity coincide out-of-core.
        let source = &self.source;
        let resident = source.resident_columns();
        let morsel_list: Vec<Morsel> = match resident {
            Some(_) => morsels(source.num_rows(), ctx.config.batch_size),
            None => (0..source.num_chunks())
                .map(|index| {
                    let (start, end) = source.chunk_range(index);
                    Morsel { index, start, end }
                })
                .collect(),
        };
        let config = ctx.config;

        // Evaluate local predicates and pushed-down bitvector probes with one
        // kernel per morsel, whose only shared state is the chunk counters:
        // the kernel counts reads, prunes and bytes itself, so a scan that
        // is cancelled or fails part-way still reports every chunk it
        // fetched. A failed read fails the section, which stops claiming
        // chunks. Every filter targeting this scan is already published: a
        // hash join publishes its filters before opening its probe side, and
        // placement targets always sit below the source join's probe child.
        let (chunks_read, chunks_pruned, bytes_read) =
            (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let per_morsel = {
            let filters: Vec<ScanFilter<'_>> = self
                .placements
                .iter()
                .zip(&placement_cols)
                .map(|(&(idx, _), cols)| (ctx.filter(idx), cols.as_slice()))
                .collect();
            ctx.run_morsels(&morsel_list, |m| {
                let mut out = MorselScan {
                    rows: Vec::new(),
                    columns: Vec::new(),
                    stats: vec![FilterStats::new(); filters.len()],
                };
                if let Some(columns) = resident {
                    out.rows = scan_morsel(
                        &config,
                        columns,
                        m.rows(),
                        &predicates,
                        &filters,
                        &mut out.stats,
                    );
                    return Ok(out);
                }
                let decision = chunk_decision(source.as_ref(), m.index, &predicates, &filters);
                if !matches!(decision, ChunkDecision::Scan) {
                    // ORDERING: Relaxed — a tally, read once the section has
                    // ended, whose join supplies the happens-before edge.
                    chunks_pruned.fetch_add(1, Ordering::Relaxed);
                }
                match decision {
                    ChunkDecision::PrunedByPredicate => {}
                    ChunkDecision::PrunedByFilter => {
                        // See `ChunkDecision`: slot 0 probed and eliminated
                        // every row of this chunk.
                        out.stats[0].probed += m.len() as u64;
                        out.stats[0].eliminated += m.len() as u64;
                    }
                    ChunkDecision::Scan => {
                        let columns = source.read_chunk(m.index)?;
                        // ORDERING: Relaxed — tallies, as above.
                        chunks_read.fetch_add(1, Ordering::Relaxed);
                        let bytes = source.chunk_byte_size(m.index);
                        // ORDERING: Relaxed — tallies, as above.
                        bytes_read.fetch_add(bytes, Ordering::Relaxed);
                        let local = scan_morsel(
                            &config,
                            &columns,
                            0..m.len(),
                            &predicates,
                            &filters,
                            &mut out.stats,
                        );
                        // Compact the survivors before the chunk's columns
                        // are dropped — this is what bounds memory to the
                        // survivor set plus `num_threads` in-flight chunks.
                        out.columns = columns.iter().map(|c| c.take(&local)).collect();
                        out.rows = local.iter().map(|&r| m.start + r).collect();
                    }
                }
                Ok(out)
            })
        };
        ctx.metrics.chunks_read += chunks_read.into_inner();
        ctx.metrics.chunks_pruned += chunks_pruned.into_inner();
        ctx.metrics.bytes_read += bytes_read.into_inner();
        let per_morsel = per_morsel?;

        // Deterministic merge: concatenate rows and sum counters in morsel
        // order, independent of worker scheduling. The survivor count is
        // known up front, so the merged rows and (fetched sources only)
        // columns are allocated once, at their final size.
        let total: usize = per_morsel.iter().map(|m| m.rows.len()).sum();
        let mut survivors = Vec::with_capacity(total);
        let fetched = if resident.is_some() { 0 } else { total };
        let fields = source.schema().fields().iter();
        let mut compacted: Vec<Column> = fields
            .map(|f| Column::with_capacity(f.data_type, fetched))
            .collect();
        let mut merged = vec![FilterStats::new(); self.placements.len()];
        for morsel in per_morsel {
            survivors.extend(morsel.rows);
            for (acc, c) in compacted.iter_mut().zip(morsel.columns) {
                acc.append_owned(c)?;
            }
            for (acc, s) in merged.iter_mut().zip(&morsel.stats) {
                acc.merge(s);
            }
        }
        for stats in &merged {
            ctx.merge_filter_stats(stats);
        }

        self.survivors = survivors;
        self.columns = match resident {
            Some(columns) => columns.to_vec(),
            None => compacted.into_iter().map(Arc::new).collect(),
        };
        self.pos = 0;
        self.cursor = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError> {
        // The serial-loop cancellation seam: one check per batch pull.
        ctx.check_cancelled()?;
        // Emission granularity is unchanged from the serial executor: one
        // batch per `batch_size` range of the global row space with at least
        // one survivor, so parents observe identical batch boundaries for
        // every `num_threads` and every source.
        let num_rows = self.source.num_rows();
        let batch_size = ctx.config.batch_size.max(1);
        while self.cursor < num_rows {
            let end = num_rows.min(self.cursor.saturating_add(batch_size));
            self.cursor = end;

            let from = self.pos;
            while self.pos < self.survivors.len() && self.survivors[self.pos] < end {
                self.pos += 1;
            }
            if self.pos == from {
                continue;
            }
            // Zero-copy either way: resident columns are indexed by global
            // row id, a fetched source's compacted columns by survivor
            // position.
            let batch = if self.source.resident_columns().is_some() {
                let rows = self.survivors[from..self.pos].iter().copied();
                scan_batch(&self.schema, &self.columns, rows)
            } else {
                scan_batch(&self.schema, &self.columns, from..self.pos)
            };
            self.output_rows += batch.num_rows() as u64;
            self.emitted_any = true;
            return Ok(Some(batch));
        }
        if !self.emitted_any {
            // No row survived: emit one empty batch so parents still learn
            // the schema.
            self.emitted_any = true;
            let no_rows = std::iter::empty();
            return Ok(Some(scan_batch(&self.schema, &self.columns, no_rows)));
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        ctx.metrics
            .record_operator(self.node, OperatorKind::Leaf, self.output_rows, 0, 0);
    }
}

/// Hash join: the build side is drained at `open` and kept as one row-id
/// batch (`Batch::stack`) plus a flat [`JoinTable`] over its join keys,
/// gathered once; the bitvector filter sourced at this join is published as
/// a view of that table ([`JoinTable::filter`]) — after the table is built,
/// so a failed or cancelled build publishes nothing, and before the probe
/// side opens. The probe side is streamed batch by batch, each output batch
/// pairing build and probe row ids (`Batch::join`): a unique-key table that
/// matched every probe row is an identity probe, and the output adopts the
/// probe batch's row ids; an exact single-`Int64` key is recorded as an
/// equality pair, so the answer gathers it once. A residual bitvector filter
/// targeted at this join's output probes its gathered keys with the scan's
/// range kernel, and the kept rows refine every source's row ids.
pub(crate) struct HashJoinOp<'p> {
    node: NodeId,
    build: Box<dyn PhysicalOperator + 'p>,
    probe: Box<dyn PhysicalOperator + 'p>,
    build_key_cols: Vec<ColumnRef>,
    probe_key_cols: Vec<ColumnRef>,
    /// Indices of the placements whose filter this join creates from its
    /// build side.
    source_placements: Vec<usize>,
    /// Residual placements applied to this join's output batches.
    residual_placements: Vec<(usize, &'p BitvectorPlacement)>,
    build_batch: Batch,
    /// The build side's schema then the probe side's, learned from the first
    /// probe batch and stamped on every output batch.
    schema: Option<Arc<[ColumnRef]>>,
    /// The output's two key columns, when matching on the key is exact (see
    /// `exact_key`); learned with `schema`.
    equal_key: Option<(usize, usize)>,
    table: JoinTable,
    emitted_any: bool,
    build_rows: u64,
    probe_rows: u64,
    join_output_rows: u64,
    /// Per residual placement: rows surviving it (summed over batches), and
    /// whether its filter was available so it actually ran.
    residual_rows: Vec<(u64, bool)>,
}

impl std::fmt::Debug for HashJoinOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashJoinOp")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'p> HashJoinOp<'p> {
    /// Creates a hash join over two child operators.
    pub(crate) fn new(
        node: NodeId,
        build: Box<dyn PhysicalOperator + 'p>,
        probe: Box<dyn PhysicalOperator + 'p>,
        keys: &'p [bqo_plan::JoinKeyPair],
        source_placements: Vec<usize>,
        residual_placements: Vec<(usize, &'p BitvectorPlacement)>,
    ) -> Self {
        let residual_rows = vec![(0, false); residual_placements.len()];
        HashJoinOp {
            node,
            build,
            probe,
            build_key_cols: keys.iter().map(|k| k.build.clone()).collect(),
            probe_key_cols: keys.iter().map(|k| k.probe.clone()).collect(),
            source_placements,
            residual_placements,
            build_batch: Batch::empty(),
            schema: None,
            equal_key: None,
            table: JoinTable::default(),
            emitted_any: false,
            build_rows: 0,
            probe_rows: 0,
            join_output_rows: 0,
            residual_rows,
        }
    }
}

/// The join output's two key columns when the join matches on their values
/// exactly — one key column per side, both `Int64`, so the collapsed key is
/// the raw value on both sides — and `None` for every key shape that matches
/// on a digest (see [`crate::batch`]).
fn exact_key(
    build: &Batch,
    probe: &Batch,
    build_cols: &[ColumnRef],
    probe_cols: &[ColumnRef],
) -> Option<(usize, usize)> {
    let ([build_col], [probe_col]) = (build_cols, probe_cols) else {
        return None;
    };
    let (b, p) = (build.index_of(build_col)?, probe.index_of(probe_col)?);
    let int64 = |batch: &Batch, i: usize| batch.columns()[i].data_type() == DataType::Int64;
    (int64(build, b) && int64(probe, p)).then_some((b, build.num_columns() + p))
}

impl PhysicalOperator for HashJoinOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext) -> Result<(), StorageError> {
        // 1. Drain the build side completely, keeping it as row ids.
        self.build.open(ctx)?;
        let mut batches = Vec::new();
        while let Some(batch) = self.build.next_batch(ctx)? {
            batches.push(batch);
        }
        self.build.close(ctx);
        self.build_batch = Batch::stack(batches)?;

        // 2. Gather the build keys, once, and index them in the flat table
        //    (row lists ascending): row ids checked, then one cancellation
        //    check unless the build side is empty.
        let build_keys = batch_keys(&ctx.config, &self.build_batch, &self.build_key_cols);
        self.build_rows = build_keys.len() as u64;
        row_id(build_keys.len())?;
        if !build_keys.is_empty() {
            ctx.check_cancelled()?;
        }
        self.table = JoinTable::build(&build_keys)?;

        // 3. Publish the bitvector filter sourced at this join (Algorithm 1
        //    places it exactly once), so it is in place before any
        //    probe-side operator produces rows: the default kind is a view
        //    of the table, the others are built from the same keys.
        for &idx in &self.source_placements {
            let filter = match ctx.config.filter_kind {
                FilterKind::Bitmap => AnyFilter::Bitmap(self.table.filter(&build_keys)),
                kind => AnyFilter::from_keys(kind, &build_keys),
            };
            ctx.publish_filter(idx, filter);
        }

        // 4. Only now open the probe side.
        self.probe.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, StorageError> {
        // The serial-loop cancellation seam: one check per probe batch.
        ctx.check_cancelled()?;
        let config = ctx.config;
        while let Some(probe_batch) = self.probe.next_batch(ctx)? {
            let probe_keys = batch_keys(&config, &probe_batch, &self.probe_key_cols);
            row_id(probe_keys.len())?;
            self.probe_rows += probe_keys.len() as u64;

            let (build_rows, probe_rows) = join_probe(&config, &self.table, &probe_keys);

            let (build, equal_key) = (&self.build_batch, &mut self.equal_key);
            let keys = (&self.build_key_cols, &self.probe_key_cols);
            let schema = self.schema.get_or_insert_with(|| {
                *equal_key = exact_key(build, &probe_batch, keys.0, keys.1);
                let columns = build.schema().iter().chain(probe_batch.schema());
                columns.cloned().collect()
            });
            // A unique table pairs each probe row with at most one build
            // row, so as many matches as probe rows is every row, in order.
            let identity = self.table.is_unique() && build_rows.len() == probe_keys.len();
            let probe_rows = (!identity).then_some(&probe_rows[..]);
            let mut output = Batch::join(schema, build, &build_rows, probe_batch, probe_rows);
            if let Some((build_key, probe_key)) = self.equal_key {
                output = output.with_equal_columns(build_key, probe_key);
            }
            self.join_output_rows += output.num_rows() as u64;

            // Residual bitvector filters targeted at this join's output.
            for (slot, &(idx, placement)) in self.residual_placements.iter().enumerate() {
                let Some(filter) = ctx.filter(idx) else {
                    continue;
                };
                // The keys as one `Int64` column, probed by the scan's kernel.
                let keys = Column::Int64(batch_keys(&config, &output, &placement.probe_columns));
                let (rows, mut stats) = (0..keys.len(), FilterStats::new());
                row_id(rows.len())?;
                let scratch = &mut ProbeScratch::default();
                let kept = probe_range(&config, filter, &[&keys], rows, &mut stats, scratch);
                output = output.keep_rows(&kept);
                ctx.merge_filter_stats(&stats);
                self.residual_rows[slot].0 += output.num_rows() as u64;
                self.residual_rows[slot].1 = true;
            }

            if output.num_rows() == 0 && self.emitted_any {
                continue;
            }
            self.emitted_any = true;
            return Ok(Some(output));
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext) {
        self.probe.close(ctx);
        ctx.metrics.record_operator(
            self.node,
            OperatorKind::Join,
            self.join_output_rows,
            self.build_rows,
            self.probe_rows,
        );
        // One `Other` entry per residual filter that ran, mirroring the
        // Figure 9 attribution of residual filter operators.
        for &(rows, applied) in &self.residual_rows {
            if applied {
                ctx.metrics
                    .record_operator(self.node, OperatorKind::Other, rows, 0, 0);
            }
        }
    }
}
