//! Shared execution context and plan→pipeline lowering.

use crate::cancel::CancelToken;
use crate::executor::ExecConfig;
use crate::metrics::ExecutionMetrics;
use crate::morsel::{run_morsels_with, Morsel};
use crate::operators::{HashJoinOp, PhysicalOperator, ScanOp};
use crate::pool::WorkerPool;
use bqo_bitvector::{AnyFilter, FilterStats};
use bqo_plan::{JoinGraph, NodeId, PhysicalNode, PhysicalPlan};
use bqo_storage::{Catalog, StorageError};
use std::collections::HashMap;

/// State shared by every operator of one running pipeline: the execution
/// configuration, the worker pool supplying the scans' helper workers (if
/// any), the bitvector filters published so far (keyed by their placement
/// index in the plan), and the metrics being collected where the work
/// happens.
pub struct ExecContext {
    /// The active execution configuration.
    pub config: ExecConfig,
    /// Metrics accumulated by the operators.
    pub metrics: ExecutionMetrics,
    filters: HashMap<usize, AnyFilter>,
    pool: Option<WorkerPool>,
    cancel: CancelToken,
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ExecContext {
    /// Creates a fresh context for one query execution (no worker pool —
    /// scans run inline on the calling thread).
    pub fn new(config: ExecConfig) -> Self {
        ExecContext::with_pool(config, None)
    }

    /// Creates a fresh context whose scans draw helper workers from a
    /// persistent pool.
    pub fn with_pool(config: ExecConfig, pool: Option<WorkerPool>) -> Self {
        ExecContext {
            config,
            metrics: ExecutionMetrics::new(),
            filters: HashMap::new(),
            pool,
            cancel: CancelToken::new(),
        }
    }

    /// The same context observing `token` for cooperative cancellation: once
    /// the token fires, the run fails with `StorageError::Cancelled` at its
    /// next morsel claim, serial batch pull, join-table build or gathered
    /// batch.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Returns `Err(StorageError::Cancelled)` once the context's cancel token
    /// has fired (or its deadline passed). Operators call this at the top of
    /// their serial batch loops and before a join-table build — the serial
    /// counterpart of the morsel-claim checks inside
    /// [`ExecContext::run_morsels`].
    pub(crate) fn check_cancelled(&self) -> Result<(), StorageError> {
        if self.cancel.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Runs a morsel kernel with up to [`ExecConfig::num_threads`] workers,
    /// drawing helpers from the context's worker pool when one is attached
    /// and running inline otherwise (see [`run_morsels_with`]). The scan's
    /// open is the one caller: it is the executor's one parallel section. A
    /// kernel's error or the context's cancel token (re-checked at every
    /// morsel claim) stops the section at its next claim.
    pub(crate) fn run_morsels<T, K>(
        &self,
        morsels: &[Morsel],
        kernel: K,
    ) -> Result<Vec<T>, StorageError>
    where
        T: Send,
        K: Fn(&Morsel) -> Result<T, StorageError> + Sync,
    {
        run_morsels_with(
            self.pool.as_ref(),
            Some(&self.cancel),
            self.config.num_threads,
            morsels,
            kernel,
        )
    }

    /// Publishes a bitvector filter for the placement with index `placement`,
    /// making it available to every probe site targeting that placement.
    pub(crate) fn publish_filter(&mut self, placement: usize, filter: AnyFilter) {
        self.filters.insert(placement, filter);
        self.metrics.filters_created += 1;
    }

    /// The published filter for a placement index, if its source join has
    /// already drained its build side.
    pub fn filter(&self, placement: usize) -> Option<&AnyFilter> {
        self.filters.get(&placement)
    }

    /// Folds one probe site's filter counters into the query totals.
    pub(crate) fn merge_filter_stats(&mut self, stats: &FilterStats) {
        self.metrics.filter_stats.merge(stats);
    }

    /// Consumes the context, returning the collected metrics.
    pub fn into_metrics(self) -> ExecutionMetrics {
        self.metrics
    }
}

/// Compiles a [`PhysicalPlan`] (+ its [`JoinGraph`] for relation names and
/// local predicates) into a tree of pull-based [`PhysicalOperator`]s bound to
/// the tables of a catalog.
///
/// Lowering borrows the plan's node payloads (join keys, placement columns)
/// instead of cloning them; only the `Arc<dyn ChunkSource>` handles are
/// refcounted. Every scan lowers to the same scan operator, whatever backs the
/// table. Every placement of the plan is wired: a plan without placements is
/// how a query runs without bitvector filters.
pub struct PipelineBuilder<'p> {
    catalog: &'p Catalog,
    graph: &'p JoinGraph,
    plan: &'p PhysicalPlan,
}

impl std::fmt::Debug for PipelineBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder").finish_non_exhaustive()
    }
}

impl<'p> PipelineBuilder<'p> {
    /// Creates a builder for one plan. Lowering reads no configuration:
    /// operators take theirs from the [`ExecContext`] they are opened with,
    /// so `_config` only keeps the signature callers build pipelines with.
    pub fn new(
        catalog: &'p Catalog,
        graph: &'p JoinGraph,
        plan: &'p PhysicalPlan,
        _config: ExecConfig,
    ) -> Self {
        PipelineBuilder {
            catalog,
            graph,
            plan,
        }
    }

    /// Builds the operator tree for the plan's root. Fails if a relation of
    /// the join graph has no table in the catalog.
    pub fn build(&self) -> Result<Box<dyn PhysicalOperator + 'p>, StorageError> {
        self.lower(self.plan.root())
    }

    fn lower(&self, node: NodeId) -> Result<Box<dyn PhysicalOperator + 'p>, StorageError> {
        match self.plan.node(node) {
            PhysicalNode::Scan { relation } => {
                let info = self.graph.relation(*relation);
                let placements = self.plan.indexed_placements_at(node).collect();
                let source = self.catalog.table_meta(&info.name)?.scan_source();
                Ok(Box::new(ScanOp::new(
                    node, *relation, info, source, placements,
                )))
            }
            PhysicalNode::HashJoin { build, probe, keys } => {
                let build_op = self.lower(*build)?;
                let probe_op = self.lower(*probe)?;
                let source = self.plan.indexed_placements_from(node);
                let source = source.map(|(idx, _)| idx).collect();
                let residual = self.plan.indexed_placements_at(node).collect();
                Ok(Box::new(HashJoinOp::new(
                    node, build_op, probe_op, keys, source, residual,
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::executor::KernelMode;
    use bqo_plan::{ColumnPredicate, CompareOp, JoinTree, RelationInfo};
    use bqo_storage::{ChunkSource, Column, Schema, Table, TableBuilder, TableStats, Value};
    use std::sync::{Arc, Mutex, Weak};

    /// `table` served as a fetched source of 4-row chunks that remembers
    /// every column `read_chunk` handed out.
    #[derive(Debug)]
    struct Fetched {
        table: Table,
        handed_out: Mutex<Vec<Weak<Column>>>,
    }

    impl ChunkSource for Fetched {
        fn name(&self) -> &str {
            self.table.name()
        }
        fn schema(&self) -> &Schema {
            self.table.schema()
        }
        fn num_rows(&self) -> usize {
            self.table.num_rows()
        }
        fn chunk_rows(&self) -> usize {
            4
        }
        fn zone_map(&self, _chunk: usize, _column: usize) -> Option<(Value, Value)> {
            None
        }
        fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>, StorageError> {
            let (start, end) = self.chunk_range(chunk);
            let rows: Vec<usize> = (start..end).collect();
            let columns = self.table.columns().iter();
            let columns: Vec<_> = columns.map(|c| Arc::new(c.take(&rows))).collect();
            let mut handed_out = self.handed_out.lock().unwrap();
            handed_out.extend(columns.iter().map(Arc::downgrade));
            Ok(columns)
        }
        fn chunk_byte_size(&self, _chunk: usize) -> u64 {
            32
        }
        fn fingerprint(&self) -> u64 {
            0
        }
        fn table_stats(&self) -> TableStats {
            self.table.compute_stats()
        }
    }

    fn table() -> Table {
        let values = (0..10).collect();
        TableBuilder::new("t")
            .with_i64("v", values)
            .build()
            .unwrap()
    }

    /// Lowers and opens a vectorized scan of `t` where `v < 7`, calls
    /// `after_open`, and returns the batches the scan emits.
    fn scan(catalog: &Catalog, after_open: impl FnOnce()) -> Vec<Batch> {
        let predicate = ColumnPredicate::new("v", CompareOp::Lt, 7i64);
        let mut graph = JoinGraph::new();
        let t =
            graph.add_relation(RelationInfo::new("t", 10.0, 7.0).with_predicates(vec![predicate]));
        let tree = JoinTree::right_deep(&[t]);
        let plan = PhysicalPlan::from_join_tree(&graph, &tree);
        let config = ExecConfig::default()
            .with_batch_size(3)
            .with_kernel_mode(KernelMode::Vectorized);
        let mut ctx = ExecContext::new(config);
        let mut op = PipelineBuilder::new(catalog, &graph, &plan, config)
            .build()
            .unwrap();
        op.open(&mut ctx).unwrap();
        after_open();
        let mut batches = Vec::new();
        while let Some(batch) = op.next_batch(&mut ctx).unwrap() {
            batches.push(batch);
        }
        assert_eq!(batches.iter().map(Batch::num_rows).sum::<usize>(), 7);
        batches
    }

    #[test]
    fn resident_scan_emits_zero_copy_batches_over_the_table_columns() {
        let mut catalog = Catalog::new();
        catalog.register_table(table());
        let table = catalog.table("t").unwrap();
        for batch in scan(&catalog, || ()) {
            assert!(!batch.is_dense());
            assert!(Arc::ptr_eq(&batch.columns()[0], &table.columns()[0]));
        }
    }

    #[test]
    fn fetched_scan_compacts_survivors_and_drops_every_chunk() {
        let source = Arc::new(Fetched {
            table: table(),
            handed_out: Mutex::new(Vec::new()),
        });
        let mut catalog = Catalog::new();
        catalog.register_source(Arc::clone(&source) as Arc<dyn ChunkSource>);
        // Once `open` returns, no `read_chunk` result is alive: neither the
        // operator nor any batch it emits later can alias one.
        let batches = scan(&catalog, || {
            let handed_out = source.handed_out.lock().unwrap();
            assert_eq!(handed_out.len(), 3);
            assert!(handed_out.iter().all(|column| column.upgrade().is_none()));
        });
        assert_eq!(batches.len(), 3);
    }
}
