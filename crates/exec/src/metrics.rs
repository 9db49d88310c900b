//! Per-query execution metrics.
//!
//! The paper reports (a) CPU execution time, (b) tuples output by operators
//! broken down into join / leaf / other operators (Figure 9), and (c) how
//! many tuples bitvector filters probe and eliminate (Figure 7, Table 4).
//! [`ExecutionMetrics`] gathers all of these for one query execution.

use bqo_bitvector::FilterStats;
use bqo_plan::NodeId;
use std::time::Duration;

/// The operator category a tuple count is attributed to, matching Figure 9's
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Base-table scans (after local predicates and pushed-down bitvectors).
    Leaf,
    /// Hash joins.
    Join,
    /// Everything else (residual bitvector filter operators).
    Other,
}

/// Metrics of a single operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorMetrics {
    pub node: NodeId,
    pub kind: OperatorKind,
    /// Tuples this operator produced.
    pub output_rows: u64,
    /// For joins: tuples inserted into the hash table.
    pub build_rows: u64,
    /// For joins: tuples that probed the hash table.
    pub probe_rows: u64,
}

/// Metrics of one query execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionMetrics {
    pub operators: Vec<OperatorMetrics>,
    /// Aggregated bitvector filter counters across all placements.
    pub filter_stats: FilterStats,
    /// Number of bitvector filters that were actually created.
    pub filters_created: usize,
    /// File-backed scans: chunks whose data was fetched and scanned.
    pub chunks_read: u64,
    /// File-backed scans: chunks skipped entirely because their zone maps
    /// proved no row could survive the scan's predicates or a pushed-down
    /// bitvector filter.
    pub chunks_pruned: u64,
    /// File-backed scans: bytes of chunk data fetched (pruned chunks
    /// contribute nothing).
    pub bytes_read: u64,
    /// Wall-clock time of one [`crate::execute`] call, entry to return
    /// value: lowering, `open`, draining the root, `close`, and — for a
    /// collecting run — gathering the answer's rows (`Batch::concat`). A
    /// failed or aborted run's spans up to the failure.
    pub elapsed: Duration,
}

impl ExecutionMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        ExecutionMetrics::default()
    }

    /// Records an operator's output.
    pub(crate) fn record_operator(
        &mut self,
        node: NodeId,
        kind: OperatorKind,
        output_rows: u64,
        build_rows: u64,
        probe_rows: u64,
    ) {
        self.operators.push(OperatorMetrics {
            node,
            kind,
            output_rows,
            build_rows,
            probe_rows,
        });
    }

    /// Total tuples output by operators of one kind.
    pub fn tuples_by_kind(&self, kind: OperatorKind) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.output_rows)
            .sum()
    }

    /// Total tuples output by all operators (the Figure 9 denominator).
    pub fn total_tuples(&self) -> u64 {
        self.operators.iter().map(|o| o.output_rows).sum()
    }

    /// Total hash-table probes across all joins.
    pub fn total_probe_rows(&self) -> u64 {
        self.operators.iter().map(|o| o.probe_rows).sum()
    }

    /// Total hash-table build rows across all joins.
    pub fn total_build_rows(&self) -> u64 {
        self.operators.iter().map(|o| o.build_rows).sum()
    }

    /// A deterministic "logical work" proxy for CPU cost: tuples built,
    /// probed and produced, plus bitvector probes at a reduced weight. Used
    /// by tests and as a noise-free complement to wall-clock time in the
    /// benchmark reports.
    pub fn logical_work(&self) -> u64 {
        self.total_build_rows()
            + self.total_probe_rows()
            + self.total_tuples()
            + self.filter_stats.probed / 4
    }

    /// Fraction of file-scan chunks that zone maps pruned:
    /// `chunks_pruned / (chunks_read + chunks_pruned)`. Zero when no
    /// file-backed scan ran.
    pub fn chunk_pruning_ratio(&self) -> f64 {
        let total = self.chunks_read + self.chunks_pruned;
        if total == 0 {
            0.0
        } else {
            self.chunks_pruned as f64 / total as f64
        }
    }

    /// Elapsed time in seconds as f64 (convenience for reports).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_accounting_by_kind() {
        let mut m = ExecutionMetrics::new();
        m.record_operator(NodeId(0), OperatorKind::Leaf, 100, 0, 0);
        m.record_operator(NodeId(1), OperatorKind::Leaf, 50, 0, 0);
        m.record_operator(NodeId(2), OperatorKind::Join, 30, 50, 100);
        m.record_operator(NodeId(3), OperatorKind::Other, 10, 0, 0);
        assert_eq!(m.tuples_by_kind(OperatorKind::Leaf), 150);
        assert_eq!(m.tuples_by_kind(OperatorKind::Join), 30);
        assert_eq!(m.tuples_by_kind(OperatorKind::Other), 10);
        assert_eq!(m.total_tuples(), 190);
        assert_eq!(m.total_probe_rows(), 100);
        assert_eq!(m.total_build_rows(), 50);
    }

    #[test]
    fn logical_work_includes_filter_probes() {
        let mut m = ExecutionMetrics::new();
        m.record_operator(NodeId(0), OperatorKind::Join, 10, 20, 30);
        m.filter_stats.probed = 400;
        m.filter_stats.eliminated = 100;
        assert_eq!(m.logical_work(), 20 + 30 + 10 + 100);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ExecutionMetrics::new();
        assert_eq!(m.total_tuples(), 0);
        assert_eq!(m.logical_work(), 0);
        assert_eq!(m.elapsed_secs(), 0.0);
    }

    #[test]
    fn chunk_pruning_ratio_handles_empty_and_mixed() {
        let mut m = ExecutionMetrics::new();
        assert_eq!(m.chunk_pruning_ratio(), 0.0);
        m.chunks_read = 3;
        m.chunks_pruned = 9;
        assert!((m.chunk_pruning_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn operator_counts_from_selection_batches_match_dense() {
        use crate::batch::Batch;
        use bqo_plan::{ColumnRef, RelId};
        use bqo_storage::Column;
        // Regression: operators record `batch.num_rows()`, which must be the
        // *logical* (selection-aware) count — a fully-selected shared batch
        // and a zero-survivor selection batch must produce exactly the
        // metrics their dense equivalents would, so totals cannot depend on
        // which kernel mode produced the batches.
        let schema = vec![ColumnRef::new(RelId(0), "k")];
        let dense = Batch::new(schema, vec![Column::Int64(vec![1, 2, 3])]);
        let full = dense.clone().with_selection(vec![0, 1, 2]);
        let none = dense.clone().with_selection(Vec::new());
        let mut from_selected = ExecutionMetrics::new();
        from_selected.record_operator(NodeId(0), OperatorKind::Leaf, full.num_rows() as u64, 0, 0);
        from_selected.record_operator(NodeId(1), OperatorKind::Leaf, none.num_rows() as u64, 0, 0);
        let mut from_dense = ExecutionMetrics::new();
        from_dense.record_operator(NodeId(0), OperatorKind::Leaf, dense.num_rows() as u64, 0, 0);
        from_dense.record_operator(NodeId(1), OperatorKind::Leaf, 0, 0, 0);
        assert_eq!(from_selected, from_dense);
        assert_eq!(from_selected.total_tuples(), 3);
    }
}
