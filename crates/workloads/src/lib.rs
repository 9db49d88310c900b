//! Synthetic workloads for the BQO reproduction.
//!
//! The paper evaluates on TPC-DS (100 GB), JOB (the IMDB-backed Join Order
//! Benchmark) and a proprietary customer workload. None of these datasets can
//! be redistributed here, so this crate generates synthetic equivalents that
//! preserve the *structural* properties the paper's technique depends on:
//!
//! * [`tpcds_like`] — a snowflake warehouse with three fact tables
//!   (store/web/catalog sales), shared first-level dimensions and second-level
//!   dimensions, plus a query generator producing star and snowflake
//!   aggregates of varying selectivity (≈ the TPC-DS workload shape).
//! * [`job_like`] — several fact tables around one very large dimension
//!   (titles), dimension–dimension joins and non-PKFK fact–fact joins, the
//!   structural traits the paper highlights for JOB; includes the Figure 2
//!   motivating query with the paper's cardinalities.
//! * [`customer_like`] — very wide snowflake queries (tens of joins over many
//!   small-to-medium tables), the shape of the paper's CUSTOMER workload.
//! * [`star`] / [`snowflake`] — parametric clean-schema generators used by
//!   the plan-space experiments (Table 2) and the property tests.
//! * [`microbench`] — the two-table workload of Figure 7 with a dial for the
//!   bitvector filter's selectivity.

#![forbid(unsafe_code)]

pub mod customer_like;
pub mod job_like;
pub mod microbench;
pub mod snowflake;
pub mod star;
pub mod tpcds_like;

use bqo_plan::QuerySpec;
use bqo_storage::Catalog;

/// A named benchmark workload: a populated catalog plus a list of queries.
#[derive(Debug)]
pub struct Workload {
    pub name: String,
    pub catalog: Catalog,
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, catalog: Catalog, queries: Vec<QuerySpec>) -> Self {
        Workload {
            name: name.into(),
            catalog,
            queries,
        }
    }

    /// Summary statistics in the shape of the paper's Table 3.
    pub fn stats(&self) -> WorkloadStats {
        let joins: Vec<usize> = self.queries.iter().map(|q| q.num_joins()).collect();
        let avg_joins = if joins.is_empty() {
            0.0
        } else {
            joins.iter().sum::<usize>() as f64 / joins.len() as f64
        };
        WorkloadStats {
            name: self.name.clone(),
            tables: self.catalog.len(),
            queries: self.queries.len(),
            avg_joins,
            max_joins: joins.iter().copied().max().unwrap_or(0),
            db_bytes: self.catalog.total_byte_size(),
        }
    }
}

/// Table 3-style workload statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    pub name: String,
    pub tables: usize,
    pub queries: usize,
    pub avg_joins: f64,
    pub max_joins: usize,
    pub db_bytes: usize,
}

impl std::fmt::Display for WorkloadStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} tables, {} queries, joins avg {:.1} / max {}, {:.1} MB",
            self.name,
            self.tables,
            self.queries,
            self.avg_joins,
            self.max_joins,
            self.db_bytes as f64 / (1024.0 * 1024.0)
        )
    }
}

/// Common scaling knob for the generators: `1.0` is the default benchmark
/// size (hundreds of thousands of fact rows — large enough that relative
/// execution costs are meaningful, small enough to run on a laptop);
/// tests typically use `0.02`–`0.1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Scales a base row count, keeping at least `min` rows.
    pub fn rows(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.0) as usize).max(min)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_applies_and_clamps() {
        assert_eq!(Scale(0.5).rows(1000, 10), 500);
        assert_eq!(Scale(0.001).rows(1000, 10), 10);
        assert_eq!(Scale::default().rows(1000, 10), 1000);
    }

    #[test]
    fn workload_stats_summarize_queries() {
        let w = star::generate(Scale(0.02), 4, 3, 42);
        let stats = w.stats();
        assert_eq!(stats.tables, 5);
        assert_eq!(stats.queries, 3);
        assert!(stats.avg_joins > 0.0);
        assert!(stats.max_joins <= 4);
        assert!(stats.db_bytes > 0);
        assert!(stats.to_string().contains("tables"));
    }
}
