//! In-memory columnar storage for the bitvector-aware query optimization
//! (BQO) reproduction.
//!
//! The paper evaluates its technique inside Microsoft SQL Server; this crate
//! provides the storage substrate that replaces it: typed columnar tables, a
//! catalog with primary-key / foreign-key metadata, per-column statistics
//! used by the cardinality estimator, and deterministic synthetic data
//! generators used to build the TPC-DS-like, JOB-like and CUSTOMER-like
//! workloads.
//!
//! Design notes:
//! * Tables are append-only and fully materialized in memory. The paper's
//!   experiments run on warm data; an in-memory column store preserves the
//!   relative cost of scans, probes and joins.
//! * Join keys are always 64-bit integers. Decision-support schemas join on
//!   surrogate keys, and fixing the key type keeps the hash-join and
//!   bitvector code paths simple and fast.
//! * There are no nulls. Synthetic generators always produce values, and the
//!   paper's analysis does not depend on null semantics.
//! * One name, one allocation. A table name and each column name is an
//!   `Arc<str>` allocated once: by the [`Table`] (or, for a
//!   [`ChunkSource`], by the catalog at registration) and by its
//!   [`Schema`]'s [`Field`]s. The catalog entry, the primary key, the
//!   statistics and everything downstream — query specs bound from SQL,
//!   join graphs, plans, operator schemas, batches — clone that `Arc`,
//!   never the text.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

mod catalog;
mod column;
mod error;
mod generator;
mod schema;
mod source;
mod stats;
mod table;
mod value;

pub use catalog::{Catalog, ForeignKey, TableBacking, TableMeta};
pub use column::Column;
pub use error::StorageError;
pub use generator::DataGenerator;
pub use schema::{Field, Schema};
pub use source::ChunkSource;
pub use stats::{ColumnStats, TableStats};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
