//! Physical execution engine for the BQO reproduction.
//!
//! The paper's experiments execute plans inside Microsoft SQL Server and
//! measure CPU time and per-operator tuple counts. This crate is the
//! stand-in: a pull-based, batch-at-a-time operator pipeline for the physical
//! plans produced by `bqo-plan` / `bqo-optimizer`, with
//!
//! * a [`PhysicalOperator`] trait (`open` / `next_batch` / `close`) with
//!   exactly two implementations: the scan (local predicates + pushed-down
//!   bitvector probes applied per morsel over any `ChunkSource` — resident
//!   in-memory tables and chunk-fetched `.bqo` files alike) and the hash
//!   join (build side drained at `open` as row ids and indexed in one flat
//!   [`JoinTable`], its bitvector filter published to the shared
//!   [`ExecContext`], probe side streamed),
//! * a [`PipelineBuilder`] lowering a `PhysicalPlan + JoinGraph` into the
//!   operator tree without cloning plan payloads,
//! * bitvector filters applied wherever Algorithm 1 placed them (scans or
//!   residual positions above joins),
//! * **morsel-driven parallelism** ([`run_morsels_with`]): scan predicate
//!   and filter-probe evaluation, the join table's count-then-scatter build
//!   and the hash-probe loops run as shared-state-free kernels over row
//!   morsels — a batch of an in-memory table, one chunk of a fetched one —
//!   fanned out across [`ExecConfig::num_threads`] workers with a
//!   deterministic in-morsel-order merge,
//! * **late materialization**: [`Batch`]es carry one `u32` row-id vector
//!   per source relation over shared columns, the root join's included;
//!   values are gathered once, by [`Batch::concat`], when rows are
//!   collected — a run that only counts copies nothing, and an exact
//!   single-`Int64` join key is gathered once for both of its columns,
//! * **PK–FK joins at lookup cost**: a dense distinct build key gets the
//!   unique [`JoinTable`] layout (one load per probe key), and a probe batch
//!   it matches row for row passes its row ids into the join output as they
//!   are,
//! * **vectorized probe kernels**: bitvector membership is probed 64 rows
//!   per survivor word and composite join keys are hashed column-at-a-time
//!   — with the row-at-a-time scalar kernels retained as a differential
//!   oracle behind [`ExecConfig::kernel_mode`]; the mode is dispatched
//!   inside the kernels only, operators never branch on it,
//! * a persistent [`WorkerPool`]: helper workers for the parallel sections
//!   are parked pool threads woken per section instead of freshly spawned
//!   ones, so a serving workload of many small queries stops paying
//!   per-query thread start-up ([`ExecContext::with_pool`]; a context
//!   without a pool runs every section inline), gated by
//!   [`ExecConfig::parallel_threshold`] so tiny inputs stay inline,
//! * **cooperative cancellation**: a cloneable [`CancelToken`] (an atomic
//!   flag and an optional deadline) attached via
//!   [`ExecContext::with_cancel_token`] is re-checked at every morsel-claim
//!   boundary of the four parallel sections, at every serial batch pull and
//!   once per batch of the final gather, so an in-flight query aborts within
//!   roughly one morsel of [`CancelToken::cancel`] or deadline expiry,
//!   failing with `StorageError::Cancelled` beside the metrics gathered so
//!   far,
//! * per-operator metrics (tuples output by leaf / join / other operators,
//!   bitvector probe and elimination counts, wall-clock time) matching the
//!   quantities reported in Figures 7–10 and Table 4, collected inside the
//!   operators where the work happens,
//! * a configurable [`ExecConfig::batch_size`] and [`ExecConfig::num_threads`]
//!   — every `(batch_size, num_threads)` combination produces bit-identical
//!   rows and counters.
//!
//! Every bitvector placement of a plan is wired; a plan without placements
//! is how a query runs without bitvector filters, mirroring the SQL Server
//! option used for the Table 4 comparison.
//!
//! [`execute`] is the one way a plan runs: it compiles the plan, drains the
//! root operator under an [`ExecContext`] and, on request, gathers the
//! root's row-id batches into the output rows. User-facing code goes through
//! the `Engine` facade in `bqo-core`, whose `Session::execute` is its caller.

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

mod batch;
mod cancel;
mod executor;
mod join_table;
mod kernels;
mod metrics;
mod morsel;
mod operators;
mod pipeline;
mod pool;

pub use batch::Batch;
pub use cancel::CancelToken;
pub use executor::{execute, BoundPlan, ExecConfig, KernelMode, QueryResult, DEFAULT_BATCH_SIZE};
pub use join_table::JoinTable;
pub use metrics::{ExecutionMetrics, OperatorKind, OperatorMetrics};
pub use operators::PhysicalOperator;
pub use pipeline::{ExecContext, PipelineBuilder};
pub use pool::WorkerPool;

// Internals that the kernel differential suite (`kernel_oracle`) holds to its
// scalar references, and that the pool runtime suite (`worker_pool`) drives
// the pool with directly.
pub use batch::{gather_keys, row_key};
pub use kernels::{join_probe, probe_mask_range, probe_retain, ProbeScratch};
pub use morsel::{morsels, run_morsels_with, Morsel};
