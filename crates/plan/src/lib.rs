//! Join graphs, plan trees, cardinality estimation, the `Cout` cost model and
//! bitvector push-down (Algorithm 1 of the paper).
//!
//! This crate is the analytical heart of the reproduction. It contains:
//!
//! * `graph` — the join-graph model ([`JoinGraph`], [`RelationInfo`],
//!   [`JoinEdge`]) with PKFK metadata, fact-table detection and the clean
//!   snowflake test (stars and chains are snowflakes).
//! * `relset` — [`RelSet`], the `Copy` bitset every "set of relations" in
//!   the planner and the optimizers is written as.
//! * `tree` — [`JoinTree`], the one join-tree type: a flat arena the
//!   optimizers build every plan in, including the right-deep trees the
//!   paper's analysis is about.
//! * `estimator` — the cardinality estimator: join cardinalities over
//!   relation sets and semi-join (bitvector) reduction factors.
//! * `cost` — the `Cout` cost function (Eq. 1): bitvector-aware over a
//!   join tree, and over a physical plan with whatever filters it carries.
//! * `physical` — the physical plan (scans + hash joins) plus bitvector
//!   filter placements.
//! * `pushdown` — Algorithm 1: create a bitvector filter at each hash join
//!   and push it to the lowest possible operator of the probe side.
//! * `builder` — helpers that build a statistics-annotated [`JoinGraph`]
//!   from a [`bqo_storage::Catalog`] and a query description, including
//!   parameter placeholders ([`Params`], [`QuerySpec::bind`]).
//! * `fingerprint` — canonical, order-invariant query fingerprints used as
//!   plan-cache keys.
//! * `unparse` — [`QuerySpec::to_sql`] / `Display`: renders a spec back to
//!   SQL text for the `bqo-sql` frontend's round-trip fuzzing.
//!
//! One name, one allocation: every table and column name a query carries —
//! in [`QuerySpec`], [`RelationInfo`], [`JoinEdge`], [`ColumnPredicate`] and
//! [`ColumnRef`] (so in [`JoinKeyPair`], the placements and every executor
//! schema) — is an `Arc<str>`. A spec bound from SQL holds the catalog's own
//! `Arc`s; lowering it to a join graph and a plan clones `Arc`s, not text.
//! Constructors and [`QuerySpec`]'s builder methods take
//! `impl Into<Arc<str>>`, so `&str` and `String` arguments still work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cost;
mod estimator;
mod fingerprint;
mod graph;
mod physical;
mod predicate;
mod pushdown;
mod relset;
mod tree;
mod unparse;

pub use builder::QuerySpec;
pub use cost::{CostModel, CoutBreakdown, SharedTop};
pub use estimator::CardinalityEstimator;
pub use graph::{JoinEdge, JoinGraph, RelId, RelationInfo, ScanBacking};
pub use physical::{
    BitvectorPlacement, ColumnRef, JoinKeyPair, NodeId, PhysicalNode, PhysicalPlan,
};
pub use predicate::{ColumnPredicate, CompareOp, Params, PredicateValue};
pub use pushdown::push_down_bitvectors;
pub use relset::RelSet;
pub use tree::{JoinNode, JoinTree};
