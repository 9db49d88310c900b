//! The unified error type of the `Engine` facade.

use bqo_exec::ExecutionMetrics;
use bqo_storage::StorageError;
use std::fmt;

/// The phase of query processing an error originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// Catalog construction (registering tables, declaring keys).
    Setup,
    /// Resolving a `QuerySpec` against the catalog and optimizing it.
    Planning,
    /// Running the physical plan.
    Execution,
}

impl QueryPhase {
    fn describe(self) -> &'static str {
        match self {
            QueryPhase::Setup => "while building the catalog",
            QueryPhase::Planning => "while planning",
            QueryPhase::Execution => "while executing",
        }
    }
}

/// Error raised by the `Engine` facade: the underlying storage / planning /
/// execution failure plus the query it happened in, so callers (and error
/// messages) don't lose context as errors cross crate layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BqoError {
    phase: QueryPhase,
    query: Option<String>,
    source: StorageError,
    partial_metrics: Option<Box<ExecutionMetrics>>,
}

impl BqoError {
    /// A catalog-setup error (no query involved).
    pub fn setup(source: StorageError) -> Self {
        BqoError {
            phase: QueryPhase::Setup,
            query: None,
            source,
            partial_metrics: None,
        }
    }

    /// A planning error for the named query.
    pub fn planning(query: impl Into<String>, source: StorageError) -> Self {
        BqoError {
            phase: QueryPhase::Planning,
            query: Some(query.into()),
            source,
            partial_metrics: None,
        }
    }

    /// An execution error from a failed [`bqo_exec::execute`] run, carrying
    /// the metrics the run gathered before it stopped — whatever the cause,
    /// so a caller can see how much work a failed or cancelled query did.
    pub(crate) fn from_exec(
        query: impl Into<String>,
        source: StorageError,
        metrics: ExecutionMetrics,
    ) -> Self {
        BqoError {
            phase: QueryPhase::Execution,
            query: Some(query.into()),
            source,
            partial_metrics: Some(Box::new(metrics)),
        }
    }

    /// The phase the error originated in.
    pub fn phase(&self) -> QueryPhase {
        self.phase
    }

    /// The query the error belongs to, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The underlying storage-layer error.
    pub fn storage_error(&self) -> &StorageError {
        &self.source
    }

    /// Whether this error is a cooperative cancellation (explicit cancel or
    /// deadline expiry) of an in-flight query.
    pub fn is_cancelled(&self) -> bool {
        self.source == StorageError::Cancelled
    }

    /// What a failed run did before it stopped — any execution failure (an
    /// I/O error, a corrupt chunk, a cancel, a passed deadline) stops it at
    /// its next morsel claim: `Some` for every [`QueryPhase::Execution`]
    /// error, `None` for setup and planning errors.
    pub fn partial_metrics(&self) -> Option<&ExecutionMetrics> {
        self.partial_metrics.as_deref()
    }

    /// Moves the partial metrics, if any, out of the error.
    pub(crate) fn take_partial_metrics(&mut self) -> Option<ExecutionMetrics> {
        self.partial_metrics.take().map(|m| *m)
    }
}

impl fmt::Display for BqoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.query {
            Some(query) => write!(
                f,
                "{} query `{query}`: {}",
                self.phase.describe(),
                self.source
            ),
            None => write!(f, "{}: {}", self.phase.describe(), self.source),
        }
    }
}

impl std::error::Error for BqoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<StorageError> for BqoError {
    fn from(source: StorageError) -> Self {
        BqoError::setup(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_query_and_cause() {
        let e = BqoError::planning(
            "q7",
            StorageError::TableNotFound {
                table: "ghost".into(),
            },
        );
        let msg = e.to_string();
        assert!(msg.contains("while planning"), "{msg}");
        assert!(msg.contains("`q7`"), "{msg}");
        assert!(msg.contains("`ghost`"), "{msg}");
        assert_eq!(e.phase(), QueryPhase::Planning);
        assert_eq!(e.query(), Some("q7"));
    }

    #[test]
    fn setup_errors_have_no_query() {
        let e = BqoError::from(StorageError::InvalidArgument("bad".into()));
        assert_eq!(e.phase(), QueryPhase::Setup);
        assert_eq!(e.query(), None);
        assert!(e.to_string().contains("catalog"));
    }

    #[test]
    fn error_chain_exposes_the_storage_cause() {
        use std::error::Error;
        let e = BqoError::from_exec(
            "q",
            StorageError::InvalidArgument("x".into()),
            ExecutionMetrics::new(),
        );
        assert!(e.source().is_some());
        assert!(matches!(
            e.storage_error(),
            StorageError::InvalidArgument(_)
        ));
    }

    /// A cancelled and a failed run keep their metrics alike.
    #[test]
    fn from_exec_preserves_partial_metrics_on_cancellation() {
        let mut metrics = ExecutionMetrics::new();
        metrics.filters_created = 3;
        let mut e = BqoError::from_exec("q", StorageError::Cancelled, metrics.clone());
        assert!(e.is_cancelled());
        assert_eq!(e.storage_error(), &StorageError::Cancelled);
        assert_eq!(e.partial_metrics(), Some(&metrics));
        assert_eq!(e.take_partial_metrics(), Some(metrics.clone()));
        assert_eq!(e.partial_metrics(), None);

        let missing = StorageError::TableNotFound { table: "t".into() };
        let failed = BqoError::from_exec("q", missing, metrics.clone());
        assert!(!failed.is_cancelled());
        assert_eq!(failed.phase(), QueryPhase::Execution);
        assert_eq!(failed.partial_metrics(), Some(&metrics));
    }
}
