//! The serving abstraction the HTTP layer talks to.
//!
//! [`QueryBackend`] is the whole surface the reactor needs: answer SQL
//! (cooperatively cancellable), snapshot metrics, flush durable state.
//! [`Aqua`] (one relation) and [`Warehouse`] (many) implement it for
//! production; tests implement it with mocks — a deliberately *blocking*
//! backend is how the load-shed path is exercised without timing games.

use std::sync::Arc;

use aqua::{Aqua, AquaError, Request, ServedAnswer, Warehouse};
use engine::{CancelToken, EngineError};

/// Why a query could not be answered, split by who is at fault: a
/// [`BadRequest`](BackendError::BadRequest) maps to HTTP 4xx (malformed
/// SQL, unknown relation/column), a [`Timeout`](BackendError::Timeout) to
/// 504 (the query was fine but its deadline expired mid-scan), an
/// [`Internal`](BackendError::Internal) to 500.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The request is at fault; the message is safe to echo to the client.
    BadRequest(String),
    /// The query's deadline expired (or drain force-cancelled it) while it
    /// was executing. Retryable — ideally with a longer deadline.
    Timeout(String),
    /// The server is at fault.
    Internal(String),
}

impl BackendError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            BackendError::BadRequest(_) => 400,
            BackendError::Timeout(_) => 504,
            BackendError::Internal(_) => 500,
        }
    }

    /// The client-visible message.
    pub fn message(&self) -> &str {
        match self {
            BackendError::BadRequest(m) | BackendError::Timeout(m) | BackendError::Internal(m) => m,
        }
    }
}

fn classify(e: AquaError) -> BackendError {
    match e {
        // A cancelled scan is a deadline expiry, not a bad query — match
        // this BEFORE the generic Engine→BadRequest arm.
        AquaError::Engine(EngineError::Cancelled) => BackendError::Timeout(e.to_string()),
        // Parse errors, unknown columns, unsupported shapes: the query is
        // at fault.
        AquaError::Engine(_) | AquaError::Relation(_) => BackendError::BadRequest(e.to_string()),
        _ => BackendError::Internal(e.to_string()),
    }
}

/// What the HTTP front end requires of a query answering system.
pub trait QueryBackend: Send + Sync + 'static {
    /// Answer `sql` against `relation` (`None` means the backend's
    /// default). Runs on a worker thread; blocking here blocks one worker,
    /// not the reactor. Implementations should poll `cancel` at scan-chunk
    /// granularity and return a [`Timeout`](BackendError::Timeout)-class
    /// error once it fires.
    fn answer_sql(
        &self,
        relation: Option<&str>,
        sql: &str,
        cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError>;

    /// Point-in-time metrics snapshot (rendered as JSON by `/stats` and
    /// Prometheus text by `/metrics`).
    fn stats(&self) -> obs::Snapshot;

    /// Persist durable state (called once during graceful drain, after
    /// the last in-flight query finishes). The default is a no-op: both
    /// production backends write their WAL synchronously on mutation, so
    /// there is nothing buffered to lose.
    fn flush(&self) -> Result<(), String> {
        Ok(())
    }
}

impl QueryBackend for Aqua {
    fn answer_sql(
        &self,
        relation: Option<&str>,
        sql: &str,
        cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError> {
        // A single-relation backend: any relation name is "the" relation.
        let _ = relation;
        self.run(&Request {
            cancel: Some(cancel),
            ..Request::sql(sql)
        })
        .map_err(classify)
    }

    fn stats(&self) -> obs::Snapshot {
        self.stats()
    }
}

impl QueryBackend for Warehouse {
    fn answer_sql(
        &self,
        relation: Option<&str>,
        sql: &str,
        cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError> {
        let name = match relation {
            Some(n) => n,
            None => {
                return Err(BackendError::BadRequest(
                    "a warehouse backend requires a \"relation\" field".into(),
                ))
            }
        };
        let request = Request {
            cancel: Some(cancel),
            ..Request::sql(sql)
        };
        let answer = self.system(name).and_then(|aqua| aqua.run(&request));
        answer.map_err(|e| match e {
            // `Warehouse::system` reports unknown relations as
            // InvalidConfig — from the API's point of view that's the
            // client's mistake.
            AquaError::InvalidConfig(m) if m.starts_with("unknown relation") => {
                BackendError::BadRequest(m)
            }
            other => classify(other),
        })
    }

    fn stats(&self) -> obs::Snapshot {
        self.stats()
    }
}
