#![warn(missing_docs)]

//! Aqua-style approximate query answering middleware (§2 of the paper).
//!
//! [`Aqua`] sits on top of a stored relation the way the original system
//! sat on top of Oracle: at setup time it builds a biased sample synopsis
//! (any §4 strategy, via the one-pass §6 maintainers), and at query time it
//! "rewrites" group-by queries against the synopsis — here, answers them
//! from the per-(group, stratum) moments all four §5 rewrites share, and
//! renders the configured rewrite's SQL — returning scaled estimates
//! *with probabilistic error bounds* at a configurable confidence level
//! (the `error1` column of Figure 4).
//!
//! Warehouse insertions stream through the same maintainer, keeping the
//! synopsis current **without accessing the stored relation** — the
//! property §6 is about.
//!
//! ```
//! use aqua::{Aqua, AquaConfig, SamplingStrategy};
//! use relation::{DataType, RelationBuilder, Value};
//! use engine::{AggregateSpec, GroupByQuery};
//! use relation::Expr;
//!
//! let mut b = RelationBuilder::new()
//!     .column("state", DataType::Str)
//!     .column("income", DataType::Float);
//! for i in 0..100i64 {
//!     let st = if i % 10 == 0 { "WY" } else { "CA" };
//!     b.push_row(&[Value::str(st), Value::from(1000.0 + i as f64)]).unwrap();
//! }
//! let rel = b.finish();
//! let grouping = rel.schema().column_ids(&["state"]).unwrap();
//!
//! let config = AquaConfig {
//!     space: 40,
//!     strategy: SamplingStrategy::Congress,
//!     ..AquaConfig::default()
//! };
//! let aqua = Aqua::build(rel, grouping, config).unwrap();
//! let q = GroupByQuery::new(
//!     aqua.grouping_columns().to_vec(),
//!     vec![AggregateSpec::avg(Expr::col(relation::ColumnId(1)), "avg_income")],
//! );
//! let answer = aqua.answer(&q).unwrap();
//! assert_eq!(answer.result.group_count(), 2); // both states present
//! ```

pub mod answer;
pub mod config;
pub mod error;
pub mod manifest;
pub mod serve_cache;
pub mod synopsis;
pub mod system;
pub mod warehouse;

pub use answer::{AnswerProvenance, ApproximateAnswer, GroupBounds};
pub use config::{AquaConfig, RewriteChoice, SamplingStrategy};
pub use error::{AquaError, Result};
pub use manifest::{Manifest, ManifestEntry};
pub use serve_cache::{AnswerCache, ServedAnswer};
pub use synopsis::{Generation, Synopsis};
pub use system::{Aqua, Query, Request, StatsSnapshot, TuneOptions, TuneReport};
pub use warehouse::{
    OpenReport, RecoveryPolicy, RelationReport, RelationStatus, SaveReport, VerifyReport, Warehouse,
};
