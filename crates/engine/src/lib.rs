#![warn(missing_docs)]

//! Group-by aggregate query engine and sample rewriting strategies.
//!
//! This crate is the execution substrate the paper's Aqua middleware relied
//! on its back-end DBMS (Oracle v7) for. It provides:
//!
//! * a typed group-by query description ([`GroupByQuery`]),
//! * an exact hash-aggregation executor ([`execute_exact`]),
//! * the *group index* ([`grouping::GroupIndex`]) shared by execution,
//!   sampling, and census construction,
//! * a hash join used by the Normalized rewrite family, and
//! * the paper's four query-rewriting strategies (§5.2) as physical plans
//!   over a stratified sample: [`rewrite::Integrated`],
//!   [`rewrite::NestedIntegrated`], [`rewrite::Normalized`], and
//!   [`rewrite::KeyNormalized`].
//!
//! All four strategies compute the same unbiased stratified estimate
//! (§5.1); they differ — as in the paper — in *how* the per-stratum
//! ScaleFactor reaches the aggregation operator, and therefore in cost.

pub mod aggregate;
pub mod cache;
pub mod cancel;
pub mod error;
pub mod exec;
pub mod grouping;
pub mod join;
pub mod plan_cache;
pub mod query;
pub mod result;
pub mod rewrite;
pub mod sql;
pub mod stratified;

pub use aggregate::{AggregateFn, AggregateSpec, Partial};
pub use cache::{
    CacheStats, CacheStatsDetail, CellLayout, ExecOptions, ExecTrace, KindStats, MeasureSummary,
    QueryCache, Selection, ServedFrom, StratumCell, StratumLayout, StratumSummary,
};
pub use cancel::CancelToken;
pub use error::{EngineError, Result};
pub use exec::{execute_exact, execute_exact_encoded, execute_exact_opts};
pub use grouping::GroupIndex;
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheStats};
pub use query::{GroupByQuery, Having};
pub use result::QueryResult;
pub use rewrite::{Integrated, KeyNormalized, NestedIntegrated, Normalized, SamplePlan};
pub use stratified::StratifiedInput;
