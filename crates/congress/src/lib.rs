#![warn(missing_docs)]

//! Congressional samples: biased sampling for approximate group-by answers.
//!
//! This crate implements the core contribution of *"Congressional Samples
//! for Approximate Answering of Group-By Queries"* (Acharya, Gibbons,
//! Poosala — SIGMOD 2000):
//!
//! * **Census** ([`census::GroupCensus`]) — the per-group counts `n_g` at
//!   the finest grouping `G` and, for every `T ⊆ G`, the super-group
//!   structure (`m_T`, `n_h`) that the allocation formulas need. This is
//!   the "data cube of the counts of each group in all possible groupings"
//!   of §6.
//! * **Allocation strategies** (§4) — [`alloc::House`], [`alloc::Senate`],
//!   [`alloc::BasicCongress`], [`alloc::Congress`], the workload-weighted
//!   variant of §4.7 ([`alloc::WorkloadWeighted`]), and the §8
//!   multi-criteria weight-vector framework ([`alloc::criteria`]).
//! * **Strategies** ([`SamplingStrategy`]) — the four §4 strategies as one
//!   value, naming each one's allocator and how its sample is scaled.
//! * **Sampling & construction** (§6) — the census route draws each
//!   group's quota from its own seeded stream
//!   ([`sample::CongressionalSample::draw_par`]), or takes one shared
//!   Bernoulli pass at the Eq-8 probabilities
//!   ([`build::construct_congress_shared`]); the one-pass route streams
//!   the rows through [`build::Maintainer`], one maintainer per strategy:
//!   House and Senate reservoirs ([`build::HouseMaintainer`],
//!   [`build::SenateMaintainer`]), Basic Congress with its Theorem 6.1
//!   delta-sample merge ([`build::BasicCongressMaintainer::absorb`]), and
//!   the bounded-memory Eq-8 probabilistic-eviction maintainer for
//!   Congress ([`build::CongressEvictionMaintainer`]).
//! * **Adaptive allocation** ([`adaptive`]) — a closed loop from observed
//!   workload to allocation: [`adaptive::WorkloadProfile`] accumulates
//!   per-grouping hit frequencies, predicate selectivities and per-group
//!   measure moments ([`engine::Moments`]); [`adaptive::recompute_weights`]
//!   turns a profile into §4.7 workload-weighted + §8 variance-based weight
//!   vectors; and [`adaptive::DriftDetector`] decides when the
//!   observed-vs-allocated divergence justifies a reallocation.
//! * **Estimation & bounds** — conversion of a sample into the engine's
//!   [`engine::StratifiedInput`] ([`sample::CongressionalSample`]),
//!   plus standard-error / Hoeffding / Chebyshev error bounds
//!   ([`bounds`]) matching Eq 2 and the Aqua error-bound machinery, read
//!   off the per-(group, stratum) [`engine::Moments`] the served answers
//!   are estimated from.
//! * **Error metrics** ([`metrics`]) — the ε∞ / εL1 / εL2 group-by error
//!   norms of Definition 3.1, used by every accuracy experiment.
//! * **Parallel construction** — census building
//!   ([`census::GroupCensus::par_build`]), allocation lattice walks, and
//!   per-stratum draws ([`sample::CongressionalSample::draw_par`]) run
//!   across threads, with a deterministic-seeding layer ([`seed::SeedSpec`])
//!   deriving one RNG stream per finest group so the constructed sample is
//!   bit-for-bit identical at any thread count.
//! * **Durable persistence** — a checksummed snapshot encoding
//!   ([`snapshot`]: the [`relation::binio`] section container base tables
//!   use too), and the storage contract the
//!   warehouse recovers through ([`store`]): atomic filesystem writes
//!   ([`store::FsStore`]) and deterministic fault injection
//!   ([`store::FaultyStore`]) so every crash and corruption scenario is
//!   exercised in-tree.

pub mod adaptive;
pub mod alloc;
pub mod bounds;
pub mod build;
pub mod census;
pub mod error;
pub mod lattice;
pub mod metrics;
pub mod sample;
pub mod seed;
pub mod snapshot;
pub mod store;
pub mod strategy;

pub use adaptive::{DriftDetector, DriftReport, WorkloadProfile};
pub use alloc::{Allocation, AllocationStrategy, BasicCongress, Congress, House, Senate};
pub use census::GroupCensus;
pub use error::{CongressError, Result};
pub use metrics::{compare_results, mac_error, GroupByErrorReport};
pub use sample::CongressionalSample;
pub use seed::SeedSpec;
pub use store::{Fault, FaultyStore, FsStore, MemStore, SnapshotStore, StoreError, StoreResult};
pub use strategy::SamplingStrategy;
