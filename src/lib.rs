//! Umbrella crate re-exporting the workspace's public API, used by the
//! root-level examples and integration tests.
//!
//! The whole pipeline — data, census, congressional sample, approximate
//! SQL with bounds — in a dozen lines:
//!
//! ```
//! use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
//! use relation::{parse_csv, CsvOptions};
//!
//! let table = parse_csv(
//!     "state,income\nCA,52000\nCA,53000\nCA,51000\nCA,54000\nWY,48000\nWY,47000\n",
//!     &CsvOptions::default(),
//! ).unwrap();
//! let grouping = table.schema().column_ids(&["state"]).unwrap();
//!
//! let aqua = Aqua::build(table, grouping, AquaConfig {
//!     space: 4,
//!     strategy: SamplingStrategy::Congress,
//!     seed: 1,
//!     ..AquaConfig::default()
//! }).unwrap();
//!
//! let sql = "SELECT state, AVG(income) AS a FROM census GROUP BY state";
//! let served = aqua.run(&Request::sql(sql)).unwrap();
//! assert_eq!(served.answer.result.group_count(), 2); // WY survives the sampling
//! assert!(served.rewritten.contains("SF"));          // the Figure-8/11 rewrite
//! ```

pub use aqua;
pub use congress;
pub use engine;
pub use relation;
pub use tpcd;
