//! Everything the program is fed: the generated table, the SQL texts and
//! the ingest batches. All of it is a pure function of `--seed` and the
//! scale, so two runs with the same seed do exactly the same work.

use std::collections::HashSet;

use aqua::{AquaConfig, RewriteChoice, SamplingStrategy};
use relation::{Relation, Value};
use tpcd::{GeneratorConfig, TpcdDataset};

/// Seed used when `--seed` is not given (the paper's presentation date).
pub const DEFAULT_SEED: u64 = 20_000_516;
/// Rows per ingest batch.
pub const BATCH_ROWS: usize = 2_000;
/// Number of fixed dashboard texts; also the number of cold operations
/// that count as set-up.
pub const DASH_QUERIES: usize = 16;

/// SplitMix64: a small seeded generator, enough for query constants.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`label`) under the run's seed.
    pub fn new(seed: u64, label: u64) -> Rng {
        Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`. The modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Table size and how far the operation counts are cut down.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub rows: usize,
    /// Operation counts are divided by this (1 for a real run).
    pub ops_div: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 1_000_000,
        ops_div: 1,
    };
    /// `--quick`: checks outputs and the metric schema; timings are not
    /// comparable with a full run.
    pub const QUICK: Scale = Scale {
        rows: 50_000,
        ops_div: 20,
    };

    /// Synopsis budget: 5% of the table.
    pub fn space(&self) -> usize {
        self.rows / 20
    }
}

pub fn generate(seed: u64, scale: Scale) -> TpcdDataset {
    TpcdDataset::generate(GeneratorConfig {
        table_size: scale.rows,
        num_groups: 1000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed,
    })
}

pub fn aqua_config(seed: u64, scale: Scale) -> AquaConfig {
    AquaConfig {
        space: scale.space(),
        strategy: SamplingStrategy::Congress,
        rewrite: RewriteChoice::Integrated,
        confidence: 0.9,
        seed,
        parallelism: 1,
    }
}

/// The 16 dashboard texts: `Q_g2`, `Q_g3`, and 14 group-bys over one or two
/// grouping columns, each with a predicate on a grouping column so that the
/// synopsis answers it from its per-group summaries. Every grouping column
/// has 10 distinct values, so the answers hold 3 to 1000 groups.
///
/// The texts are fixed: they do not depend on the seed, so every seed asks
/// for the same number of groups and the same bytes of answer (seeded
/// constants moved `dash_http/qps` by ±12% from one seed to the next).
pub fn dashboard_sqls(data: &TpcdDataset) -> Vec<String> {
    // The generator's ship dates, ascending; they depend on the number of
    // groups only. A constant is the value of a given rank.
    let mut dates: Vec<i32> = data
        .relation
        .column(data.ids.l_shipdate)
        .as_date()
        .expect("l_shipdate is a date column")
        .to_vec();
    dates.sort_unstable();
    dates.dedup();
    assert_eq!(dates.len(), 10, "1000 groups give 10 values a column");

    let mut sqls = vec![
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
         SUM(l_extendedprice) AS sum_price FROM lineitem \
         GROUP BY l_returnflag, l_linestatus"
            .to_string(),
        "SELECT l_returnflag, l_linestatus, l_shipdate, SUM(l_quantity) AS sum_qty \
         FROM lineitem GROUP BY l_returnflag, l_linestatus, l_shipdate"
            .to_string(),
    ];
    let aggregates = [
        "SUM(l_quantity) AS sum_qty",
        "SUM(l_extendedprice) AS sum_price, COUNT(*) AS n",
        "AVG(l_extendedprice) AS avg_price",
        "SUM(l_extendedprice * (1 - 0.05)) AS revenue, AVG(l_quantity) AS avg_qty",
        "COUNT(*) AS n",
    ];
    let groupings = [
        "l_returnflag",
        "l_linestatus",
        "l_shipdate",
        "l_returnflag, l_linestatus",
        "l_returnflag, l_shipdate",
        "l_linestatus, l_shipdate",
        "l_linestatus, l_returnflag",
    ];
    for i in 0..DASH_QUERIES - 2 {
        let grouping = groupings[i % groupings.len()];
        let aggregate = aggregates[i % aggregates.len()];
        // The predicate is on the first grouping column and keeps 3 to 10
        // of its 10 values: `<= rank` for even texts, `>= 9 - rank` for odd.
        let column = grouping.split(',').next().expect("non-empty grouping");
        let rank = 2 + (3 * i) % 8;
        let (op, rank) = if i % 2 == 0 {
            ("<=", rank)
        } else {
            (">=", 9 - rank)
        };
        let constant = if column == "l_shipdate" {
            i64::from(dates[rank])
        } else {
            rank as i64
        };
        sqls.push(format!(
            "SELECT {grouping}, {aggregate} FROM lineitem \
             WHERE {column} {op} {constant} GROUP BY {grouping}"
        ));
    }
    sqls
}

/// `n` never-repeating range queries: `l_id BETWEEN s AND s + w` with `w`
/// between 5% and 50% of the table, grouped by two columns.
pub fn adhoc_sqls(seed: u64, rows: usize, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 2);
    let rows = rows as u64;
    let mut seen = HashSet::with_capacity(n);
    let mut sqls = Vec::with_capacity(n);
    while sqls.len() < n {
        let w = rng.range(rows / 20, rows / 2);
        let s = rng.range(1, rows - w);
        if !seen.insert((s, w)) {
            continue;
        }
        sqls.push(format!(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n \
             FROM lineitem WHERE l_id BETWEEN {s} AND {} \
             GROUP BY l_returnflag, l_linestatus",
            s + w
        ));
    }
    sqls
}

/// One exact-scan query: an `l_id` band of a tenth of the table and a floor
/// on `l_quantity`, grouped by two columns. Kept as a struct because the
/// naive reference evaluator needs the constants.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    pub lo: i64,
    pub hi: i64,
    pub min_quantity: f64,
    pub sql: String,
}

/// `n` distinct exact-scan queries of equal band width, so their cost is
/// homogeneous and the 95th percentile sits inside the one mode.
pub fn scan_queries(seed: u64, rows: usize, n: usize) -> Vec<ScanQuery> {
    let mut rng = Rng::new(seed, 3);
    let rows = rows as u64;
    let band = rows / 10;
    let mut seen = HashSet::with_capacity(n);
    let mut queries = Vec::with_capacity(n);
    while queries.len() < n {
        let lo = rng.range(1, rows - band);
        let min_quantity = rng.range(2, 4);
        if !seen.insert((lo, min_quantity)) {
            continue;
        }
        let hi = lo + band;
        queries.push(ScanQuery {
            lo: lo as i64,
            hi: hi as i64,
            min_quantity: min_quantity as f64,
            sql: format!(
                "SELECT l_returnflag, l_shipdate, SUM(l_extendedprice) AS sum_price, \
                 AVG(l_quantity) AS avg_qty, COUNT(*) AS n FROM lineitem \
                 WHERE l_id BETWEEN {lo} AND {hi} AND l_quantity >= {min_quantity} \
                 GROUP BY l_returnflag, l_shipdate"
            ),
        });
    }
    queries
}

/// Ingest batch number `index`: rows copied from seeded positions of the
/// generated table (so no new group appears) under fresh `l_id`s that
/// continue the key sequence.
pub fn ingest_batch(seed: u64, base: &Relation, index: usize) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(seed, 1000 + index as u64);
    let rows = base.row_count();
    (0..BATCH_ROWS)
        .map(|i| {
            let source = rng.range(0, rows as u64 - 1) as usize;
            let mut row = base.row(source).expect("source row is in range");
            row[0] = Value::Int((rows + index * BATCH_ROWS + i + 1) as i64);
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(adhoc_sqls(7, 50_000, 20), adhoc_sqls(7, 50_000, 20));
        assert_ne!(adhoc_sqls(7, 50_000, 20), adhoc_sqls(8, 50_000, 20));
        let a: Vec<String> = scan_queries(7, 50_000, 20)
            .into_iter()
            .map(|q| q.sql)
            .collect();
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn dashboard_texts_parse_and_keep_three_groups_or_more() {
        let data = generate(11, Scale::QUICK);
        let sqls = dashboard_sqls(&data);
        assert_eq!(sqls, dashboard_sqls(&generate(12, Scale::QUICK)));
        assert_eq!(sqls.len(), DASH_QUERIES);
        for sql in &sqls {
            let query = engine::sql::parse(data.relation.schema(), sql).expect(sql);
            let groups = engine::execute_exact(&data.relation, &query)
                .expect(sql)
                .group_count();
            assert!((3..=1000).contains(&groups), "{groups} groups: {sql}");
        }
    }

    #[test]
    fn ingest_batches_continue_the_key_sequence() {
        let data = generate(5, Scale::QUICK);
        let first = ingest_batch(5, &data.relation, 0);
        let second = ingest_batch(5, &data.relation, 1);
        assert_eq!(first.len(), BATCH_ROWS);
        assert_eq!(first[0][0], Value::Int(50_001));
        assert_eq!(second[0][0], Value::Int(50_001 + BATCH_ROWS as i64));
        assert_eq!(first, ingest_batch(5, &data.relation, 0));
    }
}
