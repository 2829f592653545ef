//! Deterministic generator for the paper's modified TPC-D data (§7.1.1,
//! Table 1).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use relation::{Column, Relation};

use crate::lineitem::LineitemSchema;
use crate::zipf::{zipf_sizes, Zipf};

/// Table 1's experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Table size `T` (100K – 6M in the paper; default 1M).
    pub table_size: usize,
    /// Requested number of groups `NG` (10 – 200K; default 1000). Each
    /// grouping column gets `⌈NG^(1/3)⌉` distinct values, so the actual
    /// group count is the cube of that (the paper's construction).
    pub num_groups: usize,
    /// Group-size skew `z` (0 – 1.5; default 0.86).
    pub group_skew: f64,
    /// Aggregate-column skew (fixed at 0.86 in the paper).
    pub agg_skew: f64,
    /// RNG seed for reproducible datasets.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            table_size: 1_000_000,
            num_groups: 1000,
            group_skew: 0.86,
            agg_skew: 0.86,
            seed: 0x5151_AC00,
        }
    }
}

impl GeneratorConfig {
    /// Distinct values per grouping column: `⌈NG^(1/3)⌉`, at least 1.
    pub fn values_per_column(&self) -> usize {
        ((self.num_groups as f64).powf(1.0 / 3.0).round() as usize).max(1)
    }

    /// Actual group count (`values_per_column³`).
    pub fn actual_groups(&self) -> usize {
        let d = self.values_per_column();
        d * d * d
    }
}

/// A generated lineitem table plus its resolved schema and configuration.
#[derive(Debug, Clone)]
pub struct TpcdDataset {
    /// The generated relation, in randomly shuffled physical order.
    pub relation: Relation,
    /// Resolved column ids.
    pub ids: LineitemSchema,
    /// The configuration that produced it.
    pub config: GeneratorConfig,
    /// Group sizes actually materialized (indexed by internal group number).
    group_sizes: Vec<u64>,
}

impl TpcdDataset {
    /// Generate the dataset. Deterministic in `config.seed`.
    pub fn generate(config: GeneratorConfig) -> TpcdDataset {
        assert!(
            config.table_size >= config.actual_groups(),
            "table must hold at least one tuple per group"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let d = config.values_per_column();
        let groups = config.actual_groups();
        let t = config.table_size;

        // Zipf group sizes, assigned to groups in random order so that size
        // does not correlate with key structure.
        let mut sizes = zipf_sizes(groups, t as u64, config.group_skew);
        sizes.shuffle(&mut rng);

        // Distinct grouping values: small ints for returnflag/linestatus,
        // spread-out day numbers for shipdate (as in six years of dates).
        let shipdate_values: Vec<i32> = (0..d)
            .map(|i| 9_500 + (i as i32) * (2_190 / d.max(1) as i32 + 1))
            .collect();

        // Aggregate-value distributions (Zipf over realistic domains).
        let qty_dist = Zipf::new(50, config.agg_skew);
        let price_dist = Zipf::new(1000, config.agg_skew);

        // Materialize per-group rows, then shuffle physical order and
        // assign l_id sequentially so that an l_id range is a uniformly
        // random subset of groups (the paper's Q_{g0} workload needs this).
        let mut returnflag = Vec::with_capacity(t);
        let mut linestatus = Vec::with_capacity(t);
        let mut shipdate = Vec::with_capacity(t);
        let mut quantity = Vec::with_capacity(t);
        let mut price = Vec::with_capacity(t);
        for (g, &n) in sizes.iter().enumerate() {
            let rf = (g / (d * d)) as i64;
            let ls = ((g / d) % d) as i64;
            let sd = shipdate_values[g % d];
            for _ in 0..n {
                returnflag.push(rf);
                linestatus.push(ls);
                shipdate.push(sd);
                quantity.push(qty_dist.sample(&mut rng) as f64);
                price.push(price_dist.sample(&mut rng) as f64 * 100.0);
            }
        }
        let mut perm: Vec<usize> = (0..t).collect();
        perm.shuffle(&mut rng);

        let apply_i64 = |v: &[i64]| -> Vec<i64> { perm.iter().map(|&p| v[p]).collect() };
        let apply_i32 = |v: &[i32]| -> Vec<i32> { perm.iter().map(|&p| v[p]).collect() };
        let apply_f64 = |v: &[f64]| -> Vec<f64> { perm.iter().map(|&p| v[p]).collect() };

        let l_id: Vec<i64> = (1..=t as i64).collect();
        let relation = Relation::new(
            LineitemSchema::schema(),
            vec![
                Column::Int(l_id),
                Column::Int(apply_i64(&returnflag)),
                Column::Int(apply_i64(&linestatus)),
                Column::Date(apply_i32(&shipdate)),
                Column::Float(apply_f64(&quantity)),
                Column::Float(apply_f64(&price)),
            ],
        )
        .expect("generated columns match the lineitem schema");

        TpcdDataset {
            relation,
            ids: LineitemSchema::ids(),
            config,
            group_sizes: sizes,
        }
    }

    /// The grouping columns `G = {l_returnflag, l_linestatus, l_shipdate}`.
    pub fn grouping_columns(&self) -> Vec<relation::ColumnId> {
        self.ids.grouping_columns()
    }

    /// Group sizes as generated (before shuffling into physical order).
    pub fn group_sizes(&self) -> &[u64] {
        &self.group_sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::GroupIndex;

    fn small() -> GeneratorConfig {
        GeneratorConfig {
            table_size: 20_000,
            num_groups: 27,
            group_skew: 1.0,
            agg_skew: 0.86,
            seed: 42,
        }
    }

    #[test]
    fn config_group_math() {
        let c = GeneratorConfig {
            num_groups: 1000,
            ..GeneratorConfig::default()
        };
        assert_eq!(c.values_per_column(), 10);
        assert_eq!(c.actual_groups(), 1000);
        let c = GeneratorConfig {
            num_groups: 10,
            ..GeneratorConfig::default()
        };
        assert_eq!(c.values_per_column(), 2);
        assert_eq!(c.actual_groups(), 8);
    }

    #[test]
    fn generates_requested_shape() {
        let ds = TpcdDataset::generate(small());
        assert_eq!(ds.relation.row_count(), 20_000);
        assert_eq!(ds.relation.schema().width(), 6);
        assert_eq!(ds.group_sizes().len(), 27);
        assert_eq!(ds.group_sizes().iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn grouping_columns_form_expected_groups() {
        let ds = TpcdDataset::generate(small());
        let ix = GroupIndex::build(&ds.relation, &ds.grouping_columns());
        assert_eq!(ix.group_count(), 27);
        let mut observed: Vec<u64> = ix.group_sizes().into_iter().map(|s| s as u64).collect();
        observed.sort_unstable();
        let mut expected = ds.group_sizes().to_vec();
        expected.sort_unstable();
        assert_eq!(observed, expected);
    }

    #[test]
    fn lid_is_sequential_primary_key() {
        let ds = TpcdDataset::generate(small());
        let ids = ds.relation.column(ds.ids.l_id).as_int().unwrap();
        assert_eq!(ids[0], 1);
        assert_eq!(ids[19_999], 20_000);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn lid_ranges_are_group_uniform() {
        // A contiguous l_id range should hit groups roughly in proportion
        // to their sizes — the property Q_{g0} depends on.
        let ds = TpcdDataset::generate(GeneratorConfig {
            table_size: 50_000,
            num_groups: 8,
            group_skew: 1.0,
            ..small()
        });
        let ix = GroupIndex::build(&ds.relation, &ds.grouping_columns());
        let sizes = ix.group_sizes();
        // first 10% of physical rows
        let mut in_range = vec![0usize; ix.group_count()];
        for r in 0..5_000 {
            in_range[ix.group_of(r) as usize] += 1;
        }
        for g in 0..ix.group_count() {
            let expect = sizes[g] as f64 * 0.1;
            assert!(
                (in_range[g] as f64 - expect).abs() < expect * 0.25 + 10.0,
                "group {g}: {} vs {expect}",
                in_range[g]
            );
        }
    }

    #[test]
    fn skew_shows_up_in_group_sizes() {
        let skewed = TpcdDataset::generate(GeneratorConfig {
            group_skew: 1.5,
            ..small()
        });
        let flat = TpcdDataset::generate(GeneratorConfig {
            group_skew: 0.0,
            ..small()
        });
        let max_skew = *skewed.group_sizes().iter().max().unwrap();
        let max_flat = *flat.group_sizes().iter().max().unwrap();
        assert!(max_skew > max_flat * 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpcdDataset::generate(small());
        let b = TpcdDataset::generate(small());
        let qa = a.relation.column(a.ids.l_quantity).as_float().unwrap();
        let qb = b.relation.column(b.ids.l_quantity).as_float().unwrap();
        assert_eq!(qa, qb);
        let c = TpcdDataset::generate(GeneratorConfig {
            seed: 43,
            ..small()
        });
        let qc = c.relation.column(c.ids.l_quantity).as_float().unwrap();
        assert_ne!(qa, qc);
    }

    #[test]
    fn aggregate_values_in_domain() {
        let ds = TpcdDataset::generate(small());
        let q = ds.relation.column(ds.ids.l_quantity).as_float().unwrap();
        assert!(q.iter().all(|&v| (1.0..=50.0).contains(&v)));
        let p = ds
            .relation
            .column(ds.ids.l_extendedprice)
            .as_float()
            .unwrap();
        assert!(p.iter().all(|&v| (100.0..=100_000.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "at least one tuple per group")]
    fn rejects_infeasible_config() {
        let _ = TpcdDataset::generate(GeneratorConfig {
            table_size: 10,
            num_groups: 1000,
            ..small()
        });
    }
}
