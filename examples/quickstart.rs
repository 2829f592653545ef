//! Quickstart: the paper's Figures 2–4 end to end.
//!
//! Builds a small TPC-D-style `lineitem` table, lets Aqua take a 1%
//! *uniform* (House) synopsis, and runs the simplified TPC-D Query 1:
//!
//! ```sql
//! SELECT l_returnflag, l_linestatus, SUM(l_quantity)
//! FROM lineitem WHERE l_shipdate <= <date>
//! GROUP BY l_returnflag, l_linestatus;
//! ```
//!
//! The smallest group's estimate is visibly worse — the limitation that
//! motivates the paper — and switching the synopsis to Congress fixes it.
//!
//! Run: `cargo run --release --example quickstart`

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::compare_results;
use engine::{AggregateSpec, GroupByQuery};
use relation::{Expr, Predicate, Value};
use tpcd::{GeneratorConfig, TpcdDataset};

fn main() {
    // One group is made ~35× smaller than the rest (the paper's N/F
    // anomaly in the TPC-D data) by using skewed group sizes.
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 200_000,
        num_groups: 10, // → 8 actual groups over 2×2×2 distinct values
        group_skew: 1.5,
        agg_skew: 0.86,
        seed: 1,
    });
    let grouping = ds.grouping_columns();

    // TPC-D Q1 (simplified): group by returnflag × linestatus with a
    // shipdate predicate.
    let median_date = Value::Date(11_000);
    let query = GroupByQuery::new(
        vec![ds.ids.l_returnflag, ds.ids.l_linestatus],
        vec![AggregateSpec::sum(
            Expr::col(ds.ids.l_quantity),
            "sum_l_quantity",
        )],
    )
    .with_predicate(Predicate::le(ds.ids.l_shipdate, median_date));

    for strategy in [SamplingStrategy::House, SamplingStrategy::Congress] {
        let aqua = Aqua::build(
            ds.relation.clone(),
            grouping.clone(),
            AquaConfig {
                space: 2_000, // 1% of the table
                strategy,
                ..AquaConfig::default()
            },
        )
        .expect("aqua builds over the generated table");

        let exact = aqua
            .run(&Request {
                exact: true,
                ..Request::query(&query)
            })
            .expect("exact execution")
            .answer
            .result
            .clone();
        let approx = aqua.answer(&query).expect("approximate answering");
        let report = compare_results(&exact, &approx.result, 0, 100.0);

        println!(
            "=== {} synopsis (1% of {} rows) ===",
            strategy.name(),
            aqua.table_rows()
        );
        println!("approximate answer with 90% bounds:\n{approx}");
        println!("exact answer:\n{exact}");
        println!(
            "per-group error: mean {:.2}%  worst {:.2}%  (missing groups: {})\n",
            report.l1(),
            report.l_inf(),
            report.missing_groups
        );
    }
    println!(
        "Note how the House sample's smallest groups carry the largest errors\n\
         (or vanish outright), while Congress keeps every group accurate —\n\
         the motivation and the contribution of the paper in one run."
    );
}
