//! Roll-up / drill-down (§1.2, §4.6): ONE congressional sample serves an
//! analyst walking the whole grouping lattice — the workload group-by
//! queries are "an essential part of the common drill-down and roll-up
//! processes".
//!
//! The analyst starts from the grand total, drills into returnflag, then
//! returnflag × linestatus, then the finest grouping, and rolls back up.
//! Each level reports its error against the exact answer, for a Congress
//! sample vs a House sample of the same size.
//!
//! Run: `cargo run --release --example rollup_drilldown`

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::compare_results;
use engine::{AggregateSpec, GroupByQuery};
use relation::{ColumnId, Expr};
use tpcd::{GeneratorConfig, TpcdDataset};

fn main() {
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 300_000,
        num_groups: 216, // 6 distinct values per grouping column
        group_skew: 1.2,
        agg_skew: 0.86,
        seed: 99,
    });
    let grouping = ds.grouping_columns();
    let quantity = ds.ids.l_quantity;

    // The drill-down path through the lattice.
    let path: Vec<(&str, Vec<ColumnId>)> = vec![
        ("∅ (grand total)", vec![]),
        ("{returnflag}", vec![ds.ids.l_returnflag]),
        (
            "{returnflag, linestatus}",
            vec![ds.ids.l_returnflag, ds.ids.l_linestatus],
        ),
        ("{returnflag, linestatus, shipdate}", grouping.clone()),
    ];

    println!(
        "lineitem: {} rows, {} finest groups, skew z=1.2; synopsis budget 3%\n",
        ds.relation.row_count(),
        216
    );
    println!(
        "{:38} | {:>14} | {:>14}",
        "grouping (drill-down ↓, roll-up ↑)", "House err %", "Congress err %"
    );

    let systems: Vec<(SamplingStrategy, Aqua)> =
        [SamplingStrategy::House, SamplingStrategy::Congress]
            .into_iter()
            .map(|strategy| {
                let aqua = Aqua::build(
                    ds.relation.clone(),
                    grouping.clone(),
                    AquaConfig {
                        space: 9_000,
                        strategy,
                        seed: 3,
                        ..AquaConfig::default()
                    },
                )
                .expect("aqua builds");
                (strategy, aqua)
            })
            .collect();

    for (label, cols) in &path {
        let q = GroupByQuery::new(
            cols.clone(),
            vec![AggregateSpec::sum(Expr::col(quantity), "sum_qty")],
        );
        let mut errs = Vec::new();
        for (_, aqua) in &systems {
            let exact = aqua
                .run(&Request {
                    exact: true,
                    ..Request::query(&q)
                })
                .unwrap()
                .answer
                .result
                .clone();
            let approx = aqua.answer(&q).unwrap();
            let report = compare_results(&exact, &approx.result, 0, 100.0);
            errs.push(report.l1());
        }
        println!("{label:38} | {:14.3} | {:14.3}", errs[0], errs[1]);
    }

    println!(
        "\nHouse is fine at the top of the lattice but degrades toward the finest\n\
         grouping; Congress stays accurate at every level — the Figure 14–16\n\
         story compressed into one drill-down session."
    );
}
