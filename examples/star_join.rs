//! Join synopses (§2): answering multi-table group-by queries from a
//! congressional sample over a pre-joined star schema.
//!
//! The paper handles multi-table warehouses by sampling the *result of the
//! foreign-key join* ("join synopses"), so that every join query becomes a
//! single-relation query on the synopsis. Here: `lineitem ⋈ orders`,
//! grouped by the orders-side `o_orderpriority` crossed with the
//! lineitem-side `l_returnflag` — a query no single-table sample could
//! answer.
//!
//! Run: `cargo run --release --example star_join`

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::compare_results;
use engine::{AggregateSpec, GroupByQuery};
use relation::Expr;
use tpcd::{GeneratorConfig, StarConfig, StarSchema};

fn main() {
    let star = StarSchema::generate(StarConfig {
        lineitem: GeneratorConfig {
            table_size: 200_000,
            num_groups: 27,
            group_skew: 1.2,
            agg_skew: 0.86,
            seed: 8,
        },
        orders: 20_000,
        priority_skew: 1.2, // URGENT orders are common, LOW is rare
    });

    println!(
        "star schema: {} lineitems ⋈ {} orders",
        star.lineitem.row_count(),
        star.orders.row_count()
    );

    // Materialize the join-synopsis base relation once (at synopsis-build
    // time, as Aqua does) ...
    let joined = star.join_relation().expect("FK integrity holds");
    let priority = joined.schema().column_id("o_orderpriority").unwrap();
    let returnflag = joined.schema().column_id("l_returnflag").unwrap();
    let revenue = joined.schema().column_id("l_extendedprice").unwrap();

    // ... and declare the cross-table grouping columns as the sample's G.
    let grouping = vec![priority, returnflag];
    let aqua = Aqua::build(
        joined,
        grouping.clone(),
        AquaConfig {
            space: 6_000, // 3% of the join
            strategy: SamplingStrategy::Congress,
            seed: 21,
            ..AquaConfig::default()
        },
    )
    .expect("synopsis over the join");

    // The multi-table query: revenue per (order priority, return flag).
    let q = GroupByQuery::new(
        grouping,
        vec![
            AggregateSpec::sum(Expr::col(revenue), "revenue"),
            AggregateSpec::count("lineitems"),
        ],
    );
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

    println!("\napproximate revenue by (priority, returnflag):\n{approx}");
    println!(
        "vs exact: mean error {:.2}%, worst group {:.2}%, missing groups {}",
        report.l1(),
        report.l_inf(),
        report.missing_groups
    );

    // Roll up to priority alone — same synopsis, coarser grouping.
    let rollup = GroupByQuery::new(
        vec![priority],
        vec![AggregateSpec::avg(Expr::col(revenue), "avg_revenue")],
    );
    let report = compare_results(
        &aqua
            .run(&Request {
                exact: true,
                ..Request::query(&rollup)
            })
            .unwrap()
            .answer
            .result
            .clone(),
        &aqua.answer(&rollup).unwrap().result,
        0,
        100.0,
    );
    println!(
        "roll-up to priority alone: mean error {:.2}% over {} priorities",
        report.l1(),
        report.group_count()
    );
}
