//! Incremental maintenance (§6): the synopsis stays accurate as the
//! warehouse grows, *without re-reading the stored relation*.
//!
//! A warehouse starts with two quarters of sales, then receives monthly
//! batches — including a brand-new product line (a new group). After each
//! batch, queries keep working and the new group appears in answers, all
//! through the one-pass maintainers.
//!
//! Run: `cargo run --release --example warehouse_maintenance`

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::compare_results;
use engine::{AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{ColumnId, DataType, Expr, RelationBuilder, Value};

fn sales_rows(rng: &mut StdRng, products: &[&str], regions: &[&str], n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            let p = products[rng.gen_range(0..products.len())];
            let r = regions[rng.gen_range(0..regions.len())];
            let amount = rng.gen_range(10.0..500.0);
            vec![Value::str(p), Value::str(r), Value::from(amount)]
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2000);
    let regions = ["east", "west", "north", "south"];

    // Initial load: two established product lines.
    let mut b = RelationBuilder::new()
        .column("product", DataType::Str)
        .column("region", DataType::Str)
        .column("amount", DataType::Float);
    for row in sales_rows(&mut rng, &["widgets", "gears"], &regions, 50_000) {
        b.push_row(&row).unwrap();
    }
    let initial = b.finish();
    let grouping = initial.schema().column_ids(&["product", "region"]).unwrap();
    let amount = initial.schema().column_id("amount").unwrap();

    let aqua = Aqua::build(
        initial,
        grouping,
        AquaConfig {
            space: 2_000,
            strategy: SamplingStrategy::Congress,
            seed: 11,
            ..AquaConfig::default()
        },
    )
    .expect("initial build");

    let by_product = GroupByQuery::new(
        vec![ColumnId(0)],
        vec![
            AggregateSpec::sum(Expr::col(amount), "revenue"),
            AggregateSpec::count("sales"),
        ],
    );

    println!(
        "initial warehouse: {} rows, synopsis {} tuples",
        aqua.table_rows(),
        aqua.synopsis_rows()
    );
    let report = compare_results(
        &aqua
            .run(&Request {
                exact: true,
                ..Request::query(&by_product)
            })
            .unwrap()
            .answer
            .result
            .clone(),
        &aqua.answer(&by_product).unwrap().result,
        0,
        100.0,
    );
    println!("revenue-by-product mean error: {:.2}%\n", report.l1());

    // Monthly batches; month 3 launches a new product line ("sprockets").
    for month in 1..=6 {
        let products: Vec<&str> = if month >= 3 {
            vec!["widgets", "gears", "sprockets"]
        } else {
            vec!["widgets", "gears"]
        };
        let batch = sales_rows(&mut rng, &products, &regions, 10_000);
        aqua.insert_batch(&batch).expect("insert batch");

        let approx = aqua.answer(&by_product).expect("answer after insert");
        let exact = aqua
            .run(&Request {
                exact: true,
                ..Request::query(&by_product)
            })
            .unwrap()
            .answer
            .result
            .clone();
        let report = compare_results(&exact, &approx.result, 0, 100.0);
        let sprockets = approx
            .result
            .get(&relation::GroupKey::new(vec![Value::str("sprockets")]))
            .map(|v| v[0]);
        println!(
            "month {month}: {} rows stored, synopsis {} tuples, mean err {:.2}%, sprockets revenue est: {}",
            aqua.table_rows(),
            aqua.synopsis_rows(),
            report.l1(),
            sprockets.map_or("(not launched)".into(), |v| format!("{v:.0}")),
        );
        assert_eq!(
            report.missing_groups, 0,
            "every product group must stay answerable after maintenance"
        );
    }
    println!(
        "\nThe synopsis tracked six months of insertions — including a brand-new\n\
         group — without ever rescanning the stored relation (§6)."
    );
}
