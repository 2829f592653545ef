//! The paper's running example (§1.1): per-state aggregates over a census
//! database where California has ~70× Wyoming's population.
//!
//! A marketing analyst asks for average income per (state, gender). With a
//! uniform sample, small states get almost no sample tuples and their
//! estimates are unusable; a congressional sample guarantees every
//! (state), (gender), and (state, gender) group a fair share of the
//! sample — whichever grouping the analyst ends up asking for.
//!
//! Run: `cargo run --release --example census_analysis`

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::compare_results;
use engine::{AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{DataType, Expr, RelationBuilder, Value};

/// States with wildly different populations (shrunk from real scale).
const STATES: &[(&str, usize)] = &[
    ("CA", 70_000),
    ("TX", 52_000),
    ("NY", 38_000),
    ("CO", 10_000),
    ("MT", 2_100),
    ("WY", 1_000),
];

fn build_census_table() -> relation::Relation {
    let mut rng = StdRng::seed_from_u64(1848);
    let mut b = RelationBuilder::new()
        .column("st", DataType::Str)
        .column("gen", DataType::Str)
        .column("sal", DataType::Float);
    for (state, pop) in STATES {
        // Give each state its own income level so errors are easy to see.
        let base = 30_000.0 + (state.as_bytes()[0] as f64) * 400.0;
        for i in 0..*pop {
            let gen = if i % 2 == 0 { "m" } else { "f" };
            let noise: f64 = rng.gen_range(-0.4..0.4);
            b.push_row(&[
                Value::str(*state),
                Value::str(gen),
                Value::from(base * (1.0 + noise)),
            ])
            .expect("row matches schema");
        }
    }
    b.finish()
}

fn main() {
    let table = build_census_table();
    let grouping = table.schema().column_ids(&["st", "gen"]).unwrap();
    let sal = table.schema().column_id("sal").unwrap();
    let st = grouping[0];

    // The analyst's query: average income per state.
    let per_state = GroupByQuery::new(
        vec![st],
        vec![
            AggregateSpec::avg(Expr::col(sal), "avg_income"),
            AggregateSpec::count("population_est"),
        ],
    );

    println!(
        "census table: {} people, states CA..WY with {}x population spread\n",
        table.row_count(),
        STATES[0].1 / STATES.last().unwrap().1
    );

    for strategy in [SamplingStrategy::House, SamplingStrategy::Congress] {
        let aqua = Aqua::build(
            table.clone(),
            grouping.clone(),
            AquaConfig {
                space: 1_500, // <1% of the table
                strategy,
                seed: 7,
                ..AquaConfig::default()
            },
        )
        .expect("aqua builds");

        let exact = aqua
            .run(&Request {
                exact: true,
                ..Request::query(&per_state)
            })
            .unwrap()
            .answer
            .result
            .clone();
        let approx = aqua.answer(&per_state).unwrap();
        let report = compare_results(&exact, &approx.result, 0, 100.0);

        println!(
            "=== {} sample, {} tuples ===",
            strategy.name(),
            aqua.synopsis_rows()
        );
        println!("state | est avg income | exact | error %");
        for (key, exact_vals) in exact.iter() {
            let est = approx.result.get(key).map(|v| v[0]);
            match est {
                Some(est) => println!(
                    "{key} | {est:9.0} | {:9.0} | {:.2}%",
                    exact_vals[0],
                    (est - exact_vals[0]).abs() / exact_vals[0] * 100.0
                ),
                None => println!("{key} | MISSING FROM ANSWER | {:9.0} | –", exact_vals[0]),
            }
        }
        println!(
            "mean error {:.2}%, worst state {:.2}%\n",
            report.l1(),
            report.l_inf()
        );
    }

    // Congress also covers the *other* groupings with the same sample.
    let aqua = Aqua::build(
        table.clone(),
        grouping.clone(),
        AquaConfig {
            space: 1_500,
            strategy: SamplingStrategy::Congress,
            seed: 7,
            ..AquaConfig::default()
        },
    )
    .unwrap();
    for (label, cols) in [
        ("no grouping (national avg)", vec![]),
        ("by gender", vec![grouping[1]]),
        ("by state × gender", grouping.clone()),
    ] {
        let q = GroupByQuery::new(cols, vec![AggregateSpec::avg(Expr::col(sal), "avg_income")]);
        let report = compare_results(
            &aqua
                .run(&Request {
                    exact: true,
                    ..Request::query(&q)
                })
                .unwrap()
                .answer
                .result
                .clone(),
            &aqua.answer(&q).unwrap().result,
            0,
            100.0,
        );
        println!(
            "Congress sample, {label:28}: mean err {:.2}% over {} group(s)",
            report.l1(),
            report.group_count()
        );
    }
}
