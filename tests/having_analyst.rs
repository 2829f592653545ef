//! The §1.1 marketing-analyst scenario end to end: "identify all states
//! with per capita incomes above some value". The answer is only useful if
//! small states' estimates are reliable — so with a HAVING threshold, a
//! House sample misclassifies small groups far more often than Congress.

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use engine::{AggregateSpec, GroupByQuery, Having};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::predicate::CmpOp;
use relation::{ColumnId, DataType, Expr, RelationBuilder, Value};
use std::collections::BTreeSet;

/// States with 100:1 population spread; half are "rich" (income centered
/// above the analyst's threshold), half "poor".
fn census_table() -> relation::Relation {
    let mut rng = StdRng::seed_from_u64(1850);
    let mut b = RelationBuilder::new()
        .column("st", DataType::Str)
        .column("sal", DataType::Float);
    let states: [(&str, usize, f64); 8] = [
        ("CA", 40_000, 62_000.0),
        ("TX", 30_000, 48_000.0),
        ("NY", 20_000, 64_000.0),
        ("FL", 15_000, 47_000.0),
        ("VT", 900, 61_000.0),
        ("AK", 700, 66_000.0),
        ("WY", 500, 46_000.0),
        ("DC", 400, 71_000.0),
    ];
    for (st, pop, mean) in states {
        for _ in 0..pop {
            let sal = mean * rng.gen_range(0.85..1.15);
            b.push_row(&[Value::str(st), Value::from(sal)]).unwrap();
        }
    }
    b.finish()
}

fn rich_states(aqua: &Aqua, query: &GroupByQuery, exact: bool) -> BTreeSet<String> {
    let result = if exact {
        aqua.run(&Request {
            exact: true,
            ..Request::query(query)
        })
        .unwrap()
        .answer
        .result
        .clone()
    } else {
        aqua.answer(query).unwrap().result
    };
    result
        .iter()
        .map(|(k, _)| k.values()[0].to_string())
        .collect()
}

#[test]
fn congress_classifies_states_correctly_where_house_errs() {
    let table = census_table();
    let grouping = vec![ColumnId(0)];
    let sal = ColumnId(1);
    // The analyst's threshold sits between the rich and poor clusters.
    let query = GroupByQuery::new(
        grouping.clone(),
        vec![AggregateSpec::avg(Expr::col(sal), "avg_income")],
    )
    .with_having(Having::new("avg_income", CmpOp::Ge, 55_000.0));

    let mut house_mistakes = 0usize;
    let mut congress_mistakes = 0usize;
    let trials = 10u64;
    for seed in 0..trials {
        for (strategy, mistakes) in [
            (SamplingStrategy::House, &mut house_mistakes),
            (SamplingStrategy::Congress, &mut congress_mistakes),
        ] {
            let aqua = Aqua::build(
                table.clone(),
                grouping.clone(),
                AquaConfig {
                    space: 800, // < 1% of ~107K rows
                    strategy,
                    seed,
                    ..AquaConfig::default()
                },
            )
            .unwrap();
            let truth = rich_states(&aqua, &query, true);
            let approx = rich_states(&aqua, &query, false);
            *mistakes += truth.symmetric_difference(&approx).count();
        }
    }
    // Congress must classify at least as reliably as House overall, and
    // get it (almost) always right: the rich/poor gap is ~25%, far wider
    // than Congress's per-state error at this budget.
    assert!(
        congress_mistakes <= house_mistakes,
        "congress {congress_mistakes} vs house {house_mistakes} misclassifications"
    );
    assert!(
        congress_mistakes <= trials as usize,
        "congress misclassified too often: {congress_mistakes}"
    );
}

#[test]
fn having_applies_to_scaled_estimates_not_raw_sample_sums() {
    // A SUM threshold that only the *scaled* estimate can cross: raw
    // sample sums are ~100× smaller. If HAVING ran before scaling, every
    // group would be filtered out.
    let table = census_table();
    let aqua = Aqua::build(
        table,
        vec![ColumnId(0)],
        AquaConfig {
            space: 1_000,
            strategy: SamplingStrategy::Congress,
            seed: 5,
            ..AquaConfig::default()
        },
    )
    .unwrap();
    let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("pop")])
        .with_having(Having::new("pop", CmpOp::Ge, 10_000.0));
    let ans = aqua.answer(&q).unwrap();
    // Exactly the four big states should survive the population filter.
    let keep: BTreeSet<String> = ans
        .result
        .iter()
        .map(|(k, _)| k.values()[0].to_string())
        .collect();
    let expect: BTreeSet<String> = ["CA", "TX", "NY", "FL"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(keep, expect);
}
