//! §8 "Generalization to Other Queries": recency-biased sampling.
//!
//! "If a sample of the sales data were used to analyze the impact of a
//! recent sales promotion, the sample would be more effective if the most
//! recent sales data were better represented ... replacing the values in
//! the grouping columns by distinct ranges (in this case on dates) and
//! deriving the weight vectors that weigh the ranges appropriately."
//!
//! Six years of sales; the analyst cares about the last two quarters. A
//! recency-weighted congressional sample concentrates its budget there,
//! cutting recent-window error severalfold vs. a uniform sample of the
//! same size, at the cost of noisier whole-history aggregates.
//!
//! Run: `cargo run --release --example aging_warehouse`

use congress::alloc::{House, RangeBias, WorkloadWeighted};
use congress::{compare_results, CongressionalSample, GroupCensus, SeedSpec};
use engine::rewrite::{Integrated, SamplePlan};
use engine::{execute_exact, AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{DataType, Expr, Predicate, RelationBuilder, Value};

fn main() {
    // Six years of daily sales, one row per transaction.
    let mut rng = StdRng::seed_from_u64(2026);
    let mut b = RelationBuilder::new()
        .column("day", DataType::Date)
        .column("amount", DataType::Float);
    for day in 0..(6 * 365) {
        let n = rng.gen_range(20..60);
        for _ in 0..n {
            b.push_row(&[Value::Date(day), Value::from(rng.gen_range(5.0..500.0))])
                .unwrap();
        }
    }
    let rel = b.finish();
    let day = rel.schema().column_id("day").unwrap();
    let amount = rel.schema().column_id("amount").unwrap();
    println!("sales table: {} transactions over 6 years", rel.row_count());

    // Quarters as range buckets, decaying by 0.85 per quarter into the past.
    let boundaries: Vec<f64> = (1..24).map(|q| (q * 91) as f64).collect();
    let bias = RangeBias::recency(day, boundaries, 0.85).expect("valid bias");
    let (field, col) = bias.bucket_column(&rel, "quarter").expect("numeric column");
    let rel = rel.with_columns(vec![(field, col)]).expect("append bucket");
    let quarter = rel.schema().column_id("quarter").unwrap();

    // Stratify on the quarter bucket; weight buckets by recency.
    let census = GroupCensus::build(&rel, &[quarter]).expect("census");
    let strategy = WorkloadWeighted::new(vec![bias.grouping_preference(0)]).expect("preferences");
    let space = rel.row_count() as f64 * 0.01; // 1% budget
    let spec = SeedSpec::new(2026);

    let recent_window = Predicate::ge(day, Value::Date(6 * 365 - 182)); // last 2 quarters
    let q_recent = GroupByQuery::new(
        vec![quarter],
        vec![AggregateSpec::avg(Expr::col(amount), "avg_sale")],
    )
    .with_predicate(recent_window);
    let q_history = GroupByQuery::new(vec![], vec![AggregateSpec::sum(Expr::col(amount), "total")]);

    for (label, sample) in [
        (
            "uniform (House)",
            CongressionalSample::draw_par(&rel, &census, &House, space, &spec).unwrap(),
        ),
        (
            "recency-weighted (§8)",
            CongressionalSample::draw_par(&rel, &census, &strategy, space, &spec).unwrap(),
        ),
    ] {
        let input = sample.to_stratified_input(&rel).unwrap();
        let plan = Integrated::build(&input).unwrap();

        let exact = execute_exact(&rel, &q_recent).unwrap();
        let approx = plan.execute(&q_recent).unwrap();
        let recent = compare_results(&exact, &approx, 0, 100.0);

        let exact_total = execute_exact(&rel, &q_history).unwrap().scalar().unwrap();
        let est_total = plan.execute(&q_history).unwrap().scalar().unwrap();
        let hist_err = ((est_total - exact_total) / exact_total).abs() * 100.0;

        println!("\n{label}: {} sampled tuples", sample.total_sampled());
        println!(
            "  recent-quarter AVG errors: mean {:.2}%  worst {:.2}%",
            recent.l1(),
            recent.l_inf()
        );
        println!("  whole-history SUM error: {hist_err:.2}%");
    }
    println!(
        "\nThe recency-weighted sample concentrates its 1% budget where the\n\
         analyst actually queries, cutting recent-window error severalfold.\n\
         The price is paid exactly where the paper says it is: whole-history\n\
         aggregates are scaled up from sparser old strata and get noisier —\n\
         the decay factor is the knob trading recency against history."
    );
}
