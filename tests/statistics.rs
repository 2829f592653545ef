//! Statistical validation of the sampling theory the paper builds on:
//! the Eq-2 standard error is empirically correct for our samplers, and
//! estimator variance scales as the theory predicts.

use congress::alloc::Senate;
use congress::bounds::standard_error_of_mean;
use congress::{CongressionalSample, GroupCensus, SeedSpec};
use engine::rewrite::{Integrated, SamplePlan};
use engine::{execute_exact, AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{ColumnId, DataType, Expr, RelationBuilder, Value};

/// One group of `n` values with a known spread; we sample it repeatedly
/// and compare the empirical standard error of the mean estimator against
/// Eq 2's prediction.
fn one_group_relation(n: usize, seed: u64) -> (relation::Relation, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("v", DataType::Float);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let v: f64 = rng.gen_range(0.0..100.0);
        values.push(v);
        b.push_row(&[Value::Int(0), Value::from(v)]).unwrap();
    }
    // Population S (the n−1 denominator form Eq 2 uses).
    let mean = values.iter().sum::<f64>() / n as f64;
    let ss: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    let s = (ss / (n as f64 - 1.0)).sqrt();
    (b.finish(), s)
}

#[test]
fn empirical_standard_error_matches_eq2() {
    let n = 2_000usize;
    let (rel, s) = one_group_relation(n, 42);
    let census = GroupCensus::build(&rel, &[ColumnId(0)]).unwrap();
    let q = GroupByQuery::new(
        vec![],
        vec![AggregateSpec::avg(Expr::col(ColumnId(1)), "a")],
    );
    let exact_mean = execute_exact(&rel, &q).unwrap().scalar().unwrap();

    for sample_size in [50usize, 200, 800] {
        let trials = 400u64;
        let mut sq_err = 0.0;
        for t in 0..trials {
            let spec = SeedSpec::new(10_000 + t);
            let sample =
                CongressionalSample::draw_par(&rel, &census, &Senate, sample_size as f64, &spec)
                    .unwrap();
            let input = sample.to_stratified_input(&rel).unwrap();
            let plan = Integrated::build(&input).unwrap();
            let est = plan.execute(&q).unwrap().scalar().unwrap();
            sq_err += (est - exact_mean) * (est - exact_mean) / trials as f64;
        }
        let empirical_se = sq_err.sqrt();
        let predicted = standard_error_of_mean(s, sample_size as u64, n as u64);
        let ratio = empirical_se / predicted;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "n={sample_size}: empirical SE {empirical_se:.4} vs Eq-2 {predicted:.4} (ratio {ratio:.3})"
        );
    }
}

#[test]
fn error_scales_inverse_sqrt_n() {
    // Quadrupling the sample should halve the error — the 1/√n law that
    // motivates "maximize the number of sample tuples" (§4.1).
    let (rel, _) = one_group_relation(4_000, 7);
    let census = GroupCensus::build(&rel, &[ColumnId(0)]).unwrap();
    let q = GroupByQuery::new(
        vec![],
        vec![AggregateSpec::avg(Expr::col(ColumnId(1)), "a")],
    );
    let exact_mean = execute_exact(&rel, &q).unwrap().scalar().unwrap();

    let se_at = |sample_size: usize| -> f64 {
        let trials = 300u64;
        let mut sq = 0.0;
        for t in 0..trials {
            let spec = SeedSpec::new(20_000 + t + sample_size as u64 * 1_000);
            let sample =
                CongressionalSample::draw_par(&rel, &census, &Senate, sample_size as f64, &spec)
                    .unwrap();
            let input = sample.to_stratified_input(&rel).unwrap();
            let plan = Integrated::build(&input).unwrap();
            let est = plan.execute(&q).unwrap().scalar().unwrap();
            sq += (est - exact_mean) * (est - exact_mean) / trials as f64;
        }
        sq.sqrt()
    };
    let se_small = se_at(100);
    let se_large = se_at(400);
    let ratio = se_small / se_large;
    assert!(
        (1.5..=2.8).contains(&ratio),
        "SE(100)/SE(400) = {ratio:.3}, expected ≈ 2 (slightly above, from the fpc)"
    );
}

#[test]
fn fully_sampled_relation_has_zero_error() {
    // The finite-population correction at n = N: sampling everything is
    // exact, every time.
    let (rel, _) = one_group_relation(500, 9);
    let census = GroupCensus::build(&rel, &[ColumnId(0)]).unwrap();
    let q = GroupByQuery::new(
        vec![],
        vec![
            AggregateSpec::sum(Expr::col(ColumnId(1)), "s"),
            AggregateSpec::avg(Expr::col(ColumnId(1)), "a"),
        ],
    );
    let exact = execute_exact(&rel, &q).unwrap();
    for seed in 0..5 {
        let sample =
            CongressionalSample::draw_par(&rel, &census, &Senate, 500.0, &SeedSpec::new(seed))
                .unwrap();
        let input = sample.to_stratified_input(&rel).unwrap();
        let plan = Integrated::build(&input).unwrap();
        let approx = plan.execute(&q).unwrap();
        for ((_, e), (_, a)) in exact.rows().iter().zip(approx.rows()) {
            for (x, y) in e.iter().zip(a) {
                assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()));
            }
        }
    }
}
