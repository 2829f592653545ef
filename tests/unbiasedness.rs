//! Statistical integration tests: the stratified estimators of §5.1 are
//! unbiased (SUM/COUNT exactly; AVG asymptotically), and the error bounds
//! of the Aqua layer actually cover the truth at their confidence level.

use aqua::{Aqua, AquaConfig, RewriteChoice, SamplingStrategy};
use congress::alloc::Congress;
use congress::{CongressionalSample, SeedSpec};
use engine::rewrite::{Integrated, SamplePlan};
use engine::{execute_exact, AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relation::{Expr, GroupKey};
use tpcd::{GeneratorConfig, TpcdDataset};

fn dataset() -> TpcdDataset {
    TpcdDataset::generate(GeneratorConfig {
        table_size: 20_000,
        num_groups: 27,
        group_skew: 1.0,
        agg_skew: 0.86,
        seed: 2_718,
    })
}

#[test]
fn sum_and_count_estimators_are_unbiased() {
    let ds = dataset();
    let cols = ds.grouping_columns();
    let census = congress::GroupCensus::build(&ds.relation, &cols).unwrap();
    let q = GroupByQuery::new(
        vec![ds.ids.l_returnflag],
        vec![
            AggregateSpec::sum(Expr::col(ds.ids.l_quantity), "s"),
            AggregateSpec::count("c"),
        ],
    );
    let exact = execute_exact(&ds.relation, &q).unwrap();

    let trials = 60u64;
    let mut sums: std::collections::HashMap<GroupKey, (f64, f64)> = Default::default();
    for t in 0..trials {
        let spec = SeedSpec::new(3_000 + t);
        let sample =
            CongressionalSample::draw_par(&ds.relation, &census, &Congress, 1_500.0, &spec)
                .unwrap();
        let input = sample.to_stratified_input(&ds.relation).unwrap();
        let plan = Integrated::build(&input).unwrap();
        let approx = plan.execute(&q).unwrap();
        for (key, vals) in approx.iter() {
            let e = sums.entry(key.clone()).or_insert((0.0, 0.0));
            e.0 += vals[0] / trials as f64;
            e.1 += vals[1] / trials as f64;
        }
    }
    for (key, evals) in exact.iter() {
        let (mean_sum, mean_count) = sums[key];
        assert!(
            (mean_sum - evals[0]).abs() < evals[0] * 0.03,
            "SUM bias at {key}: {mean_sum} vs {}",
            evals[0]
        );
        assert!(
            (mean_count - evals[1]).abs() < evals[1] * 0.03,
            "COUNT bias at {key}: {mean_count} vs {}",
            evals[1]
        );
    }
}

#[test]
fn avg_estimator_converges() {
    let ds = dataset();
    let cols = ds.grouping_columns();
    let census = congress::GroupCensus::build(&ds.relation, &cols).unwrap();
    let q = GroupByQuery::new(
        vec![ds.ids.l_linestatus],
        vec![AggregateSpec::avg(Expr::col(ds.ids.l_quantity), "a")],
    );
    let exact = execute_exact(&ds.relation, &q).unwrap();
    let trials = 40u64;
    let mut means: std::collections::HashMap<GroupKey, f64> = Default::default();
    for t in 0..trials {
        let spec = SeedSpec::new(4_000 + t);
        let sample =
            CongressionalSample::draw_par(&ds.relation, &census, &Congress, 2_000.0, &spec)
                .unwrap();
        let input = sample.to_stratified_input(&ds.relation).unwrap();
        let plan = Integrated::build(&input).unwrap();
        let approx = plan.execute(&q).unwrap();
        for (key, vals) in approx.iter() {
            *means.entry(key.clone()).or_insert(0.0) += vals[0] / trials as f64;
        }
    }
    for (key, evals) in exact.iter() {
        let got = means[key];
        assert!(
            (got - evals[0]).abs() < evals[0] * 0.05,
            "AVG drift at {key}: {got} vs {}",
            evals[0]
        );
    }
}

#[test]
fn chebyshev_bounds_cover_truth_at_least_at_confidence() {
    // Chebyshev is conservative, so coverage should comfortably exceed
    // the nominal 90%.
    let ds = dataset();
    let q = GroupByQuery::new(
        vec![ds.ids.l_returnflag],
        vec![AggregateSpec::sum(Expr::col(ds.ids.l_quantity), "s")],
    );
    let exact = execute_exact(&ds.relation, &q).unwrap();

    let trials = 30u64;
    let mut covered = 0u64;
    let mut total = 0u64;
    for t in 0..trials {
        let aqua = Aqua::build(
            ds.relation.clone(),
            ds.grouping_columns(),
            AquaConfig {
                space: 1_500,
                strategy: SamplingStrategy::Congress,
                rewrite: RewriteChoice::Integrated,
                confidence: 0.9,
                seed: 5_000 + t,
                parallelism: 0,
            },
        )
        .unwrap();
        let ans = aqua.answer(&q).unwrap();
        for (key, evals) in exact.iter() {
            let Some(est) = ans.result.get(key) else {
                continue;
            };
            let Some(gb) = ans.bounds_for(key) else {
                continue;
            };
            let Some(bound) = gb.bounds[0] else { continue };
            total += 1;
            if (est[0] - evals[0]).abs() <= bound.half_width {
                covered += 1;
            }
        }
    }
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage >= 0.9,
        "90%-confidence bounds covered only {:.1}% of cases",
        coverage * 100.0
    );
}

#[test]
fn per_stratum_scaling_beats_subsampling_to_common_rate() {
    // §5.1 argues the stratified estimator is superior to down-sampling
    // every stratum to the lowest common rate. Emulate the latter and
    // compare mean absolute errors over trials.
    let ds = dataset();
    let cols = ds.grouping_columns();
    let census = congress::GroupCensus::build(&ds.relation, &cols).unwrap();
    let q = GroupByQuery::new(
        vec![],
        vec![AggregateSpec::sum(Expr::col(ds.ids.l_quantity), "s")],
    );
    let exact = execute_exact(&ds.relation, &q).unwrap().scalar().unwrap();

    let trials = 30u64;
    let (mut err_strat, mut err_common) = (0.0, 0.0);
    for t in 0..trials {
        let spec = SeedSpec::new(6_000 + t);
        let sample =
            CongressionalSample::draw_par(&ds.relation, &census, &Congress, 1_500.0, &spec)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(6_000 + t);
        let input = sample.to_stratified_input(&ds.relation).unwrap();
        // Stratified estimate.
        let plan = Integrated::build(&input).unwrap();
        let est = plan.execute(&q).unwrap().scalar().unwrap();
        err_strat += (est - exact).abs() / trials as f64;

        // Common-rate emulation: subsample every stratum to the minimum
        // rate, then scale uniformly.
        let min_rate = input
            .scale_factors
            .iter()
            .map(|sf| 1.0 / sf)
            .fold(f64::INFINITY, f64::min);
        use rand::Rng as _;
        let mut kept_sum = 0.0;
        for (row, &s) in input.stratum_of_row.iter().enumerate() {
            let rate = 1.0 / input.scale_factors[s as usize];
            let keep_p = min_rate / rate;
            if rng.gen::<f64>() < keep_p {
                kept_sum += input.rows.column(ds.ids.l_quantity).value_f64(row).unwrap();
            }
        }
        let est_common = kept_sum / min_rate;
        err_common += (est_common - exact).abs() / trials as f64;
    }
    assert!(
        err_strat < err_common,
        "stratified error {err_strat} should beat common-rate error {err_common}"
    );
}
