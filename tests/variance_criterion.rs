//! §8 multi-criteria ablation: adding the per-group variance weight vector
//! improves accuracy when within-group spreads differ wildly — "the use of
//! the variance of values within the group can be expected to further
//! improve the sample accuracy".

use congress::alloc::criteria::{MultiCriteria, WeightVector};
use congress::alloc::{AllocationStrategy, Senate};
use congress::{compare_results, CongressionalSample, GroupCensus, SeedSpec};
use engine::rewrite::{Integrated, SamplePlan};
use engine::{execute_exact, AggregateSpec, GroupByQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{ColumnId, DataType, Expr, RelationBuilder};

/// Equal-sized groups with drastically different value spreads: the
/// paper's motivating case for the variance criterion (§8) — "consider two
/// groups of the same size. The first has values that are reasonably
/// uniform while the other has values with a very high variance."
fn table() -> relation::Relation {
    let mut rng = StdRng::seed_from_u64(808);
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("v", DataType::Float);
    for g in 0..8i64 {
        // Groups 0–3: near-constant values. Groups 4–7: huge spread.
        let spread = if g < 4 { 1.0 } else { 500.0 };
        for _ in 0..4_000 {
            let v = 1_000.0 + rng.gen_range(-spread..spread);
            b.push_row(&[relation::Value::Int(g), relation::Value::from(v)])
                .unwrap();
        }
    }
    b.finish()
}

#[test]
fn variance_criterion_beats_plain_senate_under_heteroscedasticity() {
    let rel = table();
    let census = GroupCensus::build(&rel, &[ColumnId(0)]).unwrap();
    let v = rel.schema().column_id("v").unwrap();
    let q = GroupByQuery::new(
        vec![ColumnId(0)],
        vec![AggregateSpec::avg(Expr::col(v), "a")],
    );
    let exact = execute_exact(&rel, &q).unwrap();
    let space = 800.0;

    // Variance-aware per Figure 19: the variance criterion is an
    // ADDITIONAL weight vector alongside Senate — the framework takes the
    // per-group maximum, so low-variance groups keep their equal-space
    // floor while high-variance groups get extra budget. (A pure variance
    // vector alone would starve the near-constant groups to zero samples
    // and lose them from answers entirely.)
    let var_vec = WeightVector::variance(&census, &rel, &Expr::col(v)).unwrap();
    let aware = MultiCriteria::new(vec![WeightVector::senate(&census), var_vec]).unwrap();

    let trials = 25u64;
    let (mut err_senate, mut err_aware) = (0.0, 0.0);
    for t in 0..trials {
        let spec = SeedSpec::new(9_000 + t);
        for (strategy, err) in [
            (&Senate as &dyn AllocationStrategy, &mut err_senate),
            (&aware as &dyn AllocationStrategy, &mut err_aware),
        ] {
            let sample =
                CongressionalSample::draw_par(&rel, &census, strategy, space, &spec).unwrap();
            let input = sample.to_stratified_input(&rel).unwrap();
            let plan = Integrated::build(&input).unwrap();
            let approx = plan.execute(&q).unwrap();
            *err += compare_results(&exact, &approx, 0, 100.0).l2() / trials as f64;
        }
    }
    assert!(
        err_aware < err_senate,
        "variance-aware L2 {err_aware} must beat equal-space {err_senate} \
         when spreads differ 500:1"
    );
}

#[test]
fn variance_criterion_harmless_under_homoscedasticity() {
    // When all groups share the same spread, the variance vector reduces
    // to (near-)equal weights — no pathological reallocation.
    let mut rng = StdRng::seed_from_u64(811);
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("v", DataType::Float);
    for g in 0..6i64 {
        for _ in 0..2_000 {
            b.push_row(&[
                relation::Value::Int(g),
                relation::Value::from(rng.gen_range(0.0..100.0)),
            ])
            .unwrap();
        }
    }
    let rel = b.finish();
    let census = GroupCensus::build(&rel, &[ColumnId(0)]).unwrap();
    let v = rel.schema().column_id("v").unwrap();
    let vec = WeightVector::variance(&census, &rel, &Expr::col(v)).unwrap();
    let total: f64 = vec.weights.iter().sum();
    for &w in &vec.weights {
        let share = w / total;
        assert!(
            (share - 1.0 / 6.0).abs() < 0.02,
            "homoscedastic groups should get ~equal variance weight, got {share}"
        );
    }
}
