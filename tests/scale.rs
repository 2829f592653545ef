//! Table-1 top-end scale tests (T = 6M, NG = 200K). Ignored by default —
//! run with `cargo test --release --test scale -- --ignored` (several GiB
//! of RAM and a few minutes).

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use congress::alloc::Congress;
use congress::{compare_results, CongressionalSample, GroupCensus};
use engine::execute_exact;
use engine::rewrite::{Integrated, SamplePlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcd::{q_g2, GeneratorConfig, TpcdDataset};

#[test]
#[ignore = "T = 6M rows; run explicitly with --ignored in release mode"]
fn six_million_rows_full_pipeline() {
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 6_000_000,
        num_groups: 1000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed: 6_000_000,
    });
    let census = GroupCensus::build(&ds.relation, &ds.grouping_columns()).unwrap();
    assert_eq!(census.total_rows(), 6_000_000);
    let mut rng = StdRng::seed_from_u64(1);
    let sample = CongressionalSample::draw(
        &ds.relation,
        &census,
        &Congress,
        420_000.0, // 7%
        &mut rng,
    )
    .unwrap();
    let input = sample.to_stratified_input(&ds.relation).unwrap();
    let plan = Integrated::build(&input).unwrap();
    let q = q_g2(&ds.ids);
    let exact = execute_exact(&ds.relation, &q).unwrap();
    let approx = plan.execute(&q).unwrap();
    let report = compare_results(&exact, &approx, 0, 100.0);
    assert_eq!(report.missing_groups, 0);
    assert!(
        report.l1() < 5.0,
        "mean error {}% at 7% of 6M rows",
        report.l1()
    );
}

#[test]
#[ignore = "NG = 200K groups; run explicitly with --ignored in release mode"]
fn two_hundred_thousand_groups_end_to_end() {
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 1_000_000,
        num_groups: 200_000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed: 200_000,
    });
    let aqua = Aqua::build(
        ds.relation.clone(),
        ds.grouping_columns(),
        AquaConfig {
            space: 300_000,
            strategy: SamplingStrategy::Congress,
            seed: 2,
            ..AquaConfig::default()
        },
    )
    .unwrap();
    let q = q_g2(&ds.ids);
    let ans = aqua.answer(&q).unwrap();
    let exact = aqua
        .run(&Request {
            exact: true,
            ..Request::query(&q)
        })
        .unwrap()
        .answer
        .result
        .clone();
    // Qg2 groups = (NG^(1/3))² ≈ 3364 — every one must be answered.
    assert_eq!(ans.result.group_count(), exact.group_count());
    let report = compare_results(&exact, &ans.result, 0, 100.0);
    assert_eq!(report.missing_groups, 0);
    assert!(report.l1() < 25.0, "mean error {}%", report.l1());
}
