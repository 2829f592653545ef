//! Integration: the four rewrite strategies are algebraically equivalent
//! (§5.1 — they compute the same unbiased stratified estimate), and a 100%
//! "sample" reproduces exact answers bit-for-bit in expectation terms.

use aqua::{RewriteChoice, SamplingStrategy};
use congress::alloc::Senate;
use congress::{CongressionalSample, SeedSpec};
use engine::rewrite::{Integrated, KeyNormalized, NestedIntegrated, Normalized, SamplePlan};
use engine::{execute_exact, AggregateSpec, GroupByQuery};
use relation::{Expr, Predicate};
use tpcd::{q_g0, q_g2, q_g3, GeneratorConfig, TpcdDataset};

fn dataset() -> TpcdDataset {
    TpcdDataset::generate(GeneratorConfig {
        table_size: 20_000,
        num_groups: 27,
        group_skew: 1.2,
        agg_skew: 0.86,
        seed: 31,
    })
}

fn plans(ds: &TpcdDataset, space: f64) -> Vec<Box<dyn SamplePlan>> {
    let census = congress::GroupCensus::build(&ds.relation, &ds.grouping_columns()).unwrap();
    let sample =
        CongressionalSample::draw_par(&ds.relation, &census, &Senate, space, &SeedSpec::new(5))
            .unwrap();
    let input = sample.to_stratified_input(&ds.relation).unwrap();
    vec![
        Box::new(Integrated::build(&input).unwrap()),
        Box::new(NestedIntegrated::build(&input).unwrap()),
        Box::new(Normalized::build(&input).unwrap()),
        Box::new(KeyNormalized::build(&input).unwrap()),
    ]
}

fn assert_results_close(a: &engine::QueryResult, b: &engine::QueryResult, tag: &str, tol: f64) {
    assert_eq!(a.group_count(), b.group_count(), "{tag}: group counts");
    for ((k1, v1), (k2, v2)) in a.rows().iter().zip(b.rows()) {
        assert_eq!(k1, k2, "{tag}: keys");
        for (x, y) in v1.iter().zip(v2) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{tag}: {x} vs {y} at {k1}"
            );
        }
    }
}

#[test]
fn all_rewrites_agree_on_tpcd_queries() {
    let ds = dataset();
    let plans = plans(&ds, 2_000.0);
    let queries = vec![
        q_g2(&ds.ids),
        q_g3(&ds.ids),
        q_g0(&ds.ids, 500, 1_400),
        // AVG + predicate + coarse grouping, to stress the nested plan.
        GroupByQuery::new(
            vec![ds.ids.l_returnflag],
            vec![
                AggregateSpec::avg(Expr::col(ds.ids.l_quantity), "a"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::ge(ds.ids.l_quantity, 3.0)),
    ];
    for q in &queries {
        let reference = plans[0].execute(q).unwrap();
        for p in &plans[1..] {
            let r = p.execute(q).unwrap();
            assert_results_close(&r, &reference, p.name(), 1e-9);
        }
    }
}

#[test]
fn full_sample_reproduces_exact_answers() {
    let ds = dataset();
    // Space = table size → every group fully sampled, SF = 1 everywhere.
    let plans = plans(&ds, ds.relation.row_count() as f64);
    for q in [q_g2(&ds.ids), q_g3(&ds.ids), q_g0(&ds.ids, 100, 5_000)] {
        let exact = execute_exact(&ds.relation, &q).unwrap();
        for p in &plans {
            let approx = p.execute(&q).unwrap();
            assert_results_close(&approx, &exact, p.name(), 1e-9);
        }
    }
}

#[test]
fn aqua_end_to_end_matches_direct_plan() {
    // The middleware path (maintainer + synopsis) must produce results
    // with the same *shape* as direct construction: same groups, sane
    // estimates for every rewrite choice.
    let ds = dataset();
    let exact = execute_exact(&ds.relation, &q_g2(&ds.ids)).unwrap();
    for rewrite in RewriteChoice::all() {
        let aqua = aqua::Aqua::build(
            ds.relation.clone(),
            ds.grouping_columns(),
            aqua::AquaConfig {
                space: 2_000,
                strategy: SamplingStrategy::Senate,
                rewrite,
                confidence: 0.9,
                seed: 17,
                parallelism: 0,
            },
        )
        .unwrap();
        let ans = aqua.answer(&q_g2(&ds.ids)).unwrap();
        assert_eq!(
            ans.result.group_count(),
            exact.group_count(),
            "{}: all groups must appear",
            rewrite.name()
        );
        let report = congress::compare_results(&exact, &ans.result, 0, 100.0);
        assert!(
            report.l1() < 25.0,
            "{}: mean error {}%",
            rewrite.name(),
            report.l1()
        );
        assert_eq!(report.spurious_groups, 0);
    }
}

#[test]
fn min_max_estimates_are_bounded_by_exact() {
    // MIN from a sample can only be ≥ exact MIN; MAX only ≤ exact MAX.
    let ds = dataset();
    let plans = plans(&ds, 1_000.0);
    let q = GroupByQuery::new(
        vec![ds.ids.l_returnflag],
        vec![
            AggregateSpec::min(Expr::col(ds.ids.l_extendedprice), "mn"),
            AggregateSpec::max(Expr::col(ds.ids.l_extendedprice), "mx"),
        ],
    );
    let exact = execute_exact(&ds.relation, &q).unwrap();
    for p in &plans {
        let approx = p.execute(&q).unwrap();
        for (key, vals) in approx.iter() {
            let evals = exact.get(key).unwrap();
            assert!(
                vals[0] >= evals[0] - 1e-9,
                "{}: sampled MIN below exact",
                p.name()
            );
            assert!(
                vals[1] <= evals[1] + 1e-9,
                "{}: sampled MAX above exact",
                p.name()
            );
        }
    }
}
