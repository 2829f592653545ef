//! Integration: §6 one-pass construction and incremental maintenance
//! produce samples statistically equivalent to census-based construction,
//! and keep answering correctly as the data drifts.

use congress::alloc::{AllocationStrategy, Congress, Senate};
use congress::build::{
    construct_one_pass, BasicCongressMaintainer, CongressEvictionMaintainer, IncrementalMaintainer,
    SenateMaintainer,
};
use congress::{GroupCensus, SamplingStrategy};
use engine::rewrite::{Integrated, SamplePlan};
use engine::{execute_exact, GroupByQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relation::GroupKey;
use tpcd::{q_g3, GeneratorConfig, TpcdDataset};

fn dataset(seed: u64) -> TpcdDataset {
    TpcdDataset::generate(GeneratorConfig {
        table_size: 30_000,
        num_groups: 27,
        group_skew: 1.2,
        agg_skew: 0.86,
        seed,
    })
}

#[test]
fn one_pass_senate_matches_census_allocation() {
    let ds = dataset(61);
    let cols = ds.grouping_columns();
    let census = GroupCensus::build(&ds.relation, &cols).unwrap();
    let space = 2_700usize;

    let mut rng = StdRng::seed_from_u64(1);
    let one_pass = construct_one_pass(
        &ds.relation,
        &cols,
        SamplingStrategy::Senate,
        space,
        &mut rng,
    )
    .unwrap();
    let alloc = Senate.allocate(&census, space as f64).unwrap();
    let target_counts = alloc.integer_counts(census.sizes());

    // Match strata by key and compare counts (both should be X/m, capped).
    let total_target: usize = target_counts.iter().sum();
    assert!((one_pass.total_sampled() as i64 - total_target as i64).abs() <= 27);
    for (g, key) in census.keys().iter().enumerate() {
        let op = one_pass
            .strata_keys()
            .iter()
            .position(|k| k == key)
            .expect("one-pass saw every group");
        let got = one_pass.sampled_rows()[op].len();
        assert!(
            (got as i64 - target_counts[g] as i64).abs() <= 1,
            "group {key}: one-pass {got} vs census {}",
            target_counts[g]
        );
    }
}

#[test]
fn one_pass_congress_tracks_eq5_targets_in_expectation() {
    let ds = dataset(62);
    let cols = ds.grouping_columns();
    let census = GroupCensus::build(&ds.relation, &cols).unwrap();
    let space = 2_100.0;
    let alloc = Congress.allocate(&census, space).unwrap();

    let trials = 12u64;
    let mut avg: std::collections::HashMap<GroupKey, f64> = std::collections::HashMap::new();
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(100 + t);
        let s = construct_one_pass(
            &ds.relation,
            &cols,
            SamplingStrategy::Congress,
            space as usize,
            &mut rng,
        )
        .unwrap();
        for (g, key) in s.strata_keys().iter().enumerate() {
            *avg.entry(key.clone()).or_insert(0.0) +=
                s.sampled_rows()[g].len() as f64 / trials as f64;
        }
    }
    // Compare only the larger strata (small ones are noisy at 12 trials).
    for (g, key) in census.keys().iter().enumerate() {
        let target = alloc.targets()[g];
        if target < 30.0 {
            continue;
        }
        let got = avg.get(key).copied().unwrap_or(0.0);
        assert!(
            (got - target).abs() < target * 0.35,
            "group {key}: one-pass avg {got} vs Eq-5 target {target}"
        );
    }
}

#[test]
fn maintainers_survive_distribution_drift() {
    // Stream phase 1 (3 groups), then phase 2 doubles the data with 3 NEW
    // groups; the samples must cover all 6 groups afterwards.
    let mut rng = StdRng::seed_from_u64(77);
    let key = |v: i64| GroupKey::new(vec![relation::Value::Int(v)]);

    let mut senate = SenateMaintainer::new(120);
    let mut basic = BasicCongressMaintainer::new(120);
    let mut congress = CongressEvictionMaintainer::new(1, 120.0);

    let mut row = 0usize;
    for phase in 0..2 {
        for i in 0..6_000usize {
            let g = (i % 3) as i64 + phase * 3;
            senate.insert(row, &key(g), &mut rng);
            basic.insert(row, &key(g), &mut rng);
            congress.insert(row, &key(g), &mut rng);
            row += 1;
        }
    }

    for (name, sample) in [
        ("senate", senate.snapshot(&mut rng).unwrap()),
        ("basic", basic.snapshot(&mut rng).unwrap()),
        ("congress", congress.snapshot(&mut rng).unwrap()),
    ] {
        assert_eq!(sample.stratum_count(), 6, "{name} must know all 6 groups");
        for g in 0..6 {
            let idx = sample
                .strata_keys()
                .iter()
                .position(|k| k == &key(g))
                .unwrap();
            assert!(
                !sample.sampled_rows()[idx].is_empty(),
                "{name}: group {g} has no sample tuples after drift"
            );
        }
        // Group sizes must be exact stream counts.
        assert_eq!(sample.group_sizes().iter().sum::<u64>(), 12_000, "{name}");
    }
}

#[test]
fn maintained_sample_answers_queries_about_new_data() {
    // End-to-end drift: build on the first half, maintain through the
    // second half, and verify the final sample answers the finest-group
    // query over the FULL table with every group present.
    let ds = dataset(63);
    let cols = ds.grouping_columns();
    let half = ds.relation.row_count() / 2;

    let mut rng = StdRng::seed_from_u64(55);
    let mut maintainer = SenateMaintainer::new(2_000);
    for r in 0..ds.relation.row_count() {
        let k = GroupKey::from_row(&ds.relation, r, &cols);
        maintainer.insert(r, &k, &mut rng);
        if r == half {
            // Mid-stream snapshot must already be usable.
            let snap = maintainer.snapshot(&mut rng).unwrap();
            assert!(snap.total_sampled() > 0);
        }
    }
    let mut sample = maintainer.snapshot(&mut rng).unwrap();
    sample.set_grouping_columns(cols.clone());
    let input = sample.to_stratified_input(&ds.relation).unwrap();
    let plan = Integrated::build(&input).unwrap();

    let q: GroupByQuery = q_g3(&ds.ids);
    let exact = execute_exact(&ds.relation, &q).unwrap();
    let approx = plan.execute(&q).unwrap();
    let report = congress::compare_results(&exact, &approx, 0, 100.0);
    assert_eq!(report.missing_groups, 0);
    assert!(report.l1() < 30.0, "mean error {}%", report.l1());
}

#[test]
fn synopsis_and_one_pass_share_one_maintainer_dispatch() {
    // Ingesting the whole relation from row 0 and refreshing streams the
    // same rows through the same maintainer with the same seed as
    // `construct_one_pass`, so the samples agree row for row. Basic
    // Congress is left out: its ingest merges the batch as a Theorem 6.1
    // delta sample instead of streaming row by row.
    let ds = dataset(64);
    let cols = ds.grouping_columns();
    let seed = 21;
    for strategy in [
        SamplingStrategy::House,
        SamplingStrategy::Senate,
        SamplingStrategy::Congress,
    ] {
        let config = aqua::AquaConfig {
            space: 1_500,
            strategy,
            seed,
            ..aqua::AquaConfig::default()
        };
        let mut synopsis = aqua::Synopsis::new(config, cols.clone()).unwrap();
        synopsis.ingest(&ds.relation, 0).unwrap();
        synopsis.refresh(&ds.relation).unwrap();
        let served = &synopsis.generation().unwrap().sample;

        let mut rng = StdRng::seed_from_u64(seed);
        let one_pass = construct_one_pass(&ds.relation, &cols, strategy, 1_500, &mut rng).unwrap();
        assert_eq!(served.strata_keys(), one_pass.strata_keys(), "{strategy:?}");
        assert_eq!(served.group_sizes(), one_pass.group_sizes(), "{strategy:?}");
        assert_eq!(
            served.sampled_rows(),
            one_pass.sampled_rows(),
            "{strategy:?}"
        );
        assert_eq!(served.strategy_name(), one_pass.strategy_name());
    }
}
