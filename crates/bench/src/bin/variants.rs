//! §4.6 "alternative definitions of Congress" ablation: the paper gives
//! four ways to materialize the same allocation —
//!
//! 1. exact per-group draws of `SampleSize(g)` (Eq 5),
//! 2. Bernoulli inclusion with probability `SampleSize(g)/n_g`,
//! 3. per-tuple probabilities over the lattice (Eq 8, via the §6
//!    maintainer), and
//! 4. the shared-tuples lattice walk (the pseudocode after Eq 8) —
//!
//! and claims "in practice, the difference between these approaches is
//! negligible." This harness measures all four on the same data/queries.
//!
//! Run: `cargo run -p bench --release --bin variants [-- --quick]`

use bench::harness::ExperimentSetup;
use bench::report::{pct, Table};
use congress::alloc::Congress;
use congress::build::{construct_congress_shared, construct_one_pass};
use congress::{compare_results, CongressionalSample, SamplingStrategy, SeedSpec};
use engine::execute_exact;
use engine::rewrite::{Integrated, SamplePlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcd::GeneratorConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = GeneratorConfig {
        table_size: if quick { 60_000 } else { 300_000 },
        num_groups: 125,
        group_skew: 1.2,
        agg_skew: 0.86,
        seed: 20000521,
    };
    let trials = if quick { 3 } else { 8 };
    eprintln!("generating lineitem: T={} ...", config.table_size);
    let setup = ExperimentSetup::new(config);
    let space = 0.07 * setup.dataset.relation.row_count() as f64;

    let queries = [("Qg2", &setup.qg2), ("Qg3", &setup.qg3)];
    let mut table = Table::new(
        "§4.6 construction variants — mean error % (all four should be close: \
         'the difference between these approaches is negligible')",
        &["variant", "Qg2", "Qg3", "avg sampled tuples"],
    );

    type Builder<'a> = Box<dyn Fn(u64) -> CongressionalSample + 'a>;
    let rel = &setup.dataset.relation;
    let census = &setup.census;
    let cols = setup.dataset.grouping_columns();
    let variants: Vec<(&str, Builder)> = vec![
        (
            "exact draw (Eq 5)",
            Box::new(move |seed| {
                let spec = SeedSpec::new(seed);
                CongressionalSample::draw_par(rel, census, &Congress, space, &spec).unwrap()
            }),
        ),
        (
            "Bernoulli (SampleSize/n_g)",
            Box::new(move |seed| {
                let spec = SeedSpec::new(seed);
                CongressionalSample::draw_bernoulli_par(rel, census, &Congress, space, &spec)
                    .unwrap()
            }),
        ),
        (
            "Eq-8 maintainer (one pass)",
            Box::new(move |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                construct_one_pass(
                    rel,
                    &cols,
                    SamplingStrategy::Congress,
                    space as usize,
                    &mut rng,
                )
                .unwrap()
            }),
        ),
        (
            "shared lattice walk",
            Box::new(move |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                construct_congress_shared(rel, census, space, &mut rng).unwrap()
            }),
        ),
    ];

    let exact: Vec<_> = queries
        .iter()
        .map(|(_, q)| execute_exact(rel, q).unwrap())
        .collect();

    for (name, build) in &variants {
        let mut errs = vec![0.0f64; queries.len()];
        let mut tuples = 0.0;
        for t in 0..trials {
            let sample = build(40_000 + t);
            tuples += sample.total_sampled() as f64 / trials as f64;
            let input = sample.to_stratified_input(rel).unwrap();
            let plan = Integrated::build(&input).unwrap();
            for (qi, (_, q)) in queries.iter().enumerate() {
                let approx = plan.execute(q).unwrap();
                errs[qi] += compare_results(&exact[qi], &approx, 0, 100.0).l1() / trials as f64;
            }
        }
        table.row(&[
            name.to_string(),
            pct(errs[0]),
            pct(errs[1]),
            format!("{tuples:.0}"),
        ]);
        eprintln!("  {name}: done");
    }
    println!("{table}");
}
