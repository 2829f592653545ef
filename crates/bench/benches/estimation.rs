//! Criterion bench contrasting exact execution against sample execution —
//! the speedup that motivates approximate query answering — plus the cost
//! of error-bound computation.

use criterion::{criterion_group, criterion_main, Criterion};

use aqua::answer::compute_bounds_cached;
use aqua::{RewriteChoice, SamplingStrategy};
use bench::harness::{build_plan, ExperimentSetup};
use congress::alloc::Congress;
use congress::{CongressionalSample, SeedSpec};
use engine::execute_exact;
use tpcd::GeneratorConfig;

fn bench_estimation(c: &mut Criterion) {
    let setup = ExperimentSetup::new(GeneratorConfig {
        table_size: 200_000,
        num_groups: 1000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed: 6,
    });

    c.bench_function("exact_qg2_200k", |b| {
        b.iter(|| execute_exact(&setup.dataset.relation, &setup.qg2).unwrap())
    });

    let plan = build_plan(
        &setup,
        SamplingStrategy::Congress,
        RewriteChoice::NestedIntegrated,
        0.07,
        9,
    );
    c.bench_function("approx_qg2_7pct", |b| {
        b.iter(|| plan.execute(&setup.qg2).unwrap())
    });

    // Bounds computation over the stratified input.
    let sample = CongressionalSample::draw_par(
        &setup.dataset.relation,
        &setup.census,
        &Congress,
        14_000.0,
        &SeedSpec::new(9),
    )
    .unwrap();
    let input = sample.to_stratified_input(&setup.dataset.relation).unwrap();
    let result = plan.execute(&setup.qg2).unwrap();
    c.bench_function("bounds_qg2", |b| {
        b.iter(|| compute_bounds_cached(&input, &setup.qg2, &result, 0.9, None).unwrap())
    });
}

criterion_group!(benches, bench_estimation);
criterion_main!(benches);
