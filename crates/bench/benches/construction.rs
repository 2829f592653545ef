//! Criterion bench for §6 construction: census-based draw vs the one-pass
//! maintainer route, for every strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use congress::alloc::Congress;
use congress::build::construct_one_pass;
use congress::{CongressionalSample, GroupCensus, SamplingStrategy, SeedSpec};
use tpcd::{GeneratorConfig, TpcdDataset};

fn bench_construction(c: &mut Criterion) {
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 100_000,
        num_groups: 1000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed: 2,
    });
    let cols = ds.grouping_columns();
    let census = GroupCensus::build(&ds.relation, &cols).unwrap();
    let space = 7_000usize;

    let mut group = c.benchmark_group("construct_census");
    group.sample_size(10);
    for strategy in SamplingStrategy::all() {
        group.bench_function(format!("{strategy:?}"), |b| {
            b.iter(|| {
                let spec = SeedSpec::new(3);
                let allocator = strategy.allocator();
                CongressionalSample::draw_par(&ds.relation, &census, allocator, space as f64, &spec)
                    .unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("construct_one_pass");
    group.sample_size(10);
    for strategy in SamplingStrategy::all() {
        group.bench_function(BenchmarkId::from_parameter(format!("{strategy:?}")), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                construct_one_pass(&ds.relation, &cols, strategy, space, &mut rng).unwrap()
            })
        });
    }
    group.finish();

    c.bench_function("census_build_100k", |b| {
        b.iter(|| GroupCensus::build(&ds.relation, &cols).unwrap())
    });

    // Parallel pipeline (parallel census + seeded per-stratum draws) vs the
    // strictly sequential run of the same pipeline. Identical output at
    // every thread count — per-group RNG streams come from the seed — so
    // the comparison isolates the scheduling cost alone.
    let mut group = c.benchmark_group("construct_parallel");
    group.sample_size(10);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= cores)
        .collect();
    if !threads.contains(&cores) {
        threads.push(cores);
    }
    for t in threads {
        group.bench_with_input(
            BenchmarkId::new("Congress", format!("{t}_threads")),
            &t,
            |b, &t| {
                b.iter(|| {
                    bench::construct_parallel(&ds.relation, &cols, &Congress, space as f64, 3, t)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
