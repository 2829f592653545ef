//! Criterion bench for §6 incremental maintenance: per-tuple insert
//! throughput of the four maintainers. The paper flags Congress's
//! Θ(2^|G|) per-insert bookkeeping — visible here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use congress::build::{IncrementalMaintainer, Maintainer};
use congress::SamplingStrategy;
use relation::{GroupKey, Value};

/// A pre-materialized insert stream: 20K tuples over 100 (a, b) groups.
fn stream() -> Vec<(usize, GroupKey)> {
    (0..20_000usize)
        .map(|r| {
            let a = (r * 7919) % 10;
            let b = (r * 104_729) % 10;
            (
                r,
                GroupKey::new(vec![Value::Int(a as i64), Value::Int(b as i64)]),
            )
        })
        .collect()
}

fn bench_maintenance(c: &mut Criterion) {
    let items = stream();
    let n = items.len() as u64;
    let mut group = c.benchmark_group("maintainer_insert");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));

    for strategy in SamplingStrategy::all() {
        group.bench_function(BenchmarkId::from_parameter(format!("{strategy:?}")), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut m = Maintainer::new(strategy, 1000, 2);
                for (r, k) in &items {
                    m.insert(*r, k, &mut rng);
                }
                m.sample_len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);
