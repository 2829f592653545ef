//! Fast-path equivalence: every rewrite strategy must produce
//! *bit-identical* cached [`QueryResult`]s whether the cache was cold or
//! warm, and the same groups with values within 1e-12 relative across
//! {cold plan, cached path} — the cached path scales each stratum's sum
//! once where the cold plans scale each row.
//!
//! The fixture is deliberately larger than the chunk size (`CHUNK_ROWS` =
//! 16·1024), so the cold plans' chunk merges are exercised rather than
//! short-circuited.

use engine::{
    AggregateSpec, ExecOptions, GroupByQuery, Having, Integrated, KeyNormalized, NestedIntegrated,
    Normalized, QueryCache, QueryResult, SamplePlan, StratifiedInput,
};

/// Same aggregate names and group keys; each value equal, within 1e-12
/// relative, or NaN on both sides.
fn assert_close(cold: &QueryResult, warm: &QueryResult, plan: &str) {
    assert_eq!(cold.aggregate_names, warm.aggregate_names, "{plan}");
    let keys = |r: &QueryResult| r.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(keys(cold), keys(warm), "{plan}: cold vs warm groups");
    for ((key, c), (_, w)) in cold.iter().zip(warm.iter()) {
        for (x, y) in c.iter().zip(w) {
            let close = x == y || (x - y).abs() <= 1e-12 * x.abs() || (x.is_nan() && y.is_nan());
            assert!(close, "{plan}: cold {x} vs warm {y} at {key}");
        }
    }
}
use relation::predicate::CmpOp;
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, RelationBuilder, Value};

/// Deterministic pseudo-random stratified sample: `rows` tuples over
/// `strata` strata (stratified on column `g`), with mixed scale factors.
fn big_sample(rows: usize, strata: usize) -> StratifiedInput {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("h", DataType::Int)
        .column("v", DataType::Float);
    let mut stratum_of_row = Vec::with_capacity(rows);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) as usize) % strata;
        let h = ((state >> 17) as usize) % 7;
        let v = ((state >> 11) % 10_000) as f64 / 100.0;
        b.push_row(&[Value::Int(g as i64), Value::Int(h as i64), Value::from(v)])
            .unwrap();
        stratum_of_row.push(g as u32);
    }
    StratifiedInput {
        rows: b.finish(),
        stratum_of_row,
        scale_factors: (0..strata).map(|s| 1.0 + (s % 9) as f64 * 0.5).collect(),
        strata_keys: (0..strata)
            .map(|s| GroupKey::new(vec![Value::Int(s as i64)]))
            .collect(),
        grouping_columns: vec![ColumnId(0)],
    }
}

fn plans(s: &StratifiedInput) -> Vec<Box<dyn SamplePlan>> {
    vec![
        Box::new(Integrated::build(s).unwrap()),
        Box::new(NestedIntegrated::build(s).unwrap()),
        Box::new(Normalized::build(s).unwrap()),
        Box::new(KeyNormalized::build(s).unwrap()),
    ]
}

fn queries() -> Vec<GroupByQuery> {
    let v = Expr::col(ColumnId(2));
    vec![
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(v.clone(), "a"),
            ],
        ),
        // Selective predicate: exercises masked evaluation + bitmap ops.
        GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![AggregateSpec::sum(v.clone(), "s")],
        )
        .with_predicate(Predicate::ge(ColumnId(2), 75.0)),
        GroupByQuery::new(
            vec![ColumnId(1)],
            vec![
                AggregateSpec::avg(v.clone(), "a"),
                AggregateSpec::min(v.clone(), "mn"),
                AggregateSpec::max(v.clone(), "mx"),
            ],
        ),
        // Scalar (no grouping).
        GroupByQuery::new(
            vec![],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        ),
        // Group-only predicate: referenced columns ⊆ grouping columns, so
        // the cached-summary fast path may serve this without a row scan.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(v.clone(), "a"),
                AggregateSpec::min(v.clone(), "mn"),
                AggregateSpec::max(v.clone(), "mx"),
            ],
        )
        .with_predicate(Predicate::le(ColumnId(0), 11i64)),
        // Compound group-only predicate over both grouping columns.
        GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(
            Predicate::ge(ColumnId(0), 4i64)
                .and(Predicate::le(ColumnId(1), 5i64).or(Predicate::eq(ColumnId(0), 17i64))),
        ),
        // Group-only predicate selecting nothing: the fast path must agree
        // with the scan path on the empty result too.
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(0), 1_000_000i64)),
        // Group-only predicate combined with HAVING on an estimated sum.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(v, "s"), AggregateSpec::count("c")],
        )
        .with_predicate(Predicate::le(ColumnId(0), 15i64))
        .with_having(Having::new("s", CmpOp::Gt, 0.0)),
    ]
}

#[test]
fn strategies_bit_identical_across_modes_and_cache_states() {
    let s = big_sample(40_000, 20);
    for plan in plans(&s) {
        let cache = QueryCache::new();
        for (qi, q) in queries().into_iter().enumerate() {
            let cold = plan.execute_opts(&q, &ExecOptions::default()).unwrap();
            // The shared cache is warm from the earlier queries; `fresh`
            // builds everything in a new one.
            let cached = |cache| ExecOptions {
                cache: Some(cache),
                ..ExecOptions::default()
            };
            let warm = plan.execute_opts(&q, &cached(&cache)).unwrap();
            let fresh = plan.execute_opts(&q, &cached(&QueryCache::new())).unwrap();
            // Query 6 selects no groups on purpose (predicate matches no
            // stratum); every other fixture query must produce rows.
            if qi == 6 {
                assert!(cold.is_empty(), "{}: expected empty", plan.name());
            } else {
                assert!(
                    !cold.is_empty(),
                    "{}: fixture query {qi} empty",
                    plan.name()
                );
            }
            assert_eq!(fresh, warm, "{}: warm vs cold-with-cache", plan.name());
            assert_close(&cold, &warm, plan.name());
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "{}: cache never hit (hits={}, misses={})",
            plan.name(),
            stats.hits,
            stats.misses
        );
    }
}

#[test]
fn warm_cache_results_survive_repeated_execution() {
    // Repeated warm executions must be stable (no accumulation of state in
    // the cache that could drift results).
    let s = big_sample(20_000, 8);
    let plan = Integrated::build(&s).unwrap();
    let cache = QueryCache::new();
    let q = GroupByQuery::new(
        vec![ColumnId(0)],
        vec![AggregateSpec::avg(Expr::col(ColumnId(2)), "a")],
    );
    let opts = ExecOptions {
        cache: Some(&cache),
        trace: None,
        cancel: None,
        ..ExecOptions::default()
    };
    let first = plan.execute_opts(&q, &opts).unwrap();
    for _ in 0..5 {
        assert_eq!(first, plan.execute_opts(&q, &opts).unwrap());
    }
}
