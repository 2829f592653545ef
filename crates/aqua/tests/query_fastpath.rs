//! End-to-end checks of the vectorized query-serving fast path: warm-cache
//! answers must match cold ones bit-for-bit, parallelism must not change
//! answers, and the per-synopsis cache must be invalidated by insertions
//! so answers never serve stale state.

use aqua::{Aqua, AquaConfig, RewriteChoice, SamplingStrategy, Warehouse};
use congress::MemStore;
use engine::{AggregateSpec, GroupByQuery};
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

fn sales(n: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("region", DataType::Str)
        .column("amount", DataType::Float);
    for i in 0..n {
        let region = match i % 10 {
            0 => "east",
            1 | 2 => "south",
            _ => "west",
        };
        b.push_row(&[Value::str(region), Value::from((i % 50) as f64)])
            .unwrap();
    }
    b.finish()
}

fn config(rewrite: RewriteChoice, parallelism: usize) -> AquaConfig {
    AquaConfig {
        space: 120,
        strategy: SamplingStrategy::Congress,
        rewrite,
        confidence: 0.9,
        seed: 11,
        parallelism,
    }
}

fn queries() -> Vec<GroupByQuery> {
    let amount = Expr::col(ColumnId(1));
    vec![
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(amount.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(amount.clone(), "a"),
            ],
        ),
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(1), 25.0)),
        GroupByQuery::new(vec![], vec![AggregateSpec::sum(amount.clone(), "s")]),
        // Group-only predicate: eligible for the cached-summary fast path,
        // which must agree bit-for-bit with the scan path.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(amount.clone(), "s"),
                AggregateSpec::avg(amount, "a"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::eq(ColumnId(0), Value::str("west")).not().not()),
    ]
}

/// Assert two answers carry bit-identical error bounds (same groups, same
/// per-aggregate half-widths).
fn assert_bounds_identical(a: &aqua::ApproximateAnswer, b: &aqua::ApproximateAnswer, ctx: &str) {
    assert_eq!(a.bounds.len(), b.bounds.len(), "{ctx}: bound group count");
    for (ga, gb) in a.bounds.iter().zip(&b.bounds) {
        assert_eq!(ga.key, gb.key, "{ctx}: bound key order");
        assert_eq!(ga.bounds.len(), gb.bounds.len(), "{ctx}: agg arity");
        for (ba, bb) in ga.bounds.iter().zip(&gb.bounds) {
            let wa = ba.as_ref().map(|e| e.half_width.to_bits());
            let wb = bb.as_ref().map(|e| e.half_width.to_bits());
            assert_eq!(wa, wb, "{ctx}: half-width for {:?}", ga.key);
        }
    }
}

#[test]
fn warm_answers_identical_to_cold_for_every_rewrite() {
    let t = sales(3000);
    for rewrite in RewriteChoice::all() {
        let aqua = Aqua::build(t.clone(), vec![ColumnId(0)], config(rewrite, 0)).unwrap();
        for q in queries() {
            // First answer populates the synopsis cache; repeats hit it.
            let cold = aqua.answer(&q).unwrap();
            for _ in 0..3 {
                let warm = aqua.answer(&q).unwrap();
                assert_eq!(cold.result, warm.result, "{}", rewrite.name());
                assert_bounds_identical(&cold, &warm, rewrite.name());
            }
        }
    }
}

#[test]
fn parallelism_does_not_change_answers() {
    let t = sales(3000);
    for rewrite in RewriteChoice::all() {
        let serial = Aqua::build(t.clone(), vec![ColumnId(0)], config(rewrite, 1)).unwrap();
        let parallel = Aqua::build(t.clone(), vec![ColumnId(0)], config(rewrite, 8)).unwrap();
        for q in queries() {
            let a = serial.answer(&q).unwrap();
            let b = parallel.answer(&q).unwrap();
            assert_eq!(a.result, b.result, "{}", rewrite.name());
            assert_bounds_identical(&a, &b, rewrite.name());
        }
    }
}

#[test]
fn cached_answers_reflect_inserts() {
    // answer → insert → answer: the second answer must see the new rows,
    // i.e. insertion invalidated the memoized indexes/layouts.
    let t = sales(2000);
    let aqua = Aqua::build(
        t,
        vec![ColumnId(0)],
        config(RewriteChoice::KeyNormalized, 0),
    )
    .unwrap();
    let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
    // Warm the cache thoroughly.
    let before = aqua.answer(&q).unwrap();
    aqua.answer(&q).unwrap();
    let north = GroupKey::new(vec![Value::str("north")]);
    assert!(before.result.get(&north).is_none());

    let rows: Vec<Vec<Value>> = (0..120)
        .map(|i| vec![Value::str("north"), Value::from(i as f64)])
        .collect();
    aqua.insert_batch(&rows).unwrap();

    let after = aqua.answer(&q).unwrap();
    assert!(
        after.result.get(&north).is_some(),
        "inserted group must appear after cache invalidation"
    );
}

#[test]
fn warehouse_logged_inserts_invalidate_the_cache() {
    // The same contract through the durable warehouse path: answer,
    // insert_logged, answer again — the second answer reflects the new
    // rows even though the first answer warmed the synopsis cache.
    let store = MemStore::new();
    let w = Warehouse::new();
    let t = sales(1500);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config(RewriteChoice::Integrated, 0))
        .unwrap();
    w.save_all(&store).unwrap();

    let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
    let sales = w.system("sales").unwrap();
    let before = sales.answer(&q).unwrap();
    sales.answer(&q).unwrap(); // warm
    let north = GroupKey::new(vec![Value::str("north")]);
    assert!(before.result.get(&north).is_none());

    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| vec![Value::str("north"), Value::from(i as f64)])
        .collect();
    w.insert_logged(&store, "sales", &rows).unwrap();

    let after = sales.answer(&q).unwrap();
    assert!(
        after.result.get(&north).is_some(),
        "logged insert must invalidate the query cache"
    );
    // The overall count estimate must have grown.
    let total_before: f64 = before.result.rows().iter().map(|(_, v)| v[0]).sum();
    let total_after: f64 = after.result.rows().iter().map(|(_, v)| v[0]).sum();
    assert!(
        total_after > total_before,
        "{total_after} vs {total_before}"
    );
}
