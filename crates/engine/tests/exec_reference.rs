//! Property test: the hash-aggregation executor agrees with a naive
//! reference implementation on arbitrary small relations and queries.

use std::collections::BTreeMap;

use engine::{execute_exact, AggregateFn, AggregateSpec, GroupByQuery, QueryResult};
use proptest::prelude::*;
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

/// Row domain kept tiny so groups collide often.
#[derive(Debug, Clone)]
struct Row {
    a: i64,
    b: &'static str,
    v: f64,
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        0i64..4,
        prop_oneof![Just("x"), Just("y"), Just("z")],
        -100.0f64..100.0,
    )
        .prop_map(|(a, b, v)| Row { a, b, v })
}

fn relation_of(rows: &[Row]) -> Relation {
    let mut b = RelationBuilder::new()
        .column("a", DataType::Int)
        .column("b", DataType::Str)
        .column("v", DataType::Float);
    for r in rows {
        b.push_row(&[Value::Int(r.a), Value::str(r.b), Value::from(r.v)])
            .unwrap();
    }
    b.finish()
}

/// Naive reference: BTreeMap-grouped scalar loops.
fn reference(rows: &[Row], grouping: &[usize], threshold: Option<f64>) -> QueryResult {
    let mut groups: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    for r in rows {
        if let Some(t) = threshold {
            if r.v < t {
                continue;
            }
        }
        let mut key = Vec::new();
        for &g in grouping {
            key.push(match g {
                0 => Value::Int(r.a),
                _ => Value::str(r.b),
            });
        }
        groups.entry(GroupKey::new(key)).or_default().push(r.v);
    }
    let rows: Vec<(GroupKey, Vec<f64>)> = groups
        .into_iter()
        .map(|(k, vals)| {
            let sum: f64 = vals.iter().sum();
            let count = vals.len() as f64;
            let avg = sum / count;
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (k, vec![sum, count, avg, min, max])
        })
        .collect();
    QueryResult::new(
        vec!["s".into(), "c".into(), "a".into(), "mn".into(), "mx".into()],
        rows,
    )
}

fn full_query(grouping: Vec<ColumnId>, threshold: Option<f64>) -> GroupByQuery {
    let v = Expr::col(ColumnId(2));
    let mut q = GroupByQuery::new(
        grouping,
        vec![
            AggregateSpec::sum(v.clone(), "s"),
            AggregateSpec::count("c"),
            AggregateSpec::avg(v.clone(), "a"),
            AggregateSpec::min(v.clone(), "mn"),
            AggregateSpec::max(v, "mx"),
        ],
    );
    if let Some(t) = threshold {
        q = q.with_predicate(Predicate::ge(ColumnId(2), t));
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn executor_matches_reference(
        rows in proptest::collection::vec(row_strategy(), 1..60),
        grouping_choice in 0usize..4,
        threshold in proptest::option::of(-50.0f64..50.0),
    ) {
        let rel = relation_of(&rows);
        let (cols, positions): (Vec<ColumnId>, Vec<usize>) = match grouping_choice {
            0 => (vec![], vec![]),
            1 => (vec![ColumnId(0)], vec![0]),
            2 => (vec![ColumnId(1)], vec![1]),
            _ => (vec![ColumnId(0), ColumnId(1)], vec![0, 1]),
        };
        let got = execute_exact(&rel, &full_query(cols, threshold)).unwrap();
        let want = reference(&rows, &positions, threshold);

        prop_assert_eq!(got.group_count(), want.group_count());
        for ((k1, v1), (k2, v2)) in got.rows().iter().zip(want.rows()) {
            prop_assert_eq!(k1, k2);
            for (x, y) in v1.iter().zip(v2) {
                prop_assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()),
                    "{} vs {} at {}", x, y, k1);
            }
        }
    }

    /// SUM/COUNT decompose: the per-group totals of any grouping sum to
    /// the scalar total (no predicate).
    #[test]
    fn group_totals_sum_to_scalar(
        rows in proptest::collection::vec(row_strategy(), 1..60),
    ) {
        let rel = relation_of(&rows);
        let scalar = execute_exact(&rel, &full_query(vec![], None)).unwrap();
        let total = scalar.rows()[0].1[0];
        for cols in [vec![ColumnId(0)], vec![ColumnId(1)], vec![ColumnId(0), ColumnId(1)]] {
            let grouped = execute_exact(&rel, &full_query(cols, None)).unwrap();
            let sum: f64 = grouped.rows().iter().map(|(_, v)| v[0]).sum();
            prop_assert!((sum - total).abs() < 1e-7 * (1.0 + total.abs()));
        }
    }

    /// MIN ≤ AVG ≤ MAX per group, always.
    #[test]
    fn avg_between_min_and_max(
        rows in proptest::collection::vec(row_strategy(), 1..60),
    ) {
        let rel = relation_of(&rows);
        let r = execute_exact(&rel, &full_query(vec![ColumnId(0), ColumnId(1)], None)).unwrap();
        for (_, vals) in r.iter() {
            let (avg, mn, mx) = (vals[2], vals[3], vals[4]);
            prop_assert!(mn <= avg + 1e-9 && avg <= mx + 1e-9);
        }
    }
}

/// The same comparison once across chunk boundaries, which the small
/// property cases never reach: a seeded relation of three full chunks and a
/// short fourth, every grouping, with and without a threshold that empties
/// some (group, chunk) cells.
#[test]
fn executor_matches_reference_across_chunks() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(24);
    let n = relation::CHUNK_ROWS * 3 + 501;
    let rows: Vec<Row> = (0..n)
        .map(|i| Row {
            // `a = 3` only exists from the third chunk on.
            a: rng.gen_range(0i64..if i < 2 * relation::CHUNK_ROWS { 3 } else { 4 }),
            b: ["x", "y", "z"][rng.gen_range(0usize..3)],
            v: rng.gen_range(-100.0..100.0),
        })
        .collect();
    let rel = relation_of(&rows);
    let groupings: [(Vec<ColumnId>, Vec<usize>); 4] = [
        (vec![], vec![]),
        (vec![ColumnId(0)], vec![0]),
        (vec![ColumnId(1)], vec![1]),
        (vec![ColumnId(0), ColumnId(1)], vec![0, 1]),
    ];
    for (cols, positions) in groupings {
        for threshold in [None, Some(99.9)] {
            let got = execute_exact(&rel, &full_query(cols.clone(), threshold)).unwrap();
            let want = reference(&rows, &positions, threshold);
            assert_eq!(got.group_count(), want.group_count());
            for ((k1, v1), (k2, v2)) in got.rows().iter().zip(want.rows()) {
                assert_eq!(k1, k2);
                for (x, y) in v1.iter().zip(v2) {
                    // Chunk merges reorder the additions of ~16K values.
                    assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{x} vs {y} at {k1}");
                }
            }
        }
    }
}

/// Sanity: the AggregateFn enum round-trips through the reference columns.
#[test]
fn aggregate_order_matches_reference_layout() {
    assert!(AggregateFn::Sum.unbiased_under_scaling());
    let rows = vec![
        Row {
            a: 1,
            b: "x",
            v: 2.0,
        },
        Row {
            a: 1,
            b: "x",
            v: 4.0,
        },
    ];
    let rel = relation_of(&rows);
    let got = execute_exact(&rel, &full_query(vec![ColumnId(0)], None)).unwrap();
    assert_eq!(got.rows()[0].1, vec![6.0, 2.0, 3.0, 2.0, 4.0]);
}
