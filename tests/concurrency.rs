//! Concurrency: the middleware serves queries while insert batches land —
//! readers see consistent snapshots, writers never corrupt the synopsis.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aqua::{Aqua, AquaConfig, SamplingStrategy};
use engine::{AggregateSpec, GroupByQuery};
use relation::{ColumnId, DataType, RelationBuilder, Value};

fn table(n: i64) -> relation::Relation {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Str)
        .column("v", DataType::Float);
    for i in 0..n {
        let g = ["a", "b", "c"][(i % 3) as usize];
        b.push_row(&[Value::str(g), Value::from((i % 100) as f64)])
            .unwrap();
    }
    b.finish()
}

#[test]
fn concurrent_queries_and_inserts() {
    let aqua = Arc::new(
        Aqua::build(
            table(20_000),
            vec![ColumnId(0)],
            AquaConfig {
                space: 600,
                strategy: SamplingStrategy::Congress,
                seed: 3,
                ..AquaConfig::default()
            },
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let query = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);

    let mut readers = Vec::new();
    for _ in 0..4 {
        let aqua = Arc::clone(&aqua);
        let stop = Arc::clone(&stop);
        let query = query.clone();
        readers.push(std::thread::spawn(move || {
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ans = aqua.answer(&query).expect("query under concurrency");
                // Structural sanity on every answer: 3 or 4 groups (the
                // writer introduces group "d" part-way through), counts
                // positive.
                let gc = ans.result.group_count();
                assert!((3..=4).contains(&gc), "saw {gc} groups");
                for (_, vals) in ans.result.iter() {
                    assert!(vals[0] > 0.0);
                }
                answered += 1;
            }
            answered
        }));
    }

    // Writer: 40 insert batches, introducing a new group half-way.
    for batch in 0..40 {
        let g = if batch >= 20 { "d" } else { "a" };
        let rows: Vec<Vec<Value>> = (0..250)
            .map(|i| vec![Value::str(g), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).expect("insert under concurrency");
    }
    // Let readers observe the final state, then stop them.
    let final_ans = aqua.answer(&query).unwrap();
    assert_eq!(final_ans.result.group_count(), 4);
    stop.store(true, Ordering::Relaxed);
    let total_answers: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_answers > 0, "readers must have made progress");
    assert_eq!(aqua.table_rows(), 20_000 + 40 * 250);
}

/// Readers keep answering while a writer repeatedly drives the bulk
/// *parallel* reconstruction path (plus insert batches between rebuilds).
/// Every answer must come from a complete synopsis — the rebuild swaps the
/// plan, input, and sample under the write lock, so a reader never sees a
/// torn mix of old and new strata.
#[test]
fn queries_during_parallel_rebuild() {
    let aqua = Arc::new(
        Aqua::build(
            table(20_000),
            vec![ColumnId(0)],
            AquaConfig {
                space: 600,
                strategy: SamplingStrategy::Congress,
                seed: 5,
                parallelism: 4,
                ..AquaConfig::default()
            },
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let query = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);

    let mut readers = Vec::new();
    for _ in 0..4 {
        let aqua = Arc::clone(&aqua);
        let stop = Arc::clone(&stop);
        let query = query.clone();
        readers.push(std::thread::spawn(move || {
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ans = aqua.answer(&query).expect("query during rebuild");
                // A torn read would surface as a group with a garbage
                // count or a partially registered stratum set.
                assert_eq!(ans.result.group_count(), 3, "strata set must be whole");
                let total: f64 = ans.result.iter().map(|(_, vals)| vals[0]).sum();
                assert!(total > 0.0, "counts must be positive");
                assert_eq!(ans.bounds.len(), 3, "bounds must cover every group");
                answered += 1;
            }
            answered
        }));
    }

    // Writer: parallel rebuilds interleaved with inserts into existing
    // groups (so the expected group count stays 3 throughout).
    for round in 0..12 {
        let g = ["a", "b", "c"][round % 3];
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::str(g), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).expect("insert between rebuilds");
        aqua.rebuild().expect("parallel rebuild under readers");
    }
    stop.store(true, Ordering::Relaxed);
    let total_answers: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_answers > 0, "readers must have made progress");
    assert_eq!(aqua.table_rows(), 20_000 + 12 * 200);
    // The final synopsis reflects the last rebuild, within budget.
    assert!(aqua.synopsis_rows() > 0);
}

#[test]
fn warehouse_shared_across_threads() {
    let w = Arc::new(aqua::Warehouse::new());
    w.register(
        "sales",
        table(5_000),
        vec![ColumnId(0)],
        AquaConfig {
            space: 300,
            strategy: SamplingStrategy::Senate,
            seed: 8,
            ..AquaConfig::default()
        },
    )
    .unwrap();
    let query = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let w = Arc::clone(&w);
            let query = query.clone();
            std::thread::spawn(move || {
                let sales = w.system("sales").unwrap();
                if i % 2 == 0 {
                    let ans = sales.answer(&query).unwrap();
                    assert_eq!(ans.result.group_count(), 3);
                } else {
                    let row = vec![Value::str("a"), Value::from(1.0)];
                    sales.insert_batch(&[row]).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(w.system("sales").unwrap().table_rows(), 5_003);
}
